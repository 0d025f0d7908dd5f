"""The benchmark's span tracer binds to every traced resloc function.

bench/spans.py wraps each target through its owner's __dict__ and refuses
to run when a resloc module or class still holds an unwrapped binding.
Running it here makes a change that moves, hides or re-binds a traced
function, or stops a workload from reaching a span bench/run.py requires,
fail in the test suite, not only in a traced benchmark run.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import resloc.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"

# small jobs of each workload's kinds, enough to reach every required span
COVERAGE_JOBS = {
    "flag": [["flag-table", "--m", "3", "--n", "4",
              "--verify-tau", "sigma(1)^3", "--experimental"]],
    "gw": [["lefschetz", "--n", "4", "--l", "5", "--max-degree", "2"],
           ["invariants", "--target", "hypersurface", "--n", "4", "--l", "5",
            "--max-degree", "2"],
           ["qh", "--target", "P1xP1", "--max-degree", "2"]],
    "schubert": [["schubert", "--m", "2", "--n", "4", "--tau", "sigma(1)^4"],
                 ["schubert", "--m", "3", "--n", "5", "--tau", "sigma(1)^6"]],
}


def load_spans():
    spec = importlib.util.spec_from_file_location("resloc_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def required_spans():
    """REQUIRED_SPANS as bench/run.py declares it, read without running it."""
    tree = ast.parse((BENCH / "run.py").read_text())
    for node in tree.body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if names == ["REQUIRED_SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py declares no REQUIRED_SPANS")


def bindings(spans):
    """Current value of every traced target, keyed by module and attribute."""
    out = {}
    for _, mod_name, attr, _, _ in spans.TARGETS:
        owner = getattr(resloc, mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        out[(mod_name, attr)] = owner
    return out


def test_tracer_installs_and_restores(capsys):
    spans = load_spans()
    original = bindings(spans)
    tracer = spans.Tracer()
    with tracer:
        wrapped = bindings(spans)
        assert all(wrapped[k] is not original[k] for k in original)
        code = resloc.cli.run(["lefschetz", "--n", "4", "--l", "5",
                               "--max-degree", "2"])
    assert code == 0
    assert capsys.readouterr().out
    assert bindings(spans) == original
    totals = tracer.totals()
    for name in ("cli.run", "jfun.i_function", "jfun.mirror_normalize",
                 "qseries.mul", "qseries.exp", "qseries.compose",
                 "laurent.invert", "laurent.mul", "ring.mul"):
        assert totals[name][0] > 0, name


def test_coverage_jobs_cover_every_workload():
    assert set(COVERAGE_JOBS) == set(required_spans())


@pytest.mark.parametrize("workload", sorted(COVERAGE_JOBS))
def test_workload_reaches_every_required_span(workload, capsys):
    tracer = load_spans().Tracer()
    with tracer:
        codes = [resloc.cli.run(argv) for argv in COVERAGE_JOBS[workload]]
    assert codes == [0] * len(codes)
    capsys.readouterr()
    totals = tracer.totals()
    missing = [name for name in required_spans()[workload]
               if not totals.get(name, [0])[0]]
    assert not missing, missing
