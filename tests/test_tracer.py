"""The benchmark's span tracer binds to every traced resloc function.

bench/spans.py wraps each target through its owner's __dict__ and refuses
to run when a resloc module or class still holds an unwrapped binding.
Running it here makes a change that moves, hides or re-binds a traced
function fail in the test suite, not only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import resloc.cli

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("resloc_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
