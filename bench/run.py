"""Benchmark for resloc: seeded CLI job mixes, timed and checked.

Usage (from the repository root):

    python3 bench/run.py --workload flag|gw|schubert --seed N \
        --seconds S --trace 0|1

Jobs go through the public entry point ``resloc.cli.run(argv)`` in this
process, one after another (closed loop, one client), with stdout captured.
``--trace 0`` repeats the whole job list until ``--seconds`` have passed and
reports the end-to-end metrics; ``--trace 1`` runs the list once untraced and
then at least twice with spans around every layer, and reports per-layer
metrics.  Every job's output is checked after timing.  The last line of
stdout is one JSON object; a run record goes to bench/out/.  The exit code
is 0 only when every job ran and every check passed.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import workloads  # noqa: E402  (sibling module of this script)

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PROBES = 6

# Span names each workload must reach, so that a binding the tracer missed
# cannot read as zero cost.
REQUIRED_SPANS = {
    "flag": ("cli.run", "tau_parser.parse", "sympoly.p_mul",
             "sympoly.evaluate", "schubert.flag_extract", "schubert.euler",
             "schubert.verify", "linalg.add_equation", "laurent.invert",
             "laurent.mul", "laurent.add", "ring.mul", "ring.add"),
    "gw": ("cli.run", "jfun.i_function", "jfun.j_projective",
           "jfun.j_product", "jfun.mirror_normalize",
           "jfun.pull_to_hypersurface", "qseries.mul", "qseries.exp",
           "qseries.compose", "reconstruct.two_point",
           "reconstruct.quantum_mult_matrix", "reconstruct.qh_relation",
           "linalg.add_equation", "laurent.invert", "laurent.mul",
           "laurent.add", "ring.mul", "ring.add"),
    "schubert": ("cli.run", "tau_parser.parse", "sympoly.p_mul",
                 "sympoly.schur_expand", "sympoly.oracle",
                 "sympoly.evaluate", "schubert.residue", "laurent.invert",
                 "laurent.mul", "laurent.add", "ring.mul", "ring.add"),
}

# Per-layer metrics: (metric, span, field); field is calls, total_s,
# self_s or the span's work counter.
LAYER_METRICS = (
    ("laurent.invert.calls", "laurent.invert", "calls"),
    ("laurent.invert.total_s", "laurent.invert", "total_s"),
    ("laurent.invert.self_s", "laurent.invert", "self_s"),
    ("laurent.invert.ring_monomials", "laurent.invert", "work"),
    ("ring.mul.calls", "ring.mul", "calls"),
    ("ring.mul.self_s", "ring.mul", "self_s"),
    ("ring.mul.term_pairs", "ring.mul", "work"),
    ("ring.add.calls", "ring.add", "calls"),
    ("ring.add.self_s", "ring.add", "self_s"),
    ("laurent.mul.calls", "laurent.mul", "calls"),
    ("laurent.mul.self_s", "laurent.mul", "self_s"),
    ("laurent.add.calls", "laurent.add", "calls"),
    ("laurent.add.self_s", "laurent.add", "self_s"),
    ("linalg.add_equation.calls", "linalg.add_equation", "calls"),
    ("linalg.add_equation.total_s", "linalg.add_equation", "total_s"),
    ("qseries.mul.calls", "qseries.mul", "calls"),
    ("qseries.mul.self_s", "qseries.mul", "self_s"),
    ("qseries.exp.calls", "qseries.exp", "calls"),
    ("qseries.exp.total_s", "qseries.exp", "total_s"),
    ("qseries.compose.calls", "qseries.compose", "calls"),
    ("qseries.compose.total_s", "qseries.compose", "total_s"),
    ("jfun.mirror_normalize.total_s", "jfun.mirror_normalize", "total_s"),
    ("jfun.mirror_normalize.self_s", "jfun.mirror_normalize", "self_s"),
    ("jfun.i_function.total_s", "jfun.i_function", "total_s"),
    ("jfun.j_projective.total_s", "jfun.j_projective", "total_s"),
    ("jfun.j_product.total_s", "jfun.j_product", "total_s"),
    ("jfun.pull_to_hypersurface.total_s", "jfun.pull_to_hypersurface",
     "total_s"),
    ("reconstruct.two_point.total_s", "reconstruct.two_point", "total_s"),
    ("reconstruct.two_point.self_s", "reconstruct.two_point", "self_s"),
    ("reconstruct.quantum_mult_matrix.total_s",
     "reconstruct.quantum_mult_matrix", "total_s"),
    ("reconstruct.quantum_mult_matrix.self_s",
     "reconstruct.quantum_mult_matrix", "self_s"),
    ("reconstruct.qh_relation.total_s", "reconstruct.qh_relation", "total_s"),
    ("reconstruct.qh_relation.self_s", "reconstruct.qh_relation", "self_s"),
    ("schubert.flag_extract.total_s", "schubert.flag_extract", "total_s"),
    ("schubert.flag_extract.self_s", "schubert.flag_extract", "self_s"),
    ("schubert.euler.calls", "schubert.euler", "calls"),
    ("schubert.euler.total_s", "schubert.euler", "total_s"),
    ("schubert.verify.total_s", "schubert.verify", "total_s"),
    ("schubert.residue.calls", "schubert.residue", "calls"),
    ("schubert.residue.total_s", "schubert.residue", "total_s"),
    ("sympoly.p_mul.calls", "sympoly.p_mul", "calls"),
    ("sympoly.p_mul.self_s", "sympoly.p_mul", "self_s"),
    ("sympoly.p_mul.term_pairs", "sympoly.p_mul", "work"),
    ("sympoly.schur_expand.calls", "sympoly.schur_expand", "calls"),
    ("sympoly.schur_expand.total_s", "sympoly.schur_expand", "total_s"),
    ("sympoly.evaluate.total_s", "sympoly.evaluate", "total_s"),
    ("tau_parser.parse.calls", "tau_parser.parse", "calls"),
    ("tau_parser.parse.total_s", "tau_parser.parse", "total_s"),
    ("tau_parser.parse.self_s", "tau_parser.parse", "self_s"),
    ("cli.run.calls", "cli.run", "calls"),
    ("cli.self_s", "cli.run", "self_s"),
)
FIELDS = {"calls": 0, "total_s": 1, "self_s": 2, "work": 3, "returned": 4}


def _unit(metric):
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def import_program():
    """Import resloc from this checkout's src/ only, timing the import."""
    if not os.path.isfile(os.path.join(SRC, "resloc", "cli.py")):
        sys.exit("bench: no resloc sources under %s" % SRC)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    cli = importlib.import_module("resloc.cli")
    elapsed = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit("bench: imported resloc from %s, not %s" % (cli.__file__, SRC))
    return cli, elapsed


def setup_probe(workload, seed):
    """Time importing resloc and generating the jobs in this fresh process."""
    cli, import_s = import_program()
    start = time.perf_counter()
    workloads.make_jobs(workload, seed)
    print(repr(import_s + time.perf_counter() - start))


def probe_setup_times(workload, seed):
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


class Outcome:
    __slots__ = ("seconds", "code", "digest", "stdout", "error")

    def __init__(self, seconds, code, stdout, error):
        self.seconds = seconds
        self.code = code
        self.stdout = stdout
        self.digest = hashlib.sha256(stdout.encode()).hexdigest()
        self.error = error


def run_pass(cli, jobs, tracer=None):
    """Send each job after the previous one returns; time each job."""
    gc.collect()
    outcomes = []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.run(job.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed job, not a stop
            code, error = None, "%s: %s" % (type(exc).__name__, exc)
        seconds = time.perf_counter() - start
        if code and error is None:
            error = err.getvalue().strip()[-500:]
        outcomes.append(Outcome(seconds, code, out.getvalue(), error))
    return outcomes


def run_passes(cli, jobs, seconds, min_passes, tracer=None):
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        outcomes = run_pass(cli, jobs, tracer)
        wall = time.perf_counter() - start
        p = {"wall": wall, "outcomes": outcomes}
        if tracer is not None:
            p["spans"] = tracer.span_rows()
            p["totals"] = tracer.totals()
        passes.append(p)
    return passes


def check_outputs(jobs, passes):
    """Check each distinct (job, stdout) once, outside every timed region.

    Returns per-job failure flags for every pass and a list of reasons.
    """
    import checks
    checker = checks.Checker()
    verdicts = {}
    reasons = []
    failed = []
    for p in passes:
        flags = []
        for index, (job, out) in enumerate(zip(jobs, p["outcomes"])):
            if out.code != 0:
                flags.append(True)
                reasons.append("job %d exit %s: %s" % (index, out.code,
                                                       out.error))
                continue
            key = (index, out.digest)
            if key not in verdicts:
                try:
                    checker.check(job, out.stdout)
                    verdicts[key] = None
                except Exception as exc:  # unreadable output fails too
                    verdicts[key] = "%s: %s" % (type(exc).__name__, exc)
                    reasons.append("job %d (%s): %s"
                                   % (index, " ".join(job.argv), exc))
            flags.append(verdicts[key] is not None)
        failed.append(flags)
    return failed, reasons


def end_to_end(passes, setup_times, rss_kib):
    """Job times are first reduced to each job's median over the passes."""
    jobs = sorted(statistics.median(p["outcomes"][i].seconds for p in passes)
                  for i in range(len(passes[0]["outcomes"])))
    metrics = {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "job_p50_s": statistics.median(jobs),
        "job_max_s": jobs[-1],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    extra = {}
    # the 95th percentile only where at least ten jobs lie beyond it
    if len(jobs) * 0.05 >= 10:
        extra["job_p95_s"] = {"value": statistics.quantiles(jobs, n=100)[94],
                              "jobs": len(jobs)}
    return metrics, extra


def per_layer(passes, untraced_wall):
    """Counts from the first traced pass, times as medians over passes."""
    empty = [0, 0.0, 0.0, 0, 0]
    metrics = {}
    for metric, span, field in LAYER_METRICS:
        values = [p["totals"].get(span, empty)[FIELDS[field]] for p in passes]
        metrics[metric] = (statistics.median(values) if field.endswith("_s")
                           else values[0])
    calls, _, _, rank, returned = passes[0]["totals"].get(
        "linalg.add_equation", empty)
    metrics["linalg.rank"] = rank
    metrics["linalg.redundant"] = returned - rank
    metrics["linalg.useful_ratio"] = rank / calls if calls else 0.0
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["wall"] for p in passes) / untraced_wall)
    return metrics


def count_mismatches(passes):
    """Exact counts that differ between traced passes of the same jobs."""
    keys = [m for m in passes[0]["metrics"] if _unit(m) == "count"]
    return sorted(k for k in keys
                  if len({p["metrics"][k] for p in passes}) > 1)


def machine():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "cpu": cpu,
            "ru_maxrss_unit": "bytes" if sys.platform == "darwin" else "KiB"}


def commit():
    """HEAD of the checkout when it is a git clone, read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    cli, import_s = import_program()
    start = time.perf_counter()
    jobs = workloads.make_jobs(args.workload, args.seed)
    setup_times = [import_s + time.perf_counter() - start]

    problems = []
    metrics = {}
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "commit": commit(), "machine": machine(),
              "argv": [job.argv for job in jobs]}
    if args.trace:
        import spans
        base = run_passes(cli, jobs, 0, 1)
        tracer = spans.Tracer()
        try:
            with tracer:
                passes = run_passes(cli, jobs, args.seconds,
                                    MIN_TRACED_PASSES, tracer)
        except spans.MissedBinding as exc:
            problems.append(str(exc))
            passes = []
        for p in passes:
            p["metrics"] = per_layer([p], base[0]["wall"])
        if passes:
            metrics = per_layer(passes, base[0]["wall"])
            missing = [s for s in REQUIRED_SPANS[args.workload]
                       if not passes[0]["totals"].get(s, [0])[0]]
            if missing:
                problems.append("no calls recorded for: %s"
                                % ", ".join(missing))
            drift = count_mismatches(passes)
            if drift:
                problems.append("counts differ between traced passes: %s"
                                % ", ".join(drift))
            record["spans"] = passes[0]["spans"]
        passes = base + passes
        names = [m["name"] for m in spec["per_layer"]]
    else:
        setup_times += probe_setup_times(args.workload, args.seed)
        passes = run_passes(cli, jobs, args.seconds, MIN_PASSES)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":
            rss /= 1024.0
        metrics, extra = end_to_end(passes, setup_times, rss)
        record["setup_times_s"] = setup_times
        names = [m["name"] for m in spec["end_to_end"]]

    failed, reasons = check_outputs(jobs, passes)
    attempted = sum(len(flags) for flags in failed)
    failures = sum(sum(flags) for flags in failed)
    problems += reasons
    if not args.trace:
        extra["failed_ratio"] = {"value": failures / attempted}

    missing = [n for n in names if n not in metrics]
    problems += ["metric %s was not measured" % n for n in missing]
    correct = not problems
    result = {"correct": correct, "attempted": attempted, "failed": failures,
              "metrics": {n: {"value": metrics[n], "unit": _unit(n)}
                          for n in names if n in metrics}}

    record.update({
        "passes": [{"wall_s": p["wall"],
                    "jobs": [{"seconds": o.seconds, "exit": o.code,
                              "stdout_sha256": o.digest} for o in p["outcomes"]]}
                   for p in passes],
        "metrics": metrics, "problems": problems,
        "attempted": attempted, "failed": failures})
    if not args.trace:
        record["extra"] = extra
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-trace%d.json" % (args.workload,
                                                      args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    shown = dict(metrics)
    if not args.trace:
        shown.update({k: v["value"] for k, v in extra.items()})
    for name in sorted(shown):
        print("%-42s %16.6g %s" % (name, shown[name], _unit(name)))
    if not args.trace and "job_p95_s" in extra:
        print("job_p95_s is over %d jobs" % extra["job_p95_s"]["jobs"])
    for problem in problems[:20]:
        print("PROBLEM: %s" % problem)
    print("record: %s" % os.path.relpath(path, ROOT))
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
