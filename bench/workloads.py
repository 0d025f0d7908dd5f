"""Seeded job lists for the three benchmark workloads.

A job is the argv list handed to ``resloc.cli.run`` plus the facts its
output check needs.  The program only ever sees the argv; everything else
stays on the benchmark side.  The same seed always yields the same jobs.
"""

import functools
import random

WORKLOADS = ("flag", "gw", "schubert")

# Number of weight samples the extraction uses by default for m = 3, so the
# seeded samples determine the table as fully as the default ones do.
FLAG_SAMPLES = {7: 7, 8: 8, 9: 9}
FLAG_WEIGHT_RANGE = 100
FLAG_VERIFY_ARGV = ["flag-table", "--m", "3", "--n", "6",
                    "--verify-tau", "sigma(1)^9", "--experimental"]

GW_JOBS = (
    ["lefschetz", "--n", "4", "--l", "5", "--max-degree", "16"],
    ["invariants", "--target", "hypersurface", "--n", "4", "--l", "5",
     "--max-degree", "8"],
    ["qh", "--target", "hypersurface", "--n", "5", "--l", "5",
     "--max-degree", "6"],
    ["qh", "--target", "P1xP1", "--max-degree", "12"],
    ["invariants", "--target", "P1xP1", "--max-degree", "10"],
    ["qh", "--target", "Pn", "--n", "10", "--max-degree", "6"],
)

# Queries per Grassmannian G(m, n): m = 2 for n <= 14, m >= 3 for n <= 8,
# which keeps m in roughly the 3 : 2 : 1 ratio of {2, 2, 2, 3, 3, 4}.
SCHUBERT_GRID = {2: (range(3, 15), 12), 3: (range(4, 9), 20),
                 4: (range(5, 9), 12)}


class Job:
    __slots__ = ("argv", "info")

    def __init__(self, argv, **info):
        self.argv = list(argv)
        self.info = info


def make_jobs(workload, seed):
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "flag":
        return _flag_jobs(rng)
    if workload == "gw":
        return _gw_jobs(rng)
    if workload == "schubert":
        return _schubert_jobs(rng)
    raise ValueError("unknown workload %r" % workload)


def _flag_jobs(rng):
    jobs = []
    for n, count in FLAG_SAMPLES.items():
        argv = ["flag-table", "--m", "3", "--n", str(n)]
        for w in _weight_samples(rng, 3, count):
            argv += ["--weights", ",".join(map(str, w))]
        jobs.append(Job(argv, kind="flag", m=3, n=n))
    jobs.append(Job(FLAG_VERIFY_ARGV, kind="flag", m=3, n=6, verify=True))
    return jobs


def _weight_samples(rng, m, count):
    """Distinct nonnegative weights; no sample is an affine image of another.

    Weights that differ by a shift, a positive scale or a reordering give
    the same extraction equations, so such repeats are drawn again.
    """
    seen = set()
    out = []
    while len(out) < count:
        w = rng.sample(range(FLAG_WEIGHT_RANGE), m)
        s = sorted(w)
        diffs = [x - s[0] for x in s[1:]]
        g = 0
        for d in diffs:
            g = _gcd(g, d)
        shape = tuple(d // g for d in diffs)
        if shape in seen:
            continue
        seen.add(shape)
        out.append(w)
    return out


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _gw_jobs(rng):
    jobs = [Job(argv, kind=argv[0]) for argv in GW_JOBS]
    rng.shuffle(jobs)
    return jobs


def _schubert_jobs(rng):
    jobs = []
    for m, (ns, per_n) in SCHUBERT_GRID.items():
        for n in ns:
            dim = m * (n - m)
            # two fixed queries per Grassmannian: sigma(1)^dim, checked by
            # the degree formula, and the Pieri product sigma(n-m)^m; on
            # G(4, 8) both are among the slowest, which steadies job_max_s
            jobs.append(_schubert_job(m, n, [(1,)] * dim, power=True))
            jobs.append(_schubert_job(m, n, [(n - m,)] * m))
            for _ in range(per_n - 2):
                jobs.append(_schubert_job(m, n, _random_factors(rng, m, n)))
    rng.shuffle(jobs)
    return jobs


def _schubert_job(m, n, factors, power=False):
    if power:
        tau = "sigma(1)^%d" % len(factors)
    else:
        tau = tau_text(factors)
    argv = ["schubert", "--m", str(m), "--n", str(n), "--tau", tau]
    return Job(argv, kind="schubert", m=m, n=n, factors=factors, power=power)


def tau_text(factors):
    return "*".join("sigma(%s)" % ",".join(map(str, lam)) for lam in factors)


def _random_factors(rng, m, n):
    """Partitions inside the m x (n - m) box whose sizes sum to dim G(m, n).

    Each factor has size at most n - m, the length of a row of the box, so
    a query is a product of several small classes rather than one big one.
    """
    left = m * (n - m)
    factors = []
    while left:
        k = rng.randint(1, min(n - m, left))
        factors.append(rng.choice(_box_partitions(k, m, n - m)))
        left -= k
    return factors


@functools.lru_cache(maxsize=None)
def _box_partitions(k, rows, cols):
    """All partitions of k with at most rows parts, each at most cols."""
    out = []

    def rec(prefix, left, top):
        if left == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == rows:
            return
        for part in range(min(left, top), 0, -1):
            rec(prefix + [part], left - part, part)

    rec([], k, cols)
    return tuple(out)
