"""Output checks: each job's stdout against a value computed another way.

Every check parses what the CLI printed and compares it exactly with an
independent source: a different algorithm in the library, a literature
value, or a closed form computed here.  A check raises CheckFailed with a
reason; the caller counts it as a failed job.
"""

import itertools
import re
from fractions import Fraction
from math import comb, factorial, prod

import resloc
from workloads import tau_text

FLAG_HELD_OUT_WEIGHT = (0, 7, 101)  # outside the sampled range [0, 100)

# Candelas-de la Ossa-Green-Parkes (1991): rational curves on the quintic.
QUINTIC_N = (2875, 609250, 317206375, 242467530000, 229305888887625,
             248249742118022000, 295091050570845659250,
             375632160937476603550000)


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


class Checker:
    """Checks jobs of one workload; reference values are computed once."""

    def __init__(self):
        self._cache = {}

    def _ref(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def check(self, job, stdout):
        getattr(self, "_check_" + job.info["kind"])(job, stdout)

    # -- flag ---------------------------------------------------------------

    def _check_flag(self, job, stdout):
        m, n = job.info["m"], job.info["n"]
        lines = stdout.splitlines()
        expect(lines and lines[0] == "zeta h value", "missing table header")
        if job.info.get("verify"):
            # the m >= 3 pullback behind --verify-tau is experimental and has
            # no independent value, so only the line's presence is checked
            expect(lines[-1] in ("verified true", "verified false"),
                   "missing verification line")
            lines = lines[:-1]
        table = {}
        for line in lines[1:]:
            a, b, v = line.split()
            table[(_tuple(a), int(b))] = Fraction(v)
        if "--weights" in job.argv:
            expect(table == self._ref(("flag", m, n),
                                      lambda: _default_table(m, n)),
                   "table from seeded weights differs from the default one")
        expect(_euler_identity(m, n, table, FLAG_HELD_OUT_WEIGHT),
               "localization identity fails at held-out weight %r"
               % (FLAG_HELD_OUT_WEIGHT,))

    # -- gw -----------------------------------------------------------------

    def _check_lefschetz(self, job, stdout):
        n, l, d_max = (_flag_value(job.argv, f) for f in
                       ("--n", "--l", "--max-degree"))
        a, b = _mirror_series(n, l, d_max)
        got = {"a": {}, "b": {}, "c": {}}
        rows = stdout.splitlines()
        expect(rows[0] == "series d t H value", "missing header")
        for line in rows[1:]:
            label, d, t, h, v = line.split()
            d, t, h, v = int(d), int(t), int(h), Fraction(v)
            if label == "J":
                if d == 0:
                    expect((t, h, v) == (0, 1, l),
                           "J_0 term %r is not %d*H" % (line, l))
                else:
                    expect(t <= -2, "J_%d keeps t^%d" % (d, t))
            else:
                got[label][d] = v
        expect(got["a"] == {d: v for d, v in enumerate(a) if v},
               "mirror map a(q) differs from the hypergeometric one")
        expect(got["b"] == {d: v for d, v in enumerate(b) if v},
               "b(q) differs from -log F(q exp a(q))")
        expect(not got["c"], "c(q) is nonzero on a Calabi-Yau")

    def _check_invariants(self, job, stdout):
        got = _parse_rows(stdout, "d a b value", 3)
        target = _flag_value(job.argv, "--target", str)
        d_max = _flag_value(job.argv, "--max-degree")
        if target == "hypersurface":
            n, l = _flag_value(job.argv, "--n"), _flag_value(job.argv, "--l")
            expect((n, l) == (4, 5), "only the quintic has reference values")
            want = {((d,), (1,), (1,)): d * d * _quintic_degree_count(d)
                    for d in range(1, d_max + 1)}
            lines = self._ref(("lines", n, l), lambda: _line_count(n, l))
            expect(got.get(((1,), (1,), (1,))) == lines,
                   "<H,H>_1 differs from the Schubert line count %s" % lines)
        else:
            expect(target == "P1xP1", "no reference for target %s" % target)
            # by the dimension axiom only <pt, H_i> in the line class dual
            # to H_i survives, and the divisor axiom makes it 1
            want = {}
            for d, h in (((0, 1), (0, 1)), ((1, 0), (1, 0))):
                want[(d, h, (1, 1))] = want[(d, (1, 1), h)] = 1
        expect(got == want, "two-point invariants differ: %s"
               % sorted(set(got.items()) ^ set(want.items()))[:3])

    def _check_qh(self, job, stdout):
        target = _flag_value(job.argv, "--target", str)
        lines = stdout.splitlines()
        if target == "P1xP1":
            expect(lines == ["H1^2 - q1", "H2^2 - q2"],
                   "P1xP1 relations %r" % lines)
        elif target == "Pn":
            n = _flag_value(job.argv, "--n")
            expect(lines == ["H^%d - q" % (n + 1)], "P^n relation %r" % lines)
        else:
            n, l = _flag_value(job.argv, "--n"), _flag_value(job.argv, "--l")
            expect(len(lines) == 1, "expected one relation, got %r" % lines)
            expect(_parse_relation(lines[0]) == _hypersurface_relation(n, l),
                   "relation %r differs from Givental's" % lines[0])

    # -- schubert -----------------------------------------------------------

    def _check_schubert(self, job, stdout):
        lines = stdout.splitlines()
        expect(len(lines) == 2 and lines[0] == "value",
               "unexpected output %r" % stdout)
        value = Fraction(lines[1])
        m, n, factors = job.info["m"], job.info["n"], job.info["factors"]
        if job.info["power"]:
            want = _grassmannian_degree(m, n)
        elif m == 2:
            tau = resloc.parse_tau(tau_text(factors), 2)
            want = resloc.schur_integral_oracle(2, n, tau)
        else:
            # G(m, n) = G(n - m, n) maps sigma_lambda to sigma_lambda'
            k = n - m
            dual = [_conjugate(lam) for lam in factors]
            if k == 2:
                want = resloc.grassmann_integral_residue(
                    n, resloc.parse_tau(tau_text(dual), 2))
            else:
                want = _pieri_integral(k, n, dual)
        expect(value == want, "integral %s, expected %s" % (value, want))


def _flag_value(argv, flag, cast=int):
    return cast(argv[argv.index(flag) + 1])


def _tuple(text):
    return tuple(int(x) for x in text.split(",")) if text else ()


def _parse_rows(stdout, header, keys):
    lines = stdout.splitlines()
    expect(lines and lines[0] == header, "missing header %r" % header)
    out = {}
    for line in lines[1:]:
        cells = line.split()
        key = tuple(_tuple(c) for c in cells[:keys])
        out[key] = Fraction(cells[keys])
    return out


def _default_table(m, n):
    ztable = resloc.flag_pushforward_extract(m, n)
    return {(a, b): v for a, coh in ztable.entries.items()
            for (b,), v in coh.coeffs.items()}


def _euler_identity(m, n, table, weight):
    ring = resloc.Ring(("h",), (n,))
    band = resloc.flag_band(m, n)
    coeffs = {}
    for (a, b), v in table.items():
        coeffs.setdefault(a, {})[(b,)] = v
    entries = {}
    for total in range(band + 1):
        for a in _compositions(total, m - 1):
            entries[a] = resloc.CohClass(ring, coeffs.get(a, {}))
    ztable = resloc.ZetaTable(m, n, entries)
    return resloc.verify_euler_pushforward_identity(m, n, ztable, weight)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _quintic_degree_count(d):
    """Multiple-cover formula (Aspinwall-Morrison): sum over k | d of n_(d/k)/k^3."""
    return sum(Fraction(QUINTIC_N[d // k - 1], k ** 3)
               for k in range(1, d + 1) if d % k == 0)


def _line_count(n, l):
    """Lines on a degree-l hypersurface in P^n: c_top(Sym^l S*) on G(2, n+1)."""
    return resloc.grassmann_integral_residue(n + 1,
                                             resloc.sym_power_top_chern(l))


# -- closed forms for the mirror transformation of a Calabi-Yau hypersurface


def _s_mul(a, b):
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        if x:
            for j in range(len(a) - i):
                out[i + j] += x * b[j]
    return out


def _s_exp(s):
    """exp of a series with zero constant term: e_k = sum j s_j e_(k-j) / k."""
    e = [Fraction(1)] + [Fraction(0)] * (len(s) - 1)
    for k in range(1, len(s)):
        e[k] = sum((j * s[j] * e[k - j] for j in range(1, k + 1)),
                   Fraction(0)) / k
    return e


def _s_log(f):
    """log of a series with constant term 1."""
    g = [Fraction(0)] * len(f)
    for k in range(1, len(f)):
        g[k] = f[k] - sum((j * g[j] * f[k - j] for j in range(1, k)),
                          Fraction(0)) / k
    return g


def _s_subst(f, a):
    """f(q * exp(a(q))) = sum_d f_d q^d exp(d a(q))."""
    size = len(f)
    growth = _s_exp(a)
    out = [Fraction(0)] * size
    power = [Fraction(1)] + [Fraction(0)] * (size - 1)
    for d in range(size):
        for k in range(size - d):
            out[d + k] += f[d] * power[k]
        power = _s_mul(power, growth)
    return out


def _mirror_series(n, l, d_max):
    """Mirror data (a, b) for a Calabi-Yau hypersurface (l = n + 1).

    With F = sum_d (ld)!/(d!)^l q^d and G = sum_d (ld)!/(d!)^l
    (l H_(ld) - l H_d) q^d the I-function is lH (F + G H/t + ...).  The
    normalization needs a = -(G/F)(q exp a), solved here by fixed-point
    iteration, and b = -log F(q exp a).
    """
    expect(l == n + 1, "closed form only for Calabi-Yau hypersurfaces")
    size = d_max + 1

    def harmonic(k):
        return sum(Fraction(1, i) for i in range(1, k + 1))

    f = [Fraction(factorial(l * d), factorial(d) ** l) for d in range(size)]
    g = [f[d] * l * (harmonic(l * d) - harmonic(d)) for d in range(size)]
    inv_f = [Fraction(1)] + [Fraction(0)] * d_max
    for k in range(1, size):
        inv_f[k] = -sum(f[j] * inv_f[k - j] for j in range(1, k + 1))
    ratio = _s_mul(g, inv_f)
    a = [Fraction(0)] * size
    for _ in range(size):
        a = [-x for x in _s_subst(ratio, a)]
    b = [-x for x in _s_log(_s_subst(f, a))]
    return a, b


def _hypersurface_relation(n, l):
    """Quantum relation of a degree-l hypersurface in P^n (Givental 1996).

    With index r = n + 1 - l it is H^n = l^l q H^(l-1); for r = 1 the
    mirror shift replaces H by H + l! q.  Returns {(q power, H power): c}.
    """
    shift = factorial(l) if n + 1 - l == 1 else 0
    out = {}

    def add_shifted_power(k, scale, q_extra):
        # scale * q^q_extra * (H + shift q)^k
        for i in range(k + 1):
            key = (i + q_extra, k - i)
            c = scale * comb(k, i) * shift ** i
            if c:
                out[key] = out.get(key, 0) + c

    add_shifted_power(n, 1, 0)
    add_shifted_power(l - 1, -(l ** l), 1)
    return {k: Fraction(v) for k, v in out.items() if v}


_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?(?:q(?:\^(\d+))?)?\*?"
                   r"(?:H(?:\^(\d+))?)?$")


def _parse_relation(text):
    """'H^5 - 2525*q*H^4 - ...' as {(q power, H power): coefficient}."""
    out = {}
    for sign, term in re.findall(r"(^|[+-] )([^ ]+)", text):
        match = _TERM.match(term)
        expect(match is not None and term, "cannot read term %r" % term)
        coeff, q_pow, h_pow = match.groups()
        c = Fraction(coeff) if coeff else Fraction(1)
        q = 0 if "q" not in term else int(q_pow or 1)
        h = 0 if "H" not in term else int(h_pow or 1)
        out[(q, h)] = -c if sign.startswith("-") else c
    return out


# -- Schubert calculus --------------------------------------------------------


def _conjugate(lam):
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


def _grassmannian_degree(m, n):
    """Degree of G(m, n) in the Pluecker embedding: dim! prod i!/(n-m+i)!."""
    k = n - m
    return Fraction(factorial(m * k) * prod(factorial(i) for i in range(m)),
                    prod(factorial(k + i) for i in range(m)))


def _pieri_integral(k, n, factors):
    """Integral of prod sigma_lambda over G(k, n), by Littlewood-Richardson.

    Each factor is expanded by Jacobi-Trudi into special classes, which act
    on the Schur basis of the k x (n - k) box by the Pieri rule; the
    coefficient of the full box is the integral.
    """
    cols = n - k
    state = {(0,) * k: 1}
    for lam in factors:
        out = {}
        for perm in itertools.permutations(range(len(lam))):
            parts = [lam[i] - i + perm[i] for i in range(len(lam))]
            if min(parts) < 0:
                continue
            term = state
            for p in parts:
                term = _pieri(term, p, cols)
            sign = _sign(perm)
            for mu, c in term.items():
                out[mu] = out.get(mu, 0) + sign * c
        state = {mu: c for mu, c in out.items() if c}
    return Fraction(state.get((cols,) * k, 0))


def _pieri(state, p, cols):
    """Multiply by sigma_p: add horizontal strips of size p inside the box."""
    out = {}
    for mu, c in state.items():
        for nu in _strips(mu, p, cols):
            out[nu] = out.get(nu, 0) + c
    return out


def _strips(mu, p, cols):
    def rec(i, left, prefix):
        if i == len(mu):
            if not left:
                yield tuple(prefix)
            return
        top = cols if i == 0 else mu[i - 1]
        for extra in range(min(left, top - mu[i]) + 1):
            yield from rec(i + 1, left - extra, prefix + [mu[i] + extra])

    return rec(0, p, [])


def _sign(perm):
    inversions = sum(1 for i in range(len(perm))
                     for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1
