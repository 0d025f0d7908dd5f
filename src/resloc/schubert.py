"""Residue extraction for Schubert problems on Grassmannians and flag bundles.

The torus (C^*)^m acts on a partial flag of subspaces of C^n with weights
t_i = w_i * t for distinct integers w_i.  Fixed loci contribute inverse Euler
classes; summing them and matching Laurent coefficients in t recovers the
pushforward of powers of the relative hyperplane classes zeta_s down the flag
tower.  With that table in hand, Grassmannian integrals of symmetric
polynomials in the Chern roots reduce to reading off one residue coefficient.
"""

import itertools
from fractions import Fraction
from math import comb, lcm, prod
from operator import getitem, mul

from .errors import MissingZetaEntry, RankDeficient, RepeatedWeight
from .laurent import LaurentClass, laurent_invert, linear_power_series
from .linalg import solve_integer_rows
from .ring import Ring


def fiberdim(m, n):
    """Dimension of the flag fiber over the Grassmannian point: sum(n-i, i=2..m)."""
    return sum(n - i for i in range(2, m + 1))


def flag_band(m, n):
    """Largest |A| whose pushforward can be nonzero: fiberdim + n - 1."""
    return fiberdim(m, n) + n - 1


def pv_ring(n):
    """Cohomology of P(V) for V = C^n: Q[h]/(h^n), integral of h^(n-1) is 1."""
    return Ring(("h",), (n,), Fraction(1))


def zeta_ring(m, n):
    """Ring carrying the relative classes zeta_1..zeta_(m-1), cut at |A| <= band.

    Every pushforward pi(zeta^A) with |A| above flag_band vanishes, and total
    degree above the band is an ideal, so nothing readable is lost.
    """
    band = flag_band(m, n)
    gens = tuple("z%d" % s for s in range(1, m))
    return Ring(gens, (band + 1,) * (m - 1), Fraction(1), total=band)


def combined_ring(m, n):
    """Ring of h and the zetas for pullbacks, cut at total degree band: that
    ideal pushes to c * h^(b + |A| - fiberdim) = 0 in Q[h]/(h^n), losing none."""
    band = flag_band(m, n)
    gens = ("h",) + tuple("z%d" % s for s in range(1, m))
    return Ring(gens, (n,) + (band + 1,) * (m - 1), Fraction(1), total=band)


def _as_weights(w, m):
    """Distinct integer torus weights w_1..w_m, as a tuple."""
    weights = tuple(int(x) for x in w)
    if len(set(weights)) != len(weights):
        raise RepeatedWeight("weights %r contain a repeat" % (weights,))
    if len(weights) != m:
        raise ValueError("expected %d weights, got %d" % (m, len(weights)))
    return weights


def _check_perm(perm, m):
    if tuple(sorted(perm)) != tuple(range(1, m + 1)):
        raise ValueError("%r is not a permutation of 1..%d" % (perm, m))


def _flags_from(i, m):
    """Fixed flags (permutations of 1..m) with first line i, in lex order."""
    rest = [k for k in range(1, m + 1) if k != i]
    return [(i,) + p for p in itertools.permutations(rest)]


def default_weight_samples(m, count):
    """Deterministic pairwise-distinct, mutually non-proportional weights."""
    return [tuple((s + 2) ** i - 1 for i in range(m)) for s in range(count)]


def flag_fixed_locus_euler(perm, w, n):
    """Equivariant Euler class of a fixed flag of coordinate lines.

    For the fixed locus indexed by the permutation I = (i_1..i_m) this is

        prod_(j<k) (t_(i_k) - t_(i_j)) * prod_(s=1..m-1) (t_(i_(s+1)) - t_(i_s) - zeta_s)

    specialized at t_i = w_i * t: a polynomial in t of degree
    m(m-1)/2 + (m-1) with zeta-linear corrections, invertible because the
    weights are distinct.
    """
    perm = tuple(perm)
    m = len(perm)
    _check_perm(perm, m)
    wv = _as_weights(w, m)
    ring = zeta_ring(m, n)
    out = LaurentClass.one(ring)
    for j in range(m):
        for k in range(j + 1, m):
            c = wv[perm[k] - 1] - wv[perm[j] - 1]
            out = out * LaurentClass.t_power(ring, 1, c)
    for s in range(1, m):
        c = wv[perm[s] - 1] - wv[perm[s - 1] - 1]
        factor = LaurentClass.t_power(ring, 1, c) - LaurentClass.from_coh(
            ring.generator("z%d" % s))
        out = out * factor
    return out


def projective_fixed_locus_euler(i, w, n):
    """Euler class of the i-th fixed point in the projectivized comparison space.

    prod_(s != i) (h + t_s - t_i)^n over Q[h]/(h^n), with t_i = w_i * t.
    """
    m = len(w)
    wv = _as_weights(w, m)
    if not 1 <= i <= m:
        raise ValueError("index i out of range")
    ring = pv_ring(n)
    h = LaurentClass.from_coh(ring.generator("h"))
    out = LaurentClass.one(ring)
    for w in wv[:i - 1] + wv[i:]:
        factor = h + LaurentClass.t_power(ring, 1, w - wv[i - 1])
        out = out * factor ** n
    return out


def grassmann_integral_residue(n, tau):
    """Integral of a symmetric polynomial over G(2, n) by residue extraction.

    Evaluates tau at the Chern roots (h, h + t), divides by (h + t)^n and
    reads the coefficient of h^(n-1) t^(-2) of h * tau(h, h+t) / (h+t)^n.
    Exact over Q; returns 0 when the degree of tau misses dim G(2, n).
    """
    if tau.m != 2:
        raise ValueError("residue extraction is implemented for m = 2")
    if n <= 2:
        raise ValueError("need n > 2")
    if all(sum(e) != 2 * (n - 2) for e in tau.coeffs):
        return Fraction(0)
    ring = pv_ring(n)
    h = LaurentClass.from_coh(ring.generator("h"))
    t = LaurentClass.t_power(ring, 1)
    val = tau.evaluate([h, h + t])
    expr = h * val * laurent_invert((h + t) ** n)
    return expr.coeff((n - 1,), -2)


def closed_form_m2(n, j):
    """Known value of the pushforward of zeta^j for the two-step flag.

    Equals binom(-n, j-n+2) * h^(j-n+2), zero outside 0 <= j-n+2 <= n-1.
    """
    ring = pv_ring(n)
    k = j - n + 2
    if k < 0 or k > n - 1:
        return ring.zero()
    c = Fraction((-1) ** k * comb(n + k - 1, k))
    return ring.monomial((k,), c)


class ZetaTable:
    """Pushforwards pi(zeta^A) down the flag tower, as classes in Q[h]/(h^n).

    Entries cover all multi-exponents A with |A| <= fiberdim + n - 1; beyond
    that band the pushforward vanishes for degree reasons and lookups return
    zero.  A missing entry inside the band raises MissingZetaEntry.  The
    pullback check needs entries c * h^(|A| - fiberdim), as extracted ones are.
    """

    __slots__ = ("m", "n", "entries")

    def __init__(self, m, n, entries):
        self.m = int(m)
        self.n = int(n)
        self.entries = dict(entries)

    @property
    def band(self):
        return flag_band(self.m, self.n)

    @property
    def ring(self):
        return pv_ring(self.n)

    def entry(self, a_exps):
        a_exps = tuple(int(x) for x in a_exps)
        if len(a_exps) != self.m - 1:
            raise ValueError("exponent tuple has arity %d, expected %d"
                             % (len(a_exps), self.m - 1))
        if any(x < 0 for x in a_exps):
            raise ValueError("negative zeta exponent")
        if sum(a_exps) > self.band:
            return self.ring.zero()
        try:
            return self.entries[a_exps]
        except KeyError:
            raise MissingZetaEntry("no entry for zeta exponent %r" % (a_exps,))

    def push_zeta(self, c):
        """Pushforward of a CohClass over zeta_ring(m, n)."""
        out = self.ring.zero()
        for exps, v in c.coeffs.items():
            out = out + self.entry(exps) * v
        return out

    def push_combined(self, c):
        """Pushforward of a CohClass over combined_ring(m, n); h passes through."""
        ring = self.ring
        out = ring.zero()
        for exps, v in c.coeffs.items():
            h_exp, a_exps = exps[0], exps[1:]
            out = out + ring.monomial((h_exp,), v) * self.entry(a_exps)
        return out

    def __eq__(self, other):
        if not isinstance(other, ZetaTable):
            return NotImplemented
        return (self.m == other.m and self.n == other.n
                and self.entries == other.entries)


def _suggested_sample_count(m, n):
    band = flag_band(m, n)
    largest_level = comb(band + m - 2, m - 2) if m > 2 else 1
    return max(3, -(-largest_level // m) + 1)


def _flag_level_rows(i, wv, n):
    """Summed inverse Euler classes of the fixed flags with first line i.

    The Euler class of the flag I is S * t^e * prod_s (c_s*t - zeta_s) with
    S = prod_(j<k) (w_(i_k) - w_(i_j)), e = m(m-1)/2, c_s = w_(i_(s+1)) - w_(i_s).
    As (c*t - zeta)^-1 = sum_a zeta^a * (c*t)^-(a+1), each A has one term
    zeta^A * t^-(e + |A| + m - 1) / (S * prod_s c_s^(a_s+1)).  With
    P = prod_s c_s, u_s = P / c_s and L = |A|, that is
    u^A / (S * P^(L+1)), u^A = prod_s u_s^(a_s).

    Yields one pair (D, {A: numerator}) per level L = 0..flag_band: summed
    over the flags of _flags_from(i, m), the coefficient of zeta^A is
    numerator / D, where D is the lcm of |S * P^(L+1)| over those flags.  An
    A whose sum cancels is left out.  Only the running S * P^(L+1) and the
    powers u_s^a are kept between levels.
    """
    m = len(wv)
    band = flag_band(m, n)
    scaled, big_ps, powers = [], [], []
    for perm in _flags_from(i, m):
        w = [wv[p - 1] for p in perm]
        scale = prod(w[k] - w[j] for j, k in itertools.combinations(range(m), 2))
        cs = [w[s + 1] - w[s] for s in range(m - 1)]
        big_p = prod(cs)
        scaled.append(scale * big_p)
        big_ps.append(big_p)
        powers.append([[(big_p // c) ** a for a in range(band + 1)] for c in cs])
    for L in range(band + 1):
        den = lcm(*map(abs, scaled))
        factors = [den // x for x in scaled]
        row = {}
        heads = itertools.product(range(L + 1), repeat=m - 2)  # A in lex order
        for a_exps in [h + (L - sum(h),) for h in heads if sum(h) <= L]:
            x = sum(f * prod(map(getitem, pw, a_exps))
                    for f, pw in zip(factors, powers))
            if x:
                row[a_exps] = x
        yield den, row
        scaled = list(map(mul, scaled, big_ps))


def _level_equations(i, wv, n):
    """The integer equation (row, rhs) of each level L = 0..flag_band for
    the fixed flags with first line i (see flag_pushforward_extract)."""
    fd = fiberdim(len(wv), n)
    coeffs = _projective_level_coeffs(i, wv, n)
    for level, (den, row) in enumerate(_flag_level_rows(i, wv, n)):
        c = coeffs[level - fd] if level >= fd else Fraction(0)
        if c.denominator != 1:
            row = {a: x * c.denominator for a, x in row.items()}
        yield row, c.numerator * den


def _projective_level_coeffs(i, wv, n):
    """[h^k t^-((m-1)n+k)] prod_(s != i) (h + (w_s - w_i)*t)^-n for k < n: the
    factors' binomial series convolved in integers over one denominator."""
    nums, den = [1] + [0] * (n - 1), 1
    for w in wv[:i - 1] + wv[i:]:
        series, d = linear_power_series(w - wv[i - 1], n, n)
        nums = [sum(map(mul, nums[:k + 1], series[k::-1])) for k in range(n)]
        den *= d
    return [Fraction(x, den) for x in nums]


def flag_pushforward_extract(m, n, weight_samples=None):
    """Solve for all pushforwards pi(zeta^A) by matching Laurent coefficients.

    For each weight sample and each choice of distinguished index i, the sum
    of inverse Euler classes over the (m-1)! fixed loci with i_1 = i must push
    forward to the product of inverse Euler factors of the i-th fixed point in
    P(V).  Both sides are homogeneous (t and every class of degree 1), so the
    coefficient of t^-(e+L+m-1), e = m(m-1)/2, involves only the A of one
    level |A| = L on the left, and one monomial c * h^k, k = L - fiberdim,
    on the right: c = sum over j_s summing to k of prod_(s != i)
    (-1)^j_s * binom(n+j_s-1, j_s) / (w_s - w_i)^(n+j_s), the convolution
    that _projective_level_coeffs takes with no Laurent product.  Each
    (sample, i, L) thus gives one equation in integers: the numerators of
    _flag_level_rows over their common denominator D, times the denominator
    of c, equal the numerator of c times D.  Levels share no unknown, and
    solve_integer_rows solves each level's rows in (sample, i) order (see
    the linalg module docstring).  Each entry is rebuilt as the monomial
    x * h^(L - fiberdim).  Raises RankDeficient, naming the first deficient
    level and its rank, when the samples do not determine the table, and
    Inconsistent when they contradict each other.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    if n <= m:
        raise ValueError("need n > m")
    if weight_samples is None:
        weight_samples = default_weight_samples(m, _suggested_sample_count(m, n))
    samples = [_as_weights(w, m) for w in weight_samples]
    if not samples:
        raise ValueError("at least one weight sample is required")

    streams = [_level_equations(i, wv, n)
               for wv in samples for i in range(1, m + 1)]
    levels = itertools.groupby(zeta_ring(m, n).monomials(), key=sum)
    values, free = {}, []
    for equations, (level, cols) in zip(zip(*streams), levels):
        cols = list(cols)
        try:
            values.update(solve_integer_rows(equations, cols))
        except RankDeficient as exc:
            if not free:
                deficient = (level, len(cols) - len(exc.free_unknowns),
                             len(cols))
            free += exc.free_unknowns
    if free:
        raise RankDeficient("%d unknown(s) undetermined, e.g. %r; level |A| "
                            "= %d has rank %d of %d unknowns"
                            % ((len(free), free[0]) + deficient),
                            free_unknowns=free)
    ring = pv_ring(n)
    fd = fiberdim(m, n)
    return ZetaTable(m, n, {a: ring.monomial((sum(a) - fd,), x) if x
                            else ring.zero() for a, x in values.items()})


def verify_euler_pushforward_identity(m, n, ztable, w):
    """Check the localization identity behind the extraction at one weight.

    Pushes the summed inverse Euler classes through the table and compares
    with the projective side exactly, for every distinguished index i.
    """
    wv = _as_weights(w, m)
    ring = pv_ring(n)
    for i in range(1, m + 1):
        lhs = None
        for perm in _flags_from(i, m):
            inv = laurent_invert(flag_fixed_locus_euler(perm, wv, n))
            lhs = inv if lhs is None else lhs + inv
        pushed = lhs.map_coefficients(ztable.push_zeta, ring)
        rhs = laurent_invert(projective_fixed_locus_euler(i, wv, n))
        if pushed != rhs:
            return False
    return True


def verify_grassmann_pushforward(m, n, tau, w, ztable):
    """Check the residue identity for a pulled-back symmetric class.

    The pullback substitutes the partial sums h, h + zeta_1,
    h + zeta_1 + zeta_2, ... for the Chern roots; this is the unique
    assignment that closes the identity at m = 2.  For each distinguished
    index i, every monomial h^b t^j occurring in the pushforward of
    pullback * (summed inverse Euler classes) must match the projective-side
    coefficient exactly; right-side monomials outside the left support are
    the irrelevant terms and are ignored.  Returns True on agreement.
    """
    if tau.m != m:
        raise ValueError("tau has %d variables, expected %d" % (tau.m, m))
    fd = fiberdim(m, n)
    if any(set(c.coeffs) - {(sum(a) - fd,)} for a, c in ztable.entries.items()):
        raise ValueError("table entries must be c * h^(|A| - fiberdim)")
    wv = _as_weights(w, m)
    cring = combined_ring(m, n)
    ring = pv_ring(n)
    args = itertools.accumulate(LaurentClass.from_coh(cring.generator(g))
                                for g in cring.gens)
    tau_tilde = tau.evaluate(list(args))

    h_p = LaurentClass.from_coh(ring.generator("h"))
    for i in range(1, m + 1):
        lhs = LaurentClass.zero(ring)
        for perm in _flags_from(i, m):
            euler = flag_fixed_locus_euler(perm, wv, n).map_coefficients(
                lambda c: cring.embed(c, 1), cring)
            prod = tau_tilde * laurent_invert(euler)
            lhs = lhs + prod.map_coefficients(ztable.push_combined, ring)
        rhs_args = [h_p + LaurentClass.t_power(ring, 1, wv[s] - wv[i - 1])
                    for s in range(m)]
        rhs = tau.evaluate(rhs_args) * laurent_invert(
            projective_fixed_locus_euler(i, wv, n))
        if any(rhs.coeff(exps, j) != v for j, c in lhs.terms.items()
               for exps, v in c.coeffs.items()):
            return False
    return True
