"""J-functions, quantum Lefschetz I-functions and the mirror transformation.

The J-function of a target collects, degree by degree, the pushed-forward
residues 1/(t(t-psi)) of one-pointed stable map spaces.  For projective space
these coefficients are explicit inverse products; hypersurface data arrives
through the hypergeometric I-function and is converted to a genuine J-function
by solving for the mirror transformation order by order in q.

Both are q-series with Laurent coefficients, related by a change of
variables, so JFunction is a QSeries that also carries its RingSpec and
IFunction is a JFunction that also carries the hypersurface degree l; the
mirror transformation works on the I-function directly.
"""

from fractions import Fraction
from math import comb

from .errors import DegenerateSystem, NormalizationFailed, NotDivisible
from .fmt import fmt_tuple, laurent_to_json, scalar_series_to_json
from .geometry import RingSpec
from .laurent import LaurentClass, laurent_invert
from .qseries import QSeries, qs_compose, qs_exp
from .ring import CohClass, Ring


class JFunction(QSeries):
    """A q-series of Laurent coefficients F_d that also knows its target.

    A genuine J-function has F_0 = 1 and, for d != 0, only t-exponents <= -2;
    pushed-forward variants relax F_0 (see mirror_normalize).  The terms are
    keyed by degree tuples with one entry per quantum variable of ring_spec.
    """

    __slots__ = ("ring_spec",)

    def __init__(self, ring_spec, trunc, coeffs):
        super().__init__(ring_spec.ring, ring_spec.nvars, trunc,
                         {tuple(d): c for d, c in coeffs.items() if c})
        self.ring_spec = ring_spec

    def check_shape(self, expected_f0=None):
        """True when F_0 matches and every d != 0 term has t-exponents <= -2."""
        if expected_f0 is None:
            expected_f0 = LaurentClass.one(self.ring)
        zero_deg = (0,) * self.nvars
        if self.coefficient(zero_deg) != expected_f0:
            return False
        for d, c in self.terms.items():
            if d == zero_deg:
                continue
            if any(j > -2 for j in c.terms):
                return False
        return True

    def _key(self):
        return self.ring_spec, self.trunc, self.terms

    def to_json(self):
        coeffs = {fmt_tuple(d): laurent_to_json(self.terms[d])
                  for d in sorted(self.terms)}
        return {"ring": self.ring_spec.to_json(), "D": self.trunc,
                "coefficients": coeffs}


def j_projective(n, trunc):
    """The J-function of P^n: F_d is the inverse of prod_(k=1..d) (H + kt)^(n+1).

    Each (H + kt)^(n+1) is sum_j C(n+1, j) k^(n+1-j) H^j t^(n+1-j), j <= n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if trunc < 0:
        raise ValueError("truncation must be >= 0")
    spec = RingSpec.projective(n)
    ring = spec.ring
    coeffs = {(0,): LaurentClass.one(ring)}
    denom = LaurentClass.one(ring)
    for d in range(1, trunc + 1):
        denom = denom * LaurentClass(ring, {
            n + 1 - j: ring.monomial((j,), comb(n + 1, j) * d ** (n + 1 - j))
            for j in range(n + 1)})
        coeffs[(d,)] = laurent_invert(denom)
    return JFunction(spec, trunc, coeffs)


def j_product(j1, j2):
    """Tensor two J-functions into one on the product target.

    Truncations must agree; the (d, d') coefficient is the product of the
    embedded factor coefficients.
    """
    if j1.trunc != j2.trunc:
        raise ValueError("truncations differ: %d vs %d" % (j1.trunc, j2.trunc))

    def flatten(spec):
        if spec.kind == "product":
            return list(spec.components)
        return [spec]

    parts = flatten(j1.ring_spec) + flatten(j2.ring_spec)
    spec = RingSpec.product(parts)
    ring = spec.ring

    def embed(lc, offset):
        return lc.map_coefficients(lambda c: ring.embed(c, offset), ring)

    right = {d2: embed(c2, len(j1.ring_spec.ring.gens))
             for d2, c2 in j2.terms.items()}
    coeffs = {}
    for d1, c1 in j1.terms.items():
        e1 = embed(c1, 0)
        for d2, e2 in right.items():
            if sum(d1) + sum(d2) <= j1.trunc:
                coeffs[d1 + d2] = e1 * e2
    return JFunction(spec, j1.trunc, coeffs)


class IFunction(JFunction):
    """Hypergeometric series attached to a degree-l hypersurface in P^n.

    Lives on the ambient projective ring; I_0 = lH and every coefficient
    carries at least one power of H.
    """

    __slots__ = ("l",)

    def __init__(self, ring_spec, l, trunc, coeffs):
        if ring_spec.kind != "projective":
            raise ValueError("I-functions live on a projective ambient ring")
        super().__init__(ring_spec, trunc, coeffs)
        self.l = int(l)


def i_function(n, l, trunc):
    """I_d = N_d * F_d(P^n) with N_d = prod_(k=0..dl) (lH + kt).

    F_d is the j_projective coefficient, so the denominators are built and
    inverted once, there.  The k = 0 numerator factor contributes the
    uniform lH, so I_0 = lH and every coefficient is divisible by H.
    """
    if not 1 <= l <= n + 1:
        raise ValueError("need 1 <= l <= n + 1")
    j = j_projective(n, trunc)
    ring = j.ring
    lh = LaurentClass.from_coh(ring.generator("H") * l)
    coeffs = {(0,): lh}
    numer = lh
    for d in range(1, trunc + 1):
        for k in range((d - 1) * l + 1, d * l + 1):
            numer = numer * (lh + LaurentClass.t_power(ring, 1, k))
        coeffs[(d,)] = numer * j.terms[(d,)]
    return IFunction(j.ring_spec, l, trunc, coeffs)


class MirrorData:
    """Result of the mirror transformation: scalar series a, b, c and pushed J."""

    __slots__ = ("a", "b", "c", "pushed")

    def __init__(self, a, b, c, pushed):
        self.a = a
        self.b = b
        self.c = c
        self.pushed = pushed

    def to_json(self):
        return {"a": scalar_series_to_json(self.a),
                "b": scalar_series_to_json(self.b),
                "c": scalar_series_to_json(self.c),
                "normalized": self.pushed.to_json()}


def _apply_mirror(i_series, a, b, c):
    """exp(b + (c + H a)/t) * I(q exp(a)) at the current corrections."""
    ring = i_series.ring
    exponent = (b + c * LaurentClass.t_power(ring, -1)
                + a * LaurentClass.from_coh(ring.generator("H"), -1))
    return qs_exp(exponent) * qs_compose(i_series, a)


def mirror_normalize(i_fun):
    """Solve for the mirror transformation order by order in q.

    Finds scalar series a, b, c with zero constant term such that

        Jhat = exp(b(q) + (c(q) + H*a(q))/t) * I(q*exp(a(q)))

    has, in every q-degree d >= 1, zero coefficient on H t^0, H t^-1 and
    H^2 t^-1.  The solve is one online pass that extends every series it
    needs by one q-order per step: with E = b + (c + H*a)/t, the prefactor
    P = exp(E) follows from q dP/dq = P * q dE/dq, that is
    P_d = (1/d) sum_k k E_k P_(d-k), and likewise each exp(k*a) from k*a.
    The substituted series S_d = sum_k I_k [q^(d-k)] exp(k*a) is final once
    formed, since a_d never enters it.  With a_d = b_d = c_d = 0 the q^d
    coefficient of Jhat is f_d = sum_m P_m S_(d-m); each condition responds
    diagonally through S_0 = I_0 = lH, so the per-order solve divides by l,
    and a zero l would make it singular.  The pass runs in Q[H]/(H^3), or
    the full ring when n < 2: it reads only H and H^2, and a product never
    lowers the H-degree, so the cut changes none of the coefficients it
    reads.  t-exponents are not cut.

    After the last order Jhat is rebuilt in full by qs_exp and qs_compose
    and verified: the d = 0 term must be exactly lH and all d >= 1 terms must
    have t-exponents <= -2, otherwise NormalizationFailed reports the
    surviving term.  The rebuild shares no loop with the online pass but
    solves the same recurrences (theta P = P * theta E, m g_m = k sum_j j s_j
    g_(m - j)), so an error in a recurrence itself would pass this check;
    test_exp_matches_defining_sum and test_compose_matches_defining_sum test
    both against sum_k E^k / k! and stay the reference.
    """
    spec = i_fun.ring_spec
    ring = spec.ring
    n = spec.n
    l = i_fun.l
    trunc = i_fun.trunc
    if l == 0:
        raise DegenerateSystem("correction response is l = 0")
    inv_l = Fraction(1, l)
    cut = Ring(("H",), (min(3, n + 1),))
    h_over_t = LaurentClass.from_coh(cut.generator("H"), -1)
    zero = LaurentClass.zero(cut)
    i_coeffs = [i_fun.coefficient(d).map_coefficients(
        lambda x: CohClass(cut, {e: v for e, v in x.coeffs.items()
                                 if cut.admits(e)}), cut)
                for d in range(trunc + 1)]
    a, b, c = [Fraction(0)], [Fraction(0)], [Fraction(0)]
    weighted = [zero]                   # k * E_k
    prefactor = [LaurentClass.one(cut)]
    substituted = [i_coeffs[0]]
    growth = []                         # growth[k - 1][m] = [q^m] exp(k*a)
    for d in range(1, trunc + 1):
        growth.append([Fraction(1)])
        for k in range(1, d):
            m = d - k
            powers = growth[k - 1]
            powers.append(sum(j * a[j] * powers[m - j]
                              for j in range(1, m + 1)) * k / m)
        substituted.append(sum((i_coeffs[k] * growth[k - 1][d - k]
                                for k in range(1, d + 1)), zero))
        p_d = sum((weighted[k] * prefactor[d - k] for k in range(1, d)), zero)
        prefactor.append(p_d * Fraction(1, d))  # E_d = 0 until solved
        fd = sum((prefactor[m] * substituted[d - m] for m in range(d + 1)),
                 zero)
        a.append(-fd.coeff((2,), -1) * inv_l if n >= 2 else Fraction(0))
        b.append(-fd.coeff((1,), 0) * inv_l)
        c.append(-fd.coeff((1,), -1) * inv_l)
        e_d = (LaurentClass.t_power(cut, 0, b[d])
               + LaurentClass.t_power(cut, -1, c[d]) + h_over_t * a[d])
        weighted.append(e_d * d)
        prefactor[d] = prefactor[d] + e_d

    def scalar_series(values):
        return QSeries(ring, 1, trunc,
                       {(d,): LaurentClass.t_power(ring, 0, v)
                        for d, v in enumerate(values) if v})

    a, b, c = scalar_series(a), scalar_series(b), scalar_series(c)
    jhat = _apply_mirror(i_fun, a, b, c)
    lh = LaurentClass.from_coh(ring.generator("H") * l)
    if jhat.coefficient((0,)) != lh:
        raise NormalizationFailed("degree-0 term is %r, expected %r"
                                  % (jhat.coefficient((0,)), lh))
    for d in range(1, trunc + 1):
        fd = jhat.coefficient((d,))
        bad = [j for j in fd.terms if j > -2]
        if bad:
            raise NormalizationFailed(
                "degree %d retains t-exponent %d after normalization"
                % (d, max(bad)))
    return MirrorData(a, b, c, JFunction(spec, trunc, jhat.terms))


def pull_to_hypersurface(j_pushed, l):
    """Divide every coefficient by lH, landing in the hypersurface ring.

    Inverts the hypersurface pushforward term by term.  A coefficient with a
    scalar (H^0) component is not in the image and raises NotDivisible.
    """
    spec = j_pushed.ring_spec
    if spec.kind != "projective":
        raise ValueError("pushed J-functions live on a projective ring")
    hyp = RingSpec.hypersurface(spec.n, l)
    inv_l = Fraction(1, l)

    def divide(coh):
        out = {}
        for (e,), v in coh.coeffs.items():
            if e == 0:
                raise NotDivisible("term %s lacks the uniform H factor" % v)
            out[(e - 1,)] = v * inv_l
        return CohClass(hyp.ring, out)

    coeffs = {}
    for d, lc in j_pushed.terms.items():
        coeffs[d] = lc.map_coefficients(divide, hyp.ring)
    return JFunction(hyp, j_pushed.trunc, coeffs)
