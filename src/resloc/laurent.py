"""Finite Laurent polynomials in the equivariant parameter t.

A LaurentClass stores a sparse map {t-exponent: CohClass}.  Coefficients live
in one fixed Ring; mixing rings raises RingMismatch.  Inversion is supported
exactly when the element is a unit times a single power of t, which is what
every Euler class produced by the localization formulas looks like.
"""

from fractions import Fraction
from math import comb

from .errors import NotInvertible, RingMismatch
from .ring import CohClass, Sparse, as_exact, poly_add


class LaurentClass(Sparse):
    """Sparse Laurent polynomial in t with CohClass coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    @classmethod
    def from_coh(cls, c, t_exp=0):
        if c.is_zero():
            return cls(c.ring, {})
        return cls(c.ring, {int(t_exp): c})

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def one(cls, ring):
        return cls(ring, {0: ring.one()})

    @classmethod
    def t_power(cls, ring, k, coeff=1):
        c = ring.monomial(ring.zero_exp, coeff)
        if c.is_zero():
            return cls(ring, {})
        return cls(ring, {int(k): c})

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, t_exp):
        """CohClass multiplying t^t_exp (zero class if absent)."""
        return self.terms.get(t_exp, self.ring.zero())

    def coeff(self, exps, t_exp):
        """Rational coefficient of the monomial exps * t^t_exp.

        The exponent tuple must be valid for this element's ring.
        """
        exps = tuple(exps)
        if not self.ring.admits(exps):
            raise RingMismatch("exponent tuple %r is not valid for %r"
                               % (exps, self.ring))
        c = self.terms.get(t_exp)
        if c is None:
            return Fraction(0)
        return c.coeff(exps)

    def _coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return LaurentClass.t_power(self.ring, 0, x)
        if isinstance(x, CohClass):
            self._check_ring(x)
            return LaurentClass.from_coh(x)
        return None

    def _key(self):
        return self.ring, self.terms

    def __add__(self, other):
        if not isinstance(other, LaurentClass):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        self._check_ring(other)
        return LaurentClass(self.ring, poly_add(self.terms, other.terms))

    def __neg__(self):
        return LaurentClass(self.ring, {j: -c for j, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, LaurentClass):
            if isinstance(other, (int, Fraction)):
                if other == 0:
                    return LaurentClass(self.ring, {})
                return LaurentClass(self.ring,
                                    {j: v * other for j, v in self.terms.items()})
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        self._check_ring(other)
        out = {}
        for j1, c1 in self.terms.items():
            for j2, c2 in other.terms.items():
                j = j1 + j2
                p = c1 * c2
                if not p.coeffs:
                    continue
                s = out.get(j)
                s = p if s is None else s + p
                if not s.coeffs:
                    out.pop(j, None)
                else:
                    out[j] = s
        return LaurentClass(self.ring, out)

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by t^k."""
        return LaurentClass(self.ring, {j + k: c for j, c in self.terms.items()})

    def flip_t(self):
        """Substitute t -> -t."""
        return LaurentClass(self.ring,
                            {j: c * (1 if j % 2 == 0 else -1)
                             for j, c in self.terms.items()})

    def map_coefficients(self, fn, ring):
        """Apply fn to every CohClass coefficient; fn maps into ring."""
        out = {}
        for j, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                out[j] = v
        return LaurentClass(ring, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for j in sorted(self.terms):
            c = repr(self.terms[j])
            if j == 0:
                parts.append("(%s)" % c)
            else:
                parts.append("(%s)*t^%d" % (c, j))
        return " + ".join(parts)


def neg_part(e):
    """Terms of e with strictly negative t-exponent."""
    return LaurentClass(e.ring, {j: c for j, c in e.terms.items() if j < 0})


def laurent_invert(e):
    """Invert a Laurent element whose scalar part is a single t-monomial.

    Writing each coefficient as scalar plus nilpotent, the purely scalar part
    of e must consist of exactly one term c*t^k with c != 0.  Then
    e = c*t^k*(1 + u), and u = u_1 + u_2 + ... splits by the total degree of
    its ring monomials, which is never 0.  The inverse is solved one degree at
    a time by the reciprocal recurrence for power series (Knuth, TAOCP vol. 2,
    4.7):

        e^-1 = v_0 + v_1 + ...,  v_0 = c^-1 * t^-k,
        v_d = -sum_{1 <= i <= d} u_i * v_(d-i).

    Every product raises the ring degree, so the recurrence is exact in any
    Ring and stops at nilpotency_bound - 1.  c^-1 is an int when c = +-1, so
    integer input gives an integer inverse.

    If the scalar part is empty the element is nilpotent (or zero) and has no
    inverse; if it has two or more terms the inverse would be an infinite
    series in t.  Both cases raise NotInvertible.
    """
    ring = e.ring
    zero = ring.zero_exp
    scalars = {j: c.coeffs[zero] for j, c in e.terms.items() if zero in c.coeffs}
    if not scalars:
        raise NotInvertible("element has no scalar part; it is nilpotent or zero")
    if len(scalars) > 1:
        raise NotInvertible(
            "scalar part %s spreads over several powers of t; the inverse "
            "would be an infinite Laurent series" % sorted(scalars))
    (k, c), = scalars.items()
    inv = int(c) if c in (1, -1) else 1 / Fraction(c)
    # -u by ring degree; degree 0 holds only the scalar term, which is skipped
    parts = [{} for _ in range(ring.nilpotency_bound)]
    for j, coh in e.terms.items():
        for exps, x in coh.coeffs.items():
            parts[sum(exps)].setdefault(j - k, {})[exps] = -x * inv
    neg_u = [LaurentClass(ring, {j: CohClass(ring, p) for j, p in part.items()})
             for part in parts]
    v = [LaurentClass.t_power(ring, -k, inv)]
    for d in range(1, len(parts)):
        v.append(sum((neg_u[i] * v[d - i] for i in range(1, d + 1)
                      if neg_u[i] and v[d - i]), LaurentClass.zero(ring)))
    return sum(v[1:], v[0])


def linear_power_series(c, k, terms):
    """binom(-k, j) / c^(k+j) for j < terms, the coefficients of x^j t^(-k-j)
    in (c*t + x)^-k, as numerators over one denominator; ints for an int c."""
    return ([(-1) ** j * comb(k + j - 1, j) * c ** (terms - 1 - j)
             for j in range(terms)], c ** (k + terms - 1))


def invert_linear_power(c, x, k):
    """(c*t + x)^-k for a nonzero rational c, a nilpotent CohClass x and k >= 1.

    The binomial series sum_j binom(-k, j) * x^j * (c*t)^(-k-j) terminates
    because x has no scalar part, so x^j = 0 beyond the nilpotency bound.
    """
    if c == 0 or x.scalar_part != 0:
        raise NotInvertible("c*t + x needs c != 0 and x nilpotent")
    nums, den = linear_power_series(as_exact(c), k, x.ring.nilpotency_bound)
    out, power = {}, x.ring.one()
    for j, a in enumerate(nums):
        if power:
            out[-k - j] = power * Fraction(a, den)
        power = power * x
    return LaurentClass(x.ring, out)
