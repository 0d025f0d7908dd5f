"""Truncated power series in quantum variables q_1..q_r.

Coefficients are LaurentClass values over one fixed Ring.  Terms are kept up
to a total degree bound D; multiplication drops anything beyond the bound, so
the bound is a ring homomorphism from higher truncations.  Sums and products
run through the ring kernel (poly_add, poly_mul with total = D).

A QSeries is false exactly when it has no terms, as is_zero reports.  Its
+, -, * and == take an int, a Fraction or a LaurentClass as a constant
series.

qs_exp and qs_compose solve the power-series exponential recurrence (Knuth,
TAOCP vol. 2, 4.7) degree by degree: O(D^2) coefficient products, not O(D^3).
"""

from fractions import Fraction
from operator import sub

from .errors import NotExponentiable
from .laurent import LaurentClass
from .ring import Ring, Sparse, as_fraction, poly_add, poly_mul


class QSeries(Sparse):
    """Polynomial in q_1..q_r of total degree <= trunc with Laurent coefficients."""

    __slots__ = ("ring", "nvars", "trunc", "terms")

    def __init__(self, ring, nvars, trunc, terms=None):
        self.ring = ring
        self.nvars = int(nvars)
        self.trunc = int(trunc)
        self.terms = {} if terms is None else terms

    @classmethod
    def constant(cls, ring, nvars, trunc, value):
        """Series with the given LaurentClass (or scalar) in degree zero."""
        if isinstance(value, (int, Fraction)):
            value = LaurentClass.t_power(ring, 0, value)
        if value.is_zero():
            return cls(ring, nvars, trunc, {})
        return cls(ring, nvars, trunc, {(0,) * nvars: value})

    @classmethod
    def one(cls, ring, nvars, trunc):
        return cls.constant(ring, nvars, trunc, 1)

    @classmethod
    def zero(cls, ring, nvars, trunc):
        return cls(ring, nvars, trunc, {})

    def __bool__(self):
        return bool(self.terms)

    def _coerce(self, x):
        if isinstance(x, LaurentClass):
            self._check_ring(x)
        elif not isinstance(x, (int, Fraction)):
            return None
        return QSeries.constant(self.ring, self.nvars, self.trunc, x)

    def _key(self):
        return self.ring, self.nvars, self.trunc, self.terms

    def _check_compatible(self, other):
        self._check_ring(other)
        if self.nvars != other.nvars or self.trunc != other.trunc:
            raise ValueError("series shapes differ: %d vars deg %d vs %d vars deg %d"
                             % (self.nvars, self.trunc, other.nvars, other.trunc))

    def coefficient(self, deg):
        """Coefficient of q^deg; an int deg stands for (deg,)."""
        deg = (deg,) if isinstance(deg, int) else tuple(deg)
        return self.terms.get(deg, LaurentClass.zero(self.ring))

    def degrees(self):
        return sorted(self.terms)

    def __add__(self, other):
        if not isinstance(other, QSeries):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        self._check_compatible(other)
        return QSeries(self.ring, self.nvars, self.trunc,
                       poly_add(self.terms, other.terms))

    def __neg__(self):
        return QSeries(self.ring, self.nvars, self.trunc,
                       {d: -c for d, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            if isinstance(other, (int, Fraction)):
                c = as_fraction(other)
                out = {d: v * c for d, v in self.terms.items()} if c else {}
                return QSeries(self.ring, self.nvars, self.trunc, out)
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        self._check_compatible(other)
        return QSeries(self.ring, self.nvars, self.trunc,
                       poly_mul(self.terms, other.terms, total=self.trunc))

    __rmul__ = __mul__

    def truncate(self, new_trunc):
        """Restrict to total degree <= new_trunc (must not exceed current)."""
        if new_trunc > self.trunc:
            raise ValueError("cannot extend a truncated series")
        out = {d: c for d, c in self.terms.items() if sum(d) <= new_trunc}
        return QSeries(self.ring, self.nvars, new_trunc, out)

    def is_scalar(self):
        """True when every coefficient is a rational multiple of 1 at t^0."""
        zero_exp = self.ring.zero_exp
        for c in self.terms.values():
            for j, coh in c.terms.items():
                if j != 0:
                    return False
                if set(coh.coeffs) - {zero_exp}:
                    return False
        return True

    def scalar_coefficients(self):
        """Map degree tuple -> Fraction for a scalar series."""
        if not self.is_scalar():
            raise ValueError("series has non-scalar coefficients")
        out = {}
        for d, c in self.terms.items():
            out[d] = c.coefficient(0).scalar_part
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for d in sorted(self.terms):
            mono = "*".join("q%d^%d" % (i + 1, e)
                            for i, e in enumerate(d) if e) or "1"
            parts.append("(%r)*%s" % (self.terms[d], mono))
        return " + ".join(parts)


def degree_vectors(nvars, trunc):
    """All nonzero degree tuples with total degree <= trunc, graded order."""
    gens = ["q%d" % i for i in range(nvars)]
    return Ring(gens, [trunc + 1] * nvars, total=trunc).monomials()[1:]


def qs_exp(e):
    """exp(E) of a truncated q-series, solved degree by degree.

    The q-degree-zero term E_0 must lack a scalar part at every t-power (t
    alone never vanishes), else sum_k E_0^k / k! never ends: NotExponentiable.
    Then P_0 = exp(E_0) is a finite sum that ends by the nilpotency_bound, and
    theta = sum_i q_i d/dq_i turns theta P = P * theta E for P = exp(E) into
    |d| P_d = sum_(0 < alpha <= d) |alpha| E_alpha P_(d - alpha) (Knuth, TAOCP
    vol. 2, 4.7), solved in graded order of d.
    """
    ring, nvars = e.ring, e.nvars
    zero_deg = (0,) * nvars
    p0, zero = LaurentClass.one(ring), LaurentClass.zero(ring)
    const = e.terms.get(zero_deg)
    if const is not None:
        for j, coh in const.terms.items():
            if coh.scalar_part != 0:
                raise NotExponentiable(
                    "degree-zero term %s*t^%d has a nonzero scalar part"
                    % (coh.scalar_part, j))
        term, k = p0, 0
        while term:
            k += 1
            term = term * const * Fraction(1, k)
            p0 = p0 + term
    weighted = [(alpha, c * sum(alpha)) for alpha, c in e.terms.items()
                if alpha != zero_deg]
    out = {zero_deg: p0}
    for d in degree_vectors(nvars, e.trunc):
        p_d = zero
        for alpha, c in weighted:
            # alpha not <= d leaves a negative entry, which is never a key
            p = out.get(tuple(map(sub, d, alpha)))
            if p is not None:
                p_d = p_d + c * p
        p_d = p_d * Fraction(1, sum(d))
        if p_d:
            out[d] = p_d
    return QSeries(ring, nvars, e.trunc, out)


def qs_compose(f, s):
    """Substitute q -> q * exp(s(q)) in a single-variable series f.

    s must be a single-variable pure-scalar series with zero constant term.
    The result is sum_k f_k * q^k * g, g = exp(k*s), at the same truncation;
    g comes from the Fractions s_j by m g_m = k sum_(j <= m) j s_j g_(m - j)
    (Knuth, TAOCP vol. 2, 4.7), and f_k g_m is added into degree k + m.
    """
    if f.nvars != 1 or s.nvars != 1:
        raise ValueError("arity mismatch: composition needs single-variable series")
    if f.ring != s.ring or f.trunc != s.trunc:
        raise ValueError("series shapes differ")
    if (0,) in s.terms:
        raise ValueError("substitution series must have zero constant term")
    weighted = [(j, j * v) for (j,), v in s.scalar_coefficients().items()]
    out = {}
    for (k,), fk in f.terms.items():
        g = [Fraction(1)]
        for m in range(1, f.trunc - k + 1):
            g.append(Fraction(k, m) * sum(
                (w * g[m - j] for j, w in weighted if j <= m), Fraction(0)))
        out = poly_add(out, {(k + m,): fk * x for m, x in enumerate(g) if x})
    return QSeries(f.ring, 1, f.trunc, out)
