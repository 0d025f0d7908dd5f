"""Truncated power series in quantum variables q_1..q_r.

Coefficients are LaurentClass values over one fixed Ring.  Terms are kept up
to a total degree bound D; multiplication drops anything beyond the bound, so
the bound is a ring homomorphism from higher truncations.  Sums and products
run through the ring kernel (poly_add, poly_mul with total = D).
"""

from fractions import Fraction

from .errors import NotExponentiable, RingMismatch
from .laurent import LaurentClass
from .ring import as_fraction, poly_add, poly_mul


class QSeries:
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

    def _check_compatible(self, other):
        if self.ring != other.ring:
            raise RingMismatch("series coefficients live in different rings")
        if self.nvars != other.nvars or self.trunc != other.trunc:
            raise ValueError("series shapes differ: %d vars deg %d vs %d vars deg %d"
                             % (self.nvars, self.trunc, other.nvars, other.trunc))

    def coefficient(self, deg):
        """Coefficient of q^deg; an int deg stands for (deg,)."""
        deg = (deg,) if isinstance(deg, int) else tuple(deg)
        return self.terms.get(deg, LaurentClass.zero(self.ring))

    def is_zero(self):
        return not self.terms

    def degrees(self):
        return sorted(self.terms)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, LaurentClass)):
            other = QSeries.constant(self.ring, self.nvars, self.trunc, other)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_compatible(other)
        return QSeries(self.ring, self.nvars, self.trunc,
                       poly_add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.ring, self.nvars, self.trunc,
                       {d: -c for d, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, LaurentClass)):
            other = QSeries.constant(self.ring, self.nvars, self.trunc, other)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            out = {d: v * c for d, v in self.terms.items()} if c else {}
            return QSeries(self.ring, self.nvars, self.trunc, out)
        if isinstance(other, LaurentClass):
            other = QSeries.constant(self.ring, self.nvars, self.trunc, other)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_compatible(other)
        return QSeries(self.ring, self.nvars, self.trunc,
                       poly_mul(self.terms, other.terms, total=self.trunc))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = QSeries.one(self.ring, self.nvars, self.trunc)
        for _ in range(k):
            out = out * self
        return out

    def q_shift(self, deg):
        """Multiply by the monomial q^deg, dropping terms beyond the bound."""
        deg = tuple(deg)
        extra = sum(deg)
        out = {}
        for d, c in self.terms.items():
            if sum(d) + extra > self.trunc:
                continue
            out[tuple(a + b for a, b in zip(d, deg))] = c
        return QSeries(self.ring, self.nvars, self.trunc, out)

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

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, LaurentClass)):
            other = QSeries.constant(self.ring, self.nvars, self.trunc, other)
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.ring == other.ring and self.nvars == other.nvars
                and self.trunc == other.trunc and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for d in sorted(self.terms):
            mono = "*".join("q%d^%d" % (i + 1, e)
                            for i, e in enumerate(d) if e) or "1"
            parts.append("(%r)*%s" % (self.terms[d], mono))
        return " + ".join(parts)


def qs_exp(e):
    """Exponential of a truncated q-series.

    Every term of e sitting in q-degree zero must have coefficients without a
    scalar part, otherwise the sum sum_k e^k / k! never terminates and
    NotExponentiable is raised.  Powers of t alone do not help: they never
    become zero, so the scalar-part condition is checked per t-exponent.
    """
    zero_deg = (0,) * e.nvars
    const = e.terms.get(zero_deg)
    if const is not None:
        for j, coh in const.terms.items():
            if coh.scalar_part != 0:
                raise NotExponentiable(
                    "degree-zero term %s*t^%d has a nonzero scalar part"
                    % (coh.scalar_part, j))
    out = QSeries.one(e.ring, e.nvars, e.trunc)
    term = QSeries.one(e.ring, e.nvars, e.trunc)
    limit = e.trunc + e.ring.nilpotency_bound + 1
    for k in range(1, limit + 1):
        term = term * e * Fraction(1, k)
        if term.is_zero():
            break
        out = out + term
    else:
        if not term.is_zero():
            raise NotExponentiable("exponential series failed to terminate")
    return out


def qs_compose(f, s):
    """Substitute q -> q * exp(s(q)) in a single-variable series f.

    s must be a single-variable pure-scalar series with zero constant term.
    The result is sum_d f_d * q^d * exp(s)^d at the same truncation.
    """
    if f.nvars != 1 or s.nvars != 1:
        raise ValueError("arity mismatch: composition needs single-variable series")
    if f.ring != s.ring or f.trunc != s.trunc:
        raise ValueError("series shapes differ")
    if not s.is_scalar():
        raise ValueError("substitution series must be pure scalar")
    if (0,) in s.terms:
        raise ValueError("substitution series must have zero constant term")
    growth = qs_exp(s)
    out = QSeries.zero(f.ring, 1, f.trunc)
    epow = QSeries.one(f.ring, 1, f.trunc)
    for d in range(0, f.trunc + 1):
        fd = f.terms.get((d,))
        if fd is not None:
            out = out + (epow * fd).q_shift((d,))
        if d < f.trunc:
            epow = epow * growth
    return out
