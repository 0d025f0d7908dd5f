"""Truncated polynomial rings over Q with exact coefficients, and their kernel.

A Ring is Q[v1,...,vk]/(v1^N1,...,vk^Nk), optionally also cut at a total
degree: with total = T every monomial of degree above T is zero.  Either bound
spans an ideal, so truncating a product gives the same coefficients as
truncating after an untruncated product.  A Ring records generator names,
these bounds and an integration normalization.  Elements are CohClass values:
sparse dictionaries mapping exponent tuples to nonzero coefficients, each an
int or a Fraction: integer input stays integer through +, - and *, and only
division makes Fractions.  The readers coeff and scalar_part return Fractions.

poly_add and poly_mul are the one sparse-dictionary arithmetic of the package:
CohClass, the raw polynomials of sympoly, QSeries and the q-polynomials of
reconstruct all run through them.  A product of two single-term operands
skips poly_mul's pair loop.  LaurentClass.__mul__ keeps its own t-product
loop, which skips coefficient products that come out zero.
Ring.embed is the one way to re-key a class into a wider ring.  All
arithmetic is exact; there is no floating point anywhere in this package.

Sparse is the one operator protocol of the element classes CohClass,
LaurentClass, QSeries (with JFunction) and SymPoly.  A subclass defines
__bool__, __add__, __neg__ and __mul__, a _coerce that turns an int, a
Fraction or a smaller element (CohClass into LaurentClass, LaurentClass into
QSeries) into one of its own kind or returns None, and a _key that ==
compares.  Sparse derives is_zero, reflected +, -, ** and == from those, and
checks rings.
"""

from fractions import Fraction
from itertools import product
from operator import add, lt

from .errors import RingMismatch


def as_exact(x):
    """x itself if it is an int or a Fraction; anything else is a TypeError."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError("expected an int or Fraction, got %r" % (x,))


def as_fraction(x):
    return Fraction(x) if isinstance(x, int) else as_exact(x)


def poly_add(a, b):
    """Sum of sparse polynomials {exponent: coefficient}.

    Coefficients are anything with + and truthiness (Fractions, CohClass,
    LaurentClass); sums that come out zero are dropped.
    """
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        s = c if s is None else s + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_mul(a, b, truncs=None, total=None):
    """Product of sparse polynomials {exponent tuple: coefficient}.

    A monomial survives when each exponent is below its entry in truncs and
    the total degree is at most total; None disables a bound.
    """
    if len(a) == 1 == len(b):
        (e1, c1), = a.items()
        (e2, c2), = b.items()
        e = tuple(map(add, e1, e2))
        if ((truncs is None or all(map(lt, e, truncs)))
                and (total is None or sum(e) <= total)):
            p = c1 * c2
            return {e: p} if p else {}
        return {}
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            if truncs is not None and not all(map(lt, e, truncs)):
                continue
            if total is not None and sum(e) > total:
                continue
            p = c1 * c2
            s = out.get(e)
            s = p if s is None else s + p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


class Ring:
    """Descriptor of a truncated polynomial ring over Q.

    gens   -- tuple of generator names, e.g. ("H",) or ("z1", "z2")
    truncs -- tuple of truncation orders; generator i satisfies v_i^truncs[i] = 0
    norm   -- Fraction multiplying the top coefficient under integration
    total  -- None, or a total-degree bound: monomials of degree > total are 0
    """

    __slots__ = ("gens", "truncs", "norm", "total")

    def __init__(self, gens, truncs, norm=Fraction(1), total=None):
        gens = tuple(gens)
        truncs = tuple(int(t) for t in truncs)
        if len(gens) != len(truncs):
            raise ValueError("generator and truncation counts differ")
        if len(set(gens)) != len(gens):
            raise ValueError("generator names must be distinct")
        if any(t < 1 for t in truncs):
            raise ValueError("truncation orders must be >= 1")
        if total is not None and total < 0:
            raise ValueError("total-degree bound must be >= 0")
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "truncs", truncs)
        object.__setattr__(self, "norm", as_fraction(norm))
        object.__setattr__(self, "total", None if total is None else int(total))

    def __setattr__(self, name, value):
        raise AttributeError("Ring is immutable")

    def __eq__(self, other):
        if not isinstance(other, Ring):
            return NotImplemented
        return (self.gens == other.gens and self.truncs == other.truncs
                and self.norm == other.norm and self.total == other.total)

    def __hash__(self):
        return hash((self.gens, self.truncs, self.norm, self.total))

    def __repr__(self):
        parts = ["%s^%d" % (g, t) for g, t in zip(self.gens, self.truncs)]
        if self.total is not None:
            parts.append("deg > %d" % self.total)
        return "Ring(Q[%s]/(%s))" % (", ".join(self.gens), ", ".join(parts))

    @property
    def zero_exp(self):
        return (0,) * len(self.gens)

    @property
    def top_exp(self):
        """Exponent tuple of the top monomial: trunc - 1 each, total ignored."""
        return tuple(t - 1 for t in self.truncs)

    @property
    def nilpotency_bound(self):
        """Smallest B with u^B = 0 for every u lacking a scalar part."""
        top = sum(t - 1 for t in self.truncs)
        return 1 + (top if self.total is None else min(top, self.total))

    def admits(self, exps):
        return (len(exps) == len(self.truncs)
                and all(0 <= e < t for e, t in zip(exps, self.truncs))
                and (self.total is None or sum(exps) <= self.total))

    def monomials(self):
        """Every admitted exponent tuple, by total degree and then lex order."""
        out = [e for e in product(*map(range, self.truncs))
               if self.total is None or sum(e) <= self.total]
        out.sort(key=lambda e: (sum(e), e))
        return out

    def zero(self):
        return CohClass(self, {})

    def one(self):
        return self.monomial(self.zero_exp)

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        c = as_exact(coeff)
        if not self.admits(exps):
            if len(exps) != len(self.truncs) or any(e < 0 for e in exps):
                raise ValueError("bad exponent tuple %r for %r" % (exps, self))
            return CohClass(self, {})
        if c == 0:
            return CohClass(self, {})
        return CohClass(self, {exps: c})

    def embed(self, c, offset):
        """c with its generators moved to this ring's, starting at offset;
        c's ring must fit there, truncation by truncation and in total."""
        pad = len(self.gens) - offset - len(c.ring.gens)
        if (offset < 0 or pad < 0
                or any(map(lt, self.truncs[offset:], c.ring.truncs))
                or self.total is not None
                and c.ring.nilpotency_bound - 1 > self.total):
            raise ValueError("%r does not fit in %r at offset %d"
                             % (c.ring, self, offset))
        before, after = (0,) * offset, (0,) * pad
        return CohClass(self, {before + e + after: v
                               for e, v in c.coeffs.items()})

    def generator(self, name):
        if name not in self.gens:
            raise KeyError(name)
        i = self.gens.index(name)
        exps = [0] * len(self.gens)
        exps[i] = 1
        return self.monomial(tuple(exps))


class Sparse:
    """is_zero, reflected +, -, ** and == from a subclass's __bool__,
    __add__, __neg__, __mul__, _coerce and _key (see the module docstring)."""

    __slots__ = ()

    def is_zero(self):
        return not self

    def _check_ring(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch("cannot combine elements of %r and %r"
                               % (self.ring, other.ring))

    def __radd__(self, other):
        # through the subclass's __add__, so a traced __add__ counts it
        return self.__add__(other)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = self._coerce(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        # by the less derived class's key: a QSeries equals a JFunction
        # with the same terms, although the JFunction's key holds its target
        cls = type(self)
        if not isinstance(other, cls):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
            cls = type(other)
        return cls._key(self) == cls._key(other)


class CohClass(Sparse):
    """Element of a Ring: finitely many monomials with exact coefficients.

    The coefficient dictionary never stores zero values and never stores an
    exponent tuple that its ring does not admit.  A CohClass is false exactly
    when it is zero.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def _coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return self.ring.monomial(self.ring.zero_exp, x)
        return None

    def _key(self):
        return self.ring, self.coeffs

    def coeff(self, exps):
        return Fraction(self.coeffs.get(tuple(exps), 0))

    @property
    def scalar_part(self):
        """Coefficient of the monomial with all exponents zero."""
        return Fraction(self.coeffs.get(self.ring.zero_exp, 0))

    def homogeneous_degree(self):
        """Total degree if homogeneous, None for zero or mixed degrees."""
        degs = {sum(e) for e in self.coeffs}
        if len(degs) == 1:
            return degs.pop()
        return None

    def __add__(self, other):
        if not isinstance(other, CohClass):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        self._check_ring(other)
        return CohClass(self.ring, poly_add(self.coeffs, other.coeffs))

    def __neg__(self):
        return CohClass(self.ring, {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        # classes first: a miss against Fraction, an ABC, is a slow check
        if isinstance(other, CohClass):
            self._check_ring(other)
            ring = self.ring
            return CohClass(ring, poly_mul(self.coeffs, other.coeffs,
                                           ring.truncs, ring.total))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            return self.ring.zero()
        return CohClass(self.ring, {e: v * other for e, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = as_fraction(other)
        if c == 0:
            raise ZeroDivisionError("division of a ring element by zero")
        return self * (Fraction(1) / c)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        gens = self.ring.gens
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            factors = []
            for g, k in zip(gens, e):
                if k == 1:
                    factors.append(g)
                elif k > 1:
                    factors.append("%s^%d" % (g, k))
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append("%s*%s" % (c, "*".join(factors)))
        return " + ".join(parts).replace("+ -", "- ")
