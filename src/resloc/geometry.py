"""Target spaces and their cohomology rings.

Three kinds of target are supported:

  projective n        P^n, ring Q[H]/(H^(n+1)), integral of H^n is 1
  hypersurface n l    degree-l hypersurface in P^n, ring Q[H]/(H^n) with the
                      restricted hyperplane class, integral of H^(n-1) is l
  product [..]        product of the above, tensor ring, multiplicative
                      integral, one quantum variable per factor

A RingSpec carries the kernel Ring together with enough geometry (dimension,
first Chern degrees) for dimension bookkeeping downstream.
"""

from fractions import Fraction

from .ring import Ring


class RingSpec:
    """Description of a target space; construct via the classmethods."""

    __slots__ = ("kind", "n", "l", "components", "ring")

    def __init__(self, kind, n=None, l=None, components=None, ring=None):
        self.kind = kind
        self.n = n
        self.l = l
        self.components = components
        self.ring = ring

    @classmethod
    def projective(cls, n):
        # n = 0 gives a point target; useful as the unit for products
        if n < 0:
            raise ValueError("projective space needs n >= 0")
        ring = Ring(("H",), (n + 1,), Fraction(1))
        return cls("projective", n=n, ring=ring)

    @classmethod
    def hypersurface(cls, n, l):
        if n < 2:
            raise ValueError("hypersurface needs ambient dimension n >= 2")
        if not 1 <= l <= n + 1:
            raise ValueError("hypersurface degree must satisfy 1 <= l <= n + 1")
        ring = Ring(("H",), (n,), Fraction(l))
        return cls("hypersurface", n=n, l=l, ring=ring)

    @classmethod
    def product(cls, factors):
        factors = tuple(factors)
        if len(factors) < 1:
            raise ValueError("product needs at least one factor")
        for f in factors:
            if f.kind == "product":
                raise ValueError("nested products are not supported; flatten first")
        gens = tuple("H%d" % (i + 1) for i in range(len(factors)))
        truncs = tuple(f.ring.truncs[0] for f in factors)
        norm = Fraction(1)
        for f in factors:
            norm *= f.ring.norm
        ring = Ring(gens, truncs, norm)
        return cls("product", components=factors, ring=ring)

    @property
    def dim(self):
        """Complex dimension of the target."""
        if self.kind == "projective":
            return self.n
        if self.kind == "hypersurface":
            return self.n - 1
        return sum(f.dim for f in self.components)

    @property
    def nvars(self):
        """Number of quantum variables (one per product factor)."""
        return len(self.components) if self.kind == "product" else 1

    @property
    def c1_degrees(self):
        """Degree of c_1 against each generating curve class."""
        if self.kind == "projective":
            return (self.n + 1,)
        if self.kind == "hypersurface":
            return (self.n + 1 - self.l,)
        out = []
        for f in self.components:
            out.extend(f.c1_degrees)
        return tuple(out)

    def chern_degree(self, d):
        """Pairing of c_1 with the curve class of multidegree d."""
        d = tuple(d)
        c1 = self.c1_degrees
        if len(d) != len(c1):
            raise ValueError("degree vector has wrong length")
        return sum(a * b for a, b in zip(d, c1))

    def monomials(self):
        """All basis exponent tuples in graded lexicographic order."""
        return self.ring.monomials()

    def to_json(self):
        if self.kind == "projective":
            return {"kind": "projective", "n": self.n}
        if self.kind == "hypersurface":
            return {"kind": "hypersurface", "n": self.n, "l": self.l}
        return {"kind": "product",
                "components": [f.to_json() for f in self.components]}

    def __eq__(self, other):
        if not isinstance(other, RingSpec):
            return NotImplemented
        return self.to_json() == other.to_json()

    def __repr__(self):
        if self.kind == "projective":
            return "P^%d" % self.n
        if self.kind == "hypersurface":
            return "X_%d(P^%d)" % (self.l, self.n)
        return " x ".join(repr(f) for f in self.components)


def integrate(c):
    """Integral over the target: normalized coefficient of the top monomial.

    Works for any kernel Ring because the truncation orders and the
    normalization determine the top class.
    """
    return c.coeff(c.ring.top_exp) * c.ring.norm
