"""Symmetric polynomials in q_1..q_m with exact coefficients.

SymPoly validates symmetry on construction (adjacent transpositions suffice)
and reports a witness transposition when the check fails.  The module also
provides Schur polynomials, Schur expansion through the Vandermonde
alternant, and the top Chern class of the symmetric power of the tautological
rank-2 bundle, which together form the classical oracle for Grassmannian
integrals.

Raw polynomials keep whatever exact coefficients they are built from: the
builders below give int coefficients from int inputs, so products of parsed
expressions run in integer arithmetic.  SymPoly keeps its coefficients as
given, so the Schur expansion and the oracle stay in integers too.
"""

import itertools
from fractions import Fraction
from operator import add, sub

from .errors import NotSymmetric
from .laurent import LaurentClass
from .ring import Sparse, as_exact, poly_add, poly_mul

# ---------------------------------------------------------------------------
# raw polynomial dictionaries {exponent tuple: int or Fraction}; no symmetry
# implied; sums and products go through the ring kernel's poly_add and poly_mul


def p_const(m, c):
    return {(0,) * m: c} if c else {}

def p_var(m, i):
    """The variable q_(i+1) as a raw polynomial."""
    e = [0] * m
    e[i] = 1
    return {tuple(e): 1}

def p_neg(a):
    return {e: -c for e, c in a.items()}

def p_sub(a, b):
    return poly_add(a, p_neg(b))

def p_scale(a, r):
    if r == 0:
        return {}
    return {e: c * r for e, c in a.items()}

def p_mul(a, b):
    # its own function, not an alias, so profilers can count symmetric products
    return poly_mul(a, b)

def p_pow(a, k, m):
    out = p_const(m, 1)
    for _ in range(k):
        out = p_mul(out, a)
    return out


def schur_poly(m, partition):
    """Schur polynomial s_partition in m variables by the branching rule.

    s_lam(q_1..q_m) is the sum of q_m^(|lam| - |mu|) * s_mu(q_1..q_(m-1))
    over the mu interlacing lam, lam_1 >= mu_1 >= lam_2 >= ... >= mu_(m-1)
    >= lam_m (Macdonald, Symmetric Functions and Hall Polynomials, I.5.11),
    so every coefficient is a positive int and each s_mu is built once.
    """
    lam = tuple(int(x) for x in partition)
    if any(a < 0 for a in lam):
        raise ValueError("partition entries must be nonnegative")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError("partition must be weakly decreasing")
    lam = tuple(a for a in lam if a > 0)
    if len(lam) > m:
        return {}
    return _branching(lam + (0,) * (m - len(lam)), {})


def _branching(lam, memo):
    """s_lam in len(lam) variables; memo holds the s_mu already built."""
    if len(lam) <= 1:
        return {lam: 1}
    if lam in memo:
        return memo[lam]
    out = {}
    size = sum(lam)
    tops = [a + 1 for a in lam[:-1]]
    for mu in itertools.product(*map(range, lam[1:], tops)):
        last = (size - sum(mu),)
        for e, c in _branching(mu, memo).items():
            e += last
            out[e] = out.get(e, 0) + c
    memo[lam] = out
    return out


def _perm_sign(sigma):
    sign = 1
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------


class SymPoly(Sparse):
    """Symmetric polynomial in q_1..q_m, validated on construction."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m, coeffs):
        self.m = int(m)
        out = {}
        for e, c in coeffs.items():
            e = tuple(map(int, e))
            if len(e) != self.m:
                raise ValueError("exponent tuple %r has wrong arity" % (e,))
            if min(e, default=0) < 0:
                raise ValueError("negative exponent in %r" % (e,))
            if as_exact(c):
                out[e] = c
        for i in range(self.m - 1):
            for e, c in out.items():
                swapped = list(e)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                if out.get(tuple(swapped), 0) != c:
                    raise NotSymmetric(
                        "not symmetric: swapping q%d and q%d changes the "
                        "coefficient of %r" % (i + 1, i + 2, e),
                        witness=(i + 1, i + 2))
        self.coeffs = out

    def __bool__(self):
        return bool(self.coeffs)

    def _coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return SymPoly(self.m, p_const(self.m, x))
        return None

    def _key(self):
        return self.m, self.coeffs

    def __add__(self, other):
        if not isinstance(other, SymPoly):
            other = self._coerce(other)
        if other is None or other.m != self.m:
            return NotImplemented
        return SymPoly(self.m, poly_add(self.coeffs, other.coeffs))

    def __neg__(self):
        return SymPoly(self.m, p_neg(self.coeffs))

    def __mul__(self, other):
        if isinstance(other, SymPoly) and other.m == self.m:
            return SymPoly(self.m, p_mul(self.coeffs, other.coeffs))
        if isinstance(other, (int, Fraction)):
            return SymPoly(self.m, p_scale(self.coeffs, other))
        return NotImplemented

    __rmul__ = __mul__

    def evaluate(self, args):
        """Evaluate at LaurentClass arguments (one per variable).

        Powers are cached per argument, so repeated exponents cost one
        multiplication each.
        """
        if len(args) != self.m:
            raise ValueError("expected %d arguments, got %d" % (self.m, len(args)))
        if not args:
            raise ValueError("no variables to evaluate")
        ring = args[0].ring
        powers = []
        for a in args:
            if a.ring != ring:
                raise ValueError("evaluation arguments live in different rings")
            powers.append({0: LaurentClass.one(ring)})
        out = LaurentClass.zero(ring)
        for e, c in sorted(self.coeffs.items()):
            prod = LaurentClass.t_power(ring, 0, c)
            for i, k in enumerate(e):
                cache = powers[i]
                if k not in cache:
                    top = max(cache)
                    for j in range(top + 1, k + 1):
                        cache[j] = cache[j - 1] * args[i]
                prod = prod * cache[k]
            out = out + prod
        return out

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            mono = "*".join("q%d^%d" % (i + 1, k) if k > 1 else "q%d" % (i + 1)
                            for i, k in enumerate(e) if k)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            else:
                parts.append("%s*%s" % (c, mono))
        return " + ".join(parts)


def sym_power_top_chern(l):
    """Top Chern class of Sym^l of the dual tautological bundle on G(2, n).

    In Chern roots q1, q2 this is the product of (i*q1 + (l-i)*q2) over
    i = 0..l, a symmetric polynomial of degree l + 1.
    """
    if l < 1:
        raise ValueError("symmetric power degree must be >= 1")
    out = p_const(2, 1)
    for i in range(l + 1):
        factor = poly_add(p_scale(p_var(2, 0), i), p_scale(p_var(2, 1), l - i))
        out = p_mul(out, factor)
    return SymPoly(2, out)


def _alternant(m, mu):
    """Alternating sum of sign(sigma) * q^(sigma applied to mu).

    mu has distinct entries, so every permutation gives its own monomial.
    """
    return {tuple(mu[sigma[i]] for i in range(m)): _perm_sign(sigma)
            for sigma in itertools.permutations(range(m))}


def _partitions(total, parts, largest):
    """Partitions of total into at most parts parts, each at most largest.

    Yields weakly decreasing tuples of length parts, padded with zeros.
    """
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, largest), -1, -1):
        if first * parts < total:
            return
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def schur_expand(tau):
    """Expand a symmetric polynomial in the Schur basis.

    tau * a_delta = sum c_lambda * a_(lambda+delta) for the alternants a_mu,
    and q^(lambda+delta) is the only monomial of a_(lambda+delta) with
    strictly decreasing exponents.  So c_lambda is the coefficient of
    q^(lambda+delta) in tau * a_delta: the alternating sum over sigma of
    sign(sigma) times the coefficient of q^(lambda + delta - sigma delta) in
    tau (the Jacobi bialternant; Macdonald, Symmetric Functions and Hall
    Polynomials, I.3), m! lookups per partition.  The partitions read are
    those with at most m parts, size one of the degrees of tau and first
    part at most the largest exponent in tau, which holds every lambda with
    c_lambda != 0.  Returns {partition: coefficient}, int or Fraction as in
    tau, with trailing zeros stripped from keys.
    """
    m = tau.m
    coeffs = tau.coeffs
    delta = tuple(range(m - 1, -1, -1))
    shifts = [(tuple(map(sub, delta, d)), sign)
              for d, sign in _alternant(m, delta).items()]
    largest = max(itertools.chain.from_iterable(coeffs), default=0)
    out = {}
    for degree in sorted({sum(e) for e in coeffs}):
        for lam in _partitions(degree, m, largest):
            c = sum(sign * coeffs.get(tuple(map(add, lam, shift)), 0)
                    for shift, sign in shifts)
            if c:
                out[tuple(x for x in lam if x)] = c
    return out


def schur_integral_oracle(m, n, tau):
    """Integral of tau over the Grassmannian of m-planes in C^n.

    Reads off the coefficient of the Schur class of the full box partition
    ((n-m)^m) in the Schur expansion; every other component integrates to
    zero.  Returns 0 whenever the degree of tau differs from m(n-m).
    """
    if tau.m != m:
        raise ValueError("tau has %d variables, expected %d" % (tau.m, m))
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    box = tuple(a for a in (n - m,) * m if a > 0)
    return schur_expand(tau).get(box, 0)
