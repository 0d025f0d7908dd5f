"""Exact sparse linear solving over Q, in integer rows.

Rows arrive as {unknown: int or Fraction} dictionaries.  A right-hand side is
an int, a Fraction or an element of any Q-vector space with +, -,
multiplication by an int or a Fraction, and truthiness (such as a CohClass):
one reduction of the row then solves every component at once.

Elimination is fraction-free Gauss-Jordan, with content normalization in the
spirit of Bareiss (1968).  A row is cleared of denominators once, by their
lcm, and stored as a primitive integer row with its own pivot coefficient p.
Reducing r against a stored row P is r <- (p/g)*r - (c/g)*P, g = gcd(p, c),
c the coefficient of r on P's pivot, with the same integers applied to the
right-hand side.  A new row is divided by its content before and after its
reduction, a stored row after each step; an int right-hand side stays an int
while the content divides it.  solution() divides once per unknown.
Unknowns are any sortable hashable keys and the pivot is the smallest; the
reduced row echelon form is unique, so repeated runs eliminate identically.
An unknown whose stored row holds no other variable has pivot +-1; with an
int right-hand side it is determined, and an incoming row with an int
right-hand side has it substituted by integer products before any gcd or
scaling.

modular_candidate solves a square-or-taller integer system modulo the
Mersenne prime MODULUS = 2^61 - 1 and rebuilds each value by rational
reconstruction (Wang, Guy & Davenport 1982): the extended Euclidean
algorithm on (MODULUS, x) stops at the first remainder below isqrt(MODULUS)
~ 1.5e9, so every integer of absolute value below that bound comes back (the
largest flag table entry at m = 3, n = 12 is 15,927,912).
The candidate is certified exactly by an ExactSolver fed the unit rows
{v: den} = num and then every row of the system: each row is then a
substitution check.  Rows with N pivots modulo the prime are independent
over Q, so the system has at most one solution, and a candidate that
satisfies every row exactly is it.  When fewer rows are independent modulo
the prime, a value does not reconstruct, or the check raises Inconsistent,
the caller falls back to exact elimination of every row.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from .errors import Inconsistent, RankDeficient


def _combine(a, row, rhs, c, prow, prhs):
    """a*row - c*prow and a*rhs - c*prhs; row is changed in place if a == 1."""
    if a != 1:
        row = {u: a * x for u, x in row.items()}
        rhs = rhs * a
    for u, x in prow.items():
        s = row.get(u, 0) - c * x
        if s:
            row[u] = s
        else:
            row.pop(u, None)
    return row, rhs - c * prhs


def _primitive(row, rhs, lead=0):
    """row and rhs divided by the content g of lead and row, and g."""
    g = gcd(lead, *row.values())
    if g < 2:
        return row, rhs, 1
    if isinstance(rhs, int) and not rhs % g:
        rhs //= g
    else:
        rhs = rhs * Fraction(1, g)
    return {u: x // g for u, x in row.items()}, rhs, g


class ExactSolver:
    """Incremental fraction-free Gauss-Jordan elimination over the rationals."""

    def __init__(self):
        # pivot variable -> (pivot coefficient, primitive int row without the
        # pivot, rhs); the row holds no other pivot variable
        self.pivots = {}

    def add_equation(self, row, rhs):
        """Insert one equation sum(row[v] * x_v) = rhs, reducing immediately.

        rhs is a scalar or a vector (see the module docstring); solution()
        returns values of the same kind.
        """
        pivots = self.pivots
        if type(rhs) is int:
            rest = {}
            for v, c in row.items():
                known = pivots.get(v)
                if known and not known[1] and type(known[2]) is int:
                    rhs -= c * known[0] * known[2]
                else:
                    rest[v] = c
            row = rest
        num = lcm(*(c.denominator for c in row.values()))
        row = {v: c.numerator * (num // c.denominator)
               for v, c in row.items() if c}
        # the row is num/div times the input row reduced so far
        row, rhs, div = _primitive(row, rhs * num)
        for v in sorted(v for v in row if v in pivots):
            c = row.pop(v)
            p, prow, prhs = pivots[v]
            g = gcd(p, c)
            row, rhs = _combine(p // g, row, rhs, c // g, prow, prhs)
            num *= p // g
        if not row:
            if rhs:
                raise Inconsistent("equation reduced to 0 = %s"
                                   % (rhs * Fraction(div, num)))
            return
        row, rhs, _ = _primitive(row, rhs)
        pivot = min(row)
        p = row.pop(pivot)
        # eliminate the new pivot from all stored rows
        for v, (q, prow, prhs) in pivots.items():
            c = prow.pop(pivot, None)
            if c is None:
                continue
            g = gcd(p, c)
            prow, prhs = _combine(p // g, prow, prhs, c // g, row, rhs)
            q *= p // g
            prow, prhs, g = _primitive(prow, prhs, q)
            pivots[v] = (q // g, prow, prhs)
        pivots[pivot] = (p, row, rhs)

    def solution(self, unknowns):
        """Unique values for all the given unknowns.

        Raises RankDeficient when some unknown has no pivot, or when a pivot
        row still references a free variable.
        """
        unknowns = list(unknowns)
        missing = [v for v in unknowns if v not in self.pivots]
        if missing:
            raise RankDeficient(
                "%d unknown(s) undetermined, e.g. %r" % (len(missing), missing[0]),
                free_unknowns=missing)
        out = {}
        for v in unknowns:
            p, row, rhs = self.pivots[v]
            if row:
                stray = sorted(row)[0]
                raise RankDeficient(
                    "unknown %r depends on free variable %r" % (v, stray),
                    free_unknowns=[stray])
            out[v] = rhs / Fraction(p)
        return out


MODULUS = 2 ** 61 - 1
_BOUND = isqrt(MODULUS)


def _rational(x):
    """n/d = x modulo MODULUS with |n|, d < isqrt(MODULUS), or None."""
    r0, r1, t0, t1 = MODULUS, x, 0, 1
    while r1 >= _BOUND:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) >= _BOUND or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def modular_candidate(rows, unknowns):
    """The solution of integer rows modulo MODULUS, rebuilt as fractions.

    rows are (row, rhs) pairs, each row an {unknown: int} dictionary over
    the given unknowns and rhs an int.  Rows are eliminated in order until
    every unknown has a pivot.  Returns {unknown: Fraction}, or None when
    fewer rows are independent modulo MODULUS or a value does not
    reconstruct.  The candidate is unchecked (see the module docstring).
    """
    unknowns = list(unknowns)
    index = {v: k for k, v in enumerate(unknowns)}
    size = len(unknowns)
    echelon = []  # (pivot column, row from that column on, pivot 1, rhs last)
    for row, rhs in rows:
        vec = [0] * size + [rhs % MODULUS]
        for v, c in row.items():
            vec[index[v]] = c % MODULUS
        for col, tail in echelon:
            c = vec[col] % MODULUS
            if c:
                vec[col:] = [x - c * y for x, y in zip(vec[col:], tail)]
        vec = [x % MODULUS for x in vec]
        col = next((k for k, x in enumerate(vec[:size]) if x), None)
        if col is not None:
            inv = pow(vec[col], -1, MODULUS)
            echelon.append((col, [x * inv % MODULUS for x in vec[col:]]))
            if len(echelon) == size:
                break
    if len(echelon) < size:
        return None
    values = [0] * size
    for col, tail in sorted(echelon, reverse=True):
        values[col] = (tail[-1] - sum(map(mul, tail[1:-1], values[col + 1:]))
                       ) % MODULUS
    out = {}
    for v, x in zip(unknowns, values):
        out[v] = _rational(x)
        if out[v] is None:
            return None
    return out
