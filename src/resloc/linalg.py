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
"""

from fractions import Fraction
from math import gcd, lcm

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
