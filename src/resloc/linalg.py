"""Exact sparse linear solving over Q.

Rows arrive as {unknown: int or Fraction} dictionaries.  A right-hand side is a
Fraction or an element of any Q-vector space with +, -, multiplication and
division by a Fraction, and truthiness (such as a CohClass): one reduction of
the row then solves every component at once.  Elimination is Gauss-Jordan
with exact rational arithmetic: no pivot thresholds exist because nothing is
ever rounded.  Unknown keys can be any sortable hashable values; pivots are
chosen deterministically (smallest key) so repeated runs produce identical
eliminations.
"""

from fractions import Fraction

from .errors import Inconsistent, RankDeficient


class ExactSolver:
    """Incremental Gauss-Jordan elimination over the rationals."""

    def __init__(self):
        # pivot variable -> (row dict with coefficient 1 on the pivot, rhs)
        self.pivots = {}

    def add_equation(self, row, rhs):
        """Insert one equation sum(row[v] * x_v) = rhs, reducing immediately.

        rhs is a scalar or a vector (see the module docstring); solution()
        returns values of the same kind.
        """
        row = {v: c for v, c in row.items() if c != 0}
        # reduce against existing pivot rows
        for v in sorted(v for v in row if v in self.pivots):
            c = row.pop(v)
            prow, prhs = self.pivots[v]
            for u, pc in prow.items():
                s = row.get(u, Fraction(0)) - c * pc
                if s:
                    row[u] = s
                else:
                    row.pop(u, None)
            rhs -= c * prhs
        if not row:
            if rhs:
                raise Inconsistent("equation reduced to 0 = %s" % rhs)
            return
        pivot = min(row)
        scale = Fraction(row.pop(pivot))  # int / int would give a float
        row = {u: c / scale for u, c in row.items()}
        rhs = rhs / scale
        # eliminate the new pivot from all stored rows
        for v, (prow, prhs) in self.pivots.items():
            c = prow.pop(pivot, None)
            if c is None:
                continue
            for u, rc in row.items():
                s = prow.get(u, Fraction(0)) - c * rc
                if s:
                    prow[u] = s
                else:
                    prow.pop(u, None)
            self.pivots[v] = (prow, prhs - c * rhs)
        self.pivots[pivot] = (row, rhs)

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
            row, rhs = self.pivots[v]
            if row:
                stray = sorted(row)[0]
                raise RankDeficient(
                    "unknown %r depends on free variable %r" % (v, stray),
                    free_unknowns=[stray])
            out[v] = rhs
        return out

