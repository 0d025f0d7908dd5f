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
Mersenne prime MODULUS = 2^61 - 1 and lifts each value to the symmetric
range |x| <= MODULUS // 2 ~ 1.15e18.  The flag table's unknowns are
pushforwards of integral classes, so they are integers, and every one of
them up to that bound comes back exactly.
solve_integer_rows certifies one system's candidate with an ExactSolver fed
the unit rows {v: 1} = x and then every row: each row is a substitution
check.  Rows with N pivots modulo the prime are independent over Q, so the
system has at most one solution, and a candidate that satisfies every row
exactly is it.  A solution that is not integral, or lies outside the
symmetric range, fails the check; when there is no candidate or the check
raises Inconsistent, that system's rows alone are eliminated exactly.
"""

from fractions import Fraction
from math import gcd, lcm
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


def modular_candidate(rows, unknowns):
    """The solution of integer rows modulo MODULUS, lifted to integers.

    rows are (row, rhs) pairs, each row an {unknown: int} dictionary over
    the given unknowns and rhs an int.  Rows are eliminated in order until
    every unknown has a pivot.  Returns {unknown: int}, each value x
    modulo MODULUS lifted to the symmetric range |x| <= MODULUS // 2, or
    None when fewer rows are independent modulo MODULUS.  The candidate is
    unchecked (see the module docstring).
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
    half = MODULUS // 2
    return {v: x if x <= half else x - MODULUS
            for v, x in zip(unknowns, values)}


def _eliminate(rows, unknowns):
    """Values of unknowns from one ExactSolver fed every row in order."""
    solver = ExactSolver()
    for row, rhs in rows:
        solver.add_equation(row, rhs)
    return solver.solution(unknowns)


def solve_integer_rows(rows, unknowns):
    """Unique values of integer (row, rhs) pairs over unknowns.

    Empty rows with a zero right side are dropped.  The modular candidate
    is certified exactly and returned as {unknown: int}, else the rows are
    eliminated exactly and {unknown: Fraction} is returned (see the module
    docstring); raises RankDeficient or Inconsistent as ExactSolver does.
    """
    rows = [(row, rhs) for row, rhs in rows if row or rhs]
    unknowns = list(unknowns)
    candidate = modular_candidate(rows, unknowns)
    if candidate is not None:
        solver = ExactSolver()
        for v, x in candidate.items():
            solver.add_equation({v: 1}, x)
        try:
            for row, rhs in rows:
                solver.add_equation(row, rhs)
            return candidate
        except Inconsistent:
            pass
    return _eliminate(rows, unknowns)
