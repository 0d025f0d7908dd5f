"""Two-point descendant series, invariants and small quantum multiplication.

The recursion turns J-coefficients F_d into two-point series G_d(H^a, t):
the combination

    G_d(H^a,t) + sum_(d1+d2=d) G_d1(F_d2(-t) * prod_i (H_i - d2_i t)^(a_i), t)
               + F_d(-t) * prod_i (H_i - d_i t)^(a_i)

is polynomial in t, so the strictly negative part of the known terms
determines G_d.  The recursion runs in integers, on terms e * t^j keyed by
one integer j*B + index(e), B the basis size: each degree's arguments and
each G_d(H^e) are built once as numerators over one denominator, and the
known terms of one (d, a) are summed over their common denominator.
TwoPointTable.residual is the independent evaluator: it re-evaluates the
expression in LaurentClass arithmetic from the stored table alone.  Degree
vectors come from Ring.monomials in graded order, which fixes the row order
of the CLI reports and lists every split's degrees before their sum.

The k = 0 coefficient of G pairs to 2-point invariants, which assemble
quantum multiplication by a divisor through the divisor axiom (the one
imported fact external to the residue formalism).
"""

from collections import defaultdict
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import sub

from .errors import Inconsistent, NoRelationFound, RankDeficient
from .fmt import fmt_fraction, fmt_tuple
from .laurent import LaurentClass, neg_part
from .linalg import ExactSolver
from .qseries import degree_vectors
from .ring import CohClass, poly_add, poly_mul


def _as_tuple(v, arity, what):
    """v (an int or a sequence) as a tuple of the given arity."""
    v = (v,) if isinstance(v, int) else tuple(v)
    if len(v) != arity:
        raise ValueError("%s arity %d, expected %d" % (what, len(v), arity))
    return v


class TwoPointTable:
    """Table of two-point series G_d(H^a, t) = sum_k g_{d,a,k} t^(-k-1).

    Keys are (degree tuple, basis exponent tuple); values hold only negative
    t-powers.  g coefficients live in the target ring and obey the degree
    window checked by tests, not by construction.
    """

    __slots__ = ("ring_spec", "trunc", "table")

    def __init__(self, ring_spec, trunc, table):
        self.ring_spec = ring_spec
        self.trunc = int(trunc)
        self.table = dict(table)

    def degrees(self):
        return degree_vectors(self.ring_spec.nvars, self.trunc)

    def series(self, d, a):
        """G_d(H^a, t) as a Laurent class (zero if outside the table)."""
        d = self._as_degree(d)
        a = self._as_exps(a)
        return self.table.get((d, a), LaurentClass.zero(self.ring_spec.ring))

    def g(self, d, a, k):
        """Coefficient g_{d,a,k} of t^(-k-1), a CohClass."""
        return self.series(d, a).coefficient(-k - 1)

    def k_support(self, d, a):
        return sorted(-j - 1 for j in self.series(d, a).terms)

    def _as_degree(self, d):
        return _as_tuple(d, self.ring_spec.nvars, "degree")

    def _as_exps(self, a):
        return _as_tuple(a, len(self.ring_spec.ring.gens), "exponent")

    def invariant_row(self, d, a, bs):
        """The 2-point invariants of H^a with each H^b in bs, at degree d.

        Each integrates H^b * g_{d,a,0}, read once: norm * g_{d,a,0}[top - b].
        A b past the truncation leaves a negative entry, which is never a key,
        so it reads 0; when the ring's total-degree bound drops the top
        monomial, every integral is 0.
        """
        ring = self.ring_spec.ring
        g = self.g(d, self._as_exps(a), 0)
        bs = [self._as_exps(b) for b in bs]
        top = ring.top_exp
        if not ring.admits(top):
            return [Fraction(0)] * len(bs)
        return [g.coeffs.get(tuple(map(sub, top, b)), 0) * ring.norm
                for b in bs]

    def invariant(self, a, b, d):
        """The 2-point invariant <H^a, H^b>_d, by invariant_row."""
        return self.invariant_row(d, a, [b])[0]

    def residual(self, jfun, d, a):
        """Negative part of the full recursion expression; zero iff consistent.

        Evaluates G_d(H^a) + convolution + direct term in LaurentClass
        arithmetic, sharing nothing with the integer route that built the
        table but the table itself, so a zero residual checks the
        construction instead of restating it.
        """
        d = self._as_degree(d)
        a = self._as_exps(a)
        ring = self.ring_spec.ring

        def argument(d2):
            out = jfun.coefficient(d2).flip_t()
            for gen, di, ai in zip(ring.gens, d2, a):
                out = out * (LaurentClass.from_coh(ring.generator(gen))
                             - LaurentClass.t_power(ring, 1, di)) ** ai
            return out

        expr = self.series(d, a) + argument(d)
        for d1 in product(*(range(v + 1) for v in d)):
            if not any(d1) or d1 == d:
                continue
            for j, coh in argument(tuple(map(sub, d, d1))).terms.items():
                for e, c in coh.coeffs.items():
                    expr = expr + self.series(d1, e).shift(j) * c
        return neg_part(expr)


def _splits(d):
    """All (d1, d2) with d1 + d2 = d, both nonzero, componentwise >= 0."""
    return [(d1, tuple(map(sub, d, d1)))
            for d1 in product(*(range(v + 1) for v in d))
            if any(d1) and d1 != d]


def _accumulate(ring, monos, direct, parts):
    """The entry -neg_part(direct + sum of G_d1(argument) over parts).

    A term e * t^j has the integer key j*B + index(e), B = len(monos), so
    divmod(key, B) gives back (j, index(e)), negative j included, and the
    negative part is the keys below 0.  direct and each argument are integer
    forms (L, [(j*B, index(e), int)]); each part is an argument's form and
    the forms (L, [(key, int)]) of the G_d1(H^e) applied to it, listed by
    index(e).  All terms share one denominator; returns the entry and its
    form, reduced by one gcd.
    """
    pairs = [(den * g[0], jb, n, g[1]) for den, nums, gs in parts
             for jb, e, n in nums if (g := gs[e])[1]]
    den = lcm(direct[0], *{p[0] for p in pairs})
    acc = defaultdict(int, {jb + e: n * (den // direct[0])
                            for jb, e, n in direct[1]})
    for pden, jb, n, gnums in pairs:
        n *= den // pden
        for key, gn in gnums:
            acc[jb + key] += n * gn
    common = gcd(den, *(n for key, n in acc.items() if key < 0))
    nums = [(key, -n // common) for key, n in acc.items() if n and key < 0]
    den //= common
    terms = {}
    for key, n in nums:
        j, e = divmod(key, len(monos))
        terms.setdefault(j, {})[monos[e]] = Fraction(n, den)
    return LaurentClass(ring, {j: CohClass(ring, coeffs)
                               for j, coeffs in terms.items()}), (den, nums)


def _arguments(jfun, d2):
    """F_d2(-t) * prod_i (H_i - d2_i * t)^(a_i) for every basis a.

    Each argument is an integer form (L, [(j*B, index(e), int)]) in the key
    of _accumulate; one L clears the denominators of F_d2 and serves every
    a, since the linear factors have integer coefficients.  The argument for
    a is the one for a - e_i, i its first nonzero slot, times one linear
    factor; the basis lists a - e_i before a.
    """
    monos = jfun.ring_spec.monomials()
    size = len(monos)
    index = {m: k for k, m in enumerate(monos)}
    # raised[i][index(e)] is index(e + e_i), for every basis e whose raise
    # is still a basis exponent
    raised = [{index[e]: index[up] for e in monos
               if (up := e[:i] + (e[i] + 1,) + e[i + 1:]) in index}
              for i in range(len(d2))]
    coeffs = [(j, index[e], c) for j, coh in jfun.coefficient(d2).terms.items()
              for e, c in coh.coeffs.items()]
    den = lcm(*{c.denominator for _, _, c in coeffs})
    # F_d2(-t) for a = 0, the first basis exponent
    args = {monos[0]: {j * size + e: (-1 if j % 2 else 1) * c.numerator
                       * (den // c.denominator) for j, e, c in coeffs}}
    for a in monos[1:]:
        i = next(i for i, e in enumerate(a) if e)
        up = raised[i]
        out = {}
        for key, n in args[a[:i] + (a[i] - 1,) + a[i + 1:]].items():
            if (e := key % size) in up:
                out[key - e + up[e]] = out.get(key - e + up[e], 0) + n
            if d2[i]:
                out[key + size] = out.get(key + size, 0) - d2[i] * n
        args[a] = out
    return {a: (den, [(key - key % size, key % size, n)
                      for key, n in acc.items() if n])
            for a, acc in args.items()}


def reconstruct_two_point(jfun):
    """Build the two-point table from a J-function, degree by degree.

    Each degree's arguments and each entry's integer form are built once
    and kept, outside the table, until the table is complete.
    """
    spec = jfun.ring_spec
    monos = spec.monomials()
    table = TwoPointTable(spec, jfun.trunc, {})
    arguments, forms = {}, {}
    for d in degree_vectors(spec.nvars, jfun.trunc):
        arguments[d] = _arguments(jfun, d)
        splits = [(forms[d1], arguments[d2]) for d1, d2 in _splits(d)]
        forms[d] = []
        for a, direct in arguments[d].items():
            table.table[d, a], form = _accumulate(spec.ring, monos, direct, [
                (*args[a], gs) for gs, args in splits])
            forms[d].append(form)
    return table


class QuantumMatrix:
    """Small quantum multiplication by one divisor generator, column by column.

    entries[col][row] is the q-polynomial {degree tuple: Fraction} multiplying
    H^row in H_div * H^col; the q^0 part is the classical cup product.
    """

    __slots__ = ("ring_spec", "trunc", "divisor_index", "entries")

    def __init__(self, ring_spec, trunc, divisor_index, entries):
        self.ring_spec = ring_spec
        self.trunc = int(trunc)
        self.divisor_index = int(divisor_index)
        self.entries = entries

    def entry(self, row, col):
        return dict(self.entries.get(tuple(col), {}).get(tuple(row), {}))

    def apply(self, vec):
        """Multiply a vector of q-polynomials {row: {deg: Fraction}}."""
        out = {}
        for col, poly in vec.items():
            for row, entry_poly in self.entries.get(col, {}).items():
                out[row] = poly_add(out.get(row, {}),
                                    poly_mul(entry_poly, poly, total=self.trunc))
        return {row: poly for row, poly in out.items() if poly}


def quantum_mult_matrix(table, divisor_index=0):
    """Assemble multiplication by H_div from classical cup and 2-point data.

    Uses the divisor axiom: the 3-point invariant with the divisor insertion
    equals d_div times the 2-point invariant.  Dual classes are taken with
    respect to the ring's integration pairing, so row e at q^d holds
    d_div * invariant(a, top - e, d) / norm = d_div * g_{d,a,0}[e].  Without
    its top monomial a ring integrates to 0: no quantum entries.
    """
    spec = table.ring_spec
    ring = spec.ring
    zero_deg = (0,) * spec.nvars
    degrees = table.degrees() if ring.admits(ring.top_exp) else []
    entries = {}
    for a in spec.monomials():
        column = {}
        shifted = list(a)
        shifted[divisor_index] += 1
        shifted = tuple(shifted)
        if ring.admits(shifted):
            column[shifted] = {zero_deg: Fraction(1)}
        for d in degrees:
            ddiv = d[divisor_index]
            if ddiv == 0:
                continue
            # each (row, degree) pair is met once, so nothing accumulates
            for e, c in table.g(d, a, 0).coeffs.items():
                column.setdefault(e, {})[d] = Fraction(ddiv) * c
        entries[a] = column
    return QuantumMatrix(spec, table.trunc, divisor_index, entries)


class Relation:
    """Monic dependence H_div^(*k) = sum_(j<k) c_j(q) H_div^(*j)."""

    __slots__ = ("ring_spec", "divisor_index", "k", "coeffs")

    def __init__(self, ring_spec, divisor_index, k, coeffs):
        self.ring_spec = ring_spec
        self.divisor_index = int(divisor_index)
        self.k = int(k)
        self.coeffs = {j: dict(p) for j, p in coeffs.items() if p}

    def _h_name(self, power):
        name = self.ring_spec.ring.gens[self.divisor_index]
        if power == 0:
            return ""
        if power == 1:
            return name
        return "%s^%d" % (name, power)

    def _q_name(self, deg):
        nvars = self.ring_spec.nvars
        pieces = []
        for i, e in enumerate(deg):
            if e == 0:
                continue
            base = "q" if nvars == 1 else "q%d" % (i + 1)
            pieces.append(base if e == 1 else "%s^%d" % (base, e))
        return "*".join(pieces)

    def __str__(self):
        parts = [self._h_name(self.k) or "1"]
        for j in sorted(self.coeffs, reverse=True):
            poly = self.coeffs[j]
            for deg in sorted(poly, reverse=True):
                c = poly[deg]
                sign = " - " if c > 0 else " + "
                mag = abs(c)
                pieces = []
                if mag != 1:
                    pieces.append(fmt_fraction(mag))
                qn = self._q_name(deg)
                if qn:
                    pieces.append(qn)
                hn = self._h_name(j)
                if hn:
                    pieces.append(hn)
                if not pieces:
                    pieces.append("1")
                parts.append(sign + "*".join(pieces))
        return "".join(parts)

    def __repr__(self):
        return "Relation(%s)" % self

    def __eq__(self, other):
        if not isinstance(other, Relation):
            return NotImplemented
        return (self.ring_spec == other.ring_spec
                and self.divisor_index == other.divisor_index
                and self.k == other.k and self.coeffs == other.coeffs)

    def to_json(self):
        coeffs = {}
        for j in sorted(self.coeffs):
            poly = self.coeffs[j]
            coeffs[str(j)] = {fmt_tuple(deg): fmt_fraction(poly[deg])
                              for deg in sorted(poly)}
        return {"power": self.k, "coefficients": coeffs, "text": str(self)}


def qh_relation(matrix):
    """First linear dependence among iterated quantum powers of the divisor.

    Computes v_j = H_div^(*j) applied to 1 and, for each k up to dim + 1,
    solves v_k = sum_(j<k) c_j(q) v_j one q-degree at a time against the
    classical parts of the earlier powers (full rank below the classical
    vanishing order).  Polynomial coefficients come out of the solve; failure
    through dim + 1 raises NoRelationFound.  So does a relation of degree k
    whose coefficients could reach past the truncation: q_i has degree
    c1_degrees[i] >= r, so the coefficient of H^j carries q-degree at most
    (k - j) / r, and the relation is complete only when k // r <= trunc.
    """
    spec = matrix.ring_spec
    nvars = spec.nvars
    dim = spec.dim
    trunc = matrix.trunc
    zero_deg = (0,) * nvars
    unit_exp = (0,) * len(spec.ring.gens)
    powers = [{unit_exp: {zero_deg: Fraction(1)}}]
    for _ in range(dim + 1):
        powers.append(matrix.apply(powers[-1]))
    deg_slices = [zero_deg] + degree_vectors(nvars, trunc)
    for k in range(1, dim + 2):
        try:
            coeffs = _solve_dependence(powers, k, deg_slices, nvars)
        except (Inconsistent, RankDeficient):
            continue
        r = min(spec.c1_degrees)
        if r > 0 and k // r > trunc:
            raise NoRelationFound(
                "the degree-%d relation can carry q-degree up to %d, past the "
                "truncation at %d; it needs --max-degree %d"
                % (k, k // r, trunc, k // r))
        return Relation(spec, matrix.divisor_index, k, coeffs)
    raise NoRelationFound("no dependence among the first %d quantum powers"
                          % (dim + 2))


def _solve_dependence(powers, k, deg_slices, nvars):
    """Solve v_k = sum_(j<k) c_j(q) v_j for polynomial c_j, degree by degree."""
    zero = (0,) * nvars
    coeffs = {j: {} for j in range(k)}
    for deg in deg_slices:
        # rhs = degree slice of v_k minus contributions of already-solved orders
        rhs = {row: poly[deg] for row, poly in powers[k].items()
               if deg in poly}
        for j in range(k):
            # every already-solved order contributes a known cross-term
            for deg1, c1 in coeffs[j].items():
                rem = tuple(x - y for x, y in zip(deg, deg1))
                if any(v < 0 for v in rem):
                    continue
                rhs = poly_add(rhs, {row: -c1 * poly[rem]
                                     for row, poly in powers[j].items()
                                     if rem in poly})
        solver = ExactSolver()
        rows = set(rhs)
        for j in range(k):
            rows.update(row for row, poly in powers[j].items() if zero in poly)
        for row in sorted(rows):
            solver.add_equation({j: c for j in range(k)
                                 if (c := powers[j].get(row, {}).get(zero))},
                                rhs.get(row, 0))
        sol = solver.solution(list(range(k)))
        for j in range(k):
            if sol[j]:
                coeffs[j][deg] = sol[j]
    return coeffs
