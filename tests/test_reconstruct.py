"""Two-point reconstruction, quantum matrices and ring relations.

Quintic invariants are pinned against the multiple-cover sums
<H,H>_d = d^2 * sum_(k|d) n_(d/k) k^-3 with the instanton numbers n_d of
Candelas, de la Ossa, Green and Parkes (1991).  Degree-one invariants of
hypersurfaces are pinned against Schubert integrals over G(2, n+1) and the
line counts of Ellingsrud and Stromme (1996).
"""

import json
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resloc import reconstruct
from resloc.errors import NoRelationFound
from resloc.geometry import RingSpec, integrate
from resloc.jfun import (JFunction, i_function, j_product, j_projective,
                         mirror_normalize, pull_to_hypersurface)
from resloc.laurent import LaurentClass
from resloc.reconstruct import (QuantumMatrix, Relation, TwoPointTable,
                                qh_relation, quantum_mult_matrix,
                                reconstruct_two_point)
from resloc.ring import Ring
from resloc.schubert import grassmann_integral_residue
from resloc.sympoly import SymPoly, sym_power_top_chern

SNAPSHOT = Path(__file__).parent / "snapshots" / "quintic_two_point.json"

# rational curves of degree d on the quintic threefold, d = 1..5
QUINTIC_N = (2875, 609250, 317206375, 242467530000, 229305888887625)


def hypersurface_jfun(n, l, trunc):
    md = mirror_normalize(i_function(n, l, trunc))
    return pull_to_hypersurface(md.pushed, l)


def hypersurface_table(n, l, trunc):
    return reconstruct_two_point(hypersurface_jfun(n, l, trunc))


def quintic_table(trunc):
    return hypersurface_table(4, 5, trunc)


def p1xp1_table(trunc):
    j = j_projective(1, trunc)
    return reconstruct_two_point(j_product(j, j))


def p1xp2_jfun(trunc):
    # generator truncations differ (H1^2 = 0, H2^3 = 0), so the basis
    # exponents reach 2 in the second slot only
    return j_product(j_projective(1, trunc), j_projective(2, trunc))


def test_p1_degree_one_series():
    table = reconstruct_two_point(j_projective(1, 2))
    ring = table.ring_spec.ring
    assert table.g(1, (1,), 0) == ring.one()
    assert table.g(1, (1,), 1) == ring.generator("H")
    assert table.k_support(1, (1,)) == [0, 1]
    assert table.k_support(1, (0,)) == [1, 2]


def test_p1_degree_two_support():
    # the naive bound k <= dim + 1 fails here; the true window is the
    # homogeneity constraint checked in test_degree_window below
    table = reconstruct_two_point(j_projective(1, 2))
    assert table.k_support(2, (1,)) == [2, 3]
    assert table.k_support(2, (0,)) == [3, 4]
    assert table.g(2, (1,), 3).coeff((1,)) == Fraction(1, 4)
    assert table.g(2, (1,), 4).is_zero()


def test_degree_window():
    # nonzero g_{d,a,k} is homogeneous of degree |a| + k + 1 - c1.d in [0, dim]
    cases = [
        (reconstruct_two_point(j_projective(1, 3)),),
        (reconstruct_two_point(j_projective(2, 2)),),
        (quintic_table(2),),
        (p1xp1_table(2),),
    ]
    for (table,) in cases:
        spec = table.ring_spec
        for d in table.degrees():
            chern = spec.chern_degree(d)
            for a in spec.monomials():
                for k in table.k_support(d, a):
                    g = table.g(d, a, k)
                    deg = g.homogeneous_degree()
                    assert deg is not None
                    assert deg == sum(a) + k + 1 - chern
                    assert 0 <= deg <= spec.dim


def test_invariant_symmetry():
    for table in [reconstruct_two_point(j_projective(3, 2)), p1xp1_table(2),
                  reconstruct_two_point(p1xp2_jfun(4))]:
        spec = table.ring_spec
        for d in table.degrees():
            for a in spec.monomials():
                for b in spec.monomials():
                    assert table.invariant(a, b, d) == table.invariant(b, a, d)


def test_invariant_reads_top_coefficient():
    # the one-coefficient read, by the single invariant and by the row of
    # one g_{d,a,0}, equals integrating H^b * g_{d,a,0}; the row also takes
    # an exponent one past the top, which is no basis exponent
    for table in [reconstruct_two_point(j_projective(2, 2)), p1xp1_table(2),
                  reconstruct_two_point(p1xp2_jfun(4)), quintic_table(3)]:
        spec = table.ring_spec
        ring = spec.ring
        bs = spec.monomials() + [tuple(e + 1 for e in ring.top_exp)]
        for d in table.degrees():
            for a in spec.monomials():
                expected = [integrate(ring.monomial(b) * table.g(d, a, 0))
                            for b in bs]
                assert table.invariant_row(d, a, bs) == expected, (d, a)
                for b, v in zip(spec.monomials(), expected):
                    assert table.invariant(a, b, d) == v, (d, a, b)


def test_invariant_total_bound_drops_top():
    # with H1*H2 cut by the total-degree bound, H^b * g has no top monomial
    ring = Ring(("H1", "H2"), (2, 2), total=1)
    p1 = RingSpec.projective(1)
    spec = RingSpec("product", components=(p1, p1), ring=ring)
    g = LaurentClass.from_coh(ring.generator("H1") + ring.generator("H2"), -1)
    table = TwoPointTable(spec, 1, {((1, 0), (0, 0)): g})
    assert table.g((1, 0), (0, 0), 0).coeff((0, 1)) == 1
    bs = [(0, 0), (1, 0), (0, 1)]
    for b in bs:
        assert table.invariant((0, 0), b, (1, 0)) == 0
    assert table.invariant_row((1, 0), (0, 0), bs) == [
        integrate(ring.monomial(b) * g.coefficient(-1)) for b in bs] == [0] * 3


def test_invariant_dimension_window():
    # <H^a, H^b>_d vanishes unless |a| + |b| = dim + c1.d - 1
    table = reconstruct_two_point(j_projective(2, 1))
    spec = table.ring_spec
    for a in spec.monomials():
        for b in spec.monomials():
            v = table.invariant(a, b, (1,))
            if sum(a) + sum(b) != spec.dim + spec.chern_degree((1,)) - 1:
                assert v == 0


def test_p2_point_pair():
    # one line passes through two generic points
    table = reconstruct_two_point(j_projective(2, 2))
    assert table.invariant((2,), (2,), (1,)) == 1
    assert table.invariant((1,), (2,), (1,)) == 0


def test_quintic_invariants():
    table = quintic_table(5)
    for d in range(1, 6):
        expected = d * d * sum(Fraction(QUINTIC_N[d // k - 1], k ** 3)
                               for k in range(1, d + 1) if d % k == 0)
        assert table.invariant((1,), (1,), (d,)) == expected, d


def test_quintic_snapshot_matches_literature():
    # the stored criterion-6 values are <H,H>_d for d = 2, 3
    data = json.loads(SNAPSHOT.read_text())
    assert data["target"] == {"kind": "hypersurface", "l": 5, "n": 4}
    for d in (2, 3):
        expected = d * d * sum(Fraction(QUINTIC_N[d // k - 1], k ** 3)
                               for k in range(1, d + 1) if d % k == 0)
        assert Fraction(data["values"][str(d)]) == expected, d


# lines on hypersurfaces: <H^a, H^b>_1 for the cubic surface, cubic
# threefold, quartic threefold and quintic threefold
LINE_COUNTS = {(3, 3): {(1, 1): 27},
               (4, 3): {(1, 3): 18, (2, 2): 45, (3, 1): 18},
               (4, 4): {(1, 2): 320, (2, 1): 320},
               (4, 5): {(1, 1): 2875}}


@pytest.mark.parametrize("n,l", [(3, 3), (4, 3), (4, 4), (4, 5), (5, 4),
                                 (5, 5)])
def test_line_counts_match_schubert(n, l):
    # <H^a, H^b>_1 counts lines in the hypersurface meeting two general
    # linear sections; such lines are the zeros of c_top(Sym^l S*) on
    # G(2, n+1), and meeting H^a imposes the Schubert class sigma_(a-1)
    table = hypersurface_table(n, l, 2)
    spec = table.ring_spec
    found = {}
    for a in spec.monomials():
        for b in spec.monomials():
            v = table.invariant(a, b, (1,))
            if v:
                found[a[0], b[0]] = v
    assert found
    for (a, b), v in found.items():
        assert a >= 1 and b >= 1
        tau = (sym_power_top_chern(l) * SymPoly.from_schur(2, (a - 1,))
               * SymPoly.from_schur(2, (b - 1,)))
        assert v == grassmann_integral_residue(n + 1, tau), (a, b)
    if (n, l) in LINE_COUNTS:
        assert found == LINE_COUNTS[n, l]


def test_quintic_relation():
    # c1 = 0 keeps every q-coefficient out of the dependence: H^(*4) = 0
    rel = qh_relation(quantum_mult_matrix(quintic_table(2)))
    assert rel.k == 4
    assert rel.coeffs == {}
    assert str(rel) == "H^4"


def test_projective_relations():
    for n in [1, 2, 3, 4]:
        table = reconstruct_two_point(j_projective(n, 2))
        rel = qh_relation(quantum_mult_matrix(table))
        assert str(rel) == "H^%d - q" % (n + 1)
        assert rel.k == n + 1
        assert rel.coeffs == {0: {(1,): Fraction(1)}}


def test_p1xp1_relations():
    table = p1xp1_table(2)
    assert str(qh_relation(quantum_mult_matrix(table, 0))) == "H1^2 - q1"
    assert str(qh_relation(quantum_mult_matrix(table, 1))) == "H2^2 - q2"


def test_p1xp2_relations():
    table = reconstruct_two_point(p1xp2_jfun(4))
    assert max(a[1] for a in table.ring_spec.monomials()) == 2
    assert str(qh_relation(quantum_mult_matrix(table, 0))) == "H1^2 - q1"
    assert str(qh_relation(quantum_mult_matrix(table, 1))) == "H2^3 - q2"


def test_quantum_matrix_classical_part():
    table = reconstruct_two_point(j_projective(2, 2))
    m = quantum_mult_matrix(table)
    spec = table.ring_spec
    for col in spec.monomials():
        shifted = (col[0] + 1,)
        for row in spec.monomials():
            expected = 1 if (row == shifted and spec.ring.admits(shifted)) else 0
            assert m.entry(row, col).get((0,), 0) == expected


def expected_quantum_matrix(table, divisor_index):
    """Classical cup plus d_div * invariant(a, b, d) / norm in row top - b."""
    spec = table.ring_spec
    ring = spec.ring
    monos = spec.monomials()
    entries = {}
    for a in monos:
        column = entries[a] = {}
        up = tuple(e + (i == divisor_index) for i, e in enumerate(a))
        if ring.admits(up):
            column[up] = {(0,) * spec.nvars: Fraction(1)}
        for d, b in product(table.degrees(), monos):
            val = d[divisor_index] * table.invariant(a, b, d) / ring.norm
            if val:
                row = tuple(t - e for t, e in zip(ring.top_exp, b))
                column.setdefault(row, {})[d] = val
    return entries


@pytest.mark.parametrize("table", [
    lambda: reconstruct_two_point(j_projective(2, 3)),
    lambda: reconstruct_two_point(j_projective(3, 3)),
    lambda: p1xp1_table(3),
    lambda: reconstruct_two_point(p1xp2_jfun(3)),
    lambda: quintic_table(2),
], ids=["P2", "P3", "P1xP1", "P1xP2", "quintic"])
def test_quantum_matrix_entries_are_invariants(table):
    table = table()
    for i in range(len(table.ring_spec.ring.gens)):
        entries = quantum_mult_matrix(table, i).entries
        assert entries == expected_quantum_matrix(table, i)
        assert any(d != (0,) * table.ring_spec.nvars
                   for column in entries.values()
                   for poly in column.values() for d in poly)


def test_quantum_matrix_total_bound_drops_top():
    # the ring of test_invariant_total_bound_drops_top: g_{(1,0),1,0} is
    # nonzero, but every invariant is 0, so only the classical cup remains
    ring = Ring(("H1", "H2"), (2, 2), total=1)
    p1 = RingSpec.projective(1)
    spec = RingSpec("product", components=(p1, p1), ring=ring)
    g = LaurentClass.from_coh(ring.generator("H1") + ring.generator("H2"), -1)
    table = TwoPointTable(spec, 1, {((1, 0), (0, 0)): g})
    for i in range(2):
        entries = quantum_mult_matrix(table, i).entries
        assert entries == expected_quantum_matrix(table, i)
    assert quantum_mult_matrix(table, 0).entries == {
        (0, 0): {(1, 0): {(0, 0): 1}}, (1, 0): {}, (0, 1): {}}


def test_quantum_matrix_p1xp1_cross():
    m = quantum_mult_matrix(p1xp1_table(2), 1)
    # H2 * H1 is purely classical: both point constraints pin the ruling
    # line, so the degree-(0,1) correction vanishes
    assert m.entry((1, 1), (1, 0)).get((0, 0)) == 1
    assert m.entry((1, 1), (1, 0)) == {(0, 0): Fraction(1)}
    assert m.entry((0, 0), (1, 0)) == {}
    # H2 * H2 = q2
    assert m.entry((0, 0), (0, 1)) == {(0, 1): Fraction(1)}


def test_quantum_matrix_apply():
    table = reconstruct_two_point(j_projective(1, 2))
    m = quantum_mult_matrix(table)
    unit = {(0,): {(0,): Fraction(1)}}
    v1 = m.apply(unit)
    assert v1 == {(1,): {(0,): Fraction(1)}}
    v2 = m.apply(v1)
    # H * H = q against the truncated square
    assert v2 == {(0,): {(1,): Fraction(1)}}


def test_relation_formatting():
    spec = RingSpec.projective(1)
    rel = Relation(spec, 0, 2, {0: {(1,): Fraction(1)}})
    assert str(rel) == "H^2 - q"
    rel2 = Relation(spec, 0, 2, {1: {(1,): Fraction(-3, 2)}, 0: {(0,): Fraction(2)}})
    assert str(rel2) == "H^2 + 3/2*q*H - 2"
    spec2 = RingSpec.product([RingSpec.projective(1), RingSpec.projective(1)])
    rel3 = Relation(spec2, 1, 2, {0: {(0, 2): Fraction(1)}})
    assert str(rel3) == "H2^2 - q2^2"
    data = rel.to_json()
    assert data == {"power": 2, "coefficients": {"0": {"1": "1"}},
                    "text": "H^2 - q"}
    assert Relation(spec, 0, 2, {0: {(1,): Fraction(1)}}) == rel
    assert rel != rel2


def test_no_relation_found():
    # a matrix whose powers never return to the classical span: H*1 = q H,
    # H*H = q 1 has no monic polynomial dependence with q-polynomial
    # coefficients against the defective classical columns
    spec = RingSpec.projective(1)
    entries = {
        (0,): {(1,): {(1,): Fraction(1)}},
        (1,): {(0,): {(1,): Fraction(1)}},
    }
    m = QuantumMatrix(spec, 2, 0, entries)
    with pytest.raises(NoRelationFound):
        qh_relation(m)


# denominators for the hostile-coefficient strategies: small primes and
# primes just below 10^6, so unrelated terms share no factor
PRIMES = [p for p in list(range(2, 60)) + list(range(999_000, 1_000_000))
          if all(p % q for q in range(2, int(p ** 0.5) + 1))]
HOSTILE_SPECS = {"P2": RingSpec.projective(2),
                 "P1xP1": RingSpec.product([RingSpec.projective(1)] * 2),
                 "P1xP2": RingSpec.product([RingSpec.projective(1),
                                            RingSpec.projective(2)])}


def synthetic_jfunction(name, trunc, terms):
    """F_0 = 1 and F_d = sum of c * t^j * H^e over terms[(d, j, e)] = c."""
    spec = HOSTILE_SPECS[name]
    ring = spec.ring
    coeffs = {(0,) * spec.nvars: LaurentClass.one(ring)}
    for (d, j, e), c in terms.items():
        coeffs[d] = (coeffs.get(d, LaurentClass.zero(ring))
                     + LaurentClass.from_coh(ring.monomial(e, c), j))
    return JFunction(spec, trunc, coeffs)


@st.composite
def hostile_jfunctions(draw):
    # random Laurent coefficients with t-exponents <= -2, each over its own
    # prime denominator
    name = draw(st.sampled_from(sorted(HOSTILE_SPECS)))
    spec = HOSTILE_SPECS[name]
    trunc = draw(st.integers(1, 3))
    slots = [(d, j, e)
             for d in product(range(trunc + 1), repeat=spec.nvars)
             if 0 < sum(d) <= trunc
             for j in range(-5, -1) for e in spec.monomials()]
    chosen = draw(st.lists(st.sampled_from(slots), unique=True, max_size=10))
    size = len(chosen)
    primes = draw(st.lists(st.sampled_from(PRIMES), unique=True,
                           min_size=size, max_size=size))
    nums = draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                         min_size=size, max_size=size))
    return synthetic_jfunction(
        name, trunc, {slot: Fraction(n, p)
                      for slot, n, p in zip(chosen, nums, primes)})


@pytest.mark.parametrize("case", ["P1", "P2", "P10", "P1xP1", "P1xP1xP1",
                                  "P1xP2", "quintic"])
def test_recursion_recomputed_in_laurent_arithmetic(case):
    # re-evaluating the defining expression must leave no negative t-powers;
    # P10 keys terms over an 11-element basis, P1xP1xP1 over three generators
    jfun = {"P1": lambda: j_projective(1, 3),
            "P2": lambda: j_projective(2, 2),
            "P10": lambda: j_projective(10, 2),
            "P1xP1": lambda: j_product(j_projective(1, 3), j_projective(1, 3)),
            "P1xP1xP1": lambda: j_product(j_product(j_projective(1, 3),
                                                    j_projective(1, 3)),
                                          j_projective(1, 3)),
            "P1xP2": lambda: p1xp2_jfun(4),
            "quintic": lambda: hypersurface_jfun(4, 5, 2)}[case]()
    table = reconstruct_two_point(jfun)
    for d in table.degrees():
        for a in table.ring_spec.monomials():
            assert table.residual(jfun, d, a).is_zero(), (d, a)


def test_residual_sees_a_wrong_entry():
    # one perturbed entry shows in its own residual and in the residual of
    # a larger degree that reads it through a split
    jfun = p1xp2_jfun(3)
    table = reconstruct_two_point(jfun)
    spec = table.ring_spec
    ring = spec.ring
    entries = dict(table.table)
    key = ((1, 0), (0, 0))
    entries[key] = entries[key] + LaurentClass.from_coh(
        ring.monomial((0, 1), Fraction(1, 7)), -2)
    bad = TwoPointTable(spec, table.trunc, entries)
    assert not bad.residual(jfun, *key).is_zero()
    assert not bad.residual(jfun, (1, 1), (0, 0)).is_zero()
    assert table.residual(jfun, (1, 1), (0, 0)).is_zero()


def test_exponent_arity_is_checked():
    # on P1xP1 a one-slot exponent is an error, not a zero series
    jfun = j_product(j_projective(1, 2), j_projective(1, 2))
    table = reconstruct_two_point(jfun)
    with pytest.raises(ValueError, match="exponent arity 1"):
        table.series((1, 0), (1,))
    with pytest.raises(ValueError, match="exponent arity 1"):
        table.invariant((1,), (1, 1), (1, 0))
    with pytest.raises(ValueError, match="exponent arity 3"):
        table.invariant((1, 1), (1, 0, 0), (1, 0))
    with pytest.raises(ValueError, match="exponent arity 1"):
        table.residual(jfun, (1, 0), (1,))
    with pytest.raises(ValueError, match="degree arity 1"):
        table.series((1,), (1, 0))


def test_arguments_built_once_per_degree(monkeypatch):
    built = Counter()
    original = reconstruct._arguments

    def counting(jfun, d2):
        built[d2] += 1
        return original(jfun, d2)

    monkeypatch.setattr(reconstruct, "_arguments", counting)
    for jfun in [j_product(j_projective(1, 4), j_projective(1, 4)),
                 hypersurface_jfun(4, 5, 3)]:
        built.clear()
        table = reconstruct_two_point(jfun)
        assert built == Counter(table.degrees())


@settings(max_examples=60, deadline=None)
@given(hostile_jfunctions())
# every coefficient zero
@example(synthetic_jfunction("P2", 2, {((1,), -2, (0,)): Fraction(0),
                                       ((2,), -3, (1,)): Fraction(0)}))
# c * t^-3 * H_i - c * t^-2 in a degree d with d_i = 1 makes the t^-2 * H_i
# terms of the argument for H_i cancel
@example(synthetic_jfunction("P2", 2, {((1,), -3, (1,)): Fraction(1, 999_983),
                                       ((1,), -2, (0,)): Fraction(-1, 999_983),
                                       ((2,), -4, (0,)): Fraction(1, 3)}))
# the same on both factors of P1xP2
@example(synthetic_jfunction("P1xP2", 3,
                             {((1, 0), -3, (1, 0)): Fraction(2, 999_979),
                              ((1, 0), -2, (0, 0)): Fraction(-2, 999_979),
                              ((0, 1), -3, (0, 1)): Fraction(1, 999_961),
                              ((0, 1), -2, (0, 0)): Fraction(-1, 999_961),
                              ((1, 1), -2, (1, 2)): Fraction(1, 2)}))
def test_reconstruction_exact_with_hostile_denominators(jfun):
    table = reconstruct_two_point(jfun)
    for d in table.degrees():
        for a in table.ring_spec.monomials():
            assert table.residual(jfun, d, a).is_zero(), (d, a)
    assert all(type(c) is Fraction for series in table.table.values()
               for coh in series.terms.values() for c in coh.coeffs.values())


def test_reconstruction_keeps_no_state_beyond_the_table():
    table = reconstruct_two_point(p1xp2_jfun(3))
    spec = table.ring_spec
    assert type(table) is TwoPointTable
    assert TwoPointTable.__slots__ == ("ring_spec", "trunc", "table")
    assert not hasattr(table, "__dict__")
    assert set(table.table) == {(d, a) for d in table.degrees()
                                for a in spec.monomials()}
    assert all(type(s) is LaurentClass for s in table.table.values())
