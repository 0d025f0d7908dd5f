import itertools
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resloc import linalg
from resloc.errors import Inconsistent, RankDeficient
from resloc.linalg import (MODULUS, ExactSolver, modular_candidate,
                           solve_integer_rows)
from resloc.ring import CohClass, Ring


def solve(rows, unknowns):
    solver = ExactSolver()
    for row, rhs in rows:
        solver.add_equation(row, rhs)
    return solver.solution(unknowns)


def test_small_system():
    sol = solve(
        [({"x": Fraction(2), "y": Fraction(1)}, Fraction(5)),
         ({"x": Fraction(1), "y": Fraction(-1)}, Fraction(1))],
        ["x", "y"])
    assert sol == {"x": Fraction(2), "y": Fraction(1)}


def test_integer_rows_solve_exactly():
    # 2x + y = 1, 3y = 2: x = 1/6, y = 2/3, with no rounding
    sol = solve([({0: 2, 1: 1}, 1), ({1: 3}, 2)], [0, 1])
    assert sol == {0: Fraction(1, 6), 1: Fraction(2, 3)}
    assert all(type(v) is Fraction for v in sol.values())


def test_redundant_rows_ok():
    solver = ExactSolver()
    solver.add_equation({"x": Fraction(1)}, Fraction(3))
    solver.add_equation({"x": Fraction(2)}, Fraction(6))
    assert solver.solution(["x"]) == {"x": Fraction(3)}


def test_inconsistent():
    solver = ExactSolver()
    solver.add_equation({"x": Fraction(1)}, Fraction(3))
    with pytest.raises(Inconsistent):
        solver.add_equation({"x": Fraction(1)}, Fraction(4))


def test_rank_deficient_missing_pivot():
    solver = ExactSolver()
    solver.add_equation({"x": Fraction(1)}, Fraction(3))
    with pytest.raises(RankDeficient) as exc:
        solver.solution(["x", "y"])
    assert "y" in exc.value.free_unknowns


def test_rank_deficient_free_variable():
    solver = ExactSolver()
    solver.add_equation({"x": Fraction(1), "y": Fraction(1)}, Fraction(3))
    with pytest.raises(RankDeficient) as exc:
        solver.solution(["x"])
    assert exc.value.free_unknowns


def test_partial_solution_allowed():
    solver = ExactSolver()
    solver.add_equation({"x": Fraction(1), "y": Fraction(1)}, Fraction(3))
    solver.add_equation({"y": Fraction(1)}, Fraction(1))
    assert solver.solution(["x"]) == {"x": Fraction(2)}


def test_exactness_no_drift():
    # a system whose float solution would show rounding: exact answer required
    sol = solve(
        [({0: Fraction(1, 3), 1: Fraction(1, 7)}, Fraction(1)),
         ({0: Fraction(1, 11), 1: Fraction(1, 13)}, Fraction(1))],
        [0, 1])
    a, b = sol[0], sol[1]
    assert a * Fraction(1, 3) + b * Fraction(1, 7) == 1
    assert a * Fraction(1, 11) + b * Fraction(1, 13) == 1


def test_randomized_round_trip():
    rng = random.Random(20240811)
    for _ in range(60):
        n = rng.randint(1, 5)
        target = {i: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for i in range(n)}
        rows = []
        for _ in range(n + 2):
            row = {i: Fraction(rng.randint(-6, 6)) for i in range(n)}
            rhs = sum(row[i] * target[i] for i in range(n))
            rows.append((row, rhs))
        # ensure solvability by adding unit rows when rank happens to be short
        for i in range(n):
            unit = {i: Fraction(1)}
            rows.append((unit, target[i]))
        assert solve(rows, list(range(n))) == target


def test_deterministic_pivot_order():
    rows = [({"b": Fraction(1), "a": Fraction(1)}, Fraction(2)),
            ({"a": Fraction(1)}, Fraction(1))]
    s1 = solve(list(rows), ["a", "b"])
    s2 = solve(list(rows), ["a", "b"])
    assert s1 == s2 == {"a": Fraction(1), "b": Fraction(1)}


H4 = Ring(("h",), (4,))
small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=5)
h4_classes = st.lists(small_fractions, min_size=4, max_size=4).map(
    lambda cs: CohClass(H4, {(b,): c for b, c in enumerate(cs) if c}))


@st.composite
def invertible_systems(draw):
    """Rows of L*U (unit lower L, upper U with nonzero diagonal), CohClass rhs."""
    n = draw(st.integers(1, 4))
    ints = st.integers(-4, 4)
    lower = [[1 if i == j else draw(ints) if j < i else 0 for j in range(n)]
             for i in range(n)]
    upper = [[draw(ints.filter(bool)) if i == j else draw(ints) if j > i else 0
              for j in range(n)] for i in range(n)]
    rows = [{j: Fraction(sum(lower[i][k] * upper[k][j] for k in range(n)))
             for j in range(n)} for i in range(n)]
    return rows, [draw(h4_classes) for _ in range(n)]


@settings(max_examples=40, deadline=None)
@given(invertible_systems())
def test_vector_rhs_matches_scalar_solves(system):
    rows, rhs = system
    n = len(rows)
    got = solve(list(zip(rows, rhs)), range(n))
    for b in range(4):
        scalar = solve([(row, r.coeff((b,))) for row, r in zip(rows, rhs)],
                       range(n))
        assert all(got[v].coeff((b,)) == scalar[v] for v in range(n))
    # the solution satisfies every row as an identity in Q[h]/(h^4)
    for row, r in zip(rows, rhs):
        assert sum((got[v] * c for v, c in row.items()), H4.zero()) == r


@settings(max_examples=40, deadline=None)
@given(invertible_systems(), st.data())
def test_vector_rhs_redundant_row_off_in_one_coefficient(system, data):
    rows, rhs = system
    n = len(rows)
    weights = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    combo = {v: sum(w * row[v] for w, row in zip(weights, rows))
             for v in range(n)}
    combo_rhs = sum((r * w for w, r in zip(weights, rhs)), H4.zero())
    solver = ExactSolver()
    for row, r in zip(rows, rhs):
        solver.add_equation(row, r)
    solver.add_equation(combo, combo_rhs)  # redundant and consistent
    b = data.draw(st.integers(0, 3))
    off = data.draw(small_fractions.filter(bool))
    with pytest.raises(Inconsistent):
        solver.add_equation(combo, combo_rhs + H4.monomial((b,), off))


def cramer(matrix, rhs):
    """x_j = det(A_j) / det(A), determinants by the Leibniz expansion."""
    n = len(matrix)

    def det(a):
        total = Fraction(0)
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[i] > perm[j]
                             for i, j in itertools.combinations(range(n), 2))
            term = Fraction((-1) ** inversions)
            for i, j in enumerate(perm):
                term *= a[i][j]
            total += term
        return total

    d = det(matrix)
    return d, [det([row[:j] + [b] + row[j + 1:]
                    for row, b in zip(matrix, rhs)]) / d if d else None
               for j in range(n)]


huge_fractions = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                           st.integers(1, 10 ** 30))


def assert_primitive_pivot_rows(solver):
    for p, row, _ in solver.pivots.values():
        entries = [p, *row.values()]
        assert all(type(x) is int for x in entries)
        assert gcd(*entries) == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rational_system_matches_cramer(data):
    n = data.draw(st.integers(1, 4))
    matrix = [[data.draw(huge_fractions) for _ in range(n)] for _ in range(n)]
    rhs = [data.draw(huge_fractions) for _ in range(n)]
    d, expected = cramer(matrix, rhs)
    assume(d != 0)
    rows = [({j: x for j, x in enumerate(r) if x}, b)
            for r, b in zip(matrix, rhs)]
    # redundant integer combinations of the rows, interleaved
    combos = []
    for _ in range(data.draw(st.integers(1, 3))):
        weights = data.draw(st.lists(st.integers(-3, 3), min_size=n,
                                     max_size=n))
        combos.append(({j: sum(w * r[j] for w, r in zip(weights, matrix))
                        for j in range(n)},
                       sum(w * b for w, b in zip(weights, rhs))))
    solver = ExactSolver()
    for row, b in rows + combos:
        solver.add_equation(row, b)
        assert_primitive_pivot_rows(solver)
    assert solver.solution(range(n)) == dict(enumerate(expected))
    row, b = combos[0]
    with pytest.raises(Inconsistent):
        solver.add_equation(row, b + 1)


@pytest.mark.parametrize("kind", [int, Fraction])
def test_redundant_row_off_by_k_names_the_residual(kind):
    # integer rows with an integral solution leave every unknown determined,
    # so an int right side is reduced by substitution and a Fraction one by
    # elimination; both name the residual k in the scale of the input row
    rng = random.Random(20261020)
    for _ in range(40):
        n = rng.randint(1, 5)
        x = [rng.randint(-50, 50) for _ in range(n)]
        rows = [{j: rng.randint(-9, 9) for j in range(n)}
                for _ in range(n + 2)]
        rows += [{j: 1} for j in range(n)]
        solver = ExactSolver()
        for row in rows:
            solver.add_equation(row, kind(sum(c * x[j]
                                              for j, c in row.items())))
        assert all(not prow and type(prhs) is kind
                   for _, prow, prhs in solver.pivots.values())
        combo = {j: 3 * rows[0].get(j, 0) - rows[1].get(j, 0)
                 for j in range(n)}
        k = rng.choice([-7, -1, 1, 4])
        rhs = sum(c * x[j] for j, c in combo.items()) + k
        with pytest.raises(Inconsistent) as exc:
            solver.add_equation(combo, kind(rhs))
        assert str(exc.value) == "equation reduced to 0 = %d" % k


def test_modular_candidate_rebuilds_the_solution():
    # x = 2, y = -5, z = 7; the first row is the sum of the next two, so
    # one later row is dependent modulo the prime too and is skipped
    rows = [({"x": 3, "y": 3, "z": 1}, -2), ({"x": 3, "y": 1}, 1),
            ({"y": 2, "z": 1}, -3), ({"x": 3, "z": 1}, 13)]
    got = modular_candidate(rows, ["x", "y", "z"])
    assert got == {"x": 2, "y": -5, "z": 7}
    assert all(type(x) is int for x in got.values())
    # too few independent rows
    assert modular_candidate(rows[:3], ["x", "y", "z"]) is None
    assert modular_candidate([({"x": 1}, 0), ({"x": 2}, 0)], ["x", "y"]) is None


def test_modular_candidate_reconstruction_bound():
    # the symmetric lift returns every integer up to MODULUS // 2 exactly
    half = MODULUS // 2
    for value in (half, -half, 0, -1):
        assert modular_candidate([({"x": 1}, value)], ["x"]) == {"x": value}
    # beyond it, or off the integers, the candidate is never the value, and
    # solve_integer_rows still returns the value by exact elimination
    for value in (half + 1, -(half + 1), Fraction(-12345, 6789)):
        row = {"x": value.denominator}
        got = modular_candidate([(row, value.numerator)], ["x"])
        assert got["x"] != value
        assert solve_integer_rows([(row, value.numerator)], ["x"]) == {
            "x": value}


def test_solve_integer_rows_certifies_large_values():
    # 3e9 is above isqrt(MODULUS), where rational reconstruction stops, and
    # the symmetric lift returns it exactly; z = 2/3 is no integer, so the
    # candidate fails the exact check and the rows are eliminated exactly
    big = 3 * 10 ** 9
    assert big > isqrt(MODULUS)
    rows = [({"x": 1, "y": 1}, big + 2), ({"x": 1, "y": -1}, big - 2),
            ({"z": 3}, 2), ({"x": 2, "y": 2, "z": 3}, 2 * big + 6)]
    assert solve_integer_rows(rows, ["x", "y", "z"]) == {
        "x": Fraction(big), "y": Fraction(2), "z": Fraction(2, 3)}


def test_solve_integer_rows_rank_deficient_matches_solver():
    rows = [({"x": 1, "y": 1}, 3), ({"x": 2, "y": 2}, 6), ({}, 0)]
    with pytest.raises(RankDeficient) as want:
        solve(rows, ["x", "y", "z"])
    with pytest.raises(RankDeficient) as got:
        solve_integer_rows(rows, ["x", "y", "z"])
    assert str(got.value) == str(want.value) == (
        "2 unknown(s) undetermined, e.g. 'y'")
    assert got.value.free_unknowns == want.value.free_unknowns == ("y", "z")


def test_solve_integer_rows_inconsistent():
    # two independent rows give a candidate, which the third row refutes
    rows = [({"x": 1}, 1), ({"y": 1}, 2), ({"x": 1, "y": 1}, 4)]
    with pytest.raises(Inconsistent):
        solve_integer_rows(rows, ["x", "y"])
    with pytest.raises(Inconsistent):
        solve_integer_rows([({"x": 1}, 1), ({}, 5)], ["x"])


def test_solve_integer_rows_drops_empty_rows(monkeypatch):
    rows = []

    class Spy(ExactSolver):
        def add_equation(self, row, rhs):
            rows.append(row)
            super().add_equation(row, rhs)
    monkeypatch.setattr(linalg, "ExactSolver", Spy)
    empty = [({}, 0)] * 3
    assert solve_integer_rows(empty + [({"x": 2}, 1)] + empty, ["x"]) == {
        "x": Fraction(1, 2)}
    assert solve_integer_rows(empty, []) == {}
    with pytest.raises(RankDeficient):
        solve_integer_rows(empty, ["x"])
    assert rows and all(rows)
