"""Acceptance gate: one test per numbered criterion, exact comparisons only.

Each test covers one criterion end to end and asserts its stated wall-clock
budget; the last test holds the north-star extraction at m = 4, n = 6.
Criterion 6 keeps degree >= 2 hypersurface invariants as a frozen
regression snapshot (recorded on first run, compared afterwards).
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from resloc.geometry import RingSpec
from resloc.jfun import (IFunction, i_function, j_product, j_projective,
                         mirror_normalize, pull_to_hypersurface)
from resloc.laurent import LaurentClass, laurent_invert
from resloc.qseries import QSeries, qs_exp
from resloc.reconstruct import (qh_relation, quantum_mult_matrix,
                                reconstruct_two_point)
from resloc.ring import Ring
from resloc.schubert import (closed_form_m2, default_weight_samples,
                             flag_band, flag_pushforward_extract,
                             grassmann_integral_residue,
                             verify_euler_pushforward_identity)
from resloc.sympoly import schur_integral_oracle, sym_power_top_chern
from resloc.tau_parser import parse_tau

SNAPSHOT = Path(__file__).parent / "snapshots" / "quintic_two_point.json"

FLAG_CASES = [(2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5)]


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, \
        "took %.2f s, budget %g s" % (elapsed, seconds)


def test_criterion_1_grassmann_residue_vs_classical():
    with budget(1):
        tau1 = parse_tau("(q1+q2)^4", 2)
        tau2 = parse_tau("(q1*q2)^2", 2)
        assert grassmann_integral_residue(4, tau1) == 2
        assert grassmann_integral_residue(4, tau2) == 1
        assert schur_integral_oracle(2, 4, tau1) == 2
        assert schur_integral_oracle(2, 4, tau2) == 1


def test_criterion_2_line_counts():
    with budget(1):
        cubic = sym_power_top_chern(3)
        quintic = sym_power_top_chern(5)
        assert grassmann_integral_residue(4, cubic) == 27
        assert schur_integral_oracle(2, 4, cubic) == 27
        assert grassmann_integral_residue(5, quintic) == 2875
        assert schur_integral_oracle(2, 5, quintic) == 2875


def test_criterion_3_flag_pushforward_extraction():
    with budget(10):
        fresh = {2: (0, 7), 3: (0, 7, 51)}
        for m, n in FLAG_CASES:
            primary = default_weight_samples(m, 5)
            alt = [tuple((s + 3) ** i + 1 for i in range(m))
                   for s in range(6)]
            za = flag_pushforward_extract(m, n, primary)
            zb = flag_pushforward_extract(m, n, alt)
            # weight independence: two disjoint families, same table
            assert za.entries == zb.entries
            assert verify_euler_pushforward_identity(m, n, za, fresh[m])
            if m == 2:
                for j in range(flag_band(2, n) + 1):
                    assert za.entry((j,)) == closed_form_m2(n, j)
        # hand-verified n = 3 values: 0, 1, -3h, 6h^2
        z3 = flag_pushforward_extract(2, 3, default_weight_samples(2, 4))
        ring = z3.ring
        assert z3.entry((0,)) == ring.zero()
        assert z3.entry((1,)) == ring.one()
        assert z3.entry((2,)) == ring.monomial((1,), -3)
        assert z3.entry((3,)) == ring.monomial((2,), 6)


def test_criterion_4_j_function_values():
    with budget(1):
        j = j_projective(1, 2)
        f1 = j.coefficient(1)
        assert f1.coeff((0,), -2) == 1
        assert f1.coeff((1,), -3) == -2
        assert sorted(f1.terms) == [-3, -2]
        f2 = j.coefficient(2)
        assert f2.coeff((0,), -4) == Fraction(1, 4)
        assert f2.coeff((1,), -5) == Fraction(-3, 4)
        assert sorted(f2.terms) == [-5, -4]


def test_criterion_5_quantum_lefschetz_case_split():
    with budget(30):
        # case (a): l < n <= 6, zero correction through q^5
        for n in range(2, 7):
            for l in range(1, n):
                md = mirror_normalize(i_function(n, l, 5))
                assert md.a.is_zero() and md.b.is_zero() and md.c.is_zero()
        # case (c): l = n + 1 <= 6, c = 0 with a, b nonzero
        for n in range(2, 6):
            md = mirror_normalize(i_function(n, n + 1, 5))
            assert md.c.is_zero()
            assert not md.a.is_zero() and not md.b.is_zero()
        # case (b): l = n, a = b = 0 and c = -l*q + O(q^2)
        for l in range(2, 7):
            md = mirror_normalize(i_function(l, l, 5))
            assert md.a.is_zero() and md.b.is_zero()
            c1 = md.c.coefficient((1,)).coeff((0,), 0)
            # the engine computes c_1 = -l!, which equals -l only at l = 2;
            # the required linear coefficient is asserted as stated
            assert c1 == -l, \
                "c_1 = %s for l = n = %d, required -l = %d" % (c1, l, -l)


def test_criterion_6_quintic_pipeline():
    with budget(30):
        md = mirror_normalize(i_function(4, 5, 3))
        table = reconstruct_two_point(pull_to_hypersurface(md.pushed, 5))
        schubert_count = grassmann_integral_residue(5, sym_power_top_chern(5))
        d1 = table.invariant((1,), (1,), (1,))
        assert d1 == 2875
        assert d1 == schubert_count
        computed = {str(d): str(table.invariant((1,), (1,), (d,)))
                    for d in (2, 3)}
        if not SNAPSHOT.exists():
            SNAPSHOT.parent.mkdir(exist_ok=True)
            payload = {"target": {"kind": "hypersurface", "l": 5, "n": 4},
                       "values": computed}
            SNAPSHOT.write_text(json.dumps(payload, indent=2, sort_keys=True)
                                + "\n")
        else:
            frozen = json.loads(SNAPSHOT.read_text())
            assert computed == frozen["values"]


def test_criterion_7_quantum_rings():
    with budget(10):
        for n in range(1, 7):
            table = reconstruct_two_point(j_projective(n, 2))
            rel = qh_relation(quantum_mult_matrix(table))
            assert str(rel) == "H^%d - q" % (n + 1)
        j1 = j_projective(1, 2)
        table = reconstruct_two_point(j_product(j1, j1))
        m0 = quantum_mult_matrix(table, 0)
        m1 = quantum_mult_matrix(table, 1)
        assert str(qh_relation(m0)) == "H1^2 - q1"
        assert str(qh_relation(m1)) == "H2^2 - q2"
        # cross-multiplication is classical: H1 * H2 = H1H2 with no q terms
        one = {(0, 0): Fraction(1)}
        assert m0.entries[(0, 1)] == {(1, 1): one}
        assert m1.entries[(1, 0)] == {(1, 1): one}


def test_criterion_8_theorem_level_properties():
    targets = []
    targets.append(j_projective(1, 3))
    targets.append(j_projective(2, 2))
    j1 = j_projective(1, 2)
    targets.append(j_product(j1, j1))
    md = mirror_normalize(i_function(4, 5, 2))
    lh = LaurentClass.from_coh(5 * md.pushed.ring_spec.ring.generator("H"))
    assert md.pushed.check_shape(expected_f0=lh)
    targets.append(pull_to_hypersurface(md.pushed, 5))
    for jfun in targets:
        assert jfun.check_shape()
        table = reconstruct_two_point(jfun)
        spec = table.ring_spec
        for d in table.degrees():
            chern = spec.chern_degree(d)
            for a in spec.monomials():
                # (ii) re-evaluated reconstruction expression is t-polynomial
                assert table.residual(jfun, d, a).is_zero()
                # (iii) g-support respects the dimension window
                for k in table.k_support(d, a):
                    deg = table.g(d, a, k).homogeneous_degree()
                    assert deg == sum(a) + k + 1 - chern
                    assert 0 <= deg <= spec.dim
                # (i) 2-point symmetry
                for b in spec.monomials():
                    assert (table.invariant(a, b, d)
                            == table.invariant(b, a, d))


def test_criterion_9_randomized_kernel_properties():
    with budget(10):
        from resloc.ring import CohClass

        rng = random.Random(20240811)
        ring = Ring(("h", "z"), (3, 2))

        def rand_coh():
            coeffs = {}
            for e1 in range(3):
                for e2 in range(2):
                    if rng.random() < 0.6:
                        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                        if c:
                            coeffs[(e1, e2)] = c
            return CohClass(ring, coeffs)

        def rand_laurent(min_t=-2, max_t=2):
            terms = {}
            for j in range(min_t, max_t + 1):
                if rng.random() < 0.5:
                    coh = rand_coh()
                    if not coh.is_zero():
                        terms[j] = coh
            return LaurentClass(ring, terms)

        cases = 0
        # inversion round-trip on scalar-unit times (1 + nilpotent) shapes
        for _ in range(400):
            k = rng.randint(-3, 3)
            c = Fraction(rng.choice([1, -1, 2, 3, -5]), rng.randint(1, 3))
            # strip scalar components so the only unit is the t^k monomial
            stripped = {}
            for j, coh in rand_laurent().terms.items():
                kept = {e: v for e, v in coh.coeffs.items() if any(e)}
                if kept:
                    stripped[j] = CohClass(ring, kept)
            e = LaurentClass.t_power(ring, k, c) + LaurentClass(ring, stripped)
            inv = laurent_invert(e)
            assert inv * e == LaurentClass.one(ring)
            assert laurent_invert(inv) == e
            cases += 1
        # exponential additivity on scalar series with zero constant term
        scalar_ring = Ring(("h",), (2,))
        for _ in range(300):
            def rand_series():
                terms = {}
                for d in range(1, 5):
                    if rng.random() < 0.7:
                        v = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                        if v:
                            terms[(d,)] = LaurentClass.t_power(
                                scalar_ring, rng.randint(-1, 1), v)
                return QSeries(scalar_ring, 1, 4, terms)
            a = rand_series()
            b = rand_series()
            assert qs_exp(a + b) == qs_exp(a) * qs_exp(b)
            cases += 1
        # truncation commutes with multiplication
        for _ in range(300):
            def rand_qs():
                terms = {}
                for d in range(4):
                    if rng.random() < 0.6:
                        lc = rand_laurent(-1, 1)
                        if not lc.is_zero():
                            terms[(d,)] = lc
                return QSeries(ring, 1, 3, terms)
            a = rand_qs()
            b = rand_qs()
            k = rng.randint(0, 3)
            assert (a * b).truncate(k) == a.truncate(k) * b.truncate(k)
            cases += 1
        assert cases >= 1000


def test_north_star_flag_extraction_m4_n6():
    def family(seed):
        rng = random.Random(seed)
        return [tuple(rng.sample(range(1000), 4)) for _ in range(31)]

    assert not set(family(1)) & set(family(2))
    with budget(10):
        first = flag_pushforward_extract(4, 6, family(1))
        second = flag_pushforward_extract(4, 6, family(2))
    assert len(first.entries) == 680
    assert first == second
