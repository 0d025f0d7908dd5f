import functools
import importlib.util
import itertools
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from resloc import linalg, schubert
from resloc.errors import MissingZetaEntry, RepeatedWeight
from resloc.laurent import LaurentClass, laurent_invert
from resloc.ring import CohClass, Ring
from resloc.schubert import (ZetaTable, _as_weights, _flag_level_rows,
                             _flags_from, _projective_level_coeffs,
                             closed_form_m2, default_weight_samples, fiberdim,
                             flag_band, flag_fixed_locus_euler,
                             flag_pushforward_extract,
                             grassmann_integral_residue, pv_ring,
                             projective_fixed_locus_euler,
                             verify_euler_pushforward_identity,
                             verify_grassmann_pushforward, zeta_ring)
from resloc.sympoly import (SymPoly, monomial_symmetric, schur_integral_oracle,
                            sym_power_top_chern)
from resloc.tau_parser import parse_tau


def test_weight_vector():
    w = _as_weights((0, 1, 3), 3)
    assert tuple(w) == (0, 1, 3)
    with pytest.raises(RepeatedWeight):
        _as_weights((0, 1, 1), 3)


def test_default_samples_distinct():
    for m in (2, 3, 4):
        for w in default_weight_samples(m, 5):
            assert len(set(w)) == m


def test_fiberdim_and_band():
    assert fiberdim(2, 4) == 2
    assert fiberdim(3, 4) == 3
    assert flag_band(2, 4) == 5
    assert flag_band(3, 5) == 9


def test_classical_residue_values():
    s1 = SymPoly.from_schur(2, (1,))
    s11 = SymPoly.from_schur(2, (1, 1))
    assert grassmann_integral_residue(4, s1 * s1 * s1 * s1) == 2
    assert grassmann_integral_residue(4, s11 * s11) == 1
    assert grassmann_integral_residue(4, sym_power_top_chern(3)) == 27
    assert grassmann_integral_residue(5, sym_power_top_chern(5)) == 2875


@pytest.mark.parametrize("n", range(3, 15))
def test_residue_matches_schur_oracle(n):
    # every monomial-symmetric class of the complementary degree, over the
    # bench's m = 2 range
    deg = 2 * (n - 2)
    for lam in [(a, deg - a) for a in range(deg - deg // 2, deg + 1)]:
        tau = SymPoly.from_monomial_orbit(2, lam)
        assert (grassmann_integral_residue(n, tau)
                == schur_integral_oracle(2, n, tau)), (n, lam)


@pytest.mark.parametrize("n", [5, 14])
def test_residue_of_fraction_coefficients(n):
    # sigma(1)^dim with Fraction coefficients, and half of it
    s1 = tau = SymPoly.from_schur(2, (1,))
    for _ in range(2 * (n - 2) - 1):
        tau = tau * s1
    as_fractions = SymPoly(2, {e: Fraction(c) for e, c in tau.coeffs.items()})
    value = grassmann_integral_residue(n, tau)
    assert value == grassmann_integral_residue(n, as_fractions)
    half = SymPoly(2, {e: Fraction(c, 2) for e, c in tau.coeffs.items()})
    assert grassmann_integral_residue(n, half) == value / 2
    assert value == comb(2 * (n - 2), n - 2) // (n - 1)  # deg G(2, n)


def test_residue_degree_mismatch_is_zero():
    s1 = SymPoly.from_schur(2, (1,))
    assert grassmann_integral_residue(4, s1) == 0


def test_closed_form_m2():
    ring = pv_ring(3)
    assert closed_form_m2(3, 0).is_zero()
    assert closed_form_m2(3, 1) == ring.one()
    assert closed_form_m2(3, 2) == ring.monomial((1,), -3)
    assert closed_form_m2(3, 3) == ring.monomial((2,), 6)


@pytest.mark.parametrize("m,n", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5),
                                 (3, 6), (3, 7), (4, 5)])
def test_extraction_and_identity(m, n):
    ztable = flag_pushforward_extract(m, n)
    # formula-level equality at a fresh weight vector
    w = tuple(5 * i + 1 for i in range(m))
    assert verify_euler_pushforward_identity(m, n, ztable, w)
    # closed form for m = 2
    if m == 2:
        for j in range(flag_band(2, n) + 1):
            assert ztable.entry((j,)) == closed_form_m2(n, j), (n, j)
    # below the fiber dimension everything vanishes
    for a_exps in ztable.entries:
        if sum(a_exps) < fiberdim(m, n):
            assert ztable.entries[a_exps].is_zero()
        elif not ztable.entries[a_exps].is_zero():
            got = ztable.entries[a_exps].homogeneous_degree()
            assert got == sum(a_exps) - fiberdim(m, n)


@pytest.mark.parametrize("m,n", [(2, 4), (3, 4), (3, 5), (3, 7)])
def test_extraction_weight_independent(m, n):
    base = flag_pushforward_extract(m, n)
    shifted = [tuple((s + 3) ** i + 1 for i in range(m)) for s in range(6)]
    again = flag_pushforward_extract(m, n, shifted)
    assert base == again


def count_fallbacks(monkeypatch):
    """Record the unknowns of each system that is eliminated exactly."""
    calls = []
    exact = linalg._eliminate

    def spy(rows, unknowns):
        calls.append(unknowns)
        return exact(rows, unknowns)
    monkeypatch.setattr(linalg, "_eliminate", spy)
    return calls


@pytest.mark.parametrize("modulus", [3, 101])
def test_certified_extraction_survives_a_small_modulus(monkeypatch, modulus):
    # a small prime gives wrong candidates or too few pivots; the exact
    # check rejects them and those levels come from exact elimination
    shapes = [(2, 5), (3, 6), (4, 5)]
    expected = [flag_pushforward_extract(m, n) for m, n in shapes]
    monkeypatch.setattr(linalg, "MODULUS", modulus)
    calls = count_fallbacks(monkeypatch)
    assert [flag_pushforward_extract(m, n) for m, n in shapes] == expected
    assert calls


def test_bench_shapes_need_no_fallback(monkeypatch):
    bench = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("resloc_bench_jobs", bench)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    calls = count_fallbacks(monkeypatch)
    for seed in (1, 2, 3):
        for job in workloads.make_jobs("flag", seed):
            m, n = job.info["m"], job.info["n"]
            argv = job.argv
            weights = [tuple(map(int, argv[k + 1].split(",")))
                       for k, a in enumerate(argv) if a == "--weights"]
            flag_pushforward_extract(m, n, weights or None)
    flag_pushforward_extract(4, 5)
    assert calls == []


def test_large_entries_fall_back_level_by_level(monkeypatch):
    # at m = 2, n = 30 the entries binom(29 + k, k) pass isqrt(MODULUS) for
    # large k; only those levels are eliminated exactly, and in little time
    n = 30
    calls = count_fallbacks(monkeypatch)
    table = flag_pushforward_extract(2, n)
    levels = range(flag_band(2, n) + 1)
    assert len(levels) == 58
    assert [table.entry((j,)) for j in levels] == [
        closed_form_m2(n, j) for j in levels]
    assert all(len(cols) == 1 for cols in calls)
    assert 0 < len(calls) < len(levels)
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        flag_pushforward_extract(2, n)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.01


@pytest.mark.parametrize("m", [2, 3, 4])
def test_closed_form_flag_inverse_matches_generic(m):
    # the integer level rows of extraction, numerators / D, equal the generic
    # inverse Euler classes summed over the flags with first line i; unsorted
    # weights with a negative one make some c_s and factors of S negative
    n = 5
    w = _as_weights((5, -1, 2, 9)[:m], m)
    ring = zeta_ring(m, n)
    top = m * (m + 1) // 2 - 1
    for i in range(1, m + 1):
        generic = sum((laurent_invert(flag_fixed_locus_euler(perm, w, n))
                       for perm in _flags_from(i, m)), LaurentClass.zero(ring))
        rows = list(_flag_level_rows(i, w, n))
        assert len(rows) == flag_band(m, n) + 1
        got = {}
        for level, (den, row) in enumerate(rows):
            assert den > 0 and all(type(x) is int for x in row.values())
            assert all(sum(a) == level for a in row)
            if row:
                got[-top - level] = CohClass(
                    ring, {a: Fraction(x, den) for a, x in row.items()})
        assert LaurentClass(ring, got) == generic, i


@pytest.mark.parametrize("m", [2, 3, 4])
def test_projective_level_coeffs_match_generic(m):
    # the right side of extraction, c_k at h^k t^-((m-1)n+k), equals the
    # generic inverse of the projective Euler class; unsorted weights with a
    # negative one make some w_s - w_i negative
    n = 5
    w = _as_weights((5, -1, 2, 9)[:m], m)
    ring = pv_ring(n)
    for i in range(1, m + 1):
        coeffs = _projective_level_coeffs(i, w, n)
        assert len(coeffs) == n
        assert all(type(c) is Fraction for c in coeffs)
        closed = LaurentClass(ring, {-(m - 1) * n - k: ring.monomial((k,), c)
                                     for k, c in enumerate(coeffs) if c})
        generic = laurent_invert(projective_fixed_locus_euler(i, w, n))
        assert closed == generic, i


def test_zeta_table_accessors():
    zt = flag_pushforward_extract(2, 4)
    band = flag_band(2, 4)
    assert zt.entry((band + 1,)).is_zero()
    assert zt.entry((band + 7,)).is_zero()
    with pytest.raises(ValueError):
        zt.entry((1, 2))
    with pytest.raises(ValueError):
        zt.entry((-1,))
    stripped = ZetaTable(2, 4, {k: v for k, v in zt.entries.items()
                                if k != (3,)})
    with pytest.raises(MissingZetaEntry):
        stripped.entry((3,))


def test_verify_pullback_m2():
    for n in (3, 4):
        zt = flag_pushforward_extract(2, n)
        w = (0, 1)
        deg = 2 * (n - 2)
        for lam in itertools.combinations_with_replacement(range(deg + 1), 2):
            lam = tuple(sorted(lam, reverse=True))
            if sum(lam) != deg:
                continue
            tau = SymPoly(2, monomial_symmetric(2, tuple(x for x in lam if x)
                                                or (0, 0)))
            assert verify_grassmann_pushforward(2, n, tau, w, zt), (n, lam)


def test_verify_pullback_m3():
    zt4 = flag_pushforward_extract(3, 4)
    zt5 = flag_pushforward_extract(3, 5)
    w = (0, 1, 3)
    for lam in [(1, 1, 1), (2, 1, 0), (1, 1, 0), (1, 0, 0), (2, 2, 2)]:
        tau = SymPoly.from_schur(3, tuple(x for x in lam if x))
        assert verify_grassmann_pushforward(3, 4, tau, w, zt4), lam
    for lam in [(2, 2, 2), (3, 2, 1), (1, 1, 1)]:
        tau = SymPoly.from_schur(3, tuple(x for x in lam if x))
        assert verify_grassmann_pushforward(3, 5, tau, w, zt5), lam


def test_verify_pullback_detects_corruption():
    zt = flag_pushforward_extract(2, 4)
    bad_entries = dict(zt.entries)
    bad_entries[(2,)] = bad_entries[(2,)] * 3
    bad = ZetaTable(2, 4, bad_entries)
    s2 = SymPoly.from_schur(2, (2,))
    tau = s2 * s2
    w = (0, 1)
    assert verify_grassmann_pushforward(2, 4, tau, w, zt)
    assert not verify_grassmann_pushforward(2, 4, tau, w, bad)


@functools.lru_cache(maxsize=None)
def _table(m, n):
    return flag_pushforward_extract(m, n)


def _uncut_combined_ring(m, n):
    band = flag_band(m, n)
    gens = ("h",) + tuple("z%d" % s for s in range(1, m))
    return Ring(gens, (n,) + (band + 1,) * (m - 1))


def _pullback_cases():
    """(m, n, tau, w, table) of the pullback tests above, then two that fail:
    the corrupted table and the benchmark's sigma(1)^9 at (3, 6)."""
    for n in (3, 4):
        deg = 2 * (n - 2)
        for a in range(deg // 2 + 1):
            lam = tuple(x for x in (deg - a, a) if x)
            yield 2, n, SymPoly.from_monomial_orbit(2, lam), (0, 1), _table(2, n)
    for n, lams in ((4, [(1, 1, 1), (2, 1), (1, 1), (1,), (2, 2, 2)]),
                    (5, [(2, 2, 2), (3, 2, 1), (1, 1, 1)])):
        for lam in lams:
            yield 3, n, SymPoly.from_schur(3, lam), (0, 1, 3), _table(3, n)
    bad_entries = dict(_table(2, 4).entries)
    bad_entries[(2,)] = bad_entries[(2,)] * 3
    s2 = SymPoly.from_schur(2, (2,))
    yield 2, 4, s2 * s2, (0, 1), ZetaTable(2, 4, bad_entries)
    yield (3, 6, parse_tau("sigma(1)^9", 3), default_weight_samples(3, 1)[0],
           _table(3, 6))


def test_band_cut_pullback_matches_uncut_ring(monkeypatch):
    # combined_ring drops h^b * zeta^A with b + |A| > band, which the table
    # pushes to 0; the verdict of every case must equal the uncut ring's
    cases = list(_pullback_cases())
    assert schubert.combined_ring(3, 6).total == flag_band(3, 6)
    cut = [verify_grassmann_pushforward(*case) for case in cases]
    monkeypatch.setattr(schubert, "combined_ring", _uncut_combined_ring)
    uncut = [verify_grassmann_pushforward(*case) for case in cases]
    assert cut == uncut
    assert cut == [True] * (len(cases) - 2) + [False, False]


def test_verify_pullback_rejects_inhomogeneous_table():
    # the band cut is exact only for entries c * h^(|A| - fiberdim)
    entries = dict(_table(2, 4).entries)
    entries[(3,)] = entries[(3,)] + pv_ring(4).one()
    s2 = SymPoly.from_schur(2, (2,))
    with pytest.raises(ValueError, match="fiberdim"):
        verify_grassmann_pushforward(2, 4, s2 * s2, (0, 1),
                                     ZetaTable(2, 4, entries))
