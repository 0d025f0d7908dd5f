"""End-to-end CLI tests: goldens, formats, exit codes, determinism.

Everything runs in-process through resloc.cli.run so stdout and stderr are
captured exactly as a shell user would see them.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import resloc
from resloc.cli import _held_out_weight, _weight_shape, run
from resloc.jfun import i_function, j_projective, mirror_normalize
from resloc.schubert import (default_weight_samples, flag_pushforward_extract,
                             grassmann_integral_residue,
                             suggested_sample_count)
from resloc.sympoly import SymPoly, schur_poly


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_schubert_golden(capsys):
    code, out, err = invoke(capsys, ["schubert", "--m", "2", "--n", "4",
                                     "--tau", "(q1+q2)^4"])
    assert (code, out, err) == (0, "value\n2\n", "")


def test_schubert_higher_rank(capsys):
    code, out, _ = invoke(capsys, ["schubert", "--m", "3", "--n", "5",
                                   "--tau", "sigma(2,1)^2"])
    assert code == 0
    assert out == "value\n1\n"


def test_schubert_json(capsys):
    code, out, _ = invoke(capsys, ["schubert", "--m", "2", "--n", "4",
                                   "--tau", "sigma(2)^2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "1"
    assert data["m"] == 2 and data["n"] == 4


def test_schubert_csv(capsys):
    code, out, _ = invoke(capsys, ["schubert", "--m", "2", "--n", "4",
                                   "--tau", "(q1+q2)^4", "--format", "csv"])
    assert code == 0
    assert out == "value\n2\n"


def test_qh_golden(capsys):
    code, out, _ = invoke(capsys, ["qh", "--target", "Pn", "--n", "1",
                                   "--max-degree", "2"])
    assert code == 0
    assert out == "H^2 - q\n"


def test_qh_json(capsys):
    code, out, _ = invoke(capsys, ["qh", "--target", "P1xP1",
                                   "--max-degree", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    texts = [r["text"] for r in data["relations"]]
    assert texts == ["H1^2 - q1", "H2^2 - q2"]


def test_qh_single_divisor(capsys):
    code, out, _ = invoke(capsys, ["qh", "--target", "P1xP1",
                                   "--max-degree", "2", "--divisor", "1"])
    assert code == 0
    assert out == "H2^2 - q2\n"


@pytest.mark.parametrize("d", [1, 2])
def test_qh_below_grading_bound_exits_3(capsys, d):
    # the cubic surface has c1 = H, so its degree-3 relation can reach q^3
    code, out, err = invoke(capsys, ["qh", "--target", "hypersurface",
                                     "--n", "3", "--l", "3",
                                     "--max-degree", str(d)])
    assert (code, out) == (3, "")
    assert "NoRelationFound" in err and "--max-degree 3" in err


def test_qh_cubic_surface_matches_givental(capsys):
    # Givental: (H + 6q)^3 - 27q(H + 6q)^2 = H^3 - sum_j a_j q^(3-j) H^j
    a = {j: -(comb(3, j) * 6 ** (3 - j) - 27 * comb(2, j) * 6 ** (2 - j))
         for j in range(3)}
    text = "H^3 - %d*q*H^2 - %d*q^2*H - %d*q^3" % (a[2], a[1], a[0])
    code, out, _ = invoke(capsys, ["qh", "--target", "hypersurface",
                                   "--n", "3", "--l", "3", "--max-degree", "3"])
    assert (code, out) == (0, text + "\n")


def test_jfun_json_golden(capsys):
    code, out, _ = invoke(capsys, ["jfun", "--n", "1", "--max-degree", "1",
                                   "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"]["1"] == {"-2": {"0": "1"}, "-3": {"1": "-2"}}
    assert data == j_projective(1, 1).to_json()


def test_flag_table_golden(capsys):
    code, out, _ = invoke(capsys, ["flag-table", "--m", "2", "--n", "4"])
    assert code == 0
    assert out == "zeta h value\n2 0 1\n3 1 -4\n4 2 10\n5 3 -20\n"


def test_flag_table_verified(capsys):
    code, out, _ = invoke(capsys, ["flag-table", "--m", "2", "--n", "4",
                                   "--verify-tau", "sigma(1)^2"])
    assert code == 0
    assert out.endswith("verified true\n")


def test_flag_table_verifies_m3_without_experimental(capsys):
    # --experimental is accepted and changes nothing
    argv = ["flag-table", "--m", "3", "--n", "4", "--verify-tau", "sigma(1)"]
    plain = invoke(capsys, argv)
    assert plain[0] == 0
    assert plain[1].endswith("\nverified true\n")
    assert invoke(capsys, argv + ["--experimental"]) == plain


@pytest.mark.parametrize("argv", [
    ["--m", "3", "--n", "6", "--verify-tau", "sigma(1)^9", "--experimental"],
    ["--m", "4", "--n", "5", "--verify-tau", "sigma(1)^4", "--experimental"]])
def test_flag_table_verified_at_m3_and_m4(capsys, argv):
    code, out, err = invoke(capsys, ["flag-table"] + argv)
    assert (code, err) == (0, "")
    assert out.endswith("\nverified true\n")


@pytest.mark.parametrize("argv", [
    [],
    ["--samples", "7"],
    ["--weights", "0,1,3", "--weights", "0,2,5", "--weights", "1,3,8",
     "--weights", "0,3,7", "--weights", "2,5,9"],
    # (5, 6, 8) is a shift of the first default sample (0, 1, 3)
    ["--weights", "5,6,8", "--weights", "0,2,5", "--weights", "1,3,8",
     "--weights", "0,3,7"]])
def test_flag_table_verifies_identity_outside_the_samples(
        capsys, monkeypatch, argv):
    seen = {}

    def extract(m, n, samples=None):
        seen["samples"] = samples or default_weight_samples(
            m, suggested_sample_count(m, n))
        return flag_pushforward_extract(m, n, samples)

    def verify(m, n, tau, w, ztable):
        seen["w"] = w
        return True
    monkeypatch.setattr(resloc.cli, "flag_pushforward_extract", extract)
    monkeypatch.setattr(resloc.cli, "verify_grassmann_pushforward", verify)
    code, _, _ = invoke(capsys, ["flag-table", "--m", "3", "--n", "5",
                                 "--verify-tau", "sigma(1)^6"] + argv)
    assert code == 0
    assert _weight_shape(seen["w"]) not in map(_weight_shape, seen["samples"])
    assert seen["w"] in default_weight_samples(3, len(seen["samples"]) + 1)


def test_held_out_weight_has_a_new_shape():
    # shift, negative scale and reordering keep the shape
    assert _weight_shape((5, 6, 8)) == _weight_shape((0, -2, -6)) == (1, 2)
    assert _weight_shape((8, 0, 2)) == (1, 3)
    assert _held_out_weight(3, [(5, 6, 8)]) == (0, 2, 8)
    # the bench's verify job: default (3, 6) uses shapes (1, 2)..(1, 7)
    assert _held_out_weight(3, default_weight_samples(3, 6)) == (0, 7, 63)
    # at m = 2 every weight has the shape (1,): the first unused sample
    assert _held_out_weight(2, [(0, 1), (0, 3)]) == (0, 2)


@pytest.mark.parametrize("argv,err_want", [
    (["--samples", "0", "--verify-tau", "sigma(1)"], "--samples must be"),
    (["--verify-tau", "q1^"], "TauSyntaxError"),
    (["--verify-tau", "q1"], "NotSymmetric"),
    # deficient weights: the bad tau is reported before any extraction
    (["--samples", "1", "--verify-tau", "q1"], "NotSymmetric")])
def test_flag_table_usage_errors_exit_before_extraction(
        capsys, monkeypatch, argv, err_want):
    calls = []
    monkeypatch.setattr(resloc.cli, "flag_pushforward_extract",
                        lambda *args: calls.append(args))
    code, out, err = invoke(capsys, ["flag-table", "--m", "3", "--n", "5"]
                            + argv)
    assert (code, out, calls) == (2, "", [])
    assert err_want in err


def test_flag_table_explicit_weights(capsys):
    code, out, _ = invoke(capsys, ["flag-table", "--m", "2", "--n", "4",
                                   "--weights", "0,1", "--weights", "0,2"])
    assert code == 0
    assert out.startswith("zeta h value\n2 0 1\n")


def test_lefschetz_golden(capsys):
    code, out, _ = invoke(capsys, ["lefschetz", "--n", "3", "--l", "3",
                                   "--max-degree", "1"])
    assert code == 0
    assert out == ("series d t H value\n"
                   "c 1 0 0 -6\n"
                   "J 0 0 1 3\n"
                   "J 1 -3 3 -54\n"
                   "J 1 -2 2 27\n")


def test_lefschetz_json_round_trip(capsys):
    code, out, _ = invoke(capsys, ["lefschetz", "--n", "4", "--l", "5",
                                   "--max-degree", "1", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["a"] == {"1": "-770"}
    assert data["b"] == {"1": "-120"}
    assert data["c"] == {}
    assert data["normalized"]["coefficients"]["1"]["-2"]["3"] == "2875"
    assert data == mirror_normalize(i_function(4, 5, 1)).to_json()


def test_invariants_table(capsys):
    code, out, _ = invoke(capsys, ["invariants", "--target", "Pn", "--n", "2",
                                   "--max-degree", "1"])
    assert code == 0
    assert out == "d a b value\n1 2 2 1\n"


def test_invariants_csv_quotes_tuples(capsys):
    code, out, _ = invoke(capsys, ["invariants", "--target", "P1xP1",
                                   "--max-degree", "1", "--format", "csv"])
    assert code == 0
    assert out == ('d,a,b,value\n'
                   '"0,1","0,1","1,1",1\n'
                   '"0,1","1,1","0,1",1\n'
                   '"1,0","1,0","1,1",1\n'
                   '"1,0","1,1","1,0",1\n')


def test_invariants_json(capsys):
    code, out, _ = invoke(capsys, ["invariants", "--target", "hypersurface",
                                   "--n", "4", "--l", "5", "--max-degree", "1",
                                   "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["invariants"]["1"]["1"]["1"] == "2875"


def test_determinism(capsys):
    argv = ["lefschetz", "--n", "4", "--l", "5", "--max-degree", "2",
            "--format", "json"]
    first = invoke(capsys, argv)
    second = invoke(capsys, argv)
    assert first == second


def test_usage_errors(capsys):
    cases = [
        ["schubert", "--m", "0", "--n", "4", "--tau", "1"],
        ["schubert", "--m", "2", "--n", "2", "--tau", "1"],
        ["qh", "--target", "Pn"],
        ["flag-table", "--m", "2", "--n", "4", "--weights", "0"],
        ["flag-table", "--m", "2", "--n", "4", "--weights", "0,x"],
        ["invariants", "--target", "hypersurface", "--n", "4"],
        ["jfun", "--n", "0"],
        ["qh", "--target", "Pn", "--n", "1", "--divisor", "5"],
    ]
    for argv in cases:
        code, _, err = invoke(capsys, argv)
        assert code == 2, argv
        assert err, argv


def test_tau_errors_are_usage_errors(capsys):
    code, _, err = invoke(capsys, ["schubert", "--m", "2", "--n", "4",
                                   "--tau", "q1^2"])
    assert code == 2
    assert "NotSymmetric" in err
    code, _, err = invoke(capsys, ["schubert", "--m", "2", "--n", "4",
                                   "--tau", "q1 +"])
    assert code == 2
    assert "at position" in err


# inputs that once ended in a traceback or in an error without a position
CRASH_TAUS = ("(" * 1000 + "q1" + ")" * 1000, "sigma(99999999999999999999)",
              "q1\u00b2*q2\u00b2", "1" * 5000)


@pytest.mark.parametrize("tau", CRASH_TAUS)
def test_overdeep_and_oversized_tau_exit_2(capsys, tau):
    code, out, err = invoke(capsys, ["schubert", "--m", "2", "--n", "4",
                                     "--tau=" + tau])
    assert (code, out) == (2, "")
    assert err.startswith("TauSyntaxError")


TAU_TOKENS = ("q1", "q2", "q3", "sigma", "c_top_sym", "+", "-", "*", "^",
              "(", ")", ",", "0", "1", "2", "3")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3)), st.integers(1, 3),
       st.lists(st.sampled_from(TAU_TOKENS), max_size=12))
@example(2, 2, [CRASH_TAUS[0]])
@example(3, 2, [CRASH_TAUS[1]])
def test_schubert_exit_code_is_documented(m, extra, tokens):
    # space-separated tokens keep every integer literal at most 3; the
    # --tau= form lets a leading "-" reach the parser instead of argparse
    tau = " ".join(tokens)
    code = run(["schubert", "--m", str(m), "--n", str(m + extra),
                "--tau=" + tau])
    assert code in (0, 2, 3), tau


def test_lopsided_power_is_not_symmetric(capsys):
    # q1^5 vanishes in H*(G(2, 5)); the symmetry check must still see it
    code, out, err = invoke(capsys, ["schubert", "--m", "2", "--n", "5",
                                     "--tau", "q1^5"])
    assert (code, out) == (2, "")
    assert err.startswith("NotSymmetric: ")
    assert "swapping q1 and q2" in err


def test_degree_mismatch_prints_zero_at_once(capsys):
    # dim G(2, 100000) is 199,996 and sigma(1) has degree 1: the answer is 0
    # by degree alone, before any Laurent class is built
    start = time.perf_counter()
    code, out, err = invoke(capsys, ["schubert", "--m", "2", "--n", "100000",
                                     "--tau", "sigma(1)"])
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (0, "value\n0\n", "")


def test_degree_short_circuit_still_checks_symmetry(capsys):
    code, out, err = invoke(capsys, ["schubert", "--m", "2", "--n", "100000",
                                     "--tau", "q1^2 + q1*q2"])
    assert (code, out) == (2, "")
    assert err.startswith("NotSymmetric: ")


def _schubert_value(capsys, m, n, tau):
    code, out, err = invoke(capsys, ["schubert", "--m", str(m), "--n", str(n),
                                     "--tau", tau])
    assert (code, err) == (0, ""), (m, n, tau)
    header, value = out.split()
    assert header == "value"
    return int(value)


@pytest.mark.parametrize("m", range(1, 5))
def test_schubert_degree_is_hook_length_count(capsys, m):
    # deg G(m, n) in the Pluecker embedding counts standard tableaux of the
    # m x (n-m) box: (m(n-m))! over the product of its hook lengths
    for n in range(m + 1, 9):
        k = n - m
        hooks = 1
        for i, j in itertools.product(range(m), range(k)):
            hooks *= (m - i) + (k - j) - 1
        expected = factorial(m * k) // hooks
        assert _schubert_value(capsys, m, n, "sigma(1)^%d" % (m * k)) \
            == expected, (m, n)


def _conjugate(lam):
    return tuple(sum(1 for x in lam if x > j) for j in range(max(lam)))


@pytest.mark.parametrize("n", range(4, 8))
def test_schubert_duality_with_g2n(capsys, n):
    # G(n-2, n) = G(2, n) exchanges sigma_lambda with sigma_(lambda'); the
    # left side runs the Schur oracle for n >= 5, the right the residue.
    m, dim = n - 2, 2 * (n - 2)
    box = [lam for lam in (
        (2,) * a + (1,) * b for a in range(m + 1)
        for b in range(m + 1 - a)) if lam]
    for lam, mu in itertools.combinations_with_replacement(box, 2):
        k = dim - sum(lam) - sum(mu)
        if k < 0:
            continue
        tau = "sigma(%s)*sigma(%s)*sigma(1)^%d" % (
            ",".join(map(str, lam)), ",".join(map(str, mu)), k)
        dual = (SymPoly(2, schur_poly(2, _conjugate(lam)))
                * SymPoly(2, schur_poly(2, _conjugate(mu))))
        for _ in range(k):
            dual = dual * SymPoly(2, schur_poly(2, (1,)))
        assert _schubert_value(capsys, m, n, tau) \
            == grassmann_integral_residue(n, dual), (n, lam, mu)


def test_repeated_weight_is_usage_error(capsys):
    code, _, err = invoke(capsys, ["flag-table", "--m", "2", "--n", "4",
                                   "--weights", "1,1"])
    assert code == 2
    assert "RepeatedWeight" in err


def test_math_error_exit_code(capsys):
    # one sample cannot determine the higher bands for m = 3
    code, _, err = invoke(capsys, ["flag-table", "--m", "3", "--n", "5",
                                   "--samples", "1"])
    assert code == 3
    assert "RankDeficient" in err


def test_rank_deficient_names_level_and_rank(capsys):
    # one sample gives three rows per level: level 3 has four unknowns; each
    # level is eliminated alone, and the message counts the free unknowns
    # of every level and names the first deficient one
    for args, err_want in [
            ("--m 3 --n 6 --samples 1",
             "55 unknown(s) undetermined, e.g. (3, 0); "
             "level |A| = 3 has rank 3 of 4 unknowns"),
            ("--m 3 --n 5 --weights 1,2,3",
             "40 unknown(s) undetermined, e.g. (1, 1); "
             "level |A| = 2 has rank 1 of 3 unknowns"),
            ("--m 3 --n 6 --samples 2",
             "28 unknown(s) undetermined, e.g. (6, 0); "
             "level |A| = 6 has rank 6 of 7 unknowns"),
            ("--m 4 --n 5 --samples 3",
             "182 unknown(s) undetermined, e.g. (3, 0, 1); "
             "level |A| = 4 has rank 12 of 15 unknowns")]:
        code, out, err = invoke(capsys, ["flag-table"] + args.split())
        assert (code, out) == (3, "")
        assert err == "RankDeficient: %s\n" % err_want


def test_flag_table_negative_weights(capsys):
    # extraction does not depend on the weights; a sample starting with a
    # minus sign is written --weights=-5,7,2 so argparse reads it as a value
    code, default, _ = invoke(capsys, ["flag-table", "--m", "3", "--n", "5"])
    assert code == 0
    samples = ["-5,7,2", "-1,-9,4", "3,-2,-8", "-6,1,11"]
    code, out, err = invoke(capsys, ["flag-table", "--m", "3", "--n", "5"]
                            + ["--weights=" + w for w in samples])
    assert (code, out, err) == (0, default, "")


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = str(Path(resloc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "resloc", "schubert", "--m", "2", "--n", "4",
         "--tau", "sigma(1)^4"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "value\n2\n", "")


def test_env_default_order(capsys, monkeypatch):
    monkeypatch.setenv("RESLOC_MAX_ORDER", "2")
    code, out, _ = invoke(capsys, ["jfun", "--n", "1", "--format", "json"])
    assert code == 0
    assert json.loads(out)["D"] == 2
    # explicit flag wins over the environment
    code, out, _ = invoke(capsys, ["jfun", "--n", "1", "--max-degree", "1",
                                   "--format", "json"])
    assert json.loads(out)["D"] == 1


def test_env_default_order_invalid(capsys, monkeypatch):
    monkeypatch.setenv("RESLOC_MAX_ORDER", "abc")
    code, _, err = invoke(capsys, ["jfun", "--n", "1"])
    assert code == 2
    assert "RESLOC_MAX_ORDER" in err


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        run(["frobnicate"])


def test_weights_and_samples_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["flag-table", "--m", "2", "--n", "4", "--weights", "0,1",
             "--samples", "3"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
