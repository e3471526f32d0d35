"""Command-line front end: verbs, output formats, and exit codes."""

import json
import time

import pytest

from z2z4cyclic import BinPoly, CheckResult, QuatPoly
from z2z4cyclic.cli import Command, main, run
from z2z4cyclic.errors import ParseError

C1_TEXT = "alpha=3\nbeta=3\nb=x^3+1\nell=x+1\nf=1\nh=x^2+x+1\n"

C1_INLINE = [
    "--alpha", "3", "--beta", "3",
    "--b", "x^3+1", "--ell", "x+1", "--f", "1", "--h", "x^2+x+1",
]


@pytest.fixture()
def c1_file(tmp_path):
    path = tmp_path / "c1.txt"
    path.write_text(C1_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


# -- happy paths ----------------------------------------------------------------


def test_info_text(capsys, c1_file):
    status, out, err = run_cli(capsys, "info", "--spec", c1_file)
    assert status == 0 and err == ""
    assert out.splitlines() == [
        "alpha=3 beta=3 b=x^3+1 ell=x+1 f=1 h=x^2+x+1 "
        "type=(3,3;2,1;2) min_distance=3 is_mdss=no is_self_dual=no "
        "is_separable=no is_cyclic_verified=yes",
        "type (3,3;2,1;2)",
        "|C| = 16",
    ]


def test_info_json(capsys, c1_file):
    status, out, _ = run_cli(capsys, "info", "--spec", c1_file, "--json")
    assert status == 0
    assert json.loads(out) == {
        "spec": {
            "alpha": 3,
            "beta": 3,
            "b": "x^3+1",
            "ell": "x+1",
            "f": "1",
            "h": "x^2+x+1",
        },
        "type": "(3,3;2,1;2)",
        "min_distance": 3,
        "is_mdss": False,
        "is_self_dual": False,
        "is_separable": False,
        "is_cyclic_verified": True,
    }


def test_inline_flags_agree_with_spec_file(capsys, c1_file):
    _, from_file, _ = run_cli(capsys, "info", "--spec", c1_file, "--json")
    status, from_flags, _ = run_cli(capsys, "info", *C1_INLINE, "--json")
    assert status == 0
    assert json.loads(from_flags) == json.loads(from_file)


def test_dual_text(capsys, c1_file):
    status, out, _ = run_cli(capsys, "dual", "--spec", c1_file)
    assert status == 0
    assert out.splitlines() == [
        "b_bar = x^2+x+1",
        "ell_bar = x",
        "f_bar = x+3",
        "h_bar = 1",
        "g_bar = x^2+x+1",
        "mu1 = x",
        "mu2 = x",
        "rho = 1",
        "dual type (3,3;1,2;1)",
    ]


def test_dual_json(capsys, c1_file):
    status, out, _ = run_cli(capsys, "dual", "--spec", c1_file, "--json")
    assert status == 0
    assert json.loads(out) == {
        "b_bar": "x^2+x+1",
        "ell_bar": "x",
        "f_bar": "x+3",
        "h_bar": "1",
        "g_bar": "x^2+x+1",
        "mu1": "x",
        "mu2": "x",
        "rho": "1",
        "dual_type": "(3,3;1,2;1)",
    }


def test_dual_json_omits_mixing_rows_for_separable_codes(capsys):
    status, out, _ = run_cli(
        capsys, "dual", "--alpha", "4", "--beta", "3",
        "--b", "x^2+1", "--ell", "0", "--f", "1", "--h", "x^3+3", "--json",
    )
    assert status == 0
    data = json.loads(out)
    assert data["mu1"] is None and data["mu2"] is None and data["rho"] is None


def test_matrix_text(capsys, c1_file):
    status, out, _ = run_cli(capsys, "matrix", "--spec", c1_file)
    assert status == 0
    assert out.splitlines() == [
        "S2[0] 1 1 0 | 3 1 1",
        "S3[0] 1 0 1 | 2 2 0",
        "S3[1] 1 1 0 | 0 2 2",
    ]


def test_matrix_json(capsys, c1_file):
    status, out, _ = run_cli(capsys, "matrix", "--spec", c1_file, "--json")
    assert status == 0
    assert json.loads(out) == {
        "S1": [],
        "S2": ["1 1 0 | 3 1 1"],
        "S3": ["1 0 1 | 2 2 0", "1 1 0 | 0 2 2"],
    }


def test_enumerate_text(capsys, c1_file):
    status, out, _ = run_cli(capsys, "enumerate", "--spec", c1_file)
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "|C| = 16"
    assert len(lines) == 17
    assert "1 0 1 | 0 0 2" in lines  # generator-matrix row
    assert "0 0 0 | 1 1 1" in lines


def test_enumerate_json(capsys, c1_file):
    status, out, _ = run_cli(capsys, "enumerate", "--spec", c1_file, "--json")
    assert status == 0
    data = json.loads(out)
    assert data["cardinality"] == 16
    assert len(data["codewords"]) == 16
    assert len(set(data["codewords"])) == 16


def test_gray_text(capsys, c1_file):
    status, out, _ = run_cli(capsys, "gray", "--spec", c1_file)
    assert status == 0
    lines = out.splitlines()
    assert len(lines) == 16
    assert lines[0] == "0 0 0 | 0 0 0  ->  0 0 0 0 0 0 0 0 0"
    assert lines[1] == "0 0 0 | 1 1 1  ->  0 0 0 0 1 0 1 0 1"
    assert lines[2] == "0 0 0 | 2 2 2  ->  0 0 0 1 1 1 1 1 1"


def test_gray_json(capsys, c1_file):
    status, out, _ = run_cli(capsys, "gray", "--spec", c1_file, "--json")
    assert status == 0
    data = json.loads(out)
    assert len(data["codewords"]) == len(data["gray_images"]) == 16
    index = data["codewords"].index("0 0 0 | 2 2 2")
    assert data["gray_images"][index] == [0, 0, 0, 1, 1, 1, 1, 1, 1]


def test_verify_text(capsys, c1_file):
    status, out, _ = run_cli(capsys, "verify", "--spec", c1_file)
    assert status == 0
    lines = out.splitlines()
    assert lines[-1] == "all 16 checks passed"
    assert all(line.startswith("ok  ") for line in lines[:-1])


def test_verify_json(capsys, c1_file):
    status, out, _ = run_cli(capsys, "verify", "--spec", c1_file, "--json")
    assert status == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["checks"]) == 16
    assert all(check["ok"] for check in data["checks"])


def test_verify_failure_exits_one(capsys, monkeypatch, c1_file):
    import z2z4cyclic.analysis as analysis

    monkeypatch.setattr(
        analysis,
        "verify_code",
        lambda spec, seed=0, cap=0: [CheckResult("defining-conditions", False, "forced")],
    )
    status, out, _ = run_cli(capsys, "verify", "--spec", c1_file)
    assert status == 1
    assert "FAIL defining-conditions: forced" in out
    assert "1 of 1 checks FAILED" in out


def test_search_text(capsys):
    status, out, _ = run_cli(
        capsys, "search", "--alpha-max", "2", "--beta-set", "1",
        "--predicate", "self_dual",
    )
    assert status == 0
    lines = out.splitlines()
    assert lines[-1] == "1 codes matched self_dual"
    assert "b=x+1 ell=0 f=1 h=x+3" in lines[0]
    assert "type=(2,1;2,0;1)" in lines[0]


def test_search_json(capsys):
    status, out, _ = run_cli(
        capsys, "search", "--alpha-max", "2", "--beta-set", "1,3",
        "--predicate", "self_dual", "--json",
    )
    assert status == 0
    data = json.loads(out)
    assert data["predicate"] == "self_dual"
    assert [m["type"] for m in data["matches"]] == ["(2,1;2,0;1)", "(2,3;4,0;1)"]


# -- exit codes -----------------------------------------------------------------


def test_missing_spec_file_exits_two(capsys):
    status, _, err = run_cli(capsys, "info", "--spec", "/no/such/file.txt")
    assert status == 2
    assert "error:" in err


def test_invalid_spec_exits_two(capsys):
    # b does not divide ell * (x^beta - 1)/f mod 2.
    status, _, err = run_cli(
        capsys, "info", "--alpha", "2", "--beta", "1",
        "--b", "x^2+1", "--ell", "1", "--f", "1", "--h", "x+3",
    )
    assert status == 2
    assert "error:" in err


def test_even_beta_exits_two(capsys):
    status, _, err = run_cli(
        capsys, "info", "--alpha", "2", "--beta", "2",
        "--b", "x+1", "--ell", "0", "--f", "1", "--h", "1",
    )
    assert status == 2
    assert "error:" in err


def test_malformed_polynomial_exits_two(capsys):
    status, _, err = run_cli(
        capsys, "info", "--alpha", "2", "--beta", "1",
        "--b", "x^+1", "--ell", "0", "--f", "1", "--h", "1",
    )
    assert status == 2
    assert "position" in err


def test_non_ascii_digit_in_polynomial_exits_two(capsys):
    status, _, err = run_cli(
        capsys, "info", "--alpha", "3", "--beta", "3",
        "--b", "x^³+1", "--ell", "x+1", "--f", "1", "--h", "x^2+x+1",
    )
    assert status == 2
    assert "position" in err


def test_huge_exponent_exits_three(capsys):
    status, _, err = run_cli(
        capsys, "dual", "--alpha", "3", "--beta", "3",
        "--b", "x^100000", "--ell", "0", "--f", "1", "--h", "1",
    )
    assert status == 3
    assert "degree cap" in err


def test_huge_block_length_exits_three(capsys):
    status, _, err = run_cli(
        capsys, "dual", "--alpha", "100001", "--beta", "3",
        "--b", "x^2+1", "--ell", "0", "--f", "1", "--h", "1",
    )
    assert status == 3
    assert "alpha = 100001" in err


def test_search_with_huge_beta_exits_three_quickly(capsys):
    t0 = time.perf_counter()
    status, _, err = run_cli(
        capsys, "search", "--alpha-max", "1", "--beta-set", "20001", "--predicate", "mdss"
    )
    assert status == 3
    assert "length cap" in err
    assert time.perf_counter() - t0 < 2


def test_search_with_too_many_tuples_exits_three_quickly(capsys):
    # x^63 - 1 has 13 irreducible factors: 4251528 tuples for alpha = 1.
    t0 = time.perf_counter()
    status, _, err = run_cli(
        capsys, "search", "--alpha-max", "1", "--beta-set", "63", "--predicate", "mdss"
    )
    assert status == 3
    assert "4251528 tuples" in err
    assert time.perf_counter() - t0 < 2


def test_verify_with_huge_shift_period_exits_three_quickly(capsys):
    # A one-word code whose lcm(alpha, beta) = 261632 is above the length cap.
    t0 = time.perf_counter()
    status, _, err = run_cli(
        capsys, "verify", "--alpha", "512", "--beta", "511",
        "--b", "x^512+1", "--ell", "0", "--f", "x^511+3", "--h", "1",
    )
    assert status == 3
    assert "lcm(alpha, beta) = 261632" in err
    assert time.perf_counter() - t0 < 2


def test_command_dict_missing_a_key_is_a_parse_error():
    fields = dict(zip(("alpha", "beta", "b", "ell", "f"), ("3", "3", "x^3+1", "x+1", "1")))
    with pytest.raises(ParseError, match="^missing keys: h$"):
        run(Command(verb="dual", spec_source=fields))


def test_undecodable_spec_file_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"alpha=\xff\n")
    status, _, err = run_cli(capsys, "info", "--spec", str(path))
    assert status == 2
    assert "error:" in err


def test_incomplete_inline_spec_exits_two(capsys):
    status, _, err = run_cli(capsys, "info", "--alpha", "3", "--beta", "3")
    assert status == 2
    assert "inline spec is missing: b, ell, f, h" in err


def test_spec_file_and_inline_flags_conflict(capsys, c1_file):
    status, _, err = run_cli(capsys, "info", "--spec", c1_file, "--alpha", "3")
    assert status == 2
    assert "not both" in err


def test_no_spec_at_all_exits_two(capsys):
    status, _, err = run_cli(capsys, "info")
    assert status == 2
    assert "no spec given" in err


def test_cap_overflow_exits_three(capsys, c1_file):
    status, _, err = run_cli(capsys, "enumerate", "--spec", c1_file, "--cap", "8")
    assert status == 3
    assert "above the cap" in err


def test_unknown_verb_exits_two(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_no_arguments_exits_two(capsys):
    assert run_cli(capsys)[0] == 2


def test_bad_beta_set_exits_two(capsys):
    status, _, err = run_cli(
        capsys, "search", "--alpha-max", "2", "--beta-set", "one",
        "--predicate", "mdss",
    )
    assert status == 2
    assert "comma-separated" in err


# -- polynomial argument parsing --------------------------------------------------


def test_parse_poly_human_form():
    assert QuatPoly.parse("x^4+2x^3+3x^2+x+1").coeffs == (1, 1, 3, 2, 1)
    assert BinPoly.parse("0").is_zero


def test_parse_poly_coefficient_list():
    assert BinPoly.parse("1,1,0,1") == BinPoly.parse("x^3+x+1")


def test_parse_poly_rejects_syntax_errors():
    with pytest.raises(ParseError):
        BinPoly.parse("x^")
    with pytest.raises(ParseError):
        BinPoly.parse("3x+1")
