"""Command-line front end: verbs, output formats, and exit codes."""

import argparse
import functools
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from z2z4cyclic import (
    BinPoly,
    CheckResult,
    QuatPoly,
    analysis,
    cardinality,
    code_type,
    codeword_matrix,
    dual_spec,
    gray_map,
    iter_valid_specs,
    spec_fields,
    spec_from_fields,
)
from z2z4cyclic.cli import _FLAG_GROUPS, _VERB_TABLE, Command, _build_parser, main, run
from z2z4cyclic.code import _row_word, format_codeword, spanning_set
from z2z4cyclic.errors import InvalidParameter, ParseError

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


def test_dual_type_text_is_the_code_type_of_the_dual_spec():
    # The dual verb writes its type without building the dual spec; it must
    # read as str(CodeType) of that spec does.
    for alpha in range(1, 5):
        for beta in (1, 3, 5):
            for spec in iter_valid_specs(alpha, beta):
                _, out = run(Command("dual", spec_fields(spec), "json"))
                assert json.loads(out)["dual_type"] == str(code_type(dual_spec(spec))), spec


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


LISTED_SPECS = {
    "worked": dict(zip(C1_INLINE[::2], C1_INLINE[1::2])),
    "mdss-3-5": spec_fields(analysis.construct_mdss(3, 5)),  # |C| = 2^2 * 4^5 = 2^12
    # |C| = 2^(33 - 30) = 8; 33 + 2*17 = 67 bits, so two key limbs.
    "two-limb-33-17": {
        "alpha": 33,
        "beta": 17,
        "b": "x^30+x^27+x^24+x^21+x^18+x^15+x^12+x^9+x^6+x^3+1",
        "ell": "0",
        "f": "x^17+3",
        "h": "1",
    },
}


@pytest.mark.parametrize("name", sorted(LISTED_SPECS))
def test_listings_match_the_per_codeword_rendering(capsys, name):
    flags = {k.lstrip("-"): str(v) for k, v in LISTED_SPECS[name].items()}
    spec = spec_from_fields(flags)
    mat = codeword_matrix(spec)
    words = [format_codeword(_row_word(row, spec.alpha)) for row in mat]
    images = [list(gray_map(_row_word(row, spec.alpha))) for row in mat]
    want = {
        ("enumerate", False): "\n".join([f"|C| = {len(words)}"] + words),
        ("enumerate", True): json.dumps({"cardinality": len(words), "codewords": words}, indent=2),
        ("gray", False): "\n".join(
            f"{w}  ->  {' '.join(str(bit) for bit in img)}" for w, img in zip(words, images)
        ),
        ("gray", True): json.dumps({"codewords": words, "gray_images": images}, indent=2),
    }
    argv = [arg for k, v in flags.items() for arg in (f"--{k}", v)]
    for (verb, as_json), text in want.items():
        status, out, err = run_cli(capsys, verb, *argv, *(["--json"] if as_json else []))
        assert (status, err) == (0, "")
        # Compared as lines: pytest's diff of two long strings takes minutes.
        assert out.endswith("\n") and out[:-1].split("\n") == text.split("\n"), (verb, as_json)


MATRIX_SPECS = {
    "worked": LISTED_SPECS["worked"],
    # |S1| = 3 - deg b = 2, |S2| = deg g = 1, |S3| = deg h = 2.
    "all-blocks": {"alpha": 3, "beta": 3, "b": "x+1", "ell": "1", "f": "1", "h": "x^2+x+1"},
}


@pytest.mark.parametrize("name", sorted(MATRIX_SPECS))
def test_matrix_matches_the_per_codeword_rendering(capsys, name):
    flags = {k.lstrip("-"): str(v) for k, v in MATRIX_SPECS[name].items()}
    spec = spec_from_fields(flags)
    words = iter(spanning_set(spec))
    labeled = {
        block: [format_codeword(next(words)) for _ in range(int(count))]
        for block, count in zip(
            ("S1", "S2", "S3"), (spec.alpha - spec.b.degree, spec.g.degree, spec.h.degree)
        )
    }
    assert next(words, None) is None
    if name == "all-blocks":
        assert all(labeled.values())
    lines = [f"{block}[{i}] {w}" for block, rows in labeled.items() for i, w in enumerate(rows)]
    argv = [arg for k, v in flags.items() for arg in (f"--{k}", v)]
    for as_json, text in ((False, "\n".join(lines)), (True, json.dumps(labeled, indent=2))):
        status, out, err = run_cli(capsys, "matrix", *argv, *(["--json"] if as_json else []))
        assert (status, err, out) == (0, "", text + "\n"), as_json


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


def test_verify_accepts_a_negative_seed(capsys, c1_file):
    status, out, _ = run_cli(capsys, "verify", "--spec", c1_file, "--seed", "-1")
    assert status == 0
    assert out.splitlines()[-1] == "all 16 checks passed"


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


NINE_NINE = ["--alpha", "9", "--beta", "9", "--b", "x^9+1", "--ell", "0", "--f", "x^9+3", "--h", "1"]
INVOLUTION_OK = "ok   duality-involution: dual of the dual reproduces the codeword set"


def test_verify_reports_checks_a_cap_refused(capsys):
    # The one-word code: its dual is the whole 2^27-word ambient, above ENUM_CAP.
    # Only the oracle enumerates the dual; the involution enumerates C alone.
    reason = "code has 134217728 codewords, above the cap of 4194304"
    status, out, _ = run_cli(capsys, "verify", *NINE_NINE)
    assert status == 0
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("skip")] == [f"skip dual-oracle: {reason}"]
    assert INVOLUTION_OK in lines
    assert lines[-1] == "15 passed, 1 skipped"

    status, out, _ = run_cli(capsys, "verify", *NINE_NINE, "--json")
    assert status == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["checks"]) == 16
    skipped = [c for c in data["checks"] if c["ok"] is None]
    assert [(c["name"], c["detail"]) for c in skipped] == [("dual-oracle", reason)]
    assert all(c["ok"] is True for c in data["checks"] if c not in skipped)


def test_verify_reports_a_huge_refused_count_as_a_power_of_two(capsys):
    # |C| = 2^5, so |C_dual| = 2^(5 + 2*819 - 5) = 2^1638, about 490 digits in full,
    # and |C| * |C_dual| = 2^1643.
    status, out, _ = run_cli(
        capsys, "verify", "--alpha", "5", "--beta", "819", "--b", "1", "--ell", "0",
        "--f", "x^819+3", "--h", "1",
    )
    assert status == 0
    lines = out.splitlines()
    skips = [line for line in lines if line.startswith("skip")]
    assert skips == ["skip dual-oracle: code has 2^1638 codewords, above the cap of 4194304"]
    assert INVOLUTION_OK in lines
    assert "ok   cardinality-product: |C| * |C_dual| = 2^1643 = 2^1643" in lines
    assert all(len(line) < 200 for line in lines)


def test_verify_skips_only_the_oracle_above_the_ambient_cap():
    # 2^(2 + 2*13) ambient vectors are above AMBIENT_CAP; |C_dual| = 2^14 is not.
    fields = spec_fields(analysis.construct_self_dual_family(2, 13))
    reason = "ambient space has 268435456 vectors, above the cap of 16777216"
    status, out = run(Command(verb="verify", spec_source=fields))
    assert status == 0
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("skip")] == [f"skip dual-oracle: {reason}"]
    assert "ok   duality-involution: dual of the dual reproduces the codeword set" in lines
    assert lines[-1] == "15 passed, 1 skipped"

    status, out = run(Command(verb="verify", spec_source=fields, output_format="json"))
    data = json.loads(out)
    assert status == 0 and data["passed"] is True
    assert [c["name"] for c in data["checks"] if c["ok"] is None] == ["dual-oracle"]
    assert len(data["checks"]) == 16


def test_verify_failure_with_a_skip_counts_only_the_checks_that_ran(capsys, monkeypatch, c1_file):
    import z2z4cyclic.analysis as analysis

    monkeypatch.setattr(
        analysis,
        "verify_code",
        lambda spec, seed=0, cap=0: [
            CheckResult("defining-conditions", False, "forced"),
            CheckResult("dual-oracle", None, "refused"),
        ],
    )
    status, out, _ = run_cli(capsys, "verify", "--spec", c1_file)
    assert status == 1
    assert out.splitlines()[-2:] == ["skip dual-oracle: refused", "1 of 1 checks FAILED, 1 skipped"]


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
    cases = [
        # A one-word code whose lcm(alpha, beta) = 261632 is above the length cap.
        ("512", "511", "x^512+1", "0", "x^511+3", "lcm(alpha, beta) = 261632"),
        # A 2^20-word code inside the word cap, with lcm(alpha, beta) = 4160: refused
        # before its words are enumerated.
        ("64", "65", "x^44+x^40+x^36+x^32+x^12+x^8+x^4+1", "0", "x^65+3", "lcm(alpha, beta) = 4160"),
        # MDSS (127, 63), which both caps refuse, is refused for its size first.
        ("127", "63", "x+1", "1", "1", "code has 2^252 codewords, above the cap of 4194304"),
    ]
    for alpha, beta, b, ell, f, refusal in cases:
        t0 = time.perf_counter()
        status, _, err = run_cli(
            capsys, "verify", "--alpha", alpha, "--beta", beta,
            "--b", b, "--ell", ell, "--f", f, "--h", "1",
        )
        assert status == 3
        assert refusal in err
        assert time.perf_counter() - t0 < 2


def test_verify_with_long_shift_period_below_the_cap_is_quick(capsys):
    # A 32-word code with lcm(alpha, beta) = 4095, just below the length cap:
    # circ-shift-equivalence compares 4095 shifted inner products per pair.
    t0 = time.perf_counter()
    status, out, _ = run_cli(
        capsys, "verify", "--alpha", "5", "--beta", "819",
        "--b", "1", "--ell", "0", "--f", "x^819+3", "--h", "1",
    )
    assert status == 0
    assert "circ-shift-equivalence" in out
    assert time.perf_counter() - t0 < 2


# sha256 of run()'s output on two ambients wider than 64 bits (68 and 67),
# whose packed keys take two limbs, as rendered when codeword sets were
# sorted as int16 rows and Gray images built as int16 rows.  Both duals
# are above ENUM_CAP, so the verify digests include dual-oracle as
# skipped; the 65/1 dual's 2^66 words are reported as 2^66, and
# |C| * |C_dual| (2^68 and 2^67) as a power of two too, not in full.
WIDE_SPECS = {
    "50/9": ("50", "9", "x^50+1", "0", "x^3+3", "1"),  # |C| = 4096
    "65/1": ("65", "1", "x^65+1", "0", "1", "x+3"),  # |C| = 2
}
WIDE_DIGESTS = {
    ("50/9", "info", "text"): "62cc4de9c0d6adcd112557a7fe6a8c56e0b71c09581f94591d81b51f55dac95d",
    ("50/9", "info", "json"): "3e7ac7fea10bdbbe7bbf3c4d0a6cefb2b088e7c255e8bfbb7f459112396ad0d6",
    ("50/9", "enumerate", "text"): "fe59d047cb6048276db5bafb678e4b051c7ffafe70f9fdde618a658425c70492",
    ("50/9", "enumerate", "json"): "3465f8781d59fa6d95c751156552daf708a417b0e97bd4dd351fe9007036550a",
    ("50/9", "gray", "text"): "ba9a1aeb03a087ed5e32ea99636493c18269d89f9293569ccd2a0f02871e88b2",
    ("50/9", "gray", "json"): "5bda98123a12c3ca9fdbcaa6921334b850cd0c687950280d3f352cedee5940d8",
    ("50/9", "verify", "text"): "89ef2394e41fe5fc0ec61d771ff24abe265e47e4c21a790df9c67dde1a6c8394",
    ("50/9", "verify", "json"): "8ed6adbc46a4cb95c43acc802c959076e3b15fc1c3ba68bb70badcaa29f34c0d",
    ("65/1", "info", "text"): "2774f57d11096d8cec3fd3b0fdb78c894186bf3bb4d562200f9c4ad5499d560d",
    ("65/1", "info", "json"): "aecc8a320550ef73044c13387ef308752ff1feae4b95e600d81844f3bcad2e98",
    ("65/1", "enumerate", "text"): "93e06163c6c4452a12be1231074c595be2e7621535e3f9f82f8b2fa6262eb594",
    ("65/1", "enumerate", "json"): "364738be9c029dea9822ae54ba26e0f15f58c7ccaa9adcf99cca519df4afaf8d",
    ("65/1", "gray", "text"): "083efe2cb73c489ba91a4002b3c6d724cef6ef3224d851a473be1ccbebb8b03d",
    ("65/1", "gray", "json"): "51d12e929ed3994db9b12b9d6796d98544825f87d826cd72bfe83f7a192c88f7",
    ("65/1", "verify", "text"): "547363582283610f91a5e124c821e32111198b843e3c3d3857fe48e120f374a2",
    ("65/1", "verify", "json"): "286247a1c52d93d01b0abcb68d3e3a06ab97755d71f4452496fe351ff4bb7afc",
}


# Rows of alpha + 2*beta = 32 bits, the widest that packs into one uint32 key,
# and of 33 bits, the narrowest that takes a uint64 key; 512 words each.
BOUNDARY_SPECS = {
    "14/9": ("14", "9", "x^14+1", "0", "1", "x^9+3"),
    "15/9": ("15", "9", "x^15+1", "0", "1", "x^9+3"),
}
BOUNDARY_DIGESTS = {
    ("14/9", "info", "text"): "7c7707532ce16d55e3594a5beab2119a71da6f5b8da0f2f3f03da721ae0eb2b9",
    ("14/9", "info", "json"): "f1643283a9199097b728b4907b942c75098d4dec547534592862a50d45759c43",
    ("14/9", "enumerate", "text"): "e4ff8af6a206a921639ff9c15900a87534c504967fa88697123e53c8eed12edf",
    ("14/9", "enumerate", "json"): "6d1b3f0529326f94ae073298dcfb140488c1867291228324c2fed46d8bad2ec6",
    ("14/9", "gray", "text"): "06f2762a92761691435c1190763face1c5da58660d0e95f79a5fe0012917ef13",
    ("14/9", "gray", "json"): "40fc40822e91e6adcb8e4a45e5352cb9b6d597ed9cb975fbd7656cd10676f673",
    ("14/9", "verify", "text"): "10904947e9512f1c3c5a858d079f240165e4157627d790ad1585a78b3e3664ec",
    ("14/9", "verify", "json"): "75056d630c4e7195bacc36bee54fe17172d6ea8e7efbf391615fd834841f6c79",
    ("15/9", "info", "text"): "6d12dd6ce2ec8a8b7148127c52e6a78a5e7780a8378b66352d1bb22b699866b2",
    ("15/9", "info", "json"): "a08ae8e5c83c414727fda5766be2786b34b1f845f3c34fba833fc8d2efd107b8",
    ("15/9", "enumerate", "text"): "1289db61b9c189e30ad4a2f628d1242f1bb2d437693be5902b73fb39063a7c6b",
    ("15/9", "enumerate", "json"): "9f087093a6c49d3bcb3fb68bdf9edccd658f9d13f0db03006ed4ec8284d72b8a",
    ("15/9", "gray", "text"): "e79a8330d86416ce19c5aafc751c982f16a461c2639f58e56d5495bb7e2238be",
    ("15/9", "gray", "json"): "a540bb0d0d06aa696102929f765ceaac24eadec5a6d562fc119238bf667feb23",
    ("15/9", "verify", "text"): "236ec3882b5fe6d72085dffb97aac8ea5dfb05e1233b3b51d043644959951f2d",
    ("15/9", "verify", "json"): "98fbaae8d019adb9fd0a80ada726c2d6329cffea5f8782c33c24a2ad21b8794b",
}


def _assert_digest(spec, verb, fmt, digest):
    fields = dict(zip(("alpha", "beta", "b", "ell", "f", "h"), spec))
    status, out = run(Command(verb=verb, spec_source=fields, output_format=fmt))
    assert status == 0
    if (verb, fmt) == ("verify", "text"):
        assert out.endswith("\n15 passed, 1 skipped")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, verb, fmt", sorted(WIDE_DIGESTS))
def test_wide_ambient_outputs_are_unchanged(name, verb, fmt):
    _assert_digest(WIDE_SPECS[name], verb, fmt, WIDE_DIGESTS[name, verb, fmt])


@pytest.mark.parametrize("name, verb, fmt", sorted(BOUNDARY_DIGESTS))
def test_limb_word_boundary_outputs_are_unchanged(name, verb, fmt):
    _assert_digest(BOUNDARY_SPECS[name], verb, fmt, BOUNDARY_DIGESTS[name, verb, fmt])


# sha256 over the (status, output) pairs of run() for one (verb, format)
# group of a sample: every 4th valid tuple with alpha <= 5 and beta in
# {1, 3, 5, 7} under info, dual, matrix and verify, the same tuples with
# |C| <= 2^10 under enumerate and gray, and the three search predicates
# over alpha <= 3 and beta in {1, 3}.  Recorded when search factored
# x^beta - 1 before counting tuples and the dual divided f_bar*h_bar by
# f_bar over Z4.
SAMPLE_DIGESTS = {
    ("dual", "json"): "0f1dc6f17bd4fe9710e4cd74003e3dce3b2abe3dddd163795a6180686cc3dd22",
    ("dual", "text"): "dca82ec741bccfc66d4a85aa44b9167e42575652344c578f2ba6da766ff54fe9",
    ("enumerate", "json"): "be03bbec8a70b2ae1641170721ba7a1aa5b8e0c8360309880091cc23f2b2df2e",
    ("enumerate", "text"): "3000d1976a754a8c3879037604814a5ed90340e90ba8478a14fa6d15668c631d",
    ("gray", "json"): "6da3fe46c40948b0e20db0690b49d0188cf1ca4d88e3c2f0f9e59671ccfbb78c",
    ("gray", "text"): "4b7a567c74892f3e06f280def973621bddf7429e97a3fb86f26eabcff3f90739",
    ("info", "json"): "0c1fabc0b1477c21c6b29ce53f6407f88ffcd28c29af0a4b59d6ea776f907805",
    ("info", "text"): "2e1b99caa116d8c9f3509c72e7a6223a58da78d856cf0ff28f695c2f3f53556d",
    ("matrix", "json"): "5776bc8a026a463c3e12b7070432714afaddcece1c42d0b727c4585d5313ecea",
    ("matrix", "text"): "4bff2c7384c6dc3228a0f4d1faf6b79ba32bc7dbd0f1f00dbc7c493f1137cd7b",
    ("search", "json"): "232152851e4bf6b2287c9152de4f2c00273b2cca69b8ac222c5112eeb54452f6",
    ("search", "text"): "42ee3b7ab0f697b178a376fe8f2be2a06bd0eba9ada175f63320e741a37c612e",
    ("verify", "json"): "c3c061f4ccd2b9da282da895382702f91b40d9f3488db1d3c01bd94d61118eb8",
    ("verify", "text"): "3dd834fd4e1ff201764059e506ab33feb10df7b27dd080724c6340033a2841a9",
}


@functools.cache
def _sample_specs():
    specs = [s for a in range(1, 6) for b in (1, 3, 5, 7) for s in iter_valid_specs(a, b)]
    return specs[::4]


def _sample_commands(verb, fmt):
    if verb == "search":
        for predicate in analysis._PREDICATES:
            yield Command(verb, None, fmt, alpha_max=3, beta_set=(1, 3), predicate=predicate)
        return
    for spec in _sample_specs():
        if verb not in ("enumerate", "gray") or cardinality(spec) <= 2**10:
            yield Command(verb, spec_fields(spec), fmt)


@pytest.mark.parametrize("verb, fmt", sorted(SAMPLE_DIGESTS))
def test_sampled_outputs_are_unchanged(verb, fmt):
    digest = hashlib.sha256()
    for cmd in _sample_commands(verb, fmt):
        digest.update(repr(run(cmd)).encode())
    assert digest.hexdigest() == SAMPLE_DIGESTS[verb, fmt]


# sha256 over the (status, output) pairs of run() under dual, per format, for
# every valid tuple with alpha <= 8 and beta in {1, 3, 5, 7}, in iter_valid_specs
# order: the closed_form benchmark's 6396 tuples, all nine output fields.
# Recorded when the dual was computed on DensePoly objects and JSON was
# rendered by json.dumps(indent=2).
FAMILY_DIGESTS = {
    "text": "6b7f21779f602ab95efc655757e7861e29086fa8b49b251f49f3ecc0bc99e648",
    "json": "77abb6611d63c5141d56f8ecc1e2ec9557ba48ed122737895d07fb916f0696e9",
}


@functools.cache
def _family_specs():
    return [s for a in range(1, 9) for b in (1, 3, 5, 7) for s in iter_valid_specs(a, b)]


@pytest.mark.parametrize("fmt", sorted(FAMILY_DIGESTS))
def test_dual_outputs_over_the_closed_form_family_are_unchanged(fmt):
    specs = _family_specs()
    assert len(specs) == 6396
    digest = hashlib.sha256()
    for spec in specs:
        digest.update(repr(run(Command("dual", spec_fields(spec), fmt))).encode())
    assert digest.hexdigest() == FAMILY_DIGESTS[fmt]


@pytest.mark.parametrize("fmt", ["JSON", "", "yaml", None])
def test_run_refuses_an_unknown_output_format_before_loading_the_spec(c1_file, fmt):
    with pytest.raises(InvalidParameter, match="^output format must be 'text' or 'json', not "):
        run(Command("dual", c1_file, fmt))
    # No spec at all would be a ParseError once loaded; the format is refused first.
    with pytest.raises(InvalidParameter):
        run(Command("dual", None, fmt))


@pytest.mark.parametrize("alpha", [3.7, True, None])
def test_command_dict_length_of_the_wrong_type_is_a_parse_error(alpha):
    fields = {"alpha": alpha, "beta": 3, "b": "x^3+1", "ell": "x+1", "f": "1", "h": "x^2+x+1"}
    with pytest.raises(ParseError, match="^alpha and beta must be integers$"):
        run(Command(verb="dual", spec_source=fields))


# int() reads each of these: an underscore between digits, FULLWIDTH DIGIT
# THREE and ARABIC-INDIC DIGIT THREE.
NOT_ASCII_INTEGERS = ["1_0", "\uff13", "\u0663"]
LENGTH_REFUSAL = "error: alpha and beta must be integers\n"
C1_FIELDS = {k.lstrip("-"): v for k, v in zip(C1_INLINE[::2], C1_INLINE[1::2])}


@pytest.mark.parametrize("text", NOT_ASCII_INTEGERS)
def test_integers_are_ascii_numerals_on_every_entry_point(capsys, tmp_path, text):
    path = tmp_path / "spec.txt"
    path.write_text(C1_TEXT.replace("beta=3", f"beta={text}"), encoding="utf-8")
    search = ["search", "--alpha-max", "1", "--beta-set", "1", "--predicate", "mdss"]
    cases = [
        (["info", "--spec", str(path)], LENGTH_REFUSAL),
        (["dual", "--alpha", text, *C1_INLINE[2:]], LENGTH_REFUSAL),
        (["dual", *C1_INLINE[:3], text, *C1_INLINE[4:]], LENGTH_REFUSAL),
        (search[:4] + [f"1,{text}"] + search[5:], "error: --beta-set must be comma-separated integers\n"),
        (search[:2] + [text] + search[3:], f"argument --alpha-max: invalid int value: {text!r}\n"),
        (["info", *C1_INLINE, "--cap", text], f"argument --cap: invalid int value: {text!r}\n"),
        (["verify", *C1_INLINE, "--seed", text], f"argument --seed: invalid int value: {text!r}\n"),
    ]
    for argv, refusal in cases:
        status, out, err = run_cli(capsys, *argv)
        assert (status, out) == (2, ""), argv
        assert err.endswith(refusal), argv
    fields = {**C1_FIELDS, "alpha": text}
    with pytest.raises(ParseError, match="^alpha and beta must be integers$"):
        run(Command(verb="dual", spec_source=fields))


def test_integers_take_a_sign_and_surrounding_whitespace(capsys, c1_file):
    _, want, _ = run_cli(capsys, "verify", "--spec", c1_file, "--cap", "16")
    inline = ["--alpha", "+3", "--beta", " 3 ", *C1_INLINE[4:]]
    status, out, _ = run_cli(capsys, "verify", *inline, "--cap", " +16 ", "--seed", "+0")
    assert (status, out) == (0, want)
    fields = {**C1_FIELDS, "alpha": " +3 "}
    assert run(Command(verb="dual", spec_source=fields)) == run(Command("dual", C1_FIELDS))
    status, out, _ = run_cli(
        capsys, "search", "--alpha-max", "+2", "--beta-set", " 1, +3 ", "--predicate", "mdss"
    )
    assert (status, out) == run_cli(
        capsys, "search", "--alpha-max", "2", "--beta-set", "1,3", "--predicate", "mdss"
    )[:2]


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


def input_flags(verb, spec_file):
    """Flags that give the verb its input: a spec file, or search's three."""
    if verb == "search":
        return ["--alpha-max", "2", "--beta-set", "1", "--predicate", "mdss"]
    return ["--spec", spec_file]


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("verb", ["enumerate", "search"])
def test_cap_below_one_exits_two(capsys, c1_file, verb, cap):
    status, out, err = run_cli(capsys, verb, *input_flags(verb, c1_file), "--cap", cap)
    assert (status, out) == (2, "")
    assert err == f"error: --cap must be at least 1, not {cap}\n"


@pytest.mark.parametrize("cap", [0, -1, float("nan")], ids=repr)
@pytest.mark.parametrize("verb", ["info", "dual", "matrix", "enumerate", "gray", "verify", "search"])
def test_run_refuses_a_cap_below_one_as_a_usage_error(c1_file, verb, cap):
    # Through run, with no argument parser: the cap is refused as a usage error
    # (exit 2), not as a code above the cap (exit 3), on every verb, dual and
    # matrix included though they never enumerate.
    if verb == "search":
        cmd = Command(verb=verb, spec_source=None, alpha_max=1, beta_set=(1,), predicate="mdss", cap=cap)
    else:
        cmd = Command(verb=verb, spec_source=c1_file, cap=cap)
    message = f"at least 1, not {cap}" if isinstance(cap, int) else f"an integer, not {cap!r}"
    with pytest.raises(InvalidParameter, match=f"^cap must be {message}$"):
        run(cmd)


def test_reader_closing_the_pipe_early_exits_141_without_a_traceback():
    # 16384 codewords, about 320 kB of text: far more than the pipe buffer, so
    # the writer is still writing when the reader stops after one line.
    argv = ["enumerate", "--alpha", "4", "--beta", "5", "--b", "1", "--ell", "0", "--f", "1", "--h", "1"]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "z2z4cyclic.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"|C| = 16384\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_unknown_verb_exits_two(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def _verb_parsers():
    parser = _build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return subs.choices


def test_every_verb_the_parser_offers_dispatches_through_run():
    fields = dict(line.split("=") for line in C1_TEXT.split())
    verbs = list(_verb_parsers())
    assert len(verbs) == 7
    for verb in verbs:
        cmd = Command(
            verb=verb, spec_source=fields, alpha_max=1, beta_set=(1,), predicate="separable"
        )
        status, out = run(cmd)
        assert status == 0 and out, verb
    with pytest.raises(InvalidParameter, match="unknown verb"):
        run(Command(verb="frobnicate", spec_source=fields))


SPEC_FLAGS = {"--spec", "--alpha", "--beta", "--b", "--ell", "--f", "--h"}
SEARCH_FLAGS = {"--alpha-max", "--beta-set", "--predicate"}
VERB_FLAGS = {
    "info": SPEC_FLAGS | {"--cap"},
    "dual": SPEC_FLAGS,
    "matrix": SPEC_FLAGS,
    "enumerate": SPEC_FLAGS | {"--cap"},
    "gray": SPEC_FLAGS | {"--cap"},
    "verify": SPEC_FLAGS | {"--cap", "--seed"},
    "search": SEARCH_FLAGS | {"--cap"},
}


def test_each_verb_offers_json_and_the_flags_of_its_table_row():
    parsers = _verb_parsers()
    assert list(parsers) == list(_VERB_TABLE)
    for verb, (_, _, groups) in _VERB_TABLE.items():
        offered = {flag for a in parsers[verb]._actions for flag in a.option_strings}
        from_table = {flag for group in ("json", *groups) for flag, _ in _FLAG_GROUPS[group]}
        assert offered - {"-h", "--help"} == from_table == VERB_FLAGS[verb] | {"--json"}, verb


@pytest.mark.parametrize("verb, flag", [
    ("info", "--seed"),
    ("dual", "--seed"),
    ("dual", "--cap"),
    ("matrix", "--seed"),
    ("matrix", "--cap"),
    ("enumerate", "--seed"),
    ("gray", "--seed"),
    ("search", "--seed"),
])
def test_a_flag_the_verb_does_not_read_exits_two(capsys, c1_file, verb, flag):
    status, out, err = run_cli(capsys, verb, *input_flags(verb, c1_file), flag, "1")
    assert (status, out) == (2, "")
    assert err.endswith(f"error: unrecognized arguments: {flag} 1\n")


def test_predicate_choices_are_the_names_search_codes_accepts():
    search = _verb_parsers()["search"]
    action = next(a for a in search._actions if a.dest == "predicate")
    assert tuple(action.choices) == analysis._PREDICATES
    for predicate in action.choices:
        assert isinstance(analysis.search_codes(1, (1,), predicate), list)
    with pytest.raises(InvalidParameter):
        analysis.search_codes(1, (1,), "cyclic")


def test_no_arguments_exits_two(capsys):
    assert run_cli(capsys)[0] == 2


def test_bad_beta_set_exits_two(capsys):
    status, _, err = run_cli(
        capsys, "search", "--alpha-max", "2", "--beta-set", "one",
        "--predicate", "mdss",
    )
    assert status == 2
    assert "comma-separated" in err


def test_empty_beta_set_exits_two(capsys):
    status, out, err = run_cli(
        capsys, "search", "--alpha-max", "2", "--beta-set", ",", "--predicate", "self_dual",
    )
    assert (status, out, err.strip()) == (2, "", "error: --beta-set must name at least one value")


@pytest.mark.parametrize("beta, message", [
    ("0", "error: beta must be a positive integer"),
    ("2", "error: beta = 2 is even; quaternary lengths must be odd"),
], ids=("zero", "even"))
def test_refused_beta_in_beta_set_is_named(capsys, beta, message):
    status, _, err = run_cli(
        capsys, "search", "--alpha-max", "2", "--beta-set", beta, "--predicate", "mdss",
    )
    assert status == 2
    assert err.strip() == message


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
