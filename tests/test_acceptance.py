"""End-to-end acceptance runs: the nine headline guarantees at stated bounds.

Each criterion is one test, so ``pytest -v`` prints one pass/fail line per
criterion; every test also prints a PASS line with its measured runtime
(visible with -s or in the captured-output section).

The shared exhaustive family — every valid generator tuple with alpha <= 5
and beta in {1, 3, 5} — is enumerated once, with formula duals, brute-force
duals, and measured type parameters summarized per spec.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from z2z4cyclic import (
    Codeword,
    circ_product,
    code_report,
    code_type,
    code_type_from_words,
    codeword_matrix,
    construct_mdss,
    construct_self_dual_family,
    cyclic_shift,
    dual_generators,
    dual_spec,
    gray_map,
    hensel_divisibility_check,
    inner_product,
    iter_valid_specs,
    theta,
    validate_spec,
)
from z2z4cyclic import gf2poly as gf2
from z2z4cyclic import z4poly as z4
from z2z4cyclic.dual import brute_force_dual_matrix

from conftest import bp, qp, word, word_set

FAMILY_ALPHA_MAX = 5
FAMILY_BETAS = (1, 3, 5)
FAMILY_SIZE = 820


def _stamp(label: str, t0: float, detail: str) -> None:
    print(f"PASS {label} ({time.perf_counter() - t0:.2f}s): {detail}")


@pytest.fixture(scope="module")
def family():
    """Per-spec summaries over the exhaustive alpha <= 5, beta in {1,3,5} family."""
    t0 = time.perf_counter()
    rows = []
    for alpha in range(1, FAMILY_ALPHA_MAX + 1):
        for beta in FAMILY_BETAS:
            for spec in iter_valid_specs(alpha, beta):
                mat = codeword_matrix(spec)
                formula_dual = codeword_matrix(dual_spec(spec))
                brute_dual = brute_force_dual_matrix(spec)
                t = code_type(spec)
                measured = code_type_from_words(alpha, beta, mat)
                n_x = len(np.unique(mat[:, :alpha], axis=0))
                n_y = len(np.unique(mat[:, alpha:], axis=0))
                back = codeword_matrix(dual_spec(dual_spec(spec)))
                rows.append(
                    {
                        "spec": spec,
                        "n": len(mat),
                        "n_dual": len(brute_dual),
                        "oracle_equal": np.array_equal(formula_dual, brute_dual),
                        "cardinality_ok": len(mat)
                        == 2 ** (alpha - spec.b.degree)
                        * 4**spec.g.degree
                        * 2**spec.h.degree,
                        "type_ok": measured == t,
                        "hensel_ok": hensel_divisibility_check(spec),
                        "involution_ok": np.array_equal(back, mat),
                        "sep_product": n_x * n_y == len(mat),
                        "sep_type": t.is_separable,
                        "sep_ell": spec.ell.is_zero,
                    }
                )
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


def test_criterion_1_worked_example_and_its_dual():
    t0 = time.perf_counter()
    spec = validate_spec(3, 3, bp("x^3+1"), bp("x+1"), qp("1"), qp("x^2+x+1"))
    assert str(code_type(spec)) == "(3,3;2,1;2)"

    code = word_set(codeword_matrix(spec), 3)
    assert len(code) == 16
    for row in ("1 0 1 | 0 0 2", "1 1 0 | 0 2 2", "0 0 0 | 1 1 1"):
        assert word(row) in code

    d = dual_generators(spec)
    assert (d.b_bar, d.ell_bar) == (bp("x^2+x+1"), bp("x"))
    assert (d.f_bar, d.h_bar) == (qp("x+3"), qp("1"))

    dual_code = word_set(codeword_matrix(dual_spec(spec)), 3)
    assert len(dual_code) == 32
    for row in ("1 1 1 | 0 0 0", "0 0 1 | 0 1 3", "1 0 0 | 1 0 3"):
        assert word(row) in dual_code

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _stamp("criterion 1", t0, "generator/parity rows and exact dual tuple")


def test_criterion_2_dual_oracle_equivalence(family):
    t0 = time.perf_counter()
    rows = family["rows"]
    assert len(rows) == FAMILY_SIZE
    assert all(r["oracle_equal"] for r in rows)
    for r in rows:
        spec = r["spec"]
        assert r["n"] * r["n_dual"] == 2 ** (spec.alpha + 2 * spec.beta)
    assert family["elapsed"] < 300.0
    _stamp(
        "criterion 2",
        t0,
        f"{len(rows)} specs, formula dual == brute dual, "
        f"family built in {family['elapsed']:.2f}s",
    )


def test_criterion_3_cardinality_and_type_formulas(family):
    t0 = time.perf_counter()
    rows = family["rows"]
    assert len(rows) == FAMILY_SIZE
    assert all(r["cardinality_ok"] for r in rows)
    assert all(r["type_ok"] for r in rows)
    _stamp("criterion 3", t0, f"{len(rows)} specs, measured == formula on 7 parameters")


def test_criterion_4_self_dual_catalog_rows():
    t0 = time.perf_counter()
    row_14_7 = validate_spec(
        14,
        7,
        bp("x^10+x^8+x^7+x^3+x+1"),
        bp("x^6+x^4+x+1"),
        qp("1"),
        qp("x^4+2x^3+3x^2+x+1"),
    )
    row_10_5 = construct_self_dual_family(10, 5)
    assert str(code_type(row_14_7)) == "(14,7;8,3;7)"
    assert str(code_type(row_10_5)) == "(10,5;10,0;5)"
    for spec, size in ((row_14_7, 2**14), (row_10_5, 2**10)):
        mat = codeword_matrix(spec)
        assert len(mat) == size
        assert np.array_equal(mat, codeword_matrix(dual_spec(spec)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _stamp("criterion 4", t0, "both catalog rows self-dual by set equality")


def test_criterion_5_self_dual_family():
    t0 = time.perf_counter()
    checked = 0
    for alpha in (2, 4, 6, 8, 10):
        for beta in (1, 3, 5, 7):
            spec = construct_self_dual_family(alpha, beta)
            expected = f"({alpha},{beta};{beta + alpha // 2},0;{alpha // 2})"
            assert str(code_type(spec)) == expected
            assert code_report(spec).is_self_dual
            checked += 1
    _stamp("criterion 5", t0, f"{checked} (alpha, beta) pairs")


def test_criterion_6_mdss_pair():
    t0 = time.perf_counter()
    for alpha in (1, 2, 3, 4):
        for beta in (1, 3, 5):
            spec = construct_mdss(alpha, beta)
            n = alpha + 2 * beta

            images = {gray_map(w) for w in word_set(codeword_matrix(spec), alpha)}
            even = {
                v for v in itertools.product((0, 1), repeat=n) if sum(v) % 2 == 0
            }
            assert images == even
            report = code_report(spec)
            if n >= 2:
                assert report.min_distance == 2

            d = dual_generators(spec)
            assert (d.b_bar, d.ell_bar) == (gf2.xn1(alpha), theta(alpha, 1))
            assert (d.f_bar, d.h_bar) == (z4.lift_binary(theta(beta, 1)), qp("x+3"))

            dual = dual_spec(spec)
            dual_images = {gray_map(w) for w in word_set(codeword_matrix(dual), alpha)}
            assert dual_images == {(0,) * n, (1,) * n}
            dual_report = code_report(dual)
            assert dual_report.min_distance == n

            assert report.is_mdss
            assert dual_report.is_mdss
    _stamp("criterion 6", t0, "even-weight / repetition pair, both at the bound")


def _monic_quaternary_divisors(beta: int):
    """Every monic Z4 divisor of x^beta - 1, by exhaustive scan.

    A divisor's constant term must be a unit (the constant terms multiply
    to -1), which prunes the scan to 2 * 4^(d-1) candidates per degree d.
    """
    target = z4.xn1(beta)
    out = [z4.QuatPoly.one()]
    for d in range(1, beta + 1):
        for c0 in (1, 3):
            for mid in itertools.product(range(4), repeat=d - 1):
                cand = z4.QuatPoly((c0, *mid, 1))
                if (target % cand).is_zero:
                    out.append(cand)
    return out


def test_criterion_7_hensel_lift_suite(family):
    t0 = time.perf_counter()
    for beta in (1, 3, 5, 7, 9, 15):
        for d2 in gf2.divisors_xn1(beta):
            lift = z4.hensel_lift(d2, beta)
            assert lift.coeffs[-1] == 1
            assert lift.reduce_mod2() == d2
            assert (z4.xn1(beta) % lift).is_zero

    # Uniqueness: every monic quaternary divisor is the lift of its own
    # mod-2 reduction, and distinct divisors reduce to distinct polynomials.
    for beta in (1, 3, 5, 7, 9):
        binary = {gf2.poly_key(d): d for d in gf2.divisors_xn1(beta)}
        by_reduction: dict = {}
        for cand in _monic_quaternary_divisors(beta):
            by_reduction.setdefault(gf2.poly_key(cand.reduce_mod2()), []).append(cand)
        assert set(by_reduction) == set(binary)
        for key, cands in by_reduction.items():
            assert cands == [z4.hensel_lift(binary[key], beta)]

    assert all(r["hensel_ok"] for r in family["rows"])
    _stamp("criterion 7", t0, "lift exists, reduces, divides; unique for beta <= 9")


def _ambient_add(w1: Codeword, w2: Codeword) -> Codeword:
    return Codeword(
        tuple((a + b) % 2 for a, b in zip(w1.u, w2.u)),
        tuple((a + b) % 4 for a, b in zip(w1.uq, w2.uq)),
    )


def _random_word(rng: random.Random, alpha: int, beta: int) -> Codeword:
    return Codeword(
        tuple(rng.randrange(2) for _ in range(alpha)),
        tuple(rng.randrange(4) for _ in range(beta)),
    )


def test_criterion_8_circ_product_characterization():
    t0 = time.perf_counter()
    rng = random.Random(20240901)
    ambients = [(a, b) for a in range(1, 7) for b in (1, 3, 5, 7)]

    # Pools of known circ-orthogonal pairs so the zero branch of the
    # equivalence is exercised on nontrivial words, not just by chance.
    pools = []
    for spec in (
        validate_spec(3, 3, bp("x^3+1"), bp("x+1"), qp("1"), qp("x^2+x+1")),
        construct_mdss(2, 3),
        construct_self_dual_family(4, 3),
        construct_mdss(3, 1),
    ):
        key = lambda w: (w.u, w.uq)
        pools.append(
            (
                sorted(word_set(codeword_matrix(spec), spec.alpha), key=key),
                sorted(word_set(codeword_matrix(dual_spec(spec)), spec.alpha), key=key),
            )
        )

    zero_cases = nonzero_cases = triples = 0
    for i in range(1000):
        if i % 5 == 4:
            code_words, dual_words = pools[i % len(pools)]
            w1, w2 = rng.choice(code_words), rng.choice(dual_words)
        else:
            alpha, beta = ambients[i % len(ambients)]
            w1 = _random_word(rng, alpha, beta)
            w2 = _random_word(rng, alpha, beta)

        m = math.lcm(len(w1.u), len(w1.uq))
        all_shifts_vanish = all(
            inner_product(w1, cyclic_shift(w2, k)) == 0 for k in range(m)
        )
        product = circ_product(w1, w2)
        assert product.is_zero == all_shifts_vanish
        zero_cases += product.is_zero
        nonzero_cases += not product.is_zero

        if i % 4 == 0:
            w3 = _random_word(rng, len(w1.u), len(w1.uq))
            assert circ_product(_ambient_add(w1, w3), w2) == circ_product(
                w1, w2
            ) + circ_product(w3, w2)
            assert circ_product(w1, _ambient_add(w2, w3)) == circ_product(
                w1, w2
            ) + circ_product(w1, w3)
            triples += 1

    assert zero_cases > 0 and nonzero_cases > 0
    _stamp(
        "criterion 8",
        t0,
        f"1000 pairs ({zero_cases} vanishing), bilinearity on {triples} triples",
    )


def test_criterion_9_involution_and_separability(family):
    t0 = time.perf_counter()
    rows = family["rows"]
    assert len(rows) == FAMILY_SIZE
    assert all(r["involution_ok"] for r in rows)
    for r in rows:
        assert r["sep_product"] == r["sep_type"] == r["sep_ell"]
    _stamp(
        "criterion 9",
        t0,
        f"dual of dual and 3-way separability agreement on {len(rows)} specs",
    )
