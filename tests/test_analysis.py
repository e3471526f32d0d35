"""Classification layer: distance, MDSS/self-dual/separable flags, search, reports."""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from z2z4cyclic import (
    SEARCH_CAP,
    BinPoly,
    code_report,
    code_type,
    codeword_matrix,
    construct_mdss,
    construct_self_dual_family,
    dual_spec,
    gray_map,
    iter_valid_specs,
    report_dict,
    report_line,
    search_codes,
    validate_spec,
    verify_code,
)
from z2z4cyclic import analysis
from z2z4cyclic import gf2poly as gf2
from z2z4cyclic.errors import InvalidParameter, TooLarge

from conftest import bp, qp, word_set

# -- minimum distance ---------------------------------------------------------


def test_min_distance_worked_example(example_spec):
    assert code_report(example_spec).min_distance == 3


def test_min_distance_of_even_weight_construction():
    # b = x+1, ell = 1, f = h = 1 always yields a Gray image of distance 2.
    for alpha, beta in [(1, 1), (2, 3), (3, 3), (4, 5)]:
        assert code_report(construct_mdss(alpha, beta)).min_distance == 2


def test_min_distance_of_its_dual_is_the_whole_length():
    for alpha, beta in [(2, 1), (3, 3), (3, 5)]:
        d = code_report(dual_spec(construct_mdss(alpha, beta))).min_distance
        assert d == alpha + 2 * beta


def test_trivial_code_has_no_min_distance_and_is_not_mdss():
    trivial = validate_spec(1, 1, bp("x+1"), BinPoly.zero(), qp("x+3"), qp("1"))
    report = code_report(trivial)
    assert report.min_distance is None and not report.is_mdss


def test_singleton_bound_over_small_family():
    # d - 1 <= alpha + 2*beta - gamma - 2*delta for every nontrivial code,
    # with equality exactly when the MDSS flag is set.
    for spec in iter_valid_specs(3, 3):
        t = code_type(spec)
        report = code_report(spec)
        d = report.min_distance
        if d is None:
            assert not report.is_mdss
            continue
        gap = (spec.alpha + 2 * spec.beta - t.gamma - 2 * t.delta) - (d - 1)
        assert gap >= 0
        assert report.is_mdss == (gap == 0)


# -- classification flags -----------------------------------------------------


def test_is_mdss_flags():
    assert code_report(construct_mdss(2, 3)).is_mdss
    assert code_report(dual_spec(construct_mdss(2, 3))).is_mdss
    assert not code_report(construct_self_dual_family(4, 3)).is_mdss


def test_worked_example_is_not_mdss(example_spec):
    # type (3,3;2,1;2): d - 1 = 2 but alpha + 2*beta - gamma - 2*delta = 5.
    assert not code_report(example_spec).is_mdss


def test_is_self_dual_on_catalog_rows():
    row1 = validate_spec(
        14,
        7,
        bp("x^10+x^8+x^7+x^3+x+1"),
        bp("x^6+x^4+x+1"),
        qp("1"),
        qp("x^4+2x^3+3x^2+x+1"),
    )
    row2 = construct_self_dual_family(10, 5)
    assert code_report(row1).is_self_dual
    assert code_report(row2).is_self_dual
    assert str(code_type(row1)) == "(14,7;8,3;7)"
    assert str(code_type(row2)) == "(10,5;10,0;5)"


def test_is_self_dual_rejects_worked_example(example_spec):
    assert not code_report(example_spec).is_self_dual


def test_separable_iff_torsion_free_mixing(example_spec):
    # kappa2 = delta1 = 0 characterizes C = C_X x C_Y.
    assert not code_type(example_spec).is_separable
    assert code_type(construct_self_dual_family(4, 3)).is_separable
    mdss = construct_mdss(3, 3)
    t = code_type(mdss)
    assert (t.kappa2, t.delta1) == (0, 1)
    assert not t.is_separable


# -- named constructions ------------------------------------------------------


def test_self_dual_family_matches_catalog_row():
    spec = construct_self_dual_family(10, 5)
    assert (spec.b, spec.ell) == (bp("x^5+1"), BinPoly.zero())
    assert (spec.f, spec.h) == (qp("1"), qp("x^5+3"))


def test_self_dual_family_types():
    assert str(code_type(construct_self_dual_family(2, 1))) == "(2,1;2,0;1)"
    assert str(code_type(construct_self_dual_family(4, 3))) == "(4,3;5,0;2)"
    assert str(code_type(construct_self_dual_family(10, 5))) == "(10,5;10,0;5)"


def test_self_dual_family_rejects_odd_alpha():
    for alpha in (1, 3, 0, -2):
        with pytest.raises(InvalidParameter):
            construct_self_dual_family(alpha, 3)


def test_mdss_construction_fields():
    spec = construct_mdss(2, 3)
    assert (spec.b, spec.ell) == (bp("x+1"), bp("1"))
    assert (spec.f, spec.h) == (qp("1"), qp("1"))
    assert str(code_type(construct_mdss(1, 1))) == "(1,1;0,1;0)"


def test_mdss_gray_image_is_the_even_weight_code():
    spec = construct_mdss(3, 3)
    images = {gray_map(w) for w in word_set(codeword_matrix(spec), 3)}
    even = {v for v in itertools.product((0, 1), repeat=9) if sum(v) % 2 == 0}
    assert images == even


# -- exhaustive search --------------------------------------------------------


def test_valid_spec_counts_are_stable():
    counts = {
        (alpha, beta): sum(1 for _ in iter_valid_specs(alpha, beta))
        for alpha, beta in [(1, 1), (2, 1), (1, 3), (3, 3), (4, 5)]
    }
    assert counts == {(1, 1): 8, (2, 1): 13, (1, 3): 24, (3, 3): 96, (4, 5): 69}


def test_tuple_count_formula_matches_iter_valid_specs():
    # Every pair below, including shared factors of degree 2, 3 and 4
    # (beta = 3, 7, 5) and repeated factors of x^alpha - 1 (even alpha).
    pairs = [(a, b) for a in range(1, 11) for b in (1, 3, 5, 7)]
    pairs += [(a, 9) for a in range(1, 7)]
    for alpha, beta in pairs:
        count = analysis._tuple_count(gf2.divisors_xn1(alpha), gf2.factor_xn1(beta))
        assert count == sum(1 for _ in iter_valid_specs(alpha, beta)), (alpha, beta)


def test_search_caps_tuple_count_before_building_specs(monkeypatch):
    def no_specs(*args):
        raise AssertionError("a spec was built before the tuple-count check")

    monkeypatch.setattr(analysis, "validate_spec", no_specs)
    # x^63 - 1 has 13 irreducible factors: 3^13 + 5 * 3^12 = 4251528 tuples.
    with pytest.raises(TooLarge, match=f"4251528 .* {SEARCH_CAP}"):
        search_codes(1, {63}, "mdss")
    with pytest.raises(TooLarge):
        next(iter_valid_specs(1, 63))


@pytest.mark.parametrize("cap", [0, -1])
def test_search_refuses_a_cap_below_one(cap):
    with pytest.raises(InvalidParameter, match=f"^cap must be at least 1, not {cap}$"):
        search_codes(1, {1}, "mdss", cap=cap)


def test_divisor_count_is_capped_before_any_divisor_is_built():
    # x^255 - 1 has 35 irreducible factors, so 2^35 divisors; no tuple
    # count can be smaller than the divisor count.
    assert analysis.SEARCH_CAP == SEARCH_CAP == 2**16
    for call in (lambda: next(iter_valid_specs(255, 1)), lambda: gf2.divisors_xn1(255)):
        t0 = time.perf_counter()
        with pytest.raises(TooLarge, match=f"{2**35} divisors"):
            call()
        assert time.perf_counter() - t0 < 2


def test_valid_specs_are_distinct_and_well_formed():
    seen = set()
    for spec in iter_valid_specs(3, 3):
        assert (spec.alpha, spec.beta) == (3, 3)
        key = (spec.b, spec.ell, spec.f, spec.h)
        assert key not in seen
        seen.add(key)


def test_search_finds_exactly_the_self_dual_family():
    found = search_codes(4, {1, 3}, "self_dual")
    assert len(found) == 4
    expected = {
        (alpha, beta): construct_self_dual_family(alpha, beta)
        for alpha in (2, 4)
        for beta in (1, 3)
    }
    for spec, report in found:
        target = expected[(spec.alpha, spec.beta)]
        assert (spec.b, spec.ell, spec.f, spec.h) == (
            target.b,
            target.ell,
            target.f,
            target.h,
        )
        assert report.min_distance == 2
    # A spec's enumerated keys are dropped once search has scanned it, so
    # neither the scanned tuples nor the results hold their codes' keys.
    assert not any("_word_keys" in vars(spec) for spec, _ in found)


def test_search_mdss_distances():
    found = search_codes(3, {3}, "mdss")
    assert len(found) == 9
    distances = sorted(report.min_distance for _, report in found)
    assert distances == [1, 1, 1, 2, 2, 2, 7, 8, 9]
    # The matches beyond distance 2 are exactly the full-length codes.
    for spec, report in found:
        if report.min_distance > 2:
            assert report.min_distance == spec.alpha + 2 * spec.beta


def test_search_separable_means_zero_ell():
    found = search_codes(2, {1}, "separable")
    assert len(found) == 15
    assert all(spec.ell == BinPoly.zero() for spec, _ in found)


def test_search_rejects_bad_arguments():
    with pytest.raises(InvalidParameter):
        search_codes(3, {3}, "shortest")
    with pytest.raises(InvalidParameter):
        search_codes(0, {3}, "mdss")


def test_search_refuses_a_bool_alpha_max_like_zero():
    for alpha_max in (0, True):
        with pytest.raises(InvalidParameter, match="^alpha_max must be a positive integer$"):
            search_codes(alpha_max, {1}, "mdss")


def test_family_tuples_give_distinct_word_sets_and_self_duality_is_tuple_equality():
    """Over the 820 tuples with alpha <= 5 and beta in {1, 3, 5}: no two give the same
    word set, so search's dedup never drops one there; and among the tuples whose type
    admits self-duality, dual_spec(s) == s exactly when the dual's word set is C's."""
    words: dict[tuple, object] = {}
    candidates = self_dual = 0
    for alpha in range(1, 6):
        for beta in (1, 3, 5):
            for spec in iter_valid_specs(alpha, beta):
                mat = codeword_matrix(spec)
                key = (alpha, beta, mat.tobytes())
                assert key not in words, (words.get(key), spec)
                words[key] = spec
                t = code_type(spec)
                if 2 * (t.gamma + 2 * t.delta) != alpha + 2 * beta:
                    continue
                candidates += 1
                dual = dual_spec(spec)
                same_words = np.array_equal(mat, codeword_matrix(dual))
                assert (dual == spec) == same_words, spec
                self_dual += same_words
    assert (len(words), candidates, self_dual) == (820, 38, 6)


def test_search_caps_lengths_before_factoring(monkeypatch):
    def no_factoring(n):
        raise AssertionError(f"factor_xn1({n}) ran before the length check")

    monkeypatch.setattr(gf2, "factor_xn1", no_factoring)
    with pytest.raises(TooLarge, match="20001"):
        search_codes(1, {20001}, "mdss")
    with pytest.raises(TooLarge, match="5000"):
        search_codes(5000, {3}, "mdss")


# -- verification and reports -------------------------------------------------


def test_verify_code_runs_all_checks(example_spec):
    results = verify_code(example_spec)
    assert [r.name for r in results] == [
        "defining-conditions",
        "hensel-divisibility",
        "cardinality-formula",
        "type-parameters",
        "cyclic-closure",
        "spanning-set-size",
        "projection-sizes",
        "separability-agreement",
        "gray-injectivity",
        "dual-type-formulas",
        "cardinality-product",
        "dual-oracle",
        "duality-involution",
        "orthogonality",
        "circ-orthogonality",
        "circ-shift-equivalence",
    ]
    assert all(r.ok for r in results)


def test_cardinality_formula_check_compares_with_the_type(example_spec, monkeypatch):
    # |C| = 2^gamma * 4^delta is read off the formula type, so a wrong gamma
    # there must fail the check while the detail text keeps its form.
    true_type = code_type(example_spec)
    wrong = dataclasses.replace(true_type, gamma=true_type.gamma + 1)
    monkeypatch.setattr(analysis, "code_type", lambda spec: wrong if spec == example_spec else true_type)
    result = next(r for r in verify_code(example_spec) if r.name == "cardinality-formula")
    assert result.ok is False
    assert result.detail == f"|C| = 16 = 2^{wrong.gamma} * 4^{wrong.delta}"


def test_verify_code_passes_on_varied_specs():
    specs = [
        construct_mdss(2, 3),
        construct_self_dual_family(4, 3),
        validate_spec(4, 3, bp("x^2+1"), bp("x+1"), qp("x^2+x+1"), qp("x+3")),
        # The trivial code, with no spanning rows, whose dual is the ambient.
        validate_spec(1, 1, bp("x+1"), BinPoly.zero(), qp("x+3"), qp("1")),
        # The whole ambient, whose dual has no spanning rows.
        validate_spec(3, 3, bp("1"), BinPoly.zero(), qp("1"), qp("1")),
    ]
    for spec in specs:
        assert all(r.ok for r in verify_code(spec))


def test_report_line_worked_example(example_spec):
    line = report_line(example_spec, code_report(example_spec))
    assert line == (
        "alpha=3 beta=3 b=x^3+1 ell=x+1 f=1 h=x^2+x+1 "
        "type=(3,3;2,1;2) min_distance=3 is_mdss=no is_self_dual=no "
        "is_separable=no is_cyclic_verified=yes"
    )


def test_report_line_shows_dash_for_trivial_code():
    trivial = validate_spec(1, 1, bp("x+1"), BinPoly.zero(), qp("x+3"), qp("1"))
    line = report_line(trivial, code_report(trivial))
    assert "min_distance=-" in line
    assert "is_mdss=no" in line


def test_report_dict_worked_example(example_spec):
    data = report_dict(example_spec, code_report(example_spec))
    assert data == {
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
