"""Closed-form duals: degree predictions, generator tuples, brute-force oracle."""

import itertools
import time

import numpy as np
import pytest

from z2z4cyclic import (
    BinPoly,
    Codeword,
    QuatPoly,
    cardinality,
    code_type,
    codeword_matrix,
    construct_mdss,
    construct_self_dual_family,
    contains,
    dual_degrees,
    dual_generators,
    dual_spec,
    hensel_divisibility_check,
    inner_product,
    iter_valid_specs,
    theta,
    validate_spec,
)
from z2z4cyclic import z4poly as z4
from z2z4cyclic.dual import brute_force_dual_matrix
from z2z4cyclic.errors import NotADivisor, TooLarge

from conftest import bp, qp, word, word_set

# -- degree and type predictions ----------------------------------------------


def test_dual_degrees_worked_example(example_spec):
    dd = dual_degrees(example_spec)
    assert (dd.deg_b_bar, dd.deg_f_bar, dd.deg_h_bar, dd.deg_g_bar) == (2, 1, 0, 2)
    assert (dd.gamma_bar, dd.delta_bar, dd.kappa_bar) == (1, 2, 1)


def test_dual_degrees_self_dual_table_row_one():
    spec = validate_spec(
        14, 7, bp("x^10+x^8+x^7+x^3+x+1"), bp("x^6+x^4+x+1"), qp("1"), qp("x^4+2x^3+3x^2+x+1")
    )
    dd = dual_degrees(spec)
    assert (dd.gamma_bar, dd.delta_bar, dd.kappa_bar) == (8, 3, 7)
    assert str(code_type(spec)) == "(14,7;8,3;7)"


def test_dual_degrees_separable():
    spec = validate_spec(10, 5, bp("x^5+1"), BinPoly.zero(), qp("1"), qp("x^5+3"))
    dd = dual_degrees(spec)
    assert (dd.deg_b_bar, dd.deg_f_bar, dd.deg_h_bar, dd.deg_g_bar) == (5, 0, 5, 0)


# -- closed-form generators -------------------------------------------------------


def test_dual_generators_worked_example(example_spec):
    d = dual_generators(example_spec)
    assert d.b_bar == bp("x^2+x+1")
    assert d.ell_bar == bp("x")
    assert d.f_bar == qp("x+3")
    assert d.h_bar == qp("1")
    assert d.g_bar == qp("x^2+x+1")
    assert d.mu1 == bp("x") and d.mu2 == bp("x") and d.rho == bp("1")


@pytest.mark.parametrize("alpha,beta", [(2, 3), (3, 3), (4, 5), (3, 1)])
def test_dual_generators_mdss(alpha, beta):
    d = dual_generators(construct_mdss(alpha, beta))
    assert d.b_bar == bp(f"x^{alpha}+1")
    assert d.ell_bar == theta(alpha, 1)
    assert d.f_bar == z4.lift_binary(theta(beta, 1))
    assert d.h_bar == qp("x+3")


def test_dual_generators_separable_family_is_self_dual():
    spec = validate_spec(10, 5, bp("x^5+1"), BinPoly.zero(), qp("1"), qp("x^5+3"))
    d = dual_generators(spec)
    assert (d.b_bar, d.ell_bar, d.f_bar, d.h_bar) == (spec.b, spec.ell, spec.f, spec.h)
    assert d.mu1 is None and d.mu2 is None and d.rho is None


def test_dual_spec_round_trips_validation(example_spec):
    ds = dual_spec(example_spec)
    assert ds.alpha == 3 and ds.beta == 3
    assert str(code_type(ds)) == "(3,3;1,2;1)"


def test_dual_degrees_match_generators_on_assorted_specs():
    specs = [
        construct_mdss(4, 3),
        construct_self_dual_family(6, 5),
        validate_spec(4, 3, bp("x^2+1"), bp("x+1"), qp("x^2+x+1"), qp("x+3")),
    ]
    for spec in specs:
        d = dual_generators(spec)
        dd = dual_degrees(spec)
        assert d.b_bar.degree == dd.deg_b_bar
        assert d.f_bar.degree == dd.deg_f_bar
        assert d.h_bar.degree == dd.deg_h_bar
        assert d.g_bar.degree == dd.deg_g_bar


# -- brute-force oracle --------------------------------------------------------------


def test_brute_force_dual_worked_example(example_spec):
    dual = word_set(brute_force_dual_matrix(example_spec), 3)
    assert len(dual) == 32
    # Parity-check matrix rows, each block stored lowest exponent first.
    assert word("1 1 1 | 0 0 0") in dual
    assert word("0 0 1 | 0 1 3") in dual
    assert word("1 0 0 | 1 0 3") in dual


def test_brute_force_dual_of_full_ambient_is_trivial():
    full = validate_spec(2, 1, bp("1"), BinPoly.zero(), qp("1"), qp("1"))
    assert cardinality(full) == 16  # all of Z2^2 x Z4
    assert word_set(brute_force_dual_matrix(full), 2) == {word("0 0 | 0")}


def test_brute_force_dual_of_trivial_is_full_ambient():
    trivial = validate_spec(2, 1, bp("x^2+1"), BinPoly.zero(), qp("x+3"), qp("1"))
    assert cardinality(trivial) == 1
    assert len(brute_force_dual_matrix(trivial)) == 16


def test_brute_force_dual_matches_literal_definition():
    # Independent cross-check of the half-table match: filter every
    # ambient vector by the definition, one inner product at a time.
    specs = [
        validate_spec(2, 3, bp("x+1"), bp("1"), qp("1"), qp("1")),
        validate_spec(3, 1, bp("x^3+1"), bp("x^2+x+1"), qp("1"), qp("1")),
    ]
    for spec in specs:
        code = word_set(codeword_matrix(spec), spec.alpha)
        literal = set()
        for ubits in itertools.product((0, 1), repeat=spec.alpha):
            for qvals in itertools.product(range(4), repeat=spec.beta):
                from z2z4cyclic import Codeword

                w = Codeword(ubits, qvals)
                if all(inner_product(w, c) == 0 for c in code):
                    literal.add(w)
        assert word_set(brute_force_dual_matrix(spec), spec.alpha) == literal


def _full_scan_dual(spec):
    """Every ambient vector, in lexicographic order, orthogonal to every codeword."""
    a = spec.alpha
    ambient = np.array(
        list(itertools.product(*[(0, 1)] * a, *[range(4)] * spec.beta)), dtype=np.int64
    )
    code = codeword_matrix(spec).astype(np.int64)
    ips = 2 * ambient[:, :a] @ code[:, :a].T + ambient[:, a:] @ code[:, a:].T
    return ambient[np.all(ips % 4 == 0, axis=1)]


def test_brute_force_dual_matches_full_scan_exhaustive():
    # Every valid tuple with alpha + 2*beta <= 9: odd and even ambient
    # widths, the trivial code (no spanning rows) and the full code.
    seen = set()
    for beta in (1, 3):
        for alpha in range(1, 10 - 2 * beta):
            for spec in iter_valid_specs(alpha, beta):
                brute = brute_force_dual_matrix(spec)
                assert np.array_equal(brute, _full_scan_dual(spec)), spec
                seen.add(("parity", (alpha + 2 * beta) % 2))
                if cardinality(spec) == 1:
                    seen.add("trivial")
                if len(brute) == 1:
                    seen.add("full")
    assert seen == {("parity", 0), ("parity", 1), "trivial", "full"}


def test_brute_force_dual_respects_cap(example_spec):
    with pytest.raises(TooLarge):
        brute_force_dual_matrix(example_spec, cap=16)


def test_brute_force_dual_above_the_enum_cap_raises_quickly():
    # A one-word code whose ambient of 2^24 vectors is exactly AMBIENT_CAP:
    # its dual is that whole ambient, above ENUM_CAP = 2^22 words.
    trivial = validate_spec(2, 11, bp("x^2+1"), BinPoly.zero(), qp("x^11+3"), qp("1"))
    t0 = time.perf_counter()
    with pytest.raises(TooLarge, match="dual has 16777216 codewords"):
        brute_force_dual_matrix(trivial)
    assert time.perf_counter() - t0 < 2


# -- the central equivalence ---------------------------------------------------------


def test_oracle_equivalence_small_exhaustive():
    # The full sweep lives in the acceptance suite; this is the fast core.
    for alpha in (1, 2, 3):
        for beta in (1, 3):
            for spec in iter_valid_specs(alpha, beta):
                formula = codeword_matrix(dual_spec(spec))
                brute = brute_force_dual_matrix(spec)
                assert np.array_equal(formula, brute)


def test_oracle_equivalence_randomized_large():
    # One deliberately non-separable tuple at the ambient cap boundary.
    spec = next(
        s
        for s in iter_valid_specs(10, 7)
        if not s.ell.is_zero and s.b.degree >= 4 and s.g.degree >= 1
    )
    assert np.array_equal(codeword_matrix(dual_spec(spec)), brute_force_dual_matrix(spec))


def test_cardinality_product_law(example_spec):
    specs = [
        example_spec,
        construct_mdss(4, 5),
        construct_self_dual_family(8, 7),
        validate_spec(6, 3, bp("x^3+1"), bp("x^2+x"), qp("1"), qp("x^2+x+1")),
    ]
    for spec in specs:
        n = cardinality(spec)
        n_dual = cardinality(dual_spec(spec))
        assert n * n_dual == 2 ** (spec.alpha + 2 * spec.beta)


def test_duality_is_an_involution(example_spec):
    specs = [
        example_spec,
        construct_mdss(3, 3),
        validate_spec(4, 3, bp("x^2+1"), bp("x+1"), qp("x^2+x+1"), qp("x+3")),
        validate_spec(2, 1, bp("x^2+1"), bp("x+1"), qp("1"), qp("1")),
    ]
    for spec in specs:
        again = dual_spec(dual_spec(spec))
        assert np.array_equal(codeword_matrix(again), codeword_matrix(spec))


def test_dual_of_separable_is_separable_product():
    spec = construct_self_dual_family(4, 3)
    d = dual_generators(spec)
    assert d.ell_bar.is_zero
    # The dual splits as (binary dual of C_X) x (quaternary dual of C_Y).
    dual_mat = codeword_matrix(dual_spec(spec))
    dx = {tuple(r) for r in dual_mat[:, :4]}
    dy = {tuple(r) for r in dual_mat[:, 4:]}
    assert len(dx) * len(dy) == len(dual_mat)
    code_mat = codeword_matrix(spec)
    for u in dx:
        assert all(2 * np.dot(u, c[:4]) % 4 == 0 for c in code_mat)
    for q in dy:
        assert all(np.dot(q, c[4:]) % 4 == 0 for c in code_mat)


# -- the divisibility lemma ------------------------------------------------------------


def test_hensel_divisibility_worked_example(example_spec):
    from z2z4cyclic import gf2poly as gf2
    from z2z4cyclic import hensel_lift

    quotient = gf2.exact_div(
        example_spec.b, gf2.gcd(example_spec.b, example_spec.ell * example_spec.g.reduce_mod2())
    )
    assert quotient == bp("x^2+x+1")
    assert hensel_lift(quotient, 3) == qp("x^2+x+1")
    assert (example_spec.h % qp("x^2+x+1")).is_zero
    assert hensel_divisibility_check(example_spec)


def test_hensel_divisibility_separable_and_sweep():
    assert hensel_divisibility_check(construct_self_dual_family(6, 3))
    for spec in iter_valid_specs(4, 3):
        assert hensel_divisibility_check(spec)


def test_hensel_divisibility_check_reports_a_non_divisor_as_false(example_spec, monkeypatch):
    def refuse(d, beta):
        raise NotADivisor("forced")

    monkeypatch.setattr(z4, "hensel_lift", refuse)
    assert hensel_divisibility_check(example_spec) is False


def test_hensel_divisibility_check_lets_internal_errors_through(example_spec, monkeypatch):
    def broken(d, beta):
        raise ArithmeticError("internal error: forced")

    monkeypatch.setattr(z4, "hensel_lift", broken)
    with pytest.raises(ArithmeticError, match="forced"):
        hensel_divisibility_check(example_spec)


# -- membership from the dual's spanning rows -----------------------------------


def test_contains_agrees_with_enumeration_on_the_family():
    # Every valid tuple with alpha <= 5 and beta in {1, 3, 5}: two members
    # and four uniformly random ambient words each, against the word set.
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    n_specs = non_members = 0
    for alpha in range(1, 6):
        for beta in (1, 3, 5):
            for spec in iter_valid_specs(alpha, beta):
                mat = codeword_matrix(spec)
                members = {tuple(r) for r in mat.tolist()}
                picks = mat[rng.integers(0, len(mat), size=2)].tolist()
                for _ in range(4):
                    picks.append(
                        rng.integers(0, 2, size=alpha).tolist() + rng.integers(0, 4, size=beta).tolist()
                    )
                for row in picks:
                    w = Codeword(tuple(row[:alpha]), tuple(row[alpha:]))
                    assert contains(spec, w) == (tuple(row) in members), (spec, w)
                    non_members += tuple(row) not in members
                n_specs += 1
    assert n_specs == 820
    assert non_members > 0
    assert time.perf_counter() - t0 < 5
