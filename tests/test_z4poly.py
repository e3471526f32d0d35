"""Quaternary polynomial arithmetic: mod-2 reduction, reciprocal, Hensel lifts."""

import itertools

import pytest

from z2z4cyclic import BinPoly, QuatPoly, factor_xn1, hensel_lift
from z2z4cyclic import gf2poly as gf2
from z2z4cyclic import z4poly as z4
from z2z4cyclic.errors import (
    EvenLengthUnsupported,
    InvalidParameter,
    NotADivisor,
    NotMonic,
    ParseError,
    ReciprocalOfZero,
)

from conftest import bp, qp

# -- representation and ring ops --------------------------------------------


def test_coefficients_live_in_z4():
    assert QuatPoly((1, 2, 3)).coeffs == (1, 2, 3)
    with pytest.raises(ValueError):
        QuatPoly((4,))


def test_parse_human_and_csv_agree():
    assert qp("x^4+2x^3+3x^2+x+1") == QuatPoly((1, 1, 3, 2, 1))
    assert qp("1,1,3,2,1") == qp("x^4+2x^3+3x^2+x+1")
    assert qp("0") == QuatPoly.zero()


def test_parse_folds_signs_mod_4():
    assert qp("x-1") == qp("x+3")
    assert qp("x^3-1") == qp("x^3+3")


def test_parse_rejects_out_of_range_coefficients():
    with pytest.raises(ParseError):
        qp("4x+1")
    with pytest.raises(ParseError):
        qp("1,4")


def test_str_round_trips():
    for coeffs in itertools.product(range(4), repeat=3):
        p = QuatPoly(coeffs)
        assert QuatPoly.parse(str(p)) == p
        assert QuatPoly.parse(p.coeff_csv()) == p


def test_division_by_non_unit_leading_coefficient_raises():
    with pytest.raises(ValueError):
        divmod(qp("x^2"), qp("2x+1"))


# -- mul_mod -------------------------------------------------------------------


def test_mul_mod_annihilates_full_product():
    assert z4.mul_mod(qp("x+3"), qp("x^2+x+1"), 3) == QuatPoly.zero()


def test_mul_mod_scalar():
    assert z4.mul_mod(qp("2"), qp("x^2+x+1"), 3) == qp("2x^2+2x+2")


def test_mul_mod_wraps_exponents():
    assert z4.mul_mod(qp("x"), qp("x^2+x+3"), 3) == qp("x^2+3x+1")


def test_mul_mod_rejects_even_beta():
    with pytest.raises(EvenLengthUnsupported):
        z4.mul_mod(qp("x"), qp("x"), 4)


# -- reduce_mod2 ------------------------------------------------------------------


def test_reduce_mod2_known_values():
    assert qp("2x+3").reduce_mod2() == bp("1")
    assert qp("x^4+2x^3+3x^2+x+1").reduce_mod2() == bp("x^4+x^2+x+1")
    assert QuatPoly.zero().reduce_mod2() == BinPoly.zero()


# -- reciprocal --------------------------------------------------------------------


def test_reciprocal_known_values():
    assert qp("x^2+x+1").reciprocal() == qp("x^2+x+1")
    assert qp("x^4+2x^3+3x^2+x+1").reciprocal() == qp("x^4+x^3+3x^2+2x+1")
    assert qp("x^5+3").reciprocal() == qp("3x^5+1")


def test_reciprocal_of_zero_raises():
    with pytest.raises(ReciprocalOfZero):
        QuatPoly.zero().reciprocal()


def test_reciprocal_involution_up_to_unit_constant_term():
    for coeffs in itertools.product(range(4), repeat=4):
        p = QuatPoly(coeffs)
        if not p.is_zero and p.coeffs[0] in (1, 3):
            assert p.reciprocal().reciprocal() == p


def test_make_monic_preserves_unit_scaling():
    assert z4.make_monic(qp("3x+1")) == qp("x+3")
    assert z4.make_monic(qp("x+2")) == qp("x+2")
    with pytest.raises(NotMonic):
        z4.make_monic(qp("2x+1"))
    with pytest.raises(NotMonic):
        z4.make_monic(QuatPoly.zero())


# -- Hensel lift ------------------------------------------------------------------------


def test_xn1_and_check_beta_refuse_zero_and_a_bool():
    with pytest.raises(InvalidParameter, match="^n must be a positive integer$"):
        z4.xn1(0)
    for beta in (0, True):
        with pytest.raises(InvalidParameter, match="^beta must be a positive integer$"):
            z4.check_beta(beta)


def test_hensel_lift_past_the_preset_byte_masks():
    # The Graeffe product of a degree-8192 lift has 16385 bytes, one more than
    # the preset masks cover, so the odd-byte test builds a wider mask.
    n = 8193
    assert hensel_lift(gf2.theta(n, 1), n) == QuatPoly([1] * n)
    assert hensel_lift(gf2.xn1(n), n) == z4.xn1(n)


def test_hensel_lift_known_values():
    assert hensel_lift(bp("x+1"), 3) == qp("x+3")
    assert hensel_lift(bp("x^2+x+1"), 3) == qp("x^2+x+1")
    assert hensel_lift(bp("x^3+x+1"), 7) == qp("x^3+2x^2+x+3")


def test_hensel_lift_edge_divisors():
    assert hensel_lift(bp("1"), 3) == qp("1")
    assert hensel_lift(bp("x^3+1"), 3) == qp("x^3+3")


def test_hensel_lift_rejects_non_divisor():
    with pytest.raises(NotADivisor):
        hensel_lift(bp("x^2+1"), 3)
    with pytest.raises(NotADivisor):
        hensel_lift(BinPoly.zero(), 3)


def test_hensel_lift_rejects_even_beta():
    with pytest.raises(EvenLengthUnsupported):
        hensel_lift(bp("x+1"), 4)


def _binary_divisors(beta: int) -> list[BinPoly]:
    out = []
    for mask in itertools.product((0, 1), repeat=len(factor_xn1(beta))):
        d = bp("1")
        for p, take in zip(factor_xn1(beta), mask):
            if take:
                d = d * p
        out.append(d)
    return out


@pytest.mark.parametrize("beta", [1, 3, 5, 7, 9, 15])
def test_hensel_lift_divides_and_reduces_back(beta):
    for d in _binary_divisors(beta):
        lifted = hensel_lift(d, beta)
        assert lifted.is_monic
        assert lifted.reduce_mod2() == d
        assert not z4.xn1(beta) % lifted


def _monic_z4_divisors(beta: int) -> list[QuatPoly]:
    """All monic divisors of x^beta - 1 over Z4, by exhaustive trial division.

    A divisor's constant term must be a unit (the constant terms multiply
    to -1), which prunes the scan to 2 * 4^(d-1) candidates per degree d.
    """
    target = z4.xn1(beta)
    found = [QuatPoly.one()]
    for deg in range(1, beta + 1):
        for mid in itertools.product(range(4), repeat=deg - 1):
            for const in (1, 3):
                cand = QuatPoly((const,) + mid + (1,))
                if not target % cand:
                    found.append(cand)
    return found


@pytest.mark.parametrize("beta", [1, 3, 5, 7, 9])
def test_hensel_lift_unique_among_all_monic_divisors(beta):
    divisors = _monic_z4_divisors(beta)
    # Exactly one monic Z4 divisor per binary divisor, and it is the lift.
    by_reduction = {}
    for d in divisors:
        by_reduction.setdefault(d.reduce_mod2(), []).append(d)
    binary = _binary_divisors(beta)
    assert sorted(by_reduction, key=gf2.poly_key) == sorted(binary, key=gf2.poly_key)
    for d2, lifts in by_reduction.items():
        assert lifts == [hensel_lift(d2, beta)]


def test_hensel_lift_multiplicative_on_coprime_factors():
    for beta in (3, 5, 7, 9, 15):
        factors = factor_xn1(beta)
        for d1, d2 in itertools.combinations(factors, 2):
            assert hensel_lift(d1 * d2, beta) == hensel_lift(d1, beta) * hensel_lift(d2, beta)
