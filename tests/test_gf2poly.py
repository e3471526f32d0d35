"""Binary polynomial arithmetic: ring ops, gcd, inverses, theta, factorization."""

import re
import time
import tracemalloc

import pytest

from z2z4cyclic import BinPoly, QuatPoly, divisors_xn1, factor_xn1, theta
from z2z4cyclic import gf2poly as gf2
from z2z4cyclic import z4poly as z4
from z2z4cyclic.errors import (
    DivisorZero,
    EvenLengthUnsupported,
    GcdUndefined,
    InvalidParameter,
    NotInvertible,
    ParseError,
    ReciprocalOfZero,
    TooLarge,
)
from z2z4cyclic.poly import DEGREE_CAP, NEG_INF

from conftest import all_binpolys, bp

# -- representation ---------------------------------------------------------


def test_coeffs_ascending_no_trailing_zeros():
    assert BinPoly((1, 1, 0, 1)).coeffs == (1, 1, 0, 1)
    assert BinPoly((1, 1, 0, 0)).coeffs == (1, 1)
    assert BinPoly(()).coeffs == ()


def test_zero_degree_is_sentinel():
    assert BinPoly.zero().degree is NEG_INF
    assert BinPoly.zero().degree < 0
    assert bp("1").degree == 0
    assert bp("x^3+1").degree == 3


def test_constructor_rejects_non_residues():
    with pytest.raises(ValueError):
        BinPoly((2,))
    with pytest.raises(ValueError):
        BinPoly((True,))
    with pytest.raises(ValueError):
        BinPoly((-1,))


def test_immutable_and_hashable():
    p = bp("x+1")
    with pytest.raises(AttributeError):
        p.coeffs = (1,)
    assert len({bp("x+1"), bp("x+1"), bp("x")}) == 2


def test_binpoly_and_quatpoly_never_compare_equal():
    assert BinPoly((1, 1)) != QuatPoly((1, 1))
    with pytest.raises(TypeError):
        BinPoly((1, 1)) + QuatPoly((1, 1))


def test_monomial_builder():
    assert BinPoly.x() == bp("x")
    assert BinPoly.x(4) == bp("x^4")
    assert QuatPoly.x(4, 3) == QuatPoly.parse("3x^4")
    # The coefficient is reduced mod m, so c = 0 and c = MOD give zero.
    for cls in (BinPoly, QuatPoly):
        for e in [*range(70), *range(70, DEGREE_CAP, 263), DEGREE_CAP]:
            for c in range(6):
                assert cls.x(e, c) == cls._make([0] * e + [c]), (cls, e, c)
        # Refused as parse() refuses them: a bool or a float is no exponent,
        # and one above the cap is refused before its monomial is built.
        for e in (-1, True, 2.0, None):
            with pytest.raises(ValueError, match="^exponent must be a nonnegative integer$"):
                cls.x(e)
        with pytest.raises(TooLarge, match=f"^exponent 40000000 is above the degree cap {DEGREE_CAP}$"):
            cls.x(4 * 10**7)


@pytest.mark.parametrize("cls", [BinPoly, QuatPoly])
@pytest.mark.parametrize("coefficient", [True, False, 2.0, None, "1"], ids=repr)
def test_monomial_builder_refuses_a_coefficient_that_is_not_an_int(cls, coefficient):
    # An int coefficient is reduced mod m; anything else is refused as an exponent is.
    with pytest.raises(ValueError, match=f"^coefficient must be an integer, not {re.escape(repr(coefficient))}$"):
        cls.x(1, coefficient)


# -- the shared entry points, both rings --------------------------------------

BINARY_OPS = {
    "+": lambda p, o: p + o,
    "-": lambda p, o: p - o,
    "*": lambda p, o: p * o,
    "rmul": lambda p, o: p.__rmul__(o),
    "divmod": divmod,
    "//": lambda p, o: p // o,
    "%": lambda p, o: p % o,
}
SAMPLES = {BinPoly: BinPoly((1, 1, 0, 1)), QuatPoly: QuatPoly((3, 2, 0, 1))}


@pytest.mark.parametrize("op", BINARY_OPS)
@pytest.mark.parametrize("cls", [BinPoly, QuatPoly])
def test_entry_points_refuse_other_operands_with_the_ring_message(cls, op):
    p = SAMPLES[cls]
    other_ring = SAMPLES[QuatPoly if cls is BinPoly else BinPoly]
    for other in (other_ring, True, 1.5, None):
        with pytest.raises(TypeError) as exc:
            BINARY_OPS[op](p, other)
        assert str(exc.value) == f"expected a polynomial over Z{cls.MOD}, got {other!r}"


# -- division ---------------------------------------------------------------


def test_fold_and_pow_refuse_bad_lengths_and_other_types_compare_unequal():
    p = bp("x^2+1")
    with pytest.raises(ValueError, match="^n must be a positive integer$"):
        p.fold(0)
    # A bool or a float is no exponent, as DensePoly.x refuses them.
    for e in (-1, True, 2.0, None):
        with pytest.raises(ValueError, match="^exponent must be a nonnegative integer$"):
            p ** e
    # An exponent or a product degree above the cap is refused before the first multiply.
    assert (p**2048).degree == DEGREE_CAP
    t0 = time.perf_counter()
    with pytest.raises(TooLarge, match=f"^exponent 10000000 is above the degree cap {DEGREE_CAP}$"):
        QuatPoly.one() ** 10**7
    with pytest.raises(TooLarge, match=f"^a power of degree up to 4098 is above the degree cap {DEGREE_CAP}$"):
        p**2049
    assert time.perf_counter() - t0 < 2
    assert (BinPoly.one() == 3) is False


def test_divmod_splits_factor():
    q, r = divmod(bp("x^3+1"), bp("x+1"))
    assert q == bp("x^2+x+1")
    assert r.is_zero


def test_divmod_small_dividend():
    q, r = divmod(bp("x+1"), bp("x^2+x+1"))
    assert q.is_zero
    assert r == bp("x+1")


def test_divmod_zero_dividend():
    q, r = divmod(BinPoly.zero(), bp("x+1"))
    assert q.is_zero and r.is_zero


def test_divmod_by_zero_raises():
    for cls in (BinPoly, QuatPoly):
        for op in ("divmod", "//", "%"):
            with pytest.raises(DivisorZero, match="polynomial division by zero"):
                BINARY_OPS[op](cls.x(), cls.zero())


def test_divmod_round_trip_exhaustive():
    divisors = list(all_binpolys(3, nonzero=True))
    for a in all_binpolys(6):
        for d in divisors:
            q, r = divmod(a, d)
            assert q * d + r == a
            assert r.is_zero or r.degree < d.degree


# -- gcd ----------------------------------------------------------------------


def test_gcd_known_values():
    assert gf2.gcd(bp("x^3+1"), bp("x^2+1")) == bp("x+1")
    assert gf2.gcd(bp("x^3+1"), BinPoly.zero()) == bp("x^3+1")
    assert gf2.gcd(BinPoly.zero(), bp("x^3+1")) == bp("x^3+1")


def test_gcd_of_self_dual_table_generators():
    # Frozen from an exhaustive common-divisor scan of this exact pair.
    a = bp("x^10+x^8+x^7+x^3+x+1")
    b = bp("x^6+x^4+x+1")
    assert gf2.gcd(a, b) == bp("x^4+x^3+x^2+1")


def test_gcd_both_zero_raises():
    with pytest.raises(GcdUndefined):
        gf2.gcd(BinPoly.zero(), BinPoly.zero())


def test_gcd_is_greatest_common_divisor_exhaustive():
    # For every pair of degree <= 6: the gcd divides both arguments, and
    # every common divisor divides the gcd (divisor sets precomputed).
    polys = list(all_binpolys(6, nonzero=True))
    divisor_sets = {
        p: {d for d in polys if d.degree <= p.degree and not p % d} for p in polys
    }
    for a in polys:
        for b in polys:
            g = gf2.gcd(a, b)
            common = divisor_sets[a] & divisor_sets[b]
            assert g in common
            assert common <= divisor_sets[g]


# -- reciprocal ----------------------------------------------------------------


def test_reciprocal_known_values():
    assert bp("x^2+x+1").reciprocal() == bp("x^2+x+1")
    assert bp("x^3+x+1").reciprocal() == bp("x^3+x^2+1")
    assert bp("1").reciprocal() == bp("1")


def test_reciprocal_of_zero_raises():
    with pytest.raises(ReciprocalOfZero):
        BinPoly.zero().reciprocal()


def test_reciprocal_drops_degree_iff_root_at_zero():
    assert bp("x^2+x").reciprocal() == bp("x+1")  # p(0) = 0: degree drops
    assert bp("x^2+x+1").reciprocal().degree == 2  # p(0) = 1: degree kept


def test_reciprocal_involution_when_constant_term_is_one():
    for p in all_binpolys(6, nonzero=True):
        if p.coeffs[0] == 1:
            assert p.reciprocal().reciprocal() == p


def test_reciprocal_is_multiplicative():
    polys = list(all_binpolys(4, nonzero=True))
    for p in polys:
        for q in polys:
            assert (p * q).reciprocal() == p.reciprocal() * q.reciprocal()


# -- theta ----------------------------------------------------------------------


def test_theta_known_values():
    assert theta(1, 5) == bp("1")
    assert theta(3, 1) == bp("x^2+x+1")
    assert theta(3, 2) == bp("x^4+x^2+1")
    assert bp("x^2+1") * theta(3, 2) == bp("x^6+1")


def test_theta_rejects_nonpositive_arguments():
    with pytest.raises(InvalidParameter):
        theta(0, 3)
    with pytest.raises(InvalidParameter):
        theta(3, 0)


def test_theta_factors_x_nm_minus_1():
    for n in range(1, 9):
        for m in range(1, 9):
            assert gf2.xn1(n) * theta(m, n) == gf2.xn1(n * m)


# -- modular inverse -------------------------------------------------------------


@pytest.mark.parametrize("func", [gf2.exact_div, gf2.modinv, gf2.gcd])
def test_exact_div_and_modinv_refuse_quaternary_arguments(func):
    q = QuatPoly((1, 1))
    for args in ((q, bp("x+1")), (bp("x+1"), q), (q, q)):
        with pytest.raises(TypeError, match="expected a polynomial over Z2"):
            func(*args)
    for args, bad in (((q, bp("x+1")), q), ((bp("x+1"), None), None), ((None, q), None)):
        with pytest.raises(TypeError, match=f"^expected a polynomial over Z2, got {re.escape(repr(bad))}$"):
            func(*args)


def test_exact_div_refuses_remainder_and_zero_divisor():
    with pytest.raises(ArithmeticError, match=r"\(x\^2\+1\) is not divisible by \(x\^2\+x\+1\)"):
        gf2.exact_div(bp("x^2+1"), bp("x^2+x+1"))
    with pytest.raises(DivisorZero):
        gf2.exact_div(bp("x+1"), BinPoly.zero())
    assert gf2.exact_div(BinPoly.zero(), bp("x+1")) == BinPoly.zero()


def test_modinv_known_values():
    m = bp("x^2+x+1")
    assert gf2.modinv(bp("1"), m) == bp("1")
    assert gf2.modinv(bp("x"), m) == bp("x+1")
    assert (bp("x") * bp("x+1")) % m == bp("1")


def test_modinv_not_coprime_raises():
    with pytest.raises(NotInvertible):
        gf2.modinv(bp("x+1"), bp("x^2+1"))


def test_modinv_requires_proper_modulus():
    with pytest.raises(InvalidParameter):
        gf2.modinv(bp("x"), bp("1"))
    with pytest.raises(InvalidParameter):
        gf2.modinv(bp("x"), BinPoly.zero())


def test_modinv_round_trip_exhaustive():
    for m in all_binpolys(5, nonzero=True):
        if m.degree < 1:
            continue
        for p in all_binpolys(5, nonzero=True):
            if gf2.gcd(p, m) == bp("1"):
                assert (p * gf2.modinv(p, m)) % m == bp("1")
            else:
                with pytest.raises(NotInvertible):
                    gf2.modinv(p, m)


# -- factorization of x^n - 1 ------------------------------------------------------


def test_factor_xn1_known_values():
    assert factor_xn1(1) == [bp("x+1")]
    assert factor_xn1(3) == [bp("x+1"), bp("x^2+x+1")]
    assert set(factor_xn1(7)) == {bp("x+1"), bp("x^3+x+1"), bp("x^3+x^2+1")}


def test_factor_xn1_rejects_even_n():
    with pytest.raises(EvenLengthUnsupported):
        factor_xn1(4)
    with pytest.raises(InvalidParameter):
        factor_xn1(0)


def _is_irreducible(p: BinPoly) -> bool:
    return p.degree >= 1 and all(
        p % d for d in all_binpolys(int(p.degree) - 1, nonzero=True) if d.degree >= 1
    )


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 15])
def test_factor_xn1_product_and_irreducibility(n):
    factors = factor_xn1(n)
    prod = bp("1")
    for p in factors:
        prod = prod * p
    assert prod == gf2.xn1(n)
    assert len(set(factors)) == len(factors)
    assert all(_is_irreducible(p) for p in factors)


# Number of irreducible factors of x^n - 1 for n = 1, 3, ..., 255, recorded
# with a Berlekamp (Frobenius-matrix nullspace) factorizer, which shares no
# code with the cyclotomic-coset split under test.
_FACTOR_COUNTS = [
    1, 2, 2, 3, 3, 2, 2, 5, 3, 2, 6, 3, 3, 4, 2, 7,
    5, 6, 2, 5, 3, 4, 8, 3, 5, 8, 2, 5, 5, 2, 2, 13,
    7, 2, 6, 3, 9, 8, 6, 3, 5, 2, 12, 5, 9, 10, 14, 5,
    3, 8, 2, 3, 15, 2, 4, 5, 5, 6, 12, 9, 3, 8, 4, 19,
    11, 2, 10, 11, 3, 2, 6, 5, 7, 10, 2, 11, 13, 14, 4, 5,
    9, 2, 14, 3, 3, 12, 2, 9, 5, 2, 2, 5, 7, 8, 20, 3,
    3, 20, 2, 3, 5, 6, 12, 9, 5, 2, 6, 11, 21, 18, 12, 7,
    13, 2, 4, 15, 9, 6, 6, 3, 11, 6, 10, 9, 5, 6, 6, 35,
]


@pytest.mark.parametrize("n, count", zip(range(1, 256, 2), _FACTOR_COUNTS))
def test_factor_xn1_splits_into_count_irreducibles(n, count):
    # count nonconstant factors multiplying to x^n - 1, which has exactly
    # count irreducible factors, must each be irreducible.
    factors = factor_xn1(n)
    prod = bp("1")
    for p in factors:
        prod = prod * p
    assert prod == gf2.xn1(n)
    assert len(set(factors)) == len(factors) == count
    assert all(p.degree >= 1 for p in factors)
    assert factors == sorted(factors, key=gf2.poly_key)


def test_xn1_and_divisors_xn1_refuse_a_zero_length():
    for call in (gf2.xn1, divisors_xn1):
        with pytest.raises(InvalidParameter, match="^n must be a positive integer$"):
            call(0)


@pytest.mark.parametrize(
    "call, name",
    [
        (factor_xn1, "n"),
        (divisors_xn1, "n"),
        (gf2._cosets, "n"),
        (gf2._divisor_shape, "n"),
        (gf2.xn1, "n"),
        (z4.xn1, "n"),
        (bp("x^2+1").fold, "n"),
        (QuatPoly.one().fold, "n"),
        (lambda m: theta(m, 3), "m"),
        (lambda n: theta(3, n), "n"),
        (lambda beta: z4.hensel_lift(bp("x+1"), beta), "beta"),
        (lambda beta: z4.mul_mod(QuatPoly.one(), QuatPoly.one(), beta), "beta"),
    ],
    ids=[
        "factor_xn1", "divisors_xn1", "_cosets", "_divisor_shape", "gf2.xn1", "z4.xn1",
        "BinPoly.fold", "QuatPoly.fold", "theta_m", "theta_n", "hensel_lift", "mul_mod",
    ],
)
def test_xn1_helpers_refuse_a_bool_a_float_and_a_length_above_the_cap(call, name):
    for n in (True, 3.0, "3", None, 0):
        with pytest.raises(InvalidParameter, match=f"^{name} must be a positive integer$"):
            call(n)
    # Refused before anything of that size is built: a coset walk at a million
    # steps takes seconds, and x^n - 1 over Z4 at n = 10^7 + 1 peaks at 21 MB.
    for n in (DEGREE_CAP + 1, 1_000_001, 10**7 + 1):
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(TooLarge, match=f"^{name} = {n} is above the length cap of {DEGREE_CAP}$"):
                call(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 1
        assert peak < 2**20


def test_divisors_xn1_odd_n():
    divs = divisors_xn1(3)
    assert divs == [bp("1"), bp("x+1"), bp("x^2+x+1"), bp("x^3+1")]


def test_divisors_xn1_even_n_carries_multiplicity():
    # x^4 - 1 = (x + 1)^4 over Z2: five divisors, one per exponent.
    assert divisors_xn1(4) == [bp("x+1") ** e for e in range(5)]
    # x^6 - 1 = (x + 1)^2 (x^2 + x + 1)^2: a 3 x 3 grid of divisors.
    divs = divisors_xn1(6)
    assert len(divs) == 9
    assert all(not gf2.xn1(6) % d for d in divs)


def test_divisors_xn1_all_divide_and_are_sorted():
    for n in (1, 2, 3, 5, 8, 9):
        divs = divisors_xn1(n)
        assert all(not gf2.xn1(n) % d for d in divs)
        assert divs == sorted(divs, key=gf2.poly_key)
        assert len(set(divs)) == len(divs)


# -- text forms ---------------------------------------------------------------------


def test_parse_human_and_csv_agree():
    assert bp("x^3+x+1") == BinPoly((1, 1, 0, 1))
    assert bp("1,1,0,1") == bp("x^3+x+1")
    assert bp("0") == BinPoly.zero()
    assert bp("x^2 + x + 1") == bp("x^2+x+1")


def test_parse_folds_signs_mod_2():
    assert bp("x-1") == bp("x+1")


def test_parse_rejects_out_of_range_coefficients():
    with pytest.raises(ParseError):
        bp("2x+1")
    with pytest.raises(ParseError):
        bp("1,2")


def test_parse_rejects_malformed_text():
    with pytest.raises(ParseError):
        bp("")
    with pytest.raises(ParseError):
        bp("x^")
    with pytest.raises(ParseError):
        bp("x 1")
    with pytest.raises(ParseError):
        bp("1,a")


def test_parse_accepts_ascii_digits_only():
    with pytest.raises(ParseError):
        bp("1,²")
    with pytest.raises(ParseError):
        bp("x^³+1")
    with pytest.raises(ParseError):
        bp("١x")  # ARABIC-INDIC DIGIT ONE


def test_parse_caps_the_degree_before_building_anything():
    assert bp(f"x^{DEGREE_CAP}").degree == DEGREE_CAP
    with pytest.raises(TooLarge):
        bp(f"x^{DEGREE_CAP + 1}")
    with pytest.raises(TooLarge):
        bp("x^" + "9" * 5000)
    with pytest.raises(TooLarge):
        bp(",".join("0" * (DEGREE_CAP + 2)))
    assert bp("0" * 5000 + "1") == BinPoly.one()


def test_str_round_trips_exhaustively():
    for p in all_binpolys(6):
        assert BinPoly.parse(str(p)) == p
        assert BinPoly.parse(p.coeff_csv()) == p


def test_str_known_forms():
    assert str(bp("1,1,0,1")) == "x^3+x+1"
    assert str(BinPoly.zero()) == "0"
    assert str(bp("x")) == "x"
    assert BinPoly.zero().coeff_csv() == "0"
