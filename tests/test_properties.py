"""Property tests: the text front end (polynomials, spec text, CLI flags),
the bit-packed BinPoly arithmetic and the int kernels behind it against a
schoolbook Z2 reference, the kernels of both rings called straight on
packed ints against the Z2 and Z4 references, the CLI's JSON renderer against json.dumps, the
packed-key canonical sort and the block projection counts against numpy's
row sort, the key kernels (the lane-wise Z4 add, the decode, enumeration on
two limbs) against their row and polynomial forms, the span of shifted
rows and cyclic closure against a set of shifted Codewords, the rotated
spanning rows and correlated shift products against their loop forms
(stacked shift products against each pair's), the
peak memory of the spanning rows, of contains and of code_report, the pairing of long rows
against inner_product, the circ product's coefficients against the shifted
inner products, and
the Gray map on keys, its decoded image and its popcount weights against a
literal per-symbol table, and the parse, str and Hensel-lift caches against
the uncached code, with their worst-case bytes."""

import contextlib
import io
import itertools
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from z2z4cyclic import (
    BinPoly,
    Codeword,
    NotInvertible,
    NotMonic,
    QuatPoly,
    Z2Z4Error,
    circ_product,
    code_report,
    codeword_matrix,
    contains,
    cyclic_shift,
    dual_spec,
    format_spec_text,
    gray_map,
    inner_product,
    iter_valid_specs,
    parse_spec_text,
    spanning_set,
    spec_fields,
    spec_from_fields,
    validate_spec,
)
from z2z4cyclic import gf2poly as gf2
from z2z4cyclic import z4poly as z4
from z2z4cyclic import analysis, poly
from z2z4cyclic.analysis import _cyclic_closed, _min_distance, _sample_rows, _shifted_inner_products
from z2z4cyclic.cli import _json, main
from z2z4cyclic.code import (
    _DECODE_CELLS,
    _block_sizes,
    _codeword_keys,
    _decode_keys,
    _gray_keys,
    _gray_rows,
    _key_add,
    _key_layout,
    _pairings,
    _projection_sizes,
    _reduce_blocks,
    _row_keys,
    _row_word,
    _shift_cols,
    _sort_keys,
    _span_keys,
    _unit_shift_cols,
)
from z2z4cyclic.dual import _index_bits
from z2z4cyclic.errors import NotADivisor, ParseError, TooLarge
from z2z4cyclic.poly import DEGREE_CAP, NEG_INF

PROPERTY = settings(deadline=None, max_examples=200)

SMALL_SPECS = [
    spec for alpha in range(1, 5) for beta in (1, 3, 5) for spec in iter_valid_specs(alpha, beta)
]

# Text that looks like polynomials, with non-ASCII digits and minus signs
# mixed in, alongside arbitrary Unicode.
POLY_CHARS = "x^+-0123456789 ,\t" + "²³¹١٣−"
poly_text = st.text(alphabet=POLY_CHARS, max_size=16) | st.text(max_size=16)
int_text = st.integers(-3, 9).map(str) | poly_text


def polys(cls):
    return st.lists(st.integers(0, cls.MOD - 1), max_size=24).map(cls)


@PROPERTY
@given(st.one_of(polys(BinPoly), polys(QuatPoly)))
def test_both_text_forms_round_trip(p):
    cls = type(p)
    assert cls.parse(str(p)) == p
    assert cls.parse(p.coeff_csv()) == p


@PROPERTY
@given(st.sampled_from(SMALL_SPECS))
def test_spec_text_round_trip(spec):
    assert parse_spec_text(format_spec_text(spec)) == spec
    assert spec_from_fields(spec_fields(spec)) == spec


@PROPERTY
@given(poly_text)
def test_arbitrary_polynomial_text_raises_only_library_errors(text):
    for cls in (BinPoly, QuatPoly):
        try:
            cls.parse(text)
        except Z2Z4Error:
            pass


@PROPERTY
@given(st.fixed_dictionaries({
    "alpha": int_text, "beta": int_text,
    "b": poly_text, "ell": poly_text, "f": poly_text, "h": poly_text,
}))
def test_arbitrary_spec_fields_raise_only_library_errors(fields):
    try:
        spec_from_fields(fields)
    except Z2Z4Error:
        pass


@PROPERTY
@given(int_text, int_text, poly_text, poly_text, poly_text, poly_text)
def test_arbitrary_inline_flags_exit_cleanly(alpha, beta, b, ell, f, h):
    argv = ["dual", f"--alpha={alpha}", f"--beta={beta}",
            f"--b={b}", f"--ell={ell}", f"--f={f}", f"--h={h}"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = main(argv)
    assert status in (0, 2, 3)


# -- BinPoly against a schoolbook reference on coefficient tuples -----------------


def ref_trim(coeffs) -> tuple:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def ref_add(a, b) -> tuple:
    n = max(len(a), len(b))
    return ref_trim((a[i] if i < len(a) else 0) ^ (b[i] if i < len(b) else 0) for i in range(n))


def ref_mul(a, b) -> tuple:
    out = [0] * (len(a) + len(b))
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] ^= u & v
    return ref_trim(out)


def ref_divmod(a, d) -> tuple:
    rem = list(a)
    quo = [0] * max(len(a) - len(d) + 1, 0)
    for i in range(len(quo) - 1, -1, -1):
        if rem[i + len(d) - 1]:
            quo[i] = 1
            for j, v in enumerate(d):
                rem[i + j] ^= v
    return ref_trim(quo), ref_trim(rem)


def ref_gcd(a, b) -> tuple:
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return a


def ref_fold(a, n: int) -> tuple:
    out = [0] * n
    for i, v in enumerate(a):
        out[i % n] ^= v
    return ref_trim(out)


def ref_str(a) -> str:
    terms = ["1" if e == 0 else "x" if e == 1 else f"x^{e}" for e in range(len(a) - 1, -1, -1) if a[e]]
    return "+".join(terms) or "0"


bits = st.lists(st.integers(0, 1), max_size=81)
nonzero_bits = bits.filter(any)


@PROPERTY
@given(bits)
def test_binpoly_views_match_reference(a):
    p, ta = BinPoly(a), ref_trim(a)
    assert p.coeffs == ta
    assert p.degree == (len(ta) - 1 if ta else NEG_INF)
    assert p.is_zero == (not ta) == (not p)
    assert str(p) == ref_str(ta)
    assert p.coeff_csv() == (",".join(map(str, ta)) or "0")


@PROPERTY
@given(bits, bits, st.integers(-9, 9))
def test_binpoly_ring_ops_match_reference(a, b, k):
    p, q = BinPoly(a), BinPoly(b)
    ta, tb = ref_trim(a), ref_trim(b)
    assert (p + q).coeffs == (p - q).coeffs == ref_add(ta, tb)
    assert (-p).coeffs == ta
    assert (p * q).coeffs == ref_mul(ta, tb)
    assert (p * k).coeffs == (k * p).coeffs == (ta if k % 2 else ())


@PROPERTY
@given(bits, nonzero_bits)
def test_binpoly_division_matches_reference(a, d):
    p, dp = BinPoly(a), BinPoly(d)
    quo, rem = ref_divmod(ref_trim(a), ref_trim(d))
    q, r = divmod(p, dp)
    assert (q.coeffs, r.coeffs) == (quo, rem)
    assert (p // dp).coeffs == quo
    assert (p % dp).coeffs == rem


@PROPERTY
@given(bits, st.integers(1, 90))
def test_binpoly_fold_matches_reference(a, n):
    assert BinPoly(a).fold(n).coeffs == ref_fold(ref_trim(a), n)


@PROPERTY
@given(nonzero_bits)
def test_binpoly_reciprocal_matches_reference(a):
    assert BinPoly(a).reciprocal().coeffs == ref_trim(reversed(ref_trim(a)))


@PROPERTY
@given(st.lists(st.integers(0, 1), max_size=17), st.integers(0, 5))
def test_binpoly_power_matches_reference(a, n):
    want = (1,)
    for _ in range(n):
        want = ref_mul(want, ref_trim(a))
    assert (BinPoly(a) ** n).coeffs == want


@PROPERTY
@given(bits, bits)
def test_gcd_matches_reference(a, b):
    ta, tb = ref_trim(a), ref_trim(b)
    assume(ta or tb)
    assert gf2.gcd(BinPoly(a), BinPoly(b)).coeffs == ref_gcd(ta, tb)


@PROPERTY
@given(bits, nonzero_bits)
def test_modinv_matches_reference(a, m):
    tm = ref_trim(m)
    assume(len(tm) >= 2)
    p, mp = BinPoly(a), BinPoly(m)
    if ref_gcd(ref_divmod(ref_trim(a), tm)[1], tm) != (1,):
        with pytest.raises(NotInvertible):
            gf2.modinv(p, mp)
        return
    inv = gf2.modinv(p, mp)
    assert inv.degree < mp.degree
    assert ref_divmod(ref_mul(ref_trim(a), inv.coeffs), tm)[1] == (1,)


@PROPERTY
@given(bits, nonzero_bits)
def test_exact_div_matches_reference(a, b):
    product = BinPoly(ref_mul(ref_trim(a), ref_trim(b)))
    assert gf2.exact_div(product, BinPoly(b)).coeffs == ref_trim(a)


@PROPERTY
@given(bits, bits)
def test_binpoly_equality_hash_and_lift(a, b):
    p, q = BinPoly(a), BinPoly(b)
    assert (p == q) == (ref_trim(a) == ref_trim(b))
    twin = BinPoly.parse(str(p))
    assert twin == p and hash(twin) == hash(p)
    assert p != QuatPoly(a)
    assert z4.lift_binary(p).reduce_mod2() == p


# -- the int kernels behind the BinPoly methods, against the same reference -----


def ref_pack(coeffs) -> int:
    return sum(v << i for i, v in enumerate(coeffs))


@PROPERTY
@given(nonzero_bits, st.integers(1, 90))
def test_int_reversal_and_fold_match_reference(a, n):
    ta = ref_trim(a)
    assert gf2._rev_bits(ref_pack(ta)) == ref_pack(ref_trim(reversed(ta)))
    assert gf2._fold_bits(ref_pack(ta), n) == ref_pack(ref_fold(ta, n))


@PROPERTY
@given(bits, nonzero_bits)
def test_int_exact_division_matches_reference(a, b):
    ta, tb = ref_trim(a), ref_trim(b)
    assert gf2._exact_bits(ref_pack(ref_mul(ta, tb)), ref_pack(tb)) == ref_pack(ta)
    quo, rem = ref_divmod(ta, tb)
    if rem:
        message = f"internal error: ({ref_str(ta)}) is not divisible by ({ref_str(tb)}) over Z2"
        with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
            gf2._exact_bits(ref_pack(ta), ref_pack(tb))
    else:
        assert gf2._exact_bits(ref_pack(ta), ref_pack(tb)) == ref_pack(quo)


@PROPERTY
@given(bits, nonzero_bits)
def test_int_modinv_matches_reference(a, m):
    ta, tm = ref_trim(a), ref_trim(m)
    assume(len(tm) >= 2)
    if ref_gcd(ref_divmod(ta, tm)[1], tm) != (1,):
        message = f"({ref_str(ta)}) is not invertible modulo ({ref_str(tm)})"
        with pytest.raises(NotInvertible, match=f"^{re.escape(message)}$"):
            gf2._modinv_bits(ref_pack(ta), ref_pack(tm))
        return
    inv = gf2._modinv_bits(ref_pack(ta), ref_pack(tm))
    assert inv < ref_pack(tm) and inv.bit_length() < len(tm)
    assert ref_pack(ref_divmod(ref_mul(ta, BinPoly._wrap(inv).coeffs), tm)[1]) == 1


# -- QuatPoly against a schoolbook reference on coefficient tuples ---------------


def ref4_add(a, b, sign=1) -> tuple:
    n = max(len(a), len(b))
    return ref_trim(
        ((a[i] if i < len(a) else 0) + sign * (b[i] if i < len(b) else 0)) % 4 for i in range(n)
    )


def ref4_mul(a, b) -> tuple:
    out = [0] * (len(a) + len(b))
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return ref_trim(v % 4 for v in out)


def ref4_divmod(a, d) -> tuple:
    # The leading coefficient of d is 1 or 3, its own inverse mod 4.
    rem = list(a)
    quo = [0] * max(len(a) - len(d) + 1, 0)
    for i in range(len(quo) - 1, -1, -1):
        t = rem[i + len(d) - 1] * d[-1] % 4
        quo[i] = t
        for j, v in enumerate(d):
            rem[i + j] = (rem[i + j] - t * v) % 4
    return ref_trim(quo), ref_trim(rem)


def ref4_fold(a, n: int) -> tuple:
    out = [0] * n
    for i, v in enumerate(a):
        out[i % n] = (out[i % n] + v) % 4
    return ref_trim(out)


def ref4_str(a) -> str:
    terms = []
    for e in range(len(a) - 1, -1, -1):
        if a[e]:
            base = "" if e == 0 else "x" if e == 1 else f"x^{e}"
            terms.append(str(a[e]) if e == 0 else base if a[e] == 1 else f"{a[e]}{base}")
    return "+".join(terms) or "0"


# Up to 81 coefficients: a product of two such crosses 9 * min(len) >= 256,
# the bound past which QuatPoly._mul spreads its operands to wider slots.
quats = st.lists(st.integers(0, 3), max_size=81)
unit_led = st.tuples(st.lists(st.integers(0, 3), max_size=40), st.sampled_from((1, 3))).map(
    lambda t: [*t[0], t[1]]
)


@PROPERTY
@given(quats)
def test_quatpoly_views_match_reference(a):
    p, ta = QuatPoly(a), ref_trim(a)
    assert p.coeffs == ta
    assert p.degree == (len(ta) - 1 if ta else NEG_INF)
    assert p.is_zero == (not ta) == (not p)
    assert p.is_monic == (bool(ta) and ta[-1] == 1)
    assert str(p) == ref4_str(ta)
    assert p.coeff_csv() == (",".join(map(str, ta)) or "0")


@PROPERTY
@given(quats, quats, st.integers(-9, 9))
def test_quatpoly_ring_ops_match_reference(a, b, k):
    p, q = QuatPoly(a), QuatPoly(b)
    ta, tb = ref_trim(a), ref_trim(b)
    assert (p + q).coeffs == ref4_add(ta, tb)
    assert (p - q).coeffs == ref4_add(ta, tb, -1)
    assert (-p).coeffs == ref4_add((), ta, -1)
    assert (p * q).coeffs == (q * p).coeffs == ref4_mul(ta, tb)
    assert (p * k).coeffs == (k * p).coeffs == ref_trim(k * v % 4 for v in ta)


def wide_quat(length, entries, top):
    """length coefficients, nonzero at the top and at a few sampled places."""
    vals = [0] * length
    for i, v in entries:
        vals[i % length] = v
    vals[-1] = top
    return vals


# Longer than z4._MASK_BYTES = 16384 coefficients, so _reduce builds a wider
# mask; the other operand may be short.
wide_quats = st.builds(
    wide_quat,
    st.integers(z4._MASK_BYTES + 1, z4._MASK_BYTES + 4000),
    st.lists(st.tuples(st.integers(0, 20000), st.integers(0, 3)), max_size=12),
    st.integers(1, 3),
)


def first_difference(got, want):
    """The first index where two coefficient tuples differ, or None."""
    pairs = enumerate(itertools.zip_longest(got, want))
    return next((i for i, (u, v) in pairs if u != v), None)


# Each example builds tuples of 16k entries, so a failure is reported as
# found, unshrunk: shrinking one takes minutes.
@settings(deadline=None, max_examples=40, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(wide_quats, wide_quats | quats, st.integers(-9, 9))
def test_wide_quatpoly_sums_match_reference(a, b, k):
    p, q = QuatPoly(a), QuatPoly(b)
    assert p._rep.bit_length() > 8 * z4._MASK_BYTES
    ta, tb = ref_trim(a), ref_trim(b)
    scaled = ref_trim(k * v % 4 for v in ta)
    for name, got, want in (
        ("p + q", p + q, ref4_add(ta, tb)),
        ("q + p", q + p, ref4_add(ta, tb)),
        ("p - q", p - q, ref4_add(ta, tb, -1)),
        ("-p", -p, ref4_add((), ta, -1)),
        ("p * k", p * k, scaled),
        ("k * p", k * p, scaled),
    ):
        assert first_difference(got.coeffs, want) is None, name


@PROPERTY
@given(quats, unit_led)
def test_quatpoly_division_matches_reference(a, d):
    p, dp = QuatPoly(a), QuatPoly(d)
    quo, rem = ref4_divmod(ref_trim(a), tuple(d))
    q, r = divmod(p, dp)
    assert (q.coeffs, r.coeffs) == (quo, rem)
    assert (p // dp).coeffs == quo
    assert (p % dp).coeffs == rem
    assert q * dp + r == p


@PROPERTY
@given(quats, st.integers(1, 90))
def test_quatpoly_fold_reciprocal_and_binary_images_match_reference(a, n):
    p, ta = QuatPoly(a), ref_trim(a)
    assert p.fold(n).coeffs == ref4_fold(ta, n)
    if ta:
        assert p.reciprocal().coeffs == ref_trim(reversed(ta))
    assert p.reduce_mod2().coeffs == ref_trim(v % 2 for v in ta)
    bits = [v % 2 for v in a]
    assert z4.lift_binary(BinPoly(bits)).coeffs == ref_trim(bits)


@PROPERTY
@given(quats, quats)
def test_quatpoly_equality_and_hash(a, b):
    p, q = QuatPoly(a), QuatPoly(b)
    assert (p == q) == (ref_trim(a) == ref_trim(b))
    twin = QuatPoly.parse(p.coeff_csv())
    assert twin == p and hash(twin) == hash(p)
    assert (p == BinPoly([v % 2 for v in a])) is False


def test_quatpoly_products_around_the_slot_bound():
    # All-3 operands give the largest coefficient sums, 9 * min(len); one-byte
    # slots hold them up to 28 coefficients and would carry from 29 on.
    for n in (1, 28, 29, 30, 81, 300):
        for m in (n, 29, 300):
            a, b = (3,) * n, (3,) * (m - 1) + (1,)
            assert (QuatPoly(a) * QuatPoly(b)).coeffs == ref4_mul(a, b), (n, m)


def test_quatpoly_long_product_matches_convolution():
    # Degree 4096 each, so every slot of the product needs two bytes.
    rng = np.random.default_rng(2024)
    a, b = rng.integers(0, 4, 4097), rng.integers(0, 4, 4097)
    a[-1] = b[-1] = 1
    want = ref_trim(int(v) for v in np.convolve(a, b) % 4)
    assert (QuatPoly(a.tolist()) * QuatPoly(b.tolist())).coeffs == want


# -- the ring kernels, called straight on packed ints ------------------------------


def ref4_pack(coeffs) -> int:
    return sum(v << 8 * i for i, v in enumerate(coeffs))


def kernel_results(cls, x, y, z, n) -> list:
    """Every arithmetic kernel of cls on packed x and y, divisor z and fold length n."""
    q, r = cls._divmod(x, z)
    return [cls._add(x, y), cls._sub(x, y), cls._mul(x, y), cls._mul(y, x), q, r,
            cls._mod(x, z), cls._reciprocal(z), cls._fold(x, n)]


@PROPERTY
@given(bits, bits, nonzero_bits, st.integers(1, 90))
def test_binpoly_kernels_take_and_return_packed_ints(a, b, d, n):
    ta, tb, td = ref_trim(a), ref_trim(b), ref_trim(d)
    got = kernel_results(BinPoly, ref_pack(ta), ref_pack(tb), ref_pack(td), n)
    quo, rem = ref_divmod(ta, td)
    want = [ref_add(ta, tb), ref_add(ta, tb), ref_mul(ta, tb), ref_mul(ta, tb), quo, rem,
            rem, ref_trim(reversed(td)), ref_fold(ta, n)]
    assert [type(v) for v in got] == [int] * len(want)
    assert got == [ref_pack(w) for w in want]


@PROPERTY
@given(quats, quats, unit_led, st.integers(1, 90))
def test_quatpoly_kernels_take_and_return_packed_ints(a, b, d, n):
    # quats reach 81 coefficients, so the products cross 9 * min(len) >= 256,
    # where the product kernel spreads its operands to wider slots.
    ta, tb, td = ref_trim(a), ref_trim(b), tuple(d)
    got = kernel_results(QuatPoly, ref4_pack(ta), ref4_pack(tb), ref4_pack(td), n)
    quo, rem = ref4_divmod(ta, td)
    want = [ref4_add(ta, tb), ref4_add(ta, tb, -1), ref4_mul(ta, tb), ref4_mul(ta, tb), quo, rem,
            rem, ref_trim(reversed(td)), ref4_fold(ta, n)]
    assert [type(v) for v in got] == [int] * len(want)
    assert got == [ref4_pack(w) for w in want]


@PROPERTY
@given(quats)
def test_make_monic_scales_by_the_leading_coefficient(a):
    p, ta = QuatPoly(a), ref_trim(a)
    if not ta or ta[-1] == 2:
        with pytest.raises(NotMonic):
            z4.make_monic(p)
        return
    assert z4.make_monic(p).coeffs == ref_trim(ta[-1] * v % 4 for v in ta)


@PROPERTY
@given(quats)
def test_int_reduction_mod_two_matches_reference(a):
    ta = ref_trim(a)
    packed = sum(v << 8 * i for i, v in enumerate(ta))
    assert z4._mod2_bits(packed) == ref_pack(ref_trim(v & 1 for v in ta))


def ref_graeffe_lift(d) -> tuple:
    """The Hensel lift of a binary divisor d of x^n - 1, from tuples alone:
    D(x) * D(-x) = +-P(x^2), with the sign that makes P monic."""
    neg = tuple(-v % 4 if i % 2 else v for i, v in enumerate(d))
    prod = ref4_mul(d, neg)
    assert not any(prod[1::2])
    lifted = prod[::2]
    return ref_trim(lifted[-1] * v % 4 for v in lifted)


def test_hensel_lift_matches_graeffe_reference():
    # Every binary divisor of x^n - 1 for odd n <= 35.  From 29 coefficients
    # on, 9 * min(len) passes 255, so QuatPoly._mul spreads the Graeffe
    # product's operands to wider slots; n = 31 and 33 reach degree 29 and up.
    top = 0
    for n in range(1, 36, 2):
        for d in gf2.divisors_xn1(n):
            assert z4.hensel_lift(d, n).coeffs == ref_graeffe_lift(d.coeffs), (n, str(d))
            top = max(top, d.degree)
    assert top >= 29


@PROPERTY
@given(st.sampled_from(range(1, 36, 2)), st.data())
def test_hensel_lift_of_a_coprime_product_is_the_product_of_lifts(n, data):
    # Each irreducible factor of x^n - 1 goes to p, to q or to neither, so p
    # and q are coprime divisors.  dual_generators rests on this: it lifts
    # h_bar's binary image on its own rather than dividing lifts over Z4.
    p = q = BinPoly.one()
    for factor in gf2.factor_xn1(n):
        route = data.draw(st.sampled_from(("p", "q", "neither")))
        if route == "p":
            p = p * factor
        elif route == "q":
            q = q * factor
    assert z4.hensel_lift(p * q, n) == z4.hensel_lift(p, n) * z4.hensel_lift(q, n)


# -- packed-key canonical sort ------------------------------------------------

# (alpha, beta) with 1 <= alpha + 2*beta <= 140 bits: an X block only, a Y
# block only, or both; keys then take one, two or three limbs.
ambients = st.one_of(
    st.tuples(st.integers(1, 140), st.just(0)),
    st.tuples(st.just(0), st.integers(1, 70)),
    st.integers(1, 69).flatmap(lambda b: st.tuples(st.integers(1, 140 - 2 * b), st.just(b))),
)


@PROPERTY
@given(
    ambients,
    st.booleans(),
    st.integers(1, 12),
    st.integers(1, 40),
    st.sampled_from((0.02, 0.2, 1.0)),
    st.integers(0, 2**32 - 1),
)
def test_sort_keys_matches_numpy_row_sort(ambient, gray, distinct, n_rows, density, seed):
    alpha, beta = ambient
    rng = np.random.default_rng(seed)
    base = np.concatenate(
        [rng.integers(0, 2, (distinct, alpha)), rng.integers(0, 4, (distinct, beta))], axis=1
    )
    # Sparse rows share long zero prefixes, so they differ only in later limbs.
    base = base * (rng.random(base.shape) < density)
    rows = base[rng.integers(0, distinct, n_rows)].astype(np.int16)
    if gray:
        q = rows[:, alpha:]
        rows = np.concatenate([rows[:, :alpha], q >> 1, (q + 1) >> 1 & 1], axis=1)
        alpha = rows.shape[1]
    bits = alpha + 2 * (rows.shape[1] - alpha)
    assert _row_keys(rows, alpha).shape == (max(1, -(-bits // 64)), n_rows)
    assert _row_keys(rows, alpha).dtype == (np.uint32 if bits <= 32 else np.uint64)
    ref = np.unique(rows, axis=0)
    keys = _row_keys(rows, alpha)
    assert np.array_equal(_sort_keys(keys), _row_keys(ref, alpha))
    # The argument is left as it was.
    assert np.array_equal(keys, _row_keys(rows, alpha))
    assert _projection_sizes(keys, alpha, rows.shape[1]) == (
        len(np.unique(rows[:, :alpha], axis=0)),
        len(np.unique(rows[:, alpha:], axis=0)),
    )


@PROPERTY
@given(ambients, st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_key_add_is_the_packed_reduced_sum(ambient, n_rows, seed):
    alpha, beta = ambient
    rng = np.random.default_rng(seed)

    def rows():
        return np.concatenate(
            [rng.integers(0, 2, (n_rows, alpha)), rng.integers(0, 4, (n_rows, beta))], axis=1
        ).astype(np.int16)

    a, b = rows(), rows()
    ka, kb = _row_keys(a, alpha), _row_keys(b, alpha)
    want = _row_keys(_reduce_blocks(a + b, alpha), alpha)
    assert np.array_equal(_key_add(ka, kb, kb & _key_layout(alpha + beta, alpha).low), want)
    assert np.array_equal(_decode_keys(ka, alpha, alpha + beta), a)


def random_rows(rng, n_rows, alpha, beta):
    return np.concatenate(
        [rng.integers(0, 2, (n_rows, alpha)), rng.integers(0, 4, (n_rows, beta))], axis=1
    ).astype(np.int16)


@pytest.mark.parametrize("alpha, beta", [(4, 7), (1, 69), (70, 35)])
@pytest.mark.parametrize("blocks, extra", [(0, 0), (1, -1), (1, 0), (1, 1), (2, 3)])
def test_decode_keys_round_trips_across_decode_blocks(alpha, beta, blocks, extra):
    n_rows = blocks * (_DECODE_CELLS // (alpha + beta)) + extra
    rows = random_rows(np.random.default_rng(n_rows), n_rows, alpha, beta)
    got = _decode_keys(_row_keys(rows, alpha), alpha, alpha + beta)
    assert got.dtype == np.uint8 and got.shape == rows.shape
    assert np.array_equal(got, rows)


def shift_closed(words) -> bool:
    """The set oracle: every word's one-step shift is in the set."""
    return all(cyclic_shift(w, 1) in words for w in words)


def canonical_keys(words, alpha):
    mat = np.array([w.u + w.uq for w in words], dtype=np.int16).reshape(len(words), -1)
    return _sort_keys(_row_keys(mat, alpha))


# Ambients of one, two and three key limbs, with X fields inside one limb and
# across a limb boundary, and blocks of length 1.
CLOSURE_AMBIENTS = [
    (1, 1), (3, 3), (4, 7), (1, 31), (62, 1), (1, 33), (65, 1), (20, 25),
    (33, 17), (64, 32), (10, 60), (100, 17), (138, 1), (2, 69),
]


@st.composite
def generator_sets(draw):
    """(rows, widths, alpha): generators on a CLOSURE_AMBIENTS ambient, of at most 8 width bits.

    A width-1 row has order two, so its Z4 entries are even.  About one row
    in five is zero.  With orbits, the first row is made periodic, with
    period 1 or 2 in X and 1 or 3 in Y, and is replaced by its whole shift
    orbit, so the span can be closed; the width cut may still split it.
    """
    alpha, beta = draw(st.sampled_from(CLOSURE_AMBIENTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = random_rows(rng, 4, alpha, beta) * (rng.random((4, 1)) < 0.8)
    widths = rng.integers(1, 3, 4)
    if draw(st.booleans()):
        px = 2 if alpha % 2 == 0 else 1
        py = 3 if beta % 3 == 0 else 1
        first = rows[0, np.concatenate([np.arange(alpha) % px, alpha + np.arange(beta) % py])]
        orbit = first[_shift_cols(alpha, beta, np.arange(math.lcm(px, py))[:, None])]
        rows = np.concatenate([orbit, rows[1:]])
        widths = np.concatenate([np.full(len(orbit), widths[0]), widths[1:]])
    rows[widths == 1, alpha:] &= 2
    keep = np.cumsum(widths) <= draw(st.integers(1, 8))
    return rows[keep], widths[keep], alpha


def span_words(rows, widths, alpha):
    """The span as a set of Codewords, by adding each generator's multiples one at a time."""
    words = {tuple([0] * rows.shape[1])}
    for row, width in zip(rows.tolist(), widths.tolist()):
        words = {
            tuple((a + c * b) % (2 if j < alpha else 4) for j, (a, b) in enumerate(zip(w, row)))
            for w in words
            for c in range(1 << width)
        }
    return {Codeword(w[:alpha], w[alpha:]) for w in words}


@PROPERTY
@given(generator_sets())
def test_cyclic_closure_matches_the_shifted_word_set(gens):
    rows, widths, alpha = gens
    beta = rows.shape[1] - alpha
    words = span_words(rows, widths, alpha)
    keys = _span_keys(rows, alpha)
    assert np.array_equal(keys, canonical_keys(words, alpha))
    shifted = _span_keys(rows[:, _shift_cols(alpha, beta, 1)], alpha)
    assert np.array_equal(shifted, canonical_keys({cyclic_shift(w, 1) for w in words}, alpha))
    assert _cyclic_closed(rows, alpha, keys) == shift_closed(words)


def two_limb_spec():
    """(1 | 33) with g the lift of x^2+x+1: 67 key bits, the Z2 coordinate in the top limb."""
    g = z4.hensel_lift(BinPoly.parse("x^2+x+1"), 33)
    f = divmod(z4.xn1(33), g)[0]
    return validate_spec(1, 33, BinPoly.parse("x+1"), BinPoly.zero(), f, QuatPoly.one())


CLOSED_CODES = [
    parse_spec_text("alpha=3\nbeta=3\nb=x^3+1\nell=x+1\nf=1\nh=x^2+x+1\n"),
    parse_spec_text("alpha=4\nbeta=7\nb=x+1\nell=1\nf=1\nh=1\n"),
    # Two limbs, the X field across the limb boundary.
    parse_spec_text(
        "alpha=33\nbeta=17\nb=x^30+x^27+x^24+x^21+x^18+x^15+x^12+x^9+x^6+x^3+1\n"
        "ell=0\nf=x^17+3\nh=1\n"
    ),
    two_limb_spec(),
]


@pytest.mark.parametrize("spec", CLOSED_CODES, ids=lambda s: f"{s.alpha}-{s.beta}")
def test_cyclic_closure_fails_without_one_moving_word(spec):
    rows = spec._span_rows
    assert _cyclic_closed(rows, spec.alpha, _row_keys(codeword_matrix(spec), spec.alpha))
    # Row j after the first of its block is the shift of row j - 1.  The spanning
    # combinations are distinct, so without row j the shift of row j - 1 leaves the span.
    sizes = _block_sizes(spec)
    firsts = set((np.cumsum(sizes) - sizes).tolist())
    moved = [j for j in range(len(rows)) if j not in firsts]
    assert moved
    for j in moved:
        word = _row_word(rows[j], spec.alpha)
        assert cyclic_shift(word, 1) != word
        rest = np.delete(rows, j, axis=0)
        keys = _span_keys(rest, spec.alpha)
        assert not _cyclic_closed(rest, spec.alpha, keys)


@pytest.mark.parametrize("spec", [CLOSED_CODES[0], CLOSED_CODES[2]], ids=lambda s: f"{s.alpha}-{s.beta}")
def test_an_odd_z4_entry_in_an_order_two_row_is_an_internal_error(spec):
    # A fresh instance whose first S1 row (or, with none, first S3 row) gets an odd
    # Z4 entry: the cardinality assertion alone does not catch every such row.
    tampered = validate_spec(spec.alpha, spec.beta, spec.b, spec.ell, spec.f, spec.h)
    s1, s2, _ = _block_sizes(spec)
    rows = spec._span_rows.copy()
    rows[0 if s1 else s1 + s2, spec.alpha] |= 1
    vars(tampered)["_span_rows"] = rows
    with pytest.raises(ArithmeticError, match="^internal error: an order-two spanning row has an odd Z4 entry$"):
        tampered._word_keys


def test_row_words_equal_the_validated_words_on_the_family():
    # _row_word skips Codeword's entry checks; on every reduced row the package
    # builds, its word is the one the checking constructor gives.
    family = [s for alpha in range(1, 6) for beta in (1, 3, 5) for s in iter_valid_specs(alpha, beta)]
    assert len(family) == 820
    rng = np.random.default_rng(33)
    for spec in family:
        a = spec.alpha
        rows = np.concatenate([spec._span_rows, _sample_rows(spec, rng, 64)])
        for row in rows.tolist():
            checked = Codeword(tuple(row[:a]), tuple(row[a:]))
            trusted = _row_word(np.array(row, dtype=np.uint8), a)
            assert trusted == checked and hash(trusted) == hash(checked), (spec, row)
            assert repr(trusted) == repr(checked), (spec, row)
        want = [Codeword(tuple(row[:a]), tuple(row[a:])) for row in spec._span_rows.tolist()]
        assert spanning_set(spec) == want, spec


def test_verify_builds_no_checked_codeword(example_spec, monkeypatch):
    calls = []
    real = Codeword.__post_init__

    def counted(self):
        calls.append(None)
        real(self)

    monkeypatch.setattr(Codeword, "__post_init__", counted)
    Codeword((1,), (3,))
    assert len(calls) == 1
    results = analysis.verify_code(example_spec)
    assert all(r.ok for r in results)
    assert len(calls) == 1


def test_unit_shift_columns_are_the_shift_by_one_and_read_only():
    for alpha in range(1, 41):
        for beta in range(1, 41):
            cols = _unit_shift_cols(alpha, beta)
            assert np.array_equal(cols, _shift_cols(alpha, beta, 1)), (alpha, beta)
            assert not cols.flags.writeable
    with pytest.raises(ValueError):
        _unit_shift_cols(3, 3)[0] = 0


def test_index_bits_are_every_index_s_bits_and_read_only():
    for h in range(13):
        bits = _index_bits(h)
        assert np.array_equal(bits, np.arange(1 << h)[:, None] >> np.arange(h) & 1), h
        assert not bits.flags.writeable
    with pytest.raises(ValueError):
        _index_bits(3)[0, 0] = 1


def test_key_layout_lane_mask_is_the_low_bit_of_every_z4_lane():
    # The Z4 lanes fill the row's low 2 * (n - alpha) bits, and their low bits are
    # the even ones: the limbs of ((1 << 2 * (n - alpha)) - 1) // 3.
    for n in range(1, 200):
        for alpha in range(n + 1):
            layout = _key_layout(n, alpha)
            k, word = len(layout.slices), 8 * np.dtype(layout.dtype).itemsize
            value = ((1 << 2 * (n - alpha)) - 1) // 3
            want = [(value >> word * (k - 1 - i)) & ((1 << word) - 1) for i in range(k)]
            assert layout.low.dtype == layout.dtype and layout.low.shape == (k, 1)
            assert layout.low[:, 0].tolist() == want, (n, alpha)
            assert not layout.low.flags.writeable
            # Both bits of every Z4 lane: the limbs of (1 << 2 * (n - alpha)) - 1.
            lanes = (1 << 2 * (n - alpha)) - 1
            want = [(lanes >> word * (k - 1 - i)) & ((1 << word) - 1) for i in range(k)]
            assert layout.lanes.dtype == layout.dtype and layout.lanes[:, 0].tolist() == want, (n, alpha)
            assert not layout.lanes.flags.writeable


def test_two_limb_enumeration_matches_the_multiples_of_its_generator():
    spec = two_limb_spec()
    assert spec.g == z4.hensel_lift(BinPoly.parse("x^2+x+1"), 33)
    # 1 + 2*33 = 67 bits: the top limb holds the Z2 coordinate and Z4 coordinate 0.
    assert _key_layout(34, 1).slices == ((0, 2), (2, 34))
    # b = x^alpha - 1 and ell = 0, so C is the Z4[x]-multiples of (0 | fh + 2f),
    # one for each lambda mod g.
    gen = spec.f * spec.h + 2 * spec.f
    want = set()
    for lam in itertools.product(range(4), repeat=2):
        q = z4.mul_mod(QuatPoly(lam), gen, 33).coeffs
        want.add((0, *q, *[0] * (33 - len(q))))
    mat = codeword_matrix(spec)
    assert len(want) == len(mat) == 16
    assert {tuple(row) for row in mat.tolist()} == want


# -- spanning rows and shifted inner products ---------------------------------


def ref_base_row(p, q, alpha, beta):
    """(p | q) reduced mod x^alpha - 1 and x^beta - 1, one coefficient at a time."""
    row = [0] * (alpha + beta)
    for i, c in enumerate(p.coeffs):
        row[i % alpha] ^= c
    for i, c in enumerate(q.coeffs):
        row[alpha + i % beta] = (row[alpha + i % beta] + c) % 4
    return np.array(row, dtype=np.uint8)


def ref_span_rows(spec):
    """The spanning rows built one np.roll at a time, each from the one before."""
    a, beta = spec.alpha, spec.beta
    counts = (a - spec.b.degree, spec.g.degree, spec.h.degree)
    bases = (
        ref_base_row(spec.b, QuatPoly.zero(), a, beta),
        ref_base_row(spec.ell, spec.f * spec.h + 2 * spec.f, a, beta),
        ref_base_row(spec.ell * spec.g.reduce_mod2(), 2 * spec.f * spec.g, a, beta),
    )
    rows, widths = [], []
    for base, count, width in zip(bases, counts, (1, 2, 1)):
        row = base
        for _ in range(count):
            rows.append(row)
            row = np.concatenate([np.roll(row[:a], 1), np.roll(row[a:], 1)])
            widths.append(width)
    mat = np.array(rows, dtype=np.uint8) if rows else np.zeros((0, a + beta), dtype=np.uint8)
    return mat, tuple(widths)


# (65 | 9) with b = x + 1, ell = 1, f = h = 1: 73 rows of 74 columns, the Z2 block
# rotated up to 63 places.
WIDE_SPEC = validate_spec(65, 9, BinPoly.parse("x+1"), BinPoly.one(), QuatPoly.one(), QuatPoly.one())

# Longer blocks too, where shift counts reach alpha or beta - 1; a Z2 block of 17 or
# more coordinates, whose base rows are ints of three or more bytes; the 33/17 code
# on two key limbs; and WIDE_SPEC.
VALID_SPECS = SMALL_SPECS + [
    spec for ab in ((6, 7), (9, 3), (3, 9), (17, 3)) for spec in iter_valid_specs(*ab)
] + [CLOSED_CODES[2], WIDE_SPEC]


def test_span_rows_match_rolled_rows():
    for spec in VALID_SPECS:
        rows = spec._span_rows
        ref_rows, ref_widths = ref_span_rows(spec)
        assert rows.dtype == ref_rows.dtype and rows.shape == ref_rows.shape, spec
        assert np.array_equal(rows, ref_rows), spec
        # A row's order is four exactly when it has an odd Z4 entry.
        odd = (rows[:, spec.alpha :] & 1).any(axis=1)
        assert tuple((1 + odd).tolist()) == ref_widths, spec


def traced_peak(call):
    """call()'s result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_span_rows_peak_stays_within_twice_their_bytes():
    # The (2047 | 2047) ambient: 4094 rows of 4094 columns, 16 MB of uint8.  The rows
    # are a view of the bytes they are written to, which are the whole peak: no index,
    # no copy and no wider dtype is built.
    spec = validate_spec(2047, 2047, BinPoly.one(), BinPoly.zero(), QuatPoly.one(), QuatPoly.one())
    rows, peak = traced_peak(lambda: spec._span_rows)
    assert rows.shape == (4094, 4094)
    assert peak <= 1.25 * rows.size


def test_contains_peak_stays_within_twice_the_dual_rows_bytes():
    # The trivial (2047 | 2047) code, whose dual is the whole ambient: the pairing of
    # its 4094 dual rows with the word builds no (rows, columns) int64 product.
    xn = BinPoly._wrap(1 << 2047 | 1)
    spec = validate_spec(2047, 2047, xn, BinPoly.zero(), QuatPoly.parse("x^2047+3"), QuatPoly.one())
    word = Codeword((1,) * 2047, (3,) * 2047)
    member, peak = traced_peak(lambda: contains(spec, word))
    assert member is False
    assert peak <= 1.25 * dual_spec(spec)._span_rows.size


def test_code_report_peak_stays_within_40_bytes_per_codeword():
    # The (4 | 7) ambient: 2^18 words of 11 columns, one uint32 key each.  The closure's
    # span is sorted before the words are decoded, and the distance sums uint8 Gray
    # popcounts in uint16, so no decoded matrix sits beside the sort's temporaries and
    # no intp weight array is built.
    spec = validate_spec(4, 7, BinPoly.one(), BinPoly.zero(), QuatPoly.one(), QuatPoly.one())
    report, peak = traced_peak(lambda: code_report(spec))
    assert report.min_distance == 1 and report.is_cyclic_verified
    assert peak <= 40 * 2**18


@st.composite
def long_row_pairs(draw):
    """Two matrices of rows with at least 4000 Z4 columns, each entry 3 but a few,
    so a product summed in int16 (9 per column) would wrap."""
    alpha, beta, count = draw(st.integers(0, 40)), draw(st.integers(4000, 4100)), draw(st.integers(1, 3))
    mats = []
    for _ in range(2):
        mat = np.full((count, alpha + beta), 3, dtype=np.int16)
        mat[:, :alpha] = 1
        cell = st.tuples(st.integers(0, count - 1), st.integers(0, alpha + beta - 1), st.integers(0, 3))
        for r, c, v in draw(st.lists(cell, max_size=8)):
            mat[r, c] = v % 2 if c < alpha else v
        mats.append(mat)
    return alpha, *mats


@settings(deadline=None, max_examples=25)
@given(long_row_pairs())
def test_pairings_of_long_rows_match_inner_product(case):
    alpha, a, b = case
    words_a = [_row_word(row, alpha) for row in a]
    words_b = [_row_word(row, alpha) for row in b]
    want = [inner_product(w1, w2) for w1, w2 in zip(words_a, words_b)]
    assert _pairings(a, b, alpha).tolist() == want
    # One word against every row, as contains pairs the dual's rows with a word.
    assert _pairings(a, b[0], alpha).tolist() == [inner_product(w, words_b[0]) for w in words_a]
    assert _pairings(a, words_b[0].u + words_b[0].uq, alpha).tolist() == [
        inner_product(w, words_b[0]) for w in words_a
    ]


def test_span_rows_are_kept_read_only_on_the_spec_instance():
    text = "alpha=3\nbeta=3\nb=x^3+1\nell=x+1\nf=1\nh=x^2+x+1\n"  # the worked example
    spec, twin = parse_spec_text(text), parse_spec_text(text)
    before = (repr(spec), hash(spec))
    rows = spec._span_rows
    assert spec._span_rows is rows
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 1
    # An equal instance builds its own rows; the cache is not part of ==, hash or repr.
    assert "_span_rows" not in vars(twin)
    assert twin._span_rows is not rows
    assert not np.shares_memory(twin._span_rows, rows)
    assert np.array_equal(twin._span_rows, rows)
    assert spec == twin and (repr(spec), hash(spec)) == before == (repr(twin), hash(twin))
    assert "_span" not in repr(spec)


@st.composite
def word_pairs(draw):
    alpha, beta = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    u = st.lists(st.integers(0, 1), min_size=alpha, max_size=alpha).map(tuple)
    q = st.lists(st.integers(0, 3), min_size=beta, max_size=beta).map(tuple)
    return Codeword(draw(u), draw(q)), Codeword(draw(u), draw(q))


@PROPERTY
@given(word_pairs())
def test_shifted_inner_products_match_shift_loop(pair):
    w1, w2 = pair
    alpha, beta = len(w1.u), len(w1.uq)
    r1, r2 = (np.array(w.u + w.uq, dtype=np.int16) for w in pair)
    got = _shifted_inner_products(r1, r2, alpha)
    want = [inner_product(w1, cyclic_shift(w2, k)) for k in range(math.lcm(alpha, beta))]
    assert got.tolist() == want


@st.composite
def stacked_rows(draw):
    """1 to 8 pairs of reduced word rows of one ambient, alpha, beta <= 12, as two
    (pairs, alpha + beta) uint8 stacks."""
    alpha, beta, count = draw(st.integers(1, 12)), draw(st.integers(1, 12)), draw(st.integers(1, 8))
    row = st.tuples(
        st.lists(st.integers(0, 1), min_size=alpha, max_size=alpha),
        st.lists(st.integers(0, 3), min_size=beta, max_size=beta),
    ).map(lambda blocks: blocks[0] + blocks[1])
    stacks = [draw(st.lists(row, min_size=count, max_size=count)) for _ in range(2)]
    return alpha, *(np.array(rows, dtype=np.uint8) for rows in stacks)


@PROPERTY
@given(stacked_rows())
def test_stacked_shifted_inner_products_match_each_pair(case):
    alpha, r1, r2 = case
    got = _shifted_inner_products(r1, r2, alpha)
    assert got.shape == (len(r1), math.lcm(alpha, r1.shape[1] - alpha))
    for i in range(len(r1)):
        assert got[i].tolist() == _shifted_inner_products(r1[i], r2[i], alpha).tolist()


def test_stacked_shifted_inner_products_at_the_length_cap():
    # One stacked pair at alpha = beta = 4095, against per-block np.correlate of the
    # doubled second row, written here.  The second row is nearly all 1s and 3s, so the
    # Z4 sums run to thousands and a narrow accumulator would show.
    alpha = beta = 4095
    rng = np.random.default_rng(7)
    r1 = np.concatenate([rng.integers(0, 2, alpha), rng.integers(0, 4, beta)]).astype(np.uint8)
    r2 = np.concatenate([np.ones(alpha), np.full(beta, 3)]).astype(np.uint8)
    r2[[5, alpha + 17]] = 0

    def correlate(x, y):
        x, y = x.astype(np.int64), y.astype(np.int64)
        return np.correlate(np.concatenate([y, y]), x, "valid")[: len(x)]

    x = correlate(r1[:alpha], r2[:alpha])
    y = correlate(r1[alpha:], r2[alpha:])
    assert y.max() > 255
    want = (2 * x + y) % 4
    got = _shifted_inner_products(r1[None], r2[None], alpha)
    assert got.shape == (1, 4095)
    assert got[0].tolist() == want.tolist()


@st.composite
def circ_pairs(draw):
    """Two words of one ambient with alpha, beta <= 40, either block possibly empty, and
    each block of each word drawn at random or all zero.  Blocks of 29 or more
    coordinates make 9 * min(len) >= 256 in QuatPoly._mul, its spread path."""
    alpha, beta = draw(st.integers(0, 40)), draw(st.integers(0, 40))

    def block(length, top):
        digits = st.lists(st.integers(0, top), min_size=length, max_size=length)
        return draw(st.just((0,) * length) | digits.map(tuple))

    return tuple(Codeword(block(alpha, 1), block(beta, 3)) for _ in range(2))


@PROPERTY
@example((Codeword((1,) * 31, (1, 2, 3) * 12 + (1,)), Codeword((1, 0) * 15 + (1,), (3,) * 37)))
@example((Codeword((), (2, 1, 3)), Codeword((), (1, 1, 0))))
@example((Codeword((1, 1), ()), Codeword((0, 1), ())))
@example((Codeword((), ()), Codeword((), ())))
@given(circ_pairs())
def test_circ_product_coefficients_are_the_shifted_inner_products(pair):
    w1, w2 = pair
    m = math.lcm(*(k for k in (len(w1.u), len(w1.uq)) if k))
    p = circ_product(w1, w2)
    assert p.degree < m
    coeffs = p.coeffs + (0,) * (m - len(p.coeffs))
    assert [coeffs[m - 1 - i] for i in range(m)] == [inner_product(w1, cyclic_shift(w2, i)) for i in range(m)]


# -- Gray map against a literal table -------------------------------------------

# The reference encoding, written out once here and nowhere in the package.
GRAY_TABLE = {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)}
LEE_WEIGHT = {0: 0, 1: 1, 2: 2, 3: 1}


def ref_gray_row(row, alpha):
    return [*row[:alpha], *(bit for q in row[alpha:] for bit in GRAY_TABLE[q])]


@st.composite
def word_matrices(draw):
    """(matrix, alpha): rows of alpha bits then beta Z4 symbols, either block possibly empty.

    Rows reach 150 bits, so their keys take one to three limbs.  Each
    block is drawn as one integer and read off digit by digit.
    """
    alpha, beta, n_rows = draw(st.integers(0, 70)), draw(st.integers(0, 40)), draw(st.integers(0, 6))
    rows = []
    for _ in range(n_rows):
        u, q = draw(st.integers(0, 2**alpha - 1)), draw(st.integers(0, 4**beta - 1))
        rows.append([u >> i & 1 for i in range(alpha)] + [q >> 2 * i & 3 for i in range(beta)])
    return np.array(rows, dtype=np.int16).reshape(n_rows, alpha + beta), alpha


@PROPERTY
@given(word_matrices())
def test_gray_rows_match_the_symbol_table(case):
    mat, alpha = case
    want = [ref_gray_row(row, alpha) for row in mat.tolist()]
    got = _gray_rows(_row_keys(mat, alpha), alpha, mat.shape[1])
    assert got.shape == (len(mat), alpha + 2 * (mat.shape[1] - alpha))
    assert got.tolist() == want
    for row, image in zip(mat.tolist(), want):
        assert gray_map(Codeword(tuple(row[:alpha]), tuple(row[alpha:]))) == tuple(image)
    lee = [sum(row[:alpha]) + sum(LEE_WEIGHT[q] for q in row[alpha:]) for row in mat.tolist()]
    assert got.sum(axis=1).tolist() == lee
    popcounts = np.bitwise_count(_gray_keys(_row_keys(mat, alpha), alpha, mat.shape[1]))
    assert popcounts.sum(axis=0).tolist() == lee


def test_popcount_gray_weights_match_the_gray_image_on_the_family():
    family = [s for alpha in range(1, 6) for beta in (1, 3, 5) for s in iter_valid_specs(alpha, beta)]
    assert len(family) == 820
    for spec in family:
        mat = codeword_matrix(spec)
        got = np.bitwise_count(_gray_keys(_row_keys(mat, spec.alpha), spec.alpha, mat.shape[1]))
        want = [sum(ref_gray_row(row, spec.alpha)) for row in mat.tolist()]
        assert got.sum(axis=0).tolist() == want, spec
        nonzero = [w for w in want if w]
        assert code_report(spec).min_distance == (min(nonzero) if nonzero else None), spec


def test_min_distance_is_the_least_nonzero_table_weight():
    # The two-limb closed codes, and the trivial code on two limbs, whose keys past
    # the zero word are an empty (2, 0) array.
    trivial = validate_spec(33, 17, gf2.xn1(33), BinPoly.zero(), z4.xn1(17), QuatPoly.one())
    for spec in SMALL_SPECS + CLOSED_CODES[2:] + [trivial]:
        weights = [sum(ref_gray_row(row, spec.alpha)) for row in codeword_matrix(spec).tolist()]
        nonzero = [w for w in weights if w]
        assert code_report(spec).min_distance == (min(nonzero) if nonzero else None), spec
    assert code_report(trivial).min_distance is None


def test_min_distance_refuses_keys_whose_first_word_is_not_zero():
    spec = CLOSED_CODES[0]
    keys = _codeword_keys(spec)
    with pytest.raises(ArithmeticError, match="first codeword key is not the zero word"):
        _min_distance(keys[:, 1:], spec.alpha, spec.alpha + spec.beta)


# -- the CLI's JSON renderer against json.dumps --------------------------------

# Text over every code point but the surrogates, so control characters, non-ASCII
# letters and astral characters all come up; ints well past 2^64 either way.
json_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**90), 2**90) | json_text,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(json_text, inner, max_size=5),
    max_leaves=30,
)


@PROPERTY
@given(json_values)
@example({"": [], "\x00\x1f\u2028é": {}, "k": [[], {}, [2**64, -(2**64) - 1, True, None, "\U0001f600"]]})
def test_json_renderer_matches_json_dumps_with_indent(value):
    assert _json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a": [0.5]}, [{"b": (1,)}], {None: 1}])
def test_json_renderer_refuses_floats_tuples_and_non_str_keys(value):
    with pytest.raises(TypeError):
        _json(value)


# -- the text and lift caches against the uncached code -------------------------

CACHES = (poly._parse_cached, poly._str_cached, z4._lift_cached)
EXPECTED_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "expected"


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def parse_outcome(cls, text):
    """What cls.parse(text) gives: the value with its class and text, or the error."""
    try:
        p = cls.parse(text)
    except Z2Z4Error as e:
        return type(e), str(e)
    return type(p), p, str(p)


def assert_parses_alike_warm_and_cold(text):
    """Each ring's parse of text, and the str of the result, is the same from a
    warm cache as after cache_clear(); returns how many rings accept it."""
    accepted = 0
    for cls in (BinPoly, QuatPoly):
        first = parse_outcome(cls, text)
        warm = parse_outcome(cls, text)
        clear_caches()
        cold = parse_outcome(cls, text)
        assert warm == cold == first, (cls, text)
        accepted += len(cold) == 3
    return accepted


def json_strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, list):
        for v in value:
            yield from json_strings(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from json_strings(v)


def test_every_recorded_text_parses_alike_warm_and_cold():
    # Every string in the benchmark records: the specs' and dual tuples'
    # polynomials, and the verbs, types and check names, which both rings refuse.
    texts = set()
    for path in sorted(EXPECTED_DIR.glob("*.json")):
        texts.update(json_strings(json.loads(path.read_text())))
    accepted = sum(assert_parses_alike_warm_and_cold(text) for text in sorted(texts))
    assert accepted >= 200


@st.composite
def human_texts(draw):
    """Human-form text, mostly valid: signed terms with optional coefficients and
    exponents past DEGREE_CAP now and then, with whitespace around the parts."""
    space = st.sampled_from(("", "", " ", "  ", "\t", "　"))
    terms = []
    for i in range(draw(st.integers(1, 6))):
        sign = draw(st.sampled_from(("+", "-", "−", "") if i else ("", "-")))
        coef = draw(st.sampled_from(("", "", "1", "2", "3", "02", "4")))
        var = draw(st.sampled_from(("", "x", "x^")))
        exp = str(draw(st.integers(0, 80) | st.integers(DEGREE_CAP - 2, DEGREE_CAP + 2))) if var else ""
        terms.append(draw(space) + sign + draw(space) + coef + var + exp + draw(space))
    return "".join(terms)


list_texts = st.lists(
    st.tuples(st.sampled_from(("", " ", "\t")), st.integers(0, 4)), min_size=1, max_size=40
).map(lambda entries: ",".join(f"{pad}{v}{pad}" for pad, v in entries))


@PROPERTY
@given(human_texts() | list_texts | poly_text)
def test_drawn_text_parses_alike_warm_and_cold(text):
    assert_parses_alike_warm_and_cold(text)


def test_one_text_keeps_each_ring_apart():
    clear_caches()
    for order in ((BinPoly, QuatPoly), (QuatPoly, BinPoly)):
        for cls in order:
            p = cls.parse("-x+1")
            assert type(p) is cls
            assert str(p) == {BinPoly: "x+1", QuatPoly: "3x+1"}[cls]
    # The same stored int renders per ring: 0x0101 is x^8+1 over Z2 and x+1 over Z4.
    assert str(BinPoly._wrap(0x0101)) == "x^8+1"
    assert str(QuatPoly._wrap(0x0101)) == "x+1"


@pytest.mark.parametrize("cls, text, error, message", [
    (BinPoly, "x^", ParseError, "^expected an exponent at position 2$"),
    (QuatPoly, "x^", ParseError, "^expected an exponent at position 2$"),
    (BinPoly, "2x", ParseError, "^coefficient 2 is out of range for Z2$"),
    (QuatPoly, f"x^{DEGREE_CAP + 1}", TooLarge, f"^exponent {DEGREE_CAP + 1} is above the degree cap"),
])
def test_a_refused_text_raises_alike_on_every_call(cls, text, error, message):
    clear_caches()
    for _ in range(2):
        with pytest.raises(error, match=message):
            cls.parse(text)
    assert poly._parse_cached.cache_info().currsize == 0


def test_text_past_the_parse_cache_limit_parses_as_short_text():
    limit = poly._PARSE_CACHE_CHARS
    for cls in (BinPoly, QuatPoly):
        for short in ("x^3+1", "1,0,1", "-x+1", "x^2 + x + 1", "x^4096"):
            clear_caches()
            want = parse_outcome(cls, short)
            # Exactly at the limit the text is kept; one character past it, not.
            assert parse_outcome(cls, short.ljust(limit)) == want
            assert poly._parse_cached.cache_info().currsize == 2
            for padded in (short.ljust(limit + 1), short.rjust(limit + 1), short + " " * 1000):
                assert parse_outcome(cls, padded) == want
            assert poly._parse_cached.cache_info().currsize == 2


def test_polynomials_past_the_str_cache_limit_render_as_short_ones():
    bits = poly._STR_CACHE_BITS
    wide = [
        BinPoly.x(bits - 1) + BinPoly.one(),
        BinPoly.x(bits) + BinPoly.x(),
        QuatPoly.x(bits // 8 - 1, 3) + QuatPoly.x(0, 2),
        QuatPoly.x(bits // 8, 2) + QuatPoly.x(1, 3),
        QuatPoly.x(DEGREE_CAP, 3),
    ]
    clear_caches()
    for p in wide:
        before = poly._str_cached.cache_info().currsize
        want = (ref_str if type(p) is BinPoly else ref4_str)(p.coeffs)
        assert str(p) == str(p) == want
        assert repr(p) == f"{type(p).__name__}('{want}')"
        kept = p._rep.bit_length() <= bits
        assert poly._str_cached.cache_info().currsize == before + kept
        assert type(p).parse(want) == p


def test_cached_hensel_lift_matches_graeffe_reference_on_every_divisor():
    # Every binary divisor of x^n - 1 for odd n <= 63, each lifted twice: once
    # into the cache and once out of it.  (x + 1)^2 and zero divide no x^n - 1
    # for odd n, and are refused on both calls.
    non_divisors = (BinPoly.parse("x^2+1"), BinPoly.zero())
    for n in range(1, 64, 2):
        for d in gf2.divisors_xn1(n):
            want = ref_graeffe_lift(d.coeffs)
            for _ in range(2):
                lift = z4.hensel_lift(d, n)
                assert type(lift) is QuatPoly and lift.coeffs == want, (n, str(d))
        for d in non_divisors:
            for _ in range(2):
                with pytest.raises(NotADivisor, match=f"^\\({re.escape(str(d))}\\) does not divide x\\^{n}-1 over Z2$"):
                    z4.hensel_lift(d, n)


def traced_growth(call):
    """The bytes tracemalloc sees still held after call() returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def fill_parse_cache():
    # Texts of the most characters kept, each two bytes wide (U+3000 is
    # whitespace), each a QuatPoly of degree near DEGREE_CAP.
    for i in range(poly._TEXT_CACHE_SIZE):
        QuatPoly.parse(f"3x^{DEGREE_CAP - i}".ljust(poly._PARSE_CACHE_CHARS, "　"))


def fill_str_cache():
    # BinPolys of the most bits kept, nearly all of them set: the longest texts.
    for i in range(poly._TEXT_CACHE_SIZE):
        str(BinPoly._wrap((1 << poly._STR_CACHE_BITS) - 1 - 2 * i))


def fill_lift_cache():
    # x^beta + 1 and (x^beta + 1) / (x + 1) at the largest odd betas: keys and
    # lifts of degree up to 4095.
    for beta in range(DEGREE_CAP - 1, DEGREE_CAP - 1 - z4._LIFT_CACHE_SIZE, -2):
        z4.hensel_lift(gf2.xn1(beta), beta)
        z4.hensel_lift(BinPoly._wrap((1 << beta) - 1), beta)


def test_caches_filled_with_their_largest_entries_stay_within_the_stated_bytes():
    # The bounds poly's docstring states; the three come to under 4 MB.
    bounds = ((poly._parse_cached, fill_parse_cache, 1.35e6),
              (poly._str_cached, fill_str_cache, 0.95e6),
              (z4._lift_cached, fill_lift_cache, 1.5e6))
    assert sum(bound for _, _, bound in bounds) < 4e6
    try:
        for cache, fill, bound in bounds:
            clear_caches()
            grown = traced_growth(fill)
            info = cache.cache_info()
            assert info.currsize == info.maxsize, cache
            assert grown < bound, (cache, grown)
    finally:
        clear_caches()


def test_text_past_the_parse_cache_limit_is_not_kept():
    # Accepted text has no length limit; a 1 MB text parsed 50 times leaves
    # nothing behind.
    text = "x^3+1" + " " * 2**20
    want = QuatPoly.parse("x^3+1")
    clear_caches()

    def parse_50():
        for _ in range(50):
            assert QuatPoly.parse(text) == want

    assert abs(traced_growth(parse_50)) < 2**20
    assert poly._parse_cached.cache_info().currsize == 0


def test_an_instance_the_caches_share_cannot_be_changed():
    # parse, str and hensel_lift hand one instance to every caller, so a
    # second __init__ call, or setting the stored int, must change nothing.
    shared = (BinPoly.parse("x+1"), QuatPoly.parse("x+3"), z4.hensel_lift(BinPoly.parse("x+1"), 3))
    for p in shared:
        p.__init__([1, 0, 1])
        with pytest.raises(AttributeError, match="is immutable$"):
            p._rep = 5
    assert [str(p) for p in shared] == ["x+1", "x+3", "x+3"]
    assert BinPoly.parse("x+1") == BinPoly((1, 1)) and QuatPoly.parse("x+3") == QuatPoly((3, 1))
