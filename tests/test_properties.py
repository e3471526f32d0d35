"""Property tests: the text front end (polynomials, spec text, CLI flags),
the bit-packed BinPoly arithmetic against a schoolbook Z2 reference, the
packed-key canonical sort and the block projection counts against numpy's
row sort, the key kernels (the lane-wise Z4 add, the decode, enumeration on
two limbs) against their int16 and polynomial forms, the span of shifted
rows and cyclic closure against a set of shifted Codewords, the gathered
spanning rows and correlated shift products against their loop forms, and
the Gray map on keys, its decoded image and its popcount weights against a
literal per-symbol table."""

import contextlib
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from z2z4cyclic import (
    BinPoly,
    Codeword,
    NotInvertible,
    NotMonic,
    QuatPoly,
    Z2Z4Error,
    code_report,
    codeword_matrix,
    cyclic_shift,
    format_spec_text,
    gray_map,
    inner_product,
    iter_valid_specs,
    parse_spec_text,
    spec_fields,
    spec_from_fields,
    validate_spec,
)
from z2z4cyclic import gf2poly as gf2
from z2z4cyclic import z4poly as z4
from z2z4cyclic.analysis import _cyclic_closed, _shifted_inner_products
from z2z4cyclic.cli import main
from z2z4cyclic.code import (
    _DECODE_CELLS,
    _block_sizes,
    _decode_keys,
    _deg,
    _gray_keys,
    _gray_rows,
    _key_add,
    _key_layout,
    _pair_row,
    _projection_sizes,
    _reduce_blocks,
    _row_keys,
    _row_word,
    _shift_cols,
    _sort_keys,
    _span_keys,
)
from z2z4cyclic.poly import NEG_INF

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


@PROPERTY
@given(quats)
def test_make_monic_scales_by_the_leading_coefficient(a):
    p, ta = QuatPoly(a), ref_trim(a)
    if not ta or ta[-1] == 2:
        with pytest.raises(NotMonic):
            z4.make_monic(p)
        return
    assert z4.make_monic(p).coeffs == ref_trim(ta[-1] * v % 4 for v in ta)


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
    assert np.array_equal(_key_add(ka, kb, _key_layout(alpha + beta, alpha).low), want)
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
    assert got.dtype == np.int16 and got.shape == rows.shape
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
    keys = _span_keys(rows, widths, alpha)
    assert np.array_equal(keys, canonical_keys(words, alpha))
    shifted = _span_keys(rows[:, _shift_cols(alpha, beta, 1)], widths, alpha)
    assert np.array_equal(shifted, canonical_keys({cyclic_shift(w, 1) for w in words}, alpha))
    assert _cyclic_closed(rows, widths, alpha, keys) == shift_closed(words)


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
    rows, widths = spec._span_rows, spec._span_widths
    assert _cyclic_closed(rows, widths, spec.alpha, _row_keys(codeword_matrix(spec), spec.alpha))
    # Row j after the first of its block is the shift of row j - 1.  The spanning
    # combinations are distinct, so without row j the shift of row j - 1 leaves the span.
    sizes = _block_sizes(spec)
    firsts = set((np.cumsum(sizes) - sizes).tolist())
    moved = [j for j in range(len(rows)) if j not in firsts]
    assert moved
    for j in moved:
        word = _row_word(rows[j], spec.alpha)
        assert cyclic_shift(word, 1) != word
        rest, rest_widths = np.delete(rows, j, axis=0), np.delete(widths, j)
        keys = _span_keys(rest, rest_widths, spec.alpha)
        assert not _cyclic_closed(rest, rest_widths, spec.alpha, keys)


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


def ref_span_rows(spec):
    """The spanning rows built one np.roll at a time, each from the one before."""
    a, beta = spec.alpha, spec.beta
    counts = (a - _deg(spec.b), _deg(spec.g), _deg(spec.h))
    bases = (
        _pair_row(spec.b, QuatPoly.zero(), a, beta),
        _pair_row(spec.ell, spec.f * spec.h + 2 * spec.f, a, beta),
        _pair_row(spec.ell * spec.g.reduce_mod2(), 2 * spec.f * spec.g, a, beta),
    )
    rows, widths = [], []
    for base, count, width in zip(bases, counts, (1, 2, 1)):
        row = base
        for _ in range(count):
            rows.append(row)
            row = np.concatenate([np.roll(row[:a], 1), np.roll(row[a:], 1)])
            widths.append(width)
    mat = np.array(rows, dtype=np.int16) if rows else np.zeros((0, a + beta), dtype=np.int16)
    return mat, tuple(widths)


# Longer blocks too, where shift counts reach alpha or beta - 1.
VALID_SPECS = SMALL_SPECS + [
    spec for ab in ((6, 7), (9, 3), (3, 9)) for spec in iter_valid_specs(*ab)
]


@PROPERTY
@given(st.sampled_from(VALID_SPECS))
def test_span_rows_match_rolled_rows(spec):
    rows = spec._span_rows
    ref_rows, ref_widths = ref_span_rows(spec)
    assert rows.dtype == ref_rows.dtype and rows.shape == ref_rows.shape
    assert np.array_equal(rows, ref_rows)
    assert tuple(spec._span_widths.tolist()) == ref_widths


def test_span_rows_are_kept_read_only_on_the_spec_instance():
    text = "alpha=3\nbeta=3\nb=x^3+1\nell=x+1\nf=1\nh=x^2+x+1\n"  # the worked example
    spec, twin = parse_spec_text(text), parse_spec_text(text)
    before = (repr(spec), hash(spec))
    rows = spec._span_rows
    assert spec._span_rows is rows
    assert not rows.flags.writeable and not spec._span_widths.flags.writeable
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
    for spec in SMALL_SPECS:
        weights = [sum(ref_gray_row(row, spec.alpha)) for row in codeword_matrix(spec).tolist()]
        nonzero = [w for w in weights if w]
        assert code_report(spec).min_distance == (min(nonzero) if nonzero else None), spec
