"""Property tests: the text front end (polynomials, spec text, CLI flags),
the bit-packed BinPoly arithmetic against a schoolbook Z2 reference, the
packed-key canonical sort against numpy's row sort, the gathered
spanning rows and correlated shift products against their loop forms,
and the Gray image against a literal per-symbol table."""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from z2z4cyclic import (
    BinPoly,
    Codeword,
    NotInvertible,
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
)
from z2z4cyclic import gf2poly as gf2
from z2z4cyclic import z4poly as z4
from z2z4cyclic.analysis import _shifted_inner_products
from z2z4cyclic.cli import main
from z2z4cyclic.code import _deg, _gray_rows, _pair_row, _row_keys, _span_rows, _unique_rows
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
@given(bits, bits, st.integers(0, 3))
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
def test_unique_rows_matches_numpy_row_sort(ambient, gray, distinct, n_rows, density, seed):
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
    ref = np.unique(rows, axis=0)
    idx = _unique_rows(rows, alpha)
    assert len(idx) == len(ref)
    assert np.array_equal(rows[idx], ref)


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
    return mat, widths


# Longer blocks too, where shift counts reach alpha or beta - 1.
VALID_SPECS = SMALL_SPECS + [
    spec for ab in ((6, 7), (9, 3), (3, 9)) for spec in iter_valid_specs(*ab)
]


@PROPERTY
@given(st.sampled_from(VALID_SPECS))
def test_span_rows_match_rolled_rows(spec):
    rows, widths = _span_rows(spec)
    ref_rows, ref_widths = ref_span_rows(spec)
    assert rows.dtype == ref_rows.dtype and rows.shape == ref_rows.shape
    assert np.array_equal(rows, ref_rows)
    assert widths == ref_widths


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
    """(matrix, alpha): rows of alpha bits then beta Z4 symbols, either block possibly empty."""
    alpha, beta, n_rows = draw(st.integers(0, 8)), draw(st.integers(0, 8)), draw(st.integers(0, 6))
    rows = [
        draw(st.lists(st.integers(0, 1), min_size=alpha, max_size=alpha))
        + draw(st.lists(st.integers(0, 3), min_size=beta, max_size=beta))
        for _ in range(n_rows)
    ]
    return np.array(rows, dtype=np.int16).reshape(n_rows, alpha + beta), alpha


@PROPERTY
@given(word_matrices())
def test_gray_rows_match_the_symbol_table(case):
    mat, alpha = case
    want = [ref_gray_row(row, alpha) for row in mat.tolist()]
    got = _gray_rows(mat, alpha)
    assert got.shape == (len(mat), alpha + 2 * (mat.shape[1] - alpha))
    assert got.tolist() == want
    for row, image in zip(mat.tolist(), want):
        assert gray_map(Codeword(tuple(row[:alpha]), tuple(row[alpha:]))) == tuple(image)
    lee = [sum(row[:alpha]) + sum(LEE_WEIGHT[q] for q in row[alpha:]) for row in mat.tolist()]
    assert got.sum(axis=1).tolist() == lee


def test_min_distance_is_the_least_nonzero_table_weight():
    for spec in SMALL_SPECS:
        weights = [sum(ref_gray_row(row, spec.alpha)) for row in codeword_matrix(spec).tolist()]
        nonzero = [w for w in weights if w]
        assert code_report(spec).min_distance == (min(nonzero) if nonzero else None), spec
