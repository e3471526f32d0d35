"""Additive cyclic codes on the mixed ambient Z2^alpha x Z4^beta.

A code is generated by a tuple (b, ell, f, h): b and ell binary, f and h
quaternary, with f*h*g = x^beta - 1 over Z4, b a divisor of x^alpha - 1,
deg(ell) < deg(b) unless ell = 0, and b dividing ell*(x^beta-1)/f mod 2.
The code is the module generated by (b | 0) and (ell | f*h + 2f) under
the mixing action lambda * (p | q) = (lambda*p mod 2 | lambda*q), with
everything reduced mod x^alpha - 1 and x^beta - 1.

Vectors and polynomials correspond by (u_0, ..., u_{n-1}) <->
sum u_i x^i.  Each word fact has one implementation here: _shift_cols, a
column gather on int16 rows, is the one simultaneous block shift, and packed
keys are never shifted (cyclic_shift is the same shift on one Codeword,
for the public API); shifting both blocks is multiplication by x, so the
shift of a span is the span of the shifted rows.  _block_sizes gives the
spanning block sizes |S1|, |S2|, |S3| = (alpha - deg b, deg g, deg h)
that the spanning rows and their coefficient widths (the spec's cached
properties _span_rows and _span_widths), cardinality(spec) (the one size
formula) and code_type read; _base_pairs gives the base pairs (b | 0),
(ell | fh + 2f), (ell*g | 2fg) that the spanning rows, subcode_order_two
and project_xy read; and _gray_keys is the Gray map, on packed keys: a
Gray-coded key is the key of the word's Gray image in the all-binary
layout, so _gray_rows decodes it and its popcount is the word's Gray
weight; _pairings, the pairing 2<u, u'> + <q, q'> mod 4 on int rows, is
behind dual.contains and verify's orthogonality check.  The spanning
rows are the shifts of the base rows, taken by one _shift_cols gather,
and are cached read-only in the spec's __dict__, outside the dataclass
fields, so ==, hash and repr never see them and equal instances share
nothing.  _span_keys enumerates the span of any rows by doubling on
packed keys: each row's multiples are added to all the keys built so
far, an order-two row by one XOR and an S2 row lane-wise (_key_add), and
the keys are sorted once.  The span of the spanning rows is enumerated
once per spec and cached read-only beside the spanning rows (_word_keys);
_codeword_keys checks the cap and returns it, and codeword_matrix decodes
it, column-major, into the int16 matrix.  So a spec keeps 4 bytes per
codeword when its rows fit 32 bits, and 8 bytes per limb above that.
Membership is decided in the dual module, from the dual's spanning rows,
without enumerating the code.
Inside the package a codeword set is its sorted distinct packed keys;
the public form is their decode, an int16 matrix of unique rows (binary
block first) in lexicographic row order, which keeps brute-force
comparisons exact.  _sort_keys is the one np.unique here, and it leaves
its argument as it was; only _span_keys presorts its own one-limb keys,
in place.  Each row is written MSB-first with 1 bit per Z2 coordinate
(or Gray bit) and 2 bits per Z4 coordinate, so packed-key order equals
lexicographic row order.  The limb word follows the row's bit count: a
row of alpha + 2*beta <= 32 bits is one uint32; a wider row takes
ceil((alpha + 2*beta) / 64) uint64 limbs, most significant limb first,
compared limb by limb.  A Gray image has the same bit count as its word,
so its key takes the same word.  Where each column sits in the limbs
depends only on the column count and alpha; _key_layout works it out
once per shape.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import gf2poly as gf2
from . import z4poly as z4
from .errors import AmbientMismatch, InvalidParameter, InvalidSpec, ParseError, TooLarge
from .gf2poly import BinPoly
from .poly import DEGREE_CAP
from .z4poly import QuatPoly

ENUM_CAP = 2**22


@dataclass(frozen=True)
class Codeword:
    """One ambient vector: binary block u, quaternary block uq."""

    u: tuple[int, ...]
    uq: tuple[int, ...]

    def __post_init__(self):
        if any(v not in (0, 1) for v in self.u):
            raise InvalidParameter("binary block entries must be 0 or 1")
        if any(v not in (0, 1, 2, 3) for v in self.uq):
            raise InvalidParameter("quaternary block entries must be in 0..3")


def parse_codeword(text: str) -> Codeword:
    """Parse "u0 u1 ... | q0 q1 ..."."""
    if "|" not in text:
        raise ParseError("codeword text needs a '|' between the binary and quaternary blocks")
    left, _, right = text.partition("|")
    try:
        u = tuple(int(t) for t in left.split())
        uq = tuple(int(t) for t in right.split())
    except ValueError as e:
        raise ParseError(f"codeword entries must be integers: {e}") from None
    try:
        return Codeword(u, uq)
    except InvalidParameter as e:
        raise ParseError(str(e)) from None


def _format_blocks(u, uq) -> str:
    return " ".join(map(str, u)) + " | " + " ".join(map(str, uq))


def format_codeword(w: Codeword) -> str:
    return _format_blocks(w.u, w.uq)


def _format_rows(words: np.ndarray, alpha: int) -> list[str]:
    """format_codeword of each row of a reduced word matrix, with no Codeword built."""
    return [_format_blocks(row[:alpha], row[alpha:]) for row in words.tolist()]


def cyclic_shift(w: Codeword, i: int) -> Codeword:
    """Simultaneous i-step cyclic shift of both blocks: new[j] = old[j + i]."""
    a, b = len(w.u), len(w.uq)
    return Codeword(
        tuple(w.u[(j + i) % a] for j in range(a)),
        tuple(w.uq[(j + i) % b] for j in range(b)),
    )


def star(lam: QuatPoly, p: BinPoly, q: QuatPoly, alpha: int, beta: int) -> tuple[BinPoly, QuatPoly]:
    """Mixing action of lambda on the pair (p | q)."""
    xpart = (lam.reduce_mod2() * p).fold(alpha)
    ypart = z4.mul_mod(lam, q, beta)
    return xpart, ypart


# -- generator tuples ----------------------------------------------------


@dataclass(frozen=True)
class CyclicCodeSpec:
    """Canonical generator tuple; g = (x^beta - 1)/(f*h) is derived."""

    alpha: int
    beta: int
    b: BinPoly
    ell: BinPoly
    f: QuatPoly
    h: QuatPoly
    g: QuatPoly = field(init=False)

    def __post_init__(self):
        for name in ("alpha", "beta"):
            n = getattr(self, name)
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise InvalidSpec(f"{name} must be a positive integer")
            if n > DEGREE_CAP:
                raise TooLarge(f"{name} = {n} is above the length cap of {DEGREE_CAP}")
        if self.beta % 2 == 0:
            raise InvalidSpec("beta must be odd")
        if not isinstance(self.b, BinPoly) or not isinstance(self.ell, BinPoly):
            raise InvalidSpec("b and ell must be binary polynomials")
        if not isinstance(self.f, QuatPoly) or not isinstance(self.h, QuatPoly):
            raise InvalidSpec("f and h must be quaternary polynomials")
        if self.b.is_zero:
            raise InvalidSpec("b must be nonzero")
        if gf2.xn1(self.alpha) % self.b:
            raise InvalidSpec(f"b = {self.b} does not divide x^{self.alpha}-1 over Z2")
        if not self.f.is_monic:
            raise InvalidSpec("f must be monic")
        if not self.h.is_monic:
            raise InvalidSpec("h must be monic")
        g, rem = divmod(z4.xn1(self.beta), self.f * self.h)
        if rem:
            raise InvalidSpec(f"f*h = {self.f * self.h} does not divide x^{self.beta}-1 over Z4")
        if not self.ell.is_zero and self.ell.degree >= self.b.degree:
            raise InvalidSpec(f"deg(ell) = {self.ell.degree} must be smaller than deg(b) = {self.b.degree}")
        g2, h2 = g.reduce_mod2(), self.h.reduce_mod2()
        ghl = g2 * h2 * self.ell
        if ghl % self.b:
            raise InvalidSpec(f"b = {self.b} does not divide ell*(x^{self.beta}-1)/f mod 2 = {ghl}")
        # Consequences of the defining conditions; failure here means a bug above.
        if (g2 * h2 * gf2.gcd(self.b, self.ell)) % self.b:
            raise ArithmeticError("internal error: b does not divide (x^beta-1)/f * gcd(b, ell) mod 2")
        if (h2 * gf2.gcd(self.b, self.ell * g2)) % self.b:
            raise ArithmeticError("internal error: b does not divide h * gcd(b, ell*g) mod 2")
        object.__setattr__(self, "g", g)

    @functools.cached_property
    def _span_rows(self) -> np.ndarray:
        """Spanning rows S1|S2|S3, read-only: row i of each block is its base row
        shifted i steps in both blocks, all taken by one gather of the shifts by -i."""
        a, beta = self.alpha, self.beta
        counts = _block_sizes(self)
        bases = np.stack([_pair_row(p, q, a, beta) for p, q in _base_pairs(self)])
        which = np.repeat(np.arange(3), counts)
        back = (np.cumsum(counts) - counts)[which] - np.arange(len(which))
        rows = bases[which[:, None], _shift_cols(a, beta, back[:, None])]
        rows.flags.writeable = False
        return rows

    @functools.cached_property
    def _span_widths(self) -> np.ndarray:
        """Each spanning row's coefficient width in bits, read-only: 1 for S1 and S3, 2 for S2."""
        widths = np.repeat((1, 2, 1), _block_sizes(self))
        widths.flags.writeable = False
        return widths

    @functools.cached_property
    def _word_keys(self) -> np.ndarray:
        """All codewords as sorted distinct packed keys, shape (k, |C|), read-only: the
        span of the spanning rows, with coefficients over Z2 for S1 and S3 rows and
        over Z4 for S2 rows.  The key count is asserted against the cardinality
        formula rather than assumed.  Read it through _codeword_keys, which checks
        the cap first."""
        total = cardinality(self)
        keys = _span_keys(self._span_rows, self._span_widths, self.alpha)
        if keys.shape[1] != total:
            raise ArithmeticError(
                f"internal error: enumeration found {keys.shape[1]} codewords, formula says {total}"
            )
        keys.flags.writeable = False
        return keys


def validate_spec(alpha: int, beta: int, b: BinPoly, ell: BinPoly, f: QuatPoly, h: QuatPoly) -> CyclicCodeSpec:
    """Check every defining condition and return the spec with g attached."""
    return CyclicCodeSpec(alpha, beta, b, ell, f, h)


SPEC_KEYS = ("alpha", "beta", "b", "ell", "f", "h")


def spec_from_fields(fields) -> CyclicCodeSpec:
    """Parse and validate the six text fields of a spec, given as a mapping.

    alpha and beta are each an int (not a bool) or its text; a float, a
    bool, None or any other type is refused rather than truncated.  The
    polynomials are text in either form BinPoly.parse / QuatPoly.parse
    accept.  This is the one decoder behind spec files, the CLI's inline
    flags and Command dicts.
    """
    missing = [k for k in SPEC_KEYS if k not in fields]
    if missing:
        raise ParseError(f"missing keys: {', '.join(missing)}")
    lengths = [fields["alpha"], fields["beta"]]
    if any(isinstance(v, bool) or not isinstance(v, (int, str)) for v in lengths):
        raise ParseError("alpha and beta must be integers")
    try:
        alpha, beta = map(int, lengths)
    except ValueError:
        raise ParseError("alpha and beta must be integers") from None
    return validate_spec(
        alpha,
        beta,
        BinPoly.parse(fields["b"]),
        BinPoly.parse(fields["ell"]),
        QuatPoly.parse(fields["f"]),
        QuatPoly.parse(fields["h"]),
    )


def spec_fields(spec: CyclicCodeSpec) -> dict:
    """The six fields in SPEC_KEYS order: alpha and beta as ints, polynomials as text."""
    text = {k: str(getattr(spec, k)) for k in SPEC_KEYS}
    return {**text, "alpha": spec.alpha, "beta": spec.beta}


def parse_spec_text(text: str) -> CyclicCodeSpec:
    """Parse the line-oriented key=value spec format (all six keys required)."""
    seen: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SPEC_KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = value
    return spec_from_fields(seen)


def format_spec_text(spec: CyclicCodeSpec) -> str:
    return "".join(f"{k}={v}\n" for k, v in spec_fields(spec).items())


# -- type parameters -----------------------------------------------------


@dataclass(frozen=True)
class CodeType:
    """Group type (alpha, beta; gamma, delta; kappa) with the finer split."""

    alpha: int
    beta: int
    gamma: int
    delta: int
    kappa: int
    kappa1: int
    kappa2: int
    delta1: int
    delta2: int

    def __post_init__(self):
        ok = (
            self.kappa == self.kappa1 + self.kappa2
            and self.delta == self.delta1 + self.delta2
            and 0 <= self.kappa <= self.alpha
            and 0 <= self.delta <= self.beta
            and 0 <= self.gamma <= self.alpha + self.beta
            and min(self.kappa1, self.kappa2, self.delta1, self.delta2) >= 0
        )
        if not ok:
            raise InvalidParameter(f"inconsistent type parameters: {self}")

    def __str__(self) -> str:
        return f"({self.alpha},{self.beta};{self.gamma},{self.delta};{self.kappa})"

    @property
    def is_separable(self) -> bool:
        """Whether the code splits as C_X x C_Y, read off as kappa2 = delta1 = 0."""
        return self.kappa2 == 0 and self.delta1 == 0


def _deg(p) -> int:
    d = p.degree
    if d < 0:
        raise InvalidParameter("degree of the zero polynomial consumed in a formula")
    return d


def _block_sizes(spec: CyclicCodeSpec) -> tuple[int, int, int]:
    """|S1|, |S2|, |S3|: how many shifts of each base row span the code."""
    return spec.alpha - _deg(spec.b), _deg(spec.g), _deg(spec.h)


def _base_pairs(spec: CyclicCodeSpec) -> tuple[tuple[BinPoly, QuatPoly], ...]:
    """(b | 0), (ell | fh + 2f), (ell*g | 2fg), unreduced: S1, S2, S3 are their shifts."""
    return (
        (spec.b, QuatPoly.zero()),
        (spec.ell, spec.f * spec.h + 2 * spec.f),
        (spec.ell * spec.g.reduce_mod2(), 2 * spec.f * spec.g),
    )


def code_type(spec: CyclicCodeSpec) -> CodeType:
    """Type parameters from the block sizes and two gcd degrees (gcd(b, 0) = b by convention)."""
    s1, s2, s3 = _block_sizes(spec)
    d_gcd_l = _deg(gf2.gcd(spec.b, spec.ell))
    d_gcd_lg = _deg(gf2.gcd(spec.b, spec.ell * spec.g.reduce_mod2()))
    kappa = spec.alpha - d_gcd_lg
    delta1 = d_gcd_lg - d_gcd_l
    return CodeType(
        alpha=spec.alpha,
        beta=spec.beta,
        gamma=s1 + s3,
        delta=s2,
        kappa=kappa,
        kappa1=s1,
        kappa2=kappa - s1,
        delta1=delta1,
        delta2=s2 - delta1,
    )


def cardinality(spec: CyclicCodeSpec) -> int:
    """|C| = 2^|S1| * 4^|S2| * 2^|S3|: each S2 row has order four, the others order two."""
    s1, s2, s3 = _block_sizes(spec)
    return 2 ** (s1 + s3) * 4**s2


# -- spanning sets and enumeration ---------------------------------------


def _poly_vec(p, n: int) -> np.ndarray:
    coeffs = p.fold(n).coeffs
    out = np.zeros(n, dtype=np.int16)
    out[: len(coeffs)] = coeffs
    return out


def _pair_row(p: BinPoly, q: QuatPoly, alpha: int, beta: int) -> np.ndarray:
    return np.concatenate([_poly_vec(p, alpha), _poly_vec(q, beta)])


def _shift_cols(alpha: int, beta: int, k) -> np.ndarray:
    """Columns of the simultaneous shift by k: j reads (j + k) mod alpha in X, alpha +
    (j + k) mod beta in Y.  A column of shifts gives one row of columns per shift."""
    return np.concatenate(
        [(np.arange(alpha) + k) % alpha, alpha + (np.arange(beta) + k) % beta], axis=-1
    )


def spanning_set(spec: CyclicCodeSpec) -> list[Codeword]:
    """Shifted generators whose Z4-combinations cover the code exactly once."""
    return [_row_word(row, spec.alpha) for row in spec._span_rows]


def _row_word(row: np.ndarray, alpha: int) -> Codeword:
    values = row.tolist()
    return Codeword(tuple(values[:alpha]), tuple(values[alpha:]))


def _reduce_blocks(words: np.ndarray, alpha: int) -> np.ndarray:
    # Two's-complement & is exact mod 2 and mod 4, wrapped int16 values too.
    words[:, :alpha] &= 1
    words[:, alpha:] &= 3
    return words


class _KeyLayout(NamedTuple):
    """Where _row_keys puts each column of a matrix, for one (column count, alpha)."""

    # The limb word: uint32 when the row's bits fit 32, else uint64.
    dtype: type
    # Per key limb, most significant first: its contiguous column range.
    slices: tuple[tuple[int, int], ...]
    # Per column: 1 << (its lowest bit's position in its limb).
    weights: np.ndarray
    # Shape (limbs, 1): each limb's mask of the low bits of its Z4 lanes.
    low: np.ndarray
    # Shape (columns, 1): each column's shift and mask (1 or 3) in its limb, so its
    # entry is (limb >> shift) & mask.
    shifts: np.ndarray
    masks: np.ndarray


@functools.lru_cache(maxsize=64)
def _key_layout(n: int, alpha: int) -> _KeyLayout:
    widths = np.where(np.arange(n) < alpha, 1, 2)
    bits = int(widths.sum())
    dtype = np.uint32 if bits <= 32 else np.uint64
    word = 8 * np.dtype(dtype).itemsize
    k = max(1, -(-bits // word))
    lsb = np.cumsum(widths[::-1])[::-1] - widths
    limb = k - 1 - lsb // word
    shift = lsb % word
    slices = []
    for i in range(k):
        cols = np.flatnonzero(limb == i)
        slices.append((int(cols[0]), int(cols[-1]) + 1) if len(cols) else (0, 0))
    # The Z4 lanes fill the low y_bits bits; their low bits are the even ones.
    y_bits = 2 * (n - alpha)
    low = _int_limbs(((1 << y_bits) - 1) // 3, k, dtype)
    shifts = shift.astype(dtype)[:, None]
    masks = ((1 << widths) - 1).astype(dtype)[:, None]
    weights = dtype(1) << shifts[:, 0]
    for a in (shifts, masks, weights):
        a.flags.writeable = False
    return _KeyLayout(dtype, tuple(slices), weights, low, shifts, masks)


def _int_limbs(value: int, k: int, dtype: type) -> np.ndarray:
    """A nonnegative int below 2^(word * k) as a read-only (k, 1) column of limbs of
    the unsigned word dtype, most significant first."""
    word = 8 * np.dtype(dtype).itemsize
    mask = (1 << word) - 1
    out = np.array([[(value >> word * (k - 1 - i)) & mask] for i in range(k)], dtype=dtype)
    out.flags.writeable = False
    return out


def _row_keys(words: np.ndarray, alpha: int) -> np.ndarray:
    """Each row packed MSB-first into limbs: shape (k, rows), limb 0 most significant.

    Columns before alpha take 1 bit and the rest 2 bits, so entries must
    already be reduced into 0..1 and 0..3.  A row of at most 32 bits is one
    uint32; a wider one takes k = ceil(bits / 64) uint64 limbs.  The bits
    are right-aligned in the limbs, so the 2-bit columns, which come last,
    never straddle two limbs.
    """
    layout = _key_layout(words.shape[1], alpha)
    keys = np.zeros((len(layout.slices), len(words)), dtype=layout.dtype)
    # A limb's columns are one contiguous slice with disjoint bits, so the
    # sum of value << shift over the slice is their OR.  einsum casts the
    # int16 slice in buffered chunks, never as a whole (rows, columns) copy.
    for i, (lo, hi) in enumerate(layout.slices):
        if hi > lo:
            keys[i] = np.einsum(
                "ij,j->i", words[:, lo:hi], layout.weights[lo:hi], dtype=layout.dtype,
                casting="unsafe",
            )
    return keys


# Entries per (columns, rows) block of _decode_keys: its limb-word buffer is 512 KB
# for uint32 keys and 1 MB for uint64 keys.
_DECODE_CELLS = 1 << 17


def _decode_keys(keys: np.ndarray, alpha: int, n: int) -> np.ndarray:
    """The int16 rows of n columns that _row_keys packed into keys.

    Decoded column-major, a block of about _DECODE_CELLS / n rows at a
    time: each limb's columns are written to contiguous rows of an
    (n, block) buffer, which is then transposed into the block's rows, so
    the temporaries stay one block in size.
    """
    layout = _key_layout(n, alpha)
    rows = keys.shape[1]
    out = np.empty((rows, n), dtype=np.int16)
    block = max(1, min(rows, _DECODE_CELLS // max(n, 1)))
    wide = np.empty((n, block), dtype=layout.dtype)
    buf = np.empty((n, block), dtype=np.int16)
    for lo in range(0, rows, block):
        size = min(block, rows - lo)
        for i, (c0, c1) in enumerate(layout.slices):
            part = wide[c0:c1, :size]
            np.right_shift(keys[i, lo : lo + size], layout.shifts[c0:c1], out=part)
            np.bitwise_and(part, layout.masks[c0:c1], out=buf[c0:c1, :size], casting="unsafe")
        out[lo : lo + size] = buf[:, :size].T
    return out


def _key_add(a: np.ndarray, b: np.ndarray, low: np.ndarray, out=None) -> np.ndarray:
    """Packed keys of the sums of reduced rows: XOR in each Z2 bit and each Z4 lane,
    plus the carry of the Z4 lanes' low bits into their high bits."""
    out = np.bitwise_and(a, b & low, out=out)
    out <<= 1
    out ^= a
    out ^= b
    return out


def _sort_keys(keys: np.ndarray) -> np.ndarray:
    """Distinct packed rows in lexicographic row order, as (k, m) keys; keys is not changed.

    One np.unique: over plain integers when the keys fit one limb, over rows
    of limbs otherwise.  (return_index keeps np.unique of 1-D input on its
    sort path rather than a slower hash path.)
    """
    flat = np.unique(keys[0] if len(keys) == 1 else keys.T, axis=0, return_index=True)[0]
    return flat.T.reshape(len(keys), -1)


def _projection_sizes(keys: np.ndarray, alpha: int, n: int) -> tuple[int, int]:
    """How many distinct X blocks and distinct Y blocks packed words of n columns have,
    each counted by sorting the keys with the other block's bit field masked off."""
    low = _key_layout(n, alpha).low
    y_field = low | low << 1
    return _sort_keys(keys & ~y_field).shape[1], _sort_keys(keys & y_field).shape[1]


def _count_text(n: int) -> str:
    """n in full, or as 2^k for a power of two above 2^64."""
    return f"2^{n.bit_length() - 1}" if n > 2**64 and not n & (n - 1) else str(n)


def _span_keys(rows: np.ndarray, widths: np.ndarray, alpha: int) -> np.ndarray:
    """The additive span of reduced rows, as sorted distinct packed keys of shape (k, m).

    widths[j] is 1 for an order-two row, whose multiples are 0 and the row,
    and 2 for a row whose multiples range over Z4.  The combinations are
    enumerated as packed keys by doubling: after the rows before row j,
    the first `size` keys are all their combinations, and coefficient c of
    row j fills keys c*size .. (c+1)*size - 1.  An order-two row has even
    Z4 entries, so adding it is one XOR; a width-2 row is added lane-wise
    by _key_add, and c = 2, 3 are the c = 0, 1 words XOR the key of twice
    the row.  One-limb keys are then sorted in place by numpy's SIMD sort,
    so that np.unique's stable sort runs over sorted input.
    """
    low = _key_layout(rows.shape[1], alpha).low
    row_keys = _row_keys(rows, alpha)
    if (row_keys[:, widths == 1] & low).any():
        raise ArithmeticError("internal error: an order-two spanning row has an odd Z4 entry")
    keys = np.zeros((len(low), 1 << int(widths.sum())), dtype=low.dtype)
    size = 1
    for j, width in enumerate(widths.tolist()):
        row = row_keys[:, j : j + 1]
        if width == 1:
            np.bitwise_xor(keys[:, :size], row, out=keys[:, size : 2 * size])
        else:
            _key_add(keys[:, :size], row, low, out=keys[:, size : 2 * size])
            np.bitwise_xor(keys[:, : 2 * size], (row & low) << 1, out=keys[:, 2 * size : 4 * size])
        size <<= width
    if len(keys) == 1:
        keys[0].sort()
    return _sort_keys(keys)


def _check_cap(cap: int) -> None:
    """A word-count cap must admit at least one word; anything less is a usage error."""
    if cap < 1:
        raise InvalidParameter(f"cap must be at least 1, not {cap}")


def _codeword_keys(spec: CyclicCodeSpec, cap: int = ENUM_CAP) -> np.ndarray:
    """All codewords as sorted distinct packed keys, shape (k, |C|): the spec's cached
    _word_keys, once |C| is known to be within the cap."""
    _check_cap(cap)
    total = cardinality(spec)
    if total > cap:
        raise TooLarge(f"code has {_count_text(total)} codewords, above the cap of {cap}")
    return spec._word_keys


def codeword_matrix(spec: CyclicCodeSpec, cap: int = ENUM_CAP) -> np.ndarray:
    """All codewords as a canonical (sorted, unique) int16 matrix: _codeword_keys, decoded once."""
    return _decode_keys(_codeword_keys(spec, cap), spec.alpha, spec.alpha + spec.beta)


def code_type_from_words(alpha: int, beta: int, words: np.ndarray) -> CodeType:
    """Type parameters measured on a canonical codeword matrix (no degree formulas)."""
    ub, qb = words[:, :alpha], words[:, alpha:]
    n = len(words)
    order2 = np.all(qb % 2 == 0, axis=1)
    n2 = int(order2.sum())
    delta = _exact_log2(n) - _exact_log2(n2)
    gamma = _exact_log2(n2) - delta
    kappa = _exact_log2(_sort_keys(_row_keys(ub[order2], alpha)).shape[1])
    kappa1 = _exact_log2(int(np.all(qb == 0, axis=1).sum()))
    zero_x = np.all(ub == 0, axis=1)
    d_tot = int(zero_x.sum())
    d_tor = int((zero_x & order2).sum())
    delta2 = _exact_log2(d_tot) - _exact_log2(d_tor)
    return CodeType(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        delta=delta,
        kappa=kappa,
        kappa1=kappa1,
        kappa2=kappa - kappa1,
        delta1=delta - delta2,
        delta2=delta2,
    )


def _exact_log2(n: int) -> int:
    if n < 1 or n & (n - 1):
        raise ArithmeticError(f"internal error: expected a power of two, got {n}")
    return n.bit_length() - 1


# -- Gray map and inner products -----------------------------------------


def _gray_keys(keys: np.ndarray, alpha: int, n: int) -> np.ndarray:
    """Gray images of packed words, as keys: each Z4 lane q becomes q ^ (q >> 1), so
    0, 1, 2, 3 map to 00, 01, 11, 10 and the Z2 bits stay.  With m = alpha + 2*(n -
    alpha), this is the key of the image under _key_layout(m, m): both layouts are
    right-aligned over the same m bits.  A key's popcount is its word's Gray weight."""
    gray = keys >> 1
    gray &= _key_layout(n, alpha).low
    gray ^= keys
    return gray


def _gray_rows(keys: np.ndarray, alpha: int, n: int) -> np.ndarray:
    """Gray images of packed words of n columns, as an int16 matrix."""
    m = 2 * n - alpha
    return _decode_keys(_gray_keys(keys, alpha, n), m, m)


def gray_map(w: Codeword) -> tuple[int, ...]:
    """Binary image of length alpha + 2*beta: identity on u, phi(q) per symbol."""
    keys = _row_keys(np.array([w.u + w.uq], dtype=np.int16), len(w.u))
    return tuple(_gray_rows(keys, len(w.u), len(w.u) + len(w.uq))[0].tolist())


def _check_ambient(w1: Codeword, w2: Codeword) -> None:
    if len(w1.u) != len(w2.u) or len(w1.uq) != len(w2.uq):
        raise AmbientMismatch(
            f"ambients differ: ({len(w1.u)}|{len(w1.uq)}) vs ({len(w2.u)}|{len(w2.uq)})"
        )


def _pairings(a: np.ndarray, b: np.ndarray, alpha: int) -> np.ndarray:
    """2 * <u, u'> + <q, q'> mod 4 over the last axis of rows a and b, broadcast
    against each other; the sums are in int64, so long rows cannot overflow."""
    prod = np.multiply(a, b, dtype=np.int64)
    return (2 * prod[..., :alpha].sum(axis=-1) + prod[..., alpha:].sum(axis=-1)) % 4


def inner_product(w1: Codeword, w2: Codeword) -> int:
    """2 * <u1, u2> + <q1, q2> in Z4."""
    _check_ambient(w1, w2)
    s = 2 * sum(a * b for a, b in zip(w1.u, w2.u))
    s += sum(a * b for a, b in zip(w1.uq, w2.uq))
    return s % 4


def circ_product(w1: Codeword, w2: Codeword) -> QuatPoly:
    """Polynomial pairing whose coefficients are the shifted inner products.

    With m the lcm of the nonempty block lengths (1 when both are empty),
    the result collects inner_product(w1, shift(w2, i)) as the coefficient
    of x^(m-1-i); it vanishes exactly when w1 is orthogonal to every shift
    of w2.  An addend whose block of w2 is zero (or empty) is taken to be
    zero, so words with both blocks empty pair to zero.  m above
    DEGREE_CAP raises TooLarge.
    """
    _check_ambient(w1, w2)
    a, beta = len(w1.u), len(w1.uq)
    m = math.lcm(*(k for k in (a, beta) if k))
    if m > DEGREE_CAP:
        raise TooLarge(f"lcm(alpha, beta) = {m} is above the length cap of {DEGREE_CAP}")
    total = QuatPoly.zero()
    v = BinPoly._make(w2.u)
    # binary addend: 2 * u(x) * theta_{m/a}(x^a) * x^(m-1-deg v) * v*(x)
    if not v.is_zero:
        u4 = QuatPoly._make(w1.u)
        th = z4.lift_binary(gf2.theta(m // a, a))
        term = 2 * u4 * th * QuatPoly.x(m - 1 - _deg(v)) * z4.lift_binary(v.reciprocal())
        total = total + term.fold(m)
    vq = QuatPoly._make(w2.uq)
    if not vq.is_zero:
        uq4 = QuatPoly._make(w1.uq)
        th = z4.lift_binary(gf2.theta(m // beta, beta))
        term = uq4 * th * QuatPoly.x(m - 1 - _deg(vq)) * vq.reciprocal()
        total = total + term.fold(m)
    return total


# -- distinguished subcodes ----------------------------------------------


def subcode_order_two(spec: CyclicCodeSpec) -> list[tuple[BinPoly, QuatPoly]]:
    """Generators (b | 0), (ell*g | 2fg), (0 | 2fh) of the order-two subcode, reduced:
    the first and third base pairs, and twice the second, 2(fh + 2f) = 2fh."""
    a, beta = spec.alpha, spec.beta
    (b, _), (_, y2), (x3, y3) = _base_pairs(spec)
    return [
        (b.fold(a), QuatPoly.zero()),
        (x3.fold(a), y3.fold(beta)),
        (BinPoly.zero(), (2 * y2).fold(beta)),
    ]


def project_xy(spec: CyclicCodeSpec) -> tuple[BinPoly, QuatPoly]:
    """Generators of the block projections: C_X = <gcd(b, ell)>, C_Y = <fh + 2f>."""
    return gf2.gcd(spec.b, spec.ell), _base_pairs(spec)[1][1].fold(spec.beta)
