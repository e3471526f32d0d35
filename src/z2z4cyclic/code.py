"""Additive cyclic codes on the mixed ambient Z2^alpha x Z4^beta.

A code is generated by a tuple (b, ell, f, h): b and ell binary, f and h
quaternary, with f*h*g = x^beta - 1 over Z4, b a divisor of x^alpha - 1,
deg(ell) < deg(b) unless ell = 0, and b dividing ell*(x^beta-1)/f mod 2.
The code is the module generated by (b | 0) and (ell | f*h + 2f) under
the mixing action lambda * (p | q) = (lambda*p mod 2 | lambda*q), with
everything reduced mod x^alpha - 1 and x^beta - 1.

Validation keeps the mod-2 images it derives, g mod 2, h mod 2 and
ell*g mod 2, as packed ints in the spec's __dict__ (_g2, _h2, _ell_g2),
outside the dataclass fields; _ell_gcds, _base_pairs and the dual module
read them, and nothing else computes them.  A spec is copied and pickled
by rebuilding it from its six fields, so no kept image or cache travels.

Vectors and polynomials correspond by (u_0, ..., u_{n-1}) <->
sum u_i x^i.  Each word fact has one implementation here: _shift_cols, a
column gather on uint8 rows, is the one simultaneous shift of rows that
already exist, and packed keys are never shifted (cyclic_shift is the
same shift on one Codeword, for the public API); shifting both blocks is
multiplication by x, so the shift of a span is the span of the shifted
rows.  _block_sizes gives the spanning block sizes |S1|, |S2|, |S3| =
(alpha - deg b, deg g, deg h) that the spanning rows (the spec's cached
property _span_rows), cardinality(spec) (the one size formula) and
code_type read; a row's additive order is read from the row itself: four
when it has an odd Z4 entry (the S2 rows), two otherwise.
_base_pairs gives the base pairs (b | 0),
(ell | fh + 2f), (ell*g | 2fg), as packed ints from the ring kernels,
that the spanning rows, subcode_order_two and project_xy read; and
_gray_keys is the Gray map, on packed keys: a Gray-coded key is the key
of the word's Gray image in the all-binary layout, so _gray_rows decodes
it and its popcount is the word's Gray weight; _pairings, the pairing 2<u, u'> + <q, q'> mod 4 on int rows, is
behind dual.contains and verify's orthogonality check: one einsum per
block sums in int64 and casts its operands in buffered chunks, so it
builds nothing wider than its output.  The spanning rows are written,
not gathered: row i of a block is its base pair times x^i, which rotates
each block's coefficients i places.  Each base pair's blocks are folded
and written once as little-endian coefficient bytes, doubled (a
byte-packed Z4 int's bytes are its coefficients, and a bit-packed Z2
int's lift to Z4 makes them 0/1 bytes), and row i is one slice of each;
the rows are that one bytearray, read as uint8.  They are cached
read-only in the spec's __dict__, outside the dataclass fields, so ==,
hash and repr never see them and equal instances share nothing.
Internal rows are reduced, so _row_word wraps one as a Codeword with no
entry check, as DensePoly._wrap wraps an already reduced int; the public
Codeword(...) and parse_codeword check every entry.
circ_product works on packed coefficient ints too: per block, the word's
entries repeated m/len times and the other word's entries read
big-endian give one product and one fold, and the two blocks' terms are
added and wrapped once, with no theta, lift or reciprocal built; it
shares no code with analysis's oracle of the shifted inner products, a
numpy matmul of sliding windows.  _span_keys enumerates the span of
any rows by doubling on packed keys: each row's multiples are added to
all the keys built so far, an order-two row by one XOR and an order-four
row lane-wise (_key_add, from the row's low Z4 lane bits, masked once for
all rows; the same mask gives each row's order), and the keys are sorted
once.  The span of the spanning rows is enumerated
once per spec and cached read-only beside the spanning rows (_word_keys);
_codeword_keys checks the cap and returns it, and codeword_matrix decodes
it, column-major, into the uint8 matrix.  So a spec keeps 4 bytes per
codeword when its rows fit 32 bits, and 8 bytes per limb above that.
Membership is decided in the dual module, from the dual's spanning rows,
without enumerating the code.
Inside the package a codeword set is its sorted distinct packed keys;
the public form is their decode, a uint8 matrix of unique rows (binary
block first) in lexicographic row order, which keeps brute-force
comparisons exact.  _sort_keys is the one np.unique here, and it leaves
its argument as it was; only _span_keys presorts its own keys, one-limb
keys in place and multi-limb keys by a lexsort over the limbs.  Each row
is written MSB-first with 1 bit per Z2 coordinate (or Gray bit) and 2
bits per Z4 coordinate, so packed-key order equals lexicographic row
order.  The limb word follows the row's bit count: a
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
from .gf2poly import BinPoly, _clmul, _fold_bits, _mod_bits
from .poly import DEGREE_CAP, _check_length, _count_text, _parse_int
from .z4poly import QuatPoly, _add_bytes, _fold_bytes, _lift_bits, _mod2_bits, _mul_bytes

ENUM_CAP = 2**22


@dataclass(frozen=True)
class Codeword:
    """One ambient vector: binary block u, quaternary block uq."""

    u: tuple[int, ...]
    uq: tuple[int, ...]

    def __post_init__(self):
        # Entries are ints or numpy integers: a bool or a float may equal 0 or 1
        # but is not an entry.
        if any(
            not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v not in (0, 1) for v in self.u
        ):
            raise InvalidParameter("binary block entries must be 0 or 1")
        if any(
            not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v not in (0, 1, 2, 3)
            for v in self.uq
        ):
            raise InvalidParameter("quaternary block entries must be in 0..3")


def parse_codeword(text: str) -> Codeword:
    """Parse "u0 u1 ... | q0 q1 ...", each entry ASCII digits with an optional sign."""
    if "|" not in text:
        raise ParseError("codeword text needs a '|' between the binary and quaternary blocks")
    left, _, right = text.partition("|")
    try:
        u = tuple(_parse_int(t) for t in left.split())
        uq = tuple(_parse_int(t) for t in right.split())
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
    """Simultaneous i-step cyclic shift of both blocks: new[j] = old[j + i].  i is an
    int (not a bool), of any sign or size."""
    if not isinstance(i, int) or isinstance(i, bool):
        raise InvalidParameter(f"shift must be an integer, not {i!r}")
    a, b = len(w.u), len(w.uq)
    return Codeword(
        tuple(w.u[(j + i) % a] for j in range(a)),
        tuple(w.uq[(j + i) % b] for j in range(b)),
    )


def star(lam: QuatPoly, p: BinPoly, q: QuatPoly, alpha: int, beta: int) -> tuple[BinPoly, QuatPoly]:
    """Mixing action of lambda on the pair (p | q); an operand outside its ring raises
    that ring's TypeError."""
    if lam.__class__ is not QuatPoly:
        QuatPoly._check_ring(lam)
    xpart = (lam.reduce_mod2() * p).fold(alpha)
    ypart = z4.mul_mod(lam, q, beta)
    return xpart, ypart


# -- generator tuples ----------------------------------------------------


@dataclass(frozen=True)
class CyclicCodeSpec:
    """Canonical generator tuple; g = (x^beta - 1)/(f*h) is derived, and validation
    keeps g, h and ell*g mod 2 as packed ints (_g2, _h2, _ell_g2) outside the fields."""

    alpha: int
    beta: int
    b: BinPoly
    ell: BinPoly
    f: QuatPoly
    h: QuatPoly
    g: QuatPoly = field(init=False)

    def __post_init__(self):
        _check_length(self.alpha, "alpha", InvalidSpec)
        _check_length(self.beta, "beta", InvalidSpec)
        if self.beta % 2 == 0:
            raise InvalidSpec("beta must be odd")
        if not isinstance(self.b, BinPoly) or not isinstance(self.ell, BinPoly):
            raise InvalidSpec("b and ell must be binary polynomials")
        if not isinstance(self.f, QuatPoly) or not isinstance(self.h, QuatPoly):
            raise InvalidSpec("f and h must be quaternary polynomials")
        b, ell = self.b._rep, self.ell._rep
        if not b:
            raise InvalidSpec("b must be nonzero")
        if _mod_bits(1 << self.alpha | 1, b):
            raise InvalidSpec(f"b = {self.b} does not divide x^{self.alpha}-1 over Z2")
        if not self.f.is_monic:
            raise InvalidSpec("f must be monic")
        if not self.h.is_monic:
            raise InvalidSpec("h must be monic")
        g, rem = divmod(z4.xn1(self.beta), self.f * self.h)
        if rem:
            raise InvalidSpec(f"f*h = {self.f * self.h} does not divide x^{self.beta}-1 over Z4")
        if ell.bit_length() >= b.bit_length():
            raise InvalidSpec(f"deg(ell) = {self.ell.degree} must be smaller than deg(b) = {self.b.degree}")
        g2, h2 = _mod2_bits(g._rep), _mod2_bits(self.h._rep)
        gh = _clmul(g2, h2)
        ghl = _clmul(gh, ell)
        if _mod_bits(ghl, b):
            raise InvalidSpec(f"b = {self.b} does not divide ell*(x^{self.beta}-1)/f mod 2 = {BinPoly._wrap(ghl)}")
        vars(self).update(g=g, _g2=g2, _h2=h2, _ell_g2=_clmul(ell, g2))
        # Consequences of the defining conditions; failure here means a bug above.
        gl, glg = _ell_gcds(self)
        if _mod_bits(_clmul(gh, gl), b):
            raise ArithmeticError("internal error: b does not divide (x^beta-1)/f * gcd(b, ell) mod 2")
        if _mod_bits(_clmul(h2, glg), b):
            raise ArithmeticError("internal error: b does not divide h * gcd(b, ell*g) mod 2")

    def __reduce__(self):
        # copy and pickle rebuild the spec through validation from its six fields,
        # so no kept image or cache is carried over: a pickled or deep-copied
        # numpy array comes back writeable.
        return type(self), (self.alpha, self.beta, self.b, self.ell, self.f, self.h)

    @functools.cached_property
    def _span_rows(self) -> np.ndarray:
        """Spanning rows S1|S2|S3, read-only: row i of each block is its base pair
        times x^i, each block's coefficient bytes rotated i places."""
        a, beta = self.alpha, self.beta
        rows = bytearray()
        for (p, q), count in zip(_base_pairs(self), _block_sizes(self)):
            # Each block's little-endian coefficient bytes, doubled: bytes n - i .. 2n - i
            # of the doubled block are the block rotated i places.
            xs = _lift_bits(_fold_bits(p, a)).to_bytes(a, "little") * 2
            ys = _fold_bytes(q, beta).to_bytes(beta, "little") * 2
            for i in range(count):
                rows += xs[a - i % a : 2 * a - i % a]
                rows += ys[beta - i % beta : 2 * beta - i % beta]
        rows = np.frombuffer(rows, dtype=np.uint8).reshape(-1, a + beta)
        rows.flags.writeable = False
        return rows

    @functools.cached_property
    def _word_keys(self) -> np.ndarray:
        """All codewords as sorted distinct packed keys, shape (k, |C|), read-only: the
        span of the spanning rows, with coefficients over Z2 for S1 and S3 rows and
        over Z4 for S2 rows.  The S1 and S3 rows are checked to have order two (no odd
        Z4 entry), and the key count is asserted against the cardinality formula,
        which also catches an S2 row of order two.  Read it through _codeword_keys,
        which checks the cap first."""
        rows = self._span_rows
        s1, s2, _ = _block_sizes(self)
        if (rows[:s1, self.alpha :] & 1).any() or (rows[s1 + s2 :, self.alpha :] & 1).any():
            raise ArithmeticError("internal error: an order-two spanning row has an odd Z4 entry")
        total = cardinality(self)
        keys = _span_keys(rows, self.alpha)
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

    alpha and beta are each an int (not a bool) or its text: ASCII digits
    with an optional sign, whitespace around them allowed; "1_0", non-ASCII
    digits, a float, a bool, None or any other type is refused rather than
    read or truncated.  The polynomials are text in either form
    BinPoly.parse / QuatPoly.parse accept.  This is the one decoder behind
    spec files, the CLI's inline flags and Command dicts.
    """
    missing = [k for k in SPEC_KEYS if k not in fields]
    if missing:
        raise ParseError(f"missing keys: {', '.join(missing)}")
    lengths = [fields["alpha"], fields["beta"]]
    if any(isinstance(v, bool) or not isinstance(v, (int, str)) for v in lengths):
        raise ParseError("alpha and beta must be integers")
    try:
        alpha, beta = (int(v) if isinstance(v, int) else _parse_int(v) for v in lengths)
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


def _type_text(alpha: int, beta: int, gamma: int, delta: int, kappa: int) -> str:
    """The type as the paper writes it: (alpha,beta;gamma,delta;kappa)."""
    return f"({alpha},{beta};{gamma},{delta};{kappa})"


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
        return _type_text(self.alpha, self.beta, self.gamma, self.delta, self.kappa)

    @property
    def is_separable(self) -> bool:
        """Whether the code splits as C_X x C_Y, read off as kappa2 = delta1 = 0."""
        return self.kappa2 == 0 and self.delta1 == 0


def _block_sizes(spec: CyclicCodeSpec) -> tuple[int, int, int]:
    """|S1|, |S2|, |S3|: how many shifts of each base row span the code."""
    return spec.alpha - spec.b.degree, spec.g.degree, spec.h.degree


def _base_pairs(spec: CyclicCodeSpec) -> tuple[tuple[int, int], ...]:
    """(b | 0), (ell | fh + 2f), (ell*g | 2fg) as packed ints (bits for the binary side,
    bytes for the quaternary side), unreduced: S1, S2, S3 are their shifts."""
    f, ell = spec.f._rep, spec.ell._rep
    fg = _mul_bytes(f, spec.g._rep)
    return (
        (spec.b._rep, 0),
        (ell, _add_bytes(_mul_bytes(f, spec.h._rep), 2 * f)),
        (spec._ell_g2, _add_bytes(fg, fg)),
    )


def _ell_gcds(spec: CyclicCodeSpec) -> tuple[int, int]:
    """gcd(b, ell) and gcd(b, ell*g mod 2), packed, one gf2.gcd call each
    (gcd(b, 0) = b by convention); both are nonzero, since b is."""
    return gf2.gcd(spec.b, spec.ell)._rep, gf2.gcd(spec.b, BinPoly._wrap(spec._ell_g2))._rep


def code_type(spec: CyclicCodeSpec) -> CodeType:
    """Type parameters from the block sizes and two gcd degrees."""
    s1, s2, s3 = _block_sizes(spec)
    gl, glg = _ell_gcds(spec)
    d_gcd_l, d_gcd_lg = gl.bit_length() - 1, glg.bit_length() - 1
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


def _shift_cols(alpha: int, beta: int, k) -> np.ndarray:
    """Columns of the simultaneous shift by k: j reads (j + k) mod alpha in X, alpha +
    (j + k) mod beta in Y.  A column of shifts gives one row of columns per shift."""
    return np.concatenate(
        [(np.arange(alpha) + k) % alpha, alpha + (np.arange(beta) + k) % beta], axis=-1
    )


@functools.lru_cache(maxsize=64)
def _unit_shift_cols(alpha: int, beta: int) -> np.ndarray:
    """_shift_cols(alpha, beta, 1), built once per shape and read-only."""
    cols = _shift_cols(alpha, beta, 1)
    cols.flags.writeable = False
    return cols


def spanning_set(spec: CyclicCodeSpec) -> list[Codeword]:
    """Shifted generators whose Z4-combinations cover the code exactly once."""
    return [_row_word(row, spec.alpha) for row in spec._span_rows]


def _row_word(row: np.ndarray, alpha: int) -> Codeword:
    """The Codeword of a reduced row: entries 0..1 before alpha and 0..3 after it.

    The row must already be reduced, as every row the package builds is, so
    Codeword's entry checks could only pass and are not run: the fields are
    set directly, as DensePoly._wrap wraps an already reduced int."""
    values = row.tolist()
    word = object.__new__(Codeword)
    vars(word).update(u=tuple(values[:alpha]), uq=tuple(values[alpha:]))
    return word


def _reduce_blocks(words: np.ndarray, alpha: int) -> np.ndarray:
    # & is exact mod 2 and mod 4 on uint8 rows and on wider two's-complement
    # ones, wrapped values too: 2^8 is a multiple of 4.
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
    # Shape (limbs, 1): each limb's mask of the low bits of its Z4 lanes, and of both
    # bits of its Z4 lanes (the Y block's bit field).
    low: np.ndarray
    lanes: np.ndarray
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
    shifts = shift.astype(dtype)[:, None]
    masks = ((1 << widths) - 1).astype(dtype)[:, None]
    weights = dtype(1) << shifts[:, 0]
    # A limb's Z4 columns end its slice and hold disjoint bits, so the sum of their
    # weights is the mask of their low bits.
    low = np.array([[weights[max(lo, alpha) : hi].sum(dtype=dtype)] for lo, hi in slices], dtype=dtype)
    lanes = low | low << 1
    for a in (shifts, masks, weights, low, lanes):
        a.flags.writeable = False
    return _KeyLayout(dtype, tuple(slices), weights, low, lanes, shifts, masks)


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
    # uint8 slice in buffered chunks, never as a whole (rows, columns) copy.
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
    """The uint8 rows of n columns that _row_keys packed into keys.

    Decoded column-major, a block of about _DECODE_CELLS / n rows at a
    time: each limb's columns are shifted into contiguous rows of an
    (n, block) limb-word buffer and masked straight into the block's
    transposed view, so the only temporary is that one buffer.
    """
    layout = _key_layout(n, alpha)
    rows = keys.shape[1]
    out = np.empty((rows, n), dtype=np.uint8)
    block = max(1, min(rows, _DECODE_CELLS // max(n, 1)))
    wide = np.empty((n, block), dtype=layout.dtype)
    for lo in range(0, rows, block):
        size = min(block, rows - lo)
        for i, (c0, c1) in enumerate(layout.slices):
            part = wide[c0:c1, :size]
            np.right_shift(keys[i, lo : lo + size], layout.shifts[c0:c1], out=part)
            np.bitwise_and(part, layout.masks[c0:c1], out=out[lo : lo + size].T[c0:c1], casting="unsafe")
    return out


def _key_add(a: np.ndarray, b: np.ndarray, b_low: np.ndarray, out=None) -> np.ndarray:
    """Packed keys of the sums of reduced rows, given b_low = b & low (the low bits of
    b's Z4 lanes): XOR in each Z2 bit and each Z4 lane, plus the carry of the Z4
    lanes' low bits into their high bits."""
    out = np.bitwise_and(a, b_low, out=out)
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
    y_field = _key_layout(n, alpha).lanes
    return _sort_keys(keys & ~y_field).shape[1], _sort_keys(keys & y_field).shape[1]


def _span_keys(rows: np.ndarray, alpha: int) -> np.ndarray:
    """The additive span of reduced rows, as sorted distinct packed keys of shape (k, m).

    Each row's order is read from the row: a row with no odd Z4 entry has
    order two, so its multiples are 0 and the row (width 1 bit), and any
    other has order four, so its multiples range over Z4 (width 2 bits).
    The combinations are enumerated as packed keys by doubling: after the
    rows before row j, the first `size` keys are all their combinations,
    and coefficient c of row j fills keys c*size .. (c+1)*size - 1.  An
    order-two row has even Z4 entries, so adding it is one XOR; an
    order-four row is added lane-wise by _key_add, and c = 2, 3 are the
    c = 0, 1 words XOR the key of twice the row.  Every row's low Z4 lane
    bits, and their double, are masked once for all rows, and the widths
    read the same mask.  The keys are then presorted, so that np.unique's
    stable sort runs over sorted input: one-limb keys in place by numpy's
    SIMD sort, multi-limb keys by a lexsort over the limbs, most
    significant limb first, which spares np.unique's structured-row argsort
    its unsorted input.
    """
    low = _key_layout(rows.shape[1], alpha).low
    row_keys = _row_keys(rows, alpha)
    row_lows = row_keys & low
    widths = (1 + row_lows.any(axis=0)).tolist()
    twice = row_lows << 1
    keys = np.zeros((len(low), 1 << sum(widths)), dtype=low.dtype)
    size = 1
    for j, width in enumerate(widths):
        row = row_keys[:, j : j + 1]
        if width == 1:
            np.bitwise_xor(keys[:, :size], row, out=keys[:, size : 2 * size])
        else:
            _key_add(keys[:, :size], row, row_lows[:, j : j + 1], out=keys[:, size : 2 * size])
            np.bitwise_xor(keys[:, : 2 * size], twice[:, j : j + 1], out=keys[:, 2 * size : 4 * size])
        size <<= width
    if len(keys) == 1:
        keys[0].sort()
    else:
        keys = keys[:, np.lexsort(keys[::-1])]
    return _sort_keys(keys)


def _check_cap(cap: int) -> None:
    """A word-count cap is an int (not a bool) that admits at least one word; anything
    else is a usage error."""
    if not isinstance(cap, int) or isinstance(cap, bool):
        raise InvalidParameter(f"cap must be an integer, not {cap!r}")
    if cap < 1:
        raise InvalidParameter(f"cap must be at least 1, not {cap}")


def _check_words(total: int, cap: int) -> None:
    """Refuse a cap below 1, then a code of total words above the cap."""
    _check_cap(cap)
    if total > cap:
        raise TooLarge(f"code has {_count_text(total)} codewords, above the cap of {cap}")


def _codeword_keys(spec: CyclicCodeSpec, cap: int = ENUM_CAP) -> np.ndarray:
    """All codewords as sorted distinct packed keys, shape (k, |C|): the spec's cached
    _word_keys, once |C| is known to be within the cap."""
    _check_words(cardinality(spec), cap)
    return spec._word_keys


def codeword_matrix(spec: CyclicCodeSpec, cap: int = ENUM_CAP) -> np.ndarray:
    """All codewords as a canonical (sorted, unique) uint8 matrix: _codeword_keys, decoded once."""
    return _decode_keys(_codeword_keys(spec, cap), spec.alpha, spec.alpha + spec.beta)


def code_type_from_words(alpha: int, beta: int, words: np.ndarray) -> CodeType:
    """Type parameters measured on a canonical codeword matrix (no degree formulas).

    The matrix is packed once into keys.  A word has order two when no Z4
    lane has its low bit set, and a zero X or Y block when its key is zero
    under that block's bit field (the layout's masks low and lanes over
    the limbs).  kappa counts the distinct X blocks of the order-two words
    with one sort of their masked keys.

    words must be a 2-D integer array of alpha + beta columns, else
    InvalidParameter (AmbientMismatch for the column count), with entries
    in 0..1 in the first alpha columns and 0..3 in the rest.  A code has a
    power-of-two number of words, so any other row count is refused too,
    and so is a matrix whose measured counts no additive code has: a count
    that is not a power of two, or parameters that do not make a type."""
    if not isinstance(words, np.ndarray) or words.ndim != 2:
        raise InvalidParameter("words must be a 2-D integer array")
    if words.dtype.kind not in "iu":
        raise InvalidParameter(f"words must be an integer array, not {words.dtype}")
    if words.shape[1] != alpha + beta:
        raise AmbientMismatch(f"words have {words.shape[1]} columns, not alpha + beta = {alpha + beta}")
    n = len(words)
    if n < 1 or n & (n - 1):
        raise InvalidParameter(f"a code has a power-of-two number of words, not {n}")
    # A reduction over the whole array is fast and one over a column slice is
    # not, so only the Z2 block is reduced on its own.
    x = words[:, :alpha]
    if words.size and (words.max() > 3 or words.dtype.kind == "i" and words.min() < 0 or x.size and x.max() > 1):
        ring, top = ("Z2", 1) if x.size and (x.max() > 1 or x.min() < 0) else ("Z4", 3)
        raise InvalidParameter(f"words have an entry outside 0..{top} in a {ring} column")
    keys = _row_keys(words, alpha)
    layout = _key_layout(words.shape[1], alpha)
    low, y_field = layout.low, layout.lanes
    x_keys = keys & ~y_field
    order2 = ~(keys & low).any(axis=0)
    # int(): count_nonzero gives a numpy integer, which has no bit_length.
    n2 = int(np.count_nonzero(order2))
    delta = _count_log2(n) - _count_log2(n2)
    gamma = _count_log2(n2) - delta
    kappa = _count_log2(_sort_keys(x_keys[:, order2]).shape[1])
    kappa1 = _count_log2(int(np.count_nonzero(~(keys & y_field).any(axis=0))))
    zero_x = ~x_keys.any(axis=0)
    d_tot = int(np.count_nonzero(zero_x))
    d_tor = int(np.count_nonzero(zero_x & order2))
    delta2 = _count_log2(d_tot) - _count_log2(d_tor)
    try:
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
    except InvalidParameter as e:
        raise InvalidParameter(f"words are not the word set of an additive code: {e}") from None


def _count_log2(n: int) -> int:
    """log2 of a word count measured by code_type_from_words; a count that is no
    power of two is a matrix that is not a code, so InvalidParameter."""
    if n < 1 or n & (n - 1):
        raise InvalidParameter(f"words are not the word set of an additive code: a measured count is {n}")
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
    """Gray images of packed words of n columns, as a uint8 matrix."""
    m = 2 * n - alpha
    return _decode_keys(_gray_keys(keys, alpha, n), m, m)


def gray_map(w: Codeword) -> tuple[int, ...]:
    """Binary image of length alpha + 2*beta: identity on u, phi(q) per symbol."""
    keys = _row_keys(np.array([w.u + w.uq], dtype=np.uint8), len(w.u))
    return tuple(_gray_rows(keys, len(w.u), len(w.u) + len(w.uq))[0].tolist())


def _check_ambient(w1: Codeword, w2: Codeword) -> None:
    if len(w1.u) != len(w2.u) or len(w1.uq) != len(w2.uq):
        raise AmbientMismatch(
            f"ambients differ: ({len(w1.u)}|{len(w1.uq)}) vs ({len(w2.u)}|{len(w2.uq)})"
        )


def _pairings(a: np.ndarray, b: np.ndarray, alpha: int) -> np.ndarray:
    """2 * <u, u'> + <q, q'> mod 4 over the last axis of rows a and b, broadcast
    against each other.  The sums are in int64, so long rows cannot overflow, and
    einsum casts its operands in buffered chunks, never as a whole int64 product."""
    a, b = np.asarray(a), np.asarray(b)

    def dot(x, y):
        return np.einsum("...j,...j->...", x, y, dtype=np.int64, casting="unsafe")

    return (2 * dot(a[..., :alpha], b[..., :alpha]) + dot(a[..., alpha:], b[..., alpha:])) % 4


def inner_product(w1: Codeword, w2: Codeword) -> int:
    """2 * <u1, u2> + <q1, q2> in Z4."""
    _check_ambient(w1, w2)
    # int() first: a numpy integer entry would sum in its own width and wrap.
    s = 2 * sum(int(a) * int(b) for a, b in zip(w1.u, w2.u))
    s += sum(int(a) * int(b) for a, b in zip(w1.uq, w2.uq))
    return s % 4


def circ_product(w1: Codeword, w2: Codeword) -> QuatPoly:
    """Polynomial pairing whose coefficients are the shifted inner products.

    With m the lcm of the nonempty block lengths (1 when both are empty),
    the result collects inner_product(w1, shift(w2, i)) as the coefficient
    of x^(m-1-i); it vanishes exactly when w1 is orthogonal to every shift
    of w2.  An addend whose block of w2 is zero (or empty) is taken to be
    zero, so words with both blocks empty pair to zero.  m above
    DEGREE_CAP raises TooLarge (_check_period).
    """
    _check_ambient(w1, w2)
    m = _check_period(len(w1.u), len(w1.uq))
    # 2 * <u, shift(v, i)> in Z4 for the binary block, <q, shift(vq, i)> for the other.
    return QuatPoly._wrap(_add_bytes(_circ_term(w1.u, w2.u, m, 2), _circ_term(w1.uq, w2.uq, m, 1)))


def _check_period(alpha: int, beta: int) -> int:
    """The shift period lcm(alpha, beta) over the nonempty blocks (1 when both are
    empty), which circ_product pairs words over; above DEGREE_CAP raises TooLarge."""
    m = math.lcm(*(k for k in (alpha, beta) if k))
    if m > DEGREE_CAP:
        raise TooLarge(f"lcm(alpha, beta) = {m} is above the length cap of {DEGREE_CAP}")
    return m


def _circ_term(u: tuple[int, ...], v: tuple[int, ...], m: int, c: int) -> int:
    """c * u(x) theta_{m/k}(x^k) * x^(m-1-deg v) v*(x) mod x^m - 1, k = len(u), as a
    byte-packed int: u repeated m/k times is u(x) theta_{m/k}(x^k), and v's bytes read
    big-endian, followed by m - k zero bytes, are x^(m-1-deg v) v*(x); one _mul_bytes and
    one _fold_bytes give the term.  0 when v is zero.  c * v stays reduced: c = 2 only on
    the binary block, whose entries are 0 and 1."""
    if not any(v):
        return 0
    repeated = int.from_bytes(bytes(u) * (m // len(u)), "little")
    reversed_v = c * int.from_bytes(bytes(v) + bytes(m - len(v)), "big")
    return _fold_bytes(_mul_bytes(repeated, reversed_v), m)


# -- distinguished subcodes ----------------------------------------------


def subcode_order_two(spec: CyclicCodeSpec) -> list[tuple[BinPoly, QuatPoly]]:
    """Generators (b | 0), (ell*g | 2fg), (0 | 2fh) of the order-two subcode, reduced:
    the first and third base pairs, and twice the second, 2(fh + 2f) = 2fh."""
    a, beta = spec.alpha, spec.beta
    (b, _), (_, y2), (x3, y3) = _base_pairs(spec)
    return [
        (BinPoly._wrap(_fold_bits(b, a)), QuatPoly.zero()),
        (BinPoly._wrap(_fold_bits(x3, a)), QuatPoly._wrap(_fold_bytes(y3, beta))),
        (BinPoly.zero(), QuatPoly._wrap(_fold_bytes(_add_bytes(y2, y2), beta))),
    ]


def project_xy(spec: CyclicCodeSpec) -> tuple[BinPoly, QuatPoly]:
    """Generators of the block projections: C_X = <gcd(b, ell)>, C_Y = <fh + 2f>."""
    return gf2.gcd(spec.b, spec.ell), QuatPoly._wrap(_fold_bytes(_base_pairs(spec)[1][1], spec.beta))
