"""Additive cyclic codes on the mixed ambient Z2^alpha x Z4^beta.

A code is generated by a tuple (b, ell, f, h): b and ell binary, f and h
quaternary, with f*h*g = x^beta - 1 over Z4, b a divisor of x^alpha - 1,
deg(ell) < deg(b) unless ell = 0, and b dividing ell*(x^beta-1)/f mod 2.
The code is the module generated by (b | 0) and (ell | f*h + 2f) under
the mixing action lambda * (p | q) = (lambda*p mod 2 | lambda*q), with
everything reduced mod x^alpha - 1 and x^beta - 1.

Vectors and polynomials correspond by (u_0, ..., u_{n-1}) <-> sum u_i x^i.
Each word fact has one implementation here: _shift_cols is the column
gather of the simultaneous block shift, cardinality(spec) is |C| from
the generator degrees, and _gray_rows is the Gray map (gray_map is its
one-row view).  The spanning rows are the shifts of three base rows,
taken by one _shift_cols gather, and a code is enumerated from them by
doubling: each row's multiples are added to all the words built so far,
into one array.  Membership is decided in the dual module, from the
dual's spanning rows, without enumerating the code.
Codeword sets are canonically represented as int16 matrices of unique
rows (binary block first) in lexicographic row order, which keeps
brute-force comparisons exact.  That order is found by sorting packed
integer keys: each row is written MSB-first with 1 bit per Z2 coordinate
(or Gray bit) and 2 bits per Z4 coordinate, so packed-key order equals
lexicographic row order.  A row of alpha + 2*beta <= 64 bits is one
uint64; a wider row takes ceil((alpha + 2*beta) / 64) uint64 limbs, most
significant limb first, compared limb by limb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def format_codeword(w: Codeword) -> str:
    return " ".join(str(v) for v in w.u) + " | " + " ".join(str(v) for v in w.uq)


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
            if not isinstance(n, int) or n < 1:
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
        ghl = g.reduce_mod2() * self.h.reduce_mod2() * self.ell
        if ghl % self.b:
            raise InvalidSpec(f"b = {self.b} does not divide ell*(x^{self.beta}-1)/f mod 2 = {ghl}")
        # Consequences of the defining conditions; failure here means a bug above.
        if (g.reduce_mod2() * self.h.reduce_mod2() * gf2.gcd(self.b, self.ell)) % self.b:
            raise ArithmeticError("internal error: b does not divide (x^beta-1)/f * gcd(b, ell) mod 2")
        lg = self.ell * g.reduce_mod2()
        if (self.h.reduce_mod2() * gf2.gcd(self.b, lg)) % self.b:
            raise ArithmeticError("internal error: b does not divide h * gcd(b, ell*g) mod 2")
        object.__setattr__(self, "g", g)


def validate_spec(alpha: int, beta: int, b: BinPoly, ell: BinPoly, f: QuatPoly, h: QuatPoly) -> CyclicCodeSpec:
    """Check every defining condition and return the spec with g attached."""
    return CyclicCodeSpec(alpha, beta, b, ell, f, h)


SPEC_KEYS = ("alpha", "beta", "b", "ell", "f", "h")


def spec_from_fields(fields) -> CyclicCodeSpec:
    """Parse and validate the six text fields of a spec, given as a mapping.

    alpha and beta are integers (or their text), the polynomials are text
    in either form BinPoly.parse / QuatPoly.parse accept.  This is the one
    decoder behind spec files, the CLI's inline flags and Command dicts.
    """
    missing = [k for k in SPEC_KEYS if k not in fields]
    if missing:
        raise ParseError(f"missing keys: {', '.join(missing)}")
    try:
        alpha, beta = int(fields["alpha"]), int(fields["beta"])
    except (TypeError, ValueError):
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
    if p.is_zero:
        raise InvalidParameter("degree of the zero polynomial consumed in a formula")
    return int(p.degree)


def code_type(spec: CyclicCodeSpec) -> CodeType:
    """Type parameters from the generator degrees (gcd(b, 0) = b by convention)."""
    db = _deg(spec.b)
    d_gcd_l = _deg(gf2.gcd(spec.b, spec.ell))
    d_gcd_lg = _deg(gf2.gcd(spec.b, spec.ell * spec.g.reduce_mod2()))
    gamma = spec.alpha - db + _deg(spec.h)
    delta = _deg(spec.g)
    kappa = spec.alpha - d_gcd_lg
    kappa1 = spec.alpha - db
    delta1 = d_gcd_lg - d_gcd_l
    return CodeType(
        alpha=spec.alpha,
        beta=spec.beta,
        gamma=gamma,
        delta=delta,
        kappa=kappa,
        kappa1=kappa1,
        kappa2=kappa - kappa1,
        delta1=delta1,
        delta2=delta - delta1,
    )


def cardinality(spec: CyclicCodeSpec) -> int:
    """|C| = 2^(alpha - deg b) * 4^(deg g) * 2^(deg h)."""
    return 2 ** (spec.alpha - _deg(spec.b)) * 4 ** _deg(spec.g) * 2 ** _deg(spec.h)


@dataclass(frozen=True)
class CardinalityFamily:
    """Sizes of the dual and of the X/Y projections; |C| itself is cardinality(spec)."""

    c_dual: int
    c_x: int
    c_y: int


def cardinality_family(t: CodeType) -> CardinalityFamily:
    return CardinalityFamily(
        c_dual=2 ** (t.alpha + t.gamma - 2 * t.kappa) * 4 ** (t.beta - t.gamma - t.delta + t.kappa),
        c_x=2 ** (t.kappa + t.delta1),
        c_y=2 ** (t.gamma - t.kappa1) * 4**t.delta,
    )


# -- spanning sets and enumeration ---------------------------------------


def _poly_vec(p, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=np.int16)
    for i, v in enumerate(p.coeffs):
        out[i % n] = (out[i % n] + v) % p.MOD
    return out


def _pair_row(p: BinPoly, q: QuatPoly, alpha: int, beta: int) -> np.ndarray:
    return np.concatenate([_poly_vec(p, alpha), _poly_vec(q, beta)])


def _shift_cols(alpha: int, beta: int, k) -> np.ndarray:
    """Columns of the simultaneous shift by k: j reads (j + k) mod alpha in X, alpha +
    (j + k) mod beta in Y.  A column of shifts gives one row of columns per shift."""
    return np.concatenate(
        [(np.arange(alpha) + k) % alpha, alpha + (np.arange(beta) + k) % beta], axis=-1
    )


def _span_rows(spec: CyclicCodeSpec) -> tuple[np.ndarray, list[int]]:
    """Spanning rows S1|S2|S3 as one matrix plus each row's coefficient width in bits.

    Row i of each block is the block's base row shifted i steps in both
    blocks, all taken by one gather of the shifts by -i.
    """
    a, beta = spec.alpha, spec.beta
    counts = (a - _deg(spec.b), _deg(spec.g), _deg(spec.h))
    bases = np.stack([
        _pair_row(spec.b, QuatPoly.zero(), a, beta),
        _pair_row(spec.ell, spec.f * spec.h + 2 * spec.f, a, beta),
        _pair_row(spec.ell * spec.g.reduce_mod2(), 2 * spec.f * spec.g, a, beta),
    ])
    which = np.repeat(np.arange(3), counts)
    back = (np.cumsum(counts) - counts)[which] - np.arange(len(which))
    widths = [w for count, w in zip(counts, (1, 2, 1)) for _ in range(count)]
    return bases[which[:, None], _shift_cols(a, beta, back[:, None])], widths


def spanning_set(spec: CyclicCodeSpec) -> list[Codeword]:
    """Shifted generators whose Z4-combinations cover the code exactly once."""
    mat, _ = _span_rows(spec)
    return [_row_word(row, spec.alpha) for row in mat]


def _row_word(row: np.ndarray, alpha: int) -> Codeword:
    return Codeword(tuple(int(v) for v in row[:alpha]), tuple(int(v) for v in row[alpha:]))


def _reduce_blocks(words: np.ndarray, alpha: int) -> np.ndarray:
    words[:, :alpha] %= 2
    words[:, alpha:] %= 4
    return words


def _row_keys(words: np.ndarray, alpha: int) -> np.ndarray:
    """Each row packed MSB-first into uint64 limbs: shape (k, rows), limb 0 most significant.

    Columns before alpha take 1 bit and the rest 2 bits, so entries must
    already be reduced into 0..1 and 0..3; k = max(1, ceil(bits / 64)).
    The bits are right-aligned in the limbs, so the 2-bit columns, which
    come last, never straddle two limbs.
    """
    n_rows, n = words.shape
    widths = np.where(np.arange(n) < alpha, 1, 2)
    k = max(1, -(-int(widths.sum()) // 64))
    lsb = np.cumsum(widths[::-1])[::-1] - widths
    keys = np.zeros((k, n_rows), dtype=np.uint64)
    for j in range(n):
        limb, shift = divmod(int(lsb[j]), 64)
        keys[k - 1 - limb] |= words[:, j].astype(np.uint64) << np.uint64(shift)
    return keys


def _unique_rows(words: np.ndarray, alpha: int) -> np.ndarray:
    """Indices of the first occurrence of each distinct row, in lexicographic row order.

    words[_unique_rows(words, alpha)] is np.unique(words, axis=0), found by
    one sort of the packed keys of _row_keys: plain integers when they fit
    one limb, rows of limbs otherwise.
    """
    keys = _row_keys(words, alpha)
    _, idx = np.unique(keys[0] if len(keys) == 1 else keys.T, axis=0, return_index=True)
    return idx


def codeword_matrix(spec: CyclicCodeSpec, cap: int = ENUM_CAP) -> np.ndarray:
    """All codewords as a canonical (sorted, unique) int16 matrix.

    Coefficients range over Z2 for order-two rows (S1, S3) and Z4 for S2
    rows.  The words are enumerated by doubling: after the rows before
    row j, the first `size` words are all their combinations, and
    coefficient c of row j fills words c*size .. (c+1)*size - 1.  The
    row count of the result is asserted against the cardinality formula
    rather than assumed.
    """
    total = cardinality(spec)
    if total > cap:
        raise TooLarge(f"code has {total} codewords, above the cap of {cap}")
    rows, widths = _span_rows(spec)
    words = np.zeros((total, spec.alpha + spec.beta), dtype=np.int16)
    size = 1
    for row, width in zip(rows, widths):
        for c in range(1, 1 << width):
            np.add(words[:size], c * row, out=words[c * size : (c + 1) * size])
        size <<= width
    words = _reduce_blocks(words, spec.alpha)
    words = words[_unique_rows(words, spec.alpha)]
    if len(words) != total:
        raise ArithmeticError(
            f"internal error: enumeration found {len(words)} codewords, formula says {total}"
        )
    return words


def code_type_from_words(alpha: int, beta: int, words: np.ndarray) -> CodeType:
    """Type parameters measured on a canonical codeword matrix (no degree formulas)."""
    ub, qb = words[:, :alpha], words[:, alpha:]
    n = len(words)
    order2 = np.all(qb % 2 == 0, axis=1)
    n2 = int(order2.sum())
    delta = _exact_log2(n) - _exact_log2(n2)
    gamma = _exact_log2(n2) - delta
    kappa = _exact_log2(len(_unique_rows(ub[order2], alpha)))
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


def _gray_rows(words: np.ndarray, alpha: int) -> np.ndarray:
    """Gray images of a word matrix's rows, filled into one array: the binary block,
    then (q >> 1, (q + 1) >> 1 & 1) per Z4 symbol q, so 0, 1, 2, 3 map to 00, 01,
    11, 10 and a row's sum is its binary plus Lee weight."""
    q = words[:, alpha:]
    out = np.empty((len(words), alpha + 2 * q.shape[1]), dtype=words.dtype)
    out[:, :alpha] = words[:, :alpha]
    out[:, alpha::2] = q >> 1
    out[:, alpha + 1 :: 2] = (q + 1) >> 1 & 1
    return out


def gray_map(w: Codeword) -> tuple[int, ...]:
    """Binary image of length alpha + 2*beta: identity on u, phi(q) per symbol."""
    return tuple(_gray_rows(np.array([w.u + w.uq], dtype=np.int16), len(w.u))[0].tolist())


def _check_ambient(w1: Codeword, w2: Codeword) -> None:
    if len(w1.u) != len(w2.u) or len(w1.uq) != len(w2.uq):
        raise AmbientMismatch(
            f"ambients differ: ({len(w1.u)}|{len(w1.uq)}) vs ({len(w2.u)}|{len(w2.uq)})"
        )


def inner_product(w1: Codeword, w2: Codeword) -> int:
    """2 * <u1, u2> + <q1, q2> in Z4."""
    _check_ambient(w1, w2)
    s = 2 * sum(a * b for a, b in zip(w1.u, w2.u))
    s += sum(a * b for a, b in zip(w1.uq, w2.uq))
    return s % 4


def circ_product(w1: Codeword, w2: Codeword) -> QuatPoly:
    """Polynomial pairing whose coefficients are the shifted inner products.

    With m = lcm(alpha, beta), the result collects inner_product(w1,
    shift(w2, i)) as the coefficient of x^(m-1-i); it vanishes exactly
    when w1 is orthogonal to every shift of w2.  An addend whose block
    of w2 is zero is taken to be zero.  m above DEGREE_CAP raises TooLarge.
    """
    _check_ambient(w1, w2)
    a, beta = len(w1.u), len(w1.uq)
    m = math.lcm(a, beta)
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
    """Generators (b | 0), (ell*g | 2fg), (0 | 2fh) of the order-two subcode, reduced."""
    a, beta = spec.alpha, spec.beta
    g2 = spec.g.reduce_mod2()
    return [
        (spec.b.fold(a), QuatPoly.zero()),
        ((spec.ell * g2).fold(a), (2 * spec.f * spec.g).fold(beta)),
        (BinPoly.zero(), (2 * spec.f * spec.h).fold(beta)),
    ]


def project_xy(spec: CyclicCodeSpec) -> tuple[BinPoly, QuatPoly]:
    """Generators of the block projections: C_X = <gcd(b, ell)>, C_Y = <fh + 2f>."""
    return gf2.gcd(spec.b, spec.ell), (spec.f * spec.h + 2 * spec.f).fold(spec.beta)
