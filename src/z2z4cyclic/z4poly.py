"""Polynomial arithmetic over Z4[x].

QuatPoly stores one int whose byte i is the coefficient of x^i, and its
kernels behind the shared ring entry points work on that int whole:
sums, differences, negation and scaling are one int operation and a
0x0303...03 mask; a product is one int multiply (Kronecker substitution),
with the operands spread to wider slots when one-byte coefficient sums
could carry; division is long division, one shifted multiply-add of the
divisor per step; the coefficient tuple, the reciprocal and the images
to and from Z2 go through to_bytes, from_bytes and bytes.translate.  This
module adds reduction to Z2, multiplication mod x^beta - 1 and the
Hensel lift taking a binary divisor of x^beta + 1 to the unique monic
quaternary divisor of x^beta - 1 above it (computed by the Graeffe
square-root trick on the packed int: the odd bytes tripled for D(-x),
one product kernel call, one mask test for odd powers and the even
bytes as the lift).  Quaternary block lengths must be odd.
"""

from __future__ import annotations

from . import gf2poly
from .errors import EvenLengthUnsupported, InvalidParameter, NotADivisor, NotMonic
from .gf2poly import BinPoly
from .poly import DEGREE_CAP, NEG_INF, DensePoly


# The coefficient of x^i is byte i of the stored int.  Sums of at most 85
# reduced coefficients fit a byte, so x & _THREES (x & 0x0303...03) reduces
# every coefficient of such a sum mod 4 at once.  _THREES covers the products
# the package forms from polynomials of degree up to DEGREE_CAP; _reduce
# builds a wider mask for a longer value.
_MASK_BYTES = 4 * DEGREE_CAP
_THREES = int.from_bytes(b"\x03" * _MASK_BYTES, "little")
# Every odd-numbered byte: the coefficients of the odd powers of x.
_ODD_BYTES = int.from_bytes(b"\x00\xff" * (_MASK_BYTES // 2), "little")
# bytes.translate tables: a byte mod 4, a byte's low bit as an ASCII digit,
# and an ASCII binary digit as a byte.
_MOD4 = bytes(v & 3 for v in range(256))
_LOW_BIT_DIGIT = bytes(0x30 | v & 1 for v in range(256))
_DIGIT_BYTE = bytes(v & 1 for v in range(256))


def _reduce(x: int) -> int:
    """Every byte of a nonnegative x mod 4."""
    if x.bit_length() <= 8 * _MASK_BYTES:
        return x & _THREES
    return x & int.from_bytes(b"\x03" * _nbytes(x), "little")


def _odd_bytes(x: int) -> int:
    """The bytes of a nonnegative x at odd positions, the others zeroed."""
    if x.bit_length() <= 8 * _MASK_BYTES:
        return x & _ODD_BYTES
    return x & int.from_bytes(b"\x00\xff" * (_nbytes(x) // 2 + 1), "little")


def _nbytes(x: int) -> int:
    """Bytes in a nonnegative x: a polynomial's coefficient count."""
    return (x.bit_length() + 7) >> 3


def _spread(x: int, n: int, s: int) -> int:
    """x's n bytes moved to bytes 0, s, 2s, ... with zeros between."""
    wide = bytearray(n * s)
    wide[::s] = x.to_bytes(n, "little")
    return int.from_bytes(wide, "little")


class QuatPoly(DensePoly):
    """Z4[x]; the stored int holds the coefficient of x^i in byte i."""

    MOD = 4
    _SLOT = 8
    __slots__ = ()

    @classmethod
    def _pack(cls, vals) -> int:
        return int.from_bytes(bytes([v & 3 for v in vals]), "little")

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Ascending coefficients, no trailing zeros."""
        return tuple(self._rep.to_bytes(_nbytes(self._rep), "little"))

    @property
    def degree(self):
        """Degree of the polynomial; NEG_INF for zero."""
        return (self._rep.bit_length() - 1) >> 3 if self._rep else NEG_INF

    @property
    def is_monic(self) -> bool:
        return bool(self._rep) and self._rep >> 8 * self.degree == 1

    def _add(self, b):
        return self._wrap(_reduce(self._rep + b))

    def _sub(self, b):
        return self._wrap(_reduce(self._rep + 3 * b))

    def _neg(self):
        return self._wrap(_reduce(3 * self._rep))

    def _scale(self, k: int):
        return self._wrap(_reduce(k % 4 * self._rep))

    def _mul(self, b):
        """One integer product (Kronecker substitution).  A product coefficient
        sums at most min(len) terms of at most 9, so with one byte per slot the
        product is exact while 9 * min(len) < 256; longer operands are spread
        to s-byte slots, s chosen from that bound, and narrowed back."""
        a = self._rep
        if not a or not b:
            return self._wrap(0)
        la, lb = _nbytes(a), _nbytes(b)
        bound = 9 * min(la, lb)
        if bound < 256:
            return self._wrap(_reduce(a * b))
        s = _nbytes(bound)
        prod = _spread(a, la, s) * _spread(b, lb, s)
        # A slot's low byte is its coefficient mod 256, so mod 4 too.
        narrow = prod.to_bytes((la + lb - 1) * s, "little")[::s]
        return self._wrap(int.from_bytes(narrow.translate(_MOD4), "little"))

    def _divmod(self, d):
        top = (d.bit_length() - 1) >> 3
        lead = d >> 8 * top
        if lead == 2:
            raise ValueError("division by a polynomial with non-unit leading coefficient")
        # 1 and 3 are their own inverses mod 4, so t = c * lead cancels a
        # leading coefficient c; -t * d is added as (4 - t) * d.
        rem, quo = self._rep, 0
        shift = ((rem.bit_length() - 1) >> 3) - top
        while shift >= 0:
            t = (rem >> 8 * (shift + top)) * lead & 3
            quo |= t << 8 * shift
            rem = _reduce(rem + ((4 - t) * d << 8 * shift))
            shift = ((rem.bit_length() - 1) >> 3) - top
        return self._wrap(quo), self._wrap(rem)

    def _mod(self, d):
        return self._divmod(d)[1]

    def _reciprocal(self):
        return self._wrap(int.from_bytes(self._rep.to_bytes(_nbytes(self._rep), "little"), "big"))

    def _fold(self, n: int):
        rep, low, out = self._rep, (1 << 8 * n) - 1, 0
        while rep:
            out = _reduce(out + (rep & low))
            rep >>= 8 * n
        return self._wrap(out)

    def reduce_mod2(self) -> BinPoly:
        """Image in Z2[x]."""
        rep = self._rep
        return BinPoly._wrap(int(rep.to_bytes(_nbytes(rep), "big").translate(_LOW_BIT_DIGIT) or b"0", 2))


def check_beta(beta: int) -> None:
    if not isinstance(beta, int) or isinstance(beta, bool) or beta < 1:
        raise InvalidParameter("beta must be a positive integer")
    if beta % 2 == 0:
        raise EvenLengthUnsupported(f"beta = {beta} is even; quaternary lengths must be odd")


def xn1(n: int) -> QuatPoly:
    """x^n - 1 over Z4."""
    if n < 1:
        raise InvalidParameter("n must be a positive integer")
    return QuatPoly._wrap(1 << 8 * n | 3)


def lift_binary(p: BinPoly) -> QuatPoly:
    """Reinterpret a binary polynomial over Z4 with 0/1 coefficients."""
    return QuatPoly._wrap(int.from_bytes(f"{p._rep:b}".encode().translate(_DIGIT_BYTE), "big"))


def make_monic(p: QuatPoly) -> QuatPoly:
    """Scale by the leading unit so the result is monic."""
    if not p or (lead := p.coeffs[-1]) == 2:
        raise NotMonic(f"({p}) cannot be normalised to a monic polynomial")
    return p if lead == 1 else 3 * p


def mul_mod(a: QuatPoly, b: QuatPoly, beta: int) -> QuatPoly:
    """Product in Z4[x]/(x^beta - 1)."""
    check_beta(beta)
    return (a * b).fold(beta)


def hensel_lift(d: BinPoly, beta: int) -> QuatPoly:
    """The monic divisor of x^beta - 1 over Z4 whose mod-2 reduction is d.

    Uses the Graeffe trick: for D a 0/1 lift of d, D(x)*D(-x) has only
    even powers and equals +-P(x^2); the sign making P monic gives the lift.
    All of it runs on the byte-packed int: D(-x) triples D's odd bytes (a
    0/1 coefficient v becomes 3v = -v mod 4), the odd-power test is one
    mask test, and P's coefficients are the product's even bytes.
    """
    check_beta(beta)
    if d.is_zero or gf2poly.xn1(beta) % d:
        raise NotADivisor(f"({d}) does not divide x^{beta}-1 over Z2")
    big = lift_binary(d)
    prod = big._mul(big._rep + 2 * _odd_bytes(big._rep))._rep
    if _odd_bytes(prod):
        raise ArithmeticError("internal error: Graeffe product has odd-degree terms")
    even = prod.to_bytes(_nbytes(prod), "little")[::2]
    return make_monic(QuatPoly._wrap(int.from_bytes(even, "little")))
