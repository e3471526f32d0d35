"""Polynomial arithmetic over Z4[x].

QuatPoly stores one int whose byte i is the coefficient of x^i.  Its
arithmetic kernels are the int functions here, bound to the class as
static methods, each taking and returning packed ints: sums and
differences are one int operation and a 0x0303...03 mask; a product
(_mul_bytes) is one int multiply (Kronecker substitution), with the
operands spread to wider slots when one-byte coefficient sums could
carry; division is long division, one shifted multiply-add of the
divisor per step; the reciprocal and the images to and from Z2
(_mod2_bits, _lift_bits) go through to_bytes, from_bytes and
bytes.translate, and code and dual call the image kernels too.  This
module adds reduction to Z2, multiplication mod x^beta - 1 and the
Hensel lift taking a binary divisor of x^beta + 1 to the unique monic
quaternary divisor of x^beta - 1 above it (computed by the Graeffe
square-root trick on the packed int: the odd bytes tripled for D(-x),
one _mul_bytes call, one mask test for odd powers and the even bytes as
the lift).  The lift is a pure function of (d, beta) that a workload asks
for over and over, so hensel_lift keeps the last _LIFT_CACHE_SIZE (256)
lifts in a functools.lru_cache keyed on d's stored int and beta; poly's
docstring bounds its bytes with the two text caches'.  Quaternary block
lengths must be odd.
"""

from __future__ import annotations

import functools

from . import gf2poly
from .errors import EvenLengthUnsupported, NotADivisor, NotMonic
from .gf2poly import BinPoly
from .poly import DEGREE_CAP, NEG_INF, DensePoly, _check_length, _term


# The coefficient of x^i is byte i of the stored int.  Sums of at most 85
# reduced coefficients fit a byte, so x & _THREES (x & 0x0303...03) reduces
# every coefficient of such a sum mod 4 at once.  _THREES covers the products
# the package forms from polynomials of degree up to DEGREE_CAP; _reduce
# builds a wider mask for a longer value, which public QuatPoly arithmetic
# can form.
_MASK_BYTES = 4 * DEGREE_CAP
_THREES = int.from_bytes(b"\x03" * _MASK_BYTES, "little")
# Every odd-numbered byte: the coefficients of the odd powers of x.  It is
# only read in hensel_lift, where check_beta caps beta at DEGREE_CAP, so the
# Graeffe product has at most 2 * DEGREE_CAP + 1 bytes and this mask always
# covers it.
_ODD_BYTES = int.from_bytes(b"\x00\xff" * (_MASK_BYTES // 2), "little")
# Entries in hensel_lift's cache.  A divisor of x^beta - 1 has degree at most
# beta < DEGREE_CAP, so an entry holds a key int of up to 512 bytes and a lift
# of up to 4096: about 5 KB with the cache's own links, under 1.5 MB for the
# whole cache (see poly).
_LIFT_CACHE_SIZE = 256
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


def _nbytes(x: int) -> int:
    """Bytes in a nonnegative x: a polynomial's coefficient count."""
    return (x.bit_length() + 7) >> 3


def _mod2_bits(x: int) -> int:
    """The bit-packed image in Z2[x] of byte-packed x: each byte's low bit."""
    return int(x.to_bytes(_nbytes(x), "big").translate(_LOW_BIT_DIGIT) or b"0", 2)


def _lift_bits(x: int) -> int:
    """Bit-packed x read over Z4: bit i becomes byte i."""
    return int.from_bytes(f"{x:b}".encode().translate(_DIGIT_BYTE), "big")


def _spread(x: int, n: int, s: int) -> int:
    """x's n bytes moved to bytes 0, s, 2s, ... with zeros between."""
    wide = bytearray(n * s)
    wide[::s] = x.to_bytes(n, "little")
    return int.from_bytes(wide, "little")


def _add_bytes(a: int, b: int) -> int:
    return _reduce(a + b)


def _sub_bytes(a: int, b: int) -> int:
    return _reduce(a + 3 * b)


def _mul_bytes(a: int, b: int) -> int:
    """One integer product (Kronecker substitution).  A product coefficient
    sums at most min(len) terms of at most 9, so with one byte per slot the
    product is exact while 9 * min(len) < 256; longer operands are spread
    to s-byte slots, s chosen from that bound, and narrowed back."""
    if not a or not b:
        return 0
    la, lb = _nbytes(a), _nbytes(b)
    bound = 9 * min(la, lb)
    if bound < 256:
        return _reduce(a * b)
    s = _nbytes(bound)
    prod = _spread(a, la, s) * _spread(b, lb, s)
    # A slot's low byte is its coefficient mod 256, so mod 4 too.
    narrow = prod.to_bytes((la + lb - 1) * s, "little")[::s]
    return int.from_bytes(narrow.translate(_MOD4), "little")


def _divmod_bytes(a: int, d: int) -> tuple[int, int]:
    """Long division by nonzero d, whose leading coefficient must be a unit."""
    top = (d.bit_length() - 1) >> 3
    lead = d >> 8 * top
    if lead == 2:
        raise ValueError("division by a polynomial with non-unit leading coefficient")
    # 1 and 3 are their own inverses mod 4, so t = c * lead cancels a
    # leading coefficient c; -t * d is added as (4 - t) * d.
    rem, quo = a, 0
    shift = ((rem.bit_length() - 1) >> 3) - top
    while shift >= 0:
        t = (rem >> 8 * (shift + top)) * lead & 3
        quo |= t << 8 * shift
        rem = _reduce(rem + ((4 - t) * d << 8 * shift))
        shift = ((rem.bit_length() - 1) >> 3) - top
    return quo, rem


def _mod_bytes(a: int, d: int) -> int:
    return _divmod_bytes(a, d)[1]


def _rev_bytes(a: int) -> int:
    """Byte reversal of nonzero a: its reciprocal x^deg * a(1/x)."""
    return int.from_bytes(a.to_bytes(_nbytes(a), "little"), "big")


def _fold_bytes(a: int, n: int) -> int:
    """a reduced mod x^n - 1: its n-byte chunks summed mod 4."""
    low, out = (1 << 8 * n) - 1, 0
    while a:
        out = _reduce(out + (a & low))
        a >>= 8 * n
    return out


class QuatPoly(DensePoly):
    """Z4[x]; the stored int holds the coefficient of x^i in byte i."""

    MOD = 4
    _SLOT = 8
    __slots__ = ()

    @classmethod
    def _pack_terms(cls, terms: dict[int, int]) -> int:
        coeffs = bytearray(max(terms, default=-1) + 1)
        for e, c in terms.items():
            coeffs[e] = c & 3
        return int.from_bytes(coeffs, "little")

    def _terms(self) -> list[str]:
        """One term per nonzero byte, read big-endian, so highest first."""
        coeffs = self._rep.to_bytes(_nbytes(self._rep), "big")
        top = len(coeffs) - 1
        return [_term(c, top - i) for i, c in enumerate(coeffs) if c]

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

    _add = staticmethod(_add_bytes)
    _sub = staticmethod(_sub_bytes)
    _mul = staticmethod(_mul_bytes)
    _divmod = staticmethod(_divmod_bytes)
    _mod = staticmethod(_mod_bytes)
    _reciprocal = staticmethod(_rev_bytes)
    _fold = staticmethod(_fold_bytes)

    def reduce_mod2(self) -> BinPoly:
        """Image in Z2[x]."""
        return BinPoly._wrap(_mod2_bits(self._rep))


def check_beta(beta: int) -> None:
    _check_length(beta, "beta")
    if beta % 2 == 0:
        raise EvenLengthUnsupported(f"beta = {beta} is even; quaternary lengths must be odd")


def xn1(n: int) -> QuatPoly:
    """x^n - 1 over Z4."""
    _check_length(n)
    return QuatPoly._wrap(1 << 8 * n | 3)


def lift_binary(p: BinPoly) -> QuatPoly:
    """Reinterpret a binary polynomial over Z4 with 0/1 coefficients."""
    if p.__class__ is not BinPoly:
        BinPoly._check_ring(p)
    return QuatPoly._wrap(_lift_bits(p._rep))


def make_monic(p: QuatPoly) -> QuatPoly:
    """Scale by the leading unit so the result is monic."""
    if p.__class__ is not QuatPoly:
        QuatPoly._check_ring(p)
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

    beta is checked first, then d's ring (a TypeError for anything but a
    binary polynomial).  The lift itself comes from a cache of the last
    _LIFT_CACHE_SIZE lifts, keyed on (d's stored int, beta); a refusal
    (NotADivisor) is never stored, so it is raised on every call.
    """
    check_beta(beta)
    if d.__class__ is not BinPoly:
        BinPoly._check_ring(d)
    return _lift_cached(d._rep, beta)


@functools.lru_cache(maxsize=_LIFT_CACHE_SIZE)
def _lift_cached(rep: int, beta: int) -> QuatPoly:
    """hensel_lift on checked arguments: d's stored int and beta."""
    d = BinPoly._wrap(rep)
    if not rep or gf2poly.xn1(beta) % d:
        raise NotADivisor(f"({d}) does not divide x^{beta}-1 over Z2")
    big = _lift_bits(rep)
    prod = _mul_bytes(big, big + 2 * (big & _ODD_BYTES))
    if prod & _ODD_BYTES:
        raise ArithmeticError("internal error: Graeffe product has odd-degree terms")
    even = prod.to_bytes(_nbytes(prod), "little")[::2]
    return make_monic(QuatPoly._wrap(int.from_bytes(even, "little")))
