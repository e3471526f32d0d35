"""Polynomial arithmetic over Z2[x].

BinPoly stores a polynomial as one int whose bit i is the coefficient
of x^i: addition is XOR, multiplication shift-and-XOR, division
leading-bit reduction, folding mask-and-XOR and the reciprocal a bit
reversal.  This module adds the number-theoretic helpers the code
constructions need: monic gcd, exact division, modular inverse, the
all-ones polynomial theta, factorization of x^n - 1 for odd n (split by
its cyclotomic cosets), and divisor enumeration for arbitrary n.  gcd,
exact_div and modinv refuse an argument outside Z2[x] through the ring's
own BinPoly._check_ring and then run on the packed ints through the
kernels _mod_bits, _divmod_bits and _clmul, wrapping only the result.
"""

from __future__ import annotations

from itertools import product

from .errors import (
    DivisorZero,
    EvenLengthUnsupported,
    GcdUndefined,
    InvalidParameter,
    NotInvertible,
    TooLarge,
)
from .poly import NEG_INF, SEARCH_CAP, DensePoly


def _clmul(a: int, b: int) -> int:
    """Carry-less product of two bit-packed polynomials."""
    if a > b:
        a, b = b, a
    out = 0
    while a:
        low = a & -a  # lowest set bit, so b * low is b shifted up
        out ^= b * low
        a ^= low
    return out


def _divmod_bits(a: int, d: int) -> tuple[int, int]:
    """Quotient and remainder of bit-packed a by nonzero d."""
    width = d.bit_length()
    q = 0
    shift = a.bit_length() - width
    while shift >= 0:
        q |= 1 << shift
        a ^= d << shift
        shift = a.bit_length() - width
    return q, a


def _mod_bits(a: int, d: int) -> int:
    """Remainder of bit-packed a by nonzero d."""
    width = d.bit_length()
    shift = a.bit_length() - width
    while shift >= 0:
        a ^= d << shift
        shift = a.bit_length() - width
    return a


class BinPoly(DensePoly):
    """Z2[x]; the stored int has bit i set when x^i has coefficient 1."""

    MOD = 2
    _SLOT = 1
    __slots__ = ()

    @classmethod
    def _pack(cls, vals) -> int:
        bits = 0
        for i, v in enumerate(vals):
            if v & 1:
                bits |= 1 << i
        return bits

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Ascending coefficients, no trailing zeros."""
        return tuple(map(int, bin(self._rep)[:1:-1])) if self._rep else ()

    @property
    def degree(self):
        """Degree of the polynomial; NEG_INF for zero."""
        return self._rep.bit_length() - 1 if self._rep else NEG_INF

    def _add(self, other: int):
        return self._wrap(self._rep ^ other)

    _sub = _add

    def _neg(self):
        return self

    def _scale(self, k: int):
        return self if k & 1 else self._wrap(0)

    def _mul(self, other: int):
        return self._wrap(_clmul(self._rep, other))

    def _divmod(self, d: int):
        q, r = _divmod_bits(self._rep, d)
        return self._wrap(q), self._wrap(r)

    def _mod(self, d: int):
        return self._wrap(_mod_bits(self._rep, d))

    def _reciprocal(self):
        return self._wrap(int(bin(self._rep)[:1:-1], 2))

    def _fold(self, n: int):
        bits, mask, out = self._rep, (1 << n) - 1, 0
        while bits:
            out ^= bits & mask
            bits >>= n
        return self._wrap(out)


def xn1(n: int) -> BinPoly:
    """x^n - 1 over Z2, i.e. x^n + 1."""
    if n < 1:
        raise InvalidParameter("n must be a positive integer")
    return BinPoly._wrap(1 << n | 1)


def poly_key(p: DensePoly) -> tuple:
    """Sort key: degree first, then coefficients ascending."""
    return (len(p.coeffs), p.coeffs)


def gcd(a: BinPoly, b: BinPoly) -> BinPoly:
    """Monic greatest common divisor; gcd(a, 0) = a."""
    if a.__class__ is not BinPoly or b.__class__ is not BinPoly:
        BinPoly._check_ring(a)
        BinPoly._check_ring(b)
    x, y = a._rep, b._rep
    if not x and not y:
        raise GcdUndefined("gcd(0, 0) is undefined")
    while y:
        x, y = y, _mod_bits(x, y)
    return BinPoly._wrap(x)


def exact_div(a: BinPoly, b: BinPoly) -> BinPoly:
    """Quotient a/b when the division is exact; a nonzero remainder is a bug here."""
    if a.__class__ is not BinPoly or b.__class__ is not BinPoly:
        BinPoly._check_ring(a)
        BinPoly._check_ring(b)
    if not b._rep:
        raise DivisorZero("polynomial division by zero")
    q, r = _divmod_bits(a._rep, b._rep)
    if r:
        raise ArithmeticError(f"internal error: ({a}) is not divisible by ({b}) over Z2")
    return BinPoly._wrap(q)


def modinv(p: BinPoly, m: BinPoly) -> BinPoly:
    """Inverse of p modulo m (deg m >= 1), via the extended Euclidean algorithm
    on the packed ints: s1 * p = r1 (mod m) holds at every step."""
    if p.__class__ is not BinPoly or m.__class__ is not BinPoly:
        BinPoly._check_ring(p)
        BinPoly._check_ring(m)
    mod = m._rep
    if mod < 2:
        raise InvalidParameter("modulus must have degree at least 1")
    r0, r1 = mod, _mod_bits(p._rep, mod)
    s0, s1 = 0, 1
    while r1:
        q, r = _divmod_bits(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ _clmul(q, s1)
    if r0 != 1:
        raise NotInvertible(f"({p}) is not invertible modulo ({m})")
    return BinPoly._wrap(_mod_bits(s0, mod))


def theta(m: int, n: int) -> BinPoly:
    """theta_m(x^n) = 1 + x^n + x^{2n} + ... + x^{(m-1)n}."""
    if m < 1 or n < 1:
        raise InvalidParameter("theta requires m >= 1 and n >= 1")
    return BinPoly._wrap(sum(1 << (i * n) for i in range(m)))


def factor_xn1(n: int) -> list[BinPoly]:
    """Distinct monic irreducible factors of x^n - 1 over Z2, odd n only.

    Mod x^n - 1, v(x)^2 = v(x^2), so v is idempotent exactly when its support
    is a union of cyclotomic cosets {j, 2j, 4j, ...} mod n.  The coset
    indicators are thus a basis of Berlekamp's subalgebra: one factor per coset.
    """
    if n < 1:
        raise InvalidParameter("n must be a positive integer")
    if n % 2 == 0:
        raise EvenLengthUnsupported(f"x^{n}-1 is not squarefree over Z2 for even n")
    seen = [0] * n
    indicators = []
    for j in range(n):
        if seen[j]:
            continue
        ind = 0
        k = j
        while not seen[k]:
            seen[k] = 1
            ind |= 1 << k
            k = 2 * k % n
        indicators.append(BinPoly._wrap(ind))
    factors = [xn1(n)]
    for v in indicators:
        if len(factors) == len(indicators):
            break
        split = []
        for g in factors:
            h = gcd(g, v % g)
            if 1 <= h.degree < g.degree:
                split += [h, exact_div(g, h)]
            else:
                split.append(g)
        factors = split
    if len(factors) != len(indicators):
        raise ArithmeticError("internal error: cyclotomic-coset split is incomplete")
    return sorted(factors, key=poly_key)


def divisors_xn1(n: int) -> list[BinPoly]:
    """All monic divisors of x^n - 1 over Z2, any n >= 1, sorted by degree then coefficients.

    x^n - 1 = (x^m - 1)^(2^s) for n = 2^s * m with m odd, so each odd-part
    factor may appear with multiplicity up to 2^s: (2^s + 1)^k divisors for
    k odd-part factors.  More than SEARCH_CAP of them raise TooLarge before
    the first is built.
    """
    if n < 1:
        raise InvalidParameter("n must be a positive integer")
    s, m = 0, n
    while m % 2 == 0:
        s += 1
        m //= 2
    base = factor_xn1(m)
    mult = 2**s
    count = (mult + 1) ** len(base)
    if count > SEARCH_CAP:
        raise TooLarge(f"x^{n}-1 has {count} divisors, above the cap of {SEARCH_CAP}")
    divisors = []
    for exps in product(range(mult + 1), repeat=len(base)):
        d = BinPoly.one()
        for p, e in zip(base, exps):
            d = d * p**e
        divisors.append(d)
    return sorted(divisors, key=poly_key)
