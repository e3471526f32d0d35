"""Polynomial arithmetic over Z2[x].

BinPoly stores a polynomial as one int whose bit i is the coefficient
of x^i.  Its arithmetic kernels are the int functions here, bound to the
class as static methods with no body of its own: addition and
subtraction are XOR, multiplication _clmul (shift-and-XOR), division
_divmod_bits and _mod_bits (leading-bit reduction), folding _fold_bits
(mask-and-XOR) and the reciprocal _rev_bits (a bit reversal).  This
module adds the number-theoretic helpers the code constructions need:
monic gcd, exact division (_exact_bits), modular inverse
(_modinv_bits), the all-ones polynomial theta, factorization of x^n - 1
for odd n (split by its cyclotomic cosets), and divisor enumeration for
arbitrary n.  gcd, exact_div and modinv take their operands' ints
through one check, _reps, which refuses anything outside Z2[x] with the
ring's own BinPoly._check_ring, and wrap only the result.  code and dual
chain the same kernels on packed ints where no BinPoly is needed.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from math import prod
from operator import xor

from .errors import (
    DivisorZero,
    EvenLengthUnsupported,
    GcdUndefined,
    InvalidParameter,
    NotInvertible,
    TooLarge,
)
from .poly import NEG_INF, SEARCH_CAP, DensePoly, _check_exponent, _check_length, _count_text, _term


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


def _exact_bits(a: int, b: int) -> int:
    """Quotient of bit-packed a by nonzero b when the division is exact; a nonzero
    remainder is a bug here."""
    q, r = _divmod_bits(a, b)
    if r:
        raise ArithmeticError(f"internal error: ({BinPoly._wrap(a)}) is not divisible by ({BinPoly._wrap(b)}) over Z2")
    return q


def _modinv_bits(p: int, mod: int) -> int:
    """Inverse of bit-packed p modulo nonzero mod, via the extended Euclidean
    algorithm: s1 * p = r1 (mod m) holds at every step.  Modulo 1 every
    polynomial is 0, and so is the inverse."""
    r0, r1 = mod, _mod_bits(p, mod)
    s0, s1 = 0, 1
    while r1:
        q, r = _divmod_bits(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ _clmul(q, s1)
    if r0 != 1:
        raise NotInvertible(f"({BinPoly._wrap(p)}) is not invertible modulo ({BinPoly._wrap(mod)})")
    return _mod_bits(s0, mod)


def _gcd_bits(a: int, b: int) -> int:
    """Monic gcd of bit-packed a and b, not both zero; gcd(a, 0) = a."""
    while b:
        a, b = b, _mod_bits(a, b)
    return a


def _rev_bits(a: int) -> int:
    """Bit reversal of nonzero bit-packed a: its reciprocal x^deg * a(1/x)."""
    return int(bin(a)[:1:-1], 2)


def _fold_bits(a: int, n: int) -> int:
    """Bit-packed a reduced mod x^n - 1: its n-bit chunks XORed together."""
    mask, out = (1 << n) - 1, 0
    while a:
        out ^= a & mask
        a >>= n
    return out


class BinPoly(DensePoly):
    """Z2[x]; the stored int has bit i set when x^i has coefficient 1."""

    MOD = 2
    _SLOT = 1
    __slots__ = ()

    @classmethod
    def _pack_terms(cls, terms: dict[int, int]) -> int:
        bits = 0
        for e, c in terms.items():
            if c & 1:
                bits |= 1 << e
        return bits

    def _terms(self) -> list[str]:
        """One term per set bit, read from the binary digits, highest first."""
        digits = bin(self._rep)[2:]
        top = len(digits) - 1
        return [_term(1, top - i) for i, d in enumerate(digits) if d == "1"]

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Ascending coefficients, no trailing zeros."""
        return tuple(map(int, bin(self._rep)[:1:-1])) if self._rep else ()

    @property
    def degree(self):
        """Degree of the polynomial; NEG_INF for zero."""
        return self._rep.bit_length() - 1 if self._rep else NEG_INF

    _add = _sub = staticmethod(xor)
    _mul = staticmethod(_clmul)
    _divmod = staticmethod(_divmod_bits)
    _mod = staticmethod(_mod_bits)
    _reciprocal = staticmethod(_rev_bits)
    _fold = staticmethod(_fold_bits)


def xn1(n: int) -> BinPoly:
    """x^n - 1 over Z2, i.e. x^n + 1."""
    _check_length(n)
    return BinPoly._wrap(1 << n | 1)


def poly_key(p: DensePoly) -> tuple:
    """Sort key: degree first, then coefficients ascending."""
    return (len(p.coeffs), p.coeffs)


def _reps(a: BinPoly, b: BinPoly) -> tuple[int, int]:
    """The packed ints of two operands in Z2[x]; anything else raises TypeError
    through BinPoly._check_ring."""
    if a.__class__ is not BinPoly or b.__class__ is not BinPoly:
        BinPoly._check_ring(a)
        BinPoly._check_ring(b)
    return a._rep, b._rep


def gcd(a: BinPoly, b: BinPoly) -> BinPoly:
    """Monic greatest common divisor; gcd(a, 0) = a."""
    x, y = _reps(a, b)
    if not x and not y:
        raise GcdUndefined("gcd(0, 0) is undefined")
    return BinPoly._wrap(_gcd_bits(x, y))


def exact_div(a: BinPoly, b: BinPoly) -> BinPoly:
    """Quotient a/b when the division is exact; a nonzero remainder is a bug here."""
    x, y = _reps(a, b)
    if not y:
        raise DivisorZero("polynomial division by zero")
    return BinPoly._wrap(_exact_bits(x, y))


def modinv(p: BinPoly, m: BinPoly) -> BinPoly:
    """Inverse of p modulo m (deg m >= 1), by _modinv_bits on the packed ints."""
    x, mod = _reps(p, m)
    if mod < 2:
        raise InvalidParameter("modulus must have degree at least 1")
    return BinPoly._wrap(_modinv_bits(x, mod))


def theta(m: int, n: int) -> BinPoly:
    """theta_m(x^n) = 1 + x^n + x^{2n} + ... + x^{(m-1)n}; a top exponent (m-1)n above
    DEGREE_CAP raises TooLarge before anything is built."""
    _check_length(m, "m")
    _check_length(n)
    _check_exponent((m - 1) * n)
    return BinPoly._wrap(sum(1 << (i * n) for i in range(m)))


def _cosets(n: int) -> list[list[int]]:
    """Cosets {j, 2j, 4j, ...} mod odd n as member lists: one per irreducible factor of x^n - 1, of its degree."""
    _check_length(n)
    seen, cosets = [0] * n, []
    for j in range(n):
        members, k = [], j
        while not seen[k]:
            seen[k] = 1
            members.append(k)
            k = 2 * k % n
        if members:
            cosets.append(members)
    return cosets


def _divisor_shape(n: int) -> tuple[int, int]:
    """(2^s, k) for n = 2^s * m, m odd, k cosets mod m; over SEARCH_CAP (2^s + 1)^k divisors raise TooLarge."""
    _check_length(n)
    mult = n & -n
    k = len(_cosets(n // mult))
    if (mult + 1) ** k > SEARCH_CAP:
        raise TooLarge(f"x^{n}-1 has {_count_text((mult + 1) ** k)} divisors, above the cap of {SEARCH_CAP}")
    return mult, k


def factor_xn1(n: int) -> list[BinPoly]:
    """Distinct monic irreducible factors of x^n - 1 over Z2, odd n only.

    Mod x^n - 1, v(x)^2 = v(x^2), so v is idempotent exactly when its support
    is a union of cyclotomic cosets {j, 2j, 4j, ...} mod n.  The coset
    indicators are thus a basis of Berlekamp's subalgebra: one factor per coset,
    and a reducible factor g splits at gcd(g, v mod g) for some indicator v.
    The split runs on packed ints, one table per factor: a factor g is popped,
    x^c mod g is tabled for every c < n (one shift and at most one XOR each),
    each indicator mod g is the XOR of its members' entries, and g splits at
    the first proper gcd, or is irreducible when none is.  It stops once there
    are as many factors as cosets, and wraps only the result.
    """
    _check_length(n)
    if n % 2 == 0:
        raise EvenLengthUnsupported(f"x^{n}-1 is not squarefree over Z2 for even n")
    cosets = _cosets(n)
    pending, done = [1 << n | 1], []
    while pending and len(pending) + len(done) < len(cosets):
        g = pending.pop()
        top, powers = 1 << (g.bit_length() - 1), [1]
        for _ in range(n - 1):
            t = powers[-1] << 1
            powers.append(t ^ g if t & top else t)
        for members in cosets:
            v = reduce(xor, [powers[c] for c in members])
            if 1 < (h := _gcd_bits(g, v)) < g:
                pending += [h, _exact_bits(g, h)]
                break
        else:
            done.append(g)
    if len(done) + len(pending) != len(cosets):
        raise ArithmeticError("internal error: cyclotomic-coset split is incomplete")
    return sorted((BinPoly._wrap(p) for p in done + pending), key=poly_key)


def divisors_xn1(n: int) -> list[BinPoly]:
    """All monic divisors of x^n - 1 over Z2, any n >= 1, sorted by degree then coefficients.

    x^n - 1 = (x^m - 1)^(2^s) for n = 2^s * m with m odd, so each odd-part
    factor may appear with multiplicity up to 2^s: (2^s + 1)^k divisors for
    k odd-part factors, one per coset mod m.  More than SEARCH_CAP of them
    raise TooLarge before anything is factored.
    """
    mult, _ = _divisor_shape(n)
    base = factor_xn1(n // mult)
    divisors = (
        prod((p**e for p, e in zip(base, exps)), start=BinPoly.one())
        for exps in product(range(mult + 1), repeat=len(base))
    )
    return sorted(divisors, key=poly_key)
