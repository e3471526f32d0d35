"""Polynomial arithmetic over Z2[x].

BinPoly supplies ring operations via the shared dense base; this module
adds the number-theoretic helpers the code constructions need: monic
gcd, modular inverse, the all-ones polynomial theta, factorization of
x^n - 1 for odd n (split by its cyclotomic cosets), and divisor
enumeration for arbitrary n.
"""

from __future__ import annotations

from itertools import product

from .errors import (
    EvenLengthUnsupported,
    GcdUndefined,
    InvalidParameter,
    NotInvertible,
)
from .poly import DensePoly


class BinPoly(DensePoly):
    MOD = 2


def xn1(n: int) -> BinPoly:
    """x^n - 1 over Z2, i.e. x^n + 1."""
    if n < 1:
        raise InvalidParameter("n must be a positive integer")
    return BinPoly._make([1] + [0] * (n - 1) + [1])


def poly_key(p: DensePoly) -> tuple:
    """Sort key: degree first, then coefficients ascending."""
    return (len(p.coeffs), p.coeffs)


def gcd(a: BinPoly, b: BinPoly) -> BinPoly:
    """Monic greatest common divisor; gcd(a, 0) = a."""
    if a.is_zero and b.is_zero:
        raise GcdUndefined("gcd(0, 0) is undefined")
    while b:
        a, b = b, a % b
    return a


def exact_div(a: BinPoly, b: BinPoly) -> BinPoly:
    """Quotient a/b when the division is exact; a nonzero remainder is a bug here."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"internal error: ({a}) is not divisible by ({b}) over Z2")
    return q


def modinv(p: BinPoly, m: BinPoly) -> BinPoly:
    """Inverse of p modulo m (deg m >= 1), via the extended Euclidean algorithm."""
    if m.is_zero or m.degree < 1:
        raise InvalidParameter("modulus must have degree at least 1")
    r0, r1 = m, p % m
    s0, s1 = BinPoly.zero(), BinPoly.one()
    while r1:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 + q * s1
    if r0 != BinPoly.one():
        raise NotInvertible(f"({p}) is not invertible modulo ({m})")
    return s0 % m


def theta(m: int, n: int) -> BinPoly:
    """theta_m(x^n) = 1 + x^n + x^{2n} + ... + x^{(m-1)n}."""
    if m < 1 or n < 1:
        raise InvalidParameter("theta requires m >= 1 and n >= 1")
    out = [0] * ((m - 1) * n + 1)
    for i in range(m):
        out[i * n] = 1
    return BinPoly._make(out)


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
        ind = [0] * n
        k = j
        while not seen[k]:
            seen[k] = ind[k] = 1
            k = 2 * k % n
        indicators.append(BinPoly._make(ind))
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
    factor may appear with multiplicity up to 2^s.
    """
    if n < 1:
        raise InvalidParameter("n must be a positive integer")
    s, m = 0, n
    while m % 2 == 0:
        s += 1
        m //= 2
    base = factor_xn1(m)
    mult = 2**s
    divisors = []
    for exps in product(range(mult + 1), repeat=len(base)):
        d = BinPoly.one()
        for p, e in zip(base, exps):
            d = d * p**e
        divisors.append(d)
    return sorted(divisors, key=poly_key)
