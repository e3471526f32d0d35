"""Polynomial arithmetic over Z4[x].

QuatPoly stores its coefficients as an ascending tuple and supplies the
dense schoolbook kernels behind the shared ring entry points.  This
module adds reduction to Z2, multiplication mod x^beta - 1, exact
division of x^beta - 1, and the Hensel lift taking a binary divisor of
x^beta + 1 to the unique monic quaternary divisor of x^beta - 1 above it
(computed by the Graeffe square-root trick).  Quaternary block lengths
must be odd.
"""

from __future__ import annotations

from . import gf2poly
from .errors import EvenLengthUnsupported, InvalidParameter, NotADivisor, NotMonic
from .gf2poly import BinPoly
from .poly import NEG_INF, DensePoly


class QuatPoly(DensePoly):
    """Z4[x]; the stored tuple is the ascending coefficient list."""

    MOD = 4
    __slots__ = ()

    @classmethod
    def _pack(cls, vals) -> tuple[int, ...]:
        c = [v % 4 for v in vals]
        while c and c[-1] == 0:
            c.pop()
        return tuple(c)

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Ascending coefficients, no trailing zeros."""
        return self._rep

    @property
    def degree(self):
        """Degree of the polynomial; NEG_INF for zero."""
        return len(self._rep) - 1 if self._rep else NEG_INF

    @property
    def is_monic(self) -> bool:
        return bool(self._rep) and self._rep[-1] == 1

    def _add(self, b):
        a = self._rep
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return self._make(out)

    def _sub(self, b):
        out = list(self._rep) + [0] * max(0, len(b) - len(self._rep))
        for i, v in enumerate(b):
            out[i] -= v
        return self._make(out)

    def _neg(self):
        return self._make([-v for v in self._rep])

    def _scale(self, k: int):
        return self._make([k * v for v in self._rep])

    def _mul(self, b):
        a = self._rep
        if not a or not b:
            return self.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, va in enumerate(a):
            if va:
                for j, vb in enumerate(b):
                    out[i + j] += va * vb
        return self._make(out)

    def _divmod(self, d):
        lead = d[-1]
        if lead == 2:
            raise ValueError("division by a polynomial with non-unit leading coefficient")
        # 1 and 3 are their own inverses mod 4.
        rem = list(self._rep)
        dn = len(d)
        qlen = max(len(rem) - dn + 1, 0)
        quo = [0] * qlen
        for i in range(qlen - 1, -1, -1):
            c = rem[i + dn - 1] % 4
            if c:
                t = (c * lead) % 4
                quo[i] = t
                for j, dv in enumerate(d):
                    rem[i + j] -= t * dv
        return self._make(quo), self._make(rem)

    def _mod(self, d):
        return self._divmod(d)[1]

    def _reciprocal(self):
        return self._make(reversed(self._rep))

    def _fold(self, n: int):
        out = [0] * n
        for i, v in enumerate(self._rep):
            out[i % n] += v
        return self._make(out)

    def reduce_mod2(self) -> BinPoly:
        """Image in Z2[x]."""
        return BinPoly._make(self._rep)


def check_beta(beta: int) -> None:
    if not isinstance(beta, int) or beta < 1:
        raise InvalidParameter("beta must be a positive integer")
    if beta % 2 == 0:
        raise EvenLengthUnsupported(f"beta = {beta} is even; quaternary lengths must be odd")


def xn1(n: int) -> QuatPoly:
    """x^n - 1 over Z4."""
    if n < 1:
        raise InvalidParameter("n must be a positive integer")
    return QuatPoly._make([3] + [0] * (n - 1) + [1])


def lift_binary(p: BinPoly) -> QuatPoly:
    """Reinterpret a binary polynomial over Z4 with 0/1 coefficients."""
    return QuatPoly._make(p.coeffs)


def make_monic(p: QuatPoly) -> QuatPoly:
    """Scale by the leading unit so the result is monic."""
    if p.is_zero or p.coeffs[-1] == 2:
        raise NotMonic(f"({p}) cannot be normalised to a monic polynomial")
    return p if p.coeffs[-1] == 1 else 3 * p


def mul_mod(a: QuatPoly, b: QuatPoly, beta: int) -> QuatPoly:
    """Product in Z4[x]/(x^beta - 1)."""
    check_beta(beta)
    return (a * b).fold(beta)


def exact_divide_xn1(d: QuatPoly, beta: int) -> QuatPoly:
    """(x^beta - 1) / d for a monic divisor d; NotADivisor otherwise."""
    check_beta(beta)
    if not d.is_monic:
        raise NotMonic(f"({d}) is not monic")
    q, r = divmod(xn1(beta), d)
    if r:
        raise NotADivisor(f"({d}) does not divide x^{beta}-1 over Z4")
    return q


def hensel_lift(d: BinPoly, beta: int) -> QuatPoly:
    """The monic divisor of x^beta - 1 over Z4 whose mod-2 reduction is d.

    Uses the Graeffe trick: for D a 0/1 lift of d, D(x)*D(-x) has only
    even powers and equals +-P(x^2); the sign making P monic gives the lift.
    """
    check_beta(beta)
    if d.is_zero or gf2poly.xn1(beta) % d:
        raise NotADivisor(f"({d}) does not divide x^{beta}-1 over Z2")
    big = lift_binary(d)
    neg = QuatPoly._make(-v if i % 2 else v for i, v in enumerate(big.coeffs))
    prod = big * neg
    if any(prod.coeffs[i] for i in range(1, len(prod.coeffs), 2)):
        raise ArithmeticError("internal error: Graeffe product has odd-degree terms")
    lifted = QuatPoly._make(prod.coeffs[::2])
    return make_monic(lifted)
