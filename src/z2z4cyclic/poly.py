"""Polynomials with coefficients in Z2 or Z4: the shared ring front end.

DensePoly holds the public arithmetic entry points, the text forms and
equality; each subclass fixes the modulus and the storage.  BinPoly
(gf2poly) works over Z2 and stores one int whose bit i is the
coefficient of x^i.  QuatPoly (z4poly) works over Z4 and stores one int
whose byte i is the coefficient of x^i.  Either way `coeffs` reads as the
ascending coefficient tuple with no trailing zeros, the zero polynomial
is the empty tuple with the sentinel degree NEG_INF, and instances are
immutable and hashable.

Each binary entry point hands an operand of its own class straight to
the subclass kernel; any other operand first goes through the generic
ring check, so a wrong ring, a bool, a float or None raises the same
TypeError either way.

Two text forms are accepted by parse(): a human form such as
"x^3+2x+1" (terms in any order, '-' allowed and folded mod m) and an
ascending comma-separated coefficient list such as "1,2,0,1".  Numerals
are ASCII digits, and a degree above DEGREE_CAP raises TooLarge before
anything of that size is built.  str() emits the human form with
descending exponents and coefficients normalised to 0..m-1.
"""

from __future__ import annotations

import re
from typing import Iterable

from .errors import DivisorZero, ParseError, ReciprocalOfZero, TooLarge

NEG_INF = float("-inf")

# Largest exponent that polynomial text may name; alpha and beta share it.
DEGREE_CAP = 2**12

# Most generator tuples a search builds per (alpha, beta).  divisors_xn1
# shares it: each divisor of x^alpha - 1 is the b of at least one tuple.
SEARCH_CAP = 2**16

# Numerals are ASCII digits only: str.isdigit() also accepts superscripts.
_NUMERAL = re.compile(r"[0-9]+")
# One human-form term: sign, coefficient, then x with an optional exponent;
# the whitespace around it goes with it.
_TERM = re.compile(r"\s*([+-]?)\s*([0-9]*)\s*(x\s*(?:\^\s*([0-9]*))?)?\s*")
_CAP_DIGITS = len(str(DEGREE_CAP))


def _value(numeral: str) -> int:
    """The value of an ASCII numeral, saturated just above DEGREE_CAP.

    Saturating keeps a numeral of any length as cheap as a short one
    (int() refuses strings past a few thousand digits).
    """
    digits = numeral.lstrip("0")
    return int(digits or "0") if len(digits) <= _CAP_DIGITS else DEGREE_CAP + 1


class DensePoly:
    """The ring entry points shared by BinPoly and QuatPoly.

    Each arithmetic method here checks its arguments (same ring, nonzero
    divisor, int scalars) and then calls a private kernel of the subclass
    on the stored representation: _pack, _add, _sub, _neg, _scale, _mul,
    _divmod, _mod, _reciprocal, _fold.  An operand of the caller's own
    class is in the ring by construction, so it goes to the kernel at
    once; only other operands get the generic _check_ring, a classmethod
    that gf2poly's helpers call as BinPoly._check_ring too.  Subclasses
    supply kernels and the slot width _SLOT (bits per coefficient), and
    never override an entry point.
    """

    MOD = 0  # set by subclasses
    _SLOT = 0  # bits per stored coefficient, set by subclasses
    __slots__ = ("_rep",)

    def __init__(self, coeffs: Iterable[int] = ()):
        vals = list(coeffs)
        for v in vals:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < self.MOD:
                raise ValueError(f"coefficient {v!r} is not a Z{self.MOD} residue")
        _set_rep(self, self._pack(vals))

    @classmethod
    def _make(cls, vals: Iterable[int]):
        """Trusted constructor: reduces mod m and trims trailing zeros."""
        return cls._wrap(cls._pack(vals))

    @classmethod
    def _wrap(cls, rep):
        """An instance around an already reduced representation."""
        obj = _new(cls)
        _set_rep(obj, rep)
        return obj

    @classmethod
    def zero(cls):
        return cls._make(())

    @classmethod
    def one(cls):
        return cls._make((1,))

    @classmethod
    def x(cls, exponent: int = 1, coefficient: int = 1):
        """The monomial coefficient * x**exponent."""
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls._wrap(cls._pack((coefficient,)) << cls._SLOT * exponent)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def is_zero(self) -> bool:
        return not self._rep

    def __bool__(self) -> bool:
        return bool(self._rep)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensePoly):
            return NotImplemented
        return self.MOD == other.MOD and self._rep == other._rep

    def __hash__(self):
        return hash((self.MOD, self._rep))

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            self._check_ring(other)
        return self._add(other._rep)

    def __sub__(self, other):
        if other.__class__ is not self.__class__:
            self._check_ring(other)
        return self._sub(other._rep)

    def __neg__(self):
        return self._neg()

    def __mul__(self, other):
        if other.__class__ is not self.__class__:
            if isinstance(other, int) and not isinstance(other, bool):
                return self._scale(other)
            self._check_ring(other)
        return self._mul(other._rep)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.one()
        for _ in range(n):
            result = result * self
        return result

    def __divmod__(self, divisor):
        return self._divmod(self._divisor_rep(divisor))

    def __floordiv__(self, divisor):
        return self._divmod(self._divisor_rep(divisor))[0]

    def __mod__(self, divisor):
        return self._mod(self._divisor_rep(divisor))

    @classmethod
    def _check_ring(cls, other):
        if not isinstance(other, DensePoly) or other.MOD != cls.MOD:
            raise TypeError(f"expected a polynomial over Z{cls.MOD}, got {other!r}")

    def _divisor_rep(self, divisor):
        """The representation of a divisor in this ring; zero raises DivisorZero."""
        if divisor.__class__ is not self.__class__:
            self._check_ring(divisor)
        if not divisor._rep:
            raise DivisorZero("polynomial division by zero")
        return divisor._rep

    def reciprocal(self):
        """Coefficient reversal x^deg * p(1/x); raises on the zero polynomial."""
        if not self._rep:
            raise ReciprocalOfZero("the zero polynomial has no reciprocal")
        return self._reciprocal()

    def fold(self, n: int):
        """Reduce mod x^n - 1 by folding exponents mod n."""
        if n < 1:
            raise ValueError("fold length must be positive")
        return self._fold(n)

    # -- text forms ---------------------------------------------------

    @classmethod
    def parse(cls, text: str):
        """Parse the human form ("x^3+2x+1") or the ascending list form ("1,2,0,1")."""
        if not isinstance(text, str):
            raise ParseError("polynomial text must be a string")
        s = text.replace("−", "-")
        if not s.strip():
            raise ParseError("empty polynomial text")
        if "," in s:
            return cls._parse_csv(s)
        return cls._parse_human(s)

    @classmethod
    def _parse_csv(cls, s: str):
        entries = s.split(",")
        if len(entries) > DEGREE_CAP + 1:
            raise TooLarge(f"{len(entries)} coefficients is above the degree cap {DEGREE_CAP}")
        vals = []
        for k, tok in enumerate(entries):
            t = tok.strip()
            if not _NUMERAL.fullmatch(t):
                raise ParseError(f"coefficient list entry {k} is not a number: {tok!r}")
            v = _value(t)
            if v >= cls.MOD:
                raise ParseError(
                    f"coefficient {t.lstrip('0')} at entry {k} is out of range for Z{cls.MOD}"
                )
            vals.append(v)
        return cls(vals)

    @classmethod
    def _parse_human(cls, s: str):
        """Term by term; parse() has already rejected blank text."""
        coeffs: dict[int, int] = {}
        pos, n = 0, len(s)
        while pos < n:
            m = _TERM.match(s, pos)
            sign, num, x, exp = m.groups()
            if coeffs and not sign:
                raise ParseError(f"expected '+' or '-' at position {m.start(1)}")
            if not num and not x:
                raise ParseError(f"expected a term at position {m.start(2)}")
            if exp == "":
                raise ParseError(f"expected an exponent at position {m.start(4)}")
            e = 0 if not x else 1 if exp is None else _value(exp)
            if e > DEGREE_CAP:
                raise TooLarge(f"exponent {exp.lstrip('0')} is above the degree cap {DEGREE_CAP}")
            coef = _value(num) if num else 1
            if coef >= cls.MOD:
                raise ParseError(f"coefficient {num.lstrip('0')} is out of range for Z{cls.MOD}")
            coeffs[e] = coeffs.get(e, 0) + (-coef if sign == "-" else coef)
            pos = m.end()
        out = [0] * (max(coeffs) + 1)
        for e, c in coeffs.items():
            out[e] = c % cls.MOD
        return cls._make(out)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        coeffs = self.coeffs
        parts = []
        for e in range(len(coeffs) - 1, -1, -1):
            c = coeffs[e]
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                base = "x" if e == 1 else f"x^{e}"
                parts.append(base if c == 1 else f"{c}{base}")
        return "+".join(parts)

    def coeff_csv(self) -> str:
        """Ascending comma-separated coefficient list; "0" for the zero polynomial."""
        if self.is_zero:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}('{self}')"


# Construction bypasses the immutability guard in __setattr__.
_new = object.__new__
_set_rep = DensePoly._rep.__set__
