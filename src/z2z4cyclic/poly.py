"""Dense polynomials with coefficients in Z2 or Z4.

Coefficients are stored ascending, index = exponent, with no trailing
zeros; the zero polynomial is the empty tuple and reports the sentinel
degree NEG_INF.  Instances are immutable and hashable.  Subclasses fix
the modulus: BinPoly works over Z2, QuatPoly over Z4.

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
    MOD = 0  # set by subclasses
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        vals = list(coeffs)
        for v in vals:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < self.MOD:
                raise ValueError(f"coefficient {v!r} is not a Z{self.MOD} residue")
        while vals and vals[-1] == 0:
            vals.pop()
        object.__setattr__(self, "coeffs", tuple(vals))

    @classmethod
    def _make(cls, vals: Iterable[int]):
        """Trusted constructor: reduces mod m and trims trailing zeros."""
        c = [v % cls.MOD for v in vals]
        while c and c[-1] == 0:
            c.pop()
        obj = object.__new__(cls)
        object.__setattr__(obj, "coeffs", tuple(c))
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
        return cls._make([0] * exponent + [coefficient])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def degree(self):
        """Degree of the polynomial; NEG_INF for zero."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensePoly):
            return NotImplemented
        return self.MOD == other.MOD and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.MOD, self.coeffs))

    def __add__(self, other):
        self._check_ring(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return self._make(out)

    def __sub__(self, other):
        self._check_ring(other)
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, v in enumerate(other.coeffs):
            out[i] -= v
        return self._make(out)

    def __neg__(self):
        return self._make([-v for v in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return self._make([other * v for v in self.coeffs])
        self._check_ring(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return self.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, va in enumerate(a):
            if va:
                for j, vb in enumerate(b):
                    out[i + j] += va * vb
        return self._make(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.one()
        for _ in range(n):
            result = result * self
        return result

    def __divmod__(self, divisor):
        self._check_ring(divisor)
        if divisor.is_zero:
            raise DivisorZero("polynomial division by zero")
        lead = divisor.coeffs[-1]
        if self.MOD == 4 and lead == 2:
            raise ValueError("division by a polynomial with non-unit leading coefficient")
        inv = lead  # 1 and 3 are self-inverse mod 4; 1 mod 2
        rem = list(self.coeffs)
        dn = len(divisor.coeffs)
        qlen = max(len(rem) - dn + 1, 0)
        quo = [0] * qlen
        for i in range(qlen - 1, -1, -1):
            c = rem[i + dn - 1] % self.MOD
            if c:
                t = (c * inv) % self.MOD
                quo[i] = t
                for j, dv in enumerate(divisor.coeffs):
                    rem[i + j] -= t * dv
        return self._make(quo), self._make(rem)

    def __floordiv__(self, divisor):
        return divmod(self, divisor)[0]

    def __mod__(self, divisor):
        return divmod(self, divisor)[1]

    def _check_ring(self, other):
        if not isinstance(other, DensePoly) or other.MOD != self.MOD:
            raise TypeError(f"expected a polynomial over Z{self.MOD}, got {other!r}")

    def reciprocal(self):
        """Coefficient reversal x^deg * p(1/x); raises on the zero polynomial."""
        if self.is_zero:
            raise ReciprocalOfZero("the zero polynomial has no reciprocal")
        return self._make(reversed(self.coeffs))

    def fold(self, n: int):
        """Reduce mod x^n - 1 by folding exponents mod n."""
        if n < 1:
            raise ValueError("fold length must be positive")
        out = [0] * n
        for i, v in enumerate(self.coeffs):
            out[i % n] += v
        return self._make(out)

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
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
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
