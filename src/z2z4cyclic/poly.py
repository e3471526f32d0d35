"""Polynomials with coefficients in Z2 or Z4: the shared ring front end.

DensePoly holds the public arithmetic entry points, the text forms and
equality; each subclass fixes the modulus and the storage.  BinPoly
(gf2poly) works over Z2 and stores one int whose bit i is the
coefficient of x^i.  QuatPoly (z4poly) works over Z4 and stores one int
whose byte i is the coefficient of x^i.  Either way `coeffs` reads as the
ascending coefficient tuple with no trailing zeros, the zero polynomial
is the empty tuple with the sentinel degree NEG_INF, and instances are
immutable and hashable.

The arithmetic itself is a set of kernels, plain functions from packed
ints to packed ints that each subclass binds as static methods; the
entry points here check their arguments, call a kernel on the stored
ints and wrap its result, and are the only place a kernel's result
becomes an instance.  Each binary entry point hands an operand of its
own class straight to the kernel; any other operand first goes through
the generic ring check, so a wrong ring, a bool, a float or None raises
the same TypeError either way.

Two text forms are accepted by parse(): a human form such as
"x^3+2x+1" (terms in any order, '-' allowed and folded mod m) and an
ascending comma-separated coefficient list such as "1,2,0,1".  Numerals
are ASCII digits, and a degree above DEGREE_CAP raises TooLarge before
anything of that size is built.  str() emits the human form with
descending exponents and coefficients normalised to 0..m-1.  Both run on
the stored int through kernels of the subclass: the human form's terms
are packed by _pack_terms, and str() joins the list _terms reads off the
int, so neither builds a dense coefficient list.

Both text forms are cached, since a workload parses and prints the same
few divisors of x^n - 1 over and over.  parse() looks a str of at most
_PARSE_CACHE_CHARS (64) characters up by (class, text); str() looks a
stored int of at most _STR_CACHE_BITS (512) bits up by (class, int).
Longer text and wider ints take the uncached path, which is the same
code.  Each cache is a functools.lru_cache of _TEXT_CACHE_SIZE (256)
entries, and a refusal raises without being stored.  z4poly's
hensel_lift keeps a third cache of the same kind, of 256 lifts.  Callers
may share what a cache hands out: an instance never changes after it is
built (__slots__, __setattr__ raises, and the constructor is __new__, so
calling __init__ again does nothing), and nothing in the package compares
polynomials by identity.  Worst-case bytes per cache, which
tests/test_properties.py checks with tracemalloc on caches filled with
the largest entries they admit: parse 1.35 MB (a key of 64 two-byte
characters, a value of degree DEGREE_CAP: 4.4 KB as a QuatPoly), str
0.95 MB (the text of 512 binary terms, about 3 KB) and hensel_lift
1.5 MB (a lift of degree up to 4095): 3.8 MB, under 4 MB in all.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable

from .errors import DivisorZero, InvalidParameter, ParseError, ReciprocalOfZero, TooLarge

NEG_INF = float("-inf")

# Largest exponent that polynomial text may name; alpha and beta share it.
DEGREE_CAP = 2**12

# Most generator tuples a search builds per (alpha, beta).  divisors_xn1
# shares it: each divisor of x^alpha - 1 is the b of at least one tuple.
SEARCH_CAP = 2**16

# The text caches (see the module docstring): entries per cache, the longest
# text parse() looks up, and the widest rep, in bits, whose str() is kept.
_TEXT_CACHE_SIZE = 256
_PARSE_CACHE_CHARS = 64
_STR_CACHE_BITS = 512

# Numerals are ASCII digits only: str.isdigit() also accepts superscripts.
_NUMERAL = re.compile(r"[0-9]+")
# An integer a user types (a length, a cap, a seed): an optional sign, then
# a numeral.  int() alone would also take "1_0" and non-ASCII digits.
_INTEGER = re.compile(r"[+-]?[0-9]+")
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


def _check_length(n: int, name: str = "n", error: type = InvalidParameter) -> None:
    """Refuse anything but an int length in 1 .. DEGREE_CAP, before anything of
    that size is built: alpha, beta and the n of every x^n - 1."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise error(f"{name} must be a positive integer")
    if n > DEGREE_CAP:
        raise TooLarge(f"{name} = {n} is above the length cap of {DEGREE_CAP}")


def _check_exponent(e: int) -> None:
    """Refuse anything but an int exponent in 0 .. DEGREE_CAP: DensePoly.x and __pow__."""
    if not isinstance(e, int) or isinstance(e, bool) or e < 0:
        raise ValueError("exponent must be a nonnegative integer")
    if e > DEGREE_CAP:
        raise TooLarge(f"exponent {e} is above the degree cap {DEGREE_CAP}")


def _parse_int(text: str) -> int:
    """The value of an _INTEGER numeral with whitespace around it; otherwise
    ValueError, worded as int()'s own."""
    t = text.strip()
    if not _INTEGER.fullmatch(t):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(t)


def _term(c: int, e: int) -> str:
    """The human-form text of the term c * x^e, c a nonzero residue."""
    if not e:
        return str(c)
    base = "x" if e == 1 else f"x^{e}"
    return base if c == 1 else f"{c}{base}"


def _count_text(n: int) -> str:
    """A count for a message: in full up to 2^64, above that 2^k for a power
    of two and "more than 2^k" for anything else."""
    if n <= 2**64:
        return str(n)
    k = n.bit_length() - 1
    return f"2^{k}" if n == 1 << k else f"more than 2^{k}"


class DensePoly:
    """The ring entry points shared by BinPoly and QuatPoly.

    Each arithmetic method here checks its arguments (same ring, nonzero
    divisor, int scalars), calls a kernel of the subclass on the packed
    ints and wraps the result: _add, _sub, _mul, _divmod, _mod,
    _reciprocal and _fold, each a static method taking and returning
    ints.  Negation and an int scalar multiply by the constant polynomial
    k mod m through _mul.  An operand of the caller's own class is in the
    ring by construction, so it goes to the kernel at once; only other
    operands get the generic _check_ring, a classmethod that gf2poly's
    helpers call as BinPoly._check_ring too.  The text forms have two
    kernels: _pack_terms packs an {exponent: coefficient} dict (parsed
    terms, or a coefficient list through _pack), and _terms lists the
    nonzero terms' text, highest power first, for str().  Subclasses
    supply kernels and the slot width _SLOT (bits per coefficient), and
    never override an entry point.
    """

    MOD = 0  # set by subclasses
    _SLOT = 0  # bits per stored coefficient, set by subclasses
    __slots__ = ("_rep",)

    def __new__(cls, coeffs: Iterable[int] = ()):
        # __new__, not __init__: a later p.__init__(...) must not change an
        # instance that the caches share.
        vals = list(coeffs)
        for v in vals:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < cls.MOD:
                raise ValueError(f"coefficient {v!r} is not a Z{cls.MOD} residue")
        return cls._wrap(cls._pack(vals))

    @classmethod
    def _pack(cls, vals: Iterable[int]) -> int:
        """The representation of ascending coefficients, each reduced mod m."""
        return cls._pack_terms(dict(enumerate(vals)))

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
        """The monomial coefficient * x**exponent: exponent an int up to DEGREE_CAP,
        coefficient any int, reduced mod m."""
        _check_exponent(exponent)
        if not isinstance(coefficient, int) or isinstance(coefficient, bool):
            raise ValueError(f"coefficient must be an integer, not {coefficient!r}")
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
        return self._wrap(self._add(self._rep, other._rep))

    def __sub__(self, other):
        if other.__class__ is not self.__class__:
            self._check_ring(other)
        return self._wrap(self._sub(self._rep, other._rep))

    def __neg__(self):
        return self._wrap(self._mul(self._rep, self.MOD - 1))

    def __mul__(self, other):
        if other.__class__ is not self.__class__:
            if isinstance(other, int) and not isinstance(other, bool):
                return self._wrap(self._mul(self._rep, other % self.MOD))
            self._check_ring(other)
        return self._wrap(self._mul(self._rep, other._rep))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self**n for an int n up to DEGREE_CAP whose product's degree bound,
        n * deg, is within the cap too; both are checked before any multiply."""
        _check_exponent(n)
        if self.degree * n > DEGREE_CAP:
            raise TooLarge(f"a power of degree up to {self.degree * n} is above the degree cap {DEGREE_CAP}")
        result = self.one()
        for _ in range(n):
            result = result * self
        return result

    def __divmod__(self, divisor):
        q, r = self._divmod(self._rep, self._divisor_rep(divisor))
        return self._wrap(q), self._wrap(r)

    def __floordiv__(self, divisor):
        return self._wrap(self._divmod(self._rep, self._divisor_rep(divisor))[0])

    def __mod__(self, divisor):
        return self._wrap(self._mod(self._rep, self._divisor_rep(divisor)))

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
        return self._wrap(self._reciprocal(self._rep))

    def fold(self, n: int):
        """Reduce mod x^n - 1 by folding exponents mod n."""
        _check_length(n)
        return self._wrap(self._fold(self._rep, n))

    # -- text forms ---------------------------------------------------

    @classmethod
    def parse(cls, text: str):
        """Parse the human form ("x^3+2x+1") or the ascending list form ("1,2,0,1")."""
        if not isinstance(text, str):
            raise ParseError("polynomial text must be a string")
        if text.__class__ is str and len(text) <= _PARSE_CACHE_CHARS:
            return _parse_cached(cls, text)
        return cls._parse_text(text)

    @classmethod
    def _parse_text(cls, text: str):
        """parse() on a str, uncached."""
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
        return cls._wrap(cls._pack(vals))

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
        return cls._wrap(cls._pack_terms(coeffs))

    def __str__(self) -> str:
        rep = self._rep
        if rep.bit_length() <= _STR_CACHE_BITS:
            return _str_cached(self.__class__, rep)
        return self._text()

    def _text(self) -> str:
        """str(), uncached."""
        return "+".join(self._terms()) or "0"

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


@functools.lru_cache(maxsize=_TEXT_CACHE_SIZE)
def _parse_cached(cls, text: str):
    """cls.parse(text) for a short str; a refusal raises and is not stored."""
    return cls._parse_text(text)


@functools.lru_cache(maxsize=_TEXT_CACHE_SIZE)
def _str_cached(cls, rep: int) -> str:
    """str() of the cls instance around a small rep."""
    return cls._wrap(rep)._text()
