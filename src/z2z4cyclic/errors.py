"""Exception types shared across the package."""


class Z2Z4Error(Exception):
    """Base class for every error raised by this library."""


class DivisorZero(Z2Z4Error, ZeroDivisionError):
    """Division by the zero polynomial."""


class GcdUndefined(Z2Z4Error):
    """gcd(0, 0) has no monic normal form."""


class ReciprocalOfZero(Z2Z4Error):
    """The zero polynomial has no reciprocal."""


class InvalidParameter(Z2Z4Error, ValueError):
    """An argument is outside its documented range."""


class NotInvertible(Z2Z4Error, ArithmeticError):
    """No inverse exists modulo the given polynomial."""


class EvenLengthUnsupported(Z2Z4Error):
    """Quaternary block lengths must be odd."""


class NotMonic(Z2Z4Error):
    """A monic polynomial is required."""


class NotADivisor(Z2Z4Error, ArithmeticError):
    """Exact division was requested but the division leaves a remainder."""


class InvalidSpec(Z2Z4Error, ValueError):
    """A generator tuple violates one of its defining conditions."""


class TooLarge(Z2Z4Error):
    """A refusal by one of the package's caps: the enumeration cap on codewords
    (ENUM_CAP or the caller's cap), the degree cap on polynomial text and
    monomials, the length cap on alpha, beta and every n of x^n - 1 (all
    checked by poly._check_length) and on lcm(alpha, beta) (all DEGREE_CAP), the
    search cap on tuples per (alpha, beta) and the divisor cap on x^n - 1
    (both SEARCH_CAP), and the ambient cap of the brute-force dual (AMBIENT_CAP)."""


class AmbientMismatch(Z2Z4Error, ValueError):
    """Operands live in different ambient spaces."""


class ParseError(Z2Z4Error, ValueError):
    """Malformed polynomial, codeword, or spec text."""
