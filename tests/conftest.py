"""Shared helpers: terse polynomial builders and reference specs."""

import itertools

import pytest

from z2z4cyclic import BinPoly, Codeword, QuatPoly, validate_spec


def bp(text: str) -> BinPoly:
    return BinPoly.parse(text)


def qp(text: str) -> QuatPoly:
    return QuatPoly.parse(text)


def word_set(mat, alpha: int) -> set[Codeword]:
    """The rows of a word matrix (binary block first) as a set of Codewords."""
    return {Codeword(tuple(r[:alpha].tolist()), tuple(r[alpha:].tolist())) for r in mat}


def word(text: str) -> Codeword:
    from z2z4cyclic import parse_codeword

    return parse_codeword(text)


def all_binpolys(max_deg: int, nonzero: bool = False):
    """Every BinPoly of degree <= max_deg (optionally skipping zero)."""
    for bits in range(1 if nonzero else 0, 1 << (max_deg + 1)):
        yield BinPoly(tuple((bits >> i) & 1 for i in range(max_deg + 1)))


def all_quatpolys(max_deg: int, nonzero: bool = False):
    """Every QuatPoly of degree <= max_deg (optionally skipping zero)."""
    for coeffs in itertools.product(range(4), repeat=max_deg + 1):
        if nonzero and not any(coeffs):
            continue
        yield QuatPoly(coeffs)


@pytest.fixture(scope="session")
def example_spec():
    """The worked example: (3, 3, b=x^3+1, ell=x+1, f=1, h=x^2+x+1), g=x+3."""
    return validate_spec(3, 3, bp("x^3+1"), bp("x+1"), qp("1"), qp("x^2+x+1"))
