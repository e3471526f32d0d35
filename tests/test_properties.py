"""Property tests for the text front end: polynomials, spec text, CLI flags."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from z2z4cyclic import (
    BinPoly,
    QuatPoly,
    Z2Z4Error,
    format_spec_text,
    iter_valid_specs,
    parse_spec_text,
    spec_fields,
    spec_from_fields,
)
from z2z4cyclic.cli import main

PROPERTY = settings(deadline=None, max_examples=200)

SMALL_SPECS = [
    spec for alpha in range(1, 5) for beta in (1, 3, 5) for spec in iter_valid_specs(alpha, beta)
]

# Text that looks like polynomials, with non-ASCII digits and minus signs
# mixed in, alongside arbitrary Unicode.
POLY_CHARS = "x^+-0123456789 ,\t" + "²³¹١٣−"
poly_text = st.text(alphabet=POLY_CHARS, max_size=16) | st.text(max_size=16)
int_text = st.integers(-3, 9).map(str) | poly_text


def polys(cls):
    return st.lists(st.integers(0, cls.MOD - 1), max_size=24).map(cls)


@PROPERTY
@given(st.one_of(polys(BinPoly), polys(QuatPoly)))
def test_both_text_forms_round_trip(p):
    cls = type(p)
    assert cls.parse(str(p)) == p
    assert cls.parse(p.coeff_csv()) == p


@PROPERTY
@given(st.sampled_from(SMALL_SPECS))
def test_spec_text_round_trip(spec):
    assert parse_spec_text(format_spec_text(spec)) == spec
    assert spec_from_fields(spec_fields(spec)) == spec


@PROPERTY
@given(poly_text)
def test_arbitrary_polynomial_text_raises_only_library_errors(text):
    for cls in (BinPoly, QuatPoly):
        try:
            cls.parse(text)
        except Z2Z4Error:
            pass


@PROPERTY
@given(st.fixed_dictionaries({
    "alpha": int_text, "beta": int_text,
    "b": poly_text, "ell": poly_text, "f": poly_text, "h": poly_text,
}))
def test_arbitrary_spec_fields_raise_only_library_errors(fields):
    try:
        spec_from_fields(fields)
    except Z2Z4Error:
        pass


@PROPERTY
@given(int_text, int_text, poly_text, poly_text, poly_text, poly_text)
def test_arbitrary_inline_flags_exit_cleanly(alpha, beta, b, ell, f, h):
    argv = ["dual", f"--alpha={alpha}", f"--beta={beta}",
            f"--b={b}", f"--ell={ell}", f"--f={f}", f"--h={h}"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = main(argv)
    assert status in (0, 2, 3)
