"""Code construction: specs, spanning sets, enumeration, Gray map, pairings."""

import copy
import dataclasses
import itertools
import math
import pickle
import re
import time

import numpy as np
import pytest

from z2z4cyclic import (
    BinPoly,
    Codeword,
    CodeType,
    CyclicCodeSpec,
    QuatPoly,
    cardinality,
    code_type,
    code_type_from_words,
    codeword_matrix,
    circ_product,
    contains,
    construct_mdss,
    construct_self_dual_family,
    cyclic_shift,
    dual_spec,
    format_codeword,
    format_spec_text,
    gray_map,
    inner_product,
    iter_valid_specs,
    parse_codeword,
    parse_spec_text,
    project_xy,
    spanning_set,
    spec_fields,
    spec_from_fields,
    star,
    subcode_order_two,
    validate_spec,
)
from z2z4cyclic import gf2poly as gf2
from z2z4cyclic import z4poly as z4
from z2z4cyclic.code import _codeword_keys, _decode_keys
from z2z4cyclic.dual import brute_force_dual_matrix
from z2z4cyclic.errors import (
    AmbientMismatch,
    InvalidParameter,
    InvalidSpec,
    ParseError,
    TooLarge,
)

from conftest import bp, qp, word, word_set

# -- codewords ---------------------------------------------------------------


def test_codeword_rejects_bad_entries():
    with pytest.raises(InvalidParameter):
        Codeword((2,), (0,))
    with pytest.raises(InvalidParameter):
        Codeword((0,), (4,))
    # A bool or a float equals 0 or 1 but is no entry, in either block.
    for u, uq, message in (
        ((True, False), (2,), "^binary block entries must be 0 or 1$"),
        ((1, 0), (2, np.True_), "^quaternary block entries must be in 0..3$"),
        ((np.False_,), (), "^binary block entries must be 0 or 1$"),
        ((1.0, 0), (2,), "^binary block entries must be 0 or 1$"),
        ((1, 0), (2.0,), "^quaternary block entries must be in 0..3$"),
        ((np.float64(0),), (), "^binary block entries must be 0 or 1$"),
        ((), (np.float64(3),), "^quaternary block entries must be in 0..3$"),
    ):
        with pytest.raises(InvalidParameter, match=message):
            Codeword(u, uq)
    # numpy integers, as read from uint8 rows, are entries.
    row = np.array([1, 0, 3], dtype=np.uint8)
    assert format_codeword(Codeword(tuple(row[:2]), tuple(row[2:]))) == "1 0 | 3"


def test_codeword_text_round_trip():
    w = word("1 0 1 | 2 0 0")
    assert w == Codeword((1, 0, 1), (2, 0, 0))
    assert format_codeword(w) == "1 0 1 | 2 0 0"
    assert parse_codeword(format_codeword(w)) == w


def test_parse_codeword_errors():
    with pytest.raises(ParseError):
        parse_codeword("1 0 1")
    with pytest.raises(ParseError, match=r"^codeword entries must be integers: invalid literal for int\(\) with base 10: 'x'$"):
        parse_codeword("1 x | 0")
    # Entries are ASCII digits with an optional sign, as alpha and beta are.
    for text in ("1 | \uff13", "1_0 | 0", "1 | \u0663"):
        with pytest.raises(ParseError, match="^codeword entries must be integers: "):
            parse_codeword(text)
    assert parse_codeword("+1 | -0 3") == Codeword((1,), (0, 3))
    with pytest.raises(ParseError):
        parse_codeword("3 | 0")


def test_cyclic_shift_examples():
    w = word("1 0 1 | 2 0 0")
    assert cyclic_shift(w, 1) == word("0 1 1 | 0 0 2")
    assert cyclic_shift(w, -1) == word("1 1 0 | 0 2 0")
    assert cyclic_shift(w, math.lcm(3, 3)) == w


def test_cyclic_shift_period_is_lcm():
    w = word("1 0 | 1 2 3")
    m = math.lcm(2, 3)
    assert cyclic_shift(w, m) == w
    assert any(cyclic_shift(w, i) != w for i in range(1, m))


@pytest.mark.parametrize("shift", [1.5, 1.0, True, False, "1", None], ids=repr)
def test_cyclic_shift_refuses_a_shift_that_is_not_an_int(shift):
    w = word("1 0 | 1 2 3")
    with pytest.raises(InvalidParameter, match=f"^shift must be an integer, not {re.escape(repr(shift))}$"):
        cyclic_shift(w, shift)
    # Any int wraps, whatever its sign or size.
    assert cyclic_shift(w, -7) == cyclic_shift(w, 5) == cyclic_shift(w, 6 * 10**20 + 5)


# -- the mixing action ---------------------------------------------------------


def test_star_examples():
    p, q = star(qp("x"), bp("x+1"), qp("2"), 3, 3)
    assert (p, q) == (bp("x^2+x"), qp("2x"))
    p, q = star(qp("x^2"), bp("x+1"), qp("1"), 3, 3)
    assert (p, q) == (bp("x^2+1"), qp("x^2"))
    p, q = star(qp("2"), bp("x+1"), qp("x^2+x+1"), 3, 3)
    assert (p, q) == (BinPoly.zero(), qp("2x^2+2x+2"))


@pytest.mark.parametrize(
    "args, ring",
    [
        ((bp("x"), bp("x+1"), qp("1"), 3, 3), 4),
        ((qp("x"), qp("x+1"), qp("1"), 3, 3), 2),
        ((qp("x"), bp("x+1"), bp("1"), 3, 3), 4),
    ],
)
def test_star_refuses_an_operand_outside_its_ring(args, ring):
    with pytest.raises(TypeError, match=f"^expected a polynomial over Z{ring}, got "):
        star(*args)


# -- spec validation ------------------------------------------------------------


def test_validate_spec_worked_example(example_spec):
    assert example_spec.g == qp("x+3")
    assert example_spec.alpha == 3 and example_spec.beta == 3


def test_validate_spec_rejects_failed_divisibility():
    with pytest.raises(InvalidSpec):
        validate_spec(3, 3, bp("x^2+x+1"), bp("1"), qp("x^2+x+1"), qp("1"))


def test_validate_spec_rejects_large_ell():
    with pytest.raises(InvalidSpec):
        validate_spec(3, 3, bp("x+1"), bp("x+1"), qp("1"), qp("1"))


def test_validate_spec_rejects_structural_errors():
    with pytest.raises(InvalidSpec):
        validate_spec(3, 4, bp("x^3+1"), BinPoly.zero(), qp("1"), qp("1"))  # even beta
    with pytest.raises(InvalidSpec):
        validate_spec(3, 3, BinPoly.zero(), BinPoly.zero(), qp("1"), qp("1"))  # b = 0
    with pytest.raises(InvalidSpec):
        validate_spec(3, 3, bp("x^2+1"), BinPoly.zero(), qp("1"), qp("1"))  # b not a divisor
    with pytest.raises(InvalidSpec):
        validate_spec(3, 3, bp("x^3+1"), BinPoly.zero(), qp("3x+1"), qp("1"))  # f not monic
    with pytest.raises(InvalidSpec):
        validate_spec(3, 3, bp("x^3+1"), BinPoly.zero(), qp("x+1"), qp("1"))  # fh not a divisor


@pytest.mark.parametrize("index, value, message", [
    (0, "3", "alpha must be a positive integer"),
    (2, qp("x^3+3"), "b and ell must be binary polynomials"),
    (4, bp("1"), "f and h must be quaternary polynomials"),
    (5, qp("3x^2+x+1"), "h must be monic"),
], ids=("text-alpha", "quaternary-b", "binary-f", "non-monic-h"))
def test_spec_refuses_wrong_field_types_and_a_non_monic_h(index, value, message):
    fields = [3, 3, bp("x^3+1"), bp("x+1"), qp("1"), qp("x^2+x+1")]
    fields[index] = value
    with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
        CyclicCodeSpec(*fields)


@pytest.mark.parametrize("fields, message", [
    ((3, 3, "x^2+1", "0", "1", "1"), "b = x^2+1 does not divide x^3-1 over Z2"),
    ((3, 3, "x^3+1", "0", "3x+1", "1"), "f must be monic"),
    ((3, 3, "x^3+1", "0", "1", "2x^2+1"), "h must be monic"),
    ((3, 3, "x^3+1", "0", "x+1", "1"), "f*h = x+1 does not divide x^3-1 over Z4"),
    ((3, 3, "x+1", "x+1", "1", "1"), "deg(ell) = 1 must be smaller than deg(b) = 1"),
    ((3, 3, "x^2+x+1", "1", "x^2+x+1", "1"), "b = x^2+x+1 does not divide ell*(x^3-1)/f mod 2 = x+1"),
], ids=("b-not-a-divisor", "f-not-monic", "h-not-monic", "fh-not-a-divisor", "ell-degree", "ell-divisibility"))
def test_spec_refusal_texts(fields, message):
    alpha, beta, b, ell, f, h = fields
    with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
        validate_spec(alpha, beta, bp(b), bp(ell), qp(f), qp(h))


def test_validate_spec_refuses_a_bool_length_like_zero():
    # True would otherwise pass as 1, report as "alpha": true and equal the alpha = 1 spec.
    for name, alpha, beta in (("alpha", 0, 1), ("alpha", True, 1), ("beta", 1, 0), ("beta", 1, True)):
        with pytest.raises(InvalidSpec, match=f"^{name} must be a positive integer$"):
            validate_spec(alpha, beta, bp("1"), bp("0"), qp("1"), qp("x+3"))


def test_code_type_refuses_inconsistent_parameters():
    with pytest.raises(InvalidParameter, match=r"^inconsistent type parameters: \(3,3;2,1;2\)$"):
        CodeType(3, 3, 2, 1, 2, 1, 0, 0, 0)


def test_validate_spec_consequence_checks_raise_internal_errors(monkeypatch):
    # Both checks after the defining conditions can only fail through a
    # bug; a gcd that returns 1 once stands in for one, at each check.  Both
    # gcds come from one _ell_gcds call, before either check.
    real_gcd = gf2.gcd
    for bad_call, text in ((1, r"gcd\(b, ell\) mod 2"), (2, r"gcd\(b, ell\*g\) mod 2")):
        calls = []

        def broken_gcd(a, b):
            calls.append(None)
            return BinPoly.one() if len(calls) == bad_call else real_gcd(a, b)

        monkeypatch.setattr(gf2, "gcd", broken_gcd)
        with pytest.raises(ArithmeticError, match=f"^internal error: .*{text}$") as exc:
            validate_spec(1, 1, bp("x+1"), BinPoly.zero(), qp("x+3"), qp("1"))
        assert not isinstance(exc.value, InvalidSpec)
        assert len(calls) == 2


def test_kept_images_leave_eq_hash_repr_and_fields_as_they_were(example_spec):
    # The mod-2 images validation keeps sit in __dict__ beside the caches,
    # outside the dataclass fields.
    s = example_spec
    assert [f.name for f in dataclasses.fields(s)] == ["alpha", "beta", "b", "ell", "f", "h", "g"]
    assert {"_g2", "_h2", "_ell_g2"} <= set(vars(s))
    assert repr(s) == (
        "CyclicCodeSpec(alpha=3, beta=3, b=BinPoly('x^3+1'), ell=BinPoly('x+1'), "
        "f=QuatPoly('1'), h=QuatPoly('x^2+x+1'), g=QuatPoly('x+3'))"
    )
    assert hash(s) == hash((3, 3, s.b, s.ell, s.f, s.h, s.g))
    other = validate_spec(3, 3, bp("x^3+1"), bp("x+1"), qp("1"), qp("x^2+x+1"))
    vars(other).update(_g2=0, _h2=0, _ell_g2=0)
    assert other == s and hash(other) == hash(s) and repr(other) == repr(s)


@pytest.mark.parametrize(
    "copier",
    [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_spec_copies_and_pickles_without_its_caches(copier):
    spec = construct_mdss(3, 3)
    words = codeword_matrix(spec)
    again = copier(spec)
    assert type(again) is CyclicCodeSpec
    assert again == spec and hash(again) == hash(spec) and repr(again) == repr(spec)
    # Rebuilt through validation: the images are kept anew, and the caches are
    # built anew, read-only as ever.
    assert "_word_keys" not in vars(again) and "_span_rows" not in vars(again)
    assert (again._g2, again._h2, again._ell_g2) == (spec._g2, spec._h2, spec._ell_g2)
    assert not again._span_rows.flags.writeable
    assert np.array_equal(codeword_matrix(again), words)


def test_spec_text_round_trip(example_spec):
    text = format_spec_text(example_spec)
    again = parse_spec_text(text)
    assert again == example_spec
    assert parse_spec_text("# comment\nalpha=3\nbeta = 3\nb=x^3+1\nell=x+1\nf=1\nh=x^2+x+1")


def test_spec_fields_order_and_round_trip(example_spec):
    fields = spec_fields(example_spec)
    assert fields == {
        "alpha": 3, "beta": 3, "b": "x^3+1", "ell": "x+1", "f": "1", "h": "x^2+x+1",
    }
    assert list(fields) == ["alpha", "beta", "b", "ell", "f", "h"]
    assert spec_from_fields(fields) == example_spec
    assert spec_from_fields({k: str(v) for k, v in fields.items()}) == example_spec


def test_spec_from_fields_errors():
    with pytest.raises(ParseError, match="^missing keys: b, h$"):
        spec_from_fields({"alpha": "3", "beta": "3", "ell": "x+1", "f": "1"})
    base = {"alpha": "3", "beta": "3", "b": "x^3+1", "ell": "x+1", "f": "1", "h": "x^2+x+1"}
    with pytest.raises(ParseError, match="integers"):
        spec_from_fields({**base, "alpha": "three"})
    with pytest.raises(ParseError, match="integers"):
        spec_from_fields({**base, "beta": None})
    with pytest.raises(ParseError):
        spec_from_fields({**base, "h": 1})


@pytest.mark.parametrize("value", [3.7, True, None])
@pytest.mark.parametrize("key", ["alpha", "beta"])
def test_spec_from_fields_refuses_lengths_that_are_not_int_or_text(key, value):
    # int() would truncate 3.7 to 3 and read True as 1; neither may pass.
    base = {"alpha": 3, "beta": 3, "b": "x^3+1", "ell": "x+1", "f": "1", "h": "x^2+x+1"}
    with pytest.raises(ParseError, match="^alpha and beta must be integers$"):
        spec_from_fields({**base, key: value})


def test_block_lengths_above_the_cap_are_too_large():
    from z2z4cyclic import DEGREE_CAP

    with pytest.raises(TooLarge, match="alpha"):
        validate_spec(DEGREE_CAP + 1, 1, bp("1"), bp("0"), qp("1"), qp("x+3"))
    with pytest.raises(TooLarge, match="beta"):
        validate_spec(1, DEGREE_CAP + 1, bp("1"), bp("0"), qp("1"), qp("1"))


def test_parse_spec_text_errors():
    with pytest.raises(ParseError):
        parse_spec_text("alpha=3\nbeta=3\nb=x^3+1\nell=x+1\nf=1")  # h missing
    with pytest.raises(ParseError):
        parse_spec_text("alpha=3\nalpha=3\nbeta=3\nb=x^3+1\nell=x+1\nf=1\nh=1")
    with pytest.raises(ParseError):
        parse_spec_text("alpha=3\nbeta=3\nb=x^3+1\nell=x+1\nf=1\nh=1\nq=2")
    with pytest.raises(ParseError):
        parse_spec_text("alpha three\nbeta=3\nb=x^3+1\nell=x+1\nf=1\nh=1")


# -- type parameters --------------------------------------------------------------


def test_code_type_worked_example(example_spec):
    t = code_type(example_spec)
    assert str(t) == "(3,3;2,1;2)"
    assert (t.kappa1, t.kappa2, t.delta1, t.delta2) == (0, 2, 0, 1)


def test_code_type_self_dual_table_row_two():
    spec = validate_spec(10, 5, bp("x^5+1"), BinPoly.zero(), qp("1"), qp("x^5+3"))
    assert str(code_type(spec)) == "(10,5;10,0;5)"


def test_code_type_mdss():
    assert str(code_type(construct_mdss(2, 3))) == "(2,3;1,3;1)"


def test_cardinality_worked_example(example_spec):
    assert cardinality(example_spec) == 16
    assert cardinality(dual_spec(example_spec)) == 32
    assert len(np.unique(codeword_matrix(example_spec)[:, :3], axis=0)) == 4


# -- enumeration --------------------------------------------------------------------


def test_enumerate_worked_example(example_spec):
    words = word_set(codeword_matrix(example_spec), 3)
    assert len(words) == 16
    # Generator matrix rows, with each block stored lowest exponent first.
    assert word("1 0 1 | 0 0 2") in words
    assert word("1 1 0 | 0 2 2") in words
    assert word("0 0 0 | 1 1 1") in words


def test_enumerate_tiny_ambient():
    spec = validate_spec(1, 1, bp("x+1"), BinPoly.zero(), qp("1"), qp("1"))
    assert word_set(codeword_matrix(spec), 1) == {
        word("0 | 0"),
        word("0 | 1"),
        word("0 | 2"),
        word("0 | 3"),
    }


def test_enumerate_respects_cap(example_spec):
    with pytest.raises(TooLarge):
        codeword_matrix(example_spec, cap=8)


def test_codeword_keys_are_cached_read_only(example_spec):
    keys = _codeword_keys(example_spec)
    assert _codeword_keys(example_spec) is keys
    assert not keys.flags.writeable
    with pytest.raises(ValueError):
        keys[0, 0] = 0
    # Every entry is 0..3, so the public matrix is uint8.
    mat = codeword_matrix(example_spec)
    assert mat.dtype == np.uint8
    assert np.array_equal(mat, _decode_keys(keys, 3, 6))


def test_cached_keys_still_answer_to_the_cap(example_spec):
    _codeword_keys(example_spec)
    total = cardinality(example_spec)
    with pytest.raises(TooLarge, match=f"^code has {total} codewords, above the cap of {total - 1}$"):
        _codeword_keys(example_spec, cap=total - 1)
    with pytest.raises(TooLarge):
        codeword_matrix(example_spec, cap=total - 1)
    assert len(codeword_matrix(example_spec, cap=total)) == total


def test_cached_keys_leave_identity_alone(example_spec):
    before = (repr(example_spec), hash(example_spec))
    _codeword_keys(example_spec)
    fresh = validate_spec(3, 3, bp("x^3+1"), bp("x+1"), qp("1"), qp("x^2+x+1"))
    assert "_word_keys" not in vars(fresh)
    assert (repr(example_spec), hash(example_spec)) == before == (repr(fresh), hash(fresh))
    assert example_spec == fresh


def test_dual_spec_enumerates_its_own_keys():
    # Self-dual, so the dual is an equal tuple, but a fresh object with no cache.
    spec = validate_spec(2, 1, bp("x+1"), BinPoly.zero(), qp("1"), qp("x+3"))
    keys = _codeword_keys(spec)
    dual = dual_spec(spec)
    assert dual == spec and dual is not spec
    assert "_word_keys" not in vars(dual)
    dual_keys = _codeword_keys(dual)
    assert dual_keys is not keys
    assert np.array_equal(dual_keys, keys)


@pytest.mark.parametrize("cap", [0, -1])
def test_enumerate_refuses_a_cap_below_one(example_spec, cap):
    with pytest.raises(InvalidParameter, match=f"^cap must be at least 1, not {cap}$"):
        codeword_matrix(example_spec, cap=cap)


def test_contains_examples(example_spec):
    assert contains(example_spec, word("1 0 1 | 0 0 2"))
    assert not contains(example_spec, word("1 0 0 | 0 0 0"))
    assert contains(example_spec, word("0 0 0 | 0 0 0"))
    # A word from the wrong ambient is simply not a member.
    assert not contains(example_spec, word("1 0 | 0 0 2"))


def test_contains_answers_a_wrong_length_word_without_enumerating():
    # |C| = 2^23 * 4 = 2^25 is above ENUM_CAP; membership is read off the
    # dual's spanning rows, so every answer is immediate.
    spec = validate_spec(24, 1, bp("x+1"), bp("0"), qp("1"), qp("1"))
    assert not contains(spec, word("0 | 0"))
    for w, member in (
        (Codeword((0,) * 24, (0,)), True),
        (Codeword((1,) + (0,) * 23, (0,)), False),
    ):
        t0 = time.perf_counter()
        assert contains(spec, w) is member
        assert time.perf_counter() - t0 < 1


def test_contains_agrees_with_the_word_set_on_every_ambient_word(example_spec):
    members = word_set(codeword_matrix(example_spec), 3)
    for bits in itertools.product(range(2), repeat=3):
        for quats in itertools.product(range(4), repeat=3):
            w = Codeword(bits, quats)
            assert contains(example_spec, w) == (w in members), w


def test_contains_searches_every_limb_of_a_wide_word():
    # 65 + 2 = 67 bits take two limbs: the top 3 binary coordinates and the rest.
    # C = {0, all-ones} x {0, 2}, so members and non-members share either limb.
    spec = validate_spec(65, 1, BinPoly((1,) * 65), bp("0"), qp("1"), qp("x+3"))
    members = word_set(codeword_matrix(spec), 65)
    assert len(members) == 4
    for m in members:
        assert contains(spec, m)
        for i in range(65):
            u = m.u[:i] + (1 - m.u[i],) + m.u[i + 1 :]
            assert not contains(spec, Codeword(u, m.uq))
        for q in range(4):
            w = Codeword(m.u, (q,))
            assert contains(spec, w) == (w in members)


def test_spanning_set_worked_example(example_spec):
    rows = spanning_set(example_spec)
    assert rows == [
        word("1 1 0 | 3 1 1"),  # (ell | fh + 2f)
        word("1 0 1 | 2 2 0"),  # (ell*g | 2fg)
        word("1 1 0 | 0 2 2"),  # x * (ell*g | 2fg)
    ]


def test_spanning_set_empty_s1_when_b_is_full():
    spec = validate_spec(2, 1, bp("x^2+1"), BinPoly.zero(), qp("1"), qp("1"))
    rows = spanning_set(spec)
    assert len(rows) == 1  # only the S2 row: gamma + delta = 0 + 1


def test_spanning_set_torsion_only():
    spec = validate_spec(2, 3, bp("1"), BinPoly.zero(), qp("1"), qp("x^3+3"))
    rows = spanning_set(spec)
    # S1 has alpha rows, S2 none (g = 1), S3 has beta rows (0 | 2x^i).
    assert rows[:2] == [word("1 0 | 0 0 0"), word("0 1 | 0 0 0")]
    assert rows[2:] == [word("0 0 | 2 0 0"), word("0 0 | 0 2 0"), word("0 0 | 0 0 2")]


def _closure(rows: list[Codeword]) -> set[Codeword]:
    """Additive closure of a list of codewords (small cases only)."""
    if not rows:
        return set()
    a, b = len(rows[0].u), len(rows[0].uq)
    seen = {Codeword((0,) * a, (0,) * b)}
    frontier = list(seen)
    while frontier:
        w = frontier.pop()
        for r in rows:
            s = Codeword(
                tuple((x + y) % 2 for x, y in zip(w.u, r.u)),
                tuple((x + y) % 4 for x, y in zip(w.uq, r.uq)),
            )
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return seen


def test_spanning_set_is_minimal(example_spec):
    specs = [
        example_spec,
        construct_mdss(2, 3),
        construct_self_dual_family(2, 1),
        validate_spec(3, 3, bp("x+1"), bp("1"), qp("1"), qp("x^2+x+1")),
    ]
    for spec in specs:
        rows = spanning_set(spec)
        full = _closure(rows)
        assert len(full) == cardinality(spec)
        for i in range(len(rows)):
            reduced = _closure(rows[:i] + rows[i + 1 :])
            assert len(reduced) < len(full)


def test_cardinality_formula_and_cyclicity_exhaustive():
    # Every valid tuple with alpha <= 6, beta in {1, 3, 5, 7}: the
    # enumerated size must match the degree formula (asserted inside
    # codeword_matrix), and codes up to 2^14 words are shift-closed.
    for alpha in range(1, 7):
        for beta in (1, 3, 5, 7):
            for spec in iter_valid_specs(alpha, beta):
                mat = codeword_matrix(spec)
                assert len(mat) == cardinality(spec)
                if len(mat) <= 2**14:
                    shifted = np.concatenate(
                        [np.roll(mat[:, :alpha], 1, axis=1), np.roll(mat[:, alpha:], 1, axis=1)],
                        axis=1,
                    )
                    assert np.array_equal(np.unique(shifted, axis=0), mat)


def test_measured_type_matches_formula(example_spec):
    # The last two take two-limb keys: (33 | 17) with the X field across the limb
    # boundary, and (1 | 33) with the Z2 coordinate alone in the top limb.
    g = z4.hensel_lift(bp("x^2+x+1"), 33)
    specs = [
        example_spec,
        construct_mdss(3, 3),
        construct_self_dual_family(4, 3),
        validate_spec(10, 5, bp("x^5+1"), BinPoly.zero(), qp("1"), qp("x^5+3")),
        validate_spec(
            33, 17, bp("x^30+x^27+x^24+x^21+x^18+x^15+x^12+x^9+x^6+x^3+1"), BinPoly.zero(),
            qp("x^17+3"), qp("1"),
        ),
        validate_spec(1, 33, bp("x+1"), BinPoly.zero(), divmod(z4.xn1(33), g)[0], qp("1")),
    ]
    assert [len(_codeword_keys(spec)) for spec in specs[-2:]] == [2, 2]
    for spec in specs:
        measured = code_type_from_words(spec.alpha, spec.beta, codeword_matrix(spec))
        assert measured == code_type(spec)


@pytest.mark.parametrize("words, error, message", [
    (np.zeros((1, 5), np.uint8), AmbientMismatch, "^words have 5 columns, not alpha \\+ beta = 6$"),
    (np.zeros((0, 6), np.uint8), InvalidParameter, "^a code has a power-of-two number of words, not 0$"),
    (np.zeros((3, 6), np.uint8), InvalidParameter, "^a code has a power-of-two number of words, not 3$"),
    (np.zeros(6, np.uint8), InvalidParameter, "^words must be a 2-D integer array$"),
    ([[0] * 6], InvalidParameter, "^words must be a 2-D integer array$"),
    (np.zeros((1, 6)), InvalidParameter, "^words must be an integer array, not float64$"),
], ids=("columns", "no-rows", "three-rows", "one-dimensional", "list", "float"))
def test_measured_type_refuses_a_matrix_no_code_has(words, error, message):
    with pytest.raises(error, match=message):
        code_type_from_words(3, 3, words)


@pytest.mark.parametrize("rows, message", [
    # Not closed under addition: (0 | 1) + (1 | 1) = (1 | 2) is missing.
    ([[0, 0], [0, 1], [0, 2], [1, 1]], "a measured count is 3$"),
    # No zero word.
    ([[1, 0]], "a measured count is 0$"),
    # Counts that are powers of two but no type: (0 | 1) without (0 | 2).
    ([[0, 0], [0, 1]], r"inconsistent type parameters: \(1,1;-1,1;0\)$"),
], ids=("not-closed", "no-zero-word", "no-type"))
def test_measured_type_refuses_a_word_set_that_is_no_code(rows, message):
    for dtype in (np.uint8, np.int64):
        with pytest.raises(InvalidParameter, match="^words are not the word set of an additive code: " + message):
            code_type_from_words(1, 1, np.array(rows, dtype))


@pytest.mark.parametrize("rows, message", [
    ([[0, 0], [0, 7]], "^words have an entry outside 0..3 in a Z4 column$"),
    ([[0, 0], [0, 4]], "^words have an entry outside 0..3 in a Z4 column$"),
    ([[0, 0], [0, -1]], "^words have an entry outside 0..3 in a Z4 column$"),
    ([[0, 0], [2, 0]], "^words have an entry outside 0..1 in a Z2 column$"),
    ([[0, 0], [-1, 0]], "^words have an entry outside 0..1 in a Z2 column$"),
    ([[0, 0], [7, 0]], "^words have an entry outside 0..1 in a Z2 column$"),
], ids=("z4-7", "z4-4", "z4-negative", "z2-2", "z2-negative", "z2-7"))
def test_measured_type_refuses_an_unreduced_entry(rows, message):
    with pytest.raises(InvalidParameter, match=message):
        code_type_from_words(1, 1, np.array(rows, np.int16))
    if min(map(min, rows)) >= 0:
        with pytest.raises(InvalidParameter, match=message):
            code_type_from_words(1, 1, np.array(rows, np.uint8))


def test_measured_type_of_a_matrix_with_no_columns():
    # No entry to range-check: the one empty word is the zero code of (0, 0).
    assert str(code_type_from_words(0, 0, np.zeros((1, 0), np.uint8))) == "(0,0;0,0;0)"


def test_measured_type_takes_any_integer_dtype():
    # The zero code is one row; its type does not depend on the entries' width.
    for dtype in (np.uint8, np.int16, np.int64, np.uint64):
        assert str(code_type_from_words(3, 3, np.zeros((1, 6), dtype))) == "(3,3;0,0;0)"


# -- Gray map -------------------------------------------------------------------------


def test_gray_map_examples():
    assert gray_map(Codeword((1, 0), (2,))) == (1, 0, 1, 1)
    assert gray_map(Codeword((0,), (3,))) == (0, 1, 0)
    assert gray_map(Codeword((0, 0), (0, 0))) == (0, 0, 0, 0, 0, 0)


def test_gray_map_symbol_table():
    images = [gray_map(Codeword((), (q,))) for q in range(4)]
    assert images == [(0, 0), (0, 1), (1, 1), (1, 0)]


def test_gray_map_injective_on_code(example_spec):
    words = word_set(codeword_matrix(example_spec), 3)
    assert len({gray_map(w) for w in words}) == len(words)


# -- inner and circ products ------------------------------------------------------------


def test_inner_product_examples():
    assert inner_product(word("1 0 1 | 2 0 0"), word("1 0 0 | 3 1 0")) == 0
    assert inner_product(word("1 0 1 | 2 0 0"), word("0 0 0 | 0 0 0")) == 0
    assert inner_product(word("1 | 0"), word("1 | 0")) == 2


def test_inner_product_of_numpy_entries_is_an_exact_python_int():
    # 2 * 300 + 9 * 301 = 3309 = 1 mod 4; summed as uint8 the total would wrap.
    w = Codeword((np.uint8(1),) * 300, (np.uint8(3),) * 301)
    result = inner_product(w, w)
    assert type(result) is int
    assert result == 1


def test_inner_product_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        inner_product(word("1 | 0"), word("1 0 | 0"))


def test_circ_product_examples(example_spec):
    assert circ_product(word("1 | 0"), word("1 | 0")) == qp("2")
    row = word("1 1 0 | 3 1 1")  # (ell | fh + 2f) of the worked example
    dual_row = word("1 1 1 | 0 0 0")  # (b_bar | 0) of its dual
    assert circ_product(row, dual_row).is_zero
    assert circ_product(row, word("0 0 0 | 0 0 0")).is_zero


def test_circ_product_collects_shifted_inner_products():
    pairs = [
        (word("1 0 | 1 2 3"), word("0 1 | 3 0 1")),
        (word("1 1 1 | 2"), word("1 0 1 | 3")),
        (word("1 0 0 1 | 0 1 2"), word("1 1 0 0 | 2 0 1")),
        (word("| 1 0 3"), word("| 2 1 1")),  # alpha = 0
        (word("1 1 0 1 |"), word("0 1 1 1 |")),  # beta = 0
    ]
    for w1, w2 in pairs:
        m = math.lcm(*(k for k in (len(w1.u), len(w1.uq)) if k))
        p = circ_product(w1, w2)
        coeffs = list(p.coeffs) + [0] * (m - len(p.coeffs))
        for i in range(m):
            assert coeffs[m - 1 - i] == inner_product(w1, cyclic_shift(w2, i))


def test_circ_product_is_bilinear():
    words = [word("1 0 | 1 2 3"), word("0 1 | 3 0 1"), word("1 1 | 0 2 1")]
    for w1, w2, v in itertools.permutations(words, 3):
        s = Codeword(
            tuple((a + b) % 2 for a, b in zip(w1.u, w2.u)),
            tuple((a + b) % 4 for a, b in zip(w1.uq, w2.uq)),
        )
        lhs = circ_product(s, v)
        rhs = (circ_product(w1, v) + circ_product(w2, v)).fold(math.lcm(2, 3))
        assert lhs == rhs


def test_orthogonal_all_shifts_on_code_and_dual(example_spec):
    code = word_set(codeword_matrix(example_spec), 3)
    dual = word_set(brute_force_dual_matrix(example_spec), 3)
    assert all(circ_product(w1, w2).is_zero for w1 in code for w2 in dual)
    assert all(inner_product(w1, w2) == 0 for w1 in code for w2 in dual)


def test_orthogonal_all_shifts_negative_and_zero():
    assert not circ_product(word("1 | 0"), word("1 | 0")).is_zero
    assert circ_product(word("1 | 0"), word("0 | 0")).is_zero


def test_circ_product_caps_the_period():
    # lcm(65, 67) = 4355 is above the length cap; nothing of that degree is built.
    w = Codeword((0,) * 65, (0,) * 67)
    with pytest.raises(TooLarge, match="lcm"):
        circ_product(w, w)
    assert circ_product(Codeword((0,) * 64, (0,) * 64), Codeword((1,) * 64, (1,) * 64)).is_zero


# -- distinguished subcodes ----------------------------------------------------------------


def test_subcode_order_two_worked_example(example_spec):
    gens = subcode_order_two(example_spec)
    assert gens == [
        (BinPoly.zero(), QuatPoly.zero()),  # b = x^3 + 1 folds to 0
        (bp("x^2+1"), qp("2x+2")),
        (BinPoly.zero(), qp("2x^2+2x+2")),
    ]
    rows = []
    for p, q in gens:
        base = Codeword(
            tuple(p.coeffs[i] if i < len(p.coeffs) else 0 for i in range(3)),
            tuple(q.coeffs[i] if i < len(q.coeffs) else 0 for i in range(3)),
        )
        rows.extend(cyclic_shift(base, -i) for i in range(3))
    span = _closure(rows)
    t = code_type(example_spec)
    assert len(span) == 2 ** (t.gamma + t.delta) == 8
    order_two = {w for w in word_set(codeword_matrix(example_spec), 3) if all(v in (0, 2) for v in w.uq)}
    assert span == order_two


def test_subcode_order_two_separable():
    spec = construct_self_dual_family(4, 3)
    gens = subcode_order_two(spec)
    assert gens[0] == (spec.b, QuatPoly.zero())
    assert gens[1] == (BinPoly.zero(), (2 * spec.f * spec.g).fold(3))
    assert gens[2] == (BinPoly.zero(), (2 * spec.f * spec.h).fold(3))


def test_subcode_order_two_particular_class():
    # A tuple with b = gcd(b, ell*g): the order-two subcode collapses to
    # the span of (b | 0) and (0 | 2f) and all their shifts.
    spec = validate_spec(3, 3, bp("x+1"), bp("1"), qp("1"), qp("x^2+x+1"))
    from z2z4cyclic import gf2poly as gf2

    assert gf2.gcd(spec.b, spec.ell * spec.g.reduce_mod2()) == spec.b
    rows = []
    for p, q in ((spec.b, QuatPoly.zero()), (BinPoly.zero(), 2 * spec.f)):
        base = Codeword(
            tuple(p.coeffs[i] if i < len(p.coeffs) else 0 for i in range(3)),
            tuple(q.coeffs[i] if i < len(q.coeffs) else 0 for i in range(3)),
        )
        rows.extend(cyclic_shift(base, -i) for i in range(3))
    span = _closure(rows)
    order_two = {w for w in word_set(codeword_matrix(spec), 3) if all(v in (0, 2) for v in w.uq)}
    assert span == order_two


def test_project_xy_worked_example(example_spec):
    px, py = project_xy(example_spec)
    assert (px, py) == (bp("x+1"), qp("x^2+x+3"))
    mat = codeword_matrix(example_spec)
    n_x = len(np.unique(mat[:, :3], axis=0))
    assert n_x == 2 ** (3 - px.degree) == 4


def test_project_xy_separable_and_mdss():
    spec = construct_self_dual_family(4, 3)
    assert project_xy(spec) == (spec.b, (spec.f * spec.h + 2 * spec.f).fold(3))
    mdss = construct_mdss(3, 3)
    px, _ = project_xy(mdss)
    assert px == bp("1")
    mat = codeword_matrix(mdss)
    assert len(np.unique(mat[:, :3], axis=0)) == 2**3  # X-projection is everything
