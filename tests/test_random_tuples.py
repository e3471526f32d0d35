"""Oracle coverage past the family: uniform random generator tuples.

_tuple_count is a product over cyclotomic cosets, so the tuple set is a
product too.  Write alpha = 2^s * m with m odd.  Each irreducible factor p
of (x^m - 1)(x^beta - 1) makes one independent choice (e, r):

* e, the exponent of p in b: 0 .. 2^s when p divides x^m - 1, else 0;
* r, the route of p's Hensel lift into f, h or g when p divides
  x^beta - 1, else None.

ell is then (b / gcd(b, (x^beta - 1)/f mod 2)) * t with deg ell < deg b,
so t runs below 2^room, room = deg gcd(b, (x^beta - 1)/f mod 2).  That gcd
is the product of the factors with e >= 1 and r in {h, g}, so a choice
stands for 2^deg p tuples when e >= 1 and r is h or g, and for one tuple
otherwise.  Drawing each choice with that weight, then t uniformly, draws
a uniform tuple, at any length up to DEGREE_CAP.
"""

import itertools
import random

import numpy as np

from z2z4cyclic import (
    BinPoly,
    QuatPoly,
    cardinality,
    dual_spec,
    hensel_divisibility_check,
    hensel_lift,
    iter_valid_specs,
    validate_spec,
    verify_code,
)
from z2z4cyclic import gf2poly as gf2
from z2z4cyclic.analysis import _sample_rows, _tuple_count
from z2z4cyclic.code import _pairings
from z2z4cyclic.gf2poly import _clmul
from z2z4cyclic.z4poly import _mod2_bits

ROUTES = ("f", "h", "g")


def coset_options(alpha, beta):
    """Per irreducible factor p, its lift into Z4 (None when p does not divide
    x^beta - 1) and its choices (p, e, r, weight)."""
    mult = alpha & -alpha
    binary = gf2.factor_xn1(alpha // mult)
    quaternary = gf2.factor_xn1(beta)
    out = []
    for p in dict.fromkeys(binary + quaternary):
        exponents = range(mult + 1) if p in binary else (0,)
        routes = ROUTES if p in quaternary else (None,)
        lift = hensel_lift(p, beta) if p in quaternary else None
        choices = [
            (p, e, r, 2**p.degree if e and r in ("h", "g") else 1)
            for e in exponents
            for r in routes
        ]
        out.append((lift, choices))
    return out


def build(beta, lifts, choices, t):
    """The tuple (b, ell, f, h) of one choice per factor and the multiplier t of ell."""
    b, f, h = BinPoly.one(), QuatPoly.one(), QuatPoly.one()
    for lift, (p, e, r, _) in zip(lifts, choices):
        b = b * p**e
        if r == "f":
            f = f * lift
        elif r == "h":
            h = h * lift
    base = gf2.exact_div(b, gf2.gcd(b, gf2.exact_div(gf2.xn1(beta), f.reduce_mod2())))
    return b, base * BinPoly._wrap(t), f, h


def room(choices):
    """log2 of the tuples one choice per factor stands for: the bits of t."""
    return sum(p.degree for p, _, _, weight in choices if weight > 1)


def all_tuples(alpha, beta):
    """Every tuple, once: each combination of choices, then each t."""
    options = coset_options(alpha, beta)
    lifts = [lift for lift, _ in options]
    for choices in itertools.product(*(c for _, c in options)):
        for t in range(1 << room(choices)):
            yield build(beta, lifts, choices, t)


def random_tuple(alpha, beta, rng):
    """One uniform tuple: each factor's choice drawn by weight, then t uniformly."""
    options = coset_options(alpha, beta)
    choices = [rng.choices(c, weights=[w for *_, w in c])[0] for _, c in options]
    t = rng.getrandbits(room(choices))
    return validate_spec(alpha, beta, *build(beta, [lift for lift, _ in options], choices, t))


def random_specs(seed, count, max_length):
    """count uniform tuples, each on a uniform alpha and odd beta up to max_length."""
    rng = random.Random(seed)
    for _ in range(count):
        alpha = rng.randint(1, max_length)
        beta = rng.randrange(1, max_length + 1, 2)
        yield random_tuple(alpha, beta, rng)


def test_all_choices_give_exactly_the_valid_tuples():
    total = 0
    for alpha in range(1, 9):
        for beta in (1, 3, 5, 7):
            made = list(all_tuples(alpha, beta))
            assert len(made) == len(set(made)) == _tuple_count(alpha, beta), (alpha, beta)
            assert set(made) == {(s.b, s.ell, s.f, s.h) for s in iter_valid_specs(alpha, beta)}
            total += len(made)
    assert total == 6396


def test_closed_form_laws_on_random_tuples():
    # Sampled words are paired only on rows of at most 1100 entries: a long dual
    # has thousands of spanning rows, and sampling it is the slow part.
    paired = 0
    for max_length in (255, 1023, 4095):
        for i, spec in enumerate(random_specs(max_length, 20, max_length)):
            dspec = dual_spec(spec)
            assert dual_spec(dspec) == spec
            assert cardinality(spec) * cardinality(dspec) == 2 ** (spec.alpha + 2 * spec.beta)
            assert hensel_divisibility_check(spec)
            if spec.alpha + spec.beta <= 1100:
                rng = np.random.default_rng(i)
                words, dual_words = _sample_rows(spec, rng, 16), _sample_rows(dspec, rng, 16)
                assert not _pairings(words[:, None], dual_words[None], spec.alpha).any(), spec
                paired += 1
    assert paired >= 20


def test_validation_keeps_the_mod_2_images():
    # g mod 2, h mod 2 and ell*g mod 2, kept by validation, on the 820 family
    # specs and on random tuples up to length 4095, against a recomputation.
    family = [s for alpha in range(1, 6) for beta in (1, 3, 5) for s in iter_valid_specs(alpha, beta)]
    randoms = [s for n in (255, 1023, 4095) for s in random_specs(n, 20, n)]
    assert len(family) == 820
    for spec in family + randoms:
        g2 = _mod2_bits(spec.g._rep)
        assert (spec._g2, spec._h2, spec._ell_g2) == (g2, _mod2_bits(spec.h._rep), _clmul(spec.ell._rep, g2))


def test_verify_passes_on_random_small_tuples():
    rng = random.Random(24)
    seen = 0
    while seen < 40:
        beta = rng.randrange(1, 12, 2)
        alpha = rng.randint(1, 24 - 2 * beta)
        spec = random_tuple(alpha, beta, rng)
        if cardinality(spec) > 2**16:
            continue
        results = verify_code(spec, seed=seen)
        assert [r.name for r in results if r.ok is False] == [], spec
        seen += 1
