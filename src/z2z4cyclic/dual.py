"""Dual codes in closed form, plus a brute-force dual oracle.

The dual of an additive cyclic code is again additive cyclic, and its
generator tuple (b_bar, ell_bar, f_bar, h_bar) can be written directly
in terms of the original tuple: reciprocals and gcds give b_bar and the
binary images of f_bar*h_bar and f_bar, Hensel lifting carries those
back to Z4, and ell_bar is assembled from modular inverses of
rho = ell/gcd(b, ell).  Separable codes (ell = 0) take a shortcut where
every dual factor is a normalized reciprocal.

contains decides membership from the closed form: C = (C_dual)^perp, so
a word is a codeword exactly when it is orthogonal to every spanning row
of dual_spec(spec).

brute_force_dual_matrix is the independent check: it finds every
ambient vector orthogonal to the spanning set, which is what the
definition of the dual says and nothing more.  It uses only that
definition and the bilinearity of the inner product: each ambient index
splits into its low and high bits, the residues of each half against
every spanning row are tabulated once, and a vector is in the dual
exactly when its low half's residues cancel its high half's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gf2poly as gf2
from . import z4poly as z4
from .code import (
    ENUM_CAP,
    Codeword,
    CyclicCodeSpec,
    _check_cap,
    _count_text,
    _deg,
    _pairings,
    cardinality,
    code_type,
    validate_spec,
)
from .errors import NotADivisor, TooLarge
from .gf2poly import BinPoly
from .z4poly import QuatPoly

AMBIENT_CAP = 2**24


@dataclass(frozen=True)
class DualDegrees:
    """Predicted degrees of the dual tuple and the dual type parameters."""

    deg_b_bar: int
    deg_f_bar: int
    deg_h_bar: int
    deg_g_bar: int
    gamma_bar: int
    delta_bar: int
    kappa_bar: int


@dataclass(frozen=True)
class DualResult:
    """Dual generator tuple; mu1/mu2/rho are None on the separable path."""

    b_bar: BinPoly
    ell_bar: BinPoly
    f_bar: QuatPoly
    h_bar: QuatPoly
    g_bar: QuatPoly
    mu1: BinPoly | None
    mu2: BinPoly | None
    rho: BinPoly | None


def dual_degrees(spec: CyclicCodeSpec) -> DualDegrees:
    """Degrees of (b_bar, f_bar, h_bar, g_bar) and the dual type, by formula."""
    gl = gf2.gcd(spec.b, spec.ell)
    glg = gf2.gcd(spec.b, spec.ell * spec.g.reduce_mod2())
    t = code_type(spec)
    return DualDegrees(
        deg_b_bar=spec.alpha - _deg(gl),
        deg_f_bar=_deg(spec.g) + _deg(gl) - _deg(glg),
        deg_h_bar=_deg(spec.h) - _deg(spec.b) - _deg(gl) + 2 * _deg(glg),
        deg_g_bar=_deg(spec.f) + _deg(spec.b) - _deg(glg),
        gamma_bar=spec.alpha + t.gamma - 2 * t.kappa,
        delta_bar=spec.beta - t.gamma - t.delta + t.kappa,
        kappa_bar=spec.alpha - t.kappa,
    )


def _mu(ell: BinPoly, rho_star: BinPoly, modulus: BinPoly) -> BinPoly:
    """x^deg(ell) * rho*^-1 reduced mod modulus; zero when the modulus is 1."""
    if modulus.degree < 1:
        return BinPoly.zero()
    return (BinPoly.x(_deg(ell)) * gf2.modinv(rho_star, modulus)) % modulus


def dual_generators(spec: CyclicCodeSpec) -> DualResult:
    """The dual code's generator tuple, computed in closed form.

    The result is validated end to end: the tuple must pass every
    generator-tuple condition and its degrees must match dual_degrees.
    A failure of either check is an internal error, never a data error.
    """
    a, beta = spec.alpha, spec.beta
    if spec.ell.is_zero:
        b_bar = gf2.exact_div(gf2.xn1(a), spec.b.reciprocal())
        ell_bar = BinPoly.zero()
        f_bar = z4.make_monic(spec.g.reciprocal())
        h_bar = z4.make_monic(spec.h.reciprocal())
        mu1 = mu2 = rho = None
    else:
        gl = gf2.gcd(spec.b, spec.ell)
        glg = gf2.gcd(spec.b, spec.ell * spec.g.reduce_mod2())
        b_star, gl_star, glg_star = spec.b.reciprocal(), gl.reciprocal(), glg.reciprocal()
        f2_star = spec.f.reduce_mod2().reciprocal()
        h2_star = spec.h.reduce_mod2().reciprocal()
        b_bar = gf2.exact_div(gf2.xn1(a), gl_star)
        fh_bar_bin = gf2.exact_div(gf2.xn1(beta) * glg_star, f2_star * b_star)
        f_bar_bin = gf2.exact_div(gf2.xn1(beta) * gl_star, f2_star * h2_star * glg_star)
        f_bar = z4.hensel_lift(f_bar_bin, beta)
        fh_bar = z4.hensel_lift(fh_bar_bin, beta)
        # rho is coprime to b/gcd(b, ell), so both inverses below exist.
        rho = gf2.exact_div(spec.ell, gl)
        rho_star = rho.reciprocal()
        cofactor1 = gf2.exact_div(b_star, glg_star)
        cofactor2 = gf2.exact_div(b_star, gl_star)
        mu1 = _mu(spec.ell, rho_star, cofactor1)
        mu2 = _mu(spec.ell, rho_star, cofactor2)
        m = math.lcm(a, beta)
        e1 = (m - _deg(spec.f)) % a
        e2 = (m - _deg(spec.f * spec.h)) % a
        ell_bar = gf2.exact_div(gf2.xn1(a), b_star) * (
            gf2.exact_div(glg_star, gl_star) * BinPoly.x(e1) * mu1
            + cofactor1 * BinPoly.x(e2) * mu2
        )
        ell_bar = ell_bar.fold(a) % b_bar
        h_bar, rem = divmod(fh_bar, f_bar)
        if rem:
            raise ArithmeticError(
                f"internal error: ({fh_bar}) is not divisible by ({f_bar}) over Z4"
            )
    dual = validate_spec(a, beta, b_bar, ell_bar, f_bar, h_bar)
    dd = dual_degrees(spec)
    got = (_deg(dual.b), _deg(dual.f), _deg(dual.h), _deg(dual.g))
    want = (dd.deg_b_bar, dd.deg_f_bar, dd.deg_h_bar, dd.deg_g_bar)
    if got != want:
        raise ArithmeticError(f"internal error: dual degrees {got} differ from predicted {want}")
    return DualResult(b_bar, ell_bar, f_bar, h_bar, dual.g, mu1, mu2, rho)


def dual_spec(spec: CyclicCodeSpec) -> CyclicCodeSpec:
    """The dual code as a validated generator tuple."""
    d = dual_generators(spec)
    return validate_spec(spec.alpha, spec.beta, d.b_bar, d.ell_bar, d.f_bar, d.h_bar)


def contains(spec: CyclicCodeSpec, w: Codeword) -> bool:
    """Whether w is a codeword, decided as C = (C_dual)^perp without enumerating C:
    w has the code's block lengths and is orthogonal to every spanning row of
    dual_spec(spec)."""
    if len(w.u) != spec.alpha or len(w.uq) != spec.beta:
        return False
    return not _pairings(dual_spec(spec)._span_rows, w.u + w.uq, spec.alpha).any()


def _residue_keys(coef: np.ndarray) -> np.ndarray:
    """Packed residues, 2 bits per spanning row, of every index over these bits.

    coef[k] holds bit k's contribution mod 4 to the inner product with
    each spanning row; entry i of the result packs the residues of
    sum_k bit_k(i) * coef[k], with row r in bits 2r and 2r + 1.
    """
    res = np.zeros((1, coef.shape[1]), dtype=np.int64)
    for c in coef:
        res = np.concatenate([res, (res + c) % 4])
    return (res << 2 * np.arange(coef.shape[1])).sum(axis=1)


def brute_force_dual_matrix(spec: CyclicCodeSpec, cap: int = ENUM_CAP) -> np.ndarray:
    """All ambient vectors orthogonal to the code, as a canonical matrix.

    Ambient index i is the vector written MSB-first in row order: with n =
    alpha + 2*beta, Z2 coordinate j is bit n - 1 - j, and Z4 coordinate j
    is bits 2(beta - 1 - j) + 1 (high) and 2(beta - 1 - j) (low), so
    sorting indices sorts rows.  The inner product with a spanning row is
    a sum of per-bit contributions mod 4, so i = lo + (hi << n//2) is
    orthogonal to every spanning row (and, by additivity, to the code)
    exactly when lo's residues are minus hi's.  Both halves' residue
    vectors are tabulated and packed into integer keys, the keys are
    matched by one sort, and the matching indices are sorted and decoded.
    The survivor count is asserted against the product law |C| * |C_dual|
    = 2^n.

    An ambient space above AMBIENT_CAP vectors, or a dual of more than
    cap words, raises TooLarge before any table is built.
    """
    _check_cap(cap)
    a, beta = spec.alpha, spec.beta
    n = a + 2 * beta
    total = 2**n
    if total > AMBIENT_CAP:
        raise TooLarge(
            f"ambient space has {_count_text(total)} vectors, above the cap of {AMBIENT_CAP}"
        )
    expected = total // cardinality(spec)
    if expected > cap:
        raise TooLarge(f"dual has {expected} codewords, above the cap of {cap}")
    rows = spec._span_rows.astype(np.int64)
    # Contribution of each index bit, most significant first: 2u for a Z2
    # bit, 2q and q for the high and low bits of a Z4 coordinate.  Reversed,
    # coef[k] is bit k's.
    coef = np.empty((n, len(rows)), dtype=np.int64)
    coef[:a] = 2 * rows[:, :a].T
    coef[a::2] = 2 * rows[:, a:].T
    coef[a + 1 :: 2] = rows[:, a:].T
    coef = coef[::-1] % 4
    half = n // 2
    lo_keys = _residue_keys(coef[:half])
    hi_keys = _residue_keys((-coef[half:]) % 4)
    order = np.argsort(lo_keys)
    sorted_lo = lo_keys[order]
    left = np.searchsorted(sorted_lo, hi_keys, side="left")
    counts = np.searchsorted(sorted_lo, hi_keys, side="right") - left
    starts = np.cumsum(counts) - counts
    pos = np.arange(counts.sum()) - np.repeat(starts - left, counts)
    idx = order[pos] + (np.repeat(np.arange(len(hi_keys), dtype=np.int64), counts) << half)
    # The indices are distinct, so this only sorts them; return_index keeps
    # np.unique of 1-D input on its sort path rather than a slower hash path.
    idx = np.unique(idx, axis=0, return_index=True)[0]
    # Decoded one column at a time, so no temporary is wider than idx.
    words = np.empty((len(idx), a + beta), dtype=np.int16)
    for j in range(a):
        words[:, j] = (idx >> (n - 1 - j)) & 1
    for j in range(beta):
        words[:, a + j] = (idx >> (2 * (beta - 1 - j))) & 3
    if len(words) != expected:
        raise ArithmeticError(
            f"internal error: ambient scan found {len(words)} dual words, formula says {expected}"
        )
    return words


def hensel_divisibility_check(spec: CyclicCodeSpec) -> bool:
    """Whether the Hensel lift of b/gcd(b, ell*g) divides h over Z4.

    True for every valid generator tuple; exposed as a diagnostic so
    property tests can exercise the statement directly.  A lift that
    fails with NotADivisor gives False; any other error propagates.
    """
    quotient = gf2.exact_div(spec.b, gf2.gcd(spec.b, spec.ell * spec.g.reduce_mod2()))
    try:
        lift = z4.hensel_lift(quotient, spec.beta)
    except NotADivisor:
        return False
    return not (spec.h % lift)
