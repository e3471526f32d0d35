"""Structural analysis: distances, classifications, constructions, search.

code_report computes the minimum distance, the Hamming distance of the
Gray image (binary weight plus Lee weight), by exhaustive enumeration:
the words are the spec's sorted packed keys, enumerated once and cached
on the spec, and each word's weight is the popcount of its key's Gray
code.  Cyclic closure compares those keys with the span of the shifted
spanning rows (_span_keys).
Its MDSS, self-dual and separable flags reduce to exact comparisons of
type parameters and canonical word matrices: no floating point anywhere.

search_codes sweeps every valid generator tuple over small block
lengths: b runs over binary divisors of x^alpha - 1, the pair (f, h)
over monic Z4 divisor pairs of x^beta - 1 obtained as Hensel lifts of
binary divisor pairs, and ell over exactly the residues allowed by the
divisibility condition.  Tuples generating the same codeword set are
collapsed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import gf2poly as gf2
from . import z4poly as z4
from .code import (
    ENUM_CAP,
    CodeType,
    CyclicCodeSpec,
    _codeword_keys,
    _count_text,
    _deg,
    _gray_keys,
    _pairings,
    _projection_sizes,
    _reduce_blocks,
    _row_word,
    _shift_cols,
    _sort_keys,
    _span_keys,
    cardinality,
    code_type,
    code_type_from_words,
    codeword_matrix,
    circ_product,
    spec_fields,
    validate_spec,
)
from .dual import (
    brute_force_dual_matrix,
    dual_degrees,
    dual_spec,
    hensel_divisibility_check,
)
from .errors import InvalidParameter, TooLarge
from .gf2poly import BinPoly
from .poly import DEGREE_CAP, SEARCH_CAP
from .z4poly import QuatPoly


@dataclass(frozen=True)
class CodeReport:
    """Summary of one code: type, metric, and classification flags."""

    type: CodeType
    min_distance: int | None
    is_mdss: bool
    is_self_dual: bool
    is_separable: bool
    is_cyclic_verified: bool


# -- distance and classification ------------------------------------------


def _mdss_gap(spec: CyclicCodeSpec, d: int, t: CodeType) -> int:
    """Integer slack in the Singleton-type bound; zero means equality."""
    return (spec.alpha + 2 * spec.beta - t.gamma - 2 * t.delta) - (d - 1)


def _cyclic_closed(rows: np.ndarray, widths: np.ndarray, alpha: int, keys: np.ndarray) -> bool:
    """Whether the span of the rows, whose sorted distinct packed keys are keys, is closed
    under the block shift.  The shift is multiplication by x, so the shifted span is the
    span of the shifted rows, and it must equal keys."""
    shifted = rows[:, _shift_cols(alpha, rows.shape[1] - alpha, 1)]
    return bool(np.array_equal(_span_keys(shifted, widths, alpha), keys))


def _min_distance(keys: np.ndarray, alpha: int, n: int) -> int | None:
    """Least nonzero Gray weight of the packed words; None when the only word is zero."""
    weights = np.bitwise_count(_gray_keys(keys, alpha, n)).sum(axis=0, dtype=np.intp)
    nonzero = weights[weights > 0]
    return int(nonzero.min()) if len(nonzero) else None


def code_report(spec: CyclicCodeSpec, cap: int = ENUM_CAP) -> CodeReport:
    """Type, minimum distance, and all classification flags in one pass.

    The trivial code has min_distance None and is never MDSS.
    """
    mat = codeword_matrix(spec, cap)
    keys = _codeword_keys(spec, cap)
    t = code_type(spec)
    d = _min_distance(keys, spec.alpha, mat.shape[1])
    self_dual = False
    if 2 * (t.gamma + 2 * t.delta) == spec.alpha + 2 * spec.beta:
        self_dual = np.array_equal(mat, codeword_matrix(dual_spec(spec), cap))
    return CodeReport(
        type=t,
        min_distance=d,
        is_mdss=d is not None and _mdss_gap(spec, d, t) == 0,
        is_self_dual=self_dual,
        is_separable=t.is_separable,
        is_cyclic_verified=_cyclic_closed(spec._span_rows, spec._span_widths, spec.alpha, keys),
    )


# -- named constructions ---------------------------------------------------


def construct_self_dual_family(alpha: int, beta: int) -> CyclicCodeSpec:
    """The self-dual code with b = x^(alpha/2) - 1, ell = 0, f = 1, h = x^beta - 1."""
    if not isinstance(alpha, int) or alpha < 2 or alpha % 2:
        raise InvalidParameter("alpha must be a positive even integer")
    return validate_spec(
        alpha, beta, gf2.xn1(alpha // 2), BinPoly.zero(), QuatPoly.one(), z4.xn1(beta)
    )


def construct_mdss(alpha: int, beta: int) -> CyclicCodeSpec:
    """The code with b = x - 1, ell = 1, f = h = 1, of type (a, b; a-1, b; a-1)."""
    return validate_spec(
        alpha, beta, BinPoly.parse("x+1"), BinPoly.one(), QuatPoly.one(), QuatPoly.one()
    )


# -- exhaustive small-parameter search -------------------------------------


def _tuple_count(divisors: list[BinPoly], factors: list[BinPoly]) -> int:
    """How many tuples iter_valid_specs yields for these b and factors of x^beta - 1.

    A factor p outside b has 3 routes (f, h or g) and one ell each; a
    factor dividing b, routed to h or g, also frees deg p bits of ell.
    """
    return sum(
        math.prod(3 if b % p else 1 + 2 ** (_deg(p) + 1) for p in factors) for b in divisors
    )


def iter_valid_specs(alpha: int, beta: int):
    """Every valid generator tuple for the given block lengths, lazily.

    b runs over all binary divisors of x^alpha - 1; each irreducible
    factor of x^beta - 1 is routed to f, h, or g through its Hensel
    lift; ell runs over exactly the multiples of b/gcd(b, (x^beta-1)/f)
    below deg b, which is precisely the divisibility condition.  More
    than SEARCH_CAP tuples raise TooLarge before the first is built.
    """
    z4.check_beta(beta)
    factors = gf2.factor_xn1(beta)
    divisors = gf2.divisors_xn1(alpha)
    count = _tuple_count(divisors, factors)
    if count > SEARCH_CAP:
        raise TooLarge(f"{count} tuples for alpha = {alpha}, beta = {beta}, above the cap of {SEARCH_CAP}")
    basics = [z4.hensel_lift(p, beta) for p in factors]
    xb1 = gf2.xn1(beta)
    for b in divisors:
        for assign in itertools.product((0, 1, 2), repeat=len(basics)):
            f = QuatPoly.one()
            h = QuatPoly.one()
            for lift, slot in zip(basics, assign):
                if slot == 0:
                    f = f * lift
                elif slot == 1:
                    h = h * lift
            cofactor = gf2.exact_div(xb1, f.reduce_mod2())
            base = gf2.exact_div(b, gf2.gcd(b, cofactor))
            room = _deg(b) - _deg(base)
            for bits in range(1 << room):
                t = BinPoly._wrap(bits)
                yield validate_spec(alpha, beta, b, base * t, f, h)


_PREDICATES = ("self_dual", "mdss", "separable")


def search_codes(
    alpha_max: int,
    beta_set,
    predicate: str,
    cap: int = ENUM_CAP,
) -> list[tuple[CyclicCodeSpec, CodeReport]]:
    """All codes with alpha <= alpha_max, beta in beta_set matching the predicate.

    Distinct tuples generating equal codeword sets are collapsed to the
    earliest tuple in sort order (b by gf2.poly_key, then the coefficients
    of ell, f and h), so the result is deterministic.  A pair
    (alpha, beta) with more than SEARCH_CAP tuples raises TooLarge.
    """
    if predicate not in _PREDICATES:
        raise InvalidParameter(f"predicate must be one of {', '.join(_PREDICATES)}")
    if not isinstance(alpha_max, int) or isinstance(alpha_max, bool) or alpha_max < 1:
        raise InvalidParameter("alpha_max must be a positive integer")
    longest = max([alpha_max, *beta_set])
    if longest > DEGREE_CAP:
        raise TooLarge(f"block length {longest} is above the length cap of {DEGREE_CAP}")
    results = []
    for alpha in range(1, alpha_max + 1):
        for beta in sorted(set(beta_set)):
            seen: set[bytes] = set()
            specs = iter_valid_specs(alpha, beta)
            for spec in sorted(specs, key=lambda s: (gf2.poly_key(s.b), s.ell.coeffs, s.f.coeffs, s.h.coeffs)):
                key = codeword_matrix(spec, cap).tobytes()
                if key not in seen:
                    seen.add(key)
                    report = code_report(spec, cap)
                    if getattr(report, f"is_{predicate}"):
                        results.append((spec, report))
                # Drop the spec's cached keys, or every spec of the pair would hold its own.
                vars(spec).pop("_word_keys", None)
    return results


# -- report serialization ---------------------------------------------------


def report_dict(spec: CyclicCodeSpec, report: CodeReport) -> dict:
    """JSON-ready view of a report; the line format carries the same data."""
    return {
        "spec": spec_fields(spec),
        "type": str(report.type),
        "min_distance": report.min_distance,
        "is_mdss": report.is_mdss,
        "is_self_dual": report.is_self_dual,
        "is_separable": report.is_separable,
        "is_cyclic_verified": report.is_cyclic_verified,
    }


def _field_text(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def report_line(spec: CyclicCodeSpec, report: CodeReport) -> str:
    """report_dict as one line of key=value: flags as yes/no, no distance as -."""
    data = report_dict(spec, report)
    items = [*data.pop("spec").items(), *data.items()]
    return " ".join(f"{k}={_field_text(v)}" for k, v in items)


# -- invariant suite ---------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named invariant check; ok is None when a cap refused it."""

    name: str
    ok: bool | None
    detail: str


def _sample_rows(spec: CyclicCodeSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform random codewords from the spanning-set decomposition."""
    widths = spec._span_widths
    coeff = rng.integers(0, 1 << widths, size=(count, len(widths)), dtype=np.int16)
    return _reduce_blocks(coeff @ spec._span_rows, spec.alpha)


def _cyclic_correlation(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """out[k] = sum_j x[j] * y[(j + k) % n] for k < n = len(x), in int64."""
    x, y = x.astype(np.int64), y.astype(np.int64)
    return np.correlate(np.concatenate([y, y]), x, "valid")[: len(x)]


def _shifted_inner_products(r1: np.ndarray, r2: np.ndarray, alpha: int) -> np.ndarray:
    """inner_product(w1, cyclic_shift(w2, k)) for k < lcm(alpha, beta), on the words' rows.

    Shift k pairs Z2 coordinate j with j + k mod alpha and Z4 coordinate
    j with j + k mod beta, so the products are per-block cyclic
    correlations X and Y read at k mod alpha and k mod beta.
    """
    beta = len(r1) - alpha
    k = np.arange(math.lcm(alpha, beta))
    x = _cyclic_correlation(r1[:alpha], r2[:alpha])
    y = _cyclic_correlation(r1[alpha:], r2[alpha:])
    return (2 * x[k % alpha] + y[k % beta]) % 4


def verify_code(spec: CyclicCodeSpec, seed: int = 0, cap: int = ENUM_CAP) -> list[CheckResult]:
    """Run every invariant the construction promises, on one spec.

    Returns every named check in a fixed order.  The caps act in three ways:

    * |C| above cap raises TooLarge at once; no check result is returned.
    * A dual-side check whose enumeration raises TooLarge stays in the
      list as skipped, with ok None and the refusal as its detail:
      |C_dual| above cap skips "dual-oracle" and "duality-involution",
      and an ambient space above dual.AMBIENT_CAP skips "dual-oracle".
    * lcm(alpha, beta) above poly.DEGREE_CAP raises TooLarge from
      circ_product; no check result is returned.
    """
    # default_rng rejects negative seeds, and --seed takes any integer.
    rng = np.random.default_rng(abs(seed))
    out: list[CheckResult] = []

    def check(name: str, ok: bool, detail: str) -> None:
        out.append(CheckResult(name, bool(ok), detail))

    def skip(name: str, refusal: TooLarge) -> None:
        out.append(CheckResult(name, None, str(refusal)))

    t = code_type(spec)
    g2h2 = gf2.exact_div(gf2.xn1(spec.beta), spec.f.reduce_mod2())
    check(
        "defining-conditions",
        (not gf2.xn1(spec.alpha) % spec.b)
        and (spec.f * spec.h * spec.g == z4.xn1(spec.beta))
        and (not (spec.ell * g2h2) % spec.b),
        "b | x^alpha-1, f*h*g = x^beta-1, b | ell*(x^beta-1)/f mod 2",
    )
    check(
        "hensel-divisibility",
        hensel_divisibility_check(spec),
        "Hensel lift of b/gcd(b, ell*g) divides h",
    )

    mat = codeword_matrix(spec, cap)
    check(
        "cardinality-formula",
        len(mat) == 2**t.gamma * 4**t.delta,
        f"|C| = {len(mat)} = 2^{t.gamma} * 4^{t.delta}",
    )
    measured = code_type_from_words(spec.alpha, spec.beta, mat)
    check(
        "type-parameters",
        measured == t,
        f"measured {measured} vs formula {t}",
    )
    keys = _codeword_keys(spec, cap)
    rows = spec._span_rows
    check(
        "cyclic-closure",
        _cyclic_closed(rows, spec._span_widths, spec.alpha, keys),
        "shifted word set equals word set",
    )
    check(
        "spanning-set-size",
        len(rows) == t.gamma + t.delta,
        f"{len(rows)} spanning rows for gamma + delta = {t.gamma + t.delta}",
    )
    n_x, n_y = _projection_sizes(keys, spec.alpha, mat.shape[1])
    check(
        "projection-sizes",
        n_x == 2 ** (t.kappa + t.delta1) and n_y == 2 ** (t.gamma - t.kappa1) * 4**t.delta,
        f"|C_X| = {n_x}, |C_Y| = {n_y}",
    )
    check(
        "separability-agreement",
        t.is_separable == spec.ell.is_zero == (n_x * n_y == len(mat)),
        f"kappa2/delta1 test {t.is_separable}, ell = 0 is {spec.ell.is_zero}, "
        f"|C_X|*|C_Y| = {n_x * n_y} vs |C| = {len(mat)}",
    )
    check(
        "gray-injectivity",
        _sort_keys(_gray_keys(keys, spec.alpha, mat.shape[1])).shape[1] == len(mat),
        "Gray images are pairwise distinct",
    )

    dspec = dual_spec(spec)
    dd = dual_degrees(spec)
    td = code_type(dspec)
    check(
        "dual-type-formulas",
        (td.gamma, td.delta, td.kappa) == (dd.gamma_bar, dd.delta_bar, dd.kappa_bar),
        f"dual type {td} vs predicted ({dd.gamma_bar},{dd.delta_bar},{dd.kappa_bar})",
    )
    product = len(mat) * cardinality(dspec)
    check(
        "cardinality-product",
        product == 2 ** (spec.alpha + 2 * spec.beta),
        f"|C| * |C_dual| = {_count_text(product)} = 2^{spec.alpha + 2 * spec.beta}",
    )
    try:
        dual_mat = codeword_matrix(dspec, cap)
    except TooLarge as e:
        skip("dual-oracle", e)
        skip("duality-involution", e)
    else:
        try:
            brute = brute_force_dual_matrix(spec, cap)
        except TooLarge as e:
            skip("dual-oracle", e)
        else:
            check(
                "dual-oracle",
                np.array_equal(dual_mat, brute),
                f"formula dual = brute-force dual: {len(brute)} codewords",
            )
        redual = codeword_matrix(dual_spec(dspec), cap)
        check(
            "duality-involution",
            np.array_equal(redual, mat),
            "dual of the dual reproduces the codeword set",
        )

    sample_c = _sample_rows(spec, rng, 64)
    sample_d = _sample_rows(dspec, rng, 64)
    check(
        "orthogonality",
        not _pairings(sample_c, sample_d, spec.alpha).any(),
        f"{len(sample_c)} sampled pairs from C x C_dual have zero inner product",
    )
    pairs = 8
    circ_ok = True
    shift_ok = True
    for i in range(pairs):
        w1 = _row_word(sample_c[i], spec.alpha)
        w2 = _row_word(sample_d[i], spec.alpha)
        circ_zero = circ_product(w1, w2).is_zero
        shifts_zero = not _shifted_inner_products(sample_c[i], sample_d[i], spec.alpha).any()
        circ_ok = circ_ok and circ_zero
        shift_ok = shift_ok and (circ_zero == shifts_zero)
    check("circ-orthogonality", circ_ok, f"{pairs} sampled pairs have zero circ product")
    check(
        "circ-shift-equivalence",
        shift_ok,
        "circ product vanishes exactly when all shifted inner products do",
    )
    return out
