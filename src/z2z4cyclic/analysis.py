"""Structural analysis: distances, classifications, constructions, search.

code_report computes the minimum distance, the Hamming distance of the
Gray image (binary weight plus Lee weight), by exhaustive enumeration:
the words are the spec's sorted packed keys, enumerated once and cached
on the spec, and each word's weight is the popcount of its key's Gray
code.  Cyclic closure compares those keys with the span of the shifted
spanning rows (_span_keys).  code_report reads the keys, runs the
closure's sort and only then decodes the words, so no decoded matrix is
alive beside the sort's temporaries; the distance is read from the keys
after the first, which is the zero word, as uint8 popcounts summed in
uint16.
Its MDSS, self-dual and separable flags reduce to exact comparisons of
type parameters and canonical word matrices: no floating point anywhere.

search_codes sweeps every valid generator tuple over small block
lengths: b runs over binary divisors of x^alpha - 1, the pair (f, h)
over monic Z4 divisor pairs of x^beta - 1 obtained as Hensel lifts of
binary divisor pairs, and ell over exactly the residues allowed by the
divisibility condition.  Tuples generating the same codeword set are
collapsed, on the digests of their codeword matrices.
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
    _check_period,
    _check_words,
    _codeword_keys,
    _gray_keys,
    _pairings,
    _projection_sizes,
    _reduce_blocks,
    _row_word,
    _sort_keys,
    _span_keys,
    _unit_shift_cols,
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
from .errors import InvalidParameter, InvalidSpec, TooLarge
from .gf2poly import BinPoly
from .poly import SEARCH_CAP, _check_length, _count_text
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


def _cyclic_closed(rows: np.ndarray, alpha: int, keys: np.ndarray) -> bool:
    """Whether the span of the rows, whose sorted distinct packed keys are keys, is closed
    under the block shift.  The shift is multiplication by x, so the shifted span is the
    span of the shifted rows (a shift keeps each row's order), and it must equal keys."""
    shifted = rows[:, _unit_shift_cols(alpha, rows.shape[1] - alpha)]
    return bool(np.array_equal(_span_keys(shifted, alpha), keys))


def _min_distance(keys: np.ndarray, alpha: int, n: int) -> int | None:
    """Least nonzero Gray weight of the sorted distinct packed words; None when the only
    word is zero.  The zero word is the first key, and every other weight is 1 ..
    alpha + 2*beta <= 12288, so the Gray popcounts of the rest sum in uint16."""
    if keys[:, 0].any():
        raise ArithmeticError("internal error: the first codeword key is not the zero word")
    weights = np.bitwise_count(_gray_keys(keys[:, 1:], alpha, n)).sum(axis=0, dtype=np.uint16)
    return int(weights.min()) if weights.size else None


def code_report(spec: CyclicCodeSpec, cap: int = ENUM_CAP) -> CodeReport:
    """Type, minimum distance, and all classification flags in one pass.

    The trivial code has min_distance None and is never MDSS.
    """
    keys = _codeword_keys(spec, cap)
    cyclic = _cyclic_closed(spec._span_rows, spec.alpha, keys)
    mat = codeword_matrix(spec, cap)
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
        is_cyclic_verified=cyclic,
    )


# -- named constructions ---------------------------------------------------


def construct_self_dual_family(alpha: int, beta: int) -> CyclicCodeSpec:
    """The self-dual code with b = x^(alpha/2) - 1, ell = 0, f = 1, h = x^beta - 1."""
    if not isinstance(alpha, int) or alpha < 2 or alpha % 2:
        raise InvalidParameter("alpha must be a positive even integer")
    # The spec's length checks, in its words, before x^(alpha/2) - 1 and x^beta - 1 exist.
    _check_length(alpha, "alpha", InvalidSpec)
    _check_length(beta, "beta", InvalidSpec)
    return validate_spec(
        alpha, beta, gf2.xn1(alpha // 2), BinPoly.zero(), QuatPoly.one(), z4.xn1(beta)
    )


def construct_mdss(alpha: int, beta: int) -> CyclicCodeSpec:
    """The code with b = x - 1, ell = 1, f = h = 1, of type (a, b; a-1, b; a-1)."""
    return validate_spec(
        alpha, beta, BinPoly.parse("x+1"), BinPoly.one(), QuatPoly.one(), QuatPoly.one()
    )


# -- exhaustive small-parameter search -------------------------------------


def _tuple_count(alpha: int, beta: int) -> int:
    """How many tuples iter_valid_specs yields, from cyclotomic cosets alone.

    For alpha = 2^s * m, m odd, b takes each factor of x^m - 1 0 .. 2^s times.  A factor p
    of x^beta - 1 (a coset mod beta) outside b has 3 routes (f, h or g); one dividing b, so
    x^gcd(alpha, beta) - 1, has 1 + 2^(deg p + 1), as h or g frees deg p bits of ell.
    """
    mult, k = gf2._divisor_shape(alpha)
    shared = [len(c) for c in gf2._cosets(math.gcd(alpha, beta))]
    free = 3 ** (len(gf2._cosets(beta)) - len(shared)) * (mult + 1) ** (k - len(shared))
    return free * math.prod(3 + mult * (1 + 2 ** (d + 1)) for d in shared)


def _check_pair(alpha: int, beta: int) -> None:
    """Refuse an invalid beta, then more than SEARCH_CAP divisors or tuples for the pair."""
    z4.check_beta(beta)
    count = _tuple_count(alpha, beta)
    if count > SEARCH_CAP:
        raise TooLarge(
            f"{_count_text(count)} tuples for alpha = {alpha}, beta = {beta}, above the cap of {SEARCH_CAP}"
        )


def iter_valid_specs(alpha: int, beta: int):
    """Every valid generator tuple for the given block lengths, lazily.

    b runs over all binary divisors of x^alpha - 1; each irreducible
    factor of x^beta - 1 is routed to f, h, or g through its Hensel
    lift; ell runs over exactly the multiples of b/gcd(b, (x^beta-1)/f)
    below deg b, which is precisely the divisibility condition.  More than
    SEARCH_CAP divisors or tuples raise TooLarge before anything is factored.
    """
    _check_pair(alpha, beta)
    basics = [z4.hensel_lift(p, beta) for p in gf2.factor_xn1(beta)]
    xb1 = gf2.xn1(beta)
    for b in gf2.divisors_xn1(alpha):
        for assign in itertools.product((0, 1, 2), repeat=len(basics)):
            f = h = QuatPoly.one()
            for lift, slot in zip(basics, assign):
                if slot == 0:
                    f = f * lift
                elif slot == 1:
                    h = h * lift
            cofactor = gf2.exact_div(xb1, f.reduce_mod2())
            base = gf2.exact_div(b, gf2.gcd(b, cofactor))
            room = b.degree - base.degree
            for bits in range(1 << room):
                yield validate_spec(alpha, beta, b, base * BinPoly._wrap(bits), f, h)


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
    of ell, f and h), so the result is deterministic; a code is recognised
    by the SHA-256 digest of its codeword matrix, so a pair holds 32 bytes
    per distinct code, not its words.  alpha_max and each beta, in the order
    given, are checked as lengths first, so the first bad one is named: a
    beta_set that is not iterable, or holds anything but ints, raises
    InvalidParameter.  A pair (alpha, beta) with more than SEARCH_CAP
    tuples, or whose ambient has more than cap words, raises TooLarge
    before the first pair is searched.
    """
    # Imported here, not with the module: hashlib loads OpenSSL, about 3.5 MB of
    # resident memory that no other entry point needs.
    import hashlib

    if predicate not in _PREDICATES:
        raise InvalidParameter(f"predicate must be one of {', '.join(_PREDICATES)}")
    _check_length(alpha_max, "alpha_max")
    try:
        given = list(beta_set)
    except TypeError:
        raise InvalidParameter(f"beta_set must be an iterable of integers, not {beta_set!r}") from None
    # In the order given, before the sort, so that the sort compares only ints.
    for beta in given:
        _check_length(beta, "beta")
    betas = sorted(set(given))
    pairs = [(alpha, beta) for alpha in range(1, alpha_max + 1) for beta in betas]
    # A pair's first tuple in sort order, b = 1, ell = 0, f = h = 1, is the whole
    # ambient and its largest code, so the first refusal the sweep would meet is
    # found here, before anything is factored or enumerated.
    for alpha, beta in pairs:
        _check_pair(alpha, beta)
        _check_words(2 ** (alpha + 2 * beta), cap)
    results = []
    for alpha, beta in pairs:
        seen: set[bytes] = set()
        specs = iter_valid_specs(alpha, beta)
        for spec in sorted(specs, key=lambda s: (gf2.poly_key(s.b), s.ell.coeffs, s.f.coeffs, s.h.coeffs)):
            key = hashlib.sha256(codeword_matrix(spec, cap)).digest()
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
    """Uniform random codewords from the spanning-set decomposition.

    Every coefficient is uniform on Z4, whatever the row's order: for an
    order-two row r, c*r is 0 or r with probability 1/2 each.  The uint8
    product wraps mod 256, a multiple of 4, so the reduced words are exact."""
    coeff = rng.integers(0, 4, size=(count, len(spec._span_rows)), dtype=np.uint8)
    # einsum, not @: numpy runs an integer @ as a naive loop, tens of times slower
    # than einsum's sum of products on the 8190 spanning rows of a (4095, 4095) dual.
    return _reduce_blocks(np.einsum("ij,jk->ik", coeff, spec._span_rows), spec.alpha)


def _cyclic_correlation(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """out[..., k] = sum_j x[..., j] * y[..., (j + k) % n] for k < n = x.shape[-1], in
    int64, over any leading axes: one matmul of x with the n windows of the doubled y.
    Window k is the n entries of the doubled y from entry k on, a read-only strided view
    of it that is never copied, made by the np.ndarray constructor on the doubled y's
    buffer (as_strided and sliding_window_view run Python-level checks that cost more
    than the product at the family's lengths)."""
    n = x.shape[-1]
    doubled = np.concatenate([y, y], axis=-1).astype(np.int64)
    step = doubled.strides[-1:]
    windows = np.ndarray(doubled.shape[:-1] + (n, n), np.int64, doubled, 0, doubled.strides + step)
    windows.flags.writeable = False
    return np.matmul(windows, x.astype(np.int64)[..., None])[..., 0]


def _shifted_inner_products(r1: np.ndarray, r2: np.ndarray, alpha: int) -> np.ndarray:
    """inner_product(w1, cyclic_shift(w2, k)) for k < lcm(alpha, beta), on the words'
    rows, over any leading axes: out[..., k] pairs r1[...] with r2[...].

    Shift k pairs Z2 coordinate j with j + k mod alpha and Z4 coordinate
    j with j + k mod beta, so the products are per-block cyclic
    correlations X and Y read at k mod alpha and k mod beta.
    """
    beta = r1.shape[-1] - alpha
    k = np.arange(math.lcm(alpha, beta))
    x = _cyclic_correlation(r1[..., :alpha], r2[..., :alpha])
    y = _cyclic_correlation(r1[..., alpha:], r2[..., alpha:])
    return (2 * x[..., k % alpha] + y[..., k % beta]) % 4


def verify_code(spec: CyclicCodeSpec, seed: int = 0, cap: int = ENUM_CAP) -> list[CheckResult]:
    """Run every invariant the construction promises, on one spec.

    Returns every named check in a fixed order.  A refusal about the code
    comes before any check runs, and a refusal about one check skips only
    that check:

    * A seed that is a bool or not an int raises InvalidParameter, then
      |C| above cap, then lcm(alpha, beta) above poly.DEGREE_CAP (the
      period circ_product pairs words over), raise TooLarge before the
      first check; no check result is returned.
    * "dual-oracle" is the one check a cap can skip: |C_dual| above cap,
      or an ambient space above dual.AMBIENT_CAP, keeps it in the list
      with ok None and the refusal as its detail.  "duality-involution"
      enumerates only C, by way of dual_spec(dual_spec(C)), so it always
      runs.
    """
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InvalidParameter(f"seed must be an integer, not {seed!r}")
    _check_words(cardinality(spec), cap)
    _check_period(spec.alpha, spec.beta)
    # default_rng rejects negative seeds, and --seed takes any integer.
    rng = np.random.default_rng(abs(seed))
    out: list[CheckResult] = []

    def check(name: str, ok: bool, detail: str) -> None:
        out.append(CheckResult(name, bool(ok), detail))

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
        _cyclic_closed(rows, spec.alpha, keys),
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
        brute = brute_force_dual_matrix(spec, cap)
    except TooLarge as e:
        out.append(CheckResult("dual-oracle", None, str(e)))
    else:
        check(
            "dual-oracle",
            np.array_equal(dual_mat, brute),
            f"formula dual = brute-force dual: {len(brute)} codewords",
        )
    check(
        "duality-involution",
        np.array_equal(codeword_matrix(dual_spec(dspec), cap), mat),
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
    circ_zero = [
        circ_product(_row_word(r1, spec.alpha), _row_word(r2, spec.alpha)).is_zero
        for r1, r2 in zip(sample_c[:pairs], sample_d[:pairs])
    ]
    shifts_zero = ~_shifted_inner_products(sample_c[:pairs], sample_d[:pairs], spec.alpha).any(axis=1)
    check("circ-orthogonality", all(circ_zero), f"{pairs} sampled pairs have zero circ product")
    check(
        "circ-shift-equivalence",
        circ_zero == shifts_zero.tolist(),
        "circ product vanishes exactly when all shifted inner products do",
    )
    return out
