"""Self-test of the tracer: exact call counts on tiny inputs, derived by hand.

Each case runs one CLI command under the tracer and compares per-layer
metrics with counts read off the package source.  A wrapper that misses
a binding (say ``analysis`` still calling the original
``codeword_matrix``) shows up as a wrong count here.  run.py runs this
before every traced run; it also runs on its own:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import time

from tracer import Tracer, layer_metrics
from workloads import MissingPackage, load_package, spec_dict

WORKED = ["3", "3", "x^3+1", "x+1", "1", "x^2+x+1"]  # |C| = 16, |C_dual| = 32
SEPARABLE = ["3", "3", "x+1", "0", "1", "x^2+x+1"]
SELF_DUAL = ["2", "1", "x+1", "0", "1", "x+3"]  # self-dual, |C| = 4

# (verb, spec or search parameters, expected metrics)
CASES = [
    # cli loads the spec (1 validate_spec); dual_generators validates the
    # dual tuple (2) and calls dual_degrees (1); cli calls dual_degrees
    # again (2).  gcd: 2 in dual_generators, 2 per validate_spec, and 2 per
    # dual_degrees plus 2 in its code_type: 2 + 4 + 8 = 14.  Two Hensel lifts.
    ("dual", WORKED, {
        "code.validate_spec.calls": 2,
        "code.validate_spec.per_item": 2.0,
        "dual.dual_generators.calls": 1,
        "dual.dual_degrees.calls": 2,
        "dual.dual_spec.calls": 0,
        "z4poly.hensel_lift.calls": 2,
        "gf2poly.gcd.calls": 14,
        "code.codeword_matrix.calls": 0,
        "canon.unique_rows.calls": 0,
    }),
    # ell = 0 takes the separable shortcut: no direct gcds, no Hensel lifts.
    ("dual", SEPARABLE, {
        "code.validate_spec.calls": 2,
        "dual.dual_generators.calls": 1,
        "dual.dual_degrees.calls": 2,
        "z4poly.hensel_lift.calls": 0,
        "gf2poly.gcd.calls": 12,
    }),
    # code_report enumerates once (16 words); canonical sorts in
    # codeword_matrix and the cyclic-closure test, 16 rows each.
    # 2*(gamma + 2*delta) = 8 != 9, so no dual enumeration.
    ("info", WORKED, {
        "code.validate_spec.calls": 1,
        "code.codeword_matrix.calls": 1,
        "code.codeword_matrix.words": 16,
        "canon.unique_rows.calls": 2,
        "canon.unique_rows.rows_in": 32,
        "dual.dual_spec.calls": 0,
    }),
    # A self-dual candidate: code_report also enumerates dual_spec(spec),
    # which validates twice (dual_generators and dual_spec).
    ("info", SELF_DUAL, {
        "code.validate_spec.calls": 3,
        "code.codeword_matrix.calls": 2,
        "code.codeword_matrix.words": 8,
        "canon.unique_rows.calls": 3,
        "canon.unique_rows.rows_in": 12,
        "dual.dual_spec.calls": 1,
        "dual.dual_generators.calls": 1,
    }),
    # verify: C (16), its dual (32) and the dual of the dual (16) are
    # enumerated; the ambient scan covers 2^(3+6) vectors and keeps 32.
    # Canonical sorts: 3 enumerations (64 rows), order-two X block (8),
    # cyclic closure (16), both projections (32), Gray images (16),
    # ambient survivors (32): 9 calls, 168 rows.  8 sampled circ pairs.
    ("verify", WORKED, {
        "code.codeword_matrix.calls": 3,
        "code.codeword_matrix.words": 64,
        "dual.dual_spec.calls": 2,
        "dual.brute_force_dual_matrix.calls": 1,
        "dual.brute_force_dual_matrix.scanned": 512,
        "dual.brute_force_dual_matrix.keep_ratio": 0.0625,
        "canon.unique_rows.calls": 9,
        "canon.unique_rows.rows_in": 168,
        "code.circ_product.calls": 8,
    }),
    # alpha = beta = 1: b in {1, x+1}; x+3 goes to f (ell = 0 only), h or g
    # (ell free below deg b): 2 + 3 + 3 = 8 tuples, each enumerated twice
    # (dedup key, then code_report); alpha + 2*beta is odd, so none is a
    # self-dual candidate.  factor_xn1 runs once for beta, once for alpha.
    ("search", {"alpha_max": 1, "beta_set": (1,), "predicate": "self_dual"}, {
        "code.validate_spec.calls": 8,
        "code.codeword_matrix.calls": 16,
        "analysis.search.dedup_enumerations": 2.0,
        "gf2poly.factor_xn1.calls": 2,
        "gf2poly.divisors_xn1.calls": 1,
    }),
]


def command(cli, verb: str, arg):
    if verb == "search":
        return cli.Command(verb="search", spec_source=None, output_format="json", **arg)
    return cli.Command(verb=verb, spec_source=spec_dict(arg), output_format="json")


def run_selftest(pkg, cli) -> list[str]:
    """Mismatches between traced and hand-derived counts; empty when all agree."""
    errors = []
    for verb, arg, want in CASES:
        with Tracer(pkg) as tr:
            t0 = time.perf_counter()
            cli.run(command(cli, verb, arg))
            wall = time.perf_counter() - t0
        got = layer_metrics(tr, 1, wall)
        for name, value in want.items():
            if got[name][0] != value:
                errors.append(f"{verb} {arg}: {name} = {got[name][0]}, expected {value}")
    return errors


def main() -> int:
    try:
        pkg, cli = load_package()
    except MissingPackage as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    errors = run_selftest(pkg, cli)
    for line in errors:
        print(line)
    print(f"selftest: {len(CASES)} cases, {len(errors)} mismatches")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
