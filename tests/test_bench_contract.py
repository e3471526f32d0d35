"""The benchmark's own checks, run on a sample so a regression shows up here.

perfbench/run.py rejects a change whose traced call counts drift from the
hand-derived ones in perfbench/selftest.py, or whose outputs differ from
perfbench/expected/*.json.  These tests run the same checks on every 16th
closed_form item, every 20th oracle_family item and all four big_codes
items.  They also pin what the tracer's poly layer relies on: it wraps
the POLY_METHODS entry points on DensePoly only, so a subclass override
of one would take that method's calls out of the poly metrics without
any error.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from selftest import WORKED, command, run_selftest  # noqa: E402
from tracer import POLY_METHODS, Tracer, layer_metrics  # noqa: E402
from workloads import build_items, check, load_package  # noqa: E402


def test_selftest_counts_match():
    pkg, cli = load_package()
    assert run_selftest(pkg, cli) == []


@pytest.mark.parametrize(
    "workload, stride", [("closed_form", 16), ("oracle_family", 20), ("big_codes", 1)]
)
def test_sampled_items_match_their_records(workload, stride):
    _, cli = load_package()
    items = build_items(cli, workload, seed=0)[::stride]
    failures = [(item.label, check(item, cli.run(item.command))) for item in items]
    assert [f for f in failures if f[1] is not None] == []


def test_poly_entry_points_are_defined_on_densepoly_only():
    pkg, _ = load_package()
    from z2z4cyclic.poly import DensePoly

    for name in POLY_METHODS:
        assert name in DensePoly.__dict__, name
        assert name not in pkg.BinPoly.__dict__, name
        assert name not in pkg.QuatPoly.__dict__, name


def test_traced_dual_reports_poly_work():
    pkg, cli = load_package()
    with Tracer(pkg) as tr:
        cli.run(command(cli, "dual", WORKED))
    metrics = layer_metrics(tr, 1, 1.0)
    assert metrics["poly.mul.calls"][0] > 0
    assert metrics["poly.divmod.calls"][0] > 0
    assert metrics["poly.self_s"][0] > 0
