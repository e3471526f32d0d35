"""Workload inputs and output checks for the z2z4cyclic benchmark.

Each workload is a fixed list of items, one ``cli.run(Command(...))`` call
each, read from ``expected/<workload>.json`` together with the output the
item produced when the file was recorded (see record_expected.py).  The
package is always imported from ``src/`` of the checkout that holds this
directory, never from an installed copy.

Run as a script (``python3 perfbench/workloads.py --probe <workload>``) it
does only the set-up: a fresh interpreter imports the package and builds
the workload's commands.  run.py times that to report ``setup_s``.
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_DIR = BENCH_DIR / "expected"

WORKLOADS = ("closed_form", "big_codes", "oracle_family")

SPEC_KEYS = ("alpha", "beta", "b", "ell", "f", "h")
DUAL_KEYS = ("b_bar", "ell_bar", "f_bar", "h_bar", "dual_type")


class MissingPackage(RuntimeError):
    """The checkout has no importable src/z2z4cyclic."""


def load_package():
    """Import z2z4cyclic and its cli from ROOT/src; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "z2z4cyclic" / "__init__.py").is_file():
        raise MissingPackage(f"no package source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("z2z4cyclic")
    if Path(pkg.__file__).resolve().parent != (src / "z2z4cyclic").resolve():
        raise MissingPackage(f"z2z4cyclic was imported from {pkg.__file__}, not from {src}")
    return pkg, importlib.import_module("z2z4cyclic.cli")


@dataclass(frozen=True)
class Item:
    """One call of the CLI entry point and the output it must give."""

    label: str
    command: object
    expect: object


def spec_dict(fields) -> dict:
    return dict(zip(SPEC_KEYS, fields))


def build_items(cli, workload: str, seed: int) -> list[Item]:
    """The workload's fixed items, in recorded order; seed only feeds `verify`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    data = json.loads((EXPECTED_DIR / f"{workload}.json").read_text())
    items = []
    for rec in data["items"]:
        if rec["verb"] == "search":
            cmd = cli.Command(
                verb="search",
                spec_source=None,
                output_format="json",
                alpha_max=rec["alpha_max"],
                beta_set=tuple(rec["beta_set"]),
                predicate=rec["predicate"],
            )
            label = f"search alpha<={rec['alpha_max']} beta in {rec['beta_set']} {rec['predicate']}"
        else:
            cmd = cli.Command(
                verb=rec["verb"],
                spec_source=spec_dict(rec["spec"]),
                output_format="json",
                seed=seed,
            )
            label = f"{rec['verb']} " + " ".join(f"{k}={v}" for k, v in zip(SPEC_KEYS, rec["spec"]))
        items.append(Item(label, cmd, rec["expect"]))
    return items


def observed(verb: str, status: int, output: str):
    """The part of an item's output that is checked, in the recorded form."""
    data = json.loads(output)
    if verb == "dual":
        return [data[k] for k in DUAL_KEYS]
    if verb == "info":
        return data
    if verb == "verify":
        return {"status": status, "checks": [c["name"] for c in data["checks"]], "passed": data["passed"]}
    if verb == "search":
        return data["matches"]
    raise ValueError(f"no output check for verb {verb!r}")


def check(item: Item, result) -> str | None:
    """None when the item's (status, output) matches the record, else the reason."""
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}"
    status, output = result
    verb = item.command.verb
    if verb != "verify" and status != 0:
        return f"exit status {status}"
    try:
        got = observed(verb, status, output)
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable output: {e}"
    if got != item.expect:
        return f"output differs from the record: {got!r} != {item.expect!r}"
    return None


def _probe(workload: str) -> None:
    _, cli = load_package()
    build_items(cli, workload, 0)


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--probe":
        sys.exit("usage: workloads.py --probe <workload>")
    try:
        _probe(sys.argv[2])
    except MissingPackage as e:
        sys.exit(f"error: {e}")
