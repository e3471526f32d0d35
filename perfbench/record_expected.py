"""Record the benchmark's fixed inputs and their expected outputs.

Writes ``expected/<workload>.json`` for every workload: the list of items
(verb plus spec strings, or the search parameters) and, for each, the
checked part of the output the package gives now.  The files are
committed; rerun this only to redefine a workload, never to make a
failing check pass.

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json

from workloads import EXPECTED_DIR, SPEC_KEYS, WORKLOADS, load_package, observed, spec_dict

FAMILY_BETAS = (1, 3, 5)
SEARCH = {"alpha_max": 5, "beta_set": [1, 3, 5], "predicate": "self_dual"}


def spec_fields(spec) -> list[str]:
    return [str(getattr(spec, k)) for k in SPEC_KEYS]


def workload_specs(pkg, workload: str) -> list[tuple[str, list[str]]]:
    if workload == "closed_form":
        return [
            ("dual", spec_fields(s))
            for alpha in range(1, 9)
            for beta in (1, 3, 5, 7)
            for s in pkg.iter_valid_specs(alpha, beta)
        ]
    if workload == "big_codes":
        return [
            ("info", ["4", "7", "1", "0", "1", "1"]),
            ("info", spec_fields(pkg.construct_mdss(5, 7))),
            ("info", spec_fields(pkg.construct_self_dual_family(14, 9))),
            ("info", ["6", "7", "x+1", "1", "1", "x^3+3x^2+2x+3"]),
        ]
    return [
        ("verify", spec_fields(s))
        for alpha in range(1, 6)
        for beta in FAMILY_BETAS
        for s in pkg.iter_valid_specs(alpha, beta)
    ]


def record(pkg, cli, workload: str) -> list[dict]:
    items = []
    for verb, fields in workload_specs(pkg, workload):
        status, out = cli.run(cli.Command(verb, spec_dict(fields), "json"))
        items.append({"verb": verb, "spec": fields, "expect": observed(verb, status, out)})
    if workload == "oracle_family":
        cmd = cli.Command(
            verb="search",
            spec_source=None,
            output_format="json",
            alpha_max=SEARCH["alpha_max"],
            beta_set=tuple(SEARCH["beta_set"]),
            predicate=SEARCH["predicate"],
        )
        status, out = cli.run(cmd)
        items.append({"verb": "search", **SEARCH, "expect": observed("search", status, out)})
    return items


def main() -> None:
    pkg, cli = load_package()
    EXPECTED_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        items = record(pkg, cli, workload)
        lines = ",\n".join(json.dumps(it, separators=(",", ":")) for it in items)
        text = f'{{"workload": "{workload}", "items": [\n{lines}\n]}}\n'
        (EXPECTED_DIR / f"{workload}.json").write_text(text)
        print(f"{workload}: {len(items)} items")


if __name__ == "__main__":
    main()
