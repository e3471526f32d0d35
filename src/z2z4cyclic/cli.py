"""Command-line front end.

One verb per invocation: info, dual, matrix, enumerate, gray, verify,
search.  Codes come either from a spec file (--spec, in the key=value
format of parse_spec_text) or from the six inline flags --alpha --beta
--b --ell --f --h; search reads no code, and takes --alpha-max,
--beta-set and --predicate instead.  Every verb renders text by default
and JSON with --json, carrying the same data either way.  info,
enumerate, gray, verify and search take --cap, the enumeration cap;
only verify takes --seed, for its sampled checks.  _VERB_TABLE names the
flag groups each verb reads, and its subparser offers only those.

Exit codes: 0 success, 1 verification failure, 2 usage or data error
(a flag the verb does not take, such as --seed on info or --cap on dual,
and a --cap below 1 included), 3 enumeration above the configured cap,
141 (128 + SIGPIPE) output cut short because the reader closed standard
output early, as in `z2z4cyclic enumerate ... | head -1`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import analysis
from .code import (
    ENUM_CAP,
    SPEC_KEYS,
    _block_sizes,
    _codeword_keys,
    _decode_keys,
    _format_rows,
    _gray_rows,
    cardinality,
    codeword_matrix,
    parse_spec_text,
    spec_from_fields,
)
from .dual import dual_degrees, dual_generators
from .errors import InvalidParameter, ParseError, TooLarge, Z2Z4Error


@dataclass(frozen=True)
class Command:
    """One parsed invocation."""

    verb: str
    spec_source: str | dict | None
    output_format: str = "text"
    cap: int = ENUM_CAP
    seed: int = 0
    alpha_max: int = 0
    beta_set: tuple[int, ...] = ()
    predicate: str = ""


def _load_spec(source):
    if isinstance(source, str):
        return parse_spec_text(Path(source).read_text())
    if isinstance(source, dict):
        return spec_from_fields(source)
    raise ParseError("no spec given: use --spec FILE or all of --alpha/--beta/--b/--ell/--f/--h")


def _render(data: dict, text: str, as_json: bool) -> str:
    return json.dumps(data, indent=2) if as_json else text


def _run_info(spec, cmd: Command) -> tuple[int, str]:
    report = analysis.code_report(spec, cmd.cap)
    text = "\n".join(
        [
            analysis.report_line(spec, report),
            f"type {report.type}",
            f"|C| = {cardinality(spec)}",
        ]
    )
    return 0, _render(analysis.report_dict(spec, report), text, cmd.output_format == "json")


def _run_dual(spec, cmd: Command) -> tuple[int, str]:
    d = dual_generators(spec)
    dd = dual_degrees(spec)
    dtype = f"({spec.alpha},{spec.beta};{dd.gamma_bar},{dd.delta_bar};{dd.kappa_bar})"
    data = {
        "b_bar": str(d.b_bar),
        "ell_bar": str(d.ell_bar),
        "f_bar": str(d.f_bar),
        "h_bar": str(d.h_bar),
        "g_bar": str(d.g_bar),
        "mu1": None if d.mu1 is None else str(d.mu1),
        "mu2": None if d.mu2 is None else str(d.mu2),
        "rho": None if d.rho is None else str(d.rho),
        "dual_type": dtype,
    }
    lines = [f"{k} = {v}" for k, v in data.items() if k != "dual_type" and v is not None]
    lines.append(f"dual type {dtype}")
    return 0, _render(data, "\n".join(lines), cmd.output_format == "json")


def _run_matrix(spec, cmd: Command) -> tuple[int, str]:
    rows = iter(_format_rows(spec._span_rows, spec.alpha))
    labeled = {
        name: [next(rows) for _ in range(count)]
        for name, count in zip(("S1", "S2", "S3"), _block_sizes(spec))
    }
    lines = [f"{name}[{i}] {row}" for name, block in labeled.items() for i, row in enumerate(block)]
    text = "\n".join(lines) or "(empty spanning set)"
    return 0, _render(labeled, text, cmd.output_format == "json")


def _run_enumerate(spec, cmd: Command) -> tuple[int, str]:
    mat = codeword_matrix(spec, cmd.cap)
    rendered = _format_rows(mat, spec.alpha)
    data = {"cardinality": len(rendered), "codewords": rendered}
    text = "\n".join([f"|C| = {len(rendered)}"] + rendered)
    return 0, _render(data, text, cmd.output_format == "json")


def _run_gray(spec, cmd: Command) -> tuple[int, str]:
    keys = _codeword_keys(spec, cmd.cap)
    n = spec.alpha + spec.beta
    rendered = _format_rows(_decode_keys(keys, spec.alpha, n), spec.alpha)
    images = _gray_rows(keys, spec.alpha, n).tolist()
    data = {"codewords": rendered, "gray_images": images}
    as_json = cmd.output_format == "json"
    text = "" if as_json else "\n".join(
        f"{w}  ->  {' '.join(map(str, img))}" for w, img in zip(rendered, images)
    )
    return 0, _render(data, text, as_json)


def _run_verify(spec, cmd: Command) -> tuple[int, str]:
    results = analysis.verify_code(spec, seed=cmd.seed, cap=cmd.cap)
    mark = {True: "ok  ", False: "FAIL", None: "skip"}
    lines = [f"{mark[r.ok]} {r.name}: {r.detail}" for r in results]
    failed = sum(r.ok is False for r in results)
    skipped = sum(r.ok is None for r in results)
    ran = len(results) - skipped
    if failed:
        summary = f"{failed} of {ran} checks FAILED"
    elif skipped:
        summary = f"{ran} passed"
    else:
        summary = f"all {ran} checks passed"
    lines.append(summary + (f", {skipped} skipped" if skipped else ""))
    data = {
        "checks": [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results],
        "passed": not failed,
    }
    return (1 if failed else 0), _render(data, "\n".join(lines), cmd.output_format == "json")


def _run_search(_spec, cmd: Command) -> tuple[int, str]:
    found = analysis.search_codes(cmd.alpha_max, cmd.beta_set, cmd.predicate, cmd.cap)
    lines = [analysis.report_line(s, r) for s, r in found]
    lines.append(f"{len(found)} codes matched {cmd.predicate}")
    data = {
        "predicate": cmd.predicate,
        "matches": [analysis.report_dict(s, r) for s, r in found],
    }
    return 0, _render(data, "\n".join(lines), cmd.output_format == "json")


# Every verb, once, in the parser's order: its handler, its help text and
# the flag groups of _FLAG_GROUPS it reads; every verb also takes "json".
# A handler takes (spec, cmd); spec is None for a verb without "spec".
_VERB_TABLE = {
    "info": (_run_info, "type, cardinality, distance, and classification flags", ("spec", "cap")),
    "dual": (_run_dual, "closed-form dual generator tuple and dual type", ("spec",)),
    "matrix": (_run_matrix, "spanning-set rows labeled S1/S2/S3 with shift indices", ("spec",)),
    "enumerate": (_run_enumerate, "list every codeword", ("spec", "cap")),
    "gray": (_run_gray, "list codewords with their Gray images", ("spec", "cap")),
    "verify": (
        _run_verify,
        "run the oracle and invariant suite; nonzero exit on failure",
        ("spec", "cap", "seed"),
    ),
    "search": (_run_search, "scan all small codes for a predicate", ("search", "cap")),
}

# Each group's flags as (flag, add_argument options), in the parser's order.
_FLAG_GROUPS = {
    "spec": [
        ("--spec", {"metavar": "FILE", "help": "spec file in key=value form"}),
        ("--alpha", {"help": "inline spec: binary block length"}),
        ("--beta", {"help": "inline spec: quaternary block length (odd)"}),
        ("--b", {"help": "inline spec: binary generator b"}),
        ("--ell", {"help": "inline spec: binary generator ell"}),
        ("--f", {"help": "inline spec: quaternary generator f"}),
        ("--h", {"help": "inline spec: quaternary generator h"}),
    ],
    "search": [
        ("--alpha-max", {"type": int, "required": True, "help": "largest alpha"}),
        ("--beta-set", {"required": True, "help": "comma-separated odd beta values"}),
        (
            "--predicate",
            {"required": True, "choices": analysis._PREDICATES, "help": "classification filter"},
        ),
    ],
    "json": [("--json", {"action": "store_true", "help": "emit JSON instead of text"})],
    "cap": [("--cap", {"type": int, "default": ENUM_CAP, "help": "enumeration cap"})],
    "seed": [("--seed", {"type": int, "default": 0, "help": "seed for sampled checks"})],
}


def run(cmd: Command) -> tuple[int, str]:
    """Execute one command; returns (exit status, rendered output)."""
    if cmd.verb not in _VERB_TABLE:
        raise InvalidParameter(f"unknown verb {cmd.verb!r}")
    handler, _, groups = _VERB_TABLE[cmd.verb]
    return handler(_load_spec(cmd.spec_source) if "spec" in groups else None, cmd)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="z2z4cyclic",
        description="Construct, analyze, and dualize additive cyclic codes on Z2^a x Z4^b.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, desc, groups) in _VERB_TABLE.items():
        sub = subs.add_parser(verb, help=desc)
        for group, flags in _FLAG_GROUPS.items():
            if group == "json" or group in groups:
                for flag, options in flags:
                    sub.add_argument(flag, **options)
    return parser


def _command_from_args(args: argparse.Namespace) -> Command:
    groups = _VERB_TABLE[args.verb][2]
    fields = {
        "verb": args.verb,
        "output_format": "json" if args.json else "text",
        **{group: getattr(args, group) for group in ("cap", "seed") if group in groups},
    }
    if fields.get("cap", 1) < 1:
        raise ParseError(f"--cap must be at least 1, not {args.cap}")
    if "search" in groups:
        try:
            beta_set = tuple(int(tok) for tok in args.beta_set.split(",") if tok.strip())
        except ValueError:
            raise ParseError("--beta-set must be comma-separated integers") from None
        if not beta_set:
            raise ParseError("--beta-set must name at least one value")
        fields.update(
            spec_source=None, alpha_max=args.alpha_max, beta_set=beta_set, predicate=args.predicate
        )
    else:
        inline = {k: getattr(args, k) for k in SPEC_KEYS if getattr(args, k) is not None}
        if args.spec and inline:
            raise ParseError("give either --spec or the inline flags, not both")
        if inline and len(inline) < len(SPEC_KEYS):
            missing = sorted(set(SPEC_KEYS) - set(inline))
            raise ParseError(f"inline spec is missing: {', '.join(missing)}")
        # With neither, _load_spec reports the missing spec.
        fields["spec_source"] = args.spec or inline or None
    return Command(**fields)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cmd = _command_from_args(args)
        status, output = run(cmd)
    except TooLarge as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (OSError, UnicodeDecodeError, Z2Z4Error) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if output:
        try:
            print(output)
            sys.stdout.flush()
        except BrokenPipeError:
            # Send what is still buffered to devnull, so the interpreter's own
            # flush at exit does not fail on the closed pipe too.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
    return status


if __name__ == "__main__":
    sys.exit(main())
