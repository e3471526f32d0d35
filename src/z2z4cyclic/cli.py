"""Command-line front end.

One verb per invocation: info, dual, matrix, enumerate, gray, verify,
search.  Codes come either from a spec file (--spec, in the key=value
format of parse_spec_text) or from the six inline flags --alpha --beta
--b --ell --f --h.  Every verb renders text by default and JSON with
--json, carrying the same data either way.

Exit codes: 0 success, 1 verification failure, 2 usage or data error,
3 enumeration above the configured cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import analysis
from .code import (
    ENUM_CAP,
    SPEC_KEYS,
    _gray_rows,
    _row_word,
    cardinality,
    codeword_matrix,
    format_codeword,
    parse_spec_text,
    spanning_set,
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
    words = spanning_set(spec)
    labeled: dict[str, list[str]] = {"S1": [], "S2": [], "S3": []}
    counts = (spec.alpha - spec.b.degree, spec.g.degree, spec.h.degree)
    names = ("S1", "S2", "S3")
    i = 0
    lines = []
    for name, count in zip(names, counts):
        for shift in range(int(count)):
            rendered = format_codeword(words[i])
            labeled[name].append(rendered)
            lines.append(f"{name}[{shift}] {rendered}")
            i += 1
    return 0, _render(labeled, "\n".join(lines) if lines else "(empty spanning set)",
                      cmd.output_format == "json")


def _run_enumerate(spec, cmd: Command) -> tuple[int, str]:
    mat = codeword_matrix(spec, cmd.cap)
    rendered = [format_codeword(_row_word(row, spec.alpha)) for row in mat]
    data = {"cardinality": len(rendered), "codewords": rendered}
    text = "\n".join([f"|C| = {len(rendered)}"] + rendered)
    return 0, _render(data, text, cmd.output_format == "json")


def _run_gray(spec, cmd: Command) -> tuple[int, str]:
    mat = codeword_matrix(spec, cmd.cap)
    words = [_row_word(row, spec.alpha) for row in mat]
    images = _gray_rows(mat, spec.alpha).tolist()
    data = {
        "codewords": [format_codeword(w) for w in words],
        "gray_images": images,
    }
    text = "\n".join(
        f"{format_codeword(w)}  ->  {' '.join(str(bit) for bit in img)}"
        for w, img in zip(words, images)
    )
    return 0, _render(data, text, cmd.output_format == "json")


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


def _run_search(cmd: Command) -> tuple[int, str]:
    found = analysis.search_codes(cmd.alpha_max, cmd.beta_set, cmd.predicate, cmd.cap)
    lines = [analysis.report_line(s, r) for s, r in found]
    lines.append(f"{len(found)} codes matched {cmd.predicate}")
    data = {
        "predicate": cmd.predicate,
        "matches": [analysis.report_dict(s, r) for s, r in found],
    }
    return 0, _render(data, "\n".join(lines), cmd.output_format == "json")


# Every verb, once: its handler and its help text, in the parser's order.
# A handler takes (spec, cmd), except search's, which reads no spec.
_VERB_TABLE = {
    "info": (_run_info, "type, cardinality, distance, and classification flags"),
    "dual": (_run_dual, "closed-form dual generator tuple and dual type"),
    "matrix": (_run_matrix, "spanning-set rows labeled S1/S2/S3 with shift indices"),
    "enumerate": (_run_enumerate, "list every codeword"),
    "gray": (_run_gray, "list codewords with their Gray images"),
    "verify": (_run_verify, "run the oracle and invariant suite; nonzero exit on failure"),
    "search": (_run_search, "scan all small codes for a predicate"),
}


def run(cmd: Command) -> tuple[int, str]:
    """Execute one command; returns (exit status, rendered output)."""
    if cmd.verb not in _VERB_TABLE:
        raise InvalidParameter(f"unknown verb {cmd.verb!r}")
    handler, _ = _VERB_TABLE[cmd.verb]
    if handler is _run_search:
        return handler(cmd)
    return handler(_load_spec(cmd.spec_source), cmd)


def _add_spec_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--spec", metavar="FILE", help="spec file in key=value form")
    for key, desc in (
        ("alpha", "binary block length"),
        ("beta", "quaternary block length (odd)"),
        ("b", "binary generator b"),
        ("ell", "binary generator ell"),
        ("f", "quaternary generator f"),
        ("h", "quaternary generator h"),
    ):
        sub.add_argument(f"--{key}", help=f"inline spec: {desc}")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub.add_argument("--cap", type=int, default=ENUM_CAP, help="enumeration cap")
    sub.add_argument("--seed", type=int, default=0, help="seed for sampled checks")


def _add_search_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha-max", type=int, required=True, help="largest alpha")
    sub.add_argument("--beta-set", required=True, help="comma-separated odd beta values")
    sub.add_argument(
        "--predicate",
        required=True,
        choices=analysis._PREDICATES,
        help="classification filter",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="z2z4cyclic",
        description="Construct, analyze, and dualize additive cyclic codes on Z2^a x Z4^b.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)
    for verb, (handler, desc) in _VERB_TABLE.items():
        sub = subs.add_parser(verb, help=desc)
        if handler is _run_search:
            _add_search_flags(sub)
        else:
            _add_spec_flags(sub)
        _add_common_flags(sub)
    return parser


def _command_from_args(args: argparse.Namespace) -> Command:
    common = {
        "verb": args.verb,
        "output_format": "json" if args.json else "text",
        "cap": args.cap,
        "seed": args.seed,
    }
    if _VERB_TABLE[args.verb][0] is _run_search:
        try:
            beta_set = tuple(int(tok) for tok in args.beta_set.split(",") if tok.strip())
        except ValueError:
            raise ParseError("--beta-set must be comma-separated integers") from None
        if not beta_set:
            raise ParseError("--beta-set must name at least one value")
        return Command(
            spec_source=None,
            alpha_max=args.alpha_max,
            beta_set=beta_set,
            predicate=args.predicate,
            **common,
        )
    inline = {k: getattr(args, k) for k in SPEC_KEYS if getattr(args, k) is not None}
    if args.spec and inline:
        raise ParseError("give either --spec or the inline flags, not both")
    if inline and len(inline) < len(SPEC_KEYS):
        missing = sorted(set(SPEC_KEYS) - set(inline))
        raise ParseError(f"inline spec is missing: {', '.join(missing)}")
    # With neither, _load_spec reports the missing spec.
    return Command(spec_source=args.spec or inline or None, **common)


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
        print(output)
    return status


if __name__ == "__main__":
    sys.exit(main())
