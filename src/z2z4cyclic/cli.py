"""Command-line front end.

One verb per invocation: info, dual, matrix, enumerate, gray, verify,
search.  Codes come either from a spec file (--spec, in the key=value
format of parse_spec_text) or from the six inline flags --alpha --beta
--b --ell --f --h; search reads no code, and takes --alpha-max,
--beta-set and --predicate instead.  Each verb's handler returns its
exit status, its record and its text, which carry the same data, and
run() renders one of them: the text by default, the record as JSON with
--json; run() refuses any other output format.  JSON is rendered by
_json, which writes the bytes of json.dumps(data, indent=2) without the
json module's pure-Python encoder for indented output.  info, enumerate,
gray, verify and search take --cap, the enumeration cap; only verify
takes --seed, for its sampled checks.  _VERB_TABLE names the flag groups
each verb reads, and its subparser offers only those.

Exit codes: 0 success, 1 verification failure, 2 usage or data error
(a flag the verb does not take, such as --seed on info or --cap on dual,
and a --cap below 1 included), 3 enumeration above the configured cap,
141 (128 + SIGPIPE) output cut short because the reader closed standard
output early, as in `z2z4cyclic enumerate ... | head -1`.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import analysis
from .code import (
    ENUM_CAP,
    SPEC_KEYS,
    _block_sizes,
    _check_cap,
    _codeword_keys,
    _format_rows,
    _gray_rows,
    _type_text,
    cardinality,
    codeword_matrix,
    parse_spec_text,
    spec_from_fields,
)
from .dual import dual_degrees, dual_generators
from .errors import InvalidParameter, ParseError, TooLarge, Z2Z4Error
from .poly import _parse_int


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


def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, for the values the verbs build:
    dicts with str keys, lists, str, int, bool and None; anything else, a
    float, a tuple and a non-str key included, raises TypeError.  indent is the
    newline and indentation before the value's closing bracket.  CPython's json
    module encodes an indented value in pure Python; this renderer makes one call
    per container, so a list of ints costs one join."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        parts = [int.__repr__(v) if type(v) is int else _json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(parts) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(k, str) for k in value):
            raise TypeError("JSON object keys must be str")
        parts = [_quote(k) + ": " + _json(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(parts) + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _run_info(spec, cmd: Command) -> tuple[int, dict, str]:
    report = analysis.code_report(spec, cmd.cap)
    text = "\n".join(
        [
            analysis.report_line(spec, report),
            f"type {report.type}",
            f"|C| = {cardinality(spec)}",
        ]
    )
    return 0, analysis.report_dict(spec, report), text


def _run_dual(spec, cmd: Command) -> tuple[int, dict, str]:
    d = dual_generators(spec)
    dd = dual_degrees(spec)
    dtype = _type_text(spec.alpha, spec.beta, dd.gamma_bar, dd.delta_bar, dd.kappa_bar)
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
    return 0, data, "\n".join(lines)


def _run_matrix(spec, cmd: Command) -> tuple[int, dict, str]:
    rows = iter(_format_rows(spec._span_rows, spec.alpha))
    labeled = {
        name: [next(rows) for _ in range(count)]
        for name, count in zip(("S1", "S2", "S3"), _block_sizes(spec))
    }
    lines = [f"{name}[{i}] {row}" for name, block in labeled.items() for i, row in enumerate(block)]
    text = "\n".join(lines) or "(empty spanning set)"
    return 0, labeled, text


def _run_enumerate(spec, cmd: Command) -> tuple[int, dict, str]:
    rendered = _format_rows(codeword_matrix(spec, cmd.cap), spec.alpha)
    data = {"cardinality": len(rendered), "codewords": rendered}
    text = "\n".join([f"|C| = {len(rendered)}"] + rendered)
    return 0, data, text


def _run_gray(spec, cmd: Command) -> tuple[int, dict, str]:
    rendered = _format_rows(codeword_matrix(spec, cmd.cap), spec.alpha)
    images = _gray_rows(_codeword_keys(spec, cmd.cap), spec.alpha, spec.alpha + spec.beta).tolist()
    data = {"codewords": rendered, "gray_images": images}
    # No text is built for --json, which would hold a second copy of the listing.
    text = "" if cmd.output_format == "json" else "\n".join(
        f"{w}  ->  {' '.join(map(str, img))}" for w, img in zip(rendered, images)
    )
    return 0, data, text


def _run_verify(spec, cmd: Command) -> tuple[int, dict, str]:
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
    return (1 if failed else 0), data, "\n".join(lines)


def _run_search(_spec, cmd: Command) -> tuple[int, dict, str]:
    found = analysis.search_codes(cmd.alpha_max, cmd.beta_set, cmd.predicate, cmd.cap)
    lines = [analysis.report_line(s, r) for s, r in found]
    lines.append(f"{len(found)} codes matched {cmd.predicate}")
    data = {
        "predicate": cmd.predicate,
        "matches": [analysis.report_dict(s, r) for s, r in found],
    }
    return 0, data, "\n".join(lines)


# Every verb, once, in the parser's order: its handler, its help text and
# the flag groups of _FLAG_GROUPS it reads; every verb also takes "json".
# A handler takes (spec, cmd), spec None for a verb without "spec", and returns
# (exit status, JSON record, text); run renders one of the two.
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


def _int_arg(text: str) -> int:
    """argparse type for an integer flag: poly._parse_int, with argparse's own refusal text."""
    try:
        return _parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


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
        ("--alpha-max", {"type": _int_arg, "required": True, "help": "largest alpha"}),
        ("--beta-set", {"required": True, "help": "comma-separated odd beta values"}),
        (
            "--predicate",
            {"required": True, "choices": analysis._PREDICATES, "help": "classification filter"},
        ),
    ],
    "json": [("--json", {"action": "store_true", "help": "emit JSON instead of text"})],
    "cap": [("--cap", {"type": _int_arg, "default": ENUM_CAP, "help": "enumeration cap"})],
    "seed": [("--seed", {"type": _int_arg, "default": 0, "help": "seed for sampled checks"})],
}


def run(cmd: Command) -> tuple[int, str]:
    """Execute one command; returns (exit status, rendered output).

    An unknown verb, an output format other than text or json, then a cap
    that is not an int of at least 1 raise InvalidParameter before the spec
    is read or the handler runs; the cap is checked on every verb, the ones
    that never enumerate included."""
    if cmd.verb not in _VERB_TABLE:
        raise InvalidParameter(f"unknown verb {cmd.verb!r}")
    if cmd.output_format not in ("text", "json"):
        raise InvalidParameter(f"output format must be 'text' or 'json', not {cmd.output_format!r}")
    _check_cap(cmd.cap)
    handler, _, groups = _VERB_TABLE[cmd.verb]
    status, record, text = handler(_load_spec(cmd.spec_source) if "spec" in groups else None, cmd)
    return status, _json(record) if cmd.output_format == "json" else text


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
            beta_set = tuple(_parse_int(tok) for tok in args.beta_set.split(",") if tok.strip())
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
