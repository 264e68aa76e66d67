"""Command-line front end: analyze, table, and generic PPS tooling.

Exit codes: 0 success (and three-route agreement for analyze), 1 usage or
malformed input, 2 inadequate, disconnected or non-planar diagram or
axiom-violating PPS, 3 cross-check failure (routes that disagree, a
failed Euler identity, or boundaries that do not compose to zero).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

from .diagram import (
    DisconnectedDiagramError,
    InadequateDiagramError,
    NonPlanarDiagramError,
    PDSyntaxError,
    diagram_from_json_dict,
    parse_pd,
)
from .homology import ChainComplexError, homology, nonzero_groups
from .khovanov import (
    DEFAULT_TABLE_LIMIT,
    TableSizeError,
    euler_polynomial,
    framed_to_oriented,
    full_homology_table,
)
from .presimplicial import (
    AxiomViolationError, PPSError, chain_complex, pps_from_json, pps_to_json, validate_pps
)
from .report import analyze_diagram, format_homology_table, render_polynomial, render_table_json
from .xd import build_xd

ENV_MAX_C = "ALMAX_MAX_C"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_DIAGRAM = 2
EXIT_CROSSCHECK = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def print_help(self, file=None):  # argparse drops an OSError here; main handles it
        (sys.stdout if file is None else file).write(self.format_help())


def _load_diagram(value: str):
    try:
        text = Path(value).read_text() if Path(value).is_file() else value
    except OSError as exc:  # a value too long to be a file name is PD/JSON text
        if exc.errno != errno.ENAMETOOLONG:
            raise
        text = value
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(stripped)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting is malformed
            raise PDSyntaxError(f"diagram JSON is not valid JSON: {exc}") from None
        return diagram_from_json_dict(doc)
    return parse_pd(stripped)


def _default_max_c() -> int:
    raw = os.environ.get(ENV_MAX_C)
    if raw is None:
        return DEFAULT_TABLE_LIMIT
    try:
        bound = int(raw)
    except ValueError:
        bound = None
    if bound is None or bound < 0:
        kind = "non-integer" if bound is None else "negative"
        print(f"warning: ignoring {kind} {ENV_MAX_C}={raw!r}", file=sys.stderr)
        return DEFAULT_TABLE_LIMIT
    return bound


def _size_bound(text: str) -> int:
    """A ``--max-c`` value: a non-negative integer, or a usage error."""
    try:
        bound = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if bound < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {bound}")
    return bound


def build_parser() -> _Parser:
    parser = _Parser(prog="almax", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze",
        help="cross-verify the almost-extreme homology three ways",
    )
    analyze.add_argument("input", help="PD string, PD/JSON file, or UNKNOT")
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument(
        "--auto-mirror",
        action="store_true",
        help="analyze the mirror image when the diagram is only B-adequate",
    )
    analyze.add_argument(
        "--dump-pps",
        metavar="FILE",
        help="write the cell structure built from the all-A state graph as PPS JSON",
    )

    table = sub.add_parser("table", help="full framed homology table")
    table.add_argument("input", help="PD string, PD/JSON file, or UNKNOT")
    table.add_argument("--format", choices=("text", "json"), default="text")
    table.add_argument(
        "--max-c",
        type=_size_bound,
        default=None,
        help=f"crossing-count bound for table mode (default {DEFAULT_TABLE_LIMIT}, "
        f"or the {ENV_MAX_C} environment variable)",
    )
    table.add_argument(
        "--writhe",
        type=int,
        default=None,
        help="also report oriented gradings I=(w-i)/2, J=(3w-j)/2 for this writhe",
    )

    pps = sub.add_parser("pps", help="generic partial presimplicial set tools")
    pps_sub = pps.add_subparsers(dest="pps_command", required=True)
    for name, help_text in (
        ("validate", "check the face-map axiom"),
        ("homology", "reduced (or unreduced) homology of the realization"),
    ):
        p = pps_sub.add_parser(name, help=help_text)
        p.add_argument("file", help="PPS JSON file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if name == "homology":
            p.add_argument(
                "--unreduced",
                action="store_true",
                help="unreduced homology of the realization; a set with an undefined face "
                "keeps the Z of its basepoint in degree 0",
            )
    return parser


def _cmd_analyze(args) -> int:
    if args.dump_pps == "":  # Path("") is the working directory, which names no file
        raise ValueError("--dump-pps needs a file name, got an empty one")
    diagram = _load_diagram(args.input)
    report = analyze_diagram(diagram, auto_mirror=args.auto_mirror)
    if args.dump_pps is not None:
        Path(args.dump_pps).write_text(pps_to_json(build_xd(report.graph)) + "\n")
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print(report.render_text())
    return EXIT_OK if report.agreement else EXIT_CROSSCHECK


def _cmd_table(args) -> int:
    diagram = _load_diagram(args.input)
    limit = args.max_c if args.max_c is not None else _default_max_c()
    table, bracket = full_homology_table(diagram, limit=limit, writhe=args.writhe)
    identity_ok = euler_polynomial(table) == bracket
    oriented = None
    if args.writhe is not None:
        oriented = {
            framed_to_oriented(i, j, args.writhe): group for (i, j), group in table.items()
        }
    if args.format == "json":
        doc = {
            "crossings": diagram.crossing_count,
            "homology": render_table_json(table),
            "kauffman_bracket": render_polynomial(bracket),
            "euler_identity": identity_ok,
        }
        if oriented is not None:
            doc["writhe"] = args.writhe
            doc["oriented_homology"] = render_table_json(oriented)
        print(json.dumps(doc, indent=2))
    else:
        print(format_homology_table(table))
        print(f"kauffman bracket: {render_polynomial(bracket)}")
        print(f"euler identity: {'ok' if identity_ok else 'FAILED'}")
        if oriented is not None:
            print(f"oriented gradings (writhe {args.writhe}): rows J, columns I")
            print(format_homology_table(oriented))
    return EXIT_OK if identity_ok else EXIT_CROSSCHECK


def _cmd_pps(args) -> int:
    pps = pps_from_json(Path(args.file).read_text())
    if args.pps_command == "validate":
        violation = validate_pps(pps)
        if args.format == "json":
            doc = {"valid": violation is None}
            if violation is not None:
                doc["violation"] = {name: getattr(violation, name) for name in violation._fields}
            print(json.dumps(doc, indent=2))
        elif violation is None:
            print("valid: face-map axiom holds")
        else:
            print(f"INVALID: {violation.describe()}")
        return EXIT_OK if violation is None else EXIT_BAD_DIAGRAM
    try:
        complex_ = chain_complex(pps, reduced=not args.unreduced)
    except AxiomViolationError as exc:
        print(f"INVALID: {exc.violation.describe()}", file=sys.stderr)
        return EXIT_BAD_DIAGRAM
    groups = nonzero_groups(homology(complex_))
    if args.format == "json":
        doc = {
            "reduced": not args.unreduced,
            "homology": {str(k): g.render() for k, g in sorted(groups.items())},
        }
        print(json.dumps(doc, indent=2))
    else:
        kind = "unreduced" if args.unreduced else "reduced"
        if not groups:
            print(f"{kind} homology: trivial in every degree")
        for k, g in sorted(groups.items(), reverse=True):
            print(f"H_{k} = {g.render()}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:  # after --help: a closed stdout shows in this flush
            sys.stdout.flush()
            raise
        code = {"analyze": _cmd_analyze, "table": _cmd_table, "pps": _cmd_pps}[args.command](args)
        sys.stdout.flush()  # a closed stdout shows here, not in the interpreter's final flush
        return code
    except BrokenPipeError:  # stdout's reader has gone: say nothing, and flush into devnull
        if sys.stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_USAGE
    except (InadequateDiagramError, DisconnectedDiagramError, NonPlanarDiagramError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_DIAGRAM
    except ChainComplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except (PDSyntaxError, PPSError, TableSizeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
