"""Command-line interface.

Reports are JSON by default (stable key order, sorted vertex lists) so runs
are byte-reproducible; ``--plain`` switches to flat key/value lines.  Exit
statuses: 0 success, 2 usage or input errors (out of memory too), 3 failed
structural preconditions (e.g. twins present), 4 internal assertion
failures or failed scans.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bound, classify, codes, scans, solve
from .families import band5_square_root, make_family, parse_family_spec
from .graph import Graph, PreconditionError, _check_radius, _ints, format_edge_list, parse_edge_list, power

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _load_graph(path: str) -> Graph:
    return parse_edge_list(Path(path).read_text())


def _parse_code(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    entries = [tok.strip() for tok in text.split(",")]
    if "" in entries:
        raise ValueError(f"--code has an empty entry: {text!r}")
    return _ints(entries, "--code entry {tok!r} is not a vertex number")


def _int_arg(text: str) -> int:
    """argparse ``type`` of the integer flags: the edge lists' number rule."""
    try:
        return _ints([text], "{tok!r} is not an integer")[0]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit(report: dict, plain: bool) -> None:
    # an exact bound_value can pass Python's int-to-string digit limit, so it
    # is lifted while a report is written and no longer: graph._ints relies on
    # it to refuse over-long input tokens (Python before 3.10.7 has no limit)
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is not None:
        limit = sys.get_int_max_str_digits()
        set_digits(0)
    try:
        if not plain:
            print(json.dumps(report, indent=2, sort_keys=True))
            return
        for key in sorted(report):
            value = report[key]
            if isinstance(value, (list, dict)):
                value = json.dumps(value, sort_keys=True)
            print(f"{key}\t{value}")
    finally:
        if set_digits is not None:
            set_digits(limit)


def _cmd_generate(args) -> int:
    if args.family == "fig4":
        g = band5_square_root()
    else:
        g = make_family(parse_family_spec(args.family))
    sys.stdout.write(format_edge_list(g))
    return EXIT_OK


def _cmd_power(args) -> int:
    _check_radius(args.radius)  # flag-only refusals come before the graph file is read
    g = _load_graph(args.graph)
    sys.stdout.write(format_edge_list(power(g, args.radius)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    _check_radius(args.radius)
    code = _parse_code(args.code)
    g = _load_graph(args.graph)
    cert = codes.check_code(g, code, args.kind, args.radius)
    _emit(cert.to_dict(), args.plain)
    return EXIT_OK


def _cmd_solve(args) -> int:
    if args.all_minimum and args.kind != "separating":
        print("--all-minimum is only available for kind 'separating'", file=sys.stderr)
        return EXIT_USAGE
    _check_radius(args.radius)
    g = _load_graph(args.graph)
    solved, sets = solve._solve_graph(g, args.kind, args.radius)
    report = solved.to_dict()
    if args.all_minimum:
        report["all_minimum_sets"] = list(sets)
    _emit(report, args.plain)
    return EXIT_OK


def _cmd_classify(args) -> int:
    g = _load_graph(args.graph)
    _emit(classify.classify_extremal(g).to_dict(), args.plain)
    return EXIT_OK


def _cmd_bound(args) -> int:
    if args.regular and args.radius != 1:
        print("the regular variant is defined for radius 1 only", file=sys.stderr)
        return EXIT_USAGE
    _check_radius(args.radius)
    g = _load_graph(args.graph)
    if args.regular:
        report = bound.regular_constructive_bound(g)
    else:
        report = bound.constructive_upper_bound(g, args.radius)
    _emit(report.to_dict(), args.plain)
    return EXIT_OK


def _cmd_scan(args) -> int:
    report = scans.THEOREM_SCANS[args.theorem](args.max_n, force=args.unsafe_cap)
    _emit(report.to_dict(), args.plain)
    return EXIT_OK if report.ok else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idcodes",
        description="Identifying-code toolkit: generate, verify, solve, classify, bound, scan.",
    )
    parser.add_argument("--plain", action="store_true", help="flat key/value output instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a family graph as an edge list")
    p.add_argument("--family", required=True, help="A:<k> | star:<t> | join:<k1>,..[+u] | KminusM:<n> | fig4")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("power", help="emit the r-th power of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--radius", type=_int_arg, required=True)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("verify", help="check a code and print the certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--code", required=True, help="comma-separated vertex list (may be empty)")
    p.add_argument("--kind", required=True, choices=list(codes.KINDS))
    p.add_argument("--radius", type=_int_arg, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="exact minimum code of a kind")
    p.add_argument("--graph", required=True)
    p.add_argument("--kind", required=True, choices=list(codes.KINDS))
    p.add_argument("--radius", type=_int_arg, default=1)
    p.add_argument("--all-minimum", action="store_true", help="also list every minimum separating set")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("classify", help="structural extremality classification")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("bound", help="constructive upper-bound pipeline")
    p.add_argument("--graph", required=True)
    p.add_argument("--radius", type=_int_arg, default=1)
    p.add_argument("--regular", action="store_true", help="use the regular-graph variant")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("scan", help="exhaustive cross-check over all small graphs")
    p.add_argument("--max-n", type=_int_arg, required=True)
    p.add_argument("--theorem", choices=sorted(scans.THEOREM_SCANS), required=True)
    p.add_argument(
        "--unsafe-cap",
        action="store_true",
        help=f"override the scans' vertex cap (n <= {scans.SCAN_CAP}); a scan visits every "
        f"isomorphism class ({scans._CLASSES[10]:,} graphs on 10 vertices, {scans._CLASSES[11]:,} on 11)",
    )
    p.set_defaults(func=_cmd_scan)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # one parser per process: building it costs about 20 times parsing, and
    # parse_args leaves the parser unchanged
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    except (AssertionError, RuntimeError) as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
