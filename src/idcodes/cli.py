"""Command-line interface.

Reports are JSON by default (stable key order, sorted vertex lists) so runs
are byte-reproducible; ``--plain`` switches to flat key/value lines.  Exit
statuses: 0 success, 2 usage or input errors, 3 failed structural
preconditions (e.g. twins present), 4 internal assertion failures or
failed scans.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bound, classify, codes, scans, solve
from .families import make_family, parse_family_spec
from .graph import Graph, PreconditionError, format_edge_list, parse_edge_list, power

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
    return [int(tok) for tok in text.split(",")]


def _emit(report: dict, plain: bool) -> None:
    if not plain:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for key in sorted(report):
        value = report[key]
        if isinstance(value, (list, dict)):
            value = json.dumps(value, sort_keys=True)
        print(f"{key}\t{value}")


def _cmd_generate(args) -> int:
    if args.family == "fig4":
        from .families import band5_square_root

        g = band5_square_root()
    else:
        g = make_family(parse_family_spec(args.family))
    sys.stdout.write(format_edge_list(g))
    return EXIT_OK


def _cmd_power(args) -> int:
    g = _load_graph(args.graph)
    sys.stdout.write(format_edge_list(power(g, args.radius)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    cert = codes.check_code(g, _parse_code(args.code), args.kind, args.radius)
    _emit(cert.to_dict(), args.plain)
    return EXIT_OK


def _cmd_solve(args) -> int:
    if args.all_minimum and args.kind != "separating":
        print("--all-minimum is only available for kind 'separating'", file=sys.stderr)
        return EXIT_USAGE
    g = _load_graph(args.graph)
    report = solve.solve_minimum(g, args.kind, args.radius).to_dict()
    if args.all_minimum:
        sets = solve.enumerate_minimum_separating_sets(g, args.radius)
        report["all_minimum_sets"] = [sorted(s) for s in sets]
    _emit(report, args.plain)
    return EXIT_OK


def _cmd_classify(args) -> int:
    g = _load_graph(args.graph)
    _emit(classify.classify_extremal(g).to_dict(), args.plain)
    return EXIT_OK


def _cmd_bound(args) -> int:
    g = _load_graph(args.graph)
    if args.regular:
        if args.radius != 1:
            print("the regular variant is defined for radius 1 only", file=sys.stderr)
            return EXIT_USAGE
        report = bound.regular_constructive_bound(g)
    else:
        report = bound.constructive_upper_bound(g, args.radius)
    _emit(report.to_dict(), args.plain)
    return EXIT_OK


def _cmd_scan(args) -> int:
    if args.conjecture == (args.theorem is not None):
        print("pass exactly one of --theorem or --conjecture", file=sys.stderr)
        return EXIT_USAGE
    report = scans.THEOREM_SCANS[args.theorem or "conjecture"](args.max_n, force=args.unsafe_cap)
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
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("verify", help="check a code and print the certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--code", required=True, help="comma-separated vertex list (may be empty)")
    p.add_argument("--kind", required=True, choices=list(codes.KINDS))
    p.add_argument("--radius", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="exact minimum code of a kind")
    p.add_argument("--graph", required=True)
    p.add_argument("--kind", required=True, choices=list(codes.KINDS))
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--all-minimum", action="store_true", help="also list every minimum separating set")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("classify", help="structural extremality classification")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("bound", help="constructive upper-bound pipeline")
    p.add_argument("--graph", required=True)
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--regular", action="store_true", help="use the regular-graph variant")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("scan", help="exhaustive cross-check over all small graphs")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--theorem", choices=sorted(scans.THEOREM_SCANS))
    p.add_argument("--conjecture", action="store_true", help="run the degree-bound conjecture scan")
    p.add_argument(
        "--unsafe-cap",
        action="store_true",
        help=f"override the scans' vertex cap (n <= {scans.SCAN_CAP}); a scan visits every "
        "isomorphism class (274,668 graphs on 9 vertices, 12,005,168 on 10)",
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
    except (AssertionError, RuntimeError) as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
