#!/usr/bin/env python3
"""Freeze the benchmark goldens from the package in this checkout.

    python3 bench/freeze.py

Writes ``bench/goldens/{scans,solve,bound,meta}.json``: the full scan
reports, and for every member of the solve and bound input pools the digest
of its input, the digest of its output (``idcodes solve`` stdout, or the
bound report dict as sorted-key JSON) and a few readable fields.  Goldens
define "unchanged" for every later run, so regenerate them only when the
pool itself changes, from a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402
import run  # noqa: E402


def freeze() -> None:
    idc = run.load_package()
    scans = {}
    for name, fn, max_n, _ in run.SCANS:
        scans[name] = run.canonical(getattr(idc.scans, fn)(max_n).to_dict())
        print(f"scan {name}: {scans[name]['graphs_checked']} checked", flush=True)

    solve = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for stratum in inputs.SOLVE_STRATA:
            for v in range(stratum.pool):
                text, argv = run.solve_case(idc, stratum, v, Path(tmp) / "g.txt")
                code, out = run.run_cli(idc, argv)
                if code != 0:
                    raise SystemExit(f"solve {stratum.key}#{v} exited with {code}")
                report = json.loads(out)
                solve[f"{stratum.key}#{v}"] = {
                    "input": inputs.digest(text),
                    "stdout": inputs.digest(out),
                    "minimum": report["minimum"],
                    "explored": report["explored"],
                }
        print(f"solve: {len(solve)} pool members", flush=True)

    bound = {}
    for stratum in inputs.BOUND_STRATA:
        for v in range(stratum.pool):
            g, edges = inputs.bound_graph(stratum, v, idc)
            report = run.run_bound(idc, stratum, g)
            bound[f"{stratum.key}#{v}"] = {
                "input": inputs.digest(inputs.edge_list_text(g.n, edges)),
                "report": run.bound_digest(report),
                "code_size": len(report.code),
                "bound_ceiling": report.bound_ceiling(),
            }
    print(f"bound: {len(bound)} pool members", flush=True)

    meta = {
        "commit": run.checkout_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "frozen_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "default_seed": inputs.DEFAULT_SEED,
        "held_out_seed": inputs.HELD_OUT_SEED,
    }
    run.GOLDENS.mkdir(exist_ok=True)
    for name, table in (("scans", scans), ("solve", solve), ("bound", bound), ("meta", meta)):
        (run.GOLDENS / f"{name}.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    freeze()
