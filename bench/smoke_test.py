#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 bench/smoke_test.py

Makes a one-cycle run of every workload, untraced and traced. It asserts:

- the result line has exactly the keys of the result format;
- every golden matches (correct, no failures);
- every metric BENCHMARK.json names is emitted with its unit, and no other;
- every untraced metric is positive.

Last, it checks that the benchmark fails without printing a result in a
directory holding only BENCHMARK.json and the benchmark's own files.
Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [*SPEC["command"], "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int) -> None:
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, (out, proc.stderr[-3000:])
    spec = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == units, (set(got) ^ set(units), workload, trace)
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values()), out["metrics"]
    print(f"ok  {workload} trace={trace}: {out['attempted']} operations, {len(got)} metrics", flush=True)


def check_bare_directory() -> None:
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0, proc.stdout[-2000:]
        assert '"metrics"' not in proc.stdout, proc.stdout[-2000:]
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"ok  bare directory: exit {proc.returncode}, no result", flush=True)


def main() -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    import run

    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for trace in (0, 1):
        for workload in run.WORKLOADS:
            check_run(workload, trace)
    check_bare_directory()


if __name__ == "__main__":
    main()
