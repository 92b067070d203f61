#!/usr/bin/env python3
"""Benchmark for the idcodes package in this checkout.

    python3 bench/run.py --workload scan-exhaustive --seed 1 --seconds 24 --trace 0

Every run executes three phases through the package's public entry points,
one closed-loop client in one process and one thread:

  scan   the seven exhaustive scans of ``idcodes.scans`` (max_n 6; 5 for
         gamma-chain), checked against frozen reports;
  solve  ``idcodes.cli.main(["solve", ...])`` on seeded edge-list files,
         stdout compared byte for byte (by digest) with frozen output;
  bound  ``idcodes.bound`` pipelines on seeded 20-2000 vertex graphs,
         report dicts compared (by digest) with frozen ones.

A run makes ``round(seconds / CYCLE_S)`` cycles (at least one), each
``CYCLE_ROUNDS`` passes of every phase, plus one more pass of the phases the
workload names.  So every end-to-end metric is reported on every workload,
while the named phases carry the most load.  Per-operation times are medians
over the run's passes, scaled to a nominal host speed (``Speed``).

With ``--trace 1`` only the workload's phases run: a warm-up pass, one pass
with span tracing (see ``tracing.py``), then untraced passes for the rest of
``--seconds``; the per-layer metrics and the tracing overhead against the
untraced passes are reported instead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report.  The run exits with status 2, printing no result, when the
checkout has no ``src/idcodes`` package.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDENS = BENCH / "goldens"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
import inputs  # noqa: E402
from tracing import CERTIFY, LAYERS, Tracer  # noqa: E402

PHASES = ("scan", "solve", "bound")
# workload -> the phases it loads most; a traced run executes only these
WORKLOADS = {"scan-exhaustive": ("scan",), "solve-bound": ("solve", "bound")}
SETUP_REPEATS = 3
# Passes per cycle.  The scans run twice: each is a single operation of
# 0.07-0.5 s, so a run needs more of them than of the many solve and bound
# instances to get a steady median.
CYCLE_ROUNDS = {"scan": 2, "solve": 1, "bound": 1}
# A cycle takes about 6.5 s at the reference loop's nominal speed.  A run
# makes round(seconds / CYCLE_S) cycles plus one more pass of the workload's
# own phases; with set-up that is about 24-27 s at --seconds 24.  The count
# is fixed, so every run of a workload measures the same work and the sample
# count does not follow the host's speed.
CYCLE_S = 8.0
CHUNK_S = 0.15  # operation time between two reference-loop timings
REFERENCE_ITERATIONS = 22_500
REFERENCE_NOMINAL_S = 0.005  # the loop's median time on the 2-core host the goldens were frozen on
TAIL_BEYOND = 10

# (report name, function in idcodes.scans, max_n, first n the scan sweeps)
SCANS = (
    ("thm12", "scan_extremal_classification", 6, 2),
    ("cor13", "scan_low_degree", 6, 3),
    ("remark1", "scan_regular_odd", 6, 2),
    ("lemma7", "scan_removable_vertex", 6, 1),
    ("conjecture", "scan_conjectured_degree_bound", 6, 2),
    ("ld", "scan_locating_dominating", 6, 2),
    ("gamma-chain", "scan_gamma_chain", 5, 1),
)


def covered_graphs(first_n: int, max_n: int) -> int:
    """Labeled graphs a scan covers: the sum of 2^C(n,2)."""
    return sum(1 << (n * (n - 1) // 2) for n in range(first_n, max_n + 1))


END_TO_END = {
    **{f"scan.{name}.graphs_per_s": ("graphs/s", "higher") for name, *_ in SCANS},
    "solve.p50_ms": ("ms", "lower"),
    "solve.tail_ms": ("ms", "lower"),
    "bound.p50_ms": ("ms", "lower"),
    "bound.tail_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
}

_S = ("s", "lower")
PER_LAYER = {
    "scans.swept": ("count", "lower"),
    "scans.checked": ("count", "lower"),
    "scans.kept_ratio": ("ratio", "higher"),
    "scans.filter_s": _S,
    "scans.gamma_level_s": _S,
    "graph.sweep_s": _S,
    "graph.construct_s": _S,
    "graph.complement_s": _S,
    "graph.induced_subgraph_s": _S,
    "graph.components_s": _S,
    "graph.twin_pairs_s": _S,
    "graph.is_connected_s": _S,
    "graph.ball_mask_calls": ("count", "lower"),
    "graph.ball_mask_s": _S,
    "graph.parse_s": _S,
    "classify.calls": ("count", "lower"),
    "classify.band_recognitions": ("count", "lower"),
    "classify.extremal_ratio": ("ratio", "higher"),
    "classify.isomorphism_fallbacks": ("count", "lower"),
    "solve.candidates": ("count", "lower"),
    "solve.candidates_per_s": ("1/s", "higher"),
    "solve.search_s": _S,
    "solve.forced_s": _S,
    "solve.code_vertices": ("count", "lower"),
    "solve.forced_share": ("ratio", "higher"),
    "codes.certify_calls": ("count", "lower"),
    "codes.certify_s": _S,
    "codes.invalid_ratio": ("ratio", "lower"),
    "codes.discriminating_s": _S,
    "codes.membership_s": _S,
    "bound.independent_set_s": _S,
    "bound.least_removable_s": _S,
    "bound.removable_probes": ("count", "lower"),
    "bound.removable_hit_ratio": ("ratio", "higher"),
    "bound.code_from_set_s": _S,
    "cli.emit_s": _S,
    "families.build_s": _S,
    **{f"{layer}.self_s": _S for layer in LAYERS},
    "trace.spans": ("count", "lower"),
    "trace.untraced_s": _S,
    "trace.traced_s": _S,
    "trace.overhead_ratio": ("ratio", "lower"),
    "e2e.solve_instances": ("count", "higher"),
    "e2e.solve_tail_pct": ("%", "higher"),
    "e2e.bound_instances": ("count", "higher"),
    "e2e.bound_tail_pct": ("%", "higher"),
    "e2e.rounds": ("count", "higher"),
    "e2e.attempted": ("count", "higher"),
    "e2e.failed_ratio": ("ratio", "lower"),
}


# -- the package ------------------------------------------------------------


def load_package():
    """Import ``idcodes`` afresh from this checkout's ``src``, never from an
    installed copy."""
    if not (SRC / "idcodes" / "__init__.py").is_file():
        print(f"error: no idcodes package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "idcodes" or m.startswith("idcodes.")]:
        del sys.modules[name]
    idc = importlib.import_module("idcodes")
    for sub in ("graph", "codes", "solve", "families", "classify", "bound", "scans", "cli"):
        importlib.import_module(f"idcodes.{sub}")
    if Path(idc.__file__).resolve().parent != (SRC / "idcodes").resolve():
        print(f"error: imported idcodes from {idc.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return idc


def canonical(report: dict) -> dict:
    return json.loads(json.dumps(report, sort_keys=True))


def solve_case(idc, stratum, variant: int, path: Path) -> tuple[str, list[str]]:
    """Write one solve instance to ``path``; returns its text and the CLI argv."""
    text = inputs.edge_list_text(*inputs.solve_graph(stratum, variant, idc))
    path.write_text(text)
    argv = ["solve", "--graph", str(path), "--kind", stratum.kind, "--radius", str(stratum.radius)]
    if stratum.all_minimum:
        argv.append("--all-minimum")
    return text, argv


def run_cli(idc, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = idc.cli.main(argv)
    return code, out.getvalue()


def run_bound(idc, stratum, g):
    if stratum.pipeline == "regular":
        return idc.bound.regular_constructive_bound(g)
    return idc.bound.constructive_upper_bound(g, stratum.radius)


def bound_digest(report) -> str:
    return inputs.digest(json.dumps(report.to_dict(), sort_keys=True))


# -- set-up -------------------------------------------------------------------


@dataclass
class Op:
    key: str
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Bench:
    idc: object
    ops: dict[str, list[Op]]
    covered: dict[str, int]
    input_mismatches: list[str] = field(default_factory=list)


def load_goldens() -> dict:
    return {name: json.loads((GOLDENS / f"{name}.json").read_text()) for name in ("scans", "solve", "bound")}


def setup(seed: int, workdir: Path, tracer: Tracer | None = None) -> Bench:
    """Import the package, generate the seeded inputs, write the solve
    fixtures and load the goldens."""
    idc = load_package()
    if tracer is not None:
        tracer.install(idc)
    try:
        return _build(idc, seed, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()


def _build(idc, seed: int, workdir: Path) -> Bench:
    goldens = load_goldens()
    bench = Bench(idc, {}, {})
    missing: dict = {}

    def expect(table: str, key: str, text: str) -> dict:
        want = goldens[table].get(key, missing)
        if want is missing or want["input"] != inputs.digest(text):
            bench.input_mismatches.append(f"{table}:{key}")
            return {}
        return want

    ops = bench.ops["scan"] = []
    for name, fn, max_n, first_n in SCANS:
        bench.covered[name] = covered_graphs(first_n, max_n)
        want = goldens["scans"].get(name)
        ops.append(Op(
            name,
            lambda fn=fn, max_n=max_n: getattr(idc.scans, fn)(max_n),
            lambda r, want=want: canonical(r.to_dict()) == want,
        ))

    workdir.mkdir(parents=True, exist_ok=True)
    ops = bench.ops["solve"] = []
    for i, (stratum, v) in enumerate(inputs.choose(inputs.SOLVE_STRATA, seed)):
        key = f"{stratum.key}#{v}"
        text, argv = solve_case(idc, stratum, v, workdir / f"{i:03d}.txt")
        want = expect("solve", key, text)
        ops.append(Op(
            key,
            lambda argv=argv: run_cli(idc, argv),
            lambda r, want=want: r[0] == 0 and inputs.digest(r[1]) == want.get("stdout"),
        ))

    ops = bench.ops["bound"] = []
    for stratum, v in inputs.choose(inputs.BOUND_STRATA, seed):
        key = f"{stratum.key}#{v}"
        g, edges = inputs.bound_graph(stratum, v, idc)
        want = expect("bound", key, inputs.edge_list_text(g.n, edges))
        ops.append(Op(
            key,
            lambda stratum=stratum, g=g: run_bound(idc, stratum, g),
            lambda r, want=want: bound_digest(r) == want.get("report"),
        ))
    return bench


# -- measurement ------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


def reference_loop() -> float:
    """Fixed pure-Python work of the kind the package's kernels do (integer
    bit tricks and dict stores); returns its wall time."""
    clock = time.perf_counter
    t0 = clock()
    acc = 0
    seen = {}
    for i in range(REFERENCE_ITERATIONS):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc ^= (x & -x).bit_length()
        seen[x & 4095] = i
    elapsed = clock() - t0
    if acc < 0 or len(seen) != 4096:
        raise AssertionError("reference loop computed the wrong result")
    return elapsed


Samples = dict[str, list[tuple[float, int]]]


class Speed:
    """Scales wall times to the nominal speed of the reference loop.

    The loop is timed between chunks of operations, and each operation's
    time is multiplied by the nominal loop time over the mean of the two
    loop times around its chunk.  The host's speed drifts by a third within
    seconds, as other tenants come and go; scaling by the loop next to each
    chunk cancels most of that drift.
    """

    def __init__(self):
        self.refs = [reference_loop()]

    def mark(self) -> int:
        """Time the loop again; the chunk since the previous mark gets this index."""
        self.refs.append(reference_loop())
        return len(self.refs) - 1

    def factor(self, mark: int) -> float:
        return REFERENCE_NOMINAL_S / ((self.refs[mark - 1] + self.refs[mark]) / 2)

    def scale(self, samples: Samples) -> dict[str, list[float]]:
        return {key: [t * self.factor(m) for t, m in v] for key, v in samples.items()}

    def machine_factor(self) -> float:
        """How much slower than nominal the host ran (median over the run)."""
        return statistics.median(self.refs) / REFERENCE_NOMINAL_S


def run_round(ops: list[Op], samples: Samples, tally: Tally, speed: Speed) -> float:
    """Run every op once, closed loop, recording each wall time with the
    speed mark of its chunk; returns the round's wall time."""
    gc.collect()
    clock = time.perf_counter
    begin = clock()
    pending: list[tuple[str, float]] = []
    busy = 0.0
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            result = op.call()
            elapsed = clock() - t0
            ok = op.check(result)
        except Exception:
            elapsed = clock() - t0
            ok = False
            print(f"# {op.key} raised:", file=sys.stderr)
            traceback.print_exc()
        tally.attempted += 1
        if not ok:
            tally.failed += 1
            print(f"# MISMATCH {op.key}", file=sys.stderr)
        pending.append((op.key, elapsed))
        busy += elapsed
        if busy >= CHUNK_S or i == len(ops) - 1:
            mark = speed.mark()
            for key, t in pending:
                samples.setdefault(key, []).append((t, mark))
            pending, busy = [], 0.0
    return clock() - begin


def run_for(ops, budget: float, samples: Samples, tally, speed) -> list[float]:
    """Rounds until ``budget`` seconds have passed, at least one."""
    start = time.perf_counter()
    rounds = [run_round(ops, samples, tally, speed)]
    while time.perf_counter() - start < budget:
        rounds.append(run_round(ops, samples, tally, speed))
    return rounds


def latency(times: dict[str, list[float]]) -> dict:
    """p50 and tail over per-instance medians.  The tail is the highest
    percentile with at least ``TAIL_BEYOND`` instances beyond it."""
    xs = sorted(statistics.median(v) for v in times.values())
    n = len(xs)
    return {
        "p50_ms": statistics.median(xs) * 1e3,
        "tail_ms": xs[n - TAIL_BEYOND - 1] * 1e3,
        "tail_pct": 100.0 * (n - TAIL_BEYOND) / n,
        "instances": n,
    }


def checkout_commit() -> str:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def report_header(workload: str, seed: int) -> None:
    meta = json.loads((GOLDENS / "meta.json").read_text())
    print(f"# workload={workload} seed={seed} nproc={os.cpu_count()} "
          f"python={platform.python_version()} commit={checkout_commit()} "
          f"goldens_frozen_at={meta['commit']}")


def timed_run(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    speed = Speed()
    setup_samples: Samples = {"setup": []}
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        bench = setup(seed, workdir)
        setup_samples["setup"].append((time.perf_counter() - t0, speed.mark()))
    tally = Tally()
    samples: dict[str, Samples] = {phase: {} for phase in PHASES}
    rounds = {phase: [] for phase in PHASES}
    for cycle in range(max(1, round(seconds / CYCLE_S))):
        # interleaved, so every phase samples the whole run's time window
        for phase in PHASES:
            for _ in range(CYCLE_ROUNDS[phase] + (cycle == 0 and phase in WORKLOADS[workload])):
                rounds[phase].append(run_round(bench.ops[phase], samples[phase], tally, speed))
    tally.failed += len(bench.input_mismatches)
    times = {phase: speed.scale(samples[phase]) for phase in PHASES}
    setup_times = speed.scale(setup_samples)["setup"]

    metrics = {}
    for name, _, _, _ in SCANS:
        metrics[f"scan.{name}.graphs_per_s"] = bench.covered[name] / statistics.median(times["scan"][name])
    notes = {}
    for phase in ("solve", "bound"):
        lat = latency(times[phase])
        metrics[f"{phase}.p50_ms"] = lat["p50_ms"]
        metrics[f"{phase}.tail_ms"] = lat["tail_ms"]
        notes[phase] = lat
    metrics["setup_s"] = statistics.median(setup_times)

    report_header(workload, seed)
    print(f"# times are scaled to the reference loop's nominal {REFERENCE_NOMINAL_S * 1e3:.1f} ms; "
          f"this run's host ran {speed.machine_factor():.3f}x nominal over {len(speed.refs)} loops")
    for phase in PHASES:
        print(f"# {phase}: {len(rounds[phase])} round(s), {sum(rounds[phase]):.2f} s")
    for phase, lat in notes.items():
        print(f"# {phase}: tail = p{lat['tail_pct']:.1f} over {lat['instances']} instance medians "
              f"({TAIL_BEYOND} beyond it)")
    print(f"# setup_s: median of {SETUP_REPEATS} set-ups {[round(t, 3) for t in setup_times]}")
    for key in bench.input_mismatches:
        print(f"# INPUT MISMATCH {key}: generated input differs from the frozen pool")
    print(f"# failed_ratio = {tally.failed}/{tally.attempted}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {END_TO_END[name][0]}")
    return result(tally, {k: (v, END_TO_END[k][0]) for k, v in metrics.items()})


def traced_run(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    phases = WORKLOADS[workload]
    setup_tracer = Tracer()
    bench = setup(seed, workdir, setup_tracer)
    ops = [op for phase in phases for op in bench.ops[phase]]
    tally = Tally()
    samples: Samples = {}
    speed = Speed()
    start = time.perf_counter()
    run_round(ops, {}, tally, speed)  # warm-up
    tracer = Tracer().install(bench.idc)
    try:
        traced = run_round(ops, {}, tally, speed)
    finally:
        tracer.uninstall()
    untraced = run_for(ops, seconds - (time.perf_counter() - start), samples, tally, speed)
    tally.failed += len(bench.input_mismatches)

    m = layer_metrics(tracer, setup_tracer)
    base = statistics.median(untraced)
    m["trace.untraced_s"] = base
    m["trace.traced_s"] = traced
    m["trace.overhead_ratio"] = traced / base - 1
    times = speed.scale(samples)
    for phase in ("solve", "bound"):
        keys = [op.key for op in bench.ops[phase]] if phase in phases else []
        m[f"e2e.{phase}_instances"] = len(keys)
        m[f"e2e.{phase}_tail_pct"] = latency({k: times[k] for k in keys})["tail_pct"] if keys else 0.0
    m["e2e.rounds"] = len(untraced)
    m["e2e.attempted"] = tally.attempted
    m["e2e.failed_ratio"] = tally.failed / tally.attempted

    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"trace-{workload}.tsv.gz")
    setup_tracer.write(WORK / f"trace-{workload}-setup.tsv.gz")
    report_header(workload, seed)
    print(f"# traced one round of {'+'.join(phases)}: {traced:.2f} s against an untraced median of "
          f"{base:.2f} s over {len(untraced)} round(s); spans in {WORK.name}/trace-{workload}.tsv.gz")
    print(f"# failed_ratio = {tally.failed}/{tally.attempted}")
    for name, value in m.items():
        print(f"# {name} = {value:.6g} {PER_LAYER[name][0]}")
    return result(tally, {k: (v, PER_LAYER[k][0]) for k, v in m.items()})


def layer_metrics(tracer: Tracer, setup_tracer: Tracer) -> dict[str, float]:
    spans, self_s = tracer.summary()
    setup_spans, setup_self = setup_tracer.summary()
    c = tracer.counts

    def calls(*names):
        return sum(spans.get(n, (0, 0.0))[0] for n in names)

    def secs(*names):
        return sum(spans.get(n, (0, 0.0))[1] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "scans.swept": c["scans.swept"],
        "scans.checked": c["scans.checked"],
        "scans.kept_ratio": ratio(c["scans.checked"], c["scans.swept"]),
        "scans.filter_s": secs("scans.filter"),
        "scans.gamma_level_s": secs("scans.gamma_level"),
        "graph.sweep_s": secs("graph.sweep"),
        "graph.construct_s": secs("graph.construct"),
        "graph.complement_s": secs("graph.complement"),
        "graph.induced_subgraph_s": secs("graph.induced_subgraph"),
        "graph.components_s": secs("graph.components"),
        "graph.twin_pairs_s": secs("graph.twin_pairs"),
        "graph.is_connected_s": secs("graph.is_connected"),
        "graph.ball_mask_calls": calls("graph.ball_mask"),
        "graph.ball_mask_s": secs("graph.ball_mask"),
        "graph.parse_s": secs("graph.parse"),
        "classify.calls": calls("classify.classify_extremal"),
        "classify.band_recognitions": calls("classify.recognize_band_graph"),
        "classify.extremal_ratio": ratio(c["classify.extremal"], calls("classify.classify_extremal")),
        "classify.isomorphism_fallbacks": calls("graph.find_isomorphism"),
        "solve.candidates": c["solve.candidates"],
        "solve.candidates_per_s": ratio(c["solve.candidates"], secs("solve.search")),
        "solve.search_s": secs("solve.search"),
        "solve.forced_s": secs("solve.forced"),
        "solve.code_vertices": c["solve.code_vertices"],
        "solve.forced_share": ratio(c["solve.forced_vertices"], c["solve.code_vertices"]),
        "codes.certify_calls": calls(*CERTIFY),
        "codes.certify_s": secs(*CERTIFY),
        "codes.invalid_ratio": ratio(c["codes.invalid"], calls(*CERTIFY)),
        "codes.discriminating_s": secs("codes.is_discriminating"),
        "codes.membership_s": secs("codes.membership_graph"),
        "bound.independent_set_s": secs("bound.independent_set"),
        "bound.least_removable_s": secs("bound.least_removable"),
        "bound.removable_probes": calls("bound.removable_probe"),
        "bound.removable_hit_ratio": ratio(c["bound.removable_hits"], calls("bound.removable_probe")),
        "bound.code_from_set_s": secs("bound.code_from_set"),
        "cli.emit_s": secs("cli.emit"),
        "families.build_s": setup_spans.get("families.build", (0, 0.0))[1],
        # the families layer only runs while the inputs are generated
        **{f"{layer}.self_s": (setup_self if layer == "families" else self_s)[layer] for layer in LAYERS},
        "trace.spans": len(tracer.name),
    }
    return m


def result(tally: Tally, metrics: dict[str, tuple[float, str]]) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "idcodes" / "__init__.py").is_file():
        print(f"error: no idcodes package under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"run-{os.getpid()}"
    run = traced_run if args.trace else timed_run
    try:
        out = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
