"""A standing mutation suite: each row breaks one cut, certifier or table
entry of the package on purpose and names the tests that must catch it.

For each row the script copies ``src/`` to a temporary directory, checks
that the row's old text occurs exactly once in its file, applies the edit
and runs the named tests with ``-x`` against the copy.  It prints one line
per mutant and exits 1 when a mutant survives or a row has gone stale: its
old text is not found exactly once, or its tests do not run.  A stale row
is updated to the code it guards, not dropped; a survivor is a finding
about the tests.  Run it from anywhere, with pytest installed:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/idcodes, exact old text, new text, tests that must fail)
MUTANTS = [
    (
        "packing cut one past the budget",
        "solve.py",
        "if packed > k:",
        "if packed > k + 1:",
        ["tests/test_solve.py"],
    ),
    (
        "empty-mask cut removed",
        "solve.py",
        "if not r:\n                return None",
        "if not r:\n                continue",
        ["tests/test_solve.py"],
    ),
    (
        "leaf step's last & low test inverted",
        "solve.py",
        "if last & low:",
        "if not last & low:",
        ["tests/test_solve.py"],
    ),
    (
        "split cut reads capacity[budget + 1]",
        "solve.py",
        "limit = capacity[budget]",
        "limit = capacity[budget + 1]",
        ["tests/test_solve.py"],
    ),
    (
        "capacity without + ld * b",
        "solve.py",
        "(1 << b) + ld * b",
        "(1 << b)",
        ["tests/test_solve.py"],
    ),
    (
        "complement certificate without s in index",
        "codes.py",
        "if not s or s in index or s in seen:",
        "if not s or s in seen:",
        ["tests/test_codes.py", "tests/test_bound.py"],
    ),
    (
        "removable-vertex probe with | for ^",
        "codes.py",
        "(balls[u.bit_length() - 1] ^ b) in index",
        "(balls[u.bit_length() - 1] | b) in index",
        ["tests/test_codes.py", "tests/test_bound.py"],
    ),
    (
        "join+u vertex count without its + 1",
        "families.py",
        '"join+u": _Row(join_family_plus_universal, True, 1, _FACTORS, 2, 1)',
        '"join+u": _Row(join_family_plus_universal, True, 1, _FACTORS, 2, 0)',
        ["tests/test_families.py::test_family_spec_above_vertex_cap_is_rejected_before_building"],
    ),
    (
        "degree filter one above the bound",
        "scans.py",
        "min(m, max_degree)",
        "min(m, max_degree + 1)",
        ["tests/test_scans.py::test_degree_bounded_sweep_is_the_sweep_filtered_by_degree"],
    ),
    (
        "size table stopping one size short of the bound",
        "scans.py",
        "range(top_degree + 1, high + 1)",
        "range(top_degree + 1, high)",
        ["tests/test_scans.py::test_sweep_stream_is_pinned_in_generation_order"],
    ),
    (
        "twin rule accepting a class of 2^left + 1",
        "scans.py",
        "cap = 1 << left",
        "cap = (1 << left) + 1",
        ["tests/test_scans.py::test_sweep_stream_is_pinned_in_generation_order"],
    ),
    (
        "orbit image tables dropping the image of point 0",
        "scans.py",
        "image = 1 << v\n",
        "image = 1 << v if v else 0\n",
        ["tests/test_scans.py::test_sweep_stream_is_pinned_in_generation_order"],
    ),
    (
        "sweep rooted at the one-vertex graph again",
        "scans.py",
        "stack = [((), 1, [])]",
        "stack = [((1,), 1, [])]",
        ["tests/test_scans.py::test_sweep_root_is_the_empty_graph"],
    ),
    (
        "ball builder one level short",
        "graph.py",
        "for _ in range(r - 1):",
        "for _ in range(r - 2):",
        ["tests/test_graph.py::test_ball_builder_and_power_match_naive_bfs"],
    ),
    (
        # before the pop, with one splitter left, the exit would be an
        # equivalent mutant: from the degree classes the last pending
        # splitter never splits a cell; ``base`` is the queue's length after
        # the pop
        "refinement's early exit taken with two splitters left",
        "graph.py",
        "if not cells[-1] & mark or not cells[-1] & ~within:",
        "if not cells[-1] & mark or not cells[-1] & ~within or base == 1:",
        ["tests/test_scans.py::test_stopped_refinement_decides_as_the_equitable_partition"],
    ),
    (
        # cells[i] is the first fragment of the last cell, visited first
        "last-cell-first test keeping the lowest-count fragment",
        "graph.py",
        "if not cells[-1] & mark or not cells[-1] & ~within:",
        "if not cells[i] & mark or not cells[i] & ~within:",
        ["tests/test_scans.py::test_stopped_refinement_decides_as_the_equitable_partition"],
    ),
    (
        # a slice past the end appends: each split cell's fragments are
        # queued after those of the cells after it, visited before it
        "refinement queueing a pass's fragments in visiting order",
        "graph.py",
        "base = len(todo)",
        "base = 1 << 62",
        ["tests/test_graph.py::test_refinement_matches_naive_colour_refinement"],
    ),
    (
        "degree partition built in descending order",
        "scans.py",
        "for d in range(degree) if",
        "for d in reversed(range(degree)) if",
        ["tests/test_scans.py::test_stopped_refinement_decides_as_the_equitable_partition"],
    ),
    (
        "degree partition with the new vertex outside the top class",
        "scans.py",
        "cells.append(top_class)",
        "cells += [new, top_class ^ new]",
        ["tests/test_scans.py::test_stopped_refinement_decides_as_the_equitable_partition"],
    ),
    (
        "canonical labelling's back-jump one level too far",
        "graph.py",
        "                shared += 1\n            return shared\n",
        "                shared += 1\n            return shared - 1\n",
        ["tests/test_graph.py"],
    ),
    (
        "dominating certifier skipping the domination test",
        "codes.py",
        'kind not in ("separating", "discriminating")',
        'kind not in ("separating", "discriminating", "dominating")',
        ["tests/test_codes.py"],
    ),
    (
        "separating certifier demanding domination",
        "codes.py",
        'kind not in ("separating", "discriminating")',
        'kind not in ("discriminating",)',
        ["tests/test_codes.py"],
    ),
    (
        "split need off by one: a class of capacity[budget] members cut",
        "solve.py",
        "if m > limit:\n            return None\n        if m > small:\n            parts.append(a)\n        a = c & outside",
        "if m >= limit:\n            return None\n        if m > small:\n            parts.append(a)\n        a = c & outside",
        ["tests/test_solve.py"],
    ),
    (
        "locating-dominating certifier comparing pairs inside the code",
        "codes.py",
        "_bit_indices(~c & (1 << len(sigs)) - 1)",
        "_bit_indices((1 << len(sigs)) - 1)",
        ["tests/test_codes.py"],
    ),
    (
        "Theorem 14 greedy spacing 5r",
        "bound.py",
        "spacing = 5 * radius + 1",
        "spacing = 5 * radius",
        ["tests/test_bound.py"],
    ),
    (
        "scans' identifying kernel accepting an empty signature",
        "codes.py",
        "if not s or s in seen:",
        "if s in seen:",
        [
            "tests/test_scans.py::test_kernels_agree_with_certified_checkers",
            "tests/test_scans.py::test_misses_matches_the_oracle_minimum",
        ],
    ),
    (
        "scans' locating-dominating kernel comparing code vertices too",
        "codes.py",
        "if not c >> v & 1:",
        "if True:",
        [
            "tests/test_scans.py::test_kernels_agree_with_certified_checkers",
            "tests/test_scans.py::test_misses_matches_the_oracle_minimum",
        ],
    ),
    (
        "_misses reading the subsets one size short",
        "scans.py",
        "_subsets_by_size(len(cn))[k]",
        "_subsets_by_size(len(cn))[k - 1]",
        ["tests/test_scans.py::test_misses_matches_the_oracle_minimum"],
    ),
    (
        "stabilizer walk stopping at half its known order",
        "scans.py",
        "if bound == order:",
        "if 2 * bound >= order:",
        ["tests/test_scans.py::test_stopped_stabilizer_walk_keeps_every_generator"],
    ),
    (
        "orbit proof accepting the first leaf below v",
        "scans.py",
        "if not _is_automorphism(child, p):",
        "if False:",
        ["tests/test_scans.py::test_every_kept_child_passes_the_orbit_test_with_its_automorphism_group"],
    ),
    (
        "fixed-set shortcut widened to orbits of size 2",
        "scans.py",
        "gens if size == 1 else",
        "gens if size <= 2 else",
        ["tests/test_scans.py::test_every_kept_child_passes_the_orbit_test_with_its_automorphism_group"],
    ),
    (
        "automorphism test comparing degrees only",
        "graph.py",
        "        rest = x >> u + 1 << u + 1  # u's neighbors above u\n",
        "        rest = 0\n        if near.bit_count() != x.bit_count():\n            return False\n",
        ["tests/test_graph.py::test_first_path_maps_are_automorphisms_inside_the_orbit"],
    ),
    (
        "canonical labelling's verdict ignored: a child outside the deletion orbit kept",
        "scans.py",
        "if lab[-1] == m or _orbit(1 << lab[-1], child_gens) >> m & 1:",
        "if True:",
        ["tests/test_scans.py::test_sweep_is_checked_order_free_to_eight_vertices"],
    ),
    (
        "orbit proof's |Aut| read from the twin class, not the last cell",
        "scans.py",
        "yield child, last.bit_count() * (order // size), child_gens",
        "yield child, twins.bit_count() * (order // size), child_gens",
        ["tests/test_scans.py::test_every_kept_child_passes_the_orbit_test_with_its_automorphism_group"],
    ),
    (
        "orbit proof's closure ignoring the maps found",
        "scans.py",
        "reached = _orbit(reached, found + fixing)",
        "reached = _orbit(reached, fixing)",
        ["tests/test_scans.py::test_last_level_labelings_are_pinned"],
    ),
    (
        "band rebuild's window one position wider",
        "classify.py",
        "window = below[min(i + k, size)]",
        "window = below[min(i + k + 1, size)]",
        ["tests/test_classify.py::test_recognize_band_graph_round_trip"],
    ),
]


def run(file: str, old: str, new: str, tests: list[str], scratch: Path) -> str:
    """The verdict on one row: killed, survived, or why the row is stale."""
    src = scratch / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src)
    path = src / "idcodes" / file
    text = path.read_text()
    if text.count(old) != 1:
        return f"stale: the old text occurs {text.count(old)} times in {file}"
    path.write_text(text.replace(old, new))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    command += ["-o", f"pythonpath={src}", *tests]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    # pytest exits 1 when a test fails; 0 lets the mutant live, and any
    # other status means the named tests did not run as written
    if result.returncode == 1:
        failures = [line for line in result.stdout.splitlines() if line.startswith("FAILED ")]
        return "killed by " + (failures[0].split()[1] if failures else "an error")
    if result.returncode == 0:
        return "survived"
    return f"stale: pytest exited {result.returncode}\n{result.stdout[-2000:]}"


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        for name, *row in MUTANTS:
            start = time.perf_counter()
            verdict, _, detail = run(*row, Path(scratch)).partition("\n")
            print(f"{time.perf_counter() - start:6.1f} s  {name}: {verdict}", flush=True)
            if not verdict.startswith("killed"):
                failed += 1
                print(detail, flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
