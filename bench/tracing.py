"""Span tracing installed from outside the package.

``Tracer.install`` replaces cross-module names of the imported ``idcodes``
package (for example ``idcodes.scans.classify_extremal`` or
``idcodes.solve._search_minimum``) with wrappers that record one span per
call: name, parent span, start and end.  Spans stay in memory in flat arrays
and are written out once at the end.  A layer's self time is the duration
of its spans minus the time their direct child spans cover.

Names that a later version of the package no longer has are skipped, so
their metrics read 0 instead of breaking the run.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import Counter

LAYERS = ("graph", "codes", "solve", "families", "classify", "bound", "scans", "cli")
CERTIFY = (
    "codes.is_dominating",
    "codes.is_separating",
    "codes.is_identifying",
    "codes.is_locating_dominating",
    "codes.is_discriminating",
)


def _count_extremal(counts, args, result):
    counts["classify.extremal"] += result.is_extremal


def _count_search(counts, args, result):
    size, _, explored = result
    counts["solve.candidates"] += explored
    counts["solve.code_vertices"] += size
    counts["solve.forced_vertices"] += args[3].bit_count()


def _count_invalid(counts, args, result):
    counts["codes.invalid"] += not result.valid


def _count_probe_hit(counts, args, result):
    counts["bound.removable_hits"] += bool(result)


def _count_checked(counts, args, result):
    counts["scans.checked"] += result.graphs_checked


_SCAN_FUNCTIONS = (
    "scan_extremal_classification",
    "scan_low_degree",
    "scan_regular_odd",
    "scan_removable_vertex",
    "scan_conjectured_degree_bound",
    "scan_locating_dominating",
    "scan_gamma_chain",
)

# (owner inside the package, attribute, span name, result hook); the span
# name starts with the layer that defines the function, not the caller.
SITES = [
    *[("scans", f, f"scans.{f}", _count_checked) for f in _SCAN_FUNCTIONS],
    ("scans", "_connected_masks", "scans.filter", None),
    ("scans", "_gamma_id_level", "scans.gamma_level", None),
    ("scans", "classify_extremal", "classify.classify_extremal", _count_extremal),
    ("scans", "_least_removable", "bound.least_removable", None),
    ("classify", "recognize_band_graph", "classify.recognize_band_graph", None),
    ("classify", "find_isomorphism", "graph.find_isomorphism", None),
    ("classify", "complement", "graph.complement", None),
    ("classify", "induced_subgraph", "graph.induced_subgraph", None),
    ("classify", "connected_component_masks", "graph.components", None),
    ("classify", "twin_pairs", "graph.twin_pairs", None),
    ("classify", "is_connected", "graph.is_connected", None),
    ("graph.Graph", "_from_masks", "graph.construct", None),
    ("graph.Graph", "__init__", "graph.construct", None),
    ("solve", "solve_minimum", "solve.solve_minimum", None),
    ("solve", "enumerate_minimum_separating_sets", "solve.enumerate_minimum_separating_sets", None),
    ("solve", "_search_minimum", "solve.search", _count_search),
    ("solve", "_forced_mask", "solve.forced", None),
    ("solve", "_ball_mask", "graph.ball_mask", None),
    *[("codes", name.split(".")[1], name, _count_invalid) for name in CERTIFY],
    ("codes", "membership_graph", "codes.membership_graph", None),
    ("codes", "_ball_mask", "graph.ball_mask", None),
    ("bound", "constructive_upper_bound", "bound.constructive_upper_bound", None),
    ("bound", "regular_constructive_bound", "bound.regular_constructive_bound", None),
    ("bound", "greedy_independent_set", "bound.independent_set", None),
    ("bound", "_least_removable", "bound.least_removable", None),
    ("bound", "_twin_free_without", "bound.removable_probe", _count_probe_hit),
    ("bound", "code_from_independent_set", "bound.code_from_set", None),
    ("bound", "_ball_mask", "graph.ball_mask", None),
    ("bound", "is_connected", "graph.is_connected", None),
    ("cli", "main", "cli.main", None),
    ("cli", "parse_edge_list", "graph.parse", None),
    ("cli", "_emit", "cli.emit", None),
    *[("families", f, "families.build", None)
      for f in ("cycle_graph", "band_graph", "petersen_graph", "band5_square_root")],
]
# the Gray-code sweep is a generator: one span per graph it yields
SWEEP_SITE = ("scans", "_iter_closed_masks", "graph.sweep")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span: str, hook=None):
        nid = self._name_id(span)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        counts, clock = self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def wrap_generator(self, fn, span: str):
        nid = self._name_id(span)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        counts, clock = self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = len(names)
                names.append(nid)
                parents.append(stack[-1])
                starts.append(0)
                ends.append(0)
                stack.append(i)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    ends[i] = clock()
                    starts[i] = t0
                    stack.pop()
                counts["scans.swept"] += 1
                yield item

        return traced

    def _replace(self, owner, attr: str, make) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self, idc) -> "Tracer":
        """Wrap every site the package still has; ``uninstall`` restores."""

        def resolve(path):
            obj = idc
            for part in path.split("."):
                obj = getattr(obj, part, None)
            return obj

        for path, attr, span, hook in SITES:
            owner = resolve(path)
            if owner is not None:
                self._replace(owner, attr, lambda fn: self.wrap(fn, span, hook))
        path, attr, span = SWEEP_SITE
        owner = resolve(path)
        if owner is not None:
            self._replace(owner, attr, lambda fn: self.wrap_generator(fn, span))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------

    def summary(self) -> tuple[dict[str, list[float]], dict[str, float]]:
        """({span name: [calls, seconds]}, {layer: self seconds})."""
        n = len(self.name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        by_name: dict[str, list[float]] = {}
        by_layer = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            name = self.names[self.name[i]]
            entry = by_name.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += dur[i] / 1e9
            layer = name.split(".", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + (dur[i] - child[i]) / 1e9
        return by_name, by_layer

    def write(self, path) -> None:
        """Spans as gzip TSV: id, parent, root (the operation's top span), name, start, end (ns)."""
        root = array("i", bytes(4 * len(self.name)))
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\troot\tname\tstart_ns\tend_ns\n")
            for i, p in enumerate(self.parent):
                root[i] = i if p < 0 else root[p]
                out.write(f"{i}\t{p}\t{root[i]}\t{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\n")
