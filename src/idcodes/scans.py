"""Exhaustive desk-scale cross-checks over all small graphs.

All seven scans draw their graphs from one engine, ``_sweep``: one
representative of every isomorphism class up to a vertex cap, generated by
canonical deletion in a depth-first walk that keeps no record of the
classes already seen, and filtered inside the engine to the connected
and/or twin-free classes a scan asks for.  Every claim a scan checks is
invariant under relabeling, so each class stands for its n!/|Aut(G)|
labelings: ``graphs_checked`` and every count in ``details`` are sums of
these weights, and so count labeled graphs.  Each scan compares a
structural claim on those graphs against brute-force search, except
gamma-chain's bridge: an identity of masks settles it.  Reports are
deterministic: a counterexample is one entry per class, with the
representative's edge mask and edges and its number of ``labelings``;
the lists are sorted by (n, edge bitmask) and are expected to be empty.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial
from typing import Iterator

from . import codes, solve
from .bound import _least_removable
from .classify import JOIN_FAMILY, _classify_masks
from .codes import _identifying_ok, _locating_dominating_ok
from .graph import (
    Graph,
    _canon,
    _edge_mask,
    _orbit,
    _reach,
    _unpack,
    graph_from_edge_mask,
)

SCAN_CAP = 8  # every scan's vertex cap; each scan takes seconds at n = 8


@dataclass
class ScanReport:
    name: str
    max_n: int
    graphs_checked: int = 0
    counterexamples: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def finalize(self) -> "ScanReport":
        self.counterexamples.sort(key=lambda c: (c["n"], c["edge_mask"]))
        return self

    def to_dict(self) -> dict:
        return {
            "scan": self.name,
            "max_n": self.max_n,
            "graphs_checked": self.graphs_checked,
            "ok": self.ok,
            "counterexamples": self.counterexamples,
            "details": {str(k): v for k, v in self.details.items()},
        }


# isomorphism classes of graphs on n = 0..11 vertices (OEIS A000088)
_CLASSES = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168, 1018997864)


def _require_cap(name: str, max_n: int, force: bool) -> None:
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if max_n > SCAN_CAP and not force:
        classes = f"{_CLASSES[max_n]:,}" if max_n < len(_CLASSES) else f"over {_CLASSES[-1]:,}"
        raise ValueError(
            f"scan {name!r} is capped at n <= {SCAN_CAP} ({classes} isomorphism classes "
            f"on {max_n} vertices otherwise); pass force=True / --unsafe-cap to override"
        )


def _sweep(
    first_n: int, max_n: int, connected: bool = False, twin_free: bool = False
) -> Iterator[tuple[int, int, int, tuple[int, ...]]]:
    """Yield (n, edge_mask, weight, cn) once per isomorphism class of graphs
    on first_n..max_n vertices that passes the requested filters.

    The one sweep engine of the scans.  Each class is yielded as its
    canonical representative (``graph._canon``): edge_mask is its
    ``graph._edge_mask`` and ``cn`` holds the representative's
    closed-neighborhood masks.  ``weight`` = n!/|Aut(G)| is the number of
    labeled graphs in the class, so a count over labeled graphs is the sum
    of the weights of the classes it holds.

    The classes form a tree (McKay, "Isomorph-free exhaustive generation",
    1998): a graph's parent is the graph left after deleting its canonical
    deletion vertex, the maximum-degree vertex that the canonical labeling
    numbers last, up to automorphism.  Every class has one place in the
    tree, so no set of classes seen is kept: the walk is depth first, and
    only the pending children of the nodes on the current path, each a
    few masks and generators of Aut, are alive.
    """
    stack = [((0,), 0, 1, [])]  # the one-vertex graph: masks, cert, |Aut|, generators
    while stack:
        nbr, cert, order, gens = stack.pop()
        n = len(nbr)
        if n < max_n:
            stack.extend(_children(nbr, gens))
        if n < first_n:
            continue
        cn = tuple(m | 1 << v for v, m in enumerate(_unpack(cert, n)))
        full = (1 << n) - 1
        if twin_free and len(set(cn)) != n:
            continue
        if connected and _reach(cn, cn[0], full) != full:
            continue
        yield n, _edge_mask(cn), factorial(n) // order, cn


def _children(nbr, gens: list[list[int]]) -> Iterator[tuple[list[int], int, int, list[list[int]]]]:
    """The children in the canonical deletion tree of the graph with masks
    ``nbr`` and Aut generators ``gens``, as (masks, cert, |Aut|, gens).

    A new vertex joins one vertex set S per orbit of Aut(parent), only when
    it has the child's maximum degree; the child is kept when the new
    vertex lies in the Aut(child) orbit of its canonical deletion vertex."""
    m = len(nbr)
    new = 1 << m
    degrees = [x.bit_count() for x in nbr]
    top_degree = max(degrees)
    top = sum(1 << u for u, d in enumerate(degrees) if d == top_degree)
    # the new vertex, of degree |S|, must have the child's maximum degree
    subsets = [s for s in range(1 << m) if s.bit_count() >= top_degree + (s & top > 0)]
    for s in _orbit_representatives(subsets, gens, m):
        child = [x | new if s >> u & 1 else x for u, x in enumerate(nbr)]
        child.append(s)
        cert, lab, order, child_gens = _canon(child)
        last = next(v for v in reversed(lab) if child[v].bit_count() == s.bit_count())
        if last == m or _orbit(1 << last, child_gens) >> m & 1:
            yield child, cert, order, child_gens


def _orbit_representatives(subsets: list[int], gens: list[list[int]], m: int) -> list[int]:
    """The least member of each orbit of the group generated by ``gens`` on
    the vertex sets ``subsets`` (closed under the group), as masks."""
    if not gens:
        return subsets
    images = []
    for g in gens:
        table = [0] * (1 << m)
        for s in range(1, 1 << m):
            low = s & -s
            table[s] = table[s ^ low] | 1 << g[low.bit_length() - 1]
        images.append(table)
    reached = set()
    reps = []
    for s in subsets:
        if s in reached:
            continue
        reps.append(s)
        reached.add(s)
        stack = [s]
        while stack:
            x = stack.pop()
            for table in images:
                y = table[x]
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
    return reps


def _open(cn: tuple[int, ...]) -> tuple[int, ...]:
    """Open-neighborhood masks from closed ones."""
    return tuple(m ^ 1 << v for v, m in enumerate(cn))


def _entry(n: int, emask: int, weight: int, **extra) -> dict:
    """A counterexample: one class, with its number of labelings."""
    edges = [list(e) for e in graph_from_edge_mask(n, emask).edges()]
    return {"n": n, "edge_mask": emask, "edges": edges, "labelings": weight, **extra}


@lru_cache(maxsize=None)
def _all_but(n: int, k: int) -> tuple[int, ...]:
    """Masks of all n vertices but k, the left-out k-sets in combination order."""
    full = (1 << n) - 1
    return tuple(full ^ sum(1 << v for v in out) for out in itertools.combinations(range(n), k))


def _gamma_id_level(cn: list[int], n: int) -> int:
    """-1: a code misses two vertices; 0: exactly one; 1: none (needs all).

    Monotonicity of identifying codes under supersets makes the two fixed
    sizes sufficient to place the minimum relative to n - 1.
    """
    for c in _all_but(n, 2):
        if _identifying_ok(cn, c):
            return -1
    for c in _all_but(n, 1):
        if _identifying_ok(cn, c):
            return 0
    return 1


def scan_extremal_classification(max_n: int = 7, force: bool = False) -> ScanReport:
    """Structural recognizer vs brute force on every connected twin-free
    graph: the extremal outcomes must coincide exactly."""
    _require_cap("thm12", max_n, force)
    report = ScanReport("thm12", max_n)
    per_n = dict.fromkeys(range(2, max_n + 1), 0)
    extremal_per_n = dict(per_n)
    gamma_n_count = 0
    for n, emask, weight, cn in _sweep(2, max_n, connected=True, twin_free=True):
        per_n[n] += weight
        level = _gamma_id_level(cn, n)
        if level == 1:
            gamma_n_count += weight
        oracle_extremal = level == 0
        result = _classify_masks(_open(cn), n)
        if result.is_extremal != oracle_extremal:
            report.counterexamples.append(
                _entry(
                    n, emask, weight, oracle_extremal=oracle_extremal, classified=result.to_dict()
                )
            )
        if oracle_extremal:
            extremal_per_n[n] += weight
    report.graphs_checked = sum(per_n.values())
    report.details = {
        "connected_twin_free_per_n": per_n,
        "extremal_per_n": extremal_per_n,
        "graphs_needing_all_vertices": gamma_n_count,
    }
    return report.finalize()


def scan_low_degree(max_n: int = 7, force: bool = False) -> ScanReport:
    """Connected twin-free graphs with max degree <= n - 3 must admit an
    identifying code missing two vertices."""
    _require_cap("cor13", max_n, force)
    report = ScanReport("cor13", max_n)
    for n, emask, weight, cn in _sweep(3, max_n, connected=True, twin_free=True):
        max_degree = max(b.bit_count() for b in cn) - 1
        if max_degree > n - 3:
            continue
        report.graphs_checked += weight
        if _gamma_id_level(cn, n) != -1:
            report.counterexamples.append(_entry(n, emask, weight, max_degree=max_degree))
    return report.finalize()


def scan_regular_odd(max_n: int = 7, force: bool = False) -> ScanReport:
    """Every regular extremal graph is a complete graph minus a perfect
    matching; every odd-order extremal graph has a universal vertex."""
    _require_cap("remark1", max_n, force)
    report = ScanReport("remark1", max_n)
    extremal_seen = 0
    for n, emask, weight, cn in _sweep(2, max_n, connected=True, twin_free=True):
        report.graphs_checked += weight
        if _gamma_id_level(cn, n) != 0:
            continue
        extremal_seen += weight
        degrees = [b.bit_count() - 1 for b in cn]
        if len(set(degrees)) == 1:
            result = _classify_masks(_open(cn), n)
            if not (result.outcome == JOIN_FAMILY and all(k == 1 for k in result.factors)):
                report.counterexamples.append(
                    _entry(n, emask, weight, reason="regular", classified=result.to_dict())
                )
        if n % 2 == 1 and max(degrees) != n - 1:
            report.counterexamples.append(
                _entry(n, emask, weight, reason="odd-order", max_degree=max(degrees))
            )
    report.details = {"extremal_seen": extremal_seen}
    return report.finalize()


def scan_removable_vertex(
    max_n: int = 7, radii: tuple[int, ...] = (1, 2), force: bool = False
) -> ScanReport:
    """Every vertex of every graph with a twin-free r-th power has a
    removable vertex inside its radius-r ball.

    Only twin-free graphs are swept: twins of G stay twins in every power.
    """
    _require_cap("lemma7", max_n, force)
    if min(radii, default=1) < 1:
        raise ValueError("radius must be >= 1")
    if len(set(radii)) < len(radii):
        raise ValueError("radii must be distinct")
    report = ScanReport("lemma7", max_n)
    report.details = {"radii": list(radii), "per_radius_checked": {r: 0 for r in radii}}
    for n, emask, weight, cn in _sweep(1, max_n, twin_free=True):
        counted = False
        for r in radii:
            if r == 1:
                balls, index = cn, set(cn)
            else:
                # not graph._balls: stopping at the first repeated ball pays,
                # since most squares repeat one, and starting from N[v] saves
                # a BFS level (from v alone, building balls timed ~16% slower)
                balls, index = [], set()
                for v in range(n):
                    b = _reach(cn, cn[v], radius=r - 1)
                    if b in index:
                        break
                    balls.append(b)
                    index.add(b)
                if len(balls) < n:
                    continue
            if not counted:
                report.graphs_checked += weight
                counted = True
            report.details["per_radius_checked"][r] += weight
            for x in range(n):
                if _least_removable(balls, index, balls[x]) is None:
                    report.counterexamples.append(_entry(n, emask, weight, radius=r, vertex=x))
    return report.finalize()


def scan_gamma_chain(max_n: int = 6, force: bool = False) -> ScanReport:
    """On every twin-free graph: the separating and identifying minima
    differ by at most one, and separating validity transfers exactly to
    discriminating validity on the ball membership graph for every subset.

    Both verdicts on a subset C read only signatures b & C: of the closed
    balls, and of the ball nodes holding each vertex.  As u is in B(v) iff
    v is in B(u), the lists are equal, so one comparison per class settles
    all 2^n subsets; a mismatch is reported once, at its least vertex."""
    _require_cap("gamma-chain", max_n, force)
    report = ScanReport("gamma-chain", max_n)
    bridge_checked = 0
    for n, emask, weight, cn in _sweep(1, max_n, twin_free=True):
        report.graphs_checked += weight
        forced = solve._forced_mask(cn, n)
        gamma_s, _, _ = solve._search_minimum(cn, n, "separating", forced)
        gamma_id, _, _ = solve._search_minimum(cn, n, "identifying", forced)
        if not (gamma_s <= gamma_id <= gamma_s + 1):
            report.counterexamples.append(
                _entry(n, emask, weight, reason="chain", gamma_s=gamma_s, gamma_id=gamma_id)
            )
        holders = codes._holders(codes.membership_graph(Graph._from_masks(n, _open(cn))))
        if holders != list(cn):
            u = next(u for u in range(n) if holders[u] != cn[u])
            report.counterexamples.append(_entry(n, emask, weight, reason="bridge", vertex=u))
        bridge_checked += weight << n
    report.details = {"bridge_checks": bridge_checked}
    return report.finalize()


def scan_locating_dominating(max_n: int = 6, force: bool = False) -> ScanReport:
    """A connected graph needs all but one vertex for locating-domination
    exactly when it is a star or a complete graph (n >= 2)."""
    _require_cap("ld", max_n, force)
    report = ScanReport("ld", max_n)
    extremal_seen = 0
    for n, emask, weight, cn in _sweep(2, max_n, connected=True):
        report.graphs_checked += weight
        has_small = any(_locating_dominating_ok(cn, c) for c in _all_but(n, 2))
        extremal = not has_small and any(_locating_dominating_ok(cn, c) for c in _all_but(n, 1))
        degrees = sorted(b.bit_count() - 1 for b in cn)
        is_complete = degrees[0] == n - 1
        is_star = n >= 3 and degrees == [1] * (n - 1) + [n - 1]
        if extremal != (is_complete or is_star):
            report.counterexamples.append(
                _entry(n, emask, weight, extremal=extremal, star=is_star, complete=is_complete)
            )
        if extremal:
            extremal_seen += weight
    report.details = {"extremal_seen": extremal_seen}
    return report.finalize()


def scan_conjectured_degree_bound(max_n: int = 7, force: bool = False) -> ScanReport:
    """Every connected twin-free graph of max degree D >= 3 admits an
    identifying code of size at most ceil(n - n/D)."""
    _require_cap("conjecture", max_n, force)
    report = ScanReport("conjecture", max_n)
    for n, emask, weight, cn in _sweep(2, max_n, connected=True, twin_free=True):
        delta = max(b.bit_count() for b in cn) - 1
        if delta < 3:
            continue
        report.graphs_checked += weight
        target = n - n // delta  # = ceil(n - n/D) since n is an integer
        if not any(_identifying_ok(cn, c) for c in _all_but(n, n // delta)):
            exact, _, _ = solve._search_minimum(cn, n, "identifying", solve._forced_mask(cn, n))
            report.counterexamples.append(
                _entry(n, emask, weight, max_degree=delta, bound=target, gamma_id=exact)
            )
    return report.finalize()


THEOREM_SCANS = {
    "thm12": scan_extremal_classification,
    "cor13": scan_low_degree,
    "remark1": scan_regular_odd,
    "lemma7": scan_removable_vertex,
    "conjecture": scan_conjectured_degree_bound,
    "ld": scan_locating_dominating,
    "gamma-chain": scan_gamma_chain,
}
