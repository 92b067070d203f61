"""Exhaustive desk-scale cross-checks over all labeled graphs.

All seven scans draw their graphs from one engine, ``_sweep``: every
labeled graph up to a vertex cap in Gray-code order (one edge flipped per
step), filtered inside the engine to the connected and/or twin-free class a
scan asks for.  Each scan compares a structural claim on those graphs
against brute-force search.  Reports are deterministic:
counterexample lists are sorted by (n, edge bitmask) no matter the visit
order, and are expected to be empty.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from . import codes, solve
from .bound import _least_removable
from .classify import JOIN_FAMILY, classify_extremal
from .graph import Graph, _pairs, _reach
from .solve import _identifying_ok, _locating_dominating_ok

DEFAULT_CAPS = {
    "thm12": 7,
    "cor13": 7,
    "remark1": 7,
    "lemma7": 7,
    "conjecture": 7,
    "ld": 6,
    "gamma-chain": 6,
}


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


def _require_cap(name: str, max_n: int, force: bool) -> None:
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    cap = DEFAULT_CAPS[name]
    if max_n > cap and not force:
        raise ValueError(
            f"scan {name!r} is capped at n <= {cap} "
            f"(2^{max_n * (max_n - 1) // 2} labeled graphs otherwise); "
            "pass force=True / --unsafe-cap to override"
        )


def _sweep(
    first_n: int, max_n: int, connected: bool = False, twin_free: bool = False
) -> Iterator[tuple[int, int, list[int]]]:
    """Yield (n, edge_mask, cn) for every labeled graph on first_n..max_n
    vertices that passes the requested filters.

    The one sweep engine of the scans: a Gray code over the edge masks of
    each n, one edge flipped per step, with the filters applied before the
    yield so a rejected graph costs no generator hop.  Bit e of edge_mask
    stands for the e-th pair of ``_pairs(n)``.  ``cn`` is a REUSED list of
    closed-neighborhood masks; callers must copy it to hold on to it.
    """
    for n in range(first_n, max_n + 1):
        pairs = _pairs(n)
        full = (1 << n) - 1
        cn = [1 << v for v in range(n)]
        if n <= 1 or not connected:  # the edgeless graph is twin-free
            yield n, 0, cn
        for i in range(1, 1 << len(pairs)):
            u, v = pairs[(i & -i).bit_length() - 1]  # the bit where gray(i - 1) and gray(i) differ
            cn[u] ^= 1 << v
            cn[v] ^= 1 << u
            if twin_free and len(set(cn)) != n:
                continue
            if connected and _reach(cn, cn[0], full) != full:
                continue
            yield n, i ^ (i >> 1), cn


def _graph_of(cn: list[int], n: int) -> Graph:
    return Graph._from_masks(n, tuple(cn[v] ^ (1 << v) for v in range(n)))


def _entry(n: int, emask: int, **extra) -> dict:
    pairs = _pairs(n)
    edges = [list(pairs[e]) for e in range(len(pairs)) if emask >> e & 1]
    return {"n": n, "edge_mask": emask, "edges": edges, **extra}


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
    for n, emask, cn in _sweep(2, max_n, connected=True, twin_free=True):
        per_n[n] += 1
        level = _gamma_id_level(cn, n)
        if level == 1:
            gamma_n_count += 1
        oracle_extremal = level == 0
        result = classify_extremal(_graph_of(cn, n))
        if result.is_extremal != oracle_extremal:
            report.counterexamples.append(
                _entry(n, emask, oracle_extremal=oracle_extremal, classified=result.to_dict())
            )
        if oracle_extremal:
            extremal_per_n[n] += 1
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
    for n, emask, cn in _sweep(3, max_n, connected=True, twin_free=True):
        max_degree = max(b.bit_count() for b in cn) - 1
        if max_degree > n - 3:
            continue
        report.graphs_checked += 1
        if _gamma_id_level(cn, n) != -1:
            report.counterexamples.append(_entry(n, emask, max_degree=max_degree))
    return report.finalize()


def scan_regular_odd(max_n: int = 7, force: bool = False) -> ScanReport:
    """Every regular extremal graph is a complete graph minus a perfect
    matching; every odd-order extremal graph has a universal vertex."""
    _require_cap("remark1", max_n, force)
    report = ScanReport("remark1", max_n)
    extremal_seen = 0
    for n, emask, cn in _sweep(2, max_n, connected=True, twin_free=True):
        report.graphs_checked += 1
        if _gamma_id_level(cn, n) != 0:
            continue
        extremal_seen += 1
        degrees = [b.bit_count() - 1 for b in cn]
        if len(set(degrees)) == 1:
            result = classify_extremal(_graph_of(cn, n))
            if not (result.outcome == JOIN_FAMILY and all(k == 1 for k in result.factors)):
                report.counterexamples.append(
                    _entry(n, emask, reason="regular", classified=result.to_dict())
                )
        if n % 2 == 1 and max(degrees) != n - 1:
            report.counterexamples.append(
                _entry(n, emask, reason="odd-order", max_degree=max(degrees))
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
    report = ScanReport("lemma7", max_n)
    report.details = {"radii": list(radii), "per_radius_checked": {r: 0 for r in radii}}
    for n, emask, cn in _sweep(1, max_n, twin_free=True):
        counted = False
        for r in radii:
            balls = cn
            if r > 1:
                # not graph._balls: stopping at the first repeated ball pays,
                # since most squares repeat one, and starting from N[v] saves
                # a BFS level (from v alone, building balls timed ~16% slower)
                balls = []
                for v in range(n):
                    b = _reach(cn, cn[v], radius=r - 1)
                    if b in balls:
                        break
                    balls.append(b)
                if len(balls) < n:
                    continue
            if not counted:
                report.graphs_checked += 1
                counted = True
            report.details["per_radius_checked"][r] += 1
            for x in range(n):
                if _least_removable(balls, n, balls[x]) is None:
                    report.counterexamples.append(_entry(n, emask, radius=r, vertex=x))
    return report.finalize()


def scan_gamma_chain(max_n: int = 6, force: bool = False) -> ScanReport:
    """On every twin-free graph: the separating and identifying minima
    differ by at most one, and separating validity transfers exactly to
    discriminating validity on the ball membership graph for every subset."""
    _require_cap("gamma-chain", max_n, force)
    report = ScanReport("gamma-chain", max_n)
    bridge_checked = 0
    for n, emask, cn in _sweep(1, max_n, twin_free=True):
        report.graphs_checked += 1
        forced = solve._forced_mask(cn, n)
        gamma_s, _, _ = solve._search_minimum(cn, n, "separating", forced)
        gamma_id, _, _ = solve._search_minimum(cn, n, "identifying", forced)
        if not (gamma_s <= gamma_id <= gamma_s + 1):
            report.counterexamples.append(
                _entry(n, emask, reason="chain", gamma_s=gamma_s, gamma_id=gamma_id)
            )
        g = _graph_of(cn, n)
        bg = codes.membership_graph(g)
        for cmask in range(1 << n):
            subset = [v for v in range(n) if cmask >> v & 1]
            sep = codes.is_separating(g, subset).valid
            disc = codes.is_discriminating(bg, subset).valid
            bridge_checked += 1
            if sep != disc:
                report.counterexamples.append(
                    _entry(
                        n,
                        emask,
                        reason="bridge",
                        code=subset,
                        separating=sep,
                        discriminating=disc,
                    )
                )
    report.details = {"bridge_checks": bridge_checked}
    return report.finalize()


def scan_locating_dominating(max_n: int = 6, force: bool = False) -> ScanReport:
    """A connected graph needs all but one vertex for locating-domination
    exactly when it is a star or a complete graph (n >= 2)."""
    _require_cap("ld", max_n, force)
    report = ScanReport("ld", max_n)
    extremal_seen = 0
    for n, emask, cn in _sweep(2, max_n, connected=True):
        report.graphs_checked += 1
        has_small = any(_locating_dominating_ok(cn, c) for c in _all_but(n, 2))
        extremal = not has_small and any(_locating_dominating_ok(cn, c) for c in _all_but(n, 1))
        degrees = sorted(b.bit_count() - 1 for b in cn)
        is_complete = degrees[0] == n - 1
        is_star = n >= 3 and degrees == [1] * (n - 1) + [n - 1]
        if extremal != (is_complete or is_star):
            report.counterexamples.append(
                _entry(n, emask, extremal=extremal, star=is_star, complete=is_complete)
            )
        if extremal:
            extremal_seen += 1
    report.details = {"extremal_seen": extremal_seen}
    return report.finalize()


def scan_conjectured_degree_bound(max_n: int = 7, force: bool = False) -> ScanReport:
    """Every connected twin-free graph of max degree D >= 3 admits an
    identifying code of size at most ceil(n - n/D)."""
    _require_cap("conjecture", max_n, force)
    report = ScanReport("conjecture", max_n)
    for n, emask, cn in _sweep(2, max_n, connected=True, twin_free=True):
        delta = max(b.bit_count() for b in cn) - 1
        if delta < 3:
            continue
        report.graphs_checked += 1
        target = n - n // delta  # = ceil(n - n/D) since n is an integer
        if not any(_identifying_ok(cn, c) for c in _all_but(n, n // delta)):
            exact, _, _ = solve._search_minimum(cn, n, "identifying", solve._forced_mask(cn, n))
            report.counterexamples.append(
                _entry(n, emask, max_degree=delta, bound=target, gamma_id=exact)
            )
    return report.finalize()


THEOREM_SCANS = {
    "thm12": scan_extremal_classification,
    "cor13": scan_low_degree,
    "remark1": scan_regular_odd,
    "lemma7": scan_removable_vertex,
    "ld": scan_locating_dominating,
    "gamma-chain": scan_gamma_chain,
}
