"""Exhaustive desk-scale cross-checks over all labeled graphs.

Each scan sweeps every labeled graph up to a vertex cap (Gray-code order,
one edge flipped per step), filters to the relevant class, and compares a
structural claim against brute-force search.  Reports are deterministic:
counterexample lists are sorted by (n, edge bitmask) no matter the visit
order, and are expected to be empty.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from . import codes, solve
from .bound import _least_removable
from .classify import JOIN_FAMILY, classify_extremal
from .graph import Graph, _iter_closed_masks, _pairs, _reach
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


def _connected_masks(cn: list[int], n: int, full: int) -> bool:
    return _reach(cn, cn[0], full) == full


def _graph_of(cn: list[int], n: int) -> Graph:
    return Graph._from_masks(n, tuple(cn[v] ^ (1 << v) for v in range(n)))


def _entry(n: int, emask: int, pairs: list[tuple[int, int]], **extra) -> dict:
    edges = []
    m = emask
    while m:
        b = m & -m
        m ^= b
        edges.append(list(pairs[b.bit_length() - 1]))
    return {"n": n, "edge_mask": emask, "edges": edges, **extra}


@lru_cache(maxsize=None)
def _combo_masks(n: int, k: int) -> tuple[int, ...]:
    out = []
    for combo in itertools.combinations(range(n), k):
        m = 0
        for v in combo:
            m |= 1 << v
        out.append(m)
    return tuple(out)


def _gamma_id_level(cn: list[int], missing_two: list[int], missing_one: list[int]) -> int:
    """-1: a code misses two vertices; 0: exactly one; 1: none (needs all).

    Monotonicity of identifying codes under supersets makes the two fixed
    sizes sufficient to place the minimum relative to n - 1.
    """
    for c in missing_two:
        if _identifying_ok(cn, c):
            return -1
    for c in missing_one:
        if _identifying_ok(cn, c):
            return 0
    return 1


def scan_extremal_classification(max_n: int = 7, force: bool = False) -> ScanReport:
    """Structural recognizer vs brute force on every connected twin-free
    graph: the extremal outcomes must coincide exactly."""
    _require_cap("thm12", max_n, force)
    report = ScanReport("thm12", max_n)
    per_n: dict[int, int] = {}
    extremal_per_n: dict[int, int] = {}
    gamma_n_count = 0
    for n in range(2, max_n + 1):
        pairs = _pairs(n)
        full = (1 << n) - 1
        missing_two = [full ^ m for m in _combo_masks(n, 2)]
        missing_one = [full ^ (1 << x) for x in range(n)]
        checked = extremal_count = 0
        for emask, cn in _iter_closed_masks(n):
            if len(set(cn)) != n or not _connected_masks(cn, n, full):
                continue
            checked += 1
            level = _gamma_id_level(cn, missing_two, missing_one)
            if level == 1:
                gamma_n_count += 1
            oracle_extremal = level == 0
            result = classify_extremal(_graph_of(cn, n))
            if result.is_extremal != oracle_extremal:
                report.counterexamples.append(
                    _entry(
                        n,
                        emask,
                        pairs,
                        oracle_extremal=oracle_extremal,
                        classified=result.to_dict(),
                    )
                )
            if oracle_extremal:
                extremal_count += 1
        per_n[n] = checked
        extremal_per_n[n] = extremal_count
        report.graphs_checked += checked
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
    for n in range(3, max_n + 1):
        pairs = _pairs(n)
        full = (1 << n) - 1
        missing_two = [full ^ m for m in _combo_masks(n, 2)]
        for emask, cn in _iter_closed_masks(n):
            if len(set(cn)) != n or not _connected_masks(cn, n, full):
                continue
            if max(b.bit_count() for b in cn) - 1 > n - 3:
                continue
            report.graphs_checked += 1
            if not any(_identifying_ok(cn, c) for c in missing_two):
                report.counterexamples.append(
                    _entry(n, emask, pairs, max_degree=max(b.bit_count() for b in cn) - 1)
                )
    return report.finalize()


def scan_regular_odd(max_n: int = 7, force: bool = False) -> ScanReport:
    """Every regular extremal graph is a complete graph minus a perfect
    matching; every odd-order extremal graph has a universal vertex."""
    _require_cap("remark1", max_n, force)
    report = ScanReport("remark1", max_n)
    extremal_seen = 0
    for n in range(2, max_n + 1):
        pairs = _pairs(n)
        full = (1 << n) - 1
        missing_two = [full ^ m for m in _combo_masks(n, 2)]
        missing_one = [full ^ (1 << x) for x in range(n)]
        for emask, cn in _iter_closed_masks(n):
            if len(set(cn)) != n or not _connected_masks(cn, n, full):
                continue
            report.graphs_checked += 1
            if _gamma_id_level(cn, missing_two, missing_one) != 0:
                continue
            extremal_seen += 1
            degrees = [b.bit_count() - 1 for b in cn]
            if len(set(degrees)) == 1:
                result = classify_extremal(_graph_of(cn, n))
                if not (
                    result.outcome == JOIN_FAMILY
                    and all(k == 1 for k in result.factors)
                ):
                    report.counterexamples.append(
                        _entry(n, emask, pairs, reason="regular", classified=result.to_dict())
                    )
            if n % 2 == 1 and max(degrees) != n - 1:
                report.counterexamples.append(
                    _entry(n, emask, pairs, reason="odd-order", max_degree=max(degrees))
                )
    report.details = {"extremal_seen": extremal_seen}
    return report.finalize()


def scan_removable_vertex(
    max_n: int = 7, radii: tuple[int, ...] = (1, 2), force: bool = False
) -> ScanReport:
    """Every vertex of every graph with a twin-free r-th power has a
    removable vertex inside its radius-r ball."""
    _require_cap("lemma7", max_n, force)
    report = ScanReport("lemma7", max_n)
    report.details = {"radii": list(radii), "per_radius_checked": {r: 0 for r in radii}}
    for n in range(1, max_n + 1):
        pairs = _pairs(n)
        for emask, cn in _iter_closed_masks(n):
            counted = False
            for r in radii:
                if r == 1:
                    balls = cn
                    if len(set(balls)) != n:
                        continue
                else:
                    # built inline rather than by graph._balls: the loop stops
                    # at the first repeated ball, and most squares repeat one
                    balls = []
                    distinct = True
                    seen = set()
                    for v in range(n):
                        m = cn[v]
                        for _ in range(r - 1):
                            nm = m
                            f = m
                            while f:
                                b = f & -f
                                f ^= b
                                nm |= cn[b.bit_length() - 1]
                            if nm == m:
                                break
                            m = nm
                        if m in seen:
                            distinct = False
                            break
                        seen.add(m)
                        balls.append(m)
                    if not distinct:
                        continue
                if not counted:
                    report.graphs_checked += 1
                    counted = True
                report.details["per_radius_checked"][r] += 1
                for x in range(n):
                    if _least_removable(balls, n, balls[x]) is None:
                        report.counterexamples.append(
                            _entry(n, emask, pairs, radius=r, vertex=x)
                        )
    return report.finalize()


def scan_gamma_chain(max_n: int = 6, force: bool = False) -> ScanReport:
    """On every twin-free graph: the separating and identifying minima
    differ by at most one, and separating validity transfers exactly to
    discriminating validity on the ball membership graph for every subset."""
    _require_cap("gamma-chain", max_n, force)
    report = ScanReport("gamma-chain", max_n)
    bridge_checked = 0
    for n in range(1, max_n + 1):
        pairs = _pairs(n)
        for emask, cn in _iter_closed_masks(n):
            if len(set(cn)) != n:
                continue
            report.graphs_checked += 1
            forced = solve._forced_mask(cn, n)
            gamma_s, _, _ = solve._search_minimum(cn, n, "separating", forced)
            gamma_id, _, _ = solve._search_minimum(cn, n, "identifying", forced)
            if not (gamma_s <= gamma_id <= gamma_s + 1):
                report.counterexamples.append(
                    _entry(n, emask, pairs, reason="chain", gamma_s=gamma_s, gamma_id=gamma_id)
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
                            pairs,
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
    for n in range(2, max_n + 1):
        pairs = _pairs(n)
        full = (1 << n) - 1
        size_nm2 = _combo_masks(n, n - 2)
        size_nm1 = _combo_masks(n, n - 1)
        for emask, cn in _iter_closed_masks(n):
            if not _connected_masks(cn, n, full):
                continue
            report.graphs_checked += 1
            has_small = any(_locating_dominating_ok(cn, c) for c in size_nm2)
            extremal = not has_small and any(_locating_dominating_ok(cn, c) for c in size_nm1)
            degrees = sorted(b.bit_count() - 1 for b in cn)
            is_complete = degrees[0] == n - 1
            is_star = n >= 3 and degrees == [1] * (n - 1) + [n - 1]
            if extremal != (is_complete or is_star):
                report.counterexamples.append(
                    _entry(n, emask, pairs, extremal=extremal, star=is_star, complete=is_complete)
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
    for n in range(2, max_n + 1):
        pairs = _pairs(n)
        full = (1 << n) - 1
        for emask, cn in _iter_closed_masks(n):
            if len(set(cn)) != n or not _connected_masks(cn, n, full):
                continue
            delta = max(b.bit_count() for b in cn) - 1
            if delta < 3:
                continue
            report.graphs_checked += 1
            target = n - n // delta  # = ceil(n - n/D) since n is an integer
            if not any(_identifying_ok(cn, c) for c in _combo_masks(n, target)):
                exact, _, _ = solve._search_minimum(cn, n, "identifying", solve._forced_mask(cn, n))
                report.counterexamples.append(
                    _entry(n, emask, pairs, max_degree=delta, bound=target, gamma_id=exact)
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
