"""Exact minimum solvers for every code kind, with forced-vertex pruning,
enumeration of all minimum separating sets, and the incremental code
extension procedure for vertex additions."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from . import codes
from .graph import Graph, PreconditionError, TwinsError, _balls, _bit_indices, induced_subgraph

SOLVE_VERTEX_CAP = 24


@dataclass(frozen=True)
class SolveReport:
    """Result of an exact minimization.

    ``example_code`` is the lexicographically least valid set of minimum
    size (guaranteed by the fixed search order); ``forced`` lies inside
    every valid set of this kind; ``explored`` counts candidate sets tested.
    """

    kind: str
    radius: int
    minimum: int
    example_code: frozenset[int]
    forced: frozenset[int]
    explored: int

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "radius": self.radius,
            "minimum": self.minimum,
            "example_code": sorted(self.example_code),
            "forced": sorted(self.forced),
            "explored": self.explored,
        }


# -- validity kernels over ball-mask lists -------------------------------
# The package's one kernel family: the solver, the scans and the bound
# pipelines all call these.  They mirror the certifying checks in ``codes``
# but work on raw masks; the two implementations are cross-tested.


def _identifying_ok(balls: list[int], c: int) -> bool:
    seen = set()
    for b in balls:
        s = b & c
        if not s or s in seen:
            return False
        seen.add(s)
    return True


def _separating_ok(balls: list[int], c: int) -> bool:
    seen = set()
    for b in balls:
        s = b & c
        if s in seen:
            return False
        seen.add(s)
    return True


def _dominating_ok(balls: list[int], c: int) -> bool:
    for b in balls:
        if not b & c:
            return False
    return True


def _locating_dominating_ok(balls: list[int], c: int) -> bool:
    seen = set()
    for v, b in enumerate(balls):
        s = b & c
        if not s:
            return False
        if not c >> v & 1:
            if s in seen:
                return False
            seen.add(s)
    return True


_CHECKS = {
    "identifying": _identifying_ok,
    "separating": _separating_ok,
    "dominating": _dominating_ok,
    "locating-dominating": _locating_dominating_ok,
}


def _radius_balls(g: Graph, radius: int) -> list[int]:
    if radius < 1:
        raise ValueError("radius must be >= 1")
    return _balls(g._cn, radius)


def _twin_pair_of(balls: list[int]) -> tuple[int, int] | None:
    seen: dict[int, int] = {}
    for v, b in enumerate(balls):
        if b in seen:
            return (seen[b], v)
        seen[b] = v
    return None


def _forced_mask(balls: list[int], n: int) -> int:
    m = 0
    for x in range(n):
        bx = balls[x]
        for y in range(x + 1, n):
            d = bx ^ balls[y]
            if d and d & (d - 1) == 0:  # exactly one bit set
                m |= d
    return m


def forced_vertices(g: Graph, radius: int = 1) -> frozenset[int]:
    """Union of all singleton ball symmetric differences.

    A pair separated by a single vertex forces that vertex into every
    r-separating set (and hence every r-identifying code).
    """
    balls = _radius_balls(g, radius)
    return frozenset(_bit_indices(_forced_mask(balls, g.n)))


def _lower_bound(kind: str, balls: list[int], n: int) -> int:
    if n == 0:
        return 0
    if kind == "identifying":
        # k code vertices give at most 2^k - 1 distinct nonempty signatures
        k = 0
        while (1 << k) - 1 < n:
            k += 1
        return k
    if kind == "separating":
        # the empty signature is allowed once, so n <= 2^k
        k = 0
        while (1 << k) < n:
            k += 1
        return k
    if kind == "locating-dominating":
        # the n - k outside vertices need distinct nonempty signatures
        k = 0
        while (1 << k) - 1 < n - k:
            k += 1
        return k
    # dominating: one vertex covers at most max_degree + 1 others
    delta = max(b.bit_count() for b in balls)
    return -(-n // delta)


def _search_minimum(
    balls: list[int], n: int, kind: str, forced: int
) -> tuple[int, int, int]:
    """Ascending-size lexicographic search; returns (size, mask, explored)."""
    check = _CHECKS[kind]
    free = [v for v in range(n) if not forced >> v & 1]
    base = forced.bit_count()
    explored = 0
    start = max(base, _lower_bound(kind, balls, n))
    for size in range(start, n + 1):
        for combo in itertools.combinations(free, size - base):
            c = forced
            for v in combo:
                c |= 1 << v
            explored += 1
            if check(balls, c):
                return size, c, explored
    raise RuntimeError("exhausted all subsets without a valid code")  # pragma: no cover


def _prepare(g: Graph, kind: str, radius: int) -> tuple[list[int], int]:
    if kind not in _CHECKS:
        raise ValueError(f"unknown code kind {kind!r}; expected one of {sorted(_CHECKS)}")
    if g.n > SOLVE_VERTEX_CAP:
        raise PreconditionError(
            f"exact solving is limited to n <= {SOLVE_VERTEX_CAP}; "
            "use the constructive bound pipeline for larger graphs"
        )
    balls = _radius_balls(g, radius)
    forced = 0
    if kind in ("identifying", "separating"):
        twins = _twin_pair_of(balls)
        if twins is not None:
            raise TwinsError(
                f"no {kind} set exists at radius {radius}: vertices {twins[0]} and "
                f"{twins[1]} have identical radius-{radius} balls",
                twins,
            )
        forced = _forced_mask(balls, g.n)
    return balls, forced


def solve_minimum(g: Graph, kind: str, radius: int = 1) -> SolveReport:
    """Exact minimum code of the given kind; deterministic example code."""
    balls, forced = _prepare(g, kind, radius)
    if g.n == 0:
        return SolveReport(kind, radius, 0, frozenset(), frozenset(), 0)
    size, mask, explored = _search_minimum(balls, g.n, kind, forced)
    return SolveReport(
        kind,
        radius,
        size,
        frozenset(_bit_indices(mask)),
        frozenset(_bit_indices(forced)),
        explored,
    )


def min_identifying_code(g: Graph, radius: int = 1) -> SolveReport:
    return solve_minimum(g, "identifying", radius)


def min_separating_set(g: Graph, radius: int = 1) -> SolveReport:
    return solve_minimum(g, "separating", radius)


def min_locating_dominating(g: Graph, radius: int = 1) -> SolveReport:
    return solve_minimum(g, "locating-dominating", radius)


def min_dominating(g: Graph, radius: int = 1) -> SolveReport:
    return solve_minimum(g, "dominating", radius)


def enumerate_minimum_separating_sets(g: Graph, radius: int = 1) -> list[frozenset[int]]:
    """All separating sets of minimum size, sorted lexicographically."""
    balls, forced = _prepare(g, "separating", radius)
    if g.n == 0:
        return [frozenset()]
    size, _, _ = _search_minimum(balls, g.n, "separating", forced)
    free = [v for v in range(g.n) if not forced >> v & 1]
    base = forced.bit_count()
    out = []
    for combo in itertools.combinations(free, size - base):
        c = forced
        for v in combo:
            c |= 1 << v
        if _separating_ok(balls, c):
            out.append(frozenset(_bit_indices(c)))
    return sorted(out, key=sorted)


# -- incremental code extension ------------------------------------------


def extend_code(g: Graph, removed: Iterable[int], base_code: Iterable[int]) -> frozenset[int]:
    """Grow an identifying code of g - removed into one of g.

    ``base_code`` uses the coordinates of ``induced_subgraph(g, rest)`` where
    rest is the sorted complement of ``removed``.  Reinstated vertices are
    processed in increasing index order; each step adds at most one vertex
    (the least separator of the unique conflicting pair, or the vertex
    itself when undominated), so the result has size at most
    len(base_code) + len(removed).
    """
    removed_set = sorted(set(removed))
    for v in removed_set:
        g._check_vertex(v)
    twins = _twin_pair_of(list(g._cn))
    if twins is not None:
        raise TwinsError(
            f"the host graph has twins {twins[0]} and {twins[1]}; no identifying code exists",
            twins,
        )
    rest = [v for v in range(g.n) if v not in removed_set]
    sub = induced_subgraph(g, rest)
    sub_twins = _twin_pair_of(list(sub._cn))
    if sub_twins is not None:
        pair = (rest[sub_twins[0]], rest[sub_twins[1]])
        raise TwinsError(
            f"removing {removed_set} leaves twins {pair[0]} and {pair[1]}", pair
        )
    cert = codes.is_identifying(sub, base_code)
    if not cert.valid:
        err = PreconditionError(
            "base_code is not an identifying code of the reduced graph: "
            f"{cert.to_dict()['witness']}"
        )
        err.certificate = cert
        raise err

    current = 0
    for v in base_code:
        current |= 1 << rest[v]
    placed = 0
    for v in rest:
        placed |= 1 << v

    for x in removed_set:
        placed |= 1 << x
        sig_x = g._cn[x] & current
        if not sig_x:
            current |= 1 << x
            continue
        conflicts = [
            y
            for y in _bit_indices(placed)
            if y != x and g._cn[y] & current == sig_x
        ]
        if not conflicts:
            continue
        assert len(conflicts) == 1, "identified set developed two equal signatures"
        y = conflicts[0]
        separator_pool = g._cn[x] ^ g._cn[y]
        assert separator_pool, "twin-free graph must separate every pair"
        current |= separator_pool & -separator_pool

    result = frozenset(_bit_indices(current))
    final = codes.is_identifying(g, result)
    if not final.valid:  # pragma: no cover - guaranteed by construction
        raise RuntimeError(f"extension produced an invalid code: {final.to_dict()}")
    return result
