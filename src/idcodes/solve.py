"""Exact minimum solvers for every code kind as hitting-set searches with
forced-vertex pruning: an order-free search refutes the sizes below the
minimum and finds a code at the minimum, which settles the minimum, and a
walk from that code, led by the same search, yields the codes of the
minimum size in lexicographic order, the least first, only when a caller
reads them.  Also enumeration of all minimum separating sets, and the
incremental code extension procedure for vertex additions."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from itertools import chain
from math import comb
from typing import Iterable, Iterator

from . import codes
from .graph import (
    Graph,
    PreconditionError,
    _balls,
    _bit_indices,
    _check_radius,
    _refuse_twins,
    induced_subgraph,
)

SOLVE_VERTEX_CAP = 24


@dataclass(frozen=True)
class SolveReport:
    """Result of an exact minimization.

    ``example_code`` is the lexicographically least valid set of minimum
    size (the first the walk yields); ``forced`` lies inside every valid
    set of this kind; ``explored`` is the number of candidates the
    ascending-size lexicographic order over supersets of ``forced``,
    starting at the counting lower bound that ``_constraints`` returns as
    ``start``, reaches up to and including the answer.  ``_solve_graph``
    computes it from the answer's rank, not from the nodes the search
    visits, so the empty graph's one candidate counts too; callers of
    ``_solve`` that read only the minimum never rank.
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


def forced_vertices(g: Graph, radius: int = 1) -> frozenset[int]:
    """Union of all singleton ball symmetric differences.

    A pair separated by a single vertex forces that vertex into every
    r-separating set (and hence every r-identifying code).
    """
    _check_radius(radius)
    return frozenset(_bit_indices(_constraints(_balls(g, radius), "separating")[1]))


def _constraints(
    balls: list[int], kind: str
) -> tuple[list[int], int, int, tuple[tuple[list[int], tuple[int, ...]] | None, list[int]]]:
    """The search for ``kind``: returns (masks, forced, start, split), where
    a set containing ``forced`` is a valid code exactly when it meets every
    mask, no valid code has fewer than ``start`` vertices, and ``split``
    starts the split cut of ``_has_hitting_set``.

    Dominating sets meet every ball B(x), separating sets every
    B(x) Δ B(y), identifying codes both, and locating-dominating sets every
    ball and every B(x) Δ B(y) ∪ {x, y} (a pair with a code vertex needs no
    distinct signatures).  ``forced`` holds the vertices of the
    single-vertex pair masks, which every valid set contains; only
    identifying codes and separating sets have such masks, so for the
    other kinds ``explored`` counts the same candidates as a plain search.
    ``start`` is the larger of |forced| and a counting bound: a dominating
    set needs n / (largest ball) vertices, rounded up, and for the other
    kinds the one class of every vertex needs the least b whose capacity
    (``_capacity``) holds it, the test ``_split_classes`` applies to every
    class.  ``split`` is (tables, classes): the tables ``_split_classes``
    reads, and the classes it keeps after the forced vertices, folded from
    that one class, which also holds bit n, the empty signature itself,
    for identifying codes and locating-dominating sets.  No class is left
    once none could cut; dominating sets and the smallest graphs, whose one
    class is that small already, get none and no tables (None).
    Each mask comes once, masks already met by ``forced`` are dropped, and
    the rest are sorted by size, then by value: the greedy packing and the
    choice of the mask to branch on in ``_has_hitting_set`` read the list
    in order, so no set iteration order may reach them.  A mask containing
    another changes no step of ``_has_hitting_set``.  So one O(1) test
    skips the pair masks that contain a ball: an identifying one whose
    balls are disjoint is B(x) ∪ B(y), and a locating-dominating one whose
    balls meet only in {x, y} contains B(x).  Other containing masks stay,
    since finding them costs more than it saves.
    """
    n = len(balls)
    ld = kind == "locating-dominating"
    if kind == "separating":
        cons = {bx ^ by for x, bx in enumerate(balls) for by in balls[x + 1 :]}
    elif kind == "identifying":
        cons = {bx ^ by for x, bx in enumerate(balls) for by in balls[x + 1 :] if bx & by}
    elif ld:
        cons = {
            bx ^ by | 1 << x | 1 << y
            for x, bx in enumerate(balls)
            for y, by in enumerate(balls[x + 1 :], x + 1)
            if bx & by & ~(1 << x | 1 << y)
        }
    else:
        cons = set()
    forced = 0
    for c in cons:  # the pair masks alone, before the balls join
        if not c & (c - 1):  # at most one bit set
            forced |= c
    tables, classes = None, []
    if kind == "dominating":
        start = -(-n // max(map(int.bit_count, balls))) if n else 0
    else:
        capacity = _capacity(n, ld)
        root = (1 << n + (kind != "separating")) - 1
        start = bisect_left(capacity, root.bit_count())
        if start > 2:  # the root class has more than capacity[2] members
            tables = ([b ^ 1 << v for v, b in enumerate(balls)] if ld else balls, capacity)
            classes = [root]
            for v in _bit_indices(forced):
                classes = _split_classes(classes, tables, 1 << v, n)  # n cuts nothing
                if not classes:
                    break
    if kind != "separating":
        cons.update(balls)
    if forced:
        cons = [c for c in cons if not c & forced]
    start = max(start, forced.bit_count())
    return sorted(sorted(cons), key=int.bit_count), forced, start, (tables, classes)


@cache
def _capacity(n: int, ld: bool) -> tuple[int, ...]:
    """The most members of one signature class that b further code
    vertices can tell apart, for each budget b up to n + 2: each splits a
    class in at most two, so 2^b, and 2^b + b for locating-dominating sets
    (``ld``), where up to b members may join the code instead.  The table
    runs that far so that capacity[2], the size of the classes small
    enough to drop, exists on every graph, and some budget holds the one
    class of all n vertices and bit n, where ``_constraints`` reads the
    first size.  Cached per (n, ld): the scans would otherwise build it
    anew for each of their many tiny graphs."""
    return tuple((1 << b) + ld * b for b in range(n + 3))


def _split_classes(
    classes: list[int], tables: tuple[list[int], tuple[int, ...]], vertex: int, budget: int
) -> list[int] | None:
    """The signature classes after one more code vertex, or None when they
    need more further code vertices than ``budget``, decided at the first
    part that is too large.

    Vertices x with the same signature B(x) ∩ chosen form a class, and the
    new vertex, the bit ``vertex``, splits each in two: the members in its
    ball and the rest.  ``tables`` is (inside, capacity): inside[v] is the
    ball of v, less v itself for locating-dominating sets, since only the
    vertices outside such a set need distinct signatures, so a code vertex
    leaves its class; for the other kinds it stays.  A class needs more
    than b further code vertices once it has more than capacity[b]
    members (``_capacity``).  For identifying codes and
    locating-dominating sets the class with the empty signature also holds
    bit n, the empty signature itself, which lies in no ball and so never
    leaves it.  ``classes`` holds the classes of more than capacity[2]
    members.  A smaller part needs at most two vertices, which no node the
    search checks (two or more left) falls short of, so it is dropped once
    its need has counted.  So the list is empty once the largest need is
    below 3, and since a class only splits further, no node below with two
    or more left can be cut.
    """
    inside, capacity = tables
    small = capacity[2]
    ball = inside[vertex.bit_length() - 1]
    outside = ~(ball | vertex)
    limit = capacity[budget]
    parts = []
    for c in classes:
        a = c & ball
        m = a.bit_count()
        if m > limit:
            return None
        if m > small:
            parts.append(a)
        a = c & outside
        m = a.bit_count()
        if m > limit:
            return None
        if m > small:
            parts.append(a)
    return parts


def _has_hitting_set(
    cons: list[int],
    free: int,
    k: int,
    split: tuple[tuple[list[int], tuple[int, ...]] | None, list[int]],
) -> int | None:
    """A subset of ``free`` with at most k vertices that meets every mask in
    ``cons``, as a mask, or None when no k-subset of ``free`` does, for k
    at most the size of ``free``.

    A superset of a hitting set hits too, so a node succeeds once no mask
    is unmet, and the witness is the vertices chosen on the way to it.
    The search is free of any order on the sets: it branches on the unmet
    mask with the fewest available vertices (the first in list order among
    equals), tries its vertices in increasing order and makes each tried
    vertex unavailable to its later siblings, so the children split the
    sets that meet the mask by their least vertex in it.  A node fails
    when an unmet mask has no available vertex, when a greedy packing of
    pairwise disjoint unmet masks, restricted to the available vertices
    and taken in list order, outnumbers the budget, or when a child's
    largest signature class needs more vertices than its budget.  A node
    with two vertices left is decided in place, without a child node: each
    vertex of the branch mask, tried as above, succeeds alone when it meets
    every unmet mask, and otherwise with the least available vertex in every
    mask it misses, when there is one.  So every node has two or more
    vertices left: a call with fewer is decided before any node, by the
    least available vertex in every mask.  The split cut runs on ``split``
    as ``_constraints`` builds it, while its list of classes is not empty:
    each child splits its parent's classes by the ball of its new vertex.
    A mask that contains an earlier one changes none of these steps, and
    each cut removes only subtrees without a hitting set.
    """

    def feasible(unhit: list[int], avail: int, k: int, classes: list[int]) -> int | None:
        if not unhit:
            return 0
        used = packed = 0
        fewest, branch = avail.bit_count() + 1, 0
        for c in unhit:
            r = c & avail
            if not r:
                return None
            if not r & used:
                used |= r
                packed += 1
                if packed > k:
                    return None
            m = r.bit_count()
            if m < fewest:
                fewest, branch = m, r
        if k == 2:  # the last vertex must lie in every mask low misses
            while branch:
                low = branch & -branch
                branch ^= low
                last = avail  # holds low, which every mask low misses drops
                avail ^= low
                for c in unhit:
                    if not c & low:
                        last &= c
                        if not last:
                            break
                if last & low:  # low meets every mask
                    return low
                if last:
                    return low | last & -last
            return None
        parts = classes
        while branch:
            low = branch & -branch
            branch ^= low
            avail ^= low
            if classes:
                parts = _split_classes(classes, tables, low, k - 1)
                if parts is None:
                    continue
            left = [c for c in unhit if not c & low]
            found = feasible(left, avail, k - 1, parts)
            if found is not None:
                return found | low
        return None

    if k < 2:  # no node: the empty set, or one vertex in every mask
        if not cons:
            return 0
        for c in cons:
            free &= c
        return free & -free if k and free else None
    tables, classes = split
    return feasible(cons, free, k, classes)


def _hitting_sets(
    cons: list[int],
    free: int,
    forced: int,
    k: int,
    witness: int,
    split: tuple[tuple[list[int], tuple[int, ...]] | None, list[int]],
) -> Iterator[int]:
    """``forced`` plus each k-subset of ``free`` that meets every mask in
    ``cons``, as masks in lexicographic order, generated lazily, for k at
    most the size of ``free``; ``witness`` is a subset of ``free`` with at
    most k vertices that meets every mask, as ``_has_hitting_set`` returns
    it, and ``split`` is as there.  No node is entered before a set is read.

    The walk makes no cut of its own: it enters only the prefixes of the
    sets, and ``_has_hitting_set`` tells them apart.  At each node the
    witness, padded with the least available vertices to the budget,
    completes the prefix, so its least vertex ``top`` is feasible next.  The
    available vertices v are taken in increasing order, each child
    extending the prefix by v with the vertices above v still available:
    at v = ``top`` the rest of the witness serves the child, and every
    other v is put to ``_has_hitting_set`` on the masks v leaves unmet, the
    vertices above v, one vertex less and the classes v's ball splits the
    node's into; the child is entered when it succeeds, with the witness it
    returns.  The walk stops once fewer vertices than the child's budget
    lie above v (never at ``top``, above which the rest of the witness
    lies, so the proof's precondition always holds).  With one vertex
    left, each available vertex in every unmet mask completes a set; with
    none, ``forced`` alone is the set, yielded before any node.
    """

    def visit(
        chosen: int,
        unhit: list[int],
        avail: int,
        k: int,
        witness: int,
        classes: list[int],
    ) -> Iterator[int]:
        if k == 1:  # the last vertex must lie in every unmet mask
            for c in unhit:
                avail &= c
            while avail:
                low = avail & -avail
                yield chosen | low
                avail ^= low
            return
        for _ in range(k - witness.bit_count()):
            rest = avail & ~witness
            witness |= rest & -rest
        top = witness & -witness
        parts = classes
        above = avail
        while above.bit_count() >= k:
            v = above & -above
            above ^= v
            if classes:
                parts = _split_classes(classes, tables, v, k - 1)
                if parts is None:  # never top, which lies in a set
                    continue
            left = [c for c in unhit if not c & v]
            if v == top:
                found = witness ^ top
            else:
                found = _has_hitting_set(left, above, k - 1, (tables, parts))
                if found is None:
                    continue
            yield from visit(chosen | v, left, above, k - 1, found, parts)

    # a generator itself, so a walk no caller reads builds nothing
    if k == 0:
        yield forced
        return
    tables, classes = split
    yield from visit(forced, cons, free, k, witness, classes)


def _solve(balls: list[int], kind: str) -> tuple[int, int, int, Iterator[int]]:
    """Exact minimum of ``kind`` on the radius-r ``balls`` of a graph,
    twin-free for identifying codes and separating sets; returns (minimum,
    forced, start, the minimum codes as masks in lexicographic order,
    generated lazily, the least first).

    From ``start``, the counting lower bound, up, ``_has_hitting_set``
    refutes each size without a code on the search ``_constraints`` builds;
    the first size it cannot refute is the minimum, and the walk from its
    witness is returned unstarted, so a caller that reads only the minimum
    never walks.
    """
    n = len(balls)
    cons, forced, start, split = _constraints(balls, kind)
    free = ((1 << n) - 1) & ~forced
    base = forced.bit_count()
    for size in range(start, n + 1):
        witness = _has_hitting_set(cons, free, size - base, split)
        if witness is not None:
            return size, forced, start, _hitting_sets(cons, free, forced, size - base, witness, split)
    raise RuntimeError("exhausted all subsets without a valid code")  # pragma: no cover


def _combination_rank(positions: list[int], f: int) -> int:
    """Index of the increasing tuple ``positions`` in
    ``itertools.combinations(range(f), len(positions))``: the tuples after
    it, counted from the combinadic, subtracted from the last index."""
    m = len(positions)
    return comb(f, m) - 1 - sum(comb(f - 1 - p, m - i) for i, p in enumerate(positions))


def _solve_graph(g: Graph, kind: str, radius: int) -> tuple[SolveReport, Iterator[list[int]]]:
    """``_solve`` on g's radius-r balls, after the checks every solve
    makes; returns the report and the minimum codes as sorted vertex
    lists, in lexicographic order, generated lazily, the example first.
    ``explored`` is ranked here, where it is reported."""
    codes._check_kind(kind)
    if g.n > SOLVE_VERTEX_CAP:
        raise PreconditionError(
            f"exact solving is limited to n <= {SOLVE_VERTEX_CAP}; "
            "use the constructive bound pipeline for larger graphs"
        )
    _check_radius(radius)
    balls = _balls(g, radius)
    if kind in ("identifying", "separating"):
        _refuse_twins(
            balls,
            f"no {kind} set exists at radius {radius}: vertices {{x}} and {{y}} "
            f"have identical radius-{radius} balls",
        )
    minimum, forced, start, sets = _solve(balls, kind)
    example = next(sets)
    n, base = g.n, forced.bit_count()
    free = ((1 << n) - 1) & ~forced
    positions = [i for i, v in enumerate(_bit_indices(free)) if example >> v & 1]
    skipped = sum(comb(n - base, s - base) for s in range(start, minimum))
    explored = skipped + _combination_rank(positions, n - base) + 1
    report = SolveReport(
        kind,
        radius,
        minimum,
        frozenset(_bit_indices(example)),
        frozenset(_bit_indices(forced)),
        explored,
    )
    return report, map(_bit_indices, chain((example,), sets))


def solve_minimum(g: Graph, kind: str, radius: int = 1) -> SolveReport:
    """Exact minimum code of the given kind; deterministic example code."""
    return _solve_graph(g, kind, radius)[0]


def enumerate_minimum_separating_sets(g: Graph, radius: int = 1) -> list[frozenset[int]]:
    """All separating sets of minimum size, sorted lexicographically."""
    return [frozenset(c) for c in _solve_graph(g, "separating", radius)[1]]


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
    placed = ((1 << g.n) - 1) ^ g._mask(removed_set)
    _refuse_twins(g._cn, "the host graph has twins {x} and {y}; no identifying code exists")
    rest = _bit_indices(placed)
    message = f"removing {removed_set} leaves twins {{x}} and {{y}}"
    _refuse_twins([m & placed for m in g._cn], message, among=rest)
    sub = induced_subgraph(g, rest)
    code = sub._mask(base_code)
    failure = "base_code is not an identifying code of the reduced graph"
    codes._require_identifying_on(sub._cn, code, 1, failure)
    current = sum(1 << rest[v] for v in _bit_indices(code))

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

    final = codes._certify("identifying", 1, g._cn, current)
    if not final.valid:  # pragma: no cover - guaranteed by construction
        raise RuntimeError(f"extension produced an invalid code: {final.to_dict()}")
    return frozenset(_bit_indices(current))
