"""Exhaustive desk-scale cross-checks over all small graphs.

All seven scans run one loop, ``_scan``, over one engine, ``_sweep``: one
graph of every isomorphism class up to a vertex cap, generated by
canonical deletion in a depth-first walk from the empty graph that keeps
no record of the classes already seen, and filtered inside the engine to
the connected and/or twin-free classes, up to a maximum degree, that a
scan asks for: a child with no such class at it or below it is never
built.  The engine hands each class over in the labeling it was
generated in.  On every level the new vertex's twin class settles most
children, which get no canonical labeling, and many no refinement, at
all; their automorphism groups come from the parent's, by Schreier's
lemma.  The child's root refinement, started at its degree classes and
stopped once its last cell decides, decides most of the others, and
automorphisms mapping the new vertex across that cell, read off the
first leaf below each of its vertices, keep nearly every child left, so
few children reach a canonical labeling.
A scan is one row of ``_CHECKS``: its filters, a check per class and
its ``details``; cor13 sweeps only the classes of maximum degree at
most max_n - 3.  Past ``SCAN_CAP``,
``force`` lets a scan run up to n = 11 and no further.
Every claim a scan checks is invariant under relabeling, so each class
stands for its n!/|Aut(G)| labelings: ``graphs_checked`` and every count
in ``details`` are sums of these weights, and so count labeled graphs.
Each scan compares a structural claim on those graphs against
brute-force search, except gamma-chain's bridge, an identity of masks
read straight off them: ``codes._holders``, which ``is_discriminating``
shares, transposes them, so it catches an asymmetric mask from the sweep
or a fault in ``_holders``.  Reports are deterministic: ``_scan`` names
a class by its canonical labelling, computed only for a class with a
counterexample, and reports it as one entry with that labelling's edge
mask and edges and the class's number of ``labelings``; the lists are
sorted by (n, edge bitmask) and are expected to be empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial
from typing import Iterator

from . import codes, solve
from .classify import _classify_masks
from .codes import _identifying_ok, _least_removable, _locating_dominating_ok
from .graph import (
    Graph,
    _bit_indices,
    _canon,
    _component_masks,
    _descend,
    _edge_mask,
    _is_automorphism,
    _orbit,
    _permutation,
    _reach,
    _refine,
)

SCAN_CAP = 9  # every scan's vertex cap: the seven take 56 s at n = 9 on a shared 2-core host, thm12 about 300 s at n = 10
_LEMMA7_RADII = (1, 2)  # the radii at which the lemma7 scan checks Lemma 7


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

    def to_dict(self) -> dict:
        return {
            "scan": self.name,
            "max_n": self.max_n,
            "graphs_checked": self.graphs_checked,
            "ok": self.ok,
            "counterexamples": self.counterexamples,
            "details": dict(self.details),
        }


# isomorphism classes of graphs on n = 0..11 vertices (OEIS A000088)
_CLASSES = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168, 1018997864)


def _sweep(
    first_n: int,
    max_n: int,
    connected: bool = False,
    twin_free: bool = False,
    max_degree: int | None = None,
) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Yield (n, weight, cn) once per isomorphism class of graphs on
    first_n..max_n vertices, first_n >= 1, that passes the requested
    filters, and with ``max_degree`` given, only the classes of maximum
    degree at most it.

    The one sweep engine of the scans.  ``cn`` holds the closed-neighborhood
    masks of one graph of the class, the masks the walk itself keeps, in
    the labeling it was generated in, not a canonical one.  ``weight`` =
    n!/|Aut(G)| is the number of labeled graphs in the class, so a count
    over labeled graphs is the sum of the weights of the classes it holds.

    The classes form a tree (McKay, "Isomorph-free exhaustive generation",
    1998): a graph's parent is the graph left after deleting its canonical
    deletion vertex, the maximum-degree vertex that the canonical labeling
    numbers last, up to automorphism.  Every class has one place in the
    tree, so no set of classes seen is kept: the walk is depth first, and
    only the pending children of the nodes on the current path, each a
    few masks and generators of Aut, are alive.  Cheap tests come first
    (see ``_children``): a child with no class the sweep yields below it
    is never built, the twin class of the new vertex settles most children
    without a canonical labeling, often before any refinement, the
    child's root equitable partition settles most of the rest, and
    automorphisms read off first leaves across its last cell nearly all
    the others.
    Deleting a vertex raises no degree, so the parent of a class of
    maximum degree at most D is one too, and the degree bound prunes the
    tree exactly.
    The root is the empty graph, whose one child, the one-vertex graph,
    ``_children`` builds and filters like any other, so every class
    yielded passed the filters asked for.  The connected and twin-free
    filters are applied here only to the inner levels the walk yields.
    """
    stack = [((), 1, [])]  # the empty graph: masks, |Aut|, generators
    while stack:
        cn, order, gens = stack.pop()
        n = len(cn)
        if n < max_n:
            stack.extend(_children(cn, order, gens, max_n - n - 1, connected, twin_free, max_degree))
            if n < first_n:  # the empty graph among them, with no vertex 0 to reach from
                continue
            if twin_free and len(set(cn)) != n:
                continue
            if connected and _reach(cn, cn[0]) != (1 << n) - 1:
                continue
        if n >= first_n:
            yield n, factorial(n) // order, cn


def _children(
    cn: tuple[int, ...],
    order: int,
    gens: list[list[int]],
    left: int,
    connected: bool = False,
    twin_free: bool = False,
    max_degree: int | None = None,
) -> Iterator[tuple[tuple[int, ...], int, list[list[int]] | None]]:
    """The children in the canonical deletion tree of the graph with closed
    masks ``cn``, |Aut| ``order`` and Aut generators ``gens``, as (closed
    masks, |Aut|, gens), with ``left`` levels of the walk below them; at
    ``left`` 0 they are leaves, and their generators, never used, may be
    None.  Only the children with a class below them, or at them, that is
    ``connected`` and/or ``twin_free`` and of maximum degree at most
    ``max_degree``, as asked, are built.

    A new vertex m joins one vertex set S per orbit of Aut(parent), only
    when it has the child's maximum degree; the child is kept when m lies
    in the Aut(child) orbit of its canonical deletion vertex.  The root,
    the empty graph, has one child, the one-vertex graph (S empty), which
    the filters and then its twin class {m} settle like any other.

    The filters drop S before the orbits are formed, one rule each:
    - degree, on every level: m has the child's maximum degree |S|, so the
      child's is at most D when |S| <= D (and then S holds no parent
      vertex of degree D, which would make |S| more than D);
    - twins, on every level: each vertex added later parts a class of
      closed twins in two at most, so the walk below can make the child
      twin-free only when no class of it has more than 2^left vertices.
      A parent class P splits into P & S and P - S, and m joins P when S
      is P's closed mask; at ``left`` 0 this says that S is no parent's
      closed mask and holds exactly one vertex of every pair of closed
      twins, and that no three parent vertices are closed twins;
    - connected, on the last level only, since one more vertex can join
      every component: S meets every parent component.
    Each rule is invariant under Aut(parent), so the kept sets are a union
    of orbits, with the same representatives and orbit sizes.  The sets S
    are drawn from a table of the subsets grouped by size
    (``_subsets_by_size``), so the degree rule and the degree bound keep
    whole sizes without counting the bits of all 2^m sets; the kept list is
    sorted, so ``_orbit_representatives`` meets each orbit at its least set.

    Twins settle most children without a labeling (the cheap invariant
    first: McKay, 1998).  Let T be m with its closed twins (equal closed
    masks) and its open twins (equal open masks); no vertex is a closed
    twin of m while another is an open one, so T is one twin class, each
    transposition (m v) in it an automorphism, and T lies in orbit(m).
    Refinement and individualization only split cells in place, so the
    canonical labeling numbers last a vertex of C, the last cell of the
    child's root equitable partition: a union of Aut(child) orbits inside
    the union of orbits that the top-degree vertices form.  When T holds
    every top-degree vertex, before any refinement, or else holds C, then
    that set is C = T = orbit(m) and m is kept.  Otherwise m outside C is
    rejected, and for m in C the orbit proof below tries to show that C is
    one orbit, so that m is kept; only a child it fails on is settled by
    ``_canon``.

    The orbit proof shows orbit(m) = C.  The orbit holds T, and it grows
    by closure under the maps found and, with levels left below, the
    generators of the stabilizer of m.  For each v in C not yet reached,
    ``_descend`` reaches the first leaf below v (v individualized in C,
    then the least vertex of the first non-singleton cell on each level).
    The labelings of that leaf and of the first leaf below m give a
    permutation mapping m to v, and when ``_is_automorphism`` accepts it,
    which holds exactly when the two leaves relabel the child alike, it
    joins the maps found.  When it does not, the proof ends and ``_canon``
    settles the child, so a proof costs at most |C| descents.  A leaf
    deeper below v might still match, but a search for one that no
    automorphism prunes can walk the whole subtree (about 45 s below a
    vertex of the union of the 4x4 rook's and Shrikhande graphs), and over
    the unfiltered sweep to nine vertices such a search found no leaf that
    the first one did not.  The stabilizer of m is the stabilizer of S in
    Aut(parent), so |Aut(child)| = |C| |Aut(parent)| / |orbit of S|.  When
    S is its own orbit, every generator of Aut(parent) fixes it and the
    stabilizer is the whole group, generated by the parent's generators;
    otherwise ``_stabilizer`` walks the orbit of S, stopping at the known
    order |Aut(parent)| / |orbit of S|.  Aut(child) is generated by the
    stabilizer's generators, the maps found and, when T holds more than
    m, one transposition (m v), v in T - {m}: the stabilizer holds every
    permutation of T - {m}.  The twin settlement is the case C = T, which
    needs no map.  The group is ``_canon``'s, so the orbits the walk forms
    below the child are the same.

    That root refinement does only the work its verdict needs
    (``_refine``'s early exit):
    - it starts at the child's degree classes, ascending and all pending
      (none pending for one class), read from the parent's degree table:
      that is the unit partition once its first splitter, the whole vertex
      set, has split it, and the top class is the set the twin test built.
      The exit could not fire before that splitter, since T, smaller than
      the top class here, does not hold the whole vertex set;
    - each splitter's pass visits the last cell first, and the refinement
      stops as soon as that cell has lost m or lies inside T: a splitter
      splits every cell on its own, so the other cells cannot change the
      verdict.
    So only the children left to the orbit proof are refined to the end,
    and the proof starts from the unit partition's equitable refinement.

    T and the top-degree vertices come from three tables built once per
    parent, its vertices by closed mask, by open mask and by degree: m's
    closed twins are the vertices with closed mask S in the parent, its
    open twins those with open mask S, and a vertex has m's degree |S| in
    the child when it lies in S with degree |S| - 1, or off S with degree
    |S|."""
    m = len(cn)
    new = 1 << m
    # the parent's vertices by closed mask, by open mask and by degree
    closed: dict[int, int] = {}
    opened: dict[int, int] = {}
    by_degree = [0] * (m + 1)  # up to |S| = m; no parent vertex has degree m, so index -1 reads nothing
    for u, x in enumerate(cn):
        b = 1 << u
        closed[x] = closed.get(x, 0) | b
        opened[x ^ b] = opened.get(x ^ b, 0) | b
        by_degree[x.bit_count() - 1] |= b
    top_degree = max(map(int.bit_count, cn)) - 1 if cn else -1  # -1: the empty graph, the root
    top = by_degree[top_degree]
    # the new vertex, of degree |S|, must have the child's maximum degree:
    # |S| above the top degree, or equal to it with S off the top vertices
    high = m if max_degree is None else min(m, max_degree)
    sizes = _subsets_by_size(m)
    subsets = [s for s in sizes[top_degree] if not s & top] if 0 <= top_degree <= high else []
    for size in range(top_degree + 1, high + 1):
        subsets += sizes[size]
    subsets.sort()
    if twin_free:
        cap = 1 << left  # the most closed twins that the levels left can part
        joined = {x for x, twins in closed.items() if twins.bit_count() >= cap}
        if joined:  # m would make one of these classes too large
            subsets = [s for s in subsets if s not in joined]
        for twins in closed.values():
            size = twins.bit_count()
            if size > cap:  # both parts at most cap
                subsets = [s for s in subsets if size - cap <= (s & twins).bit_count() <= cap]
    if not left and connected:
        for part in _component_masks(cn):
            subsets = [s for s in subsets if s & part]
    for s, size in _orbit_representatives(subsets, gens):
        child = (*[x | new if s >> u & 1 else x for u, x in enumerate(cn)], s | new)
        twins = new | closed.get(s, 0) | opened.get(s, 0)
        degree = s.bit_count()  # the child's maximum degree, m's
        top_class = new | by_degree[degree - 1] & s | by_degree[degree] & ~s  # the child's top-degree vertices
        last = top_class  # C, once the twin test or the refinement has decided
        if twins != top_class:
            cells = [c for d in range(degree) if (c := by_degree[d] & ~s | by_degree[d - 1] & s)]
            cells.append(top_class)
            cells = _refine(child, cells, cells[:] if len(cells) > 1 else [], new, twins)
            last = cells[-1]
            if not last & new:
                continue
        # the stabilizer of m, which is that of S, of order |Aut(parent)| / size:
        # all of Aut(parent) when S is fixed
        fixing = []
        if left and size < order:
            fixing = [g + [m] for g in (gens if size == 1 else _stabilizer(s, gens, order // size))]
        found = []
        reached = twins  # inside orbit(m), itself inside C
        if last != twins:
            lab = _descend(child, cells, len(cells) - 1, new)
            for v in _bit_indices(last ^ twins):
                if reached >> v & 1:
                    continue
                p = _permutation(lab, _descend(child, cells, len(cells) - 1, 1 << v))
                if not _is_automorphism(child, p):
                    break
                found.append(p)
                reached = _orbit(reached, found + fixing)
        if reached == last:
            child_gens = None
            if left:
                child_gens = fixing + found
                if twins != new:
                    v = (twins & -twins).bit_length() - 1
                    swap = list(range(m + 1))
                    swap[v], swap[m] = m, v
                    child_gens.append(swap)
            yield child, last.bit_count() * (order // size), child_gens
            continue
        _, lab, child_order, child_gens = _canon(child)
        if lab[-1] == m or _orbit(1 << lab[-1], child_gens) >> m & 1:
            yield child, child_order, child_gens


def _orbit_representatives(subsets: list[int], gens: list[list[int]]) -> list[tuple[int, int]]:
    """The least member of each orbit of the group generated by ``gens`` on
    the vertex sets ``subsets`` (closed under the group), as a mask, with
    the orbit's size; each generator lists the images of all the points.

    ``subsets`` holds only the sets the filters of ``_children`` keep, a
    union of orbits.  Each generator maps sets through a table of the
    images of all 2^m sets, built by doubling: the sets holding point v
    are the sets below v with v's image added, one list comprehension per
    point.  The one mapping path serves every sweep: mapping each kept set
    directly, without the tables, measured slower on the unbounded sweep.
    The walk records no transversal: only the children settled without
    ``_canon`` on an inner level need one, and only when their set is not
    its own orbit; ``_stabilizer`` walks those sets' orbits again, which
    measured faster than recording a Schreier tree for every orbit here."""
    images = []
    for g in gens:
        table = [0]
        for v in g:
            image = 1 << v
            table += [x | image for x in table]
        images.append(table)
    reached = set()
    reps = []
    for s in subsets:
        if s in reached:
            continue
        reached.add(s)
        stack = [s]
        size = 0
        while stack:
            x = stack.pop()
            size += 1
            for table in images:
                y = table[x]
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
        reps.append((s, size))
    return reps


def _stabilizer(s: int, gens: list[list[int]], order: int) -> list[list[int]]:
    """Generators of the stabilizer of the vertex set ``s``, of known order
    ``order``, in the group on ``len(gens[0])`` points generated by
    ``gens``, which ``_children`` calls only for an orbit of more than one
    set and of size below |Aut|, so with ``gens`` nonempty and ``order`` =
    |Aut| / |orbit of s|.

    Schreier's lemma (Seress, "Permutation Group Algorithms", 2003): a walk
    of the orbit of s fixes, for each member y, an element u_y mapping s to
    y; then the elements u_g(y)^-1 g u_y, over every member y and generator
    g, generate the stabilizer.  They pass through a Sims filter, which
    keeps at most one element per first moved point i and its image j, so
    at most C(m, 2) remain: an element that meets a kept one at (i, j) is
    replaced by their quotient, which fixes i and every point before it,
    and sifted on.  The filter keeps the inverse of each element it files,
    which generates the same group.

    The walk stops once the kept elements are known to generate a group of
    ``order`` elements.  The elements filed at (i, j), for one i, fix every
    point before i and send i to distinct images j, so the group the kept
    ones generate, which holds them, has at least the product over i of
    (1 + their number) elements, and it lies inside the stabilizer.  Once
    the product reaches ``order`` the two are equal, every later element
    would sift to the identity, and the rest of the walk would file
    nothing: the kept set is the one the whole walk keeps."""
    points = range(len(gens[0]))
    identity = list(points)
    bits = [1 << v for v in points]
    members = [v for v in points if s >> v & 1]
    transversal = {s: identity}
    kept: dict[tuple[int, int], list[int]] = {}
    moved = [1] * len(points)  # 1 + the elements filed at (i, j), over j
    bound = 1  # the product of ``moved``, at most |<kept>|
    stack = [s]
    while stack:
        u = transversal[stack.pop()]
        for g in gens:
            w = [g[x] for x in u]  # g u_y, which maps s to g(y)
            z = 0
            for v in members:
                z |= bits[w[v]]
            if z not in transversal:
                transversal[z] = w
                stack.append(z)
                continue
            back = _permutation(transversal[z], points)
            h = [back[x] for x in w]
            while h != identity:
                i = 0
                while h[i] == i:
                    i += 1
                filed = kept.get((i, h[i]))
                if filed is None:
                    kept[i, h[i]] = _permutation(h, points)
                    bound = bound // moved[i] * (moved[i] + 1)
                    moved[i] += 1
                    if bound == order:
                        return list(kept.values())
                    break
                h = [filed[x] for x in h]
    return list(kept.values())


@lru_cache(maxsize=None)
def _subsets_by_size(m: int) -> tuple[tuple[int, ...], ...]:
    """Masks of all subsets of m points, grouped by size: entry k lists the
    k-sets in ascending order."""
    table: list[list[int]] = [[] for _ in range(m + 1)]
    for s in range(1 << m):
        table[s.bit_count()].append(s)
    return tuple(map(tuple, table))


def _misses(cn: tuple[int, ...], k: int, ok=_identifying_ok) -> bool:
    """Whether a code that the accept-only kernel ``ok`` accepts misses k vertices of ``cn``."""
    full = (1 << len(cn)) - 1
    return any(ok(cn, full ^ s) for s in _subsets_by_size(len(cn))[k])


def _gamma_id_level(cn: tuple[int, ...], ok=_identifying_ok) -> int:
    """-1: a code misses two vertices; 0: exactly one; 1: none (needs all).
    Supersets of codes are codes, so the two sizes place the minimum
    relative to n - 1."""
    if _misses(cn, 2, ok):
        return -1
    return 0 if _misses(cn, 1, ok) else 1


def _scan(name: str, max_n: int, force: bool) -> ScanReport:
    """The one loop of the scans, over the row ``_CHECKS[name]``, whose
    ``check(n, cn, weight, details)`` returns None for a class outside the
    claim, else the extra fields of each counterexample in it; only classes
    in the claim are ``graphs_checked``.  A class with counterexamples, and
    only such a class, is named by its canonical labelling and checked
    again on it with weight 0, so that the entries' vertex fields refer to
    the reported edge mask; every tally of a check is a sum of weights.
    Connected sweeps start at 2 vertices, the others at 1."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    cap = len(_CLASSES) - 1 if force else SCAN_CAP  # force: up to the last n with a class count
    if max_n > cap:
        classes = f"{_CLASSES[max_n]:,}" if max_n < len(_CLASSES) else f"over {_CLASSES[-1]:,}"
        raise ValueError(
            f"scan {name!r} is capped at n <= {cap} ({classes} isomorphism classes on {max_n} "
            "vertices otherwise)" + ("" if force else "; pass force=True / --unsafe-cap to override")
        )
    # the details come after the refusal: thm12's are sized by max_n
    _, connected, twin_free, degree, check, details = _CHECKS[name]
    report = ScanReport(name, max_n, details=details(max_n))
    max_degree = degree(max_n) if degree else None
    for n, weight, cn in _sweep(2 if connected else 1, max_n, connected, twin_free, max_degree):
        found = check(n, cn, weight, report.details)
        if found is None:
            continue
        report.graphs_checked += weight
        if found:
            rep = _canon(cn)[0]
            edges = [list(e) for e in Graph._from_masks(rep).edges()]
            entry = {"n": n, "edge_mask": _edge_mask(rep), "edges": edges, "labelings": weight}
            report.counterexamples += ({**entry, **extra} for extra in check(n, rep, 0, report.details))
    report.counterexamples.sort(key=lambda c: (c["n"], c["edge_mask"]))
    return report


def scan_extremal_classification(max_n: int = 7, force: bool = False) -> ScanReport:
    """Structural recognizer vs brute force on every connected twin-free
    graph: the extremal outcomes must coincide exactly."""
    return _scan("thm12", max_n, force)


def _check_thm12(n, cn, weight, details):
    details["connected_twin_free_per_n"][n] += weight
    level = _gamma_id_level(cn)
    if level == 1:
        details["graphs_needing_all_vertices"] += weight
    if level == 0:
        details["extremal_per_n"][n] += weight
    result = _classify_masks(cn)
    if result.is_extremal == (level == 0):
        return []
    return [{"oracle_extremal": level == 0, "classified": result.to_dict()}]


def scan_low_degree(max_n: int = 7, force: bool = False) -> ScanReport:
    """Connected twin-free graphs with max degree <= n - 3 must admit an
    identifying code missing two vertices."""
    return _scan("cor13", max_n, force)


def _check_cor13(n, cn, weight, details):
    max_degree = max(b.bit_count() for b in cn) - 1
    if max_degree > n - 3:
        return None
    return [] if _misses(cn, 2) else [{"max_degree": max_degree}]


def scan_regular_odd(max_n: int = 7, force: bool = False) -> ScanReport:
    """Every regular extremal graph is a complete graph minus a perfect
    matching; every odd-order extremal graph has a universal vertex."""
    return _scan("remark1", max_n, force)


def _check_remark1(n, cn, weight, details):
    if _gamma_id_level(cn) != 0:
        return []
    details["extremal_seen"] += weight
    degrees = [b.bit_count() - 1 for b in cn]
    found = []
    # K_n minus a perfect matching is (n - 2)-regular, and an
    # (n - 2)-regular graph is one: its complement is 1-regular
    if len(set(degrees)) == 1 and degrees[0] != n - 2:
        found.append({"reason": "regular", "degree": degrees[0]})
    if n % 2 == 1 and max(degrees) != n - 1:
        found.append({"reason": "odd-order", "max_degree": max(degrees)})
    return found


def scan_removable_vertex(max_n: int = 7, force: bool = False) -> ScanReport:
    """Every vertex of every graph with a twin-free r-th power, r in
    ``_LEMMA7_RADII``, has a removable vertex inside its radius-r ball.

    Only twin-free graphs are swept: twins of G stay twins in every power.
    """
    return _scan("lemma7", max_n, force)


def _check_lemma7(n, cn, weight, details):
    found = None
    for r in _LEMMA7_RADII:
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
        details["per_radius_checked"][r] += weight
        stuck = [x for x in range(n) if _least_removable(balls, index, x) is None]
        found = (found or []) + [{"radius": r, "vertex": x} for x in stuck]
    return found


def scan_gamma_chain(max_n: int = 6, force: bool = False) -> ScanReport:
    """On every twin-free graph: the separating and identifying minima
    differ by at most one, and separating validity transfers exactly to
    discriminating validity on the ball membership graph for every subset.

    Both verdicts on a subset C read only signatures b & C: of the closed
    balls, and of the ball nodes holding each vertex.  As u is in B(v) iff
    v is in B(u), the lists are equal, so one comparison per class settles
    all 2^n subsets; a mismatch is reported once, at its least vertex."""
    return _scan("gamma-chain", max_n, force)


def _check_gamma_chain(n, cn, weight, details):
    found = []
    gamma_s = solve._solve(cn, "separating")[0]
    gamma_id = solve._solve(cn, "identifying")[0]
    if not (gamma_s <= gamma_id <= gamma_s + 1):
        found.append({"reason": "chain", "gamma_s": gamma_s, "gamma_id": gamma_id})
    holders = codes._holders(cn)
    if holders != list(cn):
        u = next(u for u in range(n) if holders[u] != cn[u])
        found.append({"reason": "bridge", "vertex": u})
    details["bridge_checks"] += weight << n
    return found


def scan_locating_dominating(max_n: int = 6, force: bool = False) -> ScanReport:
    """A connected graph needs all but one vertex for locating-domination
    exactly when it is a star or a complete graph (n >= 2)."""
    return _scan("ld", max_n, force)


def _check_ld(n, cn, weight, details):
    extremal = _gamma_id_level(cn, _locating_dominating_ok) == 0
    degrees = sorted(b.bit_count() - 1 for b in cn)
    is_complete = degrees[0] == n - 1
    is_star = n >= 3 and degrees == [1] * (n - 1) + [n - 1]
    if extremal:
        details["extremal_seen"] += weight
    if extremal == (is_complete or is_star):
        return []
    return [{"extremal": extremal, "star": is_star, "complete": is_complete}]


def scan_conjectured_degree_bound(max_n: int = 7, force: bool = False) -> ScanReport:
    """Every connected twin-free graph of max degree D >= 3 admits an
    identifying code of size at most ceil(n - n/D)."""
    return _scan("conjecture", max_n, force)


def _check_conjecture(n, cn, weight, details):
    delta = max(b.bit_count() for b in cn) - 1
    if delta < 3:
        return None
    if _misses(cn, n // delta):  # n - n // D = ceil(n - n/D), n an integer
        return []
    exact = solve._solve(cn, "identifying")[0]
    return [{"max_degree": delta, "bound": n - n // delta, "gamma_id": exact}]


# one row per theorem: (public scan, connected, twin_free, the sweep's degree
# bound as max_degree(max_n) or None, check, details(max_n))
_CHECKS = {
    "thm12": (scan_extremal_classification, True, True, None, _check_thm12, lambda max_n: {
        "graphs_needing_all_vertices": 0,
        "connected_twin_free_per_n": dict.fromkeys(range(2, max_n + 1), 0),
        "extremal_per_n": dict.fromkeys(range(2, max_n + 1), 0),
    }),
    # a class on n vertices is in cor13's claim when its maximum degree is
    # at most n - 3, so at most max_n - 3
    "cor13": (scan_low_degree, True, True, lambda max_n: max_n - 3, _check_cor13, lambda max_n: {}),
    "remark1": (scan_regular_odd, True, True, None, _check_remark1, lambda max_n: {"extremal_seen": 0}),
    "lemma7": (scan_removable_vertex, False, True, None, _check_lemma7, lambda max_n: {
        "radii": list(_LEMMA7_RADII),
        "per_radius_checked": dict.fromkeys(_LEMMA7_RADII, 0),
    }),
    "conjecture": (scan_conjectured_degree_bound, True, True, None, _check_conjecture, lambda max_n: {}),
    "ld": (scan_locating_dominating, True, False, None, _check_ld, lambda max_n: {"extremal_seen": 0}),
    "gamma-chain": (scan_gamma_chain, False, True, None, _check_gamma_chain, lambda max_n: {"bridge_checks": 0}),
}

THEOREM_SCANS = {name: row[0] for name, row in _CHECKS.items()}
