"""Exhaustive scan engine at small sizes: the isomorph-free sweep against
the labeled one, zero counterexamples, count bookkeeping, kernel agreement with
the certified checkers, and caps."""

import copy
import functools
import hashlib
import itertools
import json
import math
import random
import time
from collections import Counter

import pytest

import brute
import sweepcheck
from randgraphs import gnp_edges
from idcodes import cli, codes, graph, scans, solve
from idcodes.classify import classify_extremal
from idcodes.families import complete_graph, star_graph
from idcodes.graph import (
    Graph,
    _balls,
    canonical_form,
    graph_from_edge_mask,
    is_connected,
    is_twin_free,
)
from idcodes.scans import (
    ScanReport,
    _scan,
    _sweep,
    scan_conjectured_degree_bound,
    scan_extremal_classification,
    scan_gamma_chain,
    scan_locating_dominating,
    scan_low_degree,
    scan_regular_odd,
    scan_removable_vertex,
)


def _naive_connected(g) -> bool:
    return all(brute.naive_distance(g, 0, v) is not None for v in range(g.n))


def _naive_twin_free(g) -> bool:
    return not brute.naive_twin_pairs(g)


def _named(n: int, cn) -> int:
    """The edge mask of the class of a graph the sweep yields: its
    canonical form, checked to be that of its canonical labelling."""
    emask = canonical_form(Graph._from_masks(cn))
    assert graph_from_edge_mask(n, emask) == Graph._from_masks(graph._canon(cn)[0])
    return emask


@functools.lru_cache(maxsize=None)
def _relabelings(n: int, emask: int) -> frozenset[int]:
    """Edge masks of every relabeling of one labeled graph, by brute force."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: e for e, p in enumerate(pairs)}
    edges = [pairs[e] for e in range(len(pairs)) if emask >> e & 1]
    return frozenset(
        sum(1 << index[tuple(sorted((perm[u], perm[v])))] for u, v in edges)
        for perm in itertools.permutations(range(n))
    )


@pytest.mark.parametrize("connected,twin_free", [(False, False), (True, True), (False, True), (True, False)])
def test_sweep_yields_each_class_once_with_its_labeled_count(connected, twin_free):
    # every filter pair the scans use, plus none, against the labeled
    # Gray-code sweep: the relabelings of the yielded representatives
    # partition the labeled graphs the oracle keeps, class by class
    labeled = {n: set() for n in range(1, 7)}
    for n, emask, _ in brute.labeled_sweep(1, 6, connected, twin_free):
        labeled[n].add(emask)
    claimed = {n: set() for n in range(1, 7)}
    for n, weight, cn in _sweep(1, 6, connected, twin_free):
        emask = _named(n, cn)
        orbit = _relabelings(n, emask)
        assert len(orbit) == weight
        assert not orbit & claimed[n]
        claimed[n] |= orbit
    assert claimed == labeled
    assert {n for n, *_ in _sweep(3, 4, connected, twin_free)} == {3, 4}


def test_sweep_class_counts_and_weights_to_eight_vertices():
    # OEIS A000088 (all graphs) and A001349 (connected graphs), counted
    # order-free by _canon certificate; the weights of each order add up
    # to the 2^C(n,2) labeled graphs, and those of the connected sweep to
    # the connected labeled graphs (A001187)
    kept, kept_labeled = Counter(), Counter()
    for n, weight, _ in _sweep(1, 8, connected=True):
        kept[n] += 1
        kept_labeled[n] += weight
    assert [kept[n] for n in range(1, 9)] == [1, 1, 2, 6, 21, 112, 853, 11117]
    assert [kept_labeled[n] for n in range(1, 9)] == [1, 1, 4, 38, 728, 26704, 1866256, 251548592]
    every = _classes_to_eight()
    assert [len(every[n]) for n in range(1, 9)] == [1, 2, 4, 11, 34, 156, 1044, 12346]
    connected = Counter(n for n, certs in every.items() for cert in certs if _naive_connected(Graph._from_masks(cert)))
    assert [connected[n] for n in range(1, 9)] == [1, 1, 2, 6, 21, 112, 853, 11117]


@functools.lru_cache(maxsize=None)
def _classes_to_eight() -> dict[int, list[tuple[int, ...]]]:
    """The unfiltered sweep to eight vertices, checked order-free by
    ``sweepcheck.check_classes``: its certificates per n."""
    return sweepcheck.check_classes(_sweep(1, 8))


@pytest.mark.parametrize("connected,twin_free", [(False, False), (True, True), (False, True), (True, False)])
def test_sweep_is_checked_order_free_to_eight_vertices(connected, twin_free):
    # every filter pair the scans use, plus none, whatever the order and
    # labelings the classes arrive in: one item per class and each weight
    # n!/|Aut| (sweepcheck), the filtered classes exactly those of the
    # unfiltered sweep that pass the filters, read off the certificates,
    # and the weights of 50 seeded classes on eight vertices against the
    # brute-force automorphism count
    every = _classes_to_eight()
    assert sorted(every) == list(range(1, 9))
    stream = list(_sweep(1, 8, connected, twin_free))
    got = sweepcheck.check_classes(stream, connected, twin_free)

    def passes(cert):
        g = Graph._from_masks(cert)
        return (not connected or is_connected(g)) and (not twin_free or is_twin_free(g))

    expected = {n: [cert for cert in certs if passes(cert)] for n, certs in every.items()}
    assert got == {n: certs for n, certs in expected.items() if certs}
    sample = random.Random(8).sample([item for item in stream if item[0] == 8], 50)
    for n, weight, cn in sample:
        assert weight * brute.automorphism_count(Graph._from_masks(cn)) == math.factorial(n)


def test_sweep_streams_classes_depth_first():
    # the walk holds no level of classes: the first classes on nine
    # vertices (274,668 in all, about 6 s to generate) arrive at once,
    # each isomorphic to its canonical representative
    start = time.process_time()
    first = list(itertools.islice(_sweep(9, 9), 100))
    assert time.process_time() - start < 1.0
    assert {n for n, _, _ in first} == {9}
    assert len({_named(n, cn) for n, _, cn in first}) == 100


def _orbit_test(child: tuple[int, ...]) -> bool:
    """Canonical deletion decided by the full labeling of the closed masks
    ``child``: the new vertex m, the last, has the maximum degree and lies
    in the Aut orbit of the maximum-degree vertex that ``_canon`` numbers
    last.  A closed mask counts its vertex's degree plus one."""
    m = len(child) - 1
    top = max(x.bit_count() for x in child)
    _, lab, _, gens = graph._canon(child)
    last = next(v for v in reversed(lab) if child[v].bit_count() == top)
    return child[m].bit_count() == top and (last == m or graph._orbit(1 << last, gens) >> m & 1 == 1)


def test_every_kept_child_passes_the_orbit_test_with_its_automorphism_group(monkeypatch):
    # every child _children keeps from every class on at most six
    # vertices, with one level left below it and with none, whatever
    # settled it (twins, the orbit proof, a fixed set's whole parent
    # group or _canon); the parents carry the generators the deletion
    # tree gives them, as in the sweep, each checked here as a kept
    # child one level up. A kept child is its parent plus one vertex
    # joined to one set, passes the orbit test and has _canon's |Aut|,
    # which is the count over all vertex permutations; with a level left
    # its generators are automorphisms generating a group of that order,
    # at most C(n, 2) of them unless _canon labelled it. The kept
    # children name once each class that passes the orbit test on some
    # set the new vertex may join, so no child the root partition
    # rejects is one the test keeps. The orbit proof settles 3, 6, 37
    # and 140 children on 4 to 7 vertices on either level, and some
    # leaves are kept without generators, some of them through a new
    # vertex with a twin, whose orbit is its twin class
    parents, stack = [], [((), 1, [])]
    while stack:
        parent = stack.pop()
        parents.append(parent)
        if len(parent[0]) < 6:
            stack.extend(scans._children(*parent, 1))
    proved, labeled = set(), set()
    real_descend, real_canon = scans._descend, scans._canon
    monkeypatch.setattr(scans, "_descend", lambda cn, *rest: proved.add(cn) or real_descend(cn, *rest))
    monkeypatch.setattr(scans, "_canon", lambda cn: labeled.add(cn) or real_canon(cn))
    settled, alone, twinned = Counter(), 0, 0
    for cn, order, gens in parents:
        n = len(cn)
        joined = {s: (*[x | 1 << n if s >> u & 1 else x for u, x in enumerate(cn)], s | 1 << n) for s in range(1 << n)}
        passing = {canonical_form(Graph._from_masks(child)) for child in joined.values() if _orbit_test(child)}
        for left in (1, 0):
            kept = []
            for child, child_order, child_gens in scans._children(cn, order, gens, left):
                assert child == joined[child[n] ^ 1 << n]
                assert _orbit_test(child)
                assert child_order == graph._canon(child)[2] == brute.automorphism_count(Graph._from_masks(child))
                if child in proved and child not in labeled:
                    settled[left, n + 1] += 1
                if left:
                    k = n + 1
                    assert child in labeled or len(child_gens) <= k * (k - 1) // 2
                    for g in child_gens:
                        assert sorted(g) == list(range(k))
                        assert all(child[g[v]] == sum(1 << g[u] for u in range(k) if child[v] >> u & 1) for v in range(k))
                    assert len(_closure(child_gens, k)) == child_order
                elif child_gens is None:
                    alone += 1
                    adj = brute.adjacency(Graph._from_masks(child))
                    twinned += any(adj[v] - {n} == adj[n] - {v} for v in range(n))
                kept.append(canonical_form(Graph._from_masks(child)))
            assert len(kept) == len(set(kept)) and set(kept) == passing
    assert settled == {(left, n): count for left in (1, 0) for n, count in ((4, 3), (5, 6), (6, 37), (7, 140))}
    assert alone > twinned > 0


def test_orbit_proof_leaves_a_last_cell_of_two_orbits_to_canon(monkeypatch):
    # the complement of C4 + K3, 4-regular, so its root partition is one
    # cell: the new vertex 6 lies in the orbit {4, 5, 6}, and {0, 1, 2, 3}
    # is the other, which no automorphism maps 6 into; the proof finds no
    # map, _canon labels the child and rejects it, as it does one other
    # child on seven vertices (C3 + C4)
    child = (117, 122, 117, 122, 31, 47, 79)
    parent = tuple(x & ~(1 << 6) for x in child[:6])
    _, _, order, gens = graph._canon(parent)
    full = (1 << 7) - 1
    assert graph._refine(child, [full], [full]) == [full]
    child_gens = graph._canon(child)[3]
    assert graph._orbit(1 << 6, child_gens) == 0b1110000 and graph._orbit(1, child_gens) == 0b0001111
    labeled = []
    real = scans._canon
    monkeypatch.setattr(scans, "_canon", lambda cn: labeled.append(cn) or real(cn))
    kept = [kid for kid, _, _ in scans._children(parent, order, gens, 0)]
    assert labeled == [child] and child not in kept


@pytest.mark.parametrize("connected,twin_free", [(False, False), (True, True), (False, True), (True, False)])
def test_leaf_filter_drops_only_the_leaves_the_filters_refuse(connected, twin_free):
    # every class on at most six vertices: the filtered last level is the
    # unfiltered one less the leaves with twins or several components, in
    # the same order and with the same orders
    for n, _, cn in _sweep(1, 6):
        _, _, order, gens = graph._canon(cn)
        full = (1 << n + 1) - 1
        unfiltered = [
            (child, child_order, child_gens)
            for child, child_order, child_gens in scans._children(cn, order, gens, 0)
            if (not twin_free or len(set(child)) == n + 1)
            and (not connected or scans._reach(child, child[0]) == full)
        ]
        assert list(scans._children(cn, order, gens, 0, connected, twin_free)) == unfiltered


def _max_degree(cn) -> int:
    return max(x.bit_count() for x in cn) - 1


@pytest.mark.parametrize("connected,twin_free", [(False, False), (True, True), (False, True), (True, False)])
def test_degree_bounded_sweep_is_the_sweep_filtered_by_degree(connected, twin_free):
    # the (n, weight, cn) stream, in the order it is yielded, of the sweep
    # bounded to maximum degree D is the unbounded stream less the classes
    # above D: every D on up to seven vertices, and two on eight
    for max_n, bounds in ((7, range(7)), (8, (3, 5))):
        unbounded = list(_sweep(1, max_n, connected, twin_free))
        for d in bounds:
            bounded = list(_sweep(1, max_n, connected, twin_free, max_degree=d))
            assert bounded == [item for item in unbounded if _max_degree(item[2]) <= d], (max_n, d)


def test_connected_cubic_classes():
    # OEIS A002851: the connected 3-regular graphs on 4, 6, 8 and 10 vertices
    cubic = Counter(
        n for n, _, cn in _sweep(4, 10, connected=True, max_degree=3) if all(x.bit_count() == 4 for x in cn)
    )
    assert cubic == {4: 1, 6: 2, 8: 5, 10: 19}


def test_classes_of_degree_at_most_two_are_unions_of_paths_and_cycles():
    # a graph of maximum degree at most 2 is a multiset of components, each
    # a path (one on every order) or a cycle (one on every order from 3),
    # so the class counts are the Euler transform of 1, 1, 2, 2, 2, ...
    top = 12
    components = [0, 1, 1] + [2] * (top - 2)
    weighted = [sum(d * components[d] for d in range(1, k + 1) if k % d == 0) for k in range(top + 1)]
    expected = [1]
    for n in range(1, top + 1):
        expected.append(sum(weighted[k] * expected[n - k] for k in range(1, n + 1)) // n)
    counts = Counter(n for n, _, _ in _sweep(1, top, max_degree=2))
    assert [counts[n] for n in range(1, top + 1)] == expected[1:]
    assert expected[12] == 232


def test_sweep_root_is_the_empty_graph():
    # the one-vertex graph is the empty graph's one child, built and
    # filtered like any other: no degree bound below 0 admits it, the
    # edgeless graphs are the classes of maximum degree 0, and it passes the
    # connected and twin-free filters alone, on the last level or above it
    assert list(_sweep(1, 3, max_degree=-1)) == []
    edgeless = [(n, 1, tuple(1 << v for v in range(n))) for n in range(1, 7)]
    assert sorted(_sweep(1, 6, max_degree=0)) == edgeless
    for connected, twin_free in itertools.product((False, True), repeat=2):
        assert list(_sweep(1, 1, connected, twin_free)) == [(1, 1, (1,))]
        assert [item for item in _sweep(1, 3, connected, twin_free) if item[0] == 1] == [(1, 1, (1,))]
        assert list(_sweep(2, 1, connected, twin_free)) == []
        for left in range(3):
            children = list(scans._children((), 1, [], left, connected, twin_free))
            assert children == [((1,), 1, [] if left else None)]
    assert list(scans._children((), 1, [], 2, max_degree=-1)) == []


def _closure(gens, n: int) -> set[tuple[int, ...]]:
    """Every element of the permutation group on n points that ``gens`` generate."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[x] for x in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def test_stabilizer_generates_the_set_stabilizer():
    # seeded groups on up to six points, against the elements of the group
    # that fix the set, listed by brute force and given as the known order;
    # the Sims filter must sift an element that meets a kept one, not drop
    # it: (0 1) and (0 1)(2 3) both move 0 to 1 first, and together
    # generate a group of order 4
    assert len(_closure(scans._stabilizer(0, [[1, 0, 2, 3], [1, 0, 3, 2]], 4), 4)) == 4
    rng = random.Random(7)
    for _ in range(24):
        m = rng.randrange(1, 7)
        gens = [rng.sample(range(m), m) for _ in range(rng.randrange(1, 4))]
        group = _closure(gens, m)
        for s in range(1 << m):
            fixing = {p for p in group if sum(1 << p[v] for v in range(m) if s >> v & 1) == s}
            kept = scans._stabilizer(s, gens, len(fixing))
            assert len(kept) <= m * (m - 1) // 2
            assert _closure(kept, m) == fixing


def test_stopped_stabilizer_walk_keeps_every_generator(monkeypatch):
    # the deletion tree to seven vertices, built with inner children only:
    # stopping the Schreier walk at the stabilizer's order files no fewer
    # elements, so every class carries the generators, in the same order,
    # that the whole walk gives it (no bound reaches an infinite order)
    def carried():
        gens_of = {}
        stack = [((), 1, [])]
        while stack:
            cn, order, gens = stack.pop()
            gens_of[cn] = gens
            if len(cn) < 7:
                stack.extend(scans._children(cn, order, gens, 1))
        return gens_of

    stopped = carried()
    real = scans._stabilizer
    monkeypatch.setattr(scans, "_stabilizer", lambda s, gens, order: real(s, gens, math.inf))
    assert carried() == stopped
    assert sum(len(stopped[cn]) for cn in stopped if len(cn) == 7) > 0


def test_stopped_refinement_decides_as_the_equitable_partition(monkeypatch):
    # every child _children refines, from every class on at most six
    # vertices, with one level and with none left below it, for the four
    # filter pairs and a degree bound: the root refinement starts at the
    # child's degree classes, ascending and all pending (none with one
    # class), the unit partition after its first splitter, the whole
    # vertex set; stopped once its last cell has decided, it gives the
    # verdict of the unit partition's equitable refinement (reject: the
    # last cell misses the new vertex; settle: it lies inside the new
    # vertex's twin class; label: neither, and then the partition the orbit
    # proof starts from is that refinement)
    real = scans._refine
    verdicts = Counter()

    def verdict(cells, mark, within):
        if not cells[-1] & mark:
            return "reject"
        return "label" if cells[-1] & ~within else "settle"

    def refine(cn, cells, todo, mark=0, within=0):
        n = len(cn)
        assert mark == 1 << n - 1 and within & mark
        classes = {}
        for v, x in enumerate(cn):
            classes[x.bit_count()] = classes.get(x.bit_count(), 0) | 1 << v
        degree_partition = [classes[d] for d in sorted(classes)]
        assert cells == degree_partition and todo == (cells if len(cells) > 1 else [])
        equitable = real(cn, [(1 << n) - 1], [(1 << n) - 1])
        stopped = real(cn, cells, todo, mark, within)
        verdicts[verdict(stopped, mark, within)] += 1
        assert verdict(stopped, mark, within) == verdict(equitable, mark, within)
        assert verdict(equitable, mark, within) != "label" or stopped == equitable
        return stopped

    monkeypatch.setattr(scans, "_refine", refine)
    parents = [(cn, *graph._canon(cn)[2:]) for _, _, cn in _sweep(1, 6)]
    filters = [(connected, twin_free, None) for connected, twin_free in itertools.product((False, True), repeat=2)]
    for connected, twin_free, max_degree in filters + [(False, False, 4)]:
        for cn, order, gens in parents:
            for left in (1, 0):
                for _ in scans._children(cn, order, gens, left, connected, twin_free, max_degree):
                    pass
    assert set(verdicts) == {"reject", "settle", "label"}


def test_subsets_by_size_list_every_subset_once():
    # the candidate sets of the new vertex, on up to ten points: each
    # subset once, in the row of its size, ascending within the row
    for m in range(11):
        table = scans._subsets_by_size(m)
        assert len(table) == m + 1
        for size, row in enumerate(table):
            assert all(s.bit_count() == size for s in row)
            assert list(row) == sorted(row) and len(row) == math.comb(m, size)
        assert sorted(itertools.chain(*table)) == list(range(1 << m))


def _calls(monkeypatch, *args) -> dict[str, Counter]:
    """_canon, orbit proof and root _refine calls per child size in
    ``_sweep(*args)``; a proof is counted once, at its ``_descend`` from
    the new vertex, the last."""
    calls = {"canon": Counter(), "proof": Counter(), "refine": Counter()}
    real_canon, real_descend, real_refine = scans._canon, scans._descend, scans._refine

    def canon(cn):
        calls["canon"][len(cn)] += 1
        return real_canon(cn)

    def descend(cn, cells, t, b):
        if b == 1 << len(cn) - 1:
            calls["proof"][len(cn)] += 1
        return real_descend(cn, cells, t, b)

    def refine(cn, cells, todo, *stop):
        calls["refine"][len(cn)] += 1
        return real_refine(cn, cells, todo, *stop)

    monkeypatch.setattr(scans, "_canon", canon)
    monkeypatch.setattr(scans, "_descend", descend)
    monkeypatch.setattr(scans, "_refine", refine)
    calls["classes"] = sum(1 for _ in _sweep(*args))
    return calls


def test_last_level_labelings_are_pinned(monkeypatch):
    # size 7 is the last level, where the filters drop the leaves that
    # connected twin-free sweeps refuse; on size 6 the twin rule drops the
    # children with three closed twins, which one more vertex cannot part
    # into single vertices (one orbit proof and seven refinements fewer
    # than a leaf filter alone), and a degree bound drops children on every
    # level; on every level twins of the new vertex settle most children, so
    # a size below 4 needs no refinement at all; the orbit proof settles
    # every child the refinement leaves open but four on seven vertices,
    # none twin-free, whose last cell holds two orbits: _canon labels them,
    # rejects two and keeps two
    calls = _calls(monkeypatch, 1, 7)
    assert calls["classes"] == 1252
    assert calls["canon"] == {7: 4}
    assert calls["proof"] == {4: 3, 5: 6, 6: 37, 7: 144}
    assert calls["refine"] == {4: 3, 5: 12, 6: 87, 7: 754}
    calls = _calls(monkeypatch, 2, 7, True, True)
    assert calls["classes"] == 583
    assert calls["canon"] == {}
    assert calls["proof"] == {4: 3, 5: 6, 6: 36, 7: 82}
    assert calls["refine"] == {4: 3, 5: 12, 6: 80, 7: 424}
    calls = _calls(monkeypatch, 2, 7, True, True, 4)
    assert calls["classes"] == 307
    assert calls["canon"] == {}
    assert calls["proof"] == {4: 3, 5: 6, 6: 36, 7: 56}
    assert calls["refine"] == {4: 3, 5: 12, 6: 80, 7: 328}


def test_counterexamples_name_the_canonical_representative(monkeypatch):
    # a stuck-vertex rule that depends on the labeling (a vertex is stuck
    # whenever its ball holds vertex 0): each entry's vertices are those
    # the rule gives on the graph of the reported edge mask itself
    real = scans._least_removable

    def patched(balls, index, x):
        return None if balls[x] & 1 else real(balls, index, x)

    monkeypatch.setattr(scans, "_least_removable", patched)
    entries = scan_removable_vertex(5).counterexamples
    assert entries
    stuck = {}
    for c in entries:
        stuck.setdefault((c["n"], c["edge_mask"], c["radius"]), []).append(c["vertex"])
    for (n, emask, r), vertices in stuck.items():
        g = graph_from_edge_mask(n, emask)
        balls = [sum(1 << y for y in brute.naive_ball(g, x, r)) for x in range(n)]
        assert vertices == [x for x in range(n) if patched(balls, set(balls), x) is None]


def test_counterexamples_are_one_entry_per_class_with_its_labelings(monkeypatch):
    # a brute-force level that never calls a graph extremal disagrees with
    # the classifier on every extremal graph; each class is reported once
    monkeypatch.setattr(scans, "_gamma_id_level", lambda cn: 1)
    first = scan_extremal_classification(4).to_dict()["counterexamples"]
    assert first == scan_extremal_classification(4).to_dict()["counterexamples"]
    assert first == sorted(first, key=lambda c: (c["n"], c["edge_mask"]))
    affected = sum(
        classify_extremal(graph_from_edge_mask(n, emask)).is_extremal
        for n, emask, _ in brute.labeled_sweep(2, 4, connected=True, twin_free=True)
    )
    assert affected == 3 + 19
    assert sum(c["labelings"] for c in first) == affected
    assert len(first) == len({(c["n"], c["edge_mask"]) for c in first}) == 4
    for c in first:
        assert c["edges"] == [list(e) for e in graph_from_edge_mask(c["n"], c["edge_mask"]).edges()]
        assert c["oracle_extremal"] is False and c["classified"]["implied_gamma_id"] == c["n"] - 1


@functools.lru_cache(maxsize=None)
def _every_class_failing() -> tuple[dict, list[dict]]:
    """The entries of a scan whose check fails every class on 1-6
    vertices, and the weight the check saw for each class name."""
    seen = {}

    def check(n, cn, weight, details):
        if weight:
            seen[n, canonical_form(Graph._from_masks(cn))] = weight
        return [{"tag": 1}]

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setitem(scans._CHECKS, "x", (None, False, False, None, check, lambda max_n: {}))
        return seen, _scan("x", 6, False).counterexamples


def test_scan_entries_name_each_class_by_its_canonical_form():
    # one entry per class (OEIS A000088), sorted, named by the class's
    # canonical form, which is its own form, with labelings adding up to
    # the labeled graphs per order
    seen, entries = _every_class_failing()
    assert len(entries) == len(seen) == 208
    assert [(c["n"], c["edge_mask"]) for c in entries] == sorted(seen)
    labeled = Counter()
    for c in entries:
        assert canonical_form(graph_from_edge_mask(c["n"], c["edge_mask"])) == c["edge_mask"]
        assert c["labelings"] == seen[c["n"], c["edge_mask"]]
        labeled[c["n"]] += c["labelings"]
    assert labeled == {n: 2 ** (n * (n - 1) // 2) for n in range(1, 7)}


def test_entry_lists_the_edges_of_its_mask():
    # each entry lists the edges of its own mask and keeps the check's
    # fields after its own, in that key order
    seen, entries = _every_class_failing()
    for c in entries:
        n, emask = c["n"], c["edge_mask"]
        edges = [list(e) for e in graph_from_edge_mask(n, emask).edges()]
        assert c == {"n": n, "edge_mask": emask, "edges": edges, "labelings": seen[n, emask], "tag": 1}
        assert list(c) == ["n", "edge_mask", "edges", "labelings", "tag"]


def test_kernels_agree_with_certified_checkers():
    # every accept-only kernel, which the scans call, against the certifying
    # checker of the same kind
    kernels = {
        "identifying": codes._identifying_ok,
        "locating-dominating": codes._locating_dominating_ok,
    }
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randrange(1, 8)
        g = Graph(n, gnp_edges(rng, n, 0.5))
        for radius in (1, 2):
            balls = _balls(g, radius)
            for _ in range(4):
                c = rng.randrange(1 << n)
                subset = [v for v in range(n) if c >> v & 1]
                for kind, ok in kernels.items():
                    assert ok(balls, c) == codes.check_code(g, subset, kind, radius).valid


def test_misses_matches_the_oracle_minimum():
    # _misses(cn, k, ok): some code that ok accepts misses k vertices, that
    # is, the oracle's minimum exists and is at most n - k; every class on
    # up to 6 vertices, twins and disconnected ones included, and every k
    # from 0 to n, where the scans reach k >= 3 only in the conjecture's
    # report; each kernel answers both ways for k below 3 and from 3 up
    kernels = {
        "identifying": codes._identifying_ok,
        "locating-dominating": codes._locating_dominating_ok,
    }
    seen = set()
    for n, _, cn in _sweep(1, 6):
        g = Graph._from_masks(cn)
        for kind, ok in kernels.items():
            found = brute.naive_minimum(g, kind)
            for k in range(n + 1):
                expected = found is not None and found[0] <= n - k
                assert scans._misses(cn, k, ok) == expected, (cn, kind, k)
                seen.add((kind, k >= 3, expected))
    assert seen == {(kind, far, hit) for kind in kernels for far in (False, True) for hit in (False, True)}


def test_extremal_scan_small():
    report = scan_extremal_classification(5)
    assert report.ok
    # labeled counts cross-checked against the naive all-subsets oracle
    assert report.details["connected_twin_free_per_n"] == {2: 0, 3: 3, 4: 19, 5: 462}
    # extremal: all 3-path labelings; everything on four vertices; on five,
    # 5 stars + 60 band-2-plus-universal + 15 complete-minus-matching
    assert report.details["extremal_per_n"] == {2: 0, 3: 3, 4: 19, 5: 80}
    assert report.details["graphs_needing_all_vertices"] == 0


def test_extremal_census_matches_theorem_12():
    # Theorem 12: the extremal connected twin-free graphs are the stars
    # K_{1,n-1} (n labelings; for n = 3 the star is the join below) and the
    # joins of band graphs A_k over a partition p of n // 2, plus one
    # universal vertex for odd n (A_1 alone is disconnected).  A_k has two
    # automorphisms and equal factors permute, so such a join has
    # n! / prod_k 2^(m_k) m_k! labelings, m_k the multiplicity of k in p
    def closed_form(n: int) -> int:
        total = n if n >= 4 else 0
        for p in brute.partitions(n // 2):
            if n % 2 == 0 and p == (1,):
                continue
            aut = math.prod(2**m * math.factorial(m) for m in Counter(p).values())
            total += math.factorial(n) // aut
        return total

    report = scan_extremal_classification(8)
    assert report.ok
    assert report.details["extremal_per_n"] == {n: closed_form(n) for n in range(2, 9)}
    assert [closed_form(n) for n in range(2, 9)] == [0, 3, 19, 80, 561, 3_892, 37_913]


def _labeled_max_degrees(first_n, max_n):
    """(n, max degree) of every connected twin-free labeled graph, by brute force."""
    return [
        (g.n, g.max_degree())
        for n in range(first_n, max_n + 1)
        for g in brute.labeled_graphs(n)
        if _naive_connected(g) and _naive_twin_free(g)
    ]


def test_low_degree_scan_small():
    report = scan_low_degree(5)
    assert report.ok
    assert report.graphs_checked == sum(d <= n - 3 for n, d in _labeled_max_degrees(3, 5))


def test_regular_odd_scan_small():
    report = scan_regular_odd(5)
    assert report.ok
    assert report.details["extremal_seen"] == 3 + 19 + 80


def test_regular_odd_scan_does_not_ask_the_classifier(monkeypatch):
    # Remark 1 is checked by its definition, independently of the thm12 classifier
    def refuse(cn):
        raise AssertionError("remark1 must not call the classifier")

    monkeypatch.setattr(scans, "_classify_masks", refuse)
    assert scan_regular_odd(6).ok
    # a level that calls every class extremal: the one regular class on at
    # most five vertices that is not complete minus a matching is C5
    monkeypatch.setattr(scans, "_gamma_id_level", lambda cn: 0)
    regular = [c for c in scan_regular_odd(5).counterexamples if c["reason"] == "regular"]
    assert [(c["n"], c["degree"], c["labelings"]) for c in regular] == [(5, 2, 12)]


def test_removable_vertex_scan_small():
    report = scan_removable_vertex(4)
    assert report.ok
    assert report.details["per_radius_checked"][1] > report.details["per_radius_checked"][2]
    # graphs on 1..4 vertices whose r-th power is twin-free, by brute-force balls
    for r in (1, 2):
        expected = sum(
            len({frozenset(brute.naive_ball(g, x, r)) for x in range(n)}) == n
            for n in range(1, 5)
            for g in brute.labeled_graphs(n)
        )
        assert report.details["per_radius_checked"][r] == expected
    assert report.to_dict()["details"]["radii"] == [1, 2]


def test_gamma_chain_scan_small():
    report = scan_gamma_chain(4)
    assert report.ok
    twin_free = [g for n in range(1, 5) for g in brute.labeled_graphs(n) if _naive_twin_free(g)]
    assert report.graphs_checked == len(twin_free)
    # one bridge check per vertex subset of each labeled graph
    assert report.details["bridge_checks"] == sum(2**g.n for g in twin_free)


def test_gamma_chain_bridge_mismatch_is_one_entry_per_class(monkeypatch):
    # holders that differ from the closed balls from vertex n // 2 on: the
    # bridge must report each twin-free class once, at that least vertex
    real = codes._holders

    def flipped(balls):
        holders = real(balls)
        for u in range(len(balls) // 2, len(balls)):
            holders[u] ^= 1
        return holders

    monkeypatch.setattr(codes, "_holders", flipped)
    report = scan_gamma_chain(4)
    classes = [(n, canonical_form(Graph._from_masks(cn))) for n, _, cn in _sweep(1, 4, twin_free=True)]
    entries = report.counterexamples
    assert [(c["n"], c["edge_mask"]) for c in entries] == sorted(classes)
    assert all(c["reason"] == "bridge" and c["vertex"] == c["n"] // 2 for c in entries)
    twin_free = [g for n in range(1, 5) for g in brute.labeled_graphs(n) if _naive_twin_free(g)]
    assert sum(c["labelings"] for c in entries) == len(twin_free)


def _failed_scan(capsys, report, theorem: str) -> list[dict]:
    """The counterexample entries of a failed ``report``, after checking
    their order and that ``idcodes scan`` prints the same report as JSON on
    stdout and exits 4, with no traceback."""
    assert not report.ok
    entries = report.counterexamples
    assert [(c["n"], c["edge_mask"]) for c in entries] == sorted({(c["n"], c["edge_mask"]) for c in entries})
    for c in entries:
        assert c["edges"] == [list(e) for e in graph_from_edge_mask(c["n"], c["edge_mask"]).edges()]
    assert cli.main(["scan", "--max-n", str(report.max_n), "--theorem", theorem]) == 4
    out, err = capsys.readouterr()
    assert out == json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n" and err == ""
    return entries


def test_gamma_chain_chain_entry(monkeypatch, capsys):
    # an identifying minimum two above the separating one on 4 vertices:
    # every twin-free class there is one chain entry with both minima
    real = solve._solve

    def skewed(balls, kind):
        size, forced, start, sets = real(balls, kind)
        return size + 2 * (kind == "identifying" and len(balls) == 4), forced, start, sets

    monkeypatch.setattr(solve, "_solve", skewed)
    entries = _failed_scan(capsys, scan_gamma_chain(4), "gamma-chain")
    assert [(c["n"], c["edge_mask"]) for c in entries] == sorted(
        (n, canonical_form(Graph._from_masks(cn))) for n, _, cn in _sweep(4, 4, twin_free=True)
    )
    for c in entries:
        g = graph_from_edge_mask(c["n"], c["edge_mask"])
        assert c["reason"] == "chain"
        assert c["gamma_s"] == brute.naive_minimum(g, "separating")[0]
        assert c["gamma_id"] == brute.naive_minimum(g, "identifying")[0] + 2
    assert sum(c["labelings"] for c in entries) == sum(map(_naive_twin_free, brute.labeled_graphs(4)))


def test_locating_dominating_entry(monkeypatch, capsys):
    # a kernel that accepts no code calls no graph extremal, so the stars
    # and complete graphs on 2..4 vertices are the entries
    monkeypatch.setattr(scans, "_locating_dominating_ok", lambda cn, c: False)
    report = scan_locating_dominating(4)
    entries = _failed_scan(capsys, report, "ld")
    assert report.details["extremal_seen"] == 0
    expected = {
        (g.n, canonical_form(g)): (is_star, labelings)
        for g, is_star, labelings in [
            (complete_graph(2), False, 1),
            (star_graph(2), True, 3),
            (complete_graph(3), False, 1),
            (star_graph(3), True, 4),
            (complete_graph(4), False, 1),
        ]
    }
    assert [(c["n"], c["edge_mask"]) for c in entries] == sorted(expected)
    for c in entries:
        is_star, labelings = expected[c["n"], c["edge_mask"]]
        assert c["extremal"] is False
        assert (c["star"], c["complete"]) == (is_star, not is_star)
        assert c["labelings"] == labelings


def test_conjecture_entry_carries_the_exact_minimum(monkeypatch, capsys):
    # no code within the bound: every connected twin-free graph of maximum
    # degree at least 3 is an entry, with its exact identifying minimum
    monkeypatch.setattr(scans, "_misses", lambda cn, k, ok=None: False)
    report = scan_conjectured_degree_bound(5)
    entries = _failed_scan(capsys, report, "conjecture")
    assert len(entries) > 1
    for c in entries:
        g = graph_from_edge_mask(c["n"], c["edge_mask"])
        assert c["max_degree"] == g.max_degree() >= 3
        assert c["bound"] == c["n"] - c["n"] // c["max_degree"]
        assert c["gamma_id"] == brute.naive_minimum(g, "identifying")[0]
    assert sum(c["labelings"] for c in entries) == report.graphs_checked
    assert report.graphs_checked == sum(d >= 3 for _, d in _labeled_max_degrees(2, 5))


def test_locating_dominating_scan_small():
    report = scan_locating_dominating(4)
    assert report.ok
    # stars and complete graphs on 2..4 vertices, counted with labels:
    # n=2: 1; n=3: 3 + 1; n=4: 4 + 1
    assert report.details["extremal_seen"] == 1 + 4 + 5
    assert report.graphs_checked == sum(
        _naive_connected(g) for n in range(2, 5) for g in brute.labeled_graphs(n)
    )


def test_conjecture_scan_small():
    report = scan_conjectured_degree_bound(5)
    assert report.ok
    assert report.graphs_checked == sum(d >= 3 for _, d in _labeled_max_degrees(2, 5))


def test_degree_bound_is_attained_at_maximum_degrees_three_and_four():
    # the connected twin-free classes of maximum degree exactly D: none
    # needs more than ceil(n - n/D) = n - n // D code vertices, and those
    # needing exactly that many number, per n, as below: none at n = 5 or 8
    # for D = 3, none at 7 or 9 for D = 4
    for d, max_n, attaining in ((3, 10, {4: 1, 6: 8, 7: 2, 9: 19, 10: 3}), (4, 9, {5: 3, 6: 3, 8: 7})):
        found = Counter()
        for n, _, cn in _sweep(4, max_n, True, True, d):
            if _max_degree(cn) == d:
                gamma = solve._solve(cn, "identifying")[0]
                assert gamma <= n - n // d, cn
                if gamma == n - n // d:
                    found[n] += 1
        assert found == attaining, d


def test_scan_caps_enforced():
    # one cap for all seven scans; the refusal is raised before any sweep
    for name, scan in scans.THEOREM_SCANS.items():
        with pytest.raises(ValueError, match=f"scan {name!r} is capped at n <= 9 "):
            scan(10)


def test_force_overrides_the_cap_up_to_eleven_vertices(monkeypatch):
    # below a lowered cap, force runs the scan as if there were no cap; past
    # n = 11, the last class count known, every scan refuses, force or not
    reports = {name: scan(5).to_dict() for name, scan in scans.THEOREM_SCANS.items()}
    monkeypatch.setattr(scans, "SCAN_CAP", 4)
    for name, scan in scans.THEOREM_SCANS.items():
        with pytest.raises(ValueError, match=f"scan {name!r} is capped at n <= 4 .*--unsafe-cap to override"):
            scan(5)
        assert scan(5, force=True).to_dict() == reports[name]
        for force in (False, True):
            with pytest.raises(ValueError, match=f"scan {name!r} is capped at n <= {11 if force else 4} "):
                scan(12, force=force)


def test_checks_leave_details_alone_at_weight_zero():
    # _scan checks a failing class again on its canonical labelling with
    # weight 0, which must tally nothing: every count is a sum of weights
    for name, (_, connected, twin_free, _, check, make_details) in scans._CHECKS.items():
        details = make_details(6)
        for n, _, cn in _sweep(2 if connected else 1, 6, connected, twin_free):
            before = copy.deepcopy(details)
            check(n, graph._canon(cn)[0], 0, details)
            assert details == before, (name, n, cn)


def test_scan_report_shape():
    report = scan_extremal_classification(3)
    d = report.to_dict()
    assert d["ok"] is True and d["counterexamples"] == []
    assert d["scan"] == "thm12" and d["max_n"] == 3
    bad = ScanReport("x", 3)
    bad.counterexamples.append({"n": 3, "edge_mask": 5, "edges": []})
    assert not bad.ok


def test_reports_and_class_representatives_are_pinned():
    # byte identity of every scan's report and of every class's canonical
    # representative, against digests of the reference implementation
    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    pinned = {
        6: "1f98c069351014e8f9e93fc59581da65f142626712367cca1fc280195b379341",
        7: "4242e8fc9c6d66a37b5485d9ce26d49620ebd51712831a3d3a70c2a283c52184",
    }
    for max_n, expected in pinned.items():
        reports = {name: scan(max_n).to_dict() for name, scan in scans.THEOREM_SCANS.items()}
        assert digest(json.dumps(reports, sort_keys=True)) == expected
    names = sorted((n, canonical_form(Graph._from_masks(cn)), w) for n, w, cn in _sweep(1, 7))
    assert len(names) == 1252
    assert digest(repr(names)) == "3adb22fc22bb852945dcc440cf5b5fefb78f84110e0e72f8cfca00bffcce6024"


@pytest.mark.parametrize(
    "connected,twin_free,expected",
    [
        (False, False, "07b4cbc94f43c174a1a28bc131a1db929af1582e20b429bc55cd7d15f4d9d5e1"),
        (True, True, "68b52b355e990c73e6e572b60a6cf2b548d9f8035407c5ac35324c3e87943f5a"),
        (False, True, "97de5991f9c819ece8ca03f62f40f2264f505d9c7918b2518b0b5e6f6bcd7dfa"),
        (True, False, "77b8a9922009cfe63213bbb2d06760c88304203ef3ebd8b2919b8baa4a51e7a1"),
    ],
)
def test_sweep_stream_is_pinned_in_generation_order(connected, twin_free, expected):
    # byte identity of the (n, weight, cn) stream as it is yielded, against
    # digests of the reference implementation: unlike the sorted canonical
    # forms above, these see each class's representative labeling and the
    # order of the walk
    h = hashlib.sha256()
    for item in _sweep(1, 7, connected, twin_free):
        h.update(repr(item).encode())
    assert h.hexdigest() == expected
