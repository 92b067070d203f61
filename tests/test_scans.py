"""Exhaustive scan engine at small sizes: the isomorph-free sweep against
the labeled one, zero counterexamples, count bookkeeping, kernel agreement with
the certified checkers, and caps."""

import functools
import itertools
import math
import random
import time
from collections import Counter

import pytest

import brute
from idcodes import codes, scans
from idcodes.classify import classify_extremal
from idcodes.graph import (
    Graph,
    _balls,
    canonical_form,
    graph_from_edge_mask,
)
from idcodes.scans import (
    ScanReport,
    _entry,
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
    for n, emask, weight, cn in _sweep(1, 6, connected, twin_free):
        assert tuple(cn) == graph_from_edge_mask(n, emask)._cn
        orbit = _relabelings(n, emask)
        assert len(orbit) == weight
        assert not orbit & claimed[n]
        claimed[n] |= orbit
    assert claimed == labeled
    assert {n for n, *_ in _sweep(3, 4, connected, twin_free)} == {3, 4}


def test_sweep_class_counts_and_weights_to_eight_vertices():
    # OEIS A000088 (all graphs) and A001349 (connected graphs); the
    # weights of each order add up to the 2^C(n,2) labeled graphs
    classes, connected, labeled = Counter(), Counter(), Counter()
    for n, emask, weight, cn in _sweep(1, 8):
        classes[n] += 1
        labeled[n] += weight
        g = graph_from_edge_mask(n, emask)
        connected[n] += _naive_connected(g)
    assert [classes[n] for n in range(1, 9)] == [1, 2, 4, 11, 34, 156, 1044, 12346]
    assert [connected[n] for n in range(1, 9)] == [1, 1, 2, 6, 21, 112, 853, 11117]
    assert all(labeled[n] == 2 ** (n * (n - 1) // 2) for n in range(1, 9))


def test_sweep_streams_classes_depth_first():
    # the walk holds no level of classes: the first classes on nine
    # vertices (274,668 in all, over 30 s to generate) arrive at once,
    # each as its canonical representative
    start = time.process_time()
    first = list(itertools.islice(_sweep(9, 9), 100))
    assert time.process_time() - start < 1.0
    assert len({emask for _, emask, _, _ in first}) == 100
    for n, emask, _, _ in first:
        assert n == 9 and canonical_form(graph_from_edge_mask(9, emask)) == emask


def test_automorphism_orders_match_brute_force():
    # every class on at most six vertices: weight = n!/|Aut|, with |Aut|
    # counted over all vertex permutations
    for n, emask, weight, _ in _sweep(1, 6):
        g = graph_from_edge_mask(n, emask)
        assert weight * brute.automorphism_count(g) == math.factorial(n)


def test_counterexamples_are_one_entry_per_class_with_its_labelings(monkeypatch):
    # a brute-force level that never calls a graph extremal disagrees with
    # the classifier on every extremal graph; each class is reported once
    monkeypatch.setattr(scans, "_gamma_id_level", lambda cn, n: 1)
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


def test_entry_lists_the_edges_of_its_mask():
    for emask in range(1 << 10):
        entry = _entry(5, emask, 3, reason="x")
        edges = [list(e) for e in graph_from_edge_mask(5, emask).edges()]
        assert entry == {"n": 5, "edge_mask": emask, "edges": edges, "labelings": 3, "reason": "x"}


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
        g = Graph(n, [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.5])
        for radius in (1, 2):
            balls = _balls(g, radius)
            for _ in range(4):
                c = rng.randrange(1 << n)
                subset = [v for v in range(n) if c >> v & 1]
                for kind, ok in kernels.items():
                    assert ok(balls, c) == codes.check_code(g, subset, kind, radius).valid


def test_extremal_scan_small():
    report = scan_extremal_classification(5)
    assert report.ok
    # labeled counts cross-checked against the naive all-subsets oracle
    assert report.details["connected_twin_free_per_n"] == {2: 0, 3: 3, 4: 19, 5: 462}
    # extremal: all 3-path labelings; everything on four vertices; on five,
    # 5 stars + 60 band-2-plus-universal + 15 complete-minus-matching
    assert report.details["extremal_per_n"] == {2: 0, 3: 3, 4: 19, 5: 80}
    assert report.details["graphs_needing_all_vertices"] == 0


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
    with pytest.raises(ValueError, match="radius"):
        scan_removable_vertex(3, radii=(1, 0))


def test_removable_vertex_scan_rejects_a_repeated_radius():
    # a repeated radius would count each graph twice per radius and list
    # each counterexample twice
    for radii in ((1, 1), (2, 1, 2)):
        with pytest.raises(ValueError, match="distinct"):
            scan_removable_vertex(3, radii=radii)
    # distinct radii in any order count as the default pair does
    report = scan_removable_vertex(3, radii=(2, 1))
    default = scan_removable_vertex(3)
    assert report.details["per_radius_checked"] == default.details["per_radius_checked"]
    assert report.graphs_checked == default.graphs_checked


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

    def flipped(bg):
        holders = real(bg)
        for u in range(bg.n // 2, bg.n):
            holders[u] ^= 1
        return holders

    monkeypatch.setattr(codes, "_holders", flipped)
    report = scan_gamma_chain(4)
    classes = [(n, emask) for n, emask, _, _ in _sweep(1, 4, twin_free=True)]
    entries = report.counterexamples
    assert [(c["n"], c["edge_mask"]) for c in entries] == sorted(classes)
    assert all(c["reason"] == "bridge" and c["vertex"] == c["n"] // 2 for c in entries)
    twin_free = [g for n in range(1, 5) for g in brute.labeled_graphs(n) if _naive_twin_free(g)]
    assert sum(c["labelings"] for c in entries) == len(twin_free)


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


def test_scan_caps_enforced():
    # one cap for all seven scans; the refusal is raised before any sweep
    for name, scan in scans.THEOREM_SCANS.items():
        with pytest.raises(ValueError, match=f"scan {name!r} is capped at n <= 8 "):
            scan(9)


def test_scan_report_shape():
    report = scan_extremal_classification(3)
    d = report.to_dict()
    assert d["ok"] is True and d["counterexamples"] == []
    assert d["scan"] == "thm12" and d["max_n"] == 3
    bad = ScanReport("x", 3)
    bad.counterexamples.append({"n": 3, "edge_mask": 5, "edges": []})
    assert not bad.ok
