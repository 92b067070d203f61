"""Exhaustive scan engine at small sizes: the sweep against plain
enumeration, zero counterexamples, count bookkeeping, kernel agreement with
the certified checkers, and caps."""

import itertools
import random

import pytest

import brute
from idcodes import codes, solve
from idcodes.graph import Graph, _balls, edge_mask_of, enumerate_graphs, graph_from_edge_mask
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


@pytest.mark.parametrize("connected,twin_free", [(False, False), (True, True), (False, True), (True, False)])
def test_sweep_matches_filtered_enumeration(connected, twin_free):
    # every filter pair the scans use, plus none, against plain enumeration
    # filtered by the brute-force connectivity and twin oracles
    def keep(g):
        return (not connected or _naive_connected(g)) and (not twin_free or _naive_twin_free(g))

    swept: dict[int, list[int]] = {n: [] for n in range(1, 6)}
    for n, emask, cn in _sweep(1, 5, connected, twin_free):
        assert tuple(cn) == graph_from_edge_mask(n, emask)._cn
        swept[n].append(emask)
    for n, masks in swept.items():
        assert len(set(masks)) == len(masks)
        assert sorted(masks) == [edge_mask_of(g) for g in enumerate_graphs(n, keep)]


def test_entry_lists_the_edges_of_its_mask():
    for emask in range(1 << 10):
        entry = _entry(5, emask, reason="x")
        edges = [list(e) for e in graph_from_edge_mask(5, emask).edges()]
        assert entry == {"n": 5, "edge_mask": emask, "edges": edges, "reason": "x"}


def test_kernels_agree_with_certified_checkers():
    # every solve kernel, which the scans and the bound pipelines call,
    # against the certifying checker of the same kind
    kernels = {
        "identifying": solve._identifying_ok,
        "separating": solve._separating_ok,
        "locating-dominating": solve._locating_dominating_ok,
    }
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randrange(1, 8)
        g = Graph(n, [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.5])
        for radius in (1, 2):
            balls = _balls(g._cn, radius)
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


def test_low_degree_scan_small():
    assert scan_low_degree(5).ok


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
            for g in enumerate_graphs(n)
        )
        assert report.details["per_radius_checked"][r] == expected
    with pytest.raises(ValueError, match="radius"):
        scan_removable_vertex(3, radii=(1, 0))


def test_gamma_chain_scan_small():
    report = scan_gamma_chain(4)
    assert report.ok
    assert report.graphs_checked == sum(_naive_twin_free(g) for n in range(1, 5) for g in enumerate_graphs(n))
    assert report.details["bridge_checks"] > 0


def test_locating_dominating_scan_small():
    report = scan_locating_dominating(4)
    assert report.ok
    # stars and complete graphs on 2..4 vertices, counted with labels:
    # n=2: 1; n=3: 3 + 1; n=4: 4 + 1
    assert report.details["extremal_seen"] == 1 + 4 + 5


def test_conjecture_scan_small():
    assert scan_conjectured_degree_bound(5).ok


def test_scan_caps_enforced():
    with pytest.raises(ValueError):
        scan_extremal_classification(8)
    with pytest.raises(ValueError):
        scan_gamma_chain(7)
    with pytest.raises(ValueError):
        scan_locating_dominating(9)


def test_scan_report_shape():
    report = scan_extremal_classification(3)
    d = report.to_dict()
    assert d["ok"] is True and d["counterexamples"] == []
    assert d["scan"] == "thm12" and d["max_n"] == 3
    bad = ScanReport("x", 3)
    bad.counterexamples.append({"n": 3, "edge_mask": 5, "edges": []})
    assert not bad.ok
