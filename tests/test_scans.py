"""Exhaustive scan engine at small sizes: zero counterexamples, count
bookkeeping, kernel agreement with the certified checkers, and caps."""

import itertools
import random

import pytest

from idcodes import codes, solve
from idcodes.graph import Graph, _balls
from idcodes.scans import (
    ScanReport,
    scan_conjectured_degree_bound,
    scan_extremal_classification,
    scan_gamma_chain,
    scan_locating_dominating,
    scan_low_degree,
    scan_regular_odd,
    scan_removable_vertex,
)


def test_kernels_agree_with_certified_checkers():
    # every solve kernel, which the scans and the bound pipelines call,
    # against the certifying checker of the same kind
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randrange(1, 8)
        g = Graph(n, [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.5])
        for radius in (1, 2):
            balls = _balls(g._cn, radius)
            for _ in range(4):
                c = rng.randrange(1 << n)
                subset = [v for v in range(n) if c >> v & 1]
                for kind, ok in solve._CHECKS.items():
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


def test_gamma_chain_scan_small():
    report = scan_gamma_chain(4)
    assert report.ok
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
