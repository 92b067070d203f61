"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance here is exact; the exhaustive checks cover all graphs up to
the stated vertex counts, one isomorphism class at a time, and count them as
labeled graphs (run with ``pytest -s`` to watch the per-criterion lines).
"""

import itertools
import math
from fractions import Fraction

import brute
from randgraphs import random_bounded_degree_graph
from idcodes.bound import constructive_upper_bound, regular_constructive_bound
from idcodes.codes import is_identifying
from idcodes.families import (
    band5_square_root,
    band_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from idcodes.graph import (
    PreconditionError,
    is_twin_free,
    join,
    power,
)
from idcodes.scans import (
    scan_conjectured_degree_bound,
    scan_extremal_classification,
    scan_gamma_chain,
    scan_locating_dominating,
    scan_low_degree,
    scan_regular_odd,
    scan_removable_vertex,
)
from idcodes.solve import enumerate_minimum_separating_sets, solve_minimum


def _criterion(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d}: {detail}")
    assert ok, f"criterion {number:02d} failed: {detail}"


def test_c01_band_graph_exact_minima():
    ok = True
    for k in range(2, 6):
        g = band_graph(k)
        ok &= solve_minimum(g, "separating").minimum == 2 * k - 1
        ok &= solve_minimum(g, "identifying").minimum == 2 * k - 1
    for k in range(2, 5):
        g = band_graph(k)
        expected = sorted(
            [brute.naive_ball(g, k - 1, 1), brute.naive_ball(g, k, 1)], key=sorted
        )
        ok &= enumerate_minimum_separating_sets(g) == expected
    _criterion(1, ok, "band graphs: both minima 2k-1; the two middle balls are the only minimum separating sets")


def test_c02_star_minima():
    ok = all(solve_minimum(star_graph(t), "identifying").minimum == t for t in range(2, 7))
    _criterion(2, ok, "stars with t leaves need exactly t code vertices (t = 2..6)")


def test_c03_extremal_classification_equivalence():
    report = scan_extremal_classification(7)
    _criterion(
        3,
        report.ok,
        f"classifier == brute force on all {report.graphs_checked} connected twin-free graphs, n <= 7",
    )


def test_c04_low_degree_never_extremal():
    report = scan_low_degree(7)
    _criterion(
        4,
        report.ok,
        f"max degree <= n-3 forces a code missing two vertices ({report.graphs_checked} graphs, n <= 7)",
    )


def test_c05_regular_and_odd_extremal_structure():
    report = scan_regular_odd(7)
    _criterion(
        5,
        report.ok,
        "regular extremal graphs are complete-minus-matching; odd-order extremal graphs have a universal vertex (n <= 7)",
    )


def test_c06_join_additivity():
    ok = True
    for j, k in itertools.product(range(1, 4), repeat=2):
        g = join(band_graph(j), band_graph(k))
        ok &= is_twin_free(g)
        ok &= solve_minimum(g, "separating").minimum == (2 * j - 1) + (2 * k - 1) + 1
    _criterion(6, ok, "separating minima add plus one under joins of band graphs (orders <= 3)")


def test_c07_removable_vertex_totality():
    report = scan_removable_vertex(7, radii=(1, 2))
    _criterion(
        7,
        report.ok,
        f"a removable vertex exists in every ball, radii 1 and 2 ({report.graphs_checked} graphs, n <= 7)",
    )


def test_c08_distance_three_pair_is_sharp():
    g = path_graph(4)
    rejected = False
    try:
        from idcodes.bound import code_from_independent_set

        code_from_independent_set(g, [0, 3])
    except PreconditionError:
        rejected = True
    invalid = not is_identifying(g, {1, 2}).valid
    _criterion(
        8,
        rejected and invalid,
        "the two path ends at distance three are rejected, and their complement really fails to identify",
    )


def test_c09_constructive_pipelines():
    ok = True
    graphs = [random_bounded_degree_graph(seed) for seed in range(20)]
    graphs += [cycle_graph(9), cycle_graph(50), petersen_graph()]
    for g in graphs:
        delta = g.max_degree()
        report = constructive_upper_bound(g)
        ok &= is_identifying(g, report.code).valid
        if delta >= 3:
            limit = math.ceil(g.n * (1 - Fraction(delta - 2, delta * (delta - 1) ** 5 - 2)))
            ok &= len(report.code) <= limit
        if len(set(g.degrees())) == 1:
            reg = regular_constructive_bound(g)
            ok &= is_identifying(g, reg.code).valid
            if delta >= 3:
                reg_limit = math.ceil(g.n * (1 - Fraction(1, 1 + delta - delta**2 + delta**3)))
                ok &= len(reg.code) <= reg_limit
    _criterion(
        9,
        ok,
        "pipeline codes verify on 20 seeded graphs plus both cycles and the Petersen graph, within the degree ceilings",
    )


def test_c10_square_root_fixture():
    fix = band5_square_root()
    ok = power(fix, 2) == band_graph(5)
    ok &= any(abs(u - v) > 2 for u, v in fix.edges())
    gamma2 = solve_minimum(fix, "identifying", 2).minimum
    gamma_band = solve_minimum(band_graph(5), "identifying").minimum
    ok &= gamma2 == 9 == gamma_band
    _criterion(
        10,
        ok,
        "the chorded fixture squares to the order-5 band graph and needs 9 vertices at radius 2",
    )


def test_c11_chain_and_membership_bridge():
    report = scan_gamma_chain(7)
    _criterion(
        11,
        report.ok,
        f"separating/identifying minima differ by at most one and the membership bridge holds "
        f"({report.graphs_checked} twin-free graphs, {report.details['bridge_checks']} bridge checks, n <= 7)",
    )


def test_c12_locating_dominating_extremal():
    report = scan_locating_dominating(7)
    _criterion(
        12,
        report.ok,
        f"locating-domination needs n-1 vertices exactly for stars and complete graphs "
        f"({report.graphs_checked} connected graphs, n <= 7)",
    )


def test_c13_conjectured_degree_bound():
    report = scan_conjectured_degree_bound(7)
    _criterion(
        13,
        report.ok,
        f"no counterexample to the ceil(n - n/D) ceiling, D >= 3 ({report.graphs_checked} graphs, n <= 7)",
    )
