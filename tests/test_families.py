"""Family generators: band graphs, stars, join families, complete-minus-
matching, the square-root fixture, and their structural guarantees."""

import re

import pytest

import brute
from idcodes.families import (
    FamilySpec,
    band5_square_root,
    band_graph,
    complete_bipartite_graph,
    complete_graph,
    complete_minus_matching,
    cycle_graph,
    join_family,
    join_family_plus_universal,
    make_family,
    parse_family_spec,
    path_graph,
    petersen_graph,
    star_graph,
)
from idcodes.graph import Graph, find_isomorphism, is_connected, is_twin_free, power
from idcodes.solve import enumerate_minimum_separating_sets, solve_minimum


def test_band_graph_small_orders():
    assert band_graph(1) == Graph(2)
    assert band_graph(2) == path_graph(4)
    g3 = band_graph(3)
    assert g3.n == 6
    assert g3.degrees() == [2, 3, 4, 4, 3, 2]
    with pytest.raises(ValueError):
        band_graph(0)


def test_band_graph_edge_rule():
    for k in (2, 3, 4, 5):
        g = band_graph(k)
        for i in range(g.n):
            for j in range(i + 1, g.n):
                assert g.has_edge(i, j) == (j - i <= k - 1)


def test_band_graphs_twin_free():
    for k in range(1, 7):
        assert is_twin_free(band_graph(k))


def test_star_graph():
    g = star_graph(4)
    assert g.degrees() == [4, 1, 1, 1, 1]
    assert find_isomorphism(g, complete_bipartite_graph(1, 4)) is not None


def test_join_family_constructions():
    assert find_isomorphism(join_family([1, 1]), cycle_graph(4)) is not None
    assert join_family([2]).n == 4
    plus = join_family_plus_universal([2])
    assert plus.n == 5
    assert plus.degree(4) == 4  # the universal vertex comes last
    assert max(plus.degrees()) == 4


def test_complete_minus_matching():
    assert complete_minus_matching(6) == join_family([1, 1, 1])
    # even case drops a perfect matching from the complete graph
    g = complete_minus_matching(6)
    assert g.edge_count == 15 - 3
    for u, v in [(0, 1), (2, 3), (4, 5)]:
        assert not g.has_edge(u, v)
    # odd case: even construction plus a universal vertex
    g7 = complete_minus_matching(7)
    assert g7.edge_count == 21 - 3
    assert find_isomorphism(complete_minus_matching(3), path_graph(3)) is not None
    assert complete_minus_matching(2) == Graph(2)


def test_family_spec_validation_and_round_trip():
    # each variant at its least parameter, one above it and one larger, a
    # three-factor join among them: the spec string parses back to the
    # spec, and the vertex count known before building is the member's
    for text in [
        *("A:1", "A:2", "A:3"),
        *("star:2", "star:3", "star:4"),
        *("join:1", "join:2", "join:1,2", "join:1,2,3"),
        *("join:1+u", "join:2+u", "join:2,2+u"),
        *("KminusM:2", "KminusM:3", "KminusM:6"),
    ]:
        spec = parse_family_spec(text)
        assert spec.spec_string() == text
        assert parse_family_spec(spec.spec_string()) == spec
        assert spec.order == make_family(spec).n
    with pytest.raises(ValueError):
        parse_family_spec("banana:3")
    with pytest.raises(ValueError):
        parse_family_spec("join:")
    with pytest.raises(ValueError):
        FamilySpec("join", ())
    with pytest.raises(ValueError, match="^unknown family variant 'bogus'$"):
        FamilySpec("bogus", (1,))
    # the generators refuse on their own, without a spec
    with pytest.raises(ValueError, match="^star needs at least one leaf$"):
        star_graph(0)
    with pytest.raises(ValueError, match="^join factor list must be non-empty$"):
        join_family([])
    with pytest.raises(ValueError, match="^complete-minus-matching needs n >= 2$"):
        complete_minus_matching(1)


@pytest.mark.parametrize(
    "text, variant, below, message",
    [
        ("A:0", "A", 0, "band graph order must be a single integer >= 1"),
        ("star:1", "star", 1, "star leaf count must be a single integer >= 2"),
        ("join:0", "join", 0, "join factor list must be non-empty with entries >= 1"),
        ("join:0+u", "join+u", 0, "join factor list must be non-empty with entries >= 1"),
        ("KminusM:1", "KminusM", 1, "complete-minus-matching order must be >= 2"),
    ],
)
def test_family_refusal_one_below_the_least_parameter(text, variant, below, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_family_spec(text)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FamilySpec(variant, (below,))


@pytest.mark.parametrize("variant,params", [("A", (2.5,)), ("A", (True,)), ("join", (1, 2.0)), ("star", ("3",))])
def test_family_spec_refuses_parameters_that_are_not_integers(variant, params):
    # a library caller's float or bool is refused by the spec itself, not by
    # the builder later (2.5 gave order 5.0 and a TypeError in band_graph)
    # nor taken as an integer (True printed as A:True and built A_1)
    bad = next(x for x in params if type(x) is not int)
    with pytest.raises(ValueError, match=f"^family parameter {re.escape(repr(bad))} is not an integer$"):
        FamilySpec(variant, params)


def test_family_spec_above_vertex_cap_is_rejected_before_building(monkeypatch):
    import idcodes.families
    import idcodes.graph

    def refuse(n, edges=()):
        raise AssertionError(f"Graph({n}, ...) was built for a family spec")

    monkeypatch.setattr(idcodes.graph, "Graph", refuse)
    monkeypatch.setattr(idcodes.families, "Graph", refuse)
    # one vertex over the cap in each variant: 2k, t + 1, 2 * sum, 2 * sum + 1, n
    for text in ["A:8193", "star:16384", "join:4096,4097", "join:8192+u", "KminusM:16385", "star:100000000"]:
        with pytest.raises(ValueError, match="the limit is 16384"):
            parse_family_spec(text)
    for text in ["A:8192", "star:16383", "join:4096,4096", "join:4095,4096+u", "KminusM:16384"]:
        parse_family_spec(text)


def test_square_root_fixture():
    fix = band5_square_root()
    assert fix.n == 10
    assert fix.edge_count == 16
    assert power(fix, 2) == band_graph(5)
    # a chord joining path positions three apart rules out being a
    # subgraph of the squared path
    assert any(abs(u - v) > 2 for u, v in fix.edges())


def test_join_family_minima_are_order_minus_one():
    for ks in ([1, 1], [2], [1, 2], [3], [1, 1, 1], [2, 2]):
        g = join_family(ks)
        if g.n == 2:
            continue  # the single order-1 block is the disconnected pair
        assert solve_minimum(g, "identifying").minimum == g.n - 1


def test_join_family_plus_universal_minima():
    for ks in ([1], [2], [1, 1]):
        g = join_family_plus_universal(ks)
        assert solve_minimum(g, "identifying").minimum == g.n - 1


def test_minimum_separating_sets_have_universal_vertex():
    for ks in ([1, 1], [2], [1, 2]):
        g = join_family(ks)
        for s in enumerate_minimum_separating_sets(g):
            assert any(s <= brute.naive_ball(g, x, 1) for x in range(g.n))


def test_family_max_degree_is_order_minus_two():
    for ks in ([1, 1], [2], [1, 2], [3]):
        g = join_family(ks)
        assert g.max_degree() == g.n - 2


def test_standard_graphs():
    assert cycle_graph(5).degrees() == [2] * 5
    assert complete_graph(4).edge_count == 6
    p = petersen_graph()
    assert p.n == 10 and p.degrees() == [3] * 10 and is_connected(p)
    assert is_twin_free(p)
    with pytest.raises(ValueError):
        cycle_graph(2)
