"""Structural extremality classification: band-graph recognition, the
complement decomposition, and exhaustive agreement with brute force."""

import itertools
import random

import pytest

import brute
from idcodes.classify import (
    JOIN_FAMILY,
    JOIN_FAMILY_UNIVERSAL,
    NOT_EXTREMAL,
    STAR,
    _band_factor,
    _classify_masks,
    classify_extremal,
    recognize_band_graph,
)
from idcodes.families import (
    band_graph,
    complete_graph,
    complete_minus_matching,
    cycle_graph,
    join_family,
    join_family_plus_universal,
    make_family,
    path_graph,
    petersen_graph,
    star_graph,
)
from idcodes.graph import (
    Graph,
    PreconditionError,
    TwinsError,
    find_isomorphism,
    graph_from_edge_mask,
    is_connected,
    is_twin_free,
    twin_pairs,
)
from idcodes.solve import solve_minimum


def relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_recognize_band_graph_round_trip():
    for k in range(1, 6):
        assert recognize_band_graph(band_graph(k)) == k


def test_recognize_band_graph_on_relabelings():
    for k in (2, 3):
        g = band_graph(k)
        n = g.n
        for perm in itertools.permutations(range(n)):
            relabeled = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert recognize_band_graph(relabeled) == k


def test_recognize_band_graph_matches_isomorphism_oracle():
    # every labeled graph on 2, 4 or 6 vertices with the degree sequence of B_k
    for k in (1, 2, 3):
        band = band_graph(k)
        target = sorted(band.degrees())
        for g in filter(lambda h: sorted(h.degrees()) == target, brute.labeled_graphs(2 * k)):
            expected = k if brute.backtrack_isomorphism(g, band) is not None else None
            assert recognize_band_graph(g) == expected


def test_band_factor_on_every_even_vertex_subset_matches_isomorphism_oracle():
    # the classifier calls _band_factor on complement components, not whole
    # graphs: every graph on 2, 4 or 6 vertices is placed on every vertex
    # subset of a 6-vertex host, once with no other edge and once with
    # every edge that has an end outside the subset, which _band_factor
    # must ignore; so every input it can read on at most 6 vertices is met
    full = (1 << 6) - 1
    found = 0
    for k in (1, 2, 3):
        band = band_graph(k)
        for h in brute.labeled_graphs(2 * k):
            expected = k if brute.backtrack_isomorphism(h, band) is not None else None
            found += expected is not None
            for vs in itertools.combinations(range(6), 2 * k):
                comp = sum(1 << v for v in vs)
                for outside in (0, full ^ comp):
                    cn = [1 << v | (full if outside >> v & 1 else outside) for v in range(6)]
                    for u, v in h.edges():
                        cn[vs[u]] |= 1 << vs[v]
                        cn[vs[v]] |= 1 << vs[u]
                    assert _band_factor(tuple(cn), comp) == expected, (h.edges(), vs, outside)
    # labeled copies of B_1, B_2 (the 4-path) and B_3: 1 + 12 + 360
    assert found == 1 + 12 + 360


def test_recognize_band_graph_on_seeded_relabelings():
    rng = random.Random(20100426)
    for k in range(1, 9):
        for _ in range(10):
            assert recognize_band_graph(relabel(band_graph(k), rng)) == k


def test_recognize_band_graph_on_double_edge_swaps():
    rng = random.Random(1004)
    for k in (4, 5, 6):
        band = band_graph(k)
        checked = 0
        while checked < 20:
            edges = set(band.edges())
            (a, b), (c, d) = rng.sample(sorted(edges), 2)
            if rng.random() < 0.5:
                c, d = d, c
            new = {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
            if len({a, b, c, d}) < 4 or new & edges:
                continue
            g = relabel(Graph(band.n, edges - {(a, b), (c, d)} | new), rng)
            expected = k if brute.backtrack_isomorphism(g, band) is not None else None
            assert recognize_band_graph(g) == expected
            checked += 1


def test_recognize_band_graph_rejections():
    assert recognize_band_graph(path_graph(4)) == 2  # the 4-path is the order-2 band
    assert recognize_band_graph(cycle_graph(4)) is None
    assert recognize_band_graph(complete_graph(4)) is None
    assert recognize_band_graph(path_graph(5)) is None
    assert recognize_band_graph(star_graph(3)) is None
    assert recognize_band_graph(cycle_graph(6)) is None


def test_classify_examples():
    assert classify_extremal(star_graph(5)).outcome == STAR
    assert classify_extremal(star_graph(5)).star_t == 5
    c4 = classify_extremal(cycle_graph(4))
    assert c4.outcome == JOIN_FAMILY and c4.factors == (1, 1)
    assert c4.implied_gamma_id == 3
    plus = classify_extremal(join_family_plus_universal([3]))
    assert plus.outcome == JOIN_FAMILY_UNIVERSAL and plus.factors == (3,)
    p5 = classify_extremal(path_graph(5))
    assert p5.outcome == NOT_EXTREMAL and p5.implied_gamma_id is None
    assert not p5.is_extremal


def test_two_leaf_star_prefers_star_outcome():
    # the 3-path is both a star and a join-family-plus-universal member
    result = classify_extremal(path_graph(3))
    assert result.outcome == STAR and result.star_t == 2


def test_classify_band_graph_directly():
    for k in (2, 3):
        result = classify_extremal(band_graph(k))
        assert result.outcome == JOIN_FAMILY and result.factors == (k,)


def test_complete_minus_matching_classifies_as_all_ones():
    even = classify_extremal(complete_minus_matching(6))
    assert even.outcome == JOIN_FAMILY and even.factors == (1, 1, 1)
    odd = classify_extremal(complete_minus_matching(7))
    assert odd.outcome == JOIN_FAMILY_UNIVERSAL and odd.factors == (1, 1, 1)


def test_classify_preconditions():
    with pytest.raises(PreconditionError, match="^classification needs at least 2 vertices$"):
        classify_extremal(Graph(1))
    with pytest.raises(
        PreconditionError, match="^classification is defined for connected graphs only$"
    ):
        classify_extremal(band_graph(1))  # disconnected
    with pytest.raises(
        TwinsError, match="^vertices 0 and 1 are twins; no identifying code exists$"
    ):
        classify_extremal(complete_graph(3))
    # twins {2, 5} and {3, 4}: the reported pair is the first of twin_pairs
    g = Graph(6, [(0, 1), (1, 2), (1, 5), (2, 5), (0, 3), (0, 4), (3, 4)])
    assert twin_pairs(g) == [(2, 5), (3, 4)]
    with pytest.raises(TwinsError, match="^vertices 2 and 5 are twins") as exc:
        classify_extremal(g)
    assert exc.value.pair == (2, 5)


def test_band_degree_sequence_impostor_beyond_twelve_vertices():
    # band_graph(7) with (0,1),(8,9) swapped for (0,9),(1,8)
    edges = set(band_graph(7).edges()) - {(0, 1), (8, 9)} | {(0, 9), (1, 8)}
    g = Graph(14, sorted(edges))
    assert is_connected(g) and is_twin_free(g)
    assert sorted(g.degrees()) == sorted(band_graph(7).degrees())
    assert recognize_band_graph(g) is None
    assert classify_extremal(g).outcome == NOT_EXTREMAL
    assert solve_minimum(g, "identifying").minimum == 9


def family_members(n_range):
    """(spec, outcome, factors, star_t) for family members with n in range."""
    for n in n_range:
        suffix, outcome = ("+u", JOIN_FAMILY_UNIVERSAL) if n % 2 else ("", JOIN_FAMILY)
        for ks in brute.partitions(n // 2):
            yield "join:" + ",".join(map(str, ks)) + suffix, outcome, tuple(sorted(ks)), None
        yield f"star:{n - 1}", STAR, (), n - 1
        yield f"KminusM:{n}", outcome, (1,) * (n // 2), None


def test_classify_relabeled_family_members_n8_to_12():
    rng = random.Random(5230)
    for text, outcome, factors, star_t in family_members(range(8, 13)):
        g = make_family(parse_spec(text))
        for _ in range(3):
            result = classify_extremal(relabel(g, rng))
            assert (result.outcome, result.factors, result.star_t) == (outcome, factors, star_t)
            assert result.implied_gamma_id == g.n - 1


def test_classify_one_edge_perturbations_against_brute_force():
    rng = random.Random(12)
    checked = 0
    for text, _, _, _ in family_members(range(8, 11)):
        g = make_family(parse_spec(text))
        u, v = rng.sample(range(g.n), 2)
        edges = set(g.edges()) ^ {(min(u, v), max(u, v))}
        h = relabel(Graph(g.n, edges), rng)
        if not (is_connected(h) and is_twin_free(h)):
            continue
        checked += 1
        expected = brute.naive_minimum(h, "identifying")[0] == h.n - 1
        assert classify_extremal(h).is_extremal == expected
    assert checked >= 10


def test_reconstruction_is_isomorphic_to_input():
    specs = ["star:4", "join:1,1", "join:2", "join:1,2", "join:2+u", "join:1,1+u", "A:3"]
    from idcodes.families import parse_family_spec

    for text in specs:
        g = make_family(parse_family_spec(text))
        result = classify_extremal(g)
        assert result.is_extremal
        rebuilt = make_family(result.family_spec())
        assert find_isomorphism(g, rebuilt) is not None
    assert classify_extremal(path_graph(5)).family_spec() is None


def test_factors_sorted_ascending():
    g = make_family(parse_spec("join:3,1,2"))
    assert classify_extremal(g).factors == (1, 2, 3)


def parse_spec(text):
    from idcodes.families import parse_family_spec

    return parse_family_spec(text)


def test_classification_matches_oracle_exhaustively_n5():
    # extremal exactly when the brute-force minimum is n - 1
    for n in (2, 3, 4, 5):
        for g in filter(lambda h: is_connected(h) and is_twin_free(h), brute.labeled_graphs(n)):
            expected = brute.naive_minimum(g, "identifying")[0] == g.n - 1
            assert classify_extremal(g).is_extremal == expected


def test_mask_level_entry_matches_classify_extremal():
    # the scans' entry skips the preconditions they have already filtered on
    count = 0
    for n, emask, _ in brute.labeled_sweep(2, 6, connected=True, twin_free=True):
        g = graph_from_edge_mask(n, emask)
        assert _classify_masks(g._cn) == classify_extremal(g)
        count += 1
    assert count == 3 + 19 + 462 + 18268


def test_low_degree_graphs_never_extremal_n5():
    for n in (3, 4, 5):
        for g in filter(lambda h: is_connected(h) and is_twin_free(h), brute.labeled_graphs(n)):
            if g.max_degree() <= g.n - 3:
                assert classify_extremal(g).outcome == NOT_EXTREMAL
                assert brute.naive_minimum(g, "identifying")[0] <= g.n - 2


def test_to_dict_above_the_input_vertex_cap():
    # the cap guards outside input; a classified library graph still reports its spec
    d = classify_extremal(star_graph(16384)).to_dict()
    assert d["outcome"] == STAR and d["family_spec"] == "star:16384"


def test_petersen_not_extremal():
    assert classify_extremal(petersen_graph()).outcome == NOT_EXTREMAL


def test_to_dict():
    d = classify_extremal(cycle_graph(4)).to_dict()
    assert d == {
        "outcome": "join-family",
        "star_t": None,
        "factors": [1, 1],
        "implied_gamma_id": 3,
        "family_spec": "join:1,1",
    }
