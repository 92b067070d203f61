"""Core graph model: balls and distances (one table-driven comparison of
the one BFS with the dict-based oracle), powers, twins, join, complement,
enumeration, isomorphism and the edge-list format."""

import hashlib
import itertools
import math
import random
import time
from collections import Counter

import pytest

import brute
from randgraphs import gnp_edges, random_blob_ring, random_sparse_graph
from idcodes import cli, graph
from idcodes.families import (
    band5_square_root,
    band_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from idcodes.graph import (
    INPUT_VERTEX_CAP,
    Graph,
    canonical_form,
    complement,
    find_isomorphism,
    format_edge_list,
    graph_from_edge_mask,
    induced_subgraph,
    is_connected,
    is_twin_free,
    join,
    parse_edge_list,
    power,
    twin_pairs,
)
from idcodes.scans import _sweep


def ball(g, x, r):
    """B_r(x) by the package's one BFS."""
    return set(graph._bit_indices(graph._reach(g._cn, 1 << x, radius=r)))


def naive_components(g):
    """Components of g by dict BFS, each from its least vertex, in order."""
    adj, components, placed = brute.adjacency(g), [], set()
    for x in range(g.n):
        if x not in placed:
            components.append(brute.adjacency_ball(adj, x, -1))
            placed |= components[-1]
    return components


def distances(g, x):
    """Distance from x to each vertex, None where unreachable: the least
    radius whose ball holds it."""
    dist = [None] * g.n
    for d in range(g.n):
        for v in ball(g, x, d):
            if dist[v] is None:
                dist[v] = d
    return dist


def test_graph_construction_and_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.edge_count == 3
    assert g.neighbors(1) == [0, 2]
    assert g.degree(0) == 1 and g.degree(1) == 2
    assert g.max_degree() == 2
    assert g.has_edge(1, 2) and not g.has_edge(0, 3)


def test_graph_repr_shows_at_most_eight_edges():
    assert repr(Graph(0)) == "Graph(n=0, m=0, edges=[])"
    assert repr(cycle_graph(8)) == (
        "Graph(n=8, m=8, edges=[(0, 1), (0, 7), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)])"
    )
    assert repr(petersen_graph()) == (
        "Graph(n=10, m=15, edges=[(0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 4), ...])"
    )


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_max_degree_agrees_across_construction_routes():
    # Graph(n, edges) answers from its closed-neighbour lists, a graph
    # built from masks from the masks until _balls fills its lists; every
    # route gives the largest degree counted from the edge list
    rng = random.Random(1013)
    for n in (0, 1, 2, 5, 9, 70):
        for p in (0.0, 0.2, 0.6, 1.0):
            edges = gnp_edges(rng, n, p)
            degree = [0] * n
            for u, v in edges:  # distinct pairs, so a plain count
                degree[u] += 1
                degree[v] += 1
            expected = max(degree, default=0)
            repeated = Graph(n, edges + [(v, u) for u, v in edges] + edges[::3])
            masked = Graph._from_masks(Graph(n, edges)._cn)
            assert masked._adj is None
            routes = [Graph(n, edges), repeated, masked]
            assert [g.max_degree() for g in routes] == [expected] * 3, (n, p)
            graph._balls(masked, 2)  # fills the lists of the mask-built graph
            assert masked._adj is not None and masked.max_degree() == expected


def test_closed_ball_band_graphs():
    # ball of the first vertex in the order-2 band graph (the 4-path)
    assert ball(band_graph(2), 0, 1) == {0, 1}
    # ball of radius zero
    assert ball(band_graph(2), 3, 0) == {3}
    # middle vertex of the order-3 band graph reaches five vertices
    assert ball(band_graph(3), 2, 1) == {0, 1, 2, 3, 4}


def _check_balls(graphs, radii) -> None:
    """Check one row (graphs, radii) of the BFS's oracle table: every ball
    of the row's radii, and every distance, which checks that each BFS step
    adds exactly the vertices one step further away, against the dict-based
    BFS oracle."""
    for g in graphs:
        for x in range(g.n):
            for r in radii:
                assert ball(g, x, r) == brute.naive_ball(g, x, r), (g, x, r)
            assert distances(g, x) == [brute.naive_distance(g, x, y) for y in range(g.n)], (g, x)


def test_closed_ball_matches_naive_bfs():
    _check_balls([band_graph(3), cycle_graph(7), star_graph(4), band5_square_root()], range(4))


def test_reach_balls_match_naive_bfs_on_every_small_graph():
    # every labeled graph on at most 5 vertices, radii 0 to 3
    _check_balls((g for n in range(6) for g in brute.labeled_graphs(n)), range(4))


def test_reach_levels_match_naive_distances_on_every_small_graph():
    # the same graphs' distances alone
    _check_balls((g for n in range(6) for g in brute.labeled_graphs(n)), ())


def test_balls_and_distances_match_naive_bfs_on_random_graphs():
    # sparse and dense, connected and not
    rng = random.Random(2010)
    graphs = [Graph(n := rng.randrange(1, 10), gnp_edges(rng, n, rng.choice((0.15, 0.3, 0.6)))) for _ in range(40)]
    _check_balls(graphs, range(5))


def test_vertex_queries_reject_bad_vertex():
    g = band_graph(2)
    queries = (g.neighbors, g.degree, lambda v: g.has_edge(0, v), lambda v: induced_subgraph(g, [v]))
    for query in queries:
        with pytest.raises(ValueError, match=r"^invalid vertex 7: range is 0\.\.3$"):
            query(7)


def test_reach_matches_naive_bfs_on_wide_masks():
    # 312 to 2,000 vertices, so every frontier spans many machine words and
    # a pop that took the wrong bit or left one behind would show: a ring of
    # cubic blobs, a sparse graph threaded by a path through shuffled labels
    # (both connected), and two sparse graphs with many components; radius 0
    # to 6 and unbounded, one-vertex and multi-vertex seeds, against the dict
    # BFS, and the component masks against the dict BFS's components of the
    # whole graph, in order of least vertex
    rng = random.Random(3510)
    order = rng.sample(range(2000), 2000)
    threaded = Graph(2000, random_sparse_graph(2, 2000, 3).edges() + list(zip(order, order[1:])))
    graphs = [random_blob_ring(0, 13), threaded]
    graphs += [random_sparse_graph(seed, n, 3) for seed, n in ((0, 2000), (1, 600))]
    assert [is_connected(g) for g in graphs] == [True, True, False, False]
    for g in graphs:
        adj = brute.adjacency(g)
        for r in [*range(7), -1]:
            for size in (1, 1, 2, 5, 40):
                seeds = rng.sample(range(g.n), size)
                got = graph._reach(g._cn, sum(1 << x for x in seeds), radius=r)
                assert set(graph._bit_indices(got)) == set().union(
                    *(brute.adjacency_ball(adj, x, r) for x in seeds)
                )
        masks = graph._component_masks(g._cn)
        assert [set(graph._bit_indices(m)) for m in masks] == naive_components(g)


def test_components_and_connectivity_match_naive_bfs_on_every_small_graph():
    # every labeled graph on at most 5 vertices, the empty graph and those
    # with isolated vertices included: the component masks in order of
    # least vertex, and is_connected exactly when there is at most one
    for n in range(6):
        for g in brute.labeled_graphs(n):
            components = naive_components(g)
            assert [set(graph._bit_indices(m)) for m in graph._component_masks(g._cn)] == components
            assert is_connected(g) == (len(components) <= 1)


def test_ball_symmetric_difference():
    # consecutive vertices in a band graph are separated by a single vertex
    for k in range(2, 5):
        g = band_graph(k)
        for i in range(k - 1):
            assert ball(g, i, 1) ^ ball(g, i + 1, 1) == {i + k}
    # twins have equal balls
    assert ball(complete_graph(3), 0, 1) ^ ball(complete_graph(3), 1, 1) == set()
    # inner pair of the 4-path
    assert ball(path_graph(4), 1, 1) ^ ball(path_graph(4), 2, 1) == {0, 3}


def test_power_identity_and_idempotence():
    for g in [path_graph(5), cycle_graph(6), band_graph(2)]:
        assert power(g, 1) == g
    # power composition law over assorted graphs and exponents
    for g in [path_graph(7), cycle_graph(7), band5_square_root()]:
        for r, s in [(2, 2), (2, 3), (3, 2)]:
            assert power(power(g, r), s) == power(g, r * s)


def test_power_of_path_is_band_graph():
    assert power(path_graph(6), 2) == band_graph(3)
    assert find_isomorphism(power(path_graph(6), 2), band_graph(3)) is not None
    assert power(path_graph(8), 3) == band_graph(4)


def test_square_root_fixture_power():
    fix = band5_square_root()
    assert power(fix, 2) == band_graph(5)
    # distance-3 chord along the path spine
    assert fix.has_edge(1, 4)


def test_power_disconnected_pairs_never_joined():
    g = Graph(4, [(0, 1), (2, 3)])
    sq = power(g, 3)
    assert not sq.has_edge(0, 2) and not sq.has_edge(1, 3)


def test_twin_pairs():
    assert twin_pairs(complete_graph(2)) == [(0, 1)]
    assert twin_pairs(Graph(2)) == []
    for k in range(1, 6):
        assert twin_pairs(band_graph(k)) == []
    assert twin_pairs(complete_graph(4)) == list(itertools.combinations(range(4), 2))
    assert not is_twin_free(complete_graph(3))
    assert is_twin_free(path_graph(4))


def test_twin_pairs_match_naive():
    for g in brute.labeled_graphs(4):
        assert twin_pairs(g) == brute.naive_twin_pairs(g)


def test_join():
    c4 = join(band_graph(1), band_graph(1))
    assert find_isomorphism(c4, cycle_graph(4)) is not None
    assert c4.edge_count == 4
    star = join(Graph(1), Graph(3))
    assert find_isomorphism(star, star_graph(3)) is not None
    # edge count grows by the product of the part sizes
    g1, g2 = path_graph(3), cycle_graph(5)
    assert join(g1, g2).edge_count == g1.edge_count + g2.edge_count + g1.n * g2.n


def test_complement_involution_and_band_facts():
    for g in [path_graph(5), cycle_graph(6), band_graph(3), star_graph(4)]:
        assert complement(complement(g)) == g
    for k in range(2, 6):
        assert band_graph(k).max_degree() == 2 * k - 2
        assert is_connected(complement(band_graph(k)))
        assert is_connected(band_graph(k))
    # the order-1 band graph is the valid but disconnected two-vertex graph
    assert not is_connected(band_graph(1))


def test_induced_subgraph_without_one_vertex_reindexes():
    # new labels follow the sorted kept vertices: the map is enumerate(keep)
    g = cycle_graph(5)
    keep = [0, 1, 3, 4]
    h = induced_subgraph(g, {4, 3, 1, 0})
    mapping = {old: new for new, old in enumerate(keep)}
    assert h.n == 4
    assert mapping == {0: 0, 1: 1, 3: 2, 4: 3}
    assert h.edges() == [(0, 1), (2, 3), (3, 0)] or h.edges() == sorted([(0, 1), (2, 3), (0, 3)])
    # original graph untouched
    assert g.n == 5 and g.edge_count == 5
    # seeded graphs, edge by edge against a plain relabelling
    rng = random.Random(269)
    for _ in range(40):
        n = rng.randrange(1, 12)
        edges = gnp_edges(rng, n, 0.4)
        g = Graph(n, edges)
        for x in range(n):
            keep = [v for v in range(n) if v != x]
            h = induced_subgraph(g, keep)
            mapping = {old: new for new, old in enumerate(keep)}
            relabel = {v: v - (v > x) for v in range(n) if v != x}
            assert h.n == n - 1 and mapping == relabel
            expected = sorted((relabel[u], relabel[v]) for u, v in edges if x not in (u, v))
            assert sorted(tuple(sorted(e)) for e in h.edges()) == expected


def test_induced_subgraph():
    g = band_graph(3)
    sub = induced_subgraph(g, [0, 2, 4, 5])
    # kept pairs at band distance <= 2: (0,2), (2,4), (4,5)
    assert sub.edges() == [(0, 1), (1, 2), (2, 3)]


def test_connectivity():
    assert is_connected(path_graph(1))
    assert is_connected(Graph(0))
    assert is_connected(cycle_graph(5))
    assert not is_connected(Graph(2))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))


def test_distances():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert distances(g, 0) == [0, 1, 2, None, None]


def test_ball_builder_and_power_match_naive_bfs():
    # graph._balls builds level by level; check every level from radius 1,
    # the least any caller passes, against the dict-based BFS, on small
    # dense or sparse graphs (connected or not), on sparse 200-vertex ones
    # whose masks span several machine words, and on
    # both construction routes: Graph(n, edges), here also given repeated
    # and reversed edges, fills the closed-neighbour lists, and a graph
    # built from masks gets them from _balls on first use
    rng = random.Random(1004)
    listed = []
    for _ in range(30):
        n = rng.randrange(1, 13)
        p = rng.choice((0.1, 0.25, 0.5))
        edges = gnp_edges(rng, n, p)
        listed.append(Graph(n, edges))
        listed.append(Graph(n, edges + [(v, u) for u, v in edges[::2]] + edges[1::3]))
    sparse = [random_sparse_graph(seed, 200, 5) for seed in range(3)]
    listed += sparse
    masked = [graph_from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2)) for n in (1, 5, 9, 12)]
    masked += [induced_subgraph(g, rng.sample(range(g.n), 150)) for g in sparse]
    masked += [complement(g) for g in listed[:20:2]]
    masked += [join(listed[i], listed[i + 2]) for i in range(0, 12, 4)]
    masked += [power(g, 2) for g in sparse[:2]]
    assert all(g._adj is not None for g in listed) and all(g._adj is None for g in masked)
    graphs = listed + masked
    assert not all(graph.is_connected(g) for g in graphs)
    for g in graphs:
        adj = brute.adjacency(g)
        for r in range(1, 7):
            expected = [brute.adjacency_ball(adj, x, r) for x in range(g.n)]
            assert [set(graph._bit_indices(b)) for b in graph._balls(g, r)] == expected
            pg = power(g, r)
            assert [set(pg.neighbors(x)) | {x} for x in range(g.n)] == expected
        # each list holds its vertex and the vertex's neighbours, each once
        assert [sorted(ix) for ix in g._adj] == [
            sorted(brute.adjacency_ball(adj, x, 1)) for x in range(g.n)
        ]


def test_both_construction_routes_give_equal_graphs():
    # every route that builds a graph, from an edge list, from masks or
    # through a construction, against the edge list it stands for: equal
    # masks and hashes, before and after _balls fills the closed-neighbour
    # lists of a mask-built graph, and every accessor as the brute-force
    # adjacency gives it, with no vertex adjacent to itself
    def check(h, n, edges):
        g = Graph(n, edges)
        assert h == g and hash(h) == hash(g)
        assert h.edges() == edges and h.edge_count == len(edges)
        adj = brute.adjacency(h)
        assert h.degrees() == [len(adj[v]) for v in range(n)]
        assert h.max_degree() == max(map(len, adj.values()), default=0)
        for u in range(n):
            assert h.neighbors(u) == sorted(adj[u]) and h.degree(u) == len(adj[u])
            assert [h.has_edge(u, v) for v in range(n)] == [v in adj[u] for v in range(n)]
            assert not h.has_edge(u, u)
        assert graph._balls(h, 3) == graph._balls(g, 3)
        assert h == g and hash(h) == hash(g) and len({g, h}) == 1

    rng = random.Random(20)
    cases = [(n, gnp_edges(rng, n, 0.4)) for n in (0, 1, 2, 5, 12)]
    cases += [(g.n, g.edges()) for g in (random_sparse_graph(seed, 200, 5) for seed in range(3))]
    path = Graph(3, [(0, 1), (1, 2)])

    def joined(n1, edges1, n2, edges2):
        across = [(u, v) for u in range(n1) for v in range(n1, n1 + n2)]
        return sorted(edges1 + across + [(u + n1, v + n1) for u, v in edges2])

    for n, edges in cases:
        g = Graph(n, edges)
        pairs = list(itertools.combinations(range(n), 2))
        for h in (
            Graph(n, [(v, u) for u, v in edges] + edges),
            Graph._from_masks(g._cn),
            graph_from_edge_mask(n, graph._edge_mask(g._cn)),
            induced_subgraph(g, range(n)),
            complement(complement(g)),
        ):
            check(h, n, edges)
        check(complement(g), n, sorted(set(pairs) - set(edges)))
        dist2 = [brute.naive_ball(g, u, 2) for u in range(n)]
        check(power(g, 2), n, [(u, v) for u, v in pairs if v in dist2[u]])
        for x in {0, n // 2, n - 1} if n else ():
            moved = [(u - (u > x), v - (v > x)) for u, v in edges if x not in (u, v)]
            check(induced_subgraph(g, set(range(n)) - {x}), n - 1, moved)
        if n <= 12:
            check(join(g, path), n + 3, joined(n, edges, 3, path.edges()))
            check(join(path, g), n + 3, joined(3, path.edges(), n, edges))


def test_ball_builder_stops_once_balls_stop_growing():
    # a radius far beyond the diameter must cost no more than the diameter
    cases = [(path_graph(9), 10**9), (complete_graph(6), 10**9),
             (Graph(7, [(0, 1), (1, 2), (4, 5)]), 10**9), (cycle_graph(8), 4)]
    start = time.process_time()
    for g, r in cases:
        adj = brute.adjacency(g)
        expected = [brute.adjacency_ball(adj, x, r) for x in range(g.n)]
        assert [set(graph._bit_indices(b)) for b in graph._balls(g, r)] == expected
        pg = power(g, r)
        assert [set(pg.neighbors(x)) | {x} for x in range(g.n)] == expected
    assert time.process_time() - start < 5


def test_enumerate_graphs_counts():
    assert sum(1 for _ in brute.labeled_graphs(1)) == 1
    assert sum(1 for _ in brute.labeled_graphs(3)) == 8
    connected_twin_free = [
        g for g in brute.labeled_graphs(3) if is_connected(g) and is_twin_free(g)
    ]
    assert len(connected_twin_free) == 3
    assert all(find_isomorphism(g, path_graph(3)) is not None for g in connected_twin_free)


def test_enumerate_graphs_order_is_lexicographic():
    # bit e stands for the e-th pair (0,1), (0,2), ..., (n-2,n-1); the
    # encoder reads open and closed masks alike and inverts the decoder
    first_four = list(itertools.islice(brute.labeled_graphs(3), 4))
    assert [g.edges() for g in first_four] == [[], [(0, 1)], [(0, 2)], [(0, 1), (0, 2)]]
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask, g in enumerate(brute.labeled_graphs(n)):
            open_masks = [m ^ 1 << v for v, m in enumerate(g._cn)]
            assert graph._edge_mask(open_masks) == graph._edge_mask(g._cn) == mask
            assert g.edges() == [p for e, p in enumerate(pairs) if mask >> e & 1]


def test_edge_mask_decoder_matches_the_naive_decoder():
    # the block-by-block decoder against the oracle's pair list: every mask
    # up to five vertices, seeded random masks on wider layouts, and the
    # encoder taking each decoded graph back to its mask
    rng = random.Random(23)
    cases = [(n, m) for n in range(6) for m in range(1 << n * (n - 1) // 2)]
    cases += [(n, rng.getrandbits(n * (n - 1) // 2)) for n in (9, 40) for _ in range(30)]
    cases += [(40, (1 << 780) - 1), (40, 1 << 779)]
    for n, m in cases:
        g = graph_from_edge_mask(n, m)
        assert g == brute.naive_graph_from_edge_mask(n, m)
        assert graph._edge_mask(g._cn) == m


def test_edge_mask_decoder_rejects_bits_outside_the_pairs():
    # C(n, 2) pairs take bits 0..C(n, 2) - 1; a bit past them, or a negative
    # mask, stands for no pair; a negative vertex count is refused as
    # ``Graph`` refuses it, before any bit is read
    for n, m in ((0, 1), (0, -1), (1, 1), (1, 2), (3, 8), (3, 1 << 40), (3, -1), (3, -8)):
        with pytest.raises(ValueError, match="edge mask"):
            graph_from_edge_mask(n, m)
    for n, m in ((-1, 0), (-2, 1)):
        with pytest.raises(ValueError, match="vertex count must be non-negative"):
            graph_from_edge_mask(n, m)
    assert graph_from_edge_mask(0, 0) == Graph(0)
    assert graph_from_edge_mask(1, 0) == Graph(1)
    assert graph_from_edge_mask(3, 7) == complete_graph(3)


def _shuffled_sparse(seed, n):
    """A seeded sparse graph on n vertices under a random relabelling, as
    (graph, edge list with u < v), so its edges span the whole label range."""
    rng = random.Random(seed)
    label = list(range(n))
    rng.shuffle(label)
    edges = [tuple(sorted((label[u], label[v]))) for u, v in random_sparse_graph(seed, n, 5).edges()]
    return Graph(n, edges), edges


def _naive_adjacency(n, edges):
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


@pytest.mark.parametrize("n", [300, 2000])
def test_edges_subgraphs_and_edge_lists_at_scale(n):
    # wide masks with labels spread over the whole range, where a walk
    # shifting one bit at a time is quadratic: the edge list, induced
    # subgraphs and the text round trip against plain sets of pairs
    g, edges = _shuffled_sparse(n, n)
    rng = random.Random(n)
    adj = _naive_adjacency(n, edges)
    assert g.edges() == sorted(edges) and g.edge_count == len(edges)
    assert brute.adjacency(g) == adj
    assert all(g.has_edge(u, v) and g.has_edge(v, u) for u, v in edges)
    for _ in range(2 * len(edges)):
        u, v = rng.randrange(n), rng.randrange(n)
        assert g.has_edge(u, v) == (v in adj[u])
    for keep in ([], [rng.randrange(n)], range(n), *(rng.sample(range(n), k) for k in (2, n // 3, n - 1))):
        vs = sorted(keep)
        new = {old: i for i, old in enumerate(vs)}
        expected = sorted((new[u], new[v]) for u, v in edges if u in new and v in new)
        h = induced_subgraph(g, keep)
        assert h.n == len(vs) and h.edges() == expected
        sub_adj = _naive_adjacency(len(vs), expected)
        assert [set(h.neighbors(v)) for v in range(h.n)] == [sub_adj[v] for v in range(h.n)]
    text = format_edge_list(g)
    assert text.splitlines() == [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in sorted(edges)]
    assert parse_edge_list(text) == g


def test_canonical_form_invariant_under_relabeling():
    g = path_graph(4)
    relabeled = Graph(4, [(2, 0), (0, 3), (3, 1)])
    assert canonical_form(g) == canonical_form(relabeled)
    assert canonical_form(g) != canonical_form(cycle_graph(4))
    assert canonical_form(Graph(0)) == canonical_form(Graph(9)) == 0
    assert canonical_form(Graph(64)) == 0
    with pytest.raises(ValueError):
        canonical_form(Graph(65))


def test_canonical_form_is_the_scan_edge_mask():
    # the class a sweep graph stands for is named by the edge mask of its
    # canonical labelling, as the scans name it: a fixed point of
    # canonical_form, and the graph's own form
    for n, _, cn in _sweep(1, 6):
        rep = graph._canon(cn)[0]
        emask = graph._edge_mask(rep)
        assert rep == graph_from_edge_mask(n, emask)._cn
        assert canonical_form(graph_from_edge_mask(n, emask)) == emask
        assert canonical_form(Graph._from_masks(cn)) == emask


def test_isomorphism():
    assert find_isomorphism(band_graph(2), path_graph(4)) is not None
    assert find_isomorphism(cycle_graph(4), path_graph(4)) is None
    assert find_isomorphism(Graph(0), Graph(0)) == []
    # equal order and size, decided by the degree sequence alone
    assert find_isomorphism(path_graph(4), star_graph(3)) is None
    # reversing the band order is an automorphism
    for k in range(1, 5):
        g = band_graph(k)
        n = g.n
        relabeled = Graph(n, [(n - 1 - u, n - 1 - v) for u, v in g.edges()])
        assert relabeled == g
        mapping = find_isomorphism(g, g)
        assert mapping is not None and len(set(mapping)) == n


def test_isomorphism_witness_preserves_edges():
    g1 = cycle_graph(6)
    g2 = Graph(6, [(5, 3), (3, 1), (1, 4), (4, 2), (2, 0), (0, 5)])
    mapping = find_isomorphism(g1, g2)
    assert mapping is not None
    for u, v in g1.edges():
        assert g2.has_edge(mapping[u], mapping[v])
    assert find_isomorphism(Graph(13), Graph(13)) == list(range(13))
    with pytest.raises(ValueError):
        find_isomorphism(Graph(65), Graph(65))


def test_isomorphism_witness_on_seeded_relabelings():
    rng = random.Random(64)
    cases = [
        Graph(64),
        _disjoint(*[complete_graph(3)] * 21),
        _disjoint(*[cycle_graph(4)] * 16),
    ]
    for _ in range(40):
        n = rng.randrange(1, 65)
        p = rng.choice((0.1, 0.3, 0.5))
        cases.append(Graph(n, gnp_edges(rng, n, p)))
    for g in cases:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        mapping = find_isomorphism(g, h)
        assert sorted(mapping) == list(range(g.n))
        assert sorted(tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges()) == h.edges()
        assert canonical_form(g) == canonical_form(h)


def test_isomorphism_rejects_equal_degree_sequences():
    cube = Graph(8, [(u, u ^ 1 << i) for u in range(8) for i in range(3) if u < u ^ 1 << i])
    pairs = [
        (cycle_graph(6), _disjoint(complete_graph(3), complete_graph(3))),
        (cycle_graph(9), _disjoint(cycle_graph(4), cycle_graph(5))),
        (cube, _disjoint(complete_graph(4), complete_graph(4))),
    ]
    for g1, g2 in pairs:
        assert sorted(g1.degrees()) == sorted(g2.degrees())
        assert find_isomorphism(g1, g2) is None and find_isomorphism(g2, g1) is None
        assert canonical_form(g1) != canonical_form(g2)


def test_canonical_labeling_of_symmetric_graphs_is_fast_and_exact():
    # |Aut| comes from orbit sizes along one path of the search, so even
    # 9! automorphisms take no time; none is listed
    cases = [
        (complete_graph(9), math.factorial(9)),
        (Graph(9), math.factorial(9)),
        (cycle_graph(9), 18),
        (path_graph(9), 2),
        (star_graph(8), math.factorial(8)),
    ]
    for g, order in cases:
        start = time.process_time()
        cert, lab, found, gens = graph._canon(g._cn)
        assert time.process_time() - start < 1.0
        assert found == order
        assert sorted(lab) == list(range(g.n))
        assert cert == graph._relabel(g._cn, lab)
        for gen in gens:
            assert Graph(g.n, [(gen[u], gen[v]) for u, v in g.edges()]) == g


def _disjoint(*graphs):
    edges, base = [], 0
    for g in graphs:
        edges += [(u + base, v + base) for u, v in g.edges()]
        base += g.n
    return Graph(base, edges)


def test_canonical_labeling_of_regular_graphs_refinement_cannot_split():
    # colour refinement leaves every vertex of a regular graph in one cell,
    # so the search tree alone tells these apart and counts their symmetries
    cube = Graph(8, [(u, u ^ 1 << i) for u in range(8) for i in range(3) if u < u ^ 1 << i])
    cases = [
        (cycle_graph(9), 18),
        (_disjoint(cycle_graph(4), cycle_graph(5)), 8 * 10),
        (_disjoint(cycle_graph(3), cycle_graph(6)), 6 * 12),
        (_disjoint(*[complete_graph(3)] * 3), 6**3 * 6),
        (_disjoint(cycle_graph(5), cycle_graph(5), Graph(1)), 10 * 10 * 2),
        (cube, 48),
        (_disjoint(cube, complete_graph(4)), 48 * 24),
        (petersen_graph(), 120),
        (complement(petersen_graph()), 120),
        (join(cycle_graph(5), cycle_graph(6)), 10 * 12),
    ]
    rng = random.Random(59)
    certs = set()
    for g, order in cases:
        cert, _, found, _ = graph._canon(g._cn)
        assert found == order
        certs.add((g.n, cert))
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert graph._canon(h._cn)[::2] == (cert, order)
    assert len(certs) == len(cases)


def test_canonical_certificate_ignores_labels():
    rng = random.Random(53)
    earlier = {}  # n: a certificate seen before on n vertices
    for _ in range(60):
        n = rng.randrange(1, 13)
        g = Graph(n, gnp_edges(rng, n, 0.4))
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
        cert, _, order, _ = graph._canon(g._cn)
        assert graph._canon(h._cn)[::2] == (cert, order)
        # the certificate is the relabeled graph itself, n closed masks
        assert len(cert) == n and all(m >> n == 0 for m in cert)
        assert brute.backtrack_isomorphism(g, Graph._from_masks(cert)) is not None
        # and compares as the masks packed into one integer, vertex 0's the
        # most significant
        other = earlier.setdefault(n, cert)
        packed = [sum(m << n * (n - 1 - i) for i, m in enumerate(c)) for c in (cert, other)]
        assert (cert < other, cert == other) == (packed[0] < packed[1], packed[0] == packed[1])


def test_orbit_is_the_union_of_the_orbits_of_the_mask():
    # the trivial group, given by no generators, fixes every mask; seeded
    # groups on up to six points send a mask to the union of its images
    # under every element, listed by closing the generators
    for mask in (0, 1, 0b1011, (1 << 9) - 1):
        assert graph._orbit(mask, []) == mask
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        gens = [rng.sample(range(n), n) for _ in range(rng.randint(1, 2))]
        group, frontier = {tuple(range(n))}, [tuple(range(n))]
        while frontier:
            p = frontier.pop()
            for g in gens:
                q = tuple(g[x] for x in p)
                if q not in group:
                    group.add(q)
                    frontier.append(q)
        mask = rng.randrange(1 << n)
        expected = sum(1 << v for v in range(n) if any(p[u] == v for p in group for u in range(n) if mask >> u & 1))
        assert graph._orbit(mask, gens) == expected, (gens, mask)


def test_refinement_matches_naive_colour_refinement():
    # _refine from a random ordered partition, with every cell a splitter,
    # and _individualize after it, on seeded graphs of up to 12 vertices:
    # each result is equitable, equals the naive fixpoint as a set
    # partition and the naive ordered refinement as an ordered list, and
    # relabeling the input relabels the ordered result.  The early-exit
    # mode, marking a vertex of the result's last cell with no twins or its
    # twins as ``within``, returns the same ordered list whenever it does
    # not stop, which without twins is always
    rng = random.Random(71)

    def sets(cells):
        return [set(graph._bit_indices(c)) for c in cells]

    exits = Counter()
    for trial in range(300):
        n = rng.randrange(1, 13)
        p = rng.choice((0.2, 0.5, 0.8))
        g = Graph(n, gnp_edges(rng, n, p))
        adj = brute.adjacency(g)
        colours = list(range(rng.randrange(1, 4)))
        rng.shuffle(colours)
        colour = [rng.choice(colours) for _ in range(n)]
        start = [sum(1 << v for v in range(n) if colour[v] == c) for c in colours]
        start = [c for c in start if c]
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])

        def image(cells):
            return [sum(1 << perm[v] for v in graph._bit_indices(c)) for c in cells]

        cells = graph._refine(g._cn, start[:], start[:])
        assert graph._refine(h._cn, image(start), image(start)) == image(cells)
        assert sets(cells) == brute.ordered_refinement(g, sets(start), sets(start))
        v = graph._bit_indices(cells[-1])[trial % cells[-1].bit_count()]
        twins = sum(1 << u for u in range(n) if g._cn[u] == g._cn[v] or g._cn[u] ^ 1 << u == g._cn[v] ^ 1 << v)
        for within in (0, twins):
            stopped = graph._refine(g._cn, start[:], start[:], 1 << v, within)
            if stopped[-1] >> v & 1 and stopped[-1] & ~within:
                assert stopped == cells
                exits["ran", within > 0] += 1
        steps = [(start, cells)]
        splittable = [t for t, c in enumerate(cells) if c & (c - 1)]
        if splittable:
            t = rng.choice(splittable)
            b = 1 << rng.choice(graph._bit_indices(cells[t]))
            split = graph._individualize(g._cn, cells, t, b)
            assert graph._individualize(h._cn, image(cells), t, image([b])[0]) == image(split)
            before = cells[:t] + [b, cells[t] ^ b] + cells[t + 1 :]
            assert sets(split) == brute.ordered_refinement(g, sets(before), [{b.bit_length() - 1}])
            steps.append((before, split))
        for before, after in steps:
            parts = sets(after)
            assert sorted(v for x in parts for v in x) == list(range(n))
            assert all(len({len(adj[v] & y) for v in x}) == 1 for x in parts for y in parts)
            assert set(map(frozenset, parts)) == brute.equitable_partition(g, sets(before))
    assert exits["ran", False] == 300 and exits["ran", True] > 0, exits


def test_root_refinement_from_the_degree_classes_decides_as_the_unit_partition():
    # _refine's early-exit mode on seeded graphs of up to 12 vertices, as
    # the sweep runs it: started at the degree classes, ascending and all
    # pending, marking each vertex v of maximum degree whose twins (equal
    # closed or open masks) are not all of that degree, with those twins as
    # ``within``.  Its last cell gives the verdict of the unit partition's
    # equitable refinement, which it returns whenever it does not stop
    # early.  The degree classes, all pending, refine to the unit
    # partition's equitable refinement, and no cell of that refinement
    # splits another
    rng = random.Random(73)

    def verdict(cells, v, within):
        if not cells[-1] >> v & 1:
            return "reject"
        return "label" if cells[-1] & ~within else "settle"

    seen = set()
    for _ in range(300):
        n = rng.randrange(1, 13)
        cn = Graph(n, gnp_edges(rng, n, rng.choice((0.2, 0.5, 0.8))))._cn
        full = (1 << n) - 1
        equitable = graph._refine(cn, [full], [full])
        by_degree = {}
        for v, x in enumerate(cn):
            by_degree[x.bit_count()] = by_degree.get(x.bit_count(), 0) | 1 << v
        classes = [by_degree[d] for d in sorted(by_degree)]
        assert graph._refine(cn, classes[:], classes[:] if len(classes) > 1 else []) == equitable
        assert graph._refine(cn, equitable[:], equitable[:]) == equitable
        for v in graph._bit_indices(classes[-1]):
            within = sum(1 << u for u in range(n) if cn[u] == cn[v] or cn[u] ^ 1 << u == cn[v] ^ 1 << v)
            if within == classes[-1]:
                continue
            stopped = graph._refine(cn, classes[:], classes[:] if len(classes) > 1 else [], 1 << v, within)
            found = verdict(stopped, v, within)
            seen.add(found)
            assert found == verdict(equitable, v, within), (cn, v)
            assert found != "label" or stopped == equitable, (cn, v)
    assert seen == {"reject", "settle", "label"}


def _cayley_z4z4(steps):
    # the Cayley graph of Z4 x Z4 whose steps are ``steps`` and their negatives
    return Graph(16, [(4 * a + b, 4 * ((a + x) % 4) + (b + y) % 4)
                      for a in range(4) for b in range(4) for x, y in steps])


# two strongly regular graphs srg(16, 6, 2, 2): colour refinement leaves
# every vertex of any union of them in one cell
SHRIKHANDE = _cayley_z4z4([(1, 0), (0, 1), (1, 1)])
ROOK_4X4 = _cayley_z4z4([(1, 0), (2, 0), (0, 1), (0, 2)])


def _paley(p):
    squares = {x * x % p for x in range(1, p)}
    return Graph(p, [(u, (u + s) % p) for u in range(p) for s in squares])


def _cfi(base_edges, twisted):
    # Cai-Fuerer-Immerman graph over a cubic graph: per base vertex, one
    # vertex per even set S of its edges and a pair a(v, e, 0/1) per edge e,
    # S joined to a(v, e, [e in S]); across base edge e = uv, a(u, e, i) is
    # joined to a(v, e, i), crossed on edge 0 when twisted
    ids, edges = {}, []
    vertices = sorted({v for uv in base_edges for v in uv})
    incident = {v: [e for e, uv in enumerate(base_edges) if v in uv] for v in vertices}
    for v, es in incident.items():
        for even in (s for k in (0, 2) for s in itertools.combinations(es, k)):
            m = ids.setdefault((v, even), len(ids))
            edges += [(m, ids.setdefault((v, e, e in even), len(ids))) for e in es]
    for e, (u, v) in enumerate(base_edges):
        for i in (False, True):
            edges.append((ids[u, e, i], ids[v, e, i != (twisted and e == 0)]))
    return Graph(len(ids), edges)


K4_EDGES = list(itertools.combinations(range(4), 2))
K33_EDGES = [(a, b) for a in range(3) for b in range(3, 6)]
SIX_CUBE = Graph(64, [(u, u ^ 1 << i) for u in range(64) for i in range(6)])

# (name, graph, |Aut|): k equal connected parts give |Aut(part)|^k * k!;
# Aut(Shrikhande) has order 192 and Aut(rook 4x4) = (S4 x S4) : 2 has 1152;
# Aut(Paley(p)) for a prime p has order p(p - 1)/2; Aut(Q6) has 2^6 * 6!;
# the CFI graphs over H = K4 and K3,3, twisted or not, have 2^(m - n + 1)
# flips along the cycle space of H times |Aut(H)| (24 and 72)
HARD_INSTANCES = [
    ("shrikhande", SHRIKHANDE, 192),
    ("rook", ROOK_4X4, 1152),
    ("2shrikhande", _disjoint(*[SHRIKHANDE] * 2), 192**2 * 2),
    ("3shrikhande", _disjoint(*[SHRIKHANDE] * 3), 192**3 * 6),
    ("4shrikhande", _disjoint(*[SHRIKHANDE] * 4), 192**4 * 24),
    ("co-3shrikhande", complement(_disjoint(*[SHRIKHANDE] * 3)), 192**3 * 6),
    ("shrikhande+rook", _disjoint(SHRIKHANDE, ROOK_4X4), 192 * 1152),
    ("2shrikhande+2rook", _disjoint(SHRIKHANDE, ROOK_4X4, SHRIKHANDE, ROOK_4X4),
     192**2 * 1152**2 * 2 * 2),
    ("shrikhande+3rook", _disjoint(ROOK_4X4, SHRIKHANDE, ROOK_4X4, ROOK_4X4), 192 * 1152**3 * 6),
    ("4rook", _disjoint(*[ROOK_4X4] * 4), 1152**4 * 24),
    ("paley13", _paley(13), 13 * 6),
    ("paley17", _paley(17), 17 * 8),
    ("paley61", _paley(61), 61 * 30),
    ("6-cube", SIX_CUBE, 2**6 * math.factorial(6)),
    ("cfi-K4", _cfi(K4_EDGES, False), 2**3 * 24),
    ("cfi-K4-twisted", _cfi(K4_EDGES, True), 2**3 * 24),
    ("cfi-K33", _cfi(K33_EDGES, False), 2**4 * 72),
    ("cfi-K33-twisted", _cfi(K33_EDGES, True), 2**4 * 72),
]


@pytest.mark.parametrize("name, g, order", HARD_INSTANCES, ids=[c[0] for c in HARD_INSTANCES])
def test_canonical_labeling_of_hard_instances(name, g, order):
    # unions of equal srgs made the labeller exponential when it pruned by
    # orbits on its first path only (4 Shrikhande copies took minutes)
    start = time.process_time()
    cert, lab, found, gens = graph._canon(g._cn)
    assert time.process_time() - start < 1.0
    assert found == order
    assert cert == graph._relabel(g._cn, lab)
    edges = set(g.edges())
    for gen in gens:
        assert {tuple(sorted((gen[u], gen[v]))) for u, v in edges} == edges
    rng = random.Random(name)
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in edges])
        start = time.process_time()
        assert graph._canon(h._cn)[::2] == (cert, order)
        assert time.process_time() - start < 1.0


def test_hard_instances_told_apart():
    certs = {(g.n, graph._canon(g._cn)[0]) for _, g, _ in HARD_INSTANCES}
    assert len(certs) == len(HARD_INSTANCES)
    pairs = [
        (SHRIKHANDE, ROOK_4X4),
        (_cfi(K4_EDGES, False), _cfi(K4_EDGES, True)),
        (_cfi(K33_EDGES, False), _cfi(K33_EDGES, True)),
    ]
    for g1, g2 in pairs:
        assert sorted(g1.degrees()) == sorted(g2.degrees())
        assert find_isomorphism(g1, g2) is None and find_isomorphism(g2, g1) is None


def test_first_path_maps_are_automorphisms_inside_the_orbit():
    # for every vertex v of the last cell of the root partition, against
    # the orbits of _canon's generators: the first leaves below v and below
    # the cell's least vertex u give a permutation mapping u to v, which
    # _is_automorphism accepts exactly when the two leaves relabel the
    # graph alike and when it maps the edge set onto itself, so no v
    # outside u's orbit is claimed; all these graphs are regular, so the
    # cell is every vertex, and C3 + C4, its complement and the union of
    # the 4x4 rook's and Shrikhande graphs, in either order, split it into
    # two orbits, and C3 + C4 and the unions give both verdicts; the
    # descents on each graph take well under a second, where a search
    # through every leaf below a rook vertex of the union took about 45 s
    c3c4 = _disjoint(cycle_graph(3), cycle_graph(4))
    graphs = [c3c4, complement(c3c4), petersen_graph(), _paley(13), SHRIKHANDE]
    graphs += [_cfi(K4_EDGES, True), _cfi(K33_EDGES, False)]
    graphs += [_disjoint(ROOK_4X4, SHRIKHANDE), _disjoint(SHRIKHANDE, ROOK_4X4)]
    split = 0
    mixed = []
    for g in graphs:
        cn, n = g._cn, g.n
        cells = graph._refine(cn, [(1 << n) - 1], [(1 << n) - 1])
        t = len(cells) - 1
        u = cells[t] & -cells[t]
        orbit = graph._orbit(u, graph._canon(cn)[3])
        split += orbit != cells[t]
        edges = set(g.edges())
        start = time.process_time()
        lab = graph._descend(cn, cells, t, u)
        cert = graph._relabel(cn, lab)
        claimed = 0
        verdicts = set()
        for v in graph._bit_indices(cells[t]):
            image = graph._descend(cn, cells, t, 1 << v)
            p = graph._permutation(lab, image)
            assert p[u.bit_length() - 1] == v
            verdict = graph._is_automorphism(cn, p)
            assert verdict == (graph._relabel(cn, image) == cert)
            assert verdict == ({tuple(sorted((p[a], p[b]))) for a, b in edges} == edges)
            verdicts.add(verdict)
            if verdict:
                claimed |= 1 << v
        assert time.process_time() - start < 0.5
        assert claimed & ~orbit == 0, g
        if len(verdicts) == 2:
            mixed.append(g)
    assert split >= 4
    assert mixed[0] == c3c4 and mixed[-2:] == graphs[-2:]


def test_canonical_forms_past_the_sweep_are_pinned():
    # byte identity of canonical_form on graphs the scans' sweep never
    # reaches, against a digest of the reference implementation: the hard
    # instances, A_3..A_12, Petersen, C_10..C_30 and 100 seeded G(n, p) on
    # 10 to 40 vertices
    rng = random.Random(1040)
    graphs = [g for _, g, _ in HARD_INSTANCES]
    graphs += [band_graph(k) for k in range(3, 13)]
    graphs += [petersen_graph()] + [cycle_graph(n) for n in range(10, 31)]
    for _ in range(100):
        n = rng.randrange(10, 41)
        p = rng.choice((0.1, 0.3, 0.5, 0.7))
        graphs.append(Graph(n, gnp_edges(rng, n, p)))
    forms = [(g.n, canonical_form(g)) for g in graphs]
    digest = hashlib.sha256(repr(forms).encode()).hexdigest()
    assert digest == "880f38dc552ccb623e6ae2611bfb7e10274ddc70d0566639922c843a12b5ffdb"


def test_band_graph_automorphism_count():
    # identity plus the order reversal, nothing else
    for k in range(2, 5):
        assert brute.automorphism_count(band_graph(k)) == 2


def test_empty_symmetric_difference_means_twins_in_power():
    for g in brute.labeled_graphs(4):
        for r in (1, 2):
            pg = power(g, r)
            twins = set(twin_pairs(pg))
            for x in range(g.n):
                for y in range(x + 1, g.n):
                    empty = ball(g, x, r) == ball(g, y, r)
                    assert empty == ((x, y) in twins)


def test_ball_equals_power_ball():
    for g in [path_graph(7), cycle_graph(8), band5_square_root()]:
        for r in (1, 2, 3):
            pg = power(g, r)
            for x in range(g.n):
                assert ball(g, x, r) == ball(pg, x, 1)


def test_edge_list_round_trip():
    for g in [band_graph(3), star_graph(4), Graph(2), Graph(1)]:
        assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_parsing_details():
    text = "# a comment\n3 2\n0 1  # trailing comment\n1 2\n"
    g = parse_edge_list(text)
    assert g.edges() == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("3 1\n0 x\n")
    with pytest.raises(ValueError):
        parse_edge_list("")


@pytest.mark.parametrize("bad", ["1_1", "+2", "\u0661", "\uff11", "1-2", "1" * 5000])
def test_edge_list_tokens_are_read_strictly(bad, tmp_path, capsys):
    # ASCII digits after an optional '-' only: int() alone would read '1_1'
    # as 11 and take '+2', Arabic-Indic and full-width digits; a number past
    # int()'s digit limit is refused with the same message
    message = f"invalid token {bad!r} in edge list"
    for text in (f"{bad} 0\n", f"2 1\n0 {bad}\n", f"# {bad}\n2 1\n{bad} 1 # {bad}\n"):
        with pytest.raises(ValueError) as exc:
            parse_edge_list(text)
        assert str(exc.value) == message
    path = tmp_path / "g.txt"
    path.write_text(f"{bad} 0\n")
    assert cli.main(["power", "--graph", str(path), "--radius", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # a '-' still reaches the checks behind the token rule, and the token
    # rule ignores comments and any whitespace between tokens
    with pytest.raises(ValueError, match=r"^invalid vertex in edge \(0, -1\): range is 0\.\.1$"):
        parse_edge_list("2 1\n0 -1\n")
    assert parse_edge_list("# +1 1_0 \u0661\r\n3\t1\r\n\n 2  0 # x\n").edges() == [(0, 2)]


def test_edge_list_negative_edge_count_is_refused(tmp_path, capsys):
    # a plain message, not a count of -2 endpoint numbers, and exit 2
    # through the CLI like any other malformed edge list
    with pytest.raises(ValueError, match="^edge list declares -1 edges; the count must be >= 0$"):
        parse_edge_list("2 -1\n")
    path = tmp_path / "g.txt"
    path.write_text("2 -1\n")
    assert cli.main(["classify", "--graph", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: edge list declares -1 edges; the count must be >= 0\n")


def _refuse_graph(n, edges=()):
    raise AssertionError(f"Graph({n}, ...) was built from a header above the cap")


def test_edge_list_header_above_vertex_cap_is_rejected_before_allocating(monkeypatch):
    monkeypatch.setattr(graph, "Graph", _refuse_graph)
    with pytest.raises(ValueError, match="limit is 16384"):
        parse_edge_list("1000000000 0")
    with pytest.raises(ValueError):
        parse_edge_list(f"{INPUT_VERTEX_CAP + 1} 0")


def test_edge_list_header_at_vertex_cap_is_accepted():
    g = parse_edge_list(f"{INPUT_VERTEX_CAP} 1\n0 {INPUT_VERTEX_CAP - 1}\n")
    assert g.n == INPUT_VERTEX_CAP and g.edges() == [(0, INPUT_VERTEX_CAP - 1)]


def test_format_edge_list_sorted_header():
    g = Graph(4, [(3, 2), (1, 0)])
    assert format_edge_list(g) == "4 2\n0 1\n2 3\n"
