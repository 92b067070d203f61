"""Code-variant verification: certificates and witnesses, one table-driven
comparison of every certificate with the naive set-based oracle, and the
membership-graph bridge."""

import itertools
import random

import pytest

import brute
from randgraphs import gnp_edges, random_bounded_degree_graph, random_sparse_graph
from idcodes import codes, graph
from idcodes.bound import code_from_independent_set
from idcodes.codes import (
    KINDS,
    check_code,
    is_discriminating,
    membership_graph,
)
from idcodes.families import (
    band_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from idcodes.graph import (
    Graph,
    canonical_form,
    graph_from_edge_mask,
    induced_subgraph,
    power,
    twin_pairs,
)
from idcodes.scans import _sweep
from idcodes.solve import extend_code


def test_dominating_examples():
    assert check_code(star_graph(3), [0], "dominating").valid
    cert = check_code(Graph(2), [0], "dominating")
    assert not cert.valid and cert.witness_vertex == 1
    g = band_graph(3)
    assert check_code(g, brute.naive_ball(g, 2, 1), "dominating").valid


def test_separates_examples():
    # whether the code-restricted unit balls of x and y differ
    def separates(g, code, x, y):
        c = sum(1 << v for v in code)
        balls = graph._balls(g, 1)
        return balls[x] & c != balls[y] & c

    for k in range(2, 5):
        g = band_graph(k)
        for i in range(k - 1):
            assert separates(g, [i + k], i, i + 1)
    g = path_graph(4)
    assert not separates(g, [], 0, 1)
    assert not separates(g, [1, 2], 1, 2)


def test_identifying_examples():
    # the ball of the second vertex identifies the 4-path
    assert check_code(band_graph(2), [0, 1, 2], "identifying").valid
    # two leaves identify the two-leaf star
    assert check_code(star_graph(2), [1, 2], "identifying").valid
    cert = check_code(path_graph(4), [1, 2], "identifying")
    assert not cert.valid
    assert cert.witness_pair == (1, 2)
    assert cert.witness_signature == {1, 2}


def test_identifying_undominated_witness_takes_precedence():
    cert = check_code(path_graph(4), [0], "identifying")
    assert not cert.valid and cert.witness_vertex == 2


def test_locating_dominating_examples():
    for n in range(3, 6):
        g = complete_graph(n)
        for combo in itertools.combinations(range(n), n - 1):
            assert check_code(g, combo, "locating-dominating").valid
    assert check_code(star_graph(4), [1, 2, 3, 4], "locating-dominating").valid
    assert not check_code(path_graph(4), [1], "locating-dominating").valid


def test_whole_vertex_set_identifies_iff_twin_free():
    for g in brute.labeled_graphs(4):
        assert check_code(g, range(g.n), "identifying").valid == (not twin_pairs(g))


def test_radius_transfer_to_power():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(2, 8)
        g = Graph(n, gnp_edges(rng, n, 0.4))
        r = rng.choice((2, 3))
        code = [v for v in range(n) if rng.random() < 0.5]
        assert (
            check_code(g, code, "identifying", r).valid
            == check_code(power(g, r), code, "identifying", 1).valid
        )


def test_monotonicity_under_supersets():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(2, 8)
        g = Graph(n, gnp_edges(rng, n, 0.5))
        code = {v for v in range(n) if rng.random() < 0.5}
        bigger = code | {v for v in range(n) if rng.random() < 0.5}
        for kind in KINDS:
            if check_code(g, code, kind).valid:
                assert check_code(g, bigger, kind).valid


def _random_codes(seed: int, count: int, sizes: tuple[int, int], p: float, q: float):
    """Seeded (graph, code) pairs: n in ``range(*sizes)``, an edge per pair
    with probability p, then each vertex in the code with probability q."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(*sizes)
        g = Graph(n, gnp_edges(rng, n, p))
        yield g, {v for v in range(n) if rng.random() < q}


def _near_complete_codes(seed: int, graphs):
    """V minus a few vertices, or minus a whole ball, at radius 1 to 3."""
    rng = random.Random(seed)
    for g, r, k in itertools.product(graphs, (1, 2, 3), (0, 1, 2, 3, -1)):
        removed = brute.naive_ball(g, rng.randrange(g.n), 1) if k < 0 else set(rng.sample(range(g.n), k))
        yield g, r, set(range(g.n)) - removed


# each kind's valid verdict and each witness type it can fail with
OUTCOMES = {(k, True, None) for k in KINDS} | {
    (k, False, w)
    for k in KINDS
    for w in ("undominated", "pair")
    if (k, w) not in {("separating", "undominated"), ("dominating", "pair")}
}


def _check_certificates(cases, outcomes) -> None:
    """Check one row (cases, outcomes) of the certifier's oracle table.

    Every case (graph, radius, code) is certified as every kind the outcomes
    name, and each certificate must be the oracle's verdict and witness; at
    radius 1 the discriminating check on the membership graph must agree
    with the separating one.  The row shows exactly its outcomes (kind,
    valid, witness type)."""
    seen = set()
    for g, r, code in cases:
        sigs = brute.naive_signatures(g, code, r)
        for kind in sorted({k for k, _, _ in outcomes}):
            valid = brute.signatures_ok(kind, sigs, code)
            witness = None if valid else brute.naive_witness(kind, sigs, code)
            cert = {"kind": kind, "radius": r, "valid": valid, "witness": witness}
            assert check_code(g, code, kind, r).to_dict() == cert, (g, r, kind, sorted(code))
            if kind == "separating" and r == 1:
                discriminating = is_discriminating(membership_graph(g), code).to_dict()
                assert discriminating == {**cert, "kind": "discriminating"}, (g, sorted(code))
            seen.add((kind, valid, witness and next(iter(witness))))
    assert seen == outcomes


def test_all_kinds_match_naive_oracle_exhaustively():
    # every code of every labeled graph on 4 vertices
    codes = [c for k in range(5) for c in itertools.combinations(range(4), k)]
    _check_certificates(((g, 1, c) for g in brute.labeled_graphs(4) for c in codes), OUTCOMES)


def test_radius_two_matches_naive_oracle():
    cases = ((g, 2, code) for g, code in _random_codes(3, 30, (2, 7), 0.35, 0.5))
    _check_certificates(cases, {o for o in OUTCOMES if o[0] in ("identifying", "dominating")})


def test_invalid_witness_reverifies():
    # small random codes on 400 graphs of 1 to 8 vertices
    cases = ((g, r, code) for g, code in _random_codes(19, 400, (1, 9), 0.4, 0.4) for r in (1, 2))
    _check_certificates(cases, OUTCOMES)


def test_certificates_match_oracle_on_large_near_complete_codes():
    # graphs of up to 300 vertices: the valid verdicts come from the
    # signature fast path, the invalid ones from the witness search; no two
    # vertices outside such a code share a signature
    graphs = [random_bounded_degree_graph(seed, 150, 300) for seed in range(3)]
    graphs += [random_sparse_graph(seed, 300, 4) for seed in range(2)]
    _check_certificates(_near_complete_codes(1005, graphs), OUTCOMES - {("locating-dominating", False, "pair")})


def test_witness_pair_is_lexicographically_first():
    # both (0,1) and (2,3) fail; the report must name (0,1)
    g = Graph(4, [(0, 1), (2, 3)])
    cert = check_code(g, [], "separating")
    assert not cert.valid and cert.witness_pair == (0, 1)


def test_radius_zero_rejected():
    with pytest.raises(ValueError):
        check_code(path_graph(3), [0], "identifying", 0)
    with pytest.raises(ValueError):
        check_code(path_graph(3), [0], "dominating", 0)


def test_code_out_of_range_rejected():
    for bad in (5, 3, -1):
        with pytest.raises(ValueError, match=rf"^invalid vertex {bad}: range is 0\.\.2$"):
            check_code(path_graph(3), [0, bad], "identifying")
    # every entry point names the first bad vertex Graph._mask reads: codes
    # are read as given, the other sets sorted
    g = path_graph(4)
    for call, bad, top in (
        (lambda: check_code(g, [5, -1], "identifying"), 5, 3),
        (lambda: code_from_independent_set(g, [5, -1]), -1, 3),
        (lambda: induced_subgraph(g, [9, -2]), -2, 3),
        (lambda: extend_code(g, [9, -2], []), -2, 3),
        (lambda: extend_code(g, [3], [7, -1]), 7, 2),
    ):
        with pytest.raises(ValueError, match=rf"^invalid vertex {bad}: range is 0\.\.{top}$"):
            call()


def test_check_code_dispatch():
    g = path_graph(4)
    assert check_code(g, [0, 1, 2], "identifying").kind == "identifying"
    expected = "['dominating', 'identifying', 'locating-dominating', 'separating']"
    with pytest.raises(ValueError) as err:
        check_code(g, [0], "nonsense")
    assert str(err.value) == f"unknown code kind 'nonsense'; expected one of {expected}"


def test_membership_graph_structure():
    g = path_graph(4)
    bg = membership_graph(g)
    assert bg.n == 4
    assert bg.balls[1] == {0, 1, 2}
    single = membership_graph(Graph(1))
    assert single.balls == ({0},)
    for g2 in [star_graph(3), cycle_graph(5)]:
        assert membership_graph(g2).n == g2.n


def test_discriminating_examples():
    bg = membership_graph(path_graph(4))
    assert is_discriminating(bg, [0, 1, 2]).valid
    assert not is_discriminating(bg, []).valid
    assert not is_discriminating(membership_graph(complete_graph(2)), [0, 1]).valid
    with pytest.raises(ValueError):
        is_discriminating(bg, [9])


def test_discriminating_ignores_ball_entries_outside_the_source_vertices():
    # a hand-built membership graph whose balls also name -1, 4 and 9: those
    # entries name no source vertex, so every verdict is the clean graph's
    clean = membership_graph(path_graph(4))
    noisy = codes.BipartiteMembershipGraph(
        tuple(ball | {-1, 4, 9} if v % 2 else ball | {4} for v, ball in enumerate(clean.balls))
    )
    for cmask in range(1 << 4):
        code = [v for v in range(4) if cmask >> v & 1]
        assert is_discriminating(noisy, code) == is_discriminating(clean, code)


def test_discriminating_bridge_exhaustive_small():
    # every vertex subset of one graph per isomorphism class on <= 6
    # vertices, twins included, through the public checkers: the scan
    # settles the bridge by an identity of masks, this checks the verdicts
    for n, _, cn in _sweep(1, 6):
        g = graph_from_edge_mask(n, canonical_form(Graph._from_masks(cn)))
        bg = membership_graph(g)
        for cmask in range(1 << n):
            code = [v for v in range(n) if cmask >> v & 1]
            assert check_code(g, code, "separating").valid == is_discriminating(bg, code).valid


def test_certificate_serialization():
    cert = check_code(path_graph(4), [1, 2], "identifying")
    d = cert.to_dict()
    assert d == {
        "kind": "identifying",
        "radius": 1,
        "valid": False,
        "witness": {"pair": [1, 2], "signature": [1, 2]},
    }
    ok = check_code(band_graph(2), [0, 1, 2], "identifying").to_dict()
    assert ok["valid"] is True and ok["witness"] is None


def test_complement_kernel_agrees_with_certify():
    # the bound pipelines' accept path, which reads only the signatures
    # within r of the removed set, against the full certificate on V - M;
    # each outcome, and balls with twins, occur in the thousands
    rng = random.Random(39)
    outcomes = {"identifies": 0, "fails": 0, "twins": 0}
    for _ in range(5000):
        n = rng.randrange(1, 15)
        p = rng.choice((0.1, 0.2, 0.3, 0.5))
        g = Graph(n, gnp_edges(rng, n, p))
        radius = rng.choice((1, 1, 2, 3))
        balls = graph._balls(g, radius)
        index = set(balls)
        removed = sum(1 << v for v in rng.sample(range(n), rng.randrange(0, min(n, 4) + 1)))
        ok = codes._complement_identifies(balls, index, removed)
        code = ((1 << n) - 1) ^ removed
        assert ok == codes._certify("identifying", radius, balls, code).valid
        outcomes["twins" if len(index) != n else "identifies" if ok else "fails"] += 1
    assert min(outcomes.values()) >= 1000, outcomes
