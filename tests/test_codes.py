"""Code-variant verification: certificates, witnesses, the membership-graph
bridge, and agreement with the naive set-based oracle."""

import itertools
import random

import pytest

import brute
from randgraphs import random_bounded_degree_graph, random_sparse_graph
from idcodes import codes, graph
from idcodes.codes import (
    check_code,
    is_discriminating,
    is_dominating,
    is_identifying,
    is_locating_dominating,
    is_separating,
    membership_graph,
)
from idcodes.families import (
    band_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    star_graph,
)
from idcodes.graph import Graph, graph_from_edge_mask, power, twin_pairs
from idcodes.scans import _sweep


def test_dominating_examples():
    assert is_dominating(star_graph(3), [0]).valid
    cert = is_dominating(empty_graph(2), [0])
    assert not cert.valid and cert.witness_vertex == 1
    g = band_graph(3)
    assert is_dominating(g, brute.naive_ball(g, 2, 1)).valid


def test_separates_examples():
    # the certificate kernel restricted to the one pair (x, y)
    def separates(g, code, x, y):
        c = sum(1 << v for v in code)
        return codes._certify("separating", 1, graph._balls(g, 1), c, False, (x, y)).valid

    for k in range(2, 5):
        g = band_graph(k)
        for i in range(k - 1):
            assert separates(g, [i + k], i, i + 1)
    g = path_graph(4)
    assert not separates(g, [], 0, 1)
    assert not separates(g, [1, 2], 1, 2)


def test_identifying_examples():
    # the ball of the second vertex identifies the 4-path
    assert is_identifying(band_graph(2), [0, 1, 2]).valid
    # two leaves identify the two-leaf star
    assert is_identifying(star_graph(2), [1, 2]).valid
    cert = is_identifying(path_graph(4), [1, 2])
    assert not cert.valid
    assert cert.witness_pair == (1, 2)
    assert cert.witness_signature == {1, 2}


def test_identifying_undominated_witness_takes_precedence():
    cert = is_identifying(path_graph(4), [0])
    assert not cert.valid and cert.witness_vertex == 2


def test_locating_dominating_examples():
    for n in range(3, 6):
        g = complete_graph(n)
        for combo in itertools.combinations(range(n), n - 1):
            assert is_locating_dominating(g, combo).valid
    assert is_locating_dominating(star_graph(4), [1, 2, 3, 4]).valid
    assert not is_locating_dominating(path_graph(4), [1]).valid


def test_whole_vertex_set_identifies_iff_twin_free():
    for g in brute.labeled_graphs(4):
        assert is_identifying(g, range(g.n)).valid == (not twin_pairs(g))


def test_radius_transfer_to_power():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(2, 8)
        g = Graph(n, [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.4])
        r = rng.choice((2, 3))
        code = [v for v in range(n) if rng.random() < 0.5]
        assert (
            is_identifying(g, code, r).valid
            == is_identifying(power(g, r), code, 1).valid
        )


def test_monotonicity_under_supersets():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(2, 8)
        g = Graph(n, [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.5])
        code = {v for v in range(n) if rng.random() < 0.5}
        bigger = code | {v for v in range(n) if rng.random() < 0.5}
        for kind in ("dominating", "separating", "identifying", "locating-dominating"):
            if check_code(g, code, kind).valid:
                assert check_code(g, bigger, kind).valid


def test_all_kinds_match_naive_oracle_exhaustively():
    for g in brute.labeled_graphs(4):
        for size in range(5):
            for combo in itertools.combinations(range(4), size):
                assert is_dominating(g, combo).valid == brute.naive_is_dominating(g, combo)
                assert is_separating(g, combo).valid == brute.naive_is_separating(g, combo)
                assert is_identifying(g, combo).valid == brute.naive_is_identifying(g, combo)
                assert (
                    is_locating_dominating(g, combo).valid
                    == brute.naive_is_locating_dominating(g, combo)
                )


def test_radius_two_matches_naive_oracle():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(2, 7)
        g = Graph(n, [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.35])
        code = [v for v in range(n) if rng.random() < 0.5]
        assert is_identifying(g, code, 2).valid == brute.naive_is_identifying(g, code, 2)
        assert is_dominating(g, code, 2).valid == brute.naive_is_dominating(g, code, 2)


def test_invalid_witness_reverifies():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randrange(2, 8)
        g = Graph(n, [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.4])
        code = [v for v in range(n) if rng.random() < 0.4]
        cert = is_identifying(g, code)
        if cert.valid:
            continue
        if cert.witness_vertex is not None:
            assert brute.naive_ball(g, cert.witness_vertex, 1) & set(code) == set()
        else:
            x, y = cert.witness_pair
            bx = brute.naive_ball(g, x, 1) & set(code)
            by = brute.naive_ball(g, y, 1) & set(code)
            assert bx == by == cert.witness_signature


def test_witness_pair_is_lexicographically_first():
    # both (0,1) and (2,3) fail; the report must name (0,1)
    g = Graph(4, [(0, 1), (2, 3)])
    cert = is_separating(g, [])
    assert not cert.valid and cert.witness_pair == (0, 1)


def test_radius_zero_rejected():
    with pytest.raises(ValueError):
        is_identifying(path_graph(3), [0], 0)
    with pytest.raises(ValueError):
        is_dominating(path_graph(3), [0], 0)


def test_code_out_of_range_rejected():
    for bad in (5, 3, -1):
        with pytest.raises(ValueError, match=rf"^invalid vertex {bad}: range is 0\.\.2$"):
            is_identifying(path_graph(3), [0, bad])


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


def test_discriminating_bridge_exhaustive_small():
    # every vertex subset of one graph per isomorphism class on <= 6
    # vertices, twins included, through the public checkers: the scan
    # settles the bridge by an identity of masks, this checks the verdicts
    for n, emask, _, _ in _sweep(1, 6):
        g = graph_from_edge_mask(n, emask)
        bg = membership_graph(g)
        for cmask in range(1 << n):
            code = [v for v in range(n) if cmask >> v & 1]
            assert is_separating(g, code).valid == is_discriminating(bg, code).valid


def test_certificate_serialization():
    cert = is_identifying(path_graph(4), [1, 2])
    d = cert.to_dict()
    assert d == {
        "kind": "identifying",
        "radius": 1,
        "valid": False,
        "witness": {"pair": [1, 2], "signature": [1, 2]},
    }
    ok = is_identifying(band_graph(2), [0, 1, 2]).to_dict()
    assert ok["valid"] is True and ok["witness"] is None


def test_certificates_match_oracle_on_large_near_complete_codes():
    # V minus a few vertices, or minus a whole ball, on graphs of up to 300
    # vertices: the valid verdicts come from the signature fast path, the
    # invalid ones from the witness search, and both must match the oracle
    checkers = {
        "dominating": is_dominating,
        "identifying": is_identifying,
        "separating": is_separating,
        "locating-dominating": is_locating_dominating,
    }
    rng = random.Random(1005)
    graphs = [random_bounded_degree_graph(seed, 150, 300) for seed in range(3)]
    graphs += [random_sparse_graph(seed, 300, 4) for seed in range(2)]
    verdicts = set()
    for g in graphs:
        for r in (1, 2, 3):
            for k in (0, 1, 2, 3, -1):
                if k < 0:
                    removed = brute.naive_ball(g, rng.randrange(g.n), 1)
                else:
                    removed = set(rng.sample(range(g.n), k))
                code = set(range(g.n)) - removed
                sigs = brute.naive_signatures(g, code, r)
                for kind, check in checkers.items():
                    cert = check(g, code, r)
                    valid = brute.signatures_ok(kind, sigs, code)
                    assert cert.to_dict() == {
                        "kind": kind,
                        "radius": r,
                        "valid": valid,
                        "witness": None if valid else brute.naive_witness(kind, sigs, code),
                    }, (g.n, r, kind, sorted(removed))
                    verdicts.add((kind, valid))
    assert verdicts == {(kind, v) for kind in checkers for v in (True, False)}
