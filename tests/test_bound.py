"""Constructive bound machinery: removable vertices, greedy independent
sets, the code composition and the two degree pipelines."""

import math
import random
from fractions import Fraction

import pytest

import brute
from randgraphs import gnp_edges, random_blob_ring, random_bounded_degree_graph, random_sparse_graph
from idcodes import bound
from idcodes.bound import (
    ball_size_limit,
    code_from_independent_set,
    constructive_upper_bound,
    greedy_independent_set,
    regular_constructive_bound,
    removable_vertex_in_ball,
)
from idcodes.codes import check_code
from idcodes.families import (
    band_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from idcodes.graph import (
    Graph,
    PreconditionError,
    TwinsError,
    canonical_form,
    graph_from_edge_mask,
    induced_subgraph,
    is_connected,
    is_twin_free,
    power,
    twin_pairs,
)
from idcodes.scans import _sweep


def test_removable_vertex_examples():
    assert removable_vertex_in_ball(path_graph(4), 0) == 0
    assert removable_vertex_in_ball(star_graph(3), 0) == 0
    # removing the returned vertex must leave the power twin-free
    for g in [path_graph(6), cycle_graph(7), band_graph(3)]:
        for r in (1, 2):
            pg = power(g, r)
            if not is_twin_free(pg):
                continue
            for x in range(g.n):
                y = removable_vertex_in_ball(g, x, r)
                assert y in brute.naive_ball(g, x, r)
                reduced = induced_subgraph(pg, set(range(pg.n)) - {y})
                assert is_twin_free(reduced)


def test_removable_vertex_is_least_valid_choice():
    for g in filter(is_twin_free, brute.labeled_graphs(5)):
        for x in range(g.n):
            y = removable_vertex_in_ball(g, x)
            for candidate in sorted(brute.naive_ball(g, x, 1)):
                reduced = induced_subgraph(g, set(range(g.n)) - {candidate})
                ok = is_twin_free(reduced)
                if candidate == y:
                    assert ok
                    break
                assert not ok
    # radius 2: the returned vertex is the least one of the radius-2 ball
    # whose deletion from the square leaves it twin-free
    checked = 0
    for n in range(1, 6):
        for g in filter(lambda h: is_twin_free(power(h, 2)), brute.labeled_graphs(n)):
            square = power(g, 2)
            for x in range(g.n):
                expected = min(
                    y
                    for y in brute.naive_ball(g, x, 2)
                    if is_twin_free(induced_subgraph(square, set(range(g.n)) - {y}))
                )
                assert removable_vertex_in_ball(g, x, 2) == expected
                checked += 1
    assert checked > 0


def test_removable_vertex_totality_small():
    for n in (1, 2, 3, 4, 5):
        for g in filter(is_twin_free, brute.labeled_graphs(n)):
            for x in range(g.n):
                removable_vertex_in_ball(g, x)


def test_removable_vertex_precondition():
    with pytest.raises(PreconditionError):
        removable_vertex_in_ball(complete_graph(3), 0)


def test_greedy_independent_set_examples():
    assert greedy_independent_set(path_graph(4), 4) == {0}
    assert greedy_independent_set(cycle_graph(7), 3) == {0, 3}
    for g in [path_graph(5), petersen_graph()]:
        assert greedy_independent_set(g, 1) == set(range(g.n))
    with pytest.raises(ValueError):
        greedy_independent_set(path_graph(3), 0)


def test_greedy_independent_set_is_maximal_and_spread():
    for g in [cycle_graph(9), petersen_graph(), band_graph(4)]:
        for d in (2, 3, 4):
            chosen = greedy_independent_set(g, d)
            members = sorted(chosen)
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    dist = brute.naive_distance(g, u, v)
                    assert dist is None or dist >= d
            # maximality: everything sits within distance d-1 of the set
            for v in range(g.n):
                assert any(
                    (lambda dd: dd is not None and dd <= d - 1)(
                        brute.naive_distance(g, u, v)
                    )
                    for u in chosen
                )


def test_greedy_independent_set_matches_naive_greedy_on_wide_graphs():
    # 216 to 1,920 vertices, against the greedy in index order over dict BFS
    # balls: a vertex joins when no member lies within distance d - 1.  The
    # sparse graph has many components, and each adds its least vertex,
    # which nothing in another component can cover
    graphs = [random_blob_ring(0, 9), random_blob_ring(2, 20), random_sparse_graph(3, 1920, 3)]
    for g in graphs:
        adj = brute.adjacency(g)
        for d in (1, 2, 4, 6, 11, 16):
            chosen, covered = [], set()
            for v in range(g.n):
                if v not in covered:
                    chosen.append(v)
                    covered |= brute.adjacency_ball(adj, v, d - 1)
            assert greedy_independent_set(g, d) == set(chosen), (g.n, d)
    components = {min(brute.adjacency_ball(adj, v, -1)) for v in range(g.n)}
    assert len(components) > 100 and components <= greedy_independent_set(g, 16)


def test_code_from_independent_set_examples():
    assert code_from_independent_set(path_graph(4), [0]) == {1, 2, 3}
    c9 = code_from_independent_set(cycle_graph(9), [0, 4])
    assert c9 == {1, 2, 3, 5, 6, 7, 8}
    assert brute.naive_is_identifying(cycle_graph(9), c9)


def test_code_from_independent_set_distance_three_fails():
    # the two path ends are individually removable, but not jointly:
    # distance 3 violates the spacing requirement, and the complement
    # really is not an identifying code
    g = path_graph(4)
    assert brute.naive_is_identifying(g, {1, 2, 3})
    assert brute.naive_is_identifying(g, {0, 1, 2})
    with pytest.raises(PreconditionError):
        code_from_independent_set(g, [0, 3])
    assert not brute.naive_is_identifying(g, {1, 2})


def test_code_from_independent_set_names_the_first_close_pair():
    # on the 20-path at r = 1, 0-3 and 9-11 are both closer than 4; the
    # refusal names the pair of the least member, with its least partner
    with pytest.raises(PreconditionError) as exc:
        code_from_independent_set(path_graph(20), [19, 11, 3, 9, 0])
    assert str(exc.value) == "vertices 0 and 3 are closer than 4; the set is not 4-independent"
    with pytest.raises(PreconditionError) as exc:
        code_from_independent_set(path_graph(20), [19, 11, 9, 4])
    assert str(exc.value) == "vertices 9 and 11 are closer than 4; the set is not 4-independent"


def test_code_from_independent_set_rejects_bad_member():
    # the middle of a 5-path is not individually removable
    with pytest.raises(PreconditionError) as exc:
        code_from_independent_set(path_graph(5), [2])
    assert "vertex 2" in str(exc.value)


def test_code_from_independent_set_radius_transfer():
    g = path_graph(12)
    chosen = [0, 11]
    at_r = code_from_independent_set(g, chosen, 2)
    on_power = code_from_independent_set(power(g, 2), chosen, 1)
    assert at_r == on_power
    assert brute.naive_is_identifying(g, at_r, 2)


def test_ball_size_limit():
    assert ball_size_limit(3, 5) == 94  # (3 * 2^5 - 2) / (3 - 2)
    assert ball_size_limit(3, 3) == 22  # 1 + 3 - 9 + 27
    assert ball_size_limit(2, 4) == 9  # a path ball: defined where the
    assert ball_size_limit(0, 3) == 1  # closed form would divide by zero
    assert ball_size_limit(1, 5) == 2  # a single matching edge
    with pytest.raises(ValueError, match="^arguments must be non-negative$"):
        ball_size_limit(-1, 1)
    # agrees with the closed form whenever that form is defined
    for delta in (3, 4, 5):
        for radius in (1, 2, 5):
            closed_form = Fraction(delta * (delta - 1) ** radius - 2, delta - 2)
            assert ball_size_limit(delta, radius) == closed_form


def test_constructive_upper_bound_on_cycles():
    report = constructive_upper_bound(cycle_graph(50))
    assert report.theorem == "thm14" and report.radius == 1
    assert report.bound_value is None  # max degree 2
    assert len(report.code) <= 49
    assert check_code(cycle_graph(50), report.code, "identifying").valid
    assert len(report.code) == 50 - len(report.mapped_set)
    assert len(report.mapped_set) == len(report.independent_set)


def test_constructive_upper_bound_small_diameter():
    # diameter below the spread gives a single chosen vertex
    report = constructive_upper_bound(petersen_graph())
    assert len(report.independent_set) == 1
    assert len(report.code) == 9
    assert check_code(petersen_graph(), report.code, "identifying").valid
    assert report.bound_value == Fraction(10 * 93, 94)
    assert report.bound_ceiling() == 10


def test_constructive_upper_bound_bound_value_formula():
    g = random_bounded_degree_graph(2)
    report = constructive_upper_bound(g)
    delta = g.max_degree()
    expected = g.n * (1 - Fraction(delta - 2, delta * (delta - 1) ** 5 - 2))
    assert report.bound_value == expected
    assert len(report.code) <= math.ceil(expected)


def test_constructive_upper_bound_radius_two():
    g = cycle_graph(40)
    report = constructive_upper_bound(g, 2)
    assert report.theorem == "thm19"
    assert check_code(g, report.code, "identifying", 2).valid
    assert report.bound_value is None


def test_constructive_upper_bound_preconditions():
    with pytest.raises(PreconditionError):
        constructive_upper_bound(complete_graph(4))  # twins
    with pytest.raises(PreconditionError):
        constructive_upper_bound(band_graph(1))  # disconnected
    # the greedy set comes before the connectivity check, and each component
    # gives it a member, so every radius still refuses a disconnected graph,
    # before the twins that K2's balls have at every radius
    c7 = cycle_graph(7).edges()
    two_c7 = Graph(14, c7 + [(u + 7, v + 7) for u, v in c7])
    c7_and_k1 = Graph(8, c7)
    c7_and_k2 = Graph(9, c7 + [(7, 8)])
    assert twin_pairs(power(c7_and_k2, 2)) == [(7, 8)]
    for g in (two_c7, c7_and_k1, c7_and_k2, Graph(2)):
        for r in (1, 2, 3):
            with pytest.raises(PreconditionError, match="^the pipeline is defined for connected graphs$") as exc:
                constructive_upper_bound(g, r)
            assert not isinstance(exc.value, TwinsError)
    with pytest.raises(PreconditionError, match="^the pipeline needs at least 2 vertices$"):
        constructive_upper_bound(Graph(1))


def test_pipeline_tests_connectivity_only_past_one_greedy_member(monkeypatch):
    # a greedy set {0} means B_5r(0) = V, which already shows g connected;
    # with two or more members the pipeline asks is_connected once, and the
    # regular variant always does
    calls = []

    def counting(g, real=bound.is_connected):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(bound, "is_connected", counting)
    cases = [
        (petersen_graph(), 1, 1),
        (cycle_graph(20), 2, 1),
        (cycle_graph(30), 3, 1),
        (cycle_graph(40), 1, 6),
        (cycle_graph(40), 2, 3),
        (random_blob_ring(3, 9), 3, 3),
    ]
    for g, r, members in cases:
        calls.clear()
        report = constructive_upper_bound(g, r)
        assert len(report.independent_set) == members, (g.n, r)
        assert calls == ([] if members == 1 else [g.n])
    c7 = cycle_graph(7).edges()
    calls.clear()
    with pytest.raises(PreconditionError, match="connected graphs"):
        constructive_upper_bound(Graph(14, c7 + [(u + 7, v + 7) for u, v in c7]))
    assert calls == [14]
    calls.clear()
    regular_constructive_bound(petersen_graph())
    assert calls == [10]


def test_regular_variant():
    report = regular_constructive_bound(cycle_graph(9))
    assert report.theorem == "thm15"
    assert report.bound_value is None
    assert report.code == {1, 2, 3, 5, 6, 7, 8}
    pet = regular_constructive_bound(petersen_graph())
    assert pet.bound_value == Fraction(10 * 21, 22)
    assert pet.bound_ceiling() == 10
    assert len(pet.code) <= 10
    assert check_code(petersen_graph(), pet.code, "identifying").valid
    assert pet.mapped_set == pet.independent_set
    with pytest.raises(PreconditionError):
        regular_constructive_bound(path_graph(4))  # not regular


def test_pipeline_on_seeded_random_graphs():
    for seed in range(6):
        g = random_bounded_degree_graph(seed)
        delta = g.max_degree()
        report = constructive_upper_bound(g)
        assert check_code(g, report.code, "identifying").valid
        assert len(report.code) <= report.bound_ceiling()
        # size guarantee steps: maximality coverage and the two inequalities
        chosen = sorted(report.independent_set)
        cover = set()
        for u in chosen:
            cover |= brute.naive_ball(g, u, 5)
        assert cover == set(range(g.n))
        biggest_ball = max(len(brute.naive_ball(g, x, 5)) for x in range(g.n))
        assert len(chosen) * biggest_ball >= g.n
        assert biggest_ball <= ball_size_limit(delta, 5)


def test_greedy_set_packs_at_most_one_ball_per_member():
    # why the ceilings hold: a greedy set whose members lie `spacing` apart
    # excludes one radius-(spacing - 1) ball per member, so it has at least
    # n / ball_size_limit(D, spacing - 1) members, and the code at most
    # n - n / ball_size_limit(D, spacing - 1) vertices; the c09 graphs
    graphs = [random_bounded_degree_graph(seed) for seed in range(20)]
    graphs += [cycle_graph(9), cycle_graph(50), petersen_graph()]
    for g in graphs:
        delta = g.max_degree()
        reports = []
        for radius in (1, 2):
            try:
                reports.append((constructive_upper_bound(g, radius), 5 * radius + 1))
            except TwinsError:  # the radius-2 power of some seeded graphs has twins
                assert radius == 2
        if len(set(g.degrees())) == 1:
            reports.append((regular_constructive_bound(g), 4))
        for report, spacing in reports:
            assert len(report.independent_set) * ball_size_limit(delta, spacing - 1) >= g.n
            if delta >= 3:
                assert len(report.code) <= report.bound_value
            else:
                assert report.bound_value is None


def test_radius_below_one_rejected_before_any_work():
    for radius in (0, -1):
        with pytest.raises(ValueError, match="^radius must be >= 1$") as exc:
            removable_vertex_in_ball(path_graph(4), 0, radius)
        assert exc.type is ValueError
        with pytest.raises(ValueError, match="^radius must be >= 1$") as exc:
            code_from_independent_set(cycle_graph(9), [0, 4], radius)
        assert exc.type is ValueError
        # the radius is checked before the vertices
        with pytest.raises(ValueError, match="^radius must be >= 1$"):
            removable_vertex_in_ball(path_graph(4), 9, radius)
        with pytest.raises(ValueError, match="^radius must be >= 1$"):
            code_from_independent_set(path_graph(4), [9], radius)


def test_removable_vertex_matches_naive_oracle():
    # every labeled graph on up to 5 vertices, and every class on 6 from the
    # scans' class generator under a seeded relabeling, at radii 1-3
    # wherever the power is twin-free: the answer is the least y of the
    # naive ball for which all vertices but y separate in the naive sense
    rng = random.Random(7)
    graphs = [g for n in range(1, 6) for g in brute.labeled_graphs(n)]
    for _, _, cn in _sweep(6, 6):
        g = graph_from_edge_mask(6, canonical_form(Graph._from_masks(cn)))
        perm = list(range(6))
        rng.shuffle(perm)
        graphs.append(Graph(6, [(perm[u], perm[v]) for u, v in g.edges()]))
    checked = 0
    for g in graphs:
        everything = set(range(g.n))
        for r in (1, 2, 3):
            balls = [brute.naive_ball(g, x, r) for x in range(g.n)]
            if len({frozenset(b) for b in balls}) != g.n:
                with pytest.raises(PreconditionError):
                    removable_vertex_in_ball(g, 0, r)
                continue
            for x in range(g.n):
                expected = next(
                    y
                    for y in sorted(balls[x])
                    if brute.naive_is_separating(g, everything - {y}, r)
                )
                assert removable_vertex_in_ball(g, x, r) == expected, (g, x, r)
                checked += 1
    assert checked > 3000


def _composition_outcome(g, chosen, r):
    try:
        return ("ok", set(code_from_independent_set(g, chosen, r)))
    except PreconditionError as err:
        return ("error", str(err), getattr(err, "certificate", None))


def _expected_outcome(g, chosen, r):
    """What the per-member route says, with the message and certificate
    that ``codes.check_code`` gives on the first failing member."""
    naive = brute.naive_code_from_set(g, chosen, r)
    everything = set(range(g.n))
    if naive[0] == "ok":
        return naive
    if naive[0] == "spacing":
        u, v = naive[1:]
        spread = 3 * r + 1
        msg = f"vertices {u} and {v} are closer than {spread}; the set is not {spread}-independent"
        return ("error", msg, None)
    if naive[0] == "member":
        v = naive[1]
        cert = check_code(g, everything - {v}, "identifying", r)
        msg = f"removing vertex {v} alone does not leave an identifying code: {cert.to_dict()['witness']}"
        return ("error", msg, cert)
    cert = check_code(g, everything - set(chosen), "identifying", r)
    return ("error", f"the complement of the set fails to identify: {cert.to_dict()['witness']}", cert)


def test_code_from_independent_set_matches_per_member_oracle():
    twins = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])  # 0 and 1 are twins
    isolated = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)])  # 5 is isolated
    cases = [
        (twins, [4], 1),
        (twins, [], 1),
        (isolated, [5], 1),
        (isolated, [0, 5], 1),
        (path_graph(5), [2], 1),  # the middle of a 5-path is not removable
        (path_graph(9), [0, 4], 1),
        (cycle_graph(9), [0, 4], 1),
        (path_graph(12), [0, 11], 2),
        (path_graph(4), [0, 3], 1),
        (star_graph(4), [0], 1),
    ]
    rng = random.Random(14)
    for _ in range(600):
        n = rng.randrange(1, 12)
        p = rng.choice((0.1, 0.2, 0.35, 0.6))
        g = Graph(n, gnp_edges(rng, n, p))
        chosen = rng.sample(range(n), rng.randrange(0, min(n, 3) + 1))
        cases.append((g, chosen, rng.choice((1, 1, 2, 3))))
    kinds = set()
    for g, chosen, r in cases:
        expected = _expected_outcome(g, chosen, r)
        assert _composition_outcome(g, chosen, r) == expected, (g, chosen, r)
        kinds.add(expected[1].split()[0] if expected[0] == "error" else "ok")
    # the oracle saw codes, spacing failures, member failures and a twin graph
    assert kinds == {"ok", "vertices", "removing", "the"}
    assert _expected_outcome(isolated, [5], 1)[2].witness_vertex == 5
    assert _expected_outcome(twins, [4], 1)[2].witness_pair == (0, 1)


@pytest.mark.parametrize("seed", range(6))
def test_pipelines_match_naive_route_on_larger_graphs(seed):
    # 100-400 vertices: random near-regular graphs (small diameter, so one
    # or two members at radius 2 and 3) and rings of cubic blobs (large
    # diameter, several members at every radius)
    graphs = [random_bounded_degree_graph(seed, 100, 400), random_blob_ring(seed, 5 + 2 * seed)]
    compared = 0
    for g in graphs:
        regular = len(set(g.degrees())) == 1
        for r, variant in [(1, False), (2, False), (3, False)] + [(1, True)] * regular:
            expected = brute.naive_constructive_bound(g, r, variant)
            try:
                report = regular_constructive_bound(g) if variant else constructive_upper_bound(g, r)
                got = report.to_dict()
            except PreconditionError:
                got = None
            assert got == expected, (seed, g.n, r, variant)
            if got is None:
                continue
            compared += 1
            # what the construction guarantees without a per-member check:
            # the images are (3r+1)-apart, each lies within r of its own
            # preimage, and all vertices but any one image identify
            # (dict BFS balls: a naive_distance call per pair takes seconds
            # at 400 vertices)
            adj = brute.adjacency(g)
            everything = set(range(g.n))
            owners = []
            for y in report.mapped_set:
                assert brute.adjacency_ball(adj, y, 3 * r) & report.mapped_set == {y}
                near = brute.adjacency_ball(adj, y, r) & report.independent_set
                assert len(near) == 1
                owners += near
                assert brute.naive_is_identifying(g, everything - {y}, r)
            assert sorted(owners) == sorted(report.independent_set)
    assert compared >= 4


def test_pipelines_certify_the_code_they_return(monkeypatch):
    # with the mapping step or the greedy set broken, only the final
    # certification stands between the pipelines and a non-code
    g = path_graph(5)
    monkeypatch.setattr(bound, "_least_removable", lambda balls, index, x: 2)
    with pytest.raises(PreconditionError) as exc:
        constructive_upper_bound(g)
    cert = check_code(g, {0, 1, 3, 4}, "identifying")
    assert not cert.valid and exc.value.certificate == cert
    assert str(exc.value) == (
        f"the complement of the set fails to identify: {cert.to_dict()['witness']}"
    )
    # at r >= 2 the pipeline's balls are not the closed neighbourhoods, and
    # the certificate on them is the one the public checker builds afresh;
    # the path on 2r + 1 vertices has a twin-free r-th power in which
    # B(0) and B(1) differ in r + 1 alone
    for r in (2, 3):
        g = path_graph(2 * r + 1)
        monkeypatch.setattr(bound, "_least_removable", lambda balls, index, x, y=r + 1: y)
        with pytest.raises(PreconditionError) as exc:
            constructive_upper_bound(g, r)
        cert = check_code(g, set(range(g.n)) - {r + 1}, "identifying", r)
        assert cert.witness_pair == (0, 1) and exc.value.certificate == cert
        assert str(exc.value) == (
            f"the complement of the set fails to identify: {cert.to_dict()['witness']}"
        )
    c9 = cycle_graph(9)
    monkeypatch.setattr(bound, "greedy_independent_set", lambda h, d: frozenset({0, 1, 2}))
    with pytest.raises(PreconditionError) as exc:
        regular_constructive_bound(c9)
    cert = check_code(c9, set(range(3, 9)), "identifying")
    assert cert.witness_vertex == 1 and exc.value.certificate == cert
    assert str(exc.value) == "the complement of the set fails to identify: {'undominated': 1}"


def test_pipelines_certify_only_to_name_a_witness(monkeypatch):
    # a returned code is accepted on the signatures the removed set changes,
    # without the certifier; each refusal runs it once, to name the witness
    from idcodes import codes

    calls = []
    certify = codes._certify

    def counting(*args):
        calls.append(args[0])
        return certify(*args)

    monkeypatch.setattr(codes, "_certify", counting)
    graphs = [random_blob_ring(seed, 4) for seed in range(2)]
    graphs += [random_bounded_degree_graph(seed) for seed in range(20)]
    graphs += [cycle_graph(9), cycle_graph(50), petersen_graph()]
    returned = 0
    for g in graphs:
        reports = []
        for r in (1, 2, 3):
            try:
                reports.append(constructive_upper_bound(g, r))
            except TwinsError:  # some small graphs have twins past r = 1
                assert r > 1
        if len(set(g.degrees())) == 1:
            reports.append(regular_constructive_bound(g))
        for report in reports:
            code = code_from_independent_set(g, report.mapped_set, report.radius)
            assert code == report.code
            returned += 2
        assert calls == [], g
    assert returned > 100
    g = path_graph(5)
    monkeypatch.setattr(bound, "_least_removable", lambda balls, index, x: 2)
    with pytest.raises(PreconditionError):
        constructive_upper_bound(g)
    assert calls == ["identifying"]
    for r in (2, 3):
        calls.clear()
        monkeypatch.setattr(bound, "_least_removable", lambda balls, index, x, y=r + 1: y)
        with pytest.raises(PreconditionError):
            constructive_upper_bound(path_graph(2 * r + 1), r)
        assert calls == ["identifying"]
    calls.clear()
    monkeypatch.setattr(bound, "greedy_independent_set", lambda h, d: frozenset({0, 1, 2}))
    with pytest.raises(PreconditionError):
        regular_constructive_bound(cycle_graph(9))
    assert calls == ["identifying"]


def test_each_pipeline_builds_its_balls_once(monkeypatch):
    # the final certificate runs on the pipeline's own balls; count builds
    # through both names the certificate path could reach them by
    from idcodes import codes, graph

    calls = []

    def counting(g, r):
        calls.append(r)
        return graph._balls(g, r)

    monkeypatch.setattr(bound, "_balls", counting)
    monkeypatch.setattr(codes, "_balls", counting)
    g = random_blob_ring(3, 9)
    for r in (2, 3):
        calls.clear()
        report = constructive_upper_bound(g, r)
        assert calls == [r] and len(report.mapped_set) >= 2
    # 0 and 12 hang off vertex 1, so their radius-2 balls agree: the
    # complement fails, and the members are certified on the same balls
    pendant = Graph(13, [(i, i + 1) for i in range(11)] + [(1, 12)])
    calls.clear()
    with pytest.raises(PreconditionError, match="^removing vertex 2 alone"):
        code_from_independent_set(pendant, [2, 9], 2)
    assert calls == [2]
    for h in (cycle_graph(40), petersen_graph()):
        calls.clear()
        regular_constructive_bound(h)
        assert len(calls) <= 1
