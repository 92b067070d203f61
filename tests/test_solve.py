"""Exact solvers: frozen minima, forced-vertex pruning, one table-driven
comparison with the naive all-subsets oracle and the ascending-combination
oracle (minima, least codes, ``explored`` counts and every minimum set),
the order-free proof's verdicts against every subset, pinned counts and
closed forms beyond the oracles' range, and code extension."""

import itertools
import math
import random
import sys
from collections import Counter

import pytest

import brute
from randgraphs import gnp_edges, random_connected_twin_free_gnp
from idcodes import solve
from idcodes.bound import constructive_upper_bound, regular_constructive_bound
from idcodes.classify import classify_extremal
from idcodes.codes import KINDS, check_code
from idcodes.families import (
    band_graph,
    complete_graph,
    cycle_graph,
    join_family,
    path_graph,
    petersen_graph,
    star_graph,
)
from idcodes.graph import (
    Graph,
    PreconditionError,
    TwinsError,
    _balls,
    _bit_indices,
    induced_subgraph,
    is_connected,
    is_twin_free,
    join,
    twin_pairs,
)
from idcodes.scans import _gamma_id_level, _sweep, scan_gamma_chain
from idcodes.solve import (
    _combination_rank,
    _constraints,
    _has_hitting_set,
    _hitting_sets,
    _split_classes,
    enumerate_minimum_separating_sets,
    extend_code,
    forced_vertices,
    solve_minimum,
)


def test_forced_vertices_examples():
    for k in range(1, 5):
        assert forced_vertices(band_graph(k)) == set(range(1, 2 * k - 1))
    for t in range(3, 6):
        assert forced_vertices(star_graph(t)) == set()
    assert forced_vertices(star_graph(2)) == {1, 2}
    with pytest.raises(ValueError, match="^radius must be >= 1$"):
        forced_vertices(path_graph(4), 0)
    with pytest.raises(ValueError, match="^unknown code kind 'bogus'"):
        solve_minimum(path_graph(4), "bogus")


def test_min_identifying_frozen_values():
    assert solve_minimum(band_graph(3), "identifying").minimum == 5
    assert solve_minimum(star_graph(4), "identifying").minimum == 4
    assert solve_minimum(cycle_graph(4), "identifying").minimum == 3
    assert solve_minimum(path_graph(5), "identifying").minimum == 3


def test_min_identifying_report_contract():
    r = solve_minimum(band_graph(3), "identifying")
    assert r.kind == "identifying" and r.radius == 1
    assert r.forced <= r.example_code
    assert brute.naive_is_identifying(band_graph(3), r.example_code)
    assert r.explored >= 1


def test_separating_values():
    one = band_graph(1)  # two isolated vertices
    assert solve_minimum(one, "separating").minimum == 1
    assert solve_minimum(one, "identifying").minimum == 2
    for k in range(1, 5):
        assert solve_minimum(band_graph(k), "separating").minimum == 2 * k - 1


def test_locating_dominating_and_dominating():
    assert solve_minimum(star_graph(3), "locating-dominating").minimum == 3
    assert solve_minimum(star_graph(5), "dominating").minimum == 1
    assert solve_minimum(path_graph(6), "dominating").minimum == 2
    assert solve_minimum(complete_graph(4), "locating-dominating").minimum == 3


def _random_graphs(seed: int, count: int, max_n: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        p = rng.choice((0.15, 0.3, 0.5, 0.7))
        yield Graph(n, gnp_edges(rng, n, p))


def _check_solver(graphs, radii, kinds, oracle: str) -> int:
    """Check one row (graphs, radii, kinds, oracle) of the solver's oracle
    table, and return the most candidate subsets of any size decided.

    The "naive" oracle tries every subset from size 0; the "ascending" one
    every superset of the forced vertices from the counting bound, and also
    counts ``explored``; "every" is the ascending oracle against every
    minimum set that ``_solve_graph`` lists.  The minimum, the
    lexicographically least code and the separating sets must be the
    oracle's, and a graph with no code at all must raise TwinsError."""
    largest = 0
    for g, r, kind in itertools.product(graphs, radii, kinds):
        if oracle == "naive":
            every = brute.naive_all_minimum(g, kind, r)
            expected = every and (len(every[0]), every[0], None, every)
        else:
            expected = brute.ascending_search(g, kind, r)
        if not expected:
            with pytest.raises(TwinsError):
                solve_minimum(g, kind, r)
            continue
        size, least, explored, every = expected
        if oracle == "every":
            report, sets = solve._solve_graph(g, kind, r)
            assert list(sets) == [sorted(c) for c in every], (g, kind, r)
            base = len(report.forced)
            largest = max(largest, math.comb(g.n - base, size - base))
        else:
            report = solve_minimum(g, kind, r)
            if kind == "separating":
                assert enumerate_minimum_separating_sets(g, r) == every, (g, r)
        assert (report.minimum, set(report.example_code)) == (size, least), (g, kind, r)
        assert explored in (None, report.explored), (g, kind, r)
    return largest


def test_example_code_is_lexicographically_least():
    _check_solver([path_graph(5), cycle_graph(5), star_graph(3), band_graph(2)], (1,), ("identifying",), "naive")


def test_all_kinds_match_naive_oracle_exhaustively():
    _check_solver(brute.labeled_graphs(4), (1,), KINDS, "naive")


def test_solver_matches_oracle_on_random_5_and_6_vertex_graphs():
    rng = random.Random(23)
    graphs = [Graph(n := rng.choice((5, 6)), gnp_edges(rng, n, 0.5)) for _ in range(25)]
    _check_solver(graphs, (1,), KINDS, "naive")


def test_radius_two_solving():
    # the square of the 4-path is complete, so radius 2 has no code there
    _check_solver([path_graph(6), path_graph(4)], (2,), ("identifying",), "naive")


def test_enumerate_minimum_sets_matches_naive():
    _check_solver(filter(is_twin_free, brute.labeled_graphs(4)), (1,), ("separating",), "naive")


def test_search_matches_ascending_oracle_on_random_graphs():
    _check_solver(_random_graphs(404, 90, 12), (1, 2), KINDS, "ascending")


def test_proof_at_every_size_keeps_the_answers():
    # the order-free proof decides every size, however few its candidate
    # subsets
    _check_solver(_random_graphs(410, 30, 12), (1, 2), KINDS, "ascending")


def test_enumerate_minimum_sets_matches_ascending_oracle():
    _check_solver(_random_graphs(405, 60, 12), (1, 2), ("separating",), "ascending")


def test_search_matches_ascending_oracle_past_a_thousand_subsets():
    # graphs large enough that some of the sizes the solver decides have
    # 1000 or more candidate subsets, so no threshold on the size of a
    # search can hide from it
    rng = random.Random(412)
    graphs = [Graph(n, gnp_edges(rng, n, p)) for n in range(13, 17) for p in (0.15, 0.25, 0.4)]
    assert _check_solver(graphs, (1, 2), KINDS, "every") >= 1000


def _need(m: int, kind: str) -> int:
    """The fewest further code vertices that can tell m members of one
    signature class apart: the least t with 2^t ≥ m, or 2^t + t ≥ m for
    locating-dominating sets, where up to t members may join the code."""
    ld = kind == "locating-dominating"
    return next(t for t in itertools.count() if (1 << t) + ld * t >= m)


def _split_tables(balls: list[int], kind: str):
    """The tables ``_split_classes`` reads for ``kind``: each vertex's
    ball, less the vertex itself for locating-dominating sets, whose code
    vertices leave their class, and the capacity per budget."""
    ld = kind == "locating-dominating"
    return [b & ~(ld << v) for v, b in enumerate(balls)], solve._capacity(len(balls), ld)


def _fold_split(balls: list[int], chosen, kind: str):
    """``_split_classes`` over the vertices of ``chosen`` in order, from the
    one class of every vertex, which also holds bit n for identifying codes
    and locating-dominating sets, at a budget no step falls short of, as
    ``_constraints`` folds its forced vertices: the classes, stopping once
    a step leaves none."""
    n = len(balls)
    tables = _split_tables(balls, kind)
    classes = [(1 << n + (kind != "separating")) - 1]
    for v in chosen:
        classes = _split_classes(classes, tables, 1 << v, n)
        if not classes:
            break
    return classes


def _split_need(balls: list[int], chosen, kind: str):
    """The least budget at which ``_split_classes`` keeps the last vertex
    of ``chosen`` as a child of the others, or None when the others leave
    no class, so no child of theirs is split."""
    classes = _fold_split(balls, chosen[:-1], kind)
    if not classes:
        return None
    tables = _split_tables(balls, kind)
    vertex = 1 << chosen[-1]
    return next(
        b for b in range(len(balls) + 1) if _split_classes(classes, tables, vertex, b) is not None
    )


def _signature_classes(ball_sets, chosen, kind: str) -> list[int]:
    """The vertices grouped directly by signature B(x) ∩ chosen, as masks,
    with bit n in the group of the empty signature for identifying codes
    and locating-dominating sets, that group kept even without a vertex;
    for locating-dominating sets the chosen vertices are in no group."""
    n = len(ball_sets)
    groups: dict[frozenset, int] = {frozenset(): (kind != "separating") << n}
    for x in range(n):
        if kind == "locating-dominating" and x in chosen:
            continue
        key = frozenset(ball_sets[x] & set(chosen))
        groups[key] = groups.get(key, 0) | 1 << x
    return list(groups.values())


SPLIT_KINDS = ("identifying", "separating", "locating-dominating")


def test_split_need_never_exceeds_the_least_completion():
    # soundness of the signature-split cut: for every chosen prefix the
    # classes are those of more than capacity[2] members (4, or 6 for
    # locating-dominating sets, bit n counted) in a direct grouping by
    # signature while the need is three or more, and dropped below that;
    # the least budget that keeps the last vertex is the grouping's need
    # wherever it could cut a node (three or more), and a budget of the
    # fewest further vertices, drawn from anywhere outside the prefix,
    # that make a valid set never cuts it; a completion restricted to a
    # suffix of the search order is never smaller.  Once the classes are
    # dropped, no later prefix needs three or more.
    for g in _random_graphs(406, 40, 8):
        n = g.n
        for r in (1, 2):
            ball_sets = [brute.naive_ball(g, x, r) for x in range(n)]
            balls = [sum(1 << v for v in b) for b in ball_sets]
            for kind in SPLIT_KINDS:
                small = 6 if kind == "locating-dominating" else 4
                least = [math.inf] * (1 << n)
                for code in reversed(range(1 << n)):
                    members = {v for v in range(n) if code >> v & 1}
                    if brute.signatures_ok(kind, [frozenset(b & members) for b in ball_sets], members):
                        least[code] = 0
                    else:
                        least[code] = min(
                            (least[code | 1 << v] + 1 for v in range(n) if not code >> v & 1),
                            default=math.inf,
                        )
                for code in range(1, 1 << n):
                    chosen = [v for v in range(n) if code >> v & 1]
                    groups = _signature_classes(ball_sets, chosen, kind)
                    grouped = max(_need(c.bit_count(), kind) for c in groups)
                    need = _split_need(balls, chosen, kind)
                    if need is None:
                        assert grouped <= 2, (g, r, kind, chosen)
                        continue
                    classes = _fold_split(balls, chosen, kind)
                    expected = [c for c in groups if c.bit_count() > small]
                    assert sorted(classes) == sorted(expected), (g, r, kind, chosen)
                    assert bool(classes) == (grouped > 2)
                    assert need == grouped if grouped > 2 else need <= grouped
                    assert need <= least[code], (g, r, kind, chosen)


def test_constraints_start_the_split_at_the_forced_signature_classes():
    # the split cut's starting classes, against a direct grouping of the
    # vertices by their signature on the forced set: the groups of more
    # than 4 members (6 for locating-dominating sets), with bit n, the
    # empty signature itself, in the empty group for identifying codes and
    # locating-dominating sets, and no class when no group is that large;
    # the tables beside a class are each vertex's ball, less the vertex
    # itself for locating-dominating sets, and the capacity per budget;
    # dominating sets get no class
    for g in _random_graphs(410, 80, 12):
        n = g.n
        for r in (1, 2):
            ball_sets = [brute.naive_ball(g, x, r) for x in range(n)]
            balls = [sum(1 << v for v in b) for b in ball_sets]
            for kind in KINDS:
                _, forced, _, (tables, classes) = _constraints(balls, kind)
                ld = kind == "locating-dominating"
                groups = _signature_classes(ball_sets, _bit_indices(forced), kind)
                expected = [c for c in groups if c.bit_count() > (6 if ld else 4)]
                if kind == "dominating":
                    expected = []
                assert sorted(classes) == sorted(expected), (g, r, kind)
                if classes:
                    inside, capacity = tables
                    assert inside == [b & ~(ld << v) for v, b in enumerate(balls)], (g, r, kind)
                    assert capacity == tuple((1 << b) + ld * b for b in range(n + 3))
    # the path on 8 vertices: forced {2, 5} leave the classes {1, 2, 3},
    # {4, 5, 6} and {0, 7} of the empty signature (with bit 8 for
    # identifying codes), none of five or more, so there is no class;
    # locating-dominating sets force nothing and start from the one class
    # of all 8 vertices and bit 8
    balls = list(path_graph(8)._cn)
    for kind in KINDS:
        _, forced, _, (_, classes) = _constraints(balls, kind)
        if kind in ("identifying", "separating"):
            assert (forced, classes) == (1 << 2 | 1 << 5, []), kind
        elif kind == "locating-dominating":
            assert (forced, classes) == (0, [(1 << 9) - 1]), kind
        else:
            assert classes == [], kind
    # with nothing forced, the smallest graphs carry no class, and build no
    # tables: the one class of every vertex (with bit n for identifying
    # codes and locating-dominating sets) is too small to cut, so two
    # vertices could tell it apart, and the search starts at size 2; one
    # vertex more, and the class needs three and is carried
    for n, kind in ((3, "identifying"), (4, "separating"), (5, "locating-dominating")):
        assert _constraints(list(Graph(n)._cn), kind)[1:] == (0, 2, (None, [])), (n, kind)
        _, forced, start, (_, classes) = _constraints(list(Graph(n + 1)._cn), kind)
        assert (forced, start) == (0, 3) and classes, (n, kind)


def test_split_need_after_one_vertex():
    # strength of the signature-split cut: after one code vertex w the
    # classes are B(w) and the undominated rest, so the need is
    # max(⌈log₂|B(w)|⌉, ⌈log₂(|V ∖ B(w)| + 1)⌉) for identifying codes and
    # max(⌈log₂|B(w)|⌉, ⌈log₂|V ∖ B(w)|⌉) for separating sets.  For
    # locating-dominating sets w leaves B(w), and the need is the larger of
    # the least t with 2^t + t ≥ |B(w)| − 1 and with 2^t + t ≥
    # |V ∖ B(w)| + 1.  A cut that dropped either part of a split would fall
    # short of these.
    hand = [
        # (graph, chosen, identifying need, separating need, ld need)
        (star_graph(7), [0], 3, 3, 3),  # B(0) is all 8 vertices; none left over
        (path_graph(7), [1], 3, 2, 2),  # B(1) = {0, 1, 2}; 4 left over: ⌈log₂ 5⌉, ⌈log₂ 4⌉
        (cycle_graph(8), [0], 3, 3, 2),  # 3 in the ball; 5 left over: ⌈log₂ 6⌉, ⌈log₂ 5⌉
        (Graph(5), [2], 3, 2, 2),  # B(2) = {2} needs nothing; 4 left over
        (band_graph(3), [2], 3, 3, 2),  # B(2) = {0, ..., 4}: ⌈log₂ 5⌉; {5} left over: 1, 0
        (star_graph(3), [1], 2, 1, 1),  # B(1) = {0, 1}: 1; {2, 3} left over: ⌈log₂ 3⌉, 1
        # a second vertex splits the class {0, ..., 7} of signature {0}
        # into {0, 1} and {2, ..., 7}: ⌈log₂ 6⌉; for ld {1, ..., 7} into
        # {0, 1} ∖ {1} and {2, ..., 7}, and 2^2 + 2 = 6
        (star_graph(7), [0, 1], 3, 3, 2),
    ]
    for g, chosen, need_id, need_sep, need_ld in hand:
        balls = list(g._cn)
        assert _split_need(balls, chosen, "identifying") == need_id, (g, chosen)
        assert _split_need(balls, chosen, "separating") == need_sep, (g, chosen)
        assert _split_need(balls, chosen, "locating-dominating") == need_ld, (g, chosen)
    for g in _random_graphs(407, 30, 12):
        for r in (1, 2):
            ball_sets = [brute.naive_ball(g, x, r) for x in range(g.n)]
            balls = [sum(1 << v for v in b) for b in ball_sets]
            for w in range(g.n):
                inside, outside = len(ball_sets[w]), g.n - len(ball_sets[w])
                for kind in SPLIT_KINDS:
                    ld = kind == "locating-dominating"
                    extra = kind != "separating"
                    expected = max(_need(inside - ld, kind), _need(outside + extra, kind))
                    assert _split_need(balls, [w], kind) == expected, (g, r, w, kind)


def _nested_calls(run, *watched):
    """``run()``, and for each watched function, given as (outer, name,
    fields) for the function ``name`` nested in ``outer``, the named locals
    of each of its calls or resumes, in order, as a list of tuples."""
    traces = {}
    for outer, name, fields in watched:
        inner = next(c for c in outer.__code__.co_consts if getattr(c, "co_name", "") == name)
        traces[inner] = (fields, [])

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in traces:
            fields, calls = traces[frame.f_code]
            calls.append(tuple(frame.f_locals[f] for f in fields))

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return (result, *(calls for _, calls in traces.values()))


_WALK = (_hitting_sets, "visit", ("chosen", "k"))
_PROOF = (_has_hitting_set, "feasible", ("avail", "k"))


def _search_trace(masks, free: int, forced: int, k: int, split):
    """The k-sets the solver generates at one size, as ``_solve`` does: the
    proof at the root, then, unless it refutes k, every set of the walk
    from its witness; with the nodes the walk enters as (chosen, budget) at
    every call or resume, and the nodes the proofs enter as (available,
    budget), the root proof's first, each in the order entered."""

    def search():
        witness = _has_hitting_set(masks, free, k, split)
        if witness is None:
            return []
        return list(_hitting_sets(masks, free, forced, k, witness, split))

    return _nested_calls(search, _WALK, _PROOF)


def _proof_trace(masks, free: int, k: int, split):
    """The witness of ``_has_hitting_set`` (None for a refuted size) and the
    nodes its search enters, in order."""
    return _nested_calls(lambda: _has_hitting_set(masks, free, k, split), _PROOF)


def test_redundant_masks_never_change_the_search():
    # a union of two constraint masks is met whenever either one is, so
    # appending every such union may not change the search: at each size
    # from the counting bound to one past the minimum, the plain and the
    # padded list give the same nodes in the same order, and the same
    # stream, the lexicographic list of k-sets that meet every plain mask,
    # in the walk and in every proof it calls.  A packing, a branching or a
    # last-vertex step that let a containing mask cut would lose sets; one
    # that let it widen or reorder the search would change the nodes.
    for g in _random_graphs(408, 150, 9):
        n = g.n
        for r in (1, 2):
            balls = _balls(g, r)
            for kind in KINDS:
                if kind in ("identifying", "separating") and len(set(balls)) < n:
                    continue
                cons, forced, start, split = _constraints(balls, kind)
                # a stable sort keeps the plain masks in their order: the
                # greedy packing and the mask branched on depend on the order
                # of equal-size masks
                unions = {a | b for a, b in itertools.combinations(cons, 2)}
                padded = sorted(cons + sorted(unions - set(cons)), key=int.bit_count)
                free = [v for v in range(n) if not forced >> v & 1]
                free_mask = sum(1 << v for v in free)
                base = n - len(free)
                minimum = solve_minimum(g, kind, r).minimum
                for size in range(start, min(minimum + 1, n) + 1):
                    expected = [
                        forced | sum(1 << v for v in combo)
                        for combo in itertools.combinations(free, size - base)
                    ]
                    expected = [c for c in expected if all(c & m for m in cons)]
                    assert bool(expected) == (size >= minimum)
                    plain = _search_trace(cons, free_mask, forced, size - base, split)
                    assert plain[0] == expected, (g, r, kind, size)
                    # the walk enters a node only at a size with a set and
                    # a budget of one or more, and the profiler sees the
                    # root proof at every budget of two or more; a walk or
                    # proof with fewer is decided before any node
                    assert bool(plain[1]) == (bool(expected) and size > base)
                    assert bool(plain[2]) == (size - base >= 2), (g, r, kind, size)
                    assert _search_trace(padded, free_mask, forced, size - base, split) == plain


def test_identifying_masks_skip_the_pairs_of_disjoint_balls():
    # B(x) Δ B(y) of two disjoint balls is B(x) ∪ B(y), which contains the
    # ball mask B(x), so ``_constraints`` leaves it out: the identifying
    # masks are the balls and the pair masks of meeting balls, less those
    # met by the forced vertices, and the minima stay those of brute force
    skipped = 0
    for g in _random_graphs(413, 60, 9):
        n = g.n
        for r in (1, 2):
            balls = _balls(g, r)
            if len(set(balls)) < n:
                continue
            cons, forced, _, _ = _constraints(balls, "identifying")
            pairs = list(itertools.combinations(balls, 2))
            meeting = {bx ^ by for bx, by in pairs if bx & by}
            assert sorted(cons) == sorted(c for c in meeting | set(balls) if not c & forced)
            skipped += sum(not bx & by for bx, by in pairs)
            expected = brute.naive_minimum(g, "identifying", r)[0]
            assert solve_minimum(g, "identifying", r).minimum == expected, (g, r)
    assert skipped


def test_proof_verdict_matches_brute_force():
    # the order-free proof against every subset: for every budget k it
    # returns None exactly when no k-subset of the free vertices completes
    # the forced ones to a valid code, and otherwise a witness of at most k
    # free vertices that meets every mask and completes them to a valid
    # code.  Graphs with twins stay in: their empty masks must refute every
    # size.  Every proof with a split cut also runs without it, on no
    # class, which checks the other cuts alone.
    for g in _random_graphs(409, 60, 10):
        n = g.n
        for r in (1, 2):
            ball_sets = [brute.naive_ball(g, x, r) for x in range(n)]
            balls = [sum(1 << v for v in b) for b in ball_sets]
            for kind in KINDS:
                cons, forced, _, solver_split = _constraints(balls, kind)
                base = forced.bit_count()
                sizes = set()
                valid = set()
                for code in range(1 << n):
                    if code & forced == forced:
                        members = {v for v in range(n) if code >> v & 1}
                        sigs = [frozenset(b & members) for b in ball_sets]
                        if brute.signatures_ok(kind, sigs, members):
                            sizes.add(len(members))
                            valid.add(code)
                free = ((1 << n) - 1) & ~forced
                splits = ((None, []), solver_split) if solver_split[1] else ((None, []),)
                for k in range(n - base + 1):
                    for split in splits:
                        got = _has_hitting_set(cons, free, k, split)
                        where = (g, r, kind, k, split[1] == [])
                        assert (got is None) == (base + k not in sizes), where
                        if got is not None:
                            assert got & ~free == 0 and got.bit_count() <= k, where
                            assert all(c & got for c in cons), where
                            assert forced | got in valid, where


def test_combination_rank_is_the_index_in_combinations_order():
    for f in range(11):
        for m in range(f + 1):
            for index, combo in enumerate(itertools.combinations(range(f), m)):
                assert _combination_rank(list(combo), f) == index


# (kind, graph, edges, minimum, example code, explored), recorded with the
# ascending-combination search; C20 took it about 1 s and C24 about 15 s
PINNED_EXPLORED = [
    ("identifying", lambda: cycle_graph(16), 16, 8, list(range(0, 16, 2)), 27_898),
    ("identifying", lambda: cycle_graph(18), 18, 9, list(range(0, 18, 2)), 118_236),
    ("identifying", lambda: cycle_graph(20), 20, 10, list(range(0, 20, 2)), 484_994),
    ("identifying", lambda: cycle_graph(24), 24, 12, list(range(0, 24, 2)), 7_897_465),
    (
        "separating",
        lambda: random_connected_twin_free_gnp(22, 22, 0.25),
        58,
        7,
        [0, 1, 3, 6, 7, 8, 11],
        106_066,
    ),
    ("locating-dominating", lambda: cycle_graph(20), 20, 8, [0, 2, 5, 7, 10, 12, 15, 17], 158_760),
    (
        "locating-dominating",
        lambda: random_connected_twin_free_gnp(18, 18, 0.2),
        30,
        6,
        [1, 4, 6, 9, 12, 15],
        20_499,
    ),
]


@pytest.mark.parametrize("kind, build, edges, minimum, code, explored", PINNED_EXPLORED)
def test_explored_counts_pinned_beyond_oracle_range(kind, build, edges, minimum, code, explored):
    g = build()
    assert g.edge_count == edges
    report = solve_minimum(g, kind)
    assert report.minimum == minimum
    assert sorted(report.example_code) == code
    assert report.explored == explored


# the nodes entered while every set of the minimum size is generated:
# graph -> {(kind, with the split cut): (minimum, sets, walk nodes, proof
# nodes)}.  The walk enters only the prefixes of the sets, so its count is
# the same with or without the split; the proofs it calls make the cuts.
# ``explored`` comes from the answer's rank, so only the proof counts see a
# cut made weaker.  Every kind but dominating sets also runs without the
# split, which pins the packing, the branching and the last-vertex step
# alone.  The proof counts depend on the order of ``_constraints`` (size,
# then value).  A proof node with two vertices left decides in place, and a
# call with fewer left is decided before any node, so every node counted
# has two or more vertices left.
PINNED_NODES = {
    "cycle14": (
        lambda: cycle_graph(14),
        {
            ("dominating", False): (5, 14, 101, 89),
            ("separating", True): (7, 2, 27, 59),
            ("separating", False): (7, 2, 27, 60),
            ("identifying", True): (7, 2, 27, 57),
            ("identifying", False): (7, 2, 27, 60),
            ("locating-dominating", True): (6, 35, 284, 172),
            ("locating-dominating", False): (6, 35, 284, 201),
        },
    ),
    "band6": (
        lambda: band_graph(6),
        {
            ("dominating", False): (2, 36, 79, 1),
            ("separating", True): (11, 2, 3, 0),
            ("separating", False): (11, 2, 3, 0),
            ("identifying", True): (11, 2, 3, 0),
            ("identifying", False): (11, 2, 3, 0),
            ("locating-dominating", True): (6, 222, 1679, 287),
            ("locating-dominating", False): (6, 222, 1679, 287),
        },
    ),
    "petersen": (
        petersen_graph,
        {
            ("dominating", False): (3, 10, 46, 9),
            ("separating", True): (4, 125, 597, 36),
            ("separating", False): (4, 125, 597, 36),
            ("identifying", True): (4, 5, 34, 21),
            ("identifying", False): (4, 5, 34, 28),
            ("locating-dominating", True): (4, 65, 327, 33),
            ("locating-dominating", False): (4, 65, 327, 33),
        },
    ),
    "gnp16": (
        lambda: random_connected_twin_free_gnp(16, 16, 0.25),
        {
            ("dominating", False): (4, 26, 146, 71),
            ("separating", True): (5, 1, 10, 44),
            ("separating", False): (5, 1, 10, 73),
            ("identifying", True): (6, 46, 407, 336),
            ("identifying", False): (6, 46, 407, 398),
            ("locating-dominating", True): (5, 5, 44, 87),
            ("locating-dominating", False): (5, 5, 44, 103),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_NODES))
def test_search_nodes_pinned(name):
    build, pinned = PINNED_NODES[name]
    g = build()
    n, balls = g.n, list(g._cn)
    for (kind, split_cut), expected in pinned.items():
        cons, forced, _, split = _constraints(balls, kind)
        minimum = solve_minimum(g, kind).minimum
        free = ((1 << n) - 1) & ~forced
        k = minimum - forced.bit_count()
        sets, walk, proofs = _search_trace(cons, free, forced, k, split if split_cut else (None, []))
        got = (minimum, len(sets), len(walk), len(proofs))
        assert got == expected, (name, kind, split_cut)


# the nodes the order-free proof enters at each size it refutes, from the
# first size tried to one below the minimum: graph -> {kind: (first size,
# minimum, nodes per size)}.  These are the proofs ``_solve`` runs, traced
# in place, with the split cut for every kind but dominating sets.
# Their verdicts do not show a cut made weaker; these counts do.  They
# depend on the order of ``_constraints`` (size, then value), which picks
# the mask branched on.
PINNED_PROOF_NODES = {
    "band6": {
        "dominating": (2, 2, []),
        "separating": (10, 11, [0]),
        "identifying": (10, 11, [0]),
        "locating-dominating": (4, 6, [11, 31]),
    },
    "cycle14": {
        "dominating": (5, 5, []),
        "separating": (4, 7, [1, 1, 6]),
        "identifying": (4, 7, [1, 1, 3]),
        "locating-dominating": (4, 6, [1, 11]),
    },
    "gnp16": {
        "dominating": (2, 4, [1, 3]),
        "separating": (4, 5, [1]),
        "identifying": (5, 6, [9]),
        "locating-dominating": (4, 5, [3]),
    },
    "petersen": {
        "dominating": (3, 3, []),
        "separating": (4, 4, []),
        "identifying": (4, 4, []),
        "locating-dominating": (3, 4, [1]),
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_PROOF_NODES))
def test_proof_nodes_pinned(name, monkeypatch):
    # the proofs ``_solve`` itself runs, one per size it tries, each on the
    # masks and the split cut ``_constraints`` builds: it has no class
    # for dominating sets and one or more for locating-dominating sets, whose one
    # starting class has more than 6 members on every pinned graph, and
    # every proof but the last refutes its size
    build, _ = PINNED_NODES[name]
    balls = list(build()._cn)
    calls = []

    def traced(masks, free, k, split):
        witness, nodes = _proof_trace(masks, free, k, split)
        calls.append((masks, split, k, witness, len(nodes)))
        return witness

    monkeypatch.setattr(solve, "_has_hitting_set", traced)
    for kind, expected in PINNED_PROOF_NODES[name].items():
        cons, forced, _, split = _constraints(balls, kind)
        calls.clear()
        minimum = solve._solve(balls, kind)[0]
        masks, splits, ks, witnesses, nodes = zip(*calls)
        assert all(m == cons for m in masks) and all(s == split for s in splits), (name, kind)
        if kind in ("dominating", "locating-dominating"):
            assert (split[1] == []) == (kind == "dominating"), (name, kind)
        assert witnesses[:-1] == (None,) * (len(calls) - 1), (name, kind)
        assert witnesses[-1] is not None, (name, kind)
        got = (forced.bit_count() + ks[0], minimum, list(nodes[:-1]))
        assert got == expected, (name, kind)


def test_no_proof_node_below_the_root_has_one_vertex_left():
    # a node with two vertices left decides each vertex of its branch mask
    # in place, so the proof recurses only from budgets of 3 or more, and a
    # call with fewer than two left is decided before any node: every node
    # has two or more vertices left, the root's first; at every budget, on
    # the pinned graphs, with and without the split cut
    below = set()
    for name, (build, _) in sorted(PINNED_NODES.items()):
        g = build()
        n, balls = g.n, list(g._cn)
        for kind in KINDS:
            cons, forced, _, solver_split = _constraints(balls, kind)
            free = ((1 << n) - 1) & ~forced
            for split in ((None, []), solver_split) if solver_split[1] else ((None, []),):
                for k in range(free.bit_count() + 1):
                    nodes = _proof_trace(cons, free, k, split)[1]
                    assert bool(nodes) == (k >= 2), (name, kind, k)
                    assert not nodes or nodes[0][1] == k, (name, kind, k)
                    budgets = {budget for _, budget in nodes}
                    assert min(budgets, default=2) >= 2, (name, kind, k, split[1] == [])
                    below |= budgets - {k}
    assert 2 in below


def _first_hitting_set(cons: list[int], free: int, k: int) -> int | None:
    """The lexicographically least k-subset of ``free`` meeting every mask
    of ``cons``, by a plain depth-first search over the vertices in
    increasing order that only drops a prefix once some unmet mask has no
    vertex left above it, or too few vertices are left: no proof, witness
    or split takes part."""

    def visit(chosen: int, unhit: list[int], avail: int, k: int) -> int | None:
        if not unhit:
            # any k of the vertices left complete the prefix; the least do
            while k:
                low = avail & -avail
                chosen |= low
                avail ^= low
                k -= 1
            return chosen
        if k == 0 or any(not m & avail for m in unhit) or avail.bit_count() < k:
            return None
        while avail:
            low = avail & -avail
            avail ^= low
            found = visit(chosen | low, [m for m in unhit if not m & low], avail, k - 1)
            if found is not None:
                return found
        return None

    return visit(0, cons, free, k)


def test_walk_from_the_witness_finds_the_least_code():
    # the code ``_solve`` gives first, which the walk reaches from the
    # proof's witness, is the least k-subset in lexicographic order that
    # meets every mask, by a plain depth-first search with no proof in it
    rng = random.Random(411)
    for n in range(12, 23):
        for p in (0.15, 0.25, 0.4):
            for _ in range(6):
                g = Graph(n, gnp_edges(rng, n, p))
                for r in (1, 2):
                    balls = _balls(g, r)
                    twins = len(set(balls)) < n
                    for kind in KINDS:
                        if twins and kind in ("identifying", "separating"):
                            continue
                        minimum, forced, _, sets = solve._solve(balls, kind)
                        cons = _constraints(balls, kind)[0]
                        free = ((1 << n) - 1) & ~forced
                        k = minimum - forced.bit_count()
                        least = _first_hitting_set(cons, free, k)
                        assert next(sets) == forced | least, (g, r, kind)


# the calls the walk makes to the order-free proof on the seeded G(22, 0.25)
# of PINNED_EXPLORED up to the least code: kind -> (minimum, least code,
# walk calls).  ``_solve``'s size loop calls the proof once for each size
# from the counting bound to the minimum and returns before the walk
# starts; the walk makes the other calls once the least code is read, only
# for the vertices below its witness's least one and never with one
# vertex left; a walk that put every vertex to the proof would make more.
PINNED_WALK_CALLS = {
    "dominating": (5, [0, 1, 6, 7, 12], 7),
    "separating": (7, [0, 1, 3, 6, 7, 8, 11], 4),
    "identifying": (7, [0, 1, 5, 7, 8, 11, 12], 7),
    "locating-dominating": (6, [0, 1, 7, 8, 12, 13], 9),
}


@pytest.mark.parametrize("kind", sorted(PINNED_WALK_CALLS))
def test_walk_calls_pinned(kind, monkeypatch):
    g = random_connected_twin_free_gnp(22, 22, 0.25)
    balls = list(g._cn)
    calls = []

    def counted(*args):
        calls.append(args)
        return _has_hitting_set(*args)

    monkeypatch.setattr(solve, "_has_hitting_set", counted)
    minimum, forced, start, sets = solve._solve(balls, kind)
    base = forced.bit_count()
    ball_sets = [brute.naive_ball(g, x, 1) for x in range(g.n)]
    assert start == max(base, brute._lower_bound(kind, ball_sets, g.n)), kind
    # one proof per size tried, and none yet from the walk
    assert [args[2] for args in calls] == list(range(start - base, minimum - base + 1))
    proofs = len(calls)
    got = (minimum, _bit_indices(next(sets)), len(calls) - proofs)
    assert got == PINNED_WALK_CALLS[kind], kind


def test_minimum_only_solves_never_walk():
    # gamma-chain reads only the two minima of each class, so the proofs of
    # the size loop decide them and no line of the walk runs.  Lines, not
    # calls: an unread walk that is dropped may still be closed, which a
    # profiler sees as a call of ``visit`` that runs none of it
    names = {_WALK[1], _PROOF[1]}
    lines = dict.fromkeys(names, 0)

    def count(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_name] += 1
        return count

    def trace(frame, event, arg):
        return count if frame.f_code.co_name in names else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        report = scan_gamma_chain(5)
    finally:
        sys.settrace(previous)
    assert report.ok and lines[_PROOF[1]] and not lines[_WALK[1]], lines


# gamma_ID of the rook graph K_q □ K_q is ⌊3q/2⌋ (Gravier, Moncel & Semri,
# EJC 2008); q = 6 has 36 vertices, past SOLVE_VERTEX_CAP, so the balls go
# to ``_solve`` directly
@pytest.mark.parametrize("q", [4, 5, 6])
def test_identifying_minimum_of_the_rook_graph(q):
    n = q * q
    pairs = itertools.combinations(range(n), 2)
    g = Graph(n, [(u, v) for u, v in pairs if u // q == v // q or u % q == v % q])
    assert solve._solve(list(g._cn), "identifying")[0] == 3 * q // 2


# gamma_ID of paths and cycles (Bertrand, Charon, Hudry & Lobstein, EJC
# 2004; Gravier, Moncel & Semri, 2006), far past the oracles' range
def test_identifying_minima_of_paths_and_cycles():
    for n in range(3, 25):
        assert solve_minimum(path_graph(n), "identifying").minimum == (n + 2) // 2, n
    for n in range(4, 25):
        if n < 6:
            expected = 3
        elif n % 2 == 0:
            expected = n // 2
        else:
            expected = (n + 3) // 2
        assert solve_minimum(cycle_graph(n), "identifying").minimum == expected, n


# gamma_LD of paths and cycles is ⌈2n/5⌉ (Slater, "Dominating and reference
# sets in a graph", 1988) and their domination number ⌈n/3⌉, pinned past
# SOLVE_VERTEX_CAP through ``_solve``
def test_locating_dominating_and_dominating_minima_of_paths_and_cycles():
    for n in range(3, 33):
        for g in (path_graph(n), cycle_graph(n)):
            balls = list(g._cn)
            assert solve._solve(balls, "locating-dominating")[0] == -(-2 * n // 5), (g, n)
            assert solve._solve(balls, "dominating")[0] == -(-n // 3), (g, n)


def test_minimum_does_not_move_under_relabelling():
    # the proof branches in label order, so a seeded vertex permutation puts
    # a differently ordered refutation beside each minimum; the minimum must
    # stay, while the example code and the explored count may move
    rng = random.Random(616)
    inputs = [(n, p, (1, 2)) for n in range(6, 17) for p in (0.15, 0.25, 0.35, 0.45, 0.55, 0.65)]
    # past SOLVE_VERTEX_CAP, through ``_solve``, at radius 1
    inputs += [(n, p, (1,)) for n in (26, 30, 34) for p in (0.25, 0.4, 0.55)]
    cases = 0
    for n, p, radii in inputs:
        g = Graph(n, gnp_edges(rng, n, p))
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
        for r in radii:
            balls = _balls(g, r)
            twins = len(set(balls)) < n
            for kind in KINDS:
                if twins and kind in ("identifying", "separating"):
                    continue
                expected = solve._solve(balls, kind)[0]
                assert solve._solve(_balls(h, r), kind)[0] == expected, (g, perm, r, kind)
                cases += 1
    assert cases == 386 + 36


def test_twins_error_carries_pair():
    with pytest.raises(TwinsError) as exc:
        solve_minimum(complete_graph(3), "identifying")
    pair = exc.value.pair
    assert twin_pairs(complete_graph(3))[0] == pair
    # one witness rule: with two twin pairs, every refusal names the least
    # one, the pair the identifying certificate of all vertices names; a
    # scan for the first repeated ball would name the other
    two_pairs = Graph(6, [(0, 1), (1, 2), (1, 5), (2, 5), (0, 3), (0, 4), (3, 4)])
    regular = Graph(
        7,
        [(0, 3), (0, 4), (0, 5), (0, 6), (1, 3), (1, 4), (1, 5), (1, 6)]
        + [(2, 3), (2, 4), (2, 5), (2, 6), (3, 6), (4, 5)],
    )
    for g, least in ((two_pairs, (2, 5)), (regular, (3, 6))):
        assert twin_pairs(g)[0] == least
        assert check_code(g, range(g.n), "identifying").witness_pair == least
        refusals = [
            lambda: solve_minimum(g, "identifying"),
            lambda: solve_minimum(g, "separating"),
            lambda: enumerate_minimum_separating_sets(g),
            lambda: extend_code(g, [], range(g.n)),
            lambda: classify_extremal(g),
            lambda: constructive_upper_bound(g),
        ]
        if g is regular:
            refusals.append(lambda: regular_constructive_bound(g))
        for refuse in refusals:
            with pytest.raises(TwinsError) as exc:
                refuse()
            assert exc.value.pair == least


def test_twin_refusal_messages_and_pairs():
    # every refusal site, its exact message and its pair in the caller's labels
    reduced = Graph(5, [(0, 2), (2, 3)])  # twin-free; without 0, vertices 2 and 3 are twins
    cases = [
        (
            lambda: solve_minimum(complete_graph(3), "identifying"),
            "no identifying set exists at radius 1: vertices 0 and 1 have identical radius-1 balls",
            (0, 1),
        ),
        (
            lambda: enumerate_minimum_separating_sets(path_graph(4), 2),
            "no separating set exists at radius 2: vertices 1 and 2 have identical radius-2 balls",
            (1, 2),
        ),
        (
            lambda: extend_code(complete_graph(3), [], range(3)),
            "the host graph has twins 0 and 1; no identifying code exists",
            (0, 1),
        ),
        (lambda: extend_code(reduced, [0], []), "removing [0] leaves twins 2 and 3", (2, 3)),
        (
            lambda: constructive_upper_bound(path_graph(4), 2),
            "the radius-2 power has twins 1 and 2; no identifying code exists",
            (1, 2),
        ),
        (
            lambda: classify_extremal(complete_graph(3)),
            "vertices 0 and 1 are twins; no identifying code exists",
            (0, 1),
        ),
    ]
    for refuse, message, pair in cases:
        with pytest.raises(TwinsError) as exc:
            refuse()
        assert str(exc.value) == message and exc.value.pair == pair


def test_solver_cap():
    with pytest.raises(PreconditionError):
        solve_minimum(Graph(25), "dominating")


def test_enumerate_minimum_separating_sets():
    g2 = band_graph(2)
    assert enumerate_minimum_separating_sets(g2) == [
        frozenset({0, 1, 2}),
        frozenset({1, 2, 3}),
    ]
    g3 = band_graph(3)
    assert enumerate_minimum_separating_sets(g3) == [
        brute.naive_ball(g3, 2, 1),
        brute.naive_ball(g3, 3, 1),
    ]
    g4 = band_graph(4)
    assert enumerate_minimum_separating_sets(g4) == [
        brute.naive_ball(g4, 3, 1),
        brute.naive_ball(g4, 4, 1),
    ]
    assert enumerate_minimum_separating_sets(star_graph(2)) == [frozenset({1, 2})]


def test_chain_inequality_small():
    for g in filter(is_twin_free, brute.labeled_graphs(5)):
        s = solve_minimum(g, "separating").minimum
        i = solve_minimum(g, "identifying").minimum
        assert s <= i <= s + 1


def test_join_additivity_of_separation():
    # joins of band graphs add separating minima plus one
    for j, k in itertools.product(range(1, 4), repeat=2):
        g = join(band_graph(j), band_graph(k))
        assert is_twin_free(g)
        assert solve_minimum(g, "separating").minimum == (2 * j - 1) + (2 * k - 1) + 1


def test_twins_created_by_deletions_involve_the_deleted_vertex():
    # if x,y become twins after removing v, any twins of g - x involve v
    for g in filter(is_twin_free, brute.labeled_graphs(5)):
        for v in range(g.n):
            keep_v = [u for u in range(g.n) if u != v]  # new label i is keep_v[i]
            for a, b in twin_pairs(induced_subgraph(g, keep_v)):
                x = keep_v[a]
                keep_x = [u for u in range(g.n) if u != x]
                for c, d in twin_pairs(induced_subgraph(g, keep_x)):
                    assert v in (keep_x[c], keep_x[d])


def test_extremal_graphs_keep_a_removable_extremal_vertex():
    # Theorem 12's deletion property, class by class: every connected
    # twin-free graph on 4 to 8 vertices that needs n - 1 code vertices has
    # a vertex whose deletion leaves a connected, twin-free graph needing
    # n - 2; the two-leaf star, the one such graph on three vertices, has none
    extremal = Counter()
    for n, _, cn in _sweep(3, 8, True, True):
        if _gamma_id_level(cn) != 0:
            continue
        extremal[n] += 1
        g = Graph._from_masks(cn)
        rests = (induced_subgraph(g, set(range(n)) - {x}) for x in range(n))
        removable = any(is_connected(h) and is_twin_free(h) and _gamma_id_level(h._cn) == 0 for h in rests)
        assert removable == (n > 3), cn
    assert extremal == {3: 1, 4: 3, 5: 3, 6: 4, 7: 4, 8: 6}


def test_twin_free_graphs_with_an_edge_never_need_all_vertices():
    # including disconnected ones: an edge somewhere caps the minimum
    for n in range(2, 6):
        for g in filter(is_twin_free, brute.labeled_graphs(n)):
            if g.edge_count == 0:
                assert solve_minimum(g, "identifying").minimum == g.n
            else:
                assert solve_minimum(g, "identifying").minimum <= g.n - 1


def test_extend_code_identity_on_empty_removal():
    g = path_graph(4)
    assert extend_code(g, [], [0, 1, 2]) == {0, 1, 2}


def test_extend_code_traced_example():
    # growing the code {ends} of the 3-path back into the 4-path adds the
    # separator of the unique conflicting pair
    assert extend_code(path_graph(4), [3], [0, 2]) == {0, 1, 2}


def test_extend_code_reads_a_one_shot_base_code_once():
    # the precondition check and the extension both see a generator's
    # vertices: it gives the same code as the list
    g = band_graph(3)
    one_shot = extend_code(g, [5], iter([0, 1, 3, 4]))
    assert one_shot == extend_code(g, [5], [0, 1, 3, 4]) == {0, 1, 2, 3, 4}


def test_extend_code_size_bound_randomized():
    rng = random.Random(5)
    done = 0
    while done < 20:
        n = rng.randrange(4, 8)
        g = Graph(n, gnp_edges(rng, n, 0.45))
        if not is_twin_free(g):
            continue
        removed = sorted(rng.sample(range(n), rng.randrange(1, 3)))
        rest = [v for v in range(n) if v not in removed]
        sub = induced_subgraph(g, rest)
        if not is_twin_free(sub):
            continue
        base = brute.naive_minimum(sub, "identifying")
        if base is None:
            continue
        result = extend_code(g, removed, base[1])
        assert brute.naive_is_identifying(g, result)
        assert len(result) <= len(base[1]) + len(removed)
        done += 1


def test_extend_code_preconditions():
    with pytest.raises(TwinsError):
        extend_code(complete_graph(3), [0], [0, 1])
    # removing the middle of the 5-path leaves a twin pair
    with pytest.raises(TwinsError):
        extend_code(path_graph(5), [2], [0, 1])
    # not a code of the 3-path: the message and certificate name the
    # reduced graph's undominated vertex 2
    with pytest.raises(PreconditionError) as exc:
        extend_code(path_graph(4), [3], [0])
    assert str(exc.value) == (
        "base_code is not an identifying code of the reduced graph: {'undominated': 2}"
    )
    assert exc.value.certificate == check_code(path_graph(3), [0], "identifying")
    assert exc.value.certificate.witness_vertex == 2


def test_lower_bound_matches_brute_force():
    # the size the search starts at, ``_constraints``' start, is the larger
    # of the forced vertices and the brute-force counting bound; on band
    # graphs the forced vertices outnumber the bound
    rng = random.Random(64)
    graphs = [Graph(n, gnp_edges(rng, n, 0.2)) for n in range(1, 65)]
    for g in graphs + [band_graph(k) for k in range(2, 7)]:
        n = g.n
        balls = [brute.naive_ball(g, x, 1) for x in range(n)]
        for kind in KINDS:
            _, forced, start, _ = _constraints(list(g._cn), kind)
            expected = max(forced.bit_count(), brute._lower_bound(kind, balls, n))
            assert start == expected, (kind, n)
    # the empty graph needs no vertex; for dominating sets the bound reads
    # only n and the largest ball, so equal-size synthetic balls cover
    # every n up to past 2^10
    for kind in KINDS:
        assert _constraints([], kind)[2] == 0, kind
    for size in (1, 2, 3, 7):
        for n in range(1, 1101):
            expected = brute._lower_bound("dominating", [set(range(size))] * n, n)
            assert _constraints([(1 << size) - 1] * n, "dominating")[2] == expected, (size, n)
    # for the other kinds, with nothing forced, it reads n alone and steps
    # at n = 2^b (identifying), 2^b + 1 (separating) and 2^b + b
    # (locating-dominating): every n within 2 of a step up to past 2^10,
    # on inputs with few pair masks, equal balls for identifying codes and
    # separating sets, and the edgeless graph for locating-dominating sets
    near = {p + d for b in range(11) for p in (2**b, 2**b + 1, 2**b + b) for d in range(-2, 3)}
    for n in sorted(m for m in near if m > 0):
        equal, edgeless = [7] * n, list(Graph(n)._cn)
        for kind, balls in (
            ("identifying", equal),
            ("separating", equal),
            ("locating-dominating", edgeless),
        ):
            _, forced, start, _ = _constraints(balls, kind)
            expected = brute._lower_bound(kind, [set(_bit_indices(b)) for b in balls], n)
            assert (forced, start) == (0, expected), (kind, n)


def test_zero_and_one_vertex_graphs():
    # the empty graph goes through the one search: it tests one candidate,
    # the empty set, which is the answer, as Graph(1)'s separating solve does
    for kind in KINDS:
        report = solve_minimum(Graph(0), kind)
        assert report.to_dict() == {
            "kind": kind,
            "radius": 1,
            "minimum": 0,
            "example_code": [],
            "forced": [],
            "explored": 1,
        }
    assert enumerate_minimum_separating_sets(Graph(0)) == [frozenset()]
    assert solve_minimum(Graph(1), "separating").explored == 1
    assert solve_minimum(Graph(1), "identifying").minimum == 1
    assert solve_minimum(Graph(1), "separating").minimum == 0
