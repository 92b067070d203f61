"""Independent brute-force oracles for the test suite.

Everything here recomputes from first principles with plain Python sets and
dict-based BFS, deliberately avoiding the package's bitmask machinery, so
the two routes can disagree when either has a bug.  The graphs that
``labeled_graphs`` lists come from ``Graph(n, edges)`` on a plain pair
list, not from the package's edge-mask decoder.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from fractions import Fraction

from idcodes.graph import Graph


def naive_graph_from_edge_mask(n: int, mask: int):
    """Graph whose edges are the pairs of ``itertools.combinations(range(n),
    2)`` at the set bits of ``mask``."""
    pairs = itertools.combinations(range(n), 2)
    return Graph(n, [p for e, p in enumerate(pairs) if mask >> e & 1])


def labeled_graphs(n: int):
    """Every labeled graph on n vertices, by ascending edge mask."""
    return (naive_graph_from_edge_mask(n, m) for m in range(1 << (n * (n - 1) // 2)))


def adjacency(g) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def adjacency_ball(adj: dict[int, set[int]], x: int, r: int) -> set[int]:
    dist = {x: 0}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        if dist[u] == r:
            continue
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return set(dist)


def naive_ball(g, x: int, r: int) -> set[int]:
    return adjacency_ball(adjacency(g), x, r)


def naive_signatures(g, code, r: int) -> list[frozenset[int]]:
    adj = adjacency(g)
    cset = set(code)
    return [frozenset(adjacency_ball(adj, x, r) & cset) for x in range(g.n)]


def signatures_ok(kind: str, sigs, code) -> bool:
    """Validity of ``code`` of the given kind from its per-vertex signatures."""
    if kind != "separating" and not all(sigs):
        return False
    if kind == "dominating":
        return True
    if kind == "locating-dominating":
        cset = set(code)
        sigs = [s for v, s in enumerate(sigs) if v not in cset]
    return len(set(sigs)) == len(sigs)


def naive_witness(kind: str, sigs, code) -> dict | None:
    """The certificate's witness field for an invalid ``code`` of the given
    kind, None for a valid one: the least undominated vertex, else the
    lexicographically first pair (outside the code for locating-dominating)
    with equal signatures."""
    if kind != "separating":
        for x, s in enumerate(sigs):
            if not s:
                return {"undominated": x}
    if kind == "dominating":
        return None
    pool = [v for v in range(len(sigs)) if kind != "locating-dominating" or v not in code]
    for i, x in enumerate(pool):
        for y in pool[i + 1 :]:
            if sigs[x] == sigs[y]:
                return {"pair": [x, y], "signature": sorted(sigs[x])}
    return None


def naive_is_dominating(g, code, r: int = 1) -> bool:
    return signatures_ok("dominating", naive_signatures(g, code, r), code)


def naive_is_separating(g, code, r: int = 1) -> bool:
    return signatures_ok("separating", naive_signatures(g, code, r), code)


def naive_is_identifying(g, code, r: int = 1) -> bool:
    return signatures_ok("identifying", naive_signatures(g, code, r), code)


def naive_is_locating_dominating(g, code, r: int = 1) -> bool:
    return signatures_ok("locating-dominating", naive_signatures(g, code, r), code)


CHECKS = {
    "dominating": naive_is_dominating,
    "separating": naive_is_separating,
    "identifying": naive_is_identifying,
    "locating-dominating": naive_is_locating_dominating,
}


def naive_minimum(g, kind: str, r: int = 1) -> tuple[int, set[int]] | None:
    """Smallest valid code by trying every subset, sizes ascending.

    Returns None when no subset at all is valid (twins present).
    """
    check = CHECKS[kind]
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if check(g, combo, r):
                return size, set(combo)
    return None


def naive_all_minimum(g, kind: str, r: int = 1) -> list[set[int]]:
    found = naive_minimum(g, kind, r)
    if found is None:
        return []
    size = found[0]
    return [
        set(combo)
        for combo in itertools.combinations(range(g.n), size)
        if CHECKS[kind](g, combo, r)
    ]


def _lower_bound(kind: str, balls: list[set[int]], n: int) -> int:
    """The solver's counting lower bound, where its search starts."""
    if kind == "dominating":
        return -(-n // max(len(b) for b in balls))
    k = 0
    while True:
        if kind == "identifying" and 2**k - 1 >= n:
            return k
        if kind == "separating" and 2**k >= n:
            return k
        if kind == "locating-dominating" and 2**k - 1 >= n - k:
            return k
        k += 1


def ascending_search(g, kind: str, r: int = 1):
    """The exact solver's former search, kept as the reference for its
    answers and its ``explored`` count.

    Tests every superset of the forced vertices (the single-vertex ball
    differences, for separating and identifying kinds) in ascending size
    from the counting lower bound, each size in lexicographic order.
    Returns (size, least code of that size, candidates tested up to and
    including it, every valid code of that size in order), or None when
    no code exists (twins present).  Needs n >= 1.
    """
    n = g.n
    balls = [naive_ball(g, x, r) for x in range(n)]
    forced: set[int] = set()
    if kind in ("separating", "identifying"):
        for x, y in itertools.combinations(range(n), 2):
            diff = balls[x] ^ balls[y]
            if len(diff) == 1:
                forced |= diff
    free = [v for v in range(n) if v not in forced]
    start = max(len(forced), _lower_bound(kind, balls, n))
    explored = 0
    for size in range(start, n + 1):
        valid = []
        for combo in itertools.combinations(free, size - len(forced)):
            code = forced | set(combo)
            if signatures_ok(kind, [frozenset(b & code) for b in balls], code):
                valid.append(code)
            elif not valid:
                explored += 1
        if valid:
            return size, valid[0], explored + 1, valid
    return None


def naive_code_from_set(g, chosen, r: int = 1):
    """The code composition's former per-member route on plain sets.

    Returns ("spacing", u, v) for the first pair of members closer than
    3r + 1, ("member", v) for the first member v whose removal alone does
    not leave an r-identifying code, ("final",) when the complement of the
    set fails, and ("ok", code) otherwise.
    """
    adj = adjacency(g)
    members = sorted(set(chosen))
    spread = 3 * r + 1
    for i, u in enumerate(members):
        near = adjacency_ball(adj, u, spread - 1)
        for v in members[i + 1 :]:
            if v in near:
                return ("spacing", u, v)
    balls = [adjacency_ball(adj, x, r) for x in range(g.n)]

    def identifies(code: set[int]) -> bool:
        return signatures_ok("identifying", [frozenset(b & code) for b in balls], code)

    everything = set(range(g.n))
    for v in members:
        if not identifies(everything - {v}):
            return ("member", v)
    code = everything - set(members)
    return ("ok", code) if identifies(code) else ("final",)


def naive_constructive_bound(g, r: int = 1, regular: bool = False) -> dict | None:
    """The Thm 14/19 pipeline (Thm 15 with ``regular``) on plain sets, as
    a ``BoundReport.to_dict()``; None when a precondition fails.

    A greedy (5r+1)-independent set by index (4-independent and radius 1
    for the regular variant), each member x mapped to the least y of its
    radius-r ball for which all vertices but y separate (the regular
    variant keeps x), then the per-member composition.
    """
    n = g.n
    adj = adjacency(g)
    if n < 2 or len(adjacency_ball(adj, 0, n)) != n:
        return None
    degrees = [len(adj[v]) for v in range(n)]
    delta = max(degrees)
    if regular and len(set(degrees)) != 1:
        return None
    balls = [adjacency_ball(adj, x, r) for x in range(n)]
    if len({frozenset(b) for b in balls}) != n:
        return None
    spread = 4 if regular else 5 * r + 1
    chosen: list[int] = []
    covered: set[int] = set()
    for v in range(n):
        if v not in covered:
            chosen.append(v)
            covered |= adjacency_ball(adj, v, spread - 1)
    everything = set(range(n))
    mapped = []
    for x in chosen:
        if regular:
            mapped.append(x)
            continue
        for y in sorted(balls[x]):
            rest = everything - {y}
            if signatures_ok("separating", [frozenset(b & rest) for b in balls], rest):
                mapped.append(y)
                break
    outcome = naive_code_from_set(g, mapped, r)
    if outcome[0] != "ok":
        return None
    code = outcome[1]
    value = None
    if delta >= 3:
        if regular:
            value = n * (1 - Fraction(1, 1 + delta - delta**2 + delta**3))
        else:
            value = n * (1 - Fraction(delta - 2, delta * (delta - 1) ** (5 * r) - 2))
    return {
        "theorem": "thm15" if regular else ("thm14" if r == 1 else "thm19"),
        "radius": r,
        "independent_set": chosen,
        "mapped_set": sorted(mapped),
        "code": sorted(code),
        "code_size": len(code),
        "bound_value": None if value is None else [value.numerator, value.denominator],
        "bound_ceiling": None if value is None else math.ceil(value),
    }


def naive_twin_pairs(g) -> list[tuple[int, int]]:
    adj = adjacency(g)
    closed = {v: adj[v] | {v} for v in range(g.n)}
    return [
        (u, v)
        for u, v in itertools.combinations(range(g.n), 2)
        if closed[u] == closed[v]
    ]


def naive_distance(g, x: int, y: int) -> int | None:
    adj = adjacency(g)
    dist = {x: 0}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        if u == y:
            return dist[u]
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist.get(y)


def equitable_partition(g, cells) -> set[frozenset[int]]:
    """The coarsest equitable partition finer than ``cells`` (vertex sets),
    by naive colour refinement: every round recolours each vertex by its
    colour and the multiset of its neighbours' colours, until the number of
    colours stops growing."""
    adj = adjacency(g)
    colour = {v: i for i, cell in enumerate(cells) for v in cell}
    while True:
        signature = {v: (colour[v], tuple(sorted(Counter(colour[w] for w in adj[v]).items()))) for v in adj}
        names = {s: i for i, s in enumerate(set(signature.values()))}
        if len(names) == len(set(colour.values())):
            break
        colour = {v: names[signature[v]] for v in adj}
    classes: dict[int, set[int]] = {}
    for v, c in colour.items():
        classes.setdefault(c, set()).add(v)
    return {frozenset(c) for c in classes.values()}


def ordered_refinement(g, cells, todo) -> list[set[int]]:
    """The ordered partition ``cells`` (vertex sets) refined with the
    splitters ``todo`` pending, by the order contract of ``graph._refine``:
    pop the last splitter, split every cell by its vertices' neighbour
    counts in it into fragments in ascending count order at the cell's
    place, queue the fragments of the cells that split in cell order, and
    stop when no splitter is left."""
    adj = adjacency(g)
    cells = [set(c) for c in cells]
    todo = [set(w) for w in todo]
    while todo:
        w = todo.pop()
        out = []
        for x in cells:
            by_count: dict[int, set[int]] = {}
            for v in x:
                by_count.setdefault(len(adj[v] & w), set()).add(v)
            parts = [by_count[c] for c in sorted(by_count)]
            out += parts
            if len(parts) > 1:
                todo += parts
        cells = out
    return cells


def automorphism_count(g) -> int:
    """The vertex permutations of g that preserve adjacency, counted by
    mapping vertices 0, 1, ... in turn to every unused image that keeps
    adjacency with each vertex mapped before it; a full map is then one of
    them, and each one's prefixes all pass, so each is counted once."""
    adj = adjacency(g)
    image: list[int] = []

    def extend(v: int) -> int:
        if v == g.n:
            return 1
        count = 0
        for w in range(g.n):
            if w not in image and all((u in adj[v]) == (image[u] in adj[w]) for u in range(v)):
                image.append(w)
                count += extend(v + 1)
                image.pop()
        return count

    return extend(0)


def backtrack_isomorphism(g1, g2) -> list[int] | None:
    """Edge-preserving bijection as a list (image of each g1 vertex), or None.

    The package's former isomorphism search, kept as the reference for the
    canonical labeling: g1's vertices in descending degree order are each
    tried on every unused g2 vertex of equal degree that agrees on
    adjacency with everything mapped so far, backtracking on failure.
    """
    n = g1.n
    adj1, adj2 = adjacency(g1), adjacency(g2)
    if n != g2.n or sorted(map(len, adj1.values())) != sorted(map(len, adj2.values())):
        return None
    order = sorted(range(n), key=lambda v: (-len(adj1[v]), v))
    mapping = [-1] * n
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == n:
            return True
        u = order[i]
        for w in range(n):
            if w in used or len(adj2[w]) != len(adj1[u]):
                continue
            if all((a in adj1[u]) == (mapping[a] in adj2[w]) for a in order[:i]):
                mapping[u] = w
                used.add(w)
                if extend(i + 1):
                    return True
                used.discard(w)
        return False

    return mapping if extend(0) else None


def labeled_sweep(first_n: int, max_n: int, connected: bool = False, twin_free: bool = False):
    """Yield (n, edge_mask, cn) for every labeled graph on first_n..max_n
    vertices that passes the requested filters: the scans' former sweep
    engine, kept as the reference for the isomorph-free one.

    A Gray code over the edge masks of each n, one edge flipped per step;
    bit e of edge_mask stands for the e-th pair of
    ``itertools.combinations(range(n), 2)``.  ``cn`` holds the
    closed-neighborhood masks and is reused from one graph to the next.
    """
    for n in range(first_n, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        full = (1 << n) - 1
        cn = [1 << v for v in range(n)]
        for i in range(1 << len(pairs)):
            if i:
                u, v = pairs[(i & -i).bit_length() - 1]  # where gray(i - 1) and gray(i) differ
                cn[u] ^= 1 << v
                cn[v] ^= 1 << u
            if twin_free and len(set(cn)) != n:
                continue
            if connected:
                seen, todo = 1, [0]
                while todo:
                    x = todo.pop()
                    for w in range(n):
                        if cn[x] >> w & 1 and not seen >> w & 1:
                            seen |= 1 << w
                            todo.append(w)
                if seen != full:
                    continue
            yield n, i ^ (i >> 1), cn


def partitions(total: int, largest: int | None = None):
    """Yield the partitions of ``total`` into parts of at most ``largest``
    (any size when None), each as a tuple in non-increasing order."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest or total), 0, -1):
        for rest in partitions(total - first, first):
            yield (first, *rest)
