"""Finite simple graphs on dense 0-based vertices, with bitmask adjacency.

Adjacency is stored in one format: the closed-neighbourhood bitmask
N[v] = B(v) of each vertex, v's own bit included.  Identifying codes,
separating sets, twins and balls all read closed balls, so signatures,
symmetric differences and twin detection are word-parallel on the stored
masks; the exhaustive scans in this package spend nearly all their time in
these operations.  The canonical labeller refines on the same masks.  Each
graph also keeps its closed-neighbour index lists, which drive the radius-r
ball builder without pulling bits out of wide masks.  Graphs are immutable
after construction and safe to share.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

INPUT_VERTEX_CAP = 16384
# _canon takes about 0.1 s on the most symmetric 64-vertex graphs (empty,
# complete, four 16-vertex strongly regular graphs) but 1.5-3 s at n = 200,
# and its search recursion nears Python's limit at 1000
ISOMORPHISM_CAP = 64


class PreconditionError(ValueError):
    """A structural precondition of an operation does not hold."""


class TwinsError(PreconditionError):
    """The graph (or the relevant power) has twin vertices; ``pair`` is the
    least pair, ``twin_pairs(g)[0]`` at radius 1 and the witness of
    ``check_code(g, range(g.n), "identifying")``."""

    def __init__(self, message: str, pair: tuple[int, int]):
        super().__init__(message)
        self.pair = pair


def _bit_indices(mask: int) -> list[int]:
    out = []
    while mask:
        out.append(v := mask.bit_length() - 1)
        mask ^= 1 << v  # the int shrinks, so a step costs the bits left
    out.reverse()
    return out


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    ``_cn[v]`` is the closed-neighborhood bitmask of v (v included), the
    package's one adjacency format; the open neighborhood is
    ``_cn[v] ^ 1 << v``.  Other modules in this package read the mask tuple
    directly in hot loops.  ``_adj[v]`` lists v and its neighbours, each
    once, in no fixed order: ``Graph(n, edges)`` fills it while it builds
    the masks, and a graph built from masks leaves it ``None`` until
    ``_balls`` first needs it.  It is derived from ``_cn``, so equality and
    hashing ignore it.
    """

    __slots__ = ("n", "_cn", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        cn = [1 << v for v in range(n)]
        adj = [[v] for v in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"invalid vertex in edge ({u}, {v}): range is 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop edge ({u}, {u}) not allowed in a simple graph")
            cn[u] |= 1 << v
            cn[v] |= 1 << u
            adj[u].append(v)
            adj[v].append(u)
        for v, m in enumerate(cn):
            if len(adj[v]) != m.bit_count():  # a repeated edge
                adj[v] = [v, *dict.fromkeys(adj[v][1:])]
        self.n = n
        self._cn = tuple(cn)
        self._adj = adj

    @classmethod
    def _from_masks(cls, cn: tuple[int, ...]) -> "Graph":
        """Internal fast path, storing the closed-neighborhood masks ``cn``
        as given, one per vertex; they must already be symmetric, each
        holding its own vertex."""
        g = object.__new__(cls)
        g.n = len(cn)
        g._cn = cn
        g._adj = None
        return g

    # -- basic accessors ------------------------------------------------

    def neighbors(self, v: int) -> list[int]:
        self._check_vertex(v)
        return _bit_indices(self._cn[v] ^ 1 << v)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._cn[v].bit_count() - 1

    def degrees(self) -> list[int]:
        return [m.bit_count() - 1 for m in self._cn]

    def max_degree(self) -> int:
        # each index list, once built, holds its vertex and each neighbour once
        if self._adj is not None:
            return max(map(len, self._adj), default=1) - 1
        return max(map(int.bit_count, self._cn), default=1) - 1

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return u != v and bool(self._cn[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted: each u's higher
        neighbours in one walk of its mask's bits above u."""
        return [(u, v) for u, m in enumerate(self._cn) for v in _bit_indices(m >> u + 1 << u + 1)]

    @property
    def edge_count(self) -> int:
        return (sum(m.bit_count() for m in self._cn) - self.n) // 2

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"invalid vertex {v}: range is 0..{self.n - 1}")

    def _mask(self, vertices: Iterable[int]) -> int:
        """The mask of a caller's vertex set, read in the order given: the
        first vertex out of range is refused, and duplicates are accepted.
        The package's one reader of such a set; it lives here because every
        module that takes one imports ``graph``, never the reverse."""
        n = self.n
        m = 0
        for v in vertices:
            if not 0 <= v < n:
                self._check_vertex(v)  # raises with the package's message
            m |= 1 << v
        return m

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._cn == other._cn

    def __hash__(self) -> int:
        return hash((self.n, self._cn))

    def __repr__(self) -> str:
        es = self.edges()
        shown = ", ".join(map(str, es[:8])) + (", ..." if len(es) > 8 else "")
        return f"Graph(n={self.n}, m={len(es)}, edges=[{shown}])"


# -- balls, powers, twins ----------------------------------------------


def _reach(cn, seen: int, radius: int = -1) -> int:
    """Vertices of ``cn`` reachable from the set ``seen`` in at most
    ``radius`` steps, or in any number when ``radius`` is negative (BFS over
    the closed-neighborhood masks ``cn``, which may be any graph's).  The
    package's one BFS: ``_reach(cn, 1 << x, radius=r)`` is the ball B_r(x).
    A level pops its frontier from the top, so the int shrinks as it empties.
    """
    frontier = seen
    while frontier and radius:
        radius -= 1
        nxt = 0
        while frontier:
            v = frontier.bit_length() - 1
            frontier ^= 1 << v
            nxt |= cn[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def _balls(g: Graph, r: int) -> list[int]:
    """Closed radius-r ball masks of every vertex of g, r >= 1 (``_check_radius``).

    Built level by level rather than by one BFS per vertex: B_0(x) = {x} and
    B_{k+1}(x) is the union of B_k(u) over u in N[x], so a level costs one
    mask OR per pair (x, u) with u in N[x], in a plain loop.  The pairs come
    from the index lists ``g._adj``, filled here from the masks the first
    time a graph built from masks needs them; no level extracts bits.  A
    level that changes no ball leaves every later level unchanged, so the
    build stops there: the cost is capped by the largest eccentricity, not
    by r.
    """
    if r == 1:
        return list(g._cn)
    adj = g._adj
    if adj is None:
        adj = g._adj = [_bit_indices(m) for m in g._cn]
    balls = list(g._cn)
    for _ in range(r - 1):
        nxt = []
        for ix in adj:
            m = 0
            for u in ix:
                m |= balls[u]
            nxt.append(m)
        if nxt == balls:
            break
        balls = nxt
    return balls


def _check_radius(radius: int) -> None:
    # codes, powers and the bound pipeline start at radius 1; 0 is rejected
    # on purpose
    if radius < 1:
        raise ValueError("radius must be >= 1")


def power(g: Graph, r: int) -> Graph:
    """Graph on the same vertices joining every pair at distance 1..r."""
    _check_radius(r)
    if r == 1:
        return g
    return Graph._from_masks(tuple(_balls(g, r)))


def _twin_pair(masks: Sequence[int], among: Sequence[int] | None = None) -> tuple[int, int] | None:
    """The lexicographically least x < y in ``among`` (distinct indices in
    increasing order; by default every index) with ``masks[x] == masks[y]``,
    or None.  The package's one rule for naming a witness or a twin pair."""
    if among is None or len(among) == len(masks):  # distinct: every index
        among, pool = range(len(masks)), masks
    else:
        pool = [masks[v] for v in among]
    if len(set(pool)) == len(pool):
        return None
    # each v paired with the first index holding its mask
    first: dict[int, int] = {}
    pairs = ((first.setdefault(masks[v], v), v) for v in among)
    return min(p for p in pairs if p[0] != p[1])


def _refuse_twins(masks: Sequence[int], message: str, among: Sequence[int] | None = None) -> None:
    """Raise ``TwinsError`` with ``_twin_pair(masks, among)`` when there is
    one, its two vertices filling ``{x}`` and ``{y}`` of ``message``."""
    pair = _twin_pair(masks, among)
    if pair is not None:
        raise TwinsError(message.format(x=pair[0], y=pair[1]), pair)


def twin_pairs(g: Graph) -> list[tuple[int, int]]:
    """All unordered pairs with identical closed neighborhoods."""
    groups: dict[int, list[int]] = {}
    for v, m in enumerate(g._cn):
        groups.setdefault(m, []).append(v)
    pairs: list[tuple[int, int]] = []
    for vs in groups.values():
        if len(vs) > 1:
            pairs.extend(itertools.combinations(vs, 2))
    return sorted(pairs)


def is_twin_free(g: Graph) -> bool:
    return len(set(g._cn)) == g.n


# -- constructions on graphs -------------------------------------------


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all edges between the two parts.

    Vertices of g2 are shifted up by g1.n.
    """
    n1, n2 = g1.n, g2.n
    low = (1 << n1) - 1
    high = ((1 << n2) - 1) << n1
    cn = [m | high for m in g1._cn]
    cn += [m << n1 | low for m in g2._cn]
    return Graph._from_masks(tuple(cn))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph._from_masks(tuple(full ^ m | 1 << v for v, m in enumerate(g._cn)))


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph induced by ``keep``; new labels follow sorted old labels."""
    vs = sorted(set(keep))
    kept = g._mask(vs)
    bit = {old: 1 << new for new, old in enumerate(vs)}
    cn = tuple(sum(map(bit.__getitem__, _bit_indices(g._cn[old] & kept))) for old in vs)
    return Graph._from_masks(cn)


def _component_masks(cn) -> list[int]:
    """Component bitmasks of the graph with closed masks ``cn``, ordered by
    least vertex, over all ``len(cn)`` vertices: a component is closed, so
    the reach of the least vertex not yet placed stays in the rest."""
    out = []
    rest = (1 << len(cn)) - 1
    while rest:
        comp = _reach(cn, rest & -rest)
        out.append(comp)
        rest &= ~comp
    return out


def is_connected(g: Graph) -> bool:
    """True for graphs on at most one vertex and for connected graphs."""
    return g.n <= 1 or _reach(g._cn, g._cn[0]) == (1 << g.n) - 1


# -- edge masks, canonical form, isomorphism --------------------------


def graph_from_edge_mask(n: int, mask: int) -> Graph:
    """Graph whose edge set is the edge bitmask ``mask``; the inverse of
    ``_edge_mask``, whose layout it reads block by block: u's pairs
    (u, u + 1), ..., (u, n - 1) are the n - 1 - u bits after those of the
    vertices before it.  A negative n, a bit at or past position C(n, 2) or
    a negative mask stands for no pair and raises ``ValueError``."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    pairs = n * (n - 1) // 2
    if mask < 0 or mask >> pairs:
        raise ValueError(f"an edge mask on {n} vertices must lie in 0..2**{pairs} - 1")
    cn = [1 << v for v in range(n)]
    u, end = 0, n - 1  # end: the position just past u's pairs
    for e in _bit_indices(mask):
        while e >= end:
            u += 1
            end += n - 1 - u
        v = e - end + n
        cn[u] |= 1 << v
        cn[v] |= 1 << u
    return Graph._from_masks(tuple(cn))


def _edge_mask(masks: Sequence[int]) -> int:
    """Edge bitmask of the graph whose neighborhood masks are ``masks``; a
    vertex's own bit, if present, is dropped.

    Bit e stands for the e-th pair u < v in lexicographic order, so the
    pairs of one least vertex u are consecutive and u's higher neighbors
    go in as one shifted block."""
    n = len(masks)
    mask = offset = 0
    for u, m in enumerate(masks):
        mask |= m >> (u + 1) << offset
        offset += n - 1 - u
    return mask


def _refine(cn, cells: list[int], todo: list[int], mark: int = 0, within: int = 0) -> list[int]:
    """Refine the ordered partition ``cells`` (vertex masks) in place until it
    is equitable: every vertex of a cell has as many neighbors in each cell;
    or, given a vertex bit ``mark``, until the last cell has decided it.

    ``todo`` holds the splitter cells still to apply, the last one first.
    Each splitter makes one pass over the cells, from the last to the
    first: a cell splits by its vertices' neighbor counts in the splitter,
    fragments in ascending count order at the cell's place, queued where
    ``todo`` ended when the pass began, so ahead of the fragments of the
    cells after it and in cell order.  The result depends on cell positions
    and counts alone and commutes with relabeling.  The counts are read
    from the closed-neighborhood masks ``cn``, and that splits exactly as
    open counts would: every splitter was once a cell and cells only split,
    so a cell being split lies inside the splitter or misses it, and each
    of its vertices' own bit adds the same 1 or 0 to its count.  A
    one-vertex splitter {v}, as every individualization makes, counts 1 on
    N[v] and 0 off it, so a cell splits by one mask into its part off N[v],
    then its part on N[v].

    The early exit, off by default, is for a root refinement started from
    the degree partition with every class pending, the state after the
    whole vertex set has been applied to the unit partition.  With ``mark``
    set, refinement stops once the last cell, the first one each pass
    visits, has lost ``mark``, or still holds it and lies inside
    ``within``, a set of twins of the marked vertex (equal closed or equal
    open masks).  The last cell only shrinks, so a lost ``mark`` stays
    lost; twins keep equal counts in every splitter, so a twin class is
    never split, and a last cell inside it is already the final one.
    Either way the equitable partition's last cell would give the same
    verdict, and when it does not decide, refinement goes on as without
    ``mark`` and returns the equitable partition.

    Refinement returns as soon as every cell is a singleton, whatever is
    still pending: no splitter splits a singleton, so the rest of the queue
    would leave the partition as it is.
    """
    n = len(cn)
    while todo and len(cells) < n:
        w = todo.pop()
        base = len(todo)
        i = len(cells)
        stop = mark  # until the last cell, visited first, has been tested
        while True:
            if not w & (w - 1):
                near = cn[w.bit_length() - 1]
                while i:
                    i -= 1
                    x = cells[i]
                    hit = x & near
                    if hit and hit != x:
                        cells[i : i + 1] = todo[base:base] = [x ^ hit, hit]
                    if stop:
                        break
            else:
                while i:
                    i -= 1
                    x = cells[i]
                    if x & (x - 1):
                        groups: dict[int, int] = {}
                        rest = x
                        while rest:
                            b = rest & -rest
                            rest ^= b
                            c = (cn[b.bit_length() - 1] & w).bit_count()
                            groups[c] = groups.get(c, 0) | b
                        if len(groups) > 1:
                            cells[i : i + 1] = todo[base:base] = [groups[c] for c in sorted(groups)]
                    if stop:
                        break
            if not stop:
                break
            if not cells[-1] & mark or not cells[-1] & ~within:
                return cells
            stop = 0
    return cells


def _individualize(cn, cells: list[int], t: int, b: int) -> list[int]:
    """The equitable refinement of ``cells`` after the vertex bit ``b`` of
    cell ``t`` is split off in front of the rest of its cell."""
    return _refine(cn, cells[:t] + [b, cells[t] ^ b] + cells[t + 1 :], [b])


def _relabel(cn, lab: list[int]) -> tuple[int, ...]:
    """The closed masks ``cn`` relabeled so that ``lab[i]`` becomes vertex i,
    vertex 0's first; each is below 2**n, so these tuples compare as the
    masks packed into one integer, vertex 0's most significant, would."""
    pos = [1 << i for i in _permutation(lab, range(len(lab)))]
    masks = []
    for v in lab:
        m = 0
        rest = cn[v]
        while rest:
            b = rest & -rest
            rest ^= b
            m |= pos[b.bit_length() - 1]
        masks.append(m)
    return tuple(masks)


def _permutation(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The permutation taking ``a[i]`` to ``b[i]`` for each i, as the list of
    images; ``_permutation(p, range(len(p)))`` is the inverse of ``p``."""
    p = [0] * len(a)
    for x, y in zip(a, b):
        p[x] = y
    return p


def _orbit(mask: int, gens: list[list[int]]) -> int:
    """The union of the orbits of the vertices of ``mask`` under the group
    generated by ``gens`` (each the list of vertex images), as a mask."""
    frontier = mask
    while frontier:
        images = 0
        for v in _bit_indices(frontier):
            for g in gens:
                images |= 1 << g[v]
        frontier = images & ~mask
        mask |= frontier
    return mask


def _canon(cn) -> tuple[tuple[int, ...], list[int], int, list[list[int]]]:
    """Canonical labeling of the graph with closed-neighborhood masks ``cn``
    by colour refinement and individualization (McKay & Piperno, "Practical
    graph isomorphism II", 2014), with automorphism pruning.

    Returns ``(cert, lab, order, gens)``.  ``lab[i]`` is the vertex that the
    canonical labeling numbers i, and ``cert`` is ``_relabel(cn, lab)``, the
    relabeled graph itself; two graphs are isomorphic exactly when their
    certificates are equal.
    Refinement splits closed and open masks alike (see ``_refine``), and
    every labeling's closed certificate is its open one plus the same
    diagonal, so ``lab``, ``order`` and ``gens`` are those of the open
    masks.
    ``order`` is |Aut(G)| and ``gens`` generate Aut(G), each as the list of
    vertex images.

    The search tree individualizes each vertex of the first non-singleton
    cell in turn; its leaves are labelings and the certificate is the
    largest over them; its root is the equitable refinement of the unit
    partition.  One depth-first search walks it, children in ascending
    vertex order, so its first descent, the first path, takes the least
    vertex each time.  Each leaf's relabeled graph goes into a table;
    a leaf whose relabeled graph is already there gives an automorphism,
    and the search jumps back to the deepest node its path shares with the
    earlier leaf's: the subtree it leaves is an image of one already
    searched.  Every earlier leaf shares a first-path node's prefix, so no
    jump passes a first-path node.  At every node a child is skipped when
    it lies in the orbit of an explored sibling under the automorphisms
    found so far that fix the node's prefix pointwise: its subtree is an
    image of the sibling's.  Once a first-path node's children are done,
    those automorphisms give the orbit of its first-path vertex in the
    stabilizer of the prefix, and |Aut(G)| is the product of these orbit
    sizes (orbit-stabilizer along the first path); no group element is ever
    listed.  Matching every earlier leaf, not just the first and the best,
    keeps unions of different equal-parameter graphs fast: a subtree that
    holds neither of those two would otherwise find no automorphism.
    """
    n = len(cn)
    gens: list[list[int]] = []
    leaves: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}  # cert: (lab, trail)
    order = 1

    def search(cells: list[int], trail: list[int]) -> int:
        """Search one subtree; returns the depth to resume at."""
        nonlocal order
        depth = len(trail)
        if len(cells) == n:
            lab = [c.bit_length() - 1 for c in cells]
            cert = _relabel(cn, lab)
            ref = leaves.get(cert)
            if ref is None:
                leaves[cert] = (lab, trail[:])
                return depth
            gens.append(_permutation(ref[0], lab))
            shared = 0
            while trail[shared] == ref[1][shared]:
                shared += 1
            return shared
        on_first_path = not leaves
        t = next(i for i, c in enumerate(cells) if c & (c - 1))
        rest = cells[t]
        done = 0  # the orbits of the children explored so far
        while rest:
            b = rest & -rest
            rest ^= b
            if b & done:
                continue
            trail.append(b.bit_length() - 1)
            back = search(_individualize(cn, cells, t, b), trail)
            trail.pop()
            if back < depth:
                return back
            fixing = [g for g in gens if all(g[v] == v for v in trail)]
            done = _orbit(done | b, fixing)
        if on_first_path:
            order *= _orbit(cells[t] & -cells[t], fixing).bit_count()
        return depth

    search(_refine(cn, [(1 << n) - 1], [(1 << n) - 1]) if n else [], [])
    cert = max(leaves)
    return cert, leaves[cert][0], order, gens


def _descend(cn, cells: list[int], t: int, b: int) -> list[int]:
    """The labeling of the first leaf below the equitable partition
    ``cells`` once the vertex bit ``b`` of cell ``t`` is individualized:
    each level below individualizes the least vertex of the first
    non-singleton cell, as ``_canon``'s first path does.

    Two such labelings, below u and below v of cell ``t``, give the
    permutation ``_permutation(lab_u, lab_v)``, which takes u to v, since
    each individualized vertex sits where cell ``t`` started (refinement
    splits cells in place).  It is an automorphism (``_is_automorphism``)
    exactly when the two leaves relabel the graph alike.  When it is not,
    that proves nothing: another leaf below v may still match."""
    while True:
        cells = _individualize(cn, cells, t, b)
        if len(cells) == len(cn):
            return [c.bit_length() - 1 for c in cells]
        t = next(i for i, c in enumerate(cells) if c & (c - 1))
        b = cells[t] & -cells[t]


def _is_automorphism(cn, p: Sequence[int]) -> bool:
    """Whether the vertex permutation ``p`` (the list of images) maps the
    graph with closed masks ``cn`` onto itself: p(N[u]) = N[p(u)] for every
    u, which holds exactly when ``_relabel(cn, lab)`` equals
    ``_relabel(cn, [p[v] for v in lab])`` for a labeling ``lab``.

    Each edge is tested once, from its lower end, and the test stops at
    the first edge whose image is not an edge.  That suffices: p maps the
    edges one to one, so when every image is an edge, the images are all
    the edges, as many as there are."""
    for u, x in enumerate(cn):
        near = cn[p[u]]
        rest = x >> u + 1 << u + 1  # u's neighbors above u
        while rest:
            b = rest & -rest
            rest ^= b
            if not near >> p[b.bit_length() - 1] & 1:
                return False
    return True


def _labeling(g: Graph) -> tuple[tuple[int, ...], list[int]]:
    """``_canon``'s certificate and labeling of g, refused above the cap."""
    if g.n > ISOMORPHISM_CAP:
        raise ValueError(f"canonical labeling is limited to n <= {ISOMORPHISM_CAP}")
    return _canon(g._cn)[:2]


def canonical_form(g: Graph) -> int:
    """Edge bitmask (``_edge_mask``'s layout) of g relabeled canonically.

    Two graphs have equal forms exactly when they are isomorphic; the form
    is the ``edge_mask`` the scans report for g's class.
    """
    return _edge_mask(_labeling(g)[0])


def find_isomorphism(g1: Graph, g2: Graph) -> list[int] | None:
    """Edge-preserving bijection as a list (image of each g1 vertex), or None.

    After the vertex count, edge count and degree sequence, compares the
    two canonical labelings; the witness maps the vertex each numbers i in
    g1 to the one it numbers i in g2.
    """
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return None
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return None
    cert1, lab1 = _labeling(g1)
    cert2, lab2 = _labeling(g2)
    if cert1 != cert2:
        return None
    return _permutation(lab1, lab2)


# -- edge-list text format ----------------------------------------------


def _ints(tokens: list[str], message: str) -> list[int]:
    """``tokens`` as ints when each is ASCII digits after an optional '-'
    (int() alone would also read '+1', '1_0' as 10, and non-ASCII digits),
    else ``ValueError`` with ``message``, the first refused token filling
    its ``{tok}``.  The package's one rule for a number it reads from text."""
    digits = "".join(tokens).replace("-", "")
    try:  # all tokens at once, then token by token to name a refused one
        if digits.isascii() and digits.isdigit() or not tokens:
            return list(map(int, tokens))
    except ValueError:  # a '-' past the front, or past int()'s digit limit
        pass
    if len(tokens) > 1:
        for tok in tokens:
            _ints([tok], message)
    raise ValueError(message.format(tok=tokens[0]))


def parse_edge_list(text: str) -> Graph:
    """Parse the text edge-list format.

    First data line is "n m", followed by m lines "u v" with 0-based
    endpoints; '#' starts a comment, blank lines are skipped.  A header n
    above ``INPUT_VERTEX_CAP`` is rejected before anything is allocated.
    """
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens = _ints(body.split(), "invalid token {tok!r} in edge list")
    if len(tokens) < 2:
        raise ValueError("edge list must start with a header line 'n m'")
    n, m = tokens[0], tokens[1]
    if n > INPUT_VERTEX_CAP:
        raise ValueError(f"edge list declares {n} vertices; the limit is {INPUT_VERTEX_CAP}")
    if m < 0:
        raise ValueError(f"edge list declares {m} edges; the count must be >= 0")
    rest = tokens[2:]
    if len(rest) != 2 * m:
        raise ValueError(f"expected {2 * m} endpoint numbers after the header, got {len(rest)}")
    edges = [(rest[2 * i], rest[2 * i + 1]) for i in range(m)]
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    """Serialize in the text edge-list format; edges sorted with u < v."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
