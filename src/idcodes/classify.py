"""Structural recognition of the connected graphs whose minimum identifying
code needs all but one vertex: stars, joins of band graphs, and joins of
band graphs with one universal vertex."""

from __future__ import annotations

from dataclasses import dataclass

from .families import FamilySpec
from .graph import Graph, PreconditionError, _component_masks, _refuse_twins, is_connected

STAR = "star"
JOIN_FAMILY = "join-family"
JOIN_FAMILY_UNIVERSAL = "join-family-universal"
NOT_EXTREMAL = "not-extremal"

# the family variant that rebuilds each extremal outcome
_VARIANT = {STAR: "star", JOIN_FAMILY: "join", JOIN_FAMILY_UNIVERSAL: "join+u"}


@dataclass(frozen=True)
class ClassificationResult:
    """Outcome of the extremal recognizer.

    Extremal outcomes imply the minimum identifying code has size n - 1.
    ``factors`` holds the band-graph orders sorted ascending for the two
    join-family outcomes; ``star_t`` the leaf count for stars.
    """

    outcome: str
    star_t: int | None = None
    factors: tuple[int, ...] = ()
    implied_gamma_id: int | None = None

    @property
    def is_extremal(self) -> bool:
        return self.outcome != NOT_EXTREMAL

    def family_spec(self) -> FamilySpec | None:
        """Spec reconstructing a graph isomorphic to the classified input."""
        variant = _VARIANT.get(self.outcome)
        params = self.factors if self.star_t is None else (self.star_t,)
        return FamilySpec(variant, params) if variant else None

    def to_dict(self) -> dict:
        spec = self.family_spec()
        return {
            "outcome": self.outcome,
            "star_t": self.star_t,
            "factors": list(self.factors),
            "implied_gamma_id": self.implied_gamma_id,
            "family_spec": spec.spec_string() if spec else None,
        }


def recognize_band_graph(g: Graph) -> int | None:
    """Return k when g is isomorphic to band_graph(k), else None, at any order."""
    return _band_factor(g._cn, (1 << g.n) - 1) if g.n else None


def _band_factor(cn: tuple[int, ...], comp: int) -> int | None:
    """Return k when the vertex set ``comp`` induces a copy of band_graph(k)
    in the graph with closed-neighborhood masks ``cn``, else None.

    The rebuild is exact, with no isomorphism search, at any order.  In B_k
    (vertices 0..2k-1) vertex i has degree k - 1 + min(i, 2k - 1 - i), so
    the two endpoints alone have the minimum degree k - 1; endpoint 0's
    neighbors 1..k-1 have the distinct degrees k..2k-2 and its non-neighbors
    k..2k-1 the distinct degrees 2k-2..k-1.  The reflection i -> 2k-1-i is
    an automorphism, so a vertex x of minimum degree k - 1 is rebuilt as
    endpoint 0, and each other vertex goes to the position its degree and
    its adjacency to x give: a neighbor to 0..k, a non-neighbor to k..2k-1.
    A taken position, x's own 0 among them, rejects; then each closed
    neighborhood in ``comp`` must be the window of positions within distance
    k - 1 of its own, which a neighbor of x at k fails.  That check alone
    accepts, and a copy of B_k never fails it, so the answer is exact.
    """
    size = comp.bit_count()
    if size % 2:
        return None
    k = size // 2
    degs = {}
    total = 0
    rest = comp
    while rest:
        b = rest & -rest
        rest ^= b
        v = b.bit_length() - 1
        degs[v] = d = (cn[v] & comp).bit_count() - 1
        total += d
    # the band degree sequence {k-1..2k-2} twice sums to 3k(k-1)
    if total != 3 * k * (k - 1):
        return None
    x = min(degs, key=degs.__getitem__)
    if degs[x] != k - 1:
        return None
    order = [x] + [-1] * (size - 1)
    near = cn[x]
    for v, d in degs.items():
        if v == x:
            continue
        i = d - k + 1 if near >> v & 1 else 3 * k - 2 - d
        if order[i] >= 0:
            return None
        order[i] = v
    below = [0]
    for v in order:
        below.append(below[-1] | 1 << v)
    for i, v in enumerate(order):
        window = below[min(i + k, size)] & ~below[max(i - k + 1, 0)]
        if cn[v] & comp != window:
            return None
    return k


def classify_extremal(g: Graph) -> ClassificationResult:
    """Decide whether a connected twin-free graph needs n - 1 code vertices.

    Stars are detected first (the two-leaf star is also a join-family
    member; the star outcome wins for it).  Everything else is decomposed
    through the complement: join factors of g are exactly the connected
    components of the complement, so g belongs to the join family iff each
    component induces a band graph in g, with at most one single-vertex
    component playing the universal-vertex role.  All of it runs on the
    adjacency masks; no subgraph is built.
    """
    n = g.n
    if n < 2:
        raise PreconditionError("classification needs at least 2 vertices")
    if not is_connected(g):
        raise PreconditionError("classification is defined for connected graphs only")
    _refuse_twins(g._cn, "vertices {x} and {y} are twins; no identifying code exists")
    return _classify_masks(g._cn)


def _classify_masks(cn: tuple[int, ...]) -> ClassificationResult:
    """``classify_extremal`` on the closed-neighborhood masks of a graph the
    caller knows to be connected, twin-free and on n = len(cn) >= 2
    vertices; the preconditions are not checked again."""
    n = len(cn)
    full = (1 << n) - 1
    degrees = [m.bit_count() - 1 for m in cn]
    # a connected graph with n - 1 edges is a tree; with a universal vertex, a star
    if n >= 3 and max(degrees) == n - 1 and sum(degrees) == 2 * (n - 1):
        return ClassificationResult(STAR, star_t=n - 1, implied_gamma_id=n - 1)

    factors: list[int] = []
    universal_seen = 0
    for comp in _component_masks([full ^ m | 1 << v for v, m in enumerate(cn)]):
        if not comp & (comp - 1):
            universal_seen += 1
            continue
        k = _band_factor(cn, comp)
        if k is None:
            return ClassificationResult(NOT_EXTREMAL)
        factors.append(k)
    # twin-free: at most one universal vertex, so n >= 2 leaves a band factor
    assert universal_seen <= 1, "twin-free graph cannot have two universal vertices"
    factors.sort()
    if universal_seen:
        return ClassificationResult(
            JOIN_FAMILY_UNIVERSAL, factors=tuple(factors), implied_gamma_id=n - 1
        )
    # a single order-1 factor alone would be the disconnected two-vertex
    # graph, which the connectivity precondition excludes
    assert factors != [1]
    return ClassificationResult(JOIN_FAMILY, factors=tuple(factors), implied_gamma_id=n - 1)
