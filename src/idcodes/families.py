"""Generators for the concrete graph families used throughout the package:
band graphs, stars, join families, complete graphs minus a matching, the
10-vertex square-root fixture, and assorted standard graphs for tests and
the benchmark."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, NamedTuple

from .graph import INPUT_VERTEX_CAP, Graph, _ints, join


@dataclass(frozen=True)
class FamilySpec:
    """A named family member: variant tag plus integer parameters.

    Variants (matching the CLI ``--family`` grammar, one row of ``VARIANTS`` each):
      A:<k>            band graph of order k
      star:<t>         star with t >= 2 leaves
      join:<k1>,...    join of band graphs of the listed orders
      join:<...>+u     the same plus one universal vertex (variant "join+u")
      KminusM:<n>      complete graph minus a maximal matching
    """

    variant: str
    params: tuple[int, ...]

    def __post_init__(self):
        row = VARIANTS.get(self.variant)
        if row is None:
            raise ValueError(f"unknown family variant {self.variant!r}")
        p = self.params
        for x in p:  # exactly int: a bool would print as True, a float give a float order
            if type(x) is not int:
                raise ValueError(f"family parameter {x!r} is not an integer")
        if not p or (len(p) > 1 and not row.listed) or min(p) < row.least:
            raise ValueError(row.refusal)

    @property
    def order(self) -> int:
        """Vertex count of the member, known without building it."""
        row = VARIANTS[self.variant]
        return row.scale * sum(self.params) + row.extra

    def spec_string(self) -> str:
        head, plus, suffix = self.variant.partition("+")
        return f"{head}:{','.join(map(str, self.params))}{plus}{suffix}"


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the CLI mini-grammar, e.g. 'A:3', 'star:4', 'join:1,2+u', 'KminusM:6'.

    A member with more than ``graph.INPUT_VERTEX_CAP`` vertices is rejected
    before any graph is built, like an edge-list header.
    """
    head, sep, tail = text.partition(":")
    if not sep or not tail:
        raise ValueError(f"malformed family spec {text!r}")
    if head not in VARIANTS or head.endswith("+u"):
        raise ValueError(f"unknown family variant {head!r}")
    if tail.endswith("+u") and head + "+u" in VARIANTS:
        head, tail = head + "+u", tail[:-2]
    spec = FamilySpec(head, tuple(_ints(tail.split(","), "family parameter {tok!r} is not an integer")))
    if spec.order > INPUT_VERTEX_CAP:
        raise ValueError(f"family member has {spec.order} vertices; the limit is {INPUT_VERTEX_CAP}")
    return spec


def band_graph(k: int) -> Graph:
    """The graph on 2k vertices with i ~ j exactly when |i - j| <= k - 1.

    Equals the (k-1)-th power of the path on 2k vertices for k >= 2; at
    k = 1 it is two isolated vertices.  Twin-free for every k.
    """
    if k < 1:
        raise ValueError("band graph order must be >= 1")
    n = 2 * k
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, min(i + k, n))])


def star_graph(t: int) -> Graph:
    """Star with center 0 and t leaves 1..t."""
    if t < 1:
        raise ValueError("star needs at least one leaf")
    return Graph(t + 1, [(0, i) for i in range(1, t + 1)])


def join_family(ks: list[int] | tuple[int, ...]) -> Graph:
    """Join of band graphs, blocks concatenated in list order."""
    if not ks:
        raise ValueError("join factor list must be non-empty")
    return reduce(join, (band_graph(k) for k in ks))


def join_family_plus_universal(ks: list[int] | tuple[int, ...]) -> Graph:
    """Join family with one universal vertex appended last."""
    return join(join_family(ks), Graph(1))


def complete_minus_matching(n: int) -> Graph:
    """Complete graph on n vertices minus a maximal matching.

    Even n: the join of n/2 two-vertex independent blocks, i.e. the matching
    removed is {0,1}, {2,3}, ...  Odd n: the even construction on n - 1
    vertices plus a universal vertex (the vertex left unmatched), which is
    isomorphic to deleting a near-perfect matching from the complete graph.
    """
    if n < 2:
        raise ValueError("complete-minus-matching needs n >= 2")
    if n % 2 == 0:
        return join_family([1] * (n // 2))
    return join_family_plus_universal([1] * ((n - 1) // 2))


class _Row(NamedTuple):
    build: Callable[..., Graph]  # from the parameter list when listed, else from its one entry
    listed: bool  # takes a list of parameters, not exactly one
    least: int  # the least parameter
    refusal: str  # the message for parameters that break those two rules
    scale: int  # the vertex count is scale * (sum of the parameters) + extra
    extra: int


_FACTORS = "join factor list must be non-empty with entries >= 1"

# the family grammar, one row per variant; "join:<...>+u" names the row "join+u"
VARIANTS = {
    "A": _Row(band_graph, False, 1, "band graph order must be a single integer >= 1", 2, 0),
    "star": _Row(star_graph, False, 2, "star leaf count must be a single integer >= 2", 1, 1),
    "join": _Row(join_family, True, 1, _FACTORS, 2, 0),
    "join+u": _Row(join_family_plus_universal, True, 1, _FACTORS, 2, 1),
    "KminusM": _Row(complete_minus_matching, False, 2, "complete-minus-matching order must be >= 2", 1, 0),
}


def make_family(spec: FamilySpec) -> Graph:
    row = VARIANTS[spec.variant]
    return row.build(spec.params if row.listed else spec.params[0])


def band5_square_root() -> Graph:
    """A sparse second root of band_graph(5).

    Ten path vertices plus seven chords; its square equals band_graph(5)
    under the identity labeling, yet the chord between vertices 1 and 4
    (distance 3 along the path) shows it is not a subgraph of the square
    of the path.
    """
    path = [(i, i + 1) for i in range(9)]
    chords = [(0, 2), (1, 4), (2, 4), (3, 6), (5, 7), (5, 8), (7, 9)]
    return Graph(10, path + chords)


# -- assorted standard graphs (for tests and the benchmark) -----------


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)
