"""Verification of dominating / separating / identifying / locating-dominating
codes at any radius, the removable-vertex probe, and the bipartite
membership-graph view that connects separating sets to discriminating codes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import (
    Graph,
    PreconditionError,
    _balls,
    _bit_indices,
    _check_radius,
    _reach,
    _twin_pair,
)

# the four kinds of code in a graph; discriminating codes live on the
# membership graph and are checked by ``is_discriminating`` alone
KINDS = ("dominating", "separating", "identifying", "locating-dominating")


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown code kind {kind!r}; expected one of {sorted(KINDS)}")


@dataclass(frozen=True)
class CodeCertificate:
    """Verdict of a code check.

    Exactly one of the witness fields is set when ``valid`` is False:
    ``witness_vertex`` for an undominated vertex, ``witness_pair`` (with the
    shared restricted ball in ``witness_signature``) for an unseparated pair.
    Witnesses are deterministic: the least undominated vertex, else the
    lexicographically first failing pair.  Domination failures take
    precedence over separation failures.
    """

    kind: str
    radius: int
    valid: bool
    witness_vertex: int | None = None
    witness_pair: tuple[int, int] | None = None
    witness_signature: frozenset[int] | None = None

    def to_dict(self) -> dict:
        if self.valid:
            witness = None
        elif self.witness_vertex is not None:
            witness = {"undominated": self.witness_vertex}
        else:
            witness = {
                "pair": list(self.witness_pair),
                "signature": sorted(self.witness_signature),
            }
        return {
            "kind": self.kind,
            "radius": self.radius,
            "valid": self.valid,
            "witness": witness,
        }


def _certify(kind: str, radius: int, balls: list[int], c: int) -> CodeCertificate:
    """Verdict from the code-restricted balls ``b & c`` as a code of
    ``kind`` (one of ``KINDS``, or discriminating), which fixes the rule.

    Every kind but separating and discriminating dominates: the least
    vertex with an empty signature fails first.  Then the least pair with
    equal signatures fails, picked by ``graph._twin_pair`` as every twin
    refusal is: of no pair for dominating, of the pairs outside ``c`` for
    locating-dominating, of all pairs otherwise.  A valid code is
    recognised from the signatures alone; the witness search runs only on
    failure.
    """
    sigs = [b & c for b in balls]
    if kind not in ("separating", "discriminating") and not all(sigs):
        return CodeCertificate(kind, radius, False, witness_vertex=sigs.index(0))
    if kind == "dominating":
        return CodeCertificate(kind, radius, True)
    outside = _bit_indices(~c & (1 << len(sigs)) - 1) if kind == "locating-dominating" else None
    pair = _twin_pair(sigs, outside)
    if pair is None:
        return CodeCertificate(kind, radius, True)
    return CodeCertificate(
        kind,
        radius,
        False,
        witness_pair=pair,
        witness_signature=frozenset(_bit_indices(sigs[pair[0]])),
    )


# -- accept-only kernels ---------------------------------------------------
# Three accept paths over the same signatures, each where it measured faster
# (CPython 3.11, best of runs).  The scans test many small subsets that
# mostly fail, and this early-exit loop wins there: 21.6 vs 51.4 ms
# identifying and 48.2 vs 76.8 ms locating-dominating over every code
# that ``scans._misses`` tests, missing one or two vertices, of every graph
# on 2 to 7 vertices.  ``_certify`` builds all signatures in one
# comprehension, which wins on large valid codes: 0.81 vs 1.32 ms on a
# 1991-vertex code of a 2000-vertex graph.  The bound pipelines remove a
# spaced set from twin-free balls they have already hashed, and
# ``_complement_identifies`` checks only the signatures the removed set
# changes: under 0.05 ms where ``_certify`` took 0.50-0.57 ms on the
# 2000-vertex bench graphs.  All three are cross-tested with ``_certify``.


def _identifying_ok(balls: list[int], c: int) -> bool:
    seen = set()
    for b in balls:
        s = b & c
        if not s or s in seen:
            return False
        seen.add(s)
    return True


def _locating_dominating_ok(balls: list[int], c: int) -> bool:
    seen = set()
    for v, b in enumerate(balls):
        s = b & c
        if not s:
            return False
        if not c >> v & 1:
            if s in seen:
                return False
            seen.add(s)
    return True


def _complement_identifies(balls: list[int], index: set[int], removed: int) -> bool:
    """Whether all vertices but the mask ``removed`` identify, given a
    graph's radius-r ``balls`` and ``index``, the set of them.

    Balls are symmetric, so the signatures ``removed`` changes are those of
    ``near``, the union of its balls.  With the balls twin-free, every other
    signature is its own distinct, nonempty ball, and a changed signature s
    collides with one exactly when s is in ``index``: a ball that misses
    ``removed`` belongs to an unchanged vertex.  With twins the answer is
    False, and ``_certify`` names the pair.
    """
    if len(index) != len(balls):
        return False
    near = _reach(balls, removed, radius=1)
    keep = ~removed
    seen = set()
    while near:
        x = near.bit_length() - 1
        near ^= 1 << x
        s = balls[x] & keep
        if not s or s in index or s in seen:
            return False
        seen.add(s)
    return True


def _least_removable(balls: list[int], index: set[int], x: int) -> int | None:
    """Least y in B(x) whose deletion leaves the balls twin-free, that is,
    for which the code "all vertices but y" separates.

    Callers pass twin-free, symmetric balls and ``index``, the set of them.
    Two balls that agree off y differ in y alone, and y lies in the one that
    holds it, whose owner u then lies in B(y).  So y is removable exactly
    when no u in B(y) has B(u) ^ {y} in the index, and each probe costs
    |B(y)| lookups instead of a pass over all n balls.  y's own trace is
    covered too: B(u) - y = B(y) - y for some u != y would make B(u) ^ {y}
    = B(y) for u in B(y).
    """
    m = balls[x]
    while m:
        b = m & -m
        m ^= b
        y = b.bit_length() - 1
        rest = balls[y]
        while rest:
            u = rest & -rest
            rest ^= u
            if (balls[u.bit_length() - 1] ^ b) in index:
                break
        else:
            return y
    return None


def check_code(g: Graph, code: Iterable[int], kind: str, radius: int = 1) -> CodeCertificate:
    """Verdict on ``code`` as a radius-r code of ``kind``, one of ``KINDS``.

    Every kind but separating dominates; separating sets and identifying
    codes separate every pair, locating-dominating sets every pair outside
    the code.
    """
    _check_kind(kind)
    _check_radius(radius)
    return _certify(kind, radius, _balls(g, radius), g._mask(code))


def _require_identifying_on(balls: list[int], c: int, radius: int, failure: str) -> None:
    """Raise ``PreconditionError(f"{failure}: {witness}")``, carrying the
    certificate as ``.certificate``, unless the code mask ``c`` is
    r-identifying on a graph's radius-r ``balls``; the verdict is
    ``check_code``'s for kind identifying."""
    cert = _certify("identifying", radius, balls, c)
    if not cert.valid:
        err = PreconditionError(f"{failure}: {cert.to_dict()['witness']}")
        err.certificate = cert
        raise err


# -- membership graph and discriminating codes --------------------------


@dataclass(frozen=True)
class BipartiteMembershipGraph:
    """Bipartite view of a graph's unit balls.

    One side has the n source vertices, the other one node per closed ball
    B_1(v) (labeled by v); vertex u is joined to the ball node of v exactly
    when u lies in B_1(v).
    """

    balls: tuple[frozenset[int], ...]

    @property
    def n(self) -> int:
        return len(self.balls)


def membership_graph(g: Graph) -> BipartiteMembershipGraph:
    return BipartiteMembershipGraph(
        tuple(frozenset(_bit_indices(m)) for m in g._cn)
    )


def is_discriminating(
    bg: BipartiteMembershipGraph, chosen: Iterable[int]
) -> CodeCertificate:
    """Valid iff all source vertices get distinct neighborhoods in ``chosen``.

    ``chosen`` lists ball-node labels.  The witness signature, when present,
    holds ball-node labels rather than source vertices.
    """
    n = bg.n
    c = 0
    for v in sorted(set(chosen)):
        if not (0 <= v < n):
            raise ValueError(f"invalid ball node {v}: range is 0..{n - 1}")
        c |= 1 << v
    # entries outside 0..n-1 name no source vertex
    balls = [sum(1 << u for u in ball if 0 <= u < n) for ball in bg.balls]
    return _certify("discriminating", 1, _holders(balls), c)


def _holders(balls: list[int]) -> list[int]:
    """The transpose of the membership masks ``balls``: the ball nodes holding each vertex."""
    holders = [0] * len(balls)
    for v, ball in enumerate(balls):
        for u in _bit_indices(ball):
            holders[u] |= 1 << v
    return holders
