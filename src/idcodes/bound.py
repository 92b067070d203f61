"""Constructive upper bounds on minimum identifying codes: the removable
vertex finder, greedy distance-d independent sets, the code-from-independent-
set composition, and the degree-based pipelines with exact rational bound
values."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import codes
from .codes import _least_removable
from .graph import (
    Graph,
    PreconditionError,
    _balls,
    _check_radius,
    _reach,
    _refuse_twins,
    is_connected,
)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one constructive bound run.

    ``code`` = all vertices minus ``mapped_set`` and verifies as a valid
    r-identifying code; ``bound_value`` is the exact rational ceiling
    n - n / ``ball_size_limit(D, R)``, R = 5r for Theorems 14 and 19 and R = 3
    for Theorem 15, absent when the maximum degree D is below 3.
    """

    theorem: str
    radius: int
    independent_set: frozenset[int]
    mapped_set: frozenset[int]
    code: frozenset[int]
    bound_value: Fraction | None

    def bound_ceiling(self) -> int | None:
        return None if self.bound_value is None else math.ceil(self.bound_value)

    def to_dict(self) -> dict:
        bv = self.bound_value
        return {
            "theorem": self.theorem,
            "radius": self.radius,
            "independent_set": sorted(self.independent_set),
            "mapped_set": sorted(self.mapped_set),
            "code": sorted(self.code),
            "code_size": len(self.code),
            "bound_value": None if bv is None else [bv.numerator, bv.denominator],
            "bound_ceiling": self.bound_ceiling(),
        }


def ball_size_limit(max_degree: int, radius: int) -> int:
    """Largest possible ball size in a graph of the given maximum degree (the Moore bound).

    Computed as the explicit sum 1 + D * sum_{j<radius} (D-1)^j, which stays
    defined at D = 2 where the usual closed form divides by zero.
    """
    if max_degree < 0 or radius < 0:
        raise ValueError("arguments must be non-negative")
    total = 1
    layer = max_degree
    for _ in range(radius):
        total += layer
        layer *= max(max_degree - 1, 0)
    return total


def _twin_free_balls(g: Graph, radius: int) -> tuple[list[int], set[int]]:
    """The radius-r balls and their set, refusing a power with twins."""
    balls = _balls(g, radius)
    index = set(balls)
    if len(index) != g.n:  # tested on the index: _twin_pair would build the set again
        _refuse_twins(
            balls, f"the radius-{radius} power has twins {{x}} and {{y}}; no identifying code exists"
        )
    return balls, index


def removable_vertex_in_ball(g: Graph, x: int, radius: int = 1) -> int:
    """Least y within distance r of x whose removal from the r-th power
    leaves it twin-free.

    Such a vertex exists in every finite graph whose r-th power is
    twin-free.
    """
    _check_radius(radius)
    g._check_vertex(x)
    balls, index = _twin_free_balls(g, radius)
    y = _least_removable(balls, index, x)
    if y is None:  # pragma: no cover - impossible for finite twin-free powers
        raise RuntimeError(f"no removable vertex found in the ball of {x}")
    return y


def greedy_independent_set(g: Graph, min_distance: int) -> frozenset[int]:
    """Maximal set with pairwise distance >= min_distance, greedy by index."""
    if min_distance < 1:
        raise ValueError("minimum distance must be >= 1")
    chosen: list[int] = []
    free = (1 << g.n) - 1
    while free:  # the least vertex not yet within min_distance - 1 of the set
        b = free & -free
        chosen.append(b.bit_length() - 1)
        free &= ~_reach(g._cn, b, radius=min_distance - 1)
    return frozenset(chosen)


def code_from_independent_set(
    g: Graph, chosen: Iterable[int], radius: int = 1
) -> frozenset[int]:
    """All vertices minus a (3r+1)-independent set of individually removable
    vertices, verified as an r-identifying code before returning.

    Preconditions checked, in this order: the set is (3r+1)-independent
    (equivalently 4-independent in the r-th power), and every member v, in
    increasing order, leaves the full vertex set minus v a valid
    r-identifying code.  The radius-r balls are built once, after the
    spacing check, and ``_certified_complement`` decides on them once, on
    V - M: a superset of an identifying code identifies, so when it accepts,
    every V - v does too.  Only when it refuses are the V - v certified in
    increasing order on the same balls, the first failure raising with its
    witness, and the complement's refusal raised last.
    """
    _check_radius(radius)
    members = sorted(set(chosen))
    later = g._mask(members)
    spread = 3 * radius + 1
    for u in members:
        later ^= 1 << u
        close = _reach(g._cn, 1 << u, radius=spread - 1) & later
        if close:
            v = (close & -close).bit_length() - 1
            raise PreconditionError(
                f"vertices {u} and {v} are closer than {spread}; "
                f"the set is not {spread}-independent"
            )
    balls = _balls(g, radius)
    try:
        return _certified_complement(balls, set(balls), members, radius)
    except PreconditionError:
        everything = (1 << g.n) - 1
        for v in members:
            failure = f"removing vertex {v} alone does not leave an identifying code"
            codes._require_identifying_on(balls, everything ^ 1 << v, radius, failure)
        raise


def _certified_complement(
    balls: list[int], index: set[int], removed: Iterable[int], radius: int
) -> frozenset[int]:
    """V minus the distinct vertices ``removed``, once it is accepted as a
    code on the graph's radius-r ``balls``, whose set is ``index``.

    ``codes._complement_identifies`` checks the signatures within r of the
    removed set; ``codes._certify`` runs only when it refuses, to name the
    witness."""
    mask = 0
    for v in removed:
        mask |= 1 << v
    n = len(balls)
    if not codes._complement_identifies(balls, index, mask):
        codes._require_identifying_on(
            balls, ((1 << n) - 1) ^ mask, radius, "the complement of the set fails to identify"
        )
    return frozenset(range(n)).difference(removed)


def _ceiling(n: int, delta: int, spacing: int) -> Fraction | None:
    """A greedy set ``spacing`` apart has >= n / ball_size_limit(delta, spacing - 1) members."""
    if delta < 3:
        return None
    return n * (1 - Fraction(1, ball_size_limit(delta, spacing - 1)))


def constructive_upper_bound(g: Graph, radius: int = 1) -> BoundReport:
    """Greedy (5r+1)-independent set, one removable vertex inside each ball,
    and the complement of the mapped set as the resulting code.

    The code is built as the proof builds it, then certified once by
    ``_certified_complement`` on the balls the mapping step used.  The
    per-member checks of ``code_from_independent_set`` would add nothing:

    - each image lies within r of its preimage, so the images of a
      (5r+1)-independent set are distinct and (3r+1)-apart;
    - each image y passed ``_least_removable`` when it was chosen, and
      B(y) != {y} in a connected graph on two or more vertices, so V - y
      identifies;
    - a subset of a non-code is not a code, so if some V - y failed, the
      code V - M would fail too, and the final certificate covers every
      per-member verdict.
    - one greedy member means B_5r(0) = V, so only larger sets test connectivity.
    """
    _check_radius(radius)
    if g.n < 2:
        raise PreconditionError("the pipeline needs at least 2 vertices")
    spacing = 5 * radius + 1
    independent = greedy_independent_set(g, spacing)
    if len(independent) > 1 and not is_connected(g):
        raise PreconditionError("the pipeline is defined for connected graphs")
    balls, index = _twin_free_balls(g, radius)
    mapped = []
    for x in sorted(independent):
        y = _least_removable(balls, index, x)
        if y is None:  # pragma: no cover
            raise RuntimeError(f"no removable vertex in the ball of {x}")
        mapped.append(y)
    assert len(set(mapped)) == len(mapped), "mapped set lost injectivity"
    code = _certified_complement(balls, index, mapped, radius)
    theorem = "thm14" if radius == 1 else "thm19"
    return BoundReport(
        theorem,
        radius,
        independent,
        frozenset(mapped),
        code,
        _ceiling(g.n, g.max_degree(), spacing),
    )


def regular_constructive_bound(g: Graph) -> BoundReport:
    """Regular-graph variant: the greedy 4-independent set itself is removed.

    In a regular twin-free graph all unit balls have the same size, so no
    B(x) ^ B(y) is a single vertex and every single-vertex deletion keeps
    the graph identifiable; no removable-vertex mapping step is needed and
    the ceiling's ball shrinks to ``ball_size_limit(D, 3)`` = 1 + D - D^2 +
    D^3.  The set is 4-independent, the (3r+1) spacing at r = 1, and as in
    ``constructive_upper_bound`` its complement is certified once by
    ``_certified_complement`` on the unit balls the twin check built, which
    covers every per-member verdict.
    """
    if g.n < 2:
        raise PreconditionError("the pipeline needs at least 2 vertices")
    if not is_connected(g):
        raise PreconditionError("the pipeline is defined for connected graphs")
    degs = g.degrees()
    if len(set(degs)) != 1:
        raise PreconditionError("this variant needs a regular graph")
    balls, index = _twin_free_balls(g, 1)
    spacing = 4
    independent = greedy_independent_set(g, spacing)
    code = _certified_complement(balls, index, independent, 1)
    return BoundReport("thm15", 1, independent, independent, code, _ceiling(g.n, degs[0], spacing))
