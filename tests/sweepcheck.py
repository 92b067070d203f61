"""An order-free check of a sweep stream: each isomorphism class at most
once, with its number of labeled graphs, whatever the order the classes
arrive in and whatever labeling each arrives in.

``check_classes`` names each class by ``graph._canon``'s certificate.
``_canon`` shares ``_refine`` with the sweep, so the certificates and the
orders are a second route through the same refinement, not a separate
oracle.  Only the class counts (OEIS A000088 and A001349), the labeled
total 2^C(n,2) and ``brute.automorphism_count`` on sampled classes are
independent of both.  Run on a stream from a script as

    import sys; sys.path.insert(0, "tests")
    from sweepcheck import check_classes
"""

from __future__ import annotations

from collections import Counter
from math import comb, factorial
from typing import Iterable

from idcodes.graph import _canon

# isomorphism classes of graphs on n = 0..9 vertices (OEIS A000088) and of
# connected ones (A001349)
GRAPHS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668)
CONNECTED = (1, 1, 1, 2, 6, 21, 112, 853, 11117, 261080)


def check_classes(
    stream: Iterable[tuple[int, int, tuple[int, ...]]], connected: bool = False, twin_free: bool = False
) -> dict[int, list[tuple[int, ...]]]:
    """The sorted ``_canon`` certificates of the (n, weight, cn) items of
    a sweep stream, per n, after asserting that
    - no two items of one n share a certificate;
    - every weight is n!/|Aut| with ``_canon``'s |Aut|;
    - without the twin-free filter, each n holds A000088's count of
      classes, or A001349's for a ``connected`` stream;
    - without either filter, the weights of each n add up to 2^C(n,2).
    A level with no item is not in the result; the caller checks which
    levels the stream reached."""
    certs: dict[int, set[tuple[int, ...]]] = {}
    labeled: Counter[int] = Counter()
    for n, weight, cn in stream:
        cert, _, order, _ = _canon(cn)
        assert weight * order == factorial(n), (n, weight, cn)
        level = certs.setdefault(n, set())
        assert cert not in level, (n, cn)
        level.add(cert)
        labeled[n] += weight
    for n, level in certs.items():
        if not twin_free:
            assert len(level) == (CONNECTED if connected else GRAPHS)[n], (n, len(level))
        if not (connected or twin_free):
            assert labeled[n] == 2 ** comb(n, 2), (n, labeled[n])
    return {n: sorted(level) for n, level in certs.items()}
