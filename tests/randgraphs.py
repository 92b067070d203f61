"""Deterministic pseudo-random test graphs: connected twin-free ones with
maximum degree between 3 and 5 (near-regular pairings, or rings of cubic
blobs for a large diameter), sparse ones under a degree cap, and connected
twin-free G(n, p)."""

from __future__ import annotations

import itertools
import random

from idcodes.graph import Graph, is_connected, is_twin_free


def _random_regular(n: int, d: int, rng: random.Random) -> Graph | None:
    """One attempt at a d-regular simple graph via stub pairing."""
    stubs = [v for v in range(n) for _ in range(d)]
    rng.shuffle(stubs)
    edges = set()
    for i in range(0, len(stubs), 2):
        u, v = stubs[i], stubs[i + 1]
        if u == v or (min(u, v), max(u, v)) in edges:
            return None
        edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


def random_bounded_degree_graph(seed: int, min_n: int = 20, max_n: int = 60) -> Graph:
    """Connected twin-free graph, min_n <= n <= max_n (one more when n * d
    is odd), max degree in {3, 4, 5}.

    Even seeds give regular graphs; odd seeds drop one edge from a regular
    graph (keeping the maximum degree) for non-regular coverage.
    """
    rng = random.Random(seed)
    while True:
        d = rng.choice((3, 4, 5))
        n = rng.randrange(min_n, max_n + 1)
        if n * d % 2:
            n += 1
        g = _random_regular(n, d, rng)
        if g is None:
            continue
        if seed % 2:
            u, v = rng.choice(g.edges())
            edges = [e for e in g.edges() if e != (u, v)]
            g = Graph(n, edges)
            if g.max_degree() != d:
                continue
        if is_connected(g) and is_twin_free(g) and 3 <= g.max_degree() <= 5:
            return g


def random_sparse_graph(seed: int, n: int, max_degree: int) -> Graph:
    """Graph on n vertices from about n random edge draws, skipping any that
    would push a degree above ``max_degree``; often disconnected."""
    rng = random.Random(seed)
    degree = [0] * n
    edges = set()
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        e = (min(u, v), max(u, v))
        if u != v and e not in edges and degree[u] < max_degree and degree[v] < max_degree:
            edges.add(e)
            degree[u] += 1
            degree[v] += 1
    return Graph(n, edges)


def random_blob_ring(seed: int, blobs: int, blob_size: int = 24) -> Graph:
    """Connected twin-free graph of large diameter and maximum degree at
    most 5: random cubic blobs in a ring, each joined to the next by one
    edge between random members."""
    rng = random.Random(seed)
    while True:
        edges = set()
        for b in range(blobs):
            blob = None
            while blob is None:
                blob = _random_regular(blob_size, 3, rng)
            edges |= {(u + b * blob_size, v + b * blob_size) for u, v in blob.edges()}
        for b in range(blobs):
            u = b * blob_size + rng.randrange(blob_size)
            v = (b + 1) % blobs * blob_size + rng.randrange(blob_size)
            edges.add((min(u, v), max(u, v)))
        g = Graph(blobs * blob_size, edges)
        if is_connected(g) and is_twin_free(g):
            return g


def gnp_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """The edges of G(n, p): one coin per vertex pair, in lexicographic order."""
    return [e for e in itertools.combinations(range(n), 2) if rng.random() < p]


def random_connected_twin_free_gnp(seed: int, n: int, p: float) -> Graph:
    """G(n, p) with one coin per vertex pair, in lexicographic order, drawn
    again from the same generator until connected and twin-free."""
    rng = random.Random(seed)
    while True:
        g = Graph(n, gnp_edges(rng, n, p))
        if is_connected(g) and is_twin_free(g):
            return g
