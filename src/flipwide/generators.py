"""Deterministic graph family generators used as positive and negative
controls: cliques, matchings, half-graphs, star forests, grids, subdivided
cliques, shattering gadgets, and a reproducible bounded-degree random family.

Every constructor is a pure function of its parameters. The random family
uses splitmix64 with the published constants, so fixtures reproduce
bit-for-bit across runs and reimplementations.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .errors import InputError
from .graphcore import Graph, ball_mask, check_vertex_count, iter_bits

_MASK64 = (1 << 64) - 1


def splitmix64(seed: int) -> Iterator[int]:
    """The splitmix64 stream for ``seed``.

    Constants 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    per the reference implementation; first output for seed 0 is
    0xE220A8397B1DCDAF.
    """
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _positive(name: str, value: int) -> None:
    if value <= 0:
        raise InputError(f"{name} must be positive, got {value}")


def clique(n: int) -> Graph:
    _positive("n", n)
    check_vertex_count(n)
    return Graph.from_edges(n, combinations(range(n), 2))


def edgeless(n: int) -> Graph:
    _positive("n", n)
    check_vertex_count(n)
    return Graph(n)


def matching(n: int) -> Graph:
    """n disjoint edges on 2n vertices; edge i joins 2i and 2i+1."""
    _positive("n", n)
    check_vertex_count(2 * n)
    return Graph.from_edges(2 * n, ((2 * i, 2 * i + 1) for i in range(n)))


def half_graph(n: int) -> Graph:
    """Sides a_i = i and b_j = n+j with a_i adjacent to b_j iff i <= j."""
    _positive("n", n)
    check_vertex_count(2 * n)
    edges = [(i, n + j) for i in range(n) for j in range(n) if i <= j]
    return Graph.from_edges(2 * n, edges)


def star_forest(stars: int, leaves: int) -> Graph:
    """``stars`` centers (ids 0..stars-1), each with ``leaves`` private
    leaves appended after all centers."""
    _positive("stars", stars)
    _positive("leaves", leaves)
    check_vertex_count(stars * (1 + leaves))
    edges = []
    nxt = stars
    for c in range(stars):
        for _ in range(leaves):
            edges.append((c, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges)


def path(n: int) -> Graph:
    _positive("n", n)
    check_vertex_count(n)
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def grid(rows: int, cols: int) -> Graph:
    """rows x cols grid; vertex (i, j) has id i*cols + j."""
    _positive("rows", rows)
    _positive("cols", cols)
    check_vertex_count(rows * cols)
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(rows * cols, edges)


def subdivided_clique(n: int) -> Graph:
    """K_n with every edge subdivided once.

    Principal vertices keep ids 0..n-1; the subdivision vertex of pair
    (i, j), i < j, follows at n + (lexicographic rank of the pair).
    """
    _positive("n", n)
    check_vertex_count(n + n * (n - 1) // 2)
    edges = []
    sub = n
    for i, j in combinations(range(n), 2):
        edges.append((i, sub))
        edges.append((sub, j))
        sub += 1
    return Graph.from_edges(sub, edges)


def shatter_gadget(k: int) -> Graph:
    """Left side 0..k-1; one right vertex per subset J of the left side
    (id k + J as a bitmask), adjacent to exactly the members of J."""
    _positive("k", k)
    check_vertex_count(k)  # before 1 << k is taken
    check_vertex_count(k + (1 << k))
    edges = []
    for j_mask in range(1 << k):
        right = k + j_mask
        for i in range(k):
            if j_mask >> i & 1:
                edges.append((i, right))
    return Graph.from_edges(k + (1 << k), edges)


def random_bounded_degree(n: int, d: int, seed: int) -> Graph:
    """Reproducible graph with maximum degree <= d.

    Draws up to 30*n*d candidate pairs from splitmix64(seed) and keeps a
    pair when it is not a self-loop, not already present, and both
    endpoints have residual degree. The fixed attempt bound keeps the edge
    list a pure function of (n, d, seed). Drawing stops early once the
    vertices with residual degree are pairwise adjacent: no later pair
    could be kept, so the edges are those of all 30*n*d draws.
    """
    _positive("n", n)
    _positive("d", d)
    check_vertex_count(n)
    rng = splitmix64(seed)
    rows = [0] * n
    deg = [0] * n
    spare = (1 << n) - 1  # vertices below degree d
    for _ in range(30 * n * d):
        u = next(rng) % n
        v = next(rng) % n
        if u == v or rows[u] >> v & 1:
            continue
        if deg[u] >= d or deg[v] >= d:
            continue
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        deg[u] += 1
        deg[v] += 1
        if deg[u] == d:
            spare ^= 1 << u
        if deg[v] == d:
            spare ^= 1 << v
        # spare vertices have fewer than d neighbours, so more than d of
        # them always hold a non-adjacent pair
        if spare.bit_count() <= d and all(
                spare & ~rows[w] == 1 << w for w in iter_bits(spare)):
            break
    return Graph(n, rows)


def complement(g: Graph) -> Graph:
    full = g.full_mask()
    return Graph(g.n, [full & ~r & ~(1 << v) for v, r in enumerate(g.rows)])


def power(g: Graph, p: int) -> Graph:
    """Connect every pair at distance between 1 and p; power(g, 1) == g."""
    _positive("p", p)
    return Graph(g.n, [ball_mask(g, v, p) & ~(1 << v) for v in range(g.n)])


# CLI dispatch table: family name -> (constructor, parameter names).
# The seed parameter of random families is supplied separately by the CLI.
FAMILIES = {
    "clique": (clique, ("n",)),
    "edgeless": (edgeless, ("n",)),
    "matching": (matching, ("n",)),
    "half_graph": (half_graph, ("n",)),
    "star_forest": (star_forest, ("stars", "leaves")),
    "path": (path, ("n",)),
    "grid": (grid, ("rows", "cols")),
    "subdivided_clique": (subdivided_clique, ("n",)),
    "shatter_gadget": (shatter_gadget, ("k",)),
    "random_bounded_degree": (random_bounded_degree, ("n", "d", "seed")),
}
