"""Deterministic graph family generators used as positive and negative
controls: cliques, matchings, half-graphs, star forests, grids, subdivided
cliques, shattering gadgets, and a reproducible bounded-degree random family.

Every constructor is a pure function of its parameters. The random family
uses splitmix64 with the published constants, so fixtures reproduce
bit-for-bit across runs and reimplementations.

Streams are mixed in batches of ``_BATCH`` outputs. A batch's states
form an arithmetic progression, so they are packed into one int, state k
of the batch in bits 128k to 128k+63, and each mix step runs once on the
whole int. A 128-bit lane holds a 64-bit value times a 64-bit constant
without spilling into the next lane; a mask keeps the low 64 bits of every
lane after each shift-xor and each multiply, so a shift never carries one
lane's bits into another lane's low half. The public stream steps its
states by gamma. The random family lane-mixes only outputs 0, 2, 4, ...,
its pairs' first endpoints, whose states step by 2*gamma, and mixes an
odd output by itself only when its degree filter reads it.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache
from itertools import combinations, compress, repeat
from operator import mod
from typing import Iterator

from .errors import InputError
from .graphcore import Graph, ball_mask, check_vertex_count, iter_bits

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_BATCH = 2048  # splitmix64 outputs mixed at once


@cache
def _lane_constants() -> tuple[int, int, int]:
    """``(ones, ramp, low)`` over ``_BATCH`` 128-bit lanes: 1 in every
    lane, ``(k + 1) * gamma`` mod 2**64 in lane k, and 2**64 - 1 in every
    lane. Built on first use, so importing the package stays cheap."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * _BATCH, "little")
    ramp = int.from_bytes(b"".join(
        ((k + 1) * _GAMMA & _MASK64).to_bytes(16, "little")
        for k in range(_BATCH)), "little")
    return ones, ramp, ones * _MASK64


def _lane_batches(state: int, stride: int) -> Iterator[array]:
    """The outputs of states ``state + j * stride * gamma`` mod 2**64 for
    j = 1, 2, ..., as consecutive arrays of ``_BATCH`` outputs, each mixed
    in 128-bit lanes of one int. Stride 1 is splitmix64(state)."""
    ones, ramp, low = _lane_constants()
    ramp = ramp * stride & low
    step = _BATCH * stride * _GAMMA & _MASK64
    state &= _MASK64
    while True:
        z = (state * ones + ramp) & low
        state = (state + step) & _MASK64
        z = (z ^ z >> 30) & low
        z = z * _MIX1 & low
        z = (z ^ z >> 27) & low
        z = z * _MIX2 & low
        # this shift-xor moves bits of the next lane only above bit 63 of a
        # lane, which is never read
        z ^= z >> 31
        words = array("Q", z.to_bytes(16 * _BATCH, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        yield words[::2]


def _output(seed: int, j: int) -> int:
    """Output j, counted from 0, of splitmix64(seed), mixed by itself."""
    z = (seed + (j + 1) * _GAMMA) & _MASK64
    z = (z ^ z >> 30) * _MIX1 & _MASK64
    z = (z ^ z >> 27) * _MIX2 & _MASK64
    return z ^ z >> 31


def splitmix64(seed: int) -> Iterator[int]:
    """The splitmix64 stream for ``seed``.

    Constants 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    per the reference implementation; first output for seed 0 is
    0xE220A8397B1DCDAF.
    """
    for words in _lane_batches(seed, 1):
        yield from words


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


def _live_pairs(seed: int, count: int, n: int,
                live: bytearray) -> Iterator[tuple[int, int]]:
    """The first ``count`` pairs ``(x % n, y % n)`` of consecutive
    splitmix64(seed) outputs, less those with an endpoint whose ``live``
    byte is 0 when the pair comes up."""
    # the first end of pair i has the state seed + (2i + 1) * gamma
    start = 0
    for words in _lane_batches(seed - _GAMMA, 2):
        us = list(map(mod, words[:count - start], repeat(n)))
        for k in compress(range(len(us)), map(live.__getitem__, us)):
            v = _output(seed, 2 * (start + k) + 1) % n
            if live[v]:
                yield us[k], v
        start += _BATCH
        if start >= count:
            return


def random_bounded_degree(n: int, d: int, seed: int) -> Graph:
    """Reproducible graph with maximum degree <= d.

    Draws up to 30*n*d candidate pairs from splitmix64(seed) and keeps a
    pair when it is not a self-loop, not already present, and both
    endpoints have residual degree. The fixed attempt bound keeps the edge
    list a pure function of (n, d, seed). Drawing stops early once the
    vertices with residual degree are pairwise adjacent: no later pair
    could be kept, so the edges are those of all 30*n*d draws.

    Pair i is outputs 2i and 2i+1. The first endpoints are lane-mixed
    ``_BATCH`` at a time and reduced mod n by a C-level map; output 2i+1
    is mixed by itself, only when the first endpoint is below degree d.
    Only pairs with both endpoints below degree d reach the loop body.
    That filter is exact: it reads the degrees as each pair is pulled,
    and a pair it skips, mixed in full or not, has an endpoint already at
    degree d, and degrees only grow, so it could not be kept at its draw.
    """
    _positive("n", n)
    _positive("d", d)
    check_vertex_count(n)
    rows = [0] * n
    live = bytearray(b"\x01") * n  # 1 while a vertex is below degree d
    spare = (1 << n) - 1  # vertices below degree d
    for u, v in _live_pairs(seed, 30 * n * d, n, live):
        # _live_pairs lets through only pairs with both degrees below d
        if u == v or rows[u] >> v & 1:
            continue
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        for w in u, v:
            if rows[w].bit_count() == d:
                spare ^= 1 << w
                live[w] = 0
        # spare vertices have fewer than d neighbours, so more than d of
        # them always hold a non-adjacent pair
        if spare.bit_count() <= d and all(
                spare & ~rows[w] == 1 << w for w in iter_bits(spare)):
            break
    return Graph._trusted(n, tuple(rows))


def complement(g: Graph) -> Graph:
    full = g.full_mask()
    return Graph._trusted(
        g.n, tuple(full & ~r & ~(1 << v) for v, r in enumerate(g.rows)))


def power(g: Graph, p: int) -> Graph:
    """Connect every pair at distance between 1 and p; power(g, 1) == g."""
    _positive("p", p)
    return Graph._trusted(
        g.n, tuple(ball_mask(g, v, p) & ~(1 << v) for v in range(g.n)))


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
