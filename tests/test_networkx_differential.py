"""Distance primitives, graph operators and the verifier, checked against
networkx on small random graphs.

networkx is a test-only dependency; without it this module is skipped.
Flipped graphs are built on the networkx side from the definition of a
flip, so ``apply_flips`` is not used to produce the reference.
"""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipwide import (
    Flip,
    FlipWideResult,
    Graph,
    ball_mask,
    distances_from,
    exact_distance_layer,
    verify_flip_wide,
)
from flipwide.generators import complement, power
from flipwide.graphcore import iter_bits

nx = pytest.importorskip("networkx")


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


def subsets(n, min_size=0):
    return st.lists(st.integers(0, n - 1), unique=True, min_size=min_size,
                    max_size=n)


def to_nx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def edge_set(edges):
    return {frozenset(e) for e in edges}


def nx_distances(h, sources):
    dist = {v: math.inf for v in h}
    for s in sources:
        for v, d in nx.single_source_shortest_path_length(h, s).items():
            dist[v] = min(dist[v], d)
    return dist


@given(graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_bfs_matches_networkx(g, data):
    h = to_nx(g)
    sources = data.draw(subsets(g.n, min_size=1))
    want = nx_distances(h, sources)
    assert distances_from(g, sources) == [want[v] for v in range(g.n)]
    i = data.draw(st.integers(0, g.n))
    assert exact_distance_layer(g, sources, i) == {
        v for v, d in want.items() if d == i}
    v = data.draw(st.integers(0, g.n - 1))
    # radii 0 and 1 are read off the row without a BFS, so each draw
    # checks both besides one drawn radius
    for r in (0, 1, data.draw(st.integers(0, g.n))):
        near = nx.single_source_shortest_path_length(h, v, cutoff=r)
        assert set(iter_bits(ball_mask(g, v, r))) == set(near)


@given(graphs(), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_power_and_complement_match_networkx(g, p):
    h = to_nx(g)
    assert edge_set(power(g, p).edges()) == edge_set(nx.power(h, p).edges())
    assert edge_set(complement(g).edges()) == edge_set(
        nx.complement(h).edges())


def nx_flipped(g: Graph, flips):
    # a flip (A, B) toggles each pair {u, v} with u in A, v in B, u != v
    # exactly once, also when both ends lie in A and in B
    h = to_nx(g)
    for f in flips:
        for pair in {frozenset((u, v)) for u in f.a for v in f.b if u != v}:
            u, v = tuple(pair)
            if h.has_edge(u, v):
                h.remove_edge(u, v)
            else:
                h.add_edge(u, v)
    return h


@given(graphs(), st.integers(0, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_verifier_matches_networkx_distances(g, r, data):
    side = subsets(g.n)
    flips = data.draw(st.lists(st.builds(Flip, side, side), max_size=3))
    b_set = tuple(sorted(data.draw(subsets(g.n))))
    h = nx_flipped(g, flips)
    dist = dict(nx.all_pairs_shortest_path_length(h))
    close = [(u, v) for u, v in combinations(b_set, 2)
             if dist[u].get(v, math.inf) <= r]
    res = FlipWideResult(b_set, tuple(flips), r, (), True, shortfall=False)
    ok, pair = verify_flip_wide(g, res, r)
    assert ok == (not close)
    if not ok:
        u, v = pair
        assert u != v and {u, v} <= set(b_set)
        assert dist[u].get(v, math.inf) <= r
