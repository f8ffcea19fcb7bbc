"""Flip algebra and distance primitives, checked against brute force.

The brute oracles here recompute everything from the definition: a flip
toggles exactly the pairs crossing A x B, and distances come from
Floyd-Warshall instead of BFS.
"""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipwide import (
    Flip,
    Graph,
    InputError,
    all_pairs_distance,
    apply_flips,
    ball,
    ball_mask,
    distances_from,
    eq_class_mask,
    exact_distance_layer,
    format_edge_list,
    is_distance_r_independent,
    make_flip_set,
    parse_edge_list,
    phi_equivalent_over,
)


def brute_flip(g: Graph, f: Flip) -> Graph:
    a, b = set(f.a), set(f.b)
    rows = list(g.rows)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (u in a and v in b) or (u in b and v in a):
                rows[u] ^= 1 << v
                rows[v] ^= 1 << u
    return Graph(g.n, rows)


def floyd_warshall(g: Graph) -> list[list[float]]:
    n = g.n
    d = [[0 if i == j else (1 if g.adj(i, j) else math.inf)
          for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def all_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        rows = [0] * n
        for idx, (u, v) in enumerate(pairs):
            if bits >> idx & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        yield Graph(n, rows)


def all_flips(n: int):
    subsets = [tuple(v for v in range(n) if s >> v & 1) for s in range(1 << n)]
    for i, a in enumerate(subsets):
        for b in subsets[i:]:
            yield Flip(a, b)


graphs_st = st.integers(1, 7).flatmap(
    lambda n: st.builds(
        Graph.from_edges,
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] != e[1]),
            max_size=12,
        ),
    )
)


@st.composite
def graph_with_flips(draw, max_flips=1):
    g = draw(graphs_st)
    side = st.lists(st.integers(0, g.n - 1), max_size=g.n)
    fs = draw(st.lists(st.builds(Flip, side, side),
                       min_size=min(1, max_flips), max_size=max_flips))
    return g, fs


def test_flip_matches_brute_force_exhaustively():
    # every graph and unordered flip pair on up to 4 vertices
    for n in range(5):
        for g in all_graphs(n):
            for f in all_flips(n):
                assert apply_flips(g, (f,)) == brute_flip(g, f)


@given(graph_with_flips())
def test_flip_matches_brute_force_random(gf):
    g, (f,) = gf
    assert apply_flips(g, (f,)) == brute_flip(g, f)


@given(graph_with_flips())
def test_flip_involution(gf):
    g, (f,) = gf
    assert apply_flips(apply_flips(g, (f,)), (f,)) == g


@given(graph_with_flips())
def test_mirror_acts_identically(gf):
    g, (f,) = gf
    assert apply_flips(g, (f,)) == apply_flips(g, (f.mirror(),))


@given(graph_with_flips(max_flips=4), st.randoms())
def test_flip_set_order_never_matters(gf, rng):
    g, fs = gf
    shuffled = list(fs)
    rng.shuffle(shuffled)
    assert apply_flips(g, fs) == apply_flips(g, shuffled)


@given(graph_with_flips())
def test_flip_preserves_simplicity(gf):
    g, (f,) = gf
    h = apply_flips(g, (f,))
    for v in range(h.n):
        assert not h.adj(v, v)
        for u in range(v):
            assert h.adj(u, v) == h.adj(v, u)


def test_flip_inside_one_set():
    # A == B toggles every pair inside A exactly once
    g = Graph(4)
    h = apply_flips(g, (Flip((0, 1, 2), (0, 1, 2)),))
    assert sorted(h.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_overlapping_sides_toggle_once():
    g = Graph(3)
    h = apply_flips(g, (Flip((0, 1), (1, 2)),))
    # pair (1, 2) is in A x B, pair (0, 1) in A x B via the mirror side,
    # and (0, 2) crosses; each appears once despite the overlap at 1
    assert sorted(h.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_flip_normalizes_and_validates():
    f = Flip([3, 1, 1], [2])
    assert f.a == (1, 3) and f.b == (2,)
    with pytest.raises(InputError):
        Flip([-1], [0])
    with pytest.raises(InputError):
        apply_flips(Graph(2), (Flip([5], [0]),))


def test_make_flip_set_rejects_duplicates():
    f = Flip((0,), (1,))
    with pytest.raises(InputError):
        make_flip_set([f, Flip((0,), (1,))])
    assert make_flip_set([f, f.mirror()]) == (f, f.mirror())


@given(graphs_st)
@settings(max_examples=40)
def test_distances_match_floyd_warshall(g):
    want = floyd_warshall(g)
    assert all_pairs_distance(g) == want
    for v in range(g.n):
        assert distances_from(g, (v,)) == want[v]


@given(graphs_st)
@settings(max_examples=40)
def test_ball_and_layers_match_floyd_warshall(g):
    want = floyd_warshall(g)
    for v in range(g.n):
        for r in range(4):
            assert ball(g, v, r) == {u for u in range(g.n) if want[v][u] <= r}
            assert exact_distance_layer(g, (v,), r) == {
                u for u in range(g.n) if want[v][u] == r}


def test_multi_source_distances():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    assert distances_from(g, (0, 3)) == [0, 1, 2, 0, 1, math.inf]
    assert exact_distance_layer(g, (0, 3), 1) == {1, 4}


@given(graphs_st, st.data())
@settings(max_examples=60)
def test_independence_verdict_matches_pair_scan(g, data):
    members = data.draw(st.lists(st.integers(0, g.n - 1), unique=True,
                                 max_size=g.n))
    r = data.draw(st.integers(0, 4))
    d = floyd_warshall(g)
    want = all(d[u][v] > r for u in members for v in members if u != v)
    got, pair = is_distance_r_independent(g, members, r)
    assert got == want
    if not got:
        u, v = pair
        assert u in members and v in members and d[u][v] <= r


def test_huge_radius_stops_at_eccentricity():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    ok, _ = is_distance_r_independent(g, (0, 2), 10**6)
    assert ok
    ok, pair = is_distance_r_independent(g, (0, 1), 10**6)
    assert not ok and pair == (0, 1)


def test_graph_constructor_validation():
    with pytest.raises(InputError):
        Graph(-1)
    with pytest.raises(InputError):
        Graph(3, rows=(0, 0))
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 5)])


def test_edge_iteration_order_and_count():
    g = Graph.from_edges(4, [(2, 3), (0, 3), (0, 1)])
    assert list(g.edges()) == [(0, 1), (0, 3), (2, 3)]
    assert g.edge_count() == 3
    assert g.degree(0) == 2 and g.neighbors(3) == {0, 2}


@given(graphs_st)
def test_edge_list_round_trip(g):
    assert parse_edge_list(format_edge_list(g)) == g


@given(graphs_st, st.data())
def test_eq_class_mask_matches_pointwise(g, data):
    s = data.draw(st.integers(0, g.n - 1))
    if data.draw(st.booleans()):
        ball = ball_mask(g, data.draw(st.integers(0, g.n - 1)),
                         data.draw(st.integers(0, 2)))
    else:
        ball = data.draw(st.integers(0, g.full_mask()))
    got = eq_class_mask(g, s, ball)
    assert got >> s & 1
    for x in range(g.n):
        assert bool(got >> x & 1) == phi_equivalent_over(g, x, s, ball)
    assert got >> g.n == 0


def test_edge_list_parsing_rejects_repeated_edges():
    for bad in ("2 2\n0 1\n1 0\n", "3 3\n0 1\n1 2\n0 1\n"):
        with pytest.raises(InputError, match="repeats an edge"):
            parse_edge_list(bad)


def test_edge_list_parsing_rejects_junk():
    assert parse_edge_list("# comment\n3 1\n\n0 2\n").adj(0, 2)
    for bad in ("", "3\n", "2 1\n0 1\n0 1\n", "2 1\nx y\n", "2 2\n0 1\n"):
        with pytest.raises(InputError):
            parse_edge_list(bad)
