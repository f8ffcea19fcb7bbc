from itertools import combinations, islice

import pytest

from flipwide import InputError
from flipwide.generators import (
    FAMILIES,
    clique,
    complement,
    edgeless,
    grid,
    half_graph,
    matching,
    path,
    power,
    random_bounded_degree,
    shatter_gadget,
    splitmix64,
    star_forest,
    subdivided_clique,
)

# reference stream values for the published splitmix64 constants
SEED0_HEAD = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
              0x06C45D188009454F, 0xF88BB8A8724C81EC)
SEED42_HEAD = (0xBDD732262FEB6E95, 0x28EFE333B266F103,
               0x47526757130F9F52, 0x581CE1FF0E4AE394)


def test_splitmix64_golden_vectors():
    assert tuple(islice(splitmix64(0), 4)) == SEED0_HEAD
    assert tuple(islice(splitmix64(42), 4)) == SEED42_HEAD


def test_splitmix64_wraps_and_stays_in_range():
    for x in islice(splitmix64(2**64 - 1), 8):
        assert 0 <= x < 2**64


def test_clique():
    g = clique(5)
    assert g.n == 5 and g.edge_count() == 10
    assert all(g.adj(u, v) for u, v in combinations(range(5), 2))
    assert clique(1).edge_count() == 0


def test_edgeless():
    g = edgeless(7)
    assert g.n == 7 and g.edge_count() == 0


def test_matching():
    g = matching(4)
    assert g.n == 8 and g.edge_count() == 4
    assert all(g.adj(2 * i, 2 * i + 1) for i in range(4))
    assert all(g.degree(v) == 1 for v in range(8))


def test_half_graph_order_pattern():
    g = half_graph(4)
    left, right = [0, 1, 2, 3], [4, 5, 6, 7]
    for i in range(4):
        for j in range(4):
            assert g.adj(i, 4 + j) == (i <= j)
    assert g.edge_count() == 10
    assert not any(g.adj(u, v) for u, v in combinations(left, 2))
    assert not any(g.adj(u, v) for u, v in combinations(right, 2))


def test_star_forest():
    g = star_forest(3, 2)
    assert g.n == 9 and g.edge_count() == 6
    # centers first, then each star's leaves in one contiguous block
    assert g.neighbors(0) == {3, 4}
    assert g.neighbors(2) == {7, 8}
    assert all(g.degree(v) == 1 for v in range(3, 9))


def test_path_and_grid():
    p = path(6)
    assert p.edge_count() == 5 and p.adj(0, 1) and not p.adj(0, 2)
    assert path(1).edge_count() == 0
    g = grid(3, 4)
    assert g.n == 12 and g.edge_count() == 3 * 3 + 2 * 4
    assert g.adj(0, 1) and g.adj(0, 4) and not g.adj(3, 4)


def test_subdivided_clique():
    g = subdivided_clique(4)
    assert g.n == 4 + 6 and g.edge_count() == 12
    # no original edge survives; every subdivision vertex has degree 2
    assert not any(g.adj(u, v) for u, v in combinations(range(4), 2))
    for s, (i, j) in zip(range(4, 10), combinations(range(4), 2)):
        assert g.neighbors(s) == {i, j}


def test_shatter_gadget_traces_every_subset():
    k = 3
    g = shatter_gadget(k)
    assert g.n == k + 2**k
    amask = (1 << k) - 1
    traces = {g.rows[k + t] & amask for t in range(2**k)}
    assert traces == set(range(2**k))


def test_random_bounded_degree_is_deterministic():
    g = random_bounded_degree(30, 3, 7)
    h = random_bounded_degree(30, 3, 7)
    assert g == h
    assert g.edge_count() == 44
    assert list(g.edges())[:3] == [(0, 4), (0, 10), (0, 27)]
    assert random_bounded_degree(30, 3, 8) != g


@pytest.mark.parametrize("n,d,seed", [(30, 3, 7), (60, 3, 17), (25, 1, 0),
                                      (40, 5, 123)])
def test_random_bounded_degree_respects_bound(n, d, seed):
    g = random_bounded_degree(n, d, seed)
    assert max(g.degree(v) for v in range(n)) <= d


def _all_draws(n, d, seed):
    # random_bounded_degree without its early stop: all 30*n*d draws
    rng = splitmix64(seed)
    rows, deg = [0] * n, [0] * n
    for _ in range(30 * n * d):
        u, v = next(rng) % n, next(rng) % n
        if u == v or rows[u] >> v & 1 or deg[u] >= d or deg[v] >= d:
            continue
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        deg[u] += 1
        deg[v] += 1
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rows[u] >> v & 1]


@pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (3, 2), (4, 3), (5, 4),
                                 (9, 8), (12, 5), (25, 1), (30, 3), (40, 5),
                                 (80, 2), (150, 3)])
def test_random_bounded_degree_early_stop_keeps_edges(n, d):
    for seed in (0, 1, 7, 123):
        assert list(random_bounded_degree(n, d, seed).edges()) == \
            _all_draws(n, d, seed)


def test_complement():
    g = complement(path(4))
    assert sorted(g.edges()) == [(0, 2), (0, 3), (1, 3)]
    assert complement(complement(g)) == g
    assert complement(clique(5)).edge_count() == 0


def test_power():
    p = path(5)
    assert power(p, 1) == p
    p2 = power(p, 2)
    assert p2.adj(0, 2) and not p2.adj(0, 3)
    assert power(p, 10) == clique(5)


def test_parameter_validation():
    for fn in (clique, edgeless, matching, half_graph, path):
        with pytest.raises(InputError):
            fn(0)
    with pytest.raises(InputError):
        star_forest(3, 0)
    with pytest.raises(InputError):
        grid(0, 4)
    with pytest.raises(InputError):
        power(path(3), 0)


def test_families_table_is_callable():
    for name, (fn, params) in FAMILIES.items():
        assert callable(fn), name
        assert all(isinstance(p, str) for p in params)
    g, names = FAMILIES["random_bounded_degree"]
    assert names == ("n", "d", "seed")
