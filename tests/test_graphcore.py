"""Flip algebra and distance primitives, checked against brute force.

The brute oracles here recompute everything from the definition: a flip
toggles exactly the pairs crossing A x B, and distances come from
Floyd-Warshall instead of BFS.
"""

import math
import random
import tracemalloc
from itertools import combinations, compress

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flipwide import (
    Flip,
    Graph,
    InputError,
    apply_flips,
    ball,
    ball_mask,
    distances_from,
    eq_class_mask,
    exact_distance_layer,
    format_edge_list,
    is_distance_r_independent,
    parse_edge_list,
    phi_equivalent_over,
)
from flipwide import graphcore
from flipwide.generators import clique, complement, path, random_bounded_degree
from flipwide.graphcore import MAX_VERTICES, check_vertex_count
from pointwise import all_pairs_distance


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


def test_flip_ids_checked_before_any_mask():
    # the mask of 2**64 cannot be built: building it first would raise
    # OverflowError, not the range error
    with pytest.raises(InputError, match=r"^flip touches vertices outside "
                                         r"0\.\.1$"):
        apply_flips(Graph(2), (Flip([2**64], [0]),))


def test_negative_radius_and_layer_index_rejected():
    g = path(3)
    with pytest.raises(InputError,
                       match=r"^radius must be nonnegative, got -1$"):
        ball_mask(g, 0, -1)
    with pytest.raises(InputError,
                       match=r"^layer index must be nonnegative, got -1$"):
        exact_distance_layer(g, (0,), -1)


def test_flip_is_a_plain_value():
    # a flip keeps its two sides and nothing else, applied or not
    f = Flip([2, 0], [1, 2])
    assert vars(f) == {"a": (0, 2), "b": (1, 2)}
    apply_flips(Graph(3), (f, f.mirror()))
    assert vars(f) == {"a": (0, 2), "b": (1, 2)}
    assert vars(f.mirror()) == {"a": (1, 2), "b": (0, 2)}


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
            assert ball(g, v, r + 0.5) == ball(g, v, r)
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


@st.composite
def graphs_and_members(draw):
    """A sparse graph on up to 100 vertices, so rows narrower and wider
    than one 64-bit word, and a member list that may repeat ids."""
    n = draw(st.integers(0, 100))
    if n < 2:
        g = Graph(n)
    else:
        ends = st.integers(0, n - 1)
        g = Graph.from_edges(n, draw(st.lists(
            st.tuples(ends, ends).filter(lambda e: e[0] != e[1]),
            max_size=2 * n)))
    members = draw(st.lists(st.integers(0, n - 1), max_size=12)) if n else []
    return g, members


# At r < 2 the pair comes from one pass over the members' rows, and at
# larger r isolated members are skipped. On the path 7-0-1-3 the pair is
# (0, 7) at r = 1 but (0, 3) at r = 2, where member 3, two steps away, is
# lower than 0's neighbour 7.
PATH_7013 = Graph.from_edges(8, [(0, 7), (0, 1), (1, 3)])


@given(graphs_and_members(),
       st.sampled_from((0, 0.5, 1, 1.5, 2, 2.5, 3, 4, 5, math.inf)))
@settings(max_examples=80)
@example((Graph(5), [4, 0, 2]), math.inf)
@example((Graph.from_edges(2, [(0, 1)]), [0, 1]), 0)
@example((PATH_7013, [0, 3, 7]), 1)
@example((PATH_7013, [0, 3, 7]), 2)
@example((Graph.from_edges(6, [(4, 5)]), [5, 0, 4]), math.inf)
def test_independence_pair_matches_all_pairs_distances(case, r):
    # the violating pair is the lowest member whose ball holds another
    # member, with the lowest such member; a member in another component
    # is never near, even at r = inf
    g, members = case
    d = all_pairs_distance(g)
    vs = sorted(set(members))
    want = (True, None)
    for u in vs:
        near = [v for v in vs if v != u and d[u][v] <= r
                and d[u][v] < math.inf]
        if near:
            want = (False, (u, near[0]))
            break
    assert is_distance_r_independent(g, members, r) == want


@given(graphs_and_members(), st.lists(st.integers(-5, 110), min_size=1,
                                      max_size=4))
def test_independence_names_the_lowest_bad_member(case, extra):
    # every member is range-checked in sorted order before any ball grows
    g, members = case
    vs = sorted(set(members + extra))
    bad = [v for v in vs if not 0 <= v < g.n]
    if not bad:
        return
    with pytest.raises(InputError) as exc:
        is_distance_r_independent(g, members + extra, 1)
    assert str(exc.value) == f"vertex {bad[0]} out of range for n={g.n}"


@pytest.mark.parametrize("sources,bad", [
    ((-1,), -1), ((5,), 5), ((3, 9, -2, 6), -2), ((0, 7, 5), 5),
], ids=["negative", "past-n", "lowest-negative", "lowest-past-n"])
def test_bfs_names_the_lowest_bad_source(sources, bad):
    # as for independence, the lowest out-of-range source is named before
    # any mask is built: not a negative shift count, nor an index past
    # the rows
    g = path(5)
    for run in (lambda: distances_from(g, sources),
                lambda: exact_distance_layer(g, sources, 1)):
        with pytest.raises(InputError,
                           match=rf"^vertex {bad} out of range for n=5$"):
            run()
    # sources may come as any iterable, read once
    assert distances_from(g, iter((0, 4))) == [0, 1, 2, 1, 0]
    assert exact_distance_layer(g, iter((0, 4)), 1) == {1, 3}


def test_fractional_radius_is_not_rounded_up():
    # distance <= r, not <= ceil(r): a ball reaches distance floor(r)
    g = path(5)
    assert is_distance_r_independent(g, (0, 2), 1.5) == (True, None)
    assert is_distance_r_independent(g, (0, 1), 0.5) == (True, None)
    assert is_distance_r_independent(g, (0, 3), 2.5) == (True, None)
    assert ball_mask(g, 0, 0.5) == 0b1
    assert ball_mask(g, 0, 2.5) == 0b111


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


def test_graph_rejects_asymmetric_rows():
    with pytest.raises(InputError, match="row 0 holds 1 but row 1 does not"):
        Graph(3, [0b010, 0, 0])
    with pytest.raises(InputError, match="row 1 holds 2 but row 2 does not"):
        Graph(3, [0b010, 0b101, 0])
    # the only asymmetric bit lies below the diagonal
    with pytest.raises(InputError, match="row 1 holds 0 but row 0 does not"):
        Graph(3, [0, 0b001, 0])


def test_graph_rejects_self_loops():
    with pytest.raises(InputError, match="self-loop at vertex 1"):
        Graph(2, [0, 0b10])


def test_graph_rejects_bits_outside_the_vertex_range():
    with pytest.raises(InputError, match="row 1 has bits outside 0..1"):
        Graph(2, [0b10, 0b101])
    with pytest.raises(InputError, match="row 0 has bits outside 0..1"):
        Graph(2, [-1, 0])


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


# ------------------------------------------------------------ edge lists

def reference_format(g: Graph) -> str:
    """The edge-generator writer, one f-string per edge, kept as the
    reference for the row-wise ``format_edge_list``."""
    out = [f"{g.n} {g.edge_count()}"]
    for u, v in g.edges():
        out.append(f"{u} {v}")
    return "\n".join(out) + "\n"


def dense_switch(width: int) -> int:
    """The least bit count at which a row's upper part of this bit length
    is written by the dense path."""
    return -(-(width + graphcore._DENSE_OFFSET) // graphcore._DENSE_SLOPE)


def with_tail_path(n: int, edges: list, length: int) -> Graph:
    """The graph of ``edges`` on 0..n-1 plus a path on ``length`` new
    vertices after them. The path adds length - 1 edges without touching
    any row below n, so those rows can pass the writer's 2m bound."""
    tail = [(v, v + 1) for v in range(n, n + length - 1)]
    return Graph.from_edges(n + length, edges + tail)


@st.composite
def graphs_near_the_writer_switch(draw):
    """Graphs whose chosen rows have upper parts just below, at or just
    above the writer's sparse/dense switch, within its 2m bound or not,
    and empty or complete graphs, with n = 0 and n = 1 among them."""
    n = draw(st.integers(0, 260))
    kind = draw(st.sampled_from(["switch", "switch", "empty", "complete"]))
    if kind == "empty":
        return Graph(n)
    if kind == "complete":
        return Graph.from_edges(n, combinations(range(n), 2))
    edges = []
    for u in draw(st.lists(st.integers(0, max(n - 2, 0)), unique=True,
                           max_size=6)) if n >= 2 else ():
        width = draw(st.integers(1, n - u - 1))
        want = dense_switch(width) + draw(st.sampled_from([-1, 0, 1]))
        count = min(max(want, 1), width)
        low = draw(st.permutations(range(width - 1)))[:count - 1]
        edges += [(u, u + 1 + b) for b in low + [width - 1]]
    # a tail path of n vertices puts 2m at or above 2n - 2, past every
    # chosen row's last id when n >= 2; without it few rows pass the bound
    return with_tail_path(n, edges, draw(st.sampled_from([0, n])))


@given(graphs_near_the_writer_switch())
@settings(max_examples=300)
def test_writer_matches_the_edge_generator_reference(g):
    assert format_edge_list(g) == reference_format(g)


def dense_rows(monkeypatch, g: Graph) -> list[bool]:
    """Write ``g``, check the text against the reference, and say for each
    row that took the dense path whether it read the kept id strings."""
    kept = []

    def counted(ids, selectors):
        kept.append(isinstance(ids, list))
        return compress(ids, selectors)

    monkeypatch.setattr(graphcore, "compress", counted)
    assert format_edge_list(g) == reference_format(g)
    return kept


def test_writer_takes_both_paths_at_the_switch(monkeypatch):
    # row 0 sits exactly at the switch and row 201 just below it; both
    # upper parts have bit length 200
    width = 200
    at = dense_switch(width)

    def upper(u, count):
        return [(u, u + 1 + b) for b in range(count - 1)] + [(u, u + width)]

    edges = upper(0, at) + upper(width + 1, at - 1)
    g = with_tail_path(2 * width + 2, edges, 2 * width + 2)
    assert [(g.rows[u] >> (u + 1)).bit_count() for u in (0, width + 1)] == [
        at, at - 1]
    assert 2 * g.edge_count() >= width + 1
    assert dense_rows(monkeypatch, g) == [True]
    # without the tail, 2m is below row 0's last id, so that row makes its
    # own id strings
    assert dense_rows(monkeypatch, Graph.from_edges(2 * width + 2,
                                                    edges)) == [False]
    # clique rows with 5 or more later neighbours are dense
    assert dense_rows(monkeypatch, clique(200)) == [True] * 195
    for n in (0, 1, 2):
        for h in (Graph(n), Graph.from_edges(n, combinations(range(n), 2))):
            assert format_edge_list(h) == reference_format(h)
    assert format_edge_list(Graph(1)) == "1 0\n"


def test_writer_memory_is_bounded_by_its_output():
    # one row over 10**5 ids with a neighbour at every 31st: dense by the
    # switch, but id strings kept up to its last id would take about 6 MB
    # against about 30 KB of text
    n = 10**5
    leaves = range(31, n, 31)
    bits = bytearray(b"0" * n)
    bits[31::31] = b"1" * len(leaves)
    rows = [0] * n
    rows[0] = int(bits[::-1], 2)
    for v in leaves:
        rows[v] = 1
    g = Graph._trusted(n, tuple(rows))
    assert g.degree(0) >= dense_switch((g.rows[0] >> 1).bit_length())
    tracemalloc.start()
    try:
        text = format_edge_list(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == f"{n} {len(leaves)}\n" + "".join(
        f"0 {v}\n" for v in leaves)
    assert peak < 2 * 2**20


def reference_parse(text: str) -> Graph:
    """The line-by-line parser, one int() per token, kept as the reference
    for the bulk read of canonical text."""
    lines = []
    for i, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append((i, line))
    if not lines:
        raise InputError("empty edge list input")
    (at, header), body = lines[0], lines[1:]
    head = header.split()
    try:
        if len(head) != 2:
            raise ValueError
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise InputError(
            f"line {at}: header must be 'n m', got {header!r}") from None
    if n < 0:
        raise InputError(f"line {at}: header vertex count must be "
                         f"nonnegative, got {n}")
    if n > MAX_VERTICES:
        raise InputError(f"line {at}: header vertex count {n} exceeds the "
                         f"limit of {MAX_VERTICES}")
    if len(body) != m:
        raise InputError(
            f"line {at}: header promises {m} edges, found {len(body)}")
    edges = []
    for at, line in body:
        parts = line.split()
        try:
            if len(parts) != 2:
                raise ValueError
            edges.append((at, int(parts[0]), int(parts[1])))
        except ValueError:
            raise InputError(
                f"line {at}: edge line must be 'u v', got {line!r}") from None
    seen = set()
    first_repeat = None
    for at, u, v in edges:
        try:
            Graph.from_edges(n, [(u, v)])
        except InputError as exc:
            raise InputError(f"line {at}: {exc}") from None
        if first_repeat is None and frozenset((u, v)) in seen:
            first_repeat = (at, u, v)
        seen.add(frozenset((u, v)))
    g = Graph.from_edges(n, [(u, v) for _, u, v in edges])
    if first_repeat is not None:
        at, u, v = first_repeat
        raise InputError(f"line {at}: edge ({u}, {v}) repeats an edge: "
                         f"header promises {m} edges, found {len(seen)} "
                         "distinct")
    return g


FULLWIDTH = {ord("0") + d: 0xFF10 + d for d in range(10)}
ARABIC_INDIC = {ord("0") + d: 0x660 + d for d in range(10)}
SPELLINGS = [
    str,
    lambda v: "0" + str(v),
    lambda v: "+" + str(v) if v >= 0 else str(v),
    lambda v: str(v).translate(FULLWIDTH),
    lambda v: str(v).translate(ARABIC_INDIC),
]
SEPARATORS = [" ", "  ", "\t", " \t", "\u2003", "\xa0"]
PADDING = ["", " ", "\t", "\u3000"]
ENDINGS = ["\n", "\r\n", "\r", "\x0c", "\u2028"]
FAULTS = ["repeat", "range", "negative", "self-loop", "junk", "malformed",
          "count"]


@st.composite
def edge_list_texts(draw):
    """Edge list texts of a random graph: canonical or oddly spelled,
    valid or with one fault, and with or without comments and blank
    lines."""
    n = draw(st.integers(-1, 12))
    pair = st.tuples(st.integers(0, max(n - 1, 0)),
                     st.integers(0, max(n - 1, 0))).filter(
                         lambda e: e[0] != e[1])
    pairs = draw(st.lists(pair, unique_by=frozenset, min_size=1, max_size=12)
                 if n >= 2 else st.just([]))
    fault = draw(st.sampled_from([None] * len(FAULTS) + FAULTS))
    at = draw(st.integers(0, len(pairs)))
    u = draw(st.integers(0, 9))
    if fault == "repeat" and pairs:
        a, b = pairs[at - 1]
        pairs.insert(draw(st.integers(at, len(pairs))),
                     (b, a) if draw(st.booleans()) else (a, b))
    elif fault == "range":
        pairs.insert(at, (u, max(n, 0) + draw(st.integers(0, 2))))
    elif fault == "negative":
        pairs.insert(at, (-1 - u, u))
    elif fault == "self-loop":
        pairs.insert(at, (u, u))
    odd = draw(st.booleans())
    pick = (lambda options: draw(st.sampled_from(options))) if odd else (
        lambda options: options[0])
    lines = [pick(PADDING) + pick(SPELLINGS)(a) + pick(SEPARATORS)
             + pick(SPELLINGS)(b) + pick(PADDING) for a, b in pairs]
    if fault == "junk":
        lines.insert(at, draw(st.sampled_from(["x 1", "1 x", "x y", "1.0 2"])))
    elif fault == "malformed":
        lines.insert(at, draw(st.sampled_from(["1", "0 1 2", "1 2 3 4"])))
    m = len(lines) + (draw(st.sampled_from([-1, 1])) if fault == "count"
                      else 0)
    lines.insert(0, f"{n} {m}")
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.sampled_from(["", "  ", "# comment",
                                               "#3 1"])))
    text = "".join(line + pick(ENDINGS) for line in lines)
    return text.rstrip("\n") if draw(st.booleans()) else text


def same_outcome(text):
    try:
        want = reference_parse(text)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            parse_edge_list(text)
        assert str(got.value) == str(exc)
    else:
        assert parse_edge_list(text) == want


@given(edge_list_texts())
@settings(max_examples=400)
def test_edge_list_parse_matches_line_by_line_reference(text):
    same_outcome(text)


@pytest.mark.parametrize("text", [
    "3 2\n0 1 2\n1\n",           # 2+2 tokens, but one line holds three
    "3 2\n0 1\n1 0\n",
    "3 2\n0 1\n0 1\n",
    "3 1\n1 1\n",
    "3 1\n0 3\n",
    "3 1\n-1 2\n",
    "3 1\n0 x\n",
    "3 1\n007 +2\n",
    "3 1\n0\t2\n",
    "3 1\r\n0 2\r\n",
    "3 1\n\uff11 \uff12\n",
    "-1 0\n",
    "-1 1\n0 1\n",
    "4 2\n0 1\n0 3 \n",
    "1000000 1\n0 999999\n",
    "1000001 0\n",
    "", "# only a comment\n", "3\n", "3 1 1\n0 1\n", "2 2\n0 1\n",
    # ids, spaces and newlines as many as canonical text has, in the
    # wrong lines: counts alone would read (0, 1) and (2, 3)
    "4 2\n0 1 2\n3\n",
    "4 2\n0 1\n2\n3 \n",
    # empty ids, in the header and in edge lines
    " 1\n", "0 \n", "3 \n", " \n", "3 1\n 1\n", "3 1\n0 \n",
    "3 1\n \n", "3 2\n0 1\n 2\n",
    # no final newline, or digits after it that an empty id makes up for
    "3 1\n0 2", "3 0", "0 0", "3 1\n0 1\n2", "4 2\n0 1\n 2\n3",
    "4 2\n0 1\n2 \n3",
    "0 0\n", "1 0\n", "03 1\n0 2\n",
    "3 1000000000000000000\n0 1\n",
    "3 -1\n", "3 -1\n0 1\n",
    # lone surrogates, in a comment and in edge lines
    "# \ud800\n3 1\n0 1\n", "3 1\n0 1\ud800\n", "3 1\n0 1\n\udfff\n",
    # other digits, signs, tabs, CRLF, padding, comments and blank lines
    "3 1\n\u0660 \u0661\n", "\u0663 1\n0 1\n", "4 1\n+3 0\n",
    "4 1\n3 -0\n", "4 1\n3\t0\n", "4 1\r\n3 0\r\n", "4 1\n3  0\n",
    "  4 1\n 3 0 \n", "# c\n\n4 1\n\n3 0\n# end",
])
def test_edge_list_parse_matches_reference_on_traps(text):
    same_outcome(text)


MUTATION_CHARS = " \n\r\t#+-0123456789"


@st.composite
def mutated_canonical_texts(draw):
    """The canonical text of a random graph after a few random
    single-character inserts, deletes or replacements."""
    n = draw(st.integers(0, 24))
    pairs = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                    st.integers(0, max(n - 1, 0))),
                          max_size=30))
    text = format_edge_list(Graph.from_edges(
        n, [(u, v) for u, v in pairs if u != v]))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        char = "" if op == "delete" else draw(st.sampled_from(MUTATION_CHARS))
        text = text[:at] + char + text[at + (op != "insert"):]
    return text


@given(mutated_canonical_texts())
@settings(max_examples=400)
def test_mutated_canonical_text_matches_reference(text):
    same_outcome(text)


def test_canonical_text_is_read_in_bulk(monkeypatch):
    def no_fallback(text):
        raise AssertionError("canonical text went line by line")

    def shuffled(g, seed):
        # canonical lines in a random order, each pair in either
        # orientation
        rng = random.Random(seed)
        lines = [f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}"
                 for u, v in g.edges()]
        rng.shuffle(lines)
        return "".join(line + "\n" for line in [f"{g.n} {len(lines)}"]
                       + lines)

    by_lines = graphcore._parse_lines
    monkeypatch.setattr(graphcore, "_parse_lines", no_fallback)
    dense = (clique(64), complement(random_bounded_degree(200, 3, 1)))
    for g in (Graph(0), Graph(5), Graph.from_edges(4, [(3, 0), (1, 2)]),
              Graph.from_edges(300, [(u, (7 * u + 1) % 300)
                                     for u in range(300)
                                     if (7 * u + 1) % 300 != u]), *dense):
        assert parse_edge_list(format_edge_list(g)) == g
    for seed, g in enumerate(dense):
        text = shuffled(g, seed)
        assert parse_edge_list(text) == by_lines(text) == g
    assert parse_edge_list("# made by hand\n 3 2\n\n1 0  \n2 1\r\n") == (
        Graph.from_edges(3, [(0, 1), (1, 2)]))


def shuffled_text(g, seed):
    """Canonical edge lines of ``g`` in a random order, each pair in
    either orientation."""
    rng = random.Random(seed)
    lines = [f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}"
             for u, v in g.edges()]
    rng.shuffle(lines)
    return f"{g.n} {len(lines)}\n" + "".join(line + "\n" for line in lines)


def test_canonical_text_skips_the_normalizing_pass(monkeypatch):
    def refuse(text):
        raise AssertionError("canonical text was normalized")

    monkeypatch.setattr(graphcore, "_normalized", refuse)
    monkeypatch.setattr(graphcore, "_parse_lines", refuse)
    star = Graph.from_edges(301, [(0, v) for v in range(1, 301)])
    for seed, g in enumerate((Graph(0), Graph(5), clique(64), star,
                              complement(random_bounded_degree(200, 3, 1)))):
        assert parse_edge_list(format_edge_list(g)) == g
        assert parse_edge_list(shuffled_text(g, seed)) == g


def test_dense_canonical_text_parses_in_bounded_memory():
    # 79,202 edge lines: their 158,404 id strings alive at once would
    # take about 9 MB, so only ids resolved a chunk at a time stay under
    # the bound; the list of resolved ids alone takes 1.3 MB
    g = complement(random_bounded_degree(400, 3, 1))
    text = format_edge_list(g)
    tracemalloc.start()
    try:
        h = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == g
    assert peak < 4 * 2**20


def test_crlf_text_is_normalized_in_bounded_memory():
    # CRLF text is normalized a newline-cut chunk at a time; one list of
    # all its stripped lines plus their joined copy peaked at 2.7 times
    # the canonical read
    g = complement(random_bounded_degree(400, 3, 1))
    text = format_edge_list(g)
    peaks = []
    for t in (text, text.replace("\n", "\r\n")):
        tracemalloc.start()
        try:
            h = parse_edge_list(t)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert h == g
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("chunk_chars", [0, 1, 5, 64])
def test_normalizing_by_chunks_matches_the_whole_text(monkeypatch,
                                                      chunk_chars):
    def whole(text):
        lines = [s for s in map(str.strip, text.splitlines())
                 if s and s[0] != "#"]
        return "\n".join(lines) + "\n"

    rng = random.Random(chunk_chars)
    g = random_bounded_degree(40, 3, chunk_chars)
    lines = [f"{g.n} {g.edge_count()}", *(f"{u} {v}" for u, v in g.edges())]
    for _ in range(30):
        lines.insert(rng.randrange(len(lines) + 1),
                     rng.choice(["", "  ", "# note", " # 1 2"]))
    text = "".join(rng.choice(["", " ", "\t"]) + line
                   + rng.choice(["\n", "\r\n", "\r", " \n"])
                   for line in lines)
    monkeypatch.setattr(graphcore, "_CHUNK_CHARS", chunk_chars)
    for t in (text, text.rstrip(), "", "# only\n\n", "\n" * 9):
        assert graphcore._normalized(t) == whole(t)
    assert parse_edge_list(text) == g


@pytest.mark.parametrize("text,message", [
    ("# a graph\n3 2\n0 1\n\n1 2 0\n",
     "line 5: edge line must be 'u v', got '1 2 0'"),
    ("3 4\n0 1\n1 2\n2 1\n1 0\n",
     "line 4: edge (2, 1) repeats an edge: header promises 4 edges, "
     "found 2 distinct"),
    ("\n3 2\n0 1\n",
     "line 2: header promises 2 edges, found 1"),
    ("-1 0\n",
     "line 1: header vertex count must be nonnegative, got -1"),
    ("# none\n-2 1\n0 1\n",
     "line 2: header vertex count must be nonnegative, got -2"),
])
def test_edge_list_errors_name_the_line(text, message):
    with pytest.raises(InputError) as exc:
        parse_edge_list(text)
    assert str(exc.value) == message


def test_negative_vertex_counts_are_rejected():
    for build in (lambda: Graph(-1), lambda: Graph.from_edges(-1, []),
                  lambda: check_vertex_count(-1)):
        with pytest.raises(InputError,
                           match="^vertex count must be nonnegative, got -1$"):
            build()
    for build in (lambda: clique(-1), lambda: path(-1),
                  lambda: random_bounded_degree(-1, 3, 0)):
        with pytest.raises(InputError, match="^n must be positive, got -1$"):
            build()


@pytest.mark.parametrize("text,edge", [("1000000 0\n", None),
                                       ("1000000 1\n0 999999\n", (0, 999999))])
def test_huge_header_parses_in_bounded_memory(text, edge):
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 10**6
    assert list(g.edges()) == ([edge] if edge else [])
    # the rows list and the tuple made from it take 16 MB; a table with
    # one entry per possible vertex id would take several times that
    assert peak < 64 * 2**20


def test_star_text_parses_in_bounded_memory():
    # a star's text names k = 40,001 ids in m = 40,000 lines: a table of
    # 1 << v over those ids would take about 100 MB, so the bulk read
    # must shift per endpoint here
    leaves = 40_000
    text = f"{leaves + 1} {leaves}\n" + "".join(
        f"0 {v}\n" for v in range(1, leaves + 1))
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == Graph.from_edges(leaves + 1,
                                 [(0, v) for v in range(1, leaves + 1)])
    assert peak < 64 * 2**20
