"""Flip algebra and distance primitives, checked against brute force.

The brute oracles here recompute everything from the definition: a flip
toggles exactly the pairs crossing A x B, and distances come from
Floyd-Warshall instead of BFS.
"""

import math
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
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
from flipwide.graphcore import MAX_VERTICES, all_pairs_distance


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


# ------------------------------------------------------------ edge lists

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
])
def test_edge_list_parse_matches_reference_on_traps(text):
    same_outcome(text)


def test_canonical_text_is_read_in_bulk(monkeypatch):
    def no_fallback(text):
        raise AssertionError("canonical text went line by line")

    monkeypatch.setattr(graphcore, "_parse_lines", no_fallback)
    for g in (Graph(0), Graph(5), Graph.from_edges(4, [(3, 0), (1, 2)]),
              Graph.from_edges(300, [(u, (7 * u + 1) % 300)
                                     for u in range(300)
                                     if (7 * u + 1) % 300 != u])):
        assert parse_edge_list(format_edge_list(g)) == g
    assert parse_edge_list("# made by hand\n 3 2\n\n1 0  \n2 1\r\n") == (
        Graph.from_edges(3, [(0, 1), (1, 2)]))


@pytest.mark.parametrize("text,message", [
    ("# a graph\n3 2\n0 1\n\n1 2 0\n",
     "line 5: edge line must be 'u v', got '1 2 0'"),
    ("3 4\n0 1\n1 2\n2 1\n1 0\n",
     "line 4: edge (2, 1) repeats an edge: header promises 4 edges, "
     "found 2 distinct"),
    ("\n3 2\n0 1\n",
     "line 2: header promises 2 edges, found 1"),
])
def test_edge_list_errors_name_the_line(text, message):
    with pytest.raises(InputError) as exc:
        parse_edge_list(text)
    assert str(exc.value) == message


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
