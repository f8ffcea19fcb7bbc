"""Rank measures, type decompositions, and witness searches.

Each frozen witness is re-validated here against the raw adjacency
matrix, independently of the internal validation the searches do.
"""

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipwide import (
    AlternationWitness,
    EvalContext,
    ExceptionWitness,
    InputError,
    OracleReport,
    TypeDecomposition,
    TypeFalsifier,
    alternation_rank,
    bipartite_canonical_pattern,
    decompose_sequence_types,
    edge_atom,
    exception_rank,
    is_delta_indiscernible,
    order_property_witness,
    pairing_index_witness,
    shattering_witness,
)
from flipwide import oracles
from flipwide.formulas import enumerate_type_patterns
from flipwide.generators import (
    clique,
    complement,
    edgeless,
    grid,
    half_graph,
    matching,
    path,
    random_bounded_degree,
    shatter_gadget,
    star_forest,
    subdivided_clique,
)
from flipwide.graphcore import Graph
from flipwide.indiscernibles import ExtractionConfig, extract_indiscernible


# ------------------------------------------------------------------ ranks

def test_matching_ranks():
    g = matching(10)
    rank, wit = alternation_rank(g, range(20))
    assert rank == 2
    assert wit == AlternationWitness(0, (0, 1, 2))
    rank, wit = exception_rank(g, range(20))
    assert rank == 1
    assert wit == ExceptionWitness(0, (1,))


def test_half_graph_ranks():
    # sorted order puts all left vertices first, so each profile is a
    # single block change but the balanced split costs eight exceptions
    g = half_graph(8)
    rank, wit = alternation_rank(g, range(16))
    assert rank == 1 and wit.indices == (0, 8)
    rank, wit = exception_rank(g, range(16))
    assert rank == 8
    assert wit == ExceptionWitness(0, tuple(range(8, 16)))


def test_interleaving_raises_alternation():
    # reordering the same half graph vertex set drives the rank up
    g = half_graph(8)
    inter = [v for pair in zip(range(8), range(8, 16)) for v in pair]
    rank, wit = alternation_rank(g, inter)
    assert rank > 1
    # witness indices really alternate for the witness vertex
    vals = [g.adj(wit.vertex, inter[i]) for i in wit.indices]
    assert all(x != y for x, y in zip(vals, vals[1:]))
    assert len(vals) == rank + 1


def test_rank_edge_cases():
    g = matching(3)
    assert alternation_rank(g, ()) == (0, None)
    assert exception_rank(g, ()) == (0, None)
    with pytest.raises(InputError):
        alternation_rank(g, (99,))


def reference_alternation_rank(g, seq):
    """Pointwise reference: one adjacency read per vertex and position."""
    seq = list(seq)
    for v in seq:
        g.check_vertex(v)
    if not seq:
        return 0, None
    best = -1
    wit = None
    for b in range(g.n):
        idxs = [0]
        prev = g.adj(b, seq[0])
        for i in range(1, len(seq)):
            cur = g.adj(b, seq[i])
            if cur != prev:
                idxs.append(i)
                prev = cur
        if len(idxs) - 1 > best:
            best = len(idxs) - 1
            wit = AlternationWitness(b, tuple(idxs))
    return best, wit


def reference_exception_rank(g, seq):
    """Pointwise reference: each vertex's whole profile, then its minority."""
    seq = list(seq)
    for v in seq:
        g.check_vertex(v)
    if not seq:
        return 0, None
    best = -1
    wit = None
    for b in range(g.n):
        prof = [g.adj(b, v) for v in seq]
        t = sum(prof)
        if min(t, len(seq) - t) > best:
            best = min(t, len(seq) - t)
            minority = not (t * 2 > len(seq))
            wit = ExceptionWitness(
                b, tuple([i for i, p in enumerate(prof) if p == minority]))
    return best, wit


@st.composite
def rank_inputs(draw, lo, hi, shape):
    """A graph on lo..hi vertices and a sequence of the given shape.

    Vertices fall into at most ``classes`` twin classes, adjacent by
    class, so few classes make many vertices tie on every count.
    """
    n = draw(st.integers(lo, hi))
    classes = draw(st.integers(1, n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.1, 0.5, 0.9)))
    cls = [rng.randrange(classes) for _ in range(n)]
    link = {(p, q) for p in range(classes) for q in range(p + 1, classes)
            if rng.random() < density}
    g = Graph.from_edges(n, [
        (u, v) for u, v in combinations(range(n), 2)
        if cls[u] != cls[v] and (min(cls[u], cls[v]), max(cls[u], cls[v]))
        in link])
    if shape == "repeats":
        length = draw(st.integers(0, 2 * n))
        seq = [rng.randrange(n) for _ in range(length)]
    elif shape == "single":
        seq = [rng.randrange(n)]
    else:
        seq = list(range(n))
        if draw(st.booleans()):
            rng.shuffle(seq)
    return g, seq


@pytest.mark.parametrize("shape", ["repeats", "single", "all"])
@pytest.mark.parametrize("lo, hi", [(1, 63), (65, 130)])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_ranks_match_pointwise_reference(lo, hi, shape, data):
    # the bit-plane counts give the pointwise loops' ranks and witnesses,
    # ties to the lowest vertex and the minority rule at t * 2 == s
    # included, on graphs narrower and wider than one 64-bit word
    g, seq = data.draw(rank_inputs(lo, hi, shape))
    assert alternation_rank(g, seq) == reference_alternation_rank(g, seq)
    assert exception_rank(g, seq) == reference_exception_rank(g, seq)


def test_ranks_break_ties_to_the_lowest_vertex():
    # twins 1, 2 and 3 share every count; a balanced profile's minority
    # is its true positions
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)])
    assert alternation_rank(g, [0, 4, 0]) == (
        2, AlternationWitness(1, (0, 1, 2)))
    assert exception_rank(g, [0, 4, 0]) == (1, ExceptionWitness(1, (1,)))
    assert exception_rank(g, [0, 4]) == (1, ExceptionWitness(1, (0,)))


def test_rank_witnesses_agree_with_their_ranks_on_raw_rows():
    # Graph(n, rows) rejects such rows, so they are wrapped as given; rank
    # and witness are both read from the columns g.rows[seq[i]], so they
    # agree even when the rows are not symmetric
    g = Graph._trusted(3, (0b110, 0, 0))
    assert alternation_rank(g, [0, 1, 2]) == (
        1, AlternationWitness(1, (0, 1)))
    assert exception_rank(g, [0, 1, 2]) == (1, ExceptionWitness(1, (0,)))
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 10)
        g = Graph._trusted(n, tuple(rng.randrange(1 << n)
                                    for _ in range(n)))
        seq = [rng.randrange(n) for _ in range(rng.randrange(1, 12))]
        rank, wit = alternation_rank(g, seq)
        prof = [g.rows[v] >> wit.vertex & 1 for v in seq]
        assert len(wit.indices) == rank + 1
        assert all(prof[i] != prof[j]
                   for i, j in zip(wit.indices, wit.indices[1:]))
        rank, wit = exception_rank(g, seq)
        prof = [g.rows[v] >> wit.vertex & 1 for v in seq]
        assert len(wit.minority_indices) == rank
        assert len({prof[i] for i in wit.minority_indices}) <= 1


def extracted(g, k):
    """What the extraction keeps of the whole vertex order under the edge
    formula, patterns up to length k, no window."""
    return extract_indiscernible(
        EvalContext(g), (edge_atom(),), enumerate_type_patterns(1, k),
        list(range(g.n)), ExtractionConfig(target_length=1, window=None))


STABLE_FAMILIES = {
    "path60": lambda: path(60),
    "grid8x8": lambda: grid(8, 8),
    "rbd80": lambda: random_bounded_degree(80, 3, 1),
    "clique40": lambda: clique(40),
    "edgeless40": lambda: edgeless(40),
    "matching30": lambda: matching(30),
    "star8x4": lambda: star_forest(8, 4),
    "co_path60": lambda: complement(path(60)),
}


@pytest.mark.parametrize("name", sorted(STABLE_FAMILIES))
def test_extracted_sequences_of_stable_families(name):
    # first theorem: an indiscernible sequence in a monadically NIP class
    # has alternation rank at most 2; in a stable class every vertex is
    # adjacent to all but at most one element, or to at most one
    g = STABLE_FAMILIES[name]()
    for k in (2, 3, 4):
        seq = extracted(g, k)
        assert alternation_rank(g, seq)[0] <= 2, (name, k)
        assert exception_rank(g, seq)[0] <= 1, (name, k)


def test_extracted_half_graph_sequence_is_nip_not_stable():
    g = half_graph(30)
    for k in (2, 3, 4):
        seq = extracted(g, k)
        assert alternation_rank(g, seq)[0] <= 2
        assert exception_rank(g, seq)[0] > 1


def test_subdivided_clique_principal_sequence_is_not_nip():
    # the principal vertices are edge-indiscernible, yet the subdivision
    # vertex of edge {1, 3} alternates four times along them, past the
    # NIP bound of 2, and each subdivision vertex is adjacent to two of
    # them, past the stable bound of 1; the extraction over the whole
    # vertex order keeps subdivision vertices instead
    g = subdivided_clique(10)
    assert extracted(g, 4) == [40, 41, 42, 43, 44]
    seq = list(range(10))
    assert is_delta_indiscernible(
        EvalContext(g), (edge_atom(),), enumerate_type_patterns(1, 4),
        seq) == (True, None)
    assert alternation_rank(g, seq) == (
        4, AlternationWitness(20, (0, 1, 2, 3, 4)))
    assert exception_rank(g, seq) == (2, ExceptionWitness(10, (0, 1)))


# --------------------------------------------------------- decompositions

@pytest.fixture(scope="module")
def hg_ctx():
    g = half_graph(6)
    return EvalContext(g), (edge_atom(),)


def test_decompose_block_change(hg_ctx):
    # vertex 7 is adjacent to lefts 0 and 1 only: types T,T,F,F
    ctx, phi = hg_ctx
    dec, fal = decompose_sequence_types(ctx, phi, (0, 1, 2, 3), 7, "nip")
    assert fal is None
    assert dec == TypeDecomposition(1, (True,), (False,))
    # no single removal makes T,T,F,F constant
    dec, fal = decompose_sequence_types(ctx, phi, (0, 1, 2, 3), 7, "stable")
    assert dec is None
    assert fal == TypeFalsifier((1, 2), ((True,), (False,)))


def test_decompose_single_outlier(hg_ctx):
    ctx, phi = hg_ctx
    dec, fal = decompose_sequence_types(ctx, phi, (0, 3, 1), 7, "nip")
    assert fal is None
    assert dec == TypeDecomposition(1, (True,), (True,))


def test_decompose_falsifier_self_contained(hg_ctx):
    ctx, phi = hg_ctx
    seq = (0, 2, 3, 4, 1)  # types T,F,F,F,T for vertex 7
    for mode in ("nip", "stable"):
        dec, fal = decompose_sequence_types(ctx, phi, seq, 7, mode)
        assert dec is None
        assert fal.indices == (0, 1, 3, 4)
        assert fal.types == ((True,), (False,), (False,), (True,))
        sub = [seq[i] for i in fal.indices]
        dec2, fal2 = decompose_sequence_types(ctx, phi, sub, 7, mode)
        assert dec2 is None and fal2 is not None


def test_decompose_degenerate(hg_ctx):
    ctx, phi = hg_ctx
    assert decompose_sequence_types(ctx, phi, (2, 3, 4), 7, "nip") == (
        TypeDecomposition(0, None, (False,)), None)
    assert decompose_sequence_types(ctx, phi, (), 7, "nip") == (
        TypeDecomposition(0, None, None), None)
    assert decompose_sequence_types(ctx, phi, (0,), 7, "nip") == (
        TypeDecomposition(0, None, None), None)
    with pytest.raises(InputError, match="mode"):
        decompose_sequence_types(ctx, phi, (0,), 7, "loose")


def test_decompose_vertex_inside_sequence():
    # a member of a clique sequence differs only at its own position
    ctx = EvalContext(clique(25))
    phi = (edge_atom(),)
    dec, _ = decompose_sequence_types(ctx, phi, range(20), 5, "nip")
    assert dec == TypeDecomposition(5, (True,), (True,))
    dec, _ = decompose_sequence_types(ctx, phi, range(20), 5, "stable")
    assert dec == TypeDecomposition(5, (True,), (True,))
    dec, _ = decompose_sequence_types(ctx, phi, range(20), 0, "nip")
    assert dec == TypeDecomposition(0, None, (True,))
    dec, _ = decompose_sequence_types(ctx, phi, range(20), 24, "stable")
    assert dec == TypeDecomposition(0, (True,), (True,))


# -------------------------------------------------------------- searches

def test_order_witness_on_half_graph():
    g = half_graph(8)
    rep = order_property_witness(g, 5)
    assert rep.search == "exhaustive"
    wit = rep.witness
    assert wit.kind == "order"
    assert wit.a_seq == (12, 11, 10, 9, 8)
    assert wit.b_seq == (4, 3, 2, 1, 0)
    for i, a in enumerate(wit.a_seq):
        for j, b in enumerate(wit.b_seq):
            assert g.adj(a, b) == (i <= j)


def test_order_witness_absent_in_clique():
    rep = order_property_witness(clique(5), 3)
    assert rep.witness is None and rep.search == "exhaustive"


def test_order_budget_cap():
    rep = order_property_witness(half_graph(8), 5, max_nodes=3)
    assert rep.witness is None and rep.search == "budget"


def test_pairing_witness_on_subdivided_clique():
    g = subdivided_clique(5)
    rep = pairing_index_witness(g, 4)
    assert rep.search == "exhaustive"
    wit = rep.witness
    assert wit.b_seq == (0, 1, 2, 3)
    assert wit.a_seq == (5, 6, 7, 9, 10, 12)
    for (i, j), a in zip(combinations(range(4), 2), wit.a_seq):
        for l, b in enumerate(wit.b_seq):
            assert g.adj(a, b) == (l in (i, j))


def test_pairing_witness_absent_in_matching():
    rep = pairing_index_witness(matching(8), 3)
    assert rep.witness is None and rep.search == "exhaustive"


def test_shattering_witness_on_gadget():
    g = shatter_gadget(3)
    rep = shattering_witness(g, 3)
    assert rep.search == "exhaustive"
    wit = rep.witness
    assert wit.a_seq == (0, 1, 2)
    assert wit.b_seq == (0, 4, 5, 6, 7, 8, 9, 10)
    for t, b in enumerate(wit.b_seq):
        trace = {v for v in wit.a_seq if g.adj(b, v)}
        assert trace == {wit.a_seq[i] for i in range(3) if t >> i & 1}


def test_shattering_absent_in_matching():
    rep = shattering_witness(matching(10), 2)
    assert rep.witness is None and rep.search == "exhaustive"


def test_search_validation():
    g = clique(4)
    with pytest.raises(InputError):
        order_property_witness(g, 0)
    with pytest.raises(InputError):
        shattering_witness(g, 0)
    with pytest.raises(InputError):
        pairing_index_witness(g, 1)


def test_shattering_budget_cap():
    rep = shattering_witness(shatter_gadget(3), 3, max_nodes=2)
    assert rep.witness is None and rep.search == "budget"


def test_witness_larger_than_the_graph_is_none_at_once(monkeypatch):
    # each bound returns before the want-vectors are built or the matrix
    # search starts, so those steps are made to fail here
    def unreachable(*args):
        raise AssertionError("the search started")

    none = OracleReport(None, "exhaustive")
    g = path(10)
    monkeypatch.setattr(oracles, "_want_rows", unreachable)
    monkeypatch.setattr(oracles, "_matrix_search", unreachable)
    assert order_property_witness(g, 11) == none
    assert pairing_index_witness(g, 11) == none
    assert pairing_index_witness(g, 6) == none  # 15 rows, 10 vertices
    # left traces over the right side: {1}, {1, 3}, {3}
    assert bipartite_canonical_pattern(g, (0, 2, 4), (1, 3), 3) == none
    assert bipartite_canonical_pattern(g, (0, 2), (1, 3, 5), 3) == none
    assert shattering_witness(g, 4) == none  # 16 subsets, 10 vertices
    monkeypatch.undo()
    # at the boundary the search still runs: 8 traces fit 11 vertices
    assert shattering_witness(shatter_gadget(3), 3).witness is not None
    assert shattering_witness(shatter_gadget(3), 4) == none
    assert pairing_index_witness(g, 5).search == "exhaustive"


# ------------------------------------------------------ bipartite pattern

def test_bipartite_pattern_kinds():
    g = matching(6)
    left, right = tuple(range(0, 12, 2)), tuple(range(1, 12, 2))
    rep = bipartite_canonical_pattern(g, left, right, 3)
    assert rep.witness.kind == "matching"
    assert rep.witness.left_seq == (0, 2, 4)
    assert rep.witness.right_seq == (1, 3, 5)

    rep = bipartite_canonical_pattern(complement(g), left, right, 3)
    assert rep.witness.kind == "co_matching"
    assert rep.witness.left_seq == (0, 2, 4)

    hg = half_graph(5)
    rep = bipartite_canonical_pattern(hg, range(5), range(5, 10), 3)
    assert rep.witness.kind == "ladder"
    assert rep.witness.left_seq == (0, 1, 2)
    assert rep.witness.right_seq == (5, 6, 7)
    for p, l in enumerate(rep.witness.left_seq):
        for q, r in enumerate(rep.witness.right_seq):
            assert hg.adj(l, r) == (p <= q)


def test_bipartite_rejects_twins():
    # both leaves of a 2-star have the same trace over the center
    from flipwide.graphcore import Graph

    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    with pytest.raises(InputError, match="twins"):
        bipartite_canonical_pattern(g, (1, 2), (0,), 1)


def test_bipartite_validation_and_budget():
    g = matching(6)
    left, right = tuple(range(0, 12, 2)), tuple(range(1, 12, 2))
    with pytest.raises(InputError, match="length"):
        bipartite_canonical_pattern(g, left, right, 0)
    with pytest.raises(InputError, match="distinct"):
        bipartite_canonical_pattern(g, (0, 0), right, 1)
    rep = bipartite_canonical_pattern(g, left, right, 4, max_nodes=2)
    assert rep.witness is None and rep.search == "budget"


# ------------------------------------------- brute-force differential check

def _first_matrix(g, want, nrows, ncols):
    """Lexicographically first tuple of distinct columns that every row
    fits, with each row's lowest fitting vertex."""
    for cols in permutations(range(g.n), ncols):
        rows = []
        for i in range(nrows):
            fits = [a for a in range(g.n)
                    if all(g.adj(a, b) == want(i, j)
                           for j, b in enumerate(cols))]
            if not fits:
                break
            rows.append(fits[0])
        else:
            return tuple(rows), cols
    return None


def _first_shattered(g, k):
    for combo in combinations(range(g.n), k):
        first = {}
        for v in range(g.n):
            first.setdefault(frozenset(a for a in combo if g.adj(v, a)), v)
        if len(first) == 1 << k:
            return combo, tuple(
                first[frozenset(a for i, a in enumerate(combo) if t >> i & 1)]
                for t in range(1 << k))
    return None


_KIND_TESTS = {"matching": lambda p, q: p == q,
               "co_matching": lambda p, q: p != q,
               "ladder": lambda p, q: p <= q}


def _first_kind(g, left, right, length):
    for kind, test in _KIND_TESTS.items():
        for ls in permutations(left, length):
            for rs in permutations(right, length):
                if all(g.adj(l, r) == test(p, q)
                       for p, l in enumerate(ls) for q, r in enumerate(rs)):
                    return kind
    return None


def _pair(rep):
    w = rep.witness
    return None if w is None else (w.a_seq, w.b_seq)


def test_searches_match_brute_force():
    rng = random.Random(2024)
    for _ in range(120):
        n, k = rng.randint(1, 12), rng.randint(1, 4)
        p = rng.choice((0.3, 0.5, 0.7))
        g = Graph.from_edges(n, [e for e in combinations(range(n), 2)
                                 if rng.random() < p])
        rep = order_property_witness(g, k)
        assert rep.search == "exhaustive"
        assert _pair(rep) == _first_matrix(g, lambda i, j: i <= j, k, k)
        rep = shattering_witness(g, k)
        assert rep.search == "exhaustive"
        assert _pair(rep) == _first_shattered(g, k)
        if k >= 2:
            pairs = list(combinations(range(k), 2))
            rep = pairing_index_witness(g, k)
            assert rep.search == "exhaustive"
            assert _pair(rep) == _first_matrix(
                g, lambda i, j: j in pairs[i], len(pairs), k)

        verts = rng.sample(range(n), n)
        cut = rng.randint(0, n)
        right = verts[cut:]
        traces, left = set(), []
        for v in verts[:cut]:  # keep the left side twin-free
            tr = frozenset(r for r in right if g.adj(v, r))
            if tr not in traces:
                traces.add(tr)
                left.append(v)
        length = rng.randint(1, 3)
        rep = bipartite_canonical_pattern(g, left, right, length)
        assert rep.search == "exhaustive"
        kind = _first_kind(g, left, right, length)
        if kind is None:
            assert rep.witness is None
            continue
        w = rep.witness
        assert w.kind == kind
        assert len(set(w.left_seq)) == len(set(w.right_seq)) == length
        assert set(w.left_seq) <= set(left) and set(w.right_seq) <= set(right)
        for p, l in enumerate(w.left_seq):
            for q, r in enumerate(w.right_seq):
                assert g.adj(l, r) == _KIND_TESTS[kind](p, q)


def test_pools_answer_former_budget_cases():
    g = half_graph(16)
    rep = order_property_witness(g, 16)
    assert rep.search == "exhaustive"
    for i, a in enumerate(rep.witness.a_seq):
        for j, b in enumerate(rep.witness.b_seq):
            assert g.adj(a, b) == (i <= j)
    for seed in (1, 2, 3):
        rep = shattering_witness(random_bounded_degree(200, 3, seed), 4)
        assert rep.witness is None and rep.search == "exhaustive"


def _gnp(n, p, seed):
    rng = random.Random(seed)
    return Graph.from_edges(n, [e for e in combinations(range(n), 2)
                                if rng.random() < p])


def test_symmetric_rows_are_derived_from_the_want_rows():
    # rows closed under swapping adjacent columns get ascending columns
    k = 5
    pairs = list(combinations(range(k), 2))
    rows = {
        "pairing": oracles._want_rows(lambda p, l: l in pairs[p],
                                      len(pairs), k),
        "shattering": list(range(1 << k)),
        "order": oracles._want_rows(lambda i, j: i <= j, k, k),
    }
    for kind, test in oracles._PATTERN_TESTS.items():
        rows[kind] = oracles._want_rows(test, k, k)
    assert {kind: oracles._symmetric(want, k)
            for kind, want in rows.items()} == {
        "pairing": True, "shattering": True, "matching": True,
        "co_matching": True, "order": False, "ladder": False}


def test_ascending_columns_answer_a_dense_search():
    # trying every order of the five columns takes 35,266 nodes; the
    # ascending tuples alone take 2,606
    rep = pairing_index_witness(_gnp(25, 0.8, 4), 5, max_nodes=10_000)
    assert rep == OracleReport(None, "exhaustive")
