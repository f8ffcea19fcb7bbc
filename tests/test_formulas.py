"""Atom evaluation against direct definitions, and the claim that
single-type patterns generate indiscernibility for arbitrary entry sets."""

import os
import pickle
import random
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flipwide
from flipwide import (
    Atom,
    BudgetExceeded,
    EvalContext,
    Graph,
    InputError,
    Pattern,
    all_phi_types,
    ball_mask,
    dist_atom,
    edge_atom,
    enumerate_type_patterns,
    eq_atom,
    eval_atom,
    extract_indiscernible,
    is_delta_indiscernible,
    phi_equivalent_over,
    type_pattern,
)
from flipwide import formulas
from flipwide.formulas import entry_mask, type_rows
from flipwide.generators import complement, half_graph, path, random_bounded_degree
from flipwide.graphcore import eq_class_mask
from flipwide.indiscernibles import ExtractionConfig
from flipwide.oracles import decompose_sequence_types
from pointwise import all_pairs_distance, eval_gamma, eval_type, type_mask


def brute_eval(ctx, atom, x, y):
    g = ctx.graph
    if atom.kind == "edge":
        return g.adj(x, y)
    if atom.kind == "dist_leq":
        return all_pairs_distance(g)[x][y] <= ctx.ball_radius
    c = atom.const
    ball = {u for u in range(g.n)
            if all_pairs_distance(g)[y][u] <= ctx.ball_radius}
    if (x in ball) != (c in ball):
        return False
    return all(g.adj(x, u) == g.adj(c, u) for u in ball)


FIXED = [
    (path(7), (0, 6), 1),
    (half_graph(3), (0, 5), 1),
    (random_bounded_degree(9, 3, 4), (2, 7), 2),
]


@pytest.mark.parametrize("g,constants,radius", FIXED)
def test_atoms_match_definition(g, constants, radius):
    ctx = EvalContext(g, radius)
    atoms = [edge_atom(), dist_atom(), eq_atom(constants[0]),
             eq_atom(constants[1])]
    for atom in atoms:
        for x in range(g.n):
            for y in range(g.n):
                assert eval_atom(ctx, atom, x, y) == brute_eval(ctx, atom, x, y)


@pytest.mark.parametrize("atom", [edge_atom(), dist_atom(), eq_atom(0)],
                         ids=["edge", "dist", "eq"])
@pytest.mark.parametrize("x,y", [(-1, 0), (0, -1), (5, 0), (0, 5)])
def test_eval_atom_rejects_out_of_range_vertices(atom, x, y):
    ctx = EvalContext(path(5), 1)
    with pytest.raises(InputError, match="out of range"):
        eval_atom(ctx, atom, x, y)


@pytest.mark.parametrize("bad", [-1, 5])
def test_eq_atom_rejects_a_vertex_out_of_range(bad):
    # an eq atom names its constant vertex; one outside the graph raises
    # wherever the atom is first read, and leaves no memo entry behind
    atom = eq_atom(bad)
    reads = (
        lambda ctx: eval_atom(ctx, atom, 0, 1),
        lambda ctx: extract_indiscernible(
            ctx, (atom,), enumerate_type_patterns(1, 2), list(range(5)),
            ExtractionConfig(target_length=1)),
        lambda ctx: decompose_sequence_types(ctx, (atom,), [0, 1, 2], 3),
    )
    for read in reads:
        ctx = EvalContext(path(5), 1)
        with pytest.raises(InputError,
                           match=rf"^vertex {bad} out of range for n=5$"):
            read(ctx)
        assert atom not in ctx._atom_masks


@given(st.data())
def test_eq_atoms_match_phi_equivalent_over(data):
    n = data.draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph.from_edges(n, data.draw(st.lists(st.sampled_from(pairs),
                                                unique=True))
                         if pairs else [])
    constants = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=3))
    radius = data.draw(st.integers(0, 2))
    ctx = EvalContext(g, radius)
    for c in constants:
        for y in range(n):
            ball = ball_mask(g, y, radius)
            for x in range(n):
                assert eval_atom(ctx, eq_atom(c), x, y) == \
                    phi_equivalent_over(g, x, c, ball)


@st.composite
def row_cases(draw):
    """A graph on 1..10 vertices, as drawn, complemented or with 1..3
    isolated vertices added; a sample vertex; and an item list, repeats
    allowed, that holds the sample among the other items."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs),
                                          unique=True)) if pairs else [])
    shape = draw(st.sampled_from(["drawn", "complement", "isolated"]))
    if shape == "complement":
        g = complement(g)
    elif shape == "isolated":
        extra = draw(st.integers(1, 3))
        g = Graph(n + extra, g.rows + (0,) * extra)
    s = draw(st.integers(0, g.n - 1))
    items = draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
    items.insert(draw(st.integers(0, len(items))), s)
    return g, s, items


@given(row_cases(), st.integers(0, 1))
def test_ball_and_eq_rows_match_the_kernels(case, radius):
    # the rows read off the adjacency rows at ball radius 0, and the
    # kernels' rows at radius 1, are ball_mask and eq_class_mask per item,
    # and the eq row is phi_equivalent_over pointwise
    g, s, items = case
    ctx = EvalContext(g, radius)
    balls = [ball_mask(g, y, radius) for y in items]
    assert formulas._atom_masks_at(ctx, dist_atom(), items) == balls
    eqs = formulas._atom_masks_at(ctx, eq_atom(s), items)
    assert eqs == [eq_class_mask(g, s, ball) for ball in balls]
    for eq, ball in zip(eqs, balls):
        assert [eq >> x & 1 for x in range(g.n)] == [
            phi_equivalent_over(g, x, s, ball) for x in range(g.n)]


@pytest.mark.parametrize("atom", [dist_atom(), eq_atom(2)], ids=["dist", "eq"])
@pytest.mark.parametrize("items, named", [
    ([3, 12, -1], 12),
    ([3, -1, 12], -1),
    ([9, 10], 10),
])
def test_radius_zero_rows_name_the_first_item_out_of_range(atom, items,
                                                           named):
    # one range check covers a radius-0 row; an item out of range raises
    # for the first such item in the row's order, as a per-item check would
    ctx = EvalContext(path(10), 0)
    with pytest.raises(InputError,
                       match=rf"^vertex {named} out of range for n=10$"):
        formulas._atom_row(ctx, atom, items)
    assert atom not in ctx._atom_masks


def test_types_partition_every_pair():
    g = random_bounded_degree(8, 3, 1)
    ctx = EvalContext(g, 1)
    phi = (edge_atom(), eq_atom(0))
    types = all_phi_types(2)
    assert len(types) == 4
    for x in range(g.n):
        for y in range(g.n):
            hits = [tau for tau in types if eval_type(ctx, phi, tau, x, y)]
            assert len(hits) == 1
            assert hits[0] == tuple(eval_atom(ctx, a, x, y) for a in phi)


def test_entry_mask_is_union_of_types():
    g = path(6)
    ctx = EvalContext(g)
    phi = (edge_atom(),)
    e = frozenset({(True,), (False,)})
    for y in range(g.n):
        assert entry_mask(ctx, phi, e, y) == g.full_mask()
        assert type_mask(ctx, phi, (True,), y) == g.rows[y]


@pytest.mark.parametrize("y", [-1, 5, 9])
def test_entry_mask_rejects_out_of_range_vertices(y):
    # -1 must not read the last vertex's row, nor 9 raise IndexError
    ctx = EvalContext(path(5))
    with pytest.raises(InputError,
                       match=rf"^vertex {y} out of range for n=5$"):
        entry_mask(ctx, (edge_atom(),), frozenset([(True,)]), y)


def test_empty_entry_rejected():
    ctx = EvalContext(path(5))
    for read in (lambda: entry_mask(ctx, (edge_atom(),), frozenset(), 0),
                 lambda: formulas.entry_row(ctx, (edge_atom(),), frozenset(),
                                            [0, 1])):
        with pytest.raises(InputError,
                           match=r"^an entry must be a nonempty type set$"):
            read()


def test_atom_mask_and_atom_row_share_one_memo(monkeypatch):
    # one function reads the atom memo: a mask that a row computed is not
    # computed again by atom_mask, and a row computes only the masks that
    # atom_mask did not
    computed = []
    real = formulas._atom_masks_at

    def counting(ctx, atom, ys):
        computed.extend(ys)
        return real(ctx, atom, ys)

    monkeypatch.setattr(formulas, "_atom_masks_at", counting)
    g = random_bounded_degree(20, 3, 1)
    ctx = EvalContext(g, 1)
    everything = list(range(g.n))
    for atom in (edge_atom(), dist_atom(), eq_atom(7)):
        computed.clear()
        row = formulas._atom_row(ctx, atom, everything)
        assert computed == everything
        assert [formulas.atom_mask(ctx, atom, y) for y in everything] == row
        assert computed == everything
    fresh = EvalContext(g, 1)
    # the eq masks read the balls' row; fill it first
    formulas._atom_row(fresh, dist_atom(), everything)
    computed.clear()
    mask = formulas.atom_mask(fresh, eq_atom(0), 3)
    assert computed == [3]
    assert formulas._atom_row(fresh, eq_atom(0), everything)[3] == mask
    assert computed == everything[3:4] + everything[:3] + everything[4:]


def test_type_rows_match_pointwise_type_masks():
    # every type's row, in all_phi_types order, is the pointwise type mask
    # of a context of its own, for edge, dist and eq atoms, |phi| 1 to 4,
    # on a fresh atom memo and on item lists it holds in part
    rng = random.Random(20241)
    for seed in range(10):
        g = random_bounded_degree(16, 1 + seed % 4, seed)
        consts = rng.sample(range(g.n), 3)
        kinds = (edge_atom(), dist_atom()) + tuple(map(eq_atom, consts))
        ctx, ref = (EvalContext(g, ball_radius=1 + seed % 2)
                    for _ in range(2))
        for count in range(1, 5):
            phi = tuple(rng.sample(kinds, count))
            types = all_phi_types(count)
            for size in (0, rng.randint(1, 6), g.n):
                items = rng.sample(range(g.n), size)
                rows = type_rows(ctx, phi, items)
                assert len(rows) == len(types)
                for tau, row in zip(types, rows):
                    assert row == [type_mask(ref, phi, tau, y) for y in items]
    with pytest.raises(InputError,
                       match=r"^need at least one formula, got 0$"):
        type_rows(EvalContext(path(3)), (), [0])


def test_gamma_matches_brute_witness_search():
    g = half_graph(3)
    ctx = EvalContext(g)
    phi = (edge_atom(),)
    pat = type_pattern([(True,), (True,)])
    for y1, y2 in product(range(g.n), repeat=2):
        ok, z = eval_gamma(ctx, phi, pat, (y1, y2))
        brute = [w for w in range(g.n) if g.adj(w, y1) and g.adj(w, y2)]
        assert ok == bool(brute)
        if ok:
            assert z == min(brute)


def test_gamma_witness_may_be_a_tuple_member():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    ctx = EvalContext(g)
    phi = (edge_atom(),)
    ok, z = eval_gamma(ctx, phi, type_pattern([(True,)]), (1,))
    assert ok and z == 0  # 0 is adjacent to 1
    ok, z = eval_gamma(ctx, phi, type_pattern([(True,), (True,)]), (0, 2))
    assert ok and z == 1  # the middle vertex witnesses both


def test_pattern_validation():
    with pytest.raises(InputError):
        Pattern(())
    with pytest.raises(InputError):
        Pattern(((),))
    with pytest.raises(InputError):
        Atom("edge", const=3)
    with pytest.raises(InputError):
        Atom("eq_nbhd")
    with pytest.raises(InputError):
        Atom("nope")


def test_type_arity_errors():
    with pytest.raises(InputError,
                       match=r"^need at least one formula, got 0$"):
        all_phi_types(0)
    ctx = EvalContext(path(3))
    with pytest.raises(InputError,
                       match=r"^type arity 2 does not match \|phi\|=1$"):
        type_mask(ctx, (edge_atom(),), (True, False), 0)


def test_atom_hash_follows_equality_in_every_process():
    # atoms key the mask memos, and their hash is stored at construction:
    # equal atoms must hash alike, also after a pickle round trip into a
    # process with another string hash seed
    atoms = (edge_atom(), dist_atom(), eq_atom(0), eq_atom(3))
    again = [Atom(a.kind, a.const) for a in atoms]
    assert again == list(atoms) and len(set(atoms)) == 4
    assert list(map(hash, again)) == list(map(hash, atoms))
    assert eq_atom(0) != eq_atom(3) and edge_atom() != dist_atom()
    code = ("import pickle, sys; atoms = pickle.loads(sys.stdin.buffer.read());"
            "from flipwide import Atom;"
            "print(all(hash(a) == hash(Atom(a.kind, a.const)) for a in atoms))")
    package_root = str(Path(flipwide.__file__).resolve().parents[1])
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             input=pickle.dumps(atoms), capture_output=True,
                             check=True)
        assert res.stdout == b"True\n"


def test_enumerate_type_patterns_counts_and_cap():
    pats = enumerate_type_patterns(1, 3)
    assert len(pats) == 2 + 4 + 8
    assert all(len(e) == 1 for p in pats for e in p.entries)
    assert len(enumerate_type_patterns(2, 2)) == 4 + 16
    with pytest.raises(BudgetExceeded):
        enumerate_type_patterns(5, 4)


def test_pattern_cap_stops_before_counting_in_full():
    # neither 2**100000-sized counts nor 2**40 types are ever built
    for phi_count, k in ((1, 100_000), (40, 1), (100_000, 100_000)):
        with pytest.raises(BudgetExceeded, match="exceed the cap of 100000"):
            enumerate_type_patterns(phi_count, k)
    assert len(enumerate_type_patterns(4, 4)) == 16 + 16**2 + 16**3 + 16**4


def test_type_patterns_are_one_shared_immutable_list():
    pats = enumerate_type_patterns(2, 3)
    assert isinstance(pats, tuple)
    assert enumerate_type_patterns(2, 3) is pats
    # one entry object per type, shared by every pattern that uses it
    entries = {id(e) for p in pats for e in p.entries}
    assert len(entries) == len(all_phi_types(2))
    assert len(enumerate_type_patterns(4, 4)) == 69_904


def test_type_pattern_entries_are_the_single_entries():
    # singleton entries have one builder: the enumeration's entries are
    # the objects that entry-keyed row caches are filled under
    for m in range(1, 5):
        singles = formulas._single_entries(m)
        assert singles == tuple(frozenset([t]) for t in all_phi_types(m))
        for k in (1, 2):
            entries = {id(e) for p in enumerate_type_patterns(m, k)
                       for e in p.entries}
            assert entries == set(map(id, singles))


def test_over_cap_type_patterns_raise_on_every_call():
    # a raise is not memoised, so a repeat call raises again
    for _ in range(2):
        with pytest.raises(BudgetExceeded, match="exceed the cap"):
            enumerate_type_patterns(5, 4)
    for _ in range(2):
        with pytest.raises(InputError, match="must be >= 1"):
            enumerate_type_patterns(2, 0)


def _nonempty_entry_sets(types):
    out = []
    for r in range(1, len(types) + 1):
        out.extend(frozenset(c) for c in combinations(types, r))
    return out


@pytest.mark.parametrize("g,constants,k", [
    (path(8), (), 3),
    (half_graph(4), (), 2),
    (random_bounded_degree(8, 2, 3), (0,), 2),
])
def test_single_type_patterns_generate_all_combinations(g, constants, k):
    """A sequence indiscernible for single-type patterns stays
    indiscernible for every disjunction-entry pattern of the same length.
    """
    ctx = EvalContext(g, 1)
    phi = (edge_atom(),) + tuple(map(eq_atom, constants))
    gens = enumerate_type_patterns(len(phi), k)
    cfg = ExtractionConfig(target_length=3, window=None)
    seq = extract_indiscernible(ctx, phi, gens, list(range(g.n)), cfg)
    ok, _ = is_delta_indiscernible(ctx, phi, gens, seq)
    assert ok
    entries = _nonempty_entry_sets(all_phi_types(len(phi)))
    for length in range(1, k + 1):
        for combo in product(entries, repeat=length):
            ok, cex = is_delta_indiscernible(ctx, phi, [Pattern(combo)], seq)
            assert ok, cex


@given(st.integers(0, 2**15 - 1), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_generation_claim_on_random_graphs(bits, radius):
    # all graphs on 6 vertices reachable through the bitmask
    pairs = list(combinations(range(6), 2))
    edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
    g = Graph.from_edges(6, edges)
    ctx = EvalContext(g, radius)
    phi = (edge_atom(), eq_atom(0))
    gens = enumerate_type_patterns(2, 2)
    cfg = ExtractionConfig(target_length=1, window=None)
    seq = extract_indiscernible(ctx, phi, gens, list(range(6)), cfg)
    entries = _nonempty_entry_sets(all_phi_types(2))
    for combo in product(entries, repeat=2):
        ok, cex = is_delta_indiscernible(ctx, phi, [Pattern(combo)], seq)
        assert ok, cex


def test_context_validates_inputs():
    g = path(4)
    with pytest.raises(InputError):
        EvalContext(g, -1)
    ctx = EvalContext(g)
    with pytest.raises(InputError):
        eval_gamma(ctx, (edge_atom(),), type_pattern([(True,)]), (0, 1))
