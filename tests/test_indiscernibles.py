import random
from functools import reduce
from itertools import accumulate, combinations
from operator import and_, or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipwide import (
    EvalContext,
    ExtractionShortfall,
    FlipWideRequest,
    InputError,
    edge_atom,
    em_type,
    enumerate_type_patterns,
    eq_atom,
    extract_indiscernible,
    flip_widen,
    is_delta_indiscernible,
    type_pattern,
)
from flipwide import indiscernibles, sampleset
from flipwide.formulas import entry_mask, eval_gamma
from flipwide.generators import (
    clique,
    complement,
    edgeless,
    half_graph,
    matching,
    path,
    random_bounded_degree,
    star_forest,
)
from flipwide.graphcore import Graph, mask_of
from flipwide.indiscernibles import (
    DEFAULT_WINDOW,
    ExtractionConfig,
    _all_but_one,
    _check_items,
    _decide,
    _entry_rows,
    _false_search,
    _find_false_tuple,
    _find_true_tuple,
    _first_truth,
    _majority,
    _make_homogeneous,
    _one_exception_cover,
)
from flipwide.sampleset import DisjointFamilyInput, build_sample_set

EDGE = (edge_atom(),)
PATS3 = enumerate_type_patterns(1, 3)


def edge_ctx(g):
    return EvalContext(g)


def test_clique_vertices_are_indiscernible():
    ctx = edge_ctx(clique(12))
    ok, cex = is_delta_indiscernible(ctx, EDGE, PATS3, tuple(range(12)))
    assert ok and cex is None


def test_matching_whole_vertex_set_is_indiscernible():
    # existential patterns see one witness at a time, so even the full
    # endpoint sequence of a matching has constant truth everywhere
    ctx = edge_ctx(matching(40))
    out = extract_indiscernible(
        ctx, EDGE, PATS3, list(range(80)),
        ExtractionConfig(target_length=8))
    assert out == list(range(80))


def test_matching_one_endpoint_per_edge_is_indiscernible():
    ctx = edge_ctx(matching(40))
    evens = tuple(range(0, 80, 2))
    ok, _ = is_delta_indiscernible(ctx, EDGE, PATS3, evens)
    assert ok


def test_half_graph_counterexample_is_concrete_and_valid():
    g = half_graph(10)
    ctx = edge_ctx(g)
    ok, cex = is_delta_indiscernible(ctx, EDGE, PATS3, list(range(20)))
    assert not ok
    t_ok, _ = eval_gamma(ctx, EDGE, cex.pattern, cex.true_tuple)
    f_ok, _ = eval_gamma(ctx, EDGE, cex.pattern, cex.false_tuple)
    assert t_ok and not f_ok
    assert cex.true_tuple == (0, 1) and cex.false_tuple == (0, 10)


def test_half_graph_extraction_keeps_one_side():
    ctx = edge_ctx(half_graph(10))
    out = extract_indiscernible(
        ctx, EDGE, PATS3, list(range(20)),
        ExtractionConfig(target_length=4))
    assert out == list(range(10, 20))
    ok, _ = is_delta_indiscernible(ctx, EDGE, PATS3, out)
    assert ok


def test_path_extraction_frozen():
    ctx = edge_ctx(path(20))
    out = extract_indiscernible(
        ctx, EDGE, PATS3, list(range(20)),
        ExtractionConfig(target_length=4))
    assert out == [0, 1, 4, 5, 8, 9, 12, 13, 16, 19]
    ok, _ = is_delta_indiscernible(ctx, EDGE, PATS3, out)
    assert ok


def test_shortfall_payload():
    g = star_forest(12, 6)
    ctx = edge_ctx(g)
    with pytest.raises(ExtractionShortfall) as info:
        extract_indiscernible(
            ctx, EDGE, PATS3, list(range(g.n)),
            ExtractionConfig(target_length=30))
    err = info.value
    assert len(err.achieved) == 18
    assert err.blocking_pattern == type_pattern([(True,), (True,)])
    # the achieved sequence is still sound, just short
    ok, _ = is_delta_indiscernible(ctx, EDGE, PATS3, err.achieved)
    assert ok


def test_extraction_output_is_ordered_subsequence():
    g = random_bounded_degree(40, 3, 11)
    ctx = edge_ctx(g)
    items = list(range(40))
    try:
        out = extract_indiscernible(
            ctx, EDGE, PATS3, items,
            ExtractionConfig(target_length=2))
    except ExtractionShortfall as err:
        out = err.achieved
    it = iter(items)
    assert all(v in it for v in out)
    ok, _ = is_delta_indiscernible(ctx, EDGE, PATS3, out)
    assert ok


def test_extraction_is_deterministic():
    g = random_bounded_degree(36, 3, 2)
    ctx = edge_ctx(g)
    cfg = ExtractionConfig(target_length=2)
    a = extract_indiscernible(ctx, EDGE, PATS3, list(range(36)), cfg)
    b = extract_indiscernible(ctx, EDGE, PATS3, list(range(36)), cfg)
    assert a == b


def test_window_crops_before_refining():
    # refinement may only ever touch the first `window` items
    g = path(30)
    ctx = edge_ctx(g)
    cfg = ExtractionConfig(target_length=2, window=10)
    out = extract_indiscernible(ctx, EDGE, PATS3, list(range(30)), cfg)
    assert set(out) <= set(range(10))


def test_vacuous_patterns_hold_on_short_sequences():
    ctx = edge_ctx(path(5))
    long_pat = type_pattern([(True,)] * 4)
    ok, _ = is_delta_indiscernible(ctx, EDGE, [long_pat], (0, 2))
    assert ok


def test_input_validation():
    ctx = edge_ctx(path(5))
    with pytest.raises(InputError):
        is_delta_indiscernible(ctx, EDGE, PATS3, (1, 1, 2))
    with pytest.raises(InputError):
        extract_indiscernible(ctx, EDGE, PATS3, [0, 1],
                              ExtractionConfig(target_length=3))
    with pytest.raises(InputError):
        ExtractionConfig(target_length=0)
    with pytest.raises(InputError):
        ExtractionConfig(target_length=1, window=0)


@pytest.mark.parametrize("bad", [-1, 5])
def test_items_out_of_range_rejected(bad):
    # -1 must not index the last vertex; n must not raise IndexError
    ctx = edge_ctx(path(5))
    items = (3, bad, 1)
    with pytest.raises(InputError, match=f"vertex {bad} out of range"):
        extract_indiscernible(ctx, EDGE, PATS3, items,
                              ExtractionConfig(target_length=1))
    with pytest.raises(InputError, match=f"vertex {bad} out of range"):
        is_delta_indiscernible(ctx, EDGE, PATS3, items)
    with pytest.raises(InputError, match=f"vertex {bad} out of range"):
        em_type(ctx, EDGE, PATS3, items)


@given(st.integers(0, 400), st.data())
@settings(max_examples=30, deadline=None)
def test_em_type_grows_under_subsequences(seed, data):
    g = random_bounded_degree(14, 3, seed)
    ctx = edge_ctx(g)
    items = list(range(10))
    sub = data.draw(st.lists(st.sampled_from(items), unique=True,
                             min_size=1, max_size=10).map(sorted))
    full_em = em_type(ctx, EDGE, PATS3, items)
    sub_em = em_type(ctx, EDGE, PATS3, sub)
    assert {p.entries for p in full_em} <= {p.entries for p in sub_em}


def test_em_type_on_clique():
    ctx = edge_ctx(clique(6))
    got = em_type(ctx, EDGE, PATS3, tuple(range(6)))
    # a witness misses a clique vertex only by being it, so exactly the
    # patterns with at most one negative entry are constantly true:
    # 2 of length 1, 3 of length 2, 4 of length 3
    assert len(got) == 9
    for p in got:
        assert sum((False,) in e for e in p.entries) <= 1


def _first_false_by_enumeration(masks, alive0):
    for combo in combinations(range(len(masks[0])), len(masks)):
        inter = alive0
        for j, idx in enumerate(combo):
            inter &= masks[j][idx]
        if not inter:
            return combo
    return None


def _first_true_by_witness_walk(masks, alive0):
    # the lowest witness with any increasing tuple, then its greedy
    # lowest-position walk
    for z in range(alive0.bit_length()):
        if not alive0 >> z & 1:
            continue
        picks = []
        idx = -1
        for row in masks:
            idx = next((i for i in range(idx + 1, len(row))
                        if row[i] >> z & 1), None)
            if idx is None:
                break
            picks.append(idx)
        else:
            return tuple(picks)
    return None


def _kept_by_enumeration(masks, alive0):
    """Every alive witness that some increasing tuple keeps."""
    kept = 0
    for combo in combinations(range(len(masks[0])), len(masks)):
        inter = alive0
        for j, idx in enumerate(combo):
            inter &= masks[j][idx]
        kept |= inter
    return kept


def _random_mask_cases():
    """Random witness masks with their kill caches, and alive sets.

    Rows come from a small pool, so one row may sit at several entries,
    and each row's kill cache is shared by every search over it, as in
    is_delta_indiscernible. Each draw comes twice: as drawn, and with
    some entries' rows swapped for one-hot rows {y_p} or co-one-hot rows
    (every witness but y_p) over one random position-to-witness map, the
    two classes of a clique. One density per draw never puts those two
    shapes side by side.
    """
    rng = random.Random(20221)
    shapes = random.Random(20222)
    for _ in range(3000):
        n = rng.randint(1, 10)
        s = rng.randint(1, 9)
        k = rng.randint(1, min(4, s))
        density = rng.choice((0.2, 0.5, 0.8, 0.9, 0.97))
        pool = [([sum(1 << z for z in range(n) if rng.random() < density)
                  for _ in range(s)], {}) for _ in range(rng.randint(1, k))]
        picks = [rng.choice(pool) for _ in range(k)]
        ys = [shapes.randrange(n) for _ in range(s)]
        one_hot = ([1 << y for y in ys], {})
        co_one_hot = ([((1 << n) - 1) ^ (1 << y) for y in ys], {})
        mixed = [shapes.choice((one_hot, co_one_hot, pick)) for pick in picks]
        for _ in range(2):
            alive0 = sum(1 << z for z in range(n) if rng.random() < 0.8)
            for rows in (picks, mixed):
                yield [row for row, _ in rows], [c for _, c in rows], alive0


def test_tuple_searches_match_enumeration():
    outcomes = {"false": 0, "no_false": 0, "true": 0, "no_true": 0}
    for masks, caches, alive0 in _random_mask_cases():
        want_false = _first_false_by_enumeration(masks, alive0)
        want_true = _first_true_by_witness_walk(masks, alive0)
        fresh = [{} for _ in masks]
        excl = [[] for _ in masks]
        assert _find_false_tuple(masks, alive0, fresh, excl) == want_false
        assert _find_false_tuple(masks, alive0, caches,
                                 [[] for _ in masks]) == want_false
        kept = _kept_by_enumeration(masks, alive0)
        assert bool(kept) == (want_true is not None)
        if kept:
            assert _find_true_tuple(masks, kept) == want_true
        outcomes["false" if want_false else "no_false"] += 1
        outcomes["true" if want_true else "no_true"] += 1
    assert min(outcomes.values()) > 100, outcomes


def _dense_mask_cases():
    """Masks over 400 witnesses, 30 positions and 4 entries, far larger
    than the random cases above. The densities 0.6, 0.9 and 0.95 keep a
    witness on every tuple; the last case plants a false tuple in the
    density-0.9 masks by clearing quarter j of the witnesses from entry
    j's row at that tuple's position j. Density 0.6 reaches the witness
    branching, 0.9 the root count and 0.95 the one-exception cover."""
    n, s, k = 400, 30, 4
    rng = random.Random(0)
    drawn = {density: [[sum(1 << z for z in range(n)
                            if rng.random() < density)
                        for _ in range(s)] for _ in range(k)]
             for density in (0.6, 0.9, 0.95)}
    yield from drawn.values()
    planted = [list(row) for row in drawn[0.9]]
    quarter = (1 << n // k) - 1
    for j, p in enumerate((3, 11, 12, 25)):
        planted[j][p] &= ~(quarter << j * n // k)
    yield planted


def test_dense_mask_searches_match_enumeration():
    alive0 = (1 << 400) - 1
    found = []
    for masks in _dense_mask_cases():
        want = _first_false_by_enumeration(masks, alive0)
        has_false = _false_search(masks, alive0, [{} for _ in masks],
                                  [[] for _ in masks])
        assert (has_false is not None) == (want is not None)
        assert _find_false_tuple(masks, alive0, [{} for _ in masks],
                                 [[] for _ in masks]) == want
        found.append(want is not None)
    assert found == [False, False, False, True]


def _cover_by_definition(masks, alive0):
    """Every increasing tuple puts some entry j on a position i where an
    alive witness satisfies j at i and every other entry at every
    position but i."""
    k, s = len(masks), len(masks[0])

    def good(j, i):
        w = alive0 & masks[j][i]
        for j2 in range(k):
            for i2 in range(s):
                if j2 != j and i2 != i:
                    w &= masks[j2][i2]
        return bool(w)

    return all(any(good(j, i) for j, i in enumerate(combo))
               for combo in combinations(range(s), k))


def _no_universal_witness(masks, alive0):
    for row in masks:
        for m in row:
            alive0 &= m
    return not alive0


def test_one_exception_cover_matches_enumeration():
    outcomes = {"cover": 0, "cover_beyond_universal": 0, "no_cover": 0}
    for masks, _, alive0 in _random_mask_cases():
        held = _one_exception_cover(masks, alive0,
                                    [_all_but_one(row) for row in masks])
        assert held == _cover_by_definition(masks, alive0)
        if held:
            assert _first_false_by_enumeration(masks, alive0) is None
            outcomes["cover"] += 1
            if _no_universal_witness(masks, alive0):
                outcomes["cover_beyond_universal"] += 1
        else:
            outcomes["no_cover"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_cover_caches_shared_across_alive_sets():
    # the all-but-one caches sit in _decide's rows next to the kill
    # caches and hold no alive set, so searches under different alive
    # sets may share them: here a search under a small alive set fills
    # the caches that one under a larger set reads, one list per row
    wide = (1 << 10) - 1
    for masks, caches, alive0 in _random_mask_cases():
        by_row = {id(c): [] for c in caches}
        shared = [by_row[id(c)] for c in caches]
        for alive in (alive0, wide, alive0):
            no_false = _first_false_by_enumeration(masks, alive) is None
            assert (_false_search(masks, alive, caches, shared)
                    is None) == no_false
            assert (_one_exception_cover(masks, alive, shared)
                    == _cover_by_definition(masks, alive))


def _brute_indiscernible(ctx, phi, patterns, items):
    """First pattern whose truth varies over increasing tuples, or None."""
    for pattern in patterns:
        truths = {eval_gamma(ctx, phi, pattern, combo)[0]
                  for combo in combinations(items, len(pattern))}
        if len(truths) > 1:
            return pattern
    return None


@given(st.integers(0, 10_000), st.integers(4, 9), st.integers(1, 4),
       st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_indiscernibility_matches_brute_force(seed, n, d, use_eq, data):
    g = random_bounded_degree(n, d, seed)
    if use_eq:
        ctx = EvalContext(g, (0, n - 1), ball_radius=1)
        phi = (eq_atom(0), eq_atom(1))
        pool = list(range(1, n - 1))
    else:
        ctx = edge_ctx(g)
        phi = EDGE
        pool = list(range(n))
    items = data.draw(st.lists(st.sampled_from(pool), unique=True,
                               max_size=len(pool)).map(sorted))
    patterns = enumerate_type_patterns(len(phi), 3)
    ok, cex = is_delta_indiscernible(ctx, phi, patterns, items)
    blocking = _brute_indiscernible(ctx, phi, patterns, items)
    assert ok == (blocking is None)
    if not ok:
        assert cex.pattern == blocking
        for tup, truth in ((cex.true_tuple, True), (cex.false_tuple, False)):
            assert list(tup) == [y for y in items if y in tup]
            assert eval_gamma(ctx, phi, blocking, tup)[0] is truth
        # the tuple other than the head is the documented one: the
        # smallest witness's walk, or the smallest false tuple
        masks = [[entry_mask(ctx, phi, e, y) for y in items]
                 for e in blocking.entries]
        full = ctx.graph.full_mask()
        if cex.false_tuple == tuple(items[:len(blocking)]):
            want = _first_true_by_witness_walk(masks, full)
            assert cex.true_tuple == tuple(items[i] for i in want)
        else:
            want = _first_false_by_enumeration(masks, full)
            assert cex.false_tuple == tuple(items[i] for i in want)


@given(st.integers(0, 10_000), st.integers(2, 12), st.integers(1, 4),
       st.booleans(), st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_target_one_never_falls_short(seed, n, d, use_eq, k, data):
    # every refinement keeps at least one item, so a target of 1 on a
    # non-empty sequence always holds; the sample-set build relies on it
    g = random_bounded_degree(n, d, seed)
    if data.draw(st.booleans()):
        g = complement(g)
    if use_eq:
        ctx = EvalContext(g, (0, n - 1), ball_radius=1)
        phi = (eq_atom(0), eq_atom(1))
    else:
        ctx = edge_ctx(g)
        phi = EDGE
    items = data.draw(st.lists(st.integers(0, n - 1), unique=True,
                               min_size=1, max_size=n))
    window = data.draw(st.sampled_from([48, None]) | st.integers(1, n))
    cfg = ExtractionConfig(target_length=1, window=window)
    out = extract_indiscernible(ctx, phi, enumerate_type_patterns(len(phi), k),
                                items, cfg)
    assert len(out) >= 1
    assert out == [y for y in items if y in out]


def test_constancy_past_the_enumeration_cliff():
    # a dense constant sequence past the size where a node-budgeted
    # search gives up and enumerates every increasing k-tuple, which
    # takes tens of seconds at these sizes; no time is asserted
    ctx = EvalContext(clique(150), (0, 1), ball_radius=0)
    phi = (eq_atom(0), eq_atom(1))
    patterns = enumerate_type_patterns(2, 4)
    assert is_delta_indiscernible(ctx, phi, patterns,
                                  list(range(2, 150))) == (True, None)
    g = clique(120)
    res = flip_widen(FlipWideRequest(g, tuple(range(g.n)), 1, 1))
    assert len(res.b_set) == 119


def test_decisions_match_enumeration():
    # the decisions run first on the shared caches, so the construction
    # that follows starts from caches they filled
    decided = {"false": 0, "no_false": 0, "true": 0, "no_true": 0}
    for masks, caches, alive0 in _random_mask_cases():
        want_false = _first_false_by_enumeration(masks, alive0)
        want_true = _first_true_by_witness_walk(masks, alive0)
        has_false = want_false is not None
        fresh = [{} for _ in masks]
        excl = [[] for _ in masks]
        assert (_false_search(masks, alive0, fresh, [[] for _ in masks])
                is not None) == has_false
        assert (_false_search(masks, alive0, caches, excl)
                is not None) == has_false
        assert _find_false_tuple(masks, alive0, caches, excl) == want_false
        decided["false" if has_false else "no_false"] += 1
        decided["true" if want_true else "no_true"] += 1
    assert min(decided.values()) > 100, decided


def _random_ctx(seed, n, d, use_eq):
    """A small random graph with edge atoms, or two eq atoms whose
    constants sit at both ends and stay out of the item pool."""
    g = random_bounded_degree(n, d, seed)
    if use_eq:
        return (EvalContext(g, (0, n - 1), ball_radius=1),
                (eq_atom(0), eq_atom(1)), list(range(1, n - 1)))
    return edge_ctx(g), EDGE, list(range(n))


@given(st.integers(0, 10_000), st.integers(4, 9), st.integers(1, 4),
       st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_em_type_matches_brute_force(seed, n, d, use_eq, data):
    ctx, phi, pool = _random_ctx(seed, n, d, use_eq)
    items = data.draw(st.lists(st.sampled_from(pool), unique=True,
                               max_size=len(pool)).map(sorted))
    patterns = enumerate_type_patterns(len(phi), 3)
    want = [p for p in patterns
            if all(eval_gamma(ctx, phi, p, combo)[0]
                   for combo in combinations(items, len(p)))]
    assert em_type(ctx, phi, patterns, items) == want


@given(st.integers(0, 10_000), st.integers(4, 9), st.integers(1, 4),
       st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_refinement_truth_matches_brute_force(seed, n, d, use_eq, data):
    ctx, phi, pool = _random_ctx(seed, n, d, use_eq)
    items = data.draw(st.lists(st.sampled_from(pool), unique=True,
                               max_size=len(pool)).map(sorted))
    full = ctx.graph.full_mask()
    # every call refines the same items, so one cache serves them all
    rows: dict = {}
    for pattern in enumerate_type_patterns(len(phi), 3):
        out, value = _make_homogeneous(ctx, phi, pattern.entries, items, full,
                                       rows)
        it = iter(items)
        assert all(v in it for v in out)
        truths = {eval_gamma(ctx, phi, pattern, combo)[0]
                  for combo in combinations(out, len(pattern))}
        if value is None:
            assert len(out) < len(pattern)
        else:
            assert truths == {value}


def test_refinement_reads_entry_masks_only_for_heads(monkeypatch):
    # a single entry's truths come from the row that _decide stored, so
    # entry_mask runs only for the heads of a longer pattern, once each
    heads = []

    def counting(ctx, phi, entry, y):
        heads.append(y)
        return entry_mask(ctx, phi, entry, y)

    monkeypatch.setattr(indiscernibles, "entry_mask", counting)
    # a path with an isolated vertex 6: neither pattern is constant
    g = Graph.from_edges(7, [(v, v + 1) for v in range(5)])
    ctx = edge_ctx(g)
    items = list(range(7))
    adj = frozenset([(True,)])
    out, value = _make_homogeneous(ctx, EDGE, (adj,), items, g.full_mask(),
                                   {})
    assert (out, value) == ([0, 1, 2, 3, 4, 5], True)
    assert heads == []
    out, value = _make_homogeneous(ctx, EDGE, (adj, adj), items,
                                   g.full_mask(), {})
    assert heads == sorted(set(heads)) and set(out) <= set(heads)
    assert value is not None and len(out) < len(items)


def _truths_by_enumeration(ctx, phi, entries, items, alive0):
    """Truth of every increasing tuple, in lexicographic order."""
    return [bool(alive0 & reduce(and_, (entry_mask(ctx, phi, e, y)
                                        for e, y in zip(entries, combo))))
            for combo in combinations(items, len(entries))]


@given(st.integers(0, 10_000), st.integers(4, 10), st.integers(1, 4),
       st.booleans(), st.data())
@settings(max_examples=40, deadline=None)
def test_decide_shares_rows_across_patterns_and_witness_sets(
        seed, n, d, use_eq, data):
    # one cache for every pattern and both witness sets; patterns share
    # prefixes, and in either order a sweep may resume from a stored one
    ctx, phi, pool = _random_ctx(seed, n, d, use_eq)
    items = data.draw(st.permutations(pool))[:data.draw(
        st.integers(1, len(pool)))]
    full = ctx.graph.full_mask()
    alives = (full, data.draw(st.integers(0, full)))
    patterns = [p for p in enumerate_type_patterns(len(phi), 3)
                if len(p) <= len(items)]
    if data.draw(st.booleans()):
        patterns = data.draw(st.permutations(patterns))
    rows: dict = {}
    for pattern in patterns:
        for alive0 in alives:
            truths = _truths_by_enumeration(ctx, phi, pattern.entries,
                                            items, alive0)
            got = _decide(ctx, phi, pattern.entries, items, alive0, rows)
            assert got == (truths[0], len(set(truths)) == 1)
            if got == (False, False):
                # the stored sweep holds the witnesses that
                # is_delta_indiscernible builds its true tuple from
                masks = [[entry_mask(ctx, phi, e, y) for y in items]
                         for e in pattern.entries]
                assert (rows[pattern.entries, alive0][-1]
                        == _kept_by_enumeration(masks, alive0))


def test_decide_settles_extensions_of_a_prefix_without_witnesses():
    # in a star only the center is adjacent to a leaf: with the center
    # alive (True,) keeps a witness, with the leaves alone it keeps none
    g = Graph.from_edges(6, [(0, v) for v in range(1, 6)])
    ctx = edge_ctx(g)
    items = list(range(1, 6))
    full = g.full_mask()
    leaves = mask_of(items)
    adj, non = frozenset([(True,)]), frozenset([(False,)])
    rows: dict = {}
    assert _decide(ctx, EDGE, (adj,), items, full, rows) == (True, True)
    assert _decide(ctx, EDGE, (adj,), items, leaves, rows) == (False, True)
    assert rows[(adj,), leaves][-1] == 0
    for tail in ((adj,), (non,), (adj, non), (non, non)):
        entries = (adj, *tail)
        for alive0 in (full, leaves):
            truths = _truths_by_enumeration(ctx, EDGE, entries, items, alive0)
            got = _decide(ctx, EDGE, entries, items, alive0, rows)
            assert got == (truths[0], len(set(truths)) == 1)
        # settled from the stored prefix, with no sweep of its own
        assert (entries, leaves) not in rows


# The extraction as it stood before window-first refutation, prefix sweeps
# and shared refinement caches: the whole input is decided first, and
# every _make_homogeneous call starts a fresh cache.

def _reference_decide(ctx, phi, entries, items, alive0, rows):
    got = _entry_rows(ctx, phi, entries, items, rows)
    masks, kill_caches, excl_caches = map(list, zip(*got))
    if _first_truth(masks, alive0):
        return True, _false_search(masks, alive0, kill_caches,
                                   excl_caches) is None
    reach = [alive0] * len(items)
    for row in masks:
        reach = [0, *accumulate(map(and_, reach, row), or_)]
    return False, not reach[-1]


def _reference_homogeneous(ctx, phi, entries, items, alive0):
    depth = len(entries)
    if len(items) < depth:
        return items, None
    t0, constant = _reference_decide(ctx, phi, entries, items, alive0, {})
    if constant:
        return items, t0
    if depth == 1:
        truths = [bool(alive0 & entry_mask(ctx, phi, entries[0], y))
                  for y in items]
        keep = _majority(truths)
        return [y for y, t in zip(items, truths) if t is keep], keep
    heads = []
    work = list(items)
    while work:
        h = work[0]
        alive_h = alive0 & entry_mask(ctx, phi, entries[0], h)
        refined, value = _reference_homogeneous(ctx, phi, entries[1:],
                                                work[1:], alive_h)
        heads.append((h, value))
        work = refined
    colored = [c for _, c in heads if c is not None]
    if not colored:
        return [h for h, _ in heads], None
    keep = _majority(colored)
    return [h for h, c in heads if c is None or c is keep], keep


def _reference_extract(ctx, phi, patterns, items, cfg):
    _check_items(ctx, items)
    if len(items) < cfg.target_length:
        raise InputError("input below the target")
    full = ctx.graph.full_mask()
    rows: dict = {}
    if all(_reference_decide(ctx, phi, p.entries, items, full, rows)[1]
           for p in patterns if len(p) <= len(items)):
        return list(items)
    survivors = list(items)
    if cfg.window is not None and len(survivors) > cfg.window:
        survivors = survivors[:cfg.window]
    blocking = None
    for pattern in sorted(patterns, key=len):
        before = len(survivors)
        survivors, _ = _reference_homogeneous(ctx, phi, pattern.entries,
                                              survivors, full)
        if blocking is None and before >= cfg.target_length > len(survivors):
            blocking = pattern
    if len(survivors) < cfg.target_length:
        raise ExtractionShortfall("short", achieved=survivors,
                                  blocking_pattern=blocking)
    return survivors


def _extraction_outcome(extract, ctx, phi, patterns, items, cfg):
    try:
        return "ok", extract(ctx, phi, patterns, items, cfg)
    except ExtractionShortfall as err:
        return "short", err.achieved, err.blocking_pattern


def _assert_extraction_matches_reference(ctx, phi, patterns, items, cfg):
    got = _extraction_outcome(extract_indiscernible, ctx, phi, patterns,
                              items, cfg)
    want = _extraction_outcome(_reference_extract, ctx, phi, patterns,
                               items, cfg)
    assert got == want
    return got


@given(st.integers(0, 10_000), st.integers(4, 30), st.integers(1, 4),
       st.booleans(), st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_extraction_matches_reference(seed, n, d, use_eq, k, data):
    ctx, phi, pool = _random_ctx(seed, n, d, use_eq)
    if data.draw(st.booleans()):
        ctx = EvalContext(complement(ctx.graph), ctx.constants, 1)
    items = data.draw(st.permutations(pool))[:data.draw(
        st.integers(1, len(pool)))]
    window = data.draw(st.none() | st.integers(1, len(pool)))
    target = data.draw(st.integers(1, min(3, len(items))))
    _assert_extraction_matches_reference(
        ctx, phi, enumerate_type_patterns(len(phi), k), items,
        ExtractionConfig(target_length=target, window=window))


@pytest.mark.parametrize("g", [
    random_bounded_degree(90, 3, 5),
    complement(random_bounded_degree(70, 3, 6)),
    clique(60),
    edgeless(60),
], ids=["sparse", "dense", "clique", "edgeless"])
@pytest.mark.parametrize("window", [DEFAULT_WINDOW, 60, None])
def test_long_extraction_matches_reference(g, window):
    ctx = edge_ctx(g)
    cfg = ExtractionConfig(target_length=2, window=window)
    _assert_extraction_matches_reference(ctx, EDGE, PATS3,
                                         list(range(g.n)), cfg)


def test_indiscernible_crop_of_a_discernible_sequence():
    # the first ten vertices are isolated and the last two adjacent, so
    # the crop is indiscernible and the whole sequence is not
    g = Graph.from_edges(12, [(10, 11)])
    ctx = edge_ctx(g)
    items = list(range(12))
    assert is_delta_indiscernible(ctx, EDGE, PATS3, items[:10])[0]
    assert not is_delta_indiscernible(ctx, EDGE, PATS3, items)[0]
    cfg = ExtractionConfig(target_length=2, window=10)
    got = _assert_extraction_matches_reference(ctx, EDGE, PATS3, items, cfg)
    assert got == ("ok", items[:10])


@pytest.mark.parametrize("seed", [1, 2])
def test_crop_refutation_skips_the_full_check(monkeypatch, seed):
    # a level-0 build over 400 vertices extracts from its 399 survivors;
    # the crop refutes it, so no decision ever sees more than the window
    seen: list[int] = []
    extracted: list[int] = []

    def recording_decide(ctx, phi, entries, items, alive0, rows):
        seen.append(len(items))
        return _decide(ctx, phi, entries, items, alive0, rows)

    def recording_extract(ctx, phi, patterns, items, cfg):
        extracted.append(len(items))
        return extract_indiscernible(ctx, phi, patterns, items, cfg)

    monkeypatch.setattr(indiscernibles, "_decide", recording_decide)
    monkeypatch.setattr(sampleset, "extract_indiscernible", recording_extract)
    g = random_bounded_degree(400, 3, seed)
    build_sample_set(g, DisjointFamilyInput(tuple(range(g.n)), 0, "stable"))
    assert max(extracted) > DEFAULT_WINDOW
    assert seen and max(seen) <= DEFAULT_WINDOW
