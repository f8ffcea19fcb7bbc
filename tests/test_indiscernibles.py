import random
from itertools import combinations

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
    eval_gamma,
    extract_indiscernible,
    flip_widen,
    is_delta_indiscernible,
    type_pattern,
)
from flipwide.generators import (
    clique,
    half_graph,
    matching,
    path,
    random_bounded_degree,
    star_forest,
)
from flipwide.indiscernibles import (
    ExtractionConfig,
    _false_search,
    _find_false_tuple,
    _find_true_tuple,
    _kept_witnesses,
    _make_homogeneous,
)

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
        ExtractionConfig(target_length=8, max_pattern_length=3))
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
        ExtractionConfig(target_length=4, max_pattern_length=3))
    assert out == list(range(10, 20))
    ok, _ = is_delta_indiscernible(ctx, EDGE, PATS3, out)
    assert ok


def test_path_extraction_frozen():
    ctx = edge_ctx(path(20))
    out = extract_indiscernible(
        ctx, EDGE, PATS3, list(range(20)),
        ExtractionConfig(target_length=4, max_pattern_length=3))
    assert out == [0, 1, 4, 5, 8, 9, 12, 13, 16, 19]
    ok, _ = is_delta_indiscernible(ctx, EDGE, PATS3, out)
    assert ok


def test_shortfall_payload():
    g = star_forest(12, 6)
    ctx = edge_ctx(g)
    with pytest.raises(ExtractionShortfall) as info:
        extract_indiscernible(
            ctx, EDGE, PATS3, list(range(g.n)),
            ExtractionConfig(target_length=30, max_pattern_length=3))
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
            ExtractionConfig(target_length=2, max_pattern_length=3))
    except ExtractionShortfall as err:
        out = err.achieved
    it = iter(items)
    assert all(v in it for v in out)
    ok, _ = is_delta_indiscernible(ctx, EDGE, PATS3, out)
    assert ok


def test_extraction_is_deterministic():
    g = random_bounded_degree(36, 3, 2)
    ctx = edge_ctx(g)
    cfg = ExtractionConfig(target_length=2, max_pattern_length=3)
    a = extract_indiscernible(ctx, EDGE, PATS3, list(range(36)), cfg)
    b = extract_indiscernible(ctx, EDGE, PATS3, list(range(36)), cfg)
    assert a == b


def test_window_crops_before_refining():
    # refinement may only ever touch the first `window` items
    g = path(30)
    ctx = edge_ctx(g)
    cfg = ExtractionConfig(target_length=2, max_pattern_length=3, window=10)
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
    with pytest.raises(InputError):
        ExtractionConfig(target_length=1, strategy="anneal")


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


def test_tuple_searches_match_enumeration():
    # rows come from a small pool, so one row may sit at several entries,
    # and each row's kill cache is shared by two searches, as in _scan
    rng = random.Random(20221)
    outcomes = {"false": 0, "no_false": 0, "true": 0, "no_true": 0}
    for _ in range(3000):
        n = rng.randint(1, 10)
        s = rng.randint(1, 9)
        k = rng.randint(1, min(4, s))
        density = rng.choice((0.2, 0.5, 0.8, 0.9, 0.97))
        pool = [([sum(1 << z for z in range(n) if rng.random() < density)
                  for _ in range(s)], {}) for _ in range(rng.randint(1, k))]
        picks = [rng.choice(pool) for _ in range(k)]
        masks = [row for row, _ in picks]
        caches = [cache for _, cache in picks]
        for _ in range(2):
            alive0 = sum(1 << z for z in range(n) if rng.random() < 0.8)
            want_false = _first_false_by_enumeration(masks, alive0)
            want_true = _first_true_by_witness_walk(masks, alive0)
            fresh = [{} for _ in masks]
            assert _find_false_tuple(masks, alive0, fresh) == want_false
            assert _find_false_tuple(masks, alive0, caches) == want_false
            assert _find_true_tuple(masks, alive0) == want_true
            outcomes["false" if want_false else "no_false"] += 1
            outcomes["true" if want_true else "no_true"] += 1
    assert min(outcomes.values()) > 100, outcomes


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
    # the random masks of test_tuple_searches_match_enumeration (same
    # seed and draws); the decisions run first on the shared kill caches,
    # so the construction that follows starts from caches they filled
    rng = random.Random(20221)
    decided = {"false": 0, "no_false": 0, "true": 0, "no_true": 0}
    for _ in range(3000):
        n = rng.randint(1, 10)
        s = rng.randint(1, 9)
        k = rng.randint(1, min(4, s))
        density = rng.choice((0.2, 0.5, 0.8, 0.9, 0.97))
        pool = [([sum(1 << z for z in range(n) if rng.random() < density)
                  for _ in range(s)], {}) for _ in range(rng.randint(1, k))]
        picks = [rng.choice(pool) for _ in range(k)]
        masks = [row for row, _ in picks]
        caches = [cache for _, cache in picks]
        for _ in range(2):
            alive0 = sum(1 << z for z in range(n) if rng.random() < 0.8)
            want_false = _first_false_by_enumeration(masks, alive0)
            want_true = _first_true_by_witness_walk(masks, alive0)
            has_false = want_false is not None
            fresh = [{} for _ in masks]
            assert (_false_search(masks, alive0, fresh) is not None) == has_false
            assert (_false_search(masks, alive0, caches) is not None) == has_false
            assert _find_false_tuple(masks, alive0, caches) == want_false
            assert bool(_kept_witnesses(masks, alive0)) == (want_true is not None)
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
    for pattern in enumerate_type_patterns(len(phi), 3):
        out, value = _make_homogeneous(ctx, phi, pattern.entries, items, full)
        it = iter(items)
        assert all(v in it for v in out)
        truths = {eval_gamma(ctx, phi, pattern, combo)[0]
                  for combo in combinations(out, len(pattern))}
        if value is None:
            assert len(out) < len(pattern)
        else:
            assert truths == {value}
