import hashlib
import json
import random
import sys
from functools import reduce
from itertools import accumulate, chain, combinations, compress, product
from operator import and_, invert, or_
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipwide import (
    EvalContext,
    ExtractionShortfall,
    FlipWideRequest,
    InputError,
    Pattern,
    dist_atom,
    edge_atom,
    enumerate_type_patterns,
    eq_atom,
    extract_indiscernible,
    flip_widen,
    is_delta_indiscernible,
    type_pattern,
)
from flipwide import formulas, indiscernibles, sampleset
from flipwide.formulas import (all_phi_types, entry_mask, entry_row, eval_atom,
                               type_rows)
from flipwide.generators import (
    clique,
    complement,
    edgeless,
    half_graph,
    matching,
    path,
    random_bounded_degree,
    star_forest,
    subdivided_clique,
)
from flipwide.graphcore import Graph, mask_of
from flipwide.indiscernibles import (
    DEFAULT_WINDOW,
    ExtractionConfig,
    _check_items,
    _decide,
    _entry_rows,
    _false_search,
    _find_false_tuple,
    _find_true_tuple,
    _first_truth,
    _make_homogeneous,
)
from flipwide.sampleset import DisjointFamilyInput, build_sample_set
from pointwise import em_type, eval_gamma, type_mask

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


def test_extraction_rejects_types_of_the_wrong_arity():
    # the clique is indiscernible, so the exception table would decide
    # every pattern without evaluating one; a type with two polarities
    # over one formula is still rejected, as the per-pattern path does
    ctx = edge_ctx(clique(10))
    bad = type_pattern([(True, False), (True, True)])
    # the memoised enumeration for two formulas is no exception either
    for patterns in ([bad], [*PATS3, bad], enumerate_type_patterns(2, 2)):
        with pytest.raises(InputError,
                           match=r"^type arity 2 does not match \|phi\|=1$"):
            extract_indiscernible(ctx, EDGE, patterns, list(range(10)),
                                  ExtractionConfig(target_length=2))


def test_entry_rows_match_pointwise_type_masks():
    # a row is filled a whole row at a time, from atom rows; each mask
    # must equal the OR of type_mask over the entry's types, computed on
    # a context of its own, for single types and unions, on a fresh memo
    # and on item lists that the entry and atom memos hold in part
    rng = random.Random(20233)
    for seed in range(12):
        g = random_bounded_degree(14, 1 + seed % 4, seed)
        ctx, ref = (EvalContext(g, ball_radius=1 + seed % 2)
                    for _ in range(2))
        phi = ((edge_atom(), dist_atom(), eq_atom(13)) if seed % 3 else
               (eq_atom(0), edge_atom()))
        types = all_phi_types(len(phi))
        for _ in range(6):
            entry = frozenset(rng.sample(types, rng.randint(1, 3)))
            for size in (rng.randint(0, 5), rng.randint(1, g.n)):
                items = rng.sample(range(g.n), size)
                want = [reduce(or_, (type_mask(ref, phi, tau, y)
                                     for tau in entry)) for y in items]
                assert entry_row(ctx, phi, entry, items) == want
                assert [entry_mask(ctx, phi, entry, y)
                        for y in items] == want
    ctx = edge_ctx(path(5))
    for entry in (frozenset([(True, False)]),
                  frozenset([(True,), (True, False)])):
        with pytest.raises(InputError,
                           match=r"^type arity 2 does not match \|phi\|=1$"):
            entry_row(ctx, EDGE, entry, [0, 1])


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
    """Random witness masks and alive sets.

    Rows come from a small pool, so one row may sit at several entries.
    Each draw comes twice: as drawn, and with some entries' rows swapped
    for one-hot rows {y_p} or co-one-hot rows (every witness but y_p) over
    one random position-to-witness map, the two classes of a clique. One
    density per draw never puts those two shapes side by side.
    """
    rng = random.Random(20221)
    shapes = random.Random(20222)
    for _ in range(3000):
        n = rng.randint(1, 10)
        s = rng.randint(1, 9)
        k = rng.randint(1, min(4, s))
        density = rng.choice((0.2, 0.5, 0.8, 0.9, 0.97))
        pool = [[sum(1 << z for z in range(n) if rng.random() < density)
                 for _ in range(s)] for _ in range(rng.randint(1, k))]
        picks = [rng.choice(pool) for _ in range(k)]
        ys = [shapes.randrange(n) for _ in range(s)]
        one_hot = [1 << y for y in ys]
        co_one_hot = [((1 << n) - 1) ^ (1 << y) for y in ys]
        mixed = [shapes.choice((one_hot, co_one_hot, pick)) for pick in picks]
        for _ in range(2):
            alive0 = sum(1 << z for z in range(n) if rng.random() < 0.8)
            for rows in (picks, mixed):
                yield rows, alive0


def test_tuple_searches_match_enumeration():
    outcomes = {"false": 0, "no_false": 0, "true": 0, "no_true": 0}
    for masks, alive0 in _random_mask_cases():
        want_false = _first_false_by_enumeration(masks, alive0)
        want_true = _first_true_by_witness_walk(masks, alive0)
        assert _find_false_tuple(masks, alive0) == want_false
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
    j's row at that tuple's position j. Density 0.95 has a universal
    witness; 0.6, 0.9 and the planted case have none and reach the
    witness branching."""
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
    # the node counts guard the pruning: with the two-entry rule the
    # density-0.6 search makes 727 nodes, and the sibling bans take it
    # down to 581 (3,287 before the rule)
    alive0 = (1 << 400) - 1
    found, searched = [], []
    for masks in _dense_mask_cases():
        want = _first_false_by_enumeration(masks, alive0)
        has_false, nodes = _search_nodes(
            lambda: _false_search(masks, alive0))
        assert (has_false is not None) == (want is not None)
        assert _find_false_tuple(masks, alive0) == want
        found.append(want is not None)
        searched.append(nodes)
    assert found == [False, False, False, True]
    assert searched[0] <= 600, searched


def _on_nodes(search, visit):
    """Run ``search`` and pass the locals of each node of the false-tuple
    search, each ``completes`` call, to ``visit``. A profile hook reads
    the frames and changes nothing."""
    filename = _false_search.__code__.co_filename

    def hook(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_name == "completes"
                and code.co_filename == filename):
            visit(frame.f_locals)

    sys.setprofile(hook)
    try:
        return search()
    finally:
        sys.setprofile(None)


def _search_nodes(search):
    """Run ``search`` and count the nodes of the false-tuple search."""
    calls = []
    return _on_nodes(search, calls.append), len(calls)


def _settled_nodes(search):
    """Run ``search`` and record each node of the false-tuple search that
    is settled without branching, one or two free entries with alive
    witnesses: its answer, alive set, first entry, the position before
    it, a copy of its placed positions and of its bans."""
    nodes = []
    filename = _false_search.__code__.co_filename

    def hook(frame, event, arg):
        code = frame.f_code
        if (event == "return" and code.co_name == "completes"
                and code.co_filename == filename):
            loc = frame.f_locals
            if loc["alive"] and len(loc.get("free", ())) in (1, 2):
                nodes.append({"found": arg, "alive": loc["alive"],
                              "first": loc["first"], "prev": loc["prev"],
                              "pos": list(loc["pos"]),
                              "banned": list(loc["banned"]),
                              "masks": loc["masks"]})

    sys.setprofile(hook)
    try:
        return search(), nodes
    finally:
        sys.setprofile(None)


def _node_pairs(node):
    """The node's free entries, and every placement of them that keeps
    the entries from ``first`` on increasing after ``prev`` around the
    placed ones, with the alive witnesses each placement keeps."""
    masks, pos, first = node["masks"], node["pos"], node["first"]
    free = [j for j in range(first, len(masks)) if pos[j] < 0]
    placements = []
    for picks in product(range(node["prev"] + 1, len(masks[0])),
                         repeat=len(free)):
        at = list(pos)
        for j, p in zip(free, picks):
            at[j] = p
        if all(a < b for a, b in zip(at[first:], at[first + 1:])):
            kept = node["alive"]
            for j, p in zip(free, picks):
                kept &= masks[j][p]
            placements.append((picks, kept))
    return free, placements


def _random_search_masks(rng, k):
    n, s = rng.randint(4, 12), rng.randint(k, 8)
    density = rng.choice((0.5, 0.7, 0.8, 0.9))
    masks = [[sum(1 << z for z in range(n) if rng.random() < density)
              for _ in range(s)] for _ in range(k)]
    return masks, (1 << n) - 1


def test_two_entry_rule_ignores_bans():
    # a node with two free entries scans their windows, banned positions
    # included: the searches match enumeration at k = 3 and 4 on masks
    # that reach such nodes with bans in their windows, and no placement
    # through a banned position ever empties the alive witnesses
    rng = random.Random(20231)
    seen = {(k, found, shape): 0 for k in (3, 4) for found in (False, True)
            for shape in ("banned", "width 1")}
    for _ in range(1200):
        k = rng.choice((3, 4))
        masks, alive0 = _random_search_masks(rng, k)
        want = _first_false_by_enumeration(masks, alive0)
        has_false, nodes = _settled_nodes(
            lambda: _false_search(masks, alive0))
        assert (has_false is not None) == (want is not None)
        got, more = _settled_nodes(
            lambda: _find_false_tuple(masks, alive0))
        assert got == want
        banned_seen = width_one = False
        for node in nodes + more:
            free, placements = _node_pairs(node)
            if len(free) < 2:
                continue
            for picks, kept in placements:
                through_ban = any(node["banned"][j] >> p & 1
                                  for j, p in zip(free, picks))
                banned_seen |= through_ban
                assert kept or not through_ban
            width_one |= any(len({picks[f] for picks, _ in placements}) == 1
                             for f in range(2))
        found = want is not None
        seen[k, found, "banned"] += banned_seen
        seen[k, found, "width 1"] += width_one
    assert min(seen.values()) > 10, seen


def _pairs_by_enumeration(alive, row1, row2, adjacent):
    return any(not alive & row1[i] & row2[i2]
               for i in range(len(row1)) for i2 in range(len(row2))
               if i <= i2 or not adjacent)


def test_two_entry_rule_matches_enumeration():
    # _pair_empties against every pair of positions, on windows of width
    # 1 to 8, consecutive (equal widths) or with a placed entry between
    # them (any widths); then every node the searches settle with one or
    # two free entries, at the root, below branching with bans and a
    # placed entry between the pair, and below the left-to-right fixing
    # of _find_false_tuple, against every placement in its windows
    rng = random.Random(20232)
    outcomes = {(adjacent, found): 0 for adjacent in (False, True)
                for found in (False, True)}
    for _ in range(3000):
        n = rng.randint(1, 10)
        adjacent = rng.random() < 0.5
        w1 = rng.randint(1, 8)
        w2 = w1 if adjacent else rng.randint(1, 8)
        density = rng.choice((0.5, 0.8, 0.9, 0.97))
        row1, row2 = ([sum(1 << z for z in range(n) if rng.random() < density)
                       for _ in range(w)] for w in (w1, w2))
        alive = sum(1 << z for z in range(n) if rng.random() < 0.8)
        want = _pairs_by_enumeration(alive, row1, row2, adjacent)
        assert indiscernibles._pair_empties(alive, row1, row2,
                                            adjacent) == want
        outcomes[adjacent, want] += 1
    assert min(outcomes.values()) > 300, outcomes
    seen = {"two apart": 0, "two adjacent": 0, "width 1": 0, "banned": 0,
            "fixing": 0, "one": 0}
    for _ in range(800):
        k = rng.choice((2, 3, 4))
        masks, alive0 = _random_search_masks(rng, k)
        _, nodes = _settled_nodes(
            lambda: _false_search(masks, alive0))
        _, more = _settled_nodes(
            lambda: _find_false_tuple(masks, alive0))
        for node in nodes + more:
            free, placements = _node_pairs(node)
            assert node["found"] == any(not kept for _, kept in placements)
            if len(free) == 1:
                seen["one"] += 1
                continue
            j1, j2 = free
            seen["two adjacent" if j2 == j1 + 1 else "two apart"] += 1
            seen["width 1"] += len({picks[0] for picks, _ in placements}) == 1
            seen["banned"] += any(node["banned"][j] >> p & 1
                                  for picks, _ in placements
                                  for j, p in zip(free, picks))
            seen["fixing"] += node["first"] > 0 and max(node["pos"]) < 0
    assert min(seen.values()) > 50, seen


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


def test_searches_match_enumeration_on_one_exception_covers():
    # the masks the paper's first theorem explains, where every
    # increasing tuple puts an entry on a position whose witness changes
    # type nowhere else, are decided by the universal witness or by the
    # search, with no precheck of their own
    outcomes = {"cover": 0, "cover_beyond_universal": 0, "no_cover": 0}
    for masks, alive0 in _random_mask_cases():
        if _cover_by_definition(masks, alive0):
            assert _first_false_by_enumeration(masks, alive0) is None
            assert _false_search(masks, alive0) is None
            assert _find_false_tuple(masks, alive0) is None
            outcomes["cover"] += 1
            if _no_universal_witness(masks, alive0):
                outcomes["cover_beyond_universal"] += 1
        else:
            outcomes["no_cover"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_searches_match_enumeration_across_alive_sets():
    # the rows in _decide's cache hold no alive set, so searches under
    # different alive sets read the same rows: here a small alive set, the
    # full one, and the small one again
    wide = (1 << 10) - 1
    for masks, alive0 in _random_mask_cases():
        for alive in (alive0, wide, alive0):
            want = _first_false_by_enumeration(masks, alive)
            assert (_false_search(masks, alive) is None) == (want is None)
            assert _find_false_tuple(masks, alive) == want


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
        ctx = EvalContext(g, ball_radius=1)
        phi = (eq_atom(0), eq_atom(n - 1))
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
        ctx = EvalContext(g, ball_radius=1)
        phi = (eq_atom(0), eq_atom(n - 1))
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
    ctx = EvalContext(clique(150), ball_radius=0)
    phi = (eq_atom(0), eq_atom(1))
    patterns = enumerate_type_patterns(2, 4)
    assert is_delta_indiscernible(ctx, phi, patterns,
                                  list(range(2, 150))) == (True, None)
    g = clique(120)
    res = flip_widen(FlipWideRequest(g, tuple(range(g.n)), 1, 1))
    assert len(res.b_set) == 119


def test_decisions_match_enumeration():
    # the decision and the construction that follows read the same rows,
    # as in is_delta_indiscernible
    decided = {"false": 0, "no_false": 0, "true": 0, "no_true": 0}
    for masks, alive0 in _random_mask_cases():
        want_false = _first_false_by_enumeration(masks, alive0)
        want_true = _first_true_by_witness_walk(masks, alive0)
        has_false = want_false is not None
        assert (_false_search(masks, alive0) is not None) == has_false
        assert _find_false_tuple(masks, alive0) == want_false
        decided["false" if has_false else "no_false"] += 1
        decided["true" if want_true else "no_true"] += 1
    assert min(decided.values()) > 100, decided


def _random_ctx(seed, n, d, use_eq):
    """A small random graph with edge atoms, or two eq atoms whose
    constants sit at both ends and stay out of the item pool."""
    g = random_bounded_degree(n, d, seed)
    if use_eq:
        return (EvalContext(g, ball_radius=1),
                (eq_atom(0), eq_atom(n - 1)), list(range(1, n - 1)))
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


def test_refinement_reads_each_entry_row_once(monkeypatch):
    # the refinement builds the type rows over the items once, through
    # the cache, and then works on positions into those rows: no
    # entry_mask call, and no rows over a shorter item list, at any depth
    heads = []
    reads = []

    def counting_mask(ctx, phi, entry, y):
        heads.append(y)
        return entry_mask(ctx, phi, entry, y)

    def counting_rows(ctx, phi, items):
        reads.append(tuple(items))
        return type_rows(ctx, phi, items)

    monkeypatch.setattr(formulas, "entry_mask", counting_mask)
    monkeypatch.setattr(indiscernibles, "type_rows", counting_rows)
    # a path with an isolated vertex 6: no pattern below is constant
    g = Graph.from_edges(7, [(v, v + 1) for v in range(5)])
    ctx = edge_ctx(g)
    items = list(range(7))
    adj, non = frozenset([(True,)]), frozenset([(False,)])
    out, value = _make_homogeneous(ctx, EDGE, (adj,), items, g.full_mask(),
                                   {})
    assert (out, value) == ([0, 1, 2, 3, 4, 5], True)
    assert reads == [tuple(items)]
    for entries in ((adj, adj), (adj, non, adj), (non, adj, non, adj)):
        reads.clear()
        out, value = _make_homogeneous(ctx, EDGE, entries, items,
                                       g.full_mask(), {})
        assert value is not None and len(out) < len(items)
        assert reads == [tuple(items)]
    assert heads == []


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


@given(st.integers(0, 10_000), st.integers(4, 10), st.integers(1, 4),
       st.booleans(), st.data())
@settings(max_examples=40, deadline=None)
def test_decide_shortcuts_match_enumeration(seed, n, d, use_eq, data):
    # witness subsets make single-entry patterns with a true first tuple
    # and prefixes that keep no witness; every pattern is asked under
    # every witness set, in any order and twice, on one shared cache, so
    # stored prefixes and stored answers are read back across them
    ctx, phi, pool = _random_ctx(seed, n, d, use_eq)
    items = data.draw(st.permutations(pool))[:data.draw(
        st.integers(1, len(pool)))]
    full = ctx.graph.full_mask()
    alives = [full, *data.draw(st.lists(st.integers(0, full), min_size=1,
                                        max_size=2))]
    asks = [(p.entries, alive0)
            for p in enumerate_type_patterns(len(phi), 3)
            if len(p) <= len(items) for alive0 in alives]
    asks = data.draw(st.permutations(asks))
    rows: dict = {}
    for entries, alive0 in asks + asks:
        truths = _truths_by_enumeration(ctx, phi, entries, items, alive0)
        assert (_decide(ctx, phi, entries, items, alive0, rows)
                == (truths[0], len(set(truths)) == 1))


def test_decide_stores_answers_per_witness_set():
    # a star on 0..5 and an isolated vertex 6: over all witnesses (adj,)
    # is true on the leaves and false on 6, over the leaves it is false
    # everywhere; the first answer must not serve the second witness set
    g = Graph.from_edges(7, [(0, v) for v in range(1, 6)])
    ctx = edge_ctx(g)
    items = list(range(1, 7))
    leaves = mask_of(range(1, 6))
    adj = frozenset([(True,)])
    rows: dict = {}
    for _ in range(2):
        assert _decide(ctx, EDGE, (adj,), items, g.full_mask(),
                       rows) == (True, False)
        assert _decide(ctx, EDGE, (adj,), items, leaves,
                       rows) == (False, True)
        assert _decide(ctx, EDGE, (adj,), items[:5], g.full_mask(),
                       {}) == (True, True)


def test_level_zero_build_settles_each_pattern_once(monkeypatch):
    # over the level-0 build of a 400-vertex sparse graph: no single-entry
    # pattern reaches the false search, no pattern with a stored prefix
    # that keeps no witness reaches the entry rows, and no first-true
    # pattern is searched twice on one cache; the exception table is
    # turned off, since it would stop the refinement before these paths
    current: list = []
    caches: list[dict] = []  # held so that no cache id is reused
    searched: set = set()
    seen = {"dead": 0, "search": 0}

    def recording_decide(ctx, phi, entries, items, alive0, rows):
        caches.append(rows)
        dead = any(not rows.get((entries[:j], alive0), [1])[-1]
                   for j in range(1, len(entries) + 1))
        seen["dead"] += dead
        current[:] = [(id(rows), entries, alive0), dead]
        try:
            return _decide(ctx, phi, entries, items, alive0, rows)
        finally:
            current.clear()

    def recording_rows(ctx, phi, entries, items, rows):
        assert not (current and current[1])
        return _entry_rows(ctx, phi, entries, items, rows)

    def recording_search(masks, alive0):
        assert len(masks) > 1
        assert current[0] not in searched
        searched.add(current[0])
        seen["search"] += 1
        return _false_search(masks, alive0)

    monkeypatch.setattr(indiscernibles, "_decide", recording_decide)
    monkeypatch.setattr(indiscernibles, "_entry_rows", recording_rows)
    monkeypatch.setattr(indiscernibles, "_false_search", recording_search)
    monkeypatch.setattr(indiscernibles, "_decided_by_exceptions",
                        lambda ctx, phi, k, items, rows: False)
    g = random_bounded_degree(400, 3, 1)
    build_sample_set(g, DisjointFamilyInput(tuple(range(g.n)), 0))
    assert seen["dead"] and seen["search"], seen


# The extraction as it stood before window-first refutation, prefix sweeps,
# shared refinement caches and the single-entry row scan: the whole input
# is decided first, every _make_homogeneous call starts a fresh cache, and
# a single entry is decided by _decide and refined by _majority.

def _majority(colors: list[bool]) -> bool:
    trues = sum(colors)
    falses = len(colors) - trues
    if trues != falses:
        return trues > falses
    return colors[0]


def _reference_decide(ctx, phi, entries, items, alive0, rows):
    masks = _entry_rows(ctx, phi, entries, items, rows)
    if _first_truth(masks, alive0):
        return True, _false_search(masks, alive0) is None
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
        ctx = EvalContext(complement(ctx.graph), 1)
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


def test_single_entry_refinement_matches_reference():
    # one row scan against _decide plus _majority: majority ties both
    # ways, no alive witness, and rows true or false at every item; a
    # constant row returns the items list itself
    rng = random.Random(7)
    star = Graph.from_edges(7, [(0, v) for v in range(1, 4)])
    graphs = [star, clique(6), edgeless(6),
              *(random_bounded_degree(8, d, seed)
                for d in (1, 2, 3) for seed in range(4))]
    seen = {"tie True": 0, "tie False": 0, "majority": 0, "no witness": 0,
            "all true": 0, "all false": 0}
    for g in graphs:
        full = g.full_mask()
        for ctx, phi, pool in ((edge_ctx(g), EDGE, list(range(g.n))),
                               (EvalContext(g, ball_radius=1),
                                (eq_atom(0),), list(range(1, g.n)))):
            for pattern in enumerate_type_patterns(len(phi), 1):
                entries = pattern.entries
                for _ in range(50):
                    items = rng.sample(pool, rng.randint(1, len(pool)))
                    for alive0 in (0, full, rng.randrange(full + 1)):
                        got = _make_homogeneous(ctx, phi, entries, items,
                                                alive0, {})
                        want = _reference_homogeneous(ctx, phi, entries,
                                                      items, alive0)
                        assert got == want
                        assert (got[0] is items) == (want[0] is items)
                        truths = [bool(alive0 & entry_mask(ctx, phi,
                                                           entries[0], y))
                                  for y in items]
                        if not alive0:
                            seen["no witness"] += 1
                        elif all(truths):
                            seen["all true"] += 1
                        elif not any(truths):
                            seen["all false"] += 1
                        elif 2 * sum(truths) == len(truths):
                            seen[f"tie {truths[0]}"] += 1
                        else:
                            seen["majority"] += 1
    assert min(seen.values()) > 20, seen


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
    # the whole input is decided before the shortfall check: with a target
    # above the window, an indiscernible input is still returned whole,
    # and an indiscernible crop of a discernible input falls short with no
    # blocking pattern
    cfg = ExtractionConfig(target_length=11, window=10)
    got = _assert_extraction_matches_reference(edge_ctx(edgeless(12)), EDGE,
                                               PATS3, items, cfg)
    assert got == ("ok", items)
    got = _assert_extraction_matches_reference(ctx, EDGE, PATS3, items, cfg)
    assert got == ("short", items[:10], None)


@pytest.mark.parametrize("seed", [1, 2])
def test_crop_refutation_skips_the_full_check(monkeypatch, seed):
    # a level-0 build over 400 vertices extracts from its 399 survivors;
    # the crop refutes it, so no decision ever sees more than the window;
    # and no pattern is decided twice on one cache
    seen: list[int] = []
    extracted: list[int] = []
    caches: list[dict] = []  # held so that no cache's id is reused
    decided: set = set()
    repeats = 0

    def recording_decide(ctx, phi, entries, items, alive0, rows):
        nonlocal repeats
        seen.append(len(items))
        caches.append(rows)
        key = (id(rows), entries, alive0)
        repeats += key in decided
        decided.add(key)
        return _decide(ctx, phi, entries, items, alive0, rows)

    def recording_extract(ctx, phi, patterns, items, cfg):
        extracted.append(len(items))
        return extract_indiscernible(ctx, phi, patterns, items, cfg)

    monkeypatch.setattr(indiscernibles, "_decide", recording_decide)
    monkeypatch.setattr(sampleset, "extract_indiscernible", recording_extract)
    g = random_bounded_degree(400, 3, seed)
    build_sample_set(g, DisjointFamilyInput(tuple(range(g.n)), 0))
    assert max(extracted) > DEFAULT_WINDOW
    assert seen and max(seen) <= DEFAULT_WINDOW
    assert repeats == 0


def _type_rows(ctx, phi, items):
    """Each vertex's Φ-type at each item, one atom at a time."""
    return [[tuple(eval_atom(ctx, a, z, y) for a in phi) for y in items]
            for z in range(ctx.graph.n)]


def _first_varying_length(ctx, phi, patterns, items, longest=4):
    """The shortest length, up to ``longest``, at which some type pattern
    or some pattern of ``patterns`` takes both truths over the increasing
    tuples of ``items``; None when there is none. A tuple's realised type
    tuples decide every type pattern at once: each one holds exactly on
    the tuples that realise it."""
    rows = _type_rows(ctx, phi, items)
    for length in range(1, min(longest, len(items)) + 1):
        realised = [{tuple(row[i] for i in combo) for row in rows}
                    for combo in combinations(range(len(items)), length)]
        if any(r != realised[0] for r in realised):
            return length
        for pattern in patterns:
            if len(pattern) == length and len({
                    any(all(t in e for t, e in zip(tup, pattern.entries))
                        for tup in r) for r in realised}) > 1:
                return length
    return None


def _changes_at_most_once(ctx, phi, items):
    return all(len(items) < 3
               or any(sum(t != u for u in row) <= 1 for t in row)
               for row in _type_rows(ctx, phi, items))


def _check_table_by_enumeration(ctx, phi, patterns, items, outcomes):
    """Run the table at every k from 1 to 4: a yes must hold by
    enumeration, and when every vertex changes type once at most, a no
    must be a pattern that varies."""
    first = _first_varying_length(ctx, phi, patterns, items)
    exact = _changes_at_most_once(ctx, phi, items)
    for k in range(1, 5):
        got = indiscernibles._decided_by_exceptions(ctx, phi, k, items, {})
        if got:
            assert first is None or first > k, (items, k)
        elif exact:
            assert first is not None and first <= k, (items, k)
        outcomes[got] += 1


def _one_change_kinds(s):
    """The item sets a vertex may be adjacent to when it changes edge
    type at one of s items at most: all of them, all but one, or one."""
    return ([frozenset(range(s))]
            + [frozenset(range(s)) - {p} for p in range(s)]
            + [frozenset((p,)) for p in range(s)])


def _one_change_graph(s, picked):
    """s pairwise non-adjacent items 0..s-1, then one witness per picked
    item set, adjacent to exactly those items."""
    return Graph.from_edges(s + len(picked), [
        (s + w, p) for w, kind in enumerate(picked) for p in kind])


def _table_case(data):
    """A small graph from a stable or a non-stable family, with edge,
    dist or eq atoms, and a sequence of 1 to 10 of its vertices; or the
    items of a one-change graph under the edge atom."""
    if data.draw(st.integers(0, 2)) == 0:
        s = data.draw(st.integers(3, 5))
        picked = [kind for kind in _one_change_kinds(s)
                  if data.draw(st.booleans())]
        return edge_ctx(_one_change_graph(s, picked)), EDGE, list(range(s))
    make = data.draw(st.sampled_from([
        lambda m: half_graph(m), lambda m: subdivided_clique(2 + m % 3),
        lambda m: random_bounded_degree(2 * m + 2, 1 + m % 3, m),
        lambda m: complement(random_bounded_degree(2 * m + 2, 2, m)),
        lambda m: clique(m + 1), lambda m: edgeless(m + 1),
        lambda m: matching(m), lambda m: star_forest(2, m)]))
    g = make(data.draw(st.integers(1, 5)))
    kind = data.draw(st.sampled_from(["edge", "dist", "edge+dist", "eq"]))
    radius = data.draw(st.integers(1, 2))
    if kind == "eq":
        consts = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1,
                                    max_size=2, unique=True))
        ctx = EvalContext(g, radius)
        phi = tuple(map(eq_atom, consts))
    else:
        ctx = EvalContext(g, radius)
        phi = {"edge": EDGE, "dist": (dist_atom(),),
               "edge+dist": (edge_atom(), dist_atom())}[kind]
    size = data.draw(st.sampled_from([1, 2, 3]) | st.integers(4, 10))
    items = data.draw(st.permutations(range(g.n)))[:size]
    return ctx, phi, items


def test_exception_table_yes_matches_enumeration():
    # the items the extraction hands the table (the crop, each
    # refinement's survivors, and an input longer than the window) and
    # every prefix of the input are checked against enumeration at
    # k = 1..4, with type patterns or patterns with union entries
    outcomes = {True: 0, False: 0}
    whole = 0
    decided = indiscernibles._decided_by_exceptions

    @given(st.data())
    @settings(max_examples=400, deadline=None, database=None)
    def check(data):
        nonlocal whole
        ctx, phi, items = _table_case(data)
        k = data.draw(st.integers(1, 4))
        if data.draw(st.booleans()):
            patterns = enumerate_type_patterns(len(phi), k)
        else:
            entry = st.lists(st.sampled_from(all_phi_types(len(phi))),
                             min_size=1, unique=True).map(frozenset)
            patterns = [Pattern(data.draw(st.lists(entry, min_size=length,
                                                   max_size=length)))
                        for length in range(1, k + 1)]
        window = data.draw(st.integers(1, len(items)) | st.none())
        seen = []

        def recording(ctx, phi, k, seq, rows):
            seen.append(list(seq))
            return decided(ctx, phi, k, seq, rows)

        with patch.object(indiscernibles, "_decided_by_exceptions",
                          recording):
            extract_indiscernible(ctx, phi, patterns, items,
                                  ExtractionConfig(target_length=1,
                                                   window=window))
        whole += items in seen[1:] and len(items[:window]) < len(items)
        for end in range(1, len(items) + 1):
            seen.append(items[:end])
        for seq in seen:
            _check_table_by_enumeration(ctx, phi, patterns, seq, outcomes)

    check()
    assert min(outcomes.values()) > 500 and whole > 50, (outcomes, whole)


@pytest.mark.parametrize("s", [4, 5])
def test_exception_table_is_exact_on_one_change_structures(s):
    # every one-change graph over s items: every vertex changes type once
    # at most, so the table must agree with enumeration both ways, for
    # every choice of witness kinds and every k
    kinds = _one_change_kinds(s)
    outcomes = {True: 0, False: 0}
    for chosen in range(1 << len(kinds)):
        picked = [kind for i, kind in enumerate(kinds) if chosen >> i & 1]
        _check_table_by_enumeration(edge_ctx(_one_change_graph(s, picked)),
                                    EDGE, (), list(range(s)), outcomes)
    assert min(outcomes.values()) > 100, outcomes


# The exception table as it stood before the saturating counters: each
# type's all-but-one list over its row, the union of those lists for the
# witnesses with one change at most, and excl[p] & ~row[p] for the
# witnesses that change type at p.

def _all_but_one(row):
    """Per position i, the AND of ``row`` over every position but i, from
    one prefix and one suffix intersection (-1, every bit, when the row
    has a single position)."""
    pre = list(accumulate(row, and_, initial=-1))
    suf = list(accumulate(reversed(row), and_, initial=-1))
    suf.reverse()
    return list(map(and_, pre, suf[1:]))


def _reference_table(by_type, k, full):
    s = len(by_type[0])
    k = min(k, s - 1)
    if k < 1:
        return True
    if not all(all(row) or not any(row) for row in by_type):
        return False
    if k == 1:
        return True
    excls = list(map(_all_but_one, by_type))
    if reduce(or_, chain.from_iterable(excls)) != full:
        return False
    table = {}
    positions = range(s)
    for t, (row, excl) in enumerate(zip(by_type, excls)):
        moved = list(map(and_, excl, map(invert, row)))
        changes = s - moved.count(0)
        if not changes:
            continue
        if not excl[0] & row[0] and changes <= k:
            return False
        for u, other in enumerate(by_type):
            if u != t:
                at = sum(map((1).__lshift__,
                             compress(positions, map(and_, moved, other))))
                if at:
                    table[t, u] = at
    last = (1 << s) - 1
    for a, b in {*table, *((b, a) for a, b in table)}:
        second, first = table.get((a, b), 0), table.get((b, a), 0)
        free = ~first & last >> 1
        lo = (free & -free).bit_length() - 1
        if ((second >> 1 or first & last >> 1)
                and free and (~second & last) >> lo + 1):
            return False
    if k >= 3:
        span = (1 << s - 2) - 1
        for at in table.values():
            for place in range(3):
                if at & span << place not in (0, span << place):
                    return False
    return True


def test_counter_table_matches_all_but_one_table():
    # random type rows over s items, s <= k included: each witness has a
    # main type and changes it to another witness's main type at a few
    # positions, mostly once at most, so that rows reach every rule of
    # the table and not only the two-changes test
    deep = {True: 0, False: 0}

    @given(st.data())
    @settings(max_examples=300, deadline=None, database=None)
    def check(data):
        n = data.draw(st.integers(1, 10))
        types = 2 ** data.draw(st.integers(1, 3))
        s = data.draw(st.integers(1, 8))
        k = data.draw(st.integers(1, 5))
        main = data.draw(st.lists(st.integers(0, types - 1), min_size=n,
                                  max_size=n))
        seq = [[t] * s for t in main]
        for z in range(n):
            for _ in range(data.draw(st.sampled_from((0, 1, 1, 2)))):
                seq[z][data.draw(st.integers(0, s - 1))] = data.draw(
                    st.sampled_from(main))
        by_type = [[sum(1 << z for z in range(n) if seq[z][p] == t)
                    for p in range(s)] for t in range(types)]
        full = (1 << n) - 1
        got = indiscernibles._table_decides(by_type, k, full)
        assert got == _reference_table(by_type, k, full)
        # past the length-1 rule, where the counters are read
        if min(k, s - 1) >= 2 and _reference_table(by_type, 1, full):
            deep[got] += 1

    check()
    assert min(deep.values()) > 10, deep


def test_eq_extraction_outputs_are_pinned():
    # extract_indiscernible under eq atoms over 1 to 4 constants, up to 16
    # type rows, on seeded bounded-degree graphs and on cliques, with and
    # without the window: however the rows and the exception table are
    # built, these outputs stay as they are
    h = hashlib.sha256()
    graphs = [random_bounded_degree(n, 3, seed)
              for n, seed in ((60, 1), (120, 2), (200, 3))]
    graphs += [clique(30), clique(70)]
    for index, g in enumerate(graphs):
        rng = random.Random(index)
        for count in range(1, 5):
            consts = rng.sample(range(g.n), count)
            phi = tuple(map(eq_atom, consts))
            for alpha, k in ((1, 3 if count < 4 else 2), (2, 2)):
                ctx = EvalContext(g, alpha)
                items = list(range(g.n))
                rng.shuffle(items)
                for window in (DEFAULT_WINDOW, None):
                    try:
                        out = ["ok", extract_indiscernible(
                            ctx, phi, enumerate_type_patterns(count, k),
                            items, ExtractionConfig(4, window))]
                    except ExtractionShortfall as err:
                        blocking = err.blocking_pattern
                        out = ["short", err.achieved,
                               blocking and [sorted(e)
                                             for e in blocking.entries]]
                    h.update(json.dumps(out).encode())
    assert h.hexdigest() == (
        "e12ff306b394cd927d47357effab4da1d98944726b502c5fd796f8db6b218c47")
