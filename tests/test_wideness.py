"""Level-by-level flip construction and its verifier.

The frozen table below pins buildable set sizes and flip counts per
family and radius; verify_flip_wide re-derives every claim from the
original graph, so a frozen row plus a verify call cross-checks both
directions.
"""

import hashlib
import json
import random
import time
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flipwide import (
    BudgetExceeded,
    FlipWideRequest,
    FlipWideResult,
    InputError,
    InternalInvariantError,
    SampleBudget,
    alternation_rank,
    exception_rank,
    flip_widen,
    verify_flip_wide,
)
from flipwide import wideness
from flipwide.cli import main
from flipwide.graphcore import (
    Flip,
    Graph,
    apply_flips,
    ball_mask,
    distances_from,
    exact_distance_layer,
    format_edge_list,
    iter_bits,
)
from flipwide.generators import (
    clique,
    complement,
    edgeless,
    grid,
    half_graph,
    matching,
    path,
    power,
    random_bounded_degree,
    star_forest,
    subdivided_clique,
)
from flipwide.sampleset import build_sample_set, verify_sample_set
from flipwide.wideness import (
    _even_level_flips,
    _odd_level_flips,
    _xor_accumulate,
)


def widen(g, r, m=8, **kw):
    req = FlipWideRequest(g, tuple(range(g.n)), r, m, **kw)
    res = flip_widen(req)
    ok, pair = verify_flip_wide(g, res, r)
    assert ok, pair
    assert res.verified
    return res


FAMS = {
    "clique50": lambda: clique(50),
    "star12x6": lambda: star_forest(12, 6),
    "matching40": lambda: matching(40),
    "co_path40": lambda: complement(path(40)),
    "rbd60": lambda: random_bounded_degree(60, 3, 17),
}

# family -> {r: (|b_set|, flip count, shortfall at target 8)}
TABLE = {
    "clique50": {1: (49, 1, False), 2: (48, 2, False),
                 3: (48, 2, False), 4: (48, 2, False)},
    "star12x6": {r: (11, 0, False) for r in (1, 2, 3, 4)},
    "matching40": {r: (23, 0, False) for r in (1, 2, 3, 4)},
    "co_path40": {1: (11, 1, False), 2: (10, 2, False),
                  3: (1, 5, True), 4: (1, 5, True)},
    "rbd60": {1: (10, 0, False), 2: (10, 0, False),
              3: (0, 0, True), 4: (0, 0, True)},
}


@pytest.mark.parametrize("fam", sorted(FAMS))
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_family_table(fam, r):
    res = widen(FAMS[fam](), r)
    size, nflips, sf = TABLE[fam][r]
    assert len(res.b_set) == size
    assert len(res.flip_set) == nflips
    assert res.shortfall == sf
    assert res.radius == r


def test_clique_sets_frozen():
    assert widen(clique(50), 1).b_set == tuple(range(1, 50))
    assert widen(clique(50), 2).b_set == tuple(range(2, 50))


def test_matching_set_frozen():
    res = widen(matching(40), 3)
    assert res.b_set == tuple(range(2, 46, 2)) + (47,)


def test_co_path_flip_frozen():
    res = widen(complement(path(40)), 1)
    members = (4, 7, 10, 13, 16, 19, 22, 25, 28, 31, 36)
    assert res.b_set == members
    assert res.flip_set == (Flip(members, members),)


def test_flip_count_plateau():
    # the construction never reads the target size, so the flip set is
    # the same whatever buildable size is requested
    for g in (clique(50), complement(path(40))):
        for r in (2, 3):
            flips = {m: widen(g, r, m).flip_set for m in (4, 8, 16)}
            assert flips[4] == flips[8] == flips[16]


def test_trace_shape():
    g = complement(path(40))
    res = widen(g, 4)
    # the single survivor after level 3 ends the loop before level 4
    assert tuple(t.parity for t in res.trace) == (
        "base", "even", "odd", "even")
    assert [t.level for t in res.trace] == [0, 1, 2, 3]
    assert res.trace[0].surviving == tuple(range(40))
    assert res.trace[0].samples == () and res.trace[0].flips_added == ()
    assert tuple(sorted(res.trace[-1].surviving)) == res.b_set
    # survivors only shrink
    sizes = [len(t.surviving) for t in res.trace]
    assert sizes == sorted(sizes, reverse=True)


def test_independent_input_runs_no_level():
    res = flip_widen(FlipWideRequest(edgeless(3), (0, 1, 2), 50, 3))
    assert res.b_set == (0, 1, 2) and res.flip_set == ()
    assert len(res.trace) == 1
    assert res.verified and not res.shortfall


def test_huge_radius_stops_once_survivors_are_apart():
    # the loop ends when no survivor reaches another, long before the
    # radius; without the early stop it would run 10**20 levels
    g = clique(10)
    started = time.perf_counter()
    res = flip_widen(FlipWideRequest(g, tuple(range(10)), 10**20, 1))
    assert time.perf_counter() - started < 10
    assert res.b_set == tuple(range(2, 10))
    assert len(res.flip_set) == 2 and len(res.trace) == 3
    assert verify_flip_wide(g, res, 10**20) == (True, None)


def test_verify_rejects_repeated_b_set_ids():
    g = Graph.from_edges(3, [(0, 1)])
    res = FlipWideResult((1, 1), (), 1, (), True, False)
    with pytest.raises(InputError, match="b_set must be pairwise distinct"):
        verify_flip_wide(g, res, 1)


def test_radius_zero():
    g = clique(10)
    res = flip_widen(FlipWideRequest(g, (3, 1, 2), 0, 3))
    assert res.b_set == (1, 2, 3)
    assert res.flip_set == ()
    assert len(res.trace) == 1
    assert res.verified and not res.shortfall
    ok, _ = verify_flip_wide(g, res, 0)
    assert ok


def test_verify_catches_dropped_flip():
    import dataclasses

    g = clique(50)
    res = widen(g, 2)
    bad = dataclasses.replace(res, flip_set=res.flip_set[:1])
    ok, pair = verify_flip_wide(g, bad, 2)
    assert not ok and pair is not None
    u, v = pair
    assert u in bad.b_set and v in bad.b_set


def test_verify_measures_in_fresh_graph():
    g = clique(50)
    res = widen(g, 2)
    flipped = apply_flips(g, res.flip_set)
    # sanity: the claim really is about the flipped graph, not g
    ok_orig, _ = verify_flip_wide(flipped, res, 2)
    assert not ok_orig


def test_request_validation():
    g = clique(5)
    with pytest.raises(InputError, match="radius"):
        FlipWideRequest(g, (0,), -1, 1)
    with pytest.raises(InputError, match="target size"):
        FlipWideRequest(g, (0,), 1, 0)
    with pytest.raises(InputError, match="distinct"):
        FlipWideRequest(g, (0, 0), 1, 1)
    with pytest.raises(InputError):
        FlipWideRequest(g, (9,), 1, 1)


@pytest.mark.parametrize("ids, named", [
    ((5, 500, -1), 500),
    ((5, -1, 500), -1),
    ((9, 10), 10),
])
def test_range_errors_name_the_first_vertex_out_of_range(ids, named):
    # the request and the verifier name the first id out of range in the
    # order given, not the lowest
    g = clique(10)
    message = rf"^vertex {named} out of range for n=10$"
    with pytest.raises(InputError, match=message):
        FlipWideRequest(g, ids, 1, 1)
    with pytest.raises(InputError, match=message):
        verify_flip_wide(g, FlipWideResult(ids, (), 1, (), True, False), 1)


def test_budget_error_carries_level_state():
    g = complement(path(40))
    req = FlipWideRequest(g, tuple(range(g.n)), 2, 1,
                          budget=SampleBudget(max_pattern_length=9))
    with pytest.raises(BudgetExceeded) as exc:
        flip_widen(req)
    assert str(exc.value).startswith("level 1:")
    partial = exc.value.partial
    assert partial["level"] == 1 and len(partial["trace"]) == 2
    assert partial["build"] == ((0, 4), (7, 10, 13, 16, 19, 22, 25, 28,
                                         31, 36))
    assert "monadically stable" in exc.value.diagnostic


_NO_CANDIDATE = ("level 0: no vertex is inequivalent to the samples over "
                 "all but two balls")
_NOT_STABLE = "class likely not monadically stable at these budgets"


def test_no_candidate_sample_carries_level_state():
    g = subdivided_clique(12)
    with pytest.raises(BudgetExceeded,
                       match=r"^level 0: no vertex is inequivalent to the "
                             r"samples over all but two balls$") as exc:
        flip_widen(FlipWideRequest(g, tuple(range(g.n)), 1, 1))
    partial = exc.value.partial
    assert partial["level"] == 0 and partial["flips"] == ()
    assert len(partial["trace"]) == 1
    assert partial["build"] == ((0,), tuple(range(1, 12)))
    assert exc.value.diagnostic == _NOT_STABLE


def test_half_graph_stop_names_level():
    # with samples 0 and 37 some vertex still has no single-sample
    # certificate, and no vertex qualifies as a third sample
    g = half_graph(20)
    with pytest.raises(BudgetExceeded) as exc:
        flip_widen(FlipWideRequest(g, tuple(range(g.n)), 1, 4))
    assert str(exc.value) == _NO_CANDIDATE
    assert exc.value.partial["level"] == 0
    assert exc.value.partial["build"] == ((0, 37), tuple(range(1, 18)))
    assert exc.value.diagnostic == _NOT_STABLE


def test_xor_accumulate():
    a = Flip((0, 1), (2,))
    b = Flip((3,), (4,))
    acc = [a]
    _xor_accumulate(acc, [b])
    assert acc == [a, b]
    _xor_accumulate(acc, [a])
    assert acc == [b]
    # a mirror image is a different flip even though it acts identically
    _xor_accumulate(acc, [b.mirror()])
    assert acc == [b, b.mirror()]


def test_dropped_even_level_flips_fail_the_level_check(monkeypatch):
    monkeypatch.setattr(wideness, "_even_level_flips", lambda *args: [])
    with pytest.raises(InternalInvariantError, match="level 0 left vertices"):
        widen(clique(20), 1)


def test_dropped_odd_level_flips_name_the_level_pair(monkeypatch):
    monkeypatch.setattr(wideness, "_odd_level_flips", lambda *args: [])
    g = complement(random_bounded_degree(60, 3, 1))
    with pytest.raises(InternalInvariantError,
                       match=r"level 1 left vertices \(2, 3\) within "
                             r"distance 2"):
        flip_widen(FlipWideRequest(g, tuple(range(g.n)), 4, 1))


def test_dropped_accumulated_flip_fails_the_level_check(monkeypatch):
    def drop_last(acc, fresh):
        _xor_accumulate(acc, fresh[:-1])

    monkeypatch.setattr(wideness, "_xor_accumulate", drop_last)
    with pytest.raises(InternalInvariantError,
                       match=r"level 0 left vertices \(1, 2\) within "
                             r"distance 1"):
        widen(clique(20), 1)


# ------------------------ level flips against pair scan and distance list

def _pairwise_even_level_flips(g, nxt, samples, s_of, i):
    """The even-level construction as a scan over every pair of layer
    vertices, with explicit anchors and colours."""
    layer = sorted(exact_distance_layer(g, nxt, i))
    if not layer or not samples:
        return []
    anchor = {}
    for a in nxt:
        reach = ball_mask(g, a, i)
        for x in layer:
            if reach >> x & 1:
                if x in anchor:
                    raise InternalInvariantError(f"{x} has two anchors")
                anchor[x] = a
    width = len(samples)

    def related(c1, c2):
        return bool(c2[1] >> (width - 1 - c1[0]) & 1)

    colors = {x: (s_of[x], sum(1 << (width - 1 - j)
                               for j, s in enumerate(samples)
                               if g.adj(x, s)))
              for x in layer}
    groups = {}
    for x in layer:
        groups.setdefault(colors[x], []).append(x)
    for idx, x in enumerate(layer):
        for y in layer[idx + 1:]:
            if not g.adj(x, y) or anchor[x] == anchor[y]:
                continue
            if not (related(colors[x], colors[y])
                    and related(colors[y], colors[x])):
                raise InternalInvariantError(f"{x}, {y} are asymmetric")
    ordered = sorted(groups)
    return [Flip(groups[c1], groups[c2])
            for idx, c1 in enumerate(ordered) for c2 in ordered[idx:]
            if related(c1, c2)]


def _distance_list_odd_level_flips(g, nxt, samples, s_of, i):
    """The odd-level construction from a per-vertex distance list and one
    pass over the vertices per sample."""
    dist = distances_from(g, nxt)
    flips = []
    for j, s in enumerate(samples):
        far = [a for a in range(g.n) if s_of[a] == j and dist[a] >= i + 1]
        near = [v for v in iter_bits(g.rows[s]) if dist[v] == i]
        if far and near:
            flips.append(Flip(far, near))
    return flips


def _outcome(build, *args):
    try:
        return build(*args)
    except InternalInvariantError:
        return "invariant"


@st.composite
def level_inputs(draw, max_i=1):
    n = draw(st.integers(2, 10))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex)
                          .filter(lambda e: e[0] != e[1]), max_size=3 * n))
    nxt = draw(st.lists(vertex, min_size=1, max_size=n // 2, unique=True))
    samples = draw(st.lists(vertex, min_size=1, max_size=3, unique=True))
    s_of = draw(st.lists(st.integers(0, len(samples) - 1),
                         min_size=n, max_size=n))
    # radius 2 leaves the even layer empty on most graphs this small
    i = draw(st.integers(0, max_i))
    return Graph.from_edges(n, edges), tuple(nxt), tuple(samples), s_of, i


# a path 0-1-2-3 centred on 0 and 3; vertex 1's sample 4 sees vertex 2,
# but vertex 2's sample 5 does not see vertex 1
ASYMMETRIC = (Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (2, 4)]),
              (0, 3), (4, 5), [0, 0, 1, 0, 0, 0], 1)
# the layer vertex 1 lies in the radius-1 balls of both 0 and 2
OVERLAPPING = (Graph.from_edges(3, [(0, 1), (1, 2)]), (0, 2), (0,),
               [0, 0, 0], 1)


# at i = 0 the layer is the anchors 0 and 1 themselves, adjacent, and
# vertex 0's sample 2 does not see vertex 1
STRAY_AT_0 = (Graph.from_edges(3, [(0, 1)]), (0, 1), (2,), [0, 0, 0], 0)


@given(level_inputs())
@settings(max_examples=300)
@example(ASYMMETRIC)
@example(OVERLAPPING)
@example(STRAY_AT_0)
def test_even_level_flips_match_pair_scan(args):
    assert _outcome(_even_level_flips, *args) == _outcome(
        _pairwise_even_level_flips, *args)


@pytest.mark.parametrize("args, message", [
    (ASYMMETRIC, "vertices 2, 1 with distinct anchors have asymmetric"),
    (OVERLAPPING, "vertex 1 in the distance-1 layer has a second anchor 2"),
    (STRAY_AT_0, "adjacent layer vertices 0, 1 with distinct anchors have "
                 "asymmetric color relation"),
])
def test_even_level_flips_name_the_failure(args, message):
    with pytest.raises(InternalInvariantError, match=message):
        _even_level_flips(*args)


@given(level_inputs(max_i=3))
@settings(max_examples=300)
def test_odd_level_flips_match_distance_list(args):
    assert _odd_level_flips(*args) == _distance_list_odd_level_flips(*args)


# ------------------------------------------ every level against the oracles

@st.composite
def stable_cases(draw):
    kind = draw(st.sampled_from(["sparse", "complement", "path", "grid"]))
    if kind == "path":
        g = path(draw(st.integers(12, 80)))
    elif kind == "grid":
        g = grid(draw(st.integers(3, 8)), draw(st.integers(4, 10)))
    else:
        g = random_bounded_degree(draw(st.integers(12, 80)),
                                  draw(st.integers(1, 4)),
                                  draw(st.integers(0, 2**16)))
        if kind == "complement":
            g = complement(g)
    return g, draw(st.integers(1, 4))


def _widen_checking_levels(g, r):
    """``flip_widen`` on A = V with target 1, and each level's sample-set
    build, every one checked by ``verify_sample_set``."""
    levels = []

    def recording(graph, inp, budget):
        built = build_sample_set(graph, inp, budget)
        levels.append((graph, inp, built))
        return built

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wideness, "build_sample_set", recording)
        res = flip_widen(FlipWideRequest(g, tuple(range(g.n)), r, 1))
    for level, (graph, inp, built) in enumerate(levels):
        ok, why = verify_sample_set(graph, inp, built)
        assert ok, f"level {level}: {why}"
    return res, levels


@given(stable_cases())
@settings(max_examples=40, deadline=None)
@example((complement(random_bounded_degree(60, 3, 1)), 4))
@example((grid(8, 10), 3))
@example((random_bounded_degree(75, 4, 4338), 3))
def test_every_level_passes_the_independent_oracles(case):
    """Each level's sample set passes ``verify_sample_set``, which
    re-derives every certificate from ``phi_equivalent_over`` alone, and
    the level-0 sequence has the ranks the paper predicts for a stable
    class: alternation rank at most 2 and exception rank at most 1."""
    g, r = case
    _, levels = _widen_checking_levels(g, r)
    if levels:
        survivors = levels[0][2].subseq
        assert alternation_rank(g, survivors)[0] <= 2
        assert exception_rank(g, survivors)[0] <= 1


# ---------------------------------------------------- short-sequence stops

# Bounded-degree graphs whose level-2 build once stopped: one sample, five
# or fewer surviving balls, and every free vertex equivalent to the sample
# over three of them or more. The at-most-two rule rests on the paper's
# first theorem, which holds over long sequences only, so on fewer than
# 2 * max_pattern_length balls the build takes the vertex equivalent over
# the fewest.
SHORT_SEQUENCE_STOPS = [((75, 4, 4338), 3), ((75, 4, 38), 3),
                        ((75, 4, 38), 4), ((100, 4, 22), 3),
                        ((100, 4, 22), 4), ((71, 4, 57163), 4)]


@pytest.mark.parametrize("args, r", SHORT_SEQUENCE_STOPS,
                         ids=[f"{n}-{d}-{seed}-r{r}"
                              for (n, d, seed), r in SHORT_SEQUENCE_STOPS])
def test_short_sequences_end_with_a_verified_result(args, r):
    g = random_bounded_degree(*args)
    res, levels = _widen_checking_levels(g, r)
    ok, pair = verify_flip_wide(g, res, r)
    assert ok and res.verified, pair
    assert len(levels) >= 3


# The seeded soak: every bounded-degree input of these sizes, and the
# sparse families beside them, ends with a result the verifier accepts.
# About 2,900 runs in all, a little under 5 s on one core of a loaded
# 2-core host.
def _unverified(graphs) -> list[tuple[str, int]]:
    """The (label, r) pairs, r = 1..4, whose result the verifier rejects."""
    bad = []
    for label, g in graphs:
        for r in (1, 2, 3, 4):
            res = flip_widen(FlipWideRequest(g, tuple(range(g.n)), r, 1))
            if not (res.verified and verify_flip_wide(g, res, r)[0]):
                bad.append((label, r))
    return bad


@pytest.mark.parametrize("n", [40, 60, 75, 100])
def test_seeded_soak_ends_verified(n):
    assert _unverified((f"rbd({n}, {d}, {seed})",
                        random_bounded_degree(n, d, seed))
                       for d in (2, 3, 4) for seed in range(60)) == []


def test_sparse_families_and_complements_end_verified():
    graphs = [(f"path({n})", path(n)) for n in (40, 75, 100)]
    graphs += [(f"grid{shape}", grid(*shape))
               for shape in ((5, 8), (8, 10), (10, 10))]
    graphs += [(f"matching({n})", matching(n)) for n in (20, 50)]
    graphs += [(f"co-rbd({n}, {d}, {seed})",
                complement(random_bounded_degree(n, d, seed)))
               for n in (40, 60) for d in (2, 3, 4) for seed in (0, 1)]
    assert _unverified(graphs) == []


# Inputs outside the stable classes still stop, when no vertex qualifies
# as the next sample. The short-sequence pick above never applies to the
# 11 surviving balls of subdivided_clique(12) at r=1, whose stop
# test_no_candidate_sample_carries_level_state and the CLI tests pin, nor
# to the 37 and 18 surviving balls of these two.
@pytest.mark.parametrize("g, r, build", [
    (half_graph(40), 2, ((0, 77), tuple(range(1, 38)))),
    (power(path(60), 20), 2, ((0, 39), tuple(range(1, 19)))),
], ids=["half_graph40", "power_path60_20"])
def test_non_stable_inputs_still_stop(g, r, build, tmp_path, capsys):
    with pytest.raises(BudgetExceeded) as exc:
        flip_widen(FlipWideRequest(g, tuple(range(g.n)), r, 1))
    assert str(exc.value) == _NO_CANDIDATE
    assert exc.value.partial["build"] == build
    assert exc.value.diagnostic == _NOT_STABLE
    graph_file = tmp_path / "g.edges"
    graph_file.write_text(format_edge_list(g))
    got = main(["flip-widen", "-g", str(graph_file), "-A", "all", "-r",
                str(r), "-m", "1"])
    cap = capsys.readouterr()
    assert got == 3 and cap.out == ""
    assert cap.err.splitlines() == [f"budget: {_NO_CANDIDATE}",
                                    f"diagnostic: {_NOT_STABLE}"]


@pytest.mark.parametrize("g", [half_graph(10), power(path(20), 10)],
                         ids=["half_graph10", "power_path20_10"])
def test_split_only_inputs_pick_a_third_sample(g):
    # with samples 0 and 17 some vertex has only a split certificate (one
    # sample before its exceptional ball, another after it); the build
    # picks a third sample instead of stopping, and the level ends with
    # every ball dropped and no flips
    res = flip_widen(FlipWideRequest(g, tuple(range(g.n)), 1, 1))
    assert [t.samples for t in res.trace] == [(), (0, 17, 1)]
    assert res.b_set == () and res.flip_set == () and res.shortfall
    assert verify_flip_wide(g, res, 1) == (True, None)


def _results_digest(cases) -> str:
    """sha256 over each result's b_set, flips and trace, as JSON."""
    h = hashlib.sha256()
    for g, r, seed, budget in cases:
        a_set = list(range(g.n))
        random.Random(seed).shuffle(a_set)
        res = flip_widen(FlipWideRequest(g, tuple(a_set), r, 1, budget))
        h.update(json.dumps([res.b_set, [asdict(f) for f in res.flip_set],
                             [asdict(t) for t in res.trace]]).encode())
    return h.hexdigest()


def test_benchmark_sized_results_are_pinned():
    # flip_widen at the sizes the benchmark runs: bounded-degree graphs
    # and their complements, A in a seeded order, under the default window
    # and with no window, where the refinement runs over rows of up to 400
    # items
    cases = [(random_bounded_degree(n, 3, seed), r, seed, SampleBudget())
             for n, seed in ((150, 11), (225, 12), (300, 13), (400, 14))
             for r in (2, 4)]
    cases += [(complement(random_bounded_degree(n, 3, seed)), r, seed,
               SampleBudget())
              for n, seed in ((60, 21), (80, 22), (100, 23)) for r in (2, 4)
              if n <= 80 or r == 2]
    whole = SampleBudget(window=None)
    cases += [(random_bounded_degree(400, 3, 1), 4, 1, whole),
              (random_bounded_degree(300, 3, 2), 2, 2, whole),
              (complement(random_bounded_degree(100, 3, 3)), 2, 3, whole)]
    assert _results_digest(cases) == (
        "0ef4fd0269f1cc976984367b9bad7a7c5685ccd047a83d6be1ed0891c0b3e97f")


def test_homogeneous_results_are_pinned():
    # flip_widen on cliques and edgeless graphs at the benchmark's (n, r)
    # pairs, A in a seeded order: the constancy check, the certificates
    # of every vertex and the independence checks, over rows narrower and
    # wider than one 64-bit word
    pairs = ((48, 1), (48, 2), (48, 4), (52, 1), (56, 2), (60, 1), (64, 1),
             (68, 2), (72, 1))
    cases = [(family(n), r, n * 10 + r, SampleBudget())
             for family in (clique, edgeless) for n, r in pairs]
    assert _results_digest(cases) == (
        "82f45669d57d734fd92d511eb6aec0a607d5c80a47bbe43fbbe2ade29e744f24")
