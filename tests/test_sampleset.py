"""Sample-set construction over disjoint ball families.

Expected decompositions below are derived by hand from the ball
structure of each family (see comments), then checked against both the
builder and the independent verifier.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flipwide import (
    BudgetExceeded,
    DisjointFamilyInput,
    FlipWideRequest,
    InputError,
    SampleBudget,
    SampleSetResult,
    build_sample_set,
    flip_widen,
    phi_equivalent_over,
    verify_sample_set,
)
from flipwide import formulas, wideness
from flipwide.generators import (
    clique,
    complement,
    edgeless,
    half_graph,
    path,
    power,
    random_bounded_degree,
    shatter_gadget,
    star_forest,
    subdivided_clique,
)
from flipwide.graphcore import Graph, ball_mask, eq_class_mask
from flipwide.sampleset import (
    _certificates,
    _pick_sample,
    decompose_exceptional,
)


def build_and_verify(g, centers, hr, budget=None):
    inp = DisjointFamilyInput(tuple(centers), hr)
    res = build_sample_set(g, inp, budget or SampleBudget())
    ok, why = verify_sample_set(g, inp, res)
    assert ok, why
    return res


# ---------------------------------------------------------------- builds

def test_star_forest_build():
    # Ten disjoint stars, radius-1 balls. Every leaf of center c >= 1 is
    # inequivalent to the lone sample (center 0) only over ball c-1, the
    # ball that contains it; leaves of center 0 sit in no surviving ball
    # and get the sentinel.
    g = star_forest(10, 8)
    res = build_and_verify(g, range(10), 1)
    assert res.samples == (0,)
    assert res.subseq == tuple(range(1, 10))
    expected = [9] + list(range(9)) + [9] * 8
    for c in range(1, 10):
        expected.extend([c - 1] * 8)
    assert res.ex == tuple(expected)
    assert res.ex[:14] == (9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9, 9)
    assert set(res.s_of) == {0}


@pytest.mark.parametrize("factory,n", [(edgeless, 50), (clique, 30)])
def test_uniform_family_build(factory, n):
    # Radius-0 balls are singletons; all vertices look alike, so each
    # surviving center's only exception is its own position.
    g = factory(n)
    res = build_and_verify(g, range(n), 0)
    assert res.samples == (0,)
    assert res.subseq == tuple(range(1, n))
    assert res.ex == (n - 1,) + tuple(range(n - 1))
    assert set(res.s_of) == {0}


def test_half_graph_modes_diverge():
    # Half graphs order their vertices; two samples are needed. Vertex 8
    # has an earlier split certificate (sample 1 before ball 1, sample 0
    # after it), but its single-sample certificate takes ball 2.
    g = half_graph(6)
    res = build_and_verify(g, range(12), 0)
    assert res.samples == (0, 9)
    assert res.subseq == (1, 2, 3)
    assert res.ex == (3, 0, 1, 2, 3, 3, 3, 0, 2, 3, 3, 3)
    assert res.s_of == (0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1)
    balls = [ball_mask(g, c, 0) for c in res.subseq]
    assert decompose_exceptional(g, res.samples, balls, 8) == (1, 1, 0)


def test_containment_rule_direct():
    g = star_forest(10, 8)
    inp = DisjointFamilyInput(tuple(range(10)), 1)
    res = build_sample_set(g, inp)
    balls = [ball_mask(g, c, 1) for c in res.subseq]
    for a in range(g.n):
        for i, ball in enumerate(balls):
            if ball >> a & 1:
                assert res.ex[a] == i


def test_empty_centers():
    g = clique(5)
    res = build_sample_set(g, DisjointFamilyInput((), 0))
    assert res.samples == () and res.subseq == ()
    assert res.ex == (0,) * 5
    assert res.s_of == (None,) * 5
    ok, why = verify_sample_set(g, DisjointFamilyInput((), 0), res)
    assert ok, why


# ------------------------------------------------------------ primitives

def test_phi_equivalent_over():
    g = Graph.from_edges(5, [(0, 2), (1, 3)])
    ball = 1 << 2
    # 0 has the edge into the ball, 1 does not
    assert not phi_equivalent_over(g, 0, 1, ball)
    # membership mismatch
    assert not phi_equivalent_over(g, 0, 2, ball)
    # edges outside the ball are invisible
    assert phi_equivalent_over(g, 0, 1, 1 << 4)
    assert phi_equivalent_over(g, 0, 0, g.full_mask())


def singleton_balls(*vs):
    return [1 << v for v in vs]


def test_decompose_no_split():
    # equivalence profile T,F,T,F against the only sample: no single
    # exceptional position can absorb two separated failures
    g = Graph.from_edges(6, [(0, 3), (0, 5)])
    assert decompose_exceptional(g, (1,), singleton_balls(2, 3, 4, 5), 0) is None


def test_decompose_smallest_exception():
    g = Graph.from_edges(5, [(0, 2)])
    assert decompose_exceptional(g, (1,), singleton_balls(2, 3, 4), 0) == (0, 0, 0)
    g = Graph.from_edges(5, [(0, 3)])
    assert decompose_exceptional(g, (1,), singleton_balls(2, 3, 4), 0) == (1, 0, 0)
    g = Graph.from_edges(5, [(0, 4)])
    assert decompose_exceptional(g, (1,), singleton_balls(2, 3, 4), 0) == (2, 0, 0)


def test_decompose_sentinel_beats_split():
    # vertex 0 matches sample 2 over every ball and sample 1 only over
    # the first; the uniform certificate wins
    g = Graph.from_edges(6, [(1, 4), (1, 5)])
    res = decompose_exceptional(g, (1, 2), singleton_balls(3, 4, 5), 0)
    assert res == (3, 1, 1)


def test_decompose_lowest_sample_wins():
    g = edgeless(5)
    assert decompose_exceptional(g, (1, 2), singleton_balls(3, 4), 0) == (2, 0, 0)


def test_decompose_degenerate():
    g = edgeless(4)
    assert decompose_exceptional(g, (), [1 << 1], 0) is None
    assert decompose_exceptional(g, (1,), [], 0) == (0, 0, 0)


def class_table(g, samples, balls):
    # one row per sample, as the build reads it: table[p][i] holds every
    # vertex equivalent to samples[p] over balls[i]
    return [[eq_class_mask(g, s, ball) for ball in balls] for s in samples]


def stable_certificate(g, samples, balls, a):
    # the per-vertex single-sample certificate: the sentinel from the
    # lowest sample equivalent to a over every ball, else the lowest
    # sample with exactly one bad ball, and that ball
    bads = [[i for i, ball in enumerate(balls)
             if not phi_equivalent_over(g, a, s, ball)] for s in samples]
    for p, bad in enumerate(bads):
        if not bad:
            return len(balls), p
    for p, bad in enumerate(bads):
        if len(bad) == 1:
            return bad[0], p
    return None


def test_decompose_split_needs_two_samples():
    # 0 agrees with 1 on the first two balls and with 2 on the last two;
    # the earliest workable exception absorbs ball 1
    g = Graph.from_edges(7, [(0, 5), (2, 5), (0, 6), (2, 6), (2, 3), (2, 4)])
    balls = singleton_balls(3, 4, 5, 6)
    assert decompose_exceptional(g, (1, 2), balls, 0) == (1, 0, 1)
    # ... but no single sample covers all-but-one ball
    assert stable_certificate(g, (1, 2), balls, 0) is None


def test_stable_certificate_one_bad_ball():
    g = Graph.from_edges(5, [(0, 3)])
    assert stable_certificate(g, (1,), singleton_balls(2, 3, 4), 0) == (1, 0)
    g = edgeless(5)
    assert stable_certificate(g, (1,), singleton_balls(2, 3, 4), 0) == (3, 0)


# ------------------------------------------- vertex-parallel differentials

@st.composite
def graph_samples_balls(draw):
    """A small random graph, distinct samples, and pairwise disjoint
    vertex sets as balls: radius-0/1 balls around greedily chosen
    centers, or the classes of a random labelling."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.lists(st.booleans(), min_size=len(pairs),
                           max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, keep in zip(pairs, picked) if keep])
    samples = tuple(draw(st.lists(st.integers(0, n - 1), unique=True,
                                  max_size=4)))
    balls = []
    if draw(st.booleans()):
        radius = draw(st.integers(0, 1))
        seen = 0
        for c in draw(st.permutations(range(n))):
            b = ball_mask(g, c, radius)
            if not b & seen:
                balls.append(b)
                seen |= b
    else:
        labels = draw(st.lists(st.integers(-1, 5), min_size=n, max_size=n))
        for k in range(6):
            b = sum(1 << v for v, lab in enumerate(labels) if lab == k)
            if b:
                balls.append(b)
    return g, samples, balls[:draw(st.integers(0, len(balls)))]


def pick_by_vertex(g, samples, balls, short):
    # the per-vertex picker loop the bit-sliced counts replace: the lowest
    # unmarked vertex equivalent to some sample over at most two balls,
    # and on a short sequence, when there is none, the lowest at the
    # fewest such balls
    hits = {v: [i for i, ball in enumerate(balls)
                if any(phi_equivalent_over(g, v, s, ball) for s in samples)]
            for v in range(g.n) if v not in samples}
    for v, out in hits.items():
        if len(out) <= 2:
            return v, out
    if short and hits:
        v = min(hits, key=lambda v: len(hits[v]))
        return v, hits[v]
    return None, []


@given(graph_samples_balls())
@example((Graph.from_edges(10, [(0, 4), (1, 4), (1, 9)]), (0, 1, 2, 4),
          singleton_balls(0, 1)))
@example((Graph.from_edges(10, [(0, 3), (0, 6), (1, 6), (3, 4)]), (1, 3, 4),
          singleton_balls(0, 1, 2, 3)))
@example((Graph.from_edges(5, [(0, 1), (2, 3)]), (1, 3), []))
def test_stable_certificates_match_per_vertex_reference(case):
    # the reference: None when some vertex has no single-sample
    # certificate, else every vertex's. In the first example vertex 9's
    # split certificate uses two samples, and samples 1 and 3 each miss it
    # on one ball (1 and 0): the lower sample wins; vertex 2 misses sample
    # 0 on ball 0 but sample 2 on none, so the sentinel wins. In the second
    # every vertex has a split certificate, vertices 2 and 6 no
    # single-sample one. In the third samples are present but no ball
    # survives, so every vertex takes the sentinel with sample 0.
    g, samples, balls = case
    want = [stable_certificate(g, samples, balls, a) for a in range(g.n)]
    got = _certificates(g.full_mask(), class_table(g, samples, balls),
                        len(balls))
    assert got == (None if None in want else want)


@pytest.mark.parametrize("survivors", [0, 1, 400])
def test_no_certificates_without_samples(survivors):
    # build_sample_set skips the certificates in its sample-free round 0:
    # with no sample no vertex decomposes, however many balls survive
    for n in (1, 2, 400):
        assert _certificates((1 << n) - 1, [], survivors) is None


def check_pick(case, short):
    g, samples, balls = case
    marked = sum(1 << s for s in samples)
    got = _pick_sample(g.full_mask(), class_table(g, samples, balls),
                       marked, short)
    assert got == pick_by_vertex(g, samples, balls, short)


@given(graph_samples_balls())
@example((Graph.from_edges(5, [(0, 1), (2, 3)]), (1, 3), []))
@example((edgeless(6), (1,), singleton_balls(2, 3, 4, 5)))
def test_sample_pick_matches_per_vertex_loop(case):
    # the long-sequence pick; in the second example every unmarked vertex
    # is equivalent to the sample over three balls or more, so it takes none
    check_pick(case, short=False)


@given(graph_samples_balls())
@example((Graph.from_edges(5, [(0, 1), (2, 3)]), (1, 3), []))
@example((edgeless(6), (1,), singleton_balls(2, 3, 4, 5)))
def test_fewest_pick_matches_per_vertex_loop(case):
    # the short-sequence pick falls back to the unmarked vertex equivalent
    # to some sample over the fewest balls, the lowest on ties: in the
    # second example vertex 2
    check_pick(case, short=True)


@st.composite
def family_inputs(draw):
    """A small graph from a stable family or from one that is not
    monadically stable, or its complement, and centers with pairwise
    disjoint balls of half radius 0 or 1, taken greedily in vertex order
    or in a drawn one."""
    family = draw(st.sampled_from(["half_graph", "power_path",
                                   "subdivided_clique", "shatter_gadget",
                                   "random_bounded_degree"]))
    if family == "half_graph":
        g = half_graph(draw(st.integers(1, 25)))
    elif family == "power_path":
        g = power(path(draw(st.integers(2, 60))), draw(st.integers(1, 20)))
    elif family == "subdivided_clique":
        g = subdivided_clique(draw(st.integers(2, 7)))
    elif family == "shatter_gadget":
        g = shatter_gadget(draw(st.integers(1, 4)))
    else:
        g = random_bounded_degree(draw(st.integers(1, 40)),
                                  draw(st.integers(1, 4)),
                                  draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        g = complement(g)
    half = draw(st.integers(0, 1))
    centers, seen = [], 0
    order = range(g.n)
    if draw(st.booleans()):
        order = draw(st.permutations(order))
    for c in order:
        ball = ball_mask(g, c, half)
        if not ball & seen:
            centers.append(c)
            seen |= ball
    return g, DisjointFamilyInput(tuple(centers), half)


@given(family_inputs())
@example((half_graph(20), DisjointFamilyInput(tuple(range(40)), 0)))
@example((power(path(60), 20), DisjointFamilyInput(tuple(range(60)), 0)))
@settings(max_examples=60, deadline=None)
def test_build_ends_verified_or_with_a_budget_stop(case):
    # on stable and non-stable inputs alike, a build either returns a
    # result that the verifier accepts or stops with its partial state;
    # the two examples stop
    g, inp = case
    try:
        res = build_sample_set(g, inp)
    except BudgetExceeded as exc:
        samples, survivors = exc.partial
        assert all(0 <= s < g.n for s in samples)
        assert len(set(samples)) == len(samples)
        it = iter(inp.centers)
        assert all(c in it for c in survivors)
        return
    assert verify_sample_set(g, inp, res) == (True, None)


# ------------------------------------------------------------ validation

def test_input_validation():
    g = path(6)
    with pytest.raises(InputError, match="balls of centers 0 and 1 overlap"):
        build_sample_set(g, DisjointFamilyInput((0, 1), 1))
    with pytest.raises(InputError, match="pairwise distinct"):
        DisjointFamilyInput((2, 2), 0)
    with pytest.raises(InputError, match="half radius"):
        DisjointFamilyInput((0,), -1)
    # every center is range-checked before any overlap is tested
    for centers, half in (((0, 99), 0), ((0, 1, 99), 1)):
        with pytest.raises(InputError) as exc:
            build_sample_set(g, DisjointFamilyInput(centers, half))
        assert str(exc.value) == "vertex 99 out of range for n=6"
    with pytest.raises(InputError, match="max_pattern_length"):
        SampleBudget(max_pattern_length=0)
    with pytest.raises(InputError, match="window"):
        SampleBudget(window=0)


def test_budget_exhaustion_payloads():
    g = half_graph(6)
    inp = DisjointFamilyInput(tuple(range(12)), 0)
    # the pattern cap stops the build with the state it reached
    with pytest.raises(BudgetExceeded) as exc:
        build_sample_set(g, inp, SampleBudget(max_pattern_length=9))
    assert str(exc.value) == ("type patterns over 2 samples up to length 9 "
                              "exceed the cap of 100000")
    assert exc.value.partial == ((0, 9), (1, 2, 3))
    assert "monadically stable" in exc.value.diagnostic


# ---------------------------------------------------------- verification

def half_graph_result():
    g = half_graph(6)
    inp = DisjointFamilyInput(tuple(range(12)), 0)
    return g, inp, build_sample_set(g, inp)


def test_verify_rejects_shifted_exception():
    g, inp, res = half_graph_result()
    ex = list(res.ex)
    ex[2] = 3  # vertex 2 sits in ball 1, which no sample can match
    bad = dataclasses.replace(res, ex=tuple(ex))
    ok, why = verify_sample_set(g, inp, bad)
    assert not ok and "vertex 2 lies in ball 1 but has exceptional index 3" in why


def test_verify_names_a_ball_vertex_with_another_exception():
    # vertex 1 is the first survivor, so it lies in ball 0; pointing its
    # exceptional index at a later ball or at the sentinel is named by the
    # containment rule before any equivalence over a ball is checked
    g = random_bounded_degree(60, 3, 1)
    inp = DisjointFamilyInput(tuple(range(g.n)), 0)
    res = build_sample_set(g, inp)
    assert res.subseq[0] == 1 and res.ex[1] == 0
    for e in (1, len(res.subseq)):
        ex = list(res.ex)
        ex[1] = e
        bad = dataclasses.replace(res, ex=tuple(ex))
        assert verify_sample_set(g, inp, bad) == (
            False, f"vertex 1 lies in ball 0 but has exceptional index {e}")


def test_verify_rejects_non_subsequence():
    g, inp, res = half_graph_result()
    bad = dataclasses.replace(res, subseq=(2, 1, 3))
    ok, why = verify_sample_set(g, inp, bad)
    assert not ok and "ordered subsequence" in why


def test_verify_rejects_sample_in_ball():
    g, inp, res = half_graph_result()
    bad = dataclasses.replace(res, samples=(0, 1))
    ok, why = verify_sample_set(g, inp, bad)
    assert not ok and "sample 1 lies inside a surviving ball" in why


def test_verify_rejects_equivalent_samples():
    g, inp, res = half_graph_result()
    # 10 and 11 are both adjacent to every ball vertex
    bad = dataclasses.replace(res, samples=(10, 11))
    ok, why = verify_sample_set(g, inp, bad)
    assert not ok and "equivalent over ball" in why


def test_verify_rejects_wrong_side_sample():
    g, inp, res = half_graph_result()
    s_of = list(res.s_of)
    s_of[8] = 0  # vertex 8 matches sample 0 over no ball before its exception
    bad = dataclasses.replace(res, s_of=tuple(s_of))
    ok, why = verify_sample_set(g, inp, bad)
    assert not ok and "not equivalent to sample 0" in why


def test_verify_rejects_short_tables():
    g, inp, res = half_graph_result()
    bad = dataclasses.replace(res, ex=res.ex[:-1])
    ok, why = verify_sample_set(g, inp, bad)
    assert not ok and "cover every vertex" in why


def test_verify_rejects_out_of_range_exception():
    g, inp, res = half_graph_result()
    ex = list(res.ex)
    ex[0] = 7
    bad = dataclasses.replace(res, ex=tuple(ex))
    ok, why = verify_sample_set(g, inp, bad)
    assert not ok and "out of range" in why


def path_result():
    # samples (0,), subsequence (3, 6, 9); vertex 0 (exceptional index 3)
    # needs a sample for the balls before its exception and vertex 2
    # (index 0) one for the balls after it
    g = path(12)
    inp = DisjointFamilyInput((0, 3, 6, 9), 0)
    return g, inp, build_sample_set(g, inp)


@pytest.mark.parametrize("vertex,value", [(0, None), (2, 5)],
                         ids=["before-none", "after-out-of-range"])
def test_verify_rejects_missing_sample(vertex, value):
    g, inp, res = path_result()
    assert verify_sample_set(g, inp, res) == (True, None)
    s_of = list(res.s_of)
    s_of[vertex] = value
    bad = dataclasses.replace(res, s_of=tuple(s_of))
    assert verify_sample_set(g, inp, bad) == (
        False, f"vertex {vertex} lacks a valid sample")


def test_verify_rejects_overlapping_balls():
    g, _, res = path_result()
    # radius-1 balls {0, 1} and {0, 1, 2} share two vertices
    inp = DisjointFamilyInput((0, 1), 1)
    bad = dataclasses.replace(res, subseq=(0, 1))
    assert verify_sample_set(g, inp, bad) == (
        False, "radius-1 balls of centers 0 and 1 overlap")


@pytest.mark.parametrize("samples,subseq,ex", [
    ((9,), (0,), (0, 0, 0, 0, 0)),
    ((9,), (0, 4), (0, 2, 2, 2, 1)),
    ((-1,), (0,), (0, 0, 0, 0, 0)),
], ids=["past-n-accepted", "past-n-indexed", "negative"])
def test_verify_names_a_sample_out_of_range(samples, subseq, ex):
    # a sample outside 0..n-1 is named before any equivalence check: it
    # must not pass when no equivalence reads it, index past the rows, or
    # shift a mask by a negative count
    g = path(5)
    inp = DisjointFamilyInput((0, 4), 0)
    bad = SampleSetResult(samples, subseq, ex, (0,) * 5)
    assert verify_sample_set(g, inp, bad) == (
        False, f"sample {samples[0]} out of range for n=5")


def test_build_computes_each_eq_mask_once(monkeypatch):
    # a build keeps one context, so a (sample, ball) eq mask that an
    # earlier round computed is read from its memo in every later round;
    # the spy counts every (atom, y) mask the build computes, since at
    # half radius 0 no eq mask goes through ``eq_class_mask``
    made = []
    per_build = []
    real_masks = formulas._atom_masks_at
    real_build = wideness.build_sample_set

    def counting_masks(ctx, atom, ys):
        made.extend((atom, y) for y in ys)
        return real_masks(ctx, atom, ys)

    def counting_build(*args):
        made.clear()
        out = real_build(*args)
        per_build.append(list(made))
        return out

    monkeypatch.setattr(formulas, "_atom_masks_at", counting_masks)
    monkeypatch.setattr(wideness, "build_sample_set", counting_build)
    flip_widen(FlipWideRequest(clique(48), tuple(range(48)), 2, 1))
    assert any(per_build)
    assert [len(m) for m in per_build] == [len(set(m)) for m in per_build]
