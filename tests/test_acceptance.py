"""End-to-end acceptance checks, one test per numbered criterion.

Run with -v to get a visible pass/fail line per criterion. Each test
states its scope and runtime budget inline; timing asserts use wall
clock, so a pathologically slow machine fails loudly rather than
silently stretching the budget.
"""

import dataclasses
import random
import time
from itertools import combinations, combinations_with_replacement

from flipwide import (
    DisjointFamilyInput,
    EvalContext,
    ExtractionConfig,
    ExtractionShortfall,
    Flip,
    FlipWideRequest,
    SampleBudget,
    alternation_rank,
    apply_flips,
    build_sample_set,
    decompose_sequence_types,
    edge_atom,
    enumerate_type_patterns,
    eq_atom,
    extract_indiscernible,
    flip_widen,
    is_delta_indiscernible,
    is_distance_r_independent,
    order_property_witness,
    pairing_index_witness,
    shattering_witness,
    verify_flip_wide,
    verify_sample_set,
)
from flipwide.generators import (
    FAMILIES,
    clique,
    complement,
    edgeless,
    half_graph,
    matching,
    path,
    random_bounded_degree,
    shatter_gadget,
    star_forest,
    subdivided_clique,
)
from flipwide.graphcore import Graph, ball_mask


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def all_flips(n):
    subsets = [tuple(v for v in range(n) if m >> v & 1)
               for m in range(1 << n)]
    return [Flip(a, b) for a, b in combinations_with_replacement(subsets, 2)]


def test_criterion_01_flip_algebra():
    # exhaustive over all graphs with n <= 5 and all single flips:
    # involution, symmetry/irreflexivity, mirror cancellation; flip-set
    # order independence exhaustively at n <= 3 and under deterministic
    # shuffles at n = 5; budget 10 s. Symmetry and irreflexivity read
    # nothing but the flipped rows, so each distinct row tuple is checked
    # once.
    t0 = time.monotonic()
    for n in range(1, 6):
        flips = all_flips(n)
        mirrors = [f.mirror() for f in flips]
        checked = set()
        for g in all_graphs(n):
            for f, f_mirror in zip(flips, mirrors):
                g1 = apply_flips(g, [f])
                if g1.rows not in checked:
                    checked.add(g1.rows)
                    for u in range(n):
                        assert not g1.adj(u, u)
                        assert g1.rows[u] >> u & 1 == 0
                    for u, v in g1.edges():
                        assert g1.adj(v, u)
                assert apply_flips(g1, [f]) == g
                assert apply_flips(g1, [f_mirror]) == g

    for n in range(1, 4):
        flips = all_flips(n)
        for g in all_graphs(n):
            for f1, f2 in combinations_with_replacement(flips, 2):
                assert apply_flips(g, [f1, f2]) == apply_flips(g, [f2, f1])
                assert apply_flips(g, [f1, f1.mirror()]) == g

    rng = random.Random(0)
    flips5 = all_flips(5)
    graphs5 = list(all_graphs(5))
    for _ in range(300):
        g = rng.choice(graphs5)
        fs = rng.sample(flips5, k=rng.randint(2, 5))
        shuffled = fs[:]
        rng.shuffle(shuffled)
        assert apply_flips(g, fs) == apply_flips(g, shuffled)

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"flip algebra sweep took {elapsed:.1f}s"


# one representative per generator family, all within n <= 200
FAMILY_PARAMS = {
    "clique": (40,),
    "edgeless": (40,),
    "matching": (20,),
    "half_graph": (20,),
    "star_forest": (8, 4),
    "path": (40,),
    "grid": (6, 7),
    "subdivided_clique": (8,),
    "shatter_gadget": (5,),
    "random_bounded_degree": (40, 3, 5),
}


def test_criterion_02_extraction_soundness():
    # every generator family, both formula sets, k = 3, target m = 12:
    # whatever extraction returns (including a shortfall's partial
    # output) must pass the independent indiscernibility check; 0
    # tolerance, 2 min budget
    t0 = time.monotonic()
    assert set(FAMILY_PARAMS) == set(FAMILIES)
    for fam in sorted(FAMILIES):
        fn, _ = FAMILIES[fam]
        g = fn(*FAMILY_PARAMS[fam])
        assert g.n <= 200
        for phi_set in ("edge", "eq"):
            if phi_set == "edge":
                ctx = EvalContext(g)
                phi = (edge_atom(),)
            else:
                ctx = EvalContext(g, 1)
                phi = (eq_atom(0), eq_atom(1))
            patterns = enumerate_type_patterns(len(phi), 3)
            cfg = ExtractionConfig(target_length=12)
            try:
                out = extract_indiscernible(
                    ctx, phi, patterns, tuple(range(g.n)), cfg)
            except ExtractionShortfall as exc:
                out = exc.achieved
            ok, cex = is_delta_indiscernible(ctx, phi, patterns, out)
            assert ok, (fam, phi_set, cex)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"extraction sweep took {elapsed:.1f}s"


# length-20 edge-indiscernible sequences in the four tame families
TAME_SEQUENCES = {
    "clique": (clique(25), tuple(range(20))),
    "matching": (matching(25), tuple(range(0, 40, 2))),
    "star_forest": (star_forest(22, 2), tuple(range(20))),
    "co_matching": (complement(matching(25)), tuple(range(0, 40, 2))),
}


def tame_items():
    edge = (edge_atom(),)
    pats = enumerate_type_patterns(1, 3)
    for name, (g, seq) in TAME_SEQUENCES.items():
        ctx = EvalContext(g)
        ok, cex = is_delta_indiscernible(ctx, edge, pats, seq)
        assert ok, (name, cex)  # the premise: sequences are indiscernible
        yield name, g, ctx, edge, seq


def test_criterion_03_nip_alternation_and_decomposition():
    # alternation rank <= 2 and nip-mode decomposition succeeds for
    # every vertex of the graph, on all four sequences
    for name, g, ctx, edge, seq in tame_items():
        rank, _ = alternation_rank(g, seq)
        assert rank <= 2, (name, rank)
        failures = []
        for a in range(g.n):
            dec, fal = decompose_sequence_types(ctx, edge, seq, a, "nip")
            if dec is None:
                failures.append((a, fal))
        assert not failures, (name, failures[:3])


def test_criterion_04_stable_neighborhoods_and_decomposition():
    # same sequences: every vertex sees the sequence almost-never or
    # almost-always, and stable-mode decomposition succeeds everywhere
    for name, g, ctx, edge, seq in tame_items():
        imask = 0
        for v in seq:
            imask |= 1 << v
        for a in range(g.n):
            deg = (g.rows[a] & imask).bit_count()
            assert deg <= 1 or deg >= len(seq) - 1, (name, a, deg)
        failures = []
        for a in range(g.n):
            dec, fal = decompose_sequence_types(ctx, edge, seq, a, "stable")
            if dec is None:
                failures.append((a, fal))
        assert not failures, (name, failures[:3])


def test_criterion_05_sample_set_certification():
    # three disjoint families build within the 4 samples that the pattern
    # cap allows at the default pattern length 4, verify cleanly, and
    # obey the containment rule at every vertex
    cases = [
        (star_forest(10, 8), tuple(range(10)), 1),
        (edgeless(50), tuple(range(50)), 0),
        (clique(30), tuple(range(30)), 0),
    ]
    budget = SampleBudget()
    for g, centers, hr in cases:
        inp = DisjointFamilyInput(centers, hr)
        res = build_sample_set(g, inp, budget)
        assert len(res.samples) <= 4
        ok, why = verify_sample_set(g, inp, res)
        assert ok, why
        balls = [ball_mask(g, c, hr) for c in res.subseq]
        for a in range(g.n):
            for i, ball in enumerate(balls):
                if ball >> a & 1:
                    assert res.ex[a] == i, (a, i, res.ex[a])


WIDE_FAMILIES = {
    "clique50": clique(50),
    "star12x6": star_forest(12, 6),
    "matching40": matching(40),
    "co_path40": complement(path(40)),
    "rbd60": random_bounded_degree(60, 3, 17),
}


def test_criterion_06_flip_wideness_end_to_end():
    # every family x r in 1..4 x m in {4,8} must produce a verified
    # result; the flip count must not depend on m across {4,8,16}
    # (the plateau: a fixed flip budget per family and radius);
    # 5 min budget
    t0 = time.monotonic()
    for name, g in WIDE_FAMILIES.items():
        everything = tuple(range(g.n))
        for r in (1, 2, 3, 4):
            counts = {}
            for m in (4, 8, 16):
                res = flip_widen(FlipWideRequest(g, everything, r, m))
                ok, pair = verify_flip_wide(g, res, r)
                counts[m] = len(res.flip_set)
                if m in (4, 8):
                    assert res.verified and ok, (name, r, m, pair)
            assert counts[4] == counts[8] == counts[16], (name, r, counts)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"wideness sweep took {elapsed:.1f}s"


def test_criterion_07_single_flip_collapses_clique():
    # flipping (V,V) on a clique leaves nothing, so independence holds
    # for the whole vertex set at r = 10^6; independence of a set is
    # inherited by all its subsets, and a few are checked explicitly
    for n in (10, 50, 100):
        g = clique(n)
        everything = tuple(range(n))
        flipped = apply_flips(g, [Flip(everything, everything)])
        assert flipped.edge_count() == 0
        ok, _ = is_distance_r_independent(flipped, everything, 10 ** 6)
        assert ok
        rng = random.Random(n)
        subsets = [(), (0,), tuple(rng.sample(everything, n // 2))]
        for b in subsets:
            ok, _ = is_distance_r_independent(flipped, b, 10 ** 6)
            assert ok


def test_criterion_08_witness_searches():
    # three positive controls with matrix re-validation, one negative
    # control under exhaustive search; 30 s budget each
    t0 = time.monotonic()
    g = half_graph(8)
    rep = order_property_witness(g, 5)
    wit = rep.witness
    assert wit is not None
    for i, a in enumerate(wit.a_seq):
        for j, b in enumerate(wit.b_seq):
            assert g.adj(a, b) == (i <= j)
    assert time.monotonic() - t0 < 30.0

    t0 = time.monotonic()
    g = subdivided_clique(5)
    wit = pairing_index_witness(g, 4).witness
    assert wit is not None
    for (i, j), a in zip(combinations(range(4), 2), wit.a_seq):
        for l, b in enumerate(wit.b_seq):
            assert g.adj(a, b) == (l in (i, j))
    assert time.monotonic() - t0 < 30.0

    t0 = time.monotonic()
    g = shatter_gadget(3)
    wit = shattering_witness(g, 3).witness
    assert wit is not None
    for t, b in enumerate(wit.b_seq):
        trace = {v for v in wit.a_seq if g.adj(b, v)}
        assert trace == {wit.a_seq[i] for i in range(3) if t >> i & 1}
    assert time.monotonic() - t0 < 30.0

    rep = order_property_witness(clique(5), 3)
    assert rep.witness is None and rep.search == "exhaustive"


def test_criterion_09_mutation_sensitivity():
    g50 = clique(50)
    everything = tuple(range(50))

    # corrupting any single flip: dropping it, or removing one vertex
    # from every side that holds it, must flag a concrete pair
    res = flip_widen(FlipWideRequest(g50, everything, 2, 8))
    assert verify_flip_wide(g50, res, 2) == (True, None)
    for i, f in enumerate(res.flip_set):
        rest = res.flip_set[:i] + res.flip_set[i + 1:]
        ok, pair = verify_flip_wide(
            g50, dataclasses.replace(res, flip_set=rest), 2)
        assert not ok and pair is not None
        v = f.a[0]
        crippled = Flip(tuple(x for x in f.a if x != v),
                        tuple(x for x in f.b if x != v))
        ok, pair = verify_flip_wide(
            g50, dataclasses.replace(res, flip_set=rest[:i] + (crippled,)
                                     + rest[i:]), 2)
        assert not ok and pair is not None

    # corrupting any single b_set member: the radius-1 result keeps the
    # hub vertex 0 out; swapping it in for any member breaks independence
    res = flip_widen(FlipWideRequest(g50, everything, 1, 8))
    assert verify_flip_wide(g50, res, 1) == (True, None)
    for v in res.b_set:
        bad_b = tuple(sorted(set(res.b_set) - {v} | {0}))
        ok, pair = verify_flip_wide(
            g50, dataclasses.replace(res, b_set=bad_b), 1)
        assert not ok and pair is not None and 0 in pair

    # corrupting any sample certificate: pointing any vertex at the
    # other sample must produce a named violation
    hg = half_graph(6)
    inp = DisjointFamilyInput(tuple(range(12)), 0)
    sres = build_sample_set(hg, inp)
    assert verify_sample_set(hg, inp, sres) == (True, None)
    for a in range(hg.n):
        s_of = list(sres.s_of)
        s_of[a] = 1 - s_of[a]
        bad = dataclasses.replace(sres, s_of=tuple(s_of))
        ok, why = verify_sample_set(hg, inp, bad)
        assert not ok and why

    # shifting the exceptional index of any ball-covered vertex is also
    # always caught
    sf = star_forest(10, 8)
    inp = DisjointFamilyInput(tuple(range(10)), 1)
    res = build_sample_set(sf, inp)
    balls = [ball_mask(sf, c, 1) for c in res.subseq]
    covered = [a for a in range(sf.n)
               if any(b >> a & 1 for b in balls)]
    assert covered
    for a in covered:
        ex = list(res.ex)
        ex[a] = (ex[a] + 1) % (len(balls) + 1)
        ok, why = verify_sample_set(
            sf, inp, dataclasses.replace(res, ex=tuple(ex)))
        assert not ok and why
