"""Sample-set construction for center sequences with disjoint balls.

Given centers whose radius-i balls are pairwise disjoint, the loop finds a
small sample set S and a surviving subsequence I such that every vertex of
the graph is edge-equivalent to one sample over every ball of I before
some exceptional position, and to one sample after it. Stable mode
additionally requires a single sample covering both sides.

Index convention: the exceptional index is 0-based; the sentinel value
len(I) means no position is exceptional and one sample covers every ball.

Each round works on one class table: for every surviving ball and sample,
``graphcore.eq_class_mask`` gives the mask of all vertices equivalent to
the sample over the ball, in O(|ball|) mask operations. Prefix and suffix
intersections of that table yield every vertex's certificate at once,
and saturating bitset counters pick the next sample. The center balls are
computed once per build; survivors reuse them, and so does each round's
``EvalContext`` for its equivalence formulas. ``decompose_exceptional``
and ``phi_equivalent_over`` stay the per-vertex definitions, and
``verify_sample_set`` uses only those, so the verifier does not depend on
the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, ExtractionShortfall, InputError, ModeError
from .formulas import EvalContext, enumerate_type_patterns, eq_atom
from .graphcore import (
    Graph,
    ball_mask,
    eq_class_mask,
    iter_bits,
    mask_of,
    phi_equivalent_over,
)
from .indiscernibles import ExtractionConfig, extract_indiscernible

_NOT_NIP = "class likely not monadically NIP at these budgets"


@dataclass(frozen=True)
class DisjointFamilyInput:
    centers: tuple[int, ...]
    half_radius: int
    mode: str = "nip"

    def __post_init__(self):
        if self.half_radius < 0:
            raise InputError(
                f"half radius must be nonnegative, got {self.half_radius}")
        if self.mode not in ("nip", "stable"):
            raise InputError(f"mode must be 'nip' or 'stable', got {self.mode!r}")
        if len(set(self.centers)) != len(self.centers):
            raise InputError("centers must be pairwise distinct")


@dataclass(frozen=True)
class SampleBudget:
    max_samples: int = 8
    max_rounds: int = 8
    min_surviving_length: int = 1

    def __post_init__(self):
        for name in ("max_samples", "max_rounds", "min_surviving_length"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be positive")


@dataclass(frozen=True)
class SampleSetResult:
    """Samples, surviving subsequence, and per-vertex certificates.

    ex[a] is the exceptional ball position for vertex a (len(subseq) when
    none). s_lt[a] / s_gt[a] index into samples and cover the balls before
    and after ex[a]; both are None only when there are no samples at all.
    """

    samples: tuple[int, ...]
    subseq: tuple[int, ...]
    ex: tuple[int, ...]
    s_lt: tuple[int | None, ...]
    s_gt: tuple[int | None, ...]
    mode: str


def decompose_exceptional(
    g: Graph, samples: tuple[int, ...], balls: list[int], a: int,
) -> tuple[int, int, int] | None:
    """Split the ball list around one exceptional position for vertex a.

    Returns (e, p, q): a is equivalent to samples[p] over every ball
    before position e and to samples[q] over every ball after it. A
    vertex covered by one sample everywhere gets the sentinel
    e = len(balls) with p = q; otherwise the smallest workable e wins,
    with the lowest sample indices. None when no split exists.
    """
    if not samples:
        return None
    full = (1 << len(samples)) - 1
    eq_sets = []
    for ball in balls:
        m = 0
        for p, s in enumerate(samples):
            if phi_equivalent_over(g, a, s, ball):
                m |= 1 << p
        eq_sets.append(m)
    tot = full
    for m in eq_sets:
        tot &= m
    if tot:
        p = (tot & -tot).bit_length() - 1
        return len(balls), p, p
    count = len(balls)
    prefix = [full] * (count + 1)
    for e in range(1, count + 1):
        prefix[e] = prefix[e - 1] & eq_sets[e - 1]
    suffix = [full] * (count + 1)
    for e in range(count - 1, -1, -1):
        suffix[e] = suffix[e + 1] & eq_sets[e]
    for e in range(count):
        before = prefix[e]
        after = suffix[e + 1]
        if before and after:
            p = (before & -before).bit_length() - 1
            q = (after & -after).bit_length() - 1
            return e, p, q
    return None


def _stable_certificate(
    g: Graph, samples: tuple[int, ...], balls: list[int], a: int,
) -> tuple[int, int, int] | None:
    """Single-sample certificate: equivalent over all balls but at most one."""
    for p, s in enumerate(samples):
        bad = [i for i, ball in enumerate(balls)
               if not phi_equivalent_over(g, a, s, ball)]
        if not bad:
            return len(balls), p, p
        if len(bad) == 1:
            return bad[0], p, p
    return None


def _class_table(g: Graph, samples: tuple[int, ...],
                 balls: list[int]) -> list[list[int]]:
    """table[i][p]: every vertex equivalent to samples[p] over balls[i]."""
    return [[eq_class_mask(g, s, ball) for s in samples] for ball in balls]


def _certificates(full: int, table: list[list[int]], nsamples: int,
                  ) -> list[tuple[int, int, int]] | None:
    """Every vertex's decompose_exceptional certificate, for all at once.

    Prefix and suffix intersections of the class table give, per sample,
    the vertices equivalent to it over every ball before (after) each
    position. A vertex takes the sentinel from the lowest sample covering
    all balls, else the smallest split position with the lowest samples
    on both sides. None as soon as some vertex has no certificate.
    """
    count = len(table)
    prefix = [[full] * nsamples]
    for row in table:
        prefix.append([a & m for a, m in zip(prefix[-1], row)])
    suffix = [[full] * nsamples]
    for row in reversed(table):
        suffix.append([a & m for a, m in zip(suffix[-1], row)])
    suffix.reverse()

    def union(masks: list[int]) -> int:
        out = 0
        for m in masks:
            out |= m
        return out

    splits = []
    covered = union(prefix[count])
    for e in range(count):
        both = union(prefix[e]) & union(suffix[e + 1]) & ~covered
        splits.append(both)
        covered |= both
    if covered != full:
        return None

    def lowest(vertices: int, masks: list[int], out: list[int]) -> None:
        for p, m in enumerate(masks):
            hit = vertices & m
            for v in iter_bits(hit):
                out[v] = p
            vertices ^= hit

    n = full.bit_length()
    e_of = [count] * n
    p_of = [0] * n
    lowest(union(prefix[count]), prefix[count], p_of)
    q_of = p_of[:]
    for e, both in enumerate(splits):
        if both:
            lowest(both, prefix[e], p_of)
            lowest(both, suffix[e + 1], q_of)
            for v in iter_bits(both):
                e_of[v] = e
    return list(zip(e_of, p_of, q_of))


def _pick_sample(full: int, table: list[list[int]], marked: int,
                 ) -> tuple[int | None, list[int]]:
    """Lowest unmarked vertex equivalent to some sample over at most two
    balls, with those balls; (None, []) when there is none.

    Saturating bitset counters (at least one, two, three balls) count
    every vertex's equivalent balls at once.
    """
    hits = []
    once = twice = thrice = 0
    for row in table:
        h = 0
        for m in row:
            h |= m
        hits.append(h)
        thrice |= twice & h
        twice |= once & h
        once |= h
    free = full & ~thrice & ~marked
    if not free:
        return None, []
    pick = (free & -free).bit_length() - 1
    return pick, [i for i, h in enumerate(hits) if h >> pick & 1]


def _check_disjoint(g: Graph, centers, radius: int) -> list[int]:
    balls = [ball_mask(g, c, radius) for c in centers]
    seen = 0
    for c, ball in zip(centers, balls):
        if seen & ball:
            other = next(c2 for c2, b2 in zip(centers, balls)
                         if c2 != c and b2 & ball)
            raise InputError(
                f"radius-{radius} balls of centers {other} and {c} overlap")
        seen |= ball
    return balls


def build_sample_set(
    g: Graph,
    inp: DisjointFamilyInput,
    budget: SampleBudget = SampleBudget(),
    cfg: ExtractionConfig | None = None,
) -> SampleSetResult:
    """The construction loop: mark samples, re-extract, test, grow.

    Each round marks the current samples as constants, extracts an
    indiscernible subsequence of the survivors under the equivalence
    formulas, and stops once every vertex of the graph decomposes. A
    failing round adds the lowest unmarked vertex that is inequivalent
    to every sample over all but at most two surviving balls, then drops
    those outlier balls plus the ball holding the new sample.

    Budget exhaustion raises with the partial (samples, survivors) state;
    at that point the input sequence behaves like a non-NIP family.
    """
    for c in inp.centers:
        g.check_vertex(c)
    ball_of = dict(zip(inp.centers,
                       _check_disjoint(g, inp.centers, inp.half_radius)))
    n = g.n
    if not inp.centers:
        return SampleSetResult((), (), (0,) * n, (None,) * n, (None,) * n,
                               inp.mode)
    if cfg is None:
        cfg = ExtractionConfig(target_length=budget.min_surviving_length)

    full = g.full_mask()
    samples: list[int] = []
    survivors = list(inp.centers)
    for _ in range(budget.max_rounds):
        if samples and len(survivors) >= cfg.target_length:
            ctx = EvalContext(g, tuple(samples), inp.half_radius,
                              balls=ball_of)
            phi = tuple(eq_atom(j) for j in range(len(samples)))
            patterns = enumerate_type_patterns(
                len(samples), cfg.max_pattern_length, cfg.pattern_cap)
            try:
                survivors = extract_indiscernible(ctx, phi, patterns,
                                                  survivors, cfg)
            except ExtractionShortfall as exc:
                raise BudgetExceeded(
                    f"extraction stalled at length {len(exc.achieved)}",
                    partial=(tuple(samples), tuple(exc.achieved)),
                    diagnostic=_NOT_NIP) from exc

        # Termination is tested before any length floor: with zero or one
        # surviving ball every vertex decomposes, so a heavily pruned
        # sequence ends the loop with a short honest result, not an error.
        balls = [ball_of[c] for c in survivors]
        sample_tuple = tuple(samples)
        table = _class_table(g, sample_tuple, balls)
        certs = _certificates(full, table, len(samples))
        if certs is not None:
            return _assemble(g, inp, sample_tuple, survivors, balls, certs)

        pick, outliers = _pick_sample(full, table, mask_of(samples))
        if pick is None:
            raise BudgetExceeded(
                "no vertex is inequivalent to the samples over all but two "
                "balls", partial=(tuple(samples), tuple(survivors)),
                diagnostic=_NOT_NIP)
        if len(samples) + 1 > budget.max_samples:
            raise BudgetExceeded(
                f"sample budget of {budget.max_samples} exhausted",
                partial=(tuple(samples), tuple(survivors)),
                diagnostic=_NOT_NIP)
        drop = set(outliers)
        drop.update(i for i, ball in enumerate(balls) if ball >> pick & 1)
        survivors = [c for i, c in enumerate(survivors) if i not in drop]
        samples.append(pick)
    raise BudgetExceeded(
        f"round budget of {budget.max_rounds} exhausted",
        partial=(tuple(samples), tuple(survivors)), diagnostic=_NOT_NIP)


def _assemble(g, inp, samples, survivors, balls, certs) -> SampleSetResult:
    ex = []
    s_lt = []
    s_gt = []
    for a in range(g.n):
        e, p, q = certs[a]
        if inp.mode == "stable" and p != q:
            redo = _stable_certificate(g, samples, balls, a)
            if redo is None:
                raise ModeError(
                    f"vertex {a} has no single-sample certificate; the "
                    f"sequence is not stable within these budgets")
            e, p, q = redo
        ex.append(e)
        s_lt.append(p)
        s_gt.append(q)
    return SampleSetResult(samples, tuple(survivors), tuple(ex),
                           tuple(s_lt), tuple(s_gt), inp.mode)


def verify_sample_set(
    g: Graph, inp: DisjointFamilyInput, result: SampleSetResult,
) -> tuple[bool, str | None]:
    """Re-check every promise of a result by direct evaluation.

    Covers: subsequence shape, ball disjointness, samples clear of all
    balls, pairwise sample inequivalence over each ball, the per-vertex
    before/after equivalences, the containment rule, and (stable mode)
    sample agreement. Returns (False, description) on the first failure.
    """
    sub = result.subseq
    it = iter(inp.centers)
    if not all(c in it for c in sub):
        return False, "subsequence is not an ordered subsequence of the centers"
    try:
        balls = _check_disjoint(g, sub, inp.half_radius)
    except InputError as exc:
        return False, str(exc)
    count = len(balls)

    union = 0
    for ball in balls:
        union |= ball
    for s in result.samples:
        if union >> s & 1:
            return False, f"sample {s} lies inside a surviving ball"
    for i, p in enumerate(result.samples):
        for q in result.samples[i + 1:]:
            for pos, ball in enumerate(balls):
                if phi_equivalent_over(g, p, q, ball):
                    return False, (f"samples {p} and {q} are equivalent over "
                                   f"ball {pos}")

    if not (len(result.ex) == len(result.s_lt) == len(result.s_gt) == g.n):
        return False, "certificate tables do not cover every vertex"
    for a in range(g.n):
        e = result.ex[a]
        if not 0 <= e <= count:
            return False, f"vertex {a} has exceptional index {e} out of range"
        p, q = result.s_lt[a], result.s_gt[a]
        if result.mode == "stable" and p != q:
            return False, f"vertex {a} has split samples {p}/{q} in stable mode"
        if e > 0:
            if p is None or not 0 <= p < len(result.samples):
                return False, f"vertex {a} lacks a valid before-sample"
            for i in range(e):
                if not phi_equivalent_over(g, a, result.samples[p], balls[i]):
                    return False, (f"vertex {a} is not equivalent to sample "
                                   f"{p} over ball {i}")
        if e < count - 1:
            if q is None or not 0 <= q < len(result.samples):
                return False, f"vertex {a} lacks a valid after-sample"
        for i in range(e + 1, count):
            if not phi_equivalent_over(g, a, result.samples[q], balls[i]):
                return False, (f"vertex {a} is not equivalent to sample "
                               f"{q} over ball {i}")
        for i, ball in enumerate(balls):
            if ball >> a & 1 and e != i:
                return False, (f"vertex {a} lies in ball {i} but has "
                               f"exceptional index {e}")
    return True, None
