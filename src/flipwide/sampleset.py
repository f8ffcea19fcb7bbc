"""Sample-set construction for center sequences with disjoint balls.

Given centers whose radius-i balls are pairwise disjoint, the loop finds a
small sample set S and a surviving subsequence I such that every vertex of
the graph is edge-equivalent to one sample over every ball of I but at
most one, its exceptional position.

Index convention: the exceptional index is 0-based; the sentinel value
len(I) means no position is exceptional and one sample covers every ball.

A build keeps one ``EvalContext``: the center balls are its dist_leq row,
and each round's formulas are one eq atom per sample vertex, so each
(sample, center) mask is computed once per build. Each round works on one
class table, read as one row per sample over the surviving balls: entry i
of sample p's row, the sample's eq-atom row, is the mask of all vertices
equivalent to the sample over ball i, which the extraction has already
memoised. At half radius 0 each mask is read off the ball vertex's
adjacency row; at larger radii ``graphcore.eq_class_mask`` computes it
in O(|ball|) mask operations. Saturating bitset counters over each row
(the vertices inequivalent to the sample over at least one, and at least
two, balls) give every vertex's certificate at once; a vertex without
one makes the build pick another sample. The pick reads every vertex's
count of balls over which it is equivalent to some sample, bit-sliced
(``graphcore._bit_planes``), by threshold.
``decompose_exceptional`` is the per-vertex definition of the weaker split
certificate (one sample before the exceptional position, another after
it), which the build does not read.
``verify_sample_set`` re-checks a result with ``phi_equivalent_over``
alone, so the verifier does not depend on the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .errors import BudgetExceeded, InputError
from .formulas import (
    PATTERN_CAP,
    EvalContext,
    _atom_row,
    dist_atom,
    enumerate_type_patterns,
    eq_atom,
)
from .graphcore import (
    Graph,
    _at_least,
    _bit_planes,
    ball_mask,
    iter_bits,
    mask_of,
    phi_equivalent_over,
)
from .indiscernibles import DEFAULT_WINDOW, ExtractionConfig, extract_indiscernible

_NOT_STABLE = "class likely not monadically stable at these budgets"


@dataclass(frozen=True)
class DisjointFamilyInput:
    centers: tuple[int, ...]
    half_radius: int

    def __post_init__(self):
        if self.half_radius < 0:
            raise InputError(
                f"half radius must be nonnegative, got {self.half_radius}")
        if len(set(self.centers)) != len(self.centers):
            raise InputError("centers must be pairwise distinct")


@dataclass(frozen=True)
class SampleBudget:
    """The settings of ``build_sample_set``: type patterns of length
    1..``max_pattern_length`` for the indiscernibility check, and the
    extraction ``window`` (None for no crop). ``PATTERN_CAP`` bounds the
    number of samples: at most 4 when the pattern length is 4. A
    sequence of fewer than twice ``max_pattern_length`` balls is short,
    and its sample pick may take a vertex over more than two balls. Both
    stops, the cap and no candidate sample, raise ``BudgetExceeded``."""

    max_pattern_length: int = 4
    window: int | None = DEFAULT_WINDOW

    def __post_init__(self):
        if self.max_pattern_length < 1:
            raise InputError("max_pattern_length must be positive")
        if self.window is not None and self.window < 1:
            raise InputError(f"window must be >= 1 or None, got {self.window}")


@dataclass(frozen=True)
class SampleSetResult:
    """Samples, surviving subsequence, and per-vertex certificates.

    ex[a] is the exceptional ball position for vertex a (len(subseq) when
    none). s_of[a] indexes into samples and covers every ball but ex[a];
    it is None only when there are no samples at all.
    """

    samples: tuple[int, ...]
    subseq: tuple[int, ...]
    ex: tuple[int, ...]
    s_of: tuple[int | None, ...]


# The build does not read it: only the tests call it, and the benchmark's
# tracer still names it as a span.
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


def _certificates(full: int, cols: list[list[int]],
                  count: int) -> list[tuple[int, int]] | None:
    """Every vertex's certificate (e, p), for all vertices at once.

    ``cols[p]`` is sample p's row of the class table over the ``count``
    balls. Saturating counters over that row (``once``, ``twice``) hold
    the vertices inequivalent to the sample over at least one and at
    least two balls, so a vertex has a single-sample certificate exactly
    when it lies outside some sample's ``twice``. A vertex gets the
    sentinel from the lowest sample it is never inequivalent to, else
    the lowest sample p with exactly one bad ball e. None when some
    vertex has no single-sample certificate, so the build picks another
    sample.
    """
    counters = []
    cover = 0
    for row in cols:
        once = twice = 0
        for m in row:
            bad = full ^ m
            twice |= once & bad
            once |= bad
        counters.append((once, twice))
        cover |= full ^ twice
    if cover != full:
        return None

    # Every vertex starts at the sentinel with sample 0, so only the
    # vertices of a later sample or with a bad ball are written.
    n = full.bit_length()
    e_of = [count] * n
    p_of = [0] * n
    left = full
    for p, (once, _) in enumerate(counters):
        hit = left & ~once
        left ^= hit
        if p:
            for v in iter_bits(hit):
                p_of[v] = p
    for p, (row, (once, twice)) in enumerate(zip(cols, counters)):
        hit = left & once & ~twice
        if not hit:
            continue
        left ^= hit
        if p:
            for v in iter_bits(hit):
                p_of[v] = p
        for e, m in enumerate(row):
            bad = hit & ~m
            while bad:
                low = bad & -bad
                e_of[low.bit_length() - 1] = e
                bad ^= low
    return list(zip(e_of, p_of))


def _pick_sample(full: int, cols: list[list[int]], marked: int,
                 short: bool) -> tuple[int | None, list[int]]:
    """Lowest unmarked vertex equivalent to some sample over at most two
    balls, with those balls; (None, []) when there is none.

    The bound of two rests on the paper's first theorem, which holds over
    long sequences only, so on a ``short`` sequence, when no vertex meets
    it, the lowest unmarked vertex at the smallest count is taken. Each
    vertex's count of balls over which it is equivalent to some sample
    is bit-sliced over the per-ball union of the sample rows, and the
    bound is one threshold on it, raised one ball at a time when short.
    """
    hits = [reduce(or_, ms) for ms in zip(*cols)]
    planes = _bit_planes(hits)
    free = full & ~marked
    for bound in range(2, max(len(hits), 2) + 1 if short else 3):
        low = free & ~_at_least(planes, bound + 1, full)
        if low:
            pick = (low & -low).bit_length() - 1
            return pick, [i for i, h in enumerate(hits) if h >> pick & 1]
    return None, []


def _check_disjoint(centers, balls: list[int], radius: int) -> None:
    """Raise ``InputError`` naming the first center whose ball (aligned
    in ``balls``) meets an earlier one, and that one."""
    seen = 0
    for c, ball in zip(centers, balls):
        if seen & ball:
            other = next(c2 for c2, b2 in zip(centers, balls)
                         if c2 != c and b2 & ball)
            raise InputError(
                f"radius-{radius} balls of centers {other} and {c} overlap")
        seen |= ball


def build_sample_set(
    g: Graph,
    inp: DisjointFamilyInput,
    budget: SampleBudget = SampleBudget(),
) -> SampleSetResult:
    """The construction loop: mark samples, re-extract, test, grow.

    Each round marks the current samples as constants, extracts an
    indiscernible subsequence of the survivors under the equivalence
    formulas (extraction target 1, ``budget.window`` crop, type patterns
    up to ``budget.max_pattern_length``), and stops once every vertex of
    the graph has a single-sample certificate. Any other round adds the
    lowest unmarked vertex that is equivalent to some sample over at most
    two surviving balls (on a short sequence, fewer than twice
    ``budget.max_pattern_length`` balls, over the fewest when none is),
    then drops those outlier balls plus the ball holding the new sample.
    Every round returns, raises or adds a sample, and the samples are the
    formulas of the patterns, so ``PATTERN_CAP`` bounds the rounds: at
    pattern length 4 a build stops at its 5th sample.

    Both stops, no candidate sample and too many patterns, raise
    ``BudgetExceeded`` with the partial (samples, survivors) state; at
    that point the input sequence behaves like a family that is not
    monadically stable.
    """
    ctx = EvalContext(g, inp.half_radius)
    ball = dist_atom()
    _check_disjoint(inp.centers, _atom_row(ctx, ball, inp.centers),
                    inp.half_radius)
    n = g.n
    if not inp.centers:
        return SampleSetResult((), (), (0,) * n, (None,) * n)
    cfg = ExtractionConfig(target_length=1, window=budget.window)

    full = g.full_mask()
    samples: list[int] = []
    survivors = list(inp.centers)
    while True:
        # The class table, one row per sample: cols[p][i] holds every
        # vertex equivalent to samples[p] over the ball of survivors[i],
        # the sample's eq-atom row, which the extraction has memoised.
        cols: list[list[int]] = [[] for _ in samples]
        if samples and survivors:
            phi = tuple(map(eq_atom, samples))
            try:
                patterns = enumerate_type_patterns(len(samples),
                                                   budget.max_pattern_length)
            except BudgetExceeded as exc:
                raise BudgetExceeded(
                    f"type patterns over {len(samples)} samples up to length "
                    f"{budget.max_pattern_length} exceed the cap of "
                    f"{PATTERN_CAP}",
                    partial=(tuple(samples), tuple(survivors)),
                    diagnostic=_NOT_STABLE) from exc
            survivors = extract_indiscernible(ctx, phi, patterns, survivors,
                                              cfg)
            cols = [_atom_row(ctx, a, survivors) for a in phi]

        # Termination is tested before any length floor: with zero or one
        # surviving ball every vertex decomposes, so a heavily pruned
        # sequence ends the loop with a short honest result, not an error.
        # Without samples no vertex has a certificate, so round 0 picks.
        certs = (_certificates(full, cols, len(survivors))
                 if samples else None)
        if certs is not None:
            ex, s_of = zip(*certs)
            return SampleSetResult(tuple(samples), tuple(survivors), ex, s_of)

        pick, outliers = _pick_sample(
            full, cols, mask_of(samples),
            len(survivors) < 2 * budget.max_pattern_length)
        if pick is None:
            raise BudgetExceeded(
                "no vertex is inequivalent to the samples over all but two "
                "balls", partial=(tuple(samples), tuple(survivors)),
                diagnostic=_NOT_STABLE)
        drop = set(outliers)
        drop.update(i for i, b in enumerate(_atom_row(ctx, ball, survivors))
                    if b >> pick & 1)
        survivors = [c for i, c in enumerate(survivors) if i not in drop]
        samples.append(pick)


def verify_sample_set(
    g: Graph, inp: DisjointFamilyInput, result: SampleSetResult,
) -> tuple[bool, str | None]:
    """Re-check every promise of a result by direct evaluation.

    Covers: subsequence shape, ball disjointness, samples in range and
    clear of all balls, pairwise sample inequivalence over each ball, the
    containment rule, and each vertex's equivalence to its sample over
    every ball but its exceptional one. Returns (False, description) on
    the first failure.
    """
    sub = result.subseq
    it = iter(inp.centers)
    if not all(c in it for c in sub):
        return False, "subsequence is not an ordered subsequence of the centers"
    try:
        balls = [ball_mask(g, c, inp.half_radius) for c in sub]
        _check_disjoint(sub, balls, inp.half_radius)
    except InputError as exc:
        return False, str(exc)
    count = len(balls)

    for s in result.samples:
        if not 0 <= s < g.n:
            return False, f"sample {s} out of range for n={g.n}"
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

    if not (len(result.ex) == len(result.s_of) == g.n):
        return False, "certificate tables do not cover every vertex"
    for a in range(g.n):
        e = result.ex[a]
        if not 0 <= e <= count:
            return False, f"vertex {a} has exceptional index {e} out of range"
        for i, ball in enumerate(balls):
            if ball >> a & 1 and e != i:
                return False, (f"vertex {a} lies in ball {i} but has "
                               f"exceptional index {e}")
        p = result.s_of[a]
        rest = [i for i in range(count) if i != e]
        if rest and (p is None or not 0 <= p < len(result.samples)):
            return False, f"vertex {a} lacks a valid sample"
        for i in rest:
            if not phi_equivalent_over(g, a, result.samples[p], balls[i]):
                return False, (f"vertex {a} is not equivalent to sample "
                               f"{p} over ball {i}")
    return True, None
