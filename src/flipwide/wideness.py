"""Flip-wideness: spreading a vertex set to pairwise distance > r.

The induction lifts distance-r' independence to r'+1 one level at a time,
alternating two constructions. At even levels the exact-distance-i layer
around the surviving set is colored by (assigned sample, sample-adjacency
trace) and same-level edges are removed by flipping the realized color
pairs related by trace membership; a layer vertex's edges into the layer
outside its own ball must reach its sample's neighbours, and with disjoint
balls that one mask test checks the relation from both ends. At odd
levels each sample contributes one flip between its far assigned vertices
and its near neighbors.

Flips accumulate with xor cancellation, so an exact duplicate introduced
at two levels disappears from the final set without changing the result.
Each level is checked in the input graph under the flips accumulated so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from operator import and_, or_

from .errors import BudgetExceeded, InputError, InternalInvariantError
from .graphcore import (
    Flip,
    FlipSet,
    Graph,
    _bfs_levels,
    apply_flips,
    ball_mask,
    is_distance_r_independent,
    iter_bits,
    mask_of,
)
from .sampleset import DisjointFamilyInput, SampleBudget, build_sample_set


@dataclass(frozen=True)
class LevelTrace:
    level: int
    parity: str
    samples: tuple[int, ...]
    flips_added: tuple[Flip, ...]
    surviving: tuple[int, ...]


@dataclass(frozen=True)
class FlipWideRequest:
    graph: Graph
    a_set: tuple[int, ...]
    radius: int
    target_size: int
    budget: SampleBudget = field(default_factory=SampleBudget)

    def __post_init__(self):
        if self.radius < 0:
            raise InputError(f"radius must be nonnegative, got {self.radius}")
        if self.target_size < 1:
            raise InputError("target size must be positive")
        if len(set(self.a_set)) != len(self.a_set):
            raise InputError("a_set must be pairwise distinct")
        self.graph.check_vertices(self.a_set)


@dataclass(frozen=True)
class FlipWideResult:
    b_set: tuple[int, ...]
    flip_set: FlipSet
    radius: int
    trace: tuple[LevelTrace, ...]
    verified: bool
    shortfall: bool


def _stray(x: int, stray: int) -> InternalInvariantError:
    return InternalInvariantError(
        f"adjacent layer vertices {x}, {(stray & -stray).bit_length() - 1} "
        f"with distinct anchors have asymmetric color relation")


def _even_level_flips(g: Graph, nxt: tuple[int, ...], samples, s_of,
                      i: int) -> list[Flip]:
    """The even-level flips: every layer vertex, at distance exactly i
    from ``nxt`` (level i of one BFS), is colored by its sample and its
    adjacency trace to the samples.

    At i = 0 each anchor is its own layer vertex, so no vertex has two
    anchors, and the stray test is one pass over ``nxt``: x strays when
    its row meets the layer outside its sample's row."""
    levels = _bfs_levels(g, mask_of(nxt), i)
    layer = levels[i] if i < len(levels) else 0
    if not layer or not samples:
        return []
    rows = g.rows
    if i:
        members = []
        claimed = 0
        for a in nxt:
            own = ball_mask(g, a, i)
            twice = own & layer & claimed
            if twice:
                raise InternalInvariantError(
                    f"vertex {(twice & -twice).bit_length() - 1} in the "
                    f"distance-{i} layer has a second anchor {a}")
            claimed |= own
            for x in iter_bits(own & layer):
                stray = rows[x] & layer & ~own & ~rows[samples[s_of[x]]]
                if stray:
                    raise _stray(x, stray)
                members.append(x)
    else:
        free = [layer & ~rows[s] for s in samples]
        strays = list(map(and_, map(rows.__getitem__, nxt),
                          map(free.__getitem__, map(s_of.__getitem__, nxt))))
        for x, stray in compress(zip(nxt, strays), strays):
            raise _stray(x, stray)
        members = nxt
    groups: dict[tuple[int, int], list[int]] = {}
    for x in members:
        trace = 0
        for v in samples:
            trace = trace << 1 | rows[x] >> v & 1
        groups.setdefault((s_of[x], trace), []).append(x)
    flips = []
    ordered = sorted(groups)
    for idx, c1 in enumerate(ordered):
        for c2 in ordered[idx:]:
            if c2[1] >> (len(samples) - 1 - c1[0]) & 1:
                flips.append(Flip(groups[c1], groups[c2]))
    return flips


def _odd_level_flips(g: Graph, nxt: tuple[int, ...], samples, s_of,
                     i: int) -> list[Flip]:
    """The odd-level flips: sample j's assigned vertices beyond distance i
    from ``nxt`` against its neighbours at distance exactly i, both read
    from the BFS levels 0..i and one owner mask per sample."""
    if not samples:
        return []
    levels = _bfs_levels(g, mask_of(nxt), i)
    within = reduce(or_, levels)
    layer = levels[i] if i < len(levels) else 0
    owners = [0] * len(samples)
    for a, j in enumerate(s_of):
        owners[j] |= 1 << a
    rows = g.rows
    flips = []
    for j, s in enumerate(samples):
        far = owners[j] & ~within
        near = rows[s] & layer
        if far and near:
            flips.append(Flip(iter_bits(far), iter_bits(near)))
    return flips


def _xor_accumulate(acc: list[Flip], fresh: list[Flip]) -> None:
    for f in fresh:
        try:
            acc.remove(f)
        except ValueError:
            acc.append(f)


def flip_widen(req: FlipWideRequest) -> FlipWideResult:
    """Grow flips level by level until a_set spreads to distance > radius.

    The per-level sample sets are built under ``req.budget``, whose
    extraction target is always 1, so the construction never depends on
    the requested target size; a final set smaller than it only raises
    the shortfall flag. Every level adds its flips to the accumulated set
    and re-checks independence of the survivors in the input graph under
    that set before moving on. So the
    last check of every run, at its last level or at the early stop, is
    ``verify_flip_wide``'s own test on the returned flips and set, and
    ``verified`` means exactly that. The loop stops early, before any
    level, once the survivors are already pairwise more than ``radius``
    apart; after level L they are more than L+1 apart, so it runs at most
    n levels whatever the radius, and the trace may hold fewer than
    radius+1 entries. A ``BudgetExceeded`` from a level's build names that
    level and carries the flips and trace reached before it; inputs
    outside the monadically stable classes can end there.
    """
    g_cur = req.graph
    current = tuple(req.a_set)
    acc: list[Flip] = []
    trace: list[LevelTrace] = [LevelTrace(0, "base", (), (), current)]

    for level in range(req.radius):
        if is_distance_r_independent(g_cur, current, req.radius)[0]:
            break
        i = level // 2
        inp = DisjointFamilyInput(current, i)
        try:
            built = build_sample_set(g_cur, inp, req.budget)
        except BudgetExceeded as exc:
            raise BudgetExceeded(
                f"level {level}: {exc}",
                partial={"level": level, "flips": tuple(acc),
                         "trace": tuple(trace), "build": exc.partial},
                diagnostic=exc.diagnostic) from exc
        nxt = built.subseq
        parity, build = (("even", _even_level_flips) if level % 2 == 0
                         else ("odd", _odd_level_flips))
        fresh = build(g_cur, nxt, built.samples, built.s_of, i)
        _xor_accumulate(acc, fresh)
        g_cur = apply_flips(req.graph, acc)
        ok, pair = is_distance_r_independent(g_cur, nxt, level + 1)
        if not ok:
            raise InternalInvariantError(
                f"level {level} left vertices {pair} within distance "
                f"{level + 1}")
        trace.append(LevelTrace(level + 1, parity, built.samples,
                                tuple(fresh), nxt))
        current = nxt

    b_set = tuple(sorted(current))
    return FlipWideResult(b_set, tuple(acc), req.radius, tuple(trace),
                          verified=True,
                          shortfall=len(b_set) < req.target_size)


def verify_flip_wide(g: Graph, result: FlipWideResult,
                     r: int) -> tuple[bool, tuple[int, int] | None]:
    """Independent re-check: apply the flips fresh and measure distances.

    A repeated ``b_set`` id is an input error, as for ``a_set``: the
    distance check reads its members as a set, so it would pass unseen.
    """
    if len(set(result.b_set)) != len(result.b_set):
        raise InputError("b_set must be pairwise distinct")
    g.check_vertices(result.b_set)
    flipped = apply_flips(g, result.flip_set)
    return is_distance_r_independent(flipped, result.b_set, r)
