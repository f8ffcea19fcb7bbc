"""Indiscernibility checking, EM-type computation, and greedy extraction.

A sequence is indiscernible for a pattern when the pattern's existential
truth is the same on every increasing tuple of matching length. The
checker is exact: it either proves constancy or returns two concrete
tuples with different truth.

The cost model rides on witness masks. For a pattern entry e and a
sequence element y, mask(e, y) is the bitmask of witnesses z satisfying
e(z, y); the truth of a tuple is "the AND of its entry masks is nonzero".
Masks are keyed by vertex, so they are shared across every refinement
round of the extractor.

For a pattern of length k over a sequence of length s with n witnesses,
a true tuple is found by one k*s bitset sweep. A false tuple is found, or
ruled out, by witness branching: each level places one entry where it
removes a still-alive witness, so the search tree is at most k levels
deep, and two O(k*s) prechecks settle most constant patterns without
branching. Neither search has a node budget or an enumeration fallback.

Deciding constancy and building a counterexample are separate. The
extraction pipeline (``extract_indiscernible``, the Ramsey refinement and
``em_type``) only decides: it asks whether a tuple with the other truth
exists and stops there. Only ``is_delta_indiscernible`` goes on to build
the counterexample, the lexicographically smallest false tuple, which
costs up to k*s further searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence as Seq

from .errors import ExtractionShortfall, InputError, InternalInvariantError
from .formulas import Atom, EvalContext, Pattern, entry_mask, entry_row


@dataclass(frozen=True)
class Counterexample:
    """Two increasing tuples on which the pattern's truth differs."""

    pattern: Pattern
    true_tuple: tuple[int, ...]
    false_tuple: tuple[int, ...]


@dataclass(frozen=True)
class ExtractionConfig:
    target_length: int
    max_pattern_length: int = 4
    pattern_cap: int = 100_000
    window: int | None = 48
    strategy: str = "greedy_ramsey"

    def __post_init__(self):
        if self.target_length < 1:
            raise InputError(f"target length must be >= 1, got {self.target_length}")
        if self.max_pattern_length < 1:
            raise InputError(
                f"max pattern length must be >= 1, got {self.max_pattern_length}")
        if self.window is not None and self.window < 1:
            raise InputError(f"window must be >= 1 or None, got {self.window}")
        if self.strategy != "greedy_ramsey":
            raise InputError(f"unknown extraction strategy {self.strategy!r}")


def _check_items(items: Seq[int]) -> None:
    if len(set(items)) != len(items):
        raise InputError("sequence items must be pairwise distinct")


def _entry_rows(ctx: EvalContext, phi: tuple[Atom, ...], entries,
                items: Seq[int], rows: dict,
                ) -> list[tuple[list[int], dict[int, int]]]:
    """Each entry's witness masks over ``items`` with its kill-position
    cache. ``rows`` keeps both per entry, so every pattern scanned over
    the same items shares them."""
    out = []
    for e in entries:
        row = rows.get(e)
        if row is None:
            row = rows[e] = (entry_row(ctx, phi, e, items), {})
        out.append(row)
    return out


def _first_truth(masks: list[list[int]], alive0: int) -> bool:
    """Truth of the first increasing tuple, positions 0..k-1."""
    first = alive0
    for j, row in enumerate(masks):
        first &= row[j]
    return bool(first)


def _kept_witnesses(masks: list[list[int]], alive0: int) -> int:
    """Every alive witness z that some increasing tuple keeps.

    One bitset sweep: reach[i] holds the witnesses for which the entries
    so far fit into positions below i.
    """
    s = len(masks[0])
    reach = [alive0] * (s + 1)
    for row in masks:
        acc = 0
        nxt = [0]
        for prev, m in zip(reach, row):
            acc |= prev & m
            nxt.append(acc)
        reach = nxt
    return reach[s]


def _find_true_tuple(masks: list[list[int]], alive0: int) -> tuple[int, ...] | None:
    """Smallest-witness search for one increasing tuple with truth True.

    The lowest witness that ``_kept_witnesses`` finds takes the greedy
    lowest-position walk, which is the tuple returned.
    """
    final = _kept_witnesses(masks, alive0)
    if not final:
        return None
    z = (final & -final).bit_length() - 1
    picks = []
    idx = -1
    for row in masks:
        idx += 1
        while not row[idx] >> z & 1:
            idx += 1
        picks.append(idx)
    return tuple(picks)


def _false_search(masks: list[list[int]], alive0: int,
                  kill_caches: list[dict[int, int]],
                  ) -> tuple[Callable[..., bool], list[int]] | None:
    """Decide whether some increasing tuple has an empty witness
    intersection: None when every increasing tuple keeps a witness,
    otherwise the search's ``completes`` and per-entry kill bounds, which
    ``_find_false_tuple`` reuses to build the smallest such tuple.

    Witness branching, the bounded search tree for hitting sets: some
    unplaced entry must remove the lowest alive witness z at a position
    that still fits the increasing order, so the search branches over
    exactly those (entry, position) pairs and places at most one entry
    per level, k levels deep. A branch that failed is excluded from its
    later siblings. Two O(k*s) prechecks settle most constant patterns
    at once: a witness that no position of any entry removes, and more
    alive witnesses than the entries can remove between them. Kill
    positions are computed per (entry, witness) the first time that
    witness is branched on, into ``kill_caches``: one dict per entry,
    which callers share across searches over the same rows. The search
    keeps O(k) state and the caches at most one int per (entry, witness);
    there is no node budget and no enumeration.
    """
    depth = len(masks)
    s = len(masks[0])
    maxkill = []
    surviving = alive0
    for row in masks:
        kill = 0
        for m in row:
            surviving &= m
            kill = max(kill, (alive0 & ~m).bit_count())
        maxkill.append(kill)
    if surviving:
        return None

    def kills(j: int, z: int) -> int:
        cache = kill_caches[j]
        got = cache.get(z)
        if got is None:
            got = 0
            bit = 1
            for m in masks[j]:
                if not m >> z & 1:
                    got |= bit
                bit <<= 1
            cache[z] = got
        return got

    pos = [-1] * depth
    banned = [0] * depth

    def completes(first: int, prev: int, alive: int, budget: int) -> bool:
        """Can entries first.. be placed after ``prev``, around the ones
        already in ``pos``, so that no alive witness is left?"""
        if not alive:
            return True
        if alive.bit_count() > budget:
            return False
        z = (alive & -alive).bit_length() - 1
        his = [0] * depth
        nxt_j, nxt_p = depth, s
        for j in range(depth - 1, first - 1, -1):
            if pos[j] >= 0:
                nxt_j, nxt_p = j, pos[j]
            else:
                his[j] = nxt_p - (nxt_j - j)
        saved = banned[:]
        found = False
        last_j, last_p = first - 1, prev
        for j in range(first, depth):
            if pos[j] >= 0:
                last_j, last_p = j, pos[j]
                continue
            lo = last_p + (j - last_j)
            window = (1 << (his[j] + 1)) - (1 << lo)
            opts = kills(j, z) & window & ~banned[j]
            while opts:
                low = opts & -opts
                i = low.bit_length() - 1
                new = alive & masks[j][i]
                if not new:
                    found = True
                    break
                rest = budget - maxkill[j]
                # a child with more alive witnesses than it can remove
                # fails on entry, so it is not entered at all
                if new.bit_count() <= rest:
                    pos[j] = i
                    found = completes(first, prev, new, rest)
                    pos[j] = -1
                    if found:
                        break
                banned[j] |= low
                opts ^= low
            if found:
                break
        banned[:] = saved
        return found

    if not completes(0, -1, alive0, sum(maxkill)):
        return None
    return completes, maxkill


def _find_false_tuple(masks: list[list[int]], alive0: int,
                      kill_caches: list[dict[int, int]],
                      ) -> tuple[int, ...] | None:
    """Lexicographically smallest increasing tuple whose witness
    intersection is empty, or None when every increasing tuple keeps a
    witness.

    ``_false_search`` decides; only when it finds that such a tuple
    exists are positions fixed left to right, asking its ``completes``
    for a completion of each candidate prefix, over the same kill caches.
    The extraction pipeline never builds this tuple: only
    ``is_delta_indiscernible`` does, for its counterexample.
    """
    search = _false_search(masks, alive0, kill_caches)
    if search is None:
        return None
    completes, maxkill = search
    depth = len(masks)
    s = len(masks[0])
    budget = sum(maxkill)
    fixed: list[int] = []
    alive = alive0
    prev = -1
    for j in range(depth):
        budget -= maxkill[j]
        for p in range(prev + 1, s - (depth - 1 - j)):
            new = alive & masks[j][p]
            if not new:
                return (*fixed, p, *range(p + 1, p + depth - j))
            if j < depth - 1 and completes(j + 1, p, new, budget):
                break
        else:
            raise InternalInvariantError(
                "witness search lost a completion it had found")
        fixed.append(p)
        alive = new
        prev = p


def _scan(ctx: EvalContext, phi: tuple[Atom, ...], entries,
          items: Seq[int], alive0: int, rows: dict,
          ) -> tuple[bool, tuple[int, ...] | None]:
    """Truth of the first tuple, plus one tuple with the other truth if any.

    Requires len(items) >= len(entries). Returned tuples contain sequence
    items, not positions. ``rows`` is the per-entry cache of
    ``_entry_rows`` for these items.
    """
    got = _entry_rows(ctx, phi, entries, items, rows)
    masks = [m for m, _ in got]
    t0 = _first_truth(masks, alive0)
    if t0:
        bad = _find_false_tuple(masks, alive0, [c for _, c in got])
    else:
        bad = _find_true_tuple(masks, alive0)
    if bad is None:
        return t0, None
    return t0, tuple(items[idx] for idx in bad)


def _decide(ctx: EvalContext, phi: tuple[Atom, ...], entries,
            items: Seq[int], alive0: int, rows: dict) -> tuple[bool, bool]:
    """Truth of the first tuple, and whether every increasing tuple has
    that truth: the decision half of ``_scan``, which builds no tuple.

    Same requirements and ``rows`` cache as ``_scan``.
    """
    got = _entry_rows(ctx, phi, entries, items, rows)
    masks = [m for m, _ in got]
    if _first_truth(masks, alive0):
        return True, _false_search(masks, alive0, [c for _, c in got]) is None
    return False, not _kept_witnesses(masks, alive0)


def is_delta_indiscernible(
    ctx: EvalContext, phi: tuple[Atom, ...], patterns: Seq[Pattern],
    items: Seq[int],
) -> tuple[bool, Counterexample | None]:
    """Exact check: every pattern constant on all increasing tuples.

    Patterns longer than the sequence hold vacuously. On failure the
    returned counterexample carries one true and one false tuple for the
    offending pattern.
    """
    _check_items(items)
    full = ctx.graph.full_mask()
    rows: dict = {}
    for pattern in patterns:
        depth = len(pattern)
        if len(items) < depth:
            continue
        t0, other = _scan(ctx, phi, pattern.entries, items, full, rows)
        if other is None:
            continue
        head = tuple(items[:depth])
        if t0:
            return False, Counterexample(pattern, head, other)
        return False, Counterexample(pattern, other, head)
    return True, None


def em_type(ctx: EvalContext, phi: tuple[Atom, ...], patterns: Seq[Pattern],
            items: Seq[int]) -> list[Pattern]:
    """Patterns true on every increasing tuple, vacuous truth included.

    Taking a subsequence never removes a pattern from the result, because
    the subsequence's tuples are a subset of the original's.
    """
    _check_items(items)
    full = ctx.graph.full_mask()
    rows: dict = {}
    out = []
    for pattern in patterns:
        if len(items) < len(pattern):
            out.append(pattern)
            continue
        t0, constant = _decide(ctx, phi, pattern.entries, items, full, rows)
        if t0 and constant:
            out.append(pattern)
    return out


def _majority(colors: list[bool]) -> bool:
    trues = sum(colors)
    falses = len(colors) - trues
    if trues != falses:
        return trues > falses
    return colors[0]


def _make_homogeneous(ctx: EvalContext, phi: tuple[Atom, ...], entries,
                      items: list[int], alive0: int,
                      ) -> tuple[list[int], bool | None]:
    """Greedy Ramsey refinement for one pattern suffix.

    Returns a subsequence on which the pattern (with witnesses restricted
    to alive0) has constant truth, plus that truth, or None when the
    result is too short to carry any tuple.
    """
    depth = len(entries)
    if len(items) < depth:
        return items, None
    t0, constant = _decide(ctx, phi, entries, items, alive0, {})
    if constant:
        return items, t0

    if depth == 1:
        truths = [bool(alive0 & entry_mask(ctx, phi, entries[0], y))
                  for y in items]
        keep = _majority(truths)
        return [y for y, t in zip(items, truths) if t is keep], keep

    heads: list[tuple[int, bool | None]] = []
    work = list(items)
    while work:
        h = work[0]
        alive_h = alive0 & entry_mask(ctx, phi, entries[0], h)
        refined, value = _make_homogeneous(ctx, phi, entries[1:], work[1:],
                                           alive_h)
        heads.append((h, value))
        work = refined
    colored = [c for _, c in heads if c is not None]
    if not colored:
        return [h for h, _ in heads], None
    keep = _majority(colored)
    # uncolored heads sit at the chain's end; too few elements follow them
    # to start a tuple, so keeping them never breaks constancy.
    return [h for h, c in heads if c is None or c is keep], keep


def extract_indiscernible(
    ctx: EvalContext, phi: tuple[Atom, ...], patterns: Seq[Pattern],
    items: Seq[int], cfg: ExtractionConfig,
) -> list[int]:
    """Order-preserving subsequence that is indiscernible for ``patterns``.

    Already-indiscernible input is returned unchanged. Otherwise the
    input is cropped to ``cfg.window`` and refined one pattern at a time,
    shortest patterns first; constancy under refinement survives later
    rounds because it is closed under subsequences. The full surviving
    subsequence is returned, which may exceed ``cfg.target_length``; if
    it falls short, the raised error carries the result and the pattern
    that first pushed it under the target.
    """
    _check_items(items)
    if len(items) < cfg.target_length:
        raise InputError(
            f"input length {len(items)} is below the target "
            f"{cfg.target_length}")
    full = ctx.graph.full_mask()
    rows: dict = {}
    if all(_decide(ctx, phi, p.entries, items, full, rows)[1]
           for p in patterns if len(p) <= len(items)):
        return list(items)

    survivors = list(items)
    if cfg.window is not None and len(survivors) > cfg.window:
        survivors = survivors[:cfg.window]
    blocking: Pattern | None = None
    for pattern in sorted(patterns, key=len):
        before = len(survivors)
        survivors, _ = _make_homogeneous(ctx, phi, pattern.entries,
                                         survivors, full)
        if blocking is None and before >= cfg.target_length > len(survivors):
            blocking = pattern
    if len(survivors) < cfg.target_length:
        raise ExtractionShortfall(
            f"extraction reached length {len(survivors)} of the requested "
            f"{cfg.target_length}",
            achieved=survivors, blocking_pattern=blocking)
    return survivors
