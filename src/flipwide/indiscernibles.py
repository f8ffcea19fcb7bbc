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

A round decides every type pattern up to length k on one sequence, and
the patterns share work through one cache per item list (``_entry_rows``):
each entry's row over the items and its search caches, and each pattern
prefix's true-tuple sweep, so a pattern whose first tuple is false costs
one row step past its longest decided prefix. The refinement and the
counterexample read these instead of computing them again. The extractor
decides an input longer than its window on the crop first; since
constancy is closed under subsequences, a pattern that varies there
refutes the whole input, which is then never scanned.

For a pattern of length k over a sequence of length s with n witnesses,
a true tuple is found by one k*s bitset sweep. A false tuple is found, or
ruled out, by witness branching: each level places one entry where it
removes the lowest alive witness, so the search tree is at most k levels
deep and a node has at most k*s children. Three O(k*s) prechecks settle
most constant patterns without branching; one of them is the
one-exception cover that the paper's first theorem gives over an
indiscernible sequence. ``_false_search`` states the rules that prune
the branching. Neither search has a node budget or an enumeration
fallback, and the false-tuple search is still exponential in k in the
worst case, which dense random masks reach.

Deciding constancy and building a counterexample are separate. The
extraction pipeline (``extract_indiscernible``, the Ramsey refinement and
``em_type``) only decides: it asks whether a tuple with the other truth
exists and stops there. Only ``is_delta_indiscernible`` goes on to build
the counterexample, the lexicographically smallest false tuple, which
costs up to k*s further searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import and_, or_
from typing import Callable, Sequence as Seq

from .errors import ExtractionShortfall, InputError, InternalInvariantError
from .formulas import Atom, EvalContext, Pattern, entry_mask, entry_row


@dataclass(frozen=True)
class Counterexample:
    """Two increasing tuples on which the pattern's truth differs."""

    pattern: Pattern
    true_tuple: tuple[int, ...]
    false_tuple: tuple[int, ...]


DEFAULT_WINDOW = 48


@dataclass(frozen=True)
class ExtractionConfig:
    """The settings of ``extract_indiscernible``: the shortest result
    accepted, and how many leading items a refinement may keep (None for
    all of them)."""

    target_length: int
    window: int | None = DEFAULT_WINDOW

    def __post_init__(self):
        if self.target_length < 1:
            raise InputError(f"target length must be >= 1, got {self.target_length}")
        if self.window is not None and self.window < 1:
            raise InputError(f"window must be >= 1 or None, got {self.window}")


def _check_items(ctx: EvalContext, items: Seq[int]) -> None:
    if len(set(items)) != len(items):
        raise InputError("sequence items must be pairwise distinct")
    if items:
        ctx.graph.check_vertex(min(items))
        ctx.graph.check_vertex(max(items))


def _entry_rows(ctx: EvalContext, phi: tuple[Atom, ...], entries,
                items: Seq[int], rows: dict,
                ) -> list[tuple[list[int], dict[int, int], list[int]]]:
    """Each entry's witness masks over ``items`` with its kill-position
    cache and its all-but-one cache.

    ``rows`` is a cache for one (ctx, phi, items): keyed by entry, it
    keeps all three per entry, so every pattern scanned over the same
    items shares them. ``_decide`` keeps its prefix sweeps in the same
    dict, keyed by (entries prefix, alive0). Everything in it is a
    function of its key and of those items, so a caller may share it
    across patterns and witness sets but must start a new one whenever
    the items change."""
    out = []
    for e in entries:
        row = rows.get(e)
        if row is None:
            row = rows[e] = (entry_row(ctx, phi, e, items), {}, [])
        out.append(row)
    return out


def _first_truth(masks: list[list[int]], alive0: int) -> bool:
    """Truth of the first increasing tuple, positions 0..k-1."""
    first = alive0
    for j, row in enumerate(masks):
        first &= row[j]
    return bool(first)


def _find_true_tuple(masks: list[list[int]], kept: int) -> tuple[int, ...]:
    """Smallest-witness search for one increasing tuple with truth True.

    ``kept`` is the nonzero set of witnesses that some increasing tuple
    keeps, the last reach of ``_decide``'s sweep. Its lowest witness
    takes the greedy lowest-position walk, which is the tuple returned.
    """
    z = (kept & -kept).bit_length() - 1
    picks = []
    idx = -1
    for row in masks:
        idx += 1
        while not row[idx] >> z & 1:
            idx += 1
        picks.append(idx)
    return tuple(picks)


def _all_but_one(row: list[int]) -> list[int]:
    """Per position i, the AND of ``row`` over every position but i, from
    one prefix and one suffix intersection (-1, every bit, when the row
    has a single position)."""
    pre = list(accumulate(row, and_, initial=-1))
    suf = list(accumulate(reversed(row), and_, initial=-1))
    suf.reverse()
    return list(map(and_, pre, suf[1:]))


def _one_exception_cover(masks: list[list[int]], alive0: int,
                         excl_caches: list[list[int]]) -> bool:
    """True when every increasing tuple keeps a witness because one of
    its entries sits on a good position.

    Position i is good for entry j when some alive witness lies in
    masks[j][i] and, for every other entry j', in masks[j'] at every
    position but i. Such a witness is kept by any tuple that puts j at i,
    since the other entries sit on positions other than i. A greedy
    leftmost placement looks for a tuple with every entry on a bad
    position; when there is none, the cover holds.

    ``excl_caches`` holds each entry's ``_all_but_one`` list, which
    ``_false_search`` fills.
    """
    s = len(masks[0])
    prev = -1
    for j, row in enumerate(masks):
        others = excl_caches[:j] + excl_caches[j + 1:]
        i = prev + 1
        while i < s:
            w = alive0 & row[i]
            for col in others:
                w &= col[i]
            if not w:
                break
            i += 1
        else:
            return True
        prev = i
    return False


def _false_search(masks: list[list[int]], alive0: int,
                  kill_caches: list[dict[int, int]],
                  excl_caches: list[list[int]],
                  ) -> Callable[[int, int, int], bool] | None:
    """Decide whether some increasing tuple has an empty witness
    intersection: None when every increasing tuple keeps a witness,
    otherwise the search's ``completes``, which ``_find_false_tuple``
    reuses to build the smallest such tuple.

    Three prechecks run first, in this order; each proves that every
    increasing tuple keeps a witness:

    - Universal witness: an alive witness that no position of any entry
      removes. An entry's AND over every position is its all-but-one
      cache at position 0 ANDed with position 0, so it is computed once
      per entry, not once per pattern.
    - One-exception cover (``_one_exception_cover``, which says why it
      is sound). On an indiscernible sequence in a stable class every
      witness differs from its majority at no more than one position,
      which is why the cover settles most of the patterns that the
      universal witness leaves.
    - Root count: more alive witnesses than the entries can remove
      between them, each at the position where it removes the most.

    Then witness branching, the bounded search tree for hitting sets: some
    unplaced entry must remove the lowest alive witness z at a position
    that still fits the increasing order. A node's children are exactly
    those (entry, position) pairs, each places one entry, and so the tree
    is at most k levels deep. A node collects its children first and
    succeeds at once if one of them leaves no witness. Otherwise:

    - Last entry: a node with one free entry fails without recursing.
      Each of its children places that entry, the last one, and leaves
      a witness that no entry remains to remove.
    - Order: the children are tried fewest witnesses left first, ties by
      entry, then by position, until one succeeds.
    - Ban: a child that failed is excluded from its later siblings and
      their subtrees, since a completion through it there would have
      completed it.

    Both caches hold one item per entry, which callers share across
    searches over the same rows, whatever their alive sets:
    ``kill_caches`` a dict of kill positions per witness, computed the
    first time that witness is branched on, and ``excl_caches`` the
    ``_all_but_one`` list that the universal witness and the cover read,
    filled here and nowhere else on first use.
    """
    surviving = alive0
    for row, excl in zip(masks, excl_caches):
        if not excl:
            excl += _all_but_one(row)
        surviving &= excl[0] & row[0]
    if surviving:
        return None
    if _one_exception_cover(masks, alive0, excl_caches):
        return None
    total = alive0.bit_count()
    if total > sum(total - min(map(int.bit_count, map(alive0.__and__, row)))
                   for row in masks):
        return None
    depth = len(masks)
    s = len(masks[0])

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

    def completes(first: int, prev: int, alive: int) -> bool:
        """Can entries first.. be placed after ``prev``, around the ones
        already in ``pos``, so that no alive witness is left?"""
        if not alive:
            return True
        z = (alive & -alive).bit_length() - 1
        # each free entry's window [lo, hi] of positions
        his = [0] * depth
        top = s
        for j in range(depth - 1, first - 1, -1):
            top = pos[j] if pos[j] >= 0 else top - 1
            his[j] = top
        free = []
        lo = prev
        for j in range(first, depth):
            if pos[j] >= 0:
                lo = pos[j]
            else:
                lo += 1
                free.append((j, lo, his[j]))
        children = []
        for j, lo, hi in free:
            row = masks[j]
            opts = kills(j, z) & ((1 << (hi + 1)) - (1 << lo)) & ~banned[j]
            while opts:
                low = opts & -opts
                opts ^= low
                i = low.bit_length() - 1
                new = alive & row[i]
                if not new:
                    return True
                children.append((new.bit_count(), j, i, new))
        if len(free) == 1:
            return False
        children.sort()
        saved = banned[:]
        found = False
        for _, j, i, new in children:
            pos[j] = i
            found = completes(first, prev, new)
            pos[j] = -1
            if found:
                break
            banned[j] |= 1 << i
        banned[:] = saved
        return found

    return completes if completes(0, -1, alive0) else None


def _find_false_tuple(masks: list[list[int]], alive0: int,
                      kill_caches: list[dict[int, int]],
                      excl_caches: list[list[int]],
                      ) -> tuple[int, ...] | None:
    """Lexicographically smallest increasing tuple whose witness
    intersection is empty, or None when every increasing tuple keeps a
    witness.

    Once ``_false_search`` finds that such a tuple exists, positions are
    fixed left to right: each candidate prefix is kept when its
    ``completes`` finds a completion, over the same caches.
    """
    completes = _false_search(masks, alive0, kill_caches, excl_caches)
    if completes is None:
        return None
    depth = len(masks)
    s = len(masks[0])
    fixed: list[int] = []
    alive = alive0
    prev = -1
    for j in range(depth):
        for p in range(prev + 1, s - (depth - 1 - j)):
            new = alive & masks[j][p]
            if not new:
                return (*fixed, p, *range(p + 1, p + depth - j))
            if j < depth - 1 and completes(j + 1, p, new):
                break
        else:
            raise InternalInvariantError(
                "witness search lost a completion it had found")
        fixed.append(p)
        alive = new
        prev = p


def _decide(ctx: EvalContext, phi: tuple[Atom, ...], entries,
            items: Seq[int], alive0: int, rows: dict) -> tuple[bool, bool]:
    """Truth of the first tuple, and whether every increasing tuple has
    that truth, without building a tuple.

    Requires len(items) >= len(entries). ``rows`` is the per-items cache
    of ``_entry_rows``.

    When the first tuple is false, the pattern is constant exactly when
    no increasing tuple keeps a witness. One bitset sweep decides that:
    after entries e_1..e_j, reach[i] holds the witnesses for which those
    entries fit into positions below i, and reach[-1] the witnesses that
    some tuple keeps. It depends only on the entries and alive0, so each
    prefix's reach list is stored in ``rows`` under (entries[:j], alive0),
    where ``is_delta_indiscernible`` reads the kept witnesses, and a sweep
    resumes from the longest prefix already stored: with patterns
    enumerated shortest first, a length-k pattern costs one row step
    instead of k. A prefix that keeps no witness keeps none in any
    extension, so every extension is settled as constant False without a
    step.
    """
    got = _entry_rows(ctx, phi, entries, items, rows)
    masks, kill_caches, excl_caches = map(list, zip(*got))
    if _first_truth(masks, alive0):
        return True, _false_search(masks, alive0, kill_caches,
                                   excl_caches) is None
    j = len(entries)
    while j and (reach := rows.get((entries[:j], alive0))) is None:
        j -= 1
    if not j:
        reach = [alive0] * len(items)
    while j < len(entries) and reach[-1]:
        reach = [0, *accumulate(map(and_, reach, masks[j]), or_)]
        j += 1
        rows[entries[:j], alive0] = reach
    return False, not reach[-1]


def is_delta_indiscernible(
    ctx: EvalContext, phi: tuple[Atom, ...], patterns: Seq[Pattern],
    items: Seq[int],
) -> tuple[bool, Counterexample | None]:
    """Exact check: every pattern constant on all increasing tuples.

    Patterns longer than the sequence hold vacuously. On failure the
    returned counterexample carries one true and one false tuple for the
    offending pattern.
    """
    _check_items(ctx, items)
    full = ctx.graph.full_mask()
    rows: dict = {}
    for pattern in patterns:
        depth = len(pattern)
        if len(items) < depth:
            continue
        entries = pattern.entries
        t0, constant = _decide(ctx, phi, entries, items, full, rows)
        if constant:
            continue
        got = _entry_rows(ctx, phi, entries, items, rows)
        masks, kill_caches, excl_caches = map(list, zip(*got))
        if t0:
            bad = _find_false_tuple(masks, full, kill_caches, excl_caches)
        else:
            bad = _find_true_tuple(masks, rows[entries, full][-1])
        other = tuple(items[idx] for idx in bad)
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
    _check_items(ctx, items)
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
                      items: list[int], alive0: int, rows: dict,
                      ) -> tuple[list[int], bool | None]:
    """Greedy Ramsey refinement for one pattern suffix.

    Returns a subsequence on which the pattern (with witnesses restricted
    to alive0) has constant truth, plus that truth, or None when the
    result is too short to carry any tuple. The subsequence is ``items``
    itself when nothing was removed. ``rows`` is the ``_decide`` cache for
    ``items``, whose entry row gives a single entry's truths; each
    recursive call refines a different item list and so starts its own.
    """
    depth = len(entries)
    if len(items) < depth:
        return items, None
    t0, constant = _decide(ctx, phi, entries, items, alive0, rows)
    if constant:
        return items, t0

    if depth == 1:
        truths = [bool(alive0 & m) for m in rows[entries[0]][0]]
        keep = _majority(truths)
        return [y for y, t in zip(items, truths) if t is keep], keep

    heads: list[tuple[int, bool | None]] = []
    work = list(items)
    while work:
        h = work[0]
        alive_h = alive0 & entry_mask(ctx, phi, entries[0], h)
        refined, value = _make_homogeneous(ctx, phi, entries[1:], work[1:],
                                           alive_h, {})
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

    Input longer than the window is decided on the crop first. The crop
    is a subsequence, so a pattern that is not constant there is not
    constant on the whole input, and the whole input is decided only when
    every pattern is constant on the crop. The crop's ``_decide`` cache
    then serves the refinement's first patterns, and each pattern's
    top-level refinement shares it until the survivors change.
    """
    _check_items(ctx, items)
    if len(items) < cfg.target_length:
        raise InputError(
            f"input length {len(items)} is below the target "
            f"{cfg.target_length}")
    full = ctx.graph.full_mask()

    def indiscernible(seq: Seq[int], rows: dict) -> bool:
        return all(_decide(ctx, phi, p.entries, seq, full, rows)[1]
                   for p in patterns if len(p) <= len(seq))

    survivors = list(items)
    if cfg.window is not None and len(survivors) > cfg.window:
        survivors = survivors[:cfg.window]
    rows: dict = {}
    if indiscernible(survivors, rows) and (
            len(survivors) == len(items) or indiscernible(items, {})):
        return list(items)

    blocking: Pattern | None = None
    for pattern in sorted(patterns, key=len):
        before = survivors
        survivors, _ = _make_homogeneous(ctx, phi, pattern.entries,
                                         survivors, full, rows)
        if survivors is not before:
            rows = {}
        if (blocking is None
                and len(before) >= cfg.target_length > len(survivors)):
            blocking = pattern
    if len(survivors) < cfg.target_length:
        raise ExtractionShortfall(
            f"extraction reached length {len(survivors)} of the requested "
            f"{cfg.target_length}",
            achieved=survivors, blocking_pattern=blocking)
    return survivors
