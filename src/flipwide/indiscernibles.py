"""Indiscernibility checking and greedy extraction.

A sequence is indiscernible for a pattern when the pattern's existential
truth is the same on every increasing tuple of matching length. The
checker is exact: it either proves constancy or returns two concrete
tuples with different truth.

The cost model rides on witness masks. For a pattern entry e and a
sequence element y, mask(e, y) is the bitmask of witnesses z satisfying
e(z, y); the truth of a tuple is "the AND of its entry masks is nonzero".
Atom masks are keyed by vertex, so they are shared across every
refinement round of the extractor. The layer works on whole rows: every
type's row over an item list comes from one split of the atoms' rows,
2^(|phi|+1) - 2 C-level passes (``formulas.type_rows``), and every later
step is a ``map``, an ``accumulate`` or a ``compress`` over rows or over
lists of positions into them, with Python-level loops only over heads,
search nodes, the exception table's counters and positions where
something changes. No step evaluates one vertex at a time.

A round decides every type pattern up to length k on one sequence, and
the patterns share work through one cache per item list (``_entry_rows``):
each entry's row over the items, filled for every type at once, and
each pattern prefix's true-tuple sweep. Each pattern is decided by the
cheapest test that settles it (``_decide``, ``_constancy``). The
refinement (``_make_homogeneous``, ``_refine``) reads each entry's row
once, from the same cache, and then works on positions into those rows.
The extractor refines the crop, its first window of items, and decides
the whole input only when the refinement leaves the crop whole; since
constancy is closed under subsequences, a pattern that varies on the
crop refutes the whole input, which is then never scanned.

Before the per-pattern path, the extractor reads one exception table
(``_decided_by_exceptions``) on the crop, again each time a refinement
shrinks the survivors, and on the whole input before
``is_delta_indiscernible``. The paper's first theorem says that over a
long indiscernible sequence in a monadically stable class every witness
has the same type at every item but one at most. When that holds on s
items, each witness has a main type t and at most one exception, a type
u at one position; E[t][u] holds the positions where some t-witness is
u. A pattern of length l >= s has one tuple at most, and for l < s each
single-type pattern is decided by one rule, each an exact criterion:

- (a) is constant when a holds at every item or at none.
- t^l, l >= 2: only a t-witness is t at two items, so it holds exactly
  on the tuples that miss a position where a t-witness changes type,
  unless some witness is t at every item. It is constant when such a
  witness exists, or no t-witness changes type, or more than l positions
  carry such changes; otherwise a tuple through all of them is false and
  one that skips one of them is true.
- (a, b) holds on (i, j) exactly when j is in E[a][b] or i is in
  E[b][a]; it is constant unless some pair meets that and some does not.
- t^l with u at place p, l >= 3: only a t-witness is t at two items, so
  it holds exactly when the item at place p is in E[t][u], and it is
  constant when E[t][u] holds all or none of the positions place p can
  take.
- Any other single-type pattern needs a witness that changes type twice
  and never holds.

The table is read off the type rows with two saturating counters per
type t (``_table_decides``). With bad[p] the witnesses that are not t at
item p, ``once`` collects those in some bad[p] and ``twice`` those in two.
A witness has at most one non-t item exactly when it is outside
``twice``, it is t at every item exactly when it is outside ``once``, and
one in ``once`` but not ``twice`` changes type at the one position p with
bad[p]. So every witness has one exception at most exactly when the
union over t of the witnesses outside ``twice`` is every witness, and
E[t][u] holds the positions p where some witness of ``once`` minus
``twice`` lies in bad[p] and in u's row.

A pattern with union entries is an OR of single-type ones, so it is
constant when they all are. A yes therefore proves every pattern up to
the longest one given constant, the same answer the per-pattern path
gives, and costs O(T * s) mask operations for the counters and
O(T^2 * s) for the table, for T types, instead of one decision per
pattern. A no only means that the table cannot tell: some witness
changes type twice, or some single-type pattern varies, which need not
refute the patterns given; the per-pattern path then decides.

For a pattern of length k over a sequence of length s with n witnesses,
a true tuple is found by one k*s bitset sweep. A false tuple is found, or
ruled out, by a depth-first witness branching: each level places one
entry where it removes the lowest alive witness, so the search tree is at
most k levels deep and a node has at most k*s children. A node with one
or two entries left to place has no children. One entry is settled by
one scan of its row over its window. Two entries j1 < j2 are settled by
the two-entry rule (``_pair_empties``): it looks for p1 < p2 in their
windows with alive & m[j1][p1] & m[j2][p2] == 0. Call p1 closed when
some alive witness of m[j1][p1] lies in m[j2] at every p2 after p1, one
suffix AND; and p2 closed when some alive witness of m[j2][p2] lies in
m[j1] at every p1 before p2, one prefix AND. Every pair through a closed
position keeps that witness, so a pair that keeps none joins two open
positions, and scanning the open pairs is exact. On the sequences the
extractor meets most positions close, and the rule costs O(s) mask
operations where the branching made up to s children. A universal
witness, one AND over every row, settles many constant patterns before
any node; the paper's first theorem is read in one place, the exception
table above. ``_false_search`` states the rules that prune the
branching. Neither search has a node budget or an enumeration fallback,
and the false-tuple search is still exponential in k in the worst case,
which dense random masks reach.

Deciding constancy and building a counterexample are separate. The
extraction pipeline (``extract_indiscernible`` and the Ramsey
refinement) only decides: it asks whether a tuple with the other truth
exists and stops there. Only ``is_delta_indiscernible`` goes on to build
the counterexample, the lexicographically smallest false tuple, which
costs up to k*s further searches.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, compress
from operator import and_, attrgetter, not_, or_
from typing import Callable, Sequence as Seq

from .errors import ExtractionShortfall, InputError, InternalInvariantError
from .formulas import (PATTERN_CAP, Atom, EvalContext, Pattern,
                       _single_entries, entry_row, enumerate_type_patterns,
                       type_rows)


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
                items: Seq[int], rows: dict) -> list[list[int]]:
    """Each entry's row over ``items``: its witness mask at each item.

    ``rows`` is a cache for one (ctx, phi, items): keyed by entry, it
    keeps one row per entry, so every pattern scanned over the same items
    shares it. The first single-type entry asked for fills every
    single-type entry's row from one ``type_rows`` call; an entry with
    several types takes the OR of its types' rows. ``_decide`` keeps its
    prefix sweeps in the same dict, keyed by (entries prefix, alive0);
    nothing else is stored there. Everything in it is a function of its
    key and of those items, so a caller may share it across patterns and
    witness sets but must start a new one whenever the items change."""
    out = []
    for e in entries:
        row = rows.get(e)
        if row is None:
            if len(e) == 1 and len(next(iter(e))) == len(phi):
                for single, type_row in zip(_single_entries(len(phi)),
                                            type_rows(ctx, phi, items)):
                    rows.setdefault(single, type_row)
                row = rows.get(e)
            if row is None:
                row = rows[e] = entry_row(ctx, phi, e, items)
        out.append(row)
    return out


def _decided_by_exceptions(ctx: EvalContext, phi: tuple[Atom, ...], k: int,
                           items: Seq[int], rows: dict) -> bool:
    """True when every pattern of length <= k over ``phi`` is constant on
    ``items``, read off the exception table; False when it cannot tell.

    Each type's row comes from ``_entry_rows`` on ``rows``, the cache for
    ``items``, so the refinement that may follow reads them instead of
    building them again; ``_table_decides`` reads the table off them.
    """
    if min(k, len(items) - 1) < 1:
        return True
    return _table_decides(
        _entry_rows(ctx, phi, _single_entries(len(phi)), items, rows), k,
        ctx.graph.full_mask())


def _table_decides(by_type: list[list[int]], k: int, full: int) -> bool:
    """``_decided_by_exceptions`` on ``by_type``, one row per type over
    the same items, which partition the witnesses ``full`` at each item.

    The module docstring gives the counter argument and the rules. The
    loop keeps the complements of ``once`` and ``twice`` within ``full``:
    ``every``, the witnesses t at every item so far, and ``but_one``,
    those t at all of them but one at most. Both only shrink, so the loop
    stops once ``but_one`` is empty. ``table[t, u]`` is E[t][u], a bitmask
    of positions. t^l is constant for every l <= k when it is for l = k,
    so only t^k is checked.
    """
    s = len(by_type[0])
    k = min(k, s - 1)  # a pattern of length >= s has one tuple at most
    if k < 1:
        return True
    if not all(all(row) or not any(row) for row in by_type):
        return False
    if k == 1:
        return True
    counted = {}
    covered = 0
    for t, row in enumerate(by_type):
        # a type with no witness at any item has none to count
        if row[0]:
            every = but_one = full
            for m in row:
                but_one &= every | m
                if not but_one:
                    break
                every &= m
            counted[t] = every, but_one
            covered |= but_one
    # unless every witness is one type at every item but one at most, some
    # witness changes type twice
    if covered != full:
        return False
    table: dict[tuple[int, int], int] = {}
    positions = range(s)
    for t, (every, but_one) in counted.items():
        # the witnesses not t at one item only, at the item where each
        # changes type
        changed_once = but_one ^ every
        if not changed_once:
            continue
        moved = list(map(changed_once.__and__,
                         map(full.__xor__, by_type[t])))
        changes = s - moved.count(0)
        # t^k varies: no witness is t at every item, and a tuple can
        # cover every position where a t-witness changes type
        if not every and changes <= k:
            return False
        for u in counted:
            if u != t:
                at = sum(map((1).__lshift__,
                             compress(positions, map(and_, moved,
                                                     by_type[u]))))
                if at:
                    table[t, u] = at
    last = (1 << s) - 1
    for a, b in {*table, *((b, a) for a, b in table)}:
        # (a, b) on (i, j): true when j is in `second` or i in `first`;
        # a false pair takes the lowest i outside `first` and some j
        # above it outside `second`
        second, first = table.get((a, b), 0), table.get((b, a), 0)
        free = ~first & last >> 1
        lo = (free & -free).bit_length() - 1
        if ((second >> 1 or first & last >> 1)
                and free and (~second & last) >> lo + 1):
            return False
    # place p of a length-l pattern takes the positions p..p+s-l, which
    # lie within those of place max(0, p+3-l) at length 3, so the three
    # length-3 spans decide every length from 3 to k
    if k >= 3:
        span = (1 << s - 2) - 1
        for at in table.values():
            for place in range(3):
                if at & span << place not in (0, span << place):
                    return False
    return True


def _by_length(phi: tuple[Atom, ...], patterns: Seq[Pattern],
               ) -> tuple[Seq[Pattern], int]:
    """``patterns`` shortest first, and the longest length, once every
    type in them is checked to hold one polarity per formula of ``phi``:
    the exception table may decide every pattern without evaluating one.

    The tuple that ``enumerate_type_patterns`` returns for |phi| is
    already shortest first and of that arity, so it is taken as it is.
    It is recognised by identity, after a length test that keeps any
    other list from building an enumeration that is not memoised."""
    k = len(patterns[-1]) if patterns else 0
    if (k and phi and len(patterns) == sum(2 ** (len(phi) * length)
                                   for length in range(1, k + 1))
            <= PATTERN_CAP
            and patterns is enumerate_type_patterns(len(phi), k)):
        return patterns, k
    entries = list(map(attrgetter("entries"), patterns))
    for tau in chain.from_iterable(set(chain.from_iterable(entries))):
        if len(tau) != len(phi):
            raise InputError(f"type arity {len(tau)} does not match "
                             f"|phi|={len(phi)}")
    return sorted(patterns, key=len), max(map(len, entries), default=0)


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


def _pair_empties(alive: int, row1: list[int], row2: list[int],
                  adjacent: bool) -> bool:
    """Whether some pair of positions, i in ``row1`` and i2 in ``row2``,
    leaves no alive witness. When ``adjacent``, the rows are the windows
    of two consecutive entries, of equal width, and only the pairs with
    i <= i2 are increasing; otherwise a placed entry sits between them
    and every pair is.

    i is closed when some alive witness of row1[i] lies in row2 at every
    i2 it pairs with, one suffix AND; i2 is closed when some alive
    witness of row2[i2] lies in row1 at every i it pairs with, one prefix
    AND. A pair through a closed position keeps that witness, so only
    pairs of open positions are scanned, one C-level pass per open
    position on the side with fewer of them. A pair that keeps no
    witness splits the alive witnesses between its two sides, so no scan
    is needed when the fewest alive witnesses at an open position of
    each side add up to more than there are.
    """
    if adjacent:
        after = list(accumulate(reversed(row2), and_))
        after.reverse()
        before = list(accumulate(row1, and_))
    else:
        after = [reduce(and_, row2)] * len(row1)
        before = [reduce(and_, row1)] * len(row2)
    alive1 = list(map(alive.__and__, row1))
    open1 = list(compress(range(len(row1)), map(not_, map(and_, alive1,
                                                           after))))
    if not open1:
        return False
    alive2 = list(map(alive.__and__, row2))
    open2 = list(compress(range(len(row2)), map(not_, map(and_, alive2,
                                                           before))))
    # the two sides of a pair that keeps no witness split the alive ones
    if not open2 or (min(map(int.bit_count, map(alive1.__getitem__, open1)))
                     + min(map(int.bit_count, map(alive2.__getitem__, open2)))
                     > alive.bit_count()):
        return False
    if len(open1) <= len(open2):
        rows = list(map(row2.__getitem__, open2))
        for i in open1:
            later = rows[bisect_left(open2, i):] if adjacent else rows
            if 0 in map(alive1[i].__and__, later):
                return True
    else:
        rows = list(map(row1.__getitem__, open1))
        for i2 in open2:
            earlier = rows[:bisect_right(open1, i2)] if adjacent else rows
            if 0 in map(alive2[i2].__and__, earlier):
                return True
    return False


def _false_search(masks: list[list[int]],
                  alive0: int) -> Callable[[int, int, int], bool] | None:
    """Decide whether some increasing tuple has an empty witness
    intersection: None when every increasing tuple keeps a witness,
    otherwise the search's ``completes``, which ``_find_false_tuple``
    reuses to build the smallest such tuple.

    One precheck comes first: a universal witness, an alive witness that
    no position of any entry removes, one AND over every row, proves that
    every increasing tuple keeps a witness.

    Then witness branching, a depth-first bounded search tree for hitting
    sets: some free entry must remove the lowest alive witness z at a
    position that still fits the increasing order. A node tries those
    (entry, position) pairs entry by entry, positions ascending, and
    recurses on each at once; a child that leaves no witness succeeds at
    the top of its call. Each child places one entry, so the tree is at
    most k levels deep. Three rules prune it:

    - Last entry: a node with one free entry j and window [lo, hi]
      neither branches nor recurses. It succeeds exactly when some
      position in masks[j][lo:hi + 1] leaves no alive witness, which one
      scan decides.
    - Two entries: a node with two free entries neither branches nor
      recurses either. ``_pair_empties`` decides whether some pair of
      positions in their windows, increasing, leaves no alive witness,
      which is exactly whether the node completes; the module docstring
      says why scanning its open pairs is exact. So a search over k >= 2
      entries never reaches a one-entry node; only ``_find_false_tuple``
      does, when it fixes all entries but the last.
    - Ban: a child that failed is excluded from its later siblings and
      their subtrees, since a completion through it there would have
      completed it. The last-entry and two-entry rules ignore bans: no
      completion passes through a banned position, since the sibling
      that banned it would then have completed, so leaving them in
      changes no answer.

    The kill positions of each (entry, witness) pair are computed the
    first time that witness is branched on and kept for this call,
    ``completes`` included.
    """
    if reduce(and_, chain.from_iterable(masks), alive0):
        return None
    depth = len(masks)
    s = len(masks[0])
    kill_caches: list[dict[int, int]] = [{} for _ in masks]

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
        if len(free) == 1:
            j, lo, hi = free[0]
            return 0 in map(alive.__and__, masks[j][lo:hi + 1])
        if len(free) == 2:
            (j1, lo1, hi1), (j2, lo2, hi2) = free
            return _pair_empties(alive, masks[j1][lo1:hi1 + 1],
                                 masks[j2][lo2:hi2 + 1], j2 == j1 + 1)
        z = (alive & -alive).bit_length() - 1
        saved = banned[:]
        found = False
        for j, lo, hi in free:
            row = masks[j]
            opts = kills(j, z) & ((1 << (hi + 1)) - (1 << lo)) & ~banned[j]
            while opts and not found:
                low = opts & -opts
                opts ^= low
                i = low.bit_length() - 1
                pos[j] = i
                found = completes(first, prev, alive & row[i])
                pos[j] = -1
                banned[j] |= low
            if found:
                break
        banned[:] = saved
        return found

    return completes if completes(0, -1, alive0) else None


def _find_false_tuple(masks: list[list[int]],
                      alive0: int) -> tuple[int, ...] | None:
    """Lexicographically smallest increasing tuple whose witness
    intersection is empty, or None when every increasing tuple keeps a
    witness.

    Once ``_false_search`` finds that such a tuple exists, positions are
    fixed left to right: each candidate prefix is kept when its
    ``completes`` finds a completion, over the same kill positions.
    """
    completes = _false_search(masks, alive0)
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


def _constancy(masks: list[list[int]], alive0: int,
               sweeps: list) -> tuple[bool, bool]:
    """Truth of the first tuple on ``masks``, one row per entry, and
    whether every increasing tuple has that truth, without building a
    tuple.

    - First tuple true, one entry: constant exactly when every position
      keeps an alive witness, one scan of the row.
    - First tuple true, longer: ``_false_search`` on the rows.
    - First tuple false: the pattern is constant exactly when no
      increasing tuple keeps a witness. After entries e_1..e_j, reach[i]
      holds the witnesses for which those entries fit into positions
      below i, and reach[-1] the witnesses that some tuple keeps.
      ``sweeps`` stands for the first len(sweeps) entries and ends with
      the reach after them, the only one read. The sweep resumes from
      it, appends each new reach and stops at one that keeps no witness.
    """
    if _first_truth(masks, alive0):
        if len(masks) == 1:
            return True, all(map(alive0.__and__, masks[0]))
        return True, _false_search(masks, alive0) is None
    reach = sweeps[-1] if sweeps else [alive0] * len(masks[0])
    while len(sweeps) < len(masks) and reach[-1]:
        reach = [0, *accumulate(map(and_, reach, masks[len(sweeps)]), or_)]
        sweeps.append(reach)
    return False, not reach[-1]


def _decide(ctx: EvalContext, phi: tuple[Atom, ...], entries,
            items: Seq[int], alive0: int, rows: dict) -> tuple[bool, bool]:
    """``_constancy`` of the pattern ``entries`` over ``items``, on the
    rows and sweeps that ``rows``, the per-items cache of
    ``_entry_rows``, holds.

    Requires len(items) >= len(entries). No answer is stored, since no
    caller decides a pattern twice on one ``rows``. The reach sweep
    depends only on the entries and alive0, so each prefix's reach list
    is stored in ``rows`` under (entries[:j], alive0), and the sweep
    resumes from the longest stored prefix: with patterns enumerated
    shortest first a length-k pattern costs one row step instead of k.
    A stored prefix that keeps no witness keeps none in any extension,
    so the pattern is constant False, settled before any row is read.
    ``is_delta_indiscernible`` reads the kept witnesses from the stored
    (entries, alive0).
    """
    j = len(entries)
    while j and (reach := rows.get((entries[:j], alive0))) is None:
        j -= 1
    if j and not reach[-1]:
        return False, True
    masks = _entry_rows(ctx, phi, entries, items, rows)
    sweeps = [reach] * j  # only the last one is read
    answer = _constancy(masks, alive0, sweeps)
    for j in range(j, len(sweeps)):
        rows[entries[:j + 1], alive0] = sweeps[j]
    return answer


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
        masks = _entry_rows(ctx, phi, entries, items, rows)
        if t0:
            bad = _find_false_tuple(masks, full)
        else:
            bad = _find_true_tuple(masks, rows[entries, full][-1])
        other = tuple(items[idx] for idx in bad)
        head = tuple(items[:depth])
        if t0:
            return False, Counterexample(pattern, head, other)
        return False, Counterexample(pattern, other, head)
    return True, None


def _refine(masks: list[list[int]], alive0: int, at: Seq[int],
            ) -> tuple[Seq[int], bool | None]:
    """Greedy Ramsey refinement of the pattern whose entries have the
    rows ``masks``, over the positions ``at`` into those rows.

    Returns the positions kept, ``at`` itself when the pattern is
    constant there, and the truth it has on them, or None when they are
    too few to carry any tuple. A single entry takes one scan of its row
    at ``at``, and ``_vote`` keeps the positions of one truth. A longer
    pattern is decided on its rows at ``at``; when it varies, the head
    chain refines the rest of the pattern after each head h, whose
    witnesses are ``alive0 & masks[0][h]``, over the positions left
    after h.
    """
    depth = len(masks)
    if len(at) < depth:
        return at, None
    if depth == 1:
        return _vote(
            at, list(map(alive0.__and__, map(masks[0].__getitem__, at))))
    t0, constant = _constancy([list(map(row.__getitem__, at))
                               for row in masks], alive0, [])
    if constant:
        return at, t0
    return _head_chain(masks, alive0, at)


def _vote(heads: Seq[int], colors: list) -> tuple[Seq[int], bool]:
    """The heads whose color has the majority truth, and that truth.

    ``colors`` holds a truth, or a witness mask read as nonzero, for each
    of the first len(colors) heads; a tie goes to the first head's. The
    heads after them are too close to the end to start a tuple, so
    keeping them never breaks constancy, and they are always kept. When
    every color has one truth, ``heads`` itself is returned.
    """
    misses = colors.count(0)
    trues = len(colors) - misses
    if not (misses and trues):
        return heads, not misses
    keep = trues > misses if trues != misses else bool(colors[0])
    return [*compress(heads, colors if keep else map(not_, colors)),
            *heads[len(colors):]], keep


def _head_chain(masks: list[list[int]], alive0: int, at: Seq[int],
                ) -> tuple[Seq[int], bool]:
    """``_refine`` of a pattern of two entries or more that varies on
    ``at``: the heads whose refined rest has the majority truth."""
    head_row, rest = masks[0], masks[1:]
    heads: list[int] = []
    colors: list[bool] = []
    work = at
    # the chain starts with len(at) >= len(masks), so the first head
    # refines at least len(rest) positions and always gets a truth value
    while len(work) > len(rest):
        h = work[0]
        work, value = _refine(rest, alive0 & head_row[h], work[1:])
        heads.append(h)
        colors.append(value)
    heads.extend(work)
    return _vote(heads, colors)


def _make_homogeneous(ctx: EvalContext, phi: tuple[Atom, ...], entries,
                      items: list[int], alive0: int, rows: dict,
                      ) -> tuple[list[int], bool | None]:
    """Greedy Ramsey refinement for one pattern suffix.

    Returns a subsequence on which the pattern (with witnesses restricted
    to alive0) has constant truth, plus that truth, or None when the
    result is too short to carry any tuple. The subsequence is ``items``
    itself when nothing was removed.

    Each entry's row over ``items`` is read once, from ``rows``, the
    cache for ``items``, and the refinement then works on positions into
    those rows (``_refine``). A longer pattern is first decided by
    ``_decide`` on ``rows``, which may settle it from what the exception
    table or a shorter pattern stored there.
    """
    depth = len(entries)
    if len(items) < depth:
        return items, None
    if depth > 1:
        t0, constant = _decide(ctx, phi, entries, items, alive0, rows)
        if constant:
            return items, t0
    masks = _entry_rows(ctx, phi, entries, items, rows)
    everything = range(len(items))
    if depth == 1:
        at, value = _refine(masks, alive0, everything)
    else:
        at, value = _head_chain(masks, alive0, everything)
    if at is everything:
        return items, value
    return list(map(items.__getitem__, at)), value


def extract_indiscernible(
    ctx: EvalContext, phi: tuple[Atom, ...], patterns: Seq[Pattern],
    items: Seq[int], cfg: ExtractionConfig,
) -> list[int]:
    """Order-preserving subsequence that is indiscernible for ``patterns``.

    Already-indiscernible input is returned unchanged. The crop, the
    first ``cfg.window`` items, is refined one pattern at a time,
    shortest patterns first; constancy under refinement survives later
    rounds because it is closed under subsequences. The full surviving
    subsequence is returned, which may exceed ``cfg.target_length``; if
    it falls short, the raised error carries the result and the pattern
    that first pushed it under the target.

    The refinement is the crop's indiscernibility check: it leaves the
    crop whole exactly when every pattern is constant there. The crop is
    a subsequence, so a pattern that is not constant there is not
    constant on the whole input, and the whole input is decided, by the
    exception table and then by ``is_delta_indiscernible``, only when the
    refinement leaves the crop whole. The table is read on the crop
    first and again whenever the survivors shrink; a yes ends the
    refinement, which would leave constant patterns' survivors as they
    are. Each pattern's top-level refinement shares one ``_decide`` cache
    until the survivors change.
    """
    _check_items(ctx, items)
    if len(items) < cfg.target_length:
        raise InputError(
            f"input length {len(items)} is below the target "
            f"{cfg.target_length}")
    full = ctx.graph.full_mask()
    ordered, k = _by_length(phi, patterns)
    survivors = crop = list(items[:cfg.window])
    rows: dict = {}
    blocking: Pattern | None = None
    if not _decided_by_exceptions(ctx, phi, k, crop, rows):
        for pattern in ordered:
            before = survivors
            survivors, _ = _make_homogeneous(ctx, phi, pattern.entries,
                                             survivors, full, rows)
            if (blocking is None
                    and len(before) >= cfg.target_length > len(survivors)):
                blocking = pattern
            if survivors is not before:
                rows = {}
                if _decided_by_exceptions(ctx, phi, k, survivors, rows):
                    break
    if survivors is crop and (
            len(crop) == len(items)
            or _decided_by_exceptions(ctx, phi, k, items, {})
            or is_delta_indiscernible(ctx, phi, patterns, items)[0]):
        return list(items)
    if len(survivors) < cfg.target_length:
        raise ExtractionShortfall(
            f"extraction reached length {len(survivors)} of the requested "
            f"{cfg.target_length}",
            achieved=survivors, blocking_pattern=blocking)
    return survivors
