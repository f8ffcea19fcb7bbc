"""Restricted formula evaluation over graphs: atomic connections (edge,
bounded distance), neighborhood-equivalence over a third vertex's ball,
complete types over a formula set, and the existential pattern formulas
used for indiscernibility.

Evaluation is mask-based: for a fixed second argument y, each atom has a
bitmask of satisfying first arguments, computed once and cached on the
EvalContext, and so has each pattern entry. Pattern evaluation then
reduces to AND/OR over masks. ``entry_row`` builds an entry's masks over
a whole item list at once, from the atoms' rows over the items it has
not seen yet. The pointwise definitions of types and patterns that it is
checked against live in the tests (``tests/pointwise.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product, repeat
from operator import and_, is_, or_
from typing import Iterable, Mapping, Sequence

from .errors import BudgetExceeded, InputError
from .graphcore import Graph, ball_mask, eq_class_mask

EDGE = "edge"
DIST_LEQ = "dist_leq"
EQ_NBHD = "eq_nbhd"
_KIND_CODES = {EDGE: 0, DIST_LEQ: 1, EQ_NBHD: 2}


@dataclass(frozen=True)
class Atom:
    """One binary atomic formula phi(x, y).

    kind "edge": adjacency. kind "dist_leq": dist(x, y) <= the context's
    ball radius. kind "eq_nbhd": x is edge-equivalent to constant
    ``const`` over the ball of y (see graphcore.phi_equivalent_over).

    Atoms key the mask memos, so the hash is computed once instead of on
    every lookup. It is built from ints alone, the kind's code and the
    constant (0 for none), so it is the same in every process.
    """

    kind: str
    const: int | None = None

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise InputError(f"unknown atom kind {self.kind!r}")
        if self.kind == EQ_NBHD and self.const is None:
            raise InputError("eq_nbhd atom needs a constant index")
        if self.kind != EQ_NBHD and self.const is not None:
            raise InputError(f"{self.kind} atom takes no constant index")
        object.__setattr__(self, "_hash",
                           hash((_KIND_CODES[self.kind], self.const or 0)))

    def __hash__(self) -> int:
        return self._hash


def edge_atom() -> Atom:
    return Atom(EDGE)


def dist_atom() -> Atom:
    return Atom(DIST_LEQ)


def eq_atom(const_index: int) -> Atom:
    return Atom(EQ_NBHD, const_index)


# A complete type over a formula list: one polarity per formula, aligned
# by position. Exactly one type holds for any fixed argument pair.
PhiType = tuple[bool, ...]


def all_phi_types(phi_count: int) -> tuple[PhiType, ...]:
    if phi_count < 1:
        raise InputError(f"need at least one formula, got {phi_count}")
    return tuple(product((True, False), repeat=phi_count))


@dataclass(frozen=True)
class Pattern:
    """Sequence of entries, each a nonempty set of types (a disjunction).

    The existential reading: gamma(y_1..y_k) holds iff some single vertex
    z satisfies entry_i(z, y_i) for every i.
    """

    entries: tuple[frozenset, ...]

    def __init__(self, entries: Iterable[Iterable[PhiType]]):
        norm = tuple(frozenset(e) for e in entries)
        if not norm:
            raise InputError("pattern needs at least one entry")
        if any(not e for e in norm):
            raise InputError("pattern entries must be nonempty type sets")
        object.__setattr__(self, "entries", norm)

    def __len__(self) -> int:
        return len(self.entries)


def type_pattern(types: Iterable[PhiType]) -> Pattern:
    """Pattern whose entries are single types (the canonical generators)."""
    return Pattern(tuple((t,) for t in types))


class EvalContext:
    """Graph plus marked constants and per-vertex memo tables.

    Balls are computed the first time a vertex needs one; ``balls`` may
    hand in balls already computed at ``ball_radius``, as vertex -> mask,
    and they are taken as given. Atom masks are memoized as one dict per
    atom, and entry masks as one dict per (phi, entry), each from y to
    mask, so a row over a sequence looks its dict up once and then reads
    every item with one ``map``. Immutable after construction apart from
    these memo tables; safe to share across threads for read-only
    evaluation.
    """

    __slots__ = ("graph", "constants", "ball_radius", "_balls",
                 "_atom_masks", "_entry_masks")

    def __init__(self, graph: Graph, constants: Sequence[int] = (),
                 ball_radius: int = 1, *,
                 balls: Mapping[int, int] | None = None):
        if ball_radius < 0:
            raise InputError(f"ball radius must be nonnegative, got {ball_radius}")
        for c in constants:
            graph.check_vertex(c)
        self.graph = graph
        self.constants = tuple(constants)
        self.ball_radius = ball_radius
        self._balls: dict[int, int] = dict(balls) if balls else {}
        self._atom_masks: dict = {}
        self._entry_masks: dict = {}

    def constant(self, index: int) -> int:
        if not 0 <= index < len(self.constants):
            raise InputError(f"constant index {index} out of range "
                             f"(have {len(self.constants)})")
        return self.constants[index]

    def ball(self, y: int) -> int:
        """Mask of the radius-``ball_radius`` ball around y, cached."""
        got = self._balls.get(y)
        if got is None:
            got = self._balls[y] = ball_mask(self.graph, y, self.ball_radius)
        return got


def _atom_masks_at(ctx: EvalContext, atom: Atom, ys) -> list[int]:
    """The atom's masks at each of ``ys``, computed without the memo.

    An eq_nbhd mask is the constant's class under ``eq_class_mask`` over
    the ball of y: O(|ball|) mask operations, not a pass over the graph.
    """
    if atom.kind == EDGE:
        return list(map(ctx.graph.rows.__getitem__, ys))
    if atom.kind == DIST_LEQ:
        return list(map(ctx.ball, ys))
    const = ctx.constant(atom.const)
    return [eq_class_mask(ctx.graph, const, ctx.ball(y)) for y in ys]


def atom_mask(ctx: EvalContext, atom: Atom, y: int) -> int:
    """Bitmask of all x with atom(x, y), cached in the atom's dict by y."""
    memo = ctx._atom_masks.setdefault(atom, {})
    got = memo.get(y)
    if got is None:
        got = memo[y] = _atom_masks_at(ctx, atom, (y,))[0]
    return got


def _atom_row(ctx: EvalContext, atom: Atom, ys: list[int]) -> list[int]:
    """``atom_mask`` at each of ``ys``, with one memo lookup for the list
    and the missing masks computed together."""
    memo = ctx._atom_masks.setdefault(atom, {})
    row = list(map(memo.get, ys))
    if None in row:
        missing = list(compress(ys, map(is_, row, repeat(None))))
        memo.update(zip(missing, _atom_masks_at(ctx, atom, missing)))
        row = list(map(memo.__getitem__, ys))
    return row


def eval_atom(ctx: EvalContext, atom: Atom, x: int, y: int) -> bool:
    ctx.graph.check_vertex(x)
    ctx.graph.check_vertex(y)
    return bool(atom_mask(ctx, atom, y) >> x & 1)


def entry_row(ctx: EvalContext, phi: tuple[Atom, ...], entry: frozenset,
              items: Sequence[int]) -> list[int]:
    """The entry's witness mask at each of ``items``: every x whose type
    over ``phi`` at y lies in ``entry``.

    The memo for (phi, entry) is looked up once per call and read for
    every item with one ``map``. The items it misses are filled together:
    each type's masks there are the AND, over the formulas, of the atom's
    row or of its complement, and the entry's are the OR over its types,
    each step one ``map`` over the missing items. So a row costs O(|entry|
    * |phi|) C-level passes, not one pass per (type, item).
    """
    key = (phi, entry)
    memo = ctx._entry_masks.get(key)
    if memo is None:
        memo = ctx._entry_masks[key] = {}
    row = list(map(memo.get, items))
    if None in row:
        missing = list(compress(items, map(is_, row, repeat(None))))
        full = ctx.graph.full_mask()
        atom_rows = [_atom_row(ctx, atom, missing) for atom in phi]
        fill = None
        for tau in entry:
            if len(tau) != len(phi):
                raise InputError(f"type arity {len(tau)} does not match "
                                 f"|phi|={len(phi)}")
            m = None
            for am, positive in zip(atom_rows, tau):
                # atom masks lie within ``full``, so xor is its complement
                part = am if positive else map(full.__xor__, am)
                m = list(part) if m is None else list(map(and_, m, part))
            fill = m if fill is None else list(map(or_, fill, m))
        memo.update(zip(missing, fill))
        row = list(map(memo.__getitem__, items))
    return row


# Only the tests call it; the benchmark's tracer still names it as a span.
def entry_mask(ctx: EvalContext, phi: tuple[Atom, ...], entry: frozenset,
               y: int) -> int:
    return entry_row(ctx, phi, entry, (y,))[0]


PATTERN_CAP = 100_000


@lru_cache(maxsize=8)
def enumerate_type_patterns(phi_count: int, k: int) -> tuple[Pattern, ...]:
    """All patterns of length 1..k with single-type entries.

    These generate indiscernibility for arbitrary boolean-combination
    patterns: types partition witnesses, so the existential over a
    combination entry is the OR over its type choices. Count is
    sum over l of (2^phi_count)^l; a count above ``PATTERN_CAP`` raises
    before any type or pattern is built (at k = 4: from phi_count 5 on).

    Each type's singleton entry is built once and shared by every pattern
    that uses it, so entry-keyed caches hash and compare each entry by
    identity. The result is memoised per (phi_count, k) and is immutable,
    so every caller gets the same tuple; errors are not cached. The memo
    holds at most 8 results. The largest under the cap, (4, 4), is 69,904
    patterns in about 11 MB; a construction run asks for at most four
    (phi_count 1..4 at one k).
    """
    if k < 1:
        raise InputError(f"max pattern length must be >= 1, got {k}")
    total = 0
    for length in range(1, k + 1):
        total += 2 ** (phi_count * length)
        if total > PATTERN_CAP:
            raise BudgetExceeded(
                f"type patterns over {phi_count} formulas up to length {k} "
                f"exceed the cap of {PATTERN_CAP}; lower k or |phi|")
    entries = [frozenset((t,)) for t in all_phi_types(phi_count)]
    return tuple(Pattern(combo) for length in range(1, k + 1)
                 for combo in product(entries, repeat=length))
