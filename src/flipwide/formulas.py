"""Restricted formula evaluation over graphs: atomic connections (edge,
bounded distance), neighborhood-equivalence over a third vertex's ball,
complete types over a formula set, and the existential pattern formulas
used for indiscernibility.

Evaluation is mask-based: for a fixed second argument y, each atom has a
bitmask of satisfying first arguments, computed once and cached in the
EvalContext's one atom memo, where the balls are the dist_leq atom's row.
Pattern evaluation then reduces to AND/OR over masks.
``type_rows`` builds every complete type's masks over a whole item list
at once, by splitting the atoms' rows, and ``entry_row`` ORs the rows of
an entry's types. Neither keeps what it builds: the caller that reads a
row more than once keeps it. The pointwise definitions of types and
patterns that they are checked against live in the tests
(``tests/pointwise.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import compress, product, repeat
from operator import and_, is_, or_, xor
from typing import Iterable, Sequence

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
    ball radius. kind "eq_nbhd": x is edge-equivalent to the constant
    vertex ``const`` over the ball of y (see graphcore.phi_equivalent_over).

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
            raise InputError("eq_nbhd atom needs a constant vertex")
        if self.kind != EQ_NBHD and self.const is not None:
            raise InputError(f"{self.kind} atom takes no constant vertex")
        object.__setattr__(self, "_hash",
                           hash((_KIND_CODES[self.kind], self.const or 0)))

    def __hash__(self) -> int:
        return self._hash


# The balls are this atom's row in the context's memo.
_BALL = Atom(DIST_LEQ)


def edge_atom() -> Atom:
    return Atom(EDGE)


def dist_atom() -> Atom:
    return _BALL


def eq_atom(vertex: int) -> Atom:
    return Atom(EQ_NBHD, vertex)


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
    """Graph, ball radius and one atom memo.

    Atom masks are memoized as one dict per atom, from y to mask, so a row
    over a sequence looks its dict up once and then reads every item with
    one ``map``; the balls are the dist_leq atom's row, computed the first
    time a vertex needs one. Type and entry rows are built from those rows
    and not memoized. Immutable after construction apart from the memo;
    safe to share across threads for read-only evaluation.
    """

    __slots__ = ("graph", "ball_radius", "_atom_masks")

    def __init__(self, graph: Graph, ball_radius: int = 1):
        if ball_radius < 0:
            raise InputError(f"ball radius must be nonnegative, got {ball_radius}")
        self.graph = graph
        self.ball_radius = ball_radius
        self._atom_masks: dict = {}


def _atom_masks_at(ctx: EvalContext, atom: Atom, ys) -> list[int]:
    """The atom's masks at each of ``ys``, computed without its own memo.

    An eq_nbhd mask is the constant's class under ``eq_class_mask`` over
    the ball of y, read from the dist_leq row: O(|ball|) mask operations,
    not a pass over the graph.
    """
    g = ctx.graph
    if atom.kind == EDGE:
        return list(map(g.rows.__getitem__, ys))
    if atom.kind == DIST_LEQ:
        return [ball_mask(g, y, ctx.ball_radius) for y in ys]
    g.check_vertex(atom.const)
    return [eq_class_mask(g, atom.const, ball)
            for ball in _atom_row(ctx, _BALL, ys)]


def _atom_row(ctx: EvalContext, atom: Atom, ys: Sequence[int]) -> list[int]:
    """The atom's mask at each of ``ys``, from its memo: one lookup of the
    atom's dict for the list, and the missing masks computed together. An
    atom new to the memo enters it once its first row is computed, so one
    that fails (an eq atom naming a vertex out of range) leaves no entry."""
    memo = ctx._atom_masks.get(atom)
    if memo is None:
        row = _atom_masks_at(ctx, atom, ys)
        ctx._atom_masks[atom] = dict(zip(ys, row))
        return row
    row = list(map(memo.get, ys))
    if None in row:
        missing = list(compress(ys, map(is_, row, repeat(None))))
        memo.update(zip(missing, _atom_masks_at(ctx, atom, missing)))
        row = list(map(memo.__getitem__, ys))
    return row


def atom_mask(ctx: EvalContext, atom: Atom, y: int) -> int:
    """Bitmask of all x with atom(x, y), cached in the atom's dict by y."""
    return _atom_row(ctx, atom, (y,))[0]


def eval_atom(ctx: EvalContext, atom: Atom, x: int, y: int) -> bool:
    ctx.graph.check_vertex(x)
    ctx.graph.check_vertex(y)
    return bool(atom_mask(ctx, atom, y) >> x & 1)


def type_rows(ctx: EvalContext, phi: tuple[Atom, ...],
              items: Sequence[int]) -> list[list[int]]:
    """Every complete type's witness mask at each of ``items``, one row
    per type in ``all_phi_types(len(phi))`` order.

    The first atom's row and its complement are the two types over it;
    each further atom splits every row into the witnesses inside its row
    and those outside, which keeps the order of ``all_phi_types``. One
    ``_atom_row`` per atom and 2^(|phi|+1) - 2 ``map`` passes build every
    row, however many types are empty.
    """
    if not phi:
        raise InputError("need at least one formula, got 0")
    full = ctx.graph.full_mask()
    first = _atom_row(ctx, phi[0], items)
    # atom masks lie within ``full``, so xor is its complement
    rows = [first, list(map(full.__xor__, first))]
    for atom in phi[1:]:
        am = _atom_row(ctx, atom, items)
        split = []
        for row in rows:
            inside = list(map(and_, row, am))
            split += inside, list(map(xor, row, inside))
        rows = split
    return rows


def entry_row(ctx: EvalContext, phi: tuple[Atom, ...], entry: frozenset,
              items: Sequence[int]) -> list[int]:
    """The entry's witness mask at each of ``items``: every x whose type
    over ``phi`` at y lies in ``entry``, the OR of its types' rows from
    ``type_rows``."""
    if not entry:
        raise InputError("an entry must be a nonempty type set")
    rows = type_rows(ctx, phi, items)
    picked = []
    for tau in entry:
        if len(tau) != len(phi):
            raise InputError(f"type arity {len(tau)} does not match "
                             f"|phi|={len(phi)}")
        # all_phi_types counts in binary, True as 0, first formula highest
        picked.append(rows[sum(1 << i for i, positive
                               in enumerate(reversed(tau)) if not positive)])
    return reduce(lambda acc, row: list(map(or_, acc, row)), picked)


# Only the tests call it; the benchmark's tracer still names it as a span.
def entry_mask(ctx: EvalContext, phi: tuple[Atom, ...], entry: frozenset,
               y: int) -> int:
    ctx.graph.check_vertex(y)
    return entry_row(ctx, phi, entry, (y,))[0]


PATTERN_CAP = 100_000


@lru_cache(maxsize=8)
def _single_entries(phi_count: int) -> tuple[frozenset, ...]:
    """Each type's singleton entry, in ``all_phi_types`` order: the one
    builder of them, so entry-keyed caches meet the same objects."""
    return tuple(frozenset((t,)) for t in all_phi_types(phi_count))


@lru_cache(maxsize=8)
def enumerate_type_patterns(phi_count: int, k: int) -> tuple[Pattern, ...]:
    """All patterns of length 1..k with single-type entries.

    These generate indiscernibility for arbitrary boolean-combination
    patterns: types partition witnesses, so the existential over a
    combination entry is the OR over its type choices. Count is
    sum over l of (2^phi_count)^l; a count above ``PATTERN_CAP`` raises
    before any type or pattern is built (at k = 4: from phi_count 5 on).

    Each type's singleton entry comes from ``_single_entries`` and is
    shared by every pattern that uses it, so entry-keyed caches hash and
    compare each entry by identity. The result is memoised per
    (phi_count, k) and is immutable, so every caller gets the same tuple;
    errors are not cached. The memo holds at most 8 results. The largest
    under the cap, (4, 4), is 69,904 patterns in about 11 MB; a
    construction run asks for at most four (phi_count 1..4 at one k).
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
    entries = _single_entries(phi_count)
    return tuple(Pattern(combo) for length in range(1, k + 1)
                 for combo in product(entries, repeat=length))
