"""Restricted formula evaluation over graphs: atomic connections (edge,
bounded distance), neighborhood-equivalence over a third vertex's ball,
complete types over a formula set, and the existential pattern formulas
used for indiscernibility.

Evaluation is mask-based: for a fixed second argument y, each atom has a
bitmask of satisfying first arguments, computed once and cached on the
EvalContext, and so has each pattern entry. Pattern evaluation then
reduces to AND/OR over masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Sequence

from .errors import BudgetExceeded, InputError
from .graphcore import Graph, ball_mask, eq_class_mask, phi_equivalent_over

EDGE = "edge"
DIST_LEQ = "dist_leq"
EQ_NBHD = "eq_nbhd"


@dataclass(frozen=True)
class Atom:
    """One binary atomic formula phi(x, y).

    kind "edge": adjacency. kind "dist_leq": dist(x, y) <= the context's
    ball radius. kind "eq_nbhd": x is edge-equivalent to constant
    ``const`` over the ball of y (see eval_eq_nbhd).
    """

    kind: str
    const: int | None = None

    def __post_init__(self):
        if self.kind not in (EDGE, DIST_LEQ, EQ_NBHD):
            raise InputError(f"unknown atom kind {self.kind!r}")
        if self.kind == EQ_NBHD and self.const is None:
            raise InputError("eq_nbhd atom needs a constant index")
        if self.kind != EQ_NBHD and self.const is not None:
            raise InputError(f"{self.kind} atom takes no constant index")


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
    and they are taken as given. Atom masks are memoized per (atom, y).
    Entry masks are memoized per (phi, entry), as one dict from y to
    mask, so a scan over a sequence looks each entry up once and then
    indexes by vertex. Type masks have no memo of their own: each is
    computed only when an entry mask is first built. Immutable after
    construction apart from these memo tables; safe to share across
    threads for read-only evaluation.
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


def eval_eq_nbhd(ctx: EvalContext, const_index: int, x: int, y: int) -> bool:
    """x and the constant agree over the ball of y.

    True iff x and constants[const_index] have the same membership status
    in ball(y, ball_radius) and identical edge-neighborhoods inside it.
    Row masks make each call O(n/wordsize).
    """
    c = ctx.constant(const_index)
    ctx.graph.check_vertex(x)
    return phi_equivalent_over(ctx.graph, x, c, ctx.ball(y))


def atom_mask(ctx: EvalContext, atom: Atom, y: int) -> int:
    """Bitmask of all x with atom(x, y), cached per (atom, y).

    An eq_nbhd mask is the constant's class under ``eq_class_mask`` over
    the ball of y: O(|ball|) mask operations, not a pass over the graph.
    """
    key = (atom, y)
    got = ctx._atom_masks.get(key)
    if got is not None:
        return got
    if atom.kind == EDGE:
        m = ctx.graph.rows[y]
    elif atom.kind == DIST_LEQ:
        m = ctx.ball(y)
    else:
        m = eq_class_mask(ctx.graph, ctx.constant(atom.const), ctx.ball(y))
    ctx._atom_masks[key] = m
    return m


def eval_atom(ctx: EvalContext, atom: Atom, x: int, y: int) -> bool:
    if atom.kind == EQ_NBHD:
        return eval_eq_nbhd(ctx, atom.const, x, y)
    return bool(atom_mask(ctx, atom, y) >> x & 1)


def type_mask(ctx: EvalContext, phi: tuple[Atom, ...], tau: PhiType,
              y: int) -> int:
    """Bitmask of all x whose complete type over ``phi`` at y is ``tau``.

    Computed from the memoized atom masks on every call, without a memo
    of its own; ``entry_row`` memoizes what it builds from these.
    """
    if len(tau) != len(phi):
        raise InputError(f"type arity {len(tau)} does not match |phi|={len(phi)}")
    full = ctx.graph.full_mask()
    m = full
    for atom, positive in zip(phi, tau):
        am = atom_mask(ctx, atom, y)
        m &= am if positive else full & ~am
        if not m:
            break
    return m


def eval_type(ctx: EvalContext, phi: tuple[Atom, ...], tau: PhiType,
              x: int, y: int) -> bool:
    return bool(type_mask(ctx, phi, tau, y) >> x & 1)


def entry_row(ctx: EvalContext, phi: tuple[Atom, ...], entry: frozenset,
              items: Iterable[int]) -> list[int]:
    """The entry's witness mask at each of ``items``: every x whose type
    over ``phi`` at y lies in ``entry``.

    The memo for (phi, entry) is looked up once per call and then indexed
    by y, so a row over a sequence hashes the pattern entry only once.
    """
    key = (phi, entry)
    memo = ctx._entry_masks.get(key)
    if memo is None:
        memo = ctx._entry_masks[key] = {}
    row = []
    for y in items:
        m = memo.get(y)
        if m is None:
            m = 0
            for tau in entry:
                m |= type_mask(ctx, phi, tau, y)
            memo[y] = m
        row.append(m)
    return row


def entry_mask(ctx: EvalContext, phi: tuple[Atom, ...], entry: frozenset,
               y: int) -> int:
    return entry_row(ctx, phi, entry, (y,))[0]


def eval_gamma(ctx: EvalContext, phi: tuple[Atom, ...], pattern: Pattern,
               vertices: Sequence[int]) -> tuple[bool, int | None]:
    """Existential pattern evaluation.

    True iff a single witness z satisfies entry_i(z, vertices[i]) for all
    i; the smallest such z is returned. Witnesses range over the whole
    vertex set, the tuple's own members included.
    """
    if len(vertices) != len(pattern):
        raise InputError(f"tuple length {len(vertices)} does not match "
                         f"pattern length {len(pattern)}")
    m = ctx.graph.full_mask()
    for entry, y in zip(pattern.entries, vertices):
        m &= entry_mask(ctx, phi, entry, y)
        if not m:
            return False, None
    return True, (m & -m).bit_length() - 1


def enumerate_type_patterns(phi_count: int, k: int,
                            cap: int = 100_000) -> list[Pattern]:
    """All patterns of length 1..k with single-type entries.

    These generate indiscernibility for arbitrary boolean-combination
    patterns: types partition witnesses, so the existential over a
    combination entry is the OR over its type choices. Count is
    sum over l of (2^phi_count)^l; exceeding ``cap`` raises.
    """
    if k < 1:
        raise InputError(f"max pattern length must be >= 1, got {k}")
    types = all_phi_types(phi_count)
    t = len(types)
    total = sum(t ** length for length in range(1, k + 1))
    if total > cap:
        raise BudgetExceeded(
            f"{total} type patterns exceed the cap of {cap}; "
            f"lower k or |phi|")
    out = []
    for length in range(1, k + 1):
        for combo in product(types, repeat=length):
            out.append(type_pattern(combo))
    return out
