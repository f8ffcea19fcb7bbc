"""Pointwise reference definitions that the tests check the package against.

The package evaluates formulas a row at a time (``formulas.type_rows``)
and decides whole type patterns at once; these helpers state the same
things one vertex, one pair or one tuple at a time, so a test can compare
the two. None of them is part of the package's API.
"""

from __future__ import annotations

from typing import Sequence

from flipwide.errors import InputError
from flipwide.formulas import (Atom, EvalContext, Pattern, PhiType, atom_mask,
                               entry_mask)
from flipwide.graphcore import Graph, distances_from
from flipwide.indiscernibles import _check_items, _decide


def type_mask(ctx: EvalContext, phi: tuple[Atom, ...], tau: PhiType,
              y: int) -> int:
    """Bitmask of all x whose complete type over ``phi`` at y is ``tau``,
    from the memoized atom masks."""
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


def all_pairs_distance(g: Graph) -> list[list[float]]:
    """Dense distance table via n BFS runs. Rows follow vertex order."""
    return [distances_from(g, (v,)) for v in range(g.n)]


def em_type(ctx: EvalContext, phi: tuple[Atom, ...], patterns: Sequence[Pattern],
            items: Sequence[int]) -> list[Pattern]:
    """Patterns true on every increasing tuple, vacuous truth included,
    each decided by the package's own ``_decide``.

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
