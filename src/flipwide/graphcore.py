"""Immutable simple graphs with bitset adjacency, flips, and BFS utilities.

Vertices are 0..n-1. Adjacency is stored as one int bitmask per vertex,
which keeps flip application and ball computations cheap at the sizes this
package targets (a few hundred vertices).

A flip (A, B) toggles exactly the unordered pairs {u, v}, u != v, with
(u, v) in (A x B) union (B x A). Membership is a predicate on the pair, so
a pair covered by both orderings is still toggled only once, and A == B
toggles every pair inside A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from .errors import InputError

INF = math.inf


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Sequence[int] | None = None):
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        self.n = n
        if rows is None:
            self.rows = (0,) * n
        else:
            if len(rows) != n:
                raise InputError(f"expected {n} adjacency rows, got {len(rows)}")
            self.rows = tuple(rows)

    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        """Wrap rows this module built itself, skipping validation."""
        g = cls.__new__(cls)
        g.n = n
        g.rows = rows
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u} is not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    def adj(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(iter_bits(self.rows[v]))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for u, row in enumerate(self.rows):
            rest = row >> (u + 1) << (u + 1)
            while rest:
                low = rest & -rest
                yield (u, low.bit_length() - 1)
                rest ^= low

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InputError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"


# ---------------------------------------------------------------------------
# BFS and distance helpers


def _bfs_levels(g: Graph, start_mask: int, limit: float = INF) -> list[int]:
    """Frontier masks per distance, starting at distance 0.

    Stops when the frontier empties or ``limit`` levels were produced, so a
    huge radius costs nothing beyond the graph's true eccentricity.
    """
    rows = g.rows
    seen = start_mask
    frontier = start_mask
    levels = [start_mask]
    dist = 0
    while frontier and dist < limit:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= rows[low.bit_length() - 1]
            f ^= low
        nxt &= ~seen
        if not nxt:
            break
        seen |= nxt
        levels.append(nxt)
        frontier = nxt
        dist += 1
    return levels


def ball_mask(g: Graph, v: int, radius: int) -> int:
    """Bitmask of the closed distance-``radius`` ball around ``v``."""
    g.check_vertex(v)
    if radius < 0:
        raise InputError(f"radius must be nonnegative, got {radius}")
    m = 0
    for lv in _bfs_levels(g, 1 << v, radius):
        m |= lv
    return m


def phi_equivalent_over(g: Graph, a: int, b: int, ball: int) -> bool:
    """Same membership in ``ball`` and identical edge-neighborhood inside it."""
    if (ball >> a & 1) != (ball >> b & 1):
        return False
    return (g.rows[a] & ball) == (g.rows[b] & ball)


def eq_class_mask(g: Graph, s: int, ball: int) -> int:
    """Bitmask of every x with ``phi_equivalent_over(g, x, s, ball)``.

    x qualifies when it has s's membership in ``ball`` and, for each u in
    the ball, is adjacent to u exactly when s is: the intersection of
    ``ball`` (or its complement) with rows[u] or ~rows[u] per ball
    vertex u. That is O(|ball|) big-int operations, not a pass over n.
    """
    rows = g.rows
    srow = rows[s]
    m = ball if ball >> s & 1 else g.full_mask() & ~ball
    rest = ball
    while rest and m:
        low = rest & -rest
        row = rows[low.bit_length() - 1]
        m &= row if srow & low else ~row
        rest ^= low
    return m


def ball(g: Graph, v: int, radius: int) -> frozenset[int]:
    return frozenset(iter_bits(ball_mask(g, v, radius)))


def distances_from(g: Graph, sources: Iterable[int]) -> list[float]:
    """Multi-source BFS distances; unreachable vertices get math.inf."""
    start = mask_of(sources)
    dist: list[float] = [INF] * g.n
    for d, level in enumerate(_bfs_levels(g, start)):
        for v in iter_bits(level):
            dist[v] = d
    return dist


def exact_distance_layer(g: Graph, sources: Iterable[int], i: int) -> frozenset[int]:
    """Vertices at distance exactly ``i`` from the source set."""
    if i < 0:
        raise InputError(f"layer index must be nonnegative, got {i}")
    levels = _bfs_levels(g, mask_of(sources), i)
    if i < len(levels):
        return frozenset(iter_bits(levels[i]))
    return frozenset()


def all_pairs_distance(g: Graph) -> list[list[float]]:
    """Dense distance table via n BFS runs. Rows follow vertex order."""
    return [distances_from(g, (v,)) for v in range(g.n)]


def is_distance_r_independent(
    g: Graph, members: Iterable[int], r: float
) -> tuple[bool, tuple[int, int] | None]:
    """Check pairwise distance > r over all distinct members.

    Returns (True, None) or (False, (u, v)) with a concrete violating pair.
    ``r`` may be arbitrarily large; BFS stops at the graph's eccentricity.
    """
    vs = sorted(set(members))
    for v in vs:
        g.check_vertex(v)
    member_mask = mask_of(vs)
    for u in vs:
        reach = 0
        for level in _bfs_levels(g, 1 << u, r):
            reach |= level
        hit = reach & member_mask & ~(1 << u)
        if hit:
            v = (hit & -hit).bit_length() - 1
            return False, (u, v)
    return True, None


# ---------------------------------------------------------------------------
# Flips


@dataclass(frozen=True)
class Flip:
    """One flip, stored as sorted vertex tuples. (A, B) and (B, A) are
    distinct values but act identically on any graph."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __init__(self, a: Iterable[int], b: Iterable[int]):
        object.__setattr__(self, "a", tuple(sorted(set(a))))
        object.__setattr__(self, "b", tuple(sorted(set(b))))
        for v in self.a + self.b:
            if v < 0:
                raise InputError(f"negative vertex id {v} in flip")

    def mirror(self) -> "Flip":
        # both sides are already sorted and checked
        out = object.__new__(Flip)
        object.__setattr__(out, "a", self.b)
        object.__setattr__(out, "b", self.a)
        return out


FlipSet = tuple[Flip, ...]


def apply_flips(g: Graph, flips: Iterable[Flip]) -> Graph:
    """Apply flips by toggle parity; order never matters.

    Each flip (A, B) xors the pair set (A x B) union (B x A), minus the
    diagonal, into the edge set. A vertex of A only toggles B, a vertex of
    B only toggles A, and a vertex of A intersect B toggles A union B
    once, minus itself.
    """
    rows = list(g.rows)
    n = g.n
    for f in flips:
        if (f.a and f.a[-1] >= n) or (f.b and f.b[-1] >= n):
            raise InputError(f"flip touches vertices outside 0..{n - 1}")
        amask = mask_of(f.a)
        bmask = mask_of(f.b)
        for u in f.a:
            if bmask >> u & 1:
                rows[u] ^= (amask | bmask) & ~(1 << u)
            else:
                rows[u] ^= bmask
        for u in f.b:
            if not amask >> u & 1:
                rows[u] ^= amask
    return Graph._trusted(n, tuple(rows))


# ---------------------------------------------------------------------------
# Edge list text format: first line "n m", then one "u v" line per edge.
# Blank lines and lines starting with '#' are ignored.

# Largest vertex count accepted, far above the few hundred vertices the
# package targets; a larger header or generated graph is rejected before
# any allocation.
MAX_VERTICES = 10**6


def check_vertex_count(n: int, what: str = "vertex count") -> None:
    """Raise ``InputError`` when ``n`` exceeds ``MAX_VERTICES``."""
    if n > MAX_VERTICES:
        raise InputError(f"{what} {n} exceeds the limit of {MAX_VERTICES}")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge list text format into a Graph.

    Grammar, per line of ``text.splitlines()`` after ``str.strip``: blank
    lines and lines starting with '#' are skipped. The first remaining
    line is the header ``n m`` and exactly ``m`` edge lines ``u v`` follow,
    each two integers in the sense of ``int()`` separated by whitespace,
    with ``0 <= u, v < n`` and ``u != v``. No unordered pair may appear
    twice, and ``n`` may not exceed ``MAX_VERTICES``.

    Canonical text, where each edge line is two decimal ids without sign
    or leading zeros separated by one space (as ``format_edge_list``
    writes it), is read in bulk. Any other text, valid or not, is read
    line by line; that pass accepts the same inputs and raises the first
    ``InputError``, prefixed with the 1-based line of ``text`` it concerns.
    The bulk read only returns what that pass would, so the two never
    disagree.
    """
    g = _parse_canonical(text)
    return _parse_lines(text) if g is None else g


def _parse_canonical(text: str) -> Graph | None:
    """The graph of canonical, valid text, else None."""
    lines = [s for s in map(str.strip, text.splitlines())
             if s and s[0] != "#"]
    try:
        n, m = map(int, lines[0].split())
    except (IndexError, ValueError):
        return None
    body = lines[1:]
    if not (0 <= n <= MAX_VERTICES and m == len(body)):
        return None
    # Keys are the canonical spellings of the ids a body of m lines can
    # name without exceeding its own token count, so the table grows with
    # the text, not with n; a larger id misses and goes line by line.
    k = min(n, 2 * m)
    index = dict(zip(map(str, range(k)), range(k)))
    rows = [0] * n
    try:
        # A line without a space leaves b empty, and a line with two
        # leaves a space in b; neither is a key.
        for a, _, b in map(str.partition, body, repeat(" ")):
            u = index[a]
            v = index[b]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    except KeyError:
        return None
    g = Graph._trusted(n, tuple(rows))
    # A repeated edge adds no bits and a self-loop adds one where an edge
    # adds two, so either leaves fewer than m edges.
    return g if g.edge_count() == m else None


def _parse_lines(text: str) -> Graph:
    """Line-by-line parse of any text, raising the first error it meets."""
    stripped = enumerate(map(str.strip, text.splitlines()), 1)
    numbered = [(i, s) for i, s in stripped if s and s[0] != "#"]
    if not numbered:
        raise InputError("empty edge list input")
    (at, header), body = numbered[0], numbered[1:]
    try:
        n, m = map(int, header.split())
    except ValueError:
        raise InputError(f"line {at}: header must be 'n m', got "
                         f"{header!r}") from None
    check_vertex_count(n, f"line {at}: header vertex count")
    if len(body) != m:
        raise InputError(f"line {at}: header promises {m} edges, found "
                         f"{len(body)}")
    edges = []
    for at, line in body:
        try:
            u, v = map(int, line.split())
        except ValueError:
            raise InputError(f"line {at}: edge line must be 'u v', got "
                             f"{line!r}") from None
        edges.append((at, u, v))
    rows = [0] * n
    repeat_at = None
    for at, u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"line {at}: edge ({u}, {v}) out of range for "
                             f"n={n}")
        if u == v:
            raise InputError(f"line {at}: self-loop at vertex {u} is not "
                             "allowed")
        if repeat_at is None and rows[u] >> v & 1:
            repeat_at = (at, u, v)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    g = Graph(n, rows)
    if repeat_at is not None:
        at, u, v = repeat_at
        raise InputError(f"line {at}: edge ({u}, {v}) repeats an edge: "
                         f"header promises {m} edges, found "
                         f"{g.edge_count()} distinct")
    return g


def format_edge_list(g: Graph) -> str:
    """Write ``g`` as canonical edge list text: the header ``n m``, then
    one ``u v`` line per edge with ``u < v`` in lexicographic order, each
    line ending in a newline. ``parse_edge_list`` reads it back in bulk."""
    out = [f"{g.n} {g.edge_count()}"]
    for u, v in g.edges():
        out.append(f"{u} {v}")
    return "\n".join(out) + "\n"
