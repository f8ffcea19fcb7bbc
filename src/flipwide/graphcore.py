"""Immutable simple graphs with bitset adjacency, flips, and BFS utilities.

Vertices are 0..n-1. Adjacency is stored as one int bitmask per vertex,
which keeps flip application and ball computations cheap at the sizes this
package targets (a few hundred vertices).

A flip (A, B) toggles exactly the unordered pairs {u, v}, u != v, with
(u, v) in (A x B) union (B x A). Membership is a predicate on the pair, so
a pair covered by both orderings is still toggled only once, and A == B
toggles every pair inside A.

Per-vertex counts over a list of masks are kept bit-sliced
(``_bit_planes``) and read by threshold (``_at_least``); the oracles'
ranks and the sample-set build's pick share them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from typing import Collection, Iterable, Iterator, Sequence

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


def _bit_planes(masks) -> list[int]:
    """Per-vertex counts of the masks holding each vertex, bit-sliced.

    Bit k of vertex b's count is bit b of ``planes[k]``. Each mask is
    added by ripple carry, so it costs O(log len(masks)) big-int
    operations for all vertices at once.
    """
    planes: list[int] = []
    for carry in masks:
        for k, p in enumerate(planes):
            planes[k] = p ^ carry
            carry &= p
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    return planes


def _at_least(planes: list[int], c: int, full: int) -> int:
    """Mask of the vertices in ``full`` whose bit-sliced count is >= c."""
    if c >> len(planes):
        return 0
    above, equal = 0, full
    for k in range(len(planes) - 1, -1, -1):
        p = planes[k]
        if c >> k & 1:
            equal &= p
        else:
            above |= equal & p
            equal &= ~p
    return above | equal


class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Sequence[int] | None = None):
        """Rows, when given, must be a simple undirected graph: no bit at
        or above n, no self-loop, and v in row u exactly when u is in row
        v. Any other rows raise ``InputError``."""
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        self.n = n
        if rows is None:
            self.rows = (0,) * n
            return
        if len(rows) != n:
            raise InputError(f"expected {n} adjacency rows, got {len(rows)}")
        rows = tuple(rows)
        for u, row in enumerate(rows):
            if row < 0 or row >> n:
                raise InputError(f"row {u} has bits outside 0..{n - 1}")
            if row >> u & 1:
                raise InputError(f"self-loop at vertex {u} is not allowed")
            for v in iter_bits(row):
                if not rows[v] >> u & 1:
                    raise InputError(f"row {u} holds {v} but row {v} does "
                                     f"not hold {u}")
        self.rows = rows

    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        """Wrap rows the package built itself as a simple undirected graph,
        skipping validation."""
        g = cls.__new__(cls)
        g.n = n
        g.rows = rows
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u} is not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._trusted(n, tuple(rows))

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
        return sum(map(int.bit_count, self.rows)) // 2

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InputError(f"vertex {v} out of range for n={self.n}")

    def check_vertices(self, vs: Sequence[int]) -> None:
        """``check_vertex`` on each of ``vs`` in order, so the first out of
        range is named; one min/max pass when none is."""
        if vs and (min(vs) < 0 or max(vs) >= self.n):
            for v in vs:
                self.check_vertex(v)

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

    Grows a level only while its distance is at most ``limit``, so a
    fractional limit stops at its floor, and stops when the frontier
    empties, so a huge radius costs nothing beyond the graph's true
    eccentricity.
    """
    rows = g.rows
    seen = start_mask
    frontier = start_mask
    levels = [start_mask]
    dist = 0
    while frontier and dist + 1 <= limit:
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


def ball_mask(g: Graph, v: int, radius: float) -> int:
    """Bitmask of the closed distance-``radius`` ball around ``v``: the
    vertices at distance at most ``radius``. Radii below 2 are read off
    ``v`` and its row without a BFS."""
    g.check_vertex(v)
    if radius < 0:
        raise InputError(f"radius must be nonnegative, got {radius}")
    if radius < 2:
        return g.rows[v] | 1 << v if radius >= 1 else 1 << v
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


def ball(g: Graph, v: int, radius: float) -> frozenset[int]:
    return frozenset(iter_bits(ball_mask(g, v, radius)))


def _check_vertices(g: Graph, vs: Collection[int]) -> None:
    """Raise ``InputError`` naming the lowest of ``vs`` out of range, as
    ``is_distance_r_independent`` does with its sorted members."""
    if vs and (min(vs) < 0 or max(vs) >= g.n):
        g.check_vertex(min(v for v in vs if not 0 <= v < g.n))


def distances_from(g: Graph, sources: Iterable[int]) -> list[float]:
    """Multi-source BFS distances; unreachable vertices get math.inf. The
    lowest out-of-range source raises ``InputError``."""
    sources = tuple(sources)
    _check_vertices(g, sources)
    start = mask_of(sources)
    dist: list[float] = [INF] * g.n
    for d, level in enumerate(_bfs_levels(g, start)):
        for v in iter_bits(level):
            dist[v] = d
    return dist


def exact_distance_layer(g: Graph, sources: Iterable[int], i: int) -> frozenset[int]:
    """Vertices at distance exactly ``i`` from the source set. The lowest
    out-of-range source raises ``InputError``."""
    if i < 0:
        raise InputError(f"layer index must be nonnegative, got {i}")
    sources = tuple(sources)
    _check_vertices(g, sources)
    levels = _bfs_levels(g, mask_of(sources), i)
    if i < len(levels):
        return frozenset(iter_bits(levels[i]))
    return frozenset()


def is_distance_r_independent(
    g: Graph, members: Iterable[int], r: float
) -> tuple[bool, tuple[int, int] | None]:
    """Check pairwise distance > r over all distinct members.

    Returns (True, None) or (False, (u, v)) with a concrete violating
    pair: u is the lowest member whose radius-r ball holds another
    member, v the lowest such member. A ball grows a level only while its
    distance is at most r, so it reaches distance floor(r): at r < 1 no
    member is near another, and at 1 <= r < 2 the balls are the rows,
    read in one pass over the members. At larger r an isolated
    member's ball is itself, so it is skipped; every other member's ball
    grows in place one frontier at a time, as in ``_bfs_levels``, so
    ``r`` may be arbitrarily large: the growth stops at the graph's
    eccentricity. The lowest out-of-range member raises ``InputError``.
    """
    vs = sorted(set(members))
    if vs and (vs[0] < 0 or vs[-1] >= g.n):
        g.check_vertex(vs[0] if vs[0] < 0 else vs[bisect_left(vs, g.n)])
    if r < 1:
        return True, None
    rows = g.rows
    member_mask = mask_of(vs)
    if r < 2:
        near = map(member_mask.__and__, map(rows.__getitem__, vs))
        u = next(compress(vs, near), None)
        if u is None:
            return True, None
        hit = rows[u] & member_mask
        return False, (u, (hit & -hit).bit_length() - 1)
    for u in compress(vs, map(rows.__getitem__, vs)):
        seen = frontier = 1 << u
        dist = 0
        while frontier and dist + 1 <= r:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= rows[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~seen
            seen |= frontier
            dist += 1
        hit = seen & member_mask & ~(1 << u)
        if hit:
            return False, (u, (hit & -hit).bit_length() - 1)
    return True, None


# ---------------------------------------------------------------------------
# Flips


@dataclass(frozen=True)
class Flip:
    """One flip, stored as its two sides: sorted tuples of distinct,
    nonnegative vertex ids. (A, B) and (B, A) are distinct values but act
    identically on any graph.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __init__(self, a: Iterable[int], b: Iterable[int]):
        a = tuple(sorted(set(a)))
        b = tuple(sorted(set(b)))
        for side in (a, b):
            if side and side[0] < 0:
                raise InputError(f"negative vertex id {side[0]} in flip")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def mirror(self) -> "Flip":
        return Flip(self.b, self.a)


FlipSet = tuple[Flip, ...]


def apply_flips(g: Graph, flips: Iterable[Flip]) -> Graph:
    """Apply flips by toggle parity; order never matters.

    Each flip (A, B) xors the pair set (A x B) union (B x A), minus the
    diagonal, into the edge set. Its largest id, the last of a sorted
    side, is checked against the graph before its masks are built. Then
    every vertex of A xors B into its row and every vertex of B xors A;
    when A == B these cancel and are skipped. Each u of both sides also
    xors (A intersect B) minus u, so in all it toggles (A union B) minus u.
    """
    rows = list(g.rows)
    n = g.n
    for f in flips:
        a, b = f.a, f.b
        if a and a[-1] >= n or b and b[-1] >= n:
            raise InputError(f"flip touches vertices outside 0..{n - 1}")
        amask = mask_of(a)
        bmask = mask_of(b)
        if amask != bmask:
            for u in a:
                rows[u] ^= bmask
            for u in b:
                rows[u] ^= amask
        both = amask & bmask
        for u in iter_bits(both):
            rows[u] ^= both ^ 1 << u
    return Graph._trusted(n, tuple(rows))


# ---------------------------------------------------------------------------
# Edge list text format: first line "n m", then one "u v" line per edge.
# Blank lines and lines starting with '#' are ignored.

# Largest vertex count accepted, far above the few hundred vertices the
# package targets; a larger header or generated graph is rejected before
# any allocation.
MAX_VERTICES = 10**6


def check_vertex_count(n: int, what: str = "vertex count") -> None:
    """Raise ``InputError`` when ``n`` is negative or exceeds
    ``MAX_VERTICES``."""
    if n < 0:
        raise InputError(f"{what} must be nonnegative, got {n}")
    if n > MAX_VERTICES:
        raise InputError(f"{what} {n} exceeds the limit of {MAX_VERTICES}")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge list text format into a Graph.

    Grammar, per line of ``text.splitlines()`` after ``str.strip``: blank
    lines and lines starting with '#' are skipped. The first remaining
    line is the header ``n m`` and exactly ``m`` edge lines ``u v`` follow,
    each two integers in the sense of ``int()`` separated by whitespace,
    with ``0 <= u, v < n`` and ``u != v``. No unordered pair may appear
    twice, and ``n`` may be neither negative nor above ``MAX_VERTICES``.

    Canonical text, where each edge line is two decimal ids without sign
    or leading zeros separated by one space (as ``format_edge_list``
    writes it), is read in bulk. Any other text, valid or not, is read
    line by line; that pass accepts the same inputs and raises the first
    ``InputError``, prefixed with the 1-based line of ``text`` it concerns.
    The bulk read only returns what that pass would, so the two never
    disagree. It first tests the layout of the whole text at once: with
    its ASCII digits deleted, the text must read one space and one
    newline per line, for the header and m edge lines. Text that fails
    is stripped line by line, with blank and '#' lines dropped, and
    tested once more; only text that fails again goes line by line. The
    bulk read then resolves the ids a chunk of lines at a time through a
    dict over the k = min(n, 2m) ids the text can name, requires 2m of
    them, and ORs each edge into two rows. When
    k*k <= 64*m it takes each id's bit from a table of ``1 << v`` over
    those ids, built per call and never larger than the text; otherwise,
    as for a star with many leaves, it shifts per endpoint.
    """
    g = _parse_canonical(text)
    return _parse_lines(text) if g is None else g


# Characters of text split or normalized at a time by the bulk read, cut
# at the next newline. Only one chunk's token or line strings are alive at
# once, which keeps the read of a dense 400-vertex text smaller and faster
# than one split of the whole text.
_CHUNK_CHARS = 1 << 14


def _chunks(text: str) -> Iterator[str]:
    """``text`` cut after a newline every ``_CHUNK_CHARS`` or so."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        yield text[start:stop]
        start = stop


def _parse_canonical(text: str) -> Graph | None:
    """The graph of canonical, valid text, else None."""
    layout = _canonical_layout(text) or _canonical_layout(_normalized(text))
    if layout is None:
        return None
    n, m, body = layout
    # Keys are the canonical spellings of the ids a body of m lines can
    # name without exceeding its own token count, so the table grows with
    # the text, not with n; a larger id misses and goes line by line.
    # Every id is resolved before any row is built, so text that is not
    # canonical leaves before the rows.
    k = min(n, 2 * m)
    get = dict(zip(map(str, range(k)), range(k))).__getitem__
    ends: list[int] = []
    try:
        for chunk in _chunks(body):
            ends += map(get, chunk.split())
    except KeyError:
        return None
    # Each of the m lines holds one space, so 2m ids mean none was empty
    # and line i gave ids 2i and 2i + 1.
    if len(ends) != 2 * m:
        return None
    rows = [0] * n
    pairs = iter(ends)
    if k * k <= 64 * m:
        # The k shifted ones take about 24k + k*k/15 bytes: the id dict
        # above already holds k entries, and k*k/15 <= 64m/15 is about
        # the size of m lines of four bytes or more. So a sparse text,
        # such as a star's, shifts per endpoint instead.
        bit = [1 << v for v in range(k)]
        for u, v in zip(pairs, pairs):
            rows[u] |= bit[v]
            rows[v] |= bit[u]
    else:
        for u, v in zip(pairs, pairs):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    g = Graph._trusted(n, tuple(rows))
    # A repeated edge adds no bits and a self-loop adds one where an edge
    # adds two, so either leaves fewer than m edges.
    return g if g.edge_count() == m else None


def _canonical_layout(text: str) -> tuple[int, int, str] | None:
    """``(n, m, body)`` when ``text`` is a header line ``n m`` and m more
    lines, each two runs of ASCII digits split by one space and ended by
    a newline, with 0 <= n <= MAX_VERTICES; else None. Runs may be empty.
    """
    head, _, body = text.partition("\n")
    try:
        n, m = map(int, head.split())
    except ValueError:
        return None
    # Digits after the last newline would not show in the shape below.
    if not (0 <= n <= MAX_VERTICES and text[-1:] == "\n"):
        return None
    # Without its digits such text is one space and one newline per line.
    # The lengths are compared first, so a huge m builds nothing, and a
    # lone surrogate encodes to bytes that fail the test.
    shape = text.encode("utf-8", "surrogatepass").translate(
        None, b"0123456789")
    if len(shape) != 2 * m + 2 or shape != b" \n" * (m + 1):
        return None
    return n, m, body


def _normalized(text: str) -> str:
    """``text`` with each line stripped, blank and '#' lines dropped and
    each line ended by a newline, built one chunk's lines at a time."""
    parts = []
    for chunk in _chunks(text):
        lines = filter(None, map(str.strip, chunk.splitlines()))
        if "#" in chunk:
            lines = [s for s in lines if s[0] != "#"]
        parts.append("\n".join(lines))
    return "\n".join(filter(None, parts)) + "\n"


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
    g = Graph._trusted(n, tuple(rows))
    if repeat_at is not None:
        at, u, v = repeat_at
        raise InputError(f"line {at}: edge ({u}, {v}) repeats an edge: "
                         f"header promises {m} edges, found "
                         f"{g.edge_count()} distinct")
    return g


# The writer formats a row's upper part ``rest`` of p bits and bit length
# w edge by edge when 32*p < w + 128; a denser row selects the ids it
# names from a list of id strings in one join, at a cost that grows with w.
# That list covers every id up to the row's last, so it is kept within
# 2m ids, m the edge count, like the output's m lines; a dense row that
# reaches past it makes its own id strings on the fly.
_DENSE_SLOPE = 32
_DENSE_OFFSET = 128

# Maps the digits of ``bin`` to the 0/1 selector bytes of ``compress``.
_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


def format_edge_list(g: Graph) -> str:
    """Write ``g`` as canonical edge list text: the header ``n m``, then
    one ``u v`` line per edge with ``u < v`` in lexicographic order, each
    line ending in a newline. ``parse_edge_list`` reads it back in bulk.

    Each row's upper part ``rest = row >> (u + 1)`` is written on its own.
    A row with few bits for its bit length is written one f-string per
    edge. A denser row is one ``str.join`` over the id strings that its
    reversed binary digits select; those strings are made when the first
    dense row needs them, and only up to the highest id a dense row
    names. A dense row whose last id is 2m or more, with m the edge
    count, makes the strings of its own ids one at a time instead, so the
    kept strings never outgrow the output and a large sparse graph never
    builds them.
    """
    m = g.edge_count()
    out = [f"{g.n} {m}"]
    names: list[str] = []
    for u, row in enumerate(g.rows):
        rest = row >> (u + 1)
        if not rest:
            continue
        width = rest.bit_length()
        if _DENSE_SLOPE * rest.bit_count() < width + _DENSE_OFFSET:
            while rest:
                low = rest & -rest
                out.append(f"{u} {u + low.bit_length()}")
                rest ^= low
            continue
        end = u + 1 + width
        if end > 2 * m:
            ids = map(str, range(u + 1, end))
        else:
            if len(names) < end:
                names += map(str, range(len(names), end))
            ids = names[u + 1:end]
        head = f"{u} "
        selectors = bin(rest)[:1:-1].encode().translate(_SELECTORS)
        out.append(head + ("\n" + head).join(compress(ids, selectors)))
    return "\n".join(out) + "\n"
