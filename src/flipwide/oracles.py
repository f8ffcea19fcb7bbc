"""Diagnostic measures and witness searches over vertex sequences.

Rank functions count every vertex's connection profile at once. Column
i of a sequence is the row of its i-th vertex, the set of vertices
adjacent to it (rows are symmetric). Per-vertex counts over the columns,
or over their change masks, are kept as bit planes, so a rank costs
O(s log s) big-int operations for all n vertices instead of n * s
adjacency reads. Ties go to the lowest vertex.

The order, shattering, pairing and bipartite searches share one matrix
search: want(i, j) says whether row vertex i is adjacent to column
vertex j. It fixes the columns left to right, each in ascending vertex
order, narrowing one candidate bitmask per row, and returns the
lexicographically first column tuple with each row on its lowest
candidate. Before branching, every column and row gets a pool of the
vertices with enough neighbours and non-neighbours on the opposite side
for its want-vector; an empty pool is an exhaustive "none" at once. When
swapping any two adjacent columns maps the rows onto themselves
(shattering, pairing, matching, co-matching), the first witness has
ascending columns, so only ascending column tuples are tried. One node
is one column candidate tried, in every search. After ``max_nodes``
nodes a search stops and reports ``budget`` instead of ``exhaustive``. A
witness whose rows or columns need more distinct vertices than the graph
(or a bipartite side) has is an exhaustive "none" before any search
starts. Every witness found is re-validated entry by entry before it is
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, InternalInvariantError
from .formulas import Atom, EvalContext, PhiType, eval_atom
from .graphcore import Graph, _at_least, _bit_planes, iter_bits, mask_of

EXHAUSTIVE = "exhaustive"
BUDGET = "budget"


@dataclass(frozen=True)
class AlternationWitness:
    vertex: int
    indices: tuple[int, ...]


@dataclass(frozen=True)
class ExceptionWitness:
    vertex: int
    minority_indices: tuple[int, ...]


@dataclass(frozen=True)
class TypeDecomposition:
    ex: int
    tau_lt: PhiType | None
    tau_gt: PhiType | None


@dataclass(frozen=True)
class TypeFalsifier:
    indices: tuple[int, ...]
    types: tuple[PhiType, ...]


@dataclass(frozen=True)
class Witness:
    kind: str
    a_seq: tuple[int, ...]
    b_seq: tuple[int, ...]


@dataclass(frozen=True)
class OracleReport:
    witness: object | None
    search: str


def _columns(g: Graph, seq) -> list[int]:
    """Column i is the set of vertices b with adj(b, seq[i])."""
    for v in seq:
        g.check_vertex(v)
    return [g.rows[v] for v in seq]


def alternation_rank(
    g: Graph, seq,
) -> tuple[int, AlternationWitness | None]:
    """Most sign changes any vertex profile makes along the sequence.

    The witness holds the profiling vertex and one index per block of its
    profile, so the indices alternate in truth value and there are
    rank + 1 of them. The change masks ``col[i] ^ col[i - 1]`` are counted
    into bit planes for all vertices at once, and the planes are read top
    down for the largest count; the lowest vertex reaching it is the
    witness. Columns are read from rows, which are symmetric, and the
    witness profile is read from the same columns as the counts.
    """
    seq = list(seq)
    cols = _columns(g, seq)
    if not seq:
        return 0, None
    planes = _bit_planes(map(int.__xor__, cols, cols[1:]))
    best, top = 0, g.full_mask()
    for k in range(len(planes) - 1, -1, -1):
        hit = top & planes[k]
        if hit:
            best |= 1 << k
            top = hit
    b = (top & -top).bit_length() - 1
    prof = [c >> b & 1 for c in cols]
    idxs = [0] + [i for i in range(1, len(seq)) if prof[i] != prof[i - 1]]
    return best, AlternationWitness(b, tuple(idxs))


def exception_rank(
    g: Graph, seq,
) -> tuple[int, ExceptionWitness | None]:
    """Largest minority block: max over vertices of min(#true, #false).

    The true counts t of all vertices are counted into bit planes over
    the columns, and thresholds x are tried from s // 2 down until some
    vertex has x <= t <= s - x. The lowest such vertex is the witness, and
    its minority is its true positions when t * 2 == s. Columns are read
    from rows, which are symmetric, and the witness profile is read from
    the same columns as the counts.
    """
    seq = list(seq)
    cols = _columns(g, seq)
    if not seq:
        return 0, None
    s = len(seq)
    planes = _bit_planes(cols)
    full = g.full_mask()
    for x in range(s // 2, -1, -1):
        hit = _at_least(planes, x, full) & ~_at_least(planes, s - x + 1, full)
        if hit:
            break
    b = (hit & -hit).bit_length() - 1
    prof = [c >> b & 1 for c in cols]
    minority = not (sum(prof) * 2 > s)
    return x, ExceptionWitness(
        b, tuple([i for i, p in enumerate(prof) if p == minority]))


def decompose_sequence_types(
    ctx: EvalContext, phi: tuple[Atom, ...], seq, a: int, mode: str = "nip",
) -> tuple[TypeDecomposition | None, TypeFalsifier | None]:
    """Split a sequence around one position by the types vertex a realizes.

    nip mode wants the types constant strictly before and strictly after
    the exceptional index; stable mode wants one constant covering all
    positions but the exception. The smallest workable index wins. On
    failure the falsifier indices reproduce the failure on their own.
    """
    if mode not in ("nip", "stable"):
        raise InputError(f"mode must be 'nip' or 'stable', got {mode!r}")
    seq = list(seq)
    types = [tuple(eval_atom(ctx, atom, a, b) for atom in phi) for b in seq]
    n = len(seq)
    if n == 0:
        return TypeDecomposition(0, None, None), None
    changes = [i for i in range(n - 1) if types[i] != types[i + 1]]
    if mode == "nip":
        if not changes:
            return TypeDecomposition(
                0, None, types[1] if n > 1 else None), None
        cmin, cmax = changes[0], changes[-1]
        if cmax > cmin + 1:
            idxs = (cmin, cmin + 1, cmax, cmax + 1)
            return None, TypeFalsifier(idxs, tuple(types[i] for i in idxs))
        e = cmax
        return TypeDecomposition(
            e,
            types[0] if e > 0 else None,
            types[n - 1] if e < n - 1 else None), None
    for e in range(n):
        rest = types[:e] + types[e + 1:]
        if all(t == rest[0] for t in rest):
            tau = rest[0] if rest else types[0]
            return TypeDecomposition(e, tau, tau), None
    cmin, cmax = changes[0], changes[-1]
    idxs = tuple(dict.fromkeys((cmin, cmin + 1, cmax, cmax + 1)))
    return None, TypeFalsifier(idxs, tuple(types[i] for i in idxs))


def _validate_matrix(g: Graph, a_seq, b_seq, want) -> None:
    for i, a in enumerate(a_seq):
        for j, b in enumerate(b_seq):
            if g.adj(a, b) != want(i, j):
                raise InternalInvariantError(
                    f"witness fails at pair ({a}, {b})")
    if len(set(a_seq)) != len(a_seq) or len(set(b_seq)) != len(b_seq):
        raise InternalInvariantError("witness has repeated vertices")


def _want_rows(want, nrows: int, ncols: int) -> list[int]:
    return [sum(1 << j for j in range(ncols) if want(i, j))
            for i in range(nrows)]


def _pools(g: Graph, side: int, other: int, needs) -> list[int]:
    """Per (true count, false count) in needs, the vertices of side with at
    least that many neighbours and non-neighbours in other."""
    size = other.bit_count()
    seen = [(v, (g.rows[v] & other).bit_count()) for v in iter_bits(side)]
    pool = {(t, f): mask_of(v for v, d in seen if t <= d <= size - f)
            for t, f in set(needs)}
    return [pool[need] for need in needs]


def _symmetric(want_rows, ncols: int) -> bool:
    """Whether swapping any two adjacent columns maps the rows onto
    themselves."""
    rows = set(want_rows)
    return all({w ^ 3 << j if (w >> j ^ w >> j + 1) & 1 else w
                for w in rows} == rows for j in range(ncols - 1))


def _lanes(masks, width: int) -> int:
    """The masks as one int, mask i in the width bytes from byte i * width."""
    return int.from_bytes(
        b"".join([m.to_bytes(width, "little") for m in masks]), "little")


# A search keeps the lane-repeated row of each candidate it tries only
# while that cache cannot outgrow this many bytes.
_REP_CACHE_BYTES = 1 << 22


def _matrix_search(g: Graph, want_rows, ncols: int, row_side: int,
                   col_side: int, max_nodes: int):
    """Rows in row_side and distinct columns in col_side with bit j of
    want_rows[i] set exactly when row i is adjacent to column j.

    Callers give every row a distinct want-vector, so rows fitting all the
    columns land on distinct vertices. Then a row needs as many neighbours
    in col_side as it has set bits, and as many non-neighbours as clear
    ones; a column needs the same over row_side. The vertices that have
    them are the pools, column pools first; an empty one ends the search.
    When the rows are symmetric, every permutation of a fitting column
    tuple fits too, so the first one is ascending and only ascending
    tuples are tried.

    The rows' candidate masks are packed into one int, row i in lane i. A
    lane is the fewest whole bytes whose bits below the top one hold
    row_side and every want-vector, so its top bit is always clear. The
    want-vectors are packed the same way, which makes a column's count of
    wanted neighbours one AND and a popcount. Trying candidate b for
    column j is one AND, ``packed & (rep ^ flip[j])``: rep is b's row, cut
    to the lane and repeated in every lane by repeating its bytes, and
    flip[j] fills, below their top bit, the lanes of the rows whose want
    bit j is clear, so each lane keeps its neighbours of b or its
    non-neighbours as wanted. Adding ``low``, each lane's bits below its
    top, carries into a lane's top bit exactly when the lane is nonempty,
    so one carry test against ``high`` accepts the node, whatever the
    number of rows. flip[j] is built when the search first reaches column
    j. The reps of tried candidates are cached when col_side's size times
    the rows times the lane bytes is at most ``_REP_CACHE_BYTES`` (4 MiB),
    and built at each node otherwise. Each row's vertex is the lowest bit
    of its lane. Packing, repeating and unpacking go through bytes or a
    bit string, so each is linear in the packed size.

    Returns ((row vertices, column vertices) or None, nodes tried); one
    node is one column candidate tried, and the search hit its budget iff
    nodes > max_nodes.
    """
    nrows = len(want_rows)
    width = max(row_side.bit_length(), ncols) // 8 + 1
    top = 8 * width - 1
    ones = int.from_bytes((b"\1" + bytes(width - 1)) * nrows, "little")
    wants = _lanes(want_rows, width)
    col_pools = _pools(g, col_side, row_side, [
        (t, nrows - t)
        for t in ((wants >> j & ones).bit_count() for j in range(ncols))])
    if not all(col_pools):
        return None, 0
    masks = _pools(g, row_side, col_side,
                   [(w.bit_count(), ncols - w.bit_count()) for w in want_rows])
    if not all(masks):
        return None, 0
    ascending = _symmetric(want_rows, ncols)
    rows = g.rows
    inside = (1 << top) - 1
    high = ones << top
    low = high - ones
    flips: list[int | None] = [None] * ncols
    keep = col_side.bit_count() * nrows * width <= _REP_CACHE_BYTES
    reps: dict[int, int] = {}
    cols: list[int] = []
    nodes = 0

    def extend(packed: int, skip: int) -> int | None:
        nonlocal nodes
        j = len(cols)
        if j == ncols:
            return packed
        flip = flips[j]
        if flip is None:
            clear = ones & ~(wants >> j)
            flip = flips[j] = (clear << top) - clear
        for b in iter_bits(col_pools[j] & ~skip):
            nodes += 1
            if nodes > max_nodes:
                return None
            rep = reps.get(b)
            if rep is None:
                rep = int.from_bytes((rows[b] & inside).to_bytes(
                    width, "little") * nrows, "little")
                if keep:
                    reps[b] = rep
            nxt = packed & (rep ^ flip)
            if (nxt + low) & high == high:
                cols.append(b)
                found = extend(nxt, (2 << b) - 1 if ascending
                               else skip | 1 << b)
                if found is not None:
                    return found
                cols.pop()
        return None

    found = extend(_lanes(masks, width), 0)
    if found is None:
        return None, nodes
    # a lane's lowest bit is the first 1 from its start, bits read upwards
    up = bin(found)[:1:-1]
    return (tuple([up.find("1", s) - s
                   for s in range(0, 8 * width * nrows, 8 * width)]),
            tuple(cols)), nodes


def _witness_report(g: Graph, kind: str, want, nrows: int, ncols: int,
                    max_nodes: int) -> OracleReport:
    full = g.full_mask()
    found, nodes = _matrix_search(g, _want_rows(want, nrows, ncols), ncols,
                                  full, full, max_nodes)
    if found is None:
        return OracleReport(None, BUDGET if nodes > max_nodes else EXHAUSTIVE)
    _validate_matrix(g, *found, want)
    return OracleReport(Witness(kind, *found), EXHAUSTIVE)


def order_property_witness(
    g: Graph, k: int, max_nodes: int = 200_000,
) -> OracleReport:
    """Half-graph of order k: E(a_i, b_j) exactly when i <= j.

    The matrix search with rows a_1..a_k and columns b_1..b_k over all
    vertices: b_seq is the lexicographically first column tuple, a_seq each
    row's lowest fitting vertex.
    """
    if k < 1:
        raise InputError("k must be positive")
    if k > g.n:
        return OracleReport(None, EXHAUSTIVE)
    return _witness_report(g, "order", lambda i, j: i <= j, k, k, max_nodes)


def shattering_witness(
    g: Graph, k: int, max_nodes: int = 200_000,
) -> OracleReport:
    """The lexicographically first k-set whose every subset is some vertex's
    exact neighborhood trace.

    The matrix search with one row per subset mask t in range(2^k) and the
    k set members as columns: row t is adjacent to member i iff bit i of t
    is set. These rows are symmetric, so the members come out ascending.
    The 2^k subsets need 2^k distinct tracing vertices, so a graph with
    fewer has none. a_seq is the set; b_seq lists each subset's lowest
    tracing vertex: entry t covers the subset with bit i set iff a_seq[i]
    is in it.
    """
    if k < 1:
        raise InputError("k must be positive")
    if k >= g.n.bit_length():  # 2^k > n, without building 2^k
        return OracleReport(None, EXHAUSTIVE)
    full = g.full_mask()
    found, nodes = _matrix_search(g, list(range(1 << k)), k, full, full,
                                  max_nodes)
    if found is None:
        return OracleReport(None, BUDGET if nodes > max_nodes else EXHAUSTIVE)
    traced, members = found
    _validate_matrix(g, members, traced, lambda i, t: bool(t >> i & 1))
    return OracleReport(Witness("shattering", members, traced), EXHAUSTIVE)


def pairing_index_witness(
    g: Graph, k: int, max_nodes: int = 500_000,
) -> OracleReport:
    """Vertices a_ij adjacent among b_1..b_k to exactly b_i and b_j.

    The matrix search with one row per pair, in the lexicographic order of
    combinations(range(k), 2), and columns b_1..b_k over all vertices.
    """
    if k < 2:
        raise InputError("k must be at least 2")
    if k > g.n or k * (k - 1) // 2 > g.n:
        return OracleReport(None, EXHAUSTIVE)
    pairs = list(combinations(range(k), 2))
    return _witness_report(g, "pairing", lambda p, l: l in pairs[p],
                           len(pairs), k, max_nodes)


@dataclass(frozen=True)
class BipartitePattern:
    kind: str
    left_seq: tuple[int, ...]
    right_seq: tuple[int, ...]


_PATTERN_TESTS = {
    "matching": lambda p, q: p == q,
    "co_matching": lambda p, q: p != q,
    "ladder": lambda p, q: p <= q,
}


def bipartite_canonical_pattern(
    g: Graph, left, right, length: int, max_nodes: int = 500_000,
) -> OracleReport:
    """First of matching, co-matching, ladder found across the two sides.

    The left side must be twin-free with respect to the right side. Each
    kind runs the matrix search with the left side as rows and the right
    side as columns: right_seq is the lexicographically first tuple of
    right vertex ids carrying the pattern, left_seq each position's lowest
    left vertex id. List order on either side plays no part.
    """
    left = list(left)
    right = list(right)
    if length < 1:
        raise InputError("length must be positive")
    if len(set(left)) != len(left) or len(set(right)) != len(right):
        raise InputError("side sequences must be pairwise distinct")
    for v in left + right:
        g.check_vertex(v)
    lmask, rmask = mask_of(left), mask_of(right)
    traces: dict[int, int] = {}
    for v in left:
        tr = g.rows[v] & rmask
        if tr in traces:
            raise InputError(
                f"left vertices {traces[tr]} and {v} are twins over the "
                f"right side")
        traces[tr] = v
    if length > min(len(left), len(right)):
        return OracleReport(None, EXHAUSTIVE)

    nodes = 0
    for kind, test in _PATTERN_TESTS.items():
        found, used = _matrix_search(
            g, _want_rows(test, length, length), length, lmask, rmask,
            max_nodes - nodes)
        nodes += used
        if found is not None:
            _validate_matrix(g, *found, test)
            return OracleReport(BipartitePattern(kind, *found), EXHAUSTIVE)
        if nodes > max_nodes:
            return OracleReport(None, BUDGET)
    return OracleReport(None, EXHAUSTIVE)
