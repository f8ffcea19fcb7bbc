"""Reference computations the benchmark checks the program's outputs against.

Nothing here calls into flipwide: graphs are adjacency sets built from the
input rows, flips toggle each vertex's set, and distances come from a plain
queue BFS. The program works on int bitmasks throughout, so agreement
between the two is evidence, not a tautology.
"""

from __future__ import annotations

from collections import deque


def adjacency_from_rows(rows) -> list[set[int]]:
    """Adjacency sets from per-vertex bitmask rows."""
    adj = []
    for row in rows:
        nbrs = set()
        v = 0
        while row:
            if row & 1:
                nbrs.add(v)
            row >>= 1
            v += 1
        adj.append(nbrs)
    return adj


def apply_flips(adj: list[set[int]], flips) -> list[set[int]]:
    """Toggle every pair {u, v}, u != v, with (u, v) in A x B or B x A.

    ``flips`` is a sequence of (A, B) vertex collections. Vertex u toggles
    its edges to B when u is in A and to A when u is in B; taking the union
    of the two makes a pair covered by both orderings toggle once.
    """
    out = [set(nbrs) for nbrs in adj]
    for a_side, b_side in flips:
        a_set, b_set = set(a_side), set(b_side)
        for u in a_set | b_set:
            toggle = set()
            if u in a_set:
                toggle |= b_set
            if u in b_set:
                toggle |= a_set
            toggle.discard(u)
            out[u] ^= toggle
    return out


def ball(adj: list[set[int]], source: int, radius: int) -> dict[int, int]:
    """Distances from ``source`` to every vertex within ``radius``."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        d = dist[u]
        if d == radius:
            continue
        for w in adj[u]:
            if w not in dist:
                dist[w] = d + 1
                queue.append(w)
    return dist


def far_apart(adj: list[set[int]], members, radius: int
              ) -> tuple[bool, tuple[int, int] | None]:
    """Whether all distinct members are pairwise at distance > radius."""
    member_set = set(members)
    for u in sorted(member_set):
        for w in ball(adj, u, radius):
            if w != u and w in member_set:
                return False, (u, w)
    return True, None


def greedy_far_set(adj: list[set[int]], radius: int, order) -> list[int]:
    """A maximal set, picked greedily in ``order``, at pairwise distance > radius."""
    blocked = set()
    chosen = []
    for v in order:
        if v in blocked:
            continue
        chosen.append(v)
        blocked.update(ball(adj, v, radius))
    return sorted(chosen)


def edge_list_text(adj: list[set[int]]) -> str:
    """The canonical edge-list text: header ``n m``, then sorted ``u v``, u < v."""
    edges = [(u, v) for u, nbrs in enumerate(adj) for v in sorted(nbrs) if u < v]
    lines = [f"{len(adj)} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def max_degree(adj: list[set[int]]) -> int:
    return max((len(nbrs) for nbrs in adj), default=0)
