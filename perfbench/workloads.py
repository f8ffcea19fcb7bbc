"""The benchmark's four workloads: what each runs, on which inputs, and how
each output is checked.

A workload is planned from its seed as a list of case specs, then built
into runnable cases. The seed only picks graph seeds, vertex orders and
claim contents; the family/size/radius mix of a workload is the same for
every seed.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable

import reference as ref

DEFAULT_SEED = 1

# Input sizes straddle the constancy-check cliff: cliques and edgeless
# graphs up to n=68 take well under a second, n=72 takes over one. r=4 runs
# below the cliff only, which keeps a pass short enough for several passes
# per run.
HOMOGENEOUS = tuple(
    (family, n, r)
    for family in ("clique", "edgeless")
    for n, r in ((48, 1), (48, 2), (48, 4), (52, 1), (56, 2), (60, 1),
                 (64, 1), (68, 2), (72, 1)))

# Many graphs per pass, so |B|, |flips| and time average over seeds. At
# r=4 a complement either ends with B empty or builds extra flips at twice
# the cost; above n=80 that costlier mode would land among the largest
# sparse cases and make the tail percentile jump between seeds.
SEEDED = tuple(
    [("random_bounded_degree", n, r)
     for n in range(150, 401, 25) for r in (2, 4)]
    + [("complement_rbd", n, 2) for n in range(60, 101, 5)]
    + [("complement_rbd", n, 4) for n in range(60, 81, 5)])

# (origin, family, n, radius, flip count). Genuine claims are flip_widen
# results; synthetic ones carry many flips with sides of about n/4.
CLAIMS = (
    ("genuine", "random_bounded_degree", 300, 2, None),
    ("genuine", "random_bounded_degree", 400, 4, None),
    ("genuine", "complement_rbd", 200, 2, None),
    ("genuine", "complement_rbd", 100, 3, None),
    ("synthetic_holds", "dense", 400, 2, 32),
    ("synthetic_fails", "dense", 360, 2, 32),
    ("synthetic_holds", "sparse", 300, 3, 24),
    ("synthetic_fails", "sparse", 340, 3, 24),
)

# (oracle, family, n, k). Families with a known witness sit beside seeded
# sparse graphs (max degree 3) in which the searched structure cannot exist.
DIAGNOSE = (
    ("order_property_witness", "half_graph", 10, 10),
    ("order_property_witness", "half_graph", 12, 12),
    ("order_property_witness", "half_graph", 16, 16),
    ("shattering_witness", "shatter_gadget_reversed", 4, 4),
    ("pairing_index_witness", "subdivided_clique_reversed", 7, 5),
    ("bipartite_canonical_pattern", "half_graph", 16, 16),
    ("bipartite_canonical_pattern", "half_graph", 24, 8),
    ("alternation_rank", "half_graph", 20, None),
    ("exception_rank", "half_graph", 20, None),
) + tuple(
    (oracle, "random_bounded_degree", n, k)
    for n in (60, 120, 200)
    for oracle, k in (("order_property_witness", 4),
                      ("shattering_witness", 4),
                      ("pairing_index_witness", 5),
                      ("bipartite_canonical_pattern", 6),
                      ("alternation_rank", None),
                      ("exception_rank", None)))

# The shattering search defaults to five million nodes; on the sparse
# graphs it cannot succeed, so a smaller budget keeps each call short.
SHATTER_BUDGET = 200_000
DEGREE = 3

WORKLOADS = ("widen_homogeneous", "widen_seeded", "verify_claims", "diagnose")

BUDGET = "budget"


@dataclass
class Case:
    """One timed call: a flip_widen run, a CLI invocation or an oracle call."""

    kind: str
    family: str
    n: int
    r: int | None
    a_size: int | None
    run: Callable[[], object]
    check: Callable[[object], str | None]
    summary: Callable[[object], dict]
    key: Callable[[object], object]


def plan(workload: str, seed: int) -> list[dict]:
    """Case specs for one workload; only the ``seed`` field depends on it."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "widen_homogeneous":
        table = [dict(kind="flip_widen", family=f, n=n, r=r, a_order="shuffled")
                 for f, n, r in HOMOGENEOUS]
    elif workload == "widen_seeded":
        table = [dict(kind="flip_widen", family=f, n=n, r=r, a_order="natural")
                 for f, n, r in SEEDED]
    elif workload == "verify_claims":
        table = [dict(kind="claim", origin=o, family=f, n=n, r=r, flips=k)
                 for o, f, n, r, k in CLAIMS]
    elif workload == "diagnose":
        table = [dict(kind=o, family=f, n=n, k=k) for o, f, n, k in DIAGNOSE]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for spec in table:
        spec["seed"] = rng.randrange(1 << 32)
    return table


def build(fw, workload: str, specs: list[dict], workdir: str) -> list[Case]:
    """Generate inputs (and, for verify_claims, write files) into cases."""
    if workload.startswith("widen_"):
        return [_widen_case(fw, spec) for spec in specs]
    if workload == "verify_claims":
        cases = []
        for i, spec in enumerate(specs):
            cases.extend(_claim_cases(fw, spec, os.path.join(workdir, f"claim{i}")))
        return cases
    return [_oracle_case(fw, spec) for spec in specs]


def _graph(fw, family: str, n: int, seed: int):
    gen = fw.generators
    if family == "clique":
        return gen.clique(n)
    if family == "edgeless":
        return gen.edgeless(n)
    if family == "random_bounded_degree":
        return gen.random_bounded_degree(n, DEGREE, seed)
    if family == "complement_rbd":
        return gen.complement(gen.random_bounded_degree(n, DEGREE, seed))
    if family == "half_graph":
        return gen.half_graph(n)
    if family == "shatter_gadget_reversed":
        return _reversed(fw, gen.shatter_gadget(n))
    if family == "subdivided_clique_reversed":
        return _reversed(fw, gen.subdivided_clique(n))
    raise ValueError(f"unknown family {family!r}")


def _reversed(fw, g):
    # Witness searches enumerate in label order; reversing the labels puts
    # the planted witness last instead of first.
    last = g.n - 1
    return fw.flipwide.Graph.from_edges(
        g.n, [(last - u, last - v) for u, v in g.edges()])


# ---------------------------------------------------------------- widen


def _widen_case(fw, spec) -> Case:
    n, r = spec["n"], spec["r"]
    g = _graph(fw, spec["family"], n, spec["seed"])
    a_set = list(range(n))
    if spec["a_order"] == "shuffled":
        random.Random(spec["seed"]).shuffle(a_set)
    a_set = tuple(a_set)

    def run():
        pkg = fw.flipwide
        try:
            return pkg.flip_widen(pkg.FlipWideRequest(g, a_set, r, 1))
        except pkg.BudgetExceeded:
            return BUDGET

    def check(res):
        if res == BUDGET:
            return None
        b_set = res.b_set
        if list(b_set) != sorted(set(b_set)):
            return "b_set is not strictly ascending"
        if not set(b_set) <= set(a_set):
            return "b_set is not a subset of A"
        if not res.verified or res.radius != r:
            return "result not marked verified at the requested radius"
        for f in res.flip_set:
            if any(not 0 <= v < n for v in f.a + f.b):
                return "flip touches a vertex outside the graph"
        flipped = ref.apply_flips(ref.adjacency_from_rows(g.rows),
                                  [(f.a, f.b) for f in res.flip_set])
        ok, pair = ref.far_apart(flipped, b_set, r)
        if not ok:
            return f"vertices {pair} of B are within distance {r} after the flips"
        return None

    def summary(res):
        if res == BUDGET:
            return {"b": 0, "flips": 0, "outcome": "budget", "answered": False}
        return {"b": len(res.b_set), "flips": len(res.flip_set),
                "outcome": "ok", "answered": True}

    def key(res):
        if res == BUDGET:
            return BUDGET
        return (res.b_set, tuple((f.a, f.b) for f in res.flip_set))

    return Case("flip_widen", spec["family"], n, r, n, run, check, summary, key)


# ---------------------------------------------------------------- claims


def _run_cli(fw, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = fw.cli.main(argv)
    return code, out.getvalue()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _claim(fw, spec, rng):
    """(base adjacency, flips, B, holds, flipped adjacency) for one claim."""
    n, r = spec["n"], spec["r"]
    if spec["origin"] == "genuine":
        g = _graph(fw, spec["family"], n, spec["seed"])
        pkg = fw.flipwide
        res = pkg.flip_widen(pkg.FlipWideRequest(g, tuple(range(n)), r, 1))
        flips = [(f.a, f.b) for f in res.flip_set]
        base = ref.adjacency_from_rows(g.rows)
        return base, flips, list(res.b_set), True, ref.apply_flips(base, flips)
    target = ref.adjacency_from_rows(
        fw.generators.random_bounded_degree(n, DEGREE, spec["seed"]).rows)
    side = n // 4
    flips = []
    if spec["family"] == "dense":
        for _ in range(spec["flips"]):
            flips.append((sorted(rng.sample(range(n), side)),
                          sorted(rng.sample(range(n), side))))
    else:
        # Pairs (A, B) and (A, B + x) cancel except on A x {x}, so the base
        # graph stays sparse although every flip is large.
        for _ in range(spec["flips"] // 2):
            a_side = sorted(rng.sample(range(n), side))
            b_side = rng.sample(range(n), side + 1)
            flips.append((a_side, sorted(b_side[:-1])))
            flips.append((a_side, sorted(b_side)))
    # Flips are involutions, so the claim's flipped graph is the target.
    base = ref.apply_flips(target, flips)
    order = list(range(n))
    rng.shuffle(order)
    b_set = ref.greedy_far_set(target, r, order)
    holds = spec["origin"] == "synthetic_holds"
    if not holds:
        # Add a vertex whose nearest member is exactly r away, so the claim
        # fails only at the boundary, where an off-by-one verifier errs.
        nearest: dict[int, int] = {}
        for u in b_set:
            for w, d in ref.ball(target, u, r).items():
                nearest[w] = min(d, nearest.get(w, d))
        b_set = sorted(b_set + [min(w for w, d in nearest.items() if d == r)])
    return base, flips, b_set, holds, target


def _claim_cases(fw, spec, stem: str) -> list[Case]:
    n, r = spec["n"], spec["r"]
    rng = random.Random(spec["seed"])
    base, flips, b_set, holds, flipped = _claim(fw, spec, rng)
    graph_path, claim_path = stem + ".edges", stem + ".json"
    _write(graph_path, ref.edge_list_text(base))
    doc = {"b_set": b_set,
           "flips": [{"a": list(a), "b": list(b)} for a, b in flips],
           "radius": r}
    _write(claim_path, json.dumps(doc) + "\n")
    family = f"{spec['origin']}:{spec['family']}"

    def check_verify(out):
        if ref.far_apart(flipped, b_set, r)[0] != holds:
            return (f"the reference finds holds={not holds} for a claim built "
                    f"to hold={holds}")
        code, text = out
        if code != (0 if holds else 2):
            return f"verify exited {code} on a claim that {'holds' if holds else 'fails'}"
        report = json.loads(text)
        if report.get("verified") is not holds or report.get("radius") != r:
            return f"verify reported {report} on a claim that holds={holds}"
        if not holds:
            pair = report.get("violation")
            if (not isinstance(pair, list) or len(pair) != 2 or pair[0] == pair[1]
                    or not set(pair) <= set(b_set)
                    or pair[1] not in ref.ball(flipped, pair[0], r)):
                return f"verify named {pair}, which is not a violating pair"
        return None

    def check_apply(out):
        code, text = out
        if code != 0:
            return f"apply-flips exited {code}"
        if text != ref.edge_list_text(flipped):
            return "apply-flips output differs from the reference flipped graph"
        return None

    def summary_verify(out):
        return {"b": len(b_set), "flips": len(flips),
                "outcome": "holds" if out[0] == 0 else "fails", "answered": True}

    def summary_apply(out):
        return {"b": len(b_set), "flips": len(flips), "outcome": "ok",
                "answered": True}

    verify = Case("verify", family, n, r, n,
                  lambda: _run_cli(fw, ["verify", "-g", graph_path,
                                        "--result", claim_path]),
                  check_verify, summary_verify, lambda out: out)
    apply = Case("apply-flips", family, n, r, n,
                 lambda: _run_cli(fw, ["apply-flips", "-g", graph_path,
                                       "--flips", claim_path]),
                 check_apply, summary_apply, lambda out: out)
    return [verify, apply]


# ---------------------------------------------------------------- oracles


def _induced_matching_sides(adj, rng, pairs: int, extra: int):
    """Left/right sides holding an induced matching of ``pairs`` edges.

    Left vertex i is adjacent to right vertex i and to no other matched
    right vertex, so the matching pattern of that length exists and the
    left side is twin-free over the right side.
    """
    edges = [(u, v) for u in range(len(adj)) for v in adj[u]]
    rng.shuffle(edges)
    lefts, rights, used = [], [], set()
    for u, v in edges:
        if u in used or v in used:
            continue
        if any(w in adj[u] for w in rights) or any(w in adj[v] for w in lefts):
            continue
        lefts.append(u)
        rights.append(v)
        used.update((u, v))
        if len(lefts) == pairs:
            break
    if len(lefts) < pairs:
        raise AssertionError("no induced matching of the planned size")
    others = [v for v in range(len(adj)) if v not in used]
    rights += rng.sample(others, extra)
    return lefts, rights


def _oracle_case(fw, spec) -> Case:
    kind, n, k = spec["kind"], spec["n"], spec["k"]
    g = _graph(fw, spec["family"], n, spec["seed"])
    rng = random.Random(spec["seed"])
    sparse = spec["family"] == "random_bounded_degree"
    # Where the family plants the structure, and on the sparse graphs' sides
    # built around an induced matching, an exhaustive "none" is wrong. The
    # other searched structures need a vertex of degree above DEGREE, so on
    # the sparse graphs any witness of theirs is wrong.
    must_find = not sparse or kind == "bipartite_canonical_pattern"
    need_degree = {"order_property_witness": k, "shattering_witness": k,
                   "pairing_index_witness": (k or 1) - 1}.get(kind)

    @cache
    def reference():
        # Built on the first check, outside the timed set-up.
        adj = ref.adjacency_from_rows(g.rows)
        if sparse and need_degree is not None and ref.max_degree(adj) >= need_degree:
            raise AssertionError(f"{spec}: the degree bound does not rule out a witness")
        return adj

    seq = left = right = None
    if kind in ("alternation_rank", "exception_rank"):
        seq = rng.sample(range(g.n), min(g.n, 40))
        call_args = (g, seq)
    elif kind == "bipartite_canonical_pattern":
        if sparse:
            # Input generation: the sides are chosen from the adjacency.
            left, right = _induced_matching_sides(reference(), rng, k, 10)
        else:
            left, right = list(range(n)), list(range(n, 2 * n))
        call_args = (g, left, right, k)
    elif kind == "shattering_witness":
        call_args = (g, k, SHATTER_BUDGET)
    else:
        call_args = (g, k)

    def run():
        return getattr(fw.flipwide, kind)(*call_args)

    def check(out):
        adj = reference()
        if kind == "alternation_rank":
            return _check_alternation(adj, seq, out)
        if kind == "exception_rank":
            return _check_exception(adj, seq, out)
        if out.search not in ("exhaustive", BUDGET):
            return f"unknown search outcome {out.search!r}"
        if out.witness is None:
            if out.search == "exhaustive" and must_find:
                return "search reports no witness where the family plants one"
            return None
        if out.search != "exhaustive":
            return "a witness was returned with a budget outcome"
        if sparse and kind != "bipartite_canonical_pattern":
            return "witness reported where the degree bound rules one out"
        return _check_witness(adj, kind, k, out.witness, left, right)

    def summary(out):
        if kind in ("alternation_rank", "exception_rank"):
            return {"b": None, "flips": None, "outcome": f"rank={out[0]}",
                    "answered": True}
        outcome = out.search + ("+witness" if out.witness is not None else "")
        return {"b": None, "flips": None, "outcome": outcome,
                "answered": out.search == "exhaustive"}

    return Case(kind, spec["family"], g.n, None, None, run, check, summary,
                repr)


def _check_witness(adj, kind, k, w, left, right) -> str | None:
    def edge(x, y):
        return y in adj[x]

    if kind == "bipartite_canonical_pattern":
        tests = {"matching": lambda p, q: p == q,
                 "co_matching": lambda p, q: p != q,
                 "ladder": lambda p, q: p <= q}
        ls, rs = w.left_seq, w.right_seq
        if w.kind not in tests or len(ls) != k or len(rs) != k:
            return f"malformed pattern {w}"
        if len(set(ls)) != k or len(set(rs)) != k:
            return "pattern repeats a vertex"
        if not set(ls) <= set(left) or not set(rs) <= set(right):
            return "pattern uses vertices outside its sides"
        for p, lv in enumerate(ls):
            for q, rv in enumerate(rs):
                if edge(lv, rv) != tests[w.kind](p, q):
                    return f"{w.kind} pattern fails at ({lv}, {rv})"
        return None
    if kind == "order_property_witness":
        if len(w.a_seq) != k or len(w.b_seq) != k:
            return "order witness has the wrong length"
        want = [[i <= j for j in range(k)] for i in range(k)]
    elif kind == "pairing_index_witness":
        pairs = list(combinations(range(k), 2))
        if len(w.a_seq) != len(pairs) or len(w.b_seq) != k:
            return "pairing witness has the wrong length"
        want = [[j in pair for j in range(k)] for pair in pairs]
    else:
        if len(w.a_seq) != k or len(w.b_seq) != 1 << k:
            return "shattering witness has the wrong length"
        for t, v in enumerate(w.b_seq):
            trace = {i for i, x in enumerate(w.a_seq) if edge(v, x)}
            if trace != {i for i in range(k) if t >> i & 1}:
                return f"vertex {v} does not trace subset {t}"
        return None if len(set(w.a_seq)) == k else "shattered set repeats a vertex"
    if len(set(w.a_seq)) != len(w.a_seq) or len(set(w.b_seq)) != len(w.b_seq):
        return "witness repeats a vertex"
    for i, x in enumerate(w.a_seq):
        for j, y in enumerate(w.b_seq):
            if edge(x, y) != want[i][j]:
                return f"{kind} witness fails at ({x}, {y})"
    return None


def _profiles(adj, seq):
    return [[s in adj[v] for s in seq] for v in range(len(adj))]


def _check_alternation(adj, seq, out) -> str | None:
    rank, w = out
    changes = [sum(p[i] != p[i + 1] for i in range(len(p) - 1))
               for p in _profiles(adj, seq)]
    if rank != max(changes):
        return f"alternation rank {rank}, reference {max(changes)}"
    prof = [s in adj[w.vertex] for s in seq]
    idx = w.indices
    if len(idx) != rank + 1 or idx[0] != 0 or list(idx) != sorted(set(idx)):
        return "alternation witness indices are malformed"
    if any(prof[idx[i]] == prof[idx[i + 1]] for i in range(rank)):
        return "alternation witness indices do not alternate"
    return None


def _check_exception(adj, seq, out) -> str | None:
    rank, w = out
    best = max(min(sum(p), len(p) - sum(p)) for p in _profiles(adj, seq))
    if rank != best:
        return f"exception rank {rank}, reference {best}"
    prof = [s in adj[w.vertex] for s in seq]
    mins = set(w.minority_indices)
    if len(mins) != rank or len({prof[i] for i in mins}) > 1:
        return "exception witness is not one minority block of the rank's size"
    if mins and any(prof[i] == prof[min(mins)] for i in range(len(seq))
                    if i not in mins):
        return "exception witness misses a minority position"
    return None
