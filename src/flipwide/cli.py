"""Command line front end.

Exit codes: 0 success (and verified where applicable), 1 usage or IO
problem, 2 a verification or internal-invariant failure, 3 a budget or
shortfall stop. Result JSON goes to stdout or -o byte-identically;
timings and output digests go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from .errors import (
    BudgetExceeded,
    ExtractionShortfall,
    InputError,
    InternalInvariantError,
    ModeError,
)
from .formulas import EvalContext, edge_atom, enumerate_type_patterns, eq_atom
from .generators import FAMILIES
from .graphcore import Flip, Graph, apply_flips, format_edge_list, parse_edge_list
from .indiscernibles import ExtractionConfig, extract_indiscernible, is_delta_indiscernible
from .oracles import (
    alternation_rank,
    exception_rank,
    order_property_witness,
    pairing_index_witness,
    shattering_witness,
)
from .sampleset import SampleBudget
from .wideness import FlipWideRequest, FlipWideResult, flip_widen, verify_flip_wide


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; route through InputError
    # so usage problems land on exit code 1 like every other input fault.
    def error(self, message):
        raise InputError(message)


def _check_threads_env() -> None:
    raw = os.environ.get("FLIPWIDE_THREADS")
    if raw is None:
        return
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"FLIPWIDE_THREADS must be a positive integer, "
                         f"got {raw!r}") from None
    if value < 1:
        raise InputError(f"FLIPWIDE_THREADS must be a positive integer, "
                         f"got {raw!r}")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_graph(path: str) -> Graph:
    return parse_edge_list(_read_text(path))


def _read_vertices(source: str, g: Graph) -> tuple[int, ...]:
    if source == "all":
        return tuple(range(g.n))
    fields = _read_text(source).split()
    try:
        return tuple(int(f) for f in fields)
    except ValueError as exc:
        raise InputError(f"vertex list {source}: {exc}") from None


def _emit(text: str, out: str | None, started: float) -> None:
    """Write ``text`` to ``out`` (stdout when None), then one stderr line
    with the time since ``started`` (a ``time.monotonic`` reading) and the
    text's digest."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    elapsed = time.monotonic() - started
    print(f"elapsed {elapsed:.3f}s sha256 {digest}", file=sys.stderr)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _flip_json(f: Flip) -> dict:
    return {"a": list(f.a), "b": list(f.b)}


def _result_json(res: FlipWideResult) -> dict:
    return {
        "b_set": list(res.b_set),
        "flips": [_flip_json(f) for f in res.flip_set],
        "radius": res.radius,
        "trace": [
            {
                "level": t.level,
                "parity": t.parity,
                "samples": sorted(t.samples),
                "flips_added": [_flip_json(f) for f in t.flips_added],
                "surviving": sorted(t.surviving),
            }
            for t in res.trace
        ],
        "verified": res.verified,
    }


def _vertex_array(value, what: str) -> list[int]:
    # JSON true/false decode to bool, a subclass of int: demand int itself
    if not isinstance(value, list) or not set(map(type, value)) <= {int}:
        raise InputError(f"{what} must be an array of integer vertex ids")
    return value


def _parse_flips(doc) -> tuple[Flip, ...]:
    if isinstance(doc, dict):
        doc = doc.get("flips")
    if not isinstance(doc, list):
        raise InputError("flip JSON must be a result object or a list")
    flips = []
    for entry in doc:
        if not isinstance(entry, dict) or "a" not in entry or "b" not in entry:
            raise InputError("each flip needs 'a' and 'b' vertex arrays")
        flips.append(Flip(_vertex_array(entry["a"], "flip side 'a'"),
                          _vertex_array(entry["b"], "flip side 'b'")))
    return tuple(flips)


def _cmd_generate(args) -> int:
    fn, names = FAMILIES[args.family]
    takes_seed = names[-1] == "seed"
    want = len(names) - (1 if takes_seed else 0)
    if len(args.params) != want:
        raise InputError(
            f"{args.family} takes {want} parameter(s): "
            f"{', '.join(names[:want])}")
    call = list(args.params)
    if takes_seed:
        call.append(args.seed)
    g = fn(*call)
    _emit(format_edge_list(g), args.output, args.started)
    return 0


def _cmd_flip_widen(args) -> int:
    g = _read_graph(args.graph)
    a_set = _read_vertices(args.a_set, g)
    budget = SampleBudget(max_samples=args.max_samples,
                          max_rounds=args.max_rounds,
                          min_surviving_length=args.min_surviving)
    ext = ExtractionConfig(target_length=1,
                           max_pattern_length=args.max_pattern_length,
                           window=args.window)
    req = FlipWideRequest(g, a_set, args.radius, args.target, budget, ext)
    res = flip_widen(req)
    _emit(_dump(_result_json(res)), args.output, args.started)
    if res.shortfall:
        print(f"shortfall: {len(res.b_set)} of {args.target} requested",
              file=sys.stderr)
        return 3
    return 0


def _cmd_extract(args) -> int:
    g = _read_graph(args.graph)
    seq = _read_vertices(args.seq, g)
    if args.phi == "edge":
        constants: tuple[int, ...] = ()
        phi = (edge_atom(),)
    else:
        if not args.constants:
            raise InputError("--phi eq requires --constants")
        constants = tuple(int(c) for c in args.constants.split(","))
        phi = tuple(eq_atom(i) for i in range(len(constants)))
    ctx = EvalContext(g, constants, args.alpha)
    patterns = enumerate_type_patterns(len(phi), args.k)
    cfg = ExtractionConfig(target_length=args.target,
                           max_pattern_length=args.k,
                           window=args.window)
    out = extract_indiscernible(ctx, phi, patterns, seq, cfg)
    ok, _ = is_delta_indiscernible(ctx, phi, patterns, out)
    _emit(_dump({"sequence": list(out), "length": len(out), "verified": ok}),
          args.output, args.started)
    return 0 if ok else 2


def _cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    doc = json.loads(_read_text(args.result))
    if not isinstance(doc, dict) or "b_set" not in doc:
        raise InputError("result JSON must hold b_set and flips")
    flips = _parse_flips(doc)
    radius = args.radius if args.radius is not None else doc.get("radius")
    if radius is None:
        raise InputError("radius missing from result; pass -r")
    if type(radius) is not int or radius < 0:
        raise InputError(f"radius must be a nonnegative integer, got "
                         f"{radius!r}; pass -r")
    b_set = tuple(_vertex_array(doc["b_set"], "b_set"))
    res = FlipWideResult(b_set, flips, radius, (), True,
                         shortfall=False)
    ok, pair = verify_flip_wide(g, res, radius)
    report = {"verified": ok, "radius": radius}
    if not ok:
        report["violation"] = list(pair)
    _emit(_dump(report), args.output, args.started)
    return 0 if ok else 2


def _cmd_diagnose(args) -> int:
    g = _read_graph(args.graph)
    report: dict = {}
    if args.alt_rank:
        if not args.seq:
            raise InputError("--alt-rank needs --seq")
        seq = _read_vertices(args.seq, g)
        alt, alt_w = alternation_rank(g, seq)
        exc, exc_w = exception_rank(g, seq)
        report["alternation_rank"] = alt
        report["alternation_witness"] = (
            None if alt_w is None
            else {"vertex": alt_w.vertex, "indices": list(alt_w.indices)})
        report["exception_rank"] = exc
        report["exception_witness"] = (
            None if exc_w is None
            else {"vertex": exc_w.vertex,
                  "minority_indices": list(exc_w.minority_indices)})
    for name, k, run in (("order", args.order, order_property_witness),
                         ("shattering", args.shatter, shattering_witness),
                         ("pairing", args.pairing, pairing_index_witness)):
        if k is None:
            continue
        rep = run(g, k)
        report[name] = {
            "witness": (None if rep.witness is None else
                        {"a_seq": list(rep.witness.a_seq),
                         "b_seq": list(rep.witness.b_seq)}),
            "search": rep.search,
        }
    if not report:
        raise InputError("nothing to diagnose: pass --alt-rank, --order, "
                         "--shatter, or --pairing")
    _emit(_dump(report), args.output, args.started)
    return 0


def _cmd_apply_flips(args) -> int:
    g = _read_graph(args.graph)
    flips = _parse_flips(json.loads(_read_text(args.flips)))
    _emit(format_edge_list(apply_flips(g, flips)), args.output, args.started)
    return 0


def _build_parser() -> _Parser:
    p = _Parser(prog="flipwide",
                description="flip-wideness toolkit for graph sequences")
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a named family as an edge list")
    gen.add_argument("family", choices=sorted(FAMILIES))
    gen.add_argument("params", nargs="*", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output")
    gen.set_defaults(run=_cmd_generate)

    fw = sub.add_parser("flip-widen", help="spread a vertex set past radius r")
    fw.add_argument("-g", "--graph", default="-")
    fw.add_argument("-A", "--a-set", required=True,
                    help="vertex list file, or 'all'")
    fw.add_argument("-r", "--radius", type=int, required=True)
    fw.add_argument("-m", "--target", type=int, required=True)
    fw.add_argument("--max-samples", type=int, default=8)
    fw.add_argument("--max-rounds", type=int, default=8)
    fw.add_argument("--min-surviving", type=int, default=1)
    fw.add_argument("--max-pattern-length", type=int, default=4)
    fw.add_argument("--window", type=int, default=48)
    fw.add_argument("-o", "--output")
    fw.set_defaults(run=_cmd_flip_widen)

    ex = sub.add_parser("extract",
                        help="extract an indiscernible subsequence")
    ex.add_argument("-g", "--graph", default="-")
    ex.add_argument("--phi", choices=("edge", "eq"), default="edge")
    ex.add_argument("--constants", help="comma-separated ids for --phi eq")
    ex.add_argument("--alpha", type=int, default=1,
                    help="ball radius for eq atoms")
    ex.add_argument("--k", type=int, default=4,
                    help="maximum pattern length")
    ex.add_argument("-m", "--target", type=int, required=True)
    ex.add_argument("--seq", required=True,
                    help="vertex list file, or 'all'")
    ex.add_argument("--window", type=int, default=48)
    ex.add_argument("-o", "--output")
    ex.set_defaults(run=_cmd_extract)

    ver = sub.add_parser("verify", help="re-check a flip-widen result")
    ver.add_argument("-g", "--graph", default="-")
    ver.add_argument("--result", required=True)
    ver.add_argument("-r", "--radius", type=int)
    ver.add_argument("-o", "--output")
    ver.set_defaults(run=_cmd_verify)

    diag = sub.add_parser("diagnose", help="rank measures and witness hunts")
    diag.add_argument("-g", "--graph", default="-")
    diag.add_argument("--alt-rank", action="store_true",
                      help="report alternation and exception ranks over --seq")
    diag.add_argument("--seq", help="sequence file (or 'all') for --alt-rank")
    diag.add_argument("--order", type=int)
    diag.add_argument("--shatter", type=int)
    diag.add_argument("--pairing", type=int)
    diag.add_argument("-o", "--output")
    diag.set_defaults(run=_cmd_diagnose)

    ap = sub.add_parser("apply-flips", help="apply flips from a result JSON")
    ap.add_argument("-g", "--graph", default="-")
    ap.add_argument("--flips", required=True)
    ap.add_argument("-o", "--output")
    ap.set_defaults(run=_cmd_apply_flips)
    return p


def main(argv=None) -> int:
    started = time.monotonic()
    parser = _build_parser()
    try:
        _check_threads_env()
        args = parser.parse_args(argv)
        args.started = started
        return args.run(args)
    except (InputError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BudgetExceeded, ExtractionShortfall) as exc:
        print(f"budget: {exc}", file=sys.stderr)
        diag = getattr(exc, "diagnostic", None)
        if diag:
            print(f"diagnostic: {diag}", file=sys.stderr)
        return 3
    except (InternalInvariantError, ModeError) as exc:
        print(f"verification: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
