"""Command line front end.

Exit codes: 0 success (and verified where applicable), 1 usage or IO
problem, 2 a verification or internal-invariant failure, 3 a budget or
shortfall stop. Result JSON goes to stdout or -o byte-identically;
timings and output digests go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import asdict

from .errors import (
    BudgetExceeded,
    ExtractionShortfall,
    InputError,
    InternalInvariantError,
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


def _source(path: str) -> str:
    return "stdin" if path == "-" else path


def _read_text(path: str) -> str:
    try:
        if path == "-":
            text = sys.stdin.read()
            # under a C locale stdin decodes with surrogateescape, which
            # turns bytes that are not UTF-8 into lone surrogates
            text.encode("utf-8")
            return text
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeError:
        raise InputError(f"{_source(path)} is not UTF-8 text") from None


def _read_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except RecursionError:
        raise InputError(f"{_source(path)}: JSON nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise InputError(str(exc)) from None
    except ValueError as exc:
        # e.g. an integer with more digits than int() converts
        raise InputError(f"{_source(path)}: {exc}") from None


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


def _result_json(res: FlipWideResult) -> dict:
    return {
        "b_set": list(res.b_set),
        "flips": [asdict(f) for f in res.flip_set],
        "radius": res.radius,
        "trace": [asdict(t) for t in res.trace],
        "verified": res.verified,
    }


def _vertex_array(value, what: str) -> list[int]:
    # JSON true/false decode to bool, a subclass of int: demand int itself
    if not isinstance(value, list) or not set(map(type, value)) <= {int}:
        raise InputError(f"{what} must be an array of integer vertex ids")
    return value


def _parse_flips(doc) -> tuple[Flip, ...]:
    if isinstance(doc, dict):
        if "flips" not in doc:
            raise InputError("result JSON has no 'flips' key")
        doc = doc["flips"]
        if not isinstance(doc, list):
            raise InputError("result JSON 'flips' must be a list")
    elif not isinstance(doc, list):
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
    if args.seed is not None and not takes_seed:
        raise InputError(f"{args.family} takes no --seed")
    call = list(args.params)
    if takes_seed:
        call.append(args.seed or 0)
    g = fn(*call)
    _emit(format_edge_list(g), args.output, args.started)
    return 0


def _cmd_flip_widen(args) -> int:
    g = _read_graph(args.graph)
    a_set = _read_vertices(args.a_set, g)
    budget = SampleBudget(max_pattern_length=args.max_pattern_length,
                          window=args.window)
    req = FlipWideRequest(g, a_set, args.radius, args.target, budget)
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
        if args.constants is not None:
            raise InputError("--constants applies only to --phi eq")
        if args.alpha is not None:
            raise InputError("--alpha applies only to --phi eq")
        constants: tuple[int, ...] = ()
        phi = (edge_atom(),)
    else:
        if not args.constants:
            raise InputError("--phi eq requires --constants")
        try:
            constants = tuple(int(c) for c in args.constants.split(","))
        except ValueError as exc:
            raise InputError(f"--constants: {exc}") from None
        phi = tuple(map(eq_atom, constants))
    ctx = EvalContext(g, 1 if args.alpha is None else args.alpha)
    for c in constants:
        g.check_vertex(c)
    patterns = enumerate_type_patterns(len(phi), args.k)
    cfg = ExtractionConfig(target_length=args.target, window=args.window)
    out = extract_indiscernible(ctx, phi, patterns, seq, cfg)
    ok, _ = is_delta_indiscernible(ctx, phi, patterns, out)
    _emit(_dump({"sequence": list(out), "length": len(out), "verified": ok}),
          args.output, args.started)
    return 0 if ok else 2


def _cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    doc = _read_json(args.result)
    if not isinstance(doc, dict) or "b_set" not in doc:
        raise InputError("result JSON has no 'b_set' key")
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
        report["alternation_witness"] = None if alt_w is None else asdict(alt_w)
        report["exception_rank"] = exc
        report["exception_witness"] = None if exc_w is None else asdict(exc_w)
    elif args.seq is not None:
        raise InputError("--seq applies only to --alt-rank")
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
    flips = _parse_flips(_read_json(args.flips))
    _emit(format_edge_list(apply_flips(g, flips)), args.output, args.started)
    return 0


@functools.cache
def _build_parser() -> _Parser:
    # built once per process; parsing leaves no state in the parser
    p = _Parser(prog="flipwide",
                description="flip-wideness toolkit for graph sequences")
    sub = p.add_subparsers(dest="command", required=True)
    graph = "edge-list file, or '-' for stdin (the default)"

    gen = sub.add_parser("generate", help="emit a named family as an edge list")
    gen.add_argument("family", choices=sorted(FAMILIES))
    gen.add_argument("params", nargs="*", type=int)
    gen.add_argument("--seed", type=int,
                     help="seed of the random families (default 0)")
    gen.set_defaults(run=_cmd_generate)

    fw = sub.add_parser("flip-widen", help="spread a vertex set past radius r")
    fw.add_argument("-g", "--graph", default="-", help=graph)
    fw.add_argument("-A", "--a-set", required=True,
                    help="vertex list file, or 'all'")
    fw.add_argument("-r", "--radius", type=int, required=True,
                    help="distance the vertices of B must exceed pairwise "
                         "after the flips")
    fw.add_argument("-m", "--target", type=int, required=True,
                    help="size of B asked for")
    fw.add_argument("--max-pattern-length", type=int,
                    default=SampleBudget.max_pattern_length,
                    help="longest type pattern the indiscernibility check "
                         "covers (default %(default)s)")
    fw.add_argument("--window", type=int, default=SampleBudget.window,
                    help="leading items that an extraction refines "
                         "(default %(default)s)")
    fw.set_defaults(run=_cmd_flip_widen)

    ex = sub.add_parser("extract",
                        help="extract an indiscernible subsequence")
    ex.add_argument("-g", "--graph", default="-", help=graph)
    ex.add_argument("--phi", choices=("edge", "eq"), default="edge",
                    help="formulas: adjacency, or one eq atom per --constants "
                         "entry (default %(default)s)")
    ex.add_argument("--constants", help="comma-separated ids for --phi eq")
    ex.add_argument("--alpha", type=int,
                    help="ball radius for eq atoms (default 1)")
    ex.add_argument("--k", type=int, default=4,
                    help="maximum pattern length")
    ex.add_argument("-m", "--target", type=int, required=True,
                    help="length of the subsequence asked for")
    ex.add_argument("--seq", required=True,
                    help="vertex list file, or 'all'")
    ex.add_argument("--window", type=int, default=ExtractionConfig.window,
                    help="leading items of --seq that the refinement keeps "
                         "(default %(default)s)")
    ex.set_defaults(run=_cmd_extract)

    ver = sub.add_parser("verify", help="re-check a flip-widen result")
    ver.add_argument("-g", "--graph", default="-", help=graph)
    ver.add_argument("--result", required=True,
                     help="flip-widen result JSON file")
    ver.add_argument("-r", "--radius", type=int,
                     help="radius to check (default: the result's radius)")
    ver.set_defaults(run=_cmd_verify)

    diag = sub.add_parser("diagnose", help="rank measures and witness hunts")
    diag.add_argument("-g", "--graph", default="-", help=graph)
    diag.add_argument("--alt-rank", action="store_true",
                      help="report alternation and exception ranks over --seq")
    diag.add_argument("--seq", help="sequence file (or 'all') for --alt-rank")
    diag.add_argument("--order", type=int,
                      help="search a half-graph of this order")
    diag.add_argument("--shatter", type=int,
                      help="search a shattered set of this size")
    diag.add_argument("--pairing", type=int,
                      help="search a pairing witness over this many vertices")
    diag.set_defaults(run=_cmd_diagnose)

    ap = sub.add_parser("apply-flips", help="apply flips from a result JSON")
    ap.add_argument("-g", "--graph", default="-", help=graph)
    ap.add_argument("--flips", required=True,
                    help="result JSON or flip list JSON file")
    ap.set_defaults(run=_cmd_apply_flips)
    for cmd in sub.choices.values():
        cmd.add_argument("-o", "--output",
                         help="file to write instead of stdout")
    return p


def main(argv=None) -> int:
    started = time.monotonic()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.started = started
        return args.run(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BudgetExceeded, ExtractionShortfall) as exc:
        print(f"budget: {exc}", file=sys.stderr)
        diag = getattr(exc, "diagnostic", None)
        if diag:
            print(f"diagnostic: {diag}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"verification: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
