"""Spans around flipwide's layer-boundary functions, recorded from outside.

The tracer rebinds each listed name in every loaded ``flipwide`` module
that holds it (the defining module, importers and the package namespace),
so calls made inside the program pass through a wrapper too. Spans live in
flat in-memory arrays until the run ends and are written out in one go.
"""

from __future__ import annotations

import gzip
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

ORACLE_SEARCHES = ("order_property_witness", "shattering_witness",
                   "pairing_index_witness", "bipartite_canonical_pattern")
ORACLE_RANKS = ("alternation_rank", "exception_rank")

# Layer-boundary functions, as "<module>.<name>" under the flipwide package.
SPANS = (
    "cli.main",
    "wideness.flip_widen",
    "sampleset.build_sample_set",
    "sampleset.decompose_exceptional",
    "indiscernibles.extract_indiscernible",
    "indiscernibles.is_delta_indiscernible",
    "formulas.EvalContext",
    "formulas.entry_mask",
    "graphcore.apply_flips",
    "graphcore.is_distance_r_independent",
    "graphcore.ball_mask",
    "graphcore.distances_from",
    "graphcore.exact_distance_layer",
    "graphcore.parse_edge_list",
    "graphcore.format_edge_list",
) + tuple(f"oracles.{name}" for name in ORACLE_SEARCHES + ORACLE_RANKS)

# Counts taken at the same boundaries: (numerator, denominator) pairs that
# become ratios, and plain per-pass counts.
RATIOS = {
    "indiscernibles.extract_indiscernible.kept_ratio": ("kept_out", "kept_in"),
    "indiscernibles.is_delta_indiscernible.true_ratio": ("delta_true", "delta_calls"),
    "oracles.budget_ratio": ("oracle_budget", "oracle_searches"),
}
COUNTS = {
    "sampleset.samples_picked": "samples_picked",
    "graphcore.apply_flips.flip_vertices": "flip_vertices",
    "cli.bytes_in": "bytes_in",
}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio") or metric == "trace.overhead":
        return "ratio"
    if metric == "cli.bytes_in":
        return "bytes"
    return "count"


def _count_extract(counts, args, out):
    counts["kept_in"] += len(args[3])
    counts["kept_out"] += len(out)


def _count_delta(counts, args, out):
    counts["delta_calls"] += 1
    counts["delta_true"] += bool(out[0])


def _count_widen(counts, args, out):
    counts["samples_picked"] += sum(len(level.samples) for level in out.trace)


def _count_search(counts, args, out):
    counts["oracle_searches"] += 1
    counts["oracle_budget"] += out.search == "budget"


AFTER = {
    "indiscernibles.extract_indiscernible": _count_extract,
    "indiscernibles.is_delta_indiscernible": _count_delta,
    "wideness.flip_widen": _count_widen,
} | {f"oracles.{name}": _count_search for name in ORACLE_SEARCHES}


def _count_flip_vertices(counts, args):
    # A generator of flips would be consumed by counting, so pin it first.
    flips = tuple(args[1])
    counts["flip_vertices"] += sum(len(f.a) + len(f.b) for f in flips)
    return (args[0], flips) + args[2:]


_FILE_OPTIONS = ("-g", "--graph", "--result", "--flips")


def _count_bytes_in(counts, args):
    argv = list(args[0] or ()) if args else []
    for opt, value in zip(argv, argv[1:]):
        if opt in _FILE_OPTIONS and value != "-":
            counts["bytes_in"] += os.path.getsize(value)
    return args


BEFORE = {
    "graphcore.apply_flips": _count_flip_vertices,
    "cli.main": _count_bytes_in,
}


class Tracer:
    """In-memory spans: name, case id, parent span, start and end."""

    def __init__(self):
        self.labels = list(SPANS)
        self.name = array("i")
        self.case = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(float)
        self.current_case = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, label: str, fn):
        before = BEFORE.get(label)
        after = AFTER.get(label)
        stack = self._stack

        def traced(*args, **kwargs):
            if before is not None:
                args = before(self.counts, args)
            sid = len(self.start)
            self.name.append(index)
            self.case.append(self.current_case)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(self.counts, args, out)
            return out

        return traced

    def install(self) -> None:
        """Rebind every span's name in each loaded flipwide module."""
        modules = [(name, mod) for name, mod in sys.modules.items()
                   if name == "flipwide" or name.startswith("flipwide.")]
        for index, label in enumerate(self.labels):
            layer, attr = label.split(".")
            original = getattr(sys.modules[f"flipwide.{layer}"], attr)
            wrapper = self._wrap(index, label, original)
            for _, mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def per_layer(self, passes: int) -> dict[str, float]:
        """Calls, total and self seconds per span, and the counts, per pass.

        Self time is a span's duration minus the durations of its direct
        children; single-threaded calls nest, so children never overlap.
        """
        total = len(self.start)
        child = [0.0] * total
        for i in range(total):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.labels)
        spent = [0.0] * len(self.labels)
        own = [0.0] * len(self.labels)
        for i in range(total):
            k = self.name[i]
            dur = self.end[i] - self.start[i]
            calls[k] += 1
            spent[k] += dur
            own[k] += dur - child[i]
        out = {}
        for k, label in enumerate(self.labels):
            out[f"{label}.calls"] = calls[k] / passes
            out[f"{label}.total_s"] = spent[k] / passes
            out[f"{label}.self_s"] = own[k] / passes
        for metric, (num, den) in RATIOS.items():
            d = self.counts[den]
            out[metric] = self.counts[num] / d if d else 0.0
        for metric, key in COUNTS.items():
            out[metric] = self.counts[key] / passes
        return out

    def write(self, path: str) -> None:
        """Gzipped, one tab-separated line per span; times are perf_counter seconds."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tcase\tparent\tname\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.case[i]}\t{self.parent[i]}\t"
                         f"{self.labels[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\n")
