"""flipwide benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload widen_homogeneous --seed 1 \\
        --seconds 12 --trace 0

Set-up (import, input generation, one warm-up case) is repeated and its
median reported as ``setup_s``. The timed loop then makes whole passes
over the workload's cases, one process and one thread, until ``--seconds``
have passed and a minimum number of passes is done. Times are stated at a
fixed reference speed, which short probes of the machine's speed between
cases give (see ``pace.py``); the measured times are printed too. Every
output is checked: fully against ``reference.py`` on a case's first run,
and for equality with that first output on every repeat. ``--trace 1``
runs the same passes untraced and then traced, and reports per-layer spans
instead of the end-to-end metrics.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it print each metric by name
and unit, and one record per case. Per-case records (and, when tracing,
all spans) are also written under ``.perfbench_out/``. The exit code is 0
only when every output checked out.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter
from types import SimpleNamespace

import workloads as wl
from pace import NEAR, REFERENCE_PROBE_S, Pacer
from tracing import ORACLE_SEARCHES, Tracer, unit_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# Set-ups repeat until both limits are met, so the median spans a few
# seconds of the machine's ups and downs even where one set-up is short.
SETUP_REPS = 5
SETUP_SECONDS = 3.0
# Timed passes every run makes at least, after a first pass that is not
# timed: it checks every output in full and runs before the heap is
# frozen, and in a trial its cases ran up to 8% slower. The timing metrics
# use this many of each case's runs, so the sample count, and with it the
# tail percentile, is the same on every run.
TIMED_PASSES = {"widen_homogeneous": 3, "widen_seeded": 3,
                "verify_claims": 10, "diagnose": 8}
SPAN_LIMIT = 1_000_000
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
NOT_APPLICABLE = 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_s.p50": "s",
    "case_s.tail": "s",
    "b_frac": "ratio",
    "flips_per_case": "count",
    "answered_frac": "ratio",
    "peak_rss_mb": "MB",
}


def load_flipwide() -> SimpleNamespace:
    """Import flipwide afresh, so each set-up pays the import again."""
    for name in [m for m in sys.modules
                 if m == "flipwide" or m.startswith("flipwide.")]:
        del sys.modules[name]
    return SimpleNamespace(
        flipwide=importlib.import_module("flipwide"),
        cli=importlib.import_module("flipwide.cli"),
        generators=importlib.import_module("flipwide.generators"))


def set_up(workload: str, specs: list[dict], workdir: str):
    start = perf_counter()
    fw = load_flipwide()
    cases = wl.build(fw, workload, specs, workdir)
    cases[0].run()
    return perf_counter() - start, cases


class Judge:
    """Runs cases and checks every output.

    A case's first good output is checked in full against the reference;
    later runs must reproduce it exactly, so b_frac and flips_per_case
    repeat by construction or the run fails.
    """

    def __init__(self, cases):
        self.cases = cases
        self.first: dict[int, object] = {}
        self.summaries: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, i: int) -> tuple[float, float]:
        """Run case ``i`` once; return its start and elapsed seconds."""
        case = self.cases[i]
        self.attempted += 1
        start = perf_counter()
        try:
            out = case.run()
        except Exception as exc:  # a raise where success is expected fails the case
            elapsed = perf_counter() - start
            self._fail(i, f"raised {type(exc).__name__}: {exc}")
            return start, elapsed
        elapsed = perf_counter() - start
        try:
            err = self._judge(i, case, out)
        except Exception:
            err = "checking the output raised:\n" + traceback.format_exc()
        if err is not None:
            self._fail(i, err)
        return start, elapsed

    def _judge(self, i: int, case, out) -> str | None:
        if i in self.first:
            if case.key(out) != self.first[i]:
                return "output differs from this case's first run"
            return None
        err = case.check(out)
        if err is None:
            self.first[i] = case.key(out)
            self.summaries[i] = case.summary(out)
        return err

    def _fail(self, i: int, err: str) -> None:
        self.failed += 1
        case = self.cases[i]
        print(f"FAIL case {i} {case.kind} {case.family} n={case.n} r={case.r}: "
              f"{err}", file=sys.stderr)

    def quality(self) -> list[list]:
        """Per case: |B|, |flips| and a digest of the full output."""
        rows = []
        for i in range(len(self.cases)):
            s = self.summaries.get(i, {})
            digest = hashlib.sha256(repr(self.first.get(i)).encode()).hexdigest()
            rows.append([s.get("b"), s.get("flips"), digest[:16]])
        return rows


Runs = list[list[tuple[float, float]]]


def run_passes(judge: Judge, times: Runs, seconds: float, min_passes: int,
               tracer: Tracer | None = None, pacer: Pacer | None = None) -> int:
    """Whole passes over the cases until both limits are met.

    ``times[i]`` collects (start, elapsed) of every run of case ``i``.
    """
    start = perf_counter()
    passes = 0
    while True:
        for i in range(len(judge.cases)):
            if tracer is not None:
                tracer.current_case = i
            if pacer is not None:
                pacer.maybe_probe()
            times[i].append(judge.run(i))
        passes += 1
        if passes == 1:
            _freeze_heap()
        if passes >= min_passes and perf_counter() - start >= seconds:
            if pacer is not None:
                for _ in range(NEAR):
                    pacer.probe()
            return passes


def seconds_of(runs) -> float:
    return sum(elapsed for _, elapsed in runs)


def _freeze_heap() -> None:
    # Inputs and reference data stay alive for the whole run; freezing them
    # keeps the collector from rescanning them during timed cases, so the
    # benchmark's own heap does not leak into the program's timings.
    gc.collect()
    gc.freeze()


def tail_percentile(n_samples: int) -> float:
    """Highest listed percentile with at least 10 samples beyond it."""
    for p in PERCENTILES:
        if n_samples - math.ceil(p / 100 * n_samples) >= 10:
            return p
    return PERCENTILES[-1]


def nearest_rank(sorted_xs: list[float], p: float) -> float:
    return sorted_xs[max(0, math.ceil(p / 100 * len(sorted_xs)) - 1)]


def at_reference_speed(pacer: Pacer, runs) -> list[float]:
    return [elapsed * pacer.scale(start, start + elapsed)
            for start, elapsed in runs]


def middle(xs: list[float], keep: int) -> list[float]:
    """The ``keep`` values nearest the middle of ``xs``."""
    xs = sorted(xs)
    lo = (len(xs) - keep) // 2
    return xs[lo:lo + keep]


def timing(keep: int, scaled: list[list[float]]) -> dict[str, float]:
    # Each case contributes the same number of runs, the k (= the minimum
    # timed pass count) nearest its median.
    flat = sorted(t for ts in scaled for t in middle(ts, keep))
    return {"cases_per_s": len(flat) / sum(flat),
            "case_s.p50": statistics.median(flat),
            "case_s.tail": nearest_rank(flat, tail_percentile(len(flat)))}


def end_to_end(workload, judge, times, setups, pacer) -> tuple[dict, list[str]]:
    # Every time is stated at reference speed (see pace.py); the measured
    # times are printed beside them.
    keep = TIMED_PASSES[workload]
    timed = [ts[1:] for ts in times]
    scaled = [at_reference_speed(pacer, ts) for ts in timed]
    setup_times = at_reference_speed(pacer, setups)
    measured = timing(keep, [[el for _, el in ts] for ts in timed])
    measured["setup_s"] = statistics.median(el for _, el in setups)
    n_flat = keep * len(times)
    pct = tail_percentile(n_flat)
    summaries = [judge.summaries[i] for i in sorted(judge.summaries)]
    widen = workload.startswith("widen_")
    if widen:
        a_total = sum(c.a_size for c in judge.cases)
        b_frac = sum(s["b"] for s in summaries) / a_total
        flips = sum(s["flips"] for s in summaries) / max(len(summaries), 1)
    else:
        b_frac = flips = NOT_APPLICABLE
    if workload == "diagnose":
        searches = [s for i, s in judge.summaries.items()
                    if judge.cases[i].kind in ORACLE_SEARCHES]
    else:
        searches = summaries
    answered = sum(s["answered"] for s in searches) / max(len(searches), 1)
    values = {
        "setup_s": statistics.median(setup_times),
        **timing(keep, scaled),
        "b_frac": b_frac,
        "flips_per_case": flips,
        "answered_frac": answered,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    probe = statistics.median(pacer.took)
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "cases_per_s": f"middle {keep} runs of each case, of {judge.attempted}",
        "case_s.p50": f"middle {keep} runs of each case",
        "case_s.tail": f"p{pct:g} of the {n_flat} middle-{keep} case runs",
        "answered_frac": (f"{len(searches)} witness searches" if workload == "diagnose"
                          else f"{len(searches)} cases"),
    }
    if not widen:
        notes["b_frac"] = notes["flips_per_case"] = "n/a on this workload, reported as 1"
    for name in measured:
        notes[name] += f"; {measured[name]:.6g} {END_TO_END_UNITS[name]} as measured"
    lines = [f"speed: median probe {probe:.6g} s over {len(pacer.took)} probes, "
             f"reference {REFERENCE_PROBE_S:g} s"]
    lines += [f"metric {name} = {values[name]:.6g} {unit}"
              + (f"  ({notes[name]})" if name in notes else "")
              for name, unit in END_TO_END_UNITS.items()]
    fail_frac = judge.failed / max(judge.attempted, 1)
    lines.append(f"metric fail_frac = {fail_frac:.6g} ratio  "
                 f"({judge.failed} of {judge.attempted}; also the result's "
                 f"'failed' and 'attempted')")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, lines


def traced_metrics(workload, judge, times, seconds) -> tuple[dict, list[str]]:
    """Untraced passes for half the time, then as many traced passes."""
    untraced_passes = run_passes(judge, times, seconds / 2, 1)
    untraced = sum(map(seconds_of, times)) / untraced_passes
    traced_times: Runs = [[] for _ in judge.cases]
    tracer = Tracer()
    tracer.install()
    traced_passes = 0
    try:
        # Spans stay in memory, so stop early on workloads that make many.
        while traced_passes < untraced_passes and len(tracer.start) < SPAN_LIMIT:
            traced_passes += run_passes(judge, traced_times, 0, 1, tracer)
    finally:
        tracer.uninstall()
    traced = sum(map(seconds_of, traced_times)) / traced_passes
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in tracer.per_layer(traced_passes).items()}
    metrics["trace.overhead"] = {"value": traced / untraced, "unit": "ratio"}
    spans = os.path.join(OUT, f"{workload}-spans.tsv.gz")
    tracer.write(spans)
    lines = [f"traced {traced_passes} pass(es) after {untraced_passes} untraced; "
             f"{len(tracer.start)} spans in {spans}; values are per pass"]
    lines += [f"layer {name} = {m['value']:.6g} {m['unit']}"
              for name, m in metrics.items()]
    return metrics, lines


def case_records(judge: Judge, times: Runs) -> list[dict]:
    records = []
    for i, case in enumerate(judge.cases):
        s = judge.summaries.get(i, {})
        records.append({
            "case": i, "kind": case.kind, "family": case.family, "n": case.n,
            "r": case.r, "a": case.a_size, "b": s.get("b"),
            "flips": s.get("flips"),
            "seconds": statistics.median(el for _, el in times[i]),
            "runs": len(times[i]), "outcome": s.get("outcome", "failed")})
    return records


def hash_seed_check(args) -> str:
    """Per-case quality recomputed in a child with another PYTHONHASHSEED."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1" if env.get("PYTHONHASHSEED") == "0" else "0"
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--quality-only"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=150)
    except subprocess.TimeoutExpired:
        return "quality child timed out"
    out = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not out:
        return f"quality child exited {proc.returncode}: {proc.stderr.strip()}"
    return out[-1]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quality-only", action="store_true",
                   help="run each case once and print per-case quality as JSON")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flipwide", "__init__.py")):
        print(f"error: flipwide sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    specs = wl.plan(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.quality_only:
            _, cases = set_up(args.workload, specs, workdir)
            judge = Judge(cases)
            for i in range(len(cases)):
                judge.run(i)
            print(json.dumps(judge.quality()))
            return 0 if judge.failed == 0 else 1
        return measure(args, specs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, specs, workdir) -> int:
    pacer = Pacer()
    setups: list[tuple[float, float]] = []
    while len(setups) < SETUP_REPS or seconds_of(setups) < SETUP_SECONDS:
        # Each set-up starts from the same heap: the previous one's cases
        # are dropped and collected first.
        cases = None
        gc.collect()
        for _ in range(NEAR):
            pacer.probe()
        start = perf_counter()
        elapsed, cases = set_up(args.workload, specs, workdir)
        setups.append((start, elapsed))
    _freeze_heap()
    judge = Judge(cases)
    times: Runs = [[] for _ in cases]
    min_passes = TIMED_PASSES[args.workload] + 1
    lines = [f"workload {args.workload} seed {args.seed}: {len(cases)} cases "
             f"per pass"]
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    if args.trace:
        metrics, trace_lines = traced_metrics(args.workload, judge, times,
                                              args.seconds)
        lines += trace_lines
    else:
        passes = run_passes(judge, times, args.seconds, min_passes, pacer=pacer)
        metrics, metric_lines = end_to_end(args.workload, judge, times, setups,
                                           pacer)
        lines.append(f"{passes} passes, {judge.attempted} case runs")
        lines += metric_lines

    correct = judge.failed == 0
    if args.workload.startswith("widen_"):
        got = hash_seed_check(args)
        if got != json.dumps(judge.quality()):
            print(f"FAIL per-case |B|/|flips| differ under another "
                  f"PYTHONHASHSEED: {got}", file=sys.stderr)
            correct = False
        else:
            lines.append("per-case outputs identical under another PYTHONHASHSEED")

    records = case_records(judge, times)
    with open(stem + "-cases.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    for rec in records:
        lines.append("case " + " ".join(f"{k}={v}" for k, v in rec.items()))
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": judge.attempted,
                      "failed": judge.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
