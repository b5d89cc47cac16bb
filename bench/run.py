"""Benchmark for planeflow: one workload, one seed, one run.

    python3 bench/run.py --workload escape-mc --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --smoke

Runs from the root of a checkout and imports planeflow from its ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Every time is in
reference seconds (see yardstick.py).  Lines before it give the raw wall
figures and the yardstick readings.  ``--smoke`` runs every workload for a
round or two with all checks and tracing on, and exits 1 if anything is
wrong.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import types

import workloads as wl
from tracing import Tracer
from yardstick import Y_REF, Yardstick

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
RUNS_DIR = os.path.join(BENCH_DIR, "runs")

MODULES = ("expr", "jets", "quadrature", "flow", "level", "escape", "reports")
SETUP_REPS = 7
MIN_OPS = 110  # leaves at least ten ops beyond the 90th percentile
# rounds per second of --seconds to generate up front: about twice today's
# rate on every workload, so a run repeats no input unless the program gets
# twice as fast
POOL_RATE = 60
TRACE_ROUNDS = 8  # rounds in each traced and untraced pass
CHILDREN_RSS_AT_START = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
EVAL_POINTS = tuple(complex(0.5 * math.cos(j), 0.5 * math.sin(3 * j)) for j in range(64))


class BenchError(Exception):
    """planeflow was imported from somewhere other than this checkout's src/."""


def load_planeflow():
    """Import planeflow from this checkout's src/ afresh and return its modules."""
    for name in [m for m in sys.modules if m == "planeflow" or m.startswith("planeflow.")]:
        del sys.modules[name]
    pf = types.SimpleNamespace(
        **{name: importlib.import_module("planeflow." + name) for name in MODULES}
    )
    origin = os.path.abspath(sys.modules["planeflow"].__file__)
    if not origin.startswith(SRC + os.sep):
        raise BenchError(f"planeflow imported from {origin}, not from {SRC}")
    return pf


def set_up(workload, seed, n_rounds):
    """Import, parse and compile, generate inputs; returns (seconds, state)."""
    t0 = time.perf_counter()
    pf = load_planeflow()
    rounds, funcs = wl.WORKLOADS[workload](pf, seed, n_rounds)
    compiled = [pf.expr.compile_fn(f) for f in funcs]
    return time.perf_counter() - t0, (pf, rounds, compiled)


class Tally:
    """Ops attempted and failed, items finished, check errors, and per-round
    raw op times tagged with the yardstick reading taken before the round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.errors = []
        self.rounds = []

    def scaled_times(self, ys):
        return [t * ys.factor(i) for i, times in self.rounds for t in times]

    def raw_times(self):
        return [t for _, times in self.rounds for t in times]


def run_round(ops, ys, tally, tracer=None):
    ys.measure()
    times = []
    for run, check, items in ops:
        if tracer is not None:
            tracer.op += 1
        t0 = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            times.append(time.perf_counter() - t0)
            tally.attempted += 1
            tally.failed += 1
            tally.errors.append(f"op raised {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - t0)
        tally.attempted += 1
        tally.items += items
        try:
            if check(result) == wl.FAILED:
                tally.failed += 1
        except wl.CheckError as exc:
            tally.errors.append(str(exc))
    tally.rounds.append((len(ys.readings) - 1, times))


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def eval_ns(compiled, ys):
    """Reference ns per call of the workload's compiled functions over EVAL_POINTS.

    Each function gets 15 bursts of 8 sweeps, each burst scaled by the
    yardstick readings on either side of it; the median burst counts.
    """
    per_fn = []
    for fn in compiled:
        bursts = []
        for _ in range(15):
            ys.measure()
            t0 = time.perf_counter()
            for _ in range(8):
                for z in EVAL_POINTS:
                    fn(z)
            bursts.append((len(ys.readings) - 1, (time.perf_counter() - t0) / (8 * len(EVAL_POINTS))))
        ys.measure()
        per_fn.append(statistics.median(t * ys.factor(i) for i, t in bursts))
    return statistics.fmean(per_fn) * 1e9


def measure_untraced(rounds, seconds, ys, min_ops):
    tally = Tally()
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds or tally.attempted < min_ops:
        run_round(rounds[i % len(rounds)], ys, tally)
        i += 1
    ys.measure()
    scaled = sorted(tally.scaled_times(ys))
    raw = sorted(tally.raw_times())
    figures = {}
    for label, times in (("scaled", scaled), ("raw", raw)):
        figures[label] = {
            "items_per_s": tally.items / sum(times),
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_p90_ms": percentile(times, 0.9) * 1e3,
        }
    figures["wall_s"] = time.perf_counter() - start
    return tally, figures


def measure_traced(pf, rounds, compiled, seconds, ys):
    """Alternate untraced and traced passes over the same rounds until time is up.

    Every pass is identical, so per-item counts repeat exactly whatever the
    number of passes.  Returns the tally, the per-layer metrics and the tracer.
    """
    tally = Tally()
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    names = {}
    counts_items = 0
    start = time.perf_counter()
    while not names or time.perf_counter() - start < seconds:
        for traced in (False, True):
            first_round, first_span = len(tally.rounds), len(tracer.spans)
            items_before = tally.items
            if traced:
                tracer.install(pf)
            try:
                for ops in rounds:
                    run_round(ops, ys, tally, tracer if traced else None)
            finally:
                tracer.uninstall()
            ys.measure()
            factors = [ys.factor(i) for i, _ in tally.rounds[first_round:]]
            op_s = sum(f * sum(times) for f, (_, times) in zip(factors, tally.rounds[first_round:]))
            if not traced:
                untraced_s += op_s
                continue
            traced_s += op_s
            counts_items += tally.items - items_before
            scale = statistics.median(factors)
            for name, (calls, total, own) in tracer.totals(first_span).items():
                c, t, s = names.get(name, (0, 0.0, 0.0))
                names[name] = (c + calls, t + total * scale, s + own * scale)
    counts = tracer.counts
    n = max(counts_items, 1)
    calls = lambda name: names.get(name, (0, 0.0, 0.0))[0]
    total = lambda name: names.get(name, (0, 0.0, 0.0))[1]
    steps = counts["flow.steps"]
    jets = calls("jets.eval_jet")
    metrics = {
        "expr.eval_ns": (eval_ns(compiled, ys), "ns"),
        "expr.evals": (counts["expr.evals"] / n, "count"),
        "flow.integrate_ms": (total("flow.integrate") * 1e3 / n, "ms"),
        "flow.us_per_step": (total("flow.drive_field") * 1e6 / steps if steps else 0.0, "us"),
        "flow.steps": (steps / n, "count"),
        "flow.evals_per_step": (counts["flow.rhs_evals"] / steps if steps else 0.0, "ratio"),
        "flow.classify_ms": (total("flow.classify") * 1e3 / n, "ms"),
        "flow.estimate_calls": (calls("flow.blowup_time_estimate") / n, "count"),
        "quadrature.gauss_evals": (counts["quadrature.gauss.evals"] / n, "count"),
        "quadrature.gauss_ms": (total("quadrature.gauss") * 1e3 / n, "ms"),
        "quadrature.simpson_evals": (counts["quadrature.simpson.evals"] / n, "count"),
        "quadrature.simpson_ms": (total("quadrature.simpson") * 1e3 / n, "ms"),
        "level.trace_ms": (total("level.trace_level") * 1e3 / n, "ms"),
        "level.points": (counts["level.points"] / n, "count"),
        "level.corrector_calls": (counts["level.corrector_calls"] / n, "count"),
        "level.transit_ms": (total("level.transit_time") * 1e3 / n, "ms"),
        "jets.eval_calls": (jets / n, "count"),
        "jets.eval_us": (total("jets.eval_jet") * 1e6 / jets if jets else 0.0, "us"),
        "escape.segment_ms": (
            (total("escape.segment_point") + total("escape.transverse_segment")) * 1e3 / n,
            "ms",
        ),
        "escape.rubel_self_ms": (names.get("escape.rubel_path", (0, 0.0, 0.0))[2] * 1e3 / n, "ms"),
        "reports.dumps_us": (total("reports.dumps_report") * 1e6 / n, "us"),
        "trace.overhead": (traced_s / untraced_s, "ratio"),
    }
    return tally, metrics, tracer


def peak_rss_mb():
    """Peak RSS of this process plus that of the largest child it waited for.

    A launcher such as a pyenv shim runs helper processes before it execs
    Python, and their peak is already in RUSAGE_CHILDREN at start-up; it only
    counts if a child of the run itself grew larger.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if children <= CHILDREN_RSS_AT_START:
        children = 0
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def benchmark(workload, seed, seconds, trace, *, min_ops=MIN_OPS, trace_rounds=None, reps=SETUP_REPS):
    """One run; returns the result for the last line, the details and the tracer."""
    ys = Yardstick()
    n_rounds = max(1, math.ceil(POOL_RATE * seconds))
    setups = []
    for _ in range(reps):
        ys.measure()
        took, state = set_up(workload, seed, n_rounds)
        setups.append((len(ys.readings) - 1, took))
    ys.measure()
    pf, rounds, compiled = state
    setup_scaled = statistics.median(took * ys.factor(i) for i, took in setups)
    setup_raw = statistics.median(took for _, took in setups)
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "y_ref_s": Y_REF,
        "setup_s": {"scaled": setup_scaled, "raw": setup_raw},
    }
    if trace:
        pass_rounds = rounds[: trace_rounds or TRACE_ROUNDS]
        tally, layer, tracer = measure_traced(pf, pass_rounds, compiled, seconds, ys)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        details["spans"] = len(tracer.spans)
        details["unwrapped"] = sorted(tracer.missing)
    else:
        tally, figures = measure_untraced(rounds, seconds, ys, min_ops)
        details.update(figures)
        scaled = figures["scaled"]
        metrics = {
            "setup_s": {"value": setup_scaled, "unit": "s"},
            "items_per_s": {"value": scaled["items_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": scaled["op_p50_ms"], "unit": "ms"},
            "op_p90_ms": {"value": scaled["op_p90_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        tracer = None
    readings = sorted(ys.readings)
    details["yardstick_ms"] = {
        "n": len(readings),
        "median": statistics.median(readings) * 1e3,
        "p10": percentile(readings, 0.1) * 1e3,
        "p90": percentile(readings, 0.9) * 1e3,
    }
    details.update(attempted=tally.attempted, failed=tally.failed, items=tally.items, errors=tally.errors[:20])
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, details, tracer


def write_outputs(details, tracer, t_origin):
    os.makedirs(RUNS_DIR, exist_ok=True)
    stem = f"{details['workload']}-seed{details['seed']}-trace{details['trace']}"
    with open(os.path.join(RUNS_DIR, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    if tracer is not None:
        with open(os.path.join(RUNS_DIR, stem + ".spans.jsonl"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start_s", "end_s", "parent", "op"]) + "\n")
            for name, t0, t1, parent, op in tracer.spans:
                fh.write(json.dumps([name, t0 - t_origin, t1 - t_origin, parent, op]) + "\n")


def print_summary(details):
    print(
        f"{details['workload']} seed {details['seed']}: {details['attempted']} ops, "
        f"{details['failed']} failed, {details['items']} items"
    )
    y = details["yardstick_ms"]
    print(
        f"  yardstick: {y['n']} readings, median {y['median']:.4f} ms "
        f"(p10 {y['p10']:.4f}, p90 {y['p90']:.4f}); Y_ref {details['y_ref_s'] * 1e3:.4f} ms"
    )
    print(f"  setup_s: scaled {details['setup_s']['scaled']:.6g}, raw {details['setup_s']['raw']:.6g}")
    for label in ("scaled", "raw"):
        if label in details:
            fig = details[label]
            print(
                f"  {label}: items_per_s {fig['items_per_s']:.6g}, "
                f"op_p50_ms {fig['op_p50_ms']:.6g}, op_p90_ms {fig['op_p90_ms']:.6g}"
            )
    for name in details.get("unwrapped", ()):
        print(f"  not traced (attribute missing): {name}")
    for err in details["errors"]:
        print(f"  CHECK FAILED: {err}")


def smoke():
    """Every workload for a round or two, untraced and traced, all checks on."""
    ok = True
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            t0 = time.perf_counter()
            result, details, _ = benchmark(workload, 0, 0, trace, min_ops=0, trace_rounds=1, reps=1)
            problems = list(details["errors"])
            if trace:
                counts = {k: v["value"] for k, v in result["metrics"].items()}
                if counts["expr.evals"] <= 0 or counts["trace.overhead"] <= 0:
                    problems.append("traced run recorded nothing")
            if workload == "verdicts" and result["failed"] * 13 != result["attempted"]:
                problems.append(f"expected one failed near-miss op per round of 13, got {result['failed']}")
            status = "ok" if not problems else "FAIL"
            ok = ok and not problems
            print(
                f"{workload} trace={trace}: {status}, {result['attempted']} ops, "
                f"{result['failed']} failed, {time.perf_counter() - t0:.1f} s"
            )
            for p in problems:
                print(f"  {p}")
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick self-test of every workload")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "planeflow")):
        print(f"bench: no planeflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    t_origin = time.perf_counter()
    result, details, tracer = benchmark(args.workload, args.seed, args.seconds, args.trace)
    write_outputs(details, tracer, t_origin)
    print_summary(details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
