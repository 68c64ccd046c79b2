"""One workload in one process: set up, print READY, run timed passes.

Started by run.py, once per set-up sample and once for the measured run, so
import cost and peak memory belong to the workload alone.  Set-up is import,
input generation and the golden-file load.  The measured run repeats the
workload's op list in whole passes until ``--seconds`` have elapsed, with at
least one pass (see ``run_pass``).  The result goes to stdout as one JSON
line after READY.

With ``--trace 1`` the run is split: untraced passes for half the time, then
the same number of passes with every public function in ``tracing.TRACED``
wrapped, so the two halves give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import obsdiam  # noqa: E402
import obsdiam.cli  # noqa: E402,F401  (bound before tracing rebinds names)

import ops as oplists  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

TAIL_BEYOND = 10  # samples above the reported tail percentile, per pass
SEGMENT_S = 0.5  # ops timed between two kernel samples
SWEEPS = 5  # timings per op and pass, at most
RETIME_BUDGET_S = 0.3  # an op is re-timed while its timings sum to less


def run_op(op, golden, use_golden, check: bool) -> tuple:
    """Call one op and, if ``check``, check its output; returns (CPU
    seconds, problem)."""
    t0 = process_time()
    try:
        result = op.call()
    except obsdiam.ResourceCapError as exc:
        return process_time() - t0, f"resource cap: {exc}"
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return process_time() - t0, f"{type(exc).__name__}: {exc}"
    seconds = process_time() - t0
    if not check:
        return seconds, None
    try:
        problem = op.check(result)
        if problem is None and (use_golden or op.golden_on_every_seed):
            got, want = op.exact(result), golden.get(op.id)
            if got != want:
                problem = f"exact value {got} differs from golden {want}"
    except Exception as exc:
        problem = f"check raised {type(exc).__name__}: {exc}"
    return seconds, problem


def run_pass(ops, golden, use_golden, tracer=None) -> dict:
    """Run and check every op once, then re-time the short ones in up to
    SWEEPS - 1 further sweeps; an op's latency is its median timing.

    Single calls of a few milliseconds scatter by 10-20% on a shared core,
    and back-to-back repeats scatter together, so the repeats are spread
    over the pass.  Timings are scaled to reference speed segment by
    segment, with a kernel sample at both ends of each segment."""
    timings = [[] for _ in ops]
    spent = [0.0] * len(ops)
    failures, failed, segment = [], set(), []
    calibration = 0.0
    start = perf_counter()
    before = speed.sample()
    segment_start = perf_counter()
    for sweep in range(SWEEPS):
        for index, op in enumerate(ops):
            if sweep and (index in failed or spent[index] >= RETIME_BUDGET_S):
                continue
            if tracer is not None:
                tracer.op = index
                span = tracer.open(tracing.OP_SPAN)
            seconds, problem = run_op(op, golden, use_golden, check=sweep == 0)
            if tracer is not None:
                tracer.close(span)
            spent[index] += seconds
            segment.append((index, seconds))
            if problem is not None:
                failed.add(index)
                failures.append((op.id, problem))
            if perf_counter() - segment_start >= SEGMENT_S:
                t0 = perf_counter()
                after = speed.sample()
                calibration += perf_counter() - t0
                scale = speed.factor(before, after)
                for i, x in segment:
                    timings[i].append(x * scale)
                segment, before, segment_start = [], after, perf_counter()
    t0 = perf_counter()
    scale = speed.factor(before, speed.sample())
    calibration += perf_counter() - t0
    for i, x in segment:
        timings[i].append(x * scale)
    return {
        "latencies": [statistics.median(t) for t in timings],
        "timings": sum(len(t) for t in timings),
        "failures": failures,
        "wall": perf_counter() - start,
        "calibration": calibration,
    }


def run_passes(ops, golden, use_golden, seconds, passes=None, tracer=None) -> dict:
    """Whole passes until ``seconds`` have elapsed (at least one), or
    exactly ``passes`` of them."""
    done = []
    start = perf_counter()
    while len(done) < (passes or 1) or (passes is None and perf_counter() - start < seconds):
        done.append(run_pass(ops, golden, use_golden, tracer))
    return {
        "walls": [p["wall"] - p["calibration"] for p in done],
        "latencies": [p["latencies"] for p in done],
        "timings": sum(p["timings"] for p in done),
        "failures": [f for p in done for f in p["failures"]],
    }


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a sample, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def summarize(ops, run: dict) -> dict:
    per_pass = len(ops)
    pooled = [x for lat in run["latencies"] for x in lat]
    # Every op appears once per pass, so this percentile leaves at least
    # TAIL_BEYOND samples above it in each pass, whatever the pass count.
    tail_q = (per_pass - TAIL_BEYOND) / per_pass
    by_kind: dict = {}
    for lat in run["latencies"]:
        for op, x in zip(ops, lat):
            by_kind.setdefault(op.kind, []).append(x)
    return {
        "passes": len(run["walls"]),
        "ops_per_pass": per_pass,
        "samples": len(pooled),
        "timings": run["timings"],
        "ops_per_s": statistics.median(per_pass / sum(lat) for lat in run["latencies"]),
        "latency_p50_s": statistics.median(pooled),
        "latency_tail_s": quantile(pooled, tail_q),
        "tail_percentile": round(100 * tail_q, 2),
        "attempted": len(pooled),
        "failed": len(run["failures"]),
        "failures": run["failures"][:20],
        "by_kind": {
            k: {"n": len(v), "total": sum(v), "min": min(v), "median": statistics.median(v), "max": max(v)}
            for k, v in sorted(by_kind.items())
        },
    }


def traced_metrics(tracer, untraced: dict, traced: dict) -> dict:
    """Per-layer metrics: calls, self-time share and errors of each traced
    function, computed work counts, workload-property shares, overhead."""
    wall = sum(traced["walls"])
    totals = tracer.self_times()
    metrics = {}
    for name in tracing.TRACED:
        calls, seconds = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_share"] = seconds / wall
        metrics[f"{name}.errors"] = tracer.errors[name]
    metrics[f"{tracing.OP_SPAN}.self_share"] = totals.get(tracing.OP_SPAN, (0, 0.0))[1] / wall
    metrics.update(tracer.work)
    distinct = set(tracer.od_calls)
    hits = {call for call in distinct if tracing.seed_hit(*call)}
    calls = tracer.od_calls
    metrics["observable.seed_hit_share"] = (
        sum(c in hits for c in calls) / len(calls) if calls else 0.0
    )
    metrics["observable.line_fullline_share"] = (
        sum(c[1] is obsdiam.FULL_LINE and tracing.embeds_in_line(c[0]) for c in calls) / len(calls)
        if calls else 0.0
    )
    metrics["prokhorov.above_default_cap_share"] = (
        tracer.above_default_cap / tracer.prokhorov_calls if tracer.prokhorov_calls else 0.0
    )
    metrics["trace.overhead_ratio"] = (
        statistics.median(sum(lat) for lat in traced["latencies"])
        / statistics.median(sum(lat) for lat in untraced["latencies"])
    )
    metrics["trace.self_coverage"] = sum(s for _, s in totals.values()) / wall
    return metrics


def family_split(tracer, ops) -> dict:
    """Median wall seconds of the two observable_diameter calls inside each
    family op: the full line first, then the interval."""
    calls: dict = {}
    for op_index, seconds in tracer.durations("observable.observable_diameter"):
        if ops[op_index].kind.startswith("family"):
            calls.setdefault(ops[op_index].id, []).append(seconds)
    return {
        op_id: [statistics.median(seconds[0::2]), statistics.median(seconds[1::2])]
        for op_id, seconds in calls.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=oplists.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None, help="gzip JSON-lines file for the spans")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        ops = oplists.build(args.workload, args.seed, workdir)
        with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
            golden = json.load(fh)[args.workload]
        use_golden = args.seed == oplists.DEVELOPMENT_SEED
        print("READY", flush=True)
        if args.setup_only:
            return 0
        first_kernel_s = speed.sample()
        if not args.trace:
            run = run_passes(ops, golden, use_golden, args.seconds)
            result = summarize(ops, run)
        else:
            untraced = run_passes(ops, golden, use_golden, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            tracer.active = True
            traced = run_passes(ops, golden, use_golden, 0, passes=len(untraced["walls"]), tracer=tracer)
            tracer.active = False
            result = summarize(ops, traced)
            result["attempted"] += sum(len(lat) for lat in untraced["latencies"])
            result["failed"] += len(untraced["failures"])
            result["failures"] = (untraced["failures"] + traced["failures"])[:20]
            result["per_layer"] = traced_metrics(tracer, untraced, traced)
            result["family_od_s"] = family_split(tracer, ops)
            result["spans"] = len(tracer.spans)
            if args.spans_out:
                tracer.write(args.spans_out)
        result["first_kernel_s"] = first_kernel_s
        result["op_list_digest"] = oplists.ops_digest(ops)
        result["golden_checked"] = use_golden
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
