"""obsdiam benchmark: one workload, checked outputs, metrics as one JSON line.

    python3 perfbench/run.py --workload od-corpus --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The workload runs in fresh child processes (``workload.py``), one
at a time: ``SETUP_SAMPLES - 1`` that only set up, then one that sets up and
measures, so ``setup_s`` is a median and ``peak_rss_mb`` and import cost
belong to the workload.  With ``--trace 0`` the last line reports the
end-to-end metrics, with ``--trace 1`` the per-layer ones.  Exits 1 without a
result if the library is missing or a child fails.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("od-corpus", "measure-pipeline", "verify-suites")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    return "ratio" if name.endswith(("_share", "_ratio", "_coverage")) else "count"


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def environment() -> dict:
    src = os.path.join(ROOT, "src", "obsdiam")
    sha = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                sha.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_digest": sha.hexdigest()[:16],
    }


def run_child(args, *, setup_only: bool, spans_out=None) -> tuple:
    """Start one workload process; returns (seconds until READY at reference
    speed, result dict)."""
    argv = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    if spans_out:
        argv += ["--spans-out", spans_out]
    before = speed.sample()
    started = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            first = proc.stdout.readline()
            ready = perf_counter() - started
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("workload process timed out") from None
    if proc.returncode != 0 or first.strip() != "READY":
        raise RuntimeError(f"workload process exited {proc.returncode}")
    result = None
    for line in rest.splitlines():
        if line.startswith("{"):
            result = json.loads(line)
    if setup_only:
        after = speed.sample()
    elif result is None:
        raise RuntimeError("workload process printed no result")
    else:
        after = result["first_kernel_s"]
    return ready * speed.factor(before, after), result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="0 is the development seed")
    parser.add_argument("--seconds", type=int, default=20, help="minimum measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "obsdiam", "__init__.py")):
        print(f"error: no library at {os.path.join(ROOT, 'src', 'obsdiam')}; "
              "run from a source checkout", file=sys.stderr)
        return 1
    env = environment()
    try:
        if args.trace:
            out_dir = os.path.join(ROOT, ".perfbench-out")
            os.makedirs(out_dir, exist_ok=True)
            spans_out = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
            _, result = run_child(args, setup_only=False, spans_out=spans_out)
            setups = []
        else:
            setups = [run_child(args, setup_only=True)[0] for _ in range(SETUP_SAMPLES - 1)]
            ready, result = run_child(args, setup_only=False)
            setups.append(ready)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(
        f"workload {args.workload} seed {args.seed}: op list {result['op_list_digest']}, "
        f"{result['ops_per_pass']} ops/pass, {result['passes']} passes, "
        f"golden values {'checked' if result['golden_checked'] else 'not checked (structural checks only)'}"
    )
    print(f"fail_ratio {result['failed'] / result['attempted']:.6g} ({result['failed']}/{result['attempted']})")
    for op_id, problem in result["failures"]:
        print(f"  FAILED {op_id}: {problem}")
    for kind, stats in result["by_kind"].items():
        print(
            f"  {kind:<28} n={stats['n']:<5} total {stats['total']:.4g}s min {stats['min']:.4g}s "
            f"median {stats['median']:.4g}s max {stats['max']:.4g}s"
        )
    if args.trace:
        for op_id, seconds in sorted(result["family_od_s"].items()):
            print(f"  {op_id} od calls (full line, interval): " + ", ".join(f"{s:.4g}s" for s in seconds))
        print(f"spans: {result['spans']} written to {spans_out}")
        metrics = {
            name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in result["per_layer"].items()
        }
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": result["ops_per_s"],
            "latency_p50_s": result["latency_p50_s"],
            "latency_tail_s": result["latency_tail_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
        print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
        print(
            f"latency samples {result['samples']} (medians of {result['timings']} timings); "
            f"tail = p{result['tail_percentile']} "
            f"(10 samples beyond it in every pass)"
        )
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
