"""Run the benchmark over several seeds and summarize each end-to-end metric.

    python3 perfbench/record.py --seeds 1-10 [--workloads od-corpus,...] [--out FILE]

For every workload and seed this runs ``run.py`` once (``--trace 0``; with
``--traced`` also one ``--trace 1`` run on the first seed), then
reports per metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
next to the bound in BENCHMARK.json.  ``--out`` writes every raw value with
the environment, which is how ``baseline.json`` was made.  A before/after
comparison runs this on both commits with the same seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    lines = proc.stdout.splitlines()
    env = json.loads(lines[0][len("env "):])
    return env, json.loads(lines[-1]), lines[1:-1]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    parser.add_argument("--traced", action="store_true", help="also one --trace 1 run per workload, first seed")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"seeds": parse_seeds(args.seeds), "run_seconds": args.seconds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in record["seeds"]:
            env, result, notes = run_once(workload, seed, args.seconds)
            record["env"] = env
            runs.append({"seed": seed, **result, "notes": notes})
            values = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct {result['correct']}, {values}", flush=True)
        summary = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[name]}
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(
                f"  {workload} {name}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                f"spread {spread:.4f} (bound {bounds[name]}, {spread / bounds[name]:.2f} of it)",
                flush=True,
            )
        record["workloads"][workload] = {"summary": summary, "runs": runs}
        if args.traced:
            _, result, notes = run_once(workload, record["seeds"][0], args.seconds, trace=1)
            record["workloads"][workload]["traced"] = {"seed": record["seeds"][0], **result, "notes": notes}
            print(f"  {workload} traced: correct {result['correct']}", flush=True)
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
