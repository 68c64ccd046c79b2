"""Record the exact outputs of the development seed into golden.json.

    python3 perfbench/make_golden.py [workload ...]

Run once, on the commit that defines the benchmark.  An op whose structural
check fails is reported and left out, so it fails every later run.  Later
changes must not regenerate the file: the values pin the library's answers.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import obsdiam.cli  # noqa: E402,F401

import ops as oplists  # noqa: E402


def main(workloads) -> int:
    path = os.path.join(HERE, "golden.json")
    golden = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            golden = json.load(fh)
    bad = 0
    for workload in workloads or oplists.WORKLOADS:
        golden[workload] = {}
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
            for op in oplists.build(workload, oplists.DEVELOPMENT_SEED, workdir):
                result = op.call()
                problem = op.check(result)
                if problem is not None:
                    print(f"{op.id}: {problem}", file=sys.stderr)
                    bad += 1
                    continue
                golden[workload][op.id] = op.exact(result)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
