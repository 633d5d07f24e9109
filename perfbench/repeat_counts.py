"""Show that the exact per-layer counts repeat between runs of the same code.

Runs the traced benchmark twice per workload with the same seed and
compares every exact metric (calls, cells, singular cells, LAPACK calls,
computed flops, method mix, converged ratio, gap, span count).  Run from
the root of a checkout:

    python3 perfbench/repeat_counts.py --seed 3 [--workloads pspec,opnorm]

Exits 1 if any count differs, printing the metric and both values.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402  (needs normlab on the path)


def traced(workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                         text=True, check=True, timeout=600)
    result = json.loads(out.stdout.splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()
            if tracing.is_exact(k)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workloads", default="pspec,opnorm,renorm,acceptance")
    args = ap.parse_args()
    same = True
    for workload in args.workloads.split(","):
        a, b = traced(workload, args.seed), traced(workload, args.seed)
        diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
        same = same and not diff
        print("%s: %d exact metrics, %s" % (
            workload, len(a), "identical" if not diff else "DIFFER %r" % diff))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
