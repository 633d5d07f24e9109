#!/usr/bin/env python3
"""Norm-squeeze and attainment experiment.

Part 1 squeezes the norm of S u = u + u_2 e_1 on the renormed space:
certified lower bounds 1/q_n (which approach 2 from below) against a
sampled sweep showing ||S u|| < 2 ||u|| on every sample, so the operator
has norm 2 without attaining it.  Each sample u is solved once: the dual
bound of the solve bounds ||u|| from below, and S maps the solved
decomposition of u to one of S u, whose cost bounds ||S u|| from above.

Part 2 scans section norms of catalog operators across growing truncations
and reports the attainment heuristic for each.

Usage:
    python3 scripts/norm_squeeze_report.py [--samples 60] [--seed 0]
"""

import argparse
import sys

from normlab.coeffs import Coeffs
from normlab import convex
from normlab import operators as op
from normlab import opnorm
from normlab import spaces as sp


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=60)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print("== norm squeeze for S u = u + u_2 e_1 on the renormed space ==")
    report = convex.sex_norm_bounds((1, 2, 5, 10, 50, 100),
                                    samples=args.samples, seed=args.seed)
    for n, bound, value in report.lower_bounds:
        print("  n=%-4d certified lower bound %.6f (atom value %.6f)"
              % (n, bound, value))
    print("  sampled strict-gap minimum 2||u|| - ||Su||: %.3e over %d samples"
          % (report.min_gap, args.samples))
    if report.failures:
        print("  FAILURES: %s" % report.failures)
        return 1
    print("  conclusion: sup_n 1/q_n = 2 is approached but never attained")

    print("\n== attainment scan over growing sections ==")
    cases = [
        ("diagonal 1 - 2^-n on l_2", op.catalog_build("diag_d"),
         sp.Lp(2.0), (5, 10, 20, 40)),
        ("I + e_1 (x) e_0 on l_2",
         op.Sum((op.Identity(), op.RankOne(Coeffs.basis(1), Coeffs.basis(0)))),
         sp.Lp(2.0), (4, 8, 16)),
        ("T + I on c_0", op.Sum((op.Tc0(), op.Identity())),
         sp.C0(), (5, 10, 20, 30)),
    ]
    ok = True
    for name, T, space, Ns in cases:
        scan = opnorm.attainment_scan(T, space, Ns)
        trace = "  ".join("N=%d:%.8f" % (n, v) for n, v in scan.trace)
        print("  %-28s %s" % (name, trace))
        print("  %-28s value=%.8f attainment=%s"
              % ("", scan.value, scan.attainment))
        ok = ok and scan.attainment != "inconclusive"
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
