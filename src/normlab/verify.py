"""Named acceptance checks AC1-AC10 plus the q-sequence invariant.

Each check returns a structured result so the CLI can print a pass/fail
table and emit a machine-readable report.  Tolerances are pinned here as
constants; the pytest acceptance gate calls these same functions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .coeffs import Coeffs
from . import spaces as sp
from . import operators as op
from . import opnorm
from . import pseudospectrum as ps
from . import convex

INF = math.inf

AC1_TOL = 1e-6
AC1_GAP_AT_1000 = 1e-3
AC2_TOL = 1e-6
AC3_REL_TOL = 1e-4
AC4_RESOLUTION = 121
AC5_TOL = 1e-4
AC6_MIN_N100_BOUND = 1.99
AC7_RESIDUAL_TOL = 1e-10
AC7_NORM_SLACK = 1e-10
AC8_TOL = 1e-3
AC9_DECAY_TOL = 1e-6
AC10_NORM_SLACK = 1e-8
AC10_INF_TOL = 1e-6
SEED = 0                # draws of AC3, AC6 and AC8
GRID_RES = 0.01         # spacing of the AC8 sphere-grid oracle
BOX_SIDE = 6            # axis indices per side of an oracle box


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    ok: bool
    details: dict
    seconds: float = 0.0    # wall time of the check, set by run_checks

    def to_json_obj(self):
        return {"id": self.check_id, "ok": self.ok, "seconds": self.seconds,
                "details": _plain(self.details)}


def _plain(obj):
    """Copy of obj with numpy scalars as Python numbers, for json.dumps."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj.item() if isinstance(obj, np.generic) else obj


def _result(cid, ok, **details):
    return CheckResult(cid, bool(ok), details)


# ---------------------------------------------------------------------------

def swap_section_norm(p: float, q: float, N: int) -> float:
    """Closed form for the N-section norm of the swap-plus-shrink operator.

    With t = (N-1)/N the largest shrink factor present, the constrained
    maximum is (1 + t^{pq/(q-p)})^{1/p - 1/q} for q < inf and
    (1 + t^p)^{1/p} at q = inf.
    """
    t = (N - 1.0) / N if N >= 3 else 0.0
    if q == INF:
        return (1.0 + t ** p) ** (1.0 / p)
    m = t ** (p * q / (q - p))
    return (1.0 + m) ** (1.0 / p - 1.0 / q)


def swap_witness_value(p: float, q: float, t: float) -> float:
    """Value 2^{-1/q}(1 + t^p)^{1/p} at the balanced witness 2^{-1/q}(e0+e_n)
    whose image picks up the shrink factor t = n/(n+1).

    For t = (N-1)/N this is a valid lower bound on the N-section norm; the
    t = N/(N+1) variant references an index outside the section and only
    bounds larger sections (and the full operator norm).
    """
    invq = 0.0 if q == INF else 1.0 / q
    return 2.0 ** (-invq) * (1.0 + t ** p) ** (1.0 / p)


def check_ac1() -> CheckResult:
    """Swap-operator section norms: closed form, strict bound C, escape tag.

    The balanced-witness formula is asserted as a valid lower bound; the
    section norm itself follows the constrained-maximum closed form (the two
    differ by ~2e-3 at N = 10 and coincide in the limit).
    """
    rows = []
    ok = True
    for p, q in ((2.0, 4.0), (2.0, INF)):
        space = sp.QSumLp(q, p)
        C = 2.0 ** (1.0 / p - (0.0 if q == INF else 1.0 / q))
        scan = opnorm.attainment_scan(op.SimpleS(p, q), space,
                                      (10, 100, 1000))
        for N, value in scan.trace:
            closed = swap_section_norm(p, q, N)
            witness_lb = swap_witness_value(p, q, (N - 1.0) / N)
            balanced_next = swap_witness_value(p, q, N / (N + 1.0))
            row_ok = (abs(value - closed) < AC1_TOL
                      and value >= witness_lb - 1e-9
                      and abs(value - balanced_next) < 7e-3
                      and value < C)
            if N == 1000:
                row_ok = row_ok and (C - value) < AC1_GAP_AT_1000
            rows.append({"p": p, "q": "inf" if q == INF else q, "N": N,
                         "value": value, "closed_form": closed,
                         "witness_lower_bound": witness_lb,
                         "balanced_next": balanced_next, "C": C,
                         "ok": row_ok})
            ok = ok and row_ok
        ok = ok and scan.attainment == "escaping"
        rows.append({"p": p, "q": "inf" if q == INF else q,
                     "attainment": scan.attainment,
                     "ok": scan.attainment == "escaping"})
    return _result("AC1", ok, rows=rows)


def check_ac2() -> CheckResult:
    """Constrained maximization recovers C = 2^{1/p-1/q} and its argmax."""
    pairs = ((2.0, 4.0), (2.0, INF), (1.5, 3.0), (3.0, 6.0), (2.0, 8.0))
    rows = []
    ok = True
    for p, q in pairs:
        C, (a, b, g) = opnorm.max_f_over_K(p, q)
        invq = 0.0 if q == INF else 1.0 / q
        C_true = 2.0 ** (1.0 / p - invq)
        coord = 2.0 ** (-invq)
        row_ok = (abs(C - C_true) < AC2_TOL and abs(a - coord) < AC2_TOL
                  and abs(b) < AC2_TOL and abs(g - coord) < AC2_TOL)
        rows.append({"p": p, "q": "inf" if q == INF else q, "C": C,
                     "C_true": C_true, "argmax": [a, b, g], "ok": row_ok})
        ok = ok and row_ok
    return _result("AC2", ok, rows=rows)


def check_ac3() -> CheckResult:
    """Nilpotent rank-one resolvent law |z|^{-1} + |z|^{-2} at N = 30."""
    rng = np.random.default_rng(SEED)
    sections = ((op.truncate_matrix(op.Tc0(), 30), sp.C0(), "tc0"),
                (op.truncate_matrix(op.Tl1(), 30), sp.L1(), "tl1"))
    rows = []
    ok = True
    for _ in range(20):
        r = rng.uniform(0.5, 3.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        z = r * complex(math.cos(theta), math.sin(theta))
        law = ps.rank_one_resolvent_law(z)
        for M, space, name in sections:
            val = ps.resolvent_norm(M, space, z)
            rel = abs(val - law) / law
            row_ok = rel < AC3_REL_TOL
            rows.append({"op": name, "z": [z.real, z.imag], "value": val,
                         "law": law, "rel_err": rel, "ok": row_ok})
            ok = ok and row_ok
    return _result("AC3", ok, rows=rows)


def check_ac4() -> CheckResult:
    """Strict-region radii of the c_0 nilpotent match (e+sqrt(4e+e^2))/2.

    At eps = 0.5 the radius is exactly 1 (the resolvent law gives
    1 + 1 = 2 = 1/eps at |z| = 1).  One scan serves every eps.
    """
    rows = []
    ok = True
    cell = 6.0 / (AC4_RESOLUTION - 1)
    eps_values = (0.1, 0.5, 1.0)
    grid = ps.grid_scan(op.Tc0(), sp.C0(), (-3, 3, -3, 3),
                        AC4_RESOLUTION, eps_values[0], 30)
    for eps in eps_values:
        measured = ps.strict_radius(replace(grid, eps=eps))
        expected = ps.rank_one_strict_radius(eps)
        row_ok = abs(measured - expected) <= cell
        if eps == 0.5:
            row_ok = row_ok and abs(expected - 1.0) < 1e-12
        rows.append({"eps": eps, "radius": measured, "expected": expected,
                     "cell_width": cell, "ok": row_ok})
        ok = ok and row_ok
    return _result("AC4", ok, rows=rows)


def check_ac5() -> CheckResult:
    """Minkowski-norm identities: ||e2+e_{n+2}|| = 1, ||e1+e2+e_{n+2}|| = 1/q_n."""
    qseq = sp.QSeqParams()
    rows = []
    ok = True
    for n in range(1, 11):
        v1, _ = convex.minkowski_norm(Coeffs.basis(2) + Coeffs.basis(n + 2),
                                      max(n, 4))
        v2, _ = convex.minkowski_norm(Coeffs.basis(1) + Coeffs.basis(2)
                                      + Coeffs.basis(n + 2), max(n, 4))
        target = 1.0 / qseq.q(n)
        row_ok = abs(v1 - 1.0) < AC5_TOL and abs(v2 - target) < AC5_TOL
        rows.append({"n": n, "pair_norm": v1, "triple_norm": v2,
                     "inv_q_n": target, "ok": row_ok})
        ok = ok and row_ok
    return _result("AC5", ok, rows=rows)


def check_ac6() -> CheckResult:
    """Norm squeeze for Su = u + u_2 e_1: 1/q_n -> 2 from below and a
    certified strict gap ||Su|| < 2||u|| on 100 seeded samples."""
    report = convex.sex_norm_bounds((1, 2, 5, 10, 50, 100),
                                    samples=100, seed=SEED)
    bounds = [b for _, b, _ in report.lower_bounds]
    solver_ok = all(abs(v * 1.0 / b - 1.0) < 1e-3
                    for _, b, v in report.lower_bounds)
    increasing = all(x < y for x, y in zip(bounds, bounds[1:]))
    n100 = dict((n, b) for n, b, _ in report.lower_bounds)[100]
    ok = (solver_ok and increasing and n100 > AC6_MIN_N100_BOUND
          and report.min_gap > 0 and not report.failures
          and all(b < 2.0 for b in bounds))
    return _result("AC6", ok, lower_bounds=[list(t) for t in
                                            report.lower_bounds],
                   min_gap=report.min_gap,
                   failures=list(report.failures))


def check_ac7() -> CheckResult:
    """30 eigenvalue-planting certificates re-verify residual and norm."""
    rows = []
    ok = True
    cases = []
    for k in range(10):
        cases.append((op.ScalarMul(0.0), sp.Lp(2.0), 0.05 * (k + 1) * 1j
                      + 0.02 * k, 0.8, 12))
    for k in range(10):
        # points near the diagonal cluster {1 - 2^{-n}}
        cases.append((op.Diagonal("one_minus_2pow"), sp.Lp(2.0),
                      0.5 + 0.04 * k + 0.05j, 0.4, 16))
    for k in range(10):
        theta = 2.0 * math.pi * k / 10.0
        z = 0.6 * complex(math.cos(theta), math.sin(theta))
        cases.append((op.Tc0(), sp.C0(), z, 1.0, 20))
    for T, space, z, eps, N in cases:
        cert = ps.att1_perturbation(T, space, z, eps, N)
        chk = ps.verify_cert(T, space, cert)
        row_ok = (chk["residual"] < AC7_RESIDUAL_TOL
                  and chk["norm_A"] <= eps + AC7_NORM_SLACK)
        rows.append({"op": type(T).__name__, "z": [complex(z).real,
                                                   complex(z).imag],
                     "eps": eps, "residual": chk["residual"],
                     "norm_A": chk["norm_A"], "ok": row_ok})
        ok = ok and row_ok
    return _result("AC7", ok, count=len(rows), rows=rows)


def sphere_grid_norm(M: np.ndarray, p: float) -> float:
    """Brute-force oracle: max ||Mx||_p / ||x||_p over a cube-face grid.

    Directions are the points on the faces of the sup-norm cube: one
    coordinate pinned to 1, the other n-1 free on the GRID_RES axis of
    [-1, 1].  On a face, image row r is M[r, face] + sum_j M[r, c_j] x_j.
    Ratios are compared as p-th powers, sum_r |img_r|^p over
    ||x||_p^p = 1 + sum_j |x_j|^p, a denominator all faces share; on
    p = inf the numerator is max_r |img_r| and the denominator is 1 (the
    axis exceeds |x_j| = 1 by at most 2e-15).  One 1/p root is taken, of
    the maximum.

    The result is the maximum over the whole grid, bit for bit, but most
    of the grid is never evaluated (Piyavskii-Shubert branch and bound).
    Each face's free coordinates are cut into boxes of BOX_SIDE axis
    indices a side (the last one shorter).  On a box with centre c and
    half-widths h, |img_r(x)| <= |img_r(c)| + sum_j |M[r, c_j]| h_j, and
    the denominator is at least 1 + sum_j min_box |x_j|^p; their quotient
    bounds every direction in the box.  The best value starts at the
    largest value in each face's top box; a face then evaluates only its
    boxes whose bound times 1 + 1e-9 reaches the best value, in
    decreasing order of bound, and stops at the first that falls short.
    Every direction is computed by the same formula, in the same order
    of operations, as a full scan of the grid would compute it.  Only
    rounding can make a computed value exceed its box's computed bound:
    by a few p n ulps of sum_r (sum_j |M[r, j]|)^p, which is at most
    (rows n) times the grid maximum (take x = the signs of one row).
    The 1e-9 margin covers that many times over, so no pruned box holds
    a larger computed value and the maximum is the full grid's exactly.

    The grid is never stored.  One face's bounds are live at a time, one
    float per box and image row: (201 / BOX_SIDE)^(n-1) boxes, 1.3 MB at
    n = 4 and about 34 times more per added dimension; a batch of boxes
    holds about as many directions as there are boxes.  Uses only M.real
    and numpy, never opnorm, so AC8 can cross-check the production path
    with it.
    """
    n = M.shape[1]
    if n == 1:
        return float(np.abs(M[0, 0]))
    axis = np.arange(-1.0, 1.0 + GRID_RES / 2, GRID_RES)
    k = axis.size
    axp = np.abs(axis) ** p
    starts = np.arange(0, k, BOX_SIDE)
    ends = np.minimum(starts + BOX_SIDE, k) - 1
    margin = 1.0 + 1e-9

    def spread(a, j):
        # a's last axis moved onto free coordinate j's array axis
        return a.reshape(a.shape[:-1] + (1,) * j + a.shape[-1:]
                         + (1,) * (n - 2 - j))

    def ratio(face, xs, pows, halves=()):
        # image rows on array axis 0; halves widen |img| to a box bound
        free = [c for c in range(n) if c != face]
        col = M.real.reshape(M.shape[:1] + (1,) * xs[0].ndim + (n,))
        img = col[..., face]
        for c, x in zip(free, xs):
            img = img + col[..., c] * x
        np.abs(img, out=img)
        for c, h in zip(free, halves):
            img += np.abs(col[..., c]) * h
        if p == INF:
            return img.max(axis=0)
        den = 1.0
        for xp in pows:
            den = den + xp
        img **= p
        return img.sum(axis=0) / den

    def face_max(face, boxes):
        # every direction of the given boxes, clipped at axis index k-1
        los = np.unravel_index(boxes, (starts.size,) * (n - 1))
        idx = [np.minimum(starts[lo][:, None] + np.arange(BOX_SIDE), k - 1)
               for lo in los]
        xs = [spread(axis[i], j) for j, i in enumerate(idx)]
        pows = [spread(axp[i], j) for j, i in enumerate(idx)]
        return float(ratio(face, xs, pows).max())

    # per box: centre, smallest |x_j|^p and half-width, on the box grid
    box = [[spread(v, j) for j in range(n - 1)]
           for v in ((axis[starts] + axis[ends]) / 2,
                     np.minimum.reduceat(axp, starts),
                     (axis[ends] - axis[starts]) / 2)]
    best = max(face_max(face, np.argmax(ratio(face, *box))[None])
               for face in range(n))
    for face in range(n):
        ub = ratio(face, *box).ravel()
        cand = np.flatnonzero(ub * margin >= best)
        cand = cand[np.argsort(-ub[cand], kind="stable")]
        # a batch holds about as many directions as the face has boxes
        batch = max(1, ub.size // BOX_SIDE ** (n - 1))
        for s in range(0, cand.size, batch):
            if ub[cand[s]] * margin < best:
                break
            best = max(best, face_max(face, cand[s: s + batch]))
    return best if p == INF else best ** (1.0 / p)


def check_ac8() -> CheckResult:
    """operator_norm vs the brute-force sphere-grid oracle on 50 instances."""
    rng = np.random.default_rng(SEED)
    exps = [1.5, 2.0, 3.0, INF]
    rows = []
    ok = True
    opnorm_s = oracle_s = 0.0
    for k in range(50):
        n = 4 if k < 10 else int(rng.integers(2, 4))
        p = exps[k % len(exps)]
        M = rng.standard_normal((n, n))
        space = sp.Lp(p)
        t0 = time.perf_counter()
        val, _, method = opnorm.matrix_norm(M.astype(complex), space)
        t1 = time.perf_counter()
        oracle = sphere_grid_norm(M, p)
        opnorm_s += t1 - t0
        oracle_s += time.perf_counter() - t1
        row_ok = abs(val - oracle) < AC8_TOL
        rows.append({"k": k, "n": n, "p": "inf" if p == INF else p,
                     "value": val, "oracle": oracle, "method": method,
                     "ok": row_ok})
        ok = ok and row_ok
    return _result("AC8", ok, rows=rows, opnorm_s=opnorm_s,
                   oracle_s=oracle_s)


def check_ac9() -> CheckResult:
    """Norm-splitting defect: exactly 0 on disjoint supports, decaying with
    shift, below 1e-6 by shift 40."""
    rows = []
    ok = True
    x = Coeffs({i: 2.0 ** (-i) for i in range(12)})
    block = [1.0, 0.5, 0.25]
    for p in (1.5, 2.0, 3.0):
        space = sp.Lp(p)
        useq = [Coeffs({n + j: v for j, v in enumerate(block)})
                for n in range(2, 41, 2)]
        defects = sp.p_space_defect(x, useq, p, space)
        disjoint = sp.p_space_defect(
            x, [Coeffs.basis(100), Coeffs.basis(200)], p, space)
        row_ok = (all(abs(d) == 0.0 for d in disjoint)
                  and abs(defects[-1]) < AC9_DECAY_TOL
                  and abs(defects[-1]) <= abs(defects[0]))
        rows.append({"p": p, "first_defect": defects[0],
                     "last_defect": defects[-1], "ok": row_ok})
        ok = ok and row_ok
    return _result("AC9", ok, rows=rows)


def check_ac10() -> CheckResult:
    """Norm-c singularizing perturbations on the three example operators."""
    cases = ((op.ScalarMul(2.0), sp.Lp(2.0), 16, "fixed"),
             (op.SimpleS(2.0, 4.0), sp.QSumLp(4.0, 2.0), 24, "fixed"),
             (op.Diagonal("one_plus_inv"), sp.Lp(2.0), 32, "escaping"))
    rows = []
    ok = True
    for T, space, N, want_case in cases:
        res = ps.lp111_perturbation(T, space, N)
        if not res.emitted:
            rows.append({"op": type(T).__name__, "case": res.case,
                         "ok": False})
            ok = False
            continue
        normS = opnorm.operator_norm(res.S, space, N).value
        row_ok = (res.case == want_case
                  and normS <= res.c + AC10_NORM_SLACK
                  and res.new_inf < AC10_INF_TOL)
        rows.append({"op": type(T).__name__, "case": res.case, "c": res.c,
                     "norm_S": normS, "new_inf": res.new_inf, "ok": row_ok})
        ok = ok and row_ok
    return _result("AC10", ok, rows=rows)


def check_qseq(q_rule=None) -> CheckResult:
    """q-sequence invariant: 1/2 < q_n < 1/sqrt(2), strictly decreasing.

    q_rule is injectable so a deliberately broken sequence fails the check.
    """
    qseq = sp.QSeqParams()
    q = q_rule if q_rule is not None else qseq.q
    vals = [q(n) for n in range(1, 201)]
    ok = (all(0.5 < v < 2.0 ** -0.5 for v in vals)
          and all(a > b for a, b in zip(vals, vals[1:])))
    if q_rule is None:
        ok = ok and abs(vals[0] - 0.625) < 1e-12
    return _result("qseq", ok, q1=vals[0], q200=vals[-1])


ALL_CHECKS = {
    "qseq": check_qseq,
    "AC1": check_ac1,
    "AC2": check_ac2,
    "AC3": check_ac3,
    "AC4": check_ac4,
    "AC5": check_ac5,
    "AC6": check_ac6,
    "AC7": check_ac7,
    "AC8": check_ac8,
    "AC9": check_ac9,
    "AC10": check_ac10,
}


def run_checks(only=None):
    """Run the named checks (all by default) and return CheckResults."""
    names = list(ALL_CHECKS) if not only else list(only)
    results = []
    for name in names:
        if name not in ALL_CHECKS:
            raise KeyError("unknown check %r" % (name,))
        t0 = time.perf_counter()
        result = ALL_CHECKS[name]()
        results.append(replace(result, seconds=time.perf_counter() - t0))
    return results
