"""Seeded request lists for the four benchmark workloads, and their checks.

A request is a closure the harness times plus a check it runs afterwards,
outside the timed region.  Every check is independent of the code path it
checks: closed forms, numpy on a section built here from the operator's
definition, or the pinned tolerances and closed forms in ``normlab.verify``.
A check raises CheckError on a wrong output; it may also return notes on
known weaknesses that are not wrong outputs (see ``pspec_request``).

The composition of each pass (operators, sizes, resolutions, counts) is
fixed; the seed draws only the values inside it (regions, eps, matrix
entries, atom indices, vectors) and the order.  That keeps the cost of a
pass nearly the same from seed to seed, so seeds measure the program and
not the luck of the draw.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from normlab import cli, convex, opnorm, operators as op, spaces as sp, verify
from normlab.coeffs import Coeffs

INF = math.inf


class CheckError(Exception):
    """A request's output disagrees with its independent check."""


def require(cond, msg, *fmt):
    if not cond:
        raise CheckError(msg % fmt if fmt else msg)


@dataclass(eq=False)
class Request:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list | None]


def cli_request(kind, argv, check):
    def run():
        buf = io.StringIO()
        rc = cli.main(argv, stdout=buf)
        return rc, buf.getvalue()
    return Request(kind, run, check)


def _lp(arr, p):
    a = np.abs(arr)
    return float(a.max()) if p == INF else float((a ** p).sum() ** (1.0 / p))


def _close(value, ref, rel, label):
    require(abs(value - ref) <= rel * max(abs(ref), 1e-300),
            "%s: %.15g vs reference %.15g (rel tol %g)",
            label, value, ref, rel)


def _witness_array(obj, n):
    w = np.zeros(n, dtype=complex)
    for i, re, im in obj:
        require(0 <= i < n, "witness index %d outside the section", i)
        w[i] = complex(re, im)
    return w


# ---------------------------------------------------------------------------
# independent finite sections, built from the operators' definitions
# ---------------------------------------------------------------------------

def section(name, N):
    j = np.arange(N, dtype=float)
    M = np.zeros((N, N), dtype=complex)
    if name == "tc0":            # x -> (sum_{n>=1} 2^-n x_n) e_0
        M[0, 1:] = 2.0 ** -j[1:]
    elif name == "tl1":          # x -> (sum_{n>=1} (1 - 2^-n) x_n) e_0
        M[0, 1:] = 1.0 - 2.0 ** -j[1:]
    elif name == "diag_d":       # entries 1 - 2^-(n+1)
        M[np.diag_indices(N)] = 1.0 - 2.0 ** -(j + 1.0)
    elif name == "sex":          # u + u_2 e_1
        M[np.diag_indices(N)] = 1.0
        if N > 2:
            M[1, 2] += 1.0
    elif name == "simple_s":     # swap e_0, e_1 then shrink by n/(n+1)
        M[np.diag_indices(N)] = j / (j + 1.0)
        M[0, 0] = M[1, 1] = 0.0
        M[0, 1] = M[1, 0] = 1.0
    else:
        raise KeyError(name)
    return M


def _rt_bracket(M, p):
    """(best basis-column ratio, Riesz-Thorin bound) for ||M||_{p -> p}."""
    A = np.abs(M)
    lower = max(_lp(M[:, j], p) for j in range(M.shape[1]))
    upper = (A.sum(axis=0).max() ** (1.0 / p)
             * A.sum(axis=1).max() ** (1.0 - 1.0 / p))
    return lower, upper


def _in_bracket(value, M, p, label):
    lower, upper = _rt_bracket(M, p)
    require(lower * (1 - 1e-9) <= value <= upper * (1 + 1e-9),
            "%s: %.15g outside [column ratio %.15g, Riesz-Thorin %.15g]",
            label, value, lower, upper)


# ---------------------------------------------------------------------------
# pspec: pseudospectrum grids through `normlab pspec`
# ---------------------------------------------------------------------------

PSPEC_CASES = {
    "tc0": ({"space": "c0"}, {"op": "catalog", "name": "tc0"}),
    "tl1": ({"space": "l1"}, {"op": "catalog", "name": "tl1"}),
    "diag_d": ({"space": "lp", "p": 2},
               {"op": "diagonal", "rule": "one_minus_2pow"}),
    "simple_s_l3": ({"space": "lp", "p": 3},
                    {"op": "catalog", "name": "simple_s", "p": 3, "q": 3}),
}
PSPEC_EPS = (0.1, 0.5, 1.0)
PSPEC_RES = (5, 7)                   # cycled over each N=30 operator
# l_3 grids at fixed places: the power-iteration cost of a cell swings by
# 20x with z, which a seeded region would turn into seed-to-seed noise;
# three grids of 40-200 ms rather than one of 600 ms, so that no single
# request outweighs a tenth of the pass
PSPEC_L3_REGIONS = ((1.5, 2.0, -0.25, 0.25), (2.0, 2.5, 0.5, 1.0),
                    (-2.5, -2.0, -1.0, -0.5))


def _law_radius(eps):
    return 0.5 * (eps + math.sqrt(4.0 * eps + eps * eps))


def _expected_class(r, thr, band=1e-6):
    if r == INF:
        return "strict"
    if abs(r - thr) <= band * thr:
        return "level"
    return "strict" if r > thr else "outside"


def _pspec_reference(name, N, z):
    """Resolvent norm from closed forms, or an (lower, upper) bracket."""
    if name in ("tc0", "tl1"):
        # the N-section's norm, 1/|z| + (1 - 2^-(N-1))/|z|^2, tends to the law
        a = abs(z)
        return 1.0 / a + (1.0 - 2.0 ** (1 - N)) / (a * a) if a > 1e-6 else INF
    if name == "diag_d":
        d = np.min(np.abs(z - np.diag(section("diag_d", N))))
        return 1.0 / d if d > 1e-12 else INF
    R = np.linalg.inv(section("simple_s", N) - z * np.eye(N))
    return _rt_bracket(R, 3.0)


def pspec_request(name, N, res, eps, region):
    space, oper = PSPEC_CASES[name]
    argv = ["pspec", "--space", json.dumps(space),
            "--operator", json.dumps(oper), "--eps", repr(eps),
            "--grid=%r,%r,%r,%r" % region, "--res", str(res),
            "--trunc", str(N)]

    def check(out):
        rc, text = out
        notes = []
        require(rc == 0, "exit code %d", rc)
        lines = text.splitlines()
        require(lines[0] == "re,im,resnorm,class", "bad CSV header")
        rows = [ln.split(",") for ln in lines[1:-1]]
        require(len(rows) == res * res, "%d cells, want %d",
                len(rows), res * res)
        re_axis = np.linspace(region[0], region[1], res)
        im_axis = np.linspace(region[2], region[3], res)
        thr = 1.0 / eps
        counts = {"strict": 0, "level": 0, "outside": 0}
        radius = 0.0
        for k, (re, im, rn, cls) in enumerate(rows):
            z = complex(float(re), float(im))
            zref = complex(re_axis[k % res], im_axis[k // res])
            require(abs(z - zref) <= 1e-9 * (1 + abs(zref)),
                    "cell %d at %r, want %r", k, z, zref)
            r = float(rn)
            require(cls == _expected_class(r, thr),
                    "cell %r class %s for resnorm %r", z, cls, r)
            counts[cls] += 1
            if cls == "strict":
                radius = max(radius, abs(z))
            ref = _pspec_reference(name, N, z)
            if isinstance(ref, tuple):
                # the iterate path certifies a lower bound only: it must not
                # exceed Riesz-Thorin; falling short of the best basis column
                # is a known weakness, reported as a note, not a failure
                require(r != INF, "cell %r singular", z)
                require(0 < r <= ref[1] * (1 + 1e-9),
                        "cell %r resnorm %.15g above Riesz-Thorin %.15g",
                        z, r, ref[1])
                if r < ref[0] * (1 - 1e-9):
                    notes.append("%s cell %r: iterate %.12g below "
                                 "basis-column ratio %.12g"
                                 % (name, z, r, ref[0]))
            elif ref == INF:
                require(r == INF, "cell %r should be singular", z)
            else:
                _close(r, ref, verify.AC3_REL_TOL, "cell %r" % z)
        want = "strict=%d level=%d outside=%d" % (
            counts["strict"], counts["level"], counts["outside"])
        require(lines[-1].startswith(want + " radius="),
                "summary %r, want %r", lines[-1], want)
        require(abs(float(lines[-1].rsplit("=", 1)[1]) - radius) <= 1e-6,
                "summary radius %s, want %.6f", lines[-1], radius)
        if name in ("tc0", "tl1"):
            cell = math.hypot(re_axis[1] - re_axis[0], im_axis[1] - im_axis[0])
            require(abs(radius - _law_radius(eps)) <= cell,
                    "strict radius %.6f, law %.6f, cell %.6f",
                    radius, _law_radius(eps), cell)
        return notes

    return cli_request("pspec.%s.N%d" % (name, N), argv, check)


def _law_region(rng, eps):
    """A seeded rectangle holding the law's strict disc with room to spare."""
    r = _law_radius(eps)
    cx, cy = rng.uniform(-0.25, 0.25, size=2) * r
    hx, hy = (r + math.hypot(cx, cy)) * rng.uniform(1.2, 1.7, size=2)
    return (float(cx - hx), float(cx + hx), float(cy - hy), float(cy + hy))


def build_pspec(rng):
    reqs = []
    for name in ("tc0", "tl1", "diag_d"):
        for k in range(33):
            res = PSPEC_RES[k % len(PSPEC_RES)]
            eps = float(rng.choice(PSPEC_EPS))
            if name == "diag_d":
                cx, cy = 0.75 + rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
                hx, hy = rng.uniform(0.4, 1.2, size=2)
                region = (float(cx - hx), float(cx + hx),
                          float(cy - hy), float(cy + hy))
            else:
                region = _law_region(rng, eps)
            reqs.append(pspec_request(name, 30, res, eps, region))
    # the large section: where a batched inversion would pay in memory
    for name in ("tc0", "tl1"):
        eps = float(rng.choice(PSPEC_EPS))
        reqs.append(pspec_request(name, 60, 9, eps, _law_region(rng, eps)))
    # tiny l_3 grids keep the power-iteration cell path covered
    for region in PSPEC_L3_REGIONS:
        reqs.append(pspec_request("simple_s_l3", 8, 2, 0.5, region))
    return [reqs[i] for i in rng.permutation(len(reqs))]


# ---------------------------------------------------------------------------
# opnorm: `normlab opnorm` streams plus library attainment scans
# ---------------------------------------------------------------------------

DENSE_P = (1.5, 3.0, 4.0)
DENSE_N = (4, 8, 16, 32, 64)
# matrices per (p, n): the slowest solves (p < 4, n >= 32) hold op_p90_ms,
# and their cost is a property of the draw, so they get twice the copies
# to make p90 a quantile of many draws
DENSE_COPIES = {(p, n): 6 if p < 4 and n >= 32 else 3
                for p in DENSE_P for n in DENSE_N}
CATALOG = {
    "tc0": ({"space": "c0"}, {"op": "catalog", "name": "tc0"}),
    "tl1": ({"space": "l1"}, {"op": "catalog", "name": "tl1"}),
    "diag_d": ({"space": "lp", "p": 2},
               {"op": "diagonal", "rule": "one_minus_2pow"}),
    "sex": ({"space": "lp", "p": 2}, {"op": "catalog", "name": "sex"}),
}
SWAP_PQ = ((2.0, 4.0), (2.0, INF), (1.5, 3.0), (3.0, 6.0))


def _opnorm_argv(space, oper, N, seed):
    return ["opnorm", "--space", json.dumps(space),
            "--operator", json.dumps(oper), "--trunc", str(N),
            "--seed", str(seed), "--format", "json"]


def dense_request(M, p, seed):
    n = M.shape[0]
    oper = {"op": "matrix",
            "rows": [[[float(v), 0.0] for v in row] for row in M]}

    def check(out):
        rc, text = out
        require(rc == 0, "exit code %d", rc)
        rep = json.loads(text)
        require(rep["method"] == "iterate", "method %s", rep["method"])
        value = rep["value"]
        _in_bracket(value, M, p, "matrix n=%d p=%g" % (n, p))
        w = _witness_array(rep["witness"], n)
        _close(_lp(M @ w, p) / _lp(w, p), value, 1e-9, "witness ratio")

    return cli_request("opnorm.matrix.p%g.n%d" % (p, n),
                       _opnorm_argv({"space": "lp", "p": p}, oper, n, seed),
                       check)


def catalog_request(name, N, seed):
    space, oper = CATALOG[name]

    def check(out):
        rc, text = out
        require(rc == 0, "exit code %d", rc)
        rep = json.loads(text)
        require(rep["method"] == "closed_form", "method %s", rep["method"])
        M = section(name, N)
        if space["space"] == "c0":
            ref = np.abs(M).sum(axis=1).max()
        elif space["space"] == "l1":
            ref = np.abs(M).sum(axis=0).max()
        else:
            ref = np.linalg.svd(M, compute_uv=False)[0]
        _close(rep["value"], float(ref), 1e-12, "%s N=%d" % (name, N))

    return cli_request("opnorm.%s" % name, _opnorm_argv(space, oper, N, seed),
                       check)


def swap_request(p, q, N, seed):
    qj = "inf" if q == INF else q
    space = {"space": "qsum", "q": qj, "p": p}
    oper = {"op": "catalog", "name": "simple_s", "p": p, "q": qj}

    def check(out):
        rc, text = out
        require(rc == 0, "exit code %d", rc)
        rep = json.loads(text)
        require(rep["method"] == "reduction_f", "method %s", rep["method"])
        _close(rep["value"], verify.swap_section_norm(p, q, N),
               verify.AC1_TOL, "swap p=%g q=%g N=%d" % (p, q, N))

    return cli_request("opnorm.simple_s.qsum",
                       _opnorm_argv(space, oper, N, seed), check)


def _l15_rank_one_norm(N):
    """||Tl1_N||_{1.5}: the l_3 norm of its functional (1 - 2^-n)_{n<N}."""
    f = 1.0 - 2.0 ** -np.arange(1, N, dtype=float)
    return float((f ** 3).sum() ** (1.0 / 3.0))


SCANS = {
    # name: (operator, space, Ns, reference norm of the N-section, rel tol,
    #        expected tag, section() name for the witness check or None)
    "simple_s.qsum": (op.SimpleS(2.0, 4.0), sp.QSumLp(4.0, 2.0),
                      (10, 100, 1000),
                      lambda N: verify.swap_section_norm(2.0, 4.0, N),
                      verify.AC1_TOL, "escaping", None),
    # swap block is a permutation, the shrink block stays below 1: norm 1
    "simple_s.l3": (op.SimpleS(3.0, 3.0), sp.Lp(3.0), (8, 16, 32),
                    lambda N: 1.0, 1e-9, "attained", "simple_s"),
    "tl1.l1.5": (op.Tl1(), sp.Lp(1.5), (8, 16, 32), _l15_rank_one_norm,
                 1e-9, "escaping", "tl1"),
}


def scan_request(name, seed):
    T, space, Ns, ref, tol, tag, sec = SCANS[name]
    cfg = opnorm.OpnormConfig(seed=seed)

    def run():
        return opnorm.attainment_scan(T, space, Ns, cfg)

    def check(rep):
        require([N for N, _ in rep.trace] == list(Ns), "trace %r", rep.trace)
        for N, value in rep.trace:
            _close(value, ref(N), tol, "scan %s N=%d" % (name, N))
        require(rep.attainment == tag, "tag %s, want %s", rep.attainment, tag)
        if sec is not None:
            M, w = section(sec, Ns[-1]), rep.witness.to_array(Ns[-1])
            _close(_lp(M @ w, space.p) / _lp(w, space.p), rep.value, 1e-9,
                   "scan witness")

    return Request("opnorm.scan." + name, run, check)


def build_opnorm(rng):
    reqs = []
    for p in DENSE_P:
        for n in DENSE_N:
            for _ in range(DENSE_COPIES[p, n]):
                reqs.append(dense_request(rng.standard_normal((n, n)), p,
                                          int(rng.integers(0, 2 ** 31))))
    # section sizes sit on fixed ladders, each rung moved up by a seeded
    # 0..5: the cost of a closed form grows with N**2 or faster, so free
    # draws of N would make wall_s and op_p90_ms a property of the seed
    for name in CATALOG:
        for k in range(10):
            N = 50 + 39 * k + int(rng.integers(0, 6))
            reqs.append(catalog_request(name, N,
                                        int(rng.integers(0, 2 ** 31))))
    for p, q in SWAP_PQ:
        for k in range(4):
            N = 10 + 130 * k + int(rng.integers(0, 6))
            reqs.append(swap_request(p, q, N, int(rng.integers(0, 2 ** 31))))
    for name in SCANS:
        reqs.append(scan_request(name, int(rng.integers(0, 2 ** 31))))
    return [reqs[i] for i in rng.permutation(len(reqs))]


# ---------------------------------------------------------------------------
# renorm: `normlab norm` on the renormed l_2 plus library solver calls
# ---------------------------------------------------------------------------

def _vector_json(u):
    return json.dumps(u.to_json_obj())


def _decomposition(obj):
    return convex.Decomposition(
        Coeffs.from_json_obj(obj["x"]),
        tuple(complex(re, im) for re, im in obj["alpha"]),
        tuple(complex(re, im) for re, im in obj["beta"]),
        obj["objective"], obj["dual_bound"], obj["gap"], obj["converged"])


def _same_vector(a, b, tol, label):
    n = max(a.dim_hint, b.dim_hint)
    diff = float(np.abs(a.to_array(n) - b.to_array(n)).max())
    require(diff <= tol, "%s differs from u by %.3g", label, diff)


def norm_request(kind, u, N, target=None):
    argv = ["norm", "--space", '{"space":"renorm"}', "--vector",
            _vector_json(u), "--trunc", str(N), "--format", "json"]

    def check(out):
        rc, text = out
        require(rc == 0, "exit code %d", rc)
        rep = json.loads(text)
        d = _decomposition(rep["decomposition"])
        require(d.converged, "solver did not converge (gap %.3g)", d.gap)
        require(d.dual_bound <= d.objective * (1 + 1e-12) + 1e-15,
                "dual bound %.15g above objective %.15g",
                d.dual_bound, d.objective)
        require(rep["value"] == d.objective, "value is not the objective")
        _same_vector(d.reconstruct(), u, 1e-9 * max(1.0, rep["value"]),
                     "reconstruct()")
        if target is not None:
            _close(rep["value"], target, verify.AC5_TOL / target, kind)

    return cli_request("renorm." + kind, argv, check)


def _ball_point(rng, N, scale):
    """A point of norm <= scale: a convex mix of a ball piece and two atoms."""
    mix = rng.dirichlet(np.ones(3)) * scale
    x = rng.standard_normal(N + 3) + 1j * rng.standard_normal(N + 3)
    s = rng.uniform(0.2, 0.8)
    x[[1, 2]] *= (1 - s) / np.linalg.norm(x[[1, 2]])
    rest = [0] + list(range(3, N + 3))
    x[rest] *= s / np.linalg.norm(x[rest])
    n, m = rng.integers(1, N + 1, size=2)
    qm = sp.QSeqParams().q(int(m))
    u = (mix[0] * Coeffs.from_array(x)
         + mix[1] * (Coeffs.basis(2) + Coeffs.basis(int(n) + 2))
         + (mix[2] * qm) * (Coeffs.basis(1) + Coeffs.basis(2)
                            + Coeffs.basis(int(m) + 2)))
    return u


def decompose_request(u, N):
    def run():
        return convex.b_atomic_decompose(u, N)

    def check(split):
        require(min(split.a, split.b, split.c) >= 0, "negative weight")
        require(split.a + split.b + split.c <= 1 + 1e-6,
                "weights sum to %.9g > 1", split.a + split.b + split.c)
        _same_vector(split.reconstruct(), u, 1e-9, "split.reconstruct()")

    return Request("renorm.decompose", run, check)


def squeeze_request(seed):
    Ns = (1, 2, 5, 10)

    def run():
        return convex.sex_norm_bounds(Ns, samples=10, seed=seed)

    def check(rep):
        qseq = sp.QSeqParams()
        for (n, bound, value), want in zip(rep.lower_bounds, Ns):
            require(n == want and bound == 1.0 / qseq.q(n), "bound row %r",
                    (n, bound))
            _close(value, bound, verify.AC5_TOL / bound, "atom n=%d" % n)
        require(rep.min_gap > 0, "min gap %.3g", rep.min_gap)
        require(not rep.failures, "unconverged samples %r", rep.failures)

    return Request("renorm.sex_norm_bounds", run, check)


RENORM_SPARSE = 140
PAIR_LADDER = np.array(sorted([*range(5, 101, 5), *range(37, 68, 5)]))


def build_renorm(rng):
    # atoms sit on a fixed ladder of n, each moved down by a seeded 0..1: a
    # solve's cost climbs steeply with n and differs by up to 1.5x between
    # neighbouring n, so free draws of n would make the tail (and
    # op_p90_ms) a property of the seed; the pair ladder is twice as dense
    # where p90 falls (40-90 ms), so that the dense vectors and splits,
    # whose cost is a property of the draw, move p90 by less
    reqs = []
    qseq = sp.QSeqParams()
    for n in PAIR_LADDER - rng.integers(0, 2, size=len(PAIR_LADDER)):
        pair = Coeffs.basis(2) + Coeffs.basis(int(n) + 2)
        reqs.append(norm_request("pair_atom", pair, max(int(n), 4), 1.0))
    for n in range(20, 101, 20) - rng.integers(0, 2, size=5):
        triple = Coeffs.basis(1) + Coeffs.basis(2) + Coeffs.basis(int(n) + 2)
        reqs.append(norm_request("triple_atom", triple, max(int(n), 4),
                                 1.0 / qseq.q(int(n))))
    # the bulk of the stream, and enough of it that op_p50_ms falls inside
    # it: about one in six of these solves takes twice the others, and
    # with fewer of them the median sat on that step
    for _ in range(RENORM_SPARSE):
        supp = rng.integers(0, 14, size=4)
        vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u = Coeffs.from_pairs(zip(supp.tolist(), vals.tolist()))
        reqs.append(norm_request("sparse.trunc12", u, 12))
    for N in (50, 100):
        for _ in range(2):
            arr = rng.standard_normal(N + 3) + 1j * rng.standard_normal(N + 3)
            reqs.append(norm_request("dense.trunc%d" % N,
                                     Coeffs.from_array(arr), N))
    for _ in range(3):
        reqs.append(decompose_request(_ball_point(rng, 20, 0.9), 20))
    reqs.append(squeeze_request(int(rng.integers(0, 2 ** 31))))
    return [reqs[i] for i in rng.permutation(len(reqs))]


# ---------------------------------------------------------------------------
# acceptance: `normlab verify --only <id>` for every check
# ---------------------------------------------------------------------------

def verify_request(cid):
    # the text report, as users run it; `--format json` is left out because
    # it raises TypeError on AC2 (numpy bools in the details) at this commit
    def check(out):
        rc, text = out
        require(text.splitlines() == ["%s: PASS" % cid],
                "report %r", text[-300:])
        require(rc == 0, "exit code %d", rc)

    return cli_request("acceptance." + cid, ["verify", "--only", cid], check)


# Checks that take seconds run once, always in this order: the short checks
# run at speeds that depend on which long checks ran before them (by up to
# 1.4x), so a seeded order would make op_p50_ms a property of the seed.  The others (under
# 0.5 s each) run eight times, two rounds in a seeded order before each
# long check and two after the last: a single run of one of them varies
# by up to 2x, and op_p50_ms is the median of their medians.
ACCEPTANCE_LONG = ("AC4", "AC6", "AC8")
SHORT_ROUNDS = 2


def build_acceptance(rng):
    reqs = {cid: verify_request(cid) for cid in verify.ALL_CHECKS}
    short = [cid for cid in reqs if cid not in ACCEPTANCE_LONG]
    schedule = []
    for cid in ACCEPTANCE_LONG + (None,):
        for _ in range(SHORT_ROUNDS):
            schedule += [reqs[short[i]] for i in rng.permutation(len(short))]
        if cid is not None:
            schedule.append(reqs[cid])
    return schedule


# ---------------------------------------------------------------------------

GENERATORS = {
    "pspec": build_pspec,
    "opnorm": build_opnorm,
    "renorm": build_renorm,
    "acceptance": build_acceptance,
}


def build(workload, seed):
    """One pass: the requests in the order they are sent (may repeat)."""
    return GENERATORS[workload](np.random.default_rng(seed))


def warmup(workload):
    """Small requests run before timing: first calls, lazy imports, caches."""
    rng = np.random.default_rng(12345)
    if workload == "pspec":
        return [pspec_request("tc0", 30, 3, 0.5, (-2.0, 2.0, -2.0, 2.0)),
                pspec_request("simple_s_l3", 4, 2, 0.5, (0.0, 0.5, 0.5, 1.0))]
    if workload == "opnorm":
        return [dense_request(rng.standard_normal((4, 4)), 3.0, 0),
                catalog_request("sex", 5, 0), swap_request(2.0, 4.0, 5, 0)]
    if workload == "renorm":
        return [norm_request("pair_atom", Coeffs.basis(2) + Coeffs.basis(3),
                             4, 1.0)]
    return [verify_request("qseq")]
