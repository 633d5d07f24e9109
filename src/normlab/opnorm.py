"""Norms of finite sections of operators on one space, with attainment
diagnostics.

Exact reductions are used where available (l_1: column sums, c_0 and
l_inf: row sums, l_2: SVD, diagonal and rank-one operators: closed forms,
swap-plus-shrink on the K (+)_q l_p sum: a three-variable reduction).
Everything else falls back to a generalized power iteration with
restarts, which certifies a lower bound only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .coeffs import Coeffs
from . import spaces as sp
from . import operators as op

INF = math.inf

RESTARTS = 16           # random starts of the power iteration
MAX_ITER = 400          # power-iteration steps per start
TOL = 1e-12             # relative stall tolerance of the power iteration
ATT_TOL = 1e-3          # witness Cauchy tolerance for "attained"
ESCAPE_FRAC = 0.2       # centroid/N threshold for "escaping"
F_GRID = 48             # grid points per axis in maximize_swapped_f


@dataclass(frozen=True)
class OpnormConfig:
    seed: int = 0


DEFAULT_CFG = OpnormConfig()


@dataclass(frozen=True)
class NormReport:
    value: float
    witness: Coeffs
    method: str                       # closed_form | reduction_f | iterate
    trace: tuple                      # ((N, value), ...)
    attainment: str                   # attained | escaping | inconclusive
    centroids: tuple = ()             # witness support centroid per N
    warning: bool = False

    def to_json_obj(self):
        return {
            "value": self.value,
            "method": self.method,
            "attainment": self.attainment,
            "trace": [[n, v] for n, v in self.trace],
            "centroids": list(self.centroids),
            "witness": self.witness.to_json_obj(),
            "warning": self.warning,
        }


# ---------------------------------------------------------------------------
# the three-variable reduction for swap-plus-shrink operators
# ---------------------------------------------------------------------------

def f_abg(alpha: float, beta: float, gamma: float, p: float, q: float) -> float:
    """Norm surrogate f(alpha, beta, gamma) of the K (+)_q l_p sum."""
    tail = (beta ** p + gamma ** p) ** (1.0 / p)
    return sp.qsum_combine(alpha, tail, q)


def maximize_swapped_f(p: float, q: float, t: float = 1.0) -> tuple:
    """max of (a,b,g) -> f(b, a, t*g) over K = {f(a,b,g) = 1}.

    Grid over normalized directions (lexicographically smallest grid argmax
    wins ties), then deterministic local polish.  Returns (value, argmax).
    """
    if t < 0:
        raise ValueError("t must be non-negative")

    def objective(a, b, g):
        return f_abg(b, a, t * g, p, q)

    if q == INF:
        # closed branch analysis: best is alpha = gamma = 1, beta = 0
        val = (1.0 + t ** p) ** (1.0 / p)
        if val >= 1.0:
            return val, (1.0, 0.0, 1.0)
        return 1.0, (0.0, 1.0, 0.0)

    # coarse grid
    axis = np.linspace(0.0, 1.0, F_GRID)
    A, B, G = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([A.ravel(), B.ravel(), G.ravel()], axis=1)
    pts = pts[np.any(pts > 0, axis=1)]
    tailc = (pts[:, 1] ** p + pts[:, 2] ** p) ** (1.0 / p)
    fc = (pts[:, 0] ** q + tailc ** q) ** (1.0 / q)
    pts = pts / fc[:, None]
    tails = (pts[:, 0] ** p + (t * pts[:, 2]) ** p) ** (1.0 / p)
    vals = (pts[:, 1] ** q + tails ** q) ** (1.0 / q)
    best_i = int(np.argmax(vals))  # np.argmax already takes the first max
    a0, b0, g0 = pts[best_i]

    candidates = []

    # beta = 0 branch: one-dimensional, smooth
    def neg_scalar(a):
        a = min(max(a, 0.0), 1.0)
        g = (1.0 - a ** q) ** (1.0 / q)
        return -objective(a, 0.0, g)

    res = optimize.minimize_scalar(neg_scalar, bounds=(0.0, 1.0),
                                   method="bounded",
                                   options={"xatol": 1e-13, "maxiter": 500})
    a = float(res.x)
    g = (1.0 - a ** q) ** (1.0 / q)
    candidates.append((objective(a, 0.0, g), (a, 0.0, g)))
    for a in (0.0, 1.0):
        g = (1.0 - a ** q) ** (1.0 / q)
        candidates.append((objective(a, 0.0, g), (a, 0.0, g)))

    # two-variable polish with gamma eliminated by the constraint
    def neg2(v):
        a, b = v
        if a < 0 or b < 0:
            return 0.0
        rest = 1.0 - a ** q
        if rest < 0:
            return 0.0
        gp = rest ** (p / q) - b ** p
        if gp < 0:
            return 0.0
        return -objective(a, b, gp ** (1.0 / p))

    res2 = optimize.minimize(neg2, [a0, b0], method="Nelder-Mead",
                             options={"xatol": 1e-13, "fatol": 1e-15,
                                      "maxiter": 4000})
    a, b = res2.x
    a, b = max(a, 0.0), max(b, 0.0)
    rest = max(1.0 - a ** q, 0.0)
    gp = max(rest ** (p / q) - b ** p, 0.0)
    g = gp ** (1.0 / p)
    candidates.append((objective(a, b, g), (a, b, g)))

    candidates.sort(key=lambda c: -c[0])
    return candidates[0]


def max_f_over_K(p: float, q: float) -> tuple:
    """Maximal value C = 2^(1/p - 1/q) of the swapped norm surrogate on K.

    Computed numerically (grid + polish); the caller compares against the
    closed form.  Requires 1 < p < q <= inf.
    """
    if not (1 < p < q):
        raise ValueError("reduction needs 1 < p < q")
    return maximize_swapped_f(p, q, t=1.0)


# ---------------------------------------------------------------------------
# matrix norms with exact reductions and power iteration
# ---------------------------------------------------------------------------

def _power_iteration(M, space, cfg: OpnormConfig, starts=()):
    n = M.shape[1]
    Mt = M.T
    dual = sp.dual_space(space)
    rng = np.random.default_rng(cfg.seed)
    real_only = np.isrealobj(M) or not np.any(M.imag)

    init = [np.ones(n, dtype=complex)]
    init += [np.eye(n, dtype=complex)[j] for j in range(min(n, 4))]
    for _ in range(RESTARTS):
        v = rng.standard_normal(n)
        if not real_only:
            v = v + 1j * rng.standard_normal(n)
        init.append(v.astype(complex))
    init += [np.asarray(s, dtype=complex) for s in starts]

    best_val, best_x = 0.0, np.zeros(n, dtype=complex)
    for x in init:
        nx = sp.norm_array(space, x)
        if nx == 0:
            continue
        x = x / nx
        prev = -1.0
        for _ in range(MAX_ITER):
            y = M @ x
            val = sp.norm_array(space, y)
            if val <= 0:
                break
            if val > best_val:
                best_val, best_x = val, x.copy()
            if abs(val - prev) <= TOL * max(1.0, val):
                break
            prev = val
            g = sp.norming_functional_array(space, y)
            h = Mt @ g
            x_new = sp.norming_functional_array(dual, h)
            nx = sp.norm_array(space, x_new)
            if nx == 0:
                break
            x = x_new / nx
    return best_val, best_x


def _closed_form(M: np.ndarray, p: float) -> tuple:
    """(values, arg) of the closed-form norm on l_1, l_2 or c_0/l_inf of a
    matrix or a stack (..., n, n) of them.

    l_1 and the sup norm take the largest column (p = 1) or row sum of |M|,
    each line summed pairwise from a C-contiguous copy, as _lp_norm sums it;
    arg is the index of the first largest line.  l_2 takes the top singular
    value; arg is the conjugated top right-singular vector, the witness of
    the bilinear pairing.
    """
    if p == 2:
        _, s, Vh = np.linalg.svd(M)
        return s[..., 0], np.conj(Vh[..., 0, :])
    sums = np.ascontiguousarray(
        np.abs(np.swapaxes(M, -1, -2) if p == 1 else M)).sum(axis=-1)
    return sums.max(axis=-1), sums.argmax(axis=-1)


def matrix_norm(M: np.ndarray, space, cfg: OpnormConfig = DEFAULT_CFG,
                starts=()):
    """Subordinate norm of M on space; (value, witness, method)."""
    M = np.asarray(M, dtype=complex)
    p = sp.lp_exponent(space)
    if p in (1, 2, INF):
        val, arg = _closed_form(M, p)
        w = (arg if p == 2
             else np.eye(M.shape[1], dtype=complex)[arg] if p == 1
             else sp.norming_functional_array(sp.L1(), M[arg]))
        return float(val), w, "closed_form"
    val, w = _power_iteration(M, space, cfg, starts)
    return val, w, "iterate"


def matrix_norms(S: np.ndarray, space,
                 cfg: OpnormConfig = DEFAULT_CFG) -> np.ndarray:
    """The value of matrix_norm for each matrix of a stack S (K, n, n).

    A closed form is one reduction over the whole stack; the power
    iteration runs per matrix.
    """
    p = sp.lp_exponent(space)
    if p in (1, 2, INF):
        return _closed_form(S, p)[0]
    return np.array([matrix_norm(M, space, cfg)[0] for M in S], dtype=float)


def _centroid(w: np.ndarray) -> float:
    a = np.abs(w) ** 2
    tot = a.sum()
    return float((np.arange(len(w)) * a).sum() / tot) if tot > 0 else 0.0


def rank_one_norm(T: op.RankOne, space) -> float:
    """||f||_{X*} ||v||_X: the norm of x -> <x, f> v on X = space."""
    return (sp.norm_eval(sp.dual_space(space), T.functional)
            * sp.norm_eval(space, T.vector))


def require_norming(space) -> None:
    """Reject the renormed l_2 space: its norming functionals are implicit."""
    if isinstance(space, sp.RenormedL2):
        raise NotImplementedError(
            "no norming functionals for the renormed l_2 space; "
            "use the convex module's certified bounds instead")


def operator_norm(T, space, N: int, cfg: OpnormConfig = DEFAULT_CFG,
                  starts=()) -> NormReport:
    """Norm of the N-section of T as an operator on space."""
    if N < 1:
        raise ValueError("N must be positive")
    require_norming(space)

    # closed forms that bypass the section matrix
    if isinstance(T, (op.Identity, op.ScalarMul)):
        lam = 1.0 if isinstance(T, op.Identity) else complex(T.lam)
        w = Coeffs.basis(0)
        return NormReport(abs(lam), w, "closed_form", ((N, abs(lam)),),
                          "attained", (_centroid(w.to_array(N)),))
    if isinstance(T, op.Diagonal):
        dvals = np.array([abs(T.entry(i)) for i in range(N)])
        i = int(np.argmax(dvals))
        val = float(dvals[i])
        w = Coeffs.basis(i)
        return NormReport(val, w, "closed_form", ((N, val),), "inconclusive",
                          (float(i),))
    if isinstance(T, op.RankOne):
        fN = T.functional.to_array(N)
        vN = T.vector.to_array(N)
        dual = sp.dual_space(space)
        val = sp.norm_array(dual, fN) * sp.norm_array(space, vN)
        warr = sp.norming_functional_array(dual, fN)
        w = Coeffs.from_array(warr)
        return NormReport(val, w, "closed_form", ((N, val),), "inconclusive",
                          (_centroid(warr),))
    if (isinstance(T, (op.SimpleS, op.SimpleR))
            and isinstance(space, sp.QSumLp)):
        # the largest shrink (S) or expand (R) factor in the section and
        # the index it sits on
        if N < 3:
            t, k = 0.0, None
        elif isinstance(T, op.SimpleS):
            t, k = (N - 1.0) / N, N - 1
        else:
            t, k = 1.5, 2
        val, (a, b, g) = maximize_swapped_f(space.p, space.q, t)
        w = Coeffs({0: a, 1: b} if k is None else {0: a, 1: b, k: g})
        return NormReport(val, w, "reduction_f", ((N, val),), "inconclusive",
                          (_centroid(w.to_array(N)),))

    M = op.truncate_matrix(T, N)
    val, warr, method = matrix_norm(M, space, cfg, starts)
    return NormReport(val, Coeffs.from_array(warr), method, ((N, val),),
                      "inconclusive", (_centroid(warr),),
                      warning=bool(method == "iterate" and val == 0.0))


# ---------------------------------------------------------------------------
# attainment diagnostics across truncations
# ---------------------------------------------------------------------------

def _phase_align(w: np.ndarray) -> np.ndarray:
    a = np.abs(w)
    if not a.any():
        return w
    k = int(np.argmax(a))
    s = w[k] / a[k]
    return w * np.conj(s)


def witness_drift(witnesses, space) -> tuple:
    """(aligned, dists, centroids) for witnesses over growing sections.

    aligned holds each witness with its global phase fixed on its largest
    coordinate; dists the space norms between consecutive aligned witnesses
    (the shorter one zero-padded); centroids the support centroid of each.
    """
    aligned = [_phase_align(w) for w in witnesses]
    dists = []
    for wa, wb in zip(aligned, aligned[1:]):
        pad = np.zeros(len(wb), dtype=complex)
        pad[: len(wa)] = wa
        dists.append(sp.norm_array(space, pad - wb))
    return aligned, dists, [_centroid(w) for w in witnesses]


def attainment_scan(T, space, Ns, cfg: OpnormConfig = DEFAULT_CFG) -> NormReport:
    """Run operator_norm over increasing truncations and classify attainment.

    The tags are heuristics, never proofs: witnesses that become Cauchy with
    stable support read "attained"; support centroids growing like N with
    still-increasing values read "escaping".
    """
    Ns = list(Ns)
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("Ns must be strictly increasing")
    trace = []
    witnesses = []
    report = None
    for N in Ns:
        starts = ()
        if witnesses:
            padded = np.zeros(N, dtype=complex)
            padded[: len(witnesses[-1])] = witnesses[-1]
            starts = (padded,)
        report = operator_norm(T, space, N, cfg, starts)
        trace.append((N, report.value))
        witnesses.append(report.witness.to_array(N))
    _, dists, centroids = witness_drift(witnesses, space)

    tag = "inconclusive"
    if len(Ns) >= 2:
        values = [v for _, v in trace]
        increasing = all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        if all(d < ATT_TOL for d in dists[-2:]):
            tag = "attained"
        elif (increasing
              and all(c >= ESCAPE_FRAC * n
                      for c, n in zip(centroids[-2:], Ns[-2:]))):
            tag = "escaping"

    return NormReport(trace[-1][1], report.witness, report.method,
                      tuple(trace), tag, tuple(centroids), report.warning)
