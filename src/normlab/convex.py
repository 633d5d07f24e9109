"""Minkowski-functional norm of the renormed-l_2 space, with certificates.

The unit ball is the absolutely convex hull of the l_2 ball pieces
{||x'||_2 + ||(x_1, x_2)||_2 <= 1} and the atom families e_2 + e_{n+2} and
q_n (e_1 + e_2 + e_{n+2}).  The norm is the minimal decomposition cost

    ||x'||_2 + ||(x_1, x_2)||_2 + ||alpha||_1 + ||beta||_1

over u = x + sum alpha_n (e_2+e_{n+2}) + sum beta_n q_n (e_1+e_2+e_{n+2}).
Eliminating x leaves an unconstrained nonsmooth convex problem in
w = (alpha, beta), solved by a primal-dual (Chambolle-Pock) iteration with
the diagonal steps of Pock & Chambolle (ICCV 2011), which are closed forms
in q, and the atom map applied in O(N).  The duality gap is certified from a
scaled dual-feasible point.  It is checked after steps 1, 2, 4, 8, 16 and 32
and then every 50 steps; the running best primal value and dual bound can
only improve at a check, so the early checks let a solve stop sooner and
never later.  The dual often becomes exact long before the primal: at a
failed check where the best dual bound has not risen since the last one,
a decomposition read off the dual point by the KKT conditions is kept if
it costs less.  minkowski_norms runs the same iteration on a stack of
vectors at one truncation.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from .coeffs import Coeffs, require_finite
from .spaces import Q_RULE, QSeqParams

QSEQ = QSeqParams()
TOL = 1e-8              # relative duality-gap target of minkowski_norm
MAX_ITER = 60000        # primal-dual iterations per solve
SEX_TOL = 1e-6          # solver tolerance of the norm squeeze
SEX_TRUNC = 12          # truncation of the squeeze's random samples
# a vector whose largest part |Re u_i|, |Im u_i| lies outside this range is
# solved as 2^-k u, its largest part in [1, 2), and the results are scaled
# back by 2^k: the norm is homogeneous and a power of two scales exactly,
# so no step meets an overflowing or underflowing intermediate
SCALE_RANGE = (2.0 ** -500, 2.0 ** 500)
# the KKT decomposition: a piece is active when its dual norm lies within
# KKT_SLACK (relative) of the largest, and the NNLS stops after NNLS_PASSES
# least-squares solves, which covers active sets of about that many pieces
KKT_SLACK = 1e-6
NNLS_PASSES = 40


@dataclass(frozen=True)
class Decomposition:
    """Feasible decomposition of u; objective upper-bounds the norm."""

    x: Coeffs
    alpha: tuple           # complex coefficients, atom index n = 1..N
    beta: tuple
    objective: float
    dual_bound: float      # certified lower bound on the norm
    gap: float
    converged: bool
    iterations: int = 0    # primal-dual iterations the solve ran
    kkt: bool = False      # objective is that of the KKT decomposition

    def reconstruct(self) -> Coeffs:
        beta = np.asarray(self.beta, dtype=complex)
        return _atom_sum(self.x, self.alpha,
                         beta * QSEQ.q_array(len(beta)))

    def to_json_obj(self):
        return {
            "schema_version": 2,
            "x": self.x.to_json_obj(),
            "alpha": [[v.real, v.imag] for v in self.alpha],
            "beta": [[v.real, v.imag] for v in self.beta],
            "objective": self.objective,
            "dual_bound": self.dual_bound,
            "gap": self.gap,
            "converged": self.converged,
            "iterations": self.iterations,
            "kkt": self.kkt,
            "q_rule": Q_RULE,
        }


def _atom_sum(x: Coeffs, pair=(), triple=()) -> Coeffs:
    """x + sum_n pair_n (e_2 + e_{n+2}) + sum_n triple_n (e_1 + e_2 + e_{n+2}).

    One array takes the terms in the order of the term-by-term sum: x, then
    the pair terms, then the triple terms, n ascending.  So each coefficient
    gets the bits of that sum, in O(N) instead of copying a Coeffs per term.
    """
    pair = np.asarray(pair, dtype=complex)
    triple = np.asarray(triple, dtype=complex)
    N = max(len(pair), len(triple))
    if not N:
        return x
    u = x.to_array(max(x.dim_hint, N + 3))
    u[1] = np.add.accumulate(np.concatenate((u[1:2], triple)))[-1]
    u[2] = np.add.accumulate(np.concatenate((u[2:3], pair, triple)))[-1]
    u[3:len(pair) + 3] += pair
    u[3:len(triple) + 3] += triple
    return Coeffs.from_array(u)


def _divide(v: np.ndarray, s: float) -> np.ndarray:
    """v / s for complex v and real s, one real division per part, as
    Python's complex division by a float takes it."""
    return (np.ascontiguousarray(v, dtype=complex).view(float) / s).view(complex)


def _ldexp(v, k: int) -> np.ndarray:
    """2^k v for complex v, one ldexp per part: exact unless a part leaves
    the normal range."""
    parts = np.ascontiguousarray(v, dtype=complex).view(float)
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(parts, k).view(complex)


def _scaled(u: Coeffs, k: int) -> Coeffs:
    """2^k u, as _ldexp scales its entries."""
    vals = _ldexp(list(u.entries.values()), k)
    return Coeffs(dict(zip(u.entries, vals.tolist())), u.dim_hint)


def _split_coords(u: Coeffs, N: int):
    """(u0, u1, u2, tail of length N) with support confined to [0, N+3)
    and every entry finite."""
    if any(i >= N + 3 for i in u.support()):
        raise ValueError("support of u must lie in [0, N+3) for trunc N=%d"
                         % N)
    arr = u.to_array(N + 3)
    require_finite(arr, "coefficients")
    return arr[0], arr[1], arr[2], arr[3:]


def _shift(u: Coeffs) -> int:
    """The k with 2^-k u's largest part in [1, 2) when u's largest part
    lies outside SCALE_RANGE, else 0 (u = 0 included)."""
    top = max((max(abs(v.real), abs(v.imag)) for v in u.entries.values()),
              default=1.0)
    if SCALE_RANGE[0] <= top <= SCALE_RANGE[1]:
        return 0
    return math.frexp(top)[1] - 1


def _scaled_back(d: Decomposition, k: int) -> Decomposition:
    """The solve of 2^k u from the solve d of u, exactly."""
    objective, dual_bound, gap = _ldexp(
        [d.objective, d.dual_bound, d.gap], k).real.tolist()
    return dataclasses.replace(
        d, x=_scaled(d.x, k), alpha=tuple(_ldexp(d.alpha, k)),
        beta=tuple(_ldexp(d.beta, k)), objective=objective,
        dual_bound=dual_bound, gap=gap)


def _zero_solve(N: int) -> Decomposition:
    """The solve of u = 0: the zero decomposition, with no step."""
    return Decomposition(Coeffs.zero(), (0.0,) * N, (0.0,) * N,
                         0.0, 0.0, 0.0, True)


def _steps(N: int):
    """q_1..q_N and the diagonal steps of Pock-Chambolle (alpha = 1):
    tau_j = 1 / (column sum of |K|), i.e. 1/2 on alpha_n and 1/(3 q_n) on
    beta_n, and on each dual block one sigma at 1 / (its largest row sum of
    |K|), which keeps the dual prox a projection onto the unit ball (with
    N = 0 the rows are zero and any step will do)."""
    q = QSEQ.q_array(N)
    tau = np.concatenate((np.full(N, 0.5), 1.0 / (3.0 * q)))
    sigma1 = 1.0 / (1.0 + float(q.max(initial=0.0)))
    sigma2 = 1.0 / max(1.0, N + float(q.sum()))
    return q, tau, sigma1, sigma2


def _checked(step: int) -> bool:
    """Whether the duality gap is checked after this step."""
    return step in (1, 2, 4, 8, 16, 32) or step % 50 == 0 or step == MAX_ITER


def _stalled(best_dual, last_dual):
    """Whether the best dual bound has not risen since the last check, up
    to the rounding by which minkowski_norm and minkowski_norms differ."""
    return best_dual <= last_dual * (1.0 + 1e-12)


def _nnls(A, b, passes: int) -> np.ndarray:
    """Lawson-Hanson: a z >= 0 minimizing ||A z - b||_2 for real A and b,
    stopping after `passes` least-squares solves (rounding can make the
    active-set loop cycle)."""
    k = A.shape[1]
    z = np.zeros(k)
    on = np.zeros(k, dtype=bool)
    tol = 10 * max(A.shape) * np.finfo(float).eps * max(
        1.0, float(np.abs(A).max(initial=0.0)) * float(np.abs(b).max()))
    grow = True
    for _ in range(passes):
        if grow:
            grad = np.where(on, -np.inf, A.T @ (b - A @ z))
            j = int(np.argmax(grad))
            if grad[j] <= tol:
                break
            on[j] = True
        s = np.zeros(k)
        s[on] = np.linalg.lstsq(A[:, on], b, rcond=None)[0]
        low = on & (s <= 0)
        grow = not low.any()
        if grow:
            z = s
            continue
        # step from z toward s until a coefficient reaches 0, and drop it
        z += float((z[low] / (z[low] - s[low])).min()) * (s - z)
        on &= z > tol
        z[~on] = 0.0
    return z


def _kkt_w(b, p, g, q) -> np.ndarray:
    """A decomposition w read off the dual point p by the KKT conditions.

    b and p lie in the layout (u0, tail | u1, u2), g = K^T p.  A piece is
    active when its dual norm, ||p'||, ||(p1, p2)|| or |g_j|, comes within
    KKT_SLACK of the scale that makes p feasible; an active atom points
    along -g_j, and x' and (x1, x2) along -p' and -(p1, p2).  The
    nonnegative sizes that fit u best come from _nnls on the real form of
    u = x + K w.  Any w is feasible, since its cost is taken with
    x = u - K w, so a rough fit only costs more."""
    N = len(q)
    norms = (math.sqrt(np.vdot(p[:N + 1], p[:N + 1]).real),
             math.sqrt(np.vdot(p[N + 1:], p[N + 1:]).real))
    mags = np.abs(g)
    cut = (1.0 - KKT_SLACK) * max(1.0, *norms, mags.max(initial=0.0))
    act = np.flatnonzero(mags >= cut)
    d = -g[act] / mags[act]
    cols = np.zeros((N + 3, len(act) + 2), dtype=complex)
    if norms[0] >= cut:
        cols[:N + 1, 0] = -p[:N + 1] / norms[0]
    if norms[1] >= cut:
        cols[N + 1:, 1] = -p[N + 1:] / norms[1]
    # atom j's column d_j K e_j: d_j (resp. q_n d_j) in its tail row n + 1
    # and in the u2 row for a pair atom, also in the u1 row for a triple
    n, k = act % N, np.arange(2, len(act) + 2)
    y = np.where(act < N, 1.0, q[n]) * d
    cols[n + 1, k] = y
    cols[N + 1, k] = np.where(act < N, 0.0, y)
    cols[N + 2, k] = y
    z = _nnls(np.concatenate((cols.real, cols.imag)),
              np.concatenate((b.real, b.imag)), NNLS_PASSES)
    w = np.zeros(2 * N, dtype=complex)
    w[act] = z[2:] * d
    return w


def minkowski_norm(u: Coeffs, N: int, tol: float = TOL) -> tuple:
    """(norm value, optimal Decomposition) with a certified duality gap.

    The gap is checked after steps 1, 2, 4, 8, 16 and 32, then every 50
    steps and after the last; `iterations` counts the steps run up to the
    first check whose gap meets `tol` (or MAX_ITER).  At a check that
    fails with the best dual bound no higher than at the last one, the KKT
    decomposition of the dual point (_kkt_w) replaces the best iterate if
    it costs less (`kkt` records that) and the gap is tested again.
    Non-convergence is not an exception: the best feasible value is
    returned with converged=False and the residual gap recorded.  A u
    whose largest part lies outside SCALE_RANGE is solved scaled by a power
    of two; inside it the iterates are those of u itself.  A non-finite
    entry raises a ValueError.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    u0, u1, u2, tail = _split_coords(u, N)
    if not u.entries:
        return 0.0, _zero_solve(N)
    k = _shift(u)
    if k:
        d = _scaled_back(minkowski_norm(_scaled(u, -k), N, tol)[1], k)
        return d.objective, d

    q, tau, sigma1, sigma2 = _steps(N)
    b1 = np.concatenate(([u0], tail))
    u1, u2 = complex(u1), complex(u2)

    # Each step writes into these buffers, so it allocates no array; q
    # (and tau below) also get complex copies, so that their products with
    # complex arrays skip numpy's cast, which gives the same bits.
    qb = np.empty(N, dtype=complex)
    c = np.empty(N, dtype=complex)
    g = np.empty(2 * N, dtype=complex)
    ga, gb = g[:N], g[N:]
    shrink = np.empty(2 * N)
    qz = q.astype(complex)

    # The atom map K has about 4N nonzeros, so it and its adjoint are
    # applied in O(N).  It sends w = (alpha, beta) to (y', y1, y2), with
    # x' = (u0, tail) - y' and (x1, x2) = (u1, u2) - (y1, y2); the first
    # entry of y' is 0, so forward() writes y' without it into c and
    # returns (y1, y2).
    def forward(a, b):
        np.multiply(qz, b, out=qb)
        s = complex(qb.sum())
        np.add(a, qb, out=c)
        return s, s + complex(a.sum())

    sb1 = sigma1 * b1
    tauz = tau.astype(complex)

    w = np.zeros(2 * N, dtype=complex)
    w_new = np.empty_like(w)
    wbar = w.copy()
    wbar_a, wbar_b = wbar[:N], wbar[N:]
    p1 = np.zeros(N + 1, dtype=complex)       # dual of the x' block
    p1_t = p1[1:]
    p2a = p2b = 0j                            # dual of the (x1, x2) block

    def primal(wv):
        y1, y2 = forward(wv[:N], wv[N:])
        r = tail - c
        return (float(np.abs(wv).sum())
                + math.sqrt(abs(u0) ** 2 + np.vdot(r, r).real)
                + math.hypot(abs(u1 - y1), abs(u2 - y2)))

    def dual(pv1, pa, pb, kt):
        # kt = K^T p, which the step has just computed
        scale = max(1.0, math.sqrt(np.vdot(pv1, pv1).real),
                    math.hypot(abs(pa), abs(pb)),
                    float(np.abs(kt).max(initial=0.0)))
        return -(float(np.vdot(pv1, b1).real) + (pa.conjugate() * u1).real
                 + (pb.conjugate() * u2).real) / scale

    best_val = primal(w)
    best_w = w.copy()
    best_dual = last_dual = 0.0
    converged = kkt = False
    for it in range(MAX_ITER):
        # dual ascent: prox of the conjugate of y -> sum ||b_i - y_i||
        y1, y2 = forward(wbar_a, wbar_b)
        p1 -= sb1
        np.multiply(sigma1, c, out=c)
        p1_t += c
        nb = math.sqrt(np.vdot(p1, p1).real)
        if nb > 1.0:
            p1 /= nb
        p2a += sigma2 * (y1 - u1)
        p2b += sigma2 * (y2 - u2)
        nb = math.hypot(abs(p2a), abs(p2b))
        if nb > 1.0:
            p2a /= nb
            p2b /= nb
        # g = K^T p
        np.add(p1_t, p2b, out=ga)
        np.add(ga, p2a, out=gb)
        np.multiply(qz, gb, out=gb)
        # primal descent: complex soft threshold.  1 - tau / max(|w|, tau)
        # equals max(0, 1 - tau / |w|) bit for bit: both are 1 - tau/|w|
        # where |w| >= tau, and +0.0 elsewhere.
        np.multiply(tauz, g, out=w_new)
        np.subtract(w, w_new, out=w_new)
        np.abs(w_new, out=shrink)
        np.maximum(shrink, tau, out=shrink)
        np.divide(tau, shrink, out=shrink)
        np.subtract(1.0, shrink, out=shrink)
        w_new *= shrink
        np.multiply(2.0, w_new, out=wbar)
        wbar -= w
        w, w_new = w_new, w
        step = it + 1
        if _checked(step):
            val = primal(w)
            if val < best_val:
                best_val, best_w, kkt = val, w.copy(), False
            best_dual = max(best_dual, dual(p1, p2a, p2b, g))
            if (best_val - best_dual > tol * max(1.0, best_val)
                    and _stalled(best_dual, last_dual)):
                # the dual has stalled, so the primal lags: read one off it
                wk = _kkt_w(np.concatenate((b1, (u1, u2))),
                            np.concatenate((p1, (p2a, p2b))), g, q)
                val = primal(wk)
                if val < best_val:
                    best_val, best_w, kkt = val, wk, True
            if best_val - best_dual <= tol * max(1.0, best_val):
                converged = True
                break
            last_dual = best_dual

    alpha = best_w[:N]
    beta = best_w[N:]
    y1, y2 = forward(alpha, beta)
    x = Coeffs({0: u0, 1: u1 - y1, 2: u2 - y2,
                **{n + 3: v for n, v in enumerate(tail - c)}})
    gap = max(best_val - best_dual, 0.0)
    d = Decomposition(x, tuple(alpha), tuple(beta), best_val,
                      best_dual, gap, converged, it + 1, kkt)
    return best_val, d


def minkowski_norms(us, N: int, tol: float = TOL) -> list:
    """[minkowski_norm(u, N, tol) for u in us], solved as one stack.

    Every state array of minkowski_norm's loop gains a leading row axis;
    the steps, the check schedule, the KKT rule for a stalled dual (one
    row at a time) and the power-of-two scaling are its own, and a row
    leaves the stack at the first check whose gap meets `tol`, with its
    best value, dual bound and iteration count.  The rows
    agree with minkowski_norm up to rounding, since the norms here are sums
    of squares where it takes BLAS dot products and hypot.  Each step costs
    numpy about twice the dispatch of a 1-D step, so one vector belongs on
    minkowski_norm.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    for u in us:
        _split_coords(u, N)
    out = [_zero_solve(N)] * len(us)
    live = [r for r, u in enumerate(us) if u.entries]
    shifts = [_shift(us[r]) for r in live]
    # the dual (p1 | p2a, p2b) is one row of length N + 3, and u is held in
    # its layout, (u0, tail | u1, u2)
    layout = [0, *range(3, N + 3), 1, 2]
    B = np.array([_scaled(us[r], -k).to_array(N + 3)[layout]
                  for r, k in zip(live, shifts)], dtype=complex)
    B = B.reshape(len(live), N + 3)
    q, tau, sigma1, sigma2 = _steps(N)
    qz, tauz = q.astype(complex), tau.astype(complex)
    sigma = np.array([sigma1] * (N + 1) + [sigma2] * 2)

    def forward(W):
        # K w in the dual's layout, (0, y' | y1, y2)
        a = W[:, :N]
        kw = np.zeros((len(W), N + 3), dtype=complex)
        c = kw[:, 1:N + 1]
        np.multiply(qz, W[:, N:], out=c)
        s = np.add.reduce(c, axis=1)
        c += a
        kw[:, N + 1] = s
        np.add(s, np.add.reduce(a, axis=1), out=kw[:, N + 2])
        return kw

    def norms(P):
        # the two blocks' l_2 norms, per row
        return np.sqrt(np.add.reduceat(P.view(float) ** 2, (0, 2 * N + 2),
                                       axis=1))

    def primal(W, B):
        n = norms(B - forward(W))
        return np.abs(W).sum(axis=1) + n[:, 0] + n[:, 1]

    def dual(P, G, B):
        scale = np.maximum(norms(P).max(axis=1),
                           np.abs(G).max(axis=1, initial=1.0))
        return -(P.view(float) * B.view(float)).sum(axis=1) / scale

    W = np.zeros((len(live), 2 * N), dtype=complex)
    Wbar, best_W = W.copy(), W.copy()
    P = np.zeros_like(B)
    SB = sigma * B
    best_val, best_dual = primal(W, B), np.zeros(len(live))
    last_dual, kkt = best_dual.copy(), np.zeros(len(live), dtype=bool)
    rows = np.arange(len(live))
    for it in range(MAX_ITER if live else 0):   # an empty stack takes none
        # the steps of minkowski_norm, row by row
        P -= SB
        P += sigma * forward(Wbar)
        n = norms(P)
        np.maximum(n, 1.0, out=n)
        P[:, :N + 1] /= n[:, :1]
        P[:, N + 1:] /= n[:, 1:]
        G = np.empty_like(W)
        np.add(P[:, 1:N + 1], P[:, N + 2:], out=G[:, :N])
        np.add(G[:, :N], P[:, N + 1:N + 2], out=G[:, N:])
        G[:, N:] *= qz
        W_new = W - tauz * G
        W_new *= 1.0 - tau / np.maximum(np.abs(W_new), tau)
        Wbar = 2.0 * W_new - W
        W = W_new
        step = it + 1
        if not _checked(step):
            continue
        val = primal(W, B)
        better = val < best_val
        best_val[better] = val[better]
        best_W[better] = W[better]
        kkt[better] = False
        np.maximum(best_dual, dual(P, G, B), out=best_dual)
        met = best_val - best_dual <= tol * np.maximum(1.0, best_val)
        # minkowski_norm's rule for a stalled dual, row by row
        for j in np.flatnonzero(~met & _stalled(best_dual, last_dual)):
            wk = _kkt_w(B[j], P[j], G[j], q)
            val = primal(wk[None], B[j:j + 1])[0]
            if val < best_val[j]:
                best_val[j], best_W[j], kkt[j] = val, wk, True
        met = best_val - best_dual <= tol * np.maximum(1.0, best_val)
        last_dual = best_dual.copy()
        done = met | (step == MAX_ITER)
        if not done.any():
            continue
        X = B - forward(best_W)
        for j in np.flatnonzero(done):
            x, w = X[j], best_W[j]
            d = Decomposition(
                Coeffs({0: x[0], 1: x[N + 1], 2: x[N + 2],
                        **{i + 3: v for i, v in enumerate(x[1:N + 1])}}),
                tuple(w[:N]), tuple(w[N:]), float(best_val[j]),
                float(best_dual[j]),
                max(float(best_val[j] - best_dual[j]), 0.0), bool(met[j]),
                step, bool(kkt[j]))
            k = shifts[rows[j]]
            out[live[rows[j]]] = _scaled_back(d, k) if k else d
        keep = ~done
        if not keep.any():
            break
        W, Wbar, P, B, SB, best_W, best_val, best_dual, last_dual, kkt, \
            rows = (v[keep] for v in (W, Wbar, P, B, SB, best_W, best_val,
                                      best_dual, last_dual, kkt, rows))
    return [(d.objective, d) for d in out]


@dataclass(frozen=True)
class AtomicSplit:
    """u = a x + b y + c w with |a|+|b|+|c| <= 1 and pieces in B1, B2, B3."""

    a: float
    x: Coeffs
    b: float
    y: Coeffs
    c: float
    w: Coeffs

    def reconstruct(self) -> Coeffs:
        return self.a * self.x + self.b * self.y + self.c * self.w


def b_atomic_decompose(u: Coeffs, N: int) -> AtomicSplit:
    """u in B as a convex split over its ball piece and atom families, read
    off minkowski_norm's optimal decomposition at truncation N.  A u with
    ||u||_2 <= 1/2 is its own ball piece and needs no solve.  Support at
    N + 3 or beyond, a non-finite entry or a u outside B raises a
    ValueError."""
    _split_coords(u, N)
    if float(np.linalg.norm(u.to_array(N + 3))) <= 0.5:
        # Cauchy: ||x'|| + ||(x_1, x_2)|| <= sqrt(2) ||u||_2 < 1
        return AtomicSplit(1.0, u, 0.0, Coeffs.zero(), 0.0, Coeffs.zero())
    value, d = minkowski_norm(u, N)
    if value > 1.0 + TOL:
        raise ValueError("u is outside B (norm %.9g > 1)" % value)

    xa = d.x.to_array(N + 3)
    a = (math.hypot(abs(xa[0]), float(np.linalg.norm(xa[3:])))
         + math.hypot(abs(xa[1]), abs(xa[2])))
    x = (1.0 / a) * d.x if a > TOL else Coeffs.zero()
    a = a if a > TOL else 0.0

    alpha = np.asarray(d.alpha, dtype=complex)
    bsum = float(np.abs(alpha).sum())
    y = Coeffs.zero()
    if bsum > TOL:
        y = _atom_sum(y, pair=_divide(alpha, bsum))
    bsum = bsum if bsum > TOL else 0.0

    beta = np.asarray(d.beta, dtype=complex)
    csum = float(np.abs(beta).sum())
    w = Coeffs.zero()
    if csum > TOL:
        w = _atom_sum(w, triple=_divide(beta * QSEQ.q_array(len(beta)), csum))
    csum = csum if csum > TOL else 0.0

    return AtomicSplit(a, x, bsum, y, csum, w)


# ---------------------------------------------------------------------------
# the shifted-identity operator S u = u + u_2 e_1 and its norm squeeze
# ---------------------------------------------------------------------------

def su_upper_bound(d: Decomposition) -> float:
    """Certified upper bound on ||S u|| from a feasible decomposition d of u.

    S sends u = x + sum alpha_n (e_2 + e_{n+2}) + sum beta_n q_n t_n, with
    t_n = e_1 + e_2 + e_{n+2}, to (x + tau e_1) + sum (beta_n + alpha_n/q_n)
    q_n t_n, with tau = x_2 + sum q_n beta_n, since each pair atom is t_n
    less e_1.  The bound is the cost of that decomposition of S u:

        ||x'||_2 + ||(x_1 + tau, x_2)||_2 + sum |beta_n + alpha_n / q_n|.

    It is at most max(5/3, 7/4, 1/q_N) times the cost of d (||[[1,1],[0,1]]||
    is the golden ratio, and 1 + q_n <= 7/4); with N = SEX_TRUNC = 12 that
    factor is 1/q_12 < 1.926.
    """
    N = len(d.alpha)
    q = QSEQ.q_array(N)
    alpha = np.asarray(d.alpha, dtype=complex)
    beta = np.asarray(d.beta, dtype=complex)
    xa = d.x.to_array(max(d.x.dim_hint, N + 3))
    xprime = math.hypot(abs(xa[0]), float(np.linalg.norm(xa[3:])))
    x1, x2 = xa[1], xa[2]
    tau = x2 + np.dot(q, beta)
    return (xprime + math.hypot(abs(x1 + tau), abs(x2))
            + float(np.abs(beta + alpha / q).sum()))


@dataclass(frozen=True)
class SexReport:
    lower_bounds: tuple    # (n, 1/q_n, solver value of ||e1+e2+e_{n+2}||)
    min_gap: float
    failures: tuple        # sample indices whose solve did not converge
    iterations_total: int  # the samples' primal-dual steps, summed
    iterations_max: int    # and the largest of them
    # seconds spent on the lower bounds' atoms and on the samples; a rerun
    # takes other times, so they are left out of the report's repr and ==
    atoms_s: float = dataclasses.field(repr=False, compare=False)
    samples_s: float = dataclasses.field(repr=False, compare=False)


def sex_norm_bounds(Ns, samples: int = 100, seed: int = 0) -> SexReport:
    """Two-sided squeeze on ||S||: lower bounds 1/q_n -> 2 and, per random
    unit sample, a certified strict gap ||Su|| < 2 ||u||.

    Each atom takes one minkowski_norm solve at its own truncation n; the
    samples, all at SEX_TRUNC, are solved as one minkowski_norms stack, one
    solve of u each.  The strictness certificate is one-sided on both ends:
    su_upper_bound of u's decomposition (an upper bound on ||Su||) must
    stay below twice the solve's dual bound (a lower bound on ||u||).  That
    bound is at most 1.926 times the solve's objective at SEX_TRUNC, so the
    gap is positive whenever the solve has converged to SEX_TOL; a sample
    whose solve has not is a failure.
    """
    t0 = time.perf_counter()
    lower = []
    for n in Ns:
        atom = Coeffs.basis(1) + Coeffs.basis(2) + Coeffs.basis(n + 2)
        value, _ = minkowski_norm(atom, n, SEX_TOL)
        lower.append((n, 1.0 / QSEQ.q(n), value))
    t1 = time.perf_counter()

    rng = np.random.default_rng(seed)
    us = []
    for _ in range(samples):
        supp = rng.integers(0, SEX_TRUNC + 2, size=4)
        vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u = Coeffs.from_pairs(zip(supp.tolist(), vals.tolist()))
        us.append(u if u.entries else Coeffs.basis(2))
    solves = minkowski_norms(us, SEX_TRUNC, SEX_TOL)
    # by homogeneity the gap of the unit sample u/nu is this one / nu
    gaps = [(2.0 * du.dual_bound - su_upper_bound(du)) / nu
            for nu, du in solves]
    failures = tuple(k for k, (_, du) in enumerate(solves)
                     if not du.converged)
    iterations = [du.iterations for _, du in solves]
    return SexReport(tuple(lower), min(gaps, default=math.inf), failures,
                     sum(iterations), max(iterations, default=0),
                     t1 - t0, time.perf_counter() - t1)
