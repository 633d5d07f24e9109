"""Minkowski-functional norm of the renormed-l_2 space, with certificates.

The unit ball is the absolutely convex hull of the l_2 ball pieces
{||x'||_2 + ||(x_1, x_2)||_2 <= 1} and the atom families e_2 + e_{n+2} and
q_n (e_1 + e_2 + e_{n+2}).  The norm is the minimal decomposition cost

    ||x'||_2 + ||(x_1, x_2)||_2 + ||alpha||_1 + ||beta||_1

over u = x + sum alpha_n (e_2+e_{n+2}) + sum beta_n q_n (e_1+e_2+e_{n+2}).
Eliminating x leaves an unconstrained nonsmooth convex problem in
w = (alpha, beta), solved by a primal-dual (Chambolle-Pock) iteration with a
certified duality gap from a scaled dual-feasible point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .coeffs import Coeffs
from .spaces import Q_RULE, QSeqParams

QSEQ = QSeqParams()
TOL = 1e-8              # relative duality-gap target of minkowski_norm
MAX_ITER = 60000        # primal-dual iterations per solve
SEX_TOL = 1e-6          # solver tolerance of the norm squeeze
SEX_TRUNC = 12          # truncation of the squeeze's random samples


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

    def reconstruct(self) -> Coeffs:
        u = self.x
        for n, a in enumerate(self.alpha, start=1):
            u = u + a * (Coeffs.basis(2) + Coeffs.basis(n + 2))
        for n, b in enumerate(self.beta, start=1):
            u = u + (b * QSEQ.q(n)) * (Coeffs.basis(1) + Coeffs.basis(2)
                                       + Coeffs.basis(n + 2))
        return u

    def to_json_obj(self):
        return {
            "schema_version": 1,
            "x": self.x.to_json_obj(),
            "alpha": [[v.real, v.imag] for v in self.alpha],
            "beta": [[v.real, v.imag] for v in self.beta],
            "objective": self.objective,
            "dual_bound": self.dual_bound,
            "gap": self.gap,
            "converged": self.converged,
            "q_rule": Q_RULE,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def _split_coords(u: Coeffs, N: int):
    """(u0, u1, u2, tail of length N) with support confined to [0, N+3)."""
    if any(i >= N + 3 for i in u.support()):
        raise ValueError("support of u must lie in [0, N+3) for trunc N=%d"
                         % N)
    arr = u.to_array(N + 3)
    return arr[0], arr[1], arr[2], arr[3:]


def minkowski_norm(u: Coeffs, N: int, tol: float = TOL) -> tuple:
    """(norm value, optimal Decomposition) with a certified duality gap.

    Non-convergence is not an exception: the best feasible value is returned
    with converged=False and the residual gap recorded.
    """
    u0, u1, u2, tail = _split_coords(u, N)
    if not u.entries:
        d = Decomposition(Coeffs.zero(), (0.0,) * N, (0.0,) * N,
                          0.0, 0.0, 0.0, True)
        return 0.0, d

    q = QSEQ.q_array(N)
    # K stacks the linear maps w = (alpha, beta) -> (K1 w, K2 w) with
    # x' = b1 - K1 w (first coordinate constant u0) and (x1,x2) = b2 - K2 w
    K = np.zeros((N + 3, 2 * N))
    for n in range(N):
        K[1 + n, n] = 1.0          # alpha_n in x_{n+2}
        K[1 + n, N + n] = q[n]     # q_n beta_n in x_{n+2}
        K[N + 1, N + n] = q[n]     # x_1 row
        K[N + 2, n] = 1.0          # x_2 row
        K[N + 2, N + n] = q[n]
    b = np.concatenate(([u0], tail, [u1, u2]))
    blocks = (slice(0, N + 1), slice(N + 1, N + 3))

    L = np.linalg.norm(K, 2)
    tau = sigma = 0.99 / L if L > 0 else 1.0

    w = np.zeros(2 * N, dtype=complex)
    wbar = w.copy()
    p = np.zeros(N + 3, dtype=complex)

    def primal(wv):
        val = float(np.abs(wv).sum())
        r = b - K @ wv
        for sl in blocks:
            val += float(np.linalg.norm(r[sl]))
        return val

    def dual(pv):
        scale = 1.0
        for sl in blocks:
            scale = max(scale, float(np.linalg.norm(pv[sl])))
        kt = K.T @ pv
        scale = max(scale, float(np.abs(kt).max()) if kt.size else 1.0)
        return float(-np.real(np.vdot(pv / scale, b)))

    best_val = primal(w)
    best_w = w.copy()
    best_dual = 0.0
    converged = False
    for it in range(MAX_ITER):
        # dual ascent: prox of the conjugate of y -> sum ||b_i - y_i||
        p = p + sigma * (K @ wbar)
        for sl in blocks:
            p[sl] -= sigma * b[sl]
            nb = float(np.linalg.norm(p[sl]))
            if nb > 1.0:
                p[sl] /= nb
        # primal descent: complex soft threshold
        w_new = w - tau * (K.T @ p)
        mags = np.abs(w_new)
        shrink = np.maximum(0.0, 1.0 - tau / np.maximum(mags, 1e-300))
        w_new = w_new * shrink
        wbar = 2.0 * w_new - w
        w = w_new
        if it % 50 == 49 or it == MAX_ITER - 1:
            val = primal(w)
            if val < best_val:
                best_val, best_w = val, w.copy()
            best_dual = max(best_dual, dual(p))
            if best_val - best_dual <= tol * max(1.0, best_val):
                converged = True
                break

    alpha = best_w[:N]
    beta = best_w[N:]
    x1 = u1 - np.dot(q, beta)
    x2 = u2 - alpha.sum() - np.dot(q, beta)
    xt = tail - alpha - q * beta
    x = Coeffs({0: u0, 1: x1, 2: x2,
                **{n + 3: v for n, v in enumerate(xt)}})
    gap = max(best_val - best_dual, 0.0)
    d = Decomposition(x, tuple(alpha), tuple(beta), best_val,
                      best_dual, gap, converged)
    return best_val, d


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
    value, d = minkowski_norm(u, N)
    if value > 1.0 + TOL:
        raise ValueError("u is outside B (norm %.9g > 1)" % value)

    arr = u.to_array(N + 3)
    l2 = float(np.linalg.norm(arr))
    if l2 <= 0.5:
        # Cauchy-inequality fast path: the ball piece absorbs u whole
        return AtomicSplit(1.0, u, 0.0, Coeffs.zero(), 0.0, Coeffs.zero())

    xa = d.x.to_array(N + 3)
    a = (math.hypot(abs(xa[0]), float(np.linalg.norm(xa[3:])))
         + math.hypot(abs(xa[1]), abs(xa[2])))
    x = (1.0 / a) * d.x if a > TOL else Coeffs.zero()
    a = a if a > TOL else 0.0

    bsum = float(np.abs(np.asarray(d.alpha)).sum())
    y = Coeffs.zero()
    if bsum > TOL:
        for n, v in enumerate(d.alpha, start=1):
            y = y + (v / bsum) * (Coeffs.basis(2) + Coeffs.basis(n + 2))
    bsum = bsum if bsum > TOL else 0.0

    csum = float(np.abs(np.asarray(d.beta)).sum())
    w = Coeffs.zero()
    if csum > TOL:
        for n, v in enumerate(d.beta, start=1):
            w = w + (v * QSEQ.q(n) / csum) * (Coeffs.basis(1)
                                              + Coeffs.basis(2)
                                              + Coeffs.basis(n + 2))
    csum = csum if csum > TOL else 0.0

    return AtomicSplit(a, x, bsum, y, csum, w)


# ---------------------------------------------------------------------------
# the shifted-identity operator S u = u + u_2 e_1 and its norm squeeze
# ---------------------------------------------------------------------------

def sex_apply(u: Coeffs) -> Coeffs:
    return u + u[2] * Coeffs.basis(1)


def su_upper_bound(u: Coeffs, d: Decomposition) -> tuple:
    """(tight, relaxed) certified upper bounds on ||S u||.

    tight  = ||x'||_2 + ||(x_1 + tau, x_2)||_2 + sum |beta_n + alpha_n / q_n|
             with tau = x_2 + sum q_n beta_n;
    relaxed = ||x'||_2 + (5/3)||(x_1, x_2)||_2 + (7/4)||beta||_1
              + sum |alpha_n| / q_n.
    """
    N = len(d.alpha)
    q = QSEQ.q_array(N)
    alpha = np.asarray(d.alpha, dtype=complex)
    beta = np.asarray(d.beta, dtype=complex)
    xa = d.x.to_array(max(d.x.dim_hint, N + 3))
    xprime = math.hypot(abs(xa[0]), float(np.linalg.norm(xa[3:])))
    x1, x2 = xa[1], xa[2]
    tau = x2 + np.dot(q, beta)
    tight = (xprime + math.hypot(abs(x1 + tau), abs(x2))
             + float(np.abs(beta + alpha / q).sum()))
    relaxed = (xprime + (5.0 / 3.0) * math.hypot(abs(x1), abs(x2))
               + (7.0 / 4.0) * float(np.abs(beta).sum())
               + float(np.abs(alpha / q).sum()))
    return tight, relaxed


@dataclass(frozen=True)
class SexReport:
    lower_bounds: tuple    # (n, 1/q_n, solver value of ||e1+e2+e_{n+2}||)
    gaps: tuple            # per-sample certified 2*D(u) - P(Su) > 0
    min_gap: float
    failures: tuple        # sample indices whose solves left a gap flag

    def to_json_obj(self):
        return {
            "schema_version": 1,
            "lower_bounds": [list(t) for t in self.lower_bounds],
            "gaps": list(self.gaps),
            "min_gap": self.min_gap,
            "failures": list(self.failures),
            "q_rule": Q_RULE,
        }


def sex_norm_bounds(Ns, samples: int = 100, seed: int = 0) -> SexReport:
    """Two-sided squeeze on ||S||: lower bounds 1/q_n -> 2 and, per random
    unit sample, a certified strict gap ||Su|| < 2 ||u||.

    The strictness certificate is one-sided on both ends: the primal value
    of the Su solve (an upper bound) must stay below twice the dual bound of
    the u solve (a lower bound).
    """
    lower = []
    for n in Ns:
        atom = Coeffs.basis(1) + Coeffs.basis(2) + Coeffs.basis(n + 2)
        value, _ = minkowski_norm(atom, n, SEX_TOL)
        lower.append((n, 1.0 / QSEQ.q(n), value))

    rng = np.random.default_rng(seed)
    gaps = []
    failures = []
    for k in range(samples):
        supp = rng.integers(0, SEX_TRUNC + 2, size=4)
        vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u = Coeffs.from_pairs(zip(supp.tolist(), vals.tolist()))
        if not u.entries:
            u = Coeffs.basis(2)
        nu, du = minkowski_norm(u, SEX_TRUNC, SEX_TOL)
        u = (1.0 / nu) * u
        nu, du = minkowski_norm(u, SEX_TRUNC, SEX_TOL)
        nsu, dsu = minkowski_norm(sex_apply(u), SEX_TRUNC, SEX_TOL)
        if not (du.converged and dsu.converged):
            failures.append(k)
        gaps.append(2.0 * du.dual_bound - dsu.objective)
    return SexReport(tuple(lower), tuple(gaps),
                     min(gaps) if gaps else math.inf, tuple(failures))
