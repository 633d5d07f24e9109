"""Norms of finite sections of operators on one space, with attainment
diagnostics.

Exact reductions are used where available (l_1: column sums, c_0 and
l_inf: row sums, l_2: SVD, diagonal and rank-one operators: closed forms,
swap-plus-shrink on the K (+)_q l_p sum: a closed-form 3-variable maximum).
Everything else falls back to a generalized power iteration, which
certifies a lower bound only.  Its starts run as the rows of one array,
and its value is floored at the best basis column.  On l_p each step takes
the scaled l_p weights of its rows twice (spaces.lp_weights) and no
normalised functional; on a direct sum each half-step is one
norming_functional_rows call.  On l_p an iterate's
report also carries a Riesz-Thorin upper bound.

Every section norm but a resolvent cell's on c_0, l_1 and l_2 (see
pseudospectrum) goes through matrix_norm, which on l_p, 1 < p < inf, first
splits the section into its independent blocks (on l_2 only a section at
least L2_SPLIT_MIN wide, as the SVD of a narrower one is cheaper than the
split).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coeffs import Coeffs, require_trunc
from . import spaces as sp
from . import operators as op

INF = math.inf

RESTARTS = 16           # random starts of the power iteration
MAX_ITER = 400          # power-iteration steps per start
TOL = 1e-12             # relative stall tolerance of the power iteration
ATT_TOL = 1e-3          # witness Cauchy tolerance for "attained"
ESCAPE_FRAC = 0.2       # centroid/N threshold for "escaping"
# on l_2 a section narrower than this takes the SVD without trying the
# split: a complex diagonal took 60-110 us split against 15-65 us by SVD at
# n = 8-40, and the two met near n = 44 (one BLAS thread, 2-core host)
L2_SPLIT_MIN = 44


@dataclass(frozen=True)
class OpnormConfig:
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


DEFAULT_CFG = OpnormConfig()


@dataclass(frozen=True)
class NormReport:
    value: float
    witness: Coeffs
    method: str                       # closed_form | reduction_f | iterate
    trace: tuple                      # ((N, value), ...)
    attainment: str                   # attained | escaping | inconclusive
    centroids: tuple = ()             # witness support centroid per N
    upper: float | None = None        # upper bound on an iterate's norm

    def to_json_obj(self):
        obj = {
            "value": self.value,
            "method": self.method,
            "attainment": self.attainment,
            "trace": [[n, v] for n, v in self.trace],
            "centroids": list(self.centroids),
            "witness": self.witness.to_json_obj(),
        }
        if self.method == "iterate":
            obj["upper"] = self.upper
        return obj


# ---------------------------------------------------------------------------
# the three-variable reduction for swap-plus-shrink operators
# ---------------------------------------------------------------------------

def maximize_swapped_f(p: float, q: float, t: float = 1.0) -> tuple:
    """Exact max of (a, b, g) -> f(b, a, t g) over K = {f(a, b, g) = 1},
    with f(a, b, g) = ||(a, ||(b, g)||_p)||_q; returns (value, argmax).

    Let k = pq/|q - p| (k = p at q = inf, k = q at p = inf) and m = t^k.
    The maximum is (1 + m)^(1/k), at b = 0, a^q = 1/(1 + m),
    g^q = m/(1 + m) when q > p, and at a = 0, b^p = 1/(1 + m),
    g^p = m/(1 + m) when q < p.  When p = q or t = 0 it is max(1, t).
    Why: with u = 1 - a^q the l_p part carries b^p + g^p = u^(p/q).  At
    fixed u the q-th power of the objective is convex in b^p when q >= p,
    so b = 0 or g = 0 (value 1) is best, and concave when q < p.  The 1-D
    problem left in u is concave when q > p, with its stationary point at
    u = m/(1 + m), and convex when q < p, so u = 0 (value 1) or u = 1
    (a = 0) is best.  The value is taken as
    max(1, t) (1 + min(t, 1/t)^k)^(1/k), so m is never formed and cannot
    overflow.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if p == q or t == 0:
        return (t, (0.0, 0.0, 1.0)) if t > 1 else (1.0, (1.0, 0.0, 0.0))
    k = p if q == INF else q if p == INF else p * q / abs(q - p)
    s = min(t, 1.0 / t) ** k
    val = max(1.0, t) * (1.0 + s) ** (1.0 / k)
    # 1/(1 + m) and m/(1 + m), with s = m for t <= 1 and s = 1/m for t > 1
    lo, hi = s / (1.0 + s), 1.0 / (1.0 + s)
    rest, u = (hi, lo) if t <= 1 else (lo, hi)
    if q > p:
        return val, (rest ** (1.0 / q), 0.0, u ** (1.0 / q))
    return val, (0.0, rest ** (1.0 / p), u ** (1.0 / p))


# ---------------------------------------------------------------------------
# matrix norms with exact reductions and power iteration
# ---------------------------------------------------------------------------

def _signed(Y: np.ndarray, a: np.ndarray, m: np.ndarray,
            w: np.ndarray) -> np.ndarray:
    """sign(conj y) w for the rows y of Y, whose moduli are a and row maxima
    m: np.copysign on a real row, conj(y) w / |y| on a complex one, with
    |y| floored at 1e-150 of the row's largest and never subnormal (a zero
    row, with w = 0, gets 0)."""
    if Y.dtype.kind != "c":
        return np.copysign(w, Y)
    floor = np.maximum(m * 1e-150, sp._TINY)[:, None]
    return np.conj(Y) * (w / np.maximum(a, floor))


def _half_steps(space) -> tuple:
    """(forward, back), the power iteration's two half-steps on space.

    forward(Y) gives the norm of each row y of Y and a positive multiple of
    y's norming functional; back(H) gives the unit vector normed by each row
    h of H, the dual space's norming functional of h.  On l_p, 1 < p < inf,
    both come from the scaled weights (spaces.lp_weights) of rows whose
    largest modulus was lifted to 1e-150 or more by an exact 2^600
    (spaces._lift_tiny_rows): forward gives m r (a lifted row's scaled back)
    and sign(conj y) w, whose scale the next matmul does not need, and back
    sign(conj h) w_h / r_h^(q-1), q = p/(p - 1).  Every other space takes
    norming_functional_rows for both.
    """
    if not (isinstance(space, sp.Lp) and 1 < space.p < INF):
        dual = sp.dual_space(space)
        return (lambda Y: sp.norming_functional_rows(space, Y),
                lambda H: sp.norming_functional_rows(dual, H)[1])
    p, q = space.p, sp.dual_space(space).p

    def forward(Y):
        Y, a, m, tiny = sp._lift_tiny_rows(Y)
        w, r = sp.lp_weights(a, m, p)
        val = m * r
        if tiny.size:
            val[tiny] *= 2.0 ** -600
        return val, _signed(Y, a, m, w)

    def back(H):
        H, a, m, _ = sp._lift_tiny_rows(H)
        w, r = sp.lp_weights(a, m, q)
        # a zero row, with r = 0, gets x = 0 and then the value 0
        return _signed(H, a, m, w / (np.maximum(r, 1.0) ** (q - 1))[:, None])

    return forward, back


def _power_iteration(M, space, cfg: OpnormConfig, starts=()):
    """(value, witness) of the generalized power iteration on M.

    The starts (ones, e_0..e_3, RESTARTS random vectors, then the caller's)
    run as the rows of one array, normed once.  A row x steps to the dual
    functional of M^T g, g a positive multiple of the norming functional of
    y = Mx; the new x is a unit vector by construction.  The two half-steps
    are _half_steps': the first gives the value ||y|| and g together, the
    second the next x.  A row leaves the batch when its value is not
    positive (a vanished step gives the value 0) or moves by at most TOL
    times itself, or after MAX_ITER values; its best value and row are kept
    with the active rows and written back when it leaves.  The best value
    wins, ties going to the earliest start and then the earliest step; it
    is floored at the best basis column, whose e_j is then the witness.
    The loop runs under one np.errstate: the entries the half-steps mask or
    rescale say nothing.

    The dtype follows the input: when M and every caller start are real (a
    zero imaginary part counts as real), the batch runs in float64 on the
    real part of M, and else in complex128.  The half-steps keep a real row
    real and take its signs exactly, so this is the complex iteration's
    sequence up to the order of the gemm sums and the last bits of a sign
    conj(y)/|y|.  The witness is complex either way.
    """
    n = M.shape[1]
    rng = np.random.default_rng(cfg.seed)
    real_only = np.isrealobj(M) or not np.any(M.imag)
    starts = [np.asarray(s) for s in starts]
    real = real_only and not any(np.any(np.imag(s)) for s in starts)
    if real:
        M, starts = np.ascontiguousarray(M.real), [s.real for s in starts]
    Mt = np.ascontiguousarray(M.T)

    init = [np.ones(n)] + list(np.eye(min(n, 4), n))
    for _ in range(RESTARTS):
        v = rng.standard_normal(n)
        if not real_only:
            v = v + 1j * rng.standard_normal(n)
        init.append(v)
    X = np.array(init + starts, dtype=float if real else complex)
    if isinstance(space, sp.DirectSumLp) and space.tail is None:
        # M past the blocks is refused; a start there is cut off at them
        sp._block_slices(space, M)
        sp._block_slices(space, Mt)
        X[:, space.total_size():] = 0

    forward, back = _half_steps(space)
    best_val = np.zeros(len(X))
    best_x = np.zeros(X.shape, dtype=complex)
    nx = sp.norm_rows(space, X)
    rows = np.flatnonzero(nx != 0)      # the start each active row came from
    X = X[rows] / nx[rows, None]
    bv, bx = np.zeros(len(rows)), np.zeros_like(X)   # the active rows' best
    prev = np.full(len(rows), -1.0)
    with np.errstate(all="ignore"):
        for it in range(MAX_ITER):
            val, G = forward(X @ Mt)
            better = val > bv
            if np.count_nonzero(better) == len(val):
                bv, bx = val, X
            else:
                bv = np.where(better, val, bv)
                bx = np.where(better[:, None], X, bx)
            go = (val > 0) & (np.abs(val - prev) > TOL * val)
            active = np.count_nonzero(go)
            if it == MAX_ITER - 1 or not active:
                break
            if active < len(go):
                done = rows[~go]
                best_val[done], best_x[done] = bv[~go], bx[~go]
                rows, bv, bx, val, G = rows[go], bv[go], bx[go], val[go], G[go]
            prev = val
            X = back(G @ M)
    best_val[rows], best_x[rows] = bv, bx

    k = int(np.argmax(best_val))
    cols = sp.norm_rows(space, Mt)
    j = int(np.argmax(cols))
    if cols[j] > best_val[k]:
        return float(cols[j]), np.eye(1, n, j, dtype=complex)[0]
    return float(best_val[k]), best_x[k]


def _closed_form(M: np.ndarray, p: float) -> tuple:
    """(values, arg) of the closed-form norm on l_1, l_2 or c_0/l_inf of a
    matrix or a stack (..., m, n) of them.

    l_1 and the sup norm take the largest column (p = 1) or row sum of |M|,
    each line summed pairwise from a C-contiguous copy, as norm_rows sums it;
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
    """Subordinate norm of M on space; (value, witness, method, upper).

    On Lp with 1 < p < inf a matrix with at least two blocks (see
    block_labels) is normed block by block (see _split_norm): exact by
    p-additivity, so the norm is the largest block norm.  On l_2 only a
    matrix at least L2_SPLIT_MIN wide is split.  Any other matrix takes the
    closed form on l_1, l_2 and c_0/l_inf and the power iteration
    elsewhere.  upper is lp_upper_bound for an iterate on Lp, else None.
    A matrix with no nonzero entry has the closed form 0 with witness e_0
    on every space; only the iterate's path scans M for it, as a closed
    form's value 0 already tells.
    """
    M = np.asarray(M, dtype=complex)
    p = space.p if isinstance(space, sp.Lp) else None
    split = (p is not None and 1 < p < INF
             and not (p == 2 and max(M.shape) < L2_SPLIT_MIN))
    labels = block_labels(M) if split else None
    if labels is not None:
        return _split_norm(M, *labels, space, cfg, starts)
    if p in (1, 2, INF):
        val, arg = _closed_form(M, p)
        if val:
            w = (arg if p == 2
                 else np.eye(1, M.shape[1], arg, dtype=complex)[0] if p == 1
                 else sp.norming_functional_array(sp.Lp(1.0), M[arg]))
            return float(val), w, "closed_form", None
    elif M.any():
        val, w = _power_iteration(M, space, cfg, starts)
        return val, w, "iterate", None if p is None else lp_upper_bound(M, p)
    return 0.0, np.eye(1, M.shape[1], dtype=complex)[0], "closed_form", None


def lp_upper_bound(M: np.ndarray, p: float) -> float:
    """Riesz-Thorin upper bound on the norm of M on l_p, 1 < p < inf.

    The smaller of two interpolations: between l_1 and l_inf,
    ||M||_1^(1/p) ||M||_inf^(1-1/p), and through l_2, between l_2 and
    l_inf for p > 2 and between l_1 and l_2 for p < 2.  A section with no
    imaginary part is bounded in float64, as it iterates.
    """
    if np.iscomplexobj(M) and not np.any(M.imag):
        M = M.real
    n1, ninf = _closed_form(M, 1)[0], _closed_form(M, INF)[0]
    n2 = np.linalg.norm(M, 2)
    via_2 = (n2 ** (2 / p) * ninf ** (1 - 2 / p) if p > 2
             else n1 ** (2 / p - 1) * n2 ** (2 - 2 / p))
    return float(min(n1 ** (1 / p) * ninf ** (1 - 1 / p), via_2))


# ---------------------------------------------------------------------------
# independent blocks of a section on l_p
# ---------------------------------------------------------------------------

def block_labels(M: np.ndarray):
    """(row labels, column labels) of the independent blocks of M, or None
    when M has no nonzero entry or is one block.

    The blocks are the connected components of the bipartite graph of M's
    nonzero entries, rows on one side and columns on the other; a zero
    column is a block of its own, and a zero row lies in no block that has
    a column.  If some row is nonzero in every column, M is one block.
    Otherwise each round hooks every component root that shares an edge
    with a smaller root under one such root, then jumps pointers until
    every node points at its root: O(nnz) a round, about log N rounds.  A
    label is the index of a root, rows numbered first and columns after.
    """
    nz = M != 0
    if nz.all(axis=1).any():
        return None
    nr = M.shape[0]
    i, j = np.nonzero(nz)
    if not i.size:
        return None
    j += nr
    label = np.arange(nr + M.shape[1])
    while True:
        a, b = label[i], label[j]
        cross = a != b
        if not cross.any():
            break
        a, b = a[cross], b[cross]
        # any smaller root will do: label[x] <= x keeps the hooks a forest
        label[np.maximum(a, b)] = np.minimum(a, b)
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
    rl, cl = label[:nr], label[nr:]
    return None if (cl == cl[0]).all() else (rl, cl)


def _split_norm(M, rl, cl, space, cfg, starts) -> tuple:
    """(value, witness, method, upper) of M on l_p, 1 < p < inf, from the
    blocks of block_labels.

    By p-additivity ||Mx||_p^p = sum_k ||M_k x_k||_p^p, which is at most
    max_k ||M_k||^p ||x||_p^p, with equality on the best block's witness
    placed at its columns; ties go to the block with the first column.  A
    one-column block's norm is the l_p norm of its column, all of them in
    one norm_rows call; a one-row block's is the dual norm of its row, with
    the row's norming functional as witness (the rank-one closed form); any
    other block goes to matrix_norm with the starts restricted to its
    columns (a connected block, which it does not split again).  The method
    is iterate if some block iterated, and then upper is the largest block
    bound: matrix_norm's upper of an iterated block, a closed form's value.
    """
    n = M.shape[1]
    ncols = np.bincount(cl, minlength=len(rl) + n)
    nrows = np.bincount(rl, minlength=len(rl) + n)
    blocks = []                 # (value, first column, columns, witness)
    one_col = np.flatnonzero(ncols[cl] == 1)
    if one_col.size:
        # the nonzero entries of each such column, packed into a row of C:
        # they sit on the rows that share the column's label
        col_of = np.zeros(len(ncols), dtype=int)
        col_of[cl[one_col]] = one_col
        ii = np.flatnonzero(ncols[rl] == 1)
        jj = col_of[rl[ii]]
        order = np.argsort(jj, kind="stable")
        ii, jj = ii[order], jj[order]
        pos = np.arange(jj.size) - np.searchsorted(jj, jj)
        C = np.zeros((one_col.size, pos.max(initial=0) + 1), dtype=complex)
        C[np.searchsorted(one_col, jj), pos] = M[ii, jj]
        vals = sp.norm_rows(space, C)
        k = int(np.argmax(vals))
        blocks.append((vals[k], one_col[k], one_col[k], 1.0))
    one_row = np.flatnonzero((nrows[rl] == 1) & (ncols[rl] > 1))
    if one_row.size:
        R = M[one_row]
        vals, F = sp.norming_functional_rows(sp.dual_space(space), R)
        firsts = np.argmax(R != 0, axis=1)
        k = np.lexsort((firsts, -vals))[0]
        blocks.append((vals[k], firsts[k], slice(None), F[k]))
    upper = max((b[0] for b in blocks), default=0.0)
    iterated = False
    rest = (ncols > 1) & (nrows > 1)
    for lab in dict.fromkeys(cl[rest[cl]].tolist()):
        rows, cols = np.flatnonzero(rl == lab), np.flatnonzero(cl == lab)
        B = M[np.ix_(rows, cols)]
        val, w, method, up = matrix_norm(B, space, cfg,
                                         [np.asarray(s)[cols] for s in starts])
        iterated |= method == "iterate"
        upper = max(upper, val if up is None else up)
        blocks.append((val, cols[0], cols, w))
    val, _, cols, w = min(blocks, key=lambda b: (-b[0], b[1]))
    warr = np.zeros(n, dtype=complex)
    warr[cols] = w
    return (float(val), warr, "iterate" if iterated else "closed_form",
            float(upper) if iterated else None)


def _centroid(w: np.ndarray) -> float:
    a = np.abs(w) ** 2
    tot = a.sum()
    return float((np.arange(len(w)) * a).sum() / tot) if tot > 0 else 0.0


def require_norming(space) -> None:
    """Reject the renormed l_2 space: its norming functionals are implicit."""
    if isinstance(space, sp.RenormedL2):
        raise NotImplementedError(
            "no norming functionals for the renormed l_2 space; "
            "use the convex module's certified bounds instead")


def operator_norm(T, space, N: int, cfg: OpnormConfig = DEFAULT_CFG,
                  starts=()) -> NormReport:
    """Norm of the N-section of T as an operator on space.

    Identity, scalar, diagonal and rank-one operators and the swap
    operators on K (+)_q l_p bypass the section; every other section goes
    to matrix_norm.  The swap reduction keys on a bare SimpleS or SimpleR:
    any other spelling of a swap takes the power iteration, whose value is
    a lower bound, with upper None on qsum.
    """
    N = require_trunc(N, "N")
    require_norming(space)

    tag, upper = "inconclusive", None
    if isinstance(T, (op.Identity, op.ScalarMul, op.Diagonal)):
        # np.hypot gives abs()'s bits, np.abs of a complex array may not
        d = op.diagonal_entries(T, N)
        dvals = np.hypot(d.real, d.imag)
        # on a dsum, a nonzero entry past a tail-less block partition is
        # refused by the rule the section's own norm applies
        if isinstance(space, sp.DirectSumLp):
            sp._block_slices(space, dvals[None])
        i = int(np.argmax(dvals))
        val, w, method, centroid = (float(dvals[i]), Coeffs.basis(i),
                                    "closed_form", float(i))
        if not isinstance(T, op.Diagonal):
            tag = "attained"
    elif isinstance(T, op.RankOne):
        fnorm, F = sp.norming_functional_rows(
            sp.dual_space(space), T.functional.to_array(N)[None])
        val = float(fnorm[0]) * sp.norm_array(space, T.vector.to_array(N))
        w, method, centroid = (Coeffs.from_array(F[0]), "closed_form",
                               _centroid(F[0]))
    elif (isinstance(T, (op.SimpleS, op.SimpleR))
            and isinstance(space, sp.DirectSumLp) and space.is_qsum()):
        # the largest shrink (S) or expand (R) factor in the section and
        # the index it sits on
        if N < 3:
            t, k = 0.0, None
        elif isinstance(T, op.SimpleS):
            t, k = (N - 1.0) / N, N - 1
        else:
            t, k = 1.5, 2
        val, (a, b, g) = maximize_swapped_f(space.tail, space.p, t)
        w = Coeffs({0: a, 1: b} if k is None else {0: a, 1: b, k: g})
        method, centroid = "reduction_f", _centroid(w.to_array(N))
    else:
        val, warr, method, upper = matrix_norm(op.truncate_matrix(T, N),
                                               space, cfg, starts)
        w, centroid = Coeffs.from_array(warr), _centroid(warr)
    return NormReport(val, w, method, ((N, val),), tag, (centroid,), upper)


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


def growth_tag(Ns, values, witnesses, space, rising: bool) -> tuple:
    """(tag, aligned, centroids) for witnesses over growing sections Ns,
    the tag attained | escaping | inconclusive.

    aligned holds each witness with its global phase fixed on its largest
    coordinate, centroids the support centroid of each.  The tag is a
    heuristic, never a proof: the last two space norms between consecutive
    aligned witnesses (the shorter one zero-padded) below ATT_TOL read
    "attained"; the last two centroids at ESCAPE_FRAC of N or beyond, with
    values that never move against their sense (rising for a norm, falling
    for an infimum), read "escaping".
    """
    aligned = [_phase_align(w) for w in witnesses]
    centroids = [_centroid(w) for w in witnesses]
    dists = [sp.norm_array(space, np.concatenate(
                 (wa, np.zeros(len(wb) - len(wa)))) - wb)
             for wa, wb in zip(aligned, aligned[1:])]
    s = 1 if rising else -1
    if len(Ns) < 2:
        tag = "inconclusive"
    elif all(d < ATT_TOL for d in dists[-2:]):
        tag = "attained"
    elif (all(s * b >= s * a - 1e-15 for a, b in zip(values, values[1:]))
            and all(c >= ESCAPE_FRAC * n
                    for c, n in zip(centroids[-2:], Ns[-2:]))):
        tag = "escaping"
    else:
        tag = "inconclusive"
    return tag, aligned, centroids


def attainment_scan(T, space, Ns, cfg: OpnormConfig = DEFAULT_CFG) -> NormReport:
    """Run operator_norm over increasing truncations and classify attainment
    by growth_tag, the values being norms that rise with N."""
    Ns = [require_trunc(N, "N") for N in Ns]
    if not Ns:
        raise ValueError("Ns must not be empty")
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("Ns must be strictly increasing")
    trace, witnesses = [], []
    for N in Ns:
        # the last rung's witness, zero-padded to N, is one more start
        starts = [np.concatenate((w, np.zeros(N - len(w))))
                  for w in witnesses[-1:]]
        report = operator_norm(T, space, N, cfg, starts)
        trace.append((N, report.value))
        witnesses.append(report.witness.to_array(N))
    tag, _, centroids = growth_tag(Ns, [v for _, v in trace], witnesses,
                                   space, True)
    return replace(report, trace=tuple(trace), attainment=tag,
                   centroids=tuple(centroids))
