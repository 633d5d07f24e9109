"""Resolvent norms, pseudospectrum grids, and perturbation certificates.

Every resolvent norm ||(M - zI)^{-1}||, at one z or at a grid's cells,
comes from one evaluator, _resolvent_norms.  Three sets are tracked on
finite sections: the strict set (resolvent norm above 1/eps), its closure
relaxation (>=), and the level set (= 1/eps within a relative band).  Two
constructive routines plant the one rank-one -f_y(.)(T - zI)y at a bottom
vector y (_plant), a singular cell's included: an eigenvalue-planting
perturbation, and a norm-c perturbation S with inf ||(T+S)x|| ~ 0 built
either from a converging minimizer or from a disjointified escaping family.
Both return a certificate (A, z, y, eps, N), A a RankOne or a Sum of them,
whose residual and ||A|| verify_cert computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coeffs import Coeffs, require_finite, require_int, require_trunc
from . import spaces as sp
from . import operators as op
from .opnorm import (OpnormConfig, DEFAULT_CFG, _closed_form, matrix_norm,
                     growth_tag, operator_norm, require_norming)

# a section A is singular when cond_2(A) > SINGULAR_COND, as np.linalg.cond
# computes it (s_max / s_min, a 0/0 counting as inf); on l_2 a section with
# a busy row reads it off the singular values that give the norm 1/s_min.
# Every other cell is tested on the pieces of _invert where it can be.  In the
# order (S, R) of _busy_rows, A = [[A_SS, M_SR], [0, D]], so cond_2(A) >=
# cond_2(A_SS) (A_SS and its inverse are blocks of A and A^{-1}), and a zero
# in D or an A_SS with cond above SINGULAR_COND makes A singular.  Any other
# cell is screened by cond_2(A) <= ||A||_F ||A^{-1}||_F: where the computed
# ||A||_F ||X||_F is below SINGULAR_COND / 100, X is accurate to about
# 1e12 u N (7e-3 relative at N = 60), far inside that factor 100, so the SVD
# would not call the cell singular either: the screen can skip the SVD,
# never flip its answer.  A diagonal section (k = 0) needs no SVD: its
# cond_2 is max |d| / min |d|.
SINGULAR_COND = 1e14
LEVEL_BAND = 1e-6       # relative width of the level set |r - 1/eps|
# rows of T's image beyond an N-section that the residuals see; a residual
# is not certified past them
TAIL = 8
# complex entries per block of cells (N^2 a cell of an SVD on l_2, (k + 1) N
# a cell of _invert's pieces):
# 128 KiB, glibc's default mmap threshold.  Larger blocks are mapped and
# unmapped afresh each time (the AC4 grid took 100,000 page faults at
# 256 KiB, against about 300 here), unless something imported earlier has
# raised the threshold
GRID_BLOCK = 1 << 13


# ---------------------------------------------------------------------------
# resolvent norms and point classification
# ---------------------------------------------------------------------------

def _busy_rows(M: np.ndarray) -> tuple:
    """(S, R): the rows of the section M (or of any M - zI) with a nonzero
    off-diagonal entry, and the rows that hold only their diagonal."""
    nz = M != 0
    busy = nz.sum(axis=1) > nz.diagonal()
    return busy.nonzero()[0], (~busy).nonzero()[0]


def _invert(M: np.ndarray, zs: np.ndarray, split: tuple) -> tuple:
    """(Y, singular): the inverse of each M - zI, z in zs, as its pieces.

    In the order (S, R) = split = _busy_rows(M), M - zI = [[A_SS, M_SR],
    [0, D]] with D diagonal, so its inverse is X = [[P, V], [0, D^{-1}]],
    P = A_SS^{-1} and V = -P M_SR D^{-1}.  Y (K, k + 1, N) holds [P | V]
    over [0 | D^{-1}], columns in the order (S, R).  Only the k x k blocks
    A_SS go to np.linalg.inv; 1/d is conj(d) / |d| / |d|, |d| by hypot, so
    |d|^2 is never formed.  singular[i] is cond_2(M - zs[i] I) >
    SINGULAR_COND, tested as set out there; ||X||_F = ||Y||_F, and
    ||A||_F^2 is M's off-diagonal part (rows S) plus sum |M_ii - z|^2.
    """
    S = split[0]
    k = len(S)
    order = np.concatenate(split)
    rows = M[S[:, None], order]                 # [M_SS | M_SR]
    dz = M.diagonal()[order] - zs[:, None]      # the diagonal of M - zI
    mod = np.hypot(dz.real, dz.imag)
    ad = mod[:, k:]                             # |d|
    off = np.abs(rows)
    off[:, :k].flat[::k + 1] = 0.0
    singular = ~ad.all(axis=1)
    Y = np.zeros((len(zs), k + 1, len(M)), dtype=complex)
    P = Y[:, :k, :k]
    if k:
        # A_SS / 2^e, e from its largest modulus m, so that LAPACK's complex
        # reciprocals neither under- nor overflow.  A power of two changes
        # no rounding while every operand stays a normal double, and for
        # 2^-256 < m < 2^256 that holds unscaled: the pivots (at most m
        # times the growth factor) and their reciprocals (at most
        # k SINGULAR_COND / m in a cell that is not singular) stay 2^600
        # inside the normal range, so there the scaling is skipped
        m = mod[:, :k].max(axis=1, initial=off[:, :k].max())
        scale = not (2.0 ** -256 < m.min() and m.max() < 2.0 ** 256)
        B = _shift(rows[:, :k], zs)
        if scale:
            e = -np.frexp(m)[1][:, None, None]
            B = np.ldexp(B.view(float), e).view(complex)
        try:
            inv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            singular |= np.linalg.cond(B) > SINGULAR_COND
            inv = np.linalg.inv(np.where(singular[:, None, None], np.eye(k),
                                         B))
        if scale:
            np.ldexp(inv.view(float), e, out=P.view(float))
        else:
            P[:] = inv
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dinv, V = Y[:, k, k:], Y[:, :k, k:]
        np.divide(np.conj(dz[:, k:]), ad, out=dinv)
        dinv /= ad
        np.matmul(P, -rows[:, k:], out=V)
        V *= dinv[:, None, :]
        a2 = np.vdot(off, off) + np.square(mod).sum(axis=1)
        x2 = np.square(Y.view(float)).sum(axis=(1, 2))
        # inf * 0 (an overflowing A, an underflowing inverse) is NaN and
        # leaves the cell undecided, to the SVD
        undecided = ~(singular | (a2 * x2 < (SINGULAR_COND / 100) ** 2))
    if undecided.any():
        if k:
            conds = np.linalg.cond(_shift(M, zs[undecided]))
        else:
            # a diagonal section's cond_2 is max |d| / min |d|
            conds = ad[undecided].max(axis=1) / ad[undecided].min(axis=1)
        singular[undecided] = conds > SINGULAR_COND
    return Y, singular


def _assemble(Y: np.ndarray, split: tuple) -> np.ndarray:
    """One cell's inverse (N, N), in M's own order, from its pieces Y."""
    S, R = split
    X = np.zeros((Y.shape[1],) * 2, dtype=complex)
    X[S[:, None], np.concatenate(split)] = Y[:len(S)]
    X[R, R] = Y[len(S), len(S):]
    return X


def _inverse_norm(M: np.ndarray, z: complex, space) -> tuple:
    """(c, y): c = ||X|| for X = (M - zI)^{-1} from matrix_norm, witness w,
    and the unit bottom vector y = X w / c, where ||(M - zI)y|| = 1/c is
    least; (inf, None) on a singular M - zI, read off _invert before any
    SVD; (0.0, None) when X underflows.  c may differ in the last bits
    from resolvent_norm's (CERT_NORM_SLACK)."""
    split = _busy_rows(M)
    Y, singular = _invert(M, np.array([complex(z)]), split)
    if singular[0]:
        return math.inf, None
    X = _assemble(Y[0], split)
    val, w, _, _ = matrix_norm(X, space)
    return (val, X @ w / val) if val else (0.0, None)


def _shift(M: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """The stack (K, N, N) of M - zI for each z of zs."""
    N = len(M)
    A = np.empty((len(zs), N, N), dtype=complex)
    A[:] = M
    A.reshape(len(zs), N * N)[:, ::N + 1] -= zs[:, None]
    return A


def _resolvent_norms(M: np.ndarray, zs: np.ndarray, space,
                     cfg: OpnormConfig = DEFAULT_CFG) -> np.ndarray:
    """||(M - zI)^{-1}|| for each z of zs; +inf where cond_2(M - zI) >
    SINGULAR_COND.  An overflowing row or column sum of some M - zI is
    refused with a ValueError before any cell is taken.  On l_2 a section
    with a busy row takes one values-only SVD of a block of cells, for the
    norms 1/s_min and the condition numbers.  Every other cell's inverse
    comes from _invert as pieces: the largest |1/d| is the l_2 norm of a
    diagonal section's inverse, _closed_form's line sums give c_0 and l_1
    norms, and matrix_norm takes each assembled inverse on l_p and dsum.
    """
    op._require_line_sums(M, "M - zI", zs)
    p = space.p if isinstance(space, sp.Lp) else None
    split = _busy_rows(M)
    k = len(split[0])
    svd = p == 2 and k > 0
    norms = np.empty(len(zs))
    step = max(1, GRID_BLOCK // (M.size if svd else (k + 1) * len(M)))
    for i in range(0, len(zs), step):
        if svd:
            s = np.linalg.svd(_shift(M, zs[i:i + step]), compute_uv=False)
            with np.errstate(all="ignore"):
                # a zero section gives 0/0, which np.linalg.cond reads as inf
                singular = ~(s[:, 0] / s[:, -1] <= SINGULAR_COND)
                vals = 1.0 / s[:, -1]
        else:
            Y, singular = _invert(M, zs[i:i + step], split)
            if p == 1:
                # X's column sums: those of [P | V] over [0 | D^{-1}]
                vals = _closed_form(Y, 1)[0]
            elif p in (2, math.inf):
                # X's row sums: those of [P | V], and 1/|d| on the rows R;
                # on l_2, X is diagonal (k = 0) and max 1/|d| is its norm
                vals = np.abs(Y[:, -1]).max(axis=1)
                if Y.shape[1] > 1:
                    vals = np.maximum(vals, _closed_form(Y[:, :-1], p)[0])
            else:
                vals = [0.0 if bad else
                        matrix_norm(_assemble(y, split), space, cfg)[0]
                        for y, bad in zip(Y, singular)]
        norms[i:i + step] = np.where(singular, math.inf, vals)
    return norms


def resolvent_norm(M: np.ndarray, space, z: complex,
                   cfg: OpnormConfig = DEFAULT_CFG) -> float:
    """||(M - zI)^{-1}|| as a subordinate norm; +inf when singular: the
    value of _resolvent_norms at one z.  A z or an M that is not finite,
    or an M - zI with an overflowing row or column sum, is refused with a
    ValueError.
    """
    require_finite((z,), "z = %r" % (z,))
    require_finite(M, "section M")
    return float(_resolvent_norms(M, np.array([complex(z)]), space, cfg)[0])


def _require_eps(eps: float) -> None:
    if not eps > 0:
        raise ValueError("eps must be positive")
    if eps == math.inf:
        raise ValueError("eps must be finite")
    if 1.0 / float(eps) == math.inf:
        raise ValueError("eps = %g is too small: 1/eps overflows" % eps)


# _classify's tags by code, as one object array: a grid's tags are then
# references to these three strings, not a new string per cell
_TAGS = np.array(["outside", "level", "strict"], dtype=object)


def _classify(r, eps: float):
    """strict | level | outside for a resolvent norm r against 1/eps; for
    an array r, an array of the tags of its entries.

    The level band LEVEL_BAND is relative (exact equality is measure zero
    in floating point) and is checked before the strict comparison; an
    infinite r is strict.
    """
    _require_eps(eps)
    thr = 1.0 / eps
    r = np.asarray(r, dtype=float)
    return _TAGS[np.where(np.abs(r - thr) <= LEVEL_BAND * thr, 1,
                          2 * (r > thr))]


# ---------------------------------------------------------------------------
# grid scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PspecGrid:
    region: tuple          # (re_min, re_max, im_min, im_max)
    resolution: int        # cells per axis
    eps: float
    N: int
    res: tuple             # re axis values
    ims: tuple             # im axis values
    resnorms: tuple        # row-major, rows = fixed im starting at im_min

    @cached_property
    def classes(self) -> tuple:
        """Tags strict | level | outside, in the layout of resnorms; taken
        once per grid, in one _classify call (dataclasses.replace makes a
        new grid)."""
        return tuple(_classify(self.resnorms, self.eps).tolist())

    def cells(self):
        points = (complex(re, im) for im in self.ims for re in self.res)
        return zip(points, self.resnorms, self.classes)

    def to_csv(self) -> str:
        lines = ["re,im,resnorm,class"]
        for z, r, c in self.cells():
            rs = "inf" if r == math.inf else "%.12g" % r
            lines.append("%.12g,%.12g,%s,%s" % (z.real, z.imag, rs, c))
        return "\n".join(lines) + "\n"

    def to_json_obj(self):
        return {
            "schema_version": 1,
            "region": list(self.region),
            "resolution": self.resolution,
            "eps": self.eps,
            "N": self.N,
            "cells": [[z.real, z.imag,
                       None if r == math.inf else r, c]
                      for z, r, c in self.cells()],
        }


def grid_scan(T, space, region, resolution: int, eps: float, N: int,
              cfg: OpnormConfig = DEFAULT_CFG) -> PspecGrid:
    """Resolvent norms of the N-section at the cell centers of a grid, in
    row-major order, from one _resolvent_norms call: every value equals
    resolvent_norm(M, space, z, cfg) bit for bit, and a grid where a row or
    column sum of some M - zI overflows is refused before any cell is taken.
    """
    # bounded by MAX_TRUNC, like a truncation, before an axis is allocated
    if require_int(resolution, "resolution") < 2:
        raise ValueError("resolution must be at least 2 per axis")
    resolution = require_trunc(resolution, "resolution")
    require_finite(region, "grid bounds")
    require_norming(space)
    re0, re1, im0, im1 = region
    # finite bounds whose span overflows would give inf and NaN cell centers
    require_finite((re1 - re0, im1 - im0), "grid spans re1 - re0, im1 - im0")
    res_axis = np.linspace(re0, re1, resolution)
    im_axis = np.linspace(im0, im1, resolution)
    M = op.truncate_matrix(T, N)
    _require_eps(eps)
    zs = np.empty((resolution, resolution), dtype=complex)
    zs.real, zs.imag = res_axis, im_axis[:, None]
    resnorms = _resolvent_norms(M, zs.ravel(), space, cfg)
    return PspecGrid(tuple(region), resolution, eps, N,
                     tuple(res_axis), tuple(im_axis),
                     tuple(resnorms.tolist()))


def strict_radius(grid: PspecGrid) -> float:
    """Largest |z| over strict cells: the disc-radius estimate of the scan."""
    strict = np.array(grid.classes, dtype=object) == "strict"
    radii = np.hypot(np.array(grid.res), np.array(grid.ims)[:, None])
    return float(radii.ravel()[strict].max(initial=0.0))


def rank_one_resolvent_law(z: complex) -> float:
    """|z|^{-1} + |z|^{-2}: the resolvent norm of the nilpotent rank-ones."""
    a = abs(z)
    return 1.0 / a + 1.0 / (a * a)


def rank_one_strict_radius(eps: float) -> float:
    """Radius of {|z|^{-1} + |z|^{-2} > 1/eps}: (eps + sqrt(4 eps + eps^2))/2."""
    return 0.5 * (eps + math.sqrt(4.0 * eps + eps * eps))


# ---------------------------------------------------------------------------
# eigenvalue-planting certificates
# ---------------------------------------------------------------------------

# verify_cert passes a certificate whose residual is below CERT_RESIDUAL_TOL
# and whose ||A|| is at most eps + CERT_NORM_SLACK
CERT_RESIDUAL_TOL = 1e-10
CERT_NORM_SLACK = 1e-10


@dataclass(frozen=True)
class PerturbationCert:
    A: op.OperatorSpec          # a RankOne or a Sum of them
    z: complex
    y: Coeffs                   # claimed eigenvector of T + A
    eps: float
    N: int


def att1_perturbation(T, space, z: complex, eps: float,
                      N: int) -> PerturbationCert:
    """Plant the eigenvalue z into T with a rank-one A of norm at most eps.

    On the (N + TAIL)-section Tw of T, verify_cert's, y is the bottom
    vector of the N-section M = Tw[:N, :N] (_inverse_norm), or on a
    singular cell the last right singular vector of M - zI, scaled to a
    unit.  A = _plant(Tw, z, y) has (T + A)y = zy on Tw and the norm
    ||(Tw - zI)y||, at least 1/c = 1/||(M - zI)^{-1}|| and above it only
    where T maps y past the N-section.  Where that norm exceeds eps +
    CERT_NORM_SLACK, z is refused with a ValueError, as is a z that is
    not finite, an M - zI with an overflowing row or column sum, or an N
    whose (N + TAIL)-section could not be built.
    """
    _require_eps(eps)
    require_finite((z,), "z = %r" % (z,))
    N = require_trunc(N, "N", TAIL)
    Tw = op.truncate_matrix(T, N + TAIL)
    M = Tw[:N, :N]
    zs = np.array([complex(z)])
    op._require_line_sums(M, "M - zI", zs)
    c, y = _inverse_norm(M, z, space)
    if c == math.inf:
        y = np.conj(np.linalg.svd(_shift(M, zs)[0])[2][-1])
        y = y / sp.norm_array(space, y)
    # an inverse that underflows (c = 0) leaves no y: ||A|| reads inf
    A = _plant(Tw, z, y, space) if c else None
    norm_A = sp.norm_array(space, A.vector.to_array()) if c else math.inf
    if not norm_A <= eps + CERT_NORM_SLACK:
        raise ValueError("||A|| = %.6g exceeds eps = %.6g: z is not "
                         "certified on this truncation" % (norm_A, eps))
    return PerturbationCert(A, complex(z), Coeffs.from_array(y), eps, N)


def verify_cert(T, space, cert: PerturbationCert) -> dict:
    """Evaluate a certificate: its residual ||(T + A - zI)y|| on the
    (N + TAIL)-section and ||A||, the closed-form norm of that section for
    RankOnes in it; any other A (an iterate, an A past the section) raises
    a TypeError, as its section norm is only a lower bound."""
    N = require_trunc(max(cert.N, cert.y.dim_hint), "N", TAIL)
    wide, A = N + TAIL, cert.A
    terms = A.terms if isinstance(A, op.Sum) else (A,)
    inside = all(isinstance(t, op.RankOne) and max(
        (*t.functional.entries, *t.vector.entries), default=0) < wide
        for t in terms)
    report = operator_norm(A, space, wide) if inside else None
    if report is None or report.method == "iterate":
        raise TypeError("no certified norm for a %s perturbation on the "
                        "%d-section" % (type(A).__name__, wide))
    norm_A = report.value
    y = cert.y.to_array(wide)
    M = op.truncate_matrix(T, wide) + op.truncate_matrix(A, wide)
    resid = float(sp.norm_array(space, M @ y - cert.z * y))
    ok = resid < CERT_RESIDUAL_TOL and norm_A <= cert.eps + CERT_NORM_SLACK
    return {"ok": bool(ok), "residual": resid, "norm_A": float(norm_A)}


def _plant(Tw: np.ndarray, z: complex, y: np.ndarray, space) -> op.RankOne:
    """A = -f_y(.)(T - zI)y, f_y a norming functional of y, T read off its
    section Tw and y zero-padded to Tw's rows: for a unit y, ||A|| =
    ||(T - zI)y|| and (T + A)y = zy.  A positive multiple of y keeps f_y."""
    # np.concatenate costs a tenth of np.pad's 11 us
    yw = np.concatenate((y, np.zeros(len(Tw) - len(y))))
    return op.RankOne(
        Coeffs.from_array(sp.norming_functional_array(space, y)),
        Coeffs.from_array(z * yw - Tw @ yw))


# ---------------------------------------------------------------------------
# norm-c singularizing perturbations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lp111Result:
    case: str                  # fixed | escaping | inconclusive
    cert: PerturbationCert | None  # S planting 0 at a unit y, eps = c
    c: float
    trace: tuple               # ((N, c_N), ...) bottom-of-sphere values


def lp111_perturbation(T, space, N: int) -> Lp111Result:
    """Perturbation S with ||S|| = c = inf_{||x||=1} ||T_N x|| and
    inf ||(T+S)x|| ~ 0 on the truncation, as a certificate (S, 0, y, c, N).

    Minimizers over growing sections, none wider than N (so the c at N
    is the infimum on T_N), decide the case by growth_tag, with
    the c_n as infima, which must not rise: a Cauchy family ("attained")
    gives the rank-one S = _plant(T, 0, x_hat), y = x_hat; escaping
    minimizers give the block construction over a disjointified family,
    y the unit block u_k of least c_k = c.
    """
    N = require_trunc(N, "N", TAIL)
    Ns = sorted({min(n, N) for n in (max(2, N // 8), max(3, N // 4),
                                     max(4, N // 2), N)})
    # every section and image of T below is read off this one
    Tw = op.truncate_matrix(T, N + TAIL)
    trace = []
    minimizers = []
    for n in Ns:
        # c_n and a unit minimizer of ||T_n x||, the bottom vector at z = 0
        val, y = _inverse_norm(Tw[:n, :n], 0.0, space)
        if not 0 < val < math.inf:
            return Lp111Result("inconclusive", None, 0.0, tuple(trace))
        trace.append((n, 1.0 / val))
        minimizers.append(y)
    c = trace[-1][1]
    tag, witnesses, _ = growth_tag(Ns, [v for _, v in trace], minimizers,
                                   space, False)

    if tag == "attained":
        xhat = witnesses[-1]
        cert = PerturbationCert(_plant(Tw, 0.0, xhat, space), 0.0,
                                Coeffs.from_array(xhat), c, N)
        return Lp111Result("fixed", cert, c, tuple(trace))

    if tag == "escaping":
        # disjointify keeps its first candidate; each u it gives has a norm
        # above 1 - 5e-10, a unit witness less a leak below 5e-10
        dj = sp.disjointify([Coeffs.from_array(w) for w in witnesses],
                            [1e-9] * len(witnesses), space=space)
        us = [u.to_array() for u in dj.vectors]
        us = [(1.0 / sp.norm_array(space, u)) * u for u in us]
        images = [Tw[:, :len(u)] @ u for u in us]
        # images must also be pairwise disjoint; thin the family if not
        vdj = sp.disjointify([Coeffs.from_array(v) for v in images],
                             [1e-9] * len(us), space=space)
        us = [us[i - 1] for i in vdj.indices]
        cms = [sp.norm_array(space, images[i - 1]) for i in vdj.indices]
        c_used = min(cms)
        # each term plants 0 at (c/c_k) u_k: -(c/c_k) phi_k(.) T u_k
        S = op.Sum(tuple(_plant(Tw, 0.0, (c_used / cm) * u, space)
                         for u, cm in zip(us, cms)))
        cert = PerturbationCert(S, 0.0, Coeffs.from_array(
            us[int(np.argmin(cms))]), c_used, N)
        return Lp111Result("escaping", cert, c_used, tuple(trace))

    return Lp111Result("inconclusive", None, c, tuple(trace))

