"""Resolvent norms, pseudospectrum grids, and perturbation certificates.

Every resolvent norm ||(M - zI)^{-1}||, at one z or at a grid's cells,
comes from one evaluator, _resolvent_norms.  Three sets are tracked on
finite sections: the strict set (resolvent norm above 1/eps), its closure
relaxation (>=), and the level set (= 1/eps within a relative band).  Two
constructive routines produce rank-one certificates: an eigenvalue-planting
perturbation from a resolvent witness, and a norm-c perturbation S with
inf ||(T+S)x|| ~ 0 built either from a converging minimizer or from a
disjointified escaping family.  A planting certificate is (A, z, y, eps, N);
verify_cert computes its residual and ||A||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coeffs import Coeffs, require_finite, require_int, require_trunc
from . import spaces as sp
from . import operators as op
from .opnorm import (OpnormConfig, DEFAULT_CFG, matrix_norm, matrix_norms,
                     growth_tag, rank_one_norm, require_norming,
                     witness_drift)

# a section A is singular when cond_2(A) > SINGULAR_COND, as np.linalg.cond
# computes it from the singular values s: s_max / s_min, a 0/0 counting as
# inf.  On l_2 those values are taken anyway (the norm is 1/s_min), so the
# test reads them.  Elsewhere the SVD is skipped where a cheaper test
# decides.  A shifted section whose rows outside S (see _busy_rows) hold
# only their diagonal is block upper triangular, A = [[A_SS, M_SR], [0, D]],
# so A_SS is a block of A and A_SS^{-1} a block of A^{-1}: ||A_SS|| <= ||A||
# and ||A_SS^{-1}|| <= ||A^{-1}||, so cond_2(A) >= cond_2(A_SS), and a zero
# in D or an A_SS whose cond exceeds SINGULAR_COND makes A singular.  Any
# other cell is screened by cond_2(A) <= ||A||_F ||A^{-1}||_F: where the
# computed product ||A||_F ||X||_F is below SINGULAR_COND / 100 the computed
# inverse X is accurate to about 1e12 u N (7e-3 relative at N = 60), far
# inside that factor 100, so cond_2(A) < SINGULAR_COND and the SVD would not
# call the cell singular either.  The screen can skip the SVD, never flip
# its answer.
SINGULAR_COND = 1e14
LEVEL_BAND = 1e-6       # relative width of the level set |r - 1/eps|
# rows of T's image beyond an N-section that the residuals see; a residual
# is not certified past them
TAIL = 8
# complex entries per stack of shifted sections: 128 KiB, glibc's default
# mmap threshold.  Stacks and inverses above it are mapped and unmapped afresh
# for every block (the AC4 grid took 100,000 page faults at 256 KiB, against
# about 300 here), unless something imported earlier has raised the threshold
GRID_BLOCK = 1 << 13


# ---------------------------------------------------------------------------
# resolvent norms and point classification
# ---------------------------------------------------------------------------

def _frobenius(A: np.ndarray) -> np.ndarray:
    """||A_k||_F for each matrix of a stack; +inf where it overflows."""
    a = np.abs(A)
    with np.errstate(over="ignore"):
        return np.sqrt(np.square(a, out=a).sum(axis=(-2, -1)))


def _busy_rows(M: np.ndarray) -> tuple:
    """(S, R): the rows of the section M (or of any M - zI) with a nonzero
    off-diagonal entry, and the rows that hold only their diagonal."""
    nz = M != 0
    busy = nz.sum(axis=1) > nz.diagonal()
    return busy.nonzero()[0], (~busy).nonzero()[0]


def _invert(A: np.ndarray, split: tuple) -> tuple:
    """(inverse, singular) for a stack A (K, N, N) of shifted sections whose
    rows split into (S, R) = _busy_rows of their section.

    singular[k] is np.linalg.cond(A[k]) > SINGULAR_COND, and inverse[k] is
    A[k]^{-1} where it is not (meaningless where it is).  In the order
    (S, R), A = [[A_SS, M_SR], [0, D]] with D diagonal, so
    A^{-1} = [[A_SS^{-1}, -A_SS^{-1} M_SR D^{-1}], [0, D^{-1}]] and only the
    stack of k x k blocks A_SS goes to np.linalg.inv; when S holds every
    row that is np.linalg.inv(A) itself.  The singular test is set out at
    SINGULAR_COND.
    """
    S, R = split
    B = A if not R.size else A[:, S[:, None], S]
    try:
        inv = np.linalg.inv(B)
        singular = np.zeros(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        singular = np.linalg.cond(B) > SINGULAR_COND
        regular = np.where(singular[:, None, None], np.eye(len(S)), B)
        inv = np.linalg.inv(regular)
        if B is A:
            return inv, singular
    if R.size:
        d = A[:, R, R]
        singular |= (d == 0).any(axis=1)
        X = np.zeros(A.shape, dtype=complex)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            dinv = 1.0 / d
            X[:, S[:, None], R] = inv @ A[:, S[:, None], R] * -dinv[:, None, :]
        X[:, S[:, None], S] = inv
        X[:, R, R] = dinv
        inv = X
    with np.errstate(invalid="ignore"):
        # inf * 0 (an overflowing A, an underflowing inverse) is NaN and
        # leaves the cell undecided, to the SVD
        undecided = ~singular & ~(_frobenius(A) * _frobenius(inv)
                                  < SINGULAR_COND / 100)
    if undecided.any():
        singular[undecided] = np.linalg.cond(A[undecided]) > SINGULAR_COND
    return inv, singular


def _inverse_norm(A: np.ndarray, space,
                  cfg: OpnormConfig = DEFAULT_CFG) -> tuple:
    """(||A^{-1}||, witness, A^{-1}); (inf, None, None) when A is singular.

    The norm is matrix_norm of the inverse, which gives the witness too; on
    l_2 it may differ in the last bits from resolvent_norm's 1/sigma_min,
    far inside att1_perturbation's slack CERT_NORM_SLACK.
    """
    inv, singular = _invert(A[None], _busy_rows(A))
    if singular[0]:
        return math.inf, None, None
    val, w, _, _ = matrix_norm(inv[0], space, cfg)
    return val, w, inv[0]


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
    refused with a ValueError before any stack is built.  On l_2 one
    values-only SVD of a stack gives the norms 1/s_min and the condition
    numbers s_max/s_min; elsewhere _invert inverts the stack.
    """
    op._require_line_sums(M, "M - zI", zs)
    l2 = isinstance(space, sp.Lp) and space.p == 2
    split = None if l2 else _busy_rows(M)
    norms = np.empty(len(zs))
    step = max(1, GRID_BLOCK // M.size)
    for k in range(0, len(zs), step):
        A = _shift(M, zs[k:k + step])
        out = norms[k:k + step]
        if l2:
            s = np.linalg.svd(A, compute_uv=False)
            with np.errstate(all="ignore"):
                cond = s[:, 0] / s[:, -1]
                # a zero section gives 0/0, which np.linalg.cond reads as inf
                cond[np.isnan(cond)] = math.inf
                out[:] = np.where(cond > SINGULAR_COND, math.inf,
                                  1.0 / s[:, -1])
        else:
            inv, singular = _invert(A, split)
            out[:] = math.inf
            out[~singular] = matrix_norms(
                inv[~singular] if singular.any() else inv, space, cfg)
            del inv
        del A          # each stack is freed before the next one is built
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
    A: op.OperatorSpec          # rank-one
    z: complex
    y: Coeffs                   # claimed eigenvector of T + A
    eps: float
    N: int


def att1_perturbation(T, space, z: complex, eps: float,
                      N: int) -> PerturbationCert:
    """Plant the eigenvalue z into T with a rank-one A of norm 1/c <= eps.

    With x a unit resolvent witness, c = ||(T-zI)^{-1}x||, y the normalized
    resolvent image and f a norming functional of y, the perturbation
    A u = -c^{-1} f(u) x satisfies (T+A)y = zy exactly.  A z that is not
    finite, an M - zI with an overflowing row or column sum, or an N whose
    (N + TAIL)-section verify_cert could not build, raises a ValueError.
    """
    require_finite((z,), "z = %r" % (z,))
    N = require_trunc(N, "N", TAIL)
    M = op.truncate_matrix(T, N)
    zs = np.array([complex(z)])
    op._require_line_sums(M, "M - zI", zs)
    A = _shift(M, zs)[0]
    c, x, inv = _inverse_norm(A, space)
    if c == math.inf:
        # z is an eigenvalue of the section already; A = 0 certifies it
        _, _, vh = np.linalg.svd(A)
        y = np.conj(vh[-1])
        y = y / sp.norm_array(space, y)
        pert = op.ScalarMul(0.0)
    else:
        # a computed c of 0 (an inverse that underflows) reads as 1/c = inf
        inv_c = 1.0 / c if c else math.inf
        if inv_c > eps + CERT_NORM_SLACK:
            raise ValueError(
                "1/c = %.6g exceeds eps = %.6g: z outside the non-strict set "
                "on this truncation" % (inv_c, eps))
        if x is None or not np.any(x):
            raise RuntimeError("no resolvent witness found on this truncation")
        y = inv @ x / c
        f = sp.norming_functional_array(space, y)
        pert = op.RankOne(Coeffs.from_array(f),
                          Coeffs.from_array(-x / c))
    return PerturbationCert(pert, complex(z), Coeffs.from_array(y), eps, N)


def verify_cert(T, space, cert: PerturbationCert) -> dict:
    """Evaluate a certificate: its residual ||(T + A - zI)y|| on the
    (N + TAIL)-section and ||A||, rank_one_norm or |lambda|."""
    N = require_trunc(max(cert.N, cert.y.dim_hint), "N", TAIL)
    resid = _residual(op.truncate_matrix(T, N + TAIL), cert.A, cert.z,
                      cert.y.to_array(N), space)
    if isinstance(cert.A, op.RankOne):
        norm_A = rank_one_norm(cert.A, space)
    elif isinstance(cert.A, op.ScalarMul):
        norm_A = abs(cert.A.lam)
    else:
        # a section norm of a general A is only a lower bound on ||A||
        raise TypeError("no certified norm for a %s perturbation"
                        % type(cert.A).__name__)
    ok = resid < CERT_RESIDUAL_TOL and norm_A <= cert.eps + CERT_NORM_SLACK
    return {"ok": bool(ok), "residual": resid, "norm_A": float(norm_A)}


def _residual(Tw: np.ndarray, S, z: complex, y: np.ndarray, space) -> float:
    """||(T + S - zI)y|| on the leading len(y) + TAIL block of T's section
    Tw: the one residual of a certificate or a singularizing S."""
    wide = len(y) + TAIL
    yw = np.pad(y, (0, TAIL))
    M = Tw[:wide, :wide] + op.truncate_matrix(S, wide)
    return float(sp.norm_array(space, M @ yw - z * yw))


# ---------------------------------------------------------------------------
# norm-c singularizing perturbations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lp111Result:
    case: str                  # fixed | escaping | inconclusive
    S: op.OperatorSpec | None
    c: float
    new_inf: float | None
    trace: tuple               # ((N, c_N), ...) bottom-of-sphere values

    @property
    def emitted(self) -> bool:
        return self.S is not None


def lp111_perturbation(T, space, N: int) -> Lp111Result:
    """Perturbation S with ||S|| = c = inf_{||x||=1} ||T_N x|| and
    inf ||(T+S)x|| ~ 0 on the truncation.

    Minimizers over growing sections, none wider than N (so the c at N
    is the infimum on T_N), decide the case by growth_tag, with
    the c_n as infima, which must not rise: a Cauchy family ("attained")
    gives the rank-one S = -phi(.) T x_hat; escaping minimizers give the
    block construction over a disjointified family.
    """
    N = require_trunc(N, "N", TAIL)
    Ns = sorted({min(n, N) for n in (max(2, N // 8), max(3, N // 4),
                                     max(4, N // 2), N)})
    # every section below is a leading block of this one
    Tw = op.truncate_matrix(T, N + TAIL)
    trace = []
    minimizers = []
    for n in Ns:
        # c_n and a unit minimizer of ||T_n x|| from the resolvent at z = 0
        val, x, inv = _inverse_norm(Tw[:n, :n], space)
        if inv is None or val <= 0:
            return Lp111Result("inconclusive", None, 0.0, None, tuple(trace))
        u = inv @ x
        trace.append((n, 1.0 / val))
        minimizers.append(u / sp.norm_array(space, u))
    c = trace[-1][1]
    witnesses, dists, centroids = witness_drift(minimizers, space)
    tag = growth_tag(Ns, [v for _, v in trace], dists, centroids, False)

    if tag == "attained":
        xhat = witnesses[-1]
        phi = sp.norming_functional_array(space, xhat)
        Tx = Tw @ np.pad(xhat, (0, TAIL))
        S = op.RankOne(Coeffs.from_array(phi), Coeffs.from_array(-Tx))
        new_inf = _residual(Tw, S, 0.0, xhat, space)
        return Lp111Result("fixed", S, c, new_inf, tuple(trace))

    if tag == "escaping":
        xs = [Coeffs.from_array(w) for w in witnesses]
        dj = sp.disjointify(xs, [1e-9] * len(xs), space=space)
        blocks = []
        for u in dj.vectors:
            nu = sp.norm_eval(space, u)
            if nu <= 0:
                continue
            u = (1.0 / nu) * u
            v = op.apply(T, u)
            blocks.append((u, v))
        # images must also be pairwise disjoint; thin the family if not
        vdj = sp.disjointify([v for _, v in blocks],
                             [1e-9] * len(blocks), space=space)
        if not vdj.ok and len(vdj.indices) >= 1:
            blocks = [blocks[i - 1] for i in vdj.indices]
        if not blocks:
            return Lp111Result("inconclusive", None, c, None, tuple(trace))
        cms = [sp.norm_eval(space, v) for _, v in blocks]
        c_used = min(cms)
        terms = []
        for (u, v), cm in zip(blocks, cms):
            phi = sp.norming_functional(space, u).restrict(u.support())
            terms.append(op.RankOne(phi, (-c_used / cm) * v))
        S = op.Sum(tuple(terms))
        k = int(np.argmin(cms))
        new_inf = _residual(Tw, S, 0.0, blocks[k][0].to_array(), space)
        return Lp111Result("escaping", S, c_used, new_inf, tuple(trace))

    return Lp111Result("inconclusive", None, c, None, tuple(trace))

