"""Resolvent norms, pseudospectrum grids, and perturbation certificates.

Three sets are tracked on finite sections: the strict set (resolvent norm
above 1/eps), its closure relaxation (>=), and the level set (= 1/eps within
a relative band).  Two constructive routines produce rank-one certificates:
an eigenvalue-planting perturbation from a resolvent witness, and a
norm-c perturbation S with inf ||(T+S)x|| ~ 0 built either from a converging
minimizer or from a disjointified escaping family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import Coeffs, require_finite
from . import spaces as sp
from . import operators as op
from .opnorm import (OpnormConfig, DEFAULT_CFG, matrix_norm, matrix_norms,
                     rank_one_norm, require_norming, witness_drift)

# a section A is singular when cond_2(A) > SINGULAR_COND, as np.linalg.cond
# computes it from a full SVD.  That SVD is skipped where a cheaper bound
# decides: cond_2(A) <= ||A||_F ||A^{-1}||_F, and where the computed product
# ||A||_F ||X||_F is below SINGULAR_COND / 100 the computed inverse X is
# accurate to about 1e12 u N (7e-3 relative at N = 60), far inside that
# factor 100, so cond_2(A) < SINGULAR_COND and the SVD would not call the
# cell singular either.  The screen can skip the SVD, never flip its answer.
SINGULAR_COND = 1e14
LEVEL_BAND = 1e-6       # relative width of the level set |r - 1/eps|
CASE_TOL = 1e-4         # minimizer Cauchy tolerance for the "fixed" case
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


def _invert(A: np.ndarray) -> tuple:
    """(inverse, singular) for a stack A (K, N, N).

    singular[k] is np.linalg.cond(A[k]) > SINGULAR_COND, and inverse[k] is
    np.linalg.inv(A[k]) where it is not (meaningless where it is).  The
    stack is inverted first; the SVD condition number is taken only for the
    cells the Frobenius screen (see SINGULAR_COND) leaves open, or for the
    whole stack when an exact zero pivot makes the inversion raise.
    """
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        singular = np.linalg.cond(A) > SINGULAR_COND
        regular = np.where(singular[:, None, None], np.eye(A.shape[-1]), A)
        return np.linalg.inv(regular), singular
    with np.errstate(invalid="ignore"):
        # inf * 0 (an overflowing A, an underflowing inverse) is NaN and
        # leaves the cell undecided, to the SVD
        undecided = ~(_frobenius(A) * _frobenius(inv) < SINGULAR_COND / 100)
    singular = np.zeros(len(A), dtype=bool)
    if undecided.any():
        singular[undecided] = np.linalg.cond(A[undecided]) > SINGULAR_COND
    return inv, singular


def _inverse_norm(A: np.ndarray, space,
                  cfg: OpnormConfig = DEFAULT_CFG) -> tuple:
    """(||A^{-1}||, witness, A^{-1}); (inf, None, None) when A is singular."""
    inv, singular = _invert(A[None])
    if singular[0]:
        return math.inf, None, None
    val, w, _ = matrix_norm(inv[0], space, cfg)
    return val, w, inv[0]


def resolvent_norm(M: np.ndarray, space, z: complex,
                   cfg: OpnormConfig = DEFAULT_CFG) -> float:
    """||(M - zI)^{-1}|| as a subordinate norm; +inf when singular."""
    return _inverse_norm(M - complex(z) * np.eye(len(M), dtype=complex),
                         space, cfg)[0]


def _require_eps(eps: float) -> None:
    if not eps > 0:
        raise ValueError("eps must be positive")
    if 1.0 / float(eps) == math.inf:
        raise ValueError("eps = %g is too small: 1/eps overflows" % eps)


def _classify(r: float, eps: float, band: float) -> str:
    """strict | level | outside for a resolvent norm r against 1/eps.

    The level band is relative (exact equality is measure zero in floating
    point) and is checked before the strict comparison.
    """
    _require_eps(eps)
    thr = 1.0 / eps
    if r == math.inf:
        return "strict"
    if abs(r - thr) <= band * thr:
        return "level"
    return "strict" if r > thr else "outside"


def classify_point(T, space, z: complex, eps: float, N: int) -> str:
    """strict | level | outside for the eps-pseudospectrum on the N-section."""
    return _classify(resolvent_norm(op.truncate_matrix(T, N), space, z),
                     eps, LEVEL_BAND)


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
    band: float            # relative width of the level set

    @property
    def classes(self) -> tuple:
        """Tags strict | level | outside, in the layout of resnorms."""
        return tuple(_classify(r, self.eps, self.band)
                     for r in self.resnorms)

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
              cfg: OpnormConfig = DEFAULT_CFG,
              band: float = LEVEL_BAND) -> PspecGrid:
    """Resolvent norms of the N-section at the cell centers of a grid.

    The cells are taken in row-major blocks of at most GRID_BLOCK matrix
    entries.  Each block stacks M - zI and is inverted at once.  A cell is
    singular when cond_2 > SINGULAR_COND; the SVD condition number is taken
    only where the Frobenius bound ||A||_F ||A^{-1}||_F is not below
    SINGULAR_COND / 100, and below it the SVD could not call the cell
    singular (see SINGULAR_COND).  The norms of a block come from one
    matrix_norms call.  Every value equals resolvent_norm(M, space, z, cfg)
    bit for bit.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2 per axis")
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
    zs = zs.ravel()
    resnorms = np.full(zs.size, math.inf)
    step = max(1, GRID_BLOCK // (N * N))
    for k in range(0, zs.size, step):
        block = zs[k:k + step]
        A = np.empty((block.size, N, N), dtype=complex)
        A[:] = M
        A.reshape(block.size, N * N)[:, ::N + 1] -= block[:, None]
        inv, singular = _invert(A)
        del A          # each stack is freed before the next one is built
        if singular.any():
            inv = inv[~singular]
        resnorms[k:k + step][~singular] = matrix_norms(inv, space, cfg)
        del inv
    return PspecGrid(tuple(region), resolution, eps, N,
                     tuple(res_axis), tuple(im_axis),
                     tuple(resnorms.tolist()), band)


def strict_radius(grid: PspecGrid) -> float:
    """Largest |z| over strict cells: the disc-radius estimate of the scan."""
    radii = [abs(z) for z, _, c in grid.cells() if c == "strict"]
    return max(radii) if radii else 0.0


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

@dataclass(frozen=True)
class PerturbationCert:
    A: op.OperatorSpec          # rank-one
    z: complex
    y: Coeffs                   # claimed eigenvector of T + A
    residual: float
    norm_A: float
    eps: float
    N: int


def att1_perturbation(T, space, z: complex, eps: float,
                      N: int) -> PerturbationCert:
    """Plant the eigenvalue z into T with a rank-one A of norm 1/c <= eps.

    With x a unit resolvent witness, c = ||(T-zI)^{-1}x||, y the normalized
    resolvent image and f a norming functional of y, the perturbation
    A u = -c^{-1} f(u) x satisfies (T+A)y = zy exactly.
    """
    # one section wide enough to hold Ty: its leading N-block is T_N
    Tw = op.truncate_matrix(T, N + TAIL)
    A = Tw[:N, :N] - complex(z) * np.eye(N, dtype=complex)
    c, x, _ = _inverse_norm(A, space)
    if c == math.inf:
        # z is an eigenvalue of the section already; A = 0 certifies it
        _, _, vh = np.linalg.svd(A)
        y = np.conj(vh[-1])
        y = y / sp.norm_array(space, y)
        pert, Ay, norm_A = op.ScalarMul(0.0), np.zeros(N), 0.0
    else:
        if x is None or not np.any(x):
            raise RuntimeError("no resolvent witness found on this truncation")
        if 1.0 / c > eps + 1e-10:
            raise ValueError(
                "1/c = %.6g exceeds eps = %.6g: z outside the non-strict set "
                "on this truncation" % (1.0 / c, eps))
        y = np.linalg.solve(A, x) / c
        f = sp.norming_functional_array(space, y)
        pert = op.RankOne(Coeffs.from_array(f),
                          Coeffs.from_array(-x / c))
        Ay = -(np.dot(f, y) / c) * x
        norm_A = float(rank_one_norm(pert, space))
    # residual of (T + A)y = zy on the wide section
    yw = np.pad(y, (0, TAIL))
    img = Tw @ yw + np.pad(Ay, (0, TAIL)) - complex(z) * yw
    return PerturbationCert(pert, complex(z), Coeffs.from_array(y),
                            float(sp.norm_array(space, img)), norm_A, eps, N)


def verify_cert(T, space, cert: PerturbationCert) -> dict:
    """Re-verify a certificate with independent norm and residual evaluations."""
    wide = max(cert.N, cert.y.dim_hint) + TAIL
    yw = cert.y.to_array(wide)
    Tw = op.truncate_matrix(T, wide) + op.truncate_matrix(cert.A, wide)
    resid = sp.norm_array(space, Tw @ yw - cert.z * yw)
    if isinstance(cert.A, op.RankOne):
        norm_A = rank_one_norm(cert.A, space)
    elif isinstance(cert.A, op.ScalarMul):
        norm_A = abs(cert.A.lam)
    else:
        # a section norm of a general A is only a lower bound on ||A||
        raise TypeError("no certified norm for a %s perturbation"
                        % type(cert.A).__name__)
    ok = resid < 1e-10 and norm_A <= cert.eps + 1e-10
    return {"ok": bool(ok), "residual": float(resid), "norm_A": float(norm_A)}


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

    Minimizers over growing sections decide the case: a Cauchy family gives
    the rank-one S = -phi(.) T x_hat; escaping minimizers (support centroid
    beyond N/2) give the block construction over a disjointified family.
    """
    Ns = sorted({max(2, N // 8), max(3, N // 4), max(4, N // 2), N})
    # every section below is a leading block of this one
    Tw = op.truncate_matrix(T, Ns[-1] + TAIL)
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

    if all(d < CASE_TOL for d in dists[-2:]):
        xhat = witnesses[-1]
        phi = sp.norming_functional_array(space, xhat)
        Tx = Tw @ np.pad(xhat, (0, TAIL))
        S = op.RankOne(Coeffs.from_array(phi), Coeffs.from_array(-Tx))
        new_inf = _perturbed_value(Tw, S, space, xhat)
        return Lp111Result("fixed", S, c, new_inf, tuple(trace))

    if all(cn >= 0.5 * n for cn, n in zip(centroids[-2:], Ns[-2:])):
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
        new_inf = _perturbed_value(Tw, S, space,
                                   blocks[k][0].to_array())
        return Lp111Result("escaping", S, c_used, new_inf, tuple(trace))

    return Lp111Result("inconclusive", None, c, None, tuple(trace))


def _perturbed_value(Tw: np.ndarray, S, space, x: np.ndarray) -> float:
    """||(T + S)x|| on the leading len(x)+TAIL block of T's section Tw."""
    wide = len(x) + TAIL
    M = Tw[:wide, :wide] + op.truncate_matrix(S, wide)
    return float(sp.norm_array(space, M @ np.pad(x, (0, wide - len(x)))))


# ---------------------------------------------------------------------------
# strict vs closure membership on a grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sigma0Report:
    eps: float
    N: int
    strict_count: int
    level_certified: tuple     # (z, norm_A) pairs
    level_uncertified: tuple   # (z, reason) pairs
    outside_count: int


def sigma0_vs_sigma_check(T, space, eps: float, region, resolution: int,
                          N: int) -> Sigma0Report:
    """Attempt a planting certificate at every level-set cell.

    Strict cells need no certificate (strict membership is already
    perturbation-reachable with norms < eps); level cells are the boundary
    where attainment of the resolvent norm decides membership.
    """
    grid = grid_scan(T, space, region, resolution, eps, N, band=1e-3)
    certified = []
    uncertified = []
    strict = outside = 0
    for z, r, cls in grid.cells():
        if cls == "strict":
            strict += 1
        elif cls == "outside":
            outside += 1
        else:
            try:
                cert = att1_perturbation(T, space, z, eps, N)
            except (ValueError, RuntimeError) as exc:
                uncertified.append((z, str(exc)))
                continue
            chk = verify_cert(T, space, cert)
            if chk["ok"]:
                certified.append((z, chk["norm_A"]))
            else:
                uncertified.append((z, "re-verification failed"))
    return Sigma0Report(eps, N, strict, tuple(certified),
                        tuple(uncertified), outside)
