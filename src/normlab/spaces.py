"""Sequence-space norms on finitely supported vectors.

Space descriptors cover l_p, c_0, l_1, the K (+)_q l_p sum with index 0 as
the scalar component, finite l_p-direct sums of l_r blocks, and the
renormed-l_2 space, whose norm (a Minkowski functional) only the convex
solver evaluates.  Alongside the norms live the norm-splitting defect and
the gliding-hump disjointification routine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .coeffs import Coeffs, require_int, require_trunc

INF = math.inf
_TINY = float(np.finfo(float).tiny)
Q_RULE = "half_plus_quarter_shift"      # the q-sequence's name in JSON


# ---------------------------------------------------------------------------
# q-sequence for the renormed-l_2 construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QSeqParams:
    """Rule q_n = 1/2 + 1/(4(n+1)), n >= 1.

    Satisfies 1/2 < q_n < 1/sqrt(2), strictly decreasing, q_n -> 1/2.
    """

    def q(self, n: int) -> float:
        if n < 1:
            raise ValueError("q_n defined for n >= 1")
        return 0.5 + 1.0 / (4.0 * (n + 1))

    def q_array(self, count: int) -> np.ndarray:
        return np.array([self.q(n) for n in range(1, count + 1)])


# ---------------------------------------------------------------------------
# space descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lp:
    p: float

    def __post_init__(self):
        if not (self.p > 1):
            raise ValueError("Lp needs p > 1 (use L1 for p = 1)")


@dataclass(frozen=True)
class C0:
    pass


@dataclass(frozen=True)
class L1:
    pass


@dataclass(frozen=True)
class QSumLp:
    """K (+)_q l_p with index 0 holding the scalar component."""

    q: float
    p: float

    def __post_init__(self):
        if not (self.p > 1 and self.p < INF):
            raise ValueError("QSumLp needs 1 < p < inf")
        if not (self.q >= 1):
            raise ValueError("QSumLp needs q >= 1")


@dataclass(frozen=True)
class DirectSumLp:
    """l_p sum of consecutive finite blocks, block k carrying the l_{r_k} norm."""

    p: float
    blocks: tuple  # of (size, r) pairs

    def __post_init__(self):
        if not (self.p >= 1):
            raise ValueError("DirectSumLp needs p >= 1")
        blocks = tuple((require_int(s, "block size"), float(r))
                       for s, r in self.blocks)
        for s, r in blocks:
            if s < 1:
                raise ValueError("block sizes must be positive")
            if not (r >= 1):
                raise ValueError("block exponents must be >= 1")
        object.__setattr__(self, "blocks", blocks)

    def total_size(self) -> int:
        return sum(s for s, _ in self.blocks)

    def slices(self):
        start = 0
        for s, r in self.blocks:
            yield slice(start, start + s), r
            start += s


@dataclass(frozen=True)
class RenormedL2:
    """l_2 renormed by the Minkowski functional of the atomic set B."""

    trunc: int = 64

    def __post_init__(self):
        object.__setattr__(self, "trunc", require_trunc(self.trunc, "trunc"))


SpaceSpec = Lp | C0 | L1 | QSumLp | DirectSumLp | RenormedL2


# ---------------------------------------------------------------------------
# norms and norming functionals on dense arrays (the numerical workhorses)
# ---------------------------------------------------------------------------
#
# Every rule works on the rows of a (k, n) array at once; norm_array and
# norming_functional_array are its one-row case, and norming_functional_rows
# hands back the norms it takes on the way, equal to norm_rows bit for bit.
# Rows are reduced along the last axis of C-contiguous arrays, so each row
# is summed pairwise exactly as a 1-D array is, and numpy's elementwise
# modulus and power give an entry the same bits wherever it sits.  The l_p
# rule (1 < p < inf) is scaled by each row's largest modulus m: u = |x|/m
# lies in [0, 1], w = u^(p-1) and r = (sum w u)^(1/p) lies in [1, n^(1/p)],
# so no power over- or underflows; the norm is m r and the functional is
# sign(conj x) w / r^(p-1).  K (+)_q l_p on n coordinates is normed as the
# dsum with outer exponent q and blocks (1, l_1) and (n - 1, l_p).
# The dtype follows the input: a real array is taken in float64 and gets a
# real functional, a complex one in complex128, so real sections iterate in
# float64.  A real row's modulus, and its product with a real factor, are
# the bits the complex rule takes for it, so on l_p the two agree bit for
# bit; a sign conj(x)/|x| may come out 1 ulp below 1 in complex division.

def _lp_scaled(a: np.ndarray, m: np.ndarray, p: float) -> tuple:
    """(r, w) of the l_p rule, 1 < p < inf, on the rows of the moduli a
    (k, n) with row maxima m; a zero row gets r = 0 and w = 0."""
    u = a / (m if m.all() else np.where(m > 0, m, 1.0))[:, None]
    w = u ** (p - 1)
    return (w * u).sum(axis=-1) ** (1.0 / p), w


def _lp_norms(a: np.ndarray, p: float) -> np.ndarray:
    """l_p norm of each row of the moduli a (k, n)."""
    if p == 1:
        return a.sum(axis=-1)
    m = a.max(axis=-1, initial=0.0)
    return m if p == INF else m * _lp_scaled(a, m, p)[0]


def lp_exponent(space: SpaceSpec) -> float | None:
    """Exponent of an l_p-family space (Lp: p, C0: inf, L1: 1), else None."""
    if isinstance(space, Lp):
        return space.p
    if isinstance(space, C0):
        return INF
    if isinstance(space, L1):
        return 1
    return None


@functools.lru_cache(maxsize=64)
def _qsum_as_dsum(space: QSumLp, n: int) -> DirectSumLp:
    """The dsum that K (+)_q l_p is on rows of width n."""
    return DirectSumLp(space.q, ((1, 1.0), (max(n - 1, 1), space.p)))


def _quiet(rule):
    """Run a row-wise rule under one np.errstate, on a C-contiguous float64
    copy of a real (bool, integer or float) X and a complex128 one of any
    other: numpy's warnings from the entries the rules mask or rescale say
    nothing."""
    @functools.wraps(rule)
    def wrapper(space, X):
        X = np.asarray(X)
        dtype = float if X.dtype.kind in "biuf" else complex
        with np.errstate(all="ignore"):
            return rule(space, np.ascontiguousarray(X, dtype=dtype))
    return wrapper


@_quiet
def norm_rows(space: SpaceSpec, X: np.ndarray) -> np.ndarray:
    """Norm under the given space of each row of a dense array X (k, n)."""
    p = lp_exponent(space)
    if p is not None:
        return _lp_norms(np.abs(X), p)
    if isinstance(space, QSumLp):
        space = _qsum_as_dsum(space, X.shape[-1])
    if isinstance(space, DirectSumLp):
        total = space.total_size()
        if X.shape[-1] > total and np.any(X[:, total:] != 0):
            raise ValueError("support exceeds the block partition")
        vals = np.stack([_lp_norms(np.abs(X[:, sl]), r)
                         for sl, r in space.slices()], axis=-1)
        return _lp_norms(vals, space.p)
    raise TypeError("no norm evaluation for %r" % (space,))


def norm_array(space: SpaceSpec, arr: np.ndarray) -> float:
    """Norm of a dense coefficient array under the given space."""
    return float(norm_rows(space, np.asarray(arr)[None])[0])


def _lp_dualities(X: np.ndarray, a: np.ndarray, m: np.ndarray,
                  p: float) -> tuple:
    """(norms, F): the l_p norm of each row x of X, whose moduli are a and
    row maxima m, and a unit functional f (bilinear pairing) with
    f(x) = ||x||_p."""
    if p == INF:
        F = np.zeros(X.shape, dtype=X.dtype)
        if X.shape[-1]:
            # f is the conjugate sign of each row's first largest entry x,
            # or 0 where |x| <= 1e-200 (subnormal moduli overflow on
            # division).  |x| is taken by hypot, which rounds as abs() of
            # one entry does; np.abs of an array may differ in the last bit
            rows = np.flatnonzero(m)
            cols = np.argmax(a[rows], axis=-1)
            x = X[rows, cols]
            mod = np.hypot(x.real, x.imag)
            F[rows, cols] = np.where(mod > 1e-200, np.conj(x) / mod, 0)
        return m, F
    Xc = np.conj(X) if np.iscomplexobj(X) else X
    if p == 1:
        return a.sum(axis=-1), np.where(a > 1e-200, Xc / a, 0)
    r, w = _lp_scaled(a, m, p)
    # f = conj(x) w / (|x| r^(p-1)); the floor on |x| (1e-150 of the row's
    # largest, and never subnormal) keeps the factor finite and shrinks only
    # entries that add nothing to f(x) or to ||f||; a zero row, with w = 0
    # and r^(p-1) taken as 1, gets f = 0
    floor = np.maximum(m * 1e-150, _TINY)[:, None]
    rp = (np.maximum(r, 1.0) ** (p - 1))[:, None]
    return m * r, Xc * (w / (np.maximum(a, floor) * rp))


_NO_ROWS = np.empty(0, dtype=np.intp)


def _lift_tiny_rows(X: np.ndarray) -> tuple:
    """(X, |X|, row maxima, tiny) with each row of X whose largest modulus
    is below 1e-150 scaled by 2^600, which is exact (a zero row stays zero);
    tiny indexes those rows (none when every row reaches 1e-150, and then X
    is returned as it came).  A norming functional does not change under
    positive scaling, and the rules above would take such rows' signs from
    subnormal moduli or drop moduli below 1e-200 as zero."""
    a = np.abs(X)
    m = a.max(axis=-1, initial=0.0)
    if m.min(initial=INF) >= 1e-150:
        return X, a, m, _NO_ROWS
    tiny = np.flatnonzero(m < 1e-150)
    X = X.copy()
    X[tiny] *= 2.0 ** 600
    a[tiny] = np.abs(X[tiny])
    m[tiny] = a[tiny].max(axis=-1, initial=0.0)
    return X, a, m, tiny


def _functionals(space: SpaceSpec, X: np.ndarray, a: np.ndarray,
                 m: np.ndarray) -> tuple:
    """(norms, F) of the rows of X, whose moduli are a and row maxima m."""
    p = lp_exponent(space)
    if p is not None:
        return _lp_dualities(X, a, m, p)
    if isinstance(space, QSumLp):
        space = _qsum_as_dsum(space, X.shape[-1])
    out = np.zeros(X.shape, dtype=X.dtype)
    if isinstance(space, DirectSumLp):
        blocks = []
        for sl, r in space.slices():
            ab = np.ascontiguousarray(a[:, sl])
            blocks.append(_lp_dualities(X[:, sl], ab,
                                        ab.max(axis=-1, initial=0.0), r))
        vals = np.stack([nb for nb, _ in blocks], axis=-1)
        norms, outer = _lp_dualities(vals, vals,
                                     vals.max(axis=-1, initial=0.0), space.p)
        for (sl, _), (_, fb), w in zip(space.slices(), blocks,
                                       np.real(outer).T):
            out[:, sl] = w[:, None] * fb
        return norms, out
    raise TypeError("no explicit norming functional for %r" % (space,))


@_quiet
def norming_functional_rows(space: SpaceSpec, X: np.ndarray) -> tuple:
    """(norms, F) for the rows x of X (k, n): the norm of each row, equal to
    norm_rows bit for bit, and a Hahn-Banach surrogate, a unit dual vector f
    with sum f_i x_i = ||x||."""
    lifted, a, m, tiny = _lift_tiny_rows(X)
    norms, F = _functionals(space, lifted, a, m)
    if tiny.size:
        # the norms of the unlifted rows, as norm_rows takes them
        norms[tiny] = norm_rows(space, X[tiny])
    return norms, F


def norming_functional_array(space: SpaceSpec, arr: np.ndarray) -> np.ndarray:
    """Hahn-Banach surrogate: unit dual vector f with sum f_i x_i = ||x||."""
    return norming_functional_rows(space, np.asarray(arr)[None])[1][0]


def dual_space(space: SpaceSpec) -> SpaceSpec:
    def conj_exp(e):
        if e == 1:
            return INF
        if e == INF:
            return 1.0
        return e / (e - 1.0)

    p = lp_exponent(space)
    if p is not None:
        # past p = 2^53 the conjugate rounds to 1: l_1 to rounding
        q = conj_exp(p)
        return C0() if p == 1 else L1() if q == 1 else Lp(q)
    if isinstance(space, QSumLp):
        return QSumLp(conj_exp(space.q), conj_exp(space.p))
    if isinstance(space, DirectSumLp):
        return DirectSumLp(conj_exp(space.p),
                           tuple((s, conj_exp(r)) for s, r in space.blocks))
    raise TypeError("no computable dual for %r" % (space,))


# ---------------------------------------------------------------------------
# operations on Coeffs
# ---------------------------------------------------------------------------

def norm_eval(space: SpaceSpec, x: Coeffs) -> float:
    n = max(x.dim_hint, 1)
    if isinstance(space, DirectSumLp):
        n = max(n, space.total_size())
    return norm_array(space, x.to_array(n))


def norming_functional(space: SpaceSpec, x: Coeffs) -> Coeffs:
    return Coeffs.from_array(norming_functional_array(space, x.to_array()))


def p_space_defect(x: Coeffs, useq, p: float, space: SpaceSpec):
    """Defect ||x+u_n|| - (||x||^p + ||u_n||^p)^(1/p), one value per u_n.

    For disjoint supports in an l_p norm the defect vanishes identically;
    residues below the rounding resolution of the two norm evaluations are
    snapped to exactly 0 so the identity survives summation-order noise.
    """
    nx = norm_eval(space, x)
    out = []
    for u in useq:
        nu = norm_eval(space, u)
        d = norm_eval(space, x + u) - (nx ** p + nu ** p) ** (1.0 / p)
        if abs(d) < 1e-14 * (nx + nu):
            d = 0.0
        out.append(d)
    return out


@dataclass(frozen=True)
class DisjointifyResult:
    ok: bool
    indices: tuple        # 1-based positions into the input sequence
    vectors: tuple        # Coeffs with pairwise disjoint supports
    failed_at: int | None = None


def disjointify(xs, eps, space: SpaceSpec = Lp(2.0)) -> DisjointifyResult:
    """Gliding hump: select x_{n_k} and nearby u_k with pairwise disjoint supports.

    Picks min(len(xs), len(eps)) vectors and guarantees ||xs[n_k - 1] - u_k||
    < eps[k-1] in the ambient norm.  Since the inner wait for ||P_C x_n|| <
    eps_k/2 is undecidable from finite data, running out of xs declares
    failure at the step reached.
    """
    indices: list = []
    vectors: list = []
    covered: set = set()
    pos = 0  # 0-based scan position
    for k in range(1, min(len(xs), len(eps)) + 1):
        found = None
        while pos < len(xs):
            cand = xs[pos]
            leak = cand.restrict(covered)
            if norm_eval(space, leak) < eps[k - 1] / 2.0:
                found = pos
                break
            pos += 1
        if found is None:
            return DisjointifyResult(False, tuple(indices), tuple(vectors),
                                     failed_at=k)
        u = cand - cand.restrict(covered)
        indices.append(found + 1)
        vectors.append(u)
        covered |= set(u.support())
        pos = found + 1
    return DisjointifyResult(True, tuple(indices), tuple(vectors))


# ---------------------------------------------------------------------------
# the --space JSON descriptor
# ---------------------------------------------------------------------------

def space_from_json_obj(obj) -> SpaceSpec:
    tag = obj["space"]
    if tag == "lp":
        return Lp(float(obj["p"]))
    if tag == "c0":
        return C0()
    if tag == "l1":
        return L1()
    if tag == "qsum":
        q = obj["q"]
        return QSumLp(INF if q in ("inf", None) else float(q), float(obj["p"]))
    if tag == "dsum":
        return DirectSumLp(float(obj["p"]), tuple(obj["blocks"]))
    if tag == "renorm":
        return RenormedL2(obj["trunc"]) if "trunc" in obj else RenormedL2()
    raise ValueError("unknown space tag %r" % (tag,))
