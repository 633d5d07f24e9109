"""Sequence-space norms on finitely supported vectors.

Space descriptors cover l_p, c_0, l_1, the K (+)_q l_p sum with index 0 as
the scalar component, finite l_p-direct sums of l_r blocks, and the
renormed-l_2 space, whose norm (a Minkowski functional) only the convex
solver evaluates.  Alongside the norms live the norm-splitting defect and
the gliding-hump disjointification routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import Coeffs, require_int

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
        object.__setattr__(self, "trunc", require_int(self.trunc, "trunc"))
        if self.trunc < 1:
            raise ValueError("trunc must be positive")


SpaceSpec = Lp | C0 | L1 | QSumLp | DirectSumLp | RenormedL2


# ---------------------------------------------------------------------------
# norms on dense arrays (the numerical workhorses)
# ---------------------------------------------------------------------------

def _lp_norm(arr: np.ndarray, p: float) -> float:
    a = np.abs(arr)
    if p == INF:
        return float(a.max()) if a.size else 0.0
    if p == 1:
        return float(a.sum())
    s = float((a * a).sum() if p == 2 else (a ** p).sum())
    if s == INF or (s < _TINY and a.any()):
        # the sum overflowed or underflowed: factor out the largest modulus
        m = a.max()
        return float(m) if m == INF else float(m * _lp_norm(a / m, p))
    return math.sqrt(s) if p == 2 else s ** (1.0 / p)


def qsum_combine(alpha: float, tail: float, q: float) -> float:
    if q == INF:
        return max(alpha, tail)
    if q == 1:
        return alpha + tail
    try:
        s = float(alpha) ** q + float(tail) ** q
    except OverflowError:
        s = INF
    if s == INF or (s < _TINY and (alpha or tail)):
        # the sum overflowed or underflowed: factor out the larger part
        m = max(alpha, tail)
        return m if m == INF else m * qsum_combine(alpha / m, tail / m, q)
    return s ** (1.0 / q)


def lp_exponent(space: SpaceSpec) -> float | None:
    """Exponent of an l_p-family space (Lp: p, C0: inf, L1: 1), else None."""
    if isinstance(space, Lp):
        return space.p
    if isinstance(space, C0):
        return INF
    if isinstance(space, L1):
        return 1
    return None


def norm_array(space: SpaceSpec, arr: np.ndarray) -> float:
    """Norm of a dense coefficient array under the given space."""
    arr = np.asarray(arr, dtype=complex)
    p = lp_exponent(space)
    if p is not None:
        return _lp_norm(arr, p)
    if isinstance(space, QSumLp):
        alpha = abs(arr[0]) if arr.size else 0.0
        tail = _lp_norm(arr[1:], space.p)
        return qsum_combine(alpha, tail, space.q)
    if isinstance(space, DirectSumLp):
        total = space.total_size()
        if arr.size > total and np.any(arr[total:] != 0):
            raise ValueError("support exceeds the block partition")
        vals = [_lp_norm(arr[sl], r) for sl, r in space.slices()]
        return _lp_norm(np.array(vals), space.p)
    raise TypeError("no norm evaluation for %r" % (space,))


def _sign(v: complex) -> complex:
    a = abs(v)
    # subnormal moduli overflow on division; treat them as zero
    return np.conj(v) / a if a > 1e-200 else 0.0


def _power_in_range(x: float, e: float) -> float:
    """x ** e, or 0.0 when it over- or underflows: the caller then divides
    by x before raising to e."""
    try:
        d = x ** e
    except OverflowError:
        return 0.0
    return d if d < INF else 0.0


def _lp_duality(arr: np.ndarray, p: float) -> np.ndarray:
    """Unit functional f (bilinear pairing) with f(arr) = ||arr||_p."""
    out = np.zeros_like(arr, dtype=complex)
    a = np.abs(arr)
    if not a.any():
        return out
    if p == INF:
        m = int(np.argmax(a))
        out[m] = _sign(arr[m])
        return out
    if p == 1:
        nz = a > 1e-200
        out[nz] = np.conj(arr[nz]) / a[nz]
        return out
    nrm = _lp_norm(arr, p)
    # relative floor: entries this small contribute nothing but can overflow
    # a**(p-2) for p < 2
    nz = a > nrm * 1e-150
    d = _power_in_range(nrm, p - 1)
    if d:
        out[nz] = np.conj(arr[nz]) * a[nz] ** (p - 2) / d
    else:
        # nrm^(p-1) over- or underflows (p or its dual exponent is large)
        out[nz] = np.conj(arr[nz]) / a[nz] * (a[nz] / nrm) ** (p - 1)
    return out


def norming_functional_array(space: SpaceSpec, arr: np.ndarray) -> np.ndarray:
    """Hahn-Banach surrogate: unit dual vector f with sum f_i x_i = ||x||."""
    arr = np.asarray(arr, dtype=complex)
    p = lp_exponent(space)
    if p is not None:
        return _lp_duality(arr, p)
    if isinstance(space, QSumLp):
        out = np.zeros_like(arr, dtype=complex)
        if not arr.size:
            return out
        alpha = abs(arr[0])
        tail = _lp_norm(arr[1:], space.p)
        nrm = qsum_combine(alpha, tail, space.q)
        if nrm == 0:
            return out
        ftail = _lp_duality(arr[1:], space.p)
        q = space.q
        if q == INF:
            # weight the attaining component; ties go to the tail
            if tail >= alpha:
                out[1:] = ftail
            else:
                out[0] = _sign(arr[0])
        elif q == 1:
            out[0] = _sign(arr[0])
            out[1:] = ftail
        else:
            d = _power_in_range(nrm, q - 1)
            if d:
                out[0] = (alpha ** (q - 1) / d) * _sign(arr[0])
                out[1:] = (tail ** (q - 1) / d) * ftail
            else:
                # nrm^(q-1) over- or underflows (q is large)
                out[0] = (alpha / nrm) ** (q - 1) * _sign(arr[0])
                out[1:] = (tail / nrm) ** (q - 1) * ftail
        return out
    if isinstance(space, DirectSumLp):
        out = np.zeros_like(arr, dtype=complex)
        vals = np.array([_lp_norm(arr[sl], r) for sl, r in space.slices()])
        outer = _lp_duality(vals.astype(complex), space.p)
        for (sl, r), w in zip(space.slices(), outer):
            if sl.stop <= arr.size and w != 0:
                out[sl] = w.real * _lp_duality(arr[sl], r)
        return out
    raise TypeError("no explicit norming functional for %r" % (space,))


def dual_space(space: SpaceSpec) -> SpaceSpec:
    def conj_exp(e):
        if e == 1:
            return INF
        if e == INF:
            return 1.0
        return e / (e - 1.0)

    p = lp_exponent(space)
    if p is not None:
        return L1() if p == INF else C0() if p == 1 else Lp(conj_exp(p))
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
