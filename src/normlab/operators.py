"""Structured operator descriptions: application, finite sections, duals.

The catalog collects the named operators used throughout the package: the
swap-plus-shrink pair S/R on the K (+)_q l_p sum, the rank-one nilpotents on
c_0 and l_1, the shifted-identity on renormed l_2, and the diagonal with
entries 1 - 2^{-n}.  Duality is with respect to the bilinear pairing
<x, f> = sum_i x_i f_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import PRUNE_TOL, Coeffs, require_finite, require_trunc


class UnboundedImageError(Exception):
    """The exact image has infinite support; use truncate_matrix instead."""


# ---------------------------------------------------------------------------
# diagonal rules (closed-form, bounded)
# ---------------------------------------------------------------------------

_DIAG_RULES = {
    # DiagD: entries 1 - 2^{-n}, n >= 1, written on 0-based indices
    "one_minus_2pow": lambda n: 1.0 - 2.0 ** (-(n + 1)),
    # escaping-minimizer example: entries 1 + 1/(n+1)
    "one_plus_inv": lambda n: 1.0 + 1.0 / (n + 1.0),
}


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class ScalarMul:
    lam: complex

    def __post_init__(self):
        require_finite((complex(self.lam),), "scalar")


@dataclass(frozen=True)
class Diagonal:
    rule: str
    values: tuple = ()        # for rule == "explicit"

    def __post_init__(self):
        if self.rule == "explicit":
            vals = tuple(complex(v) for v in self.values)
            require_finite(vals, "diagonal values")
            object.__setattr__(self, "values", vals)
        elif self.rule not in _DIAG_RULES:
            raise ValueError("unknown diagonal rule %r" % (self.rule,))

    def entry(self, n: int) -> complex:
        if self.rule == "explicit":
            return self.values[n] if n < len(self.values) else 0.0
        return _DIAG_RULES[self.rule](n)


@dataclass(frozen=True)
class RankOne:
    """x -> <x, functional> * vector with the bilinear pairing."""

    functional: Coeffs
    vector: Coeffs


@dataclass(frozen=True)
class Sum:
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class Compose:
    """Factors applied right-to-left: Compose(A, B) x = A(B(x))."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


@dataclass(frozen=True)
class Matrix:
    """Dense finite section given explicitly; zero beyond its size."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(complex(v) for v in row) for row in self.rows)
        if len({len(row) for row in rows}) != 1:
            raise ValueError("matrix needs rows of one common length")
        require_finite((v for row in rows for v in row), "matrix entries")
        object.__setattr__(self, "rows", rows)

    def as_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=complex)


@dataclass(frozen=True)
class _Swap:
    """Swap operator on the K (+)_q l_p sum; needs 1 < p < inf, q >= 1."""

    p: float
    q: float

    def __post_init__(self):
        name = type(self).__name__
        if not (self.p > 1 and self.p < math.inf):
            raise ValueError("%s needs 1 < p < inf" % name)
        if not (self.q >= 1):
            raise ValueError("%s needs 1 <= q <= inf" % name)


class SimpleS(_Swap):
    """Swap coordinates 0,1 then shrink: (x_1, x_0, 2x_2/3, 3x_3/4, ...)."""


class SimpleR(_Swap):
    """Inverse of SimpleS: swap then expand (x_1, x_0, 3x_2/2, 4x_3/3, ...)."""


@dataclass(frozen=True)
class Tc0:
    """Rank-one nilpotent on c_0: x -> (sum_{n>=1} 2^{-n} x_n) e_0."""


@dataclass(frozen=True)
class Tl1:
    """Rank-one nilpotent on l_1: x -> (sum_{n>=1} (1 - 2^{-n}) x_n) e_0."""


@dataclass(frozen=True)
class Transpose:
    """Formal dual of an operator whose transpose has no finite-support form."""

    inner: "OperatorSpec"


OperatorSpec = (Identity | ScalarMul | Diagonal | RankOne | Sum | Compose
                | Matrix | SimpleS | SimpleR | Tc0 | Tl1 | Transpose)


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

def apply(T: OperatorSpec, x: Coeffs) -> Coeffs:
    """Exact image of a finitely supported vector."""
    if isinstance(T, Identity):
        return x
    if isinstance(T, ScalarMul):
        return T.lam * x
    if isinstance(T, Diagonal):
        return Coeffs({i: T.entry(i) * v for i, v in x.entries.items()},
                      x.dim_hint)
    if isinstance(T, RankOne):
        return x.pair(T.functional) * T.vector
    if isinstance(T, Sum):
        out = Coeffs.zero(x.dim_hint)
        for term in T.terms:
            out = out + apply(term, x)
        return out
    if isinstance(T, Compose):
        for factor in reversed(T.factors):
            x = apply(factor, x)
        return x
    if isinstance(T, Matrix):
        # the operator is zero beyond its explicit block
        m = T.as_array()
        vec = x.to_array(max(x.dim_hint, m.shape[1]))
        return Coeffs.from_array(m @ vec[: m.shape[1]])
    if isinstance(T, (SimpleS, SimpleR)):
        shrink = isinstance(T, SimpleS)
        out = {0: x[1], 1: x[0]}
        for i, v in x.entries.items():
            if i >= 2:
                out[i] = v * i / (i + 1.0) if shrink else v * (i + 1.0) / i
        return Coeffs(out, x.dim_hint)
    if isinstance(T, (Tc0, Tl1)):
        tl1 = isinstance(T, Tl1)
        s = sum((1.0 - 2.0 ** (-i) if tl1 else 2.0 ** (-i)) * v
                for i, v in x.entries.items() if i >= 1)
        return Coeffs({0: s}, x.dim_hint)
    if isinstance(T, Transpose):
        raise UnboundedImageError(
            "transpose image may have infinite support; use truncate_matrix")
    raise TypeError("unknown operator %r" % (T,))


def truncate_matrix(T: OperatorSpec, N: int) -> np.ndarray:
    """Finite section M[i, j] = <apply(T, e_j), e_i> for 0 <= i, j < N.

    Identity, ScalarMul, Diagonal, RankOne, SimpleS/SimpleR, Tc0 and Tl1
    sections are written directly in numpy, with the entries apply gives
    bit for bit (including its pruning below PRUNE_TOL); a Sum adds its
    terms' sections, a Transpose transposes its inner one and a Matrix is
    copied.  A Compose still images the N basis vectors by apply, one
    column each: the section of a product is not the product of sections.

    N must lie in [1, MAX_TRUNC], checked before anything is allocated.
    Raises ValueError when a row or column sum of |M| overflows: it bounds
    the entries of M x and of g M for x and g with entries of modulus at
    most 1, so past it an l_p or resolvent norm of M is not computable.
    """
    N = require_trunc(N, "N")
    M = _section(T, N)
    with np.errstate(over="ignore"):
        a = np.abs(M)
        finite = (np.isfinite(a.sum(axis=0)).all()
                  and np.isfinite(a.sum(axis=1)).all())
    if not finite:
        raise ValueError("the N = %d section is too large: a row or column "
                         "sum of |M| overflows" % N)
    return M


def _cmul(ar, ai, br, bi) -> np.ndarray:
    """(ar + i ai)(br + i bi) as Python's complex product takes it, one
    real part at a time, with moduli below PRUNE_TOL set to 0 as Coeffs
    prunes them; an overflow gives the same inf or NaN parts."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.empty(np.broadcast(ar, ai, br, bi).shape, dtype=complex)
        out.real = ar * br - ai * bi
        out.imag = ar * bi + ai * br
        out[np.hypot(out.real, out.imag) < PRUNE_TOL] = 0.0
    return out


def diagonal_entries(T: Identity | ScalarMul | Diagonal,
                     N: int) -> np.ndarray:
    """The first N diagonal entries of T, as apply gives them on e_j: the
    entry (a rule's from its own scalar formula) times 1 + 0j, pruned below
    PRUNE_TOL."""
    if isinstance(T, Diagonal):
        d = np.fromiter(map(T.entry, range(N)), dtype=complex, count=N)
    else:
        d = np.full(N, 1.0 if isinstance(T, Identity) else complex(T.lam),
                    dtype=complex)
    return _cmul(d.real, d.imag, 1.0, 0.0)


def _section(T: OperatorSpec, N: int) -> np.ndarray:
    if isinstance(T, Transpose):
        return _section(T.inner, N).T
    if isinstance(T, Sum):
        # exact, and a term may be a Transpose, which apply cannot image.
        # The first section accumulates the rest; adding 0.0 turns its -0.0
        # parts to 0.0, as a sum begun from zero does
        sections = (_section(term, N) for term in T.terms)
        out = np.ascontiguousarray(
            next(sections, np.zeros((N, N), dtype=complex)))
        out += 0.0
        for M in sections:
            out += M
        return out
    out = np.zeros((N, N), dtype=complex)
    if isinstance(T, Matrix):
        m = T.as_array()
        k = min(N, m.shape[0]), min(N, m.shape[1])
        out[: k[0], : k[1]] = m[: k[0], : k[1]]
    elif isinstance(T, (Identity, ScalarMul, Diagonal)):
        np.fill_diagonal(out, diagonal_entries(T, N))
    elif isinstance(T, RankOne):
        # column j is <e_j, f> v = (0 + (1 + 0j) f_j) v: nonzero only on the
        # block where the supports of v (rows) and f (columns) meet
        f = {j: c for j, c in T.functional.entries.items() if j < N}
        v = {i: c for i, c in T.vector.entries.items() if i < N}
        if f and v:
            fa, va = np.array(list(f.values())), np.array(list(v.values()))
            s = _cmul(fa.real, fa.imag, 1.0, 0.0) + 0.0
            out[np.ix_(list(v), list(f))] = _cmul(
                va.real[:, None], va.imag[:, None], s.real, s.imag)
    elif isinstance(T, (SimpleS, SimpleR)):
        if N > 1:
            out[0, 1] = out[1, 0] = 1.0
        n = np.arange(2, N)
        out[n, n] = n / (n + 1.0) if isinstance(T, SimpleS) else (n + 1.0) / n
    elif isinstance(T, (Tc0, Tl1)):
        pow2 = np.ldexp(1.0, -np.arange(1, N))
        row = 1.0 - pow2 if isinstance(T, Tl1) else pow2
        row[row < PRUNE_TOL] = 0.0
        out[0, 1:] = row
    elif isinstance(T, Compose):
        for j in range(N):
            img = apply(T, Coeffs.basis(j))
            for i, v in img.entries.items():
                if i < N:
                    out[i, j] = v
    else:
        raise TypeError("unknown operator %r" % (T,))
    return out


def dual_operator(T: OperatorSpec) -> OperatorSpec:
    """Bilinear transpose: <Tx, y> = <x, dual(T) y> on every finite section."""
    if isinstance(T, (Identity, ScalarMul, Diagonal, SimpleS, SimpleR)):
        return T  # symmetric sections
    if isinstance(T, RankOne):
        return RankOne(T.vector, T.functional)
    if isinstance(T, Sum):
        return Sum(tuple(dual_operator(t) for t in T.terms))
    if isinstance(T, Compose):
        return Compose(tuple(dual_operator(t) for t in reversed(T.factors)))
    if isinstance(T, Matrix):
        return Matrix(tuple(map(tuple, T.as_array().T)))
    if isinstance(T, Transpose):
        return T.inner
    if isinstance(T, (Tc0, Tl1)):
        return Transpose(T)
    raise TypeError("unknown operator %r" % (T,))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

# operator classes read from {"op": "catalog", "name": ...}
_CATALOG = {"simple_s": SimpleS, "simple_r": SimpleR, "tc0": Tc0, "tl1": Tl1}


def catalog_build(name: str, **params) -> OperatorSpec:
    name = name.lower()
    cls = _CATALOG.get(name)
    if cls in (SimpleS, SimpleR):
        return cls(float(params["p"]), float(params["q"]))
    if cls is not None:
        return cls()
    if name == "sex":
        # Su = u + u_2 e_1 on renormed l_2
        return Sum((Identity(), RankOne(Coeffs.basis(2), Coeffs.basis(1))))
    if name == "diag_d":
        return Diagonal("one_minus_2pow")
    raise ValueError("unknown catalog entry %r" % (name,))


# ---------------------------------------------------------------------------
# the --operator JSON descriptor
# ---------------------------------------------------------------------------

def operator_from_json_obj(obj) -> OperatorSpec:
    tag = obj["op"]
    if tag == "identity":
        return Identity()
    if tag == "scalar":
        return ScalarMul(complex(obj["re"], obj.get("im", 0.0)))
    if tag == "diagonal":
        if obj["rule"] == "explicit":
            vals = [complex(re, im) for re, im in obj["values"]]
            return Diagonal("explicit", tuple(vals))
        return Diagonal(obj["rule"])
    if tag == "rank_one":
        return RankOne(Coeffs.from_json_obj(obj["functional"]),
                       Coeffs.from_json_obj(obj["vector"]))
    if tag == "sum":
        return Sum(tuple(operator_from_json_obj(t) for t in obj["terms"]))
    if tag == "compose":
        return Compose(tuple(operator_from_json_obj(t) for t in obj["factors"]))
    if tag == "matrix":
        rows = tuple(tuple(complex(re, im) for re, im in row)
                     for row in obj["rows"])
        return Matrix(rows)
    if tag == "transpose":
        return Transpose(operator_from_json_obj(obj["inner"]))
    if tag == "catalog":
        params = {}
        for key in ("p", "q"):
            if key in obj:
                params[key] = math.inf if obj[key] == "inf" else float(obj[key])
        return catalog_build(obj["name"], **params)
    raise ValueError("unknown operator tag %r" % (tag,))

