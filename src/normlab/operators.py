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

from .coeffs import Coeffs


class UnboundedImageError(Exception):
    """The exact image has infinite support; use truncate_matrix instead."""


# ---------------------------------------------------------------------------
# diagonal rules (closed-form, bounded)
# ---------------------------------------------------------------------------

_DIAG_RULES = {
    # DiagD: entries 1 - 2^{-n}, n >= 1, written on 0-based indices
    "one_minus_2pow": (lambda n: 1.0 - 2.0 ** (-(n + 1)), 1.0),
    # shrink factors n/(n+1) (identity on indices 0, 1 is NOT implied;
    # the rule is the bare factor, 0 at n = 0)
    "shift_ratio": (lambda n: n / (n + 1.0), 1.0),
    # expand factors (n+1)/n for n >= 1; index 0 maps to 0
    "inv_shift_ratio": (lambda n: (n + 1.0) / n if n >= 1 else 0.0, 2.0),
    # escaping-minimizer example: entries 1 + 1/(n+1)
    "one_plus_inv": (lambda n: 1.0 + 1.0 / (n + 1.0), 1.5),
}


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class ScalarMul:
    lam: complex


@dataclass(frozen=True)
class Diagonal:
    rule: str
    values: tuple = ()        # for rule == "explicit"
    sup_bound: float | None = None

    def __post_init__(self):
        if self.rule == "explicit":
            vals = tuple(complex(v) for v in self.values)
            object.__setattr__(self, "values", vals)
            bound = self.sup_bound
            if bound is None:
                bound = max((abs(v) for v in vals), default=0.0)
            object.__setattr__(self, "sup_bound", float(bound))
        elif self.rule in _DIAG_RULES:
            object.__setattr__(self, "sup_bound", _DIAG_RULES[self.rule][1])
        else:
            raise ValueError("unknown diagonal rule %r" % (self.rule,))

    def entry(self, n: int) -> complex:
        if self.rule == "explicit":
            return self.values[n] if n < len(self.values) else 0.0
        return _DIAG_RULES[self.rule][0](n)


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
        object.__setattr__(self, "rows", rows)

    def as_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=complex)


@dataclass(frozen=True)
class SimpleS:
    """Swap coordinates 0,1 then shrink: (x_1, x_0, 2x_2/3, 3x_3/4, ...)."""

    p: float
    q: float

    def __post_init__(self):
        if not (self.p > 1 and self.p < math.inf):
            raise ValueError("SimpleS needs 1 < p < inf")
        if not (self.q >= 1):
            raise ValueError("SimpleS needs 1 <= q <= inf")


@dataclass(frozen=True)
class SimpleR:
    """Inverse of SimpleS: swap then expand (x_1, x_0, 3x_2/2, 4x_3/3, ...)."""

    p: float
    q: float


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
    """Finite section M[i, j] = <apply(T, e_j), e_i> for 0 <= i, j < N."""
    if N < 1:
        raise ValueError("N must be positive")
    if isinstance(T, Transpose):
        return truncate_matrix(T.inner, N).T
    if isinstance(T, Matrix):
        m = T.as_array()
        out = np.zeros((N, N), dtype=complex)
        k = min(N, m.shape[0]), min(N, m.shape[1])
        out[: k[0], : k[1]] = m[: k[0], : k[1]]
        return out
    out = np.zeros((N, N), dtype=complex)
    for j in range(N):
        img = apply(T, Coeffs.basis(j))
        for i, v in img.entries.items():
            if i < N:
                out[i, j] = v
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

# operator classes serialized as {"op": "catalog", "name": ...}
_CATALOG = {"simple_s": SimpleS, "simple_r": SimpleR, "tc0": Tc0, "tl1": Tl1}
_CATALOG_NAMES = {cls: name for name, cls in _CATALOG.items()}


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
# serialization
# ---------------------------------------------------------------------------

def operator_to_json_obj(T: OperatorSpec):
    if isinstance(T, Identity):
        return {"op": "identity"}
    if isinstance(T, ScalarMul):
        lam = complex(T.lam)
        return {"op": "scalar", "re": lam.real, "im": lam.imag}
    if isinstance(T, Diagonal):
        obj = {"op": "diagonal", "rule": T.rule}
        if T.rule == "explicit":
            obj["values"] = [[v.real, v.imag] for v in T.values]
            obj["sup_bound"] = T.sup_bound
        return obj
    if isinstance(T, RankOne):
        return {"op": "rank_one", "functional": T.functional.to_json_obj(),
                "vector": T.vector.to_json_obj()}
    if isinstance(T, Sum):
        return {"op": "sum", "terms": [operator_to_json_obj(t) for t in T.terms]}
    if isinstance(T, Compose):
        return {"op": "compose",
                "factors": [operator_to_json_obj(t) for t in T.factors]}
    if isinstance(T, Matrix):
        return {"op": "matrix",
                "rows": [[[v.real, v.imag] for v in row] for row in T.rows]}
    if type(T) in _CATALOG_NAMES:
        obj = {"op": "catalog", "name": _CATALOG_NAMES[type(T)]}
        if isinstance(T, (SimpleS, SimpleR)):
            obj.update(p=T.p, q="inf" if T.q == math.inf else T.q)
        return obj
    if isinstance(T, Transpose):
        return {"op": "transpose", "inner": operator_to_json_obj(T.inner)}
    raise TypeError("unknown operator %r" % (T,))


def operator_from_json_obj(obj) -> OperatorSpec:
    tag = obj["op"]
    if tag == "identity":
        return Identity()
    if tag == "scalar":
        return ScalarMul(complex(obj["re"], obj.get("im", 0.0)))
    if tag == "diagonal":
        if obj["rule"] == "explicit":
            vals = [complex(re, im) for re, im in obj["values"]]
            return Diagonal("explicit", tuple(vals), obj.get("sup_bound"))
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


def matrix_to_csv(T: OperatorSpec, N: int) -> str:
    """Column-major CSV export of the finite section (re and im columns)."""
    m = truncate_matrix(T, N)
    lines = ["col,row,re,im"]
    for j in range(N):
        for i in range(N):
            lines.append("%d,%d,%.17g,%.17g" % (j, i, m[i, j].real, m[i, j].imag))
    return "\n".join(lines) + "\n"
