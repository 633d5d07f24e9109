"""Finitely supported coefficient vectors over the complex scalars.

Every sequence space in the package acts on these; indices start at 0.
Entries whose modulus falls below PRUNE_TOL are dropped on construction so
the support stays finite and exact; JSON input refuses such entries instead.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

PRUNE_TOL = 1e-300
# the largest truncation N of a section, a renormed space or a bypass: a
# complex N x N section takes 16 N^2 bytes, 256 MiB at N = 4096
MAX_TRUNC = 4096


def require_finite(values, what: str) -> None:
    """Reject input data holding NaN or infinite entries (an iterable of
    numbers, or an array, checked whole)."""
    if isinstance(values, np.ndarray):
        finite = bool(np.isfinite(values).all())
    else:
        finite = all(cmath.isfinite(v) for v in values)
    if not finite:
        raise ValueError("%s must be finite" % what)


def require_int(value, what: str) -> int:
    """An integer from input data; non-integral values are rejected."""
    n = int(value)
    if n != value:
        raise ValueError("%s must be an integer, got %r" % (what, value))
    return n


def require_trunc(value, what: str) -> int:
    """A truncation from input data: an integer in [1, MAX_TRUNC], checked
    before anything of its size is allocated."""
    n = require_int(value, what)
    if n < 1:
        raise ValueError("%s must be positive" % what)
    if n > MAX_TRUNC:
        raise ValueError("%s = %d exceeds the largest truncation, %d"
                         % (what, n, MAX_TRUNC))
    return n


@dataclass(frozen=True, eq=False)
class Coeffs:
    """Immutable sparse vector: index -> non-zero complex entry.

    Equality and hashing compare entries only; dim_hint is advisory.
    """

    entries: dict = field(default_factory=dict)
    dim_hint: int = 1

    def __eq__(self, other):
        return isinstance(other, Coeffs) and self.entries == other.entries

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def __post_init__(self):
        pruned = {int(i): complex(v) for i, v in self.entries.items()
                  if abs(v) >= PRUNE_TOL}
        for i in pruned:
            if i < 0:
                raise ValueError("negative index %d" % i)
        object.__setattr__(self, "entries", pruned)
        hint = max(self.dim_hint, 1 + max(pruned, default=-1), 1)
        object.__setattr__(self, "dim_hint", int(hint))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim_hint: int = 1) -> "Coeffs":
        return Coeffs({}, dim_hint)

    @staticmethod
    def basis(i: int) -> "Coeffs":
        return Coeffs({i: 1.0})

    @staticmethod
    def from_pairs(pairs) -> "Coeffs":
        acc: dict = {}
        for i, v in pairs:
            acc[i] = acc.get(i, 0.0) + complex(v)
        return Coeffs(acc)

    @staticmethod
    def from_array(arr) -> "Coeffs":
        arr = np.asarray(arr)
        return Coeffs({i: complex(v) for i, v in enumerate(arr) if v != 0},
                      dim_hint=len(arr))

    # -- views -------------------------------------------------------------

    def __getitem__(self, i: int) -> complex:
        return self.entries.get(int(i), 0.0)

    def support(self) -> frozenset:
        return frozenset(self.entries)

    def to_array(self, n: int | None = None) -> np.ndarray:
        n = self.dim_hint if n is None else n
        out = np.zeros(n, dtype=complex)
        for i, v in self.entries.items():
            if i < n:
                out[i] = v
        return out

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Coeffs") -> "Coeffs":
        acc = dict(self.entries)
        for i, v in other.entries.items():
            acc[i] = acc.get(i, 0.0) + v
        return Coeffs(acc, max(self.dim_hint, other.dim_hint))

    def __sub__(self, other: "Coeffs") -> "Coeffs":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "Coeffs":
        s = complex(scalar)
        return Coeffs({i: s * v for i, v in self.entries.items()},
                      self.dim_hint)

    def __neg__(self) -> "Coeffs":
        return (-1.0) * self

    def pair(self, other: "Coeffs") -> complex:
        """Bilinear pairing sum_i x_i y_i (no conjugation)."""
        small, big = self.entries, other.entries
        if len(big) < len(small):
            small, big = big, small
        return sum(v * big[i] for i, v in small.items() if i in big)

    def restrict(self, indices) -> "Coeffs":
        keep = set(indices)
        return Coeffs({i: v for i, v in self.entries.items() if i in keep},
                      self.dim_hint)

    # -- serialization -----------------------------------------------------

    def to_json_obj(self):
        return [[i, v.real, v.imag] for i, v in sorted(self.entries.items())]

    @staticmethod
    def from_json_obj(obj) -> "Coeffs":
        """Coeffs from [[index, re, im], ...]; a nonzero entry of modulus
        below PRUNE_TOL is refused, since construction would drop it."""
        pairs = [(require_int(i, "index"), complex(re, im))
                 for i, re, im in obj]
        require_finite((v for _, v in pairs), "coefficients")
        for i, v in pairs:
            if 0 < abs(v) < PRUNE_TOL:
                raise ValueError("coefficient at index %d is nonzero with "
                                 "modulus below %g" % (i, PRUNE_TOL))
        return Coeffs(dict(pairs))
