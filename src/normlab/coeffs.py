"""Finitely supported coefficient vectors over the complex scalars.

Every sequence space in the package acts on these; indices start at 0.
Entries whose modulus falls below PRUNE_TOL are dropped on construction so
the support stays finite and exact.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field

import numpy as np

PRUNE_TOL = 1e-300


def require_finite(values, what: str) -> None:
    """Reject input data holding NaN or infinite entries."""
    if not all(cmath.isfinite(v) for v in values):
        raise ValueError("%s must be finite" % what)


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

    def is_real(self) -> bool:
        return all(v.imag == 0 for v in self.entries.values())

    def require_real(self) -> "Coeffs":
        """Real-restricted mode: reject entries with an imaginary part."""
        if not self.is_real():
            raise ValueError("complex entries rejected in real mode")
        return self

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
        pairs = [(int(i), complex(re, im)) for i, re, im in obj]
        require_finite((v for _, v in pairs), "coefficients")
        return Coeffs(dict(pairs))

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @staticmethod
    def from_json(text: str) -> "Coeffs":
        return Coeffs.from_json_obj(json.loads(text))
