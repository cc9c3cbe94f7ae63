"""Linear cellular automata on finite d-dimensional grids with null boundary.

A rule is a Z_p-linear local update: each cell becomes c times itself plus
band coefficients times its axis-aligned neighbors at offsets 1..eta, with
out-of-range neighbors contributing zero.  The global map equals a matrix
acting on the flattened pattern, where the flattening runs through axis 1
fastest (Fortran order on the cell array).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .errors import InputError, ShapeMismatch, SizeCapExceeded
from .field import PrimeField
from .structmat import MATRIX_SIZE_CAP, FMatrix, kron_sum, toeplitz


@lru_cache(maxsize=None)
def _field(p: int) -> PrimeField:
    return PrimeField(p)


@dataclass(frozen=True)
class RuleSpec:
    """Specification of a linear CA rule."""

    p: int
    dims: tuple
    c: int
    axes: tuple  # per axis: (ell coefficients, r coefficients), each length eta
    eta: int

    def __post_init__(self):
        _field(self.p)  # validates primality
        dims = tuple(int(m) for m in self.dims)
        if not dims:
            raise InputError("need at least one dimension")
        if any(m < 2 for m in dims):
            raise InputError("every dimension must be >= 2")
        if self.eta < 1:
            raise InputError("neighborhood radius must be >= 1")
        if not 0 <= int(self.c) < self.p:
            raise InputError(f"center coefficient {self.c} not in [0, {self.p})")
        if len(self.axes) != len(dims):
            raise InputError("need one coefficient band pair per axis")
        axes = []
        for ell, r in self.axes:
            ell = tuple(int(v) for v in ell)
            r = tuple(int(v) for v in r)
            if len(ell) != self.eta or len(r) != self.eta:
                raise InputError(f"each axis needs exactly {self.eta} coefficients per side")
            for v in ell + r:
                if not 0 <= v < self.p:
                    raise InputError(f"coefficient {v} not in [0, {self.p})")
            axes.append((ell, r))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "c", int(self.c))
        object.__setattr__(self, "eta", int(self.eta))
        object.__setattr__(self, "axes", tuple(axes))

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return math.prod(self.dims)

    @property
    def field(self) -> PrimeField:
        return _field(self.p)

    def band_arrays(self):
        """(lo, hi) int64 arrays of shape (d, eta) for the kernels."""
        lo = np.array([ell for ell, _ in self.axes], dtype=np.int64)
        hi = np.array([r for _, r in self.axes], dtype=np.int64)
        return lo, hi

    def effective_bands(self, axis: int):
        """Axis bands with trailing all-zero offsets stripped and offsets
        beyond the axis size dropped (they never touch an in-range cell)."""
        ell, r = self.axes[axis]
        cap = min(self.eta, self.dims[axis] - 1)
        ell, r = list(ell[:cap]), list(r[:cap])
        while len(ell) > 1 and ell[-1] == 0 and r[-1] == 0:
            ell.pop()
            r.pop()
        return tuple(ell), tuple(r)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "dims": list(self.dims),
            "c": self.c,
            "eta": self.eta,
            "axes": [{"ell": list(ell), "r": list(r)} for ell, r in self.axes],
        }

    @classmethod
    def from_json(cls, obj) -> "RuleSpec":
        if not isinstance(obj, dict):
            raise InputError("rule must be a JSON object")
        required = {"p", "dims", "c", "eta", "axes"}
        unknown = set(obj) - required
        if unknown:
            raise InputError(f"unknown rule keys: {sorted(unknown)}")
        missing = required - set(obj)
        if missing:
            raise InputError(f"missing rule keys: {sorted(missing)}")
        axes = []
        for i, ax in enumerate(_json_list(obj["axes"], "'axes'")):
            if not isinstance(ax, dict) or set(ax) != {"ell", "r"}:
                raise InputError(f"axis {i} must be an object with keys 'ell' and 'r'")
            axes.append(tuple(_json_ints(ax[side], f"axis {i} {side!r}") for side in ("ell", "r")))
        return cls(
            p=_json_int(obj["p"], "'p'"),
            dims=_json_ints(obj["dims"], "'dims'"),
            c=_json_int(obj["c"], "'c'"),
            axes=tuple(axes),
            eta=_json_int(obj["eta"], "'eta'"),
        )


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"rule {what} must be a JSON array, got {value!r}")
    return value


def _json_int(value, what: str) -> int:
    """A JSON integer: not a bool, float, string or null."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"rule {what} must be a JSON integer, got {value!r}")
    return value


def _json_ints(value, what: str) -> tuple:
    return tuple(_json_int(v, f"{what} entry") for v in _json_list(value, what))


class Pattern:
    """Immutable d-dimensional array of states in [0, p)."""

    __slots__ = ("p", "cells")

    def __init__(self, p: int, cells):
        cells = np.ascontiguousarray(cells, dtype=np.int64)
        if cells.ndim < 1:
            raise ShapeMismatch("pattern must have at least one axis")
        if cells.size and (cells.min() < 0 or cells.max() >= p):
            raise InputError(f"pattern values must lie in [0, {p})")
        cells.setflags(write=False)
        self.p = int(p)
        self.cells = cells

    @property
    def dims(self) -> tuple:
        return self.cells.shape

    def __eq__(self, other):
        return (
            isinstance(other, Pattern)
            and other.p == self.p
            and np.array_equal(other.cells, self.cells)
        )

    def __repr__(self):
        return f"Pattern(p={self.p}, dims={self.dims})"


def theta(pattern: Pattern) -> np.ndarray:
    """Flatten with axis 1 fastest-varying."""
    return pattern.cells.flatten(order="F")


def theta_inv(vec, dims, p: int) -> Pattern:
    vec = np.asarray(vec, dtype=np.int64)
    if vec.size != math.prod(dims):
        raise ShapeMismatch(f"vector length {vec.size} != prod{tuple(dims)}")
    return Pattern(p, vec.reshape(dims, order="F"))


def evolve_local(rule: RuleSpec, pattern: Pattern) -> Pattern:
    """One synchronous application of the local rule."""
    if pattern.dims != rule.dims or pattern.p != rule.p:
        raise ShapeMismatch("pattern does not match the rule's grid")
    lo, hi = rule.band_arrays()
    return Pattern(rule.p, kernels.evolve_step(pattern.cells, rule.c, lo, hi, rule.p))


def axis_matrix(rule: RuleSpec, axis: int) -> FMatrix:
    """The banded Toeplitz block for one axis (center term excluded)."""
    ell, r = rule.effective_bands(axis)
    return toeplitz(rule.field, rule.dims[axis], ell, r)


def build_T(rule: RuleSpec) -> FMatrix:
    """Dense transition matrix via the nested Kronecker-sum recursion."""
    if rule.size > MATRIX_SIZE_CAP:
        raise SizeCapExceeded(
            f"transition matrix of size {rule.size} exceeds the cap {MATRIX_SIZE_CAP}"
        )
    field = rule.field
    t = axis_matrix(rule, 0)
    if rule.c:
        t = t + FMatrix.identity(field, rule.dims[0]).scale(rule.c)
    for axis in range(1, rule.d):
        t = kron_sum(t, axis_matrix(rule, axis))
    return t


def apply_matrix(m: FMatrix, pattern: Pattern) -> Pattern:
    """Apply a flattened-space matrix to a pattern."""
    v = theta(pattern)
    if m.cols != v.size:
        raise ShapeMismatch("matrix size does not match the pattern")
    w = kernels.matmul_mod(m.int_matrix(), v[:, None], m.field.p)[:, 0]
    return theta_inv(w, pattern.dims, pattern.p)


def evolve_matrix(rule: RuleSpec, pattern: Pattern, steps: int) -> Pattern:
    """Evolve by repeated matrix application in the flattened space (the
    dense reference for the stencil steps of evolve_local)."""
    if steps < 0:
        raise InputError("steps must be >= 0")
    if pattern.dims != rule.dims or pattern.p != rule.p:
        raise ShapeMismatch("pattern does not match the rule's grid")
    if steps == 0:
        return pattern
    mat = build_T(rule).int_matrix()
    v = theta(pattern)[:, None]
    for _ in range(steps):
        v = kernels.matmul_mod(mat, v, rule.p)
    return theta_inv(v[:, 0], pattern.dims, pattern.p)
