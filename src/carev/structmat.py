"""Dense matrices over prime/extension fields plus the structured
constructors used throughout: banded Toeplitz blocks, Kronecker products and
Kronecker sums, and fast multiplication by Kronecker-factored matrices.

An FMatrix stores its entries as a (rows, cols, k) coordinate array of
``carev.field``, whose storage rules (dtype, plane layout, reduction) it
follows.  Every product goes through ``field.coord_mul`` (elementwise) or
``field.coord_contract`` (matrix products, of which ``field.coord_matmul``
is the plain form); this module holds no overflow rule of its own.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BandTooWide, FieldMismatch, InputError, ShapeMismatch
from .field import (
    ExtField,
    PrimeField,
    _dtype_for,
    coord_contract,
    coord_matmul,
    coord_mul,
)

MATRIX_SIZE_CAP = 4096


class FMatrix:
    """Immutable dense matrix over a PrimeField or ExtField."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, data):
        k = getattr(field, "k", 1)
        data = np.asarray(data)
        if data.ndim == 2:
            data = data[:, :, None]
        if data.ndim != 3 or data.shape[2] != k:
            raise ShapeMismatch(f"expected (rows, cols, {k}) coordinates")
        dt = _dtype_for(field)
        data = (data.astype(dt) if data.dtype != dt else data) % field.char
        data.setflags(write=False)
        self.field = field
        self.rows = int(data.shape[0])
        self.cols = int(data.shape[1])
        self.data = data

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        k = getattr(field, "k", 1)
        return cls(field, np.zeros((rows, cols, k), dtype=_dtype_for(field)))

    @classmethod
    def identity(cls, field, n):
        k = getattr(field, "k", 1)
        data = np.zeros((n, n, k), dtype=_dtype_for(field))
        data[np.arange(n), np.arange(n), 0] = 1
        return cls(field, data)

    @classmethod
    def from_rows(cls, field, rows):
        k = getattr(field, "k", 1)
        r = len(rows)
        c = len(rows[0]) if r else 0
        data = np.zeros((r, c, k), dtype=_dtype_for(field))
        for i, row in enumerate(rows):
            if len(row) != c:
                raise ShapeMismatch("ragged rows")
            for j, v in enumerate(row):
                data[i, j, :] = field.coeff_vector(field.elem(v))
        return cls(field, data)

    @classmethod
    def from_int_array(cls, field, arr):
        """Base-coordinate entries from a 2-D integer array."""
        k = getattr(field, "k", 1)
        arr = np.asarray(arr)
        data = np.zeros(arr.shape + (k,), dtype=_dtype_for(field))
        data[:, :, 0] = arr % field.char
        return cls(field, data)

    # -- access -------------------------------------------------------------

    def at(self, i, j):
        if getattr(self.field, "k", 1) == 1:
            return int(self.data[i, j, 0])
        return tuple(int(x) for x in self.data[i, j])

    def tolists(self):
        return [[self.at(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def int_matrix(self):
        """2-D int64 view of a prime-field matrix."""
        if not isinstance(self.field, PrimeField):
            raise FieldMismatch("int_matrix needs a prime-field matrix")
        return np.ascontiguousarray(self.data[:, :, 0], dtype=np.int64)

    @property
    def is_square(self):
        return self.rows == self.cols

    def __eq__(self, other):
        return (
            isinstance(other, FMatrix)
            and other.field == self.field
            and other.rows == self.rows
            and other.cols == self.cols
            and np.array_equal(other.data, self.data)
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.data.tobytes()))

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition shape mismatch")
        return FMatrix(self.field, (self.data + other.data) % self.field.char)

    def __sub__(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("subtraction shape mismatch")
        return FMatrix(self.field, (self.data - other.data) % self.field.char)

    def __neg__(self):
        return FMatrix(self.field, (-self.data) % self.field.char)

    def __matmul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise ShapeMismatch("inner dimensions differ")
        return FMatrix(self.field, coord_matmul(self.field, self.data, other.data))

    def scale(self, elem):
        field = self.field
        vec = np.asarray(field.coeff_vector(field.elem(elem)), dtype=self.data.dtype)
        return FMatrix(field, coord_mul(field, self.data, vec))

    def transpose(self):
        return FMatrix(self.field, np.ascontiguousarray(self.data.transpose(1, 0, 2)))

    def lift(self, E: ExtField):
        """Embed a prime-field matrix into the extension E."""
        if self.field == E:
            return self
        if not isinstance(self.field, PrimeField) or E.base != self.field:
            raise FieldMismatch("lift target must extend the matrix field")
        data = np.zeros((self.rows, self.cols, E.k), dtype=_dtype_for(E))
        data[:, :, 0] = self.data[:, :, 0]
        return FMatrix(E, data)

    def project_base(self):
        """Base-field matrix; fails if any extension coordinate is nonzero."""
        if isinstance(self.field, PrimeField):
            return self
        if self.data[:, :, 1:].any():
            raise FieldMismatch("matrix has entries outside the base field")
        return FMatrix(self.field.base, self.data[:, :, :1].copy())

    def render(self) -> str:
        field = self.field
        if isinstance(field, PrimeField):  # entries render as plain integers
            return "\n".join(" ".join(map(str, row)) for row in self.data[:, :, 0].tolist()) + "\n"
        lines = []
        for i in range(self.rows):
            lines.append(" ".join(field.render(self.at(i, j)) for j in range(self.cols)))
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"FMatrix({self.field!r}, {self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# structured constructors
# ---------------------------------------------------------------------------


def toeplitz(field, size: int, lower, upper) -> FMatrix:
    """Banded Toeplitz matrix with zero diagonal.

    Entry (r, r+q) = upper[q-1] and (r, r-q) = lower[q-1] for band offsets
    q = 1..len(band); elsewhere zero.
    """
    lower = [field.elem(v) for v in lower]
    upper = [field.elem(v) for v in upper]
    if len(lower) != len(upper):
        raise InputError("lower and upper bands must have equal length")
    if not lower:
        raise InputError("bandwidth must be >= 1")
    if len(lower) >= size:
        raise BandTooWide(f"bandwidth {len(lower)} not smaller than size {size}")
    m = FMatrix.zeros(field, size, size)
    data = m.data.copy()
    for q in range(1, len(lower) + 1):
        lo = np.asarray(field.coeff_vector(lower[q - 1]), dtype=data.dtype)
        hi = np.asarray(field.coeff_vector(upper[q - 1]), dtype=data.dtype)
        for r in range(size - q):
            data[r + q, r, :] = lo
            data[r, r + q, :] = hi
    return FMatrix(field, data)


def kron_product(a: FMatrix, b: FMatrix) -> FMatrix:
    if a.field != b.field:
        raise FieldMismatch("Kronecker product needs a common field")
    field = a.field
    k = getattr(field, "k", 1)
    # Entry (i, i', j, j') is a[i, j] * b[i', j']: one broadcast field product.
    out = coord_mul(field, a.data[:, None, :, None], b.data[None, :, None, :])
    return FMatrix(field, out.reshape(a.rows * b.rows, a.cols * b.cols, k))


def kron_sum(a: FMatrix, b: FMatrix) -> FMatrix:
    """I ⊗ a + b ⊗ I, with eigenvalues all pairwise sums."""
    if a.field != b.field:
        raise FieldMismatch("Kronecker sum needs a common field")
    if not (a.is_square and b.is_square):
        raise ShapeMismatch("Kronecker sum needs square matrices")
    field = a.field
    ia = FMatrix.identity(field, a.rows)
    ib = FMatrix.identity(field, b.rows)
    return kron_product(ib, a) + kron_product(b, ia)


def kron_many(factors) -> FMatrix:
    """Materialize factors[0] ⊗ factors[1] ⊗ ... (leftmost outermost)."""
    factors = list(factors)
    if not factors:
        raise InputError("need at least one factor")
    acc = factors[0]
    for f in factors[1:]:
        acc = kron_product(acc, f)
    return acc


# ---------------------------------------------------------------------------
# fast multiplication by a Kronecker-factored matrix
# ---------------------------------------------------------------------------


def kron_dot(factors, m: FMatrix) -> FMatrix:
    """(factors[0] ⊗ ... ⊗ factors[-1]) @ m without materializing the product.

    m is viewed planes-first as (k, rows, cols), and factor t of size n is
    one ``field.coord_contract`` over the block's (k, A, n, B) view.  The
    entry bound it returns is carried to the next factor, so the block is
    reduced mod p only where the contraction needs it, and once at the end
    by the FMatrix constructor."""
    field = m.field
    for f in factors:
        if f.field != field:
            raise FieldMismatch("factor field mismatch")
        if not f.is_square:
            raise ShapeMismatch("factors must be square")
    sizes = [f.rows for f in factors]
    if math.prod(sizes) != m.rows:
        raise ShapeMismatch("factor sizes do not multiply to the row count")
    k = m.data.shape[2]
    x, bound = m.data.transpose(2, 0, 1), field.char - 1
    a, b = 1, m.rows * m.cols
    for n, f in zip(sizes, factors):
        b //= n
        x, bound = coord_contract(field, f.data, x.reshape(k, a, n, b), bound)
        a *= n
    return FMatrix(field, x.reshape(k, m.rows, m.cols).transpose(1, 2, 0))


def dot_kron(m: FMatrix, factors) -> FMatrix:
    """m @ (factors[0] ⊗ ... ⊗ factors[-1])."""
    return kron_dot([f.transpose() for f in factors], m.transpose()).transpose()
