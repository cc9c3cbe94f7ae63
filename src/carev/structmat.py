"""Dense matrices over prime/extension fields plus the structured
constructors used throughout: banded Toeplitz blocks, Kronecker products and
Kronecker sums, and fast multiplication by Kronecker-factored matrices.

Storage is a numpy int64 array of shape (rows, cols, k) holding the
polynomial-basis coordinates of each entry (k = 1 for prime fields).  For
very large p the dtype falls back to Python objects to avoid overflow.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .errors import BandTooWide, FieldMismatch, InputError, ShapeMismatch
from .field import ExtField, PrimeField

# int64 plane products stay exact while n * p^2 < 2^63 at desk sizes.
_OBJ_THRESHOLD = 1 << 25

MATRIX_SIZE_CAP = 4096


def _dtype_for(field):
    return object if field.char >= _OBJ_THRESHOLD else np.int64


def _mm_raw(a, b):
    """Plain integer matrix product (no reduction); object-safe."""
    if a.dtype == object or b.dtype == object:
        return np.dot(a, b)
    return a @ b


def _reduce_planes(arr, field):
    """Collapse (..., 2k-1) convolution planes to (..., k) modulo the field."""
    p = field.char
    k = getattr(field, "k", 1)
    if k == 1:
        return arr[..., :1] % p
    low = arr[..., :k]
    high = arr[..., k:]
    red = field._red_np
    if arr.dtype == object:
        red = red.astype(object)
    return (low + high @ red) % p


def _one_reduction(dtype, k: int, m: int, p: int) -> bool:
    """Whether the 2k-1 convolution planes of a product with inner dimension
    m may be reduced once, after all k plane products: each plane sums at
    most k * m products of entries below p, which int64 holds exactly while
    k * m * (p - 1)^2 < 2^63.  Object arrays keep one reduction per plane."""
    return dtype != object and k * m * (p - 1) ** 2 < 1 << 63


def coord_mul(field, a, b):
    """Elementwise field product of coordinate arrays whose last axis holds
    the k coordinates; the leading axes broadcast.

    The 2k-1 convolution planes are built planes-first, so each plane is one
    contiguous block, and each sums at most k products below p^2.  The k-1
    high planes are reduced and folded into the k low ones through the rows
    of ``field._red_np``, which adds at most (k-1)(p-1)^2, and the k output
    planes are reduced once.  int64 storage means p < 2^25 and k <= 64, so
    2k(p-1)^2 < 2^57 holds every sum; object arrays hold Python ints.  The
    result is a (..., k) view of planes-first memory."""
    p = field.char
    k = getattr(field, "k", 1)
    if k == 1:
        return a * b % p
    nd = max(a.ndim, b.ndim)
    axes = (nd - 1,) + tuple(range(nd - 1))
    at = a.reshape((1,) * (nd - a.ndim) + a.shape).transpose(axes)
    bt = b.reshape((1,) * (nd - b.ndim) + b.shape).transpose(axes)
    first = at[0] * bt
    conv = np.empty((2 * k - 1,) + first.shape[1:], dtype=first.dtype)
    conv[:k] = first
    conv[k:] = 0
    for i in range(1, k):
        conv[i : i + k] += at[i] * bt
    flat = conv.reshape(2 * k - 1, -1)
    low, high = flat[:k], flat[k:]
    high %= p
    red = field._red_np if conv.dtype != object else field._red_np.astype(object)
    low += red.T @ high
    low %= p
    return conv[:k].transpose(tuple(range(1, nd)) + (0,))


def coord_inv(field, a):
    """Elementwise inverse of nonzero coordinate arrays, as a^(q-2)."""
    result = np.zeros_like(a)
    result[..., 0] = 1
    for bit in bin(field.order - 2)[2:]:  # square and multiply, high bit first
        result = coord_mul(field, result, result)
        if bit == "1":
            result = coord_mul(field, result, a)
    return result


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
        field = self.field
        p = field.char
        k = getattr(field, "k", 1)
        if k == 1 and self.data.dtype != object:
            out = kernels.matmul_mod(self.data[:, :, 0], other.data[:, :, 0], p)
            return FMatrix(field, out[:, :, None])
        bflat = other.data.reshape(other.rows, other.cols * k)
        out = np.zeros((self.rows, other.cols, 2 * k - 1), dtype=self.data.dtype)
        once = _one_reduction(out.dtype, k, self.cols, p)
        for a in range(k):
            prod = _mm_raw(np.ascontiguousarray(self.data[:, :, a]), bflat)
            out[:, :, a : a + k] += prod.reshape(self.rows, other.cols, k)
            if not once or a == k - 1:
                out %= p
        return FMatrix(field, _reduce_planes(out, field))

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
    p = field.char
    shape = (a.rows * b.rows, a.cols * b.cols, 2 * k - 1)
    out = np.zeros(shape, dtype=a.data.dtype)
    for i in range(k):
        plane_a = a.data[:, :, i]
        if not plane_a.any():
            continue
        for j in range(k):
            plane_b = b.data[:, :, j]
            if not plane_b.any():
                continue
            out[:, :, i + j] += np.kron(plane_a, plane_b)
    out %= p  # each plane sums <= k products below p^2: < 2^56 in int64
    return FMatrix(field, _reduce_planes(out, field))


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


def _apply_axis(a_data, x, axis, field):
    """Contract square factor a along one tensor axis of x (last dim = planes)."""
    p = field.char
    k = getattr(field, "k", 1)
    xm = np.moveaxis(x, axis, 0)
    shape = xm.shape
    m = shape[0]
    xf = np.ascontiguousarray(xm).reshape(m, -1)
    out = np.zeros((m, xf.shape[1] // k, 2 * k - 1), dtype=x.dtype)
    once = _one_reduction(out.dtype, k, m, p)
    for a in range(k):
        prod = _mm_raw(np.ascontiguousarray(a_data[:, :, a]), xf)
        out[:, :, a : a + k] += prod.reshape(m, -1, k)
        if not once or a == k - 1:
            out %= p
    red = _reduce_planes(out, field).reshape(shape)
    return np.moveaxis(red, 0, axis)


def kron_dot(factors, m: FMatrix) -> FMatrix:
    """(factors[0] ⊗ ... ⊗ factors[-1]) @ m without materializing the product."""
    field = m.field
    for f in factors:
        if f.field != field:
            raise FieldMismatch("factor field mismatch")
        if not f.is_square:
            raise ShapeMismatch("factors must be square")
    sizes = [f.rows for f in factors]
    if math.prod(sizes) != m.rows:
        raise ShapeMismatch("factor sizes do not multiply to the row count")
    k = getattr(field, "k", 1)
    x = m.data.reshape(tuple(sizes) + (m.cols, k))
    for idx, f in enumerate(factors):
        x = _apply_axis(f.data, x, idx, field)
    return FMatrix(field, x.reshape(m.rows, m.cols, k))


def dot_kron(m: FMatrix, factors) -> FMatrix:
    """m @ (factors[0] ⊗ ... ⊗ factors[-1])."""
    return kron_dot([f.transpose() for f in factors], m.transpose()).transpose()
