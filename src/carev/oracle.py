"""Brute-force reference linear algebra: Gauss-Jordan determinant, inverse
and nullspace over any supported field, plus an exact characteristic
polynomial.  Deliberately simple and cubic — this module is the ground truth
the structured algorithms are tested against, and the "naive" side of the
benchmark.
"""

from __future__ import annotations

from . import kernels
from .errors import ShapeMismatch, Singular, SizeCapExceeded
from .field import Poly, PrimeField
from .structmat import FMatrix

CHAR_POLY_CAP = 64


def _lists(m: FMatrix):
    return m.tolists()


def det(m: FMatrix):
    """Determinant by elimination with first-nonzero pivoting."""
    if not m.is_square:
        raise ShapeMismatch("determinant of a non-square matrix")
    field = m.field
    if isinstance(field, PrimeField) and m.data.dtype != object:
        return int(kernels.det_mod(m.int_matrix(), field.p))
    a = _lists(m)
    n = m.rows
    d = field.one
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != field.zero), None)
        if piv is None:
            return field.zero
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            d = field.neg(d)
        d = field.mul(d, a[col][col])
        inv = field.inv(a[col][col])
        for r in range(col + 1, n):
            f = field.mul(a[r][col], inv)
            if f != field.zero:
                a[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[r], a[col])]
    return d


def inverse(m: FMatrix) -> FMatrix:
    """Gauss-Jordan inverse; raises Singular when det = 0."""
    if not m.is_square:
        raise ShapeMismatch("inverse of a non-square matrix")
    field = m.field
    if isinstance(field, PrimeField) and m.data.dtype != object:
        out = kernels.inv_mod(m.int_matrix(), field.p)
        if out is None:
            raise Singular("matrix is singular")
        return FMatrix.from_int_array(field, out)
    n = m.rows
    a = _lists(m)
    aug = [row + [field.one if i == j else field.zero for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != field.zero), None)
        if piv is None:
            raise Singular("matrix is singular")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        inv = field.inv(aug[col][col])
        aug[col] = [field.mul(inv, x) for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != field.zero:
                f = aug[r][col]
                aug[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(aug[r], aug[col])]
    return FMatrix.from_rows(field, [row[n:] for row in aug])


def rref(rows, field):
    """Reduced row echelon form of a list-of-lists; returns (rows, pivot cols)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][col] != field.zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][col])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] != field.zero:
                f = rows[i][col]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def nullspace(m: FMatrix):
    """Basis of the right nullspace, as tuples of field elements."""
    field = m.field
    rows, pivots = rref(_lists(m), field)
    basis = []
    pivot_set = set(pivots)
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [field.zero] * m.cols
        v[free] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(rows[r][free])
        basis.append(tuple(v))
    return basis


class SpanTracker:
    """Incrementally maintained row space with exact membership tests."""

    def __init__(self, field, n: int):
        self.field = field
        self.n = n
        self.rows = {}  # pivot column -> normalized vector

    def _reduce(self, v):
        field = self.field
        v = list(v)
        for piv, row in sorted(self.rows.items()):
            if v[piv] != field.zero:
                f = v[piv]
                v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, row)]
        return v

    def contains(self, v) -> bool:
        return all(x == self.field.zero for x in self._reduce(v))

    def add(self, v) -> bool:
        """Insert v; returns True when it enlarged the span."""
        field = self.field
        red = self._reduce(v)
        piv = next((i for i, x in enumerate(red) if x != field.zero), None)
        if piv is None:
            return False
        inv = field.inv(red[piv])
        self.rows[piv] = [field.mul(inv, x) for x in red]
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


def char_poly(m: FMatrix) -> Poly:
    """Monic characteristic polynomial det(xI - m), exact over the field.

    Uses a similarity reduction to Hessenberg form followed by the standard
    leading-minor recurrence — O(n^3) field operations, no fractions.
    """
    if not m.is_square:
        raise ShapeMismatch("characteristic polynomial of a non-square matrix")
    if m.rows > CHAR_POLY_CAP:
        raise SizeCapExceeded(f"size {m.rows} exceeds the cap {CHAR_POLY_CAP}")
    field = m.field
    n = m.rows
    h = _lists(m)
    # Similarity reduction to upper Hessenberg form.
    for col in range(n - 2):
        piv = next((r for r in range(col + 1, n) if h[r][col] != field.zero), None)
        if piv is None:
            continue
        if piv != col + 1:
            h[col + 1], h[piv] = h[piv], h[col + 1]
            for r in range(n):
                h[r][col + 1], h[r][piv] = h[r][piv], h[r][col + 1]
        inv = field.inv(h[col + 1][col])
        for r in range(col + 2, n):
            f = field.mul(h[r][col], inv)
            if f == field.zero:
                continue
            h[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(h[r], h[col + 1])]
            for i in range(n):
                h[i][col + 1] = field.add(h[i][col + 1], field.mul(f, h[i][r]))
    # Leading-minor recurrence on the Hessenberg matrix.
    polys = [Poly.one(field)]
    for k in range(1, n + 1):
        x_minus = Poly(field, (field.neg(h[k - 1][k - 1]), field.one))
        pk = x_minus * polys[k - 1]
        prod = field.one
        for i in range(k - 1, 0, -1):
            prod = field.mul(prod, h[i][i - 1])
            term = field.mul(h[i - 1][k - 1], prod)
            if term != field.zero:
                pk = pk - polys[i - 1].scale(term)
        polys.append(pk)
    return polys[n]
