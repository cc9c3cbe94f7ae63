import random

import numpy as np
import pytest

from carev.errors import BandTooWide, FieldMismatch, ShapeMismatch
from carev.field import ExtField, PrimeField, _one_reduction, canonical_modulus, coord_mul
from carev.structmat import (
    FMatrix,
    dot_kron,
    kron_dot,
    kron_many,
    kron_product,
    kron_sum,
    toeplitz,
)


def _rand_matrix(field, rows, cols, rng):
    return FMatrix.from_rows(
        field, [[field.rand_elem(rng) for _ in range(cols)] for _ in range(rows)]
    )


def test_toeplitz_tridiagonal():
    F = PrimeField(5)
    s = toeplitz(F, 4, (2,), (3,))
    rows = s.tolists()
    assert rows == [
        [0, 3, 0, 0],
        [2, 0, 3, 0],
        [0, 2, 0, 3],
        [0, 0, 2, 0],
    ]


def test_toeplitz_wide_band():
    F = PrimeField(7)
    s = toeplitz(F, 5, (1, 2), (3, 4))
    assert s.at(2, 0) == 2 and s.at(0, 2) == 4
    assert s.at(4, 2) == 2 and s.at(2, 4) == 4
    with pytest.raises(BandTooWide):
        toeplitz(F, 3, (1, 1, 1), (1, 1, 1))


def test_matmul_matches_oracle_definition():
    rng = random.Random(2)
    for p in (2, 7, 13):
        F = PrimeField(p)
        a = _rand_matrix(F, 5, 4, rng)
        b = _rand_matrix(F, 4, 6, rng)
        prod = a @ b
        for i in range(5):
            for j in range(6):
                want = F.zero
                for t in range(4):
                    want = F.add(want, F.mul(a.at(i, t), b.at(t, j)))
                assert prod.at(i, j) == want


def test_ext_matmul_matches_scalar_loop():
    # GF(9), and GF(p^2) with p > 2^25: object coordinates, reduced once.
    rng = random.Random(4)
    for p in (3, 33554467):
        E = ExtField(PrimeField(p), 2, canonical_modulus(p, 2))
        a = _rand_matrix(E, 3, 3, rng)
        b = _rand_matrix(E, 3, 3, rng)
        prod = a @ b
        assert prod.data.dtype == (object if p > 1 << 25 else np.int64)
        for i in range(3):
            for j in range(3):
                want = E.zero
                for t in range(3):
                    want = E.add(want, E.mul(a.at(i, t), b.at(t, j)))
                assert prod.at(i, j) == want


def test_kron_product_matches_numpy():
    rng = random.Random(6)
    F = PrimeField(11)
    a = _rand_matrix(F, 2, 3, rng)
    b = _rand_matrix(F, 3, 2, rng)
    got = kron_product(a, b).int_matrix()
    want = np.kron(a.int_matrix(), b.int_matrix()) % 11
    assert np.array_equal(got, want)


def _dense_quadratic_field(p):
    """GF(p^2) modulo x^2 + x + c (irreducible when 1 - 4c is a non-square):
    both reduction coefficients are nonzero, so folding reaches every plane."""
    c = next(c for c in range(1, 100) if pow(1 - 4 * c, (p - 1) // 2, p) == p - 1)
    return ExtField(PrimeField(p), 2, (c, 1, 1))


def test_kron_product_ext_matches_scalar_reference():
    # GF(13^10); GF(p^2) with p just below 2^25 and a dense modulus
    # x^2 + x + c, where folding unreduced planes would overflow int64; and
    # p > 2^25, stored as objects.
    rng = random.Random(7)
    fields = (
        ExtField(PrimeField(13), 10, canonical_modulus(13, 10)),
        _dense_quadratic_field(33554393),
        ExtField(PrimeField(33554467), 2, canonical_modulus(33554467, 2)),
    )
    for E in fields:
        p, k = E.p, E.k
        a = _rand_matrix(E, 4, 3, rng)
        b = FMatrix(E, np.full((3, 4, k), p - 1))
        got = kron_product(a, b)
        for i in range(12):
            for j in range(12):
                want = E.mul(a.at(i // 3, j // 4), b.at(i % 3, j % 4))
                assert got.at(i, j) == want


def _coord_mul_reference(E, a, b):
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    a = np.broadcast_to(a, shape + a.shape[-1:])
    b = np.broadcast_to(b, shape + b.shape[-1:])
    return {
        idx: E.mul(tuple(int(v) for v in a[idx]), tuple(int(v) for v in b[idx]))
        for idx in np.ndindex(shape)
    }


def _assert_coord_mul(E, a, b):
    got = coord_mul(E, a, b)
    want = _coord_mul_reference(E, a, b)
    assert got.shape == np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (E.k,)
    assert got.dtype == np.result_type(a, b)
    assert {idx: tuple(int(v) for v in got[idx]) for idx in want} == want


def test_coord_mul_matches_scalar_mul():
    rng = np.random.default_rng(5)
    shapes = (((3, 1), (4,)), ((2, 3), ()), ((5, 1), (1, 4)), ((), (2, 2, 2)))
    for p, k in ((7, 2), (5, 3), (13, 10)):
        E = ExtField(PrimeField(p), k, canonical_modulus(p, k))
        for sa, sb in shapes:
            a = rng.integers(0, p, sa + (k,))
            b = rng.integers(0, p, sb + (k,))
            _assert_coord_mul(E, a, b)
        top = np.full((3, k), p - 1)  # the largest plane sums
        _assert_coord_mul(E, top, top)
    # The largest int64 coordinates: p just below 2^25, dense modulus.
    E = _dense_quadratic_field(33554393)
    top = np.full((3, 2), E.p - 1)
    _assert_coord_mul(E, top, top)
    _assert_coord_mul(E, rng.integers(0, E.p, (4, 1, 2)), top[:1])
    # p > 2^25: object coordinates, as FMatrix stores them.
    p = 33554467
    E = ExtField(PrimeField(p), 3, canonical_modulus(p, 3))
    a = np.array([[p - 1] * 3, [1, 2, 3], [p - 2, 0, p - 5]], dtype=object)
    _assert_coord_mul(E, a, a[::-1])


def test_kron_sum_definition():
    rng = random.Random(8)
    F = PrimeField(7)
    a = _rand_matrix(F, 3, 3, rng)
    b = _rand_matrix(F, 2, 2, rng)
    ia = FMatrix.identity(F, 3)
    ib = FMatrix.identity(F, 2)
    assert kron_sum(a, b) == kron_product(ib, a) + kron_product(b, ia)


def test_kron_dot_avoids_materialization():
    rng = random.Random(10)
    F = PrimeField(5)
    factors = [_rand_matrix(F, m, m, rng) for m in (2, 3, 2)]
    m = _rand_matrix(F, 12, 12, rng)
    u = kron_many(factors)
    assert kron_dot(factors, m) == u @ m
    assert dot_kron(m, factors) == m @ u


def _kron_reference(E, factors, m):
    """Entries of (factors[0] x ... x factors[-1]) @ m by scalar field ops."""
    n = m.rows
    rows = []
    for i in range(n):
        row = []
        for c in range(m.cols):
            acc = E.zero
            for t in range(n):
                coef, ii, tt = E.one, i, t
                for f in reversed(factors):  # the last factor is the fastest index
                    coef = E.mul(coef, f.at(ii % f.rows, tt % f.rows))
                    ii, tt = ii // f.rows, tt // f.rows
                acc = E.add(acc, E.mul(coef, m.at(t, c)))
            row.append(acc)
        rows.append(row)
    return rows


def test_kron_dot_ext_matches_scalar_reference():
    # Small p in int64, and p > 2^25 in object coordinates: either way the k
    # planes are reduced once, after the last plane product.
    rng = random.Random(12)
    for p, k in ((7, 3), (33554467, 2)):
        E = ExtField(PrimeField(p), k, canonical_modulus(p, k))
        factors = [_rand_matrix(E, m, m, rng) for m in (3, 4)]
        m = _rand_matrix(E, 12, 2, rng)
        assert _one_reduction(m.data.dtype, k, 4, p)
        assert kron_dot(factors, m).tolists() == _kron_reference(E, factors, m)


def test_plane_sums_past_the_int64_bound_stay_exact():
    # p < 2^25 keeps int64 storage, but with every coordinate p - 1 the middle
    # convolution plane sums k * m * (p - 1)^2 >= 2^63: one reduction per
    # plane is needed.  x^k - 3 is irreducible (3 is a non-square, p = 1 mod 4).
    p = 33554393
    for k, m in ((64, 130), (2, 4097)):
        assert not _one_reduction(np.int64, k, m, p)
        E = ExtField(PrimeField(p), k, (p - 3,) + (0,) * (k - 1) + (1,))
        top = (p - 1,) * k
        want = E.elem([m * c for c in E.mul(top, top)])
        if k == 64:  # kron_dot with one m x m factor on one column
            got = kron_dot([FMatrix(E, np.full((m, m, k), p - 1))],
                           FMatrix(E, np.full((m, 1, k), p - 1)))
        else:  # a 1 x m by m x 1 product
            got = FMatrix(E, np.full((1, m, k), p - 1)) @ FMatrix(E, np.full((m, 1, k), p - 1))
        assert got.data.dtype == np.int64
        assert {got.at(i, 0) for i in range(got.rows)} == {want}


def test_render_prime_matches_entry_render():
    rng = random.Random(14)
    for p in (7, 33554467):  # int64 and object storage
        F = PrimeField(p)
        m = _rand_matrix(F, 4, 5, rng)
        want = "".join(
            " ".join(F.render(m.at(i, j)) for j in range(m.cols)) + "\n" for i in range(m.rows)
        )
        assert m.render() == want


def test_field_mismatch_rejected():
    a = FMatrix.identity(PrimeField(5), 2)
    b = FMatrix.identity(PrimeField(7), 2)
    with pytest.raises(FieldMismatch):
        a @ b
    with pytest.raises(ShapeMismatch):
        a @ FMatrix.identity(PrimeField(5), 3)


def test_project_base_round_trip():
    E = ExtField(PrimeField(5), 2, canonical_modulus(5, 2))
    m = FMatrix.from_rows(PrimeField(5), [[1, 2], [3, 4]])
    lifted = m.lift(E)
    assert lifted.project_base() == m
