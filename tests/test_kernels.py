import random

import numpy as np
import sympy

from carev import kernels
from carev.ca import Pattern, RuleSpec, apply_matrix, build_T


def _random_matrix(rng, n, p):
    return np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)


def test_backend_selection_values():
    assert kernels.backend() == "numpy"


def test_matmul_matches_python_int_product():
    # p near 2^31 makes the contraction chunk 1, the int64 overflow edge.
    rng = random.Random(11)
    for p in (2, 7, 13, 2_147_483_629):
        a = _random_matrix(rng, 8, p)
        b = _random_matrix(rng, 8, p)
        want = (a.astype(object) @ b.astype(object)) % p
        got = kernels.matmul_mod(a, b, p)
        assert got.dtype == np.int64
        assert np.array_equal(got, want.astype(np.int64))


def test_det_matches_sympy():
    rng = random.Random(13)
    for p in (2, 5, 13):
        for _ in range(20):
            a = _random_matrix(rng, 6, p)
            assert kernels.det_mod(a, p) == int(sympy.Matrix(a.tolist()).det()) % p


def test_det_singular():
    p = 7
    a = np.array([[1, 2], [2, 4]], dtype=np.int64)
    assert kernels.det_mod(a, p) == 0


def test_inv_round_trip():
    rng = random.Random(17)
    for p in (3, 11):
        for _ in range(20):
            a = _random_matrix(rng, 5, p)
            inv = kernels.inv_mod(a, p)
            if inv is None:
                assert kernels.det_mod(a, p) == 0
                continue
            prod = kernels.matmul_mod(a, inv, p)
            assert np.array_equal(prod, np.eye(5, dtype=np.int64))


def test_evolve_step_matches_transition_matrix():
    rng = random.Random(19)
    for _ in range(30):
        p = rng.choice([2, 3, 5, 7])
        d = rng.randint(1, 3)
        dims = tuple(rng.randint(2, 5) for _ in range(d))
        eta = rng.choice([1, 2])
        x = np.array(
            [rng.randrange(p) for _ in range(int(np.prod(dims)))], dtype=np.int64
        ).reshape(dims)
        c = rng.randrange(p)
        lo = np.array(
            [[rng.randrange(p) for _ in range(eta)] for _ in range(d)], dtype=np.int64
        )
        hi = np.array(
            [[rng.randrange(p) for _ in range(eta)] for _ in range(d)], dtype=np.int64
        )
        rule = RuleSpec(p=p, dims=dims, c=c, axes=tuple(zip(lo, hi)), eta=eta)
        want = apply_matrix(build_T(rule), Pattern(p, x)).cells
        assert np.array_equal(kernels.evolve_step(x, c, lo, hi, p), want)


def test_evolve_step_null_boundary():
    # A pure right-shift along the only axis: value moves toward index 0,
    # and the last cell receives nothing (null boundary).
    p = 5
    x = np.array([0, 0, 0, 2], dtype=np.int64)
    lo = np.array([[0]], dtype=np.int64)
    hi = np.array([[1]], dtype=np.int64)
    out = kernels.evolve_step(x, 0, lo, hi, p)
    assert list(out) == [0, 0, 2, 0]


def test_evolve_step_batch_axis_matches_per_column():
    # Axes of x beyond the d band rows are a batch: one call equals a call
    # per column.
    rng = random.Random(23)
    for _ in range(20):
        p = rng.choice([2, 3, 5, 7])
        d = rng.randint(1, 3)
        dims = tuple(rng.randint(2, 5) for _ in range(d))
        eta = rng.choice([1, 2])
        m = rng.randint(1, 4)
        x = np.array(
            [rng.randrange(p) for _ in range(int(np.prod(dims)) * m)], dtype=np.int64
        ).reshape(dims + (m,))
        c = rng.randrange(p)
        lo = np.array(
            [[rng.randrange(p) for _ in range(eta)] for _ in range(d)], dtype=np.int64
        )
        hi = np.array(
            [[rng.randrange(p) for _ in range(eta)] for _ in range(d)], dtype=np.int64
        )
        got = kernels.evolve_step(x, c, lo, hi, p)
        for j in range(m):
            want = kernels.evolve_step(x[..., j], c, lo, hi, p)
            assert np.array_equal(got[..., j], want)
