"""Property tests: random inputs drawn by hypothesis, checked against a
reference computed another way."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from int_reference import int_matmul, int_product  # noqa: E402

from carev.field import ExtField, PrimeField, canonical_modulus, coord_matmul  # noqa: E402
from carev.structmat import FMatrix, kron_dot, kron_many  # noqa: E402

# Small primes, the largest two int64 primes below 2^25 and one above (object
# coordinates); k = 12 at p = 17 is the GF(17^12) of the 64^3 all-ones rule.
PRIMES = (2, 13, 17, 33554393, 33554467)


@st.composite
def blocks(draw):
    """A field and a maker of random (rows, cols) matrices over it."""
    p, k = draw(st.sampled_from(PRIMES)), draw(st.sampled_from((1, 2, 3, 12)))
    field = PrimeField(p) if k == 1 else ExtField(PrimeField(p), k, canonical_modulus(p, k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.booleans())  # every entry p - 1: the largest sums

    def block(rows, cols):
        if top:
            return FMatrix(field, np.full((rows, cols, k), p - 1, dtype=object))
        return FMatrix(field, rng.integers(0, p, (rows, cols, k)).astype(object))

    return field, block


@st.composite
def kron_dot_inputs(draw):
    _, block = draw(blocks())
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    cols = draw(st.integers(1, 3))
    return [block(n, n) for n in sizes], block(int(np.prod(sizes)), cols)


@settings(max_examples=100)
@given(kron_dot_inputs())
def test_kron_dot_matches_materialized_product(case):
    # kron_many @ m would run the same contraction as kron_dot; the product
    # is taken in Python ints instead.
    factors, m = case
    assert kron_dot(factors, m) == int_product(kron_many(factors), m)


@settings(max_examples=100)
@given(blocks(), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
def test_coord_matmul_matches_int_reference(fb, r, m, c):
    field, block = fb
    a, b = block(r, m).data, block(m, c).data
    got = coord_matmul(field, a, b)
    assert got.shape == (r, c, field.k) and got.dtype == a.dtype
    assert np.array_equal(got, int_matmul(field, a, b))
