"""Property tests: random inputs drawn by hypothesis, checked against a
reference computed another way."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from carev.field import ExtField, PrimeField, canonical_modulus  # noqa: E402
from carev.structmat import FMatrix, kron_dot, kron_many  # noqa: E402

# Small primes, the largest two int64 primes below 2^25 and one above (object
# coordinates); k = 12 at p = 17 is the GF(17^12) of the 64^3 all-ones rule.
PRIMES = (2, 13, 17, 33554393, 33554467)


@st.composite
def kron_dot_inputs(draw):
    p, k = draw(st.sampled_from(PRIMES)), draw(st.sampled_from((1, 2, 3, 12)))
    field = PrimeField(p) if k == 1 else ExtField(PrimeField(p), k, canonical_modulus(p, k))
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    cols = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.booleans())  # every entry p - 1: the largest sums

    def block(rows, cols):
        if top:
            return FMatrix(field, np.full((rows, cols, k), p - 1, dtype=object))
        return FMatrix(field, rng.integers(0, p, (rows, cols, k)).astype(object))

    return [block(n, n) for n in sizes], block(int(np.prod(sizes)), cols)


@settings(max_examples=100)
@given(kron_dot_inputs())
def test_kron_dot_matches_materialized_product(case):
    factors, m = case
    assert kron_dot(factors, m) == kron_many(factors) @ m
