"""Matrix products over GF(p^k) in Python ints, for the tests.

carev multiplies coordinate arrays by ``field.coord_contract``.  This helper
never calls it: each element c_0 + c_1 a + ... is packed into one Python int
sum c_i X^i with X = 2^bits large enough that no coefficient carries, so a
matrix product over Z[a] is one numpy object matmul.  Each entry is then
unpacked and folded by the modulus with scalar integer arithmetic.
"""

import numpy as np

from carev.structmat import FMatrix


def int_matmul(field, a, b):
    """(r, m, k) @ (m, c, k) coordinate arrays, entries in [0, p), as an
    (r, c, k) int64 array reduced over field."""
    p, k = field.char, getattr(field, "k", 1)
    m = a.shape[1]
    # A coefficient of the product sums at most m k products of two entries.
    bits = (m * k * (p - 1) ** 2).bit_length() + 1
    weights = np.array([1 << (bits * i) for i in range(k)], dtype=object)

    def pack(x):
        return x.astype(object) @ weights

    prod = pack(a) @ pack(b)
    mask = (1 << bits) - 1
    out = np.zeros(prod.shape + (k,), dtype=np.int64)
    for idx, v in np.ndenumerate(prod):
        coef = []
        while v:
            coef.append(v & mask)
            v >>= bits
        out[idx] = _fold(field, coef)
    return out


def _fold(field, coef):
    """Coefficients over Z, low degree first, reduced mod p and the modulus."""
    p, k = field.char, getattr(field, "k", 1)
    coef = coef + [0] * max(k - len(coef), 0)
    if k > 1:
        mod = field.modulus
        for j in range(len(coef) - 1, k - 1, -1):
            c = coef[j] % p  # x^j = -(mod_0 ... mod_{k-1}) x^(j-k)
            for i in range(k):
                coef[j - k + i] -= c * mod[i]
    return [c % p for c in coef[:k]]


def int_product(a: FMatrix, b: FMatrix) -> FMatrix:
    """a @ b by ``int_matmul``."""
    return FMatrix(a.field, int_matmul(a.field, a.data, b.data))
