"""Hot integer kernels: mod-p matrix multiply, Gaussian elimination, and
cellular-automaton stepping.

The kernels are vectorised numpy on int64 arrays with entries in [0, p) and
return arrays of the same kind; results are exact for p < 2^31.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel implementation."""
    return "numpy"


def matmul_mod(a, b, p: int):
    """(a @ b) mod p for int64 matrices."""
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    n = a.shape[1]
    # Chunk the contraction so partial sums stay below 2^63.
    chunk = max(1, (1 << 62) // max(p - 1, 1) ** 2)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, n, chunk):
        out = (out + a[:, s : s + chunk] @ b[s : s + chunk, :]) % p
    return out


def det_mod(a, p: int) -> int:
    """det(a) mod p by Gaussian elimination with first-nonzero pivoting."""
    m = np.array(a, dtype=np.int64) % p
    n = m.shape[0]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r, col]), -1)
        if piv < 0:
            return 0
        if piv != col:
            m[[col, piv]] = m[[piv, col]]
            det = (p - det) % p
        det = det * int(m[col, col]) % p
        inv = pow(int(m[col, col]), -1, p)
        f = m[col + 1 :, col] * inv % p
        m[col + 1 :, col:] = (m[col + 1 :, col:] - f[:, None] * m[col, col:]) % p
    return det


def inv_mod(a, p: int):
    """Inverse of a mod p, or None when singular."""
    m = np.array(a, dtype=np.int64) % p
    n = m.shape[0]
    aug = np.concatenate([m, np.eye(n, dtype=np.int64)], axis=1)
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r, col]), -1)
        if piv < 0:
            return None
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        inv = pow(int(aug[col, col]), -1, p)
        aug[col] = aug[col] * inv % p
        f = aug[:, col].copy()
        f[col] = 0
        aug = (aug - f[:, None] * aug[col]) % p
    return aug[:, n:]


def evolve_step(x, c: int, lo, hi, p: int):
    """One synchronous CA update of an int64 array under null boundaries;
    lo/hi are the (d, eta) left and right bands for the leading d axes of x.
    Trailing axes of x beyond the first d are a batch."""
    x = np.ascontiguousarray(x, dtype=np.int64)
    out = (c * x) % p
    for axis in range(lo.shape[0]):
        m = x.shape[axis]
        for lam in range(1, min(lo.shape[1], m - 1) + 1):
            near, far = [slice(None)] * x.ndim, [slice(None)] * x.ndim
            near[axis], far[axis] = slice(0, m - lam), slice(lam, m)
            near, far = tuple(near), tuple(far)
            ell, r = int(lo[axis, lam - 1]), int(hi[axis, lam - 1])
            if ell:  # cell i gains ell times cell i - lam
                out[far] = (out[far] + ell * x[near]) % p
            if r:  # cell i gains r times cell i + lam
                out[near] = (out[near] + r * x[far]) % p
    return out
