"""Exact arithmetic in Z_p and GF(p^k), plus univariate polynomial algebra.

Scalar field elements are pure and value-based: ints (prime field) or tuples
of ints (extension field, polynomial basis, little-endian degree order), so
they are hashable, immutable and safe to share.

Arrays of elements are coordinate arrays: an integer array whose last axis
holds the k polynomial-basis coordinates of each element (k = 1 for a prime
field).  This module owns their storage rules (``_dtype_for``), the plane
layout of their products and the reduction rows of the modulus; every array
product goes through ``coord_mul`` (elementwise) or ``coord_matmul``
(matrix product).
"""

from __future__ import annotations

import math
import random
import zlib
from functools import lru_cache

import numpy as np

from . import kernels
from .errors import (
    DivisionByZero,
    DoesNotSplit,
    FieldMismatch,
    InputError,
    InternalVerificationFailed,
    NotSquarefree,
    UnsupportedRange,
)

MAX_PRIME = 1 << 31
MAX_EXT_DEGREE = 64

# Exhaustive root scan is used for fields up to this cardinality; larger
# fields go through seeded equal-degree splitting.
SCAN_LIMIT = 4096

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the supported p < 2^31."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Z_p with elements represented as ints in [0, p)."""

    __slots__ = ("p",)
    k = 1

    def __init__(self, p: int):
        if p >= MAX_PRIME:
            raise UnsupportedRange(f"p = {p} exceeds the supported range (p < 2^31)")
        if not is_prime(p):
            raise InputError(f"p = {p} is not prime")
        self.p = p

    @property
    def order(self) -> int:
        return self.p

    @property
    def char(self) -> int:
        return self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def elem(self, v) -> int:
        if isinstance(v, (tuple, list)):
            if any(v[1:]):
                raise FieldMismatch("extension coordinates in a prime-field element")
            v = v[0] if v else 0
        return int(v) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero("inverse of 0")
        return pow(a, -1, self.p)

    def pw(self, a, e: int):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def embed(self, x: int):
        return x % self.p

    def coeff_vector(self, a) -> tuple:
        return (a,)

    def sort_key(self, a):
        return (a,)

    def rand_elem(self, rng: random.Random):
        return rng.randrange(self.p)

    def render(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class ExtField:
    """GF(p^k) as Z_p[a]/(modulus), elements are coefficient tuples."""

    __slots__ = ("base", "k", "modulus", "_red", "_red_np")

    def __init__(self, base: PrimeField, k: int, modulus):
        if k < 2:
            raise InputError("ExtField needs k >= 2; use PrimeField for k = 1")
        if k > MAX_EXT_DEGREE:
            raise UnsupportedRange(
                f"extension degree {k} exceeds the supported cap ({MAX_EXT_DEGREE})"
            )
        modulus = tuple(int(c) % base.p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise InputError("modulus must be monic of degree k")
        self.base = base
        self.k = k
        self.modulus = modulus
        # Reduction rows: a^(k+i) mod modulus for i = 0 .. k-2.
        coords = np.array(modulus, dtype=_dtype_for(base))[:, None]
        self._red_np = np.ascontiguousarray(_power_rows(base, coords)[:, :, 0])
        self._red = tuple(map(tuple, self._red_np.tolist()))

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def char(self) -> int:
        return self.base.p

    @property
    def order(self) -> int:
        return self.base.p ** self.k

    @property
    def zero(self):
        return (0,) * self.k

    @property
    def one(self):
        return (1,) + (0,) * (self.k - 1)

    @property
    def gen(self):
        return tuple(1 if i == 1 else 0 for i in range(self.k))

    def elem(self, v):
        if isinstance(v, (int, np.integer)):
            return self.embed(int(v))
        c = [int(x) % self.p for x in v]
        if len(c) > self.k:
            raise FieldMismatch("coefficient vector longer than extension degree")
        c += [0] * (self.k - len(c))
        return tuple(c)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p, k = self.p, self.k
        if k >= 16:
            dt = self._red_np.dtype
            conv = np.convolve(np.asarray(a, dtype=dt), np.asarray(b, dtype=dt)) % p
            return tuple(int(x) for x in _reduce_planes(conv, self))
        conv = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        res = [c % p for c in conv[:k]]
        for i in range(k - 1):
            t = conv[k + i] % p
            if t:
                row = self._red[i]
                for j in range(k):
                    res[j] = (res[j] + t * row[j]) % p
        return tuple(res)

    def inv(self, a):
        if not any(a):
            raise DivisionByZero("inverse of 0")
        base = self.base
        f = Poly(base, a)
        m = Poly(base, self.modulus)
        g, u, _ = poly_extgcd(f, m)
        if g.degree != 0:
            raise InternalVerificationFailed("modulus not coprime with element")
        scale = base.inv(g.coeffs[0])
        u = u.scale(scale) % m
        return self.elem(u.coeffs)

    def pw(self, a, e: int):
        if e < 0:
            a = self.inv(a)
            e = -e
        result = self.one
        b = a
        while e:
            if e & 1:
                result = self.mul(result, b)
            b = self.mul(b, b)
            e >>= 1
        return result

    def frobenius(self, a):
        return self.pw(a, self.p)

    def embed(self, x: int):
        return (x % self.p,) + (0,) * (self.k - 1)

    def coeff_vector(self, a) -> tuple:
        return a

    def sort_key(self, a):
        return a

    def rand_elem(self, rng: random.Random):
        return tuple(rng.randrange(self.p) for _ in range(self.k))

    def render(self, a) -> str:
        terms = []
        for i in range(self.k - 1, -1, -1):
            c = a[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "a" if i == 1 else f"a^{i}"
                terms.append(var if c == 1 else f"{c}*{var}")
        return "+".join(terms) if terms else "0"

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ExtField", self.p, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.k})"


class Poly:
    """Dense univariate polynomial over a field, little-endian coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = [field.elem(c) if not _is_elem(field, c) else c for c in coeffs]
        n = len(coeffs)
        zero = field.zero
        while n and coeffs[n - 1] == zero:
            n -= 1
        self.field = field
        self.coeffs = tuple(coeffs[:n])

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero, field.one))

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.elem(i) for i in ints])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self):
        if self.is_zero:
            raise DivisionByZero("leading coefficient of zero polynomial")
        return self.coeffs[-1]

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch("polynomials over different fields")

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Poly(F, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        F = self.field
        return Poly(F, [F.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        F = self.field
        if self.is_zero or other.is_zero:
            return Poly.zero(F)
        out = [F.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == F.zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Poly(F, out)

    def scale(self, c):
        F = self.field
        return Poly(F, [F.mul(c, x) for x in self.coeffs])

    def monic(self):
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.lead))

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero:
            raise DivisionByZero("division by zero polynomial")
        F = self.field
        rem = list(self.coeffs)
        d = other.degree
        inv_lead = F.inv(other.lead)
        q = [F.zero] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == F.zero:
                continue
            factor = F.mul(c, inv_lead)
            q[i - d] = factor
            for j, oc in enumerate(other.coeffs):
                rem[i - d + j] = F.sub(rem[i - d + j], F.mul(factor, oc))
        return Poly(F, q), Poly(F, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def gcd(self, other):
        """Monic greatest common divisor."""
        self._check(other)
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    def derivative(self):
        F = self.field
        return Poly(F, [F.mul(F.embed(i), c) for i, c in enumerate(self.coeffs) if i])

    def eval(self, x):
        F = self.field
        acc = F.zero
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def shift(self, c):
        """Return f(x - c)."""
        F = self.field
        shifted_x = Poly(F, (F.neg(c), F.one))
        acc = Poly.zero(F)
        for coeff in reversed(self.coeffs):
            acc = acc * shifted_x + Poly(F, (coeff,))
        return acc

    def pow_mod(self, e: int, m: "Poly"):
        if e < 0:
            raise InputError("pow_mod exponent must be nonnegative")
        result = Poly.one(self.field) % m
        b = self % m
        while e:
            if e & 1:
                result = (result * b) % m
            b = (b * b) % m
            e >>= 1
        return result

    def lift(self, E):
        """Reinterpret a base-field polynomial over the extension E."""
        if E == self.field:
            return self
        return Poly(E, [E.embed(c) for c in self.coeffs])

    def __repr__(self):
        F = self.field
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == F.zero:
                continue
            cs = F.render(c)
            if i == 0:
                terms.append(cs)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                terms.append(xs if cs == "1" else f"({cs})*{xs}")
        return "Poly(" + " + ".join(terms) + ")"


def _is_elem(field, c):
    if isinstance(field, PrimeField):
        return isinstance(c, int) and 0 <= c < field.p
    return isinstance(c, tuple) and len(c) == field.k


def poly_extgcd(f: Poly, g: Poly):
    """Extended Euclid: returns (d, u, v) with u*f + v*g = d."""
    F = f.field
    r0, r1 = f, g
    u0, u1 = Poly.one(F), Poly.zero(F)
    v0, v1 = Poly.zero(F), Poly.one(F)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return r0, u0, v0


def _seed_for(*parts) -> int:
    blob = "|".join(str(p) for p in parts).encode()
    return zlib.crc32(blob)


# ---------------------------------------------------------------------------
# Coordinate arrays
# ---------------------------------------------------------------------------


def _dtype_for(field):
    """Storage of the field's coordinate arrays: int64 while p < 2^25, so
    p^2 < 2^50 and any sum of up to 2^13 products below p^2 is exact (a
    convolution plane of k <= 64 products and its fold, a ``_ModCtx``
    product of degree n with n k < 2^13).  Larger p store Python ints."""
    return object if field.char >= 1 << 25 else np.int64


def _reduce_planes(arr, field):
    """Collapse (..., 2k-1) convolution planes, entries below p, to (..., k)
    coordinates mod p, folding plane k+i in through the row a^(k+i)."""
    k = field.k
    if k == 1:
        return arr
    return (arr[..., :k] + arr[..., k:] @ field._red_np) % field.char


def _one_reduction(dtype, k: int, m: int, p: int) -> bool:
    """Whether the 2k-1 convolution planes of a product with inner dimension
    m may be reduced once, after all k plane products: each plane sums at
    most k * m products of entries below p, which int64 holds exactly while
    k * m * (p - 1)^2 < 2^63, and Python ints always."""
    return dtype == object or k * m * (p - 1) ** 2 < 1 << 63


def coord_mul(field, a, b):
    """Elementwise field product of coordinate arrays whose last axis holds
    the k coordinates; the leading axes broadcast.

    The 2k-1 convolution planes are built planes-first, so each plane is one
    contiguous block, and each sums at most k products below p^2.  The k-1
    high planes are reduced and folded into the k low ones through the rows
    of ``field._red_np``, which adds at most (k-1)(p-1)^2, and the k output
    planes are reduced once; ``_dtype_for`` keeps every sum in range.  The
    result is a (..., k) view of planes-first memory."""
    p, k = field.char, field.k
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
    low += field._red_np.T @ high
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


def coord_matmul(field, a, b):
    """Matrix product (r, m, k) @ (m, c, k) -> (r, c, k) of coordinate arrays.

    GF(p) in int64 is ``kernels.matmul_mod``.  Otherwise coordinate plane i
    of a times every plane of b is one (r, m) @ (m, c k) product, added into
    convolution planes i .. i+k-1.  The planes are reduced mod p once, after
    the last product, when ``_one_reduction`` allows (delayed reduction as in
    FFLAS-FFPACK: Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008), else
    after each, and then folded to k coordinates."""
    p, k = field.char, field.k
    if k == 1 and a.dtype != object:
        return kernels.matmul_mod(a[:, :, 0], b[:, :, 0], p)[:, :, None]
    r, m, c = a.shape[0], a.shape[1], b.shape[1]
    bflat = b.reshape(m, c * k)
    out = np.zeros((r, c, 2 * k - 1), dtype=a.dtype)
    once = _one_reduction(out.dtype, k, m, p)
    for i in range(k):
        out[:, :, i : i + k] += (np.ascontiguousarray(a[:, :, i]) @ bflat).reshape(r, c, k)
        if not once or i == k - 1:
            out %= p
    return _reduce_planes(out, field)


def _power_rows(field, h):
    """x^(n+i) mod h for i = 0 .. n-2 as an (n-1, n, k) coordinate array, for
    h monic of degree n given as its (n+1, k) coordinate array: row 0 is
    -h mod x^n, and each further row is x times the last one, its top
    coefficient folded back in through row 0."""
    p, n = field.char, h.shape[0] - 1
    rows = np.zeros((max(n - 1, 0), n, h.shape[1]), dtype=h.dtype)
    if n > 1:
        rows[0] = -h[:n] % p
    for i in range(1, n - 1):
        rows[i, 1:] = rows[i - 1, :-1]
        rows[i] = (rows[i] + coord_mul(field, rows[i - 1, -1], rows[0])) % p
    return rows


class _ModCtx:
    """Arithmetic in field[x]/(h) for a monic h of degree n; a residue is an
    (n, k) coordinate array.

    A product is one 1-D convolution by Kronecker substitution: each
    coefficient gets a block of 2k-1 slots, so the coordinate planes of
    neighbouring coefficients never overlap.  The blocks are reduced mod p
    before their planes are folded (a plane sums up to n k products below
    p^2), and reduction mod h is one ``coord_matmul`` with the rows
    x^(n+i) mod h."""

    def __init__(self, field, h: Poly):
        self.field, self.p, self.k, self.n = field, field.char, field.k, h.degree
        self.dtype = _dtype_for(field)
        coords = np.array([field.coeff_vector(c) for c in h.coeffs], dtype=self.dtype)
        self.table = _power_rows(field, coords)

    def mul(self, a, b):
        n, k, p = self.n, self.k, self.p
        w = 2 * k - 1
        fa = np.zeros((n, w), dtype=a.dtype)
        fb = np.zeros((n, w), dtype=a.dtype)
        fa[:, :k], fb[:, :k] = a, b
        conv = np.convolve(fa.reshape(-1), fb.reshape(-1))[: (2 * n - 1) * w] % p
        c = _reduce_planes(conv.reshape(2 * n - 1, w), self.field)
        return (c[:n] + coord_matmul(self.field, c[None, n:], self.table)[0]) % p

    def pow(self, a, e: int):
        result = np.zeros_like(a)
        result[0, 0] = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def to_poly(self, vec) -> Poly:
        return Poly(self.field, [self.field.elem(row) for row in vec.tolist()])

    def from_poly(self, f: Poly):
        out = np.zeros((self.n, self.k), dtype=self.dtype)
        for i, c in enumerate(f.coeffs):
            out[i] = self.field.coeff_vector(c)
        return out


# ---------------------------------------------------------------------------
# Factorization over GF(p)
# ---------------------------------------------------------------------------


def _pth_root(f: Poly) -> Poly:
    """p-th root of f = g(x^p) over GF(p) (Frobenius fixes Z_p coefficients)."""
    p = f.field.p
    out = []
    for i, c in enumerate(f.coeffs):
        if i % p == 0:
            out.append(c)
        elif c != f.field.zero:
            raise InternalVerificationFailed("not a p-th power")
    return Poly(f.field, out)


def squarefree_decomposition(f: Poly):
    """Monic squarefree decomposition over GF(p): list of (g_i, multiplicity).

    Handles the characteristic-p case (vanishing derivative means the input
    is a p-th power of a lower-degree polynomial).
    """
    if f.is_zero:
        raise InputError("zero polynomial")
    result = []

    def rec(g: Poly, scale: int):
        if g.degree <= 0:
            return
        gp = g.derivative()
        if gp.is_zero:
            rec(_pth_root(g), scale * g.field.p)
            return
        c = g.gcd(gp)
        w = (g // c).monic()
        i = 1
        while w.degree > 0:
            y = w.gcd(c)
            fac = (w // y).monic()
            if fac.degree > 0:
                result.append((fac, i * scale))
            w = y
            c = (c // y).monic()
            i += 1
        if c.degree > 0:
            rec(_pth_root(c), scale * g.field.p)

    rec(f.monic(), 1)
    result.sort(key=lambda t: (t[1], t[0].coeffs))
    return result


def _distinct_degree_parts(f: Poly):
    """Distinct-degree factorization of a monic squarefree f over GF(p):
    yields (d, monic product of the irreducible factors of degree d), d
    ascending.  Step d raises h = x^(p^(d-1)) mod rem to the p-th power and
    splits off gcd(h - x, rem); a rem with no factor of degree up to half its
    own is irreducible.  This is the one Frobenius-gcd loop: the first part
    alone is Ben-Or's irreducibility test."""
    field = f.field
    x = Poly.x(field)
    rem, d = f, 0
    ctx = _ModCtx(field, rem)
    h = ctx.from_poly(x % rem)
    while 2 * (d + 1) <= rem.degree:
        d += 1
        h = ctx.pow(h, field.p)
        hp = ctx.to_poly(h)
        g = (hp - x).gcd(rem)
        if g.degree > 0:
            yield d, g
            rem = rem // g
            ctx = _ModCtx(field, rem)
            h = ctx.from_poly(hp % rem)
    if rem.degree > 0:
        yield rem.degree, rem


def factor_distinct_degree(f: Poly):
    """Distinct-degree factorization of a squarefree f over GF(p):
    [(d, monic product of all irreducible factors of degree d)], d ascending.
    """
    if f.degree < 1:
        raise InputError("degree must be >= 1")
    f = f.monic()
    if f.gcd(f.derivative()).degree != 0:
        raise NotSquarefree("input shares a factor with its derivative")
    return list(_distinct_degree_parts(f))


def is_irreducible(f: Poly) -> bool:
    """Ben-Or test over GF(p): f is irreducible iff its first distinct-degree
    part is f itself (a repeated factor shows up as a smaller first part)."""
    return f.degree >= 1 and next(_distinct_degree_parts(f.monic()))[0] == f.degree


def _prime_divisors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def canonical_modulus(p: int, k: int) -> tuple:
    """Smallest monic irreducible of degree k over GF(p).

    Candidates are ordered with the constant term varying fastest, so the
    choice is reproducible everywhere.  The first p candidates are the
    binomials x^k + c.  None of them is irreducible when a prime factor of k
    does not divide p - 1, or when 4 | k and p = 3 (mod 4) (Lidl and
    Niederreiter, Finite Fields, Thm 3.75); the scan then starts past them.
    """
    field = PrimeField(p)
    no_binomial = any((p - 1) % r for r in _prime_divisors(k)) or (k % 4 == 0 and p % 4 == 3)
    for n in range(p if no_binomial else 0, p**k):
        digits = []
        t = n
        for _ in range(k):
            digits.append(t % p)
            t //= p
        cand = Poly(field, digits + [1])
        if is_irreducible(cand):
            return cand.coeffs
    raise InternalVerificationFailed("no irreducible polynomial found")  # pragma: no cover


def _split_step(g: Poly, d: int, rng: random.Random) -> Poly:
    """A proper monic factor of g, a monic product of distinct irreducibles
    of degree d over its field, by Cantor-Zassenhaus random splitting."""
    field = g.field
    q = field.order
    n = g.degree
    ctx = _ModCtx(field, g)
    while True:
        h = Poly(field, [field.rand_elem(rng) for _ in range(n)])
        if h.degree < 1:
            continue
        hv = ctx.from_poly(h)
        if q % 2 == 1:
            w = ctx.to_poly(ctx.pow(hv, (q**d - 1) // 2)) - Poly.one(field)
        else:
            # Characteristic 2: trace map over GF(2), a sum of d log2(q) squares.
            t = acc = hv
            for _ in range(d * (q.bit_length() - 1) - 1):
                t = ctx.mul(t, t)
                acc = (acc + t) % 2
            w = ctx.to_poly(acc)
        c = w.gcd(g)
        if 0 < c.degree < g.degree:
            return c


def equal_degree_factor(f: Poly, d: int):
    """Split a monic product of distinct degree-d irreducibles (Cantor-Zassenhaus).

    Works over GF(p) and over extension fields, seeded from f and d.
    """
    field = f.field
    rng = random.Random(_seed_for("edf", repr(field), f.coeffs, d))
    out = []

    def split(g: Poly):
        if g.degree == d:
            out.append(g.monic())
            return
        c = _split_step(g, d, rng)
        split(c)
        split((g // c).monic())

    split(f.monic())
    out.sort(key=lambda t: t.coeffs)
    return out


def factor_irreducible(f: Poly):
    """Full factorization over GF(p): list of (monic irreducible, multiplicity)."""
    out = []
    for g, mult in squarefree_decomposition(f):
        for d, prod in _distinct_degree_parts(g):
            for irr in equal_degree_factor(prod, d):
                out.append((irr, mult))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return out


def splitting_field(polys):
    """Smallest GF(p^K) over which every input splits into linear factors,
    from the degrees of their irreducible factors; roots_with_multiplicity
    finds the roots there."""
    polys = list(polys)
    if not polys:
        raise InputError("need at least one polynomial")
    base = polys[0].field
    if not isinstance(base, PrimeField):
        raise InputError("splitting_field expects polynomials over a prime field")
    K = 1
    for f in polys:
        if f.is_zero:
            raise InputError("zero polynomial has no splitting field")
        if f.field != base:
            raise FieldMismatch("polynomials over different prime fields")
        if f.degree == 0:
            continue
        for g, _ in squarefree_decomposition(f):
            for d, _ in factor_distinct_degree(g):
                K = math.lcm(K, d)
    if K == 1:
        return base
    if K > MAX_EXT_DEGREE:
        raise UnsupportedRange(
            f"splitting field degree {K} exceeds the supported cap ({MAX_EXT_DEGREE})"
        )
    return ExtField(base, K, canonical_modulus(base.p, K))


def _root_of_linear(g: Poly):
    F = g.field
    return F.mul(F.neg(g.coeffs[0]), F.inv(g.coeffs[1]))


def _root_in_ext(G: Poly, E) -> tuple:
    """One root in E of an irreducible G over GF(p) whose degree divides E.k."""
    h = G.lift(E).monic()
    rng = random.Random(_seed_for("root", E.p, E.modulus, G.coeffs))
    while h.degree > 1:
        c = _split_step(h, 1, rng)
        h = c if 2 * c.degree <= h.degree else (h // c).monic()
    return _root_of_linear(h)


def _eval_all_np(g: Poly, E):
    """Evaluate g at every element of E by one Horner loop on coordinate
    arrays; returns (elements, values), element i having the base-p digits
    of i as coordinates."""
    p = E.char
    elems = np.arange(E.order)[:, None] // p ** np.arange(E.k) % p
    acc = np.zeros_like(elems)
    for c in reversed(g.coeffs):
        acc = (coord_mul(E, acc, elems) + E.coeff_vector(c)) % p
    return elems, acc


def roots_with_multiplicity(f: Poly, E):
    """Roots of f (over GF(p)) in E with multiplicities, canonically ordered.

    Verifies by reconstruction that f splits completely; raises DoesNotSplit
    otherwise.
    """
    if f.degree < 0:
        raise InputError("zero polynomial")
    if f.degree == 0:
        return []
    roots: list[tuple] = []
    if E.order <= SCAN_LIMIT:
        # Multiplicities come from the squarefree decomposition over the base
        # field; each squarefree part is scanned for (necessarily distinct)
        # roots, avoiding repeated synthetic division in the extension.
        for part, mult in squarefree_decomposition(f.monic()):
            elems, vals = _eval_all_np(part.lift(E), E)
            hit = np.nonzero(~vals.any(axis=1))[0]
            if hit.size != part.degree:
                raise DoesNotSplit(f"{f!r} does not split over {E!r}")
            roots.extend((E.elem(elems[i].tolist()), mult) for i in hit)
    else:
        for G, mult in factor_irreducible(f):
            d = G.degree
            if d == 1:
                roots.append((E.embed(_root_of_linear(G)), mult))
                continue
            if not isinstance(E, ExtField) or E.k % d != 0:
                raise DoesNotSplit(f"factor of degree {d} cannot split over {E!r}")
            alpha = _root_in_ext(G, E)
            orbit = [alpha]
            for _ in range(d - 1):
                orbit.append(E.frobenius(orbit[-1]))
            for r in orbit:
                roots.append((r, mult))
    # Reconstruction check.
    prod = Poly(E, (E.embed(f.lead),))
    for alpha, mult in roots:
        lin = Poly(E, (E.neg(alpha), E.one))
        for _ in range(mult):
            prod = prod * lin
    if prod != f.lift(E):
        raise DoesNotSplit(f"reconstruction failed for {f!r} over {E!r}")
    roots.sort(key=lambda t: E.sort_key(t[0]))
    return roots
