"""Characteristic polynomials of the tridiagonal axis blocks.

The degree-j polynomial attached to a tridiagonal Toeplitz block with band
pair (t1, t2) depends on t1 and t2 only through their product; it obeys

    G_0 = 1,  G_1 = x,  G_j = x * G_{j-1} - (t1*t2) * G_{j-2}

with the closed form sum_i (-1)^i (t1 t2)^i C(j-i, i) x^(j-2i).  Over the
rationals (t1 t2 = 1) the roots are 2 cos(r*pi/(j+1)), r = 1..j.

Only the rational forms (g_rational, gcd_degree_report) use sympy, and they
import it when called: the decision, the inverse and evolution need GF(p)
and GF(p^K) arithmetic alone, so no command but ``paper-examples`` loads it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import InputError
from .field import Poly

if TYPE_CHECKING:
    import sympy


def g_poly(field, j: int, t1t2) -> Poly:
    """Build the degree-j polynomial by the three-term recurrence."""
    if j < 0:
        raise InputError("order must be >= 0")
    t = field.elem(t1t2)
    prev = Poly.one(field)
    if j == 0:
        return prev
    cur = Poly.x(field)
    for _ in range(j - 1):
        prev, cur = cur, Poly.x(field) * cur - prev.scale(t)
    return cur


def g_poly_closed(field, j: int, t1t2) -> Poly:
    """Alternating binomial closed form; cross-check for the recurrence."""
    if j < 0:
        raise InputError("order must be >= 0")
    t = field.elem(t1t2)
    coeffs = [field.zero] * (j + 1)
    tpow = field.one
    for i in range(j // 2 + 1):
        c = field.mul(tpow, _binom_in_field(field, j - i, i))
        if i % 2 == 1:
            c = field.neg(c)
        coeffs[j - 2 * i] = c
        tpow = field.mul(tpow, t)
    return Poly(field, coeffs)


def _binom_in_field(field, n: int, r: int):
    """C(n, r) reduced into the field via the Pascal recurrence."""
    if r < 0 or r > n:
        return field.zero
    row = [field.one]
    for _ in range(n):
        nxt = [field.one]
        for i in range(1, len(row)):
            nxt.append(field.add(row[i - 1], row[i]))
        nxt.append(field.one)
        row = nxt
    return row[r]


def g_rational(j: int) -> sympy.Poly:
    """The degree-j polynomial with t1*t2 = 1 over the integers."""
    import sympy

    if j < 0:
        raise InputError("order must be >= 0")
    x = sympy.symbols("x")
    prev = sympy.Poly(1, x, domain="ZZ")
    if j == 0:
        return prev
    cur = sympy.Poly(x, domain="ZZ")
    xp = sympy.Poly(x, domain="ZZ")
    for _ in range(j - 1):
        prev, cur = cur, xp * cur - prev
    return cur


def gcd_degree_report(k: int, ell: int):
    """Exact rational-gcd degree of (G_k, G_ell) vs. the arithmetic prediction.

    Returns (actual_degree, predicted_degree, equals_gk) where the prediction
    is gcd(k+1, ell+1) - 1 and equals_gk reports whether gcd = G_k, which is
    expected exactly when (k+1) | (ell+1).
    """
    if not 1 <= k < ell:
        raise InputError("need 1 <= k < ell")
    gk = g_rational(k)
    gl = g_rational(ell)
    g = gk.gcd(gl)
    predicted = math.gcd(k + 1, ell + 1) - 1
    return g.degree(), predicted, g.monic() == gk.monic()


def eval_g_float(j: int, x: float) -> float:
    """Float evaluation via the recurrence (numerically stable; t1*t2 = 1)."""
    prev, cur = 1.0, x
    if j == 0:
        return prev
    for _ in range(j - 1):
        prev, cur = cur, x * cur - prev
    return cur


def real_roots(j: int):
    """The j real roots 2*cos(r*pi/(j+1)), r = 1..j, sorted descending."""
    if j < 1:
        raise InputError("order must be >= 1")
    return [2.0 * math.cos(r * math.pi / (j + 1)) for r in range(1, j + 1)]
