import math
import random

import sympy

from carev.charpoly import (
    eval_g_float,
    g_poly,
    g_poly_closed,
    g_rational,
    gcd_degree_report,
    real_roots,
)
from carev.field import Poly, PrimeField


def test_g_poly_base_cases():
    F = PrimeField(7)
    assert g_poly(F, 0, 1) == Poly.one(F)
    assert g_poly(F, 1, 1) == Poly.x(F)


def test_g_poly_quadratic():
    F = PrimeField(7)
    assert g_poly(F, 2, 1) == Poly.from_ints(F, [-1, 0, 1])
    assert g_poly(F, 2, 6) == Poly.from_ints(F, [-6, 0, 1])


def test_g_poly_closed_matches_recurrence():
    rng = random.Random(5)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7, 13])
        F = PrimeField(p)
        j = rng.randint(0, 20)
        t = rng.randrange(p)
        assert g_poly_closed(F, j, t) == g_poly(F, j, t)


def test_g_rational_quartic():
    x = sympy.symbols("x")
    assert g_rational(4).as_expr() == x**4 - 3 * x**2 + 1


def test_gcd_degree_report_spots():
    # gcd(k+1, l+1) - 1 predicts the rational gcd degree.
    for k, ell in ((1, 3), (2, 5), (4, 9), (3, 11)):
        actual, predicted, equals_gk = gcd_degree_report(k, ell)
        assert actual == predicted == math.gcd(k + 1, ell + 1) - 1
        assert equals_gk == ((ell + 1) % (k + 1) == 0)


def test_real_roots_golden_ratio():
    roots = real_roots(4)
    phi = (1 + math.sqrt(5)) / 2
    expected = sorted([phi, phi - 1, 1 - phi, -phi], reverse=True)
    assert len(roots) == 4
    for got, want in zip(roots, expected):
        assert abs(got - want) < 1e-12


def test_eval_g_float_at_roots():
    for j in (2, 5, 10, 25):
        for r in range(1, j + 1):
            x = 2.0 * math.cos(r * math.pi / (j + 1))
            assert abs(eval_g_float(j, x)) < 1e-9
