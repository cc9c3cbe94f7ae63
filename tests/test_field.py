import random

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from carev.errors import (
    DivisionByZero,
    DoesNotSplit,
    NotSquarefree,
    UnsupportedRange,
)
from carev.field import (
    ExtField,
    Poly,
    PrimeField,
    _ModCtx,
    canonical_modulus,
    equal_degree_factor,
    factor_distinct_degree,
    factor_irreducible,
    is_irreducible,
    is_prime,
    poly_extgcd,
    roots_with_multiplicity,
    splitting_field,
    squarefree_decomposition,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(2, 32):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 2)


def test_prime_field_arithmetic():
    F = PrimeField(7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(0) == 0
    assert F.pw(3, 6) == 1
    with pytest.raises(DivisionByZero):
        F.inv(0)


def test_prime_field_rejects_composite():
    from carev.errors import InputError

    with pytest.raises(InputError):
        PrimeField(4)


def test_canonical_modulus_gf9_is_x2_plus_1():
    assert canonical_modulus(3, 2) == (1, 0, 1)


def test_ext_field_arithmetic_gf9():
    E = ExtField(PrimeField(3), 2, canonical_modulus(3, 2))
    a = E.gen
    assert E.mul(a, a) == E.embed(2)  # a^2 = -1 = 2
    one = E.one
    x = E.add(one, a)  # 1 + a
    assert E.mul(x, E.inv(x)) == one
    assert E.render(x) == "a+1"
    assert E.render(E.add(E.embed(2), E.mul(E.embed(2), a))) == "2*a+2"


def test_ext_field_frobenius_fixes_base():
    E = ExtField(PrimeField(5), 3, canonical_modulus(5, 3))
    for v in range(5):
        assert E.frobenius(E.embed(v)) == E.embed(v)
    a = E.gen
    # Frobenius has order k.
    b = a
    for _ in range(3):
        b = E.frobenius(b)
    assert b == a


def test_ext_field_inverse_random():
    rng = random.Random(1)
    for p, k in ((2, 4), (3, 3), (7, 2), (13, 2)):
        E = ExtField(PrimeField(p), k, canonical_modulus(p, k))
        for _ in range(40):
            v = E.rand_elem(rng)
            if v == E.zero:
                continue
            assert E.mul(v, E.inv(v)) == E.one


def test_poly_gcd_example():
    F = PrimeField(7)
    f = Poly.from_ints(F, [-1, 0, 1])  # x^2 - 1
    g = Poly.from_ints(F, [0, -1, 0, 1])  # x^3 - x
    assert f.gcd(g) == Poly.from_ints(F, [6, 0, 1])


def test_poly_shift():
    F = PrimeField(5)
    f = Poly.from_ints(F, [0, 0, 1])  # x^2
    # f(x - 2) = (x - 2)^2 = x^2 + x + 4 over GF(5)
    assert f.shift(2) == Poly.from_ints(F, [4, 1, 1])


def test_poly_divmod_and_extgcd():
    rng = random.Random(3)
    F = PrimeField(11)
    for _ in range(50):
        f = Poly(F, [rng.randrange(11) for _ in range(rng.randint(1, 8))])
        g = Poly(F, [rng.randrange(11) for _ in range(rng.randint(1, 8))])
        if g.is_zero:
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree
        if not f.is_zero:
            d, u, v = poly_extgcd(f, g)
            assert u * f + v * g == d


def test_poly_divmod_by_zero():
    F = PrimeField(5)
    with pytest.raises(DivisionByZero):
        divmod(Poly.x(F), Poly.zero(F))


def test_squarefree_decomposition_char_p():
    F = PrimeField(3)
    # (x+1)^3 * (x+2): the cube's derivative vanishes in characteristic 3.
    g = Poly.from_ints(F, [1, 1])
    h = g * g * g * Poly.from_ints(F, [2, 1])
    parts = squarefree_decomposition(h)
    assert (Poly.from_ints(F, [2, 1]), 1) in parts
    assert (Poly.from_ints(F, [1, 1]), 3) in parts


def test_squarefree_decomposition_random():
    rng = random.Random(9)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        F = PrimeField(p)
        f = Poly.one(F)
        for _ in range(rng.randint(1, 4)):
            g = Poly(F, [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1])
            for _ in range(rng.randint(1, 3)):
                f = f * g
        parts = squarefree_decomposition(f)
        prod = Poly.one(F)
        for i, (g, mult) in enumerate(parts):
            assert g.degree > 0 and g.gcd(g.derivative()).degree == 0
            for h, _ in parts[i + 1 :]:
                assert g.gcd(h).degree == 0
            for _ in range(mult):
                prod = prod * g
        assert prod == f.monic()


def test_factor_distinct_degree_requires_squarefree():
    F = PrimeField(5)
    f = Poly.from_ints(F, [1, 2, 1])  # (x+1)^2
    with pytest.raises(NotSquarefree):
        factor_distinct_degree(f)


def test_factor_distinct_degree_quartic_mod3():
    F = PrimeField(3)
    f = Poly.from_ints(F, [1, 0, 0, 0, 1])  # x^4 + 1, two irreducible quadratics
    out = factor_distinct_degree(f)
    assert out == [(2, f)]


def test_is_irreducible_examples():
    F2 = PrimeField(2)
    assert is_irreducible(Poly.from_ints(F2, [1, 1, 1]))
    assert not is_irreducible(Poly.from_ints(F2, [1, 0, 1]))  # (x+1)^2
    F5 = PrimeField(5)
    assert is_irreducible(Poly.from_ints(F5, [2, 0, 1]))  # x^2 + 2


def _sympy_irreducible(f):
    """sympy's irreducibility test, on the big-endian coefficient list."""
    return gf_irreducible_p([int(c) for c in reversed(f.coeffs)], f.field.p, ZZ)


def test_is_irreducible_matches_sympy():
    # Random polynomials of degree 1-12, a third of them squares, so that
    # repeated factors are covered; leading coefficients are not forced to 1.
    rng = random.Random(31)
    for _ in range(400):
        p = rng.choice([2, 3, 5, 13, 33554393])
        F = PrimeField(p)
        square = rng.random() < 1 / 3
        n = rng.randint(1, 6) if square else rng.randint(1, 12)
        f = Poly(F, [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)])
        if square:
            f = f * f
        assert is_irreducible(f) == _sympy_irreducible(f), f


def test_equal_degree_factor_deterministic():
    F = PrimeField(3)
    f = Poly.from_ints(F, [1, 0, 0, 0, 1])
    first = equal_degree_factor(f, 2)
    second = equal_degree_factor(f, 2)
    assert first == second
    prod = Poly.one(F)
    for g in first:
        assert g.degree == 2
        prod = prod * g
    assert prod == f


def test_factor_irreducible_reconstructs():
    rng = random.Random(17)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7, 13])
        F = PrimeField(p)
        f = Poly(F, [rng.randrange(p) for _ in range(rng.randint(2, 9))] + [1])
        prod = Poly.one(F)
        for g, mult in factor_irreducible(f):
            assert is_irreducible(g)
            for _ in range(mult):
                prod = prod * g
        assert prod == f.monic()


def test_splitting_field_degree_cap():
    F = PrimeField(2)
    # x^89 + x + 1 style high-degree irreducible forces a huge extension.
    f = Poly.from_ints(F, [1, 1] + [0] * 87 + [1])
    if is_irreducible(f):
        with pytest.raises(UnsupportedRange):
            splitting_field([f])


def test_roots_quartic_mod5_double_roots():
    F = PrimeField(5)
    f = Poly.from_ints(F, [1, 0, 2, 0, 1])  # (x-2)^2 (x-3)^2
    E = splitting_field([f])
    assert E is F or getattr(E, "k", 1) == 1
    assert roots_with_multiplicity(f, E) == [(2, 2), (3, 2)]


def test_roots_gf9():
    F = PrimeField(3)
    f = Poly.from_ints(F, [1, 0, 0, 0, 1])  # x^4 + 1
    E = splitting_field([f])
    assert isinstance(E, ExtField) and E.k == 2
    roots = roots_with_multiplicity(f, E)
    assert [E.render(lam) for lam, _ in roots] == ["a+1", "2*a+1", "a+2", "2*a+2"]
    assert all(m == 1 for _, m in roots)


def test_roots_does_not_split():
    F = PrimeField(3)
    f = Poly.from_ints(F, [1, 0, 0, 0, 1])  # splits over GF(9), not GF(3)
    with pytest.raises(DoesNotSplit):
        roots_with_multiplicity(f, F)


def test_roots_large_field_path():
    # Degree forces |E| past the scan threshold, exercising the factor path.
    F = PrimeField(5)
    f = Poly.from_ints(F, [2, 1, 0, 0, 0, 0, 0, 1])
    E = splitting_field([f])
    roots = roots_with_multiplicity(f, E)
    assert sum(m for _, m in roots) == 7
    for lam, _ in roots:
        assert f.lift(E).eval(lam) == E.zero


def _assert_mod_ctx_matches(E, h, a, b, e):
    ctx = _ModCtx(E, h)
    assert ctx.to_poly(ctx.mul(ctx.from_poly(a), ctx.from_poly(b))) == (a * b) % h
    assert ctx.to_poly(ctx.pow(ctx.from_poly(a), e)) == a.pow_mod(e, h)


def test_ext_mod_ctx_matches_poly_ops():
    rng = random.Random(23)
    for _ in range(60):
        p = rng.choice([2, 3, 7])
        k = rng.randint(2, 4)
        E = ExtField(PrimeField(p), k, canonical_modulus(p, k))
        n = rng.randint(1, 5)
        h = Poly(E, [E.rand_elem(rng) for _ in range(n)] + [E.one])
        a = Poly(E, [E.rand_elem(rng) for _ in range(n)])
        b = Poly(E, [E.rand_elem(rng) for _ in range(n)])
        _assert_mod_ctx_matches(E, h, a, b, rng.randrange(1, 200))
    # GF(p) itself (k = 1); GF(p^2) with p just below 2^25, the largest int64
    # coordinates, modulo x^2 - 3 and modulo a dense x^2 + x + c (the planes
    # must be reduced mod p before this fold, or its sums overflow); and
    # GF(p^2) with p > 2^25 in object coordinates.  Each h and a has every
    # coordinate p - 1, which makes the largest plane sums.
    big = 33554393
    c = next(c for c in range(1, 100) if pow(1 - 4 * c, (big - 1) // 2, big) == big - 1)
    fields = (
        PrimeField(7),
        PrimeField(33554467),
        ExtField(PrimeField(big), 2, (big - 3, 0, 1)),
        ExtField(PrimeField(big), 2, (c, 1, 1)),
        ExtField(PrimeField(33554467), 2, canonical_modulus(33554467, 2)),
    )
    for E in fields:
        top = E.elem([E.p - 1] * E.k)
        for n in (1, 2, 5):
            h = Poly(E, [top] * n + [E.one])
            a = Poly(E, [top] * n)
            b = Poly(E, [E.rand_elem(rng) for _ in range(n)])
            _assert_mod_ctx_matches(E, h, a, b, rng.randrange(1, 200))


def _canonical_modulus_by_full_scan(p, k):
    """The scan without the binomial shortcut: every monic degree-k
    polynomial, constant term varying fastest."""
    F = PrimeField(p)
    for n in range(p**k):
        cand = Poly(F, [n // p**i % p for i in range(k)] + [1])
        if _sympy_irreducible(cand):
            return cand.coeffs
    raise AssertionError("no irreducible polynomial")


def test_canonical_modulus_matches_full_scan():
    pairs = [
        (p, k)
        for p in range(2, 1000)
        if is_prime(p)
        for k in range(2, 20)
        if p**k <= 10**6
    ]
    assert len(pairs) == 236
    for p, k in pairs:
        assert canonical_modulus(p, k) == _canonical_modulus_by_full_scan(p, k)


def test_canonical_modulus_without_irreducible_binomials():
    # 3 does not divide p - 1 = 33554392, so every x^3 + c is reducible; and
    # 1019 = 3 (mod 4), so every x^4 + c is (Lidl-Niederreiter, Thm 3.75).
    # Past the binomials, every candidate before the answer is reducible.
    for p, k, want in ((33554393, 3, (3, 1, 0, 1)), (1019, 4, (4, 1, 0, 0, 1))):
        assert canonical_modulus(p, k) == want
        F = PrimeField(p)
        for c in range(want[0]):
            assert not is_irreducible(Poly(F, [c, 1] + [0] * (k - 2) + [1]))
