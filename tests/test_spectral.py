import random
from collections import Counter

import pytest

from carev import oracle
from carev.ca import RuleSpec, axis_matrix, build_T
from carev.errors import NotReversible, SingularBlock
from carev.field import ExtField, PrimeField, canonical_modulus
from carev.spectral import (
    axis_char_poly,
    block_triangular_inverse,
    eigenvalue_multiset,
    generalized_jordan,
    invert_T,
    is_reversible,
    jordan_axis,
    reversibility,
)
from carev.structmat import FMatrix


def _rule(p, dims, ks, c=0):
    return RuleSpec(
        p=p, dims=dims, c=c, axes=tuple(((k,), (k,)) for k in ks), eta=1
    )


def _random_rule(rng, primes=(2, 3, 5, 7, 13)):
    p = rng.choice(list(primes))
    d = rng.randint(1, 3)
    dims = tuple(rng.randint(2, 5) for _ in range(d))
    eta = rng.choice([1, 2])
    axes = tuple(
        (
            tuple(rng.randrange(p) for _ in range(eta)),
            tuple(rng.randrange(p) for _ in range(eta)),
        )
        for _ in range(d)
    )
    return RuleSpec(p=p, dims=dims, c=rng.randrange(p), axes=axes, eta=eta)


def test_axis_char_poly_matches_oracle():
    rng = random.Random(61)
    for _ in range(30):
        rule = _random_rule(rng)
        for a in range(rule.d):
            s = axis_matrix(rule, a)
            if a == 0 and rule.c:
                s = s + FMatrix.identity(rule.field, rule.dims[0]).scale(rule.c)
            assert axis_char_poly(rule, a) == oracle.char_poly(s)


def test_eigenvalue_multiset_cube():
    rule = _rule(7, (2, 2, 2), (1, 1, 1))
    rep = reversibility(rule)
    ms = eigenvalue_multiset(rep.field, rep.spectra)
    assert ms == Counter({3: 1, 1: 3, 6: 3, 4: 1})


def test_char_poly_of_T_is_product_over_diagonal():
    # The multiset of eigenvalue sums matches the oracle characteristic
    # polynomial of the assembled transition matrix.
    rng = random.Random(63)
    for _ in range(10):
        rule = _random_rule(rng)
        if rule.size > 40:
            continue
        rep = reversibility(rule)
        E = rep.field
        ms = eigenvalue_multiset(E, rep.spectra)
        f = oracle.char_poly(build_T(rule)).lift(E) if isinstance(E, ExtField) else oracle.char_poly(build_T(rule))
        prod_roots = []
        for lam, mult in ms.items():
            prod_roots.extend([lam] * mult)
        for lam in prod_roots:
            assert f.eval(lam) == E.zero or f.degree != len(prod_roots)
        assert f.degree == len(prod_roots)


def test_decision_matches_oracle_det():
    rng = random.Random(65)
    for _ in range(60):
        rule = _random_rule(rng)
        ok, witness = is_reversible(rule)
        assert ok == (oracle.det(build_T(rule)) != 0)
        if not ok:
            assert witness is not None
            E = reversibility(rule).field
            total = E.zero
            for w in witness:
                total = E.add(total, w)
            assert total == E.zero


def test_invert_T_matches_oracle_inverse():
    rng = random.Random(67)
    checked = 0
    while checked < 25:
        rule = _random_rule(rng)
        rep = reversibility(rule)
        if not rep.reversible:
            continue
        assert invert_T(rule, rep) == oracle.inverse(build_T(rule))
        checked += 1


def test_invert_T_raises_with_witness():
    rule = _rule(3, (2, 2, 2), (1, 1, 1))
    with pytest.raises(NotReversible):
        invert_T(rule)


def test_jordan_axis_defective_block():
    # The length-4 unit band over GF(5) has two eigenvalues with one
    # size-2 Jordan block each.
    rule = _rule(5, (4,), (1,))
    gj = generalized_jordan(rule)
    assert gj.axis_layout[0] == ((2, 2), (3, 2))
    assert not gj.diagonalizable


def test_jordan_axis_conjugation_random():
    rng = random.Random(69)
    for _ in range(20):
        rule = _random_rule(rng)
        rep = reversibility(rule)
        gj = generalized_jordan(rule, rep)
        # Per-axis conjugation is re-verified here via the returned factors.
        for a in range(rule.d):
            u, u_inv, j = gj.axis_U[a], gj.axis_U_inv[a], gj.axis_J[a]
            s = axis_matrix(rule, a)
            if a == 0 and rule.c:
                s = s + FMatrix.identity(rule.field, rule.dims[0]).scale(rule.c)
            s = s.lift(gj.field) if isinstance(gj.field, ExtField) else s
            assert u @ u_inv == FMatrix.identity(gj.field, rule.dims[a])
            assert s @ u == u @ j


def test_jordan_axis_rejects_non_splitting_field():
    F = PrimeField(3)
    s = FMatrix.from_rows(F, [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]])
    from carev.errors import DoesNotSplit

    with pytest.raises(DoesNotSplit):
        jordan_axis(s, F)


def test_block_triangular_inverse():
    rng = random.Random(71)
    F = PrimeField(7)
    for _ in range(15):
        blocks = []
        while len(blocks) < 3:
            b = FMatrix.from_rows(
                F, [[rng.randrange(7) for _ in range(2)] for _ in range(2)]
            )
            if oracle.det(b) != 0:
                blocks.append(b)
        omegas = [rng.randrange(7) for _ in range(2)]
        inv = block_triangular_inverse(blocks, omegas)
        # Assemble the block-bidiagonal matrix and verify directly.
        full = FMatrix.zeros(F, 6, 6)
        rows = full.tolists()
        for i, b in enumerate(blocks):
            for r in range(2):
                for c in range(2):
                    rows[2 * i + r][2 * i + c] = b.at(r, c)
        for i, w in enumerate(omegas):
            for r in range(2):
                rows[2 * i + r][2 * (i + 1) + r] = w
        full = FMatrix.from_rows(F, rows)
        assert full @ inv == FMatrix.identity(F, 6)


def test_block_triangular_inverse_singular_block():
    F = PrimeField(5)
    good = FMatrix.identity(F, 2)
    bad = FMatrix.zeros(F, 2, 2)
    with pytest.raises(SingularBlock) as err:
        block_triangular_inverse([good, bad], [1])
    assert err.value.index == 1
