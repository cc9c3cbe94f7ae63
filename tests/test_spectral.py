import dataclasses
import itertools
import random
from collections import Counter

import pytest
from jordan_reference import axis_J, eigenvalue_multiset, nested_J

from carev import oracle
from carev.ca import RuleSpec, axis_matrix, build_T
from carev.errors import InternalVerificationFailed, NotReversible
from carev.field import ExtField, PrimeField, canonical_modulus
from carev.spectral import (
    _checked_axis,
    _verify_conjugation,
    apply_inverse,
    axis_char_poly,
    axis_spectra,
    generalized_jordan,
    invert_T,
    jordan_axis,
    reversibility,
    tridiagonal_jordan,
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
        rep = reversibility(rule)
        assert rep.reversible == (oracle.det(build_T(rule)) != 0)
        if not rep.reversible:
            assert rep.witness is not None
            E = rep.field
            total = E.zero
            for w in rep.witness:
                total = E.add(total, w)
            assert total == E.zero


def _first_zero_sum(E, spectra):
    """Brute force: the first tuple of one eigenvalue per axis, axis d
    outermost and axis 1 fastest, whose sum is zero."""
    per_axis = [[lam for lam, mult in spec.roots for _ in range(mult)] for spec in spectra]
    for combo in itertools.product(*reversed(per_axis)):
        total = E.zero
        for lam in combo:
            total = E.add(total, lam)
        if total == E.zero:
            return tuple(reversed(combo))
    return None


def test_witness_is_the_first_zero_sum_in_nested_order():
    rng = random.Random(79)
    rules = [
        # p > 2^25: axis 1 (unit bands, c = -1) has eigenvalues -2 and 0,
        # axis 2 (zero bands) has 0 three times, so three sums are zero.
        RuleSpec(p=33554467, dims=(2, 3), c=33554466, eta=1,
                 axes=(((1,), (1,)), ((0,), (0,)))),
    ]
    seen = Counter()
    while len(rules) < 16:
        rule = _random_rule(rng, primes=(2, 3, 5, 7))
        rep = reversibility(rule)
        if not rep.reversible:
            rules.append(rule)
            seen.update({"K>1": getattr(rep.field, "k", 1) > 1, "eta2": rule.eta == 2})
    for rule in rules:
        rep = reversibility(rule)
        assert rep.witness == _first_zero_sum(rep.field, rep.spectra)
    assert seen["K>1"] and seen["eta2"], seen


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
            u, u_inv = gj.axis_U[a], gj.axis_U_inv[a]
            j = axis_J(gj.field, gj.axis_layout[a])
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
    # The same block with its roots in GF(9) passes the exact checks.
    rule = RuleSpec(p=3, dims=(4,), c=0, eta=1, axes=(((1,), (1,)),))
    E, spectra = axis_spectra(rule)
    assert jordan_axis(s, E, roots=spectra[0].roots)[2] == spectra[0].roots


def _random_block(rng, rule, m):
    rows = [[rng.randrange(rule.p) for _ in range(m)] for _ in range(rule.size)]
    return FMatrix.from_int_array(rule.field, rows)


def test_apply_inverse_matches_oracle_inverse():
    rng = random.Random(73)
    rules = [
        # One size-5 Jordan block on axis 2, over GF(3^6).
        RuleSpec(p=3, dims=(2, 5, 5), c=1, eta=2,
                 axes=(((1, 2), (2, 0)), ((2, 0), (0, 2)), ((1, 0), (1, 1)))),
        # Size-2 blocks on both axes: J^-1 needs two correction rounds.
        _rule(2, (2, 4), (1, 1)),
        # p > 2^25 stores entries as Python ints.
        RuleSpec(p=33554467, dims=(3, 4), c=5, eta=1,
                 axes=(((1,), (2,)), ((3,), (1,)))),
    ]
    seen = Counter()
    while len(rules) < 40:
        rule = _random_rule(rng)
        if reversibility(rule).reversible:
            rules.append(rule)
    for rule in rules:
        rep = reversibility(rule)
        gj = generalized_jordan(rule, rep)
        E = gj.field
        big = getattr(E, "k", 1) > 1
        seen.update(
            {"eta2": rule.eta == 2, "defective": not gj.diagonalizable,
             "K>1": big, "defective K>1": big and not gj.diagonalizable}
        )
        ident = FMatrix.identity(E, rule.size)
        assert nested_J(gj) @ gj.solve(ident) == ident
        t_inv = oracle.inverse(build_T(rule))
        x = _random_block(rng, rule, 3)
        assert apply_inverse(rule, x, gj) == t_inv @ x
        assert apply_inverse(rule, FMatrix.identity(rule.field, rule.size), gj) == t_inv
    assert all(seen[key] for key in ("eta2", "defective", "K>1", "defective K>1")), seen


def test_generalized_jordan_shares_identical_axes():
    # Axes 2 and 3 match; axis 1 carries the center shift.
    gj = generalized_jordan(_rule(7, (3, 3, 3), (1, 1, 1), c=2))
    assert gj.axis_U[1] is gj.axis_U[2]
    assert gj.axis_U[0] is not gj.axis_U[1]
    assert gj.axis_layout[0] != gj.axis_layout[1]


def test_tridiagonal_jordan_matches_jordan_axis():
    rng = random.Random(75)
    axes = [  # (p, n, ell, r, c)
        (7, 6, 1, 1, 0),  # defective: 7 | n + 1
        (7, 20, 1, 1, 0),
        (7, 20, 2, 3, 4),  # defective over GF(7^2), with a centre shift
        (33554467, 5, 3, 7, 2),  # p > 2^25: object storage
        (7, 5, 0, 3, 2),  # one-sided bands
        (7, 5, 4, 0, 0),
        (7, 5, 0, 0, 3),  # S = cI
        (33554467, 4, 5, 0, 1),
    ]
    while len(axes) < 60:
        p = rng.choice([2, 3, 5, 7, 11, 13])
        axes.append((p, rng.randint(2, 12), rng.randrange(p), rng.randrange(p), rng.randrange(p)))
    seen = Counter()
    for p, n, ell, r, c in axes:
        rule = RuleSpec(p=p, dims=(n,), c=c, eta=1, axes=(((ell,), (r,)),))
        E, spectra = axis_spectra(rule)
        s = axis_matrix(rule, 0)
        if c:
            s = s + FMatrix.identity(rule.field, n).scale(c)
        u, u_inv, layout = tridiagonal_jordan(s, E, ell, r, c, spectra[0].roots)
        assert layout == tuple(jordan_axis(s, E)[2])
        assert s.lift(E) @ u == u @ axis_J(E, layout)
        assert u_inv @ u == FMatrix.identity(E, n)
        defective = any(size > 1 for _, size in layout)
        seen.update({"defective": defective, "K>1": getattr(E, "k", 1) > 1, "c": c != 0,
                     "object": u.data.dtype == object, "one-sided": (ell == 0) != (r == 0),
                     "zero": ell == r == 0})
    assert all(seen[key] for key in ("defective", "K>1", "c", "object", "one-sided", "zero")), seen


def test_axis_checks_reject_a_wrong_basis_or_inverse():
    rule = RuleSpec(p=7, dims=(6,), c=0, eta=1, axes=(((1,), (1,)),))
    E, spectra = axis_spectra(rule)
    s = axis_matrix(rule, 0)
    u, u_inv, layout = tridiagonal_jordan(s, E, 1, 1, 0, spectra[0].roots)
    for bad_u, bad_inv in ((u.scale(2), u_inv), (u, u_inv.scale(2))):
        with pytest.raises(InternalVerificationFailed):
            _checked_axis(s, E, bad_u, bad_inv, layout)


def test_full_conjugation_check_rejects_tampering():
    # Defective blocks on axes 1 and 3; axis 1 carries the centre shift.
    rule = RuleSpec(p=5, dims=(4, 3, 4), c=1, eta=1,
                    axes=(((1,), (1,)), ((1,), (2,)), ((1,), (1,))))
    gj = generalized_jordan(rule)
    _verify_conjugation(gj)
    u = gj.axis_U[1].data.copy()
    u[0, 0, 0] = (u[0, 0, 0] + 1) % rule.p
    bad = [dataclasses.replace(gj, axis_U=(gj.axis_U[0], FMatrix(gj.field, u), gj.axis_U[2]))]
    layouts = list(gj.axis_layout)
    for a in (0, 2):
        # Split the first block of size s > 1 into sizes s - 1 and 1: the
        # diagonal stays, one eps flag drops.
        b = next(i for i, (_, size) in enumerate(layouts[a]) if size > 1)
        lam, size = layouts[a][b]
        split = layouts[a][:b] + ((lam, size - 1), (lam, 1)) + layouts[a][b + 1:]
        bad.append(dataclasses.replace(
            gj, axis_layout=tuple(layouts[:a] + [split] + layouts[a + 1:])))
    layout = layouts[1]
    assert layout[0][0] != layout[1][0]
    bad.append(dataclasses.replace(
        gj, axis_layout=(layouts[0], (layout[1], layout[0]) + layout[2:], layouts[2])))
    for tampered in bad:
        with pytest.raises(InternalVerificationFailed):
            _verify_conjugation(tampered)
