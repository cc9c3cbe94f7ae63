import random

import numpy as np
import pytest

from carev.ca import (
    Pattern,
    RuleSpec,
    apply_matrix,
    axis_matrix,
    build_T,
    evolve_local,
    evolve_matrix,
    theta,
    theta_inv,
)
from carev.errors import InputError, ShapeMismatch, SizeCapExceeded


def _rule(p=5, dims=(3, 3), c=0, coeff=1, eta=1):
    axes = tuple(((coeff,) * eta, (coeff,) * eta) for _ in dims)
    return RuleSpec(p=p, dims=dims, c=c, axes=axes, eta=eta)


def _random_rule(rng):
    p = rng.choice([2, 3, 5, 7, 13])
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


def _random_pattern(rng, rule):
    cells = np.array(
        [rng.randrange(rule.p) for _ in range(rule.size)], dtype=np.int64
    ).reshape(rule.dims)
    return Pattern(rule.p, cells)


def test_rule_validation_errors():
    with pytest.raises(InputError):
        _rule(p=4)
    with pytest.raises(InputError):
        RuleSpec(p=5, dims=(1, 3), c=0, axes=(((1,), (1,)),) * 2, eta=1)
    with pytest.raises(InputError):
        RuleSpec(p=5, dims=(3,), c=5, axes=(((1,), (1,)),), eta=1)
    with pytest.raises(InputError):
        RuleSpec(p=5, dims=(3,), c=0, axes=(((1, 1), (1,)),), eta=1)
    with pytest.raises(InputError):
        RuleSpec(p=5, dims=(3, 3), c=0, axes=(((1,), (1,)),), eta=1)


def test_rule_json_round_trip():
    rule = _rule(p=7, dims=(2, 4), c=3, coeff=2, eta=2)
    assert RuleSpec.from_json(rule.to_json()) == rule


def test_rule_json_rejects_unknown_keys():
    obj = _rule().to_json()
    obj["extra"] = 1
    with pytest.raises(InputError):
        RuleSpec.from_json(obj)
    obj = _rule().to_json()
    del obj["eta"]
    with pytest.raises(InputError):
        RuleSpec.from_json(obj)
    obj = _rule().to_json()
    obj["axes"][0] = {"left": [1], "r": [1]}
    with pytest.raises(InputError):
        RuleSpec.from_json(obj)


def test_theta_round_trip():
    rng = random.Random(21)
    for _ in range(20):
        rule = _random_rule(rng)
        pattern = _random_pattern(rng, rule)
        assert theta_inv(theta(pattern), rule.dims, rule.p) == pattern


def test_theta_axis_one_fastest():
    cells = np.arange(6, dtype=np.int64).reshape(2, 3)
    flat = theta(Pattern(7, cells))
    # Axis 1 varies fastest: (0,0), (1,0), (0,1), (1,1), ...
    assert list(flat) == [0, 3, 1, 4, 2, 5]


def test_build_T_one_dimensional():
    rule = RuleSpec(p=5, dims=(4,), c=2, axes=(((3,), (1,)),), eta=1)
    t = build_T(rule)
    assert t.tolists() == [
        [2, 1, 0, 0],
        [3, 2, 1, 0],
        [0, 3, 2, 1],
        [0, 0, 3, 2],
    ]


def test_build_T_size_cap():
    rule = _rule(dims=(20, 20, 20))
    with pytest.raises(SizeCapExceeded):
        build_T(rule)


def test_axis_matrix_band_truncation():
    # eta = 2 on a length-2 axis: the offset-2 band cannot reach any cell.
    rule = RuleSpec(p=5, dims=(2,), c=0, axes=(((1, 4), (1, 4)),), eta=2)
    assert axis_matrix(rule, 0).tolists() == [[0, 1], [1, 0]]


def test_evolve_local_matches_matrix():
    rng = random.Random(33)
    for _ in range(40):
        rule = _random_rule(rng)
        pattern = _random_pattern(rng, rule)
        t = build_T(rule)
        assert evolve_local(rule, pattern) == apply_matrix(t, pattern)


def test_evolve_matrix_steps():
    rng = random.Random(35)
    rule = _rule(p=7, dims=(3, 4))
    pattern = _random_pattern(rng, rule)
    once = evolve_local(rule, pattern)
    twice = evolve_local(rule, once)
    assert evolve_matrix(rule, pattern, 2) == twice
    assert evolve_matrix(rule, pattern, 0) == pattern
    with pytest.raises(InputError):
        evolve_matrix(rule, pattern, -1)


def test_pattern_mismatch_rejected():
    rule = _rule(dims=(3, 3))
    other = Pattern(5, np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ShapeMismatch):
        evolve_local(rule, other)
