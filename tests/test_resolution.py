"""Resolution generators: recursion, relation windows, differential."""

import pytest

from hhext import resolution
from hhext.formulas import binom
from hhext.resolution import (
    exponent_vectors,
    generator_map,
    generator_polynomial,
    observed_coefficients,
    verify_delta_squared_zero,
    verify_generator_space_dim,
    verify_left_right,
    verify_relation_window_membership,
)


def test_exponent_vectors():
    assert exponent_vectors(2, 2) == ((0, 2), (1, 1), (2, 0))
    assert exponent_vectors(3, 0) == ((0, 0, 0),)
    for n, m in ((2, 4), (3, 3), (4, 5)):
        vecs = exponent_vectors(n, m)
        assert len(vecs) == binom(n + m - 1, n - 1)
        assert all(sum(e) == m for e in vecs)
        assert list(vecs) == sorted(vecs)


def test_generator_polynomial_base_and_small():
    assert generator_polynomial(2, (0, 0)) == {(): 1}
    assert generator_polynomial(2, (1, 0)) == {(1,): 1}
    # mixed degree: all words of that multidegree, coefficient one each
    assert generator_polynomial(2, (1, 1)) == {(1, 2): 1, (2, 1): 1}
    assert generator_polynomial(2, (2, 0)) == {(1, 1): 1}
    assert generator_polynomial(3, (1, 0, 1)) == {(1, 3): 1, (3, 1): 1}


def test_all_coefficients_are_one():
    for n in (2, 3):
        for m in range(5):
            assert observed_coefficients(n, m) == {1}


def test_left_right_recursions_agree():
    for n in (2, 3, 4):
        for m in range(1, 5):
            assert verify_left_right(n, m)


def test_relation_window_membership():
    """Every middle slice of every generator lies in the span of the
    defining relations."""
    for n in (2, 3):
        for m in range(2, 5):
            assert verify_relation_window_membership(n, m)


def test_relation_window_membership_fails_under_planted_defects(monkeypatch):
    """A generator with unequal x_1 x_2 and x_2 x_1 coefficients, or a
    relation list with x_1 x_2 - x_2 x_1 in place of x_1 x_2 + x_2 x_1,
    puts a middle slice outside the relations, and the check fails.  The
    lopsided generator also differs from the left-appended recursion, so
    the left-right check fails on it too."""
    n, m = 2, 2
    assert verify_relation_window_membership(n, m)
    assert verify_left_right(n, m)
    true_poly = resolution.generator_polynomial
    lopsided = lambda n, e: ({(1, 2): 1, (2, 1): 2} if e == (1, 1)
                             else true_poly(n, e))
    monkeypatch.setattr(resolution, "generator_polynomial", lopsided)
    assert not verify_relation_window_membership(n, m)
    assert not verify_left_right(n, m)
    monkeypatch.undo()

    relations = resolution._relations(n)
    flipped = [{k: v if k == min(rel) else -v for k, v in rel.items()}
               for rel in relations]
    assert sum(rel != old for rel, old in zip(flipped, relations)) == 1
    monkeypatch.setattr(resolution, "_relations", lambda n: flipped)
    assert not verify_relation_window_membership(n, m)


def test_generator_space_dimension():
    for n in (2, 3):
        for m in range(2, 6):
            assert verify_generator_space_dim(n, m)


def test_differential_squares_to_zero():
    for n in (2, 3):
        for m in range(1, 5):
            assert verify_delta_squared_zero(n, m)


def test_generator_map_counts():
    """Each summand pair appears once per support index of the exponent."""
    gm = generator_map(2, 2)
    assert set(gm) == {(0, 2), (1, 1), (2, 0)}
    assert len(gm[(1, 1)]) == 4
    assert len(gm[(2, 0)]) == 2


def test_validation():
    with pytest.raises(ValueError):
        generator_polynomial(2, (-1, 2))
    with pytest.raises(ValueError):
        verify_left_right(2, 0)
