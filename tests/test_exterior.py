"""Exterior algebra arithmetic: monomials, signs, center, commutators."""

import pytest

from hhext.exactla import GF, QQ
from hhext.exterior import (
    ExtElement,
    ExtMonomial,
    center_basis,
    commutator_quotient_dim,
    merge_signed,
    monomials,
    mult,
)


def test_monomial_validation():
    ExtMonomial(3, (1, 3))
    with pytest.raises(ValueError):
        ExtMonomial(3, (3, 1))
    with pytest.raises(ValueError):
        ExtMonomial(3, (1, 4))
    with pytest.raises(ValueError):
        ExtMonomial(3, (2, 2))


def test_monomials_order_is_length_lex():
    got = [m.indices for m in monomials(3)]
    assert got == [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    assert len(monomials(4)) == 16


def test_merge_signed():
    assert merge_signed((1,), (2,)) == (1, (1, 2))
    assert merge_signed((2,), (1,)) == (-1, (1, 2))
    assert merge_signed((1, 2), (1,)) is None
    assert merge_signed((), (1, 3)) == (1, (1, 3))
    # two inversions: 3 and 4 each pass over 2
    assert merge_signed((3, 4), (2,)) == (1, (2, 3, 4))


def test_monomial_product_signs():
    x1 = ExtMonomial(2, (1,))
    x2 = ExtMonomial(2, (2,))
    assert x1 * x1 is None
    sign, m = x2 * x1
    assert (sign, m.indices) == (-1, (1, 2))


def test_square_of_linear_form_vanishes():
    """(x1 + x2)^2 = x1x2 + x2x1 = 0, the defining relations combined."""
    a = ExtElement(2, QQ, {ExtMonomial(2, (1,)): QQ.one, ExtMonomial(2, (2,)): QQ.one})
    assert mult(a, a).is_zero()


def test_element_algebra():
    x1 = ExtElement.from_monomial(ExtMonomial(3, (1,)), QQ)
    x2 = ExtElement.from_monomial(ExtMonomial(3, (2,)), QQ)
    x12 = mult(x1, x2)
    assert not x12.is_zero()
    assert mult(x1, x2) == mult(x2, x1).scale(-1)
    assert (x12 - x12).is_zero()


def test_center_basis_frozen():
    assert [m.indices for m in center_basis(2, QQ)] == [(), (1, 2)]
    assert [m.indices for m in center_basis(3, QQ)] == [
        (), (1, 2), (1, 3), (2, 3), (1, 2, 3),
    ]
    # n even: the top monomial is already even, no extra class
    assert len(center_basis(4, QQ)) == 8


def test_center_basis_char2_raises():
    with pytest.raises(ValueError):
        center_basis(2, GF(2))


def test_commutator_quotient_dims():
    assert [commutator_quotient_dim(n, QQ) for n in (2, 3, 4)] == [3, 5, 9]
    assert commutator_quotient_dim(3, GF(3)) == 5
    # characteristic 2: the algebra is commutative, nothing is killed
    assert commutator_quotient_dim(3, GF(2)) == 8


def test_check_n_rejects_small():
    with pytest.raises(ValueError):
        monomials(1)
