"""Exterior algebra arithmetic: monomials, signs, center, commutators."""

from itertools import product

import pytest

from hhext import complexes
from hhext.complexes import commutator, commutator_quotient_dim
from hhext.exactla import GF, QQ
from hhext.exterior import merge_signed, monomials
from hhext.ring import cohomology_basis


def test_monomials_order_is_length_lex():
    assert monomials(3) == [
        (), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    assert len(monomials(4)) == 16


def test_merge_signed():
    assert merge_signed((1,), (2,)) == (1, (1, 2))
    assert merge_signed((2,), (1,)) == (-1, (1, 2))
    assert merge_signed((1, 2), (1,)) is None
    assert merge_signed((), (1, 3)) == (1, (1, 3))
    # two inversions: 3 and 4 each pass over 2
    assert merge_signed((3, 4), (2,)) == (1, (2, 3, 4))


def _bubble_merge(a, b):
    """merge_signed by brute force: None on a shared index, else the sign
    of the adjacent swaps a bubble sort of a + b makes."""
    word = list(a + b)
    if len(set(word)) < len(word):
        return None
    swaps = 0
    for end in range(len(word) - 1, 0, -1):
        for i in range(end):
            if word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                swaps += 1
    return (-1) ** swaps, tuple(word)


def test_merge_signed_matches_bubble_sort_on_every_pair():
    """Every ordered pair of monomials for n <= 6; the 4^n - 3^n pairs
    that share an index give None."""
    for n in range(2, 7):
        shared = 0
        for a, b in product(monomials(n), repeat=2):
            want = _bubble_merge(a, b)
            assert merge_signed(a, b) == want, (a, b)
            shared += want is None
        assert shared == 4 ** n - 3 ** n


def test_square_of_linear_form_vanishes():
    """(x1 + x2)^2 = x1x2 + x2x1 = 0, the defining relations combined."""
    square = {}
    for a, b in product([(1,), (2,)], repeat=2):
        res = merge_signed(a, b)
        if res is not None:
            square[res[1]] = square.get(res[1], 0) + res[0]
    assert square == {(1, 2): 0}


def test_commutator():
    assert commutator((1,), (2,), QQ) == {(1, 2): QQ.of(2)}
    assert commutator((2,), (1,), QQ) == {(1, 2): QQ.of(-2)}
    assert commutator((1,), (1,), QQ) == {}
    # even monomials and the empty one are central
    assert commutator((1, 2), (3,), QQ) == {}
    assert commutator((), (1, 3), QQ) == {}
    # characteristic 2: 2 = 0, so the algebra is commutative
    assert commutator((1,), (2,), GF(2)) == {}


def _center(n, field):
    """The center as the degree-0 cohomology basis, each listed monomial
    checked to commute with every generator and every other one not to."""
    listed = [idx for vec in cohomology_basis(n, 0, field) for idx, _ in vec]
    for mono in monomials(n):
        central = not any(commutator(mono, (h,), field)
                          for h in range(1, n + 1))
        assert central == (mono in listed)
    return listed


def test_center_basis_frozen():
    assert _center(2, QQ) == [(), (1, 2)]
    assert _center(3, QQ) == [(), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    # n even: the top monomial is already even, no extra class
    assert len(_center(4, QQ)) == 8


def test_center_basis_char2_is_every_monomial():
    """In characteristic 2 the algebra is commutative, so every monomial
    is central and the degree-0 basis has 2^n classes."""
    assert _center(2, GF(2)) == [(), (1,), (2,), (1, 2)]
    for n in (3, 4):
        assert len(_center(n, GF(2))) == 2 ** n


def test_commutator_quotient_dims():
    assert [commutator_quotient_dim(n, QQ) for n in (2, 3, 4)] == [3, 5, 9]
    assert commutator_quotient_dim(3, GF(3)) == 5
    # characteristic 2: the algebra is commutative, nothing is killed
    assert commutator_quotient_dim(3, GF(2)) == 8


def test_sign_free_product_breaks_commutators(monkeypatch):
    """With every product sign forced to +1 the odd monomials commute, so
    the commutator quotient (the record oracle.commutator-quotient)
    leaves its value."""
    def unsigned(a, b):
        res = merge_signed(a, b)
        return None if res is None else (1, res[1])
    monkeypatch.setattr(complexes, "merge_signed", unsigned)
    assert commutator_quotient_dim(3, QQ) != 5


def test_check_n_rejects_small():
    with pytest.raises(ValueError):
        monomials(1)
