"""Exact sparse linear algebra: fields, rank, kernels, span membership."""

import time
from fractions import Fraction

import pytest

from hhext.exactla import (
    GF,
    PRIME_BOUND,
    QQ,
    SparseMatrix,
    SpanBasis,
    field_of_char,
    kernel_basis,
    _is_prime,
    rank,
)


def test_rational_field_ops():
    """Q arithmetic runs on Fractions and keeps exactness."""
    assert QQ.of(2) == Fraction(2)
    assert QQ.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
    assert QQ.inv(Fraction(3, 7)) == Fraction(7, 3)
    assert QQ.neg(QQ.one) == Fraction(-1)
    assert QQ.char == 0


def test_prime_field_ops():
    F = GF(7)
    assert F.of(10) == 3
    assert F.of(Fraction(1, 2)) == 4
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.char == 7


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        GF(6)


def test_is_prime_miller_rabin():
    """Agrees with trial division, rejects strong pseudoprimes to many
    bases, decides a 61-bit prime at once, and refuses the range where
    its fixed bases stop being exact."""
    def trial(p):
        return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))

    assert all(_is_prime(p) == trial(p) for p in range(-3, 5000))
    # strong pseudoprimes to every prime base up to 31, and up to 37
    for c in (3825123056546413051, 318665857834031151167461):
        assert not _is_prime(c)
    start = time.perf_counter()
    assert _is_prime(2 ** 61 - 1)
    assert time.perf_counter() - start < 1
    assert not _is_prime(2 ** 61 + 1)
    with pytest.raises(ValueError):
        _is_prime(PRIME_BOUND)


def test_field_of_char():
    assert field_of_char(0) is QQ
    assert field_of_char(5) is GF(5)


def test_field_of_converts_scalars():
    f = Fraction(2, 3)
    assert QQ.of(f) is f
    assert QQ.of(3) == Fraction(3) and type(QQ.of(3)) is Fraction
    assert GF(3).of(-1) == 2
    assert GF(3).of(Fraction(1, 2)) == 2


def test_sparse_matrix_drops_zeros_and_validates():
    M = SparseMatrix(2, 2, QQ, {(0, 0): Fraction(1), (1, 1): Fraction(0)})
    assert M.nnz() == 1
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, QQ, {(2, 0): Fraction(1)})


def test_matmul_and_transpose():
    A = SparseMatrix(2, 2, QQ, {(0, 0): Fraction(1), (0, 1): Fraction(2)})
    B = SparseMatrix(2, 2, QQ, {(0, 0): Fraction(3), (1, 0): Fraction(4)})
    P = A.matmul(B)
    assert P.col_dict(0) == {0: Fraction(11)}
    assert A.transpose().col_dict(0) == {0: Fraction(1), 1: Fraction(2)}


def test_rank_identity_and_singular():
    I3 = SparseMatrix(3, 3, QQ, {(i, i): Fraction(1) for i in range(3)})
    assert rank(I3) == 3
    # two proportional rows
    M = SparseMatrix(
        2, 2, QQ,
        {(0, 0): Fraction(1), (0, 1): Fraction(2),
         (1, 0): Fraction(2), (1, 1): Fraction(4)},
    )
    assert rank(M) == 1
    assert rank(SparseMatrix(3, 4, QQ, {})) == 0


def test_rank_rational_entries():
    """Elimination with fractions must not lose exactness."""
    M = SparseMatrix(
        3, 3, QQ,
        {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 3), (0, 2): Fraction(1),
         (1, 0): Fraction(1, 4), (1, 1): Fraction(1, 6), (1, 2): Fraction(1, 2),
         (2, 1): Fraction(1), (2, 2): Fraction(2)},
    )
    # row1 = row0 / 2, so rank 2
    assert rank(M) == 2


def test_rank_depends_on_characteristic():
    """A matrix can drop rank over a prime field."""
    entries = {(0, 0): 1, (1, 1): 3}
    assert rank(SparseMatrix(2, 2, QQ, {k: Fraction(v) for k, v in entries.items()})) == 2
    F = GF(3)
    assert rank(SparseMatrix(2, 2, F, {k: F.of(v) for k, v in entries.items()})) == 1


def test_rank_deterministic():
    # the (0,2)x(0,2) minor is -10, zero mod 5, so the rank drops there
    entries = {(0, 0): 2, (0, 2): 3, (1, 1): 1, (2, 0): 4, (2, 2): 1}
    M5 = SparseMatrix(3, 3, GF(5), entries)
    assert rank(M5) == rank(M5) == 2
    MQ = SparseMatrix(3, 3, QQ, {k: Fraction(v) for k, v in entries.items()})
    assert rank(MQ) == rank(MQ) == 3


def test_kernel_basis_annihilates():
    M = SparseMatrix(
        2, 3, QQ,
        {(0, 0): Fraction(1), (0, 2): Fraction(-1),
         (1, 1): Fraction(1), (1, 2): Fraction(1)},
    )
    ker = kernel_basis(M)
    assert len(ker) == 3 - rank(M) == 1
    for v in ker:
        assert M.mul_vec(v) == {}


def test_kernel_of_zero_map_is_everything():
    M = SparseMatrix(2, 3, QQ, {})
    assert len(kernel_basis(M)) == 3


def test_span_basis_membership():
    sb = SpanBasis(QQ)
    assert sb.insert({0: Fraction(1), 1: Fraction(1)})
    assert sb.insert({1: Fraction(1)})
    assert not sb.insert({0: Fraction(2)})
    assert sb.rank == 2
    assert sb.contains({0: Fraction(5), 1: Fraction(-1)})
    assert not sb.contains({2: Fraction(1)})


def test_from_columns_roundtrip():
    cols = [{0: Fraction(1)}, {}, {1: Fraction(2)}]
    M = SparseMatrix.from_columns(2, 3, QQ, enumerate(cols))
    assert M.columns() == cols
