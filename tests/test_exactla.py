"""Exact sparse linear algebra: fields, rank, kernels, span membership as
a rank difference."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hhext.complexes import (
    bar_chain_blocks,
    bar_cochain_blocks,
    chain_blocks,
    cochain_blocks,
)
from hhext.exactla import (
    GF,
    PRIME_BOUND,
    QQ,
    apply,
    field_of_char,
    keyed_matrix,
    _is_prime,
    rank,
    rank_gain,
)


def from_entries(rows, cols, field, entries):
    """The matrix with the given {(row, col): value} entries, through the
    one builder: column c maps to {row: value}."""
    columns = [{} for _ in range(cols)]
    for (r, c), v in entries.items():
        assert 0 <= r < rows
        columns[c][r] = v
    return keyed_matrix(range(cols), columns.__getitem__, field)


def test_rational_field_ops():
    """Q arithmetic runs on Fractions and keeps exactness."""
    assert QQ.of(2) == Fraction(2)
    assert QQ.of(Fraction(1, 3) + Fraction(1, 6)) == Fraction(1, 2)
    assert QQ.inv(Fraction(3, 7)) == Fraction(7, 3)
    assert QQ.of(-QQ.one) == Fraction(-1)
    # an int inverts to a Fraction, never to a float
    assert QQ.inv(3) == Fraction(1, 3) and type(QQ.inv(3)) is Fraction
    assert QQ.char == 0


def test_prime_field_ops():
    F = GF(7)
    assert F.of(10) == 3
    assert F.of(Fraction(1, 2)) == 4
    assert F.of(3 * 5) == 1
    assert F.of(-3) == 4
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
    """Over Q an int stays an int, an integral Fraction becomes its
    numerator and any other Fraction is kept as it is; no inverse is a
    float.  Over GF(p) every scalar is reduced."""
    f = Fraction(2, 3)
    assert QQ.of(f) is f
    assert QQ.of(3) == 3 and type(QQ.of(3)) is int
    assert QQ.of(Fraction(4, 2)) == 2 and type(QQ.of(Fraction(4, 2))) is int
    assert type(QQ.zero) is type(QQ.one) is int
    assert QQ.inv(3) == Fraction(1, 3) and type(QQ.inv(3)) is Fraction
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert GF(3).of(-1) == 2
    assert GF(3).of(Fraction(1, 2)) == 2


_Q_VALUES = st.one_of(st.integers(), st.integers().map(Fraction),
                      st.fractions(), st.fractions(max_denominator=4))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(x=_Q_VALUES)
def test_rational_scalars_are_ints_exactly_when_integral(x):
    """QQ.of(x) equals Fraction(x) and is an int exactly when the
    denominator is 1, a Fraction otherwise; QQ.inv likewise on nonzero
    values."""
    q = QQ.of(x)
    assert q == Fraction(x)
    assert type(q) is (int if Fraction(x).denominator == 1 else Fraction)
    if x:
        inv = QQ.inv(x)
        assert inv == 1 / Fraction(x)
        assert type(inv) is (int if (1 / Fraction(x)).denominator == 1
                             else Fraction)


def test_sparse_matrix_drops_zeros_and_validates():
    """The builder converts every value with field.of, drops zeros, numbers
    the target keys that keep an entry by first use, and rejects values
    outside the field."""
    column = {"a": {"x": 1, "y": 0},
              "b": {"z": Fraction(3, 2), "x": Fraction(6, 2)}}.get
    M = keyed_matrix(["a", "b"], column, QQ)
    assert (M.rows, M.cols, M.nnz()) == (2, 2, 3)
    assert M.entries == [{0: 1, 1: 3}, {1: Fraction(3, 2)}]
    assert ([[type(v) for v in row.values()] for row in M.entries]
            == [[int, int], [Fraction]])
    M = keyed_matrix(["a", "b"], column, GF(3))
    assert (M.rows, M.cols, M.nnz()) == (1, 2, 1)
    assert M.entries == [{0: 1}]
    with pytest.raises(ValueError):
        keyed_matrix(["c"], {"c": {"x": Fraction(1, 3)}}.get, GF(3))


def test_apply_maps_keyed_vectors():
    """apply(column, vec) is the matrix-vector product over keys, zeros
    dropped."""
    column = {"a": {"x": 1, "y": 2}, "b": {"x": -1, "z": 1}}.get
    assert apply(column, {"a": QQ.of(2), "b": QQ.of(2)}, QQ) == {
        "y": QQ.of(4), "z": QQ.of(2)}
    assert apply(column, {"a": 1, "b": 1}, GF(2)) == {"z": 1}
    assert apply(column, {}, QQ) == {}


def test_rank_identity_and_singular():
    I3 = from_entries(3, 3, QQ, {(i, i): Fraction(1) for i in range(3)})
    assert rank(I3) == 3
    # two proportional rows
    M = from_entries(
        2, 2, QQ,
        {(0, 0): Fraction(1), (0, 1): Fraction(2),
         (1, 0): Fraction(2), (1, 1): Fraction(4)},
    )
    assert rank(M) == 1
    assert rank(from_entries(3, 4, QQ, {})) == 0


def test_rank_rational_entries():
    """Elimination with fractions must not lose exactness."""
    M = from_entries(
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
    assert rank(from_entries(2, 2, QQ, {k: Fraction(v) for k, v in entries.items()})) == 2
    F = GF(3)
    assert rank(from_entries(2, 2, F, {k: F.of(v) for k, v in entries.items()})) == 1


def test_rank_deterministic():
    # the (0,2)x(0,2) minor is -10, zero mod 5, so the rank drops there
    entries = {(0, 0): 2, (0, 2): 3, (1, 1): 1, (2, 0): 4, (2, 2): 1}
    M5 = from_entries(3, 3, GF(5), entries)
    assert rank(M5) == rank(M5) == 2
    MQ = from_entries(3, 3, QQ, {k: Fraction(v) for k, v in entries.items()})
    assert rank(MQ) == rank(MQ) == 3


def test_rank_gain_membership():
    span = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}]
    assert rank_gain([], span, QQ) == 2
    assert rank_gain(span, [{0: Fraction(2)}], QQ) == 0
    assert rank_gain(span, [{0: Fraction(5), 1: Fraction(-1)}], QQ) == 0
    assert rank_gain(span, [{2: Fraction(1)}], QQ) == 1
    # two new directions, and a third vector in the span of all four
    more = [{2: Fraction(1)}, {3: Fraction(1)}, {0: Fraction(1), 3: Fraction(7)}]
    assert rank_gain(span, more, QQ) == 2


# Property tests on small integer matrices, drawn deterministically.

PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=80,
                             deadline=None)
FIELDS = (QQ, GF(2), GF(3), GF(5))


@st.composite
def int_matrices(draw):
    """A dense integer matrix of 1..6 rows and 1..6 columns, about half
    of its entries zero."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


def dense(A, field):
    return from_entries(len(A), len(A[0]), field, {
        (r, c): v for r, row in enumerate(A) for c, v in enumerate(row)})


@PROPERTY_SETTINGS
@given(A=int_matrices(), data=st.data())
def test_rank_invariant_under_permutation_and_transposition(A, data):
    rows = data.draw(st.permutations(range(len(A))))
    cols = data.draw(st.permutations(range(len(A[0]))))
    permuted = [[A[r][c] for c in cols] for r in rows]
    transposed = [list(col) for col in zip(*A)]
    for field in FIELDS:
        r = rank(dense(A, field))
        assert rank(dense(permuted, field)) == r
        assert rank(dense(transposed, field)) == r
        assert r <= min(len(A), len(A[0]))


def reference_rank(A, p):
    """Rank of the integer matrix A by dense Gauss-Jordan elimination,
    over Q (p = 0, with Fractions) or over GF(p) (ints mod p), with no
    use of hhext.exactla."""
    if p:
        rows = [[v % p for v in row] for row in A]
        inv = lambda x: pow(x, -1, p)
        norm = lambda x: x % p
    else:
        rows = [[Fraction(v) for v in row] for row in A]
        inv = lambda x: 1 / x
        norm = lambda x: x
    r = 0
    for c in range(len(A[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = inv(rows[r][c])
        rows[r] = [norm(v * scale) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [norm(v - f * w) for v, w in zip(rows[i], rows[r])]
        r += 1
    return r


@PROPERTY_SETTINGS
@given(A=int_matrices())
def test_rank_matches_dense_reference(A):
    """rank equals an independent dense elimination over every field."""
    for field in FIELDS:
        assert rank(dense(A, field)) == reference_rank(A, field.char)


@PROPERTY_SETTINGS
@given(A=int_matrices())
def test_rank_mod_p_at_most_rank_over_q(A):
    r = rank(dense(A, QQ))
    for p in (2, 3, 5, 7):
        assert rank(dense(A, GF(p))) <= r


@PROPERTY_SETTINGS
@given(A=int_matrices(),
       probe=st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_rank_gain_is_a_rank_difference(A, probe):
    """The rows gain their own rank over the empty span, and a probe gains
    nothing over the rows exactly when stacking it under them leaves the
    rank unchanged; neither argument is changed."""
    for field in FIELDS:
        r = rank(dense(A, field))
        rows = [{c: field.of(v) for c, v in enumerate(row)} for row in A]
        extra = {c: field.of(v) for c, v in enumerate(probe[:len(A[0])])}
        before = [dict(vec) for vec in rows], dict(extra)
        assert rank_gain([], rows, field) == r
        grows = rank(dense(A + [probe[:len(A[0])]], field)) > r
        assert (rank_gain(rows, [extra], field) == 0) != grows
        assert ([dict(vec) for vec in rows], dict(extra)) == before
        assert len(rows) == len(A)


# The elimination order on real and hand-built matrices.

def as_dense(M):
    """The integer (or Fraction) rows of a SparseMatrix, for reference_rank."""
    return [[row.get(c, 0) for c in range(M.cols)] for row in M.entries]


def assert_rank_matches_reference(M):
    p = M.field.char
    want = reference_rank(as_dense(M), p) if M.rows else 0
    assert rank(M) == want, (M, p)


@pytest.mark.parametrize("field", (QQ, GF(2), GF(3)), ids=repr)
def test_rank_matches_reference_on_differential_blocks(field):
    """rank equals the dense reference on every weight block of the bar
    complex at n = 2 and of the resolution complexes at n = 4, m <= 3:
    the matrices every layer ranks, with their cancellations and ties."""
    count = 0
    for n, chain, cochain in ((2, bar_chain_blocks, bar_cochain_blocks),
                              (4, chain_blocks, cochain_blocks)):
        # a chain differential leaves degree m >= 1, a cochain one m >= 0
        for blocks, m_min in ((chain, 1), (cochain, 0)):
            for m in range(m_min, 4):
                for _, M in blocks(n, m, field):
                    assert_rank_matches_reference(M)
                    count += 1
    # over GF(2) the resolution differentials vanish: only bar blocks
    assert count == {0: 381, 2: 84, 3: 381}[field.char]


def test_rank_singleton_reached_by_cancellation():
    """Over Q, column 0 goes first and pivots on row 0.  Row 0 leaving
    takes column 1 from three live rows to two, and the cancellation in
    row 1 takes it to one, so column 1 goes onto the stack; its pivot,
    row 2, then leaves column 2 with one live row."""
    entries = {(0, 0): 1, (0, 1): 1,
               (1, 0): 1, (1, 1): 1, (1, 2): 1,
               (2, 1): 1, (2, 2): 2}
    for field in (QQ, GF(2), GF(3)):
        M = from_entries(3, 3, field, entries)
        assert_rank_matches_reference(M)
    assert rank(from_entries(3, 3, QQ, entries)) == 3


def test_rank_column_emptied_before_its_turn():
    """Columns 0 and 1 each have one entry, both in row 0; row 0 pivots
    column 0 and leaves column 1 with no live row, so column 1 is
    skipped when its turn in the order comes.  In the second matrix row
    0 leaving puts column 1 on the stack with one live row, and the
    cancellation in row 1 empties it before it is popped; likewise
    column 3 after row 2."""
    assert rank(from_entries(1, 2, QQ, {(0, 0): 1, (0, 1): 1})) == 1
    entries = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1,
               (2, 2): 1, (2, 3): 1, (3, 2): 1, (3, 3): 1}
    for field in (QQ, GF(2), GF(3)):
        M = from_entries(4, 4, field, entries)
        assert_rank_matches_reference(M)
        assert rank(M) == 2
