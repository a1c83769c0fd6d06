"""Chain/cochain matrices, dimension computations, bar oracle."""

import inspect
import json
from collections import Counter
from itertools import product

import pytest

from hhext import cli, complexes, resolution
from hhext.exactla import GF, QQ, apply, keyed_matrix, rank
from hhext.formulas import (
    chain_rank_double_sum,
    chain_rank_terms,
    cochain_rank_double_sum,
    cochain_rank_terms,
    hh_dim_formula,
    hhc_dim_formula,
)
from hhext.complexes import (
    OracleInfeasibleError,
    bar_chain_blocks,
    bar_chain_dim,
    bar_cochain_blocks,
    bar_oracle_dims,
    chain_blocks,
    chain_column,
    chain_dim,
    chain_rank,
    cochain_blocks,
    cochain_column,
    cochain_domain,
    cochain_rank,
    cochain_weight,
    grade,
    hh_dim_computed,
    hhc_dim_computed,
    largest_feasible_degree,
    verify_d_squared_zero,
)


def all_keys(n, m):
    """Every degree-m key, listed without the code under test: a monomial
    index tuple with an exponent vector of degree m."""
    gens = range(1, n + 1)
    monos = [idx for j in range(n + 1) for idx in product(gens, repeat=j)
             if list(idx) == sorted(set(idx))]
    exps = [e for e in product(range(m + 1), repeat=n) if sum(e) == m]
    keys = list(product(monos, exps))
    assert len(keys) == chain_dim(n, m)
    return keys


def test_chain_matrix_entries():
    """Hand-checked differential column for x1 against the second exponent."""
    column = chain_column(2, 1, QQ)
    # only h=2 applies: the summands (1, (2,), ()) and (-1, (), (2,)) of
    # generator_terms(1, 2) act as r.a.l, giving x1.x2 - x2.x1 = 2 x1x2,
    # so the (x1x2, (0,0)) entry is 2
    assert column(((1,), (0, 1))) == {((1, 2), (0, 0)): QQ.of(2)}
    # on even-degree monomials the two summands cancel in odd degree
    assert column(((), (0, 1))) == {}
    assert column(((1, 2), (0, 1))) == {}


def test_differential_preserves_grade():
    for n, m in ((2, 2), (3, 2)):
        column = chain_column(n, m, QQ)
        targets = 0
        for idx, e in all_keys(n, m):
            for idx2, e2 in column((idx, e)):
                targets += 1
                assert grade(idx2, e2) == grade(idx, e)
        assert targets


def test_d_squared_zero():
    for n in (2, 3):
        assert verify_d_squared_zero(n, 4, QQ)
        assert verify_d_squared_zero(n, 3, GF(3))


def test_computed_dims_frozen():
    assert [hh_dim_computed(2, m, QQ) for m in range(5)] == [3, 4, 6, 8, 10]
    assert [hhc_dim_computed(2, m, QQ) for m in range(5)] == [2, 4, 6, 8, 10]
    assert [hh_dim_computed(3, m, QQ) for m in range(4)] == [5, 12, 24, 40]
    assert [hhc_dim_computed(3, m, QQ) for m in range(4)] == [5, 12, 24, 40]


def test_char2_matrices_vanish():
    F = GF(2)
    for n in (2, 3):
        for m in range(4):
            for column, d in ((cochain_column(n, m, F), m),
                              (chain_column(n, m + 1, F), m + 1)):
                assert keyed_matrix(all_keys(n, d), column, F).nnz() == 0
        assert hh_dim_computed(n, 2, F) == chain_dim(n, 2)


def test_odd_char_matches_rationals():
    F = GF(3)
    for m in range(1, 4):
        assert chain_rank(2, m, F) == chain_rank(2, m, QQ)
        assert cochain_rank(2, m, F) == cochain_rank(2, m, QQ)


SIZES = ((3, 5), (4, 4), (5, 3))
FIELDS = (QQ, GF(3), GF(2))


def test_blocks_partition_the_global_matrices():
    """Block ranks sum to the global rank and block nonzeros to the
    global nonzeros, so the blocks cover every entry exactly once."""
    for field in FIELDS:
        for n, m_max in SIZES:
            for m in range(m_max + 1):
                keys = all_keys(n, m)
                pairs = [(cochain_blocks, keyed_matrix(
                    keys, cochain_column(n, m, field), field))]
                if m >= 1:
                    pairs.append((chain_blocks, keyed_matrix(
                        keys, chain_column(n, m, field), field)))
                for blocks, full in pairs:
                    got = [M for _, M in blocks(n, m, field)]
                    assert sum(map(rank, got)) == rank(full), (n, m, field)
                    assert sum(M.nnz() for M in got) == full.nnz(), (n, m, field)


def test_cochain_domain_is_the_block_domain():
    """cochain_domain(n, m, v) is the domain cochain_blocks yields for v,
    in the same order.  Blocks whose columns are all empty are skipped,
    the other domains partition the keys with a nonempty column, and
    every key, empty column or not, lies in the domain of its own
    weight."""
    for field in (QQ, GF(3)):
        for n in range(2, 5):
            for m in range(4):
                keys = all_keys(n, m)
                by_weight = {}
                for key in keys:
                    by_weight.setdefault(cochain_weight(key), []).append(key)
                seen = []
                for domain, _ in cochain_blocks(n, m, field):
                    v = cochain_weight(domain[0])
                    assert cochain_domain(n, m, v) == domain, (n, m, v)
                    seen += domain
                column = cochain_column(n, m, field)
                nonzero = [k for k in keys if column(k)]
                assert sorted(seen) == sorted(nonzero), (n, m, field)
                for v, group in by_weight.items():
                    assert sorted(cochain_domain(n, m, v)) == sorted(group)
    # a negative subset size m - |v| - |N| gives an empty domain
    assert cochain_domain(2, 0, (1, 0)) == []
    assert cochain_domain(3, 1, (-1, 1, 1)) == []


def test_block_ranks_refine_rank_formulas():
    """Grouped by support size i, the block ranks equal the outer terms
    C(n,i) * inner_i of the double-sum rank formulas.  A chain block's i
    is the support size of its weight 1_S + e; a cochain block's i is n
    minus the number of generators where its weight e - 1_S is -1."""
    for field in FIELDS:
        for n in range(2, 6):
            for m in range(5):
                if m >= 1:
                    got = Counter()
                    for domain, M in chain_blocks(n, m, field):
                        idx, e = domain[0]
                        got[grade(idx, e)] += rank(M)
                    terms = chain_rank_terms(n, m, field.char)
                    assert +got == +Counter(terms), (n, m, field)
                got = Counter()
                for domain, M in cochain_blocks(n, m, field):
                    idx, e = domain[0]
                    got[n - sum(1 for h in idx if e[h - 1] == 0)] += rank(M)
                terms = cochain_rank_terms(n, m, field.char)
                assert +got == +Counter(terms), (n, m, field)


def _unsigned_table(table):
    """The term-table builder ``table`` with the sign (-1)^mu of inserting
    h into idx divided out of every entry, mu counting the indices of idx
    below h."""
    def make(n, m, field, chain):
        return {idx: [(h, t, field.of((-1) ** sum(i < h for i in idx) * v))
                      for h, t, v in row]
                for idx, row in table(n, m, field, chain).items()}
    return make


def test_dropped_sign_changes_block_ranks(monkeypatch):
    """Both rank engines go through the one term table: without the
    (-1)^mu insertion sign the ranks leave the formulas.  At n = 2 the
    mutant goes unnoticed, hence n = 3."""
    assert chain_rank(3, 3, QQ) == chain_rank_double_sum(3, 3)
    assert cochain_rank(3, 2, QQ) == cochain_rank_double_sum(3, 2)
    chain_rank.cache_clear()
    cochain_rank.cache_clear()
    monkeypatch.setattr(complexes, "_term_table",
                        _unsigned_table(complexes._term_table))
    try:
        assert chain_rank(3, 3, QQ) != chain_rank_double_sum(3, 3)
        assert cochain_rank(3, 2, QQ) != cochain_rank_double_sum(3, 2)
    finally:
        chain_rank.cache_clear()
        cochain_rank.cache_clear()


def test_dropped_sign_breaks_d_squared_zero(monkeypatch):
    """The d^2 = 0 check applies the column rules of the term table, so
    it fails once the (-1)^mu insertion sign is divided out."""
    monkeypatch.setattr(complexes, "_term_table",
                        _unsigned_table(complexes._term_table))
    for n in (2, 3):
        for field in (QQ, GF(3)):
            assert not verify_d_squared_zero(n, 4, field), (n, field)


def _unsigned_terms(m, h):
    """generator_terms with the (-1)^m of the right summand dropped."""
    return ((1, (h,), ()), (1, (), (h,)))


def test_dropped_degree_sign_fails_resolution_and_ranks(monkeypatch,
                                                        tmp_path):
    """generator_terms is the one definition of the differential: with
    its (-1)^m dropped, one ``verify`` run fails the resolution's
    composite-zero record, both rank records and both oracle comparisons,
    which read the matrices built from the same terms."""
    for module in (resolution, complexes):
        monkeypatch.setattr(module, "generator_terms", _unsigned_terms)
    chain_rank.cache_clear()
    cochain_rank.cache_clear()
    try:
        out = tmp_path / "all.json"
        assert cli.main(["verify", "--n", "3", "--m-max", "3", "--suite",
                         "all", "--format", "json", "--no-timestamp",
                         "--out", str(out)]) == 1
        records = json.loads(out.read_text())["records"]
    finally:
        chain_rank.cache_clear()
        cochain_rank.cache_clear()
    failed = {r["id"] for r in records if r["status"] == "fail"}
    assert {"resolution.composite-zero", "ranks.chain", "ranks.cochain",
            "oracle.hh-vs-matrix", "oracle.hhc-vs-matrix"} <= failed, failed


def _flip_one_sign(rule, step0, key0):
    """The column-rule builder ``rule`` with one sign flipped: in the
    rules of exponent step step0, the entry of the smallest target in the
    column of key0.  Only the rule of key0's own degree reaches key0;
    the flipped value is left for ``keyed_matrix`` to normalise."""
    def make(table, step):
        column = rule(table, step)
        if step != step0:
            return column

        def mutant(key):
            col = column(key)
            if key == key0:
                target = min(col)
                col[target] = -col[target]
            return col
        return mutant
    return make


# Per side: the exponent step of its column rule, its rank, the closed
# double sum, its blocks, the record that compares them, and the degree
# and key of one planted sign at n = 4.  Each key lies in the middle of
# three consecutive weight blocks with one and the same matrix: chain
# weight (1, 2, 0, 1) between (2, 1, 0, 1) and (1, 1, 0, 2), cochain
# weight (0, 1, 0, 0) between (1, 0, 0, 0) and (0, 0, 1, 0).
PLANTED = {
    "chain": (-1, chain_rank, chain_rank_double_sum, chain_blocks,
              "ranks.chain", 3, ((1,), (0, 2, 0, 1))),
    "cochain": (1, cochain_rank, cochain_rank_double_sum,
                cochain_blocks, "ranks.cochain", 2, ((1,), (1, 1, 0, 0))),
}


def _neighbourhood(blocks, m0, key0):
    """(cols, entries) of the block holding key0 and of the blocks just
    before and after it, in the order the generator yields them."""
    seen = [(key0 in domain, (M.cols, M.entries))
            for domain, M in blocks(4, m0, QQ)]
    i = next(i for i, (has, _) in enumerate(seen) if has)
    return [block for _, block in seen[i - 1:i + 2]]


@pytest.mark.parametrize("side", sorted(PLANTED))
def test_planted_sign_inside_a_run_of_equal_blocks_is_caught(
        monkeypatch, tmp_path, side):
    """One sign flipped in a weight block whose neighbours on both sides
    are the same matrix takes that side's rank off the double sum in the
    planted degree only, and ``verify --suite ranks`` fails there.  So
    the block is compared whole and ranked itself, and does not borrow
    the rank of the equal-looking block before it."""
    step, rank_of, double_sum, blocks, record, m0, key0 = PLANTED[side]
    before, planted, after = _neighbourhood(blocks, m0, key0)
    assert before == planted == after
    monkeypatch.setattr(complexes, "_column_rule",
                        _flip_one_sign(complexes._column_rule, step, key0))
    before, planted, after = _neighbourhood(blocks, m0, key0)
    assert before == after != planted
    rank_of.cache_clear()
    try:
        for field in (QQ, GF(3)):
            for m in range(1, 4):
                agrees = rank_of(4, m, field) == double_sum(4, m, field.char)
                assert agrees == (m != m0), (m, field)
        out = tmp_path / "ranks.json"
        assert cli.main(["verify", "--n", "4", "--m-max", "3", "--suite",
                         "ranks", "--format", "json", "--no-timestamp",
                         "--out", str(out)]) == 1
        records = json.loads(out.read_text())["records"]
        failed = {(r["id"], r["params"]["m"]) for r in records
                  if r["status"] == "fail"
                  and r["id"] in ("ranks.chain", "ranks.cochain")}
        assert failed == {(record, m0)}
    finally:
        rank_of.cache_clear()


def test_rank_reuse_equals_ranking_every_block(monkeypatch):
    """chain_rank and cochain_rank, which rank a block only when it
    differs from the block before it, equal the sum of the ranks of all
    blocks; and at n = 5 they rank fewer blocks than they build, so the
    reuse takes effect."""
    chain_rank.cache_clear()
    cochain_rank.cache_clear()
    for field in FIELDS:
        for n in range(2, 6):
            for m in range(6):
                if m >= 1:
                    assert chain_rank(n, m, field) == sum(
                        rank(M) for _, M in chain_blocks(n, m, field))
                assert cochain_rank(n, m, field) == sum(
                    rank(M) for _, M in cochain_blocks(n, m, field))
    calls = []

    def counting_rank(M):
        calls.append(M.cols)
        return rank(M)
    monkeypatch.setattr(complexes, "rank", counting_rank)
    for rank_of, blocks in ((chain_rank, chain_blocks),
                            (cochain_rank, cochain_blocks)):
        rank_of.cache_clear()
        calls.clear()
        try:
            rank_of(5, 3, QQ)
        finally:
            rank_of.cache_clear()
        assert 0 < len(calls) < sum(1 for _ in blocks(5, 3, QQ))


def test_bar_dims():
    assert bar_chain_dim(2, 0) == 4
    assert bar_chain_dim(2, 2) == 36
    assert bar_chain_dim(3, 3) == 2744


def bar_chain_keys(n, m):
    """Every degree-m bar chain (a0, a1, ..., am), a1..am nonunit."""
    return [(a,) + w for a in range(2 ** n)
            for w in product(range(1, 2 ** n), repeat=m)]


def bar_cochain_keys(n, m):
    """Every degree-m bar cochain (w, b): m nonunit arguments, a value b."""
    return [(w, b) for w in product(range(1, 2 ** n), repeat=m)
            for b in range(2 ** n)]


def test_bar_differential_squares_to_zero():
    """Both bar column rules, applied twice to each key, give zero; each
    single application is nonzero somewhere."""
    chain, cochain = complexes._bar_chain_rule, complexes._bar_cochain_rule
    for m in (2, 3):
        d, d_below = chain(2, m), chain(2, m - 1)
        keys = bar_chain_keys(2, m)
        assert any(apply(d, {t: QQ.one}, QQ) for t in keys)
        for t in keys:
            assert apply(d_below, apply(d, {t: QQ.one}, QQ), QQ) == {}
    for m in (0, 1):
        d, d_above = cochain(2, m), cochain(2, m + 1)
        keys = bar_cochain_keys(2, m)
        assert any(apply(d, {t: QQ.one}, QQ) for t in keys)
        for t in keys:
            assert apply(d_above, apply(d, {t: QQ.one}, QQ), QQ) == {}


BAR_SIZES = ((2, 5), (3, 3), (4, 2))


def test_bar_blocks_partition_the_global_matrices():
    """The generator-count blocks cover every bar chain and cochain
    exactly once, and their ranks and nonzeros sum to the global ones."""
    for field in FIELDS:
        for n, m_max in BAR_SIZES:
            for m in range(m_max + 1):
                pairs = [(bar_cochain_blocks, keyed_matrix(
                    bar_cochain_keys(n, m),
                    complexes._bar_cochain_rule(n, m), field))]
                if m >= 1:
                    pairs.append((bar_chain_blocks, keyed_matrix(
                        bar_chain_keys(n, m),
                        complexes._bar_chain_rule(n, m), field)))
                for blocks, full in pairs:
                    got = list(blocks(n, m, field))
                    keys = [key for domain, _ in got for key in domain]
                    assert len(set(keys)) == len(keys) == bar_chain_dim(n, m)
                    assert sum(rank(M) for _, M in got) == rank(full), (n, m, field)
                    assert sum(M.nnz() for _, M in got) == full.nnz(), (n, m, field)


# Each sign of the two bar column rules, as written in the rule's source,
# and the side of the oracle that goes through it.
BAR_SIGNS = {
    "chain-interior": ("_bar_chain_rule", "(-1) ** i * res[0]", "hh"),
    "chain-wrap-around": ("_bar_chain_rule", "(-1) ** m * res[0]", "hh"),
    "cochain-right-action": ("_bar_cochain_rule", "(-1) ** (m + 1) * res[0]", "hhc"),
    "cochain-split": ("_bar_cochain_rule", "(-1) ** i * sign", "hhc"),
}


@pytest.mark.parametrize("mutant", sorted(BAR_SIGNS))
def test_dropped_bar_sign_breaks_the_oracle(monkeypatch, mutant):
    """With one sign of a bar column rule dropped, the oracle leaves the
    closed formulas in degrees 1 and 2 on the side that uses the rule,
    and only there.  The mutant is the rule's own source minus the sign."""
    name, sign, side = BAR_SIGNS[mutant]
    source = inspect.getsource(getattr(complexes, name))
    assert source.count(sign) == 1
    namespace = {}
    exec(source.replace(sign, sign.split(" * ")[1]), vars(complexes), namespace)
    monkeypatch.setattr(complexes, name, namespace[name])
    try:
        for field in (QQ, GF(3)):
            complexes._bar_chain_rank.cache_clear()
            complexes._bar_cochain_rank.cache_clear()
            for m, h, c in bar_oracle_dims(3, 2, field):
                agrees = {"hh": h == hh_dim_formula(3, m, field.char),
                          "hhc": c == hhc_dim_formula(3, m, field.char)}
                assert not agrees.pop(side) or m == 0, (m, field)
                assert all(agrees.values()), (m, field)
    finally:
        complexes._bar_chain_rank.cache_clear()
        complexes._bar_cochain_rank.cache_clear()


def test_bar_oracle_n2():
    got = bar_oracle_dims(2, 3, QQ)
    assert got == [(0, 3, 2), (1, 4, 4), (2, 6, 6), (3, 8, 8)]


def test_bar_oracle_char2_n2():
    got = bar_oracle_dims(2, 2, GF(2))
    assert got == [(0, 4, 4), (1, 8, 8), (2, 12, 12)]


def test_bar_oracle_agrees_with_small_complex():
    for m, h, c in bar_oracle_dims(3, 2, QQ):
        assert h == hh_dim_computed(3, m, QQ)
        assert c == hhc_dim_computed(3, m, QQ)


def test_oracle_cap():
    assert largest_feasible_degree(2, 50000) == 7
    assert largest_feasible_degree(3, 50000) == 3
    assert largest_feasible_degree(4, 50000) == 1
    with pytest.raises(OracleInfeasibleError) as exc:
        bar_oracle_dims(3, 5, QQ, cap=50000)
    assert "941192" in str(exc.value)


def test_chain_matrix_validation():
    """The block generators, which build every chain and cochain matrix,
    reject degrees below their range."""
    with pytest.raises(ValueError):
        next(chain_blocks(2, 0, QQ))
    with pytest.raises(ValueError):
        next(cochain_blocks(2, -1, QQ))
    with pytest.raises(ValueError):
        next(bar_chain_blocks(2, 0, QQ))
    with pytest.raises(ValueError):
        next(bar_cochain_blocks(2, -1, QQ))
