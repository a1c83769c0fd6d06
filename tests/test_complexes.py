"""Chain/cochain matrices, dimension computations, bar oracle."""

import inspect
import json
import os
import subprocess
import sys
import time
from collections import Counter
from itertools import product

import pytest

from hhext import cli, complexes, resolution
from hhext.exactla import GF, QQ, apply, keyed_matrix, rank
from hhext.exterior import merge_signed
from hhext.formulas import (
    chain_rank_double_sum,
    chain_rank_terms,
    cochain_rank_double_sum,
    cochain_rank_terms,
    hh_dim_formula,
    hhc_dim_formula,
)
from hhext.complexes import (
    bar_chain_dim,
    bar_oracle_dims,
    largest_feasible_degree,
)
from hhext.resolution import (
    TermTables,
    chain_dim,
    resolution_ranks,
    verify_d_squared_zero,
    weight_blocks,
    weight_domain,
)


def chain_column(n, m, field):
    """Column rule of the degree-m chain differential, on fresh tables."""
    return TermTables(n, field).column(m, True)


def cochain_column(n, m, field):
    """Column rule of the cochain differential leaving degree m, on fresh
    tables."""
    return TermTables(n, field).column(m, False)


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


def weight(key, chain):
    """The weight a differential keeps: 1_idx + e for chains, e - 1_idx
    for cochains."""
    idx, e = key
    sign = 1 if chain else -1
    return tuple(x + sign * (h in idx) for h, x in enumerate(e, 1))


def reference_blocks(n, m, field, chain):
    """Every weight block of a differential, made without the orbit
    code: all_keys(n, m) grouped by weight, each group made a matrix by
    ``keyed_matrix`` and the column rule.  Like the block generators it
    leaves out every monomial degree whose columns are all empty.
    Returns {weight: (domain, matrix)}."""
    column = (chain_column if chain else cochain_column)(n, m, field)
    keys = all_keys(n, m)
    degrees = {len(idx) for idx, e in keys if column((idx, e))}
    groups = {}
    for key in keys:
        if len(key[0]) in degrees:
            groups.setdefault(weight(key, chain), []).append(key)
    return {w: (domain, keyed_matrix(domain, column, field))
            for w, domain in groups.items()}


def fresh(chain):
    """The block generator of one side as a function of (n, m, field),
    reading fresh term tables."""
    return lambda n, m, field: weight_blocks(TermTables(n, field), m, chain)


def sides(m):
    """(chain, block generator, column rule) of each differential leaving
    degree m."""
    return [(False, fresh(False), cochain_column)] + (
        [(True, fresh(True), chain_column)] if m else [])


def ranks(n, m_max, field):
    """The ranks of one pass at (n, field) up to m_max."""
    return resolution_ranks(TermTables(n, field), m_max)


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


def grade(idx, e):
    """Size of the support: indices in the monomial or with a positive exponent."""
    return len(set(idx) | {h + 1 for h, v in enumerate(e) if v})


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
        assert verify_d_squared_zero(TermTables(n, QQ), 4)
        assert verify_d_squared_zero(TermTables(n, GF(3)), 3)


def test_d_squared_zero_rejects_degree_zero():
    """At m_max = 0 no two differentials compose, so there is nothing to
    check: the call raises rather than pass."""
    with pytest.raises(ValueError):
        verify_d_squared_zero(TermTables(2, QQ), 0)


def test_computed_dims_frozen():
    r2, r3 = ranks(2, 4, QQ), ranks(3, 3, QQ)
    assert [r2.hh(m) for m in range(5)] == [3, 4, 6, 8, 10]
    assert [r2.hhc(m) for m in range(5)] == [2, 4, 6, 8, 10]
    assert [r3.hh(m) for m in range(4)] == [5, 12, 24, 40]
    assert [r3.hhc(m) for m in range(4)] == [5, 12, 24, 40]


def test_char2_matrices_vanish():
    F = GF(2)
    for n in (2, 3):
        for m in range(4):
            for column, d in ((cochain_column(n, m, F), m),
                              (chain_column(n, m + 1, F), m + 1)):
                assert keyed_matrix(all_keys(n, d), column, F).nnz() == 0
        assert ranks(n, 2, F).hh(2) == chain_dim(n, 2)


def test_odd_char_matches_rationals():
    got, want = ranks(2, 3, GF(3)), ranks(2, 3, QQ)
    assert got.chain == want.chain and got.cochain == want.cochain


SIZES = ((3, 5), (4, 4), (5, 3))
FIELDS = (QQ, GF(3), GF(2))


def test_blocks_partition_the_global_matrices():
    """The reference weight blocks' ranks sum to the global rank and
    their nonzeros to the global nonzeros, so the weight grading holds
    and the blocks cover every entry exactly once."""
    for field in FIELDS:
        for n, m_max in SIZES:
            for m in range(m_max + 1):
                for chain, _, column_of in sides(m):
                    column = column_of(n, m, field)
                    full = keyed_matrix(all_keys(n, m), column, field)
                    got = [M for _, M in reference_blocks(
                        n, m, field, chain).values()]
                    assert sum(map(rank, got)) == rank(full), (n, m, field)
                    assert sum(M.nnz() for M in got) == full.nnz(), (n, m, field)


def test_block_weights_are_nonincreasing_and_domains_hold_their_keys():
    """Every representative block has a nonincreasing weight, and its
    domain holds exactly the keys of that weight."""
    built = 0
    for field in FIELDS:
        for n in range(2, 6):
            for m in range(5):
                for chain, blocks, _ in sides(m):
                    reference = reference_blocks(n, m, field, chain)
                    for domain, _, _ in blocks(n, m, field):
                        w = weight(domain[0], chain)
                        assert list(w) == sorted(w, reverse=True)
                        assert sorted(domain) == sorted(reference[w][0])
                        built += 1
    assert built == 432


def test_weight_domain_is_the_block_domain():
    """On both sides weight_domain(n, m, w, chain) is the domain the
    block generator yields for the representative w, in the same order,
    and every key, empty column or not, lies in the domain of its own
    weight."""
    for field in (QQ, GF(3)):
        for n in range(2, 5):
            for m in range(4):
                for chain, blocks, _ in sides(m):
                    for domain, _, _ in blocks(n, m, field):
                        w = weight(domain[0], chain)
                        assert weight_domain(n, m, w, chain) == domain, (
                            n, m, w, chain)
                    by_weight = {}
                    for key in all_keys(n, m):
                        by_weight.setdefault(weight(key, chain), []).append(key)
                    for w, group in by_weight.items():
                        assert sorted(weight_domain(n, m, w, chain)) == sorted(
                            group), (n, m, w, chain)
    # a subset size |w| - m (of w + 1 for cochains) that is negative or
    # above the support size gives an empty domain
    assert weight_domain(2, 0, (1, 0), False) == []
    assert weight_domain(3, 1, (-1, 1, 1), False) == []
    assert weight_domain(2, 1, (-1, -1), False) == []
    assert weight_domain(2, 2, (1, 0), True) == []
    assert weight_domain(3, 1, (3, 0, 0), True) == []


def test_block_ranks_refine_rank_formulas():
    """Grouped by support size i, the orbit-weighted block ranks equal
    the outer terms C(n,i) * inner_i of the double-sum rank formulas.  A
    chain block's i is the support size of its weight 1_S + e; a cochain
    block's i is n minus the number of -1 entries of its weight e - 1_S."""
    for field in FIELDS:
        for n in range(2, 6):
            for m in range(5):
                for chain, blocks, _ in sides(m):
                    got = Counter()
                    for domain, M, orbit in blocks(n, m, field):
                        w = weight(domain[0], chain)
                        i = sum(map(bool, w)) if chain else n - w.count(-1)
                        got[i] += orbit * rank(M)
                    terms = (chain_rank_terms if chain else cochain_rank_terms)(
                        n, m, field.char)
                    assert +got == +Counter(terms), (n, m, field)


def _unsigned_rows(missing):
    """The row builder ``missing`` of the term tables with the sign
    (-1)^mu of inserting h into idx divided out of every entry, mu
    counting the indices of idx below h."""
    def mutant(table, idx):
        row = [(h, t, table.field.of((-1) ** sum(i < h for i in idx) * v))
               for h, t, v in missing(table, idx)]
        table[idx] = row
        return row
    return mutant


def test_dropped_sign_changes_block_ranks(monkeypatch):
    """Both rank engines go through the one term table: without the
    (-1)^mu insertion sign the ranks leave the formulas.  At n = 2 the
    mutant goes unnoticed, hence n = 3."""
    got = ranks(3, 2, QQ)
    assert got.chain[3] == chain_rank_double_sum(3, 3)
    assert got.cochain[2] == cochain_rank_double_sum(3, 2)
    monkeypatch.setattr(resolution._TermTable, "__missing__",
                        _unsigned_rows(resolution._TermTable.__missing__))
    got = ranks(3, 2, QQ)
    assert got.chain[3] != chain_rank_double_sum(3, 3)
    assert got.cochain[2] != cochain_rank_double_sum(3, 2)


def test_dropped_sign_breaks_d_squared_zero(monkeypatch):
    """The d^2 = 0 check applies the column rules of the term table, so
    it fails once the (-1)^mu insertion sign is divided out."""
    monkeypatch.setattr(resolution._TermTable, "__missing__",
                        _unsigned_rows(resolution._TermTable.__missing__))
    for n in (2, 3):
        for field in (QQ, GF(3)):
            assert not verify_d_squared_zero(TermTables(n, field), 4), (
                n, field)


def _unsigned_terms(m, h):
    """generator_terms with the (-1)^m of the right summand dropped."""
    return ((1, (h,), ()), (1, (), (h,)))


def test_dropped_degree_sign_fails_resolution_and_ranks(monkeypatch,
                                                        tmp_path):
    """generator_terms is the one definition of the differential: with
    its (-1)^m dropped, one ``verify`` run fails the resolution's
    composite-zero record, both rank records and both oracle comparisons,
    which read the matrices built from the same terms."""
    monkeypatch.setattr(resolution, "generator_terms", _unsigned_terms)
    out = tmp_path / "all.json"
    assert cli.main(["verify", "--n", "3", "--m-max", "3", "--suite", "all",
                     "--format", "json", "--no-timestamp", "--out",
                     str(out)]) == 1
    records = json.loads(out.read_text())["records"]
    failed = {r["id"] for r in records if r["status"] == "fail"}
    assert {"resolution.composite-zero", "ranks.chain", "ranks.cochain",
            "oracle.hh-vs-matrix", "oracle.hhc-vs-matrix"} <= failed, failed


def _quarter_sign_terms(m, h):
    """generator_terms with the right sign (-1)^(m // 2) in place of
    (-1)^m, so degrees of one parity no longer share their summands."""
    return ((1, (h,), ()), ((-1) ** (m // 2), (), (h,)))


def _parity_keyed(tables, m, chain):
    """TermTables.__call__ with its tables keyed by the side and the
    parity of the degree d of their summands."""
    d = m if chain else m + 1
    key = chain, d % 2
    if key not in tables._made:
        summands = tuple(resolution.generator_terms(d, h)
                         for h in range(1, tables.n + 1))
        tables._made[key] = resolution._TermTable(summands, tables.field,
                                                  chain)
    return tables._made[key]


def _ranks_per_degree(n, m_max, field):
    """(chain, cochain) ranks as ``resolution_ranks`` lists them, each
    degree summed over the blocks of a fresh table."""
    def orbit_sum(chain, m):
        return sum(orbit * rank(M) for _, M, orbit in fresh(chain)(n, m, field))
    return ([0] + [orbit_sum(True, m) for m in range(1, m_max + 2)],
            [orbit_sum(False, m) for m in range(m_max + 1)])


def test_tables_are_keyed_by_summand_list(monkeypatch, tmp_path):
    """With the right sign of generator_terms planted as (-1)^(m // 2),
    the ranks of one pass equal those from a fresh table per degree:
    each table is keyed by its summand list, and the planted degrees
    move (chain m = 1, 2, 5 and cochain m = 0, 1, 4, 5 at n = 3).
    ``verify --suite ranks`` fails ranks.chain in those degrees.  Tables
    keyed by the parity of the degree give other ranks."""
    true = ranks(3, 5, QQ)
    monkeypatch.setattr(resolution, "generator_terms", _quarter_sign_terms)
    got = ranks(3, 5, QQ)
    want = _ranks_per_degree(3, 5, QQ)
    assert (got.chain, got.cochain) == want
    assert [m for m in range(7) if got.chain[m] != true.chain[m]] == [
        1, 2, 5, 6]
    assert [m for m in range(6) if got.cochain[m] != true.cochain[m]] == [
        0, 1, 4, 5]
    with monkeypatch.context() as mp:
        mp.setattr(resolution.TermTables, "__call__", _parity_keyed)
        parity = ranks(3, 5, QQ)
    assert (parity.chain, parity.cochain) != want
    out = tmp_path / "ranks.json"
    assert cli.main(["verify", "--n", "3", "--m-max", "5", "--suite",
                     "ranks", "--format", "json", "--no-timestamp",
                     "--out", str(out)]) == 1
    records = json.loads(out.read_text())["records"]
    failed = {(r["id"], r["params"]["m"]) for r in records
              if r["status"] == "fail" and r["id"].startswith("ranks.")
              and r["id"] != "ranks.composite-zero"}
    assert failed == {("ranks.chain", m) for m in (1, 2, 5)} | {
        ("ranks.cochain", m) for m in (0, 1, 4, 5)}


def _flip_one_sign(make, key0):
    """The matrix maker ``make`` with one sign flipped: in a matrix whose
    domain holds key0, the first entry of key0's column, if it has one.
    The shared term table, which every block and every column rule
    reads, is left as it is."""
    def mutant(domain, column, field):
        M = make(domain, column, field)
        if key0 in domain:
            c = domain.index(key0)
            row = next((row for row in M.entries if c in row), None)
            if row:
                row[c] = field.of(-row[c])
        return M
    return mutant


# Per side: its closed double sum, its blocks, the record that compares
# them, and the degree and key of one planted sign at n = 4.  Each key
# lies in a representative block whose weight has an orbit of more than
# one: chain weight (2, 1, 1, 0), orbit 12; cochain weight (1, 0, 0, 0),
# orbit 4.  The cochain key also lies in the chain block of weight
# (3, 0, 0, 0) leaving degree 2, whose only column is empty.
PLANTED = {
    "chain": (chain_rank_double_sum, fresh(True), "ranks.chain", 3,
              ((1,), (1, 1, 1, 0))),
    "cochain": (cochain_rank_double_sum, fresh(False), "ranks.cochain",
                2, ((1,), (2, 0, 0, 0))),
}


@pytest.mark.parametrize("side", sorted(PLANTED))
def test_planted_sign_in_a_representative_block_is_caught(
        monkeypatch, tmp_path, side):
    """One sign flipped in a representative weight block takes that
    side's rank off the double sum in the planted degree only, and
    ``verify --suite ranks`` fails there: the rank the block carries
    for its whole orbit is the rank of the block as built, by
    ``keyed_matrix`` as hhext.resolution binds it."""
    double_sum, blocks, record, m0, key0 = PLANTED[side]
    assert sum(orbit > 1 for domain, _, orbit
               in blocks(4, m0, QQ) if key0 in domain) == 1
    monkeypatch.setattr(resolution, "keyed_matrix",
                        _flip_one_sign(resolution.keyed_matrix, key0))
    for field in (QQ, GF(3)):
        got = getattr(ranks(4, 3, field), side)
        for m in range(1, 4):
            agrees = got[m] == double_sum(4, m, field.char)
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


def test_orbit_sums_equal_the_all_weights_sums():
    """The ranks of one pass, which ranks one block per S_n orbit, equal
    the sums of the ranks of the blocks of every weight."""
    for field in FIELDS:
        for n in range(2, 6):
            got = ranks(n, 5, field)
            for m in range(6):
                for chain, *_ in sides(m):
                    assert (got.chain if chain else got.cochain)[m] == sum(
                        rank(M) for _, M in reference_blocks(
                            n, m, field, chain).values()), (n, m, field)


def _orbit_key_counts(n, m, field):
    """Per side, the sum of orbit size times domain size over the
    representative blocks, and the number of keys in the reference
    blocks of every weight."""
    return [(sum(orbit * len(domain) for domain, _, orbit
                 in blocks(n, m, field)),
             sum(len(domain) for domain, _ in reference_blocks(
                 n, m, field, chain).values()))
            for chain, blocks, _ in sides(m)]


def test_representatives_cover_every_built_key():
    """The orbits of the representatives hold exactly the keys of the
    blocks of every weight, counted with orbit size times domain size."""
    for field in FIELDS:
        for n in range(2, 6):
            for m in range(5):
                for got, want in _orbit_key_counts(n, m, field):
                    assert got == want, (n, m, field)


def _skew(partitions, dup):
    """The partition generator ``partitions`` yielding its first
    partition twice (``dup``) or dropping it."""
    def mutant(k, parts, top):
        out = list(partitions(k, parts, top))
        return out[:1] + out if dup else out[1:]
    return mutant


@pytest.mark.parametrize("dup", (True, False), ids=("duplicated", "dropped"))
def test_dropped_or_duplicated_representative_is_caught(monkeypatch, dup):
    """A representative yielded twice, or not at all, breaks the orbit
    count of the keys."""
    monkeypatch.setattr(resolution, "_partitions",
                        _skew(resolution._partitions, dup))
    assert all(got != want for got, want in _orbit_key_counts(3, 2, QQ))


# The two halves of the complement identity, each as written in the
# source of its function, and the mutant that drops it.
COMPLEMENT = {
    "complement-dropped": ("weight_domain",
                           "T if chain else tuple(sorted(gens.difference(T)))",
                           "T"),
    "run-at-j": ("weight_blocks", "k = j if chain else n - j", "k = j"),
}


@pytest.mark.parametrize("mutant", sorted(COMPLEMENT))
def test_cochain_blocks_without_the_complement_are_caught(
        monkeypatch, tmp_path, mutant):
    """The cochain blocks with the complement of T dropped from their
    keys, or enumerated at monomial degree j instead of n - j, take every
    cochain rank at n = 3 off its double sum and leave the chain ranks
    alone; ``verify --suite ranks`` fails ranks.cochain only.  Dropping
    the complement also fails the domain test."""
    name, text, replacement = COMPLEMENT[mutant]
    source = inspect.getsource(getattr(resolution, name))
    assert source.count(text) == 1
    namespace = {}
    exec(source.replace(text, replacement), vars(resolution), namespace)
    monkeypatch.setattr(resolution, name, namespace[name])
    for field in (QQ, GF(3)):
        got = ranks(3, 3, field)
        assert all(got.cochain[m] != cochain_rank_double_sum(3, m, field.char)
                   for m in range(4)), field
        assert all(got.chain[m] == chain_rank_double_sum(3, m, field.char)
                   for m in range(1, 5)), field
    out = tmp_path / "ranks.json"
    assert cli.main(["verify", "--n", "3", "--m-max", "3", "--suite",
                     "ranks", "--format", "json", "--no-timestamp",
                     "--out", str(out)]) == 1
    failed = {r["id"] for r in json.loads(out.read_text())["records"]
              if r["status"] == "fail"}
    assert failed == {"ranks.cochain"}
    if name == "weight_domain":
        with pytest.raises(AssertionError):
            test_weight_domain_is_the_block_domain()


def test_orbit_size_of_one_fails_ranks_and_dims(monkeypatch, tmp_path):
    """With the orbit size forced to 1 for every weight with a repeated
    entry, both rank records and the homology dimensions fail."""
    orbit = resolution._orbit
    monkeypatch.setattr(resolution, "_orbit",
                        lambda w: orbit(w) if len(set(w)) == len(w) else 1)
    failed = set()
    for args in (["verify", "--suite", "ranks"], ["dims"]):
        out = tmp_path / "report.json"
        assert cli.main(args + ["--n", "3", "--m-max", "3", "--format",
                                "json", "--no-timestamp", "--out",
                                str(out)]) == 1
        failed |= {r["id"] for r in json.loads(out.read_text())["records"]
                   if r["status"] == "fail"}
    assert {"ranks.chain", "ranks.cochain", "dims.hh"} <= failed, failed


def test_orbit_sums_reach_n16():
    """At n = 16 the ranks of one pass up to m = 3 still equal the double
    sums over Q, and every term table builds fewer rows than there are
    monomials: only those that some representative block reads."""
    tables = TermTables(16, QQ)
    got = resolution_ranks(tables, 3)
    assert got.chain == [0] + [chain_rank_double_sum(16, m)
                               for m in range(1, 5)]
    assert got.cochain == [cochain_rank_double_sum(16, m) for m in range(4)]
    built = [len(table) for table in tables._made.values()]
    assert len(built) == 4 and max(built) < 2 ** 16, built


def test_bar_dims():
    assert bar_chain_dim(2, 0) == 4
    assert bar_chain_dim(2, 2) == 36
    assert bar_chain_dim(3, 3) == 2744


def bar_code(slots, n):
    """The oracle's code of a bar key from its slots: slots[i] << i n
    summed, for the chain (a0, a1, ..., am) the slots a0, ..., am and for
    the cochain (w, b) the slots b, w1, ..., wm."""
    return sum(a << i * n for i, a in enumerate(slots))


def bar_slots(code, n, length):
    """The ``length`` slots of a bar code, inverse to ``bar_code``; no bit
    may lie above them."""
    assert code >> length * n == 0, (code, n, length)
    return tuple(code >> i * n & (1 << n) - 1 for i in range(length))


def bar_chain_keys(n, m):
    """Every degree-m bar chain (a0, a1, ..., am), a1..am nonunit."""
    return [(a,) + w for a in range(2 ** n)
            for w in product(range(1, 2 ** n), repeat=m)]


def bar_cochain_keys(n, m):
    """Every degree-m bar cochain (w, b): m nonunit arguments, a value b."""
    return [(w, b) for w in product(range(1, 2 ** n), repeat=m)
            for b in range(2 ** n)]


def bar_chain_codes(n, m):
    return [bar_code(t, n) for t in bar_chain_keys(n, m)]


def bar_cochain_codes(n, m):
    return [bar_code((b,) + w, n) for w, b in bar_cochain_keys(n, m)]


def monomial_product(a, b):
    """ab for bitmask monomials, through the index tuples of exterior:
    None when it vanishes, else (sign, a | b)."""
    def indices(x):
        return tuple(h + 1 for h in range(x.bit_length()) if x >> h & 1)
    res = merge_signed(indices(a), indices(b))
    return res and (res[0], a | b)


def nonzero(col):
    return {key: v for key, v in col.items() if v}


def reference_bar_chain_rule(m):
    """The degree-m bar chain differential on tuple keys, from the
    definition: d(a0, ..., am) is the sum over i < m of
    (-1)^i (a0, ..., a_i a_(i+1), ..., am), plus the wrap-around
    (-1)^m (am a0, a1, ..., a_(m-1))."""
    def column(t):
        col = Counter()
        for i in range(m):
            res = monomial_product(t[i], t[i + 1])
            if res:
                col[t[:i] + (res[1],) + t[i + 2:]] += (-1) ** i * res[0]
        res = monomial_product(t[m], t[0])
        if res:
            col[(res[1],) + t[1:m]] += (-1) ** m * res[0]
        return nonzero(col)
    return column


def reference_bar_cochain_rule(n, m):
    """The bar cochain differential leaving degree m on tuple keys (w, b),
    from the definition (df)(a1, ..., a_(m+1)) = a1 f(a2, ...) + sum of
    (-1)^i f(..., a_i a_(i+1), ...) + (-1)^(m+1) f(a1, ..., am) a_(m+1):
    the dual basis element (w, b) goes to ((a,) + w, ab), to
    (-1)^i (w with w_i split as uv, b), and to (-1)^(m+1) (w + (a,), ba)."""
    def column(key):
        w, b = key
        col = Counter()
        for a in range(1, 2 ** n):
            res = monomial_product(a, b)
            if res:
                col[((a,) + w, res[1])] += res[0]
            res = monomial_product(b, a)
            if res:
                col[(w + (a,), res[1])] += (-1) ** (m + 1) * res[0]
        for i in range(1, m + 1):
            for u in range(1, 2 ** n):
                v = w[i - 1] ^ u  # uv = w_i: u and v split its generators
                if v and u | v == w[i - 1]:
                    split = w[:i - 1] + (u, v) + w[i:]
                    col[(split, b)] += (-1) ** i * monomial_product(u, v)[0]
        return nonzero(col)
    return column


def test_coded_bar_rules_match_the_tuple_reference():
    """At n = 2, 3 and m <= 3, the image of every bar key under the
    oracle's coded column rule decodes to its image under the tuple
    reference rule."""
    for n in (2, 3):
        for m in range(1, 4):
            rule = complexes._bar_chain_rule(n, m)
            ref = reference_bar_chain_rule(m)
            for t in bar_chain_keys(n, m):
                got = {bar_slots(code, n, m): v
                       for code, v in nonzero(rule(bar_code(t, n))).items()}
                assert got == ref(t), (n, m, t)
        for m in range(4):
            rule = complexes._bar_cochain_rule(n, m)
            ref = reference_bar_cochain_rule(n, m)
            for w, b in bar_cochain_keys(n, m):
                got = nonzero(rule(bar_code((b,) + w, n)))
                got = {(slots[1:], slots[0]): v for code, v in got.items()
                       for slots in [bar_slots(code, n, m + 2)]}
                assert got == ref((w, b)), (n, m, w, b)


def test_bar_differential_squares_to_zero():
    """Both bar column rules, applied twice to each key, give zero; each
    single application is nonzero somewhere."""
    chain, cochain = complexes._bar_chain_rule, complexes._bar_cochain_rule
    for m in (2, 3):
        d, d_below = chain(2, m), chain(2, m - 1)
        keys = bar_chain_codes(2, m)
        assert any(apply(d, {t: 1}, QQ) for t in keys)
        for t in keys:
            assert apply(d_below, apply(d, {t: 1}, QQ), QQ) == {}
    for m in (0, 1):
        d, d_above = cochain(2, m), cochain(2, m + 1)
        keys = bar_cochain_codes(2, m)
        assert any(apply(d, {t: 1}, QQ) for t in keys)
        for t in keys:
            assert apply(d_above, apply(d, {t: 1}, QQ), QQ) == {}


BAR_SIZES = ((2, 5), (3, 3), (4, 2))


def bar_rule(n, m, chain):
    """The oracle's column rule of the degree-m bar chain differential
    (``chain``) or of the bar cochain differential leaving degree m."""
    return (complexes._bar_chain_rule if chain
            else complexes._bar_cochain_rule)(n, m)


def bar_blocks(n, m, field, chain):
    """(domain, block matrix) of every generator-count block of that
    differential: the oracle's domains, built with its column rule."""
    column = bar_rule(n, m, chain)
    domains = [complexes._bar_domain(block)
               for block in complexes._bar_blocks(n, m, chain)]
    return [(domain, keyed_matrix(domain, column, field))
            for domain in domains]


def test_bar_blocks_partition_the_global_matrices():
    """The generator-count blocks cover every bar chain and cochain
    exactly once, and their ranks and nonzeros sum to the global ones."""
    for field in FIELDS:
        for n, m_max in BAR_SIZES:
            for m in range(m_max + 1):
                pairs = [(False, bar_cochain_codes(n, m))]
                if m >= 1:
                    pairs.append((True, bar_chain_codes(n, m)))
                for chain, every_key in pairs:
                    full = keyed_matrix(every_key, bar_rule(n, m, chain), field)
                    got = bar_blocks(n, m, field, chain)
                    keys = [key for domain, _ in got for key in domain]
                    assert len(set(keys)) == len(keys) == bar_chain_dim(n, m)
                    assert sum(rank(M) for _, M in got) == rank(full), (n, m, field)
                    assert sum(M.nnz() for _, M in got) == full.nnz(), (n, m, field)


# Each sign of the two bar column rules, as written in the rule's source,
# the same expression without the sign, and the side of the oracle that
# goes through it.  A chain face reads its sign table by its parity.
BAR_SIGNS = {
    "chain-interior": ("_bar_chain_rule", "tables[i & 1]", "tables[0]", "hh"),
    "chain-wrap-around": ("_bar_chain_rule", "tables[m & 1]", "tables[0]",
                          "hh"),
    "cochain-right-action": ("_bar_cochain_rule",
                             "(-1) ** (m + 1) * signs[b | a << n]",
                             "signs[b | a << n]", "hhc"),
    "cochain-split": ("_bar_cochain_rule", "(-1) ** i * sign", "sign", "hhc"),
}


@pytest.mark.parametrize("mutant", sorted(BAR_SIGNS))
def test_dropped_bar_sign_breaks_the_oracle(monkeypatch, mutant):
    """With one sign of a bar column rule dropped, the oracle leaves the
    closed formulas in degrees 1 and 2 on the side that uses the rule,
    and only there.  The mutant is the rule's own source minus the sign."""
    name, sign, unsigned, side = BAR_SIGNS[mutant]
    source = inspect.getsource(getattr(complexes, name))
    assert source.count(sign) == 1
    namespace = {}
    exec(source.replace(sign, unsigned), vars(complexes), namespace)
    monkeypatch.setattr(complexes, name, namespace[name])
    for field in (QQ, GF(3)):
        dims = bar_oracle_dims(3, 2, field)
        assert len(dims) == 3
        for m, h, c in dims:
            agrees = {"hh": h == hh_dim_formula(3, m, field.char),
                      "hhc": c == hhc_dim_formula(3, m, field.char)}
            assert not agrees.pop(side) or m == 0, (m, field)
            assert all(agrees.values()), (m, field)


def test_bar_oracle_n2():
    got = bar_oracle_dims(2, 3, QQ)
    assert got == [(0, 3, 2), (1, 4, 4), (2, 6, 6), (3, 8, 8)]


def test_bar_oracle_char2_n2():
    got = bar_oracle_dims(2, 2, GF(2))
    assert got == [(0, 4, 4), (1, 8, 8), (2, 12, 12)]


def test_bar_oracle_agrees_with_small_complex():
    got = ranks(3, 2, QQ)
    dims = bar_oracle_dims(3, 2, QQ)
    assert len(dims) == 3
    for m, h, c in dims:
        assert (h, c) == (got.hh(m), got.hhc(m))


def test_oracle_cap():
    """The oracle stops at the last degree under the cap: at n = 3 and
    cap 50 000 that is m = 3, whose largest term, degree 4, has 19 208
    columns (degree 5 would need 134 456)."""
    assert largest_feasible_degree(2, 50000) == 7
    assert largest_feasible_degree(3, 50000) == 3
    assert largest_feasible_degree(4, 50000) == 1
    assert bar_chain_dim(3, 4) <= 50000 < bar_chain_dim(3, 5)
    got = bar_oracle_dims(3, 5, QQ, cap=50000)
    assert got == [(m, hh_dim_formula(3, m), hhc_dim_formula(3, m))
                   for m in range(4)]


def test_oracle_below_the_first_term_builds_nothing(monkeypatch):
    """A cap below 2^n (2^n - 1), the largest term of degree 0, leaves no
    degree to the oracle: it returns [] and never forks."""
    def no_fork():
        raise AssertionError("forked with no degree under the cap")
    on_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    for n in (2, 3):
        assert bar_oracle_dims(n, 3, QQ, cap=bar_chain_dim(n, 1) - 1) == []


def test_oracle_rejects_a_negative_degree():
    with pytest.raises(ValueError):
        bar_oracle_dims(2, -1, QQ)


def test_oracle_rejects_one_generator(monkeypatch):
    """n = 1 is rejected before the cap loop, which would never end
    there ((2^1 - 1)^m = 1 stays under any cap), and before any fork."""
    def no_fork():
        raise AssertionError("forked before checking n")
    on_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(ValueError):
        largest_feasible_degree(1)
    with pytest.raises(ValueError):
        bar_oracle_dims(1, 2, QQ)


def bar_sides(m_max):
    """The bar differentials an oracle run up to m_max ranks, in the
    order of its running block index: (m, chain)."""
    return ([(m, True) for m in range(1, m_max + 2)]
            + [(m, False) for m in range(m_max + 1)])


def test_bar_shares_partition_the_work(monkeypatch):
    """For k = 1, 2, 3 the shares of ``_bar_share`` together build every
    bar block exactly once, and their per-differential ranks sum to those
    of the single share."""
    built = Counter()

    def counting(domain, column, field, make=complexes.keyed_matrix):
        # a code determines its degree; the rule tells the side
        built[column.__qualname__, domain[0]] += 1
        return make(domain, column, field)
    monkeypatch.setattr(complexes, "keyed_matrix", counting)
    for field in (QQ, GF(2), GF(3)):
        for n, m_max in BAR_SIZES:
            blocks = sum(len(complexes._bar_blocks(n, m, chain))
                         for m, chain in bar_sides(m_max))
            whole = None
            for k in (1, 2, 3):
                built.clear()
                got = [complexes._bar_share(n, m_max, field, share, k)
                       for share in range(k)]
                summed = [sum(column) for column in zip(*got, strict=True)]
                whole = whole or summed
                assert len(summed) == len(bar_sides(m_max))
                assert summed == whole, (n, m_max, field, k)
                assert len(built) == blocks and set(built.values()) == {1}


def on_cpus(monkeypatch, k):
    """Make the oracle split its blocks into k shares, all but the first
    ranked in forked children, whatever the host has."""
    monkeypatch.setattr(complexes, "_bar_cpus", lambda: k)


def test_a_child_share_is_used(monkeypatch):
    """One sign flipped in a block of share 1, and only in the forked
    child that ranks it, takes the oracle off the closed formulas: the
    child's ranks are summed in, not recomputed by the parent."""
    # the chain (2, 1, 2, 1) of degree 3, whose code no other block holds
    n, m_max, key0 = 3, 2, bar_code((2, 1, 2, 1), 3)
    domains = [complexes._bar_domain(block)
               for m, chain in bar_sides(m_max)
               for block in complexes._bar_blocks(n, m, chain)]
    index = [i for i, domain in enumerate(domains) if key0 in domain]
    assert len(index) == 1 and index[0] % 2 == 1
    on_cpus(monkeypatch, 2)
    parent, make = os.getpid(), complexes.keyed_matrix
    flipped = _flip_one_sign(make, key0)
    monkeypatch.setattr(complexes, "keyed_matrix", lambda *args: (
        make if os.getpid() == parent else flipped)(*args))
    for field in (QQ, GF(3)):
        dims = bar_oracle_dims(n, m_max, field)
        assert len(dims) == m_max + 1
        assert any((h, c) != (hh_dim_formula(n, m, field.char),
                              hhc_dim_formula(n, m, field.char))
                   for m, h, c in dims), field
    monkeypatch.setattr(complexes, "keyed_matrix", make)
    for field in (QQ, GF(3)):
        dims = bar_oracle_dims(n, m_max, field)
        assert len(dims) == m_max + 1
        assert all((h, c) == (hh_dim_formula(n, m, field.char),
                              hhc_dim_formula(n, m, field.char))
                   for m, h, c in dims), field


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failing_child_fails_the_call(monkeypatch):
    """A rank that raises in the forked children fails the oracle call,
    with no partial sum returned, and leaves no child and no zombie."""
    on_cpus(monkeypatch, 3)
    parent, true_rank = os.getpid(), complexes.rank

    def planted(M):
        if os.getpid() != parent:
            raise ValueError("planted")
        return true_rank(M)
    monkeypatch.setattr(complexes, "rank", planted)
    with pytest.raises(RuntimeError, match="planted"):
        bar_oracle_dims(3, 2, QQ)
    _no_child_left()


def test_an_interrupt_kills_the_children(monkeypatch):
    """An interrupt in the parent's own share propagates at once: the
    children, stuck in their first rank, are killed and reaped."""
    on_cpus(monkeypatch, 3)
    parent = os.getpid()

    def planted(M):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
    monkeypatch.setattr(complexes, "rank", planted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        bar_oracle_dims(3, 2, QQ)
    assert time.monotonic() - start < 30
    _no_child_left()


def test_the_oracle_leaves_no_child(monkeypatch):
    """A successful split call reaps every child it forked."""
    on_cpus(monkeypatch, 3)
    assert bar_oracle_dims(3, 1, GF(3)) == [(0, 5, 5), (1, 12, 12)]
    _no_child_left()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
def test_one_cpu_and_all_cpus_give_the_same_bytes():
    """The oracle report is byte-identical when the process may run on
    one CPU (one share, no fork) and on all of them, and it is written
    once."""
    args = [sys.executable, "-m", "hhext.cli", "verify", "--n", "3",
            "--m-max", "3", "--suite", "oracle", "--char", "3", "--format",
            "json", "--no-timestamp"]
    one = min(os.sched_getaffinity(0))
    outs = [subprocess.run(args, capture_output=True, check=True, timeout=120,
                           preexec_fn=pin).stdout
            for pin in (lambda: os.sched_setaffinity(0, {one}), None)]
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert outs[0].count(b'"records"') == 1
    assert report["summary"]["fail"] == 0
    assert any(r["id"].startswith("oracle.hh") for r in report["records"])


def test_chain_matrix_validation():
    """The block generators, which build every chain and cochain matrix,
    and the bar column rules reject degrees below their range."""
    with pytest.raises(ValueError):
        next(weight_blocks(TermTables(2, QQ), 0, True))
    with pytest.raises(ValueError):
        next(weight_blocks(TermTables(2, QQ), -1, False))
    with pytest.raises(ValueError):
        bar_rule(2, 0, True)
    with pytest.raises(ValueError):
        bar_rule(2, -1, False)
