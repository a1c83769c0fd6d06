"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines; each
test also asserts, so plain `pytest -v` gives the same pass/fail verdicts.
"""

import json
import subprocess
import sys
import time

from hhext.complexes import bar_oracle_dims, commutator_quotient_dim
from hhext.exactla import GF, QQ, apply, field_of_char
from hhext.formulas import (
    binom,
    binomial_sum_identity,
    chain_rank_closed_form,
    chain_rank_double_sum,
    cochain_rank_closed_form,
    cochain_rank_double_sum,
    hc_dim_formula,
    hh_dim_formula,
    hhc_dim_formula,
    hilbert_coeffs,
)
from hhext.resolution import (
    TermTables,
    chain_keys,
    resolution_ranks,
    verify_delta_squared_zero,
    verify_generator_space_dim,
    verify_left_right,
    verify_relation_window_membership,
)
from hhext.ring import (
    RELATION_FAMILIES,
    presentation_audit,
    verify_associativity,
    verify_graded_commutativity,
    verify_ring_relations,
)


def _report(num, desc, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {desc}")
    return ok


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hhext.cli", *args],
        capture_output=True,
        text=True,
    )


def test_criterion_01_homology_dimensions():
    t0 = time.perf_counter()
    ok = True
    for char in (0, 3):
        field = field_of_char(char)
        for n in (2, 3, 4):
            ranks = resolution_ranks(TermTables(n, field), 6)
            for m in range(7):
                got = ranks.hh(m)
                want = 2 ** (n - 1) + 1 if m == 0 else \
                    2 ** (n - 1) * binom(n + m - 1, n - 1)
                ok = ok and got == want == hh_dim_formula(n, m, char)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    assert _report(1, "homology dims match closed formula, chars 0 and 3", ok)


def test_criterion_02_cohomology_dimensions():
    ok = True
    for char in (0, 3):
        field = field_of_char(char)
        for n in (2, 3, 4):
            ranks = resolution_ranks(TermTables(n, field), 6)
            for m in range(7):
                got = ranks.hhc(m)
                want = 2 ** (n - 1) * binom(n + m - 1, n - 1)
                if m == 0 and n % 2 == 1:
                    want += 1
                ok = ok and got == want == hhc_dim_formula(n, m, char)
    assert _report(2, "cohomology dims match closed formula, chars 0 and 3",
                   ok)


def test_criterion_03_char2_branch():
    field = GF(2)

    def vanishes(n, m, chain):
        column = TermTables(n, field).column(m, chain)
        return not any(apply(column, {key: 1}, field)
                       for key in chain_keys(n, m))

    ok = True
    for n in (2, 3, 4):
        for m in range(1, 8):
            ok = ok and vanishes(n, m, True)
        for m in range(7):
            ok = ok and vanishes(n, m, False)
        ranks = resolution_ranks(TermTables(n, field), 6)
        for m in range(7):
            full = 2 ** n * binom(n + m - 1, n - 1)
            ok = ok and ranks.hh(m) == full
            ok = ok and ranks.hhc(m) == full
    assert _report(3, "char-2 differentials vanish and dims fill the term "
                   "spaces", ok)


def test_criterion_04_rank_formulas():
    ok = True
    for n in (2, 3, 4):
        ranks = resolution_ranks(TermTables(n, QQ), 6)
        chain, cochain = ranks.chain, ranks.cochain
        for m in range(1, 7):
            r = chain[m]
            ok = ok and r == chain_rank_double_sum(n, m)
            ok = ok and r == chain_rank_closed_form(n, m)
        for m in range(7):
            r = cochain[m]
            ok = ok and r == cochain_rank_double_sum(n, m)
            ok = ok and r == cochain_rank_closed_form(n, m)
        # pair sums against the term-space split, on computed ranks
        for m in range(1, 7):
            half = 2 ** (n - 1) * binom(n + m - 1, n - 1)
            ok = ok and chain[m] + chain[m + 1] == half
            ok = ok and cochain[m - 1] + cochain[m] == half
    assert _report(4, "computed ranks match double-sum and closed forms, "
                   "pair sums split term spaces", ok)


def test_criterion_05_binomial_identity():
    t0 = time.perf_counter()
    ok = all(
        binomial_sum_identity(n, m, j)
        for n in range(1, 7)
        for m in range(9)
        for j in range(n)
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    assert _report(5, "binomial reindexing identity holds on the full grid "
                   "in under a second", ok)


def test_criterion_06_independent_oracle():
    t0 = time.perf_counter()
    ok = True
    for char in (0, 2):
        field = field_of_char(char)
        for n, m_max in ((2, 4), (3, 3)):
            ranks = resolution_ranks(TermTables(n, field), m_max)
            dims = bar_oracle_dims(n, m_max, field)
            ok = ok and len(dims) == m_max + 1
            for m, h, c in dims:
                ok = ok and h == ranks.hh(m)
                ok = ok and h == hh_dim_formula(n, m, char)
                ok = ok and c == ranks.hhc(m)
                ok = ok and c == hhc_dim_formula(n, m, char)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    assert _report(6, "reduced bar complex reproduces minimal-resolution "
                   "dims, chars 0 and 2", ok)


def test_criterion_07_resolution_structure():
    ok = True
    for n in (2, 3, 4):
        for m in range(1, 7):
            ok = ok and verify_left_right(n, m)
            ok = ok and verify_delta_squared_zero(n, m)
        for m in range(2, 7):
            ok = ok and verify_relation_window_membership(n, m)
            ok = ok and verify_generator_space_dim(n, m)
    assert _report(7, "resolution maps are two-sided, composite-zero, with "
                   "relation spaces of the right size", ok)


def test_criterion_08_commutator_quotient():
    ok = True
    for n in range(2, 6):
        ok = ok and commutator_quotient_dim(n, QQ) == 2 ** (n - 1) + 1
        ok = ok and commutator_quotient_dim(n, GF(3)) == 2 ** (n - 1) + 1
        ok = ok and commutator_quotient_dim(n, GF(2)) == 2 ** n
    assert _report(8, "commutator quotient cross-checks the degree-0 dim "
                   "without the complex", ok)


def test_criterion_09_cyclic_homology():
    ok = True
    for n in (2, 3, 4):
        ranks = resolution_ranks(TermTables(n, QQ), 8)
        for m in range(1, 9):
            lhs = hc_dim_formula(n, m) + hc_dim_formula(n, m - 1)
            ok = ok and lhs == ranks.hh(m) + 1
    seq = [hc_dim_formula(2, m) for m in range(8)]
    ok = ok and seq == [3, 2, 5, 4, 7, 6, 9, 8]
    ok = ok and seq[:3] == [3, 2, 5] and seq[5] == 6 and seq[6] == 9
    assert _report(9, "cyclic dims satisfy the recurrence against computed "
                   "hh dims; n=2 spot values check out", ok)


def test_criterion_10_hilbert_series():
    ok = True
    for char in (0, 2):
        for n in (2, 3, 4):
            coeffs = hilbert_coeffs(n, char, 6)
            ok = ok and coeffs == [hhc_dim_formula(n, m, char)
                                   for m in range(7)]
    assert _report(10, "first seven Hilbert coefficients match cohomology "
                   "dims, chars 0 and 2", ok)


def test_criterion_11_ring_relations():
    ok = len(RELATION_FAMILIES) == 24
    for n in (2, 3, 4):
        ok = ok and not any(rec["failures"]
                            for rec in verify_ring_relations(n, QQ))
        ok = ok and verify_associativity(n, QQ, 5)
        ok = ok and verify_graded_commutativity(n, QQ, 5)
    assert _report(11, "all 24 tabulated relation families hold; product "
                   "associative and graded-commutative to degree 5", ok)


def _presentation_audit(n, deg_max):
    """presentation_audit over Q against the computed dimensions."""
    ranks = resolution_ranks(TermTables(n, QQ), deg_max)
    return presentation_audit(n, QQ, [ranks.hhc(d) for d in range(deg_max + 1)])


def test_criterion_12_presentation_audit():
    ok = True
    for n in (2, 4):
        for row in _presentation_audit(n, 6):
            ok = (ok and row["count"] == row["expected"]
                  and row["evaluations_independent"])
    # n = 3 has a genuine degree-0 shortfall: 4 normal forms vs dim 5.
    rows = {row["degree"]: row for row in _presentation_audit(3, 6)}
    ok = ok and rows[0]["count"] == 4 and rows[0]["expected"] == 5
    ok = ok and all(rows[d]["count"] == rows[d]["expected"]
                    for d in range(1, 7))
    ok = ok and all(rows[d]["evaluations_independent"] for d in range(7))
    r = run_cli("ring", "--n", "3", "--deg-max", "2", "--format", "json",
                "--no-timestamp")
    rep = json.loads(r.stdout)
    flagged = [rec for rec in rep["records"]
               if rec["id"] == "ring.presentation"
               and rec["status"] == "finding"
               and rec["params"].get("degree") == 0]
    ok = ok and r.returncode == 0 and len(flagged) == 1
    ok = ok and rep["summary"]["fail"] == 0
    assert _report(12, "normal-form counts match dims for n=2,4; n=3 "
                   "degree-0 shortfall is recorded as a finding", ok)


def test_criterion_13_char2_ring():
    r = run_cli("ring", "--n-max", "4", "--deg-max", "5", "--char", "2",
                "--format", "json", "--no-timestamp")
    rep = json.loads(r.stdout)
    ok = r.returncode == 0 and rep["summary"]["fail"] == 0
    ok = ok and sorted({rec["params"]["n"] for rec in rep["records"]}) == [
        2, 3, 4]
    assert _report(13, "char-2 ring passes the checks of every other "
                   "characteristic for n = 2..4 through degree 5", ok)


def test_criterion_14_deterministic_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("verify", "--n", "2", "--m-max", "3", "--suite", "all",
            "--format", "json", "--no-timestamp")
    ra = run_cli(*args, "--out", str(a))
    rb = run_cli(*args, "--out", str(b))
    ok = ra.returncode == 0 and rb.returncode == 0
    ok = ok and a.read_bytes() == b.read_bytes()
    assert _report(14, "identical configs produce byte-identical reports "
                   "with the timestamp suppressed", ok)
