"""Resolution generators: recursion, relation windows, differential."""

import inspect
import json

import pytest

from hhext import cli, resolution
from hhext.formulas import binom
from hhext.resolution import (
    bimodule_column,
    exponent_vectors,
    generator_polynomials,
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


def test_generator_polynomials_base_and_small():
    assert generator_polynomials(2, 0) == {(0, 0): {(): 1}}
    assert generator_polynomials(2, 1) == {(0, 1): {(2,): 1},
                                           (1, 0): {(1,): 1}}
    # mixed degree: all words of that multidegree, coefficient one each
    assert generator_polynomials(2, 2) == {
        (0, 2): {(2, 2): 1}, (1, 1): {(1, 2): 1, (2, 1): 1},
        (2, 0): {(1, 1): 1}}
    gens = generator_polynomials(3, 2)
    assert list(gens) == list(exponent_vectors(3, 2))
    assert gens[1, 0, 1] == {(1, 3): 1, (3, 1): 1}


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


def _lopsided(gens):
    """g(1, 1) = x_1 x_2 + 2 x_2 x_1 at n = 2."""
    gens[1, 1] = {(1, 2): 1, (2, 1): 2}


def test_relation_window_membership_fails_under_planted_defects(monkeypatch):
    """A generator with unequal x_1 x_2 and x_2 x_1 coefficients, or a
    relation list with x_1 x_2 - x_2 x_1 in place of x_1 x_2 + x_2 x_1,
    puts a middle slice outside the relations, and the check fails.  The
    lopsided generator also differs from the left-appended recursion, so
    the left-right check fails on it too."""
    n, m = 2, 2
    assert verify_relation_window_membership(n, m)
    assert verify_left_right(n, m)
    true_polys = resolution.generator_polynomials

    def lopsided(n, m):
        gens = true_polys(n, m)
        if m == 2:
            _lopsided(gens)
        return gens
    monkeypatch.setattr(resolution, "generator_polynomials", lopsided)
    assert not verify_relation_window_membership(n, m)
    assert not verify_left_right(n, m)
    monkeypatch.undo()

    relations = resolution._relations(n)
    flipped = [{k: v if k == min(rel) else -v for k, v in rel.items()}
               for rel in relations]
    assert sum(rel != old for rel, old in zip(flipped, relations)) == 1
    monkeypatch.setattr(resolution, "_relations", lambda n: flipped)
    assert not verify_relation_window_membership(n, m)


def test_left_right_fails_on_a_right_only_builder(monkeypatch):
    """A builder whose degree-3 level is the right-appended recursion on a
    lopsided degree-2 level agrees with appending on the right, not on
    the left, so the left-right check fails at m = 3."""
    true_polys = resolution.generator_polynomials

    def right_only(n, m):
        gens = true_polys(n, min(m, 2))
        if m >= 2:
            _lopsided(gens)
        if m == 3:
            gens = {e: resolution._appended(gens, e, right=True)
                    for e in exponent_vectors(n, 3)}
        return gens
    assert verify_left_right(2, 3)
    monkeypatch.setattr(resolution, "generator_polynomials", right_only)
    assert not verify_left_right(2, 3)


def _scaled(gens):
    """g(1, 1) = 2 x_1 x_2 + 2 x_2 x_1 at n = 2, still symmetric."""
    gens[1, 1] = {(1, 2): 2, (2, 1): 2}


def _dropped(gens):
    """The last generator dropped."""
    gens.popitem()


# Per record id of ``verify --suite resolution --n 2 --m-max 3``: the
# degree of generator_polynomials that a mutant edits, the edit, and the
# exact set of (id, m) that fail under it.  The generator is dropped in
# degree 3, so the left-right check, which reads degree 2 below degree 3,
# finds every generator it looks up.
LOPSIDED_FAILS = {
    ("resolution.coefficients", 2), ("resolution.left-right", 2),
    ("resolution.left-right", 3), ("resolution.window-membership", 2)}
RESOLUTION_MUTANTS = {
    "resolution.coefficients": (2, _scaled, {
        ("resolution.coefficients", 2), ("resolution.left-right", 2),
        ("resolution.left-right", 3)}),
    "resolution.left-right": (2, _lopsided, LOPSIDED_FAILS),
    "resolution.window-membership": (2, _lopsided, LOPSIDED_FAILS),
    "resolution.generator-count": (3, _dropped, {
        ("resolution.generator-count", 3)}),
}


@pytest.mark.parametrize("rid", sorted(RESOLUTION_MUTANTS))
def test_planted_generator_defects_fail_their_records_at_the_cli(
        tmp_path, monkeypatch, rid):
    """``verify --suite resolution --n 2 --m-max 3`` exits 1 under each
    mutant of generator_polynomials, with its record id among exactly
    the expected failures; unplanted, the run passes."""
    argv = ["verify", "--suite", "resolution", "--n", "2", "--m-max", "3",
            "--format", "json", "--no-timestamp", "--out",
            str(tmp_path / "resolution.json")]
    assert cli.main(argv) == 0
    degree, edit, want = RESOLUTION_MUTANTS[rid]
    true_polys = resolution.generator_polynomials

    def mutant(n, m):
        gens = true_polys(n, m)
        if m == degree:
            edit(gens)
        return gens
    monkeypatch.setattr(resolution, "generator_polynomials", mutant)
    assert cli.main(argv) == 1
    records = json.loads((tmp_path / "resolution.json").read_text())["records"]
    failed = {(r["id"], r["params"]["m"]) for r in records
              if r["status"] == "fail"}
    assert failed == want
    assert rid in {i for i, _ in failed}


def test_generator_space_dimension():
    for n in (2, 3):
        for m in range(2, 6):
            assert verify_generator_space_dim(n, m)


def test_differential_squares_to_zero():
    for n in (2, 3):
        for m in range(1, 5):
            assert verify_delta_squared_zero(n, m)


def test_bimodule_column_counts():
    """Each summand pair appears once per support index of the exponent;
    the products with the outer monomials carry their signs."""
    assert len(bimodule_column(((), (1, 1), ()))) == 4
    assert bimodule_column(((), (2, 0), ())) == {
        ((1,), (1, 0), ()): 1, ((), (1, 0), (1,)): 1}
    assert bimodule_column(((2,), (1, 0), ())) == {
        ((1, 2), (0, 0), ()): -1, ((2,), (0, 0), (1,)): -1}
    assert bimodule_column(((1,), (1, 0), (1,))) == {}


def _right_action_dropped():
    """bimodule_column with b in place of r.b: the right word of every
    summand is lost, the defect planted in the rule's own source."""
    source = inspect.getsource(resolution.bimodule_column)
    assert source.count("merge_signed(r, b)") == 1
    namespace = dict(vars(resolution))
    exec(source.replace("merge_signed(r, b)", "(1, b)"), namespace)
    return namespace["bimodule_column"]


def test_planted_right_action_fails_composite_zero(monkeypatch, tmp_path):
    """With the right action dropped from the bimodule rule, d^2 = 0 fails
    in every degree, and ``verify --suite resolution`` fails only its
    composite-zero record."""
    monkeypatch.setattr(resolution, "bimodule_column",
                        _right_action_dropped())
    for n in (2, 3):
        for m in range(1, 4):
            assert not verify_delta_squared_zero(n, m), (n, m)
    out = tmp_path / "resolution.json"
    assert cli.main(["verify", "--n", "3", "--m-max", "3", "--suite",
                     "resolution", "--format", "json", "--no-timestamp",
                     "--out", str(out)]) == 1
    records = json.loads(out.read_text())["records"]
    failed = {(r["id"], r["params"]["m"]) for r in records
              if r["status"] == "fail"}
    assert failed == {("resolution.composite-zero", m) for m in (1, 2)}


def test_validation():
    with pytest.raises(ValueError):
        generator_polynomials(2, -1)
    with pytest.raises(ValueError):
        verify_left_right(2, 0)
