"""Cup product ring: classes, relations, presentation, every characteristic."""

import json
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from hhext import cli, resolution, ring
from hhext.exactla import GF, QQ
from hhext.exterior import merge_signed, monomials
from hhext.resolution import (
    TermTables,
    chain_keys,
    exponent_vectors,
    key_weight,
    resolution_ranks,
)
from hhext.ring import (
    add,
    apply_differential,
    classes_equal,
    cochain,
    cohomology_basis,
    cup,
    evaluate_word,
    generators,
    in_coboundary_image,
    is_cocycle,
    presentation_audit,
    presentation_count,
    presentation_normal_forms,
    relation_instances,
    unit_class,
    verify_associativity,
    verify_cohomology_basis,
    verify_graded_commutativity,
    verify_ring_relations,
    verify_unital,
)


def test_cup_single_terms():
    V = generators(2)[1]
    a, b = V[1, 1], V[2, 1]
    prod = cup(a, b, QQ)
    assert prod == {((1, 2), (2, 0)): 1}
    # swapping the monomials flips the sign
    assert cup(b, a, QQ) == {((1, 2), (2, 0)): QQ.of(-1)}
    # a repeated generator dies
    assert not cup(a, a, QQ)


def test_unit_class():
    one = unit_class(3)
    g = generators(3)[2][1, 3]
    assert cup(one, g, QQ) == g and cup(g, one, QQ) == g
    assert verify_unital(2, QQ, 3)


def test_structure_checks_reject_an_empty_degree_range():
    """Below total degree 0 the unit, commutativity and associativity
    checks would multiply nothing: each raises rather than pass."""
    for check in (verify_unital, verify_graded_commutativity,
                  verify_associativity):
        with pytest.raises(ValueError):
            check(2, QQ, -1)


def test_cocycle_detection():
    """Parity-pure terms are cocycles; a lone impure term is not."""
    assert is_cocycle(generators(2)[1][1, 2], QQ)
    impure = cochain(2, 1, QQ, {((), (1, 0)): 1})
    assert not is_cocycle(impure, QQ)


def _coboundary(n, m, key, field=QQ):
    """The coboundary of one degree-(m - 1) key, nonzero by assertion."""
    cob = apply_differential(cochain(n, m - 1, field, {key: 1}), field)
    assert cob
    return cob


def test_classes_equal_modulo_coboundary():
    """A class shifted by a coboundary equals the class: the shift is the
    opposite-parity part of the shifted cocycle, and it is a coboundary."""
    v = generators(2)[1][1, 1]
    cob = _coboundary(2, 1, ((1,), (0, 0)))
    shifted = add(v, cob, QQ)
    assert shifted != v
    assert classes_equal(shifted, v, QQ) and classes_equal(v, shifted, QQ)
    assert in_coboundary_image(add(shifted, v, QQ, -1), QQ)


def test_classes_unequal_off_coboundaries():
    """Two cochains are unequal classes when their difference is a cocycle
    but no coboundary, and when it is no cocycle at all."""
    V = generators(2)[1]
    v, w = V[1, 1], V[2, 1]
    assert is_cocycle(add(w, v, QQ, -1), QQ) and not classes_equal(v, w, QQ)
    # the same difference, with a coboundary added on top
    cob = _coboundary(2, 1, ((1,), (0, 0)))
    assert not classes_equal(add(v, cob, QQ), w, QQ)
    impure = cochain(2, 1, QQ, {((), (1, 0)): 1})
    assert not is_cocycle(impure, QQ)
    assert not classes_equal(add(v, impure, QQ), v, QQ)
    assert not classes_equal(impure, {}, QQ)


def hhc(n, m_max, field=QQ):
    """The computed cohomology dimensions in degrees 0..m_max, over Q
    unless another field is given."""
    ranks = resolution_ranks(TermTables(n, field), m_max)
    return [ranks.hhc(m) for m in range(m_max + 1)]


def test_cohomology_basis_counts():
    assert [len(cohomology_basis(2, m, QQ)) for m in range(4)] == [2, 4, 6, 8]
    assert [len(cohomology_basis(3, m, QQ)) for m in range(4)] == [5, 12, 24, 40]
    # characteristic 2: every single term, 2^n C(n+m-1, m) in degree m
    for n in (2, 3):
        assert [len(cohomology_basis(n, m, GF(2))) for m in range(4)] == [
            2 ** n * comb(n + m - 1, m) for m in range(4)]


def test_cohomology_basis_independent():
    for n in (2, 3):
        for m in range(4):
            assert verify_cohomology_basis(n, m, QQ,
                                           cohomology_basis(n, m, QQ),
                                           hhc(n, m)[m])


def _same_weight_pair(basis):
    """Indices i < j of two basis vectors of the same weight."""
    seen = {}
    for j, vec in enumerate(basis):
        v = key_weight(next(iter(vec)), False)
        if v in seen:
            return seen[v], j
        seen[v] = j
    raise AssertionError("no two basis vectors share a weight")


def test_cohomology_basis_check_works_within_a_weight():
    """A basis vector shifted by another of the same weight still passes;
    the shifted vector has two terms, both in one weight.  A repeated
    vector fails."""
    n, m = 3, 2
    dim = hhc(n, m)[m]
    basis = cohomology_basis(n, m, QQ)
    i, j = _same_weight_pair(basis)
    shifted = list(basis)
    shifted[i] = add(basis[i], basis[j], QQ)
    assert verify_cohomology_basis(n, m, QQ, shifted, dim)
    repeated = list(basis)
    repeated[i] = basis[j]
    assert not verify_cohomology_basis(n, m, QQ, repeated, dim)


def test_cohomology_basis_check_rejects_a_coboundary(monkeypatch):
    """A nonzero coboundary put in place of a basis vector is a cocycle in
    one weight, so only the span of that weight's coboundaries can reject
    it: the check fails, and passes once that span is emptied."""
    n, m = 3, 2
    dim = hhc(n, m)[m]
    basis = cohomology_basis(n, m, QQ)
    cob = _coboundary(n, m, ((), (1, 0, 0)))
    assert len({key_weight(key, False) for key in cob}) == 1
    planted = [cob] + basis[1:]
    assert not verify_cohomology_basis(n, m, QQ, planted, dim)
    monkeypatch.setattr(ring, "weight_domain", lambda *args: [])
    assert verify_cohomology_basis(n, m, QQ, planted, dim)


def test_cohomology_basis_check_rejects_a_mixed_weight_vector():
    """A basis vector plus another of a different weight is still a
    cocycle, but it lies in two weights, and the check returns False."""
    n, m = 3, 2
    dim = hhc(n, m)[m]
    basis = cohomology_basis(n, m, QQ)
    mixed = [add(basis[0], basis[-1], QQ)] + basis[1:]
    assert (key_weight(next(iter(basis[0])), False)
            != key_weight(next(iter(basis[-1])), False))
    assert is_cocycle(mixed[0], QQ)
    assert not verify_cohomology_basis(n, m, QQ, mixed, dim)


def test_cohomology_basis_check_rejects_a_non_cocycle():
    """A single term of the opposite parity lies in one weight and in no
    coboundary span, so only the cocycle test can reject it."""
    n, m = 3, 2
    dim = hhc(n, m)[m]
    basis = cohomology_basis(n, m, QQ)
    impure = cochain(n, m, QQ, {((1,), (0, 1, 1)): 1})
    assert not is_cocycle(impure, QQ)
    assert not verify_cohomology_basis(n, m, QQ, [impure] + basis[1:], dim)


def test_coboundary_image_splits_by_weight():
    """A sum of coboundaries of two weights is a coboundary; swapping one
    part for a cocycle that is no coboundary makes it none."""
    n, m = 3, 2
    a = _coboundary(n, m, ((), (1, 0, 0)))
    b = _coboundary(n, m, ((), (0, 0, 1)))
    wa = {key_weight(key, False) for key in a}
    wb = {key_weight(key, False) for key in b}
    assert len(wa) == len(wb) == 1 and wa != wb
    assert in_coboundary_image(add(a, b, QQ), QQ)
    c = cohomology_basis(n, m, QQ)[0]
    assert is_cocycle(c, QQ) and not in_coboundary_image(c, QQ)
    assert not in_coboundary_image(add(a, c, QQ), QQ)


def test_degree_zero_basis_is_center():
    keys = [next(iter(v))[0] for v in cohomology_basis(3, 0, QQ)]
    assert keys == [(), (1, 2), (1, 3), (2, 3), (1, 2, 3)]


def test_cochain_validation():
    """The validating constructor rejects n < 2, a negative degree, an
    exponent vector of the wrong length or degree or with a negative
    entry, and a monomial with unsorted, repeated or out-of-range
    indices (an index above n would crash classes_equal later); it drops
    scalars that are zero in the field."""
    for n, m, terms in ((1, 0, {((), (0,)): 1}), (2, -1, {}),
                        (2, 1, {((1,), (1,)): 1}),
                        (2, 1, {((1,), (1, 1)): 1}),
                        (2, 1, {((1,), (2, -1)): 1}),
                        (2, 1, {((2, 1), (1, 0)): 1}),
                        (2, 1, {((1, 1), (1, 0)): 1}),
                        (2, 1, {((3,), (1, 0)): 1}),
                        (2, 1, {((0,), (1, 0)): 1})):
        with pytest.raises(ValueError):
            cochain(n, m, QQ, terms)
    keep = ((), (0, 1))
    assert cochain(2, 1, QQ, {((1,), (1, 0)): 0, keep: 2}) == {keep: QQ.of(2)}
    assert cochain(2, 1, GF(3), {((1,), (1, 0)): 3, keep: 4}) == {keep: 1}


def test_a_scalar_is_an_int_or_a_fraction():
    """A float or a string is no scalar: field.of and cochain both raise
    TypeError on it, over GF(3) and over Q alike."""
    for field, x in ((GF(3), 0.5), (QQ, 0.1), (QQ, "1/3")):
        with pytest.raises(TypeError):
            field.of(x)
        with pytest.raises(TypeError):
            cochain(2, 0, field, {((), (0, 0)): x})


def test_relation_families_all_hold():
    for n, field in ((2, QQ), (3, QQ), (2, GF(5))):
        assert not any(rec["failures"]
                       for rec in verify_ring_relations(n, field))


def test_relation_instance_counts_n2():
    recs = verify_ring_relations(2, QQ)
    assert sum(r["instances"] for r in recs) == 78
    assert all(not r["failures"] for r in recs)
    by_id = {r["family"]: r["instances"] for r in recs}
    # one generator pair exists at n=2, so the overlap family is maximal
    assert by_id["deg00.1"] == 1
    assert by_id["deg00.2"] == 1
    assert by_id["deg11.1"] == 8


def _cli_ring(tmp_path, *argv, n=3, deg_max=2):
    """(exit code, records) of an in-process ``hhext ring --n 3
    --deg-max 2`` JSON run, or of other n and deg_max, with the extra
    arguments."""
    out = tmp_path / "ring.json"
    code = cli.main(["ring", "--n", str(n), "--deg-max", str(deg_max), *argv,
                     "--format", "json", "--no-timestamp", "--out", str(out)])
    return code, json.loads(out.read_text())["records"]


@pytest.mark.parametrize("char", ["0", "3"], ids=["QQ", "GF3"])
def test_relation_record_fails_under_a_flipped_right_hand_side(
        tmp_path, monkeypatch, char):
    """With the sign of the deg11.2 row of RELATIONS flipped, `hhext ring
    --n 3 --deg-max 2` exits 1, and the deg11.2 record is its only
    failure: all 18 instances, in lexicographic order of (i, j, s, t).
    Each flipped instance leaves a nonzero cocycle, so the check reaches
    in_coboundary_image, which no unplanted instance needs."""
    true_in_image = ring.in_coboundary_image
    reached = []

    def in_image(vec, field):
        reached.append(vec)
        return true_in_image(vec, field)

    rows = [(fid, test, (-right[0], *right[1:]) if fid == "deg11.2" else right)
            for fid, test, right in ring.RELATIONS]
    monkeypatch.setattr(ring, "RELATIONS", tuple(rows))
    monkeypatch.setattr(ring, "in_coboundary_image", in_image)
    code, records = _cli_ring(tmp_path, "--char", char)
    failed = [rec for rec in records if rec["status"] == "fail"]
    assert code == 1 and len(failed) == 1
    rec, = failed
    assert rec["id"] == "ring.relation-family"
    assert rec["params"]["family"] == "deg11.2"
    want = [[i, j, s, t] for i in range(1, 4) for j in range(1, 4)
            for s in range(i + 1, 4) for t in range(j, 4)]
    assert len(want) == 18 and want == sorted(want)
    assert rec["computed"] == {"instances": 18, "failures": want}
    assert len(reached) == 18


def test_unsigned_table_products_fail_the_basis_at_the_cli(tmp_path,
                                                          monkeypatch):
    """With the products that the term tables read unsigned, every
    monomial commutes with every generator, so the center is no longer
    the degree-0 basis: `hhext ring --n 3 --deg-max 2` exits 1 and fails
    ring.basis-independent in degrees 0, 1 and 2."""
    true_merge = resolution.merge_signed

    def unsigned(a, b):
        res = true_merge(a, b)
        return None if res is None else (1, res[1])
    monkeypatch.setattr(resolution, "merge_signed", unsigned)
    code, records = _cli_ring(tmp_path)
    failed = {rec["params"]["m"] for rec in records
              if rec["status"] == "fail"
              and rec["id"] == "ring.basis-independent"}
    assert code == 1 and failed == {0, 1, 2}


def test_unit_blind_cup_fails_ring_unital_at_the_cli(tmp_path, monkeypatch):
    """A cup that returns zero whenever a factor is the unit class fails
    `ring.unital`, and only it: `hhext ring --n 3 --deg-max 2` exits 1.
    No other check multiplies by the unit; the presentation audit takes
    the unit only as the empty word's value."""
    unit = unit_class(3)
    true_cup = ring.cup
    monkeypatch.setattr(ring, "cup", lambda a, b, field, mul=None: (
        {} if unit in (a, b) else true_cup(a, b, field, mul)))
    code, records = _cli_ring(tmp_path)
    assert code == 1
    assert {rec["id"] for rec in records if rec["status"] == "fail"} == {
        "ring.unital"}


def test_unit_blind_to_the_top_class_fails_ring_unital_at_the_cli(
        tmp_path, monkeypatch):
    """A cup that returns zero for the unit times the degree-0 class of
    the top monomial, a basis class only because n = 3 is odd, fails
    `ring.unital`, and only it: `hhext ring --n 3 --deg-max 2` exits 1.
    The unit check reads its classes from cohomology_basis, so it sees
    that class too."""
    unit, top = unit_class(3), {((1, 2, 3), (0, 0, 0)): 1}
    assert top in cohomology_basis(3, 0, QQ)
    true_cup = ring.cup
    monkeypatch.setattr(ring, "cup", lambda a, b, field, mul=None: (
        {} if (a, b) == (unit, top) else true_cup(a, b, field, mul)))
    code, records = _cli_ring(tmp_path)
    assert code == 1
    assert {rec["id"] for rec in records if rec["status"] == "fail"} == {
        "ring.unital"}


def _closed_instance_counts(n):
    """The number of instances of each family at n, in closed form."""
    C = comb
    pairs, sym = C(n, 2), C(n + 1, 2)
    return {
        "deg00.1": pairs ** 2, "deg00.2": pairs ** 2 - pairs * C(n - 2, 2),
        **{f"deg00.{k}": C(n, 4) for k in (3, 4, 5, 6)},
        "deg01.1": pairs * n ** 2, "deg01.2": 2 * pairs * n,
        "deg01.3": n * C(n, 3), "deg01.4": n * C(n, 3),
        "deg02.1": pairs * sym,
        "deg11.1": n ** 3,
        **{f"deg11.{k}": pairs * sym for k in (2, 3, 4, 5)},
        "deg12.1": n ** 2 * sym, "deg12.2": n * C(n + 1, 3),
        "deg12.3": n * C(n + 1, 3),
        "deg22.1": sym ** 2,
        **{f"deg22.{k}": C(n + 3, 4) for k in (2, 3, 4, 5)},
    }


def test_relation_instance_counts_follow_closed_forms():
    """Each family's instance count at n = 2..7 is its closed form, and
    the totals are 78, 360, 1 090, 2 595, 5 292 and 9 688."""
    totals = []
    for n in range(2, 8):
        got = Counter(fid for fid, _, _ in relation_instances(n))
        want = _closed_instance_counts(n)
        assert list(want) == list(ring.RELATION_FAMILIES)
        assert set(got) <= set(want)
        assert {fid: got[fid] for fid in want} == want, n
        totals.append(sum(got.values()))
    assert totals == [78, 360, 1090, 2595, 5292, 9688]


def test_relation_elements_are_sums_of_letter_words():
    """Each instance is {word: int} over the letters of generators, the
    left word X_ij Y_st first with coefficient 1, in lexicographic order
    of (i, j, s, t) within its family.  Where both sides are one word the
    coefficients add up to zero and the element is empty, as for deg00.1
    and deg22.1 at (i, j) = (s, t) and deg22.2 to .5 on the diagonal; no
    family whose two sides differ in their letters' degrees has one."""
    n = 3
    gens = generators(n)
    last, empty = {}, set()
    for fid, (i, j, s, t), element in relation_instances(n):
        assert (i, j, s, t) > last.get(fid, ())
        last[fid] = (i, j, s, t)
        for word in element:
            assert len(word) == 2 and all(k in gens[d] for d, k in word)
        x, y = int(fid[3]), int(fid[4])
        if element:
            assert next(iter(element.items())) == (
                ((x, (i, j)), (y, (s, t))), 1)
        else:
            empty.add((fid, i, j, s, t))
    assert {fid for fid, *_ in empty} == {"deg00.1", "deg22.1", "deg22.2",
                                          "deg22.3", "deg22.4", "deg22.5"}
    assert empty >= (
        {("deg00.1", i, j, i, j) for i, j in [(1, 2), (1, 3), (2, 3)]}
        | {("deg22.1", i, j, i, j) for i in range(1, 4) for j in range(i, 4)}
        | {(f"deg22.{k}", h, h, h, h) for k in (2, 3, 4, 5)
           for h in range(1, 4)})


def test_graded_commutativity_and_associativity():
    assert verify_graded_commutativity(2, QQ, 4)
    assert verify_associativity(2, QQ, 4)
    assert verify_graded_commutativity(3, QQ, 3)
    assert verify_associativity(3, QQ, 3)
    assert verify_graded_commutativity(3, GF(2), 3)
    assert verify_associativity(3, GF(2), 3)
    # the cup checks run on cocycles with several terms, not basis classes
    for field in (QQ, GF(2), GF(3)):
        for m in range(5):
            v = ring._test_cocycle(4, m, field)
            assert is_cocycle(v, field) and len(v) == 8


def test_test_cocycle_keeps_every_term_in_every_characteristic():
    """At n = 3 the test cocycle has 4 terms in each degree in every
    characteristic: coefficients 1, 2, 1, 2 over Q and GF(3), and 1 in
    place of each 2, which is 0, over GF(2)."""
    for field, coeffs in ((QQ, [1, 2, 1, 2]), (GF(3), [1, 2, 1, 2]),
                          (GF(2), [1, 1, 1, 1])):
        for m in range(5):
            assert list(ring._test_cocycle(3, m, field).values()) == coeffs


def _degree(vec):
    """The degree of a cochain, read off a key; 0 for the empty cochain."""
    return sum(next(iter(vec))[1]) if vec else 0


def _mutant_cup(n, drop_sign=False, square_left=False):
    """A cup product with one planted defect: the merge sign ignored, or
    the left coefficient squared in place of the product."""
    def mutant(a, b, F, mul=None):
        out = {}
        for (l1, e1), c1 in a.items():
            for (l2, e2), c2 in b.items():
                res = merge_signed(l1, l2)
                if res is None:
                    continue
                v = c1 * (c1 if square_left else c2)
                if res[0] < 0 and not drop_sign:
                    v = -v
                key = (res[1], tuple(x + y for x, y in zip(e1, e2)))
                out[key] = F.of(out.get(key, 0) + v)
        return cochain(n, _degree(a) + _degree(b), F, out)
    return mutant


def _flipped_merge(a, b):
    """merge_signed with the sign flipped for degree-2 by degree-1 monomials."""
    res = merge_signed(a, b)
    if res is not None and len(a) == 2 and len(b) == 1:
        return -res[0], res[1]
    return res


def _merge_with(pair, value):
    """merge_signed with one planted value on one ordered monomial pair."""
    def planted(a, b):
        return value if (a, b) == pair else merge_signed(a, b)
    return planted


def test_cup_looks_up_merge_signed_at_each_call(monkeypatch):
    """Without a product argument, cup multiplies monomials by the
    merge_signed that ring binds when it is called, so a patched one
    reaches every caller."""
    a, b = {((1, 2), (0, 0, 0)): 1}, {((3,), (1, 0, 0)): 1}
    assert cup(a, b, QQ) == {((1, 2, 3), (1, 0, 0)): 1}
    monkeypatch.setattr(ring, "merge_signed", _flipped_merge)
    assert cup(a, b, QQ) == {((1, 2, 3), (1, 0, 0)): -1}


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
def test_planted_defects_fail_structure_checks(monkeypatch, field):
    """Each planted defect turns its check false at n = 4, deg_max = 4.
    The checks keep products only within one call, each computed by the
    patched ``cup`` or read from a table of the patched ``merge_signed``,
    so the defect is what they compute with."""
    n, deg_max = 4, 4
    assert verify_graded_commutativity(n, field, deg_max)
    assert verify_associativity(n, field, deg_max)
    with monkeypatch.context() as mp:
        mp.setattr(ring, "cup", _mutant_cup(n, drop_sign=True))
        assert not verify_graded_commutativity(n, field, deg_max)
    with monkeypatch.context() as mp:
        mp.setattr(ring, "cup", _mutant_cup(n, square_left=True))
        assert not verify_associativity(n, field, deg_max)
    with monkeypatch.context() as mp:
        mp.setattr(ring, "merge_signed", _flipped_merge)
        assert not verify_graded_commutativity(n, field, deg_max)
        assert not verify_associativity(n, field, deg_max)


# Per mutant: the ring attribute it replaces, the mutant, the smallest
# ``ring --n <= 3`` run (n, deg_max) that shows it, and every record that
# fails there.  Each word of a relation instance is a cup product, so a
# defect in the products fails ring.relation-family too.
PRODUCT_RECORDS = {"ring.associativity", "ring.graded-commutativity",
                   "ring.relation-family"}
STRUCTURE_MUTANTS = {
    "square-left": ("cup", _mutant_cup(2, square_left=True), 2, 0,
                    {"ring.associativity"}),
    "drop-sign": ("cup", _mutant_cup(2, drop_sign=True), 2, 2,
                  {"ring.graded-commutativity", "ring.relation-family"}),
    "flipped-merge": ("merge_signed", _flipped_merge, 3, 0, PRODUCT_RECORDS),
    # one pair that the disjoint-triple walk of verify_associativity reads,
    # broken: a product on an overlapping pair, an unsorted monomial, a sign
    "overlap-merged": ("merge_signed", _merge_with(((1,), (1,)), (1, (1, 1))),
                       2, 0, PRODUCT_RECORDS),
    "unsorted-merge": ("merge_signed", _merge_with(((2,), (1,)), (-1, (2, 1))),
                       2, 0, PRODUCT_RECORDS),
    "one-sign-flipped": ("merge_signed",
                         _merge_with(((1, 2), (3,)), (-1, (1, 2, 3))),
                         3, 0, PRODUCT_RECORDS),
}


@pytest.mark.parametrize("mutant", sorted(STRUCTURE_MUTANTS))
def test_planted_structure_defects_fail_their_records_at_the_cli(
        tmp_path, monkeypatch, mutant):
    """Each structure mutant makes its smallest ``ring`` run exit 1 with
    exactly its records failing, and raises nothing: ring.associativity
    checks the pairs before its disjoint-triple walk reads them, so a
    wrong monomial fails the record instead of breaking the walk."""
    name, planted, n, deg_max, ids = STRUCTURE_MUTANTS[mutant]
    monkeypatch.setattr(ring, name, planted)
    code, records = _cli_ring(tmp_path, n=n, deg_max=deg_max)
    failed = {rec["id"] for rec in records if rec["status"] == "fail"}
    assert code == 1 and failed == ids, failed


# Property tests of cup and the vector operations against references that
# pass every result through the validating constructor.

def _reference_cup(n, m, a, b, F):
    """The cup product with an explicit zero test per term pair."""
    out = {}
    for (l1, e1), c1 in a.items():
        for (l2, e2), c2 in b.items():
            res = merge_signed(l1, l2)
            if res is None:
                continue
            sign, merged = res
            e = tuple(x + y for x, y in zip(e1, e2))
            v = c1 * c2
            if sign < 0:
                v = -v
            key = (merged, e)
            acc = F.of(out.get(key, 0) + v)
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
    return cochain(n, m, F, out)


def _reference_combination(n, m, a, b, c, F):
    """a + c * b, key by key."""
    c = F.of(c)
    return cochain(n, m, F, {
        k: F.of(a.get(k, 0) + c * b.get(k, 0))
        for k in a.keys() | b.keys()})


@st.composite
def _cochains(draw, n, m, field, keys=None, scalars=st.integers(-3, 3)):
    """A cochain on at most six of the given keys (default: every key of
    degree m), with coefficients drawn from ``scalars`` (default -3..3),
    zeros dropped."""
    keys = draw(st.lists(st.sampled_from(keys or chain_keys(n, m)),
                         max_size=6, unique=True))
    coeffs = draw(st.lists(scalars, min_size=len(keys), max_size=len(keys)))
    return cochain(n, m, field, dict(zip(keys, coeffs)))


@st.composite
def _cochain_pairs(draw):
    """(field, n, s, t, a, b): a and b of degrees s and t at random, or a
    pair built to cancel, with s = t: a
    holds odd monomials against one exponent vector, so every product of
    two of its terms cancels in cup(a, a), and b is a or -a shifted by
    one term of the same degree, so a - b or a + b is that one term."""
    field = draw(st.sampled_from((QQ, GF(3), GF(2))))
    n = draw(st.integers(2, 4))
    s, t = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if not draw(st.booleans()):
        return (field, n, s, t,
                draw(_cochains(n, s, field)), draw(_cochains(n, t, field)))
    e = draw(st.sampled_from(exponent_vectors(n, s)))
    a = draw(_cochains(n, s, field, [
        (idx, e) for idx in monomials(n) if len(idx) % 2]))
    shift = {draw(st.sampled_from(chain_keys(n, s))): 1}
    b = add({}, a, field, draw(st.sampled_from((1, -1))))
    return field, n, s, s, a, add(b, cochain(n, s, field, shift), field)


def _stored_exactly(vec, want):
    return vec == want and all(vec.values())


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(pair=_cochain_pairs(), c=st.integers(-3, 3))
def test_cup_and_vector_operations_match_references(pair, c):
    """cup and add (a + k*b for k in 1, -1, c, and c*a) equal references
    built through the validating constructor, and store no zero
    coefficient."""
    F, n, s, t, a, b = pair
    assert _stored_exactly(cup(a, b, F), _reference_cup(n, s + t, a, b, F))
    assert _stored_exactly(cup(b, a, F), _reference_cup(n, s + t, b, a, F))
    assert _stored_exactly(cup(a, a, F), _reference_cup(n, 2 * s, a, a, F))
    assert _stored_exactly(add({}, a, F, c),
                           _reference_combination(n, s, {}, a, c, F))
    if s == t:
        for k in (1, -1, c):
            assert _stored_exactly(add(a, b, F, k),
                                   _reference_combination(n, s, a, b, k, F))
        assert _stored_exactly(add(b, b, F, -1), {})


_HALVES = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def _canonical_over_q(vec):
    """Every value an int, or a Fraction that is not integral."""
    return all(type(v) is int or (type(v) is Fraction and v.denominator > 1)
               for v in vec.values())


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(data=st.data(), c=_HALVES)
def test_values_over_q_are_ints_or_proper_fractions(data, c):
    """cup, add and apply (through the cochain differential) over Q give
    an int for every integral value, also where halves multiply or add
    to one, and a Fraction for every other."""
    n = data.draw(st.integers(2, 3))
    s, t = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    a = data.draw(_cochains(n, s, QQ, scalars=_HALVES))
    a2 = data.draw(_cochains(n, s, QQ, scalars=_HALVES))
    b = data.draw(_cochains(n, t, QQ, scalars=_HALVES))
    for vec in (cup(a, b, QQ), cup(a, a, QQ), add(a, a, QQ, c),
                add(a, a2, QQ, c), apply_differential(a, QQ)):
        assert _canonical_over_q(vec)


def test_specific_anticommutation():
    """Odd classes anticommute: both orders of two degree-1 classes."""
    V = generators(3)[1]
    a, b = V[1, 2], V[3, 1]
    assert cup(a, b, QQ) == add({}, cup(b, a, QQ), QQ, -1)


def test_presentation_normal_forms_small():
    # degree 0: even chains only; n=2 has the empty chain and (1, 2)
    words = list(presentation_normal_forms(2, 0))
    assert words == [(), ((0, (1, 2)),)]
    # degree 1: one degree-1 letter, chain of size 1
    words = list(presentation_normal_forms(2, 1))
    assert ((1, (1, 1)),) in words and ((1, (2, 2)),) in words
    assert len(words) == presentation_count(2, 1) == 4


def test_presentation_counts_match_dims():
    for field in (QQ, GF(2)):
        for n in (2, 4):
            for d in range(5):
                assert presentation_count(n, d, char=field.char) == len(
                    cohomology_basis(n, d, field))


def test_presentation_strict_reading_undercounts():
    assert presentation_count(3, 1, min_index=2) == 6
    assert presentation_count(2, 0, min_index=2) == 1
    # characteristic 2: every chain on the n - 1 indices above 1
    for n in (2, 3, 4):
        for d in range(4):
            assert presentation_count(n, d, min_index=2, char=2) == (
                2 ** (n - 1) * comb(n + d - 1, d))


def test_char2_normal_forms_are_x_s_y_e():
    """In characteristic 2 a normal form is x_S y^e: a one-index degree-0
    letter per index of S, then a one-index degree-1 letter per exponent
    index."""
    assert list(presentation_normal_forms(2, 0, char=2)) == [
        (), ((0, (1,)),), ((0, (2,)),), ((0, (1,)), (0, (2,)))]
    words = list(presentation_normal_forms(2, 2, char=2))
    assert ((0, (1,)), (1, (1,)), (1, (2,))) in words
    assert len(words) == presentation_count(2, 2, char=2) == 12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_char2_presentation_audit_reaches_every_class(n):
    """Over GF(2) the normal forms x_S y^e evaluate to distinct single
    terms, one on every basis key, and their count is the computed
    dimension, with the top monomial reached for odd n too."""
    records = presentation_audit(n, GF(2), hhc(n, 3, GF(2)))
    assert all(rec["evaluations_independent"] and rec["unreached"] == []
               and rec["count"] == rec["expected"] for rec in records)
    assert [rec["strict_count"] * 2 for rec in records] == [
        rec["count"] for rec in records]


def test_presentation_audit_flags_odd_n_degree_zero():
    records = presentation_audit(3, QQ, hhc(3, 2))
    deg0 = records[0]
    assert deg0["count"] == 4 and deg0["expected"] == 5
    assert deg0["evaluations_independent"]
    assert all(rec["count"] == rec["expected"] for rec in records[1:])


@pytest.mark.parametrize("n, deg_max", [(3, 3), (4, 2), (5, 2)])
def test_presentation_audit_names_the_unreached_classes(n, deg_max):
    """The normal forms reach every basis class but one: the degree-0
    class of the top monomial when n is odd.  Every evaluation is a
    distinct basis term in every degree."""
    top = (tuple(range(1, n + 1)), (0,) * n)
    records = presentation_audit(n, QQ, hhc(n, deg_max))
    assert [rec["degree"] for rec in records] == list(range(deg_max + 1))
    assert all(rec["evaluations_independent"] for rec in records)
    assert records[0]["unreached"] == ([top] if n % 2 else [])
    assert all(rec["unreached"] == [] for rec in records[1:])


def test_presentation_audit_rejects_a_term_outside_the_basis(monkeypatch):
    """An evaluation off the basis, or one that repeats a class already
    reached, makes the degree dependent and leaves its class unreached."""
    true_evaluate = ring.evaluate_word

    def planted(word, unit, gens, field):
        if word == ((0, (1, 2)),):  # x_1 x_2 moved off the basis
            return {((1, 2), (1, 0, 0)): 1}
        if word == ((0, (1, 3)),):  # x_1 x_3 made a copy of x_2 x_3
            word = ((0, (2, 3)),)
        return true_evaluate(word, unit, gens, field)
    monkeypatch.setattr(ring, "evaluate_word", planted)
    deg0 = presentation_audit(3, QQ, hhc(3, 0))[0]
    assert not deg0["evaluations_independent"]
    assert deg0["unreached"] == [((1, 2), (0, 0, 0)), ((1, 2, 3), (0, 0, 0)),
                                 ((1, 3), (0, 0, 0))]


def test_evaluate_word(monkeypatch):
    """A word is the cup product of its letters from the first on: one
    cup fewer than letters, none for a single letter; the empty word is
    the unit, which is never multiplied in."""
    unit, gens = unit_class(2), generators(2)
    calls = []

    def counted(a, b, field):
        calls.append(a is unit or b is unit)
        return cup(a, b, field)

    monkeypatch.setattr(ring, "cup", counted)
    word = ((0, (1, 2)), (2, (1, 1)))
    assert evaluate_word(word, unit, gens, QQ) == {((1, 2), (2, 0)): 1}
    assert calls == [False]
    assert evaluate_word(word[:1], unit, gens, QQ) == gens[0][1, 2]
    assert evaluate_word((), unit, gens, QQ) == unit_class(2)
    assert calls == [False]


def test_generators_are_the_letters():
    """generators builds each letter's generator once, a single term with
    coefficient one: x_i x_j against exponent 0 in degree 0, x_p against
    exponent q in degree 1, the empty monomial against s and t in
    degree 2."""
    n, F = 3, GF(5)

    def e(*hs):
        return tuple(sum(h == k for h in hs) for k in range(1, n + 1))

    U, V, W = generators(n)
    assert U == {(i, j): {((i, j), e()): 1}
                 for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    assert V == {(p, q): {((p,), e(q)): 1}
                 for p in range(1, n + 1) for q in range(1, n + 1)}
    assert W == {(s, t): {((), e(s, t)): 1}
                 for s in range(1, n + 1) for t in range(s, n + 1)}
    assert (len(U), len(V), len(W)) == (3, 9, 6)
    assert W[2, 2] == {((), (0, 2, 0)): 1}


def _dropped_product(orders):
    """cup with one term dropped, in the given orders: the product of x_1
    and x_2 when both carry the exponent vector (1, 0, ..., 0), wherever
    that pair of terms meets inside a cup product."""
    def planted(a, b, field, mul=None):
        out = cup(a, b, field, mul)
        for (l1, e1), (l2, e2) in product(a, b):
            first = (1,) + (0,) * (len(e1) - 1)
            if (l1, l2) in orders and e1 == e2 == first:
                out.pop(((1, 2), (2,) + first[1:]), None)
        return out
    return planted


def _left_summand_terms(m, h):
    """generator_terms with only the left summand x_h . g(e - d_h)."""
    return ((1, (h,), ()),)


def test_planted_char2_factor_fails_vanishing_check(monkeypatch):
    """Differential terms that keep only the left summand x_h . g(e - d_h)
    no longer cancel in characteristic 2: a single term stops being a
    cocycle, and the basis check turns false, since it applies the column
    rules afresh."""
    F, n, m = GF(2), 3, 1
    basis, dim = cohomology_basis(n, m, F), hhc(n, m, F)[m]
    assert verify_cohomology_basis(n, m, F, basis, dim)
    assert all(is_cocycle(v, F) for v in basis)
    monkeypatch.setattr(resolution, "generator_terms", _left_summand_terms)
    assert not all(is_cocycle(v, F) for v in basis)
    assert not verify_cohomology_basis(n, m, F, basis, dim)


# Per mutant: the module and attribute it replaces, the mutant, the
# smallest ``ring --n 2 --char 2`` degree that shows it, and the records
# that fail there.
CHAR2_MUTANTS = {
    "left-summand-only": (resolution, "generator_terms", _left_summand_terms,
                          0, {"ring.basis-independent", "ring.presentation"}),
    "product-dropped-in-both-orders": (
        ring, "cup", _dropped_product({((1,), (2,)), ((2,), (1,))}), 2,
        {"ring.relation-family"}),
    "product-dropped-in-one-order": (
        ring, "cup", _dropped_product({((1,), (2,))}), 2,
        {"ring.relation-family"}),
}


@pytest.mark.parametrize("mutant", sorted(CHAR2_MUTANTS))
def test_planted_char2_defects_fail_their_records_at_the_cli(
        tmp_path, monkeypatch, mutant):
    """Each mutant makes its smallest characteristic-2 ``ring`` run exit 1
    with exactly its records failing, on the path every characteristic
    takes.  With the left summand only, the differentials no longer
    vanish: the computed dimension falls below the basis size and the
    normal-form count."""
    module, name, planted, deg_max, ids = CHAR2_MUTANTS[mutant]
    monkeypatch.setattr(module, name, planted)
    code, records = _cli_ring(tmp_path, "--char", "2", n=2, deg_max=deg_max)
    failed = {rec["id"] for rec in records if rec["status"] == "fail"}
    assert code == 1
    assert failed == ids


def test_ring_emits_one_id_set_in_every_characteristic(tmp_path):
    """``ring --n 3 --deg-max 2`` emits the same record ids over Q, GF(2)
    and GF(3), and passes in each."""
    ids = {}
    for char in ("0", "2", "3"):
        code, records = _cli_ring(tmp_path, "--char", char)
        assert code == 0, char
        ids[char] = {rec["id"] for rec in records}
    assert ids["0"] == ids["2"] == ids["3"]
    assert len(ids["0"]) == 8
