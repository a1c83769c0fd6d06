"""Cup product ring: classes, relations, presentation, characteristic 2."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hhext import complexes, ring
from hhext.complexes import chain_keys, cochain_weight
from hhext.exactla import GF, QQ
from hhext.exterior import merge_signed, monomials
from hhext.resolution import exponent_vectors
from hhext.ring import (
    add,
    apply_differential,
    char2_ring_check,
    classes_equal,
    cochain,
    cohomology_basis,
    cup,
    deg0_generator,
    deg1_generator,
    deg2_generator,
    evaluate_word,
    generators,
    in_coboundary_image,
    is_cocycle,
    presentation_audit,
    presentation_count,
    presentation_normal_forms,
    unit_class,
    verify_associativity,
    verify_cohomology_basis,
    verify_graded_commutativity,
    verify_ring_relations,
    verify_unital,
)


def test_cup_single_terms():
    a = deg1_generator(2, QQ, 1, 1)
    b = deg1_generator(2, QQ, 2, 1)
    prod = cup(a, b, QQ)
    assert prod == {((1, 2), (2, 0)): QQ.one}
    # swapping the monomials flips the sign
    assert cup(b, a, QQ) == {((1, 2), (2, 0)): QQ.of(-1)}
    # a repeated generator dies
    assert not cup(a, a, QQ)


def test_unit_class():
    one = unit_class(3, QQ)
    g = deg2_generator(3, QQ, 1, 3)
    assert cup(one, g, QQ) == g and cup(g, one, QQ) == g
    assert verify_unital(2, QQ, 3)


def test_cocycle_detection():
    """Parity-pure terms are cocycles; a lone impure term is not."""
    assert is_cocycle(deg1_generator(2, QQ, 1, 2), QQ)
    impure = cochain(2, 1, QQ, {((), (1, 0)): QQ.one})
    assert not is_cocycle(impure, QQ)


def _coboundary(n, m, key, field=QQ):
    """The coboundary of one degree-(m - 1) key, nonzero by assertion."""
    cob = apply_differential(cochain(n, m - 1, field, {key: field.one}), field)
    assert cob
    return cob


def test_classes_equal_modulo_coboundary():
    """A class shifted by a coboundary equals the class: the shift is the
    opposite-parity part of the shifted cocycle, and it is a coboundary."""
    v = deg1_generator(2, QQ, 1, 1)
    cob = _coboundary(2, 1, ((1,), (0, 0)))
    shifted = add(v, cob, QQ)
    assert shifted != v
    assert classes_equal(shifted, v, QQ) and classes_equal(v, shifted, QQ)
    assert in_coboundary_image(add(shifted, v, QQ, -1), QQ)


def test_classes_unequal_off_coboundaries():
    """Two cochains are unequal classes when their difference is a cocycle
    but no coboundary, and when it is no cocycle at all."""
    v = deg1_generator(2, QQ, 1, 1)
    w = deg1_generator(2, QQ, 2, 1)
    assert is_cocycle(add(w, v, QQ, -1), QQ) and not classes_equal(v, w, QQ)
    # the same difference, with a coboundary added on top
    cob = _coboundary(2, 1, ((1,), (0, 0)))
    assert not classes_equal(add(v, cob, QQ), w, QQ)
    impure = cochain(2, 1, QQ, {((), (1, 0)): QQ.one})
    assert not is_cocycle(impure, QQ)
    assert not classes_equal(add(v, impure, QQ), v, QQ)
    assert not classes_equal(impure, {}, QQ)


def test_cohomology_basis_counts():
    assert [len(cohomology_basis(2, m, QQ)) for m in range(4)] == [2, 4, 6, 8]
    assert [len(cohomology_basis(3, m, QQ)) for m in range(4)] == [5, 12, 24, 40]
    with pytest.raises(ValueError):
        cohomology_basis(2, 1, GF(2))


def test_cohomology_basis_independent():
    for n in (2, 3):
        for m in range(4):
            assert verify_cohomology_basis(n, m, QQ,
                                           cohomology_basis(n, m, QQ))


def _same_weight_pair(basis):
    """Indices i < j of two basis vectors of the same weight."""
    seen = {}
    for j, vec in enumerate(basis):
        v = cochain_weight(next(iter(vec)))
        if v in seen:
            return seen[v], j
        seen[v] = j
    raise AssertionError("no two basis vectors share a weight")


def test_cohomology_basis_check_works_within_a_weight():
    """A basis vector shifted by another of the same weight still passes;
    the shifted vector has two terms, both in one weight.  A repeated
    vector fails."""
    n, m = 3, 2
    basis = cohomology_basis(n, m, QQ)
    i, j = _same_weight_pair(basis)
    shifted = list(basis)
    shifted[i] = add(basis[i], basis[j], QQ)
    assert verify_cohomology_basis(n, m, QQ, shifted)
    repeated = list(basis)
    repeated[i] = basis[j]
    assert not verify_cohomology_basis(n, m, QQ, repeated)


def test_cohomology_basis_check_rejects_a_coboundary(monkeypatch):
    """A nonzero coboundary put in place of a basis vector is a cocycle in
    one weight, so only the span of that weight's coboundaries can reject
    it: the check fails, and passes once that span is emptied."""
    n, m = 3, 2
    basis = cohomology_basis(n, m, QQ)
    cob = _coboundary(n, m, ((), (1, 0, 0)))
    assert len({cochain_weight(key) for key in cob}) == 1
    planted = [cob] + basis[1:]
    assert not verify_cohomology_basis(n, m, QQ, planted)
    monkeypatch.setattr(ring, "cochain_domain", lambda *args: [])
    assert verify_cohomology_basis(n, m, QQ, planted)


def test_cohomology_basis_check_rejects_a_mixed_weight_vector():
    """A basis vector plus another of a different weight is still a
    cocycle, but it lies in two weights, and the check returns False."""
    n, m = 3, 2
    basis = cohomology_basis(n, m, QQ)
    mixed = [add(basis[0], basis[-1], QQ)] + basis[1:]
    assert (cochain_weight(next(iter(basis[0])))
            != cochain_weight(next(iter(basis[-1]))))
    assert is_cocycle(mixed[0], QQ)
    assert not verify_cohomology_basis(n, m, QQ, mixed)


def test_cohomology_basis_check_rejects_a_non_cocycle():
    """A single term of the opposite parity lies in one weight and in no
    coboundary span, so only the cocycle test can reject it."""
    n, m = 3, 2
    basis = cohomology_basis(n, m, QQ)
    impure = cochain(n, m, QQ, {((1,), (0, 1, 1)): QQ.one})
    assert not is_cocycle(impure, QQ)
    assert not verify_cohomology_basis(n, m, QQ, [impure] + basis[1:])


def test_coboundary_image_splits_by_weight():
    """A sum of coboundaries of two weights is a coboundary; swapping one
    part for a cocycle that is no coboundary makes it none."""
    n, m = 3, 2
    a = _coboundary(n, m, ((), (1, 0, 0)))
    b = _coboundary(n, m, ((), (0, 0, 1)))
    wa = {cochain_weight(key) for key in a}
    wb = {cochain_weight(key) for key in b}
    assert len(wa) == len(wb) == 1 and wa != wb
    assert in_coboundary_image(add(a, b, QQ), QQ)
    c = cohomology_basis(n, m, QQ)[0]
    assert is_cocycle(c, QQ) and not in_coboundary_image(c, QQ)
    assert not in_coboundary_image(add(a, c, QQ), QQ)


def test_degree_zero_basis_is_center():
    keys = [next(iter(v))[0] for v in cohomology_basis(3, 0, QQ)]
    assert keys == [(), (1, 2), (1, 3), (2, 3), (1, 2, 3)]


def test_generator_validation():
    with pytest.raises(ValueError):
        deg0_generator(3, QQ, 2, 2)
    with pytest.raises(ValueError):
        deg2_generator(3, QQ, 3, 1)
    with pytest.raises(ValueError):
        deg1_generator(3, QQ, 0, 1)


def test_cochain_validation():
    """The validating constructor rejects n < 2, a negative degree, and
    an exponent vector of the wrong length or degree; it drops scalars
    that are zero in the field."""
    for n, m, terms in ((1, 0, {((), (0,)): 1}), (2, -1, {}),
                        (2, 1, {((1,), (1,)): 1}),
                        (2, 1, {((1,), (1, 1)): 1})):
        with pytest.raises(ValueError):
            cochain(n, m, QQ, terms)
    keep = ((), (0, 1))
    assert cochain(2, 1, QQ, {((1,), (1, 0)): 0, keep: 2}) == {keep: QQ.of(2)}
    assert cochain(2, 1, GF(3), {((1,), (1, 0)): 3, keep: 4}) == {keep: 1}


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


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
def test_relation_record_fails_under_a_flipped_right_hand_side(monkeypatch,
                                                               field):
    """With the sign of the deg11.2 right-hand side flipped, every deg11.2
    instance at n = 3 fails and no other family does.  Each flipped
    instance leaves a nonzero cocycle, so the check reaches
    in_coboundary_image, which no unplanted instance needs."""
    true_instances = ring.relation_instances
    true_in_image = ring.in_coboundary_image
    reached = []

    def flipped(n, field):
        for fid, inst, lhs, rhs in true_instances(n, field):
            if fid == "deg11.2":
                rhs = add({}, rhs, field, -1)
            yield fid, inst, lhs, rhs

    def in_image(vec, field):
        reached.append(vec)
        return true_in_image(vec, field)

    monkeypatch.setattr(ring, "relation_instances", flipped)
    monkeypatch.setattr(ring, "in_coboundary_image", in_image)
    recs = {rec["family"]: rec for rec in verify_ring_relations(3, field)}
    assert recs["deg11.2"]["instances"] == 18
    assert len(recs["deg11.2"]["failures"]) == 18
    assert not any(rec["failures"] for fid, rec in recs.items()
                   if fid != "deg11.2")
    assert len(reached) == 18


def test_graded_commutativity_and_associativity():
    assert verify_graded_commutativity(2, QQ, 4)
    assert verify_associativity(2, QQ, 4)
    assert verify_graded_commutativity(3, QQ, 3)
    assert verify_associativity(3, QQ, 3)
    # the cup checks run on cocycles with several terms, not basis classes
    for field in (QQ, GF(3)):
        for m in range(5):
            v = ring._test_cocycle(4, m, field)
            assert is_cocycle(v, field) and len(v) == 8


def _degree(vec):
    """The degree of a cochain, read off a key; 0 for the empty cochain."""
    return sum(next(iter(vec))[1]) if vec else 0


def _mutant_cup(n, drop_sign=False, square_left=False):
    """A cup product with one planted defect: the merge sign ignored, or
    the left coefficient squared in place of the product."""
    def mutant(a, b, F):
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
                out[key] = F.of(out.get(key, F.zero) + v)
        return cochain(n, _degree(a) + _degree(b), F, out)
    return mutant


def _flipped_merge(a, b):
    """merge_signed with the sign flipped for degree-2 by degree-1 monomials."""
    res = merge_signed(a, b)
    if res is not None and len(a) == 2 and len(b) == 1:
        return -res[0], res[1]
    return res


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
def test_planted_defects_fail_structure_checks(monkeypatch, field):
    """Each planted defect turns its check false at n = 4, deg_max = 4.
    The checks cache nothing that holds products, so a patched ``cup`` or
    ``merge_signed`` is what they compute with."""
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
            acc = F.of(out.get(key, F.zero) + v)
            if acc == F.zero:
                out.pop(key, None)
            else:
                out[key] = acc
    return cochain(n, m, F, out)


def _reference_combination(n, m, a, b, c, F):
    """a + c * b, key by key."""
    c = F.of(c)
    return cochain(n, m, F, {
        k: F.of(a.get(k, F.zero) + c * b.get(k, F.zero))
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
    shift = {draw(st.sampled_from(chain_keys(n, s))): field.one}
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
    a = deg1_generator(3, QQ, 1, 2)
    b = deg1_generator(3, QQ, 3, 1)
    assert cup(a, b, QQ) == add({}, cup(b, a, QQ), QQ, -1)


def test_presentation_normal_forms_small():
    # degree 0: even chains only; n=2 has the empty chain and (1, 2)
    words = presentation_normal_forms(2, 0)
    assert words == [(), ((0, (1, 2)),)]
    # degree 1: one degree-1 letter, chain of size 1
    words = presentation_normal_forms(2, 1)
    assert ((1, (1, 1)),) in words and ((1, (2, 2)),) in words
    assert len(words) == presentation_count(2, 1) == 4


def test_presentation_counts_match_dims():
    for n in (2, 4):
        for d in range(5):
            assert presentation_count(n, d) == len(cohomology_basis(n, d, QQ))


def test_presentation_strict_reading_undercounts():
    assert presentation_count(3, 1, min_index=2) == 6
    assert presentation_count(2, 0, min_index=2) == 1


def test_presentation_audit_flags_odd_n_degree_zero():
    records = presentation_audit(3, 2, QQ)
    deg0 = records[0]
    assert deg0["count"] == 4 and deg0["expected"] == 5
    assert not deg0["matches"]
    assert deg0["evaluations_independent"]
    assert records[1]["matches"] and records[2]["matches"]


def test_evaluate_word():
    word = ((0, (1, 2)), (2, (1, 1)))
    val = evaluate_word(word, unit_class(2, QQ), generators(2, QQ), QQ)
    assert val == {((1, 2), (2, 0)): QQ.one}
    assert evaluate_word((), unit_class(2, QQ), generators(2, QQ), QQ) == \
        unit_class(2, QQ)


def test_generators_are_the_letters():
    """generators builds each generator of every letter once, as the
    deg*_generator functions do one by one."""
    U, V, W = generators(3, GF(5))
    assert (len(U), len(V), len(W)) == (3, 9, 6)
    assert U[1, 3] == deg0_generator(3, GF(5), 1, 3)
    assert V[3, 1] == deg1_generator(3, GF(5), 3, 1)
    assert W[2, 2] == deg2_generator(3, GF(5), 2, 2)


def test_char2_ring_structure():
    for n in (2, 3):
        rep = char2_ring_check(n, 3, GF(2))
        assert rep["ok"]
    with pytest.raises(ValueError):
        char2_ring_check(2, 2, QQ)


def _dropped_product(orders):
    """cup with one term dropped, in the given orders: the product of x_1
    and x_2 when both carry the exponent vector (1, 0, ..., 0), wherever
    that pair of terms meets inside a product of sums of terms."""
    def planted(a, b, field):
        out = cup(a, b, field)
        for (l1, e1), (l2, e2) in product(a, b):
            first = (1,) + (0,) * (len(e1) - 1)
            if (l1, l2) in orders and e1 == e2 == first:
                out.pop(((1, 2), (2,) + first[1:]), None)
        return out
    return planted


@pytest.mark.parametrize("orders, failing", [
    ({((1,), (2,)), ((2,), (1,))}, {"product_matches_polynomial_model"}),
    ({((1,), (2,))}, {"product_matches_polynomial_model", "commutative"}),
], ids=["both-orders", "one-order"])
def test_planted_char2_product_fails_its_records(monkeypatch, orders,
                                                 failing):
    """A product x_1 * x_2 dropped in both orders fails only the
    polynomial-model record; dropped in one order, commutativity too."""
    F = GF(2)
    assert char2_ring_check(3, 2, F)["ok"]
    monkeypatch.setattr(ring, "cup", _dropped_product(orders))
    rep = char2_ring_check(3, 2, F)
    assert {key for key, ok in rep.items() if not ok} == failing | {"ok"}


def test_planted_char2_factor_fails_vanishing_check(monkeypatch):
    """Differential terms that keep only the left summand x_h . g(e - d_h)
    no longer cancel in characteristic 2, and the vanishing check turns
    false: the check applies the column rules afresh."""
    F = GF(2)
    assert char2_ring_check(3, 2, F)["differentials_vanish"]
    monkeypatch.setattr(complexes, "generator_terms",
                        lambda m, h: ((1, (h,), ()),))
    complexes.cochain_rank.cache_clear()
    try:
        rep = char2_ring_check(3, 2, F)
        assert not rep["differentials_vanish"] and not rep["ok"]
    finally:
        complexes.cochain_rank.cache_clear()
