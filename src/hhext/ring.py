"""Cup product structure on Hochschild cohomology.

Cocycles on the small resolution are stored by their values on the
resolution generators: a degree-m cochain is a plain dict
{(monomial indices, exponent vector of degree m): nonzero scalar}, and
the field is passed beside it; n and m are read off its keys.  Only
``cochain`` validates one.  The cup product of two such cochains
multiplies the monomial parts in the exterior algebra and adds the
exponent vectors (a convolution over all splittings).

The single terms whose monomial degree has the parity of the
cohomological degree (and the top monomial in degree 0 when n is odd)
form a basis of the classes, ``cohomology_basis``; in characteristic 2,
where both differentials vanish, every single term does.  The unit
check and the presentation audit read that basis too; the records
ring.basis-count and ring.basis-independent show it, the second by
checking each such term against the coboundaries of its weight.
Questions about coboundaries split by the Z^n weight v = e - 1_idx,
which the cochain differential keeps, and each is answered in the
weight blocks it touches.  Every check runs the same way in every
characteristic.

The generators are single terms, one per letter (degree, index tuple).
The relations are the table ``RELATIONS``; each instance is a sum of
two-letter words with integer coefficients, an element of the free
algebra on the letters, which holds when its cup evaluation is the zero
class.  Presentation normal forms are words on the same letters, and in
characteristic 2 on the one-index letters x_i and y_q.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from itertools import combinations, combinations_with_replacement, product

from .exactla import apply, rank_gain
from .exterior import check_n, merge_signed, monomials
from .formulas import binom, same_parity
from .resolution import TermTables, exponent_vectors, key_weight, weight_domain


def cochain(n, m, field, terms):
    """The degree-m cochain with the given terms, checked: n is valid, m is
    nonnegative, every exponent vector has n nonnegative entries summing
    to m, and every monomial is an increasing tuple of indices in 1..n.
    Scalars are normalised by ``field.of`` and zeros dropped.  Every other
    cochain is built as a plain dict from keys already known to be valid."""
    check_n(n)
    if m < 0:
        raise ValueError("cochain degree must be >= 0")
    clean = {}
    for (idx, e), c in terms.items():
        if len(e) != n or sum(e) != m or min(e) < 0:
            raise ValueError(f"exponent vector {e} is not {n} nonnegative "
                             f"entries summing to m={m}")
        if list(idx) != sorted(set(idx)) or not all(0 < h <= n for h in idx):
            raise ValueError(f"monomial {idx} is not increasing in 1..{n}")
        c = field.of(c)
        if c:
            clean[idx, e] = c
    return clean


def add(a, b, field, c=1):
    """The cochain a + c*b, storing no zero; neither input is changed."""
    of = field.of
    out = dict(a)
    for key, v in b.items():
        v = of(out.get(key, 0) + c * v)
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def unit_class(n):
    """The multiplicative unit: the empty monomial in degree 0."""
    return {((), (0,) * n): 1}


def apply_differential(vec, field):
    """Image of the cochain under the cochain differential, one degree up."""
    if not vec:
        return {}
    _, e = next(iter(vec))
    return apply(TermTables(len(e), field).column(sum(e), False), vec, field)


def is_cocycle(vec, field):
    return not apply_differential(vec, field)


def _coboundary_gain(n, m, field):
    """A map (v, vecs) -> how much the weight-v vectors ``vecs`` raise the
    rank of the degree-m coboundaries of weight v: the images of the keys
    of the weight-v block leaving degree m - 1.  Nothing is kept between
    calls; in degree 0 every such block has no keys."""
    column = TermTables(n, field).column(m - 1, False)
    return lambda v, vecs: rank_gain(
        [column(k) for k in weight_domain(n, m - 1, v, False)], vecs, field)


def _by_weight(vec):
    """The terms split into {weight: {key: scalar}}."""
    parts = defaultdict(dict)
    for key, c in vec.items():
        parts[key_weight(key, False)][key] = c
    return parts


def in_coboundary_image(vec, field):
    """Whether vec is a coboundary: no weight part of it raises the rank
    of the coboundaries of that weight."""
    if not vec:
        return True
    _, e = next(iter(vec))
    gain = _coboundary_gain(len(e), sum(e), field)
    return not any(gain(v, [part]) for v, part in _by_weight(vec).items())


def classes_equal(a, b, field):
    """Equality in cohomology of two cochains of one degree: the difference
    is a cocycle and a coboundary."""
    diff = add(a, b, field, -1)
    return not diff or (is_cocycle(diff, field)
                        and in_coboundary_image(diff, field))


def cup(a, b, field, mul=None):
    """Cup product of two cochains on the same n: multiply monomial parts
    by ``mul`` (default: ``merge_signed`` as bound at the call), add
    exponent vectors."""
    of, plus, mul = field.of, operator.add, mul or merge_signed
    out = {}
    for (l1, e1), c1 in a.items():
        for (l2, e2), c2 in b.items():
            res = mul(l1, l2)
            if res is None:
                continue
            v = of(c1 * c2 if res[0] > 0 else -(c1 * c2))
            key = (res[1], tuple(map(plus, e1, e2)))
            if key in out:
                v = of(out[key] + v)
                if not v:
                    del out[key]
                    continue
            out[key] = v
    return out


def cohomology_basis(n, m, field):
    """Basis of degree-m cohomology classes: the single terms whose
    monomial degree i satisfies p(i) = p(m), with i running over 0..n,
    and in degree 0, the center of the algebra, the top monomial too when
    n is odd.  In characteristic 2 the parity condition drops, as in the
    closed forms, and every single term is a class.
    """
    es = exponent_vectors(n, m)
    return [{(idx, e): 1} for idx in monomials(n)
            if field.char == 2 or same_parity(len(idx), m)
            or (m == 0 and len(idx) == n)
            for e in es]


def verify_cohomology_basis(n, m, field, basis, dim):
    """The claimed degree-m basis (the list ``cohomology_basis`` gives)
    has the computed dimension ``dim`` as its size, consists of cocycles that each lie in one weight,
    and is independent modulo coboundaries.  Cohomology splits by weight,
    so independence is checked per weight: the vectors of one weight must
    raise the rank of that weight's coboundaries by their number."""
    if len(basis) != dim:
        return False
    column = TermTables(n, field).column(m, False)
    groups = defaultdict(list)
    for vec in basis:
        weights = _by_weight(vec)
        if len(weights) != 1 or apply(column, vec, field):
            return False
        (v, terms), = weights.items()
        groups[v].append(terms)
    gain = _coboundary_gain(n, m, field)
    return all(gain(v, vecs) == len(vecs) for v, vecs in groups.items())


# ---------------------------------------------------------------------------
# Generators and their relations.


def _letter_keys(n):
    """The sorted index pairs of the letters by degree: (i, j) with i < j
    in degree 0, every (p, q) in degree 1, (s, t) with s <= t in degree 2."""
    rng = range(1, n + 1)
    return (tuple(combinations(rng, 2)), tuple(product(rng, repeat=2)),
            tuple(combinations_with_replacement(rng, 2)))


def _letter(n, d, k):
    """The single term of the degree-d letter with index tuple k: the
    monomial on all but the last d indices against the exponent vector
    of the last d, coefficient one."""
    cut = len(k) - d
    return {(k[:cut], tuple(map(k[cut:].count, range(1, n + 1)))): 1}


def generators(n):
    """Every generator once, in three dicts by degree keyed by its letter's
    index pair: x_i x_j in degree 0, x_p against exponent q in degree 1,
    the empty monomial against s, t in degree 2.  cup never changes them."""
    return tuple({k: _letter(n, d, k) for k in keys}
                 for d, keys in enumerate(_letter_keys(n)))


# The relations, one row per family: (id, test, right side).  Family
# degXY.k relates the word X_ij Y_st, a degree-X letter then a degree-Y
# letter, for every such pair of letters whose indices pass the test
# (None: every pair).  The right side is None (zero) or a sign times two
# letters, each a degree and the names of its two indices among i, j, s,
# t.  In each degree pair the commutation family comes first.
RELATIONS = (
    ("deg00.1", None, (1, "0st", "0ij")),
    ("deg00.2", lambda i, j, s, t: {i, j} & {s, t}, None),
    ("deg00.3", lambda i, j, s, t: i < s < j < t, (-1, "0is", "0jt")),
    ("deg00.4", lambda i, j, s, t: i < s < t < j, (1, "0is", "0tj")),
    ("deg00.5", lambda i, j, s, t: s < i < t < j, (-1, "0si", "0tj")),
    ("deg00.6", lambda i, j, s, t: s < i < j < t, (1, "0si", "0jt")),
    ("deg01.1", None, (1, "1st", "0ij")),
    ("deg01.2", lambda i, j, s, t: s in (i, j), None),
    ("deg01.3", lambda i, j, s, t: s < i < j, (1, "0si", "1jt")),
    ("deg01.4", lambda i, j, s, t: i < s < j, (-1, "0is", "1jt")),
    ("deg02.1", None, (1, "2st", "0ij")),
    ("deg11.1", lambda i, j, s, t: i == s, None),
    ("deg11.2", lambda i, j, s, t: i < s and j <= t, (1, "0is", "2jt")),
    ("deg11.3", lambda i, j, s, t: i < s and t <= j, (1, "0is", "2tj")),
    ("deg11.4", lambda i, j, s, t: s < i and j <= t, (-1, "0si", "2jt")),
    ("deg11.5", lambda i, j, s, t: s < i and t <= j, (-1, "0si", "2tj")),
    ("deg12.1", None, (1, "2st", "1ij")),
    ("deg12.2", lambda i, j, s, t: s < j <= t, (1, "1is", "2jt")),
    ("deg12.3", lambda i, j, s, t: s < t <= j, (1, "1is", "2tj")),
    ("deg22.1", None, (1, "2st", "2ij")),
    ("deg22.2", lambda i, j, s, t: i <= s <= j <= t, (1, "2is", "2jt")),
    ("deg22.3", lambda i, j, s, t: i <= s <= t <= j, (1, "2is", "2tj")),
    ("deg22.4", lambda i, j, s, t: s <= i <= t <= j, (1, "2si", "2tj")),
    ("deg22.5", lambda i, j, s, t: s <= i <= j <= t, (1, "2si", "2jt")),
)

RELATION_FAMILIES = tuple(row[0] for row in RELATIONS)


def relation_instances(n):
    """Yield (family id, (i, j, s, t), element) for every instance, family
    by family, each in lexicographic order of (i, j, s, t).  The element,
    left word minus right side, lies in the free algebra on the letters:
    {word: int} with no zero, a word being two letters (degree, index
    pair).  It is empty, and still an instance, where both sides agree."""
    check_n(n)
    keys = _letter_keys(n)
    for fid, test, right in RELATIONS:
        x, y = int(fid[3]), int(fid[4])
        if right:  # each letter as its degree and two places in (i, j, s, t)
            sign, *letters = right
            (d1, p1, q1), (d2, p2, q2) = [
                (int(h), *map("ijst".index, pq)) for h, *pq in letters]
        for (i, j), (s, t) in product(keys[x], keys[y]):
            if test and not test(i, j, s, t):
                continue
            v = (i, j, s, t)
            element = {((x, (i, j)), (y, (s, t))): 1}
            if right:
                word = ((d1, (v[p1], v[q1])), (d2, (v[p2], v[q2])))
                c = element.pop(word, 0) - sign
                if c:
                    element[word] = c
            yield fid, v, element


def verify_ring_relations(n, field):
    """Per family {family, instances, failures}: every instance's element,
    each word the cup product of its letters from ``generators``, must be
    the zero class; failures lists the index tuples of those that are not.
    Each distinct word is evaluated once per degree pair of families."""
    unit, gens = unit_class(n), generators(n)
    words, pair = {}, None
    stats = {fid: {"family": fid, "instances": 0, "failures": []}
             for fid in RELATION_FAMILIES}
    for fid, inst, element in relation_instances(n):
        if fid[:5] != pair:
            words, pair = {}, fid[:5]
        value = {}
        for word, c in element.items():
            if word not in words:
                words[word] = evaluate_word(word, unit, gens, field)
            prod = words[word]
            value = add(value, prod, field, c) if value or c != 1 else prod
        stats[fid]["instances"] += 1
        if not classes_equal(value, {}, field):
            stats[fid]["failures"].append(inst)
    return list(stats.values())


# ---------------------------------------------------------------------------
# Structural checks: unit, graded commutativity, associativity.


def _test_cocycle(n, m, field):
    """A degree-m cocycle that is no basis class: one term per monomial of
    degree parity p(m), the k-th against exponent vector k (cyclically)
    with coefficient 1 + k % 2, or 1 where that is 0 (characteristic 2),
    so every term is nonzero in every characteristic."""
    es = exponent_vectors(n, m)
    pure = [idx for idx in monomials(n) if same_parity(len(idx), m)]
    return {(idx, es[k % len(es)]): field.of(1 + k % 2) or 1
            for k, idx in enumerate(pure)}


def _structure_inputs(n, field, total_deg_max):
    """The monomial index tuples, the table {(a, b): merge_signed(a, b)}
    over all 4^n pairs, its lookup as ``cup`` takes it, and
    ``_test_cocycle`` in each degree 0..total_deg_max, built afresh on
    each call; with at least degree 0 to check."""
    if total_deg_max < 0:
        raise ValueError("total_deg_max must be >= 0")
    mons = monomials(n)
    pairs = {(a, b): merge_signed(a, b) for a in mons for b in mons}
    return (mons, pairs, lambda a, b: pairs[a, b],
            [_test_cocycle(n, m, field) for m in range(total_deg_max + 1)])


def verify_graded_commutativity(n, field, total_deg_max):
    """a * b = (-1)^(st) b * a for classes of degrees s + t <= total_deg_max.

    The sign rule is checked once on every pair of monomials, and cup
    itself, reading the pair table, on one test cocycle per degree for
    every such (s, t)."""
    mons, pairs, mul, cocycles = _structure_inputs(n, field, total_deg_max)
    for a, b in product(mons, repeat=2):
        ab, ba = pairs[a, b], pairs[b, a]
        if ba is not None:
            ba = ((-1) ** (len(a) * len(b)) * ba[0], ba[1])
        if ab != ba:
            return False
    for s in range(total_deg_max + 1):
        for t in range(total_deg_max + 1 - s):
            a, b = cocycles[s], cocycles[t]
            if (cup(a, b, field, mul)
                    != add({}, cup(b, a, field, mul), field, (-1) ** (s * t))):
                return False
    return True


def verify_associativity(n, field, total_deg_max):
    """(a * b) * c = a * (b * c) for classes of total degree <= total_deg_max.

    On all 4^n monomial pairs, merge_signed is None exactly where the two
    share an index, else their sorted union; so every overlapping triple is
    None on both sides, and the sign rule is checked on the 4^n disjoint
    ones.  Then cup, reading the pair table, on one test cocycle per degree
    for every such degree triple, each product of two computed once."""
    mons, pairs, mul, cocycles = _structure_inputs(n, field, total_deg_max)
    for (a, b), ab in pairs.items():
        union = tuple(sorted(set(a + b)))
        if (ab and ab[1]) != (union if len(union) == len(a + b) else None):
            return False
    partners = {a: [b for b in mons if pairs[a, b]] for a in mons}
    for a in mons:
        for b in partners[a]:
            sign, ab = pairs[a, b]
            for c in partners[ab]:
                bc = pairs[b, c]
                if sign * pairs[ab, c][0] != bc[0] * pairs[a, bc[1]][0]:
                    return False
    top = total_deg_max + 1
    prods = {(s, t): cup(cocycles[s], cocycles[t], field, mul)
             for s in range(top) for t in range(top - s)}
    for (s, t), ab in prods.items():
        for u in range(top - s - t):
            if (cup(ab, cocycles[u], field, mul)
                    != cup(cocycles[s], prods[t, u], field, mul)):
                return False
    return True


def verify_unital(n, field, total_deg_max):
    """The degree-0 empty-monomial class is a two-sided unit on every
    class of ``cohomology_basis`` in degrees 0..total_deg_max."""
    if total_deg_max < 0:
        raise ValueError("total_deg_max must be >= 0")
    one = unit_class(n)
    return all(cup(one, v, field) == v == cup(v, one, field)
               for m in range(total_deg_max + 1)
               for v in cohomology_basis(n, m, field))


# ---------------------------------------------------------------------------
# Presentation by generators and relations: normal form audit.


def _chain_sizes(pool, degree, char):
    """The sizes of the normal forms' chains on ``pool`` indices: those of
    the degree's parity, and every size in characteristic 2."""
    return range(pool + 1) if char == 2 else range(degree % 2, pool + 1, 2)


def presentation_normal_forms(n, degree, char=0):
    """The normal-form words of the given total degree, yielded one at a
    time: one per strictly increasing chain of indices, of a size
    ``_chain_sizes`` allows, and sorted multiset of ``degree`` exponent
    indices.

    Away from characteristic 2 the chain is grouped into degree-0 pair
    letters, extended by one degree-1 letter on its last index when the
    degree is odd, and the exponent indices fill one slot on that
    degree-1 letter (odd case), then degree-2 pair letters.  In
    characteristic 2 the word is x_S y^e: one degree-0 letter per chain
    index, then one degree-1 letter per exponent index.

    Letters are (0, (i1, i2)), (1, (p, q)) or (2, (s, t)), and in
    characteristic 2 (0, (i,)) or (1, (q,)).
    """
    check_n(n)
    if degree < 0:
        raise ValueError("degree must be >= 0")
    odd = degree % 2
    for size in _chain_sizes(n, degree, char):
        for chain in combinations(range(1, n + 1), size):
            for jvec in combinations_with_replacement(range(1, n + 1), degree):
                if char == 2:
                    yield tuple([(0, (i,)) for i in chain]
                                + [(1, (q,)) for q in jvec])
                    continue
                letters = [(0, chain[p:p + 2])
                           for p in range(0, size - odd, 2)]
                if odd:
                    letters.append((1, (chain[-1], jvec[0])))
                rest = jvec[odd:]
                letters += [(2, rest[p:p + 2]) for p in range(0, len(rest), 2)]
                yield tuple(letters)


def presentation_count(n, degree, min_index=1, char=0):
    """Closed count of normal forms: (chains of the sizes ``_chain_sizes``
    allows on the allowed indices) times (exponent multisets of the size
    the degree dictates)."""
    pool_size = n - min_index + 1
    chains = sum(binom(pool_size, k)
                 for k in _chain_sizes(pool_size, degree, char))
    return chains * binom(n + degree - 1, degree)


def evaluate_word(word, unit, gens, field):
    """Cup product of the word's letters, left to right, from its first;
    ``unit`` for the empty word.  ``gens`` are the three dicts of
    ``generators``, or those of ``presentation_audit``."""
    if not word:
        return unit
    (d, k), *rest = word
    acc = gens[d][k]
    for d, k in rest:
        acc = cup(acc, gens[d][k], field)
    return acc


def presentation_audit(n, field, hhc):
    """Per degree d, compare the normal-form count against the computed
    cohomology dimension ``hhc[d]`` (``hhc`` runs over degrees 0..deg_max),
    under both readings of the chain's starting index (from 1, and the
    strict variant from 2), and evaluate every normal form.

    Each evaluation must be a single term whose key is a key of
    ``cohomology_basis(n, d, field)`` that no other evaluation reached;
    that makes them independent classes, so a matching count means the
    normal forms form a basis in that degree.  ``unreached`` lists, sorted,
    the basis keys that no evaluation hit.
    """
    records = []
    unit, gens = unit_class(n), generators(n)
    for d in (0, 1):  # x_i and y_q, the one-index letters of characteristic 2
        gens[d].update({(i,): _letter(n, d, (i,)) for i in range(1, n + 1)})
    for d, expected in enumerate(hhc):
        left = {key for v in cohomology_basis(n, d, field) for key in v}
        count, clean = 0, True
        for w in presentation_normal_forms(n, d, field.char):
            count += 1
            val = evaluate_word(w, unit, gens, field)
            key = next(iter(val)) if len(val) == 1 else None
            if key in left and val[key]:
                left.remove(key)
            else:
                clean = False
        clean = clean and count == presentation_count(n, d, char=field.char)
        records.append({
            "degree": d, "count": count,
            "strict_count": presentation_count(n, d, min_index=2,
                                               char=field.char),
            "expected": expected, "evaluations_independent": clean,
            "unreached": sorted(left)})
    return records
