"""Cup product structure on Hochschild cohomology.

Cocycles on the small resolution are stored by their values on the
resolution generators: a degree-m cochain is a plain dict
{(monomial indices, exponent vector of degree m): nonzero scalar}, and
the field is passed beside it; n and m are read off its keys.  Only
``cochain`` validates one.  The cup product of two such cochains
multiplies the monomial parts in the exterior algebra and adds the
exponent vectors (a convolution over all splittings).

Away from characteristic 2 the single terms whose monomial degree has
the parity of the cohomological degree form a basis of the classes; the
records ring.basis-count and ring.basis-independent show it, the second
by checking each such term against the coboundaries of its weight.
Questions about coboundaries split by the Z^n weight v = e - 1_idx,
which the cochain differential keeps, and each is answered in the
weight blocks it touches.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from itertools import combinations, combinations_with_replacement, product

from .complexes import (
    TermTables,
    chain_dim,
    chain_keys,
    key_weight,
    resolution_ranks,
    weight_domain,
)
from .exactla import apply, rank_gain
from .exterior import check_n, merge_signed, monomials, center_basis
from .formulas import binom, same_parity
from .resolution import exponent_vectors


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
    of, zero = field.of, field.zero
    out = dict(a)
    for key, v in b.items():
        v = of(out.get(key, zero) + c * v)
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def unit_class(n, field):
    """The multiplicative unit: the empty monomial in degree 0."""
    return cochain(n, 0, field, {((), (0,) * n): field.one})


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


def cup(a, b, field):
    """Cup product of two cochains on the same n: multiply monomial parts,
    add exponent vectors."""
    of, plus = field.of, operator.add
    out = {}
    for (l1, e1), c1 in a.items():
        for (l2, e2), c2 in b.items():
            res = merge_signed(l1, l2)
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
    """Basis of degree-m cohomology classes, away from characteristic 2.

    Degree 0 is the center of the algebra.  In degree m >= 1 the basis
    vectors are the single terms whose monomial degree i satisfies
    p(i) = p(m), with i running over 0..n.
    """
    if field.char == 2:
        raise ValueError("characteristic 2 has no parity basis; every "
                         "cochain is a cocycle there")
    if m == 0:
        zero_e = (0,) * n
        return [cochain(n, 0, field, {(idx, zero_e): field.one})
                for idx in center_basis(n, field)]
    out = []
    for idx in monomials(n):
        if not same_parity(len(idx), m):
            continue
        for e in exponent_vectors(n, m):
            out.append(cochain(n, m, field, {(idx, e): field.one}))
    return out


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


def _delta_e(n, *hs):
    e = [0] * n
    for h in hs:
        e[h - 1] += 1
    return tuple(e)


def deg0_generator(n, field, i, j):
    """Degree-0 class of the quadratic central monomial x_i x_j, i < j."""
    if not 1 <= i < j <= n:
        raise ValueError("need 1 <= i < j <= n")
    return cochain(n, 0, field, {((i, j), (0,) * n): field.one})


def deg1_generator(n, field, p, q):
    """Degree-1 class: generator p against the first power of exponent q."""
    if not (1 <= p <= n and 1 <= q <= n):
        raise ValueError("indices out of range")
    return cochain(n, 1, field, {((p,), _delta_e(n, q)): field.one})


def deg2_generator(n, field, s, t):
    """Degree-2 class with exponent vector supported on s and t, s <= t."""
    if not 1 <= s <= t <= n:
        raise ValueError("need 1 <= s <= t <= n")
    return cochain(n, 2, field, {((), _delta_e(n, s, t)): field.one})


def generators(n, field):
    """Every generator once, in three dicts by degree, keyed by (i, j)
    with i < j, by (p, q) and by (s, t) with s <= t; cup never changes them."""
    rng = range(1, n + 1)
    return ({k: deg0_generator(n, field, *k) for k in combinations(rng, 2)},
            {k: deg1_generator(n, field, *k) for k in product(rng, repeat=2)},
            {k: deg2_generator(n, field, *k)
             for k in combinations_with_replacement(rng, 2)})


def relation_instances(n, field):
    """Yield (family id, instance indices, lhs, rhs) for every instance of
    the generator relations in range.  rhs None means the product must be
    the zero class.

    Families are grouped by the degrees multiplied: deg00.* are products
    of two degree-0 generators, deg01.* a degree-0 by a degree-1, and so
    on.  Commutation families come first in each group, then the
    vanishing and rewriting families.
    """
    check_n(n)
    rng = range(1, n + 1)
    U, V, W = generators(n, field)
    mul = lambda x, y: cup(x, y, field)
    neg = lambda x: add({}, x, field, -1)

    for i, j in combinations(rng, 2):
        for s, t in combinations(rng, 2):
            yield "deg00.1", (i, j, s, t), mul(U[i, j], U[s, t]), mul(U[s, t], U[i, j])
            if {i, j} & {s, t}:
                yield "deg00.2", (i, j, s, t), mul(U[i, j], U[s, t]), None
    for a, b, c, d in combinations(rng, 4):
        # patterns of two interleaved index pairs, in each relative order
        i, s, j, t = a, b, c, d
        yield "deg00.3", (i, j, s, t), mul(U[i, j], U[s, t]), neg(mul(U[i, s], U[j, t]))
        i, s, t, j = a, b, c, d
        yield "deg00.4", (i, j, s, t), mul(U[i, j], U[s, t]), mul(U[i, s], U[t, j])
        s, i, t, j = a, b, c, d
        yield "deg00.5", (i, j, s, t), mul(U[i, j], U[s, t]), neg(mul(U[s, i], U[t, j]))
        s, i, j, t = a, b, c, d
        yield "deg00.6", (i, j, s, t), mul(U[i, j], U[s, t]), mul(U[s, i], U[j, t])

    for i, j in combinations(rng, 2):
        for s in rng:
            for t in rng:
                yield "deg01.1", (i, j, s, t), mul(U[i, j], V[s, t]), mul(V[s, t], U[i, j])
                if s in (i, j):
                    yield "deg01.2", (i, j, s, t), mul(U[i, j], V[s, t]), None
    for a, b, c in combinations(rng, 3):
        for t in rng:
            s, i, j = a, b, c
            yield "deg01.3", (i, j, s, t), mul(U[i, j], V[s, t]), mul(U[s, i], V[j, t])
            i, s, j = a, b, c
            yield "deg01.4", (i, j, s, t), mul(U[i, j], V[s, t]), neg(mul(U[i, s], V[j, t]))

    for i, j in combinations(rng, 2):
        for s, t in combinations_with_replacement(rng, 2):
            yield "deg02.1", (i, j, s, t), mul(U[i, j], W[s, t]), mul(W[s, t], U[i, j])

    for i in rng:
        for j in rng:
            for t in rng:
                yield "deg11.1", (i, j, i, t), mul(V[i, j], V[i, t]), None
    for i, s in combinations(rng, 2):
        for j in rng:
            for t in rng:
                if j <= t:
                    yield "deg11.2", (i, j, s, t), mul(V[i, j], V[s, t]), mul(U[i, s], W[j, t])
                if t <= j:
                    yield "deg11.3", (i, j, s, t), mul(V[i, j], V[s, t]), mul(U[i, s], W[t, j])
                if j <= t:
                    yield "deg11.4", (s, j, i, t), mul(V[s, j], V[i, t]), neg(mul(U[i, s], W[j, t]))
                if t <= j:
                    yield "deg11.5", (s, j, i, t), mul(V[s, j], V[i, t]), neg(mul(U[i, s], W[t, j]))

    for i in rng:
        for j in rng:
            for s, t in combinations_with_replacement(rng, 2):
                yield "deg12.1", (i, j, s, t), mul(V[i, j], W[s, t]), mul(W[s, t], V[i, j])
                if s < j <= t:
                    yield "deg12.2", (i, j, s, t), mul(V[i, j], W[s, t]), mul(V[i, s], W[j, t])
                if s < t <= j:
                    yield "deg12.3", (i, j, s, t), mul(V[i, j], W[s, t]), mul(V[i, s], W[t, j])

    for i, j in combinations_with_replacement(rng, 2):
        for s, t in combinations_with_replacement(rng, 2):
            yield "deg22.1", (i, j, s, t), mul(W[i, j], W[s, t]), mul(W[s, t], W[i, j])
            if i <= s <= j <= t:
                yield "deg22.2", (i, j, s, t), mul(W[i, j], W[s, t]), mul(W[i, s], W[j, t])
            if i <= s <= t <= j:
                yield "deg22.3", (i, j, s, t), mul(W[i, j], W[s, t]), mul(W[i, s], W[t, j])
            if s <= i <= t <= j:
                yield "deg22.4", (i, j, s, t), mul(W[i, j], W[s, t]), mul(W[s, i], W[t, j])
            if s <= i <= j <= t:
                yield "deg22.5", (i, j, s, t), mul(W[i, j], W[s, t]), mul(W[s, i], W[j, t])


RELATION_FAMILIES = (
    "deg00.1", "deg00.2", "deg00.3", "deg00.4", "deg00.5", "deg00.6",
    "deg01.1", "deg01.2", "deg01.3", "deg01.4",
    "deg02.1",
    "deg11.1", "deg11.2", "deg11.3", "deg11.4", "deg11.5",
    "deg12.1", "deg12.2", "deg12.3",
    "deg22.1", "deg22.2", "deg22.3", "deg22.4", "deg22.5",
)


def verify_ring_relations(n, field):
    """Check every relation instance as an equality of cohomology classes.

    Returns a list of per-family records {family, instances, failures}
    with failures listing the offending index tuples (empty when all
    instances hold).
    """
    stats = {fid: {"family": fid, "instances": 0, "failures": []} for fid in RELATION_FAMILIES}
    for fid, inst, lhs, rhs in relation_instances(n, field):
        rec = stats[fid]
        rec["instances"] += 1
        ok = classes_equal(lhs, {} if rhs is None else rhs, field)
        if not ok:
            rec["failures"].append(inst)
    return [stats[fid] for fid in RELATION_FAMILIES]


# ---------------------------------------------------------------------------
# Structural checks: unit, graded commutativity, associativity.


def _test_cocycle(n, m, field):
    """A degree-m cocycle that is no basis class: one term per monomial of
    degree parity p(m), the k-th against exponent vector k (cyclically)
    with coefficient 1 + k % 2, nonzero in every odd characteristic."""
    es = exponent_vectors(n, m)
    pure = [idx for idx in monomials(n) if same_parity(len(idx), m)]
    return cochain(n, m, field, {
        (idx, es[k % len(es)]): field.of(1 + k % 2) for k, idx in enumerate(pure)
    })


def _merge_pairs(n):
    """The monomial index tuples and the table {(a, b): merge_signed(a, b)}
    over every pair of them, built afresh on each call."""
    mons = monomials(n)
    return mons, {(a, b): merge_signed(a, b) for a in mons for b in mons}


def verify_graded_commutativity(n, field, total_deg_max):
    """a * b = (-1)^(st) b * a for classes of degrees s + t <= total_deg_max.

    The sign rule is checked once on every pair of monomials, and cup
    itself on one test cocycle per degree for every such (s, t)."""
    if field.char == 2:
        raise ValueError("use the characteristic-2 structure check instead")
    mons, pairs = _merge_pairs(n)
    for a, b in product(mons, repeat=2):
        ab, ba = pairs[a, b], pairs[b, a]
        if ba is not None:
            ba = ((-1) ** (len(a) * len(b)) * ba[0], ba[1])
        if ab != ba:
            return False
    cocycles = [_test_cocycle(n, m, field) for m in range(total_deg_max + 1)]
    for s in range(total_deg_max + 1):
        for t in range(total_deg_max + 1 - s):
            a, b, sign = cocycles[s], cocycles[t], (-1) ** (s * t)
            if cup(a, b, field) != add({}, cup(b, a, field), field, sign):
                return False
    return True


def verify_associativity(n, field, total_deg_max):
    """(a * b) * c = a * (b * c) for classes of total degree <= total_deg_max.

    The sign rule is checked once on every triple of monomials, and cup
    itself on one test cocycle per degree for every such degree triple."""
    if field.char == 2:
        raise ValueError("use the characteristic-2 structure check instead")
    mons, pairs = _merge_pairs(n)
    for a, b, c in product(mons, repeat=3):
        ab, bc = pairs[a, b], pairs[b, c]
        left = ab and pairs[ab[1], c]
        right = bc and pairs[a, bc[1]]
        if ((left and (ab[0] * left[0], left[1]))
                != (right and (bc[0] * right[0], right[1]))):
            return False
    cocycles = [_test_cocycle(n, m, field) for m in range(total_deg_max + 1)]
    for s in range(total_deg_max + 1):
        for t in range(total_deg_max + 1 - s):
            for u in range(total_deg_max + 1 - s - t):
                a, b, c = cocycles[s], cocycles[t], cocycles[u]
                if (cup(cup(a, b, field), c, field)
                        != cup(a, cup(b, c, field), field)):
                    return False
    return True


def verify_unital(n, field, total_deg_max):
    """The degree-0 empty-monomial class is a two-sided unit on the basis
    terms (on every single term in characteristic 2)."""
    one = unit_class(n, field)
    for m in range(total_deg_max + 1):
        for key in chain_keys(n, m):
            if field.char != 2 and not same_parity(len(key[0]), m):
                continue
            v = {key: field.one}
            if cup(one, v, field) != v or cup(v, one, field) != v:
                return False
    return True


# ---------------------------------------------------------------------------
# Presentation by generators and relations: normal form audit.


def presentation_normal_forms(n, degree, min_index=1):
    """Normal-form words of the given total degree.

    A word is an even-length strictly increasing chain of indices
    >= min_index grouped into degree-0 pair letters, extended by one
    degree-1 letter on the next chain index when the degree is odd,
    followed by a sorted multiset of exponent indices grouped into one
    slot on the degree-1 letter (odd case) and degree-2 pair letters.

    Letters are (0, (i1, i2)), (1, (p, q)) or (2, (s, t)).
    """
    check_n(n)
    if degree < 0:
        raise ValueError("degree must be >= 0")
    odd = degree % 2
    pool = range(min_index, n + 1)
    out = []
    for size in range(odd, len(pool) + 1, 2):
        for chain in combinations(pool, size):
            for jvec in combinations_with_replacement(range(1, n + 1), degree):
                letters = []
                pairs = size // 2
                for p in range(pairs):
                    letters.append((0, (chain[2 * p], chain[2 * p + 1])))
                rest = jvec
                if odd:
                    letters.append((1, (chain[-1], jvec[0])))
                    rest = jvec[1:]
                for p in range(len(rest) // 2):
                    letters.append((2, (rest[2 * p], rest[2 * p + 1])))
                out.append(tuple(letters))
    return out


def presentation_count(n, degree, min_index=1):
    """Closed count of normal forms: (chains of the right parity from the
    allowed indices) times (exponent multisets of the size the degree
    dictates)."""
    pool_size = n - min_index + 1
    odd = degree % 2
    chains = sum(binom(pool_size, k) for k in range(odd, pool_size + 1, 2))
    return chains * binom(n + degree - 1, degree)


def evaluate_word(word, unit, gens, field):
    """Cup product of the word's letters, left to right, from ``unit``;
    ``gens`` are the three dicts of ``generators``."""
    acc = unit
    for d, k in word:
        acc = cup(acc, gens[d][k], field)
    return acc


def presentation_audit(n, field, hhc):
    """Per degree d, compare the normal-form count against the computed
    cohomology dimension ``hhc[d]`` (``hhc`` runs over degrees 0..deg_max),
    under both readings of the chain's starting index (from 1, and the
    strict variant from 2), and evaluate every normal form.

    Evaluations must be nonzero single terms with distinct supports; that
    makes them independent classes, so a matching count means the normal
    forms form a basis in that degree.
    """
    records = []
    unit, gens = unit_class(n, field), generators(n, field)
    for d, expected in enumerate(hhc):
        words = presentation_normal_forms(n, d, min_index=1)
        count = len(words)
        keys = set()
        clean = True
        for w in words:
            val = evaluate_word(w, unit, gens, field)
            key, c = next(iter(val.items()), ((), 0))
            if (len(val) != 1 or not c or key in keys
                    or not same_parity(len(key[0]), d)):
                clean = False
                break
            keys.add(key)
        if count != presentation_count(n, d, min_index=1):
            clean = False
        records.append(
            {
                "degree": d,
                "count": count,
                "strict_count": presentation_count(n, d, min_index=2),
                "expected": expected,
                "matches": count == expected,
                "evaluations_independent": clean,
            }
        )
    return records


# ---------------------------------------------------------------------------
# Characteristic 2: the ring is the whole term algebra.


def char2_ring_check(n, deg_max, field):
    """Structure of the cohomology ring in characteristic 2.

    Checks that both differentials vanish (so every cochain is a cocycle
    and there are no coboundaries), that the degree-m dimension is the
    full term dimension, and that the product is the sign-free
    polynomial-style product: monomial union when disjoint else zero,
    exponents added; in particular the ring is commutative.  Each single
    term is multiplied, in both orders, by the sum of every term of one
    monomial in one degree; the keys of that product are distinct, so
    each single-term product is still compared as a term of its own.
    """
    if field.char != 2:
        raise ValueError("this check is only meaningful in characteristic 2")
    tables = TermTables(n, field)
    columns = [(tables.column(m, False), m) for m in range(deg_max + 1)]
    columns += [(tables.column(m, True), m) for m in range(1, deg_max + 2)]
    diffs_vanish = not any(apply(column, {key: field.one}, field)
                           for column, m in columns
                           for key in chain_keys(n, m))
    ranks = resolution_ranks(tables, deg_max)
    dims_full = all(ranks.hhc(m) == chain_dim(n, m)
                    for m in range(deg_max + 1))
    product_ok = True
    commutative = True
    one = field.one
    for s in range(deg_max + 1):
        for t in range(deg_max + 1 - s):
            es = exponent_vectors(n, t)
            right = [(l2, dict.fromkeys([(l2, e2) for e2 in es], one))
                     for l2 in monomials(n)]
            for l1, e1 in chain_keys(n, s):
                set1 = set(l1)
                a = {(l1, e1): one}
                sums = [tuple(map(operator.add, e1, e2)) for e2 in es]
                for l2, b in right:
                    got = cup(a, b, field)
                    want = {}
                    if set1.isdisjoint(l2):
                        merged = tuple(sorted(l1 + l2))
                        want = dict.fromkeys([(merged, e) for e in sums], one)
                    if got != want:
                        product_ok = False
                    if got != cup(b, a, field):
                        commutative = False
            if not (product_ok and commutative):
                break
        if not (product_ok and commutative):
            break
    ok = diffs_vanish and dims_full and product_ok and commutative
    return {
        "differentials_vanish": diffs_vanish,
        "dims_full": dims_full,
        "product_matches_polynomial_model": product_ok,
        "commutative": commutative,
        "ok": ok,
    }
