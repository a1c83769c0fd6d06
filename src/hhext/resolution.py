"""The minimal projective bimodule resolution of the exterior algebra,
and the chain and cochain complexes it gives.

Degree-m generators are indexed by exponent vectors (i_1,...,i_n) with
sum m.  Each generator is realized as a polynomial in the free algebra
on x_1..x_n via the recursion  g(e) = sum_h g(e - delta_h) x_h,  with
g(0) = 1, built degree by degree in each call that reads it; nothing is
cached.  Words are index tuples, and a free-algebra element is a dict
word -> integer coefficient.  The checks below machine-verify that the
polynomials form a basis of the expected relation-window intersection
space and that d squares to zero.  The differential is written once, as
the summands ``generator_terms`` of d(e); ``bimodule_column`` extends it
to the free bimodules A (x) V_m (x) A as a column rule.

The chain complex A (x)_{A^e} P_m and the cochain complex
Hom_{A^e}(P_m, A) have in degree m the exterior algebra tensored with
the degree-m commutative monomials, keyed by pairs (monomial index
tuple, exponent vector).  Both differentials are read off term tables of
the same summands: the degree enters them only through the sign (-1)^d,
so ``TermTables`` makes at most four per (n, field), and builds a row,
its values field elements made once by ``field.of``, only when a block
or a vector first reads that monomial.  A differential is read one way,
as the column rule of its table, which feeds ``exactla.apply`` and
``exactla.keyed_matrix``.  Ranks never need a global basis: both
differentials are block diagonal by a Z^n weight, 1_idx + e or
e - 1_idx, and each weight block is the keyed matrix of the column rule
with its rows named by their full target key.
Permuting the generators, an automorphism sending g(e) to g(sigma e),
carries each weight block onto the blocks of its S_n orbit by a signed
permutation, so a rank is an orbit sum over nonincreasing weights.  As
e - 1_S = (e + 1_T) - 1 for T the complement of S, one enumeration
lists the representative blocks of both sides (``weight_blocks``).
``resolution_ranks`` ranks every differential a record builder needs
once, in one pass; nothing outlives its tables.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, combinations_with_replacement, product
from math import comb as binom, factorial, prod

from .exactla import QQ, apply, keyed_matrix, rank, rank_gain
from .exterior import check_n, merge_signed, monomials


def exponent_vectors(n, m):
    """All (i_1,...,i_n) with nonnegative entries summing to m, in
    lexicographic order.  There are C(n+m-1, n-1) of them.
    """
    check_n(n)
    out = []
    for cuts in combinations_with_replacement(range(n), m):
        e = [0] * n
        for c in cuts:
            e[c] += 1
        out.append(tuple(e))
    out.sort()
    return tuple(out)


def _predecessors(e):
    """(h, e - d_h) for every h in the support of e."""
    return [(h, e[:h - 1] + (e[h - 1] - 1,) + e[h:])
            for h in range(1, len(e) + 1) if e[h - 1]]


def _appended(below, e, right):
    """sum_h g(e - d_h) x_h over the support of e when ``right``, else
    sum_h x_h g(e - d_h), with no zero terms, reading g from ``below``."""
    terms = {}
    for h, prev in _predecessors(e):
        for word, c in below[prev].items():
            w = word + (h,) if right else (h,) + word
            terms[w] = terms.get(w, 0) + c
    return {w: c for w, c in terms.items() if c}


def generator_polynomials(n, m):
    """{e: g(e)} over the degree-m exponent vectors, built from g(0) = 1 a
    degree at a time, keeping only the degree below; every word of
    multidegree e occurs, and coefficients are observed, not assumed."""
    if m < 0:
        raise ValueError("m must be >= 0")
    level = {e: {(): 1} for e in exponent_vectors(n, 0)}
    for d in range(1, m + 1):
        level = {e: _appended(level, e, right=True)
                 for e in exponent_vectors(n, d)}
    return level


def observed_coefficients(n, m):
    """Set of coefficient values occurring across all degree-m generators."""
    vals = set()
    for g in generator_polynomials(n, m).values():
        vals.update(g.values())
    return vals


def verify_left_right(n, m):
    """True iff appending generators on the right and on the left give the
    same degree-m generators: sum_h g(e-d_h) x_h = sum_h x_h g(e-d_h).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    below = generator_polynomials(n, m - 1)
    return all(_appended(below, e, right=False) == g
               for e, g in generator_polynomials(n, m).items())


def _relations(n):
    """The quadratic relations x_i x_j + x_j x_i for i <= j (x_i^2 when
    i = j, the two words coinciding), as vectors over the degree-2 words.
    """
    return [{(i, j): 1, (j, i): 1}
            for i in range(1, n + 1) for j in range(i, n + 1)]


def verify_relation_window_membership(n, m):
    """Every degree-m generator lies in the intersection, over all splits
    p + q = m - 2, of (words of length p) * (quadratic relations) * (words
    of length q).

    Checked by grouping each generator's words on (split, prefix, suffix)
    and testing that the induced degree-2 middle factors, over all splits
    at once, do not raise the rank of the relations.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    relations = _relations(n)
    for g in generator_polynomials(n, m).values():
        groups = {}
        for word, c in g.items():
            for p in range(0, m - 1):
                group = groups.setdefault((p, word[:p], word[p + 2:]), {})
                mid = word[p:p + 2]
                group[mid] = group.get(mid, 0) + c
        if rank_gain(relations, list(groups.values()), QQ):
            return False
    return True


def verify_generator_space_dim(n, m):
    """The degree-m generator family is linearly independent and has
    exactly C(n+m-1, n-1) members."""
    if m < 2:
        raise ValueError("m must be >= 2")
    gens = generator_polynomials(n, m)
    M = keyed_matrix(list(gens), gens.__getitem__, QQ)
    return rank(M) == len(gens) == binom(n + m - 1, n - 1)


def generator_terms(m, h):
    """The summands of the degree-m differential at one generator index
    h, as (sign, left word, right word) around g(e - d_h):

        d(e) = sum_h ( x_h . g(e - d_h) + (-1)^m g(e - d_h) . x_h )

    over the h in the support of e.  This is the one place the sign of
    the differential is written: ``bimodule_column`` and both column
    rules of ``TermTables`` read it.
    """
    return ((1, (h,), ()), ((-1) ** m, (), (h,)))


def bimodule_column(key):
    """Column rule of the differential of the free bimodule A (x) V (x) A:
    the key (a, e, b), monomials a and b around the generator g(e) of
    degree m = |e|, goes to {(a.l, e - d_h, r.b): integer} over the
    summands (s, l, r) of generator_terms(m, h), h in the support of e.
    """
    a, e, b = key
    col = {}
    for h, prev in _predecessors(e):
        for sign, l, r in generator_terms(sum(e), h):
            left, right = merge_signed(a, l), merge_signed(r, b)
            if left and right:
                target = (left[1], prev, right[1])
                col[target] = col.get(target, 0) + sign * left[0] * right[0]
    return col


def verify_delta_squared_zero(n, m):
    """The bimodule differential applied twice, from degree m + 1, sends
    every generator ((), e, ()) to zero.  Over Q every coefficient is an
    integer, so the conclusion holds over every field.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return not any(
        apply(bimodule_column,
              apply(bimodule_column, {((), e, ()): 1}, QQ), QQ)
        for e in exponent_vectors(n, m + 1))


def chain_keys(n, m):
    """Every key (monomial indices, exponent vector) of the degree-m term."""
    return list(product(monomials(n), exponent_vectors(n, m)))


def chain_dim(n, m):
    return 2 ** n * binom(n + m - 1, n - 1)


# ---------------------------------------------------------------------------
# The two differentials, both read off the summands (sign, l, r) of
# ``generator_terms``.  A term table maps each monomial a = idx to its
# entries (h, target monomial, value): every summand of generator_terms(d,
# h) applied to a, its sign times the signs of the products from
# merge_signed, summed per h.  Entries of value zero are dropped.  The
# chain differential on A (x)_{A^e} P_m takes a (x) l.g.r to r.a.l (x) g,
# with the degree-m summands; the cochain differential leaving degree m
# evaluates a cochain on d of a degree-(m+1) generator, taking the value a
# to l.a.r.


class _TermTable(dict):
    """The term table of the summand list ``summands`` (those of
    generator_terms(d, h) for h = 1..n) on one side: {monomial: entries},
    each row built on its first lookup; an entry adds ``step`` to e_h."""

    def __init__(self, summands, field, chain):
        self.summands, self.field, self.chain = summands, field, chain
        self.step = -1 if chain else 1

    def __missing__(self, idx):
        row = []
        for h, terms in enumerate(self.summands, 1):
            acc = {}
            for sign, l, r in terms:
                before, after = (r, l) if self.chain else (l, r)
                left = merge_signed(before, idx)
                res = left and merge_signed(left[1], after)
                if res:
                    acc[res[1]] = acc.get(res[1], 0) + sign * left[0] * res[0]
            for t, c in acc.items():
                v = self.field.of(c)
                if v:
                    row.append((h, t, v))
        self[idx] = row
        return row


class TermTables:
    """The term tables of one (n, field): called with (m, chain), the
    table of the degree-m chain differential (``chain``) or of the cochain
    differential leaving degree m.  Each table is made on first use and
    keyed by its side and its summand list, the generator_terms(d, h) for
    d = m (chain) or m + 1 (cochain), so the degrees whose summands agree
    share one table and its rows.  Nothing is kept beyond this object."""

    def __init__(self, n, field):
        check_n(n)
        self.n, self.field, self._made = n, field, {}

    def __call__(self, m, chain):
        d = m if chain else m + 1
        key = chain, tuple(generator_terms(d, h) for h in range(1, self.n + 1))
        table = self._made.get(key)
        if table is None:
            table = self._made[key] = _TermTable(key[1], self.field, chain)
        return table

    def column(self, m, chain):
        """The column rule of the table of (m, chain): (idx, e) goes to
        {(t, e + step * d_h): v} over the entries (h, t, v) of idx with
        e_h + step >= 0, for the table's step.  It builds the rows of the
        monomials it is applied to."""
        table = self(m, chain)
        step = table.step

        def column(key):
            idx, e = key
            return {(t, e[:h - 1] + (e[h - 1] + step,) + e[h:]): v
                    for h, t, v in table[idx] if e[h - 1] + step >= 0}
        return column


# ---------------------------------------------------------------------------
# Weight blocks.  The chain differential preserves w = 1_idx + e and the
# cochain differential preserves v = e - 1_idx (``key_weight``), so both
# matrices are block diagonal by weight and their ranks are sums of block
# ranks.  Inside one block every column has the same monomial degree.


def _degrees(table, n):
    """The monomial degrees j whose first monomial (1, ..., j) has a
    nonempty row.  Permuting the generators carries that row onto the row
    of every monomial of degree j, so the blocks of the other degrees have
    no entries and are never built; the top monomial, which every x_h
    annihilates, is one of them."""
    return [j for j in range(n + 1) if table[tuple(range(1, j + 1))]]


def _partitions(k, parts, top):
    """The nonincreasing tuples of ``parts`` integers in [0, top] with sum k."""
    if not parts:
        return [()] if k == 0 else []
    return [(first,) + rest for first in range(min(k, top), -1, -1)
            for rest in _partitions(k - first, parts - 1, first)]


def _orbit(w):
    """The size of the S_n orbit of the weight w: n! over the factorials
    of the multiplicities of its entries."""
    return factorial(len(w)) // prod(map(factorial, Counter(w).values()))


def key_weight(key, chain):
    """The weight of a key (idx, e) that its differential keeps: 1_idx + e
    for chains, e - 1_idx for cochains."""
    idx, e = key
    w = list(e)
    for h in idx:
        w[h - 1] += 1 if chain else -1
    return tuple(w)


def weight_domain(n, m, w, chain):
    """The keys of the weight-w block of the differential leaving degree
    m.  On the chain side they are (T, w - 1_T), T inside supp(w) with
    |T| = |w| - m: none when that size is negative or above |supp(w)|.
    As e - 1_S = (e + 1_T) - 1 for T the complement of S, the cochain
    keys (S, e) of a weight w >= -1 are the chain-side keys (T, e) of
    w + 1 with T complemented.  Either way e is the weight of (idx, w)
    on the other side."""
    u = w if chain else tuple(x + 1 for x in w)
    k = sum(u) - m
    if k < 0:
        return []
    gens = set(range(1, n + 1))
    idxs = (T if chain else tuple(sorted(gens.difference(T)))
            for T in combinations([h for h, x in enumerate(u, 1) if x], k))
    return [(idx, key_weight((idx, w), not chain)) for idx in idxs]


def weight_blocks(tables, m, chain):
    """Yield (domain keys, block matrix, orbit size) for the nonincreasing
    weights of the degree-m chain differential (``chain``) or of the
    cochain differential leaving degree m, read from its table in
    ``tables``.  On the chain side a block of monomial degree k has the
    weight 1_T + e, |T| = k; with support {1..s}, s >= k, that is 1 there
    plus a partition of m + k - s.  By ``weight_domain`` the cochain
    blocks of monomial degree j are these at k = n - j, less 1, and the
    shift keeps each orbit.  Each block is the ``keyed_matrix`` of its
    domain and the column rule ``tables.column(m, chain)``, its rows named
    by their full target key."""
    low = 1 if chain else 0
    if m < low:
        raise ValueError(f"m must be >= {low}")
    n, field = tables.n, tables.field
    column = tables.column(m, chain)
    for j in _degrees(tables(m, chain), n):
        k = j if chain else n - j
        for s in range(k, min(n, m + k) + 1):
            for p in _partitions(m + k - s, s, m):
                w = tuple(x + low for x in p) + (low - 1,) * (n - s)
                domain = weight_domain(n, m, w, chain)
                yield domain, keyed_matrix(domain, column, field), _orbit(w)


class Ranks:
    """The ranks of ``resolution_ranks``: chain[m] of the degree-m chain
    differential for m = 1..m_max + 1 (chain[0] = 0), and cochain[m] of
    the cochain differential leaving degree m for m = 0..m_max."""

    def __init__(self, n, chain, cochain):
        self.n, self.chain, self.cochain = n, chain, cochain

    def hh(self, m):
        """Hochschild homology dimension in degree m (rank-nullity)."""
        return chain_dim(self.n, m) - self.chain[m] - self.chain[m + 1]

    def hhc(self, m):
        """Hochschild cohomology dimension in degree m."""
        rank_in = self.cochain[m - 1] if m else 0
        return chain_dim(self.n, m) - rank_in - self.cochain[m]


def _orbit_sum(tables, m, chain):
    return sum(orbit * rank(M)
               for _, M, orbit in weight_blocks(tables, m, chain))


def resolution_ranks(tables, m_max):
    """The ranks of every differential that the (co)homology in degrees
    0..m_max needs, in one pass over the term tables ``tables``: each
    differential is ranked once, as an orbit sum over its representative
    blocks."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    chain = [_orbit_sum(tables, m, True) for m in range(1, m_max + 2)]
    cochain = [_orbit_sum(tables, m, False) for m in range(m_max + 1)]
    return Ranks(tables.n, [0] + chain, cochain)


def verify_d_squared_zero(tables, m_max):
    """Consecutive chain and cochain differentials compose to zero for
    every degree within m_max >= 1: applying both to any key gives 0."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    n, field, column = tables.n, tables.field, tables.column
    pairs = [(column(m, True), column(m + 1, True), m + 1)
             for m in range(1, m_max)]
    pairs += [(column(m, False), column(m - 1, False), m - 1)
              for m in range(1, m_max + 1)]
    return not any(
        apply(outer, apply(inner, {key: 1}, field), field)
        for outer, inner, d in pairs for key in chain_keys(n, d))
