"""The minimal projective bimodule resolution of the exterior algebra.

Degree-m generators are indexed by exponent vectors (i_1,...,i_n) with
sum m.  Each generator is realized as a polynomial in the free algebra
on x_1..x_n via the recursion  g(e) = sum_h g(e - delta_h) x_h,  with
g(0) = 1, built degree by degree in each call that reads it; nothing is
cached.  The differential is written once, as the summands
``generator_terms`` of d(e).  ``bimodule_column`` extends it to the free
bimodules A (x) V_m (x) A as a column rule, and ``hhext.complexes``
builds both complexes from the same summands.  The checks below
machine-verify that the polynomials form a basis of the expected
relation-window intersection space and that d squares to zero.

Words in the free algebra are index tuples; free-algebra elements are
dicts word -> integer coefficient.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .exactla import QQ, apply, keyed_matrix, rank, rank_gain
from .exterior import check_n, merge_signed
from .formulas import binom


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
                g = groups.setdefault((p, word[:p], word[p + 2:]), {})
                mid = word[p:p + 2]
                g[mid] = g.get(mid, 0) + c
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
    rules of ``hhext.complexes`` read it.
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
