"""The minimal projective bimodule resolution of the exterior algebra.

Degree-m generators are indexed by exponent vectors (i_1,...,i_n) with
sum m.  Each generator is realized as a polynomial in the free algebra
on x_1..x_n via the recursion  g(e) = sum_h g(e - delta_h) x_h,  with
g(0) = 1.  The structural checks below machine-verify that these
polynomials form a basis of the expected relation-window intersection
space and that the differential squares to zero.

Words in the free algebra are index tuples; free-algebra elements are
dicts word -> integer coefficient.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, product

from .exactla import QQ, keyed_matrix, rank, rank_gain
from .exterior import check_n, merge_signed
from .formulas import binom


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def generator_polynomial(n, e):
    """The degree-m generator for exponent vector e, as a free-algebra
    element.  Every word of multidegree e occurs; observed coefficients
    are recorded rather than assumed.
    """
    check_n(n)
    if any(i < 0 for i in e):
        raise ValueError("negative exponent")
    m = sum(e)
    if m == 0:
        return {(): 1}
    terms = {}
    for h in range(1, n + 1):
        if e[h - 1] == 0:
            continue
        prev = list(e)
        prev[h - 1] -= 1
        for word, c in generator_polynomial(n, tuple(prev)).items():
            w = word + (h,)
            terms[w] = terms.get(w, 0) + c
    return terms


def observed_coefficients(n, m):
    """Set of coefficient values occurring across all degree-m generators."""
    vals = set()
    for e in exponent_vectors(n, m):
        vals.update(generator_polynomial(n, e).values())
    return vals


def verify_left_right(n, m):
    """True iff appending generators on the right and on the left give the
    same degree-m generators: sum_h g(e-d_h) x_h = sum_h x_h g(e-d_h).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    for e in exponent_vectors(n, m):
        left = {}
        for h in range(1, n + 1):
            if e[h - 1] == 0:
                continue
            prev = list(e)
            prev[h - 1] -= 1
            for word, c in generator_polynomial(n, tuple(prev)).items():
                w = (h,) + word
                left[w] = left.get(w, 0) + c
        left = {w: c for w, c in left.items() if c}
        if left != generator_polynomial(n, e):
            return False
    return True


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
    for e in exponent_vectors(n, m):
        groups = {}
        for word, c in generator_polynomial(n, e).items():
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
    vecs = exponent_vectors(n, m)
    M = keyed_matrix(vecs, lambda e: generator_polynomial(n, e), QQ)
    return rank(M) == len(vecs) == binom(n + m - 1, n - 1)


def generator_map(n, m):
    """The degree-m differential, as a signed summand list per generator.
    Applied to the generator for e, the differential is

        sum_h ( x_h . g(e - d_h) + (-1)^m g(e - d_h) . x_h )

    with h running over the support of e.  Returns {e: summands} with
    summands (sign, left word, target exponent vector, right word), where
    the words are () or a single generator index.
    """
    check_n(n)
    if m < 1:
        raise ValueError("m must be >= 1")
    sign = (-1) ** m
    out = {}
    for e in exponent_vectors(n, m):
        summands = []
        for h in range(1, n + 1):
            if e[h - 1] == 0:
                continue
            prev = list(e)
            prev[h - 1] -= 1
            prev = tuple(prev)
            summands.append((1, (h,), prev, ()))
            summands.append((sign, (), prev, (h,)))
        out[e] = summands
    return out


def verify_delta_squared_zero(n, m):
    """Compose the differentials in degrees m+1 and m formally and check
    that every generator coefficient (a sum of signed monomial pairs
    acting on the left and right) cancels to zero.  Integer arithmetic,
    so the conclusion holds over every field.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    outer = generator_map(n, m + 1)
    inner = generator_map(n, m)
    for e, summands in outer.items():
        acc = {}
        for s1, l1, e1, r1 in summands:
            for s2, l2, e2, r2 in inner[e1]:
                left = merge_signed(l1, l2)
                if left is None:
                    continue
                right = merge_signed(r2, r1)
                if right is None:
                    continue
                sign = s1 * s2 * left[0] * right[0]
                key = (left[1], e2, right[1])
                acc[key] = acc.get(key, 0) + sign
        if any(c != 0 for c in acc.values()):
            return False
    return True
