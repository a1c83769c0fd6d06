"""Chain and cochain complexes computing Hochschild (co)homology dimensions.

The degree-m term is the exterior algebra tensored with the degree-m
commutative monomials; its basis elements are keyed by pairs (monomial
index tuple, exponent vector).  Both differentials come from the one
resolution differential, ``resolution.generator_terms``: the chain
complex is A (x)_{A^e} P_m and the cochain complex Hom_{A^e}(P_m, A).
Each is a column rule from a key to {target key: value}, its values
field elements made once per rule by ``field.of``;
``exactla.keyed_matrix`` turns a rule into a matrix and
``exactla.apply`` maps vectors through it.  Ranks never need a global
basis: both differentials are block diagonal by a Z^n weight; every
block is built in full, and one equal to the block before it reuses
that block's rank.

A reduced bar complex provides an independent oracle for the same
dimensions; it never touches the small resolution's generators.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

from .exactla import apply, keyed_matrix, rank
from .exterior import check_n, merge_signed, monomials
from .formulas import binom
from .resolution import exponent_vectors, generator_terms

DEFAULT_ORACLE_CAP = 50000


class OracleInfeasibleError(Exception):
    """Raised when the bar oracle would need a term beyond the size cap."""


def chain_keys(n, m):
    """Every key (monomial indices, exponent vector) of the degree-m term."""
    return [(idx, e) for idx in monomials(n) for e in exponent_vectors(n, m)]


def chain_dim(n, m):
    return 2 ** n * binom(n + m - 1, n - 1)


def grade(idx, e):
    """Size of the support: indices in the monomial or with a positive exponent."""
    return len(set(idx) | {h + 1 for h, v in enumerate(e) if v})


# ---------------------------------------------------------------------------
# The two differentials, both read off the summands (sign, l, r) of
# ``generator_terms``.  A term table maps each monomial a = idx to its
# entries (h, target monomial, value): every summand of generator_terms(d,
# h) applied to a, its sign times the signs of the products from
# merge_signed, summed per h.  Entries of value zero are dropped, and so
# are monomials left with none.  The chain differential on
# A (x)_{A^e} P_m takes a (x) l.g.r to r.a.l (x) g, with the degree-m
# summands; the cochain differential leaving degree m evaluates a cochain
# on d of a degree-(m+1) generator, taking the value a to l.a.r.


def _term_table(n, m, field, chain):
    """The term table of the degree-m chain differential (``chain``) or
    of the cochain differential leaving degree m."""
    d = m if chain else m + 1
    table = {}
    for idx in monomials(n):
        row = []
        for h in range(1, n + 1):
            acc = {}
            for sign, l, r in generator_terms(d, h):
                before, after = (r, l) if chain else (l, r)
                left = merge_signed(before, idx)
                res = left and merge_signed(left[1], after)
                if res:
                    acc[res[1]] = acc.get(res[1], 0) + sign * left[0] * res[0]
            for t, c in acc.items():
                v = field.of(c)
                if v:
                    row.append((h, t, v))
        if row:
            table[idx] = row
    return table


def _column_rule(table, step):
    """Column rule of a term table: (idx, e) goes to {(t, e + step * d_h):
    v} over the entries (h, t, v) of idx with e_h + step >= 0."""
    def column(key):
        idx, e = key
        return {(t, e[:h - 1] + (e[h - 1] + step,) + e[h:]): v
                for h, t, v in table.get(idx, ()) if e[h - 1] + step >= 0}
    return column


def chain_column(n, m, field):
    """Column rule of the degree-m chain differential, lowering exponent
    degree m to m - 1."""
    return _column_rule(_term_table(n, m, field, True), -1)


def cochain_column(n, m, field):
    """Column rule of the cochain differential raising exponent degree m
    to m + 1."""
    return _column_rule(_term_table(n, m, field, False), 1)


# ---------------------------------------------------------------------------
# Weight blocks.  The chain differential preserves w = 1_idx + e and the
# cochain differential preserves v = e - 1_idx, so both matrices are block
# diagonal by weight and their ranks are sums of block ranks.  Inside one
# block every column has the same monomial degree; blocks of a degree
# with no monomial in the term table are never built.


def _shift(w, hs, d):
    """The vector w with d added at each generator in hs."""
    out = list(w)
    for h in hs:
        out[h - 1] += d
    return tuple(out)


def _cochain_keys(minus, rest, base, size):
    """The keys (N + S', base + 1_S') of one cochain weight block, over
    the subsets S' of the generators ``rest`` with ``size`` elements;
    ``minus`` is N and ``base`` the weight with its -1 entries raised
    to 0."""
    return [(tuple(sorted(minus + S)), _shift(base, S, 1))
            for S in combinations(rest, size)]


def chain_blocks(n, m, field):
    """Yield (domain keys, block matrix) for every weight block of the
    degree-m chain differential whose monomial degree is in the term
    table.

    The block of w = 1_S + e has the columns (S, w - 1_S) with S inside
    supp(w) and |S| = |w| - m.
    """
    check_n(n)
    if m < 1:
        raise ValueError("m must be >= 1")
    table = _term_table(n, m, field, True)
    column = _column_rule(table, -1)
    degrees = {len(idx) for idx in table}
    for s in range(1, n + 1):
        for j in range(max(0, s - m), s + 1):
            if j not in degrees:
                continue
            for support in combinations(range(1, n + 1), s):
                for extra in combinations_with_replacement(support, m + j - s):
                    w = _shift((0,) * n, support + extra, 1)
                    domain = [(S, _shift(w, S, -1))
                              for S in combinations(support, j)]
                    yield domain, keyed_matrix(domain, column, field)


def cochain_blocks(n, m, field):
    """Yield (domain keys, block matrix) for every weight block of the
    cochain differential leaving degree m whose monomial degree is in the
    term table.

    The block of v = e - 1_S has the columns (N + S', v + 1_(N + S'))
    where N = {h : v_h = -1} and S' runs over the subsets of the other
    generators of size |S| - |N|, with |S| = m - |v|.
    """
    check_n(n)
    if m < 0:
        raise ValueError("m must be >= 0")
    gens = range(1, n + 1)
    table = _term_table(n, m, field, False)
    column = _column_rule(table, 1)
    for j in sorted({len(idx) for idx in table}):
        for t in range(max(0, j - m), j + 1):
            for minus in combinations(gens, t):
                rest = tuple(h for h in gens if h not in minus)
                for extra in combinations_with_replacement(rest, m - j + t):
                    base = _shift((0,) * n, extra, 1)
                    domain = _cochain_keys(minus, rest, base, j - t)
                    yield domain, keyed_matrix(domain, column, field)


def cochain_weight(key):
    """The weight v = e - 1_idx of a key (idx, e), which the cochain
    differential keeps."""
    idx, e = key
    return _shift(e, idx, -1)


def cochain_domain(n, m, v):
    """The domain keys of the weight-v block of the cochain differential
    leaving degree m, in the order ``cochain_blocks`` lists them, for a
    weight v with entries >= -1.  Empty when the subset size
    m - |v| - |N| is negative."""
    gens = range(1, n + 1)
    minus = tuple(h for h in gens if v[h - 1] < 0)
    size = m - sum(v) - len(minus)
    if size < 0:
        return []
    rest = tuple(h for h in gens if v[h - 1] >= 0)
    return _cochain_keys(minus, rest, tuple(max(x, 0) for x in v), size)


def _rank_sum(blocks):
    """Sum of the ranks of the blocks.  A block equal to the one just
    before it, compared whole by shape and entries, reuses that block's
    rank; every other block is ranked itself."""
    total = 0
    last = last_rank = None
    for _, M in blocks:
        block = (M.cols, M.entries)
        if block != last:
            last, last_rank = block, rank(M)
        total += last_rank
    return total


@lru_cache(maxsize=None)
def chain_rank(n, m, field):
    return _rank_sum(chain_blocks(n, m, field))


@lru_cache(maxsize=None)
def cochain_rank(n, m, field):
    return _rank_sum(cochain_blocks(n, m, field))


def hh_dim_computed(n, m, field):
    """Hochschild homology dimension from matrix ranks (rank-nullity)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    rank_out = chain_rank(n, m, field) if m else 0
    return chain_dim(n, m) - rank_out - chain_rank(n, m + 1, field)


def hhc_dim_computed(n, m, field):
    """Hochschild cohomology dimension from matrix ranks."""
    if m < 0:
        raise ValueError("m must be >= 0")
    rank_in = cochain_rank(n, m - 1, field) if m else 0
    return chain_dim(n, m) - rank_in - cochain_rank(n, m, field)


def verify_d_squared_zero(n, m_max, field):
    """Consecutive chain and cochain differentials compose to zero for
    every degree within m_max: applying both to any key gives 0."""
    pairs = [(chain_column(n, m, field), chain_column(n, m + 1, field), m + 1)
             for m in range(1, m_max)]
    pairs += [(cochain_column(n, m, field), cochain_column(n, m - 1, field),
               m - 1) for m in range(1, m_max + 1)]
    return not any(
        apply(outer, apply(inner, {key: field.one}, field), field)
        for outer, inner, d in pairs for key in chain_keys(n, d))


# ---------------------------------------------------------------------------
# Reduced bar complex oracle.  Monomials are bitmasks here (bit h - 1 for
# the generator h), and nothing of the resolution above is used.  Products
# of squarefree monomials vanish or keep every generator count, so the
# chain differential keeps the generator-count vector of a whole tuple
# (a0, a1, ..., am), and the cochain differential keeps the counts of the
# argument word minus those of the value.  Both are block diagonal by that
# vector; their ranks are sums of block ranks, each block built and ranked
# on its own.


def bar_chain_dim(n, m):
    return 2 ** n * (2 ** n - 1) ** m


def _bar_products(n):
    """Product table of the monomials: ``table[a][b]`` is None when a and
    b share a generator, else (sign, a | b)."""
    check_n(n)
    idx = [tuple(h + 1 for h in range(n) if a >> h & 1) for a in range(2 ** n)]
    return [[None if a & b else (merge_signed(idx[a], idx[b])[0], a | b)
             for b in range(2 ** n)] for a in range(2 ** n)]


def _bar_chain_rule(n, m):
    """Column rule of the degree-m reduced Hochschild chain differential:
    a tuple t = (a0, a1, ..., am), coefficient a0 and nonunit a1..am, goes
    to {target tuple: integer coefficient}, the alternating sum of
    adjacent products with the last slot wrapping around onto a0.
    Interior products of nonunit monomials are never the unit, so no
    extra normalization is needed."""
    if m < 1:
        raise ValueError("m must be >= 1")
    prod = _bar_products(n)

    def column(t):
        col = defaultdict(int)
        res = prod[t[0]][t[1]]
        if res:
            col[(res[1],) + t[2:]] += res[0]
        for i in range(1, m):
            res = prod[t[i]][t[i + 1]]
            if res:
                col[t[:i] + (res[1],) + t[i + 2:]] += (-1) ** i * res[0]
        res = prod[t[m]][t[0]]
        if res:
            col[(res[1],) + t[1:m]] += (-1) ** m * res[0]
        return col
    return column


def _bar_cochain_rule(n, m):
    """Column rule of the reduced Hochschild cochain differential from
    degree m to m + 1: a cochain (w, b), argument word w of m nonunit
    monomials and value b, goes to {target cochain: integer coefficient},
    the left action on the value, the alternating splits of the argument
    slots, and the signed right action."""
    if m < 0:
        raise ValueError("m must be >= 0")
    prod = _bar_products(n)
    splits = [[] for _ in prod]
    for u in range(1, len(prod)):
        for v in range(1, len(prod)):
            if prod[u][v]:
                sign, uv = prod[u][v]
                splits[uv].append((u, v, sign))

    def column(key):
        w, b = key
        col = defaultdict(int)
        for a in range(1, len(prod)):
            res = prod[a][b]
            if res:
                col[((a,) + w, res[1])] += res[0]
            res = prod[b][a]
            if res:
                col[(w + (a,), res[1])] += (-1) ** (m + 1) * res[0]
        for i in range(1, m + 1):
            for u, v, sign in splits[w[i - 1]]:
                col[(w[:i - 1] + (u, v) + w[i:], b)] += (-1) ** i * sign
        return col
    return column


def _shift_counts(c, a, d):
    """The count vector c with d added at every generator of the monomial a."""
    return tuple(x + d * (a >> h & 1) for h, x in enumerate(c))


def _bar_words(n, m):
    """The m-tuples of nonunit monomials, bucketed by generator-count vector."""
    words = {(0,) * n: [()]}
    for _ in range(m):
        longer = defaultdict(list)
        for c, ws in words.items():
            for a in range(1, 2 ** n):
                longer[_shift_counts(c, a, 1)].extend(w + (a,) for w in ws)
        words = longer
    return words


def _chain_key(a0, w):
    return (a0,) + w


def _cochain_key(b, w):
    return (w, b)


def _bar_blocks(n, m, key, d, column, field):
    """Yield (domain keys, block matrix) for every generator-count block
    of a bar differential leaving degree m.  The key of a monomial a and
    a word w lies in the block of counts(w) + d * counts(a)."""
    blocks = defaultdict(list)
    for c, words in _bar_words(n, m).items():
        for a in range(2 ** n):
            blocks[_shift_counts(c, a, d)].append((a, words))
    for pieces in blocks.values():
        domain = [key(a, w) for a, words in pieces for w in words]
        yield domain, keyed_matrix(domain, column, field)


def bar_chain_blocks(n, m, field):
    """Blocks of the degree-m bar chain differential: the block of the
    count vector c holds (a0,) + w for the words w with counts c - 1_a0."""
    return _bar_blocks(n, m, _chain_key, 1, _bar_chain_rule(n, m), field)


def bar_cochain_blocks(n, m, field):
    """Blocks of the bar cochain differential leaving degree m: the block
    of v holds (w, b) for the words w with counts v + 1_b."""
    return _bar_blocks(n, m, _cochain_key, -1, _bar_cochain_rule(n, m), field)


@lru_cache(maxsize=None)
def _bar_chain_rank(n, m, field):
    return sum(rank(M) for _, M in bar_chain_blocks(n, m, field))


@lru_cache(maxsize=None)
def _bar_cochain_rank(n, m, field):
    return sum(rank(M) for _, M in bar_cochain_blocks(n, m, field))


def largest_feasible_degree(n, cap=DEFAULT_ORACLE_CAP):
    """Largest m for which the bar oracle stays within the cap, i.e. with
    2^n (2^n - 1)^(m + 1) <= cap.  Can be -1 when even m = 0 is too big."""
    m = -1
    while bar_chain_dim(n, m + 2) <= cap:
        m += 1
    return m


def bar_oracle_dims(n, m_max, field, cap=DEFAULT_ORACLE_CAP):
    """Hochschild homology and cohomology dimensions up to m_max from the
    reduced bar complex alone.  Returns a list of (m, homology dim,
    cohomology dim).  Refuses to start if the largest term dimension
    2^n (2^n - 1)^(m_max + 1) exceeds the cap.
    """
    worst = bar_chain_dim(n, m_max + 1)
    if worst > cap:
        raise OracleInfeasibleError(
            f"bar complex dimension {worst} at degree {m_max + 1} "
            f"exceeds the cap {cap}"
        )
    out = []
    for m in range(m_max + 1):
        dim = bar_chain_dim(n, m)
        rank_out = _bar_chain_rank(n, m, field) if m else 0
        rank_in = _bar_cochain_rank(n, m - 1, field) if m else 0
        out.append((m, dim - rank_out - _bar_chain_rank(n, m + 1, field),
                    dim - rank_in - _bar_cochain_rank(n, m, field)))
    return out
