"""Chain and cochain complexes computing Hochschild (co)homology dimensions.

The degree-m term is the exterior algebra tensored with the degree-m
commutative monomials; its basis elements are keyed by pairs (monomial
index tuple, exponent vector).  Both differentials come from the one
resolution differential, ``resolution.generator_terms``: the chain
complex is A (x)_{A^e} P_m and the cochain complex Hom_{A^e}(P_m, A).
Both are read off term tables, one per side and summand list: the degree
enters the summands only through the sign (-1)^d, so ``TermTables``
makes at most four per (n, field), and builds a row, its values field
elements made once by ``field.of``, only when a block or a vector first
reads that monomial.  A differential is read one way, as the column
rule of its table, which feeds ``exactla.apply`` and
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

A reduced bar complex provides an independent oracle for the same
dimensions; it never touches the small resolution's generators.  It
builds and ranks every one of its blocks: block i of one running index
goes to share i mod k, k the CPUs the process may run on, each share
beyond the first is ranked in a forked child, and the shares' ranks are
summed exactly.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from itertools import combinations, product
from math import factorial, prod

from .exactla import apply, keyed_matrix, rank
from .exterior import check_n, merge_signed, monomials
from .formulas import binom
from .resolution import exponent_vectors, generator_terms

DEFAULT_ORACLE_CAP = 50000


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


def _bar_blocks(n, m, chain):
    """The generator-count blocks of the degree-m bar chain differential
    (``chain``) or of the bar cochain differential leaving degree m, in a
    fixed order and unbuilt: each a list of pairs (a, words), whose keys
    (``_bar_domain``) pair the monomial a with each word.  The chain block
    of the count vector c holds (a0,) + w for the words w with counts
    c - 1_a0; the cochain block of v holds (w, b) for the words w with
    counts v + 1_b."""
    d = 1 if chain else -1
    blocks = defaultdict(list)
    for c, words in _bar_words(n, m).items():
        for a in range(2 ** n):
            blocks[_shift_counts(c, a, d)].append((a, words))
    return list(blocks.values())


def _bar_domain(block, chain):
    """The domain keys of an unbuilt block of ``_bar_blocks``."""
    return [(a,) + w if chain else (w, a) for a, words in block for w in words]


def largest_feasible_degree(n, cap=DEFAULT_ORACLE_CAP):
    """Largest m for which the bar oracle stays within the cap, i.e. with
    2^n (2^n - 1)^(m + 1) <= cap.  Can be -1 when even m = 0 is too big."""
    check_n(n)
    m = -1
    while bar_chain_dim(n, m + 2) <= cap:
        m += 1
    return m


def _bar_share(n, m_max, field, share, k):
    """The ranks that share ``share`` of ``k`` contributes to each bar
    differential up to m_max: the chain differentials of m = 1..m_max + 1,
    then the cochain differentials leaving m = 0..m_max.  One running
    index counts the blocks of all of them in that order, as
    ``_bar_blocks`` lists them; the share builds and ranks the blocks whose
    index is ``share`` mod ``k``, and only those."""
    sides = [(m, True) for m in range(1, m_max + 2)]
    sides += [(m, False) for m in range(m_max + 1)]
    ranks, i = [], 0
    for m, chain in sides:
        column = (_bar_chain_rule if chain else _bar_cochain_rule)(n, m)
        total = 0
        for block in _bar_blocks(n, m, chain):
            if i % k == share:
                total += rank(keyed_matrix(_bar_domain(block, chain), column,
                                           field))
            i += 1
        ranks.append(total)
    return ranks


def _bar_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bar_child(pipe, n, m_max, field, share, k):
    """In a forked child: write the ranks of ``_bar_share`` to the pipe
    end ``pipe``, space-separated, and leave with status 0; if anything is
    raised, write its repr instead and leave with status 1.  Never
    returns."""
    status = 1
    try:
        try:
            text = " ".join(map(str, _bar_share(n, m_max, field, share, k)))
            status = 0
        except BaseException as exc:
            text = repr(exc)[:1000]
        os.write(pipe, text.encode())
    finally:
        os._exit(status)


def _bar_ranks(n, m_max, field):
    """The ranks of ``_bar_share`` summed over its k shares, k the CPUs
    this process may run on (1 without os.fork).  The process ranks share
    0 itself and each other share in a forked child, which sends its ranks
    over a pipe.  A failed child fails the call.  Every child is reaped on
    every way out, and killed first on the way out of a failure."""
    k = _bar_cpus() if hasattr(os, "fork") else 1
    pipes = {}  # the read end of each child not yet reaped
    try:
        for share in range(1, k):
            r, w = os.pipe()
            pid = os.fork()
            if not pid:
                _bar_child(w, n, m_max, field, share, k)
            os.close(w)
            pipes[pid] = r
        ranks = _bar_share(n, m_max, field, 0, k)
        for pid in list(pipes):
            with open(pipes[pid], "rb", closefd=False) as pipe:
                text = pipe.read().decode()
            status = os.waitpid(pid, 0)[1]
            os.close(pipes.pop(pid))
            if status:
                raise RuntimeError(f"bar oracle share failed: {text}")
            ranks = [x + int(y) for x, y in zip(ranks, text.split(), strict=True)]
        return ranks
    finally:
        if pipes:  # only here, so that importing hhext loads no signal
            from signal import SIGKILL
        for pid, r in pipes.items():
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
            os.close(r)


def bar_oracle_dims(n, m_max, field, cap=DEFAULT_ORACLE_CAP):
    """Hochschild homology and cohomology dimensions from the reduced bar
    complex alone, as a list of (m, homology dim, cohomology dim) for m up
    to m_max or ``largest_feasible_degree(n, cap)``, whichever is smaller:
    empty, with nothing built and nothing forked, when no degree fits under
    the cap.  The blocks are ranked in shares on every CPU the process may
    use (``_bar_ranks``).
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    m_max = min(m_max, largest_feasible_degree(n, cap))
    if m_max < 0:
        return []
    ranks = _bar_ranks(n, m_max, field)
    # the ranks of the chain differentials leaving degree m and of the
    # cochain differentials entering it, both 0 at m = 0
    chain = [0] + ranks[:m_max + 1]
    cochain = [0] + ranks[m_max + 1:]
    return [(m, bar_chain_dim(n, m) - chain[m] - chain[m + 1],
             bar_chain_dim(n, m) - cochain[m] - cochain[m + 1])
            for m in range(m_max + 1)]
