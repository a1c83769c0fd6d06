"""Oracles: Hochschild (co)homology dimensions computed without the
minimal resolution.

This module imports only ``exactla`` and ``exterior``, so no oracle here
can read the resolution's generators, term tables, weights or orbit
shortcut; a test checks the imports of every module against a table.

The commutator quotient A/[A, A] gives the degree-0 homology.  A
reduced bar complex gives every dimension.  It builds and ranks every
one of its blocks: block i of one running index goes to share i mod k,
k the CPUs the process may run on, each share beyond the first is
ranked in a forked child, and the shares' ranks are summed exactly.
"""

from __future__ import annotations

import os
from collections import defaultdict
from itertools import product

from .exactla import keyed_matrix, rank
from .exterior import check_n, merge_signed, monomials

DEFAULT_ORACLE_CAP = 50000


def commutator(a, b, field):
    """The commutator ab - ba of two monomials, as {monomial: scalar}
    with no zero terms."""
    out = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        res = merge_signed(x, y)
        if res is not None:
            out[res[1]] = out.get(res[1], 0) + sign * res[0]
    out = {mono: field.of(c) for mono, c in out.items()}
    return {mono: c for mono, c in out.items() if c}


def commutator_quotient_dim(n, field):
    """dim of the quotient by the commutator subspace: the codimension of
    the span of all commutators over basis pairs.
    """
    pairs = list(product(monomials(n), repeat=2))
    M = keyed_matrix(pairs, lambda p: commutator(*p, field), field)
    return 2 ** n - rank(M)


# ---------------------------------------------------------------------------
# Reduced bar complex oracle.  Monomials are bitmasks here (bit h - 1 for
# the generator h), and a bar key is one int of n bits per slot: the
# chain (a0, a1, ..., am) is a0 | a1 << n | ... | am << mn, the cochain
# (w, b) is b | w1 << n | ... | wm << mn.  Products of squarefree
# monomials vanish or keep every generator count, so the chain
# differential keeps the generator-count vector of a whole chain, and the
# cochain differential keeps the counts of the argument word minus those
# of the value.  Both are block diagonal by that vector; their ranks are
# sums of block ranks, each block built and ranked on its own.


def bar_chain_dim(n, m):
    return 2 ** n * (2 ** n - 1) ** m


def _bar_signs(n):
    """``signs[a | b << n]`` is 0 when the monomials a and b share a
    generator, else the sign s of ab = s (a | b)."""
    check_n(n)
    idx = [tuple(h + 1 for h in range(n) if a >> h & 1) for a in range(2 ** n)]
    return [0 if a & b else merge_signed(idx[a], idx[b])[0]
            for b in range(2 ** n) for a in range(2 ** n)]


def _bar_chain_rule(n, m):
    """Column rule of the degree-m reduced Hochschild chain differential:
    the code of a chain (a0, a1, ..., am), a1..am nonunit, goes to
    {target code: integer coefficient}, the alternating sum of the faces.
    Face i < m puts the product of slots i and i + 1, read as one pair
    code, in slot i and moves the slots above it down; face m, the
    wrap-around, puts am a0 in slot 0.  Products of nonunit monomials are
    never the unit, so no extra normalization is needed."""
    if m < 1:
        raise ValueError("m must be >= 1")
    mask, pair = (1 << n) - 1, (1 << 2 * n) - 1
    # by face parity: pair code -> (coefficient, product), None if it is 0
    tables = [[(parity * s, p & mask | p >> n) if s else None
               for p, s in enumerate(_bar_signs(n))] for parity in (1, -1)]
    # face i < m: the shifts of slots i, i + 1, i + 2, its table, the
    # slots below it
    faces = [(i * n, i * n + n, i * n + 2 * n, tables[i & 1],
              (1 << i * n) - 1) for i in range(m)]
    wrap, top, middle = tables[m & 1], m * n, ((1 << m * n) - 1) ^ mask

    def column(t):
        col = {}  # faces i < m never meet; the wrap-around can meet face 0
        for s0, s1, s2, table, below in faces:
            res = table[t >> s0 & pair]
            if res:
                col[t & below | res[1] << s0 | t >> s2 << s1] = res[0]
        res = wrap[t >> top | (t & mask) << n]
        if res:
            target = t & middle | res[1]
            col[target] = col.get(target, 0) + res[0]
        return col
    return column


def _bar_cochain_rule(n, m):
    """Column rule of the reduced Hochschild cochain differential from
    degree m to m + 1: the code of a cochain (w, b), m nonunit arguments
    w and value b, goes to {target code: integer coefficient}, the left
    action ((a,) + w, ab), the alternating splits of the argument slots,
    and the signed right action (w + (a,), ba).  The lists it reads hold
    only nonvanishing products: per value b the a disjoint from it, per
    slot and monomial its splits, each with the bits of the target code
    that it fixes."""
    if m < 0:
        raise ValueError("m must be >= 0")
    signs, size, top = _bar_signs(n), 1 << n, (m + 1) * n
    left = [[(a | b | a << n, signs[a | b << n])
             for a in range(1, size) if not a & b] for b in range(size)]
    right = [[(a | b | a << top, (-1) ** (m + 1) * signs[b | a << n])
              for a in range(1, size) if not a & b] for b in range(size)]
    splits = [[(u, v, signs[u | v << n]) for u in range(1, size)
               for v in range(1, size) if u | v == uv and not u & v]
              for uv in range(size)]
    # slot i: its shift, the slots below it, its splits per monomial
    slots = [(i * n, (1 << i * n) - 1,
              [[(u << i * n | v << i * n + n, (-1) ** i * sign)
                for u, v, sign in split] for split in splits])
             for i in range(1, m + 1)]

    def column(t):
        b = t & size - 1
        word = t ^ b
        # a split never meets an action; the actions meet when every
        # argument is the same a
        col = {word << n | c: s for c, s in left[b]}
        for c, s in right[b]:
            col[word | c] = col.get(word | c, 0) + s
        for shift, below, split in slots:
            rest = t & below | t >> shift + n << shift + 2 * n
            for c, s in split[t >> shift & size - 1]:
                col[rest | c] = s
        return col
    return column


def _shift_counts(c, a, d):
    """The count vector c with d added at every generator of the monomial a."""
    return tuple(x + d * (a >> h & 1) for h, x in enumerate(c))


def _bar_words(n, m):
    """The words (w1, ..., wm) of nonunit monomials, as the codes
    w1 << n | ... | wm << mn, bucketed by generator-count vector."""
    words = {(0,) * n: [0]}
    for j in range(1, m + 1):
        longer = defaultdict(list)
        for c, ws in words.items():
            for a in range(1, 2 ** n):
                code = a << j * n
                longer[_shift_counts(c, a, 1)].extend(w | code for w in ws)
        words = longer
    return words


def _bar_blocks(n, m, chain):
    """The generator-count blocks of the degree-m bar chain differential
    (``chain``) or of the bar cochain differential leaving degree m, in a
    fixed order and unbuilt: each a list of pairs (a, words), whose keys
    (``_bar_domain``) put the monomial a in slot 0 of each word code.
    The chain block of the count vector c holds the chains (a, w) for the
    words w with counts c - 1_a; the cochain block of v holds the
    cochains (w, a) for the words w with counts v + 1_a."""
    d = 1 if chain else -1
    blocks = defaultdict(list)
    for c, words in _bar_words(n, m).items():
        for a in range(2 ** n):
            blocks[_shift_counts(c, a, d)].append((a, words))
    return list(blocks.values())


def _bar_domain(block):
    """The domain codes a | w of an unbuilt block of ``_bar_blocks``: the
    chains (a, w), or the cochains (w, a), of its pairs (a, words)."""
    return [a | w for a, words in block for w in words]


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
                total += rank(keyed_matrix(_bar_domain(block), column, field))
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
