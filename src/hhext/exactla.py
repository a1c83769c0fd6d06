"""Exact sparse linear algebra over Q and prime fields F_p.

A field is its characteristic ``char``, a normaliser ``of`` and an
inverse ``inv``.  Scalars are plain Python values.  Over Q a scalar is an
int when it is integral and a reduced ``fractions.Fraction`` otherwise;
over F_p it is an int in [0, p).  In both a scalar is zero exactly when
it is falsy, and 0 and 1 are the ints 0 and 1.  Scalars combine with
``+ - *``; ``field.of`` normalises the result (an integral Fraction to
its numerator over Q, reduction mod p over F_p) and ``field.inv``
inverts a nonzero scalar, so the elimination code is field-agnostic.  No
floating point anywhere.

``rank`` is the one elimination routine; a span question is asked as a
rank difference (``rank_gain``).  It works on the shorter side, the
transpose of a matrix with more rows than columns, and there eliminates
columns in order of fill, a column left with one live row first, each on
its shortest live row.
"""

from __future__ import annotations

from fractions import Fraction


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The smallest strong pseudoprime to all of _MR_BASES (Sorenson and
# Webster, 2015); below it the Miller-Rabin test is exact.  Dropping the
# base 41 would lower this to 318665857834031151167461.
PRIME_BOUND = 3317044064679887385961981


def _is_prime(p):
    """Deterministic Miller-Rabin primality test; raises ValueError at or
    above PRIME_BOUND, where the fixed bases no longer decide it."""
    if p >= PRIME_BOUND:
        raise ValueError(f"primality is only decided below {PRIME_BOUND}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field Q.  A scalar is an int when it is integral, and otherwise
    a Fraction, reduced with positive denominator; never a float.  Ints
    and Fractions compare and hash alike, so the form never shows."""

    char = 0

    def of(self, x):
        if type(x) is int:
            return x
        if type(x) is not Fraction:
            raise TypeError(f"a scalar is an int or a Fraction, not {x!r}")
        return x.numerator if x.denominator == 1 else x

    def inv(self, a):
        return self.of(Fraction(1, a))

    def __repr__(self):
        return "QQ"


class GF:
    """The field F_p for prime p. Scalars are int residues in [0, p)."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.char = p

    def of(self, x):
        if type(x) is int:
            return x % self.char
        if isinstance(x, Fraction):
            return x.numerator * pow(x.denominator, -1, self.char) % self.char
        raise TypeError(f"a scalar is an int or a Fraction, not {x!r}")

    def inv(self, a):
        return pow(a, -1, self.char)

    def __repr__(self):
        return f"GF({self.char})"


QQ = RationalField()


def field_of_char(char):
    """Field of the given characteristic: 0 gives Q, a prime p gives F_p;
    anything else raises ValueError."""
    return QQ if char == 0 else GF(char)


class SparseMatrix:
    """Sparse matrix over an exact field, built by ``keyed_matrix``.

    ``entries[r]`` is row r as a dict {col: nonzero scalar}; no row is
    empty.  Nothing here mutates it; rank works on a copy.
    """

    __slots__ = ("rows", "cols", "field", "entries")

    def __init__(self, rows, cols, field, entries):
        self.rows = rows
        self.cols = cols
        self.field = field
        self.entries = entries

    def nnz(self):
        return sum(map(len, self.entries))

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols} over {self.field}, nnz={self.nnz()})"


def keyed_matrix(domain, column, field):
    """Matrix of a linear map given by a column rule.

    Column c is ``column(domain[c])``, a mapping {target key: value}.  The
    values become field elements here, through ``field.of``, which keeps
    a value already in the field as it is; zeros are dropped.  The target
    keys that keep a nonzero entry become the rows, numbered in order of
    first use.
    """
    of = field.of
    index = {}
    entries = []
    for c, key in enumerate(domain):
        for target, v in column(key).items():
            v = of(v)
            if v:
                r = index.get(target)
                if r is None:
                    index[target] = len(entries)
                    entries.append({c: v})
                else:
                    entries[r][c] = v
    return SparseMatrix(len(entries), len(domain), field, entries)


def apply(column, vec, field):
    """Image of the keyed vector {key: scalar} under the linear map with
    the given column rule, as {target key: nonzero scalar}."""
    of = field.of
    out = {}
    for key, c in vec.items():
        for target, v in column(key).items():
            acc = of(out.get(target, 0) + c * v)
            if not acc:
                out.pop(target, None)
            else:
                out[target] = acc
    return out


def rank(M):
    """Rank of a sparse matrix by Gaussian elimination.

    The working rows are the rows of M, or its columns when M has more
    rows than columns: the transpose has the same rank and fewer rows.
    Their columns are eliminated once each, in order of fill, ties
    broken by first appearance; a column whose live fill falls to one,
    by the pivot row leaving it or by a cancellation, goes onto a stack
    and is eliminated next.  A pivot is the column's shortest live row,
    then its lowest index.  A column with no live rows is skipped.
    """
    F = M.field
    of = F.of
    if M.rows > M.cols:
        rows = [{} for _ in range(M.cols)]
        for i, rd in enumerate(M.entries):
            for c, v in rd.items():
                rows[c][i] = v
    else:
        rows = [dict(rd) for rd in M.entries]
    col_rows = {}
    for i, rd in enumerate(rows):
        for c in rd:
            col_rows.setdefault(c, set()).add(i)

    stack = []
    r = 0
    for first in sorted(col_rows, key=lambda c: len(col_rows[c])):
        stack.append(first)
        while stack:
            c = stack.pop()
            live = col_rows.pop(c, None)
            if not live:
                continue
            pr = min(live, key=lambda i: (len(rows[i]), i))
            live.discard(pr)
            prow = rows[pr]
            pinv = F.inv(prow.pop(c))
            for cc in prow:
                live_cc = col_rows[cc]
                live_cc.discard(pr)
                if len(live_cc) == 1:
                    stack.append(cc)
            r += 1
            for i in live:
                ri = rows[i]
                factor = of(ri.pop(c) * pinv)
                for cc, v in prow.items():
                    s = of(ri.get(cc, 0) - factor * v)
                    if s:
                        if cc not in ri:
                            col_rows[cc].add(i)
                        ri[cc] = s
                    else:  # factor * v is nonzero: only an entry cancels
                        del ri[cc]
                        live_cc = col_rows[cc]
                        live_cc.discard(i)
                        if len(live_cc) == 1:
                            stack.append(cc)
    return r


def rank_gain(columns, vecs, field):
    """How much the keyed vectors ``vecs`` raise the rank of ``columns``:
    0 when each lies in their span, ``len(vecs)`` when they are
    independent modulo it.  Neither list is changed."""
    def rank_of(L):
        return rank(keyed_matrix(range(len(L)), L.__getitem__, field))
    return rank_of(columns + vecs) - rank_of(columns)
