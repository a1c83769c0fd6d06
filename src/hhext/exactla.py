"""Exact sparse linear algebra over Q and prime fields F_p.

Scalars are plain Python values: ``fractions.Fraction`` over Q, ints in
[0, p) over F_p.  All arithmetic goes through a field object so the
elimination code is field-agnostic.  No floating point anywhere.
"""

from __future__ import annotations

import heapq
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
    """The field Q. Scalars are Fractions, stored reduced with positive denominator."""

    char = 0

    def of(self, x):
        if type(x) is Fraction:
            return x
        return Fraction(x)

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(("field", 0))


class PrimeField:
    """The field F_p for prime p. Scalars are int residues in [0, p)."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def of(self, x):
        if type(x) is int:
            return x % self.p
        if isinstance(x, Fraction):
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("field", self.p))


QQ = RationalField()

_gf_cache = {}


def GF(p):
    """Memoized prime field constructor."""
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_of_char(char):
    """Field of the given characteristic: 0 gives Q, a prime p gives F_p."""
    return QQ if char == 0 else GF(char)


class SparseMatrix:
    """Immutable sparse matrix over an exact field.

    Entries are a dict (row, col) -> nonzero scalar.  Mutating helpers all
    work on copies; rank and kernel never touch the original.
    """

    __slots__ = ("rows", "cols", "field", "entries")

    def __init__(self, rows, cols, field, entries):
        self.rows = rows
        self.cols = cols
        self.field = field
        clean = {}
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) out of bounds for {rows}x{cols}")
            v = field.of(v)
            if v != field.zero:
                clean[(r, c)] = v
        self.entries = clean

    @classmethod
    def from_columns(cls, rows, cols, field, columns):
        """Build from an iterable of (col index, {row: value}) pairs."""
        entries = {}
        for c, coldict in columns:
            for r, v in coldict.items():
                entries[(r, c)] = v
        return cls(rows, cols, field, entries)

    def nnz(self):
        return len(self.entries)

    def is_zero(self):
        return not self.entries

    def transpose(self):
        return SparseMatrix(
            self.cols, self.rows, self.field,
            {(c, r): v for (r, c), v in self.entries.items()},
        )

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def col_dict(self, c):
        out = {}
        for (r, cc), v in self.entries.items():
            if cc == c:
                out[r] = v
        return out

    def columns(self):
        """All columns as dicts, indexed 0..cols-1 (zero columns included)."""
        cols = [dict() for _ in range(self.cols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    def mul_vec(self, vec):
        """Matrix times sparse column vector {col: value} -> {row: value}."""
        F = self.field
        out = {}
        cols = {}
        for (r, c), v in self.entries.items():
            cols.setdefault(c, []).append((r, v))
        for c, x in vec.items():
            if c < 0 or c >= self.cols:
                raise ValueError("vector index out of range")
            if x == F.zero:
                continue
            for r, v in cols.get(c, ()):
                s = F.add(out.get(r, F.zero), F.mul(v, x))
                if s == F.zero:
                    out.pop(r, None)
                else:
                    out[r] = s
        return out

    def matmul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        if self.field != other.field:
            raise ValueError("field mismatch")
        F = self.field
        left_cols = {}
        for (r, c), v in self.entries.items():
            left_cols.setdefault(c, []).append((r, v))
        out = {}
        for (k, j), w in other.entries.items():
            for r, v in left_cols.get(k, ()):
                key = (r, j)
                s = F.add(out.get(key, F.zero), F.mul(v, w))
                if s == F.zero:
                    out.pop(key, None)
                else:
                    out[key] = s
        return SparseMatrix(self.rows, other.cols, F, out)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols} over {self.field}, nnz={self.nnz()})"


def rank(M):
    """Rank of a sparse matrix by Gaussian elimination.

    Pivots are chosen as (min column fill, then min row fill, then lowest
    index), which keeps fill low on the very sparse differential matrices
    this package produces and is fully deterministic.
    """
    F = M.field
    rows = {}
    col_rows = {}
    for i, rd in enumerate(M.row_dicts()):
        if rd:
            rows[i] = rd
            for c in rd:
                col_rows.setdefault(c, set()).add(i)

    heap = [(len(rs), c) for c, rs in col_rows.items()]
    heapq.heapify(heap)
    r = 0
    while heap:
        nnz, c = heapq.heappop(heap)
        live = col_rows.get(c)
        if not live or len(live) != nnz:
            if live:
                heapq.heappush(heap, (len(live), c))
            continue
        pr = min(live, key=lambda i: (len(rows[i]), i))
        prow = rows.pop(pr)
        piv = prow.pop(c)
        for cc in prow:
            col_rows[cc].discard(pr)
        col_rows.pop(c)
        pinv = F.inv(piv)
        r += 1
        for i in list(live):
            if i == pr:
                continue
            ri = rows[i]
            factor = F.mul(ri.pop(c), pinv)
            for cc, v in prow.items():
                s = F.sub(ri.get(cc, F.zero), F.mul(factor, v))
                if s == F.zero:
                    if cc in ri:
                        del ri[cc]
                        live_cc = col_rows[cc]
                        live_cc.discard(i)
                        heapq.heappush(heap, (len(live_cc), cc))
                else:
                    if cc not in ri:
                        live_cc = col_rows.setdefault(cc, set())
                        live_cc.add(i)
                        heapq.heappush(heap, (len(live_cc), cc))
                    ri[cc] = s
            if not ri:
                del rows[i]
    return r


def _rref(M):
    """Reduced row echelon form; returns (pivot cols in order, rows as dicts)."""
    F = M.field
    rows = [rd for rd in M.row_dicts() if rd]
    pivots = {}
    for rd in rows:
        rd = dict(rd)
        while rd:
            c = min(rd)
            if c not in pivots:
                inv = F.inv(rd[c])
                rd = {cc: F.mul(v, inv) for cc, v in rd.items()}
                pivots[c] = rd
                break
            prow = pivots[c]
            factor = rd[c]
            new = {}
            for cc in set(rd) | set(prow):
                v = F.sub(rd.get(cc, F.zero), F.mul(factor, prow.get(cc, F.zero)))
                if v != F.zero:
                    new[cc] = v
            rd = new
    # back-substitute so each pivot column is zero in every other row
    for c in sorted(pivots, reverse=True):
        prow = pivots[c]
        for c2, row2 in pivots.items():
            if c2 == c or c not in row2:
                continue
            factor = row2[c]
            for cc, v in prow.items():
                s = F.sub(row2.get(cc, F.zero), F.mul(factor, v))
                if s == F.zero:
                    row2.pop(cc, None)
                else:
                    row2[cc] = s
    return sorted(pivots), pivots


def kernel_basis(M):
    """Basis of the null space, as sparse column vectors {index: value}.

    The list has length cols - rank(M); each vector v satisfies Mv = 0
    exactly.  Free variables are set to 1 in increasing column order.
    """
    F = M.field
    pivot_cols, pivots = _rref(M)
    free = [c for c in range(M.cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = {fc: F.one}
        for c in pivot_cols:
            v = pivots[c].get(fc)
            if v is not None:
                vec[c] = F.neg(v)
        basis.append(vec)
    return basis


class SpanBasis:
    """Incremental row echelon over a field, for span membership queries.

    Vectors are sparse dicts {index: value}.  ``insert`` adds a vector to
    the span, ``reduce`` returns the residual of a vector against the
    current span, and ``contains`` tests membership.
    """

    def __init__(self, field):
        self.field = field
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        F = self.field
        rd = {i: v for i, v in vec.items() if v != F.zero}
        while rd:
            c = min(rd)
            prow = self.pivots.get(c)
            if prow is None:
                return rd
            factor = rd[c]
            new = {}
            for cc in set(rd) | set(prow):
                v = F.sub(rd.get(cc, F.zero), F.mul(factor, prow.get(cc, F.zero)))
                if v != F.zero:
                    new[cc] = v
            rd = new
        return rd

    def insert(self, vec):
        F = self.field
        rd = self.reduce(vec)
        if not rd:
            return False
        c = min(rd)
        inv = F.inv(rd[c])
        self.pivots[c] = {cc: F.mul(v, inv) for cc, v in rd.items()}
        return True

    def contains(self, vec):
        return not self.reduce(vec)
