"""Arithmetic in the ungraded exterior algebra on n anticommuting generators.

The algebra has basis the strictly increasing monomials x_{t1}...x_{ti}
over {1..n}; multiplication is by sorted insertion with a sign counting
the transpositions needed.  Signs are computed by inversion counting,
never by term rewriting.  The standing assumption n >= 2 is enforced
everywhere; n = 1 is rejected.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations


def check_n(n):
    if n < 2:
        raise ValueError("the generator count n must be >= 2")


class ExtMonomial:
    """A basis monomial: a strictly increasing index tuple over {1..n}.

    >>> m = ExtMonomial(3, (1, 3))
    >>> m.degree
    2
    >>> m * ExtMonomial(3, (2,))
    (-1, ExtMonomial(3, (1, 2, 3)))
    """

    __slots__ = ("n", "indices")

    def __init__(self, n, indices):
        check_n(n)
        indices = tuple(indices)
        if any(not 1 <= t <= n for t in indices):
            raise ValueError(f"indices {indices} out of range for n={n}")
        if any(a >= b for a, b in zip(indices, indices[1:])):
            raise ValueError(f"indices {indices} not strictly increasing")
        self.n = n
        self.indices = indices

    @property
    def degree(self):
        return len(self.indices)

    def sort_key(self):
        # length first, then lexicographic: the canonical basis order
        return (len(self.indices), self.indices)

    def __mul__(self, other):
        res = merge_signed(self.indices, other.indices)
        if res is None:
            return None
        sign, idx = res
        return sign, ExtMonomial(self.n, idx)

    def __eq__(self, other):
        return (
            isinstance(other, ExtMonomial)
            and self.n == other.n
            and self.indices == other.indices
        )

    def __hash__(self):
        return hash((self.n, self.indices))

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        return f"ExtMonomial({self.n}, {self.indices})"


@lru_cache(maxsize=None)
def monomials(n):
    """All 2^n basis monomials of the algebra, in length-lex order."""
    check_n(n)
    out = []
    for d in range(n + 1):
        for idx in combinations(range(1, n + 1), d):
            out.append(ExtMonomial(n, idx))
    return tuple(out)


def merge_signed(a, b):
    """Signed product of two index tuples: None if they share an index,
    else (sign, sorted concatenation) where sign counts the inversions
    moved past when sorting a+b.
    """
    if not b:
        return 1, a
    if not a:
        return 1, b
    sa = set(a)
    inversions = 0
    for t in b:
        if t in sa:
            return None
        inversions += sum(1 for s in a if s > t)
    return (-1) ** (inversions % 2), tuple(sorted(a + b))


class ExtElement:
    """A general element: finite map from basis monomials to field scalars."""

    __slots__ = ("n", "field", "terms")

    def __init__(self, n, field, terms=None):
        check_n(n)
        self.n = n
        self.field = field
        clean = {}
        if terms:
            for mono, c in terms.items():
                if mono.n != n:
                    raise ValueError("mixed generator counts")
                c = field.of(c)
                if c != field.zero:
                    clean[mono] = c
        self.terms = clean

    @classmethod
    def from_monomial(cls, mono, field, coeff=1):
        return cls(mono.n, field, {mono: coeff})

    @classmethod
    def one(cls, n, field):
        return cls(n, field, {ExtMonomial(n, ()): field.one})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        self._check_compatible(other)
        F = self.field
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = F.add(terms.get(mono, F.zero), c)
            if s == F.zero:
                terms.pop(mono, None)
            else:
                terms[mono] = s
        out = ExtElement(self.n, F)
        out.terms = terms
        return out

    def __sub__(self, other):
        return self + other.scale(self.field.neg(self.field.one))

    def scale(self, c):
        F = self.field
        c = F.of(c)
        out = ExtElement(self.n, F)
        if c != F.zero:
            out.terms = {m: F.mul(v, c) for m, v in self.terms.items()}
        return out

    def _check_compatible(self, other):
        if self.n != other.n:
            raise ValueError("mixed generator counts")
        if self.field != other.field:
            raise ValueError("mixed fields")

    def __eq__(self, other):
        return (
            isinstance(other, ExtElement)
            and self.n == other.n
            and self.field == other.field
            and self.terms == other.terms
        )

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())
        body = " + ".join(f"{c}*{m.indices}" for m, c in items) or "0"
        return f"ExtElement({self.n}, {body})"


def mult(a, b):
    """Product of two elements, by bilinear extension of the signed
    monomial product.  Associative; the empty monomial is the unit.
    """
    a._check_compatible(b)
    F = a.field
    terms = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            res = merge_signed(ma.indices, mb.indices)
            if res is None:
                continue
            sign, idx = res
            mono = ExtMonomial(a.n, idx)
            c = F.mul(ca, cb)
            if sign < 0:
                c = F.neg(c)
            s = F.add(terms.get(mono, F.zero), c)
            if s == F.zero:
                terms.pop(mono, None)
            else:
                terms[mono] = s
    out = ExtElement(a.n, F)
    out.terms = terms
    return out


def _commutes_with_all_generators(mono, field):
    n = mono.n
    a = ExtElement.from_monomial(mono, field)
    for h in range(1, n + 1):
        xh = ExtElement.from_monomial(ExtMonomial(n, (h,)), field)
        if mult(a, xh) != mult(xh, a):
            return False
    return True


def center_basis(n, field):
    """Basis of the center: all even-degree monomials, plus the top
    monomial x_1...x_n when n is odd.  Only meaningful away from
    characteristic 2 (there the algebra is commutative).

    Each candidate is verified by commuting against every generator, and
    every non-candidate is verified to fail.
    """
    check_n(n)
    if field.char == 2:
        raise ValueError("in characteristic 2 the whole algebra is central")
    out = []
    for mono in monomials(n):
        central = _commutes_with_all_generators(mono, field)
        expected = mono.degree % 2 == 0 or mono.degree == n
        if central != expected:
            raise AssertionError(f"centrality check failed for {mono}")
        if central:
            out.append(mono)
    return out


def commutator_quotient_dim(n, field):
    """dim of the quotient by the commutator subspace, computed by
    spanning all commutators over basis pairs and taking the codimension.
    """
    from .exactla import SpanBasis

    check_n(n)
    basis = monomials(n)
    index = {m.indices: i for i, m in enumerate(basis)}
    span = SpanBasis(field)
    for a in basis:
        for b in basis:
            x = mult(
                ExtElement.from_monomial(a, field),
                ExtElement.from_monomial(b, field),
            )
            y = mult(
                ExtElement.from_monomial(b, field),
                ExtElement.from_monomial(a, field),
            )
            comm = x - y
            if not comm.is_zero():
                span.insert({index[m.indices]: c for m, c in comm.terms.items()})
    return 2 ** n - span.rank
