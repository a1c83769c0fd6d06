"""Arithmetic in the ungraded exterior algebra on n anticommuting generators.

The algebra has basis the strictly increasing monomials x_{t1}...x_{ti}
over {1..n}, written as index tuples (t1, ..., ti); multiplication is by
sorted insertion with a sign counting the transpositions needed.  Signs
are computed by inversion counting, never by term rewriting.  The
standing assumption n >= 2 is enforced everywhere; n = 1 is rejected.
It imports nothing of hhext.
"""

from __future__ import annotations

from bisect import bisect
from itertools import combinations


def check_n(n):
    if n < 2:
        raise ValueError("the generator count n must be >= 2")


def monomials(n):
    """All 2^n basis monomials of the algebra, as index tuples in
    length-lex order."""
    check_n(n)
    return [idx for d in range(n + 1)
            for idx in combinations(range(1, n + 1), d)]


def merge_signed(a, b):
    """Signed product of two index tuples: None if they share an index,
    else (sign, sorted concatenation) where sign counts the inversions
    moved past when sorting a+b.
    """
    if not b:
        return 1, a
    if not a:
        return 1, b
    inversions = 0
    for t in b:
        k = bisect(a, t)  # a[:k] <= t < a[k:]; a[-1] > t when k = 0
        if a[k - 1] == t:
            return None
        inversions += len(a) - k
    return -1 if inversions & 1 else 1, tuple(sorted(a + b))
