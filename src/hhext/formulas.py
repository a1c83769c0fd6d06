"""Closed-form dimension and rank formulas for the exterior algebra on n generators.

Everything here is exact integer arithmetic.  The binomial convention is
C(i, j) = 0 whenever j < 0 or i < j, with C(0, 0) = 1; several of the
double sums below rely on it.
"""

from __future__ import annotations

import math


def binom(i, j):
    """Binomial coefficient with C(i, j) = 0 for i < j or j < 0."""
    if j < 0 or i < j:
        return 0
    return math.comb(i, j)


def same_parity(a, b):
    return (a - b) % 2 == 0


def chain_rank_terms(n, m, char=0):
    """Outer terms of chain_rank_double_sum: {i: C(n,i) * inner_i} for
    support sizes i = 1..n, where inner_i sums over coefficient degrees
    j < i of the parity of m.  All zero in characteristic 2.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    terms = {}
    for i in range(1, n + 1):
        inner = 0
        if char != 2:
            for j in range(0, i):
                if same_parity(j, m):
                    inner += binom(j + m - 1, i - 1) * binom(i - 1, j)
        terms[i] = binom(n, i) * inner
    return terms


def chain_rank_double_sum(n, m, char=0):
    """Rank of the degree-m chain differential, as a double sum over
    support size i and coefficient degree j (same parity as m).

    Zero in characteristic 2, where the differential vanishes.
    """
    return sum(chain_rank_terms(n, m, char).values())


def chain_rank_closed_form(n, m):
    """Simplified closed form of chain_rank_double_sum for char != 2."""
    if m < 1:
        raise ValueError("m must be >= 1")
    total = sum(2 ** (i - 1) * binom(m + i - 1, i) for i in range(1, n))
    if m % 2 == 0:
        total += 1
    return total


def binomial_sum_identity(n, m, j):
    """Check that the two ways of summing the rank double sum agree:

    sum_{i=j+1}^{n} C(n,i) C(j+m-1,i-1) C(i-1,j)
      = sum_{i=1}^{n-j} C(n-i,j) C(m+n-i-1,n-i).
    """
    lhs = sum(
        binom(n, i) * binom(j + m - 1, i - 1) * binom(i - 1, j)
        for i in range(j + 1, n + 1)
    )
    rhs = sum(
        binom(n - i, j) * binom(m + n - i - 1, n - i)
        for i in range(1, n - j + 1)
    )
    return lhs == rhs


def cochain_rank_terms(n, m, char=0):
    """Outer terms of cochain_rank_double_sum: {i: C(n,i) * inner_i} for
    i = 1..n, with the inner parity tied to n + m.  All zero in
    characteristic 2.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    terms = {}
    for i in range(1, n + 1):
        inner = 0
        if char != 2:
            for j in range(0, i):
                if same_parity(j, n + m):
                    inner += binom(j + m, i - 1) * binom(i - 1, j)
        terms[i] = binom(n, i) * inner
    return terms


def cochain_rank_double_sum(n, m, char=0):
    """Rank of the cochain differential leaving cohomological degree m
    (the map raising degree m to m+1), as a double sum with the inner
    parity tied to n + m.  Zero in characteristic 2.
    """
    return sum(cochain_rank_terms(n, m, char).values())


def cochain_rank_closed_form(n, m):
    """Simplified closed form of cochain_rank_double_sum for char != 2."""
    if m < 0:
        raise ValueError("m must be >= 0")
    total = sum(2 ** (i - 1) * binom(m + i, i) for i in range(1, n))
    if (n + m) % 2 == 0:
        total += 1
    return total


def hh_dim_formula(n, m, char=0):
    """dim of the m-th Hochschild homology of the exterior algebra on n generators."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if char == 2:
        return 2 ** n * binom(n + m - 1, n - 1)
    if m == 0:
        return 2 ** (n - 1) + 1
    return 2 ** (n - 1) * binom(n + m - 1, n - 1)


def hhc_dim_formula(n, m, char=0):
    """dim of the m-th Hochschild cohomology of the exterior algebra on n generators."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if char == 2:
        return 2 ** n * binom(n + m - 1, n - 1)
    if m == 0 and n % 2 == 1:
        return 2 ** (n - 1) + 1
    return 2 ** (n - 1) * binom(n + m - 1, n - 1)


def hc_dim_formula(n, m, char=0):
    """dim of the m-th cyclic homology, defined only in characteristic zero."""
    if char != 0:
        raise ValueError("cyclic homology dimensions are only computed in characteristic 0")
    if m < 0:
        raise ValueError("m must be >= 0")
    total = sum(
        (-1) ** (m - i) * 2 ** (n - 1) * binom(n + i - 1, n - 1)
        for i in range(0, m + 1)
    )
    if m % 2 == 0:
        total += 1
    return total


def hilbert_coeffs(n, char, N):
    """First N+1 coefficients of the Hilbert series of the cohomology ring.

    The series is 2^(n-1)/(1-t)^n for char != 2 (plus 1 when n is odd,
    affecting only the constant term) and 2^n/(1-t)^n in characteristic 2.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    lead = 2 ** n if char == 2 else 2 ** (n - 1)
    coeffs = [lead * binom(n + m - 1, n - 1) for m in range(N + 1)]
    if char != 2 and n % 2 == 1:
        coeffs[0] += 1
    return coeffs
