"""Exact integer linear algebra for small lattices (k <= 6).

Everything runs on Python ints: fraction-free Bareiss elimination (Bareiss
1968) gives determinants and ranks, cofactors give the adjugate, and the gcd
of maximal minors decides whether independent rows extend to a basis of Z^k.
Every division below is exact, so no rational arithmetic is needed.
"""

from __future__ import annotations

import math
from itertools import combinations


def det(rows) -> int:
    """Bareiss fraction-free determinant of a square integer matrix."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for j in range(i + 1, n):
                if a[j][i] != 0:
                    a[i], a[j] = a[j], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for j in range(i + 1, n):
            for c in range(i + 1, n):
                a[j][c] = (a[j][c] * a[i][i] - a[j][i] * a[i][c]) // prev
            a[j][i] = 0
        prev = a[i][i]
    return sign * a[-1][-1]


def echelon(rows) -> list[tuple[int, list[int]]]:
    """Fraction-free (Bareiss) row echelon form as (pivot column, row) pairs.

    After each pivot every entry below it is an exact minor of the input, so
    the division by the previous pivot never leaves the integers.
    """
    a = [list(map(int, r)) for r in rows]
    out = []
    prev = 1
    for col in range(len(a[0]) if a else 0):
        r = len(out)
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][col]
        for i in range(r + 1, len(a)):
            f = a[i][col]
            a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], a[r])]
        out.append((col, a[r]))
        prev = p
        if len(out) == len(a):
            break
    return out


def rank(rows) -> int:
    """Rank of an integer matrix."""
    return len(echelon(rows))


def independent(ech, vec) -> bool:
    """True when vec lies outside the row span of the matrix ech came from.

    Each step replaces vec by p*vec - f*row, which keeps vec's own coefficient
    nonzero, so the result vanishes exactly when vec is in the span.
    """
    v = list(vec)
    for col, row in ech:
        f = v[col]
        if f:
            p = row[col]
            v = [x * p - f * y for x, y in zip(v, row)]
    return any(v)


def adjugate(rows) -> list[list[int]]:
    """Adjugate of a small square integer matrix, so that inv = adj/det."""
    n = len(rows)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            adj[j][i] = (-1) ** (i + j) * det(sub)
    return adj


def extendable(rows, k: int) -> bool:
    """rows (i x k, independent) extend to a basis of Z^k iff the gcd of all
    i x i minors is 1 (Smith invariants all 1)."""
    i = len(rows)
    g = 0
    for cols in combinations(range(k), i):
        g = math.gcd(g, abs(det([[r[c] for c in cols] for r in rows])))
        if g == 1:
            return True
    return g == 1
