"""Exact integer linear algebra for small lattices.

Everything runs on Python ints: fraction-free Bareiss elimination (Bareiss
1968) gives determinants, cofactors give the adjugate, and an extended-gcd
column reduction rebases a lattice, one pick at a time, so that its first s
basis rows span the saturation of s picks.  Integral LLL (Lenstra, Lenstra
and Lovasz 1982, in the integral form of Cohen, A Course in Computational
Algebraic Number Theory, Algorithm 2.6.7) reduces a lattice given by its
integer Gram matrix without mixing those s rows with the rest, and
ReducedLattice.walk enumerates the lattice points of an ellipsoid outside
their span depth-first in the order of Fincke-Pohst (1985) and
Schnorr-Euchner (1994).  Every division below is exact, so no rational
arithmetic is needed.
"""

from __future__ import annotations

import copy
import math
from operator import mul

from .errors import BudgetExceeded


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


def adjugate(rows) -> list[list[int]]:
    """Adjugate of a small square integer matrix, so that inv = adj/det."""
    n = len(rows)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            adj[j][i] = (-1) ** (i + j) * det(sub)
    return adj


def _xgcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, a, b) with a*x + b*y = g = gcd(x, y)."""
    a0, a1, b0, b1 = 1, 0, 0, 1
    while y:
        q, r = divmod(x, y)
        x, y, a0, a1, b0, b1 = y, r, a1, a0 - q * a1, b1, b0 - q * b1
    return (x, a0, b0) if x >= 0 else (-x, -a0, -b0)


def _completing(coeffs, s: int) -> list[list[int]]:
    """A unimodular matrix u, equal to the identity on its first s rows,
    whose first s+1 rows span over Z every integer vector in the rational
    span of e_0..e_{s-1} and coeffs.

    Column operations on coeffs fold its entries past s into position s:
    the pair (x, y) in columns s < j becomes (gcd, 0), and u takes the
    inverse row operations, so coeffs = sum_{i<=s} c_i u_i.  The first s+1
    rows of u span what e_0..e_{s-1} and coeffs span, and as rows of a
    unimodular matrix they are a basis of its integer points.
    """
    n = len(coeffs)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    x = coeffs[s]
    for j in range(s + 1, n):
        y = coeffs[j]
        if y:
            g, a, b = _xgcd(x, y)
            p, q = x // g, y // g
            u[s], u[j] = [p * c + q * e for c, e in zip(u[s], u[j])], [a * e - b * c for c, e in zip(u[s], u[j])]
            x = g
    if not x:
        raise ValueError("the pick lies in the span of the first s rows")
    return u


def _mul(a, b) -> list[list[int]]:
    """The integer matrix product a b."""
    cols = list(zip(*b))
    return [[sum(map(mul, r, c)) for c in cols] for r in a]


# -- integral LLL and Schnorr-Euchner enumeration -----------------------------


def lll_gram(gram, fixed: int = 0) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """Integral LLL reduction (factor 3/4) of the lattice with Gram matrix gram.

    Cohen's Algorithm 2.6.7: the Gram-Schmidt data stays integral as
    d[i] = det of the leading i x i Gram block (d[0] = 1) and
    lam[i][j] = d[j+1] * mu_ij for j < i.  Returns (h, d, lam): the rows of h
    give the reduced basis in the input basis (det h = +-1), and d and lam
    belong to the reduced basis, so |b*_i|^2 = d[i+1]/d[i].  No swap crosses
    position fixed, so the first fixed rows of h span what the first fixed
    input rows span: the rest is reduced in projection away from them.
    """
    g = [list(map(int, r)) for r in gram]
    n = len(g)
    h = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    if n == 0:
        return h, d, lam
    d[1] = g[0][0]
    if d[1] <= 0:
        raise ValueError("Gram matrix is not positive definite")
    kmax = 0

    def red(k, l):
        q = lam[k][l]
        dl = d[l + 1]
        if 2 * abs(q) > dl:
            q = (2 * q + dl) // (2 * dl)  # nearest integer to lam/d
            h[k] = [a - q * b for a, b in zip(h[k], h[l])]
            lam[k][l] -= q * dl
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):
        h[k], h[k - 1] = h[k - 1], h[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        L = lam[k][k - 1]
        B = (d[k - 1] * d[k + 1] + L * L) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - L * t) // d[k]
            lam[i][k - 1] = (B * t + L * lam[i][k]) // d[k + 1]
        d[k] = B

    k = 1
    while k < n:
        if k > kmax:
            # row k is still the input vector e_k, so b_k . b_j = (g h_j)_k
            kmax = k
            for j in range(k + 1):
                u = sum(a * b for a, b in zip(g[k], h[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    if u <= 0:
                        raise ValueError("Gram matrix is not positive definite")
                    d[k + 1] = u
        red(k, k - 1)
        if k != fixed and 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return h, d, lam


def line_cut(lo: int, hi: int, forms):
    """(lo, hi) narrowed to the x with |s*x + c| <= lim for every (s, c, lim)
    in forms, by integer division; None when no x is left."""
    for s, c, lim in forms:
        if s < 0:
            s, c = -s, -c
        if s == 0:
            if abs(c) > lim:
                return None
            continue
        lo = max(lo, -((lim + c) // s))
        hi = min(hi, (lim - c) // s)
        if lo > hi:
            return None
    return lo, hi


def spender(budget: int, message: str):
    """A spend() for walk() that raises BudgetExceeded(message) on the
    (budget+1)-th call."""
    left = budget

    def spend() -> None:
        nonlocal left
        left -= 1
        if left < 0:
            raise BudgetExceeded(message)

    return spend


class ReducedLattice:
    """An integral-LLL basis of the lattice spanned by rows, with the integer
    Gram-Schmidt data that depth-first enumeration needs.

    gram is the Gram matrix of rows under the quadratic form Q that the
    enumeration bounds; basis holds the reduced basis as integer vectors in
    the coordinates of rows.  LLL keeps the first s rows apart from the rest
    (lll_gram's fixed), so they span what the first s input rows span, and
    walk visits only the points outside that span.
    """

    def __init__(self, rows, gram, s: int = 0):
        rows = [list(map(int, r)) for r in rows]
        h, self.d, self.lam = lll_gram(gram, s)
        self.s, self._input = s, (rows, gram, h)
        self.basis = [tuple(r) for r in _mul(h, rows)]
        # Q(sum x_i b_i) = sum_i y_i^2 / (d[i] d[i+1]) with
        # y_i = d[i+1] x_i + sum_{j>i} lam[j][i] x_j; den puts every level
        # over one denominator
        n = len(h)
        self.den = math.lcm(*(self.d[i] * self.d[i + 1] for i in range(n))) if n else 1
        self.weight = [self.den // (self.d[i] * self.d[i + 1]) for i in range(n)]

    def rebased(self, coeffs) -> ReducedLattice:
        """The same lattice and form on a basis whose first s+1 rows are a
        basis of the lattice points in the rational span of the first s rows
        and the point with coefficients coeffs over basis (independent of
        them).

        The greedy pick loops rebase once per pick, on the pick's
        coefficients as walk hands them over, so the first s rows span the
        saturation of the picks and walk visits no point of it; when the
        picks are a basis of their span, whether they plus a point extend to
        a basis is the gcd of its coefficients past s, the same along a
        line.  A pick with no coefficient past s leaves the basis as it is.
        """
        u = _completing(coeffs, self.s)
        if not any(coeffs[self.s + 1 :]):  # u is the identity
            lat = copy.copy(self)
            lat.s += 1
            return lat
        rows, gram, h = self._input
        t = _mul(u, h)
        return ReducedLattice(_mul(t, rows), _mul(_mul(t, gram), list(zip(*t))), self.s + 1)

    def walk(self, limit, leaf, spend) -> None:
        """Depth-first Schnorr-Euchner walk over the half lattice
        {v = sum x_i b_i : Q(v) <= limit(), x_i != 0 for some i >= s, last
        nonzero x_i > 0}: the top path takes x_s >= 1, which skips the span of
        b_0..b_{s-1} (only v = 0 when s = 0).

        Outer levels (top first) run in zig-zag order outward from their
        centre.  limit() returns (num, den), the radius num/den; it is read
        again at every node, so a leaf that tightens it prunes the rest of the
        walk.  The innermost coordinate is handed over whole:
        leaf(r, lo, hi, x) receives r = sum_{i>0} x_i b_i, the range lo..hi
        of x_0 with Q(x_0 b_0 + r) <= limit() (lo >= 1 when r = 0 and
        s = 0), and the walk's own list x, whose x[1:] are r's coefficients
        (read it during the call; the walk changes it afterwards).  spend()
        is called once per visited node.
        """
        n = len(self.basis)
        if n == self.s:  # nothing lies outside the span
            return
        d, lam, w, den, basis, skip = self.d, self.lam, self.weight, self.den, self.basis, self.s
        x = [0] * n

        radius = [None, 0, w]  # the last limit(), den*num and each w[l]*lden

        def reach(l, s):
            """Largest |y_l| that keeps the partial sum s inside, or -1."""
            num, lden = lim = limit()
            if lim != radius[0]:
                radius[:] = lim, den * num, [wl * lden for wl in w]
            rem = radius[1] - s * lden
            return math.isqrt(rem // radius[2][l]) if rem >= 0 else -1

        def level(l, s, r, top):
            c = sum(lam[j][l] * x[j] for j in range(l + 1, n))
            dl = d[l + 1]
            if l == 0:
                t = reach(0, s)
                lo, hi = -((t + c) // dl), (t - c) // dl
                if top:
                    lo = max(lo, 1)
                if t >= 0 and lo <= hi:
                    spend()
                    leaf(r, lo, hi, x)
                return
            up = int(l == skip) if top else (dl - 2 * c) // (2 * dl)  # nearest to -c/dl
            down = None if top else up - 1
            bl, lim = basis[l], None
            while True:
                if limit() != lim:  # a leaf may have tightened the radius
                    lim, t = limit(), reach(l, s)
                yu = abs(dl * up + c)
                yd = abs(dl * down + c) if down is not None else t + 1
                if yu <= t and (yd > t or yu <= yd):
                    xl, y = up, yu
                    up += 1
                elif yd <= t:
                    xl, y = down, yd
                    down -= 1
                else:
                    return
                x[l] = xl
                spend()
                level(l - 1, s + w[l] * y * y, tuple(a + xl * b for a, b in zip(r, bl)), top and xl == 0)

        try:
            level(n - 1, 0, (0,) * len(basis[0]), True)
        finally:
            del level  # level refers to itself: drop the cycle with the walk
