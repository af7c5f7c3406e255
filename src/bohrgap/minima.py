"""Gauge norms and certified successive minima of the scan region's convex body.

The region R = {|x_1| <= c_0, |alpha_i x_1 - x_{1+i}| <= c_i} is renormalized
to S = R/lambda with lambda^k held exactly as a rational.  Since lambda is a
fixed positive constant, every comparison of gauges runs on the R-gauge
m(v) = max_i |L_i(v)|/c_i; lambda re-enters only in reported values.  Minima
are certified by exhaustive enumeration inside a radius that a floating-point
lattice reduction merely suggests: the reduced vectors give a provable upper
bound for lambda_k, so no correctness rests on floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

import numpy as np

from .errors import (
    BudgetExceeded,
    ConstructionError,
    MinimaDegenerate,
    ValidationError,
)
from .exponents import TargetVector
from .realfield import UNDECIDED, FixedReal, certify, fr_root_rational
from .scan import CoordScan, ThresholdSpec, members_in_range

Q = Fraction


@dataclass(frozen=True)
class ConvexBody:
    """Forms L_0(x) = x_1, L_i(x) = alpha_i x_1 - x_{1+i}; box bounds c."""

    alpha: TargetVector
    c: tuple[Fraction, ...]  # c[0] = N/10, c[i] = delta_i/10
    lam_pow_k: Fraction  # lambda^k = delta_1..delta_{k-1} * N, exact

    def __post_init__(self):
        if len(self.c) != self.alpha.k:
            raise ValidationError("one bound per form required")
        if any(ci <= 0 for ci in self.c):
            raise ValidationError("bounds must be positive")
        if self.lam_pow_k <= 0:
            raise ValidationError("lambda^k must be positive")

    @property
    def k(self) -> int:
        return self.alpha.k

    def lam(self, scale: Optional[int] = None) -> FixedReal:
        return fr_root_rational(self.lam_pow_k, self.k, scale or self.alpha.scale)

    def vol_s(self) -> Fraction:
        """vol(S) = 2^k * prod(c_i) / lambda^k; equals 5^-k for spec-built bodies."""
        v = Q(2) ** self.k
        for ci in self.c:
            v *= ci
        return v / self.lam_pow_k


def build_body(spec) -> ConvexBody:
    """Body for B^0(N; delta)'s lift: c_0 = N/10, c_i = delta_i/10."""
    deltas = spec.delta_fractions()
    c = (Q(spec.N, 10),) + tuple(d / 10 for d in deltas)
    lam_pow_k = Q(spec.N)
    for d in deltas:
        lam_pow_k *= d
    body = ConvexBody(spec.alpha, c, lam_pow_k)
    if body.vol_s() != Q(1, 5**body.k):
        raise ConstructionError("volume identity violated")  # unreachable by algebra
    return body


# -- R-gauge m(v) as certified rational intervals -------------------------


@dataclass
class GaugeVal:
    vec: tuple[int, ...]
    lo: Fraction
    hi: Fraction
    exact: Optional[Fraction]


def gauge_interval(body: ConvexBody, vec, extra: int = 0) -> GaugeVal:
    """m(v) = max(|v_1|/c_0, |alpha_i v_1 - v_{1+i}|/c_i) as an interval."""
    vec = tuple(int(x) for x in vec)
    v0 = vec[0]
    t0 = Q(abs(v0)) / body.c[0]
    los, his, exs = [t0], [t0], [t0]
    for i, a in enumerate(body.alpha.alphas):
        if extra:
            a = a.refined(a.scale + extra)
        aex = a.exact()
        if aex is not None:
            e = abs(aex * v0 - vec[1 + i]) / body.c[1 + i]
            los.append(e)
            his.append(e)
            exs.append(e)
            continue
        L = a.mul_int(v0)
        man = abs(Q(L.man - (vec[1 + i] << L.scale)))
        lo = max(man - L.err, Q(0)) / (1 << L.scale) / body.c[1 + i]
        hi = (man + L.err) / (1 << L.scale) / body.c[1 + i]
        los.append(lo)
        his.append(hi)
        exs.append(None)
    lo, hi = max(los), max(his)
    exact = None
    for j, e in enumerate(exs):
        if e is not None and all(e >= his[t] for t in range(len(his)) if t != j):
            exact = e  # an exact term decisively dominates
            lo = hi = e
            break
    if exact is None and all(e is not None for e in exs):
        exact = max(exs)
        lo = hi = exact
    return GaugeVal(vec, lo, hi, exact)


def _mid_fixed(scale: int, lo: Fraction, hi: Fraction) -> FixedReal:
    man = round((lo + hi) / 2 * (1 << scale))
    err = (hi - lo) / 2 * (1 << scale) + 1
    return FixedReal(man, scale, err, None)


def gauge(body: ConvexBody, vec) -> FixedReal:
    """g_S(v) = lambda * m(v) as a FixedReal with certified error bounds."""
    if all(int(x) == 0 for x in vec):
        raise ValidationError("gauge of the zero vector")
    m = gauge_interval(body, vec)
    llo, lhi = body.lam().bounds()
    return _mid_fixed(body.alpha.scale, llo * m.lo, lhi * m.hi)


def _gauge_le(body: ConvexBody, vec, bound: Fraction) -> bool:
    """Certified m(v) <= bound (non-strict)."""

    def step(extra):
        m = gauge_interval(body, vec, extra)
        if m.exact is not None:
            return m.exact <= bound
        if m.hi <= bound:
            return True
        if m.lo > bound:
            return False
        return UNDECIDED

    return certify(step, "gauge vs bound undecidable at {}", vec)


def _gauge_cmp(body: ConvexBody, u: GaugeVal, v: GaugeVal) -> int:
    """Certified sign of m(u) - m(v); exact ties return 0."""

    def step(extra):
        a, b = u, v
        if extra:
            a = gauge_interval(body, u.vec, extra)
            b = gauge_interval(body, v.vec, extra)
        if a.exact is not None and b.exact is not None:
            d = a.exact - b.exact
            return 0 if d == 0 else (1 if d > 0 else -1)
        if a.hi < b.lo:
            return -1
        if a.lo > b.hi:
            return 1
        return UNDECIDED

    return certify(step, "gauge order undecidable between {} and {}", u.vec, v.vec)


# -- integer linear algebra (k <= 6) --------------------------------------


def _int_det(rows: list) -> int:
    """Bareiss fraction-free determinant of a square integer matrix."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
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


def _rank_int(rows: list) -> int:
    m = [[Q(int(x)) for x in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _extendable(rows: list, k: int) -> bool:
    """rows (i x k, independent) extend to a basis of Z^k iff the gcd of all
    i x i minors is 1 (Smith invariants all 1)."""
    i = len(rows)
    g = 0
    for cols in combinations(range(k), i):
        sub = [[r[c] for c in cols] for r in rows]
        g = math.gcd(g, abs(_int_det(sub)))
        if g == 1:
            return True
    return g == 1


# -- enumeration -----------------------------------------------------------


def _float_lll(basis: list[list[float]]) -> list[list[int]]:
    """Plain LLL on float vectors; returns the integer transform rows.

    Only used to suggest an enumeration radius, so numerical slop is harmless.
    """
    b = [np.array(v, dtype=float) for v in basis]
    n = len(b)
    z = [np.eye(n, dtype=np.int64)[i].copy() for i in range(n)]

    def gso():
        star, mu = [], np.zeros((n, n))
        for i in range(n):
            v = b[i].copy()
            for j in range(i):
                den = float(star[j] @ star[j])
                mu[i, j] = float(b[i] @ star[j]) / den if den else 0.0
                v = v - mu[i, j] * star[j]
            star.append(v)
        return star, mu

    star, mu = gso()
    i = 1
    guard = 0
    while i < n and guard < 1000:
        guard += 1
        for j in range(i - 1, -1, -1):
            q = round(mu[i, j])
            if q:
                b[i] = b[i] - q * b[j]
                z[i] = z[i] - q * z[j]
                star, mu = gso()
        if star[i] @ star[i] >= (0.75 - mu[i, i - 1] ** 2) * (star[i - 1] @ star[i - 1]):
            i += 1
        else:
            b[i], b[i - 1] = b[i - 1], b[i]
            z[i], z[i - 1] = z[i - 1], z[i]
            star, mu = gso()
            i = max(i - 1, 1)
    return [[int(x) for x in row] for row in z]


def _suggest_radius(body: ConvexBody) -> Fraction:
    """Certified upper bound for lambda_k/lambda: max gauge of k independent vectors."""
    k = body.k
    mat = []
    for j in range(k):
        v = [0] * k
        v[j] = 1
        y = [float(Q(v[0]) / body.c[0])]
        for i, a in enumerate(body.alpha.alphas):
            y.append((a.value() * v[0] - v[1 + i]) / float(body.c[1 + i]))
        mat.append(y)
    try:
        zrows = _float_lll(mat)
    except Exception:
        zrows = [list(r) for r in np.eye(k, dtype=int)]
    if abs(_int_det(zrows)) != 1:
        zrows = [list(r) for r in np.eye(k, dtype=int)]
    best = Q(0)
    for zr in zrows:
        m = gauge_interval(body, zr)
        best = max(best, m.exact if m.exact is not None else m.hi)
    return best


def _tail_ranges(body: ConvexBody, v0: int, bound: Fraction) -> list[range]:
    """Conservative integer windows for a_i given v0; exact filter comes later."""
    out = []
    for i, a in enumerate(body.alpha.alphas):
        L = a.mul_int(v0)
        w = bound * body.c[1 + i]
        lo = (Q(L.man) - L.err) / (1 << L.scale) - w
        hi = (Q(L.man) + L.err) / (1 << L.scale) + w
        out.append(range(math.ceil(lo), math.floor(hi) + 1))
    return out


def enumerate_gauge_ball(body: ConvexBody, bound: Fraction, budget: int = 2 * 10**6) -> list[GaugeVal]:
    """All canonical-sign nonzero v with m(v) <= bound, certified per vector.

    Canonical sign: first nonzero coordinate positive (m(-v) = m(v)).  Large
    first-coordinate spans are prefiltered with the vectorized distance scan:
    a tail candidate exists only where ||alpha_i v_1|| clears the window.
    """
    k = body.k
    out = []
    v0_hi = math.floor(bound * body.c[0])
    if v0_hi >= 1 << 31:
        raise BudgetExceeded("enumeration span exceeds the 31-bit scan limit")
    tested = 0

    def consider(v0: int) -> None:
        nonlocal tested
        ranges = _tail_ranges(body, v0, bound)
        size = 1
        for r in ranges:
            size *= len(r)
        tested += size
        if tested > budget:
            raise BudgetExceeded(f"gauge ball enumeration exceeds {budget} candidates")
        for tail in product(*ranges):
            vec = (v0,) + tail
            if v0 == 0:
                nz = next((x for x in tail if x != 0), None)
                if nz is None or nz < 0:
                    continue
            if _gauge_le(body, vec, bound):
                out.append(gauge_interval(body, vec))

    consider(0)
    if v0_hi >= 5000 and body.alpha.scale % 64 == 0:
        coords = [CoordScan(a) for a in body.alpha.alphas]
        tspecs = [
            ThresholdSpec.for_fraction(c, min(bound * ci, Q(1, 2)), v0_hi)
            for c, ci in zip(coords, body.c[1:])
        ]
        for v0 in members_in_range(coords, tspecs, 1, v0_hi):
            consider(int(v0))
    else:
        for v0 in range(1, v0_hi + 1):
            consider(v0)
    return out


@dataclass
class MinimaResult:
    body: ConvexBody
    lambdas: list[FixedReal]  # lambda * m_i
    minima_vectors: list[tuple[int, ...]]
    basis: list[tuple[int, ...]]
    basis_gauges: list[FixedReal]
    det_sign: int
    minima_m: list[GaugeVal]  # R-gauge intervals of the attaining vectors
    basis_m: list[GaugeVal]  # R-gauge intervals of the basis vectors

    def to_dict(self) -> dict:
        return {
            "k": self.body.k,
            "lambdas": [x.decimal(12) for x in self.lambdas],
            "minima_vectors": [list(v) for v in self.minima_vectors],
            "basis": [list(v) for v in self.basis],
            "basis_gauges": [x.decimal(12) for x in self.basis_gauges],
            "det_sign": self.det_sign,
            "vol_s": str(self.body.vol_s()),
            "lambda_pow_k": str(self.body.lam_pow_k),
        }


def _scaled_fixed(body: ConvexBody, m: GaugeVal) -> FixedReal:
    llo, lhi = body.lam().bounds()
    return _mid_fixed(body.alpha.scale, llo * m.lo, lhi * m.hi)


def _pick_smallest(body: ConvexBody, pool: list[GaugeVal], accepts) -> GaugeVal:
    """Smallest-gauge pool entry passing `accepts`, lexicographic tie-break."""
    best = None
    for cand in pool:
        if best is not None and cand.lo > best.hi:
            continue
        if not accepts(cand):
            continue
        if best is None:
            best = cand
            continue
        c = _gauge_cmp(body, cand, best)
        if c < 0 or (c == 0 and cand.vec < best.vec):
            best = cand
    if best is None:
        raise ConstructionError("no admissible vector in the enumeration ball")
    return best


def _band_check(body: ConvexBody, minima_m: list[GaugeVal]) -> None:
    """2^k/k! <= prod(lambda_i) * vol(S) <= 2^k, certified."""
    k = body.k
    lo_band = Q(2**k, math.factorial(k))
    hi_band = Q(2**k)
    vol = body.vol_s() * body.lam_pow_k  # lambda^k * vol(S), exact

    def step(extra):
        cur = minima_m if extra == 0 else [gauge_interval(body, g.vec, extra) for g in minima_m]
        if all(g.exact is not None for g in cur):
            prod = Q(1)
            for g in cur:
                prod *= g.exact
            if lo_band <= prod * vol <= hi_band:
                return True
            raise MinimaDegenerate("successive minima outside the Minkowski band")
        plo, phi = Q(1), Q(1)
        for g in cur:
            plo *= g.lo
            phi *= g.hi
        if plo * vol >= lo_band and phi * vol <= hi_band:
            return True
        if phi * vol < lo_band or plo * vol > hi_band:
            raise MinimaDegenerate("successive minima outside the Minkowski band")
        return UNDECIDED

    certify(step, "Minkowski band check undecidable")


def successive_minima(body: ConvexBody, budget: int = 2 * 10**6) -> MinimaResult:
    """Exact lambda_1..lambda_k, attaining vectors, and a unimodular basis.

    The basis is greedy: v_i is the smallest-gauge vector extending v_1..v_{i-1}
    to a basis of Z^k, so basis_gauges[i] >= lambda_i with equality whenever the
    attaining vectors themselves form a basis.
    """
    k = body.k
    if k > 6:
        raise ValidationError("certified minima supported for k <= 6 only")
    radius = _suggest_radius(body)
    pool = enumerate_gauge_ball(body, radius, budget)
    pool.sort(key=lambda g: (float(g.lo), g.vec))

    chosen: list[GaugeVal] = []

    def increases_rank(cand: GaugeVal) -> bool:
        rows = [list(g.vec) for g in chosen] + [list(cand.vec)]
        return _rank_int(rows) == len(rows)

    for _ in range(k):
        chosen.append(_pick_smallest(body, pool, increases_rank))
    minima_m = chosen

    basis_m: list[GaugeVal] = []
    attempt_pool = pool
    attempt_radius = radius
    for _ in range(k):

        def extends(cand: GaugeVal) -> bool:
            rows = [list(g.vec) for g in basis_m] + [list(cand.vec)]
            if _rank_int(rows) != len(rows):
                return False
            return _extendable(rows, k)

        for _attempt in range(4):
            try:
                basis_m.append(_pick_smallest(body, attempt_pool, extends))
                break
            except ConstructionError:
                attempt_radius *= 2
                attempt_pool = enumerate_gauge_ball(body, attempt_radius, budget)
                attempt_pool.sort(key=lambda g: (float(g.lo), g.vec))
        else:
            raise ConstructionError("basis completion failed within the radius cap")

    det = _int_det([list(g.vec) for g in basis_m])
    if abs(det) != 1:
        raise ConstructionError("completed basis is not unimodular")  # unreachable

    _band_check(body, minima_m)

    return MinimaResult(
        body=body,
        lambdas=[_scaled_fixed(body, g) for g in minima_m],
        minima_vectors=[g.vec for g in minima_m],
        basis=[g.vec for g in basis_m],
        basis_gauges=[_scaled_fixed(body, g) for g in basis_m],
        det_sign=1 if det > 0 else -1,
        minima_m=minima_m,
        basis_m=basis_m,
    )
