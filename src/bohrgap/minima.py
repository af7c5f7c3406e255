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
from functools import cached_property
from itertools import product
from typing import Optional

import numpy as np

from .errors import (
    BudgetExceeded,
    ConstructionError,
    MinimaDegenerate,
    ValidationError,
)
from .exponents import TargetVector
from .lattice import det, echelon, extendable, independent
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

    @cached_property
    def _frames(self) -> dict:
        return {}

    def frame(self, extra: int = 0) -> "GaugeFrame":
        """Integer gauge weights at +extra bits, built once per depth."""
        f = self._frames.get(extra)
        if f is None:
            f = self._frames[extra] = GaugeFrame(self, extra)
        return f

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


# -- R-gauge m(v) as certified integer keys --------------------------------


class GaugeFrame:
    """Integer weights that put every term of m(v) over one denominator D.

    Built once per body and escalation depth.  The first term is |v_1|*w0;
    an exactly rational alpha_i = a/b gives |a*v_1 - b*v_{1+i}|*W; a
    fixed-point alpha_i = (M +- E)/2^s with E = en/ed gives the bracket
    (|M*v_1 - v_{1+i}*2^s|*ed -+ en*|v_1|)*W.  D is the lcm that makes every
    weight an integer, so D*m(v) is bracketed by Python ints without any
    rounding: the bracket is exactly D times the rational interval.
    """

    __slots__ = ("den", "w0", "exact_terms", "fixed_terms")

    def __init__(self, body: "ConvexBody", extra: int):
        c0 = body.c[0]
        exact_terms, fixed_terms, needs = [], [], [c0.numerator]
        for i, a in enumerate(body.alpha.alphas, start=1):
            if extra:
                a = a.refined(a.scale + extra)
            ci = body.c[i]
            aex = a.exact()
            if aex is not None:
                exact_terms.append((i, aex.numerator, aex.denominator, ci))
                needs.append(aex.denominator * ci.numerator)
            else:
                err = Q(a.err)
                fixed_terms.append((i, a.man, a.scale, err, ci))
                needs.append((ci.numerator * err.denominator) << a.scale)
        den = math.lcm(*needs)
        self.den = den
        self.w0 = den * c0.denominator // c0.numerator
        self.exact_terms = tuple(
            (i, an, ad, den * ci.denominator // (ad * ci.numerator)) for i, an, ad, ci in exact_terms
        )
        self.fixed_terms = tuple(
            (i, man, s, err.denominator, err.numerator,
             den * ci.denominator // ((ci.numerator * err.denominator) << s))
            for i, man, s, err, ci in fixed_terms
        )  # fmt: skip

    def key(self, vec: tuple[int, ...]) -> "GaugeVal":
        v0 = vec[0]
        a0 = abs(v0)
        ex = a0 * self.w0
        for i, an, ad, w in self.exact_terms:
            e = abs(an * v0 - ad * vec[i]) * w
            if e > ex:
                ex = e
        ilo = ihi = -1  # a negative lower end is clamped by ex >= 0 below
        for i, man, s, ed, en, w in self.fixed_terms:
            r = abs(man * v0 - (vec[i] << s)) * ed
            slack = en * a0
            ilo = max(ilo, (r - slack) * w)
            ihi = max(ihi, (r + slack) * w)
        if ihi <= ex:  # an exact term dominates every open one
            return GaugeVal(vec, ex, ex, ex, self.den)
        return GaugeVal(vec, max(ex, ilo), ihi, None, self.den)

    def bound_key(self, bound: Fraction) -> int:
        """floor(D*bound): an integer key is <= D*bound iff it is <= this."""
        return bound.numerator * self.den // bound.denominator


class GaugeVal:
    """m(vec) over its frame's denominator D: D*m(v) lies in [klo, khi], and
    kex = D*m(v) whenever m(v) is known exactly.

    lo, hi and exact are the same bounds as rationals, built on demand.
    """

    __slots__ = ("vec", "klo", "khi", "kex", "den")

    def __init__(self, vec: tuple[int, ...], klo: int, khi: int, kex: Optional[int], den: int):
        self.vec = vec
        self.klo = klo
        self.khi = khi
        self.kex = kex
        self.den = den

    @property
    def lo(self) -> Fraction:
        return Q(self.klo, self.den)

    @property
    def hi(self) -> Fraction:
        return Q(self.khi, self.den)

    @property
    def exact(self) -> Optional[Fraction]:
        return None if self.kex is None else Q(self.kex, self.den)

    def __repr__(self) -> str:
        return f"GaugeVal(vec={self.vec}, lo={self.lo}, hi={self.hi}, exact={self.exact})"


def gauge_interval(body: ConvexBody, vec, extra: int = 0) -> GaugeVal:
    """m(v) = max(|v_1|/c_0, |alpha_i v_1 - v_{1+i}|/c_i) as an interval."""
    return body.frame(extra).key(tuple(int(x) for x in vec))


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


def _key_le(m: GaugeVal, bnd: int):
    """m(v) <= bound from the keys, where bnd = floor(D*bound)."""
    if m.kex is not None:
        return m.kex <= bnd
    if m.khi <= bnd:
        return True
    if m.klo > bnd:
        return False
    return UNDECIDED


def _gauge_le(body: ConvexBody, vec, bound: Fraction) -> bool:
    """Certified m(v) <= bound (non-strict)."""

    def step(extra):
        f = body.frame(extra)
        return _key_le(f.key(vec), f.bound_key(bound))

    return certify(step, "gauge vs bound undecidable at {}", vec)


def _gauge_cmp(body: ConvexBody, u: GaugeVal, v: GaugeVal) -> int:
    """Certified sign of m(u) - m(v); exact ties return 0."""

    def step(extra):
        a, b = u, v
        if extra:
            f = body.frame(extra)
            a, b = f.key(u.vec), f.key(v.vec)
        if a.kex is not None and b.kex is not None:
            return (a.kex > b.kex) - (a.kex < b.kex)
        if a.khi < b.klo:
            return -1
        if a.klo > b.khi:
            return 1
        return UNDECIDED

    return certify(step, "gauge order undecidable between {} and {}", u.vec, v.vec)


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
    if abs(det(zrows)) != 1:
        zrows = [list(r) for r in np.eye(k, dtype=int)]
    best = Q(0)
    for zr in zrows:
        m = gauge_interval(body, zr)
        best = max(best, m.exact if m.exact is not None else m.hi)
    return best


def _tail_windows(body: ConvexBody, bound: Fraction) -> list[tuple[int, int, int, int]]:
    """Per coordinate (slope, slack, offset, den): given v_1 >= 0, the tail
    v_{1+i} runs over ceil((slope*v_1 - slack*v_1 - offset)/den) ..
    floor((slope*v_1 + slack*v_1 + offset)/den).

    Exact for a rational alpha_i (the window is {t : |alpha_i v_1 - t| <=
    bound*c_i}); a fixed-point alpha_i widens it by its error, and the exact
    filter decides.
    """
    out = []
    for a, ci in zip(body.alpha.alphas, body.c[1:]):
        w = bound * ci
        wn, wd = w.numerator, w.denominator
        aex = a.exact()
        if aex is not None:
            an, ad = aex.numerator, aex.denominator
            out.append((an * wd, 0, ad * wn, ad * wd))
        else:
            err = Q(a.err)
            en, ed = err.numerator, err.denominator
            out.append((a.man * ed * wd, en * wd, (wn * ed) << a.scale, (ed * wd) << a.scale))
    return out


def enumerate_gauge_ball(body: ConvexBody, bound: Fraction, budget: int = 2 * 10**6) -> list[GaugeVal]:
    """All canonical-sign nonzero v with m(v) <= bound, certified per vector.

    Canonical sign: first nonzero coordinate positive (m(-v) = m(v)).  Large
    first-coordinate spans are prefiltered with the vectorized distance scan:
    a tail candidate exists only where ||alpha_i v_1|| clears the window.
    Each vector's gauge is evaluated once, at depth 0; only an undecided
    comparison with the bound escalates.
    """
    out = []
    v0_hi = math.floor(bound * body.c[0])
    frame = body.frame()
    key = frame.key
    bnd = frame.bound_key(bound)
    windows = _tail_windows(body, bound)
    tested = 0

    def consider(v0: int) -> None:
        nonlocal tested
        ranges = []
        size = 1
        for slope, slack, off, den in windows:
            c, e = slope * v0, slack * v0 + off
            r = range(-((e - c) // den), (c + e) // den + 1)
            size *= len(r)
            ranges.append(r)
        tested += size
        if tested > budget:
            raise BudgetExceeded(f"gauge ball enumeration exceeds {budget} candidates")
        for tail in product(*ranges):
            vec = (v0,) + tail
            if v0 == 0:
                nz = next((x for x in tail if x != 0), None)
                if nz is None or nz < 0:
                    continue
            g = key(vec)
            ok = _key_le(g, bnd)
            if ok is UNDECIDED:
                ok = _gauge_le(body, vec, bound)
            if ok:
                out.append(g)

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


def _sorted_ball(body: ConvexBody, bound: Fraction, budget: int) -> list[GaugeVal]:
    """The gauge ball in increasing (D*lo, vec) order, as _pick_smallest needs."""
    pool = enumerate_gauge_ball(body, bound, budget)
    pool.sort(key=lambda g: (g.klo, g.vec))
    return pool


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
    """Smallest-gauge pool entry passing `accepts`, lexicographic tie-break.

    The pool is sorted by (klo, vec), so once an entry's lower end passes
    best.hi no later entry can be smaller or tie; once it reaches an exact
    best, later entries can at most tie with a larger vec.
    """
    best = None
    for cand in pool:
        if best is not None and (cand.klo > best.khi or (cand.klo == best.khi and best.kex is not None)):
            break
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
    pool = _sorted_ball(body, radius, budget)

    minima_m: list[GaugeVal] = []
    for _ in range(k):
        ech = echelon([g.vec for g in minima_m])
        minima_m.append(_pick_smallest(body, pool, lambda cand: independent(ech, cand.vec)))

    basis_m: list[GaugeVal] = []
    attempt_pool = pool
    attempt_radius = radius
    for _ in range(k):
        rows = [g.vec for g in basis_m]
        ech = echelon(rows)

        def extends(cand: GaugeVal) -> bool:
            return independent(ech, cand.vec) and extendable(rows + [cand.vec], k)

        for _attempt in range(4):
            try:
                basis_m.append(_pick_smallest(body, attempt_pool, extends))
                break
            except ConstructionError:
                attempt_radius *= 2
                attempt_pool = _sorted_ball(body, attempt_radius, budget)
        else:
            raise ConstructionError("basis completion failed within the radius cap")

    d = det([list(g.vec) for g in basis_m])
    if abs(d) != 1:
        raise ConstructionError("completed basis is not unimodular")  # unreachable

    _band_check(body, minima_m)

    return MinimaResult(
        body=body,
        lambdas=[_scaled_fixed(body, g) for g in minima_m],
        minima_vectors=[g.vec for g in minima_m],
        basis=[g.vec for g in basis_m],
        basis_gauges=[_scaled_fixed(body, g) for g in basis_m],
        det_sign=1 if d > 0 else -1,
        minima_m=minima_m,
        basis_m=basis_m,
    )
