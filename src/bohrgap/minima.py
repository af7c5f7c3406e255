"""Gauge norms and certified successive minima of the scan region's convex body.

The region R = {|x_1| <= c_0, |alpha_i x_1 - x_{1+i}| <= c_i} is renormalized
to S = R/lambda with lambda^k held exactly as a rational.  Since lambda is a
fixed positive constant, every comparison of gauges runs on the R-gauge
m(v) = max_i |L_i(v)|/c_i; lambda re-enters only in reported values.  Minima
are certified by exact enumeration: integral LLL reduces Z^k under the sum of
squares of the integer forms behind the gauge keys, the sup-norm gauge ball
sits inside an ellipsoid of that form, and one depth-first Schnorr-Euchner
walk per pick visits every line x*b_0 + r of the ellipsoid, settling each
line's minimum in closed form.  With a fixed radius the same walk gives a
gauge ball as lines with exact ends (ball_lines).  Nothing rests on floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import (
    ConstructionError,
    MinimaDegenerate,
    PrecisionExhausted,
    ValidationError,
)
from .lattice import ReducedLattice, det, echelon, extendable, independent, line_cut, spender
from .realfield import UNDECIDED, FixedReal, TargetVector, _round_half_even, certify, fr_root_rational

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

    def lam(self) -> FixedReal:
        return fr_root_rational(self.lam_pow_k, self.k, self.alpha.scale)

    @cached_property
    def lam_ends(self) -> tuple[int, int]:
        """lambda's integer ends man -+ err over 2^scale, computed once per body."""
        lam = self.lam()
        return lam.man - int(lam.err), lam.man + int(lam.err)

    @cached_property
    def frame(self) -> "_Frames":
        """frame(extra=0, terms=None): the GaugeFrame at +extra bits over the terms in terms (all when None)."""
        return _Frames(self.alpha, self.c)

    @cached_property
    def reduced(self) -> "_Reduced":
        """The integral-LLL basis under the depth-0 forms, built once."""
        return _Reduced(self)

    @property
    def c_prod(self) -> tuple[int, int]:
        """prod(c_i) as an unreduced fraction (num, den)."""
        return math.prod(ci.numerator for ci in self.c), math.prod(ci.denominator for ci in self.c)

    def _vol_s_terms(self) -> tuple[int, int]:
        """vol_s() as an unreduced fraction (num, den)."""
        cn, cd = self.c_prod
        return (cn * self.lam_pow_k.denominator) << self.k, cd * self.lam_pow_k.numerator

    def vol_s(self) -> Fraction:
        """vol(S) = 2^k * prod(c_i) / lambda^k; equals 5^-k for spec-built bodies."""
        return Q(*self._vol_s_terms())


def build_body(spec) -> ConvexBody:
    """Body for B^0(N; delta)'s lift: c_0 = N/10, c_i = delta_i/10."""
    deltas = spec.delta
    c = (Q(spec.N, 10),) + tuple(d / 10 for d in deltas)
    lam_pow_k = Q(spec.N * math.prod(d.numerator for d in deltas), math.prod(d.denominator for d in deltas))
    body = ConvexBody(spec.alpha, c, lam_pow_k)
    num, den = body._vol_s_terms()
    if num * 5**body.k != den:
        raise ConstructionError("volume identity violated")  # unreachable by algebra
    return body


# -- R-gauge m(v) as certified integer keys --------------------------------


class _Frames:
    """A body's GaugeFrames, built once per (extra, terms).  It holds alpha and c,
    not the body, so the _Reduced cached on the body keeps it with no cycle."""

    __slots__ = ("alpha", "c", "built")

    def __init__(self, alpha: TargetVector, c: tuple[Fraction, ...]):
        self.alpha, self.c, self.built = alpha, c, {}

    def __call__(self, extra: int = 0, terms: Optional[frozenset] = None) -> "GaugeFrame":
        f = self.built.get((extra, terms))
        if f is None:
            f = GaugeFrame(self.alpha, self.c, extra) if terms is None else self(extra).restricted(terms)
            self.built[extra, terms] = f
        return f


class GaugeFrame:
    """Integer linear forms that put every term of m(v) over one denominator D.

    Built once per body and escalation depth.  Each form (i, c, d, e) is
    l_i(v) = c*v_1 + d*v_{1+i} with slack e: term 0 is (0, w0, 0, 0); an
    exactly rational alpha_i = a/b gives (i, a*W, -b*W, 0); a fixed-point
    alpha_i = (M +- E)/2^s with E = en/ed gives (i, M*ed*W, -2^s*ed*W, en*W).
    D*m(v) lies within e_i*|v_1| of max_i |l_i(v)|.  D is the lcm that makes
    every weight an integer, so D*m(v) is bracketed by Python ints without any
    rounding: the bracket is exactly D times the rational interval.
    """

    __slots__ = ("den", "forms")

    def __init__(self, alpha: TargetVector, bounds: tuple[Fraction, ...], extra: int):
        c0 = bounds[0]
        terms = []  # (i, c, d, e) before the weight W = D*cd/q
        for i, a in enumerate(alpha.alphas, start=1):
            if extra:
                a = a.refined(a.scale + extra)
            ci = bounds[i]
            aex = a.exact()
            if aex is not None:
                c, d, e, q = aex.numerator, -aex.denominator, 0, aex.denominator * ci.numerator
            else:
                err = Q(a.err)
                c, d, e = a.man * err.denominator, -(err.denominator << a.scale), err.numerator
                q = (ci.numerator * err.denominator) << a.scale
            terms.append((i, c, d, e, ci.denominator, q))
        den = self.den = math.lcm(c0.numerator, *(t[5] for t in terms))
        forms = [(0, den * c0.denominator // c0.numerator, 0, 0)]
        for i, c, d, e, cd, q in terms:
            w = den * cd // q
            forms.append((i, c * w, d * w, e * w))
        self.forms = tuple(forms)

    def key(self, vec: tuple[int, ...]) -> "GaugeVal":
        v0 = vec[0]
        a0 = abs(v0)
        ex = 0
        lo = hi = -1  # a negative lower end is clamped by ex >= 0 below
        for i, c, d, e in self.forms:
            t = abs(c * v0 + d * vec[i])
            if e:
                s = e * a0
                if t - s > lo:
                    lo = t - s
                if t + s > hi:
                    hi = t + s
            elif t > ex:
                ex = t
        if hi <= ex:  # an exact term dominates every open one
            return GaugeVal(vec, ex, ex, ex, self.den)
        return GaugeVal(vec, max(ex, lo), hi, None, self.den)

    def restricted(self, keep) -> "GaugeFrame":
        """This frame over the terms in keep only (0 is the |v_1| term)."""
        f = object.__new__(GaugeFrame)
        f.den, f.forms = self.den, tuple(t for t in self.forms if t[0] in keep)
        return f

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


def _scaled_fixed(body: ConvexBody, m: GaugeVal) -> FixedReal:
    """lambda * m(v) from the integer ends: [llo*klo, lhi*khi]/(D*2^s) gives
    the mantissa its midpoint rounded half-even and err its half-width
    plus one ulp."""
    llo, lhi = body.lam_ends
    a, b, den = llo * m.klo, lhi * m.khi, 2 * m.den
    return FixedReal(_round_half_even(a + b, den), body.alpha.scale, Q(b - a + den, den), None)


def gauge(body: ConvexBody, vec) -> FixedReal:
    """g_S(v) = lambda * m(v) as a FixedReal with certified error bounds."""
    if all(int(x) == 0 for x in vec):
        raise ValidationError("gauge of the zero vector")
    return _scaled_fixed(body, gauge_interval(body, vec))


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


def _key_cmp(frame_u, frame_v, u: GaugeVal, v: GaugeVal) -> int:
    """Certified sign of key(u) - key(v), re-keyed under frame_u(extra) and
    frame_v(extra) while open; exact ties (two point brackets) return 0.
    The keys in hand settle it without certify unless their brackets overlap."""

    def step(extra):
        a, b = (frame_u(extra).key(u.vec), frame_v(extra).key(v.vec)) if extra else (u, v)
        if a.klo == a.khi and b.klo == b.khi:
            return (a.klo > b.klo) - (a.klo < b.klo)
        if a.khi < b.klo:
            return -1
        if a.klo > b.khi:
            return 1
        return UNDECIDED

    c = step(0)
    return certify(step, "gauge order undecidable between {} and {}", u.vec, v.vec) if c is UNDECIDED else c


def _before(body: ConvexBody, u: GaugeVal, v: GaugeVal) -> bool:
    """(m(u), u) < (m(v), v): smaller gauge, exact ties to the smaller vector."""
    c = _key_cmp(body.frame, body.frame, u, v)
    return c < 0 or (c == 0 and u.vec < v.vec)


# -- enumeration on an integral-LLL basis ------------------------------------


class _Reduced:
    """Z^k reduced under Q(v) = sum_i l_i(v)^2 for the depth-0 forms of key().

    A vector with lower key klo <= B has |l_0(v)| = w0|v_1| <= B and
    |l_i(v)| <= B + e_i|v_1| <= B (w0 + e_i)/w0, so it lies in the ellipsoid
    w0^2 Q(v) <= B^2 * spread, spread = sum_i (w0 + e_i)^2; limit(B) is that
    radius for ReducedLattice.walk.

    Along the innermost direction b each form has slope l(b).  A term is
    constant on every line x*b + r when its slope is 0 and, if it has slack,
    b_1 = 0 as well; the other terms vary.
    """

    def __init__(self, body: ConvexBody):
        k, forms = body.k, body.frame().forms
        gram = [[0] * k for _ in range(k)]
        for i, c, d, _ in forms:  # (c*v_1 + d*v_{1+i})^2, term by term
            gram[0][0] += c * c
            gram[0][i] += c * d
            gram[i][0] += c * d
            gram[i][i] += d * d
        self.lattice = ReducedLattice([[int(i == j) for j in range(k)] for i in range(k)], gram)
        w0 = self.w0 = forms[0][1]
        self.spread = sum((w0 + e) ** 2 for *_, e in forms)
        self.w0sq = w0**2
        b = self.b = self.lattice.basis[0]
        # per form: (term, c, d, slack, slope l(b))
        self.forms = [(i, c, d, e, c * b[0] + d * b[i]) for i, c, d, e in forms]
        self.all = frozenset(range(k))
        self.const = frozenset(i for i, _, _, e, slope in self.forms if slope == 0 and (e == 0 or b[0] == 0))
        self.vary = self.all - self.const
        self.frame = body.frame
        self._cuts: dict = {}

    def limit(self, bound: int) -> tuple[int, int]:
        return bound * bound * self.spread, self.w0sq

    def section(self, r, terms: frozenset, bound: int, lo: int, hi: int) -> Optional[tuple[int, int]]:
        """The x in lo..hi where no term of terms forces klo(x*b + r) > bound.

        A form with slack e can exceed bound by at most e*|v_1| <=
        e*bound/w0 at such x, so |l(b)*x + l(r)| <= bound + ceil(e*bound/w0)
        is necessary; each form cuts an interval (line_cut).  None when the
        interval is empty.  The (form, slope, limit) of terms are built once
        per (terms, bound), so a line only forms l(r).
        """
        cuts = self._cuts.get((terms, bound))
        if cuts is None:
            cuts = self._cuts[terms, bound] = [
                (i, c, d, slope, bound - (-e * bound // self.w0)) for i, c, d, e, slope in self.forms if i in terms
            ]
        return line_cut(lo, hi, [(slope, c * r[0] + d * r[i], lim) for i, c, d, slope, lim in cuts])

    def vertex(self, r) -> Optional[int]:
        """floor of the real minimiser of max |l(b)*x + l(r)| over the forms
        with a slope (every constant term has none): each gives a rising line
        |l(b)|x + c and a falling one, and the maxima of the two families
        cross at min_i max_j of the pairwise crossings, whose floors commute
        with min and max."""
        lines = []
        for i, c, d, _, slope in self.forms:
            if slope:
                y = c * r[0] + d * r[i]
                lines.append((abs(slope), y if slope > 0 else -y))
        if not lines:
            return None
        return min(max((-ci - cj) // (ai + aj) for aj, cj in lines) for ai, ci in lines)

    def cmp(self, tu: frozenset, u: GaugeVal, tv: frozenset, v: GaugeVal) -> int:
        """Certified order of u keyed over the terms tu and v over tv."""
        return _key_cmp(lambda e: self.frame(e, tu), lambda e: self.frame(e, tv), u, v)


def _canon(v: tuple[int, ...]) -> tuple[int, ...]:
    """v or -v, whichever has its first nonzero coordinate positive."""
    for c in v:
        if c:
            return v if c > 0 else tuple(-t for t in v)
    return v


class _Line:
    """The family x*b + r in canonical sign, with memoized depth-0 keys.

    On the line m = max(K, h(x)): K from the constant terms, the same for
    every x, and h from the varying ones, each |affine| with a nonzero true
    slope, so h is convex without flat pieces.  The minimisers of m are the
    one or two minimisers of h when min h >= K, else the interval h <= K.
    Finding them compares h with h or with K, never two points that the
    constant terms alone tie.  Two points x, y placed symmetrically about
    the vertex of term 0 (b_1*(x + y) = -2*r_1) tie exactly in term 0 and in
    every fixed term whose vertex is the same point; h_cmp compares them on
    the remaining terms only.
    """

    __slots__ = ("red", "b", "r", "memo", "hmemo")

    def __init__(self, red: _Reduced, r):
        self.red, self.b, self.r = red, red.b, r
        self.memo, self.hmemo = {}, {}

    def vec(self, x: int) -> tuple[int, ...]:
        return _canon(tuple(x * p + q for p, q in zip(self.b, self.r)))

    def at(self, x: int) -> GaugeVal:
        g = self.memo.get(x)
        if g is None:
            g = self.memo[x] = self.red.frame().key(self.vec(x))
        return g

    def h(self, x: int) -> GaugeVal:
        g = self.hmemo.get(x)
        if g is None:
            g = self.hmemo[x] = self.red.frame(0, self.red.vary).key(self.vec(x))
        return g

    def h_cmp(self, x: int, y: int) -> int:
        """Certified sign of h(x) - h(y)."""
        red, b, r = self.red, self.b, self.r
        if not b[0] or b[0] * (x + y) != -2 * r[0]:
            return red.cmp(red.vary, self.h(x), red.vary, self.h(y))
        tied = frozenset(i for i in red.vary if b[0] * r[i] == r[0] * b[i])  # term 0 included
        rest = red.vary - tied
        if not rest:
            return 0
        part = red.frame(0, rest).key
        m, a, c = red.frame(0, tied).key(self.vec(x)), part(self.vec(x)), part(self.vec(y))
        ca, cc = red.cmp(rest, a, tied, m), red.cmp(rest, c, tied, m)
        if ca <= 0 and cc <= 0:  # the tied terms dominate both
            return 0
        if ca <= 0 or cc <= 0:
            return -1 if ca <= 0 else 1
        return red.cmp(rest, a, rest, c)

    def minimisers(self, lo: int, hi: int) -> tuple[int, int]:
        """[xa, xb]: every minimiser of m(x*b + r) on lo..hi, from certified
        signs that are monotone in x, searched outward from the closed-form
        minimiser and plateau ends of the depth-0 forms (exact when every
        term is)."""
        start = self.red.vertex(self.r)
        ha = _first(lambda x: self.h_cmp(x + 1, x) >= 0, lo, hi, (lo + hi) // 2 if start is None else start)
        hb = _first(lambda x: self.h_cmp(x + 1, x) > 0, ha, hi, ha)
        red = self.red
        if not red.const:
            return ha, hb
        kv = self.k_const()

        def below(x: int) -> bool:  # h(x) <= K
            return red.cmp(red.vary, self.h(x), red.const, kv) <= 0

        if not below(ha):
            return ha, hb
        est = red.section(self.r, red.vary, kv.khi, lo, hi) or (ha, hb)  # exact when h is
        return _first(below, lo, ha, est[0]), _first(lambda x: not below(x), hb, hi + 1, est[1] + 1) - 1

    def k_const(self) -> GaugeVal:
        """K: the key over the constant terms, the same at every x."""
        return self.red.frame(0, self.red.const).key(self.vec(0))

    def lex_order(self, xa: int, xb: int):
        """x in xa..xb in increasing lexicographic order of the canonical vector.

        Before b's first nonzero coordinate j the vectors agree.  If r has a
        nonzero coordinate there, the sign is fixed and the order is monotone
        in x.  Otherwise coordinate j of the canonical vector is
        |x*b_j + r_j|, which grows on both sides of -r_j/b_j, so the order
        merges two monotone runs.
        """
        b, r = self.b, self.r
        j = next(i for i, c in enumerate(b) if c)
        lead = next((c for c in r[:j] if c), 0)
        if lead:
            yield from (range(xa, xb + 1) if (lead > 0) == (b[j] > 0) else range(xb, xa - 1, -1))
            return
        p = -r[j] // b[j]  # floor of the sign change
        down, up = min(p, xb), max(p + 1, xa)
        while down >= xa or up <= xb:
            if up > xb or (down >= xa and self.vec(down) < self.vec(up)):
                yield down
                down -= 1
            else:
                yield up
                up += 1

    def pick(self, lo: int, hi: int, bound: int, accepts, spend) -> Optional[GaugeVal]:
        """Smallest (m(v), v) over canonical v = x*b + r, lo <= x <= hi, with
        accepts(v) and klo <= bound; accepts=None accepts every x.

        The minimisers come first in lexicographic order, then both sides
        outward; past the minimisers m = h rises strictly on each side.
        """
        cut = self.red.section(self.r, self.red.all, bound, lo, hi)
        if cut is None:
            return None
        lo, hi = cut
        xa, xb = self.minimisers(lo, hi)
        if self.at(xa).klo > bound:
            return None
        order = self.lex_order(xa, xb)
        if accepts is None:
            return self.at(next(order))
        for x in order:
            spend()
            if accepts(self.vec(x)):
                return self.at(x)
        left, right = xa - 1, xb + 1
        while left >= lo or right <= hi:
            spend()
            if right > hi:
                x = left
            elif left < lo:
                x = right
            else:
                c = self.h_cmp(left, right)
                x = left if c < 0 or (c == 0 and self.vec(left) < self.vec(right)) else right
            g = self.at(x)
            if g.klo > bound:
                return None
            if accepts(g.vec):
                return g
            if x == left:
                left -= 1
            else:
                right += 1
        return None


def _first(test, a: int, z: int, start: int) -> int:
    """Smallest x in a..z-1 with test(x) for a test that is false, then
    true, in x (z when it never holds), galloping outward from start."""
    if a >= z:
        return z
    s = min(max(start, a), z - 1)
    step = 1
    if test(s):
        bad, good = a - 1, s
        while good - step >= a:
            if not test(good - step):
                bad = good - step
                break
            good -= step
            step *= 2
    else:
        bad, good = s, z
        while bad + step < z:
            if test(bad + step):
                good = bad + step
                break
            bad += step
            step *= 2
    lo, hi = bad + 1, good
    while lo < hi:
        mid = (lo + hi) // 2
        if test(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _smallest(body: ConvexBody, ech, accepts, bound: int, spend) -> GaugeVal:
    """Smallest (m(v), v) over canonical v with accepts(v), given a certified
    upper bound D*m(v) <= bound for the answer.

    One Schnorr-Euchner walk whose radius is the best candidate's upper key:
    a subtree is pruned only when every vector in it has a lower key above
    that, so ties survive to the lexicographic rule.  accepts must be
    constant along x*b + r whenever b lies in the span that ech came from
    (independence and extendability both are), so each such line is decided
    by one call.  A candidate that no depth separates from the best is held
    back and compared again with the final best, so only a tie at the
    minimum itself raises PrecisionExhausted.
    """
    red = body.reduced
    steady = not independent(ech, red.b)
    best: Optional[GaugeVal] = None
    held: list[GaugeVal] = []
    limit = red.limit(bound)  # the walk's radius, from the best upper key

    def leaf(r, lo, hi):
        nonlocal best, limit
        if steady and not accepts(r):
            return
        cand = _Line(red, r).pick(lo, hi, bound if best is None else best.khi, None if steady else accepts, spend)
        if cand is None:
            return
        try:
            if best is not None and not _before(body, cand, best):
                return
        except PrecisionExhausted:
            held.append(cand)
            return
        best = cand
        limit = red.limit(best.khi)

    red.lattice.walk(lambda: limit, leaf, spend)
    if best is None:
        raise ConstructionError("no admissible vector inside the certified bound")  # unreachable
    for cand in held:
        if _before(body, cand, best):
            best = cand
    return best


def ball_lines(body: ConvexBody, bound: Fraction, spend, kept=None) -> list[tuple[tuple[int, ...], int, int]]:
    """The nonzero v with m(v) <= bound, up to sign, as lines of the walk:
    (r, lo, hi) with v = x*b + r exactly for x in lo..hi, b = body.reduced.b.

    The walk of successive_minima with a fixed radius covers half the
    lattice, so each such v lies on one line, once in v or -v.  m is convex,
    so on a line these x form one interval; section bounds it from outside,
    and each end steps inward while the depth-0 key rules the point out,
    escalating only an undecided key.  spend() is called per walk node,
    and kept(lo, hi), if given, on each line as it is found.
    """
    red, frame = body.reduced, body.frame()
    bnd, b, lines = frame.bound_key(bound), red.b, []

    def inside(r, x) -> bool:
        vec = tuple(x * p + q for p, q in zip(b, r))
        ok = _key_le(frame.key(vec), bnd)
        return _gauge_le(body, vec, bound) if ok is UNDECIDED else ok

    def leaf(r, lo, hi):
        cut = red.section(r, red.all, bnd, lo, hi)
        if cut is None:
            return
        lo, hi = cut
        while lo <= hi and not inside(r, lo):
            lo += 1
        while hi > lo and not inside(r, hi):
            hi -= 1
        if lo <= hi:
            lines.append((r, lo, hi))
            if kept is not None:
                kept(lo, hi)

    limit = red.limit(bnd)
    red.lattice.walk(lambda: limit, leaf, spend)
    return lines


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


def _band_check(body: ConvexBody, minima_m: list[GaugeVal]) -> None:
    """2^k/k! <= prod(lambda_i) * vol(S) = 2^k * prod(c_i) * prod(m_i) <= 2^k,
    certified on integers: with prod(c_i) = vn/vd and m_i = key_i/D_i,
    vn * prod(key_i) is compared with unit = vd * prod(D_i) and unit/k!."""
    vn, vd = body.c_prod
    fact = math.factorial(body.k)

    def step(extra):
        cur = minima_m if extra == 0 else [gauge_interval(body, g.vec, extra) for g in minima_m]
        unit = vd * math.prod(g.den for g in cur)
        if all(g.kex is not None for g in cur):
            p = vn * math.prod(g.kex for g in cur)
            if unit <= fact * p and p <= unit:
                return True
            raise MinimaDegenerate("successive minima outside the Minkowski band")
        plo, phi = vn * math.prod(g.klo for g in cur), vn * math.prod(g.khi for g in cur)
        if fact * plo >= unit and phi <= unit:
            return True
        if fact * phi < unit or plo > unit:
            raise MinimaDegenerate("successive minima outside the Minkowski band")
        return UNDECIDED

    certify(step, "Minkowski band check undecidable")


def successive_minima(body: ConvexBody, budget: int = 2 * 10**6) -> MinimaResult:
    """Exact lambda_1..lambda_k, attaining vectors, and a unimodular basis.

    Each pick is the smallest (m(v), v) over canonical v passing its test,
    found by one enumeration walk on the integral-LLL basis; budget caps the
    nodes visited over all picks.  The basis is greedy: v_i is the
    smallest-gauge vector extending v_1..v_{i-1} to a basis of Z^k, so
    basis_gauges[i] >= lambda_i with equality whenever the attaining vectors
    themselves form a basis.
    """
    k = body.k
    if k > 6:
        raise ValidationError("certified minima supported for k <= 6 only")
    spend = spender(budget, f"gauge ball enumeration exceeds {budget} candidates")
    basis = body.reduced.lattice.basis
    key = body.frame().key

    minima_m: list[GaugeVal] = []
    for _ in range(k):
        ech = echelon([g.vec for g in minima_m])

        def independent_of(v, ech=ech) -> bool:
            return independent(ech, v)

        bound = min(key(v).khi for v in basis if independent_of(v))
        minima_m.append(_smallest(body, ech, independent_of, bound, spend))

    basis_m: list[GaugeVal] = []
    for _ in range(k):
        rows = [g.vec for g in basis_m]
        ech = echelon(rows)

        def extends(v, ech=ech, rows=rows) -> bool:
            return independent(ech, v) and extendable(rows + [v], k)

        # the i-th minimum is the smallest vector outside the span of the
        # first i-1; when those are the rows and it extends them, it is also
        # the smallest extension
        i = len(rows)
        if rows == [g.vec for g in minima_m[:i]] and extends(minima_m[i].vec):
            basis_m.append(minima_m[i])
            continue
        # a minimum v outside the span of rows lies in the primitive lattice
        # rows + Zw; reducing w modulo rows gives an extension with
        # m <= m(v) + sum m(rows)/2
        v = next(g for g in minima_m if independent(ech, g.vec))
        bound = v.khi + (sum(g.khi for g in basis_m) + 1) // 2
        bound = min([bound] + [key(u).khi for u in basis if extends(u)])
        basis_m.append(_smallest(body, ech, extends, bound, spend))

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
