"""Exact vectorized evaluation of n -> ||n*alpha - gamma|| over integer ranges.

The distance numerator d(n) = round-trip of (n*Ma - Mg) mod 2^scale is computed
exactly in numpy via 32-bit limbs (products n*limb stay below 2^63), so block
scans over millions of n cost a handful of vector ops while remaining integer
arithmetic.  True distances differ from d(n)/2^scale by at most
E(n) = n*err_alpha + err_gamma mantissa units; thresholds are therefore split
into a definite-in bound, a definite-out bound, and a borderline band that is
re-decided exactly per element (escalating the scale through the constructor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .realfield import UNDECIDED, FixedReal, certify, cmp_fixed, cmp_pow, norm_form

BLOCK = 1 << 16
_M32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)

Q = Fraction


def _limbs(value: int, count: int) -> list[int]:
    return [(value >> (32 * j)) & 0xFFFFFFFF for j in range(count)]


class CoordScan:
    """Exact block scanner for one coordinate (alpha, gamma) at a fixed scale."""

    def __init__(self, alpha: FixedReal, gamma: Optional[FixedReal] = None, g_sign: int = 1):
        self.alpha = alpha
        self.gamma = gamma
        self.g_sign = 1 if g_sign >= 0 else -1
        s = alpha.scale
        if s % 64:
            raise ValueError("scan needs a scale divisible by 64")
        if gamma is not None and gamma.scale != s:
            raise ValueError("alpha and gamma scales differ")
        self.scale = s
        self.nlimbs = s // 32
        self.nwords = s // 64
        one = 1 << s
        ma = alpha.man % one
        mg = ((self.g_sign * gamma.man) % one) if gamma is not None else 0
        self._a = [np.uint64(x) for x in _limbs(ma, self.nlimbs)]
        self._g = [np.uint64(x) for x in _limbs((-mg) % one, self.nlimbs)]
        self._err_a = alpha.err
        self._err_g = gamma.err if gamma is not None else Q(0)
        # exactly rational alpha and gamma: n*alpha - g_sign*gamma = (n*p - r)/q
        aex = alpha.exact()
        gex = gamma.exact() if gamma is not None else Q(0)
        self._pr_q = None
        if aex is not None and gex is not None:
            ad, gd = aex.denominator, gex.denominator
            self._pr_q = (aex.numerator * gd, self.g_sign * gex.numerator * ad, ad * gd)

    def flipped(self) -> "CoordScan":
        """Scanner for ||n*alpha + gamma||, used for negative n."""
        return CoordScan(self.alpha, self.gamma, -self.g_sign)

    def err_int(self, n_max: int) -> int:
        """Integer bound on |true*2^scale - d(n)| for all n <= n_max."""
        return math.ceil(self._err_a * n_max + self._err_g)

    # -- block kernels ---------------------------------------------------

    def dist_words(self, ns: np.ndarray) -> list[np.ndarray]:
        """Exact distance numerators for a block, as little-endian uint64 words.

        ns must be uint64 with all entries < 2^31.
        """
        carry = np.zeros(len(ns), dtype=np.uint64)
        limbs = []
        for j in range(self.nlimbs):
            t = ns * self._a[j] + self._g[j] + carry
            limbs.append(t & _M32)
            carry = t >> _SH32
        # r = (n*Ma - Mg) mod 2^scale assembled; fold to min(r, 2^scale - r)
        top_is_high = limbs[-1] >= np.uint64(1 << 31)
        comp = []
        borrow_in = np.ones(len(ns), dtype=np.uint64)  # ~r + 1
        for j in range(self.nlimbs):
            t = (_M32 - limbs[j]) + borrow_in
            comp.append(t & _M32)
            borrow_in = t >> _SH32
        folded = [np.where(top_is_high, comp[j], limbs[j]) for j in range(self.nlimbs)]
        return [folded[2 * w] | (folded[2 * w + 1] << _SH32) for w in range(self.nwords)]

    def dist_floats(self, ns: np.ndarray) -> np.ndarray:
        """float64 distances; relative error <= 2^-52 plus E(n)*2^-scale absolute."""
        words = self.dist_words(ns)
        out = np.zeros(len(ns), dtype=np.float64)
        for w in range(self.nwords - 1, -1, -1):
            out = out * 18446744073709551616.0 + words[w].astype(np.float64)
        return out * math.ldexp(1.0, -self.scale)

    # -- exact per-element fallback ---------------------------------------

    def dist_fixed(self, n: int, extra_bits: int = 0) -> FixedReal:
        a, g = self.alpha, self.gamma
        if extra_bits:
            a = a.refined(a.scale + extra_bits)
            g = g.refined(g.scale + extra_bits) if g is not None else None
        if g is not None and self.g_sign < 0:
            g = g.mul_int(-1)  # negate after refinement so sources survive
        return norm_form(n, a, g)

    def dist_le(self, n: int, thr, *, at: Optional[int] = None, coord: Optional[int] = None) -> bool:
        """Certified ||n*alpha - gamma|| <= thr for a Fraction or FixedReal thr.

        Only a FixedReal threshold is refined along with the distance.  An
        undecidable case raises PrecisionExhausted naming ``at`` (default n)
        and ``coord``.  Exactly rational alpha and gamma against a Fraction
        threshold take one integer cross-multiplication instead, the answer
        the ladder reaches at depth 0.
        """
        if self._pr_q is not None and isinstance(thr, Fraction):
            p, r, q = self._pr_q
            x = (n * p - r) % q
            return min(x, q - x) * thr.denominator <= thr.numerator * q

        def step(extra):
            t = thr.refined(thr.scale + extra) if isinstance(thr, FixedReal) else thr
            c = cmp_fixed(self.dist_fixed(n, extra), t)
            return UNDECIDED if c is None else c <= 0

        at = n if at is None else at
        return certify(step, "membership undecidable at n={n}", n=at, coord=coord)

    def dist_cmp_pow(self, n: int, base: int, t, sign: int, msg: str) -> int:
        """Certified sign of ||n*alpha - gamma|| - base^(sign*sqrt(t)).

        An exactly known distance is compared as a point, otherwise its
        interval; an interval that straddles the threshold is retried deeper,
        and msg (formatted with n) names the case when every depth stays open.
        """

        def step(extra):
            d = self.dist_fixed(n, extra)
            ex = d.exact()
            c = cmp_pow(*((ex, ex) if ex is not None else d.bounds()), base, t, sign)
            return UNDECIDED if c is None else c

        return certify(step, msg, n=n)


@dataclass
class ThresholdSpec:
    """Split threshold for one coordinate: d <= t_in is definitely inside,
    d > t_out definitely outside, in between falls to the exact callback."""

    t_in: int
    t_out: int
    exact: Callable[[int], bool]

    @classmethod
    def for_fraction(cls, coord: CoordScan, thr: Fraction, n_max: int) -> "ThresholdSpec":
        """Membership test ||n*alpha - gamma|| <= thr for an exact rational thr."""
        thr = Fraction(thr)
        e = coord.err_int(n_max)
        t = thr * (1 << coord.scale)
        t_in = math.floor(t - e)
        t_out = math.floor(t + e)
        return cls(t_in, t_out, lambda n: coord.dist_le(n, thr))

    @classmethod
    def for_fixed(cls, coord: CoordScan, thr, n_max: int) -> "ThresholdSpec":
        """Membership test against a FixedReal threshold.

        Exactly rational thresholds take the for_fraction route; genuinely
        irrational ones widen the borderline band to the threshold's own
        interval and compare interval-vs-interval in the callback.
        """
        ex = thr.exact()
        if ex is not None:
            return cls.for_fraction(coord, ex, n_max)
        e = coord.err_int(n_max)
        tlo, thi = thr.bounds()
        t_in = math.floor(tlo * (1 << coord.scale)) - e
        t_out = math.floor(thi * (1 << coord.scale)) + e
        return cls(t_in, t_out, lambda n: coord.dist_le(n, thr))


def _words_le(words: Sequence[np.ndarray], bound: int, nwords: int) -> np.ndarray:
    """Vector mask d <= bound (bound any Python int; negative means all-False)."""
    if bound < 0:
        return np.zeros(len(words[0]), dtype=bool)
    if bound >= (1 << (64 * nwords)) - 1:
        return np.ones(len(words[0]), dtype=bool)
    bw = [np.uint64((bound >> (64 * w)) & 0xFFFFFFFFFFFFFFFF) for w in range(nwords)]
    le = words[0] <= bw[0]
    for w in range(1, nwords):
        le = (words[w] < bw[w]) | ((words[w] == bw[w]) & le)
    return le


def classify_block(coord: CoordScan, ns: np.ndarray, spec: ThresholdSpec):
    """(definite_in, definite_out) masks for a block."""
    words = coord.dist_words(ns)
    inside = _words_le(words, spec.t_in, coord.nwords)
    not_out = _words_le(words, spec.t_out, coord.nwords)
    return inside, ~not_out


def members_in_range(
    coords: Sequence[CoordScan],
    specs: Sequence[ThresholdSpec],
    lo: int,
    hi: int,
    block: int = BLOCK,
) -> np.ndarray:
    """All n in [lo, hi] with every coordinate distance within its threshold.

    Exact: vector masks decide everything outside the borderline band, and
    borderline elements are settled by the per-threshold exact callbacks.
    """
    out = []
    for start in range(lo, hi + 1, block):
        ns = np.arange(start, min(start + block, hi + 1), dtype=np.uint64)
        all_in = np.ones(len(ns), dtype=bool)
        any_out = np.zeros(len(ns), dtype=bool)
        per_coord_in = []
        for coord, spec in zip(coords, specs):
            cin, cout = classify_block(coord, ns, spec)
            per_coord_in.append(cin)
            all_in &= cin
            any_out |= cout
        members = all_in.copy()
        pending = ~all_in & ~any_out
        if pending.any():
            for idx in np.nonzero(pending)[0]:
                n = int(ns[idx])
                ok = True
                for coord, spec, cin in zip(coords, specs, per_coord_in):
                    if not cin[idx] and not spec.exact(n):
                        ok = False
                        break
                members[idx] = ok
        if members.any():
            out.append(ns[members].astype(np.int64))
    if not out:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(out)


def first_in_range(
    coords: Sequence[CoordScan],
    specs: Sequence[ThresholdSpec],
    lo: int,
    hi: int,
    block: int = BLOCK,
) -> Optional[int]:
    """Smallest n in [lo, hi] passing every threshold, or None."""
    for start in range(lo, hi + 1, block):
        ns = np.arange(start, min(start + block, hi + 1), dtype=np.uint64)
        candidate = np.ones(len(ns), dtype=bool)
        per_coord_in = []
        for coord, spec in zip(coords, specs):
            cin, cout = classify_block(coord, ns, spec)
            per_coord_in.append(cin)
            candidate &= ~cout
        if not candidate.any():
            continue
        for idx in np.nonzero(candidate)[0]:
            n = int(ns[idx])
            ok = True
            for coord, spec, cin in zip(coords, specs, per_coord_in):
                if not cin[idx] and not spec.exact(n):
                    ok = False
                    break
            if ok:
                return n
    return None
