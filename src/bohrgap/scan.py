"""Exact vectorized evaluation of n -> ||n*alpha - gamma|| over integer ranges.

The distance numerator d(n) = round-trip of (n*Ma - Mg) mod 2^scale is computed
exactly in numpy via 32-bit limbs (products n*limb stay below 2^63), so block
scans over millions of n cost a handful of vector ops while remaining integer
arithmetic.  True distances differ from d(n)/2^scale by at most
E(n) = n*err_alpha + err_gamma mantissa units; thresholds are therefore split
into a definite-in bound, a definite-out bound, and a borderline band that is
re-decided exactly per element (escalating the scale through the constructor).
Exactly rational alpha and gamma against a rational threshold skip the limb
kernel and the band: the residue (n*p - r) mod q, one int64 vector per
block, decides every n exactly, ties included.  The same limb kernel gives
floor(n*man / 2^scale) and its residue exactly, which the outer lift check
uses to place its candidate witnesses.  Every range scan walks the blocks of
``blocks``; float consumers send each float distance in
``CoordScan.zero_band`` through ``dist_float``, which tells a true zero from
a certified positive value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BudgetExceeded, ValidationError
from .realfield import UNDECIDED, FixedReal, certify, cmp_fixed, cmp_pow, norm_form

BLOCK = 1 << 16
_M32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)

Q = Fraction


def _limbs(value: int, count: int) -> list[int]:
    return [(value >> (32 * j)) & 0xFFFFFFFF for j in range(count)]


def _check_span(n_max: int) -> None:
    """The limb kernel needs |n| < 2^31, so that n*limb + carry stays below 2^64."""
    if n_max >= 1 << 31:
        raise BudgetExceeded(f"|n| up to {n_max} exceeds the 31-bit scan limit")


def blocks(lo: int, hi: int):
    """Consecutive uint64 blocks of at most BLOCK n covering [lo, hi].

    The 31-bit scan limit is checked before the first block.
    """
    _check_span(hi)
    for start in range(lo, hi + 1, BLOCK):
        yield np.arange(start, min(start + BLOCK, hi + 1), dtype=np.uint64)


def _limb_mul(ns: np.ndarray, a: Sequence, g: Optional[Sequence] = None):
    """(r, carry) with n*A + G = carry*2^scale + r, for uint64 ns < 2^31.

    A and G are scale-bit integers given as 32-bit limbs (G may be omitted);
    r comes back as little-endian uint64 words and carry as uint64.
    """
    carry = np.zeros(len(ns), dtype=np.uint64)
    limbs = []
    for j, aj in enumerate(a):
        t = ns * aj + carry
        if g is not None:
            t += g[j]
        limbs.append(t & _M32)
        carry = t >> _SH32
    return [limbs[2 * w] | (limbs[2 * w + 1] << _SH32) for w in range(len(limbs) // 2)], carry


def _neg_words(words: Sequence[np.ndarray]) -> list[np.ndarray]:
    """(2^(64*len(words)) - r) mod 2^(64*len(words)) word by word.

    ~w + 1 wraps only for w = 0, so the +1 moves up through the zero low words.
    """
    out = []
    low_zero = np.ones(len(words[0]), dtype=bool)
    for w in words:
        out.append(~w + low_zero)
        low_zero &= w == 0
    return out


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
        self._int = alpha.man >> s  # alpha's mantissa is _int*2^s + ma
        mg = ((self.g_sign * gamma.man) % one) if gamma is not None else 0
        self._a = [np.uint64(x) for x in _limbs(ma, self.nlimbs)]
        self._g = [np.uint64(x) for x in _limbs((-mg) % one, self.nlimbs)]
        self._err_a = alpha.err
        self._err_g = gamma.err if gamma is not None else Q(0)
        # exactly rational alpha and gamma: n*alpha - g_sign*gamma = (n*p - r)/q,
        # stored as (p mod q, r mod q, q)
        aex = alpha.exact()
        gex = gamma.exact() if gamma is not None else Q(0)
        self._pr_q = None
        if aex is not None and gex is not None:
            ad, gd = aex.denominator, gex.denominator
            q = ad * gd
            self._pr_q = (aex.numerator * gd % q, self.g_sign * gex.numerator * ad % q, q)

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
        r, _ = _limb_mul(ns, self._a, self._g)
        # r = (n*Ma - Mg) mod 2^scale; fold to min(r, 2^scale - r)
        top_is_high = r[-1] >= np.uint64(1 << 63)
        return [np.where(top_is_high, c, w) for c, w in zip(_neg_words(r), r)]

    def floor_residue(self, ns: np.ndarray):
        """(I, f) with n*man = I*2^scale + f and 0 <= f < 2^scale, exactly.

        man is alpha's mantissa; gamma plays no part.  ns is int64 with
        |n| < 2^31.  I is int64 (object when alpha's integer part reaches
        2^31) and f little-endian uint64 words.  The limb kernel gives the
        floor and residue of |n|*frac; a negative n with f != 0 takes
        I -> -I - 1 and f -> 2^scale - f.
        """
        neg = ns < 0
        r, carry = _limb_mul(np.abs(ns).astype(np.uint64), self._a)
        flip = neg & np.logical_or.reduce([w != 0 for w in r])
        f = [np.where(flip, c, w) for c, w in zip(_neg_words(r), r)]
        frac_floor = np.where(neg, -carry.astype(np.int64) - flip, carry.astype(np.int64))
        base = ns * self._int if abs(self._int) < 1 << 31 else ns.astype(object) * self._int
        return base + frac_floor, f

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
            return self._residue_le(n, thr)

        def step(extra):
            t = thr.refined(thr.scale + extra) if isinstance(thr, FixedReal) else thr
            c = cmp_fixed(self.dist_fixed(n, extra), t)
            return UNDECIDED if c is None else c <= 0

        at = n if at is None else at
        return certify(step, "membership undecidable at n={n}", n=at, coord=coord)

    def _residue_le(self, n, thr: Fraction):
        """min(x, q - x)*den <= num*q for x = (n*p - r) mod q, i.e. ||n*alpha - gamma|| <= thr.

        n is a Python int or an int64 block.  2*min(x, q - x) is written as
        q - |q - 2x| so that one expression serves both.
        """
        p, r, q = self._pr_q
        x = (n * p - r) % q
        return (q - abs(q - 2 * x)) * thr.denominator <= 2 * thr.numerator * q

    def residue_decider(self, thr: Fraction) -> Optional[Callable[[np.ndarray], np.ndarray]]:
        """Exact block membership mask ||n*alpha - gamma|| <= thr by residues, or None.

        Needs exactly rational alpha and gamma, and int64 room for every
        product: with n < 2^31 (the scan limit), q < 2^31, q*den < 2^62 and
        |num*q| < 2^62, all of them stay below 2^63.
        """
        if self._pr_q is None:
            return None
        q = self._pr_q[2]
        if q >= 1 << 31 or q * thr.denominator >= 1 << 62 or abs(thr.numerator * q) >= 1 << 62:
            return None
        return lambda ns: self._residue_le(ns.astype(np.int64), thr)

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

    # -- the near-zero rule -------------------------------------------------

    def zero_band(self, n_max: int) -> float:
        """Float distances at or below this may be a true zero for some n <= n_max.

        A true zero shows up as a float within the word error of 0, not as 0.0
        exactly; every float distance in the band is resolved by dist_float.
        """
        return math.ldexp(self.err_int(n_max), 32 - self.scale)

    def dist_float(self, n: int, msg: str = "distance at n={n} cannot be separated from zero") -> float:
        """Certified float distance at n, exactly 0.0 for a true zero.

        An exact distance is read at the base scale; an inexact one is read
        64 bits deeper, as the midpoint of the first interval clear of zero.
        msg (formatted with n) names the case when no depth separates it; a
        nonzero distance that underflows the float range raises.
        """

        def step(extra):
            d = self.dist_fixed(n, extra)
            if extra == 0:
                ex = d.exact()
                return UNDECIDED if ex is None else float(ex)
            lo, hi = d.bounds()
            return float((lo + hi) / 2) if lo > 0 else UNDECIDED

        v = certify(step, msg, n=n)
        if v == 0.0 and self.dist_fixed(n).exact() != 0:
            raise ValidationError(f"distance at n={n} is nonzero but below the float range")
        return v


@dataclass
class ThresholdSpec:
    """Split threshold for one coordinate: d <= t_in is definitely inside,
    d > t_out definitely outside, in between falls to the exact callback.

    A spec with a ``block`` decider (exactly rational coordinate and
    threshold) decides whole blocks exactly instead, with no band.
    """

    t_in: int
    t_out: int
    exact: Callable[[int], bool]
    block: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @classmethod
    def for_fraction(cls, coord: CoordScan, thr: Fraction, n_max: int) -> "ThresholdSpec":
        """Membership test ||n*alpha - gamma|| <= thr for an exact rational thr."""
        thr = Fraction(thr)
        e = coord.err_int(n_max)
        t = thr * (1 << coord.scale)
        t_in = math.floor(t - e)
        t_out = math.floor(t + e)
        return cls(t_in, t_out, lambda n: coord.dist_le(n, thr), coord.residue_decider(thr))

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


def _classified(coords: Sequence[CoordScan], specs: Sequence[ThresholdSpec], lo: int, hi: int):
    """Per block of [lo, hi]: (ns, members, pending, per_coord_in).

    A spec's block decider settles its coordinate exactly; otherwise the
    distance words split at t_in (definitely inside) and t_out (definitely
    outside).  members marks the n inside on every coordinate, pending the
    borderline n that no coordinate rules out; _resolve settles those.
    """
    for ns in blocks(lo, hi):
        all_in = np.ones(len(ns), dtype=bool)
        any_out = np.zeros(len(ns), dtype=bool)
        per_coord_in = []
        for coord, spec in zip(coords, specs):
            if spec.block is not None:
                cin = spec.block(ns)
                any_out |= ~cin
            else:
                words = coord.dist_words(ns)
                cin = _words_le(words, spec.t_in, coord.nwords)
                any_out |= ~_words_le(words, spec.t_out, coord.nwords)
            per_coord_in.append(cin)
            all_in &= cin
        yield ns, all_in, ~all_in & ~any_out, per_coord_in


def _resolve(specs: Sequence[ThresholdSpec], per_coord_in, idx: int, n: int) -> bool:
    """Exact membership of n, the block's idx-th entry: each coordinate not
    definitely inside asks its exact callback, in order, until one says no."""
    return all(cin[idx] or spec.exact(n) for spec, cin in zip(specs, per_coord_in))


def members_in_range(
    coords: Sequence[CoordScan],
    specs: Sequence[ThresholdSpec],
    lo: int,
    hi: int,
) -> np.ndarray:
    """All n in [lo, hi] with every coordinate distance within its threshold.

    Exact: vector masks decide everything outside the borderline band, and
    borderline elements are settled by the per-threshold exact callbacks.
    """
    out = [np.empty(0, dtype=np.int64)]
    for ns, members, pending, per_coord_in in _classified(coords, specs, lo, hi):
        for idx in np.flatnonzero(pending):
            members[idx] = _resolve(specs, per_coord_in, idx, int(ns[idx]))
        out.append(ns[members].astype(np.int64))
    return np.concatenate(out)


def first_in_range(
    coords: Sequence[CoordScan],
    specs: Sequence[ThresholdSpec],
    lo: int,
    hi: int,
) -> Optional[int]:
    """Smallest n in [lo, hi] passing every threshold, or None.

    No exact callback runs past the first member.
    """
    for ns, members, pending, per_coord_in in _classified(coords, specs, lo, hi):
        for idx in np.flatnonzero(members | pending):
            if members[idx] or _resolve(specs, per_coord_in, idx, int(ns[idx])):
                return int(ns[idx])
    return None
