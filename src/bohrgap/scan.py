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
block, decides every n exactly, ties included.  Every range scan walks the
blocks of ``blocks``; float consumers send each float distance in
``CoordScan.zero_band`` through ``dist_float``, which tells a true zero from
a certified positive value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import BudgetExceeded, ValidationError
from .realfield import UNDECIDED, FixedReal, certify, cmp_pow, dist_nearest_int

BLOCK = 1 << 16
_SLICE = 1 << 13  # entries per kernel pass: the pass's arrays stay in cache
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


def _limb_mul(ns: np.ndarray, a: Sequence, g: Sequence, words: Sequence[np.ndarray]) -> None:
    """(n*A + G) mod 2^scale into words, little-endian uint64, for uint64 ns < 2^31.

    A and G are scale-bit integers given as 32-bit limbs.  One array holds
    the running sum n*A_j + carry + G_j; an even limb fills a word's low half
    by a mask, an odd limb its high half by a shift that drops the carry.
    """
    s, t = np.zeros(len(ns), dtype=np.uint64), np.empty(len(ns), dtype=np.uint64)
    for j, aj in enumerate(a):
        np.multiply(ns, aj, out=t)
        s += t
        s += g[j]
        if j % 2:
            np.left_shift(s, _SH32, out=t)
            words[j // 2] |= t
        else:
            np.bitwise_and(s, _M32, out=words[j // 2])
        np.right_shift(s, _SH32, out=s)


def _fold(r: Sequence[np.ndarray]) -> None:
    """r = (n*Ma - Mg) mod 2^scale, as words, to min(r, 2^scale - r) in place.

    Negates word by word: ~w + 1 wraps only for w = 0, so the +1 moves up
    through the zero low words.
    """
    top_is_high = r[-1] >= np.uint64(1 << 63)
    neg = np.empty(len(r[0]), dtype=np.uint64)
    low_zero = np.ones(len(r[0]), dtype=bool)
    is_zero = np.empty(len(r[0]), dtype=bool)
    for i, w in enumerate(r):
        np.invert(w, out=neg)
        neg += low_zero
        if i < len(r) - 1:
            np.equal(w, 0, out=is_zero)
            low_zero &= is_zero
        np.copyto(w, neg, where=top_is_high)


def le(lo: Fraction, hi: Fraction, thr: Fraction):
    """Whether a value bracketed by [lo, hi] is <= thr: True, False, or
    UNDECIDED while the bracket straddles thr."""
    if hi <= thr:
        return True
    return False if lo > thr else UNDECIDED


class CoordScan:
    """Exact block scanner for one coordinate (alpha, gamma) at a fixed scale.

    Every per-n question about n*alpha - gamma goes through ``exact`` (its
    value in Q), ``bracket`` (a certified interval, a point when exact) and ``le``.
    """

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
        # alpha and g_sign*gamma as Fractions where exactly rational, else None
        self._alpha_q = alpha.exact()
        gex = gamma.exact() if gamma is not None else Q(0)
        self._gamma_q = None if gex is None else self.g_sign * gex
        # both rational: n*alpha - g_sign*gamma = (n*p - r)/q, stored as (p mod q, r mod q, q)
        self._pr_q = None
        if self._alpha_q is not None and self._gamma_q is not None:
            a, g = self._alpha_q, self._gamma_q
            q = a.denominator * g.denominator
            self._pr_q = (a.numerator * g.denominator % q, g.numerator * a.denominator % q, q)

    def flipped(self) -> "CoordScan":
        """Scanner for ||n*alpha + gamma||, used for negative n."""
        return CoordScan(self.alpha, self.gamma, -self.g_sign)

    def err_int(self, n_max: int) -> int:
        """Integer bound on |true*2^scale - d(n)| for all n <= n_max."""
        a, g = self._err_a, self._err_g
        return -(-(a.numerator * g.denominator * n_max + g.numerator * a.denominator) // (a.denominator * g.denominator))

    # -- block kernels ---------------------------------------------------

    def dist_words(self, ns: np.ndarray) -> list[np.ndarray]:
        """Exact distance numerators for a block, as little-endian uint64 words.

        ns must be uint64 with all entries < 2^31.  The kernel runs _SLICE
        entries at a time and writes into words of the block's length.
        """
        words = [np.empty(len(ns), dtype=np.uint64) for _ in range(self.nwords)]
        for lo in range(0, len(ns), _SLICE):
            r = [w[lo : lo + _SLICE] for w in words]
            _limb_mul(ns[lo : lo + _SLICE], self._a, self._g, r)
            _fold(r)
        return words

    def dist_floats(self, ns: np.ndarray) -> np.ndarray:
        """float64 distances; relative error <= 2^-52 plus E(n)*2^-scale absolute.

        Each slice's words are read into floats while they are in cache.
        """
        out = np.empty(len(ns), dtype=np.float64)
        for lo in range(0, len(ns), _SLICE):
            words, part = self.dist_words(ns[lo : lo + _SLICE]), out[lo : lo + _SLICE]
            part[:] = words[-1]
            for w in reversed(words[:-1]):
                part *= 18446744073709551616.0
                part += w
        out *= math.ldexp(1.0, -self.scale)
        return out

    # -- exact per-element fallback ---------------------------------------

    def unfolded(self, n: int, extra_bits: int = 0) -> FixedReal:
        """n*alpha - g_sign*gamma before folding, refined by extra_bits."""
        a, g = self.alpha, self.gamma
        if extra_bits:
            a = a.refined(a.scale + extra_bits)
            g = g.refined(g.scale + extra_bits) if g is not None else None
        return a.mul_int(n) if g is None else a.mul_int(n) - g.mul_int(self.g_sign)

    def dist_fixed(self, n: int, extra_bits: int = 0) -> FixedReal:
        return dist_nearest_int(self.unfolded(n, extra_bits))

    def exact(self, n: int) -> Optional[Fraction]:
        """n*alpha - g_sign*gamma in Q, or None when it is not exactly rational.
        At n = 0 only gamma needs to be: the distance there is ||gamma||."""
        if self._gamma_q is None or (n and self._alpha_q is None):
            return None
        return (n * self._alpha_q if n else 0) - self._gamma_q

    def bracket(self, n: int, extra: int = 0, fold: bool = True) -> tuple[Fraction, Fraction]:
        """Certified (lo, hi) around ||n*alpha - gamma||, or around n*alpha - gamma
        when not fold: lo == hi when exact, else an interval extra bits deeper."""
        x = self.exact(n)
        if x is None:
            return (self.dist_fixed(n, extra) if fold else self.unfolded(n, extra)).bounds()
        if fold:
            x -= math.floor(x)
            x = min(x, 1 - x)
        return x, x

    def dist_le(self, n: int, thr: Fraction, *, at: Optional[int] = None, coord: Optional[int] = None) -> bool:
        """Certified ||n*alpha - gamma|| <= thr for a rational thr.

        Exactly rational alpha and gamma take one integer cross-multiplication,
        the answer the bracket gives at depth 0.  Otherwise the bracket is
        refined until it clears thr; an undecidable case raises
        PrecisionExhausted naming ``at`` (default n) and ``coord``.
        """
        if self._pr_q is not None:
            return self._residue_le(n, thr)
        at = n if at is None else at
        return certify(lambda extra: le(*self.bracket(n, extra), thr), "membership undecidable at n={n}", n=at, coord=coord)

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

        The distance's bracket is compared (a point when exact); one that
        straddles the threshold is retried deeper, and msg (formatted with n)
        names the case when every depth stays open.
        """

        def step(extra):
            c = cmp_pow(*self.bracket(n, extra), base, t, sign)
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
            lo, hi = self.bracket(n, extra)
            return float((lo + hi) / 2) if lo == hi or (extra and lo > 0) else UNDECIDED

        v = certify(step, msg, n=n)
        if v == 0.0 and self.bracket(n) != (0, 0):
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
        t = (thr.numerator << coord.scale) // thr.denominator  # floor(thr*2^scale); e is an integer
        return cls(t - e, t + e, lambda n: coord.dist_le(n, thr), coord.residue_decider(thr))

    # perfbench's tracer wraps both constructor names it finds in the class dict
    for_fixed = for_fraction


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


def _classified(coords: Sequence[CoordScan], specs: Sequence[ThresholdSpec], parts: Iterable[np.ndarray]):
    """Per uint64 block of parts: (ns, members, pending, per_coord_in).

    A spec's block decider settles its coordinate exactly; otherwise the
    distance words split at t_in (definitely inside) and t_out (definitely
    outside).  members marks the n inside on every coordinate, pending the
    borderline n that no coordinate rules out; _resolve settles those.
    """
    for ns in parts:
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


def _passing(coords: Sequence[CoordScan], specs: Sequence[ThresholdSpec], parts: Iterable[np.ndarray]):
    """Per uint64 block of parts: (ns, mask of the n passing every threshold).

    Exact: vector masks decide everything outside the borderline band, and
    borderline elements are settled by the per-threshold exact callbacks.
    """
    for ns, members, pending, per_coord_in in _classified(coords, specs, parts):
        for idx in np.flatnonzero(pending):
            members[idx] = _resolve(specs, per_coord_in, idx, int(ns[idx]))
        yield ns, members


def _value_blocks(values: np.ndarray):
    """values (non-negative integers), BLOCK at a time as uint64."""
    _check_span(int(values.max(initial=0)))
    return (values[i : i + BLOCK].astype(np.uint64) for i in range(0, len(values), BLOCK))


def members_in_range(coords: Sequence[CoordScan], specs: Sequence[ThresholdSpec], lo: int, hi: int) -> np.ndarray:
    """All n in [lo, hi] with every coordinate distance within its threshold."""
    out = [np.empty(0, dtype=np.int64)]
    out.extend(ns[members].astype(np.int64) for ns, members in _passing(coords, specs, blocks(lo, hi)))
    return np.concatenate(out)


def count_in_range(coords: Sequence[CoordScan], specs: Sequence[ThresholdSpec], lo: int, hi: int) -> int:
    """len(members_in_range(...)), counted block by block."""
    return sum(int(members.sum()) for _, members in _passing(coords, specs, blocks(lo, hi)))


def count_failing(coords: Sequence[CoordScan], specs: Sequence[ThresholdSpec], values: np.ndarray) -> int:
    """How many n of values (non-negative integers) fail some threshold."""
    return sum(int((~members).sum()) for _, members in _passing(coords, specs, _value_blocks(values)))


def first_in_range(coords: Sequence[CoordScan], specs: Sequence[ThresholdSpec], lo: int, hi: int) -> Optional[int]:
    """Smallest n in [lo, hi] passing every threshold, or None.

    No exact callback runs past the first member.
    """
    for ns, members, pending, per_coord_in in _classified(coords, specs, blocks(lo, hi)):
        for idx in np.flatnonzero(members | pending):
            if members[idx] or _resolve(specs, per_coord_in, idx, int(ns[idx])):
                return int(ns[idx])
    return None


def all_pass(coords: Sequence[CoordScan], specs: Sequence[ThresholdSpec], values: np.ndarray) -> bool:
    """Whether every n of values (non-negative integers) passes every threshold.

    The values are classified BLOCK at a time; the first n that fails ends
    the test, and no exact callback runs past it.
    """
    for ns, members, pending, per_coord_in in _classified(coords, specs, _value_blocks(values)):
        if not (members | pending).all() or not all(
            _resolve(specs, per_coord_in, idx, int(ns[idx])) for idx in np.flatnonzero(pending)
        ):
            return False
    return True
