"""Finite-horizon Diophantine exponent estimators.

Each estimator scans exactly (vectorized fixed-point distances), tracks the
running maximum of -log(quality), and reports the horizon-normalized value
value = running_max / log(horizon).  The running maximum is non-decreasing in
the horizon; the normalized value is what converges to the exponent.  Exact
zeros of any distance factor short-circuit with an infinity witness instead
of a fake large number.  All reported values are lower-bound style estimates
at the stated horizon; transference checks are advisory flags, never asserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .realfield import DEFAULT_SCALE, UNDECIDED, FixedReal, RealSpec, certify, dist_nearest_int, fr_from_int
from .scan import CoordScan, blocks

Q = Fraction
_ZERO_MSG = "cannot separate ||n*alpha-gamma|| from 0 at n={n}"
_FLAG_TOL = 0.1  # slack of the advisory transference flags


@dataclass(frozen=True)
class TargetVector:
    """The real vector alpha = (alpha_1..alpha_d); k = d + 1 Bohr-set rank."""

    alphas: tuple[FixedReal, ...]

    def __post_init__(self):
        if not self.alphas:
            raise ValidationError("empty target vector")
        scales = {a.scale for a in self.alphas}
        if len(scales) != 1:
            raise ValidationError("all entries must carry the same scale")

    @property
    def d(self) -> int:
        return len(self.alphas)

    @property
    def k(self) -> int:
        return self.d + 1

    @property
    def scale(self) -> int:
        return self.alphas[0].scale

    @classmethod
    def parse(cls, texts: Sequence[str], scale: int = DEFAULT_SCALE) -> "TargetVector":
        return cls(tuple(RealSpec.parse(t).realize(scale) for t in texts))

    def rational_entries(self) -> list[int]:
        """Indices (0-based) of entries with exactly rational values."""
        return [i for i, a in enumerate(self.alphas) if a.exact() is not None]


@dataclass
class ExponentEstimate:
    value: Optional[float]  # running_max / log(horizon)
    running_max: Optional[float]  # max over the window of -log(quality); monotone in horizon
    argmax: Optional[object]  # n (or vector) achieving the running max
    horizon: int
    infinite_witness: Optional[object] = None  # n (or vector) with an exact zero factor
    per_x: Optional[dict] = None  # uniform estimator: X -> normalized value


def _gammas_or_zero(alpha: TargetVector, gamma) -> list[FixedReal]:
    if gamma is None:
        return [fr_from_int(0, alpha.scale) for _ in alpha.alphas]
    gs = list(gamma)
    if len(gs) != alpha.d:
        raise ValidationError("gamma length must match alpha")
    for g in gs:
        if g.scale != alpha.scale:
            raise ValidationError("gamma scale mismatch")
    return gs


def _neg_log_dist(d: FixedReal):
    """-log(d) once d is provably nonzero, None when exactly zero, else UNDECIDED."""
    ex = d.exact()
    if ex is not None:
        if ex == 0:
            return None
        return -math.log(float(ex))
    lo, hi = d.bounds()
    if lo > 0:
        return -math.log(float((lo + hi) / 2))
    return UNDECIDED


def _sqfree(m: int) -> tuple[int, int]:
    """Write m = s^2 * m0 with m0 squarefree.  Exact for m <= 10^12."""
    if m <= 0:
        raise ValidationError("square root payloads must be positive here")
    if m > 10**12:
        raise ValidationError("cannot certify squarefree part above 10^12")
    s, m0 = 1, 1
    r = m
    for p in range(2, 10**4 + 1):
        if p * p > r:
            break
        while r % (p * p) == 0:
            r //= p * p
            s *= p
        if r % p == 0:
            r //= p
            m0 *= p
    # remainder r has no prime factor <= 10^4, so r < 10^12 is either 1, a
    # prime, a product of two primes (both squarefree) or a perfect square
    t = math.isqrt(r)
    if t * t == r:
        s *= t
    else:
        m0 *= r
    return s, m0


def _integer_combination(alpha: TargetVector, vec: Sequence[int]) -> Optional[bool]:
    """Exactly decide whether sum_j vec_j * alpha_j is an integer.

    Reasons through the construction sources: rationals accumulate exactly,
    sqrt:m entries reduce to s*sqrt(m0) and distinct squarefree kernels are
    linearly independent over Q.  Returns None when an entry carries no
    source to reason from.
    """
    rational = Q(0)
    kernels: dict[int, int] = {}
    for c, a in zip(vec, alpha.alphas):
        c = int(c)
        if c == 0:
            continue
        ex = a.exact()
        if ex is not None:
            rational += c * ex
            continue
        src = a.source
        if src is None or src.kind != "sqrt":
            return None
        s, m0 = _sqfree(int(src.payload))
        kernels[m0] = kernels.get(m0, 0) + c * s
    if any(v != 0 for v in kernels.values()):
        return False
    return rational.denominator == 1


def _certify_vector(alpha: TargetVector, vec: tuple) -> Optional[float]:
    """-log||sum_j vec_j alpha_j|| if provably nonzero, None if exactly integer."""
    known = _integer_combination(alpha, vec)
    if known is True:
        return None

    def step(extra):
        s = alpha.scale + extra
        acc = fr_from_int(0, s)
        for c, a in zip(vec, alpha.alphas):
            acc = acc + a.refined(s).mul_int(int(c))
        return _neg_log_dist(dist_nearest_int(acc))

    return certify(step, "cannot separate the norm form from 0 at vector {}", vec)


def _block_scores(coords: list[CoordScan], ns: np.ndarray, n_max: int, combine: str):
    """(-log of the combined distance over one block, None), or (None, n) for
    the first n with an exactly zero coordinate distance.

    combine: 'prod' multiplies the coordinate distances, 'max' takes the
    largest (simultaneous max-norm).  n with a coordinate in its zero band
    are scored from the certified distances.
    """
    dists = [c.dist_floats(ns) for c in coords]
    agg = np.multiply.reduce(dists) if combine == "prod" else np.maximum.reduce(dists)
    near = np.logical_or.reduce([d <= c.zero_band(n_max) for c, d in zip(coords, dists)])
    agg[near] = np.inf  # scored exactly below
    score = -np.log(agg)
    for idx in np.nonzero(near)[0]:
        n = int(ns[idx])
        vals = [c.dist_float(n, _ZERO_MSG) for c in coords]
        if 0.0 in vals:
            return None, n
        logs = [-math.log(v) for v in vals]
        score[idx] = sum(logs) if combine == "prod" else min(logs)
    return score, None


def _running_max(alpha: TargetVector, gamma, lo: int, cuts: list[int], combine: str):
    """Block scores over lo <= n <= cuts[-1]: (the running max at each cut n,
    inclusive; the first n reaching the overall max; None), or (None, None, n)
    for the first n with an exactly zero coordinate distance."""
    coords = [CoordScan(a, g) for a, g in zip(alpha.alphas, _gammas_or_zero(alpha, gamma))]
    running, arg, at = -math.inf, None, []
    for ns in blocks(lo, cuts[-1]):
        score, witness = _block_scores(coords, ns, cuts[-1], combine)
        if witness is not None:
            return None, None, witness
        start = int(ns[0])
        for c in cuts:
            if start <= c < start + len(ns):
                at.append(max(running, float(score[: c + 1 - start].max())))
        i = int(np.argmax(score))
        if score[i] > running:
            running, arg = float(score[i]), start + i
    return at, arg, None


def _estimate_from_scan(alpha: TargetVector, gamma, n_max: int, combine: str) -> ExponentEstimate:
    if n_max < 2:
        raise ValidationError("horizon must be >= 2")
    at, arg, witness = _running_max(alpha, gamma, 2, [n_max], combine)
    if witness is not None:
        return ExponentEstimate(None, None, None, n_max, infinite_witness=witness)
    return ExponentEstimate(at[0] / math.log(n_max), at[0], arg, n_max)


def mult_exponent_est(alpha: TargetVector, gamma=None, n_max: int = 10**6) -> ExponentEstimate:
    """Multiplicative exponent estimate: max_n -log(prod_i ||n a_i - g_i||) / log(horizon)."""
    return _estimate_from_scan(alpha, gamma, n_max, "prod")


def simult_exponent_est(alpha: TargetVector, gamma=None, n_max: int = 10**6) -> ExponentEstimate:
    """Simultaneous exponent estimate with the max-norm quality."""
    return _estimate_from_scan(alpha, gamma, n_max, "max")


def dual_exponent_est(alpha: TargetVector, h_max: int = 2000) -> ExponentEstimate:
    """Dual exponent estimate over integer vectors 0 < |n|_inf <= h_max.

    d <= 3 only (the vector loop is exhaustive).
    """
    d = alpha.d
    if d > 3:
        raise ValidationError("dual estimator supports d <= 3")
    if h_max < 2:
        raise ValidationError("horizon must be >= 2")
    if (2 * h_max + 1) ** d > 2 * 10**8:
        raise ValidationError("dual horizon too large for exhaustive vector scan")
    logh = math.log(h_max)
    best = -math.inf
    best_vec = None

    def outer_vectors():
        if d == 1:
            yield ()
            return
        rng = range(-h_max, h_max + 1)
        if d == 2:
            for n1 in range(0, h_max + 1):  # (n1,..) ~ -(n1,..) symmetry
                yield (n1,)
        else:
            for n1 in range(0, h_max + 1):
                for n2 in rng:
                    yield (n1, n2)

    last = alpha.alphas[-1]
    zero = fr_from_int(0, alpha.scale)
    for head in outer_vectors():
        base = zero
        for c, a in zip(head, alpha.alphas):
            base = base + a.mul_int(c)
        # scan tail coefficient in [-h, h]; skip the zero vector
        for sign in (1, -1):
            # ||head.alpha + sign*n*last|| = ||n*last - (-sign*head.alpha)||
            coord = CoordScan(last, -base) if sign > 0 else CoordScan(last, base)
            lo = 0 if sign > 0 else 1
            if sign < 0 and all(c == 0 for c in head):
                continue  # mirror image of the positive scan
            for ns in blocks(lo, h_max):
                dd = coord.dist_floats(ns)
                if ns[0] == 0 and all(c == 0 for c in head):
                    dd[0] = np.inf  # exclude the zero vector
                susp = dd <= coord.zero_band(h_max)
                for idx in np.nonzero(susp)[0]:
                    vec = head + (int(ns[idx]) * sign,)
                    v = _certify_vector(alpha, vec)
                    if v is None:
                        return ExponentEstimate(None, None, None, h_max, infinite_witness=vec)
                    if v > best:
                        best, best_vec = v, vec
                dd[susp] = np.inf
                score = -np.log(dd)
                i = int(np.argmax(score))
                if score[i] > best:
                    best, best_vec = float(score[i]), head + (int(ns[i]) * sign,)
    return ExponentEstimate(best / logh, best, best_vec, h_max)


def uniform_inhom_est(alpha: TargetVector, gamma=None, x_list: Sequence[int] = (10**3, 10**4, 10**5, 10**6)) -> ExponentEstimate:
    """Uniform (inhomogeneous) proxy: min over X of max_{1<=n<X} min_i -log||n a_i - g_i|| / log X."""
    xs = sorted(set(int(x) for x in x_list))
    if not xs or xs[0] < 3:
        raise ValidationError("x_list entries must be >= 3")
    # checkpoints are strict: max over n < X
    at, arg, witness = _running_max(alpha, gamma, 1, [x - 1 for x in xs], "max")  # min_i -log dist_i
    if witness is not None:
        return ExponentEstimate(None, None, None, xs[-1], infinite_witness=witness)
    per_x = {x: m / math.log(x) for x, m in zip(xs, at)}
    return ExponentEstimate(min(per_x.values()), at[-1], arg, xs[-1], per_x=per_x)


@dataclass
class ExponentReport:
    omega_lower: ExponentEstimate
    omega_times_lower: ExponentEstimate
    omega_star_lower: ExponentEstimate
    omega_hat_lower: ExponentEstimate
    flags: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        def enc(e: ExponentEstimate):
            return {
                "value": e.value,
                "running_max": e.running_max,
                "argmax": list(e.argmax) if isinstance(e.argmax, tuple) else e.argmax,
                "horizon": e.horizon,
                "infinite_witness": list(e.infinite_witness) if isinstance(e.infinite_witness, tuple) else e.infinite_witness,
                "per_x": {str(k): v for k, v in e.per_x.items()} if e.per_x else None,
            }

        return {
            "omega_lower": enc(self.omega_lower),
            "omega_times_lower": enc(self.omega_times_lower),
            "omega_star_lower": enc(self.omega_star_lower),
            "omega_hat_lower": enc(self.omega_hat_lower),
            "flags": self.flags,
        }


def exponent_report(
    alpha: TargetVector,
    gamma=None,
    n_max: int = 10**6,
    h_max: int = 2000,
    x_list: Sequence[int] = (10**3, 10**4, 10**5, 10**6),
) -> ExponentReport:
    """All four estimators plus advisory transference flags.

    Flags compare finite-horizon estimates, so they are diagnostics; a False
    flag signals horizons too short to see the asymptotic inequality, not an
    arithmetic error.
    """
    om = simult_exponent_est(alpha, gamma, n_max)
    omx = mult_exponent_est(alpha, gamma, n_max)
    oms = dual_exponent_est(alpha, h_max)
    omh = uniform_inhom_est(alpha, gamma, x_list)
    d = alpha.d
    flags = {}
    if None not in (om.value, omx.value):
        flags["simult_vs_mult"] = bool(d * om.value <= omx.value + _FLAG_TOL)
    if None not in (oms.value, om.value) and oms.value > 0:
        flags["dual_vs_simult"] = bool(oms.value / (d + (d - 1) * oms.value) <= om.value + _FLAG_TOL)
    if None not in (omh.value, oms.value) and oms.value > 0:
        flags["uniform_vs_dual"] = bool(omh.value >= 1.0 / oms.value - _FLAG_TOL)
    return ExponentReport(om, omx, oms, omh, flags)


def multiplicative_hypothesis(alpha: TargetVector, n_max: int = 10**6) -> dict:
    """Screen for the k-variable multiplicative hypothesis: rational entries
    disqualify; for k >= 3 the multiplicative exponent estimate must sit below
    (k-1)/(k-2).  Advisory: finite horizons only ever certify lower bounds."""
    rat = alpha.rational_entries()
    out = {
        "k": alpha.k,
        "rational_entries": rat,
        "rationality_ok": not rat,
        "threshold": None,
        "estimate": None,
        "estimate_ok": None,
    }
    if rat:
        return out
    if alpha.k == 2:
        return out
    thr = Q(alpha.k - 1, alpha.k - 2)
    est = mult_exponent_est(alpha, None, n_max)
    out["threshold"] = float(thr)
    out["estimate"] = est.value
    out["estimate_ok"] = bool(est.value is not None and est.value < float(thr))
    return out
