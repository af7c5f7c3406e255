"""Finite-horizon Diophantine exponent estimators.

Each estimator scans exactly (vectorized fixed-point distances), tracks the
running maximum of -log(quality), and reports the horizon-normalized value
value = running_max / log(horizon).  The running maximum is non-decreasing in
the horizon; the normalized value is what converges to the exponent.  Exact
zeros of any distance factor short-circuit with an infinity witness instead
of a fake large number.  exponent_report feeds its three scans over n from
one distance pass, whose blocks end at each horizon and uniform checkpoint.
All reported values are lower-bound style estimates at the stated horizon;
transference checks are advisory flags, never asserts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .realfield import UNDECIDED, FixedReal, TargetVector, certify, dist_nearest_int, exact_form, fr_from_int
from .scan import CoordScan, blocks

Q = Fraction
_ZERO_MSG = "cannot separate ||n*alpha-gamma|| from 0 at n={n}"
_FLAG_TOL = 0.1  # slack of the advisory transference flags


@dataclass
class ExponentEstimate:
    value: Optional[float]  # running_max / log(horizon)
    running_max: Optional[float]  # max over the window of -log(quality); monotone in horizon
    argmax: Optional[object]  # n (or vector) achieving the running max
    horizon: int
    infinite_witness: Optional[object] = None  # n (or vector) with an exact zero factor
    per_x: Optional[dict] = None  # uniform estimator: X -> normalized value


def _checked_gammas(alpha: TargetVector, gamma) -> list[Optional[FixedReal]]:
    """gamma as a list, one entry per alpha entry; all None for a homogeneous target."""
    gs = [None] * alpha.d if gamma is None else list(gamma)
    if len(gs) != alpha.d:
        raise ValidationError("gamma length must match alpha")
    if any(g is not None and g.scale != alpha.scale for g in gs):
        raise ValidationError("gamma scale mismatch")
    return gs


def _certify_vector(alpha: TargetVector, vec: tuple) -> Optional[float]:
    """-log||sum_j vec_j alpha_j|| if provably nonzero, None if exactly integer."""
    form = exact_form(zip(vec, alpha.alphas))
    if form is not None and not form[1]:
        frac = form[0] - math.floor(form[0])
        return None if frac == 0 else -math.log(float(min(frac, 1 - frac)))

    def step(extra):
        s = alpha.scale + extra
        acc = fr_from_int(0, s)
        for c, a in zip(vec, alpha.alphas):
            acc = acc + a.refined(s).mul_int(int(c))
        lo, hi = dist_nearest_int(acc).bounds()
        return -math.log(float((lo + hi) / 2)) if lo > 0 else UNDECIDED

    return certify(step, "cannot separate the norm form from 0 at vector {}", vec)


def _block_scores(coords: list[CoordScan], ns: np.ndarray, dists: list[np.ndarray], n_max: int, combine: str):
    """(-log of the combined distance over one block, None), or (None, n) for
    the first n with an exactly zero coordinate distance.

    combine: 'prod' multiplies the coordinate distances, 'max' takes the
    largest (simultaneous max-norm).  n with a coordinate in its zero band
    are scored from the certified distances.
    """
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


@dataclass
class _RunningMax:
    """One estimator's block scores over lo <= n <= cuts[-1]: the running max
    at each cut n, inclusive (at), the first n reaching the overall max (arg),
    or the first n with an exactly zero coordinate distance (witness)."""

    lo: int
    cuts: list
    combine: str
    best: float = -math.inf
    arg: Optional[int] = None
    at: list = field(default_factory=list)
    witness: Optional[int] = None

    @property
    def done(self) -> bool:
        return self.witness is not None or len(self.at) == len(self.cuts)

    def feed(self, coords: list[CoordScan], ns: np.ndarray, dists: list[np.ndarray]) -> None:
        a = max(self.lo - int(ns[0]), 0)
        if self.done or a >= len(ns):
            return
        score, self.witness = _block_scores(coords, ns[a:], [d[a:] for d in dists], self.cuts[-1], self.combine)
        if self.witness is not None:
            return
        i = int(np.argmax(score))
        if score[i] > self.best:
            self.best, self.arg = float(score[i]), int(ns[a + i])
        if int(ns[-1]) == self.cuts[len(self.at)]:  # no block runs past the next cut
            self.at.append(self.best)


def _scan(alpha: TargetVector, gamma, runs: list[_RunningMax]) -> list[_RunningMax]:
    """Feed every run from one distance pass over the union of their ranges, cut at their cuts."""
    coords = [CoordScan(a, g) for a, g in zip(alpha.alphas, _checked_gammas(alpha, gamma))]
    for ns in blocks(min(r.lo for r in runs), max(r.cuts[-1] for r in runs), [c for r in runs for c in r.cuts]):
        dists = [c.dist_floats(ns) for c in coords]
        for r in runs:
            r.feed(coords, ns, dists)
        if all(r.done for r in runs):
            break
    return runs


def _horizon(n_max: int, combine: str) -> _RunningMax:
    if n_max < 2:
        raise ValidationError("horizon must be >= 2")
    return _RunningMax(2, [n_max], combine)


def _horizon_estimate(run: _RunningMax) -> ExponentEstimate:
    n_max = run.cuts[-1]
    if run.witness is not None:
        return ExponentEstimate(None, None, None, n_max, infinite_witness=run.witness)
    return ExponentEstimate(run.at[0] / math.log(n_max), run.at[0], run.arg, n_max)


def mult_exponent_est(alpha: TargetVector, gamma=None, n_max: int = 10**6) -> ExponentEstimate:
    """Multiplicative exponent estimate: max_n -log(prod_i ||n a_i - g_i||) / log(horizon)."""
    return _horizon_estimate(_scan(alpha, gamma, [_horizon(n_max, "prod")])[0])


def simult_exponent_est(alpha: TargetVector, gamma=None, n_max: int = 10**6) -> ExponentEstimate:
    """Simultaneous exponent estimate with the max-norm quality."""
    return _horizon_estimate(_scan(alpha, gamma, [_horizon(n_max, "max")])[0])


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

    # n1 >= 0 by the symmetry (n1, ..) ~ -(n1, ..); the empty head at d = 1
    ranges = [range(h_max + 1)] + [range(-h_max, h_max + 1)] * (d - 2)
    last = alpha.alphas[-1]
    zero = fr_from_int(0, alpha.scale)
    for head in itertools.product(*ranges[: d - 1]):
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


def _uniform(x_list: Sequence[int]) -> _RunningMax:
    xs = sorted(set(int(x) for x in x_list))
    if not xs or xs[0] < 3:
        raise ValidationError("x_list entries must be >= 3")
    # checkpoints are strict: max over n < X, of min_i -log dist_i
    return _RunningMax(1, [x - 1 for x in xs], "max")


def _uniform_estimate(run: _RunningMax) -> ExponentEstimate:
    xs = [c + 1 for c in run.cuts]
    if run.witness is not None:
        return ExponentEstimate(None, None, None, xs[-1], infinite_witness=run.witness)
    per_x = {x: m / math.log(x) for x, m in zip(xs, run.at)}
    return ExponentEstimate(min(per_x.values()), run.at[-1], run.arg, xs[-1], per_x=per_x)


def uniform_inhom_est(alpha: TargetVector, gamma=None, x_list: Sequence[int] = (10**3, 10**4, 10**5, 10**6)) -> ExponentEstimate:
    """Uniform (inhomogeneous) proxy: min over X of max_{1<=n<X} min_i -log||n a_i - g_i|| / log X."""
    return _uniform_estimate(_scan(alpha, gamma, [_uniform(x_list)])[0])


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
    runs = [_horizon(n_max, "max"), _horizon(n_max, "prod"), _uniform(x_list)]
    simult, mult, uniform = _scan(alpha, gamma, runs)  # one distance pass for all three
    om, omx, omh = _horizon_estimate(simult), _horizon_estimate(mult), _uniform_estimate(uniform)
    oms = dual_exponent_est(alpha, h_max)
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
