"""Inhomogeneous Bohr sets: enumeration, integer lifts, and the shrunken
homogeneous / totient-restricted variants.

A Bohr set here is B_gamma(N; delta) = {n : ||n*alpha_i - gamma_i|| <= delta_i},
taken over |n| <= N (symmetric) or 1 <= n <= N (positive).  Membership is
non-strict and every boundary case is decided exactly; indecisive irrational
ties raise PrecisionExhausted rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

import numpy as np

from .errors import AmbiguousLift, ValidationError
from .exponents import TargetVector
from .realfield import (
    DEFAULT_SCALE,
    UNDECIDED,
    FixedReal,
    RealSpec,
    ceil_pow_sqrt,
    certify,
    cmp_fixed,
    fr_from_fraction,
    fr_from_int,
)
from .scan import CoordScan, ThresholdSpec, members_in_range

Q = Fraction


def parse_threshold(text: str, scale: int = DEFAULT_SCALE) -> FixedReal:
    """Accept either a source spec ("rat:1/20", "dec:0.05", "sqrt:2") or a
    bare decimal/fraction literal ("0.05", "1/20")."""
    if ":" in text:
        return RealSpec.parse(text).realize(scale)
    try:
        return fr_from_fraction(Q(text), scale)
    except (ValueError, ZeroDivisionError) as e:
        raise ValidationError(f"bad width {text!r}: {e}") from e


@dataclass(frozen=True)
class BohrSpec:
    """Data for B_gamma(N; delta): the targets, the shift, the box, the widths.

    k = d + 1 counts the lifted coordinates (n, a_1..a_d).  epsilon feeds the
    restricted variant's lower cutoff N^sqrt(epsilon).
    """

    alpha: TargetVector
    gamma: Optional[tuple[FixedReal, ...]]
    N: int
    delta: tuple[FixedReal, ...]
    epsilon: Fraction = Q(1, 20)

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 1:
            raise ValidationError("N must be a positive integer")
        d = self.alpha.d
        if len(self.delta) != d:
            raise ValidationError("delta needs one width per alpha entry")
        if self.gamma is not None:
            if len(self.gamma) != d:
                raise ValidationError("gamma needs one shift per alpha entry")
            for g in self.gamma:
                if g.scale != self.alpha.scale:
                    raise ValidationError("gamma scale mismatch")
        # widths up to 2 are legal so the doubled/outer companions stay
        # constructible; anything >= 1/2 already keeps every n
        for t in self.delta:
            if t.scale != self.alpha.scale:
                raise ValidationError("delta scale mismatch")
            ex = t.exact()
            lo, hi = t.bounds()
            if ex is not None:
                if not (0 < ex <= 2):
                    raise ValidationError("delta entries must lie in (0, 2]")
            elif not (lo > 0 and hi <= 2):
                raise ValidationError("delta entries must lie in (0, 2] decisively")
        if not (0 < self.epsilon <= Q(1, 4)):
            raise ValidationError("epsilon must lie in (0, 1/4]")
        # guard: accumulated fixed-point error over the whole range must stay
        # far below the smallest width, or borderline bands swallow the scan
        dlo = min((t.exact() if t.exact() is not None else t.bounds()[0]) for t in self.delta)
        if Q(self.N + 1, 1 << self.alpha.scale) >= dlo / (1 << 20):
            raise ValidationError("scale too small for this N and delta; use a larger scale")

    @property
    def d(self) -> int:
        return self.alpha.d

    @property
    def k(self) -> int:
        return self.alpha.k

    @property
    def scale(self) -> int:
        return self.alpha.scale

    def gammas(self) -> tuple[FixedReal, ...]:
        if self.gamma is not None:
            return self.gamma
        z = fr_from_int(0, self.scale)
        return tuple(z for _ in range(self.d))

    def is_homogeneous(self) -> bool:
        return self.gamma is None or all(g.exact() == 0 for g in self.gamma)

    def delta_fractions(self) -> tuple[Fraction, ...]:
        out = []
        for t in self.delta:
            ex = t.exact()
            if ex is None:
                raise ValidationError("width is not exactly rational")
            out.append(ex)
        return tuple(out)

    def scaled(self, N: int, num: int, den: int) -> "BohrSpec":
        """Homogeneous companion with box N and widths delta*num/den (capped at 1)."""
        ds = []
        for t in self.delta:
            u = t.mul_int(num).div_int(den)
            ex = u.exact()
            if ex is not None and ex > 1:
                u = fr_from_int(1, self.scale)
            ds.append(u)
        return BohrSpec(self.alpha, None, N, tuple(ds), self.epsilon)

    @classmethod
    def build(
        cls,
        alpha_texts,
        gamma_texts,
        N: int,
        delta_texts,
        epsilon: Fraction = Q(1, 20),
        scale: int = DEFAULT_SCALE,
    ) -> "BohrSpec":
        alpha = TargetVector.parse(list(alpha_texts), scale)
        gamma = None
        if gamma_texts is not None:
            gamma = tuple(RealSpec.parse(t).realize(scale) for t in gamma_texts)
        delta = tuple(parse_threshold(t, scale) for t in delta_texts)
        return cls(alpha, gamma, N, delta, Q(epsilon))


@dataclass
class BohrSet:
    spec: BohrSpec
    mode: str  # symmetric | positive | restricted
    members: np.ndarray  # sorted int64
    lifted: Optional[list[tuple[int, ...]]] = None

    @property
    def cardinality(self) -> int:
        return int(len(self.members))

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "k": self.spec.k,
            "N": self.spec.N,
            "cardinality": self.cardinality,
            "members": [int(n) for n in self.members],
            "lifted": [list(v) for v in self.lifted] if self.lifted is not None else None,
        }


def _coord_scans(spec: BohrSpec, flip: bool = False) -> list[CoordScan]:
    """One scanner per coordinate: ||n*alpha_i - gamma_i||, or with flip
    ||n*alpha_i + gamma_i||, the distance at -n."""
    gammas = spec.gamma if spec.gamma is not None else (None,) * spec.d
    return [CoordScan(a, g, -1 if flip else 1) for a, g in zip(spec.alpha.alphas, gammas)]


def _coords_and_specs(spec: BohrSpec, flip: bool):
    coords = _coord_scans(spec, flip)
    return coords, [ThresholdSpec.for_fixed(c, t, spec.N) for c, t in zip(coords, spec.delta)]


def enumerate_bohr(spec: BohrSpec, mode: str = "symmetric") -> BohrSet:
    """Exact membership scan; lifts stay unmaterialized (see lift_bohr)."""
    if mode not in ("symmetric", "positive"):
        raise ValidationError("mode must be symmetric or positive")
    coords, tspecs = _coords_and_specs(spec, flip=False)
    if mode == "positive":
        mem = members_in_range(coords, tspecs, 1, spec.N)
    else:
        pos = members_in_range(coords, tspecs, 0, spec.N)
        neg = members_in_range(*_coords_and_specs(spec, flip=True), 1, spec.N)
        mem = np.concatenate([-neg[::-1], pos]) if len(neg) else pos
    return BohrSet(spec, mode, mem)


def _unfolded(spec: BohrSpec, n: int, i: int, extra: int = 0) -> FixedReal:
    """n*alpha_i - gamma_i before folding, refined by extra bits."""
    a = spec.alpha.alphas[i]
    g = spec.gammas()[i]
    if extra:
        a = a.refined(a.scale + extra)
        g = g.refined(g.scale + extra)
    return a.mul_int(n) - g


def _nearest_int(spec: BohrSpec, n: int, i: int) -> int:
    """The integer nearest to n*alpha_i - gamma_i, decided exactly."""

    def step(extra):
        th = _unfolded(spec, n, i, extra)
        one = 1 << th.scale
        q, r = divmod(th.man + (one >> 1), one)
        if r > th.err and one - r > th.err:
            return q
        if th.err == 0 and r == 0:
            raise AmbiguousLift(f"n={n} sits exactly half-way on coordinate {i}")
        return UNDECIDED

    return certify(step, "cannot resolve the nearest integer at n={n}", n=n, coord=i)


def lift_bohr(bset: BohrSet) -> BohrSet:
    """Materialize the nearest-integer witnesses (n, a_1..a_{k-1}) per member.

    Requires every width < 1/2, otherwise witnesses need not be unique.
    """
    spec = bset.spec
    for t in spec.delta:
        ex = t.exact()
        hi = t.bounds()[1]
        if (ex is not None and ex >= Q(1, 2)) or (ex is None and hi >= Q(1, 2)):
            raise AmbiguousLift("widths >= 1/2 admit multiple witnesses; use all_lifts")
    lifted = []
    for n in bset.members:
        n = int(n)
        lifted.append((n,) + tuple(_nearest_int(spec, n, i) for i in range(spec.d)))
    bset.lifted = lifted
    return bset


def all_lifts(spec: BohrSpec, n: int) -> list[tuple[int, ...]]:
    """Every witness vector (n, a_1..a_d) with |n*alpha_i - gamma_i - a_i| <= delta_i.

    Needed when widths reach 1/2, where two witnesses per coordinate can occur.
    """
    per_coord = []
    for i in range(spec.d):
        th = _unfolded(spec, n, i)
        tlo, thi = th.bounds()
        dhi = spec.delta[i].bounds()[1]
        lo = math.floor(tlo - dhi)
        hi = math.ceil(thi + dhi)
        per_coord.append([a for a in range(lo, hi + 1) if _witness_le(spec, n, i, a)])
    if any(not c for c in per_coord):
        return []
    return [(n,) + tail for tail in product(*per_coord)]


def _witness_le(spec: BohrSpec, n: int, i: int, a: int) -> bool:
    """Certified |n*alpha_i - gamma_i - a| <= delta_i, against the exact width
    when it is rational."""
    width = spec.delta[i]
    exact = width.exact()

    def step(extra):
        d = (_unfolded(spec, n, i, extra) - fr_from_int(a, spec.scale + extra)).abs_()
        c = cmp_fixed(d, exact if exact is not None else width.refined(width.scale + extra))
        return UNDECIDED if c is None else c <= 0

    return certify(step, "witness boundary undecidable at n={n}", n=n, coord=i)


def restricted_bohr(spec: BohrSpec) -> BohrSet:
    """Members restricted to N^sqrt(epsilon) <= n <= N (positive range)."""
    lo = ceil_pow_sqrt(spec.N, spec.epsilon)
    return BohrSet(spec, "restricted", members_in_range(*_coords_and_specs(spec, flip=False), lo, spec.N))


# -- structural checks used by tests and the gap pipeline ----------------


def is_member(spec: BohrSpec, n: int) -> bool:
    """Exact single-point membership test (any integer n, no range bound)."""
    coords = _coord_scans(spec, n < 0)
    return all(c.dist_le(abs(n), t, at=n, coord=i) for i, (c, t) in enumerate(zip(coords, spec.delta)))


def shift_injection_holds(spec: BohrSpec, bset: BohrSet) -> bool:
    """n -> n - n0, n0 the first member, must send the set into the doubled
    homogeneous set B^0(N; 2*delta)."""
    if bset.cardinality == 0:
        return True
    shifted = bset.members.astype(np.int64) - int(bset.members[0])
    if int(np.abs(shifted).max()) > spec.N:
        return False
    doubled = enumerate_bohr(spec.scaled(spec.N, 2, 1), "symmetric")
    return bool(np.isin(shifted, doubled.members).all())
