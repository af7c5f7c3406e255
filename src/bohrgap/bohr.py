"""Inhomogeneous Bohr sets: enumeration, integer lifts, and the shrunken
homogeneous / totient-restricted variants.

A Bohr set here is B_gamma(N; delta) = {n : ||n*alpha_i - gamma_i|| <= delta_i},
taken over |n| <= N (symmetric) or 1 <= n <= N (positive).  Membership is
non-strict and every boundary case is decided exactly; indecisive irrational
ties raise PrecisionExhausted rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from typing import Optional

import numpy as np

from .errors import AmbiguousLift, ValidationError
from .realfield import UNDECIDED, BohrSpec, ceil_pow_sqrt, certify, cmp_fixed, fr_from_int
from .scan import CoordScan, ThresholdSpec, all_pass, members_in_range

Q = Fraction


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
    return coords, [ThresholdSpec.for_fraction(c, t, spec.N) for c, t in zip(coords, spec.delta)]


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


def _nearest_int(coord: CoordScan, n: int, i: int) -> int:
    """The integer nearest to n*alpha_i - gamma_i, decided exactly; coord is
    coordinate i's scanner."""

    def step(extra):
        th = coord.unfolded(n, extra)
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
    if any(t >= Q(1, 2) for t in spec.delta):
        raise AmbiguousLift("widths >= 1/2 admit multiple witnesses; use all_lifts")
    coords = _coord_scans(spec)
    lifted = []
    for n in bset.members:
        n = int(n)
        lifted.append((n,) + tuple(_nearest_int(c, n, i) for i, c in enumerate(coords)))
    bset.lifted = lifted
    return bset


def all_lifts(spec: BohrSpec, n: int) -> list[tuple[int, ...]]:
    """Every witness vector (n, a_1..a_d) with |n*alpha_i - gamma_i - a_i| <= delta_i.

    Needed when widths reach 1/2, where two witnesses per coordinate can occur.
    """
    per_coord = []
    for i, coord in enumerate(_coord_scans(spec)):
        tlo, thi = coord.unfolded(n).bounds()
        lo = math.floor(tlo - spec.delta[i])
        hi = math.ceil(thi + spec.delta[i])
        per_coord.append([a for a in range(lo, hi + 1) if _witness_le(spec, n, i, a, coord)])
    if any(not c for c in per_coord):
        return []
    return [(n,) + tail for tail in product(*per_coord)]


def _witness_le(spec: BohrSpec, n: int, i: int, a: int, coord: Optional[CoordScan] = None) -> bool:
    """Certified |n*alpha_i - gamma_i - a| <= delta_i; coord is coordinate i's
    scanner, built if not given."""
    coord = _coord_scans(spec)[i] if coord is None else coord

    def step(extra):
        d = (coord.unfolded(n, extra) - fr_from_int(a, spec.scale + extra)).abs_()
        c = cmp_fixed(d, spec.delta[i])
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
    homogeneous set B^0(N; 2*delta).

    B^0 is symmetric, so each |n - n0| is tested directly against it, with
    the thresholds and exact callbacks of the B^0 scan.
    """
    if bset.cardinality == 0:
        return True
    shifted = np.abs(bset.members.astype(np.int64) - int(bset.members[0]))
    if int(shifted.max()) > spec.N:
        return False
    return all_pass(*_coords_and_specs(replace(spec.scaled(2, 1), gamma=None), flip=False), shifted)
