"""Proper generalised arithmetic progressions inside and outside Bohr sets.

inner_gap builds P = {b + n_1 A_1 + ... + n_k A_k : 1 <= n_i <= N_i} with
moduli from a certified unimodular basis of the shrunken lifted set, lengths
N_i = floor(1/(k m_i)) in R-gauge units, and a base point found by an exact
scan.  Every postcondition (P inside the Bohr set, properness, coprimality,
base-point window) is verified elementwise, never assumed.  outer_gap builds
the covering progression P' with lengths C_k/m_i and verifies that every lift
of the homogeneous Bohr set decomposes over the basis within those lengths.
Finite-N failures surface as typed errors with diagnostics; they are expected
behaviour for parameter ranges where the asymptotic argument has no room.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .bohr import (
    BohrSet,
    BohrSpec,
    _coord_scans,
    _witness_le,
    enumerate_bohr,
    is_member,
    shift_injection_holds,
)
from .errors import (
    BasePointDrift,
    BudgetExceeded,
    ConstructionError,
    LengthUnderflow,
    MinimaDegenerate,
    NoBasePoint,
    PrecisionExhausted,
    SmallDirichletWitness,
    ValidationError,
)
from .lattice import adjugate, det
from .minima import (
    GaugeVal,
    MinimaResult,
    build_body,
    gauge_interval,
    successive_minima,
)
from .realfield import UNDECIDED, _iroot, certify, cmp_pow
from .scan import CoordScan, ThresholdSpec, _check_span, _words_le, first_in_range

Q = Fraction


@dataclass
class GAP:
    """b + {n_1 A_1 + ... + n_k A_k} over a positive or symmetric box."""

    b: int
    moduli: tuple[int, ...]
    lengths: tuple[int, ...]
    form: str  # positive (1 <= n_i <= N_i) | symmetric (|n_i| <= N_i)
    sigma: tuple[int, ...]  # signs of the basis first coordinates
    minima: Optional[MinimaResult] = None
    checks: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)

    @property
    def k(self) -> int:
        return len(self.moduli)

    def box_size(self) -> int:
        if self.form == "positive":
            return math.prod(self.lengths)
        return math.prod(2 * L + 1 for L in self.lengths)

    def to_dict(self) -> dict:
        return {
            "b": self.b,
            "moduli": list(self.moduli),
            "lengths": list(self.lengths),
            "form": self.form,
            "sigma": list(self.sigma),
            "box_size": self.box_size(),
            "checks": self.checks,
            "trace": list(self.trace),
            "minima": self.minima.to_dict() if self.minima is not None else None,
        }


# -- small exact helpers ----------------------------------------------------


def _floor_over_gauge(body, g: GaugeVal, num: Fraction, what: str) -> int:
    """floor(num/m) with certified agreement of both interval ends."""

    def step(extra):
        cur = gauge_interval(body, g.vec, extra) if extra else g
        if cur.exact is not None:
            return int(num / cur.exact)
        if cur.lo > 0:
            f_lo = int(num / cur.hi)
            f_hi = int(num / cur.lo)
            if f_lo == f_hi:
                return f_lo
        return UNDECIDED

    return certify(step, "{} undecidable at {}", what, g.vec)


def _dirichlet_tspec(coord: CoordScan, q: int, r: int, n_max: int) -> ThresholdSpec:
    """Membership ||n*alpha|| <= q^(-1/r), decided exactly on the boundary."""
    x = _iroot((1 << (r * coord.scale)) // q, r)
    e = coord.err_int(n_max)

    def exact(n: int) -> bool:
        return coord.dist_cmp_pow(n, q, Q(1, r * r), -1, "Dirichlet boundary undecidable at n={n}") <= 0

    return ThresholdSpec(x - e - 2, x + e + 2, exact)


def decompose(minima: MinimaResult, point) -> tuple[int, ...]:
    """Integer coefficients n with point = sum n_i v_i (rows of the basis)."""
    rows = [list(v) for v in minima.basis]
    d = det(rows)
    adj = adjugate(rows)
    point = [int(x) for x in point]
    k = len(rows)
    # point = n . V  =>  n = point . V^{-1} = point . adj(V)/det
    out = []
    for j in range(k):
        s = sum(point[i] * adj[i][j] for i in range(k))
        if s % d:
            raise ConstructionError("non-integral decomposition over a unimodular basis")
        out.append(s // d)
    return tuple(out)


# -- element materialization -------------------------------------------------


def _box_values(gap: GAP, budget: int) -> np.ndarray:
    """b + sum n_i A_i in row-major coefficient order, within both budgets."""
    size = gap.box_size()
    if size > budget:
        raise BudgetExceeded(f"coefficient box of {size} exceeds budget {budget}")
    if size > 4 * 10**7:
        raise BudgetExceeded("coefficient box too large to materialize in memory")
    vals = np.array([gap.b], dtype=np.int64)
    for A, L in zip(gap.moduli, gap.lengths):
        coeffs = np.arange(1, L + 1, dtype=np.int64) if gap.form == "positive" else np.arange(-L, L + 1, dtype=np.int64)
        vals = (vals[:, None] + (A * coeffs)[None, :]).ravel()
    return vals


def gap_elements(gap: GAP, budget: int = 10**8) -> np.ndarray:
    """All values b + sum n_i A_i over the coefficient box, sorted, duplicates kept."""
    vals = _box_values(gap, budget)
    vals.sort()
    return vals


@dataclass
class ProperCertificate:
    proper: bool
    count_distinct: int
    box_size: int
    sha256: Optional[str] = None
    collision: Optional[tuple] = None  # two coefficient vectors with equal value

    def to_dict(self) -> dict:
        return {
            "proper": self.proper,
            "count_distinct": self.count_distinct,
            "box_size": self.box_size,
            "sha256": self.sha256,
            "collision": [list(c) for c in self.collision] if self.collision else None,
        }


def _coeff_vector(gap: GAP, flat: int) -> tuple[int, ...]:
    dims = []
    for L in gap.lengths:
        dims.append(L if gap.form == "positive" else 2 * L + 1)
    idx = np.unravel_index(flat, dims)
    if gap.form == "positive":
        return tuple(int(i) + 1 for i in idx)
    return tuple(int(i) - L for i, L in zip(idx, gap.lengths))


def _proper_sorted(gap: GAP, budget: int) -> tuple[ProperCertificate, np.ndarray]:
    """Distinctness certificate and the sorted box values, from one box."""
    vals = _box_values(gap, budget)
    size = gap.box_size()
    order = np.argsort(vals, kind="stable")
    svals = vals[order]
    same = svals[1:] == svals[:-1]
    if same.any():
        i = int(same.argmax())
        pair = (_coeff_vector(gap, int(order[i])), _coeff_vector(gap, int(order[i + 1])))
        return ProperCertificate(False, len(svals) - int(np.count_nonzero(same)), size, collision=pair), svals
    digest = hashlib.sha256(svals.astype("<i8").tobytes()).hexdigest()
    return ProperCertificate(True, size, size, sha256=digest), svals


def is_proper(gap: GAP, budget: int = 10**8) -> ProperCertificate:
    """Exhaustive distinctness check over the coefficient box."""
    return _proper_sorted(gap, budget)[0]


# -- the inner construction ---------------------------------------------------


def inner_gap(spec: BohrSpec, budget: int = 10**8) -> GAP:
    """Proper GAP inside B_gamma(N; delta), all postconditions verified.

    Raises typed construction errors when the finite-N search has no room:
    NoBasePoint, SmallDirichletWitness, LengthUnderflow, BasePointDrift.
    """
    N, k, eps = spec.N, spec.k, spec.epsilon
    if N < 100:
        raise ValidationError("the construction needs N >= 100")
    deltas = spec.delta_fractions()
    for i, d in enumerate(deltas):
        if d > 1:
            raise ValidationError(f"width {i} exceeds 1; the inner window needs delta <= 1")
    # the delta >= N^-eps hypothesis is asymptotic; at finite N we record its
    # status and let the verified postconditions decide the construction
    hyp_lower = all(cmp_pow(d, d, N, eps * eps, -1) >= 0 for d in deltas)
    trace = [f"hypotheses: N={N}, k={k}, eps={eps}, delta lower bound {'ok' if hyp_lower else 'short'}"]

    body = build_body(spec)
    minima = successive_minima(body)
    trace.append(f"basis {minima.basis} with det {minima.det_sign}")

    moduli = []
    sigma = []
    for v in minima.basis:
        a = abs(v[0])
        if a == 0:
            raise MinimaDegenerate(f"basis vector {v} projects to 0; moduli must be positive")
        moduli.append(a)
        sigma.append(1 if v[0] > 0 else -1)
    if math.gcd(*moduli) != 1:
        raise ConstructionError("moduli share a factor despite unimodular basis")  # unreachable
    trace.append(f"moduli A={moduli}, sigma={sigma}")

    lengths = []
    for g in minima.basis_m:
        L = _floor_over_gauge(body, g, Q(1, k), "length parameter")
        lengths.append(L)
    if any(L < 1 or cmp_pow(L, L, N, eps * eps) < 0 for L in lengths):
        raise LengthUnderflow(
            f"lengths {lengths} fall below N^epsilon = {N}^{eps}; "
            "the minima leave no room at this N and delta"
        )
    trace.append(f"lengths N_i={lengths}")

    # base point: b0 then the Dirichlet adjustment s, both smallest witnesses
    n20 = N // 20
    coords = _coord_scans(spec)
    tspecs = [ThresholdSpec.for_fraction(c, d / 20, n20) for c, d in zip(coords, deltas)]
    b0 = first_in_range(coords, tspecs, 1, n20)
    if b0 is None:
        raise NoBasePoint(f"no b0 <= {n20} matches the shifted window delta/20")
    trace.append(f"b0={b0}")

    hcoords = [CoordScan(a) for a in spec.alpha.alphas]
    dspecs = [_dirichlet_tspec(c, n20, k - 1, n20) for c in hcoords]
    s = first_in_range(hcoords, dspecs, 1, n20)
    if s is None:
        raise ConstructionError("no Dirichlet witness below N/20")  # excluded by Dirichlet's theorem
    if cmp_pow(s, s, N, eps) < 0:
        raise SmallDirichletWitness(
            f"s={s} sits below N^sqrt(eps); the base point cannot clear the lower window"
        )
    b = b0 + s
    trace.append(f"s={s}, b={b}")

    # base point window and drift, verified exactly
    if not (cmp_pow(b, b, N, eps) >= 0 and 10 * b <= N):
        raise BasePointDrift(f"b={b} outside [N^sqrt(eps), N/10]")
    # scaled() drops gamma, so rebuild the delta/10 window around the shift
    tenth = spec.scaled(N, 1, 10)
    tenth = BohrSpec(spec.alpha, spec.gamma, N, tenth.delta, spec.epsilon)
    if not is_member(tenth, b):
        raise BasePointDrift(f"b={b} misses the delta/10 window; triangle chain broke at finite N")
    trace.append("base point window verified")

    gap = GAP(
        b=b,
        moduli=tuple(moduli),
        lengths=tuple(lengths),
        form="positive",
        sigma=tuple(sigma),
        minima=minima,
        trace=trace,
    )

    cert, elements = _proper_sorted(gap, budget)
    bset = enumerate_bohr(spec, "positive")
    inside = np.isin(elements, bset.members)
    containment = bool(inside.all())
    gap.checks = {
        "hypothesis_delta_lower": hyp_lower,
        "containment": containment,
        "containment_failures": int((~inside).sum()),
        "proper": cert.proper,
        "proper_sha256": cert.sha256,
        "gcd_moduli": int(math.gcd(*moduli)),
        "element_min": int(elements.min()),
        "element_max": int(elements.max()),
        "box_size": gap.box_size(),
        "bohr_cardinality": bset.cardinality,
        "density_constant": float(Q(gap.box_size()) / (math.prod(deltas) * N)),
        "base_point": {"b0": b0, "s": s, "b": b},
    }
    if not containment:
        raise ConstructionError(
            f"{int((~inside).sum())} elements escape the Bohr set; construction invalid"
        )
    if not cert.proper:
        raise ConstructionError(f"progression not proper; collision {cert.collision}")
    trace.append(
        f"verified: {len(elements)} elements inside the Bohr set, proper, gcd 1"
    )
    return gap


# -- the outer construction ---------------------------------------------------


def _cramer_constant(body, minima: MinimaResult) -> Fraction:
    """Certified constant C with |n_i| <= C/m_i for every lift in 10*lambda*S.

    Cramer determinant bound: |det(M_i)| <= k!*(10)*prod_{j!=i} m_j*prod c_l
    in R-gauge units, using the upper ends of the basis gauge intervals.
    """
    k = body.k
    prod = Q(10 * math.factorial(k))
    for c in body.c:
        prod *= c
    for g in minima.basis_m:
        prod *= g.exact if g.exact is not None else g.hi
    return prod


_LIFT_BLOCK = 64  # members in the first block; the block doubles from there
_LIFT_ROWS = 1 << 17  # lifts per block once grown


def _lift_coeff_check(spec: BohrSpec, minima: MinimaResult, lengths, members, budget: int):
    """Decompose every lift of every member; return (count, failures).

    Lifts are counted in itertools.product order (members as given, then the
    witnesses of each coordinate in increasing order), and the check stops
    at the 17th failure, returning its 1-based position.  BudgetExceeded is
    raised when the budget runs out first.

    Members go in growing blocks.  Per coordinate, the limb kernel gives
    I = floor(n*man/2^scale) and f = n*man - I*2^scale exactly, so the
    candidate a = I + off lies at distance |f - off*2^scale|: each candidate
    is decided by comparing f with two scalar bounds, and only the band
    between them goes to _witness_le.  Coefficients d*(P @ adj) are int64
    below an explicit bound and Python ints above it.
    """
    one = 1 << spec.scale
    members = np.asarray(members, dtype=np.int64)
    if len(members):
        _check_span(int(np.abs(members).max()))
    coords = []
    for coord, delta in zip(_coord_scans(spec), spec.delta_fractions()):
        band = ThresholdSpec.for_fraction(coord, delta, spec.N)
        jmax = band.t_out // one
        coords.append((coord, band.t_in, band.t_out, np.arange(-jmax, jmax + 2)))
    shape = [len(offs) for *_, offs in coords]

    rows = [list(v) for v in minima.basis]
    d = det(rows)
    adj = adjugate(rows)  # coeff_j = d * sum_i pt_i * adj[i][j] since d = +-1
    adj_max = [max(abs(x) for x in row) for row in adj]
    failures = []
    checked = 0
    start, size = 0, _LIFT_BLOCK
    while start < len(members):
        ns = members[start : start + size]
        start += len(ns)
        size = min(2 * size, max(_LIFT_BLOCK, _LIFT_ROWS // math.prod(shape)))

        # witnesses: cand[i][b, o] = I_i(n_b) + offs_i[o], kept where keep[i][b, o]
        cand, keep, band = [], [], []
        for i, (coord, din, dout, offs) in enumerate(coords):
            I, f = coord.floor_residue(ns)
            cand.append(I[:, None] + offs[None, :])
            win = np.empty((len(ns), len(offs)), dtype=bool)
            inn = np.empty_like(win)
            for o, off in enumerate(offs.tolist()):
                if off <= 0:  # distance f - off*2^scale
                    win[:, o] = _words_le(f, dout + off * one, len(f))
                    inn[:, o] = _words_le(f, din + off * one, len(f))
                else:  # distance off*2^scale - f
                    win[:, o] = ~_words_le(f, off * one - dout - 1, len(f))
                    inn[:, o] = ~_words_le(f, off * one - din - 1, len(f))
            keep.append(inn)
            band.extend((b, i, o) for b, o in zip(*np.nonzero(win & ~inn)))
        # the exact band in the order the witnesses are needed; members before
        # one whose witness cannot be decided are still checked first
        err = None
        try:
            for b, i, o in sorted(band):
                keep[i][b, o] = _witness_le(spec, int(ns[b]), i, int(cand[i][b, o]))
        except PrecisionExhausted as e:
            err, ns = e, ns[:b]
            keep = [x[:b] for x in keep]

        grid = keep[0]
        for x in keep[1:]:
            grid = (grid[:, :, None] & x[:, None, :]).reshape(len(grid), grid.shape[1] * x.shape[1])
        mem, combo = np.nonzero(grid)
        picks = np.unravel_index(combo, shape)
        cols = [ns[mem]] + [c[mem, p] for c, p in zip(cand, picks)]
        if len(mem):
            bound = sum(int(np.abs(c).max()) * m for c, m in zip(cols, adj_max))
            dt = np.int64 if bound < 1 << 62 else object
            pts = np.stack(cols, axis=1).astype(dt)
            coeffs = d * (pts @ np.array(adj, dtype=dt))
            lim = np.array([min(L, bound) for L in lengths], dtype=dt)  # |coeff| <= bound
            bad = np.flatnonzero((np.abs(coeffs) > lim).any(axis=1))
            need = 17 - len(failures)
            hit = checked + int(bad[need - 1]) + 1 if len(bad) >= need else None
            if (checked + len(pts) if hit is None else hit) > budget:
                raise BudgetExceeded(f"more than {budget} lifts to verify")
            for f in bad[:need].tolist():
                pt = tuple(int(x) for x in pts[f])
                failures.append((pt[0], pt, tuple(int(x) for x in coeffs[f])))
            if hit:
                return hit, failures
            checked += len(pts)
        if err is not None:
            raise err
    return checked, failures


def outer_gap(spec: BohrSpec, c_k=None, budget: int = 10**8) -> GAP:
    """Symmetric GAP P' containing the homogeneous B^0(N; delta), verified.

    Every lift of every member must decompose over the basis with |n_i| <= N_i.
    The default coefficient constant is the certified Cramer bound for this
    instance, which makes containment provable; pass c_k to override.
    """
    if not spec.is_homogeneous():
        raise ValidationError("outer structure is stated for the homogeneous set")
    N, k, eps = spec.N, spec.k, spec.epsilon
    if N < 100:
        raise ValidationError("the construction needs N >= 100")
    deltas = spec.delta_fractions()
    hyp_lower = all(cmp_pow(d, d, N, eps, -1) >= 0 for d in deltas)

    body = build_body(spec)
    minima = successive_minima(body)
    if c_k is None:
        c_k = _cramer_constant(body, minima)
    c_k = Q(c_k)
    trace = [
        f"hypotheses: N={N}, k={k}, tau=sqrt({eps}), C_k={float(c_k):.6g}, "
        f"delta lower bound {'ok' if hyp_lower else 'short'}"
    ]
    trace.append(f"basis {minima.basis} with det {minima.det_sign}")

    moduli = tuple(abs(v[0]) for v in minima.basis)
    sigma = tuple(1 if v[0] > 0 else (-1 if v[0] < 0 else 0) for v in minima.basis)
    lengths = []
    for g in minima.basis_m:
        lengths.append(_floor_over_gauge(body, g, c_k, "outer length"))
    if any(L < 1 or cmp_pow(L, L, N, eps) < 0 for L in lengths):
        raise LengthUnderflow(
            f"lengths {lengths} fall below N^tau = {N}^sqrt({eps}); "
            "the minima leave no room at this N and delta"
        )
    trace.append(f"moduli A={list(moduli)}, lengths N_i={lengths}")

    gap = GAP(
        b=0,
        moduli=moduli,
        lengths=tuple(lengths),
        form="symmetric",
        sigma=sigma,
        minima=minima,
        trace=trace,
    )

    bset = enumerate_bohr(spec, "symmetric")
    checked_lifts, failures = _lift_coeff_check(spec, minima, lengths, bset.members, budget)
    containment = not failures
    box = gap.box_size()
    dprod = Q(1)
    for d in deltas:
        dprod *= d
    realized = Q(box) / (dprod * N)
    gap.checks = {
        "hypothesis_delta_lower": hyp_lower,
        "containment": containment,
        "containment_failures": [
            {"n": f[0], "lift": list(f[1]), "coeffs": list(f[2])} for f in failures[:4]
        ],
        "checked_lifts": checked_lifts,
        "bohr_cardinality": bset.cardinality,
        "box_size": box,
        "realized_constant": float(realized),
        "c_k": float(c_k),
    }
    if not containment:
        raise ConstructionError(
            f"{len(failures)}+ lifted members escape the coefficient box"
        )
    trace.append(f"verified: {checked_lifts} lifts decompose inside the box")
    return gap


# -- cardinality corollary ----------------------------------------------------


def cardinality_ratio(spec: BohrSpec) -> dict:
    """#B / (delta_1..delta_{k-1} N) on the symmetric set, plus the shift check."""
    deltas = spec.delta_fractions()
    for i, d in enumerate(deltas):
        if d > 1:
            raise ValidationError(f"width {i} exceeds 1")
    hyp_lower = all(cmp_pow(d, d, spec.N, spec.epsilon, -1) >= 0 for d in deltas)
    sym = enumerate_bohr(spec, "symmetric")
    pos = BohrSet(spec, "positive", sym.members[sym.members >= 1])  # the n >= 1 half of one scan
    dprod = Q(1)
    for d in deltas:
        dprod *= d
    ratio = Q(sym.cardinality) / (dprod * spec.N)
    return {
        "cardinality": sym.cardinality,
        "cardinality_positive": pos.cardinality,
        "ratio": float(ratio),
        "ratio_exact": str(ratio),
        "hypothesis_delta_lower": hyp_lower,
        "shift_injection": shift_injection_holds(spec, pos),
    }
