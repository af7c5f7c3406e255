"""Proper generalised arithmetic progressions inside and outside Bohr sets.

inner_gap builds P = {b + n_1 A_1 + ... + n_k A_k : 1 <= n_i <= N_i} with
moduli from a certified unimodular basis of the shrunken lifted set, lengths
N_i = floor(1/(k m_i)) in R-gauge units, and a base point found by an exact
scan.  Every postcondition (P inside the Bohr set, properness, coprimality,
base-point window) is verified elementwise, never assumed.  outer_gap builds
the covering progression P' with lengths C_k/m_i and verifies that every lift
of the homogeneous Bohr set decomposes over the basis within those lengths,
taking the lifts line by line from the lattice walk, so it scans no n and has
no 31-bit limit.  Finite-N failures surface as typed errors with diagnostics;
they are expected behaviour for parameter ranges where the asymptotic
argument has no room.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .errors import (
    BasePointDrift,
    BudgetExceeded,
    ConstructionError,
    LengthUnderflow,
    MinimaDegenerate,
    NoBasePoint,
    SmallDirichletWitness,
    ValidationError,
)
from .lattice import adjugate, det, line_cut
from .minima import (
    GaugeVal,
    MinimaResult,
    ball_lines,
    build_body,
    gauge_interval,
    successive_minima,
)
from .realfield import UNDECIDED, BohrSpec, TargetVector, _iroot, certify, cmp_pow

if TYPE_CHECKING:  # numpy, bohr and scan load only where a box is built or n scanned
    import numpy as np

    from .scan import CoordScan, ThresholdSpec

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
    """floor(num/m) (toward zero for num < 0) with certified agreement of
    both interval ends, by integer division: num/m = n*D/(d*key)."""
    sign, n, d = (1 if num >= 0 else -1), abs(num.numerator), num.denominator

    def step(extra):
        cur = gauge_interval(body, g.vec, extra) if extra else g
        if cur.kex is not None:
            return sign * (n * cur.den // (d * cur.kex))
        if cur.klo > 0:
            f_lo = n * cur.den // (d * cur.khi)
            if f_lo == n * cur.den // (d * cur.klo):
                return sign * f_lo
        return UNDECIDED

    return certify(step, "{} undecidable at {}", what, g.vec)


def _dirichlet_tspec(coord: CoordScan, q: int, r: int, n_max: int) -> ThresholdSpec:
    """Membership ||n*alpha|| <= q^(-1/r), decided exactly on the boundary."""
    from .scan import ThresholdSpec

    x = _iroot((1 << (r * coord.scale)) // q, r)
    e = coord.err_int(n_max)

    def exact(n: int) -> bool:
        return coord.dist_cmp_pow(n, q, Q(1, r * r), -1, "Dirichlet boundary undecidable at n={n}") <= 0

    return ThresholdSpec(x - e - 2, x + e + 2, exact)


def _cramer(basis):
    """The map point -> n with point = sum n_i v_i over the rows v_i of basis,
    built once per basis: n = point . adj(V)/det(V) by Cramer's rule."""
    rows = [list(v) for v in basis]
    d = det(rows)
    cols = list(zip(*adjugate(rows)))

    def coeffs(point) -> tuple[int, ...]:
        qr = [divmod(sum(int(x) * a for x, a in zip(point, col)), d) for col in cols]
        if any(r for _, r in qr):
            raise ConstructionError("non-integral decomposition over a unimodular basis")
        return tuple(q for q, _ in qr)

    return coeffs


# -- element materialization -------------------------------------------------


def _box_values(gap: GAP, budget: int) -> np.ndarray:
    """b + sum n_i A_i in row-major coefficient order, within both budgets."""
    import numpy as np

    size = gap.box_size()
    if size > budget:
        raise BudgetExceeded(f"coefficient box of {size} exceeds budget {budget}")
    if size > 4 * 10**7:
        raise BudgetExceeded("coefficient box too large to materialize in memory")
    return _values(gap.b, gap.moduli, gap.lengths, gap.form == "positive")


def _values(b: int, moduli, lengths, positive: bool) -> np.ndarray:
    """b + sum n_i A_i over the box of the given moduli and lengths, row-major."""
    import numpy as np

    vals = np.array([b], dtype=np.int64)
    for A, L in zip(moduli, lengths):
        coeffs = np.arange(1, L + 1, dtype=np.int64) if positive else np.arange(-L, L + 1, dtype=np.int64)
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
    """The coefficients at row-major position flat of the box."""
    pos = gap.form == "positive"
    out = []
    for L in reversed(gap.lengths):
        flat, i = divmod(flat, L if pos else 2 * L + 1)
        out.append(i + 1 if pos else i - L)
    return tuple(reversed(out))


def _collision_pair(gap: GAP, v: int) -> tuple:
    """The coefficients at the two smallest flat indices of the box holding
    the value v, read one row of the first coefficient at a time."""
    import numpy as np

    pos = gap.form == "positive"
    row = _values(gap.b, gap.moduli[1:], gap.lengths[1:], pos)  # b + the other coefficients
    L = gap.lengths[0]
    found = []
    for r, c in enumerate(range(1, L + 1) if pos else range(-L, L + 1)):
        hits = np.flatnonzero(row == v - gap.moduli[0] * c)[: 2 - len(found)]
        found.extend(r * len(row) + int(h) for h in hits)
        if len(found) == 2:
            return tuple(_coeff_vector(gap, f) for f in found)
    raise ConstructionError(f"value {v} repeats in the sorted box but not in its rows")  # unreachable


def _proper_sorted(gap: GAP, budget: int) -> tuple[ProperCertificate, np.ndarray]:
    """Distinctness certificate and the sorted box values, from one box; a
    collision names the two smallest flat indices holding its value."""
    import hashlib  # only the inner box needs a digest; outer_gap never loads OpenSSL

    svals = gap_elements(gap, budget)
    size = gap.box_size()
    same = svals[1:] == svals[:-1]
    if same.any():
        pair = _collision_pair(gap, int(svals[int(same.argmax())]))
        return ProperCertificate(False, len(svals) - int(same.sum()), size, collision=pair), svals
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
    return _inner_gap(spec, budget)[0]


def _containment(spec: BohrSpec, elements: np.ndarray) -> tuple[int, int]:
    """(how many elements miss the positive Bohr set, its cardinality).

    Elements outside 1..N miss it; the others are classified with the
    thresholds and exact callbacks of the scan that counts the set.  That
    scan runs first, so an undecidable n raises as enumerate_bohr would.
    """
    from .bohr import _coords_and_specs
    from .scan import count_failing, count_in_range

    coords, tspecs = _coords_and_specs(spec, flip=False)
    card = count_in_range(coords, tspecs, 1, spec.N)
    inside = elements[(elements >= 1) & (elements <= spec.N)]
    return len(elements) - len(inside) + count_failing(coords, tspecs, inside), card


def _inner_gap(spec: BohrSpec, budget: int):
    """inner_gap's GAP with the certificate and sorted elements of its one box."""
    from .bohr import _coord_scans, is_member
    from .scan import CoordScan, ThresholdSpec, _check_span, first_in_range

    N, k, eps = spec.N, spec.k, spec.epsilon
    if N < 100:
        raise ValidationError("the construction needs N >= 100")
    deltas = spec.delta
    for i, d in enumerate(deltas):
        if d > 1:
            raise ValidationError(f"width {i} exceeds 1; the inner window needs delta <= 1")
    _check_span(N)  # the containment check scans 1..N; fail before any minima work
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
    if not is_member(spec.scaled(1, 10), b):
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
    failures, card = _containment(spec, elements)
    gap.checks = {
        "hypothesis_delta_lower": hyp_lower,
        "containment": failures == 0,
        "containment_failures": failures,
        "proper": cert.proper,
        "proper_sha256": cert.sha256,
        "gcd_moduli": int(math.gcd(*moduli)),
        "element_min": int(elements.min()),
        "element_max": int(elements.max()),
        "box_size": gap.box_size(),
        "bohr_cardinality": card,
        "density_constant": float(Q(gap.box_size()) / body.lam_pow_k),
        "base_point": {"b0": b0, "s": s, "b": b},
    }
    if failures:
        raise ConstructionError(f"{failures} elements escape the Bohr set; construction invalid")
    if not cert.proper:
        raise ConstructionError(f"progression not proper; collision {cert.collision}")
    trace.append(
        f"verified: {len(elements)} elements inside the Bohr set, proper, gcd 1"
    )
    return gap, (cert, elements)


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


def _lift_lines(spec: BohrSpec, budget: Optional[int] = None):
    """(b, lines, count) for the lifts of B^0(N; delta): 0 and +-(x*b + r)
    for x in lo..hi over the lines of ball_lines.  A lift (n, a_1..a_d) has
    |n| <= N and |alpha_i n - a_i| <= delta_i, that is m <= 10 on
    build_body(spec).  With a budget the walk stops as soon as the lifts
    found pass it."""
    body = build_body(spec)
    count = 1

    def kept(lo, hi):
        nonlocal count
        count += 2 * (hi - lo + 1)
        if budget is not None and count > budget:
            raise BudgetExceeded(f"more than {budget} lifts to verify")

    lines = ball_lines(body, Q(10), lambda: None, kept)
    return body.reduced.b, lines, count


def _lift_coeff_check(spec: BohrSpec, minima: MinimaResult, lengths, budget: int):
    """Decompose every lift of B^0(N; delta) over the basis; return (count, failures).

    The lifts come from _lift_lines, whose walk raises BudgetExceeded as
    soon as the lifts found pass budget.  The coefficients (_cramer) are
    affine along a line, so the x inside the box |n_i| <= L_i are one
    sub-interval (line_cut); every other x on the line fails, and so does
    its negative.  The origin decomposes to 0 and never fails.
    """
    b, lines, count = _lift_lines(spec, budget)
    coeffs = _cramer(minima.basis)
    slopes = coeffs(b)
    failures = 0
    for r, lo, hi in lines:
        cut = line_cut(lo, hi, zip(slopes, coeffs(r), lengths))
        failures += 2 * (hi - lo + 1 - (cut[1] - cut[0] + 1 if cut else 0))
    return count, failures


def _bohr_count(spec: BohrSpec) -> int:
    """#B^0(N; delta) by lattice lines.  A width >= 1/2 rules out no n, so its
    coordinate is dropped; with every width left below 1/2 each member has
    exactly one lift, so the lifts count the members (2N + 1 with none left)."""
    keep = [i for i, dl in enumerate(spec.delta) if dl < Q(1, 2)]
    if not keep:
        return 2 * spec.N + 1
    alpha = TargetVector(tuple(spec.alpha.alphas[i] for i in keep))
    return _lift_lines(BohrSpec(alpha, None, spec.N, tuple(spec.delta[i] for i in keep), spec.epsilon))[2]


def outer_gap(spec: BohrSpec, c_k=None, budget: int = 10**8) -> GAP:
    """Symmetric GAP P' containing the homogeneous B^0(N; delta), verified.

    Every lift of every member must decompose over the basis with |n_i| <= N_i.
    The default coefficient constant is the certified Cramer bound for this
    instance, which makes containment provable; pass c_k to override.
    The lifts are counted and checked by lattice lines, so N may pass 2^31;
    the walk raises BudgetExceeded as soon as the lifts found pass budget,
    whatever the constant.
    """
    if not spec.is_homogeneous():
        raise ValidationError("outer structure is stated for the homogeneous set")
    if c_k is not None and not 0 < c_k < math.inf:
        raise ValidationError("c_k must be finite and positive")
    N, k, eps = spec.N, spec.k, spec.epsilon
    if N < 100:
        raise ValidationError("the construction needs N >= 100")
    deltas = spec.delta
    hyp_lower = all(cmp_pow(d, d, N, eps, -1) >= 0 for d in deltas)

    body = build_body(spec)
    minima = successive_minima(body)
    c_k = Q(_cramer_constant(body, minima) if c_k is None else c_k)
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

    checked_lifts, failures = _lift_coeff_check(spec, minima, lengths, budget)
    if failures:
        raise ConstructionError(f"{failures} lifts escape the coefficient box")
    # with every width below 1/2 each member has one lift; else count again
    card = checked_lifts if all(dl < Q(1, 2) for dl in deltas) else _bohr_count(spec)
    box = gap.box_size()
    realized = Q(box) / body.lam_pow_k
    gap.checks = {
        "hypothesis_delta_lower": hyp_lower,
        "containment": True,
        "containment_failures": [],
        "checked_lifts": checked_lifts,
        "bohr_cardinality": card,
        "box_size": box,
        "realized_constant": float(realized),
        "c_k": float(c_k),
    }
    trace.append(f"verified: {checked_lifts} lifts decompose inside the box")
    return gap


# -- cardinality corollary ----------------------------------------------------


def cardinality_ratio(spec: BohrSpec) -> dict:
    """#B / (delta_1..delta_{k-1} N) on the symmetric set, plus the shift check."""
    from .bohr import BohrSet, enumerate_bohr, shift_injection_holds

    deltas = spec.delta
    for i, d in enumerate(deltas):
        if d > 1:
            raise ValidationError(f"width {i} exceeds 1")
    hyp_lower = all(cmp_pow(d, d, spec.N, spec.epsilon, -1) >= 0 for d in deltas)
    sym = enumerate_bohr(spec, "symmetric")
    pos = BohrSet(spec, "positive", sym.members[sym.members >= 1])  # the n >= 1 half of one scan
    ratio = Q(sym.cardinality) / build_body(spec).lam_pow_k
    return {
        "cardinality": sym.cardinality,
        "cardinality_positive": pos.cardinality,
        "ratio": float(ratio),
        "ratio_exact": str(ratio),
        "hypothesis_delta_lower": hyp_lower,
        "shift_injection": shift_injection_holds(spec, pos),
    }
