"""Inner and outer progression construction against brute-force oracles.

The oracles here avoid the library's scan/minima machinery entirely:
membership via 60-digit mpmath, decomposition via Fraction Gaussian
elimination, witness minimality via direct scans.
"""

import hashlib
import itertools
import math
import time
from fractions import Fraction as Q
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrgap import bohr
from bohrgap import minima as minima_mod
from bohrgap.bohr import BohrSpec, enumerate_bohr
from bohrgap.errors import (
    BudgetExceeded,
    ConstructionError,
    LengthUnderflow,
    PrecisionExhausted,
    SmallDirichletWitness,
    ValidationError,
)
from bohrgap.gap import (
    GAP,
    ProperCertificate,
    _bohr_count,
    _box_values,
    _coeff_vector,
    _containment,
    _cramer,
    _cramer_constant,
    _dirichlet_tspec,
    _floor_over_gauge,
    _inner_gap,
    _lift_coeff_check,
    _lift_lines,
    _proper_sorted,
    cardinality_ratio,
    gap_elements,
    inner_gap,
    is_proper,
    outer_gap,
)
from bohrgap.lattice import adjugate, det
from bohrgap.minima import build_body, successive_minima
from bohrgap.realfield import UNDECIDED, RealSpec
from bohrgap.scan import BLOCK, CoordScan


# -- oracles -----------------------------------------------------------------


def mp_values(alpha_texts):
    with mpmath.workdps(60):
        out = []
        for t in alpha_texts:
            kind, _, body = t.partition(":")
            if kind == "sqrt":
                out.append(mpmath.sqrt(int(body)))
            elif kind == "rat":
                p, q = body.split("/") if "/" in body else (body, "1")
                out.append(mpmath.mpf(int(p)) / int(q))
            else:
                out.append(mpmath.mpf(body))
        return out


def mp_dist(x):
    return abs(x - mpmath.nint(x))


def oracle_member(alphas, gammas, n, deltas, slack=Q(0)):
    """||n*alpha_i - gamma_i|| <= delta_i for all i, with 60-digit margin."""
    with mpmath.workdps(60):
        for a, g, d in zip(alphas, gammas, deltas):
            if mp_dist(n * a - g) > mpmath.mpf(d.numerator) / d.denominator + mpmath.mpf(str(slack)):
                return False
    return True


def fraction_solve(basis, point):
    """point = sum c_i basis_i solved by exact Gaussian elimination."""
    k = len(basis)
    # transpose: columns are the basis vectors
    m = [[Q(basis[j][i]) for j in range(k)] + [Q(point[i])] for i in range(k)]
    for col in range(k):
        piv = next(r for r in range(col, k) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        for r in range(k):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                for c in range(col, k + 1):
                    m[r][c] -= f * m[col][c]
    out = []
    for r in range(k):
        v = m[r][k] / m[r][r]
        assert v.denominator == 1
        out.append(int(v))
    return tuple(out)


# -- inner construction ------------------------------------------------------


def test_inner_sqrt2_pinned_and_oracle_verified():
    spec = BohrSpec.build(["sqrt:2"], None, 10**5, ["0.1"], "0.05")
    g = inner_gap(spec)
    assert g.b == 2547
    assert g.moduli == (408, 985)
    assert g.lengths == (5, 5)
    assert g.sigma == (1, 1)
    assert g.form == "positive"
    assert g.checks["base_point"] == {"b0": 169, "s": 2378, "b": 2547}
    assert g.checks["containment"] and g.checks["proper"]
    assert g.checks["gcd_moduli"] == 1
    assert g.checks["bohr_cardinality"] == 20000
    assert (
        g.checks["proper_sha256"]
        == "0ee910e2e5634aeb21d2e3161bebcfbc248f43333a36f6d32ae0139a502dbd42"
    )

    # every element is a Bohr set member per the independent oracle
    (a,) = mp_values(["sqrt:2"])
    els = gap_elements(g)
    assert len(els) == 25
    assert int(els.min()) == 3940 and int(els.max()) == 9512
    for n in els:
        assert 1 <= int(n) <= 10**5
        assert oracle_member([a], [0], int(n), [Q(1, 10)])

    # distinctness and the hash certificate, recomputed from Python ints
    vals = sorted(
        g.b + n1 * 408 + n2 * 985 for n1 in range(1, 6) for n2 in range(1, 6)
    )
    assert len(set(vals)) == 25
    digest = hashlib.sha256(np.array(vals, dtype="<i8").tobytes()).hexdigest()
    assert digest == g.checks["proper_sha256"]


def test_inner_base_point_witnesses_are_minimal():
    # b0: smallest positive integer with ||b0*sqrt2|| <= 0.1/20
    (a,) = mp_values(["sqrt:2"])
    with mpmath.workdps(60):
        thr = mpmath.mpf(1) / 200
        for n in range(1, 169):
            assert mp_dist(n * a) > thr, n
        assert mp_dist(169 * a) <= thr
        # s: smallest with ||s*sqrt2|| <= (N/20)^-1, N = 10^5
        thr2 = mpmath.mpf(1) / 5000
        for n in range(1, 2378):
            assert mp_dist(n * a) > thr2, n
        assert mp_dist(2378 * a) <= thr2


def test_inner_base_point_window_exact():
    spec = BohrSpec.build(["sqrt:2"], None, 10**5, ["0.1"], "0.05")
    g = inner_gap(spec)
    (a,) = mp_values(["sqrt:2"])
    # N^sqrt(eps) <= b <= N/10 and ||b*alpha|| <= delta/10
    with mpmath.workdps(60):
        assert mpmath.power(10**5, mpmath.sqrt(mpmath.mpf(1) / 20)) <= g.b
        assert g.b <= 10**4
        assert mp_dist(g.b * a) <= mpmath.mpf("0.01")


def test_inner_k3_inhomogeneous_pinned():
    spec = BohrSpec.build(
        ["sqrt:2", "sqrt:3"], ["dec:0.3", "dec:0.7"], 10**6, ["0.7", "0.7"], "0.04"
    )
    g = inner_gap(spec)
    assert g.b == 4793
    assert g.moduli == (4109, 12368, 2646)
    assert g.lengths == (6, 2, 2)
    assert g.checks["base_point"] == {"b0": 684, "s": 4109, "b": 4793}
    assert g.checks["containment"] and g.checks["proper"]
    assert g.checks["hypothesis_delta_lower"] is True
    # N_i >= N^eps with eps = 1/25
    for L in g.lengths:
        assert L**25 >= 10**6
    alphas = mp_values(["sqrt:2", "sqrt:3"])
    for n in gap_elements(g):
        assert oracle_member(alphas, [Q(3, 10), Q(7, 10)], int(n), [Q(7, 10)] * 2)


def test_inner_rational_alpha_underflows():
    spec = BohrSpec.build(["rat:1/2"], None, 10**5, ["0.1"], "0.05")
    with pytest.raises(LengthUnderflow):
        inner_gap(spec)


def test_inner_narrow_widths_underflow():
    # genuine finite-N failure: minima too unbalanced at these widths
    spec = BohrSpec.build(
        ["sqrt:2", "sqrt:3"], ["dec:0.3", "dec:0.7"], 10**6, ["0.2", "0.2"], "0.04"
    )
    with pytest.raises(LengthUnderflow):
        inner_gap(spec)


def test_inner_small_dirichlet_witness():
    # alpha = 311/700 + ~2.9e-19: the first Dirichlet witness is s = 700,
    # below N^sqrt(1/4) = 1000, while both lengths clear N^eps
    spec = BohrSpec.build(["dec:0.444285714285714286"], None, 10**6, ["1"], "0.25")
    with pytest.raises(SmallDirichletWitness) as exc:
        inner_gap(spec)
    assert "s=700" in str(exc.value)


def test_inner_rejects_wide_delta():
    spec = BohrSpec.build(["sqrt:2"], None, 10**5, ["1.5"], "0.05")
    with pytest.raises(ValidationError):
        inner_gap(spec)


def test_inner_rejects_small_n():
    spec = BohrSpec.build(["sqrt:2"], None, 99, ["0.5"], "0.05")
    with pytest.raises(ValidationError):
        inner_gap(spec)


def test_inner_hypothesis_status_recorded():
    spec = BohrSpec.build(["sqrt:2"], None, 10**5, ["0.1"], "0.05")
    g = inner_gap(spec)
    # 0.1 < (10^5)^(-1/20) ~ 0.562: below the asymptotic window, still verified
    assert g.checks["hypothesis_delta_lower"] is False
    assert g.checks["containment"] and g.checks["proper"]


# -- element materialization and properness ----------------------------------


def test_gap_elements_positive_example():
    p = GAP(b=1, moduli=(2,), lengths=(3,), form="positive", sigma=(1,))
    assert list(gap_elements(p)) == [3, 5, 7]


def test_gap_elements_symmetric_example():
    p = GAP(b=0, moduli=(1,), lengths=(2,), form="symmetric", sigma=(1,))
    assert list(gap_elements(p)) == [-2, -1, 0, 1, 2]


def test_gap_elements_budget():
    p = GAP(b=0, moduli=(1, 1), lengths=(10**5, 10**4), form="positive", sigma=(1, 1))
    with pytest.raises(BudgetExceeded):
        gap_elements(p)


def test_is_proper_distinct_values():
    p = GAP(b=0, moduli=(2, 3), lengths=(2, 2), form="positive", sigma=(1, 1))
    cert = is_proper(p)
    assert cert.proper and cert.count_distinct == 4 and cert.box_size == 4
    assert cert.sha256 is not None and cert.collision is None
    assert sorted(gap_elements(p)) == [5, 7, 8, 10]


def test_is_proper_collision():
    p = GAP(b=0, moduli=(1, 1), lengths=(2, 2), form="positive", sigma=(1, 1))
    cert = is_proper(p)
    assert not cert.proper and cert.sha256 is None
    u, v = cert.collision
    assert u != v
    assert sum(c * m for c, m in zip(u, p.moduli)) == sum(
        c * m for c, m in zip(v, p.moduli)
    )


@pytest.mark.parametrize("moduli,lengths,form", [
    ((1, 1), (2, 2), "positive"),
    ((2, 3), (5, 4), "symmetric"),
    ((4, 6, 9), (3, 2, 2), "symmetric"),
])
def test_is_proper_counts_distinct_values(moduli, lengths, form):
    p = GAP(b=7, moduli=moduli, lengths=lengths, form=form, sigma=(1,) * len(moduli))
    cert = is_proper(p)
    assert not cert.proper
    assert cert.count_distinct == len(np.unique(gap_elements(p)))


# -- decomposition ------------------------------------------------------------


def test_decompose_basis_and_zero():
    spec = BohrSpec.build(["sqrt:2"], None, 10**5, ["0.1"], "0.05")
    basis = successive_minima(build_body(spec)).basis
    coeffs = _cramer(basis)
    assert coeffs(basis[0]) == (1, 0)
    assert coeffs(basis[1]) == (0, 1)
    assert coeffs((0, 0)) == (0, 0)


def test_decompose_roundtrip_random():
    import random

    spec = BohrSpec.build(["sqrt:2", "sqrt:3"], None, 10**4, ["0.5", "0.5"], "0.05")
    mr = successive_minima(build_body(spec))
    coeffs = _cramer(mr.basis)
    rng = random.Random(11)
    for _ in range(30):
        cs = tuple(rng.randint(-50, 50) for _ in range(3))
        pt = tuple(sum(c * v[j] for c, v in zip(cs, mr.basis)) for j in range(3))
        assert coeffs(pt) == cs
        assert fraction_solve(mr.basis, pt) == cs


# -- outer construction -------------------------------------------------------


def test_outer_sqrt2_pinned_and_oracle_decomposed():
    spec = BohrSpec.build(["sqrt:2"], None, 10**4, ["0.3"], "0.05")
    g = outer_gap(spec)
    assert g.b == 0 and g.form == "symmetric"
    assert g.moduli == (70, 169)
    assert g.lengths == (101, 101)
    assert g.box_size() == 203**2 == 41209
    assert g.checks["containment"] is True
    assert g.checks["checked_lifts"] == 12001 == g.checks["bohr_cardinality"]
    assert g.checks["realized_constant"] == pytest.approx(41209 / 3000, rel=1e-12)

    # independent containment oracle: enumerate members, lift by rounding,
    # decompose by exact Gaussian elimination
    (a,) = mp_values(["sqrt:2"])
    members = enumerate_bohr(spec, "symmetric").members
    basis = g.minima.basis
    with mpmath.workdps(60):
        for n in map(int, members[::37]):
            x = n * a
            lift = (n, int(mpmath.nint(x)))
            assert mp_dist(x) <= mpmath.mpf("0.3")
            cs = fraction_solve(basis, lift)
            assert all(abs(c) <= L for c, L in zip(cs, g.lengths))


def test_outer_full_width_trivial_membership():
    # delta = 2 keeps every |n| <= N; containment still verified elementwise
    spec = BohrSpec.build(["sqrt:2"], None, 200, ["2"], "0.05")
    g = outer_gap(spec)
    assert g.checks["bohr_cardinality"] == 401
    assert g.moduli == (5, 7)
    assert g.lengths == (40, 28)
    assert g.checks["containment"] is True
    assert g.checks["checked_lifts"] > 401  # multiple witnesses per member


def test_outer_k3_realized_constant_pinned():
    spec = BohrSpec.build(["sqrt:2", "sqrt:3"], None, 10**5, ["0.5", "0.5"], "0.05")
    g = outer_gap(spec)
    assert g.moduli == (1463, 2646, 41)
    assert g.lengths == (136, 100, 76)
    assert g.box_size() == 273 * 201 * 153 == 8395569
    assert g.checks["realized_constant"] == pytest.approx(8395569 / 25000, rel=1e-12)
    assert g.checks["containment"] is True


def test_outer_requires_homogeneous():
    spec = BohrSpec.build(["sqrt:2"], ["dec:0.3"], 10**4, ["0.3"], "0.05")
    with pytest.raises(ValidationError):
        outer_gap(spec)


def test_outer_explicit_constant_honored():
    # a deliberately generous override inflates the box but keeps containment
    spec = BohrSpec.build(["sqrt:2"], None, 10**4, ["0.3"], "0.05")
    g = outer_gap(spec, c_k=40)
    assert g.lengths == (237, 236)
    assert g.checks["containment"] is True
    assert g.checks["c_k"] == 40.0


def _half_cramer_case():
    # half the Cramer constant: 2,320 of the 5,603 lifts leave the box
    spec = BohrSpec.build(["sqrt:2"], None, 2000, ["0.7"], "0.05")
    body = build_body(spec)
    return spec, _cramer_constant(body, successive_minima(body)) / 2


def test_outer_undersized_constant_counts_every_failing_lift():
    spec, c_k = _half_cramer_case()
    assert _lift_lines(spec)[2] == 5603
    with pytest.raises(ConstructionError, match=r"^2320 lifts escape the coefficient box$"):
        outer_gap(spec, c_k=c_k)


def test_outer_undersized_constant_stops_at_the_lift_budget():
    # the walk is charged whatever the constant, so a budget one lift short
    # raises before any lift is decomposed
    spec, c_k = _half_cramer_case()
    with pytest.raises(BudgetExceeded, match=r"^more than 5602 lifts to verify$"):
        outer_gap(spec, c_k=c_k, budget=5602)


@pytest.mark.parametrize("c_k", [0, Q(-1, 2), -math.inf])  # the CLI lines cover NaN, inf and -3
def test_outer_rejects_a_constant_that_is_not_finite_and_positive(c_k):
    spec = BohrSpec.build(["sqrt:2"], None, 10**4, ["0.3"], "0.05")
    with pytest.raises(ValidationError, match=r"^c_k must be finite and positive$"):
        outer_gap(spec, c_k=c_k)


# -- cardinality corollary ----------------------------------------------------


def test_cardinality_even_integers_example():
    spec = BohrSpec.build(["rat:1/2"], None, 100, ["0.3"], "0.05")
    r = cardinality_ratio(spec)
    assert r["cardinality"] == 101
    assert r["ratio_exact"] == "101/30"
    assert r["ratio"] == pytest.approx(101 / 30, rel=1e-12)
    assert r["shift_injection"] is True


def test_cardinality_sqrt2_pinned():
    spec = BohrSpec.build(["sqrt:2"], None, 10**5, ["0.1"], "0.05")
    r = cardinality_ratio(spec)
    assert r["cardinality"] == 40001
    assert r["ratio_exact"] == "40001/10000"
    assert r["shift_injection"] is True


def test_cardinality_pair_pinned():
    spec = BohrSpec.build(["sqrt:2", "sqrt:3"], None, 10**5, ["0.2", "0.2"], "0.05")
    r = cardinality_ratio(spec)
    assert r["cardinality"] == 32007
    assert r["ratio"] == pytest.approx(8.00175, rel=1e-12)
    assert r["shift_injection"] is True


@pytest.mark.parametrize("alphas,gammas,N,deltas", [
    (["sqrt:2"], None, 10**4, ["0.1"]),
    (["sqrt:3"], ["dec:0.3"], 10**4, ["0.2"]),
    (["sqrt:2", "sqrt:3"], ["dec:0.25", "dec:0.7"], 3000, ["0.3", "0.3"]),
    (["rat:1/3"], None, 3000, ["1/3"]),
    (["rat:1/3"], ["dec:0.5"], 3000, ["1/3"]),
])
def test_cardinality_positive_half_of_the_symmetric_scan(alphas, gammas, N, deltas):
    spec = BohrSpec.build(alphas, gammas, N, deltas, "0.05")
    sym = enumerate_bohr(spec, "symmetric")
    pos = enumerate_bohr(spec, "positive")
    assert np.array_equal(sym.members[sym.members >= 1], pos.members)
    r = cardinality_ratio(spec)
    assert r["cardinality"] == sym.cardinality
    assert r["cardinality_positive"] == pos.cardinality
    assert r["shift_injection"] is bohr.shift_injection_holds(spec, pos)


def test_cardinality_rejects_wide_delta():
    spec = BohrSpec.build(["sqrt:2"], None, 10**4, ["1.5"], "0.05")
    with pytest.raises(ValidationError):
        cardinality_ratio(spec)


# -- cross-instance invariants ------------------------------------------------


def test_inner_suite_invariants():
    cases = [
        (["sqrt:2"], None, 10**4, ["0.7"]),
        (["sqrt:3"], None, 10**5, ["0.9"]),
        (["sqrt:5"], None, 10**5, ["0.7"]),
        (["sqrt:2"], ["dec:0.3"], 10**5, ["0.8"]),
        (["sqrt:2", "sqrt:3"], None, 10**6, ["0.9", "0.9"]),
    ]
    for alphas, gammas, N, dl in cases:
        spec = BohrSpec.build(alphas, gammas, N, dl, "0.05")
        try:
            g = inner_gap(spec)
        except (LengthUnderflow, SmallDirichletWitness):
            continue
        assert g.checks["containment"] and g.checks["proper"]
        assert g.checks["gcd_moduli"] == 1
        assert all(a >= 1 for a in g.moduli)
        assert 10 * g.b <= N
        els = gap_elements(g)
        assert len(els) == g.box_size()
        assert int(els.min()) >= 1 and int(els.max()) <= N


def test_gap_to_dict_serializable():
    import json

    spec = BohrSpec.build(["sqrt:2"], None, 10**4, ["0.7"], "0.05")
    g = inner_gap(spec)
    d = json.loads(json.dumps(g.to_dict()))
    assert d["b"] == g.b
    assert d["moduli"] == list(g.moduli)
    assert d["checks"]["proper_sha256"] == g.checks["proper_sha256"]


def test_dirichlet_boundary_decides_an_exact_rational_hit():
    # ||1 * 1/5000|| is exactly the threshold 5000^(-1/1); the fixed-point
    # interval of 1/5000 always contains it, so only the exact value decides
    coord = CoordScan(RealSpec.parse("rat:1/5000").realize(128))
    assert _dirichlet_tspec(coord, 5000, 1, 5000).exact(1) is True
    assert _dirichlet_tspec(coord, 5001, 1, 5000).exact(1) is False


# -- the lift check against a lift-by-lift loop --------------------------------


def loop_lift_check(spec, minima, lengths, members):
    """Reference: (count, failures) over every lift of every member in
    itertools.product order, one Python-int decomposition each."""
    one = 1 << spec.scale
    coords = []
    for a, delta in zip(spec.alpha.alphas, spec.delta):
        er = math.ceil(a.err * spec.N)
        coords.append((a.man, math.floor(delta * one - er), math.floor(delta * one + er)))
    rows = [list(v) for v in minima.basis]
    d = det(rows)
    adj = adjugate(rows)
    k = len(rows)
    failures = checked = 0
    for nn in members:
        n = int(nn)
        windows = []
        for i, (ma, din, dout) in enumerate(coords):
            p = n * ma
            cand = []
            for a in range(-((dout - p) // one), (p + dout) // one + 1):
                r = abs(p - a * one)
                if r <= din or (r <= dout and bohr._witness_le(spec, n, i, a)):
                    cand.append(a)
            windows.append(cand)
        for tail in itertools.product(*windows):
            checked += 1
            pt = (n,) + tail
            coeffs = tuple(d * sum(pt[i] * adj[i][j] for i in range(k)) for j in range(k))
            failures += any(abs(c) > L for c, L in zip(coeffs, lengths))
    return checked, failures


def _same_as_loop(spec, minima, lengths, members):
    """The loop's (count, failures), which _lift_coeff_check must return at an
    ample budget and at a budget of count; at count - 1 it must raise."""
    want = loop_lift_check(spec, minima, lengths, members)
    count = want[0]
    for budget in (10**8, count):
        got = _lift_coeff_check(spec, minima, lengths, budget)
        assert got == want and all(type(x) is int for x in got)
    with pytest.raises(BudgetExceeded, match=f"^more than {count - 1} lifts to verify$"):
        _lift_coeff_check(spec, minima, lengths, count - 1)
    return want


def _cramer_lengths(spec):
    body = build_body(spec)
    minima = successive_minima(body)
    c_k = _cramer_constant(body, minima)
    return minima, [_floor_over_gauge(body, g, c_k, "outer length") for g in minima.basis_m]


@pytest.mark.parametrize("alphas,N,deltas", [
    (["sqrt:2"], 2000, ["0.1"]),  # delta < 1/2: at most one witness
    (["sqrt:2"], 2000, ["0.7"]),  # 1/2 <= delta < 1: up to two
    (["sqrt:2"], 2000, ["1.2"]),  # delta >= 1: up to three
    (["sqrt:2", "sqrt:3"], 3000, ["0.3", "0.6"]),
    (["sqrt:2", "sqrt:3"], 1000, ["1.1", "0.4"]),
    (["sqrt:29", "rat:-7/3"], 1000, ["0.4", "0.7"]),  # integer parts 5 and -3
    # the degenerate grid: width 1/q puts every n = +-p^-1 (mod q) on an
    # exact boundary tie
    (["rat:1/3"], 1000, ["1/3"]),
    (["rat:2/5"], 1000, ["1/5"]),
    (["rat:3/7"], 2000, ["1/7"]),
    (["sqrt:5", "rat:2/7"], 2000, ["0.45", "0.55"]),  # k = 3, either side of 1/2
    (["sqrt:2", "sqrt:3", "sqrt:5", "sqrt:6", "sqrt:7", "sqrt:10"], 3 * 10**4, ["0.25"] * 6),  # k = 7
])
def test_lift_check_matches_loop(alphas, N, deltas):
    spec = BohrSpec.build(alphas, None, N, deltas)
    minima, lengths = _cramer_lengths(spec)
    members = enumerate_bohr(spec, "symmetric").members
    assert members.min() < 0
    checked, failures = _same_as_loop(spec, minima, lengths, members)
    assert failures == 0 and checked >= len(members)
    # #B^0 from lattice lines, with every width >= 1/2 dropped
    assert _bohr_count(spec) == len(members)
    if all(d < Q(1, 2) for d in spec.delta):
        assert checked == len(members)

    # shrunk lengths: the same lifts under the same budget rule, with every
    # failure counted; at k = 7 the lengths are near 10^3 but no lift needs a
    # coefficient past 5, so there only lengths of 1 fail
    for small in ([max(1, L // 4) for L in lengths], [1] * len(lengths)):
        count, failures = _same_as_loop(spec, minima, small, members)
        assert count == checked and 0 <= failures < count
    assert failures > 0


def _tie_case():
    # ||n/3|| = 1/3 exactly for n = +-1 mod 3, so every |n| <= 600 is a
    # member and two thirds of the lifts sit on the boundary
    spec = BohrSpec.build(["rat:1/3"], None, 600, ["1/3"])
    minima = successive_minima(build_body(spec))
    assert minima.basis == [(3, 1), (1, 0)]  # coefficients (a, n - 3a)
    return spec, minima, enumerate_bohr(spec, "symmetric").members


def test_lift_check_ties_reach_the_exact_path():
    spec, minima, members = _tie_case()
    assert len(members) == 1201
    checked, failures = _same_as_loop(spec, minima, [600, 600], members)
    assert failures == 0 and checked == 1201
    # every line ends on a tie (|n| = N or |n/3 - a| = 1/3, both m = 10),
    # decided by an exact key, and the next point out is outside; the line
    # through 0 starts at x = 1 by the walk's choice of sign
    key = build_body(spec).frame().key
    b, lines, _ = _lift_lines(spec)
    for r, lo, hi in lines:
        for x, out in ((lo, lo - 1), (hi, hi + 1))[0 if any(r) else 1:]:
            m_end, m_out = (key(tuple(y * p + q for p, q in zip(b, r))).exact for y in (x, out))
            assert m_end == 10 < m_out
    # coefficients (a, n - 3a) with a = round(n/3) stay in [50, 1] for
    # |n| <= 151 only, so 1201 - 303 lifts fail
    assert _same_as_loop(spec, minima, [50, 1], members) == (1201, 898)


def test_lift_check_undecided_keys_take_the_certified_fallback(monkeypatch):
    # with every depth-0 key left open, each line end goes to _gauge_le
    # (replaced here by exact rational arithmetic); an end that no depth
    # decides raises, whether or not the check would reach it
    spec, minima, members = _tie_case()
    want = loop_lift_check(spec, minima, [50, 1], members)
    c = build_body(spec).c
    calls = []

    def exact_le(body, vec, bound):
        calls.append(vec)
        return max(abs(Q(vec[0])) / c[0], abs(Q(vec[0], 3) - vec[1]) / c[1]) <= bound

    monkeypatch.setattr(minima_mod, "_key_le", lambda m, bnd: UNDECIDED)
    monkeypatch.setattr(minima_mod, "_gauge_le", exact_le)
    assert _lift_coeff_check(spec, minima, [50, 1], 10**8) == want
    assert len(calls) >= 2 * len(_lift_lines(spec)[1])

    def flaky(body, vec, bound):
        raise PrecisionExhausted(f"gauge vs bound undecidable at {vec}")

    monkeypatch.setattr(minima_mod, "_gauge_le", flaky)
    with pytest.raises(PrecisionExhausted):
        _lift_coeff_check(spec, minima, [50, 1], 10**8)


def test_lift_check_exact_ints_over_the_int64_bound():
    # the coefficients (n, a - n*2^62) of a lift (n, a) pass 2^63 once
    # |n| > 1, and the second length is past it too: the box keeps exactly
    # the lifts with |n| <= 1000, so those of the 2,000 members beyond fail
    spec = BohrSpec.build(["sqrt:2"], None, 2000, ["0.7"])
    minima = SimpleNamespace(basis=[(1, 2**62), (0, 1)])
    members = enumerate_bohr(spec, "symmetric").members
    assert _same_as_loop(spec, minima, [2000, 1000 * 2**62], members) == (5603, 2802)


# -- past the 31-bit scan limit -------------------------------------------------


def test_lift_count_past_the_scan_limit_matches_the_closed_form():
    # ||n/7|| <= 1/7 iff n mod 7 is 0, 1 or 6, with one witness each
    N = 10**12
    spec = BohrSpec.build(["rat:1/7"], None, N, ["1/7"])
    full, rest = divmod(N, 7)
    positive = 3 * full + sum(1 for m in range(1, rest + 1) if m % 7 in (0, 1, 6))
    assert _lift_lines(spec)[2] == 2 * positive + 1 == 857_142_857_145


def test_outer_gap_past_the_scan_limit():
    spec = BohrSpec.build(["sqrt:2"], None, 10**12, ["0.0001"])
    g = outer_gap(spec, budget=10**9)
    assert g.checks["containment"] is True
    assert g.checks["checked_lifts"] == g.checks["bohr_cardinality"] == 399_999_999


def test_inner_gap_checks_the_scan_limit_before_any_minima_work():
    spec = BohrSpec.build(["sqrt:2"], None, 3 * 10**9, ["0.1"])
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"^\|n\| up to 3000000000 exceeds the 31-bit scan limit$"):
        inner_gap(spec)
    assert time.perf_counter() - t0 < 0.5


# -- one box per properness check -----------------------------------------------


def argsort_proper_sorted(gap, budget=10**8):
    """Reference: the stable-argsort form of the properness check, which
    reads the collision pair from the sort permutation."""
    vals = _box_values(gap, budget)
    order = np.argsort(vals, kind="stable")
    svals = vals[order]
    same = svals[1:] == svals[:-1]
    size = gap.box_size()
    if same.any():
        i = int(same.argmax())
        pair = (_coeff_vector(gap, int(order[i])), _coeff_vector(gap, int(order[i + 1])))
        return ProperCertificate(False, len(svals) - int(np.count_nonzero(same)), size, collision=pair), svals
    digest = hashlib.sha256(svals.astype("<i8").tobytes()).hexdigest()
    return ProperCertificate(True, size, size, sha256=digest), svals


@settings(max_examples=200, deadline=None)
@given(
    b=st.integers(-50, 50),
    moduli=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    lengths=st.lists(st.integers(1, 6), min_size=3, max_size=3),
    form=st.sampled_from(["positive", "symmetric"]),
)
def test_proper_sorted_matches_the_argsort_reference(b, moduli, lengths, form):
    g = GAP(b=b, moduli=tuple(moduli), lengths=tuple(lengths[: len(moduli)]), form=form, sigma=(1,) * len(moduli))
    cert, svals = _proper_sorted(g, 10**8)
    want, wvals = argsort_proper_sorted(g)
    assert cert.to_dict() == want.to_dict()
    assert np.array_equal(svals, wvals) and np.array_equal(svals, gap_elements(g))


@pytest.mark.parametrize("moduli,lengths,form", [
    ((1, 1), (2, 2), "positive"),
    ((2, 3), (5, 4), "symmetric"),
    ((4, 6, 9), (3, 2, 2), "symmetric"),
    ((2, 3), (4, 3), "positive"),
])
def test_improper_boxes_in_both_forms_match_the_reference(moduli, lengths, form):
    g = GAP(b=-3, moduli=moduli, lengths=lengths, form=form, sigma=(1,) * len(moduli))
    cert = _proper_sorted(g, 10**8)[0]
    assert not cert.proper
    assert cert.to_dict() == argsort_proper_sorted(g)[0].to_dict()


def rebuilt_box_pair(gap, budget=10**8):
    """Reference: the collision pair read from a second, unsorted copy of the
    whole box, at the two smallest flat indices of the smallest repeated value."""
    svals = gap_elements(gap, budget)
    same = svals[1:] == svals[:-1]
    first, second = (_box_values(gap, budget) == svals[int(same.argmax())]).nonzero()[0][:2]
    return _coeff_vector(gap, int(first)), _coeff_vector(gap, int(second))


@pytest.mark.parametrize("b,moduli,lengths,form", [
    (-3, (1, 1), (2, 2), "positive"),
    (0, (2, 3), (5, 4), "symmetric"),
    (7, (4, 6, 9), (3, 2, 2), "symmetric"),
    (-3, (2, 3), (4, 3), "positive"),
    (1, (5, 1, 2), (1, 3, 2), "positive"),  # one row of the first coefficient holds the pair
    (0, (3, 1, 2), (1, 1, 4), "symmetric"),
    (2, (7, 2, 3), (2, 3, 2), "positive"),  # the pair's second entry in a later row
])
def test_collision_pair_matches_the_rebuilt_box(b, moduli, lengths, form):
    g = GAP(b=b, moduli=moduli, lengths=lengths, form=form, sigma=(1,) * len(moduli))
    cert = _proper_sorted(g, 10**8)[0]
    assert not cert.proper
    assert cert.collision == rebuilt_box_pair(g)


@settings(max_examples=150, deadline=None)
@given(
    b=st.integers(-30, 30),
    moduli=st.lists(st.integers(1, 9), min_size=2, max_size=3),
    lengths=st.lists(st.integers(1, 5), min_size=3, max_size=3),
    form=st.sampled_from(["positive", "symmetric"]),
)
def test_collision_pair_matches_the_rebuilt_box_on_random_boxes(b, moduli, lengths, form):
    g = GAP(b=b, moduli=tuple(moduli), lengths=tuple(lengths[: len(moduli)]), form=form, sigma=(1,) * len(moduli))
    cert = _proper_sorted(g, 10**8)[0]
    assert cert.proper or cert.collision == rebuilt_box_pair(g)


@pytest.mark.parametrize("form,want", [
    ("inner", ["positive"]),  # the verify reads inner_gap's own sorted box
    ("outer", ["symmetric"]),  # outer_gap counts lifts by lines, with no box
])
def test_gap_verify_builds_one_box(monkeypatch, capsys, form, want):
    from bohrgap import cli
    from bohrgap import gap as gap_mod

    boxes = []
    real = gap_mod._box_values
    monkeypatch.setattr(gap_mod, "_box_values", lambda g, budget: boxes.append(g.form) or real(g, budget))
    code = cli.main(f"gap verify --form {form} --k 2 --alpha sqrt:2 --N 100000 --delta 0.1".split())
    assert code == 0 and f"verify {form}: ok" in capsys.readouterr().out
    assert boxes == want


# -- the outer lift walk under the lift budget ----------------------------------


def test_outer_walk_stops_at_the_lift_budget():
    # about 4*10^11 lifts on some 4*10^5 lines: with the certified Cramer
    # constant no lift can fail, so the walk stops once 10^8 are found
    spec = BohrSpec.build(["sqrt:2"], None, 10**12, ["0.1"])
    with pytest.raises(BudgetExceeded, match=r"^more than 100000000 lifts to verify$"):
        outer_gap(spec)


def test_outer_walk_budget_boundary_keeps_the_count():
    spec = BohrSpec.build(["sqrt:2"], None, 10**5, ["0.1"])
    count = _lift_lines(spec)[2]
    assert outer_gap(spec, budget=count).checks["checked_lifts"] == count
    with pytest.raises(BudgetExceeded, match=f"more than {count - 1} lifts"):
        outer_gap(spec, budget=count - 1)


# -- one Cramer map ---------------------------------------------------------------


def test_decompose_rejects_a_point_off_a_nonunimodular_basis():
    coeffs = _cramer([(2, 0), (0, 1)])
    assert coeffs((4, -3)) == (2, -3)
    with pytest.raises(ConstructionError, match="non-integral decomposition"):
        coeffs((3, 0))


# -- containment by classification against the enumerating reference -----------


def ref_containment(spec, elements):
    """Reference: enumerate B over 1..N and look each element up in it."""
    bset = enumerate_bohr(spec, "positive")
    inside = np.isin(elements, bset.members)
    return int((~inside).sum()), bset.cardinality


@pytest.mark.parametrize("alphas,gammas,N,deltas", [
    (["sqrt:2"], None, 10**5, ["0.1"]),
    (["sqrt:5"], ["rat:1/3"], 10**5, ["0.3"]),
    (["sqrt:2"], ["dec:0.25"], 2 * BLOCK + 17, ["0.3"]),  # N across two block edges
    (["sqrt:3"], ["sqrt:5"], 10**5, ["0.3"]),
])
def test_inner_gap_checks_match_the_enumerating_reference(alphas, gammas, N, deltas):
    spec = BohrSpec.build(alphas, gammas, N, deltas, "0.05")
    g, (_, elements) = _inner_gap(spec, 10**8)
    failures, card = ref_containment(spec, elements)
    assert failures == g.checks["containment_failures"] == 0
    assert card == g.checks["bohr_cardinality"]
    assert _containment(spec, elements) == (failures, card)


@pytest.mark.parametrize("alphas,gammas,N,deltas", [
    (["sqrt:2"], ["dec:0.25"], 2 * BLOCK + 17, ["0.3"]),
    (["sqrt:2", "sqrt:3"], ["rat:1/3", "sqrt:5"], 5000, ["0.2", "0.3"]),
    # rational alpha, gamma and width: residues decide, and every n with
    # 2n - 1 = +-1 (mod 7) sits exactly on the boundary
    (["rat:2/7"], ["rat:1/7"], 3000, ["1/7"]),
])
def test_containment_of_a_hand_built_box_matches_the_reference(alphas, gammas, N, deltas):
    spec = BohrSpec.build(alphas, gammas, N, deltas, "0.05")
    rng = np.random.default_rng(N)
    inner = rng.integers(1, N + 1, size=3000)
    # elements outside 1..N fail; repeated elements count once per copy
    box = np.sort(np.concatenate([inner, inner[:40], [-5, 0, N + 1, N + 9000, 1, N]]).astype(np.int64))
    failures, card = ref_containment(spec, box)
    assert 6 < failures < len(box)
    assert _containment(spec, box) == (failures, card)
    assert _containment(spec, box[(box >= 1) & (box <= N)]) == (failures - 4, card)
