"""Exponent estimators vs a continued-fraction oracle and exhaustive scans."""

import math
from fractions import Fraction

import mpmath
import pytest

from bohrgap import exponents
from bohrgap.errors import ValidationError
from bohrgap.exponents import (
    TargetVector,
    dual_exponent_est,
    exponent_report,
    mult_exponent_est,
    multiplicative_hypothesis,
    simult_exponent_est,
    uniform_inhom_est,
)
from bohrgap.realfield import RealSpec
from bohrgap.scan import BLOCK

Q = Fraction


def sqrt_convergents(m, limit):
    """Convergents (q_n, p_n), n >= 0 and q_n <= limit, of the periodic
    continued fraction of sqrt(m), m not a square, by the integer recurrence
    m' = d*a - m', d' = (m - m'^2)/d, a' = (a_0 + m')//d'."""
    a0 = math.isqrt(m)
    mm, d, a = 0, 1, a0
    (q1, p1), (q, p) = (0, 1), (1, a0)
    out = []
    while q <= limit:
        out.append((q, p))
        mm = d * a - mm
        d = (m - mm * mm) // d
        a = (a0 + mm) // d
        (q1, p1), (q, p) = (q, p), (a * q + q1, a * p + p1)
    return out


def sqrt2_convergent_denominators(limit):
    """Oracle route: continued fraction of sqrt(2) = [1; 2, 2, ...]."""
    return [q for q, _ in sqrt_convergents(2, limit)]


def cf_oracle_value(n_max):
    """max_{2<=n<=n_max} -log||n sqrt(2)|| / log(n_max), via best approximations."""
    qs = [q for q in sqrt2_convergent_denominators(n_max) if q >= 2]
    with mpmath.workdps(60):
        s2 = mpmath.sqrt(2)
        best = max(-mpmath.log(abs(q * s2 - mpmath.nint(q * s2))) for q in qs)
        val = best / mpmath.log(n_max)
        arg = max(qs, key=lambda q: -mpmath.log(abs(q * s2 - mpmath.nint(q * s2))))
    return float(val), arg


ALPHA_SQRT2 = TargetVector.parse(["sqrt:2"])
ALPHA_23 = TargetVector.parse(["sqrt:2", "sqrt:3"])


def test_certify_vector_against_mpmath_and_an_exact_zero():
    # sqrt(2) + sqrt(3) is irrational, so its distance comes from intervals
    with mpmath.workdps(50):
        x = mpmath.sqrt(2) + mpmath.sqrt(3)
        want = float(-mpmath.log(abs(x - mpmath.nint(x))))
    assert math.isclose(exponents._certify_vector(ALPHA_23, (1, 1)), want, rel_tol=1e-12)
    # 2*sqrt(2) - sqrt(8) is exactly 0: no interval can show it, the kernels do
    assert exponents._certify_vector(TargetVector.parse(["sqrt:2", "sqrt:8"]), (2, -1)) is None


def test_mult_d1_matches_cf_oracle():
    want, want_arg = cf_oracle_value(10**4)
    est = mult_exponent_est(ALPHA_SQRT2, None, 10**4)
    assert est.argmax == want_arg
    assert abs(est.value - want) < 1e-9


def test_d1_collapse_identities():
    m = mult_exponent_est(ALPHA_SQRT2, None, 10**4)
    s = simult_exponent_est(ALPHA_SQRT2, None, 10**4)
    d = dual_exponent_est(ALPHA_SQRT2, 10**4)
    assert m.value == s.value
    assert m.argmax == s.argmax
    assert d.value == m.value
    assert d.argmax == (m.argmax,)


def test_d1_estimators_across_scan_blocks():
    # 2*10^5 spans four scan blocks; the dual scan starts at n = 0
    want, want_arg = cf_oracle_value(2 * 10**5)
    m = mult_exponent_est(ALPHA_SQRT2, None, 2 * 10**5)
    d = dual_exponent_est(ALPHA_SQRT2, 2 * 10**5)
    assert m.argmax == want_arg and d.argmax == (want_arg,)
    assert abs(m.value - want) < 1e-9 and d.value == m.value


def test_running_max_monotone_in_horizon():
    vals = [mult_exponent_est(ALPHA_SQRT2, None, h).running_max for h in (10**3, 10**4, 10**5)]
    assert vals[0] <= vals[1] <= vals[2]


def test_simult_pair_scan_matches_slow_oracle():
    # independent slow oracle: per-n mpmath max-norm scan
    n_max = 1500
    with mpmath.workdps(50):
        s2, s3 = mpmath.sqrt(2), mpmath.sqrt(3)
        best, arg = -1, None
        for n in range(2, n_max + 1):
            d = max(abs(n * s2 - mpmath.nint(n * s2)), abs(n * s3 - mpmath.nint(n * s3)))
            v = -mpmath.log(d)
            if v > best:
                best, arg = v, n
        want = float(best / mpmath.log(n_max))
    est = simult_exponent_est(ALPHA_23, None, n_max)
    assert est.argmax == arg
    assert abs(est.value - want) < 1e-9


def test_simult_pair_near_half():
    est = simult_exponent_est(ALPHA_23, None, 10**5)
    assert 0.4 <= est.value <= 0.6


def test_mult_pair_pinned_by_scan():
    # frozen from the module's own first run, cross-checked against the slow
    # oracle at a smaller horizon above
    est = mult_exponent_est(ALPHA_23, None, 10**5)
    assert est.value == pytest.approx(1.2735266452142993, rel=1e-12)
    assert est.argmax == 10864


def test_dual_pair_matches_slow_oracle():
    h = 40
    with mpmath.workdps(50):
        s2, s3 = mpmath.sqrt(2), mpmath.sqrt(3)
        best, arg = -1, None
        for a in range(0, h + 1):
            for b in range(-h, h + 1):
                if a == 0 and b <= 0:
                    continue
                x = a * s2 + b * s3
                v = -mpmath.log(abs(x - mpmath.nint(x)))
                if v > best:
                    best, arg = v, (a, b)
        want = float(best / mpmath.log(h))
    est = dual_exponent_est(ALPHA_23, h)
    assert est.argmax == arg or est.argmax == tuple(-c for c in arg)
    assert abs(est.value - want) < 1e-9


def test_infinite_witness_rational():
    rat = TargetVector.parse(["rat:1/3"])
    est = mult_exponent_est(rat, None, 100)
    assert est.infinite_witness == 3
    assert est.value is None


@pytest.mark.parametrize("texts,witness", [(["sqrt:2", "rat:1/3"], 3), (["rat:2/5", "sqrt:3"], 5)])
def test_exact_zero_in_any_coordinate_is_a_witness(texts, witness):
    alpha = TargetVector.parse(texts)
    for est in (
        mult_exponent_est(alpha, None, 1000),
        simult_exponent_est(alpha, None, 1000),
        uniform_inhom_est(alpha, None, (10, 1000)),
    ):
        assert est.infinite_witness == witness and est.value is None


def test_near_zero_distances_are_scored_exactly():
    # ||n * 10^-30|| = n * 10^-30 lies in the zero band, so each n is scored
    # from the exact distance; the block's own floats differ in the tenth digit
    tiny = TargetVector.parse(["dec:0.000000000000000000000000000001"])
    assert mult_exponent_est(tiny, None, 100).running_max == -math.log(2e-30)
    assert simult_exponent_est(tiny, None, 100).running_max == -math.log(2e-30)
    assert uniform_inhom_est(tiny, None, (10, 100)).running_max == -math.log(1e-30)
    pair = TargetVector.parse(["dec:0.000000000000000000000000000001", "dec:0.000000000000000000000000000003"])
    assert mult_exponent_est(pair, None, 100).running_max == -math.log(2e-30) - math.log(6e-30)
    assert simult_exponent_est(pair, None, 100).running_max == -math.log(6e-30)
    assert uniform_inhom_est(pair, None, (10, 100)).running_max == -math.log(3e-30)


@pytest.mark.parametrize(
    "texts, gamma, n_max, x_list",
    [
        # the horizon and the uniform cuts end in different scan blocks
        (["sqrt:2", "sqrt:5"], None, 2 * BLOCK + 3, (10, BLOCK, BLOCK + 1)),
        (["sqrt:3"], ["0.25"], BLOCK - 1, (100, 3 * BLOCK)),
        # a witness at n = 3 for all three, before and after the zero band
        (["sqrt:2", "rat:1/3"], None, 1000, (10, 1000)),
        (["dec:0.000000000000000000000000000001"], None, 100, (10, 100)),
    ],
)
def test_report_shares_one_pass_with_the_single_estimators(texts, gamma, n_max, x_list):
    alpha = TargetVector.parse(texts)
    g = None if gamma is None else tuple(RealSpec.parse(f"dec:{t}").realize(alpha.scale) for t in gamma)
    rep = exponent_report(alpha, g, n_max=n_max, h_max=20, x_list=x_list)
    assert rep.omega_lower == simult_exponent_est(alpha, g, n_max)
    assert rep.omega_times_lower == mult_exponent_est(alpha, g, n_max)
    assert rep.omega_hat_lower == uniform_inhom_est(alpha, g, x_list)


def test_infinite_witness_dual_vector():
    # 2*sqrt(2) - 1*sqrt(8) = 0 exactly
    pair = TargetVector.parse(["sqrt:2", "sqrt:8"])
    est = dual_exponent_est(pair, 50)
    assert est.infinite_witness is not None
    a, b = est.infinite_witness
    # any nonzero kernel vector of (sqrt2, sqrt8) satisfies a = -2b
    assert (a, b) != (0, 0)
    assert a == -2 * b


def test_uniform_inhom_per_x_and_min():
    est = uniform_inhom_est(ALPHA_SQRT2, None, (10**3, 10**4))
    assert set(est.per_x) == {10**3, 10**4}
    assert est.value == min(est.per_x.values())
    # max over n < X at X=10^3 is attained at q=985
    qs = sqrt2_convergent_denominators(999)
    with mpmath.workdps(50):
        s2 = mpmath.sqrt(2)
        want = float(max(-mpmath.log(abs(q * s2 - mpmath.nint(q * s2))) for q in qs) / mpmath.log(10**3))
    assert abs(est.per_x[10**3] - want) < 1e-9


def test_uniform_min_not_increasing_as_x_list_grows():
    a = uniform_inhom_est(ALPHA_SQRT2, None, (10**3,))
    b = uniform_inhom_est(ALPHA_SQRT2, None, (10**3, 10**4))
    assert b.value <= a.value + 1e-15


def test_report_flags_advisory():
    rep = exponent_report(ALPHA_SQRT2, None, n_max=10**4, h_max=10**3, x_list=(10**3, 10**4))
    assert rep.flags["simult_vs_mult"] is True
    assert rep.flags["dual_vs_simult"] is True
    assert rep.flags["uniform_vs_dual"] is True
    d = rep.as_dict()
    assert d["omega_lower"]["horizon"] == 10**4


def test_multiplicative_hypothesis_pair():
    out = multiplicative_hypothesis(ALPHA_23, n_max=10**4)
    assert out["rationality_ok"] is True
    assert out["threshold"] == 2.0
    assert out["estimate_ok"] is True


def test_multiplicative_hypothesis_rational_screen():
    out = multiplicative_hypothesis(TargetVector.parse(["rat:1/2", "sqrt:2"]), n_max=100)
    assert out["rationality_ok"] is False
    assert out["rational_entries"] == [0]


def test_multiplicative_hypothesis_k2_rationality_only():
    out = multiplicative_hypothesis(ALPHA_SQRT2, n_max=100)
    assert out["rationality_ok"] is True
    assert out["threshold"] is None


def test_gamma_shift_changes_estimate():
    g = [RealSpec.parse("dec:0.3").realize(128)]
    est = mult_exponent_est(ALPHA_SQRT2, g, 10**4)
    hom = mult_exponent_est(ALPHA_SQRT2, None, 10**4)
    assert est.value != hom.value


def test_dual_budget_guard():
    with pytest.raises(ValidationError):
        dual_exponent_est(TargetVector.parse(["sqrt:2", "sqrt:3", "sqrt:5"]), 10**4)


def test_dual_estimate_certifies_every_vector_in_the_zero_band(monkeypatch):
    # alpha = 10^-40 puts n*alpha inside the zero band of every n <= 50, so
    # each n runs the exact step; the best is n = 1, at -log(10^-40)
    calls = []
    real = exponents._certify_vector
    monkeypatch.setattr(exponents, "_certify_vector", lambda a, vec: calls.append(vec) or real(a, vec))
    est = dual_exponent_est(TargetVector.parse(["dec:0." + "0" * 39 + "1"]), h_max=50)
    assert sorted(calls) == [(n,) for n in range(1, 51)]
    assert est.argmax == (1,) and est.running_max == -math.log(1e-40)
    assert est.infinite_witness is None
