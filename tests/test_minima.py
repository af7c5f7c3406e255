"""Successive minima certified against brute-force enumeration oracles."""

import math
from fractions import Fraction

import mpmath
import pytest

from bohrgap.bohr import BohrSpec
from bohrgap.errors import BudgetExceeded, ValidationError
from bohrgap.exponents import TargetVector
from bohrgap.lattice import det, extendable
from bohrgap.realfield import FixedReal
from bohrgap.minima import (
    ConvexBody,
    build_body,
    enumerate_gauge_ball,
    gauge,
    gauge_interval,
    successive_minima,
)

Q = Fraction


def body_of(alphas, N, deltas):
    spec = BohrSpec.build(alphas, None, N, deltas)
    return build_body(spec)


def brute_oracle(alpha_strs, c, v0_max, window):
    """Independent mpmath enumeration: all canonical v with small R-gauge."""
    with mpmath.workdps(60):
        alphas = []
        for s in alpha_strs:
            kind, _, body = s.partition(":")
            alphas.append(mpmath.sqrt(int(body)) if kind == "sqrt" else mpmath.mpf(Q(body).numerator) / Q(body).denominator)
        cs = [mpmath.mpf(x.numerator) / x.denominator for x in c]
        found = []
        for v0 in range(0, v0_max + 1):
            tails = []
            for a, ci in zip(alphas, cs[1:]):
                center = a * v0
                lo = int(mpmath.floor(center - window))
                hi = int(mpmath.ceil(center + window))
                tails.append(range(lo, hi + 1))
            import itertools
            for tail in itertools.product(*tails):
                vec = (v0,) + tail
                if v0 == 0:
                    nz = next((x for x in tail if x != 0), None)
                    if nz is None or nz < 0:
                        continue
                m = mpmath.mpf(abs(v0)) / cs[0]
                for a, ci, t in zip(alphas, cs[1:], tail):
                    m = max(m, abs(a * v0 - t) / ci)
                found.append((m, vec))
        found.sort(key=lambda p: (float(p[0]), p[1]))
        return found


def greedy_minima_oracle(found, k):
    """Greedy rank filter on the oracle list: (m_i, vec_i) for i = 1..k."""
    import numpy as np
    picked = []
    rows = []
    for m, vec in found:
        cand = rows + [list(vec)]
        a = np.array(cand, dtype=float)
        if np.linalg.matrix_rank(a) == len(cand):
            picked.append((m, vec))
            rows.append(list(vec))
            if len(picked) == k:
                break
    return picked


def test_identity_like_body():
    # alpha = 0 makes the forms an identity up to sign; unit bounds, lambda = 1
    alpha = TargetVector.parse(["rat:0", "rat:0"])
    body = ConvexBody(alpha, (Q(1), Q(1), Q(1)), Q(1))
    for j in range(3):
        e = [0, 0, 0]
        e[j] = 1
        g = gauge(body, e)
        assert abs(g.value() - 1.0) < 1e-30
    res = successive_minima(body)
    assert [x.decimal(6) for x in res.lambdas] == ["1.000000"] * 3
    assert abs(det(res.basis)) == 1


def test_sqrt2_body_pins():
    body = body_of(["sqrt:2"], 100, ["0.5"])
    # lambda^2 = 50 exactly, vol(S) = 1/25
    assert body.lam_pow_k == 50
    assert body.vol_s() == Q(1, 25)
    res = successive_minima(body)
    assert res.minima_vectors[0] == (12, 17)
    assert res.minima_vectors[1] == (5, 7)
    # lambda_1 = 1.2*sqrt(50) = 6*sqrt(2); lambda_2 = (5*sqrt2-7)*20*sqrt(50)
    assert res.lambdas[0].decimal(12) == "8.485281374239"
    assert res.lambdas[1].decimal(12) == "10.050506338833"
    assert abs(det(res.basis)) == 1
    # attaining vectors already form a basis here
    assert res.basis == res.minima_vectors
    assert res.det_sign == -1


def test_gauge_pin_sqrt2():
    body = body_of(["sqrt:2"], 100, ["0.5"])
    g = gauge(body, (1, 1))
    # sqrt(50) * max(1/10, (sqrt2-1)/0.05) = 200 - 100*sqrt(2)
    assert g.decimal(6) == "58.578644"[:9]
    assert abs(g.value() - (200 - 100 * math.sqrt(2))) < 1e-9


def test_gauge_symmetry_and_zero():
    body = body_of(["sqrt:2", "sqrt:3"], 1000, ["0.3", "0.4"])
    for v in [(1, 1, 2), (3, 4, 5), (0, 1, -1)]:
        gp = gauge(body, v)
        gn = gauge(body, tuple(-x for x in v))
        assert gp.man == gn.man and gp.err == gn.err
    with pytest.raises(ValidationError):
        gauge(body, (0, 0, 0))


def test_degenerate_rational_pins():
    body = body_of(["rat:1/2"], 100, ["0.5"])
    res = successive_minima(body)
    # lambda_1 from (2,1) where the alpha-form vanishes: sqrt(50)*2/10 = sqrt(2)
    assert res.minima_vectors[0] == (2, 1)
    assert res.lambdas[0].decimal(12) == "1.414213562373"
    # second minimum ties at m=10 between (1,0) and (1,1); lex picks (1,0)
    assert res.minima_vectors[1] == (1, 0)
    assert res.lambdas[1].decimal(12) == "70.710678118655"
    # product * vol hits the Minkowski upper edge 2^k = 4 exactly
    prod = res.minima_m[0].exact * res.minima_m[1].exact
    assert prod * body.lam_pow_k * body.vol_s() == 4


def test_matches_brute_oracle_k2():
    body = body_of(["sqrt:2"], 200, ["0.4"])
    res = successive_minima(body)
    found = brute_oracle(["sqrt:2"], list(body.c), 60, Q(3))
    want = greedy_minima_oracle(found, 2)
    for i in range(2):
        assert res.minima_vectors[i] == want[i][1]
        got = gauge_interval(body, want[i][1])
        assert abs(float(got.lo) - float(want[i][0])) < 1e-25


def test_matches_brute_oracle_k3():
    body = body_of(["sqrt:2", "sqrt:3"], 200, ["0.3", "0.4"])
    res = successive_minima(body)
    found = brute_oracle(["sqrt:2", "sqrt:3"], list(body.c), 80, Q(4))
    want = greedy_minima_oracle(found, 3)
    assert res.minima_vectors == [w[1] for w in want]
    assert abs(det(res.basis)) == 1
    # Minkowski band, recomputed here
    prod = 1.0
    for g in res.minima_m:
        prod *= float((g.lo + g.hi) / 2)
    volx = float(body.lam_pow_k * body.vol_s())
    assert 2**3 / math.factorial(3) - 1e-6 <= prod * volx <= 2**3 + 1e-6


def test_exactness_invariant_rank_below():
    body = body_of(["sqrt:2"], 100, ["0.5"])
    res = successive_minima(body)
    pool = enumerate_gauge_ball(body, Q(3))
    import numpy as np
    for i, lam_m in enumerate(res.minima_m):
        below = [g.vec for g in pool if g.hi < lam_m.lo]
        if below:
            assert np.linalg.matrix_rank(np.array(below, dtype=float)) <= i
        at = [g.vec for g in pool if g.lo <= lam_m.hi]
        assert np.linalg.matrix_rank(np.array(at, dtype=float)) >= i + 1


def test_scaling_covariance():
    base = body_of(["sqrt:2"], 100, ["0.5"])
    doubled = ConvexBody(base.alpha, tuple(2 * ci for ci in base.c), base.lam_pow_k)
    a = successive_minima(base)
    b = successive_minima(doubled)
    for x, y in zip(a.lambdas, b.lambdas):
        assert abs(y.value() - x.value() / 2) < 1e-12


def test_k3_trivial_lambda():
    body = body_of(["sqrt:2", "sqrt:3"], 10**5, ["0.1", "0.2"])
    assert body.lam_pow_k == 2000
    lam = body.lam()
    assert abs(lam.value() - 2000 ** (1 / 3)) < 1e-12


def test_budget_guard():
    body = body_of(["sqrt:2", "sqrt:3"], 10**5, ["0.1", "0.2"])
    with pytest.raises(BudgetExceeded):
        enumerate_gauge_ball(body, Q(50), budget=100)


def test_int_det_and_extendable():
    assert det([[2, 1], [1, 1]]) == 1
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3
    assert extendable([[2, 1]], 2) is True  # gcd 1: primitive row
    assert extendable([[2, 4]], 2) is False  # gcd 2
    assert extendable([[1, 0, 0], [0, 2, 0]], 3) is False
    assert extendable([[1, 0, 0], [0, 2, 1]], 3) is True


def test_to_dict_shape():
    res = successive_minima(body_of(["sqrt:2"], 100, ["0.5"]))
    d = res.to_dict()
    assert d["k"] == 2 and d["det_sign"] in (-1, 1)
    assert len(d["lambdas"]) == 2 and len(d["basis"]) == 2
    assert d["vol_s"] == "1/25" and d["lambda_pow_k"] == "50"


def test_basis_gauges_dominate_lambdas():
    for args in ((["sqrt:2"], 100, ["0.5"]), (["sqrt:2", "sqrt:3"], 300, ["0.3", "0.3"])):
        res = successive_minima(body_of(*args))
        for lam, bg in zip(res.lambdas, res.basis_gauges):
            assert bg.value() >= lam.value() - 1e-12


# -- integer gauge keys and the enumerated ball against independent oracles ----


def fraction_gauge(body, vec, extra):
    """Reference R-gauge as rational intervals, term by term: (lo, hi, exact)."""
    v0 = vec[0]
    t0 = Q(abs(v0)) / body.c[0]
    los, his, exs = [t0], [t0], [t0]
    for i, a in enumerate(body.alpha.alphas):
        if extra:
            a = a.refined(a.scale + extra)
        ci = body.c[1 + i]
        aex = a.exact()
        if aex is not None:
            e = abs(aex * v0 - vec[1 + i]) / ci
            los.append(e)
            his.append(e)
            exs.append(e)
            continue
        r = abs(Q(a.man * v0 - (vec[1 + i] << a.scale)))
        slack = a.err * abs(v0)
        los.append(max(r - slack, Q(0)) / (1 << a.scale) / ci)
        his.append((r + slack) / (1 << a.scale) / ci)
        exs.append(None)
    for j, e in enumerate(exs):
        if e is not None and all(e >= his[t] for t in range(len(his)) if t != j):
            return e, e, e
    return max(los), max(his), None


@pytest.mark.parametrize("alphas,deltas", [
    (["rat:2/3"], ["0.1"]),
    (["dec:0.3"], ["0.2"]),
    (["sqrt:2"], ["0.5"]),
    (["sqrt:2", "rat:1/7"], ["0.3", "0.4"]),
    (["dec:0.123", "sqrt:7"], ["1/3", "0.2"]),
    (["sqrt:5", "dec:0.41", "sqrt:3"], ["0.5", "0.25", "0.5"]),
    (["rat:3/11", "dec:0.7071", "rat:5/9"], ["0.3", "0.2", "0.1"]),
])
def test_gauge_keys_match_fraction_formula(alphas, deltas):
    import random

    body = body_of(alphas, 1000, deltas)
    rng = random.Random(len(alphas) * 31 + len(deltas[0]))
    vals = [a.value() for a in body.alpha.alphas]
    for _ in range(200):
        v0 = rng.randrange(-3000, 3000)
        vec = (v0,) + tuple(round(x * v0) + rng.randint(-2, 2) for x in vals)
        for extra in (0, 64, 192):
            g = gauge_interval(body, vec, extra)
            lo, hi, ex = fraction_gauge(body, vec, extra)
            assert (g.lo, g.hi, g.exact) == (lo, hi, ex)
            assert g.klo == lo * g.den and g.khi == hi * g.den
            assert g.kex == (None if ex is None else ex * g.den)


def test_gauge_key_exact_term_tying_an_open_bracket():
    # the open alpha term's upper end equals the exact first term: exact wins
    alpha = TargetVector((FixedReal(0, 64, Q(1)),))
    body = ConvexBody(alpha, (Q(2**64), Q(1)), Q(1))
    g = gauge_interval(body, (3, 0))
    assert fraction_gauge(body, (3, 0), 0) == (Q(3, 2**64),) * 3
    assert (g.lo, g.hi, g.exact) == (Q(3, 2**64),) * 3


def _ball_oracle(alpha_strs, body, bound, window):
    found = brute_oracle(alpha_strs, list(body.c), math.floor(bound * body.c[0]), window)
    with mpmath.workdps(60):
        b = mpmath.mpf(bound.numerator) / bound.denominator
        return {vec for m, vec in found if m <= b}


def test_gauge_ball_matches_brute_oracle_rational():
    # v_1 runs past 5000, so the scan prefilter and its exact callbacks run too
    body = body_of(["rat:2/3"], 1000, ["0.1"])
    bound = Q(60)
    got = [g.vec for g in enumerate_gauge_ball(body, bound)]
    assert len(got) == len(set(got))
    assert set(got) == _ball_oracle(["rat:2/3"], body, bound, Q(1))


def test_gauge_ball_rational_window_edges_are_inclusive():
    # bound * c_1 = 1/3 exactly, so every v with |2 v_1 - 3 v_2| = 1 sits on
    # the window edge; the oracle is exact rational arithmetic
    body = body_of(["rat:2/3"], 2000, ["0.1"])
    bound = Q(100, 3)
    want = set()
    for v0 in range(0, math.floor(bound * body.c[0]) + 1):
        for t in range((2 * v0) // 3 - 1, (2 * v0) // 3 + 3):
            if (v0, t) > (0, 0) and max(Q(v0) / body.c[0], abs(Q(2 * v0, 3) - t) / body.c[1]) <= bound:
                want.add((v0, t))
    got = [g.vec for g in enumerate_gauge_ball(body, bound)]
    assert len(got) == len(set(got))
    assert set(got) == want


def test_gauge_ball_matches_brute_oracle_k3_irrational():
    body = body_of(["sqrt:2", "sqrt:3"], 200, ["0.3", "0.4"])
    bound = Q(12)
    got = [g.vec for g in enumerate_gauge_ball(body, bound)]
    assert len(got) == len(set(got))
    assert set(got) == _ball_oracle(["sqrt:2", "sqrt:3"], body, bound, Q(1))
