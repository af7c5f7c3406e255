"""Successive minima certified against brute-force enumeration oracles."""

import ast
import math
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrgap import minima

from bohrgap.bohr import BohrSpec
from bohrgap.errors import BudgetExceeded, ConstructionError, ValidationError
from bohrgap.exponents import TargetVector
from bohrgap.lattice import det, echelon, extendable, independent, line_cut, spender
from bohrgap.realfield import UNDECIDED, FixedReal, certify
from bohrgap.minima import (
    ConvexBody,
    _canon,
    _gauge_le,
    _key_le,
    _smallest,
    ball_lines,
    build_body,
    gauge,
    gauge_interval,
    successive_minima,
)
from bohrgap.scan import CoordScan, ThresholdSpec, members_in_range
from test_exponents import sqrt_convergents

Q = Fraction


def body_of(alphas, N, deltas):
    spec = BohrSpec.build(alphas, None, N, deltas)
    return build_body(spec)


def gauge_ball(body, bound):
    """Every canonical-sign nonzero v with m(v) <= bound (first nonzero
    coordinate positive), keyed: the lines of ball_lines expanded."""
    key, b = body.frame().key, body.reduced.b
    lines = ball_lines(body, bound, lambda: None)
    return [key(_canon(tuple(x * p + q for p, q in zip(b, r)))) for r, lo, hi in lines for x in range(lo, hi + 1)]


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
    pool = gauge_ball(body, Q(3))
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
        ball_lines(body, Q(50), spender(100, "gauge ball walk exceeds 100 nodes"))


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


# -- the two-list frame, kept as the reference for the one tuple of forms --------


class TwoListFrame:
    """The gauge frame as the weight w0 of |v_1|, the exact terms and the
    fixed-point terms, in that order; forms() gives them as dense rows."""

    def __init__(self, body, extra):
        c0 = body.c[0]
        exact_terms, fixed_terms, needs = [], [], [c0.numerator]
        for i, a in enumerate(body.alpha.alphas, start=1):
            if extra:
                a = a.refined(a.scale + extra)
            ci = body.c[i]
            aex = a.exact()
            if aex is not None:
                exact_terms.append((i, aex.numerator, aex.denominator, ci))
                needs.append(aex.denominator * ci.numerator)
            else:
                err = Q(a.err)
                fixed_terms.append((i, a.man, a.scale, err, ci))
                needs.append((ci.numerator * err.denominator) << a.scale)
        den = math.lcm(*needs)
        self.den = den
        self.w0 = den * c0.denominator // c0.numerator
        self.exact_terms = tuple(
            (i, an, ad, den * ci.denominator // (ad * ci.numerator)) for i, an, ad, ci in exact_terms
        )
        self.fixed_terms = tuple(
            (i, man, s, err.denominator, err.numerator, den * ci.denominator // ((ci.numerator * err.denominator) << s))
            for i, man, s, err, ci in fixed_terms
        )

    def restricted(self, keep):
        f = object.__new__(TwoListFrame)
        f.den = self.den
        f.w0 = self.w0 if 0 in keep else 0
        f.exact_terms = tuple(t for t in self.exact_terms if t[0] in keep)
        f.fixed_terms = tuple(t for t in self.fixed_terms if t[0] in keep)
        return f

    def key(self, vec):
        """(klo, khi, kex, den)."""
        v0 = vec[0]
        a0 = abs(v0)
        ex = a0 * self.w0
        for i, an, ad, w in self.exact_terms:
            ex = max(ex, abs(an * v0 - ad * vec[i]) * w)
        ilo = ihi = -1
        for i, man, s, ed, en, w in self.fixed_terms:
            r = abs(man * v0 - (vec[i] << s)) * ed
            ilo = max(ilo, (r - en * a0) * w)
            ihi = max(ihi, (r + en * a0) * w)
        if ihi <= ex:
            return ex, ex, ex, self.den
        return max(ex, ilo), ihi, None, self.den

    def forms(self, k):
        """(terms, rows, slacks): term 0, then the exact terms, then the fixed ones."""
        terms, rows, slack = [0], [[self.w0] + [0] * (k - 1)], [0]
        for i, an, ad, w in self.exact_terms:
            row = [0] * k
            row[0], row[i] = an * w, -ad * w
            terms.append(i)
            rows.append(row)
            slack.append(0)
        for i, man, s, ed, en, w in self.fixed_terms:
            row = [0] * k
            row[0], row[i] = man * ed * w, -((ed * w) << s)
            terms.append(i)
            rows.append(row)
            slack.append(en * w)
        return terms, rows, slack


class TwoListReduced:
    """The Gram matrix, spread, const/vary split, section and vertex from the
    dense rows of the depth-0 two-list frame, along b."""

    def __init__(self, body, b):
        f = TwoListFrame(body, 0)
        k = body.k
        terms, rows, slack = f.forms(k)
        self.gram = [[sum(a[p] * a[q] for a in rows) for q in range(k)] for p in range(k)]
        self.spread = sum((f.w0 + e) ** 2 for e in slack)
        const = {0} if b[0] == 0 else set()
        const.update(i for i, an, ad, _ in f.exact_terms if an * b[0] == ad * b[i])
        const.update(t[0] for t in f.fixed_terms if b[0] == 0 == b[t[0]])
        self.const = frozenset(const)
        self.vary = frozenset(range(k)) - self.const
        self.w0 = f.w0
        self.rows = [(t, sum(a * c for a, c in zip(row, b)), row, e) for t, row, e in zip(terms, rows, slack)]

    def section(self, r, terms, bound, lo, hi):
        cuts = [(slope, row, bound - (-e * bound // self.w0)) for t, slope, row, e in self.rows if t in terms]
        return line_cut(lo, hi, [(slope, sum(a * c for a, c in zip(row, r)), lim) for slope, row, lim in cuts])

    def vertex(self, r):
        lines = []
        for t, slope, row, _ in self.rows:
            if t in self.vary and slope:
                c = sum(a * q for a, q in zip(row, r))
                lines.append((abs(slope), c if slope > 0 else -c))
        if not lines:
            return None
        return min(max((-ci - cj) // (ai + aj) for aj, cj in lines) for ai, ci in lines)


_ALPHA = st.one_of(
    st.builds("rat:{}/{}".format, st.integers(-40, 40), st.integers(1, 40)),
    st.builds("dec:{}.{}".format, st.integers(0, 3), st.integers(0, 9999)),
    st.builds("sqrt:{}".format, st.integers(0, 60)),
)
_DELTA = st.builds(lambda p, q: f"{min(p, 2 * q)}/{q}", st.integers(1, 40), st.integers(1, 40))


# a fixed-point alpha without a constructor, so a tiny mantissa can make a
# fixed term's slope vanish while b_1 does not; it has no deeper depth
_RAW = st.builds(FixedReal, st.integers(-3, 3), st.just(64), st.sampled_from([Q(0), Q(1, 2), Q(1), Q(3)]))
_BOUND = st.builds(Q, st.integers(1, 10**6), st.integers(1, 1000))


@settings(max_examples=60, deadline=None)
@given(
    alphas=st.integers(1, 5).flatmap(lambda n: st.lists(_ALPHA, min_size=n, max_size=n)),
    N=st.integers(1, 10**7),
    raw=st.booleans(),
    data=st.data(),
)
def test_forms_match_the_two_list_frame(alphas, N, raw, data):
    """GaugeFrame's one tuple of forms against the two-list frame: keys at
    every depth and on term subsets, and along the reduced direction the
    Gram matrix, spread, const/vary split, section and vertex."""
    if raw:
        raws = [data.draw(_RAW) for _ in alphas]
        body = ConvexBody(TargetVector(tuple(raws)), tuple(data.draw(_BOUND) for _ in range(len(raws) + 1)), Q(1))
        depths = (0, 64, 192) if all(a.err == 0 for a in raws) else (0,)
    else:
        body = body_of(alphas, N, [data.draw(_DELTA) for _ in alphas])
        depths = (0, 64, 192)
    k = body.k
    grams = []
    real_lattice = minima.ReducedLattice
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minima, "ReducedLattice", lambda rows, gram: grams.append(gram) or real_lattice(rows, gram))
        red = body.reduced
    ref = TwoListReduced(body, red.b)
    assert grams == [ref.gram]
    assert (red.spread, red.const, red.vary) == (ref.spread, ref.const, ref.vary)

    vals = [a.value() for a in body.alpha.alphas]
    coord = st.integers(-(10**6), 10**6)
    for _ in range(4):
        v0 = data.draw(coord)
        near = (v0,) + tuple(round(x * v0) + data.draw(st.integers(-2, 2)) for x in vals)
        terms = frozenset(data.draw(st.sets(st.integers(0, k - 1))))
        for vec in (near, tuple(data.draw(coord) for _ in range(k))):
            for extra in depths:
                g, f = body.frame(extra).key(vec), TwoListFrame(body, extra)
                assert (g.klo, g.khi, g.kex, g.den) == f.key(vec)
                g = body.frame(extra, terms).key(vec)
                assert (g.klo, g.khi, g.kex, g.den) == f.restricted(terms).key(vec)
        r = tuple(data.draw(coord) for _ in range(k))
        x = data.draw(st.integers(-(10**6), 10**6))
        bound = body.frame().key(tuple(x * p + q for p, q in zip(red.b, r))).khi
        for ts in (terms, red.all, red.vary):
            assert red.section(r, ts, bound, -(10**9), 10**9) == ref.section(r, ts, bound, -(10**9), 10**9)
        assert red.vertex(r) == ref.vertex(r)


def _ball_oracle(alpha_strs, body, bound, window):
    found = brute_oracle(alpha_strs, list(body.c), math.floor(bound * body.c[0]), window)
    with mpmath.workdps(60):
        b = mpmath.mpf(bound.numerator) / bound.denominator
        return {vec for m, vec in found if m <= b}


def test_gauge_ball_matches_brute_oracle_rational():
    # v_1 runs past 5000, so the scan prefilter and its exact callbacks run too
    body = body_of(["rat:2/3"], 1000, ["0.1"])
    bound = Q(60)
    got = [g.vec for g in gauge_ball(body, bound)]
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
    got = [g.vec for g in gauge_ball(body, bound)]
    assert len(got) == len(set(got))
    assert set(got) == want


def test_gauge_ball_matches_brute_oracle_k3_irrational():
    body = body_of(["sqrt:2", "sqrt:3"], 200, ["0.3", "0.4"])
    bound = Q(12)
    got = [g.vec for g in gauge_ball(body, bound)]
    assert len(got) == len(set(got))
    assert set(got) == _ball_oracle(["sqrt:2", "sqrt:3"], body, bound, Q(1))


# -- the gauge-ball pool, kept as the reference for the enumeration walk --------


def _pool_float_lll(basis):
    """Plain LLL on float vectors; returns the integer transform rows."""
    b = [np.array(v, dtype=float) for v in basis]
    n = len(b)
    z = [np.eye(n, dtype=np.int64)[i].copy() for i in range(n)]

    def gso():
        star, mu = [], np.zeros((n, n))
        for i in range(n):
            v = b[i].copy()
            for j in range(i):
                den = float(star[j] @ star[j])
                mu[i, j] = float(b[i] @ star[j]) / den if den else 0.0
                v = v - mu[i, j] * star[j]
            star.append(v)
        return star, mu

    star, mu = gso()
    i = 1
    guard = 0
    while i < n and guard < 1000:
        guard += 1
        for j in range(i - 1, -1, -1):
            q = round(mu[i, j])
            if q:
                b[i] = b[i] - q * b[j]
                z[i] = z[i] - q * z[j]
                star, mu = gso()
        if star[i] @ star[i] >= (0.75 - mu[i, i - 1] ** 2) * (star[i - 1] @ star[i - 1]):
            i += 1
        else:
            b[i], b[i - 1] = b[i - 1], b[i]
            z[i], z[i - 1] = z[i - 1], z[i]
            star, mu = gso()
            i = max(i - 1, 1)
    return [[int(x) for x in row] for row in z]


def _pool_radius(body):
    """Certified upper bound for lambda_k/lambda: max gauge of k independent vectors."""
    k = body.k
    mat = []
    for j in range(k):
        v = [0] * k
        v[j] = 1
        y = [float(Q(v[0]) / body.c[0])]
        for i, a in enumerate(body.alpha.alphas):
            y.append((a.value() * v[0] - v[1 + i]) / float(body.c[1 + i]))
        mat.append(y)
    zrows = _pool_float_lll(mat)
    if abs(det(zrows)) != 1:
        zrows = [list(r) for r in np.eye(k, dtype=int)]
    best = Q(0)
    for zr in zrows:
        m = gauge_interval(body, zr)
        best = max(best, m.exact if m.exact is not None else m.hi)
    return best


def _pool_windows(body, bound):
    """Per coordinate (slope, slack, offset, den) of the tail window given v_1."""
    out = []
    for a, ci in zip(body.alpha.alphas, body.c[1:]):
        w = bound * ci
        wn, wd = w.numerator, w.denominator
        aex = a.exact()
        if aex is not None:
            an, ad = aex.numerator, aex.denominator
            out.append((an * wd, 0, ad * wn, ad * wd))
        else:
            err = Q(a.err)
            en, ed = err.numerator, err.denominator
            out.append((a.man * ed * wd, en * wd, (wn * ed) << a.scale, (ed * wd) << a.scale))
    return out


def pool_ball(body, bound, budget=2 * 10**6):
    """The gauge ball by a first-coordinate scan, prefiltered by members_in_range."""
    out = []
    v0_hi = math.floor(bound * body.c[0])
    frame = body.frame()
    bnd = frame.bound_key(bound)
    windows = _pool_windows(body, bound)
    tested = 0

    def consider(v0):
        nonlocal tested
        ranges = []
        size = 1
        for slope, slack, off, den in windows:
            c, e = slope * v0, slack * v0 + off
            r = range(-((e - c) // den), (c + e) // den + 1)
            size *= len(r)
            ranges.append(r)
        tested += size
        if tested > budget:
            raise BudgetExceeded(f"gauge ball enumeration exceeds {budget} candidates")
        for tail in product(*ranges):
            vec = (v0,) + tail
            if v0 == 0:
                nz = next((x for x in tail if x != 0), None)
                if nz is None or nz < 0:
                    continue
            g = frame.key(vec)
            ok = _key_le(g, bnd)
            if ok is UNDECIDED:
                ok = _gauge_le(body, vec, bound)
            if ok:
                out.append(g)

    consider(0)
    if v0_hi >= 5000 and body.alpha.scale % 64 == 0:
        coords = [CoordScan(a) for a in body.alpha.alphas]
        tspecs = [ThresholdSpec.for_fraction(c, min(bound * ci, Q(1, 2)), v0_hi) for c, ci in zip(coords, body.c[1:])]
        for v0 in members_in_range(coords, tspecs, 1, v0_hi):
            consider(int(v0))
    else:
        for v0 in range(1, v0_hi + 1):
            consider(v0)
    return out


def _pool_cmp(body, u, v):
    """Certified sign of m(u) - m(v); ties only between two exact keys."""

    def step(extra):
        a, b = u, v
        if extra:
            f = body.frame(extra)
            a, b = f.key(u.vec), f.key(v.vec)
        if a.kex is not None and b.kex is not None:
            return (a.kex > b.kex) - (a.kex < b.kex)
        if a.khi < b.klo:
            return -1
        if a.klo > b.khi:
            return 1
        return UNDECIDED

    return certify(step, "gauge order undecidable between {} and {}", u.vec, v.vec)


def _pool_pick(body, pool, accepts):
    """Smallest-gauge pool entry passing accepts, lexicographic tie-break."""
    best = None
    for cand in pool:
        if best is not None and (cand.klo > best.khi or (cand.klo == best.khi and best.kex is not None)):
            break
        if not accepts(cand):
            continue
        if best is None:
            best = cand
            continue
        c = _pool_cmp(body, cand, best)
        if c < 0 or (c == 0 and cand.vec < best.vec):
            best = cand
    if best is None:
        raise ConstructionError("no admissible vector in the enumeration ball")
    return best


def pool_minima(body, budget=2 * 10**6):
    """Minima and greedy basis picked from the sorted gauge ball of a float-LLL
    radius, doubling the radius when the basis completion runs dry.

    Returns (minima_m, basis_m, det_sign).
    """
    k = body.k

    def sorted_ball(radius):
        pool = pool_ball(body, radius, budget)
        pool.sort(key=lambda g: (g.klo, g.vec))
        return pool

    radius = _pool_radius(body)
    pool = sorted_ball(radius)
    minima_m = []
    for _ in range(k):
        ech = echelon([g.vec for g in minima_m])
        minima_m.append(_pool_pick(body, pool, lambda cand: independent(ech, cand.vec)))
    basis_m = []
    for _ in range(k):
        rows = [g.vec for g in basis_m]
        ech = echelon(rows)

        def extends(cand):
            return independent(ech, cand.vec) and extendable(rows + [cand.vec], k)

        for _attempt in range(4):
            try:
                basis_m.append(_pool_pick(body, pool, extends))
                break
            except ConstructionError:
                radius *= 2
                pool = sorted_ball(radius)
        else:
            raise ConstructionError("basis completion failed within the radius cap")
    d = det([list(g.vec) for g in basis_m])
    return minima_m, basis_m, 1 if d > 0 else -1


def _keys(gs):
    return [(g.vec, g.klo, g.khi, g.kex) for g in gs]


def assert_matches_pool(body):
    res = successive_minima(body)
    minima_m, basis_m, sign = pool_minima(body)
    assert res.minima_vectors == [g.vec for g in minima_m]
    assert res.basis == [g.vec for g in basis_m]
    assert res.det_sign == sign
    assert _keys(res.minima_m) == _keys(minima_m)
    assert _keys(res.basis_m) == _keys(basis_m)


DEGENERATE_GRID = [
    (p, q, N) for q in range(2, 11) for p in range(1, q) if math.gcd(p, q) == 1 for N in (1000, 2000)
]


def test_enumeration_matches_pool_on_the_degenerate_grid():
    for p, q, N in DEGENERATE_GRID:
        assert_matches_pool(body_of([f"rat:{p}/{q}"], N, ["0.1"]))


def test_enumeration_matches_pool_on_half_with_its_ties():
    # 500,001 vectors tie at lambda_2 = 50; the pick is the lexicographically first
    body = body_of(["rat:1/2"], 10**5, ["0.1"])
    assert_matches_pool(body)
    # the multiples of (2, 1) span no new direction, so no line of them is
    # walked: the whole computation visits a few dozen nodes
    res = successive_minima(body, budget=100)
    assert res.minima_vectors == [(2, 1), (1, 0)] and res.basis == [(2, 1), (1, 0)]


@pytest.mark.parametrize("alphas,N", [
    (["sqrt:2"], 10**5),
    (["sqrt:7"], 3000),
    (["dec:0.3"], 10**4),
    (["dec:0.1234"], 10**5),
    (["sqrt:2", "sqrt:3"], 10**5),
    (["dec:0.41", "sqrt:5"], 3000),
    (["dec:0.25", "dec:0.5"], 1000),
    (["sqrt:2", "sqrt:3", "sqrt:5"], 2000),
    (["dec:0.7071", "rat:1/3", "sqrt:6"], 1000),
])
@pytest.mark.parametrize("delta", ["0.1", "1/2", "0.7", "1"])
def test_enumeration_matches_pool_on_dec_and_sqrt(alphas, N, delta):
    assert_matches_pool(body_of(alphas, N, [delta] * len(alphas)))


def test_enumeration_matches_pool_where_bases_differ_from_minima():
    # the greedy basis leaves the minima here, so the extendability walk runs
    for alphas, N, deltas in (
        (["rat:1/2", "rat:1/3"], 3000, ["0.5", "0.5"]),
        (["rat:2/5"], 10**4, ["0.5"]),
        (["rat:1/3"], 10**4, ["1/3"]),
        (["rat:1/2", "sqrt:2"], 3000, ["0.1", "0.3"]),
    ):
        assert_matches_pool(body_of(alphas, N, deltas))


def test_basis_completion_searches_past_the_minima(monkeypatch):
    # the fourth minimum does not extend the first three rows, so the last
    # basis vector comes from the extension search, not from the minima
    body = body_of(["rat:14/39", "sqrt:6", "rat:19/50"], 50, ["1/2", "1/2", "1/10"])
    calls = []
    monkeypatch.setattr(minima, "_smallest", lambda *a: calls.append(a) or _smallest(*a))
    res = successive_minima(body)
    assert len(calls) == 5  # four minima, one completion
    assert res.minima_vectors == [(13, 5, 32, 5), (37, 13, 91, 14), (16, 6, 39, 6), (34, 12, 83, 13)]
    assert res.basis == [(13, 5, 32, 5), (37, 13, 91, 14), (16, 6, 39, 6), (8, 3, 20, 3)]
    assert [x.decimal(6) for x in res.lambdas[2:]] == ["8.458970", "8.458970"]
    assert res.basis_gauges[-1].decimal(6) == "8.545295"
    rows, last = res.basis[:3], res.basis_m[-1]
    ech = echelon(rows)
    pool = pool_ball(body, Q(last.khi, body.frame().den))
    pool.sort(key=lambda g: (g.klo, g.vec))
    want = _pool_pick(body, pool, lambda g: independent(ech, g.vec) and extendable(rows + [g.vec], 4))
    assert _keys([last]) == _keys([want])


@pytest.mark.parametrize("alphas,N,deltas", [
    (["rat:2/7"], 500, ["0.1"]),
    (["rat:1/2"], 3000, ["0.5"]),
    (["sqrt:2"], 1000, ["0.3"]),
    (["sqrt:2", "sqrt:3"], 1000, ["0.3", "0.5"]),
    (["rat:1/3", "dec:0.41"], 1000, ["1/3", "0.5"]),
    (["rat:1/2", "sqrt:5", "rat:2/3"], 300, ["0.5", "0.5", "0.5"]),
])
def test_extension_walk_matches_pool_for_other_rows(alphas, N, deltas):
    # rows that are not the minima, so the extendability test varies along
    # lines that leave their span and is constant along those inside it
    body = body_of(alphas, N, deltas)
    k = body.k
    minima = successive_minima(body).minima_m
    key = body.frame().key
    small = [v for v in product(range(-2, 3), repeat=k) if v > (0,) * k and math.gcd(*v) == 1]
    for rows in [[v] for v in small[:6]] + [[small[0], small[-1]]] * (k > 2):
        ech = echelon(rows)
        if len(ech) < len(rows) or not extendable(rows, k):
            continue

        def extends(v):
            return independent(ech, v) and extendable(rows + [v], k)

        v = next(g for g in minima if independent(ech, g.vec))
        bound = v.khi + (sum(key(r).khi for r in rows) + 1) // 2
        pool = pool_ball(body, Q(bound, body.frame().den))
        pool.sort(key=lambda g: (g.klo, g.vec))
        want = _pool_pick(body, pool, lambda g: extends(g.vec))
        got = _smallest(body, ech, extends, bound, lambda: None)
        assert (got.vec, got.klo, got.khi, got.kex) == (want.vec, want.klo, want.khi, want.kex), rows


# -- large N and the module boundary ---------------------------------------------


def test_k3_at_1e12_is_fast_and_matches_1e14_and_k4():
    t = time.perf_counter()
    res = successive_minima(body_of(["sqrt:2", "sqrt:3"], 10**12, ["0.1", "0.1"]))
    assert time.perf_counter() - t < 1.0
    assert abs(det(res.basis)) == 1
    for alphas, N in ((["sqrt:2", "sqrt:3"], 10**14), (["sqrt:2", "sqrt:3", "sqrt:5"], 10**12)):
        res = successive_minima(body_of(alphas, N, ["0.1"] * len(alphas)))
        assert abs(det(res.basis)) == 1
        # v_1 past the 31-bit limit of the old first-coordinate scan
        assert max(abs(v[0]) for v in res.minima_vectors) > 2**31


def test_minima_module_has_no_scan_or_float_dependency():
    src = (Path(__file__).resolve().parents[1] / "src" / "bohrgap" / "minima.py").read_text()
    tree = ast.parse(src)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module not in ("scan", "bohrgap.scan"), "minima imports from scan"
            assert not (node.module or "").startswith("numpy")
        if isinstance(node, ast.Import):
            assert all(not a.name.startswith("numpy") for a in node.names)
        if isinstance(node, ast.Name):
            assert node.id != "float"
        if isinstance(node, ast.Constant):
            assert not isinstance(node.value, float)
        if isinstance(node, ast.FunctionDef):
            assert "lll" not in node.name.lower() or node.name == "lll_gram"


# -- continued-fraction oracle for k = 2 -------------------------------------------


def _surd_sign(a, b, m):
    """Exact sign of a + b*sqrt(m) for rationals a, b."""
    if a >= 0 and b >= 0:
        return int(a > 0 or b > 0)
    if a <= 0 and b <= 0:
        return -int(a < 0 or b < 0)
    s = a * a - b * b * m  # opposite signs: the larger magnitude wins
    return (1 if a > 0 else -1) * (s > 0) - (1 if a > 0 else -1) * (s < 0)


def _cf_gauge(vec, m, c0, c1):
    """m(v) = max(|v_1|/c0, |v_1 sqrt(m) - v_2|/c1) as (a, b) = a + b*sqrt(m)."""
    v0, v1 = vec
    t0 = (Q(abs(v0)) / c0, Q(0))
    s = _surd_sign(Q(-v1), Q(v0), m) or 1
    t1 = (Q(-s * v1) / c1, Q(s * v0) / c1)
    return t0 if _surd_cmp(t0, t1, m) >= 0 else t1


def _surd_cmp(x, y, m):
    return _surd_sign(x[0] - y[0], x[1] - y[1], m)


def _canon2(v):
    return v if v[0] > 0 or (v[0] == 0 and v[1] > 0) else (-v[0], -v[1])


def _cf_first(cands, m, c0, c1):
    """Lexicographically first canonical vector of least gauge among cands."""
    best = None
    for v in map(_canon2, cands):
        g = _cf_gauge(v, m, c0, c1)
        if best is None or _surd_cmp(g, best[0], m) < 0 or (_surd_cmp(g, best[0], m) == 0 and v < best[1]):
            best = (g, v)
    return best


def _rational_ties(value, m, c0, c1, independent_of):
    """Every canonical v with m(v) exactly the rational value: |v_1| = value*c0
    with the second term below it, or v_1 = 0 and v_2 = value*c1."""
    out = []
    v0 = value * c0
    if v0.denominator == 1 and v0 > 0:
        centre = math.isqrt(int(v0) ** 2 * m)
        w = int(value * c1) + 2
        out += [(int(v0), t) for t in range(centre - w, centre + w + 2)]
    v1 = value * c1
    if v1.denominator == 1 and v1 > 0:
        out.append((0, int(v1)))
    return [v for v in out if independent_of(v) and _surd_cmp(_cf_gauge(v, m, c0, c1), (value, Q(0)), m) == 0]


def cf_minima(m, c0, c1):
    """(lambda_1, v_1), (lambda_2, v_2) of the k = 2 body from convergents.

    With the lexicographic tie-break the first minimum is a best
    approximation of the second kind, so a convergent (q_n, p_n) or (0, 1).
    The two minima form a basis, so v_2 lies on x*v_1 + u for the
    neighbouring convergent u; the gauge there is a maximum of two |affine|
    functions of x, minimised next to its kinks.  A rational minimum can tie
    with any vector of the same first coordinate, so those are added.
    """
    convs = [(0, 1)] + sqrt_convergents(m, 10**40)
    best, n1 = None, 0
    for n, v in enumerate(convs):
        if best is not None and _surd_cmp((Q(v[0]) / c0, Q(0)), best[0], m) > 0:
            break
        g = _cf_gauge(v, m, c0, c1)
        if best is None or _surd_cmp(g, best[0], m) < 0:
            best, n1 = (g, v), n
    lam1, v1 = best
    u = convs[n1 - 1] if n1 else convs[1]
    with mpmath.workdps(80):
        s = mpmath.sqrt(m)
        w0 = mpmath.mpf(c0.denominator) / c0.numerator
        w1 = mpmath.mpf(c1.denominator) / c1.numerator
        # m(x*v1 + u) = max(|a0 x + b0|, |a1 x + b1|): kinks at both zeros and
        # where the two terms cross
        a0, b0 = v1[0] * w0, u[0] * w0
        a1, b1 = (v1[0] * s - v1[1]) * w1, (u[0] * s - u[1]) * w1
        kinks = [-b1 / a1] + ([-b0 / a0] if a0 else [])
        kinks += [-(b0 - sg * b1) / (a0 - sg * a1) for sg in (1, -1) if a0 != sg * a1]
        xs = {int(mpmath.floor(z)) + t for z in kinks for t in (-1, 0, 1, 2)}
    cands = [(x * v1[0] + u[0], x * v1[1] + u[1]) for x in xs]
    lam2, v2 = _cf_first(cands, m, c0, c1)
    if lam2[1] == 0:
        ties = _rational_ties(lam2[0], m, c0, c1, lambda v: v[0] * v1[1] != v[1] * v1[0])
        v2 = min([v2] + ties)
    return (lam1, v1), (lam2, v2)


SQUAREFREE_31 = [m for m in range(2, 32) if all(m % (p * p) for p in (2, 3, 5))]


@pytest.mark.parametrize("m", [2, 3, 5, 7])
@pytest.mark.parametrize("N", [10**3, 10**4, 10**5])
def test_cf_oracle_matches_brute_oracle(m, N):
    body = body_of([f"sqrt:{m}"], N, ["0.1"])
    (_, v1), (_, v2) = cf_minima(m, body.c[0], body.c[1])
    found = brute_oracle([f"sqrt:{m}"], list(body.c), max(v1[0], v2[0]) + 2, Q(1))
    want = greedy_minima_oracle(found, 2)
    assert [v1, v2] == [w[1] for w in want]


def test_minima_match_cf_oracle_up_to_1e18():
    for m in SQUAREFREE_31:
        for e in range(3, 19):
            body = body_of([f"sqrt:{m}"], 10**e, ["0.1"])
            res = successive_minima(body)
            (lam1, v1), (lam2, v2) = cf_minima(m, body.c[0], body.c[1])
            assert res.minima_vectors == [v1, v2], (m, e)
            for g, lam in zip(res.minima_m, (lam1, lam2)):
                # each reported key brackets the oracle's exact D*m
                assert _surd_cmp((Q(g.klo, g.den), Q(0)), lam, m) <= 0 <= _surd_cmp((Q(g.khi, g.den), Q(0)), lam, m)
                assert g.kex is None or _surd_cmp((Q(g.kex, g.den), Q(0)), lam, m) == 0


# -- the exact gauge bound at a line end -------------------------------------------


@pytest.mark.parametrize("side,want", [(1, 687), (-1, 685)])
def test_ball_line_end_on_an_open_key_takes_the_exact_bound(monkeypatch, side, want):
    # delta within 10^-50 of |2*sqrt(2) - 3| puts the lift (-2, -3) within
    # 10^-50 of the box edge: its depth-0 key is open and _gauge_le decides it
    import bohrgap.minima as minima_mod
    from bohrgap.bohr import enumerate_bohr
    from bohrgap.gap import _bohr_count

    with mpmath.workdps(90):
        width = abs(2 * mpmath.sqrt(2) - 3) + side * mpmath.mpf(10) ** -50
        text = "dec:" + mpmath.nstr(width, 55, strip_zeros=False)
    spec = BohrSpec.build(["sqrt:2"], None, 1000, [text])
    calls = []

    def counted(body, vec, bound):
        calls.append(vec)
        return _gauge_le(body, vec, bound)

    monkeypatch.setattr(minima_mod, "_gauge_le", counted)
    assert _bohr_count(spec) == enumerate_bohr(spec, "symmetric").cardinality == want
    assert calls == [(-2, -3)]
