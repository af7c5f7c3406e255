"""The exact bookkeeping around the minima on Python ints, against the
Fraction formulas it replaced (kept here as oracles), frozen pins of the
minima payloads and FixedReal triples, and the guard that a rational body
settles every gauge comparison at depth 0."""

import hashlib
import json
import math
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrgap import minima
from bohrgap.bohr import BohrSpec
from bohrgap.errors import MinimaDegenerate, PrecisionExhausted
from bohrgap.exponents import TargetVector
from bohrgap.gap import _floor_over_gauge
from bohrgap.minima import ConvexBody, GaugeVal, _band_check, _scaled_fixed, build_body, gauge, successive_minima
from bohrgap.realfield import UNDECIDED, FixedReal, RealSpec, certify, fr_root_rational, fr_sqrt_int
from bohrgap.scan import CoordScan, ThresholdSpec

Q = Fraction

# -- the Fraction formulas, as oracles ------------------------------------------


def ref_scaled_fixed(body, m: GaugeVal) -> FixedReal:
    """lambda * m(v): midpoint of [llo*lo(m), lhi*hi(m)] and half-width + 1 ulp."""
    scale = body.alpha.scale
    llo, lhi = body.lam().bounds()
    lo, hi = llo * m.lo, lhi * m.hi
    man = round((lo + hi) / 2 * (1 << scale))
    err = (hi - lo) / 2 * (1 << scale) + 1
    return FixedReal(man, scale, err, None)


def ref_vol_s(body) -> Fraction:
    v = Q(2) ** body.k
    for ci in body.c:
        v *= ci
    return v / body.lam_pow_k


def ref_band_check(body, cur_at) -> None:
    """The band check on rationals; cur_at(extra) gives the keys at a depth."""
    k = body.k
    lo_band, hi_band = Q(2**k, math.factorial(k)), Q(2**k)
    vol = ref_vol_s(body) * body.lam_pow_k

    def step(extra):
        cur = cur_at(extra)
        if all(g.exact is not None for g in cur):
            prod = Q(1)
            for g in cur:
                prod *= g.exact
            if lo_band <= prod * vol <= hi_band:
                return True
            raise MinimaDegenerate("successive minima outside the Minkowski band")
        plo, phi = Q(1), Q(1)
        for g in cur:
            plo *= g.lo
            phi *= g.hi
        if plo * vol >= lo_band and phi * vol <= hi_band:
            return True
        if phi * vol < lo_band or plo * vol > hi_band:
            raise MinimaDegenerate("successive minima outside the Minkowski band")
        return UNDECIDED

    certify(step, "Minkowski band check undecidable")


def ref_floor_over_gauge(cur_at, num: Fraction) -> int:
    def step(extra):
        cur = cur_at(extra)
        if cur.exact is not None:
            return int(num / cur.exact)
        if cur.lo > 0:
            f_lo, f_hi = int(num / cur.hi), int(num / cur.lo)
            if f_lo == f_hi:
                return f_lo
        return UNDECIDED

    return certify(step, "undecidable")


def outcome(f):
    try:
        return f()
    except (MinimaDegenerate, PrecisionExhausted) as e:
        return type(e).__name__


def triple(x: FixedReal):
    return x.man, x.scale, x.err


# -- strategies -------------------------------------------------------------------

positive = st.builds(Q, st.integers(1, 10**12), st.integers(1, 10**12))
scales = st.sampled_from([64, 128, 192, 256])


@st.composite
def bodies(draw):
    """A ConvexBody with random bounds and lambda^k, sometimes a perfect k-th
    power of a dyadic (lambda exact, err 0), sometimes with a root of 1/3^k."""
    k = draw(st.integers(2, 4))
    scale = draw(scales)
    alpha = TargetVector(tuple(fr_sqrt_int(2 + i, scale) for i in range(k - 1)))
    c = tuple(draw(positive) for _ in range(k))
    lam = draw(st.one_of(
        positive,
        st.builds(lambda a, j: Q(a, 1 << j) ** k, st.integers(1, 10**6), st.integers(0, 40)),
        st.builds(lambda a: Q(a, 3) ** k, st.integers(1, 10**6)),
    ))  # fmt: skip
    return ConvexBody(alpha, c, lam)


@st.composite
def keys(draw, den=None):
    """A GaugeVal over den: a point bracket (kex set) or an open one, klo < khi."""
    den = den or draw(st.integers(1, 10**30))
    klo = draw(st.integers(0, 10**35))
    if draw(st.booleans()):
        return GaugeVal((1, 0), klo, klo, klo, den)
    return GaugeVal((1, 0), klo, klo + draw(st.integers(1, 10**20)), None, den)


# -- differential oracles ---------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(bodies(), st.data())
def test_scaled_fixed_matches_fraction_formula(body, data):
    m = data.draw(keys())
    assert triple(_scaled_fixed(body, m)) == triple(ref_scaled_fixed(body, m))
    llo, lhi = body.lam_ends
    lam = body.lam()
    assert (llo, lhi) == (lam.man - lam.err, lam.man + lam.err)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["sqrt:2", "sqrt:7", "rat:2/7", "dec:0.123"]), st.sampled_from(["rat:1/3", "sqrt:5"]),
       st.integers(100, 10**6), st.data())  # fmt: skip
def test_gauge_matches_fraction_formula_on_fixed_keys(a1, a2, N, data):
    body = build_body(BohrSpec.build([a1, a2], None, N, ["0.3", "1/7"]))
    vals = [a.value() for a in body.alpha.alphas]
    v0 = data.draw(st.integers(-N, N).filter(bool))
    vec = (v0,) + tuple(round(x * v0) + data.draw(st.integers(-2, 2)) for x in vals)
    m = minima.gauge_interval(body, vec)
    assert triple(gauge(body, vec)) == triple(ref_scaled_fixed(body, m))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), scales, st.data())
def test_root_exactness_matches_fraction_formula(k, scale, data):
    q = data.draw(st.one_of(
        positive,
        st.builds(lambda a, j: Q(a, 1 << j) ** k, st.integers(1, 10**9), st.integers(0, 64)),  # exact root
        st.builds(lambda a: Q(a, 3) ** k, st.integers(1, 10**6)),
    ))  # fmt: skip
    x = fr_root_rational(q, k, scale)
    assert (x.err == 0) == (Q(x.man, 1 << scale) ** k == q)


@settings(max_examples=200, deadline=None)
@given(bodies(), st.booleans())
def test_volume_identity_matches_fraction_formula(body, spec_like):
    if spec_like:  # lambda^k = prod(10*c_i), as build_body makes it: vol(S) = 5^-k
        body = ConvexBody(body.alpha, body.c, math.prod(10 * ci for ci in body.c))
    ref = ref_vol_s(body)
    assert body.vol_s() == ref
    num, den = body._vol_s_terms()
    assert (num * 5**body.k == den) == (ref == Q(1, 5**body.k))
    assert ref == Q(1, 5**body.k) or not spec_like


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["sqrt:2", "sqrt:3", "rat:2/7", "dec:0.41"]), min_size=1, max_size=3),
       st.integers(1, 10**9), st.data())  # fmt: skip
def test_build_body_lambda_matches_fraction_product(alphas, N, data):
    deltas = [f"{data.draw(st.integers(1, 99))}/{data.draw(st.integers(50, 99))}" for _ in alphas]  # in (0, 2]
    spec = BohrSpec.build(alphas, None, N, deltas)
    body = build_body(spec)
    lam = Q(N)
    for d in spec.delta_fractions():
        lam *= d
    assert body.lam_pow_k == lam and body.vol_s() == Q(1, 5**body.k)


@contextmanager
def keyed_by_depth(by_depth):
    """Route gauge_interval(body, vec, extra) in minima and gap to
    by_depth[extra][vec[0]]; yields the depths asked for."""
    asked = []

    def fake(body, vec, extra=0):
        asked.append(extra)
        return by_depth[extra][vec[0]]

    with mock.patch.object(minima, "gauge_interval", fake), mock.patch("bohrgap.gap.gauge_interval", fake):
        yield asked


def _depth_keys(draw, n):
    """n keys at each depth 0, 64, 192, the i-th with vec (i, 0)."""
    out = {}
    for extra in (0, 64, 192):
        den = draw(st.integers(1, 10**12))
        out[extra] = [GaugeVal((i, 0), g.klo, g.khi, g.kex, den) for i, g in enumerate(draw(keys(den)) for _ in range(n))]
    return out


def _band_body(k: int, c: tuple) -> ConvexBody:
    return ConvexBody(TargetVector(tuple(fr_sqrt_int(2, 128) for _ in range(k - 1))), c, Q(1))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4), st.data())
def test_band_check_matches_fraction_formula(k, data):
    by_depth = _depth_keys(data.draw, k)
    # c_0 puts 2^k*prod(c)*prod(m) near or on an end of the band
    mid = [Q(g.klo + g.khi, 2 * g.den) or Q(1) for g in by_depth[0]]
    target = data.draw(st.one_of(
        st.sampled_from([Q(2**k, math.factorial(k)), Q(2**k)]),
        st.builds(Q, st.integers(1, 4 * 2**k * 1000), st.just(1000 * math.factorial(k))),
    ))  # fmt: skip
    rest = tuple(data.draw(positive) for _ in range(k - 1))
    body = _band_body(k, (target / (2**k * math.prod(rest) * math.prod(mid)),) + rest)
    with keyed_by_depth(by_depth):
        got = outcome(lambda: _band_check(body, by_depth[0]))
    assert got == outcome(lambda: ref_band_check(body, lambda extra: by_depth[extra]))


def test_band_check_raises_at_depth_zero():
    # 2^2 * prod(c) * prod(m) = 4 * 3 * 2 = 24 > 4, decided by exact keys
    keys0 = [GaugeVal((0, 0), 3, 3, 3, 1), GaugeVal((1, 0), 2, 2, 2, 1)]
    body = _band_body(2, (Q(1), Q(1)))
    with keyed_by_depth({0: keys0}) as asked, pytest.raises(MinimaDegenerate):
        _band_check(body, keys0)
    assert asked == []
    assert outcome(lambda: ref_band_check(body, lambda extra: keys0)) == "MinimaDegenerate"


def test_band_check_decided_only_at_depth_64():
    # the band for k = 2 is 2 <= 4*prod(m) <= 4: 4*[0.4, 0.6]*[1, 2] straddles
    # 2 at depth 0, 4*[0.9, 1]*[0.9, 1] lies inside at depth 64
    by_depth = {
        0: [GaugeVal((0, 0), 4, 6, None, 10), GaugeVal((1, 0), 10, 20, None, 10)],
        64: [GaugeVal((0, 0), 9, 10, None, 10), GaugeVal((1, 0), 9, 10, None, 10)],
    }
    body = _band_body(2, (Q(1), Q(1)))
    with keyed_by_depth(by_depth) as asked:
        assert _band_check(body, by_depth[0]) is None
    assert asked == [64, 64]
    assert ref_band_check(body, lambda extra: by_depth[extra]) is None
    assert outcome(lambda: ref_band_check(body, lambda extra: by_depth[0])) == "PrecisionExhausted"


@settings(max_examples=200, deadline=None)
@given(st.data(), st.one_of(positive, st.builds(lambda q: -q, positive), st.just(Q(0))))
def test_floor_over_gauge_matches_fraction_formula(data, num):
    by_depth = _depth_keys(data.draw, 1)
    if any(by_depth[extra][0].khi == 0 for extra in by_depth):
        return  # the gauge of a nonzero vector is positive
    with keyed_by_depth(by_depth):
        got = outcome(lambda: _floor_over_gauge(None, by_depth[0][0], num, "length"))
    assert got == outcome(lambda: ref_floor_over_gauge(lambda extra: by_depth[extra][0], num))


@st.composite
def fixed_reals(draw, scale):
    """A realized constant, or a mantissa with a random rational error."""
    text = draw(st.sampled_from([None, "sqrt:2", "sqrt:3", "dec:0.1", "rat:2/7", "rat:1/3"]))
    if text is not None:
        return RealSpec.parse(text).realize(scale)
    err = draw(st.one_of(st.just(Q(0)), st.just(Q(1)), positive, st.builds(Q, st.integers(0, 10), st.integers(1, 10**30))))
    return FixedReal(draw(st.integers(0, (1 << scale) - 1)), scale, err)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([64, 128, 192]), st.data(), st.integers(0, 2**31 - 1))
def test_err_int_and_thresholds_match_fraction_formula(scale, data, n_max):
    alpha = data.draw(fixed_reals(scale))
    gamma = data.draw(st.one_of(st.none(), fixed_reals(scale)))
    coord = CoordScan(alpha, gamma, data.draw(st.sampled_from([1, -1])))
    e = math.ceil(alpha.err * n_max + (gamma.err if gamma is not None else 0))
    assert coord.err_int(n_max) == e
    thr = data.draw(st.one_of(
        st.just(Q(0)),
        st.builds(Q, st.integers(-10**9, 10**9), st.integers(1, 10**9)),
        st.builds(lambda j: Q(j, 1 << scale), st.integers(0, 1 << (scale - 1))),
    ))  # fmt: skip
    t = thr * (1 << scale)
    spec = ThresholdSpec.for_fraction(coord, thr, n_max)
    assert (spec.t_in, spec.t_out) == (math.floor(t - e), math.floor(t + e))


# -- pins recorded before the integer rewrite --------------------------------------

PINS = json.loads((Path(__file__).with_name("minima_pins.json")).read_text())


def _pin_bodies():
    """The degenerate grid, the minima CLI line and a mixed k = 3 body."""
    for q in range(2, 11):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                for N in (1000, 2000):
                    yield f"rat:{p}/{q} N={N} d=0.1", [f"rat:{p}/{q}"], N, ["0.1"]
    yield "sqrt:2,sqrt:3 N=100000 d=0.5,0.5", ["sqrt:2", "sqrt:3"], 100000, ["0.5", "0.5"]
    yield "sqrt:5,rat:2/7 N=10000 d=0.3,0.2", ["sqrt:5", "rat:2/7"], 10000, ["0.3", "0.2"]


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_minima_pins():
    """sha256 of successive_minima(...).to_dict(), and of the (man, scale,
    err) of every lambda, basis gauge and gauge of a minima vector."""
    labels = []
    for label, alphas, N, deltas in _pin_bodies():
        body = build_body(BohrSpec.build(alphas, None, N, deltas))
        res = successive_minima(body)
        fixed = [res.lambdas + res.basis_gauges, [gauge(body, v) for v in res.minima_vectors]]
        fixed = [[x.man, x.scale, str(x.err)] for xs in fixed for x in xs]
        assert (_sha(res.to_dict()), hashlib.sha256(json.dumps(fixed).encode()).hexdigest()) == tuple(PINS[label]), label
        labels.append(label)
    assert sorted(labels) == sorted(PINS)


# -- the depth-0 path guard ---------------------------------------------------------


def _count_calls(monkeypatch):
    """Count _key_cmp calls, and the gauge-order certify calls with the depths
    each ran."""
    seen = {"key_cmp": 0, "escalations": []}
    key_cmp, orig_certify = minima._key_cmp, minima.certify

    def counting_key_cmp(*args):
        seen["key_cmp"] += 1
        return key_cmp(*args)

    def recording_certify(step, msg, *args, **kw):
        if not msg.startswith("gauge order"):
            return orig_certify(step, msg, *args, **kw)
        depths = []
        seen["escalations"].append((args, depths))
        return orig_certify(lambda extra: depths.append(extra) or step(extra), msg, *args, **kw)

    monkeypatch.setattr(minima, "_key_cmp", counting_key_cmp)
    monkeypatch.setattr(minima, "certify", recording_certify)
    return seen


@pytest.mark.parametrize("alphas,N,deltas", [
    (["rat:3/7"], 2000, ["0.1"]),
    (["rat:1/2"], 1000, ["0.1"]),
    (["rat:2/7", "rat:3/11"], 5000, ["0.3", "0.2"]),
    (["dec:0.41", "rat:5/9", "rat:1/3"], 3000, ["0.5", "0.25", "0.5"]),
])  # fmt: skip
def test_rational_body_settles_every_comparison_at_depth_zero(monkeypatch, alphas, N, deltas):
    seen = _count_calls(monkeypatch)
    successive_minima(build_body(BohrSpec.build(alphas, None, N, deltas)))
    assert seen["key_cmp"] > 0
    assert seen["escalations"] == []


def _wide_body() -> ConvexBody:
    """sqrt(5) held with err 2^110 ulp: most depth-0 brackets overlap, and
    depth 64 (the sqrt refined from its source) separates them."""
    body = build_body(BohrSpec.build(["sqrt:5"], None, 10**5, ["0.1"]))
    a = fr_sqrt_int(5, 128)
    alpha = TargetVector((FixedReal(a.man, 128, Q(2**110), RealSpec("sqrt", 5)),))
    return ConvexBody(alpha, body.c, body.lam_pow_k)


def test_irrational_ties_escalate_as_before(monkeypatch):
    # recorded before the depth-0 fast path: 36 comparisons went to depth 64
    seen = _count_calls(monkeypatch)
    res = successive_minima(_wide_body())
    esc = [[list(u), list(v), d] for (u, v), d in seen["escalations"]]
    assert len(esc) == 36 and all(d == [0, 64] for _, _, d in esc)
    assert esc[0] == [[610, 1364], [305, 682], [0, 64]]
    assert hashlib.sha256(json.dumps(esc).encode()).hexdigest() == "9265a6a303ca0db054c9e5ad9db517b01761ef525c5099ce262d844db195f7a4"
    assert _sha(res.to_dict()) == "b9f4c041435a01ff4cb8ca4ca884164b3b471932f183252658899f3fe693d9c1"


def test_exact_irrational_tie_still_exhausts(monkeypatch):
    seen = _count_calls(monkeypatch)
    with pytest.raises(PrecisionExhausted, match=r"gauge order undecidable between \(36, 81, 80\) and \(36, 80, 81\)"):
        successive_minima(build_body(BohrSpec.build(["sqrt:5", "sqrt:5"], None, 5000, ["0.5", "0.5"])))
    assert [d for _, d in seen["escalations"]] == [[0, 64, 192]]
