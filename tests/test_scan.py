"""Vectorized exact scanner vs plain big-int reference evaluation."""

import ast
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrgap.bohr import BohrSpec, enumerate_bohr
from bohrgap.errors import BudgetExceeded, PrecisionExhausted, ValidationError
from bohrgap.exponents import TargetVector, simult_exponent_est
from bohrgap.realfield import (
    FixedReal,
    RealSpec,
    certify,
    dist_nearest_int,
    fr_from_fraction,
    fr_sqrt_int,
)
from bohrgap.scan import _SLICE, BLOCK, CoordScan, ThresholdSpec, _words_le, blocks, first_in_range, le, members_in_range

Q = Fraction


def bigint_dist(ma: int, mg: int, n: int, scale: int) -> int:
    # reference route: one big multiplication per n, no limbs
    one = 1 << scale
    r = (n * ma - mg) % one
    return r if 2 * r <= one else one - r


@pytest.mark.parametrize("alpha_spec,gamma_text", [
    ("sqrt:2", "0"),
    ("sqrt:3", "0.3"),
    ("rat:1/3", "0.5"),
    ("dec:0.7312", "0.25"),
])
def test_dist_words_match_bigint(alpha_spec, gamma_text):
    a = RealSpec.parse(alpha_spec).realize(128)
    g = RealSpec.parse(f"dec:{gamma_text}").realize(128)
    sc = CoordScan(a, g)
    rng = random.Random(7)
    ns = sorted(rng.sample(range(1, 10**7), 400))
    words = sc.dist_words(np.array(ns, dtype=np.uint64))
    got = [int(words[0][i]) | (int(words[1][i]) << 64) for i in range(len(ns))]
    want = [bigint_dist(a.man % (1 << 128), g.man % (1 << 128), n, 128) for n in ns]
    assert got == want


def test_scan_limit_raises_before_the_first_block():
    a = RealSpec.parse("sqrt:2").realize(128)
    c = CoordScan(a)
    spec = ThresholdSpec.for_fraction(c, Q(1, 10), 1 << 32)
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="31-bit scan limit"):
        members_in_range([c], [spec], 2**31 - 2, 2**31 + 2)
    with pytest.raises(BudgetExceeded, match="31-bit scan limit"):
        enumerate_bohr(BohrSpec.build(["sqrt:2"], None, 2**31, ["0.1"]))
    with pytest.raises(BudgetExceeded, match="31-bit scan limit"):
        first_in_range([c], [spec], 2**31 - 2, 2**31 + 2)
    with pytest.raises(BudgetExceeded, match="31-bit scan limit"):
        simult_exponent_est(TargetVector((a,)), n_max=2**31)
    assert time.perf_counter() - t0 < 1
    # the last n below the limit still scans exactly
    top = 2**31 - 1
    got = members_in_range([c], [spec], top - 5000, top)
    want = [n for n in range(top - 5000, top + 1) if 10 * bigint_dist(a.man, 0, n, 128) <= 1 << 128]
    assert got.tolist() == want


def test_dist_floats_close_to_exact():
    a = fr_sqrt_int(5, 128)
    sc = CoordScan(a, None)
    ns = np.arange(1, 5000, dtype=np.uint64)
    f = sc.dist_floats(ns)
    for i in (0, 1, 57, 2500, 4998):
        d = bigint_dist(a.man, 0, int(ns[i]), 128)
        assert abs(f[i] - d / 2**128) <= 1e-14


def brute_members(alpha, gamma, thr, lo, hi):
    aex, gex = alpha.exact(), Q(0) if gamma is None else gamma.exact()
    out = []
    for n in range(lo, hi + 1):
        v = alpha.mul_int(n)
        d = dist_nearest_int(v if gamma is None else v - gamma)
        if gex is not None and (aex is not None or n == 0):
            x = (n * aex if n else 0) - gex
            ex = min(x - math.floor(x), math.ceil(x) - x)
            if ex <= thr:
                out.append(n)
        else:
            dlo, dhi = d.bounds()
            assert dhi < thr or dlo > thr, "reference needs a decisive margin"
            if dhi <= thr:
                out.append(n)
    return out


@pytest.mark.parametrize("alpha_spec,gamma_text,thr", [
    ("sqrt:2", "0", Q(1, 20)),
    ("sqrt:7", "0.3", Q(1, 10)),
    ("rat:2/7", "0.5", Q(1, 7)),
])
def test_members_match_bruteforce(alpha_spec, gamma_text, thr):
    a = RealSpec.parse(alpha_spec).realize(128)
    g = RealSpec.parse(f"dec:{gamma_text}").realize(128)
    sc = CoordScan(a, g)
    spec = ThresholdSpec.for_fraction(sc, thr, 3000)
    got = members_in_range([sc], [spec], 0, 3000).tolist()
    assert got == brute_members(a, g, thr, 0, 3000)


def test_threshold_boundary_inclusive_exact():
    # alpha = 1/4 exactly (dyadic): ||2 * 1/4|| = 1/2 == thr must be included
    a = RealSpec.parse("dec:0.25").realize(128)
    sc = CoordScan(a, None)
    spec = ThresholdSpec.for_fraction(sc, Q(1, 2), 100)
    got = members_in_range([sc], [spec], 1, 8).tolist()
    assert got == [1, 2, 3, 4, 5, 6, 7, 8]
    tight = ThresholdSpec.for_fraction(sc, Q(1, 4), 100)
    got = members_in_range([sc], [tight], 1, 8).tolist()
    assert got == [1, 3, 4, 5, 7, 8]


def test_borderline_falls_back_to_exact():
    # inflate the error so the vector pass cannot decide anything; the
    # refinement path must still produce the exact member list
    base = fr_sqrt_int(2, 128)
    fat = FixedReal(base.man, 128, Q(1, 1) * (1 << 90), base.source)
    sc = CoordScan(fat, None)
    spec = ThresholdSpec.for_fraction(sc, Q(1, 20), 200)
    got = members_in_range([sc], [spec], 1, 200).tolist()
    want = brute_members(base, None, Q(1, 20), 1, 200)
    assert got == want


def test_two_coordinates_intersect():
    a1, a2 = fr_sqrt_int(2, 128), fr_sqrt_int(3, 128)
    s1, s2 = CoordScan(a1, None), CoordScan(a2, None)
    t1 = ThresholdSpec.for_fraction(s1, Q(1, 5), 500)
    t2 = ThresholdSpec.for_fraction(s2, Q(1, 5), 500)
    got = set(members_in_range([s1, s2], [t1, t2], 1, 500).tolist())
    w1 = set(brute_members(a1, None, Q(1, 5), 1, 500))
    w2 = set(brute_members(a2, None, Q(1, 5), 1, 500))
    assert got == (w1 & w2)


def test_first_in_range_matches_members():
    a = fr_sqrt_int(2, 128)
    sc = CoordScan(a, RealSpec.parse("dec:0.3").realize(128))
    spec = ThresholdSpec.for_fraction(sc, Q(1, 50), 10**5)
    members = members_in_range([sc], [spec], 1, 10**5)
    assert first_in_range([sc], [spec], 1, 10**5) == int(members[0])
    assert first_in_range([sc], [spec], 1, int(members[0]) - 1) is None


def test_first_in_range_runs_no_callback_past_its_first_member():
    sc = CoordScan(fr_sqrt_int(2, 128), RealSpec.parse("dec:0.3").realize(128))
    spec = ThresholdSpec.for_fraction(sc, Q(1, 50), 10**4)
    s5 = CoordScan(fr_sqrt_int(5, 128))
    t5 = ThresholdSpec.for_fraction(s5, Q(2, 5), 10**4)
    first = int(members_in_range([sc, s5], [spec, t5], 1, 10**4)[0])
    calls = []

    def exact(n):
        if n > first:
            raise AssertionError(f"exact callback at n={n}, past the first member {first}")
        calls.append(n)
        return spec.exact(n)

    # bounds this wide leave every n of the block to the exact callback
    lazy = ThresholdSpec(-1, 1 << 128, exact)
    assert first_in_range([s5, sc], [t5, lazy], 1, 10**4) == first
    assert calls[-1] == first and len(calls) == len(set(calls))

def test_block_boundaries_are_seamless():
    a = fr_sqrt_int(2, 128)
    sc = CoordScan(a, None)
    spec = ThresholdSpec.for_fraction(sc, Q(1, 3), BLOCK * 2 + 100)
    got = members_in_range([sc], [spec], BLOCK - 5, BLOCK + 5).tolist()
    want = brute_members(a, None, Q(1, 3), BLOCK - 5, BLOCK + 5)
    assert got == want


def test_blocks_cover_the_range_and_check_the_limit():
    got = list(blocks(BLOCK - 5, 3 * BLOCK + 7))
    assert [len(b) for b in got] == [BLOCK, BLOCK, 13]
    assert all(b.dtype == np.uint64 for b in got)
    assert np.concatenate(got).tolist() == list(range(BLOCK - 5, 3 * BLOCK + 8))
    assert list(blocks(10, 9)) == []
    with pytest.raises(BudgetExceeded, match="31-bit scan limit"):
        next(blocks(2**31 - 2, 2**31))


def test_block_size_lives_in_scan():
    # one block iterator: no module but scan.py names BLOCK
    src = Path(__file__).resolve().parents[1] / "src" / "bohrgap"
    holders = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id == "BLOCK") or (
                isinstance(node, ast.alias) and node.name == "BLOCK"
            ):
                holders.add(path.name)
    assert holders == {"scan.py"}


def test_near_zero_rule():
    third = CoordScan(RealSpec.parse("rat:1/3").realize(128))
    assert third.dist_float(3) == 0.0  # a true zero is exactly 0.0
    assert third.dist_float(4) == 1 / 3
    # sqrt(8) = 2*sqrt(2): a true zero at n = 2 that no finite depth proves
    sc = CoordScan(RealSpec.parse("sqrt:2").realize(128), RealSpec.parse("sqrt:8").realize(128))
    assert sc.dist_floats(np.array([2], dtype=np.uint64))[0] <= sc.zero_band(2)
    with pytest.raises(PrecisionExhausted, match="n=2 cannot be separated from zero"):
        sc.dist_float(2)
    # an inexact distance is read 64 bits deeper than the scan's own scale
    s5 = CoordScan(fr_sqrt_int(5, 128))
    lo, hi = s5.dist_fixed(1000, 64).bounds()
    assert s5.dist_float(1000) == float((lo + hi) / 2)
    # 10^-400 is nonzero, but its float is 0.0: that must not read as a true zero
    deep = CoordScan(RealSpec.parse("dec:0." + "0" * 399 + "1").realize(2048))
    with pytest.raises(ValidationError, match="n=1 is nonzero but below the float range"):
        deep.dist_float(1)


def test_flipped_handles_negative_axis():
    a = fr_sqrt_int(2, 128)
    g = RealSpec.parse("dec:0.3").realize(128)
    sc = CoordScan(a, g).flipped()
    # ||(-n) alpha - gamma|| == ||n alpha + gamma||
    for n in (1, 12, 99):
        d1 = dist_nearest_int(a.mul_int(-n) - g)
        words = sc.dist_words(np.array([n], dtype=np.uint64))
        got = int(words[0][0]) | (int(words[1][0]) << 64)
        assert got == d1.man


def _ladder_le(sc, n, thr):
    """dist_le's certified ladder, without the rational cross-multiplication."""
    return certify(lambda extra: le(*sc.bracket(n, extra), thr), "undecided at {}", n)


@pytest.mark.parametrize("alpha_spec,gamma_spec", [
    ("rat:2/7", None),
    ("rat:3/11", "rat:1/2"),
    ("dec:0.7312", "dec:0.25"),
    ("rat:5/13", "dec:0.1"),
    ("sqrt:9", "rat:1/3"),  # a perfect square is exactly rational too
])
@pytest.mark.parametrize("g_sign", [1, -1])
def test_dist_le_rational_fast_path_matches_ladder(alpha_spec, gamma_spec, g_sign):
    a = RealSpec.parse(alpha_spec).realize(128)
    g = RealSpec.parse(gamma_spec).realize(128) if gamma_spec else None
    sc = CoordScan(a, g, g_sign)
    assert sc._pr_q is not None
    aex = a.exact()
    gex = g.exact() if g is not None else Q(0)
    for n in range(-60, 400):
        x = n * aex - g_sign * gex
        frac = x - (x.numerator // x.denominator)
        dist = min(frac, 1 - frac)
        # thresholds straddling and exactly at the distance exercise the ties
        for thr in (dist, dist - Q(1, 10**30), dist + Q(1, 10**30), Q(1, 7), Q(1, 2), Q(0)):
            if thr < 0:
                continue
            want = dist <= thr
            assert sc.dist_le(n, thr) == want
            assert _ladder_le(sc, n, thr) == want


def test_dist_le_irrational_keeps_the_ladder():
    sc = CoordScan(fr_sqrt_int(2, 128), RealSpec.parse("dec:0.3").realize(128))
    assert sc._pr_q is None
    for n in range(1, 200):
        assert sc.dist_le(n, Q(1, 9)) == _ladder_le(sc, n, Q(1, 9))


# -- residue decider for exactly rational coordinates -------------------------


def _loop_members(coords, specs, lo, hi):
    """Reference scan with no residue decider: banded words, then every
    borderline n through its spec's per-n exact callback."""
    out = []
    for ns in blocks(lo, hi):
        ins, outs = [], []
        for c, spec in zip(coords, specs):
            words = c.dist_words(ns)
            ins.append(_words_le(words, spec.t_in, c.nwords))
            outs.append(~_words_le(words, spec.t_out, c.nwords))
        for i, n in enumerate(ns.tolist()):
            if not any(o[i] for o in outs) and all(cin[i] or s.exact(n) for cin, s in zip(ins, specs)):
                out.append(n)
    return out


def _fraction_le(sc, n, thr):
    """||n*alpha - g_sign*gamma|| <= thr for exactly rational alpha and gamma,
    on Python ints over the least common denominator D."""
    a = sc.alpha.exact()
    g = sc.g_sign * (sc.gamma.exact() if sc.gamma is not None else Q(0))
    D = math.lcm(a.denominator, g.denominator)
    x = (n * a.numerator * (D // a.denominator) - g.numerator * (D // g.denominator)) % D
    return min(x, D - x) * thr.denominator <= thr.numerator * D


def _fits_int64(q, thr):
    return q < 1 << 31 and q * thr.denominator < 1 << 62 and abs(thr.numerator * q) < 1 << 62


@st.composite
def _rational_cases(draw):
    q = draw(st.one_of(st.integers(1, 60), st.integers(2, 10**6), st.integers(2**31 - 300, 2**31 - 1)))
    p = draw(st.integers(-3 * q, 3 * q))
    alpha = f"rat:{p}/{q}"
    gamma = draw(st.one_of(
        st.none(),
        st.builds(lambda a, b: f"rat:{a}/{b}", st.integers(-20, 20), st.integers(1, 12)),
        st.builds(lambda d: f"dec:0.{d:03d}", st.integers(0, 999)),
    ))
    sc = CoordScan(RealSpec.parse(alpha).realize(128), RealSpec.parse(gamma).realize(128) if gamma else None)
    if draw(st.booleans()):
        sc = sc.flipped()
    qq = sc._pr_q[2]  # every distance is a multiple of 1/qq
    thr = draw(st.one_of(
        st.just(Q(0)),
        st.just(Q(1, 2 * qq)),
        st.builds(lambda j: Q(j, qq), st.integers(0, qq // 2 + 1)),
        st.sampled_from([Q(1, 2), Q(3, 4), Q(7, 3)]),
        st.just(-Q(1, qq)),
        st.builds(Q, st.integers(1, 50), st.integers(51, 200)),
    ))
    lo = draw(st.one_of(
        st.integers(0, 300),
        st.integers(BLOCK - 400, BLOCK + 20),
        st.integers(2 * BLOCK - 400, 2 * BLOCK),
        st.just(2**31 - 500),
    ))
    hi = min(lo + draw(st.integers(0, 500)), 2**31 - 1)
    return sc, thr, lo, hi


@settings(max_examples=80, deadline=None)
@given(_rational_cases())
def test_residue_decider_matches_per_n_loop(case):
    sc, thr, lo, hi = case
    spec = ThresholdSpec.for_fraction(sc, thr, hi)
    assert (spec.block is not None) == _fits_int64(sc._pr_q[2], thr)
    want = _loop_members([sc], [spec], lo, hi)
    assert want == [n for n in range(lo, hi + 1) if _fraction_le(sc, n, thr)]
    assert members_in_range([sc], [spec], lo, hi).tolist() == want
    assert first_in_range([sc], [spec], lo, hi) == (want[0] if want else None)
    # next to an irrational coordinate, whose ties still go through its callback
    s2 = CoordScan(fr_sqrt_int(2, 128))
    t2 = ThresholdSpec.for_fraction(s2, Q(1, 4), hi)
    want2 = _loop_members([sc, s2], [spec, t2], lo, hi)
    assert members_in_range([sc, s2], [spec, t2], lo, hi).tolist() == want2
    assert first_in_range([s2, sc], [t2, spec], lo, hi) == (want2[0] if want2 else None)


@pytest.mark.parametrize("alpha,gamma,thr,fits", [
    # q = 2^31 - 1 is the largest denominator the decider takes
    ("rat:5/2147483647", None, Q(2, 2147483647), True),
    ("rat:5/2147483648", None, Q(2, 2147483648), False),
    ("rat:3/7", "rat:1/306783378", Q(1, 9), True),  # q = 7 * 306783378 < 2^31
    ("rat:3/7", "rat:1/306783379", Q(1, 9), False),
    # q*den at and past 2^62
    ("rat:3/1024", None, Q(1, (1 << 52) - 1), True),
    ("rat:3/1024", None, Q(1, 1 << 52), False),
    # |num*q| at and past 2^62, with num*q the only product out of range
    ("rat:3/1024", None, Q((1 << 52) - 1), True),
    ("rat:3/1024", None, Q(1 << 52), False),
    ("rat:3/1024", None, Q(-(1 << 52)), False),
])
def test_residue_decider_int64_bounds(alpha, gamma, thr, fits):
    sc = CoordScan(RealSpec.parse(alpha).realize(128), RealSpec.parse(gamma).realize(128) if gamma else None)
    for c in (sc, sc.flipped()):
        spec = ThresholdSpec.for_fraction(c, thr, 2**31 - 1)
        assert (spec.block is not None) == fits
        for lo in (0, BLOCK - 100, 2**31 - 200):
            want = [n for n in range(lo, lo + 200) if _fraction_le(c, n, thr)]
            assert _loop_members([c], [spec], lo, lo + 199) == want
            assert members_in_range([c], [spec], lo, lo + 199).tolist() == want


def test_rational_bohr_scan_skips_words_and_callbacks(monkeypatch):
    spec = BohrSpec.build(["rat:2/9", "dec:0.15"], ["rat:1/3", "dec:0.05"], BLOCK + 900, ["1/9", "0.1"])
    coords = [CoordScan(a, g) for a, g in zip(spec.alpha.alphas, spec.gammas())]
    deltas = spec.delta

    def oracle(ns, cs):
        return [n for n in ns if all(_fraction_le(c, n, t) for c, t in zip(cs, deltas))]

    pos = oracle(range(0, spec.N + 1), coords)
    neg = [-n for n in oracle(range(spec.N, 0, -1), [c.flipped() for c in coords])]

    def boom(*args, **kwargs):
        raise AssertionError("rational coordinates must be decided by residues")

    monkeypatch.setattr(CoordScan, "dist_words", boom)
    monkeypatch.setattr(CoordScan, "dist_le", boom)  # every spec's exact callback
    assert enumerate_bohr(spec, "positive").members.tolist() == [n for n in pos if n > 0]
    assert enumerate_bohr(spec).members.tolist() == neg + pos


def test_rational_bohr_scan_past_the_bound_falls_back(monkeypatch):
    q = (1 << 31) + 11
    spec = BohrSpec.build([f"rat:1/{q}"], None, 3000, [f"1000/{q}"])
    words, exact = [], []
    dist_words, dist_le = CoordScan.dist_words, CoordScan.dist_le

    def counted_words(self, ns):
        words.append(len(ns))
        return dist_words(self, ns)

    def counted_le(self, n, thr, **kw):
        exact.append(n)
        return dist_le(self, n, thr, **kw)

    monkeypatch.setattr(CoordScan, "dist_words", counted_words)
    monkeypatch.setattr(CoordScan, "dist_le", counted_le)
    assert enumerate_bohr(spec, "positive").members.tolist() == list(range(1, 1001))
    assert sum(words) == 3000 and 1000 in exact  # n = 1000 is the tie


# -- three-gap oracle (Slater 1967; Sos 1958) ----------------------------------


def _member_oracle(s, gamma, delta):
    """Exact ||n*sqrt(s) - gamma|| <= delta for n >= 1, on Python ints.

    s is not a square and gamma, delta are rational, so no n >= 1 lands on
    an endpoint.  With D a common denominator, D*n*sqrt(s) lies in (f, f+1),
    and r = (f - D*gamma) mod D is the integer part of its offset.
    """
    D = math.lcm(gamma.denominator, delta.denominator)
    G, E = int(gamma * D), int(delta * D)

    def member(n):
        r = (math.isqrt(D * D * n * n * s) - G) % D
        return r < E or r >= D - E

    return member


def _slater_gaps(s, width):
    """The return times a, b, a + b of n*sqrt(s) mod 1 to an interval of the
    given length: a is the least m >= 1 with {m sqrt(s)} < width, b the least
    with {-m sqrt(s)} < width."""
    p, q = width.numerator, width.denominator
    a = b = None
    m = 0
    while a is None or b is None:
        m += 1
        f = math.isqrt(m * m * s)  # floor(m sqrt(s))
        if a is None and q * q * m * m * s < (q * f + p) ** 2:
            a = m
        if b is None and q * q * m * m * s > (q * (f + 1) - p) ** 2:
            b = m
    return sorted({a, b, a + b})


def _assert_three_gap(members, lo, hi, s, gamma, delta):
    """Every member is one, and each next member is the first member among
    n + a, n + b, n + a + b; so no member is missing or extra."""
    member = _member_oracle(s, gamma, delta)
    returns = _slater_gaps(s, 2 * delta)
    ms = members.tolist()
    assert ms and lo <= ms[0] and ms[-1] <= hi
    assert not any(member(n) for n in range(lo, ms[0]))
    gaps = set()
    for n, nxt in zip(ms, ms[1:] + [None]):
        assert member(n), n
        succ = next(n + g for g in returns if member(n + g))
        if nxt is None:
            assert succ > hi
        else:
            assert succ == nxt, (n, nxt, succ)
            gaps.add(nxt - n)
    # at most three gaps, and with three the largest is the sum of the others
    assert len(gaps) <= 3 and (len(gaps) < 3 or 2 * max(gaps) == sum(gaps))


@pytest.mark.parametrize("s,gamma_text,delta", [
    (2, "dec:0.3", Q(1, 50)),
    (7, "rat:-2/7", Q(1, 40)),
])
def test_three_gap_oracle(s, gamma_text, delta):
    gamma = RealSpec.parse(gamma_text).realize(128)
    N = 10**6
    spec = BohrSpec.build([f"sqrt:{s}"], [gamma_text], N, [str(float(delta))])
    assert spec.delta == (delta,)
    _assert_three_gap(enumerate_bohr(spec, "positive").members, 1, N, s, gamma.exact(), delta)
    # the last 10^6 n below the scan limit, across about 15 block boundaries
    sc = CoordScan(RealSpec.parse(f"sqrt:{s}").realize(128), gamma)
    hi = 2**31 - 1
    lo = hi - N + 1
    got = members_in_range([sc], [ThresholdSpec.for_fraction(sc, delta, hi)], lo, hi)
    _assert_three_gap(got, lo, hi, s, gamma.exact(), delta)


# -- the in-place kernel against the allocating one ------------------------------

_M32, _SH32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def ref_limb_mul(ns, a, g):
    """Reference: the allocating limb kernel, one new array per operation."""
    carry = np.zeros(len(ns), dtype=np.uint64)
    limbs = []
    for j, aj in enumerate(a):
        t = ns * aj + carry + g[j]
        limbs.append(t & _M32)
        carry = t >> _SH32
    return [limbs[2 * w] | (limbs[2 * w + 1] << _SH32) for w in range(len(limbs) // 2)]


def ref_dist_words(sc, ns):
    r = ref_limb_mul(ns, sc._a, sc._g)
    top_is_high = r[-1] >= np.uint64(1 << 63)
    out, low_zero = [], np.ones(len(ns), dtype=bool)
    for w in r:
        out.append(np.where(top_is_high, ~w + low_zero, w))
        low_zero &= w == 0
    return out


def ref_dist_floats(sc, ns):
    words = ref_dist_words(sc, ns)
    out = np.zeros(len(ns), dtype=np.float64)
    for w in range(sc.nwords - 1, -1, -1):
        out = out * 18446744073709551616.0 + words[w].astype(np.float64)
    return out * math.ldexp(1.0, -sc.scale)


def _same_kernel(sc, ns):
    got, want = sc.dist_words(ns), ref_dist_words(sc, ns)
    assert len(got) == len(want) == sc.nwords
    for g, w in zip(got, want):
        assert g.dtype == np.uint64 and np.array_equal(g, w)
    floats = sc.dist_floats(ns)
    assert floats.dtype == np.float64
    assert np.array_equal(floats.view(np.uint64), ref_dist_floats(sc, ns).view(np.uint64))  # bit for bit


@pytest.mark.parametrize("scale", [64, 128, 192, 256])
@pytest.mark.parametrize("alpha_text,gamma_text", [
    ("sqrt:2", None),
    ("rat:1/3", "rat:1/2"),
    ("dec:0.7312", "dec:0.3"),
    ("sqrt:7", "sqrt:3"),
    ("rat:5/7", "sqrt:2"),
    ("sqrt:5", "rat:2/9"),
    ("rat:1/2", None),  # every word of n*alpha below the top is zero: the fold carries through
])
def test_in_place_kernel_matches_the_allocating_one(scale, alpha_text, gamma_text):
    a = RealSpec.parse(alpha_text).realize(scale)
    g = RealSpec.parse(gamma_text).realize(scale) if gamma_text else None
    for g_sign in (1, -1):
        sc = CoordScan(a, g, g_sign)
        _same_kernel(sc, np.array([0, 1, 2, 3, 2**31 - 2, 2**31 - 1], dtype=np.uint64))
        rng = random.Random(scale)
        _same_kernel(sc, np.array(sorted(rng.sample(range(2**31), 300)), dtype=np.uint64))
        # a partial last block
        parts = list(blocks(2 * BLOCK - 40, 3 * BLOCK - 24))
        assert len(parts[-1]) == 17
        for ns in parts[-2:]:
            _same_kernel(sc, ns)
        # three whole kernel slices and a partial fourth, near the scan limit
        _same_kernel(sc, np.arange(2**31 - 3 * _SLICE - 17, 2**31, dtype=np.uint64))


def test_in_place_kernel_takes_a_million_long_array():
    sc = CoordScan(RealSpec.parse("sqrt:2").realize(128), RealSpec.parse("dec:0.3").realize(128))
    _same_kernel(sc, np.arange(2**31 - 10**6, 2**31, dtype=np.uint64))
