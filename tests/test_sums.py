"""Reciprocal-distance sums: exact support masks, dyadic sandwiches, seeded
fibre experiments.  Hand-checkable rational cases are asserted exactly;
irrational suite values are frozen against an mpmath oracle."""

import math
import random
import statistics
from fractions import Fraction as Q

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrgap.bohr import BohrSpec, _coord_scans
from bohrgap.cli import main
from bohrgap.counting import totient_sieve
from bohrgap.errors import BudgetExceeded, ValidationError
from bohrgap.realfield import RealSpec
from bohrgap.scan import BLOCK, CoordScan, blocks
from bohrgap.sums import (
    _REL_BAND,
    _cell_exact,
    ApproxFunction,
    ExactSum,
    _err_bound,
    _nonzero_dist,
    _on_support_exact,
    ds_hypothesis_check,
    dyadic_table,
    eta_split_check,
    gallagher_experiment,
    psi_family,
    psi_modified,
    sum_series,
    SupportMask,
    support_mask,
    t_star_sum,
    t_sum,
    trivial_mask,
)

mpmath.mp.dps = 60


# -- oracles ---------------------------------------------------------------


def mp_dist(x):
    f = x - mpmath.floor(x)
    return min(f, 1 - f)


def phi_oracle(n):
    out = 0
    for m in range(1, n + 1):
        if math.gcd(m, n) == 1:
            out += 1
    return out


def oracle_t_sum(alpha_mp, N, weights=None):
    total = mpmath.mpf(0)
    for n in range(1, N + 1):
        term = mpmath.mpf(1)
        for a in alpha_mp:
            term /= mp_dist(n * a)
        if weights is not None:
            term *= weights[n - 1]
        total += term
    return total


def third_spec(N, eps=Q(1, 4)):
    return BohrSpec.build(["rat:1/3"], ["rat:1/2"], N, ["1"], eps)


# -- support masks -----------------------------------------------------------


def test_mask_hand_rule_third():
    # dist(n) = 1/2 when 3 | n, else 1/6; threshold n^(-1/2)
    m = support_mask(third_spec(60))
    for n in range(1, 61):
        expect = (n % 3 == 0 and n >= 4) or n >= 36
        assert m.contains(n) == expect, n
    assert not m.contains(1)
    assert m.eps == Q(1, 4)
    assert m.kept == 35 and m.excluded == 25


def test_mask_exact_tie_is_member():
    # dist(36) = 1/6 = 36^(-1/2) exactly: boundary stays in
    spec = BohrSpec.build(["rat:1/3"], ["rat:1/6"], 40, ["1"], Q(1, 4))
    m = support_mask(spec)
    assert m.contains(36)
    assert not m.contains(34)
    assert m.borderline == 1


def test_mask_trivial_and_range_guards():
    m = trivial_mask(10)
    assert m.trivial and m.kept == 10
    with pytest.raises(ValidationError):
        m.contains(11)
    with pytest.raises(ValidationError):
        trivial_mask(0)
    with pytest.raises(BudgetExceeded):
        trivial_mask(3 * 10**7)


def test_mask_against_mp_oracle_sqrt2():
    spec = BohrSpec.build(["sqrt:2"], None, 3000, ["1"], Q(1, 20))
    m = support_mask(spec)
    a = mpmath.sqrt(2)
    tau = mpmath.sqrt(mpmath.mpf(1) / 20)
    for n in range(2, 3001):
        assert m.contains(n) == (mp_dist(n * a) >= mpmath.mpf(n) ** -tau), n


def test_mask_pin_sqrt2_1e5():
    spec = BohrSpec.build(["sqrt:2"], None, 10**5, ["1"], Q(1, 20))
    m = support_mask(spec)
    assert (m.kept, m.excluded, m.borderline) == (80381, 19619, 0)
    d = m.to_dict()
    assert d["kept"] == 80381 and d["eps"] == "1/20"


# -- T and T* ---------------------------------------------------------------


def test_t9_exact():
    # dist cycle (1/6, 1/6, 1/2): T_9 = 3*(6+6+2) = 42
    r = t_sum(third_spec(9))
    assert r.value == 42.0
    assert r.terms == 9 and r.kind == "T" and not r.restricted


def test_t9_star_exact():
    # phi(n)/n weights: 2969/105
    r = t_star_sum(third_spec(9))
    assert abs(r.value - 2969 / 105) < 1e-12


def test_t_star_against_phi_oracle():
    spec = BohrSpec.build(["sqrt:2"], None, 60, ["1"])
    w = [phi_oracle(n) / n for n in range(1, 61)]
    want = oracle_t_sum([mpmath.sqrt(2)], 60, w)
    got = t_star_sum(spec).value
    assert abs(got - float(want)) <= 1e-11 * float(want)


def test_t_sum_mp_oracle_sqrt2():
    spec = BohrSpec.build(["sqrt:2"], None, 500, ["1"])
    want = oracle_t_sum([mpmath.sqrt(2)], 500)
    got = t_sum(spec)
    assert abs(got.value - float(want)) <= 1e-12 * float(want)
    assert got.err_bound < 1e-9 * got.value


def test_t_sum_mp_oracle_pair_restricted():
    spec = BohrSpec.build(["sqrt:2", "sqrt:3"], None, 400, ["1", "1"], Q(1, 20))
    m = support_mask(spec)
    a, b = mpmath.sqrt(2), mpmath.sqrt(3)
    want = mpmath.mpf(0)
    for n in range(1, 401):
        if m.contains(n):
            want += 1 / (mp_dist(n * a) * mp_dist(n * b))
    got = t_sum(spec, m)
    assert abs(got.value - float(want)) <= 1e-12 * float(want)
    assert got.restricted and got.terms == m.kept


def test_sum_guards():
    spec = BohrSpec.build(["sqrt:2"], None, 100, ["1"])
    with pytest.raises(ValidationError):
        t_sum(spec, trivial_mask(50), N=100)  # mask shorter than range
    with pytest.raises(ValidationError):
        t_sum(BohrSpec.build(["rat:1/2"], None, 10, ["1"]))  # zero distance at n=2
    with pytest.raises(ValidationError):
        sum_series(spec, [])


def test_sqrt2_1e4_pins():
    spec = BohrSpec.build(["sqrt:2"], None, 10**4, ["1"], Q(1, 20))
    m = support_mask(spec)
    assert m.kept == 6723
    assert abs(t_sum(spec).value - 192479.9609443984) < 1e-6
    assert abs(t_sum(spec, m).value - 22876.45602066863) < 1e-7
    assert abs(t_star_sum(spec, m).value - 13897.642287983364) < 1e-7


def test_sum_series_suite_pins(tmp_path):
    # frozen regression for the (sqrt2, sqrt3) suite vector
    spec = BohrSpec.build(["sqrt:2", "sqrt:3"], None, 10**5, ["1", "1"], Q(1, 20))
    rows = sum_series(spec, [10**4, 10**5])
    assert [r["terms"] for r in rows] == [4603, 64943]
    assert abs(rows[0]["T"] - 54279.79964637615) <= 1e-9 * rows[0]["T"]
    assert abs(rows[0]["T_star"] - 32968.00478306616) <= 1e-9 * rows[0]["T_star"]
    assert abs(rows[1]["T"] - 1119276.0763963643) <= 1e-9 * rows[1]["T"]
    assert abs(rows[1]["T_star"] - 680884.1529021278) <= 1e-9 * rows[1]["T_star"]
    for r in rows:
        assert 0.1 <= r["ratio_star"] <= 1.0
        assert r["ratio_T"] == r["T"] / (r["N"] * math.log(r["N"]) ** 2)
    argv = "sums t --alpha sqrt:2 --alpha sqrt:3 --N 100000 --delta 1 --checkpoints 10000,100000"
    assert main([*argv.split(), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert lines[0] == "N,T,T_star,ratio_T,ratio_star,eps,k"
    assert lines[1].startswith("10000,54279.7996464,32968.0047831,")


# -- dyadic tables ------------------------------------------------------------


def test_dyadic_half_alpha():
    # dist is exactly 1/2 (odd n) or 0 (even n): one cell, evens dropped
    spec = BohrSpec.build(["rat:1/2"], None, 20, ["1"])
    dt = dyadic_table(spec)
    assert dt.cells == {(1,): 10}
    assert dt.zero_excluded == 10
    assert dt.low_sum() == 20 and dt.high_sum() == 40
    assert dt.max_index() == (1,)


def test_dyadic_exact_binning_oracle():
    # rational alpha: recompute each cell index from the exact distance
    spec = BohrSpec.build(["rat:2/7"], None, 140, ["1"])
    dt = dyadic_table(spec)
    cells = {}
    zero = 0
    for n in range(1, 141):
        d = abs(Q(2 * n, 7) - round(Q(2 * n, 7)))
        if d == 0:
            zero += 1
            continue
        i = 0
        while d <= Q(1, 2 ** (i + 1)):
            i += 1
        cells[(i,)] = cells.get((i,), 0) + 1
    assert dt.cells == cells and dt.zero_excluded == zero


def test_cell_of_an_irrational_distance_matches_mpmath():
    # sqrt(2) has no exact distance, so each cell comes from the interval
    # bracket; n = 985 and 5741 are convergent denominators, with cells 11 and 13
    coord = CoordScan(RealSpec.parse("sqrt:2").realize(128))
    for n in (1, 2, 5, 12, 29, 70, 985, 5741, 10**6 + 3):
        d = mp_dist(n * mpmath.sqrt(2))
        want = int(mpmath.floor(-mpmath.log(d, 2)))
        assert mpmath.mpf(2) ** -(want + 1) < d <= mpmath.mpf(2) ** -want
        assert _cell_exact(coord, n) == want, n


def test_dyadic_cells_match_an_integer_oracle_across_blocks():
    # k = 3 over two scan blocks: cells counted block by block must equal a
    # per-n count from floor(n*sqrt(s)*2^K); d*2^K lies in (lo, lo + 1), so
    # the largest i with d <= 2^-i is K - bit_length(lo)
    K, N = 128, 70000
    spec = BohrSpec.build(["sqrt:2", "sqrt:3"], None, N, ["1", "1"])
    want = {}
    for n in range(1, N + 1):
        cell = []
        for s in (2, 3):
            f = math.isqrt(n * n * s << (2 * K)) % (1 << K)
            lo = f if f < 1 << (K - 1) else (1 << K) - f - 1
            cell.append(K - lo.bit_length())
        want[tuple(cell)] = want.get(tuple(cell), 0) + 1
    dt = dyadic_table(spec)
    assert dt.cells == want and dt.zero_excluded == 0


def test_dyadic_sqrt2_frozen():
    spec = BohrSpec.build(["sqrt:2"], None, 100, ["1"])
    dt = dyadic_table(spec)
    assert dict(sorted(dt.cells.items())) == {
        (1,): 50, (2,): 25, (3,): 13, (4,): 6, (5,): 3, (6,): 1, (7,): 2
    }
    assert dt.zero_excluded == 0
    assert (dt.low_sum(), dt.high_sum()) == (816, 1632)
    t = t_sum(spec).value
    assert dt.low_sum() <= t <= dt.high_sum()


def test_dyadic_sandwich_and_cap_suite():
    spec = BohrSpec.build(["sqrt:2", "sqrt:3"], None, 10**5, ["1", "1"], Q(1, 20))
    mask = support_mask(spec)
    rows = sum_series(spec, [10**4, 10**5])
    for r in rows:
        dt = dyadic_table(spec, mask, r["N"])
        assert dt.low_sum() <= r["T"] <= dt.high_sum()
        assert dt.high_sum() == 4 * dt.low_sum()  # 2^(k-1) with k = 3
        assert dt.zero_excluded == 0
        cap = dt.index_cap
        assert cap == math.floor(math.sqrt(0.05) * math.log2(r["N"]))
        assert all(i <= cap for cell in dt.cells for i in cell)
        assert dt.total == int(mask.flags[: r["N"]].sum())
    dt4 = dyadic_table(spec, mask, 10**4)
    assert (len(dt4.cells), dt4.low_sum(), dt4.high_sum()) == (4, 29940, 119760)
    assert dt4.max_index() == (2, 2)


def test_dyadic_to_dict():
    spec = BohrSpec.build(["rat:1/2"], None, 20, ["1"])
    d = dyadic_table(spec).to_dict()
    assert d["cells"] == {"1": 10}
    assert d["zero_excluded"] == 10 and d["index_cap"] is None


# -- approximating functions ----------------------------------------------------


def test_psi_families_shapes_and_flags():
    log3 = psi_family("log", c=1.0, k=3)
    assert log3.divergent is True
    assert abs(log3(10) - 1 / (10 * math.log(10) ** 3)) < 1e-15
    assert log3(1) == 1 / math.log(2) ** 3  # head pinned to the n=2 logarithm
    assert psi_family("loglog", c=1.0, k=2).divergent is False
    assert psi_family("power", a=1.0).divergent is True
    assert psi_family("power", a=0.5).divergent is True
    assert psi_family("power", a=2.0).divergent is False
    tab = psi_family("table", table=(1.0, 0.5, 0.5, 0.25))
    assert tab.divergent is None and tab(3) == 0.5


def test_psi_partial_sum_pins():
    ns = np.arange(1, 10**6 + 1, dtype=np.int64)
    log3 = math.fsum(psi_family("log", c=1.0, k=3).values(ns).tolist())
    assert abs(log3 - 5.066047639327715) <= 1e-12 * log3
    ll = math.fsum(psi_family("loglog", c=1.0, k=2).values(ns).tolist())
    assert abs(ll - 173.85885125226278) <= 1e-12 * ll


def test_psi_monotone_certificates():
    for f in (psi_family("log", k=2), psi_family("loglog", k=3), psi_family("power", a=1.0)):
        assert f.certify_decreasing()
        vals = f.values(np.arange(3, 5000, dtype=np.int64))
        assert (np.diff(vals) <= 0).all()


def test_psi_guards():
    with pytest.raises(ValidationError):
        psi_family("exp")
    with pytest.raises(ValidationError):
        psi_family("log", c=-1.0)
    with pytest.raises(ValidationError):
        psi_family("power", a=0.0)
    with pytest.raises(ValidationError):
        psi_family("table", table=(0.5, 1.0))  # increasing
    with pytest.raises(ValidationError):
        psi_family("table", table=())
    with pytest.raises(ValidationError):
        psi_family("table", table=(1.0, 0.5)).values(np.array([3]))


# -- the modified function -------------------------------------------------------


def test_modified_psi_identity():
    # on the support, value * dist_product recovers psi
    spec = third_spec(60)
    psi = psi_family("log", c=1.0, k=2)
    mp_ = psi_modified(spec, psi)
    ev = mp_.eval(37)
    assert ev["on_support"] and ev["dist_product"] == 1 / 6
    assert abs(ev["value"] - 6 * psi(37)) <= 1e-14
    assert mp_.eval(2)["value"] == 0.0  # off support
    vals = mp_.values()
    assert vals[0] == 0.0  # n = 1 never on support
    assert int((vals > 0).sum()) == 35


def test_modified_psi_eval_exact_zero_distance():
    # ||3 * 1/3|| = 0 arrives from the scan as about 2^-scale, not as 0.0
    spec = BohrSpec.build(["rat:1/3"], None, 30, ["1"], Q(1, 4))
    psi = psi_family("log", c=1.0, k=2)
    on = psi_modified(spec, psi, trivial_mask(30))
    with pytest.raises(ValidationError, match="exact zero distance at n=3"):
        on.values()
    with pytest.raises(ValidationError, match="exact zero distance at n=3"):
        on.eval(3)
    flags = np.ones(30, dtype=bool)
    flags[2::3] = False  # every multiple of 3 off the support
    off = psi_modified(spec, psi, SupportMask(30, Q(1, 4), flags))
    ev = off.eval(3)
    assert not ev["on_support"] and ev["dist_product"] == 0.0 and ev["value"] == 0.0
    assert off.eval(4)["dist_product"] == 1 / 3 and off.values()[2] == 0.0


def test_modified_psi_suite_pin():
    spec = BohrSpec.build(["sqrt:2", "sqrt:3"], None, 10**4, ["1", "1"], Q(1, 20))
    vals = psi_modified(spec, psi_family("log", c=1.0, k=3)).values()
    s = math.fsum(vals.tolist())
    assert abs(s - 0.03985788341825104) <= 1e-10 * s
    assert int((vals > 0).sum()) == 4603


# -- divergence hypothesis report ------------------------------------------------


def test_ds_check_suite_vectors():
    pins = {
        ("sqrt:2", "sqrt:3"): [
            (10**4, 0.024256235644170013, 0.03985788341825104, 3.0150108804014684),
            (10**5, 0.037525718311628584, 0.06166161359179789, 3.238149437428651),
        ],
        ("sqrt:2", "sqrt:5"): [
            (10**4, 0.0246082329270939, 0.04021003555322011, 3.0150108804014684),
            (10**5, 0.037812174848727, 0.06193500495493247, 3.238149437428651),
        ],
    }
    for texts, rows_want in pins.items():
        spec = BohrSpec.build(list(texts), None, 10**5, ["1", "1"], Q(1, 20))
        rep = ds_hypothesis_check(spec, psi_family("log", c=1.0, k=3), [10**4, 10**5])
        assert rep["all_L_le_U"] and rep["divergent"] is True
        for row, (N, L, U, R) in zip(rep["rows"], rows_want):
            assert row["N"] == N
            assert abs(row["L"] - L) <= 1e-9 * L
            assert abs(row["U"] - U) <= 1e-9 * U
            assert abs(row["R"] - R) <= 1e-9 * R
            assert row["L"] <= row["U"] <= row["R"]
        lr = [r["L_over_R"] for r in rep["rows"]]
        ur = [r["U_over_R"] for r in rep["rows"]]
        assert max(lr) / min(lr) <= 3 and max(ur) / min(ur) <= 3


def test_ds_check_small_oracle():
    # recompute all three sums directly at small N
    spec = third_spec(60)
    psi = psi_family("power", a=1.0)
    rep = ds_hypothesis_check(spec, psi, [60])
    m = support_mask(spec, 60)
    L = U = R = 0.0
    for n in range(1, 61):
        d = 0.5 if n % 3 == 0 else 1 / 6
        if m.contains(n):
            U += psi(n) / d
            L += phi_oracle(n) / n * psi(n) / d
        R += psi(n) * math.log(n) ** (spec.k - 1)
    row = rep["rows"][0]
    assert abs(row["L"] - L) < 1e-12 and abs(row["U"] - U) < 1e-12
    assert abs(row["R"] - R) < 1e-12
    assert row["L_le_U"]


# -- eta splitting ----------------------------------------------------------------


def test_eta_split_exact():
    spec = BohrSpec.build(["sqrt:2"], None, 10**4, ["0.5"], Q(1, 20))
    es = eta_split_check(spec)
    assert es == {
        "eta": "1/16",
        "big_cardinality": 9993,
        "small_cardinality": 625,
        "diff_cardinality": 9368,
        "included": True,
        "sum_big": pytest.approx(6074.726992795321, rel=1e-12),
        "sum_small": pytest.approx(380.3580800147363, rel=1e-12),
        "sum_diff": pytest.approx(5694.368912780586, rel=1e-12),
        "identity_exact": True,
        "half_bound": True,
    }
    with pytest.raises(ValidationError):
        eta_split_check(spec, Q(3, 2))


# -- seeded fibre experiments ------------------------------------------------------


def test_gallagher_deterministic_pins():
    spec = BohrSpec.build(["sqrt:2"], None, 10**5, ["1"], Q(1, 20))
    psi = psi_family("log", c=1.0, k=2)
    res = gallagher_experiment(spec, psi, 20, 10**5, seed=7)
    assert res.checkpoints == (10**4, 10**5)
    assert res.hit_fraction == 1.0
    assert res.median_hits == {10**4: 12.0, 10**5: 12.5}
    r0 = res.rows[0]
    assert r0["alpha_k_bits"] == "6513270e269e0d37f2a74de452e6b438"
    assert r0["hits"] == {10**4: 10, 10**5: 11}
    assert r0["first_witness"] == 2
    assert abs(r0["runmin"][10**5] - 0.023823088085542735) < 1e-15
    assert sum(r["hits"][10**5] for r in res.rows) == 282
    again = gallagher_experiment(spec, psi, 20, 10**5, seed=7)
    assert again.rows == res.rows


def test_gallagher_hits_match_direct_recount():
    # recompute one sample's hit count from the drawn fraction
    import random

    spec = BohrSpec.build(["sqrt:2"], None, 2000, ["1"], Q(1, 20))
    psi = psi_family("log", c=1.0, k=2)
    res = gallagher_experiment(spec, psi, 1, 2000, seed=42)
    bits = int(res.rows[0]["alpha_k_bits"], 16)
    assert bits == random.Random(42).getrandbits(128)
    a2 = mpmath.sqrt(2)
    ak = mpmath.mpf(bits) / mpmath.mpf(2) ** 128
    count = 0
    first = None
    for n in range(2, 2001):
        if mp_dist(n * a2) * mp_dist(n * ak) < psi(n):
            count += 1
            first = n if first is None else first
    assert res.rows[0]["hits"][2000] == count
    assert res.rows[0]["first_witness"] == first


def test_gallagher_guards_and_csv(tmp_path):
    spec = BohrSpec.build(["sqrt:2"], None, 1000, ["1"], Q(1, 20))
    psi = psi_family("log", c=1.0, k=2)
    with pytest.raises(ValidationError):
        gallagher_experiment(spec, psi, 0, 1000, seed=1)
    res = gallagher_experiment(spec, psi, 3, 1000, seed=1)
    argv = "experiment gallagher --alpha sqrt:2 --N 1000 --delta 1 --samples 3 --seed 1"
    assert main([*argv.split(), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert lines[0] == "sample_id,alpha_k,hits,first_witness,runmin"
    assert len(lines) == 4 and lines[1].startswith("0,")
    d = res.to_dict()
    assert d["params"]["generator"] == "random.Random(seed).getrandbits(128), sequential"
    assert d["params"]["seed"] == 1


def test_checkpoint_guards():
    spec = BohrSpec.build(["sqrt:2"], None, 1000, ["1"], Q(1, 20))
    psi = psi_family("log", c=1.0, k=2)
    with pytest.raises(ValidationError, match="positive"):
        sum_series(spec, [0, 100])
    with pytest.raises(ValidationError, match="positive"):
        ds_hypothesis_check(spec, psi, [-5, 100])
    with pytest.raises(ValidationError, match="above N=1000"):
        gallagher_experiment(spec, psi, 1, 1000, seed=1, checkpoints=[2000])
    res = gallagher_experiment(spec, psi, 2, 1000, seed=1, checkpoints=[1, 2])
    assert all(r["hits"][1] == 0 and r["runmin"][1] == math.inf for r in res.rows)


# -- exact sums rounded once --------------------------------------------------


def summed_in_pieces(x, edges):
    acc = ExactSum()
    cuts = [0, *sorted(edges), len(x)]
    for a, b in zip(cuts, cuts[1:]):
        acc.add(x[a:b])
    return acc.value()


# zeros of both signs, subnormals and normals up to 2^1000, either sign
FINITE = st.one_of(
    st.floats(-(2.0**1000), 2.0**1000),
    st.builds(math.ldexp, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-1074, 947)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(FINITE, max_size=60), st.data())
def test_exact_sum_matches_fsum_on_short_arrays(xs, data):
    edges = data.draw(st.lists(st.integers(0, len(xs)), max_size=4))
    assert summed_in_pieces(np.array(xs, dtype=np.float64), edges) == math.fsum(xs)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(0, 2 * BLOCK),
    low=st.integers(-1074, 947),
    spread=st.integers(0, 2021),
    data=st.data(),
)
def test_exact_sum_matches_fsum_across_block_edges(seed, length, low, spread, data):
    # exponents drawn from [low, low + spread] (narrow spreads stress carries
    # and ties), a share of zeros, and negated copies that cancel the top
    rng = np.random.default_rng(seed)
    man = rng.integers(-(2**53) + 1, 2**53, size=length).astype(np.float64)
    exp = rng.integers(low, min(low + spread, 947) + 1, size=length)
    x = np.ldexp(man, exp)
    x[rng.random(length) < 0.05] = 0.0
    x[: length // 8] = -x[length - length // 8 :]
    edges = data.draw(st.lists(st.integers(0, length), max_size=6))
    assert summed_in_pieces(x, edges) == math.fsum(x.tolist())


def test_exact_sum_non_finite_entries_give_fsums_result():
    for vals in ([1.0, math.inf], [-math.inf, 2.0**1000, -math.inf], [3.0, math.inf, 5e-324]):
        assert summed_in_pieces(np.array(vals), [1]) == math.fsum(vals)
    assert math.isnan(summed_in_pieces(np.array([1.0, math.nan, math.inf]), [1]))
    assert math.isnan(math.fsum([1.0, math.nan, math.inf]))
    with pytest.raises(ValueError):
        math.fsum([math.inf, 1.0, -math.inf])
    with pytest.raises(ValueError):
        summed_in_pieces(np.array([math.inf, 1.0, -math.inf]), [1])


# -- the N-length bodies the block pass replaced, kept as references ------------


def ref_phi_ratio(N):
    return totient_sieve(N).block(1, N + 1).astype(np.float64) / np.arange(1, N + 1, dtype=np.float64)


def ref_support_mask(spec, N):
    eps = spec.epsilon
    tau = math.sqrt(eps.numerator / eps.denominator)
    coords = _coord_scans(spec)
    flags = np.ones(N, dtype=bool)
    flags[0] = False
    borderline = 0
    for ns in blocks(2, N):
        thr = np.power(ns.astype(np.float64), -tau)
        band = _REL_BAND * thr
        ok = np.ones(len(ns), dtype=bool)
        for coord in coords:
            d = coord.dist_floats(ns)
            below = d < thr - band
            ok &= ~below
            pending = ~below & (d < thr + band) & ok
            for idx in np.nonzero(pending)[0]:
                borderline += 1
                if not _on_support_exact(coord, int(ns[idx]), eps):
                    ok[idx] = False
        start = int(ns[0])
        flags[start - 1 : start - 1 + len(ns)] = ok
    return SupportMask(N, eps, flags, borderline)


def ref_term_array(spec, mask, N):
    coords = _coord_scans(spec)
    terms = np.zeros(N, dtype=np.float64)
    min_dist = math.inf
    count = 0
    for ns in blocks(1, N):
        start = int(ns[0])
        sel = mask.flags[start - 1 : start - 1 + len(ns)]
        if not sel.any():
            continue
        prod = np.ones(len(ns), dtype=np.float64)
        for coord in coords:
            d = coord.dist_floats(ns)
            for idx in np.nonzero((d <= coord.zero_band(N)) & sel)[0]:
                d[idx] = _nonzero_dist(coord, int(ns[idx]))
            dm = d[sel].min() if sel.any() else math.inf
            if dm < min_dist:
                min_dist = float(dm)
            prod *= d
        with np.errstate(divide="ignore"):
            vals = np.where(sel, 1.0 / prod, 0.0)
        terms[start - 1 : start - 1 + len(ns)] = vals
        count += int(sel.sum())
    return terms, min_dist, count


def ref_sum_series(spec, checkpoints, restrict=True):
    cps = sorted(set(int(c) for c in checkpoints))
    N = cps[-1]
    mask = ref_support_mask(spec, N) if restrict else trivial_mask(N)
    ratio = ref_phi_ratio(N)
    terms, min_dist, _ = ref_term_array(spec, mask, N)
    star = terms * ratio
    k = spec.k
    rows = []
    for cp in cps:
        t = math.fsum(terms[:cp].tolist())
        ts = math.fsum(star[:cp].tolist())
        norm = cp * math.log(cp) ** (k - 1) if cp > 1 else 1.0
        rows.append(
            {
                "N": cp,
                "T": t,
                "T_star": ts,
                "ratio_T": t / norm,
                "ratio_star": ts / t if t else 0.0,
                "terms": int(mask.flags[:cp].sum()),
                "err_bound": _err_bound(spec, t, min_dist, cp),
                "eps": float(spec.epsilon) if not mask.trivial else None,
                "k": k,
            }
        )
    return rows


def ref_ds_hypothesis_check(spec, psi, checkpoints):
    cps = sorted(set(int(c) for c in checkpoints))
    N = cps[-1]
    mask = ref_support_mask(spec, N)
    ratio = ref_phi_ratio(N)
    terms, _, _ = ref_term_array(spec, mask, N)
    psi_n = psi.values(np.arange(1, N + 1, dtype=np.int64))
    psi_vals = psi_n * terms
    ns = np.arange(1, N + 1, dtype=np.float64)
    lead = psi_n * np.log(np.maximum(ns, 1.0)) ** (spec.k - 1)
    rows = []
    for cp in cps:
        L = math.fsum((psi_vals[:cp] * ratio[:cp]).tolist())
        U = math.fsum(psi_vals[:cp].tolist())
        R = math.fsum(lead[:cp].tolist())
        rows.append(
            {
                "N": cp,
                "L": L,
                "U": U,
                "R": R,
                "L_over_R": L / R if R else math.inf,
                "U_over_R": U / R if R else math.inf,
                "L_le_U": L <= U,
            }
        )
    return {
        "psi": psi.tag,
        "divergent": psi.divergent,
        "eps": str(spec.epsilon),
        "k": spec.k,
        "kept": mask.kept,
        "rows": rows,
        "all_L_le_U": all(r["L_le_U"] for r in rows),
    }


def ref_gallagher_experiment(spec, psi, samples, N, seed, checkpoints):
    cps = tuple(sorted(set([int(c) for c in checkpoints] + [N])))
    k = spec.k
    ns = np.arange(2, N + 1, dtype=np.uint64)
    fixed = np.ones(len(ns), dtype=np.float64)
    for coord in _coord_scans(spec):
        fixed *= coord.dist_floats(ns)
    psi_vals = psi.values(ns.astype(np.int64))
    lnk = ns.astype(np.float64) * np.log(ns.astype(np.float64)) ** k
    rng = random.Random(seed)
    rows = []
    counts_at = {cp: [] for cp in cps}
    hits_any = 0
    for sid in range(samples):
        bits = rng.getrandbits(128)
        alpha_k = RealSpec("rat", Q(bits, 1 << 128)).realize(spec.scale)
        dk = CoordScan(alpha_k).dist_floats(ns)
        prod = fixed * dk
        hit = prod < psi_vals
        q = lnk * prod
        runmin = np.minimum.accumulate(q)
        row = {
            "sample_id": sid,
            "alpha_k_bits": f"{bits:032x}",
            "alpha_k": bits / 2.0**128,
            "hits": {},
            "first_witness": None,
            "runmin": {},
        }
        nz = np.nonzero(hit)[0]
        if len(nz):
            row["first_witness"] = int(ns[nz[0]])
            hits_any += 1
        for cp in cps:
            c = int(np.count_nonzero(hit[: cp - 1]))
            row["hits"][cp] = c
            row["runmin"][cp] = float(runmin[cp - 2]) if cp >= 2 else math.inf
            counts_at[cp].append(c)
        rows.append(row)
    return cps, rows, hits_any / samples, {cp: statistics.median(counts_at[cp]) for cp in cps}


EDGES = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 2]
EDGE_N = EDGES[-1]
EDGE_SPECS = {
    # exact rational coordinate: the residue paths of the scan
    "rational": (["rat:1/3"], ["rat:1/2"], ["1"], Q(1, 4)),
    # ||36/3 - 1/6|| = 1/6 = 36^(-1/2): one borderline n, decided exactly
    "borderline": (["rat:1/3"], ["rat:1/6"], ["1"], Q(1, 4)),
    "k3": (["sqrt:2", "sqrt:3"], None, ["1", "1"], Q(1, 20)),
}


@pytest.fixture(scope="module", params=list(EDGE_SPECS))
def edge_case(request):
    alphas, gammas, deltas, eps = EDGE_SPECS[request.param]
    spec = BohrSpec.build(alphas, gammas, EDGE_N, deltas, eps)
    return request.param, spec, ref_support_mask(spec, EDGE_N)


def test_support_mask_matches_the_reference(edge_case):
    name, spec, ref = edge_case
    got = support_mask(spec, EDGE_N)
    assert np.array_equal(got.flags, ref.flags)
    assert got.borderline == ref.borderline == (1 if name == "borderline" else 0)


def test_sum_series_matches_the_reference_at_block_edges(edge_case):
    _, spec, _ = edge_case
    for restrict in (True, False):
        assert sum_series(spec, EDGES, restrict) == ref_sum_series(spec, EDGES, restrict)


def test_t_sums_and_modified_psi_match_the_reference(edge_case):
    _, spec, mask = edge_case
    terms, min_dist, count = ref_term_array(spec, mask, EDGE_N)
    star = terms * ref_phi_ratio(EDGE_N)
    for cp in EDGES:
        t, ts = t_sum(spec, mask, cp), t_star_sum(spec, mask, cp)
        assert t.value == math.fsum(terms[:cp].tolist())
        assert ts.value == math.fsum(star[:cp].tolist())
        assert t.terms == ts.terms == int(mask.flags[:cp].sum())
    assert t.err_bound == _err_bound(spec, t.value, min_dist, EDGE_N) and count == t.terms
    psi = psi_family("log", c=1.0, k=spec.k)
    vals = psi_modified(spec, psi, mask).values()
    assert np.array_equal(vals, psi.values(np.arange(1, EDGE_N + 1, dtype=np.int64)) * terms)


def test_ds_check_matches_the_reference_at_block_edges(edge_case):
    _, spec, _ = edge_case
    psi = psi_family("log", c=1.0, k=spec.k)
    assert ds_hypothesis_check(spec, psi, EDGES) == ref_ds_hypothesis_check(spec, psi, EDGES)


def test_gallagher_matches_the_reference_at_block_edges(edge_case):
    _, spec, _ = edge_case
    psi = psi_family("log", c=1.0, k=spec.k)
    res = gallagher_experiment(spec, psi, 3, EDGE_N, seed=5, checkpoints=EDGES[:-1])
    want = ref_gallagher_experiment(spec, psi, 3, EDGE_N, 5, EDGES[:-1])
    assert (res.checkpoints, res.rows, res.hit_fraction, res.median_hits) == want


def test_zero_band_terms_match_the_reference_at_block_edges():
    # alpha = 2^-16 + 10^-31: n = BLOCK and 2*BLOCK sit in the zero band, and
    # their terms come from the certified distances on the trivial mask,
    # which differ from the block's floats in the ninth digit
    spec = BohrSpec.build(["dec:0.0000152587890625000000000000001"], None, EDGE_N, ["1"])
    coord = _coord_scans(spec)[0]
    floats = coord.dist_floats(np.array([BLOCK - 1, BLOCK, 2 * BLOCK], dtype=np.uint64))
    assert (floats <= coord.zero_band(EDGE_N)).tolist() == [False, True, True]
    assert coord.dist_float(BLOCK) == 6.5536e-27 != floats[1]
    assert sum_series(spec, EDGES, restrict=False) == ref_sum_series(spec, EDGES, restrict=False)
    terms, _, _ = ref_term_array(spec, trivial_mask(EDGE_N), EDGE_N)
    assert t_sum(spec, N=EDGE_N).value == math.fsum(terms.tolist())
