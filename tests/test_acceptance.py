"""Acceptance gate: ten end-to-end criteria, one verdict line each.

Every test prints a single `criterion N (<name>): PASS|FAIL -- detail` line
directly to the terminal (bypassing capture, so it shows under plain
`pytest -v`) and then asserts. Frozen constants are first-run values of this
library at scale 128: exact for integer counts, 1e-9 relative for floating
sums. The construction suite (5 alpha-vectors x 2 targets x 3 horizons x
2 radii = 60 specs) is built once in a module fixture and shared.
"""

import itertools
import math
import random
import time
from fractions import Fraction as Q

import mpmath
import numpy as np
import pytest

from bohrgap.bohr import BohrSpec, enumerate_bohr
from bohrgap.cli import main as cli_main
from bohrgap.counting import alpha_p_table, congruence_lattice, davenport_count
from bohrgap.errors import ConstructionError
from bohrgap.exponents import (
    TargetVector,
    dual_exponent_est,
    exponent_report,
    mult_exponent_est,
    simult_exponent_est,
)
from bohrgap.gap import cardinality_ratio, gap_elements, inner_gap, is_proper, outer_gap
from bohrgap.minima import build_body, gauge_interval, successive_minima
from bohrgap.realfield import cmp_pow
from bohrgap.sums import (
    ds_hypothesis_check,
    dyadic_table,
    gallagher_experiment,
    psi_family,
    sum_series,
    support_mask,
    t_sum,
)

from test_minima import brute_oracle, greedy_minima_oracle

EPS = Q(1, 20)
ALPHA_VECTORS = (
    ("sqrt:2",),
    ("sqrt:3",),
    ("sqrt:5",),
    ("sqrt:2", "sqrt:3"),
    ("sqrt:2", "sqrt:5"),
)
GAMMA_CHOICES = (None, "dec:0.3")  # homogeneous and a shifted target per coordinate
N_GRID = (10**4, 10**5, 10**6)
INNER_DELTAS = ("0.7", "1")  # the inner window requires delta_i >= N^(-eps) ~ 0.63
OUTER_DELTAS = ("0.45", "0.7")  # the outer window allows delta_i >= N^(-sqrt(eps))


def _verdict(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}"
    with capsys.disabled():
        print(f"\n{line}", flush=True)
    assert ok, line


def _suite_specs():
    for texts in ALPHA_VECTORS:
        for g in GAMMA_CHOICES:
            for N in N_GRID:
                for dtx in INNER_DELTAS:
                    gamma = [g] * len(texts) if g else None
                    yield texts, g, N, dtx, BohrSpec.build(
                        list(texts), gamma, N, [dtx] * len(texts), EPS
                    )


@pytest.fixture(scope="module")
def inner_suite():
    t0 = time.time()
    records = []
    for texts, g, N, dtx, spec in _suite_specs():
        rec = {"texts": texts, "gamma": g, "N": N, "delta": dtx, "spec": spec,
               "gap": None, "error": None}
        try:
            rec["gap"] = inner_gap(spec)
        except ConstructionError as exc:
            rec["error"] = type(exc).__name__
        records.append(rec)
    return {"records": records, "wall": time.time() - t0}


# -- criterion 1: inner structure over the full suite -----------------------------


def test_criterion_01_inner_structure(inner_suite, capsys):
    t0 = time.time()
    records = inner_suite["records"]
    problems = []
    if len(records) < 50:
        problems.append(f"suite has only {len(records)} specs")
    successes = [r for r in records if r["gap"] is not None]
    fail_kinds = sorted({r["error"] for r in records if r["error"]})
    for r in successes:
        spec, gp, N = r["spec"], r["gap"], r["N"]
        tag = f"{r['texts']}/{r['gamma']}/N={N}/d={r['delta']}"
        # containment re-derived from scratch, not read off the certificate
        els = gap_elements(gp)
        inside = np.isin(els, enumerate_bohr(spec, "positive").members)
        if not inside.all():
            problems.append(f"{tag}: {int((~inside).sum())} elements escape")
        if not (gp.checks["containment"] and gp.checks["containment_failures"] == 0):
            problems.append(f"{tag}: certificate disagrees on containment")
        if not is_proper(gp).proper:
            problems.append(f"{tag}: representations collide")
        if math.gcd(*gp.moduli) != 1:
            problems.append(f"{tag}: gcd(moduli) = {math.gcd(*gp.moduli)}")
        if any(a < 1 for a in gp.moduli):
            problems.append(f"{tag}: modulus below 1")
        if any(L**20 < N for L in gp.lengths):  # L >= N^eps, eps = 1/20, exact
            problems.append(f"{tag}: side length below N^eps")
        if not (cmp_pow(gp.b, gp.b, N, EPS) >= 0 and 10 * gp.b <= N):
            problems.append(f"{tag}: base point b={gp.b} outside [N^sqrt(eps), N/10]")
    wall = inner_suite["wall"] + time.time() - t0
    if wall > 600:
        problems.append(f"runtime {wall:.0f}s exceeds 600s")
    detail = (
        f"{len(records)} specs, {len(successes)} built, "
        f"{len(records) - len(successes)} documented failures {fail_kinds}, "
        f"{wall:.1f}s" + (f"; {'; '.join(problems[:4])}" if problems else "")
    )
    _verdict(capsys, 1, "inner structure", not problems, detail)


# -- criterion 2: outer covering over the homogeneous suite -----------------------


def test_criterion_02_outer_structure(capsys):
    t0 = time.time()
    problems = []
    realized = []
    built = 0
    for texts in ALPHA_VECTORS:
        for N in N_GRID:
            for dtx in OUTER_DELTAS:
                spec = BohrSpec.build(list(texts), None, N, [dtx] * len(texts), EPS)
                tag = f"{texts}/N={N}/d={dtx}"
                try:
                    gp = outer_gap(spec)
                except ConstructionError as exc:
                    problems.append(f"{tag}: {type(exc).__name__}")
                    continue
                built += 1
                ck = gp.checks
                if not ck["hypothesis_delta_lower"]:
                    problems.append(f"{tag}: delta below the outer window")
                if not (ck["containment"] and not ck["containment_failures"]):
                    problems.append(f"{tag}: a member fails to decompose inside the box")
                if ck["checked_lifts"] < ck["bohr_cardinality"]:  # every lift of every member
                    problems.append(f"{tag}: fewer lifts checked than members")
                realized.append(ck["realized_constant"])
    spread = max(realized) / min(realized) if realized else float("inf")
    if spread > 100:
        problems.append(f"realized-constant spread {spread:.1f} > 100")
    detail = (
        f"{built}/30 built, realized constant in [{min(realized):.3g}, {max(realized):.3g}], "
        f"spread {spread:.1f}, {time.time()-t0:.1f}s"
        + (f"; {'; '.join(problems[:4])}" if problems else "")
    )
    _verdict(capsys, 2, "outer covering", not problems, detail)


# -- criterion 3: volumes, Minkowski band, exhaustive minima oracle ---------------


def _oracle_window(body, bound: float):
    """Enumeration parameters guaranteed to contain every v with gauge <= bound."""
    v0_max = int(math.ceil(float(body.c[0]) * bound)) + 1
    tail = max(float(ci) for ci in body.c[1:])
    window = Q(int(math.ceil(bound * tail)) + 1)
    return v0_max, window


def test_criterion_03_geometry(inner_suite, capsys):
    t0 = time.time()
    problems = []
    for r in inner_suite["records"]:
        spec = r["spec"]
        tag = f"{r['texts']}/N={r['N']}/d={r['delta']}"
        body = build_body(spec)
        k = body.k
        if body.vol_s() != Q(1, 5**k):
            problems.append(f"{tag}: vol(S) != 5^-{k}")
        res = successive_minima(body)
        vol = body.vol_s() * body.lam_pow_k  # lambda^k * vol(S), exact rational
        plo, phi = Q(1), Q(1)
        for gv in (gauge_interval(body, g.vec, 192) for g in res.minima_m):
            plo *= gv.lo
            phi *= gv.hi
        if not (plo * vol >= Q(2**k, math.factorial(k)) and phi * vol <= Q(2**k)):
            problems.append(f"{tag}: Minkowski band violated")
    n_band = len(inner_suite["records"])

    # 20 random small bodies against the exhaustive mpmath oracle
    rng = random.Random(90817)
    mismatches = 0
    for i in range(20):
        d = rng.choice([1, 2])
        texts = list(rng.choice([v for v in ALPHA_VECTORS if len(v) == d]))
        N = rng.randrange(20, 1001)
        deltas = [str(Q(rng.randrange(2, 10), 10)) for _ in range(d)]
        spec = BohrSpec.build(texts, None, N, deltas, EPS)
        body = build_body(spec)
        res = successive_minima(body)
        bound = float(res.minima_m[-1].hi) * 1.2
        v0_max, window = _oracle_window(body, bound)
        found = brute_oracle(texts, list(body.c), v0_max, window)
        want = greedy_minima_oracle(found, body.k)
        if len(want) < body.k or float(want[-1][0]) > bound / 1.1:
            problems.append(f"random body {i}: oracle radius too small")
            continue
        with mpmath.workdps(60):
            for j, gv in enumerate(res.minima_m):
                lo = mpmath.mpf(gv.lo.numerator) / gv.lo.denominator
                hi = mpmath.mpf(gv.hi.numerator) / gv.hi.denominator
                if not (lo - mpmath.mpf("1e-15") <= want[j][0] <= hi + mpmath.mpf("1e-15")):
                    mismatches += 1
                    problems.append(
                        f"random body {i} (alpha={texts}, N={N}, delta={deltas}): "
                        f"lambda_{j+1} disagrees with the oracle"
                    )
    detail = (
        f"vol(S)=5^-k and Minkowski band on {n_band}/{n_band} instances, "
        f"oracle mismatches 0/20, {time.time()-t0:.1f}s"
        if not problems
        else f"{'; '.join(problems[:4])}"
    )
    _verdict(capsys, 3, "geometry", not problems, detail)


# -- criterion 4: cardinality density and shift injection -------------------------


def test_criterion_04_cardinality(inner_suite, capsys):
    t0 = time.time()
    problems = []
    ratios = []
    nonempty = 0
    for r in inner_suite["records"]:
        c = cardinality_ratio(r["spec"])
        tag = f"{r['texts']}/{r['gamma']}/N={r['N']}/d={r['delta']}"
        if c["cardinality"] == 0:
            continue
        nonempty += 1
        ratios.append(c["ratio"])
        if not c["shift_injection"]:
            problems.append(f"{tag}: shift injection into the doubled window fails")
    spread = max(ratios) / min(ratios) if ratios else float("inf")
    if spread > 100:
        problems.append(f"density spread {spread:.1f} > 100")
    detail = (
        f"{nonempty}/60 nonempty, #B/(delta-product*N) in "
        f"[{min(ratios):.3g}, {max(ratios):.3g}], spread {spread:.2f}, "
        f"shift injection exact everywhere, {time.time()-t0:.1f}s"
        + (f"; {'; '.join(problems[:4])}" if problems else "")
    )
    _verdict(capsys, 4, "cardinality", not problems, detail)


# -- criterion 5: lattice counting and divisibility densities ---------------------


def _brute_congruence_count(box, moduli, p):
    """Nested loop over the full box, counting the congruence directly."""
    total = 0
    for x in itertools.product(*[range(-n, n + 1) for n in box]):
        if sum(a * c for a, c in zip(moduli, x)) % p == 0:
            total += 1
    return total


def test_criterion_05_counting(inner_suite, capsys):
    t0 = time.time()
    problems = []
    rng = random.Random(51121)
    for i in range(100):
        d = rng.randrange(1, 4)
        while True:
            box = tuple(rng.randrange(1, 51) for _ in range(d))
            if math.prod(2 * n + 1 for n in box) <= 3 * 10**5:
                break
        p = rng.choice([2, 3, 5, 7, 11, 13])
        while True:
            # every modulus coprime to p so the lattice spans the full box
            moduli = tuple(rng.randrange(1, 4 * p) for _ in range(d))
            if all(a % p for a in moduli):
                break
        lat = congruence_lattice(moduli, p)
        if lat.det != p:
            problems.append(f"instance {i}: det {lat.det} != {p}")
        cert = davenport_count(box, lat)
        brute = _brute_congruence_count(box, moduli, p)
        if cert.count != brute:
            problems.append(
                f"instance {i} (box={box}, moduli={moduli}, p={p}): "
                f"{cert.count} != brute {brute}"
            )
    gaps = [r for r in inner_suite["records"] if r["gap"] is not None]
    excesses = [
        row["excess"] for r in gaps for row in alpha_p_table(r["gap"], 100, EPS)
    ]
    fitted_c = max(0.0, max(excesses))
    if fitted_c != 0.0:
        problems.append(f"fitted C = {fitted_c!r} (alpha_p exceeds 1/p + 1/min N_i)")
    rep = next(
        r["gap"]
        for r in gaps
        if r["texts"] == ("sqrt:2",) and r["gamma"] is None
        and r["N"] == 10**5 and r["delta"] == "0.7"
    )
    weighted = max(row["p_eps_weighted"] for row in alpha_p_table(rep, 10**4, EPS))
    if not weighted <= 1.0:
        problems.append(f"alpha_p * p^eps reaches {weighted}")
    if abs(weighted - 0.5176324619206888) > 1e-9 * 0.5176324619206888:
        problems.append(f"frozen weighted maximum drifted: {weighted!r}")
    detail = (
        f"100/100 random lattice boxes match brute force, det=p exact, "
        f"fitted C = {fitted_c}, max alpha_p*p^eps = {weighted:.6f} (p <= 10^4), "
        f"{time.time()-t0:.1f}s" + (f"; {'; '.join(problems[:4])}" if problems else "")
    )
    _verdict(capsys, 5, "counting", not problems, detail)


# -- criterion 6: restricted reciprocal sums with frozen first-run values ---------


SERIES_PINS = {
    # N: (T, T_star, terms)
    10**4: (54279.79964637615, 32968.00478306616, 4603),
    10**5: (1119276.0763963643, 680884.1529021278, 64943),
    10**6: (19079169.693002116, 11599082.538118385, 780403),
}
DYADIC_PINS = {
    # N: (cells, low_sum, high_sum, max_index, index_cap)
    10**4: (4, 29940, 119760, (2, 2), 2),
    10**5: (9, 617592, 2470368, (3, 3), 3),
    10**6: (16, 10327120, 41308480, (4, 4), 4),
}


def test_criterion_06_sums(capsys):
    t0 = time.time()
    problems = []
    spec = BohrSpec.build(["sqrt:2", "sqrt:3"], None, 10**6, ["1", "1"], EPS)
    rows = sum_series(spec, list(N_GRID))
    for row in rows:
        t_pin, star_pin, terms_pin = SERIES_PINS[row["N"]]
        if row["terms"] != terms_pin:
            problems.append(f"N={row['N']}: {row['terms']} terms != {terms_pin}")
        if abs(row["T"] - t_pin) > 1e-9 * t_pin:
            problems.append(f"N={row['N']}: T drifted to {row['T']!r}")
        if abs(row["T_star"] - star_pin) > 1e-9 * star_pin:
            problems.append(f"N={row['N']}: T* drifted to {row['T_star']!r}")
        if not 0.1 <= row["ratio_star"] <= 1.0:
            problems.append(f"N={row['N']}: T*/T = {row['ratio_star']:.3f}")
    rats = [row["ratio_T"] for row in rows]
    spread = max(rats) / min(rats)
    if spread > 3:
        problems.append(f"T/(N log^2 N) spread {spread:.2f} > 3")
    for N in N_GRID:
        sN = BohrSpec.build(["sqrt:2", "sqrt:3"], None, N, ["1", "1"], EPS)
        mask = support_mask(sN)
        dt = dyadic_table(sN, mask)
        tt = t_sum(sN, mask)
        pins = DYADIC_PINS[N]
        got = (len(dt.cells), dt.low_sum(), dt.high_sum(), dt.max_index(), dt.index_cap)
        if got != pins:
            problems.append(f"N={N}: dyadic table drifted to {got}")
        if not dt.low_sum() <= tt.value <= dt.high_sum():
            problems.append(f"N={N}: sandwich {dt.low_sum()} <= {tt.value} <= {dt.high_sum()} fails")
        if dt.total != mask.kept:
            problems.append(f"N={N}: dyadic total {dt.total} != mask {mask.kept}")
    wall = time.time() - t0
    if wall > 900:
        problems.append(f"runtime {wall:.0f}s exceeds 900s")
    detail = (
        f"T/(N log^2 N) spread {spread:.3f}, T*/T ~ {rows[-1]['ratio_star']:.3f}, "
        f"sandwich exact at {len(N_GRID)} checkpoints, frozen values hold, {wall:.1f}s"
        + (f"; {'; '.join(problems[:4])}" if problems else "")
    )
    _verdict(capsys, 6, "reciprocal sums", not problems, detail)


# -- criterion 7: totient-ratio hypotheses for the tamed approximation function ---


def test_criterion_07_ds_hypotheses(capsys):
    t0 = time.time()
    problems = []
    spreads = []
    psi = psi_family("log", c=1.0, k=3)
    for texts in (["sqrt:2", "sqrt:3"], ["sqrt:2", "sqrt:5"]):
        spec = BohrSpec.build(texts, None, 10**6, ["1", "1"], EPS)
        rep = ds_hypothesis_check(spec, psi, list(N_GRID))
        if not rep["all_L_le_U"]:
            problems.append(f"{texts}: L > U somewhere")
        lr = [row["L_over_R"] for row in rep["rows"]]
        ur = [row["U_over_R"] for row in rep["rows"]]
        for nm, seq in (("L/R", lr), ("U/R", ur)):
            s = max(seq) / min(seq)
            spreads.append(s)
            if s > 3:
                problems.append(f"{texts}: {nm} varies by {s:.2f} > 3")
    detail = (
        f"both vectors: L <= U exact, L/R and U/R spreads "
        f"{', '.join(f'{s:.3f}' for s in spreads)} (all <= 3), {time.time()-t0:.1f}s"
        + (f"; {'; '.join(problems[:4])}" if problems else "")
    )
    _verdict(capsys, 7, "divergence hypotheses", not problems, detail)


# -- criterion 8: approximation exponents at horizon 10^6 -------------------------


def test_criterion_08_exponents(capsys):
    t0 = time.time()
    problems = []
    alpha = TargetVector.parse(["sqrt:2"])
    rep = exponent_report(alpha, None, n_max=10**6, h_max=2000)
    vals = {
        "omega": rep.omega_lower.value,
        "omega_times": rep.omega_times_lower.value,
        "omega_star": rep.omega_star_lower.value,
        "omega_hat": rep.omega_hat_lower.value,
    }
    for name, v in vals.items():
        if v is None or not 0.9 <= v <= 1.1:
            problems.append(f"{name} = {v!r} outside [0.9, 1.1]")
    m = mult_exponent_est(alpha, None, 10**4)
    s = simult_exponent_est(alpha, None, 10**4)
    du = dual_exponent_est(alpha, 10**4)
    if not (m.value == s.value and m.argmax == s.argmax and du.value == m.value):
        problems.append("d=1 collapse identities broken")
    rat = exponent_report(TargetVector.parse(["rat:2/3"]), None, n_max=10**3, h_max=50,
                          x_list=(10**2, 10**3))
    for name, est in (
        ("omega", rat.omega_lower),
        ("omega_times", rat.omega_times_lower),
        ("omega_star", rat.omega_star_lower),
        ("omega_hat", rat.omega_hat_lower),
    ):
        if est.value is not None or est.infinite_witness is None:
            problems.append(f"rational input: {name} returned a number, not a witness")
    detail = (
        f"estimators {', '.join(f'{k}={v:.4f}' for k, v in vals.items())} "
        f"all in [0.9, 1.1]; collapse identities exact; rational inputs witness, "
        f"{time.time()-t0:.1f}s" + (f"; {'; '.join(problems[:4])}" if problems else "")
    )
    _verdict(capsys, 8, "exponents", not problems, detail)


# -- criterion 9: seeded fibre experiment with frozen statistics ------------------


GALLAGHER_PINS = {
    "hit_fraction": 1.0,
    "medians": {10**4: 12.0, 10**5: 13.0, 10**6: 14.0},
    "hit_sums": {10**4: 2513, 10**5: 2733, 10**6: 2993},
    "row0_bits": "6513270e269e0d37f2a74de452e6b438",
    "row0_hits": {10**4: 10, 10**5: 11, 10**6: 11},
}


def test_criterion_09_gallagher(capsys):
    t0 = time.time()
    problems = []
    spec = BohrSpec.build(["sqrt:2"], None, 10**6, ["1"], EPS)
    res = gallagher_experiment(spec, psi_family("log", c=1.0, k=2), 200, 10**6, seed=7)
    if res.hit_fraction < 0.9:
        problems.append(f"hit fraction {res.hit_fraction} < 0.9")
    if not res.median_hits[10**6] > res.median_hits[10**4]:
        problems.append("median hits did not grow with the horizon")
    if res.hit_fraction != GALLAGHER_PINS["hit_fraction"]:
        problems.append(f"hit fraction drifted to {res.hit_fraction!r}")
    if res.median_hits != GALLAGHER_PINS["medians"]:
        problems.append(f"medians drifted to {res.median_hits!r}")
    sums = {cp: sum(r["hits"][cp] for r in res.rows) for cp in res.checkpoints}
    if sums != GALLAGHER_PINS["hit_sums"]:
        problems.append(f"hit sums drifted to {sums!r}")
    r0 = res.rows[0]
    if r0["alpha_k_bits"] != GALLAGHER_PINS["row0_bits"] or r0["hits"] != GALLAGHER_PINS["row0_hits"]:
        problems.append("first sample drifted")
    wall = time.time() - t0
    if wall > 600:
        problems.append(f"runtime {wall:.0f}s exceeds 600s")
    detail = (
        f"200 samples at N=10^6 seed 7: hit fraction {res.hit_fraction}, medians "
        f"{res.median_hits[10**4]:.0f}/{res.median_hits[10**5]:.0f}/{res.median_hits[10**6]:.0f} "
        f"strictly increasing, frozen statistics hold, {wall:.1f}s"
        + (f"; {'; '.join(problems[:4])}" if problems else "")
    )
    _verdict(capsys, 9, "seeded fibre experiment", not problems, detail)


# -- criterion 10: byte-identical manifest replay ----------------------------------


def test_criterion_10_reproducibility(tmp_path, capsys):
    t0 = time.time()
    problems = []
    commands = [
        ["gap", "inner", "--k", "2", "--alpha", "sqrt:2", "--N", "100000",
         "--delta", "0.7", "--eps", "1/20"],
        ["sums", "t", "--k", "3", "--alpha", "sqrt:2", "--alpha", "sqrt:3",
         "--N", "10000", "--delta", "1", "--delta", "1", "--eps", "1/20"],
    ]
    for i, argv in enumerate(commands):
        first = tmp_path / f"run{i}"
        replay = tmp_path / f"replay{i}"
        if cli_main(argv + ["--out", str(first)]) != 0:
            problems.append(f"command {i} failed")
            continue
        if cli_main(["rerun", str(first / "manifest.json"), "--out", str(replay)]) != 0:
            problems.append(f"replay {i} failed")
            continue
        for name in ("payload.json", "table.csv"):
            a, b = first / name, replay / name
            if a.exists() != b.exists():
                problems.append(f"command {i}: {name} present in only one run")
            elif a.exists() and a.read_bytes() != b.read_bytes():
                problems.append(f"command {i}: {name} differs between runs")
    detail = (
        f"{len(commands)} manifests replayed byte-identically, {time.time()-t0:.1f}s"
        + (f"; {'; '.join(problems[:4])}" if problems else "")
    )
    _verdict(capsys, 10, "reproducibility", not problems, detail)
