"""Totient tables, divisibility densities, and lattice counting against
trial-division and double-loop oracles."""

import itertools
import math
import random
import time
from fractions import Fraction as Q

import numpy as np
import pytest
import sympy

from bohrgap import counting
from bohrgap.bohr import BohrSpec, restricted_bohr
from bohrgap.cli import main
from bohrgap.counting import (
    CongruenceLattice,
    _phi_segment,
    alpha_p,
    alpha_p_table,
    congruence_lattice,
    davenport_count,
    euclidean_minima,
    is_prime,
    primes_up_to,
    totient_average,
    totient_sieve,
)
from bohrgap.errors import BudgetExceeded, ValidationError
from bohrgap.gap import GAP, gap_elements, inner_gap


# -- oracles -------------------------------------------------------------------


def phi_oracle(n):
    """Totient by trial-division factorization."""
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def rank_oracle(vectors):
    rows = [[Q(c) for c in v] for v in vectors]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def brute_count(box, moduli, p):
    """Double loop over the box, counting the congruence directly."""
    ranges = [range(-n, n + 1) for n in box]
    total = 0
    for x in itertools.product(*ranges):
        if sum(a * c for a, c in zip(moduli, x)) % p == 0:
            total += 1
    return total


@pytest.fixture(scope="module")
def sqrt2_gap():
    return inner_gap(BohrSpec.build(["sqrt:2"], None, 10**5, ["0.1"], "0.05"))


# -- totient sieve ---------------------------------------------------------------


def test_phi_small_values():
    t = totient_sieve(100)
    assert int(t.block(1, 2)[0]) == 1
    assert int(t.block(12, 13)[0]) == 4 == sum(1 for a in range(1, 13) if math.gcd(a, 12) == 1)
    assert int(t.block(97, 98)[0]) == 96


def test_phi_matches_oracle_block():
    t = totient_sieve(3000)
    vals = t.block(1, 3001)
    for n in range(1, 3001):
        assert int(vals[n - 1]) == phi_oracle(n), n


def test_phi_primes_and_multiplicativity():
    t = totient_sieve(10**4)
    for p in map(int, primes_up_to(10**4)):
        assert int(t.block(p, p + 1)[0]) == p - 1
    phi = t.block(1, 10**4 + 1)
    rng = random.Random(5)
    for _ in range(200):
        a, b = rng.randrange(2, 90), rng.randrange(2, 90)
        if math.gcd(a, b) == 1:
            assert phi[a * b - 1] == phi[a - 1] * phi[b - 1]


def test_phi_density_constant():
    t = totient_sieve(10**4)
    s = math.fsum(
        int(p) / n for n, p in enumerate(t.block(1, 10**4 + 1), start=1)
    )
    assert s == pytest.approx(6079.3841356524645, rel=1e-12)
    assert abs(s - 6 / math.pi**2 * 10**4) <= 0.01 * 10**4


def test_segmented_table_agrees():
    t = totient_sieve(10**7 + 2 * 10**6)
    for n in (10**7 - 1, 10**7, 10**7 + 1, 10**7 + 999983, 10**7 + 2 * 10**6):
        assert int(t.block(n, n + 1)[0]) == phi_oracle(n), n
    blk = t.block(10**7 + 10**6 - 3, 10**7 + 10**6 + 3)  # spans two segments
    for off, n in enumerate(range(10**7 + 10**6 - 3, 10**7 + 10**6 + 3)):
        assert int(blk[off]) == phi_oracle(n)


@pytest.mark.parametrize("power", [2**20, 3**12, 5**8, 10**7])
def test_phi_segment_windows_cutting_prime_powers(power):
    # segments starting or ending on, just past or just before a prime power
    # (and on the table's 10^7 segment edge), every n against the oracle
    primes = primes_up_to(math.isqrt(power + 200) + 1)
    for lo, hi in [(power - 150, power + 150), (power, power + 100), (power + 1, power + 100),
                   (power - 100, power), (power - 100, power + 1)]:
        got = _phi_segment(lo, hi, primes)
        assert got.dtype == np.int64 and len(got) == hi - lo
        assert [int(v) for v in got] == [phi_oracle(n) for n in range(lo, hi)], (lo, hi)
    t = totient_sieve(power + 200)
    assert [int(v) for v in t.block(power - 150, power + 150)] == [
        phi_oracle(n) for n in range(power - 150, power + 150)
    ]


def eager_phi(limit):
    """Reference: phi(1..limit) as one segment, the whole table at once."""
    return _phi_segment(1, limit + 1, primes_up_to(math.isqrt(limit) + 1))


def test_block_table_matches_the_eager_segment():
    limit = 2 * 10**6 + 12345  # three sieve blocks, the last one short
    want = eager_phi(limit)
    t = totient_sieve(limit)
    assert np.array_equal(t.block(1, limit + 1), want)
    for n in (1, 10**6, 10**6 + 1, 2 * 10**6 + 1, limit):
        assert int(t.block(n, n + 1)[0]) == int(want[n - 1])


def test_totient_average_on_unsorted_input_reads_each_block_once(monkeypatch):
    # integers from every sieve segment in random order, repeats kept: one
    # more segment than the cache holds, so a pass in input order would
    # sieve the same segment again and again
    seg = counting._SEGMENT
    limit = (counting._CACHE_SEGMENTS + 1) * seg - 7  # the last segment short
    rng = random.Random(13)
    ns = [rng.randrange(1, limit + 1) for _ in range(1500)] + [limit, 1, 1]
    rng.shuffle(ns)
    want_phi = eager_phi(limit)
    want = sum((Q(int(want_phi[n - 1]), n) for n in ns), Q(0))
    sieved = []
    real = counting._phi_segment
    monkeypatch.setattr(counting, "_phi_segment", lambda lo, hi, primes: sieved.append(lo) or real(lo, hi, primes))
    assert totient_average(ns, totient_sieve(limit)) == want
    assert sorted(sieved) == [1 + j * seg for j in range(counting._CACHE_SEGMENTS + 1)]


def test_segment_reads_across_edges_match_the_eager_segment():
    seg = counting._SEGMENT
    limit = 3 * seg + 1234  # not a multiple of the segment length
    want = eager_phi(limit)
    t = totient_sieve(limit)
    edges = [1 + j * seg for j in range(1, 4)]
    for e in edges:
        for lo, hi in [(e - 3, e + 3), (e - 1, e), (e, e + 1), (e - seg, e), (e - 5, e + seg + 5)]:
            hi = min(hi, limit + 1)
            assert np.array_equal(t.block(lo, hi), want[lo - 1 : hi - 1]), (lo, hi)
        for n in (e - 1, e):
            assert int(t.block(n, n + 1)[0]) == int(want[n - 1])
    assert np.array_equal(t.block(limit - 7, limit + 1), want[limit - 8 :])
    assert np.array_equal(t.block(5, 5), want[4:4])
    rng = random.Random(5)
    ns = np.array(sorted([rng.randrange(1, limit + 1) for _ in range(3000)] + [1, limit] + edges + [e - 1 for e in edges]))
    assert np.array_equal(t.at(ns), want[ns - 1])
    assert len(t.at(ns[:0])) == 0


def test_a_scan_block_of_phi_is_a_view_of_one_segment():
    # the segment length is a multiple of the scan block, so _phi_over_n's
    # read of any scan block over 1..N slices one cached segment
    from bohrgap.scan import BLOCK, blocks

    assert counting._SEGMENT % BLOCK == 0
    N = 2 * counting._SEGMENT + 3 * BLOCK + 11
    t = totient_sieve(N)
    want = eager_phi(N)
    for ns in blocks(1, N):
        lo, hi = int(ns[0]), int(ns[-1]) + 1
        got = t.block(lo, hi)
        assert got.base is t._cache[(lo - 1) // counting._SEGMENT]
        assert np.array_equal(got, want[lo - 1 : hi - 1])


def ref_totient_average(ns, table):
    """Reference: groups by reduced denominator, added as Fractions up a balanced tree."""
    groups = {}
    for n in sorted(int(n) for n in ns):
        phi = int(table.block(n, n + 1)[0])
        g = math.gcd(phi, n)
        groups[n // g] = groups.get(n // g, 0) + phi // g
    terms = [Q(num, den) for den, num in sorted(groups.items())]
    while len(terms) > 1:
        terms = [sum(terms[i : i + 2]) for i in range(0, len(terms), 2)]
    return terms[0] if terms else Q(0)


@pytest.mark.parametrize("size", [1, 2, 3, 5, 64, 1000])
def test_average_tree_matches_the_fraction_tree(size):
    limit = counting._SEGMENT + 999
    t = totient_sieve(limit)
    rng = random.Random(size)
    ns = [rng.randrange(1, limit + 1) for _ in range(size)]
    ns += ns[: size // 2] + [1] * (size % 2)
    got = totient_average(ns, t)
    assert got == ref_totient_average(ns, t)
    assert math.gcd(got.numerator, got.denominator) == 1


def test_sieve_guards():
    with pytest.raises(BudgetExceeded):
        totient_sieve(10**8 + 1)
    with pytest.raises(ValidationError):
        totient_sieve(0)
    t = totient_sieve(50)
    with pytest.raises(ValidationError):
        t.block(51, 52)


# -- totient averages -------------------------------------------------------------


def test_average_trivial_sets():
    assert totient_average([1]) == 1
    assert totient_average([2, 4, 8]) == Q(3, 2)
    assert totient_average([]) == 0


def test_average_matches_direct_fraction_sum():
    rng = random.Random(9)
    ns = [rng.randrange(1, 500) for _ in range(60)]
    t = totient_sieve(500)
    direct = sum(Q(int(t.block(n, n + 1)[0]), n) for n in ns)
    assert totient_average(ns, t) == direct


def test_average_matches_lcm_formula_with_repeats():
    # the single-denominator formula: sum phi(n) * (lcm/n) over lcm
    rng = random.Random(21)
    t = totient_sieve(5000)
    for size in (1, 2, 3, 17, 400):
        ns = [rng.randrange(1, 5000) for _ in range(size)]
        ns += ns[: size // 3]  # repeated members count with multiplicity
        lcm = math.lcm(*ns)
        want = Q(sum(int(t.block(n, n + 1)[0]) * (lcm // n) for n in ns), lcm)
        assert totient_average(ns, t) == want


def test_average_restricted_bohr_pinned():
    spec = BohrSpec.build(
        ["sqrt:2", "sqrt:3"], ["dec:0.3", "dec:0.7"], 10**5, ["0.2", "0.2"], "0.04"
    )
    ms = [int(n) for n in restricted_bohr(spec).members]
    assert len(ms) == 15999
    assert min(ms) == 13 and max(ms) == 99997
    avg = totient_average(ms)
    assert float(avg) == pytest.approx(9728.268189714086, rel=1e-12)
    m61 = 2**61 - 1
    assert avg.numerator % m61 == 45268245456389359
    assert avg.denominator % m61 == 959683354158439295
    # the average keeps pace with the expected delta1*delta2*N scale
    assert 1 <= float(avg) / (0.04 * 10**5) <= 10


def test_average_range_guard():
    t = totient_sieve(10)
    with pytest.raises(ValidationError):
        totient_average([5, 20], t)
    with pytest.raises(ValidationError):
        totient_average([0])


# -- divisibility densities --------------------------------------------------------


def test_alpha_p_degenerate_even_gap():
    g = GAP(b=2, moduli=(2,), lengths=(5,), form="positive", sigma=(1,))
    assert alpha_p(g, 2) == 1


def test_alpha_p_single_period():
    for p in (2, 3, 7, 13):
        g = GAP(b=0, moduli=(1,), lengths=(p,), form="positive", sigma=(1,))
        assert alpha_p(g, p) == Q(1, p)


def test_alpha_p_requires_prime():
    g = GAP(b=0, moduli=(1,), lengths=(4,), form="positive", sigma=(1,))
    with pytest.raises(ValidationError):
        alpha_p(g, 6)


def test_alpha_table_pinned(sqrt2_gap):
    rows = alpha_p_table(sqrt2_gap, 97, Q(1, 20))
    by_p = {r["p"]: r for r in rows}
    assert by_p[2]["alpha_p"] == Q(3, 5)
    assert by_p[3]["alpha_p"] == Q(1, 5)
    assert by_p[5]["alpha_p"] == Q(1, 5)
    assert by_p[7]["alpha_p"] == Q(3, 25)
    mx = max(r["p_eps_weighted"] for r in rows)
    assert mx == pytest.approx(0.6211589543048265, rel=1e-12)
    # the reference bound 1/p + 1/min(N_i) holds outright on this instance
    assert all(r["excess"] <= 0 for r in rows)


def test_alpha_table_wide_prime_range(sqrt2_gap):
    rows = alpha_p_table(sqrt2_gap, 10**4, Q(1, 20))
    assert max(r["p_eps_weighted"] for r in rows) == pytest.approx(
        0.6211589543048265, rel=1e-12
    )


def test_alpha_csv_shape(tmp_path):
    # the CSV of sqrt2_gap's table for p <= 10
    argv = "count alphap --alpha sqrt:2 --N 100000 --delta 0.1 --eps 0.05 --pmax 10"
    assert main([*argv.split(), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "table.csv").read_text().strip().split("\n")
    assert lines[0].startswith("p,alpha_p,")
    assert lines[1].startswith("2,3/5,0.6,")
    assert len(lines) == 1 + 4  # primes 2, 3, 5, 7


def test_amgm_chain_exact(sqrt2_gap):
    # prod phi(n)/n >= prod_p (p/(p+2))^{c_p} with c_p the divisibility counts
    els = [int(n) for n in gap_elements(sqrt2_gap)]
    t = totient_sieve(max(els))
    lhs = Q(1)
    for n in els:
        lhs *= Q(int(t.block(n, n + 1)[0]), n)
    rhs = Q(1)
    for p in map(int, primes_up_to(max(els))):
        c = sum(1 for n in els if n % p == 0)
        if c:
            rhs *= Q(p, p + 2) ** c
    assert lhs >= rhs


# -- congruence lattices ------------------------------------------------------------


def on_lattice(lat, x):
    """sum A_i x_i = 0 mod p over the coordinates coprime to p."""
    return sum(lat.moduli[i] * c for i, c in zip(lat.coprime, x)) % lat.p == 0


def test_lattice_pair_modulus_two():
    lat = congruence_lattice((1, 1), 2)
    assert lat.det == 2 and lat.divisible == () and lat.coprime == (0, 1)
    for v in [(1, 1), (0, 2)] + [tuple(r) for r in lat.basis]:
        assert on_lattice(lat, v)
    assert not on_lattice(lat, (1, 0))


def test_lattice_with_zero_modulus():
    lat = congruence_lattice((1, 0), 3)
    assert lat.divisible == (1,) and lat.coprime == (0,)
    assert lat.basis == ((3,),) and lat.det == 3


def test_lattice_mixed_divisibility():
    lat = congruence_lattice((3, 5, 7), 5)
    assert lat.divisible == (1,) and lat.coprime == (0, 2)
    assert lat.det == 5
    # residue-count oracle: p^{d-1} solutions in a fundamental box
    sols = sum(
        1 for x in range(5) for z in range(5) if (3 * x + 7 * z) % 5 == 0
    )
    assert sols == 5


def test_lattice_rejects_vacuous():
    with pytest.raises(ValidationError):
        congruence_lattice((4, 6), 2)
    with pytest.raises(ValidationError):
        congruence_lattice((1, 1), 4)  # not prime


def test_lattice_det_and_index_random():
    rng = random.Random(3)
    primes = [2, 3, 5, 7, 11, 13]
    for _ in range(30):
        p = rng.choice(primes)
        k = rng.randrange(1, 4)
        moduli = tuple(rng.randrange(0, 30) for _ in range(k))
        if all(a % p == 0 for a in moduli):
            continue
        lat = congruence_lattice(moduli, p)
        assert lat.det == p
        d = lat.d
        inside = sum(
            1
            for x in itertools.product(range(p), repeat=d)
            if on_lattice(lat, x)
        )
        assert inside == p ** (d - 1)  # index p in Z^d
        for row in lat.basis:
            assert on_lattice(lat, row)


# -- Euclidean minima ----------------------------------------------------------------


def test_minima_checkerboard():
    lat = congruence_lattice((1, 1), 2)
    assert euclidean_minima(lat) == (2, 2)


def test_minima_pinned_dim3():
    lat = congruence_lattice((1, 2, 3), 5)
    assert euclidean_minima(lat) == (2, 3, 5)


@pytest.mark.parametrize("p, want", [(10007, (3, 3, 4, 3338002)), (1000003, (3, 3, 4, 33333533334))])
def test_a_long_last_minimum_skips_the_span_of_the_short_ones(p, want):
    # three short minima and a long fourth: a walk through the whole ellipsoid
    # of the fourth radius meets about p^(3/2) points of the first three's
    # span; the walk on the rebased basis meets none of them
    t = time.perf_counter()
    assert euclidean_minima(congruence_lattice((1, 2, 3, 4), p)) == want
    assert time.perf_counter() - t < 2.0


def _lattice_points_box(lat, r, budget):
    """All lattice points with sup-norm <= r, solved coordinate first."""
    d, p = lat.d, lat.p
    sub = [lat.moduli[i] for i in lat.coprime]
    if d == 1:
        vals = np.arange(-(r // p) * p, r + 1, p, dtype=np.int64)
        return vals.reshape(-1, 1)
    reps = (2 * r) // p + 2
    if (2 * r + 1) ** (d - 1) * reps > budget:
        raise BudgetExceeded("minima enumeration exceeds the point budget")
    axes = [np.arange(-r, r + 1, dtype=np.int64) for _ in range(d - 1)]
    tail = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    inv = pow(sub[0], -1, p)
    res = np.zeros(len(tail), dtype=np.int64)
    for i in range(1, d):
        res = (res + sub[i] % p * tail[:, i - 1]) % p
    x0 = (-inv * res) % p
    pts = []
    for m in range(-reps, reps + 1):
        cand = x0 + m * p
        keep = np.abs(cand) <= r
        if keep.any():
            pts.append(np.concatenate([cand[keep, None], tail[keep]], axis=1))
    return np.concatenate(pts) if pts else np.empty((0, d), dtype=np.int64)


def box_minima(lat, budget=10**8):
    """Squared Euclidean minima from doubling sup-norm boxes, greedy by norm."""
    d, p = lat.d, lat.p
    r = 2
    while True:
        pts = _lattice_points_box(lat, r, budget)
        if len(pts):
            norms = (pts * pts).sum(axis=1)
            order = np.argsort(norms, kind="stable")
            chosen, mins = [], []
            for idx in order:
                v = pts[idx]
                if not v.any():
                    continue
                if sympy.Matrix(chosen + [v.tolist()]).rank() > len(chosen):
                    chosen.append(v.tolist())
                    mins.append(int(norms[idx]))
                    if len(chosen) == d:
                        break
            if len(chosen) == d and mins[-1] <= r * r:
                return tuple(mins)
        if r > p:
            raise BudgetExceeded("minima search ran past the guaranteed radius")
        r *= 2


def test_minima_match_the_box_reference():
    lats = [congruence_lattice((1, 1), 2), congruence_lattice((1, 2, 3), 5)]
    rng = random.Random(17)
    for _ in range(12):
        p = rng.choice([2, 3, 5, 7])
        d = rng.randrange(1, 4)
        moduli = tuple(rng.randrange(1, 20) for _ in range(d))
        if not all(a % p == 0 for a in moduli):
            lats.append(congruence_lattice(moduli, p))
    rng = random.Random(29)
    while len(lats) < 60:
        p = rng.choice([11, 13, 31, 61, 97, 101])
        moduli = tuple(rng.randrange(1, 200) for _ in range(rng.randrange(1, 5)))
        if not all(a % p == 0 for a in moduli):
            lats.append(congruence_lattice(moduli, p))
    for lat in lats:
        assert euclidean_minima(lat) == box_minima(lat), lat.to_dict()


def test_minima_against_greedy_oracle():
    rng = random.Random(17)
    for _ in range(12):
        p = rng.choice([2, 3, 5, 7])
        d = rng.randrange(1, 4)
        moduli = tuple(rng.randrange(1, 20) for _ in range(d))
        if all(a % p == 0 for a in moduli):
            continue
        lat = congruence_lattice(moduli, p)
        got = euclidean_minima(lat)
        # oracle: all vectors with sup norm <= p, greedy by exact norm
        pts = [
            v
            for v in itertools.product(range(-p, p + 1), repeat=lat.d)
            if any(v) and on_lattice(lat, v)
        ]
        pts.sort(key=lambda v: sum(c * c for c in v))
        chosen, mins = [], []
        for v in pts:
            if rank_oracle(chosen + [list(v)]) > len(chosen):
                chosen.append(list(v))
                mins.append(sum(c * c for c in v))
            if len(chosen) == lat.d:
                break
        assert got == tuple(mins)
        assert got[0] >= 1  # sublattice of Z^d


# -- Davenport counting ---------------------------------------------------------------


def test_davenport_full_lattice():
    c = davenport_count((2, 2))
    assert c.count == 25
    assert c.main_term == 16
    assert c.discrepancy == 9
    assert c.minima_sq == (1, 1)
    assert c.projections == (1, 4)
    assert c.subset_constants == (1, 2)


def test_davenport_checkerboard():
    lat = congruence_lattice((1, 1), 2)
    c = davenport_count((2, 2), lat)
    assert c.count == 13 == brute_count((2, 2), (1, 1), 2)
    assert c.main_term == 8
    assert c.discrepancy == 5
    assert c.minima_sq == (2, 2)


def test_davenport_dim3_pinned():
    lat = congruence_lattice((1, 2, 3), 5)
    c = davenport_count((10, 10, 10), lat)
    assert c.count == 1853
    assert c.main_term == 1600
    assert c.discrepancy == 253
    assert c.minima_sq == (2, 3, 5)
    assert c.projections == (1, 20, 400)
    assert c.realized_ratio == pytest.approx(1.417831997, rel=1e-6)


def test_davenport_matches_brute_force():
    rng = random.Random(29)
    done = 0
    while done < 30:
        p = rng.choice([2, 3, 5, 7, 11])
        d = rng.randrange(1, 4)
        moduli = tuple(rng.randrange(0, 25) for _ in range(d))
        if all(a % p == 0 for a in moduli):
            continue
        lat = congruence_lattice(moduli, p)
        box = tuple(rng.randrange(1, 13) for _ in range(lat.d))
        c = davenport_count(box, lat)
        sub = tuple(moduli[i] for i in lat.coprime)
        assert c.count == brute_count(box, sub, p)
        assert c.discrepancy == abs(Q(c.count) - c.main_term)
        assert c.bound >= 1
        done += 1


def test_davenport_guards():
    with pytest.raises(ValidationError):
        davenport_count((2,) * 5)
    with pytest.raises(BudgetExceeded):
        davenport_count((10**4, 10**4))
    lat = congruence_lattice((1, 1), 2)
    with pytest.raises(ValidationError):
        davenport_count((2, 2, 2), lat)


def _numpy_box_count(box, lat):
    """The box product mod p over every point, as the count was first written."""
    d, p = len(box), lat.p
    sub = [lat.moduli[i] for i in lat.coprime]
    acc = np.zeros((1,) * d, dtype=np.int64)
    for i, n in enumerate(box):
        axis = np.arange(-n, n + 1, dtype=np.int64)
        shape = [1] * d
        shape[i] = len(axis)
        acc = (acc + (sub[i] % p) * axis.reshape(shape)) % p
    return int(np.count_nonzero(acc == 0))


def _mpmath_bound(c):
    """The certificate's bound and ratio at 50 mpmath digits."""
    import mpmath

    with mpmath.workdps(50):
        b = mpmath.mpf(0)
        for j in range(len(c.box)):
            b += c.projections[j] / (mpmath.sqrt(math.prod(c.minima_sq[:j])) if j else mpmath.mpf(1))
        return float(b), float(mpmath.mpf(c.discrepancy.numerator) / c.discrepancy.denominator / b)


def test_davenport_residue_count_matches_the_numpy_box():
    # d = 1..4; small and large primes, moduli divisible by p (dropped
    # coordinates), lopsided boxes with a zero side or one longer than p
    rng = random.Random(1403)
    done = 0
    while done < 400:
        # the minima walk slows with p in d >= 3, so the largest primes pair with d <= 2
        d = rng.randrange(1, 5)
        p = rng.choice([2, 3, 5, 7, 13, 101] + [997, 1000003] * (d <= 2))
        moduli = tuple(rng.choice([rng.randrange(-40, 41), p * rng.randrange(1, 4)]) for _ in range(d))
        if all(a % p == 0 for a in moduli):
            continue
        lat = congruence_lattice(moduli, p)
        box = [rng.choice([0, 1, rng.randrange(2, 12), rng.randrange(12, 120)]) for _ in range(lat.d)]
        box[rng.randrange(lat.d)] = rng.choice([rng.randrange(0, 3), rng.randrange(100, 3000)])
        if math.prod(2 * n + 1 for n in box) > 2 * 10**5:
            continue
        c = davenport_count(box, lat)
        assert c.count == _numpy_box_count(box, lat), (box, moduli, p)
        assert (c.bound, c.realized_ratio) == _mpmath_bound(c)
        done += 1
    for box, moduli, p in [
        ((2000000, 0), (1, 3), 1000003),
        ((150, 150, 150), (1, 3, 7), 1000003),
        ((3, 2000, 1), (5, 7, 11), 13),
        ((20, 20, 20, 20), (1, 2, 3, 4), 7),
    ]:
        lat = congruence_lattice(moduli, p)
        c = davenport_count(box, lat)
        assert c.count == _numpy_box_count(box, lat), (box, moduli, p)
        assert (c.bound, c.realized_ratio) == _mpmath_bound(c)


def test_davenport_budget_guard_message():
    lat = congruence_lattice((1, 3), 1000003)
    with pytest.raises(BudgetExceeded, match=r"^box holds 40000001 points, over the budget$"):
        davenport_count((20000000, 0), lat)
    with pytest.raises(BudgetExceeded, match=r"^box holds 441 points, over the budget$"):
        davenport_count((10, 10), lat, budget=440)
    assert davenport_count((10, 10), lat, budget=441).count == _numpy_box_count((10, 10), lat)


def test_davenport_csv_shape(tmp_path):
    assert main(["count", "davenport", "--box", "2,2", "--moduli", "1,1", "--p", "2", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "table.csv").read_text().strip().split("\n")
    assert lines[0] == "box,count,main_term,discrepancy,bound,realized_ratio"
    assert lines[1].startswith("2x2,13,8,5,")


def test_is_prime_small():
    truth = {n for n in range(2, 1000) if all(n % d for d in range(2, n))}
    for n in range(1000):
        assert is_prime(n) == (n in truth)
