"""Bohr set enumeration, lifting, and the shrunken/restricted variants."""

import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrgap.bohr import (
    BohrSet,
    BohrSpec,
    _coord_scans,
    all_lifts,
    enumerate_bohr,
    is_member,
    lift_bohr,
    restricted_bohr,
    shift_injection_holds,
)
from bohrgap.errors import AmbiguousLift, ValidationError
from bohrgap.scan import CoordScan

Q = Fraction

# frozen from an mpmath 60-digit scan oracle
SQRT2_N100_D005 = [-99, -87, -82, -70, -58, -53, -41, -29, -17, -12, 0,
                   12, 17, 29, 41, 53, 58, 70, 82, 87, 99]


def spec_of(alphas, gammas, N, deltas, eps="1/20"):
    return BohrSpec.build(alphas, gammas, N, deltas, Q(eps))


def test_half_alpha_even_members():
    # ||n/2|| is 0 for even n, 1/2 for odd; width 0.3 keeps exactly the evens
    b = enumerate_bohr(spec_of(["rat:1/2"], None, 10, ["0.3"]), "symmetric")
    assert list(b.members) == [-10, -8, -6, -4, -2, 0, 2, 4, 6, 8, 10]
    assert b.cardinality == 11


def test_full_width_keeps_everything():
    b = enumerate_bohr(spec_of(["sqrt:2"], None, 25, ["1"]), "symmetric")
    assert b.cardinality == 2 * 25 + 1
    assert list(b.members) == list(range(-25, 26))


def test_sqrt2_frozen_list():
    b = enumerate_bohr(spec_of(["sqrt:2"], None, 100, ["0.05"]), "symmetric")
    assert list(b.members) == SQRT2_N100_D005
    for probe in (0, 12, 29, 41, 70, 82, 99):
        assert probe in b.members and -probe in b.members


def test_positive_mode_is_positive_slice():
    s = spec_of(["sqrt:2"], None, 100, ["0.05"])
    sym = enumerate_bohr(s, "symmetric")
    pos = enumerate_bohr(s, "positive")
    assert list(pos.members) == [n for n in sym.members if n >= 1]


def test_boundary_inclusive_exact():
    # alpha = 1/4: ||2*alpha|| = 1/2 exactly; width 1/2 keeps n = 2 mod 4
    b = enumerate_bohr(spec_of(["rat:1/4"], None, 8, ["rat:1/2"]), "positive")
    assert list(b.members) == [1, 2, 3, 4, 5, 6, 7, 8]
    tight = enumerate_bohr(spec_of(["rat:1/4"], None, 8, ["rat:1/4"]), "positive")
    assert list(tight.members) == [1, 3, 4, 5, 7, 8]


def test_inhomogeneous_shift():
    # gamma = 1/2 with alpha = 1/2 selects the odd n
    b = enumerate_bohr(spec_of(["rat:1/2"], ["rat:1/2"], 10, ["0.2"]), "symmetric")
    assert list(b.members) == [-9, -7, -5, -3, -1, 1, 3, 5, 7, 9]


def test_two_coordinate_intersection():
    s2 = enumerate_bohr(spec_of(["sqrt:2"], None, 500, ["0.1"]), "positive")
    s3 = enumerate_bohr(spec_of(["sqrt:3"], None, 500, ["0.15"]), "positive")
    both = enumerate_bohr(spec_of(["sqrt:2", "sqrt:3"], None, 500, ["0.1", "0.15"]), "positive")
    assert set(both.members) == set(s2.members) & set(s3.members)


def test_lift_sqrt2_12_gives_17():
    b = enumerate_bohr(spec_of(["sqrt:2"], None, 100, ["0.05"]), "positive")
    b = lift_bohr(b)
    byn = {v[0]: v for v in b.lifted}
    assert byn[12] == (12, 17)
    assert byn[29] == (29, 41)
    # projection onto the first coordinate recovers the members
    assert [v[0] for v in b.lifted] == list(b.members)


def test_lift_witness_inequality_holds():
    import mpmath
    b = lift_bohr(enumerate_bohr(spec_of(["sqrt:2", "sqrt:3"], None, 400, ["0.2", "0.2"]), "symmetric"))
    with mpmath.workdps(40):
        for n, a1, a2 in b.lifted:
            assert abs(n * mpmath.sqrt(2) - a1) <= 0.2 + 1e-30
            assert abs(n * mpmath.sqrt(3) - a2) <= 0.2 + 1e-30


def test_lift_zero_shift_zero_vector():
    b = lift_bohr(enumerate_bohr(spec_of(["sqrt:2", "sqrt:3"], None, 100, ["0.3", "0.3"]), "symmetric"))
    byn = {v[0]: v for v in b.lifted}
    assert byn[0] == (0, 0, 0)


def test_lift_inhomogeneous_nearest():
    # n=0, gamma=(0.4, 0.4): nearest integer to -0.4 is 0
    b = lift_bohr(enumerate_bohr(
        spec_of(["sqrt:2", "sqrt:3"], ["dec:0.4", "dec:0.4"], 100, ["0.45", "0.45"]), "symmetric"))
    byn = {v[0]: v for v in b.lifted}
    assert byn[0] == (0, 0, 0)


def test_lift_requires_narrow_widths():
    b = enumerate_bohr(spec_of(["sqrt:2"], None, 100, ["0.5"]), "positive")
    with pytest.raises(AmbiguousLift):
        lift_bohr(b)


def test_all_lifts_wide_width():
    s = spec_of(["rat:1/2"], None, 100, ["rat:1/2"])
    # odd n: ||n/2|| = 1/2, witnesses (n-1)/2 and (n+1)/2 both valid
    assert sorted(all_lifts(s, 3)) == [(3, 1), (3, 2)]
    # even n: the witness n/2 is unique at distance 0... plus none adjacent
    assert all_lifts(s, 4) == [(4, 2)]


def test_restricted_even_count():
    # N=100, eps=0.04: sqrt(eps) = 1/5, 100^(1/5) = 2.51..; even n in [3, 100]
    b = restricted_bohr(spec_of(["rat:1/2"], None, 100, ["0.3"], eps="0.04"))
    assert b.cardinality == 49
    assert int(b.members[0]) == 4 and int(b.members[-1]) == 100


def test_restricted_matches_slice_of_positive():
    s = spec_of(["sqrt:2", "sqrt:3"], None, 2000, ["0.2", "0.2"], eps="0.05")
    pos = enumerate_bohr(s, "positive")
    res = restricted_bohr(s)
    # 2000^sqrt(0.05) = 2000^0.2236... ~ 5.46 -> cutoff 6
    assert list(res.members) == [n for n in pos.members if n >= 6]


def test_restricted_empty_when_tiny():
    b = restricted_bohr(spec_of(["sqrt:2"], None, 120, ["0.001"]))
    assert b.cardinality == 0


def test_shift_injection_property():
    for gam in (None, ["dec:0.3"]):
        s = spec_of(["sqrt:2"], gam, 300, ["0.11"])
        b = enumerate_bohr(s, "positive")
        assert b.cardinality > 0
        assert shift_injection_holds(s, b)


def test_homogeneous_symmetry():
    b = enumerate_bohr(spec_of(["sqrt:2", "sqrt:3"], None, 700, ["0.2", "0.3"]), "symmetric")
    assert set(-b.members) == set(b.members)


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=30),
    q=st.integers(min_value=2, max_value=31),
    num=st.integers(min_value=1, max_value=9),
)
def test_rational_alpha_matches_fraction_oracle(p, q, num):
    alpha = Q(p, q)
    width = Q(num, 20)
    if width > 1:
        width = Q(1)
    s = spec_of([f"rat:{p}/{q}"], None, 60, [f"rat:{width}"])
    got = set(int(n) for n in enumerate_bohr(s, "symmetric").members)
    want = set()
    for n in range(-60, 61):
        r = (n * alpha) % 1
        if min(r, 1 - r) <= width:
            want.add(n)
    assert got == want


def test_monotone_in_width_and_range():
    narrow = enumerate_bohr(spec_of(["sqrt:2"], None, 300, ["0.05"]), "symmetric")
    wide = enumerate_bohr(spec_of(["sqrt:2"], None, 300, ["0.15"]), "symmetric")
    assert set(narrow.members) <= set(wide.members)
    longer = enumerate_bohr(spec_of(["sqrt:2"], None, 600, ["0.05"]), "symmetric")
    assert set(narrow.members) <= set(longer.members)


def test_is_member_pointwise():
    s = spec_of(["sqrt:2"], None, 100, ["0.05"])
    for n in SQRT2_N100_D005:
        assert is_member(s, n)
    assert not is_member(s, 1)
    assert not is_member(s, -30)


def test_validation_rejects():
    with pytest.raises(ValidationError):
        spec_of(["sqrt:2"], None, 0, ["0.05"])
    with pytest.raises(ValidationError):
        spec_of(["sqrt:2"], None, 100, ["0.05", "0.05"])
    with pytest.raises(ValidationError):
        spec_of(["sqrt:2"], None, 100, ["0"])
    with pytest.raises(ValidationError):
        spec_of(["sqrt:2"], None, 100, ["2.5"])
    with pytest.raises(ValidationError):
        spec_of(["sqrt:2"], None, 100, ["0.05"], eps="0.3")
    with pytest.raises(ValidationError):
        spec_of(["sqrt:2"], ["dec:0.1", "dec:0.2"], 100, ["0.05"])


def test_scale_guard():
    # N too large for the scale: the guard must trip rather than mis-scan
    with pytest.raises(ValidationError):
        BohrSpec.build(["sqrt:2"], None, 10**32, ["0.05"])


def test_to_dict_roundtrip_fields():
    b = lift_bohr(enumerate_bohr(spec_of(["sqrt:2"], None, 100, ["0.05"]), "positive"))
    d = b.to_dict()
    assert d["cardinality"] == len(d["members"]) == len(d["lifted"])
    assert d["k"] == 2 and d["N"] == 100 and d["mode"] == "positive"


# -- one unfolded value ---------------------------------------------------------


def unfolded_reference(spec, n, i, extra=0):
    """Reference: n*alpha_i - gamma_i before folding, with a zero shift for
    the homogeneous set, refined by extra bits."""
    a = spec.alpha.alphas[i]
    g = spec.gammas()[i]
    if extra:
        a = a.refined(a.scale + extra)
        g = g.refined(g.scale + extra)
    return a.mul_int(n) - g


def _triple(x):
    return x.man, x.err, x.exact()


@pytest.mark.parametrize("alphas,gammas", [
    (["sqrt:2", "rat:2/7"], None),
    (["sqrt:2", "rat:2/7"], ["sqrt:3", "rat:1/3"]),
    (["sqrt:5", "dec:0.1234567"], ["rat:-2/9", "sqrt:7"]),
])
@pytest.mark.parametrize("extra", [0, 64, 192])
def test_unfolded_matches_the_reference(alphas, gammas, extra):
    spec = spec_of(alphas, gammas, 1000, ["0.1"] * len(alphas))
    for i, coord in enumerate(_coord_scans(spec)):
        flip = _coord_scans(spec, flip=True)[i]
        for n in (0, 1, 17, 999, -1, -17, -999):
            want = unfolded_reference(spec, n, i, extra)
            assert _triple(coord.unfolded(n, extra)) == _triple(want)
            # n*alpha + gamma = -((-n)*alpha - gamma)
            mirror = unfolded_reference(spec, -n, i, extra)
            got = flip.unfolded(n, extra)
            assert (got.man, got.err) == (-mirror.man, mirror.err)
            assert got.exact() == (None if mirror.exact() is None else -mirror.exact())


# -- the direct shift test against the doubled-set scan ---------------------------


def ref_shift_injection_holds(spec, bset):
    """Reference: scan the doubled homogeneous set over -N..N, then np.isin."""
    if bset.cardinality == 0:
        return True
    shifted = bset.members.astype(np.int64) - int(bset.members[0])
    if int(np.abs(shifted).max()) > spec.N:
        return False
    doubled = enumerate_bohr(replace(spec.scaled(2, 1), gamma=None), "symmetric")
    return bool(np.isin(shifted, doubled.members).all())


def _shift_cases(spec, seed):
    """The positive and symmetric sets of spec, then sorted random subsets of
    0..N: some inside the doubled set, most not."""
    yield enumerate_bohr(spec, "positive")
    yield enumerate_bohr(spec, "symmetric")  # spans -N..N: its shifts run past N
    rng = random.Random(seed)
    for size in (1, 2, 5, 40):
        yield BohrSet(spec, "positive", np.array(sorted(rng.sample(range(spec.N + 1), size)), dtype=np.int64))


@pytest.mark.parametrize("alphas,gammas,deltas", [
    (["sqrt:2"], None, ["0.1"]),  # 2*delta below 1/2
    (["sqrt:2"], ["rat:1/3"], ["0.3"]),  # above 1/2
    (["sqrt:3"], ["dec:0.3"], ["0.2"]),
    (["sqrt:5"], ["sqrt:2"], ["0.26"]),
    (["dec:0.7312"], ["sqrt:3"], ["1/4"]),  # 2*delta exactly 1/2
    (["sqrt:2", "rat:2/7"], ["dec:0.45", "rat:1/7"], ["0.24", "1/7"]),
    (["rat:1/3"], ["rat:1/2"], ["1/6"]),  # residue path, shifts tie at 2*delta = 1/3
    (["sqrt:3", "sqrt:7"], ["dec:0.1", "dec:0.9"], ["0.3", "0.6"]),  # the second width caps at 1
])
def test_shift_injection_matches_the_doubled_set_scan(alphas, gammas, deltas):
    spec = spec_of(alphas, gammas, 1500, deltas)
    for k, bset in enumerate(_shift_cases(spec, len(alphas) * 7 + len(deltas[0]))):
        assert shift_injection_holds(spec, bset) is ref_shift_injection_holds(spec, bset), k


def test_shift_injection_decides_exact_ties_by_the_fallback(monkeypatch):
    # alpha = 1/q with q > 2^31 has no residue decider, so the word split runs;
    # with 2*delta = 3/q the shift 3 ties exactly and goes to the exact callback
    q = 2**31 + 11
    spec = spec_of([f"rat:1/{q}"], None, 1000, [f"3/{2 * q}"])
    calls = []
    real = CoordScan.dist_le
    monkeypatch.setattr(CoordScan, "dist_le", lambda self, n, thr, **kw: calls.append(n) or real(self, n, thr, **kw))
    for members, want in [([5, 8], True), ([5, 8, 9], False), ([7, 10, 8, 9], True), ([0, 3, 1003], False)]:
        bset = BohrSet(spec, "positive", np.array(sorted(members), dtype=np.int64))
        calls.clear()
        assert shift_injection_holds(spec, bset) is want, members
        # the tie is settled exactly; a definite outsider or a shift past N
        # ends the test before any exact callback
        assert (3 in calls) is want
        assert ref_shift_injection_holds(spec, bset) is want, members
