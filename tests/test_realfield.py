"""Exact fixed-point arithmetic: constructors, distance, certified compares.

Oracle for irrational pins: mpmath at 60 digits, computed independently of
the mantissa pipeline and frozen below.
"""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrgap import realfield
from bohrgap.errors import PrecisionExhausted, ValidationError
from bohrgap.realfield import (
    DEFAULT_SCALE,
    UNDECIDED,
    FixedReal,
    RealSpec,
    ceil_pow_sqrt,
    certify,
    cmp_pow,
    dist_nearest_int,
    fr_from_fraction,
    fr_from_int,
    fr_root_rational,
    fr_sqrt_int,
    sqrt_fraction,
)
from bohrgap.scan import CoordScan, ThresholdSpec, le, members_in_range

Q = Fraction

# ||12*sqrt(2)|| to 30 places, mpmath oracle (see oracle test below)
NORM_12_SQRT2 = "0.029437251522859414379735309483"


def test_from_decimal_half_exact():
    x = RealSpec.parse("dec:0.5").realize(128)
    assert x.man == 1 << 127
    assert x.err == 0


def test_from_decimal_one_at_64():
    x = RealSpec.parse("dec:1").realize(64)
    assert x.man == 1 << 64
    assert x.err == 0


def test_from_decimal_tenth_rounds_to_nearest():
    x = RealSpec.parse("dec:0.1").realize(128)
    assert x.err <= Q(1, 2)
    assert abs(Q(x.man, 1 << 128) - Q(1, 10)) <= Q(1, 1 << 129)
    assert x.exact() == Q(1, 10)


def test_scale_guard():
    with pytest.raises(ValidationError):
        FixedReal(1, 32)


def test_sqrt2_square_within_three_ulp():
    x = fr_sqrt_int(2, 128)
    # |v^2 - 2| <= 3*2^-128  <=>  |man^2 - 2^257| <= 3*2^128
    assert abs(x.man * x.man - (2 << 256)) <= 3 << 128
    assert x.err == 1


def test_sqrt_perfect_square_exact():
    x = fr_sqrt_int(9, 128)
    assert x.exact() == 3
    assert x.err == 0


def test_root_rational_cube():
    x = fr_root_rational(Q(8), 3, 128)
    assert x.exact() == 2
    y = fr_root_rational(Q(2), 3, 128)
    lo, hi = y.bounds()
    assert lo**3 <= 2 <= (hi + Q(2, 1 << 128)) ** 3


def test_norm_form_12_sqrt2_oracle():
    # oracle: 17 - 12*sqrt(2) at 60 digits
    with mpmath.workdps(60):
        oracle = mpmath.mpf(17) - 12 * mpmath.sqrt(2)
        assert mpmath.nstr(oracle, 28, strip_zeros=False).startswith(NORM_12_SQRT2[:29])
    d = dist_nearest_int(fr_sqrt_int(2, 128).mul_int(12) - fr_from_int(0, 128))
    pin = Q(NORM_12_SQRT2)
    assert abs(Q(d.man, 1 << 128) - pin) < Q(1, 10**29)
    assert d.err <= 12
    assert f"{d.value():.10f}" == "0.0294372515"


def test_norm_form_error_budget():
    a = fr_sqrt_int(3, 128)
    g = RealSpec.parse("dec:0.3").realize(128)
    n = 12345
    d = dist_nearest_int(a.mul_int(n) - g)
    assert d.err <= (abs(n) + 1) * (a.err + g.err + 1)


def test_dist_ties_at_half():
    for q in (Q(1, 2), Q(3, 2), Q(-1, 2), Q(-7, 2)):
        assert CoordScan(fr_from_fraction(q, 128)).bracket(1) == (Q(1, 2), Q(1, 2))


def test_dist_zero_on_integers():
    for n in (-3, 0, 5):
        assert CoordScan(fr_from_int(n, 128)).bracket(1) == (0, 0)


@given(st.integers(-(10**6), 10**6), st.integers(1, 10**6))
@settings(max_examples=200, deadline=None)
def test_dist_matches_fraction_oracle(num, den):
    q = Q(num, den)
    frac = q - math.floor(q)
    oracle = min(frac, 1 - frac)
    assert CoordScan(fr_from_fraction(q, 128)).bracket(1) == (oracle, oracle)


@given(st.integers(-(10**6), 10**6), st.integers(1, 10**6))
@settings(max_examples=100, deadline=None)
def test_dist_symmetry(num, den):
    q = Q(num, den)
    a = CoordScan(fr_from_fraction(q, 128)).bracket(1)
    b = CoordScan(fr_from_fraction(-q, 128)).bracket(1)
    assert a == b


def test_norm_form_periodicity_dyadic():
    # alpha = 5/16, gamma = 3/8: exactly representable, exact period 16
    a = RealSpec.parse("dec:0.3125").realize(128)
    g = RealSpec.parse("dec:0.375").realize(128)
    vals = [dist_nearest_int(a.mul_int(n) - g).man for n in range(64)]
    for n in range(48):
        assert vals[n] == vals[n + 16]


def test_error_soundness_under_refinement():
    # recomputing at scale+64 stays inside the coarse interval
    a = fr_sqrt_int(5, 128)
    b = a.refined(192)
    lo1, hi1 = a.bounds()
    lo2, hi2 = b.bounds()
    assert lo1 <= lo2 and hi2 <= hi1 + Q(1, 1 << 150)


def test_le_decisive_and_equal():
    x = fr_sqrt_int(2, 128)
    y = RealSpec.parse("dec:1.4142135").realize(128)
    assert le(*x.bounds(), y.exact()) is False
    z = RealSpec.parse("dec:0.25").realize(128)
    w = fr_from_fraction(Q(1, 4), 128)
    assert le(*z.bounds(), w.exact()) is True


def test_precision_exhausted_without_source():
    x = FixedReal(1 << 127, 128, Q(2), None)
    with pytest.raises(PrecisionExhausted):
        x.refined(128 + 64)


def test_mul_int_and_add_err_propagation():
    a = fr_sqrt_int(2, 128)
    b = a.mul_int(10)
    assert b.err == 10 * a.err
    c = b + b
    assert c.err == 2 * b.err


def test_realspec_parse_roundtrip():
    for text in ("rat:1/3", "sqrt:2", "dec:0.35"):
        spec = RealSpec.parse(text)
        assert spec.text() == text
    with pytest.raises(ValidationError):
        RealSpec.parse("0.35")
    with pytest.raises(ValidationError):
        RealSpec.parse("cos:1")


def test_sqrt_fraction():
    assert sqrt_fraction(Q(1, 4)) == Q(1, 2)
    assert sqrt_fraction(Q(9)) == 3
    assert sqrt_fraction(Q(1, 20)) is None


def test_cmp_int_pow_exact():
    # 31 vs 10^(3/2), exponent 3/2 passed as t = 9/4: 31^2 = 961 < 1000
    assert cmp_pow(31, 31, 10, Q(9, 4)) == -1
    assert cmp_pow(32, 32, 10, Q(9, 4)) == 1
    assert cmp_pow(8, 8, 2, Q(9)) == 0


def test_cmp_int_pow_sqrt_paths():
    # rational sqrt: eps = 1/4 -> exponent 1/2; 10 vs 100^(1/2) = 10
    assert cmp_pow(10, 10, 100, Q(1, 4)) == 0
    # irrational: 2 vs 10^sqrt(1/20) ~ 10^0.2236 ~ 1.674
    assert cmp_pow(2, 2, 10, Q(1, 20)) == 1
    assert cmp_pow(1, 1, 10, Q(1, 20)) == -1


def test_ceil_pow_sqrt():
    # 10^6 ^ sqrt(0.05): 10^(6*0.22360679...) = 10^1.3416 = 21.96...
    m = ceil_pow_sqrt(10**6, Q(1, 20))
    assert m == 22
    assert cmp_pow(m, m, 10**6, Q(1, 20)) >= 0
    assert cmp_pow(m - 1, m - 1, 10**6, Q(1, 20)) < 0


def _dist_root(d: int, err: Fraction, scale: int, q: int, r: int):
    """Sign of [d -+ err]*2^-scale against q^(-1/r), exponent 1/r as t = 1/r^2."""
    return cmp_pow(Q(d - err, 1 << scale), Q(d + err, 1 << scale), q, Q(1, r * r), -1)


def test_cmp_dist_root():
    # d/2^128 vs 500^(-1/2) = 0.044721...
    scale = 128
    t = int(Q(1, 1) * (1 << scale) * 44721 // 10**6)
    assert _dist_root(t, Q(0), scale, 500, 2) == -1
    t2 = int((1 << scale) * 44722 // 10**6)
    assert _dist_root(t2, Q(0), scale, 500, 2) == 1
    # exact hit: d = 2^128/2, q = 4, r = 2 -> (1/2) == 4^(-1/2)
    assert _dist_root(1 << 127, Q(0), 128, 4, 2) == 0
    # straddle: wide error
    assert _dist_root(1 << 127, Q(1 << 100), 128, 4, 2) is None


def test_cmp_frac_pow_sqrt_exact_path():
    # eps = 1/4: threshold n^(-1/2); 1/6 vs 36^(-1/2) = 1/6 exactly
    assert cmp_pow(Q(1, 6), Q(1, 6), 36, Q(1, 4), -1) == 0
    assert cmp_pow(Q(1, 6), Q(1, 6), 35, Q(1, 4), -1) == -1
    assert cmp_pow(Q(1, 6), Q(1, 6), 37, Q(1, 4), -1) == 1


def test_cmp_frac_pow_sqrt_irrational_path():
    # n = 100, eps = 1/20: threshold 100^(-0.2236..) = 0.35725...
    assert cmp_pow(Q(36, 100), Q(36, 100), 100, Q(1, 20), -1) == 1
    assert cmp_pow(Q(35, 100), Q(35, 100), 100, Q(1, 20), -1) == -1


def _exact_sign(x: Fraction, n: int, e: Fraction, sign: int) -> int:
    """Sign of x - n^(sign*e) for rational e = a/b, by x^b against n^(sign*a)."""
    if x <= 0:
        return -1
    lhs, rhs = x**e.denominator, Q(n) ** (sign * e.numerator)
    return (lhs > rhs) - (lhs < rhs)


def _bracket(slo: int, shi: int):
    return slo if slo == shi else None


def test_cmp_pow_rational_exponent_against_integer_oracle():
    rng = random.Random(20181011)
    exps = [Q(1, 2), Q(1, 3), Q(1, 4), Q(1, 10), Q(2, 3), Q(3, 2), Q(1), Q(0)]
    cases = 0
    for _ in range(1500):
        e = rng.choice(exps)
        sign = rng.choice((1, -1))
        if rng.random() < 0.4 and e:
            # a perfect power makes the threshold rational, so exact hits exist
            m = rng.randint(1, 40)
            n, thr = m**e.denominator, Q(m) ** (sign * e.numerator)
            h = Q(1, rng.randint(2, 10**6)) * thr
            # a hit, straddles, brackets touching it and brackets on either side
            i, j = rng.choice([(0, 0), (-1, 1), (0, 1), (-1, 0), (1, 2), (-2, -1)])
            lo, hi = thr + i * h, thr + j * h
        else:
            n = rng.randint(1, 10**9)
            lo = Q(rng.randint(-5, 10**7), rng.randint(1, 10**7))
            hi = lo if rng.random() < 0.5 else lo + Q(rng.randint(0, 10**3), rng.randint(1, 10**9))
        want = _bracket(_exact_sign(lo, n, e, sign), _exact_sign(hi, n, e, sign))
        assert cmp_pow(lo, hi, n, e * e, sign) == want, (lo, hi, n, e, sign)
        cases += want is None
    assert cases > 50  # straddling brackets were exercised


def test_cmp_pow_irrational_exponent_against_mpmath_1000_digits():
    rng = random.Random(1810)
    with mpmath.workdps(1000):
        for _ in range(120):
            t = rng.choice([Q(1, 20), Q(1, 5), Q(1, 2), Q(2, 7), Q(3)])
            sign = rng.choice((1, -1))
            n = rng.randint(2, 10**9)
            thr = mpmath.power(n, sign * mpmath.sqrt(mpmath.mpf(t.numerator) / t.denominator))
            # rationals agreeing with the threshold to 10, 36, 100 and 300 digits
            # reach every rung of the 40/120/400-digit ladder
            digits = rng.choice([10, 36, 100, 300])
            p10 = digits - int(mpmath.floor(mpmath.log10(thr)))
            w = Q(10) ** -p10
            x = (int(mpmath.nint(thr * mpmath.mpf(10) ** p10)) + rng.choice((-1, 1))) * w
            want = 1 if mpmath.mpf(x.numerator) / x.denominator > thr else -1
            assert cmp_pow(x, x, n, t, sign) == want, (x, n, t, sign)
            # a bracket around the threshold stays open; one beside it decides
            assert cmp_pow(x - 3 * w, x + 3 * w, n, t, sign) is None
            side = (x + 2 * w, x + 3 * w) if want > 0 else (x - 3 * w, x - 2 * w)
            assert cmp_pow(*side, n, t, sign) == want


def test_cmp_pow_base_one_is_exactly_one():
    for t in (Q(1, 20), Q(1, 4)):
        for sign in (1, -1):
            assert cmp_pow(1, 1, 1, t, sign) == 0
            assert cmp_pow(Q(99, 100), Q(99, 100), 1, t, sign) == -1
            assert cmp_pow(Q(101, 100), Q(101, 100), 1, t, sign) == 1
            assert cmp_pow(1, Q(101, 100), 1, t, sign) is None


def test_decimal_rendering():
    x = RealSpec.parse("dec:0.1").realize(128)
    assert x.decimal(12) == "0.100000000000"
    y = fr_from_fraction(Q(-7, 2), 128)
    assert y.decimal(3) == "-3.500"


# -- the certify escalation primitive ------------------------------------------


class _NoFormat:
    def __format__(self, spec):
        raise AssertionError("message formatted before certify gave up")


def test_certify_tries_ladder_in_order_and_stops_at_first_decision():
    seen = []

    def step(extra):
        seen.append(extra)
        return "decided" if extra == 64 else UNDECIDED

    assert certify(step, "{}", _NoFormat()) == "decided"
    assert seen == [0, 64]


def test_certify_passes_none_through_as_a_decision():
    seen = []
    assert certify(lambda extra: seen.append(extra), "unused") is None
    assert seen == [0]


def test_certify_exhaustion_names_n_and_coord():
    seen = []
    with pytest.raises(PrecisionExhausted) as info:
        certify(lambda extra: seen.append(extra) or UNDECIDED, "{} at n={n}, coord {coord}", "stuck", n=7, coord=1)
    assert seen == [0, 64, 192]
    assert (info.value.n, info.value.coord) == (7, 1)
    assert str(info.value) == "stuck at n=7, coord 1"


def test_certify_lets_refinement_errors_through():
    x = FixedReal(1 << 127, 128, Q(2), None)  # no constructor to refine from

    def step(extra):
        return le(*x.refined(x.scale + extra).bounds(), Q(1, 2))

    with pytest.raises(PrecisionExhausted, match="no constructor available"):
        certify(step, "{}", _NoFormat())


def test_precision_ladder_lives_only_in_realfield():
    src = Path(__file__).resolve().parents[1] / "src" / "bohrgap"
    holders = sorted(p.name for p in src.glob("*.py") if "(0, 64, 192)" in p.read_text())
    assert holders == ["realfield.py"]


def test_per_n_exactness_lives_only_in_scan():
    # CoordScan alone turns n*alpha - gamma into an exact value or a bracket;
    # FixedReal is a plain interval that keeps only its constructor
    src = Path(__file__).resolve().parents[1] / "src" / "bohrgap"
    trees = {p.name: ast.parse(p.read_text()) for p in src.glob("*.py")}
    callers = sorted(
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("unfolded", "dist_fixed")
    )
    assert set(callers) == {"scan.py"}
    defined = {node.name for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not defined & {"cmp_fixed", "abs_"}
    (fixed,) = [node for node in ast.walk(trees["realfield.py"]) if isinstance(node, ast.ClassDef) and node.name == "FixedReal"]
    assert "__mul__" not in {node.name for node in fixed.body if isinstance(node, ast.FunctionDef)}
    assert not [
        node for node in ast.walk(fixed) if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "RealSpec"
    ]


def test_limb_carry_lives_in_one_function():
    # one limb kernel: every scan, fold and lift goes through the one
    # function that propagates the 32-bit carry (x >> _SH32, or in place
    # np.right_shift(x, _SH32, out=...))
    src = Path(__file__).resolve().parents[1] / "src" / "bohrgap"
    holders = set()

    def is_sh32(node):
        return isinstance(node, ast.Name) and node.id == "_SH32"

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = f"{where.split(':')[0]}:{getattr(node, 'name', '<lambda>')}"
        shifted = node.right if isinstance(node, ast.BinOp) else getattr(node, "value", None)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.RShift) and is_sh32(shifted):
            holders.add(where)
        func = getattr(node, "func", None)
        if isinstance(node, ast.Call) and getattr(func, "attr", getattr(func, "id", None)) == "right_shift":
            if len(node.args) > 1 and is_sh32(node.args[1]):
                holders.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for p in src.glob("*.py"):
        visit(ast.parse(p.read_text()), f"{p.name}:<module>")
    assert holders == {"scan.py:_limb_mul"}


def _imports_by_scope(tree):
    """(import node, innermost function or module around it) for every import."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append((child, scope))
            inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            visit(child, inner)

    visit(tree, tree)
    return found


def test_no_unused_imports():
    # a module-level import is used in its module, a function-local one in its
    # own function; each lazy export of the package exists in its module
    src = Path(__file__).resolve().parents[1] / "src" / "bohrgap"
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node, scope in _imports_by_scope(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
            where = getattr(scope, "name", "<module>")
            unused += [
                f"{path.name}:{where}:{name}"
                for name in ((a.asname or a.name).split(".")[0] for a in node.names)
                if name not in used
            ]
    assert unused == []

    init = ast.parse((src / "__init__.py").read_text())
    table = next(
        ast.literal_eval(node.value)
        for node in init.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_EXPORTS"
    )
    missing = []
    for module, names in table.items():
        defined = set()
        for node in ast.parse((src / f"{module}.py").read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        missing += [f"{module}.{name}" for name in names if name not in defined]
    assert missing == []


def test_digit_ladder_lives_once_in_realfield():
    src = Path(__file__).resolve().parents[1] / "src" / "bohrgap"
    counts = {p.name: p.read_text().count("(40, 120, 400)") for p in src.glob("*.py")}
    assert {name: c for name, c in counts.items() if c} == {"realfield.py": 1}


def test_no_module_imports_mpmath_and_the_exact_layers_import_no_numpy():
    # mpmath is a test oracle only; the spec types, realfield, lattice and
    # minima serve the exact-integer commands, which must start without numpy
    src = Path(__file__).resolve().parents[1] / "src" / "bohrgap"
    mpmath_users, numpy_at_top = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node, scope in _imports_by_scope(tree):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
            roots = {name.split(".")[0] for name in names}
            if "mpmath" in roots:
                mpmath_users.append(path.name)
            if "numpy" in roots and scope is tree:
                numpy_at_top.append(path.name)
    assert mpmath_users == []
    assert not {"realfield.py", "lattice.py", "minima.py"} & set(numpy_at_top)


# -- the decimal threshold ladder against a 60-digit mpmath oracle -----------------

# the non-square exponents t = eps that reach the ladder from gap, bohr and
# sums (eps^2 has a rational root and takes the exact branch)
LADDER_T = [Q(1, 20), Q(1, 10), Q(1, 8), Q(1, 7), Q(1, 5), Q(3, 20), Q(2, 9), Q(1, 12)]
# relative offset 10^-D from the threshold -> the rungs that run
RUNGS = {10: [40], 40: [40, 120], 150: [40, 120, 400]}


def _ladder_rungs(fn):
    """fn() and the precisions of the ladder's threshold evaluations."""
    seen = []
    real = realfield._pow_sqrt

    def spy(ctx, *args):
        seen.append(ctx.prec)
        return real(ctx, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(realfield, "_pow_sqrt", spy)
        return fn(), seen


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 10**18),
    t=st.sampled_from(LADDER_T),
    sign=st.sampled_from((1, -1)),
    digits=st.sampled_from(sorted(RUNGS)),
    side=st.sampled_from((1, -1)),
    k=st.integers(1, 9),
)
def test_cmp_pow_ladder_against_mpmath(n, t, sign, digits, side, k):
    # x = thr*(1 + side*k*10^-digits) as an exact rational; the threshold is
    # taken to 60 digits beyond the offset, so side is the true sign.  At
    # digits = 40 x lies within 10^-30 of the threshold (thr < 10^9 here).
    with mpmath.workdps(digits + 60):
        thr = mpmath.power(n, sign * mpmath.sqrt(mpmath.mpf(t.numerator) / t.denominator))
        p10 = digits + 30 - int(mpmath.floor(mpmath.log10(thr)))
        x = Q(int(mpmath.nint(thr * mpmath.mpf(10) ** p10)), 10**p10) * (1 + Q(side * k, 10**digits))
        assert digits != 40 or abs(mpmath.mpf(x.numerator) / x.denominator - thr) < mpmath.mpf(10) ** -30
    got, rungs = _ladder_rungs(lambda: cmp_pow(x, x, n, t, sign))
    assert got == side
    assert rungs == RUNGS[digits]
    # a bracket across the threshold stays open after the whole ladder
    w = abs(x - x / (1 + Q(side * k, 10**digits)))
    lo, hi = (x - 2 * w, x) if side > 0 else (x, x + 2 * w)
    assert _ladder_rungs(lambda: cmp_pow(lo, hi, n, t, sign)) == (None, [40, 120, 400])


# -- differential oracle through the exact scan fallback ---------------------------

SQRT2_512 = math.isqrt(2 << 1024)  # floor(sqrt(2) * 2^512)


def _oracle_dist(n: int) -> tuple[Fraction, Fraction]:
    """Enclosure of ||n*sqrt(2)|| from the 512-bit integer square root."""
    lo, hi = Q(n * SQRT2_512, 1 << 512), Q(n * (SQRT2_512 + 1), 1 << 512)
    k = round(lo)
    assert round(hi) == k
    return tuple(sorted((abs(lo - k), abs(hi - k))))


def _oracle_le(n: int, thr: Fraction) -> bool:
    dlo, dhi = _oracle_dist(n)
    assert (dlo <= thr) == (dhi <= thr), "oracle enclosure straddles the threshold"
    return dhi <= thr


def test_exact_callback_escalates_at_scale_64(monkeypatch):
    coord = CoordScan(RealSpec.parse("sqrt:2").realize(64))
    n0 = 1000
    dist = _oracle_dist(n0)[0]
    depths = []
    dist_fixed = CoordScan.dist_fixed

    def recording(self, n, extra_bits=0):
        depths.append(extra_bits)
        return dist_fixed(self, n, extra_bits)

    monkeypatch.setattr(CoordScan, "dist_fixed", recording)
    digits = math.floor(dist * 10**25)
    for text in (f"0.{digits:025d}", f"0.{digits + 1:025d}"):  # just below, just above
        assert abs(Q(text) - dist) < Q(1, 1 << 70)
        spec = ThresholdSpec.for_fraction(coord, Q(text), n0)
        assert le(*dist_fixed(coord, n0).bounds(), Q(text)) is UNDECIDED  # depth 0 cannot decide
        depths.clear()
        assert spec.exact(n0) == _oracle_le(n0, Q(text))
        assert max(depths) > 0


def test_widened_band_routes_most_n_through_exact_path():
    coord = CoordScan(RealSpec.parse("sqrt:2").realize(64))
    thr, N = Q(1, 5), 10**4
    spec = ThresholdSpec.for_fraction(coord, thr, N)
    calls = []
    # distances in (thr/4, 2*thr] now skip both vector verdicts
    wide = ThresholdSpec(spec.t_in // 4, 2 * spec.t_out, lambda n: calls.append(n) or spec.exact(n))
    got = members_in_range([coord], [wide], 1, N)
    assert len(calls) > N // 2
    assert got.tolist() == [n for n in range(1, N + 1) if _oracle_le(n, thr)]
