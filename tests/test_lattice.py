"""Integer lattice layer: Bareiss routines and the rebased basis against
sympy, and a guard that keeps determinant, rank and adjugate code in
lattice.py."""

import ast
import gc
import itertools
import math
import random
from pathlib import Path

import sympy

from bohrgap.counting import congruence_lattice, euclidean_minima
from bohrgap.minima import build_body, successive_minima
from bohrgap.realfield import BohrSpec
from bohrgap.lattice import ReducedLattice, adjugate, det, lll_gram

SRC = Path(__file__).resolve().parents[1] / "src" / "bohrgap"


def random_matrix(rng, rows, cols, lim=30):
    return [[rng.randint(-lim, lim) for _ in range(cols)] for _ in range(rows)]


def with_dependent_rows(rng, rows, cols):
    """rows x cols matrix whose later rows are integer combinations of the first ones."""
    free = rng.randint(0, rows)
    base = random_matrix(rng, free, cols)
    out = [list(r) for r in base]
    while len(out) < rows:
        coef = [rng.randint(-3, 3) for _ in base]
        out.append([sum(c * r[j] for c, r in zip(coef, base)) for j in range(cols)])
    rng.shuffle(out)
    return out


def test_det_and_adjugate_match_sympy():
    rng = random.Random(12)
    for n in range(1, 7):
        for _ in range(20):
            m = random_matrix(rng, n, n)
            if rng.random() < 0.3:
                m[-1] = [2 * x for x in m[0]]  # singular
            s = sympy.Matrix(m)
            assert det(m) == s.det()
            assert adjugate(m) == s.adjugate().tolist()
    assert det([]) == 1


def random_picks(rng, rows, s):
    """s independent lattice vectors over rows, as (coefficient rows, vectors)."""
    while True:
        coef = random_matrix(rng, s, len(rows), 3)
        if sympy.Matrix(coef).rank() == s:
            return coef, [[sum(c * r[j] for c, r in zip(cr, rows)) for j in range(len(rows[0]))] for cr in coef]


def minors_gcd(rows):
    """gcd of the maximal minors of an integer matrix, by sympy."""
    if not rows:
        return 1
    m = sympy.Matrix(rows)
    cols = range(m.cols)
    return math.gcd(*(int(m.extract(list(range(m.rows)), list(c)).det()) for c in itertools.combinations(cols, m.rows)))


def coefficients(basis, v):
    """v's coefficients over the rows of a square basis, by sympy."""
    return [int(c) for c in sympy.Matrix(basis).T.solve(sympy.Matrix(v))]


def rebased(red, picks):
    """red rebased on picks one at a time, as the greedy loops do."""
    for v in picks:
        red = red.rebased(coefficients(red.basis, v))
    return red


def test_rebased_basis_spans_the_saturation_of_the_picks():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = random_matrix(rng, n, n, 4)
        if det(rows) == 0:
            continue
        coef, picks = random_picks(rng, rows, rng.randint(1, n))
        s = len(picks)
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        red = rebased(ReducedLattice(rows, _gram(rows, eye)), picks)
        assert red.s == s and abs(det(red.basis)) == abs(det(rows))  # the same lattice
        head = [coefficients(rows, v) for v in red.basis[:s]]  # over rows
        # the first s rows span the picks' rational span, and no integer
        # point of it lies outside their integer span
        assert sympy.Matrix(head + coef).rank() == s
        assert minors_gcd(head) == 1


def test_extension_is_a_gcd_of_the_coefficients_past_the_picks():
    # primitive rows plus v extend to a basis of Z^k exactly when the gcd of
    # the maximal minors is 1; on a basis rebased on the rows that is the gcd
    # of v's coefficients past them
    rng = random.Random(16)
    cases = [([], [2, 1], True), ([], [2, 4], False), ([[1, 0, 0]], [0, 2, 0], False), ([[1, 0, 0]], [0, 2, 1], True)]
    while len(cases) < 200:
        n = rng.randint(2, 5)
        rows = random_matrix(rng, rng.randint(1, n - 1), n, 3)
        v = [rng.randint(-4, 4) for _ in range(n)]
        if sympy.Matrix(rows).rank() == len(rows) < sympy.Matrix(rows + [v]).rank() and minors_gcd(rows) == 1:
            cases.append((rows, v, minors_gcd(rows + [v]) == 1))
    assert 20 < sum(want for *_, want in cases) < 180
    for rows, v, want in cases:
        n, s = len(v), len(rows)
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        red = rebased(ReducedLattice(eye, eye), rows)
        assert (math.gcd(*coefficients(red.basis, v)[s:]) == 1) == want, (rows, v)


def _gram(rows, forms):
    """Gram matrix of rows under Q(v) = sum over forms f of (f . v)^2."""
    img = [[sum(a * b for a, b in zip(f, r)) for f in forms] for r in rows]
    return [[sum(a * b for a, b in zip(u, v)) for v in img] for u in img]


def test_lll_gram_reduces_with_integral_gram_schmidt_data():
    rng = random.Random(14)
    for _ in range(200):
        n = rng.randint(1, 6)
        forms = random_matrix(rng, n, n, 10 ** rng.randint(1, 30))
        if det(forms) == 0:
            continue
        fixed = rng.randint(0, n)
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        h, d, lam = lll_gram(_gram(eye, forms), fixed)
        assert abs(det(h)) == 1
        # no swap across the boundary: the first rows span what e_0..e_{fixed-1} span
        assert all(not any(r[fixed:]) for r in h[:fixed])
        g = _gram(h, forms)  # Gram matrix of the reduced basis
        for i in range(n + 1):
            assert d[i] == det([row[:i] for row in g[:i]])
        for i in range(n):
            for j in range(i):
                # lam[i][j] is the leading (j+1)-minor with row j replaced by row i
                assert lam[i][j] == det([g[r][: j + 1] for r in list(range(j)) + [i]])
                assert 2 * abs(lam[i][j]) <= d[j + 1]  # size-reduced
            if i and i != fixed:  # Lovasz condition at 3/4
                assert 4 * d[i + 1] * d[i - 1] >= 3 * d[i] ** 2 - 4 * lam[i][i - 1] ** 2


def test_walk_visits_exactly_the_half_ellipsoid():
    # on the lattice of rows, and on the same lattice rebased on s random
    # picks, where the walk skips exactly the picks' rational span
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = random_matrix(rng, n, n, 3)
        if det(rows) == 0:
            continue
        # Q(v) = |v|^2 + |M v|^2 >= |v|^2, so the brute box below is enough
        extra = random_matrix(rng, n, n, 5)
        forms = [[int(i == j) for j in range(n)] for i in range(n)] + extra
        red = ReducedLattice(rows, _gram(rows, forms))
        picks = random_picks(rng, rows, rng.randint(1, n))[1]
        radius = rng.randint(1, {1: 400, 2: 300, 3: 60, 4: 25}[n])

        def q(v):
            return sum(sum(a * b for a, b in zip(f, v)) ** 2 for f in forms)

        adj, dt, s = adjugate(rows), det(rows), math.isqrt(radius)
        ball = set()
        for v in itertools.product(range(-s, s + 1), repeat=n):
            coef = [sum(v[i] * adj[i][j] for i in range(n)) for j in range(n)]
            if any(v) and q(v) <= radius and all(c % dt == 0 for c in coef):
                ball.add(v)
        # v lies in the picks' rational span exactly when it is orthogonal
        # to the null space of their matrix (sympy, scaled to integers)
        null = [list(w * math.lcm(*(c.q for c in w))) for w in sympy.Matrix(picks).nullspace()]
        outside = {v for v in ball if any(sum(a * b for a, b in zip(v, w)) for w in null)}
        on_picks = rebased(red, picks)
        # the fixed boundary of lll_gram keeps the picks' span in the first rows
        assert sympy.Matrix(picks + [list(b) for b in on_picks.basis[: len(picks)]]).rank() == len(picks)
        for lat, want in ((red, ball), (on_picks, outside)):
            got = []

            def leaf(r, lo, hi, _):
                got.extend(tuple(x * b + c for b, c in zip(lat.basis[0], r)) for x in range(lo, hi + 1))

            lat.walk(lambda: (radius, 1), leaf, lambda: None)
            assert all(q(v) <= radius for v in got)
            assert len(got) == len(set(got)) and 2 * len(got) == len(want)
            assert {v if next(c for c in v if c) > 0 else tuple(-c for c in v) for v in got} <= want
            assert {tuple(-c for c in v) for v in got} | set(got) == want


def test_walk_spends_per_node_and_sees_a_shrinking_radius():
    red = ReducedLattice([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    radius, seen, nodes = [50], [], []

    def leaf(r, lo, hi, _):
        seen.append((r, lo, hi))
        radius[0] = 0  # a leaf that tightens the bound prunes the rest

    red.walk(lambda: (radius[0], 1), leaf, lambda: nodes.append(1))
    assert seen == [((0, 0), 1, 7)] and len(nodes) == 2  # the x_1 = 0 node and its line


def _defined_functions(path):
    tree = ast.parse(path.read_text())
    return [node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_integer_linear_algebra_lives_in_lattice():
    """det, rank and adjugate routines are defined only in lattice.py, which
    stays on Python ints (no Fraction import)."""
    words = ("det", "rank", "adjugate")
    strays = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "lattice.py":
            continue
        names = [n for n in _defined_functions(path) if any(w in n.lower().split("_") for w in words)]
        if names:
            strays[path.name] = names
    assert strays == {}
    lattice = ast.parse((SRC / "lattice.py").read_text())
    imported = set()
    for node in ast.walk(lattice):
        if isinstance(node, ast.ImportFrom):
            imported |= {a.name for a in node.names} | {node.module or ""}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert "Fraction" not in imported and "fractions" not in imported
    for node in ast.walk(lattice):  # no floats either
        assert not (isinstance(node, ast.Constant) and isinstance(node.value, float))
        assert not (isinstance(node, ast.Name) and node.id == "float")


def test_walks_leave_no_cycles():
    # the walk's recursive closure must not outlive it: with the collector
    # paused, repeated minima searches leave nothing for it to collect
    body = build_body(BohrSpec.build(["sqrt:21"], None, 10**5, ["0.1"]))
    lattice = congruence_lattice((1, 3, 7), 101)
    runs = (lambda: successive_minima(body), lambda: euclidean_minima(lattice))
    for run in runs:
        run()  # warm-up: caches on the body
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        left = []
        for run in runs:
            for _ in range(10):
                run()
            left.append(gc.collect())
    finally:
        if enabled:
            gc.enable()
    assert left == [0, 0]


def test_fresh_bodies_leave_no_cycles():
    # the reduced basis cached on a body must not refer back to the body:
    # with the collector paused, minima searches on fresh bodies leave
    # nothing for it to collect
    spec = BohrSpec.build(["sqrt:21"], None, 10**5, ["1/10"])
    successive_minima(build_body(spec))  # warm-up
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            successive_minima(build_body(spec))
        left = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert left == 0
