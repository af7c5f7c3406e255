"""Integer lattice layer: Bareiss routines against sympy, and a guard that
keeps determinant, rank and adjugate code in lattice.py."""

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
from bohrgap.lattice import ReducedLattice, adjugate, det, echelon, extendable, independent, lll_gram, rank

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


def test_rank_matches_sympy_on_random_and_dependent_rows():
    rng = random.Random(11)
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = with_dependent_rows(rng, rows, cols) if rng.random() < 0.6 else random_matrix(rng, rows, cols, 3)
        assert rank(m) == sympy.Matrix(m).rank(), m


def test_rank_edge_cases():
    assert rank([]) == 0
    assert rank([[0, 0, 0]]) == 0
    assert rank([[0, 0], [0, 5]]) == 1
    assert rank([[2, 4], [1, 2]]) == 1
    assert rank([[0, 1, 0], [0, 2, 0], [0, 0, 3]]) == 2  # zero pivot column skipped
    assert rank([[10**40, 1], [10**40 + 1, 1]]) == 2


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


def test_independent_agrees_with_rank():
    rng = random.Random(13)
    for _ in range(300):
        cols = rng.randint(1, 6)
        base = []
        for _ in range(rng.randint(0, cols)):
            row = [rng.randint(-4, 4) for _ in range(cols)]
            if rank(base + [row]) == len(base) + 1:
                base.append(row)
        if base and rng.random() < 0.5:  # a vector inside the span
            coef = [rng.randint(-3, 3) for _ in base]
            vec = [sum(c * r[j] for c, r in zip(coef, base)) for j in range(cols)]
        else:
            vec = [rng.randint(-4, 4) for _ in range(cols)]
        assert independent(echelon(base), vec) == (rank(base + [vec]) == len(base) + 1)


def test_extendable_smith_criterion():
    assert extendable([[2, 1]], 2) is True
    assert extendable([[2, 4]], 2) is False
    assert extendable([[1, 0, 0], [0, 2, 0]], 3) is False
    assert extendable([[1, 0, 0], [0, 2, 1]], 3) is True


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
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        h, d, lam = lll_gram(_gram(eye, forms))
        assert abs(det(h)) == 1
        g = _gram(h, forms)  # Gram matrix of the reduced basis
        for i in range(n + 1):
            assert d[i] == det([row[:i] for row in g[:i]])
        for i in range(n):
            for j in range(i):
                # lam[i][j] is the leading (j+1)-minor with row j replaced by row i
                assert lam[i][j] == det([g[r][: j + 1] for r in list(range(j)) + [i]])
                assert 2 * abs(lam[i][j]) <= d[j + 1]  # size-reduced
            if i:  # Lovasz condition at 3/4
                assert 4 * d[i + 1] * d[i - 1] >= 3 * d[i] ** 2 - 4 * lam[i][i - 1] ** 2


def test_walk_visits_exactly_the_half_ellipsoid():
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
        radius = rng.randint(1, {1: 400, 2: 300, 3: 60, 4: 25}[n])

        def q(v):
            return sum(sum(a * b for a, b in zip(f, v)) ** 2 for f in forms)

        got = []

        def leaf(r, lo, hi):
            got.extend(tuple(x * b + c for b, c in zip(red.basis[0], r)) for x in range(lo, hi + 1))

        red.walk(lambda: (radius, 1), leaf, lambda: None)
        assert all(q(v) <= radius for v in got)
        adj, dt, s = adjugate(rows), det(rows), math.isqrt(radius)
        want = set()
        for v in itertools.product(range(-s, s + 1), repeat=n):
            coef = [sum(v[i] * adj[i][j] for i in range(n)) for j in range(n)]
            if any(v) and q(v) <= radius and all(c % dt == 0 for c in coef):
                want.add(v)
        assert len(got) == len(set(got)) and 2 * len(got) == len(want)
        assert {v if next(c for c in v if c) > 0 else tuple(-c for c in v) for v in got} <= want
        assert {tuple(-c for c in v) for v in got} | set(got) == want


def test_walk_spends_per_node_and_sees_a_shrinking_radius():
    red = ReducedLattice([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    radius, seen, nodes = [50], [], []

    def leaf(r, lo, hi):
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
