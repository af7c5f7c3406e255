"""Integer lattice layer: Bareiss routines against sympy, and a guard that
keeps determinant, rank and adjugate code in lattice.py."""

import ast
import random
from pathlib import Path

import sympy

from bohrgap.lattice import adjugate, det, echelon, extendable, independent, rank

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
