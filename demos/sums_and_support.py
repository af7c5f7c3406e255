#!/usr/bin/env python3
"""
Restricted reciprocal sums and the dyadic sandwich
==================================================
The support set G keeps n only when every coordinate distance clears
n^(-sqrt(eps)). Off the rational degeneracies this removes a thin set, and
the restricted sums T_N and T*_N grow like N log^2 N for a pair of
quadratic irrationals. The sums are exact sums rounded once: the float
terms are added exactly, and the total is rounded to a float at the end.
The dyadic table brackets T_N exactly from both sides, whatever floating
error the terms themselves carry.
"""

from fractions import Fraction as Q

from bohrgap.bohr import BohrSpec
from bohrgap.sums import (
    ds_hypothesis_check,
    dyadic_table,
    psi_family,
    sum_series,
    support_mask,
    t_sum,
)

spec = BohrSpec.build(["sqrt:2", "sqrt:3"], None, 10**6, ["1", "1"], Q(1, 20))

# ═════════════════════════════════════════════════════════════════
# Growth of T_N and T*_N along checkpoints
# ═════════════════════════════════════════════════════════════════

print("N        kept      T(N)            T*(N)           T/(N log^2 N)  T*/T")
for row in sum_series(spec, [10**4, 10**5, 10**6]):
    print(f"{row['N']:<8d} {row['terms']:<9d} {row['T']:<15.6g} "
          f"{row['T_star']:<15.6g} {row['ratio_T']:<14.5f} {row['ratio_star']:.5f}")

# ═════════════════════════════════════════════════════════════════
# The dyadic sandwich at one checkpoint
# ═════════════════════════════════════════════════════════════════

N = 10**4
sN = BohrSpec.build(["sqrt:2", "sqrt:3"], None, N, ["1", "1"], Q(1, 20))
mask = support_mask(sN)
print(f"\nsupport mask at N={N}: kept {mask.kept}, excluded {mask.excluded}, "
      f"borderline resolved exactly: {mask.borderline}")

dt = dyadic_table(sN, mask)
print(f"dyadic cells (index i means distance in (2^-(i+1), 2^-i]):")
for idx in sorted(dt.cells):
    print(f"  cell {idx}: {dt.cells[idx]} integers")
print(f"index cap floor(sqrt(eps) log2 N) = {dt.index_cap}; "
      f"largest occupied index {dt.max_index()}")

t = t_sum(sN, mask)
print(f"sandwich: {dt.low_sum()} <= T = {t.value:.6f} <= {dt.high_sum()}  "
      f"({dt.low_sum() <= t.value <= dt.high_sum()})")

# ═════════════════════════════════════════════════════════════════
# Divergence hypotheses for the tamed approximation function
# ═════════════════════════════════════════════════════════════════

psi = psi_family("log", c=1.0, k=3)
rep = ds_hypothesis_check(spec, psi, [10**4, 10**5, 10**6])
print(f"\npsi(n) = 1/(n log^3 n), divergent: {rep['divergent']}")
print("N        L(N)        U(N)        R(N)      L/R       U/R")
for row in rep["rows"]:
    print(f"{row['N']:<8d} {row['L']:<11.6f} {row['U']:<11.6f} "
          f"{row['R']:<9.4f} {row['L_over_R']:<9.6f} {row['U_over_R']:.6f}")
print(f"L <= U everywhere: {rep['all_L_le_U']}")
