"""Restricted reciprocal-distance sums and divergence experiments.

T_N sums 1/prod ||n*alpha_i - gamma_i|| over n <= N, T*_N weights each term
by phi(n)/n, and the support set G keeps only n whose distances all clear
n^(-sqrt(eps)).  Membership and dyadic binning are decided exactly (vector
fast path, certified fallback on the borderline); the sums themselves are
compensated floating point with a reported error bound, since ratios at a
few significant figures are the deliverable.
"""

import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
from typing import Optional, Sequence

import numpy as np

from .bohr import BohrSpec, _coord_scans, restricted_bohr
from .counting import TotientTable, totient_average, totient_sieve
from .errors import BudgetExceeded, ValidationError
from .realfield import UNDECIDED, RealSpec, certify
from .scan import CoordScan, blocks

Q = Fraction

_N_CAP = 2 * 10**7
_REL_BAND = 1e-9  # float decisions keep this relative margin from thresholds


def _check_n(N: int):
    if N < 1:
        raise ValidationError("the summation range needs N >= 1")
    if N > _N_CAP:
        raise BudgetExceeded(f"N = {N} exceeds the scan budget {_N_CAP}")


def _mask_range(spec: BohrSpec, mask, N: Optional[int]):
    """(mask, N): N defaults to the mask's range, else spec.N; the mask to all n."""
    N = (mask.N if mask is not None else spec.N) if N is None else int(N)
    _check_n(N)
    if mask is None:
        mask = trivial_mask(N)
    if mask.N < N:
        raise ValidationError(f"mask covers 1..{mask.N}, below N={N}")
    return mask, N


def _phi_ratio(table, N: int) -> np.ndarray:
    """phi(n)/n as float64 for n = 1..N, sieving when no table is given."""
    if table is None:
        table = totient_sieve(N)
    elif table.limit < N:
        raise ValidationError(f"sieve limit {table.limit} below N={N}")
    return table.block(1, N + 1).astype(np.float64) / np.arange(1, N + 1, dtype=np.float64)


# -- the support set G ---------------------------------------------------------


@dataclass
class SupportMask:
    """Membership flags for 1..N: n is kept iff every ||n*alpha_i - gamma_i||
    is at least n^(-sqrt(eps)).  eps None marks the trivial all-n mask."""

    N: int
    eps: Optional[Fraction]
    flags: np.ndarray
    borderline: int = 0

    @property
    def trivial(self) -> bool:
        return self.eps is None

    def contains(self, n: int) -> bool:
        if not 1 <= n <= self.N:
            raise ValidationError(f"{n} outside the mask range 1..{self.N}")
        return bool(self.flags[n - 1])

    @property
    def kept(self) -> int:
        return int(self.flags.sum())

    @property
    def excluded(self) -> int:
        return self.N - self.kept

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "eps": None if self.eps is None else str(self.eps),
            "kept": self.kept,
            "excluded": self.excluded,
            "borderline": self.borderline,
        }


def trivial_mask(N: int) -> SupportMask:
    _check_n(N)
    return SupportMask(N, None, np.ones(N, dtype=bool))


def _on_support_exact(coord: CoordScan, n: int, eps: Fraction) -> bool:
    # ties (exact rational hit on the threshold) stay in
    return coord.dist_cmp_pow(n, n, eps, -1, "support membership undecidable at n={n}") >= 0


def support_mask(spec: BohrSpec, N: Optional[int] = None) -> SupportMask:
    """Exact G membership for 1..N (default spec.N).

    Vector float distances decide everything farther than a relative margin
    from the threshold n^(-sqrt(eps)); the rest go through certified
    fixed-point comparisons, so exact ties (rational alpha) land inside.
    """
    N = spec.N if N is None else int(N)
    _check_n(N)
    eps = spec.epsilon
    tau = math.sqrt(eps.numerator / eps.denominator)
    coords = _coord_scans(spec)
    flags = np.ones(N, dtype=bool)
    flags[0] = False  # the threshold at n = 1 is exactly 1
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


# -- restricted sums ------------------------------------------------------------


@dataclass
class SumResult:
    N: int
    value: float
    err_bound: float
    terms: int
    kind: str  # "T" | "T_star"
    restricted: bool

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "value": self.value,
            "err_bound": self.err_bound,
            "terms": self.terms,
            "kind": self.kind,
            "restricted": self.restricted,
        }


def _nonzero_dist(coord: CoordScan, n: int) -> float:
    """dist_float for an n that carries a term: a true zero is an error."""
    v = coord.dist_float(n)
    if v == 0.0:
        raise ValidationError(
            f"exact zero distance at n={n} inside the summation range;"
            " restrict the range or drop the rational target"
        )
    return v


def _term_array(spec: BohrSpec, mask: SupportMask, N: int):
    """terms[n-1] = prod 1/dist for on-mask n, 0 off-mask; exact zero distances
    on-mask raise.  Also returns the smallest on-mask distance seen (for the
    error bound) and the on-mask term count.  Only on-mask n in the zero band
    are resolved exactly."""
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
        vals = np.where(sel, 1.0 / prod, 0.0)
        terms[start - 1 : start - 1 + len(ns)] = vals
        count += int(sel.sum())
    return terms, min_dist, count


def _err_bound(spec: BohrSpec, value: float, min_dist: float, N: int) -> float:
    # per-term relative error: float folding (few ulp per factor) plus the
    # fixed-point error E(N)*2^-scale against the smallest distance
    coords = _coord_scans(spec)
    fold = max(c.err_int(N) for c in coords) * math.ldexp(1.0, -spec.scale)
    rel = spec.d * (2.0**-50 + (fold / min_dist if min_dist > 0 else 0.0))
    return abs(value) * rel


def t_sum(spec: BohrSpec, mask: Optional[SupportMask] = None, N: Optional[int] = None) -> SumResult:
    """T_N: sum of 1/prod ||n*alpha_i - gamma_i|| over on-mask n <= N."""
    mask, N = _mask_range(spec, mask, N)
    terms, min_dist, count = _term_array(spec, mask, N)
    value = math.fsum(terms.tolist())
    return SumResult(N, value, _err_bound(spec, value, min_dist, N), count, "T", not mask.trivial)


def t_star_sum(
    spec: BohrSpec,
    mask: Optional[SupportMask] = None,
    N: Optional[int] = None,
    table: Optional[TotientTable] = None,
) -> SumResult:
    """T*_N: the T_N terms weighted by phi(n)/n."""
    mask, N = _mask_range(spec, mask, N)
    ratio = _phi_ratio(table, N)
    terms, min_dist, count = _term_array(spec, mask, N)
    value = math.fsum((terms * ratio).tolist())
    return SumResult(N, value, _err_bound(spec, value, min_dist, N), count, "T_star", not mask.trivial)


def sum_series(
    spec: BohrSpec,
    checkpoints: Sequence[int],
    restrict: bool = True,
    table: Optional[TotientTable] = None,
) -> list[dict]:
    """T and T* at each checkpoint, with normalized ratios.

    One scan at the largest checkpoint; per-checkpoint values are exact
    prefix resummations of the same term array.
    """
    cps = sorted(set(int(c) for c in checkpoints))
    if not cps:
        raise ValidationError("no checkpoints")
    N = cps[-1]
    _check_n(N)
    mask = support_mask(spec, N) if restrict else trivial_mask(N)
    ratio = _phi_ratio(table, N)
    terms, min_dist, _ = _term_array(spec, mask, N)
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


def sums_csv(rows) -> str:
    out = StringIO()
    out.write("N,T,T_star,ratio_T,ratio_star,eps,k\n")
    for r in rows:
        eps = "" if r["eps"] is None else f"{r['eps']:.12g}"
        out.write(
            f"{r['N']},{r['T']:.12g},{r['T_star']:.12g},"
            f"{r['ratio_T']:.12g},{r['ratio_star']:.12g},{eps},{r['k']}\n"
        )
    return out.getvalue()


# -- dyadic decomposition --------------------------------------------------------


@dataclass
class DyadicTable:
    """Counts of on-mask n per cell (i_1..i_{k-1}): 2^-(i_j+1) < dist_j <= 2^-i_j."""

    N: int
    cells: dict
    zero_excluded: int
    restricted: bool
    index_cap: Optional[int]  # on a G-mask, i_j <= floor(sqrt(eps) log2 N)

    @property
    def total(self) -> int:
        return sum(self.cells.values())

    def low_sum(self) -> int:
        return sum(c * 2 ** sum(cell) for cell, c in self.cells.items())

    def high_sum(self) -> int:
        return sum(c * 2 ** (sum(cell) + len(cell)) for cell, c in self.cells.items())

    def max_index(self) -> tuple:
        if not self.cells:
            return ()
        d = len(next(iter(self.cells)))
        return tuple(max(cell[j] for cell in self.cells) for j in range(d))

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "cells": {",".join(map(str, k)): v for k, v in sorted(self.cells.items())},
            "zero_excluded": self.zero_excluded,
            "restricted": self.restricted,
            "index_cap": self.index_cap,
            "low_sum": self.low_sum(),
            "high_sum": self.high_sum(),
            "max_index": list(self.max_index()),
        }


def _cell_of_fraction(x: Fraction) -> int:
    """i with 2^-(i+1) < x <= 2^-i for exact rational x in (0, 1]."""
    num, den = x.numerator, x.denominator
    i = max((den // num).bit_length() - 1, 0)
    while num << (i + 1) <= den:
        i += 1
    while num << i > den:
        i -= 1
    return i


def _cell_exact(coord: CoordScan, n: int) -> Optional[int]:
    """Certified cell index for one coordinate; None marks a true zero."""

    def step(extra):
        d = coord.dist_fixed(n, extra)
        ex = d.exact()
        if ex is not None:
            return None if ex == 0 else _cell_of_fraction(ex)
        lo, hi = d.bounds()
        if lo <= 0:
            return UNDECIDED
        ilo, ihi = _cell_of_fraction(hi), _cell_of_fraction(lo)
        return ilo if ilo == ihi else UNDECIDED

    return certify(step, "dyadic cell undecidable at n={n}", n=n)


def dyadic_table(spec: BohrSpec, mask: Optional[SupportMask] = None, N: Optional[int] = None) -> DyadicTable:
    """Exact dyadic cell counts; boundary hits (dist = 2^-i) bin upward.

    n with an exactly zero distance are excluded and counted separately
    (they carry no reciprocal term).
    """
    mask, N = _mask_range(spec, mask, N)
    coords = _coord_scans(spec)
    d_coords = len(coords)
    cells: dict = {}
    zero_excluded = 0
    for ns in blocks(1, N):
        start = int(ns[0])
        sel = mask.flags[start - 1 : start - 1 + len(ns)].copy()
        if not sel.any():
            continue
        idxs = np.zeros((d_coords, len(ns)), dtype=np.int64)
        for ci, coord in enumerate(coords):
            dv = coord.dist_floats(ns)
            m, e = np.frexp(dv)
            fuzzy = (np.abs(m - 0.5) <= _REL_BAND) | (m >= 1.0 - _REL_BAND) | (dv <= coord.zero_band(N))
            idx = (-e).astype(np.int64)  # boundary-adjacent entries fixed below
            for j in np.nonzero(fuzzy & sel)[0]:
                cell = _cell_exact(coord, int(ns[j]))
                if cell is None:
                    sel[j] = False
                    zero_excluded += 1
                else:
                    idx[j] = cell
            idxs[ci] = idx
        if sel.any():
            keys, counts = np.unique(idxs[:, sel], axis=1, return_counts=True)
            for cell, c in zip(map(tuple, keys.T.tolist()), counts.tolist()):
                cells[cell] = cells.get(cell, 0) + c
    cap = None
    if not mask.trivial:
        eps = mask.eps
        cap = math.floor(math.sqrt(eps.numerator / eps.denominator) * math.log2(N))
    return DyadicTable(N, cells, zero_excluded, not mask.trivial, cap)


# -- approximating functions -------------------------------------------------------


@dataclass
class ApproxFunction:
    """psi family: tag in {log, loglog, power, table} with parameters.

    log:    c / (n (ln n)^k)           -- the divergent built-in
    loglog: c / (n (ln n)^k (ln ln n)^2) -- the convergent built-in
    power:  c * n^-a
    table:  explicit values for n = 1..len, must be nonincreasing

    divergent reports whether sum psi(n) (ln n)^(k-1) diverges.
    """

    tag: str
    c: float = 1.0
    k: int = 2
    a: float = 1.0
    table: Optional[tuple] = None
    divergent: Optional[bool] = None

    def __post_init__(self):
        if self.tag not in ("log", "loglog", "power", "table"):
            raise ValidationError(f"unknown psi family {self.tag!r}")
        if self.c <= 0 or (self.tag == "power" and self.a <= 0):
            raise ValidationError("psi parameters must be positive")
        if self.tag in ("log", "loglog") and self.k < 1:
            raise ValidationError("psi parameters must be positive")
        if self.tag == "table":
            if not self.table or any(v < 0 for v in self.table):
                raise ValidationError("psi table needs nonnegative values")
            for a, b in zip(self.table, self.table[1:]):
                if b > a:
                    raise ValidationError("psi table is not nonincreasing")
            self.divergent = None
        elif self.tag == "log":
            self.divergent = True  # sum 1/(n ln n) diverges
        elif self.tag == "loglog":
            self.divergent = False
        else:
            self.divergent = self.a <= 1

    def values(self, ns: np.ndarray) -> np.ndarray:
        ns = ns.astype(np.float64)
        if self.tag == "power":
            return self.c * ns**-self.a
        if self.tag == "table":
            if ns.max() > len(self.table):
                raise ValidationError("psi table shorter than the requested range")
            return np.asarray(self.table, dtype=np.float64)[ns.astype(np.int64) - 1]
        ln = np.log(np.maximum(ns, 2.0))  # head values pinned to n = 2 / n = 3
        if self.tag == "log":
            return self.c / (ns * ln**self.k)
        ln = np.log(np.maximum(ns, 3.0))
        lnln = np.log(ln)
        return self.c / (ns * ln**self.k * lnln**2)

    def __call__(self, n: int) -> float:
        return float(self.values(np.array([n], dtype=np.int64))[0])

    def certify_decreasing(self, n_max: int = 10**6) -> bool:
        """psi(n) >= psi(n+1) checked from n = 3 on a dense-then-geometric grid
        (built-ins are products of increasing positive factors; the grid guards
        the implementation, exhaustively for tables)."""
        if self.tag == "table":
            return True  # enforced at construction
        grid = list(range(3, min(n_max, 4096))) + [
            int(3 * 1.5**j) for j in range(1, 64) if 3 * 1.5**j < n_max
        ]
        for n in grid:
            if self(n) < self(n + 1):
                return False
        return True


def psi_family(tag: str, **params) -> ApproxFunction:
    return ApproxFunction(tag, **params)


# -- the modified function Psi -------------------------------------------------------


@dataclass
class ModifiedPsi:
    """Psi(n) = psi(n) / prod ||n*alpha_i - gamma_i|| on G, 0 elsewhere."""

    psi: ApproxFunction
    spec: BohrSpec
    mask: SupportMask

    def values(self, N: Optional[int] = None) -> np.ndarray:
        N = self.mask.N if N is None else int(N)
        if N > self.mask.N:
            raise ValidationError(f"mask covers 1..{self.mask.N}, below N={N}")
        terms, _, _ = _term_array(self.spec, self.mask, N)
        ns = np.arange(1, N + 1, dtype=np.int64)
        return self.psi.values(ns) * terms

    def eval(self, n: int) -> dict:
        on = self.mask.contains(n)
        prod = 1.0
        for coord in _coord_scans(self.spec):
            d = float(coord.dist_floats(np.array([n], dtype=np.uint64))[0])
            if d <= coord.zero_band(self.mask.N):
                # off the support a true zero is reported as a zero product
                d = _nonzero_dist(coord, n) if on else coord.dist_float(n)
            prod *= d
        psi_val = self.psi(n)
        return {
            "n": n,
            "on_support": on,
            "psi": psi_val,
            "dist_product": prod,
            "value": psi_val / prod if on else 0.0,
        }


def psi_modified(spec: BohrSpec, psi: ApproxFunction, mask: Optional[SupportMask] = None) -> ModifiedPsi:
    if mask is None:
        mask = support_mask(spec)
    return ModifiedPsi(psi, spec, mask)


# -- divergence hypothesis report ------------------------------------------------------


def ds_hypothesis_check(
    spec: BohrSpec,
    psi: ApproxFunction,
    checkpoints: Sequence[int],
    table: Optional[TotientTable] = None,
) -> dict:
    """L(N) = sum (phi(n)/n) Psi(n), U(N) = sum Psi(n), R(N) = sum psi(n) (ln n)^(k-1).

    The divergence argument needs L/R bounded below and U/R bounded above;
    both ratios are reported per checkpoint, with the exact L <= U sanity.
    """
    cps = sorted(set(int(c) for c in checkpoints))
    if not cps:
        raise ValidationError("no checkpoints")
    N = cps[-1]
    _check_n(N)
    mask = support_mask(spec, N)
    ratio = _phi_ratio(table, N)
    mp = ModifiedPsi(psi, spec, mask)
    psi_vals = mp.values(N)
    ns = np.arange(1, N + 1, dtype=np.float64)
    lead = psi.values(np.arange(1, N + 1, dtype=np.int64)) * np.log(np.maximum(ns, 1.0)) ** (
        spec.k - 1
    )
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
                # exact: with psi >= 0 and phi(n) <= n every term psi*(phi(n)/n)
                # <= psi holds in IEEE arithmetic, and fsum is correctly rounded,
                # so the sum is monotone in its terms
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


# -- eta splitting of the restricted Bohr set --------------------------------------------


def eta_split_check(spec: BohrSpec, eta: Fraction = Q(1, 16), table: Optional[TotientTable] = None) -> dict:
    """Exact set algebra behind the narrow/wide window split.

    The eta-narrowed restricted set sits inside the wide one, so the totient
    sum over the difference equals the difference of the sums exactly, and in
    particular dominates half of it whenever the difference is nonnegative.
    """
    if not 0 < eta < 1:
        raise ValidationError("eta must lie in (0, 1)")
    narrowed = spec.scaled(spec.N, eta.numerator, eta.denominator)
    small_spec = BohrSpec(spec.alpha, spec.gamma, spec.N, narrowed.delta, spec.epsilon)
    big = restricted_bohr(spec).members
    small = restricted_bohr(small_spec).members
    included = bool(np.isin(small, big).all())
    diff = np.setdiff1d(big, small)
    if table is None and len(big):
        table = totient_sieve(int(big.max()))
    s_big = totient_average([int(n) for n in big], table) if len(big) else Q(0)
    s_small = totient_average([int(n) for n in small], table) if len(small) else Q(0)
    s_diff = totient_average([int(n) for n in diff], table) if len(diff) else Q(0)
    identity = s_diff == s_big - s_small
    return {
        "eta": str(eta),
        "big_cardinality": int(len(big)),
        "small_cardinality": int(len(small)),
        "diff_cardinality": int(len(diff)),
        "included": included,
        "sum_big": float(s_big),
        "sum_small": float(s_small),
        "sum_diff": float(s_diff),
        "identity_exact": identity,
        "half_bound": s_diff >= (s_big - s_small) / 2,
    }


# -- seeded fibre experiments --------------------------------------------------------


@dataclass
class GallagherResult:
    spec: dict
    checkpoints: tuple
    rows: list
    hit_fraction: float
    median_hits: dict

    def to_dict(self) -> dict:
        return {
            "params": self.spec,
            "checkpoints": list(self.checkpoints),
            "hit_fraction": self.hit_fraction,
            "median_hits": {str(k): v for k, v in self.median_hits.items()},
            "rows": self.rows,
        }


def gallagher_experiment(
    spec: BohrSpec,
    psi: ApproxFunction,
    samples: int,
    N: int,
    seed: int,
    checkpoints: Optional[Sequence[int]] = None,
) -> GallagherResult:
    """Sample the last coordinate uniformly and count solutions of
    prod ||n*alpha_i - gamma_i|| * ||n*alpha_k|| < psi(n) for 2 <= n <= N.

    Each alpha_k draws 128 uniform bits from random.Random(seed) (sequential
    getrandbits calls), giving an exact dyadic rational evaluated at full
    scale.  n = 1 is excluded: the logarithmic normalization vanishes there.
    Also tracks the first witness and the running minimum of
    n (ln n)^k times the same distance product.
    """
    if samples < 1:
        raise ValidationError("samples must be at least 1")
    _check_n(N)
    if checkpoints is None:
        checkpoints = [c for c in (10**4, 10**5, 10**6) if c <= N]
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
    return GallagherResult(
        spec={
            "k": k,
            "N": N,
            "samples": samples,
            "seed": seed,
            "psi": psi.tag,
            "generator": "random.Random(seed).getrandbits(128), sequential",
            "eps": str(spec.epsilon),
        },
        checkpoints=cps,
        rows=rows,
        hit_fraction=hits_any / samples,
        median_hits={cp: statistics.median(counts_at[cp]) for cp in cps},
    )


def experiment_csv(result: GallagherResult) -> str:
    out = StringIO()
    out.write("sample_id,alpha_k,hits,first_witness,runmin\n")
    final = result.checkpoints[-1]
    for r in result.rows:
        fw = "" if r["first_witness"] is None else r["first_witness"]
        out.write(
            f"{r['sample_id']},{r['alpha_k']:.12g},{r['hits'][final]},"
            f"{fw},{r['runmin'][final]:.12g}\n"
        )
    return out.getvalue()
