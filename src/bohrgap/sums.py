"""Restricted reciprocal-distance sums and divergence experiments.

T_N sums 1/prod ||n*alpha_i - gamma_i|| over n <= N, T*_N weights each term
by phi(n)/n, and the support set G keeps only n whose distances all clear
n^(-sqrt(eps)).  Membership and dyadic binning are decided exactly (vector
fast path, certified fallback on the borderline); the sums themselves are
exact sums rounded once, with a reported error bound on the float terms,
since ratios at a few significant figures are the deliverable.  Every range
1..N is one pass over the blocks of ``scan.blocks``: each coordinate's
distances are computed once per block and serve both the support rule and
the terms, so nothing of length N is kept but the N-arrays asked for.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
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


def _checkpoints(checkpoints: Sequence[int]) -> list[int]:
    cps = sorted(set(int(c) for c in checkpoints))
    if not cps:
        raise ValidationError("no checkpoints")
    if cps[0] < 1:
        raise ValidationError("checkpoints must be positive")
    return cps


def _pieces(ns: np.ndarray, cps: Sequence[int]):
    """Split a block at the sorted checkpoints inside it: (a, b, cp) index
    ranges, each ending at checkpoint cp, then one ending at the block's end
    with cp None."""
    start, a = int(ns[0]), 0
    for cp in cps:
        if start <= cp < start + len(ns):
            yield a, cp + 1 - start, cp
            a = cp + 1 - start
    if a < len(ns):
        yield a, len(ns), None


def _phi_over_n(table: TotientTable, ns: np.ndarray) -> np.ndarray:
    """phi(n)/n as float64 over one block."""
    return table.block(int(ns[0]), int(ns[-1]) + 1).astype(np.float64) / ns.astype(np.float64)


class ExactSum:
    """Running exact sum of float64 blocks, rounded once by value().

    frexp splits each entry into a 53-bit integer mantissa and an exponent;
    bincount adds the mantissas per exponent in two halves of at most 27
    bits, so every float64 partial sum is an integer of at most 53 bits and
    exact for blocks of up to 2^26 entries.  The total is one Python int in units of 2^-1126
    (the smallest subnormal is 2^52 of them), and value() rounds it by int
    true division: the correctly rounded exact sum, as math.fsum returns it.
    Non-finite entries give math.fsum's result as well.
    """

    _SCALE = 1 << 1126  # the total counts units of 2^-1126
    _BIAS = 1073  # -frexp exponent of the smallest subnormal

    def __init__(self):
        self._total = 0
        self._special = 0.0  # fsum of the non-finite entries: 0.0, +-inf or nan

    def add(self, x: np.ndarray) -> None:
        finite = np.isfinite(x)
        if not finite.all():
            self._special = math.fsum([self._special, *x[~finite]])
            x = x[finite]
        m, e = np.frexp(x)
        hi = np.floor(m * 2.0**27)  # the mantissa m*2^53 is hi*2^26 + lo, 0 <= lo < 2^26
        lo = m * 2.0**53 - hi * 2.0**26
        e += self._BIAS
        hi, lo = np.bincount(e, weights=hi), np.bincount(e, weights=lo)
        used = np.flatnonzero((hi != 0) | (lo != 0))
        for j, h, l in zip(used.tolist(), hi[used].tolist(), lo[used].tolist()):
            self._total += ((int(h) << 26) + int(l)) << j

    def value(self) -> float:
        return self._special if self._special else self._total / self._SCALE


# -- the one distance pass ---------------------------------------------------------


@dataclass
class _Block:
    """One block of the distance pass over 1..N."""

    coords: list
    ns: np.ndarray
    span: slice  # the block's place in an array indexed by n - 1
    dists: list  # float distances per coordinate
    sel: np.ndarray  # on-support flags
    borderline: int

    def terms(self, n_max: int):
        """(prod 1/dist on sel and 0 elsewhere, the smallest distance on sel).

        A distance on sel in the zero band of n_max is replaced by its
        certified value, and a true zero there raises; dists are overwritten.
        """
        prod = np.ones(len(self.ns), dtype=np.float64)
        min_dist = math.inf
        on = self.sel.any()
        for coord, d in zip(self.coords, self.dists):
            for idx in np.flatnonzero((d <= coord.zero_band(n_max)) & self.sel):
                d[idx] = _nonzero_dist(coord, int(self.ns[idx]))
            if on:
                min_dist = min(min_dist, float(d[self.sel].min()))
            prod *= d
        terms = np.zeros(len(self.ns), dtype=np.float64)
        terms[self.sel] = 1.0 / prod[self.sel]
        return terms, min_dist


def _on_support_exact(coord: CoordScan, n: int, eps: Fraction) -> bool:
    # ties (exact rational hit on the threshold) stay in
    return coord.dist_cmp_pow(n, n, eps, -1, "support membership undecidable at n={n}") >= 0


def _on_support(coords, ns: np.ndarray, dists, eps: Fraction):
    """G membership of one block from its float distances: (flags, borderline).

    Floats decide everything farther than a relative margin from the
    threshold n^(-sqrt(eps)); the rest go through certified comparisons, so
    exact ties (rational alpha) land inside.  At n = 1 the threshold is 1,
    above every distance.
    """
    thr = np.power(ns.astype(np.float64), -math.sqrt(eps.numerator / eps.denominator))
    band = _REL_BAND * thr
    ok = np.ones(len(ns), dtype=bool)
    borderline = 0
    for coord, d in zip(coords, dists):
        below = d < thr - band
        ok &= ~below
        pending = ~below & (d < thr + band) & ok
        for idx in np.flatnonzero(pending):
            borderline += 1
            ok[idx] = _on_support_exact(coord, int(ns[idx]), eps)
    return ok, borderline


def _pass(spec: BohrSpec, N: int, mask: Optional["SupportMask"] = None):
    """One distance pass over 1..N, one _Block per scan block.

    sel reads mask's flags or, with no mask, decides G membership from the
    same distances that the terms use.
    """
    coords = _coord_scans(spec)
    for ns in blocks(1, N):
        span = slice(int(ns[0]) - 1, int(ns[-1]))
        dists = [c.dist_floats(ns) for c in coords]
        if mask is None:
            sel, borderline = _on_support(coords, ns, dists, spec.epsilon)
        else:
            sel, borderline = mask.flags[span], 0
        yield _Block(coords, ns, span, dists, sel, borderline)


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


def support_mask(spec: BohrSpec, N: Optional[int] = None) -> SupportMask:
    """Exact G membership for 1..N (default spec.N).

    Float distances decide everything outside a relative band around the
    threshold n^(-sqrt(eps)); certified comparisons settle the band, so
    exact ties (rational alpha) land inside.
    """
    N = spec.N if N is None else int(N)
    _check_n(N)
    flags = np.empty(N, dtype=bool)
    borderline = 0
    for blk in _pass(spec, N):
        flags[blk.span] = blk.sel
        borderline += blk.borderline
    return SupportMask(N, spec.epsilon, flags, borderline)


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


def _err_bound(spec: BohrSpec, value: float, min_dist: float, N: int) -> float:
    # per-term relative error: float folding (few ulp per factor) plus the
    # fixed-point error E(N)*2^-scale against the smallest distance
    coords = _coord_scans(spec)
    fold = max(c.err_int(N) for c in coords) * math.ldexp(1.0, -spec.scale)
    rel = spec.d * (2.0**-50 + (fold / min_dist if min_dist > 0 else 0.0))
    return abs(value) * rel


def _restricted_sum(spec: BohrSpec, mask: Optional[SupportMask], N: Optional[int], kind: str) -> SumResult:
    mask, N = _mask_range(spec, mask, N)
    table = totient_sieve(N) if kind == "T_star" else None
    acc, min_dist, count = ExactSum(), math.inf, 0
    for blk in _pass(spec, N, mask):
        terms, md = blk.terms(N)
        acc.add(terms if table is None else terms * _phi_over_n(table, blk.ns))
        min_dist = min(min_dist, md)
        count += int(blk.sel.sum())
    value = acc.value()
    return SumResult(N, value, _err_bound(spec, value, min_dist, N), count, kind, not mask.trivial)


def t_sum(spec: BohrSpec, mask: Optional[SupportMask] = None, N: Optional[int] = None) -> SumResult:
    """T_N: sum of 1/prod ||n*alpha_i - gamma_i|| over on-mask n <= N."""
    return _restricted_sum(spec, mask, N, "T")


def t_star_sum(spec: BohrSpec, mask: Optional[SupportMask] = None, N: Optional[int] = None) -> SumResult:
    """T*_N: the T_N terms weighted by phi(n)/n."""
    return _restricted_sum(spec, mask, N, "T_star")


def sum_series(spec: BohrSpec, checkpoints: Sequence[int], restrict: bool = True) -> list[dict]:
    """T and T* at each checkpoint, with normalized ratios.

    One pass up to the largest checkpoint; each checkpoint reads the running
    exact sums.  err_bound uses the smallest distance over the whole pass.
    """
    cps = _checkpoints(checkpoints)
    N = cps[-1]
    _check_n(N)
    table = totient_sieve(N)
    t, ts = ExactSum(), ExactSum()
    min_dist, count, at = math.inf, 0, []
    for blk in _pass(spec, N, None if restrict else trivial_mask(N)):
        terms, md = blk.terms(N)
        star = terms * _phi_over_n(table, blk.ns)
        min_dist = min(min_dist, md)
        for a, b, cp in _pieces(blk.ns, cps):
            t.add(terms[a:b])
            ts.add(star[a:b])
            count += int(blk.sel[a:b].sum())
            if cp is not None:
                at.append((cp, t.value(), ts.value(), count))
    k = spec.k
    rows = []
    for cp, tv, tsv, terms_cp in at:
        norm = cp * math.log(cp) ** (k - 1) if cp > 1 else 1.0
        rows.append(
            {
                "N": cp,
                "T": tv,
                "T_star": tsv,
                "ratio_T": tv / norm,
                "ratio_star": tsv / tv if tv else 0.0,
                "terms": terms_cp,
                "err_bound": _err_bound(spec, tv, min_dist, cp),
                "eps": float(spec.epsilon) if restrict else None,
                "k": k,
            }
        )
    return rows


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
        lo, hi = coord.bracket(n, extra)
        if hi == 0:
            return None
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
    cells: dict = {}
    zero_excluded = 0
    for blk in _pass(spec, N, mask):
        sel, ns = blk.sel.copy(), blk.ns
        if not sel.any():
            continue
        idxs = np.zeros((len(blk.coords), len(ns)), dtype=np.int64)
        for ci, (coord, dv) in enumerate(zip(blk.coords, blk.dists)):
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
        out = np.empty(N, dtype=np.float64)
        for blk in _pass(self.spec, N, self.mask):
            terms, _ = blk.terms(N)
            out[blk.span] = self.psi.values(blk.ns.astype(np.int64)) * terms
        return out

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


def ds_hypothesis_check(spec: BohrSpec, psi: ApproxFunction, checkpoints: Sequence[int]) -> dict:
    """L(N) = sum (phi(n)/n) Psi(n), U(N) = sum Psi(n), R(N) = sum psi(n) (ln n)^(k-1).

    The divergence argument needs L/R bounded below and U/R bounded above;
    both ratios are reported per checkpoint, with the exact L <= U sanity.
    """
    cps = _checkpoints(checkpoints)
    N = cps[-1]
    _check_n(N)
    table = totient_sieve(N)
    L, U, R = ExactSum(), ExactSum(), ExactSum()
    kept, rows = 0, []
    for blk in _pass(spec, N):
        terms, _ = blk.terms(N)
        psi_n = psi.values(blk.ns.astype(np.int64))  # once for Psi and for R
        psi_vals = psi_n * terms
        lead = psi_n * np.log(np.maximum(blk.ns.astype(np.float64), 1.0)) ** (spec.k - 1)
        weighted = psi_vals * _phi_over_n(table, blk.ns)
        kept += int(blk.sel.sum())
        for a, b, cp in _pieces(blk.ns, cps):
            L.add(weighted[a:b])
            U.add(psi_vals[a:b])
            R.add(lead[a:b])
            if cp is None:
                continue
            l, u, r = L.value(), U.value(), R.value()
            rows.append(
                {
                    "N": cp,
                    "L": l,
                    "U": u,
                    "R": r,
                    "L_over_R": l / r if r else math.inf,
                    "U_over_R": u / r if r else math.inf,
                    # exact: with psi >= 0 and phi(n) <= n every term psi*(phi(n)/n)
                    # <= psi holds in IEEE arithmetic, and exact sums rounded once
                    # are monotone in their terms
                    "L_le_U": l <= u,
                }
            )
    return {
        "psi": psi.tag,
        "divergent": psi.divergent,
        "eps": str(spec.epsilon),
        "k": spec.k,
        "kept": kept,
        "rows": rows,
        "all_L_le_U": all(r["L_le_U"] for r in rows),
    }


# -- eta splitting of the restricted Bohr set --------------------------------------------


def eta_split_check(spec: BohrSpec, eta: Fraction = Q(1, 16)) -> dict:
    """Exact set algebra behind the narrow/wide window split.

    The eta-narrowed restricted set sits inside the wide one, so the totient
    sum over the difference equals the difference of the sums exactly, and in
    particular dominates half of it whenever the difference is nonnegative.
    """
    if not 0 < eta < 1:
        raise ValidationError("eta must lie in (0, 1)")
    small_spec = spec.scaled(eta.numerator, eta.denominator)
    big = restricted_bohr(spec).members
    small = restricted_bohr(small_spec).members
    included = bool(np.isin(small, big).all())
    diff = np.setdiff1d(big, small)
    table = totient_sieve(int(big.max())) if len(big) else None  # one sieve for all three sums
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
    n (ln n)^k times the same distance product.  One pass over 2..N: the
    fixed product, psi(n) and n (ln n)^k are computed once per block and
    shared by every sample, each with its own scanner built up front.
    """
    import random
    import statistics

    if samples < 1:
        raise ValidationError("samples must be at least 1")
    _check_n(N)
    if checkpoints is None:
        checkpoints = [c for c in (10**4, 10**5, 10**6) if c <= N]
    cps = tuple(_checkpoints(list(checkpoints) + [N]))
    if cps[-1] != N:
        raise ValidationError(f"checkpoint {cps[-1]} lies above N={N}")
    k = spec.k
    rng = random.Random(seed)
    draws = [rng.getrandbits(128) for _ in range(samples)]
    scans = [CoordScan(RealSpec("rat", Q(bits, 1 << 128)).realize(spec.scale)) for bits in draws]
    rows = [
        {
            "sample_id": sid,
            "alpha_k_bits": f"{bits:032x}",
            "alpha_k": bits / 2.0**128,
            "hits": dict.fromkeys(cps, 0),  # checkpoints below 2 keep these
            "first_witness": None,
            "runmin": dict.fromkeys(cps, math.inf),
        }
        for sid, bits in enumerate(draws)
    ]
    hits, runmin = [0] * samples, [math.inf] * samples
    coords = _coord_scans(spec)
    for ns in blocks(2, N):
        fixed = np.ones(len(ns), dtype=np.float64)
        for coord in coords:
            fixed *= coord.dist_floats(ns)
        psi_vals = psi.values(ns.astype(np.int64))
        x = ns.astype(np.float64)
        lnk = x * np.log(x) ** k
        pieces = list(_pieces(ns, cps))
        for sid, (row, scan) in enumerate(zip(rows, scans)):
            prod = fixed * scan.dist_floats(ns)
            hit = prod < psi_vals
            q = lnk * prod
            if row["first_witness"] is None and hit.any():
                row["first_witness"] = int(ns[hit.argmax()])
            for a, b, cp in pieces:
                hits[sid] += int(np.count_nonzero(hit[a:b]))
                runmin[sid] = min(runmin[sid], float(q[a:b].min()))
                if cp is not None:
                    row["hits"][cp], row["runmin"][cp] = hits[sid], runmin[sid]
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
        hit_fraction=sum(r["first_witness"] is not None for r in rows) / samples,
        median_hits={cp: statistics.median(r["hits"][cp] for r in rows) for cp in cps},
    )
