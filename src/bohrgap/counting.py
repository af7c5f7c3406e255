"""Euler totient tables, divisibility densities on progressions, and exact
lattice point counts with discrepancy certificates.

The counting theorem compares |box cap Lambda| against vol(box)/det(Lambda)
with an error controlled by projection volumes over Euclidean successive
minima.  Everything here is exact: counts by enumeration, determinants and
densities as integers or Fractions, minima as integer squared norms.
"""

from __future__ import annotations

import decimal
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .errors import BudgetExceeded, ValidationError

if TYPE_CHECKING:  # numpy loads where a table is sieved or a box built
    import numpy as np

    from .gap import GAP

Q = Fraction

_SIEVE_CAP = 10**8
_SEGMENT = 1 << 17  # a multiple of scan.BLOCK
_CACHE_SEGMENTS = 2


def primes_up_to(n: int) -> np.ndarray:
    import numpy as np

    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin for anything below 3.3 * 10^24
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _phi_segment(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """phi(n) for lo <= n < hi; primes must cover sqrt(hi-1).

    The sieve runs in int32, in place on strided views (hi <= 2^31).
    """
    import numpy as np

    phi = np.arange(lo, hi, dtype=np.int32)
    rem = phi.copy()
    for p in primes.tolist():
        if p * p >= hi:
            break
        start = ((lo + p - 1) // p) * p
        if start >= hi:
            continue
        v = phi[start - lo :: p]
        v -= v // p
        # strip p from rem: one division per power q = p, p^2, .. on q's multiples
        q = p
        while start < hi:
            r = rem[start - lo :: q]
            r //= p
            q *= p
            start = ((lo + q - 1) // q) * q
    # rem is now 1 or the one prime factor above sqrt(hi), which divides phi
    phi -= phi // rem * (rem > 1)
    return phi.astype(np.int64)


class TotientTable:
    """phi(1..limit), sieved segment by segment on demand; the last few
    segments stay cached.

    A segment is _SEGMENT integers, a multiple of the scan block, so the
    phi of one scan block over 1..N lies in one segment.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValidationError("sieve limit must be at least 1")
        if limit > _SIEVE_CAP:
            raise BudgetExceeded(f"sieve limit {limit} exceeds {_SIEVE_CAP}")
        self.limit = int(limit)
        self._primes = primes_up_to(math.isqrt(self.limit) + 1)
        self._cache: dict[int, np.ndarray] = {}

    def _segment(self, j: int) -> np.ndarray:
        seg = self._cache.get(j)
        if seg is None:
            lo = 1 + j * _SEGMENT
            hi = min(self.limit + 1, lo + _SEGMENT)
            seg = _phi_segment(lo, hi, self._primes)
            if len(self._cache) >= _CACHE_SEGMENTS:
                self._cache.pop(next(iter(self._cache)))
            self._cache[j] = seg
        return seg

    def block(self, lo: int, hi: int) -> np.ndarray:
        """phi(lo), ..., phi(hi-1) as one array; a view into the cached
        segment when the range lies in one."""
        import numpy as np

        if not 1 <= lo <= hi <= self.limit + 1:
            raise ValidationError("block outside sieve range")
        first = (lo - 1) // _SEGMENT
        segs = [self._segment(j) for j in range(first, max(first, (hi - 2) // _SEGMENT) + 1)]
        base = 1 + first * _SEGMENT
        return (segs[0] if len(segs) == 1 else np.concatenate(segs))[lo - base : hi - base]

    def at(self, ns: np.ndarray) -> np.ndarray:
        """phi at each entry of the sorted int64 array ns, within 1..limit;
        each segment is read once."""
        import numpy as np

        if len(ns) and not 1 <= ns[0] <= ns[-1] <= self.limit:
            raise ValidationError(f"integers outside sieve range 1..{self.limit}")
        out = np.empty(len(ns), dtype=np.int64)
        seg = (ns - 1) // _SEGMENT
        cuts = [0, *(np.flatnonzero(np.diff(seg)) + 1).tolist(), len(ns)]
        for a, b in zip(cuts, cuts[1:]) if len(ns) else ():
            j = int(seg[a])
            out[a:b] = self._segment(j)[ns[a:b] - (1 + j * _SEGMENT)]
        return out


def totient_sieve(limit: int) -> TotientTable:
    return TotientTable(limit)


def totient_average(ns, table: Optional[TotientTable] = None) -> Fraction:
    """Exact sum of phi(n)/n over the given integers.

    The integers are read in increasing order, so each sieve segment is built
    once.  Terms are grouped by the reduced denominator of phi(n)/n, so each
    group is one integer numerator.  The groups are then added pairwise up a
    balanced tree over a common denominator, a/b + c/d = (a*(d/g) + c*(b/g))/(b*d/g)
    with g = gcd(b, d), which keeps every intermediate sum small; the total
    is reduced once at the end.
    """
    import numpy as np

    ns = sorted(int(n) for n in ns)
    if not ns:
        return Q(0)
    if ns[0] < 1:
        raise ValidationError("totient average needs positive integers")
    hi = ns[-1]
    if table is None:
        table = totient_sieve(hi)
    elif table.limit < hi:
        raise ValidationError(f"sieve limit {table.limit} below max element {hi}")
    n_arr = np.array(ns, dtype=np.int64)
    phi = table.at(n_arr)
    g = np.gcd(phi, n_arr)
    den, num = n_arr // g, phi // g
    order = np.argsort(den, kind="stable")
    den, num = den[order], num[order]
    starts = np.flatnonzero(np.r_[True, den[1:] != den[:-1]])
    terms = list(zip(np.add.reduceat(num, starts).tolist(), den[starts].tolist()))
    while len(terms) > 1:
        terms = [_add_over(*terms[i], *terms[i + 1]) if i + 1 < len(terms) else terms[i] for i in range(0, len(terms), 2)]
    return Q(*terms[0])


def _add_over(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """a/b + c/d over the denominator lcm(b, d), unreduced."""
    g = math.gcd(b, d)
    return a * (d // g) + c * (b // g), b // g * d


# -- divisibility densities ---------------------------------------------------


def alpha_p(gap: GAP, p: int, budget: int = 10**8) -> Fraction:
    """Fraction of the progression's coefficient box hitting 0 mod p."""
    from .gap import _box_values

    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    els = _box_values(gap, budget)
    return Q(int((els % p == 0).sum()), int(els.size))


def alpha_p_table(gap: GAP, p_max: int, eps: Fraction, budget: int = 10**8) -> list:
    """Rows (p, alpha_p, alpha_p * p^eps, reference bound 1/p + 1/min N_i)."""
    from .gap import _box_values

    els = _box_values(gap, budget)
    size = int(els.size)
    min_len = min(gap.lengths)
    e = float(eps)
    rows = []
    for p in map(int, primes_up_to(p_max)):
        a = Q(int((els % p == 0).sum()), size)
        ref = Q(1, p) + Q(1, min_len)
        rows.append(
            {
                "p": p,
                "alpha_p": a,
                "alpha_p_float": float(a),
                "p_eps_weighted": float(a) * p**e,
                "reference_bound": float(ref),
                "excess": float(a - ref),
            }
        )
    return rows


# -- congruence lattices -------------------------------------------------------


@dataclass(frozen=True)
class CongruenceLattice:
    """{x in Z^d : sum A_i x_i = 0 mod p} on the coordinates coprime to p."""

    moduli: tuple
    p: int
    divisible: tuple  # indices with p | A_i, dropped from the lattice
    coprime: tuple  # surviving indices, in order
    basis: tuple  # rows spanning the lattice in Z^d
    det: int

    @property
    def d(self) -> int:
        return len(self.coprime)

    def to_dict(self) -> dict:
        return {
            "moduli": list(self.moduli),
            "p": self.p,
            "divisible_indices": list(self.divisible),
            "coprime_indices": list(self.coprime),
            "basis": [list(r) for r in self.basis],
            "det": self.det,
        }


def congruence_lattice(moduli, p: int) -> CongruenceLattice:
    from .lattice import det  # the sums and totient commands never load lattice

    moduli = tuple(int(a) for a in moduli)
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    divisible = tuple(i for i, a in enumerate(moduli) if a % p == 0)
    coprime = tuple(i for i in range(len(moduli)) if i not in divisible)
    if not coprime:
        raise ValidationError(
            f"every modulus is divisible by {p}; the congruence is vacuous"
        )
    sub = [moduli[i] for i in coprime]
    d = len(sub)
    inv = pow(sub[0], -1, p)
    rows = [tuple(p if j == 0 else 0 for j in range(d))]
    for i in range(1, d):
        t = (-sub[i] * inv) % p
        rows.append(tuple(t if j == 0 else int(j == i) for j in range(d)))
    lat_det = abs(det([list(r) for r in rows]))
    if lat_det != p:
        raise ValidationError("congruence basis does not have determinant p")
    return CongruenceLattice(moduli, p, divisible, coprime, tuple(rows), lat_det)


# -- Euclidean successive minima ----------------------------------------------


def euclidean_minima(lat: CongruenceLattice, budget: int = 10**8) -> tuple:
    """Squared Euclidean successive minima, certified by enumeration.

    Greedy picks: the i-th minimum is the shortest vector outside the span
    of the first i-1 picks, found by one Schnorr-Euchner walk on an
    integral-LLL basis rebased on them, so the walk visits no vector inside
    that span, and its radius is the best squared norm so far.  On the
    innermost line x*b + r the norm is a quadratic in x, minimised by
    rounding.
    """
    from .lattice import ReducedLattice, spender

    rows = [list(r) for r in lat.basis]
    red = ReducedLattice(rows, [[_dot(u, v) for v in rows] for u in rows])
    spend = spender(budget, "minima enumeration exceeds the point budget")
    mins = []
    for i in range(lat.d):
        if i:
            red = red.rebased(coeffs)
        b = red.basis[0]
        bb = _dot(b, b)
        norm, j = min((_dot(v, v), j) for j, v in enumerate(red.basis) if j >= i)
        best, coeffs = (norm, red.basis[j]), [int(t == j) for t in range(lat.d)]

        def leaf(r, lo, hi, x):
            nonlocal best, coeffs
            x0 = min(max((bb - 2 * _dot(b, r)) // (2 * bb), lo), hi)  # nearest to -b.r/b.b
            v = tuple(x0 * p + q for p, q in zip(b, r))
            if (_dot(v, v), v) < best:
                best, coeffs = (_dot(v, v), v), [x0] + x[1:]

        red.walk(lambda: (best[0], 1), leaf, spend)
        mins.append(best[0])
    return tuple(mins)


def _dot(u, v) -> int:
    return sum(a * c for a, c in zip(u, v))


# -- Davenport counting --------------------------------------------------------


@dataclass
class DavenportCertificate:
    box: tuple  # half side lengths N_i
    count: int
    main_term: Fraction
    discrepancy: Fraction
    minima_sq: tuple
    projections: tuple  # V_j, max coordinate j-subset side products
    subset_constants: tuple  # comb(d, j) recorded alongside each V_j
    bound: float
    realized_ratio: float

    def to_dict(self) -> dict:
        return {
            "box": list(self.box),
            "count": self.count,
            "main_term": str(self.main_term),
            "discrepancy": str(self.discrepancy),
            "minima_sq": list(self.minima_sq),
            "projections": list(self.projections),
            "subset_constants": list(self.subset_constants),
            "bound": self.bound,
            "realized_ratio": self.realized_ratio,
        }


def _residue_count(box, moduli, p: int) -> int:
    """#{x in prod [-N_i, N_i] : sum a_i x_i = 0 mod p}, each a_i prime to p.

    A side's histogram of a*x mod p is (2N+1)//p full periods plus one run,
    min(2N+1, p) entries; all sides but the largest are convolved, and the
    largest counts its x = -r/a (mod p) by two floors per residue r."""
    sides = sorted(zip(box, moduli))
    acc = {0: 1}
    for n, a in sides[:-1]:
        full, rem = divmod(2 * n + 1, p)
        hist = [(a * x % p, full + (x + n < rem)) for x in range(-n, -n + min(2 * n + 1, p))]
        nxt: dict[int, int] = {}
        for r, c in acc.items():
            for s, h in hist:
                key = (r + s) % p
                nxt[key] = nxt.get(key, 0) + c * h
        acc = nxt
    n, a = sides[-1]
    inv = pow(a, -1, p)  # -n..n holds (n + r*inv)//p - (r*inv - n - 1)//p x = -r*inv
    return sum(c * ((n + r * inv) // p - (r * inv - n - 1) // p) for r, c in acc.items())


def davenport_count(
    box, lattice: Optional[CongruenceLattice] = None, budget: int = 10**8
) -> DavenportCertificate:
    """Exact |box cap Lambda| with main term, discrepancy, and its certificate.

    box gives half side lengths: the region is prod [-N_i, N_i].
    """
    box = tuple(int(n) for n in box)
    d = len(box)
    if d < 1 or d > 4:
        raise ValidationError("counting supports dimensions 1 through 4")
    if min(box) < 0:
        raise ValidationError("box sides must be nonnegative")
    if lattice is not None and lattice.d != d:
        raise ValidationError(
            f"lattice dimension {lattice.d} does not match box dimension {d}"
        )
    total = math.prod(2 * n + 1 for n in box)
    if total > min(budget, 4 * 10**7):
        raise BudgetExceeded(f"box holds {total} points, over the budget")

    if lattice is None:
        count = total
        lat_det = 1
        minima_sq = (1,) * d
    else:
        count = _residue_count(box, [lattice.moduli[i] for i in lattice.coprime], lattice.p)
        lat_det = lattice.det
        minima_sq = euclidean_minima(lattice, budget)

    vol = math.prod(2 * n for n in box)
    main = Q(vol, lat_det)
    disc = abs(Q(count) - main)

    sides = [2 * n for n in box]
    # combinations(sides, 0) yields the empty product 1
    projections = [max(math.prod(c) for c in itertools.combinations(sides, j)) for j in range(d)]
    constants = [math.comb(d, j) for j in range(d)]

    ctx = decimal.Context(prec=50)
    b = decimal.Decimal(0)
    for j in range(d):
        b = ctx.add(b, ctx.divide(projections[j], ctx.sqrt(math.prod(minima_sq[:j]))))
    bound = float(b)
    ratio = float(ctx.divide(ctx.divide(disc.numerator, disc.denominator), b))

    return DavenportCertificate(
        box=box,
        count=count,
        main_term=main,
        discrepancy=disc,
        minima_sq=minima_sq,
        projections=tuple(projections),
        subset_constants=tuple(constants),
        bound=bound,
        realized_ratio=ratio,
    )
