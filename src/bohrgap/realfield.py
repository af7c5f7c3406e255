"""Exact fixed-point arithmetic over dyadic mantissas with error accounting.

A FixedReal stores an integer mantissa at a power-of-two scale together
with a rational error bound in mantissa units, so every value is a
certified interval [ (man-err)/2^scale, (man+err)/2^scale ].  Comparisons
either return a certified sign or report indecision; nothing here guesses.

Values are built from decimal strings, rationals, or integer square roots,
never from machine floats.  A constructed value keeps its constructor
(``source``) so it can be re-realized at a higher scale; arithmetic returns
plain intervals.  exact_form alone reads the sources of a combination of
constructed values and decides its exact value in a multiquadratic field;
exact per-n values are scan.CoordScan's to give from it.  The
Bohr-set specs built on them (TargetVector, BohrSpec) live here too, free of
numpy.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import PrecisionExhausted, ValidationError

DEFAULT_SCALE = 128
MIN_SCALE = 64

Q = Fraction


def _round_half_even(num: int, den: int) -> int:
    # round num/den to the nearest integer, ties to even; den > 0
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    return q


@dataclass(frozen=True)
class RealSpec:
    """Constructor descriptor for a real number: how to rebuild it at any scale.

    kind is one of 'rat' (payload Fraction), 'sqrt' (payload int m >= 0,
    value sqrt(m)), 'dec' (payload decimal string).
    """

    kind: str
    payload: object

    @classmethod
    def parse(cls, text: str) -> "RealSpec":
        """Parse 'rat:p/q', 'sqrt:m', or 'dec:string'."""
        if ":" not in text:
            raise ValidationError(f"real constructor needs a 'rat:'/'sqrt:'/'dec:' prefix: {text!r}")
        kind, _, body = text.partition(":")
        if kind == "rat":
            try:
                return cls("rat", Fraction(body))
            except (ValueError, ZeroDivisionError) as e:
                raise ValidationError(f"bad rational {body!r}: {e}") from e
        if kind == "sqrt":
            try:
                m = int(body)
            except ValueError as e:
                raise ValidationError(f"bad sqrt integer {body!r}: {e}") from e
            if m < 0:
                raise ValidationError("sqrt constructor needs m >= 0")
            return cls("sqrt", m)
        if kind == "dec":
            try:
                Fraction(body)  # decimal strings are exact rationals
            except ValueError as e:
                raise ValidationError(f"bad decimal {body!r}: {e}") from e
            return cls("dec", body)
        raise ValidationError(f"unknown real constructor kind {kind!r}")

    def exact(self) -> Optional[Fraction]:
        """The exact rational value, or None if irrational."""
        if self.kind == "rat":
            return self.payload
        if self.kind == "dec":
            return Fraction(self.payload)
        r = math.isqrt(self.payload)
        return Fraction(r) if r * r == self.payload else None

    def realize(self, scale: int) -> "FixedReal":
        if self.kind == "sqrt" and self.exact() is None:
            return fr_sqrt_int(self.payload, scale)
        return fr_from_fraction(self.exact(), scale, source=self)


@dataclass(frozen=True)
class FixedReal:
    """Dyadic interval value: man*2^-scale with error err*2^-scale, err rational >= 0.
    source is the constructor that ``refined`` re-realizes; arithmetic keeps none."""

    man: int
    scale: int
    err: Fraction = Q(0)
    source: Optional[RealSpec] = None

    def __post_init__(self):
        if self.scale < MIN_SCALE:
            raise ValidationError(f"scale {self.scale} below minimum {MIN_SCALE}")
        if self.err < 0:
            raise ValidationError("negative error bound")

    # -- interval views ------------------------------------------------

    def bounds(self) -> tuple[Fraction, Fraction]:
        u = Q(1, 1 << self.scale)
        return (self.man - self.err) * u, (self.man + self.err) * u

    def exact(self) -> Optional[Fraction]:
        """Exact rational value when known (zero error, or rational source)."""
        if self.err == 0:
            return Q(self.man, 1 << self.scale)
        if self.source is not None:
            return self.source.exact()
        return None

    def decimal(self, digits: int = 24) -> str:
        """Decimal string of the mantissa value, rounded to `digits` places."""
        p = 10**digits
        neg = self.man < 0
        n = -self.man if neg else self.man
        q = _round_half_even(n * p, 1 << self.scale)
        whole, frac = divmod(q, p)
        s = f"{whole}.{frac:0{digits}d}"
        return "-" + s if neg else s

    # -- arithmetic ----------------------------------------------------

    def __neg__(self) -> "FixedReal":
        return FixedReal(-self.man, self.scale, self.err)

    def __add__(self, other: "FixedReal") -> "FixedReal":
        if self.scale != other.scale:
            raise ValidationError("mixed scales")
        return FixedReal(self.man + other.man, self.scale, self.err + other.err)

    def __sub__(self, other: "FixedReal") -> "FixedReal":
        return self + (-other)

    def mul_int(self, n: int) -> "FixedReal":
        return FixedReal(self.man * n, self.scale, self.err * abs(n))

    def refined(self, scale: int) -> "FixedReal":
        """Re-realize at a higher scale via the constructor, if one is known."""
        if scale <= self.scale:
            return self
        if self.err == 0:
            return FixedReal(self.man << (scale - self.scale), scale, Q(0), self.source)
        if self.source is None:
            raise PrecisionExhausted("no constructor available for refinement")
        return self.source.realize(scale)


# -- constructors ------------------------------------------------------


def fr_from_fraction(q: Fraction, scale: int = DEFAULT_SCALE, source: Optional[RealSpec] = None) -> FixedReal:
    """Nearest mantissa to q at the scale; err is the exact residual (0 when dyadic)."""
    q = Fraction(q)
    man = _round_half_even(q.numerator * (1 << scale), q.denominator)
    err = abs(q * (1 << scale) - man)
    return FixedReal(man, scale, err, source if source is not None else RealSpec("rat", q))


def fr_from_int(n: int, scale: int = DEFAULT_SCALE) -> FixedReal:
    return FixedReal(n << scale, scale, Q(0), RealSpec("rat", Q(n)))


def fr_sqrt_int(m: int, scale: int = DEFAULT_SCALE) -> FixedReal:
    """sqrt(m) with |value - sqrt(m)| <= 2^-scale (floor of the integer root)."""
    if m < 0:
        raise ValidationError("sqrt of negative integer")
    r = math.isqrt(m)
    if r * r == m:
        return FixedReal(r << scale, scale, Q(0), RealSpec("sqrt", m))
    man = math.isqrt(m << (2 * scale))
    return FixedReal(man, scale, Q(1), RealSpec("sqrt", m))


def fr_root_rational(q: Fraction, k: int, scale: int = DEFAULT_SCALE) -> FixedReal:
    """q^(1/k) for rational q > 0, mantissa within 1 ulp of the true root."""
    q = Fraction(q)
    if q <= 0:
        raise ValidationError("root of nonpositive rational")
    if k < 1:
        raise ValidationError("root order must be >= 1")
    # floor of (q * 2^(k*scale))^(1/k) via integer Newton on num/den
    target_num = q.numerator << (k * scale)
    target = target_num // q.denominator
    x = _iroot(target, k)
    exact = x**k * q.denominator == target_num  # (x/2^scale)^k == q
    return FixedReal(x, scale, Q(0) if exact else Q(1), None)


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) by Newton iteration on integers."""
    if n < 0:
        raise ValidationError("integer root of negative")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << (-(-n.bit_length() // k))  # >= true root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    return x


# -- distance to nearest integer ---------------------------------------


def dist_nearest_int(x: FixedReal) -> FixedReal:
    """||x||: distance to the nearest integer, in [0, 1/2], ties give exactly 1/2.

    The fold r -> min(r, 1-r) is 1-Lipschitz, so the error bound carries over
    unchanged.
    """
    one = 1 << x.scale
    r = x.man % one
    return FixedReal(r if 2 * r <= one else one - r, x.scale, x.err)


# -- exact values of constructor combinations --------------------------


def exact_form(terms) -> Optional[tuple[Fraction, dict[int, Fraction]]]:
    """sum c*x over (integer c, x) pairs as (rational part, {kernel b: nonzero coefficient of sqrt(b)}).

    Each sqrt:m joins the first kernel b with m*b a perfect square, since then
    sqrt(m) = isqrt(m*b)/b * sqrt(b).  Square roots of non-squares no two of
    which have a square product are linearly independent over Q (Besicovitch),
    so the sum is rational exactly when no kernel is left.  None when some x
    with c != 0 has no rat:, dec: or sqrt: source.  The rational part
    accumulates on ints and is reduced once, since a scanner forms it per build.
    """
    num, den, kernels = 0, 1, {}
    for c, x in terms:
        if not c:
            continue
        v = x.exact()
        if v is not None:
            num, den = num * v.denominator + c * v.numerator * den, den * v.denominator
            continue
        if x.source is None:
            return None
        m = x.source.payload
        b = next((b for b in kernels if math.isqrt(m * b) ** 2 == m * b), m)
        k = Q(c * math.isqrt(m * b), b)
        kernels[b] = kernels[b] + k if b in kernels else k
    return Q(num, den), {b: k for b, k in kernels.items() if k}


# -- certified comparisons ---------------------------------------------


UNDECIDED = object()  # what a certify step returns while its comparison is open


def certify(step, msg: str, *args, n=None, coord=None):
    """First decided result of step(extra) for extra = 0, 64, 192 extra bits.

    step returns UNDECIDED while its comparison is still open at that depth;
    any other value, None included, is the answer.  Each step refines what it
    needs itself, and refinement errors propagate.  Only when every depth
    stays open is msg formatted (with args, n and coord) into the raised
    PrecisionExhausted, which carries n and coord.
    """
    for extra in (0, 64, 192):
        out = step(extra)
        if out is not UNDECIDED:
            return out
    raise PrecisionExhausted(msg.format(*args, n=n, coord=coord), n=n, coord=coord)


# -- certified power comparisons ---------------------------------------


def sqrt_fraction(f: Fraction) -> Optional[Fraction]:
    """Exact square root of a rational, or None when irrational."""
    f = Fraction(f)
    if f < 0:
        return None
    rn, rd = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Q(rn, rd)
    return None


def _pow_sqrt(ctx: decimal.Context, n: int, t: Fraction, sign: int = 1) -> decimal.Decimal:
    """n^(sign*sqrt(t)) in ctx, each operation correctly rounded."""
    y = ctx.multiply(ctx.sqrt(ctx.divide(t.numerator, t.denominator)), ctx.ln(n))
    return ctx.exp(y if sign > 0 else ctx.minus(y))


def cmp_pow(lo, hi, n: int, t, sign: int = 1) -> Optional[int]:
    """Certified sign of x - n^(sign*sqrt(t)) for every x in [lo, hi], n >= 1.

    A rational exponent e is passed as t = e^2.  When sqrt(t) is rational the
    sign comes from exact integer powers (n == 1 compares with exactly 1);
    otherwise `decimal` evaluates the threshold in a fresh context at 40, 120
    and 400 digits, where equality is impossible.  Each step to y = sqrt(t)*ln n
    and exp(y) rounds half-even, so the relative error is below
    (2|y| + 1)*10^(1-dps), inside the margin 10^(8-dps) for |y| <= 10^6.  None
    only when the bracket straddles (or touches) the threshold, with lo and hi
    compared exactly; a point that 400 digits cannot separate raises.
    """
    lo, hi, t = Fraction(lo), Fraction(hi), Fraction(t)
    r = Q(0) if n == 1 else sqrt_fraction(t)
    if r is not None:
        a, b = r.numerator, r.denominator
        npow = n**a

        def side(v: Fraction) -> int:
            if v <= 0:
                return -1
            lhs, rhs = v.numerator**b, v.denominator**b
            lhs, rhs = (lhs, rhs * npow) if sign > 0 else (lhs * npow, rhs)
            return (lhs > rhs) - (lhs < rhs)

        slo, shi = side(lo), side(hi)
        return slo if slo == shi else None
    for dps in (40, 120, 400):
        ctx = decimal.Context(prec=dps)
        thr = _pow_sqrt(ctx, n, t, sign)
        tol = ctx.multiply(thr, decimal.Decimal((0, (1,), 8 - dps)))
        if lo > ctx.add(thr, tol):
            return 1
        if hi < ctx.subtract(thr, tol):
            return -1
    if lo == hi:
        raise PrecisionExhausted(f"cannot separate {lo} from {n}^({sign}*sqrt({t}))")
    return None


def ceil_pow_sqrt(base: int, eps: Fraction) -> int:
    """Smallest integer >= base^sqrt(eps), certified."""
    guess = int(_pow_sqrt(decimal.Context(prec=40), base, eps))
    for m in range(max(guess - 2, 0), guess + 4):
        # smallest m with m >= base^sqrt(eps)
        if cmp_pow(m, m, base, eps) >= 0:
            return m
    raise PrecisionExhausted("ceil_pow_sqrt guess window missed")


# -- Bohr-set specifications --------------------------------------------


@dataclass(frozen=True)
class TargetVector:
    """The real vector alpha = (alpha_1..alpha_d); k = d + 1 Bohr-set rank."""

    alphas: tuple[FixedReal, ...]

    def __post_init__(self):
        if not self.alphas:
            raise ValidationError("empty target vector")
        scales = {a.scale for a in self.alphas}
        if len(scales) != 1:
            raise ValidationError("all entries must carry the same scale")

    @property
    def d(self) -> int:
        return len(self.alphas)

    @property
    def k(self) -> int:
        return self.d + 1

    @property
    def scale(self) -> int:
        return self.alphas[0].scale

    @classmethod
    def parse(cls, texts: Sequence[str], scale: int = DEFAULT_SCALE) -> "TargetVector":
        return cls(tuple(RealSpec.parse(t).realize(scale) for t in texts))

    def rational_entries(self) -> list[int]:
        """Indices (0-based) of entries with exactly rational values."""
        return [i for i, a in enumerate(self.alphas) if a.exact() is not None]


def parse_threshold(text: str) -> Fraction:
    """A width as an exact rational: a source spec ("rat:1/20", "dec:0.05",
    "sqrt:4") or a bare decimal/fraction literal ("0.05", "1/20").  An
    irrational spec ("sqrt:2") is refused."""
    if ":" not in text:
        try:
            return Q(text)
        except (ValueError, ZeroDivisionError) as e:
            raise ValidationError(f"bad width {text!r}: {e}") from e
    width = RealSpec.parse(text).exact()
    if width is None:
        raise ValidationError(f"width {text!r} is not rational")
    return width


@dataclass(frozen=True)
class BohrSpec:
    """Data for B_gamma(N; delta): the targets, the shift, the box, the widths.

    k = d + 1 counts the lifted coordinates (n, a_1..a_d).  epsilon feeds the
    restricted variant's lower cutoff N^sqrt(epsilon).
    """

    alpha: TargetVector
    gamma: Optional[tuple[FixedReal, ...]]
    N: int
    delta: tuple[Fraction, ...]
    epsilon: Fraction = Q(1, 20)

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 1:
            raise ValidationError("N must be a positive integer")
        d = self.alpha.d
        if len(self.delta) != d:
            raise ValidationError("delta needs one width per alpha entry")
        if self.gamma is not None:
            if len(self.gamma) != d:
                raise ValidationError("gamma needs one shift per alpha entry")
            for g in self.gamma:
                if g.scale != self.alpha.scale:
                    raise ValidationError("gamma scale mismatch")
        # widths up to 2 are legal so the doubled/outer companions stay
        # constructible; anything >= 1/2 already keeps every n
        if not all(0 < t <= 2 for t in self.delta):
            raise ValidationError("delta entries must lie in (0, 2]")
        if not (0 < self.epsilon <= Q(1, 4)):
            raise ValidationError("epsilon must lie in (0, 1/4]")
        # guard: accumulated fixed-point error over the whole range must stay
        # far below the smallest width, or borderline bands swallow the scan
        if Q(self.N + 1, 1 << self.alpha.scale) >= min(self.delta) / (1 << 20):
            raise ValidationError("scale too small for this N and delta; use a larger scale")

    @property
    def d(self) -> int:
        return self.alpha.d

    @property
    def k(self) -> int:
        return self.alpha.k

    @property
    def scale(self) -> int:
        return self.alpha.scale

    def is_homogeneous(self) -> bool:
        return self.gamma is None or all(g.exact() == 0 for g in self.gamma)

    def scaled(self, num: int, den: int) -> "BohrSpec":
        """This set with widths delta*num/den (capped at 1), the same N and shift."""
        ds = tuple(min(t * num / den, Q(1)) for t in self.delta)
        return BohrSpec(self.alpha, self.gamma, self.N, ds, self.epsilon)

    @classmethod
    def build(
        cls,
        alpha_texts,
        gamma_texts,
        N: int,
        delta_texts,
        epsilon: Fraction = Q(1, 20),
        scale: int = DEFAULT_SCALE,
    ) -> "BohrSpec":
        alpha = TargetVector.parse(list(alpha_texts), scale)
        gamma = None
        if gamma_texts is not None:
            gamma = tuple(RealSpec.parse(t).realize(scale) for t in gamma_texts)
        delta = tuple(parse_threshold(t) for t in delta_texts)
        return cls(alpha, gamma, N, delta, Q(epsilon))
