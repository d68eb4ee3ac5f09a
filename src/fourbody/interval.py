"""Rigorous interval arithmetic for scalars, vectors, matrices, and 3-tensors.

Every operation returns an enclosure of the exact real-arithmetic result.
Outward rounding is done portably by widening endpoints with
``math.nextafter`` instead of switching hardware rounding modes, so all
values are plain floats and freely shareable across threads.

Operations skip the widening when the double-precision result is
provably exact (error-free transformation checks), so simple cases like
``[1,2] + [3,4] -> [4,6]`` come out with exact endpoints.  The array
kernels keep exact results too: ``_iadd_arr`` and ``_pad_sum`` from
exact summation errors, ``_imul_arr`` from exact product residuals
inside a magnitude guard.  Outside the guard an array product is
widened by one ulp unless a factor is zero, while the scalar product
falls back to rational arithmetic.  Inexact sums are padded with the standard ``n*u/(1-n*u)``
term.  ``_imul_arr_fast`` and ``_pad_sum_fast`` always widen.

The module also provides the norms used throughout the certification
pipeline (max-norm, matrix max-row-sum norm, tensor "matroid" norm) and a
Krawczyk-style verified linear solver.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import DivisionByZeroInterval, NegativeSqrt, SingularEnclosure

_INF = math.inf

# Unit roundoff of binary64.
_U = 2.0 ** -53

# Magnitude beyond which the exactness checks below could overflow in
# intermediate products; such results are simply widened.
_SPLIT_SAFE = 1e150

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


_MAXF = 1.7976931348623157e308


def _sum_err(a: float, b: float, s: float) -> float:
    """2Sum: the exact error (a + b) - s as a float."""
    bv = s - a
    av = s - bv
    return (a - av) + (b - bv)


def _prod_err(a: float, b: float, p: float) -> float:
    """Dekker two-product: the exact error a*b - p, assuming no overflow."""
    ah = _SPLITTER * a - (_SPLITTER * a - a)
    al = a - ah
    bh = _SPLITTER * b - (_SPLITTER * b - b)
    bl = b - bh
    return al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _sum_floor(a: float, b: float) -> float:
    """Largest float <= the exact sum a + b (directed rounding down)."""
    s = a + b
    if not math.isfinite(s):
        return _MAXF if s > 0 else s
    return _down(s) if _sum_err(a, b, s) < 0.0 else s


def _sum_ceil(a: float, b: float) -> float:
    """Smallest float >= the exact sum a + b (directed rounding up)."""
    s = a + b
    if not math.isfinite(s):
        return -_MAXF if s < 0 else s
    return _up(s) if _sum_err(a, b, s) > 0.0 else s


def _prod_cmp(a: float, b: float, p: float) -> int:
    """Sign of (a*b - p), computed exactly."""
    if a == 0.0 or b == 0.0:
        return (0.0 > p) - (0.0 < p)
    if 1e-200 < abs(p) < 1e200 and abs(a) < _SPLIT_SAFE and abs(b) < _SPLIT_SAFE:
        # Dekker error is exact here (no overflow, error term stays normal)
        e = _prod_err(a, b, p)
        return (e > 0.0) - (e < 0.0)
    from fractions import Fraction
    d = Fraction(a) * Fraction(b) - Fraction(p)
    return (d > 0) - (d < 0)


def _prod_floor(a: float, b: float) -> float:
    p = a * b
    if not math.isfinite(p):
        return _MAXF if p > 0 else p
    return _down(p) if _prod_cmp(a, b, p) < 0 else p


def _prod_ceil(a: float, b: float) -> float:
    p = a * b
    if not math.isfinite(p):
        return -_MAXF if p < 0 else p
    return _up(p) if _prod_cmp(a, b, p) > 0 else p


def _recip_floor(x: float) -> float:
    """Largest float <= 1/x, for x != 0."""
    from fractions import Fraction
    q = 1.0 / x
    if not math.isfinite(q):
        return _MAXF if q > 0 else q
    return _down(q) if Fraction(q) > Fraction(1, 1) / Fraction(x) else q


def _recip_ceil(x: float) -> float:
    """Smallest float >= 1/x, for x != 0."""
    from fractions import Fraction
    q = 1.0 / x
    if not math.isfinite(q):
        return -_MAXF if q < 0 else q
    return _up(q) if Fraction(q) < Fraction(1, 1) / Fraction(x) else q


def _sqrt_floor(x: float) -> float:
    """Largest float <= sqrt(x), for x >= 0."""
    from fractions import Fraction
    s = math.sqrt(x)
    if not math.isfinite(s):
        return _MAXF
    return _down(s) if Fraction(s) * Fraction(s) > Fraction(x) else s


def _sqrt_ceil(x: float) -> float:
    """Smallest float >= sqrt(x), for x >= 0."""
    from fractions import Fraction
    s = math.sqrt(x)
    if not math.isfinite(s):
        return s
    return _up(s) if Fraction(s) * Fraction(s) < Fraction(x) else s


class Interval:
    """A closed interval [lo, hi] of reals with float endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float | None = None):
        if hi is None:
            hi = lo
        lo = float(lo)
        hi = float(hi)
        if not (lo <= hi):
            raise ValueError(f"invalid interval endpoints [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("Interval is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_value(cls, x: float) -> "Interval":
        """Degenerate (point) interval."""
        return cls(float(x), float(x))

    @classmethod
    def hull(cls, items: Iterable["Interval | float"]) -> "Interval":
        """Smallest interval containing every argument."""
        lo = _INF
        hi = -_INF
        for it in items:
            if isinstance(it, Interval):
                lo = min(lo, it.lo)
                hi = max(hi, it.hi)
            else:
                x = float(it)
                lo = min(lo, x)
                hi = max(hi, x)
        if lo > hi:
            raise ValueError("hull of empty collection")
        return cls(lo, hi)

    # -- predicates and measures --------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        return m

    @property
    def mag(self) -> float:
        """Largest absolute value over the interval (exact)."""
        return max(abs(self.lo), abs(self.hi))

    @property
    def mig(self) -> float:
        """Smallest absolute value over the interval (exact)."""
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def straddles_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def is_subset(self, other: "Interval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def is_interior_subset(self, other: "Interval") -> bool:
        return other.lo < self.lo and self.hi < other.hi

    def intersect(self, other: "Interval") -> "Interval":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise ValueError("empty intersection")
        return Interval(lo, hi)

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Interval":
        if isinstance(x, Interval):
            return x
        return Interval.from_value(x)

    def __add__(self, other) -> "Interval":
        o = self._coerce(other)
        return Interval(_sum_floor(self.lo, o.lo), _sum_ceil(self.hi, o.hi))

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other) -> "Interval":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Interval":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Interval":
        o = self._coerce(other)
        pairs = ((self.lo, o.lo), (self.lo, o.hi), (self.hi, o.lo), (self.hi, o.hi))
        lo = min(_prod_floor(x, y) for x, y in pairs)
        hi = max(_prod_ceil(x, y) for x, y in pairs)
        return Interval(lo, hi)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        o = self._coerce(other)
        if o.lo <= 0.0 <= o.hi:
            raise DivisionByZeroInterval(f"divisor {o} contains zero")
        return self * Interval(_recip_floor(o.hi), _recip_ceil(o.lo))

    def __rtruediv__(self, other) -> "Interval":
        return self._coerce(other) / self

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise NegativeSqrt(f"sqrt of {self}")
        lo = _sqrt_floor(self.lo)
        hi = _sqrt_ceil(self.hi)
        return Interval(max(0.0, lo), hi)

    def sqr(self) -> "Interval":
        """Enclosure of x^2 (tight across sign changes)."""
        lo_v = self.mig
        hi_v = self.mag
        return Interval(max(0.0, _prod_floor(lo_v, lo_v)),
                        _prod_ceil(hi_v, hi_v))

    def pow_int(self, n: int) -> "Interval":
        """Enclosure of x^n for a nonnegative integer n."""
        if n < 0 or n != int(n):
            raise ValueError("pow_int requires a nonnegative integer exponent")
        n = int(n)
        if n == 0:
            return Interval(1.0, 1.0)
        if n == 1:
            return self
        if n % 2 == 0:
            return self.sqr().pow_int(n // 2)
        return self * self.pow_int(n - 1)

    def __abs__(self) -> "Interval":
        return Interval(self.mig, self.mag)

    def exp(self) -> "Interval":
        lo = _down(math.exp(self.lo))
        hi = _up(math.exp(self.hi))
        return Interval(max(0.0, lo), hi)

    def log(self) -> "Interval":
        if self.lo <= 0.0:
            raise ValueError("log requires a strictly positive interval")
        return Interval(_down(math.log(self.lo)), _up(math.log(self.hi)))

    # -- representation and serialization -----------------------------

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def to_strings(self) -> list[str]:
        """Two decimal strings that round-trip the endpoints exactly."""
        return [repr(self.lo), repr(self.hi)]

    @classmethod
    def from_strings(cls, pair: Sequence[str]) -> "Interval":
        return cls(float(pair[0]), float(pair[1]))


# ---------------------------------------------------------------------------
# complex rectangles


class CInterval:
    """Complex number enclosed by a rectangle: re + i*im with Interval parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Interval | float, im: Interval | float = 0.0):
        object.__setattr__(self, "re", Interval._coerce(re))
        object.__setattr__(self, "im", Interval._coerce(im))

    def __setattr__(self, name, value):
        raise AttributeError("CInterval is immutable")

    @classmethod
    def from_complex(cls, z: complex) -> "CInterval":
        return cls(Interval.from_value(z.real), Interval.from_value(z.imag))

    @staticmethod
    def _coerce(x) -> "CInterval":
        if isinstance(x, CInterval):
            return x
        if isinstance(x, Interval):
            return CInterval(x, Interval.from_value(0.0))
        if isinstance(x, complex):
            return CInterval.from_complex(x)
        return CInterval(Interval.from_value(float(x)), Interval.from_value(0.0))

    def __add__(self, other) -> "CInterval":
        o = self._coerce(other)
        return CInterval(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "CInterval":
        return CInterval(-self.re, -self.im)

    def __sub__(self, other) -> "CInterval":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "CInterval":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "CInterval":
        o = self._coerce(other)
        return CInterval(self.re * o.re - self.im * o.im,
                         self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CInterval":
        o = self._coerce(other)
        denom = o.re.sqr() + o.im.sqr()
        num = self * o.conj()
        return CInterval(num.re / denom, num.im / denom)

    def conj(self) -> "CInterval":
        return CInterval(self.re, -self.im)

    def abs_sq(self) -> Interval:
        return self.re.sqr() + self.im.sqr()

    def abs(self) -> Interval:
        return self.abs_sq().sqrt()

    @property
    def mid(self) -> complex:
        return complex(self.re.mid, self.im.mid)

    def contains(self, z: complex) -> bool:
        return self.re.contains(z.real) and self.im.contains(z.imag)

    def straddles_zero(self) -> bool:
        return self.re.straddles_zero() and self.im.straddles_zero()

    def __repr__(self) -> str:
        return f"CInterval({self.re!r}, {self.im!r})"


# ---------------------------------------------------------------------------
# vectorized kernels on (lo, hi) ndarray pairs


def _gamma(n: int) -> float:
    """Safe upper bound on the standard summation error factor n*u/(1-n*u)."""
    t = n * _U
    return _up((t / (1.0 - t)) * (1.0 + 2.0 ** -30))


def _cascade_sum(x: np.ndarray):
    """Sequential sum with exact per-step errors (vectorized TwoSum).

    Returns (s, e_sum, e_abs): the float sum, the accumulated error terms,
    and the accumulated error magnitudes.  When e_abs is zero the sum s is
    exact.
    """
    s = x[0].astype(float).copy()
    e_sum = np.zeros_like(s)
    e_abs = np.zeros_like(s)
    for i in range(1, x.shape[0]):
        b = x[i]
        t = s + b
        bv = t - s
        av = t - bv
        e = (s - av) + (b - bv)
        e_sum += e
        e_abs += np.abs(e)
        s = t
    return s, e_sum, e_abs


def _pad_sum(lo: np.ndarray, hi: np.ndarray, axis: int):
    """Enclosure of the sum of intervals along an axis.

    Endpoint sums are done with a compensated cascade whose per-step
    errors are exact, so provably exact sums come out unwidened; inexact
    sums are padded by the compensation residual bound and one ulp.
    """
    lo_m = np.moveaxis(np.asarray(lo, dtype=float), axis, 0)
    hi_m = np.moveaxis(np.asarray(hi, dtype=float), axis, 0)
    n = lo_m.shape[0]
    if n == 0:
        shape = lo_m.shape[1:]
        return np.zeros(shape), np.zeros(shape)
    if n == 1:
        return lo_m[0].copy(), hi_m[0].copy()
    return _padded_cascade(lo_m, hi_m, _gamma(n + 2))


def _padded_cascade(lo: np.ndarray, hi: np.ndarray, g):
    """Enclosure of the sums over axis 0 of the lo and hi endpoint arrays.

    ``g`` bounds the compensation residual per unit of accumulated error
    magnitude, ``_gamma(n + 2)`` for n summands; an array of them pads
    each sum by its own term count when the axis is zero-padded beyond
    it, since exact zeros leave the cascade's sum and errors unchanged.
    """
    s, e_sum, e_abs = _cascade_sum(np.stack((lo, hi), axis=1))
    out = s + e_sum
    out_lo = np.where(e_abs[0] > 0.0,
                      np.nextafter(out[0] - g * e_abs[0], -np.inf), out[0])
    out_hi = np.where(e_abs[1] > 0.0,
                      np.nextafter(out[1] + g * e_abs[1], np.inf), out[1])
    return out_lo, out_hi


def _pad_sum_fast(lo: np.ndarray, hi: np.ndarray, axis: int):
    """Cheaper enclosure of interval sums for hot paths.

    Plain float summation padded by the a-priori bound gamma_n * sum of
    magnitudes; always widens, never loops.
    """
    n = lo.shape[axis]
    s_lo = np.sum(lo, axis=axis)
    s_hi = np.sum(hi, axis=axis)
    if n <= 1:
        return np.asarray(s_lo, dtype=float).copy(), \
            np.asarray(s_hi, dtype=float).copy()
    mags = np.sum(np.maximum(np.abs(lo), np.abs(hi)), axis=axis)
    err = _gamma(n + 1) * mags
    out_lo = np.nextafter(s_lo - err, -np.inf)
    out_hi = np.nextafter(s_hi + err, np.inf)
    return out_lo, out_hi


def _sum_err_arr(a, b, s):
    """Vectorized 2Sum residual: a + b = s + err exactly (finite inputs)."""
    bb = s - a
    return (a - (s - bb)) + (b - bb)


def _prod_err_arr(a, b, p):
    """Vectorized Dekker product residual; valid only under the same
    magnitude guard as the scalar path."""
    ca = _SPLITTER * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLITTER * b
    bh = cb - (cb - b)
    bl = b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _add_floor_arr(a, b):
    s = a + b
    with np.errstate(invalid="ignore"):
        e = _sum_err_arr(a, b, s)
    out = np.where(e < 0.0, np.nextafter(s, -np.inf), s)
    return np.where(np.isfinite(s), out, np.where(s > 0.0, _MAXF, s))


def _add_ceil_arr(a, b):
    s = a + b
    with np.errstate(invalid="ignore"):
        e = _sum_err_arr(a, b, s)
    out = np.where(e > 0.0, np.nextafter(s, np.inf), s)
    return np.where(np.isfinite(s), out, np.where(s < 0.0, -_MAXF, s))


def _imul_arr(alo, ahi, blo, bhi):
    """Elementwise interval product of broadcastable lo/hi arrays.

    The four endpoint candidates go through one stacked pass: each
    product p and its Dekker residual e = a*b - p are computed once.
    Where the magnitude guard makes e exact, p is the floor (ceil) of
    a*b unless e < 0 (e > 0), and one nextafter step fixes it; outside
    the guard p is stepped outward unless a factor is an exact zero,
    and an overflow is clamped to the largest finite float on the side
    the true product cannot reach.  Products that are exactly
    representable stay exact.
    """
    a = np.stack(np.broadcast_arrays(alo, ahi))
    b = np.stack(np.broadcast_arrays(blo, bhi))
    nd = max(a.ndim, b.ndim) - 1
    # candidates (lo, lo), (lo, hi), (hi, lo), (hi, hi) on two leading axes
    a = a.reshape((2, 1) + (1,) * (nd + 1 - a.ndim) + a.shape[1:])
    b = b.reshape((1, 2) + (1,) * (nd + 1 - b.ndim) + b.shape[1:])
    with np.errstate(invalid="ignore", over="ignore"):
        p = a * b
        e = _prod_err_arr(a, b, p)
        abs_p = np.abs(p)
        guard = ((abs_p > 1e-200) & (abs_p < 1e200)
                 & (np.abs(a) < _SPLIT_SAFE) & (np.abs(b) < _SPLIT_SAFE))
        inexact = (a != 0.0) & (b != 0.0)
        floor = np.where(np.where(guard, e < 0.0, inexact),
                         np.nextafter(p, -np.inf), p)
        ceil = np.where(np.where(guard, e > 0.0, inexact),
                        np.nextafter(p, np.inf), p)
    floor = np.where(np.isfinite(floor), floor,
                     np.where(floor > 0.0, _MAXF, floor))
    ceil = np.where(np.isfinite(ceil), ceil,
                    np.where(ceil < 0.0, -_MAXF, ceil))
    shape = (4,) + p.shape[2:]
    return (np.minimum.reduce(floor.reshape(shape), axis=0),
            np.maximum.reduce(ceil.reshape(shape), axis=0))


def _imul_arr_fast(alo, ahi, blo, bhi):
    """Elementwise interval product padded outward by one ulp.

    Rounded-to-nearest endpoint candidates are within half an ulp of
    the true products, so one nextafter step on the extremes is sound.
    Never exact, unlike ``_imul_arr``, but a fraction of its cost.
    """
    c1 = alo * blo
    c2 = alo * bhi
    c3 = ahi * blo
    c4 = ahi * bhi
    lo = np.minimum(np.minimum(c1, c2), np.minimum(c3, c4))
    hi = np.maximum(np.maximum(c1, c2), np.maximum(c3, c4))
    return np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)


def _iadd_arr(alo, ahi, blo, bhi):
    return _add_floor_arr(alo, blo), _add_ceil_arr(ahi, bhi)


def _isub_arr(alo, ahi, blo, bhi):
    return _add_floor_arr(alo, -bhi), _add_ceil_arr(ahi, -blo)


def _matvec_arr(Alo, Ahi, vlo, vhi):
    plo, phi = _imul_arr(Alo, Ahi, vlo[np.newaxis, :], vhi[np.newaxis, :])
    return _pad_sum(plo, phi, axis=1)


def _matmul_arr(Alo, Ahi, Blo, Bhi):
    plo, phi = _imul_arr(Alo[:, :, np.newaxis], Ahi[:, :, np.newaxis],
                         Blo[np.newaxis, :, :], Bhi[np.newaxis, :, :])
    return _pad_sum(plo, phi, axis=1)


# ---------------------------------------------------------------------------
# container types


class IntervalVector:
    """Vector of intervals stored as parallel lo/hi float arrays."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo/hi must be equal-shape 1-d arrays")
        if not np.all(lo <= hi):
            raise ValueError("invalid interval endpoints in vector")
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_points(cls, values) -> "IntervalVector":
        a = np.asarray(values, dtype=float)
        return cls(a.copy(), a.copy())

    @classmethod
    def from_intervals(cls, items: Sequence[Interval]) -> "IntervalVector":
        return cls(np.array([it.lo for it in items]),
                   np.array([it.hi for it in items]))

    @classmethod
    def zeros(cls, n: int) -> "IntervalVector":
        return cls(np.zeros(n), np.zeros(n))

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def __len__(self) -> int:
        return self.dim

    def __getitem__(self, i: int) -> Interval:
        return Interval(float(self.lo[i]), float(self.hi[i]))

    def __iter__(self):
        for i in range(self.dim):
            yield self[i]

    def __add__(self, other: "IntervalVector") -> "IntervalVector":
        lo, hi = _iadd_arr(self.lo, self.hi, other.lo, other.hi)
        return IntervalVector(lo, hi)

    def __sub__(self, other: "IntervalVector") -> "IntervalVector":
        lo, hi = _isub_arr(self.lo, self.hi, other.lo, other.hi)
        return IntervalVector(lo, hi)

    def __neg__(self) -> "IntervalVector":
        return IntervalVector(-self.hi.copy(), -self.lo.copy())

    def scale(self, c: float | Interval) -> "IntervalVector":
        c = Interval._coerce(c)
        lo, hi = _imul_arr(self.lo, self.hi, np.full(self.dim, c.lo),
                           np.full(self.dim, c.hi))
        return IntervalVector(lo, hi)

    def straddles_zero(self) -> bool:
        return bool(np.all(self.lo <= 0.0) and np.all(self.hi >= 0.0))

    def contains_point(self, x) -> bool:
        a = np.asarray(x, dtype=float)
        return bool(np.all(self.lo <= a) and np.all(a <= self.hi))

    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    def is_subset(self, other: "IntervalVector") -> bool:
        return bool(np.all(other.lo <= self.lo) and np.all(self.hi <= other.hi))

    def is_interior_subset(self, other: "IntervalVector") -> bool:
        return bool(np.all(other.lo < self.lo) and np.all(self.hi < other.hi))

    def hull_with(self, other: "IntervalVector") -> "IntervalVector":
        return IntervalVector(np.minimum(self.lo, other.lo),
                              np.maximum(self.hi, other.hi))

    def __repr__(self) -> str:
        pairs = ", ".join(f"[{l:.6g},{h:.6g}]" for l, h in zip(self.lo, self.hi))
        return f"IntervalVector({pairs})"


class IntervalMatrix:
    """Matrix of intervals stored as parallel lo/hi float arrays."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 2:
            raise ValueError("lo/hi must be equal-shape 2-d arrays")
        if not np.all(lo <= hi):
            raise ValueError("invalid interval endpoints in matrix")
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_points(cls, values) -> "IntervalMatrix":
        a = np.asarray(values, dtype=float)
        return cls(a.copy(), a.copy())

    @classmethod
    def identity(cls, n: int) -> "IntervalMatrix":
        e = np.eye(n)
        return cls(e.copy(), e.copy())

    @property
    def shape(self):
        return self.lo.shape

    def entry(self, i: int, j: int) -> Interval:
        return Interval(float(self.lo[i, j]), float(self.hi[i, j]))

    def __add__(self, other: "IntervalMatrix") -> "IntervalMatrix":
        lo, hi = _iadd_arr(self.lo, self.hi, other.lo, other.hi)
        return IntervalMatrix(lo, hi)

    def __sub__(self, other: "IntervalMatrix") -> "IntervalMatrix":
        lo, hi = _isub_arr(self.lo, self.hi, other.lo, other.hi)
        return IntervalMatrix(lo, hi)

    def __neg__(self) -> "IntervalMatrix":
        return IntervalMatrix(-self.hi.copy(), -self.lo.copy())

    def matvec(self, v: IntervalVector) -> IntervalVector:
        lo, hi = _matvec_arr(self.lo, self.hi, v.lo, v.hi)
        return IntervalVector(lo, hi)

    def matmul(self, other: "IntervalMatrix") -> "IntervalMatrix":
        lo, hi = _matmul_arr(self.lo, self.hi, other.lo, other.hi)
        return IntervalMatrix(lo, hi)

    def __matmul__(self, other):
        if isinstance(other, IntervalVector):
            return self.matvec(other)
        if isinstance(other, IntervalMatrix):
            return self.matmul(other)
        return NotImplemented

    def scale(self, c: float | Interval) -> "IntervalMatrix":
        c = Interval._coerce(c)
        lo, hi = _imul_arr(self.lo, self.hi,
                           np.full(self.shape, c.lo), np.full(self.shape, c.hi))
        return IntervalMatrix(lo, hi)

    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def __repr__(self) -> str:
        return f"IntervalMatrix(shape={self.shape})"


class IntervalTensor3:
    """Cubic 3-tensor of intervals (the Hessian 'matroid' container)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 3:
            raise ValueError("lo/hi must be equal-shape 3-d arrays")
        d = lo.shape[0]
        if lo.shape != (d, d, d):
            raise ValueError("tensor must be cubic")
        if not np.all(lo <= hi):
            raise ValueError("invalid interval endpoints in tensor")
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_points(cls, values) -> "IntervalTensor3":
        a = np.asarray(values, dtype=float)
        return cls(a.copy(), a.copy())

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def entry(self, i: int, j: int, k: int) -> Interval:
        return Interval(float(self.lo[i, j, k]), float(self.hi[i, j, k]))

    def apply(self, u: IntervalVector, v: IntervalVector) -> IntervalVector:
        """Bilinear action: result_i = sum_jk B_ijk u_j v_k."""
        plo, phi = _imul_arr(u.lo[:, np.newaxis], u.hi[:, np.newaxis],
                             v.lo[np.newaxis, :], v.hi[np.newaxis, :])
        d = self.dim
        qlo, qhi = _imul_arr(self.lo, self.hi,
                             plo[np.newaxis, :, :], phi[np.newaxis, :, :])
        slo, shi = _pad_sum(qlo.reshape(d, d * d), qhi.reshape(d, d * d), axis=1)
        return IntervalVector(slo, shi)

    def __repr__(self) -> str:
        return f"IntervalTensor3(dim={self.dim})"


# ---------------------------------------------------------------------------
# norms


def max_norm(v: IntervalVector) -> Interval:
    """Enclosure of max_j |v_j| over all selections from the entries."""
    migs = np.where((v.lo <= 0.0) & (v.hi >= 0.0), 0.0,
                    np.minimum(np.abs(v.lo), np.abs(v.hi)))
    mags = np.maximum(np.abs(v.lo), np.abs(v.hi))
    return Interval(float(np.max(migs)), float(np.max(mags)))


def matrix_norm(A: IntervalMatrix) -> Interval:
    """Enclosure of the max row sum of absolute entries."""
    migs = np.where((A.lo <= 0.0) & (A.hi >= 0.0), 0.0,
                    np.minimum(np.abs(A.lo), np.abs(A.hi)))
    mags = np.maximum(np.abs(A.lo), np.abs(A.hi))
    lo_rows, hi_rows = _pad_sum(migs, mags, axis=1)
    return Interval(max(0.0, float(np.max(lo_rows))), float(np.max(hi_rows)))


def matroid_norm(B: IntervalTensor3) -> Interval:
    """Enclosure of max_i sum_j sum_k |b_ijk|."""
    d = B.dim
    migs = np.where((B.lo <= 0.0) & (B.hi >= 0.0), 0.0,
                    np.minimum(np.abs(B.lo), np.abs(B.hi)))
    mags = np.maximum(np.abs(B.lo), np.abs(B.hi))
    lo_rows, hi_rows = _pad_sum(migs.reshape(d, d * d), mags.reshape(d, d * d),
                                axis=1)
    return Interval(max(0.0, float(np.max(lo_rows))), float(np.max(hi_rows)))


# ---------------------------------------------------------------------------
# verified linear solve


def verified_solve(A: IntervalMatrix, b: IntervalVector,
                   max_inflate: int = 20) -> IntervalVector:
    """Enclosure of {A^-1 b : A in [A], b in [b]} for a regular matrix.

    Krawczyk-style: with Y an approximate inverse of mid(A) and x0 = Y mid(b),
    the error e = x - x0 satisfies e = z + G e where z = Y(b - A x0) and
    G = I - Y A.  If ||G|| < 1 a norm bound gives a candidate box for e,
    verified by checking z + G e inside e (epsilon inflation on failure).
    """
    n = A.shape[0]
    if A.shape[0] != A.shape[1] or b.dim != n:
        raise ValueError("shape mismatch")
    Am = A.mid()
    try:
        Y = np.linalg.inv(Am)
    except np.linalg.LinAlgError as exc:
        raise SingularEnclosure("midpoint matrix is singular") from exc
    Yiv = IntervalMatrix.from_points(Y)
    x0 = Y @ b.mid()
    x0v = IntervalVector.from_points(x0)
    z = Yiv @ (b - (A @ x0v))
    G = IntervalMatrix.identity(n) - (Yiv @ A)
    g = matrix_norm(G).hi
    if g >= 1.0:
        raise SingularEnclosure(f"contraction test failed: ||I - YA|| = {g}")
    if np.all(z.lo == 0.0) and np.all(z.hi == 0.0):
        # e = G e with ||G|| < 1 forces e = 0: the solution is exactly x0
        return x0v
    rho = max_norm(z).hi / (1.0 - g)
    rho = rho * (1.0 + 2.0 ** -20) + 2.0 ** -1070
    for _ in range(max_inflate):
        e = IntervalVector(np.full(n, -rho), np.full(n, rho))
        e_new = z + (G @ e)
        if e_new.is_subset(e):
            # tighten by a couple of fixed-point sweeps
            for _ in range(2):
                e_next = z + (G @ e_new)
                if not e_next.is_subset(e_new):
                    break
                e_new = e_next
            return x0v + e_new
        rho = rho * 2.0 + 2.0 ** -1070
    raise SingularEnclosure("epsilon inflation failed to verify enclosure")


def verified_solve_complex(A_re: IntervalMatrix, A_im: IntervalMatrix,
                           b_re: IntervalVector, b_im: IntervalVector):
    """Verified solve of (A_re + i A_im) x = (b_re + i b_im).

    Realified to the doubled system [[Ar, -Ai], [Ai, Ar]]; returns the
    (re, im) IntervalVector pair of the solution.
    """
    n = A_re.shape[0]
    top = np.concatenate([A_re.lo, -A_im.hi], axis=1), \
        np.concatenate([A_re.hi, -A_im.lo], axis=1)
    bot = np.concatenate([A_im.lo, A_re.lo], axis=1), \
        np.concatenate([A_im.hi, A_re.hi], axis=1)
    big = IntervalMatrix(np.concatenate([top[0], bot[0]], axis=0),
                         np.concatenate([top[1], bot[1]], axis=0))
    rhs = IntervalVector(np.concatenate([b_re.lo, b_im.lo]),
                         np.concatenate([b_re.hi, b_im.hi]))
    sol = verified_solve(big, rhs)
    return (IntervalVector(sol.lo[:n], sol.hi[:n]),
            IntervalVector(sol.lo[n:], sol.hi[n:]))


# ---------------------------------------------------------------------------
# serialization helpers


def vector_to_strings(v: IntervalVector) -> list[list[str]]:
    return [[repr(float(l)), repr(float(h))] for l, h in zip(v.lo, v.hi)]


def vector_from_strings(items: Sequence[Sequence[str]]) -> IntervalVector:
    lo = np.array([float(p[0]) for p in items])
    hi = np.array([float(p[1]) for p in items])
    return IntervalVector(lo, hi)
