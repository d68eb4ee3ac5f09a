"""Rigorous interval arithmetic for real and complex scalars and arrays.

Every operation returns an enclosure of the exact real-arithmetic result.
Outward rounding is done portably by widening endpoints one ulp, with
``math.nextafter`` for scalars and by stepping the bit pattern for
arrays (``_ulp_step``), instead of switching hardware rounding modes, so
all values are plain floats and freely shareable across threads.

Operations skip the widening when the double-precision result is
provably exact (error-free transformation checks), so simple cases like
``[1,2] + [3,4] -> [4,6]`` come out with exact endpoints.  The array
kernels keep exact results too: ``_iadd_arr`` and ``_pad_sum`` from
exact summation errors, ``_imul_arr`` and ``_iscale_arr`` from exact
product residuals inside a magnitude guard.  Each kernel rounds an
endpoint once: rounding to nearest is monotone, so the (product,
residual) pairs of the endpoint candidates order their exact products
lexicographically, and ``_imul_arr`` steps only the least and the
greatest pair; ``_iadd_arr`` and ``_isub_arr`` sum both ends in one
pass.  Outside the guard an
array product is widened by one ulp unless a factor is zero; a scalar
floor or ceil (sum, product, reciprocal q, root s) steps by the exact
sign of a float residual, ``_prod_cmp``'s for a*b - p, q x - 1 and
s s - x, with rational arithmetic only outside the guard, and the
stacked reciprocals of ``_irecip_arr`` step by the same residual
q x - 1, with the scalar functions outside its range.
``_pad_sum`` sums by a pairwise TwoSum tree, and inexact sums are
padded with the standard ``n*u/(1-n*u)`` term, which bounds the errors'
float sum in any summation order.  The column kernel of ``taylor``
(``product_columns`` and its one-pair case ``product_column``) forms
its products rounded to nearest and folds their rounding into that
term, so each of its rows is padded once, by the gamma of its own term
count plus an underflow term, and stepped one ulp outward.

``IntervalArray`` holds arrays of real intervals of any shape as one
(lo, hi) pair, and ``CIntervalArray`` arrays of complex intervals with
a leading (real, imaginary) axis; they are the only layouts the package
uses for them.

The module also provides ``matrix_norm``, the one norm of the
certification pipeline (the max norm of a vector, the row-sum norm of a
matrix and the bilinear norm of a 3-tensor), and a Krawczyk-style
verified linear solver, which solves a whole stack of systems in one
call.
"""

from __future__ import annotations

import math
from typing import Sequence

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


def _sum_floor(a: float, b: float) -> float:
    """Largest float <= the exact sum a + b (directed rounding down)."""
    s = a + b
    if not math.isfinite(s):
        return _MAXF if s > 0 else s
    return _down(s) if _sum_err_arr(a, b, s) < 0.0 else s


def _sum_ceil(a: float, b: float) -> float:
    """Smallest float >= the exact sum a + b (directed rounding up)."""
    s = a + b
    if not math.isfinite(s):
        return -_MAXF if s < 0 else s
    return _up(s) if _sum_err_arr(a, b, s) > 0.0 else s


def _prod_cmp(a: float, b: float, p: float) -> int:
    """Sign of (a*b - p), exactly, for finite a, b and p.

    Theorem: with r = a*b rounded to nearest in the guard
    1e-200 < |r| < 1e200, |a|, |b| < ``_SPLIT_SAFE``, Dekker's residual
    e = a*b - r is exact: no split overflows, and no partial product,
    a multiple of ulp(a) ulp(b) > 2^-108 |r|, underflows.  For p within
    a factor two of r, r - p is exact (Sterbenz), so a*b - p is the sum
    (r - p) + e of two floats, whose rounding has the exact sign, since
    a sum of two floats under 2^-1022 is exact.  Otherwise: Fractions.
    """
    if a == 0.0 or b == 0.0:
        return (0.0 > p) - (0.0 < p)
    r = a * b
    if (1e-200 < abs(r) < 1e200 and abs(a) < _SPLIT_SAFE
            and abs(b) < _SPLIT_SAFE
            and (r == p or 0.5 * r <= p <= 2.0 * r
                 or 2.0 * r <= p <= 0.5 * r)):
        d = (r - p) + _prod_err_arr(a, b, r)
        return (d > 0.0) - (d < 0.0)
    from fractions import Fraction
    d = Fraction(a) * Fraction(b) - Fraction(p)
    return (d > 0) - (d < 0)


def _prod_floor(a: float, b: float) -> float:
    """Largest float <= a*b, with 0 * +-inf = 0."""
    p = a * b
    if not math.isfinite(p):
        return _MAXF if p > 0 else (0.0 if math.isnan(p) else p)
    return _down(p) if _prod_cmp(a, b, p) < 0 else p


def _prod_ceil(a: float, b: float) -> float:
    """Smallest float >= a*b, with 0 * +-inf = 0."""
    p = a * b
    if not math.isfinite(p):
        return -_MAXF if p < 0 else (0.0 if math.isnan(p) else p)
    return _up(p) if _prod_cmp(a, b, p) > 0 else p


def _recip_ceil(x: float) -> float:
    """Smallest float >= 1/x, for x != 0; 1/+-inf is exactly 0.  The
    rounded q falls short of 1/x when q x - 1 has the sign of -x."""
    q = 1.0 / x
    if math.isinf(x):
        return q
    if not math.isfinite(q):
        return -_MAXF if q < 0 else q
    return _up(q) if _prod_cmp(q, x, 1.0) * x < 0.0 else q


def _recip_floor(x: float) -> float:
    """Largest float <= 1/x: -ceil(1/-x), as rounding to nearest is odd."""
    return -_recip_ceil(-x)


def _sqrt_floor(x: float) -> float:
    """Largest float <= sqrt(x), for x >= 0."""
    s = math.sqrt(x)
    if not math.isfinite(s):
        return _MAXF
    return _down(s) if _prod_cmp(s, s, x) > 0 else s


def _sqrt_ceil(x: float) -> float:
    """Smallest float >= sqrt(x), for x >= 0."""
    s = math.sqrt(x)
    if not math.isfinite(s):
        return s
    return _up(s) if _prod_cmp(s, s, x) < 0 else s


def _exp(x: float) -> float:
    """``math.exp``, +inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return _INF


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
        """Enclosure of e^x, unbounded above where e^hi overflows.
        Premise, which the Gronwall tube's growth factor rests on: the
        platform ``math.exp`` is within one ulp of e^x, so one outward
        step encloses."""
        lo = _down(_exp(self.lo))
        hi = _up(_exp(self.hi))
        return Interval(max(0.0, lo), hi)

    # -- representation -----------------------------------------------

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))


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

    def __eq__(self, other) -> bool:
        return (isinstance(other, CInterval) and self.re == other.re
                and self.im == other.im)

    def __hash__(self) -> int:
        return hash((self.re, self.im))


class CIntervalArray:
    """An array of complex intervals of any shape, in the package's one
    layout for them.

    ``lo`` and ``hi`` are float arrays of shape (2, *shape) whose
    leading axis is (real, imaginary): the entry at index k is
    [lo[0][k], hi[0][k]] + i [lo[1][k], hi[1][k]].  Indexing acts on
    ``shape`` as numpy indexing acts on an array of that shape; basic
    indexing returns views that share the endpoints.

    ``+``, ``-`` and ``*`` broadcast over ``shape`` as numpy does, and
    every entry gets the endpoints of the scalar CInterval operation.
    ``*`` takes a float, an Interval, a CInterval, a real float array or
    another CIntervalArray and runs as one stacked ``_imul_arr`` pass.
    A real factor skips the products with its zero imaginary part,
    which change at most the sign of a zero; a factor of exactly +-1 or
    +-2 scales exactly in floating point and skips the interval product
    unless that overflows.  Outside the magnitude guard of ``_imul_arr``
    a product may be one ulp wider than the scalar one.  ``A @ B``
    contracts A's last axis with B's first, one exact product per real
    term and one padded sum per part of each result entry.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or lo.shape[:1] != (2,):
            raise ValueError("lo/hi must be equal-shape arrays with a "
                             "leading (real, imaginary) axis")
        if not np.all(lo <= hi):
            raise ValueError("invalid interval endpoints in array")
        self.lo = lo
        self.hi = hi

    @classmethod
    def _wrap(cls, lo: np.ndarray, hi: np.ndarray) -> "CIntervalArray":
        """An array over ``lo`` and ``hi`` as they are: no copy, no check."""
        out = object.__new__(cls)
        out.lo = lo
        out.hi = hi
        return out

    def _like(self, lo: np.ndarray, hi: np.ndarray) -> "CIntervalArray":
        """A result of an operation on self; subclasses pick its class."""
        return CIntervalArray._wrap(lo, hi)

    def _result(self, lo: np.ndarray, hi: np.ndarray) -> "CIntervalArray":
        if not np.all(lo <= hi):
            raise ValueError("invalid interval endpoints in result")
        return self._like(lo, hi)

    @classmethod
    def zeros(cls, shape) -> "CIntervalArray":
        full = (2,) + (tuple(shape) if isinstance(shape, tuple) else (shape,))
        return cls._wrap(np.zeros(full), np.zeros(full))

    @classmethod
    def from_real(cls, re: "IntervalArray") -> "CIntervalArray":
        """The array with real parts ``re`` and imaginary parts exactly
        zero."""
        zero = np.zeros_like(re.lo)
        return cls._wrap(np.stack((re.lo, zero)), np.stack((re.hi, zero)))

    @staticmethod
    def of(items) -> "CIntervalArray":
        """CIntervals, or equal-shape arrays of them, stacked along a new
        first axis."""
        parts = [_as_carray(x) for x in items]
        return CIntervalArray._wrap(np.stack([p.lo for p in parts], axis=1),
                                    np.stack([p.hi for p in parts], axis=1))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.lo.shape[1:]

    @property
    def ndim(self) -> int:
        return self.lo.ndim - 1

    def at(self, *index) -> CInterval:
        """The entry at ``index`` as a scalar CInterval."""
        re, im = (0,) + index, (1,) + index
        return CInterval(Interval(self.lo[re], self.hi[re]),
                         Interval(self.lo[im], self.hi[im]))

    def __getitem__(self, key) -> "CIntervalArray":
        k = _index(key)
        if any(isinstance(x, (list, np.ndarray)) for x in k):
            # an advanced index copies anyway; each part is indexed as
            # an array of ``shape``, since numpy moves advanced indices
            # that a slice separates in front of a leading part index
            return self._like(np.stack((self.lo[0][k], self.lo[1][k])),
                              np.stack((self.hi[0][k], self.hi[1][k])))
        k = (slice(None),) + k
        return self._like(self.lo[k], self.hi[k])

    def __setitem__(self, key, value: "CIntervalArray | CInterval") -> None:
        # part by part, so numpy broadcasting aligns the value's shape
        # with the target's; each part is indexed as an array of
        # ``shape``, since an integer part index beside the key would
        # move the key's advanced indices to the front
        v = _as_carray(value)
        for part in (0, 1):
            self.lo[part][key] = v.lo[part]
            self.hi[part][key] = v.hi[part]

    def copy(self) -> "CIntervalArray":
        return self._like(self.lo.copy(), self.hi.copy())

    def mid(self) -> np.ndarray:
        """Complex midpoints."""
        return (0.5 * (self.lo[0] + self.hi[0])
                + 1j * 0.5 * (self.lo[1] + self.hi[1]))

    def mag(self) -> np.ndarray:
        """Upper bound on each entry's modulus: hypot h of the real and
        imaginary magnitudes x and y, stepped up one ulp, since hypot
        rounds to nearest.  h stays when it is provably no smaller than
        the modulus: a part is zero, where hypot(x, 0) = |x| exactly
        (IEEE 754), or the rigorous floor of h^2 is at least the ceil
        of x^2 + y^2."""
        x, y = np.maximum(np.abs(self.lo), np.abs(self.hi))
        h = np.hypot(x, y)
        if not np.any((x != 0.0) & (y != 0.0)):
            return h
        v = np.stack((h, x, y))
        with np.errstate(over="ignore", invalid="ignore"):
            sq = v * v
            err = _prod_err_arr(v, v, sq)
        # the Dekker residuals are exact inside the magnitude guard
        guard = np.all((sq > 1e-200) & (sq < 1e200), axis=0)
        ceil = np.where(err > 0.0, np.nextafter(sq, np.inf), sq)
        h2_floor = np.where(err[0] < 0.0, np.nextafter(sq[0], -np.inf),
                            sq[0])
        covers = ((x == 0.0) | (y == 0.0)
                  | (guard & (h2_floor >= _directed_sum(ceil[1], ceil[2], 1))))
        return np.where(covers, h, np.nextafter(h, np.inf))

    def __add__(self, other: "CIntervalArray") -> "CIntervalArray":
        alo, ahi, blo, bhi = _aligned(self, other)
        return self._result(*_iadd_arr(alo, ahi, blo, bhi))

    def __sub__(self, other: "CIntervalArray") -> "CIntervalArray":
        alo, ahi, blo, bhi = _aligned(self, other)
        return self._result(*_isub_arr(alo, ahi, blo, bhi))

    def __neg__(self) -> "CIntervalArray":
        return self._like(-self.hi, -self.lo)

    def __mul__(self, c) -> "CIntervalArray":
        if isinstance(c, (CInterval, CIntervalArray)):
            xlo, xhi, ylo, yhi = _aligned(self, _as_carray(c))
            # (x + iy)(u + iv): the pairs xu, yv, xv, yu in one call
            plo, phi = _imul_arr(xlo[[0, 1, 0, 1]], xhi[[0, 1, 0, 1]],
                                 ylo[[0, 1, 1, 0]], yhi[[0, 1, 1, 0]])
            re = _isub_arr(plo[0], phi[0], plo[1], phi[1])
            im = _iadd_arr(plo[2], phi[2], plo[3], phi[3])
            return self._result(np.stack((re[0], im[0])),
                                np.stack((re[1], im[1])))
        if isinstance(c, np.ndarray):
            lo, hi = _lifted(self, max(self.ndim, c.ndim))
            return self._result(*_imul_arr(lo, hi, c, c))
        c = Interval._coerce(c)
        x = c.lo
        if x == c.hi and abs(x) in (1.0, 2.0):
            lo, hi = ((self.lo * x, self.hi * x) if x > 0.0
                      else (self.hi * x, self.lo * x))
            if np.isfinite(lo).all() and np.isfinite(hi).all():
                return self._like(lo, hi)
        return self._result(*_imul_arr(self.lo, self.hi, c.lo, c.hi))

    def __matmul__(self, other: "CIntervalArray") -> "CIntervalArray":
        """Contract self's last axis with other's first, as
        ``IntervalArray.__matmul__`` does: every real product of the
        terms is one exact ``_imul_arr`` product, and each part is one
        ``_pad_sum``, the real part over the terms re re and -im im,
        the imaginary part over re im and im re."""
        if self.shape[-1] != other.shape[0]:
            raise ValueError("shape mismatch")
        k = self.ndim - 1
        a = (...,) + (np.newaxis,) * (other.ndim - 1)
        b = (slice(None),) + (np.newaxis,) * k
        # terms re re, im im, re im, im re on axes
        # (term kind, *self.shape, *other.shape[1:])
        t, u = [0, 1, 0, 1], [0, 1, 1, 0]
        plo, phi = _imul_arr(self.lo[t][a], self.hi[t][a],
                             other.lo[u][b], other.hi[u][b])
        lo, hi = _pad_sum(
            np.stack((np.concatenate((plo[0], -phi[1]), axis=k),
                      np.concatenate((plo[2], plo[3]), axis=k))),
            np.stack((np.concatenate((phi[0], -plo[1]), axis=k),
                      np.concatenate((phi[2], phi[3]), axis=k))), axis=k + 1)
        return CIntervalArray._wrap(lo, hi)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.shape})"


def _as_carray(x: "CIntervalArray | CInterval") -> CIntervalArray:
    if isinstance(x, CIntervalArray):
        return x
    return CIntervalArray._wrap(np.array([x.re.lo, x.im.lo]),
                                np.array([x.re.hi, x.im.hi]))


def _index(key) -> tuple:
    """An index on an array's shape, as a tuple."""
    return key if isinstance(key, tuple) else (key,)


def _lifted(x: CIntervalArray, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """x's lo and hi with unit axes after the (real, imaginary) axis up
    to ``ndim`` shape axes, so numpy broadcasting aligns shapes."""
    if x.ndim == ndim:
        return x.lo, x.hi
    full = (2,) + (1,) * (ndim - x.ndim) + x.shape
    return x.lo.reshape(full), x.hi.reshape(full)


def _aligned(a: CIntervalArray, b: CIntervalArray):
    nd = max(a.ndim, b.ndim)
    return _lifted(a, nd) + _lifted(b, nd)


# ---------------------------------------------------------------------------
# vectorized kernels on (lo, hi) ndarray pairs


def _gamma(n: int) -> float:
    """Safe upper bound on the standard summation error factor n*u/(1-n*u)."""
    t = n * _U
    return _up((t / (1.0 - t)) * (1.0 + 2.0 ** -30))


def _nonneg_upper(value, k: int, products: int = 0):
    """Upper bound on an exact nonnegative quantity from its float
    evaluation ``value``: sums of products of sums of nonnegative
    floats, in which every exact summand passes through at most k
    rounded operations and at most ``products`` products (or fused
    multiply-adds) are formed.  ``value`` is a float, or an array of
    them with the same counts, bounded entry by entry with the float
    steps of the scalar case; a float gives a float.

    Theorem: a float addition of nonnegative operands returns at least
    (1 - u) times its exact result, and never loses to underflow; a
    product returns at least (1 - u) times its exact result less
    2^-1075, the most a result rounded into the subnormal range loses
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sec. 2.2).  So, in any evaluation order, the value is at least
    (1 - u)^k times the exact one less products * 2^-1075, and
    (1 - u)^-k <= 1 + gamma_k.  The exact quantity is therefore at most
    (value + products * 2^-1074) (1 + gamma_k), each step rounded up.
    """
    v = np.asarray(value, dtype=float)
    if products:
        v = np.nextafter(v + products * 2.0 ** -1074, _INF)
    out = np.where(v == 0.0, 0.0,
                   np.nextafter(v + np.nextafter(v * _gamma(k), _INF), _INF))
    return out if out.ndim else float(out)


def _cascade_sum(x: np.ndarray):
    """Pairwise sum over axis 0 with exact per-node errors: a TwoSum
    tree over adjacent pairs, ceil(log2 n) vector steps for n terms.

    Returns (s, e_sum, e_abs): the float sum, the float sum of the
    nodes' errors and that of their magnitudes.  Each level sums the
    pairs (x_0, x_1), (x_2, x_3), ... and carries an odd last term
    unchanged, which is pairing it with a zero up to the sign of a
    zero sum; the errors are paired along with the sums.  So the pairs
    do not depend on the length: exact zeros appended to the axis
    change no bit of e_sum and e_abs, and s at most in the sign of a
    zero, which s + e_sum drops since no error is -0.  When e_abs is
    zero the sum s is exact.

    Theorem: a TwoSum node is error-free, t + e = a + b exactly for
    finite a, b when t does not overflow (Knuth; Ogita, Rump & Oishi,
    Accurate sum and dot product, SIAM J. Sci. Comput. 26 (2005),
    Alg. 3.1), so the exact sum is s plus the errors of at most n - 1
    nodes, whatever the tree.  A float sum of m terms in any order lies
    within gamma_(m-1) times their magnitude sum of their exact sum
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sec. 4.2), so the bound ``_padded_cascade`` derives from e_abs
    holds for this order as for any other.
    """
    s, e_sum, e_abs = x, None, None
    while len(s) > 1:
        h = len(s) // 2
        a, b = s[0:2 * h:2], s[1:2 * h:2]
        t = np.empty((len(s) - h,) + s.shape[1:])
        np.add(a, b, out=t[:h])
        bv = t[:h] - a
        e = (a - (t[:h] - bv)) + (b - bv)
        sums, mags = np.empty_like(t), np.empty_like(t)
        if e_sum is None:
            sums[:h], mags[:h] = e, np.abs(e)
        else:
            np.add(e_sum[0:2 * h:2], e_sum[1:2 * h:2], out=sums[:h])
            sums[:h] += e
            np.add(e_abs[0:2 * h:2], e_abs[1:2 * h:2], out=mags[:h])
            mags[:h] += np.abs(e)
        if len(t) > h:
            t[h] = s[-1]
            sums[h], mags[h] = ((0.0, 0.0) if e_sum is None
                                else (e_sum[-1], e_abs[-1]))
        s, e_sum, e_abs = t, sums, mags
    if e_sum is None:
        return s[0], np.zeros_like(s[0]), np.zeros_like(s[0])
    return s[0], e_sum[0], e_abs[0]


def _pad_sum(lo: np.ndarray, hi: np.ndarray, axis: int):
    """Enclosure of the sum of intervals along an axis.

    Endpoint sums are done with a compensated TwoSum tree whose
    per-node errors are exact, so provably exact sums come out
    unwidened; inexact sums are padded by the compensation residual
    bound and one ulp, and a side whose sum overflows or meets an
    infinite term comes out unbounded.
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
    it, since exact zeros leave the tree's sum and errors unchanged.

    Theorem: the exact sum is s + E, E the sum of the at most n - 1
    node errors of ``_cascade_sum``, and any summation order of E's
    terms stays within gamma_(n-2) of e_abs; gamma_(n+2) e_abs also
    covers the rounding of s + e_sum and of the pad, with the one-ulp
    step, for every order, the sequential one and the tree alike.  A
    step that overflows, or an infinite term, leaves a nan in e_sum;
    that side comes out unbounded, as an overflowing side of the
    column kernel does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s, e_sum, e_abs = _cascade_sum(np.stack((lo, hi), axis=1))
        out = s + e_sum
    out_lo = np.where(e_abs[0] > 0.0,
                      np.nextafter(out[0] - g * e_abs[0], -np.inf), out[0])
    out_hi = np.where(e_abs[1] > 0.0,
                      np.nextafter(out[1] + g * e_abs[1], np.inf), out[1])
    return np.fmax(out_lo, -np.inf), np.fmin(out_hi, np.inf)


def _sum_err_arr(a, b, s):
    """Vectorized 2Sum residual: a + b = s + err exactly (finite inputs)."""
    bb = s - a
    return (a - (s - bb)) + (b - bb)


def _prod_err_arr(a, b, p):
    """Dekker's residual a*b - p of floats or arrays, exact for p = a*b
    rounded to nearest under the guard of ``_prod_cmp``."""
    ca, cb = _SPLITTER * a, _SPLITTER * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    # ((ah bh - p) + ah bl + al bh) + al bl, accumulated in place
    e = ah * bh
    e -= p
    e += ah * bl
    e += al * bh
    e += al * bl
    return e


# the outward direction of the lower and the upper end, and the signs
# that turn the residuals of the lower end and of the negated upper
# end into residuals of floors
_OUTWARD = np.array([-1, 1])
_AS_FLOORS = np.array([1.0, -1.0])

# most entries of a directed sum that steps by ``nextafter``: below it
# numpy's fixed cost per call outweighs the work, above it the integer
# ulp steps are faster (about 600 entries on a 2-core x86-64 VM)
_LEAN = 512


def _ulp_step(x, step):
    """x moved one ulp toward -inf where the int64 ``step`` is -1 and
    toward +inf where it is 1, for nonzero x, through its bit pattern.

    The doubles of one sign are ordered as their bit patterns read as
    integers (IEEE 754), so for nonzero x the neighbours are the
    patterns one away, away from or toward zero by x's sign bit.  That
    is ``nextafter`` for nonzero finite x and for a step inward from an
    infinity; callers never step a zero, or an infinity outward.
    """
    bits = x.view(np.int64)
    return (bits + step * ((bits >> 63) | 1)).view(np.float64)


def _imul_arr(alo, ahi, blo, bhi):
    """Elementwise interval product of broadcastable lo/hi arrays.

    The endpoint candidates, the four products of an end of a with an
    end of b, go through one stacked pass: each nearest product p and
    its Dekker residual e = a*b - p are computed once.  Where the
    magnitude guard makes e exact, the floor (ceil) of a*b is p, or p's
    neighbour toward -inf (+inf) if e < 0 (e > 0); outside the guard p
    steps outward unless a factor is an exact zero.  Only one candidate
    per endpoint is stepped.

    Theorem: rounding to nearest is monotone, so the exact products
    are ordered lexicographically by their pairs (p, e): x y < x' y'
    gives p <= p', and p < p' gives floor(x y) <= p <= pred(p') <=
    floor(x' y') (Rump, Verification methods: rigorous results using
    floating-point arithmetic, Acta Numerica 19 (2010)).  So the least
    floor is the floor of the least pair: the least p, stepped down if
    any candidate of that p steps down; the greatest ceil likewise.
    Products under 2^-1021 in magnitude, zeros included, lie outside
    the guard and have ulp 2^-1074, so an inexact one (nonzero factors)
    has the exact floor p - 2^-1074 and ceil -(-p - 2^-1074), with the
    zero signs of ``nextafter``, and is ranked by that value with no
    further step.  Among equal floors numpy's minimum keeps the last,
    as it does over the stepped candidates, which matters only for the
    sign of a zero.  An exact zero times an infinite endpoint is 0,
    since every point of the other factor is finite.  A product that
    overflows steps inward to the largest finite float on the side the
    true product cannot reach.  Products that are exactly representable
    stay exact.  A point factor c, passed as the same object for
    ``blo`` and ``bhi``, has the two candidates a_lo c and a_hi c, one
    product and residual per end; the sign of c orders them, and the
    selection above follows it, ties included.

    Point pass: for a point factor whose every entry, and every end of
    a, has magnitude in [2^-330, 2^330], zeros excluded, as two min and
    max reductions decide, each end takes its one candidate by the sign
    of c, a_lo c and a_hi c where c > 0 and the other way round where
    c < 0, and steps it by its own residual.  Every product is then
    inside the guard and none is zero, so the residual is exact, and by
    the order above the least pair is that candidate's: where both
    candidates round to one p the other's residual is on the same side
    or further out, so it adds no step.  The ends are those of the two
    candidates' pass bit for bit, with no zero whose sign could differ.

    In range: when every factor endpoint is 0 or has magnitude in
    [2^-330, 2^330], as one check over the factors decides, the masks
    above are constant and are not built.  Every nonzero candidate then
    has |p| in [2^-660, 2^660], inside (1e-200, 1e200) (the powers of
    two bounding the exact product are floats, so rounding keeps p
    between them), with factors below ``_SPLIT_SAFE``: the guard holds,
    no product is under 2^-1021, overflows or is nan.  A zero candidate
    has p = +-0 and residual +-0, so it never steps, as outside the
    guard.  The keys are p and -p, ranked by the same minimum in the
    same candidate order, so every endpoint, zero signs included, is
    that of the guarded pass.
    """
    shape = np.broadcast(alo, ahi, blo, bhi).shape
    # the factors' ends in one array, laid out in full so every pass
    # runs over contiguous memory; candidates (lo, lo), (lo, hi),
    # (hi, lo), (hi, hi) on two leading axes
    f = (_stacked(shape, alo, ahi, blo) if blo is bhi
         else _stacked(shape, alo, ahi, blo, bhi))
    mag = np.abs(f)
    if (blo is bhi and f.size and mag.min() >= 2.0 ** -330
            and mag.max() <= 2.0 ** 330):
        # the point pass: the floor's candidate and the ceil's, by the
        # sign of c
        c = f[2]
        ends = np.where(c < 0.0, f[1::-1], f[:2])
        p = ends * c
        way = _OUTWARD.reshape((2,) + (1,) * len(shape))
        m = _ulp_step(p, (_prod_err_arr(ends, c, p) * way > 0.0) * way)
        return m[0], m[1]
    a, b = f[:2, None], f[None, 2:]
    # the floors' keys, and the ceils' negated, ranked as one minimum:
    # an end steps toward -inf where its outward residual is negative
    q = np.empty((2, 2, len(f) - 2) + shape)
    as_floors = _AS_FLOORS.reshape((2,) + (1,) * (q.ndim - 1))
    if ((mag <= 2.0 ** 330) & ((mag >= 2.0 ** -330) | (f == 0.0))).all():
        p = np.multiply(a, b, out=q[0])
        down = _prod_err_arr(a, b, p) * as_floors < 0.0
        np.negative(p, out=q[1])
    else:
        with np.errstate(invalid="ignore", over="ignore"):
            p = a * b
            e = _prod_err_arr(a, b, p)
        abs_p = np.abs(p)
        safe = mag < _SPLIT_SAFE
        nonzero = f != 0.0
        guard = ((abs_p > 1e-200) & (abs_p < 1e200)
                 & (safe[:2, None] & safe[None, 2:]))
        # a product of 2^-1021 or more, or an infinite one, has nonzero
        # factors; a smaller one is inexact where both factors are
        # nonzero
        step = abs_p >= 2.0 ** -1021
        tiny = ((abs_p < 2.0 ** -1021)
                & (nonzero[:2, None] & nonzero[None, 2:])) * 2.0 ** -1074
        # endpoints of valid intervals are never nan, so the only nan
        # candidate is 0 * +-inf, whose product is 0
        p[np.isnan(p)] = 0.0
        np.subtract(p, tiny, out=q[0])
        np.negative(p, out=q[1])
        q[1] -= tiny
        with np.errstate(invalid="ignore"):
            down = np.where(guard, e * as_floors < 0.0, step)
    flat = (2, q.shape[1] * q.shape[2]) + shape
    q, down = q.reshape(flat), down.reshape(flat)
    m = np.minimum.reduce(q, axis=1)
    down = np.logical_or.reduce((q == m[:, None]) & down, axis=1)
    # an infinity stays where it would step outward
    m = _ulp_step(m, (down & (m > -_INF)) * -1)
    return m[0], -m[1]


def _directed_sum(a, b, way):
    """The floor (``way`` -1) or the ceil (``way`` 1) of a + b, with
    ``way`` broadcasting against the sums, by one float sum and one
    TwoSum residual: a residual on the side of ``way`` steps its
    rounded sum one ulp that way (a sum that rounds to zero is exact),
    and a sum that overflows away from ``way`` steps inward to the
    largest finite float on that side.  That clamp runs only when some
    stepped sum is not finite: a finite sum steps to a neighbour on the
    side of ``way``, an infinity only toward ``way``, which the clamp
    leaves as it is.  Sums of at most ``_LEAN`` entries step by one
    ``nextafter`` where the residual asks, larger ones by the integer
    steps of ``_ulp_step``; for the nonzero sums that step the two are
    the same neighbour, so every bit is the same."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = a + b
        e = _sum_err_arr(a, b, s)
        if np.ndim(s) and s.size <= _LEAN:
            # few entries: one nextafter where the residual lies on the
            # side of ``way``, in place
            out = np.nextafter(s, way * _INF, out=s, where=e * way > 0.0)
        else:
            out = _ulp_step(s, (e * way > 0.0) * way)
    if np.isfinite(out).all():
        return out
    return np.where(out * way == -_INF, -way * _MAXF, out)


def _stacked(shape, *xs):
    """The arrays ``xs`` broadcast to ``shape`` and stacked on a new
    leading axis, as one contiguous float array."""
    out = np.empty((len(xs),) + shape)
    for i, x in enumerate(xs):
        out[i] = x
    return out


def _iadd_arr(alo, ahi, blo, bhi):
    """Both ends of [alo, ahi] + [blo, bhi] as one stacked directed sum."""
    shape = np.broadcast(alo, ahi, blo, bhi).shape
    out = _directed_sum(_stacked(shape, alo, ahi), _stacked(shape, blo, bhi),
                        _OUTWARD.reshape((2,) + (1,) * len(shape)))
    return out[0], out[1]


def _isub_arr(alo, ahi, blo, bhi):
    """Both ends of [alo, ahi] - [blo, bhi] as one stacked directed sum."""
    shape = np.broadcast(alo, ahi, blo, bhi).shape
    b = _stacked(shape, bhi, blo)
    out = _directed_sum(_stacked(shape, alo, ahi), np.negative(b, out=b),
                        _OUTWARD.reshape((2,) + (1,) * len(shape)))
    return out[0], out[1]


def _ldexp_arr(lo, hi, e):
    """Enclosure of [lo, hi] 2^e for integer exponents ``e`` <= 0 that
    broadcast against the endpoints.

    ``np.ldexp`` rounds to nearest, so y = ldexp(x, e) is exact unless
    it is subnormal, and then within one ulp, 2^-1074, of x 2^e.  Scaling
    back up is exact, so ldexp(y, -e) != x exactly when y is inexact,
    and only there is y stepped one ulp outward.  Zeros and infinities
    keep their signs.
    """
    ylo, yhi = np.ldexp(lo, e), np.ldexp(hi, e)
    return (np.where(np.ldexp(ylo, -e) != lo,
                     np.nextafter(ylo, -np.inf), ylo),
            np.where(np.ldexp(yhi, -e) != hi,
                     np.nextafter(yhi, np.inf), yhi))


def _iscale_arr(lo, hi, slo, shi):
    """Enclosure of [lo, hi] [slo, shi] for scales 0 <= slo <= shi that
    broadcast against the endpoints, two candidates per entry.

    Over a positive scale the least product is lo slo where lo > 0 and
    lo shi otherwise, the greatest hi shi where hi > 0 and hi slo
    otherwise, so each end takes one product p, rounded to nearest, and
    its Dekker residual e, the exact a b - p under the guard of
    ``_imul_arr``: 1e-200 < |p| < 1e200 and both factors below
    ``_SPLIT_SAFE``.  There the lower end is p stepped one ulp down
    where e < 0 and the upper end p stepped one ulp up where e > 0, so
    each end is the floor or the ceil of its exact product, and an
    exact product, as a scale of 1 or a power of two gives, stays as
    it is.  Outside the guard the end is p stepped one ulp outward by
    ``nextafter``.  Theorem: a nearest product lies within half an ulp
    of the exact one on either side, so the stepped end is beyond it,
    also where the product is subnormal, rounds to a zero (stepped to
    -+2^-1074), or overflows (an infinity steps inward to the largest
    finite float on the side the exact product cannot reach, and stays
    where it steps outward).  So no end is wider than the nearest
    product stepped once outward.  An exact zero end is left as it is,
    zero sign included, since every point scale times it is zero; so
    exactly zero grids stay exactly zero.
    """
    shape = np.broadcast(lo, hi, slo, shi).shape
    x = _stacked(shape, lo, hi)
    s = np.where(x > 0.0, _stacked(shape, slo, shi), _stacked(shape, shi, slo))
    way = _OUTWARD.reshape((2,) + (1,) * len(shape))
    with np.errstate(over="ignore", invalid="ignore"):
        p = x * s
        e = _prod_err_arr(x, s, p)
        abs_p = np.abs(p)
        guard = ((abs_p > 1e-200) & (abs_p < 1e200)
                 & (np.abs(x) < _SPLIT_SAFE) & (s < _SPLIT_SAFE))
        y = np.where(~guard | (e * way > 0.0), np.nextafter(p, way * _INF), p)
    y = np.where(x == 0.0, x, y)
    return y[0], y[1]


# reciprocals are decided by residuals for divisors in this range
_RECIP_SAFE = 1e150


def _irecip_arr(lo, hi):
    """Both ends of 1 / [lo, hi], entrywise, for intervals that exclude
    zero: the floor of 1/hi and the ceil of 1/lo, each equal to the
    scalar ``_recip_floor(hi)`` and ``_recip_ceil(lo)``.

    Theorem: q = fl(1/x) is a float within half an ulp of 1/x, so
    q x - 1 has the sign of q - 1/x times that of x, and q is the ceil
    of 1/x unless q x - 1 has the sign of -x, when the ceil is q's
    upper neighbour; the floor is q's lower neighbour when q x - 1 has
    the sign of x (rounding to nearest is odd, so floor(1/x) =
    -ceil(1/-x)).  For 1e-150 < |x| < 1e150, q and x are below the
    splitting bound, and their nearest product p lies within a factor
    two of 1, so p - 1 is exact (Sterbenz) and Dekker's residual
    e = q x - p is exact, as in ``_prod_cmp``'s guard; the float sum
    (p - 1) + e then has the exact sign of q x - 1.  Outside that range
    the scalar functions decide, entry by entry.
    """
    x = np.stack(np.broadcast_arrays(np.asarray(hi, dtype=float),
                                     np.asarray(lo, dtype=float)))
    ends = (2,) + (1,) * (x.ndim - 1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        q = 1.0 / x
        p = q * x
        sign = np.sign((p - 1.0) + _prod_err_arr(q, x, p)) * np.sign(x)
    # the floor (row 0) steps down where sign > 0, the ceil up where < 0
    out = _ulp_step(q, (sign * _AS_FLOORS.reshape(ends) > 0.0)
                    * _OUTWARD.reshape(ends))
    for i, *at in np.argwhere(~((np.abs(x) > 1.0 / _RECIP_SAFE)
                                & (np.abs(x) < _RECIP_SAFE))):
        f = _recip_ceil if i else _recip_floor
        out[(i, *at)] = f(float(x[(i, *at)]))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# real interval arrays


class IntervalArray:
    """An array of real intervals of any shape: equal-shape float
    arrays ``lo`` and ``hi`` with lo <= hi entrywise.

    Indexing to a single entry gives an ``Interval``; otherwise, as in
    numpy, basic indexing returns a view that shares the endpoints.
    ``+`` and ``-`` act
    entrywise, and ``A @ B`` contracts A's last axis with B's first,
    one interval product per term and one padded sum per result entry.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape:
            raise ValueError("lo/hi must be equal-shape arrays")
        if not np.all(lo <= hi):
            raise ValueError("invalid interval endpoints in array")
        self.lo = lo
        self.hi = hi

    # an array over lo and hi as they are: no copy, no check
    _wrap = classmethod(CIntervalArray._wrap.__func__)

    @classmethod
    def from_points(cls, values) -> "IntervalArray":
        a = np.array(values, dtype=float)
        return cls(a, a.copy())

    @classmethod
    def of(cls, items: Sequence[Interval]) -> "IntervalArray":
        """Intervals stacked into a vector."""
        return cls(np.array([it.lo for it in items]),
                   np.array([it.hi for it in items]))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.lo.shape

    def __getitem__(self, key) -> "Interval | IntervalArray":
        lo, hi = self.lo[key], self.hi[key]
        if np.ndim(lo) == 0:
            return Interval(lo, hi)
        return IntervalArray(lo, hi)

    def __add__(self, other: "IntervalArray") -> "IntervalArray":
        return IntervalArray(*_iadd_arr(self.lo, self.hi, other.lo, other.hi))

    def __sub__(self, other: "IntervalArray") -> "IntervalArray":
        return IntervalArray(*_isub_arr(self.lo, self.hi, other.lo, other.hi))

    def __neg__(self) -> "IntervalArray":
        return IntervalArray(-self.hi, -self.lo)

    def __mul__(self, c) -> "IntervalArray":
        """Entrywise product with an Interval, a float or another
        IntervalArray, which broadcasts as numpy does, by ``_imul_arr``."""
        if not isinstance(c, IntervalArray):
            c = Interval._coerce(c)
        return IntervalArray(*_imul_arr(self.lo, self.hi, c.lo, c.hi))

    def __matmul__(self, other: "IntervalArray") -> "IntervalArray":
        if self.shape[-1] != other.shape[0]:
            raise ValueError("shape mismatch")
        # the terms on axes (*self.shape, *other.shape[1:]), summed over
        # the shared one
        k = self.lo.ndim - 1
        a = (...,) + (np.newaxis,) * (other.lo.ndim - 1)
        b = (np.newaxis,) * k + (...,)
        plo, phi = _imul_arr(self.lo[a], self.hi[a], other.lo[b], other.hi[b])
        return IntervalArray(*_pad_sum(plo, phi, axis=k))

    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def mag(self) -> np.ndarray:
        """Each entry's magnitude max(|lo|, |hi|), exactly."""
        return np.maximum(np.abs(self.lo), np.abs(self.hi))

    def __repr__(self) -> str:
        return f"IntervalArray(shape={self.shape})"


def _parts(x: "IntervalArray | CIntervalArray"
           ) -> tuple[np.ndarray, np.ndarray]:
    """x's lo and hi as views with a leading axis of parts, (real,
    imaginary) or (real,): kernels that serve both types read them, so
    the input's type selects the arithmetic."""
    if isinstance(x, CIntervalArray):
        return x.lo, x.hi
    return x.lo[None], x.hi[None]


def _of_parts(lo: np.ndarray, hi: np.ndarray
              ) -> "IntervalArray | CIntervalArray":
    """The array, real or complex, whose ``_parts`` are lo and hi."""
    return (CIntervalArray._wrap(lo, hi) if len(lo) == 2
            else IntervalArray._wrap(lo[0], hi[0]))


def matrix_norm(A: IntervalArray, stacked: bool = False
                ) -> Interval | IntervalArray:
    """Enclosure of max_i sum_j... |a_ij...|: the max over the first
    index of the summed magnitudes over the others.

    That is the max norm of a vector, the max row sum of a matrix and
    the bilinear-map norm max_i sum_jk |b_ijk| of a 3-tensor.  With
    ``stacked``, A's first axis indexes a stack of such arrays, and the
    result is the IntervalArray of their norms from one padded sum over
    the whole stack; each equals the norm of its array alone, since the
    sums are entrywise.
    """
    migs = np.where((A.lo <= 0.0) & (A.hi >= 0.0), 0.0,
                    np.minimum(np.abs(A.lo), np.abs(A.hi)))
    mags = np.maximum(np.abs(A.lo), np.abs(A.hi))
    rows = A.shape[:1 + stacked] + (-1,)
    lo_rows, hi_rows = _pad_sum(migs.reshape(rows), mags.reshape(rows),
                                axis=-1)
    lo = np.maximum(0.0, np.max(lo_rows, axis=-1))
    hi = np.max(hi_rows, axis=-1)
    return IntervalArray(lo, hi) if stacked else Interval(lo, hi)


# ---------------------------------------------------------------------------
# verified linear solve

# epsilon-inflation attempts before verified_solve gives up
_MAX_INFLATE = 20


def _matvec(alo, ahi, xlo, xhi):
    """Interval products of stacked (..., n, k) matrices with stacked
    (..., k) vectors, one padded sum over k per result entry; a point
    factor passes one array as both of its endpoints, which gives its
    products by the two-candidate path of ``_imul_arr``."""
    xv = xlo[..., None, :]
    if alo is ahi:
        return _pad_sum(*_imul_arr(xv, xhi[..., None, :], alo, alo), axis=-1)
    plo, phi = _imul_arr(alo, ahi, xv,
                         xv if xhi is xlo else xhi[..., None, :])
    return _pad_sum(plo, phi, axis=-1)


def _row_norm(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Upper end of ``matrix_norm`` for each (n, k) matrix of a stack
    (..., n, k): the largest padded row sum of entry magnitudes."""
    mags = np.maximum(np.abs(lo), np.abs(hi))
    return np.max(_pad_sum(mags, mags, axis=-1)[1], axis=-1)


def verified_solve(A: IntervalArray, b: IntervalArray) -> IntervalArray:
    """Enclosure of {A^-1 b : A in [A], b in [b]} for each regular
    matrix of a stack: A of shape (..., n, n), b of shape (..., n), and
    the result of b's shape.  Without leading axes it is one system.

    Krawczyk-style: with Y an approximate inverse of mid(A) and x0 = Y mid(b),
    the error e = x - x0 satisfies e = z + G e where z = Y(b - A x0) and
    G = I - Y A.  If ||G|| < 1 a norm bound gives a candidate box for e,
    verified by checking z + G e inside e (epsilon inflation on failure).
    Every stack entry has its own Y, contraction test, inflation radius
    and two tightening sweeps, carried by masks: an entry's radius grows
    only until its own box verifies, and its sweeps stop at its own
    first failure, so each enclosure is the one its system would get
    alone, up to the rounding of the float midpoint solve.  Raises
    SingularEnclosure if any entry fails.
    """
    n = A.shape[-1]
    if A.shape[-2:] != (n, n) or b.shape != A.shape[:-1]:
        raise ValueError("shape mismatch")
    try:
        Y = np.linalg.inv(A.mid())
    except np.linalg.LinAlgError as exc:
        raise SingularEnclosure("midpoint matrix is singular") from exc
    x0 = (Y @ b.mid()[..., None])[..., 0]
    r = _isub_arr(b.lo, b.hi, *_matvec(A.lo, A.hi, x0, x0))
    zlo, zhi = _matvec(Y, Y, *r)
    Yv = Y[..., None]
    YA = _pad_sum(*_imul_arr(A.lo[..., None, :, :], A.hi[..., None, :, :],
                             Yv, Yv), axis=-2)
    eye = np.eye(n)
    Glo, Ghi = _isub_arr(eye, eye, *YA)
    g = _row_norm(Glo, Ghi)
    if not np.all(g < 1.0):
        raise SingularEnclosure(
            f"contraction test failed: ||I - YA|| = {np.max(g)}")

    def sweep(elo, ehi):
        """z + G e, and whether it lies in e, per entry."""
        nlo, nhi = _iadd_arr(zlo, zhi, *_matvec(Glo, Ghi, elo, ehi))
        return nlo, nhi, np.all((elo <= nlo) & (nhi <= ehi), axis=-1)

    # e = G e with ||G|| < 1 forces e = 0: where z is exactly zero, the
    # solution is exactly x0
    done = np.all((zlo == 0.0) & (zhi == 0.0), axis=-1)
    elo = np.zeros_like(zlo)
    ehi = np.zeros_like(zhi)
    rho = _row_norm(zlo[..., None], zhi[..., None]) / (1.0 - g)
    rho = rho * (1.0 + 2.0 ** -20) + 2.0 ** -1070
    for _ in range(_MAX_INFLATE):
        if np.all(done):
            break
        box = np.broadcast_to(rho[..., None], zlo.shape)
        nlo, nhi, ok = sweep(-box, box)
        ok &= ~done
        elo = np.where(ok[..., None], nlo, elo)
        ehi = np.where(ok[..., None], nhi, ehi)
        done |= ok
        rho = np.where(done, rho, rho * 2.0 + 2.0 ** -1070)
    if not np.all(done):
        raise SingularEnclosure("epsilon inflation failed to verify enclosure")
    # tighten by a couple of fixed-point sweeps, each entry until its
    # first sweep that leaves its box
    active = np.ones(done.shape, dtype=bool)
    for _ in range(2):
        nlo, nhi, ok = sweep(elo, ehi)
        active &= ok
        elo = np.where(active[..., None], nlo, elo)
        ehi = np.where(active[..., None], nhi, ehi)
    return IntervalArray(*_iadd_arr(x0, x0, elo, ehi))


def verified_solve_complex(A: CIntervalArray, b: CIntervalArray
                           ) -> CIntervalArray:
    """Verified solve of A x = b for each (n, n) matrix of a stack: A of
    shape (..., n, n), b of shape (..., n).

    Realified to the doubled systems [[Ar, -Ai], [Ai, Ar]] (xr, xi) =
    (br, bi), solved by one stacked ``verified_solve``, so each entry
    keeps its own certificate and epsilon inflation, and any failure
    raises SingularEnclosure.
    """
    lo, hi = A.lo, A.hi
    big = IntervalArray(np.block([[lo[0], -hi[1]], [lo[1], lo[0]]]),
                        np.block([[hi[0], -lo[1]], [hi[1], hi[0]]]))
    n = b.shape[-1]
    sol = verified_solve(big, IntervalArray(np.concatenate(b.lo, axis=-1),
                                            np.concatenate(b.hi, axis=-1)))
    return CIntervalArray(np.stack((sol.lo[..., :n], sol.lo[..., n:])),
                          np.stack((sol.hi[..., :n], sol.hi[..., n:])))
