"""Bivariate Taylor-polynomial algebra with complex interval coefficients.

Series here represent truncated expansions P(z1, z2) = sum a_mn z1^m z2^n
whose coefficients are rectangles (complex intervals).  The module
supplies the Cauchy product, the "hat" products that omit every summand
containing the highest-order coefficient (the workhorse of the
order-by-order homological solves), rigorous evaluation over boxes,
rescaling of the domain variables, and conjugate-symmetry checking.

The lifted field itself is not written here: ``polyfield`` describes it
once as a program of linear combinations and products, and the
interpreters in ``manifold`` and ``advect`` evaluate that program with
``product_coeff`` (one coefficient; with the unsolved slot at exact zero
this yields the hat sum of the homological solve), ``product_column``
(one time-order column) and ``cauchy_product`` (full truncated series).
The explicit hat_product_* functions exist for direct use and for
testing the hat identity against full products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainExceeded
from .interval import (
    CInterval,
    Interval,
    _iadd_arr,
    _imul_arr,
    _imul_arr_fast,
    _isub_arr,
    _pad_sum,
    _pad_sum_fast,
)


class ScalarSeries2:
    """One component: a coefficient grid of shape (M+1, N+1).

    Mutable while a builder fills it (set_coeff), treated as immutable
    afterwards; the arithmetic never mutates its operands.
    """

    __slots__ = ("rlo", "rhi", "ilo", "ihi")

    def __init__(self, rlo, rhi, ilo, ihi):
        self.rlo = np.asarray(rlo, dtype=float)
        self.rhi = np.asarray(rhi, dtype=float)
        self.ilo = np.asarray(ilo, dtype=float)
        self.ihi = np.asarray(ihi, dtype=float)
        if not (self.rlo.shape == self.rhi.shape == self.ilo.shape == self.ihi.shape):
            raise ValueError("coefficient arrays must share a shape")
        if self.rlo.ndim != 2:
            raise ValueError("coefficient arrays must be 2-d")
        if np.any(self.rlo > self.rhi) or np.any(self.ilo > self.ihi):
            raise ValueError("invalid interval endpoints in coefficients")

    # -- construction ---------------------------------------------------

    @classmethod
    def zeros(cls, M: int, N: int) -> "ScalarSeries2":
        z = np.zeros((M + 1, N + 1))
        return cls(z, z.copy(), z.copy(), z.copy())

    @classmethod
    def from_complex_points(cls, grid) -> "ScalarSeries2":
        a = np.asarray(grid, dtype=complex)
        return cls(a.real.copy(), a.real.copy(), a.imag.copy(), a.imag.copy())

    def copy(self) -> "ScalarSeries2":
        return ScalarSeries2(self.rlo.copy(), self.rhi.copy(),
                             self.ilo.copy(), self.ihi.copy())

    # -- shape and access -----------------------------------------------

    @property
    def orders(self) -> tuple[int, int]:
        return self.rlo.shape[0] - 1, self.rlo.shape[1] - 1

    def coeff(self, m: int, n: int) -> CInterval:
        return CInterval(Interval(self.rlo[m, n], self.rhi[m, n]),
                         Interval(self.ilo[m, n], self.ihi[m, n]))

    def set_coeff(self, m: int, n: int, c: CInterval) -> None:
        self.rlo[m, n] = c.re.lo
        self.rhi[m, n] = c.re.hi
        self.ilo[m, n] = c.im.lo
        self.ihi[m, n] = c.im.hi

    def mid_grid(self) -> np.ndarray:
        return 0.5 * (self.rlo + self.rhi) + 1j * 0.5 * (self.ilo + self.ihi)

    def max_coeff_mag(self) -> float:
        return float(np.max(np.maximum(np.abs(self.rlo), np.abs(self.rhi))
                            + np.maximum(np.abs(self.ilo), np.abs(self.ihi))))

    # -- linear operations ----------------------------------------------

    def __add__(self, other: "ScalarSeries2") -> "ScalarSeries2":
        rlo, rhi = _iadd_arr(self.rlo, self.rhi, other.rlo, other.rhi)
        ilo, ihi = _iadd_arr(self.ilo, self.ihi, other.ilo, other.ihi)
        return ScalarSeries2(rlo, rhi, ilo, ihi)

    def __sub__(self, other: "ScalarSeries2") -> "ScalarSeries2":
        rlo, rhi = _isub_arr(self.rlo, self.rhi, other.rlo, other.rhi)
        ilo, ihi = _isub_arr(self.ilo, self.ihi, other.ilo, other.ihi)
        return ScalarSeries2(rlo, rhi, ilo, ihi)

    def __neg__(self) -> "ScalarSeries2":
        return ScalarSeries2(-self.rhi, -self.rlo, -self.ihi, -self.ilo)

    def scale(self, c: CInterval) -> "ScalarSeries2":
        """Multiply every coefficient by a complex interval scalar."""
        p1l, p1h = _imul_arr(self.rlo, self.rhi, c.re.lo, c.re.hi)
        p2l, p2h = _imul_arr(self.ilo, self.ihi, c.im.lo, c.im.hi)
        p3l, p3h = _imul_arr(self.rlo, self.rhi, c.im.lo, c.im.hi)
        p4l, p4h = _imul_arr(self.ilo, self.ihi, c.re.lo, c.re.hi)
        rlo, rhi = _isub_arr(p1l, p1h, p2l, p2h)
        ilo, ihi = _iadd_arr(p3l, p3h, p4l, p4h)
        return ScalarSeries2(rlo, rhi, ilo, ihi)

    def shift_const(self, c: CInterval) -> "ScalarSeries2":
        """Add a constant to the (0, 0) coefficient."""
        out = self.copy()
        out.set_coeff(0, 0, self.coeff(0, 0) + c)
        return out

    # -- calculus --------------------------------------------------------

    def deriv_z1(self) -> "ScalarSeries2":
        """Derivative in the first variable, orders (M-1, N)."""
        M, N = self.orders
        if M == 0:
            return ScalarSeries2.zeros(0, N)
        mult = np.arange(1, M + 1)[:, None].astype(float)
        rlo, rhi = _imul_arr(self.rlo[1:], self.rhi[1:], mult, mult)
        ilo, ihi = _imul_arr(self.ilo[1:], self.ihi[1:], mult, mult)
        return ScalarSeries2(rlo, rhi, ilo, ihi)

    def deriv_z2(self) -> "ScalarSeries2":
        """Derivative in the second variable, orders (M, N-1)."""
        M, N = self.orders
        if N == 0:
            return ScalarSeries2.zeros(M, 0)
        mult = np.arange(1, N + 1)[None, :].astype(float)
        rlo, rhi = _imul_arr(self.rlo[:, 1:], self.rhi[:, 1:], mult, mult)
        ilo, ihi = _imul_arr(self.ilo[:, 1:], self.ihi[:, 1:], mult, mult)
        return ScalarSeries2(rlo, rhi, ilo, ihi)

    # -- evaluation ------------------------------------------------------

    def eval_box(self, z1: CInterval, z2: CInterval) -> CInterval:
        """Horner evaluation over a box of the two variables."""
        M, N = self.orders
        rows = []
        for m in range(M + 1):
            acc = self.coeff(m, N)
            for n in range(N - 1, -1, -1):
                acc = acc * z2 + self.coeff(m, n)
            rows.append(acc)
        acc = rows[M]
        for m in range(M - 1, -1, -1):
            acc = acc * z1 + rows[m]
        return acc

    def rescale(self, s: complex) -> "ScalarSeries2":
        """New series in the variable z / s: coefficients pick up s^(m+n)."""
        if s == 0:
            raise ValueError("scale must be nonzero")
        M, N = self.orders
        out = self.copy()
        pw = CInterval(Interval.from_value(1.0))
        s_iv = CInterval(Interval.from_value(float(np.real(s))),
                         Interval.from_value(float(np.imag(s))))
        powers = [pw]
        for _ in range(M + N):
            pw = pw * s_iv
            powers.append(pw)
        for m in range(M + 1):
            for n in range(N + 1):
                out.set_coeff(m, n, self.coeff(m, n) * powers[m + n])
        return out

    def conj_reflect(self) -> "ScalarSeries2":
        """The series with a_mn replaced by conjugate(a_nm) (square grids)."""
        M, N = self.orders
        if M != N:
            raise ValueError("conjugate reflection needs a square grid")
        return ScalarSeries2(self.rlo.T.copy(), self.rhi.T.copy(),
                             -self.ihi.T.copy(), -self.ilo.T.copy())


def product_coeff(a: ScalarSeries2, b: ScalarSeries2, m: int, n: int
                  ) -> CInterval:
    """Coefficient (m, n) of the Cauchy product, as one padded sum.

    Uses every pair (a_{m-j, n-k}, b_{j, k}) with j <= m, k <= n; grids
    may be larger than (m, n).  The compensated sum keeps provably
    exact sums unwidened.
    """
    arl = a.rlo[m::-1, n::-1]
    arh = a.rhi[m::-1, n::-1]
    ail = a.ilo[m::-1, n::-1]
    aih = a.ihi[m::-1, n::-1]
    brl = b.rlo[: m + 1, : n + 1]
    brh = b.rhi[: m + 1, : n + 1]
    bil = b.ilo[: m + 1, : n + 1]
    bih = b.ihi[: m + 1, : n + 1]
    p1l, p1h = _imul_arr(arl, arh, brl, brh)
    p2l, p2h = _imul_arr(ail, aih, bil, bih)
    p3l, p3h = _imul_arr(arl, arh, bil, bih)
    p4l, p4h = _imul_arr(ail, aih, brl, brh)
    rl, rh = _isub_arr(p1l, p1h, p2l, p2h)
    il, ih = _iadd_arr(p3l, p3h, p4l, p4h)
    re_lo, re_hi = _pad_sum(rl.ravel(), rh.ravel(), axis=0)
    im_lo, im_hi = _pad_sum(il.ravel(), ih.ravel(), axis=0)
    return CInterval(Interval(float(re_lo), float(re_hi)),
                     Interval(float(im_lo), float(im_hi)))


def product_column(a: ScalarSeries2, b: ScalarSeries2, n: int, M: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Column n of the Cauchy product for s-orders 0..M, as lo/hi arrays.

    One gathered tensor contraction per endpoint array replaces M + 1
    separate coefficient sums; advection consumes whole t-order
    columns, and the per-coefficient path is too slow there.  Products
    round outward by one ulp and the sums carry the a-priori gamma
    padding, so columns are always slightly wider than the exact-sum
    path.  Both grids must cover s-orders 0..M and t-orders 0..n.
    Returns (re_lo, re_hi, im_lo, im_hi), each of shape (M + 1,).
    """
    Ma, Na = a.orders
    Mb, Nb = b.orders
    if min(Ma, Mb) < M or min(Na, Nb) < n:
        raise ValueError("factor grids do not cover the requested column")
    rows = np.arange(M + 1)
    dif = rows[:, None] - rows[None, :]
    mask = (dif >= 0)[:, :, None]
    idx = np.where(dif >= 0, dif, 0)

    def gather(g: np.ndarray) -> np.ndarray:
        return np.where(mask, g[: M + 1, n::-1][idx], 0.0)

    flat = (M + 1, -1)
    brl = b.rlo[: M + 1, : n + 1][None]
    brh = b.rhi[: M + 1, : n + 1][None]
    arl, arh = gather(a.rlo), gather(a.rhi)
    p1l, p1h = _imul_arr_fast(arl, arh, brl, brh)
    a_real = not (a.ilo.any() or a.ihi.any())
    b_real = not (b.ilo.any() or b.ihi.any())
    if a_real and b_real:
        re_lo, re_hi = _pad_sum_fast(p1l.reshape(flat), p1h.reshape(flat),
                                     axis=1)
        return re_lo, re_hi, np.zeros(M + 1), np.zeros(M + 1)
    bil = b.ilo[: M + 1, : n + 1][None]
    bih = b.ihi[: M + 1, : n + 1][None]
    ail, aih = gather(a.ilo), gather(a.ihi)
    p2l, p2h = _imul_arr_fast(ail, aih, bil, bih)
    p3l, p3h = _imul_arr_fast(arl, arh, bil, bih)
    p4l, p4h = _imul_arr_fast(ail, aih, brl, brh)
    re_lo, re_hi = _pad_sum_fast(
        np.concatenate([p1l.reshape(flat), -p2h.reshape(flat)], axis=1),
        np.concatenate([p1h.reshape(flat), -p2l.reshape(flat)], axis=1),
        axis=1)
    im_lo, im_hi = _pad_sum_fast(
        np.concatenate([p3l.reshape(flat), p4l.reshape(flat)], axis=1),
        np.concatenate([p3h.reshape(flat), p4h.reshape(flat)], axis=1),
        axis=1)
    return re_lo, re_hi, im_lo, im_hi


def cauchy_product(a: ScalarSeries2, b: ScalarSeries2,
                   orders: Optional[tuple[int, int]] = None,
                   fast: bool = False) -> ScalarSeries2:
    """Full truncated Cauchy product of two series."""
    if orders is None:
        Ma, Na = a.orders
        Mb, Nb = b.orders
        orders = (max(Ma, Mb), max(Na, Nb))
    M, N = orders
    ap = _pad_to(a, M, N)
    bp = _pad_to(b, M, N)
    out = ScalarSeries2.zeros(M, N)
    if fast:
        for n in range(N + 1):
            re_lo, re_hi, im_lo, im_hi = product_column(ap, bp, n, M)
            out.rlo[:, n] = re_lo
            out.rhi[:, n] = re_hi
            out.ilo[:, n] = im_lo
            out.ihi[:, n] = im_hi
        return out
    for m in range(M + 1):
        for n in range(N + 1):
            out.set_coeff(m, n, product_coeff(ap, bp, m, n))
    return out


def _pad_to(s: ScalarSeries2, m: int, n: int) -> ScalarSeries2:
    """View of a series grid grown with zero coefficients to cover (m, n)."""
    M, N = s.orders
    if M >= m and N >= n:
        return s
    rlo = np.zeros((max(M, m) + 1, max(N, n) + 1))
    rhi = rlo.copy()
    ilo = rlo.copy()
    ihi = rlo.copy()
    rlo[: M + 1, : N + 1] = s.rlo
    rhi[: M + 1, : N + 1] = s.rhi
    ilo[: M + 1, : N + 1] = s.ilo
    ihi[: M + 1, : N + 1] = s.ihi
    return ScalarSeries2(rlo, rhi, ilo, ihi)


def _zero_at(s: ScalarSeries2, m: int, n: int) -> ScalarSeries2:
    out = _pad_to(s, m, n).copy()
    out.rlo[m, n] = 0.0
    out.rhi[m, n] = 0.0
    out.ilo[m, n] = 0.0
    out.ihi[m, n] = 0.0
    return out


def hat_product_cubic(a: ScalarSeries2, m: int, n: int) -> CInterval:
    """Coefficient (m, n) of a*a*a with every summand containing a_mn
    omitted; equals the full coefficient minus 3 a_00^2 a_mn."""
    a0 = _zero_at(a, m, n)
    sq = cauchy_product(a0, a0, orders=(m, n))
    return product_coeff(sq, a0, m, n)


def hat_product_quartic(a: ScalarSeries2, b: ScalarSeries2, m: int,
                        n: int) -> CInterval:
    """Coefficient (m, n) of a*b^3 with summands containing a_mn or b_mn
    omitted; equals the full coefficient minus 3 a_00 b_00^2 b_mn minus
    b_00^3 a_mn."""
    a0 = _zero_at(a, m, n)
    b0 = _zero_at(b, m, n)
    sq = cauchy_product(b0, b0, orders=(m, n))
    cube = cauchy_product(sq, b0, orders=(m, n))
    return product_coeff(cube, a0, m, n)


def hat_product_quintic(a: ScalarSeries2, b: ScalarSeries2, c: ScalarSeries2,
                        m: int, n: int) -> CInterval:
    """Coefficient (m, n) of a*b*c^3 with summands containing a_mn, b_mn
    or c_mn omitted; equals the full coefficient minus b_00 c_00^3 a_mn,
    a_00 c_00^3 b_mn and 3 a_00 b_00 c_00^2 c_mn."""
    a0 = _zero_at(a, m, n)
    b0 = _zero_at(b, m, n)
    c0 = _zero_at(c, m, n)
    sq = cauchy_product(c0, c0, orders=(m, n))
    cube = cauchy_product(sq, c0, orders=(m, n))
    ab = cauchy_product(a0, b0, orders=(m, n))
    return product_coeff(ab, cube, m, n)


def mag_sum_bound(s: ScalarSeries2) -> float:
    """Upper bound for sup |s| over the unit polydisc: sum of magnitudes."""
    re = np.maximum(np.abs(s.rlo), np.abs(s.rhi))
    im = np.maximum(np.abs(s.ilo), np.abs(s.ihi))
    return float(np.sum(np.hypot(re, im)) * (1.0 + 1e-14))


@dataclass
class SymmetryReport:
    """Outcome of a conjugate-symmetry check."""

    symmetric: bool
    max_defect: float
    worst_index: Optional[tuple[int, int, int]] = None  # (component, m, n)


@dataclass
class Series2:
    """A vector-valued bivariate series: one ScalarSeries2 per component.

    ``scale`` records the eigenvector scaling of the domain variables and
    ``tau`` the time rescaling of the flow direction; both are metadata
    that travel with the series into charts and certificates.  ``tail``
    is a sup bound on the truncation error, added during evaluation.
    """

    components: tuple[ScalarSeries2, ...]
    scale: complex = 1.0
    tau: float = 1.0
    real_symmetric: bool = False
    tail: float = 0.0

    def __post_init__(self):
        if not self.components:
            raise ValueError("Series2 needs at least one component")
        shapes = {c.orders for c in self.components}
        if len(shapes) != 1:
            raise ValueError("components must share orders")

    @classmethod
    def zeros(cls, dim: int, M: int, N: int, **kw) -> "Series2":
        return cls(tuple(ScalarSeries2.zeros(M, N) for _ in range(dim)), **kw)

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def orders(self) -> tuple[int, int]:
        return self.components[0].orders

    def coeff_vector(self, m: int, n: int) -> tuple[CInterval, ...]:
        return tuple(c.coeff(m, n) for c in self.components)

    def set_coeff_vector(self, m: int, n: int,
                         vals: Sequence[CInterval]) -> None:
        for c, v in zip(self.components, vals):
            c.set_coeff(m, n, v)

    def eval_box(self, z1: CInterval, z2: CInterval) -> tuple[CInterval, ...]:
        """Rigorous evaluation over a box in the unit polydisc."""
        for z in (z1, z2):
            if z.abs().hi > 1.0 + 1e-12:
                raise DomainExceeded(
                    f"evaluation box leaves the unit polydisc: |z| up to {z.abs().hi}")
        out = []
        pad = Interval(-self.tail, self.tail)
        for c in self.components:
            v = c.eval_box(z1, z2)
            if self.tail > 0.0:
                v = CInterval(v.re + pad, v.im + pad)
            out.append(v)
        return tuple(out)

    def rescale(self, s: complex) -> "Series2":
        comps = tuple(c.rescale(s) for c in self.components)
        return Series2(comps, scale=self.scale * s, tau=self.tau,
                       real_symmetric=self.real_symmetric, tail=self.tail)


def conj_symmetry_check(P: Series2, tol: float = 0.0) -> SymmetryReport:
    """Verify a_nm = conjugate(a_mn) componentwise by interval overlap.

    The defect reported is the largest midpoint distance between a_nm
    and conjugate(a_mn); symmetry holds when every pair overlaps within
    ``tol``.
    """
    M, N = P.orders
    if M != N:
        raise ValueError("symmetry check needs a square grid")
    ok = True
    worst = 0.0
    worst_idx = None
    for ci, comp in enumerate(P.components):
        refl = comp.conj_reflect()
        for m in range(M + 1):
            for n in range(N + 1):
                a = comp.coeff(m, n)
                b = refl.coeff(m, n)
                defect = max(abs(a.re.mid - b.re.mid), abs(a.im.mid - b.im.mid))
                if defect > worst:
                    worst = defect
                    worst_idx = (ci, m, n)
                gap = max(_gap(a.re, b.re), _gap(a.im, b.im))
                if gap > tol:
                    ok = False
    return SymmetryReport(symmetric=ok, max_defect=worst, worst_index=worst_idx)


def _gap(a: Interval, b: Interval) -> float:
    """Separation between two intervals (0 when they overlap)."""
    return max(0.0, a.lo - b.hi, b.lo - a.hi)
