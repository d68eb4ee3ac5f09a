"""Bivariate Taylor-polynomial algebra with complex interval coefficients.

Series here represent truncated expansions P(z1, z2) = sum a_mn z1^m z2^n
whose coefficients are rectangles (complex intervals).  A ``Series2``
holds its components in one ``interval.CIntervalArray`` of shape
(dim, M+1, N+1): a (lo, hi) pair of float arrays of shape
(2, dim, M+1, N+1), the leading axis (real, imaginary), a_mn of
component i at index (i, m, n).  Every complex interval array of the
package (slots of one degree, columns, stacked chords) has that
layout.  Other modules read and write a series through that array;
only this module stacks components into one or splits it into
``ScalarSeries2`` views, the 2-D case of ``CIntervalArray``.  Only
this module and ``interval`` name the four endpoint grids; the atlas
JSON form (``Series2.to_json``) keeps them, per component, as the keys
rlo, rhi, ilo and ihi.

The module supplies the Cauchy product kernels, rigorous evaluation
over boxes by one stacked Horner pass (``horner_box``, behind both
``eval_box`` methods, which run it on real grids at real points, and
``manifold.real_chart``), rescaling of the
domain variables, and conjugate-symmetry checking.

The lifted field itself is not written here: ``polyfield`` describes it
once as a program of linear combinations and products, and its series
interpreter ``polyfield.FieldNodes`` evaluates that program with one
stacked kernel per fill, which forms every product of a dependency
level from pairs gathered straight from the interpreter's stacked
grids by a cached plan of just the summed pairs.  Filling one total
degree at a time, for ``manifold``'s homological solve, it uses
``product_antidiagonals`` (the coefficients of one total degree from a
lowest m on, exact sums; with the unsolved degree at exact zero this
yields the "hat" sums that omit every summand containing the unknown
coefficient).  Filling one time-order column at a time, behind
advection, ``manifold.field_series`` and every defect and tail bound
(``polyfield.field_defect``), it uses ``product_columns``, in
cache-sized blocks, with products rounded to nearest (two endpoint
candidates per product when every factor entry is finite and
sign-definite, four otherwise, to the same bits, the factors' inner
and outer ends kept by ``FactorEnds`` as their columns land) and float
sums each padded a priori by the gamma of its own row's term count
plus an underflow term, which covers the products' rounding as well as
the sums'.  Both take their parts, real or complex, from their grids.
``product_antidiagonal`` and ``product_column`` are their one-pair
cases, on the two-node stack of their factors.
``cauchy_product`` is the full truncated series by exact sums, one
``product_antidiagonal`` per degree, and ``product_coeff`` a single
coefficient; ``hat_product_cubic`` is built on them, to state the hat
identity and test it against full products.
``compose_affine`` is the one real kernel: Horner composition of
stacked real polynomials with the lines s -> c + h s, behind the
boundary mesh of ``manifold`` and the remeshing of ``atlas``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DomainExceeded, SymmetryViolation
from .interval import (
    CInterval,
    CIntervalArray,
    IntervalArray,
    _gamma,
    _iadd_arr,
    _imul_arr,
    _nonneg_upper,
    _of_parts,
    _padded_cascade,
    _parts,
)


class ScalarSeries2(CIntervalArray):
    """One component: the 2-D case of ``CIntervalArray``, coefficient
    a_mn at index (m, n) of a grid of shape (M+1, N+1).

    Built from the four endpoint grids, which are copied into the
    stacked storage and stay readable and writable as the views
    ``rlo``, ``rhi``, ``ilo`` and ``ihi``; ``Series2.components`` are
    views of this class into a series' one array.  Results of arithmetic
    and indexing that are 2-D are series again.  Mutable while a builder
    fills it, treated as immutable afterwards; the arithmetic never
    mutates its operands.
    """

    __slots__ = ()

    def __init__(self, rlo, rhi, ilo, ihi):
        parts = [np.asarray(x, dtype=float) for x in (rlo, rhi, ilo, ihi)]
        if len({x.shape for x in parts}) != 1:
            raise ValueError("coefficient arrays must share a shape")
        if parts[0].ndim != 2:
            raise ValueError("coefficient arrays must be 2-d")
        super().__init__(np.stack(parts[0::2]), np.stack(parts[1::2]))

    def _like(self, lo, hi) -> CIntervalArray:
        cls = ScalarSeries2 if lo.ndim == 3 else CIntervalArray
        return cls._wrap(lo, hi)

    rlo = property(lambda self: self.lo[0])
    rhi = property(lambda self: self.hi[0])
    ilo = property(lambda self: self.lo[1])
    ihi = property(lambda self: self.hi[1])

    # -- construction ---------------------------------------------------

    @classmethod
    def zeros(cls, M: int, N: int) -> "ScalarSeries2":
        return super().zeros((M + 1, N + 1))

    # -- shape and access -----------------------------------------------

    @property
    def orders(self) -> tuple[int, int]:
        return self.lo.shape[1] - 1, self.lo.shape[2] - 1

    # -- evaluation ------------------------------------------------------

    def eval_box(self, z1: CInterval, z2: CInterval) -> CInterval:
        """``horner_box`` over a box of the two variables
        (``_eval_points``)."""
        return _eval_points(self, z1, z2).at()


def horner_box(c, z1, z2):
    """sum_mn c[..., m, n] z1^m z2^n over a box, for a real
    ``IntervalArray`` c at Interval points or a ``CIntervalArray`` at
    CInterval points: acc = acc z2 + c[..., n] over every row of every
    series at once, then the rows' Horner in z1, each step one stacked
    product and one stacked directed sum.  Theorem: each step encloses
    the exact one for all operands in their boxes; inside the guard of
    ``_imul_arr`` each entry gets the endpoints of the scalar Interval
    or CInterval operation, so the result equals the scalar Horner in
    this order up to the sign of a zero, and outside it a product may
    be one ulp wider."""
    acc = c[..., -1]
    for n in range(c.shape[-1] - 2, -1, -1):
        acc = acc * z2 + c[..., n]
    val = acc[..., -1]
    for m in range(acc.shape[-1] - 2, -1, -1):
        val = val * z1 + acc[..., m]
    return val


def _eval_points(c: CIntervalArray, z1: CInterval, z2: CInterval
                 ) -> CIntervalArray:
    """``horner_box`` of the complex series stack c at the CInterval
    points z1 and z2.  When both points are exactly real, the real and
    imaginary grids run as one real stack at the real parts: one real
    product per entry and step, not the four of a complex product.
    Theorem: for x real, (a + i b) x = a x + i b x, and the complex
    product's extra terms b 0 and a 0 are exact zeros, whose directed
    sums with a x and b x are exact; so the result equals the complex
    pass's up to the sign of a zero."""
    if all(z.im.lo == 0.0 == z.im.hi for z in (z1, z2)):
        v = horner_box(IntervalArray(c.lo, c.hi), z1.re, z2.re)
        return CIntervalArray._wrap(v.lo, v.hi)
    return horner_box(c, z1, z2)


def product_coeff(a: ScalarSeries2, b: ScalarSeries2, m: int, n: int
                  ) -> CInterval:
    """Coefficient (m, n) of the Cauchy product: ``product_antidiagonal``
    on the (m, n) corner, where degree m + n has that one slot.

    Uses every pair (a_{m-j, n-k}, b_{j, k}) with j <= m, k <= n, in one
    compensated sum that keeps provably exact sums unwidened.
    """
    return product_antidiagonal(_fit(a, m, n), _fit(b, m, n), m + n).at(0)


def antidiagonal(M: int, N: int, d: int, m_min: int = 0
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Indices (m, d - m) of the total-degree-d slots of an (M, N) grid
    with m >= m_min, in increasing m."""
    ms = np.arange(max(m_min, d - N), min(M, d) + 1)
    return ms, d - ms


@functools.lru_cache(maxsize=512)
def _antidiagonal_plan(M: int, N: int, d: int, m_min: int):
    """Gather plan of ``product_antidiagonals`` on the (M, N) grid.

    Entry (t, r) of the (terms, slots) blocks ``ia`` and ``ib`` is
    summand t of slot (m, n) = antidiagonal(M, N, d, m_min)[r], the
    pair (a_{m-j, n-k}, b_{j, k}) with j-major (j, k), as flat indices
    into a row-major grid; past a slot's own term count the summands
    are padding, marked by ``pad`` and read at index 0.  ``g`` is each
    slot's summation bound for its own term count.  With no slot, all
    four are empty.
    """
    ms, ns = antidiagonal(M, N, d, m_min)
    counts = (ms + 1) * (ns + 1)
    t = np.arange(counts.max(initial=0))[:, None]
    pad = t >= counts
    j, k = np.divmod(t, ns + 1)
    ia = np.where(pad, 0, (ms - j) * (N + 1) + ns - k)
    ib = np.where(pad, 0, j * (N + 1) + k)
    g = np.array([_gamma(int(c) + 2) for c in counts])
    for x in (ia, ib, pad, g):
        x.flags.writeable = False  # shared by every caller of the cache
    return ia, ib, pad, g


def product_antidiagonals(G: CIntervalArray | IntervalArray, a: np.ndarray,
                          b: np.ndarray, d: int, m_min: int = 0
                          ) -> CIntervalArray | IntervalArray:
    """Every coefficient (m, d - m), m >= m_min, of every product
    G[a[j]] G[b[j]] of the stacked series grids ``G``, shape
    (..., M + 1, N + 1), whose grids a and b index flat over the
    leading axes, m as in ``antidiagonal``; returns shape
    (len(a), slots), of ``G``'s type.

    Every pair's summands are gathered straight from ``G`` by flat
    indices node (M + 1)(N + 1) + plan index into
    ``_antidiagonal_plan``; one product of the blocks follows, with
    the padding summands set to exact zeros, and one compensated
    cascade over the term axis.  Exact zeros leave the cascade's sum
    and errors unchanged, and each slot is padded by the gamma of its
    own term count, so every endpoint equals the single padded sum of
    that slot's terms (a -0.0 may come out as +0.0).  When degree d has
    no slot with m >= m_min the result has shape (len(a), 0).
    """
    rows, cols = G.shape[-2:]
    glo, ghi = (x.reshape(len(x), -1) for x in _parts(G))
    ia, ib, pad, g = _antidiagonal_plan(rows - 1, cols - 1, d, m_min)
    if not g.size:
        return _of_parts(*np.zeros((2, len(glo), len(a), 0)))
    ja = np.add.outer(np.asarray(a) * (rows * cols), ia)
    jb = np.add.outer(np.asarray(b) * (rows * cols), ib)
    plo, phi = _parts(
        _of_parts(glo.take(ja, axis=-1), ghi.take(ja, axis=-1))
        * _of_parts(glo.take(jb, axis=-1), ghi.take(jb, axis=-1)))
    plo[..., pad] = phi[..., pad] = 0.0
    return _of_parts(*_padded_cascade(np.moveaxis(plo, 2, 0),
                                      np.moveaxis(phi, 2, 0), g))


def product_antidiagonal(a: ScalarSeries2, b: ScalarSeries2, d: int,
                         m_min: int = 0) -> CIntervalArray:
    """Every coefficient (m, d - m), m >= m_min, of the Cauchy product
    on the grid both operands cover, m as in ``antidiagonal``: the
    one-pair case of ``product_antidiagonals``, on the two-node stack
    of that common grid.  Returns one entry per slot.
    """
    M, N = map(min, a.orders, b.orders)
    G = CIntervalArray.of([_fit(a, M, N), _fit(b, M, N)])
    return product_antidiagonals(G, [0], [1], d, m_min)[0]


@functools.lru_cache(maxsize=256)
def _column_plan(M: int, n: int):
    """Summation plan of column n, rows 0..M, of a product.

    Row m sums the c_m = (m + 1)(n + 1) pairs (a_{m-i, n-k}, b_{i, k}),
    i <= m, k <= n, i-major: rows m, m - 1, ..., 0 of a, each with its
    columns n..0, against rows 0..m of b, each with its columns 0..n.
    Laid out row after row, row m holds the pairs ``bounds[m]`` up to
    ``bounds[m + 1]``.  ``pad`` holds the rows' padding factors
    gamma_(c+1) for c = c_m real summands (pad[0]) and for the
    c = 2 c_m of a complex row (pad[1]), and ``tiny`` the matching
    underflow terms c 2^-1074.
    """
    counts = (np.arange(M + 1) + 1) * (n + 1)
    bounds = tuple(np.concatenate(([0], np.cumsum(counts))).tolist())
    pad = np.array([[_gamma(int(c) + 1) for c in counts],
                    [_gamma(2 * int(c) + 1) for c in counts]])
    tiny = np.stack((counts, 2 * counts)) * 2.0 ** -1074
    for x in (pad, tiny):
        x.flags.writeable = False  # shared by every caller of the cache
    return bounds, pad, tiny


def product_column(a: ScalarSeries2, b: ScalarSeries2, n: int, M: int
                   ) -> CIntervalArray:
    """Column n of the Cauchy product for s-orders 0..M.

    Row m sums the c_m = (m + 1)(n + 1) pairs (a_{m-i, n-k}, b_{i, k}),
    i <= m, k <= n: the one-pair case of ``product_columns``, on the
    two-node stack of the factors' (M, n) corners.  When both factors
    are exactly real only the real products are formed.  Both grids
    must cover s-orders 0..M and t-orders 0..n.  Returns shape
    (M + 1,); row m depends on m and n only, not on M.

    Theorem: a real row sums c = c_m terms x_t, the lower (upper)
    endpoints of its products; the real part of a complex row sums
    the c products a_re b_re and the c negated a_im b_im, the
    imaginary part a_re b_im and a_im b_re, so c = 2 c_m.  Each x_t
    is the min (max) of four endpoint products rounded to nearest.
    Rounding is monotone, so x_t is the rounded exact endpoint x_t*,
    and |x_t - x_t*| <= u |x_t| + 2^-1075, the last term for a product
    that underflows (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 2.2).  A float sum of c terms, in any
    order, lies within gamma_(c-1) sum |x_t| of their exact sum,
    gradual underflow included, gamma_k = k u / (1 - k u) (Rump,
    Verification methods, Acta Numerica 19 (2010)).  With
    gamma_(c-1) + u <= gamma_c, the float sum lies within
    gamma_c sum w_t + c 2^-1075 of the exact endpoint sum, where
    w_t = max(|lo_t|, |hi_t|) >= |x_t|.  The w_t are summed in floats
    too, to W with sum w_t <= W / (1 - gamma_(c-1)), and
    gamma_c / (1 - gamma_(c-1)) <= gamma_(c+1) while
    (c^2 + c - 2) u <= 1.  So each row is padded by
    gamma_(c+1) W + c 2^-1074 and then stepped one ulp outward.
    ``_gamma`` rounds gamma up with room for the relative rounding of
    the product gamma W, and the factor two on the underflow term
    covers the 2^-1075 that product can lose to underflow and the
    rounding of the padding's own sum once c >= 2; the one-ulp step
    covers the rounding of the padding's addition to the sum.  A row
    of a single product (row 0 of column 0, real factors) is that
    product's rounded endpoints, stepped one ulp outward.  A side
    whose float sums overflow comes out unbounded.

    Theorem (two candidates): call an interval sign-definite when
    lo >= 0 or hi <= 0, its inner end the one of smaller magnitude
    and its outer end the other.  For finite sign-definite a and b
    the exact product's ends are inner a inner b and outer a outer b:
    the least and the greatest with equal signs, the other way round
    with opposite signs, and |outer outer| >= |inner inner|.  Rounding
    to nearest is monotone, so the min and max of those two rounded
    candidates equal the min and max of the four rounded ones, and
    |fl(outer outer)| equals max(-lo, hi) of the four, except that a
    zero product may differ in its sign.  That sign reaches no row: a
    row is a float sum minus (plus) a padding of at least
    c 2^-1074 > 0, or a single product stepped one ulp outward, and
    neither depends on the sign of a zero.  Finite factors exclude the
    four candidates' inf 0 = nan, so a product that overflows to an
    infinity gives the same ends too.  So a real row formed from two
    candidates equals, bit for bit, the row formed from four.
    """
    (Ma, Na), (Mb, Nb) = a.orders, b.orders
    if min(Ma, Mb) < M or min(Na, Nb) < n:
        raise ValueError("factor grids do not cover the requested column")
    G = CIntervalArray.of([_fit(a, M, n), _fit(b, M, n)])
    if any(x[1].any() for x in (a.lo, a.hi, b.lo, b.hi)):
        return product_columns(G, [0], [1], n, M)[0]
    return CIntervalArray.from_real(product_columns(
        IntervalArray._wrap(G.lo[0], G.hi[0]), [0], [1], n, M)[0])


# Most endpoint candidates per block of the column kernel, for either
# former: a block's rows hold (products) (a parts) (b parts) pairs,
# each with 2 candidates (two-candidate former) or 4 (four-candidate
# former), so the four-candidate blocks keep at most 4,096 part
# products.  Both advection workloads ran their kernel calls as fast
# at 16,384 as at any larger budget, and slower at 4,096 and 8,192
_COLUMN_BLOCK = 16384


class FactorEnds:
    """The factors' inner and outer ends of one stack of k products,
    kept as their columns land, for ``product_columns`` to read.

    ``FactorEnds(a, b, rows)`` serves the products G[a[j]] G[b[j]] of
    one stacked grid ``G``; every call it is passed to must name the
    same a and b, the same grids and rows 0..rows - 1.  ``through(G,
    n)`` sorts the entries of columns ``cols``..n of every factor, the
    first factors' and then the second's, that no earlier call sorted:
    where lo >= 0 the inner end is lo and the outer hi, elsewhere the
    other way round, which is the sort of a sign-definite entry.  It
    keeps ``definite``, whether every entry sorted so far is finite and
    sign-definite (lo >= 0 or hi <= 0, each end compared with zero,
    never the sign of lo hi, which underflows), and stops sorting once
    it is False.  So after ``through(G, n)`` ``definite`` is the test
    of the whole (rows - 1, n) corner, and the ends of its columns are
    those a sort of the whole corner gives, as long as no entry of a
    sorted column changed: a writer of such an entry calls ``drop()``,
    and the next call sorts every column again.  The ends are laid out
    (end, factor, row, column) on the grid's columns, allocated on the
    first sort, so a stack never sorted, complex fills for one, holds
    none.
    """

    __slots__ = ("factors", "rows", "ends", "cols", "definite")

    def __init__(self, a, b, rows: int):
        self.factors = np.concatenate((a, b))
        self.rows = rows
        self.ends = None
        self.drop()

    def drop(self) -> None:
        """Forget every sorted column."""
        self.cols, self.definite = 0, True

    def through(self, G: CIntervalArray, n: int) -> bool:
        """Sort columns ``cols``..n of the factors of G; returns
        ``definite``."""
        if self.definite and self.cols <= n:
            rows, cols = G.shape[-2:]
            if self.ends is None:
                self.ends = np.empty((2, len(self.factors), self.rows, cols))
            lo, hi = (x[0].reshape(-1, rows, cols)[
                self.factors, : self.rows, self.cols: n + 1] for x in _parts(G))
            pos = lo >= 0.0
            if (pos | (hi <= 0.0)).all():
                inner, outer = self.ends[..., self.cols: n + 1]
                np.copyto(inner, hi)
                np.copyto(inner, lo, where=pos)
                np.copyto(outer, lo)
                np.copyto(outer, hi, where=pos)
                # an outer end is not finite when its entry is not
                self.definite = bool(np.isfinite(outer).all())
            else:
                self.definite = False
            self.cols = n + 1
        return self.definite


def product_columns(G: CIntervalArray | IntervalArray, a: np.ndarray,
                    b: np.ndarray, n: int, M: int,
                    ends: Optional[FactorEnds] = None
                    ) -> CIntervalArray | IntervalArray:
    """Column n, rows 0..M, of every product G[a[j]] G[b[j]] of the
    stacked series grids ``G``, shape (..., rows, cols), whose grids a
    and b index flat over the leading axes; returns shape
    (len(a), M + 1), of ``G``'s type: real rows of the real products
    alone, or complex rows, by the theorem of ``product_column`` an
    enclosure for any factors.  A real call
    reads its factors' inner and outer ends from ``ends``, the
    ``FactorEnds`` of these products that the caller keeps from call
    to call, which sorts only the columns no earlier call sorted; with
    ``ends`` None the call makes its own and sorts the whole (M, n)
    corner, rows 0..M and columns 0..n; a complex call reads no ends.
    Either way a real call whose
    corner entries are all finite and sign-definite runs
    ``_column_rows``' two-candidate former on those ends, and any
    other call, complex or with an entry that straddles zero or is not
    finite, its four-candidate former on the factors' lo and hi,
    gathered from ``G``; the decision and the ends are those of
    sorting the whole corner in this call.  Both formers form their
    pairs row by row in ``_column_plan``'s order, in blocks of whole
    rows of at most ``_COLUMN_BLOCK`` candidates and at least one row,
    and return the rows' sums, so a row depends on its own product
    only, not on the blocks or the other products; one finish per call
    then pads every row, steps it outward and leaves row 0 of column 0,
    a single product, unpadded.
    """
    rows, cols = G.shape[-2:]
    if rows <= M or cols <= n:
        raise ValueError("factor grids do not cover the requested column")
    bounds, pad, tiny = _column_plan(M, n)
    glo, ghi = _parts(G)
    parts, k = len(glo), len(a)
    real = parts == 1
    if real and ends is None:
        ends = FactorEnds(a, b, M + 1)
    elif ends is not None and ends.rows != M + 1:
        raise ValueError(f"factor ends of {ends.rows} rows for rows 0..{M}")
    definite = real and ends.through(G, n)
    # (end, part, product, row, column): a's corners with rows and
    # columns reversed, and b's; flattened, row m pairs x's last
    # (m + 1)(n + 1) entries with y's first
    x, y = np.empty((2, 2, parts, k, M + 1, n + 1))
    if definite:
        e = ends.ends
        x[:, 0], y[:, 0] = e[:, :k, ::-1, n::-1], e[:, k:, :, : n + 1]
    else:
        # (part, factor, row, column): the corners of a's and then b's
        # factors
        lo, hi = (z.reshape(parts, -1, rows, cols)[
            :, np.concatenate((a, b)), : M + 1, : n + 1] for z in (glo, ghi))
        for j, e in enumerate((lo, hi)):
            x[j], y[j] = e[:, :k, ::-1, ::-1], e[:, k:]
    slo, shi, mag = _column_rows(x.reshape(2, parts, k, -1),
                                 y.reshape(2, parts, k, -1), bounds, definite)
    if real:
        err = pad[0] * mag[0, 0] + tiny[0]
        if n == 0:
            # row 0 is a single product, its ends stepped outward
            err[:, 0] = 0.0
        lo, hi = slo[0, 0] - err, shi[0, 0] + err
        _outward(lo, hi)
        return IntervalArray._wrap(lo, hi)
    # real part from [re, re] and [im, im], imaginary from [re, im], [im, re]
    err = pad[1] * (mag[0] + mag[1, ::-1]) + tiny[1]
    lo, hi = slo[0] + slo[1, ::-1] - err, shi[0] + shi[1, ::-1] + err
    _outward(lo, hi)
    return CIntervalArray._wrap(lo, hi)


def _column_rows(x, y, bounds, definite):
    """The column kernel: the row sums of column n of k products, as
    (slo, shi, mag) of shape (3, parts, parts, k, rows).

    ``x`` holds the first factors' corners with rows and columns
    reversed, ``y`` the second's, both flattened to shape
    (2, parts, k, rows (n + 1)); one part means real factors.  With
    ``definite`` their two ends are every entry's inner and outer end,
    otherwise its lo and hi.  Row m multiplies x's last c_m = (m + 1)
    (n + 1) entries by y's first c_m, which lays its pairs out in the
    order of ``_column_plan``, whose ``bounds`` is passed: two
    candidates per pair, inner inner and outer outer, or four, every
    end of a by every end of b, each rounded to nearest.  Each row's
    terms are then formed as ``product_column``'s theorems state: its
    products' lower ends, upper ends and magnitudes, with the products
    a_im b_im negated for the real part of a complex row, and summed
    by one ``np.add.reduceat`` per block of rows."""
    _, parts, k, size = x.shape
    rows = len(bounds) - 1
    per_pair = k * parts * parts * (2 if definite else 4)
    # whole rows m0..m1 - 1 per block, as many as the budget takes
    blocks, m0 = [], 0
    while m0 < rows:
        m1 = m0 + 1
        while (m1 < rows and per_pair * (bounds[m1 + 1] - bounds[m0])
               <= _COLUMN_BLOCK):
            m1 += 1
        blocks.append((m0, m1))
        m0 = m1
    # one workspace per call: two candidates and room for their three
    # ends, or four candidates and their three ends
    slots = 4 if definite else 7
    work = np.empty(slots * k * parts * parts
                    * max(bounds[m1] - bounds[m0] for m0, m1 in blocks))
    if definite:
        # inner inner and outer outer, over (end, product) rows
        x, y = x.reshape(2 * k, size), y.reshape(2 * k, size)
    else:
        # (a end, b end) = [lo, lo], [lo, hi], [hi, lo], [hi, hi]
        x, y = x[:, None, :, None], y[None, :, None]
    sums = np.empty((3, parts, parts, k, rows))
    for m0, m1 in blocks:
        at = [t - bounds[m0] for t in bounds[m0: m1 + 1]]
        c = work[: slots * k * parts * parts * at[-1]].reshape(
            slots, parts, parts, k, -1)
        out = (c[:2, 0].reshape(2 * k, -1) if definite
               else c[:4].reshape(2, 2, parts, parts, k, -1))
        for s, e in zip(at, at[1:]):
            np.multiply(x[..., size - e + s:], y[..., : e - s],
                        out=out[..., s: e])
        sums[..., m0: m1] = np.add.reduceat(_row_terms(c, definite), at[:-1],
                                            axis=-1)
    return sums


def _row_terms(c, definite):
    """The lower ends, upper ends and magnitudes, shape
    (3, parts, parts, k, pairs), of the products whose candidates the
    workspace ``c`` holds, written into its last three slots: with
    ``definite`` two, inner inner and outer outer, in slots 0 and 1
    (the second overwritten), otherwise four in slots 0 to 3."""
    if definite:
        np.abs(c[1], out=c[3])
        np.maximum(c[0], c[1], out=c[2])
        np.minimum(c[0], c[1], out=c[1])
        return c[1:]
    # one product per (a part, b part): [re, re], [re, im], [im, re],
    # [im, im]
    c1, c2, c3, c4, plo, phi, mag = c
    np.maximum(c1, c2, out=phi)
    np.minimum(c1, c2, out=c1)
    np.maximum(c3, c4, out=c2)
    np.minimum(c3, c4, out=c3)
    np.minimum(c1, c3, out=plo)
    np.maximum(phi, c2, out=phi)
    if len(c1) == 2:
        # the real part subtracts the products a_im b_im: negate them
        plo[1, 1], phi[1, 1] = -phi[1, 1], -plo[1, 1]
    # max(-lo, hi) is max(|lo|, |hi|) since lo <= hi
    np.maximum(np.negative(plo, out=mag), phi, out=mag)
    return c[4:]


def _outward(lo, hi):
    """Step lo and hi one ulp outward, in place; a nan, from float sums
    of opposite infinities, becomes the unbounded side."""
    np.fmax(np.nextafter(lo, -np.inf, out=lo), -np.inf, out=lo)
    np.fmin(np.nextafter(hi, np.inf, out=hi), np.inf, out=hi)


def cauchy_product(a: ScalarSeries2, b: ScalarSeries2,
                   orders: Optional[tuple[int, int]] = None) -> ScalarSeries2:
    """Full truncated Cauchy product of two series, one
    ``product_antidiagonal`` per total degree, so every coefficient
    equals ``product_coeff``'s."""
    if orders is None:
        Ma, Na = a.orders
        Mb, Nb = b.orders
        orders = (max(Ma, Mb), max(Na, Nb))
    M, N = orders
    ap = _fit(a, M, N)
    bp = _fit(b, M, N)
    out = ScalarSeries2.zeros(M, N)
    for d in range(M + N + 1):
        out[antidiagonal(M, N, d)] = product_antidiagonal(ap, bp, d)
    return out


def _fit(s: CIntervalArray, m: int, n: int) -> CIntervalArray:
    """The array on exactly the (m, n) grid of its last two axes:
    truncated, or grown with zero coefficients; a view when no growth
    is needed.  A series grid stays a ``ScalarSeries2``."""
    *lead, rows, cols = s.shape
    if rows > m and cols > n:
        return s[..., : m + 1, : n + 1]
    shape = (2, *lead, m + 1, n + 1)
    out = s._like(np.zeros(shape), np.zeros(shape))
    k, ell = min(rows, m + 1), min(cols, n + 1)
    out[..., :k, :ell] = s[..., :k, :ell]
    return out


def _zero_at(s: ScalarSeries2, m: int, n: int) -> ScalarSeries2:
    out = _fit(s, m, n).copy()
    out[m, n] = CInterval(0.0)
    return out


def hat_product_cubic(a: ScalarSeries2, m: int, n: int) -> CInterval:
    """Coefficient (m, n) of a*a*a with every summand containing a_mn
    omitted; equals the full coefficient minus 3 a_00^2 a_mn."""
    a0 = _zero_at(a, m, n)
    sq = cauchy_product(a0, a0, orders=(m, n))
    return product_coeff(sq, a0, m, n)


def mag_sum_bound(s: CIntervalArray):
    """Upper bound for sup |s| over the unit polydisc: the sum of the
    coefficient moduli, each bounded by ``CIntervalArray.mag``.  In any
    summation order, the float sum of n nonnegative terms is within
    gamma_(n-1) of the exact sum S, so S <= sum (1 + gamma_n), and
    that product is rounded up.  The grid is s's last two axes: a
    stack of series gives an array of bounds, one sum per grid, and a
    single grid a float."""
    mags = s.mag()
    grid = mags.shape[-2] * mags.shape[-1]
    return _nonneg_upper(mags.reshape(mags.shape[:-2] + (grid,)).sum(-1),
                         grid)


def compose_affine(coefs: Sequence[IntervalArray], c, h) -> IntervalArray:
    """Coefficients in s of sum_k coefs[k](s) (c + h s)^k, by Horner.

    Each ``coefs[k]`` is a stack of real polynomials in s: the
    coefficient of s^r at index r of axis 0, the other axes
    independent columns.  ``c`` and ``h`` are float points, scalars or
    arrays broadcasting against the columns, so each column may run
    along its own line.  The partial sum starts as the last entry;
    each step multiplies it by c + h s, which adds one row, and adds
    the next entry on that entry's rows.  So a step multiplies only
    the rows populated so far.  Row r of the result is the s^r
    coefficient; there are max_k (k + rows of coefs[k]) rows.
    Theorem: ``_imul_arr`` encloses every product of a row with the
    point c or h, and ``_iadd_arr`` every sum, so by induction the
    result encloses the exact composition for every choice of the
    coefficients in their boxes.
    """
    acc = coefs[-1]
    ch = np.stack(np.broadcast_arrays(np.asarray(c, dtype=float),
                                      np.asarray(h, dtype=float)))
    ch = ch.reshape((2,) + (1,) * (acc.lo.ndim + 1 - ch.ndim) + ch.shape[1:])
    for q in reversed(coefs[:-1]):
        # products of every row with c (plo[0]) and with h (plo[1])
        plo, phi = _imul_arr(acc.lo[None], acc.hi[None], ch, ch)
        r = acc.shape[0]
        lo = np.zeros((max(r + 1, q.shape[0]),) + plo.shape[2:])
        hi = np.zeros_like(lo)
        lo[:r], hi[:r] = plo[0], phi[0]
        lo[1: r + 1], hi[1: r + 1] = _iadd_arr(lo[1: r + 1], hi[1: r + 1],
                                               plo[1], phi[1])
        rq = q.shape[0]
        lo[:rq], hi[:rq] = _iadd_arr(lo[:rq], hi[:rq], q.lo, q.hi)
        acc = IntervalArray(lo, hi)
    return acc


@dataclass
class SymmetryReport:
    """Outcome of a conjugate-symmetry check."""

    symmetric: bool
    max_defect: float
    worst_index: Optional[tuple[int, int, int]] = None  # (component, m, n)


@dataclass(init=False)
class Series2:
    """A vector-valued bivariate series: all components in one
    ``CIntervalArray`` of shape (dim, M+1, N+1), ``coefs``.

    Built from ``components``: that array, held as it is, or a sequence
    of equal-order ``ScalarSeries2``, stacked into one (``from_json``,
    ``dataclasses.replace``).  Read back, ``components`` are views of
    ``coefs``.  ``scale`` records the eigenvector scaling of the domain
    variables and ``tau`` the time rescaling of the flow direction;
    both are metadata that travel with the series into charts and
    certificates.  ``tail`` is a sup bound on the truncation error over
    the unit polydisc, added during evaluation.
    """

    # not an init field: dataclasses.replace(s, components=...) passes
    # the components and the metadata, and __init__ stacks them
    coefs: CIntervalArray = field(init=False)
    scale: complex = 1.0
    tau: float = 1.0
    tail: float = 0.0

    def __init__(self, components, scale: complex = 1.0, tau: float = 1.0,
                 tail: float = 0.0):
        coefs = components
        if not isinstance(coefs, CIntervalArray):
            # the one stacking of components; it raises ValueError for
            # no grids or unequal orders
            coefs = CIntervalArray.of(coefs)
        self.coefs = coefs
        self.scale, self.tau, self.tail = scale, tau, tail

    @classmethod
    def zeros(cls, dim: int, M: int, N: int, **kw) -> "Series2":
        return cls(CIntervalArray.zeros((dim, M + 1, N + 1)), **kw)

    @classmethod
    def from_real(cls, re: IntervalArray, **kw) -> "Series2":
        """The series with real parts ``re``, of shape (dim, M+1, N+1),
        and imaginary parts exactly zero."""
        return cls(CIntervalArray.from_real(re), **kw)

    @property
    def components(self) -> tuple[ScalarSeries2, ...]:
        """Component i as a ``ScalarSeries2`` view of ``coefs[i]``."""
        c = self.coefs
        return tuple(ScalarSeries2._wrap(c.lo[:, i], c.hi[:, i])
                     for i in range(self.dim))

    @property
    def dim(self) -> int:
        return self.coefs.shape[0]

    @property
    def orders(self) -> tuple[int, int]:
        return self.coefs.shape[1] - 1, self.coefs.shape[2] - 1

    def real_part(self) -> IntervalArray:
        """The real parts of a series whose exact coefficients are real,
        such as a phase-space arc: every imaginary enclosure must
        straddle zero, or SymmetryViolation is raised."""
        lo, hi = self.coefs.lo, self.coefs.hi
        bad = np.argwhere((lo[1] > 0.0) | (hi[1] < 0.0))
        if bad.size:
            raise SymmetryViolation(f"component {bad[0][0]} has an "
                                    "imaginary part excluding zero")
        return IntervalArray(lo[0], hi[0])

    def eval_box(self, z1: CInterval, z2: CInterval) -> tuple[CInterval, ...]:
        """Rigorous evaluation over a box in the closed unit polydisc.

        The tail bounds the truncation error only there, so each box
        must provably lie in it: DomainExceeded is raised unless the
        upper end of every |z| enclosure is at most 1."""
        for z in (z1, z2):
            if z.abs().hi > 1.0:
                raise DomainExceeded(
                    f"evaluation box leaves the unit polydisc: |z| up to {z.abs().hi}")
        v = _eval_points(self.coefs, z1, z2)
        if self.tail > 0.0:
            pad = np.full((2, 1), self.tail)
            v = v + CIntervalArray._wrap(-pad, pad)
        return tuple(v.at(i) for i in range(self.dim))

    def rescale(self, s: complex) -> "Series2":
        """The series P_s(z) = P(s z): one stacked product of the
        coefficients with the grid whose entry (m, n) encloses s^(m+n),
        so every coefficient gets the endpoints of the scalar CInterval
        product.  The powers are CInterval products from the point s,
        so they enclose the exact powers.

        The tail bounds a sup over the unit polydisc, and there s z
        ranges over the polydisc of radius |s|, so the tail carries
        over only for |s| <= 1; a positive tail with |s| > 1 raises
        ValueError."""
        if s == 0:
            raise ValueError("scale must be nonzero")
        if self.tail > 0.0 and abs(s) > 1.0:
            raise ValueError(f"tail {self.tail} bounds only |z| <= 1; "
                             f"cannot rescale by |s| = {abs(s)} > 1")
        M, N = self.orders
        s_iv = CInterval.from_complex(complex(s))
        powers = [CInterval(1.0)]
        for _ in range(M + N):
            powers.append(powers[-1] * s_iv)
        degree = np.add.outer(np.arange(M + 1), np.arange(N + 1))
        return Series2(self.coefs * CIntervalArray.of(powers)[degree],
                       scale=self.scale * s, tau=self.tau, tail=self.tail)

    def to_json(self) -> dict:
        """JSON form: metadata and every component's four endpoint
        grids as nested lists, which atlas files write in shortest
        round-trip float form."""
        sc = complex(self.scale)
        return {
            "scale": [sc.real, sc.imag],
            "tau": self.tau,
            "tail": self.tail,
            "components": [{"rlo": c.rlo.tolist(), "rhi": c.rhi.tolist(),
                            "ilo": c.ilo.tolist(), "ihi": c.ihi.tolist()}
                           for c in self.components],
        }

    @classmethod
    def from_json(cls, d: dict) -> "Series2":
        """Inverse of ``to_json``; other keys, such as the symmetry flag
        that files of earlier versions carry, are ignored."""
        comps = [ScalarSeries2(c["rlo"], c["rhi"], c["ilo"], c["ihi"])
                 for c in d["components"]]
        return cls(comps, scale=complex(d["scale"][0], d["scale"][1]),
                   tau=d["tau"], tail=d["tail"])


def conj_symmetry_check(P: Series2) -> SymmetryReport:
    """Verify a_nm = conjugate(a_mn) componentwise by interval overlap.

    The defect reported is the largest midpoint distance between a_mn
    and conjugate(a_nm), at the first index in (component, m, n) order
    that attains it (None when every defect is zero); symmetry holds
    when every pair overlaps.  One pass over the stacked coefficients.
    """
    M, N = P.orders
    if M != N:
        raise ValueError("symmetry check needs a square grid")
    lo, hi = P.coefs.lo, P.coefs.hi
    # conjugate(a_nm) at (m, n): a_nm's real part, its imaginary part negated
    rlo = np.stack((lo[0], -hi[1])).swapaxes(-1, -2)
    rhi = np.stack((hi[0], -lo[1])).swapaxes(-1, -2)
    defect = np.max(np.abs(_mid(lo, hi) - _mid(rlo, rhi)), axis=0)
    k = int(np.argmax(defect))
    worst = float(defect.flat[k])
    idx = (tuple(int(i) for i in np.unravel_index(k, defect.shape))
           if worst > 0.0 else None)
    ok = not np.any((lo > rhi) | (rlo > hi))
    return SymmetryReport(symmetric=ok, max_defect=worst, worst_index=idx)


def _mid(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Entrywise ``Interval.mid``."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = 0.5 * (lo + hi)
        return np.where(np.isfinite(m), m, 0.5 * lo + 0.5 * hi)
