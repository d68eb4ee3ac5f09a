"""Tests for the bivariate interval-Taylor algebra."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fourbody import taylor
from fourbody.errors import DomainExceeded
from fourbody.interval import (
    CInterval,
    CIntervalArray,
    Interval,
    IntervalArray,
    _iadd_arr,
    _imul_arr,
    _gamma,
    _isub_arr,
    _pad_sum,
    _padded_cascade,
)
from fourbody.taylor import (
    FactorEnds,
    ScalarSeries2,
    Series2,
    SymmetryReport,
    _column_plan,
    _fit,
    _zero_at,
    antidiagonal,
    cauchy_product,
    conj_symmetry_check,
    hat_product_cubic,
    horner_box,
    mag_sum_bound,
    product_antidiagonal,
    product_antidiagonals,
    product_coeff,
    product_column,
    product_columns,
)

from conftest import eval_box_loop, from_complex_points

RNG = np.random.default_rng(20240817)


def _random_series(M, N, rng=RNG, scale=1.0):
    grid = (rng.standard_normal((M + 1, N + 1))
            + 1j * rng.standard_normal((M + 1, N + 1))) * scale
    return from_complex_points(grid)


def _dyadic_series(M, N, rng=RNG):
    """Coefficients k/16 with small integer k: products and short sums
    of these stay exactly representable."""
    k = rng.integers(-8, 9, size=(M + 1, N + 1))
    j = rng.integers(-8, 9, size=(M + 1, N + 1))
    return from_complex_points(k / 16.0 + 1j * (j / 16.0))


def hat_product_quartic(a, b, m, n):
    """Coefficient (m, n) of a*b^3 with summands containing a_mn or b_mn
    omitted; equals the full coefficient minus 3 a_00 b_00^2 b_mn minus
    b_00^3 a_mn."""
    a0 = _zero_at(a, m, n)
    b0 = _zero_at(b, m, n)
    sq = cauchy_product(b0, b0, orders=(m, n))
    cube = cauchy_product(sq, b0, orders=(m, n))
    return product_coeff(cube, a0, m, n)


def hat_product_quintic(a, b, c, m, n):
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


def _product_coeff_oracle(a, b, m, n):
    """Brute-force midpoint Cauchy coefficient by index enumeration."""
    ag = a.mid()
    bg = b.mid()
    total = 0.0 + 0.0j
    for j in range(m + 1):
        for k in range(n + 1):
            total += ag[m - j, n - k] * bg[j, k]
    return total


def _assert_point_equal(c: CInterval, z: complex):
    assert c.re.lo == c.re.hi == z.real
    assert c.im.lo == c.im.hi == z.imag


class TestCauchyProduct:
    def test_one_plus_z1_times_one_plus_z2(self):
        a = from_complex_points([[1.0, 0.0], [1.0, 0.0]])
        b = from_complex_points([[1.0, 1.0], [0.0, 0.0]])
        p = cauchy_product(a, b)
        for m in range(2):
            for n in range(2):
                _assert_point_equal(p.at(m, n), 1.0 + 0.0j)

    def test_zero_series_annihilates(self):
        a = _random_series(3, 2)
        z = ScalarSeries2.zeros(3, 2)
        p = cauchy_product(a, z)
        assert np.all(p.rlo == 0.0) and np.all(p.rhi == 0.0)
        assert np.all(p.ilo == 0.0) and np.all(p.ihi == 0.0)

    def test_single_coefficient_matches_enumeration(self):
        a = _random_series(4, 3)
        b = _random_series(4, 3)
        for (m, n) in [(2, 1), (4, 3), (0, 0), (3, 0)]:
            got = product_coeff(a, b, m, n)
            want = _product_coeff_oracle(a, b, m, n)
            assert got.contains(want)

    def test_matches_symbolic_expansion(self):
        z1, z2 = sympy.symbols("z1 z2")
        rng = np.random.default_rng(7)
        ka = rng.integers(-5, 6, size=(3, 3))
        kb = rng.integers(-5, 6, size=(3, 3))
        pa = sum(int(ka[m, n]) * z1**m * z2**n
                 for m in range(3) for n in range(3))
        pb = sum(int(kb[m, n]) * z1**m * z2**n
                 for m in range(3) for n in range(3))
        expanded = sympy.Poly(sympy.expand(pa * pb), z1, z2)
        a = from_complex_points(ka.astype(float))
        b = from_complex_points(kb.astype(float))
        p = cauchy_product(a, b, orders=(2, 2))
        for m in range(3):
            for n in range(3):
                want = float(expanded.coeff_monomial(z1**m * z2**n))
                _assert_point_equal(p.at(m, n), complex(want))

    def test_commutative_exact_on_dyadic(self):
        a = _dyadic_series(3, 3)
        b = _dyadic_series(3, 3)
        ab = cauchy_product(a, b)
        ba = cauchy_product(b, a)
        assert np.array_equal(ab.rlo, ba.rlo) and np.array_equal(ab.rhi, ba.rhi)
        assert np.array_equal(ab.ilo, ba.ilo) and np.array_equal(ab.ihi, ba.ihi)

    def test_commutative_overlap_on_floats(self):
        a = _random_series(3, 3)
        b = _random_series(3, 3)
        ab = cauchy_product(a, b)
        ba = cauchy_product(b, a)
        for m in range(4):
            for n in range(4):
                x, y = ab.at(m, n), ba.at(m, n)
                assert x.re.lo <= y.re.hi and y.re.lo <= x.re.hi
                assert x.im.lo <= y.im.hi and y.im.lo <= x.im.hi

    def test_associative_within_truncation(self):
        a = _dyadic_series(2, 2)
        b = _dyadic_series(2, 2)
        c = _dyadic_series(2, 2)
        left = cauchy_product(cauchy_product(a, b, orders=(2, 2)), c,
                              orders=(2, 2))
        right = cauchy_product(a, cauchy_product(b, c, orders=(2, 2)),
                               orders=(2, 2))
        assert np.array_equal(left.rlo, right.rlo)
        assert np.array_equal(left.ihi, right.ihi)

    def test_fast_product_contains_exact(self):
        # dyadic inputs make the exact path's coefficients true values,
        # which every widened column of product_column must enclose
        a = _dyadic_series(4, 5)
        b = _dyadic_series(4, 5)
        exact = cauchy_product(a, b, orders=(4, 5))
        for n in range(6):
            fast, want = product_column(a, b, n, 4), exact[:, n]
            assert np.all(fast.lo <= want.lo) and np.all(fast.hi >= want.hi)

    @given(st.lists(st.integers(min_value=-8, max_value=8),
                    min_size=24, max_size=24))
    @settings(max_examples=50, deadline=None)
    def test_product_column_contains_exact_property(self, ints):
        vals = np.array(ints, dtype=float).reshape(2, 12) / 16.0
        grid = (vals[0] + 1j * vals[1]).reshape(4, 3)
        a = from_complex_points(grid)
        b = from_complex_points(grid[::-1, ::-1])
        for n in range(3):
            col = product_column(a, b, n, 3)
            for m in range(4):
                got = col.at(m)
                want = product_coeff(a, b, m, n)
                assert got.re.lo <= want.re.lo and got.re.hi >= want.re.hi
                assert got.im.lo <= want.im.lo and got.im.hi >= want.im.hi

    def test_product_column_rejects_small_grids(self):
        a = _dyadic_series(2, 2)
        with pytest.raises(ValueError):
            product_column(a, a, 1, 5)
        with pytest.raises(ValueError):
            product_column(a, a, 4, 2)


def _exact_column(a, b, n, M):
    """Column n of the product for rows 0..M in exact rational
    interval arithmetic: per row, the (lo, hi) Fractions of the real
    and imaginary parts of sum (a_re + i a_im)(b_re + i b_im) over the
    row's pairs, each part product the exact range of its four
    endpoint products."""
    def iv(s, part, m, k):
        return (Fraction(s.lo[part, m, k]), Fraction(s.hi[part, m, k]))

    def mul(x, y):
        ps = [p * q for p in x for q in y]
        return min(ps), max(ps)

    rows = []
    for m in range(M + 1):
        re, im = [Fraction(0)] * 2, [Fraction(0)] * 2
        for i in range(m + 1):
            for k in range(n + 1):
                ar, ai = iv(a, 0, m - i, n - k), iv(a, 1, m - i, n - k)
                br, bi = iv(b, 0, i, k), iv(b, 1, i, k)
                rr, ii = mul(ar, br), mul(ai, bi)
                ri, ir = mul(ar, bi), mul(ai, br)
                re = [re[0] + rr[0] - ii[1], re[1] + rr[1] - ii[0]]
                im = [im[0] + ri[0] + ir[0], im[1] + ri[1] + ir[1]]
        rows.append((re, im))
    return rows


def _pair_indices(M, n, w):
    """The pairs of column n, rows 0..M, as flat indices into row-major
    (M', w) part grids of a and of b: (a_{m-i, n-k}, b_{i, k}), row m
    after row m - 1, i-major within a row, and each row's first pair,
    the order that ``taylor._column_plan`` states."""
    counts = (np.arange(M + 1) + 1) * (n + 1)
    starts = np.cumsum(counts) - counts
    m = np.repeat(np.arange(M + 1), counts)
    i, k = np.divmod(np.arange(counts.sum()) - starts[m], n + 1)
    return (m - i) * w + (n - k), i * w + k, starts


def _four_candidate_columns(G, a, b, n, M, real):
    """The rows of ``product_columns`` by the four-candidate rule alone,
    for every call: every pair gathered by flat indices, the four
    endpoint products of each part product rounded to nearest, their
    min and max (the products a_im b_im negated into the real part),
    magnitudes max(-lo, hi), one ``np.add.reduceat`` over the pairs in
    ``_pair_indices``' order, each row padded by gamma_(c+1) times its
    magnitude sum plus c 2^-1074 and stepped one ulp outward, except
    the single-product row 0 of a real column 0, which is only
    stepped.  The reference for the two formers."""
    rows, cols = G.shape[-2:]
    ia, ib, starts = _pair_indices(M, n, cols)
    _, pad, tiny = _column_plan(M, n)
    parts = 1 if real else 2
    glo, ghi = (x.reshape(2, -1)[:parts] for x in (G.lo, G.hi))
    ja = np.add.outer(np.asarray(a) * (rows * cols), ia)
    jb = np.add.outer(np.asarray(b) * (rows * cols), ib)
    alo, ahi = (x.take(ja, axis=-1)[:, None] for x in (glo, ghi))
    blo, bhi = (x.take(jb, axis=-1)[None] for x in (glo, ghi))
    c = np.stack((alo * blo, alo * bhi, ahi * blo, ahi * bhi))
    plo, phi = c.min(axis=0), c.max(axis=0)
    if not real:
        plo[1, 1], phi[1, 1] = -phi[1, 1], -plo[1, 1]
    slo, shi, mag = (np.add.reduceat(x, starts, axis=-1)
                     for x in (plo, phi, np.maximum(-plo, phi)))

    def outward(lo, hi):
        return (np.fmax(np.nextafter(lo, -np.inf), -np.inf),
                np.fmin(np.nextafter(hi, np.inf), np.inf))

    if real:
        err = pad[0] * mag[0, 0] + tiny[0]
        lo, hi = np.zeros((2, 2, len(ja), M + 1))
        lo[0], hi[0] = outward(slo[0, 0] - err, shi[0, 0] + err)
        if n == 0:
            lo[0, :, 0], hi[0, :, 0] = outward(plo[0, 0, :, 0],
                                               phi[0, 0, :, 0])
        return lo, hi
    err = pad[1] * (mag[0] + mag[1, ::-1]) + tiny[1]
    return outward(slo[0] + slo[1, ::-1] - err, shi[0] + shi[1, ::-1] + err)


def _columns(G, a, b, n, M, real, ends=None):
    """``product_columns`` of the complex stack G, or, when ``real``,
    of its real halves alone, a real stack, whose rows come back with
    exact zero imaginary halves, as ``product_column`` gives them."""
    if not real:
        return product_columns(G, a, b, n, M, ends)
    return CIntervalArray.from_real(product_columns(
        IntervalArray._wrap(G.lo[0], G.hi[0]), a, b, n, M, ends))


def _one_ulp_column(a, b, n, M):
    """Column n of the product as ``product_column`` forms it, except
    that every product is stepped one ulp outward before the rows'
    sums and the same gamma padding, with no underflow term: a wider
    reference for its rows.  Returns the (lo, hi) arrays."""
    real = not (a.lo[1].any() or a.hi[1].any()
                or b.lo[1].any() or b.hi[1].any())
    parts = 1 if real else 2
    ia, ib, starts = _pair_indices(M, n, a.shape[1])
    _, pad, _ = _column_plan(M, n)
    alo, ahi = (x.reshape(2, -1)[:parts, None].take(ia, axis=-1)
                for x in (a.lo, a.hi))
    blo, bhi = (x.reshape(2, -1)[None, :parts].take(ib, axis=-1)
                for x in (b.lo, b.hi))
    c1, c2, c3, c4 = alo * blo, alo * bhi, ahi * blo, ahi * bhi
    plo = np.nextafter(np.minimum(np.minimum(c1, c2), np.minimum(c3, c4)),
                       -np.inf)
    phi = np.nextafter(np.maximum(np.maximum(c1, c2), np.maximum(c3, c4)),
                       np.inf)
    slo, shi, mag = (np.add.reduceat(x, starts, axis=-1)
                     for x in (plo, phi, np.maximum(-plo, phi)))
    if real:
        err = pad[0] * mag[0, 0]
        lo = np.nextafter(slo[0, 0] - err, -np.inf)
        hi = np.nextafter(shi[0, 0] + err, np.inf)
        if n == 0:
            lo[0], hi[0] = plo[0, 0, 0], phi[0, 0, 0]
        zero = np.zeros(M + 1)
        return np.stack((lo, zero)), np.stack((hi, zero))
    lo = np.stack((slo[0, 0] - shi[1, 1], slo[0, 1] + slo[1, 0]))
    hi = np.stack((shi[0, 0] - slo[1, 1], shi[0, 1] + shi[1, 0]))
    err = pad[1] * np.stack((mag[0, 0] + mag[1, 1], mag[0, 1] + mag[1, 0]))
    return np.nextafter(lo - err, -np.inf), np.nextafter(hi + err, np.inf)


# exact zeros, subnormals, ordinary values, magnitudes near 1e150, and
# values whose products cancel in the float sums
_COLUMN_VALUES = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, -3e-310]),
    st.sampled_from([1.0, -1.0, 3.0, 2.0 ** 60, -(2.0 ** 60)]),
    st.floats(-4.0, 4.0),
    st.builds(lambda x, neg: -x if neg else x,
              st.floats(1e149, 9e150), st.booleans()))


@st.composite
def _interval_grid(draw, M, N, real):
    """A ScalarSeries2 on the (M, N) grid whose endpoints are drawn from
    ``_COLUMN_VALUES``; exactly real when ``real``."""
    shape = (2, M + 1, N + 1)
    vals = st.lists(_COLUMN_VALUES, min_size=2 * (M + 1) * (N + 1),
                    max_size=2 * (M + 1) * (N + 1))
    ends = [np.array(draw(vals)).reshape((2,) + shape[1:])
            for _ in range(2 - real)]
    lo = np.zeros(shape)
    hi = np.zeros(shape)
    for part, e in enumerate(ends):
        lo[part], hi[part] = np.minimum(*e), np.maximum(*e)
    return ScalarSeries2._wrap(lo, hi)


class TestProductColumn:
    """``product_column`` against exact rational arithmetic, and the
    properties its per-row padding promises."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_rows_enclose_exact_column(self, data):
        real = data.draw(st.booleans())
        Ma, Na, Mb, Nb = (data.draw(st.integers(0, 3)) for _ in range(4))
        a = data.draw(_interval_grid(Ma, Na, real))
        b = data.draw(_interval_grid(Mb, Nb, real))
        M = min(Ma, Mb)
        for n in range(min(Na, Nb) + 1):
            col = product_column(a, b, n, M)
            assert col.shape == (M + 1,)
            for m, parts in enumerate(_exact_column(a, b, n, M)):
                for p, (lo, hi) in enumerate(parts):
                    assert Fraction(col.lo[p, m]) <= lo
                    assert Fraction(col.hi[p, m]) >= hi

    @pytest.mark.parametrize("real", [True, False])
    def test_padding_covers_float_summation(self, real):
        # point coefficients over 60 binades: in some rows the float
        # sum errs by more than the products' one-ulp steps cover, so
        # those rows rest on the gamma padding
        rng = np.random.default_rng(3 + real)
        M, N = 4, 24

        def grid():
            g = rng.standard_normal((M + 1, N + 1)) * 2.0 ** rng.integers(
                -30, 30, (M + 1, N + 1))
            if not real:
                g = g + 1j * rng.standard_normal((M + 1, N + 1)) \
                    * 2.0 ** rng.integers(-30, 30, (M + 1, N + 1))
            return from_complex_points(g)

        for _ in range(40):
            a, b = grid(), grid()
            col = product_column(a, b, N, M)
            for m, parts in enumerate(_exact_column(a, b, N, M)):
                for p, (lo, hi) in enumerate(parts):
                    assert Fraction(col.lo[p, m]) <= lo
                    assert Fraction(col.hi[p, m]) >= hi

    @pytest.mark.parametrize("real", [True, False])
    def test_rows_do_not_depend_on_column_length(self, real):
        rng = np.random.default_rng(11 + real)
        grid = rng.standard_normal((9, 7))
        if not real:
            grid = grid + 1j * rng.standard_normal((9, 7))
        a = TestProductAntidiagonal._widen(
            from_complex_points(grid), rng, real=real)
        b = from_complex_points(grid[::-1, ::-1] * 1e-2)
        for n in range(7):
            full = product_column(a, b, n, 8)
            for M in range(9):
                col = product_column(a, b, n, M)
                assert np.array_equal(col.lo, full.lo[:, : M + 1])
                assert np.array_equal(col.hi, full.hi[:, : M + 1])

    def test_plan_arrays_are_read_only(self):
        for plan in (_column_plan(4, 3), _column_plan(0, 0)):
            bounds, *arrays = plan
            assert isinstance(bounds, tuple)
            for x in arrays:
                assert not x.flags.writeable
                with pytest.raises(ValueError):
                    x[...] = 0

    @pytest.mark.parametrize("real", [True, False])
    def test_rows_within_one_ulp_product_rows(self, real):
        # point and interval grids over 60 binades and over 400: every
        # row lies inside the row whose products are each stepped one
        # ulp outward before the same gamma padding, so it is no wider
        rng = np.random.default_rng(21 + real)

        def grid(M, N, spread):
            def part():
                return rng.standard_normal((M + 1, N + 1)) * 2.0 ** \
                    rng.integers(-spread, spread + 1, (M + 1, N + 1))
            re = part()
            im = np.zeros_like(re) if real else part()
            w = rng.random((2, M + 1, N + 1)) * 2.0 ** rng.integers(
                -45, -5, (2, M + 1, N + 1)) * rng.integers(0, 2)
            return ScalarSeries2(re - w[0] * abs(re), re + w[0] * abs(re),
                                 im - w[1] * abs(im), im + w[1] * abs(im))

        for M, N, spread in [(4, 24, 30), (10, 12, 200), (0, 5, 30),
                             (7, 0, 30), (3, 3, 0)] * 8:
            a, b = grid(M, N, spread), grid(M, N, spread)
            for n in range(N + 1):
                col = product_column(a, b, n, M)
                lo, hi = _one_ulp_column(a, b, n, M)
                assert np.all(col.lo >= lo) and np.all(col.hi <= hi)
                if real:
                    assert not col.lo[1].any() and not col.hi[1].any()

    @pytest.mark.parametrize("real", [True, False])
    def test_overflowing_rows_come_out_unbounded(self, real):
        # products of 1e200 overflow, and a row's float sums meet
        # opposite infinities: that side is unbounded, never nan
        x = 1e200 * (np.ones((2, 2)) if real else (1 + 1j) * np.ones((2, 2)))
        a = from_complex_points(x)
        with np.errstate(over="ignore", invalid="ignore"):
            col = product_column(a, a, 1, 1)
        parts = 1 if real else 2
        assert np.all(col.lo[:parts] == -np.inf)
        assert np.all(col.hi[:parts] == np.inf)

    @pytest.mark.parametrize("real", [True, False])
    def test_rows_enclose_exact_column_when_products_underflow(self, real):
        # factors near 2^-540 give products near the subnormal floor
        # 2^-1074, each rounded with an absolute error up to 2^-1075 that
        # no relative bound covers; the rows' underflow term does
        rng = np.random.default_rng(5 + real)
        M, N = 3, 3

        def part():
            return (rng.choice([-1.0, 1.0], (M + 1, N + 1))
                    * (1.0 + rng.random((M + 1, N + 1)))
                    * 2.0 ** (rng.integers(-540, -535, (M + 1, N + 1))))

        for _ in range(40):
            a, b = (from_complex_points(part() + (0 if real else 1j * part()))
                    for _ in range(2))
            for n in range(N + 1):
                col = product_column(a, b, n, M)
                for m, parts in enumerate(_exact_column(a, b, n, M)):
                    for p, (lo, hi) in enumerate(parts):
                        assert Fraction(col.lo[p, m]) <= lo
                        assert Fraction(col.hi[p, m]) >= hi


class TestProductColumns:
    """The stacked entry ``product_columns`` gives, pair by pair, the
    rows of ``product_column`` bit for bit, whatever its blocks."""

    @staticmethod
    def _stack(rng, nodes, M, N, real, kind):
        """``nodes`` interval grids on (M, N) as one CIntervalArray:
        ordinary values, values near 1e200 whose products overflow, or
        values near 2^-540 whose products underflow."""
        shape = (nodes, M + 1, N + 1)

        def part():
            x = rng.standard_normal(shape) * 2.0 ** rng.integers(-8, 3, shape)
            if kind == "overflow":
                big = rng.random(shape) < 0.3
                x = np.where(big, np.sign(x) * 1e200, x)
            elif kind == "underflow":
                x = np.sign(x) * (1.0 + rng.random(shape)) * 2.0 ** \
                    rng.integers(-540, -535, shape)
            return x

        lo, hi = np.zeros((2,) + shape), np.zeros((2,) + shape)
        for p in range(2 - real):
            x = part()
            w = abs(x) * 2.0 ** -30 * rng.integers(0, 2, shape)
            lo[p], hi[p] = x - w, x + w
        return CIntervalArray._wrap(lo, hi)

    @pytest.mark.parametrize("block", [1, 40, 4096, taylor._COLUMN_BLOCK])
    @pytest.mark.parametrize("kind", ["plain", "overflow", "underflow"])
    @pytest.mark.parametrize("real", [True, False])
    def test_equals_product_column_per_pair(self, monkeypatch, block, kind,
                                            real):
        # block budgets, in candidates, of one row per call, a few
        # rows, 4,096 (1,024 four-candidate part products) and the
        # default; column 0 holds the single-product row
        monkeypatch.setattr(taylor, "_COLUMN_BLOCK", block)
        rng = np.random.default_rng(61 + real)
        M, N, nodes = 4, 5, 6
        G = self._stack(rng, nodes, M, N, real, kind)
        a, b = rng.integers(0, nodes, (2, 9))
        for rows in (M, M - 2):
            for n in range(N + 1):
                with np.errstate(over="ignore", invalid="ignore"):
                    got = _columns(G, a, b, n, rows, real)
                    assert got.shape == (len(a), rows + 1)
                    for j in range(len(a)):
                        want = product_column(
                            ScalarSeries2._wrap(G.lo[:, a[j]], G.hi[:, a[j]]),
                            ScalarSeries2._wrap(G.lo[:, b[j]], G.hi[:, b[j]]),
                            n, rows)
                        for x, y in ((got.lo[:, j], want.lo),
                                     (got.hi[:, j], want.hi)):
                            assert (np.ascontiguousarray(x).tobytes()
                                    == y.tobytes()), (n, j)
        if kind == "overflow":
            assert np.isinf(got.hi).any()

    @staticmethod
    def _formers(monkeypatch):
        """The ``definite`` flag of every later ``_column_rows`` call:
        True where the two-candidate former ran."""
        seen = []
        rows = taylor._column_rows

        def spy(x, y, bounds, definite):
            seen.append(definite)
            return rows(x, y, bounds, definite)

        monkeypatch.setattr(taylor, "_column_rows", spy)
        return seen

    @staticmethod
    def _definite_stack(rng, nodes, M, N, big):
        """``nodes`` real grids on (M, N) whose entries are all finite
        and sign-definite: points, [0, x], [-0.0, x], [x, 0], [x, -0.0]
        and general intervals of either sign, whose ends include the
        least subnormal and normal magnitudes and, with ``big``, 1e160,
        whose products overflow."""
        shape = (nodes, M + 1, N + 1)
        special = [0.0, 5e-324, 2.2250738585072014e-308] + [1e160] * big

        def magnitude():
            x = rng.standard_normal(shape) ** 2 * 2.0 ** rng.integers(
                -8, 3, shape)
            return np.where(rng.random(shape) < 0.3,
                            rng.choice(special, shape), x)

        u, v = magnitude(), magnitude()
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        kind = rng.integers(0, 4, shape)
        lo = np.where(kind == 0, hi, lo)
        lo = np.where(kind == 1, 0.0, lo)
        lo = np.where(kind == 2, -0.0, lo)
        neg = rng.random(shape) < 0.5
        lo, hi = np.where(neg, -hi, lo), np.where(neg, -lo, hi)
        G = CIntervalArray.zeros(shape)
        G.lo[0], G.hi[0] = lo, hi
        return G

    @staticmethod
    def _assert_reference_rows(G, a, b, n, rows, real):
        with np.errstate(over="ignore", invalid="ignore"):
            got = _columns(G, a, b, n, rows, real)
            want = _four_candidate_columns(G, a, b, n, rows, real)
        for x, y in zip((got.lo, got.hi), want):
            assert np.ascontiguousarray(x).tobytes() == y.tobytes(), n
        return got

    @pytest.mark.parametrize("block", [1, 40, taylor._COLUMN_BLOCK])
    def test_two_candidates_equal_four_candidate_rows(self, monkeypatch,
                                                      block):
        # finite sign-definite factors run the two-candidate former,
        # and every row keeps the bits of the four-candidate rows,
        # column 0's single product, n = 0 and one-row columns included
        monkeypatch.setattr(taylor, "_COLUMN_BLOCK", block)
        seen = self._formers(monkeypatch)
        rng = np.random.default_rng(71)
        M, N, nodes = 4, 5, 8
        unbounded = False
        for _ in range(4):
            G = self._definite_stack(rng, nodes, M, N, big=True)
            a, b = rng.integers(0, nodes, (2, 7))
            for rows in (M, 0):
                for n in range(N + 1):
                    got = self._assert_reference_rows(G, a, b, n, rows, True)
                    unbounded |= bool(np.isinf(got.hi).any())
        assert len(seen) == 4 * 2 * (N + 1) and all(seen) and unbounded

    @pytest.mark.parametrize("block", [1, 40, taylor._COLUMN_BLOCK])
    @pytest.mark.parametrize("planted", [
        (-1.0, 2.0), (-1e-200, 1e-200), (1.0, np.inf), (-np.inf, -3.0)],
        ids=["straddler", "underflowing-straddler", "inf", "-inf"])
    def test_other_real_calls_run_four_candidates(self, monkeypatch, block,
                                                  planted):
        # one entry that straddles zero (whose lo hi underflows to -0.0
        # in the second case) or is infinite sends the whole call to the
        # four-candidate former; its rows equal the reference and, when
        # finite, enclose the exact column
        monkeypatch.setattr(taylor, "_COLUMN_BLOCK", block)
        seen = self._formers(monkeypatch)
        rng = np.random.default_rng(73)
        M, N, nodes = 3, 3, 6
        G = self._definite_stack(rng, nodes, M, N, big=False)
        a, b = rng.integers(0, nodes, (2, 5))
        G.lo[0, a[2], 0, 0], G.hi[0, a[2], 0, 0] = planted
        finite = np.isfinite(planted).all()
        for n in range(N + 1):
            got = self._assert_reference_rows(G, a, b, n, M, True)
            if not finite:
                continue
            for j in (2, 4):
                fa, fb = (ScalarSeries2._wrap(G.lo[:, i], G.hi[:, i])
                          for i in (a[j], b[j]))
                for m, parts in enumerate(_exact_column(fa, fb, n, M)):
                    assert Fraction(got.lo[0, j, m]) <= parts[0][0]
                    assert Fraction(got.hi[0, j, m]) >= parts[0][1]
        assert len(seen) == N + 1 and not any(seen)

    def test_kept_ends_switch_for_good_at_a_straddle(self, monkeypatch):
        # ends kept from call to call, each call sorting its new column:
        # every call's rows equal the four-candidate reference; the
        # two-candidate former runs until column j, whose planted entry
        # straddles zero, and never again, though the later columns are
        # sign-definite
        seen = self._formers(monkeypatch)
        rng = np.random.default_rng(83)
        M, N, nodes, j = 4, 6, 5, 3
        G = self._definite_stack(rng, nodes, M, N, big=False)
        a, b = rng.integers(0, nodes, (2, 7))
        G.lo[0, a[2], 1, j], G.hi[0, a[2], 1, j] = -0.5, 0.25
        ends = FactorEnds(a, b, M + 1)
        for n in range(N + 1):
            with np.errstate(over="ignore", invalid="ignore"):
                got = _columns(G, a, b, n, M, True, ends)
                want = _four_candidate_columns(G, a, b, n, M, True)
            for x, y in zip((got.lo, got.hi), want):
                assert np.ascontiguousarray(x).tobytes() == y.tobytes(), n
            # no column is sorted past the straddling one
            assert ends.cols == min(n, j) + 1
        assert seen == [True] * j + [False] * (N + 1 - j)

    def test_kept_ends_equal_one_sort_until_dropped(self, monkeypatch):
        # ends sorted one column per call equal one sort of the whole
        # corner; after a sorted entry is rewritten and the ends
        # dropped, the next call sorts every column again, so its
        # former and rows are those of a call that keeps no ends
        rng = np.random.default_rng(89)
        M, N, nodes = 4, 5, 6
        G = self._definite_stack(rng, nodes, M, N, big=False)
        a, b = rng.integers(0, nodes, (2, 5))
        ends = FactorEnds(a, b, M + 1)
        for n in range(N):
            _columns(G, a, b, n, M, True, ends)
            whole = FactorEnds(a, b, M + 1)
            assert whole.through(G, n) and ends.definite
            assert (ends.ends[..., : n + 1].tobytes()
                    == whole.ends[..., : n + 1].tobytes())
        G.lo[0, b[0], 0, 2], G.hi[0, b[0], 0, 2] = -1.0, 1.0
        ends.drop()
        seen = self._formers(monkeypatch)
        got = _columns(G, a, b, N, M, True, ends)
        want = _columns(G, a, b, N, M, True)
        for x, y in ((got.lo, want.lo), (got.hi, want.hi)):
            assert x.tobytes() == y.tobytes()
        assert seen == [False, False]
        with pytest.raises(ValueError, match="factor ends"):
            _columns(G, a, b, N, M - 1, True, ends)

    def test_complex_calls_run_four_candidates(self, monkeypatch):
        # sign-definite complex factors keep the four candidates
        seen = self._formers(monkeypatch)
        rng = np.random.default_rng(79)
        G = self._definite_stack(rng, 4, 3, 2, big=False)
        G.lo[1], G.hi[1] = G.lo[0], G.hi[0]
        for n in range(3):
            self._assert_reference_rows(G, [0, 1], [2, 3], n, 3, False)
        assert seen == [False] * 3

    def test_rejects_small_grids(self):
        G = CIntervalArray.zeros((2, 3, 3))
        for real in (True, False):
            with pytest.raises(ValueError):
                _columns(G, [0], [1], 3, 2, real)
            with pytest.raises(ValueError):
                _columns(G, [0], [1], 0, 3, real)


def _sentinel_antidiagonal(a, b, d, m_min):
    """``product_antidiagonal`` with the gather it had before the
    stacked entry: both factors' common (M, N) corners grown by one
    zero row, every padding summand the product of that zero sentinel
    row's entries (M + 1, 0), then the same complex product and padded
    cascade.  The reference for ``product_antidiagonals``."""
    M = min(a.orders[0], b.orders[0])
    N = min(a.orders[1], b.orders[1])
    ms, ns = antidiagonal(M, N, d, m_min)
    if not ms.size:
        return CIntervalArray.zeros((0,))
    counts = (ms + 1) * (ns + 1)
    shape = (int(counts.max()), len(ms))
    ar, ac, br, bc = (np.zeros(shape, dtype=int) for _ in range(4))
    ar[:] = br[:] = M + 1
    for r, (m, n) in enumerate(zip(ms, ns)):
        j, k = np.divmod(np.arange(counts[r]), n + 1)
        ar[: counts[r], r], ac[: counts[r], r] = m - j, n - k
        br[: counts[r], r], bc[: counts[r], r] = j, k
    g = np.array([_gamma(int(c) + 2) for c in counts])
    p = (_fit(_fit(a, M, N), M + 1, N)[ar, ac]
         * _fit(_fit(b, M, N), M + 1, N)[br, bc])
    lo, hi = _padded_cascade(np.moveaxis(p.lo, 1, 0),
                             np.moveaxis(p.hi, 1, 0), g)
    return CIntervalArray._wrap(lo, hi)


class TestProductAntidiagonals:
    """The stacked entry ``product_antidiagonals`` gives, pair by pair,
    the slots of the sentinel-row gather bit for bit."""

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("M,N", [(6, 6), (4, 7), (7, 3)])
    def test_equals_sentinel_gather(self, M, N, real):
        # every degree, beyond min(M, N) too, from m = 0 and from the
        # half solve's m_min = ceil(d / 2), which on the (4, 7) grid
        # leaves no slot at some degrees
        rng = np.random.default_rng(7 * M + N + real)
        nodes = 5
        G = TestProductColumns._stack(rng, nodes, M, N, real, "plain")
        a, b = [0, 2, 4, 1, 3], [1, 2, 0, 3, 3]
        grid = [ScalarSeries2._wrap(G.lo[:, i], G.hi[:, i])
                for i in range(nodes)]
        for d in range(1, M + N + 1):
            for m_min in (0, (d + 1) // 2):
                got = product_antidiagonals(G, a, b, d, m_min)
                assert got.shape == (len(a),) + antidiagonal(
                    M, N, d, m_min)[0].shape
                for j in range(len(a)):
                    want = _sentinel_antidiagonal(grid[a[j]], grid[b[j]],
                                                  d, m_min)
                    for x, y in ((got.lo[:, j], want.lo),
                                 (got.hi[:, j], want.hi)):
                        assert (np.ascontiguousarray(x).tobytes()
                                == y.tobytes()), (d, m_min, j)

    def test_degree_without_slots_is_empty(self):
        # a (4, 7) grid has no degree-11 slot with m >= 6
        rng = np.random.default_rng(3)
        G = TestProductColumns._stack(rng, 3, 4, 7, False, "plain")
        assert not antidiagonal(4, 7, 11, 6)[0].size
        got = product_antidiagonals(G, [0, 1], [2, 2], 11, 6)
        assert got.shape == (2, 0)
        assert got.lo.shape == got.hi.shape == (2, 2, 0)


class TestAntidiagonalOverflow:
    """Slots whose products or sums overflow come out unbounded on the
    overflowing side, never nan, as the column kernel's rows do."""

    @pytest.mark.parametrize("real", [True, False])
    def test_huge_coefficients_give_unbounded_slots(self, real):
        big = np.full((4, 4), 1e200)
        grid = big + (0.0 if real else 1j) * big
        a = from_complex_points(grid)
        b = from_complex_points(grid[::-1])
        for d in range(7):
            got = product_antidiagonal(a, b, d)
            assert not np.isnan(got.lo).any() and not np.isnan(got.hi).any()
            # every product exceeds 1e400: a lower end is a float at
            # most that, or unbounded where its sum overflows
            assert ((got.lo[0] == -np.inf) | (got.lo[0] >= 1e308)).all()
            assert (got.lo[0] == -np.inf).any() or d == 0
            assert (got.hi[0] == np.inf).all()
            if real:
                assert not got.lo[1].any() and not got.hi[1].any()

    def test_bounded_slots_keep_their_sums(self):
        # only the slot that meets the huge coefficient is unbounded
        grid = np.ones((3, 3))
        grid[2, 2] = 1e200
        a = from_complex_points(grid)
        b = from_complex_points(1e200 * np.ones((3, 3)))
        for d in range(5):
            got = product_antidiagonal(a, b, d)
            assert not np.isnan(got.lo).any() and not np.isnan(got.hi).any()
            ms, ns = antidiagonal(2, 2, d)
            for r, (m, n) in enumerate(zip(ms, ns)):
                if (m, n) == (2, 2):
                    # the product 1e400 overflows: its upper sum too
                    assert got.lo[0, r] >= 1e308 and got.hi[0, r] == np.inf
                else:
                    want = (m + 1) * (n + 1) * Fraction(1e200)
                    assert (Fraction(got.lo[0, r]) <= want
                            <= Fraction(got.hi[0, r]))


class TestHatProducts:
    """The hat coefficient plus the omitted pattern must reproduce the
    full product coefficient, exactly so on dyadic inputs."""

    def test_cubic_identity_exact(self):
        a = _dyadic_series(2, 2)
        m, n = 2, 2
        sq = cauchy_product(a, a, orders=(m, n))
        full = cauchy_product(sq, a, orders=(m, n)).at(m, n)
        a00 = a.at(0, 0)
        amn = a.at(m, n)
        hat = hat_product_cubic(a, m, n)
        pattern = a00 * a00 * amn * 3.0
        total = hat + pattern
        assert total.re == full.re
        assert total.im == full.im

    def test_quartic_identity_exact(self):
        a = _dyadic_series(2, 1)
        b = _dyadic_series(2, 1)
        m, n = 2, 1
        sq = cauchy_product(b, b, orders=(m, n))
        cube = cauchy_product(sq, b, orders=(m, n))
        full = product_coeff(cube, a, m, n)
        a00, b00 = a.at(0, 0), b.at(0, 0)
        amn, bmn = a.at(m, n), b.at(m, n)
        hat = hat_product_quartic(a, b, m, n)
        pattern = a00 * b00 * b00 * bmn * 3.0 + b00 * b00 * b00 * amn
        total = hat + pattern
        assert total.re == full.re
        assert total.im == full.im

    def test_quintic_identity_exact(self):
        a = _dyadic_series(1, 2)
        b = _dyadic_series(1, 2)
        c = _dyadic_series(1, 2)
        m, n = 1, 2
        sq = cauchy_product(c, c, orders=(m, n))
        cube = cauchy_product(sq, c, orders=(m, n))
        ab = cauchy_product(a, b, orders=(m, n))
        full = product_coeff(ab, cube, m, n)
        a00, b00, c00 = a.at(0, 0), b.at(0, 0), c.at(0, 0)
        amn, bmn, cmn = a.at(m, n), b.at(m, n), c.at(m, n)
        hat = hat_product_quintic(a, b, c, m, n)
        pattern = (b00 * c00 * c00 * c00 * amn
                   + a00 * c00 * c00 * c00 * bmn
                   + a00 * b00 * c00 * c00 * cmn * 3.0)
        total = hat + pattern
        assert total.re == full.re
        assert total.im == full.im

    @given(st.lists(st.integers(min_value=-8, max_value=8),
                    min_size=18, max_size=18))
    @settings(max_examples=50, deadline=None)
    def test_cubic_identity_exact_property(self, ints):
        vals = np.array(ints, dtype=float).reshape(2, 9) / 16.0
        grid = (vals[0] + 1j * vals[1]).reshape(3, 3)
        a = from_complex_points(grid)
        m, n = 2, 2
        sq = cauchy_product(a, a, orders=(m, n))
        full = cauchy_product(sq, a, orders=(m, n)).at(m, n)
        hat = hat_product_cubic(a, m, n)
        total = hat + a.at(0, 0) * a.at(0, 0) * a.at(m, n) * 3.0
        assert total.re == full.re
        assert total.im == full.im

    def test_hat_equals_full_when_entry_zero(self):
        a = _random_series(3, 3)
        m, n = 3, 3
        a[m, n] = CInterval(Interval.from_value(0.0))
        sq = cauchy_product(a, a, orders=(m, n))
        full = cauchy_product(sq, a, orders=(m, n)).at(m, n)
        hat = hat_product_cubic(a, m, n)
        assert hat.re == full.re
        assert hat.im == full.im

    def test_hat_encloses_true_value_floats(self):
        a = _random_series(2, 2)
        b = _random_series(2, 2)
        m, n = 2, 2
        hat = hat_product_quartic(a, b, m, n)
        # midpoint oracle with the (m, n) entries removed
        ag, bg = a.mid(), b.mid()
        ag[m, n] = 0.0
        bg[m, n] = 0.0
        total = 0.0 + 0.0j
        for j1 in range(m + 1):
            for k1 in range(n + 1):
                for j2 in range(m + 1 - j1):
                    for k2 in range(n + 1 - k1):
                        for j3 in range(m + 1 - j1 - j2):
                            for k3 in range(n + 1 - k1 - k2):
                                j4, k4 = m - j1 - j2 - j3, n - k1 - k2 - k3
                                total += (ag[j1, k1] * bg[j2, k2]
                                          * bg[j3, k3] * bg[j4, k4])
        assert hat.contains(total)


def _product_coeff_reference(a, b, m, n):
    """Coefficient (m, n) of the Cauchy product as one padded sum of
    four-product complex terms, written independently of
    ``product_antidiagonal``: pairs (a_{m-j, n-k}, b_{j, k}) with
    j <= m, k <= n, on grids at least (m, n)."""
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


class TestProductAntidiagonal:
    """One call per total degree must reproduce the single padded sum
    of every slot of the degree, endpoint for endpoint."""

    @staticmethod
    def _assert_matches_coeffs(a, b):
        M = min(a.orders[0], b.orders[0])
        N = min(a.orders[1], b.orders[1])
        for d in range(M + N + 1):
            got = product_antidiagonal(a, b, d)
            ms, ns = antidiagonal(M, N, d)
            assert got.shape == (len(ms),)
            for r, (m, n) in enumerate(zip(ms, ns)):
                want = _product_coeff_reference(a, b, int(m), int(n))
                assert got.at(r).re == want.re and got.at(r).im == want.im

    @staticmethod
    def _widen(s, rng, rel=1e-6, real=False):
        # radii so the sums are inexact and get padded
        wr = rel * np.abs(rng.standard_normal(s.rlo.shape))
        wi = 0.0 if real else rel * np.abs(rng.standard_normal(s.rlo.shape))
        return ScalarSeries2(s.rlo - wr, s.rhi + wr, s.ilo - wi, s.ihi + wi)

    @pytest.mark.parametrize("M,N", [(1, 1), (4, 4), (10, 10), (3, 7),
                                     (6, 1), (0, 4)])
    def test_random_complex_grids(self, M, N):
        rng = np.random.default_rng(M * 31 + N)
        a = self._widen(_random_series(M, N, rng), rng)
        b = self._widen(_random_series(M, N, rng, scale=1e-3), rng)
        self._assert_matches_coeffs(a, b)

    @pytest.mark.parametrize("M,N", [(4, 4), (2, 5)])
    def test_real_grids(self, M, N):
        rng = np.random.default_rng(M + 7 * N)
        grid = rng.standard_normal((M + 1, N + 1))
        a = self._widen(from_complex_points(grid), rng,
                        real=True)
        b = from_complex_points(grid[::-1])
        self._assert_matches_coeffs(a, b)
        for d in range(M + N + 1):
            got = product_antidiagonal(a, b, d)
            assert np.all(got.lo[1] == 0.0) and np.all(got.hi[1] == 0.0)

    @pytest.mark.parametrize("M,N", [(1, 1), (4, 4), (10, 10), (5, 3)])
    def test_dyadic_grids_stay_exact(self, M, N):
        rng = np.random.default_rng(100 + M + N)
        a = _dyadic_series(M, N, rng)
        b = _dyadic_series(M, N, rng)
        self._assert_matches_coeffs(a, b)
        for d in range(M + N + 1):
            got = product_antidiagonal(a, b, d)
            assert np.array_equal(got.lo, got.hi)

    def test_cancelling_sums(self):
        # b is the float reciprocal series of a, so every coefficient of
        # a*b but the first cancels to rounding level; there the gamma
        # padding sets the endpoints, and each slot needs its own count
        rng = np.random.default_rng(11)
        M, N = 8, 8
        ag = 0.5 * (rng.standard_normal((M + 1, N + 1))
                    + 1j * rng.standard_normal((M + 1, N + 1)))
        ag[0, 0] = 1.0
        bg = np.zeros_like(ag)
        for m in range(M + 1):
            for n in range(N + 1):
                acc = 1.0 if (m, n) == (0, 0) else 0.0
                for j in range(m + 1):
                    for k in range(n + 1):
                        if (j, k) != (0, 0):
                            acc -= ag[j, k] * bg[m - j, n - k]
                bg[m, n] = acc
        a = from_complex_points(ag)
        b = from_complex_points(bg)
        self._assert_matches_coeffs(a, b)

    def test_operands_of_different_orders(self):
        rng = np.random.default_rng(5)
        a = self._widen(_random_series(6, 3, rng), rng)
        b = self._widen(_random_series(4, 5, rng), rng)
        self._assert_matches_coeffs(a, b)

    def test_cauchy_product_is_per_degree(self):
        rng = np.random.default_rng(9)
        a = self._widen(_random_series(4, 6, rng), rng)
        b = self._widen(_random_series(5, 2, rng), rng)
        p = cauchy_product(a, b, orders=(3, 4))
        assert p.orders == (3, 4)
        for m in range(4):
            for n in range(5):
                want = _product_coeff_reference(
                    _fit_grid(a, 3, 4), _fit_grid(b, 3, 4), m, n)
                assert p.at(m, n).re == want.re
                assert p.at(m, n).im == want.im


def _fit_grid(s, M, N):
    """The series zero-padded or truncated to the (M, N) grid."""
    out = ScalarSeries2.zeros(M, N)
    k, ell = min(s.orders[0], M) + 1, min(s.orders[1], N) + 1
    for f in ("rlo", "rhi", "ilo", "ihi"):
        getattr(out, f)[:k, :ell] = getattr(s, f)[:k, :ell]
    return out


class TestNaNEndpoints:
    def test_series_rejects_nan(self):
        z = np.zeros((2, 2))
        bad = z.copy()
        bad[1, 0] = np.nan
        with pytest.raises(ValueError):
            ScalarSeries2(bad, z, z, z)
        with pytest.raises(ValueError):
            ScalarSeries2(z, z, z, bad)


class TestEvaluation:
    def test_constant_series(self):
        a = from_complex_points([[2.5 + 0.5j]])
        v = a.eval_box(CInterval(Interval(-1.0, 1.0)), CInterval(Interval(-1.0, 1.0)))
        assert v.re == Interval(2.5, 2.5)
        assert v.im == Interval(0.5, 0.5)

    def test_pure_power_contains_unit_range(self):
        M = 4
        grid = np.zeros((M + 1, 1), dtype=complex)
        grid[M, 0] = 1.0
        a = from_complex_points(grid)
        v = a.eval_box(CInterval(Interval(-1.0, 1.0)), CInterval(Interval.from_value(0.0)))
        assert v.re.contains(1.0) and v.re.contains(-1.0)

    def test_sampling_oracle(self):
        a = _random_series(3, 4)
        rng = np.random.default_rng(11)
        for _ in range(20):
            c1 = complex(*(rng.uniform(-0.5, 0.5, 2)))
            c2 = complex(*(rng.uniform(-0.5, 0.5, 2)))
            w = rng.uniform(0.0, 0.2)
            z1 = CInterval(Interval(c1.real - w, c1.real + w),
                           Interval(c1.imag - w, c1.imag + w))
            z2 = CInterval(Interval(c2.real - w, c2.real + w),
                           Interval(c2.imag - w, c2.imag + w))
            box = a.eval_box(z1, z2)
            g = a.mid()
            for _ in range(50):
                p1 = c1 + complex(*(rng.uniform(-w, w, 2)))
                p2 = c2 + complex(*(rng.uniform(-w, w, 2)))
                val = sum(g[m, n] * p1**m * p2**n
                          for m in range(4) for n in range(5))
                pad = 1e-10
                assert box.re.lo - pad <= val.real <= box.re.hi + pad
                assert box.im.lo - pad <= val.imag <= box.im.hi + pad

    def test_inclusion_monotone(self):
        a = _random_series(3, 3)
        inner1 = CInterval(Interval(0.1, 0.2), Interval(-0.1, 0.0))
        outer1 = CInterval(Interval(0.0, 0.3), Interval(-0.2, 0.1))
        inner2 = CInterval(Interval(-0.4, -0.3), Interval(0.2, 0.3))
        outer2 = CInterval(Interval(-0.5, -0.2), Interval(0.1, 0.4))
        vi = a.eval_box(inner1, inner2)
        vo = a.eval_box(outer1, outer2)
        assert vi.re.is_subset(vo.re)
        assert vi.im.is_subset(vo.im)


def _random_box(rng, r=0.45, w=0.05):
    """A complex box of half-width up to w around a point of modulus at
    most about r."""
    c = rng.uniform(-r, r, 2)
    h = rng.uniform(0.0, w, 2)
    return CInterval(Interval(c[0] - h[0], c[0] + h[0]),
                     Interval(c[1] - h[1], c[1] + h[1]))


def _widened(a, rng, rel=1e-3):
    """The series with every coefficient box widened by a random
    relative radius, so the products meet wide intervals."""
    w = rng.uniform(0.0, rel, (2,) + a.shape) * np.abs(a.lo)
    return ScalarSeries2._wrap(a.lo - w, a.hi + w)


def _encloses(outer, inner):
    return (outer.re.lo <= inner.re.lo and inner.re.hi <= outer.re.hi
            and outer.im.lo <= inner.im.lo and inner.im.hi <= outer.im.hi)


class TestHornerBox:
    """The one stacked Horner pass against the per-coefficient scalar
    loop it replaced: equal endpoints inside the magnitude guard of
    ``_imul_arr`` (``==`` on Intervals ignores the sign of a zero), an
    enclosure of the loop's outside it."""

    def test_scalar_series_equals_loop(self):
        rng = np.random.default_rng(41)
        for M, N in [(0, 0), (3, 0), (0, 4), (3, 5)]:
            a = _widened(_random_series(M, N, rng), rng)
            for _ in range(4):
                z1, z2 = _random_box(rng), _random_box(rng)
                assert a.eval_box(z1, z2) == eval_box_loop(a, z1, z2)

    def test_series_equals_loop_per_component(self):
        rng = np.random.default_rng(42)
        P = Series2([_widened(_random_series(2, 4, rng), rng)
                     for _ in range(3)])
        for _ in range(4):
            z1, z2 = _random_box(rng), _random_box(rng)
            got = P.eval_box(z1, z2)
            assert got == tuple(eval_box_loop(c, z1, z2)
                                for c in P.components)

    @pytest.mark.parametrize("planted", [1e-210, 1e160])
    def test_encloses_loop_outside_guard(self, planted):
        # coefficients whose products leave the guard: the stacked
        # product steps one ulp where the scalar one may be exact, so
        # some endpoints differ
        rng = np.random.default_rng(43)
        a = _widened(_random_series(3, 3, rng, scale=planted), rng)
        P = Series2([a, _widened(_random_series(3, 3, rng), rng)])
        differ = 0
        for _ in range(4):
            z1, z2 = _random_box(rng), _random_box(rng)
            got = P.eval_box(z1, z2)
            ref = eval_box_loop(a, z1, z2)
            assert _encloses(got[0], ref)
            differ += got[0] != ref
            assert got[1] == eval_box_loop(P.components[1], z1, z2)
        assert differ

    def test_tail_pad_and_domain_as_before(self):
        rng = np.random.default_rng(44)
        comps = [_random_series(2, 2, rng) for _ in range(2)]
        P = Series2(comps, tail=2.0 ** -20)
        pad = Interval(-P.tail, P.tail)
        z1, z2 = _random_box(rng), _random_box(rng)
        for got, c in zip(P.eval_box(z1, z2), comps):
            ref = eval_box_loop(c, z1, z2)
            assert got == CInterval(ref.re + pad, ref.im + pad)
        edge = CInterval(Interval(0.0, 1.0))
        P.eval_box(edge, edge)
        out = CInterval(Interval(0.0, 1.0), Interval(0.0, 1e-8))
        with pytest.raises(DomainExceeded):
            P.eval_box(z1, out)
        with pytest.raises(DomainExceeded):
            P.eval_box(out, z2)

    def test_real_points_take_real_grids(self, monkeypatch):
        # at exactly real points the real and imaginary grids run as one
        # real stack: equal to the loop up to the sign of a zero, with
        # no complex product; complex points still take the complex pass
        rng = np.random.default_rng(46)
        P = Series2([_widened(_random_series(3, 4, rng), rng)
                     for _ in range(3)], tail=2.0 ** -30)
        points = [CInterval(Interval.from_value(x)) for x in (-0.7, 0.0, 1.0)]
        points.append(CInterval(Interval(0.25, 0.5)))
        pad = Interval(-P.tail, P.tail)
        mul = CIntervalArray.__mul__
        calls = []
        monkeypatch.setattr(CIntervalArray, "__mul__",
                            lambda *a: calls.append(1) or mul(*a))
        for z1 in points:
            for z2 in points:
                got = P.eval_box(z1, z2)
                assert calls == []
                for g, c in zip(got, P.components):
                    ref = eval_box_loop(c, z1, z2)
                    assert g == CInterval(ref.re + pad, ref.im + pad)
                    assert c.eval_box(z1, z2) == ref
        z = CInterval(Interval.from_value(0.5), Interval.from_value(1e-3))
        P.eval_box(z, points[0])
        assert calls

    def test_real_stack(self):
        # a real stack at Interval points equals the loop on each of
        # its series, with the complex arithmetic of exactly zero
        # imaginary parts
        rng = np.random.default_rng(45)
        re = rng.standard_normal((2, 3, 4))
        w = rng.uniform(0.0, 1e-3, re.shape)
        Q = IntervalArray(re - w, re + w)
        s1, s2 = Interval(0.1, 0.125), Interval(-0.3, -0.25)
        got = horner_box(Q, s1, s2)
        zero = np.zeros((3, 4))
        for i in range(2):
            ref = eval_box_loop(ScalarSeries2(Q.lo[i], Q.hi[i], zero, zero),
                                CInterval(s1), CInterval(s2))
            assert got[i] == ref.re


@st.composite
def _magnitude_columns(draw):
    """A column of complex points: free values over a wide range, or
    one large entry among up to 3000 entries near its half ulp, which
    a recursive float sum loses one by one."""
    if draw(st.booleans()):
        vals = draw(st.lists(st.complex_numbers(
            max_magnitude=1e100, allow_nan=False, allow_infinity=False),
            min_size=1, max_size=200))
    else:
        big = draw(st.floats(1.0, 1e6))
        tiny = big * draw(st.floats(1e-17, 2e-16))
        n = draw(st.integers(1, 3000))
        vals = [tiny] * n
        vals.insert(draw(st.integers(0, n)), big)
    return from_complex_points(
        np.array(vals, dtype=complex)[:, None])


class TestMagSumBound:
    @settings(max_examples=200, deadline=None)
    @given(_magnitude_columns())
    def test_bounds_exact_sum_of_magnitudes(self, s):
        exact = sum(Fraction(v) for v in s.mag().ravel().tolist())
        assert Fraction(mag_sum_bound(s)) >= exact


def _rescale(a, s):
    """Component a rescaled by s, through a one-component Series2."""
    return Series2([a]).rescale(s).components[0]


class TestRescale:
    def test_dyadic_scale_exact(self):
        a = _dyadic_series(2, 2)
        s = 0.5
        b = _rescale(a, s)
        for m in range(3):
            for n in range(3):
                want = a.at(m, n)
                factor = s ** (m + n)
                _assert_point_equal(
                    b.at(m, n),
                    complex(want.re.lo * factor, want.im.lo * factor))

    def test_roundtrip_identity(self):
        a = _dyadic_series(2, 2)
        b = _rescale(_rescale(a, 0.5), 2.0)
        assert np.array_equal(a.rlo, b.rlo)
        assert np.array_equal(a.ihi, b.ihi)

    def test_eval_consistency(self):
        a = _random_series(3, 3)
        s = 0.37 + 0.11j
        b = _rescale(a, s)
        rng = np.random.default_rng(3)
        g = a.mid()
        for _ in range(10):
            p1 = complex(*(rng.uniform(-0.5, 0.5, 2)))
            p2 = complex(*(rng.uniform(-0.5, 0.5, 2)))
            # b(p) should enclose a(s * p) up to rescale rounding
            want = sum(g[m, n] * (s * p1)**m * (s * p2)**n
                       for m in range(4) for n in range(4))
            z1 = CInterval(Interval.from_value(p1.real), Interval.from_value(p1.imag))
            z2 = CInterval(Interval.from_value(p2.real), Interval.from_value(p2.imag))
            got = b.eval_box(z1, z2)
            pad = 1e-12
            assert got.re.lo - pad <= want.real <= got.re.hi + pad
            assert got.im.lo - pad <= want.imag <= got.im.hi + pad

    def test_matches_scalar_loop(self):
        # the one stacked product gives every coefficient the endpoints
        # of the scalar product a_mn * s^(m+n), the power by repeated
        # CInterval products from the point s
        a = _random_series(4, 3)
        a = a + a * CInterval(Interval(-1e-3, 1e-3), Interval(0.0, 2e-3))
        s = 0.37 + 0.11j
        b = _rescale(a, s)
        pw = [CInterval(1.0)]
        for _ in range(7):
            pw.append(pw[-1] * CInterval.from_complex(s))
        for m in range(5):
            for n in range(4):
                assert b.at(m, n) == a.at(m, n) * pw[m + n], (m, n)

    def test_zero_scale_rejected(self):
        a = _dyadic_series(1, 1)
        with pytest.raises(ValueError):
            _rescale(a, 0.0)


class TestSeries2Container:
    def test_mismatched_orders_rejected(self):
        with pytest.raises(ValueError):
            Series2((ScalarSeries2.zeros(1, 1), ScalarSeries2.zeros(2, 1)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Series2(())

    def test_domain_guard(self):
        P = Series2.zeros(2, 1, 1)
        big = CInterval(Interval(0.0, 1.5))
        small = CInterval(Interval.from_value(0.0))
        with pytest.raises(DomainExceeded):
            P.eval_box(big, small)

    def test_domain_guard_is_exact(self):
        # the tail holds only on the closed unit polydisc: no slack
        P = Series2.zeros(2, 1, 1, tail=0.125)
        out = CInterval(Interval.from_value(1.0 + 5e-13))
        one = CInterval(Interval.from_value(1.0))
        with pytest.raises(DomainExceeded):
            P.eval_box(one, out)
        assert P.eval_box(one, one)[0].re == Interval(-0.125, 0.125)

    def test_components_are_views_of_one_array(self):
        comps = [_random_series(3, 2) for _ in range(4)]
        P = Series2(comps, tail=0.5)
        assert P.coefs.shape == (4, 4, 3)
        assert (P.dim, P.orders) == (4, (3, 2))
        for i, c in enumerate(P.components):
            assert isinstance(c, ScalarSeries2)
            assert np.shares_memory(c.lo, P.coefs.lo)
            assert np.shares_memory(c.hi, P.coefs.hi)
            assert not np.shares_memory(c.lo, comps[i].lo)
            assert np.array_equal(c.lo, comps[i].lo)
            assert np.array_equal(c.hi, comps[i].hi)
        P.components[2][1, 1] = CInterval(7.0)
        assert P.coefs.at(2, 1, 1) == CInterval(7.0)
        # a stacked array is held as it is
        assert Series2(P.coefs).coefs is P.coefs

    def test_replace_components_rebuilds(self):
        P = Series2([_random_series(2, 2) for _ in range(3)], scale=0.5,
                    tau=-2.0, tail=0.25)
        comps = list(P.components)
        comps[1] = comps[1] * 2.0
        Q = dataclasses.replace(P, components=comps)
        assert (Q.scale, Q.tau, Q.tail) == (0.5, -2.0, 0.25)
        assert np.array_equal(Q.coefs.lo[:, 1], 2.0 * P.coefs.lo[:, 1])
        assert np.array_equal(Q.coefs.lo[:, 0], P.coefs.lo[:, 0])

    def test_json_round_trip_without_symmetry_flag(self):
        P = Series2([_random_series(2, 3) for _ in range(2)], scale=0.5j,
                    tau=3.0, tail=1e-9)
        d = P.to_json()
        assert "real_symmetric" not in d
        d["real_symmetric"] = True  # as files of earlier versions have
        Q = Series2.from_json(d)
        assert (Q.scale, Q.tau, Q.tail) == (0.5j, 3.0, 1e-9)
        assert np.array_equal(Q.coefs.lo, P.coefs.lo)
        assert np.array_equal(Q.coefs.hi, P.coefs.hi)

    def test_tail_padding(self):
        P = Series2.zeros(1, 1, 1, tail=0.125)
        z = CInterval(Interval.from_value(0.0))
        (v,) = P.eval_box(z, z)
        assert v.re == Interval(-0.125, 0.125)
        assert v.im == Interval(-0.125, 0.125)

    def test_rescale_tracks_scale(self):
        P = Series2.zeros(2, 1, 1, scale=2.0)
        Q = P.rescale(0.5)
        assert Q.scale == 1.0
        assert Q.tau == P.tau

    def test_rescale_keeps_tail_only_inside_unit_polydisc(self):
        # P(s z) on the unit polydisc reaches |w| <= |s|, where the tail
        # holds only for |s| <= 1
        P = Series2.zeros(2, 1, 1, tail=0.125)
        assert P.rescale(0.5).tail == 0.125
        assert P.rescale(-1.0).tail == 0.125
        with pytest.raises(ValueError):
            P.rescale(2.0)
        with pytest.raises(ValueError):
            P.rescale(0.8 + 0.8j)
        assert Series2.zeros(2, 1, 1).rescale(2.0).tail == 0.0


def _symmetry_loop(P):
    """Reference conjugate-symmetry check by a loop over scalar pairs."""
    M = P.orders[0]
    ok, worst, idx = True, 0.0, None
    for ci, comp in enumerate(P.components):
        for m in range(M + 1):
            for n in range(M + 1):
                a, b = comp.at(m, n), comp.at(n, m).conj()
                d = max(abs(a.re.mid - b.re.mid), abs(a.im.mid - b.im.mid))
                if d > worst:
                    worst, idx = d, (ci, m, n)
                ok = ok and a.re.overlaps(b.re) and a.im.overlaps(b.im)
    return SymmetryReport(symmetric=ok, max_defect=worst, worst_index=idx)


class TestConjSymmetry:
    def _symmetric_series(self, M):
        rng = np.random.default_rng(5)
        grid = (rng.integers(-8, 9, size=(M + 1, M + 1)) / 16.0
                + 1j * rng.integers(-8, 9, size=(M + 1, M + 1)) / 16.0)
        sym = 0.5 * (grid + np.conj(grid.T))
        return Series2((from_complex_points(sym),))

    def test_symmetric_passes(self):
        P = self._symmetric_series(3)
        rep = conj_symmetry_check(P)
        assert rep.symmetric
        assert rep.max_defect == 0.0

    def test_fault_injection_detected(self):
        P = self._symmetric_series(3)
        c = P.components[0].at(2, 1)
        P.components[0][2, 1] = CInterval(c.re,
                                          c.im + Interval.from_value(0.25))
        rep = conj_symmetry_check(P)
        assert not rep.symmetric
        assert rep.worst_index in [(0, 2, 1), (0, 1, 2)]
        assert rep.max_defect >= 0.12

    def test_real_values_on_reflected_points(self):
        P = self._symmetric_series(3)
        comp = P.components[0]
        rng = np.random.default_rng(9)
        for _ in range(10):
            z = complex(*(rng.uniform(-0.5, 0.5, 2)))
            z1 = CInterval(Interval.from_value(z.real), Interval.from_value(z.imag))
            z2 = CInterval(Interval.from_value(z.real), Interval.from_value(-z.imag))
            v = comp.eval_box(z1, z2)
            assert v.im.straddles_zero()

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_loop(self, seed):
        # the stacked check reports what a loop over the scalar pairs
        # (a_mn, conjugate(a_nm)) reports: flag, largest midpoint
        # distance and its first index in (component, m, n) order
        rng = np.random.default_rng(seed)
        comps = []
        for _ in range(3):
            k = rng.integers(-8, 9, size=(2, 5, 5)) / 16.0
            grid = k[0] + 1j * k[1]
            comps.append(from_complex_points(
                0.5 * (grid + np.conj(grid.T))))
        P = Series2(comps)
        P.coefs.hi[0] += rng.integers(0, 2, size=(3, 5, 5)) / 64.0
        for _ in range(2):
            i, m, n = rng.integers(0, (3, 5, 5))
            P.coefs.lo[1, i, m, n] += 0.5
            P.coefs.hi[1, i, m, n] += 0.5
        assert conj_symmetry_check(P) == _symmetry_loop(P)

    def test_rectangular_grid_rejected(self):
        P = Series2.zeros(1, 2, 3)
        with pytest.raises(ValueError):
            conj_symmetry_check(P)
