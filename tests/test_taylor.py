"""Tests for the bivariate interval-Taylor algebra."""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fourbody.errors import DomainExceeded
from fourbody.interval import CInterval, Interval
from fourbody.taylor import (
    ScalarSeries2,
    Series2,
    antidiagonal,
    cauchy_product,
    conj_symmetry_check,
    hat_product_cubic,
    hat_product_quartic,
    hat_product_quintic,
    product_antidiagonal,
    product_coeff,
    product_column,
)

RNG = np.random.default_rng(20240817)


def _random_series(M, N, rng=RNG, scale=1.0):
    grid = (rng.standard_normal((M + 1, N + 1))
            + 1j * rng.standard_normal((M + 1, N + 1))) * scale
    return ScalarSeries2.from_complex_points(grid)


def _dyadic_series(M, N, rng=RNG):
    """Coefficients k/16 with small integer k: products and short sums
    of these stay exactly representable."""
    k = rng.integers(-8, 9, size=(M + 1, N + 1))
    j = rng.integers(-8, 9, size=(M + 1, N + 1))
    return ScalarSeries2.from_complex_points(k / 16.0 + 1j * (j / 16.0))


def _product_coeff_oracle(a, b, m, n):
    """Brute-force midpoint Cauchy coefficient by index enumeration."""
    ag = a.mid_grid()
    bg = b.mid_grid()
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
        a = ScalarSeries2.from_complex_points([[1.0, 0.0], [1.0, 0.0]])
        b = ScalarSeries2.from_complex_points([[1.0, 1.0], [0.0, 0.0]])
        p = cauchy_product(a, b)
        for m in range(2):
            for n in range(2):
                _assert_point_equal(p.coeff(m, n), 1.0 + 0.0j)

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
        a = ScalarSeries2.from_complex_points(ka.astype(float))
        b = ScalarSeries2.from_complex_points(kb.astype(float))
        p = cauchy_product(a, b, orders=(2, 2))
        for m in range(3):
            for n in range(3):
                want = float(expanded.coeff_monomial(z1**m * z2**n))
                _assert_point_equal(p.coeff(m, n), complex(want))

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
                x, y = ab.coeff(m, n), ba.coeff(m, n)
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
        # which the widened columnwise path must enclose
        a = _dyadic_series(4, 5)
        b = _dyadic_series(4, 5)
        exact = cauchy_product(a, b, orders=(4, 5))
        fast = cauchy_product(a, b, orders=(4, 5), fast=True)
        assert np.all(fast.rlo <= exact.rlo) and np.all(fast.rhi >= exact.rhi)
        assert np.all(fast.ilo <= exact.ilo) and np.all(fast.ihi >= exact.ihi)

    @given(st.lists(st.integers(min_value=-8, max_value=8),
                    min_size=24, max_size=24))
    @settings(max_examples=50, deadline=None)
    def test_product_column_contains_exact_property(self, ints):
        vals = np.array(ints, dtype=float).reshape(2, 12) / 16.0
        grid = (vals[0] + 1j * vals[1]).reshape(4, 3)
        a = ScalarSeries2.from_complex_points(grid)
        b = ScalarSeries2.from_complex_points(grid[::-1, ::-1])
        for n in range(3):
            re_lo, re_hi, im_lo, im_hi = product_column(a, b, n, 3)
            for m in range(4):
                want = product_coeff(a, b, m, n)
                assert re_lo[m] <= want.re.lo and re_hi[m] >= want.re.hi
                assert im_lo[m] <= want.im.lo and im_hi[m] >= want.im.hi

    def test_product_column_rejects_small_grids(self):
        a = _dyadic_series(2, 2)
        with pytest.raises(ValueError):
            product_column(a, a, 1, 5)
        with pytest.raises(ValueError):
            product_column(a, a, 4, 2)


class TestHatProducts:
    """The hat coefficient plus the omitted pattern must reproduce the
    full product coefficient, exactly so on dyadic inputs."""

    def test_cubic_identity_exact(self):
        a = _dyadic_series(2, 2)
        m, n = 2, 2
        sq = cauchy_product(a, a, orders=(m, n))
        full = cauchy_product(sq, a, orders=(m, n)).coeff(m, n)
        a00 = a.coeff(0, 0)
        amn = a.coeff(m, n)
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
        a00, b00 = a.coeff(0, 0), b.coeff(0, 0)
        amn, bmn = a.coeff(m, n), b.coeff(m, n)
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
        a00, b00, c00 = a.coeff(0, 0), b.coeff(0, 0), c.coeff(0, 0)
        amn, bmn, cmn = a.coeff(m, n), b.coeff(m, n), c.coeff(m, n)
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
        a = ScalarSeries2.from_complex_points(grid)
        m, n = 2, 2
        sq = cauchy_product(a, a, orders=(m, n))
        full = cauchy_product(sq, a, orders=(m, n)).coeff(m, n)
        hat = hat_product_cubic(a, m, n)
        total = hat + a.coeff(0, 0) * a.coeff(0, 0) * a.coeff(m, n) * 3.0
        assert total.re == full.re
        assert total.im == full.im

    def test_hat_equals_full_when_entry_zero(self):
        a = _random_series(3, 3)
        m, n = 3, 3
        a.set_coeff(m, n, CInterval(Interval.from_value(0.0)))
        sq = cauchy_product(a, a, orders=(m, n))
        full = cauchy_product(sq, a, orders=(m, n)).coeff(m, n)
        hat = hat_product_cubic(a, m, n)
        assert hat.re == full.re
        assert hat.im == full.im

    def test_hat_encloses_true_value_floats(self):
        a = _random_series(2, 2)
        b = _random_series(2, 2)
        m, n = 2, 2
        hat = hat_product_quartic(a, b, m, n)
        # midpoint oracle with the (m, n) entries removed
        ag, bg = a.mid_grid(), b.mid_grid()
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


class TestProductAntidiagonal:
    """One call per total degree must reproduce ``product_coeff`` at
    every slot of the degree, endpoint for endpoint."""

    @staticmethod
    def _assert_matches_coeffs(a, b):
        M = min(a.orders[0], b.orders[0])
        N = min(a.orders[1], b.orders[1])
        for d in range(M + N + 1):
            got = product_antidiagonal(a, b, d)
            ms, ns = antidiagonal(M, N, d)
            assert all(len(part) == len(ms) for part in got)
            for r, (m, n) in enumerate(zip(ms, ns)):
                want = product_coeff(a, b, int(m), int(n))
                assert got[0][r] == want.re.lo and got[1][r] == want.re.hi
                assert got[2][r] == want.im.lo and got[3][r] == want.im.hi

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
        a = self._widen(ScalarSeries2.from_complex_points(grid), rng,
                        real=True)
        b = ScalarSeries2.from_complex_points(grid[::-1])
        self._assert_matches_coeffs(a, b)
        for d in range(M + N + 1):
            _, _, im_lo, im_hi = product_antidiagonal(a, b, d)
            assert np.all(im_lo == 0.0) and np.all(im_hi == 0.0)

    @pytest.mark.parametrize("M,N", [(1, 1), (4, 4), (10, 10), (5, 3)])
    def test_dyadic_grids_stay_exact(self, M, N):
        rng = np.random.default_rng(100 + M + N)
        a = _dyadic_series(M, N, rng)
        b = _dyadic_series(M, N, rng)
        self._assert_matches_coeffs(a, b)
        for d in range(M + N + 1):
            re_lo, re_hi, im_lo, im_hi = product_antidiagonal(a, b, d)
            assert np.array_equal(re_lo, re_hi)
            assert np.array_equal(im_lo, im_hi)

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
        a = ScalarSeries2.from_complex_points(ag)
        b = ScalarSeries2.from_complex_points(bg)
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
                want = product_coeff(_fit_grid(a, 3, 4), _fit_grid(b, 3, 4),
                                     m, n)
                assert p.coeff(m, n).re == want.re
                assert p.coeff(m, n).im == want.im


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
        a = ScalarSeries2.from_complex_points([[2.5 + 0.5j]])
        v = a.eval_box(CInterval(Interval(-1.0, 1.0)), CInterval(Interval(-1.0, 1.0)))
        assert v.re == Interval(2.5, 2.5)
        assert v.im == Interval(0.5, 0.5)

    def test_pure_power_contains_unit_range(self):
        M = 4
        grid = np.zeros((M + 1, 1), dtype=complex)
        grid[M, 0] = 1.0
        a = ScalarSeries2.from_complex_points(grid)
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
            g = a.mid_grid()
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


class TestRescale:
    def test_dyadic_scale_exact(self):
        a = _dyadic_series(2, 2)
        s = 0.5
        b = a.rescale(s)
        for m in range(3):
            for n in range(3):
                want = a.coeff(m, n)
                factor = s ** (m + n)
                _assert_point_equal(
                    b.coeff(m, n),
                    complex(want.re.lo * factor, want.im.lo * factor))

    def test_roundtrip_identity(self):
        a = _dyadic_series(2, 2)
        b = a.rescale(0.5).rescale(2.0)
        assert np.array_equal(a.rlo, b.rlo)
        assert np.array_equal(a.ihi, b.ihi)

    def test_eval_consistency(self):
        a = _random_series(3, 3)
        s = 0.37 + 0.11j
        b = a.rescale(s)
        rng = np.random.default_rng(3)
        g = a.mid_grid()
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

    def test_zero_scale_rejected(self):
        a = _dyadic_series(1, 1)
        with pytest.raises(ValueError):
            a.rescale(0.0)


class TestDerivatives:
    def test_monomial_derivatives(self):
        grid = np.zeros((3, 4), dtype=complex)
        grid[2, 3] = 5.0
        a = ScalarSeries2.from_complex_points(grid)
        d1 = a.deriv_z1()
        d2 = a.deriv_z2()
        _assert_point_equal(d1.coeff(1, 3), 10.0 + 0.0j)
        _assert_point_equal(d2.coeff(2, 2), 15.0 + 0.0j)
        assert d1.orders == (1, 3)
        assert d2.orders == (2, 2)

    def test_constant_derivative_zero(self):
        a = ScalarSeries2.from_complex_points([[3.0]])
        assert a.deriv_z1().orders == (0, 0)
        assert np.all(a.deriv_z1().rhi == 0.0)
        assert np.all(a.deriv_z2().rlo == 0.0)


class TestSeries2Container:
    def test_coeff_vector_roundtrip(self):
        P = Series2.zeros(4, 2, 2)
        vals = tuple(CInterval(Interval.from_value(float(i)),
                               Interval.from_value(-float(i)))
                     for i in range(4))
        P.set_coeff_vector(1, 2, vals)
        got = P.coeff_vector(1, 2)
        for v, w in zip(vals, got):
            assert v.re == w.re and v.im == w.im

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


class TestConjSymmetry:
    def _symmetric_series(self, M):
        rng = np.random.default_rng(5)
        grid = (rng.integers(-8, 9, size=(M + 1, M + 1)) / 16.0
                + 1j * rng.integers(-8, 9, size=(M + 1, M + 1)) / 16.0)
        sym = 0.5 * (grid + np.conj(grid.T))
        return Series2((ScalarSeries2.from_complex_points(sym),),
                       real_symmetric=True)

    def test_symmetric_passes(self):
        P = self._symmetric_series(3)
        rep = conj_symmetry_check(P)
        assert rep.symmetric
        assert rep.max_defect == 0.0

    def test_fault_injection_detected(self):
        P = self._symmetric_series(3)
        c = P.components[0].coeff(2, 1)
        P.components[0].set_coeff(
            2, 1, CInterval(c.re, c.im + Interval.from_value(0.25)))
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

    def test_rectangular_grid_rejected(self):
        P = Series2.zeros(1, 2, 3)
        with pytest.raises(ValueError):
            conj_symmetry_check(P)
