"""Tests for the interval arithmetic core.

Containment is the load-bearing property: every fuzzed case checks that
the exact result (computed with rationals or mpmath) lies inside the
returned enclosure.
"""

import math
import operator
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fourbody.errors import (
    DivisionByZeroInterval,
    NegativeSqrt,
    SingularEnclosure,
)
from fourbody.interval import (
    CInterval,
    Interval,
    IntervalMatrix,
    IntervalTensor3,
    IntervalVector,
    _imul_arr,
    matrix_norm,
    matroid_norm,
    max_norm,
    vector_from_strings,
    vector_to_strings,
    verified_solve,
    verified_solve_complex,
)

N_FUZZ = 10_000


def _rand_floats(rng, n):
    """Mixed-magnitude signed floats, no inf/nan."""
    mags = rng.uniform(-30, 30, size=n)
    signs = rng.choice([-1.0, 1.0], size=n)
    return signs * np.exp(mags * np.log(2.0)) * rng.uniform(0.5, 2.0, size=n)


class TestScalarBasics:
    def test_construction_orders_endpoints(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        iv = Interval(1.0, 2.0)
        assert iv.lo == 1.0 and iv.hi == 2.0
        assert Interval.from_value(3.5) == Interval(3.5, 3.5)

    def test_exact_endpoint_add(self):
        assert Interval(1, 2) + Interval(3, 4) == Interval(4, 6)

    def test_exact_endpoint_mul(self):
        assert Interval(-1, 2) * Interval(3, 4) == Interval(-4, 8)

    def test_exact_sqrt(self):
        r = Interval(4, 9).sqrt()
        assert r == Interval(2, 3)

    def test_division_by_zero_interval_raises(self):
        with pytest.raises(DivisionByZeroInterval):
            Interval(1, 2) / Interval(-1, 1)

    def test_negative_sqrt_raises(self):
        with pytest.raises(NegativeSqrt):
            Interval(-1, 4).sqrt()

    def test_sqr_tight_across_zero(self):
        assert Interval(-2, 3).sqr() == Interval(0, 9)

    def test_pow_int(self):
        assert Interval(2, 2).pow_int(10) == Interval(1024, 1024)
        assert Interval(-2, 1).pow_int(2) == Interval(0, 4)
        assert Interval(1, 1).pow_int(0) == Interval(1, 1)

    def test_dispatcher(self):
        assert Interval(1, 2) + Interval(3, 4) == Interval(4, 6)
        assert (Interval(4, 6) - Interval(3, 4)).contains(1.0)
        assert Interval(-1, 2) * Interval(3, 4) == Interval(-4, 8)
        assert (Interval(2, 2) / Interval(2, 2)).contains(1.0)
        assert Interval(4, 9).sqrt() == Interval(2, 3)
        assert Interval(3, 3).pow_int(2) == Interval(9, 9)

    def test_predicates(self):
        iv = Interval(-1.0, 2.0)
        assert iv.contains(0.0) and iv.straddles_zero()
        assert iv.mag == 2.0 and iv.mig == 0.0
        assert Interval(-3, -1).mig == 1.0
        assert iv.is_subset(Interval(-2, 3))
        assert Interval.hull([Interval(0, 1), Interval(2, 3), -5.0]) == Interval(-5, 3)


class TestContainmentFuzz:
    """Exact results lie inside enclosures, 10^4 cases per operation."""

    def test_add_sub_mul(self):
        rng = np.random.RandomState(11)
        a = _rand_floats(rng, N_FUZZ)
        b = _rand_floats(rng, N_FUZZ)
        for x, y in zip(a, b):
            fx, fy = Fraction(x), Fraction(y)
            for op in (operator.add, operator.sub, operator.mul):
                exact = op(fx, fy)
                r = op(Interval.from_value(x), Interval.from_value(y))
                assert Fraction(r.lo) <= exact <= Fraction(r.hi), (op, x, y)

    def test_div(self):
        rng = np.random.RandomState(12)
        a = _rand_floats(rng, N_FUZZ)
        b = _rand_floats(rng, N_FUZZ)
        for x, y in zip(a, b):
            exact = operator.truediv(Fraction(x), Fraction(y))
            r = operator.truediv(Interval.from_value(x), Interval.from_value(y))
            assert Fraction(r.lo) <= exact <= Fraction(r.hi)

    def test_sqrt(self):
        rng = np.random.RandomState(13)
        with mpmath.workdps(60):
            for x in np.abs(_rand_floats(rng, N_FUZZ)):
                exact = mpmath.sqrt(mpmath.mpf(x))
                r = Interval.from_value(x).sqrt()
                assert mpmath.mpf(r.lo) <= exact <= mpmath.mpf(r.hi)

    def test_pow_int(self):
        rng = np.random.RandomState(14)
        xs = _rand_floats(rng, N_FUZZ)
        ns = rng.randint(0, 6, size=N_FUZZ)
        for x, n in zip(xs, ns):
            exact = Fraction(x) ** int(n)
            r = Interval.from_value(x).pow_int(int(n))
            assert Fraction(r.lo) <= exact <= Fraction(r.hi)

    def test_interval_operand_selections(self):
        """Point selections from interval operands stay inside the result."""
        rng = np.random.RandomState(15)
        for _ in range(2000):
            lo1, lo2 = _rand_floats(rng, 2)
            a = Interval(min(lo1, lo1 + abs(lo2)), max(lo1, lo1 + abs(lo2)))
            lo3, lo4 = _rand_floats(rng, 2)
            b = Interval(min(lo3, lo3 + abs(lo4)), max(lo3, lo3 + abs(lo4)))
            pa = rng.uniform(a.lo, a.hi)
            pb = rng.uniform(b.lo, b.hi)
            fa, fb = Fraction(pa), Fraction(pb)
            for op in (operator.add, operator.sub, operator.mul):
                exact = op(fa, fb)
                rv = op(a, b)
                assert Fraction(rv.lo) <= exact <= Fraction(rv.hi)


_finite = st.floats(allow_nan=False, allow_infinity=False,
                    min_value=-1e12, max_value=1e12)


@st.composite
def _intervals(draw):
    a = draw(_finite)
    b = draw(_finite)
    return Interval(min(a, b), max(a, b))


@st.composite
def _nested_pairs(draw):
    outer = draw(_intervals())
    t1 = draw(st.floats(min_value=0.0, max_value=1.0))
    t2 = draw(st.floats(min_value=0.0, max_value=1.0))
    lo = outer.lo + t1 * 0.5 * (outer.hi - outer.lo)
    hi = outer.hi - t2 * 0.5 * (outer.hi - outer.lo)
    inner = Interval(min(lo, hi), max(lo, hi))
    return inner, outer


class TestNaNEndpoints:
    """NaN passes ``lo > hi``; the containers must refuse it as the
    scalar Interval does."""

    def test_vector(self):
        with pytest.raises(ValueError):
            IntervalVector(np.array([0.0, np.nan]), np.array([1.0, 1.0]))

    def test_matrix(self):
        with pytest.raises(ValueError):
            IntervalMatrix(np.zeros((2, 2)), np.full((2, 2), np.nan))

    def test_tensor(self):
        lo = np.zeros((2, 2, 2))
        lo[1, 0, 1] = np.nan
        with pytest.raises(ValueError):
            IntervalTensor3(lo, np.ones((2, 2, 2)))


# ---------------------------------------------------------------------------
# the fused array product against the two-pass kernel it replaced

_SPLITTER = 134217729.0
_MAXF = 1.7976931348623157e308


def _two_pass_imul(alo, ahi, blo, bhi):
    """Reference: the two-pass kernel the fused one replaced, with the
    floor and the ceil of every endpoint product computed by separate
    passes, each with its own product and Dekker residual."""

    def residual(a, b, p):
        ca = _SPLITTER * a
        ah = ca - (ca - a)
        al = a - ah
        cb = _SPLITTER * b
        bh = cb - (cb - b)
        bl = b - bh
        return ((ah * bh - p) + ah * bl + al * bh) + al * bl

    def prod_floor(a, b):
        p = a * b
        exact_zero = (a == 0.0) | (b == 0.0)
        guard = ((np.abs(p) > 1e-200) & (np.abs(p) < 1e200)
                 & (np.abs(a) < 1e150) & (np.abs(b) < 1e150))
        e = residual(a, b, p)
        down = np.where(guard, e < 0.0, ~exact_zero)
        out = np.where(down, np.nextafter(p, -np.inf), p)
        return np.where(np.isfinite(out), out, np.where(out > 0.0, _MAXF, out))

    def prod_ceil(a, b):
        p = a * b
        exact_zero = (a == 0.0) | (b == 0.0)
        guard = ((np.abs(p) > 1e-200) & (np.abs(p) < 1e200)
                 & (np.abs(a) < 1e150) & (np.abs(b) < 1e150))
        e = residual(a, b, p)
        up = np.where(guard, e > 0.0, ~exact_zero)
        out = np.where(up, np.nextafter(p, np.inf), p)
        return np.where(np.isfinite(out), out, np.where(out < 0.0, -_MAXF, out))

    with np.errstate(all="ignore"):
        lo = np.minimum.reduce([prod_floor(alo, blo), prod_floor(alo, bhi),
                                prod_floor(ahi, blo), prod_floor(ahi, bhi)])
        hi = np.maximum.reduce([prod_ceil(alo, blo), prod_ceil(alo, bhi),
                                prod_ceil(ahi, blo), prod_ceil(ahi, bhi)])
    return lo, hi


# endpoints that hit every branch: signed zeros, infinities, small
# integers, factors at or past the split guard, products past 1e200 or
# under 1e-200, and subnormals
_EDGE = [0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 2.0, 3.0, -7.0, 0.5,
         1e150, -1e150, 3e150, 1e180, -1e-105, 1e-110, 1e-210, 5e-324,
         1.7976931348623157e308, 0.1, -1.0 / 3.0]
_edge_floats = st.one_of(
    st.sampled_from(_EDGE),
    st.floats(allow_nan=False),
    st.floats(min_value=-1e-95, max_value=1e-95, allow_nan=False),
    st.floats(min_value=-1e105, max_value=1e105, allow_nan=False),
)


@st.composite
def _interval_arrays(draw, shape):
    x = draw(hnp.arrays(np.float64, shape, elements=_edge_floats))
    y = draw(hnp.arrays(np.float64, shape, elements=_edge_floats))
    return np.minimum(x, y), np.maximum(x, y)


def _assert_bitwise(got, want):
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


class TestFusedProduct:
    @settings(max_examples=200, deadline=None)
    @given(_interval_arrays((21, 7)), _interval_arrays(()))
    def test_block_times_scalar(self, a, b):
        blo, bhi = float(b[0]), float(b[1])
        _assert_bitwise(_imul_arr(*a, blo, bhi),
                        _two_pass_imul(*a, blo, bhi))
        _assert_bitwise(_imul_arr(blo, bhi, *a),
                        _two_pass_imul(blo, bhi, *a))

    @settings(max_examples=200, deadline=None)
    @given(_interval_arrays((3, 5)), _interval_arrays((3, 5)),
           _interval_arrays((3, 1)), _interval_arrays((1, 5)))
    def test_blocks_and_broadcast(self, a, b, col, row):
        _assert_bitwise(_imul_arr(*a, *b), _two_pass_imul(*a, *b))
        _assert_bitwise(_imul_arr(*col, *row), _two_pass_imul(*col, *row))
        # one operand's lo and hi of different shapes
        _assert_bitwise(_imul_arr(col[0], a[1] + np.inf, *row),
                        _two_pass_imul(col[0], a[1] + np.inf, *row))

    @settings(max_examples=300, deadline=None)
    @given(_interval_arrays(()), _interval_arrays(()))
    def test_contains_scalar_product(self, a, b):
        a, b = (tuple(map(float, x)) for x in (a, b))
        if not all(map(math.isfinite, a + b)):
            return  # scalar products of infinities may be NaN
        lo, hi = _imul_arr(*a, *b)
        want = Interval(*a) * Interval(*b)
        assert lo <= want.lo and want.hi <= hi
        # inside the guard every candidate's residual is exact
        guarded = all(abs(x) < 1e150 for x in a + b) and all(
            x == 0.0 or y == 0.0 or 1e-200 < abs(x * y) < 1e200
            for x in a for y in b)
        if guarded:
            assert (lo, hi) == (want.lo, want.hi)


class TestInclusionMonotonicity:
    @settings(max_examples=300, deadline=None)
    @given(_nested_pairs(), _nested_pairs())
    def test_add_mul_monotone(self, p1, p2):
        (a_in, a_out), (b_in, b_out) = p1, p2
        assert (a_in + b_in).is_subset(a_out + b_out)
        assert (a_in * b_in).is_subset(a_out * b_out)

    @settings(max_examples=300, deadline=None)
    @given(_nested_pairs())
    def test_sqr_monotone(self, p):
        inner, outer = p
        assert inner.sqr().is_subset(outer.sqr())


class TestNorms:
    def test_max_norm_points(self):
        v = IntervalVector.from_intervals(
            [Interval(1, 1), Interval(-2, -2), Interval(0, 0)])
        assert max_norm(v) == Interval(2, 2)

    def test_max_norm_hull(self):
        v = IntervalVector.from_intervals([Interval(-1, 1), Interval(0, 3)])
        assert max_norm(v) == Interval(0, 3)

    def test_matrix_norm_identity(self):
        assert matrix_norm(IntervalMatrix.identity(2)) == Interval(1, 1)

    def test_matroid_norm_zero_and_single(self):
        z = IntervalTensor3.from_points(np.zeros((3, 3, 3)))
        assert matroid_norm(z) == Interval(0, 0)
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = 2.0
        assert matroid_norm(IntervalTensor3.from_points(t)) == Interval(2, 2)

    def test_matroid_norm_matches_bruteforce(self):
        rng = np.random.RandomState(21)
        for _ in range(50):
            t = rng.randn(3, 3, 3)
            oracle = np.max(np.sum(np.abs(t), axis=(1, 2)))
            r = matroid_norm(IntervalTensor3.from_points(t))
            assert r.lo <= oracle <= r.hi
            assert r.width < 1e-13 * max(1.0, oracle)

    def test_matvec_norm_bound(self):
        rng = np.random.RandomState(22)
        for _ in range(200):
            A = IntervalMatrix.from_points(rng.randn(5, 5))
            v = IntervalVector.from_points(rng.randn(5))
            lhs = max_norm(A @ v)
            rhs = matrix_norm(A) * max_norm(v)
            assert lhs.lo <= rhs.hi

    def test_bilinear_norm_bound(self):
        rng = np.random.RandomState(23)
        for _ in range(100):
            B = IntervalTensor3.from_points(rng.randn(4, 4, 4))
            u = IntervalVector.from_points(rng.randn(4))
            v = IntervalVector.from_points(rng.randn(4))
            lhs = max_norm(B.apply(u, v))
            rhs = matroid_norm(B) * max_norm(u) * max_norm(v)
            assert lhs.lo <= rhs.hi

    def test_matvec_containment(self):
        rng = np.random.RandomState(24)
        for _ in range(100):
            a = rng.randn(6, 6)
            v = rng.randn(6)
            r = IntervalMatrix.from_points(a) @ IntervalVector.from_points(v)
            exact = a @ v  # float oracle, then rational check on a few rows
            assert np.all(r.lo <= exact + 1e-9) and np.all(exact - 1e-9 <= r.hi)
            fa = [[Fraction(x) for x in row] for row in a]
            fv = [Fraction(x) for x in v]
            for i in range(6):
                s = sum(fa[i][j] * fv[j] for j in range(6))
                assert Fraction(float(r.lo[i])) <= s <= Fraction(float(r.hi[i]))


class TestVerifiedSolve:
    def test_identity(self):
        A = IntervalMatrix.identity(3)
        b = IntervalVector.from_points([1.0, 0.0, 0.0])
        x = verified_solve(A, b)
        assert x.contains_point([1.0, 0.0, 0.0])
        assert np.max(x.widths()) < 1e-14

    def test_diagonal(self):
        A = IntervalMatrix.from_points(np.diag([2.0, 4.0]))
        b = IntervalVector.from_points([2.0, 4.0])
        x = verified_solve(A, b)
        assert x.contains_point([1.0, 1.0])

    def test_random_well_conditioned_vs_lu(self):
        rng = np.random.RandomState(31)
        for _ in range(25):
            a = rng.randn(7, 7) + 7.0 * np.eye(7)
            b = rng.randn(7)
            x = verified_solve(IntervalMatrix.from_points(a),
                               IntervalVector.from_points(b))
            ref = np.linalg.solve(a, b)
            pad = 1e-13 * np.maximum(1.0, np.abs(ref))
            assert np.all(x.lo - pad <= ref) and np.all(ref <= x.hi + pad)
            assert np.max(x.widths()) <= 1e-12

    def test_residual_straddles_zero(self):
        rng = np.random.RandomState(32)
        a = rng.randn(5, 5) + 5.0 * np.eye(5)
        A = IntervalMatrix.from_points(a)
        b = IntervalVector.from_points(rng.randn(5))
        x = verified_solve(A, b)
        res = (A @ x) - b
        assert res.straddles_zero()

    def test_singular_raises(self):
        a = np.ones((3, 3))
        with pytest.raises(SingularEnclosure):
            verified_solve(IntervalMatrix.from_points(a),
                           IntervalVector.from_points([1.0, 2.0, 3.0]))

    def test_complex_solve(self):
        rng = np.random.RandomState(33)
        for _ in range(10):
            ar = rng.randn(4, 4) + 4.0 * np.eye(4)
            ai = 0.3 * rng.randn(4, 4)
            br = rng.randn(4)
            bi = rng.randn(4)
            xr, xi = verified_solve_complex(
                IntervalMatrix.from_points(ar), IntervalMatrix.from_points(ai),
                IntervalVector.from_points(br), IntervalVector.from_points(bi))
            ref = np.linalg.solve(ar + 1j * ai, br + 1j * bi)
            pad = 1e-12
            assert np.all(xr.lo - pad <= ref.real) and np.all(ref.real <= xr.hi + pad)
            assert np.all(xi.lo - pad <= ref.imag) and np.all(ref.imag <= xi.hi + pad)


class TestComplexRectangles:
    def test_mul_contains_complex_product(self):
        rng = np.random.RandomState(41)
        for _ in range(1000):
            z1 = complex(rng.randn(), rng.randn())
            z2 = complex(rng.randn(), rng.randn())
            r = CInterval.from_complex(z1) * CInterval.from_complex(z2)
            assert r.contains(z1 * z2)

    def test_div_roundtrip(self):
        rng = np.random.RandomState(42)
        for _ in range(500):
            z1 = complex(rng.randn(), rng.randn())
            z2 = complex(rng.randn() + 2.0, rng.randn())
            q = CInterval.from_complex(z1) / CInterval.from_complex(z2)
            back = q * CInterval.from_complex(z2)
            assert back.contains(z1)

    def test_conj_and_abs(self):
        z = CInterval.from_complex(3 + 4j)
        assert z.conj().im.contains(-4.0)
        assert z.abs().contains(5.0)


class TestSerialization:
    def test_scalar_roundtrip_bitexact(self):
        rng = np.random.RandomState(51)
        vals = list(_rand_floats(rng, 200)) + [0.0, -0.0, 5e-324, -5e-324,
                                               1.7976931348623157e308]
        for x in vals:
            iv = Interval.from_value(x)
            back = Interval.from_strings(iv.to_strings())
            assert math.copysign(1, back.lo) == math.copysign(1, iv.lo)
            assert back.lo == iv.lo and back.hi == iv.hi

    def test_vector_roundtrip_bitexact(self):
        rng = np.random.RandomState(52)
        pair = np.sort(rng.randn(2, 8), axis=0)
        v = IntervalVector(pair[0], pair[1])
        back = vector_from_strings(vector_to_strings(v))
        assert np.array_equal(back.lo, v.lo) and np.array_equal(back.hi, v.hi)
