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
