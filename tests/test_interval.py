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

from conftest import sequential_cascade_sum
from fourbody import interval
from fourbody.errors import (
    DivisionByZeroInterval,
    NegativeSqrt,
    SingularEnclosure,
)
from fourbody.interval import (
    CInterval,
    CIntervalArray,
    Interval,
    IntervalArray,
    _cascade_sum,
    _directed_sum,
    _gamma,
    _imul_arr,
    _irecip_arr,
    _iscale_arr,
    _ldexp_arr,
    _pad_sum,
    _padded_cascade,
    _prod_ceil,
    _prod_floor,
    _recip_ceil,
    _recip_floor,
    _sqrt_ceil,
    _sqrt_floor,
    _sum_ceil,
    _sum_floor,
    matrix_norm,
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


_MAXF = 1.7976931348623157e308


def _all_binades(rng, n):
    """Signed finite floats drawn uniformly from their bit patterns, so
    every binade, the subnormal one included, is equally likely."""
    bits = rng.integers(0, 0x7FF0000000000000, size=n, dtype=np.int64)
    sign = rng.integers(0, 2, size=n, dtype=np.int64) << 63
    return (bits | sign).view(np.float64).tolist()


# floats at the edges of the format: zeros, subnormals, the least
# normal, powers of two near both ends, values near overflow
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1073, 2.0 ** -1022,
          math.nextafter(2.0 ** -1022, 0.0), 2.0 ** -1022 * 3, 2.0 ** 1022,
          -2.0 ** 1022, 2.0 ** 1023, _MAXF, -_MAXF, 0.5 * _MAXF,
          math.nextafter(_MAXF, 0.0), 1.0, -1.0, 3.0, 1e-200, 1e200,
          1e150, 1e-150]


def _nearest(q):
    """q rounded to nearest, clamped to the finite floats."""
    try:
        f = float(q)
    except OverflowError:
        f = math.inf if q > 0 else -math.inf
    return max(-_MAXF, min(_MAXF, f))


def _floor(q):
    f = _nearest(q)
    return math.nextafter(f, -math.inf) if Fraction(f) > q else f


def _ceil(q):
    f = _nearest(q)
    return math.nextafter(f, math.inf) if Fraction(f) < q else f


def _sqrt_floor_ref(x):
    s = math.sqrt(x)
    while Fraction(s) ** 2 > Fraction(x):
        s = math.nextafter(s, -math.inf)
    while Fraction(math.nextafter(s, math.inf)) ** 2 <= Fraction(x):
        s = math.nextafter(s, math.inf)
    return s


def _sqrt_ceil_ref(x):
    s = math.sqrt(x)
    while Fraction(s) ** 2 < Fraction(x):
        s = math.nextafter(s, math.inf)
    while s > 0.0 and Fraction(math.nextafter(s, 0.0)) ** 2 >= Fraction(x):
        s = math.nextafter(s, 0.0)
    return s


class TestDirectedScalarRounding:
    """Every scalar floor and ceil against rational arithmetic, over
    random binades and the edges of the format (``==`` ignores the
    sign of a zero)."""

    def _operands(self, seed, n=2000):
        rng = np.random.default_rng(seed)
        xs = _all_binades(rng, n) + _EDGES
        ys = _all_binades(rng, n) + _EDGES[::-1]
        return list(zip(xs, ys)) + [(x, y) for x in _EDGES for y in _EDGES]

    def test_sum(self):
        for x, y in self._operands(31):
            q = Fraction(x) + Fraction(y)
            assert _sum_floor(x, y) == _floor(q), (x, y)
            assert _sum_ceil(x, y) == _ceil(q), (x, y)

    def test_product(self):
        for x, y in self._operands(32):
            q = Fraction(x) * Fraction(y)
            assert _prod_floor(x, y) == _floor(q), (x, y)
            assert _prod_ceil(x, y) == _ceil(q), (x, y)

    def test_reciprocal(self):
        for x, _ in self._operands(33):
            if x != 0.0:
                q = 1 / Fraction(x)
                assert _recip_floor(x) == _floor(q), x
                assert _recip_ceil(x) == _ceil(q), x

    def test_stacked_reciprocal(self):
        # one stacked pass gives every entry the scalar floor and ceil,
        # divisors in the residual's range and outside it alike
        xs = np.array([x for x, _ in self._operands(35) if x != 0.0])
        lo, hi = _irecip_arr(xs, xs)
        for x, f, c in zip(xs.tolist(), lo, hi):
            q = 1 / Fraction(x)
            assert f == _floor(q) == _recip_floor(x), x
            assert c == _ceil(q) == _recip_ceil(x), x
        # an interval's ends: the floor of 1/hi and the ceil of 1/lo,
        # on either side of zero
        lo, hi = _irecip_arr(np.array([2.0, -4.0]), np.array([3.0, -2.0]))
        assert list(lo) == [_recip_floor(3.0), -0.5]
        assert list(hi) == [0.5, _recip_ceil(-4.0)]

    def test_sqrt(self):
        for x, _ in self._operands(34, n=1000):
            x = abs(x)
            assert _sqrt_floor(x) == _sqrt_floor_ref(x), x
            assert _sqrt_ceil(x) == _sqrt_ceil_ref(x), x

    def test_infinite_operands(self):
        inf = math.inf
        for x in (inf, -inf):
            assert _recip_floor(x) == 0.0 and _recip_ceil(x) == 0.0
            assert _prod_floor(0.0, x) == 0.0 and _prod_ceil(-0.0, x) == 0.0
        assert _sqrt_floor(inf) == _MAXF and _sqrt_ceil(inf) == inf
        # an unbounded side stays unbounded
        assert _sum_floor(-inf, 1.0) == -inf and _sum_ceil(inf, -1.0) == inf
        assert _prod_floor(-inf, 2.0) == -inf and _prod_ceil(inf, 2.0) == inf

    def test_division_by_unbounded_interval(self):
        inf = math.inf
        assert Interval(1, 2) / Interval(-inf, -1) == Interval(-2.0, 0.0)
        assert Interval(1, 2) / Interval(1, inf) == Interval(0.0, 2.0)
        assert Interval(-3, 2) / Interval(4, inf) == Interval(-0.75, 0.5)

    def test_exp_overflow_is_unbounded_above(self):
        r = Interval(0, 800).exp()
        assert r.lo <= 1.0 and r.hi == math.inf
        assert Interval(710, 800).exp() == Interval(_MAXF, math.inf)
        assert Interval(-math.inf, 0).exp().lo == 0.0
        with mpmath.workdps(40):
            r = Interval(709, 709.5).exp()
            assert mpmath.mpf(r.lo) <= mpmath.exp(709)
            assert mpmath.exp(mpmath.mpf(709.5)) <= mpmath.mpf(r.hi)


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
    """NaN passes ``lo > hi``; the arrays must refuse it as the scalar
    Interval does."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_array_refuses_nan(self, rank):
        shape = (2,) * rank
        lo = np.zeros(shape)
        lo[(1,) * rank] = np.nan
        with pytest.raises(ValueError):
            IntervalArray(lo, np.ones(shape))
        with pytest.raises(ValueError):
            IntervalArray(np.zeros(shape), np.full(shape, np.nan))


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
        # 0 * +-inf is 0
        return np.where(np.isnan(out), 0.0, np.where(
            np.isfinite(out), out, np.where(out > 0.0, _MAXF, out)))

    def prod_ceil(a, b):
        p = a * b
        exact_zero = (a == 0.0) | (b == 0.0)
        guard = ((np.abs(p) > 1e-200) & (np.abs(p) < 1e200)
                 & (np.abs(a) < 1e150) & (np.abs(b) < 1e150))
        e = residual(a, b, p)
        up = np.where(guard, e > 0.0, ~exact_zero)
        out = np.where(up, np.nextafter(p, np.inf), p)
        # 0 * +-inf is 0
        return np.where(np.isnan(out), 0.0, np.where(
            np.isfinite(out), out, np.where(out < 0.0, -_MAXF, out)))

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
        # one operand's lo and hi of different shapes, and unbounded
        inf = np.full_like(a[1], np.inf)
        _assert_bitwise(_imul_arr(col[0], inf, *row),
                        _two_pass_imul(col[0], inf, *row))

    @settings(max_examples=200, deadline=None)
    @given(_interval_arrays((4, 5)), _interval_arrays((5,)))
    def test_point_factor(self, a, b):
        # the same object as both endpoints takes the two-candidate path
        c = b[0]
        _assert_bitwise(_imul_arr(*a, c, c), _two_pass_imul(*a, c, c))
        x = float(b[0][0])
        _assert_bitwise(_imul_arr(*a, x, x), _two_pass_imul(*a, x, x))

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


class TestZeroTimesInfinity:
    """An exact zero times an infinite endpoint is 0: every point of an
    interval is finite, so 0 * [1, inf] = [0, 0]."""

    @pytest.mark.parametrize("unbounded", [(1.0, math.inf),
                                           (-math.inf, 1.0),
                                           (-math.inf, math.inf)])
    def test_scalar_both_orders(self, unbounded):
        zero, x = Interval(0.0), Interval(*unbounded)
        for p in (zero * x, x * zero):
            assert (p.lo, p.hi) == (0.0, 0.0)

    @pytest.mark.parametrize("unbounded", [(1.0, math.inf),
                                           (-math.inf, 1.0),
                                           (-math.inf, math.inf)])
    def test_array_both_orders(self, unbounded):
        z = np.zeros(3)
        lo, hi = np.full(3, unbounded[0]), np.full(3, unbounded[1])
        for p in (_imul_arr(z, z, lo, hi), _imul_arr(lo, hi, z, z)):
            assert not np.isnan(p[0]).any() and not np.isnan(p[1]).any()
            assert np.array_equal(p[0], z) and np.array_equal(p[1], z)
        prod = CIntervalArray.zeros(3) * Interval(*unbounded)
        assert not prod.lo.any() and not prod.hi.any()

    def test_straddling_factor_stays_unbounded(self):
        want = (-math.inf, math.inf)
        p = Interval(-1.0, 2.0) * Interval(0.0, math.inf)
        assert (p.lo, p.hi) == want
        lo, hi = _imul_arr(np.array([-1.0]), np.array([2.0]),
                           np.array([0.0]), np.array([math.inf]))
        assert (lo[0], hi[0]) == want
        lo, hi = _imul_arr(np.array([0.0]), np.array([math.inf]),
                           np.array([-1.0]), np.array([2.0]))
        assert (lo[0], hi[0]) == want


class TestLexicographicEndpoints:
    """``_imul_arr`` steps one candidate per endpoint, the least
    (greatest) by (product, residual); the point path ranks its two
    candidates the same way."""

    # x1 < x2 adjacent, and x1 * 3, x2 * 3 round to the same float p
    # with residuals of opposite signs, negative for x1
    X1, X2 = 1.5000000000000004, 1.5000000000000007

    def test_tie_fixture(self):
        p = self.X1 * 3.0
        assert math.nextafter(self.X1, 2.0) == self.X2 and self.X2 * 3.0 == p
        assert Fraction(self.X1) * 3 < Fraction(p) < Fraction(self.X2) * 3

    @pytest.mark.parametrize("c", [3.0, -3.0])
    def test_tie_with_opposite_residuals(self, c):
        # the tied candidates are a_lo c and a_hi c, in that order: for
        # c = 3 the first has e < 0 but the ceil must step up, for
        # c = -3 the first has e > 0 but the floor must step down
        p = self.X1 * c
        want = (math.nextafter(p, -math.inf), math.nextafter(p, math.inf))
        alo, ahi = np.array([self.X1]), np.array([self.X2])
        cs = np.array([c])
        for got in (_imul_arr(alo, ahi, cs, cs),
                    _imul_arr(alo, ahi, cs, cs.copy()),
                    _imul_arr(cs, cs.copy(), alo, ahi)):
            assert (got[0][0], got[1][0]) == want
        exact = Interval(self.X1, self.X2) * Interval(c)
        assert (exact.lo, exact.hi) == want

    @pytest.mark.parametrize("a,c", [
        ((-1.0, 1.0), 0.0), ((-1.0, 1.0), -0.0), ((-0.0, 0.0), 0.0),
        ((-0.0, 5e-324), 1.0), ((-5e-324, 0.0), -1.0),
        ((0.0, 1e-300), 1e-300), ((-math.inf, math.inf), 0.0),
        ((-math.inf, -0.0), -0.0), ((0.0, 1.0), math.inf),
        ((2.0 ** -1022, 2.0 ** -1021), 0.5), ((-3.0, 7.0), 5e-324)])
    def test_point_factor_edges(self, a, c):
        # zero signs, products that underflow to or from zero, and
        # zero times an infinity, bit for bit against the reference
        alo, ahi = np.array([a[0]]), np.array([a[1]])
        cs = np.array([c])
        _assert_bitwise(_imul_arr(alo, ahi, cs, cs),
                        _two_pass_imul(alo, ahi, cs, cs))
        _assert_bitwise(_imul_arr(alo, ahi, c, c),
                        _two_pass_imul(alo, ahi, c, c))

    _special_points = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022,
                         -(2.0 ** -1022), 1.0, -1.0, math.inf, -math.inf]),
        st.floats(min_value=-(2.0 ** -1022), max_value=2.0 ** -1022),
    )

    @settings(max_examples=300, deadline=None)
    @given(_interval_arrays((6, 5)), st.lists(_special_points, min_size=5,
                                              max_size=5),
           st.integers(min_value=0, max_value=29))
    def test_point_factor_at_zero_subnormal_and_infinite(self, a, cs, k):
        # one endpoint of the other factor made infinite, so every
        # point c meets an infinity somewhere in the block
        alo, ahi = a[0].copy(), a[1].copy()
        alo.flat[k] = -math.inf
        ahi.flat[29 - k] = math.inf
        c = np.array(cs)
        _assert_bitwise(_imul_arr(alo, ahi, c, c),
                        _two_pass_imul(alo, ahi, c, c))
        x = float(c[k % 5])
        _assert_bitwise(_imul_arr(alo, ahi, x, x),
                        _two_pass_imul(alo, ahi, x, x))


# factor endpoints of the in-range pass of ``_imul_arr``: zeros of both
# signs and magnitudes in [2^-330, 2^330], with the tie pair of
# ``TestLexicographicEndpoints``, its factors +-3 and the range's ends
_IN_RANGE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, -3.0,
                     TestLexicographicEndpoints.X1,
                     TestLexicographicEndpoints.X2,
                     -TestLexicographicEndpoints.X1,
                     -TestLexicographicEndpoints.X2,
                     2.0 ** -330, -(2.0 ** -330), 2.0 ** 330,
                     -(2.0 ** 330)]),
    st.builds(operator.mul, st.sampled_from([1.0, -1.0]),
              st.floats(min_value=2.0 ** -330, max_value=2.0 ** 330)),
)
# one endpoint just past the range, so the guarded pass runs
_OUT_OF_RANGE = [2.0 ** 331, -(2.0 ** 331), 2.0 ** -331, -(2.0 ** -331),
                 5e-324, -(2.0 ** -1030), math.inf, -math.inf]


@st.composite
def _in_range_arrays(draw, shape):
    x = draw(hnp.arrays(np.float64, shape, elements=_IN_RANGE))
    y = draw(hnp.arrays(np.float64, shape, elements=_IN_RANGE))
    return np.minimum(x, y), np.maximum(x, y)


def _moved_out(a, k, v):
    """The interval array a with entry k's interval widened or moved to
    have the endpoint v."""
    lo, hi = a[0].copy(), a[1].copy()
    h = hi.flat[k]
    lo.flat[k], hi.flat[k] = min(v, h), max(v, h)
    return lo, hi


class TestInRangeProduct:
    """Where every factor endpoint is 0 or has magnitude in
    [2^-330, 2^330], ``_imul_arr`` skips its masks; its endpoints equal
    the two-pass reference's bit for bit, and still do with one entry
    moved out of that range, where the guarded pass runs."""

    @staticmethod
    def _cases(a, b):
        """Blocks, a column times a row, point and scalar factors, and
        zero factors, from two (4, 5) interval blocks."""
        col, row = (a[0][:, :1], a[1][:, :1]), (b[0][:1], b[1][:1])
        c, x = b[0][0], float(b[1][0, 0])
        zero = np.zeros_like(a[0])
        return [(*a, *b), (*col, *row), (*row, *col), (*a, c, c),
                (*a, x, x), (x, x, *a), (*a, zero, zero), (zero, -zero, *b)]

    @settings(max_examples=25, deadline=None)
    @given(_in_range_arrays((4, 5)), _in_range_arrays((4, 5)))
    def test_in_range_equals_two_pass(self, a, b):
        for case in self._cases(a, b):
            _assert_bitwise(_imul_arr(*case), _two_pass_imul(*case))

    @settings(max_examples=25, deadline=None)
    @given(_in_range_arrays((4, 5)), _in_range_arrays((4, 5)),
           st.integers(min_value=0, max_value=19),
           st.sampled_from(_OUT_OF_RANGE), st.booleans())
    def test_one_entry_out_of_range_equals_two_pass(self, a, b, k, v,
                                                    first):
        # in the first block, or in the second block's first row, so
        # that the point, scalar and row factors carry it too
        a, b = (_moved_out(a, k, v), b) if first else (a, _moved_out(
            b, k % 5, v))
        for case in self._cases(a, b):
            _assert_bitwise(_imul_arr(*case), _two_pass_imul(*case))

    @pytest.mark.parametrize("c", [3.0, -3.0])
    def test_tie_pair_in_a_block(self, c):
        # the tie of TestLexicographicEndpoints among in-range entries,
        # then the same block with a subnormal entry
        X1, X2 = TestLexicographicEndpoints.X1, TestLexicographicEndpoints.X2
        alo = np.array([X1, -2.0, -0.0, 1e-90])
        ahi = np.array([X2, 5.0, 0.0, 1e90])
        cs = np.full(4, c)
        p = X1 * c
        for lo in (alo, np.where(np.arange(4) == 3, 5e-324, alo)):
            got = _imul_arr(lo, ahi, cs, cs)
            _assert_bitwise(got, _two_pass_imul(lo, ahi, cs, cs))
            assert (got[0][0], got[1][0]) == (math.nextafter(p, -math.inf),
                                              math.nextafter(p, math.inf))


class TestLeanPasses:
    """The lean passes give the endpoints of the passes they stand for,
    bit for bit: ``_imul_arr``'s point pass, one candidate per end by
    the sign of the point factor, those of the four-candidate pass of
    the same point passed as two arrays and of the two-pass reference,
    and ``_directed_sum``'s ``nextafter`` steps those of its integer
    ulp steps, at small and large shapes, with planted signed zeros,
    subnormal, overflowing, infinite and out-of-guard operands."""

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 2.0 ** -331,
               -(2.0 ** 331), 1e-160, -1e160, 1e300, -1e300, _MAXF,
               math.inf, -math.inf]

    @classmethod
    def _floats(cls, rng, shape, planted):
        x = rng.standard_normal(shape) * 2.0 ** rng.integers(-40, 40, shape)
        return np.where(rng.random(shape) < planted,
                        rng.choice(cls.SPECIAL, shape), x)

    @pytest.mark.parametrize("shape", [(1, 6, 11), (2, 16, 140)])
    @pytest.mark.parametrize("planted", [0.0, 0.01, 0.3])
    def test_point_pass_equals_four_candidates(self, shape, planted):
        rng = np.random.default_rng(int(1000 * planted) + shape[-1])
        for trial in range(4):
            u, v = (self._floats(rng, shape, planted) for _ in range(2))
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            if trial == 1:
                lo = hi.copy()
            # by node and by entry, as the Lin levels and the charts'
            # time scales pass them, and a scalar
            for c in (self._floats(rng, (shape[-2], 1), planted / 2),
                      self._floats(rng, shape, planted / 2),
                      float(self._floats(rng, (), 0.0))):
                got = _imul_arr(lo, hi, c, c)
                _assert_bitwise(got, _imul_arr(lo, hi, c, np.copy(c)))
                _assert_bitwise(got, _two_pass_imul(lo, hi, c, c))

    @pytest.mark.parametrize("shape", [(2, 1, 2, 11), (2, 12, 2, 11),
                                       (3, 40, 60)])
    @pytest.mark.parametrize("planted", [0.0, 0.05, 0.3])
    def test_directed_sum_steps_agree(self, monkeypatch, shape, planted):
        rng = np.random.default_rng(int(100 * planted) + shape[-1])
        a, b = (self._floats(rng, shape, planted) for _ in range(2))
        # sums that round to a zero, and that overflow
        a.flat[:4], b.flat[:4] = (1.5, -0.0, _MAXF, -1e308), (-1.5, 0.0,
                                                               _MAXF, -1e308)
        ways = (-1, 1, np.array([-1, 1] * (shape[0] // 2)
                                + [1] * (shape[0] % 2)).reshape(
            (shape[0],) + (1,) * (len(shape) - 1)))
        for way in ways:
            got = {}
            for lean in (0, interval._LEAN, 10 ** 9):
                monkeypatch.setattr(interval, "_LEAN", lean)
                got[lean] = _directed_sum(a, b, way)
            monkeypatch.undo()
            _assert_bitwise(got[0], got[10 ** 9])
            _assert_bitwise(got[0], got[interval._LEAN])


def _floor_ref(x: Fraction) -> float:
    """The largest float <= x, -inf below every finite float."""
    if x > _MAXF:
        return _MAXF
    if x < -_MAXF:
        return -math.inf
    f = float(x)
    return math.nextafter(f, -math.inf) if Fraction(f) > x else f


_sum_terms = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.sampled_from([0.0, -0.0, 1.0, 2.0 ** -52, 1e308, -1e308, 5e-324]),
)


class TestDirectedSum:
    """``_directed_sum`` rounds every sum to its floor or ceil, checked
    against exact rational sums, with and without the overflow clamp."""

    @staticmethod
    def _check(a, b):
        for way in (-1, 1):
            got = _directed_sum(a, b, way)
            assert isinstance(got, np.ndarray) and got.shape == a.shape
            for x, y, g in zip(a.flat, b.flat, got.flat):
                exact = Fraction(x) + Fraction(y)
                want = (_floor_ref(exact) if way < 0
                        else -_floor_ref(-exact))
                assert g == want, (x, y, way)
        both = _directed_sum(np.stack((a, a)), np.stack((b, b)),
                             np.array([-1, 1]).reshape((2,) + (1,) * a.ndim))
        _assert_bitwise(both, np.stack((_directed_sum(a, b, -1),
                                        _directed_sum(a, b, 1))))

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, (3, 4), elements=_sum_terms),
           hnp.arrays(np.float64, (3, 4), elements=_sum_terms))
    def test_floors_and_ceils(self, a, b):
        self._check(a, b)

    def test_exact_sums_and_sums_to_zero(self):
        a = np.array([1.0, 3.0, -2.5, 1e300, 5e-324, 0.1, -0.0])
        b = np.array([2.0 ** -52, -3.0, 2.5, -1e300, 5e-324, -0.1, -0.0])
        self._check(a, b)
        ceil, floor = _directed_sum(a, b, 1), _directed_sum(a, b, -1)
        assert np.array_equal(ceil, floor)
        assert (ceil[1:3] == 0.0).all() and (ceil[5] == 0.0)

    def test_one_overflowing_sum_in_a_block(self):
        a = np.array([[1e308, -1e308, 1.0], [0.1, 2.0, _MAXF]])
        b = np.array([[1e308, -1e308, 2.0 ** -60], [0.2, 3.0, -1.0]])
        self._check(a, b)
        assert (_directed_sum(a, b, -1)[0, :2] == [_MAXF, -math.inf]).all()
        assert (_directed_sum(a, b, 1)[0, :2] == [math.inf, -_MAXF]).all()


def _exact_sum(x):
    return sum(map(Fraction, x), Fraction(0))


_dyadic_terms = st.lists(
    st.integers(min_value=-2 ** 40, max_value=2 ** 40), min_size=1,
    max_size=70)
_float_terms = st.lists(
    st.floats(min_value=-1e30, max_value=1e30, allow_subnormal=True),
    min_size=1, max_size=70)


class TestTreeSum:
    """``_cascade_sum`` is a pairwise TwoSum tree: exact sums stay
    exact, appended zeros change no bit, and its padded sums enclose
    the exact sum as the sequential cascade's do."""

    @settings(max_examples=200, deadline=None)
    @given(_dyadic_terms, st.integers(min_value=-60, max_value=60))
    def test_exact_dyadic_sums_are_unpadded(self, ints, k):
        # integers below 2^40 times one power of two: every partial sum
        # of at most 70 terms is exact, so the tree must be too
        x = np.ldexp(np.array(ints, dtype=float), k)
        lo, hi = _pad_sum(x, x, axis=0)
        assert lo == hi and Fraction(float(lo)) == _exact_sum(x)

    @settings(max_examples=300, deadline=None)
    @given(_float_terms, _float_terms)
    def test_encloses_exact_sum(self, xs, ys):
        n = min(len(xs), len(ys))
        lo = np.minimum(xs[:n], ys[:n])
        hi = np.maximum(xs[:n], ys[:n])
        slo, shi = _pad_sum(lo, hi, axis=0)
        assert Fraction(float(slo)) <= _exact_sum(lo)
        assert _exact_sum(hi) <= Fraction(float(shi))

    @settings(max_examples=200, deadline=None)
    @given(_float_terms, st.integers(min_value=1, max_value=40))
    def test_trailing_zeros_change_no_bit(self, xs, zeros):
        x = np.array(xs)
        padded = np.concatenate((x, np.zeros(zeros)))
        g = _gamma(len(x) + 2)
        _assert_bitwise(_padded_cascade(padded, padded, g),
                        _padded_cascade(x, x, g))
        got, want = _cascade_sum(padded), _cascade_sum(x)
        _assert_bitwise(got[1:], want[1:])
        assert got[0] == want[0]

    @settings(max_examples=300, deadline=None)
    @given(_float_terms)
    def test_matches_sequential_reference(self, xs):
        # the same padding on the reference's sum and errors: both
        # enclose the exact sum, and their widths, each under
        # gamma_(n+2) sum |x|, differ by less than that
        x = np.array(xs)
        n = len(x)
        g = _gamma(n + 2)
        exact = _exact_sum(x)
        for s, e_sum, e_abs in (_cascade_sum(x), sequential_cascade_sum(x)):
            out = s + e_sum
            lo = np.nextafter(out - g * e_abs, -math.inf) if e_abs else out
            hi = np.nextafter(out + g * e_abs, math.inf) if e_abs else out
            assert Fraction(float(lo)) <= exact <= Fraction(float(hi))
        lo, hi = _pad_sum(x, x, axis=0)
        assert Fraction(float(lo)) <= exact <= Fraction(float(hi))
        s, e_sum, e_abs = sequential_cascade_sum(x)
        out = s + e_sum
        ref = (2.0 * (float(np.nextafter(out + g * e_abs, math.inf)) - out)
               if e_abs else 0.0)
        bound = g * float(np.sum(np.abs(x))) + 2.0 ** -1070
        assert ref <= bound and hi - lo <= bound
        assert abs((hi - lo) - ref) <= bound

    def test_pairs_adjacent_terms(self):
        # (1 + 1) + (2^-52 + 2^-52) is exact; summed in sequence, each
        # 2^-52 is a tie against 2 and rounds away
        x = np.array([1.0, 1.0, 2.0 ** -52, 2.0 ** -52])
        s, e_sum, e_abs = _cascade_sum(x)
        assert (s, e_sum, e_abs) == (2.0 + 2.0 ** -51, 0.0, 0.0)
        s, e_sum, e_abs = sequential_cascade_sum(x)
        assert (s, e_sum, e_abs) == (2.0, 2.0 ** -51, 2.0 ** -51)


class TestNonFiniteSums:
    """A side whose compensated sum overflows or meets an infinite term
    comes out unbounded, never nan."""

    def test_pad_sum_overflow(self):
        x = np.array([1e308, 1e308])
        lo, hi = _pad_sum(x, x, axis=0)
        assert (lo, hi) == (-math.inf, math.inf)
        lo, hi = _pad_sum(np.array([-1.0, 2.0, 3.0]),
                          np.array([1.0, 2.0, math.inf]), axis=0)
        assert (lo, hi) == (4.0, math.inf)

    def test_interval_array_matmul_overflow(self):
        A = IntervalArray.from_points([[1e308, 1e308], [1.0, 2.0]])
        x = IntervalArray.from_points([[1.0], [1.0]])
        y = A @ x
        assert (y.lo[0, 0], y.hi[0, 0]) == (-math.inf, math.inf)
        assert (y.lo[1, 0], y.hi[1, 0]) == (3.0, 3.0)

    def test_cinterval_array_matmul_overflow(self):
        big = np.array([[1e308, 1e308], [1.0, 2.0]])
        A = CIntervalArray(np.stack((big, np.zeros((2, 2)))),
                           np.stack((big, np.zeros((2, 2)))))
        one = np.ones((2, 1))
        x = CIntervalArray(np.stack((one, one)), np.stack((one, one)))
        y = A @ x
        assert not np.isnan(y.lo).any() and not np.isnan(y.hi).any()
        assert (y.lo[:, 0, 0] == -math.inf).all()
        assert (y.hi[:, 0, 0] == math.inf).all()
        assert (y.lo[:, 1, 0] == 3.0).all() and (y.hi[:, 1, 0] == 3.0).all()


class TestPowerOfTwoScaling:
    """``_ldexp_arr`` scales by 2^e exactly where the result is
    normal, and otherwise encloses the exact scaled interval."""

    TINY = 2.0 ** -1074

    def test_normal_values_scale_exactly(self):
        rng = np.random.default_rng(11)
        x = _rand_floats(rng, 1000)
        e = -rng.integers(0, 60, 1000)
        lo, hi = _ldexp_arr(x, x, e)
        want = np.array([math.ldexp(v, int(k)) for v, k in zip(x, e)])
        assert np.array_equal(lo, want) and np.array_equal(hi, want)

    def test_subnormal_results_enclose_the_exact_value(self):
        # 2^-1074 / 2 = 2^-1075 is no float; ldexp rounds it to 0
        lo, hi = _ldexp_arr(np.array([self.TINY]), np.array([self.TINY]), -1)
        assert lo[0] <= 0.0 and hi[0] == self.TINY
        rng = np.random.default_rng(12)
        x = rng.integers(1, 2 ** 20, 500) * self.TINY * rng.choice(
            [-1.0, 1.0], 500)
        e = -rng.integers(1, 30, 500)
        lo, hi = _ldexp_arr(x, x, e)
        for v, k, a, b in zip(x, e, lo, hi):
            exact = Fraction(v) * Fraction(2) ** int(k)
            assert Fraction(a) <= exact <= Fraction(b)
            assert b - a <= 2 * self.TINY

    def test_zeros_and_infinities_are_kept(self):
        x = np.array([0.0, -0.0, math.inf, -math.inf])
        for e in (0, -1, -40):
            lo, hi = _ldexp_arr(x, x, e)
            for got in (lo, hi):
                assert np.array_equal(got, x)
                assert np.array_equal(np.signbit(got), np.signbit(x))

    def test_exponents_broadcast_along_the_last_axis(self):
        x = np.full((2, 3, 4), 3.0)
        lo, hi = _ldexp_arr(x, x, -np.arange(4))
        assert np.array_equal(lo, 3.0 / 2.0 ** np.arange(4) + 0 * x)
        assert np.array_equal(hi, lo)


class TestPositiveScaling:
    """``_iscale_arr`` encloses [lo, hi] [slo, shi] for a positive
    scale with each end the floor or the ceil of its exact product
    inside the residual guard, one ulp outside its nearest product
    beyond it, and leaves exact zeros as they are."""

    TINY = 2.0 ** -1074

    @staticmethod
    def _exact_ends(lo, hi, slo, shi):
        """The exact least and greatest products of the finite ends,
        as rationals."""
        ends = [Fraction(a) * Fraction(b) for a in (lo, hi)
                for b in (slo, shi)]
        return min(ends), max(ends)

    def test_encloses_exact_products_stepped_once(self):
        # random ends of both signs over many binades, and scales near
        # the powers tau^-n of the automatic tau, below and above 1
        rng = np.random.default_rng(31)
        a = _rand_floats(rng, 2000)
        b = _rand_floats(rng, 2000)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        slo = 10.0 ** rng.uniform(-8.0, 8.0, 2000)
        shi = np.where(rng.random(2000) < 0.5, slo,
                       np.nextafter(slo, np.inf))
        glo, ghi = _iscale_arr(lo, hi, slo, shi)
        for x in zip(lo, hi, slo, shi, glo, ghi):
            least, most = self._exact_ends(*x[:4])
            assert Fraction(x[4]) <= least and most <= Fraction(x[5])
            # the floor and the ceil: the nearest product, stepped once
            # where it falls on the wrong side
            near_lo, near_hi = float(least), float(most)
            assert x[4] == (near_lo if Fraction(near_lo) <= least
                            else math.nextafter(near_lo, -math.inf))
            assert x[5] == (near_hi if Fraction(near_hi) >= most
                            else math.nextafter(near_hi, math.inf))

    def test_exact_scales_stay_unstepped(self):
        # a scale of 1 or a power of two makes every product inside the
        # residual guard exact, so those ends come back unstepped, and
        # one ulp outside an exact product where the guard fails
        rng = np.random.default_rng(33)
        a, b = _rand_floats(rng, 500), _rand_floats(rng, 500)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        for scale in (1.0, 0.5, 2.0 ** -20, 8.0):
            glo, ghi = _iscale_arr(lo, hi, scale, scale)
            assert glo.tobytes() == (lo * scale).tobytes()
            assert ghi.tobytes() == (hi * scale).tobytes()
        tiny = np.array([2.0 ** -1000, 1e-250])
        glo, ghi = _iscale_arr(tiny, tiny, 1.0, 1.0)
        assert glo.tobytes() == np.nextafter(tiny, -math.inf).tobytes()
        assert ghi.tobytes() == np.nextafter(tiny, math.inf).tobytes()

    def test_planted_special_ends(self):
        # subnormal products, products that round to zero or overflow,
        # exact zeros of both signs and infinite ends
        T, big, top = self.TINY, 1.5e308, 1.7976931348623157e308
        lo = np.array([T, -3 * T, 1e-300, -1e-300, -0.0, 0.0, -math.inf,
                       -big, big, -2.0, 0.5])
        hi = np.array([4 * T, -T, 2e-300, 1e-300, 0.0, -0.0, 1.0, big, big,
                       -0.0, math.inf])
        slo = np.array([0.3, 0.7, 1e-30, 1e-30, 5.0, 5.0, 2.0, 1.5, 1.5,
                        3.0, 0.25])
        shi = np.nextafter(slo, np.inf)
        glo, ghi = _iscale_arr(lo, hi, slo, shi)
        # every finite end encloses its exact product; an overflowing
        # lower end steps inward to the largest float, and an infinite
        # end, or one that overflows outward, is infinite
        for j in range(len(lo)):
            if math.isfinite(lo[j]):
                least, _ = self._exact_ends(lo[j], lo[j], slo[j], shi[j])
                assert glo[j] == -math.inf or Fraction(glo[j]) <= least, j
            if math.isfinite(hi[j]):
                _, most = self._exact_ends(hi[j], hi[j], slo[j], shi[j])
                assert ghi[j] == math.inf or most <= Fraction(ghi[j]), j
        # the products in the residual guard, -2 shi[9], 0.125 and
        # 1.0 shi[6], are exact and stay unstepped
        want_lo = [-T, -3 * T, -T, -T, -0.0, 0.0, -math.inf, -math.inf,
                   top, -2.0 * shi[9], 0.125]
        want_hi = [2 * T, -0.0, T, T, 0.0, -0.0, shi[6], math.inf,
                   math.inf, -0.0, math.inf]
        assert glo.tobytes() == np.array(want_lo).tobytes()
        assert ghi.tobytes() == np.array(want_hi).tobytes()

    def test_zero_grids_stay_zero_and_scales_broadcast(self):
        # a stack of grids, column n scaled by its own (slo, shi): the
        # exactly zero grids come back as they were, bit for bit
        rng = np.random.default_rng(32)
        x = rng.normal(size=(2, 3, 5, 8))
        x[1] = 0.0
        x[1, 0] = -0.0
        slo = 0.6 ** np.arange(1.0, 9.0)
        shi = np.nextafter(slo, np.inf)
        glo, ghi = _iscale_arr(x - 1.0, x + 1.0, slo, shi)
        assert glo.shape == ghi.shape == x.shape
        zlo, zhi = _iscale_arr(x[1], x[1], slo, shi)
        assert zlo.tobytes() == x[1].tobytes() == zhi.tobytes()


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
    """``matrix_norm`` is the max norm on vectors, the row-sum norm on
    matrices and the bilinear norm max_i sum_jk |b_ijk| on 3-tensors."""

    def test_max_norm_points(self):
        v = IntervalArray.of([Interval(1, 1), Interval(-2, -2), Interval(0, 0)])
        assert matrix_norm(v) == Interval(2, 2)

    def test_max_norm_hull(self):
        v = IntervalArray.of([Interval(-1, 1), Interval(0, 3)])
        assert matrix_norm(v) == Interval(0, 3)

    def test_matrix_norm_identity(self):
        assert matrix_norm(IntervalArray.from_points(np.eye(2))) == Interval(1, 1)

    def test_matroid_norm_zero_and_single(self):
        z = IntervalArray.from_points(np.zeros((3, 3, 3)))
        assert matrix_norm(z) == Interval(0, 0)
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = 2.0
        assert matrix_norm(IntervalArray.from_points(t)) == Interval(2, 2)

    def test_matroid_norm_matches_bruteforce(self):
        rng = np.random.RandomState(21)
        for _ in range(50):
            t = rng.randn(3, 3, 3)
            oracle = np.max(np.sum(np.abs(t), axis=(1, 2)))
            r = matrix_norm(IntervalArray.from_points(t))
            assert r.lo <= oracle <= r.hi
            assert r.width < 1e-13 * max(1.0, oracle)

    def test_matvec_norm_bound(self):
        rng = np.random.RandomState(22)
        for _ in range(200):
            A = IntervalArray.from_points(rng.randn(5, 5))
            v = IntervalArray.from_points(rng.randn(5))
            lhs = matrix_norm(A @ v)
            rhs = matrix_norm(A) * matrix_norm(v)
            assert lhs.lo <= rhs.hi

    def test_bilinear_norm_bound(self):
        rng = np.random.RandomState(23)
        for _ in range(100):
            B = IntervalArray.from_points(rng.randn(4, 4, 4))
            u = IntervalArray.from_points(rng.randn(4))
            v = IntervalArray.from_points(rng.randn(4))
            # B(u, v)_i = sum_jk B_ijk u_j v_k
            lhs = matrix_norm(B @ v @ u)
            rhs = matrix_norm(B) * matrix_norm(u) * matrix_norm(v)
            assert lhs.lo <= rhs.hi

    def test_stacked_norms_equal_single(self):
        # a stack of matrices, some straddling zero, one call: each
        # norm's endpoints are those of its matrix alone
        rng = np.random.RandomState(25)
        mid = rng.randn(40, 7, 7) * 10.0 ** rng.uniform(-8, 3, (40, 1, 1))
        rad = np.abs(rng.randn(40, 7, 7)) * 10.0 ** rng.uniform(-12, 1,
                                                                (40, 1, 1))
        A = IntervalArray(mid - rad, mid + rad)
        got = matrix_norm(A, stacked=True)
        assert got.shape == (40,)
        for b in range(40):
            want = matrix_norm(A[b])
            assert (got.lo[b], got.hi[b]) == (want.lo, want.hi)

    def test_matvec_containment(self):
        rng = np.random.RandomState(24)
        for _ in range(100):
            a = rng.randn(6, 6)
            v = rng.randn(6)
            r = IntervalArray.from_points(a) @ IntervalArray.from_points(v)
            exact = a @ v  # float oracle, then rational check on a few rows
            assert np.all(r.lo <= exact + 1e-9) and np.all(exact - 1e-9 <= r.hi)
            fa = [[Fraction(x) for x in row] for row in a]
            fv = [Fraction(x) for x in v]
            for i in range(6):
                s = sum(fa[i][j] * fv[j] for j in range(6))
                assert Fraction(float(r.lo[i])) <= s <= Fraction(float(r.hi[i]))


def _contains(x: IntervalArray, p) -> bool:
    return bool(np.all(x.lo <= p) and np.all(p <= x.hi))


class TestVerifiedSolve:
    def test_identity(self):
        A = IntervalArray.from_points(np.eye(3))
        b = IntervalArray.from_points([1.0, 0.0, 0.0])
        x = verified_solve(A, b)
        assert _contains(x, [1.0, 0.0, 0.0])
        assert np.max(x.hi - x.lo) < 1e-14

    def test_diagonal(self):
        A = IntervalArray.from_points(np.diag([2.0, 4.0]))
        b = IntervalArray.from_points([2.0, 4.0])
        x = verified_solve(A, b)
        assert _contains(x, [1.0, 1.0])

    def test_random_well_conditioned_vs_lu(self):
        rng = np.random.RandomState(31)
        for _ in range(25):
            a = rng.randn(7, 7) + 7.0 * np.eye(7)
            b = rng.randn(7)
            x = verified_solve(IntervalArray.from_points(a),
                               IntervalArray.from_points(b))
            ref = np.linalg.solve(a, b)
            pad = 1e-13 * np.maximum(1.0, np.abs(ref))
            assert np.all(x.lo - pad <= ref) and np.all(ref <= x.hi + pad)
            assert np.max(x.hi - x.lo) <= 1e-12

    def test_residual_straddles_zero(self):
        rng = np.random.RandomState(32)
        a = rng.randn(5, 5) + 5.0 * np.eye(5)
        A = IntervalArray.from_points(a)
        b = IntervalArray.from_points(rng.randn(5))
        x = verified_solve(A, b)
        res = (A @ x) - b
        assert _contains(res, 0.0)

    def test_singular_raises(self):
        a = np.ones((3, 3))
        with pytest.raises(SingularEnclosure):
            verified_solve(IntervalArray.from_points(a),
                           IntervalArray.from_points([1.0, 2.0, 3.0]))

    def test_complex_solve(self):
        rng = np.random.RandomState(33)
        for _ in range(10):
            ar = rng.randn(4, 4) + 4.0 * np.eye(4)
            ai = 0.3 * rng.randn(4, 4)
            br = rng.randn(4)
            bi = rng.randn(4)
            A = np.stack((ar, ai))
            b = np.stack((br, bi))
            x = verified_solve_complex(CIntervalArray(A, A),
                                       CIntervalArray(b, b))
            assert x.shape == (4,)
            ref = np.linalg.solve(ar + 1j * ai, br + 1j * bi)
            pad = 1e-12
            for part, r in ((0, ref.real), (1, ref.imag)):
                assert np.all(x.lo[part] - pad <= r)
                assert np.all(r <= x.hi[part] + pad)


def _rel_width_gap(x, y) -> float:
    """Largest relative difference of the entry widths of two arrays."""
    wx, wy = x.hi - x.lo, y.hi - y.lo
    top = np.maximum(wx, wy)
    return float(np.max(np.where(top > 0.0, np.abs(wx - wy)
                                 / np.where(top > 0.0, top, 1.0), 0.0)))


def _overlaps(x, y) -> bool:
    return bool(np.all(np.maximum(x.lo, y.lo) <= np.minimum(x.hi, y.hi)))


class TestStackedSolve:
    """One call over a stack of systems: each entry keeps its own
    certificate, so it matches the one-at-a-time solve."""

    def test_real_stack_matches_single_solves(self):
        rng = np.random.default_rng(41)
        a = rng.normal(size=(3, 4, 6, 6)) + 6.0 * np.eye(6)
        w = 1e-9 * rng.uniform(size=a.shape)
        b = rng.normal(size=(3, 4, 6))
        x = verified_solve(IntervalArray(a - w, a + w),
                           IntervalArray(b - 1e-10, b + 1e-10))
        assert x.shape == (3, 4, 6)
        for i in np.ndindex(3, 4):
            one = verified_solve(IntervalArray(a[i] - w[i], a[i] + w[i]),
                                 IntervalArray(b[i] - 1e-10, b[i] + 1e-10))
            xi = IntervalArray(x.lo[i], x.hi[i])
            assert _overlaps(xi, one)
            assert _rel_width_gap(xi, one) <= 1e-12

    def test_complex_stack_matches_single_solves(self):
        rng = np.random.default_rng(42)
        ar = rng.normal(size=(5, 4, 4)) + 4.0 * np.eye(4)
        ai = 0.3 * rng.normal(size=(5, 4, 4))
        A = np.stack((ar, ai))
        b = rng.normal(size=(2, 5, 4))
        x = verified_solve_complex(CIntervalArray(A - 1e-10, A + 1e-10),
                                   CIntervalArray(b, b))
        assert x.shape == (5, 4)
        for i in range(5):
            one = verified_solve_complex(
                CIntervalArray(A[:, i] - 1e-10, A[:, i] + 1e-10),
                CIntervalArray(b[:, i], b[:, i]))
            xi = x[i]
            assert _overlaps(xi, one)
            assert _rel_width_gap(xi, one) <= 1e-12
            ref = np.linalg.solve(ar[i] + 1j * ai[i], b[0, i] + 1j * b[1, i])
            assert np.all(xi.lo[0] <= ref.real) and np.all(ref.real <= xi.hi[0])
            assert np.all(xi.lo[1] <= ref.imag) and np.all(ref.imag <= xi.hi[1])

    @pytest.mark.parametrize("bad", ["singular_midpoint", "no_contraction"])
    def test_one_singular_member_raises(self, bad):
        rng = np.random.default_rng(43)
        a = rng.normal(size=(4, 3, 3)) + 3.0 * np.eye(3)
        lo, hi = a.copy(), a.copy()
        if bad == "singular_midpoint":
            lo[2] = hi[2] = np.ones((3, 3))
        else:
            # regular midpoint, but the box holds singular matrices
            lo[2], hi[2] = np.eye(3), np.eye(3)
            lo[2, 1, 1], hi[2, 1, 1] = -0.5, 1.0
        b = IntervalArray.from_points(rng.normal(size=(4, 3)))
        with pytest.raises(SingularEnclosure):
            verified_solve(IntervalArray(lo, hi), b)
        # the other members solve on their own
        keep = [0, 1, 3]
        verified_solve(IntervalArray(lo[keep], hi[keep]),
                       IntervalArray(b.lo[keep], b.hi[keep]))

    def test_entries_inflate_independently(self, monkeypatch):
        import fourbody.interval as iv

        def rounds_needed(a, b):
            for k in range(1, 4):
                monkeypatch.setattr(iv, "_MAX_INFLATE", k)
                try:
                    verified_solve(a, b)
                    return k
                except SingularEnclosure:
                    pass
            return None

        # a wide system with a right-hand side deep in the subnormals,
        # where the first radius can miss by rounding
        for seed in range(200):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
            slow = (IntervalArray(a - 0.2, a + 0.2),
                    IntervalArray.from_points(rng.normal(size=3) * 1e-320))
            if rounds_needed(*slow) == 2:
                break
        else:
            pytest.fail("no system needing two inflation rounds")
        rng = np.random.default_rng(44)
        a = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        fast = (IntervalArray(a - 0.2, a + 0.2),
                IntervalArray.from_points(rng.normal(size=3)))
        assert rounds_needed(*fast) == 1
        # a zero right-hand side verifies before any round: x is 0
        zero = (fast[0], IntervalArray.from_points(np.zeros(3)))
        monkeypatch.setattr(iv, "_MAX_INFLATE", 20)
        systems = (slow, fast, zero)
        x = verified_solve(
            IntervalArray(np.stack([s[0].lo for s in systems]),
                          np.stack([s[0].hi for s in systems])),
            IntervalArray(np.stack([s[1].lo for s in systems]),
                          np.stack([s[1].hi for s in systems])))
        for i, s in enumerate(systems):
            one = verified_solve(*s)
            xi = IntervalArray(x.lo[i], x.hi[i])
            assert _overlaps(xi, one)
            assert _rel_width_gap(xi, one) <= 1e-12
        assert np.all(x.lo[2] == 0.0) and np.all(x.hi[2] == 0.0)

    def test_shape_mismatch(self):
        A = IntervalArray.from_points(np.ones((2, 3, 3)))
        with pytest.raises(ValueError):
            verified_solve(A, IntervalArray.from_points(np.ones((3, 3, 3))))
        with pytest.raises(ValueError):
            verified_solve(IntervalArray.from_points(np.ones((2, 3, 4))),
                           IntervalArray.from_points(np.ones((2, 3))))


class TestIntervalArray:
    def test_indexing(self):
        lo = np.arange(6.0).reshape(2, 3)
        a = IntervalArray(lo, lo + 1.0)
        assert a[1, 2] == Interval(5.0, 6.0)
        assert a[0][1] == Interval(1.0, 2.0)
        row = a[1, 1:]
        assert isinstance(row, IntervalArray) and row.shape == (2,)
        assert np.shares_memory(row.lo, a.lo)
        assert np.shares_memory(row.hi, a.hi)

    def test_matmul_shapes_and_entries(self):
        rng = np.random.RandomState(25)
        n, m, k = 3, 4, 5

        def box(*shape):
            c = rng.randn(*shape)
            return IntervalArray(c - 0.01, c + 0.01), c

        for (A, a), (B, b), shape in ((box(n, n), box(n), (n,)),
                                      (box(n, n), box(n, m), (n, m)),
                                      (box(k), box(k, m), (m,))):
            C = A @ B
            assert C.shape == shape
            # each entry encloses the exact product of the centers
            for idx in np.ndindex(*shape):
                row, col = idx[:a.ndim - 1], idx[a.ndim - 1:]
                exact = sum(Fraction(float(a[row + (j,)]))
                            * Fraction(float(b[(j,) + col]))
                            for j in range(a.shape[-1]))
                assert Fraction(C[idx].lo) <= exact <= Fraction(C[idx].hi)
        with pytest.raises(ValueError):
            box(n, n)[0] @ box(m)[0]


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

    def test_equality_is_on_endpoints(self):
        # two rectangles built apart compare and hash by their endpoints
        z = CInterval(Interval(1.0, 2.0), Interval(-0.5, 0.25))
        w = CInterval(Interval(1.0, 2.0), Interval(-0.5, 0.25))
        assert z is not w and z == w and hash(z) == hash(w)
        assert len({z, w}) == 1
        assert z != z.conj()
        assert z != CInterval(Interval(1.0, 2.0), Interval(-0.5, 0.5))
        assert CInterval(3.0) == CInterval.from_complex(3 + 0j)
        assert z != z.re


# ---------------------------------------------------------------------------
# complex interval arrays against the scalar CInterval operations

_EXACT_SCALES = [1.0, -1.0, 2.0, -2.0]
# wide parts reach past the split guard and under the 1e-200 product
# guard; narrow parts keep every product below overflow
_wide_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -3.0, 3e150, -1e180, 1e200, 1e-105,
                     -1e-210, 5e-324] + _EXACT_SCALES),
    st.floats(min_value=-1e200, max_value=1e200, allow_nan=False),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
_narrow_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 7.0, 1e-300] + _EXACT_SCALES),
    st.floats(min_value=-1e90, max_value=1e90, allow_nan=False),
)


@st.composite
def _carrays(draw, shape, parts):
    x, y = (draw(hnp.arrays(np.float64, (2,) + shape, elements=parts))
            for _ in range(2))
    return CIntervalArray(np.minimum(x, y), np.maximum(x, y))


@st.composite
def _real_intervals(draw):
    a, b = draw(_narrow_parts), draw(_narrow_parts)
    return Interval(min(a, b), max(a, b))


@st.composite
def _cintervals(draw):
    return CInterval(draw(_real_intervals()), draw(_real_intervals()))


# the other factor: its kind, the operand for the array, and its value
# at a broadcast index for the scalar operation
_factors = st.one_of(
    st.one_of(st.sampled_from(_EXACT_SCALES), _narrow_parts).map(
        lambda c: ("float", c, lambda idx: c)),
    st.one_of(st.sampled_from(_EXACT_SCALES).map(Interval),
              _real_intervals()).map(
        lambda c: ("Interval", c, lambda idx: c)),
    _cintervals().map(lambda c: ("CInterval", c, lambda idx: c)),
    hnp.arrays(np.float64, (4,), elements=_narrow_parts).map(
        lambda c: ("array", c, lambda idx: float(c[idx[-1]]))),
    _carrays((3, 1), _narrow_parts).map(
        lambda c: ("CIntervalArray", c, lambda idx: c.at(idx[0], 0))),
    _carrays((4,), _narrow_parts).map(
        lambda c: ("CIntervalArray", c, lambda idx: c.at(idx[-1]))),
)


def _ends(z: CInterval) -> tuple[float, ...]:
    return z.re.lo, z.re.hi, z.im.lo, z.im.hi


def _guarded(x: CInterval, y: CInterval) -> bool:
    """Every endpoint product of x and y has an exact Dekker residual,
    so the array kernel rounds as tightly as the scalar one."""
    ex, ey = _ends(x), _ends(y)
    return all(abs(v) < 1e150 for v in ex + ey) and all(
        u == 0.0 or v == 0.0 or 1e-200 < abs(u * v) < 1e200
        for u in ex for v in ey)


class TestCIntervalArray:
    @settings(max_examples=300, deadline=None)
    @given(_carrays((3, 4), _wide_parts), _factors)
    def test_entries_match_scalar_operations(self, a, factor):
        kind, c, at = factor
        prod = a * c
        assert prod.shape == (3, 4)
        exact = (kind in ("float", "Interval")
                 and Interval._coerce(c).lo == Interval._coerce(c).hi
                 and abs(Interval._coerce(c).lo) in (1.0, 2.0))
        other = c if kind == "CIntervalArray" else None
        total = a + other if other is not None else None
        diff = a - other if other is not None else None
        for idx in np.ndindex(3, 4):
            x, y = a.at(*idx), at(idx)
            got, want = prod.at(*idx), x * y
            if exact or _guarded(x, CInterval._coerce(y)):
                assert got.re == want.re and got.im == want.im, (idx, kind)
            else:
                assert got.re.lo <= want.re.lo and want.re.hi <= got.re.hi
                assert got.im.lo <= want.im.lo and want.im.hi <= got.im.hi
            if other is not None:
                for arr, op in ((total, x + y), (diff, x - y)):
                    z = arr.at(*idx)
                    assert z.re == op.re and z.im == op.im, (idx, kind)

    def test_matmul_matches_scalar_loop(self):
        # on dyadic endpoints every product and sum is exact, so the
        # contraction equals the scalar CInterval loop endpoint for
        # endpoint
        rng = np.random.default_rng(12)

        def dyadic(*shape):
            lo = rng.integers(-8, 9, size=(2, *shape)) / 16.0
            hi = lo + rng.integers(0, 3, size=lo.shape) / 16.0
            return CIntervalArray(lo, hi)

        for sa, sb in (((3, 4), (4, 2)), ((3, 4), (4,)),
                       ((2, 3, 4), (4, 2)), ((4,), (4, 3))):
            A, B = dyadic(*sa), dyadic(*sb)
            C = A @ B
            assert C.shape == sa[:-1] + sb[1:]
            for idx in np.ndindex(*C.shape):
                row, col = idx[:len(sa) - 1], idx[len(sa) - 1:]
                want = CInterval(0.0)
                for j in range(sa[-1]):
                    want = want + A.at(*row, j) * B.at(j, *col)
                got = C.at(*idx)
                assert got.re == want.re and got.im == want.im, idx
        with pytest.raises(ValueError):
            dyadic(3, 4) @ dyadic(3)

    def test_matmul_encloses_exact_product(self):
        # point entries of mixed magnitude: every entry of the
        # contraction encloses the exact complex sum of products
        rng = np.random.default_rng(13)
        a = _rand_floats(rng, 2 * 3 * 5).reshape(2, 3, 5)
        b = _rand_floats(rng, 2 * 5 * 2).reshape(2, 5, 2)
        C = CIntervalArray(a, a) @ CIntervalArray(b, b)
        for i, k in np.ndindex(3, 2):
            pairs = [[Fraction(float(x)) for x in (a[0, i, j], a[1, i, j],
                                                   b[0, j, k], b[1, j, k])]
                     for j in range(5)]
            re = sum(ar * br - ai * bi for ar, ai, br, bi in pairs)
            im = sum(ar * bi + ai * br for ar, ai, br, bi in pairs)
            got = C.at(i, k)
            assert Fraction(got.re.lo) <= re <= Fraction(got.re.hi)
            assert Fraction(got.im.lo) <= im <= Fraction(got.im.hi)

    def test_indexing_views_and_stacking(self):
        a = CIntervalArray.zeros((3, 4))
        row = a[1]
        row[2] = CInterval(Interval(1.0, 2.0), Interval(-1.0, 0.5))
        assert a.at(1, 2).re == Interval(1.0, 2.0)
        assert a.at(1, 2).im == Interval(-1.0, 0.5)
        # a scalar fills a region without mixing its real and imaginary
        # parts into the region's entries
        a[0, :2] = CInterval(Interval(3.0), Interval(4.0))
        assert a.at(0, 1).re == Interval(3.0)
        assert a.at(0, 1).im == Interval(4.0)
        assert a.at(0, 2).re == Interval(0.0)
        b = CIntervalArray.of([a[0], a[1], a[2]])
        assert np.array_equal(b.lo, a.lo) and np.array_equal(b.hi, a.hi)
        assert a.mid()[1, 2] == 1.5 - 0.25j
        assert a.mag()[0, 0] == 5.0
        with pytest.raises(ValueError):
            CIntervalArray(np.ones((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            CIntervalArray(np.zeros((3, 3)), np.zeros((3, 3)))

    @pytest.mark.parametrize("key", [
        ([0, 1, 2], slice(None), 2),
        (np.array([[0], [3]]), slice(1, 3), np.array([1, 4])),
        (1, slice(None), [0, 2]),
        ([4, 0], slice(None), slice(None)),
        (slice(None), [1, 3], [0, 4]),
        (Ellipsis, [2, 0]),
        [5, 6],
    ])
    def test_indexing_matches_each_part(self, key):
        # advanced indices, also ones a slice separates, index the
        # array as numpy indexes each part of shape (7, 4, 5)
        rng = np.random.default_rng(17)
        lo = rng.standard_normal((2, 7, 4, 5))
        lo[1] += 10.0  # imaginary parts apart from the real ones
        a = CIntervalArray(lo, lo + 1.0)
        got = a[key]
        k = tuple(key) if isinstance(key, tuple) else key
        for part in (0, 1):
            want = lo[part][k]
            assert got.shape == want.shape
            assert np.array_equal(got.lo[part], want)
            assert np.array_equal(got.hi[part], want + 1.0)
        first = (0,) * got.ndim
        assert got.at(*first).im.lo == lo[1][k][first]

    def test_mag_bounds_exact_modulus(self):
        # hypot rounds to nearest, so on its own it undercuts the
        # modulus for about half of these pairs; mag never may, and
        # keeps the exact 5 of 3 + 4i and |x| of a real x
        rng = np.random.default_rng(11)
        x = np.concatenate(([0.04097352393619469, 3.0, 0.1],
                            _rand_floats(rng, 2000)))
        y = np.concatenate(([0.9179061054689658, 4.0, 0.0],
                            _rand_floats(rng, 2000)))
        a = CIntervalArray(np.stack((x, y)), np.stack((x, y)))
        got = a.mag()
        assert got[1] == 5.0 and got[2] == 0.1
        with mpmath.workprec(200):
            for xi, yi, g in zip(x, y, got):
                exact = mpmath.sqrt(mpmath.mpf(xi) ** 2 + mpmath.mpf(yi) ** 2)
                assert mpmath.mpf(g) >= exact, (xi, yi)
