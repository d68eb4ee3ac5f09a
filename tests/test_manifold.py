"""Tests for local manifold parameterization, charts, and boundary meshing."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fourbody import manifold
from fourbody.crfbp import (
    MassTriple,
    energy,
    field_point,
    primaries,
)
from fourbody.errors import (
    DomainExceeded,
    SingularEnclosure,
    SymmetryViolation,
    TangencyDetected,
)
from fourbody.interval import (CInterval, CIntervalArray, Interval,
                               IntervalArray, verified_solve_complex)
from fourbody.manifold import (
    BoundaryArc,
    LocalManifold,
    _chart_transform,
    _chord_arcs,
    _land,
    _mirror,
    boundary_mesh,
    field_series,
    local_manifold,
    param_equilibrium,
    real_chart,
    solve_homological,
)
from fourbody.polyfield import (DIM, FieldNodes, field_defect,
                                field_program, lift_eigvector, poly_DF)
from fourbody.taylor import (ScalarSeries2, Series2, _fit, antidiagonal,
                             conj_symmetry_check, mag_sum_bound)

from conftest import (defect_sum, degree_nodes, from_complex_points,
                      project_pi, real_chart_loop, stack_boxes)


@pytest.fixture(scope="module")
def setup():
    m = MassTriple.from_floats(0.5, 0.3, 0.2)
    return m, primaries(m)


@pytest.fixture(scope="module")
def stable7(setup):
    m, pc = setup
    return local_manifold(m, pc, "stable", N=7)


@pytest.fixture(scope="module")
def unstable7(setup):
    m, pc = setup
    return local_manifold(m, pc, "unstable", N=7)


@pytest.fixture(scope="module")
def stable4(setup):
    m, pc = setup
    return local_manifold(m, pc, "stable", N=4, scale=0.05)


def _overlap(a: Interval, b: Interval) -> bool:
    return a.lo <= b.hi and b.lo <= a.hi


def _invariance_lhs(P, lam1, lam2, K):
    """(m lam1 + n lam2) a_mn on P's grid, grown with zeros to (K, K)."""
    N = P.orders[0]
    mu = (CIntervalArray.of([lam1]) * np.arange(N + 1.0)[:, None]
          + CIntervalArray.of([lam2]) * np.arange(N + 1.0)[None, :])
    lhs = CIntervalArray.zeros((7, K + 1, K + 1))
    lhs[:, : N + 1, : N + 1] = CIntervalArray.of(P.components) * mu
    return lhs


def _invariance_defect(m, pc, M, K):
    """field_defect of the invariance equation of M on the (K, K) grid:
    the in-grid residual and the per-component beyond-grid bounds."""
    P = M.P
    cols = FieldNodes(field_program(m, pc), K, K)
    cols.G[0, :DIM] = Series2(tuple(_fit(c, K, K) for c in P.components)).coefs
    lhs = _invariance_lhs(P, M.lambda1, M.lambda2, K)
    field_defect(cols, CIntervalArray._wrap(lhs.lo[:, None], lhs.hi[:, None]))
    return (Series2(lhs - cols.G[0, cols.outputs]).components,
            list(cols.beyond_grid_bounds([0])[0]))


def _mig_sum(r) -> float:
    """Lower bound on the coefficient mass of a residual series: the
    moduli of its enclosures' points nearest zero, rounded down."""
    re, im = np.maximum(np.maximum(r.lo, -r.hi), 0.0)
    return float(np.nextafter(np.hypot(re, im), 0.0).sum())


class TestHomologicalSolver:
    def test_first_order_data_installed_exactly(self, setup, stable4):
        M = stable4
        for i in range(7):
            a00 = M.P.components[i].at(0, 0)
            assert a00.re == M.equilibrium.u[i]
            assert a00.im == Interval.from_value(0.0)
        for c in M.P.components:
            v, w = c.at(1, 0), c.at(0, 1)
            assert v.re == w.re
            assert v.im == -w.im

    def test_zero_tangent_data_gives_constant_solution(self, setup, stable4):
        m, pc = setup
        M = stable4
        zero = CInterval(Interval.from_value(0.0))
        P = solve_homological(m, pc, M.equilibrium, (zero,) * 7, (zero,) * 7,
                              M.lambda1, M.lambda2, 3)
        for comp in P.components:
            assert np.all(comp.rlo[1:] == 0.0) and np.all(comp.rhi[1:] == 0.0)
            assert np.all(comp.rlo[0, 1:] == 0.0)
            assert np.all(comp.ilo == 0.0) and np.all(comp.ihi == 0.0)

    def test_order2_dense_oracle(self, setup, stable4):
        """Independent midpoint oracle: assemble c_mn by brute-force grid
        convolutions and solve the 7x7 system with numpy."""
        m, pc = setup
        M = stable4
        grids = [c.mid() for c in M.P.components]
        masses = m.as_floats()
        pos = pc.position_array()
        lam1 = complex(M.lambda1.re.mid, M.lambda1.im.mid)
        lam2 = complex(M.lambda2.re.mid, M.lambda2.im.mid)

        def conv(*factors):
            def at(mm, nn):
                out = factors[0][: mm + 1, : nn + 1].copy()
                for f in factors[1:]:
                    new = np.zeros_like(out)
                    for j in range(mm + 1):
                        for k in range(nn + 1):
                            acc = 0.0 + 0.0j
                            for a in range(j + 1):
                                for b in range(k + 1):
                                    acc += out[a, b] * f[j - a, k - b]
                            new[j, k] = acc
                    out = new
                return out[mm, nn]
            return at

        # midpoint Jacobian of the lifted field at the equilibrium
        df_iv = poly_DF(m, pc, stack_boxes(M.equilibrium.u))[0]
        df = 0.5 * (df_iv.lo + df_iv.hi)
        for (mm, nn) in [(2, 0), (1, 1), (0, 2)]:
            hatg = [g.copy() for g in grids]
            for g in hatg:
                g[mm, nn] = 0.0
            c = np.zeros(7, dtype=complex)
            for j in range(3):
                w = hatg[4 + j]
                dx = hatg[0].copy()
                dx[0, 0] -= pos[j, 0]
                dy = hatg[2].copy()
                dy[0, 0] -= pos[j, 1]
                c[1] -= masses[j] * conv(dx, w, w, w)(mm, nn)
                c[3] -= masses[j] * conv(dy, w, w, w)(mm, nn)
                c[4 + j] -= (conv(dx, hatg[1], w, w, w)(mm, nn)
                             + conv(dy, hatg[3], w, w, w)(mm, nn))
            mu = mm * lam1 + nn * lam2
            a = np.linalg.solve(df - mu * np.eye(7), -c)
            for i in range(7):
                got = M.P.components[i].at(mm, nn)
                assert abs(complex(got.re.mid, got.im.mid) - a[i]) < 1e-10

    def test_resonant_multiplier_raises(self, setup, stable4):
        # mu = 0 hits the genuine kernel of the lifted Jacobian
        m, pc = setup
        M = stable4
        zero = CInterval(Interval.from_value(0.0))
        with pytest.raises(SingularEnclosure):
            solve_homological(m, pc, M.equilibrium, (zero,) * 7, (zero,) * 7,
                              zero, zero, 2)

    def test_bad_first_order_shapes(self, setup, stable4):
        m, pc = setup
        M = stable4
        zero = CInterval(Interval.from_value(0.0))
        with pytest.raises(ValueError):
            solve_homological(m, pc, M.equilibrium, (zero,) * 6, (zero,) * 7,
                              M.lambda1, M.lambda2, 2)
        with pytest.raises(ValueError):
            solve_homological(m, pc, M.equilibrium, (zero,) * 7, (zero,) * 7,
                              M.lambda1, M.lambda2, 0)


def _full_solve(m, pc, u0, v1, v2, lam1, lam2, N) -> Series2:
    """Reference for the half solve: every slot of every degree, hat
    sums from the degree fill on full antidiagonals and one verified
    solve per coefficient, no mirror."""
    ev, J = degree_nodes(field_program(m, pc), N,
                          [CInterval(ui) for ui in u0.u])
    df = poly_DF(m, pc, stack_boxes(u0.u))[0]
    zero = np.zeros_like(df.lo)
    diag = np.arange(DIM)
    ev.degree(1)
    _land(ev.G[0], J, 1, [CIntervalArray.of(pair) for pair in zip(v2, v1)])
    for d in range(2, 2 * N + 1):
        c = ev.degree(d)[0]
        sols = []
        for r, (mm, nn) in enumerate(zip(*antidiagonal(N, N, d))):
            A = CIntervalArray(np.stack((df.lo, zero)),
                               np.stack((df.hi, zero)))
            mu = lam1 * float(mm) + lam2 * float(nn)
            A[diag, diag] = A[diag, diag] - CIntervalArray.of([mu])
            sols.append(verified_solve_complex(A, -c[:, r]))
        sols = CIntervalArray.of(sols)
        _land(ev.G[0], J, d, [sols[:, i] for i in range(DIM)])
    return Series2(ev.G[0, :DIM])


class TestHalfSolve:
    """solve_homological computes the slots m >= n of each degree and
    mirrors the rest by a_nm = conj(a_mn)."""

    @pytest.mark.parametrize("kind", ["stable", "unstable"])
    def test_half_solve_overlaps_full_solve(self, setup, request, kind):
        m, pc = setup
        M = request.getfixturevalue(f"{kind}7")
        u0 = M.equilibrium
        xi = lift_eigvector(pc, project_pi(u0), M.eigen.eigenvector(kind, +1))
        xc = tuple(c.conj() for c in xi)
        for N in range(2, 8):
            half = solve_homological(m, pc, u0, xi, xc, M.lambda1,
                                     M.lambda2, N)
            full = _full_solve(m, pc, u0, xi, xc, M.lambda1, M.lambda2, N)
            a, b = half.coefs, full.coefs
            assert np.all(np.maximum(a.lo, b.lo) <= np.minimum(a.hi, b.hi)), N
            # the mirror is exact, so the check finds no defect at all
            rep = conj_symmetry_check(half)
            assert rep.symmetric and rep.max_defect == 0.0, (kind, N)

    def test_built_manifolds_exactly_symmetric(self, stable7, unstable7):
        for M in (stable7, unstable7):
            assert conj_symmetry_check(M.P).max_defect == 0.0

    def test_mirror_swaps_and_narrows_the_diagonal(self, setup):
        m, pc = setup
        ev, _ = degree_nodes(field_program(m, pc), 2,
                              [CInterval(1.0)] * DIM)
        g = Series2(ev.G[0]).components[DIM + 3]
        g[2, 0] = CInterval(Interval(1.0, 2.0), Interval(-3.0, 4.0))
        g[1, 1] = CInterval(Interval(5.0, 6.0), Interval(-1.0, 2.0))
        _mirror(ev.G[0], 2)
        assert g.at(0, 2) == g.at(2, 0).conj()
        # a real coefficient lies in the enclosure and in its conjugate
        assert g.at(1, 1) == CInterval(Interval(5.0, 6.0), Interval(-1.0, 1.0))
        g[1, 1] = CInterval(Interval(5.0, 6.0), Interval(0.5, 1.0))
        with pytest.raises(SymmetryViolation):
            _mirror(ev.G[0], 2)

    def test_non_conjugate_data_rejected(self, setup, stable7):
        m, pc = setup
        M = stable7
        u0 = M.equilibrium
        xi = lift_eigvector(pc, project_pi(u0),
                            M.eigen.eigenvector("stable", +1))
        xc = tuple(c.conj() for c in xi)
        lam1, lam2 = M.lambda1, M.lambda2
        with pytest.raises(ValueError):
            solve_homological(m, pc, u0, xi, xi, lam1, lam2, 2)
        with pytest.raises(ValueError):
            solve_homological(m, pc, u0, xi, xc, lam1, lam1, 2)
        # one endpoint one ulp off is not the conjugate either
        re = xc[3].re
        bumped = CInterval(Interval(re.lo, math.nextafter(re.hi, math.inf)),
                           xc[3].im)
        with pytest.raises(ValueError):
            solve_homological(m, pc, u0, xi, xc[:3] + (bumped,) + xc[4:],
                              lam1, lam2, 2)
        solve_homological(m, pc, u0, xi, xc, lam1, lam2, 2)


class TestInvarianceResidual:
    def test_all_coefficients_straddle(self, setup, stable7):
        m, pc = setup
        N = stable7.order
        res, _ = _invariance_defect(m, pc, stable7, math.ceil(1.5 * N))
        for r in res:
            for mm in range(N + 1):
                for nn in range(N + 1):
                    assert r.at(mm, nn).straddles_zero(), (mm, nn)

    def test_fault_injection_flagged(self, setup, stable4):
        m, pc = setup
        M = stable4
        comps = tuple(c.copy() for c in M.P.components)
        zero = CInterval(Interval.from_value(0.0))
        for c in comps:
            c[2, 1] = zero
        broken = dataclasses.replace(
            M, P=Series2(comps, scale=M.P.scale, tau=1.0, tail=0.0))
        res, _ = _invariance_defect(m, pc, broken, M.order)
        flagged = any(not r.at(2, 1).straddles_zero() for r in res)
        assert flagged
        # indices not componentwise above (2, 1) stay clean
        for r in res:
            assert r.at(2, 0).straddles_zero()
            assert r.at(1, 1).straddles_zero()
            assert r.at(0, 2).straddles_zero()


    def test_residual_matches_scalar_loop(self, setup):
        # every endpoint of the residual equals the per-coefficient
        # CInterval loop, in P's grid and beyond it
        m, pc = setup
        M = local_manifold(m, pc, "stable", N=3)
        P, lam1, lam2 = M.P, M.lambda1, M.lambda2
        res, _ = _invariance_defect(m, pc, M, 15)
        field = field_series(m, pc, P, (15, 15))
        for i in range(7):
            for mm in range(16):
                for nn in range(16):
                    f = field[i].at(mm, nn)
                    if mm <= 3 and nn <= 3:
                        mu = lam1 * float(mm) + lam2 * float(nn)
                        f = mu * P.components[i].at(mm, nn) - f
                    else:
                        f = -f
                    got = res[i].at(mm, nn)
                    assert got.re == f.re and got.im == f.im, (i, mm, nn)

    @pytest.mark.parametrize("kind", ["stable", "unstable"])
    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_tail_covers_full_residual(self, setup, request, kind, N):
        # the tail from the (K, K) grid, K = ceil(3N / 2), against the
        # whole residual out to (5N, 5N), where F(P) ends: the tail must
        # cover every component's mass, and each beyond-grid bound the
        # mass outside (K, K); only the second check catches a dropped
        # beyond term, whose content is about 1e-5 of the tail
        m, pc = setup
        M = (request.getfixturevalue(f"{kind}7") if N == 7
             else local_manifold(m, pc, kind, N=N))
        K = math.ceil(1.5 * N)
        res, beyond = _invariance_defect(m, pc, M, K)
        assert M.P.tail == defect_sum(map(mag_sum_bound, res), beyond)
        full = CIntervalArray.of(field_series(m, pc, M.P, (5 * N, 5 * N)))
        resid = _invariance_lhs(M.P, M.lambda1, M.lambda2, 5 * N) - full
        for i in range(7):
            r = resid[i]
            assert M.P.tail >= _mig_sum(r), i
            outside = r.copy()
            outside[: K + 1, : K + 1] = CInterval(0.0)
            assert beyond[i] >= _mig_sum(outside), i
            if i not in (0, 2):
                assert _mig_sum(outside) > 0.0, i


class TestConjugateSymmetry:
    def test_series_is_conjugate_symmetric(self, stable7):
        rep = conj_symmetry_check(stable7.P)
        assert rep.symmetric
        assert rep.max_defect < 1e-12


class TestScaleCovariance:
    def test_half_scale_matches_rescale(self, setup, request,
                                        assert_overlap):
        # local_manifold rescales its one unit-eigenvector solve; the
        # reference solves directly on the data xi s at the same s
        m, pc = setup
        for kind in ("stable", "unstable"):
            for N in range(3, 8):
                M = (request.getfixturevalue(f"{kind}7") if N == 7
                     else local_manifold(m, pc, kind, N=N))
                s = M.scale.real
                u0 = M.equilibrium
                xi = lift_eigvector(pc, project_pi(u0),
                                    M.eigen.eigenvector(kind, +1))
                v1 = tuple(c * s for c in xi)
                direct = solve_homological(
                    m, pc, u0, v1, tuple(c.conj() for c in v1),
                    M.lambda1, M.lambda2, N)
                for a, b in zip(M.P.components, direct.components):
                    assert_overlap(a, b)
                ref = param_equilibrium(m, pc, u0, direct, M.lambda1,
                                        M.lambda2, kind=kind, eigen=M.eigen)
                assert M.P.tail <= (1.0 + 1e-3) * ref.P.tail, (kind, N)


class TestRealChart:
    def test_origin_is_equilibrium(self, stable7):
        v = real_chart(stable7, 0.0, 0.0)
        for i in range(7):
            assert _overlap(v[i], stable7.equilibrium.u[i])

    def test_energy_level_constant(self, setup, stable7):
        m, pc = setup
        e0 = energy(pc, m, project_pi(stable7.equilibrium))
        for k in range(8):
            th = 2 * math.pi * k / 8
            v = real_chart(stable7, 0.5 * math.cos(th), 0.5 * math.sin(th))
            from fourbody.crfbp import State4
            s4 = State4(v[0], v[1], v[2], v[3])
            de = energy(pc, m, s4) - e0
            pad = Interval(-2e-9, 2e-9)
            assert (de + pad).straddles_zero(), (k, de)

    def test_conjugate_swap_involution(self, stable7):
        # P(conj w2, conj w1) = conj(P(w1, w2)) for a symmetric series
        w1 = CInterval(Interval.from_value(0.31), Interval.from_value(0.12))
        w2 = CInterval(Interval.from_value(-0.05), Interval.from_value(0.4))
        a = stable7.P.eval_box(w1, w2)
        b = stable7.P.eval_box(w2.conj(), w1.conj())
        for x, y in zip(a, b):
            yc = y.conj()
            assert _overlap(x.re, yc.re) and _overlap(x.im, yc.im)

    def test_on_surface_membership(self, setup, stable7):
        m, pc = setup
        from fourbody.crfbp import _distances
        for s1, s2 in [(0.2, 0.1), (-0.4, 0.3), (0.0, 0.5)]:
            v = real_chart(stable7, s1, s2)
            rs = _distances(pc, v[0], v[2])
            for j in range(3):
                recip = Interval.from_value(1.0) / rs[j]
                assert _overlap(recip, v[4 + j])

    def test_symmetry_violation_raises(self, stable4):
        comps = tuple(c.copy() for c in stable4.P.components)
        c0 = comps[0].at(1, 0)
        comps[0][1, 0] = CInterval(c0.re, c0.im + Interval.from_value(0.05))
        broken = dataclasses.replace(
            stable4, P=Series2(comps, scale=stable4.P.scale, tau=1.0,
                               tail=0.0))
        with pytest.raises(SymmetryViolation):
            real_chart(broken, 0.4, 0.0)


def _gaussian_transform(d):
    """T_d by expanding (s1 + i s2)^m (s1 - i s2)^(d-m) in Python
    integers: entry (j, m) as an (re, im) pair of ints."""
    def times(poly, re, im):
        # multiply a polynomial in s2 (s1 implicit) by re s1 + im i s2
        out = [(0, 0)] * (len(poly) + 1)
        for k, (a, b) in enumerate(poly):
            out[k] = (out[k][0] + a, out[k][1] + b)
            # (a + b i) (im i) = -b im + a im i
            out[k + 1] = (out[k + 1][0] - b * im, out[k + 1][1] + a * im)
        return out
    T = [[None] * (d + 1) for _ in range(d + 1)]
    for m in range(d + 1):
        poly = [(1, 0)]
        for _ in range(m):
            poly = times(poly, 1, 1)
        for _ in range(d - m):
            poly = times(poly, 1, -1)
        for k, v in enumerate(poly):
            T[d - k][m] = v
    return T


def _mul_linear(H, c0, c1, deg):
    """Product with (c0 + c1 s) along the first axis, truncated at deg,
    in complex interval arithmetic."""
    shift = ScalarSeries2.zeros(*H.orders)
    shift[1:] = (H * c1)[:deg]
    return H * c0 + shift


def _complex_chords(P, chords, deg):
    """P along every chord z1 = mid + half s, z2 = conj(z1), by nested
    complex Horner over P's (N, N) grid; column k * 7 + i is component
    i along chord k.  The reference the real chord pass replaced."""
    N = P.orders[0]
    n = len(chords)

    def per_column(zs):
        return from_complex_points(
            np.repeat(np.array(zs, dtype=complex), 7)[None])

    a0 = per_column([0.5 * (p0 + p1) for p0, p1 in chords])
    a1 = per_column([0.5 * (p1 - p0) for p0, p1 in chords])
    b0 = per_column([(0.5 * (p0 + p1)).conjugate() for p0, p1 in chords])
    b1 = per_column([(0.5 * (p1 - p0)).conjugate() for p0, p1 in chords])
    coef = CIntervalArray.of(P.components)[np.tile(np.arange(7), n)]
    rows = []
    for mm in range(N + 1):
        acc = ScalarSeries2.zeros(deg, n * 7 - 1)
        acc[0] = coef[:, mm, N]
        for nn in range(N - 1, -1, -1):
            acc = _mul_linear(acc, b0, b1, deg)
            acc[0] = acc[0] + coef[:, mm, nn]
        rows.append(acc)
    acc = rows[N]
    for mm in range(N - 1, -1, -1):
        acc = _mul_linear(acc, a0, a1, deg)
        acc = acc + rows[mm]
    return acc


class TestRealSeries:
    def test_transform_is_exact(self):
        for d in range(21):
            T = _chart_transform(d)
            ref = _gaussian_transform(d)
            for j in range(d + 1):
                for m in range(d + 1):
                    re, im = ref[j][m]
                    assert T.lo[0, j, m] == re == T.hi[0, j, m]
                    assert T.lo[1, j, m] == im == T.hi[1, j, m]

    def test_transform_encloses_beyond_53(self):
        d = 60
        T = _chart_transform(d)
        ref = _gaussian_transform(d)
        inexact = 0
        for j in range(d + 1):
            for m in range(d + 1):
                for part, v in enumerate(ref[j][m]):
                    lo, hi = T.lo[part, j, m], T.hi[part, j, m]
                    # Python compares int and float exactly
                    assert lo <= v <= hi
                    inexact += lo != hi
        assert inexact > 0

    @pytest.mark.parametrize("N", [4, 7])
    def test_real_chart_overlaps_complex_evaluation(self, setup, N):
        m, pc = setup
        M = local_manifold(m, pc, "stable", N=N)
        rng = np.random.default_rng(11)
        for _ in range(10):
            r = 0.95 * math.sqrt(rng.uniform())
            th = rng.uniform(0.0, 2 * math.pi)
            s1, s2 = r * math.cos(th), r * math.sin(th)
            v = real_chart(M, s1, s2)
            ref = M.P.eval_box(CInterval(s1, s2), CInterval(s1, -s2))
            for i in range(7):
                assert _overlap(v[i], ref[i].re), (i, s1, s2)

    def test_real_chart_equals_loop(self, stable7):
        # the stacked Horner pass keeps the old loop's endpoints, up to
        # the sign of a zero, and adds the tail to them
        t = stable7.P.tail
        for s1, s2 in [(0.0, 0.0), (0.2, -0.1), (-0.55, 0.4),
                       (Interval(0.1, 0.125), Interval(-0.3, -0.25))]:
            ref = real_chart_loop(stable7.Q, Interval._coerce(s1),
                                  Interval._coerce(s2))
            ref = ref + IntervalArray(np.full(DIM, -t), np.full(DIM, t))
            v = real_chart(stable7, s1, s2)
            assert np.array_equal(v.lo, ref.lo)
            assert np.array_equal(v.hi, ref.hi)

    def test_real_chart_stays_in_the_disk(self, stable4):
        with pytest.raises(DomainExceeded):
            real_chart(stable4, 0.8, 0.8)

    def test_domain_guard_is_exact(self, stable4):
        # the tail bounds P only for |z| <= 1, so a point outside the
        # unit disk by any margin is refused, and one on its edge is not
        out = CInterval(Interval.from_value(1.0 + 5e-13))
        zero = CInterval(Interval.from_value(0.0))
        one = CInterval(Interval.from_value(1.0))
        with pytest.raises(DomainExceeded):
            real_chart(stable4, 1.0 + 5e-13, 0.0)
        with pytest.raises(DomainExceeded):
            stable4.P.eval_box(out, zero)
        with pytest.raises(DomainExceeded):
            stable4.P.eval_box(zero, out)
        real_chart(stable4, 1.0, 0.0)
        stable4.P.eval_box(one, one)

    def test_series_is_real_triangle(self, stable7):
        Q = stable7.Q
        assert Q.shape == (7, 15, 15)
        j, k = np.indices((15, 15))
        outside = j + k > 14
        assert not np.any(Q.lo[:, outside]) and not np.any(Q.hi[:, outside])
        assert stable7.Q is Q


class TestFlowConjugacy:
    """Non-rigorous cross-check: advancing a chart point with a reference
    integrator lands on the chart point with exponentially advanced
    parameters."""

    def _check(self, setup, M, ts):
        m, pc = setup
        masses = np.array(m.as_floats())
        pos = pc.position_array()
        lam1 = complex(M.lambda1.re.mid, M.lambda1.im.mid)
        grids = [c.mid() for c in M.P.components]

        def chart_point(z):
            z1, z2 = z, np.conj(z)
            N = M.order
            vals = [sum(g[mm, nn] * z1**mm * z2**nn
                        for mm in range(N + 1) for nn in range(N + 1))
                    for g in grids[:4]]
            return np.array([v.real for v in vals])

        worst = 0.0
        rng = np.random.default_rng(23)
        for _ in range(25):
            r = 0.5 * math.sqrt(rng.uniform(0.04, 1.0))
            th = rng.uniform(0.0, 2 * math.pi)
            z = r * complex(math.cos(th), math.sin(th))
            x0 = chart_point(z)
            for t in ts:
                target = chart_point(np.exp(lam1 * t) * z)
                sol = solve_ivp(
                    lambda _, s: field_point(pos, masses, s),
                    (0.0, t), x0, method="DOP853", rtol=1e-12, atol=1e-12)
                worst = max(worst, float(np.max(np.abs(sol.y[:, -1] - target))))
        assert worst <= 1e-8, worst

    def test_stable_forward(self, setup, stable7):
        self._check(setup, stable7, (0.5, 1.0))

    def test_unstable_backward(self, setup, unstable7):
        self._check(setup, unstable7, (-0.5, -1.0))


class TestBoundaryMesh:
    def test_paper_setup_tails(self, stable7):
        arcs = boundary_mesh(stable7, R=0.99, n_arcs=20, arc_order=15)
        assert len(arcs) == 20
        assert all(isinstance(a, BoundaryArc) for a in arcs)
        # arc_order 15 exceeds the composition degree 2N = 14, so the
        # arcs inherit the manifold tail with nothing extra folded in
        assert all(a.gamma.tail == stable7.P.tail for a in arcs)
        assert max(a.gamma.tail for a in arcs) <= 5e-11
        assert all(a.gamma.orders == (15, 0) for a in arcs)

    def test_arcs_concatenate(self, stable7):
        arcs = boundary_mesh(stable7, R=0.9, n_arcs=6)
        one = CInterval(Interval.from_value(1.0))
        neg = CInterval(Interval.from_value(-1.0))
        zero = CInterval(Interval.from_value(0.0))
        for k in range(6):
            e0 = arcs[k].gamma.eval_box(one, zero)
            e1 = arcs[(k + 1) % 6].gamma.eval_box(neg, zero)
            for a, b in zip(e0, e1):
                assert _overlap(a.re, b.re)

    def test_preimage_winds_once(self, stable7):
        arcs = boundary_mesh(stable7, R=0.9, n_arcs=8)
        total = 0.0
        for a in arcs:
            p0, p1 = a.preimage
            total += math.atan2((p1 / p0).imag, (p1 / p0).real)
        assert abs(total - 2 * math.pi) < 1e-12

    def test_tangency_detected(self, stable4):
        wide = CInterval(Interval(-0.1, 0.1), stable4.lambda1.im)
        broken = dataclasses.replace(stable4, lambda1=wide)
        with pytest.raises(TangencyDetected):
            boundary_mesh(broken, R=0.9, n_arcs=6)

    def test_flux_checked_on_composed_chords(self, stable4, monkeypatch):
        # the transversality check sees exactly the chords c + h s that
        # are composed with Q, whose float ends c -+ h are not all the
        # vertices the chords were cut between
        checked, composed = [], []
        check, compose = manifold._check_chord_flux, manifold._chord_arcs

        def spy_check(M, *chord):
            checked.append(chord)
            check(M, *chord)

        def spy_compose(Q, c, h):
            composed.append((c.copy(), h.copy()))
            return compose(Q, c, h)

        monkeypatch.setattr(manifold, "_check_chord_flux", spy_check)
        monkeypatch.setattr(manifold, "_chord_arcs", spy_compose)
        arcs = boundary_mesh(stable4, R=0.99, n_arcs=20)
        ((c, h),) = composed
        assert checked == [(complex(*ck), complex(*hk))
                           for ck, hk in zip(c, h)]
        ends = [(ck - hk, ck + hk) for ck, hk in checked]
        assert any(e != arc.preimage for e, arc in zip(ends, arcs))

    def test_invalid_radius(self, stable4):
        with pytest.raises(ValueError):
            boundary_mesh(stable4, R=1.2)
        with pytest.raises(ValueError):
            boundary_mesh(stable4, R=0.9, n_arcs=2)

    def test_stacked_chords_compose_independently(self, stable4):
        # the one Horner pass over all chords gives every arc exactly
        # what a pass over its own chord alone gives
        arcs = boundary_mesh(stable4, R=0.9, n_arcs=6)
        for arc in arcs:
            p0, p1 = arc.preimage
            c, h = 0.5 * (p0 + p1), 0.5 * (p1 - p0)
            alone = _chord_arcs(stable4.Q, np.array([[c.real, c.imag]]),
                                np.array([[h.real, h.imag]]))
            for i, comp in enumerate(arc.gamma.components):
                assert np.array_equal(comp.rlo[:, 0], alone.lo[:, i])
                assert np.array_equal(comp.rhi[:, 0], alone.hi[:, i])
                assert not np.any(comp.ilo) and not np.any(comp.ihi)

    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_real_arcs_overlap_complex_composition(self, setup, N):
        m, pc = setup
        M = local_manifold(m, pc, "stable", N=N)
        arcs = boundary_mesh(M, R=0.99, n_arcs=20)
        old = _complex_chords(M.P, [a.preimage for a in arcs], 2 * N)
        for k, arc in enumerate(arcs):
            for i, comp in enumerate(arc.gamma.components):
                ref = old[:, k * 7 + i]
                assert np.all(comp.rlo[:, 0] <= ref.hi[0])
                assert np.all(ref.lo[0] <= comp.rhi[:, 0])

    def test_mesh_symmetry_violation_raises(self, stable4):
        comps = tuple(c.copy() for c in stable4.P.components)
        c0 = comps[0].at(1, 0)
        comps[0][1, 0] = CInterval(c0.re, c0.im + Interval.from_value(0.05))
        broken = dataclasses.replace(
            stable4, P=Series2(comps, scale=stable4.P.scale, tau=1.0,
                               tail=0.0))
        with pytest.raises(SymmetryViolation):
            boundary_mesh(broken, R=0.9, n_arcs=6)

    def test_truncated_arc_gets_tail(self, stable4):
        # 6 arcs keep every chord transverse to the spiral flow; 4 do not
        full = boundary_mesh(stable4, R=0.9, n_arcs=6)
        short = boundary_mesh(stable4, R=0.9, n_arcs=6, arc_order=3)
        assert all(s.gamma.tail >= f.gamma.tail
                   for s, f in zip(short, full))
        assert short[0].gamma.orders == (3, 0)

    def test_rejects_negative_arc_order(self, stable4):
        # an order-(-1, 0) arc has empty grids, and its tail would be the
        # mass of the whole arc; order 0 keeps the constant terms
        for order in (-1, -5):
            with pytest.raises(ValueError, match="arc order"):
                boundary_mesh(stable4, R=0.9, n_arcs=6, arc_order=order)
        assert boundary_mesh(stable4, R=0.9, n_arcs=6,
                             arc_order=0)[0].gamma.orders == (0, 0)


class TestLocalManifoldMetadata:
    def test_one_homological_solve_per_build(self, setup, monkeypatch):
        m, pc = setup
        orders = []

        def counted(*args):
            orders.append(args[-1])
            return solve_homological(*args)

        monkeypatch.setattr(manifold, "solve_homological", counted)
        local_manifold(m, pc, "stable", N=3)
        assert orders == [3]
        local_manifold(m, pc, "unstable", N=2, scale=0.05)
        assert orders == [3, 2]

    def test_order_20_builds(self, setup):
        # paper-scale order: the half solve keeps N = 20 affordable
        m, pc = setup
        M = local_manifold(m, pc, "stable", N=20)
        assert M.order == 20
        assert math.isfinite(M.P.tail) and M.P.tail > 0.0
        assert conj_symmetry_check(M.P).max_defect == 0.0
        assert M.Q.shape == (7, 41, 41)

    def test_pilot_scale_hits_target(self, stable7):
        N = stable7.order
        g_top = max(stable7.P.components[i].at(mm, N - mm).abs().hi
                    for i in range(7) for mm in range(N + 1))
        assert 1e-11 < g_top < 1e-9

    def test_bad_kind_rejected(self, setup, stable4):
        with pytest.raises(ValueError):
            dataclasses.replace(stable4, kind="sideways")

    def test_defect_tail_positive_and_small(self, stable7):
        # a bound on the sup of the invariance defect over the
        # polydisc, including field orders beyond the solved grid
        assert 0.0 < stable7.P.tail < 5e-11
