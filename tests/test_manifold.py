"""Tests for local manifold parameterization, charts, and boundary meshing."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fourbody.crfbp import (
    MassTriple,
    energy,
    field_point,
    primaries,
)
from fourbody.errors import (
    SingularEnclosure,
    SymmetryViolation,
    TangencyDetected,
)
from fourbody.interval import CInterval, Interval
from fourbody.manifold import (
    BoundaryArc,
    LocalManifold,
    _compose_chords,
    boundary_mesh,
    cauchy_tail_bound,
    invariance_residual,
    local_manifold,
    param_equilibrium,
    real_chart,
    solve_homological,
)
from fourbody.polyfield import project_pi
from fourbody.taylor import Series2, conj_symmetry_check


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
    # reported policy: these tests compare coefficients, not tails
    m, pc = setup
    return local_manifold(m, pc, "stable", N=4, scale=0.05,
                          tail_policy="reported")


def _overlap(a: Interval, b: Interval) -> bool:
    return a.lo <= b.hi and b.lo <= a.hi


class TestHomologicalSolver:
    def test_first_order_data_installed_exactly(self, setup, stable4):
        M = stable4
        for i in range(7):
            a00 = M.P.components[i].coeff(0, 0)
            assert a00.re == M.equilibrium.u[i]
            assert a00.im == Interval.from_value(0.0)
        a10 = M.P.coeff_vector(1, 0)
        a01 = M.P.coeff_vector(0, 1)
        for v, w in zip(a10, a01):
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
        grids = [c.mid_grid() for c in M.P.components]
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
        from fourbody.polyfield import poly_DF, State7
        df_iv = poly_DF(m, pc, M.equilibrium)
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
            got = M.P.coeff_vector(mm, nn)
            for i in range(7):
                assert abs(complex(got[i].re.mid, got[i].im.mid) - a[i]) < 1e-10

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


class TestInvarianceResidual:
    def test_all_coefficients_straddle(self, setup, stable7):
        m, pc = setup
        res = invariance_residual(m, pc, stable7)
        N = stable7.order
        for r in res:
            for mm in range(N + 1):
                for nn in range(N + 1):
                    assert r.coeff(mm, nn).straddles_zero(), (mm, nn)

    def test_fault_injection_flagged(self, setup, stable4):
        m, pc = setup
        M = stable4
        comps = tuple(c.copy() for c in M.P.components)
        zero = CInterval(Interval.from_value(0.0))
        for c in comps:
            c.set_coeff(2, 1, zero)
        broken = dataclasses.replace(
            M, P=Series2(comps, scale=M.P.scale, tau=1.0,
                         real_symmetric=True, tail=0.0))
        res = invariance_residual(m, pc, broken)
        flagged = any(not r.coeff(2, 1).straddles_zero() for r in res)
        assert flagged
        # indices not componentwise above (2, 1) stay clean
        for r in res:
            assert r.coeff(2, 0).straddles_zero()
            assert r.coeff(1, 1).straddles_zero()
            assert r.coeff(0, 2).straddles_zero()


class TestConjugateSymmetry:
    def test_series_is_conjugate_symmetric(self, stable7):
        rep = conj_symmetry_check(stable7.P)
        assert rep.symmetric
        assert rep.max_defect < 1e-12


class TestScaleCovariance:
    def test_half_scale_matches_rescale(self, setup):
        m, pc = setup
        base = local_manifold(m, pc, "stable", N=4, scale=0.06,
                              tail_policy="reported")
        half = local_manifold(m, pc, "stable", N=4, scale=0.03,
                              tail_policy="reported")
        ref = base.P.rescale(0.5)
        for i in range(7):
            for mm in range(5):
                for nn in range(5):
                    a = half.P.components[i].coeff(mm, nn)
                    b = ref.components[i].coeff(mm, nn)
                    assert _overlap(a.re, b.re) and _overlap(a.im, b.im), \
                        (i, mm, nn)


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
            rs = _distances(pc, v[0], v[2], 0.0)
            for j in range(3):
                recip = Interval.from_value(1.0) / rs[j]
                assert _overlap(recip, v[4 + j])

    def test_symmetry_violation_raises(self, stable4):
        comps = tuple(c.copy() for c in stable4.P.components)
        c0 = comps[0].coeff(1, 0)
        comps[0].set_coeff(1, 0, CInterval(c0.re, c0.im + Interval.from_value(0.05)))
        broken = dataclasses.replace(
            stable4, P=Series2(comps, scale=stable4.P.scale, tau=1.0,
                               real_symmetric=False, tail=0.0))
        with pytest.raises(SymmetryViolation):
            real_chart(broken, 0.4, 0.0)


class TestFlowConjugacy:
    """Non-rigorous cross-check: advancing a chart point with a reference
    integrator lands on the chart point with exponentially advanced
    parameters."""

    def _check(self, setup, M, ts):
        m, pc = setup
        masses = np.array(m.as_floats())
        pos = pc.position_array()
        lam1 = complex(M.lambda1.re.mid, M.lambda1.im.mid)
        grids = [c.mid_grid() for c in M.P.components]

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

    def test_invalid_radius(self, stable4):
        with pytest.raises(ValueError):
            boundary_mesh(stable4, R=1.2)
        with pytest.raises(ValueError):
            boundary_mesh(stable4, R=0.9, n_arcs=2)

    def test_stacked_chords_compose_independently(self, stable4):
        # the one Horner pass over all chords gives every arc exactly
        # what a pass over its own chord alone gives
        arcs = boundary_mesh(stable4, R=0.9, n_arcs=6)
        deg = 2 * stable4.P.orders[0]
        for arc in arcs:
            alone = _compose_chords(stable4.P, [arc.preimage], deg)
            for i, comp in enumerate(arc.gamma.components):
                for f in ("rlo", "rhi", "ilo", "ihi"):
                    assert np.array_equal(getattr(comp, f)[:, 0],
                                          getattr(alone, f)[:, i])

    def test_truncated_arc_gets_tail(self, stable4):
        # 6 arcs keep every chord transverse to the spiral flow; 4 do not
        full = boundary_mesh(stable4, R=0.9, n_arcs=6)
        short = boundary_mesh(stable4, R=0.9, n_arcs=6, arc_order=3)
        assert all(s.gamma.tail >= f.gamma.tail
                   for s, f in zip(short, full))
        assert short[0].gamma.orders == (3, 0)


class TestCauchyTailBound:
    def test_zero_sup(self):
        assert cauchy_tail_bound(0.0, 1.9028, 1) == 0.0

    def test_first_order_reference(self):
        # 6 pi / 1.9028 is about 9.908; a tail sum of 4.41e-5 stays
        # below the reference first-derivative bound
        assert cauchy_tail_bound(4.41e-5, 1.9028, 1) <= 4.3739e-4

    def test_second_order_is_square_of_factor(self):
        nu = 1.7
        one1 = cauchy_tail_bound(1.0, nu, 1)
        one2 = cauchy_tail_bound(1.0, nu, 2)
        assert abs(one2 - one1 ** 2) < 1e-12 * one2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            cauchy_tail_bound(1.0, 0.0, 1)
        with pytest.raises(ValueError):
            cauchy_tail_bound(1.0, 1.0, 3)


class TestLocalManifoldMetadata:
    def test_pilot_scale_hits_target(self, stable7):
        N = stable7.order
        g_top = max(stable7.P.components[i].coeff(mm, N - mm).abs().hi
                    for i in range(7) for mm in range(N + 1))
        assert 1e-11 < g_top < 1e-9

    def test_reported_tail_policy(self, setup):
        m, pc = setup
        M = local_manifold(m, pc, "stable", N=2, scale=0.05,
                           tail_policy="reported", tail_value=5.048e-17)
        assert M.P.tail == 5.048e-17
        assert M.tail_policy == "reported"

    def test_bad_kind_rejected(self, setup, stable4):
        with pytest.raises(ValueError):
            dataclasses.replace(stable4, kind="sideways")

    def test_defect_tail_positive_and_small(self, stable7):
        # the sup of the full invariance defect over the polydisc,
        # including field orders beyond the solved grid
        assert 0.0 < stable7.P.tail < 5e-11
