"""Tests for the polynomial lift: embedding, field, Jacobian, kernel."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fourbody.advect import _FieldColumns
from fourbody.crfbp import (
    MassTriple,
    PrimaryConfig,
    State4,
    eigen_data,
    field_f,
    field_point,
    newton_equilibrium,
    primaries,
)
from fourbody.errors import CollisionDomain, DegenerateKernel
from fourbody.interval import CInterval, Interval, IntervalMatrix, IntervalVector
from fourbody.manifold import _DegreeInterpreter, _node_series, _Slots
from fourbody.polyfield import (
    DIM,
    State7,
    embed_R,
    field_program,
    kernel_a,
    kernel_basis,
    lift_eigvector,
    poly_DF,
    poly_F,
    poly_F_point,
    project_perp,
    project_pi,
)
from fourbody.taylor import ScalarSeries2, Series2, antidiagonal

# frozen reciprocal distances at the equilibrium used throughout
U5 = 0.7244980416112365
U6 = 1.3169093184537182
U7 = 1.4796131213655543


@pytest.fixture(scope="module")
def triple():
    return MassTriple.from_floats(0.5, 0.3, 0.2)


@pytest.fixture(scope="module")
def config(triple):
    return primaries(triple)


@pytest.fixture(scope="module")
def equilibrium(config, triple):
    x, y = newton_equilibrium(config, triple, (0.93, 0.22))
    return State4.from_floats(x, 0.0, y, 0.0)


@pytest.fixture(scope="module")
def u0(config, equilibrium):
    return embed_R(config, equilibrium)


def _random_safe_states(config, n, seed=3):
    """Random states bounded away from all primaries."""
    rng = np.random.RandomState(seed)
    pos = config.position_array()
    out = []
    while len(out) < n:
        s = rng.uniform(-1.5, 1.5, size=4)
        d = np.hypot(s[0] - pos[:, 0], s[2] - pos[:, 1])
        if np.min(d) > 0.2:
            out.append(State4.from_floats(*s))
    return out


class TestEmbedding:
    def test_projection_is_exact_left_inverse(self, config):
        s = State4.from_floats(0.9, 0.1, 0.2, -0.3)
        back = project_pi(embed_R(config, s))
        for a, b in ((back.x, s.x), (back.xdot, s.xdot),
                     (back.y, s.y), (back.ydot, s.ydot)):
            assert a.lo == b.lo and a.hi == b.hi

    def test_equilibrium_lift_digits(self, u0):
        perp = project_perp(u0)
        for k, want in enumerate((U5, U6, U7)):
            assert perp[k].lo > 0.0
            assert perp[k].contains(want) or abs(perp[k].mid - want) < 5e-16
            assert perp[k].width < 1e-13

    def test_unit_distances_synthetic(self):
        # three synthetic primaries on the unit circle around the origin
        angles = [0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0]
        pos = tuple((Interval.from_value(np.cos(a)), Interval.from_value(np.sin(a)))
                    for a in angles)
        cfg = PrimaryConfig(pos, Interval.from_value(1.0))
        u = embed_R(cfg, State4.from_floats(0.0, 0.0, 0.0, 0.0))
        for k in range(3):
            assert u.u[4 + k].contains(1.0)

    def test_collision_raises(self, config):
        px = config.positions[0][0].mid
        py = config.positions[0][1].mid
        with pytest.raises(CollisionDomain):
            embed_R(config, State4.from_floats(px, 0.0, py, 0.0))

    def test_on_s_tag(self, config, u0):
        assert u0.on_s
        v = u0.as_vector()
        assert not State7.from_vector(v).on_s


class TestPolyField:
    def test_lift_identity(self, config, triple):
        for s in _random_safe_states(config, 100):
            fv = field_f(config, triple, s)
            Fv = poly_F(triple, config, embed_R(config, s))
            for k in range(4):
                assert Fv[k].overlaps(fv[k]), k

    def test_infinitesimal_conjugacy(self, config, triple):
        # DR(x) f(x) agrees with F(R(x)); build DR from the closed-form
        # gradient of the reciprocal distances
        for s in _random_safe_states(config, 20, seed=11):
            u = embed_R(config, s)
            fv = field_f(config, triple, s)
            Fv = poly_F(triple, config, u)
            for j in range(3):
                px, py = config.positions[j]
                w3 = u.u[4 + j].pow_int(3)
                lifted = -((s.x - px) * w3 * fv[0] + (s.y - py) * w3 * fv[2])
                assert Fv[4 + j].overlaps(lifted), j

    def test_equilibrium_is_zero(self, triple, config, u0):
        Fv = poly_F(triple, config, u0)
        # the lift of the Newton point is an approximate zero only; check
        # over a tiny box around it
        r = 1e-12
        padded = State7(tuple(Interval(c.lo - r, c.hi + r) for c in u0.u))
        Fv = poly_F(triple, config, padded)
        assert Fv.straddles_zero()

    def test_point_path_matches(self, config, triple):
        pos = config.position_array()
        masses = np.array(triple.as_floats())
        for s in _random_safe_states(config, 10, seed=5):
            u = embed_R(config, s)
            up = np.array([c.mid for c in u.u])
            Fp = poly_F_point(pos, masses, up)
            Fv = poly_F(triple, config, u)
            for k in range(7):
                assert abs(Fp[k] - Fv[k].mid) < 1e-12


class TestFieldProgram:
    def test_series_interpreters_agree(self, config, triple):
        # the per-degree (hat values plus tangent correction),
        # per-column and full-product interpreters enclose the same
        # coefficients at every program node
        K = 5
        rng = np.random.default_rng(7)
        comps = [ScalarSeries2.from_complex_points(
            rng.normal(size=(K + 1, K + 1))
            + 1j * rng.normal(size=(K + 1, K + 1))) for _ in range(DIM)]
        prog = field_program(triple, config)
        full = _node_series(prog, comps, (K, K))
        cols = _FieldColumns(prog, K, K)
        for n in range(K + 1):
            cols.b_column(Series2(tuple(comps)), n)
        coef = _DegreeInterpreter(prog, K, [c.coeff(0, 0) for c in comps])
        for d in range(1, 2 * K + 1):
            slots = antidiagonal(K, K, d)
            coef.evaluate(d)
            coef.land(d, [_Slots.read(c, slots) for c in comps])
        assert len(full) == len(coef.grids) == DIM + len(cols.grids)
        for k, (a, c) in enumerate(zip(full, coef.grids)):
            b = comps[k] if k < DIM else cols.grids[k - DIM]
            for lo, hi in (("rlo", "rhi"), ("ilo", "ihi")):
                los = np.maximum.reduce([getattr(s, lo) for s in (a, b, c)])
                his = np.minimum.reduce([getattr(s, hi) for s in (a, b, c)])
                assert np.all(los <= his), k


class TestPolyJacobian:
    def test_finite_difference_oracle(self, config, triple):
        pos = config.position_array()
        masses = np.array(triple.as_floats())
        u_pt = np.array([0.9, 0.1, 0.2, -0.3, 0.8, 1.1, 1.3])
        u = State7.from_vector(IntervalVector.from_points(u_pt))
        J = poly_DF(triple, config, u)
        h = 1e-6
        for j in range(7):
            dp = u_pt.copy()
            dm = u_pt.copy()
            dp[j] += h
            dm[j] -= h
            col = (poly_F_point(pos, masses, dp)
                   - poly_F_point(pos, masses, dm)) / (2 * h)
            for i in range(7):
                assert abs(J.entry(i, j).mid - col[i]) < 1e-6, (i, j)

    def test_d4_block_vanishes_at_equilibrium(self, config, triple, u0):
        J = poly_DF(triple, config, u0)
        for j in range(3):
            for col in (0, 2, 4 + j):
                e = J.entry(4 + j, col)
                assert e.lo == 0.0 and e.hi == 0.0

    def test_rows_5_to_7_dependent_at_equilibrium(self, config, triple, u0):
        # row 4+j = c1 * row0 + c3 * row2 with the displayed coefficients
        J = poly_DF(triple, config, u0)
        for j in range(3):
            px, py = config.positions[j]
            w3 = u0.u[4 + j].pow_int(3)
            c1 = -((u0.u[0] - px) * w3)
            c3 = -((u0.u[2] - py) * w3)
            for col in range(7):
                combo = c1 * J.entry(0, col) + c3 * J.entry(2, col)
                diff = J.entry(4 + j, col) - combo
                assert diff.straddles_zero(), (j, col)


class TestKernelBasis:
    def test_kernel_vectors_annihilated(self, config, triple, u0):
        J = poly_DF(triple, config, u0)
        for v in kernel_basis(triple, config, u0):
            Jv = J @ v
            # the Newton point is a zero only to machine precision, so
            # pad the residual by the nonlinear defect scale
            for k in range(7):
                r = Jv[k]
                assert Interval(r.lo - 1e-13, r.hi + 1e-13).straddles_zero(), k

    def test_structure(self, config, triple, u0):
        vs = kernel_basis(triple, config, u0)
        for j, v in enumerate(vs):
            for slot in (1, 3):
                assert v[slot].lo == 0.0 and v[slot].hi == 0.0
            for k in range(3):
                e = v[4 + k]
                if k == j:
                    assert e.lo == 1.0 and e.hi == 1.0
                else:
                    assert e.lo == 0.0 and e.hi == 0.0

    def test_pivot_value(self, triple, u0):
        a = kernel_a(triple, u0)
        # a = 1 - sum m_j u_{4+j}^3 at the equilibrium is negative here
        assert a.hi < 0.0
        assert not a.straddles_zero()

    def test_degenerate_pivot_raises(self, config, triple):
        u = State7((Interval.from_value(0.9), Interval.from_value(0.0),
                    Interval.from_value(0.2), Interval.from_value(0.0),
                    Interval(1.2599, 1.2600), Interval.from_value(0.01),
                    Interval.from_value(0.01)))
        with pytest.raises(DegenerateKernel):
            kernel_basis(triple, config, u)


def _complex_residual_7(J: IntervalMatrix, lam: CInterval,
                        vec: tuple[CInterval, ...]) -> list[CInterval]:
    re = IntervalVector.from_intervals([c.re for c in vec])
    im = IntervalVector.from_intervals([c.im for c in vec])
    J_re = J @ re
    J_im = J @ im
    out = []
    for k in range(7):
        lv = lam * vec[k]
        out.append(CInterval(J_re[k] - lv.re, J_im[k] - lv.im))
    return out


class TestEigvectorLift:
    def test_projection_returns_input(self, config, triple, equilibrium):
        eig = eigen_data(config, triple, equilibrium)
        xi = eig.eigvec_u1
        v = lift_eigvector(config, equilibrium, xi)
        for k in range(4):
            assert v[k].re.lo == xi[k].re.lo and v[k].im.hi == xi[k].im.hi

    def test_lifted_residuals_straddle_zero(self, config, triple,
                                            equilibrium, u0):
        eig = eigen_data(config, triple, equilibrium)
        J = poly_DF(triple, config, u0)
        for kind in ("stable", "unstable"):
            for branch in (1, -1):
                lam = eig.eigenvalue(kind, branch)
                xi = eig.eigenvector(kind, branch)
                v = lift_eigvector(config, equilibrium, xi)
                for k, res in enumerate(_complex_residual_7(J, lam, v)):
                    padded = CInterval(
                        Interval(res.re.lo - 1e-12, res.re.hi + 1e-12),
                        Interval(res.im.lo - 1e-12, res.im.hi + 1e-12))
                    assert padded.straddles_zero(), (kind, branch, k)

    def test_conjugate_commutes_with_lift(self, config, triple, equilibrium):
        eig = eigen_data(config, triple, equilibrium)
        v1 = lift_eigvector(config, equilibrium, eig.eigvec_u1)
        v2 = lift_eigvector(config, equilibrium, eig.eigvec_u2)
        for a, b in zip(v1, v2):
            c = a.conj()
            assert c.re.lo == b.re.lo and c.re.hi == b.re.hi
            assert c.im.lo == b.im.lo and c.im.hi == b.im.hi


@pytest.fixture(scope="module")
def setup(config, triple):
    pos = config.position_array()
    masses = np.array(triple.as_floats())
    s0 = np.array([0.9, 0.1, 0.2, -0.3])
    return pos, masses, s0


class TestSurfaceDynamics:
    """Non-rigorous integration checks of the conjugacy structure."""

    @staticmethod
    def _lift_point(pos, s):
        d = np.hypot(s[0] - pos[:, 0], s[2] - pos[:, 1])
        return np.concatenate((s, 1.0 / d))

    def test_on_s_preservation(self, setup):
        pos, masses, s0 = setup
        u_start = self._lift_point(pos, s0)
        sol = solve_ivp(lambda t, u: poly_F_point(pos, masses, u),
                        (0.0, 1.0), u_start, rtol=1e-12, atol=1e-12,
                        dense_output=True)
        assert sol.success
        u_end = sol.y[:, -1]
        d = np.hypot(u_end[0] - pos[:, 0], u_end[2] - pos[:, 1])
        assert np.max(np.abs(u_end[4:] - 1.0 / d)) < 1e-8

    def test_off_s_invariant_constant(self, setup):
        pos, masses, s0 = setup
        u_start = self._lift_point(pos, s0)
        u_start[4] += 1e-3
        d1 = np.hypot(s0[0] - pos[0, 0], s0[2] - pos[0, 1])
        c_start = 1.0 / u_start[4] ** 2 - d1 ** 2
        sol = solve_ivp(lambda t, u: poly_F_point(pos, masses, u),
                        (0.0, 1.0), u_start, rtol=1e-12, atol=1e-12)
        assert sol.success
        u_end = sol.y[:, -1]
        d1_end = np.hypot(u_end[0] - pos[0, 0], u_end[2] - pos[0, 1])
        c_end = 1.0 / u_end[4] ** 2 - d1_end ** 2
        assert abs(c_end - c_start) < 1e-8

    def test_flow_conjugacy(self, setup):
        pos, masses, s0 = setup
        sol4 = solve_ivp(lambda t, s: field_point(pos, masses, s),
                         (0.0, 1.0), s0, rtol=1e-12, atol=1e-12)
        sol7 = solve_ivp(lambda t, u: poly_F_point(pos, masses, u),
                         (0.0, 1.0), self._lift_point(pos, s0),
                         rtol=1e-12, atol=1e-12)
        assert sol4.success and sol7.success
        lifted_end = self._lift_point(pos, sol4.y[:, -1])
        assert np.max(np.abs(sol7.y[:, -1] - lifted_end)) < 1e-8
