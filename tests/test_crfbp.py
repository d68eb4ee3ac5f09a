"""Tests for the four-body model: primaries, field, energy, eigen-data.

Reference values were frozen from a 50-digit mpmath evaluation of the
same closed forms (see the oracle helpers below, which recompute them
independently of the interval code under test).
"""

from __future__ import annotations

import numpy as np
import pytest
from mpmath import mp, mpf, sqrt as mpsqrt

from fourbody.crfbp import (
    EigenData,
    MassTriple,
    State4,
    eigen_data,
    energy,
    energy_gradient,
    field_point,
    jacobian_df,
    newton_equilibrium,
    omega,
    omega_first_partials,
    omega_second_partials,
    primaries,
    second_partials_g,
)
from fourbody.errors import CollisionDomain, DegenerateMasses, NotSaddleFocus
from fourbody.interval import CInterval, Interval, IntervalArray

from conftest import energy_point, field_f

# frozen 50-digit oracle values for masses (1/2, 3/10, 1/5), rounded to
# nearest float
P1 = (-0.43588989435406733, 0.0)
P2 = (0.4817730411281797, -0.39735970711951313)
P3 = (0.3670651741928988, 0.5960395606792697)
XEQ = 0.9270992461356362
YEQ = 0.21770342369975978
ALPHA = 0.8623748531893153
BETA = 0.9910176748065849
ESTAR = -1.5066983370527756


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


def _mp_primaries(m1, m2, m3):
    """Independent 50-digit evaluation of the primary closed forms."""
    mp.dps = 50
    m1, m2, m3 = mpf(m1), mpf(m2), mpf(m3)
    K = m2 * (m3 - m2) + m1 * (m2 + 2 * m3)
    S = mpsqrt(m2 ** 2 + m2 * m3 + m3 ** 2)
    x1 = -abs(K) * S / K
    x2 = abs(K) * ((m2 - m3) * m3 + m1 * (2 * m2 + m3)) / (2 * K * S)
    y2 = -mpsqrt(mpf(3)) * m3 / (2 * S)
    x3 = abs(K) / (2 * S)
    y3 = mpsqrt(mpf(3)) * m2 / (2 * S)
    return [(x1, mpf(0)), (x2, y2), (x3, y3)]


def _mp_field(pos, masses, s):
    """50-digit vector field at a float state, given mpmath primaries."""
    x, xd, y, yd = [mpf(v) for v in s]
    gx, gy = x, y
    for (px, py), mj in zip(pos, masses):
        dx, dy = x - px, y - py
        r3 = (dx * dx + dy * dy) ** mpf(1.5)
        gx -= mj * dx / r3
        gy -= mj * dy / r3
    return [xd, 2 * yd + gx, yd, -2 * xd + gy]


def _contains_mp(iv: Interval, value) -> bool:
    return iv.lo <= value <= iv.hi


class TestPrimaries:
    def test_reference_positions(self, config):
        for (px, py), (ex, ey) in zip(config.positions, (P1, P2, P3)):
            assert abs(px.mid - ex) < 3e-15
            assert abs(py.mid - ey) < 3e-15
            assert px.width < 1e-14 and py.width < 1e-14

    def test_oracle_containment(self, config):
        oracle = _mp_primaries("0.5", "0.3", "0.2")
        for (px, py), (ox, oy) in zip(config.positions, oracle):
            assert _contains_mp(px, ox)
            assert _contains_mp(py, oy)

    def test_first_primary_on_negative_x_axis(self, config):
        (x1, y1) = config.positions[0]
        assert x1.hi < 0.0
        assert y1.lo == 0.0 and y1.hi == 0.0

    def test_unordered_masses_raise(self):
        with pytest.raises(DegenerateMasses):
            MassTriple.from_floats(0.2, 0.3, 0.5)

    def test_nonunit_sum_raises(self):
        with pytest.raises(DegenerateMasses):
            MassTriple.from_floats(0.5, 0.3, 0.1)


class TestMassTripleInvariants:
    N_TRIPLES = 100

    def _random_triple(self, rng) -> MassTriple:
        # m3 in [0.05, 1/3], m2 in [m3, (1-m3)/2] guarantees the ordering;
        # m1 is an interval enclosing the exact complement so the sum
        # provably encloses 1.
        m3 = float(rng.uniform(0.05, 1.0 / 3.0))
        m2 = float(rng.uniform(m3, (1.0 - m3) / 2.0))
        m1 = Interval.from_value(1.0) - Interval.from_value(m2) - Interval.from_value(m3)
        return MassTriple(m1, Interval.from_value(m2), Interval.from_value(m3))

    def test_equilateral_invariants(self):
        rng = np.random.RandomState(20260823)
        for _ in range(self.N_TRIPLES):
            t = self._random_triple(rng)
            cfg = primaries(t)
            pos = cfg.positions
            for i in range(3):
                for j in range(i + 1, 3):
                    dx = pos[i][0] - pos[j][0]
                    dy = pos[i][1] - pos[j][1]
                    dist = (dx.sqr() + dy.sqr()).sqrt()
                    assert dist.contains(1.0)
                    assert dist.width < 1e-13
            ms = (t.m1, t.m2, t.m3)
            for k in range(2):
                bary = sum((ms[i] * pos[i][k] for i in range(3)),
                           Interval.from_value(0.0))
                assert bary.straddles_zero()
            assert pos[0][1].lo == 0.0 and pos[0][1].hi == 0.0


class TestFieldAndEnergy:
    SAMPLES = [
        (0.9, 0.1, 0.2, -0.3),
        (-0.5, 0.0, 0.8, 0.0),
        (1.2, -0.7, -0.4, 0.25),
    ]

    def test_field_oracle_containment(self, config, triple):
        oracle_pos = _mp_primaries("0.5", "0.3", "0.2")
        masses = [mpf("0.5"), mpf("0.3"), mpf("0.2")]
        for s in self.SAMPLES:
            fv = field_f(config, triple, State4.from_floats(*s))
            want = _mp_field(oracle_pos, masses, s)
            for k in range(4):
                assert _contains_mp(fv[k], want[k]), (s, k)

    def test_field_point_matches_interval_mid(self, config, triple):
        pos = config.position_array()
        masses = np.array(triple.as_floats())
        for s in self.SAMPLES:
            fp = field_point(pos, masses, np.array(s))
            fv = field_f(config, triple, State4.from_floats(*s))
            for k in range(4):
                assert abs(fp[k] - fv[k].mid) < 1e-12

    def test_energy_derivative_vanishes(self, config, triple):
        # dE/dt along the flow is grad(E) . F, identically zero
        for s in self.SAMPLES:
            st = State4.from_floats(*s)
            grad = energy_gradient(config, triple, st)
            fv = field_f(config, triple, st)
            total = Interval.from_value(0.0)
            for k in range(4):
                total = total + grad[k] * fv[k]
            assert total.straddles_zero()
            assert total.width < 1e-13

    def test_energy_point_matches_interval(self, config, triple):
        pos = config.position_array()
        masses = np.array(triple.as_floats())
        for s in self.SAMPLES:
            e_iv = energy(config, triple, State4.from_floats(*s))
            e_pt = energy_point(pos, masses, np.array(s))
            assert e_iv.lo - 1e-13 <= e_pt <= e_iv.hi + 1e-13

    def test_jacobian_structure_exact(self, config, triple):
        J = jacobian_df(config, triple, State4.from_floats(0.9, 0.1, 0.2, -0.3))
        for (i, j), v in (((0, 1), 1.0), ((1, 3), 2.0), ((2, 3), 1.0),
                          ((3, 1), -2.0)):
            e = J[i, j]
            assert e.lo == v and e.hi == v
        for (i, j) in ((0, 0), (0, 2), (0, 3), (1, 1), (2, 0), (2, 1),
                       (2, 2), (3, 3)):
            e = J[i, j]
            assert e.lo == 0.0 and e.hi == 0.0
        # symmetric potential block
        assert J[1, 2].lo == J[3, 0].lo
        assert J[1, 2].hi == J[3, 0].hi

    def test_jacobian_fd_oracle(self, config, triple):
        pos = config.position_array()
        masses = np.array(triple.as_floats())
        s = np.array([0.9, 0.1, 0.2, -0.3])
        J = jacobian_df(config, triple, State4.from_floats(*s))
        h = 1e-6
        for j in range(4):
            dp = s.copy()
            dm = s.copy()
            dp[j] += h
            dm[j] -= h
            col = (field_point(pos, masses, dp) - field_point(pos, masses, dm)) / (2 * h)
            for i in range(4):
                assert abs(J[i, j].mid - col[i]) < 1e-7, (i, j)

    def test_third_partials_fd_oracle(self, config, triple):
        from fourbody.crfbp import hess_omega_point

        pos = config.position_array()
        masses = np.array(triple.as_floats())
        x, y = 0.9, 0.2
        T = omega_second_partials(config, triple,
                                  Interval.from_value(x), Interval.from_value(y))
        h = 1e-5
        hx_p = hess_omega_point(pos, masses, x + h, y)
        hx_m = hess_omega_point(pos, masses, x - h, y)
        hy_p = hess_omega_point(pos, masses, x, y + h)
        hy_m = hess_omega_point(pos, masses, x, y - h)
        dx_hess = (hx_p - hx_m) / (2 * h)
        dy_hess = (hy_p - hy_m) / (2 * h)
        # tensor index (i, j, k): d2/dj dk of gradient component i
        assert abs(T[0, 0, 0].mid - dx_hess[0, 0]) < 1e-4
        assert abs(T[0, 0, 1].mid - dy_hess[0, 0]) < 1e-4
        assert abs(T[0, 1, 1].mid - dy_hess[0, 1]) < 1e-4
        assert abs(T[1, 0, 0].mid - dx_hess[0, 1]) < 1e-4
        assert abs(T[1, 0, 1].mid - dx_hess[1, 1]) < 1e-4
        assert abs(T[1, 1, 1].mid - dy_hess[1, 1]) < 1e-4

    def test_third_partials_symmetry_exact(self, config, triple):
        T = omega_second_partials(config, triple,
                                  Interval.from_value(0.9),
                                  Interval.from_value(0.2))
        for i in range(2):
            assert T[i, 0, 1].lo == T[i, 1, 0].lo
            assert T[i, 0, 1].hi == T[i, 1, 0].hi
        # cross-component equalities from the scalar potential
        assert T[0, 1, 1].lo == T[1, 0, 1].lo
        assert T[0, 0, 1].lo == T[1, 0, 0].lo

    def test_collision_guard(self, config, triple):
        x1 = config.positions[0][0].mid
        with pytest.raises(CollisionDomain):
            omega(config, triple, Interval.from_value(x1),
                  Interval.from_value(0.0))

    def test_box_evaluation_contains_samples(self, config, triple):
        pos = config.position_array()
        masses = np.array(triple.as_floats())
        box = State4(Interval(0.88, 0.92), Interval(-0.1, 0.1),
                     Interval(0.18, 0.24), Interval(-0.05, 0.05))
        fv = field_f(config, triple, box)
        rng = np.random.RandomState(7)
        for _ in range(50):
            s = np.array([rng.uniform(0.88, 0.92), rng.uniform(-0.1, 0.1),
                          rng.uniform(0.18, 0.24), rng.uniform(-0.05, 0.05)])
            fp = field_point(pos, masses, s)
            for k in range(4):
                assert fv[k].lo - 1e-12 <= fp[k] <= fv[k].hi + 1e-12


class TestEquilibrium:
    def test_newton_reference_digits(self, equilibrium):
        assert abs(equilibrium.x.mid - XEQ) < 3e-15
        assert abs(equilibrium.y.mid - YEQ) < 3e-15

    def test_gradient_straddles_zero(self, config, triple, equilibrium):
        # over a tiny box around the Newton point the gradient must
        # change sign in both components
        r = 1e-13
        x = Interval(equilibrium.x.mid - r, equilibrium.x.mid + r)
        y = Interval(equilibrium.y.mid - r, equilibrium.y.mid + r)
        ox, oy = omega_first_partials(config, triple, x, y)
        assert ox.straddles_zero()
        assert oy.straddles_zero()

    def test_energy_reference(self, config, triple, equilibrium):
        e = energy(config, triple, equilibrium)
        assert abs(e.mid - ESTAR) < 1e-14
        assert e.width < 1e-14

    def test_field_vanishes(self, config, triple, equilibrium):
        r = 1e-13
        box = State4(Interval(equilibrium.x.mid - r, equilibrium.x.mid + r),
                     Interval.from_value(0.0),
                     Interval(equilibrium.y.mid - r, equilibrium.y.mid + r),
                     Interval.from_value(0.0))
        fv = field_f(config, triple, box)
        for k in range(4):
            assert fv[k].straddles_zero()


def _complex_residual(J: IntervalArray, lam: CInterval,
                      vec: tuple[CInterval, ...]) -> list[CInterval]:
    """Componentwise J v - lam v for a real interval matrix."""
    re = IntervalArray.of([c.re for c in vec])
    im = IntervalArray.of([c.im for c in vec])
    J_re = J @ re
    J_im = J @ im
    out = []
    for k in range(4):
        lv = lam * vec[k]
        out.append(CInterval(J_re[k] - lv.re, J_im[k] - lv.im))
    return out


@pytest.fixture(scope="module")
def eig(config, triple, equilibrium) -> EigenData:
    return eigen_data(config, triple, equilibrium)


class TestEigenData:
    def test_rate_enclosures(self, eig):
        assert eig.alpha.contains(ALPHA)
        assert eig.beta.contains(BETA)
        assert eig.alpha.width <= 1e-10
        assert eig.beta.width <= 1e-10

    def test_rate_windows(self, eig):
        assert 0.86237485318926 <= eig.alpha.lo
        assert eig.alpha.hi <= 0.86237485318937
        assert 0.99101767480653 <= eig.beta.lo
        assert eig.beta.hi <= 0.99101767480664

    def test_eigenvector_residuals_straddle_zero(self, config, triple,
                                                 equilibrium, eig):
        J = jacobian_df(config, triple, equilibrium)
        for kind in ("stable", "unstable"):
            for branch in (1, -1):
                lam = eig.eigenvalue(kind, branch)
                vec = eig.eigenvector(kind, branch)
                for res in _complex_residual(J, lam, vec):
                    assert res.straddles_zero(), (kind, branch)

    def test_conjugate_pairing_exact(self, eig):
        for a, b in ((eig.eigvec_s1, eig.eigvec_s2),
                     (eig.eigvec_u1, eig.eigvec_u2)):
            for ca, cb in zip(a, b):
                assert ca.re.lo == cb.re.lo and ca.re.hi == cb.re.hi
                assert ca.im.lo == -cb.im.hi and ca.im.hi == -cb.im.lo

    def test_unit_max_norm(self, eig):
        for vec in (eig.eigvec_s1, eig.eigvec_u1):
            mags = [max(abs(c.re.mid), abs(c.im.mid)) for c in vec]
            assert abs(max(mags) - 1.0) < 1e-12

    def test_velocity_slots_consistent(self, eig):
        # structure (r, lam r, s, lam s): slot 1 = lam * slot 0 etc.
        for kind in ("stable", "unstable"):
            lam = eig.eigenvalue(kind, 1)
            vec = eig.eigenvector(kind, 1)
            for pos_slot, vel_slot in ((0, 1), (2, 3)):
                prod = lam * vec[pos_slot]
                diff_re = prod.re - vec[vel_slot].re
                diff_im = prod.im - vec[vel_slot].im
                assert diff_re.straddles_zero()
                assert diff_im.straddles_zero()

    def test_not_saddle_focus_raises(self, config, triple):
        # at the barycenter the discriminant enclosure is negative
        with pytest.raises(NotSaddleFocus):
            eigen_data(config, triple, State4.from_floats(0.0, 0.0, 0.0, 0.0))


class TestSecondPartialsReference:
    def test_trace_identity(self, config, triple, equilibrium):
        # Laplacian of the potential: Omega_xx + Omega_yy = 2 + sum m_j / r_j^3
        g11, _, g22 = second_partials_g(config, triple,
                                        equilibrium.x, equilibrium.y)
        ms = (triple.m1, triple.m2, triple.m3)
        total = Interval.from_value(2.0)
        for (px, py), mj in zip(config.positions, ms):
            dx = equilibrium.x - px
            dy = equilibrium.y - py
            total = total + mj / (dx.sqr() + dy.sqr()).sqrt().pow_int(3)
        lhs = g11 + g22
        assert lhs.overlaps(total)
        assert lhs.width < 1e-12
