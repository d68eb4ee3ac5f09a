"""Tests for Newton-Kantorovich bound computation and radii verification."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fourbody.crfbp import (
    MassTriple,
    field_point,
    hess_omega_point,
    newton_equilibrium,
    omega_second_partials,
    primaries,
)
from fourbody.interval import Interval, IntervalArray, matrix_norm
from fourbody.nk import (
    NKCertificate,
    NKProblem,
    certify_equilibrium,
    compute_bounds,
    equilibrium_problem,
    radii_verify,
)

XEQ = 0.9270992461356362
YEQ = 0.21770342369975978


@pytest.fixture(scope="module")
def triple():
    return MassTriple.from_floats(0.5, 0.3, 0.2)


@pytest.fixture(scope="module")
def config(triple):
    return primaries(triple)


@pytest.fixture(scope="module")
def certified(config, triple):
    return certify_equilibrium(config, triple)


class TestEquilibriumCertification:
    def test_newton_point_reference(self, certified):
        _, (x, y) = certified
        assert abs(x - XEQ) < 3e-15
        assert abs(y - YEQ) < 3e-15

    def test_bounds_within_budget(self, certified):
        cert, _ = certified
        assert cert.Y0 <= 5e-14
        assert cert.Z0 <= 1e-14
        assert cert.Z1 <= 1e-12
        assert 10.0 <= cert.Z2 <= 11.0

    def test_proven_with_tight_radius(self, certified):
        cert, _ = certified
        assert cert.proven
        assert 0.0 < cert.r_interval.lo < 3e-15
        assert cert.r_interval.hi <= 1e-6

    def test_inverse_bound_dominates_numeric(self, config, triple, certified):
        cert, (x, y) = certified
        H = hess_omega_point(config.position_array(),
                             np.array(triple.as_floats()), x, y)
        numeric = np.linalg.norm(np.linalg.inv(H), ord=np.inf)
        assert numeric <= cert.inverse_bound

    def test_soundness_smoke(self, config, triple, certified):
        cert, (x, y) = certified
        # re-running Newton from the certified center must stay inside
        # the uniqueness ball and match the defect budget
        x2, y2 = newton_equilibrium(config, triple, (x, y))
        assert max(abs(x2 - x), abs(y2 - y)) <= cert.r_interval.hi
        g = field_point(config.position_array(),
                        np.array(triple.as_floats()), (x2, 0.0, y2, 0.0))[1::2]
        assert np.max(np.abs(g)) < cert.Y0 * 10.0

    def test_fingerprint_recorded(self, config, triple, certified):
        cert, (x, y) = certified
        prob = equilibrium_problem(config, triple, (x, y))
        assert cert.problem_fingerprint == prob.fingerprint()
        other = equilibrium_problem(config, triple, (x + 1e-9, y))
        assert other.fingerprint() != prob.fingerprint()


class TestHessianSup:
    def test_constant_hessian_exact(self):
        # F(v) = (v0^2, v0 v1): constant second derivatives, rows sum to 2
        lo = np.zeros((2, 2, 2))
        lo[0, 0, 0] = 2.0
        lo[1, 0, 1] = 1.0
        lo[1, 1, 0] = 1.0
        sup = matrix_norm(IntervalArray(lo, lo.copy()))
        assert sup.lo == 2.0 and sup.hi == 2.0

    def test_random_cubic_sampling_oracle(self):
        rng = np.random.RandomState(42)
        C = rng.randn(2, 4)  # rows: coefficients of x^3, x^2 y, x y^2, y^3
        center = np.array([0.3, -0.2])
        r = 0.4

        def d2_entries(x, y):
            out = np.empty((2, 2, 2), dtype=object if isinstance(x, Interval) else float)
            for i in range(2):
                a1, a2, a3, a4 = C[i]
                xx = 6 * a1 * x + 2 * a2 * y
                xy = 2 * a2 * x + 2 * a3 * y
                yy = 2 * a3 * x + 6 * a4 * y
                out[i, 0, 0] = xx
                out[i, 0, 1] = xy
                out[i, 1, 0] = xy
                out[i, 1, 1] = yy
            return out

        def evaluator(box):
            e = d2_entries(box[0], box[1])
            lo = np.array([[[e[i, j, k].lo for k in range(2)]
                            for j in range(2)] for i in range(2)])
            hi = np.array([[[e[i, j, k].hi for k in range(2)]
                            for j in range(2)] for i in range(2)])
            return IntervalArray(lo, hi)

        bound = matrix_norm(evaluator(IntervalArray(center - r, center + r)))
        worst = 0.0
        for _ in range(10_000):
            x = rng.uniform(center[0] - r, center[0] + r)
            y = rng.uniform(center[1] - r, center[1] + r)
            e = d2_entries(x, y)
            for i in range(2):
                row = sum(abs(e[i, j, k]) for j in range(2) for k in range(2))
                worst = max(worst, row)
        assert bound.hi >= worst

    def test_equilibrium_box_direct_value(self, config, triple):
        r = 1e-6
        X = Interval(XEQ - r, XEQ + r)
        Y = Interval(YEQ - r, YEQ + r)
        sup = matrix_norm(omega_second_partials(config, triple, X, Y))
        assert 14.0 <= sup.hi <= 14.1

    def test_direct_bound_dominates_samples(self, config, triple):
        r = 1e-6
        X = Interval(XEQ - r, XEQ + r)
        Y = Interval(YEQ - r, YEQ + r)
        direct = matrix_norm(omega_second_partials(config, triple, X, Y))
        # it bounds the true sup; sample that through point tensors
        rng = np.random.RandomState(0)
        worst = 0.0
        for _ in range(200):
            x = rng.uniform(X.lo, X.hi)
            y = rng.uniform(Y.lo, Y.hi)
            T = omega_second_partials(config, triple, Interval.from_value(x),
                                      Interval.from_value(y))
            for i in range(2):
                row = sum(max(abs(T[i, j, k].lo), abs(T[i, j, k].hi))
                          for j in range(2) for k in range(2))
                worst = max(worst, row)
        assert direct.hi >= worst


class TestRadiiVerify:
    def test_connection_constants(self):
        cert = radii_verify(0.0053, 0.1349e-14, 0.1538, 2.3414, 7e-3,
                            a_norm=84.6195)
        assert cert.proven
        assert abs(cert.r_minus.mid - 0.0064) < 5e-5
        assert abs(cert.r_plus.mid - 0.3550) < 5e-5
        assert cert.r_interval.lo <= 7e-3
        assert cert.inverse_bound is not None and cert.inverse_bound < 120.0

    def test_equilibrium_published_constants(self):
        cert = radii_verify(0.29923189175017e-14, 0.24980018054067e-15,
                            0.20861933032547e-13, 105.251485711422, 1e-6)
        assert cert.proven
        assert cert.r_interval.lo < 4e-15
        assert cert.r_interval.hi == 1e-6

    def test_all_zero_is_proven(self):
        cert = radii_verify(0.0, 0.0, 0.0, 0.0, 1e-3)
        assert cert.proven
        assert cert.r_interval.hi == 1e-3

    def test_negative_discriminant_inconclusive(self):
        cert = radii_verify(1.0, 0.0, 0.0, 1.0, 1.0)
        assert cert.status == "inconclusive"
        assert cert.diagnostic.startswith("NoNegativity")

    def test_radius_too_large(self):
        cert = radii_verify(0.0053, 0.0, 0.1538, 2.3414, 1e-3)
        assert cert.status == "inconclusive"
        assert cert.diagnostic.startswith("RadiusTooLarge")

    def test_contraction_impossible(self):
        cert = radii_verify(1e-10, 0.6, 0.5, 1.0, 1.0)
        assert cert.status == "inconclusive"
        assert cert.diagnostic.startswith("NoNegativity")

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            radii_verify(-1.0, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            radii_verify(0.0, 0.0, 0.0, 0.0, 0.0)

    @given(
        y0=st.floats(min_value=0.0, max_value=0.2),
        z0=st.floats(min_value=0.0, max_value=0.6),
        z1=st.floats(min_value=0.0, max_value=0.6),
        z2=st.floats(min_value=0.0, max_value=10.0),
        dy=st.floats(min_value=0.0, max_value=0.2),
        dz=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_monotonicity(self, y0, z0, z1, z2, dy, dz):
        # enlarging any constant can only lose the proof, never gain it
        small = radii_verify(y0, z0, z1, z2, 0.5)
        large = radii_verify(y0 + dy, z0 + dz, z1, z2 + dz, 0.5)
        if large.proven:
            assert small.proven


class TestCertificateSerialization:
    def test_round_trip(self, certified):
        cert, _ = certified
        back = NKCertificate.from_dict(cert.to_dict())
        assert back.Y0 == cert.Y0
        assert back.Z2 == cert.Z2
        assert back.status == cert.status
        assert back.r_interval.lo == cert.r_interval.lo
        assert back.r_interval.hi == cert.r_interval.hi
        assert back.inverse_bound == cert.inverse_bound
        assert back.problem_fingerprint == cert.problem_fingerprint

    def test_json_text(self, certified):
        import json

        cert, _ = certified
        parsed = json.loads(cert.to_json())
        assert parsed["kind"] == "nk_certificate"
        assert parsed["schema_version"] == 1
        assert float(parsed["Y0"]) == cert.Y0

    def test_inconclusive_round_trip(self):
        cert = radii_verify(1.0, 0.0, 0.0, 1.0, 1.0)
        back = NKCertificate.from_dict(cert.to_dict())
        assert back.status == "inconclusive"
        assert back.r_interval is None
        assert back.diagnostic == cert.diagnostic


class TestProblemValidation:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            NKProblem(dim=2, F_eval=None, DF_eval=None, D2F_sup=None,
                      x_bar=np.zeros(3), A_dagger=np.eye(2), A=np.eye(2),
                      r_star=1.0)
        with pytest.raises(ValueError):
            NKProblem(dim=2, F_eval=None, DF_eval=None, D2F_sup=None,
                      x_bar=np.zeros(2), A_dagger=np.eye(2), A=np.eye(2),
                      r_star=-1.0)

    def test_identity_problem_all_zero_bounds(self):
        # F = identity with a true zero at the origin
        def F_eval(v):
            return v

        def DF_eval(v):
            return IntervalArray.from_points(np.eye(2))

        def D2F_sup(box):
            return Interval.from_value(0.0)

        prob = NKProblem(dim=2, F_eval=F_eval, DF_eval=DF_eval,
                         D2F_sup=D2F_sup, x_bar=np.zeros(2),
                         A_dagger=np.eye(2), A=np.eye(2), r_star=1.0,
                         name="identity")
        Y0, Z0, Z1, Z2 = compute_bounds(prob)
        assert Y0 == 0.0 and Z0 == 0.0 and Z1 == 0.0 and Z2 == 0.0
        cert = radii_verify(Y0, Z0, Z1, Z2, prob.r_star,
                            problem_fingerprint=prob.fingerprint())
        assert cert.proven
