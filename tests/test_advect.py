"""Tests for rigorous Taylor advection of boundary arcs."""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourbody import advect, polyfield
from fourbody.advect import (
    _CENTERS,
    ArcFill,
    FlowChart,
    _tile_samples,
    _defect_bounds,
    check_collision,
    choose_tau,
    collapse_time_one,
    flow_line,
    range_box,
    reference_integrate,
    taylor_flow,
)
from fourbody.crfbp import MassTriple, newton_equilibrium, primaries
from fourbody.errors import CollisionDomain, SymmetryViolation
from fourbody.interval import CInterval, CIntervalArray, Interval, \
    IntervalArray, _irecip_arr
from fourbody.manifold import BoundaryArc, boundary_mesh, field_series, \
    local_manifold
from fourbody.polyfield import DIM, FieldNodes, field_defect, field_program
from fourbody.taylor import ScalarSeries2, Series2, mag_sum_bound

import conftest
from conftest import (SEED_MASSES, collision_loop, copied, defect_sum,
                      energy_point, fill_chart, finish_one,
                      from_complex_points, pilot_tau, real_stack)

Z0 = CInterval(Interval.from_value(0.0))
Z1 = CInterval(Interval.from_value(1.0))


@pytest.fixture(scope="module")
def setup():
    m = MassTriple.from_floats(0.5, 0.3, 0.2)
    return m, primaries(m)


@pytest.fixture(scope="module")
def stable7(setup):
    m, pc = setup
    return local_manifold(m, pc, "stable", N=7)


@pytest.fixture(scope="module")
def arcs15(stable7):
    return boundary_mesh(stable7, n_arcs=20, arc_order=15)


@pytest.fixture(scope="module")
def chart15(setup, arcs15):
    m, pc = setup
    t0 = time.perf_counter()
    chart = flow_line(arcs15[3], m, pc, orders=(15, 50))
    return chart, time.perf_counter() - t0


def _line_series(vals, M=0, N=0):
    """Constant-in-s line with the given component values at (0, 0),
    on the (M, N) grid: with N > 0, the series a flow fills."""
    comps = []
    for v in vals:
        rlo = np.zeros((M + 1, N + 1))
        rlo[0, 0] = v
        comps.append(ScalarSeries2(rlo, rlo.copy(), np.zeros((M + 1, N + 1)),
                                   np.zeros((M + 1, N + 1))))
    return Series2(tuple(comps), scale=1.0, tau=1.0, tail=0.0)


def _chart_lhs(G):
    """Left-hand side tau dGamma/dt of the chart equation, real as the
    chart G is: column n is tau (n + 1) Gamma[:, n + 1], by one complex
    product per component, whose real part it keeps, and column N is
    zero."""
    M, N = G.orders
    lhs = CIntervalArray.zeros((7, M + 1, N + 1))
    for n in range(N):
        scale = Interval.from_value(G.tau) * float(n + 1)
        for i, c in enumerate(G.components):
            lhs[i, :, n] = c[:, n + 1] * scale
    assert not lhs.lo[1].any() and not lhs.hi[1].any()
    return IntervalArray(lhs.lo[0], lhs.hi[0])


def _fresh_columns(m, pc, G):
    """A real column interpreter on the real chart G's grid, with G in
    its input rows, that has filled no column."""
    return FieldNodes(field_program(m, pc), real_stack(G), *G.orders)


def _chart_defect(m, pc, G):
    """field_defect of tau dGamma/dt = F(Gamma) on a fresh interpreter:
    the in-grid residual, with exact zero imaginary parts, and the
    beyond-grid bounds."""
    cols, lhs = _fresh_columns(m, pc, G), _chart_lhs(G)
    field_defect(cols, _stacked(lhs))
    return (Series2.from_real(lhs - cols.G[0, cols.outputs]).components,
            list(cols.beyond_grid_bounds([0])[0]))


def _stacked(lhs):
    """A left-hand side of shape (DIM, M + 1, N + 1) as the stack of
    one that ``field_defect`` takes."""
    return IntervalArray(lhs.lo[None], lhs.hi[None])


def _defect(cols, tau):
    """``_defect_bounds`` of the one chart at ``tau`` in copy 0 of
    ``cols``."""
    return _defect_bounds(cols, [0], [tau])[0]


def _linear_column(A, G):
    """Harness field F(u) = A u on the series G, summed with the
    interval kernels."""
    A = [[float(x) for x in row] for row in A]

    def bcol(n):
        dim = len(G.components)
        rows = []
        for i in range(dim):
            acc = CIntervalArray.zeros(G.orders[0] + 1)
            for k in range(dim):
                if A[i][k] != 0.0:
                    acc = acc + G.components[k][:, n] * A[i][k]
            rows.append(acc)
        return CIntervalArray.of(rows)

    return bcol


class TestTaylorFlow:
    def test_constant_field_exact(self):
        # tau dG/dt = c integrates to gamma + (t / tau) c, exactly for
        # dyadic tau and c
        c = np.array([0.75, -1.5])

        def bcol(n):
            b = CIntervalArray.zeros((2, 2))
            if n == 0:
                b[:, 0] = CIntervalArray.of([CInterval(x) for x in c])
            return b

        gamma = _line_series([2.0, -0.25], M=1)
        out = _line_series([2.0, -0.25], M=1, N=4)
        taylor_flow(out.coefs[None], bcol, [0.5])
        for i, comp in enumerate(out.components):
            assert comp.rlo[0, 0] == gamma.components[i].rlo[0, 0]
            assert comp.rlo[0, 1] == c[i] / 0.5
            assert comp.rhi[0, 1] == c[i] / 0.5
            assert np.all(comp.rlo[:, 2:] == 0.0)
            assert np.all(comp.rhi[:, 2:] == 0.0)
            assert np.all(comp.ilo == 0.0) and np.all(comp.ihi == 0.0)

    def test_nilpotent_field_terminates(self):
        # F(u) = (u2, 0): the flow is gamma1 + (t / tau) gamma2, and
        # every later column must be exactly zero
        out = _line_series([0.5, 3.0], N=6)
        taylor_flow(out.coefs[None], _linear_column([[0, 1], [0, 0]], out),
                    [2.0])
        u1, u2 = out.components
        assert u1.rlo[0, 1] == 3.0 / 2.0
        assert np.all(u1.rlo[:, 2:] == 0.0) and np.all(u1.rhi[:, 2:] == 0.0)
        assert np.all(u2.rlo[:, 1:] == 0.0) and np.all(u2.rhi[:, 1:] == 0.0)

    def test_rotation_field_contains_rational_taylor(self):
        # F(u) = (u2, -u1) from (1, 0): columns are the cosine and sine
        # coefficients 1 / n!, compared against exact rationals
        N = 12
        out = _line_series([1.0, 0.0], N=N)
        taylor_flow(out.coefs[None], _linear_column([[0, 1], [-1, 0]], out),
                    [1.0])
        cur = [Fraction(1), Fraction(0)]
        for n in range(N + 1):
            for i, comp in enumerate(out.components):
                assert Fraction(comp.rlo[0, n]) <= cur[i] <= \
                    Fraction(comp.rhi[0, n])
                assert comp.ilo[0, n] <= 0.0 <= comp.ihi[0, n]
            cur = [cur[1] / (n + 1), -cur[0] / (n + 1)]

    def test_rejects_bad_arguments(self):
        line = _line_series([1.0, 0.0])
        with pytest.raises(ValueError):
            taylor_flow(line.coefs[None],
                        _linear_column([[0, 0], [0, 0]], line), [1.0])
        out = _line_series([1.0, 0.0], N=3)
        bcol = _linear_column([[0, 0], [0, 0]], out)
        with pytest.raises(ValueError):
            taylor_flow(out.coefs[None], bcol, [0.0])
        with pytest.raises(ValueError):
            taylor_flow(out.coefs[None], bcol, [math.inf])


class TestFlowLine:
    def test_time_zero_edge_is_the_arc(self, setup, arcs15, chart15):
        chart, _ = chart15
        arc = arcs15[3]
        for cc, ca in zip(chart.Gamma.components, arc.gamma.components):
            assert np.array_equal(cc.rlo[:, 0], ca.rlo[:, 0])
            assert np.array_equal(cc.rhi[:, 0], ca.rhi[:, 0])
            assert np.all(cc.ilo[:, 0] == 0.0) and np.all(cc.ihi[:, 0] == 0.0)

    def test_stable_arcs_advect_backward(self, setup, arcs15):
        m, pc = setup
        chart = flow_line(arcs15[0], m, pc, orders=(15, 10), tau=10.0)
        assert chart.kind == "stable"
        assert chart.tau == -10.0
        assert chart.accumulated_time == -0.1

    def test_auto_tau_hits_target_ratio(self, chart15):
        chart, _ = chart15
        G = chart.Gamma

        def colmag(n):
            return max(float(np.max(np.maximum(np.abs(c.rlo[:, n]),
                                               np.abs(c.rhi[:, n]))))
                       for c in G.components)

        for n in (48, 49):
            assert colmag(n + 1) / colmag(n) < 0.75

    def test_auto_tau_is_deterministic(self, setup, arcs15, chart15):
        # the tau the fill reads from its own first columns is that of
        # the separate pilot fill it replaced, and choose_tau's on the
        # charts of a tau = 1 fill of those columns alone
        m, pc = setup
        chart, _ = chart15
        assert pilot_tau([arcs15[3]], m, pc, 15) == [abs(chart.tau)]
        pilot = ArcFill([arcs15[3]], m, pc, (15, advect._N_PILOT), [1.0])
        assert choose_tau(pilot.charts) == [abs(chart.tau)]

    def test_recursion_matches_field_series(self, setup, arcs15,
                                            full_product_nodes,
                                            assert_overlap):
        # the same finished chart, pushed through the field program by
        # the recursion's column interpreter and by field_series, which
        # runs it over every column, and checked against exact full
        # products at every output
        m, pc = setup
        chart = flow_line(arcs15[7], m, pc, orders=(15, 20), tau=2.0)
        G = chart.Gamma
        prog = field_program(m, pc)
        b = field_series(m, pc, G, orders=(15, 20))
        full = full_product_nodes(prog, G.components, (15, 20))
        rec = _fresh_columns(m, pc, G)
        for n in range(21):
            col = rec.b_column(n)
            assert col.shape == (1, 7, 16)
            for i in range(7):
                # field_series keeps a complex store, whose real parts
                # hold the real interpreter's narrower ones
                want = b[i][:, n]
                assert np.all(want.lo[0] <= col[0, i].lo)
                assert np.all(col[0, i].hi <= want.hi[0])
                assert np.all(want.lo[1] <= 0.0) and np.all(want.hi[1] >= 0.0)
        for i, o in enumerate(prog.outputs):
            assert_overlap(b[i], full[o])

    def test_interval_masses_enclose_endpoint_chart(self, setup):
        # a chart built under an interval mass triple must enclose the
        # chart of every point triple inside it, here one endpoint
        m, pc = setup
        arc = boundary_mesh(local_manifold(m, pc, "stable", N=5))[5]
        d = 2.0 ** -40
        wide = MassTriple(Interval(0.5 - d, 0.5 + d),
                          Interval(0.3 - d, 0.3 + d), Interval(0.2))
        point = MassTriple.from_floats(0.5 + d, 0.3 - d, 0.2)
        outer, inner = (flow_line(arc, mt, primaries(mt), orders=(10, 4),
                                  tau=2.0).Gamma
                        for mt in (wide, point))
        for co, ci in zip(outer.components, inner.components):
            assert np.all(co.rlo <= ci.rlo) and np.all(ci.rhi <= co.rhi)
            assert np.all(co.ilo <= ci.ilo) and np.all(ci.ihi <= co.ihi)

    def test_rejects_bad_arguments(self, setup, arcs15):
        m, pc = setup
        with pytest.raises(ValueError):
            flow_line(arcs15[0], m, pc, orders=(15, 10), tau=-1.0)
        with pytest.raises(ValueError):
            flow_line(arcs15[0], m, pc, orders=(15, 10), tau=0.0)
        with pytest.raises(ValueError):
            # spatial order below the arc order drops arc content
            flow_line(arcs15[0], m, pc, orders=(8, 10), tau=1.0)

    def test_rejects_complex_arcs(self, setup):
        m, pc = setup
        gamma = _line_series([0.9, 0.0, 0.2, 0.0, 1.0, 1.0, 1.0], M=2)
        gamma.components[0].ilo[1, 0] = 1e-3
        gamma.components[0].ihi[1, 0] = 1e-3
        arc = BoundaryArc(gamma=gamma, kind="unstable")
        with pytest.raises(SymmetryViolation):
            flow_line(arc, m, pc, orders=(4, 6), tau=1.0)


@pytest.fixture(scope="module", params=["stable", "unstable"])
def retried(request, setup):
    """An arc of a 6-arc, order-10 mesh of an N = 5 manifold whose tube
    fails at its automatic rescaling and closes at twice it, as in
    an atlas retry, and half that rescaling."""
    m, pc = setup
    kind = request.param
    M = local_manifold(m, pc, kind, N=5)
    arc = boundary_mesh(M, n_arcs=6, arc_order=10)[
        0 if kind == "stable" else 1]
    return arc, 0.5 * pilot_tau([arc], m, pc, 10)[0]


def _attempt(make):
    """The chart ``make()`` returns, or the message of its
    CollisionDomain."""
    try:
        return make()
    except CollisionDomain as err:
        return str(err)


def _finish(fill, k, **kw):
    """``fill.finish`` of arc k alone: its chart, or the message of its
    CollisionDomain; ``source_arc`` and ``start_time`` as for
    ``flow_line``, which sets the source arc on its finished chart."""
    chart, = fill.finish([k], start_times=[kw.get("start_time", 0.0)])
    if isinstance(chart, CollisionDomain):
        return str(chart)
    return dataclasses.replace(chart, source_arc=kw.get("source_arc"))


# time rescalings for the stacked fills: 1 makes the first column's
# scale an exact 1
_TAUS = (1.0, 2.5, 0.75, 4.0, 1.6, 3.2)


def _mixed_arcs(arcs, K):
    """K arcs of the stable mesh ``arcs``, every other one advected
    forward as an unstable arc, so the signed rescalings differ too."""
    picked = [arcs[(3 * j) % len(arcs)] for j in range(K)]
    return [a if j % 2 == 0 else BoundaryArc(gamma=a.gamma, kind="unstable")
            for j, a in enumerate(picked)]


def _same_bytes(x, y):
    """Equal endpoints, bit for bit, zero signs included."""
    return x.lo.tobytes() == y.lo.tobytes() and \
        x.hi.tobytes() == y.hi.tobytes()


def _same_outcome(got, want):
    """Two finishes gave the same chart, bit for bit, or the same
    CollisionDomain message."""
    if not isinstance(want, FlowChart):
        return got == want
    return (_same_bytes(got.Gamma.coefs, want.Gamma.coefs)
            and (got.tail, got.defect, got.tau, got.accumulated_time,
                 got.kind, got.source_arc)
            == (want.tail, want.defect, want.tau, want.accumulated_time,
                want.kind, want.source_arc))


class TestStackedFill:
    """One ``ArcFill`` of K arcs against K fills of one arc each: every
    node grid, retime and finish equal, bit for bit."""

    @pytest.mark.parametrize("K", [1, 2, 6])
    def test_node_grids_equal_one_arc_fills(self, setup, arcs15, K):
        m, pc = setup
        arcs, taus = _mixed_arcs(arcs15, K), _TAUS[:K]
        fill = ArcFill(arcs, m, pc, (15, 12), taus)
        ones = [ArcFill([a], m, pc, (15, 12), [t])
                for a, t in zip(arcs, taus)]
        assert fill._nodes.G.shape == (K,) + ones[0]._nodes.G.shape[1:]
        # real arcs, a one-part store, as the charts over it are
        for x in (fill, *ones):
            assert isinstance(x._nodes.G, IntervalArray)
            assert np.shares_memory(x.charts.lo, x._nodes.G.lo)
        # columns 0..N - 1 of the recursion, then the defect's column N,
        # which the first finish fills for every copy
        for filled in (12, 13):
            assert fill._nodes.filled == filled
            for k, one in enumerate(ones):
                assert _same_bytes(fill._nodes.G[k], one._nodes.G[0]), k
                assert _same_bytes(fill.charts[k], one.charts[0]), k
                assert fill.taus[k] == one.taus[0]
            _defect_bounds(fill._nodes, [0], [fill.taus[0]])
            for one in ones:
                _defect(one._nodes, one.taus[0])

    def test_retime_scales_one_copy(self, setup, arcs15):
        m, pc = setup
        fill = ArcFill(_mixed_arcs(arcs15, 3), m, pc, (15, 12), _TAUS[:3])
        G = fill._nodes.G
        before = copied(G)
        taus = list(fill.taus)
        fill.retime(1)
        for k in range(3):
            if k == 1:
                e = -np.arange(13)
                assert np.array_equal(G.lo[k], np.ldexp(before.lo[k], e))
                assert np.array_equal(G.hi[k], np.ldexp(before.hi[k], e))
            else:
                assert _same_bytes(G[k], before[k])
        assert fill.taus == [taus[0], 2.0 * taus[1], taus[2]]

    def test_finish_equals_one_arc_fill(self, setup, arcs15):
        # arc 2 is retimed before the first finish fills column N, the
        # others after it, as the atlas retries them; each one-arc fill
        # runs the same steps on its own
        m, pc = setup
        arcs, taus = _mixed_arcs(arcs15, 4), _TAUS[1:5]
        retimes = (0, 2, 1, 1)
        fill = ArcFill(arcs, m, pc, (15, 12), taus)
        fill.retime(2)
        got = {0: _finish(fill, 0, source_arc=0, start_time=-0.5)}
        for k in (3, 1, 2):
            for _ in range(retimes[k] - (k == 2)):
                fill.retime(k)
            got[k] = _finish(fill, k, source_arc=k, start_time=-0.5)
        for k, (arc, tau) in enumerate(zip(arcs, taus)):
            one = ArcFill([arc], m, pc, (15, 12), [tau])
            if k != 2:
                _finish(one, 0)
            for _ in range(retimes[k]):
                one.retime(0)
            want = _finish(one, 0, source_arc=k, start_time=-0.5)
            assert isinstance(want, FlowChart)
            assert _same_outcome(got[k], want), k

    def test_stacked_pilots_equal_one_arc_pilots(self, setup, arcs15):
        # the taus a stacked automatic fill reads from its first columns
        # are those of one-arc automatic fills, and of the separate
        # pilot fills they replaced
        m, pc = setup
        arcs = _mixed_arcs(arcs15, 6)
        got = [abs(tau) for tau in ArcFill(arcs, m, pc, (15, 8)).taus]
        assert got == [abs(ArcFill([a], m, pc, (15, 8)).taus[0])
                       for a in arcs]
        assert got == pilot_tau(arcs, m, pc, 15)

    def test_rejects_mismatched_taus(self, setup, arcs15):
        m, pc = setup
        with pytest.raises(ValueError, match="rescalings"):
            ArcFill(arcs15[:2], m, pc, (15, 4), [1.0])
        with pytest.raises(ValueError, match="rescalings"):
            taylor_flow(CIntervalArray.zeros((2, 7, 3, 4)),
                        lambda n: None, [1.0])
        # a column must have the charts' parts, real or complex
        out = _line_series([1.0, 0.0], N=3)
        with pytest.raises(ValueError):
            taylor_flow(out.coefs[None], lambda n: IntervalArray(
                np.zeros((1, 2, 1)), np.zeros((1, 2, 1))), [1.0])
        with pytest.raises(ValueError):
            taylor_flow(real_stack(out), lambda n: CIntervalArray.zeros(
                (1, 2, 1)), [1.0])


class TestKeptEnds:
    """``ArcFill`` keeps the interpreter's factor ends through its own
    writes of ``G``: the rescale, and a retime before the last column,
    drop them, so every node grid and finish equal, bit for bit, those
    of a fill whose every kernel call sorts its factors' whole
    corner."""

    @staticmethod
    def _run(m, pc, arcs):
        # an automatic fill, rescaled at column _N_PILOT; arc 1 retimed
        # before the first finish fills column N, arc 0 after it
        fill = ArcFill(arcs, m, pc, (15, 12))
        fill.retime(1)
        got = [_finish(fill, 1, source_arc=1)]
        fill.retime(0)
        got += fill.finish([0, 2], start_times=[0.5, 0.5])
        return fill, [_message(x) for x in got]

    def test_rescale_and_retime_give_whole_corner_bits(self, setup, arcs15,
                                                       monkeypatch):
        m, pc = setup
        arcs = _mixed_arcs(arcs15, 3)
        fill, got = self._run(m, pc, arcs)
        whole = polyfield.product_columns
        monkeypatch.setattr(polyfield, "product_columns",
                            lambda G, a, b, n, M, ends: whole(G, a, b, n, M))
        want_fill, want = self._run(m, pc, arcs)
        assert _same_bytes(fill._nodes.G, want_fill._nodes.G)
        assert isinstance(want[0], FlowChart)
        for x, y in zip(got, want):
            assert _same_outcome(x, y)

    def test_real_stable_chart_has_positive_zero_imaginary_grids(
            self, setup, arcs15):
        # the fill holds real parts alone, in the interpreter and in
        # the time scaling, so a backward-time chart's imaginary grids,
        # made when it is finished, are +0.0, no sign bit set
        m, pc = setup
        fill = ArcFill([arcs15[3]], m, pc, (15, 12))
        chart, = fill.finish([0])
        assert chart.tau < 0.0
        assert isinstance(fill._nodes.G, IntervalArray)
        assert isinstance(fill.charts, IntervalArray)
        for y in (chart.Gamma.coefs.lo[1], chart.Gamma.coefs.hi[1]):
            assert not y.any() and not np.signbit(y).any()

    def test_unit_rescale_equals_the_direct_fill(self, setup, arcs15,
                                                 monkeypatch):
        # a tau of 1 rescales every entry exactly, so the automatic fill
        # equals, bit for bit, a fill at tau = 1 from column 0
        m, pc = setup
        arcs = _mixed_arcs(arcs15, 2)
        monkeypatch.setattr(advect, "choose_tau",
                            lambda charts: [1.0] * charts.shape[0])
        auto = ArcFill(arcs, m, pc, (15, 12))
        direct = ArcFill(arcs, m, pc, (15, 12), [1.0, 1.0])
        assert auto.taus == direct.taus
        assert _same_bytes(auto._nodes.G, direct._nodes.G)


class TestAutoTau:
    """With ``taus`` None one fill is its own pilot: it makes columns
    0.._N_PILOT at tau = +-1, reads each arc's tau from them, rescales
    them to it and goes on at that tau."""

    @pytest.mark.parametrize("masses", SEED_MASSES)
    def test_flowline_taus_equal_the_pilot_reference(self, masses):
        # the flowline-hi arcs of the benchmark's seeds 0-3, at its
        # orders: bit for bit the tau of the separate pilot fill; arc 0,
        # whose tube fails, through its fill
        m = MassTriple.from_floats(*masses)
        pc = primaries(m)
        arcs = boundary_mesh(local_manifold(m, pc, "stable", N=5),
                             n_arcs=20)
        for k in (0, 5, 10, 15):
            want = -pilot_tau([arcs[k]], m, pc, 10)[0]
            if k == 0:
                with pytest.raises(CollisionDomain):
                    flow_line(arcs[k], m, pc, orders=(10, 50))
                got = ArcFill([arcs[k]], m, pc, (10, 50)).taus[0]
            else:
                got = flow_line(arcs[k], m, pc, orders=(10, 50)).tau
            assert got == want, k

    def test_stacked_fill_equals_one_arc_fills(self, setup, arcs15):
        # K = 6 arcs, stable and unstable: every tau, node grid and
        # finish of the one automatic fill equals that of an automatic
        # fill of its arc alone, bit for bit
        m, pc = setup
        arcs = _mixed_arcs(arcs15, 6)
        fill = ArcFill(arcs, m, pc, (15, 12))
        ones = [ArcFill([a], m, pc, (15, 12)) for a in arcs]
        for k, one in enumerate(ones):
            assert fill.taus[k] == one.taus[0], k
            assert _same_bytes(fill._nodes.G[k], one._nodes.G[0]), k
        got = fill.finish(range(6), start_times=[0.5] * 6)
        for k, one in enumerate(ones):
            want, = one.finish([0], start_times=[0.5])
            assert _same_outcome(_message(got[k]), _message(want)), k

    def test_rescaled_fill_overlaps_the_direct_fill(self, setup, arcs15):
        # against a fill at the same tau from column 0: every node
        # enclosure overlaps, column 0 is the same, and the rescaled
        # columns are as narrow, within 1e-14 of their magnitudes
        m, pc = setup
        for arc in (arcs15[3], BoundaryArc(gamma=arcs15[12].gamma,
                                           kind="unstable")):
            auto = ArcFill([arc], m, pc, (15, 20))
            tau = abs(auto.taus[0])
            direct = ArcFill([arc], m, pc, (15, 20), [tau])
            assert auto.taus[0] == direct.taus[0]
            a, d = auto._nodes.G, direct._nodes.G
            assert np.all(np.maximum(a.lo, d.lo) <= np.minimum(a.hi, d.hi))
            assert _same_bytes(a[..., 0], d[..., 0])
            cols = slice(1, advect._N_PILOT + 1)
            wa = (a.hi - a.lo)[..., cols]
            wd = (d.hi - d.lo)[..., cols]
            mag = d.mag()[..., cols]
            assert np.all(wa <= wd + 1e-14 * mag + 1e-300)

    def test_rescale_encloses_exact_products(self, setup, arcs15,
                                             monkeypatch):
        # columns 1.._N_PILOT of every node after the rescale against
        # the exact rationals x tau^-n of the tau = +-1 entries x: each
        # end beyond them by at most three ulps; column 0 and the exact
        # zeros as they were, bit for bit
        m, pc = setup
        seen = []
        rescale = ArcFill._rescale
        monkeypatch.setattr(ArcFill, "_rescale", lambda self, taus: (
            seen.append((copied(self._nodes.G), list(taus)))
            or rescale(self, taus)
            or seen.append(copied(self._nodes.G))))
        fill = ArcFill([arcs15[3]], m, pc, (15, 10))
        (before, (tau,)), after = seen
        P = advect._N_PILOT
        r = 1 / Fraction(tau)
        written = (Ellipsis, slice(0, P + 1))
        for x, y, way in ((before.lo, after.lo, -1), (before.hi, after.hi,
                                                      1)):
            assert y[..., 0].tobytes() == x[..., 0].tobytes()
            zero = x[written] == 0.0
            assert y[written][zero].tobytes() == x[written][zero].tobytes()
            for idx in np.argwhere(x[0, ..., 1:P + 1] != 0.0):
                *at, n = idx.tolist()
                v, w = float(x[(0, *at, n + 1)]), float(y[(0, *at, n + 1)])
                exact = Fraction(v) * r ** (n + 1)
                near = float(exact)
                for _ in range(3):
                    near = math.nextafter(near, way * math.inf)
                if way < 0:
                    assert near <= w and Fraction(w) <= exact
                else:
                    assert exact <= Fraction(w) and w <= near
        # the columns past the pilot's were filled at tau
        assert fill._nodes.filled == 10

    def test_power_bounds_against_fractions(self):
        # floors and ceils of tau^-j: tau = 1 and powers of two exact,
        # the workloads' taus, the least tau, and taus whose powers are
        # subnormal or below the least float
        taus = [1.0, 2.0, 0.5, 0.32967032200258345, 0.4868323946508211,
                advect._TAU_FLOOR, 3.7, 1e38, 1e100]
        lo, hi = advect._power_bounds(taus, 8)
        assert lo.shape == hi.shape == (len(taus), 8)
        for k, tau in enumerate(taus):
            for j in range(8):
                q = Fraction(tau) ** -(j + 1)
                assert (lo[k, j], hi[k, j]) == (_floor_f(q), _ceil_f(q))
        assert np.array_equal(lo[1], 0.5 ** np.arange(1.0, 9.0))
        assert lo[-1, -1] == 0.0 and hi[-1, -1] == 2.0 ** -1074

    def test_needs_the_pilot_columns(self, setup, arcs15):
        # below N = _N_PILOT a chart cannot hold the pilot's columns; at
        # it the pilot's columns are the whole chart
        m, pc = setup
        for N in (1, advect._N_PILOT - 1):
            with pytest.raises(ValueError, match="automatic tau"):
                ArcFill([arcs15[3]], m, pc, (15, N))
            with pytest.raises(ValueError, match="automatic tau"):
                flow_line(arcs15[3], m, pc, orders=(15, N))
            ArcFill([arcs15[3]], m, pc, (15, N), [1.0])
        fill = ArcFill([arcs15[3]], m, pc, (15, advect._N_PILOT))
        assert fill._nodes.filled == advect._N_PILOT
        assert -fill.taus[0] == pilot_tau([arcs15[3]], m, pc, 15)[0]

    def test_one_column_pass_per_chart(self, setup, arcs15, monkeypatch):
        # the pilot's columns are the chart's: each of the N + 1
        # columns is computed once, by two runs of the recursion
        m, pc = setup
        calls, runs = [], []
        b_column, flow = FieldNodes.b_column, advect.taylor_flow
        monkeypatch.setattr(FieldNodes, "b_column",
                            lambda self, n: calls.append(n)
                            or b_column(self, n))
        monkeypatch.setattr(advect, "taylor_flow",
                            lambda out, b, taus, start=0: runs.append(
                                (out.shape[-1], start))
                            or flow(out, b, taus, start))
        flow_line(arcs15[7], m, pc, orders=(15, 20))
        assert calls == list(range(21))
        assert runs == [(advect._N_PILOT + 1, 0), (21, advect._N_PILOT)]

    def test_recursion_resumes_at_start(self, setup, arcs15):
        # a fill in two runs, columns 1..5 and then 6..N, equals one
        # run, bit for bit; start must lie in 0..N
        m, pc = setup
        fills = [ArcFill([arcs15[5]], m, pc, (15, 12), [0.7])]
        nodes = FieldNodes(field_program(m, pc),
                           fills[0].charts[..., :1], 15, 12)
        charts = nodes.G[:, :DIM]
        taus = fills[0].taus
        taylor_flow(charts[..., :6], nodes.b_column, taus)
        taylor_flow(charts, nodes.b_column, taus, 5)
        assert _same_bytes(nodes.G[0, :DIM], fills[0]._nodes.G[0, :DIM])
        for start in (-1, 13):
            with pytest.raises(ValueError, match="start"):
                taylor_flow(charts, nodes.b_column, taus, start)

    def test_rejects_a_tau_that_is_not_finite(self, setup, arcs15,
                                              monkeypatch):
        m, pc = setup
        monkeypatch.setattr(advect, "choose_tau",
                            lambda charts: [math.inf] * charts.shape[0])
        with pytest.raises(ValueError, match="finite"):
            ArcFill([arcs15[3]], m, pc, (15, 10))


class TestRetime:
    """A retry retimes the one fill of its arc: column n of the chart
    and of every interpreter node is scaled by 2^-n."""

    def test_attempts_equal_fresh_flow_lines(self, setup, retried):
        # real endpoints, tail, defect, tau and time bit-equal to a
        # fresh flow_line at 2^k tau; imaginary grids, exact zeros, equal
        # up to the signs of zeros
        m, pc = setup
        arc, tau = retried
        fill = ArcFill([arc], m, pc, (10, 18), [tau])
        outcomes = []
        for k in range(4):
            if k:
                fill.retime(0)
            got = _finish(fill, 0, source_arc=4, start_time=-0.5)
            want = _attempt(lambda: flow_line(
                arc, m, pc, orders=(10, 18), tau=tau * 2.0 ** k,
                source_arc=4, start_time=-0.5))
            outcomes.append(isinstance(want, FlowChart))
            if not isinstance(want, FlowChart):
                assert got == want
                continue
            G, W = got.Gamma, want.Gamma
            for x, y in ((G.coefs.lo, W.coefs.lo), (G.coefs.hi, W.coefs.hi)):
                assert x[0].tobytes() == y[0].tobytes(), k
                assert np.array_equal(x[1], y[1]) and not x[1].any(), k
            assert (got.tail, got.defect, got.tau, got.accumulated_time,
                    got.kind, got.source_arc) == (
                want.tail, want.defect, want.tau, want.accumulated_time,
                want.kind, want.source_arc)
        # the tube fails at tau and 2 tau and closes at 4 tau and 8 tau
        assert outcomes == [False, False, True, True]

    def test_scales_chart_and_nodes_without_refilling(self, setup,
                                                      retried,
                                                      monkeypatch):
        m, pc = setup
        arc, tau = retried
        fill = ArcFill([arc], m, pc, (10, 18), [4.0 * tau])
        chart, = fill.finish([0])
        kept = chart.Gamma.coefs.copy()
        nodes = fill._nodes
        # the chart is the interpreter's input rows: one store
        assert np.shares_memory(fill.charts.lo, nodes.G.lo)
        assert np.shares_memory(fill.charts.hi, nodes.G.hi)
        before, G = copied(nodes.G), copied(fill.charts[0])
        tau0 = fill.taus[0]
        calls = []
        monkeypatch.setattr(FieldNodes, "b_column",
                            lambda *a: calls.append(a))
        fill.retime(0)
        assert calls == [] and nodes.filled == 19
        e = -np.arange(19)
        for old, new in ((G, fill.charts[0]), (before, nodes.G)):
            assert np.array_equal(new.lo, np.ldexp(old.lo, e))
            assert np.array_equal(new.hi, np.ldexp(old.hi, e))
        assert fill.taus[0] == 2.0 * tau0
        # the chart made before the retime is not written
        assert chart.Gamma.coefs.lo.tobytes() == kept.lo.tobytes()
        assert chart.Gamma.coefs.hi.tobytes() == kept.hi.tobytes()
        monkeypatch.undo()
        again, = fill.finish([0])
        assert calls == [] and again.tau == 2.0 * chart.tau

    def test_special_values_pass_through(self, setup, retried):
        # planted in column 1 of the chart and of a node: normal values
        # halve exactly, a subnormal result encloses the exact half, and
        # zeros and infinities keep their signs
        m, pc = setup
        arc, tau = retried
        fill = ArcFill([arc], m, pc, (10, 2), [tau])
        tiny = 2.0 ** -1074
        lo = np.array([3.0, tiny, -0.0, 0.0, -np.inf, -tiny])
        hi = np.array([3.0, tiny, -0.0, 0.0, 1.0, np.inf])
        for G in (fill.charts[0], fill._nodes.G[0, 30]):
            G.lo[..., :6, 1], G.hi[..., :6, 1] = lo, hi
        fill.retime(0)
        for G in (fill.charts[0], fill._nodes.G[0, 30]):
            glo, ghi = G.lo[..., :6, 1], G.hi[..., :6, 1]
            assert np.all(glo[..., 0] == 1.5) and np.all(ghi[..., 0] == 1.5)
            # 2^-1075 lies in [-2^-1074, 2^-1074] but is no float
            assert np.all(glo[..., 1] == -tiny) and np.all(ghi[..., 1] == tiny)
            assert np.all(glo[..., 5] == -tiny)
            for j in (2, 3):
                assert np.all(np.signbit(glo[..., j]) == np.signbit(lo[j]))
                assert np.all(np.signbit(ghi[..., j]) == np.signbit(hi[j]))
            assert np.all(glo[..., 4] == -np.inf)
            assert np.all(ghi[..., 4] == 0.5) and np.all(ghi[..., 5] == np.inf)

    def test_rejects_bad_tau(self, setup, retried):
        m, pc = setup
        arc, _ = retried
        for tau in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                ArcFill([arc], m, pc, (10, 2), [tau])


class TestDefect:
    def test_equilibrium_line_is_almost_stationary(self, setup):
        m, pc = setup
        x, y = newton_equilibrium(pc, m, (0.93, 0.22))
        pos = pc.position_array()
        w = [1.0 / math.hypot(x - pos[j, 0], y - pos[j, 1])
             for j in range(3)]
        arc = BoundaryArc(gamma=_line_series([x, 0.0, y, 0.0, *w], M=3),
                          kind="unstable")
        chart = flow_line(arc, m, pc, orders=(3, 10), tau=1.0)
        for c in chart.Gamma.components:
            assert float(np.max(np.abs(c.rlo[:, 1:]))) < 1e-12
        assert chart.defect < 1e-10
        assert chart.tail < 1e-9

    def test_residual_straddles_through_top_order(self, setup, arcs15,
                                                  chart15):
        # on the automatic chart, whose first columns are rescaled, and
        # on a direct fill at its tau, whose defect a fresh interpreter
        # reproduces exactly
        m, pc = setup
        auto, _ = chart15
        chart = flow_line(arcs15[3], m, pc, orders=(15, 50),
                          tau=abs(auto.tau))
        N = chart.Gamma.orders[1]
        for G in (auto.Gamma, chart.Gamma):
            res, beyond = _chart_defect(m, pc, G)
            for r in res:
                assert np.all(r.rlo[:, :N] <= 0.0)
                assert np.all(r.rhi[:, :N] >= 0.0)
                assert np.all(r.ilo <= 0.0) and np.all(r.ihi >= 0.0)
        assert chart.defect == defect_sum(map(mag_sum_bound, res), beyond)

    def test_defect_detects_planted_fault(self, setup, arcs15):
        m, pc = setup
        chart = flow_line(arcs15[5], m, pc, orders=(15, 16), tau=1.0)
        G = chart.Gamma
        base = mag_sum_bound(_chart_defect(m, pc, G)[0][1])
        c1 = G.components[1]
        mm = int(np.argmax(np.abs(c1.rlo[:, 16] + c1.rhi[:, 16])))
        mag = abs(0.5 * (c1.rlo[mm, 16] + c1.rhi[mm, 16]))
        comps = [c.copy() for c in G.components]
        comps[1].rlo[mm, 16] = 0.0
        comps[1].rhi[mm, 16] = 0.0
        bad = FlowChart(Gamma=Series2(tuple(comps), scale=G.scale, tau=G.tau,
                                      tail=G.tail),
                        kind=chart.kind)
        res = _chart_defect(m, pc, bad.Gamma)[0][1]
        assert not res.rlo[mm, 15] <= 0.0 <= res.rhi[mm, 15]
        assert mag_sum_bound(res) - base > 0.5 * 16.0 * mag
        assert (_defect(_fresh_columns(m, pc, bad.Gamma), bad.tau)
                >= _defect(_fresh_columns(m, pc, G), G.tau))

    def test_recursion_interpreter_reuse_is_exact(self, setup, arcs15):
        # the defect on the interpreter that built the chart, which
        # fills only column N, against the defect on a fresh one over
        # the finished chart, for a stable arc and for the same kind of
        # arc advected forward as an unstable one: equal endpoints
        m, pc = setup
        M, N = 15, 20
        for arc in (arcs15[7], BoundaryArc(gamma=arcs15[12].gamma,
                                           kind="unstable")):
            fill = ArcFill([arc], m, pc, (M, N), [2.0])
            rec, G = fill._nodes, fill_chart(fill, 0)
            assert rec.filled == N
            lhs = _chart_lhs(G)
            bound = field_defect(rec, _stacked(lhs))
            assert rec.filled == N + 1
            fresh = _fresh_columns(m, pc, G)
            assert field_defect(fresh, _stacked(lhs)) == bound
            assert np.array_equal(rec.beyond_grid_bounds([0]),
                                  fresh.beyond_grid_bounds([0]))
            for cols in (rec, fresh):
                assert np.array_equal(cols.G[0, :DIM].lo, G.coefs.lo[0])
                assert np.array_equal(cols.G[0, :DIM].hi, G.coefs.hi[0])
            res = lhs - rec.G[0, rec.outputs]
            want = lhs - fresh.G[0, fresh.outputs]
            assert np.array_equal(res.lo, want.lo)
            assert np.array_equal(res.hi, want.hi)
            chart = flow_line(arc, m, pc, orders=(M, N), tau=2.0)
            assert chart.defect == defect_sum(
                [mag_sum_bound(r) for r in res],
                rec.beyond_grid_bounds([0])[0])

    def test_stacked_lhs_equals_column_products(self, setup, arcs15,
                                                chart15, monkeypatch):
        # the left-hand side tau dGamma/dt of _defect_bound, one stacked
        # real product, against the real parts of one complex product
        # per column, bit for bit; tau = 1 and 2 make some scales exact
        # 1 and 2, which the per-column product scales without an
        # interval product
        m, pc = setup
        charts = [chart15[0].Gamma] + [
            fill_chart(ArcFill([arcs15[k]], m, pc, (15, 12), [tau]), 0)
            for k, tau in ((7, 1.0), (12, 2.0), (5, 0.5))]
        got = []
        monkeypatch.setattr(advect, "field_defect",
                            lambda cols, lhs, copies: got.append(lhs[0])
                            or np.zeros(1))
        for G in charts:
            _defect(_fresh_columns(m, pc, G), G.tau)
            want = _chart_lhs(G)
            assert isinstance(got[-1], IntervalArray)
            for x, y in ((got[-1].lo, want.lo), (got[-1].hi, want.hi)):
                assert x.tobytes() == y.tobytes()

    def test_one_interpreter_run_per_chart(self, setup, arcs15,
                                           monkeypatch):
        # N recursion columns plus the defect's column N: each of the
        # N + 1 columns is computed once per chart
        m, pc = setup
        calls = []
        b_column = FieldNodes.b_column

        def counted(self, n):
            calls.append(n)
            return b_column(self, n)

        monkeypatch.setattr(FieldNodes, "b_column", counted)
        flow_line(arcs15[7], m, pc, orders=(15, 20), tau=2.0)
        assert calls == list(range(21))

    def test_shallow_chart_defect_small(self, setup, chart15):
        # one more advection step at tau = 10 keeps the defect far
        # below the certification budget
        m, pc = setup
        chart, _ = chart15
        arc = collapse_time_one(chart)
        nxt = flow_line(arc, m, pc, orders=(15, 20), tau=10.0,
                        start_time=chart.accumulated_time)
        assert nxt.defect < 1e-8
        assert nxt.accumulated_time == pytest.approx(
            chart.accumulated_time - 0.1)

    def test_beyond_grid_bound_covers_true_content(self, setup, stable7):
        # the derived out-of-grid bound against the field content past
        # the (M, N) grid, from field_series at (5M, 5N), which keeps it all,
        # on a small chart and on a random grid whose content is mostly
        # out of grid
        m, pc = setup
        arc = boundary_mesh(stable7, n_arcs=20, arc_order=6)[4]
        chart = flow_line(arc, m, pc, orders=(6, 6), tau=2.0).Gamma
        rng = np.random.default_rng(1)
        noise = Series2(tuple(from_complex_points(
            rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            for _ in range(7)))
        for G in (chart, noise):
            M, N = G.orders
            cols = (_fresh_columns(m, pc, G) if G is chart else FieldNodes(
                field_program(m, pc), G.coefs[None], M, N))
            for n in range(N + 1):
                cols.b_column(n)
            bounds = cols.beyond_grid_bounds([0])[0]
            full = field_series(m, pc, G, orders=(5 * M, 5 * N))
            for i, (f, bound) in enumerate(zip(full, bounds)):
                mag = np.hypot(np.maximum(np.abs(f.rlo), np.abs(f.rhi)),
                               np.maximum(np.abs(f.ilo), np.abs(f.ihi)))
                mag[:M + 1, :N + 1] = 0.0
                assert bound >= float(mag.sum()), i
                if i not in (0, 2):
                    assert float(mag.sum()) > 0.0, i


class TestRangeBox:
    def test_contains_samples(self, chart15):
        chart, _ = chart15
        box = range_box(real_stack(chart.Gamma)).padded([chart.tail])[0]
        rng = np.random.default_rng(5)
        for s, t in rng.uniform(-1.0, 1.0, size=(25, 2)):
            vals = chart.Gamma.eval_box(CInterval(Interval.from_value(s)),
                                        CInterval(Interval.from_value(t)))
            for i, v in enumerate(vals):
                assert box[i].lo <= v.re.mid <= box[i].hi

    def test_stays_clear_of_primaries(self, setup, chart15):
        _, pc = setup
        chart, _ = chart15
        box = range_box(real_stack(chart.Gamma)).padded([chart.tail])[0]
        for px, py in pc.positions:
            dx = box[0] - px
            dy = box[2] - py
            assert (dx * dx + dy * dy).lo > 0.05 ** 2


def _scaled(x: float, S: int) -> int:
    """The float x times 2^S, exactly, for S >= 1074."""
    p, q = x.as_integer_ratio()
    return p * (2 ** S // q)


# coefficients of every binade, subnormals included; the grids also
# come with cancelling sign patterns, or deep in the subnormals
_coef = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 40))


@st.composite
def _midpoint_grids(draw):
    M = draw(st.integers(0, 3))
    N = draw(st.integers(0, 3))
    unit = np.array([[draw(st.floats(-1.0, 1.0)) for _ in range(N + 1)]
                     for _ in range(M + 1)])
    kind = draw(st.sampled_from(["binades", "cancelling", "subnormal"]))
    if kind == "binades":
        return np.array([[draw(_coef) for _ in range(N + 1)]
                         for _ in range(M + 1)])
    if kind == "cancelling":
        # equal magnitudes with alternating signs
        signs = (-1.0) ** np.add.outer(np.arange(M + 1), np.arange(N + 1))
        return signs * abs(draw(_coef)) * (1.0 + 1e-3 * unit)
    # so small that the products underflow
    return np.ldexp(unit, draw(st.integers(-1070, -1000)))


class TestRangeBoxRounding:
    @settings(max_examples=30, deadline=None)
    @given(_midpoint_grids())
    def test_samples_within_bound_of_exact(self, mid):
        # every float sample lies within the bound of the exact value of
        # the polynomial at the same float centers, all scaled by 2^S to
        # integers
        vals, err = _tile_samples(mid)
        M, N = mid.shape[0] - 1, mid.shape[1] - 1
        E = 1074
        S = E * (1 + M + N)
        c = [_scaled(float(x), E) for x in _CENTERS]
        xp = [[ci ** m * 2 ** (E * (M - m)) for m in range(M + 1)] for ci in c]
        yp = [[ci ** n * 2 ** (E * (N - n)) for n in range(N + 1)] for ci in c]
        a = [[_scaled(float(x), E) for x in row] for row in mid]
        rows = [[sum(xi[m] * a[m][n] for m in range(M + 1))
                 for n in range(N + 1)] for xi in xp]
        bound = _scaled(err, S)
        for i, row in enumerate(rows):
            for j, yj in enumerate(yp):
                exact = sum(r * y for r, y in zip(row, yj))
                assert abs(_scaled(float(vals[i, j]), S) - exact) <= bound

    def test_bound_needs_no_unit_floor(self):
        # the old padding charged ops * 1.2e-16 even for tiny
        # coefficients; the derived bound scales with their mass
        _, err = _tile_samples(np.full((3, 4), 1e-20))
        assert err < 1e-33


class TestCheckCollision:
    @staticmethod
    def _segment_box(x0, half_width, y0):
        """The range box, as a stack of one, of a chart whose position
        runs along x0 + half_width * s at height y0, every other
        component zero."""
        comps = [ScalarSeries2.zeros(1, 0) for _ in range(7)]
        comps[0][0, 0] = CInterval(x0)
        comps[0][1, 0] = CInterval(half_width)
        comps[2][0, 0] = CInterval(y0)
        return range_box(real_stack(Series2(tuple(comps)))).padded([0.0])

    def test_range_straddling_a_primary_x_passes(self, setup):
        # x spans the primary's x, y stays 0.3 above it: the squared
        # distance is at least 0.09, not negative
        _, pc = setup
        px, py = (c.mid for c in pc.positions[0])
        assert check_collision(self._segment_box(px, 0.5, py + 0.3),
                               pc) == [None]

    def test_range_over_a_primary_raises(self, setup):
        _, pc = setup
        px, py = (c.mid for c in pc.positions[0])
        far = self._segment_box(px, 0.01, py + 0.3)
        near = self._segment_box(px, 0.01, py)
        stack = IntervalArray(np.concatenate((far.lo, near.lo)),
                              np.concatenate((far.hi, near.hi)))
        clear, err = check_collision(stack, pc)
        assert clear is None
        assert isinstance(err, CollisionDomain)
        assert "primary 0" in str(err)


class TestAgainstReference:
    def test_equilibrium_is_fixed(self, setup):
        m, pc = setup
        x, y = newton_equilibrium(pc, m, (0.93, 0.22))
        y0 = np.array([x, 0.0, y, 0.0])
        yT = reference_integrate(y0, 10.0, m, pc)
        assert float(np.max(np.abs(yT - y0))) < 1e-9

    def test_energy_is_conserved(self, setup):
        m, pc = setup
        pos = pc.position_array()
        masses = np.array(m.as_floats())
        y0 = np.array([0.9, 0.05, 0.2, -0.03])
        yT = reference_integrate(y0, 5.0, m, pc)
        drift = abs(energy_point(pos, masses, yT)
                    - energy_point(pos, masses, y0))
        assert drift < 5e-9

    def test_lifted_field_shadows_reduced(self, setup):
        m, pc = setup
        pos = pc.position_array()
        y0 = np.array([0.9, 0.05, 0.2, -0.03])
        w = [1.0 / math.hypot(y0[0] - pos[j, 0], y0[2] - pos[j, 1])
             for j in range(3)]
        y7 = reference_integrate(np.array([*y0, *w]), 1.0, m, pc)
        y4 = reference_integrate(y0, 1.0, m, pc)
        assert float(np.max(np.abs(y7[:4] - y4))) < 1e-8
        for j in range(3):
            r = math.hypot(y4[0] - pos[j, 0], y4[2] - pos[j, 1])
            assert abs(y7[4 + j] - 1.0 / r) < 1e-8

    def test_collision_guards(self, setup):
        m, pc = setup
        pos = pc.position_array()
        with pytest.raises(CollisionDomain):
            reference_integrate(
                np.array([pos[0, 0] + 1e-6, 0.0, pos[0, 1], 0.0]),
                1.0, m, pc)
        with pytest.raises(CollisionDomain):
            # released at rest near a primary, the state falls in
            reference_integrate(
                np.array([pos[0, 0] + 0.08, 0.0, pos[0, 1], 0.0]),
                5.0, m, pc, collision_radius=0.05)

    def test_zero_time_is_identity(self, setup):
        m, pc = setup
        y0 = np.array([0.9, 0.05, 0.2, -0.03])
        assert np.array_equal(reference_integrate(y0, 0.0, m, pc), y0)

    def test_rejects_bad_dimension(self, setup):
        m, pc = setup
        with pytest.raises(ValueError):
            reference_integrate(np.zeros(5), 1.0, m, pc)


class TestChartAccuracy:
    def test_chart_matches_reference_at_time_one(self, setup, arcs15,
                                                 chart15):
        m, pc = setup
        chart, elapsed = chart15
        assert elapsed < 30.0
        arc = arcs15[3]
        T = 1.0 / chart.tau
        worst = 0.0
        for s in np.linspace(-1.0, 1.0, 11):
            zs = CInterval(Interval.from_value(float(s)))
            y0 = np.array([v.re.mid for v in arc.gamma.eval_box(zs, Z0)])
            yT = reference_integrate(y0, T, m, pc, tol=1e-13)
            vals = chart.Gamma.eval_box(zs, Z1)
            for v, w in zip(vals, yT):
                assert v.re.lo - 1e-15 <= w <= v.re.hi + 1e-15
            worst = max(worst, max(abs(v.re.mid - w)
                                   for v, w in zip(vals, yT)))
        assert worst < 1e-10

    def test_chart_matches_reference_at_interior_time(self, setup, arcs15,
                                                      chart15):
        m, pc = setup
        chart, _ = chart15
        zs = CInterval(Interval.from_value(-0.2))
        y0 = np.array([v.re.mid
                       for v in arcs15[3].gamma.eval_box(zs, Z0)])
        for t in (0.25, 0.7):
            yT = reference_integrate(y0, t / chart.tau, m, pc, tol=1e-13)
            vals = chart.Gamma.eval_box(
                zs, CInterval(Interval.from_value(t)))
            assert max(abs(v.re.mid - w)
                       for v, w in zip(vals, yT)) < 1e-10

    def test_energy_constant_along_chart(self, setup, arcs15, chart15):
        m, pc = setup
        chart, _ = chart15
        pos = pc.position_array()
        masses = np.array(m.as_floats())
        for s in (-0.8, 0.1, 0.9):
            zs = CInterval(Interval.from_value(s))
            e0 = energy_point(pos, masses, np.array(
                [v.re.mid for v in chart.Gamma.eval_box(zs, Z0)])[:4])
            e1 = energy_point(pos, masses, np.array(
                [v.re.mid for v in chart.Gamma.eval_box(zs, Z1)])[:4])
            assert abs(e1 - e0) < 1e-9

    def test_collapse_and_readvect(self, setup, arcs15, chart15):
        m, pc = setup
        chart, _ = chart15
        arc2 = collapse_time_one(chart)
        assert arc2.kind == "stable"
        assert arc2.preimage is None
        assert arc2.gamma.orders == (15, 0)
        assert arc2.gamma.tail == chart.tail
        nxt = flow_line(arc2, m, pc, orders=(15, 20), tau=10.0,
                        start_time=chart.accumulated_time)
        zs = CInterval(Interval.from_value(-0.2))
        y0 = np.array([v.re.mid
                       for v in arcs15[3].gamma.eval_box(zs, Z0)])
        T = 1.0 / chart.tau + 1.0 / nxt.tau
        yT = reference_integrate(y0, T, m, pc, tol=1e-13)
        vals = nxt.Gamma.eval_box(zs, Z1)
        for v, w in zip(vals, yT):
            assert v.re.lo - 1e-15 <= w <= v.re.hi + 1e-15
        assert max(abs(v.re.mid - w) for v, w in zip(vals, yT)) < 1e-9


@pytest.fixture(scope="module")
def unstable_mesh(setup):
    """The 6-arc, order-10 mesh of the N = 5 unstable manifold and its
    automatic rescalings (``conftest.pilot_tau``): at them, the tubes of
    arcs 1 and 4 fail and the others close."""
    m, pc = setup
    arcs = boundary_mesh(local_manifold(m, pc, "unstable", N=5), n_arcs=6,
                         arc_order=10)
    return arcs, pilot_tau(arcs, m, pc, 10)


def _message(chart):
    """A finish outcome, with a CollisionDomain as its message."""
    return str(chart) if isinstance(chart, CollisionDomain) else chart


def _reference(fill, k, delta_min=None, **kw):
    """``conftest.finish_one`` of arc k and, when ``delta_min`` is
    given, ``conftest.collision_loop`` of its chart: the chart, or the
    message of the CollisionDomain."""
    try:
        chart = finish_one(fill, k, **kw)
        if delta_min is not None:
            collision_loop(chart, fill.p, delta_min)
        return chart
    except CollisionDomain as err:
        return str(err)


class TestStackedFinish:
    """``ArcFill.finish`` of many arcs at once against the per-chart
    references of ``conftest``, which bound one chart at a time, with
    one radius, one box and one scalar time scale at a time: equal
    charts, tails, defects, taus and messages."""

    def test_rounds_equal_per_chart_references(self, setup, unstable_mesh):
        # the atlas's rounds: every arc, then the failed ones retimed
        # and finished together, against a twin fill retimed alike
        m, pc = setup
        arcs, taus = unstable_mesh
        fill, twin = (ArcFill(arcs, m, pc, (10, 18), taus) for _ in range(2))
        pending, rounds = list(range(6)), 0
        while pending:
            got = fill.finish(pending,
                              start_times=[0.5 * k for k in pending],
                              delta_min=0.05)
            for k, chart in zip(pending, got):
                want = _reference(twin, k, 0.05, start_time=0.5 * k)
                assert _same_outcome(_message(chart), want), (rounds, k)
            pending = [k for k, c in zip(pending, got)
                       if isinstance(c, CollisionDomain)]
            for k in pending:
                fill.retime(k)
                twin.retime(k)
            rounds += 1
        assert rounds == 2

    def test_guard_and_tube_fail_in_one_round(self, setup, unstable_mesh):
        m, pc = setup
        arcs, taus = unstable_mesh
        fill = ArcFill(arcs, m, pc, (10, 18), taus)
        got = [_message(c) for c in fill.finish(range(6), delta_min=0.66)]
        twin = ArcFill(arcs, m, pc, (10, 18), taus)
        for k, g in enumerate(got):
            assert _same_outcome(g, _reference(twin, k, 0.66)), k
        # a chart, a failed tube and a failed guard in the one round
        kinds = {type(g).__name__ if isinstance(g, FlowChart) else g[:10]
                 for g in got}
        assert kinds == {"FlowChart", "Gronwall t", "chart rang"}

    def test_tube_needs_more_than_one_batch(self, setup, unstable_mesh,
                                            monkeypatch):
        # arc 1's chart at tau 0.3 closes at the 11th radius: the
        # second batch of radii, with the tail of the loop over single
        # radii, and a tube that needs more than the 40 radii fails
        m, pc = setup
        arcs, taus = unstable_mesh
        G = fill_chart(ArcFill(arcs[1:2], m, pc, (10, 18), taus[1:2]), 0)
        S = Series2(G.coefs, scale=G.scale, tau=0.3, tail=G.tail)
        calls = []
        single = conftest.poly_DF
        monkeypatch.setattr(conftest, "poly_DF",
                            lambda *a: calls.append(a[2].shape) or single(*a))
        want = conftest.tube_loop(m, pc, S, G.tail, 1e-12)
        assert len(calls) == 11
        box = range_box(real_stack(S)).padded([S.tail])
        stacked = advect.poly_DF
        calls.clear()
        monkeypatch.setattr(advect, "poly_DF",
                            lambda *a: calls.append(a[2].shape) or stacked(*a))
        got, = advect.propagated_tail(m, pc, box, [0.3], [G.tail], [1e-12])
        assert got == want
        assert calls == [(8, DIM), (8, DIM)]
        with pytest.raises(CollisionDomain):
            conftest.tube_loop(m, pc, S, G.tail, 1e-12, radii=10)

    def test_recorded_tube_boxes_stack_bit_for_bit(self, setup,
                                                   unstable_mesh,
                                                   monkeypatch):
        # the fattened boxes of the reference tubes of every arc, at
        # tau and 2 tau, in one stacked poly_DF against one call each
        m, pc = setup
        arcs, taus = unstable_mesh
        fill = ArcFill(arcs, m, pc, (10, 18), taus)
        boxes = []
        single = conftest.poly_DF
        monkeypatch.setattr(conftest, "poly_DF",
                            lambda *a: boxes.append(a[2]) or single(*a))
        for _ in range(2):
            for k in range(6):
                _reference(fill, k)
                fill.retime(k)
        assert len(boxes) > 12
        stack = IntervalArray(np.concatenate([b.lo for b in boxes]),
                              np.concatenate([b.hi for b in boxes]))
        J = advect.poly_DF(m, pc, stack)
        for b, box in enumerate(boxes):
            one = single(m, pc, box)
            assert J.lo[b].tobytes() == one.lo[0].tobytes()
            assert J.hi[b].tobytes() == one.hi[0].tobytes()

    def test_rejects_negative_or_nan_tails(self, setup, unstable_mesh,
                                           monkeypatch):
        m, pc = setup
        arcs, taus = unstable_mesh
        G = fill_chart(ArcFill(arcs[:1], m, pc, (10, 6), taus[:1]), 0)
        box = range_box(real_stack(G)).padded([G.tail])
        monkeypatch.setattr(advect, "poly_DF", None)
        for tail, defect, name in ((-1.0, 1e-10, "source tail"),
                                   (math.nan, 1e-10, "source tail"),
                                   (1e-10, -0.5, "defect"),
                                   (1e-10, math.nan, "defect")):
            with pytest.raises(ValueError, match=name):
                advect.propagated_tail(m, pc, box, [G.tau], [tail],
                                       [defect])

    def test_unbounded_range_box_fails_the_tube(self, setup, unstable_mesh):
        # samples that overflow or are NaN make their component of the
        # box unbounded, a valid enclosure, and the tube then fails
        m, pc = setup
        arcs, taus = unstable_mesh
        G = fill_chart(ArcFill(arcs[:1], m, pc, (10, 6), taus[:1]), 0)
        bad = Series2(G.coefs.copy(), scale=G.scale, tau=G.tau,
                      tail=G.tail)
        bad.coefs.lo[0, 2, 3, 4] = -np.inf
        bad.coefs.hi[0, 5, 1, 1] = np.inf
        box = range_box(real_stack(G, bad)).padded([G.tail, G.tail])
        assert np.isfinite(box.lo).all(axis=1).tolist() == [True, False]
        assert box.lo[1, 2] == box.lo[1, 5] == -np.inf
        assert box.hi[1, 2] == box.hi[1, 5] == np.inf
        assert np.isfinite(box.lo[1, [0, 1, 3, 4, 6]]).all()
        good, fail = advect.propagated_tail(m, pc, box, [G.tau] * 2,
                                            [G.tail] * 2, [1e-12] * 2)
        assert isinstance(good, float)
        assert isinstance(fail, CollisionDomain)
        assert str(fail).startswith("Gronwall tube failed to close")

    def test_time_scales_and_reciprocals_against_fractions(self):
        # tau (n + 1) and 1 / (tau (n + 1)) for n < 50, over binades and
        # the rescalings of the workloads, signed: floors and ceils, but
        # for products outside the guard of _imul_arr, which may be one
        # ulp wider
        rng = np.random.default_rng(51)
        taus = [0.6440162388507692, 0.49886018063726606, 2.5, 1.0, 1e-30,
                1e-6, 3.2, 1e5, 0.1, 2.0 ** -1000, 1e300]
        taus += (10.0 ** rng.uniform(-300, 300, 30)).tolist()
        taus += [-t for t in taus[:6]]
        slo, shi = advect._time_scales(taus, 50)
        ilo, ihi = _irecip_arr(slo, shi)
        for k, tau in enumerate(taus):
            for n in range(50):
                x = Fraction(tau) * (n + 1)
                lo, hi = _floor_f(x), _ceil_f(x)
                if 1e-200 < abs(x) < 1e200 and abs(tau) < 1e150:
                    assert (lo, hi) == (slo[k, n], shi[k, n])
                else:
                    assert slo[k, n] in (lo, math.nextafter(lo, -math.inf))
                    assert shi[k, n] in (hi, math.nextafter(hi, math.inf))
                ends = (Fraction(float(shi[k, n])), Fraction(float(slo[k, n])))
                assert ilo[k, n] == _floor_f(1 / ends[0])
                assert ihi[k, n] == _ceil_f(1 / ends[1])


def _floor_f(q):
    """The largest float at most the rational q."""
    x = float(q)
    return x if Fraction(x) <= q else math.nextafter(x, -math.inf)


def _ceil_f(q):
    """The smallest float at least the rational q."""
    x = float(q)
    return x if Fraction(x) >= q else math.nextafter(x, math.inf)
