"""Tests for atlas growth, remeshing, and persistence."""

import filecmp
import functools
import json
from dataclasses import replace

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourbody import atlas as atlas_module
from fourbody import taylor
from fourbody.advect import ArcFill, choose_tau, flow_line
from fourbody.atlas import (
    Atlas,
    SCHEMA_VERSION,
    arc_decay,
    arc_length,
    subdivide_arc,
)
from fourbody.crfbp import MassTriple, primaries
from fourbody.errors import (CollisionDomain, SchemaVersionMismatch,
                             SubdivisionLimit, SymmetryViolation)
from fourbody.interval import CInterval, CIntervalArray, Interval
from fourbody.manifold import BoundaryArc, boundary_mesh, local_manifold
from fourbody.taylor import ScalarSeries2, Series2

from conftest import fresh_advect, piece_grow

Z0 = CInterval(Interval.from_value(0.0))


@pytest.fixture(scope="module")
def setup():
    m = MassTriple.from_floats(0.5, 0.3, 0.2)
    return m, primaries(m)


@pytest.fixture(scope="module")
def stable5(setup):
    m, pc = setup
    return local_manifold(m, pc, "stable", N=5)


@pytest.fixture(scope="module")
def grown(setup, stable5):
    m, _ = setup
    atlas = Atlas.from_manifold(stable5, m, n_arcs=6, arc_order=10)
    atlas.grow(1, orders=(10, 20), tau=1.0)
    return atlas


def _ramp_arc(M=6, coeff=0.3):
    """Arc whose u1 coefficients do not decay at all."""
    comps = []
    for i in range(7):
        g = ScalarSeries2.zeros(M, 0)
        if i == 0:
            g.rlo[:, 0] = coeff
            g.rhi[:, 0] = coeff
        else:
            g.rlo[0, 0] = 0.5
            g.rhi[0, 0] = 0.5
        comps.append(g)
    gamma = Series2(tuple(comps), scale=1.0, tau=1.0, tail=1e-12)
    return BoundaryArc(gamma=gamma, kind="stable", preimage=None)


class TestArcQuality:

    def test_mesh_arcs_are_healthy(self, grown):
        for rec in grown.arcs.values():
            if rec.generation == 0:
                assert arc_decay(rec.arc) < 1e-10
                assert arc_length(rec.arc) < 0.1

    def test_ramp_arc_fails_decay(self):
        assert arc_decay(_ramp_arc()) == pytest.approx(0.3 / 0.5)

    def test_length_of_straight_segment(self):
        # u1 = 0.1 s, u3 = 0: a segment of length 0.2
        comps = []
        for i in range(7):
            g = ScalarSeries2.zeros(1, 0)
            if i == 0:
                g.rlo[1, 0] = 0.1
                g.rhi[1, 0] = 0.1
            comps.append(g)
        gamma = Series2(tuple(comps), scale=1.0, tau=1.0, tail=0.0)
        arc = BoundaryArc(gamma=gamma, kind="stable", preimage=None)
        assert arc_length(arc) == pytest.approx(0.2, abs=1e-12)


class TestSubdivision:

    def test_halves_join_at_parent_midpoint(self, grown):
        arc = grown.arcs[0].arc
        left, right = subdivide_arc(arc)
        probes = [(-1.0, left, -1.0), (0.0, left, 1.0),
                  (0.0, right, -1.0), (1.0, right, 1.0)]
        for s, half, sh in probes:
            vp = arc.gamma.eval_box(CInterval(Interval.from_value(s)), Z0)
            vh = half.gamma.eval_box(CInterval(Interval.from_value(sh)), Z0)
            for i in range(7):
                assert max(vp[i].re.lo, vh[i].re.lo) <= \
                    min(vp[i].re.hi, vh[i].re.hi)

    @given(sigma=st.floats(-1.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_left_half_encloses_parent_values(self, grown, sigma):
        arc = grown.arcs[1].arc
        left, _ = subdivide_arc(arc)
        s = -0.5 + 0.5 * sigma
        vp = arc.gamma.eval_box(CInterval(Interval.from_value(s)), Z0)
        vh = left.gamma.eval_box(CInterval(Interval.from_value(sigma)), Z0)
        for i in range(7):
            assert max(vp[i].re.lo, vh[i].re.lo) <= \
                min(vp[i].re.hi, vh[i].re.hi) + 1e-15

    def test_mesh_halves_are_real_and_meet_parent(self, grown):
        arc = grown.arcs[3].arc
        for half, (s_lo, s_hi) in zip(subdivide_arc(arc),
                                      ((-1.0, 0.0), (0.0, 1.0))):
            for comp in half.gamma.components:
                assert not np.any(comp.ilo) and not np.any(comp.ihi)
            for sh, s in ((-1.0, s_lo), (1.0, s_hi)):
                vp = arc.gamma.eval_box(CInterval(Interval.from_value(s)),
                                        Z0)
                vh = half.gamma.eval_box(CInterval(Interval.from_value(sh)),
                                         Z0)
                for i in range(7):
                    assert max(vp[i].re.lo, vh[i].re.lo) <= \
                        min(vp[i].re.hi, vh[i].re.hi)

    def test_complex_arc_must_straddle_zero(self):
        arc = _ramp_arc()
        arc.gamma.components[2].ilo[1, 0] = 1e-3
        arc.gamma.components[2].ihi[1, 0] = 2e-3
        with pytest.raises(SymmetryViolation):
            subdivide_arc(arc)

    def test_preimage_chord_is_split(self, grown):
        arc = grown.arcs[2].arc
        assert arc.preimage is not None
        p0, p1 = arc.preimage
        left, right = subdivide_arc(arc)
        mid = 0.5 * (p0 + p1)
        assert left.preimage == (p0, mid)
        assert right.preimage == (mid, p1)

    def test_collapsed_arc_preimage_stays_none(self):
        left, right = subdivide_arc(_ramp_arc())
        assert left.preimage is None and right.preimage is None

    def test_tail_is_inherited(self, grown):
        arc = grown.arcs[0].arc
        left, right = subdivide_arc(arc)
        assert left.gamma.tail == arc.gamma.tail
        assert right.gamma.tail == arc.gamma.tail

    def test_halving_restores_decay(self):
        arc = _ramp_arc()
        pieces = subdivide_arc(arc)
        assert all(arc_decay(a) < arc_decay(arc) for a in pieces)


class TestGrow:

    def test_one_generation(self, grown):
        gen0 = [r for r in grown.arcs.values() if r.generation == 0]
        gen1 = [r for r in grown.arcs.values() if r.generation == 1]
        assert len(gen0) == 6 and len(gen1) == 6
        assert len(grown.charts) == 6
        assert grown.stopped == []
        assert sorted(grown.frontier) == [r.arc_id for r in gen1]

    def test_charts_flow_backward_one_unit(self, grown):
        for rec in grown.charts.values():
            assert rec.chart.tau == -1.0
            assert rec.chart.accumulated_time == -1.0

    def test_lineage_reaches_generation_zero(self, grown):
        rec = grown.charts[max(grown.charts)]
        for _ in range(10):
            arec = grown.arcs[rec.arc_id]
            if arec.parent_chart is None:
                assert arec.generation == 0
                return
            rec = grown.charts[arec.parent_chart]
        pytest.fail("lineage walk did not terminate")

    def test_frontier_arcs_inherit_chart_time(self, grown):
        for aid in grown.frontier:
            arec = grown.arcs[aid]
            parent = grown.charts[arec.parent_chart]
            assert arec.arc_time == parent.chart.accumulated_time
            assert arec.arc.preimage is None

    def test_second_generation_extends_time(self, setup, stable5):
        m, _ = setup
        atlas = Atlas.from_manifold(stable5, m, n_arcs=6, arc_order=10)
        atlas.grow(2, orders=(10, 18), tau=2.0)
        gen1 = [r for r in atlas.charts.values() if r.generation == 1]
        assert gen1
        for rec in gen1:
            assert rec.chart.accumulated_time == pytest.approx(-1.0)

    def test_unfit_arc_is_split_before_advection(self, setup, stable5):
        m, _ = setup
        atlas = Atlas.from_manifold(stable5, m, n_arcs=6, arc_order=10)
        keep = atlas.frontier[0]
        atlas.frontier = [keep]
        atlas.grow(1, orders=(10, 18), tau=1.0, max_len=1e-3)
        pieces = [r for r in atlas.arcs.values() if r.split_from is not None]
        assert len(pieces) >= 2
        for rec in pieces:
            assert rec.generation == 0
            assert rec.split_from in atlas.arcs
        advected = {r.arc_id for r in atlas.charts.values()}
        assert keep not in advected

    def test_subdivision_limit(self, setup, stable5):
        # a generation is refined before the atlas changes, so the raise
        # leaves every arc, the frontier and the id counters as they were,
        # and the frontier still grows afterwards
        m, _ = setup
        for depth in (2, 4):
            atlas = Atlas.from_manifold(stable5, m, n_arcs=6, arc_order=10)
            before = (dict(atlas.arcs), list(atlas.frontier),
                      list(atlas.stopped), atlas._next_arc,
                      atlas._next_chart)
            with pytest.raises(SubdivisionLimit):
                atlas.grow(1, orders=(10, 18), tau=1.0, max_len=0.0,
                           max_depth=depth)
            assert (atlas.arcs, atlas.frontier, atlas.stopped,
                    atlas._next_arc, atlas._next_chart) == before
            assert atlas.charts == {} and atlas.stop_reasons == {}
        assert len(atlas.grow(1, orders=(10, 18), tau=1.0)) == 6

    def test_negative_retries_raise_before_any_fill(self, setup, stable5,
                                                    monkeypatch):
        m, _ = setup
        atlas = Atlas.from_manifold(stable5, m, n_arcs=6, arc_order=10)

        def no_fill(*args, **kwargs):
            raise AssertionError("filled")

        monkeypatch.setattr(atlas_module, "ArcFill", no_fill)
        monkeypatch.setattr(atlas_module, "choose_tau", no_fill)
        for tau in (None, 1.0):
            with pytest.raises(ValueError, match="tau_retries"):
                atlas.grow(1, orders=(10, 18), tau=tau, tau_retries=-1)
        assert atlas.frontier == list(range(6))
        assert atlas.stopped == [] and atlas.stop_reasons == {}

    def test_collision_guard_retires_arcs(self, setup, stable5):
        m, _ = setup
        atlas = Atlas.from_manifold(stable5, m, n_arcs=6, arc_order=10)
        atlas.grow(1, orders=(10, 18), tau=1.0, delta_min=2.0,
                   tau_retries=1)
        assert atlas.charts == {}
        assert atlas.frontier == []
        assert sorted(atlas.stopped) == list(range(6))
        assert sorted(atlas.stop_reasons) == list(range(6))
        for reason in atlas.stop_reasons.values():
            assert reason.message
            assert reason.tau_attempts == 2

    def test_rejects_bad_kind(self, setup):
        m, _ = setup
        with pytest.raises(ValueError, match="kind"):
            Atlas("sideways", m)


@pytest.fixture(scope="module")
def unstable5(setup):
    m, pc = setup
    return local_manifold(m, pc, "unstable", N=5)


class TestRetimedRetries:
    """``Atlas.grow`` fills every arc piece of a generation in one
    stacked fill and retimes a piece's rows for every retry; the atlas
    it grows equals, byte for byte, the one grown piece by piece with a
    fill of each piece alone (``conftest.piece_grow``), and the one
    grown by one fresh ``flow_line`` per tau attempt
    (``conftest.fresh_advect``) up to the signs of exact zeros."""

    @staticmethod
    def _grow_all(monkeypatch, manifold, m, **kw):
        """The atlases grown by ``Atlas.grow``, by ``piece_grow`` and by
        ``piece_grow`` with fresh flow lines, and the retimes of the
        first."""
        retimes = []
        retime = ArcFill.retime

        def counted(self, k):
            retimes.append(k)
            retime(self, k)

        atlases, counts = [], []
        for grow in (Atlas.grow, piece_grow,
                     functools.partial(piece_grow, advect=fresh_advect)):
            with monkeypatch.context() as mp:
                mp.setattr(ArcFill, "retime", counted)
                atlas = Atlas.from_manifold(manifold, m, n_arcs=6,
                                            arc_order=10)
                grow(atlas, **kw)
            atlases.append(atlas)
            counts.append(len(retimes))
        return atlases, counts[0]

    @staticmethod
    def _assert_same_bytes(got, want, tmp_path):
        got.save(tmp_path / "got.json")
        want.save(tmp_path / "want.json")
        assert filecmp.cmp(tmp_path / "got.json", tmp_path / "want.json",
                           shallow=False)
        assert got.stop_reasons == want.stop_reasons

    def test_unstable_growth_with_retries(self, setup, unstable5,
                                          monkeypatch, tmp_path):
        # the benchmark's growth: automatic tau, two generations
        m, _ = setup
        (got, piece, fresh), retimes = self._grow_all(
            monkeypatch, unstable5, m, generations=2, orders=(10, 18))
        assert retimes > 0 and len(got.charts) > 6
        self._assert_same_bytes(got, piece, tmp_path)
        self._assert_same_bytes(got, fresh, tmp_path)

    def test_all_stopped(self, setup, stable5, monkeypatch, tmp_path):
        m, _ = setup
        (got, piece, fresh), retimes = self._grow_all(
            monkeypatch, stable5, m, generations=1, orders=(10, 18),
            tau=1.0, delta_min=2.0, tau_retries=1)
        assert retimes == 6 and got.charts == {}
        assert sorted(got.stopped) == list(range(6))
        self._assert_same_bytes(got, piece, tmp_path)
        self._assert_same_bytes(got, fresh, tmp_path)

    def test_stable_charts_differ_at_most_in_zero_signs(self, setup,
                                                        stable5,
                                                        monkeypatch,
                                                        tmp_path):
        # two doublings from tau = 0.25: against fresh flow lines the
        # exact zeros of the imaginary grids may differ in sign, nothing
        # else may
        m, _ = setup
        (got, piece, want), retimes = self._grow_all(
            monkeypatch, stable5, m, generations=1, orders=(10, 18),
            tau=0.25)
        assert retimes > 0 and len(got.charts) == 6
        self._assert_same_bytes(got, piece, tmp_path)
        assert got.stopped == want.stopped == []
        for g, w in zip(got.charts.values(), want.charts.values()):
            G, W = g.chart.Gamma, w.chart.Gamma
            for x, y in ((G.coefs.lo, W.coefs.lo), (G.coefs.hi, W.coefs.hi)):
                assert x[0].tobytes() == y[0].tobytes()
                assert np.array_equal(x[1], y[1]) and not x[1].any()
            assert (g.chart.tail, g.chart.defect, g.chart.tau,
                    g.chart.accumulated_time) == (
                w.chart.tail, w.chart.defect, w.chart.tau,
                w.chart.accumulated_time)
        for aid in got.frontier:
            a, b = got.arcs[aid].arc.gamma, want.arcs[aid].arc.gamma
            assert a.coefs.lo[0].tobytes() == b.coefs.lo[0].tobytes()
            assert a.coefs.hi[0].tobytes() == b.coefs.hi[0].tobytes()
            assert a.tail == b.tail

    def test_split_ids_interleave_with_collapsed_arcs(self, setup,
                                                      unstable5, monkeypatch,
                                                      tmp_path):
        # the arcs of length 0.007 are cut twice and those of 0.0063
        # once, so split halves, quarters and collapsed arcs take their
        # ids in the order of advecting one piece at a time
        m, _ = setup
        (got, piece, _), _ = self._grow_all(
            monkeypatch, unstable5, m, generations=1, orders=(10, 18),
            max_len=0.0034)
        self._assert_same_bytes(got, piece, tmp_path)
        splits = [r for r in got.arcs.values() if r.split_from is not None]
        assert {r.split_from for r in splits} > set(range(6))
        # the first arc's halves and quarters, then its collapsed arcs
        assert [got.arcs[i].split_from for i in range(6, 12)] == \
            [0, 6, 6, 0, 9, 9]
        assert [got.arcs[i].parent_chart for i in range(12, 16)] == \
            [0, 1, 2, 3]
        assert got.arcs[16].split_from == 1


    @pytest.mark.parametrize("masses", [
        (0.4996601795201282, 0.30022397151364016, 0.20011584896623164),
        (0.5001822588566572, 0.3001044339368187, 0.19971330720652408),
        (0.49988168849622433, 0.30011282470539313, 0.20000548679838254)])
    def test_benchmark_seeds_equal_piece_grow(self, masses, monkeypatch,
                                              tmp_path):
        # the masses of the benchmark's seeds 1-3: one generation with
        # its retries, by rounds and by the per-piece reference
        m = MassTriple.from_floats(*masses)
        manifold = local_manifold(m, primaries(m), "unstable", N=5)
        retimes = []
        retime = ArcFill.retime
        monkeypatch.setattr(ArcFill, "retime",
                            lambda self, k: retimes.append(k)
                            or retime(self, k))
        got, want = (Atlas.from_manifold(manifold, m, n_arcs=6,
                                         arc_order=10) for _ in range(2))
        got.grow(1, orders=(10, 18))
        assert retimes
        piece_grow(want, 1, orders=(10, 18))
        self._assert_same_bytes(got, want, tmp_path)

    def test_overflowing_fill_retires_its_arcs(self, setup, unstable5):
        # at tau = 1e-30 the coefficients overflow: the defects are
        # +inf, the range boxes unbounded, and every tube fails, so
        # each arc is retried and retired with its reason
        m, _ = setup
        atlas = Atlas.from_manifold(unstable5, m, n_arcs=6, arc_order=10)
        assert atlas.grow(1, orders=(10, 18), tau=1e-30) == []
        assert atlas.charts == {} and atlas.frontier == []
        assert atlas.stopped == list(range(6))
        assert sorted(atlas.stop_reasons) == list(range(6))
        for reason in atlas.stop_reasons.values():
            assert reason.message.startswith("Gronwall tube failed")
            assert reason.tau_attempts == 4

    def test_failed_round_leaves_the_atlas(self, setup, unstable5,
                                           monkeypatch):
        # an exception while a generation is finished leaves the atlas
        # as that generation found it
        m, _ = setup
        atlas = Atlas.from_manifold(unstable5, m, n_arcs=6, arc_order=10)
        before = (dict(atlas.arcs), list(atlas.frontier), atlas._next_arc,
                  atlas._next_chart)

        def broken(*args, **kwargs):
            raise RuntimeError("finish failed")

        monkeypatch.setattr(ArcFill, "finish", broken)
        with pytest.raises(RuntimeError):
            atlas.grow(1, orders=(10, 18), tau=1.0, max_len=0.004)
        assert (atlas.arcs, atlas.frontier, atlas._next_arc,
                atlas._next_chart) == before
        assert atlas.charts == {} and atlas.stopped == []


class TestOverflowingPilot:
    """An arc whose pilot columns overflow: ``choose_tau`` skips the
    ratios that are not finite (inf / inf) and keeps tau = 1, so its
    fill fails its tube instead of raising ValueError for a nan tau."""

    @pytest.fixture(scope="class")
    def mesh(self, setup, stable5):
        # the flowline-hi mesh at seed 0, with arc 5 scaled by 1e60
        arcs = boundary_mesh(stable5, n_arcs=20)
        c = arcs[5].gamma.coefs
        big = replace(arcs[5], gamma=replace(
            arcs[5].gamma,
            components=CIntervalArray._wrap(c.lo * 1e60, c.hi * 1e60)))
        return arcs, big

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_tau_is_one_and_the_chart_is_refused(self, setup, mesh):
        m, pc = setup
        arcs, big = mesh
        assert choose_tau([big, arcs[3]], m, pc, 10)[0] == 1.0
        with pytest.raises(CollisionDomain):
            flow_line(big, m, pc, orders=(10, 18))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_grow_retires_the_arc_and_keeps_the_other(self, setup, mesh,
                                                      monkeypatch):
        # once the big copy's columns overflow, its infinite entries
        # send the stacked fill's product columns to four candidates,
        # and arc 3's chart keeps the bits of arc 3 grown alone, whose
        # columns all take two
        m, _ = setup
        arcs, big = mesh
        kw = dict(orders=(10, 18), max_len=1e300, decay_tol=1e300)
        both, alone = Atlas("stable", m), Atlas("stable", m)
        for arc in (big, arcs[3]):
            both._add_arc(arc, generation=0, arc_time=0.0)
        alone._add_arc(arcs[3], generation=0, arc_time=0.0)
        formers = []
        rows = taylor._column_rows
        monkeypatch.setattr(taylor, "_column_rows", lambda x, y, b, d: (
            formers.append(d) or rows(x, y, b, d)))
        assert both.grow(1, **kw) == [0]
        assert not all(formers)
        formers.clear()
        assert alone.grow(1, **kw) == [0]
        assert formers and all(formers)
        assert both.stopped == [0]
        assert both.stop_reasons[0].message.startswith("Gronwall tube failed")
        got, want = both.charts[0], alone.charts[0]
        assert got.arc_id == 1
        g, w = got.chart, want.chart
        for x, y in ((g.Gamma.coefs.lo, w.Gamma.coefs.lo),
                     (g.Gamma.coefs.hi, w.Gamma.coefs.hi)):
            assert x.tobytes() == y.tobytes()
        assert (g.tail, g.defect, g.tau) == (w.tail, w.defect, w.tau)


class TestPersistence:

    def test_round_trip_is_bit_exact(self, grown, tmp_path):
        path = tmp_path / "atlas.json"
        grown.save(path)
        back = Atlas.load(path)
        assert back.kind == grown.kind
        assert back.frontier == grown.frontier
        assert back.stopped == grown.stopped
        assert back.m.as_floats() == grown.m.as_floats()
        assert set(back.arcs) == set(grown.arcs)
        assert set(back.charts) == set(grown.charts)
        for aid, a in grown.arcs.items():
            b = back.arcs[aid]
            assert (a.generation, a.arc_time, a.parent_chart, a.split_from) \
                == (b.generation, b.arc_time, b.parent_chart, b.split_from)
            assert a.arc.preimage == b.arc.preimage
            assert a.arc.gamma.tail == b.arc.gamma.tail
            for ca, cb in zip(a.arc.gamma.components,
                              b.arc.gamma.components):
                for f in ("rlo", "rhi", "ilo", "ihi"):
                    assert np.array_equal(getattr(ca, f), getattr(cb, f))
        for cid, a in grown.charts.items():
            b = back.charts[cid]
            ga, gb = a.chart, b.chart
            assert (ga.tau, ga.tail, ga.defect, ga.accumulated_time,
                    ga.source_arc) == \
                   (gb.tau, gb.tail, gb.defect, gb.accumulated_time,
                    gb.source_arc)
            for ca, cb in zip(ga.Gamma.components, gb.Gamma.components):
                for f in ("rlo", "rhi", "ilo", "ihi"):
                    assert np.array_equal(getattr(ca, f), getattr(cb, f))

    def test_resave_is_byte_identical(self, grown, tmp_path):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        grown.save(p1)
        Atlas.load(p1).save(p2)
        assert filecmp.cmp(p1, p2, shallow=False)

    def test_save_writes_the_bytes_of_orjson_dumps(self, grown, tmp_path):
        # the file is what orjson.dumps, with save's options, writes for
        # the document it parses to, and the stdlib json module reads
        # the same document from it
        path = tmp_path / "atlas.json"
        grown.save(path)
        data = path.read_bytes()
        doc = orjson.loads(data)
        assert orjson.dumps(doc, option=atlas_module.ORJSON_OPTIONS) == data
        assert json.loads(data.decode()) == doc

    def test_planted_floats_round_trip_bit_for_bit(self, grown, tmp_path,
                                                   monkeypatch):
        # extremes of every float range and over 10,000 random finite bit
        # patterns, as both endpoints of an arc's grid
        tiny = 2.2250738585072014e-308
        special = [0.0, -0.0, 5e-324, -5e-324, tiny, np.nextafter(tiny, 0.0),
                   1.7976931348623157e308, -1.7976931348623157e308]
        bits = np.random.default_rng(0).integers(
            0, 2**64, size=10_500, dtype=np.uint64, endpoint=False)
        floats = bits.view(np.float64)
        values = np.concatenate([special, floats[np.isfinite(floats)]])
        assert values.size >= 10_000 + len(special)
        grid = np.resize(values, (2, 7, 30, 50))
        rec = grown.arcs[0]
        planted = replace(rec.arc.gamma,
                          components=CIntervalArray(grid, grid))
        monkeypatch.setitem(grown.arcs, 0,
                            replace(rec, arc=replace(rec.arc, gamma=planted)))
        path = tmp_path / "atlas.json"
        grown.save(path)
        back = Atlas.load(path).arcs[0].arc.gamma.coefs
        assert back.lo.tobytes() == back.hi.tobytes() == grid.tobytes()

    def test_refused_save_leaves_the_file(self, grown, tmp_path,
                                          monkeypatch):
        # opening for writing truncates, so save encodes first: a save
        # that raises leaves the previous file byte for byte
        path = tmp_path / "atlas.json"
        grown.save(path)
        before = path.read_bytes()
        for meta, error in (({"bad": object()}, TypeError),
                            ({"bad": float("inf")}, ValueError)):
            monkeypatch.setattr(grown, "meta", meta)
            with pytest.raises(error):
                grown.save(path)
            assert path.read_bytes() == before

    @pytest.mark.parametrize("plant, field", [
        ("chart-grid", r"chart 2 series upper grid"),
        ("arc-tail", r"arc 3 series\.tail"),
        ("meta", r"meta\.run\.bound\[1\]"),
    ])
    def test_save_refuses_non_finite_floats(self, grown, tmp_path,
                                            monkeypatch, plant, field):
        # orjson writes nan and infinities as null, which would load as
        # None: save names the field instead, before it opens the file
        if plant == "chart-grid":
            rec = grown.charts[2]
            G = rec.chart.Gamma
            hi = G.coefs.hi.copy()
            hi[0, 4, 1, 2] = np.inf
            bad = replace(G, components=CIntervalArray(G.coefs.lo, hi))
            monkeypatch.setitem(grown.charts, 2,
                                replace(rec, chart=replace(rec.chart,
                                                           Gamma=bad)))
        elif plant == "arc-tail":
            rec = grown.arcs[3]
            g = rec.arc.gamma
            bad = replace(g, components=g.coefs, tail=np.inf)
            monkeypatch.setitem(grown.arcs, 3,
                                replace(rec, arc=replace(rec.arc, gamma=bad)))
        else:
            monkeypatch.setattr(grown, "meta",
                                {"run": {"bound": [1.0, -np.inf]}})
        path = tmp_path / "atlas.json"
        with pytest.raises(ValueError, match=field):
            grown.save(path)
        assert not path.exists()

    def test_infinity_literal_does_not_load(self, grown, tmp_path):
        # the stdlib json module wrote an infinite tail as Infinity,
        # which is not JSON: load raises ValueError
        path = tmp_path / "atlas.json"
        grown.save(path)
        doc = json.loads(path.read_text())
        doc["arcs"][0]["series"]["tail"] = float("inf")
        path.write_text(json.dumps(doc))
        assert "Infinity" in path.read_text()
        with pytest.raises(ValueError):
            Atlas.load(path)

    def test_schema_version_guard(self, grown, tmp_path):
        path = tmp_path / "atlas.json"
        grown.save(path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        doc["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaVersionMismatch):
            Atlas.load(path)

    def test_files_with_the_symmetry_flag_load(self, grown, tmp_path):
        # files that carry the unread "real_symmetric" series key, as
        # earlier versions wrote them, load to the same series; saves
        # no longer write it
        path = tmp_path / "atlas.json"
        grown.save(path)
        doc = json.loads(path.read_text())
        series = ([a["series"] for a in doc["arcs"]]
                  + [c["series"] for c in doc["charts"]])
        assert series and not any("real_symmetric" in s for s in series)
        for s in series:
            s["real_symmetric"] = False
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        back = tmp_path / "back.json"
        Atlas.load(old).save(back)
        assert filecmp.cmp(path, back, shallow=False)

    def test_charts_load_with_and_without_the_tail_policy(self, grown,
                                                          tmp_path):
        # every chart tail is a certified bound, so saves write no tail
        # policy; files of earlier versions carry "tail_policy":
        # "defect" on every chart and load to the same atlas
        path = tmp_path / "atlas.json"
        grown.save(path)
        doc = json.loads(path.read_text())
        assert doc["charts"]
        assert not any("tail_policy" in c for c in doc["charts"])
        for c in doc["charts"]:
            c["tail_policy"] = "defect"
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        for src in (path, old):
            back = tmp_path / "back.json"
            Atlas.load(src).save(back)
            assert filecmp.cmp(path, back, shallow=False)

    @pytest.mark.parametrize("corrupt, match", [
        (lambda doc: doc["frontier"].append(999), r"missing arcs \[999\]"),
        (lambda doc: doc["stopped"].append(999), r"missing arcs \[999\]"),
        (lambda doc: doc["charts"][0].update(arc_id=999),
         r"missing arcs \[999\]"),
        (lambda doc: doc.update(next_arc_id=0), "next ids"),
        (lambda doc: doc.update(next_chart_id=len(doc["charts"]) - 1),
         "next ids"),
        (lambda doc: doc["arcs"].append(dict(doc["arcs"][1], arc_id=0)),
         r"repeats arc ids \[0\]"),
        (lambda doc: doc["charts"].append(dict(doc["charts"][1],
                                               chart_id=0)),
         r"repeats chart ids \[0\]"),
        (lambda doc: doc["frontier"].append(doc["frontier"][0]),
         "more than once"),
        (lambda doc: doc["stopped"].append(doc["frontier"][0]),
         "more than once"),
        (lambda doc: doc["frontier"].append(doc["charts"][0]["arc_id"]),
         "more than once"),
        (lambda doc: doc["stopped"].extend([doc["frontier"].pop()] * 2),
         "more than once"),
        (lambda doc: doc["charts"][1].update(
            arc_id=doc["charts"][0]["arc_id"]), "more than once"),
    ], ids=["frontier", "stopped", "chart-arc", "next-arc", "next-chart",
            "repeated-arc", "repeated-chart", "frontier-twice",
            "frontier-stopped", "frontier-charted", "stopped-twice",
            "chart-arc-twice"])
    def test_load_rejects_ids_that_grow_cannot_use(self, grown, tmp_path,
                                                   corrupt, match):
        # a frontier id naming no arc made grow raise KeyError, and a
        # next arc id of 0 made it overwrite the generation-0 records:
        # load refuses both, and every other id that names no record or
        # that a counter would hand out again
        path = tmp_path / "atlas.json"
        grown.save(path)
        doc = json.loads(path.read_text())
        assert doc["charts"] and 999 not in {a["arc_id"] for a in doc["arcs"]}
        Atlas.load(path)
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            Atlas.load(path)

    def test_grown_atlases_load(self, setup, unstable5, tmp_path):
        # two generations with splits and retirements keep their
        # frontier, stopped and chart arc ids apart, and load back
        m, _ = setup
        atlas = Atlas.from_manifold(unstable5, m, n_arcs=6, arc_order=10)
        atlas.grow(2, orders=(10, 18), max_len=0.0034, tau_retries=0)
        splits = [r for r in atlas.arcs.values() if r.split_from is not None]
        assert splits and atlas.stopped and len(atlas.charts) > 6
        assert {r.generation for r in atlas.charts.values()} == {0, 1}
        path = tmp_path / "atlas.json"
        atlas.save(path)
        back = Atlas.load(path)
        assert (back.frontier, back.stopped) == (atlas.frontier, atlas.stopped)
        back.save(tmp_path / "back.json")
        assert filecmp.cmp(path, tmp_path / "back.json", shallow=False)

    def test_meta_survives(self, setup, stable5, tmp_path):
        m, _ = setup
        atlas = Atlas.from_manifold(stable5, m, n_arcs=6, arc_order=10,
                                    meta={"profile": "desk", "seed": 7})
        path = tmp_path / "atlas.json"
        atlas.save(path)
        assert Atlas.load(path).meta == {"profile": "desk", "seed": 7}

    def test_meta_loads_as_the_stdlib_json_module_wrote_it(
            self, grown, tmp_path, monkeypatch):
        # int keys come back as strings, and a numpy float (a float
        # subclass, which json.dumps accepted) as a float
        meta = {1: "a", "b": {2: [3, np.float64(4.5)]}}
        monkeypatch.setattr(grown, "meta", meta)
        path = tmp_path / "atlas.json"
        grown.save(path)
        assert Atlas.load(path).meta == json.loads(json.dumps(meta)) \
            == {"1": "a", "b": {"2": [3, 4.5]}}

    def test_load_restores_growability(self, grown, tmp_path):
        path = tmp_path / "atlas.json"
        grown.save(path)
        back = Atlas.load(path)
        ids = back.grow(1, orders=(10, 18), tau=2.0)
        assert ids
        for cid in ids:
            rec = back.charts[cid]
            assert rec.generation == 1
            assert rec.chart.accumulated_time == pytest.approx(-1.5)
