"""Tests for the polynomial lift: embedding, field, interpreters, Jacobian."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from fourbody import polyfield
from fourbody.crfbp import (
    MassTriple,
    PrimaryConfig,
    State4,
    eigen_data,
    field_point,
    newton_equilibrium,
    primaries,
)
from fourbody.errors import CollisionDomain
from fourbody.interval import (CInterval, CIntervalArray, Interval,
                               IntervalArray, _nonneg_upper, _parts)
from fourbody.manifold import _land
from fourbody.polyfield import (
    DIM,
    FieldNodes,
    FieldProgram,
    Lin,
    Mul,
    _conv_tail,
    _levels,
    State7,
    embed_R,
    evaluate,
    field_defect,
    field_program,
    lift_eigvector,
    node_jets,
    poly_DF,
    poly_F_point,
)
from fourbody.taylor import (ScalarSeries2, Series2, _fit, antidiagonal,
                             product_antidiagonal, product_column,
                             product_columns)

from conftest import (degree_nodes, field_f, from_complex_points,
                      node_jacobian, project_pi, real_stack, stack_boxes,
                      beyond_grid_loop,
                      unfolded_program)

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


def _F(m, p, u):
    """The lifted field at u, the scalar interpreter's outputs."""
    prog = field_program(m, p)
    vals = evaluate(prog, u.u)
    return IntervalArray.of([vals[o] for o in prog.outputs])


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
        perp = u0.u[4:]
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
        assert not State7(u0.u).on_s


class TestPolyField:
    def test_lift_identity(self, config, triple):
        for s in _random_safe_states(config, 100):
            fv = field_f(config, triple, s)
            Fv = _F(triple, config, embed_R(config, s))
            for k in range(4):
                assert Fv[k].overlaps(fv[k]), k

    def test_infinitesimal_conjugacy(self, config, triple):
        # DR(x) f(x) agrees with F(R(x)); build DR from the closed-form
        # gradient of the reciprocal distances
        for s in _random_safe_states(config, 20, seed=11):
            u = embed_R(config, s)
            fv = field_f(config, triple, s)
            Fv = _F(triple, config, u)
            for j in range(3):
                px, py = config.positions[j]
                w3 = u.u[4 + j].pow_int(3)
                lifted = -((s.x - px) * w3 * fv[0] + (s.y - py) * w3 * fv[2])
                assert Fv[4 + j].overlaps(lifted), j

    def test_equilibrium_is_zero(self, triple, config, u0):
        Fv = _F(triple, config, u0)
        # the lift of the Newton point is an approximate zero only; check
        # over a tiny box around it
        r = 1e-12
        padded = State7(tuple(Interval(c.lo - r, c.hi + r) for c in u0.u))
        Fv = _F(triple, config, padded)
        assert all(c.straddles_zero() for c in Fv)

    def test_point_path_matches(self, config, triple):
        pos = config.position_array()
        masses = np.array(triple.as_floats())
        for s in _random_safe_states(config, 10, seed=5):
            u = embed_R(config, s)
            up = np.array([c.mid for c in u.u])
            Fp = poly_F_point(pos, masses, up)
            Fv = _F(triple, config, u)
            for k in range(7):
                assert abs(Fp[k] - Fv[k].mid) < 1e-12


class TestFieldProgram:
    def test_series_interpreters_agree(self, config, triple,
                                       full_product_nodes, assert_overlap):
        # the degree fill (hat values plus the node Jacobian's landing)
        # and the column fill enclose the same coefficients as exact
        # full products at every program node
        K = 5
        rng = np.random.default_rng(7)
        comps = [from_complex_points(
            rng.normal(size=(K + 1, K + 1))
            + 1j * rng.normal(size=(K + 1, K + 1))) for _ in range(DIM)]
        prog = field_program(triple, config)
        full = full_product_nodes(prog, comps, (K, K))
        cols = FieldNodes(prog, Series2(tuple(comps)).coefs[None], K, K)
        for n in range(K + 1):
            cols.b_column(n)
        coef, J = degree_nodes(prog, K, [c.at(0, 0) for c in comps])
        for d in range(1, 2 * K + 1):
            slots = antidiagonal(K, K, d)
            coef.degree(d)
            _land(coef.G[0], J, d, [c[slots] for c in comps])
        col_grids = Series2(cols.G[0]).components
        coef_grids = Series2(coef.G[0]).components
        assert len(full) == len(coef_grids) == len(col_grids)
        for k, (a, b, c) in enumerate(zip(full, col_grids, coef_grids)):
            assert_overlap(a, b, c)

    def test_column_interpreter_fills_columns_in_order(self, config,
                                                       triple):
        # a skipped column would read operand columns that are still
        # zero, so only the next unfilled column may be asked for
        comps = [from_complex_points(np.ones((3, 3)))
                 for _ in range(DIM)]
        cols = FieldNodes(field_program(triple, config),
                          Series2(tuple(comps)).coefs[None], 2, 2)
        with pytest.raises(ValueError):
            cols.b_column(1)
        cols.b_column(0)
        assert cols.filled == 1
        with pytest.raises(ValueError):
            cols.b_column(0)
        # field_defect finishes an interpreter only on its own grid
        with pytest.raises(ValueError):
            field_defect(FieldNodes(field_program(triple, config),
                                    CIntervalArray.zeros((1, DIM, 1, 1)),
                                    3, 2),
                         CIntervalArray.zeros((1, DIM, 3, 3)))

    def test_defect_rounds_its_sum_up(self, config, triple, monkeypatch):
        # a planted pair of component bounds whose float sum rounds to
        # nearest below the exact sum: 1 + 2^-54 rounds to 1, and the
        # defect must round up to the next float
        small = 2.0 ** -54
        assert 1.0 + small == 1.0
        cols = FieldNodes(field_program(triple, config),
                          CIntervalArray.zeros((1, DIM, 3, 3)), 2, 2)
        inner = np.full((1, DIM), 0.5)
        inner[0, 3] = 1.0
        lost = np.zeros((1, DIM))
        lost[0, 3] = small
        monkeypatch.setattr(polyfield, "mag_sum_bound", lambda res: inner)
        monkeypatch.setattr(FieldNodes, "beyond_grid_bounds",
                            lambda self, copies: lost)
        got = field_defect(cols, CIntervalArray.zeros((1, DIM, 3, 3)))
        assert got.shape == (1,)
        assert Fraction(float(got[0])) >= 1 + Fraction(small)
        assert got[0] == math.nextafter(1.0, 2.0)

    @pytest.mark.parametrize("parts", ["complex", "real", "real-then-complex"])
    def test_inputs_written_ahead(self, config, triple, parts):
        # one interpreter given every input column before column 0 is
        # filled, as param_equilibrium and field_series give them, and
        # one given column 0 and then written column by column, as
        # taylor_flow writes them: bit-equal node grids, since the
        # store's parts come from the inputs' type and no column reads
        # the columns past it; complex inputs whose early columns are
        # real keep a complex store either way
        rng = np.random.default_rng(9)
        M, N = 4, 5
        S = _random_inputs(rng, M, N, parts == "real")
        if parts == "real-then-complex":
            S.coefs.lo[1][:, :, :2] = S.coefs.hi[1][:, :, :2] = 0.0
        inputs = _inputs(S, parts == "real")
        prog = field_program(triple, config)
        ahead = FieldNodes(prog, inputs, M, N)
        by_column = FieldNodes(prog, inputs[..., :1], M, N)
        for n in range(N + 1):
            for x, y in zip(_parts(by_column.G), _parts(inputs)):
                x[:, :, :DIM, :, n] = y[..., n]
            ahead.b_column(n)
            by_column.b_column(n)
        assert isinstance(ahead.G, type(inputs))
        assert _same(ahead.G, by_column.G)

    def test_column_interpreter_raises_node_orders(
            self, config, triple, full_product_nodes, assert_overlap):
        # order-(3, 2) inputs grown with zeros to a (9, 8) grid: every
        # node, kept on the whole grid, overlaps the exact full products
        rng = np.random.default_rng(8)
        comps = [from_complex_points(
            rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))
            for _ in range(DIM)]
        prog = field_program(triple, config)
        full = full_product_nodes(prog, comps, (9, 8))
        cols = FieldNodes(prog, Series2(tuple(comps)).coefs[None], 9, 8)
        for n in range(9):
            cols.b_column(n)
        for a, b in zip(full[DIM:], Series2(cols.G[0]).components[DIM:]):
            assert_overlap(a, b)


def _node_by_node_column(nodes, S, n, k=0):
    """Column n of every node of copy k of a fresh complex
    ``FieldNodes``' grids, one node at a time in program order, each
    product by ``product_column``, which forms real products alone for
    exactly real factors, and each Lin node term by term through
    CIntervalArray arithmetic: the reference for the stacked level
    passes, of real stores on the real parts of exactly real inputs
    too."""
    g = Series2(nodes.G[k]).components
    nodes.G[k, :DIM, :, n] = S.coefs[:, :, n]
    for op, dst in zip(nodes.prog.ops, g[DIM:]):
        if isinstance(op, Mul):
            col = product_column(g[op.a], g[op.b], n, nodes.M)
        else:
            col = None
            for c, k in op.terms:
                term = g[k][:, n] * c
                col = term if col is None else col + term
        dst[:, n] = col
        if n == 0 and isinstance(op, Lin):
            dst[0, 0] = dst.at(0, 0) + CInterval(op.const)


def _node_by_node_degree(nodes, d, m_min):
    """``FieldNodes.degree`` one node at a time, as above."""
    slots = antidiagonal(nodes.M, nodes.N, d, m_min)
    g = Series2(nodes.G[0]).components
    vals = [x[slots] for x in g[:DIM]]
    for i, op in enumerate(nodes.prog.ops, DIM):
        if isinstance(op, Mul):
            v = product_antidiagonal(g[op.a], g[op.b], d, m_min)
        else:
            v = None
            for c, k in op.terms:
                v = vals[k] * c if v is None else vals[k] * c + v
        g[i][slots] = v
        vals.append(v)


def _inputs(S, real):
    """The series S as the one-copy inputs of a ``FieldNodes``: its
    real parts, for a real store, when ``real``, else S itself."""
    return real_stack(S) if real else S.coefs[None]


def _stacked_inputs(series, real):
    """The inputs of a ``FieldNodes`` with one copy per series:
    ``_inputs``' of each, stacked."""
    parts = [_inputs(S, real) for S in series]
    return type(parts[0])(np.concatenate([x.lo for x in parts], axis=-4),
                          np.concatenate([x.hi for x in parts], axis=-4))


def _complex_zeros(K=1):
    """Zero inputs of K copies for a complex store, whose grids a test
    writes itself."""
    return CIntervalArray.zeros((K, DIM, 1, 1))


def _equal_parts(got, want):
    """The grids of the store ``got`` equal the parts of the complex
    grids ``want`` that ``got`` holds, up to the sign of a zero; a real
    store's, the real halves of ``want``, whose imaginary halves are
    then exact zeros."""
    glo, ghi = _parts(got)
    if len(glo) == 1 and (want.lo[1].any() or want.hi[1].any()):
        return False
    return (np.array_equal(glo, want.lo[:len(glo)])
            and np.array_equal(ghi, want.hi[:len(glo)]))


def _random_inputs(rng, M, N, real):
    """DIM interval series on (M, N) over a few binades, some entries
    points and some with width, exactly real when ``real``."""
    def part():
        return rng.standard_normal((M + 1, N + 1)) * 2.0 ** rng.integers(
            -8, 3, (M + 1, N + 1))
    comps = []
    for _ in range(DIM):
        re = part()
        im = np.zeros_like(re) if real else part()
        w = rng.random((2, M + 1, N + 1)) * 1e-9 * rng.integers(
            0, 2, (2, M + 1, N + 1))
        comps.append(ScalarSeries2(re - w[0], re + w[0],
                                   im - w[1] * (not real),
                                   im + w[1] * (not real)))
    return Series2(comps)


def _chained_program() -> FieldProgram:
    """A small program whose levels hold a Lin of the inputs at level
    0, Lin nodes reading Lin nodes and a level of Lin nodes alone.  As
    in the field, only one-term Lin nodes carry a constant, so the
    scalar interpreter adds terms and constant in the order of the
    stacked passes."""
    return FieldProgram((
        Lin(0.5, ((1.0, 0),)),                           # 7, level 0
        Lin(0.0, ((2.0, 7), (1.0, 2))),                  # 8, level 1
        Mul(7, 3),                                       # 9, level 1
        Lin(0.0, ((Interval(0.3, 0.31), 9), (1.0, 8))),  # 10, level 2
        Mul(10, 8),                                      # 11, level 3
        Lin(-1.0, ((1.0, 11),)),                         # 12, level 3
    ), (7, 8, 9, 10, 11, 12, 4))


def _same(x, y):
    """Equal endpoints, bit for bit, zero signs included."""
    return (x.lo.tobytes() == y.lo.tobytes()
            and x.hi.tobytes() == y.hi.tobytes())


class TestLevelSchedule:
    """The stacked level passes of ``FieldNodes`` give the endpoints of
    evaluating every node on its own, up to the sign of a zero."""

    @staticmethod
    def _passes(prog):
        """The compiled schedule as a list of passes, each a set of
        nodes, after checking it against the program: every level's
        ``Mul`` pass before its ``Lin`` pass, each node reading only
        nodes finished by an earlier pass, and every node placed once."""
        done = set(range(DIM))
        passes = []
        for muls, lin in _levels(prog):
            for i, a, b in muls.T.tolist():
                assert prog.ops[i - DIM] == Mul(a, b)
            if lin is not None:
                assert all(isinstance(prog.ops[i - DIM], Lin)
                           for i in lin.nodes.tolist())
            for nodes in (muls[0].tolist(),
                          [] if lin is None else lin.nodes.tolist()):
                for i in nodes:
                    op = prog.ops[i - DIM]
                    reads = ((op.a, op.b) if isinstance(op, Mul)
                             else [k for _, k in op.terms])
                    assert done.issuperset(reads), i
                    assert i not in done
                done.update(nodes)
                passes.append(set(nodes))
        assert done == set(range(DIM + len(prog.ops)))
        return passes

    def test_levels_respect_dependencies(self, config, triple):
        # a level's Lin pass reads that level's products: the field
        # takes three product passes, the shifts alone at level 0
        prog = field_program(triple, config)
        passes = self._passes(prog)
        assert [len(p) for p in passes] == [0, 6, 9, 3, 3, 0, 9, 2]
        assert sum(bool(muls) for muls in passes[0::2]) == 3

    def test_chained_linear_nodes(self, config, triple, u0):
        # a Lin of the inputs at level 0, a Lin reading a Lin, and a
        # level of Lin nodes alone: every fill and the jet pass give
        # each node the endpoints of evaluating it on its own, up to
        # the sign of a zero
        prog = _chained_program()
        passes = self._passes(prog)
        assert passes == [set(), {7}, {9}, {8}, set(), {10}, {11}, {12}]
        rng = np.random.default_rng(83)
        for real in (True, False):
            M, N = 3, 4
            S = _random_inputs(rng, M, N, real)
            got = FieldNodes(prog, _inputs(S, real), M, N)
            want = FieldNodes(prog, _complex_zeros(), M, N)
            for n in range(N + 1):
                got.b_column(n)
                _node_by_node_column(want, S, n)
                assert _equal_parts(got.G[..., : n + 1],
                                    want.G[..., : n + 1]), (real, n)
            S = _random_inputs(rng, M, M, real)
            origin = [S.coefs.at(i, 0, 0) for i in range(DIM)]
            got, want = (degree_nodes(prog, M, origin)[0] for _ in "ab")
            for nodes in (got, want):
                nodes.G[0, :DIM] = S.coefs
            for d in range(1, 2 * M + 1):
                got.degree(d)
                _node_by_node_degree(want, d, 0)
                assert np.array_equal(got.G.lo, want.G.lo), (real, d)
                assert np.array_equal(got.G.hi, want.G.hi), (real, d)
        mid = np.array([x.mid for x in u0.u])
        for r in (0.0, 1e-9, 1e-2):
            u = tuple(IntervalArray(mid - r, mid + r))
            vals = evaluate(prog, u)
            jets = node_jets(prog, stack_boxes(u))[0]
            assert np.array_equal(jets.lo[:, 0], [v.lo for v in vals])
            assert np.array_equal(jets.hi[:, 0], [v.hi for v in vals])

    def test_shift_level_copies_its_operands(self, config, triple):
        # the shifts dx_j, dy_j are one exact unit term each, so their
        # level copies its operands' slots, at column, degree and jet
        # slots: the general pass's endpoints, up to the sign of a zero,
        # with planted signed zeros, subnormal and huge entries; with
        # an infinite entry too, where the general pass's overflow
        # clamp steps the subnormal and huge products outward, the
        # exact copies lie within its ends
        prog = field_program(triple, config)
        levels = [lin for _, lin in _levels(prog) if lin is not None]
        assert levels[0].copies and not any(x.copies for x in levels[1:])
        general = dataclasses.replace(levels[0], copies=False)
        rng = np.random.default_rng(97)
        shape = (3, DIM + len(prog.ops), 5, 6)
        special = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]
        for unbounded in (False, True):
            u, v = (np.where(rng.random(shape) < 0.3,
                             rng.choice(special, shape),
                             rng.standard_normal(shape)) for _ in "uv")
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            if unbounded:
                lo[:, 0, 1], hi[:, 2, 3] = -np.inf, np.inf
            for slots, x, y in (((np.arange(5), 2), lo, hi),
                                (antidiagonal(4, 5, 4, 1), lo, hi),
                                ((np.arange(5),), lo[..., 0], hi[..., 0])):
                (glo, ghi), (wlo, whi) = (
                    level.values(x, y, *slots) for level in (levels[0],
                                                             general))
                assert glo.shape == wlo.shape == ghi.shape == whi.shape
                if unbounded:
                    assert np.all(wlo <= glo) and np.all(ghi <= whi)
                    continue
                for g, w in ((glo, wlo), (ghi, whi)):
                    assert np.array_equal(g, w)
                    nonzero = g != 0.0
                    assert g[nonzero].tobytes() == w[nonzero].tobytes()

    @pytest.mark.parametrize("real", [True, False])
    def test_kept_ends_equal_sorting_every_call(self, config, triple,
                                                monkeypatch, real):
        # the interpreter keeps every product level's factor ends and
        # sorts one new column per call: every node grid of K copies
        # equals, bit for bit, that of a fill whose every kernel call
        # sorts its factors' whole corner
        rng = np.random.default_rng(101)
        M, N, K = 4, 6, 3
        prog = field_program(triple, config)
        inputs = _stacked_inputs([_random_inputs(rng, M, N, real)
                                  for _ in range(K)], real)
        got, want = (FieldNodes(prog, inputs, M, N) for _ in "ab")
        for n in range(N + 1):
            got.b_column(n)
        # a complex fill sorts nothing; a real one keeps sign-definite
        # ends on some level
        assert all(bool(ends.cols) == real for ends in got._ends)
        assert real == any(ends.cols and ends.definite
                           for ends in got._ends)
        whole = polyfield.product_columns
        monkeypatch.setattr(polyfield, "product_columns",
                            lambda G, a, b, n, M, ends: whole(G, a, b, n, M))
        for n in range(N + 1):
            want.b_column(n)
        assert _same(got.G, want.G)

    def test_real_columns_skip_the_imaginary_halves(self, config, triple,
                                                    monkeypatch):
        # a real store's Lin pass takes the real parts of the K copies
        # alone: its grids equal, byte for byte, the real halves of the
        # pass over both halves of a complex store with the same real
        # products, whose imaginary grids stay exact zeros
        rng = np.random.default_rng(91)
        M, N, K = 4, 6, 3
        prog = field_program(triple, config)
        series = [_random_inputs(rng, M, N, True) for _ in range(K)]
        got = FieldNodes(prog, _stacked_inputs(series, True), M, N)
        want = FieldNodes(prog, _stacked_inputs(series, False), M, N)
        assert isinstance(got.G, IntervalArray)
        parts = []
        values = polyfield._LinLevel.values
        monkeypatch.setattr(polyfield._LinLevel, "values",
                            lambda self, lo, hi, *slots: parts.append(
                                lo.shape[0]) or values(self, lo, hi, *slots))
        for n in range(N + 1):
            got.b_column(n)
        assert parts and set(parts) == {K}
        parts.clear()
        real = IntervalArray(want.G.lo[0], want.G.hi[0])
        for n in range(N + 1):
            # the pass over both halves, with the same real products
            want._fill((np.arange(M + 1), n),
                       lambda a, b: CIntervalArray.from_real(
                           product_columns(real, a, b, n, M)), n == 0)
        assert parts and set(parts) == {2 * K}
        assert got.G.lo.tobytes() == want.G.lo[0].tobytes()
        assert got.G.hi.tobytes() == want.G.hi[0].tobytes()
        assert not want.G.lo[1].any() and not want.G.hi[1].any()

    def test_one_compiled_program(self, config, triple, u0):
        # every interpreter of a program, and the jet pass, reads the one
        # cached compile, whose index arrays are read-only
        prog = field_program(triple, config)
        levels = _levels(prog)
        assert FieldNodes(prog, _complex_zeros(), 3, 3).levels is levels
        assert FieldNodes(prog, real_stack(_random_inputs(
            np.random.default_rng(0), 5, 2, True)), 5, 2).levels is levels
        misses = _levels.cache_info().misses
        node_jets(prog, stack_boxes(u0.u))
        assert _levels.cache_info().misses == misses
        for muls, lin in levels:
            arrays = [muls] + ([] if lin is None else
                               [lin.nodes, lin.operands, lin.scale])
            assert not any(x.flags.writeable for x in arrays)

    def test_every_batch_shares_the_one_compile(self, config, triple):
        # K copies ride G's leading axis: every K reads the one cached
        # compile of the program, compiled once, with read-only arrays
        # and one coefficient array for both ends exactly when the
        # masses are points
        wide = MassTriple(Interval(0.5 - 1e-9, 0.5 + 1e-9), triple.m2,
                          triple.m3)
        for masses in (triple, wide):
            prog = field_program(masses, config)
            levels = _levels(prog)
            misses = _levels.cache_info().misses
            for K in (1, 2, 6):
                nodes = FieldNodes(prog, _complex_zeros(K), 3, 2)
                assert nodes.levels is levels
                assert nodes.G.shape == (K, DIM + len(prog.ops), 4, 3)
            assert _levels.cache_info().misses == misses
            for muls, lin in levels:
                arrays = [muls]
                if lin is not None:
                    assert (lin.iv_hi is lin.iv_lo) == (
                        masses is triple or not lin.iv_at[0].size)
                    arrays += [lin.nodes, lin.operands, lin.scale,
                               *lin.iv_at, lin.iv_lo, lin.iv_hi,
                               lin.const_lo, lin.const_hi]
                assert not any(x.flags.writeable for x in arrays)

    @pytest.mark.parametrize("parts", ["real", "complex", "mixed"])
    def test_copies_fill_as_one_copy_each(self, config, triple, parts):
        # K copies fill every column, and every degree, as K one-copy
        # interpreters of the same store type do; mixed copies, some
        # exactly real and one complex, are all complex inputs, so the
        # exactly real ones fill as their own complex interpreters
        rng = np.random.default_rng(61)
        M, N, K = 4, 5, 3
        inputs = [_random_inputs(rng, M, N, parts == "real"
                                 or (parts == "mixed" and k != 1))
                  for k in range(K)]
        real = parts == "real"
        prog = field_program(triple, config)
        nodes = FieldNodes(prog, _stacked_inputs(inputs, real), M, N)
        ones = [FieldNodes(prog, _inputs(S, real), M, N) for S in inputs]
        for n in range(N + 1):
            out = nodes.b_column(n)
            want = [one.b_column(n) for one in ones]
            assert out.shape == (K, DIM, M + 1)
            for k, w in enumerate(want):
                assert w.shape == (1, DIM, M + 1)
                assert _same(out[k], w[0]), (n, k)
        for k, one in enumerate(ones):
            assert _same(nodes.G[k], one.G[0]), k
        origin = [[S.coefs.at(i, 0, 0) for i in range(DIM)] for S in inputs]
        degs = [degree_nodes(prog, M, o)[0] for o in origin]
        nodes = FieldNodes(prog, _complex_zeros(K), M, M)
        for k, one in enumerate(degs):
            one.G[0, :DIM] = _fit(inputs[k].coefs, M, M)
            nodes.G[k] = one.G[0]
        for d in range(1, 2 * M + 1):
            out = nodes.degree(d)
            want = [one.degree(d) for one in degs]
            assert out.shape == (K, DIM, len(antidiagonal(M, M, d)[0]))
            for k, w in enumerate(want):
                assert _same(out[k], w[0]), (d, k)
        for k, one in enumerate(degs):
            assert _same(nodes.G[k], one.G[0]), k

    def test_point_coefficients_share_one_array(self, config, triple):
        # the masses of MassTriple.from_floats are points: their level
        # keeps one array for both ends, so _imul_arr forms two
        # candidates, and the values equal, bit for bit, those of the
        # four candidates from a separate copy of that array
        rng = np.random.default_rng(51)
        shape = (2, DIM + len(field_program(triple, config).ops), 4, 5)
        mid = rng.standard_normal(shape)
        w = rng.random(shape) * 1e-6 * rng.integers(0, 2, shape)
        lo, hi = mid - w, mid + w
        wide = MassTriple(Interval(0.5 - 1e-9, 0.5 + 1e-9), triple.m2,
                          triple.m3)
        for masses, point in ((triple, True), (wide, False)):
            levels = [lin for _, lin in
                      _levels(field_program(masses, config))
                      if lin is not None and lin.iv_at[0].size]
            assert levels
            for lin in levels:
                assert (lin.iv_hi is lin.iv_lo) == point
                four = dataclasses.replace(lin, iv_hi=lin.iv_hi.copy())
                for slots in ((np.arange(4), 2),
                              (np.arange(4), np.array([4, 2, 1, 0]))):
                    got = lin.values(lo, hi, *slots)
                    want = four.values(lo, hi, *slots)
                    for x, y in zip(got, want):
                        assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("orders, input_orders",
                             [((4, 6), None), ((6, 6), (4, 4)),
                              ((10, 24), None)])
    def test_column_fill_equals_node_by_node(self, config, triple, real,
                                             orders, input_orders):
        # (6, 6) with inputs of orders (4, 4) is the manifold-tail
        # set-up: K = ceil(3 N / 2) with inputs zero past (N, N); on
        # (10, 24) the deeper columns of a level outgrow the product
        # kernel's block budget, so blocks split the level
        rng = np.random.default_rng(31 + real)
        prog = field_program(triple, config)
        M, N = orders
        S = _random_inputs(rng, *(input_orders or orders), real)
        got = FieldNodes(prog, _inputs(S, real), M, N)
        S = Series2(_fit(S.coefs, M, N))
        want = FieldNodes(prog, _complex_zeros(), M, N)
        for n in range(N + 1):
            out = got.b_column(n)
            _node_by_node_column(want, S, n)
            # column 0 carries the Lin constants
            assert _equal_parts(got.G[..., : n + 1], want.G[..., : n + 1]), n
            ref = want.G[0, :, :, n][list(prog.outputs)]
            assert _equal_parts(out, ref[None])
        assert isinstance(got.G, IntervalArray) == real

    @pytest.mark.parametrize("real", [True, False])
    def test_degree_fill_equals_node_by_node(self, config, triple, real):
        rng = np.random.default_rng(41 + real)
        prog = field_program(triple, config)
        K = 5
        S = _random_inputs(rng, K, K, real)
        got, _ = degree_nodes(prog, K, [S.coefs.at(i, 0, 0)
                                        for i in range(DIM)])
        want, _ = degree_nodes(prog, K, [S.coefs.at(i, 0, 0)
                                         for i in range(DIM)])
        for nodes in (got, want):
            nodes.G[0, :DIM] = S.coefs
        for d in range(1, 2 * K + 1):
            for m_min in (0, (d + 1) // 2):
                out = got.degree(d, m_min)
                _node_by_node_degree(want, d, m_min)
                assert np.array_equal(got.G.lo, want.G.lo), (d, m_min)
                assert np.array_equal(got.G.hi, want.G.hi), (d, m_min)
                ms, ns = antidiagonal(K, K, d, m_min)
                grids = Series2(want.G[0]).components
                assert out.shape == (1, DIM, len(ms))
                for r, o in enumerate(prog.outputs):
                    assert np.array_equal(out[0, r].lo, grids[o][ms, ns].lo)
                    assert np.array_equal(out[0, r].hi, grids[o][ms, ns].hi)

    def test_degree_without_slots_leaves_the_nodes(self, config, triple):
        # a (4, 7) grid has no degree-11 slot with m >= 6
        rng = np.random.default_rng(5)
        nodes = FieldNodes(field_program(triple, config),
                           _random_inputs(rng, 4, 7, False).coefs[None], 4, 7)
        before = nodes.G.copy()
        assert nodes.degree(11, 6).shape == (1, DIM, 0)
        assert np.array_equal(nodes.G.lo, before.lo)
        assert np.array_equal(nodes.G.hi, before.hi)


class TestRealStore:
    """Real inputs give a real store: one part, the real halves of a
    complex store on the same inputs with exact zero imaginary parts,
    bit for bit, in every column, defect and beyond-grid bound."""

    @pytest.mark.parametrize("K, copies", [(1, [0]), (12, [11, 0, 5])])
    def test_equals_complex_real_halves(self, config, triple, K, copies):
        # the complex store is filled node by node, each product by
        # product_column, which forms the real products alone for the
        # exactly real factors
        rng = np.random.default_rng(103 + K)
        M, N = 4, 6
        prog = field_program(triple, config)
        series = [_random_inputs(rng, M, N, True) for _ in range(K)]
        got = FieldNodes(prog, _stacked_inputs(series, True), M, N)
        want = FieldNodes(prog, _complex_zeros(K), M, N)
        assert isinstance(got.G, IntervalArray)
        assert got.G.shape == want.G.shape
        for n in range(N + 1):
            out = got.b_column(n)
            for k, S in enumerate(series):
                _node_by_node_column(want, S, n, k)
            ref = want.G[..., n][:, list(prog.outputs)]
            assert isinstance(out, IntervalArray)
            assert _equal_parts(out, ref), n
        want.filled = N + 1
        assert _equal_parts(got.G, want.G)
        lo = rng.standard_normal((len(copies), DIM, M + 1, N + 1))
        lhs = IntervalArray(lo, lo + 1e-9)
        assert np.array_equal(
            field_defect(got, lhs, copies),
            field_defect(want, CIntervalArray.from_real(lhs), copies))
        for pick in (copies, list(range(K))):
            assert (got.beyond_grid_bounds(pick).tobytes()
                    == want.beyond_grid_bounds(pick).tobytes())

    def test_degree_fill_equals_complex_real_halves(self, config, triple):
        # the degree fill reads its parts from the store too
        rng = np.random.default_rng(107)
        M = 4
        prog = field_program(triple, config)
        S = _random_inputs(rng, M, M, True)
        got, want = (FieldNodes(prog, _inputs(S, real), M, M)
                     for real in (True, False))
        for d in range(1, 2 * M + 1):
            assert _equal_parts(got.degree(d, 1), want.degree(d, 1)), d
            assert _equal_parts(got.G, want.G), d
        assert got.degree(2 * M + 1, 0).shape == (1, DIM, 0)

    def test_inputs_must_lie_on_the_grid(self, config, triple):
        prog = field_program(triple, config)
        for shape in ((1, DIM, 5, 3), (1, DIM, 4, 4), (1, DIM - 1, 1, 1),
                      (0, DIM, 1, 1)):
            with pytest.raises(ValueError):
                FieldNodes(prog, CIntervalArray.zeros(shape), 3, 2)


class TestFoldedTails:
    """The tails' sign folded into ng_j = -dx_j u2 - dy_j u4 gives every
    interpreter the outputs of the unfolded program, up to the sign of
    a zero, in one node and one level fewer per tail."""

    def test_shape(self, config, triple):
        prog = field_program(triple, config)
        assert DIM + len(prog.ops) == 39
        assert DIM + len(unfolded_program(triple, config).ops) == 42
        levels = _levels(prog)
        assert len(levels) == 4
        assert sum(lin is not None for _, lin in levels) == 3

    @pytest.mark.parametrize("real", [True, False])
    def test_fills_equal_unfolded(self, config, triple, real):
        rng = np.random.default_rng(71 + real)
        progs = field_program(triple, config), unfolded_program(triple,
                                                                 config)
        M, N = 5, 7
        S = _random_inputs(rng, M, N, real)
        cols = [FieldNodes(prog, _inputs(S, real), M, N) for prog in progs]
        for n in range(N + 1):
            got, want = (c.b_column(n) for c in cols)
            assert np.array_equal(got.lo, want.lo), n
            assert np.array_equal(got.hi, want.hi), n
        K = 5
        S = _random_inputs(rng, K, K, real)
        origin = [S.coefs.at(i, 0, 0) for i in range(DIM)]
        degs = [degree_nodes(prog, K, origin)[0] for prog in progs]
        for nodes in degs:
            nodes.G[0, :DIM] = S.coefs
        for d in range(1, 2 * K + 1):
            for m_min in (0, (d + 1) // 2):
                got, want = (nodes.degree(d, m_min) for nodes in degs)
                assert np.array_equal(got.lo, want.lo), (d, m_min)
                assert np.array_equal(got.hi, want.hi), (d, m_min)

    def test_jets_equal_unfolded(self, config, triple, u0):
        rng = np.random.default_rng(73)
        for r in (0.0, 1e-9, 1e-2):
            u = [Interval(x.lo - r * rng.random(), x.hi + r * rng.random())
                 for x in u0.u]
            got, want = (node_jets(prog, stack_boxes(u))[0][list(prog.outputs)]
                         for prog in (field_program(triple, config),
                                      unfolded_program(triple, config)))
            assert np.array_equal(got.lo, want.lo)
            assert np.array_equal(got.hi, want.hi)


class TestPolyJacobian:
    def test_finite_difference_oracle(self, config, triple):
        pos = config.position_array()
        masses = np.array(triple.as_floats())
        u_pt = np.array([0.9, 0.1, 0.2, -0.3, 0.8, 1.1, 1.3])
        u = State7(tuple(IntervalArray.from_points(u_pt)))
        J = poly_DF(triple, config, stack_boxes(u.u))[0]
        h = 1e-6
        for j in range(7):
            dp = u_pt.copy()
            dm = u_pt.copy()
            dp[j] += h
            dm[j] -= h
            col = (poly_F_point(pos, masses, dp)
                   - poly_F_point(pos, masses, dm)) / (2 * h)
            for i in range(7):
                assert abs(J[i, j].mid - col[i]) < 1e-6, (i, j)

    def test_d4_block_vanishes_at_equilibrium(self, config, triple, u0):
        J = poly_DF(triple, config, stack_boxes(u0.u))[0]
        for j in range(3):
            for col in (0, 2, 4 + j):
                e = J[4 + j, col]
                assert e.lo == 0.0 and e.hi == 0.0

    def test_rows_5_to_7_dependent_at_equilibrium(self, config, triple, u0):
        # row 4+j = c1 * row0 + c3 * row2 with the displayed coefficients
        J = poly_DF(triple, config, stack_boxes(u0.u))[0]
        for j in range(3):
            px, py = config.positions[j]
            w3 = u0.u[4 + j].pow_int(3)
            c1 = -((u0.u[0] - px) * w3)
            c3 = -((u0.u[2] - py) * w3)
            for col in range(7):
                combo = c1 * J[0, col] + c3 * J[2, col]
                diff = J[4 + j, col] - combo
                assert diff.straddles_zero(), (j, col)


class TestNodeJets:
    """``node_jets``, one stacked forward pass, against the seven scalar
    ``tangent`` passes of the reference ``node_jacobian``."""

    @staticmethod
    def _reached(prog):
        """The inputs each node depends on, by the program's structure."""
        deps = [{k} for k in range(DIM)]
        for op in prog.ops:
            reads = ((op.a, op.b) if isinstance(op, Mul)
                     else [k for _, k in op.terms])
            deps.append(set().union(*(deps[k] for k in reads)))
        return deps

    def test_equals_scalar_tangent_passes(self, config, triple, u0):
        prog = field_program(triple, config)
        deps = self._reached(prog)
        rng = np.random.default_rng(17)
        mid = np.array([x.mid for x in u0.u])
        boxes = [u0.u]
        for _ in range(60):
            r = 10.0 ** rng.uniform(-9, -1, DIM)
            boxes.append(tuple(IntervalArray(mid - r, mid + r)))
        for u in boxes:
            vals = evaluate(prog, u)
            ref = node_jacobian(prog, vals)
            jets = node_jets(prog, stack_boxes(u))[0]
            assert jets.shape == (DIM + len(prog.ops), 1 + DIM)
            assert np.array_equal(jets.lo[:, 0], [v.lo for v in vals])
            assert np.array_equal(jets.hi[:, 0], [v.hi for v in vals])
            # equal endpoints, up to the sign of a zero
            assert np.array_equal(jets.lo[:, 1:], ref.lo[0])
            assert np.array_equal(jets.hi[:, 1:], ref.hi[0])
            assert not ref.lo[1].any() and not ref.hi[1].any()
            for i, d in enumerate(deps):
                for k in set(range(DIM)) - d:
                    assert jets.lo[i, 1 + k] == jets.hi[i, 1 + k] == 0.0

    def test_stacked_equals_per_box(self, config, triple, u0):
        # one pass over 80 boxes of every width, point boxes and boxes
        # straddling zero in every input included, against one pass per
        # box: equal endpoints, zero signs included
        prog = field_program(triple, config)
        rng = np.random.default_rng(18)
        mid = np.array([x.mid for x in u0.u])
        r = 10.0 ** rng.uniform(-12, 0.5, (80, DIM))
        r[:5] = 0.0
        c = mid + rng.standard_normal((80, DIM)) * 0.1
        c[5:10] = 0.0
        boxes = IntervalArray(c - r, c + r)
        jets = node_jets(prog, boxes)
        J = poly_DF(triple, config, boxes)
        assert J.shape == (80, DIM, DIM)
        for b in range(80):
            one = node_jets(prog, boxes[b:b + 1])
            assert jets.lo[b].tobytes() == one.lo[0].tobytes(), b
            assert jets.hi[b].tobytes() == one.hi[0].tobytes(), b
            single = poly_DF(triple, config, boxes[b:b + 1])
            assert J.lo[b].tobytes() == single.lo[0].tobytes(), b
            assert J.hi[b].tobytes() == single.hi[0].tobytes(), b

    def test_poly_df_is_the_output_rows(self, config, triple, u0):
        prog = field_program(triple, config)
        jets = node_jets(prog, stack_boxes(u0.u))[0]
        J = poly_DF(triple, config, stack_boxes(u0.u))[0]
        rows = list(prog.outputs)
        assert np.array_equal(J.lo, jets.lo[rows, 1:])
        assert np.array_equal(J.hi, jets.hi[rows, 1:])


class TestKernelBasis:
    """DF(u0) has a three-dimensional kernel, spanned by vectors with
    one unit reciprocal-distance slot each, when the pivot of its
    elimination is nonzero."""

    def test_pivot_value(self, triple, u0):
        # a = 1 - sum m_j u_{4+j}^3 at the equilibrium is negative here
        a = Interval.from_value(1.0)
        for mj, w in zip((triple.m1, triple.m2, triple.m3), u0.u[4:]):
            a = a - mj * w.pow_int(3)
        assert a.hi < 0.0
        assert not a.straddles_zero()


def _complex_residual_7(J: IntervalArray, lam: CInterval,
                        vec: tuple[CInterval, ...]) -> list[CInterval]:
    re = IntervalArray.of([c.re for c in vec])
    im = IntervalArray.of([c.im for c in vec])
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
        J = poly_DF(triple, config, stack_boxes(u0.u))[0]
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


# nonnegative magnitudes: zeros, subnormals, the smallest normals, sizes
# whose products underflow or sit near 1e300, and values that absorb
# one another in a float sum
_MAGNITUDES = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, 3e-310, 2.2250738585072014e-308, 1e-160,
                     1e-16, 1.0, 1.0 + 2.0 ** -52, 3.0, 2.0 ** 60]),
    st.floats(0.0, 4.0),
    st.floats(1e149, 9e150))


@st.composite
def _mag_grid(draw):
    M, N = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    vals = draw(st.lists(_MAGNITUDES, min_size=(M + 1) * (N + 1),
                         max_size=(M + 1) * (N + 1)))
    return np.array(vals).reshape(M + 1, N + 1)


def _exact_tail(x, y, cut):
    """Exact mass of the convolution of x and y past index cut."""
    return sum(x[i] * y[j] for i in range(len(x)) for j in range(len(y))
               if i + j > cut)


class TestStackedBeyondGrid:
    """``beyond_grid_bounds`` over a list of copies, one recurrence on
    arrays, against the scalar recurrence of each copy alone
    (``conftest.beyond_grid_loop``): equal bounds, bit for bit."""

    def test_equals_scalar_recurrence(self, config, triple):
        rng = np.random.default_rng(19)
        K, M, N = 4, 3, 5
        # real inputs of every scale, one copy complex
        re = rng.standard_normal((K, DIM, M + 1, N + 1))
        re *= 10.0 ** rng.uniform(-6, 1, (K, DIM, 1, 1))
        im = np.zeros_like(re)
        im[2] = 1e-3 * rng.standard_normal(im[2].shape)
        w = 1e-9 * np.abs(rng.standard_normal(re.shape))
        nodes = FieldNodes(field_program(triple, config),
                           CIntervalArray(np.stack((re - w, im)),
                                          np.stack((re + w, im))), M, N)
        for n in range(N + 1):
            nodes.b_column(n)
        for copies in ([0, 1, 2, 3], [3, 1], [2]):
            got = nodes.beyond_grid_bounds(copies)
            assert got.shape == (len(copies), DIM)
            for row, k in zip(got, copies):
                assert row.tolist() == beyond_grid_loop(nodes, k), k


class TestBeyondGridPadding:
    """The float sums behind ``beyond_grid_bounds`` are padded by gamma
    of their own rounding counts; the bounds must cover exact sums."""

    @given(_mag_grid(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_conv_tail_covers_exact_mass(self, a, data):
        M, N = a.shape[0] - 1, a.shape[1] - 1
        vals = data.draw(st.lists(_MAGNITUDES, min_size=a.size,
                                  max_size=a.size))
        b = np.array(vals).reshape(a.shape)
        A, B = ([[Fraction(v) for v in row] for row in g] for g in (a, b))
        cols = [[sum(g[m][n] for m in range(M + 1)) for n in range(N + 1)]
                for g in (A, B)]
        rows = [[sum(g[m]) for m in range(M + 1)] for g in (A, B)]
        exact = _exact_tail(*cols, N) + _exact_tail(*rows, M)
        assert Fraction(_conv_tail(a, b, M, N)) >= exact

    def test_conv_tail_covers_absorbed_terms(self):
        # each 1e-16 is below half an ulp of 1, so every marginal sum
        # rounds down, by 4 * 1e-16 in all, about 2 u
        col = np.array([1.0] + [1e-16] * 4)
        a = np.stack([col] * 5, axis=1)
        cols = [1 + 4 * Fraction(1e-16)] * 5
        rows = [5 * Fraction(v) for v in col]
        exact = _exact_tail(cols, cols, 4) + _exact_tail(rows, rows, 4)
        assert Fraction(_conv_tail(a, a, 4, 4)) >= exact

    @given(_mag_grid())
    @settings(max_examples=200, deadline=None)
    def test_norm_covers_exact_sum(self, g):
        exact = sum(Fraction(v) for v in g.ravel())
        assert Fraction(_nonneg_upper(float(np.sum(g)), g.size)) >= exact

