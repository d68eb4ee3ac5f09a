"""Shared test helpers and the scalar references they check against."""

import math
from unittest import mock

import numpy as np
import pytest

from fourbody import advect
from fourbody.advect import (_TILES, _TUBE_FAILED, ArcFill, FlowChart,
                             _tile_samples, collapse_time_one, flow_line)
from fourbody.atlas import (ArcRecord, ChartRecord, StopReason, arc_decay,
                            arc_length, subdivide_arc)
from fourbody.crfbp import State4, omega_first_partials
from fourbody.errors import CollisionDomain, SubdivisionLimit
from fourbody.interval import (CInterval, CIntervalArray, Interval,
                               IntervalArray, _imul_arr, _nonneg_upper,
                               _prod_ceil, _sum_ceil, matrix_norm)
from fourbody.polyfield import (DIM, FieldNodes, FieldProgram, Lin, Mul,
                                _conv_tail, evaluate, poly_DF)
from fourbody.taylor import ScalarSeries2, Series2, _fit, cauchy_product, \
    mag_sum_bound


def stack_boxes(*boxes) -> IntervalArray:
    """The boxes, each a sequence of DIM Intervals, stacked into the
    (B, DIM) array that ``node_jets`` and ``poly_DF`` take."""
    return IntervalArray(np.array([[x.lo for x in u] for u in boxes]),
                         np.array([[x.hi for x in u] for u in boxes]))


def project_pi(u):
    """First-four-components projection of a State7; exact left inverse
    of ``polyfield.embed_R``."""
    return State4(u.u[0], u.u[1], u.u[2], u.u[3])


def field_f(p, m, s):
    """The planar rotating-frame field over the State4 box ``s``:
    (xdot, 2 ydot + Omega_x, ydot, -2 xdot + Omega_y)."""
    ox, oy = omega_first_partials(p, m, s.x, s.y)
    return IntervalArray.of([s.xdot, 2 * s.ydot + ox, s.ydot,
                             -2 * s.xdot + oy])


def energy_point(pos, masses, s):
    """The Jacobi integral at the float state ``s``, in floats."""
    x, xd, y, yd = s
    dx = x - pos[:, 0]
    dy = y - pos[:, 1]
    r = np.sqrt(dx * dx + dy * dy)
    om = 0.5 * (x * x + y * y) + np.sum(masses / r)
    return 0.5 * (xd * xd + yd * yd) - om


def tangent(prog, vals, seed):
    """Scalar tangent interpreter: forward-mode derivative of every node
    along the input direction ``seed`` (None is an exact zero), at the
    node values ``vals``, by d(const + sum c_k x_k) = sum c_k dx_k and
    d(x y) = x dy + dx y, in the arithmetic of the values."""
    ds = list(seed)
    for op in prog.ops:
        terms = (((vals[op.a], op.b), (vals[op.b], op.a))
                 if isinstance(op, Mul) else op.terms)
        acc = None
        for c, k in terms:
            if ds[k] is not None:
                acc = ds[k] * c if acc is None else acc + ds[k] * c
        ds.append(acc)
    return ds


def node_jacobian(prog, vals):
    """Jacobian of every node with respect to the inputs at the node
    values ``vals`` (Intervals or CIntervals), shape (nodes, DIM), by
    one ``tangent`` pass per input seeded with an exact unit; entries a
    pass never reaches are exact zeros, and real values give exactly
    zero imaginary parts.  The reference for ``polyfield.node_jets``."""
    one = type(vals[0])(1.0)
    lo = np.zeros((2, len(vals), DIM))
    hi = np.zeros((2, len(vals), DIM))
    for k in range(DIM):
        seed = [None] * DIM
        seed[k] = one
        for i, d in enumerate(tangent(prog, vals, seed)):
            if d is not None:
                v = CInterval._coerce(d)
                lo[:, i, k] = v.re.lo, v.im.lo
                hi[:, i, k] = v.re.hi, v.im.hi
    return CIntervalArray(lo, hi)


def from_complex_points(grid) -> ScalarSeries2:
    """The series whose coefficients are the point intervals at the
    complex numbers of ``grid``, a 2-d array."""
    a = np.asarray(grid, dtype=complex)
    return ScalarSeries2(a.real, a.real, a.imag, a.imag)


def eval_box_loop(s, z1, z2) -> CInterval:
    """Scalar Horner of one series over a box, one CInterval operation
    per coefficient: every row m in z2 from its last column, then the
    rows in z1.  ``ScalarSeries2.eval_box`` before the stacked
    ``taylor.horner_box``, kept as its reference."""
    M, N = s.orders
    rows = []
    for m in range(M + 1):
        acc = s.at(m, N)
        for n in range(N - 1, -1, -1):
            acc = acc * z2 + s.at(m, n)
        rows.append(acc)
    acc = rows[M]
    for m in range(M - 1, -1, -1):
        acc = acc * z1 + rows[m]
    return acc


def real_chart_loop(Q, s1, s2) -> IntervalArray:
    """Real Horner of the stacked real chart ``Q``, shape (DIM, D+1,
    D+1), at the Interval points s1 and s2, untailed: every s1-power's
    row in s2, then the rows in s1, as ``manifold.real_chart`` did
    before the stacked ``taylor.horner_box``."""
    D = Q.shape[1] - 1
    rows = Q[:, :, D]
    for k in range(D - 1, -1, -1):
        rows = rows * s2 + Q[:, :, k]
    v = rows[:, D]
    for j in range(D - 1, -1, -1):
        v = v * s1 + rows[:, j]
    return v


def sequential_cascade_sum(x):
    """The compensated sum ``interval._cascade_sum`` replaced: one
    TwoSum per term, c - 1 vector steps along axis 0, each error added
    to running sums of the errors and of their magnitudes.  Returns
    (s, e_sum, e_abs) as the tree does.  The reference for the tree:
    both must enclose the same exact sums."""
    s = x[0].astype(float).copy()
    e_sum = np.zeros_like(s)
    e_abs = np.zeros_like(s)
    for i in range(1, x.shape[0]):
        b = x[i]
        t = s + b
        bv = t - s
        av = t - bv
        e = (s - av) + (b - bv)
        e_sum += e
        e_abs += np.abs(e)
        s = t
    return s, e_sum, e_abs


def unfolded_program(m, p) -> FieldProgram:
    """``polyfield.field_program`` as it was before the tails' sign was
    folded into their last linear node: g_j = dx_j u2 + dy_j u4, each
    tail a one-term Lin -1 * (w_j^3 g_j); 42 nodes in 5 levels.  The
    reference for the folded program's outputs."""
    ops = []

    def node(op):
        ops.append(op)
        return DIM + len(ops) - 1

    f2 = [(2.0, 3), (1.0, 0)]
    f4 = [(-2.0, 1), (1.0, 2)]
    tail = []
    masses = (m.m1, m.m2, m.m3)
    for j, (mj, (px, py)) in enumerate(zip(masses, p.positions)):
        w = 4 + j
        dx = node(Lin(-px, ((1.0, 0),)))
        dy = node(Lin(-py, ((1.0, 2),)))
        sq = node(Mul(w, w))
        cu = node(Mul(sq, w))
        f2.append((-mj, node(Mul(dx, cu))))
        f4.append((-mj, node(Mul(dy, cu))))
        g = node(Lin(0.0, ((1.0, node(Mul(dx, 1))), (1.0, node(Mul(dy, 3))))))
        tail.append(node(Lin(0.0, ((-1.0, node(Mul(cu, g))),))))
    f2_node = node(Lin(0.0, tuple(f2)))
    f4_node = node(Lin(0.0, tuple(f4)))
    return FieldProgram(tuple(ops), (1, f2_node, 3, f4_node, *tail))


def degree_nodes(prog, N, origin):
    """A FieldNodes on (N, N) set up for degree fills, as the
    homological solve sets it up: its (0, 0) slots hold the scalar
    interpreter's values at ``origin``.  Returns it and the node
    Jacobian there."""
    nodes = FieldNodes(prog, N, N)
    base = evaluate(prog, origin)
    nodes.G[0, :, 0, 0] = CIntervalArray.of(base)
    return nodes, node_jacobian(prog, base)


def beyond_grid_loop(cols, k):
    """``FieldNodes.beyond_grid_bounds`` of copy k as it was before it
    ran on arrays over the copies: one scalar recurrence per copy, each
    sum and product rounded up by the scalar ``_sum_ceil`` and
    ``_prod_ceil``."""
    mags = cols.G[k].mag()
    norms = [_nonneg_upper(float(np.sum(g)), g.size) for g in mags]
    lost = [0.0] * DIM
    for op in cols.prog.ops:
        if isinstance(op, Mul):
            a, b = op.a, op.b
            loss = _sum_ceil(
                _sum_ceil(_conv_tail(mags[a], mags[b], cols.M, cols.N),
                          _prod_ceil(lost[a], _sum_ceil(norms[b], lost[b]))),
                _prod_ceil(norms[a], lost[b]))
        else:
            loss = 0.0
            for c, i in op.terms:
                loss = _sum_ceil(loss, _prod_ceil(Interval._coerce(c).mag,
                                                  lost[i]))
        lost.append(loss)
    return [lost[o] for o in cols.prog.outputs]


def defect_loop(cols, G, k):
    """The defect of the chart G in the input rows of copy k of
    ``cols`` as ``ArcFill.finish`` bounded it one chart at a time: the
    left-hand side tau dGamma/dt from scalar enclosures of tau (n + 1),
    the residual of copy k alone and ``beyond_grid_loop``, each
    component's two bounds added by the scalar ``_sum_ceil``."""
    M, N = G.orders
    tau_iv = Interval.from_value(G.tau)
    scales = IntervalArray.of([tau_iv * float(n + 1) for n in range(N)])
    lhs = CIntervalArray.zeros((DIM, M + 1, N + 1))
    lhs.lo[..., :N], lhs.hi[..., :N] = _imul_arr(
        G.coefs.lo[..., 1:], G.coefs.hi[..., 1:], scales.lo, scales.hi)
    for n in range(cols.filled, cols.N + 1):
        cols.b_column(n)
    res = lhs - cols.G[k, cols.outputs]
    lost = beyond_grid_loop(cols, k)
    return defect_sum([mag_sum_bound(res[i]) for i in range(DIM)], lost)


def defect_sum(inner, beyond) -> float:
    """The defect bound from per-component in-grid and beyond-grid
    bounds: the largest of their sums, each rounded up by the scalar
    ``_sum_ceil``."""
    return max(_sum_ceil(float(a), float(b)) for a, b in zip(inner, beyond))


def range_box_loop(G):
    """``advect.range_box`` of one chart as it was before it was
    stacked, with the chart's own tail: one component at a time."""
    M, N = G.orders
    h = (1.0 / _TILES) * (1.0 + 1e-12)
    mrow = np.arange(M + 1, dtype=float)[:, None]
    ncol = np.arange(N + 1, dtype=float)[None, :]
    out = []
    for lo, hi in zip(G.coefs.lo[0], G.coefs.hi[0]):
        mid = 0.5 * (lo + hi)
        vals, fperr = _tile_samples(mid)
        mags = np.maximum(np.abs(lo), np.abs(hi))
        sups = h * float(np.sum((mrow + ncol) * mags))
        radii = _nonneg_upper(float(np.sum(np.maximum(hi - mid, mid - lo))),
                              mid.size)
        slack = _sum_ceil(_sum_ceil(_sum_ceil(sups, radii), fperr), G.tail)
        out.append(Interval(
            math.nextafter(float(np.min(vals)) - slack, -math.inf),
            math.nextafter(float(np.max(vals)) + slack, math.inf)))
    return IntervalArray.of(out)


def tube_loop(m, p, G, source_tail, defect, radii=40):
    """``advect.propagated_tail`` of one chart as it was before the
    tubes were stacked: one radius, and one ``poly_DF`` of one box, at a
    time, up to ``radii`` radii.  Raises the tube's CollisionDomain."""
    box = range_box_loop(G)
    T = Interval.from_value(1.0) / Interval.from_value(abs(G.tau))
    eps0 = Interval.from_value(source_tail)
    D = Interval.from_value(defect)
    delta = max(1e-9, 8.0 * (source_tail + defect))
    for _ in range(radii):
        pad = Interval(-delta, delta)
        fat = [box[i] + pad for i in range(DIM)]
        L = matrix_norm(poly_DF(m, p, stack_boxes(fat))[0])
        if (L * T).hi > 700.0:
            break
        growth = (L * T).exp()
        if L.lo <= 0.0:
            extra = D * T * growth
        else:
            extra = D * (growth - Interval.from_value(1.0)) / L
        tail = (eps0 * growth + extra).hi
        if tail < delta:
            return float(tail)
        delta *= 4.0
    raise CollisionDomain(_TUBE_FAILED)


def finish_one(fill, k, *, source_arc=None, start_time=0.0):
    """``ArcFill.finish`` of arc k alone, as it was before the finish
    was stacked: ``defect_loop``, then ``tube_loop``.  Raises the
    tube's CollisionDomain.  The reference for the stacked finish."""
    G, arc = fill.G[k], fill.arcs[k]
    defect = defect_loop(fill._nodes, G, k)
    tail = tube_loop(fill.m, fill.p, G, arc.gamma.tail, defect)
    return FlowChart(Gamma=Series2(G.coefs.copy(), scale=G.scale,
                                   tau=G.tau, tail=tail),
                     kind=arc.kind, defect=defect, source_arc=source_arc,
                     accumulated_time=start_time + 1.0 / G.tau)


def collision_loop(chart, p, delta_min=0.05):
    """``advect.check_collision`` of one chart as it was before it took
    a stack of boxes: its own ``range_box_loop``, and a raise."""
    box = range_box_loop(chart.Gamma)
    x, y = box[0], box[2]
    for j, (px, py) in enumerate(p.positions):
        d2 = (x - px).sqr() + (y - py).sqr()
        if d2.lo < delta_min ** 2:
            raise CollisionDomain(
                f"chart range box comes within {delta_min} of primary {j}")


# the masses of the benchmark's seeds 0-3
SEED_MASSES = (
    (0.5, 0.3, 0.2),
    (0.4996601795201282, 0.30022397151364016, 0.20011584896623164),
    (0.5001822588566572, 0.3001044339368187, 0.19971330720652408),
    (0.49988168849622433, 0.30011282470539313, 0.20000548679838254))


def _pilot_mag(G, n):
    """Largest sum of real and imaginary magnitudes in column n of G."""
    col = G.coefs[:, :, n]
    mags = np.maximum(np.abs(col.lo), np.abs(col.hi))
    return float(np.max(mags[0] + mags[1]))


def pilot_tau(arcs, m, p, M):
    """``advect.choose_tau`` as it was before the fill became its own
    pilot: each arc's tau from a separate fill of all the arcs at order
    (M, 8) and tau = 1, whose columns 6..8 give the trailing ratios; a
    ratio that is not finite is skipped, an arc with none keeps tau = 1,
    and tau is at least 1e-6.  The reference for automatic tau."""
    taus = []
    for G in ArcFill(arcs, m, p, (M, 8), [1.0] * len(arcs)).G:
        norms = [_pilot_mag(G, n) for n in range(9)]
        ratios = [r for r in (norms[k + 1] / norms[k] for k in (6, 7)
                              if norms[k] > 0.0)
                  if math.isfinite(r)]
        taus.append(max(max(ratios) / 0.5, 1e-6) if ratios else 1.0)
    return taus


def fresh_advect(atlas, piece, orders, tau, delta_min, tau_retries):
    """``Atlas.grow``'s advection of one piece as it was before a retry
    retimed the arc's one fill: one fresh ``flow_line`` per tau
    attempt.  With automatic tau, attempt j is a fresh automatic
    ``flow_line`` whose fill rescales its first columns to 2^j times
    the tau it reads from them, in place of that tau."""
    attempts = range(tau_retries + 1)
    reason = ""
    choose = advect.choose_tau
    for attempt in attempts:
        try:
            with mock.patch.object(advect, "choose_tau", lambda charts: [
                    t * 2.0 ** attempt for t in choose(charts)]):
                chart = flow_line(
                    piece.arc, atlas.m, atlas.p, orders=orders,
                    tau=None if tau is None else tau * 2.0 ** attempt,
                    source_arc=piece.arc_id, start_time=piece.arc_time)
            collision_loop(chart, atlas.p, delta_min=delta_min)
            return chart
        except CollisionDomain as err:
            reason = str(err)
    atlas.stop_reasons[piece.arc_id] = StopReason(
        message=reason, tau_attempts=len(attempts))
    return None


def one_arc_advect(atlas, piece, orders, tau, delta_min, tau_retries):
    """``Atlas.grow``'s advection of one piece as it was before one
    fill served a whole generation: a fill of the piece alone, at
    ``tau`` or at its automatic tau, retimed for every retry, and the
    per-chart references ``finish_one`` and ``collision_loop``."""
    fill = ArcFill([piece.arc], atlas.m, atlas.p, orders,
                   None if tau is None else [tau])
    reason = ""
    for attempt in range(tau_retries + 1):
        if attempt:
            fill.retime(0)
        try:
            chart = finish_one(fill, 0, source_arc=piece.arc_id,
                               start_time=piece.arc_time)
            collision_loop(chart, atlas.p, delta_min=delta_min)
            return chart
        except CollisionDomain as err:
            reason = str(err)
    atlas.stop_reasons[piece.arc_id] = StopReason(
        message=reason, tau_attempts=tau_retries + 1)
    return None


def _refined(atlas, rec, decay_tol, max_len, max_depth, depth=0):
    """The pieces of ``rec`` that remeshing advects, recording every
    half in ``atlas`` as it is cut, depth first."""
    if arc_decay(rec.arc) <= decay_tol and arc_length(rec.arc) <= max_len:
        return [rec]
    if depth >= max_depth:
        raise SubdivisionLimit(
            f"arc {rec.arc_id} still unfit after {max_depth} splits")
    out = []
    for half in subdivide_arc(rec.arc):
        arc_id = atlas._next_arc
        atlas._next_arc += 1
        child = ArcRecord(arc_id=arc_id, generation=rec.generation,
                          arc=half, arc_time=rec.arc_time,
                          parent_chart=rec.parent_chart,
                          split_from=rec.arc_id)
        atlas.arcs[arc_id] = child
        out.extend(_refined(atlas, child, decay_tol, max_len, max_depth,
                            depth + 1))
    return out


def piece_grow(atlas, generations=1, *, orders=(15, 50), tau=None,
               delta_min=0.05, decay_tol=0.1, max_len=0.5, max_depth=12,
               tau_retries=3, advect=one_arc_advect):
    """``Atlas.grow`` as it was before one fill served a whole
    generation: frontier arc by frontier arc, each is refined and each
    of its pieces advected on its own by ``advect``, with the same
    arguments as ``Atlas.grow``; with automatic tau, the default
    ``one_arc_advect`` fills each piece at the tau that its own fill
    reads from its first columns.  The reference for ``Atlas.grow``."""
    new_charts = []
    for _ in range(generations):
        frontier = [atlas.arcs[i] for i in atlas.frontier]
        atlas.frontier = []
        for rec in frontier:
            for piece in _refined(atlas, rec, decay_tol, max_len, max_depth):
                chart = advect(atlas, piece, orders, tau, delta_min,
                               tau_retries)
                if chart is None:
                    atlas.stopped.append(piece.arc_id)
                    continue
                chart_id = atlas._next_chart
                atlas._next_chart += 1
                atlas.charts[chart_id] = ChartRecord(
                    chart_id=chart_id, arc_id=piece.arc_id,
                    generation=piece.generation, chart=chart)
                new_charts.append(chart_id)
                atlas._add_arc(collapse_time_one(chart),
                               generation=piece.generation + 1,
                               arc_time=chart.accumulated_time,
                               parent_chart=chart_id)
    return new_charts


def _full_product_nodes(prog, inputs, orders):
    """Every node of the field program as a series, by exact full
    truncated Cauchy products: a product kept through the sum of its
    factors' orders, a sum through the largest of its terms', each
    clamped to ``orders``.  An interpreter independent of the column
    and degree fills of ``polyfield.FieldNodes``, for checking them."""
    OM, ON = orders
    nodes = list(inputs)
    for op in prog.ops:
        if isinstance(op, Mul):
            (ma, na), (mb, nb) = nodes[op.a].orders, nodes[op.b].orders
            nodes.append(cauchy_product(
                nodes[op.a], nodes[op.b],
                orders=(min(OM, ma + mb), min(ON, na + nb))))
            continue
        tm = max(nodes[k].orders[0] for _, k in op.terms)
        tn = max(nodes[k].orders[1] for _, k in op.terms)
        acc = ScalarSeries2.zeros(tm, tn)
        acc[0, 0] = CInterval(op.const)
        for c, k in op.terms:
            acc = acc + _fit(nodes[k], tm, tn) * c
        nodes.append(acc)
    return nodes


def _assert_overlap(*series):
    """Every coefficient enclosure of the series overlaps the others',
    on the largest grid, with zeros past a series' own grid."""
    M = max(s.orders[0] for s in series)
    N = max(s.orders[1] for s in series)
    grids = [_fit(s, M, N) for s in series]
    los = np.maximum.reduce([g.lo for g in grids])
    his = np.minimum.reduce([g.hi for g in grids])
    assert np.all(los <= his)


@pytest.fixture(scope="session")
def full_product_nodes():
    return _full_product_nodes


@pytest.fixture(scope="session")
def assert_overlap():
    return _assert_overlap
