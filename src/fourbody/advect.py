"""Rigorous Taylor advection of material lines.

A boundary arc gamma(s) is carried into a space-time chart
Gamma(s, t) = Phi(gamma(s), t / tau) by matching powers of the rescaled
time variable: tau dGamma/dt = F(Gamma) becomes the recursion
Gamma_{m,n+1} = b_mn / (tau (n + 1)), with b_mn the Cauchy-product
coefficients of the lifted polynomial field.  ``taylor_flow`` fills
K charts at once in place from their column 0, the arcs, and takes the
field as a ``b_column(n)`` callable that returns the t-order-n
coefficients of every component of every chart as one
``CIntervalArray`` of shape (K dim, M + 1), reading only columns 0..n
of the charts.  In production they come from
``polyfield.FieldNodes.b_column``, the series interpreter of the field
program on K copies of its node set, filled one time-order column at a
time, so the whole run costs the same as a single full Cauchy product
per node, and each level pass serves every chart.  An ``ArcFill``
holds that run and its interpreter, whose input rows are the charts;
an atlas generation is one ``ArcFill`` of all its arc pieces, its
``choose_tau`` pilots another, and a single arc is K = 1.  Its
``finish(k)`` hands the interpreter to ``polyfield.field_defect`` for
chart k's defect; the first finish fills the last column of every
chart's nodes.  A retry at doubled tau retimes chart k's rows of the
fill (``ArcFill.retime``), scaling column n of every node of that
chart, its input rows included, by 2^-n, so no column is computed
twice, across retries too.  ``flow_line`` is a fill of one arc and its
finish.

Error accounting is by defect: the sup of tau dGamma/dt - F(Gamma)
over the domain square measures how far the polynomial chart is from
solving the equation, and a Gronwall tube argument folds it, together
with the source arc's tail, into the chart tail.  A non-rigorous
high-order reference integrator cross-checks everything but never
enters certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .crfbp import MassTriple, PrimaryConfig, field_point
from .errors import CollisionDomain, StepFailure
from .interval import (
    CIntervalArray,
    Interval,
    IntervalArray,
    _gamma,
    _imul_arr,
    _ldexp_arr,
    _nonneg_upper,
    _pad_sum,
    _sum_ceil,
    matrix_norm,
)
from .manifold import BoundaryArc
from .polyfield import (DIM, FieldNodes, State7, field_defect,
                        field_program, poly_DF, poly_F_point)
from .taylor import Series2, _fit


@dataclass(frozen=True)
class FlowChart:
    """A space-time chart of an advected material line.

    ``Gamma`` is the dim-7 series on the square [-1, 1]^2; s runs
    along the source arc and t along the flow, rescaled so that t = 1
    lies 1 / tau flow-time units from the arc.  The sign of
    ``Gamma.tau`` records the advection direction: negative for stable
    charts, which grow in backward time.
    """

    Gamma: Series2
    kind: str
    defect: Optional[float] = None
    source_arc: Optional[int] = None
    accumulated_time: float = 0.0

    def __post_init__(self):
        if self.kind not in ("stable", "unstable"):
            raise ValueError(f"kind must be stable or unstable, got {self.kind}")
        if self.Gamma.dim != DIM:
            raise ValueError("flow chart series must have 7 components")

    @property
    def tau(self) -> float:
        return self.Gamma.tau

    @property
    def tail(self) -> float:
        return self.Gamma.tail


# ---------------------------------------------------------------------------
# the recursion engine


def taylor_flow(out: CIntervalArray, b_column: Callable[[int], CIntervalArray],
                taus: Sequence[float]) -> None:
    """Integrate tau_k dGamma_k/dt = F(Gamma_k) for K charts at once by
    the coefficient recursion, filling columns 1..N of ``out`` in place
    from its column 0, the initial lines.

    ``out`` has shape (K, dim, M + 1, N + 1), chart k at ``out[k]``,
    and ``taus[k]`` is chart k's time rescaling.  ``b_column(n)`` must
    return the field coefficients of t-order n of every chart as one
    CIntervalArray of shape (K dim, M + 1), row k dim + i for component
    i of chart k, reading only columns 0..n of ``out``; column n + 1 of
    chart k is then b_k / (tau_k (n + 1)), and all K are written by one
    stacked ``_imul_arr`` with the enclosures of 1 / (tau_k (n + 1)).
    Each entry gets the endpoints of its own interval product, so a
    chart's columns do not depend on the other charts; where a scale
    is exactly +-1 or +-2, they equal those of ``CIntervalArray``'s
    exact scaling up to the sign of a zero.  The field is supplied by
    the caller, so harness fields (constant, linear) exercise the
    engine exactly.
    """
    K, dim, rows, cols = out.shape
    N = cols - 1
    if N < 1:
        raise ValueError("time order N must be at least 1")
    if len(taus) != K:
        raise ValueError(f"{len(taus)} rescalings for {K} charts")
    if not all(tau != 0.0 and math.isfinite(tau) for tau in taus):
        raise ValueError("tau must be finite and nonzero")
    one = Interval.from_value(1.0)
    tau_ivs = [Interval.from_value(tau) for tau in taus]
    for n in range(N):
        invs = IntervalArray.of([one / (tau * float(n + 1))
                                 for tau in tau_ivs])
        b = b_column(n)
        out.lo[..., n + 1], out.hi[..., n + 1] = _imul_arr(
            b.lo.reshape(2, K, dim, rows), b.hi.reshape(2, K, dim, rows),
            invs.lo[:, None, None], invs.hi[:, None, None])


# ---------------------------------------------------------------------------
# arcs in, charts out


def _arc_column(arc: BoundaryArc, M: int) -> CIntervalArray:
    """Arc coefficients as an exactly real column padded to order M,
    shape (dim, M + 1).

    Arcs from ``boundary_mesh`` and ``collapse_time_one`` arrive real,
    with exactly zero imaginary grids.  Any arc passes
    ``Series2.real_part``: the true arc is a real-analytic curve, so
    every imaginary enclosure must straddle zero, or SymmetryViolation
    is raised, and is replaced by exact zero, which keeps all
    downstream grids exactly real.
    """
    Ma, Na = arc.gamma.orders
    if Na != 0:
        raise ValueError("boundary arc must have time order 0")
    if M < Ma:
        raise ValueError(f"spatial order {M} is below the arc order {Ma}")
    real = CIntervalArray.from_real(arc.gamma.real_part())
    return _fit(real, M, 0)[:, :, 0]


def _column_mag(G: Series2, n: int) -> float:
    """Largest sum of real and imaginary magnitudes in column n."""
    col = G.coefs[:, :, n]
    mags = np.maximum(np.abs(col.lo), np.abs(col.hi))
    return float(np.max(mags[0] + mags[1]))


# choose_tau's pilot order, the successive-column ratio it aims the
# production run at, and the least tau it returns
_N_PILOT = 8
_TARGET_RATIO = 0.5
_TAU_FLOOR = 1e-6


def choose_tau(arcs: Sequence[BoundaryArc], m: MassTriple,
               p: PrimaryConfig, M: int) -> list[float]:
    """Pick each arc's time rescaling from one short pilot fill of all
    the arcs.

    Column norms of a Taylor flow decay like (tau R)^-n with R the
    flow-time convergence radius, so running a pilot at tau = 1 and
    dividing the trailing column ratio by ``_TARGET_RATIO`` leaves the
    production run with successive-column ratios near the target.  The
    pilots are one ``ArcFill`` of the arcs, so each arc's tau is the
    one a pilot of that arc alone gives.
    """
    taus = []
    for G in ArcFill(arcs, m, p, (M, _N_PILOT), [1.0] * len(arcs)).G:
        norms = [_column_mag(G, n) for n in range(_N_PILOT + 1)]
        ratios = [norms[k + 1] / norms[k]
                  for k in range(_N_PILOT - 2, _N_PILOT) if norms[k] > 0.0]
        taus.append(max(max(ratios) / _TARGET_RATIO, _TAU_FLOOR)
                    if ratios else 1.0)
    return taus


class ArcFill:
    """One Taylor fill of a list of boundary arcs, and the charts made
    from it.

    ``ArcFill(arcs, m, p, orders, taus)`` runs ``taylor_flow`` once,
    arc k at the positive time rescaling ``taus[k]``, on one
    ``FieldNodes`` with one copy per arc that only this object holds,
    so every level pass serves all the arcs (a single arc is K = 1).
    ``G[k]``, arc k's chart series, is a view of copy k's input rows,
    so the charts and the inputs are one array; stable arcs advect in
    backward time, so ``G[k]`` carries the signed rescaling in its
    ``tau``, and the source arc's tail.  The interpreter decides
    real-ness for all the arcs together (``FieldNodes``): atlas arcs
    are exactly real, so each chart is bit-equal to that of a fill of
    its arc alone.  ``finish(k)`` makes arc k's chart: defect, Gronwall
    tube and ``FlowChart``.  ``retime(k)`` doubles arc k's tau without
    refilling, so a chart retried at 2^j tau costs j retimes, not j
    fills.
    """

    def __init__(self, arcs: Sequence[BoundaryArc], m: MassTriple,
                 p: PrimaryConfig, orders: tuple[int, int],
                 taus: Sequence[float]):
        arcs, taus = list(arcs), list(taus)
        if len(taus) != len(arcs):
            raise ValueError(f"{len(taus)} rescalings for {len(arcs)} arcs")
        if not all(tau > 0.0 for tau in taus):
            raise ValueError("tau must be positive")
        M, N = orders
        self.arcs, self.m, self.p = arcs, m, p
        self._nodes = FieldNodes(field_program(m, p), M, N, len(arcs))
        charts = self._nodes.blocks[:, :DIM]
        charts[:, :, :, 0] = CIntervalArray.of([_arc_column(arc, M)
                                                for arc in arcs])
        self.G = [Series2(charts[k], scale=arc.gamma.scale,
                          tau=-tau if arc.kind == "stable" else tau,
                          tail=arc.gamma.tail)
                  for k, (arc, tau) in enumerate(zip(arcs, taus))]
        taylor_flow(charts, self._nodes.b_column, [G.tau for G in self.G])

    def retime(self, k: int) -> None:
        """Double arc k's tau: column n of every node of copy k of the
        interpreter, the chart's input rows included, is scaled by
        2^-n; the other arcs' rows are left as they are.

        Theorem: G'(s, t) = G(s, t / 2) solves 2 tau dG'/dt = F(G')
        when G solves tau dG/dt = F(G), and, F being a polynomial,
        F(G')(s, t) = F(G)(s, t / 2), so column n of G' and of every
        node of F(G') is 2^-n times G's and F(G)'s.  The scaling is
        ``interval._ldexp_arr``: exact unless a result is subnormal,
        and then stepped one ulp outward.  So for every chart G in the
        fill's boxes, G' lies in the retimed boxes and the retimed node
        boxes enclose F(G')'s columns; the defect and tube ``finish``
        bounds then hold for the retime of every chart the fill
        encloses.  The columns the interpreter had filled stay filled,
        and ``finish`` adds only what is left.
        """
        G = self.G[k]
        tau = 2.0 * G.tau
        if not math.isfinite(tau):
            raise ValueError("tau must be finite and nonzero")
        rows = self._nodes.blocks[k]
        rows.lo[...], rows.hi[...] = _ldexp_arr(
            rows.lo, rows.hi, -np.arange(self._nodes.N + 1))
        G.tau = tau

    def finish(self, k: int, *, source_arc: Optional[int] = None,
               start_time: float = 0.0) -> FlowChart:
        """Arc k's chart at its current tau: the tail folds the source
        tail and the ODE defect through a Gronwall tube over the
        chart's range box.  The first finish of the fill fills the
        interpreter's last column for every arc, and the defect bounds
        arc k's copy only.  The chart holds a copy of the coefficients,
        so a later retime leaves it as it is.  Raises CollisionDomain if
        the tube does not close."""
        G, arc = self.G[k], self.arcs[k]
        defect = _defect_bound(self._nodes, G, k)
        tail = propagated_tail(self.m, self.p, G, arc.gamma.tail, defect)
        return FlowChart(Gamma=Series2(G.coefs.copy(), scale=G.scale,
                                       tau=G.tau, tail=tail),
                         kind=arc.kind, defect=defect,
                         source_arc=source_arc,
                         accumulated_time=start_time + 1.0 / G.tau)


def flow_line(arc: BoundaryArc, m: MassTriple, p: PrimaryConfig,
              orders: tuple[int, int] = (15, 50),
              tau: Optional[float] = None, *,
              source_arc: Optional[int] = None,
              start_time: float = 0.0) -> FlowChart:
    """Advect a boundary arc into a space-time chart: one ``ArcFill``
    of the arc alone and its ``finish``.

    ``tau`` is the positive time rescaling; stable arcs advect in
    backward time, recorded by the sign of the stored ``Gamma.tau``.
    When omitted it is chosen so the trailing column ratio is about
    one half.
    """
    if tau is None:
        tau, = choose_tau([arc], m, p, orders[0])
    return ArcFill([arc], m, p, orders, [tau]).finish(
        0, source_arc=source_arc, start_time=start_time)


# ---------------------------------------------------------------------------
# defect accounting


def _defect_bound(cols: FieldNodes, G: Series2, k: int = 0) -> float:
    """``polyfield.field_defect`` for the chart G in the input rows of
    copy k of ``cols``, with left-hand side tau dGamma/dt: column n is
    tau (n + 1) Gamma[:, n + 1], one stacked product of G's columns
    1..N with the scalar enclosures of tau (n + 1), and column N is
    zero."""
    M, N = G.orders
    tau_iv = Interval.from_value(G.tau)
    scales = IntervalArray.of([tau_iv * float(n + 1) for n in range(N)])
    lhs = CIntervalArray.zeros((DIM, M + 1, N + 1))
    lhs.lo[..., :N], lhs.hi[..., :N] = _imul_arr(
        G.coefs.lo[..., 1:], G.coefs.hi[..., 1:], scales.lo, scales.hi)
    return field_defect(cols, lhs, k)


# tiles per side of the range box's sample grid, and the tile centers
_TILES = 64
_CENTERS = np.linspace(-1.0 + 1.0 / _TILES, 1.0 - 1.0 / _TILES, _TILES)


def _tile_samples(mid: np.ndarray) -> tuple[np.ndarray, float]:
    """Float samples of p(x, y) = sum_mn mid_mn x^m y^n, for float
    coefficients ``mid`` of shape (M + 1, N + 1), at every pair of tile
    centers (x at row i, y at column j), and a bound on every sample's
    distance from the exact p at the same float centers.

    The samples are (V_x mid) V_y^T, with ``np.vander`` powers.
    Theorem: each exact summand mid_mn x^m y^n passes through at most
    k = 2 (M + N) + 2 roundings: m - 1 in the power x^m (a running
    product), one in its product with mid_mn, M in the sum over m, as
    many again in y and n.  Each rounding is a factor (1 + delta),
    |delta| <= u, or, for a result in the subnormal range, an absolute
    error of at most 2^-1075 (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sec. 2.2); FMAs and any summation
    order only round less.  The centers have modulus below 1, so every
    power is at most 1, and at least 64^-170 > 2^-1022, never
    subnormal, while M, N <= 170.  So a sample is off by at most
    gamma_k sum_mn |mid_mn| from the roundings, plus 2^-1074 for each
    of the ops = (N + 1)(2 M + 1) + 2 N + 1 products and sums of a
    sample, since an absolute error is afterwards only multiplied by
    powers of modulus at most 1 and by factors (1 + delta).  The sum
    of |mid_mn| and that bound are evaluated by
    ``interval._nonneg_upper``, which rounds them up.
    """
    M, N = mid.shape[0] - 1, mid.shape[1] - 1
    VS = np.vander(_CENTERS, M + 1, increasing=True)
    VT = np.vander(_CENTERS, N + 1, increasing=True)
    vals = VS @ mid @ VT.T
    ops = (N + 1) * (2 * M + 1) + 2 * N + 1
    mass = _nonneg_upper(float(np.sum(np.abs(mid))), mid.size)
    return vals, _nonneg_upper(_gamma(2 * (M + N) + 2) * mass, 1, ops + 1)


def range_box(G: Series2) -> IntervalArray:
    """Enclosure of the chart's real range over the domain square.

    Interval Horner is uselessly wide at these orders, so the box
    comes from float samples of the coefficient-midpoint polynomial at
    tile centers (``_tile_samples``), padded by a slack that bounds the
    distance of every point value of the chart from the nearest sample.
    Theorem: every point of the square lies within h = 1 / _TILES of a
    float center in each variable, so, for coefficients a in their
    boxes, the mean-value theorem and |s|, |t| <= 1 give
    |P_a(s, t) - P_a(c)| <= h sum_mn (m + n) |a_mn|, which ``sups``
    bounds by the magnitudes; h carries a factor 1 + 1e-12, which
    covers both the float centers' distance from the exact tile centers
    and the rounding of that sum while it has under 8000 terms
    (gamma_8002 < 9e-13).  |P_a(c) - P_mid(c)| is at most
    sum |a_mn - mid_mn|, bounded by ``radii`` from the float midpoints
    themselves, and the float sample is within ``_tile_samples``'s
    bound of P_mid(c).  The chart tail covers the truncation.  The
    terms are summed upward, and the box ends are stepped outward.
    Raises ValueError for grids beyond those limits.
    """
    M, N = G.orders
    if (M + 1) * (N + 1) >= 8000 or max(M, N) > 170:
        raise ValueError(f"chart orders {G.orders} exceed the range "
                         "box's rounding analysis")
    h = (1.0 / _TILES) * (1.0 + 1e-12)
    mrow = np.arange(M + 1, dtype=float)[:, None]
    ncol = np.arange(N + 1, dtype=float)[None, :]
    out = []
    # the chart is real: only the real parts enter
    for lo, hi in zip(G.coefs.lo[0], G.coefs.hi[0]):
        mid = 0.5 * (lo + hi)
        vals, fperr = _tile_samples(mid)
        mags = np.maximum(np.abs(lo), np.abs(hi))
        sups = h * float(np.sum((mrow + ncol) * mags))
        # the rounded midpoint lies in [lo, hi], so both differences
        # are nonnegative
        radii = _nonneg_upper(float(np.sum(np.maximum(hi - mid, mid - lo))),
                              mid.size)
        slack = _sum_ceil(_sum_ceil(_sum_ceil(sups, radii), fperr), G.tail)
        out.append(Interval(
            math.nextafter(float(np.min(vals)) - slack, -math.inf),
            math.nextafter(float(np.max(vals)) + slack, math.inf)))
    return IntervalArray.of(out)


def propagated_tail(m: MassTriple, p: PrimaryConfig, G: Series2,
                    source_tail: float, defect: float) -> float:
    """Gronwall tube bound for the chart's distance to the true flow.

    With eps0 the source-arc tail, D the defect and L a Jacobian
    inf-norm bound over the range box inflated by a tube radius delta,
    err(T) <= eps0 e^(L T) + D (e^(L T) - 1) / L over the chart's
    flow-time span T = 1 / |tau|.  The bound is valid once it is below
    delta, since the true trajectories then never leave the tube; the
    radius is inflated geometrically until that closes.
    """
    box = range_box(G)
    T = Interval.from_value(1.0) / Interval.from_value(abs(G.tau))
    eps0 = Interval.from_value(source_tail)
    D = Interval.from_value(defect)
    delta = max(1e-9, 8.0 * (source_tail + defect))
    for _ in range(40):
        pad = Interval(-delta, delta)
        fat = State7(tuple(box[i] + pad for i in range(DIM)))
        L = matrix_norm(poly_DF(m, p, fat))
        if (L * T).hi > 700.0:
            # exp would overflow, and wider tubes only grow faster
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
    raise CollisionDomain(
        "Gronwall tube failed to close; the chart's range box is too "
        "large or too close to a primary for a useful Jacobian bound")


def check_collision(chart: FlowChart, p: PrimaryConfig,
                    delta_min: float = 0.05) -> None:
    """Reject charts whose position range approaches a primary.

    Near-collisions blow up the reciprocal-distance components and
    erode every downstream bound; raising here lets an atlas drop or
    subdivide the offending chart.  The squared distance uses
    ``Interval.sqr``, whose lower end is nonnegative; dx * dx has a
    negative lower end whenever the x range straddles the primary's x.
    """
    box = range_box(chart.Gamma)
    x, y = box[0], box[2]
    for j, (px, py) in enumerate(p.positions):
        dx = x - px
        dy = y - py
        d2 = dx.sqr() + dy.sqr()
        if d2.lo < delta_min ** 2:
            raise CollisionDomain(
                f"chart range box comes within {delta_min} of primary {j}")


# ---------------------------------------------------------------------------
# frontier restriction


def collapse_time_one(chart: FlowChart) -> BoundaryArc:
    """Restrict a chart to its forward time edge t = 1 as a new arc.

    The s-coefficients of Gamma(s, 1) are the grid's row sums, one
    padded sum over the t axis of the stacked coefficients; the chart
    tail bounds the whole square, so the arc inherits it unchanged.
    The preimage is no longer a chord, so none is stored.
    """
    G = chart.Gamma
    lo, hi = _pad_sum(G.coefs.lo, G.coefs.hi, axis=-1)
    gamma = Series2(CIntervalArray(lo[..., None], hi[..., None]),
                    scale=G.scale, tail=G.tail)
    return BoundaryArc(gamma=gamma, kind=chart.kind, preimage=None)


# ---------------------------------------------------------------------------
# reference integration (oracle only)


def reference_integrate(state, t: float, m: MassTriple, p: PrimaryConfig,
                        tol: float = 1e-12,
                        collision_radius: float = 1e-5) -> np.ndarray:
    """Adaptive high-order float integration for cross-checks.

    ``state`` is the reduced (x, xdot, y, ydot) or the lifted
    7-component vector; the dimension picks the field.  Results never
    enter certificates.  SciPy is imported here, its one use, so that
    importing the package does not load it.
    """
    from scipy.integrate import solve_ivp

    y0 = np.asarray(state, dtype=float)
    pos = p.position_array()
    masses = np.array(m.as_floats())
    if y0.shape == (4,):
        def rhs(_t, y):
            return field_point(pos, masses, y)
    elif y0.shape == (7,):
        def rhs(_t, y):
            return poly_F_point(pos, masses, y)
    else:
        raise ValueError(f"state must have 4 or 7 components, got {y0.shape}")
    for j in range(3):
        if np.hypot(y0[0] - pos[j, 0], y0[2] - pos[j, 1]) < collision_radius:
            raise CollisionDomain(f"initial state is on top of primary {j}")
    if t == 0.0:
        return y0.copy()
    events = []
    for j in range(3):
        def ev(_t, y, xj=pos[j, 0], yj=pos[j, 1]):
            return (y[0] - xj) ** 2 + (y[2] - yj) ** 2 - collision_radius ** 2
        ev.terminal = True
        ev.direction = -1.0
        events.append(ev)
    sol = solve_ivp(rhs, (0.0, float(t)), y0, method="DOP853",
                    rtol=tol, atol=tol, events=events)
    if sol.status == 1:
        raise CollisionDomain(
            f"trajectory entered the {collision_radius} neighborhood "
            "of a primary")
    if not sol.success:
        raise StepFailure(sol.message)
    return sol.y[:, -1]
