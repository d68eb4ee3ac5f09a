"""Rigorous Taylor advection of material lines.

A boundary arc gamma(s) is carried into a space-time chart
Gamma(s, t) = Phi(gamma(s), t / tau) by matching powers of the rescaled
time variable: tau dGamma/dt = F(Gamma) becomes the recursion
Gamma_{m,n+1} = b_mn / (tau (n + 1)), with b_mn the Cauchy-product
coefficients of the lifted polynomial field.  ``taylor_flow`` fills
K charts at once in place from their column 0, the arcs, and takes the
field as a ``b_column(n)`` callable that returns the t-order-n
coefficients of every component of every chart as one array of the
charts' type and shape (K, dim, M + 1), reading only columns 0..n of
the charts.  In production they come from
``polyfield.FieldNodes.b_column``, the series interpreter of the field
program, whose K copies of the node set ride a leading batch axis:
chart k is copy k's input rows, and every node of copy k a grid of
``G[k]``.  It is filled one time-order column at a time, so the whole
run costs the same as a single full Cauchy product per node, and each
level pass serves every chart.  An ``ArcFill`` holds that run and its
interpreter; an atlas generation is one ``ArcFill`` of all its arc
pieces, and a single arc is K = 1.  Its store and charts are real,
from each arc's real parts (``_arc_columns``), until ``finish`` wraps a
chart in a ``Series2``.  With automatic tau the fill is its own pilot:
it makes columns 0..``_N_PILOT`` at tau = +-1, reads each arc's tau
from them (``choose_tau``), rescales them to it by outward enclosures
of tau^-n and fills the rest of each chart at its tau.
Its ``finish(copies)`` makes the charts of any list of its arcs at
once, each step one stacked pass over the list, the arcs on the
leading axis: the defects from the interpreter
(``polyfield.field_defect``; the first finish fills the last column of
every chart's nodes), the range boxes from one stacked sampling
(``range_box``), the Gronwall tubes from one stacked Jacobian pass per
batch of radii (``propagated_tail``) and the collision guard
(``check_collision``) over the same samples.  A retry at doubled tau
retimes chart k's copy ``G[k]`` of the fill (``ArcFill.retime``),
scaling column n of every node of that chart, its input rows included,
by 2^-n, so no column is computed twice, across retries too; an atlas
finishes all the retries of one round together.  ``flow_line`` is a
fill of one arc and its finish.

Error accounting is by defect: the sup of tau dGamma/dt - F(Gamma)
over the domain square measures how far the polynomial chart is from
solving the equation, and a Gronwall tube argument folds it, together
with the source arc's tail, into the chart tail.  A non-rigorous
high-order reference integrator cross-checks everything but never
enters certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .crfbp import MassTriple, PrimaryConfig, field_point
from .errors import CollisionDomain, StepFailure
from .interval import (
    CIntervalArray,
    Interval,
    IntervalArray,
    _directed_sum,
    _gamma,
    _iadd_arr,
    _imul_arr,
    _irecip_arr,
    _iscale_arr,
    _ldexp_arr,
    _nonneg_upper,
    _pad_sum,
    _parts,
    matrix_norm,
)
from .manifold import BoundaryArc
from .polyfield import (DIM, FieldNodes, field_defect, field_program, poly_DF,
                        poly_F_point)
from .taylor import Series2


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


def taylor_flow(out: IntervalArray | CIntervalArray,
                b_column: Callable[[int], IntervalArray | CIntervalArray],
                taus: Sequence[float], start: int = 0) -> None:
    """Integrate tau_k dGamma_k/dt = F(Gamma_k) for K charts at once by
    the coefficient recursion, filling columns start + 1..N of ``out``
    in place from its columns 0..start: the initial lines, and for
    ``start`` > 0 the columns a fill has made so far.

    ``out`` has shape (K, dim, M + 1, N + 1), chart k at ``out[k]``,
    real or complex, and ``taus[k]`` is chart k's time rescaling.
    ``b_column(n)`` must return the field coefficients of t-order n of
    every chart as one array of ``out``'s type and of shape
    (K, dim, M + 1), entry (k, i) for component i of chart k, reading
    only columns 0..n of ``out``; it is called for n = start..N - 1,
    and column n + 1 of chart k is then b_k / (tau_k (n + 1)), every
    part of all K written by one stacked ``_imul_arr`` with the
    enclosures of 1 / (tau_k (n + 1)), all K N of them formed before
    the first column by one stacked product (``_time_scales``) and one
    stacked directed reciprocal (``interval._irecip_arr``), each equal
    to the scalar ``1 / (tau * (n + 1))`` of ``Interval`` inside the
    guards of those kernels.  Each entry gets the endpoints of its own
    interval product, so a chart's columns do not depend on the other
    charts;
    where a scale is exactly +-1 or +-2, they equal those of
    ``CIntervalArray``'s exact scaling up to the sign of a zero.  The
    field is supplied by the caller, so harness fields (constant,
    linear) exercise the engine exactly.  Raises ValueError unless
    0 <= start <= N, or a column's parts are not ``out``'s.
    """
    K, N = out.shape[0], out.shape[-1] - 1
    if N < 1:
        raise ValueError("time order N must be at least 1")
    if not 0 <= start <= N:
        raise ValueError(f"start column {start} is off the time orders "
                         f"0..{N}")
    if len(taus) != K:
        raise ValueError(f"{len(taus)} rescalings for {K} charts")
    if not all(tau != 0.0 and math.isfinite(tau) for tau in taus):
        raise ValueError("tau must be finite and nonzero")
    inv_lo, inv_hi = _irecip_arr(*_time_scales(taus, N))
    olo, ohi = _parts(out)
    for n in range(start, N):
        blo, bhi = _parts(b_column(n))
        olo[..., n + 1], ohi[..., n + 1] = _imul_arr(
            blo.reshape(olo.shape[:-1]), bhi.reshape(olo.shape[:-1]),
            inv_lo[:, n, None, None], inv_hi[:, n, None, None])


def _time_scales(taus: Sequence[float], N: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Enclosures of tau_k (n + 1) for every rescaling tau_k and
    n = 0..N - 1, as lo and hi of shape (K, N): one stacked point
    product by ``_imul_arr``.  Inside its guard, |tau| < 1e150 and
    1e-200 < |tau (n + 1)| < 1e200, each entry is the floor and the
    ceil of the exact product, as the scalar ``Interval`` product
    gives; outside it, at most one ulp wider."""
    t, n = np.broadcast_arrays(np.asarray(taus, dtype=float)[:, None],
                               np.arange(1.0, N + 1.0))
    return _imul_arr(t, t, n, n)


# ---------------------------------------------------------------------------
# arcs in, charts out


def _arc_columns(arcs: Sequence[BoundaryArc], M: int) -> IntervalArray:
    """The arcs as real time-0 columns padded with zeros to order M,
    shape (arcs, DIM, M + 1, 1): the one place where arcs become real.

    Arcs from ``boundary_mesh`` and ``collapse_time_one`` arrive real,
    with exactly zero imaginary grids.  Any arc passes
    ``Series2.real_part``: the true arc is a real-analytic curve, so
    every imaginary enclosure must straddle zero, or SymmetryViolation
    is raised, and the real parts go on.
    """
    lo, hi = np.zeros((2, len(arcs), DIM, M + 1, 1))
    for k, arc in enumerate(arcs):
        Ma, Na = arc.gamma.orders
        if Na != 0:
            raise ValueError("boundary arc must have time order 0")
        if M < Ma:
            raise ValueError(f"spatial order {M} is below the arc order {Ma}")
        re = arc.gamma.real_part()
        lo[k, :, : Ma + 1], hi[k, :, : Ma + 1] = re.lo, re.hi
    return IntervalArray(lo, hi)


# the columns an automatic-tau fill makes at tau = +-1 before it picks
# tau, the successive-column ratio it aims the rest of the fill at, and
# the least tau it picks
_N_PILOT = 8
_TARGET_RATIO = 0.5
_TAU_FLOOR = 1e-6


def choose_tau(charts: IntervalArray) -> list[float]:
    """Each chart's time rescaling from its columns 0..``_N_PILOT``,
    which a fill has made at tau = +-1, for a real chart stack.

    Column norms of a Taylor flow decay like (tau R)^-n with R the
    flow-time convergence radius, so dividing the trailing column ratio
    of a tau = 1 fill by ``_TARGET_RATIO`` leaves a fill at the
    returned tau with successive-column ratios near the target (the
    usual step rule of Taylor methods; Jorba and Zou, Exp. Math. 14
    (2005)).  A chart's tau reads only its own columns.  A quotient
    ratio / ``_TARGET_RATIO`` that is not finite, as from columns that
    overflow, is skipped, and a chart left with none gets tau = 1, as
    an all-zero one does; its chart then fails its tube or guard.  A
    heuristic: it picks tau and bounds nothing.
    """
    norms = charts[..., _N_PILOT - 2: _N_PILOT + 1].mag().max(axis=(1, 2))
    taus = []
    for a, b, c in norms.tolist():
        quotients = [q for q in (y / x / _TARGET_RATIO
                                 for x, y in ((a, b), (b, c)) if x > 0.0)
                     if math.isfinite(q)]
        taus.append(max(max(quotients), _TAU_FLOOR) if quotients else 1.0)
    return taus


def _power_bounds(taus: Sequence[float], n: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The floor and the ceil of tau_k^-j for j = 1..n, as lo and hi of
    shape (K, n), for finite tau_k > 0 with tau_k^-n inside the float
    range: each power is an exact rational, whose nearest float
    ``float`` gives (integer true division rounds correctly), stepped
    to the floor or the ceil where it falls on the wrong side, so lo
    and hi are at most one ulp apart.  ``fractions`` is imported here,
    its one use, so that importing the package does not load it."""
    from fractions import Fraction

    lo, hi = np.empty((2, len(taus), n))
    for k, tau in enumerate(taus):
        r = 1 / Fraction(tau)
        q = Fraction(1)
        for j in range(n):
            q *= r
            x = float(q)
            lo[k, j] = x if Fraction(x) <= q else math.nextafter(x, -math.inf)
            hi[k, j] = x if Fraction(x) >= q else math.nextafter(x, math.inf)
    return lo, hi


class ArcFill:
    """One Taylor fill of a list of boundary arcs, and the charts made
    from it.

    ``ArcFill(arcs, m, p, orders, taus)`` runs ``taylor_flow`` on one
    ``FieldNodes`` with one copy per arc that only this object holds,
    so every level pass serves all the arcs (a single arc is K = 1):
    arc k at the positive time rescaling ``taus[k]``, or, for ``taus``
    None, at the one that ``choose_tau`` reads from the fill's own
    first columns.  Then the fill makes columns 0..``_N_PILOT`` at
    tau = +-1, picks each arc's tau from its chart, rescales those
    columns to it (``_rescale``) and goes on from column ``_N_PILOT``
    at the picked taus, so one fill is both the pilot and the chart,
    and each arc's tau is the one a tau = 1 fill of columns
    0..``_N_PILOT`` of that arc alone gives, since column n reads only
    columns 0..n; it needs N >= ``_N_PILOT``, or ValueError is
    raised.  ``charts``, the real store's input rows of shape
    (K, DIM, M + 1, N + 1), hold arc k's chart at ``charts[k]``, and
    ``taus[k]`` is its signed rescaling, negative for a stable arc,
    which advects in backward time.  Each chart is bit-equal to that of a
    fill of its arc alone, with the same ``taus`` or both automatic.
    ``finish(copies)`` makes the charts of a list of arcs together:
    their defects, range boxes, Gronwall tubes and collision guards,
    each as one stacked pass over the list.  ``retime(k)`` doubles arc
    k's tau without refilling, so a chart retried at 2^j tau costs j
    retimes, not j fills, and an atlas finishes all its retries of one
    round in one call.
    """

    def __init__(self, arcs: Sequence[BoundaryArc], m: MassTriple,
                 p: PrimaryConfig, orders: tuple[int, int],
                 taus: Optional[Sequence[float]] = None):
        arcs = list(arcs)
        M, N = orders
        if taus is None:
            if N < _N_PILOT:
                raise ValueError(f"automatic tau needs time order N >= "
                                 f"{_N_PILOT}, got {N}")
        else:
            taus = list(taus)
            if len(taus) != len(arcs):
                raise ValueError(f"{len(taus)} rescalings for {len(arcs)} "
                                 "arcs")
            if not all(tau > 0.0 for tau in taus):
                raise ValueError("tau must be positive")
        self.arcs, self.m, self.p = arcs, m, p
        self._nodes = FieldNodes(field_program(m, p), _arc_columns(arcs, M),
                                 M, N)
        self.charts = self._nodes.G[:, :DIM]
        self.taus = [(-1.0 if arc.kind == "stable" else 1.0)
                     * (1.0 if taus is None else taus[k])
                     for k, arc in enumerate(arcs)]
        start = 0
        if taus is None:
            pilot = self.charts[..., :_N_PILOT + 1]
            taylor_flow(pilot, self._nodes.b_column, self.taus)
            self._rescale(choose_tau(pilot))
            start = _N_PILOT
        taylor_flow(self.charts, self._nodes.b_column, self.taus, start)

    def _rescale(self, taus: Sequence[float]) -> None:
        """Take every arc k from tau = +-1 to +-``taus[k]``: columns
        1..``_N_PILOT`` of every node of copy k of the interpreter, the
        chart's input rows included, scaled by an enclosure of
        taus[k]^-n (``_power_bounds``), all copies in one stacked
        ``interval._iscale_arr``.  Column 0, the arc, is left as it is.

        Theorem (``retime``'s, for any ratio): with sigma = +-1 the
        direction and tau = ``taus[k]``, G'(s, t) = G(s, t / tau)
        solves sigma tau dG'/dt = F(G') when G solves
        sigma dG/dt = F(G), and, F being a polynomial,
        F(G')(s, t) = F(G)(s, t / tau), so column n of G' and of every
        node of F(G') is tau^-n times G's and F(G)'s.  The scaling
        rounds outward, so for every chart G in the fill's boxes, G'
        lies in the rescaled boxes and the rescaled node boxes enclose
        F(G')'s columns 0..``_N_PILOT`` - 1, all the fill has made of
        them; the columns the fill goes on to make at tau, and the
        defect and tube ``finish`` bounds, then hold for the rescale of
        every chart the fill encloses.  Each scaled end is the floor or
        the ceil of its exact product inside ``_iscale_arr``'s residual
        guard, so a tau of 1 leaves every entry there as it is.  The
        interpreter's kept factor ends of the scaled columns are
        dropped (``FieldNodes.drop_ends``), so the next column sorts
        them again.  Raises ValueError, before any column is scaled,
        for a tau that is not finite."""
        if not all(math.isfinite(tau) for tau in taus):
            raise ValueError("tau must be finite and nonzero")
        slo, shi = _power_bounds(taus, _N_PILOT)
        at = (Ellipsis, slice(1, _N_PILOT + 1))
        G = self._nodes.G
        G.lo[at], G.hi[at] = _iscale_arr(
            G.lo[at], G.hi[at], slo[:, None, None], shi[:, None, None])
        self._nodes.drop_ends()
        self.taus = [sigma * tau for sigma, tau in zip(self.taus, taus)]

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
        and ``finish`` adds only what is left; their kept factor ends
        are dropped (``FieldNodes.drop_ends``), so a retime before the
        first finish sorts them again when it fills the last column.
        """
        tau = 2.0 * self.taus[k]
        if not math.isfinite(tau):
            raise ValueError("tau must be finite and nonzero")
        G = self._nodes.G
        G.lo[k], G.hi[k] = _ldexp_arr(G.lo[k], G.hi[k],
                                      -np.arange(self._nodes.N + 1))
        self._nodes.drop_ends()
        self.taus[k] = tau

    def finish(self, copies: Sequence[int], *,
               start_times: Optional[Sequence[float]] = None,
               delta_min: Optional[float] = None
               ) -> list[FlowChart | CollisionDomain]:
        """The charts of arcs ``copies`` at their current taus, in that
        order: for each, a ``FlowChart`` or the ``CollisionDomain`` that
        refuses it.

        The first finish of the fill fills the interpreter's last
        column for every arc (``field_defect``).  Then, each as one
        stacked pass over the copies: the defects (``_defect_bounds``),
        the range boxes before their tails (``range_box``), the
        Gronwall tubes over those boxes padded by the source tails
        (``propagated_tail``), and, when ``delta_min`` is given, the
        collision guard (``check_collision``) of every chart whose tube
        closed, over the same samples padded by its own tail.  Every
        step treats the copies entrywise, so each outcome is that of
        finishing its arc alone.  A chart's ``Gamma`` holds a copy of
        the coefficients, so a later retime leaves it as it is; its
        ``source_arc`` is left to the caller.  ``start_times`` gives the
        flow time of each chart's arc (default 0)."""
        copies = list(copies)
        if start_times is None:
            start_times = [0.0] * len(copies)
        arcs = [self.arcs[k] for k in copies]
        taus = [self.taus[k] for k in copies]
        arc_tails = [arc.gamma.tail for arc in arcs]
        defects = _defect_bounds(self._nodes, copies, taus)
        charts = self.charts[copies]
        ranges = range_box(charts)
        tails = propagated_tail(self.m, self.p, ranges.padded(arc_tails),
                                taus, arc_tails, defects)
        out: list[FlowChart | CollisionDomain] = [
            tail if isinstance(tail, CollisionDomain) else FlowChart(
                Gamma=Series2.from_real(charts[j], scale=arc.gamma.scale,
                                        tau=tau, tail=tail),
                kind=arc.kind, defect=float(defect),
                accumulated_time=start + 1.0 / tau)
            for j, (arc, tau, tail, defect, start) in enumerate(zip(
                arcs, taus, tails, defects, start_times))]
        if delta_min is not None:
            closed = [j for j, chart in enumerate(out)
                      if isinstance(chart, FlowChart)]
            boxes = ranges.padded([chart.tail if j in closed else 0.0
                                   for j, chart in enumerate(out)])
            for j, err in zip(closed, check_collision(boxes[closed], self.p,
                                                      delta_min)):
                if err is not None:
                    out[j] = err
        return out


def flow_line(arc: BoundaryArc, m: MassTriple, p: PrimaryConfig,
              orders: tuple[int, int] = (15, 50),
              tau: Optional[float] = None, *,
              source_arc: Optional[int] = None,
              start_time: float = 0.0) -> FlowChart:
    """Advect a boundary arc into a space-time chart: one ``ArcFill``
    of the arc alone and its ``finish``, whose CollisionDomain is
    raised.

    ``tau`` is the positive time rescaling; stable arcs advect in
    backward time, recorded by the sign of the stored ``Gamma.tau``.
    When omitted, the fill picks it from its own first columns
    (``ArcFill`` with ``taus`` None), so the trailing column ratio is
    about one half; that needs N >= ``_N_PILOT``.
    """
    chart, = ArcFill([arc], m, p, orders,
                     None if tau is None else [tau]).finish(
        [0], start_times=[start_time])
    if isinstance(chart, CollisionDomain):
        raise chart
    return replace(chart, source_arc=source_arc)


# ---------------------------------------------------------------------------
# defect accounting


def _defect_bounds(cols: FieldNodes, copies: Sequence[int],
                   taus: Sequence[float]) -> np.ndarray:
    """``polyfield.field_defect`` for the charts in the input rows of
    ``copies`` of ``cols``, at the signed rescalings ``taus``, with
    left-hand sides tau dGamma/dt: column n of copy j's is
    tau_j (n + 1) Gamma[:, n + 1], and column N is zero.  All of them
    are one stacked real ``_imul_arr`` of the charts' columns 1..N with
    the enclosures of tau_j (n + 1) from ``_time_scales``."""
    N = cols.N
    slo, shi = _time_scales(taus, N)
    lo, hi = np.zeros((2, len(copies), DIM, cols.M + 1, N + 1))
    lo[..., :N], hi[..., :N] = _imul_arr(
        cols.G.lo[copies, :DIM, :, 1:], cols.G.hi[copies, :DIM, :, 1:],
        slo[:, None, None], shi[:, None, None])
    return field_defect(cols, IntervalArray._wrap(lo, hi), copies)


# tiles per side of the range box's sample grid, and the tile centers
_TILES = 64
_CENTERS = np.linspace(-1.0 + 1.0 / _TILES, 1.0 - 1.0 / _TILES, _TILES)


def _grid_sums(x: np.ndarray) -> np.ndarray:
    """Float sums of x over its last two axes, one per grid: a
    contiguous sum of each grid, in the order ``np.sum`` gives one grid
    alone."""
    return np.ascontiguousarray(x).reshape(x.shape[:-2] + (-1,)).sum(-1)


def _tile_samples(mid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float samples of p(x, y) = sum_mn mid_mn x^m y^n, for float
    coefficients ``mid`` of shape (..., M + 1, N + 1), a stack of grids,
    at every pair of tile centers (x at row i, y at column j), and a
    bound on every sample's distance from the exact p at the same
    float centers, one per grid.

    The samples are (V_x mid) V_y^T, with ``np.vander`` powers, as one
    stacked matrix product.  Theorem: each exact summand
    mid_mn x^m y^n passes through at most k = 2 (M + N) + 2 roundings:
    m - 1 in the power x^m (a running product), one in its product
    with mid_mn, M in the sum over m, as many again in y and n.  Each
    rounding is a factor (1 + delta), |delta| <= u, or, for a result in
    the subnormal range, an absolute error of at most 2^-1075 (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 2.2);
    FMAs and any summation order only round less.  The centers have
    modulus below 1, so every power is at most 1, and at least
    64^-170 > 2^-1022, never subnormal, while M, N <= 170.  So a sample
    is off by at most gamma_k sum_mn |mid_mn| from the roundings, plus
    2^-1074 for each of the ops = (N + 1)(2 M + 1) + 2 N + 1 products
    and sums of a sample, since an absolute error is afterwards only
    multiplied by powers of modulus at most 1 and by factors
    (1 + delta).  The sum of |mid_mn| and that bound are evaluated by
    ``interval._nonneg_upper``, which rounds them up.
    """
    M, N = mid.shape[-2] - 1, mid.shape[-1] - 1
    VS = np.vander(_CENTERS, M + 1, increasing=True)
    VT = np.vander(_CENTERS, N + 1, increasing=True)
    vals = VS @ mid @ VT.T
    ops = (N + 1) * (2 * M + 1) + 2 * N + 1
    mass = _nonneg_upper(_grid_sums(np.abs(mid)), (M + 1) * (N + 1))
    return vals, _nonneg_upper(_gamma(2 * (M + N) + 2) * mass, 1, ops + 1)


@dataclass(frozen=True)
class RangeBoxes:
    """The range boxes of a stack of charts before their tails: per
    chart and component, the least and the greatest float sample
    ``lo`` and ``hi`` and the ``slack`` that puts every point value of
    the polynomial part within [lo - slack, hi + slack], each of shape
    (charts, DIM)."""

    lo: np.ndarray
    hi: np.ndarray
    slack: np.ndarray

    def padded(self, tails: Sequence[float]) -> IntervalArray:
        """The boxes of the charts with the given tails, shape
        (charts, DIM): the slack plus the tail, rounded up, and both
        ends stepped outward.  A component whose samples or padded
        slack are not finite, as after an overflow, is unbounded, which
        encloses anything."""
        s = _directed_sum(self.slack, np.asarray(tails, dtype=float)[:, None],
                          1)
        with np.errstate(invalid="ignore"):
            lo = np.nextafter(self.lo - s, -np.inf)
            hi = np.nextafter(self.hi + s, np.inf)
        bad = ~(np.isfinite(self.lo) & np.isfinite(self.hi) & np.isfinite(s))
        return IntervalArray(np.where(bad, -np.inf, lo),
                             np.where(bad, np.inf, hi))


def range_box(charts: IntervalArray) -> RangeBoxes:
    """Enclosures of the ranges of a stack of real charts over the
    domain square, before their tails.

    Interval Horner is uselessly wide at these orders, so the boxes
    come from float samples of the coefficient-midpoint polynomials at
    tile centers (``_tile_samples``, one stacked pass over every
    component of every chart), padded by a slack that bounds the
    distance of every point value of a chart from the nearest sample.
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
    bound of P_mid(c).  ``RangeBoxes.padded`` adds a tail, which covers
    the truncation.  The terms are summed upward, and the box ends are
    stepped outward.  Raises ValueError for grids beyond those limits.
    """
    M, N = charts.shape[-2] - 1, charts.shape[-1] - 1
    if (M + 1) * (N + 1) >= 8000 or max(M, N) > 170:
        raise ValueError(f"chart orders {(M, N)} exceed the range "
                         "box's rounding analysis")
    h = (1.0 / _TILES) * (1.0 + 1e-12)
    lo, hi = charts.lo, charts.hi
    # unbounded coefficients give non-finite samples, which ``padded``
    # turns into unbounded components
    with np.errstate(invalid="ignore", over="ignore"):
        mid = 0.5 * (lo + hi)
        vals, fperr = _tile_samples(mid)
        mags = np.maximum(np.abs(lo), np.abs(hi))
        orders = np.arange(M + 1.0)[:, None] + np.arange(N + 1.0)
        sups = h * _grid_sums(orders * mags)
        # the rounded midpoint lies in [lo, hi], so both differences
        # are nonnegative
        radii = _nonneg_upper(_grid_sums(np.maximum(hi - mid, mid - lo)),
                              (M + 1) * (N + 1))
        return RangeBoxes(np.min(vals, axis=(-2, -1)),
                          np.max(vals, axis=(-2, -1)),
                          _directed_sum(_directed_sum(sups, radii, 1), fperr,
                                        1))


# radii the Gronwall tube tries, and how many of them one stacked
# Jacobian pass takes
_TUBE_RADII = 40
_TUBE_BATCH = 8
_TUBE_FAILED = ("Gronwall tube failed to close; the chart's range box is "
                "too large or too close to a primary for a useful Jacobian "
                "bound")


def propagated_tail(m: MassTriple, p: PrimaryConfig, boxes: IntervalArray,
                    taus: Sequence[float], source_tails: Sequence[float],
                    defects: Sequence[float]) -> list[float | CollisionDomain]:
    """Gronwall tube bounds for a stack of charts' distances to the true
    flow: for chart j, with range box ``boxes[j]``, signed rescaling
    ``taus[j]``, source-arc tail eps0 = ``source_tails[j]`` and defect
    D = ``defects[j]``, its tail, or a CollisionDomain if the tube does
    not close.

    Theorem: with L a Jacobian inf-norm bound over the range box
    inflated by a tube radius delta,
    err(T) <= eps0 e^(L T) + D (e^(L T) - 1) / L over the chart's
    flow-time span T = 1 / |tau|.  The bound is valid once it is below
    delta, since the true trajectories then never leave the tube.  The
    radii are delta0 4^j, j < 40, with delta0 = max(1e-9,
    8 (eps0 + D)); each chart keeps the first that closes, and fails
    once L T exceeds 700, where exp would overflow and wider tubes only
    grow faster.  The radii go _TUBE_BATCH at a time: one stacked
    ``poly_DF`` and one stacked ``matrix_norm`` over the fattened boxes
    of every open chart, then the scalar closing test radius by radius
    in that order, so each tail is the one a loop over single radii
    gives.  A box or radius that is not finite gives no finite bound,
    and the chart fails.  Raises ValueError, before any Jacobian, if a
    source tail or a defect is negative or NaN.
    """
    for name, vals in (("source tail", source_tails), ("defect", defects)):
        for v in vals:
            if not v >= 0.0:
                raise ValueError(f"{name} must be nonnegative, got {v}")
    one = Interval.from_value(1.0)
    C = len(taus)
    T = [one / Interval.from_value(abs(tau)) for tau in taus]
    eps0 = [Interval.from_value(t) for t in source_tails]
    D = [Interval.from_value(d) for d in defects]
    delta = [max(1e-9, 8.0 * (t + d)) for t, d in zip(source_tails, defects)]
    finite = np.isfinite(boxes.lo).all(-1) & np.isfinite(boxes.hi).all(-1)
    # a chart's tail once it closes; None while open, or once it fails
    out: list[Optional[float]] = [None] * C
    live = [j for j in range(C) if finite[j]]
    for start in range(0, _TUBE_RADII, _TUBE_BATCH):
        if not live:
            break
        n = min(_TUBE_BATCH, _TUBE_RADII - start)
        radii = np.empty((len(live), n))
        for row, j in enumerate(live):
            for i in range(n):
                radii[row, i] = delta[j]
                delta[j] *= 4.0
        flo, fhi = _iadd_arr(boxes.lo[live][:, None], boxes.hi[live][:, None],
                             -radii[..., None], radii[..., None])
        ok = np.isfinite(radii)
        norms = matrix_norm(poly_DF(m, p, IntervalArray(flo[ok], fhi[ok])),
                            stacked=True)
        # the position of each finite radius's box in that stack
        at = np.cumsum(ok.ravel()).reshape(ok.shape) - 1
        still = []
        for row, j in enumerate(live):
            for i in range(n):
                if not ok[row, i]:
                    break
                L = norms[int(at[row, i])]
                LT = L * T[j]
                if LT.hi > 700.0:
                    break
                growth = LT.exp()
                if L.lo <= 0.0:
                    extra = D[j] * T[j] * growth
                else:
                    extra = D[j] * (growth - one) / L
                tail = (eps0[j] * growth + extra).hi
                if tail < radii[row, i]:
                    out[j] = float(tail)
                    break
            else:
                still.append(j)
        live = still
    return [CollisionDomain(_TUBE_FAILED) if t is None else t for t in out]


def check_collision(boxes: IntervalArray, p: PrimaryConfig,
                    delta_min: float = 0.05) -> list[Optional[CollisionDomain]]:
    """The collision guard of a stack of range boxes, shape
    (charts, DIM): for each, the CollisionDomain that refuses it if its
    position range approaches a primary within ``delta_min``, or None.

    Near-collisions blow up the reciprocal-distance components and
    erode every downstream bound; refusing here lets an atlas drop or
    subdivide the offending chart.  The squared distance uses
    ``Interval.sqr``, whose lower end is nonnegative; dx * dx has a
    negative lower end whenever the x range straddles the primary's x.
    """
    out: list[Optional[CollisionDomain]] = []
    for c in range(boxes.shape[0]):
        x, y = boxes[c, 0], boxes[c, 2]
        err = None
        for j, (px, py) in enumerate(p.positions):
            dx = x - px
            dy = y - py
            d2 = dx.sqr() + dy.sqr()
            if d2.lo < delta_min ** 2:
                err = CollisionDomain(
                    f"chart range box comes within {delta_min} of primary {j}")
                break
        out.append(err)
    return out


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
