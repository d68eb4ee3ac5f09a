"""Seven-dimensional polynomial lift of the four-body field.

Appending the three reciprocal primary distances u_{4+j} = 1/r_j to the
planar state turns the field into a fifth-order polynomial F on R^7,
conjugate to the original field on the surface S = image(R).  Polynomial
structure is what the series machinery downstream needs: Taylor
coefficients of compositions become finite convolution sums.

This module provides the embedding R, eigenvector lifting, and the one
definition of F: a straight-line program of ``Lin`` and ``Mul`` ops,
compiled once per program into dependency levels (``_levels``).  Every
interval evaluator of F runs that one compile, with its batch on a
leading axis: the series interpreter ``FieldNodes``, which holds every
node of K copies of the program as series in one array and fills them,
by one stacked pass per level, one t-order column at a time (advected
charts, all the arcs of an atlas generation together, and
``manifold.field_series``) or one total degree at a time (the
homological solve); ``node_jets``, one pass for the value and gradient
of every node over each box of a stack, whose output rows give the
Jacobians ``poly_DF`` of every box of a Gronwall tube and whose rows
over one box land a degree's solved coefficients on every node of the
homological solve; and ``FieldNodes.beyond_grid_bounds``, the content
each copy's grids miss.  ``evaluate`` is the float interpreter behind
``poly_F_point``.  ``field_defect`` finishes a column fill to bound the
defect of an invariance equation: the ODE defect of an advected chart
and the tail of a local manifold.  An interpreter owns its inputs: the
input rows of each copy are the series being filled, written by the
caller, and column n of every node is F of its copy's input columns
0..n.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .crfbp import MassTriple, PrimaryConfig, State4, _distances
from .interval import (CInterval, CIntervalArray, Interval, IntervalArray,
                       _directed_sum, _iadd_arr, _imul_arr, _nonneg_upper)
from .taylor import (FactorEnds, antidiagonal, mag_sum_bound,
                     product_antidiagonals, product_columns)

DIM = 7


@dataclass(frozen=True)
class State7:
    """Lifted state (x, xdot, y, ydot, 1/r1, 1/r2, 1/r3).

    ``on_s`` records that the trailing components were produced by the
    embedding, i.e. the state lies on the invariant surface S.
    """

    u: tuple[Interval, ...]
    on_s: bool = False

    def __post_init__(self):
        if len(self.u) != DIM:
            raise ValueError(f"State7 needs {DIM} components, got {len(self.u)}")
        if self.on_s and not all(self.u[k].lo > 0.0 for k in (4, 5, 6)):
            raise ValueError("on-S state needs positive reciprocal distances")


def embed_R(p: PrimaryConfig, s: State4) -> State7:
    """Lift a planar state by appending reciprocal primary distances."""
    rs = _distances(p, s.x, s.y)
    one = Interval.from_value(1.0)
    return State7((s.x, s.xdot, s.y, s.ydot,
                   one / rs[0], one / rs[1], one / rs[2]), on_s=True)


# ---------------------------------------------------------------------------
# the field as a straight-line program


@dataclass(frozen=True)
class Lin:
    """const + sum(c * node[k] for c, k in terms); on series the
    constant lands on the (0, 0) coefficient only."""

    const: Interval | float
    terms: tuple[tuple[Interval | float, int], ...]


@dataclass(frozen=True)
class Mul:
    """node[a] * node[b]."""

    a: int
    b: int


@dataclass(frozen=True)
class FieldProgram:
    """Nodes 0..DIM-1 are the inputs u1..u7, node DIM + i is ops[i],
    which reads only earlier nodes, and ``outputs`` hold F1..F7."""

    ops: tuple[Lin | Mul, ...]
    outputs: tuple[int, ...]


@functools.lru_cache(maxsize=16)
def _program(masses: tuple, positions: tuple) -> FieldProgram:
    """The lifted field with the given masses and primary positions.

    With w_j = u_{5+j}, dx_j = u1 - x_j, dy_j = u3 - y_j and
    ng_j = -dx_j u2 - dy_j u4, whose terms carry the tails' sign:
    F = (u2, 2 u4 + u1 - sum m_j dx_j w_j^3, u4,
         -2 u2 + u3 - sum m_j dy_j w_j^3, w_j^3 ng_j for j = 1, 2, 3).
    """
    ops: list[Lin | Mul] = []

    def node(op: Lin | Mul) -> int:
        ops.append(op)
        return DIM + len(ops) - 1

    f2 = [(2.0, 3), (1.0, 0)]
    f4 = [(-2.0, 1), (1.0, 2)]
    tail = []
    for j, (mj, (px, py)) in enumerate(zip(masses, positions)):
        w = 4 + j
        dx = node(Lin(-px, ((1.0, 0),)))
        dy = node(Lin(-py, ((1.0, 2),)))
        sq = node(Mul(w, w))
        cu = node(Mul(sq, w))
        f2.append((-mj, node(Mul(dx, cu))))
        f4.append((-mj, node(Mul(dy, cu))))
        ng = node(Lin(0.0, ((-1.0, node(Mul(dx, 1))),
                            (-1.0, node(Mul(dy, 3))))))
        tail.append(node(Mul(cu, ng)))
    f2_node = node(Lin(0.0, tuple(f2)))
    f4_node = node(Lin(0.0, tuple(f4)))
    return FieldProgram(tuple(ops), (1, f2_node, 3, f4_node, *tail))


def field_program(m: MassTriple, p: PrimaryConfig) -> FieldProgram:
    """The lifted field with the interval masses and positions as its
    constants, so every interpreter below encloses F for all masses and
    positions in those intervals."""
    return _program((m.m1, m.m2, m.m3), p.positions)


def evaluate(prog: FieldProgram, u: Sequence) -> list:
    """Scalar interpreter: every node value at u, in floats, Intervals
    or CIntervals.  On intervals each value encloses the node's exact
    value for every point of the input box and every constant in its
    interval, since interval + and * are inclusion-isotone."""
    vals = list(u)
    for op in prog.ops:
        if isinstance(op, Mul):
            vals.append(vals[op.a] * vals[op.b])
        else:
            acc = op.const
            for c, k in op.terms:
                acc = vals[k] * c + acc
            vals.append(acc)
    return vals


@dataclass(frozen=True)
class _LinLevel:
    """The ``Lin`` nodes of one dependency level, stacked: term t of
    node ``nodes[j]`` reads node ``operands[t, j]`` and multiplies it
    by ``scale[t, j]``, exactly (+-1 or +-2, or 0 on the padding terms
    past a node's own), or, at the positions ``iv_at``, by the
    interval ``[iv_lo, iv_hi]``, one array for both ends (``iv_hi is
    iv_lo``) when every such interval is a point, so that
    ``_imul_arr`` runs its point pass, with the same endpoints;
    ``const_lo``/``const_hi`` hold the nodes' constants as complex
    parts, shape (2, nodes).  ``copies`` marks a level whose every node
    is one exact unit term, as the shifts dx_j, dy_j are."""

    nodes: np.ndarray
    operands: np.ndarray
    scale: np.ndarray
    iv_at: tuple[np.ndarray, np.ndarray]
    iv_lo: np.ndarray
    iv_hi: np.ndarray
    const_lo: np.ndarray
    const_hi: np.ndarray
    copies: bool

    @classmethod
    def of(cls, ops: Sequence[tuple[int, Lin]]) -> "_LinLevel":
        """The level of the (node index, Lin op) pairs ``ops``."""
        T = max(len(op.terms) for _, op in ops)
        operands = np.zeros((T, len(ops)), dtype=int)
        scale = np.zeros((T, len(ops), 1))
        iv_t, iv_j, ivs = [], [], []
        for j, (_, op) in enumerate(ops):
            for t, (c, k) in enumerate(op.terms):
                c = Interval._coerce(c)
                operands[t, j] = k
                exact = c.lo == c.hi and abs(c.lo) in (1.0, 2.0)
                # an interval term is scaled by 1, then overwritten
                scale[t, j] = c.lo if exact else 1.0
                if not exact:
                    iv_t.append(t)
                    iv_j.append(j)
                    ivs.append(c)
        consts = [CInterval._coerce(op.const) for _, op in ops]
        iv_lo = np.array([c.lo for c in ivs])[:, None]
        # point coefficients, such as the masses of
        # ``MassTriple.from_floats``, share one array for both ends
        iv_hi = (iv_lo if all(c.lo == c.hi for c in ivs)
                 else np.array([c.hi for c in ivs])[:, None])
        level = cls(np.array([i for i, _ in ops]), operands, scale,
                    (np.array(iv_t, dtype=int), np.array(iv_j, dtype=int)),
                    iv_lo, iv_hi,
                    np.array([[c.re.lo, c.im.lo] for c in consts]).T,
                    np.array([[c.re.hi, c.im.hi] for c in consts]).T,
                    T == 1 and not ivs and bool((scale == 1.0).all()))
        _read_only(level.nodes, operands, scale, *level.iv_at, level.iv_lo,
                   level.iv_hi, level.const_lo, level.const_hi)
        return level

    def values(self, lo: np.ndarray, hi: np.ndarray, *slots
               ) -> tuple[np.ndarray, np.ndarray]:
        """The nodes' values at ``slots`` of the node endpoint arrays
        ``lo`` and ``hi``, of shape (parts, nodes, ...) for any number
        of parts, as lo and hi of shape (parts, level nodes, slots):
        one gather of every term's operand slots, exact scaling, one
        ``_imul_arr`` for the interval coefficients, and one directed
        sum over the terms in program order.  Each endpoint equals
        that of the scalar interval arithmetic term by term, up to the
        sign of a zero, since the padding terms are exact zeros.  The
        constants are not added here, so a ``copies`` level's values
        are its operands' slots, the one gather alone: 1 x = x
        exactly, and a sum of one term rounds nothing.  Those are the
        general pass's endpoints up to the sign of a zero (its min and
        max turn [-0, +0] into [+0, +0]), except that where an operand
        entry is infinite the general pass's overflow clamp steps the
        level's subnormal and huge entries one ulp outward and the
        copies stay exact."""
        if self.copies:
            # one exact unit term per node: its operand's slots
            at = (slice(None), self.operands[0][:, None]) + slots
            return lo[at], hi[at]
        at = (slice(None), self.operands[..., None]) + slots
        xlo, xhi = lo[at], hi[at]
        p, q = xlo * self.scale, xhi * self.scale
        # lower ends and negated upper ends: rounding a sum of negated
        # upper ends down rounds the upper ends' sum up, so one
        # directed sum serves both
        ends = np.stack((np.minimum(p, q), -np.maximum(p, q)))
        if not np.isfinite(ends).all():
            # a doubling overflowed: interval products clamp it
            plo, phi = _imul_arr(xlo, xhi, self.scale, self.scale)
            ends = np.stack((plo, -phi))
        t, j = self.iv_at
        if t.size:
            plo, phi = _imul_arr(xlo[:, t, j], xhi[:, t, j],
                                 self.iv_lo, self.iv_hi)
            ends[0][:, t, j], ends[1][:, t, j] = plo, -phi
        acc = ends[:, :, 0]
        for t in range(1, ends.shape[2]):
            acc = _directed_sum(acc, ends[:, :, t], -1)
        return acc[0], -acc[1]

    def add_consts(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Add the constants to slot 0 of every copy, in place, for lo
        and hi of shape (parts, copies, level nodes, slots): ``values``'
        on series, its parts split into (real, imaginary), or the real
        part alone, and the copies."""
        parts = len(lo)
        lo[..., 0], hi[..., 0] = _iadd_arr(lo[..., 0], hi[..., 0],
                                           self.const_lo[:parts, None],
                                           self.const_hi[:parts, None])


def _read_only(*arrays: np.ndarray) -> None:
    for x in arrays:
        x.flags.writeable = False  # shared by every caller of the cache


@functools.lru_cache(maxsize=16)
def _levels(prog: FieldProgram
            ) -> tuple[tuple[np.ndarray, _LinLevel | None], ...]:
    """The program compiled into dependency levels.  A level is its
    ``Mul`` nodes, as rows (node, factor a, factor b) of one index
    array, node = a * b column by column, and its ``Lin`` nodes stacked,
    or None; every interpreter runs a level's ``Mul`` pass, then its
    ``Lin`` pass.  The inputs are done before level 0; a ``Mul`` is one
    level deeper than its deepest operand, and a ``Lin`` sits at the
    level of its deepest operand, or one deeper when that operand is a
    ``Lin``.  So a ``Mul`` pass reads only earlier levels and a ``Lin``
    pass also its own level's products, and a chain of products costs
    one ``Mul`` pass per factor depth, however many ``Lin`` nodes sit
    between them: the lifted field takes three, with the shifts dx_j,
    dy_j alone at level 0.  Empty levels are dropped.  Cached per
    program, with read-only arrays, so every interpreter of one program
    shares one compiled object, whatever its batch: the indices name
    the nodes of one copy, and an interpreter of several copies or boxes
    carries them on a leading axis."""
    depth = [0] * DIM
    is_lin = [False] * DIM
    for op in prog.ops:
        if isinstance(op, Mul):
            depth.append(1 + max(depth[op.a], depth[op.b]))
        else:
            depth.append(max(depth[k] + is_lin[k] for _, k in op.terms))
        is_lin.append(isinstance(op, Lin))
    nodes = list(enumerate(prog.ops, DIM))
    levels = []
    for level in range(max(depth) + 1):
        ops = [(i, op) for i, op in nodes if depth[i] == level]
        if not ops:
            continue
        lins = [(i, op) for i, op in ops if isinstance(op, Lin)]
        muls = np.array([(i, op.a, op.b) for i, op in ops
                         if isinstance(op, Mul)], dtype=int).reshape(-1, 3).T
        _read_only(muls)
        levels.append((muls, _LinLevel.of(lins) if lins else None))
    return tuple(levels)


# the product rule's terms a_0 b_k for k = 0..DIM, then a_k b_0 for k >= 1
_RULE_A = np.r_[[0] * (1 + DIM), 1:1 + DIM]
_RULE_B = np.r_[0:1 + DIM, [0] * DIM]


def node_jets(prog: FieldProgram, boxes: IntervalArray) -> IntervalArray:
    """Value and gradient of every node over each box of a stack:
    ``boxes`` has shape (B, DIM), and entry (b, i) of the result is
    (x_i, dx_i/du_1, ..., dx_i/du_DIM) over box b, shape
    (B, nodes, 1 + DIM).

    One forward pass over the program's compiled levels on real
    interval endpoints, from the input boxes and an exact identity,
    with the boxes on a leading axis, which ``_LinLevel.values`` takes
    as its parts.  A level's ``Mul`` nodes form a_0 b_k (k >= 0) and a_k b_0
    (k >= 1) in one ``_imul_arr`` call and d(a b) = a_0 db + da b_0 in
    one ``_iadd_arr``; then its ``Lin`` nodes, which may read that
    level's products, run ``_LinLevel.values``, and their constants,
    which are real, land on the value of every box.
    Every kernel is entrywise, so each box gets the endpoints of a pass
    over it alone.  Theorem: every entry encloses the exact value or
    partial derivative at every point of its box and for every
    constant in its interval, since interval + and * are
    inclusion-isotone.  A derivative the inputs never reach is an exact
    zero, as 0 * x = 0 even for an unbounded x.
    """
    B = boxes.shape[0]
    n = DIM + len(prog.ops)
    lo = np.zeros((B, n, 1 + DIM))
    hi = np.zeros((B, n, 1 + DIM))
    lo[:, :DIM, 0], hi[:, :DIM, 0] = boxes.lo, boxes.hi
    lo[:, :DIM, 1:] = hi[:, :DIM, 1:] = np.eye(DIM)
    cols = np.arange(1 + DIM)
    for (i, a, b), lin in _levels(prog):
        if i.size:
            a, b = a[:, None], b[:, None]
            plo, phi = _imul_arr(lo[:, a, _RULE_A], hi[:, a, _RULE_A],
                                 lo[:, b, _RULE_B], hi[:, b, _RULE_B])
            lo[:, i, 0], hi[:, i, 0] = plo[..., 0], phi[..., 0]
            lo[:, i, 1:], hi[:, i, 1:] = _iadd_arr(
                plo[..., 1:1 + DIM], phi[..., 1:1 + DIM],
                plo[..., 1 + DIM:], phi[..., 1 + DIM:])
        if lin is not None:
            llo, lhi = lin.values(lo, hi, cols)
            llo[:, :, 0], lhi[:, :, 0] = _iadd_arr(
                llo[:, :, 0], lhi[:, :, 0], lin.const_lo[0], lin.const_hi[0])
            lo[:, lin.nodes], hi[:, lin.nodes] = llo, lhi
    return IntervalArray(lo, hi)


class FieldNodes:
    """Series interpreter: every node of the program as a series on the
    (M, N) grid, for K input series at once, filled either one t-order
    column at a time (``b_column``) or one total degree at a time
    (``degree``).

    The K copies of the node set ride a leading batch axis: ``G`` has
    shape (K, size, M + 1, N + 1), size = DIM + len(prog.ops), and
    ``G[k, i]`` is node i of copy k.  Both fills run one level pass,
    ``_fill``, over the program's one compile (``_levels``, shared by
    every interpreter of the program, whatever its K, and by
    ``node_jets``): at each level all ``Mul`` nodes of every copy by one
    call of the fill's stacked product kernel, which gathers their
    factors straight from ``G`` (their (M, n) corners for a column, the
    pairs of a degree), node i of copy k at flat grid k size + i, the
    flat indices formed once per interpreter, then all ``Lin`` nodes,
    which may read that level's products, by one ``_LinLevel.values``
    that takes the copies as parts beside (real, imaginary), or beside
    the real part alone in a real column, with the endpoints of
    evaluating each node's terms one by one, up to the sign of a zero,
    and the constants added to every copy; the shift level, one exact
    unit term per node, is a copy of its operands' slots.  The lifted
    field takes three product passes per column and per degree.  Every
    kernel forms each row from its own pair or terms only, so copy k's
    grids are those of a one-copy interpreter on copy k's inputs, given
    the same real-ness decision below.

    The input rows ``G[k, :DIM]`` of each copy are the series being
    filled: the caller writes them, and neither fill writes them.
    ``b_column(n)`` fills column n of every node on all M + 1 rows by
    ``taylor.product_columns``; the constants enter at n = 0.  Whether
    every factor is exactly real is decided once per column for all K
    copies together, from ``G``'s imaginary grids, which show input
    columns past n too, so the decision is conservative when one copy
    is complex or the caller wrote columns ahead.  Each row equals
    ``product_column``'s for its pair, bit for bit, when that decision
    agrees with the pair's own, as it does when every copy's inputs are
    exactly real, as the arcs of an atlas are, or all complex, and
    overlaps it otherwise.  The kernel also picks its two- or
    four-candidate former once per call, from every copy's factors,
    but both give each row the same bits, so that choice never couples
    the copies.

    Kept ends: the interpreter holds one ``taylor.FactorEnds`` per
    product level, its factors' inner and outer ends and a running
    definite-and-finite flag, and passes it to every column call of
    that level, so a call sorts only the column that landed since the
    last: its factors' entries of column n, inputs and earlier levels'
    nodes alike, all written by then in this column.  A column entry is
    never rewritten once its column is filled, so the kept ends and
    flag are those of sorting the call's whole corner, and the bits are
    those of a call that keeps none.  A writer of filled columns of
    ``G`` calls ``drop_ends()``, as ``advect.ArcFill``'s rescale and
    retime do, and the next real column sorts every column again;
    input columns ahead of the fill need nothing, since the sort reads
    a column only when it is filled.  A complex column sorts nothing.

    Theorem: if input columns 0..n are
    enclosures, so are columns n of all nodes, since a product's column
    n reads only columns 0..n of its factors, and truncation to the
    grid drops only coefficients of orders that products never bring
    back down.  ``filled`` counts the columns filled so far, for all
    copies, and ``b_column`` fills only the next one, so the caller may
    write input column n at any time before filling it
    (``advect.taylor_flow`` writes it just before), but not after.

    ``degree(d, m_min)`` fills every node's degree-d slots (m, d - m)
    with m >= m_min by ``taylor.product_antidiagonals``; the caller
    keeps the inputs and the (0, 0) slots in ``G``.  Theorem: a
    degree-d slot (m', n') of a factor reaches the degree-d
    coefficient (m, n) of a product only paired with the other
    factor's (0, 0) coefficient, at
    (m', n') = (m, n).  So if all slots of degree below d enclose the
    true coefficients, the degree-d values enclose the node
    coefficients for the input values in the degree-d slots, and with
    those all zero they are the "hat" sums of those slots, which omit
    every summand containing an unknown degree-d coefficient.
    """

    def __init__(self, prog: FieldProgram, M: int, N: int, K: int = 1):
        if K < 1:
            raise ValueError("an interpreter needs at least one copy")
        self.prog = prog
        self.M = M
        self.N = N
        self.levels = _levels(prog)
        self.outputs = np.array(prog.outputs)
        size = DIM + len(prog.ops)
        self.G = CIntervalArray.zeros((K, size, M + 1, N + 1))
        self.filled = 0
        # every level's factors on the kernels' flat node axis, copy k's
        # node 0 at k size, and the kept ends of its column products
        starts = size * np.arange(K)[:, None]
        self._factors = [((a + starts).ravel(), (b + starts).ravel())
                         for (_, a, b), _ in self.levels]
        self._ends = [FactorEnds(a, b, M + 1)
                      for (a, b) in self._factors if a.size]

    def _fill(self, slots: tuple, products, consts: bool,
              real: bool = False) -> None:
        """Fill every node of every copy at ``slots`` level by level;
        ``products`` maps the flat factor indices a and b to their
        products there, and the constants land on the first slot when
        ``consts``.  With ``real``, every grid is exactly real, as
        ``b_column`` decides: the ``Lin`` pass then takes the real
        halves alone and adds the constants' real parts, and only the
        real halves are written, so the imaginary grids stay exact
        zeros and each real endpoint is that of the complex pass, since
        every kernel treats the parts entrywise."""
        G = self.G
        K = G.shape[0]
        parts = 1 if real else 2
        # the copies as parts of the Lin pass, after (real, imaginary)
        # or after the real part alone
        lo, hi = (x[:parts].reshape((parts * K,) + G.shape[1:])
                  for x in (G.lo, G.hi))

        def put(nodes, vlo, vhi):
            # the parts of every copy, in (part, copy, node) order, by
            # one write per end
            at = (slice(parts), slice(None), nodes[:, None]) + slots
            shape = (parts, K, len(nodes)) + vlo.shape[-1:]
            G.lo[at], G.hi[at] = vlo.reshape(shape), vhi.reshape(shape)

        for ((i, _, _), lin), (a, b) in zip(self.levels, self._factors):
            if i.size:
                p = products(a, b)
                put(i, p.lo[:parts], p.hi[:parts])
            if lin is not None:
                vlo, vhi = (x.reshape((parts, K) + x.shape[1:])
                            for x in lin.values(lo, hi, *slots))
                if consts:
                    lin.add_consts(vlo, vhi)
                put(lin.nodes, vlo, vhi)

    def b_column(self, n: int) -> CIntervalArray:
        """Column n of every node of every copy; returns the outputs',
        shape (K, DIM, M + 1).  Whether the products are exactly real is
        decided for the whole batch of copies: a conservative choice,
        bit-equal to one copy's own when every copy is real, as atlas
        arcs are; a real column runs the real ``Lin`` pass of ``_fill``,
        and each product level's kernel call sorts column n of its
        factors into the level's kept ends, the columns before it
        already sorted (all of them after ``drop_ends``).
        Raises ValueError unless n is the next unfilled
        column, since a product's column n reads its operands' columns
        0..n, which would otherwise still be zero."""
        if n != self.filled:
            raise ValueError(f"column {n} requested, but the next "
                             f"unfilled column is {self.filled}")
        # the unfilled node columns are zero, so this asks whether
        # every factor of every product of this column, in every copy,
        # is exactly real, or an input column past n is complex
        real = not (self.G.lo[1].any() or self.G.hi[1].any())
        # the product levels come in order, each with its kept ends
        ends = iter(self._ends)
        self._fill((np.arange(self.M + 1), n), lambda a, b: product_columns(
            self.G, a, b, n, self.M, real, next(ends)), n == 0, real)
        self.filled = n + 1
        return CIntervalArray._wrap(self.G.lo[..., n][:, :, self.outputs],
                                    self.G.hi[..., n][:, :, self.outputs])

    def drop_ends(self) -> None:
        """Forget the kept factor ends of every product level, after
        entries of filled columns of ``G`` were written in place: the
        next column sorts every column again."""
        for ends in self._ends:
            ends.drop()

    def degree(self, d: int, m_min: int = 0) -> CIntervalArray:
        """Node slots (m, d - m), m >= m_min, of degree d >= 1; returns
        the outputs', shape (K, DIM, slots)."""
        ms, ns = antidiagonal(self.M, self.N, d, m_min)
        self._fill((ms, ns), lambda a, b: product_antidiagonals(
            self.G, a, b, d, m_min), False)
        return self.G[:, self.outputs[:, None], ms, ns]

    def beyond_grid_bounds(self, copies: Sequence[int]) -> np.ndarray:
        """Per-output bounds on the field content outside the (M, N)
        grid of each copy in ``copies``, once ``b_column`` has filled
        every column: shape (len(copies), DIM).

        The content a node's grid misses ("lost") follows from
        lost(x y) = conv_tail(|x|, |y|) + lost_x (||y|| + lost_y)
        + ||x|| lost_y and lost(lin) = sum |c_k| lost_k, with |x| the
        in-grid magnitudes, ||x|| their sum, and nothing lost on the
        inputs.  Truncation drops only high orders and multiplication
        only raises them, so lost content never lands back on the grid
        and the in-grid coefficients stay exact.  Every float step is
        bounded: ``CIntervalArray.mag`` rounds up, the norms and
        ``_conv_tail`` are padded by gamma of their own rounding
        counts (``interval._nonneg_upper``), and the recurrence rounds
        each sum and product up, by ``_directed_sum`` and the upper end
        of ``_imul_arr``.  The recurrence runs once over the program's
        compiled levels, on arrays over the copies and a level's nodes,
        a ``Lin`` node's terms summed in program order (its padding
        terms add exact zeros); every step is entrywise, so a copy's
        bounds are those of a run over its ops alone.
        """
        mags = self.G[list(copies)].mag()
        C, size = mags.shape[:2]
        norms = _nonneg_upper(mags.reshape(C, size, -1).sum(axis=-1),
                              mags[0, 0].size)
        lost = np.zeros((C, size))
        for (i, a, b), lin in self.levels:
            if i.size:
                p = _prod_up(np.stack((lost[:, a], norms[:, a])),
                             np.stack((_directed_sum(norms[:, b], lost[:, b],
                                                     1), lost[:, b])))
                lost[:, i] = _directed_sum(_directed_sum(_conv_tail(
                    mags[:, a], mags[:, b], self.M, self.N), p[0], 1),
                    p[1], 1)
            if lin is not None:
                # the terms' coefficient magnitudes, zero on the padding
                coef = np.abs(lin.scale[..., 0])
                coef[lin.iv_at] = np.maximum(np.abs(lin.iv_lo[:, 0]),
                                             np.abs(lin.iv_hi[:, 0]))
                loss = np.zeros((C, len(lin.nodes)))
                for t in range(len(coef)):
                    loss = _directed_sum(
                        loss, _prod_up(coef[t], lost[:, lin.operands[t]]), 1)
                lost[:, lin.nodes] = loss
        return lost[:, self.outputs]


def _prod_up(a, b):
    """An upper bound on a b for nonnegative a and b, entrywise: the
    upper end of the point product, the ceil inside ``_imul_arr``'s
    guard and one ulp above it outside."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    return _imul_arr(a, a, b, b)[1]


def field_defect(cols: FieldNodes, lhs: CIntervalArray,
                 copies: Sequence[int] = (0,)) -> np.ndarray:
    """Bounds on the defect sup |lhs_i - F_i(S)| of an invariance
    equation over the closed unit polydisc, largest over i, for the
    series S in the input rows of each copy in ``copies`` of ``cols``.

    ``lhs`` has shape (len(copies), DIM, M + 1, N + 1) on the
    interpreter's (M, N) grid, entry j for copy ``copies[j]``, and
    holds the equation's other side, all of whose content lies on the
    grid.  Fills columns ``cols.filled``..N of every copy of ``cols``,
    so by the theorem of ``FieldNodes`` every node grid holds F(S)'s
    columns, and forms the in-grid residuals res_i = lhs_i - [F(S)]_i
    in one stacked subtraction over the copies' output grids (outputs 1
    and 3 are input nodes); ``beyond_grid_bounds(copies)`` gives per
    component a bound lost_i on the coefficient mass of F_i(S) outside
    the grid.  Theorem: on the closed unit polydisc |z1^m z2^n| <= 1, so
    a series is bounded there by the l1 norm of its coefficients, and
        sup |lhs_i - F_i(S)| <= sum |res_i| + lost_i,
    with the in-grid sums bounded by ``taylor.mag_sum_bound``, one call
    for the stack, and each component's two bounds added rounding up
    (``_directed_sum``), so no bound falls half an ulp below their exact
    sum.  Returns one bound per copy.  Raises ValueError
    unless ``lhs`` lies on the interpreter's grid.
    """
    copies = list(copies)
    if lhs.shape != (len(copies), DIM, cols.M + 1, cols.N + 1):
        raise ValueError(f"left-hand side of shape {lhs.shape} is off "
                         f"the interpreter's grid {(cols.M, cols.N)} for "
                         f"{len(copies)} copies")
    for n in range(cols.filled, cols.N + 1):
        cols.b_column(n)
    res = lhs - cols.G[np.array(copies)[:, None], cols.outputs]
    return np.max(_directed_sum(mag_sum_bound(res),
                                cols.beyond_grid_bounds(copies), 1), axis=-1)


def _conv_tail(amag: np.ndarray, bmag: np.ndarray, M: int, N: int):
    """Bound on a product's coefficient mass landing outside (M, N), for
    the magnitude grids of its factors, or for stacks of them on a
    leading axis, one bound per pair (a float for one pair).

    Pairs the factors' row and column 1-norm marginals: a product term
    of total s-order above M contributes to the row-marginal
    convolution past index M, likewise in t past N, so the two
    convolution tails together cover every out-of-grid term at least
    once.  The float evaluation from the nonnegative grids rounds each
    exact summand, a product of two grid entries, at most
    2 (M + N) + 1 times: in the t-direction in its two marginal sums of
    M + 1 terms (M roundings each), its product, a convolution entry of
    at most N + 1 products (N more) and the tail sum of N entries
    (N - 1), then once more adding the two tails; the s-direction is
    alike with M and N swapped.  The two convolutions form
    (M + 1)^2 + (N + 1)^2 products, so ``interval._nonneg_upper`` with
    those counts bounds the exact mass.  The marginals of a stack come
    from one sum each, every pair's as its own grid's sum gives them.
    """
    cols = [x.sum(axis=-2).reshape(-1, N + 1) for x in (amag, bmag)]
    rows = [x.sum(axis=-1).reshape(-1, M + 1) for x in (amag, bmag)]
    mass = np.array([np.convolve(ca, cb)[N + 1:].sum()
                     + np.convolve(ra, rb)[M + 1:].sum()
                     for ca, cb, ra, rb in zip(*cols, *rows)])
    return _nonneg_upper(mass.reshape(amag.shape[:-2]), 2 * (M + N) + 1,
                         (M + 1) ** 2 + (N + 1) ** 2)


def poly_DF(m: MassTriple, p: PrimaryConfig,
            boxes: IntervalArray) -> IntervalArray:
    """Jacobians of the polynomial field over each box of a stack of
    shape (B, DIM): the gradient columns of the output rows of one
    stacked ``node_jets``, shape (B, DIM, DIM)."""
    prog = field_program(m, p)
    jets = node_jets(prog, boxes)
    out = list(prog.outputs)
    return IntervalArray(jets.lo[:, out, 1:], jets.hi[:, out, 1:])


def lift_eigvector(p: PrimaryConfig, x0: State4, xi: tuple[CInterval, ...]
                   ) -> tuple[CInterval, ...]:
    """Push a planar eigenvector through DR to a lifted eigenvector.

    The upper block of DR is the identity, so the planar components pass
    through unchanged; the reciprocal-distance rows apply the closed-form
    gradient of 1/r_j, which involves only the position slots.
    """
    u0 = embed_R(p, x0)
    out = list(xi)
    for j in range(3):
        px, py = p.positions[j]
        w3 = u0.u[4 + j].pow_int(3)
        cx = -((x0.x - px) * w3)
        cy = -((x0.y - py) * w3)
        out.append(CInterval(cx) * xi[0] + CInterval(cy) * xi[2])
    return tuple(out)


def poly_F_point(pos: np.ndarray, masses: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Float evaluation of the lifted field (non-rigorous fast path)."""
    prog = _program(tuple(np.asarray(masses, dtype=float).tolist()),
                    tuple(map(tuple, np.asarray(pos, dtype=float).tolist())))
    vals = evaluate(prog, np.asarray(u, dtype=float).tolist())
    return np.array([vals[o] for o in prog.outputs])
