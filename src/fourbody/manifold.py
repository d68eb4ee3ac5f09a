"""Local invariant manifolds at the saddle-focus equilibrium.

The stable/unstable manifold is sought as a two-variable Taylor series
P(z1, z2) conjugating the linear flow exp(t diag(lam1, lam2)) to the
lifted polynomial field: lam1 z1 d1 P + lam2 z2 d2 P = F(P).  Matching
coefficients turns this into one linear "homological" equation per
coefficient, [DF(u0) - (m lam1 + n lam2) I] a_mn = -c_mn, where c_mn
collects products of strictly lower-order data.  The solver interprets
the field program of ``polyfield`` one total degree d = m + n at a time,
keeping one grid per program node: with every degree-d input slot at
zero, one ``product_antidiagonal`` per product node gives the program's
degree-d coefficients, which are exactly the lower-order ("hat") sums
c_mn of all the degree's slots at once.  Each a_mn then comes from its
own verified solve, and the tangent interpreter supplies the solved
coefficients' linear contribution to every node, across the degree's
slots.  ``field_series`` interprets the same program with full
truncated Cauchy products.

The rest of the module extracts real charts from the complex conjugate
parameterization, meshes the fundamental-domain boundary into secant
arcs with a parameter-plane transversality certificate, and provides
the polydisc derivative bounds used to fold truncation tails into
downstream estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .crfbp import EigenData, MassTriple, PrimaryConfig, State4, eigen_data
from .errors import FourbodyError, SymmetryViolation, TangencyDetected
from .interval import (
    CInterval,
    Interval,
    IntervalMatrix,
    IntervalVector,
    _iadd_arr,
    _imul_arr,
    _isub_arr,
    verified_solve_complex,
)
from .nk import certify_equilibrium
from .polyfield import (DIM, FieldProgram, Mul, State7, embed_R, evaluate,
                        field_program, lift_eigvector, poly_DF, tangent)
from .taylor import (
    ScalarSeries2,
    Series2,
    _fit,
    antidiagonal,
    cauchy_product,
    mag_sum_bound,
    product_antidiagonal,
    product_coeff,  # noqa: F401  (uncalled; see below)
)

# Nothing here calls ``product_coeff``.  The binding stays because the
# benchmark's tracer test (bench/test_bench.py) checks that its wrapper
# reaches every fourbody namespace that binds the name, this one
# included.

_PI = Interval(math.pi, np.nextafter(math.pi, 4.0))


@dataclass(frozen=True)
class LocalManifold:
    """A validated local manifold parameterization.

    ``P`` is the dim-7 series in the scaled conjugacy variables; its
    ``tail`` field carries the truncation bound assigned by
    ``tail_policy`` ("reported" for a user-supplied constant, "defect"
    for the rigorous sup of the invariance defect over the unit
    polydisc).
    """

    P: Series2
    kind: str
    eigen: EigenData
    scale: complex
    lambda1: CInterval
    lambda2: CInterval
    equilibrium: State7
    tail_policy: str = "defect"

    def __post_init__(self):
        if self.kind not in ("stable", "unstable"):
            raise ValueError(f"kind must be stable or unstable, got {self.kind}")
        if self.P.dim != DIM:
            raise ValueError("manifold series must have 7 components")

    @property
    def order(self) -> int:
        return self.P.orders[0]


@dataclass(frozen=True)
class BoundaryArc:
    """One secant chord of the fundamental-domain boundary, pushed
    through the parameterization into a univariate phase-space arc."""

    gamma: Series2                       # dim 7, orders (M_arc, 0)
    kind: str
    # chord endpoints in the z1 disk; None for arcs collapsed from
    # advected charts, whose preimage is no longer a chord
    preimage: Optional[tuple[complex, complex]] = None


# ---------------------------------------------------------------------------
# the homological solver


class _Slots:
    """Complex intervals at the slots of one total degree.

    ``lo`` and ``hi`` have shape (2, slots): row 0 the real part, row 1
    the imaginary part.  Only the arithmetic the program interpreters
    use is defined: + of two, and * by a constant (float, Interval or
    CInterval), with the endpoint arithmetic of the scalar CInterval
    operations; a real constant skips the products with its zero
    imaginary part, which change at most the sign of a zero.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo = lo
        self.hi = hi

    @classmethod
    def read(cls, g: ScalarSeries2, slots) -> "_Slots":
        return cls(np.stack((g.rlo[slots], g.ilo[slots])),
                   np.stack((g.rhi[slots], g.ihi[slots])))

    @classmethod
    def of(cls, vals: Sequence[CInterval]) -> "_Slots":
        return cls(np.array([[v.re.lo for v in vals], [v.im.lo for v in vals]]),
                   np.array([[v.re.hi for v in vals], [v.im.hi for v in vals]]))

    def write(self, g: ScalarSeries2, slots) -> None:
        g.rlo[slots], g.ilo[slots] = self.lo
        g.rhi[slots], g.ihi[slots] = self.hi

    def at(self, r: int) -> CInterval:
        return CInterval(Interval(self.lo[0, r], self.hi[0, r]),
                         Interval(self.lo[1, r], self.hi[1, r]))

    def __add__(self, other: "_Slots") -> "_Slots":
        return _Slots(*_iadd_arr(self.lo, self.hi, other.lo, other.hi))

    def __mul__(self, c) -> "_Slots":
        if not isinstance(c, CInterval):
            c = Interval._coerce(c)
            return _Slots(*_imul_arr(self.lo, self.hi, c.lo, c.hi))
        # (x + iy)(u + iv): the pairs xu, yv, xv, yu in one call
        clo = np.array([[c.re.lo], [c.im.lo], [c.im.lo], [c.re.lo]])
        chi = np.array([[c.re.hi], [c.im.hi], [c.im.hi], [c.re.hi]])
        plo, phi = _imul_arr(self.lo[[0, 1, 0, 1]], self.hi[[0, 1, 0, 1]],
                             clo, chi)
        rlo, rhi = _isub_arr(plo[0], phi[0], plo[1], phi[1])
        ilo, ihi = _iadd_arr(plo[2], phi[2], plo[3], phi[3])
        return _Slots(np.stack((rlo, ilo)), np.stack((rhi, ihi)))


class _DegreeInterpreter:
    """Interpreter of the field program one total degree at a time on
    (N, N) grids.

    One grid per node; the input grids are the components of P, and
    the (0, 0) slots hold the scalar interpreter's values at
    ``origin``.  ``evaluate(d)`` fills every node's degree-d slots, a
    Lin node from its operands' slots, a Mul node by
    ``product_antidiagonal``.  Theorem: a degree-d slot (m', n') of a
    factor reaches the degree-d coefficient (m, n) of a product only
    paired with the other factor's (0, 0) coefficient, at
    (m', n') = (m, n).  So if all slots of degree below d enclose the
    true coefficients, the degree-d values enclose the node
    coefficients for the input values in the degree-d slots, and with
    those all zero they are every hat sum of the degree at once.
    ``land`` then adds the solved a_mn and, from ``tangent`` over the
    (0, 0) values, their exact linear effect on every node, which
    restores the hypothesis at degree d.
    """

    def __init__(self, prog: FieldProgram, N: int,
                 origin: Sequence[CInterval]):
        self.prog = prog
        self.N = N
        self.base = evaluate(prog, origin)
        self.grids = [ScalarSeries2.zeros(N, N) for _ in self.base]
        for g, v in zip(self.grids, self.base):
            g.set_coeff(0, 0, v)

    def evaluate(self, d: int) -> list[_Slots]:
        """Node slots of degree d >= 1; returns the outputs'."""
        slots = antidiagonal(self.N, self.N, d)
        g = self.grids
        vals = [_Slots.read(x, slots) for x in g[:DIM]]
        for i, op in enumerate(self.prog.ops, DIM):
            if isinstance(op, Mul):
                rl, rh, il, ih = product_antidiagonal(g[op.a], g[op.b], d)
                v = _Slots(np.stack((rl, il)), np.stack((rh, ih)))
            else:
                v = None
                for c, k in op.terms:
                    v = vals[k] * c if v is None else vals[k] * c + v
            v.write(g[i], slots)
            vals.append(v)
        return [vals[o] for o in self.prog.outputs]

    def land(self, d: int, vals: Sequence[_Slots]) -> None:
        """Install the degree-d inputs ``vals`` after ``evaluate`` on
        zero input slots."""
        slots = antidiagonal(self.N, self.N, d)
        for g, dv in zip(self.grids, tangent(self.prog, self.base, vals)):
            if dv is not None:
                (_Slots.read(g, slots) + dv).write(g, slots)


def _homological_solve(df: IntervalMatrix, mu: CInterval,
                       c: Sequence[CInterval]) -> list[CInterval]:
    """Verified solution of [DF(u0) - mu I] a = -c."""
    are_lo = df.lo.copy()
    are_hi = df.hi.copy()
    aim_lo = np.zeros((DIM, DIM))
    aim_hi = np.zeros((DIM, DIM))
    for i in range(DIM):
        d = Interval(df.lo[i, i], df.hi[i, i]) - mu.re
        are_lo[i, i] = d.lo
        are_hi[i, i] = d.hi
        e = -mu.im
        aim_lo[i, i] = e.lo
        aim_hi[i, i] = e.hi
    b_re = IntervalVector.from_intervals([(-ci).re for ci in c])
    b_im = IntervalVector.from_intervals([(-ci).im for ci in c])
    sol_re, sol_im = verified_solve_complex(
        IntervalMatrix(are_lo, are_hi), IntervalMatrix(aim_lo, aim_hi),
        b_re, b_im)
    return [CInterval(sol_re[i], sol_im[i]) for i in range(DIM)]


def solve_homological(m: MassTriple, p: PrimaryConfig, u0: State7,
                      v1: Sequence[CInterval], v2: Sequence[CInterval],
                      lam1: CInterval, lam2: CInterval, N: int) -> Series2:
    """Taylor coefficients of the conjugacy through the square grid (N, N).

    First-order data is installed verbatim; each higher coefficient
    comes from a verified solve of its homological equation, so the
    returned enclosures contain the coefficients of the exact formal
    solution.  Raises SingularEnclosure if a homological matrix cannot
    be certified regular, which would mean m lam1 + n lam2 collides
    with the spectrum of DF(u0) and contradicts the saddle-focus
    certificate.
    """
    if len(v1) != DIM or len(v2) != DIM:
        raise ValueError("first-order data must have 7 components")
    if N < 1:
        raise ValueError("order N must be at least 1")
    ev = _DegreeInterpreter(field_program(m, p), N,
                            [CInterval(ui) for ui in u0.u])
    df = poly_DF(m, p, u0)
    ev.evaluate(1)
    # degree-1 slots in increasing m: (0, 1), then (1, 0)
    ev.land(1, [_Slots.of(pair) for pair in zip(v2, v1)])
    for d in range(2, 2 * N + 1):
        c = ev.evaluate(d)
        sols = []
        for r, (mm, nn) in enumerate(zip(*antidiagonal(N, N, d))):
            mu = lam1 * float(mm) + lam2 * float(nn)
            sols.append(_homological_solve(df, mu, [ci.at(r) for ci in c]))
        ev.land(d, [_Slots.of(col) for col in zip(*sols)])
    return Series2(tuple(ev.grids[:DIM]), scale=1.0, tau=1.0,
                   real_symmetric=True)


def param_equilibrium(m: MassTriple, p: PrimaryConfig, u0: State7,
                      v1: Sequence[CInterval], v2: Sequence[CInterval],
                      lam1: CInterval, lam2: CInterval, N: int, *,
                      kind: str, eigen: EigenData, scale: complex,
                      tail_policy: str = "defect",
                      tail_value: Optional[float] = None) -> LocalManifold:
    """Build a LocalManifold from explicit first-order data.

    The tail is assigned by policy: "reported" records the supplied
    constant, "defect" computes the sup of the invariance-equation
    defect of the finished series over the unit polydisc.
    """
    if tail_policy not in ("reported", "defect"):
        raise ValueError(f"unknown tail policy {tail_policy!r}")
    P = solve_homological(m, p, u0, v1, v2, lam1, lam2, N)
    if tail_policy == "reported":
        tail = float(tail_value) if tail_value is not None else 0.0
    else:
        residual = _residual_series(m, p, P, lam1, lam2,
                                    orders=(5 * N, 5 * N), fast=True)
        tail = max(mag_sum_bound(r) for r in residual)
    P = Series2(P.components, scale=scale, tau=1.0, real_symmetric=True,
                tail=tail)
    return LocalManifold(P=P, kind=kind, eigen=eigen, scale=scale,
                         lambda1=lam1, lambda2=lam2,
                         equilibrium=u0, tail_policy=tail_policy)


def local_manifold(m: MassTriple, p: PrimaryConfig, kind: str, N: int = 7,
                   scale: Optional[float] = None, target: float = 1e-10,
                   tail_policy: str = "defect",
                   tail_value: Optional[float] = None,
                   seed: tuple[float, float] = (0.93, 0.22)) -> LocalManifold:
    """Certify the equilibrium, then parameterize its local manifold.

    When no eigenvector scale is given, a pilot run at scale 0.1
    measures the top-order coefficient magnitude and the scale is
    adjusted so the order-N coefficients have magnitude near ``target``.
    """
    cert, xy = certify_equilibrium(p, m, seed=seed)
    if not cert.proven:
        raise FourbodyError(
            f"equilibrium certification failed: {cert.diagnostic}")
    r = cert.r_interval.lo
    x0 = State4(Interval.from_value(xy[0]) + Interval(-r, r),
                Interval.from_value(0.0),
                Interval.from_value(xy[1]) + Interval(-r, r),
                Interval.from_value(0.0))
    u0 = embed_R(p, x0)
    eig = eigen_data(p, m, x0)
    lam1 = eig.eigenvalue(kind, +1)
    lam2 = eig.eigenvalue(kind, -1)
    xi = lift_eigvector(p, x0, eig.eigenvector(kind, +1))
    if scale is None:
        pilot = 0.1
        v1 = tuple(c * pilot for c in xi)
        v2 = tuple(c.conj() for c in v1)
        P0 = solve_homological(m, p, u0, v1, v2, lam1, lam2, N)
        g_top = max(
            max(comp.coeff(mm, N - mm).abs().hi for comp in P0.components)
            for mm in range(N + 1))
        scale = pilot * (target / g_top) ** (1.0 / N)
    v1 = tuple(c * float(scale) for c in xi)
    v2 = tuple(c.conj() for c in v1)
    return param_equilibrium(m, p, u0, v1, v2, lam1, lam2, N, kind=kind,
                             eigen=eig, scale=complex(scale),
                             tail_policy=tail_policy, tail_value=tail_value)


# ---------------------------------------------------------------------------
# invariance defect


def field_series(m: MassTriple, p: PrimaryConfig, P: Series2,
                 orders: Optional[tuple[int, int]] = None,
                 fast: bool = False) -> list[ScalarSeries2]:
    """Coefficients of F(P) by full Cauchy products.

    The default truncates to P's own grid, which is exact for those
    coefficients.  The composition is a quintic polynomial in the
    components, so passing ``(5 M, 5 N)`` captures every coefficient;
    defect bounds need that full range.  Intermediate products are
    truncated to their own natural degrees, clamped to the request.
    ``fast`` selects the gamma-padded product sums for big grids.
    """
    M0, N0 = P.orders
    if orders is None:
        orders = (M0, N0)
    OM, ON = orders
    if OM < M0 or ON < N0:
        raise ValueError(f"field orders {orders} below the grid ({M0}, {N0})")
    prog = field_program(m, p)
    nodes = _node_series(prog, P.components, orders, fast)
    return [_fit(nodes[o], OM, ON).copy() for o in prog.outputs]


def _node_series(prog: FieldProgram, inputs: Sequence[ScalarSeries2],
                 orders: tuple[int, int], fast: bool = False
                 ) -> list[ScalarSeries2]:
    """Full truncated interpreter: every node of the program as a series.

    A Mul node is ``cauchy_product`` of its operands, a Lin node the
    scaled sum of its operands with the constant on (0, 0); each is
    kept through its natural orders (a product's are the sum of its
    factors', a sum's the largest of its terms'), clamped to
    ``orders``, which tracks node degree.  Theorem: every coefficient
    kept encloses the true node coefficient, since truncation drops
    only orders that products never bring back down.
    """
    OM, ON = orders
    nodes = list(inputs)
    for op in prog.ops:
        if isinstance(op, Mul):
            (ma, na), (mb, nb) = nodes[op.a].orders, nodes[op.b].orders
            nodes.append(cauchy_product(
                nodes[op.a], nodes[op.b],
                orders=(min(OM, ma + mb), min(ON, na + nb)), fast=fast))
            continue
        tm = max(nodes[k].orders[0] for _, k in op.terms)
        tn = max(nodes[k].orders[1] for _, k in op.terms)
        acc = ScalarSeries2.zeros(tm, tn).shift_const(CInterval(op.const))
        for c, k in op.terms:
            acc = acc + _fit(nodes[k], tm, tn).scale(CInterval(c))
        nodes.append(acc)
    return nodes


def _residual_series(m: MassTriple, p: PrimaryConfig, P: Series2,
                     lam1: CInterval, lam2: CInterval,
                     orders: Optional[tuple[int, int]] = None,
                     fast: bool = False) -> list[ScalarSeries2]:
    """(m lam1 + n lam2) a_mn - [F(P)]_mn, coefficient by coefficient.

    Beyond P's grid the series coefficient is zero and the residual is
    just the negated field coefficient.
    """
    M0, N0 = P.orders
    if orders is None:
        orders = (M0, N0)
    field = field_series(m, p, P, orders, fast=fast)
    out = []
    for i in range(DIM):
        res = ScalarSeries2.zeros(*orders)
        for mm in range(orders[0] + 1):
            for nn in range(orders[1] + 1):
                f = field[i].coeff(mm, nn)
                if mm <= M0 and nn <= N0:
                    mu = lam1 * float(mm) + lam2 * float(nn)
                    f = mu * P.components[i].coeff(mm, nn) - f
                else:
                    f = -f
                res.set_coeff(mm, nn, f)
        out.append(res)
    return out


def invariance_residual(m: MassTriple, p: PrimaryConfig,
                        M: LocalManifold) -> list[ScalarSeries2]:
    """Per-coefficient defect of the invariance equation.

    Recomputed from the finished grids with full Cauchy products, by a
    different interpreter of the field program than the per-coefficient
    one the solver used; every coefficient enclosure must straddle
    zero.
    """
    return _residual_series(m, p, M.P, M.lambda1, M.lambda2)


# ---------------------------------------------------------------------------
# real charts


def real_chart(M: LocalManifold, sigma1, sigma2) -> IntervalVector:
    """Evaluate the real conjugacy Q(sigma) = P(s1 + i s2, s1 - i s2).

    By conjugate symmetry the value is real; the imaginary enclosure
    must straddle zero and the real part is returned.  Raises
    SymmetryViolation otherwise.
    """
    s1 = Interval._coerce(sigma1)
    s2 = Interval._coerce(sigma2)
    z1 = CInterval(s1, s2)
    z2 = CInterval(s1, -s2)
    vals = M.P.eval_box(z1, z2)
    for i, v in enumerate(vals):
        if not v.im.straddles_zero():
            raise SymmetryViolation(
                f"component {i}: imaginary part {v.im} excludes zero")
    return IntervalVector.from_intervals([v.re for v in vals])


# ---------------------------------------------------------------------------
# boundary meshing


def boundary_mesh(M: LocalManifold, R: float = 0.99, n_arcs: int = 20,
                  arc_order: Optional[int] = None) -> list[BoundaryArc]:
    """Secant-chord mesh of the circle |z1| = R, pushed through P.

    Chord j runs from R e^(2 pi i j / n) to the next vertex,
    parameterized over s in [-1, 1]; composing with P gives a
    polynomial arc of degree at most 2N, stored to ``arc_order``
    (default exactly 2N).  Dropping higher chord-degrees, when
    ``arc_order`` is smaller, adds the exact sum of dropped coefficient
    magnitudes to the arc tail.  Each chord must pass the
    parameter-plane transversality check: the flux of the linear field
    lam1 z through the outward chord normal is sign-definite, which
    needs checking only at the chord endpoints since the flux is linear
    along the chord.
    """
    if not 0.0 < R < 1.0:
        raise ValueError("mesh radius must be in (0, 1)")
    if n_arcs < 3:
        raise ValueError("need at least 3 arcs")
    N = M.P.orders[0]
    deg = 2 * N
    if arc_order is None:
        arc_order = deg
    verts = [R * complex(math.cos(2.0 * math.pi * k / n_arcs),
                         math.sin(2.0 * math.pi * k / n_arcs))
             for k in range(n_arcs)]
    chords = [(verts[k], verts[(k + 1) % n_arcs]) for k in range(n_arcs)]
    for p0, p1 in chords:
        _check_chord_flux(M, p0, p1)
    acc = _compose_chords(M.P, chords, deg)
    arcs = []
    for k, (p0, p1) in enumerate(chords):
        comps = []
        extra_tail = 0.0
        for i in range(k * DIM, (k + 1) * DIM):
            col = ScalarSeries2(acc.rlo[:, i:i + 1], acc.rhi[:, i:i + 1],
                                acc.ilo[:, i:i + 1], acc.ihi[:, i:i + 1])
            if arc_order < deg:
                dropped = ScalarSeries2(col.rlo[arc_order + 1:],
                                        col.rhi[arc_order + 1:],
                                        col.ilo[arc_order + 1:],
                                        col.ihi[arc_order + 1:])
                extra_tail = max(extra_tail, mag_sum_bound(dropped))
            comps.append(_fit(col, arc_order, 0))
        gamma = Series2(tuple(comps), scale=M.scale, tau=1.0,
                        real_symmetric=False, tail=M.P.tail + extra_tail)
        arcs.append(BoundaryArc(gamma=gamma, preimage=(p0, p1), kind=M.kind))
    return arcs


def _check_chord_flux(M: LocalManifold, p0: complex, p1: complex) -> None:
    normal = -1j * (p1 - p0)
    fluxes = [
        ((CInterval(normal.real, -normal.imag) * M.lambda1)
         * CInterval(z.real, z.imag)).re
        for z in (p0, p1)
    ]
    want_positive = M.kind == "unstable"
    for f in fluxes:
        if f.straddles_zero() or (f.hi > 0.0) != want_positive:
            raise TangencyDetected(
                f"chord flux enclosure {f} is not "
                f"{'outflowing' if want_positive else 'inflowing'}")


def _mul_linear(H: ScalarSeries2, c0, c1, deg: int) -> ScalarSeries2:
    """Product with (c0 + c1 s) along the first axis, truncated at deg.

    Works on stacked grids whose columns are independent series; c0
    and c1 are CIntervals, or one-row grids of per-column values.
    """
    s0 = H.scale(c0)
    s1 = H.scale(c1)
    width = H.rlo.shape[1]
    z = np.zeros((1, width))
    shift = ScalarSeries2(np.concatenate([z, s1.rlo[:deg]]),
                          np.concatenate([z, s1.rhi[:deg]]),
                          np.concatenate([z, s1.ilo[:deg]]),
                          np.concatenate([z, s1.ihi[:deg]]))
    return s0 + shift


def _compose_chords(P: Series2, chords: Sequence[tuple[complex, complex]],
                    deg: int) -> ScalarSeries2:
    """P along every chord z1 = mid + half s, z2 = conj(z1), s in [-1, 1].

    One nested Horner pass over a stacked grid whose rows are
    chord-parameter degrees 0..deg and whose column k * DIM + i is
    component i along chord k; per-column chord constants broadcast,
    so every column equals a Horner pass over its chord alone.
    """
    N = P.orders[0]
    n = len(chords)

    def per_column(zs) -> ScalarSeries2:
        z = np.repeat(np.array(zs, dtype=complex), DIM)[None]
        return ScalarSeries2(z.real, z.real, z.imag, z.imag)

    a0 = per_column([0.5 * (p0 + p1) for p0, p1 in chords])
    a1 = per_column([0.5 * (p1 - p0) for p0, p1 in chords])
    b0 = per_column([(0.5 * (p0 + p1)).conjugate() for p0, p1 in chords])
    b1 = per_column([(0.5 * (p1 - p0)).conjugate() for p0, p1 in chords])
    # coefficient (mm, nn) of every component, repeated for every chord
    parts = [np.tile(np.stack([getattr(c, f) for c in P.components], axis=-1),
                     n) for f in ("rlo", "rhi", "ilo", "ihi")]

    rows = []
    for mm in range(N + 1):
        acc = ScalarSeries2.zeros(deg, n * DIM - 1)
        acc.rlo[0], acc.rhi[0], acc.ilo[0], acc.ihi[0] = (
            x[mm, N] for x in parts)
        for nn in range(N - 1, -1, -1):
            acc = _mul_linear(acc, b0, b1, deg)
            rlo, rhi, ilo, ihi = (x[mm, nn] for x in parts)
            acc.rlo[0], acc.rhi[0] = _iadd_arr(acc.rlo[0], acc.rhi[0], rlo, rhi)
            acc.ilo[0], acc.ihi[0] = _iadd_arr(acc.ilo[0], acc.ihi[0], ilo, ihi)
        rows.append(acc)
    acc = rows[N]
    for mm in range(N - 1, -1, -1):
        acc = _mul_linear(acc, a0, a1, deg)
        acc = acc + rows[mm]
    return acc


# ---------------------------------------------------------------------------
# polydisc derivative bounds


def cauchy_tail_bound(sup_norm: float, nu: float, order: int) -> float:
    """Derivative bound on the polydisc of radius e^(-nu).

    For g analytic and bounded by sup_norm on the unit polydisc,
    first derivatives on the smaller polydisc are bounded by
    (6 pi / nu) sup_norm and second derivatives by
    (36 pi^2 / nu^2) sup_norm.
    """
    if nu <= 0.0:
        raise ValueError("nu must be positive")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    factor = 6 * _PI / Interval.from_value(nu)
    if order == 2:
        factor = factor.sqr()
    return (factor * Interval.from_value(sup_norm)).hi
