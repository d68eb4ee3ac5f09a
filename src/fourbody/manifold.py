"""Local invariant manifolds at the saddle-focus equilibrium.

The stable/unstable manifold is sought as a two-variable Taylor series
P(z1, z2) conjugating the linear flow exp(t diag(lam1, lam2)) to the
lifted polynomial field: lam1 z1 d1 P + lam2 z2 d2 P = F(P).  Matching
coefficients turns this into one linear "homological" equation per
coefficient, [DF(u0) - (m lam1 + n lam2) I] a_mn = -c_mn, where c_mn
collects products of strictly lower-order data.  The solver fills the
field program's node grids, one ``polyfield.FieldNodes``, one total
degree d = m + n at a time (``FieldNodes.degree``): with every degree-d
input slot at zero, the program's degree-d coefficients are exactly
the lower-order ("hat") sums c_mn of the degree's slots.  The field is
real and the first-order data conjugate (v2 = conj v1), so the exact
solution, and every node series with it, has a_nm = conj(a_mn): only
the half m >= n of a degree is evaluated and solved, and every grid's
other half is filled by that exact swap.  The half's coefficients come
from one stacked verified solve, each with its own Krawczyk
certificate, and the node Jacobian at the expansion point lands their
linear contribution on every node in one stacked product; one
``polyfield.node_jets`` pass gives that Jacobian and the (0, 0) values
of every node.  ``field_series`` fills the same interpreter column by
column, as advection does, and the tail of a finished manifold comes
from ``polyfield.field_defect``, the bound that also gives an advected
chart its defect.  Every fill reads P where it is written, in the
interpreter's input rows: column n of every node is F of input columns
0..n; P is complex, and so are the interpreters' stores.

The formal solution scales exactly.  If P solves the invariance
equation, so does P(s z1, s z2), whose first-order data are s v1 and
s v2.  The solve succeeds only where every m lam1 + n lam2 with
m + n >= 2 misses the spectrum of DF(u0) (non-resonance), and then the
first-order data determine the solution, so the data (s v1, s v2) give
the coefficients s^(m+n) a_mn: P_s(z) = P_1(s z) (Haro et al., The
Parameterization Method for Invariant Manifolds, Springer 2016,
ch. 2).  ``local_manifold`` therefore solves once, on the unit
eigenvector, and encloses the coefficient at a real scale s by the
product of its box at scale 1 with a box enclosing s^(m+n)
(``Series2.rescale``).  For every eigenvector in the unit data's box,
that product contains the exact coefficient at scale s.

Everything downstream of P is real.  On z2 = conj(z1), P is the real
chart Q(s1, s2) = P(s1 + i s2, s1 - i s2), a real polynomial of total
degree 2N, built once per manifold (``LocalManifold.Q``) one total
degree d at a time: Q_d = Re(T_d a_d), with a_d the degree-d
antidiagonal of P and T_d[j, m] the coefficient of s1^j s2^(d-j) in
(s1 + i s2)^m (s1 - i s2)^(d-m).  Theorem: the entries of T_d are
Gaussian integers of modulus at most 2^d, exact floats while d <= 53
and enclosed by neighbouring floats beyond; the products are exact
interval products and the sums padded, so Q encloses the exact chart.
For the exact, conjugate-symmetric solution Im(T_d a_d) = 0, so its
enclosure must straddle zero, or SymmetryViolation is raised.
``real_chart`` evaluates Q, and ``boundary_mesh`` meshes the
fundamental-domain boundary into secant chords with a parameter-plane
transversality certificate and composes Q with them by real Horner,
so the mesh arcs are real from birth.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .crfbp import EigenData, MassTriple, PrimaryConfig, State4, eigen_data
from .errors import (DomainExceeded, FourbodyError, SymmetryViolation,
                     TangencyDetected)
from .interval import (CInterval, CIntervalArray, Interval, IntervalArray,
                       verified_solve_complex)
from .nk import certify_equilibrium
from .polyfield import (DIM, FieldNodes, State7, embed_R, field_defect,
                        field_program, lift_eigvector, node_jets)
from .taylor import (
    ScalarSeries2,
    Series2,
    _fit,
    antidiagonal,
    compose_affine,
    horner_box,
    mag_sum_bound,
    product_coeff,  # noqa: F401  (uncalled; see below)
)

# Nothing here calls ``product_coeff``.  The binding stays because the
# benchmark's tracer test (bench/test_bench.py) checks that its wrapper
# reaches every fourbody namespace that binds the name, this one
# included.

@dataclass(frozen=True)
class LocalManifold:
    """A validated local manifold parameterization.

    ``P`` is the dim-7 series in the scaled conjugacy variables; its
    ``tail`` field carries a rigorous bound on the sup of the
    invariance defect over the unit polydisc (``param_equilibrium``).
    """

    P: Series2
    kind: str
    eigen: EigenData
    lambda1: CInterval
    lambda2: CInterval
    equilibrium: State7

    def __post_init__(self):
        if self.kind not in ("stable", "unstable"):
            raise ValueError(f"kind must be stable or unstable, got {self.kind}")
        if self.P.dim != DIM:
            raise ValueError("manifold series must have 7 components")

    @property
    def order(self) -> int:
        return self.P.orders[0]

    @property
    def scale(self) -> complex:
        """The eigenvector scale, the series' own ``P.scale``."""
        return complex(self.P.scale)

    @functools.cached_property
    def Q(self) -> IntervalArray:
        """The real chart Q(s1, s2) = P(s1 + i s2, s1 - i s2): coefficient
        of s1^j s2^k of component i at [i, j, k], shape
        (7, 2N + 1, 2N + 1), built on first use by ``_real_series``,
        which raises SymmetryViolation if the imaginary part of Q
        cannot be zero."""
        return _real_series(self.P)


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


def _land(G: CIntervalArray, J: CIntervalArray, d: int,
          vals: Sequence[CIntervalArray], m_min: int = 0) -> None:
    """Install the inputs ``vals`` (one slot array per input) in the
    degree-d slots with m >= m_min of the node grids ``G``, after
    ``FieldNodes.degree`` on zero input slots: every node's slots gain
    J a, the inputs' exactly a, with J the node Jacobian at the (0, 0)
    values.  A product reaches a degree-d slot with a degree-d input
    only by pairing it with (0, 0) values, so J a is exactly that
    linear effect, and by sub-distributivity no wider than the tangent
    chain that multiplies a again at every node."""
    ms, ns = antidiagonal(G.shape[1] - 1, G.shape[2] - 1, d, m_min)
    G[:, ms, ns] = G[:, ms, ns] + J @ CIntervalArray.of(vals)


def _mirror(G: CIntervalArray, d: int) -> None:
    """Fill every grid's degree-d slots with m < n by the exact swap
    a_nm = conj(a_mn) from the slots with m > n, and narrow the
    imaginary part of the slot (d/2, d/2) to its intersection with
    its negation.  Sound when every exact node series is
    conjugate-symmetric, as for real program constants, real (0, 0)
    values and conjugate first-order data: the conjugate of an
    enclosure of a_mn encloses conj(a_mn) = a_nm, and a_kk is real, so
    both an enclosure and its conjugate contain it.  Raises
    SymmetryViolation if a diagonal enclosure excludes the real axis."""
    lo, hi = G.lo, G.hi
    N = G.shape[1] - 1
    ms, ns = antidiagonal(N, N, d, d // 2 + 1)
    lo[0][:, ns, ms], hi[0][:, ns, ms] = lo[0][:, ms, ns], hi[0][:, ms, ns]
    lo[1][:, ns, ms], hi[1][:, ns, ms] = -hi[1][:, ms, ns], -lo[1][:, ms, ns]
    k = d // 2
    if d % 2 == 0 and k <= N:
        r = np.minimum(hi[1][:, k, k], -lo[1][:, k, k])
        if np.any(r < 0.0):
            raise SymmetryViolation(
                f"the imaginary part of slot ({k}, {k}) excludes zero")
        lo[1][:, k, k], hi[1][:, k, k] = -r, r


def solve_homological(m: MassTriple, p: PrimaryConfig, u0: State7,
                      v1: Sequence[CInterval], v2: Sequence[CInterval],
                      lam1: CInterval, lam2: CInterval, N: int) -> Series2:
    """Taylor coefficients of the conjugacy through the square grid (N, N).

    The node grids are one ``polyfield.FieldNodes`` on (N, N).  One
    ``polyfield.node_jets`` pass at u0 gives every node's (0, 0) slot,
    its value column, and the node Jacobian J, its gradient columns.
    Only the half m >= n of each degree d is computed: one
    ``FieldNodes.degree`` of its hat sums, one stacked
    ``verified_solve_complex`` of the homological equations
    [DF(u0) - (m lam1 + n lam2) I] a_mn = -c_mn over its slots, with
    DF(u0) the output rows of J, and one ``_land``; ``_mirror`` then
    fills the rest by a_nm = conj(a_mn).  The first-order data v1 is
    installed verbatim at (1, 0).  The returned enclosures contain the
    coefficients of the exact formal solution for every point of the
    data's boxes with v2 = conj(v1) and lam2 = conj(lam1), as the
    eigendata of the real field have; since F is real, that solution is
    conjugate-symmetric, and every node series of the program with it.
    Raises ValueError unless v2 and lam2 equal the conjugates of v1 and
    lam1 endpoint for endpoint, the premise of the mirror.  Raises
    SingularEnclosure if a homological matrix cannot be certified
    regular, which would mean m lam1 + n lam2 collides with the
    spectrum of DF(u0) and contradicts the saddle-focus certificate.
    """
    if len(v1) != DIM or len(v2) != DIM:
        raise ValueError("first-order data must have 7 components")
    if N < 1:
        raise ValueError("order N must be at least 1")
    if (any(b != a.conj() for a, b in zip(v1, v2))
            or lam2 != lam1.conj()):
        raise ValueError("the half solve needs v2 = conj(v1) and "
                         "lam2 = conj(lam1), endpoint for endpoint")
    prog = field_program(m, p)
    nodes = FieldNodes(prog, CIntervalArray.zeros((1, DIM, 1, 1)), N, N)
    G = nodes.G[0]
    jets = CIntervalArray.from_real(node_jets(prog,
                                              IntervalArray.of(u0.u)[None])[0])
    G[:, 0, 0] = jets[:, 0]
    J = jets[:, 1:]
    df = J[list(prog.outputs)]
    diag = np.arange(DIM)
    # degree 1 has no hat sums, since a product reaches it only by
    # pairing a degree-1 slot with a (0, 0) one: slot (1, 0) takes v1
    _land(G, J, 1, [CIntervalArray.of([v]) for v in v1], 1)
    _mirror(G, 1)
    for d in range(2, 2 * N + 1):
        m_min = (d + 1) // 2
        ms, ns = antidiagonal(N, N, d, m_min)
        c = nodes.degree(d, m_min)[0]
        mu = (CIntervalArray.of([lam1]) * ms.astype(float)
              + CIntervalArray.of([lam2]) * ns.astype(float))
        # the homological matrices and right-hand sides, stacked over slots
        A = CIntervalArray._wrap(
            np.repeat(df.lo[:, None], len(ms), axis=1),
            np.repeat(df.hi[:, None], len(ms), axis=1))
        A[:, diag, diag] = A[:, diag, diag] - mu[:, None]
        rhs = CIntervalArray._wrap(-c.hi.swapaxes(1, 2), -c.lo.swapaxes(1, 2))
        sols = verified_solve_complex(A, rhs)
        _land(G, J, d, [sols[:, i] for i in range(DIM)], m_min)
        _mirror(G, d)
    return Series2(G[:DIM])


def param_equilibrium(m: MassTriple, p: PrimaryConfig, u0: State7,
                      P: Series2, lam1: CInterval, lam2: CInterval, *,
                      kind: str, eigen: EigenData) -> LocalManifold:
    """Wrap a solved series P, at its eigenvector scale ``P.scale``,
    in a LocalManifold whose tail bounds the sup over the unit polydisc
    of the invariance defect lam1 z1 d1 P + lam2 z2 d2 P - F(P) of P.

    Its left-hand side has the coefficients (m lam1 + n lam2) a_mn on
    P's (N, N) grid.  P is the input of a fresh ``FieldNodes`` on the
    fixed grid K = ceil(3 N / 2), zero past (N, N), and
    ``field_defect`` fills every column of it and returns
    the tail: the largest over i of the l1 norm of the in-grid residual
    res_i plus a bound lost_i on the coefficient mass of F_i(P) beyond
    the (K, K) grid, which bounds component i's defect over the unit
    polydisc.
    """
    N = P.orders[0]
    K = -(-3 * N // 2)
    mu = (CIntervalArray.of([lam1]) * np.arange(N + 1.0)[:, None]
          + CIntervalArray.of([lam2]) * np.arange(N + 1.0)[None, :])
    lhs = CIntervalArray.zeros((1, DIM, K + 1, K + 1))
    lhs[0, :, : N + 1, : N + 1] = P.coefs * mu
    cols = FieldNodes(field_program(m, p), P.coefs[None], K, K)
    tail, = field_defect(cols, lhs)
    P = Series2(P.coefs, scale=P.scale, tail=float(tail))
    return LocalManifold(P=P, kind=kind, eigen=eigen, lambda1=lam1,
                         lambda2=lam2, equilibrium=u0)


# magnitude the order-N coefficients get from the default eigenvector scale
_TARGET = 1e-10


def local_manifold(m: MassTriple, p: PrimaryConfig, kind: str, N: int = 7,
                   scale: Optional[float] = None,
                   seed: tuple[float, float] = (0.93, 0.22)) -> LocalManifold:
    """Certify the equilibrium, then parameterize its local manifold.

    One homological solve, on the unit lifted eigenvector: v1 = xi,
    v2 = conj xi.  The series at the real eigenvector scale s is that
    solution rescaled, ``P.rescale(s)``, which is exact for the
    formal solution (see the module docstring): each coefficient box
    times an enclosure of s^(m+n).  When no scale is given, s is
    (_TARGET / g_top)^(1/N), with g_top the largest order-N
    coefficient magnitude of the unit solution, so the order-N
    coefficients of the rescaled series have magnitude near
    _TARGET = 1e-10.
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
    P = solve_homological(m, p, u0, xi, tuple(c.conj() for c in xi),
                          lam1, lam2, N)
    if scale is None:
        g_top = max(comp.at(mm, N - mm).abs().hi
                    for comp in P.components for mm in range(N + 1))
        scale = (_TARGET / g_top) ** (1.0 / N)
    return param_equilibrium(m, p, u0, P.rescale(float(scale)), lam1, lam2,
                             kind=kind, eigen=eig)


# ---------------------------------------------------------------------------
# invariance defect


def field_series(m: MassTriple, p: PrimaryConfig, P: Series2,
                 orders: Optional[tuple[int, int]] = None
                 ) -> tuple[ScalarSeries2, ...]:
    """Coefficients of F(P) through ``orders``, by the series
    interpreter of the field program over every column.

    The default truncates to P's own grid.  The composition is a
    quintic polynomial in the components, so passing ``(5 M, 5 N)``
    captures every coefficient, a reference for the defect bounds of
    ``polyfield.field_defect``, which need no more than a fixed grid.
    P is the input of an interpreter on the requested grid, zero past
    P's own, on which every node is kept.
    """
    M0, N0 = P.orders
    if orders is None:
        orders = (M0, N0)
    OM, ON = orders
    if OM < M0 or ON < N0:
        raise ValueError(f"field orders {orders} below the grid ({M0}, {N0})")
    cols = FieldNodes(field_program(m, p), P.coefs[None], OM, ON)
    for n in range(ON + 1):
        cols.b_column(n)
    return Series2(cols.G[0, cols.outputs]).components


# ---------------------------------------------------------------------------
# the real chart


@functools.lru_cache(maxsize=None)
def _chart_transform(d: int) -> CIntervalArray:
    """Enclosure of T_d, shape (d + 1, d + 1): entry (j, m) is the
    coefficient of s1^j s2^(d-j) in (s1 + i s2)^m (s1 - i s2)^(d-m).

    Expanding both binomials, the coefficient of s2^k, k = d - j, is
    (-i)^k sum_p (-1)^p C(m, p) C(d - m, k - p), a Gaussian integer
    formed here in Python integers.  Its modulus is at most C(d, k)
    <= 2^d, so it is an exact float pair while d <= 53; a part that is
    not is enclosed by its two neighbouring floats.
    """
    lo = np.zeros((2, d + 1, d + 1))
    hi = np.zeros((2, d + 1, d + 1))
    for m in range(d + 1):
        for j in range(d + 1):
            k = d - j
            # (-i)^k: 1, -i, -1, i
            part, sign = ((0, 1), (1, -1), (0, -1), (1, 1))[k % 4]
            v = sign * sum((-1) ** p * math.comb(m, p)
                           * math.comb(d - m, k - p)
                           for p in range(max(0, k - d + m), min(m, k) + 1))
            # Python compares the int v and the float x exactly
            x = float(v)
            lo[part, j, m] = x if x <= v else math.nextafter(x, -math.inf)
            hi[part, j, m] = x if x >= v else math.nextafter(x, math.inf)
    for x in (lo, hi):
        x.flags.writeable = False  # shared by every caller of the cache
    return CIntervalArray._wrap(lo, hi)


def _real_series(P: Series2) -> IntervalArray:
    """Coefficients of the real chart Q(s1, s2) = P(s1 + i s2, s1 - i s2)
    as a real array of shape (DIM, 2N + 1, 2N + 1), coefficient of
    s1^j s2^k at [i, j, k], zero past the triangle j + k <= 2N.

    Degree by degree, Q_d = Re(T_d a_d), with T_d from
    ``_chart_transform`` and a_d the degree-d antidiagonal of P's
    (N, N) grid, one column per component: one ``CIntervalArray`` ``@``
    of exact products and padded sums.  Since a_nm = conj(a_mn) for the
    exact solution, Im(T_d a_d) is zero: its enclosure must straddle
    zero, or SymmetryViolation is raised.
    """
    N = P.orders[0]
    # coefficient (m, n) of component i at [m, n, i]
    a = CIntervalArray._wrap(P.coefs.lo.transpose(0, 2, 3, 1),
                             P.coefs.hi.transpose(0, 2, 3, 1))
    lo = np.zeros((DIM, 2 * N + 1, 2 * N + 1))
    hi = np.zeros_like(lo)
    for d in range(2 * N + 1):
        ms, ns = antidiagonal(N, N, d)
        # entry (j, i): the s1^j s2^(d-j) coefficient of component i
        q = _chart_transform(d)[:, ms] @ a[ms, ns]
        im_lo, im_hi = q.lo[1].T, q.hi[1].T
        bad = np.argwhere((im_lo > 0.0) | (im_hi < 0.0))
        if bad.size:
            i, j = bad[0]
            raise SymmetryViolation(
                f"component {i}, coefficient of s1^{j} s2^{d - j}: "
                f"imaginary part [{im_lo[i, j]}, {im_hi[i, j]}] excludes zero")
        js = np.arange(d + 1)
        lo[:, js, d - js], hi[:, js, d - js] = q.lo[0].T, q.hi[0].T
    return IntervalArray(lo, hi)


def real_chart(M: LocalManifold, sigma1, sigma2) -> IntervalArray:
    """Evaluate the real conjugacy Q(sigma) = P(s1 + i s2, s1 - i s2).

    ``horner_box`` on ``M.Q``, the series of Q, first in s2 for every
    power of s1, then in s1; the value is padded by the manifold tail,
    which bounds P only over the closed unit polydisc, where
    |s1 + i s2| <= 1 puts the point: DomainExceeded is raised unless
    the upper end of the enclosure of |s1 + i s2| is at most 1.
    Building Q checks that its imaginary part straddles zero and raises
    SymmetryViolation otherwise.  Kept for the proof of homoclinic
    connections, which matches real charts of the two manifolds.
    """
    s1 = Interval._coerce(sigma1)
    s2 = Interval._coerce(sigma2)
    r = CInterval(s1, s2).abs().hi
    if r > 1.0:
        raise DomainExceeded(
            f"evaluation point leaves the unit disk: |sigma| up to {r}")
    v = horner_box(M.Q, s1, s2)
    t = M.P.tail
    return v + IntervalArray(np.full(DIM, -t), np.full(DIM, t))


# ---------------------------------------------------------------------------
# boundary meshing


def boundary_mesh(M: LocalManifold, R: float = 0.99, n_arcs: int = 20,
                  arc_order: Optional[int] = None) -> list[BoundaryArc]:
    """Secant-chord mesh of the circle |z1| = R, pushed through P.

    Chord j runs from R e^(2 pi i j / n) to the next vertex,
    parameterized over s in [-1, 1] as z1 = c + h s with the float
    points c (midpoint) and h (half chord).  On z2 = conj(z1), P is
    the real chart Q at sigma = (Re z1, Im z1), so each arc is
    Q(Re c + Re h s, Im c + Im h s), a real polynomial of degree at
    most 2N, by one real Horner pass over every chord at once
    (``_chord_arcs``); building ``M.Q`` checks that its imaginary part
    straddles zero and raises SymmetryViolation otherwise.  Arcs are
    stored to ``arc_order`` (default exactly 2N) with exactly zero
    imaginary grids.  Dropping higher chord-degrees, when
    ``arc_order`` is smaller, adds the exact sum of dropped coefficient
    magnitudes to the arc tail.  Each composed chord c + h s must pass
    the parameter-plane transversality check of ``_check_chord_flux``.
    Raises ValueError for a negative ``arc_order``.
    """
    if not 0.0 < R < 1.0:
        raise ValueError("mesh radius must be in (0, 1)")
    if n_arcs < 3:
        raise ValueError("need at least 3 arcs")
    N = M.P.orders[0]
    deg = 2 * N
    if arc_order is None:
        arc_order = deg
    if arc_order < 0:
        raise ValueError(f"arc order must be nonnegative, got {arc_order}")
    verts = [R * complex(math.cos(2.0 * math.pi * k / n_arcs),
                         math.sin(2.0 * math.pi * k / n_arcs))
             for k in range(n_arcs)]
    chords = [(verts[k], verts[(k + 1) % n_arcs]) for k in range(n_arcs)]
    mids = [0.5 * (p0 + p1) for p0, p1 in chords]
    halves = [0.5 * (p1 - p0) for p0, p1 in chords]
    for c, h in zip(mids, halves):
        _check_chord_flux(M, c, h)
    c = np.array([[z.real, z.imag] for z in mids])
    h = np.array([[z.real, z.imag] for z in halves])
    real = _chord_arcs(M.Q, c, h)
    # coefficient r of component i along chord k at [k, i, r, 0]
    lo, hi = (x.reshape(deg + 1, n_arcs, DIM).transpose(1, 2, 0)[..., None]
              for x in (real.lo, real.hi))
    arcs = []
    for k, (p0, p1) in enumerate(chords):
        full = Series2.from_real(IntervalArray(lo[k], hi[k])).coefs
        # mass of each component's dropped chord-degrees, 0 when none
        cut = max(mag_sum_bound(full[i, arc_order + 1:]) for i in range(DIM))
        gamma = Series2(_fit(full, arc_order, 0), scale=M.scale,
                        tail=M.P.tail + cut)
        arcs.append(BoundaryArc(gamma=gamma, preimage=(p0, p1), kind=M.kind))
    return arcs


def _check_chord_flux(M: LocalManifold, c: complex, h: complex) -> None:
    """Transversality of the composed chord z1 = c + h s, s in [-1, 1]:
    the flux Re(conj(nu) lam1 z1) of the linear field lam1 z1 through
    the chord normal nu = -i h, outward for counterclockwise vertices,
    must be positive for an unstable manifold and negative for a stable
    one, or TangencyDetected is raised.  The flux is linear along the
    chord, so its ends decide; they are enclosed as
    CInterval(c) -+ CInterval(h), since the float sums c -+ h need not
    be the vertices the chord was cut between.
    """
    cc = CInterval(c.real, c.imag)
    hh = CInterval(h.real, h.imag)
    # conj(nu) = conj(-i h) = Im h + i Re h, exactly
    w = CInterval(h.imag, h.real) * M.lambda1
    want_positive = M.kind == "unstable"
    for z in (cc - hh, cc + hh):
        f = (w * z).re
        if f.straddles_zero() or (f.hi > 0.0) != want_positive:
            raise TangencyDetected(
                f"chord flux enclosure {f} is not "
                f"{'outflowing' if want_positive else 'inflowing'}")


def _chord_arcs(Q: IntervalArray, c: np.ndarray, h: np.ndarray
                ) -> IntervalArray:
    """Q along every line sigma = c[k] + h[k] s, c and h of shape
    (chords, 2), as one real Horner pass over a stack whose column
    k * DIM + i is component i along chord k.

    For each power j of s1 an inner ``taylor.compose_affine`` pass in
    s2 gives rows[j] = sum_k q_jk s2(s)^k, of degree D - j; the outer
    pass composes those in s1.  Stacking the inner passes over j
    instead would multiply the triangle's zeros, almost three times
    the rows.  Per-column points broadcast, so every column equals a
    pass over its chord alone.  Returns shape (D + 1, chords * DIM),
    row r the s^r coefficient.
    """
    D = Q.shape[1] - 1
    n = c.shape[0]
    # coefficient (j, k) of component i at [j, k, col], every chord's col
    qt = IntervalArray(np.tile(Q.lo.transpose(1, 2, 0), n),
                       np.tile(Q.hi.transpose(1, 2, 0), n))
    c1, c2, h1, h2 = (np.repeat(x, DIM) for x in (c[:, 0], c[:, 1],
                                                  h[:, 0], h[:, 1]))
    rows = [compose_affine([qt[j, k: k + 1] for k in range(D - j + 1)],
                           c2, h2)
            for j in range(D + 1)]
    return compose_affine(rows, c1, h1)
