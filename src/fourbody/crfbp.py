"""The planar circular restricted four-body model.

Three primaries with masses m1 >= m2 >= m3 (normalized to sum 1) sit at
the vertices of Lagrange's equilateral triangle, rotating uniformly about
their barycenter.  A massless particle moves in their rotating-frame
field.  This module provides the primary positions, the effective
potential and its derivatives through third order, the vector field's
derivative, the Jacobi integral, and certified eigen-data of
equilibria, all evaluable over interval boxes, and float evaluations
of the field for Newton seeds and reference integration.

State ordering everywhere is (x, xdot, y, ydot).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CollisionDomain,
    DegenerateEigvec,
    DegenerateMasses,
    NewtonDiverged,
    NotSaddleFocus,
)
from .interval import CInterval, Interval, IntervalArray


@dataclass(frozen=True)
class MassTriple:
    """Normalized primary masses with 0 < m3 <= m2 <= m1 < 1."""

    m1: Interval
    m2: Interval
    m3: Interval

    @classmethod
    def from_floats(cls, m1: float, m2: float, m3: float) -> "MassTriple":
        t = cls(Interval.from_value(m1), Interval.from_value(m2),
                Interval.from_value(m3))
        t.validate()
        return t

    def validate(self) -> None:
        if not (self.m3.lo > 0.0 and self.m3.hi <= self.m2.hi
                and self.m2.hi <= self.m1.hi and self.m1.hi < 1.0):
            raise DegenerateMasses(
                f"mass ordering violated: {self.m1}, {self.m2}, {self.m3}")
        total = self.m1 + self.m2 + self.m3
        if not total.contains(1.0):
            raise DegenerateMasses(f"masses do not sum to 1: {total}")

    def as_floats(self) -> tuple[float, float, float]:
        return (self.m1.mid, self.m2.mid, self.m3.mid)


@dataclass(frozen=True)
class PrimaryConfig:
    """Rotating-frame positions of the three primaries."""

    positions: tuple[tuple[Interval, Interval], ...]
    K: Interval

    def position_array(self) -> np.ndarray:
        """Midpoint positions as a (3, 2) float array."""
        return np.array([[p[0].mid, p[1].mid] for p in self.positions])


@dataclass(frozen=True)
class State4:
    """Particle state (x, xdot, y, ydot) with interval entries."""

    x: Interval
    xdot: Interval
    y: Interval
    ydot: Interval

    @classmethod
    def from_floats(cls, x: float, xdot: float, y: float, ydot: float) -> "State4":
        return cls(Interval.from_value(x), Interval.from_value(xdot),
                   Interval.from_value(y), Interval.from_value(ydot))


def primaries(m: MassTriple) -> PrimaryConfig:
    """Closed-form equilateral primary positions for a mass triple.

    Raises DegenerateMasses if the returned configuration fails its own
    invariants (pairwise distances enclosing 1, barycenter enclosing 0).
    """
    m.validate()
    m1, m2, m3 = m.m1, m.m2, m.m3
    K = m2 * (m3 - m2) + m1 * (m2 + 2 * m3)
    if K.straddles_zero():
        raise DegenerateMasses(f"K encloses zero: {K}")
    S = (m2.sqr() + m2 * m3 + m3.sqr()).sqrt()
    sign_K = K / abs(K)  # |K|/K as an interval of magnitude 1
    sqrt3 = Interval.from_value(3.0).sqrt()
    x1 = -(S * sign_K)
    y1 = Interval.from_value(0.0)
    x2 = ((m2 - m3) * m3 + m1 * (2 * m2 + m3)) / (2 * S * sign_K)
    y2 = -(sqrt3 * m3) / (2 * S)
    x3 = abs(K) / (2 * S)
    y3 = (sqrt3 * m2) / (2 * S)
    cfg = PrimaryConfig(((x1, y1), (x2, y2), (x3, y3)), K)
    _validate_primaries(cfg, m)
    return cfg


def _validate_primaries(cfg: PrimaryConfig, m: MassTriple) -> None:
    ms = (m.m1, m.m2, m.m3)
    pos = cfg.positions
    for i in range(3):
        for j in range(i + 1, 3):
            dx = pos[i][0] - pos[j][0]
            dy = pos[i][1] - pos[j][1]
            dist = (dx.sqr() + dy.sqr()).sqrt()
            if not dist.contains(1.0):
                raise DegenerateMasses(
                    f"primary distance {i}{j} does not enclose 1: {dist}")
    for k in range(2):
        bary = sum((ms[i] * pos[i][k] for i in range(3)),
                   Interval.from_value(0.0))
        if not bary.straddles_zero():
            raise DegenerateMasses(f"barycenter component {k} off zero: {bary}")


def _distances(p: PrimaryConfig, x: Interval, y: Interval) -> list[Interval]:
    """Interval distances to the three primaries.

    Raises CollisionDomain if any enclosure touches zero.
    """
    out = []
    for (px, py) in p.positions:
        dx = x - px
        dy = y - py
        r = (dx.sqr() + dy.sqr()).sqrt()
        if r.lo <= 0.0:
            raise CollisionDomain(f"distance enclosure {r} touches zero")
        out.append(r)
    return out


def omega(p: PrimaryConfig, m: MassTriple, x: Interval, y: Interval
          ) -> Interval:
    """Effective potential 0.5(x^2+y^2) + sum_j m_j / r_j."""
    rs = _distances(p, x, y)
    ms = (m.m1, m.m2, m.m3)
    total = (x.sqr() + y.sqr()) * Interval.from_value(0.5)
    for mj, rj in zip(ms, rs):
        total = total + mj / rj
    return total


def omega_first_partials(p: PrimaryConfig, m: MassTriple, x: Interval,
                         y: Interval) -> tuple[Interval, Interval]:
    """Gradient of the effective potential (Omega_x, Omega_y)."""
    rs = _distances(p, x, y)
    ms = (m.m1, m.m2, m.m3)
    ox = x
    oy = y
    for (px, py), mj, rj in zip(p.positions, ms, rs):
        r3 = rj.pow_int(3)
        ox = ox - mj * (x - px) / r3
        oy = oy - mj * (y - py) / r3
    return ox, oy


def energy(p: PrimaryConfig, m: MassTriple, s: State4) -> Interval:
    """Jacobi integral E = 0.5(xdot^2 + ydot^2) - Omega.

    Kept for the proof of homoclinic connections, which works on an
    energy level set."""
    kin = (s.xdot.sqr() + s.ydot.sqr()) * Interval.from_value(0.5)
    return kin - omega(p, m, s.x, s.y)


def energy_gradient(p: PrimaryConfig, m: MassTriple, s: State4
                    ) -> IntervalArray:
    """Gradient of the Jacobi integral in state order: (-Omega_x, xdot, -Omega_y, ydot).

    Kept for the proof of homoclinic connections, which needs the
    energy level set's normal."""
    ox, oy = omega_first_partials(p, m, s.x, s.y)
    return IntervalArray.of([-ox, s.xdot, -oy, s.ydot])


def second_partials_g(p: PrimaryConfig, m: MassTriple, x: Interval,
                      y: Interval) -> tuple[Interval, Interval, Interval]:
    """Second partials of the potential: (g11, g12, g22) = (Omega_xx, Omega_xy, Omega_yy)."""
    rs = _distances(p, x, y)
    ms = (m.m1, m.m2, m.m3)
    one = Interval.from_value(1.0)
    g11 = one
    g12 = Interval.from_value(0.0)
    g22 = one
    for (px, py), mj, rj in zip(p.positions, ms, rs):
        dx = x - px
        dy = y - py
        r5 = rj.pow_int(5)
        g11 = g11 + mj * (2 * dx.sqr() - dy.sqr()) / r5
        g12 = g12 + 3 * mj * dx * dy / r5
        g22 = g22 + mj * (2 * dy.sqr() - dx.sqr()) / r5
    return g11, g12, g22


def jacobian_df(p: PrimaryConfig, m: MassTriple, s: State4
                ) -> IntervalArray:
    """Derivative of the vector field at a state.

    Velocities enter the field linearly, so the matrix depends on the
    state only through (x, y) via the potential's second partials.
    Kept for the proof of homoclinic connections, which needs the
    planar field's derivative.
    """
    g11, g12, g22 = second_partials_g(p, m, s.x, s.y)
    z = np.zeros((4, 4))
    lo = z.copy()
    hi = z.copy()
    lo[0, 1] = hi[0, 1] = 1.0
    lo[1, 3] = hi[1, 3] = 2.0
    lo[2, 3] = hi[2, 3] = 1.0
    lo[3, 1] = hi[3, 1] = -2.0
    for (i, j), g in (((1, 0), g11), ((1, 2), g12), ((3, 0), g12), ((3, 2), g22)):
        lo[i, j] = g.lo
        hi[i, j] = g.hi
    return IntervalArray(lo, hi)


def omega_second_partials(p: PrimaryConfig, m: MassTriple, x: Interval,
                          y: Interval) -> IntervalArray:
    """Third partials of the potential as the 2x2x2 Hessian tensor of
    (Omega_x, Omega_y).

    Entry (i, j, k) is the (j, k) second partial of component i of the
    planar gradient map; mixed-partial symmetry holds by construction
    since symmetric entries share one formula.
    """
    rs = _distances(p, x, y)
    ms = (m.m1, m.m2, m.m3)
    oxxx = Interval.from_value(0.0)
    oxxy = Interval.from_value(0.0)
    oxyy = Interval.from_value(0.0)
    oyyy = Interval.from_value(0.0)
    for (px, py), mj, rj in zip(p.positions, ms, rs):
        dx = x - px
        dy = y - py
        r7 = rj.pow_int(7)
        c = 3 * mj
        oxxx = oxxx + c * dx * (3 * dy.sqr() - 2 * dx.sqr()) / r7
        oxxy = oxxy + c * dy * (dy.sqr() - 4 * dx.sqr()) / r7
        oxyy = oxyy + c * dx * (dx.sqr() - 4 * dy.sqr()) / r7
        oyyy = oyyy + c * dy * (3 * dx.sqr() - 2 * dy.sqr()) / r7
    lo = np.zeros((2, 2, 2))
    hi = np.zeros((2, 2, 2))
    grid = {(0, 0, 0): oxxx, (0, 0, 1): oxxy, (0, 1, 0): oxxy, (0, 1, 1): oxyy,
            (1, 0, 0): oxxy, (1, 0, 1): oxyy, (1, 1, 0): oxyy, (1, 1, 1): oyyy}
    for idx, iv in grid.items():
        lo[idx] = iv.lo
        hi[idx] = iv.hi
    return IntervalArray(lo, hi)


# ---------------------------------------------------------------------------
# eigen-data at an equilibrium


@dataclass(frozen=True)
class EigenData:
    """Saddle-focus eigen-data: rates alpha, beta and the four eigenvectors.

    Eigenvalues come in the quadruplet +-alpha +- i beta; the stable pair
    is -alpha +- i beta, the unstable pair +alpha +- i beta.  Paired
    eigenvectors are componentwise complex conjugates by construction.
    """

    alpha: Interval
    beta: Interval
    eigvec_s1: tuple[CInterval, ...]  # for -alpha + i beta
    eigvec_s2: tuple[CInterval, ...]  # for -alpha - i beta
    eigvec_u1: tuple[CInterval, ...]  # for +alpha + i beta
    eigvec_u2: tuple[CInterval, ...]  # for +alpha - i beta

    def eigenvalue(self, kind: str, branch: int) -> CInterval:
        """The eigenvalue for ('stable'|'unstable', +1|-1)."""
        re = -self.alpha if kind == "stable" else self.alpha
        im = self.beta if branch > 0 else -self.beta
        return CInterval(re, im)

    def eigenvector(self, kind: str, branch: int) -> tuple[CInterval, ...]:
        if kind == "stable":
            return self.eigvec_s1 if branch > 0 else self.eigvec_s2
        return self.eigvec_u1 if branch > 0 else self.eigvec_u2


def _conj_vec(v: tuple[CInterval, ...]) -> tuple[CInterval, ...]:
    return tuple(c.conj() for c in v)


def eigen_data(p: PrimaryConfig, m: MassTriple, x0: State4) -> EigenData:
    """Certified eigen-data of the linearization at an equilibrium.

    The characteristic polynomial is lambda^4 + A lambda^2 + B with
    A = 4 - g11 - g22 and B = g11 g22 - g12^2; a complex root pair for
    lambda^2 is certified from the discriminant enclosure, which yields
    the quadruplet +-alpha +- i beta.  Eigenvectors follow the explicit
    construction (r, lambda r, s, lambda s) with
    r = -s (g12 + 2 lambda) / (g11 - lambda^2), normalized to unit
    max-norm at midpoint precision.
    """
    g11, g12, g22 = second_partials_g(p, m, x0.x, x0.y)
    A = 4 - g11 - g22
    B = g11 * g22 - g12.sqr()
    disc = 4 * B - A.sqr()
    if not disc.lo > 0.0:
        raise NotSaddleFocus(f"discriminant enclosure not positive: {disc}")
    # lambda^2 = (-A + i sqrt(disc)) / 2 and its conjugate
    sqrt_B = B.sqrt()
    alpha = ((sqrt_B - A * Interval.from_value(0.5))
             * Interval.from_value(0.5)).sqrt()
    if not alpha.lo > 0.0:
        raise NotSaddleFocus(f"alpha enclosure not positive: {alpha}")
    half_sqrt_disc = disc.sqrt() * Interval.from_value(0.5)
    beta = half_sqrt_disc / (2 * alpha)
    if not beta.lo > 0.0:
        raise NotSaddleFocus(f"beta enclosure not positive: {beta}")

    def build(lam: CInterval) -> tuple[CInterval, ...]:
        lam_sq = lam * lam
        denom = CInterval(g11, Interval.from_value(0.0)) - lam_sq
        if denom.abs_sq().straddles_zero():
            raise DegenerateEigvec(f"g11 - lambda^2 encloses zero: {denom}")
        s = CInterval(Interval.from_value(1.0))
        r = -(s * (CInterval(g12) + 2 * lam)) / denom
        vec = (r, lam * r, s, lam * s)
        scale = 1.0 / max(max(abs(c.re.mid), abs(c.im.mid)) for c in vec)
        sc = CInterval(Interval.from_value(scale))
        return tuple(sc * c for c in vec)

    lam_u1 = CInterval(alpha, beta)
    lam_s1 = CInterval(-alpha, beta)
    v_u1 = build(lam_u1)
    v_s1 = build(lam_s1)
    return EigenData(alpha=alpha, beta=beta,
                     eigvec_s1=v_s1, eigvec_s2=_conj_vec(v_s1),
                     eigvec_u1=v_u1, eigvec_u2=_conj_vec(v_u1))


# ---------------------------------------------------------------------------
# float fast paths (non-rigorous; Newton seeds and reference integration)


def field_point(pos: np.ndarray, masses: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Float evaluation of the vector field at state s = (x, xdot, y, ydot)."""
    x, xd, y, yd = s
    dx = x - pos[:, 0]
    dy = y - pos[:, 1]
    r3 = (dx * dx + dy * dy) ** 1.5
    ox = x - np.sum(masses * dx / r3)
    oy = y - np.sum(masses * dy / r3)
    return np.array([xd, 2.0 * yd + ox, yd, -2.0 * xd + oy])


def hess_omega_point(pos: np.ndarray, masses: np.ndarray, x: float,
                     y: float) -> np.ndarray:
    dx = x - pos[:, 0]
    dy = y - pos[:, 1]
    r2 = dx * dx + dy * dy
    r5 = r2 ** 2.5
    g11 = 1.0 + np.sum(masses * (2 * dx * dx - dy * dy) / r5)
    g12 = np.sum(masses * 3.0 * dx * dy / r5)
    g22 = 1.0 + np.sum(masses * (2 * dy * dy - dx * dx) / r5)
    return np.array([[g11, g12], [g12, g22]])


_NEWTON_ITERS, _NEWTON_TOL = 50, 1e-14  # step limit, residual max norm


def newton_equilibrium(p: PrimaryConfig, m: MassTriple,
                       seed: tuple[float, float]) -> tuple[float, float]:
    """Float Newton iteration for a zero of the planar gradient map,
    read as rows 1 and 3 of ``field_point`` at zero velocity.

    Raises NewtonDiverged if the residual fails to reach ``_NEWTON_TOL``
    or an iterate leaves a generous bounding box.
    """
    pos = p.position_array()
    masses = np.array(m.as_floats())
    xy = np.array(seed, dtype=float)

    def grad(xy):
        return field_point(pos, masses, (xy[0], 0.0, xy[1], 0.0))[1::2]

    for _ in range(_NEWTON_ITERS):
        g = grad(xy)
        if np.max(np.abs(g)) < _NEWTON_TOL:
            return float(xy[0]), float(xy[1])
        H = hess_omega_point(pos, masses, xy[0], xy[1])
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError as exc:
            raise NewtonDiverged("singular Hessian during Newton") from exc
        xy = xy - step
        if np.max(np.abs(xy)) > 1e3 or not np.all(np.isfinite(xy)):
            raise NewtonDiverged(f"iterate escaped: {xy}")
    g = grad(xy)
    if np.max(np.abs(g)) < _NEWTON_TOL:
        return float(xy[0]), float(xy[1])
    raise NewtonDiverged(f"no convergence after {_NEWTON_ITERS} iterations")
