"""Newton-Kantorovich certification of zeros of finite-dimensional maps.

Given an approximate zero x_bar of a C^2 map F, an approximate Jacobian
A_dagger and approximate inverse A, the classical argument certifies a
true zero nearby: with

    Y0 >= ||A F(x_bar)||,
    Z0 >= ||I - A A_dagger||,
    Z1 >= ||A (A_dagger - DF(x_bar))||,
    Z2 >= ||A|| sup ||D^2 F|| over the closed ball of radius r_star,

any radius 0 < r <= r_star with p(r) = Z2 r^2 - (1 - Z0 - Z1) r + Y0 < 0
isolates a unique zero in B(x_bar, r), and the inverse Jacobian there is
bounded by ||A|| / (1 - Z2 r - Z0 - Z1).

All four bounds are produced by rigorous interval evaluation; the
negativity of p is itself re-verified in interval arithmetic at the
reported radii, so a ``proven`` certificate does not rest on any float
root formula.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .crfbp import (
    MassTriple,
    PrimaryConfig,
    hess_omega_point,
    newton_equilibrium,
    omega_first_partials,
    omega_second_partials,
    second_partials_g,
)
from .interval import Interval, IntervalArray, matrix_norm

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class NKProblem:
    """A zero-finding problem prepared for certification.

    ``F_eval`` and ``DF_eval`` map a (dim,) ``IntervalArray`` to
    enclosures of F, shape (dim,), and DF, shape (dim, dim);
    ``D2F_sup`` maps a box, a (dim,) ``IntervalArray``, to an enclosure
    of an upper bound for the second-derivative norm over that box.
    All norms are ``matrix_norm``.
    """

    dim: int
    F_eval: Callable[[IntervalArray], IntervalArray]
    DF_eval: Callable[[IntervalArray], IntervalArray]
    D2F_sup: Callable[[IntervalArray], Interval]
    x_bar: np.ndarray
    A_dagger: np.ndarray
    A: np.ndarray
    r_star: float
    name: str = "problem"

    def __post_init__(self):
        if self.x_bar.shape != (self.dim,):
            raise ValueError("x_bar has wrong shape")
        if self.A.shape != (self.dim, self.dim) or self.A_dagger.shape != (self.dim, self.dim):
            raise ValueError("A / A_dagger must be square of size dim")
        if not self.r_star > 0.0:
            raise ValueError("r_star must be positive")

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(self.name.encode())
        h.update(str(self.dim).encode())
        h.update(self.x_bar.tobytes())
        h.update(self.A_dagger.tobytes())
        h.update(self.A.tobytes())
        h.update(self.r_star.hex().encode())
        return h.hexdigest()

    def box(self) -> IntervalArray:
        """The closed certification box around x_bar."""
        lo = self.x_bar - self.r_star
        hi = self.x_bar + self.r_star
        return IntervalArray(lo, hi)


@dataclass(frozen=True)
class NKCertificate:
    """Outcome of a radii-polynomial verification."""

    Y0: float
    Z0: float
    Z1: float
    Z2: float
    r_star: float
    status: str  # "proven" | "inconclusive"
    r_interval: Optional[Interval] = None
    r_minus: Optional[Interval] = None
    r_plus: Optional[Interval] = None
    inverse_bound: Optional[float] = None
    diagnostic: Optional[str] = None
    problem_fingerprint: Optional[str] = None

    @property
    def proven(self) -> bool:
        return self.status == "proven"

    def to_dict(self) -> dict:
        def iv(x):
            return None if x is None else [repr(x.lo), repr(x.hi)]

        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "nk_certificate",
            "Y0": repr(self.Y0),
            "Z0": repr(self.Z0),
            "Z1": repr(self.Z1),
            "Z2": repr(self.Z2),
            "r_star": repr(self.r_star),
            "status": self.status,
            "r_interval": iv(self.r_interval),
            "r_minus": iv(self.r_minus),
            "r_plus": iv(self.r_plus),
            "inverse_bound": None if self.inverse_bound is None else repr(self.inverse_bound),
            "diagnostic": self.diagnostic,
            "problem_fingerprint": self.problem_fingerprint,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NKCertificate":
        def iv(x):
            return None if x is None else Interval(float(x[0]), float(x[1]))

        return cls(
            Y0=float(d["Y0"]), Z0=float(d["Z0"]), Z1=float(d["Z1"]),
            Z2=float(d["Z2"]), r_star=float(d["r_star"]), status=d["status"],
            r_interval=iv(d["r_interval"]), r_minus=iv(d["r_minus"]),
            r_plus=iv(d["r_plus"]),
            inverse_bound=None if d["inverse_bound"] is None else float(d["inverse_bound"]),
            diagnostic=d.get("diagnostic"),
            problem_fingerprint=d.get("problem_fingerprint"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def compute_bounds(prob: NKProblem) -> tuple[float, float, float, float]:
    """The four certification constants by rigorous interval evaluation."""
    x_pt = IntervalArray.from_points(prob.x_bar)
    A_iv = IntervalArray.from_points(prob.A)
    Adag_iv = IntervalArray.from_points(prob.A_dagger)

    Fx = prob.F_eval(x_pt)
    Y0 = matrix_norm(A_iv @ Fx).hi

    eye = IntervalArray.from_points(np.eye(prob.dim))
    Z0 = matrix_norm(eye - A_iv @ Adag_iv).hi

    DFx = prob.DF_eval(x_pt)
    Z1 = matrix_norm(A_iv @ (Adag_iv - DFx)).hi

    sup_d2 = prob.D2F_sup(prob.box())
    Z2 = (matrix_norm(A_iv) * sup_d2).hi
    return Y0, Z0, Z1, Z2


def _p_negative(Y0: Interval, Z0: Interval, Z1: Interval, Z2: Interval,
                r: float) -> bool:
    """Rigorous check that the radii polynomial is negative at r."""
    riv = Interval.from_value(r)
    one = Interval.from_value(1.0)
    p = Z2 * riv.sqr() - (one - Z0 - Z1) * riv + Y0
    return p.hi < 0.0


def radii_verify(Y0: float, Z0: float, Z1: float, Z2: float, r_star: float,
                 a_norm: Optional[float] = None,
                 problem_fingerprint: Optional[str] = None) -> NKCertificate:
    """Search for an interval of admissible radii and certify it.

    Root enclosures of the radii polynomial come from the interval
    quadratic formula, but the certificate only trusts direct interval
    re-evaluation of p at the endpoints of the reported radius interval;
    since p is convex, negativity at both endpoints gives negativity
    between them.
    """
    if min(Y0, Z0, Z1, Z2) < 0.0 or r_star <= 0.0:
        raise ValueError("bounds must be nonnegative and r_star positive")
    y0 = Interval.from_value(Y0)
    z0 = Interval.from_value(Z0)
    z1 = Interval.from_value(Z1)
    z2 = Interval.from_value(Z2)
    one = Interval.from_value(1.0)

    def finish(status, r_int=None, rm=None, rp=None, diag=None):
        inverse = None
        if status == "proven" and a_norm is not None:
            denom = one - z2 * Interval.from_value(r_int.lo) - z0 - z1
            if denom.lo > 0.0:
                inverse = (Interval.from_value(a_norm) / denom).hi
        return NKCertificate(Y0=Y0, Z0=Z0, Z1=Z1, Z2=Z2, r_star=r_star,
                             status=status, r_interval=r_int, r_minus=rm,
                             r_plus=rp, inverse_bound=inverse, diagnostic=diag,
                             problem_fingerprint=problem_fingerprint)

    b = one - z0 - z1
    if b.lo <= 0.0:
        return finish("inconclusive",
                      diag="NoNegativity: Z0 + Z1 is not below 1")

    if Z2 == 0.0:
        # linear case: p(r) = -b r + Y0 < 0 iff r > Y0 / b
        r_min = y0 / b
        if r_min.hi >= r_star:
            return finish("inconclusive", rm=r_min,
                          diag="RadiusTooLarge: Y0 / (1 - Z0 - Z1) exceeds r_star")
        lo_c = _first_verified(
            [max(r_min.hi * (1.0 + 1e-12), r_min.hi + 1e-300),
             r_min.hi * (1.0 + 1e-6), 0.5 * (r_min.hi + r_star), r_star],
            lambda r: r <= r_star and _p_negative(y0, z0, z1, z2, r))
        if lo_c is None:
            return finish("inconclusive", rm=r_min,
                          diag="NoNegativity: verification failed near the root")
        return finish("proven", r_int=Interval(lo_c, r_star), rm=r_min)

    disc = b.sqr() - 4 * z2 * y0
    if disc.lo <= 0.0:
        return finish("inconclusive",
                      diag="NoNegativity: discriminant of the radii polynomial "
                           "is not certainly positive (Y0 too large)")
    sq = disc.sqrt()
    # stable form of the smaller root: (b - sq) / (2 Z2) = 2 Y0 / (b + sq),
    # which stays tight when Z2 is tiny instead of dividing ~0 by ~0
    r_minus = (2 * y0) / (b + sq)
    r_plus = (b + sq) / (2 * z2)
    if r_minus.lo > r_star:
        return finish("inconclusive", rm=r_minus, rp=r_plus,
                      diag="RadiusTooLarge: smallest admissible radius "
                           "exceeds r_star")
    top = min(r_star, r_plus.lo)
    lo_c = _first_verified(
        [max(r_minus.hi * (1.0 + 1e-12), r_minus.hi + 1e-300),
         r_minus.hi * (1.0 + 1e-6),
         r_minus.hi + 0.01 * (top - r_minus.hi),
         0.5 * (r_minus.hi + top)]
        + [r_star * 2.0 ** (-k) for k in (40, 32, 24, 16, 8, 4, 2, 1, 0)],
        lambda r: r <= r_star and _p_negative(y0, z0, z1, z2, r))
    if lo_c is None:
        diag = ("RadiusTooLarge: smallest admissible radius may exceed r_star"
                if r_minus.hi > r_star
                else "NoNegativity: verification failed near the lower root")
        return finish("inconclusive", rm=r_minus, rp=r_plus, diag=diag)
    hi_candidates = [r_star] if r_star < r_plus.lo else []
    hi_candidates += [top * (1.0 - 1e-12), top * (1.0 - 1e-6),
                      top - 0.01 * (top - lo_c), 0.5 * (lo_c + top), lo_c]
    hi_c = _first_verified(
        hi_candidates,
        lambda r: lo_c <= r <= r_star and _p_negative(y0, z0, z1, z2, r))
    if hi_c is None:
        hi_c = lo_c
    return finish("proven", r_int=Interval(lo_c, hi_c), rm=r_minus, rp=r_plus)


def _first_verified(candidates, check) -> Optional[float]:
    for c in candidates:
        if c > 0.0 and check(c):
            return float(c)
    return None


# ---------------------------------------------------------------------------
# the planar equilibrium problem


def equilibrium_problem(p: PrimaryConfig, m: MassTriple,
                        xy_bar: tuple[float, float], r_star: float = 1e-6
                        ) -> NKProblem:
    """Package the planar gradient map as a certification problem.

    The map is the gradient of the potential, so D^2 F is the tensor
    of its third partials.  Z2 comes from one interval evaluation of
    that tensor over the box, in the bilinear-map norm of
    ``matrix_norm`` (largest row sum of entry magnitudes), which
    bounds sup ||D^2 F|| over the box since every point's tensor lies
    in the evaluated enclosure.
    """
    pos = p.position_array()
    masses = np.array(m.as_floats())
    x_bar = np.array(xy_bar, dtype=float)
    A_dagger = hess_omega_point(pos, masses, x_bar[0], x_bar[1])
    A = np.linalg.inv(A_dagger)

    def F_eval(v: IntervalArray) -> IntervalArray:
        ox, oy = omega_first_partials(p, m, v[0], v[1])
        return IntervalArray.of([ox, oy])

    def DF_eval(v: IntervalArray) -> IntervalArray:
        g11, g12, g22 = second_partials_g(p, m, v[0], v[1])
        lo = np.array([[g11.lo, g12.lo], [g12.lo, g22.lo]])
        hi = np.array([[g11.hi, g12.hi], [g12.hi, g22.hi]])
        return IntervalArray(lo, hi)

    def D2F_sup(box: IntervalArray) -> Interval:
        return matrix_norm(omega_second_partials(p, m, box[0], box[1]))

    return NKProblem(dim=2, F_eval=F_eval, DF_eval=DF_eval, D2F_sup=D2F_sup,
                     x_bar=x_bar, A_dagger=A_dagger, A=A, r_star=r_star,
                     name="equilibrium")


def certify_equilibrium(p: PrimaryConfig, m: MassTriple,
                        seed: tuple[float, float] = (0.93, 0.22),
                        r_star: float = 1e-6
                        ) -> tuple[NKCertificate, tuple[float, float]]:
    """Newton refinement plus certification of a planar equilibrium."""
    xy = newton_equilibrium(p, m, seed)
    prob = equilibrium_problem(p, m, xy, r_star=r_star)
    Y0, Z0, Z1, Z2 = compute_bounds(prob)
    a_norm = matrix_norm(IntervalArray.from_points(prob.A)).hi
    cert = radii_verify(Y0, Z0, Z1, Z2, r_star, a_norm=a_norm,
                        problem_fingerprint=prob.fingerprint())
    return cert, xy
