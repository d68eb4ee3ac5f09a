"""Oracle checks, run on every benchmark iteration outside the timed region.

Each check returns True when the program's output is right.  They lean
on code paths the timed work does not use: a fresh equilibrium
certificate, the conjugate-symmetry audit of the manifold series, a
high-order float integration of the true flow, and a bitwise comparison
of an atlas with its JSON round trip.
"""

from __future__ import annotations

import numpy as np

from fourbody import advect, nk, taylor
from fourbody.interval import CInterval, Interval

# Reference solutions are float integrations at this tolerance; SLACK
# absorbs their last-digit rounding, as the package's own chart tests do.
REF_TOL = 1e-13
SLACK = 1e-15

_ZERO = CInterval(Interval.from_value(0.0))
_ONE = CInterval(Interval.from_value(1.0))


def certificate(m, p, M=None) -> tuple[bool, float]:
    """Re-certify the equilibrium; when a manifold is given, its base
    point must enclose the certified equilibrium.

    Returns (ok, r_interval.lo); the radius is 0.0 when unproven.
    """
    cert, xy = nk.certify_equilibrium(p, m)
    if not cert.proven or cert.r_interval is None:
        return False, 0.0
    ok = cert.r_interval.lo > 0.0
    if M is not None:
        u = M.equilibrium.u
        ok = ok and u[0].contains(xy[0]) and u[2].contains(xy[1])
    return ok, cert.r_interval.lo


def symmetric(M) -> bool:
    """The manifold series satisfies a_nm = conj(a_mn) by overlap."""
    return taylor.conj_symmetry_check(M.P).symmetric


def chart_encloses_flow(chart, arc, m, p, s_values) -> bool:
    """Gamma(s, 1), widened by its tail, contains the reference flow of
    arc(s) over the chart's signed flow time 1 / tau."""
    T = 1.0 / chart.tau
    for s in s_values:
        zs = CInterval(Interval.from_value(float(s)))
        y0 = np.array([v.re.mid for v in arc.gamma.eval_box(zs, _ZERO)])
        yT = advect.reference_integrate(y0, T, m, p, tol=REF_TOL)
        vals = chart.Gamma.eval_box(zs, _ONE)
        for v, w in zip(vals, yT):
            if not v.re.lo - SLACK <= w <= v.re.hi + SLACK:
                return False
    return True


def _same_series(a, b) -> bool:
    if len(a.components) != len(b.components):
        return False
    for ca, cb in zip(a.components, b.components):
        for attr in ("rlo", "rhi", "ilo", "ihi"):
            ga, gb = getattr(ca, attr), getattr(cb, attr)
            if ga.shape != gb.shape or ga.tobytes() != gb.tobytes():
                return False
    return (np.float64(a.tail).tobytes() == np.float64(b.tail).tobytes()
            and a.tau == b.tau)


def roundtrip_identical(saved, loaded) -> bool:
    """Every chart and arc of ``loaded`` equals ``saved`` bit for bit."""
    if saved.charts.keys() != loaded.charts.keys() \
            or saved.arcs.keys() != loaded.arcs.keys():
        return False
    return (all(_same_series(saved.charts[k].chart.Gamma,
                             loaded.charts[k].chart.Gamma)
                for k in saved.charts)
            and all(_same_series(saved.arcs[k].arc.gamma,
                                 loaded.arcs[k].arc.gamma)
                    for k in saved.arcs))
