"""The benchmark's workloads: inputs from a seed, set-up, timed work, checks.

Each workload drives fourbody's public API through module attributes
(``manifold.local_manifold(...)``), so the tracer's wrappers in those
namespaces see every call.  The program receives only the masses that
``masses_for_seed`` generates.

Why these three: ``manifold-n10`` is the homological layer alone (the
certificate, two order-by-order solves, the order-(50, 50) residual and
the boundary mesh), with no advection.  ``atlas-grow`` is the advection
layer with many shallow charts plus remeshing and JSON persistence, the
manifold built in set-up.  ``flowline-hi`` is the advection layer with
few deep charts, where the defect and the Gronwall tube dominate, with
no remeshing or persistence.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from fourbody import advect, atlas, crfbp, errors, manifold

import oracle

BASE_MASSES = (0.5, 0.3, 0.2)
MASS_JITTER = 1e-3  # largest relative change of one mass, before renormalising


def masses_for_seed(seed: int) -> tuple[float, float, float]:
    """Seed 0 is the base triple; seed k > 0 scales each mass by a
    factor in [1 - MASS_JITTER, 1 + MASS_JITTER] and renormalises, with
    m3 chosen so the three floats sum to 1 to within half an ulp."""
    if seed == 0:
        return BASE_MASSES
    rng = random.Random(seed)
    raw = [Fraction(b * (1.0 + rng.uniform(-MASS_JITTER, MASS_JITTER)))
           for b in BASE_MASSES]
    total = sum(raw)
    m1 = float(raw[0] / total)
    m2 = float(raw[1] / total)
    m3 = float(1 - Fraction(m1) - Fraction(m2))
    return m1, m2, m3


def oracle_s_values(seed: int) -> list[float]:
    """Three arc parameters in [-1, 1] for the chart-versus-flow check."""
    rng = random.Random(f"oracle-{seed}")
    return sorted(rng.uniform(-1.0, 1.0) for _ in range(3))


@dataclass
class State:
    m: object
    p: object
    M: object = None
    arcs: list = field(default_factory=list)


@dataclass
class Outcome:
    """What one timed iteration produced.

    ``charts`` holds (chart, source arc) pairs; ``built`` counts
    manifold builds, ``advected`` arc advections and ``refused`` those
    the program declined with its typed CollisionDomain error.
    """

    M: object
    built: int = 0
    charts: list = field(default_factory=list)
    arcs: list = field(default_factory=list)
    advected: int = 0
    refused: int = 0
    reach: float = 0.0
    saved: object = None
    loaded: object = None
    json_bytes: int = 0


def _base_state(masses) -> State:
    m = crfbp.MassTriple.from_floats(*masses)
    return State(m=m, p=crfbp.primaries(m))


def _manifold_checks(state: State, M) -> list[tuple[str, bool]]:
    ok, _ = oracle.certificate(state.m, state.p, M)
    return [("certificate", ok), ("symmetry", oracle.symmetric(M))]


class Workload:
    def setup(self, masses) -> State:
        return _base_state(masses)

    def iterate(self, state: State) -> Outcome:
        raise NotImplementedError

    def setup_checks(self, state: State) -> list[tuple[str, bool]]:
        return _manifold_checks(state, state.M) if state.M is not None else []

    def checks(self, state: State, out: Outcome,
               s_values) -> list[tuple[str, bool]]:
        ok, _ = oracle.certificate(state.m, state.p, out.M)
        found = [("certificate", ok)]
        for chart, arc in out.charts:
            found.append(("chart-flow", oracle.chart_encloses_flow(
                chart, arc, state.m, state.p, s_values)))
        return found

    def quality(self, state: State, out: Outcome) -> dict[str, float]:
        """Radius, tails, defects and reach of the outputs."""
        charts = [c for c, _ in out.charts]
        return {
            "cert_radius": oracle.certificate(state.m, state.p)[1],
            "manifold_tail": out.M.P.tail,
            "chart_tail_max": max(c.tail for c in charts),
            "chart_defect_max": max(c.defect for c in charts),
            "reach": out.reach,
            "charts": len(charts),
        }


class ManifoldN10(Workload):
    """Stable manifold at N = 10, then its 20-arc boundary mesh."""

    def iterate(self, state: State) -> Outcome:
        M = manifold.local_manifold(state.m, state.p, "stable", N=10)
        arcs = manifold.boundary_mesh(M, n_arcs=20, arc_order=15)
        return Outcome(M=M, built=1, arcs=arcs, reach=abs(M.scale))

    def checks(self, state, out, s_values):
        return _manifold_checks(state, out.M)

    def quality(self, state, out):
        """No advection here: the outputs are the generation-0 arcs.
        In place of a chart defect, the largest summed coefficient
        radius of an arc component, the rounding part of its enclosure;
        reach is the eigenvector scale, the manifold's size."""
        radius = max(0.5 * float((c.rhi - c.rlo).sum() + (c.ihi - c.ilo).sum())
                     for a in out.arcs for c in a.gamma.components)
        return {
            "cert_radius": oracle.certificate(state.m, state.p)[1],
            "manifold_tail": out.M.P.tail,
            "chart_tail_max": max(a.gamma.tail for a in out.arcs),
            "chart_defect_max": radius,
            "reach": out.reach,
            "charts": len(out.arcs),
        }


class AtlasGrow(Workload):
    """Unstable N = 5 manifold in set-up; 6 arcs grown 2 generations,
    saved and loaded back."""

    def __init__(self, scratch: Path):
        self.path = scratch / f"atlas-{os.getpid()}.json"

    def setup(self, masses):
        state = _base_state(masses)
        state.M = manifold.local_manifold(state.m, state.p, "unstable", N=5)
        return state

    def iterate(self, state):
        A = atlas.Atlas.from_manifold(state.M, state.m, n_arcs=6,
                                      arc_order=10)
        A.grow(2, orders=(10, 18))
        A.save(self.path)
        B = atlas.Atlas.load(self.path)
        charts = [(rec.chart, A.arcs[rec.arc_id].arc)
                  for rec in A.charts.values()]
        reach = min(abs(A.arcs[i].arc_time) for i in A.frontier)
        return Outcome(M=state.M, charts=charts,
                       advected=len(A.charts) + len(A.stopped),
                       refused=len(A.stopped), reach=reach, saved=A,
                       loaded=B, json_bytes=self.path.stat().st_size)

    def checks(self, state, out, s_values):
        found = super().checks(state, out, s_values)
        found.append(("roundtrip",
                      oracle.roundtrip_identical(out.saved, out.loaded)))
        self.path.unlink(missing_ok=True)
        return found


class FlowlineHi(Workload):
    """Stable N = 5 manifold and 20-arc mesh in set-up; arcs 0, 5, 10
    and 15 advected at orders (10, 50) with automatic tau, no retry."""

    ARCS = (0, 5, 10, 15)

    def setup(self, masses):
        state = _base_state(masses)
        state.M = manifold.local_manifold(state.m, state.p, "stable", N=5)
        state.arcs = manifold.boundary_mesh(state.M, n_arcs=20)
        return state

    def iterate(self, state):
        out = Outcome(M=state.M)
        for k in self.ARCS:
            out.advected += 1
            try:
                chart = advect.flow_line(state.arcs[k], state.m, state.p,
                                         orders=(10, 50), source_arc=k)
            except errors.CollisionDomain:
                out.refused += 1
                continue
            out.charts.append((chart, state.arcs[k]))
        out.reach = min(1.0 / abs(c.tau) for c, _ in out.charts)
        return out


NAMES = ("manifold-n10", "atlas-grow", "flowline-hi")


def make(name: str, scratch: Path) -> Workload:
    """The workload called ``name``; ``scratch`` takes its files."""
    if name == "atlas-grow":
        return AtlasGrow(scratch)
    return {"manifold-n10": ManifoldN10, "flowline-hi": FlowlineHi}[name]()
