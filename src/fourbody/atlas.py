"""Atlas growth: advected charts tiling a manifold's outward extension.

Generation zero is the boundary mesh of a local manifold.  Each growth
step advects every frontier arc into a space-time chart, all of them in
one stacked Taylor fill (``advect.ArcFill``) that is finished in rounds,
every retry of a round by one stacked finish, collapses each chart's
time-1 edge into a new arc, and carries it to the next frontier.  Arcs
whose polynomial quality has degraded (slow coefficient decay or
excessive physical length) are first split in half, since an affine
shrink of the parameter restores geometric decay; charts whose range
box approaches a primary are dropped and their arcs retired.

Everything is serializable: the JSON schema stores coefficient
endpoints as plain numbers, which orjson writes in their shortest
round-trip form (compact separators, no whitespace) and reads back bit
for bit.  JSON has no spelling for nan or an infinity, which orjson
would write as null, so ``save`` refuses any float it would write that
is not finite; a file holding the ``Infinity`` or ``NaN`` literal that
the stdlib json module writes does not parse, and ``load`` raises
ValueError (``orjson.JSONDecodeError``) for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import orjson

from .advect import ArcFill, FlowChart, collapse_time_one
from .crfbp import MassTriple, PrimaryConfig, primaries
from .errors import CollisionDomain, SchemaVersionMismatch, SubdivisionLimit
from .interval import IntervalArray
from .manifold import BoundaryArc, LocalManifold, boundary_mesh
from .taylor import Series2, compose_affine

SCHEMA_VERSION = 1

# int keys of meta are written as strings, as the stdlib json module
# writes them, and numpy numbers as the numbers they hold
ORJSON_OPTIONS = orjson.OPT_NON_STR_KEYS | orjson.OPT_SERIALIZE_NUMPY


@dataclass(frozen=True)
class ArcRecord:
    """A frontier arc with its provenance.

    ``parent_chart`` is the chart whose time-1 edge produced the arc
    (None for generation zero), ``split_from`` the arc it was cut from
    during remeshing, and ``arc_time`` the signed flow time
    accumulated from the local manifold boundary to this arc.
    """

    arc_id: int
    generation: int
    arc: BoundaryArc
    arc_time: float = 0.0
    parent_chart: Optional[int] = None
    split_from: Optional[int] = None


@dataclass(frozen=True)
class StopReason:
    """Why an arc was retired: the ``CollisionDomain`` message of its
    last tau attempt, and how many attempts it had."""

    message: str
    tau_attempts: int


@dataclass(frozen=True)
class ChartRecord:
    """An advected chart tied to the arc it grew from."""

    chart_id: int
    arc_id: int
    generation: int
    chart: FlowChart


# ---------------------------------------------------------------------------
# arc quality and subdivision


def arc_decay(arc: BoundaryArc) -> float:
    """Top-order coefficient magnitude relative to the peak.

    A healthy arc decays geometrically, so the ratio is around the
    decay rate to the power of the order; values near one mean the
    polynomial is fighting its domain.
    """
    mags = arc.gamma.coefs.mag()[:, :, 0]
    peak = float(np.max(mags))
    return float(np.max(mags[:, -1])) / peak if peak > 0.0 else 0.0


def arc_length(arc: BoundaryArc) -> float:
    """Polyline estimate of the arc's length in the position plane.

    A remeshing heuristic that sets no bound, so it evaluates the x and
    y components in float from their real coefficient midpoints.
    """
    s = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    x, y = (np.polynomial.polynomial.polyval(s, c.mid()[:, 0].real)
            for c in (arc.gamma.components[0], arc.gamma.components[2]))
    return float(np.sum(np.hypot(np.diff(x), np.diff(y))))


def _affine_arc(arc: BoundaryArc, c: float, d: float) -> BoundaryArc:
    """Reparameterize by s = c + d sigma with rigorous coefficients.

    One real Horner pass (``taylor.compose_affine``) over the arc's
    real grid, ``Series2.real_part``, which raises SymmetryViolation if
    an imaginary enclosure excludes zero; the halves have exactly zero
    imaginary grids.  The sup bound carried in the tail holds on the
    whole parent domain, so the restriction inherits it unchanged.
    """
    coef = arc.gamma.real_part()
    # coefficient k of component i at [k, i]
    rows = IntervalArray(coef.lo[..., 0].T, coef.hi[..., 0].T)
    acc = compose_affine([rows[k: k + 1] for k in range(rows.shape[0])],
                         c, d)
    gamma = Series2.from_real(IntervalArray(acc.lo.T[..., None],
                                            acc.hi.T[..., None]),
                              scale=arc.gamma.scale, tail=arc.gamma.tail)
    preimage = None
    if arc.preimage is not None:
        p0, p1 = arc.preimage
        mid = 0.5 * (p0 + p1)
        half = 0.5 * (p1 - p0)

        def chord(s: float) -> complex:
            # keep shared vertices bitwise equal across siblings
            if s == -1.0:
                return p0
            if s == 1.0:
                return p1
            return mid + half * s

        preimage = (chord(c - d), chord(c + d))
    return BoundaryArc(gamma=gamma, kind=arc.kind, preimage=preimage)


def subdivide_arc(arc: BoundaryArc) -> tuple[BoundaryArc, BoundaryArc]:
    """Split an arc at its parameter midpoint into two halves."""
    return _affine_arc(arc, -0.5, 0.5), _affine_arc(arc, 0.5, 0.5)


def _splits(arc: BoundaryArc, arc_id: int, decay_tol: float,
            max_len: float, max_depth: int
            ) -> list[tuple[BoundaryArc, int]]:
    """The halves that remeshing cuts ``arc`` into, in the order they
    get ids: pairs (half, parent), parent the position in this list of
    the arc the half was cut from, or -1 for ``arc``.  An arc whose
    decay exceeds ``decay_tol`` or whose length exceeds ``max_len`` is
    cut in half, and each half is refined in turn before the next is
    cut; the list is empty when ``arc`` is fit.  Raises
    SubdivisionLimit when a piece is still unfit after ``max_depth``
    splits; ``arc_id`` names the arc in its message."""
    out: list[tuple[BoundaryArc, int]] = []

    def refine(a: BoundaryArc, parent: int, depth: int) -> None:
        if arc_decay(a) <= decay_tol and arc_length(a) <= max_len:
            return
        if depth >= max_depth:
            raise SubdivisionLimit(f"a piece of arc {arc_id} is still "
                                   f"unfit after {max_depth} splits")
        for half in subdivide_arc(a):
            out.append((half, parent))
            refine(half, len(out) - 1, depth + 1)

    refine(arc, -1, 0)
    return out


def _leaves(split: list[tuple[BoundaryArc, int]]) -> list[int]:
    """Positions of the halves of ``_splits`` that no half was cut
    from: the pieces, in order."""
    parents = {parent for _, parent in split}
    return [j for j in range(len(split)) if j not in parents]


def _rounds(fill: ArcFill, start_times: list[float], delta_min: float,
            tau_retries: int) -> list[FlowChart | CollisionDomain]:
    """Every arc of ``fill`` finished in rounds: round 0 finishes them
    all, with the collision guard at ``delta_min``, and round r
    retimes every arc whose attempt r - 1 failed and finishes those
    together, for r up to ``tau_retries``.  Returns each arc's chart,
    or the CollisionDomain of its last attempt.  A retry retimes the
    arc's rows of the fill instead of refilling them, so no column is
    computed twice, and every attempt bounds its own defect, tube and
    collision guard.  A retime changes only its arc's rows, and a
    finish treats its arcs entrywise, so each outcome is that of
    retrying the arc on its own.  ``source_arc`` is left unset, since
    the atlas assigns the ids afterwards."""
    outcomes: list = [None] * len(start_times)
    pending = list(range(len(start_times)))
    for attempt in range(tau_retries + 1):
        if not pending:
            break
        if attempt:
            for k in pending:
                fill.retime(k)
        done = fill.finish(pending, delta_min=delta_min,
                           start_times=[start_times[k] for k in pending])
        for k, chart in zip(pending, done):
            outcomes[k] = chart
        pending = [k for k, chart in zip(pending, done)
                   if isinstance(chart, CollisionDomain)]
    return outcomes


# ---------------------------------------------------------------------------
# the atlas


class Atlas:
    """A growing collection of advected charts with full lineage.

    Charts point to the arcs they grew from; arcs point to the chart
    whose edge produced them, or to the arc they were split from during
    remeshing.  Arcs retired by the collision guard are kept in
    ``stopped``, and ``stop_reasons`` maps each arc retired by this
    atlas object to a ``StopReason``; it is not saved.
    """

    def __init__(self, kind: str, masses: MassTriple,
                 meta: Optional[dict] = None):
        if kind not in ("stable", "unstable"):
            raise ValueError(f"kind must be stable or unstable, got {kind}")
        self.kind = kind
        self.m = masses
        self.p: PrimaryConfig = primaries(masses)
        self.arcs: dict[int, ArcRecord] = {}
        self.charts: dict[int, ChartRecord] = {}
        self.frontier: list[int] = []
        self.stopped: list[int] = []
        self.stop_reasons: dict[int, StopReason] = {}
        self.meta: dict = dict(meta or {})
        self._next_arc = 0
        self._next_chart = 0

    # -- construction

    @classmethod
    def from_manifold(cls, M: LocalManifold, masses: MassTriple,
                      n_arcs: int = 20, arc_order: Optional[int] = None,
                      R: float = 0.99,
                      meta: Optional[dict] = None) -> "Atlas":
        """Seed generation zero with the manifold's boundary mesh."""
        atlas = cls(M.kind, masses, meta=meta)
        for arc in boundary_mesh(M, R=R, n_arcs=n_arcs, arc_order=arc_order):
            atlas._add_arc(arc, generation=0, arc_time=0.0)
        return atlas

    def _add_arc(self, arc: BoundaryArc, generation: int, arc_time: float,
                 parent_chart: Optional[int] = None,
                 split_from: Optional[int] = None) -> int:
        arc_id = self._next_arc
        self._next_arc += 1
        self.arcs[arc_id] = ArcRecord(arc_id=arc_id, generation=generation,
                                      arc=arc, arc_time=arc_time,
                                      parent_chart=parent_chart,
                                      split_from=split_from)
        self.frontier.append(arc_id)
        return arc_id

    # -- growth

    def grow(self, generations: int = 1, *,
             orders: tuple[int, int] = (15, 50),
             tau: Optional[float] = None,
             delta_min: float = 0.05,
             decay_tol: float = 0.1,
             max_len: float = 0.5,
             max_depth: int = 12,
             tau_retries: int = 3) -> list[int]:
        """Advect the frontier, one chart per (possibly split) arc.

        Returns the ids of the new charts.  Each generation computes
        everything before it changes the atlas, so an exception, such
        as a SubdivisionLimit, leaves the atlas as that generation found
        it.  It first refines every frontier arc (``_splits``).  One
        ``advect.ArcFill`` then serves every piece of the generation,
        at ``tau`` or, when it is None, at each piece's own tau, which
        the fill reads from its first columns, filling no pilot of its
        own (orders[1] >= ``advect._N_PILOT``); ``_rounds`` finishes it
        in rounds.  A chart that
        fails its error tube or the collision guard is retried with the
        time rescaling doubled, since halving the flow time shrinks
        both the range box and the accumulated error; after
        ``tau_retries`` doublings the arc is retired to ``stopped``,
        with its last failure in ``stop_reasons``.  Split arcs, charts
        and collapsed arcs then get their ids frontier arc by frontier
        arc, piece by piece, as if each piece were advected on its own.
        Surviving charts hand their collapsed time-1 edges to the next
        frontier.  Raises ValueError for negative ``tau_retries``.
        """
        if tau_retries < 0:
            raise ValueError("tau_retries must be nonnegative")
        new_charts: list[int] = []
        for _ in range(generations):
            frontier = [self.arcs[i] for i in self.frontier]
            splits = [_splits(rec.arc, rec.arc_id, decay_tol, max_len,
                              max_depth) for rec in frontier]
            pieces = [(rec, arc) for rec, split in zip(frontier, splits)
                      for arc in ([split[j][0] for j in _leaves(split)]
                                  or [rec.arc])]
            if not pieces:
                continue
            arcs = [arc for _, arc in pieces]
            taus = None if tau is None else [tau] * len(arcs)
            outcomes = _rounds(ArcFill(arcs, self.m, self.p, orders, taus),
                               [rec.arc_time for rec, _ in pieces],
                               delta_min, tau_retries)
            self.frontier = []
            records = (piece for rec, split in zip(frontier, splits)
                       for piece in self._add_splits(rec, split))
            for piece, chart in zip(records, outcomes):
                if isinstance(chart, CollisionDomain):
                    self.stopped.append(piece.arc_id)
                    self.stop_reasons[piece.arc_id] = StopReason(
                        message=str(chart), tau_attempts=tau_retries + 1)
                    continue
                chart = replace(chart, source_arc=piece.arc_id)
                chart_id = self._next_chart
                self._next_chart += 1
                self.charts[chart_id] = ChartRecord(
                    chart_id=chart_id, arc_id=piece.arc_id,
                    generation=piece.generation, chart=chart)
                new_charts.append(chart_id)
                self._add_arc(collapse_time_one(chart),
                              generation=piece.generation + 1,
                              arc_time=chart.accumulated_time,
                              parent_chart=chart_id)
        return new_charts

    def _add_splits(self, rec: ArcRecord,
                    split: list[tuple[BoundaryArc, int]]) -> list[ArcRecord]:
        """Record the halves ``_splits`` cut from ``rec``, in its order,
        and return the pieces to advect: the halves no half was cut
        from, or ``rec`` itself."""
        ids: list[int] = []
        for half, parent in split:
            arc_id = self._next_arc
            self._next_arc += 1
            ids.append(arc_id)
            self.arcs[arc_id] = ArcRecord(
                arc_id=arc_id, generation=rec.generation, arc=half,
                arc_time=rec.arc_time, parent_chart=rec.parent_chart,
                split_from=ids[parent] if parent >= 0 else rec.arc_id)
        return [self.arcs[ids[j]] for j in _leaves(split)] or [rec]

    # -- persistence

    def save(self, path) -> None:
        """Write the atlas to ``path`` as a schema-1 JSON document.
        Raises ValueError naming the field, before the file is opened,
        when a float it would write is not finite; a refused or failed
        encoding leaves an existing file as it was."""
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "masses": list(self.m.as_floats()),
            "meta": self.meta,
            "frontier": list(self.frontier),
            "stopped": list(self.stopped),
            "next_arc_id": self._next_arc,
            "next_chart_id": self._next_chart,
            "arcs": [_arc_to_json(rec)
                     for rec in sorted(self.arcs.values(),
                                       key=lambda r: r.arc_id)],
            "charts": [_chart_to_json(rec)
                       for rec in sorted(self.charts.values(),
                                         key=lambda r: r.chart_id)],
        }
        for key in ("masses", "meta"):
            _require_finite(key, doc[key])
        # encode in full before opening, since opening truncates
        data = orjson.dumps(doc, option=ORJSON_OPTIONS)
        with open(path, "wb") as f:
            f.write(data)

    @classmethod
    def load(cls, path) -> "Atlas":
        """The atlas saved at ``path``.  Raises SchemaVersionMismatch
        for another schema, and ValueError unless its ids are those of
        an atlas that can grow: every id and generation is an ``int``,
        every frontier, stopped and chart arc id
        names a stored arc, and the next arc and chart ids exceed every
        stored one, so ``grow`` neither reads a missing arc nor
        overwrites a stored record, and no arc or chart id is stored
        twice (the later record would replace the earlier).  The
        frontier ids, the stopped ids and the chart arc ids are
        pairwise disjoint, each with no repeats: an arc is advected at
        most once, into one chart or into ``stopped``, and a frontier id
        listed twice, or also stopped or charted, would make ``grow``
        advect its arc again.  A file that is not JSON, such as one
        holding an ``Infinity`` literal, raises ValueError too
        (``orjson.JSONDecodeError``)."""
        with open(path, "rb") as f:
            doc = orjson.loads(f.read())
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise SchemaVersionMismatch(
                f"expected atlas schema {SCHEMA_VERSION}, "
                f"got {doc.get('schema_version')}")
        _require_ids(doc)
        masses = MassTriple.from_floats(*doc["masses"])
        atlas = cls(doc["kind"], masses, meta=doc["meta"])
        atlas.frontier = list(doc["frontier"])
        atlas.stopped = list(doc["stopped"])
        atlas._next_arc = doc["next_arc_id"]
        atlas._next_chart = doc["next_chart_id"]
        for d in doc["arcs"]:
            rec = _arc_from_json(d)
            atlas.arcs[rec.arc_id] = rec
        for d in doc["charts"]:
            rec = _chart_from_json(d)
            atlas.charts[rec.chart_id] = rec
        for name, records, stored in (("arc", doc["arcs"], atlas.arcs),
                                      ("chart", doc["charts"], atlas.charts)):
            if len(stored) != len(records):
                ids = [d[f"{name}_id"] for d in records]
                repeated = sorted({i for i in ids if ids.count(i) > 1})
                raise ValueError(f"atlas file repeats {name} ids {repeated}")
        named = (atlas.frontier + atlas.stopped
                 + [rec.arc_id for rec in atlas.charts.values()])
        missing = sorted(set(named) - set(atlas.arcs))
        if missing:
            raise ValueError(f"atlas file names missing arcs {missing}")
        if len(set(named)) != len(named):
            twice = sorted({i for i in named if named.count(i) > 1})
            raise ValueError(f"atlas file names arcs {twice} more than once "
                             "among its frontier, stopped and chart arcs")
        if (atlas._next_arc <= max(atlas.arcs, default=-1)
                or atlas._next_chart <= max(atlas.charts, default=-1)):
            raise ValueError("atlas file's next ids do not exceed its "
                             "stored ids")
        return atlas


# ---------------------------------------------------------------------------
# JSON forms


def _require_finite(field: str, value) -> None:
    """Raise ValueError naming ``field`` when ``value``, a number, a
    numpy array, or lists, tuples and dicts of them, holds a nan or an
    infinity, which orjson would write as null."""
    if isinstance(value, dict):
        for k, v in value.items():
            _require_finite(f"{field}.{k}", v)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _require_finite(f"{field}[{i}]", v)
    elif (isinstance(value, float) and not math.isfinite(value)
          or isinstance(value, (np.floating, np.ndarray))
          and not np.isfinite(value).all()):
        raise ValueError(f"atlas field {field} is not finite, and JSON "
                         "has no number for it")


def _require_ids(doc: dict) -> None:
    """Raise ValueError naming the field unless every id and generation
    of the atlas document ``doc`` is an ``int``, not a bool, a float
    such as 7.5 or a string, which ``grow`` would count on from."""
    fields = [(key, doc[key]) for key in ("next_arc_id", "next_chart_id")]
    fields += [(f"{key}[{i}]", v) for key in ("frontier", "stopped")
               for i, v in enumerate(doc[key])]
    fields += [(f"{key}[{i}].{name}", d[name])
               for key, names in (("arcs", ("arc_id", "generation")),
                                  ("charts", ("chart_id", "arc_id",
                                              "generation")))
               for i, d in enumerate(doc[key]) for name in names]
    for field, value in fields:
        if type(value) is not int:
            raise ValueError(f"atlas field {field} is {value!r}, not an "
                             "integer")


def _series_to_json(field: str, s: Series2) -> dict:
    """``s.to_json()``, refused by ``_require_finite`` when the scale,
    tau, the tail or a grid endpoint is not finite."""
    sc = complex(s.scale)
    _require_finite(field, {"scale": [sc.real, sc.imag], "tau": s.tau,
                            "tail": s.tail})
    _require_finite(f"{field} lower grid", s.coefs.lo)
    _require_finite(f"{field} upper grid", s.coefs.hi)
    return s.to_json()


def _arc_to_json(rec: ArcRecord) -> dict:
    pre = rec.arc.preimage
    d = {
        "arc_id": rec.arc_id,
        "generation": rec.generation,
        "arc_time": rec.arc_time,
        "parent_chart": rec.parent_chart,
        "split_from": rec.split_from,
        "kind": rec.arc.kind,
        "preimage": None if pre is None else
            [[pre[0].real, pre[0].imag], [pre[1].real, pre[1].imag]],
    }
    _require_finite(f"arc {rec.arc_id}", d)
    d["series"] = _series_to_json(f"arc {rec.arc_id} series", rec.arc.gamma)
    return d


def _arc_from_json(d: dict) -> ArcRecord:
    pre = d["preimage"]
    arc = BoundaryArc(
        gamma=Series2.from_json(d["series"]), kind=d["kind"],
        preimage=None if pre is None else
            (complex(pre[0][0], pre[0][1]), complex(pre[1][0], pre[1][1])))
    return ArcRecord(arc_id=d["arc_id"], generation=d["generation"],
                     arc=arc, arc_time=d["arc_time"],
                     parent_chart=d["parent_chart"],
                     split_from=d["split_from"])


def _chart_to_json(rec: ChartRecord) -> dict:
    ch = rec.chart
    d = {
        "chart_id": rec.chart_id,
        "arc_id": rec.arc_id,
        "generation": rec.generation,
        "kind": ch.kind,
        "defect": ch.defect,
        "source_arc": ch.source_arc,
        "accumulated_time": ch.accumulated_time,
    }
    _require_finite(f"chart {rec.chart_id}", d)
    d["series"] = _series_to_json(f"chart {rec.chart_id} series", ch.Gamma)
    return d


def _chart_from_json(d: dict) -> ChartRecord:
    """Inverse of ``_chart_to_json``; other keys, such as the tail
    policy that files of earlier versions carry, are ignored."""
    chart = FlowChart(Gamma=Series2.from_json(d["series"]), kind=d["kind"],
                      defect=d["defect"], source_arc=d["source_arc"],
                      accumulated_time=d["accumulated_time"])
    return ChartRecord(chart_id=d["chart_id"], arc_id=d["arc_id"],
                       generation=d["generation"], chart=chart)
