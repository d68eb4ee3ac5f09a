"""Span tracer that times fourbody's layers from outside the package.

The package has no instrumentation of its own, so the tracer replaces
public functions with timing wrappers in every ``fourbody`` module
namespace that binds them: ``from .taylor import product_coeff`` in
``manifold`` gives ``manifold`` its own reference, and that reference is
the one its calls go through.  Methods are wrapped on their class.

Spans (name, start, end, parent) are appended to in-memory lists while
the traced code runs; nothing is written until the run ends.  Self time
is a span's duration minus the part of it that its child spans cover.

Only public names are wrapped, and the tracer calls nothing but the
wrapped function itself: argument-derived counts such as ``terms`` read
plain integer arguments.  A name missing from the package under test is
reported as absent instead of raising, and ``restore`` puts every
original object back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

PACKAGE = "fourbody"

# layer (module) -> public names timed in it; "Class.method" for methods
LAYERS: dict[str, tuple[str, ...]] = {
    "interval": ("verified_solve", "verified_solve_complex", "matrix_norm"),
    "taylor": ("product_coeff", "product_column", "cauchy_product",
               "mag_sum_bound"),
    "crfbp": ("newton_equilibrium", "eigen_data"),
    "nk": ("certify_equilibrium",),
    "polyfield": ("poly_DF",),
    "manifold": ("local_manifold", "param_equilibrium", "solve_homological",
                 "field_series", "boundary_mesh"),
    "advect": ("flow_line", "choose_tau", "taylor_flow", "propagated_tail",
               "range_box", "check_collision", "collapse_time_one"),
    "atlas": ("Atlas.from_manifold", "Atlas.grow", "Atlas.save", "Atlas.load",
              "arc_length", "arc_decay", "subdivide_arc"),
}

# Kernels and test-only API that later changes may merge or delete; the
# benchmark must neither wrap nor call them.
FORBIDDEN = ("_imul_arr", "_imul_arr_fast", "iv_arith", "hat_product_")


def _coeff_terms(a, b, m, n, *args, **kwargs) -> int:
    """Summand pairs of product_coeff(a, b, m, n): (m + 1)(n + 1)."""
    return (m + 1) * (n + 1)


def _column_terms(a, b, n, M, *args, **kwargs) -> int:
    """Summand pairs of product_column(a, b, n, M): row r of the column
    sums (r + 1)(n + 1) pairs, r = 0..M."""
    return (M + 1) * (M + 2) // 2 * (n + 1)


TERMS: dict[str, Callable[..., int]] = {
    "taylor.product_coeff": _coeff_terms,
    "taylor.product_column": _column_terms,
}


def wrapped_names() -> list[str]:
    """Every span name the tracer can produce, as "layer.name"."""
    return [f"{layer}.{name}" for layer, names in LAYERS.items()
            for name in names]


class Tracer:
    """Collects nested spans from wrapped callables.

    ``clock`` is injectable so the self-time arithmetic can be tested
    with synthetic timestamps.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.terms: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording

    def wrap(self, fn: Callable, name: str,
             terms: Optional[Callable[..., int]] = None) -> Callable:
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack, clock, totals = self._stack, self.clock, self.terms

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                if terms is not None:
                    try:
                        totals[name] += terms(*args, **kwargs)
                    except TypeError:
                        pass  # signature changed: the count is skipped

        return traced

    # -- patching

    def install(self) -> None:
        """Wrap every name of LAYERS wherever the package binds it."""
        self.absent = []
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE
                                         or k.startswith(PACKAGE + "."))]
        for layer, quals in LAYERS.items():
            try:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent.extend(f"{layer}.{q}" for q in quals)
                continue
            for qual in quals:
                full = f"{layer}.{qual}"
                leaf = qual.split(".")[-1]
                if leaf.startswith("_") or leaf.startswith(FORBIDDEN):
                    raise ValueError(f"refusing to wrap non-public {full}")
                if "." in qual:
                    if not self._wrap_method(mod, qual, full):
                        self.absent.append(full)
                    continue
                fn = getattr(mod, qual, None)
                if not callable(fn):
                    self.absent.append(full)
                    continue
                traced = self.wrap(fn, full, TERMS.get(full))
                for m in modules:
                    for key in [k for k, v in vars(m).items() if v is fn]:
                        self._patch(m, key, traced)

    def _wrap_method(self, mod, qual: str, full: str) -> bool:
        cls_name, attr = qual.split(".")
        cls = getattr(mod, cls_name, None)
        raw = vars(cls).get(attr) if isinstance(cls, type) else None
        if isinstance(raw, (classmethod, staticmethod)):
            self._patch(cls, attr, type(raw)(self.wrap(raw.__func__, full)))
        elif callable(raw):
            self._patch(cls, attr, self.wrap(raw, full))
        else:
            return False
        return True

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put every wrapped name back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.restore()

    # -- analysis

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Duration minus the union of the child spans' intervals."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, par in enumerate(self.parents):
            if par >= 0:
                children[par].append(i)
        out = self.durations()
        for par, kids in children.items():
            lo_bound, hi_bound = self.starts[par], self.ends[par]
            covered = 0.0
            cur_lo = cur_hi = None
            for k in sorted(kids, key=lambda k: self.starts[k]):
                lo = max(self.starts[k], lo_bound)
                hi = min(self.ends[k], hi_bound)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[par] -= covered
        return out

    def inclusive(self, name: str) -> float:
        """Total duration of the outermost spans called ``name``."""
        dur = self.durations()
        total = 0.0
        for i, n in enumerate(self.names):
            if n != name:
                continue
            par = self.parents[i]
            while par >= 0 and self.names[par] != name:
                par = self.parents[par]
            if par < 0:
                total += dur[i]
        return total

    def by_name(self) -> dict[str, dict[str, float]]:
        """Calls, self seconds and terms per span name."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "terms": 0})
        for n, st in zip(self.names, self.self_times()):
            rec = out[n]
            rec["calls"] += 1
            rec["self_s"] += st
        for n, t in self.terms.items():
            out[n]["terms"] = t
        return dict(out)

    def child_time(self, parent: str, only: tuple[str, ...]) -> float:
        """Summed durations of the direct children named in ``only`` of
        every ``parent`` span."""
        dur = self.durations()
        return sum(dur[i] for i, par in enumerate(self.parents)
                   if par >= 0 and self.names[par] == parent
                   and self.names[i] in only)

    def child_calls(self, parent: str, name: str) -> int:
        return sum(1 for i, par in enumerate(self.parents)
                   if par >= 0 and self.names[i] == name
                   and self.names[par] == parent)

    def spans(self) -> list[list]:
        return [[n, s, e, p] for n, s, e, p in
                zip(self.names, self.starts, self.ends, self.parents)]


def layer_metrics(tr: Tracer, iterations: int, wall: float, charts: int,
                  scale: float = 1.0) -> dict[str, float]:
    """Per-layer figures from one traced run, per timed iteration.

    ``wall`` is the traced iterations' total wall time and ``charts``
    the flow charts they accepted.  Fractions are of ``wall``; seconds
    are multiplied by ``scale``, the reference-to-wall ratio of the
    traced iterations.
    """
    n = max(iterations, 1)
    stats = tr.by_name()
    out: dict[str, float] = {}
    self_total = 0.0
    for name in wrapped_names():
        rec = stats.get(name, {"calls": 0, "self_s": 0.0, "terms": 0})
        self_total += rec["self_s"]
        out[f"{name}.calls"] = rec["calls"] / n
        out[f"{name}.self_s"] = rec["self_s"] * scale / n
        out[f"{name}.self_frac"] = rec["self_s"] / wall
        if name in TERMS:
            out[f"{name}.terms"] = rec["terms"] / n

    def calls(name: str) -> int:
        return stats.get(name, {"calls": 0})["calls"]

    flow, tube = "advect.flow_line", "advect.propagated_tail"
    per_s = scale / n
    out["manifold.homological_s"] = tr.inclusive(
        "manifold.solve_homological") * per_s
    out["manifold.residual_s"] = (
        tr.inclusive("manifold.param_equilibrium")
        - tr.child_time("manifold.param_equilibrium",
                        only=("manifold.solve_homological",))) * per_s
    out["advect.recursion_s"] = tr.inclusive("advect.taylor_flow") * per_s
    out["advect.defect_s"] = (
        tr.inclusive(flow)
        - tr.child_time(flow, only=("advect.taylor_flow", "advect.choose_tau",
                                    tube))) * per_s
    out["advect.gronwall_s"] = tr.inclusive(tube) * per_s
    out["advect.gronwall_iters"] = (
        tr.child_calls(tube, "polyfield.poly_DF") / calls(tube)
        if calls(tube) else 0.0)
    out["atlas.tau_attempts_per_chart"] = (
        calls(flow) / charts if charts else 0.0)
    out["trace.self_sum_frac"] = self_total / wall
    return out
