"""Tests of the benchmark itself: tracer arithmetic, metric names, oracles.

Run from the repository root with ``python -m pytest bench``.
"""

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fourbody import atlas, manifold, taylor  # noqa: E402
from fourbody.advect import flow_line  # noqa: E402
from fourbody.crfbp import MassTriple, primaries  # noqa: E402
from fourbody.interval import Interval  # noqa: E402
from fourbody.polyfield import State7  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


# ---------------------------------------------------------------------------
# tracer


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def leaf(dt):
        clock.t += dt

    def mid():
        clock.t += 1.0
        traced_leaf(2.0)
        clock.t += 0.5
        traced_leaf(3.0)

    def top():
        clock.t += 4.0
        traced_mid()
        clock.t += 0.25

    traced_leaf = tr.wrap(leaf, "x.leaf")
    traced_mid = tr.wrap(mid, "x.mid")
    tr.wrap(top, "x.top")()
    stats = tr.by_name()
    assert stats["x.leaf"] == {"calls": 2, "self_s": 5.0, "terms": 0}
    assert stats["x.mid"]["self_s"] == 1.5
    assert stats["x.top"]["self_s"] == 4.25
    assert sum(s["self_s"] for s in stats.values()) == clock.t == 10.75
    assert tr.inclusive("x.mid") == 6.5
    assert tr.child_time("x.mid", only=("x.leaf",)) == 5.0
    assert tr.child_time("x.top", only=("x.leaf",)) == 0.0
    assert tr.child_calls("x.mid", "x.leaf") == 2


def test_recursion_counts_outermost_span_once():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def rec(depth):
        clock.t += 1.0
        if depth:
            traced(depth - 1)

    traced = tr.wrap(rec, "x.rec")
    traced(2)
    assert tr.inclusive("x.rec") == 3.0
    assert tr.by_name()["x.rec"] == {"calls": 3, "self_s": 3.0, "terms": 0}


def test_overlapping_children_are_covered_once():
    tr = tracer.Tracer()
    # parent [0, 10]; children [1, 4] and [3, 6] overlap, [8, 12] overhangs
    tr.names[:] = ["p", "a", "b", "c"]
    tr.starts[:] = [0.0, 1.0, 3.0, 8.0]
    tr.ends[:] = [10.0, 4.0, 6.0, 12.0]
    tr.parents[:] = [-1, 0, 0, 0]
    assert tr.self_times()[0] == 10.0 - 5.0 - 2.0


def test_terms_come_from_arguments():
    tr = tracer.Tracer()
    f = tr.wrap(lambda a, b, m, n, fast=False: None, "taylor.product_coeff",
                tracer.TERMS["taylor.product_coeff"])
    f(None, None, 3, 4)
    f(a=None, b=None, m=0, n=0)
    g = tr.wrap(lambda a, b, n, M: None, "taylor.product_column",
                tracer.TERMS["taylor.product_column"])
    g(None, None, 2, 3)
    assert tr.terms["taylor.product_coeff"] == 20 + 1
    assert tr.terms["taylor.product_column"] == 10 * 3


def test_install_wraps_every_binding_and_restore_undoes_it():
    from fourbody import taylor as tmod
    original = tmod.product_coeff
    load = atlas.Atlas.__dict__["load"]
    tr = tracer.Tracer()
    with tr.installed():
        assert tmod.product_coeff is not original
        assert manifold.product_coeff is tmod.product_coeff
        assert atlas.Atlas.__dict__["load"] is not load
        assert tr.absent == []
    assert tmod.product_coeff is original
    assert manifold.product_coeff is original
    assert atlas.Atlas.__dict__["load"] is load


def test_missing_names_are_absent_not_raised(monkeypatch):
    layers = dict(tracer.LAYERS)
    layers["taylor"] = layers["taylor"] + ("no_such_function",)
    layers["atlas"] = layers["atlas"] + ("Atlas.no_such_method",)
    layers["no_such_module"] = ("anything",)
    monkeypatch.setattr(tracer, "LAYERS", layers)
    tr = tracer.Tracer()
    with tr.installed():
        pass
    assert tr.absent == ["taylor.no_such_function",
                         "atlas.Atlas.no_such_method",
                         "no_such_module.anything"]


def test_private_kernels_are_never_wrapped(monkeypatch):
    for name in tracer.wrapped_names():
        leaf = name.split(".")[-1]
        assert not leaf.startswith("_")
        assert not leaf.startswith(tracer.FORBIDDEN)
    monkeypatch.setattr(tracer, "LAYERS", {"taylor": ("hat_product_cubic",)})
    from fourbody import taylor as tmod
    original = tmod.hat_product_cubic
    with pytest.raises(ValueError):
        with tracer.Tracer().installed():
            pass
    assert tmod.hat_product_cubic is original


# ---------------------------------------------------------------------------
# metric names


def test_benchmark_names_are_well_formed_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in SPEC[key]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


def test_every_computed_metric_is_in_benchmark_json():
    per_layer = set(tracer.layer_metrics(tracer.Tracer(), 1, 1.0, 0))
    per_layer |= {"atlas.json_bytes", "trace.overhead_frac"}
    listed = {m["name"] for m in SPEC["per_layer"]}
    assert listed <= per_layer
    for name in tracer.wrapped_names():
        assert f"{name}.self_frac" in listed
    readme = (ROOT / "bench" / "README.md").read_text()
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f"`{m['name']}`" in readme or m["name"].endswith(".self_frac")


# ---------------------------------------------------------------------------
# oracle checks against planted faults


def test_seeded_masses_are_valid_and_reproducible():
    assert workloads.masses_for_seed(0) == (0.5, 0.3, 0.2)
    for seed in range(1, 40):
        ms = workloads.masses_for_seed(seed)
        assert ms == workloads.masses_for_seed(seed)
        MassTriple.from_floats(*ms)
        for got, base in zip(ms, (0.5, 0.3, 0.2)):
            assert abs(got / base - 1.0) < 2.5 * workloads.MASS_JITTER


@pytest.fixture(scope="module")
def small():
    m = MassTriple.from_floats(0.5, 0.3, 0.2)
    p = primaries(m)
    M = manifold.local_manifold(m, p, "stable", N=3)
    arcs = manifold.boundary_mesh(M, n_arcs=12, arc_order=6)
    chart = flow_line(arcs[3], m, p, orders=(6, 12))
    return m, p, M, arcs[3], chart


def _shift(series, comp, m, n, delta):
    """The series with one real coefficient moved, its tail unchanged."""
    comps = list(series.components)
    c = comps[comp]
    rlo, rhi = c.rlo.copy(), c.rhi.copy()
    rlo[m, n] += delta
    rhi[m, n] += delta
    comps[comp] = taylor.ScalarSeries2(rlo, rhi, c.ilo, c.ihi)
    return replace(series, components=tuple(comps))


def test_certificate_rejects_a_displaced_equilibrium(small):
    m, p, M, _, _ = small
    assert oracle.certificate(m, p, M)[0]
    u = list(M.equilibrium.u)
    u[0] = u[0] + Interval(1e-6, 1e-6)
    moved = replace(M, equilibrium=State7(tuple(u), on_s=True))
    assert not oracle.certificate(m, p, moved)[0]


def test_symmetry_rejects_a_one_sided_coefficient(small):
    _, _, M, _, _ = small
    assert oracle.symmetric(M)
    bad = replace(M, P=_shift(M.P, 0, 1, 0, 1e-9))
    assert not oracle.symmetric(bad)


def test_chart_check_rejects_a_perturbed_coefficient(small):
    m, p, _, arc, chart = small
    s_values = workloads.oracle_s_values(0)
    assert oracle.chart_encloses_flow(chart, arc, m, p, s_values)
    delta = 100.0 * chart.tail + 1e-9
    bad = replace(chart, Gamma=_shift(chart.Gamma, 0, 0, 1, delta))
    assert bad.tail == chart.tail
    assert not oracle.chart_encloses_flow(bad, arc, m, p, s_values)


def test_roundtrip_rejects_a_tampered_file(small, tmp_path):
    m, _, M, _, _ = small
    A = atlas.Atlas.from_manifold(M, m, n_arcs=6, arc_order=6)
    A.grow(1, orders=(6, 8))
    path = tmp_path / "atlas.json"
    A.save(path)
    assert oracle.roundtrip_identical(A, atlas.Atlas.load(path))
    doc = json.loads(path.read_text())
    rlo = doc["charts"][0]["series"]["components"][2]["rlo"]
    rlo[1][1] = float(np.nextafter(rlo[1][1], np.inf))
    path.write_text(json.dumps(doc))
    assert not oracle.roundtrip_identical(A, atlas.Atlas.load(path))
    doc["charts"][0]["series"]["components"][2]["rlo"][1][1] = \
        A.charts[0].chart.Gamma.components[2].rlo[1, 1]
    doc["charts"][0]["series"]["tail"] *= 1.0 + 2.0 ** -52
    path.write_text(json.dumps(doc))
    assert not oracle.roundtrip_identical(A, atlas.Atlas.load(path))


def test_reference_seconds_rescale_by_sampled_kernel_time():
    import speed
    clock = speed.SpeedClock()
    mark = clock.mark()
    clock.samples += [3.0 * speed.REFERENCE_KERNEL_S] * 3
    clock.samples.append(9.0 * speed.REFERENCE_KERNEL_S)
    wall, ref = clock.since(mark)
    assert ref == pytest.approx(wall / 3.0)
    clock.start()
    try:
        mark = clock.mark()
        sum(i * i for i in range(200000))
        wall, ref = clock.since(mark)
    finally:
        clock.stop()
    assert wall > 0.0 and ref > 0.0 and len(clock.samples) > 4
