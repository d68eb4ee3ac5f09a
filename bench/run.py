#!/usr/bin/env python3
"""Layered benchmark of the fourbody pipeline: certify -> manifold -> atlas.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload manifold-n10 --seed 0 --seconds 15 --trace 0

The seed picks the masses (seed 0 is (0.5, 0.3, 0.2)); the set-up runs
SETUP_REPEATS times and its median is reported; timed iterations repeat
until ``--seconds`` of wall time have run, and every iteration's output
is checked by the oracle outside the timed region.  Times are reported
in reference seconds (see speed.py): wall time rescaled by the CPU speed
sampled during the region, which cancels most of a shared host's drift;
the wall times are kept in the record.  With ``--trace 0`` the
result holds the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics, from a run that times
half of its iterations untraced and half traced.

The last line of stdout is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  ``failed`` counts
oracle checks the output did not pass; arcs that the program declines
with its typed CollisionDomain error are counted in ``ok_frac``
instead.  The full record (seed, masses, versions, iteration times,
checks) goes to bench/out/, and the spans of a traced run next to it.
The exit code is 1 when a check fails and 2 when the program cannot be
imported from src/.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from speed import SpeedClock  # noqa: E402

CLOCK = SpeedClock()
CLOCK.start()
_T0 = CLOCK.mark()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3


def _load_program() -> tuple[float, float]:
    """Import fourbody from this checkout's src/; returns the (wall,
    reference) seconds since the script started, numpy and scipy
    included."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import fourbody
    if Path(fourbody.__file__).resolve().parent.parent != src:
        raise ImportError(f"fourbody resolved outside {src}")
    import workloads  # noqa: F401  (the package's modules and scipy)
    return CLOCK.since(_T0)


def _git_commit():
    """The checkout's commit read from .git, or None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment() -> dict:
    import numpy
    import scipy

    import fourbody
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fourbody": fourbody.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "threads_env": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")},
    }


class Tally:
    """Operations and oracle checks over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.timed_ops = 0
        self.timed_ok = 0
        self.refused = 0
        self.failures: list[str] = []

    def add_checks(self, found, timed: bool) -> None:
        bad = [name for name, ok in found if not ok]
        self.attempted += len(found)
        self.failed += len(bad)
        self.failures.extend(bad)
        if timed:
            self.timed_ops += len(found)
            self.timed_ok += len(found) - len(bad)

    def add_outcome(self, out) -> None:
        ops = out.built + out.advected
        self.attempted += ops
        self.timed_ops += ops
        self.timed_ok += ops - out.refused
        self.refused += out.refused


def _iterations(wl, state, seconds, s_values, tally, tr=None):
    """Timed iterations until ``seconds`` of wall time have run (at
    least one).

    Returns ((wall, reference) seconds per iteration, charts accepted,
    last outcome).
    """
    times, charts, out = [], 0, None
    while not times or sum(w for w, _ in times) < seconds:
        ctx = tr.installed() if tr is not None else contextlib.nullcontext()
        with ctx:
            mark = CLOCK.mark()
            out = wl.iterate(state)
            times.append(CLOCK.since(mark))
        charts += len(out.charts)
        tally.add_outcome(out)
        tally.add_checks(wl.checks(state, out, s_values), timed=True)
    return times, charts, out


def _median_ref(times) -> float:
    """Median reference seconds of (wall, reference) pairs."""
    return statistics.median(r for _, r in times)


def _select(values: dict, specs: list) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {s["name"]: {"value": float(values[s["name"]]), "unit": s["unit"]}
            for s in specs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import_s = _load_program()
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    if args.workload not in workloads.NAMES:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.NAMES)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, OUT)
    masses = workloads.masses_for_seed(args.seed)
    s_values = workloads.oracle_s_values(args.seed)
    tally = Tally()

    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        mark = CLOCK.mark()
        state = wl.setup(masses)
        setup_times.append(CLOCK.since(mark))
        tally.attempted += state.M is not None
        tally.add_checks(wl.setup_checks(state), timed=False)

    record = {"workload": args.workload, "seed": args.seed,
              "masses": list(masses), "trace": args.trace,
              "seconds": args.seconds, "oracle_s": s_values,
              "environment": _environment(), "import_s": import_s,
              "setup_runs_s": setup_times}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        plain, _, _ = _iterations(wl, state, args.seconds / 2, s_values, tally)
        tr = tracer.Tracer()
        traced, charts, out = _iterations(wl, state, args.seconds / 2,
                                          s_values, tally, tr)
        wall = sum(w for w, _ in traced)
        values = tracer.layer_metrics(
            tr, len(traced), wall, charts,
            scale=sum(r for _, r in traced) / wall)
        values["atlas.json_bytes"] = out.json_bytes
        values["trace.overhead_frac"] = (_median_ref(traced)
                                         / _median_ref(plain) - 1.0)
        metrics = _select(values, spec["per_layer"])
        record.update(untraced_s=plain, traced_s=traced, absent=tr.absent)
        if tr.absent:
            print(f"bench: absent from the program: {', '.join(tr.absent)}",
                  file=sys.stderr)
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tr.spans()))
    else:
        times, charts, out = _iterations(wl, state, args.seconds, s_values,
                                         tally)
        wall = _median_ref(times)
        q = wl.quality(state, out)
        values = dict(q)
        values.update(
            setup_s=import_s[1] + _median_ref(setup_times),
            wall_s=wall,
            charts_per_s=q["charts"] / wall,
            ok_frac=tally.timed_ok / tally.timed_ops,
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = _select(values, spec["end_to_end"])
        record.update(iteration_s=times, quality=q)

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record.update(result=result, failures=tally.failures,
                  refused=tally.refused)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tally.failures:
        print(f"bench: oracle checks failed: {', '.join(tally.failures)}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        CLOCK.stop()
    sys.exit(code)
