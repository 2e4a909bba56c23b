"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload pion-large --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (see ``perfbench/README.md``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--smoke`` shrinks every
lattice for the benchmark's own tests.
"""

from __future__ import annotations

import os
import sys

# One thread, whatever numpy links against; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Keep bytecode caches out of the source tree.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Set-ups per run: at least ``SETUP_MIN_REPS`` and until
#: ``SETUP_SECONDS`` have passed; ``setup_s`` is their median.
SETUP_MIN_REPS = 3
SETUP_SECONDS = 1.0
#: Prefix of the per-run scratch directory in the repository root.
SCRATCH_PREFIX = ".perfbench-"


def _ensure_program() -> None:
    """Put ``src/`` first on the path, or stop if it is missing."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no program at {SRC}/repro; run from a "
                 "checkout of the repository")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if ROOT not in sys.path:
        sys.path.insert(1, ROOT)


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS count (Linux); where that is not
    possible the process-lifetime peak is reported."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _setup(wl, inputs, engine) -> tuple:
    """One set-up from cold engine caches: returns the state and the
    start, first-call start and end times."""
    engine.reset_all()
    t0 = time.perf_counter()
    loaded = wl.load(inputs)
    state = wl.build(inputs, loaded)
    t1 = time.perf_counter()
    wl.first_call(state)
    return state, t0, t1, time.perf_counter()


def _measure(wl, state, seconds: float, min_ops: int, results: list,
             failures: list, speed) -> list:
    """Closed loop: run operations until ``seconds`` have passed and at
    least ``min_ops`` ran, sampling host speed in between; returns each
    operation's (start, end)."""
    spans = []
    k = 0
    speed.sample()
    deadline = time.perf_counter() + seconds
    while k < min_ops or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        try:
            result = wl.op(state)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            failures.append(f"operation {k}: {type(exc).__name__}: {exc}")
            result = None
        t1 = time.perf_counter()
        speed.maybe_sample()
        k += 1
        if result is not None:
            spans.append((t0, t1))
            wl.keep(results, result)
    speed.sample()
    return spans


def run(name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> dict:
    """Run one workload; returns the result object plus ``details``
    (per-operation summaries, for the tests)."""
    from repro import engine

    from perfbench import hostspeed, tracing, workloads

    wl = workloads.make(name, smoke)
    checks = workloads.Checks()
    failures: list = []
    try:
        with tempfile.TemporaryDirectory(prefix=SCRATCH_PREFIX,
                                         dir=ROOT) as workdir:
            inputs = wl.make_inputs(seed, workdir)
            host = tracing.host_ceiling() if trace else None
            tracer = tracing.Tracer()
            speed = hostspeed.SpeedTrack()
            reset_peak_rss()
            state = None
            setups = []
            speed.sample()
            deadline = time.perf_counter() + SETUP_SECONDS
            while len(setups) < SETUP_MIN_REPS \
                    or time.perf_counter() < deadline:
                state = None  # release the previous set-up first
                if trace:
                    with tracing.instrument(tracer):
                        state, *stamps = _setup(wl, inputs, engine)
                else:
                    state, *stamps = _setup(wl, inputs, engine)
                speed.sample()
                setups.append(stamps)
            io_stats = tracer.layer("io")

            results: list = []
            # A traced run times half untraced, half traced, and one
            # operation at least of each.
            budget = seconds / 2 if trace else seconds
            min_ops = 1 if trace else wl.min_ops
            spans = _measure(wl, state, budget, min_ops, results, failures,
                             speed)
            rss = peak_rss_mb()
            traced: list = []
            if trace:
                tracer.reset()
                with tracing.instrument(tracer):
                    traced = _measure(wl, state, budget, 1, results,
                                      failures, speed)
            wl.check(inputs, state, results, checks)
            summaries = [wl.summary(r) for r in results
                         if not isinstance(r, bool)]
            if trace and spans and traced:
                checks.expect(
                    _same(summaries[0], summaries[-1]),
                    "traced result differs from untraced result")
    finally:
        engine.reset_all()

    attempted = len(spans) + len(traced) + len(failures) + checks.attempted
    failed = len(failures) + checks.failed
    op_s = [speed.normalise(*span) for span in spans]
    if trace:
        metrics = per_layer_metrics(
            tracer, io_stats, host, speed, traced, op_s,
            statistics.median(t2 - t1 for _t0, t1, t2 in setups),
            wl.cells(results[-1]) if results else (0, 0))
    else:
        metrics = end_to_end_metrics(
            op_s, statistics.median(speed.normalise(t0, t2)
                                    for t0, _t1, t2 in setups),
            rss, attempted, failed)
    raw = [t1 - t0 for t0, t1 in spans]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": {"op_label": wl.op_label, "ops": len(spans),
                    "raw_op_s": statistics.median(raw) if raw else None,
                    "failures": failures + checks.failures,
                    "summaries": summaries},
    }


def _same(a: dict, b: dict) -> bool:
    import numpy as np

    return a.keys() == b.keys() and all(
        np.array_equal(a[k], b[k]) for k in a)


def end_to_end_metrics(op_s, setup_s, rss, attempted, failed) -> dict:
    """Times are host-speed normalised seconds (see hostspeed.py)."""
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_s": {"value": statistics.median(op_s) if op_s else None,
                 "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "ok_ratio": {"value": (attempted - failed) / attempted,
                     "unit": "ratio"},
    }


def per_layer_metrics(tracer, io_stats, host, speed, traced, op_s,
                      first_call_s, cells) -> dict:
    """Per-operation layer figures of the traced loop (counts repeat
    exactly between runs of one seed; times are raw seconds per
    operation, to be read with ``host.speed``)."""
    n = max(len(traced), 1)
    traced_s = [speed.normalise(*span) for span in traced]
    L = tracer.layer

    def rate(num, den):
        return num / den if den else 0.0

    wilson, dist, gather = L("wilson"), L("dist"), L("gather")
    lattice, solver = L("lattice"), L("solver")
    wire, wait, sve = L("comms.wire"), L("comms.wait"), L("sve")
    copy_gbs = host["copy_gbs"]
    wilson_gbs = rate(wilson.counts.get("bytes", 0), wilson.total_s) / 1e9
    dist_gbs = rate(dist.counts.get("bytes", 0), dist.total_s) / 1e9
    wall = sum(t1 - t0 for t0, t1 in traced)
    attributed = sum(st.self_s for st in tracer.layers.values())
    values = {
        "io.load_s": (rate(io_stats.total_s, io_stats.calls), "s"),
        "io.bytes": (rate(io_stats.counts.get("bytes", 0),
                          io_stats.calls), "B"),
        "engine.first_call_s": (first_call_s, "s"),
        "wilson.dhop_calls": (wilson.calls / n, "count"),
        "wilson.dhop_s": (wilson.total_s / n, "s"),
        "wilson.dhop_us_per_site": (
            1e6 * rate(wilson.total_s, wilson.counts.get("sites", 0)),
            "us"),
        "wilson.dhop_gflops": (
            rate(wilson.counts.get("flops", 0), wilson.total_s) / 1e9,
            "GF/s"),
        "wilson.dhop_gbs": (wilson_gbs, "GB/s"),
        "wilson.dhop_pct_copy": (100 * wilson_gbs / copy_gbs, "%"),
        "gather.calls": (gather.calls / n, "count"),
        "gather.s": (gather.total_s / n, "s"),
        "lattice.ops": (lattice.calls / n, "count"),
        "lattice.s": (lattice.total_s / n, "s"),
        "solver.solves": (solver.calls / n, "count"),
        "solver.iterations": (solver.counts.get("iterations", 0) / n,
                              "count"),
        "solver.self_s": (solver.self_s / n, "s"),
        "solver.max_residual": (solver.counts.get("max_residual", 0.0),
                                "ratio"),
        "propagator.contract_s": (L("contract").total_s / n, "s"),
        "dist.dhop_calls": (dist.calls / n, "count"),
        "dist.dhop_s": (dist.total_s / n, "s"),
        "dist.dhop_us_per_site": (
            1e6 * rate(dist.total_s, dist.counts.get("sites", 0)), "us"),
        "dist.dhop_pct_copy": (100 * dist_gbs / copy_gbs, "%"),
        "comms.messages": (wire.counts.get("messages", 0) / n, "count"),
        "comms.bytes": (wire.counts.get("bytes", 0) / n, "B"),
        "comms.wire_s": (wire.total_s / n, "s"),
        "comms.halo_wait_s": (wait.total_s / n, "s"),
        "comms.retries": (wire.counts.get("retries", 0) / n, "count"),
        "vectorizer.s": (L("vectorizer").total_s / n, "s"),
        "armie.s": (L("armie").self_s / n, "s"),
        "sve.instructions": (sve.counts.get("instructions", 0) / n,
                             "count"),
        "sve.run_s": (sve.total_s / n, "s"),
        "sve.minstr_per_s": (
            rate(sve.counts.get("instructions", 0), sve.total_s) / 1e6,
            "Minstr/s"),
        "verification.cells": (cells[0], "count"),
        "verification.passed": (cells[1], "count"),
        "host.copy_gbs": (copy_gbs, "GB/s"),
        "host.copy_array_mib": (host["copy_array_mib"], "MiB"),
        "host.llc_mib": (host["llc_mib"], "MiB"),
        "host.cmul_gflops": (host["cmul_gflops"], "GF/s"),
        "host.speed": (statistics.median(speed.speed(*span)
                                         for span in traced)
                       if traced else 0.0, "ratio"),
        "unattributed_s": ((wall - attributed) / n, "s"),
        "trace_overhead": (
            rate(statistics.median(traced_s), statistics.median(op_s))
            if traced_s and op_s else 0.0, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small lattices, for the benchmark's tests")
    args = parser.parse_args(argv)
    _ensure_program()
    from perfbench import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(workloads.NAMES)}")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace),
              args.smoke)
    details = out.pop("details")
    for line in details["failures"]:
        print(f"FAILED: {line}")
    print(f"# {args.workload} seed={args.seed} ops={details['ops']} "
          f"(op_s is {details['op_label']}; raw median "
          f"{details['raw_op_s']!r} s)")
    for key, m in out["metrics"].items():
        print(f"{key:28s} {m['value']!r} {m['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
