"""The benchmark-regression harness CI gates on.

A pinned suite of end-to-end workloads — Wilson-Dslash (engine off vs
on), a CG solve, a distributed halo exchange, a fault-campaign smoke
and the kernel trace cache — each reporting

* a wall time (informational: CI machines vary),
* **gated metrics**: machine-independent quantities (speedup ratios,
  instruction counts, cache-hit rates, campaign outcomes) compared
  against a committed baseline.

Every metric carries its own gate mode so the comparison logic never
guesses a direction:

* ``min`` — must stay within ``tolerance`` of the baseline from below
  (``current >= baseline * (1 - tolerance)``): speedups, hit rates.
* ``max`` — must not grow past ``baseline * (1 + tolerance)``:
  instruction counts that creeping codegen would inflate.
* ``exact`` — must match the baseline exactly: bit-identity booleans,
  deterministic campaign outcomes, solver iteration counts.
* ``info`` — recorded, never gated.

``benchmarks/bench_regression.py`` is the CLI front end; see the
README's *Performance* section for re-baselining instructions.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

import repro.perf as perf
from repro.bench.workloads import dslash_setup
from repro.grid.cartesian import GridCartesian
from repro.grid.comms import DistributedLattice, reset_all_comms
from repro.grid.dist_wilson import DistributedWilson, distribute_gauge
from repro.grid.random import random_gauge, random_spinor
from repro.grid.solver import conjugate_gradient
from repro.grid.wilson import WilsonDirac
from repro.perf.counters import counters, reset_counters
from repro.perf.trace_cache import cached_run_kernel, clear_cache, trace_cache
from repro.simd import get_backend
from repro.vectorizer import ir

SCHEMA_VERSION = 1

#: Legal gate modes (see module docstring).
GATES = ("min", "max", "exact", "info")


@dataclass
class Metric:
    """One gated quantity."""

    value: object
    gate: str = "info"

    def __post_init__(self) -> None:
        if self.gate not in GATES:
            raise ValueError(f"unknown gate {self.gate!r}")


@dataclass
class BenchRecord:
    """One benchmark's outcome."""

    name: str
    wall_seconds: float
    metrics: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def metric(self, name: str, value, gate: str = "info") -> None:
        self.metrics[name] = Metric(value=value, gate=gate)


def _median_wall(fn: Callable, reps: int, warmup: int = 2) -> float:
    """Median wall time of ``fn`` over ``reps`` timed calls."""
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


# ======================================================================
# The pinned benchmarks
# ======================================================================

def bench_dslash(dims=(8, 8, 8, 8), workers: int = 4,
                 reps: int = 15) -> BenchRecord:
    """Repeated Wilson-Dslash: engine off vs engine on (hot, tiled).

    The headline engine benchmark: the engine-off measurement runs the
    exact pre-engine code path (``perf.disabled()``), the engine-on
    measurements run the fused+tiled sweep with the cshift plans hot.
    """
    setup_off = dslash_setup("generic256", dims=dims)
    setup_on = dslash_setup("generic256", dims=dims)
    with perf.disabled():
        ref = setup_off.run().data.copy()
        t_off = _median_wall(setup_off.run, reps)
    with perf.configured(enabled=True, workers=1):
        got_serial = setup_on.run().data.copy()
        t_serial = _median_wall(setup_on.run, reps)
    with perf.configured(enabled=True, workers=workers):
        got_tiled = setup_on.run().data.copy()
        t_tiled = _median_wall(setup_on.run, reps)
    rec = BenchRecord(name="dslash", wall_seconds=t_off + t_serial + t_tiled)
    rec.metric("speedup_hot_serial", round(t_off / t_serial, 3), "min")
    rec.metric("speedup_hot_workers", round(t_off / t_tiled, 3), "min")
    rec.metric("bit_identical_serial",
               bool(np.array_equal(ref, got_serial)), "exact")
    rec.metric("bit_identical_workers",
               bool(np.array_equal(ref, got_tiled)), "exact")
    rec.metric("flops_per_site", setup_on.dirac.flops_per_site(), "exact")
    rec.info.update({
        "dims": list(dims), "workers": workers, "reps": reps,
        "wall_engine_off": t_off, "wall_hot_serial": t_serial,
        "wall_hot_workers": t_tiled,
        "ops_per_site": setup_on.dirac.flops_per_site(),
        "gflops_engine_off": setup_on.flops / t_off / 1e9,
        "gflops_hot_workers": setup_on.flops / t_tiled / 1e9,
    })
    return rec


def bench_cg(dims=(4, 4, 4, 4), tol: float = 1e-7,
             workers: int = 4) -> BenchRecord:
    """CG on the normal equations, engine on, vs the engine-off
    solution (must be bit-identical, same iteration count)."""
    def solve():
        be = get_backend("generic256")
        grid = GridCartesian(list(dims), be)
        dirac = WilsonDirac(random_gauge(grid, seed=11), mass=0.3)
        rhs = dirac.apply_dagger(random_spinor(grid, seed=5))
        return conjugate_gradient(dirac.mdag_m, rhs, tol=tol, max_iter=500)

    with perf.disabled():
        ref = solve()
    with perf.configured(enabled=True, workers=workers):
        t0 = time.perf_counter()
        res = solve()
        wall = time.perf_counter() - t0
    rec = BenchRecord(name="cg", wall_seconds=wall)
    rec.metric("converged", bool(res.converged), "exact")
    rec.metric("iterations", int(res.iterations), "exact")
    rec.metric("bit_identical",
               bool(np.array_equal(ref.x.data, res.x.data)), "exact")
    rec.info.update({"dims": list(dims), "tol": tol,
                     "residual": float(res.residual)})
    return rec


def bench_halo(dims=(4, 4, 4, 4), mpi=(2, 1, 1, 1)) -> BenchRecord:
    """Distributed dhop with halo exchange vs the single-rank operator
    (identical gather, pinned message/byte counts)."""
    be = get_backend("generic256")
    grid = GridCartesian(list(dims), be)
    links = random_gauge(grid, seed=11)
    psi = random_spinor(grid, seed=7)
    with perf.configured(enabled=True):
        want = WilsonDirac(links).dhop(psi).to_canonical()
        dlinks = distribute_gauge(links, list(dims), be, list(mpi))
        w = DistributedWilson(dlinks, mass=0.1)
        dpsi = DistributedLattice(list(dims), be, list(mpi),
                                  (4, 3)).scatter(psi.to_canonical())
        t0 = time.perf_counter()
        got = w.dhop(dpsi).gather()
        wall = time.perf_counter() - t0
    rec = BenchRecord(name="halo", wall_seconds=wall)
    rec.metric("gather_identical", bool(np.array_equal(want, got)), "exact")
    rec.metric("messages", int(dpsi.stats.messages), "exact")
    rec.metric("bytes_sent", int(dpsi.stats.bytes_sent), "exact")
    rec.info.update({"dims": list(dims), "mpi": list(mpi)})
    return rec


def bench_halo_messages(dims=(4, 4, 4, 4), mpi=(2, 1, 1, 1),
                        reps: int = 5) -> BenchRecord:
    """Halo traffic of one distributed dhop: the message count is
    exact-gated (the counters are deterministic)."""
    be = get_backend("generic256")
    grid = GridCartesian(list(dims), be)
    links = random_gauge(grid, seed=11)
    dlinks = distribute_gauge(links, list(dims), be, list(mpi))
    w = DistributedWilson(dlinks, mass=0.1)
    psi = DistributedLattice(list(dims), be, list(mpi), (4, 3)).scatter(
        random_spinor(grid, seed=20).to_canonical())
    with perf.configured(enabled=True):
        psi.stats.reset()
        w.dhop(psi)
        m_single = psi.stats.messages
        b_single = psi.stats.bytes_sent
        t_single = _median_wall(lambda: w.dhop(psi), reps)
    reset_all_comms()
    rec = BenchRecord(name="halo_messages", wall_seconds=t_single)
    rec.metric("messages_single", int(m_single), "exact")
    rec.info.update({
        "dims": list(dims), "mpi": list(mpi),
        "bytes_single": int(b_single),
    })
    return rec


def bench_transport(dims=(8, 8, 8, 8), mpi=(4, 1, 1, 1),
                    reps: int = 5) -> BenchRecord:
    """The shared-memory rank runtime vs the in-process reference.

    Parity is exact-gated: the shmem dhop must be bit-identical to the
    in-process sweep and issue exactly its halo messages — the wire is
    real but the protocol is the same.  The wall-clock ratios (shmem
    vs in-process, and 4 rank workers vs 1) are info-gated: they are
    machine-dependent — real parallel speedup needs real cores, and CI
    runners vary — so ``cpu_count`` rides along in the record and a
    baseline should be promoted from the target machine before
    tightening either gate to ``min``.  Teardown is exact-gated too:
    after the bench's reset no shared-memory segment may survive."""
    import repro.engine as engine
    from repro.grid.comms.shmem import live_segments, wire_bytes_for

    be = get_backend("generic256")
    grid = GridCartesian(list(dims), be)
    links = random_gauge(grid, seed=11)
    psi = random_spinor(grid, seed=7)
    dlinks = distribute_gauge(links, list(dims), be, list(mpi))
    w = DistributedWilson(dlinks, mass=0.1)
    dpsi = DistributedLattice(list(dims), be, list(mpi),
                              (4, 3)).scatter(psi.to_canonical())
    solo_links = distribute_gauge(links, list(dims), be, [1, 1, 1, 1])
    w1 = DistributedWilson(solo_links, mass=0.1)
    dpsi1 = DistributedLattice(list(dims), be, [1, 1, 1, 1],
                               (4, 3)).scatter(psi.to_canonical())
    with perf.configured(enabled=True):
        ref = w.dhop(dpsi).gather()
        m_ref = dpsi.stats.messages
        t_inproc = _median_wall(lambda: w.dhop(dpsi), reps)
        with engine.scope(transport="shmem"):
            dpsi.stats.reset()
            got = w.dhop(dpsi).gather()
            m_shm = dpsi.stats.messages
            t_shm = _median_wall(lambda: w.dhop(dpsi), reps)
            w1.dhop(dpsi1)  # start the 1-rank runtime off the clock
            t_shm_1rank = _median_wall(lambda: w1.dhop(dpsi1), reps)
    wire_bytes = wire_bytes_for(dpsi)
    engine.reset_all()
    rec = BenchRecord(name="transport", wall_seconds=t_inproc + t_shm)
    rec.metric("bit_identical", bool(np.array_equal(ref, got)), "exact")
    rec.metric("message_ratio_shmem",
               round(m_shm / m_ref, 4) if m_ref else 1.0, "exact")
    rec.metric("shmem_vs_inprocess_speedup",
               round(t_inproc / t_shm, 3), "info")
    rec.metric("shmem_4rank_vs_1rank_speedup",
               round(t_shm_1rank / t_shm, 3), "info")
    rec.metric("segments_after_reset", len(live_segments()), "exact")
    rec.info.update({
        "dims": list(dims), "mpi": list(mpi), "reps": reps,
        "cpu_count": os.cpu_count(),
        "wall_inprocess": t_inproc, "wall_shmem": t_shm,
        "wall_shmem_1rank": t_shm_1rank,
        "wire_bytes_per_sweep": int(wire_bytes),
        "messages_per_sweep": int(m_shm),
        "promote_note": (
            "speedup metrics stay info-gated until a baseline is "
            "promoted from a machine with enough cores for the rank "
            "workers (cpu_count above)"
        ),
    })
    return rec


def bench_campaign(vls: Sequence[int] = (256,)) -> BenchRecord:
    """The default fault-injection campaign (smoke: one VL).

    Seeded, so the outcome matrix is deterministic and exactly gated:
    zero silent corruptions with resilience on, a fixed number of
    detections/recoveries, and at least one silent corruption with
    resilience off (proving the schedule has teeth).
    """
    from repro.resilience.campaign import run_default_campaign

    t0 = time.perf_counter()
    armed = run_default_campaign(seed=0, resilient=True, vls=tuple(vls))
    exposed = run_default_campaign(seed=0, resilient=False, vls=tuple(vls))
    wall = time.perf_counter() - t0
    rec = BenchRecord(name="campaign", wall_seconds=wall)
    counts = armed.counts()
    rec.metric("silent_corruptions_armed",
               int(armed.silent_corruptions), "exact")
    rec.metric("recovered_armed", int(counts["recovered"]), "exact")
    rec.metric("detected_armed", int(counts["detected"]), "exact")
    rec.metric("cells", int(len(armed.cells)), "exact")
    rec.metric("silent_corruptions_exposed",
               int(exposed.silent_corruptions), "min")
    rec.info.update({"vls": list(vls),
                     "armed_counts": counts,
                     "exposed_counts": exposed.counts()})
    return rec


def bench_supervisor(dims=(4, 4, 4, 4), tol: float = 1e-8,
                     max_iter: int = 200) -> BenchRecord:
    """The supervised-solve envelope: pass-through and kill/resume.

    Two cells.  No-fault: ``supervised_solve`` must converge in one
    attempt on rung zero with a result bit-identical to the direct
    ``solve_fermion`` call (exact-gated; the wall-time ratio is info —
    ``bench_supervisor_overhead.py`` gates it properly with
    interleaved minima).  Kill/resume: a ``KillAtIteration`` crash
    against a durable checkpoint store must resume from a saved
    iterate, and the post-crash attempt must need strictly fewer
    iterations than the cold solve (exact-gated booleans — the whole
    point of durability is never starting over).
    """
    import tempfile

    from repro.engine.solve import solve_fermion
    from repro.resilience.checkpoint import CheckpointStore
    from repro.resilience.inject import FaultCampaign, KillAtIteration
    from repro.resilience.supervisor import supervised_solve

    be = get_backend("generic256")
    grid = GridCartesian(list(dims), be)
    w = WilsonDirac(random_gauge(grid, seed=11), mass=0.1)
    b = random_spinor(grid, seed=5)
    kw = {"method": "cg", "ft": True, "tol": tol, "max_iter": max_iter}

    t0 = time.perf_counter()
    ref = solve_fermion(w, b, **kw)
    t_direct = time.perf_counter() - t0
    t0 = time.perf_counter()
    sup = supervised_solve(w, b, **kw)
    t_sup = time.perf_counter() - t0

    kill_at = max(2, int(ref.iterations * 0.6))
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        campaign = FaultCampaign(seed=0, name="bench-supervisor")
        kill = KillAtIteration(campaign, kill_at)
        resumed = supervised_solve(
            w, b, store=CheckpointStore(tmp), recompute_interval=3,
            campaign=campaign,
            on_checkpoint=lambda it, x, r: kill.check(it), **kw)
    t_resume = time.perf_counter() - t0

    rec = BenchRecord(name="supervisor",
                      wall_seconds=t_direct + t_sup + t_resume)
    rec.metric("bit_identical",
               bool(np.array_equal(ref.x.data, sup.result.x.data)),
               "exact")
    rec.metric("attempts_no_fault", int(len(sup.attempts)), "exact")
    rec.metric("resume_recovered", bool(resumed.converged), "exact")
    rec.metric("resumed_from_checkpoint",
               bool(resumed.attempts[-1].resumed_from is not None),
               "exact")
    rec.metric("resume_beats_cold_restart",
               bool(resumed.attempts[-1].iterations < ref.iterations),
               "exact")
    rec.metric("envelope_wall_ratio",
               round(t_sup / t_direct, 3), "info")
    rec.info.update({
        "dims": list(dims), "tol": tol,
        "cold_iterations": int(ref.iterations),
        "kill_at": kill_at,
        "resumed_from": resumed.attempts[-1].resumed_from,
        "resume_attempt_iterations": int(resumed.attempts[-1].iterations),
        "attempt_outcomes": [a.outcome for a in resumed.attempts],
        "wall_direct": t_direct, "wall_supervised": t_sup,
    })
    return rec


def bench_scenarios(seed: int = 0, max_cells: int = 12) -> BenchRecord:
    """A pinned slice of the scenario matrix (DESIGN §13).

    Runs the first ``max_cells`` fault-free and disk-fault cells of
    the seed-0 pairwise sample — the deterministic core of the CI
    ``scenario-matrix`` job — and gates on the machine-independent
    quantities: cell/outcome counts (exact: the sample is a pure
    function of (spec, seed)) and zero silent corruptions.  The
    memory/comms fault cells are excluded here on purpose: their
    outcome texture is the full matrix job's concern; this bench pins
    the bit-identity core and tracks its wall cost.
    """
    from repro.scenarios.defaults import default_spec
    from repro.scenarios.runner import run_cases
    from repro.scenarios.sampler import filter_cases, pairwise_sample

    spec = default_spec()
    cases = filter_cases(pairwise_sample(spec, seed=seed),
                         "!fault=memory,!fault=comms")[:max_cells]
    t0 = time.perf_counter()
    matrix = run_cases(spec, cases, mode="bench", seed=seed)
    wall = time.perf_counter() - t0
    counts = matrix.counts()
    hashed = sum(1 for c in matrix.cells.values() if c.hash)
    rec = BenchRecord(name="scenarios", wall_seconds=wall)
    rec.metric("cells", len(matrix.cells), "exact")
    rec.metric("executed", matrix.executed, "exact")
    rec.metric("outcome_pass", counts["pass"], "exact")
    rec.metric("outcome_recovered", counts["recovered"], "exact")
    rec.metric("silent_corruptions", counts["fail"], "exact")
    rec.metric("bit_identity_hashed", hashed, "exact")
    rec.info.update({"seed": seed, "max_cells": max_cells,
                     "counts": counts,
                     "seconds_per_cell": round(
                         wall / max(1, matrix.executed), 4)})
    return rec


def bench_trace_cache(vls: Sequence[int] = (256, 512), n: int = 257,
                      hot_reps: int = 5) -> BenchRecord:
    """Kernel trace caching: cold compile+decode vs hot replay.

    Runs a pinned kernel set across VLs cold (every (kernel, VL) a
    miss), then replays hot; gates on hit rates, retired-instruction
    counts (machine-independent) and hot/cold output identity.
    """
    kernels = [
        (ir.mult_real_kernel(), False),
        (ir.mult_cplx_kernel(), False),
        (ir.mult_cplx_kernel(), True),
        (ir.axpy_kernel(0.5 - 0.25j), False),
    ]
    rng = np.random.default_rng(42)

    def args_for(kernel):
        out = []
        for _ in kernel.inputs:
            a = rng.normal(size=n)
            if kernel.is_complex:
                a = a + 1j * rng.normal(size=n)
            out.append(a)
        return out

    arrays = [args_for(k) for k, _ in kernels]
    clear_cache()
    reset_counters()
    hot_vl = vls[0]
    with perf.configured(enabled=True):
        # Cold: every (kernel, VL) lowers, assembles and decodes.
        cold_outs, retired = {}, 0
        t0 = time.perf_counter()
        for i, ((kernel, cisa), arrs) in enumerate(zip(kernels, arrays)):
            for vl in vls:
                res = cached_run_kernel(kernel, arrs, vl, complex_isa=cisa)
                cold_outs[(i, vl)] = res.output
                retired += res.retired
        t_cold = time.perf_counter() - t0
        n_cold = len(kernels) * len(vls)
        # Hot: replay at one VL — after the first (invalidating) pass
        # every run reuses the resolved trace.
        hot_times, hot_outs = [], {}
        for _ in range(hot_reps):
            t0 = time.perf_counter()
            for i, ((kernel, cisa), arrs) in enumerate(zip(kernels,
                                                           arrays)):
                res = cached_run_kernel(kernel, arrs, hot_vl,
                                        complex_isa=cisa)
                hot_outs[(i, hot_vl)] = res.output
            hot_times.append(time.perf_counter() - t0)
        t_hot = sorted(hot_times)[len(hot_times) // 2]
    # Uncached reference: the identical hot sweep through the
    # pre-engine pipeline (vectorize + assemble + decode every call).
    with perf.disabled():
        uncached_times = []
        for _ in range(hot_reps):
            t0 = time.perf_counter()
            for (kernel, cisa), arrs in zip(kernels, arrays):
                cached_run_kernel(kernel, arrs, hot_vl, complex_isa=cisa)
            uncached_times.append(time.perf_counter() - t0)
        t_uncached = sorted(uncached_times)[len(uncached_times) // 2]
    c = counters()
    identical = all(np.array_equal(cold_outs[key], out)
                    for key, out in hot_outs.items())
    rec = BenchRecord(name="trace_cache", wall_seconds=t_cold + sum(hot_times))
    rec.metric("hot_cold_identical", bool(identical), "exact")
    rec.metric("retired_cold_sweep", int(retired), "max")
    rec.metric("trace_hit_rate", round(c.trace_hit_rate(), 4), "min")
    rec.metric("program_hit_rate", round(c.program_hit_rate(), 4), "min")
    rec.metric("trace_invalidations", int(c.trace_invalidations), "max")
    rec.metric("speedup_hot_replay", round(t_uncached / t_hot, 3), "min")
    rec.info.update({"vls": list(vls), "hot_vl": hot_vl, "n": n,
                     "hot_reps": hot_reps, "cold_runs": n_cold,
                     "cache_sizes": trace_cache().sizes(),
                     "wall_cold": t_cold, "wall_hot_median": t_hot,
                     "wall_uncached_median": t_uncached})
    return rec


# ======================================================================
# Suite driver + report I/O + comparison
# ======================================================================

def run_benches(benches: Sequence[Callable[[], BenchRecord]],
                span_sink: Optional[list] = None) -> dict:
    """Run ``benches`` in order; their report entries, by name.

    Every benchmark starts from a clean slate: perf counters, live
    comms stats and any in-flight async halos are reset between
    entries so one bench's traffic can never leak into the next
    record's.  Each entry's ``counters`` are the tallies of its own
    bench, read before the next reset.  Because that per-bench
    ``reset_all()`` also clears the telemetry trace buffer, a caller
    recording spans passes ``span_sink`` (a list): each bench's spans
    are drained into it *before* the next reset, so an instrumented
    suite run keeps its full trace (``benchmarks/bench_regression.py
    --telemetry`` uses this to write the JSONL/Chrome artifacts).
    """
    from repro.engine.reset import reset_all

    from repro.telemetry import drain_spans

    entries = {}
    for bench in benches:
        # One clean slate per bench: counters, comms state, sticky
        # degradations and every cache (trace, kernel-plan, cshift,
        # dist halo memos) via the engine's composed reset.
        reset_all()
        r = bench()
        entries[r.name] = {
            "wall_seconds": round(r.wall_seconds, 6),
            "metrics": {k: {"value": m.value, "gate": m.gate}
                        for k, m in r.metrics.items()},
            "info": _jsonable(r.info),
            "counters": counters().as_dict(),
        }
        if span_sink is not None:
            # Rescue this bench's spans before the next reset_all()
            # clears the trace buffer.
            span_sink.extend(drain_spans())
    return entries


def run_suite(full: bool = False, workers: int = 4,
              vls: Optional[Sequence[int]] = None,
              span_sink: Optional[list] = None) -> dict:
    """Run the pinned suite (:func:`run_benches`); returns the report
    as a plain dict.

    ``full`` widens the campaign/trace-cache VL sweeps and the dslash
    lattice (the nightly configuration); the default is the quick CI
    gate.  ``vls`` overrides the campaign VL set.
    """
    campaign_vls = tuple(vls) if vls else ((256, 1024) if full else (256,))
    cache_vls = (128, 256, 512) if full else (256, 512)
    dims = (8, 8, 8, 8)
    reps = 25 if full else 15
    benches = [
        lambda: bench_dslash(dims=dims, workers=workers, reps=reps),
        lambda: bench_cg(workers=workers),
        bench_halo,
        bench_halo_messages,
        bench_transport,
        lambda: bench_campaign(vls=campaign_vls),
        bench_supervisor,
        lambda: bench_trace_cache(vls=cache_vls),
        bench_scenarios,
    ]
    return {
        "schema": SCHEMA_VERSION,
        "suite": "full" if full else "quick",
        "workers": workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "benchmarks": run_benches(benches, span_sink),
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def compare_reports(current: dict, baseline: dict,
                    tolerance: float = 0.25) -> list:
    """Gate ``current`` against ``baseline``; returns failure strings.

    Only metrics present in the baseline are gated (new metrics in
    ``current`` ride along ungated until the baseline is refreshed);
    a benchmark or metric missing from ``current`` is itself a
    failure.  Wall times are never gated.
    """
    failures = []
    for bname, bench in baseline.get("benchmarks", {}).items():
        cur_bench = current.get("benchmarks", {}).get(bname)
        if cur_bench is None:
            failures.append(f"{bname}: benchmark missing from current run")
            continue
        for mname, spec in bench.get("metrics", {}).items():
            gate = spec.get("gate", "info")
            if gate == "info":
                continue
            cur_spec = cur_bench.get("metrics", {}).get(mname)
            if cur_spec is None:
                failures.append(f"{bname}.{mname}: metric missing")
                continue
            base, cur = spec["value"], cur_spec["value"]
            if gate == "exact":
                if cur != base:
                    failures.append(
                        f"{bname}.{mname}: {cur!r} != baseline {base!r}")
            elif gate == "min":
                floor = base * (1.0 - tolerance)
                if cur < floor:
                    failures.append(
                        f"{bname}.{mname}: {cur} < {floor:.4g} "
                        f"(baseline {base}, tolerance {tolerance:.0%})")
            elif gate == "max":
                ceil = base * (1.0 + tolerance)
                if cur > ceil:
                    failures.append(
                        f"{bname}.{mname}: {cur} > {ceil:.4g} "
                        f"(baseline {base}, tolerance {tolerance:.0%})")
    return failures


def format_report(report: dict) -> str:
    """Human-readable summary table of a report."""
    lines = [f"# bench suite: {report.get('suite')} "
             f"(workers={report.get('workers')}, "
             f"python {report.get('python')}, numpy {report.get('numpy')})"]
    for bname, bench in report.get("benchmarks", {}).items():
        lines.append(f"\n{bname}  [{bench['wall_seconds'] * 1e3:.1f} ms]")
        for mname, spec in bench.get("metrics", {}).items():
            lines.append(f"  {mname:<28} {spec['value']!r:>12}  "
                         f"({spec['gate']})")
    return "\n".join(lines)
