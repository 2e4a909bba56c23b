"""``engine.reset_all()`` — one clean-slate call for the whole stack.

Before the engine, every campaign runner and test fixture composed the
reset ritual by hand: ``reset_all_comms()`` for live distributed
lattices, ``reset_all_degraded()`` for sticky backend degradations,
``clear_cache()`` for the kernel program cache, ``reset_counters()``
for the perf tallies — four imports, easy to miss one and leak state
into the next run's counts.  :func:`reset_all` composes all of them
(plus the engine's own plan caches) behind one call, which
``run_campaign_suite`` and the test fixtures use.

Imports are function-level: this module is reachable from
``repro.engine`` (which the grid/perf/simd layers import), so it must
not pull those layers in at import time.
"""

from __future__ import annotations


def reset_all(counters: bool = True, caches: bool = True) -> dict:
    """Reset every piece of cross-run engine state; returns a summary.

    * live comms: traffic/resilience stats and in-flight halo queues
      (:func:`repro.grid.comms.reset_all_comms`);
    * sticky backend degradations
      (:func:`repro.simd.resilient.reset_all_degraded`);
    * every registered circuit breaker — a breaker left open by a
      failed supervised solve would otherwise force the *next* run
      down the degradation ladder from its first attempt
      (:func:`repro.resilience.breaker.reset_breakers`);
    * with ``caches`` (default): the kernel program cache
      (:func:`repro.perf.trace_cache.clear_cache`), every grid-hosted
      plan cache (:func:`repro.engine.plan.clear_plan_caches`) and the
      distributed shift/halo memos — cache invalidation never changes
      results, only forces re-derivation;
    * transport runtimes: every live shared-memory rank runtime is
      shut down — workers joined, every ``multiprocessing.
      shared_memory`` segment unlinked — so a reset can never leak an
      orphaned segment (:func:`repro.grid.comms.
      shutdown_transport_runtimes`; lazy — nothing is imported or done
      when the shmem backend was never used);
    * with ``counters`` (default): the process-global perf counters
      (:func:`repro.perf.counters.reset_counters`) and the whole
      telemetry layer — every registry instrument zeroed, the span
      ring buffer cleared, the failure flight recorder emptied and the
      cross-rank merge state (per-rank metrics, tails, round counter)
      dropped (:func:`repro.telemetry.reset`).  Collector-backed comms
      metrics are views over the live lattices, so the comms reset
      above already zeroes them: one ``reset_all()`` call leaves
      ``telemetry.snapshot()`` provably all-zero (the
      reset-completeness test pins this).
    """
    from repro.grid.comms import (
        invalidate_comms_plans,
        reset_all_comms,
        shutdown_transport_runtimes,
    )
    from repro.resilience.breaker import reset_breakers
    from repro.simd.resilient import reset_all_degraded

    transports = shutdown_transport_runtimes()
    summary = {
        "comms_reset": reset_all_comms(),
        "backends_restored": reset_all_degraded(),
        "breakers_tripped": reset_breakers(),
        "transport_runtimes_closed": transports["runtimes"],
        "transport_segments_released": transports["segments"],
        "plan_hosts_cleared": 0,
        "comms_plans_cleared": 0,
        "trace_cache_cleared": False,
        "counters_reset": False,
        "telemetry_metrics_reset": 0,
        "telemetry_spans_cleared": 0,
        "telemetry_flightrec_cleared": 0,
        "telemetry_rank_state_cleared": 0,
    }
    if caches:
        from repro.engine.plan import clear_plan_caches
        from repro.perf.trace_cache import clear_cache

        clear_cache()
        summary["plan_hosts_cleared"] = clear_plan_caches()
        summary["comms_plans_cleared"] = invalidate_comms_plans()
        summary["trace_cache_cleared"] = True
    if counters:
        import repro.telemetry as telemetry
        from repro.perf.counters import reset_counters

        reset_counters()
        tel = telemetry.reset()
        summary["counters_reset"] = True
        summary["telemetry_metrics_reset"] = tel["metrics_reset"]
        summary["telemetry_spans_cleared"] = tel["spans_cleared"]
        summary["telemetry_flightrec_cleared"] = tel["flightrec_cleared"]
        summary["telemetry_rank_state_cleared"] = \
            tel["rank_state_cleared"]
    return summary
