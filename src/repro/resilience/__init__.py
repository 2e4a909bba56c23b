"""Resilience layer: fault injection, self-healing comms, FT solvers.

Section V-D of the paper is itself a fault story — ~40 Grid tests run
under an immature toolchain, with VL-dependent predication failures.
Production lattice-QCD runs (Grid at scale) add the system-level fault
classes: silent data corruption in memory, dropped or mangled halo
messages, solver breakdowns.  This package generalizes the V-D
methodology from toolchain bugs to system faults:

* :mod:`repro.resilience.inject` — seeded, deterministic fault
  campaigns: memory/field bit flips (SDC), comms faults
  (drop/corrupt/truncate/duplicate), toolchain predicate defects.
* :mod:`repro.resilience.guard` — the fault guard the Krylov
  recursions of :mod:`repro.grid.solver` consult: NaN/Inf and
  breakdown hazards, periodic true-residual recomputation, restart
  from the last verified-good iterate.
* :mod:`repro.resilience.campaign` — campaign verification: each
  {case x VL x campaign} cell classified {pass, fail, detected,
  recovered}; ``fail`` means *silent corruption*, the outcome the
  layer exists to eliminate.
* :mod:`repro.resilience.checkpoint` — the durable checkpoint store:
  atomic fsync'd writes, CRC-verified loads, quarantine of corrupt
  files, newest-valid-wins resume.
* :mod:`repro.resilience.supervisor` — the supervised solve runtime:
  retry with seeded backoff, watchdogs (deadline / iteration budget /
  stall / divergence), the degradation ladder, checkpoint/resume.
* :mod:`repro.resilience.breaker` — per-subsystem circuit breakers
  (closed / open / half-open) feeding the degradation decisions.

The companion mechanisms live in the layers they protect: checksummed
retrying halo exchange in :mod:`repro.grid.comms`, the numeric
hazards the guard answers in :mod:`repro.grid.solver`, graceful backend degradation in
:mod:`repro.simd.resilient`.
"""

from repro.resilience.breaker import (
    CircuitBreaker,
    all_breakers,
    breaker,
    reset_breakers,
)
from repro.resilience.checkpoint import (
    CheckpointStore,
    checkpoint_key,
)
from repro.resilience.inject import (
    CommsFault,
    CommsFaultInjector,
    FaultCampaign,
    FaultEvent,
    FaultyMemory,
    KillAtIteration,
    SimulatedCrash,
    bit_rot_file,
    flip_field_bit,
    torn_write_file,
    truncate_file,
)
from repro.resilience.supervisor import (
    DEGRADATION_LADDER,
    SuperviseResult,
    supervised_solve,
)
from repro.resilience.guard import (
    FaultGuard,
    FTSolverResult,
)
from repro.resilience.campaign import (
    CAMPAIGN_CASES,
    CHAOS_CASES,
    SilentCorruption,
    default_campaign_factory,
    run_chaos_campaign,
    run_default_campaign,
)

__all__ = [
    "FaultCampaign",
    "FaultEvent",
    "CommsFault",
    "CommsFaultInjector",
    "FaultyMemory",
    "KillAtIteration",
    "SimulatedCrash",
    "flip_field_bit",
    "bit_rot_file",
    "torn_write_file",
    "truncate_file",
    "FaultGuard",
    "FTSolverResult",
    "CheckpointStore",
    "checkpoint_key",
    "CircuitBreaker",
    "breaker",
    "all_breakers",
    "reset_breakers",
    "DEGRADATION_LADDER",
    "SuperviseResult",
    "supervised_solve",
    "CAMPAIGN_CASES",
    "CHAOS_CASES",
    "SilentCorruption",
    "default_campaign_factory",
    "run_default_campaign",
    "run_chaos_campaign",
]
