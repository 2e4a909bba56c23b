"""The performance engine.

Three layers, mirroring the paper's performance argument (instruction
economy on the complex hot path) in software:

* :mod:`repro.perf.trace_cache` — kernel trace caching: decoded and
  lowered SVE programs are memoized per (kernel, options) and their
  executor traces per (VL, dtype), so repeated ``run_kernel`` calls
  skip assembly, decode and re-lowering entirely.
* :mod:`repro.perf.parallel` + :mod:`repro.perf.fused` — tiled lattice
  sweeps: the Wilson-Dslash sweep is split into per-slice tiles over a
  ``concurrent.futures`` pool with a deterministic reduction order,
  and the per-tile body is a fused project/SU(3)/reconstruct path that
  is bit-identical to the layered reference.
* :mod:`repro.perf.harness` — the benchmark-regression harness CI
  gates on (see ``benchmarks/bench_regression.py``).

Since the unified execution engine landed, the knobs live in the
scoped :class:`repro.engine.ExecutionPolicy` — this module is a
*compatibility facade* over it:

* :func:`config` returns a read-only :class:`PerfConfig` snapshot of
  the currently resolved policy;
* :func:`configured` / :func:`disabled` are thin wrappers over
  :func:`repro.engine.scope` (scoped, nestable, thread-isolated);
* the mutating setters (:func:`set_enabled`, :func:`set_workers`) emit
  :class:`DeprecationWarning` and delegate to
  :func:`repro.engine.update_base_policy`.

``perf.disabled()`` still restores the exact pre-engine code paths
(that is what the harness measures the engine against).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.engine.policy import (
    ExecutionPolicy,
    current_policy,
    scope as _scope,
    update_base_policy,
    warn_deprecated_setter,
)
from repro.perf.counters import PerfCounters, counters, reset_counters

__all__ = [
    "PerfConfig",
    "PerfCounters",
    "config",
    "configured",
    "counters",
    "disabled",
    "get_counters",
    "reset_counters",
    "set_enabled",
    "set_workers",
]


def get_counters() -> PerfCounters:
    """Deprecated: use :func:`counters` (or ``telemetry.snapshot()``
    for the registry view).  Kept as a shim because the counters now
    live in the telemetry registry and this was the historical
    accessor name some downstream scripts used."""
    warn_deprecated_setter("repro.perf.get_counters",
                           "repro.perf.counters")
    return counters()


@dataclass(frozen=True)
class PerfConfig:
    """A read-only snapshot of the engine fields this facade exposes.

    ``enabled`` gates every engine path at once — caches, fusion and
    tiling; with it off, the original (pre-engine) code runs
    unchanged.  ``workers`` is the tile pool width for lattice sweeps
    (1 = serial; by default the CPUs the process may run on).
    ``tile_min_sites`` is the fewest flat sites a tile may get, so
    sweeps too small to gain from the pool run serially.

    This used to be *the* mutable process-global configuration; it is
    now derived per call from :func:`repro.engine.current_policy` and
    frozen — mutate via ``engine.scope(...)`` (scoped) or the
    deprecated setters (process-wide).
    """

    enabled: bool = True
    workers: int = ExecutionPolicy.workers
    tile_min_sites: int = ExecutionPolicy.tile_min_sites


def config() -> PerfConfig:
    """The engine configuration in effect here and now (a snapshot of
    the resolved :class:`repro.engine.ExecutionPolicy`)."""
    policy = current_policy()
    return PerfConfig(
        enabled=policy.enabled,
        workers=policy.workers,
        tile_min_sites=policy.tile_min_sites,
    )


def set_enabled(flag: bool) -> None:
    """Deprecated: use ``engine.scope(enabled=...)`` (scoped) or
    ``engine.update_base_policy(enabled=...)`` (process-wide)."""
    warn_deprecated_setter("repro.perf.set_enabled", "repro.engine.scope(enabled=...)")
    update_base_policy(enabled=bool(flag))


def set_workers(n: int) -> None:
    """Deprecated: use ``engine.scope(workers=...)``."""
    warn_deprecated_setter("repro.perf.set_workers", "repro.engine.scope(workers=...)")
    if n < 1:
        raise ValueError(f"workers must be >= 1, got {n}")
    update_base_policy(workers=int(n))


@contextmanager
def configured(enabled=None, workers=None, tile_min_sites=None):
    """Temporarily override engine settings (restored on exit).

    A thin wrapper over :func:`repro.engine.scope` — nestable and
    thread-isolated, unlike the process-global mutation it performed
    before the engine unification.
    """
    overrides = {}
    if enabled is not None:
        overrides["enabled"] = bool(enabled)
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        overrides["workers"] = int(workers)
    if tile_min_sites is not None:
        overrides["tile_min_sites"] = int(tile_min_sites)
    with _scope(**overrides):
        yield config()


def disabled():
    """The engine-off reference configuration (pre-engine code paths)."""
    return configured(enabled=False, workers=1)
