"""The performance engine.

Three layers, mirroring the paper's performance argument (instruction
economy on the complex hot path) in software:

* :mod:`repro.perf.trace_cache` — kernel program caching: lowered
  and decoded SVE programs are memoized per (kernel, options), and
  each program binds its executor steps once per VL
  (``Program._bound``), so repeated ``run_kernel`` calls skip
  lowering, assembly and decode entirely.
* :mod:`repro.perf.parallel` + :mod:`repro.perf.fused` — tiled lattice
  sweeps: the Wilson-Dslash sweep is split into per-slice tiles over a
  ``concurrent.futures`` pool with a deterministic reduction order,
  and the per-tile body is a fused project/SU(3)/reconstruct path that
  is bit-identical to the layered reference.
* :mod:`repro.perf.counters` — the engine's cache and sweep tallies.

Since the unified execution engine landed, the knobs live in the
scoped :class:`repro.engine.ExecutionPolicy` — this module is a
*compatibility facade* over it:

* :func:`config` returns a read-only :class:`PerfConfig` snapshot of
  the currently resolved policy;
* :func:`configured` / :func:`disabled` are thin wrappers over
  :func:`repro.engine.scope` (scoped, nestable, thread-isolated).

Process-wide changes go through :func:`repro.engine.update_base_policy`.
``perf.disabled()`` still restores the exact pre-engine code paths,
the reference the engine's bit-identity tests compare against.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.engine.policy import (
    ExecutionPolicy,
    current_policy,
    scope as _scope,
)
from repro.perf.counters import PerfCounters, counters, reset_counters

__all__ = [
    "PerfConfig",
    "PerfCounters",
    "config",
    "configured",
    "counters",
    "disabled",
    "reset_counters",
]


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
    frozen — mutate via ``engine.scope(...)`` (scoped) or
    ``engine.update_base_policy(...)`` (process-wide).
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
