"""The unified execution engine.

Every execution decision in the reproduction — which Wilson-Dslash
body runs, how wide the tile pool is, which transport moves halos,
whether caches are consulted, whether backends degrade gracefully —
resolves through this package instead of scattered module globals:

* :mod:`repro.engine.policy` — the immutable, scoped
  :class:`ExecutionPolicy` (``engine.scope(...)`` replaces the legacy
  setters, which remain as deprecation shims);
* :mod:`repro.engine.plan` — per-(grid, kind, policy) resolved
  :class:`KernelPlan` dispatch with per-stage counters;
* :mod:`repro.engine.operators` — the :class:`FermionOperator`
  protocol and the named operator registry;
* :mod:`repro.engine.solve` — one solver entry parameterized by
  operator + method + policy (loaded lazily);
* :mod:`repro.engine.reset` — :func:`reset_all`, the one-call clean
  slate (loaded lazily).

Import layering: this package init may import only modules that do not
import the grid/perf-dispatch layers back (``policy`` imports nothing
from :mod:`repro`; ``plan`` imports leaf modules only; ``operators``
defers its grid imports into factories).  ``solve`` and ``reset``
reach into grid/resilience and are exposed via module ``__getattr__``
so ``import repro.engine`` stays cycle-free.
"""

from __future__ import annotations

from repro.engine.operators import (
    FermionOperator,
    OperatorGeometry,
    get_operator,
    operator_names,
    operator_spec,
    register_operator,
)
from repro.engine.plan import (
    KernelPlan,
    StageCounters,
    clear_plan_caches,
    fused_safe_backend,
    kernel_plan,
    register_plan_host,
)
from repro.engine.policy import (
    ExecutionPolicy,
    base_policy,
    current_policy,
    scope,
    set_base_policy,
    update_base_policy,
)

__all__ = [
    "ExecutionPolicy",
    "FermionOperator",
    "KernelPlan",
    "OperatorGeometry",
    "StageCounters",
    "base_policy",
    "clear_plan_caches",
    "current_policy",
    "fused_safe_backend",
    "get_operator",
    "kernel_plan",
    "operator_names",
    "operator_spec",
    "register_operator",
    "register_plan_host",
    "reset_all",
    "scope",
    "set_base_policy",
    "solve_fermion",
    "update_base_policy",
]

#: Names resolved lazily (their modules import the grid layer).
_LAZY = {
    "reset_all": ("repro.engine.reset", "reset_all"),
    "solve_fermion": ("repro.engine.solve", "solve_fermion"),
    "METHODS": ("repro.engine.solve", "METHODS"),
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(target[0])
    value = getattr(module, target[1])
    globals()[name] = value
    return value
