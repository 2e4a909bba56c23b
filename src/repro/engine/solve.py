"""One solver entry parameterized by operator + method + policy.

:func:`solve_fermion` is the one Wilson-system entry: it prepares the
right-hand side, dispatches to a recursion and reports the true
residual, for

* an **operator** satisfying the :class:`~repro.engine.operators.
  FermionOperator` protocol (``apply`` / ``apply_dagger`` /
  ``mdag_m``),
* a **method** (``"cg"`` = CGNE on the normal equations,
  ``"bicgstab"``, ``"mr"``, ``"mixed"``),
* ``ft=True`` for a fault-tolerant solve: ``campaign`` and the
  :class:`~repro.resilience.guard.FaultGuard` settings among the
  keyword arguments (``recompute_interval``, ``max_restarts``,
  ``drift_factor``, ``good_hook``) make the guard the recursion is
  given, and
* an optional **policy** scoped around the whole solve.

The recursions live in :mod:`repro.grid.solver` and
:mod:`repro.grid.mixedprec`, each written once; fault tolerance is the
guard they consult, not a second copy.  They are numerically pinned
and this module must not perturb them: its RHS preparation and
true-residual report reproduce the wrappers it replaced expression for
expression, so results stay bit-identical.

All grid/resilience imports are function-level: the grid layer
imports the engine, not vice versa.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.engine.policy import ExecutionPolicy, scope
from repro.telemetry import metrics as _telemetry_metrics
from repro.telemetry import reports as _telemetry_reports
from repro.telemetry import trace as _telemetry

#: Legal ``method`` values.
METHODS = ("cg", "bicgstab", "mr", "mixed")


def _true_residual_single(operator, b, result):
    """The legacy single-RHS true-residual report (bit-exact: no guard
    on ``|b|`` — the zero-RHS case never reaches here)."""
    result.residual = (
        (b - operator.apply(result.x)).norm2() ** 0.5 / b.norm2() ** 0.5
    )
    return result


def _guard(ft: bool, campaign, kwargs: dict):
    """The fault guard of an ``ft`` solve (``None`` otherwise), built
    from ``campaign`` and the guard settings taken out of ``kwargs``."""
    if not ft:
        return None
    from dataclasses import fields

    from repro.resilience.guard import FaultGuard

    return FaultGuard(campaign=campaign, **{
        f.name: kwargs.pop(f.name) for f in fields(FaultGuard)
        if f.name in kwargs})


def _dispatch(operator, b, method, guard, tol, max_iter, kwargs):
    """Run ``method``'s recursion on ``M x = b``.  CG solves the normal
    equations; ``max_iter`` bounds a mixed solve's single-precision
    inner iterations summed over the outer steps (each inner solve is
    also capped by ``max_inner`` in ``kwargs``)."""
    from repro.grid import solver

    if method == "cg":
        result = solver.conjugate_gradient(
            operator.mdag_m, operator.apply_dagger(b), tol=tol,
            max_iter=max_iter, guard=guard, **kwargs)
        return _true_residual_single(operator, b, result)
    if method == "mixed":
        from repro.grid.mixedprec import mixed_precision_cgne

        return mixed_precision_cgne(operator, b, tol=tol,
                                    max_iter=max_iter, guard=guard,
                                    **kwargs)
    if method == "bicgstab":
        return solver.bicgstab(operator.apply, b, tol=tol,
                               max_iter=max_iter, guard=guard, **kwargs)
    if guard is not None:
        raise ValueError("no fault-tolerant minimal-residual variant")
    return solver.minimal_residual(operator.apply, b, tol=tol,
                                   max_iter=max_iter, **kwargs)


def solve_fermion(operator, b, method: str = "cg", ft: bool = False,
                  tol: float = 1e-8, max_iter: int = 1000,
                  campaign=None, policy: ExecutionPolicy = None,
                  **kwargs):
    """Solve ``M x = b`` for any :class:`~repro.engine.operators.
    FermionOperator`.

    Returns the method family's native result type
    (:class:`~repro.grid.solver.SolverResult`, its FT extension, or
    :class:`~repro.grid.mixedprec.MixedPrecisionResult`) — identical,
    field for field and bit for bit, to the legacy wrapper it
    replaces.  ``policy`` (if given) is scoped around the whole solve.
    With ``ft``, ``campaign`` and the guard settings in ``kwargs`` make
    the recursion's fault guard; other keyword arguments (``x0``,
    ``max_inner``, ...) are forwarded to the recursion.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; known: {METHODS}")

    guard = _guard(ft, campaign, kwargs)

    def dispatch():
        return _dispatch(operator, b, method, guard, tol, max_iter, kwargs)

    ctx = scope(policy) if policy is not None else nullcontext()
    with ctx:
        if not _telemetry.metrics_on():
            return dispatch()
        # Telemetry observes the solve: the span/metric code below runs
        # strictly after the recursion returns and feeds nothing back,
        # so results stay bit-identical at every telemetry level.  The
        # envelope span is named "solve_fermion", not "solve" — the
        # recursion it dispatches to records its own "solve" span
        # (:func:`repro.telemetry.reports.traced_solver`), and the
        # convergence report pulls the operator name from this
        # envelope through the parent link.
        label = f"{method}-ft" if ft else method
        with _telemetry.span("solve_fermion", solver=label,
                             operator=type(operator).__name__,
                             tol=tol) as sp:
            result = dispatch()
            if sp is not None:
                sp.attrs.update(
                    _telemetry_reports.convergence_attrs(result))
        reg = _telemetry_metrics.registry()
        reg.counter("solve.calls").inc()
        reg.counter("solve.iterations").inc(
            int(getattr(result, "iterations", 0) or 0))
        if getattr(result, "restarts", 0):
            reg.counter("solve.restarts").inc(int(result.restarts))
        return result
