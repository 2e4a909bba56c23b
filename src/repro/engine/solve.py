"""One solver entry parameterized by operator + method + policy.

Pre-engine, each solver family had its own Wilson-specific wrapper —
``solve_wilson_cgne``, ``ft_solve_wilson_cgne``,
``mixed_precision_cgne``, ``ft_mixed_precision_cgne`` — four entry
points repeating the same prepare-RHS / run-recursion / true-residual
shape.  :func:`solve_fermion` collapses them onto one core
parameterized by

* an **operator** satisfying the :class:`~repro.engine.operators.
  FermionOperator` protocol (``apply`` / ``apply_dagger`` /
  ``mdag_m``),
* a **method** (``"cg"`` = CGNE on the normal equations,
  ``"bicgstab"``, ``"mr"``, ``"mixed"``),
* ``ft=True`` for the fault-tolerant variants (drift detection +
  checkpoint restart; extra keyword arguments such as
  ``recompute_interval`` are forwarded), and
* an optional **policy** scoped around the whole solve.

The Krylov recursions themselves stay in
:mod:`repro.grid.solver` / :mod:`repro.resilience.ft_solver` — they
are numerically pinned (the FT variants are bit-identical to the
plain ones on pristine runs) and this module must not perturb them;
what is unified is the *entry*: RHS preparation, dispatch, and the
true-residual report, each reproduced expression-for-expression from
the wrapper it replaces so results stay bit-identical.

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


def _solve_cg(operator, b, ft, tol, max_iter, campaign, kwargs):
    """CGNE: CG on ``M^dagger M x = M^dagger b``."""
    rhs = operator.apply_dagger(b)
    if ft:
        from repro.resilience.ft_solver import ft_conjugate_gradient

        result = ft_conjugate_gradient(
            operator.mdag_m, rhs, tol=tol, max_iter=max_iter,
            campaign=campaign, **kwargs)
    else:
        from repro.grid.solver import conjugate_gradient

        result = conjugate_gradient(operator.mdag_m, rhs, tol=tol,
                                    max_iter=max_iter, **kwargs)
    return _true_residual_single(operator, b, result)


def _solve_direct(operator, b, method, ft, tol, max_iter, campaign,
                  kwargs):
    """BiCGSTAB / MR on ``M`` directly."""
    if method == "bicgstab":
        if ft:
            from repro.resilience.ft_solver import ft_bicgstab

            return ft_bicgstab(operator.apply, b, tol=tol,
                               max_iter=max_iter, campaign=campaign,
                               **kwargs)
        from repro.grid.solver import bicgstab

        return bicgstab(operator.apply, b, tol=tol, max_iter=max_iter,
                        **kwargs)
    if ft:
        raise ValueError("no fault-tolerant minimal-residual variant")
    from repro.grid.solver import minimal_residual

    return minimal_residual(operator.apply, b, tol=tol, max_iter=max_iter,
                            **kwargs)


def _solve_mixed(operator, b, ft, tol, max_iter, campaign, kwargs):
    """Mixed-precision defect correction: ``max_iter`` bounds the
    single-precision inner iterations summed over the outer steps
    (each inner solve is also capped by ``max_inner`` in ``kwargs``)."""
    if ft:
        from repro.resilience.ft_solver import ft_mixed_precision_cgne

        return ft_mixed_precision_cgne(operator, b, tol=tol,
                                       max_iter=max_iter,
                                       campaign=campaign, **kwargs)
    from repro.grid.mixedprec import mixed_precision_cgne

    return mixed_precision_cgne(operator, b, tol=tol, max_iter=max_iter,
                                **kwargs)


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
    replaces.  ``policy`` (if given) is scoped around the whole solve;
    ``campaign`` and extra keyword arguments are forwarded to the FT
    recursions.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; known: {METHODS}")

    def dispatch():
        if method == "cg":
            return _solve_cg(operator, b, ft, tol, max_iter, campaign,
                             kwargs)
        if method == "mixed":
            return _solve_mixed(operator, b, ft, tol, max_iter, campaign,
                                kwargs)
        return _solve_direct(operator, b, method, ft, tol, max_iter,
                             campaign, kwargs)

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
