"""Fault-tolerant Krylov solvers.

Long solves on faulty hardware fail in three ways the plain solvers in
:mod:`repro.grid.solver` cannot survive:

* **poisoned arithmetic** — an SDC turns an iterate into NaN/Inf and
  every later iteration is garbage;
* **numeric breakdown** — a zero rho or denominator (possibly itself
  fault-induced) divides the recursion by zero;
* **silent drift** — the *recursive* residual keeps shrinking while
  the *true* residual ``b - A x`` stalls, so the solver reports
  convergence on a wrong answer.

The FT variants wrap the same recursions with (1) NaN/Inf guards on
every scalar, (2) breakdown detection, (3) a periodic true-residual
recomputation that catches drift, and (4) restart from the last
verified-good iterate, bounded by ``max_restarts``.

On a fault-free run the guards never trigger and the iterates are
**bit-identical** to the plain solvers (the extra true-residual
evaluations read but never feed back into the recursion), so enabling
fault tolerance costs only the verification applications of the
operator — there is no behavioural drift on the pristine path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.grid.lattice import Lattice
from repro.grid.mixedprec import MixedPrecisionResult, defect_correction
from repro.grid.solver import SolverResult
from repro.telemetry import metrics as _telemetry_metrics
from repro.telemetry import trace as _telemetry
from repro.telemetry.reports import traced_solver


@dataclass
class FTSolverResult(SolverResult):
    """A :class:`SolverResult` plus the fault-handling ledger."""

    restarts: int = 0
    detected_events: list = field(default_factory=list)
    true_residual_checks: int = 0


def _record(campaign, events: list, what: str, recovered: bool) -> None:
    events.append(what)
    if campaign is not None:
        campaign.record_detected(what)
        if recovered:
            campaign.record_recovered(what)
    # Telemetry observes the ledger entry (every FT restart/rollback
    # goes through here); it feeds nothing back into the recursion.
    if _telemetry.metrics_on():
        _telemetry_metrics.registry().counter("ft.restarts").inc()
        _telemetry.event("ft.restart", what=what, recovered=recovered)


@traced_solver("cg-ft")
def ft_conjugate_gradient(
    op: Callable[[Lattice], Lattice],
    b: Lattice,
    x0: Lattice = None,
    tol: float = 1e-8,
    max_iter: int = 1000,
    recompute_interval: int = 25,
    max_restarts: int = 3,
    drift_factor: float = 100.0,
    campaign=None,
    good_hook: Callable = None,
) -> FTSolverResult:
    """CG with NaN guards, drift detection and checkpoint restart.

    Every ``recompute_interval`` iterations (and before accepting
    convergence) the true residual ``b - A x`` is recomputed.  If it is
    non-finite, or exceeds ``drift_factor`` times the recursive
    residual, the state is declared corrupted and the solve restarts
    from the last iterate that passed a true-residual check.

    ``good_hook(it, x, true_rel)``, if given, fires at exactly the
    verified-good points — right after a true-residual check promotes
    the iterate to ``good_x`` — which is where the supervisor persists
    durable checkpoints: anything it captures there is state the
    in-memory restart machinery itself would trust.  The hook observes
    (it must not mutate ``x``) and feeds nothing back, so the iterates
    are bit-identical with or without it; exceptions it raises (e.g. a
    simulated crash) propagate to the caller.
    """
    x = b.new_like() if x0 is None else x0.copy()
    r = b - op(x) if x0 is not None else b.copy()
    p = r.copy()
    rr = r.norm2()
    bnorm = b.norm2() ** 0.5
    if bnorm == 0.0:
        return FTSolverResult(x=b.new_like(), converged=True, iterations=0,
                              residual=0.0)
    history = [rr ** 0.5 / bnorm]
    good_x = x.copy()
    events: list = []
    restarts = 0
    checks = 0

    def restart(reason: str):
        nonlocal x, r, p, rr, restarts
        restarts += 1
        recovered = restarts <= max_restarts
        _record(campaign, events, reason, recovered)
        if not recovered:
            return False
        x = good_x.copy()
        r = b - op(x)
        p = r.copy()
        rr = r.norm2()
        return math.isfinite(rr)

    it = 0
    while it < max_iter:
        it += 1
        ap = op(p)
        denom = p.inner_product(ap).real
        if not math.isfinite(denom) or denom == 0.0:
            if restart(f"cg: denominator hazard at iter {it} "
                       f"({denom!r})"):
                continue
            return FTSolverResult(
                x=good_x, converged=False, iterations=it,
                residual=history[-1], residual_history=history,
                breakdown=f"cg: unrecoverable denominator ({denom!r})",
                restarts=restarts, detected_events=events,
                true_residual_checks=checks)
        alpha = rr / denom
        x_new = x + p * alpha
        r_new = r - ap * alpha
        rr_new = r_new.norm2()
        if not math.isfinite(rr_new):
            if restart(f"cg: non-finite residual at iter {it}"):
                continue
            return FTSolverResult(
                x=good_x, converged=False, iterations=it,
                residual=history[-1], residual_history=history,
                breakdown="cg: unrecoverable non-finite residual",
                restarts=restarts, detected_events=events,
                true_residual_checks=checks)
        x, r = x_new, r_new
        rel = rr_new ** 0.5 / bnorm
        history.append(rel)
        periodic = recompute_interval and it % recompute_interval == 0
        if rel <= tol or periodic:
            true_rel = (b - op(x)).norm2() ** 0.5 / bnorm
            checks += 1
            drifted = (not math.isfinite(true_rel)
                       or true_rel > drift_factor * max(rel, tol))
            if drifted:
                if restart(f"cg: silent drift at iter {it} "
                           f"(true {true_rel:.3e} vs recursive "
                           f"{rel:.3e})"):
                    continue
                return FTSolverResult(
                    x=good_x, converged=False, iterations=it,
                    residual=true_rel, residual_history=history,
                    breakdown="cg: unrecoverable silent drift",
                    restarts=restarts, detected_events=events,
                    true_residual_checks=checks)
            good_x = x.copy()
            if good_hook is not None:
                good_hook(it, x, true_rel)
            if rel <= tol:
                return FTSolverResult(
                    x=x, converged=True, iterations=it, residual=true_rel,
                    residual_history=history, restarts=restarts,
                    detected_events=events, true_residual_checks=checks)
        beta = rr_new / rr
        p = r + p * beta
        rr = rr_new
    return FTSolverResult(x=x, converged=False, iterations=max_iter,
                          residual=history[-1], residual_history=history,
                          restarts=restarts, detected_events=events,
                          true_residual_checks=checks)


@traced_solver("bicgstab-ft")
def ft_bicgstab(
    op: Callable[[Lattice], Lattice],
    b: Lattice,
    x0: Lattice = None,
    tol: float = 1e-8,
    max_iter: int = 1000,
    recompute_interval: int = 25,
    max_restarts: int = 3,
    drift_factor: float = 100.0,
    campaign=None,
) -> FTSolverResult:
    """BiCGSTAB with breakdown recovery.

    A rho/omega/denominator breakdown or a non-finite residual
    restarts the recursion (fresh shadow residual ``r0 = r``) from the
    last verified-good iterate — the classic restarted-BiCGSTAB cure
    for its notoriously fragile recursion.
    """
    x = b.new_like() if x0 is None else x0.copy()
    r = b - op(x) if x0 is not None else b.copy()
    bnorm = b.norm2() ** 0.5
    if bnorm == 0.0:
        return FTSolverResult(x=b.new_like(), converged=True, iterations=0,
                              residual=0.0)
    r0 = r.copy()
    rho = alpha = omega = 1.0 + 0j
    v = b.new_like()
    p = b.new_like()
    history = [r.norm2() ** 0.5 / bnorm]
    good_x = x.copy()
    events: list = []
    restarts = 0
    checks = 0

    def restart(reason: str) -> bool:
        nonlocal x, r, r0, rho, alpha, omega, v, p, restarts
        restarts += 1
        recovered = restarts <= max_restarts
        _record(campaign, events, reason, recovered)
        if not recovered:
            return False
        x = good_x.copy()
        r = b - op(x)
        r0 = r.copy()
        rho = alpha = omega = 1.0 + 0j
        v = b.new_like()
        p = b.new_like()
        return math.isfinite(r.norm2())

    def bail(reason: str, it: int) -> FTSolverResult:
        return FTSolverResult(
            x=good_x, converged=False, iterations=it,
            residual=history[-1], residual_history=history,
            breakdown=reason, restarts=restarts,
            detected_events=events, true_residual_checks=checks)

    it = 0
    while it < max_iter:
        it += 1
        rho_new = r0.inner_product(r)
        if not math.isfinite(abs(rho_new)) or rho_new == 0:
            if restart(f"bicgstab: rho breakdown at iter {it}"):
                continue
            return bail("bicgstab: unrecoverable rho breakdown", it)
        beta = (rho_new / rho) * (alpha / omega)
        p = r + (p - v * omega) * beta
        v = op(p)
        r0v = r0.inner_product(v)
        if not math.isfinite(abs(r0v)) or r0v == 0:
            if restart(f"bicgstab: (r0,v) breakdown at iter {it}"):
                continue
            return bail("bicgstab: unrecoverable (r0,v) breakdown", it)
        alpha = rho_new / r0v
        s = r - v * alpha
        s_rel = s.norm2() ** 0.5 / bnorm
        if not math.isfinite(s_rel):
            if restart(f"bicgstab: non-finite s at iter {it}"):
                continue
            return bail("bicgstab: unrecoverable non-finite residual", it)
        if s_rel <= tol:
            x = x + p * alpha
            true_rel = (b - op(x)).norm2() ** 0.5 / bnorm
            checks += 1
            if math.isfinite(true_rel) and \
                    true_rel <= drift_factor * max(s_rel, tol):
                history.append(s_rel)
                return FTSolverResult(
                    x=x, converged=True, iterations=it, residual=true_rel,
                    residual_history=history, restarts=restarts,
                    detected_events=events, true_residual_checks=checks)
            if restart(f"bicgstab: drift at early exit iter {it}"):
                continue
            return bail("bicgstab: unrecoverable drift", it)
        t = op(s)
        tt = t.inner_product(t)
        if not math.isfinite(abs(tt)) or tt == 0:
            if restart(f"bicgstab: (t,t) breakdown at iter {it}"):
                continue
            return bail("bicgstab: unrecoverable (t,t) breakdown", it)
        omega = t.inner_product(s) / tt
        x = x + p * alpha + s * omega
        r = s - t * omega
        rel = r.norm2() ** 0.5 / bnorm
        if not math.isfinite(rel):
            if restart(f"bicgstab: non-finite residual at iter {it}"):
                continue
            return bail("bicgstab: unrecoverable non-finite residual", it)
        history.append(rel)
        periodic = recompute_interval and it % recompute_interval == 0
        if rel <= tol or periodic:
            true_rel = (b - op(x)).norm2() ** 0.5 / bnorm
            checks += 1
            drifted = (not math.isfinite(true_rel)
                       or true_rel > drift_factor * max(rel, tol))
            if drifted:
                if restart(f"bicgstab: silent drift at iter {it}"):
                    continue
                return bail("bicgstab: unrecoverable silent drift", it)
            good_x = x.copy()
            if rel <= tol:
                return FTSolverResult(
                    x=x, converged=True, iterations=it, residual=true_rel,
                    residual_history=history, restarts=restarts,
                    detected_events=events, true_residual_checks=checks)
        rho = rho_new
    return FTSolverResult(x=x, converged=False, iterations=max_iter,
                          residual=history[-1], residual_history=history,
                          restarts=restarts, detected_events=events,
                          true_residual_checks=checks)


def ft_solve_wilson_cgne(dirac, b: Lattice, tol: float = 1e-8,
                         max_iter: int = 1000, campaign=None,
                         **ft_kwargs) -> FTSolverResult:
    """Solve ``M x = b`` via fault-tolerant CG on the normal equations.

    Delegates to the unified solver entry
    (:func:`repro.engine.solve_fermion` with ``ft=True``),
    bit-identically.
    """
    from repro.engine.solve import solve_fermion

    return solve_fermion(dirac, b, method="cg", ft=True, tol=tol,
                         max_iter=max_iter, campaign=campaign,
                         **ft_kwargs)


@traced_solver("mixed-ft")
def ft_mixed_precision_cgne(
    dirac,
    b: Lattice,
    tol: float = 1e-10,
    inner_tol: float = 1e-5,
    max_outer: int = 20,
    max_inner: int = 500,
    max_restarts: int = 3,
    campaign=None,
    max_iter: int | None = None,
) -> MixedPrecisionResult:
    """Mixed-precision solve whose outer loop survives inner faults.

    The double-precision defect correction of
    :func:`repro.grid.mixedprec.mixed_precision_cgne` (the same loop,
    the same single-precision twin and inner method), with two guards:
    the float32 inner solves run :func:`ft_bicgstab` and
    :func:`ft_conjugate_gradient`, and an outer update whose true
    residual comes back non-finite or *worse* than before is discarded
    (the iterate rolls back) instead of poisoning the solve.  On a
    fault-free run both FT recursions are bit-identical to the plain
    ones, so the solve is too.
    """
    events: list = []
    restarts = 0

    def screen(outer, rel, last):
        nonlocal restarts
        if math.isfinite(rel) and rel <= 2.0 * last:
            return "keep"
        # Corrupted correction: discard, count, retry or give up.
        restarts += 1
        _record(campaign, events,
                f"mixed-precision: corrupted outer update {outer} "
                f"(rel {rel!r})", restarts <= max_restarts)
        return "retry" if restarts <= max_restarts else "stop"

    return defect_correction(
        dirac, b, tol, inner_tol, max_outer, max_inner, max_iter,
        inner_solve=(partial(ft_bicgstab, campaign=campaign),
                     partial(ft_conjugate_gradient, campaign=campaign)),
        screen=screen)
