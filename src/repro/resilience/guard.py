"""Fault tolerance as a guard the Krylov recursions consult.

Long solves on faulty hardware meet poisoned arithmetic (an SDC turns
an iterate into NaN/Inf), numeric breakdown (a zero rho or
denominator) and silent drift (the recursive residual shrinks while the
true residual ``b - A x`` stalls).  A :class:`FaultGuard` given to
:func:`~repro.grid.solver.conjugate_gradient` or
:func:`~repro.grid.solver.bicgstab` survives all three through the
:class:`Ledger` the recursion keeps and consults; on a fault-free run
the iterates are bit-identical to the unguarded run's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.grid.solver import SolverResult
from repro.telemetry import metrics as _telemetry_metrics
from repro.telemetry import trace as _telemetry


@dataclass
class FTSolverResult(SolverResult):
    """A :class:`SolverResult` plus the fault-handling ledger."""

    restarts: int = 0
    detected_events: list = field(default_factory=list)
    true_residual_checks: int = 0


@dataclass(frozen=True)
class FaultGuard:
    """The settings of a fault-tolerant solve.

    The true residual is recomputed every ``recompute_interval``
    iterations and before accepting convergence; a non-finite one, or
    one above ``drift_factor`` times the recursive residual, is drift.
    A hazard restarts the recursion from the last verified iterate, at
    most ``max_restarts`` times per solve; ``campaign`` records each
    detection and recovery.  ``good_hook(it, x, true_rel)`` observes
    each verified iterate (the supervisor's checkpoint seam); what it
    raises propagates.
    """

    recompute_interval: int = 25
    max_restarts: int = 3
    drift_factor: float = 100.0
    campaign: object = None
    good_hook: Callable = None

    def ledger(self, op=None, b=None, bnorm: float = 1.0,
               x=None) -> "Ledger":
        """The ledger of one guarded solve of ``op x = b`` from ``x``."""
        return Ledger(self, op, b, bnorm, x)

    def inner(self) -> "FaultGuard":
        """The guard of a mixed-precision solve's inner solves: no
        ``good_hook``, since their iterates are corrections on the
        single-precision twin, not solutions to checkpoint."""
        return replace(self, good_hook=None)

    def screen(self) -> Callable:
        """A fresh judge of :func:`~repro.grid.mixedprec.
        defect_correction`'s outer updates: keep one whose true
        residual is finite and at most twice the last; discard any
        other and retry, or stop once ``max_restarts`` is spent."""
        ledger = self.ledger()

        def judge(outer, rel, last):
            if math.isfinite(rel) and rel <= 2.0 * last:
                return "keep"
            return "retry" if ledger.recover(
                f"mixed-precision: corrupted outer update {outer} "
                f"(rel {rel!r})") else "stop"
        return judge


class Ledger:
    """One guarded solve: the last verified iterate ``good_x``, the
    restarts, the detected events and the true-residual checks."""

    def __init__(self, guard: FaultGuard, op, b, bnorm: float, x):
        self.guard, self.op, self.b, self.bnorm = guard, op, b, bnorm
        self.good_x = None if x is None else x.copy()
        self.restarts = self.checks = 0
        self.events: list = []

    def recover(self, event: str) -> bool:
        """Record the hazard ``event``; whether a restart is left to
        recover from it (from a copy of ``good_x``)."""
        self.restarts += 1
        recovered = self.restarts <= self.guard.max_restarts
        self.events.append(event)
        campaign = self.guard.campaign
        if campaign is not None:
            campaign.record_detected(event)
            if recovered:
                campaign.record_recovered(event)
        # Telemetry observes the entry; it feeds nothing back.
        if _telemetry.metrics_on():
            _telemetry_metrics.registry().counter("ft.restarts").inc()
            _telemetry.event("ft.restart", what=event, recovered=recovered)
        return recovered

    def check(self, it: int, x, rel: float, tol: float) -> tuple:
        """``(reported residual, ok)`` for iterate ``it``, ``x``, with
        recursive residual ``rel``.  A periodic or converging iterate
        reports its true residual, and ``ok`` if it did not drift; such
        a verified iterate becomes the restart point and is handed to
        ``good_hook``."""
        every = self.guard.recompute_interval
        if rel > tol and not (every and it % every == 0):
            return rel, True
        true_rel = (self.b - self.op(x)).norm2() ** 0.5 / self.bnorm
        self.checks += 1
        if not math.isfinite(true_rel) or \
                true_rel > self.guard.drift_factor * max(rel, tol):
            return true_rel, False
        self.good_x = x.copy()
        if self.guard.good_hook is not None:
            self.guard.good_hook(it, x, true_rel)
        return true_rel, True

    def result(self, **kwargs) -> FTSolverResult:
        """The solve's result with this ledger attached."""
        return FTSolverResult(**kwargs, restarts=self.restarts,
                              detected_events=self.events,
                              true_residual_checks=self.checks)
