"""The supervised solve runtime: retry, resume, degrade, survive.

:func:`repro.engine.solve_fermion` runs one attempt of one solver
under one policy; the fault-tolerant recursions underneath it survive
*in-process* hazards (SDC, breakdown, drift).  What neither survives
is the attempt itself dying — a crash, a deadline overrun, a solver
that stalls under an aggressive configuration.  :func:`supervised_solve`
is the envelope that turns one fragile attempt into a run that ends in
a classified outcome:

* **Durable checkpoint/restart** — for fault-tolerant CG,
  every verified-good iterate (the ``good_hook`` seam of
  :func:`~repro.resilience.ft_solver.ft_conjugate_gradient`) is
  persisted through a :class:`~repro.resilience.checkpoint.
  CheckpointStore`; each new attempt resumes from the newest valid
  checkpoint instead of iteration zero.
* **Watchdogs** — a per-attempt wall-clock deadline (checked at the
  checkpoint seam, so a hung attempt is abandoned at the next
  verified-good point), a per-attempt iteration budget, and
  post-attempt classification of non-convergence into *stall*
  (residual plateau), *divergence* (non-finite residual) or
  *iteration-budget*.
* **Seeded backoff** — retry delays grow exponentially with
  deterministic jitter drawn from a seeded RNG (the campaign seed by
  default), so a chaos run replays the identical schedule.
* **The degradation ladder** — each non-crash failure escalates to the
  next rung of :data:`DEGRADATION_LADDER`, a nested
  ``engine.scope(...)`` override that trades performance for safety:
  the reference path (engine off: layered kernels, mixed precision
  collapsed to double).
  Every rung computes bit-identical numbers — the ladder changes
  *how*, never *what*.
* **Circuit breakers** — attempt failures feed the per-operator
  breaker (:mod:`repro.resilience.breaker`); a breaker left open by
  previous failed solves makes the next call skip the as-configured
  rung entirely and start degraded.

On a pristine run the supervisor is a pass-through: one attempt, rung
zero (no overrides), and the underlying result — bit-identical to
calling :func:`solve_fermion` directly, checkpointing or not (the hook
observes, copies, and feeds nothing back).
"""

from __future__ import annotations

import math
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.engine.policy import scope
from repro.resilience.breaker import breaker
from repro.resilience.checkpoint import CheckpointStore, checkpoint_key
from repro.resilience.inject import SimulatedCrash
from repro.telemetry import flightrec as _flightrec
from repro.telemetry import metrics as _telemetry_metrics
from repro.telemetry import trace as _telemetry


class AttemptTimeout(RuntimeError):
    """An attempt overran its wall-clock deadline and was abandoned."""


@dataclass(frozen=True)
class Rung:
    """One step of the degradation ladder.

    ``overrides`` feed ``engine.scope``; ``method`` (if set) replaces
    a ``"mixed"`` solve — the last rung falls back to full double
    precision, the safest arithmetic the stack has.
    """

    name: str
    overrides: tuple = ()
    method: Optional[str] = None

    def scope_kwargs(self) -> dict:
        return dict(self.overrides)


#: Progressively safer execution configurations.  Later rungs disable
#: more machinery; every rung is bit-identical in results (DESIGN §12).
DEGRADATION_LADDER = (
    Rung("as-configured"),
    Rung("reference", (("enabled", False),), method="cg"),
)

#: Outcomes that indicate the *configuration* may be at fault and the
#: ladder should escalate.  A crash (node loss) says nothing about the
#: configuration — the next attempt resumes at the same rung.
_ESCALATE = frozenset(
    {"stall", "divergence", "timeout", "iteration-budget", "error"}
)


@dataclass(frozen=True)
class AttemptReport:
    """What one attempt did, for the supervision ledger."""

    attempt: int
    rung: str
    outcome: str          # converged | crash | timeout | stall |
    #                       divergence | iteration-budget | error
    iterations: int = 0
    residual: float = float("nan")
    resumed_from: Optional[int] = None
    backoff: float = 0.0
    detail: str = ""


@dataclass
class SuperviseResult:
    """The supervised run: final result plus the attempt ledger."""

    result: object = None
    converged: bool = False
    attempts: list = field(default_factory=list)
    total_iterations: int = 0
    checkpoints_saved: int = 0
    resumes: int = 0
    key: str = ""
    #: The post-mortem bundle (and where it was written, if a
    #: ``postmortem_dir`` was given) — populated only when telemetry is
    #: on and the run escalated or failed; ``None``/empty otherwise.
    postmortem: Optional[dict] = None
    postmortem_path: str = ""

    @property
    def rungs_used(self) -> list:
        return [a.rung for a in self.attempts]


def _count(name: str, n: int = 1) -> None:
    if _telemetry.metrics_on():
        _telemetry_metrics.registry().counter(name).inc(n)


def classify_attempt(result, stall_window: int = 8,
                     stall_improvement: float = 0.99) -> str:
    """Post-attempt watchdog: name why a finished attempt is not done.

    ``stall``: over the last ``stall_window`` recorded residuals the
    best improvement factor is worse than ``stall_improvement`` — the
    recursion is treading water and more iterations of the same
    configuration will not help.  ``divergence``: the residual went
    non-finite (the FT recursions bound this, the plain ones do not).
    Otherwise ``iteration-budget``: still progressing, just out of
    iterations.
    """
    if getattr(result, "converged", False):
        return "converged"
    residual = getattr(result, "residual", float("nan"))
    if residual is not None and not math.isfinite(residual):
        return "divergence"
    history = getattr(result, "residual_history", None) or []
    if len(history) > stall_window:
        recent = history[-(stall_window + 1):]
        if all(math.isfinite(r) for r in recent) and recent[0] > 0:
            if min(recent[1:]) > stall_improvement * recent[0]:
                return "stall"
    return "iteration-budget"


def backoff_schedule(rng, attempt: int, base: float, factor: float,
                     jitter: float) -> float:
    """Delay before retry ``attempt`` (1-based): exponential growth
    with multiplicative jitter in ``[1, 1+jitter]`` drawn from the
    seeded ``rng`` — deterministic per seed, desynchronised across
    seeds (the thundering-herd cure)."""
    if base <= 0.0:
        return 0.0
    return base * factor ** (attempt - 1) * (1.0 + jitter * rng.random())


def supervised_solve(
    operator,
    b,
    method: str = "cg",
    ft: bool = True,
    tol: float = 1e-8,
    max_iter: int = 1000,
    campaign=None,
    policy=None,
    store: Optional[CheckpointStore] = None,
    max_attempts: int = 5,
    deadline: Optional[float] = None,
    iteration_budget: Optional[int] = None,
    stall_window: int = 8,
    stall_improvement: float = 0.99,
    backoff_base: float = 0.0,
    backoff_factor: float = 2.0,
    backoff_jitter: float = 0.25,
    seed: Optional[int] = None,
    ladder: tuple = DEGRADATION_LADDER,
    on_checkpoint: Optional[Callable] = None,
    sleep: Callable = time.sleep,
    postmortem_dir: Optional[str] = None,
    **kwargs,
) -> SuperviseResult:
    """Run :func:`~repro.engine.solve.solve_fermion` under supervision.

    Parameters beyond the ``solve_fermion`` surface:

    ``store``
        A :class:`~repro.resilience.checkpoint.CheckpointStore`;
        enables durable checkpoint/resume (fault-tolerant ``"cg"``
        only — the one family with a verified-good seam).
    ``max_attempts`` / ``deadline`` / ``iteration_budget``
        The retry budget, per-attempt wall-clock limit (seconds), and
        per-attempt iteration cap.
    ``backoff_base`` / ``backoff_factor`` / ``backoff_jitter`` / ``seed``
        Retry-delay schedule; the jitter RNG seeds from ``seed``, else
        the campaign's seed, else 0 — same seed, same schedule.  The
        default ``backoff_base=0.0`` disables sleeping (tests and
        in-process retries want throughput, not politeness).
    ``ladder``
        The degradation rungs (see :data:`DEGRADATION_LADDER`).
    ``on_checkpoint``
        Observer called ``(iteration, x, true_rel)`` at each
        verified-good point *before* the checkpoint is written —
        the seam fault campaigns hang a
        :class:`~repro.resilience.inject.KillAtIteration` on (a crash
        there models dying before the save hit disk).
    ``sleep``
        Injectable clock for the backoff (tests pass a recorder).
    ``postmortem_dir``
        Directory for failure post-mortem bundles.  Whenever the run
        escalates or fails (any non-converged attempt) *and* telemetry
        is on, the flight recorder's bundle
        (:func:`repro.telemetry.flightrec.postmortem_bundle`) is
        attached as ``SuperviseResult.postmortem``; with a directory
        it is also written to disk (``SuperviseResult.postmortem_path``)
        for ``tools/teleview.py --postmortem``.  ``None`` keeps the
        bundle in-memory only.

    Returns a :class:`SuperviseResult`; ``.result`` is the underlying
    solver result of the final attempt (bit-identical to an
    unsupervised solve when nothing went wrong).
    """
    import numpy as np

    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    from repro.engine.solve import solve_fermion

    if seed is None:
        seed = campaign.seed if campaign is not None else 0
    rng = np.random.default_rng(seed)
    attempt_iters = (max_iter if iteration_budget is None
                     else min(max_iter, int(iteration_budget)))

    br = breaker(f"solve.{type(operator).__name__}")
    sup = SuperviseResult()
    # An already-open breaker (earlier solves kept failing) starts the
    # run pre-degraded: skip the as-configured rung.
    rung_idx = 0 if br.allow() else min(1, len(ladder) - 1)

    def _finalise(reason: str) -> SuperviseResult:
        """Attach (and optionally write) the failure post-mortem.
        A pristine run — every attempt converged, nothing escalated —
        attaches nothing; with telemetry off this is a no-op."""
        failed = any(a.outcome != "converged" for a in sup.attempts)
        if not failed or not _telemetry.metrics_on():
            return sup
        _flightrec.record("supervisor.postmortem", reason=reason,
                          attempts=len(sup.attempts))
        sup.postmortem = _flightrec.postmortem_bundle(
            supervise=sup, reason=reason)
        if postmortem_dir is not None:
            import os

            os.makedirs(postmortem_dir, exist_ok=True)
            stem = "".join(c if (c.isalnum() or c in "-_") else "-"
                           for c in reason)
            sup.postmortem_path = _flightrec.write_postmortem(
                sup.postmortem,
                os.path.join(postmortem_dir,
                             f"postmortem-{stem or 'solve'}.json"))
        return sup

    with _telemetry.span("supervised_solve",
                         operator=type(operator).__name__, method=method,
                         max_attempts=max_attempts):
        first_failure_at = None
        for attempt in range(1, max_attempts + 1):
            rung = ladder[rung_idx]
            eff_method = (rung.method
                          if rung.method is not None and method == "mixed"
                          else method)
            attempt_kwargs = dict(kwargs)
            if eff_method != method:
                # Collapsing mixed -> double drops the kwargs only the
                # mixed defect-correction loop understands.
                for k in ("max_outer", "max_inner", "inner_tol"):
                    attempt_kwargs.pop(k, None)
            ckpt_on = store is not None and eff_method == "cg" and ft
            resumed_from = None
            base_it = 0
            if ckpt_on:
                if not sup.key:
                    sup.key = checkpoint_key(operator, b, tol)
                ck = store.load_latest(sup.key)
                if ck is not None:
                    attempt_kwargs["x0"] = b.new_like().from_canonical(
                        ck.arrays["x"])
                    base_it = resumed_from = ck.iteration
                    sup.resumes += 1
                    _count("supervisor.resumes")
                    _flightrec.record("supervisor.resume",
                                      attempt=attempt,
                                      iteration=ck.iteration)

            t0 = time.monotonic()

            def good_hook(it, x, true_rel, _base=base_it, _t0=t0):
                # Order matters: a simulated crash fires *before* the
                # save (the state at this point never reached disk); a
                # deadline overrun aborts *after* it (graceful abandon
                # keeps the verified progress for the next attempt).
                if on_checkpoint is not None:
                    on_checkpoint(_base + it, x, true_rel)
                store.save(sup.key, {"x": x.to_canonical()},
                           iteration=_base + it, residual=true_rel,
                           tol=tol)
                sup.checkpoints_saved += 1
                if deadline is not None and \
                        time.monotonic() - _t0 > deadline:
                    raise AttemptTimeout(
                        f"attempt exceeded {deadline}s deadline"
                    )

            if ckpt_on:
                attempt_kwargs["good_hook"] = good_hook

            _count("supervisor.attempts")
            result, outcome, detail = None, "error", ""
            try:
                with ExitStack() as stack:
                    # The user policy scopes first, rung overrides
                    # nest inside it (scope overrides compose with the
                    # resolved policy) — passing ``policy`` down to
                    # solve_fermion instead would *replace* the
                    # resolved policy and silently undo the ladder.
                    if policy is not None:
                        stack.enter_context(scope(policy))
                    if rung.overrides:
                        stack.enter_context(
                            scope(**rung.scope_kwargs()))
                    result = solve_fermion(
                        operator, b, method=eff_method, ft=ft, tol=tol,
                        max_iter=attempt_iters, campaign=campaign,
                        **attempt_kwargs)
                outcome = classify_attempt(
                    result, stall_window=stall_window,
                    stall_improvement=stall_improvement)
            except SimulatedCrash as exc:
                outcome, detail = "crash", str(exc)
                _count("supervisor.crashes")
            except AttemptTimeout as exc:
                outcome, detail = "timeout", str(exc)
            except Exception as exc:  # noqa: BLE001 - supervised runtime
                outcome, detail = "error", f"{type(exc).__name__}: {exc}"

            iters = int(getattr(result, "iterations", 0) or 0)
            sup.total_iterations += iters
            sup.attempts.append(AttemptReport(
                attempt=attempt, rung=rung.name, outcome=outcome,
                iterations=iters,
                residual=getattr(result, "residual", float("nan")),
                resumed_from=resumed_from, detail=detail))
            _telemetry.event("supervisor.attempt", attempt=attempt,
                             rung=rung.name, outcome=outcome,
                             iterations=iters)
            _flightrec.record("supervisor.attempt", attempt=attempt,
                              rung=rung.name, outcome=outcome,
                              iterations=iters, detail=detail)

            if outcome == "converged":
                sup.result = result
                sup.converged = True
                br.record_success()
                _count("supervisor.converged")
                if first_failure_at is not None:
                    if campaign is not None:
                        campaign.record_recovered(
                            f"supervisor: converged on attempt "
                            f"{attempt} after "
                            f"{sup.attempts[-2].outcome}"
                        )
                    if _telemetry.metrics_on():
                        _telemetry_metrics.registry().histogram(
                            "supervisor.recovery_time").observe(
                            time.monotonic() - first_failure_at)
                return _finalise(f"recovered-attempt-{attempt}")

            sup.result = result
            br.record_failure(outcome)
            if campaign is not None:
                # The injector records the *fired* crash (ground
                # truth); catching it here is the *detection* — the
                # two ledger streams the classifier compares.
                campaign.record_detected(
                    f"supervisor: attempt {attempt} {outcome}"
                    + (f" ({detail})" if detail else "")
                )
            if first_failure_at is None:
                first_failure_at = time.monotonic()
            if attempt == max_attempts:
                break
            _count("supervisor.retries")
            if outcome in _ESCALATE and rung_idx < len(ladder) - 1:
                rung_idx += 1
                _count("supervisor.degradations")
                _telemetry.event("supervisor.degrade",
                                 to=ladder[rung_idx].name, why=outcome)
                _flightrec.record("supervisor.degrade",
                                  to=ladder[rung_idx].name, why=outcome)
            delay = backoff_schedule(rng, attempt, backoff_base,
                                     backoff_factor, backoff_jitter)
            if delay > 0.0:
                sup.attempts[-1] = AttemptReport(
                    **{**sup.attempts[-1].__dict__, "backoff": delay})
                sleep(delay)

    _count("supervisor.exhausted")
    return _finalise(f"exhausted-{sup.attempts[-1].outcome}")
