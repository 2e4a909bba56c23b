"""Per-subsystem circuit breakers: closed / open / half-open.

:class:`repro.simd.resilient.ResilientBackend` pioneered the pattern
for one subsystem: after a backend fault, stop retrying the primary
(sticky fallback) until someone resets it.  This module generalizes
that into the classic circuit-breaker state machine, shared by every
subsystem the supervised runtime touches — comms, checkpoints, caches,
backends, the solver itself:

* **closed** — healthy; calls flow, failures are counted.  At
  ``failure_threshold`` consecutive failures the breaker *opens*.
* **open** — the subsystem is presumed broken; :meth:`allow` denies
  (the supervisor routes around it — e.g. an open solve breaker
  starts the degradation ladder at the reference rung).  After
  ``cooldown`` denied probes the breaker goes *half-open*.
* **half-open** — probation: :meth:`allow` admits probe calls.
  ``probation_probes`` consecutive successes close the breaker; any
  failure re-opens it (and restarts the cooldown).

Transitions are **count-based, not wall-clock-based**: a breaker that
cools down after "N denied attempts" replays identically under any
scheduler and any machine, which keeps chaos campaigns reproducible —
the same determinism discipline as the seeded fault schedules.

Breakers live in a process-global registry (:func:`breaker`), are
reset by :func:`repro.engine.reset.reset_all` via
:func:`reset_breakers`, and export their state through the telemetry
registry: transition counters (``breaker.opened`` / ``breaker.closed``
/ ``breaker.half_open``) plus a collector view of how many breakers
are currently in each state.  Every transition also lands in the
failure flight recorder (:mod:`repro.telemetry.flightrec`), so a
post-mortem bundle shows the breaker history leading up to a failed
solve.

Import discipline: only the telemetry layer (which imports nothing
from :mod:`repro`), so any layer — including :mod:`repro.simd` — can
feed breakers without cycles.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.telemetry import flightrec as _flightrec
from repro.telemetry import metrics as _telemetry_metrics
from repro.telemetry import trace as _telemetry

#: The three breaker states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"


@dataclass(frozen=True)
class BreakerEvent:
    """One state transition, for the ledger."""

    breaker: str
    frm: str
    to: str
    reason: str = ""


class CircuitBreaker:
    """One subsystem's breaker.  Thread-safe; see module docstring for
    the state machine."""

    def __init__(self, name: str, failure_threshold: int = 3,
                 cooldown: int = 2, probation_probes: int = 1) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown < 1:
            raise ValueError("cooldown must be >= 1")
        if probation_probes < 1:
            raise ValueError("probation_probes must be >= 1")
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.cooldown = int(cooldown)
        self.probation_probes = int(probation_probes)
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0          # consecutive, while closed
        self._denied = 0            # while open
        self._probe_successes = 0   # while half-open
        self.events: list = []

    @property
    def state(self) -> str:
        return self._state

    def _transition(self, to: str, reason: str = "") -> None:
        frm = self._state
        if frm == to:
            return
        self._state = to
        self.events.append(BreakerEvent(breaker=self.name, frm=frm,
                                        to=to, reason=reason))
        if _telemetry.metrics_on():
            label = {OPEN: "breaker.opened", CLOSED: "breaker.closed",
                     HALF_OPEN: "breaker.half_open"}[to]
            _telemetry_metrics.registry().counter(label).inc()
            _telemetry.event("breaker.transition", breaker=self.name,
                             frm=frm, to=to, reason=reason)
            _flightrec.record("breaker.transition", breaker=self.name,
                              frm=frm, to=to, reason=reason)

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May the protected subsystem be used right now?

        Open breakers deny (and count the denial toward cooldown);
        half-open breakers admit probes; closed breakers always admit.
        """
        with self._lock:
            if self._state == OPEN:
                self._denied += 1
                if self._denied >= self.cooldown:
                    self._probe_successes = 0
                    self._transition(HALF_OPEN, "cooldown elapsed")
                return False
            return True

    def record_success(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.probation_probes:
                    self._failures = 0
                    self._transition(CLOSED, "probation passed")
            elif self._state == CLOSED:
                self._failures = 0

    def record_failure(self, reason: str = "") -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._denied = 0
                self._transition(OPEN, f"probe failed: {reason}")
            elif self._state == CLOSED:
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    self._denied = 0
                    self._transition(
                        OPEN,
                        f"{self._failures} consecutive failures"
                        + (f": {reason}" if reason else ""),
                    )

    def reset(self) -> "CircuitBreaker":
        """Back to a pristine closed breaker (events cleared)."""
        with self._lock:
            self._state = CLOSED
            self._failures = 0
            self._denied = 0
            self._probe_successes = 0
            self.events.clear()
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CircuitBreaker {self.name} {self._state}>"


# ======================================================================
# Registry
# ======================================================================

_REGISTRY_LOCK = threading.Lock()
_BREAKERS: dict = {}


def breaker(name: str, **kwargs) -> CircuitBreaker:
    """The named breaker, created on first use (``kwargs`` configure
    it then).  Passing the *same* kwargs again is a no-op, so a call
    site can state its config on every call; passing *different*
    kwargs raises — two subsystems disagreeing about thresholds is a
    bug, not a race to configure first."""
    with _REGISTRY_LOCK:
        br = _BREAKERS.get(name)
        if br is None:
            br = _BREAKERS[name] = CircuitBreaker(name, **kwargs)
        elif kwargs:
            for attr, want in kwargs.items():
                if getattr(br, attr, None) != want:
                    raise ValueError(
                        f"breaker {name!r} already configured with "
                        f"{attr}={getattr(br, attr, None)!r}; cannot "
                        f"re-spec to {want!r}"
                    )
        return br


def all_breakers() -> dict:
    """Name -> live breaker (snapshot copy)."""
    with _REGISTRY_LOCK:
        return dict(_BREAKERS)


def reset_breakers() -> int:
    """Drop every registered breaker; returns how many were *not*
    closed (the count :func:`repro.engine.reset.reset_all` reports).
    Dropping rather than closing means a rerun cannot inherit stale
    thresholds either."""
    with _REGISTRY_LOCK:
        tripped = sum(1 for b in _BREAKERS.values()
                      if b.state != CLOSED)
        _BREAKERS.clear()
    return tripped


def _collect_breaker_metrics() -> dict:
    out = {"breaker.live": 0, "breaker.open_now": 0,
           "breaker.half_open_now": 0}
    for b in all_breakers().values():
        out["breaker.live"] += 1
        if b.state == OPEN:
            out["breaker.open_now"] += 1
        elif b.state == HALF_OPEN:
            out["breaker.half_open_now"] += 1
    return out


_telemetry_metrics.registry().register_collector(
    "resilience.breakers", _collect_breaker_metrics
)
