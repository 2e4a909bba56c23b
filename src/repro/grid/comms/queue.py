"""The halo queue: post now, wait later.

Real halo exchange is non-blocking (``MPI_Isend``/``MPI_Irecv``).  Here
a transport performs the deterministic wire work (accounting,
compression, checksum/retry) immediately at post time and hands back a
:class:`HaloHandle` whose data is final; :class:`AsyncCommsQueue`
tracks the in-flight set, and ``wait`` completes a handle and returns
its data.

Ordering and timing
-------------------
Handles carry a monotonically increasing per-queue sequence number, and
``drain`` completes outstanding messages in post order.  The only clock
read is ``time.monotonic()``, for the in-flight durations the telemetry
histograms record: a wall-clock source could travel backwards across an
NTP step.
"""

from __future__ import annotations

import time

from repro.engine.policy import current_policy
from repro.perf.counters import counters as _perf_counters
from repro.telemetry import metrics as _telemetry_metrics
from repro.telemetry import trace as _telemetry_trace


class HaloHandle:
    """One in-flight halo message (the simulated ``MPI_Request``).

    ``seq`` is the queue-local post ordinal (``drain`` completes in
    that order).
    """

    __slots__ = ("data", "nbytes", "tag", "done", "posted_at", "seq")

    def __init__(self, data, nbytes: int, tag: str,
                 posted_at: float = 0.0, seq: int = 0) -> None:
        self.data = data
        self.nbytes = nbytes
        self.tag = tag
        self.done = False
        self.posted_at = posted_at
        self.seq = seq


class AsyncCommsQueue:
    """The in-flight halo queue: post now, wait later."""

    def __init__(self) -> None:
        self.in_flight: list = []
        self.posted = 0
        self.completed = 0

    def post(self, data, nbytes: int, tag: str = "") -> HaloHandle:
        handle = HaloHandle(data, int(nbytes), tag,
                            posted_at=time.monotonic(), seq=self.posted)
        self.in_flight.append(handle)
        self.posted += 1
        _perf_counters().bump("halo_posts")
        return handle

    def wait(self, handle: HaloHandle):
        """Complete ``handle``; returns the received data."""
        if not handle.done:
            handle.done = True
            self.in_flight.remove(handle)
            self.completed += 1
            _perf_counters().bump("halo_waits")
            policy = current_policy()
            if policy.metrics_active:
                # Nothing here blocks, so there is no halo wait to
                # record (the shared-memory rank runtime records its
                # real mailbox waits as comms.halo_wait_seconds).
                done_at = time.monotonic()
                _telemetry_metrics.registry().histogram(
                    "comms.halo_inflight_seconds"
                ).observe(done_at - handle.posted_at)
                if policy.trace_active:
                    _telemetry_trace.record_span(
                        "halo", handle.posted_at, done_at,
                        tag=handle.tag, nbytes=handle.nbytes,
                    )
        return handle.data

    def drain(self) -> None:
        """Complete every outstanding message, in post order."""
        for handle in list(self.in_flight):
            self.wait(handle)

    @property
    def pending(self) -> int:
        return len(self.in_flight)

    def reset(self) -> None:
        """Discard in-flight messages and zero the queue counters."""
        self.in_flight.clear()
        self.posted = 0
        self.completed = 0
