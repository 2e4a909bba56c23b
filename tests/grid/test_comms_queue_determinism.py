"""Ordering and timing pins for the halo queue.

* the queue reads only ``time.monotonic()`` — never the wall clock,
  which can step backwards under NTP;
* ``drain`` completes outstanding messages in post order, and every
  handle carries its per-queue post ordinal ``seq``.
"""

import time

import repro.grid.comms.queue as queue_mod
from repro.grid.comms import AsyncCommsQueue


class _MonotonicOnlyClock:
    """A ``time`` stand-in that forbids the wall clock entirely."""

    def __init__(self):
        self.monotonic_calls = 0

    def monotonic(self):
        self.monotonic_calls += 1
        return time.monotonic()

    def __getattr__(self, name):  # time.time(), time.sleep(), ...
        raise AssertionError(
            f"comms queue reached for time.{name}; only monotonic() "
            "is allowed"
        )


class TestMonotonicOnly:
    def test_post_wait_drain_never_touch_wall_clock(self, monkeypatch):
        clock = _MonotonicOnlyClock()
        monkeypatch.setattr(queue_mod, "time", clock)
        q = AsyncCommsQueue()
        handles = [q.post(object(), 128, tag=f"m{i}") for i in range(3)]
        q.wait(handles[1])
        q.drain()
        assert q.pending == 0
        assert q.completed == 3
        assert clock.monotonic_calls > 0


class TestDrainOrder:
    def test_drain_completes_in_post_order(self):
        q = AsyncCommsQueue()
        handles = [q.post(object(), 64, tag=f"m{i}") for i in range(6)]
        q.wait(handles[2])
        order = []
        real_wait = q.wait

        def recording_wait(handle):
            order.append(handle.tag)
            return real_wait(handle)

        q.wait = recording_wait
        q.drain()
        assert order == ["m0", "m1", "m3", "m4", "m5"]

    def test_seq_is_per_queue_post_ordinal(self):
        q1, q2 = AsyncCommsQueue(), AsyncCommsQueue()
        a = [q1.post(object(), 1) for _ in range(3)]
        b = [q2.post(object(), 1) for _ in range(2)]
        assert [h.seq for h in a] == [0, 1, 2]
        assert [h.seq for h in b] == [0, 1]

    def test_reset_clears_in_flight_and_counters(self):
        q = AsyncCommsQueue()
        q.post(object(), 64)
        q.reset()
        assert (q.pending, q.posted, q.completed) == (0, 0, 0)
