"""Registry semantics: typed instruments, collectors, snapshot/reset —
and the perf-counter facade that now routes through the registry."""

import pytest

import repro.telemetry as telemetry
from repro.perf.counters import COUNTER_NAMES, counters, reset_counters
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5
        c.reset()
        assert c.value == 0

    def test_gauge_last_write_wins(self):
        g = Gauge("g")
        g.set(3.5)
        g.set(-1)
        assert g.value == -1
        g.reset()
        assert g.value == 0.0

    def test_histogram_buckets_are_cumulative(self):
        h = Histogram("h", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 5
        assert abs(h.sum - 56.05) < 1e-12
        # le=0.1: 1, le=1.0: 3, le=10.0: 4, +Inf: 5
        assert h.cumulative() == [1, 3, 4, 5]

    def test_histogram_bucket_bounds_sorted(self):
        h = Histogram("h", buckets=(1.0, 0.1))
        assert h.buckets == (0.1, 1.0)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_name_can_hold_only_one_type(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="Counter"):
            reg.gauge("x")

    def test_snapshot_flattens_histograms(self):
        reg = MetricsRegistry()
        reg.counter("calls").inc(2)
        reg.gauge("level").set(7)
        reg.histogram("lat", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap == {
            "calls": 2,
            "level": 7,
            "lat.count": 1,
            "lat.sum": 0.5,
        }

    def test_collectors_are_views_reset_with_their_owner(self):
        reg = MetricsRegistry()
        state = {"ext.value": 3}
        reg.register_collector("ext", lambda: dict(state))
        reg.counter("own").inc()
        assert reg.snapshot()["ext.value"] == 3
        zeroed = reg.reset()
        assert zeroed == 1  # only the counter; the collector is a view
        assert reg.snapshot()["own"] == 0
        assert reg.snapshot()["ext.value"] == 3  # owner not reset
        state["ext.value"] = 0
        assert reg.snapshot()["ext.value"] == 0

    def test_reset_keeps_registrations(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(9)
        reg.reset()
        assert reg.names() == ["a"]
        assert reg.snapshot() == {"a": 0}


class TestFacadeHelpers:
    def test_count_observe_set_gauge_feed_the_global_registry(self):
        telemetry.count("t.calls", 3)
        telemetry.observe("t.lat", 0.25)
        telemetry.set_gauge("t.level", 2)
        snap = telemetry.snapshot()
        assert snap["t.calls"] == 3
        assert snap["t.lat.count"] == 1
        assert snap["t.level"] == 2
        out = telemetry.reset()
        assert out["metrics_reset"] >= 3
        assert telemetry.snapshot()["t.calls"] == 0


class TestPerfCounterFacade:
    def test_bump_lands_in_the_registry(self):
        counters().bump("plan_misses", 5)
        assert counters().plan_misses == 5
        assert telemetry.snapshot()["perf.plan_misses"] == 5

    def test_every_counter_name_is_registered_eagerly(self):
        snap = telemetry.snapshot()
        for name in COUNTER_NAMES:
            assert f"perf.{name}" in snap

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="unknown perf counter"):
            counters().bump("no_such_counter")
        with pytest.raises(AttributeError):
            counters().no_such_counter

    def test_reset_counters_zeroes_only_perf_metrics(self):
        counters().bump("program_hits", 2)
        telemetry.count("other.metric", 4)
        reset_counters()
        snap = telemetry.snapshot()
        assert snap["perf.program_hits"] == 0
        assert snap["other.metric"] == 4
