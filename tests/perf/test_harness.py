"""The regression harness: gate semantics, report round-trips, and a
cheap end-to-end benchmark smoke."""

import pytest

from repro.perf import harness


def _report(metrics, bench="b"):
    return {
        "schema": harness.SCHEMA_VERSION,
        "benchmarks": {
            bench: {
                "wall_seconds": 0.1,
                "metrics": {k: {"value": v, "gate": g}
                            for k, (v, g) in metrics.items()},
                "info": {},
            }
        },
    }


class TestMetricModel:
    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError, match="unknown gate"):
            harness.Metric(value=1.0, gate="atleast")

    def test_record_collects_metrics(self):
        rec = harness.BenchRecord(name="x", wall_seconds=0.0)
        rec.metric("speedup", 1.5, "min")
        assert rec.metrics["speedup"].value == 1.5
        assert rec.metrics["speedup"].gate == "min"


class TestCompareReports:
    def test_within_tolerance_passes(self):
        base = _report({"speedup": (1.5, "min"), "retired": (100, "max"),
                        "identical": (True, "exact")})
        cur = _report({"speedup": (1.2, "min"), "retired": (120, "max"),
                       "identical": (True, "exact")})
        assert harness.compare_reports(cur, base, tolerance=0.25) == []

    def test_min_gate_fails_below_floor(self):
        base = _report({"speedup": (1.5, "min")})
        cur = _report({"speedup": (1.0, "min")})
        fails = harness.compare_reports(cur, base, tolerance=0.25)
        assert len(fails) == 1 and "speedup" in fails[0]

    def test_max_gate_fails_above_ceiling(self):
        base = _report({"retired": (100, "max")})
        cur = _report({"retired": (130, "max")})
        fails = harness.compare_reports(cur, base, tolerance=0.25)
        assert len(fails) == 1 and "retired" in fails[0]

    def test_exact_gate_has_no_tolerance(self):
        base = _report({"identical": (True, "exact")})
        cur = _report({"identical": (False, "exact")})
        assert len(harness.compare_reports(cur, base)) == 1

    def test_info_metrics_never_gate(self):
        base = _report({"wallish": (100.0, "info")})
        cur = _report({"wallish": (9000.0, "info")})
        assert harness.compare_reports(cur, base) == []

    def test_missing_metric_and_benchmark_fail(self):
        base = _report({"speedup": (1.5, "min")})
        assert harness.compare_reports(_report({}), base)
        assert harness.compare_reports({"benchmarks": {}}, base)

    def test_new_current_metrics_ride_ungated(self):
        base = _report({"speedup": (1.5, "min")})
        cur = _report({"speedup": (1.5, "min"), "fresh": (0.0, "min")})
        assert harness.compare_reports(cur, base) == []


class TestReportIO:
    def test_round_trip_and_format(self, tmp_path):
        rep = _report({"speedup": (1.5, "min")})
        rep["suite"] = "quick"
        path = str(tmp_path / "r.json")
        harness.write_report(rep, path)
        back = harness.load_report(path)
        assert back == rep
        text = harness.format_report(back)
        assert "speedup" in text and "(min)" in text


class TestSmoke:
    def test_bench_halo_runs_and_is_identical(self):
        rec = harness.bench_halo()
        assert rec.metrics["gather_identical"].value is True
        assert rec.metrics["messages"].value > 0
        assert rec.metrics["bytes_sent"].value > 0


class TestRunBenches:
    def test_each_entry_holds_its_own_counters(self):
        """A bench's entry carries the tallies of that bench alone: run
        after another bench it reads what it reads when run alone."""
        both = harness.run_benches([harness.bench_halo,
                                    harness.bench_halo_messages])
        for name, bench in (("halo", harness.bench_halo),
                            ("halo_messages", harness.bench_halo_messages)):
            alone = harness.run_benches([bench])
            assert both[name]["counters"] == alone[name]["counters"]
        assert both["halo"]["counters"]["fused_dhop_calls"] == 1
        assert both["halo"]["counters"] != both["halo_messages"]["counters"]
