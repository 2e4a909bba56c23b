"""The cross-rank merge layer, on synthetic payloads: clock
normalisation, trace-buffer landing, per-rank exporter labels, and the
silent-rank case.  The real worker-shipped path is exercised end to
end by ``test_distributed.py``; here every input is hand-built so each
property is pinned in isolation."""

import json

import pytest

import repro.engine as engine
import repro.telemetry as telemetry
from repro.telemetry import merge
from repro.telemetry.export import prometheus_text, spans_to_chrome
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.rankcollect import RankCollector


def _payload(rank, round_t0, spans, dropped=0, metrics=None):
    """A hand-built RankCollector.payload() dict."""
    return {
        "rank": rank,
        "round_t0": round_t0,
        "round_t1": round_t0 + 1.0,
        "spans": spans,
        "dropped": dropped,
        "metrics": metrics or {},
    }


class TestRankCollector:
    def test_records_plain_dicts(self):
        c = RankCollector(3)
        c.record("rank.sweep", 1.0, 2.0, mu=2)
        p = c.payload()
        assert p["rank"] == 3
        assert p["spans"] == [{"name": "rank.sweep", "t0": 1.0,
                               "t1": 2.0, "attrs": {"mu": 2}}]
        assert p["round_t1"] >= p["round_t0"]
        assert p["metrics"]["rank.spans_recorded"] == 1

    def test_capacity_bounds_and_counts_drops(self):
        c = RankCollector(0, capacity=2)
        for i in range(5):
            c.record("s", float(i), float(i) + 0.5)
        assert len(c.spans) == 2
        assert c.dropped == 3
        assert c.payload()["metrics"]["rank.spans_dropped"] == 3


class TestIngestRound:
    def test_clock_normalisation_anchors_on_send_time(self):
        # Worker clock says round started at 100.0; the parent sent
        # the command at 7.0 — every merged timestamp shifts by -93.
        recs = [{"name": "rank.sweep", "t0": 100.25, "t1": 100.75,
                 "attrs": {"mu": 0}}]
        n = merge.ingest_round([_payload(0, 100.0, recs)],
                               send_times=[7.0], round_index=4)
        assert n == 2  # the rank.round envelope + one child
        by_name = {s.name: s for s in telemetry.spans()}
        rnd = by_name["rank.round"]
        child = by_name["rank.sweep"]
        assert rnd.t0 == pytest.approx(7.0)
        assert child.t0 == pytest.approx(7.25)
        assert child.t1 == pytest.approx(7.75)
        # Durations are offset-invariant.
        assert child.duration == pytest.approx(0.5)
        assert child.parent_id == rnd.span_id
        assert child.attrs["rank"] == 0
        assert child.attrs["round"] == 4
        assert rnd.thread == child.thread == "rank-0"

    def test_round_span_parents_under_open_parent_span(self):
        with engine.scope(telemetry="trace"):
            with telemetry.span("transport.shmem.dhop"):
                merge.ingest_round([_payload(1, 0.0, [])],
                                   send_times=[0.0, 0.0],
                                   round_index=0)
        by_name = {s.name: s for s in telemetry.spans()}
        assert by_name["rank.round"].parent_id == \
            by_name["transport.shmem.dhop"].span_id

    def test_silent_rank_is_skipped_not_an_error(self):
        # Rank 0 shipped nothing (None payload): the round still
        # merges rank 1, and the finding shows up in ranks_seen.
        n = merge.ingest_round(
            [None, _payload(1, 5.0, [], metrics={"rank.sweeps": 1})],
            send_times=[1.0, 1.0], round_index=0)
        assert n == 1
        assert merge.ranks_seen() == [1]
        assert [s.attrs["rank"] for s in telemetry.spans()] == [1]

    def test_metrics_accumulate_across_rounds(self):
        for rnd in range(3):
            merge.ingest_round(
                [_payload(0, 0.0, [], metrics={"rank.bytes": 10})],
                send_times=[0.0], round_index=rnd)
        assert merge.rank_metrics()[0]["rank.bytes"] == 30
        assert merge.rounds_merged() == 3

    def test_tails_are_bounded(self):
        recs = [{"name": "s", "t0": 0.0, "t1": 0.1, "attrs": {}}
                for _ in range(merge.TAIL_CAPACITY + 10)]
        merge.ingest_round([_payload(0, 0.0, recs)],
                           send_times=[0.0], round_index=0)
        assert len(merge.rank_tails()[0]) == merge.TAIL_CAPACITY

    def test_reset_drops_everything(self):
        merge.ingest_round([_payload(2, 0.0, [])], send_times=[0, 0, 0],
                           round_index=0)
        assert merge.reset_rank_state() == 1
        assert merge.rank_metrics() == {}
        assert merge.rank_tails() == {}
        assert merge.rounds_merged() == 0
        snap = telemetry.snapshot()
        assert snap["rank.ranks_tracked"] == 0
        assert snap["rank.rounds_merged"] == 0


class TestExporterLabels:
    def _merged(self):
        recs = [{"name": "rank.sweep", "t0": 0.1, "t1": 0.2,
                 "attrs": {"mu": 1}}]
        with engine.scope(telemetry="trace"):
            with telemetry.span("transport.shmem.dhop"):
                merge.ingest_round(
                    [_payload(0, 0.0, recs), _payload(1, 0.0, recs)],
                    send_times=[0.0, 0.0], round_index=0)
        return telemetry.spans()

    def test_chrome_one_process_row_per_rank(self):
        doc = spans_to_chrome(self._merged())
        events = doc["traceEvents"]
        proc_names = {e["pid"]: e["args"]["name"] for e in events
                      if e["name"] == "process_name"}
        assert proc_names == {0: "parent", 1: "rank 0", 2: "rank 1"}
        # Every rank-tagged span renders in its rank's process group;
        # the parent span stays on pid 0.
        for e in events:
            if e["name"] in ("rank.round", "rank.sweep"):
                assert e["pid"] == e["args"]["rank"] + 1
            elif e["name"] == "transport.shmem.dhop":
                assert e["pid"] == 0

    def test_jsonl_round_trip_keeps_rank_labels(self, tmp_path):
        original = self._merged()
        path = str(tmp_path / "ranks.jsonl")
        telemetry.write_jsonl(original, path)
        loaded = telemetry.read_jsonl(path)
        assert [s.as_dict() for s in loaded] == \
            [s.as_dict() for s in original]
        assert sorted({s.attrs["rank"]
                       for s in telemetry.rank_spans(loaded)}) == [0, 1]

    def test_prometheus_rank_labelled_samples(self):
        merge.record_rank_metrics(0, {"rank.bytes": 128})
        merge.record_rank_metrics(1, {"rank.bytes": 256})
        text = prometheus_text(MetricsRegistry())
        assert 'repro_rank_bytes{rank="0"} 128' in text
        assert 'repro_rank_bytes{rank="1"} 256' in text
        # One TYPE header per metric, not per rank.
        assert text.count("# TYPE repro_rank_bytes untyped") == 1
        # Explicit empty mapping suppresses the per-rank series.
        assert "rank=" not in prometheus_text(MetricsRegistry(),
                                              rank_metrics={})

    def test_rank_spans_filter(self):
        spans = self._merged()
        assert all(s.attrs["rank"] == 1
                   for s in telemetry.rank_spans(spans, rank=1))
        assert len(telemetry.rank_spans(spans)) == 4  # 2 ranks x 2
