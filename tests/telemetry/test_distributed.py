"""Distributed telemetry end to end: a real shared-memory rank
runtime (worker processes, shared segments) traced through the
per-rank collector, merged into one timeline, exported with rank
labels, and summarised by the load-imbalance report — with numerics
bit-identical to the untraced run."""

import numpy as np
import pytest

import repro.engine as engine
import repro.telemetry as telemetry
from repro.grid.cartesian import GridCartesian
from repro.grid.comms import DistributedLattice
from repro.grid.dist_wilson import DistributedWilson, distribute_gauge
from repro.grid.random import random_gauge, random_spinor
from repro.simd import get_backend

DIMS = [4, 4, 4, 4]
MPI = [2, 1, 1, 1]
NRANKS = 2


@pytest.fixture()
def problem():
    be = get_backend("generic256")
    grid = GridCartesian(DIMS, be)
    dw = DistributedWilson(
        distribute_gauge(random_gauge(grid, seed=11), DIMS, be, MPI),
        mass=0.1)
    dpsi = DistributedLattice(DIMS, be, MPI, (4, 3)).scatter(
        random_spinor(grid, seed=7).to_canonical())
    yield dw, dpsi
    engine.reset_all()


class TestTracedShmemDhop:
    def test_bit_identical_and_merged_per_rank(self, problem):
        dw, dpsi = problem
        with engine.scope(transport="shmem"):
            ref = dw.dhop(dpsi).gather()
            with engine.scope(telemetry="trace"):
                out = dw.dhop(dpsi).gather()

        # Telemetry observes: the traced sweep is bit-identical.
        assert np.array_equal(ref, out)

        spans = telemetry.spans()
        rank_spans = telemetry.rank_spans(spans)
        assert sorted({s.attrs["rank"] for s in rank_spans}) == \
            list(range(NRANKS))
        names = {s.name for s in rank_spans}
        assert {"rank.round", "rank.sweep",
                "rank.mailbox_wait"} <= names
        # Each rank's round envelope nests under the parent's
        # transport span, and its children under the envelope.
        parent = next(s for s in spans
                      if s.name == "transport.shmem.dhop")
        rounds = [s for s in rank_spans if s.name == "rank.round"]
        assert len(rounds) == NRANKS
        for rnd in rounds:
            assert rnd.parent_id == parent.span_id
            # Normalised onto the parent clock: inside the parent span.
            assert rnd.t0 >= parent.t0
        children = [s for s in rank_spans if s.name != "rank.round"]
        round_ids = {r.span_id for r in rounds}
        assert all(c.parent_id in round_ids for c in children)
        # The blocked sweep computes every direction at once: one
        # compute span per rank per round.
        sweeps = [s for s in children if s.name == "rank.sweep"]
        assert len(sweeps) == NRANKS

    def test_chrome_export_has_one_row_per_rank_plus_parent(self,
                                                            problem):
        dw, dpsi = problem
        with engine.scope(transport="shmem", telemetry="trace"):
            dw.dhop(dpsi)
        doc = telemetry.spans_to_chrome(telemetry.spans())
        proc_names = {e["pid"]: e["args"]["name"]
                      for e in doc["traceEvents"]
                      if e["name"] == "process_name"}
        assert proc_names == {0: "parent", 1: "rank 0", 2: "rank 1"}

    def test_imbalance_report_names_the_slowest_rank(self, problem):
        dw, dpsi = problem
        with engine.scope(transport="shmem", telemetry="trace"):
            dw.dhop(dpsi)
            dw.dhop(dpsi)
        spans = telemetry.spans()
        rows = telemetry.imbalance_from_spans(spans)
        assert len(rows) == 2  # one row per merged round
        for row in rows:
            assert sorted(row["walls"]) == list(range(NRANKS))
            assert row["slowest_rank"] in range(NRANKS)
            assert row["compute_spread"] >= 1.0
            assert row["wait_skew"] >= 0.0
        summary = telemetry.imbalance_summary(spans)
        assert summary["slowest_rank"] in range(NRANKS)
        assert summary["rounds"] == 2
        table = telemetry.imbalance_table(spans)
        assert "slowest rank:" in table

    def test_metrics_level_labels_without_worker_spans(self, problem):
        # "metrics" ships no worker spans (replies carry the tallies),
        # but the per-rank Prometheus series is still there.
        dw, dpsi = problem
        with engine.scope(transport="shmem", telemetry="metrics"):
            dw.dhop(dpsi)
        assert telemetry.spans() == []
        from repro.telemetry.merge import rank_metrics

        per_rank = rank_metrics()
        assert sorted(per_rank) == list(range(NRANKS))
        for r in range(NRANKS):
            assert per_rank[r]["rank.sweeps"] == 1
            assert per_rank[r]["rank.messages"] > 0
        text = telemetry.prometheus_text(telemetry.registry())
        assert 'repro_rank_messages{rank="0"}' in text
        assert 'repro_rank_messages{rank="1"}' in text

    def test_off_records_nothing(self, problem):
        dw, dpsi = problem
        from repro.telemetry.merge import rank_metrics

        with engine.scope(transport="shmem"):
            dw.dhop(dpsi)
        assert telemetry.spans() == []
        assert rank_metrics() == {}
        assert telemetry.snapshot()["rank.rounds_merged"] == 0
