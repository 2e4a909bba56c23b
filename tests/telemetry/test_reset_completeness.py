"""The counter-reset drift audit.

Every counter in the system now routes through (or is viewed by) the
telemetry registry, so ``engine.reset_all()`` has one provable
postcondition: a snapshot taken right after it shows **every** metric
at zero and the trace buffer empty.  This test runs the three
counter-feeding workloads — a distributed Wilson-Dslash (comms stats +
halo telemetry), a CG solve (solve counters + spans), a fault
campaign (fault counters + events), and a supervised solve with a
checkpoint store and a tripped circuit breaker (supervisor/checkpoint
counters + breaker state) — then resets once and sweeps the whole
snapshot.  A future counter added outside the registry, or a reset
path that misses one, fails here by name."""

import repro.engine as engine
import repro.telemetry as telemetry
from repro.engine.solve import solve_fermion
from repro.grid.cartesian import GridCartesian
from repro.grid.comms import DistributedLattice
from repro.grid.dist_wilson import DistributedWilson, distribute_gauge
from repro.grid.random import random_gauge, random_spinor
from repro.grid.wilson import WilsonDirac
from repro.resilience.breaker import all_breakers, breaker
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.inject import FaultCampaign
from repro.resilience.supervisor import supervised_solve
from repro.simd import get_backend

DIMS = [4, 4, 4, 4]
MPI = [2, 1, 1, 1]


def _run_everything(ckpt_dir):
    """Dslash + CG + campaign + supervised solve under full tracing;
    returns the mid-flight snapshot (for the non-triviality check)."""
    be = get_backend("generic256")
    grid = GridCartesian(DIMS, be)
    links = random_gauge(grid, seed=11)
    psi = random_spinor(grid, seed=7)

    dlinks = distribute_gauge(links, DIMS, be, MPI)
    dw = DistributedWilson(dlinks, mass=0.1)
    dpsi = DistributedLattice(DIMS, be, MPI, (4, 3)).scatter(
        psi.to_canonical()
    )

    w = WilsonDirac(links, mass=0.3)
    campaign = FaultCampaign(seed=3, name="audit")

    with engine.scope(telemetry="trace"):
        dw.dhop(dpsi)
        # Shared-memory transport: rank-runtime counters, the segment
        # gauge, halo-wait observations — and live segments + worker
        # processes the reset must tear down.
        with engine.scope(transport="shmem"):
            dw.dhop(dpsi)
        solve_fermion(w, psi, method="cg", tol=1e-6, max_iter=100)
        campaign.record_fired("field-bitflip", "psi")
        campaign.record_detected("nan-guard")
        campaign.record_recovered("restart")
        # Supervised solve: checkpoint saves + supervisor counters,
        # and a breaker tripped open by a starved retry loop.
        supervised_solve(w, psi, tol=1e-6,
                         store=CheckpointStore(ckpt_dir),
                         recompute_interval=5, max_iter=100)
        supervised_solve(w, psi, tol=1e-14, max_iter=1,
                         max_attempts=3)
        breaker("audit.subsystem", failure_threshold=1).record_failure()
        return telemetry.snapshot()


class TestResetCompleteness:
    def test_one_reset_zeroes_every_metric_and_span(self, tmp_path):
        mid = _run_everything(tmp_path)

        # Non-trivial: each workload actually fed its counters.
        assert mid["comms.messages"] > 0
        assert mid["solve.calls"] >= 1
        assert mid["solve.iterations"] > 0
        assert mid["fault.fired"] == 1
        assert mid["fault.detected"] == 1
        assert mid["fault.recovered"] == 1
        assert mid["perf.halo_posts"] > 0
        assert mid["supervisor.attempts"] >= 4
        assert mid["supervisor.retries"] >= 2
        assert mid["checkpoint.saves"] >= 1
        assert mid["breaker.opened"] >= 1
        assert mid["breaker.live"] >= 2
        assert mid["breaker.open_now"] >= 1
        assert mid["transport.shmem.sweeps"] >= 1
        assert mid["transport.shmem.messages"] > 0
        assert mid["transport.shmem.bytes"] > 0
        assert mid["transport.shmem.segments"] > 0
        assert mid["comms.halo_wait_seconds.count"] > 0
        # Distributed telemetry: the traced shmem dhop shipped worker
        # spans through the merge layer (per-rank metrics + tails +
        # round counter) and fed the failure flight recorder.
        assert mid["rank.ranks_tracked"] == 2
        assert mid["rank.rounds_merged"] >= 1
        assert mid["flightrec.events"] >= 1
        from repro.telemetry.merge import rank_metrics, rank_tails

        assert sorted(rank_metrics()) == [0, 1]
        assert sorted(rank_tails()) == [0, 1]
        assert len(telemetry.buffer()) > 0
        from repro.grid.comms.shmem import live_segments

        assert live_segments() != []

        summary = engine.reset_all()
        assert summary["counters_reset"] is True
        assert summary["telemetry_metrics_reset"] > 0
        assert summary["telemetry_spans_cleared"] > 0
        assert summary["telemetry_flightrec_cleared"] >= 1
        assert summary["telemetry_rank_state_cleared"] == 2
        assert summary["breakers_tripped"] >= 1
        # The rank runtime is gone: workers joined, every shared-memory
        # segment unlinked — a reset can never leak an orphan.
        assert summary["transport_runtimes_closed"] >= 1
        assert summary["transport_segments_released"] > 0
        assert live_segments() == []

        after = telemetry.snapshot()
        nonzero = {k: v for k, v in after.items() if v != 0}
        assert nonzero == {}, f"metrics survived reset_all: {nonzero}"
        assert len(telemetry.buffer()) == 0
        assert telemetry.spans() == []
        # The distributed-telemetry stores are empty too, not merely
        # zero-valued in the collector sweep.
        assert rank_metrics() == {}
        assert rank_tails() == {}
        from repro.telemetry.flightrec import events as flightrec_events

        assert flightrec_events() == []
        # The breaker registry itself is empty, not just closed: a
        # rerun cannot inherit stale thresholds or probation state.
        assert all_breakers() == {}

    def test_counters_false_spares_telemetry(self):
        telemetry.count("audit.counter", 2)
        with engine.scope(telemetry="trace"):
            with telemetry.span("audit.span"):
                pass
        summary = engine.reset_all(counters=False)
        assert summary["counters_reset"] is False
        assert summary["telemetry_metrics_reset"] == 0
        assert summary["telemetry_spans_cleared"] == 0
        assert telemetry.snapshot()["audit.counter"] == 2
        assert [s.name for s in telemetry.spans()] == ["audit.span"]
