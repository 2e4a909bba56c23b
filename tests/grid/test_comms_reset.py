"""Reset hygiene: comms stats, perf counters, and the async in-flight
queue all clear between runs — nothing bleeds across benchmark reps or
campaign invocations."""

import dataclasses

import numpy as np
import pytest

import repro.perf as perf
from repro.grid.comms import CommsStats, DistributedLattice, reset_all_comms
from repro.grid.dist_wilson import DistributedWilson, distribute_gauge
from repro.grid.random import random_gauge, random_spinor
from repro.perf.counters import counters, reset_counters
from repro.simd import get_backend

DIMS = [4, 4, 4, 4]
MPI = [2, 1, 1, 1]


def _wilson():
    be = get_backend("generic256")
    from repro.grid.cartesian import GridCartesian
    grid = GridCartesian(DIMS, be)
    links = random_gauge(grid, seed=11)
    psi = random_spinor(grid, seed=7)
    dlinks = distribute_gauge(links, DIMS, be, MPI)
    w = DistributedWilson(dlinks, mass=0.1)
    dpsi = DistributedLattice(DIMS, be, MPI, (4, 3)).scatter(
        psi.to_canonical())
    return w, dpsi


class TestCommsStatsReset:
    def test_reset_zeroes_every_field(self):
        stats = CommsStats()
        # Touch every counter so a future field added without reset
        # support fails here.
        for f in dataclasses.fields(stats):
            setattr(stats, f.name, 7)
        stats.reset()
        for f in dataclasses.fields(stats):
            assert getattr(stats, f.name) == 0, f.name

    def test_traffic_counts_restart_from_zero(self):
        w, dpsi = _wilson()
        with perf.configured(enabled=True):
            w.dhop(dpsi)
        assert dpsi.stats.messages > 0
        dpsi.stats.reset()
        assert dpsi.stats.messages == dpsi.stats.bytes_sent == 0
        with perf.configured(enabled=True):
            w.dhop(dpsi)
        assert dpsi.stats.messages == 16


class TestResetAllComms:
    def test_clears_stats_and_queue_of_live_lattices(self):
        w, dpsi = _wilson()
        with perf.configured(enabled=True):
            w.dhop(dpsi)
        assert dpsi.stats.messages > 0
        # Leave a halo genuinely in flight, as an interrupted campaign
        # would (fault-injection teardown mid-exchange).
        dpsi._post_halo(0, 0)
        assert dpsi.comms_queue.pending >= 1
        n = reset_all_comms()
        assert n >= 1
        assert dpsi.stats.messages == 0
        assert dpsi.comms_queue.pending == 0

    def test_queue_usable_after_reset(self):
        w, dpsi = _wilson()
        dpsi._post_halo(0, 0)
        reset_all_comms()
        with perf.configured(enabled=True):
            out = w.dhop(dpsi)
        with perf.disabled():
            ref = w.dhop(dpsi)
        for r in range(dpsi.ranks.nranks):
            assert np.array_equal(out.locals[r].data, ref.locals[r].data)

    def test_campaign_suite_resets_comms(self):
        """run_cases (so every campaign run) starts from a clean comms
        slate."""
        from repro.scenarios.defaults import campaign_spec
        from repro.scenarios.runner import run_cases

        _, dpsi = _wilson()
        dpsi.stats.messages = 123
        run_cases(campaign_spec(), [])
        assert dpsi.stats.messages == 0


class TestPerfCounterReset:
    def test_halo_counters_reset(self):
        w, dpsi = _wilson()
        reset_counters()
        with perf.configured(enabled=True):
            w.dhop(dpsi)
        c = counters()
        assert c.halo_posts == c.halo_waits == 16
        reset_counters()
        c = counters()
        assert c.halo_posts == c.halo_waits == 0
