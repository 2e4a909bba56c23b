"""Overlapped halo exchange: bit-identity with the ordered serial
path across vector lengths, rank layouts, wire transforms and injected
comms faults; partition sanity; traffic accounting."""

import numpy as np
import pytest

import repro.perf as perf
from repro.engine.plan import kernel_plan
from repro.grid.cartesian import GridCartesian
from repro.grid.comms import DistributedLattice, LatencyModel
from repro.grid.dist_wilson import DistributedWilson, distribute_gauge
from repro.grid.random import random_gauge, random_spinor
from repro.grid.stencil import rank_halo
from repro.perf.counters import counters, reset_counters
from repro.resilience.inject import CommsFault, CommsFaultInjector, \
    FaultCampaign
from repro.simd import get_backend

DIMS = [4, 4, 4, 4]
LAYOUTS = [[2, 1, 1, 1], [2, 2, 1, 1]]
VLS = ["generic128", "generic256", "generic512"]


def _setup(backend_name, mpi, latency=None, **kwargs):
    be = get_backend(backend_name)
    grid = GridCartesian(DIMS, be)
    links = random_gauge(grid, seed=11)
    psi = random_spinor(grid, seed=7)
    dlinks = distribute_gauge(links, DIMS, be, mpi, **kwargs)
    w = DistributedWilson(dlinks, mass=0.1)
    dpsi = DistributedLattice(DIMS, be, mpi, (4, 3), latency=latency,
                              **kwargs).scatter(psi.to_canonical())
    return w, dpsi


def _both_paths(w, dpsi):
    """(ordered, overlapped) gathers plus their message-count deltas."""
    m0 = dpsi.stats.messages
    with perf.configured(enabled=True, overlap_comms=False):
        ordered = w.dhop(dpsi).gather()
    m_ordered = dpsi.stats.messages - m0
    with perf.configured(enabled=True, overlap_comms=True):
        overlapped = w.dhop(dpsi).gather()
    m_overlap = dpsi.stats.messages - m0 - m_ordered
    return ordered, overlapped, m_ordered, m_overlap


class TestBitIdentity:
    @pytest.mark.parametrize("backend_name", VLS)
    @pytest.mark.parametrize("mpi", LAYOUTS)
    def test_overlap_matches_ordered(self, backend_name, mpi):
        w, dpsi = _setup(backend_name, mpi)
        ordered, overlapped, m_ordered, m_overlap = _both_paths(w, dpsi)
        assert np.array_equal(ordered, overlapped)
        # Identical wire traffic, message for message.
        assert m_overlap == m_ordered > 0

    @pytest.mark.parametrize("mpi", LAYOUTS)
    def test_overlap_matches_engine_off(self, mpi):
        w, dpsi = _setup("generic256", mpi)
        with perf.disabled():
            reference = w.dhop(dpsi).gather()
        with perf.configured(enabled=True, overlap_comms=True):
            overlapped = w.dhop(dpsi).gather()
        assert np.array_equal(reference, overlapped)

    def test_identical_under_latency(self):
        w, dpsi = _setup("generic256", [2, 1, 1, 1],
                         latency=LatencyModel(latency_s=2e-4))
        ordered, overlapped, _, _ = _both_paths(w, dpsi)
        assert np.array_equal(ordered, overlapped)
        assert dpsi.comms_queue.wait_seconds > 0.0

    def test_identical_with_fp16_halos(self):
        w, dpsi = _setup("generic256", [2, 1, 1, 1], compress_halos=True)
        ordered, overlapped, _, _ = _both_paths(w, dpsi)
        assert np.array_equal(ordered, overlapped)

    def test_identical_with_checksummed_halos(self):
        w, dpsi = _setup("generic256", [2, 1, 1, 1], checksum_halos=True)
        ordered, overlapped, _, _ = _both_paths(w, dpsi)
        assert np.array_equal(ordered, overlapped)


class TestFaultyComms:
    """Transient wire faults under checksummed retry: both schedules
    post messages in the same global order, so the same seeded fault
    schedule hits the same halo in both — and both heal to the
    pristine answer."""

    def _faulty(self, faults):
        campaign = FaultCampaign(seed=3, name="overlap-comms")
        injector = CommsFaultInjector(campaign, faults)
        w, dpsi = _setup("generic256", [2, 1, 1, 1], checksum_halos=True,
                         comms_faults=injector)
        return w, dpsi, campaign

    @pytest.mark.parametrize("kind", ["drop", "corrupt", "truncate",
                                      "duplicate"])
    def test_transient_fault_heals_both_paths(self, kind):
        pristine_w, pristine_psi = _setup("generic256", [2, 1, 1, 1])
        with perf.configured(enabled=True, overlap_comms=False):
            want = pristine_w.dhop(pristine_psi).gather()

        # Ordered run: fault on message 3 of this dhop.
        w, dpsi, campaign = self._faulty([CommsFault(kind, message=3)])
        with perf.configured(enabled=True, overlap_comms=False):
            got_ordered = w.dhop(dpsi).gather()
        fired_ordered = campaign.fired

        # Overlapped run: fresh lattice, same schedule, same ordinal.
        w, dpsi, campaign = self._faulty([CommsFault(kind, message=3)])
        with perf.configured(enabled=True, overlap_comms=True):
            got_overlapped = w.dhop(dpsi).gather()

        assert np.array_equal(want, got_ordered)
        assert np.array_equal(want, got_overlapped)
        assert fired_ordered >= 1
        assert campaign.fired == fired_ordered
        assert dpsi.stats.retries >= 1 or kind == "duplicate"


class TestPartition:
    @pytest.mark.parametrize("mpi", LAYOUTS)
    def test_interior_and_shells_partition_sites(self, mpi):
        _, dpsi = _setup("generic256", mpi)
        halo = rank_halo(dpsi)
        stacked = dpsi.ranks.nranks * halo.sites
        combined = np.concatenate([halo.interior.sites, halo.shell.sites])
        assert np.array_equal(np.sort(combined), np.arange(stacked))
        # Interior sites read only their own shard; every shell site
        # reads a slab; no site reads another rank's columns.
        rank = np.arange(stacked) // halo.sites
        for part in (halo.interior, halo.shell):
            entries = np.stack(list(part.tables.values()))
            owner = rank[part.sites]
            assert np.all(entries // halo.width == owner)
            in_slab = entries % halo.width >= halo.sites
            if part is halo.interior:
                assert not in_slab.any()
            else:
                assert in_slab.any(axis=0).all()


class TestAccounting:
    def test_counters_and_plan_cache(self):
        # Setup exchanges the gauge links' backward shifts through
        # their own stats; snapshot after it so the deltas below are
        # this test's dhops alone.
        w, dpsi = _setup("generic256", [2, 1, 1, 1])
        reset_counters()
        m0 = dpsi.stats.messages
        with perf.configured(enabled=True, overlap_comms=True):
            assert kernel_plan(dpsi.grids[0], "dist-dhop").overlap
            w.dhop(dpsi)
            w.dhop(dpsi)
        c = counters()
        assert c.overlap_dhop_calls == 2
        assert c.halo_posts == dpsi.stats.messages - m0 == 32
        assert c.halo_waits == c.halo_posts
        # The halo tables are built once and memoized per grid.
        halo = rank_halo(dpsi)
        assert rank_halo(dpsi) is halo

    def test_overlap_inactive_when_disabled(self):
        _, dpsi = _setup("generic256", [2, 1, 1, 1])
        with perf.disabled():
            assert not kernel_plan(dpsi.grids[0], "dist-dhop").overlap
        with perf.configured(enabled=True, overlap_comms=False):
            assert not kernel_plan(dpsi.grids[0], "dist-dhop").overlap
