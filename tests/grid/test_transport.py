"""The Transport seam: protocol, policy routing, shmem lifecycle.

Covers the contract the refactor introduced: ``make_transport``
resolution, the scoped ``ExecutionPolicy.transport`` knob resolving
into :class:`~repro.engine.plan.KernelPlan`, backend switching on a
*live* lattice with no other code changes, the shared-memory backend's
bit-identity and traffic-accounting parity against the in-process
reference, the graceful-decline path for unreconstructible backends,
and teardown (reset releases every segment; no leaks)."""

import numpy as np
import pytest

import repro.engine as engine
import repro.telemetry as telemetry
from repro.engine.plan import kernel_plan
from repro.grid.cartesian import GridCartesian
from repro.grid.comms import (
    DistributedLattice,
    InProcessTransport,
    Transport,
    make_transport,
    shutdown_transport_runtimes,
)
from repro.grid.dist_wilson import DistributedWilson, distribute_gauge
from repro.grid.random import random_gauge, random_spinor
from repro.simd import get_backend

DIMS = [4, 4, 4, 4]
MPI = [2, 1, 1, 1]


@pytest.fixture(autouse=True, scope="module")
def _teardown_runtimes():
    """Every test in this module must leave no rank runtime (and no
    shared-memory segment) behind."""
    yield
    engine.reset_all()
    from repro.grid.comms.shmem import live_segments

    assert live_segments() == []


def _operator(backend, mpi=MPI, dims=DIMS, **lattice_kw):
    grid = GridCartesian(dims, backend)
    links = random_gauge(grid, seed=11)
    psi = random_spinor(grid, seed=7)
    dlinks = distribute_gauge(links, dims, backend, mpi)
    op = DistributedWilson(dlinks, mass=0.1)
    dpsi = DistributedLattice(dims, backend, mpi, (4, 3),
                              **lattice_kw).scatter(psi.to_canonical())
    return op, dpsi


class TestMakeTransport:
    def test_in_process_default(self):
        tr = make_transport(None)
        assert isinstance(tr, InProcessTransport)
        assert make_transport("in-process").name == "in-process"

    def test_shmem_resolves_lazily(self):
        from repro.grid.comms.shmem import SharedMemoryTransport

        assert isinstance(make_transport("shmem"), SharedMemoryTransport)

    def test_instance_passes_through(self):
        tr = InProcessTransport()
        assert make_transport(tr) is tr

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="transport must be one"):
            make_transport("carrier-pigeon")


class TestPolicyRouting:
    def test_policy_validates_transport(self):
        with pytest.raises(ValueError):
            with engine.scope(transport="carrier-pigeon"):
                pass

    def test_plan_carries_transport_for_dist_dhop_only(self):
        grid = GridCartesian(DIMS, get_backend("generic256"))
        with engine.scope(transport="shmem"):
            assert kernel_plan(grid, "dist-dhop").transport == "shmem"
            assert kernel_plan(grid, "dhop").transport == "in-process"
        assert kernel_plan(grid, "dist-dhop").transport == "in-process"

    def test_scope_switches_backend_on_live_lattice(self):
        """The acceptance criterion: an existing lattice follows the
        scope with no other code changes."""
        be = get_backend("generic256")
        dl = DistributedLattice(DIMS, be, MPI, (4, 3))
        assert dl.transport.name == "in-process"
        with engine.scope(transport="shmem"):
            assert dl.transport.name == "shmem"
        assert dl.transport.name == "in-process"

    def test_pinned_transport_ignores_scope(self):
        be = get_backend("generic256")
        dl = DistributedLattice(DIMS, be, MPI, (4, 3),
                                transport="in-process")
        with engine.scope(transport="shmem"):
            assert dl.transport.name == "in-process"

    def test_transport_memoized_per_policy_name(self):
        be = get_backend("generic256")
        dl = DistributedLattice(DIMS, be, MPI, (4, 3))
        with engine.scope(transport="shmem"):
            first = dl.transport
        with engine.scope(transport="shmem"):
            assert dl.transport is first


class TestSharedMemoryDhop:
    def test_bit_identical_with_traffic_parity(self):
        be = get_backend("generic256")
        op, dpsi = _operator(be)
        ref = op.dhop(dpsi).gather()
        ref_msgs, ref_bytes = dpsi.stats.messages, dpsi.stats.bytes_sent
        dpsi.stats.reset()
        with engine.scope(transport="shmem"):
            got = op.dhop(dpsi).gather()
        assert np.array_equal(ref, got)
        assert dpsi.stats.messages == ref_msgs
        assert dpsi.stats.bytes_sent == ref_bytes

    def test_compressed_checksummed_wire(self):
        be = get_backend("generic256")
        op, dpsi = _operator(be, compress_halos=True,
                             checksum_halos=True)
        ref = op.dhop(dpsi).gather()
        ref_msgs, ref_bytes = dpsi.stats.messages, dpsi.stats.bytes_sent
        dpsi.stats.reset()
        with engine.scope(transport="shmem"):
            got = op.dhop(dpsi).gather()
        assert np.array_equal(ref, got)
        # fp16-compressed wire: byte accounting must match exactly.
        assert dpsi.stats.messages == ref_msgs
        assert dpsi.stats.bytes_sent == ref_bytes

    def test_mailboxes_carry_face_slabs(self):
        """Each mailbox holds the raw face slab ``rank_halo`` names for
        its (mu, sign), gathered from the sender's shard — not the
        sender's whole field."""
        from repro.grid.comms.shmem import runtime_for
        from repro.grid.stencil import rank_halo
        from repro.perf.fused import to_working

        be = get_backend("generic256")
        op, dpsi = _operator(be, mpi=[2, 2, 1, 1])
        with engine.scope(transport="shmem"):
            op.dhop(dpsi)
        # The workers read the working-layout links, never the
        # lane-major back-links.
        assert op._links_back_lm is None
        halo = rank_halo(dpsi)
        g0 = dpsi.grids[0]
        segments = runtime_for(dpsi.ranks.nranks, g0.ndim).segments
        for (mu, sign), face in halo.faces.items():
            assert face.size == g0.lsites // g0.ldims[mu]
            for dst, sender in enumerate(halo.senders[(mu, sign)]):
                shard = to_working(dpsi.locals[sender].data).reshape(12, -1)
                slab = np.take(shard, face, axis=1)
                seg = segments[("mbox", dst, mu, "f" if sign > 0 else "b")]
                assert seg.size < shard.nbytes
                got = np.ndarray(slab.shape, dtype=slab.dtype,
                                 buffer=seg.buf)
                assert got.tobytes() == slab.tobytes(), (dst, mu, sign)

    def test_engine_off_declines_to_reference(self):
        from repro.grid.comms.shmem import SharedMemoryTransport

        be = get_backend("generic256")
        op, dpsi = _operator(be)
        with engine.scope(transport="shmem"):
            plan = kernel_plan(dpsi.grids[0], "dist-dhop",
                               engine.current_policy().replace(
                                   enabled=False))
            assert not plan.fused
            assert SharedMemoryTransport().run_dhop(op, dpsi, plan) is None

    def test_unreconstructible_backend_declines_to_reference(self):
        """A resilient wrapper cannot be rebuilt by registry key inside
        a worker; run_dhop must decline and the in-process sweep take
        over, bit-identically."""
        from repro.grid.comms.shmem import SharedMemoryTransport

        be = get_backend("avx", resilient=True)
        assert be.name.startswith("resilient(")
        op, dpsi = _operator(be)
        ref = op.dhop(dpsi).gather()
        with engine.scope(transport="shmem"):
            plan = kernel_plan(dpsi.grids[0], "dist-dhop")
            assert SharedMemoryTransport().run_dhop(op, dpsi, plan) is None
            got = op.dhop(dpsi).gather()
        assert np.array_equal(ref, got)

    def test_telemetry_counters_and_halo_wait_histogram(self):
        be = get_backend("generic256")
        op, dpsi = _operator(be)
        engine.reset_all()
        with engine.scope(transport="shmem", telemetry="metrics"):
            op.dhop(dpsi)
        snap = telemetry.snapshot()
        assert snap["transport.shmem.sweeps"] == 1
        assert snap["transport.shmem.messages"] == dpsi.stats.messages
        assert snap["transport.shmem.bytes"] == dpsi.stats.bytes_sent
        assert snap["transport.shmem.segments"] > 0
        assert snap["comms.halo_wait_seconds.count"] == 2  # one per rank

    def test_trace_span_wraps_shmem_sweep(self):
        be = get_backend("generic256")
        op, dpsi = _operator(be)
        engine.reset_all()
        with engine.scope(transport="shmem", telemetry="trace"):
            op.dhop(dpsi)
        names = [s.name for s in telemetry.spans()]
        assert "transport.shmem.dhop" in names


class TestTeardown:
    def test_reset_releases_every_segment(self):
        be = get_backend("generic256")
        op, dpsi = _operator(be)
        with engine.scope(transport="shmem"):
            op.dhop(dpsi)
        from repro.grid.comms.shmem import live_segments

        assert live_segments() != []
        summary = engine.reset_all()
        assert summary["transport_runtimes_closed"] >= 1
        assert summary["transport_segments_released"] > 0
        assert live_segments() == []

    def test_runtime_restarts_after_reset(self):
        be = get_backend("generic256")
        op, dpsi = _operator(be)
        with engine.scope(transport="shmem"):
            ref = op.dhop(dpsi).gather()
            engine.reset_all()
            got = op.dhop(dpsi).gather()
        assert np.array_equal(ref, got)

    def test_shutdown_without_runtimes_is_lazy_noop(self):
        shutdown_transport_runtimes()
        assert shutdown_transport_runtimes() == {"runtimes": 0,
                                                 "segments": 0}


class TestProtocolSurface:
    def test_base_transport_declines_run_dhop(self):
        be = get_backend("generic256")
        op, dpsi = _operator(be)
        assert Transport().run_dhop(op, dpsi, None) is None

    def test_post_and_wait_round_trip(self):
        be = get_backend("generic256")
        _op, dpsi = _operator(be)
        tr = dpsi.transport
        handle = tr.post_halo(dpsi, 0, 0)
        halo = tr.wait(handle)
        assert np.array_equal(halo, dpsi.locals[1].data)
        assert dpsi.stats.messages == 1
