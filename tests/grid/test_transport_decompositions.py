"""Non-power-of-two decompositions through the shared-memory backend.

The rank runtime re-derives the local geometry from the command alone
(global dims, rank layout, SIMD layout, backend key), so every corner
of the decomposition math gets exercised over a *real* process
boundary: odd/prime local extents, single-site local dims (the
whole-rank-renumbering path that sends no wire message), multi-axis
rank grids, and each generic vector length.  Every case must be
bit-identical to the in-process reference — and a CG solve, which
stacks hundreds of sweeps, must agree to the last bit too."""

import numpy as np
import pytest

import repro.engine as engine
from repro.grid.cartesian import GridCartesian
from repro.grid.comms import DistributedLattice
from repro.grid.dist_wilson import DistributedWilson, distribute_gauge
from repro.grid.random import random_gauge, random_spinor
from repro.grid.solver import solve_wilson_cgne
from repro.simd import get_backend


@pytest.fixture(autouse=True, scope="module")
def _teardown_runtimes():
    yield
    engine.reset_all()
    from repro.grid.comms.shmem import live_segments

    assert live_segments() == []


def _dhop_pair(dims, mpi, backend_key, **wire):
    """Both transports' hop of one field, asserting message and byte
    parity; returns ``(in-process, shmem)`` gathered results."""
    be = get_backend(backend_key)
    grid = GridCartesian(dims, be)
    dlinks = distribute_gauge(random_gauge(grid, seed=11), dims, be, mpi,
                              **wire)
    op = DistributedWilson(dlinks, mass=0.1)
    dpsi = DistributedLattice(dims, be, mpi, (4, 3), **wire).scatter(
        random_spinor(grid, seed=7).to_canonical()
    )
    ref = op.dhop(dpsi).gather()
    ref_msgs, ref_bytes = dpsi.stats.messages, dpsi.stats.bytes_sent
    dpsi.stats.reset()
    with engine.scope(transport="shmem"):
        got = op.dhop(dpsi).gather()
    assert dpsi.stats.messages == ref_msgs
    assert dpsi.stats.bytes_sent == ref_bytes
    return ref, got


class TestDecompositions:
    @pytest.mark.parametrize("dims, mpi", [
        # odd (prime) local extent: 6/2 = 3 sites per rank in x
        ([6, 4, 4, 4], [2, 1, 1, 1]),
        # 1-d rank line, local extent 2
        ([8, 4, 4, 4], [4, 1, 1, 1]),
        # single-site local dim: whole-rank renumbering, no wire
        ([4, 4, 4, 4], [4, 1, 1, 1]),
        # multi-axis rank grid
        ([4, 4, 4, 4], [2, 2, 2, 1]),
        # odd extent on a non-leading axis
        ([4, 6, 4, 4], [1, 2, 1, 1]),
    ])
    def test_bit_identity_and_message_parity(self, dims, mpi):
        ref, got = _dhop_pair(dims, mpi, "generic256")
        assert np.array_equal(ref, got)

    @pytest.mark.parametrize("backend_key",
                             ["generic128", "generic256", "generic512"])
    def test_every_generic_vector_length(self, backend_key):
        ref, got = _dhop_pair([6, 4, 4, 4], [2, 1, 1, 1], backend_key)
        assert np.array_equal(ref, got)

    def test_fp16_halos_on_the_renumbering_decomposition(self):
        # fp16 slabs in x, y, z, t; the single-site x extent hands the
        # neighbour's shard over raw, without a message.
        ref, got = _dhop_pair([4, 4, 4, 4], [4, 1, 1, 1], "generic256",
                              compress_halos=True)
        assert np.array_equal(ref, got)


class TestSolveBitIdentity:
    @pytest.mark.parametrize("mpi", [[2, 1, 1, 1], [2, 2, 1, 1]])
    def test_cg_agrees_to_the_last_bit(self, mpi):
        dims = [4, 4, 4, 4]
        be = get_backend("generic256")
        grid = GridCartesian(dims, be)
        dlinks = distribute_gauge(random_gauge(grid, seed=11), dims,
                                  be, mpi)
        op = DistributedWilson(dlinks, mass=0.1)
        dpsi = DistributedLattice(dims, be, mpi, (4, 3)).scatter(
            random_spinor(grid, seed=7).to_canonical()
        )
        ref = solve_wilson_cgne(op, dpsi, tol=1e-8, max_iter=50)
        with engine.scope(transport="shmem"):
            got = solve_wilson_cgne(op, dpsi, tol=1e-8, max_iter=50)
        assert got.iterations == ref.iterations
        assert np.array_equal(ref.x.gather(), got.x.gather())
