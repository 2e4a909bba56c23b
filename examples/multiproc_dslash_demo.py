"""The shared-memory rank runtime: real processes, same answer.

Every distributed result in this repo so far came from *simulated*
ranks — one process, ``nranks`` lattice shards, halo "messages" that
are array copies.  The transport seam makes the backend a scoped
policy knob: ``engine.scope(transport="shmem")`` reruns the identical
code over a pool of OS rank processes, with lattice shards in
``multiprocessing.shared_memory`` segments and halo traffic crossing
real process boundaries through per-edge mailboxes.  This demo shows:

1. a 2-rank Wilson-Dslash sweep, bit-identical between the in-process
   reference and the shared-memory runtime — with identical message
   and byte accounting, because the wire codec (fp16 compression, CRC)
   is the same code applied to the same face slabs;
2. a CG solve through the rank runtime, agreeing to the last bit at
   every iteration count;
3. teardown: one ``engine.reset_all()`` joins every worker and unlinks
   every segment — nothing leaks.

Usage::

    python examples/multiproc_dslash_demo.py
"""

import numpy as np

import repro.engine as engine
from repro.grid.cartesian import GridCartesian
from repro.grid.comms import DistributedLattice
from repro.grid.dist_wilson import DistributedWilson, distribute_gauge
from repro.grid.random import random_gauge, random_spinor
from repro.grid.solver import solve_wilson_cgne
from repro.simd import get_backend

DIMS = [4, 4, 4, 4]
MPI = [2, 1, 1, 1]


def main() -> None:
    be = get_backend("generic256")
    grid = GridCartesian(DIMS, be)
    links = random_gauge(grid, seed=11)
    psi = random_spinor(grid, seed=7)

    dlinks = distribute_gauge(links, DIMS, be, MPI)
    op = DistributedWilson(dlinks, mass=0.1)
    dpsi = DistributedLattice(DIMS, be, MPI, (4, 3)).scatter(
        psi.to_canonical())

    print(f"== 1. dhop over {MPI} ranks: in-process vs shared-memory")
    ref = op.dhop(dpsi).gather()
    msgs, nbytes = dpsi.stats.messages, dpsi.stats.bytes_sent
    dpsi.stats.reset()
    with engine.scope(transport="shmem"):
        got = op.dhop(dpsi).gather()
    print(f"   in-process : {msgs} messages, {nbytes} bytes")
    print(f"   shmem      : {dpsi.stats.messages} messages, "
          f"{dpsi.stats.bytes_sent} bytes (real wire)")
    print(f"   bit-identical: {np.array_equal(ref, got)}")
    assert np.array_equal(ref, got)
    assert (dpsi.stats.messages, dpsi.stats.bytes_sent) == (msgs, nbytes)

    print("== 2. CG solve through the rank runtime")
    ref_solve = solve_wilson_cgne(op, dpsi, tol=1e-8, max_iter=50)
    with engine.scope(transport="shmem"):
        shm_solve = solve_wilson_cgne(op, dpsi, tol=1e-8, max_iter=50)
    print(f"   iterations : {ref_solve.iterations} == "
          f"{shm_solve.iterations}")
    same = np.array_equal(ref_solve.x.gather(), shm_solve.x.gather())
    print(f"   solution bit-identical: {same}")
    assert same and ref_solve.iterations == shm_solve.iterations

    print("== 3. teardown")
    summary = engine.reset_all()
    print(f"   runtimes closed  : {summary['transport_runtimes_closed']}")
    print(f"   segments released: "
          f"{summary['transport_segments_released']}")
    from repro.grid.comms.shmem import live_segments

    assert live_segments() == []
    print("   no live shared-memory segments remain")


if __name__ == "__main__":
    main()
