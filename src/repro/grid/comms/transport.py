"""The Transport protocol: the pluggable wire under the distributed
lattice.

A transport owns the four seams the distributed operators consume —
nothing else touches rank internals:

* ``post_halo(dist, src_rank, dim, payload=None) -> HaloHandle`` —
  start one +dim halo message for a rank (a face slab, or the
  neighbour's whole field), performing every deterministic wire step
  (accounting, compression, fault injection, checksum/retry)
  immediately;
* ``wait(handle)`` / ``drain()`` — completion, through the shared
  :class:`~repro.grid.comms.queue.AsyncCommsQueue` semantics;
* ``run_dhop(op, psi, plan)`` — the whole-sweep hook: a backend that
  executes rank sweeps itself (the shared-memory rank runtime) returns
  the finished field; the in-process reference returns ``None`` and
  the operator computes in the calling process;
* ``reset()`` / ``close()`` — counter hygiene and runtime teardown.

:class:`InProcessTransport` is the bit-identical reference: the
historical simulated exchange, byte-for-byte.  Every other backend is
measured against it.  Selection is a policy knob
(``engine.scope(transport="shmem")``) resolved into the
:class:`~repro.engine.plan.KernelPlan` like every other dispatch
decision; :func:`make_transport` maps the knob value to a backend.
"""

from __future__ import annotations

import sys

from repro.grid.comms.queue import AsyncCommsQueue, HaloHandle
from repro.grid.comms.wire import exchange_field

#: Legal ``ExecutionPolicy.transport`` values (mirrored by
#: :attr:`repro.engine.policy.ExecutionPolicy.TRANSPORTS`).
TRANSPORTS = ("in-process", "shmem")


class Transport:
    """Base transport: in-process wire semantics over an async queue.

    Subclasses that move the sweep elsewhere override ``run_dhop``
    (and ``close``); the halo/wire surface below is shared — the
    shared-memory backend, for instance, still routes parent-side
    shifts (gauge-link gathers, observables) through this exact
    reference wire.
    """

    #: The policy-knob value this transport answers to.
    name = "in-process"

    def __init__(self) -> None:
        self.queue = AsyncCommsQueue()

    # -- halo surface ---------------------------------------------------
    def post_halo(self, dist, src_rank: int, dim: int,
                  payload=None) -> HaloHandle:
        """Post one +dim halo message for ``src_rank`` to the in-flight
        queue; every message is accounted as one boundary slab
        (``dist._halo_sizes_for(dim)``).

        ``payload`` is the message.  The distributed Wilson sweep sends
        the face slab it gathered, so the wire image — what is
        compressed, checksummed and exposed to faults — is exactly the
        accounted message.  Without one, the message is the +dim
        neighbour's whole local field, which
        :meth:`DistributedLattice.cshift` (gauge gathers, observables)
        exchanges: wider than its accounting.

        Every deterministic step of the wire path — accounting,
        compression, fault injection, checksum verification, retry —
        runs *here at post time*; ``wait`` only hands over the
        (already final) received data.
        """
        if payload is None:
            payload = dist.locals[dist.ranks.neighbour(src_rank, dim,
                                                       +1)].data
        grid = dist.grids[src_rank]
        n_complex, nbytes = dist._halo_sizes_for(dim)
        dist.stats.record(n_complex, dist.compress_halos, grid.dtype)
        out = exchange_field(
            payload, compress=dist.compress_halos,
            checksum=dist.checksum_halos, injector=dist.comms_faults,
            stats=dist.stats, max_retries=dist.max_retries,
            dtype=grid.dtype,
        )
        return self.queue.post(out, nbytes, f"r{src_rank}+d{dim}")

    def wait(self, handle: HaloHandle):
        """Block until ``handle`` lands; returns the received data."""
        return self.queue.wait(handle)

    def drain(self) -> None:
        self.queue.drain()

    # -- whole-sweep hook -----------------------------------------------
    def run_dhop(self, op, psi, plan):
        """Execute a whole distributed hopping-term sweep, or return
        ``None`` to let the caller compute in-process (the reference
        behaviour)."""
        return None

    # -- lifecycle ------------------------------------------------------
    def reset(self) -> None:
        """Zero queue counters and discard in-flight halos (between
        benchmark repetitions / campaign runs)."""
        self.queue.reset()

    def close(self) -> None:
        """Release any backend runtime (processes, shared segments).
        The reference transport holds none."""


class InProcessTransport(Transport):
    """The bit-identical reference wire (see module docstring)."""

    name = "in-process"


def make_transport(kind) -> Transport:
    """Resolve a policy knob value (or a ready transport) to a
    :class:`Transport` instance."""
    if isinstance(kind, Transport):
        return kind
    if kind is None or kind == "in-process":
        return InProcessTransport()
    if kind == "shmem":
        from repro.grid.comms.shmem import SharedMemoryTransport

        return SharedMemoryTransport()
    raise ValueError(
        f"transport must be one of {TRANSPORTS} or a Transport "
        f"instance, got {kind!r}"
    )


def shutdown_transport_runtimes() -> dict:
    """Tear down every live shared-memory rank runtime (workers joined,
    segments unlinked).  Returns ``{"runtimes": n, "segments": m}``.

    Lazy by construction: if the shmem backend was never imported there
    is nothing to shut down and nothing is imported now — so
    ``engine.reset_all`` can call this unconditionally without paying
    the :mod:`multiprocessing` import.
    """
    mod = sys.modules.get("repro.grid.comms.shmem")
    if mod is None:
        return {"runtimes": 0, "segments": 0}
    return mod.shutdown_runtimes()
