"""Simulated rank-level domain decomposition with halo exchange.

The coarsest parallelization level of Section II-A: "a set of
sub-lattices is distributed over (a very large number of) different
processes, e.g., different MPI ranks."  Each "rank" is a sub-lattice
of one :class:`DistributedLattice`; how bytes move between ranks is
the business of the pluggable :class:`~repro.grid.comms.transport.
Transport` — the in-process reference copies buffers through the
byte-level wire codec (:mod:`repro.grid.comms.wire`), the
shared-memory backend (:mod:`repro.grid.comms.shmem`) runs real rank
processes over ``multiprocessing.shared_memory`` segments.  The
transferred volume is accounted either way so benchmarks can report
wire bytes.

The distributed circular shift reuses :func:`repro.grid.cshift.
cshift_local`, handing it the +dim neighbour rank's field for the
boundary lanes — so the virtual-node lane permutes and the rank halo
logic compose exactly as they do in Grid.

Resilience
----------
Production halo exchange runs for days over flaky interconnects, so
the wire path is byte-level and self-healing: every message can carry
a CRC-32 (``checksum_halos=True``), a :class:`repro.resilience.inject.
CommsFaultInjector` can drop/corrupt/truncate/duplicate messages, and
a detected-bad message is retransmitted with exponential backoff up to
``max_retries`` times before :class:`~repro.grid.comms.wire.
HaloExchangeError` is raised.  Without checksums the same faults are
applied *silently*: a dropped or truncated message is zero-filled, a
corrupted one is used as-is — the classic silent-data-corruption
failure mode the checksummed path exists to prevent.  With no injector
and no faults the checksummed path is bit-identical to the plain one.

Transport selection
-------------------
Which backend a lattice talks through is a scoped policy knob: the
``transport`` property resolves ``engine.scope(transport=...)`` into a
live backend instance on demand (memoized per backend name, shared
with clones), so existing code switches to the shared-memory rank
runtime with no changes beyond the scope.  A ``transport=`` ctor
argument pins a lattice to one backend regardless of policy.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.engine.policy import current_policy
from repro.grid import compression
from repro.grid.cartesian import GridCartesian
from repro.grid.comms.queue import AsyncCommsQueue, HaloHandle
from repro.grid.comms.transport import Transport, make_transport
from repro.grid.coordinates import coordinate_table, index_of, indices_of
from repro.grid.cshift import cshift_local
from repro.grid.lattice import Lattice
from repro.telemetry import metrics as _telemetry_metrics

__all__ = [
    "CommsStats", "RankGeometry", "DistributedLattice",
    "reset_all_comms", "invalidate_comms_plans",
]

#: Live distributed lattices, for :func:`reset_all_comms` (weakly held
#: so benchmark/test fixtures can reset stray state without keeping
#: lattices alive).
_LIVE_COMMS: "weakref.WeakSet" = weakref.WeakSet()


def reset_all_comms() -> int:
    """Clear the comms state of every live :class:`DistributedLattice`:
    traffic/resilience counters and any halo still in the in-flight
    queue of any of its transports.  Returns how many lattices were
    touched.  Called between benchmark repetitions and campaign runs
    (the comms analogue of :func:`repro.simd.resilient.
    reset_all_degraded`) so one run's counters cannot bleed into the
    next's gated metrics."""
    n = 0
    for dl in list(_LIVE_COMMS):
        dl.stats.reset()
        for tr in dl._transports.values():
            tr.reset()
        n += 1
    return n


def _collect_comms_metrics() -> dict:
    """Aggregate traffic/resilience stats and queue counters over every
    live :class:`DistributedLattice`, as a telemetry collector.

    Clones share their parent's ``stats`` and transport table, so
    aggregation dedupes by object identity.  The collector is a *view*:
    it resets with its owner (:func:`reset_all_comms`), which is what
    lets ``engine.reset_all`` produce a provably all-zero snapshot.
    """
    stats_seen: dict = {}
    queues_seen: dict = {}
    for dl in list(_LIVE_COMMS):
        stats_seen[id(dl.stats)] = dl.stats
        for tr in dl._transports.values():
            queues_seen[id(tr.queue)] = tr.queue
    out = {
        "comms.messages": 0, "comms.complex_sent": 0,
        "comms.bytes_sent": 0, "comms.retries": 0,
        "comms.detected_corruptions": 0, "comms.detected_drops": 0,
        "comms.duplicates_discarded": 0, "comms.recovered_messages": 0,
        "comms.unrecovered_failures": 0, "comms.backoff_units": 0,
        "comms.halo_posted": 0, "comms.halo_completed": 0,
        "comms.halo_pending": 0,
    }
    for st in stats_seen.values():
        out["comms.messages"] += st.messages
        out["comms.complex_sent"] += st.complex_sent
        out["comms.bytes_sent"] += st.bytes_sent
        out["comms.retries"] += st.retries
        out["comms.detected_corruptions"] += st.detected_corruptions
        out["comms.detected_drops"] += st.detected_drops
        out["comms.duplicates_discarded"] += st.duplicates_discarded
        out["comms.recovered_messages"] += st.recovered_messages
        out["comms.unrecovered_failures"] += st.unrecovered_failures
        out["comms.backoff_units"] += st.backoff_units
    for q in queues_seen.values():
        out["comms.halo_posted"] += q.posted
        out["comms.halo_completed"] += q.completed
        out["comms.halo_pending"] += q.pending
    return out


_telemetry_metrics.registry().register_collector(
    "comms", _collect_comms_metrics
)


def invalidate_comms_plans() -> int:
    """Drop the memoized shift decompositions and halo message sizes of
    every live :class:`DistributedLattice` (both are pure geometry, so
    this forces re-derivation without changing any result).  Part of
    :func:`repro.engine.reset_all` — these memos are caches and are
    treated uniformly with the trace and plan caches.  Returns how many
    lattices were touched."""
    n = 0
    for dl in list(_LIVE_COMMS):
        dl._shift_params.clear()
        dl._halo_sizes.clear()
        n += 1
    return n


@dataclass
class CommsStats:
    """Accounting of simulated network traffic and link health.

    The resilience counters record only what the *protocol* can
    observe: CRC mismatches, timeouts, retransmissions.  Whether a
    fault actually fired is known to the injector (and its campaign),
    not to the receiver.
    """

    messages: int = 0
    complex_sent: int = 0
    bytes_sent: int = 0
    # -- self-healing path ---------------------------------------------
    retries: int = 0
    detected_corruptions: int = 0
    detected_drops: int = 0
    duplicates_discarded: int = 0
    recovered_messages: int = 0
    unrecovered_failures: int = 0
    backoff_units: int = 0

    def record(self, n_complex: int, compressed: bool, dtype) -> None:
        self.messages += 1
        self.complex_sent += n_complex
        self.bytes_sent += compression.wire_bytes(n_complex, compressed, dtype)

    @property
    def detected_failures(self) -> int:
        """All protocol-visible delivery failures."""
        return self.detected_corruptions + self.detected_drops

    def merge(self, other: "CommsStats") -> None:
        """Fold another stats block into this one (rank workers keep
        local stats; the parent merges them after each sweep)."""
        self.messages += other.messages
        self.complex_sent += other.complex_sent
        self.bytes_sent += other.bytes_sent
        self.retries += other.retries
        self.detected_corruptions += other.detected_corruptions
        self.detected_drops += other.detected_drops
        self.duplicates_discarded += other.duplicates_discarded
        self.recovered_messages += other.recovered_messages
        self.unrecovered_failures += other.unrecovered_failures
        self.backoff_units += other.backoff_units

    def reset(self) -> None:
        """Zero every counter (between benchmark reps / campaign runs)."""
        self.messages = 0
        self.complex_sent = 0
        self.bytes_sent = 0
        self.retries = 0
        self.detected_corruptions = 0
        self.detected_drops = 0
        self.duplicates_discarded = 0
        self.recovered_messages = 0
        self.unrecovered_failures = 0
        self.backoff_units = 0


class RankGeometry:
    """The process grid: rank coordinate <-> rank index."""

    def __init__(self, mpi_layout) -> None:
        self.mpi_layout = [int(r) for r in mpi_layout]
        self.nranks = int(np.prod(self.mpi_layout))
        self._coors = coordinate_table(self.mpi_layout)

    def coor_of(self, rank: int):
        return tuple(int(c) for c in self._coors[rank])

    def rank_of(self, coor) -> int:
        coor = [c % r for c, r in zip(coor, self.mpi_layout)]
        return index_of(coor, self.mpi_layout)

    def neighbour(self, rank: int, dim: int, step: int) -> int:
        coor = list(self.coor_of(rank))
        coor[dim] += step
        return self.rank_of(coor)


class DistributedLattice:
    """One logical lattice split over ranks.

    Each rank holds a :class:`Lattice` over a local
    :class:`GridCartesian` (same backend and SIMD layout everywhere).

    Parameters
    ----------
    checksum_halos:
        Verify every halo message with a CRC-32 and retransmit on
        mismatch/timeout (the self-healing path).
    comms_faults:
        Optional fault injector (duck-typed: ``deliver(payload,
        message, attempt, stats) -> list[np.ndarray]``) applied to
        every wire message.  ``None`` means a perfect network.
    max_retries:
        Retransmissions allowed per message before the exchange gives
        up and raises :class:`~repro.grid.comms.wire.HaloExchangeError`
        (checksummed path only).
    transport:
        Pin this lattice to one backend: a name from
        :data:`repro.grid.comms.transport.TRANSPORTS` or a ready
        :class:`Transport` instance.  The default (``None``) resolves
        the backend dynamically from the scoped policy knob on every
        use, so ``engine.scope(transport="shmem")`` re-routes existing
        lattices too.

    ``comms_faults`` defaults to the current
    :class:`repro.engine.ExecutionPolicy`'s when not given explicitly,
    so whole campaigns can be scoped onto a faulty network with
    ``engine.scope(comms_faults=...)`` instead of threading the
    injector through every constructor.
    """

    def __init__(self, gdims, backend, mpi_layout, tensor_shape,
                 simd_layout=None, compress_halos: bool = False,
                 dtype=np.complex128, checksum_halos: bool = False,
                 comms_faults=None, max_retries: int = 3,
                 transport=None) -> None:
        if comms_faults is None:
            comms_faults = current_policy().comms_faults
        self.ranks = RankGeometry(mpi_layout)
        self.compress_halos = compress_halos
        self.checksum_halos = checksum_halos
        self.comms_faults = comms_faults
        self.max_retries = int(max_retries)
        self.stats = CommsStats()
        self._transports: dict = {}
        self._pinned_transport = None
        if transport is not None:
            self._pinned_transport = make_transport(transport)
            self._transports[self._pinned_transport.name] = \
                self._pinned_transport
        self._shift_params: dict = {}
        self._halo_sizes: dict = {}
        self.grids = []
        self.locals: list[Lattice] = []
        for r in range(self.ranks.nranks):
            grid = GridCartesian(gdims, backend, simd_layout=simd_layout,
                                 mpi_layout=mpi_layout, dtype=dtype)
            self.grids.append(grid)
            self.locals.append(Lattice(grid, tensor_shape))
        self.gdims = self.grids[0].gdims
        self.tensor_shape = self.locals[0].tensor_shape
        _LIVE_COMMS.add(self)

    # ------------------------------------------------------------------
    # Transport resolution
    # ------------------------------------------------------------------
    @property
    def transport(self) -> Transport:
        """The live backend this lattice talks through *right now*:
        the pinned one if the ctor fixed it, otherwise the scoped
        ``ExecutionPolicy.transport`` knob (falling back to the
        in-process reference whenever the engine is disabled).
        Instances are memoized per backend name and shared with
        clones, so counters and in-flight queues stay coherent."""
        if self._pinned_transport is not None:
            return self._pinned_transport
        policy = current_policy()
        name = policy.transport if policy.transport_active else "in-process"
        tr = self._transports.get(name)
        if tr is None:
            tr = make_transport(name)
            self._transports[name] = tr
        return tr

    @property
    def comms_queue(self) -> AsyncCommsQueue:
        """The current transport's in-flight halo queue (historical
        attribute, preserved as a view)."""
        return self.transport.queue

    def clone_empty(self) -> "DistributedLattice":
        """A new distributed field sharing geometry, comms config,
        stats, transports (hence in-flight queues) and the halo-size
        cache with ``self`` but holding no local lattices yet."""
        out = DistributedLattice.__new__(DistributedLattice)
        out.ranks = self.ranks
        out.compress_halos = self.compress_halos
        out.checksum_halos = self.checksum_halos
        out.comms_faults = self.comms_faults
        out.max_retries = self.max_retries
        out.stats = self.stats
        out._transports = self._transports
        out._pinned_transport = self._pinned_transport
        out._shift_params = self._shift_params
        out.grids = self.grids
        out.gdims = self.gdims
        out.tensor_shape = self.tensor_shape
        out._halo_sizes = self._halo_sizes
        out.locals = []
        _LIVE_COMMS.add(out)
        return out

    def uncompressed(self) -> "DistributedLattice":
        """This field on an uncompressed wire: the same shards, stats,
        checksums, fault injector and transports, but messages that
        carry full precision (and are accounted so).  Gauge links
        gather through it: Grid compresses fermion halos, not links."""
        if not self.compress_halos:
            return self
        out = self.clone_empty()
        out.locals = self.locals
        out.compress_halos = False
        out._halo_sizes = {}
        return out

    def new_like(self) -> "DistributedLattice":
        """A zero field on the same geometry (what the Krylov solvers
        ask of any field type)."""
        out = self.clone_empty()
        out.locals = [lat.new_like() for lat in self.locals]
        return out

    def copy(self) -> "DistributedLattice":
        """A deep copy of the field data (shared geometry/comms)."""
        out = self.clone_empty()
        out.locals = [lat.copy() for lat in self.locals]
        return out

    # ------------------------------------------------------------------
    # Global <-> local data movement
    # ------------------------------------------------------------------
    def scatter(self, global_canonical: np.ndarray) -> "DistributedLattice":
        """Load a canonical global array ``(gsites, *tensor)``."""
        g0 = self.grids[0]
        expected = (g0.gsites,) + self.tensor_shape
        global_canonical = np.asarray(global_canonical, dtype=g0.dtype)
        if global_canonical.shape != expected:
            raise ValueError(
                f"global canonical shape {global_canonical.shape} != "
                f"{expected}"
            )
        local_coors = coordinate_table(g0.ldims)
        for r, lat in enumerate(self.locals):
            rc = self.ranks.coor_of(r)
            offs = np.array([c * ld for c, ld in zip(rc, g0.ldims)])
            idx = indices_of(local_coors + offs[None, :], self.gdims)
            lat.from_canonical(global_canonical[idx])
        return self

    def gather(self) -> np.ndarray:
        """Export to a canonical global array (inverse of scatter)."""
        g0 = self.grids[0]
        out = np.empty((g0.gsites,) + self.tensor_shape, dtype=g0.dtype)
        local_coors = coordinate_table(g0.ldims)
        for r, lat in enumerate(self.locals):
            rc = self.ranks.coor_of(r)
            offs = np.array([c * ld for c, ld in zip(rc, g0.ldims)])
            idx = indices_of(local_coors + offs[None, :], self.gdims)
            out[idx] = lat.to_canonical()
        return out

    # ------------------------------------------------------------------
    # Halo exchange + shift (delegated to the transport)
    # ------------------------------------------------------------------
    def _halo_sizes_for(self, dim: int):
        """(n_complex, wire_bytes) of one +dim halo message — memoized
        only while the engine's cache knob is on (cache semantics are
        uniform across the stack: with ``caches_active`` off, no cache
        is consulted or populated)."""
        caching = current_policy().caches_active
        sizes = self._halo_sizes.get(dim) if caching else None
        if sizes is None:
            grid = self.grids[0]
            halo_sites = grid.lsites // grid.ldims[dim]
            n_complex = halo_sites * int(np.prod(self.tensor_shape))
            sizes = (n_complex, compression.wire_bytes(
                n_complex, self.compress_halos, grid.dtype))
            if caching:
                self._halo_sizes[dim] = sizes
        return sizes

    def _post_halo(self, src_rank: int, dim: int) -> HaloHandle:
        """Post the +dim neighbour-field exchange for ``src_rank``
        through the current transport (historical entry point,
        preserved as a delegation)."""
        return self.transport.post_halo(self, src_rank, dim)

    def _exchanged_field(self, src_rank: int, dim: int) -> np.ndarray:
        """The +dim neighbour's local field, through the (optionally
        compressing, optionally checksummed) wire — the ordered
        synchronous exchange: post, then immediately wait."""
        transport = self.transport
        return transport.wait(transport.post_halo(self, src_rank, dim))

    def _dist_shift_params(self, dim: int, shift: int):
        """(rank_steps, local_shift) decomposition of a global shift —
        the distributed half of the per-geometry plan cache (the
        rank-local half lives in :mod:`repro.grid.cshift`), memoized
        under the same engine cache knob as every other plan cache."""
        key = (dim, shift)
        caching = current_policy().caches_active
        params = self._shift_params.get(key) if caching else None
        if params is None:
            gshift = shift % self.gdims[dim]
            params = divmod(gshift, self.grids[0].ldims[dim])
            if caching:
                self._shift_params[key] = params
        return params

    def cshift(self, dim: int, shift: int) -> "DistributedLattice":
        """Distributed circular shift: ``out(x) = in(x + shift e_dim)``.

        Shifts are normalised into ``[0, ldims[dim])`` plus whole-rank
        steps, so arbitrary shifts work; each rank then shifts locally
        with its +dim neighbour's data covering the boundary lanes.
        Each message carries that neighbour's whole local field
        (accounted as one boundary slab): this shift serves gauge-link
        gathers, observables and the distributed Wilson reference
        route, while the default Wilson sweep sends face slabs only
        (:func:`repro.grid.dist_wilson.halo_dhop`).
        """
        rank_steps, local_shift = self._dist_shift_params(dim, shift)
        out = self.clone_empty()
        for r in range(self.ranks.nranks):
            # The data for rank r comes from the rank `rank_steps`
            # ahead (plus a local shift with that rank's +dim halo).
            src = self.ranks.neighbour(r, dim, rank_steps)
            boundary = None
            if local_shift != 0:
                boundary = self._fetch_for(src, dim)
            shifted = cshift_local(self.locals[src], dim, local_shift,
                                   boundary_from=boundary)
            out.locals.append(shifted)
        return out

    def _fetch_for(self, rank: int, dim: int) -> np.ndarray:
        return self._exchanged_field(rank, dim)

    # ------------------------------------------------------------------
    # Field arithmetic (rank-local + allreduce)
    # ------------------------------------------------------------------
    def binary(self, other: "DistributedLattice", fn) -> "DistributedLattice":
        out = self.clone_empty()
        out.locals = [fn(a, b) for a, b in zip(self.locals, other.locals)]
        return out

    def __add__(self, other):
        return self.binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self.binary(other, lambda a, b: a - b)

    def __mul__(self, scalar):
        out = self.clone_empty()
        out.locals = [a * scalar for a in self.locals]
        return out

    __rmul__ = __mul__

    def inner_product(self, other: "DistributedLattice") -> complex:
        """Rank-local inner products + simulated allreduce."""
        return sum(a.inner_product(b)
                   for a, b in zip(self.locals, other.locals))

    def norm2(self) -> float:
        return float(self.inner_product(self).real)
