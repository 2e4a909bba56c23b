"""SharedMemoryTransport: the rank runtime on ``multiprocessing``.

The first *real* transport backend: each simulated rank becomes an OS
process, lattice shards live in ``multiprocessing.shared_memory``
segments, and halo traffic crosses an actual process boundary through
per-edge single-slot mailboxes (one shared segment + a filled/empty
semaphore pair per directed edge ``(dst_rank, mu, kind)``).

Protocol (command-lockstep)
---------------------------
The parent drives every sweep as one synchronous command round:

1. parent writes each rank's ``psi`` shard (and, when the operator
   changed, its stretch of the operator's working-layout links and
   adjoint back-links) into that rank's segments, then sends one
   ``dhop`` command per worker over its pipe;
2. every worker copies its shard into an *extended* working array, as
   :func:`repro.grid.dist_wilson.halo_dhop` does in process, and first
   *posts* its face slab for every (mu, ±1) — the sites
   :func:`~repro.grid.stencil.rank_halo` names — into the mailbox of
   the rank that reads it, then *receives* its own slab per (mu, ±1)
   into the array's slab slots — all sends precede all receives and
   each mailbox is written exactly once per command, so the round is
   deadlock-free by construction;
3. each worker runs the block sweep over its extended array through
   the rank-local ``rank_halo`` tables and writes its ``out`` shard in
   place: the compiled kernel (:func:`repro.perf.fused.native_sweep`)
   where it loads in the worker, the numpy body
   (:func:`repro.perf.fused.sweep_blocks`) where it does not;
4. workers reply with their local :class:`~repro.grid.comms.lattice.
   CommsStats`, how long they blocked on halo arrival and which sweep
   ran; the parent merges stats, counts the sweeps
   (``native_sweeps``/``native_fallbacks``), feeds the PR 5 halo-wait
   histograms, and only then may start the next command — which is
   what guarantees every mailbox is empty again at the start of each
   round.

The transport declines (``run_dhop`` returns ``None``) when the plan
is not fused — the engine is off or the backend is not fused-safe — or
when a worker could not rebuild the backend; the caller's lane-major
reference then runs in process.

Bit-identity
------------
Each mailbox is sized to its slab, ``lsites / ldims[mu]`` sites, and
carries it **raw** (lossless).  The wire codec (fp16 compression,
CRC/retry, fault hooks — :func:`~repro.grid.comms.wire.exchange_field`)
is applied by the *receiver*, once per message, to each wired slab; a
renumbering slab (local extent 1, the neighbour's whole shard) is
copied raw and sends no message, as in process.  The slabs, tables and
body are those of the in-process sweep, so every value a rank reads
is the same in both, compressed or not; message and byte accounting
match the reference totals, and the results are bit-identical — which
the transport tests assert all the way through CG solves.

Lifecycle
---------
Runtimes are keyed ``(nranks, ndim)`` and started lazily on first use
(fork start method).  All segments are created by the parent, which
owns unlink; workers attach by name and deregister from the resource
tracker (Python registers on attach too — bpo-39959 — which would
otherwise double-unlink at worker exit).  :func:`shutdown_runtimes`
joins every worker and unlinks every segment; it is called by
``engine.reset_all`` (via :func:`~repro.grid.comms.transport.
shutdown_transport_runtimes`) and at interpreter exit, so teardown
leaves no live shared-memory segments behind.
"""

from __future__ import annotations

import atexit
import time
import traceback

import numpy as np

from repro.engine.policy import current_policy
from repro.engine.policy import scope as _engine_scope
from repro.grid.comms.faults import adapt_fault_hook
from repro.grid.comms.transport import Transport
from repro.grid.comms.wire import exchange_field
from repro.perf.counters import counters
from repro.telemetry import flightrec as _telemetry_flightrec
from repro.telemetry import merge as _telemetry_merge
from repro.telemetry import metrics as _telemetry_metrics
from repro.telemetry import trace as _telemetry_trace
from repro.telemetry.rankcollect import RankCollector

#: Seconds the parent waits for one worker reply before declaring the
#: runtime dead (a generous bound — one rank sweep is milliseconds).
COMMAND_TIMEOUT_S = 120.0


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _attach(cache: dict, name: str):
    """Attach a named segment (memoized per worker).

    Attaching registers with the resource tracker too (bpo-39959), but
    under fork the workers share the parent's tracker and its cache is
    a set — the duplicate registration collapses into the parent's own
    and the parent's unlink-time deregistration clears it, so no
    worker-side bookkeeping is needed (an explicit ``unregister`` here
    would make the parent's one a double-remove)."""
    shm = cache.get(name)
    if shm is None:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name)
        if len(cache) > 256:  # stale names from resized segments
            for old in cache.values():
                old.close()
            cache.clear()
        cache[name] = shm
    return shm


def _worker_halo(cache: dict, cmd: dict):
    """The (memoized) local grid, :class:`~repro.grid.stencil.RankHalo`
    and rank-local tables for a command's geometry, derived once per
    geometry from the same :meth:`DistributedLattice.cshift` the
    parent's tables come from.

    Every rank has the same local geometry, so the stacked tables are
    one rank's offset by ``r * width``: rank 0's stretch, copied
    contiguous with its largest entry, indexes any rank's own extended
    array."""
    key = (cmd["gdims"], cmd["mpi_layout"], cmd["simd_layout"],
           cmd["backend"], cmd["dtype"])
    hit = cache.get(key)
    if hit is None:
        from repro.grid.comms.lattice import DistributedLattice
        from repro.grid.stencil import rank_halo
        from repro.simd.registry import get_backend

        dist = DistributedLattice(list(cmd["gdims"]),
                                  get_backend(cmd["backend"],
                                              resilient=False),
                                  list(cmd["mpi_layout"]), (),
                                  simd_layout=list(cmd["simd_layout"]),
                                  dtype=np.dtype(cmd["dtype"]),
                                  transport="in-process")
        halo = rank_halo(dist)
        local = np.ascontiguousarray(halo.tables[:, :halo.sites])
        hit = cache[key] = (dist.grids[0], halo, local, int(local.max()))
    return hit


def _worker_dhop(rank: int, cmd: dict, sems: dict, seg_cache: dict,
                 geom_cache: dict) -> dict:
    """One rank's share of a distributed hopping sweep."""
    # The collector anchors the round at command receipt — build it
    # first so ``round_t0`` precedes every recorded span.  With the
    # knob off the sweep pays one ``is None`` check per seam.
    collector = (RankCollector(rank)
                 if cmd.get("telemetry") == "trace" else None)
    from repro.grid.comms.lattice import CommsStats
    from repro.perf import native
    from repro.perf.fused import (
        from_working, native_sweep, stored_links, sweep_blocks, sweep_order,
    )

    grid, halo, tables, top = _worker_halo(geom_cache, cmd)
    dtype = grid.dtype
    ndim, nl, n = grid.ndim, grid.nlanes, halo.sites
    keys = sweep_order(ndim)

    def view(name, shp):
        return np.ndarray(shp, dtype=dtype,
                          buffer=_attach(seg_cache, name).buf)

    shape = (grid.osites, 4, 3, nl)
    out = view(cmd["out_seg"], shape)
    links = view(cmd["link_seg"], (2 * ndim, 3, 3, n))
    # The extended working array: my shard, then one slab per (mu, ±1).
    ext = np.empty((12, halo.width), dtype=dtype)
    shard = ext[:, :n].reshape(4, 3, grid.osites, nl)
    shard[...] = np.moveaxis(view(cmd["psi_seg"], shape), 0, -2)

    # -- post: my face slabs into the receivers' mailboxes -------------
    # (every send precedes every receive; each mailbox starts empty at
    # command start — the lockstep protocol makes this deadlock-free).
    for key, (box, name) in zip(keys, cmd["produce"]):
        face = halo.faces[key]
        filled, empty = sems[tuple(box)]
        empty.acquire()
        np.take(ext, face, axis=1, out=view(name, (12, face.size)),
                mode="clip")
        filled.release()

    # -- receive: one slab per (mu, ±1), through the wire codec --------
    stats = CommsStats()
    injector = adapt_fault_hook(cmd["injector"])
    waited = 0.0
    for key, (box, name) in zip(keys, cmd["consume"]):
        filled, empty = sems[tuple(box)]
        t0 = time.perf_counter()
        filled.acquire()
        t1 = time.perf_counter()
        waited += t1 - t0
        if collector is not None:
            collector.record("rank.mailbox_wait", t0, t1,
                             mu=key[0], kind=box[2])
        slab = view(name, (12, halo.faces[key].size))
        if halo.wired[key]:
            # One wire transaction per slab: the receiver applies
            # exactly the codec the in-process exchange applies.
            stats.record(slab.size, cmd["compress"], dtype)
            t0 = time.perf_counter()
            slab = exchange_field(slab, compress=cmd["compress"],
                                  checksum=cmd["checksum"],
                                  injector=injector, stats=stats,
                                  max_retries=cmd["max_retries"],
                                  dtype=dtype)
            if collector is not None:
                collector.record("rank.wire", t0, time.perf_counter(),
                                 mu=key[0])
        # A renumbering slab (local extent 1) is copied raw.
        ext[:, halo.slots[key]] = slab
        # The slab is copied out: the producer may refill the mailbox
        # only in the next command round anyway.
        empty.release()

    hop = native.kernel(dtype)
    t0 = time.perf_counter()
    links = stored_links(links)
    if hop is not None:
        native_sweep(hop, ext, halo.width, tables, top, links, out, nl, nl,
                     None)
    else:
        def store(acc, b0, b1) -> None:
            from_working(acc, out[b0 // nl:b1 // nl])

        hops = [(sign, tables[k], mu) for k, (mu, sign) in enumerate(keys)]
        sweep_blocks(hops, ext, links, n, store, None, unit=nl)
    if collector is not None:
        collector.record("rank.sweep", t0, time.perf_counter())
    return {"ok": True, "stats": stats, "wait_seconds": waited,
            "native": hop is not None,
            "telemetry": None if collector is None
            else collector.payload()}


def _worker_main(rank: int, conn, sems: dict) -> None:
    """Rank worker: serve commands until ``exit`` (or EOF)."""
    seg_cache: dict = {}
    geom_cache: dict = {}
    while True:
        try:
            cmd = conn.recv()
        except EOFError:
            break
        if cmd.get("op") == "exit":
            break
        try:
            # Worker compute runs the in-process reference semantics:
            # no nested transports, serial tiles (each rank IS the
            # parallelism).
            with _engine_scope(enabled=True, workers=1,
                               transport="in-process", comms_faults=None,
                               telemetry="off"):
                reply = _worker_dhop(rank, cmd, sems, seg_cache,
                                     geom_cache)
        except BaseException:
            reply = {"ok": False, "error": traceback.format_exc()}
        try:
            conn.send(reply)
        except BrokenPipeError:  # parent went away mid-reply
            break
    for shm in seg_cache.values():
        shm.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

class _RankRuntime:
    """One pool of rank workers + their shared segments, keyed
    ``(nranks, ndim)``.  Geometry, fields and wire config travel per
    command, so one runtime serves every lattice of its rank count."""

    def __init__(self, nranks: int, ndim: int) -> None:
        import multiprocessing as mp

        self.nranks = int(nranks)
        self.ndim = int(ndim)
        self.poisoned = False
        self.rounds = 0           # lockstep rounds driven (telemetry)
        methods = mp.get_all_start_methods()
        self.ctx = mp.get_context("fork" if "fork" in methods
                                  else "spawn")
        # One filled/empty semaphore pair per directed edge mailbox.
        self.sems = {}
        for dst in range(self.nranks):
            for mu in range(self.ndim):
                for kind in ("f", "b"):
                    self.sems[(dst, mu, kind)] = (
                        self.ctx.Semaphore(0), self.ctx.Semaphore(1)
                    )
        self.segments: dict = {}      # role -> SharedMemory (parent-owned)
        self._link_owner = None       # (id(op), weakref) of resident links
        if self.ctx.get_start_method() == "fork":
            # Start the resource tracker *before* forking: the first
            # segment is only created after the workers exist, and a
            # worker with no inherited tracker would spawn its own,
            # which warns about every attach-registered segment at
            # worker exit (see _attach for the shared-tracker story).
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        self.pipes = []
        self.procs = []
        for r in range(self.nranks):
            parent_conn, child_conn = self.ctx.Pipe()
            proc = self.ctx.Process(target=_worker_main,
                                    args=(r, child_conn, self.sems),
                                    daemon=True,
                                    name=f"repro-rank-{r}")
            proc.start()
            child_conn.close()
            self.pipes.append(parent_conn)
            self.procs.append(proc)

    # -- segments -------------------------------------------------------
    def _segment(self, role, nbytes: int):
        """The parent-owned segment for ``role``, grown on demand
        (a grown segment gets a fresh name; commands always carry
        current names, so workers re-attach transparently)."""
        from multiprocessing import shared_memory

        seg = self.segments.get(role)
        if seg is None or seg.size < nbytes:
            if seg is not None:
                seg.close()
                seg.unlink()
            seg = shared_memory.SharedMemory(create=True, size=nbytes)
            self.segments[role] = seg
        return seg

    def _load(self, role, array: np.ndarray) -> str:
        """Copy ``array`` into the role's segment; returns its name."""
        seg = self._segment(role, array.nbytes)
        np.ndarray(array.shape, dtype=array.dtype,
                   buffer=seg.buf)[...] = array
        return seg.name

    def _load_links(self, op) -> list:
        """Upload each rank's stretch of the operator's stacked
        working-layout links, ``(2 ndim, 3, 3, N)`` per rank in sweep
        order.  They are static per operator: re-upload only when a
        different (or reborn) operator arrives.  Returns the segment
        names."""
        import weakref

        owner = self._link_owner
        roles = [("links", r) for r in range(self.nranks)]
        if owner is None or owner[0] != id(op) or owner[1]() is not op:
            links = op._sweep_links
            n = links.shape[-1] // self.nranks
            for r, role in enumerate(roles):
                seg = self._segment(role, links.itemsize * links.size
                                    // self.nranks)
                np.ndarray(links.shape[:-1] + (n,), dtype=links.dtype,
                           buffer=seg.buf)[...] = \
                    links[..., r * n:(r + 1) * n]
            self._link_owner = (id(op), weakref.ref(op))
        return [self.segments[role].name for role in roles]

    # -- the sweep ------------------------------------------------------
    def dhop(self, op, psi):
        """Run one distributed hopping sweep across the rank workers;
        returns the hop field as a new :class:`DistributedLattice`."""
        if self.poisoned:
            raise RuntimeError("shared-memory rank runtime is poisoned "
                               "(a previous command failed); reset_all "
                               "tears it down")
        g0 = psi.grids[0]
        shape = psi.locals[0].data.shape
        nbytes = psi.locals[0].data.nbytes
        ranks = psi.ranks
        link_names = self._load_links(op)
        psi_names, out_names = [], []
        for r in range(self.nranks):
            psi_names.append(self._load(("psi", r), psi.locals[r].data))
            out_names.append(self._segment(("out", r), nbytes).name)
        # Mailbox (dst, mu, 'f') carries dst's +mu slab, (dst, mu, 'b')
        # its -mu slab: the lsites / ldims[mu] face sites of the
        # sending neighbour, sized to exactly that.
        keys = [(mu, sign) for mu in range(self.ndim) for sign in (+1, -1)]
        kind = {+1: "f", -1: "b"}
        mbox = {}
        for dst in range(self.nranks):
            for mu, sign in keys:
                box = (dst, mu, kind[sign])
                slab = 12 * (g0.lsites // g0.ldims[mu]) * g0.dtype.itemsize
                mbox[box] = self._segment(("mbox",) + box, slab).name
        policy = current_policy()
        base = {
            "op": "dhop",
            # Workers collect spans only when told to: the command is
            # how the parent's scoped policy crosses the process
            # boundary (workers never see the parent's ContextVar).
            "telemetry": "trace" if policy.trace_active else "off",
            "gdims": tuple(int(d) for d in g0.gdims),
            "mpi_layout": tuple(int(m) for m in ranks.mpi_layout),
            "simd_layout": tuple(int(s) for s in g0.simd_layout),
            "backend": g0.backend.name,
            "dtype": str(g0.dtype),
            "compress": psi.compress_halos,
            "checksum": psi.checksum_halos,
            "max_retries": psi.max_retries,
            "injector": psi.comms_faults,
        }
        send_times = []
        for r in range(self.nranks):
            cmd = dict(base)
            cmd["psi_seg"] = psi_names[r]
            cmd["out_seg"] = out_names[r]
            cmd["link_seg"] = link_names[r]
            # Per (mu, sign): I post my face into the mailbox of the
            # rank whose (mu, sign) neighbour I am, and read my own.
            produce, consume = [], []
            for mu, sign in keys:
                dst = ranks.neighbour(r, mu, -sign)
                produce.append(((dst, mu, kind[sign]),
                                mbox[(dst, mu, kind[sign])]))
                consume.append(((r, mu, kind[sign]),
                                mbox[(r, mu, kind[sign])]))
            cmd["produce"] = produce
            cmd["consume"] = consume
            # The send timestamp is the clock-normalisation anchor for
            # this rank's spans: taken immediately before the pipe
            # write so the residual offset error is one pipe delivery.
            send_times.append(time.perf_counter())
            self.pipes[r].send(cmd)
        replies = []
        for r in range(self.nranks):
            if not self.pipes[r].poll(COMMAND_TIMEOUT_S):
                self.poisoned = True
                raise RuntimeError(
                    f"rank {r} did not reply within "
                    f"{COMMAND_TIMEOUT_S:.0f}s; runtime poisoned"
                )
            replies.append(self.pipes[r].recv())
        bad = [(r, rep) for r, rep in enumerate(replies)
               if not rep.get("ok")]
        if bad:
            self.poisoned = True
            r, rep = bad[0]
            raise RuntimeError(
                f"rank {r} sweep failed:\n{rep.get('error')}"
            )
        for rep in replies:
            psi.stats.merge(rep["stats"])
            counters().bump("native_sweeps" if rep["native"]
                            else "native_fallbacks")
        round_index = self.rounds
        self.rounds += 1
        self._observe(psi, replies, send_times, round_index)
        from repro.grid.lattice import Lattice

        out = psi.clone_empty()
        for r in range(self.nranks):
            seg = self.segments[("out", r)]
            data = np.ndarray(shape, dtype=g0.dtype,
                              buffer=seg.buf).copy()
            out.locals.append(Lattice(psi.grids[r], psi.tensor_shape,
                                      data=data))
        return out

    def _observe(self, psi, replies, send_times, round_index) -> None:
        """Feed transport counters, the PR 5 halo-wait histograms, and
        the cross-rank merge layer (per-rank labelled tallies at
        ``metrics``; shipped worker spans into the unified timeline at
        ``trace``)."""
        policy = current_policy()
        if not policy.metrics_active:
            return
        reg = _telemetry_metrics.registry()
        reg.counter("transport.shmem.sweeps").inc()
        reg.counter("transport.shmem.messages").inc(
            sum(rep["stats"].messages for rep in replies)
        )
        reg.counter("transport.shmem.bytes").inc(
            sum(rep["stats"].bytes_sent for rep in replies)
        )
        reg.gauge("transport.shmem.segments").set(
            float(len(self.segments))
        )
        hist = reg.histogram("comms.halo_wait_seconds")
        for rep in replies:
            hist.observe(rep["wait_seconds"])
        # Per-rank tallies come from the replies the protocol already
        # carries, so the ``metrics`` level needs no worker-side work.
        for r, rep in enumerate(replies):
            _telemetry_merge.record_rank_metrics(r, {
                "rank.messages": rep["stats"].messages,
                "rank.bytes": rep["stats"].bytes_sent,
                "rank.wait_seconds": rep["wait_seconds"],
                "rank.sweeps": 1,
            })
        merged = 0
        if policy.trace_active:
            merged = _telemetry_merge.ingest_round(
                [rep.get("telemetry") for rep in replies],
                send_times, round_index,
            )
        _telemetry_flightrec.record(
            "shmem.round", round=round_index, nranks=self.nranks,
            spans_merged=merged,
            max_wait_s=max(rep["wait_seconds"] for rep in replies),
        )

    # -- teardown -------------------------------------------------------
    def close(self) -> int:
        """Join workers and unlink every segment; returns how many
        segments were released."""
        for conn in self.pipes:
            try:
                conn.send({"op": "exit"})
            except (BrokenPipeError, OSError):
                pass
        for proc in self.procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self.pipes:
            conn.close()
        released = 0
        for seg in self.segments.values():
            try:
                seg.close()
                seg.unlink()
                released += 1
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self.segments.clear()
        self.pipes = []
        self.procs = []
        return released


#: Live runtimes keyed (nranks, ndim).
_RUNTIMES: dict = {}


def runtime_for(nranks: int, ndim: int) -> _RankRuntime:
    """The (lazily started) rank runtime for this shape."""
    key = (int(nranks), int(ndim))
    rt = _RUNTIMES.get(key)
    if rt is None or rt.poisoned:
        if rt is not None:
            rt.close()
        rt = _RankRuntime(*key)
        _RUNTIMES[key] = rt
    return rt


def live_segments() -> list:
    """Names of every parent-owned shared-memory segment still live
    (the leaked-segment check asserts this is empty after teardown)."""
    return sorted(
        seg.name
        for rt in _RUNTIMES.values()
        for seg in rt.segments.values()
    )


def shutdown_runtimes() -> dict:
    """Tear down every runtime: workers joined, segments unlinked.
    Returns ``{"runtimes": n, "segments": m}``."""
    runtimes = 0
    segments = 0
    for key in list(_RUNTIMES):
        rt = _RUNTIMES.pop(key)
        segments += rt.close()
        runtimes += 1
    return {"runtimes": runtimes, "segments": segments}


atexit.register(shutdown_runtimes)


class SharedMemoryTransport(Transport):
    """Halo exchange and rank sweeps over real OS processes.

    The parent-side halo surface (``post_halo``/``wait`` — used by the
    distributed shift for gauge gathers and observables) is inherited
    from the reference transport unchanged; what this class overrides
    is the whole-sweep hook: ``run_dhop`` ships the field to the rank
    runtime and returns the finished hop field.
    """

    name = "shmem"

    def run_dhop(self, op, psi, plan):
        g0 = psi.grids[0]
        backend = g0.backend
        if not (plan.fused and _reconstructible(backend)):
            # Workers run the block sweep, which needs a fused-safe
            # backend they can rebuild by registry key (not a resilient
            # wrapper or test double): otherwise decline, and the
            # caller's lane-major reference takes over.
            return None
        runtime = runtime_for(psi.ranks.nranks, g0.ndim)
        if not _telemetry_trace.tracing():
            return runtime.dhop(op, psi)
        with _telemetry_trace.span(
            "transport.shmem.dhop",
            nranks=psi.ranks.nranks,
            backend=backend.name,
            sites=g0.gsites,
        ):
            return runtime.dhop(op, psi)

    def close(self) -> None:
        shutdown_runtimes()


def _reconstructible(backend) -> bool:
    """True when a worker's ``get_backend(backend.name)`` yields the
    exact backend type the parent computes with (subclassed test
    doubles and resilient wrappers change semantics and must decline)."""
    from repro.simd.registry import get_backend

    name = getattr(backend, "name", None)
    if not name:
        return False
    try:
        rebuilt = get_backend(name, resilient=False)
    except Exception:
        return False
    return type(rebuilt) is type(backend)
