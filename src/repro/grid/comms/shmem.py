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
   changed, its gauge-link shards) into that rank's segments, then
   sends one ``dhop`` command per worker over its pipe;
2. every worker first *posts* its own raw field into the mailboxes of
   both ``mu``-neighbours (for every ``mu``), then *receives* its two
   neighbour fields per ``mu`` — all sends precede all receives and
   each mailbox is written exactly once per command, so the round is
   deadlock-free by construction;
3. each worker runs the rank-local hopping sweep exactly as the
   in-process reference does — :func:`~repro.grid.cshift.cshift_local`
   with the neighbour field as the boundary, fused or layered
   accumulation in ascending-``mu``, +1-then-−1 order — and writes its
   ``out`` shard;
4. workers reply with their local :class:`~repro.grid.comms.lattice.
   CommsStats` and how long they blocked on halo arrival; the parent
   merges stats, feeds the PR 5 halo-wait histograms, and only then
   may start the next command — which is what guarantees every mailbox
   is empty again at the start of each round.

Bit-identity
------------
The mailboxes carry **raw, lossless** whole fields.  The wire codec
(fp16 compression, CRC/retry, fault hooks —
:func:`~repro.grid.comms.wire.exchange_field`) is applied by the
*receiver*, once per message, to the neighbour field whose face it
reads: the +mu neighbour's for the forward hop, the -mu neighbour's
for the backward hop.  The in-process sweep wires only those faces
(:mod:`repro.grid.overlap`); the codec is elementwise, so every value
a rank reads is the same in both, compressed or not.  Message and
byte accounting match the reference totals, and the results are
bit-identical — which the transport tests assert all the way through
CG solves.  A :class:`~repro.grid.comms.queue.
LatencyModel` never changes content, only availability, so it is
simply ignored here: the wire is real.

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
from repro.grid import compression
from repro.grid.comms.faults import adapt_fault_hook
from repro.grid.comms.queue import LatencyModel
from repro.grid.comms.transport import Transport
from repro.grid.comms.wire import exchange_field
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


def _worker_grid(cache: dict, cmd: dict):
    """The (memoized) local grid for a command's geometry."""
    key = (cmd["gdims"], cmd["mpi_layout"], cmd["simd_layout"],
           cmd["backend"], cmd["dtype"])
    grid = cache.get(key)
    if grid is None:
        from repro.grid.cartesian import GridCartesian
        from repro.simd.registry import get_backend

        grid = GridCartesian(list(cmd["gdims"]),
                             get_backend(cmd["backend"], resilient=False),
                             simd_layout=list(cmd["simd_layout"]),
                             mpi_layout=list(cmd["mpi_layout"]),
                             dtype=np.dtype(cmd["dtype"]))
        cache[key] = grid
    return grid


def _worker_dhop(rank: int, cmd: dict, sems: dict, seg_cache: dict,
                 grid_cache: dict) -> dict:
    """One rank's share of a distributed hopping sweep."""
    # The collector anchors the round at command receipt — build it
    # first so ``round_t0`` precedes every recorded span.  With the
    # knob off the sweep pays one ``is None`` check per seam.
    collector = (RankCollector(rank)
                 if cmd.get("telemetry") == "trace" else None)
    from repro.engine.plan import fused_safe_backend
    from repro.grid import gamma as g
    from repro.grid.comms.lattice import CommsStats
    from repro.grid.cshift import cshift_local
    from repro.grid.lattice import Lattice
    from repro.grid.tensor import su3_dagger_mul_vec, su3_mul_vec
    from repro.perf.fused import fused_dhop_rank

    grid = _worker_grid(grid_cache, cmd)
    dtype = grid.dtype
    tensor = tuple(cmd["tensor_shape"])
    shape = (grid.osites,) + tensor + (grid.nlanes,)
    lshape = (grid.osites, 3, 3, grid.nlanes)
    ndim = grid.ndim

    def view(name, shp):
        return np.ndarray(shp, dtype=dtype,
                          buffer=_attach(seg_cache, name).buf)

    own = view(cmd["psi_seg"], shape)
    acc = view(cmd["out_seg"], shape)
    links = [view(n, lshape) for n in cmd["link_segs"]]
    links_back = [view(n, lshape) for n in cmd["linkb_segs"]]

    # -- post: my raw field into both mu-neighbours' mailboxes --------
    # (every send precedes every receive; each mailbox starts empty at
    # command start — the lockstep protocol makes this deadlock-free).
    for mu in range(ndim):
        for key, name in (cmd["produce_f"][mu], cmd["produce_b"][mu]):
            filled, empty = sems[tuple(key)]
            empty.acquire()
            view(name, shape)[...] = own
            filled.release()

    # -- receive: my two neighbour fields per mu ------------------------
    waited = 0.0
    raw_next, raw_prev = [], []
    for mu in range(ndim):
        fields = []
        for key, name in (cmd["consume_f"][mu], cmd["consume_b"][mu]):
            filled, empty = sems[tuple(key)]
            t0 = time.perf_counter()
            filled.acquire()
            t1 = time.perf_counter()
            waited += t1 - t0
            if collector is not None:
                collector.record("rank.mailbox_wait", t0, t1,
                                 mu=mu, kind=key[2])
            # Read in place: the producer cannot rewrite this mailbox
            # until the next command round, which starts only after
            # every reply has reached the parent.
            fields.append(view(name, shape))
            empty.release()
        raw_next.append(fields[0])
        raw_prev.append(fields[1])

    stats = CommsStats()
    injector = adapt_fault_hook(cmd["injector"])
    compress = cmd["compress"]
    checksum = cmd["checksum"]
    max_retries = cmd["max_retries"]
    backend = grid.backend
    fused = cmd["fused"] and fused_safe_backend(backend)
    own_lat = Lattice(grid, tensor, data=own)

    def wired(field):
        """One wire transaction on a boundary field — the receiver
        applies exactly the codec the in-process exchange applies."""
        halo_sites = grid.lsites // grid.ldims[mu]
        n_complex = halo_sites * int(np.prod(tensor)) if tensor else \
            halo_sites
        stats.record(n_complex, compress, dtype)
        if collector is None:
            return exchange_field(field, compress=compress,
                                  checksum=checksum, injector=injector,
                                  stats=stats, max_retries=max_retries,
                                  dtype=dtype)
        t0 = time.perf_counter()
        out = exchange_field(field, compress=compress,
                             checksum=checksum, injector=injector,
                             stats=stats, max_retries=max_retries,
                             dtype=dtype)
        collector.record("rank.wire", t0, time.perf_counter(), mu=mu)
        return out

    acc[...] = 0
    # Worker compute runs the in-process reference semantics: no
    # nested transports, serial tiles (each rank IS the parallelism).
    with _engine_scope(enabled=True, workers=1, transport="in-process",
                       comms_faults=None, latency=None, telemetry="off"):
        for mu in range(ndim):
            t_dir = time.perf_counter() if collector is not None else 0.0
            gd = grid.gdims[mu]
            ld = grid.ldims[mu]
            steps_f, sf = divmod(1 % gd, ld)
            steps_b, sb = divmod((-1) % gd, ld)
            # fwd: src is me (ld > 1) or my +mu neighbour (ld == 1);
            # its boundary comes from *its* +mu neighbour through the
            # wire — the same field the reference path wires.
            if sf != 0:
                pf = cshift_local(own_lat, mu, sf,
                                  boundary_from=wired(raw_next[mu])).data
            else:
                pf = raw_next[mu] if steps_f else own
            # bwd: src is my -mu neighbour, through the wire (its face
            # is all I read of it); its +mu boundary is my own field.
            if sb != 0:
                src = Lattice(grid, tensor, data=wired(raw_prev[mu]))
                pb = cshift_local(src, mu, sb, boundary_from=own).data
            else:
                pb = raw_prev[mu] if steps_b else own
            if fused:
                fused_dhop_rank(acc, links[mu], links_back[mu], pf, pb, mu)
            else:
                be = backend
                h = g.project(be, pf, mu, +1)
                uh = su3_mul_vec(be, links[mu], h)
                a2 = be.add(acc, g.reconstruct(be, uh, mu, +1))
                h = g.project(be, pb, mu, -1)
                uh = su3_dagger_mul_vec(be, links_back[mu], h)
                acc[...] = be.add(a2, g.reconstruct(be, uh, mu, -1))
            if collector is not None:
                collector.record("rank.dhop_dir", t_dir,
                                 time.perf_counter(), mu=mu,
                                 fused=fused)
    return {"ok": True, "stats": stats, "wait_seconds": waited,
            "telemetry": None if collector is None
            else collector.payload()}


def _worker_main(rank: int, conn, sems: dict) -> None:
    """Rank worker: serve commands until ``exit`` (or EOF)."""
    seg_cache: dict = {}
    grid_cache: dict = {}
    while True:
        try:
            cmd = conn.recv()
        except EOFError:
            break
        if cmd.get("op") == "exit":
            break
        try:
            reply = _worker_dhop(rank, cmd, sems, seg_cache, grid_cache)
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

    def _load_links(self, op) -> tuple:
        """Gauge-link shards are static per operator: re-upload only
        when a different (or reborn) operator arrives."""
        import weakref

        owner = self._link_owner
        if owner is not None and owner[0] == id(op) \
                and owner[1]() is op:
            return self._link_names()
        for mu in range(self.ndim):
            for r in range(self.nranks):
                self._load(("link", mu, r), op.links[mu].locals[r].data)
                self._load(("linkb", mu, r),
                           op.links_back[mu].locals[r].data)
        self._link_owner = (id(op), weakref.ref(op))
        return self._link_names()

    def _link_names(self) -> tuple:
        link = [[self.segments[("link", mu, r)].name
                 for mu in range(self.ndim)]
                for r in range(self.nranks)]
        linkb = [[self.segments[("linkb", mu, r)].name
                  for mu in range(self.ndim)]
                 for r in range(self.nranks)]
        return link, linkb

    # -- the sweep ------------------------------------------------------
    def dhop(self, op, psi, plan=None):
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
        link_names, linkb_names = self._load_links(op)
        psi_names, out_names = [], []
        for r in range(self.nranks):
            psi_names.append(self._load(("psi", r), psi.locals[r].data))
            out_names.append(self._segment(("out", r), nbytes).name)
        mbox = {}
        for dst in range(self.nranks):
            for mu in range(self.ndim):
                for kind in ("f", "b"):
                    role = ("mbox", dst, mu, kind)
                    mbox[(dst, mu, kind)] = self._segment(role,
                                                          nbytes).name
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
            "tensor_shape": tuple(psi.tensor_shape),
            "compress": psi.compress_halos,
            "checksum": psi.checksum_halos,
            "max_retries": psi.max_retries,
            "injector": psi.comms_faults,
            # The plan's arithmetic route travels with the command
            # (the fused body is bit-identical to layered, but the
            # sweep should follow the resolved plan).
            "fused": bool(plan is None or plan.fused),
        }
        send_times = []
        for r in range(self.nranks):
            nxt = {mu: ranks.neighbour(r, mu, +1)
                   for mu in range(self.ndim)}
            prv = {mu: ranks.neighbour(r, mu, -1)
                   for mu in range(self.ndim)}
            cmd = dict(base)
            cmd["psi_seg"] = psi_names[r]
            cmd["out_seg"] = out_names[r]
            cmd["link_segs"] = link_names[r]
            cmd["linkb_segs"] = linkb_names[r]
            # Mailbox (dst, mu, 'f') carries the field of dst's +mu
            # neighbour; (dst, mu, 'b') the field of its -mu
            # neighbour.  I produce into my neighbours' boxes and
            # consume my own.
            cmd["produce_f"] = [((prv[mu], mu, "f"),
                                 mbox[(prv[mu], mu, "f")])
                                for mu in range(self.ndim)]
            cmd["produce_b"] = [((nxt[mu], mu, "b"),
                                 mbox[(nxt[mu], mu, "b")])
                                for mu in range(self.ndim)]
            cmd["consume_f"] = [((r, mu, "f"), mbox[(r, mu, "f")])
                                for mu in range(self.ndim)]
            cmd["consume_b"] = [((r, mu, "b"), mbox[(r, mu, "b")])
                                for mu in range(self.ndim)]
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

    def __init__(self, latency: LatencyModel = None) -> None:
        # The latency model shapes the *simulated* wire; this wire is
        # real, so the model is accepted (for the inherited in-process
        # surface) but never applied to rank-runtime traffic.
        super().__init__(latency)

    def run_dhop(self, op, psi, plan):
        g0 = psi.grids[0]
        backend = g0.backend
        if not _reconstructible(backend):
            # A backend the workers cannot rebuild by registry key
            # (resilient wrapper, test double): decline — the caller
            # falls back to the bit-identical in-process sweep.
            return None
        runtime = runtime_for(psi.ranks.nranks, g0.ndim)
        if not _telemetry_trace.tracing():
            return runtime.dhop(op, psi, plan)
        with _telemetry_trace.span(
            "transport.shmem.dhop",
            nranks=psi.ranks.nranks,
            backend=backend.name,
            sites=g0.gsites,
        ):
            return runtime.dhop(op, psi, plan)

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


# Re-exported for callers that reason about wire volume without a
# runtime (the bench harness).
def wire_bytes_for(psi, ndim: int = None) -> int:
    """Total wire bytes one dhop sweep moves (all ranks, all dims)."""
    g0 = psi.grids[0]
    ndim = g0.ndim if ndim is None else ndim
    total = 0
    for mu in range(ndim):
        if g0.ldims[mu] <= 1 and psi.ranks.mpi_layout[mu] > 1:
            continue  # whole-rank renumbering: no wire message
        halo_sites = g0.lsites // g0.ldims[mu]
        n_complex = halo_sites * int(np.prod(psi.tensor_shape))
        total += 2 * psi.ranks.nranks * compression.wire_bytes(
            n_complex, psi.compress_halos, g0.dtype
        )
    return total
