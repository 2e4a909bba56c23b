"""The distributed Wilson hop on the ordered block sweep.

Each rank sweeps its own shard plus the face slabs it received, and
each halo message carries exactly the slab it is accounted as.  Every
comparison is on raw bytes (float views and sign bits), against the
engine-off layered sweep and the single-rank ``WilsonDirac.dhop``.
Where the compiled kernel cannot load, the operator runs its lane-major
reference loop instead, to the same bytes on a pristine or checksummed
wire, and the shared-memory transport declines.
"""

import os

import numpy as np
import pytest

import repro.engine as engine
import repro.telemetry as telemetry
import repro.grid.dist_wilson as dist_wilson
from repro.engine.plan import kernel_plan
from repro.grid.cartesian import GridCartesian
from repro.grid.comms import DistributedLattice, shmem
from repro.grid.dist_wilson import DistributedWilson
from repro.grid.random import random_gauge, random_spinor
from repro.grid.solver import solve_wilson_cgne
from repro.grid.stencil import rank_halo
from repro.grid.wilson import WilsonDirac
from repro.perf import native
from repro.perf.counters import counters, reset_counters
from repro.resilience.inject import CommsFault, CommsFaultInjector, \
    FaultCampaign
from repro.simd import get_backend

DIMS = [4, 4, 4, 4]


@pytest.fixture(autouse=True)
def _clean_engine_state():
    engine.reset_all()
    yield
    engine.reset_all()


def _floats(a: np.ndarray) -> np.ndarray:
    return a.view(np.float64 if a.dtype == np.complex128 else np.float32)


def _assert_bytes_equal(got: np.ndarray, want: np.ndarray) -> None:
    g, w = _floats(got), _floats(want)
    assert np.array_equal(g, w)
    assert np.array_equal(np.signbit(g), np.signbit(w))


def _setup(backend="generic256", mpi=(2, 1, 1, 1), dims=DIMS,
           dtype=np.complex128, fp16_exact=False, **comms):
    """(single-rank operator, its field, distributed operator, field).

    ``fp16_exact`` rounds the source to fp16-representable values, so
    an fp16 wire carries it losslessly."""
    be = get_backend(backend)
    grid = GridCartesian(list(dims), be, dtype=dtype)
    links = random_gauge(grid, seed=11)
    psi = random_spinor(grid, seed=7)
    if fp16_exact:
        real = _floats(psi.data)
        real[...] = real.astype(np.float16)

    def dist(canonical, tensor):
        return DistributedLattice(list(dims), be, list(mpi), tensor,
                                  dtype=dtype, **comms).scatter(canonical)

    op = DistributedWilson([dist(u.to_canonical(), (3, 3)) for u in links],
                           mass=0.1)
    return (WilsonDirac(links, mass=0.1), psi, op,
            dist(psi.to_canonical(), psi.tensor_shape))


class _RecordingHook:
    """A perfect link that records every wire image it carries."""

    def __init__(self) -> None:
        self.sizes = []

    def deliver(self, payload, message, attempt, stats=None):
        self.sizes.append(payload.size)
        return [payload]


class TestWireImageIsTheAccountedSlab:
    @pytest.mark.parametrize("compress", [False, True])
    def test_payload_bytes_equal_accounted_bytes(self, compress):
        _w, _psi, op, dpsi = _setup(mpi=(2, 2, 1, 1),
                                    compress_halos=compress)
        hook = dpsi.comms_faults = _RecordingHook()
        m0, b0 = dpsi.stats.messages, dpsi.stats.bytes_sent
        op.dhop(dpsi)
        assert len(hook.sizes) == dpsi.stats.messages - m0 == 2 * 4 * 4
        assert sum(hook.sizes) == dpsi.stats.bytes_sent - b0


def _no_kernel(monkeypatch) -> None:
    """Hop as on a host where the compiled kernel cannot load."""
    monkeypatch.setattr(native, "kernel", lambda dtype: None)


def _layered_sweeps(grid, call):
    """``call()``'s result and the ``layered_sweeps`` it adds to
    ``grid``'s distributed hop plan."""
    stages = kernel_plan(grid, "dist-dhop").stages
    before = stages.as_dict().get("layered_sweeps", 0)
    out = call()
    return out, stages.as_dict().get("layered_sweeps", 0) - before


class TestShardIsolation:
    """Poison every other rank's columns once the halos are posted: a
    rank that reads only its own shard and its received slabs still
    gets the exact answer, on a checksummed wire with or without fp16
    compression, through the compiled kernel and the reference loop."""

    MPI = [(2, 1, 1, 1), (2, 2, 1, 1), (4, 1, 1, 1)]

    @staticmethod
    def _check(monkeypatch, mpi, compress, name):
        """Poison at ``dist_wilson.<name>``, the sweep the route
        dispatches to, and count that it ran."""
        _w, _psi, op, dpsi = _setup(mpi=mpi, checksum_halos=True,
                                    compress_halos=compress)
        want = [lat.data.copy() for lat in op.dhop(dpsi).locals]
        halo = rank_halo(dpsi)
        sweep = getattr(dist_wilson, name)
        for r in range(dpsi.ranks.nranks):
            shards = [lat.data.copy() for lat in dpsi.locals]

            def poisoned(*args, r=r, **kwargs):
                flat = args[1]  # both sweeps' source array
                for s in range(dpsi.ranks.nranks):
                    if s != r:
                        flat[:, s * halo.width:(s + 1) * halo.width] = \
                            np.nan
                        dpsi.locals[s].data[...] = np.nan
                return sweep(*args, **kwargs)

            monkeypatch.setattr(dist_wilson, name, poisoned)
            reset_counters()
            got = op.dhop(dpsi).locals[r].data
            native_sweeps = int(name == "native_sweep")
            assert (counters().native_sweeps, counters().native_fallbacks) \
                == (native_sweeps, 1 - native_sweeps)
            monkeypatch.setattr(dist_wilson, name, sweep)
            for lat, shard in zip(dpsi.locals, shards):
                lat.data[...] = shard
            _assert_bytes_equal(got, want[r])

    @pytest.mark.parametrize("mpi", MPI)
    @pytest.mark.parametrize("compress", [True, False])
    def test_other_ranks_poisoned_after_post(self, monkeypatch, mpi,
                                             compress):
        self._check(monkeypatch, mpi, compress, "native_sweep")

    @pytest.mark.parametrize("mpi", MPI)
    @pytest.mark.parametrize("compress", [True, False])
    def test_numpy_body_poisoned_after_post(self, monkeypatch, mpi,
                                           compress):
        """Without the kernel: the reference loop's rank ``r`` reads
        only its own shard of each shifted field, so poisoning the
        other ranks' shards as each exchange completes leaves it the
        kernel's bytes.  The fp16 wire gets a source it carries
        losslessly: the reference rounds other sites than the kernel's
        slab route (DESIGN §9)."""
        _w, _psi, op, dpsi = _setup(mpi=mpi, checksum_halos=True,
                                    compress_halos=compress,
                                    fp16_exact=compress)
        want = [lat.data.copy() for lat in op.dhop(dpsi).locals]
        _no_kernel(monkeypatch)
        shift = type(dpsi).cshift
        for r in range(dpsi.ranks.nranks):

            def poisoned(field, *args, r=r, **kwargs):
                out = shift(field, *args, **kwargs)
                for s, lat in enumerate(out.locals):
                    if s != r:
                        lat.data[...] = np.nan
                return out

            monkeypatch.setattr(type(dpsi), "cshift", poisoned)
            reset_counters()
            got, layered = _layered_sweeps(
                dpsi.grids[0], lambda: op.dhop(dpsi).locals[r].data)
            monkeypatch.setattr(type(dpsi), "cshift", shift)
            assert (counters().native_sweeps, layered) == (0, 1)
            _assert_bytes_equal(got, want[r])


LAYOUTS = [
    (DIMS, (2, 1, 1, 1)),
    (DIMS, (2, 2, 1, 1)),
    (DIMS, (1, 1, 2, 2)),
    (DIMS, (4, 1, 1, 1)),          # local extent 1 in a split dim
    ([6, 4, 4, 4], (2, 1, 1, 1)),  # odd local extent
    ([4, 6, 4, 4], (1, 2, 1, 1)),
    (DIMS, (2, 2, 2, 1)),          # 8 ranks
]


class TestBitIdentity:
    @pytest.mark.parametrize("backend", ["generic128", "generic256",
                                         "generic512"])
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("mpi", [(2, 1, 1, 1), (2, 2, 1, 1),
                                     (1, 1, 2, 2)])
    def test_backends_and_dtypes(self, backend, dtype, mpi):
        w, psi, op, dpsi = _setup(backend, mpi, dtype=dtype)
        got = op.dhop(dpsi).gather()
        _assert_bytes_equal(got, w.dhop(psi).to_canonical())
        with engine.scope(enabled=False):
            layered = op.dhop(dpsi).gather()
        _assert_bytes_equal(got, layered)

    @pytest.mark.parametrize("dims, mpi", LAYOUTS)
    def test_rank_layouts(self, dims, mpi):
        w, psi, op, dpsi = _setup(mpi=mpi, dims=dims)
        m0 = dpsi.stats.messages
        reset_counters()
        got = op.dhop(dpsi).gather()
        assert (counters().native_sweeps, counters().native_fallbacks) \
            == (1, 0)
        sweep_messages = dpsi.stats.messages - m0
        _assert_bytes_equal(got, w.dhop(psi).to_canonical())
        with engine.scope(enabled=False):
            layered = op.dhop(dpsi).gather()
        _assert_bytes_equal(got, layered)
        # Same messages as the layered route's distributed cshift.
        assert dpsi.stats.messages - m0 == 2 * sweep_messages

    @pytest.mark.parametrize("dims, mpi", LAYOUTS)
    def test_numpy_body_matches_the_kernel(self, dims, mpi, monkeypatch):
        """Where the kernel cannot load, the lane-major reference loop
        runs, to the same bytes, counted as the plan's
        ``layered_sweeps`` and no compiled sweep."""
        _w, _psi, op, dpsi = _setup(mpi=mpi, dims=dims)
        want = op.dhop(dpsi).gather()
        _no_kernel(monkeypatch)
        reset_counters()
        got, layered = _layered_sweeps(dpsi.grids[0],
                                       lambda: op.dhop(dpsi).gather())
        _assert_bytes_equal(got, want)
        assert (counters().native_sweeps, counters().native_fallbacks,
                layered) == (0, 0, 1)

    @pytest.mark.parametrize("route", ["native", "numpy"])
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_shmem_rank_workers(self, dtype, route, monkeypatch):
        """The shared-memory rank workers sweep their own shards by the
        compiled kernel to the single-rank hop's bytes, and the parent
        counts one sweep per rank.  Where the kernel does not load in
        the parent (route "numpy"), the transport declines before
        starting a runtime and the in-process reference gives the same
        bytes."""
        w, psi, op, dpsi = _setup(mpi=(2, 1, 1, 1), dtype=dtype)
        want = w.dhop(psi).to_canonical()
        if route == "numpy":
            _no_kernel(monkeypatch)
        reset_counters()
        with engine.scope(transport="shmem"):
            got = op.dhop(dpsi).gather()
        native_sweeps = 2 if route == "native" else 0
        assert (counters().native_sweeps, counters().native_fallbacks) \
            == (native_sweeps, 0)
        assert bool(shmem._RUNTIMES) == (route == "native")
        _assert_bytes_equal(got, want)

    def test_shmem_rank_without_kernel_fails_the_round(self, monkeypatch):
        """A rank worker whose own kernel does not load exchanges its
        slabs, sweeps nothing and fails the round loudly, naming the
        rank and the reason (the workers fork from this process, so
        they inherit the patch)."""
        _w, _psi, op, dpsi = _setup(mpi=(2, 1, 1, 1))
        parent, kernel = os.getpid(), native.kernel

        def rank_kernel(dtype):
            if os.getpid() != parent:
                monkeypatch.setattr(native, "_STATE", {
                    "kernels": {}, "reason": "no kernel in these ranks",
                    "keys": {}, "flags": ()})
            return kernel(dtype)

        monkeypatch.setattr(native, "kernel", rank_kernel)
        reset_counters()
        with engine.scope(transport="shmem"), pytest.raises(
                RuntimeError, match="rank 0 sweep failed:\n"
                "no compiled Wilson hop in this rank: no kernel in these "
                "ranks"):
            op.dhop(dpsi)
        assert counters().native_sweeps == 0

    @pytest.mark.parametrize("mpi", [(2, 1, 1, 1), (2, 2, 1, 1)])
    @pytest.mark.parametrize("wire", ["pristine", "checksum", "fp16"])
    def test_wires_and_workers(self, wire, mpi):
        """Serial and tiled sweeps agree on every wire and match the
        layered route — for fp16 halos on a source the fp16 wire
        carries losslessly — and, where the links' own back-shift was
        not fp16-rounded, the single-rank hop."""
        comms = {"checksum": {"checksum_halos": True},
                 "fp16": {"compress_halos": True}}.get(wire, {})
        w, psi, op, dpsi = _setup(mpi=mpi, fp16_exact=wire == "fp16",
                                  **comms)
        m0 = dpsi.stats.messages
        got = op.dhop(dpsi).gather()
        assert dpsi.stats.messages - m0 == 2 * 4 * dpsi.ranks.nranks
        with engine.scope(workers=4, tile_min_sites=16):
            _assert_bytes_equal(op.dhop(dpsi).gather(), got)
        with engine.scope(enabled=False):
            _assert_bytes_equal(op.dhop(dpsi).gather(), got)
        if wire != "fp16":
            _assert_bytes_equal(got, w.dhop(psi).to_canonical())

    @pytest.mark.parametrize("kind", ["drop", "corrupt", "truncate",
                                      "duplicate"])
    @pytest.mark.parametrize("compress", [True, False])
    def test_checksummed_transient_faults_heal(self, kind, compress):
        """A fault scheduled on message 5 fires there, once, and the
        checksummed retry heals it to the fault-free bytes: fp16
        compressed or not, serial or tiled."""
        wire = {"checksum_halos": True, "compress_halos": compress}
        _w, _psi, op, dpsi = _setup(mpi=(2, 2, 1, 1), **wire)
        want = op.dhop(dpsi).gather()
        for workers in (1, 4):
            campaign = FaultCampaign(seed=3, name="block-sweep-comms")
            _w, _psi, op, dpsi = _setup(mpi=(2, 2, 1, 1), **wire)
            dpsi.comms_faults = CommsFaultInjector(
                campaign, [CommsFault(kind, message=5)])
            with engine.scope(workers=workers, tile_min_sites=16):
                got = op.dhop(dpsi).gather()
            assert [e.target for e in campaign.events] == ["msg5"]
            assert dpsi.stats.retries >= 1 or kind == "duplicate"
            _assert_bytes_equal(got, want)

    def test_cg_matches_the_layered_route(self):
        _w, _psi, op, dpsi = _setup(mpi=(2, 2, 1, 1), checksum_halos=True)
        got = solve_wilson_cgne(op, dpsi, tol=1e-10, max_iter=40)
        with engine.scope(enabled=False):
            want = solve_wilson_cgne(op, dpsi, tol=1e-10, max_iter=40)
        assert got.iterations == want.iterations
        _assert_bytes_equal(got.x.gather(), want.x.gather())


class TestFaultyComms:
    """Transient wire faults on a 2-rank checksummed wire whose links
    and field share one injector: the serial and the tiled sweep post
    messages in the same order, so the same seeded schedule fires the
    same number of times in both — and both heal to the unchecksummed
    wire's answer."""

    @pytest.mark.parametrize("kind", ["drop", "corrupt", "truncate",
                                      "duplicate"])
    def test_transient_fault_heals_both_sweeps(self, kind):
        _w, _psi, op, dpsi = _setup()
        want = op.dhop(dpsi).gather()
        fired = []
        for workers in (1, 4):
            campaign = FaultCampaign(seed=3, name="ordered-sweep-comms")
            injector = CommsFaultInjector(campaign,
                                          [CommsFault(kind, message=3)])
            _w, _psi, op, dpsi = _setup(checksum_halos=True,
                                        comms_faults=injector)
            with engine.scope(workers=workers, tile_min_sites=16):
                got = op.dhop(dpsi).gather()
            _assert_bytes_equal(got, want)
            assert dpsi.stats.retries >= 1 or kind == "duplicate"
            fired.append(campaign.fired)
        assert fired[0] >= 1
        assert fired[1] == fired[0]


class TestTablesAndLinks:
    @pytest.mark.parametrize("dims, mpi", LAYOUTS)
    def test_tables_replay_the_distributed_cshift(self, dims, mpi):
        _w, _psi, _op, dpsi = _setup(mpi=mpi, dims=dims)
        halo = rank_halo(dpsi)
        n, width = halo.sites, halo.width
        nranks = dpsi.ranks.nranks
        flat = [lat.data.reshape(lat.grid.osites, 12, -1)
                .transpose(1, 0, 2).reshape(12, -1) for lat in dpsi.locals]
        stacked = np.zeros((12, nranks * width), dtype=flat[0].dtype)
        for r in range(nranks):
            stacked[:, r * width:r * width + n] = flat[r]
            for key, slot in halo.slots.items():
                stacked[:, r * width + slot.start:r * width + slot.stop] = \
                    flat[halo.senders[key][r]][:, halo.faces[key]]
        assert halo.tables.dtype == np.int64
        assert halo.tables.shape == (8, nranks * n)
        assert halo.tables.flags.c_contiguous
        assert halo.top == halo.tables.max()
        order = [(mu, sign) for mu in range(4) for sign in (+1, -1)]
        for (mu, sign), table in zip(order, halo.tables):
            shifted = dpsi.cshift(mu, sign)
            for r, lat in enumerate(shifted.locals):
                want = lat.data.reshape(lat.grid.osites, 12, -1) \
                    .transpose(1, 0, 2).reshape(12, -1)
                got = stacked[:, table[r * n:(r + 1) * n]]
                assert np.array_equal(got, want)

    def test_message_slab_is_the_accounted_halo(self):
        _w, _psi, _op, dpsi = _setup(mpi=(2, 2, 1, 1))
        halo = rank_halo(dpsi)
        for (mu, _sign), faces in halo.faces.items():
            n_complex, _nbytes = dpsi._halo_sizes_for(mu)
            assert faces.size * 12 == n_complex

    def test_default_route_leaves_lane_major_back_links_unbuilt(self):
        _w, _psi, op, dpsi = _setup(mpi=(2, 2, 1, 1))
        op.dhop(dpsi)
        assert op._links_back_lm is None
        with engine.scope(enabled=False):
            op.dhop(dpsi)
        assert op._links_back_lm is not None
        for mu in range(4):
            want = op.links[mu].cshift(mu, -1)
            for got, ref in zip(op.links_back[mu].locals, want.locals):
                _assert_bytes_equal(got.data, ref.data)


class TestAccounting:
    def test_pinned_halo_traffic(self):
        """One 2-rank hop on 4^4: the single-rank gather, in 16
        messages of 122880 bytes in all, every hop."""
        w, psi, op, dpsi = _setup()
        got = op.dhop(dpsi).gather()
        _assert_bytes_equal(got, w.dhop(psi).to_canonical())
        assert (dpsi.stats.messages, dpsi.stats.bytes_sent) == (16, 122880)
        dpsi.stats.reset()
        op.dhop(dpsi)
        assert dpsi.stats.messages == 16

    def test_span_names_kernel_and_contraction(self, monkeypatch):
        _w, _psi, op, dpsi = _setup()
        with engine.scope(telemetry="trace"):
            op.dhop(dpsi)
            _no_kernel(monkeypatch)
            op.dhop(dpsi)
        spans = [s for s in telemetry.drain_spans() if s.name == "dhop"]
        assert [s.attrs["kernel"] for s in spans] == ["native", "reference"]
        for span in spans:
            assert span.attrs["nranks"] == 2
            assert span.attrs["contraction"] == native.contraction_key(
                np.complex128)

    def test_counters_and_plan_cache(self):
        # Setup exchanges the gauge links' backward shifts through
        # their own stats; snapshot after it so the deltas below are
        # this test's hops alone.
        _w, _psi, op, dpsi = _setup()
        reset_counters()
        m0 = dpsi.stats.messages
        op.dhop(dpsi)
        op.dhop(dpsi)
        c = counters()
        assert c.halo_posts == dpsi.stats.messages - m0 == 32
        assert c.halo_waits == c.halo_posts
        assert dpsi.comms_queue.pending == 0
        # One policy resolution, replayed by the second hop; the halo
        # tables are built once and memoized per grid.
        assert (c.plan_misses, c.plan_hits) == (1, 1)
        grid = dpsi.grids[0]
        assert kernel_plan(grid, "dist-dhop") is kernel_plan(grid,
                                                             "dist-dhop")
        assert rank_halo(dpsi) is rank_halo(dpsi)
