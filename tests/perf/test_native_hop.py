"""The compiled Wilson hop (``repro.perf.native``, ``hop_cb.c``).

Every fused Wilson sweep runs the C kernel where it loads -- the
checkerboard hop ``WilsonDirac.dhop_cb`` on half fields, the full hop
``WilsonDirac.dhop`` reading and writing lane-major fields in place --
and the layered reference where it does not.  The kernel must equal the
layered reference byte for byte (``tobytes()``) wherever the layered
path gives NaNs the same bits, and in NaN positions everywhere -- for
both parities, both precisions and every ``generic`` width, serial and
tiled, under whichever numpy dispatch the process runs: the
kernel is built with the contraction
:func:`repro.perf.native.contraction_key` probes, so under host
dispatch these tests exercise the ``fma`` build and under numpy's
baseline dispatch the ``unfused`` one.

The kernel's contract is also pinned to the Wilson-Dslash IR
(:mod:`repro.vectorizer.wilson_ir`) evaluated in compressor order, byte
for byte on special values too, and the probe is pinned on hand-built
products.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import repro.engine as engine
import repro.telemetry as telemetry
from repro.engine.plan import kernel_plan
from repro.grid.cartesian import GridCartesian
from repro.grid.evenodd import SchurWilson
from repro.grid.lattice import Lattice
from repro.grid.propagator import point_source
from repro.grid.random import random_gauge, random_spinor
from repro.grid.stencil import red_black
from repro.grid.wilson import WilsonDirac
from repro.perf import fused, native
from repro.perf.counters import counters, reset_counters
from repro.simd import get_backend
from repro.vectorizer import wilson_ir

BACKENDS = ("generic128", "generic256", "generic512")
#: Every width: the full hop writes lane-major runs of 1 to 16 lanes.
ALL_BACKENDS = BACKENDS + ("generic1024",)
DTYPES = (np.complex128, np.complex64)
#: Gaussian; a point source (its exact zeros make every signed zero of
#: the hop count); ±0 and subnormals on a third of the components; ±inf
#: on a few sites; one NaN.
SOURCES = ("gaussian", "point", "zeros", "inf", "nan")
SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(autouse=True)
def _clean_engine_state():
    engine.reset_all()
    yield
    engine.reset_all()


def _source(grid, kind: str) -> Lattice:
    if kind == "point":
        return point_source(grid, (1, 0, 1, 1), 2, 1)
    psi = random_spinor(grid, seed=7)
    flat = psi.data.reshape(-1)
    rng = np.random.default_rng(5)
    tiny = np.finfo(flat.real.dtype).smallest_subnormal
    if kind == "zeros":
        picks = rng.choice(flat.size, flat.size // 3, replace=False)
        values = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(tiny, -tiny),
                  complex(-0.0, 3 * tiny)]
        for i, k in enumerate(picks):
            flat[k] = values[i % len(values)]
    elif kind == "inf":
        for k, v in zip(rng.choice(flat.size, 6, replace=False),
                        (complex(np.inf, 0), complex(0, -np.inf),
                         complex(-np.inf, 1), complex(2, np.inf),
                         complex(np.inf, -np.inf), complex(-np.inf, 0))):
            flat[k] = v
    elif kind == "nan":
        flat[flat.size // 3] = complex(np.nan, -0.0)
    return psi


def _operator(backend, dims, dtype=np.complex128, source="gaussian"):
    grid = GridCartesian(list(dims), get_backend(backend), dtype=dtype)
    return WilsonDirac(random_gauge(grid, seed=11), mass=0.1), \
        _source(grid, source)


def _counted(call, sweeps: int, **scope):
    """``call()`` under ``scope``, which must run ``sweeps`` compiled
    sweeps (a hop never counts a fallback)."""
    reset_counters()
    with engine.scope(**scope), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out = call()
    assert (counters().native_sweeps, counters().native_fallbacks) \
        == (sweeps, 0)
    return out


def _native_hop(dirac, half, **scope):
    return _counted(lambda: dirac.dhop_cb(half), 1, **scope)


def _native_full(dirac, psi, **scope):
    return _counted(lambda: dirac.dhop(psi), 1, **scope).data


def _no_kernel(call):
    """``call()`` where the kernel does not load: every hop runs the
    layered reference."""
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(native, "kernel", lambda dtype: None)
        warnings.simplefilter("ignore", RuntimeWarning)
        return call()


def _reference(dirac, half):
    """The layered full hop of the embedded field, restricted to the
    other parity."""
    target = "even" if half.grid.parity == "odd" else "odd"
    full = _layered(dirac, half.grid.embed(half))
    return red_black(dirac.grid, target).pick(
        Lattice(dirac.grid, half.tensor_shape, full))


def _layered(dirac, psi) -> np.ndarray:
    with engine.scope(enabled=False), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return dirac.dhop(psi).data


def _assert_matches_layered(got: np.ndarray, want: np.ndarray) -> None:
    """Byte for byte, except the sign bits and payloads of NaNs: the
    kernel subtracts where the layered path negates and adds, which
    gives propagated NaNs another sign bit, and where two NaNs meet
    either may come out (``tests/perf/test_tensor_major_dhop.py``)."""
    g, w = (a.view(a.real.dtype) for a in (got, want))
    assert np.array_equal(np.isnan(g), np.isnan(w))
    keep = ~np.isnan(w)
    assert g[keep].tobytes() == w[keep].tobytes()


def _halves(dirac, psi):
    return [red_black(dirac.grid, p).pick(psi) for p in ("odd", "even")]


def test_native_route_is_active():
    """This host has a compiler and numpy contracts one of the two
    known ways, so the tests below exercise the kernel."""
    for dtype in DTYPES:
        state = native.status(dtype)
        assert state["kernel"] == "native", state["reason"]
        assert state["key"] in ("fma", "unfused")
        assert f"-DFUSED_C{np.dtype(dtype).itemsize * 8}=" \
            f"{int(state['key'] == 'fma')}" in state["flags"]


class TestBytes:
    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("dtype", DTYPES, ids=("c128", "c64"))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_reference(self, backend, dtype, source):
        dirac, psi = _operator(backend, (4, 4, 4, 8), dtype, source)
        for half in _halves(dirac, psi):
            got = _native_hop(dirac, half)
            _assert_matches_layered(got.data, _reference(dirac, half).data)

    def test_nan_collisions_differ_in_payload_only(self):
        """Where two NaNs meet in one operation, IEEE 754 leaves open
        which one's sign and payload the result carries; numpy's loops
        and the compiled kernel may keep different ones.  Every other
        bit agrees, and NaN is where the layered reference has NaN."""
        dirac, psi = _operator("generic256", (4, 4, 4, 8))
        flat = psi.data.reshape(-1)
        rng = np.random.default_rng(9)
        nan = complex(np.nan, 1.0)
        for i, k in enumerate(rng.choice(flat.size, 60, replace=False)):
            flat[k] = (nan, -nan, complex(np.inf, 0))[i % 3]
        for half in _halves(dirac, psi):
            got = _native_hop(dirac, half).data.view(np.float64)
            want = _reference(dirac, half).data.view(np.float64)
            assert np.isnan(want).any()
            assert np.array_equal(np.isnan(got), np.isnan(want))
            keep = ~np.isnan(want)
            assert got[keep].tobytes() == want[keep].tobytes()

    @pytest.mark.parametrize("dtype", DTYPES, ids=("c128", "c64"))
    def test_multi_block_half_field(self, dtype):
        dirac, psi = _operator("generic256", (16, 8, 8, 16), dtype)
        assert dirac.grid.lsites // 2 >= 2 * fused.BLOCK_SITES
        for half in _halves(dirac, psi):
            want = _reference(dirac, half).data.tobytes()
            assert _native_hop(dirac, half).data.tobytes() == want

    @pytest.mark.parametrize("block", (1, 7, 100))
    def test_ragged_last_block(self, block, monkeypatch):
        dirac, psi = _operator("generic512", (4, 2, 6, 4), source="point")
        for half in _halves(dirac, psi):
            want = _reference(dirac, half).data.tobytes()
            monkeypatch.setattr(fused, "BLOCK_SITES", block)
            assert _native_hop(dirac, half).data.tobytes() == want
            monkeypatch.undo()

    @pytest.mark.parametrize("workers", (2, 4))
    @pytest.mark.parametrize("dtype", DTYPES, ids=("c128", "c64"))
    def test_workers_match_serial(self, dtype, workers):
        """Tiles call the kernel concurrently on disjoint sites, also
        with more workers than this host has cores."""
        dirac, psi = _operator("generic256", (4, 4, 4, 8), dtype, "zeros")
        for half in _halves(dirac, psi):
            serial = _native_hop(dirac, half, workers=1)
            tiled = _native_hop(dirac, half, workers=workers,
                                tile_min_sites=16)
            assert counters().tiles_dispatched == workers
            assert tiled.data.tobytes() == serial.data.tobytes()

    def test_schur_tail_fold(self):
        """The Schur operator's diagonal algebra runs in the kernel's
        store, block by block; the result equals the reference route
        with the same steps applied once, over all sites."""
        dirac, psi = _operator("generic256", (4, 4, 4, 8))
        schur = SchurWilson(dirac)
        half = schur.project(psi, "odd")
        got = _counted(lambda: schur.schur(half), 2)
        with engine.scope(enabled=False):
            want = schur.schur(half)
        assert got.data.tobytes() == want.data.tobytes()


class TestIR:
    """The kernel against :func:`repro.vectorizer.wilson_ir.evaluate` in
    compressor order: project the source, gather the half spinors,
    multiply and reconstruct-accumulate, per (mu, sign) in sweep
    order.  Byte for byte, NaN payloads included: on these sources no
    two NaNs meet in one operation."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("dtype", DTYPES, ids=("c128", "c64"))
    @pytest.mark.parametrize("source", SOURCES)
    def test_matches_ir_in_compressor_order(self, dtype, source):
        dirac, psi = _operator("generic256", (4, 4, 4, 4), dtype, source)
        scalar = "c64" if dtype == np.complex64 else "c128"
        half = red_black(dirac.grid, "odd").pick(psi)
        target = red_black(dirac.grid, "even")
        sweep = dirac._cb_hops(target)
        tables, links = sweep.tables, sweep.links.fields
        src = np.moveaxis(half.data.reshape(4, 3, -1), -1, 0)
        acc = np.zeros((tables.shape[1], 4, 3), dtype=dtype)
        for k in range(8):
            mu, sign = k // 2, (+1, -1)[k % 2]
            proj = np.empty((src.shape[0], 2, 3), dtype=dtype)
            halves = {wilson_ir.half_name(s, c): proj[:, s, c]
                      for s in range(2) for c in range(3)}
            wilson_ir.evaluate(
                wilson_ir.project_statements("psi", mu, sign, scalar),
                acc.copy(), psi=src, **halves)
            gathered = proj[tables[k]]
            # The IR's backward hop applies conj(U[b, a]) of the link it
            # is given; the stacked link is already that adjoint.
            u = np.moveaxis(links[k], -1, 0)
            stmts = wilson_ir.su3_statements("u", sign < 0, scalar)
            stmts += wilson_ir.accumulate_statements(mu, sign, scalar)
            wilson_ir.evaluate(
                stmts, acc, u=u if sign > 0 else np.conj(u).swapaxes(1, 2),
                **{wilson_ir.half_name(s, c): gathered[:, s, c]
                   for s in range(2) for c in range(3)})
        got = _native_hop(dirac, half).data.reshape(4, 3, -1)
        assert got.tobytes() == np.ascontiguousarray(
            np.moveaxis(acc, 0, -1)).tobytes()


class TestFullHop:
    """``dhop`` by the kernel, reading ``psi.data`` and writing the
    output in their lane-major layout."""

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("dtype", DTYPES, ids=("c128", "c64"))
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_matches_layered_and_numpy_body(self, backend, dtype, source):
        """The layered reference, which is also the route without a
        kernel; byte for byte where no NaN arises."""
        dirac, psi = _operator(backend, (4, 4, 4, 8), dtype, source)
        got = _native_full(dirac, psi)
        want = _layered(dirac, psi)
        _assert_matches_layered(got, want)
        if source not in ("inf", "nan"):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("dtype", DTYPES, ids=("c128", "c64"))
    def test_multi_block_field(self, dtype, workers):
        dirac, psi = _operator("generic256", (16, 8, 8, 16), dtype)
        assert dirac.grid.lsites >= 4 * fused.BLOCK_SITES
        got = _native_full(dirac, psi, workers=workers, tile_min_sites=16)
        assert counters().tiles_dispatched == workers
        assert got.tobytes() == _layered(dirac, psi).tobytes()

    @pytest.mark.parametrize("block", (1, 7, 100))
    @pytest.mark.parametrize("workers", (1, 2))
    def test_ragged_blocks(self, block, workers, monkeypatch):
        """Every width (1 to 16 lanes, so runs of links of every
        length) and both precisions."""
        for backend in ALL_BACKENDS:
            for dtype in DTYPES:
                dirac, psi = _operator(backend, (4, 2, 6, 4), dtype, "point")
                want = _layered(dirac, psi)
                with monkeypatch.context() as mp:
                    mp.setattr(fused, "BLOCK_SITES", block)
                    got = _native_full(dirac, psi, workers=workers,
                                       tile_min_sites=16)
                assert got.tobytes() == want.tobytes(), (backend, dtype)

    def test_nan_collisions_differ_in_payload_only(self):
        """As for the checkerboard hop: NaNs sit where the layered
        reference has them, and every other byte agrees."""
        dirac, psi = _operator("generic256", (4, 4, 4, 8))
        flat = psi.data.reshape(-1)
        rng = np.random.default_rng(9)
        nan = complex(np.nan, 1.0)
        for i, k in enumerate(rng.choice(flat.size, 60, replace=False)):
            flat[k] = (nan, -nan, complex(np.inf, 0))[i % 3]
        got = _native_full(dirac, psi)
        want = _layered(dirac, psi)
        assert np.isnan(want).any()
        _assert_matches_layered(got, want)

    def test_builds_tables_once_and_no_working_copy(self, monkeypatch):
        """The operator builds its lane-major tables on the first
        compiled hop; no hop transposes ``psi`` or stores through the
        working layout."""
        dirac, psi = _operator("generic256", (4, 4, 4, 8))
        assert dirac._sweep_tables is None
        dirac.dhop(psi)
        tables, top = dirac._sweep_tables.tables, dirac._sweep_tables.top
        assert tables.dtype == np.int64 and tables.shape == (8, psi.data.size
                                                             // 12)
        assert top == tables.max()
        for name in ("from_working", "to_working", "gather_links"):
            monkeypatch.setattr(fused, name, None)
        bodies = []
        run_tiles = fused.run_tiles
        monkeypatch.setattr(fused, "run_tiles", lambda body, *a: bodies.append(
            body.__name__) or run_tiles(body, *a))
        got = _native_full(dirac, psi)
        assert bodies == ["body"]  # the block loop, no entry transpose
        assert dirac._sweep_tables.tables is tables
        assert got.tobytes() == _layered(dirac, psi).tobytes()


def _special_links(dirac, seed: int) -> None:
    """Put ±0, subnormals, ±inf and NaNs of either sign into the real
    and imaginary parts of a few links of every direction, in place."""
    rng = np.random.default_rng(seed)
    real = dirac.grid.dtype.type(0).real.dtype.type
    tiny = np.finfo(real).smallest_subnormal
    nan = np.float64(np.nan)
    values = (0.0, -0.0, tiny, -3 * tiny, np.inf, -np.inf, nan, -nan)
    for u in dirac.links:
        parts = u.data.view(real).reshape(-1)
        for i, k in enumerate(rng.choice(parts.size, 48, replace=False)):
            parts[k] = real(values[i % len(values)])


def _stored_snapshot(dirac) -> np.ndarray:
    """The full hop's matrices as the kernel applied them before it read
    the links in place: ``(8, 3, 3, N)`` in sweep order, each ``U_mu``,
    then ``np.conj`` of the back-link gathered by ``cshift``, swapped."""
    from repro.grid.cshift import cshift

    stacked = []
    for mu, u in enumerate(dirac.links):
        back = fused.to_working(cshift(u, mu, -1).data)
        stacked += [fused.to_working(u.data),
                    np.conj(back).swapaxes(0, 1)]
    return np.ascontiguousarray(np.stack(stacked))


def _held_arrays(obj) -> list:
    """Every ndarray ``obj``'s attributes hold, directly or inside
    dicts, lists, tuples and link operands."""
    found, todo = [], list(vars(obj).values())
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, dict):
            todo.extend(item.values())
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
        elif isinstance(item, (native.LinkFields, native.BoundHop,
                               fused.Sweep)):
            todo.extend(vars(item).values())
    return found


class TestInPlaceLinks:
    """The full hop reads ``U_mu`` in place: at the output site for
    ``+mu``, at the neighbour and conjugate-transposed as it loads for
    ``-mu``.  No copy of the gauge field is made or kept."""

    @pytest.mark.parametrize("dtype", DTYPES, ids=("c128", "c64"))
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_conj_on_load_is_np_conj(self, backend, dtype):
        """Special values in forward and back-link positions: the same
        kernel over an ``np.conj`` snapshot of the links gives the same
        bytes, NaN payloads included (the operands and operations are
        the same); the layered reference agrees but for NaN signs and
        payloads."""
        dirac, psi = _operator(backend, (4, 4, 4, 8), dtype, "zeros")
        _special_links(dirac, seed=3)
        got = _native_full(dirac, psi)
        nl = dirac.grid.nlanes
        sweep = dirac._full_hop()
        snapshot = np.empty_like(got)
        hop = native.kernel(dtype)
        hop(sweep.tables, sweep.top, fused.stored_links(
            _stored_snapshot(dirac)), nl, nl, psi.data.size)(
            psi.data, snapshot)(0, sweep.n)
        assert np.isnan(got.view(got.real.dtype)).any()
        assert got.tobytes() == snapshot.tobytes()
        _assert_matches_layered(got, _layered(dirac, psi))

    @pytest.mark.parametrize("dtype", DTYPES, ids=("c128", "c64"))
    def test_numpy_body_reads_links_in_place(self, dtype):
        """The links the kernel reads in place, with signed zeros and
        subnormals among them, give the bytes of the route without a
        kernel -- the layered reference, counted as its plan's
        ``layered_sweeps`` -- serial and tiled."""
        dirac, psi = _operator("generic512", (4, 4, 4, 8), dtype, "point")
        for u in dirac.links:
            parts = u.data.view(u.data.real.dtype).reshape(-1)
            parts[::7] = -0.0
            parts[3::11] = np.finfo(parts.dtype).smallest_subnormal
        scope = dict(workers=2, tile_min_sites=16)
        want = _native_full(dirac, psi, **scope)
        with engine.scope(**scope):
            stages = kernel_plan(dirac.grid, "dhop").stages
            got = _no_kernel(lambda: _counted(lambda: dirac.dhop(psi), 0))
            assert stages.as_dict()["layered_sweeps"] == 1
        assert got.data.tobytes() == want.tobytes()

    def test_no_whole_lattice_copy(self):
        """After compiled full and checkerboard hops the operator holds
        no complex array but its own links and the per-parity
        checkerboard arrays.  (The reference route, without a kernel,
        holds the lane-major back-links ``WilsonDirac._links_back`` as
        well: its layered loop reads ``U_mu(x - mu)`` through them.)"""
        dirac, psi = _operator("generic256", (4, 4, 4, 8))
        dirac.dhop(psi)
        for half in _halves(dirac, psi):
            dirac.dhop_cb(half)
        assert dirac._links_back_lm is None
        held = [a for a in _held_arrays(dirac) if np.iscomplexobj(a)]
        own = {id(u.data) for u in dirac.links}
        cb = {id(sweep.links.fields[0].base): sweep.links.fields[0].base
              for sweep in dirac._links_cb.values()}
        assert len(cb) == 2 and held
        for a in held:
            assert id(a) in own or id(a.base) in cb
        for stacked in cb.values():
            assert stacked.shape == (8, 3, 3, dirac.grid.lsites // 2)

    def test_first_hop_allocates_less_than_a_gauge_field(self):
        """The first compiled hop of a fresh 8^4 operator -- tables,
        output and all -- allocates less than one gauge field, so a
        link snapshot cannot come back unnoticed."""
        import tracemalloc

        # The process's one-off costs first: the library and its probe.
        _native_full(*_operator("generic256", (4, 4, 4, 4)))
        dirac, psi = _operator("generic256", (8, 8, 8, 8))
        gauge = sum(u.data.nbytes for u in dirac.links)
        tracemalloc.start()
        try:
            _native_full(dirac, psi)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < gauge

    def test_tables_bypass_the_neighbour_memo(self):
        """The compiled full hop builds its offset tables straight from
        the stencil's derivation: no (mu, -1) table lands in the grid's
        memo, and tables plus memo stay within 96 bytes a site (6 MiB
        at 16^4)."""
        dirac, psi = _operator("generic256", (8, 8, 8, 8))
        _native_full(dirac, psi)
        memo = dirac.grid.__dict__.get("_nbr_tables", {})
        assert not [key for key in memo if key[1] == -1]
        tables = dirac._full_hop().tables
        spent = tables.nbytes + sum(t.nbytes for t in memo.values())
        assert spent <= 96 * dirac.grid.lsites


class TestReferenceRoute:
    """Where the kernel cannot load (``native.status()`` reads
    ``reference``), every hop runs the layered reference: the full hop
    its layered loop, the checkerboard hop embed, layered ``dhop``,
    pick and store.  Each counts its plan's ``layered_sweeps`` and no
    compiled sweep or fallback, its span reads ``kernel="reference"``,
    and its bytes are the kernel's."""

    def _check_fallback(self, monkeypatch, name: str, value, reason: str):
        """Hop without the kernel once ``native.<name>`` is ``value``
        and the library is loaded afresh (nothing is built)."""
        dirac, psi = _operator("generic256", (4, 4, 4, 8), source="point")
        half = red_black(dirac.grid, "odd").pick(psi)
        want_half = _native_hop(dirac, half)
        want_full = _native_full(dirac, psi)
        engine.reset_all()
        monkeypatch.setattr(native, "_STATE", {})
        monkeypatch.setattr(native, name, value)
        embeds = []
        embed = type(half.grid).embed
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(type(half.grid), "embed",
                       lambda g, x: embeds.append(x) or embed(g, x))
            got = _counted(lambda: dirac.dhop_cb(half), 0, telemetry="trace")
        assert len(embeds) == 1 and counters().fused_dhop_calls == 0
        (span,) = [s for s in telemetry.drain_spans() if s.name == "dhop.cb"]
        assert span.attrs["kernel"] == "reference"
        state = native.status()
        assert state["kernel"] == "reference"
        assert reason in state["reason"]
        assert got.data.tobytes() == want_half.data.tobytes()
        stages = kernel_plan(dirac.grid, "dhop").stages
        full = _counted(lambda: dirac.dhop(psi), 0)
        assert full.data.tobytes() == want_full.tobytes()
        assert stages.as_dict() == {"layered_sweeps": 1}

    def test_no_compiler(self, monkeypatch):
        self._check_fallback(monkeypatch, "find_compiler", lambda: None,
                             "no C compiler")
        assert native.status()["compiler"] == "none"

    def test_unknown_contraction_key(self, monkeypatch):
        self._check_fallback(monkeypatch, "contraction_key",
                             lambda dtype: "unknown",
                             "neither fma nor unfused")

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("dtype", DTYPES, ids=("c128", "c64"))
    def test_half_hop_bytes(self, dtype, workers):
        dirac, psi = _operator("generic256", (4, 4, 4, 8), dtype, "zeros")
        for half in _halves(dirac, psi):
            want = _native_hop(dirac, half)
            got = _no_kernel(lambda: _counted(
                lambda: dirac.dhop_cb(half), 0, workers=workers,
                tile_min_sites=16))
            assert got.data.tobytes() == want.data.tobytes()

    def test_schur_tail_fold(self):
        dirac, psi = _operator("generic256", (4, 4, 4, 8))
        schur = SchurWilson(dirac)
        half = schur.project(psi, "odd")
        got = _no_kernel(lambda: _counted(lambda: schur.schur(half), 0))
        want = _counted(lambda: schur.schur(half), 2)
        assert got.data.tobytes() == want.data.tobytes()

    def test_engine_off_is_not_a_fallback(self):
        dirac, psi = _operator("generic256", (4, 4, 4, 8))
        half = red_black(dirac.grid, "odd").pick(psi)
        _counted(lambda: dirac.dhop_cb(half), 0, enabled=False)
        _counted(lambda: dirac.dhop(psi), 0, enabled=False)


def test_span_names_kernel_and_contraction():
    dirac, psi = _operator("generic256", (4, 4, 4, 4), np.complex64)
    half = red_black(dirac.grid, "odd").pick(psi)
    with engine.scope(telemetry="trace"):
        dirac.dhop_cb(half)
        dirac.dhop(psi)
        with engine.scope(enabled=False):
            dirac.dhop(psi)
    spans = [s for s in telemetry.drain_spans()
             if s.name in ("dhop.cb", "dhop")]
    assert [(s.name, s.attrs["kernel"]) for s in spans] == [
        ("dhop.cb", "native"), ("dhop", "native"), ("dhop", "reference")]
    for span in spans:
        assert span.attrs["contraction"] == native.contraction_key(
            np.complex64)


# -- the probe -----------------------------------------------------------------


def _emulated(first: bool, second: bool):
    """A complex multiply that fuses the first and/or second product of
    each component (``re = a.re b.re - a.im b.im``, ``im = a.re b.im +
    a.im b.re``), computed exactly and rounded once per operation."""

    def rnd(x, real):
        return real(float(x))

    def mul(a, b):
        a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
        real = a.real.dtype.type
        out = np.empty(a.shape, dtype=a.dtype)
        for i, (x, y) in enumerate(zip(a.flat, b.flat)):
            ar, ai, br, bi = (Fraction(float(v)) for v in
                              (x.real, x.imag, y.real, y.imag))

            def part(p, q, sign):
                if first:  # p exact, q rounded
                    return rnd(p + sign * Fraction(float(rnd(q, real))), real)
                if second:  # q exact, p rounded
                    return rnd(Fraction(float(rnd(p, real))) + sign * q, real)
                return rnd(Fraction(float(rnd(p, real)))
                           + sign * Fraction(float(rnd(q, real))), real)

            out.flat[i] = complex(part(ar * br, ai * bi, -1),
                                  part(ar * bi, ai * br, +1))
        return out

    return mul


class TestProbe:
    @pytest.mark.parametrize("dtype", DTYPES, ids=("c128", "c64"))
    def test_hand_built_products(self, dtype):
        assert native.classify(_emulated(True, False), dtype) == "fma"
        assert native.classify(_emulated(False, False), dtype) == "unfused"
        # A dispatch that fuses the other product is neither.
        assert native.classify(_emulated(False, True), dtype) == "unknown"

    @pytest.mark.parametrize("dtype", DTYPES, ids=("c128", "c64"))
    def test_contiguous_and_broadcast_calls_must_agree(self, dtype):
        fma, unfused = _emulated(True, False), _emulated(False, False)

        def mixed(a, b):
            return (fma if np.ndim(b) else unfused)(a, b)

        assert native.classify(mixed, dtype) == "unknown"

    @pytest.mark.parametrize("dtype", DTYPES, ids=("c128", "c64"))
    def test_numpy_is_classified(self, dtype):
        key = native.classify(np.multiply, dtype)
        assert key in ("fma", "unfused")
        assert key == native.contraction_key(dtype)


# -- build hygiene -------------------------------------------------------------

_BUILDER = """
import sys
from pathlib import Path
import numpy as np
from repro.perf import native
native.BUILD_DIR = Path(sys.argv[1])
state = native.status(np.complex128)
print(state["kernel"], state["path"], state["reason"])
"""


def test_concurrent_builders_both_load(tmp_path):
    """Two processes that build the same key at once both load a whole
    library, and no temporary file is left behind."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    procs = [subprocess.Popen(
        [sys.executable, "-c", _BUILDER, str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        for _ in range(2)]
    outs = [p.communicate(timeout=600) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], outs
    kinds = {out.split()[0] for out, _err in outs}
    paths = {out.split()[1] for out, _err in outs}
    assert kinds == {"native"}, outs
    (path,) = paths
    assert native.sealed(Path(path))
    assert sorted(p.name for p in tmp_path.iterdir()) == [Path(path).name]


@pytest.mark.parametrize("damage", ("truncated", "garbage"))
def test_damaged_library_is_rebuilt(monkeypatch, tmp_path, damage):
    """A cached library whose trailer does not check out is rebuilt
    before anything loads it."""
    built = Path(native.status()["path"])
    good = built.read_bytes()
    path = tmp_path / built.name
    path.write_bytes(good[:len(good) // 2] if damage == "truncated"
                     else b"\x7fELF" + bytes(range(256)) * 8)
    assert not native.sealed(path)
    builds = []
    compile_ = native._compile
    monkeypatch.setattr(native, "_compile",
                        lambda *a: builds.append(a) or compile_(*a))
    monkeypatch.setattr(native, "_STATE", {})
    monkeypatch.setattr(native, "BUILD_DIR", tmp_path)
    assert native.kernel(np.complex128) is not None
    assert len(builds) == 1
    assert native.sealed(path)


def test_kernel_rejects_operands_that_do_not_fit():
    dirac, psi = _operator("generic256", (4, 4, 4, 4))
    src = red_black(dirac.grid, "odd").pick(psi).data.reshape(4, 3, -1)
    sweep = dirac._cb_hops(red_black(dirac.grid, "even"))
    tables, top, links = sweep.tables, sweep.top, sweep.links
    n = src.shape[-1]
    hop = native.kernel(np.complex128)
    fits = dict(tables=tables, top=top, links=links, rstride=n, lanes=n,
                src_size=src.size)
    bound = hop(**fits)
    run = bound(src, np.empty_like(src))
    run(0, n)
    for b0, b1 in ((0, n + 1), (-1, n), (2, 1)):
        with pytest.raises(ValueError, match="do not fit"):
            run(b0, b1)
    # Per call: the source and output.
    for bad in (dict(out=np.empty(src.shape, np.complex64)),
                dict(src=np.asfortranarray(src)),
                dict(out=np.empty((4, 3, n - 1), np.complex128)),
                dict(src=src.reshape(-1)[:-1].copy())):
        call = dict(dict(src=src, out=np.empty_like(src)), **bad)
        with pytest.raises(ValueError, match="do not fit"):
            bound(**call)
    fields = links.fields
    for bad in (dict(tables=tables.astype(np.int32)),
                dict(lanes=3),
                # a source too short for its tables
                dict(rstride=top, src_size=12 * top),
                dict(rstride=n + 1),
                # link fields too short, of the wrong dtype, or laid out
                # in lanes that do not divide the output sites
                dict(links=native.LinkFields(
                    fields[:-1] + (fields[-1][:, :, :-1].copy(),), n, False)),
                dict(links=native.LinkFields(
                    [u.astype(np.complex64) for u in fields], n, False)),
                dict(links=native.LinkFields(fields, n + 1, False)),
                # back-links read at the neighbour need the source's
                # layout
                dict(links=native.LinkFields(fields, n // 2, True))):
        with pytest.raises(ValueError, match="do not fit"):
            hop(**dict(fits, **bad))
    # Too few fields, not contiguous, or of mixed dtypes: no operand.
    for bad in (fields[:-1], [np.asfortranarray(u) for u in fields],
                fields[:-1] + (fields[-1].astype(np.complex64),)):
        with pytest.raises(ValueError, match="do not fit"):
            native.LinkFields(bad, n, False)


def _misfit():
    """The kernel's one rejection."""
    return pytest.raises(ValueError, match=f"^{native.MISFIT}$")


@pytest.mark.parametrize("dtype", DTYPES, ids=("c128", "c64"))
def test_bound_sweep_rejects_fields_that_do_not_fit(dtype):
    """A checkerboard sweep's binding checks its tables and links once;
    each call checks the source, the output and the Schur source, and
    every misfit raises the kernel's one ``ValueError``."""
    dirac, psi = _operator("generic256", (4, 4, 4, 8), dtype)
    schur = SchurWilson(dirac)
    odd, even = schur.project(psi, "odd"), schur.project(psi, "even")
    sweep = dirac._cb_hops(red_black(dirac.grid, "even"))
    bound = sweep.bound(native.kernel(dtype))
    assert sweep.bound(native.kernel(dtype)) is bound  # bound once
    other = np.complex64 if dtype == np.complex128 else np.complex128
    src = odd.data
    fits = dict(src=src, out=np.empty_like(src), store=native.STORE_SCHUR,
                psi=even.data, diag=schur.diag)
    bound(**fits)(0, sweep.n)
    half = src.shape
    frozen = np.empty_like(src)
    frozen.setflags(write=False)
    for bad in (
        # the source, the output and the Schur source: dtype, shape,
        # contiguity
        *({k: np.empty(half, other)} for k in ("src", "out", "psi")),
        *({k: np.empty((4, 3, sweep.n - 8), dtype)}
          for k in ("src", "out", "psi")),
        *({k: np.asfortranarray(np.empty(half, dtype))}
          for k in ("src", "out", "psi")),
        # a read-only output; a Schur source sized for the whole
        # lattice, not one parity
        dict(out=frozen),
        dict(psi=psi.data),
        # a Schur source where the store reads none, none where it
        # reads one, a store that is not one, a zero diagonal
        dict(store=native.STORE_HOP), dict(psi=None), dict(store=3),
        dict(diag=0.0),
    ):
        with _misfit():
            bound(**dict(fits, **bad))
    # A sweep bound to one operator's tables, given another geometry's
    # half fields.
    small, small_psi = _operator("generic256", (4, 4, 4, 4), dtype)
    small_half = red_black(small.grid, "odd").pick(small_psi).data
    for bad in (dict(src=small_half), dict(out=np.empty_like(small_half)),
                dict(psi=small_half)):
        with _misfit():
            bound(**dict(fits, **bad))
    # Through the operator: a Schur source of the wrong parity, or of
    # another geometry, or a store that is not one.
    for x in (odd, red_black(small.grid, "even").pick(small_psi)):
        with _misfit():
            dirac.dhop_cb(odd, native.STORE_SCHUR, x, schur.diag)
    for store, x in ((native.STORE_BLOCK, even), (native.STORE_SCHUR, None),
                     (7, None)):
        with _misfit():
            dirac.dhop_cb(odd, store, x, schur.diag)


def test_kernel_rejects_links_too_short_for_the_back_links():
    """In place, a ``(mu, -1)`` field must hold the matrix of the
    largest table entry's site, and every field the output sites."""
    dirac, psi = _operator("generic256", (4, 4, 4, 4))
    sweep = dirac._full_hop()
    links = sweep.links
    assert links.back
    nl = links.llanes
    hop = native.kernel(np.complex128)
    fits = dict(tables=sweep.tables, top=sweep.top, links=links, rstride=nl,
                lanes=nl, src_size=psi.data.size)
    hop(**fits)(psi.data, np.empty_like(psi.data))(0, 1)
    # One outer site short: the last site's matrices are missing.
    short = [u[:-1].copy() for u in links.fields]
    back_short = [u if k % 2 == 0 else short[k]
                  for k, u in enumerate(links.fields)]
    for bad in (short, back_short):
        bad = dict(links=native.LinkFields(bad, nl, True))
        with pytest.raises(ValueError, match="do not fit"):
            hop(**dict(fits, **bad))
