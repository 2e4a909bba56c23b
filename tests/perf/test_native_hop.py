"""The compiled Wilson hop (``repro.perf.native``, ``hop_cb.c``).

Every fused Wilson sweep runs the C kernel where it loads and the numpy
block body (``repro.perf.fused.sweep_blocks``) where it does not: the
checkerboard hop ``WilsonDirac.dhop_cb`` on half fields, the full hop
``WilsonDirac.dhop`` reading and writing lane-major fields in place.
The kernel must equal the numpy body byte for byte (``tobytes()``) and
the layered reference wherever the layered path gives NaNs the same
bits -- for both parities, both precisions and every ``generic`` width,
serial and tiled, under whichever numpy dispatch the process runs: the
kernel is built with the contraction
:func:`repro.perf.native.contraction_key` probes, so under host
dispatch these tests exercise the ``fma`` build and under numpy's
baseline dispatch the ``unfused`` one.

The kernel's contract is also pinned to the Wilson-Dslash IR
(:mod:`repro.vectorizer.wilson_ir`) evaluated in compressor order, and
the probe is pinned on hand-built products.
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


@pytest.fixture
def fresh_native(monkeypatch, tmp_path):
    """A process state with no library loaded, building into
    ``tmp_path``."""
    monkeypatch.setattr(native, "_STATE", {})
    monkeypatch.setattr(native, "BUILD_DIR", tmp_path)
    return tmp_path


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


def _counted(call, sweeps: int, fallbacks: int, **scope):
    """``call()`` under ``scope``, which must run ``sweeps`` compiled
    sweeps and ``fallbacks`` numpy ones."""
    reset_counters()
    with engine.scope(**scope), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out = call()
    assert (counters().native_sweeps, counters().native_fallbacks) \
        == (sweeps, fallbacks)
    return out


def _native_hop(dirac, half, **scope):
    return _counted(lambda: dirac.dhop_cb(half), 1, 0, **scope)


def _native_full(dirac, psi, **scope):
    return _counted(lambda: dirac.dhop(psi), 1, 0, **scope).data


def _numpy_body(call):
    """``call()`` where the kernel does not load: every fused sweep
    runs the numpy block body."""
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(native, "kernel", lambda dtype: None)
        warnings.simplefilter("ignore", RuntimeWarning)
        return call()


def _reference(dirac, half):
    """The full hop of the embedded field by the numpy block body,
    restricted to the other parity."""
    target = "even" if half.grid.parity == "odd" else "odd"
    return red_black(dirac.grid, target).pick(
        _numpy_body(lambda: dirac.dhop(half.grid.embed(half))))


def _layered(dirac, psi) -> np.ndarray:
    with engine.scope(enabled=False), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return dirac.dhop(psi).data


def _assert_matches_layered(got: np.ndarray, want: np.ndarray) -> None:
    """Byte for byte, except the sign bits and payloads of NaNs: the
    numpy body's ``out=`` contraction order has always given propagated
    NaNs a different sign bit from the layered path
    (``tests/perf/test_tensor_major_dhop.py``)."""
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
            assert got.data.tobytes() == _reference(dirac, half).data.tobytes()

    def test_nan_collisions_differ_in_payload_only(self):
        """Where two NaNs meet in one operation, IEEE 754 leaves open
        which one's sign and payload the result carries; numpy's loops
        and the compiled kernel may keep different ones.  Every other
        bit agrees, and NaN is where numpy has NaN."""
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
        """The Schur operator folds its diagonal algebra into each
        block; the folded hop equals the reference route with the tail
        applied once, over all sites."""
        dirac, psi = _operator("generic256", (4, 4, 4, 8))
        schur = SchurWilson(dirac)
        half = schur.project(psi, "odd")
        got = _counted(lambda: schur.schur(half), 2, 0)
        with engine.scope(enabled=False):
            want = schur.schur(half)
        assert got.data.tobytes() == want.data.tobytes()


class TestIR:
    """The kernel against :func:`repro.vectorizer.wilson_ir.evaluate` in
    compressor order: project the source, gather the half spinors,
    multiply and reconstruct-accumulate, per (mu, sign) in sweep
    order."""

    @pytest.mark.parametrize("dtype", DTYPES, ids=("c128", "c64"))
    @pytest.mark.parametrize("source", ("gaussian", "point"))
    def test_matches_ir_in_compressor_order(self, dtype, source):
        dirac, psi = _operator("generic256", (4, 4, 4, 4), dtype, source)
        scalar = "c64" if dtype == np.complex64 else "c128"
        half = red_black(dirac.grid, "odd").pick(psi)
        target = red_black(dirac.grid, "even")
        tables, _top, links = dirac._cb_hops(target)
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
        dirac, psi = _operator(backend, (4, 4, 4, 8), dtype, source)
        got = _native_full(dirac, psi)
        _assert_matches_layered(got, _layered(dirac, psi))
        want = _numpy_body(lambda: dirac.dhop(psi)).data
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
        dirac, psi = _operator("generic512", (4, 2, 6, 4), source="point")
        want = _layered(dirac, psi)
        monkeypatch.setattr(fused, "BLOCK_SITES", block)
        got = _native_full(dirac, psi, workers=workers, tile_min_sites=16)
        assert got.tobytes() == want.tobytes()

    def test_nan_collisions_differ_in_payload_only(self):
        """As for the checkerboard hop: only where two NaNs meet may
        the kernel and the numpy body return different NaNs."""
        dirac, psi = _operator("generic256", (4, 4, 4, 8))
        flat = psi.data.reshape(-1)
        rng = np.random.default_rng(9)
        nan = complex(np.nan, 1.0)
        for i, k in enumerate(rng.choice(flat.size, 60, replace=False)):
            flat[k] = (nan, -nan, complex(np.inf, 0))[i % 3]
        got = _native_full(dirac, psi)
        want = _numpy_body(lambda: dirac.dhop(psi)).data
        assert np.isnan(want).any()
        _assert_matches_layered(got, want)

    def test_builds_tables_once_and_no_working_copy(self, monkeypatch):
        """The operator builds its lane-major tables on the first
        compiled hop; no hop transposes ``psi`` or stores through the
        working layout."""
        dirac, psi = _operator("generic256", (4, 4, 4, 8))
        assert dirac._sweep_tables is None
        dirac.dhop(psi)
        tables, top = dirac._sweep_tables
        assert tables.dtype == np.int64 and tables.shape == (8, psi.data.size
                                                             // 12)
        assert top == tables.max()
        for name in ("from_working", "sweep_blocks", "neighbour_table"):
            monkeypatch.setattr(fused, name, None)
        bodies = []
        run_tiles = fused.run_tiles
        monkeypatch.setattr(fused, "run_tiles", lambda body, *a: bodies.append(
            body.__name__) or run_tiles(body, *a))
        got = _native_full(dirac, psi)
        assert bodies == ["body"]  # the block loop, no entry transpose
        assert dirac._sweep_tables[0] is tables
        assert got.tobytes() == _layered(dirac, psi).tobytes()


class TestReferenceRoute:
    """Where the kernel cannot load (``native.status()`` reads
    ``reference``), every fused sweep runs the numpy block body over the
    same tables and links: the checkerboard hop directly on the half
    field, never embed, full hop, pick."""

    def _check_fallback(self, reason: str):
        dirac, psi = _operator("generic256", (4, 4, 4, 8), source="point")
        half = red_black(dirac.grid, "odd").pick(psi)
        embeds = []
        embed = type(half.grid).embed
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(type(half.grid), "embed",
                       lambda g, x: embeds.append(x) or embed(g, x))
            got = _counted(lambda: dirac.dhop_cb(half), 0, 1,
                           telemetry="trace")
        assert embeds == [] and counters().fused_dhop_calls == 0
        (span,) = [s for s in telemetry.drain_spans() if s.name == "dhop.cb"]
        assert span.attrs["kernel"] == "reference"
        state = native.status()
        assert state["kernel"] == "reference"
        assert reason in state["reason"]
        assert got.data.tobytes() == _reference(dirac, half).data.tobytes()
        full = _counted(lambda: dirac.dhop(psi), 0, 1)
        assert full.data.tobytes() == _layered(dirac, psi).tobytes()

    def test_no_compiler(self, fresh_native, monkeypatch):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        self._check_fallback("no C compiler")
        assert native.status()["compiler"] == "none"

    def test_unknown_contraction_key(self, fresh_native, monkeypatch):
        monkeypatch.setattr(native, "contraction_key", lambda dtype: "unknown")
        self._check_fallback("neither fma nor unfused")

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("dtype", DTYPES, ids=("c128", "c64"))
    def test_half_hop_bytes(self, dtype, workers):
        dirac, psi = _operator("generic256", (4, 4, 4, 8), dtype, "zeros")
        for half in _halves(dirac, psi):
            want = _native_hop(dirac, half)
            got = _numpy_body(lambda: _counted(
                lambda: dirac.dhop_cb(half), 0, 1, workers=workers,
                tile_min_sites=16))
            assert got.data.tobytes() == want.data.tobytes()

    def test_schur_tail_fold(self):
        dirac, psi = _operator("generic256", (4, 4, 4, 8))
        schur = SchurWilson(dirac)
        half = schur.project(psi, "odd")
        got = _numpy_body(lambda: _counted(lambda: schur.schur(half), 0, 2))
        with engine.scope(enabled=False):
            want = schur.schur(half)
        assert got.data.tobytes() == want.data.tobytes()

    def test_engine_off_is_not_a_fallback(self):
        dirac, psi = _operator("generic256", (4, 4, 4, 8))
        half = red_black(dirac.grid, "odd").pick(psi)
        _counted(lambda: dirac.dhop_cb(half), 0, 0, enabled=False)
        _counted(lambda: dirac.dhop(psi), 0, 0, enabled=False)


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
    tables, top, links = dirac._cb_hops(red_black(dirac.grid, "even"))
    n = src.shape[-1]
    hop = native.kernel(np.complex128)
    fits = dict(src=src, rstride=n, tables=tables, top=top, links=links,
                out=np.empty_like(src), lanes=n, b0=0, b1=n)
    hop(**fits)
    for bad in (dict(out=np.empty(src.shape, np.complex64)),
                dict(tables=tables.astype(np.int32)),
                dict(src=np.asfortranarray(src)),
                dict(b1=n + 1),
                dict(lanes=3),
                dict(out=np.empty((4, 3, n - 1), np.complex128)),
                # a source too short for its tables
                dict(src=src[:, :, :top].copy(), rstride=top),
                dict(src=src.reshape(-1)[:-1].copy()),
                dict(rstride=n + 1)):
        with pytest.raises(ValueError, match="do not fit"):
            hop(**dict(fits, **bad))
