"""The gauge field's plaquette on the Wilson hop's row kernel.

With the engine on and a fused-safe backend, ``plaquette`` (and so
``save_gauge``'s header and ``load_gauge``'s verification) runs
through :func:`repro.perf.fused.loop_traces`; under
``engine.scope(enabled=False)`` it is the layered backend loops.  Both
must give the same bytes, and so must the row kernel's colour products
against ``colour_mm``/``colour_mm_dagger_right``.  Wilson loops
(``average_plaquette`` among them), staples and clover leaves stay on
the layered products either way; the engine switch must leave their
bytes alone too.
"""

import numpy as np
import pytest

from repro import engine
from repro.engine.plan import takes_fused_path
from repro.grid import io as grid_io
from repro.grid.cartesian import GridCartesian
from repro.grid.clover import _dagger, clover_leaves
from repro.grid.montecarlo import staple_field
from repro.grid.observables import average_plaquette, wilson_loop
from repro.grid.random import random_gauge
from repro.grid.su3 import plaquette
from repro.grid.tensor import (
    colour_mm,
    colour_mm_dagger_right,
    colour_trace_re,
)
from repro.perf import fused
from repro.simd import get_backend

BACKENDS = ("generic128", "generic256", "generic512", "generic1024")
DTYPES = (np.complex128, np.complex64)


def engine_on_and_off(fn):
    """``fn()`` on the fused route, then on the layered one."""
    assert takes_fused_path(get_backend("generic256"))
    on = fn()
    with engine.scope(enabled=False):
        assert not takes_fused_path(get_backend("generic256"))
        off = fn()
    return on, off


def assert_same_bytes(on, off):
    on, off = np.asarray(on), np.asarray(off)
    assert on.dtype == off.dtype and on.shape == off.shape
    assert on.tobytes() == off.tobytes()


def hot_links(dims, backend="generic256", dtype=np.complex128, seed=7):
    grid = GridCartesian(dims, get_backend(backend), dtype=dtype)
    return grid, random_gauge(grid, seed=seed)


def rows(x):
    """The colour-axis view ``(3, 3, osites, nlanes)`` of a lane-major
    colour-matrix field."""
    return np.moveaxis(x, 0, -2)


def row_kernel_mm(a, b):
    out = np.empty_like(a)
    fused.colour_mm_rows(rows(a), rows(b), rows(out),
                         np.empty(rows(a).shape, dtype=a.dtype))
    return out


def row_kernel_mm_dagger(a, b):
    # ``loop_traces``' ``M C^dagger``: V = conj(C), the rows of M as
    # the half spinors.
    out = np.empty_like(a)
    fused._su3_halfspinor(np.conj(rows(b)), rows(a), rows(out),
                          np.empty(rows(a).shape, dtype=a.dtype))
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype", DTYPES, ids=["c128", "c64"])
def test_colour_products(backend, dtype):
    grid, links = hot_links([4, 4, 4, 4], backend, dtype)
    be = grid.backend
    a, b = links[0].data, links[1].data
    c = _dagger(links[2].data)  # non-contiguous colour axes
    assert not c.flags.c_contiguous
    cases = [(colour_mm, row_kernel_mm, a, b),
             (colour_mm, row_kernel_mm, c, a),
             (colour_mm, row_kernel_mm, b, c),
             (colour_mm_dagger_right, row_kernel_mm_dagger, a, b),
             (colour_mm_dagger_right, row_kernel_mm_dagger, c, a),
             (colour_mm_dagger_right, row_kernel_mm_dagger, a, c)]
    for layered, kernel, x, y in cases:
        want = layered(be, x, y)
        on, off = engine_on_and_off(lambda: layered(be, x, y))
        assert_same_bytes(on, want)
        assert_same_bytes(off, want)
        assert_same_bytes(kernel(x, y), want)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype", DTYPES, ids=["c128", "c64"])
def test_loops(backend, dtype):
    grid, links = hot_links([4, 4, 4, 8], backend, dtype)
    for fn in (lambda: plaquette(links, grid),
               lambda: wilson_loop(links, grid, 0, 3, 2, 2),
               lambda: wilson_loop(links, grid, 3, 1, 1, 3),
               lambda: average_plaquette(links, grid)):
        assert_same_bytes(*engine_on_and_off(fn))


@pytest.mark.parametrize("backend", ("generic128", "generic512"))
def test_loops_over_many_blocks(backend, monkeypatch):
    # 512 sites in blocks of 96 (nlanes 1) or 92 (nlanes 4): six blocks,
    # the last one short.
    monkeypatch.setattr(fused, "BLOCK_SITES", 94 if backend == "generic512"
                        else 96)
    grid, links = hot_links([4, 4, 4, 8], backend)
    for fn in (lambda: plaquette(links, grid),
               lambda: wilson_loop(links, grid, 1, 2, 2, 2)):
        assert_same_bytes(*engine_on_and_off(fn))


@pytest.mark.parametrize("backend",
                         ("generic256", "generic512", "generic1024"))
def test_loop_trace_sums_like_the_lane_major_trace(backend):
    """At 65536 sites numpy's sum of a contiguous row can round
    differently from its sum of the lane-major diagonal, an
    ``(osites, nlanes)`` array (for these fields it does at 8 lanes);
    the trace must reduce like the lane-major one."""
    be = get_backend(backend)
    nlanes = be.clanes(np.complex128)
    rng = np.random.default_rng(3)
    shape = (65536 // nlanes, 3, 3, nlanes)
    a, b, c, d = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
                  for _ in range(4))
    (got,) = fused.loop_traces(
        [[(fused.to_working(x), None) for x in (a, b, c, d)]], nlanes)
    with engine.scope(enabled=False):
        m = colour_mm_dagger_right(be, colour_mm_dagger_right(
            be, colour_mm(be, a, b), c), d)
        assert_same_bytes(got, colour_trace_re(be, m))


@pytest.mark.parametrize("backend", ("generic128", "generic512"))
def test_staples_and_clover_leaves(backend):
    grid, links = hot_links([4, 4, 4, 4], backend)
    for mu in range(4):
        assert_same_bytes(
            *engine_on_and_off(lambda: staple_field(links, grid, mu)))
    assert_same_bytes(
        *engine_on_and_off(lambda: clover_leaves(links, grid, 0, 2)))
    assert_same_bytes(
        *engine_on_and_off(lambda: clover_leaves(links, grid, 3, 1)))


@pytest.mark.parametrize("save_enabled", (False, True),
                         ids=["save-off", "save-on"])
def test_files_cross_the_engine_switch(tmp_path, save_enabled):
    grid, links = hot_links([4, 4, 4, 8], "generic512")
    path = tmp_path / "cfg.gauge"
    with engine.scope(enabled=save_enabled):
        header = grid_io.save_gauge(path, links, grid)
    with engine.scope(enabled=not save_enabled):
        loaded = grid_io.load_gauge(path, grid, verify=True)
        assert plaquette(loaded, grid) == header.plaquette
    for got, want in zip(loaded, links):
        assert_same_bytes(got.data, want.data)
