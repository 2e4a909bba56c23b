"""The Schur operator's scalar algebra in the compiled hop's store.

``SchurWilson.apply`` is two checkerboard sweeps of ``hop_cb.c``
through the operator's bound sweeps (``WilsonDirac._cb_hops``): the
first stores the off-diagonal block ``D_h psi * (-1/2)``, the second
the Schur operator ``psi * d - (D_h h * (-1/2)) * (1/d)``.  Each store
is the Lattice algebra's numpy operations in their order, so the result
must be that algebra's bytes over the engine-off hop -- in both
precisions, from either parity, serial and tiled, with ±0, ±Inf and
NaN in the source and the links.  Where two NaNs meet in one operation
``hop_cb.c``'s contract lets the kernel return a different NaN than
numpy, so NaNs are compared as NaNs (``equal_nan``) and every other
element byte for byte.

Observability must not notice the fold: one Schur application counts
and traces as the two ``dhop_cb`` calls it replaces.  Where the kernel
cannot load, the reference route (embed, layered hop, pick) stores the
same steps (``fused.store_block``) to the same bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.engine as engine
import repro.telemetry as telemetry
from repro.engine.plan import kernel_plan
from repro.grid.cartesian import GridCartesian
from repro.grid import wilson
from repro.grid.evenodd import SchurWilson
from repro.grid.random import random_gauge, random_spinor
from repro.grid.wilson import WilsonDirac
from repro.perf import fused, native
from repro.perf.counters import counters, reset_counters
from repro.simd import get_backend

#: The special values make NaNs and Infs on purpose.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

DTYPES = (np.complex128, np.complex64)
DIMS = (4, 4, 4, 8)
#: Serial, and two tiles per sweep (a half field of 4^3 x 8 is 256
#: sites; 64-site tiles in 32-site blocks split both sweeps into tiles
#: and each tile into blocks).
SCOPES = {"serial": dict(workers=1),
          "tiled": dict(workers=2, tile_min_sites=64)}


@pytest.fixture(autouse=True)
def _clean_engine_state():
    engine.reset_all()
    yield
    engine.reset_all()


def _special(a: np.ndarray, rng, count: int) -> None:
    """Write ±0, ±Inf and NaN of either sign into ``count`` random real
    or imaginary parts of ``a``, in place."""
    parts = a.view(a.real.dtype).reshape(-1)
    values = (0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan)
    for i, k in enumerate(rng.choice(parts.size, count, replace=False)):
        parts[k] = values[i % len(values)]


def _operator(dtype, special: bool):
    grid = GridCartesian(list(DIMS), get_backend("generic256"), dtype=dtype)
    links = random_gauge(grid, seed=11)
    psi = random_spinor(grid, seed=7)
    if special:
        rng = np.random.default_rng(3)
        for u in links:
            _special(u.data, rng, 6)
        _special(psi.data, rng, 12)
    # At m = 0.3, (float)(1.0 / d) differs from 1.0f / (float)d: the
    # complex64 store must round the double reciprocal, as numpy does.
    return WilsonDirac(links, mass=0.3), psi


def _assert_same(got: np.ndarray, want: np.ndarray) -> None:
    """Byte for byte, NaNs compared as NaNs (``hop_cb.c``: where two
    NaNs meet, which NaN comes out is the implementation's)."""
    g, w = (a.view(a.real.dtype) for a in (got, want))
    assert np.array_equal(g, w, equal_nan=True)
    keep = ~np.isnan(w)
    assert g[keep].tobytes() == w[keep].tobytes()


def _lattice_schur(dirac, x, diag):
    """The Schur operator from ``x``'s parity, as Lattice algebra over
    the engine-off hop."""
    with engine.scope(enabled=False):
        block = dirac.dhop_cb(x) * (-0.5)
        return x * diag - (dirac.dhop_cb(block) * (-0.5)) * (1.0 / diag)


def _bound_schur(schur, x):
    """The Schur operator from ``x``'s parity through the two stores:
    ``SchurWilson.apply`` on odd fields, its two sweeps on even ones."""
    if x.grid.parity == "odd":
        return schur.apply(x)
    block = schur.dirac.dhop_cb(x, native.STORE_BLOCK)
    return schur.dirac.dhop_cb(block, native.STORE_SCHUR, x, schur.diag)


def _sweep_counts(grid, call, **scope) -> tuple:
    """What ``call()`` under ``scope`` moves: ``native_sweeps``,
    ``native_fallbacks``, ``tiles_dispatched`` and the stages of
    ``grid``'s dhop plan."""
    reset_counters()
    with engine.scope(**scope):
        stages = kernel_plan(grid, "dhop").stages
        before = stages.as_dict()
        call()
        after = stages.as_dict()
    moved = {k: after[k] - before.get(k, 0) for k in after}
    return (counters().native_sweeps, counters().native_fallbacks,
            counters().tiles_dispatched, moved)


@pytest.mark.parametrize("scope", SCOPES, ids=SCOPES)
@pytest.mark.parametrize("parity", ("odd", "even"))
@pytest.mark.parametrize("special", (False, True), ids=("gaussian", "special"))
@pytest.mark.parametrize("dtype", DTYPES, ids=("c128", "c64"))
def test_bound_schur_matches_lattice_algebra(monkeypatch, dtype, special,
                                             parity, scope):
    dirac, psi = _operator(dtype, special)
    schur = SchurWilson(dirac)
    x = schur.project(psi, parity)
    want = _lattice_schur(dirac, x, schur.diag)
    monkeypatch.setattr(fused, "BLOCK_SITES", 32)
    reset_counters()
    with engine.scope(**SCOPES[scope]):
        got = _bound_schur(schur, x)
    assert counters().native_sweeps == 2
    assert counters().tiles_dispatched == (2 if scope == "serial" else 4)
    assert got.grid is x.grid
    _assert_same(got.data, want.data)
    if special:
        # The special values reach part of the field, not all of it.
        finite = np.isfinite(got.data)
        assert finite.any() and not finite.all()


@pytest.mark.parametrize("scope", SCOPES, ids=SCOPES)
def test_counts_as_two_checkerboard_hops(scope):
    """One Schur application moves the sweep counters and the plan's
    ``gather``/``compute`` stages exactly as two ``dhop_cb`` calls."""
    dirac, psi = _operator(np.complex64, False)
    schur = SchurWilson(dirac)
    x = schur.project(psi, "odd")

    hops = _sweep_counts(dirac.grid, lambda: dirac.dhop_cb(dirac.dhop_cb(x)),
                         **SCOPES[scope])
    assert hops[:3] == (2, 0, 2 if scope == "serial" else 4)
    assert hops[3] == {"gather": 16, "compute": hops[2]}
    assert _sweep_counts(dirac.grid, lambda: schur.apply(x),
                         **SCOPES[scope]) == hops


def test_traced_as_two_checkerboard_hops():
    dirac, psi = _operator(np.complex64, False)
    schur = SchurWilson(dirac)
    x = schur.project(psi, "odd")
    plain = schur.apply(x)
    telemetry.drain_spans()
    with engine.scope(telemetry="trace"):
        traced = schur.apply(x)
    assert traced.data.tobytes() == plain.data.tobytes()
    spans = [s for s in telemetry.drain_spans() if s.name == "dhop.cb"]
    assert [s.attrs["parity"] for s in spans] == ["even", "odd"]
    for span in spans:
        assert span.attrs["kernel"] == "native"
        assert span.attrs["contraction"] == native.contraction_key(
            np.complex64)
        assert span.attrs["sites"] == dirac.grid.gsites // 2


@pytest.mark.parametrize("special", (False, True), ids=("gaussian", "special"))
@pytest.mark.parametrize("dtype", DTYPES, ids=("c128", "c64"))
def test_numpy_body_stores_the_same_steps(monkeypatch, dtype, special):
    """With the kernel unavailable the Schur application runs the
    reference route twice -- embed, layered hop, pick -- and stores the
    same steps over all sites: the native route's bytes (NaNs as NaNs
    on special values), counted as two ``layered_sweeps`` and no
    compiled sweep."""
    dirac, psi = _operator(dtype, special)
    schur = SchurWilson(dirac)
    x = schur.project(psi, "odd")
    native_bytes = schur.apply(x)
    stores = []
    store_block = wilson.store_block
    monkeypatch.setattr(wilson, "store_block", lambda *a: stores.append(
        a[0]) or store_block(*a))
    monkeypatch.setattr(native, "_STATE", {
        "kernels": {}, "reason": "no kernel in this test", "keys": {},
        "flags": ()})
    assert native.status(dtype)["kernel"] == "reference"
    got = _sweep_counts(dirac.grid, lambda: schur.apply(x))
    assert got[:3] == (0, 0, 0)
    assert {k: n for k, n in got[3].items() if n} == {"layered_sweeps": 2}
    assert stores == [native.STORE_BLOCK, native.STORE_SCHUR]
    got = schur.apply(x)
    if special:
        _assert_same(got.data, native_bytes.data)
    else:
        assert got.data.tobytes() == native_bytes.data.tobytes()
    _assert_same(got.data, _lattice_schur(dirac, x, schur.diag).data)
