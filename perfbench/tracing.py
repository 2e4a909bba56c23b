"""Layer timers for the traced run, and the host-ceiling probe.

The traced run wraps the public entry point of each layer with a timer
and counters kept here, in the benchmark, and restores the originals
afterwards: the program's code is not changed.  A layer's *self* time
is its time minus the time of wrapped layers it called, so the self
times of all layers plus the unattributed remainder add up to the
traced wall time.  A call that re-enters the layer it is already in
(``norm2`` calling ``inner_product``, a batched ``dhop`` looping over
columns) counts once, as one crossing of the layer boundary.
"""

from __future__ import annotations

import glob
import os
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np


class LayerStats:
    """Tallies for one layer: boundary crossings, inclusive and self
    seconds, and layer-specific counters."""

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts: dict = {}

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class _Frame:
    __slots__ = ("layer", "child_s")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.child_s = 0.0


class Tracer:
    """A stack of open layer spans plus per-layer totals."""

    def __init__(self) -> None:
        self.stack: list = []
        self.layers: dict = {}

    def reset(self) -> None:
        self.layers = {}

    def layer(self, name: str) -> LayerStats:
        st = self.layers.get(name)
        if st is None:
            st = self.layers[name] = LayerStats()
        return st

    def wrap(self, layer: str, fn, observe=None):
        """``fn`` timed as one crossing into ``layer``.  ``observe(st,
        args, kwargs, before, result)`` adds counters; ``before`` is
        what ``observe(st, args, kwargs, None, None)`` returned when
        called ahead of ``fn``."""

        def wrapper(*args, **kwargs):
            stack = self.stack
            if stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            before = observe(None, args, kwargs, None, None) \
                if observe else None
            frame = _Frame(layer)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                st = self.layer(layer)
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - frame.child_s
                if stack:
                    stack[-1].child_s += dt
            if observe:
                observe(st, args, kwargs, before, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


# ----------------------------------------------------------------------
# Counters read at the layer boundaries
# ----------------------------------------------------------------------
def _file_bytes(st, args, kwargs, before, result):
    if st is not None:
        st.add("bytes", os.path.getsize(args[0]))


def _dhop_sites(st, args, kwargs, before, result):
    """Sites swept (times the batch width), with the operator's own
    nominal flop and byte counts per site."""
    if st is None:
        return None
    op, psi = args[0], args[1]
    shape = psi.tensor_shape
    ncols = shape[0] if len(shape) == 3 else 1
    sites = int(np.prod(op.geometry.gdims)) * ncols
    st.add("sites", sites)
    st.add("flops", sites * op.flops_per_site())
    st.add("bytes", sites * op.bytes_per_site())
    return None


def _solve_result(st, args, kwargs, before, result):
    if st is None:
        return None
    st.add("iterations", int(getattr(result, "iterations", 0) or 0))
    res = float(getattr(result, "residual", 0.0))
    st.counts["max_residual"] = max(st.counts.get("max_residual", 0.0), res)
    return None


def _halo_traffic(st, args, kwargs, before, result):
    """CommsStats deltas around one halo post (the wire path: record,
    encode, checksum, retry)."""
    stats = args[1].stats
    snap = (stats.messages, stats.bytes_sent, stats.retries)
    if st is None:
        return snap
    st.add("messages", snap[0] - before[0])
    st.add("bytes", snap[1] - before[1])
    st.add("retries", snap[2] - before[2])
    return None


def _machine_steps(st, args, kwargs, before, result):
    """Retired instructions, read from ``Machine.steps``."""
    steps = args[0].steps
    if st is None:
        return steps
    st.add("instructions", steps - before)
    return None


def _targets():
    """(owner, attribute, layer, observe) for every wrapped entry
    point.  Imported here, not at module scope, so the benchmark can
    put the program on ``sys.path`` first."""
    from importlib import import_module

    from repro.grid.comms import DistributedLattice, Transport
    from repro.grid.dist_wilson import DistributedWilson
    from repro.grid.lattice import Lattice
    from repro.grid.wilson import WilsonDirac
    from repro.sve.machine import Machine

    lattice_ops = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                   "axpy", "conj", "inner_product", "norm2", "sum",
                   "copy", "new_like")
    dist_ops = ("binary", "__add__", "__sub__", "__mul__", "__rmul__",
                "inner_product", "norm2", "copy", "new_like")
    # By module name: ``repro.grid`` re-exports functions that shadow
    # some of its submodules (``repro.grid.cshift``).
    (armie_emulator, engine_solve, grid_cshift, grid_gamma, grid_io,
     grid_propagator, autovec) = (import_module(f"repro.{m}") for m in (
         "armie.emulator", "engine.solve", "grid.cshift", "grid.gamma",
         "grid.io", "grid.propagator", "vectorizer.autovec"))
    return (
        [(grid_io, "load_gauge", "io", _file_bytes),
         (WilsonDirac, "dhop", "wilson", _dhop_sites),
         (grid_cshift, "cshift_local", "gather", None),
         (DistributedLattice, "cshift", "gather", None),
         (grid_gamma, "gamma5_apply", "lattice", None)]
        + [(Lattice, name, "lattice", None) for name in lattice_ops]
        + [(DistributedLattice, name, "lattice", None) for name in dist_ops]
        + [(engine_solve, "solve_fermion", "solver", _solve_result),
           (grid_propagator, "timeslice_sums", "contract", None),
           (DistributedWilson, "dhop", "dist", _dhop_sites),
           (Transport, "post_halo", "comms.wire", _halo_traffic),
           (Transport, "wait", "comms.wait", None),
           (autovec, "vectorize", "vectorizer", None),
           (autovec, "vectorize_fixed", "vectorizer", None),
           (armie_emulator, "run_kernel", "armie", None),
           (Machine, "run", "sve", _machine_steps)]
    )


def _module_aliases(module, name: str, original) -> list:
    """Every loaded ``repro`` module holding ``original`` under
    ``name`` — the defining module plus those that imported it by
    name."""
    out = [module]
    for modname, mod in list(sys.modules.items()):
        if mod is module or mod is None:
            continue
        if modname != "repro" and not modname.startswith("repro."):
            continue
        if mod.__dict__.get(name) is original:
            out.append(mod)
    return out


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer entry point with ``tracer`` for the duration."""
    saved = []
    try:
        for owner, name, layer, observe in _targets():
            original = owner.__dict__[name]
            wrapped = tracer.wrap(layer, original, observe)
            holders = [owner] if isinstance(owner, type) else \
                _module_aliases(owner, name, original)
            for holder in holders:
                saved.append((holder, name, original))
                setattr(holder, name, wrapped)
        yield tracer
    finally:
        for holder, name, original in reversed(saved):
            setattr(holder, name, original)


# ----------------------------------------------------------------------
# Host ceiling
# ----------------------------------------------------------------------
#: Last-level cache assumed when sysfs does not report one (the L3 of
#: the host the first numbers were taken on).
DEFAULT_LLC_BYTES = 105 * 2**20


def last_level_cache_bytes() -> int:
    """Largest cache cpu0 reports in sysfs, else ``DEFAULT_LLC_BYTES``."""
    best = 0
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"):
        try:
            with open(path) as f:
                text = f.read().strip()
        except OSError:
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            best = max(best, int(digits) * scale)
    return best or DEFAULT_LLC_BYTES


def host_ceiling(seconds: float = 0.6) -> dict:
    """Copy bandwidth and complex multiply-add rate of this host.

    * Copy: ``np.copyto`` between two float64 arrays of four times the
      last-level cache each; bytes read plus bytes written, the STREAM
      convention, so it compares with the dhop's computed traffic.
    * Multiply-add: ``c += a * b`` as two complex128 ufunc calls on
      three 512 KiB arrays (L2-resident), 8 flops per element.
    """
    llc = last_level_cache_bytes()
    n = 4 * llc // 8
    src = np.ones(n)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in
    times = []
    deadline = time.perf_counter() + seconds / 2
    while len(times) < 3 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    copy_gbs = 2 * src.nbytes / statistics.median(times) / 1e9
    array_bytes = src.nbytes
    del src, dst

    m = 32768
    rng = np.random.default_rng(0)
    a, b, c = (rng.normal(size=m) + 1j * rng.normal(size=m)
               for _ in range(3))
    tmp = np.empty_like(a)
    reps = 50
    times = []
    deadline = time.perf_counter() + seconds / 2
    while len(times) < 3 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for _ in range(reps):
            np.multiply(a, b, out=tmp)
            np.add(c, tmp, out=c)
        times.append(time.perf_counter() - t0)
    cmul_gflops = 8 * m * reps / statistics.median(times) / 1e9
    return {
        "copy_gbs": copy_gbs,
        "cmul_gflops": cmul_gflops,
        "copy_array_mib": array_bytes / 2**20,
        "llc_mib": llc / 2**20,
    }
