"""The Krylov passes (``repro.perf.native.Passes``, ``krylov.c``) and the
algebra that runs them (``repro.grid.krylov``).

Every pass must give the bytes of the Lattice expression it replaces --
its outputs and its sums, NaNs compared as NaNs -- in both precisions,
at every length from 1 to 300 complex elements (the ragged tails of
numpy's pairwise summation), on both field shapes (tensor-major half
fields and lane-major full ones) and with signed zeros, infinities and
NaNs among the operands.  The solvers built on them must keep their
bytes: guarded equals unguarded, the reference route (no library)
equals the native one, and a distributed CG equals its bytes before the
passes existed.  The library is built with the contraction numpy uses
in this process, so under numpy's baseline dispatch these tests
exercise the unfused build; and an unfused build holds no fused
multiply-add instruction at all.
"""

from __future__ import annotations

import hashlib
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import repro.engine as engine
from repro.grid import krylov
from repro.grid.cartesian import GridCartesian
from repro.grid.comms import DistributedLattice
from repro.grid.dist_wilson import DistributedWilson, distribute_gauge
from repro.grid.evenodd import SchurWilson
from repro.grid.lattice import Lattice
from repro.grid.mixedprec import single_precision_twin
from repro.grid.propagator import point_source
from repro.grid.random import global_gaussian_spinor, random_gauge, \
    random_spinor
from repro.grid.solver import bicgstab, conjugate_gradient
from repro.grid.stencil import red_black
from repro.grid.wilson import WilsonDirac
from repro.perf import native
from repro.perf.counters import counters, reset_counters
from repro.resilience.guard import FaultGuard
from repro.simd import get_backend

DTYPES = (np.complex128, np.complex64)
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0, 3e-39])


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def _same(got, want) -> bool:
    """Byte equality, where a NaN equals any NaN (which NaN two NaNs
    give is left open by IEEE 754; see ``hop_cb.c``)."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or got.dtype != want.dtype:
        return False
    g = got.reshape(-1).view(got.real.dtype)
    w = want.reshape(-1).view(want.real.dtype)
    nan = np.isnan(g)
    return bool(np.array_equal(nan, np.isnan(w))
                and g[~nan].tobytes() == w[~nan].tobytes())


def _same_scalar(got, want) -> bool:
    return _same(np.array([got], dtype=complex),
                 np.array([want], dtype=complex))


def _operands(rng, shape, dtype, special: bool) -> list:
    def one():
        if special:
            z = rng.choice(SPECIAL, shape) + 1j * rng.choice(SPECIAL, shape)
        else:
            z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
                * np.exp(rng.uniform(-8, 8, shape))
        return z.astype(dtype)
    return [one() for _ in range(5)]


def _dot(x, y) -> complex:
    """``Lattice.inner_product``'s numpy: ``complex(sum(conj(x) * y))``."""
    return complex((np.conj(x) * y).sum())


def _expected(op, a, b, c, d, e, k0, k1):
    """``(outputs, sums)`` of pass ``op`` as numpy computes the Lattice
    expression (``Lattice.__mul__`` casts the scalar to the dtype)."""
    t = a.dtype.type
    if op == native.OP_DOT:
        p = _dot(a, b)
        return [], [p.real, p.imag]
    if op == native.OP_NORM:
        return [], [_dot(a, a).real]
    if op == native.OP_DOT2:
        tt, ts = _dot(a, a), _dot(a, b)
        return [], [tt.real, tt.imag, ts.real, ts.imag]
    if op == native.OP_AXPY:
        return [a + b * t(k0)], []
    if op == native.OP_SUBMUL:
        return [a - b * t(k0)], []
    if op == native.OP_SUBMUL_NORM:
        s = a - b * t(k0)
        return [s], [_dot(s, s).real]
    if op == native.OP_SUB_NORM:
        s = a - b
        return [s], [_dot(s, s).real]
    if op == native.OP_BICG_DIR:
        return [a + (b - c * t(k0)) * t(k1)], []
    if op == native.OP_BICG_UPD:
        x = a + b * t(k0) + c * t(k1)
        r = c - d * t(k1)
        rho = _dot(e, r)
        return [x, r], [_dot(r, r).real, rho.real, rho.imag]
    if op == native.OP_CG_UPD:
        x, r = a + b * t(k0), c - d * t(k0)
        return [x, r], [_dot(r, r).real]
    if op == native.OP_SCHUR_BACK:
        psi = (a - b * t(-0.5)) * t(1.0 / k1.real)
        r = a - (psi * t(k1.real) - b * t(0.5))
        return [psi], [_dot(r, r).real]
    if op == native.OP_SCHUR_RES:
        r = a - (b * t(k0.real) - c * t(0.5))
        return [], [_dot(r, r).real]
    raise AssertionError(op)


OPS = range(len(native.PASS_SHAPES))
#: Lengths 1 .. 300 complex elements, and the two field shapes at the
#: sizes the pion workloads solve on.
SHAPES = [(n,) for n in range(1, 301)] + [(4, 3, 2, 128), (128, 4, 3, 4)]


def _check_pass(passes, op, ops, k0, k1):
    nin = native.PASS_SHAPES[op][0]
    if op == native.OP_SCHUR_BACK:
        k0 = 1.0 / k1.real
    outs, sums = passes.run(op, ops[:nin], k0, k1)
    want_outs, want_sums = _expected(op, *ops, k0, k1)
    assert len(outs) == len(want_outs) and len(sums) == len(want_sums)
    for got, want in zip(outs, want_outs):
        assert _same(got, want), (op, ops[0].shape)
    for got, want in zip(sums, want_sums):
        assert _same_scalar(got, want), (op, ops[0].shape, got, want)


@pytest.mark.parametrize("special", (False, True), ids=("normal", "special"))
@pytest.mark.parametrize("dtype", DTYPES, ids=("c128", "c64"))
def test_every_pass_is_its_expression(dtype, special):
    passes = native.passes(dtype)
    assert passes is not None, native.status(dtype)["reason"]
    rng = np.random.default_rng(2018 + special)
    for shape in SHAPES:
        ops = _operands(rng, shape, dtype, special)
        k0 = complex(rng.standard_normal(), rng.standard_normal())
        k1 = complex(4.0 + rng.uniform(), -0.0)
        for op in OPS:
            _check_pass(passes, op, ops, k0, k1)


@pytest.mark.parametrize("dtype", DTYPES, ids=("c128", "c64"))
def test_real_constants_and_signed_zero_results(dtype):
    """A real constant is ``(c, +0)``, a product with it the full
    complex product: ``Inf * (c, +0)`` has a NaN part, and sums of
    signed zeros are +0 as numpy's zero-initialised sum makes them."""
    passes = native.passes(dtype)
    a = np.array([complex(-0.0, -0.0)] * 7 + [complex(np.inf, -0.0)],
                 dtype=dtype)
    b = np.array([complex(-0.0, 0.0)] * 8, dtype=dtype)
    for op in OPS:
        ops = [a, b, a[::-1].copy(), b, a]
        _check_pass(passes, op, ops, 0.25, complex(2.5, 0.0))
        _check_pass(passes, op, [x[:7].copy() for x in ops], -0.0, 3.0)


def test_passes_reject_operands_that_do_not_fit():
    passes = native.passes(np.complex128)
    a = np.zeros(12, np.complex128)
    for bad in ([a, a[:6]], [a, a.astype(np.complex64)],
                [a, np.zeros((2, 12), np.complex128)[:, ::2].T], [a]):
        with pytest.raises(ValueError, match="Krylov pass"):
            passes.run(native.OP_DOT, bad)


# -- the algebra on fields ------------------------------------------------------


def _fields(dtype):
    """A half field (tensor-major) and a full field (lane-major)."""
    grid = GridCartesian([4, 4, 4, 8], get_backend("generic256"), dtype=dtype)
    full = random_spinor(grid, seed=3)
    return red_black(grid, "odd").pick(full), full


def _steps(alg, f, g, h):
    """Every step of the algebra on the fields ``f``, ``g``, ``h``, as a
    flat list of fields and scalars."""
    k, w = complex(0.3, -0.7), complex(-1.1, 0.2)
    out = [alg.dot(f, g), alg.norm2(f), alg.axpy(f, g, k),
           alg.sub_scaled(f, g, 0.25), *alg.sub_norm(f, g),
           alg.bicg_direction(f, g, h, k, w), *alg.bicg_half(f, g, k),
           *alg.cg_update(f, g, h, f, 0.7),
           *alg.schur_back(f, g, 4.3), alg.schur_residual(f, g, h, 4.3)]
    tt, ts = alg.bicg_dots(f, g)
    x, r, rr, rho = alg.bicg_update(f, g, k, h, w, f, g)
    out += [tt, alg.dot(f, g) if ts is None else ts, x, r, rr,
            alg.dot(g, r) if rho is None else rho]
    return out


def _assert_steps_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(a, (Lattice, DistributedLattice)):
            assert type(a) is type(b)
            a, b = (np.concatenate([p.data.ravel() for p in x.locals])
                    if isinstance(x, DistributedLattice) else x.data
                    for x in (a, b))
            assert _same(a, b)
        else:
            assert type(a) is type(b) and _same_scalar(a, b), (a, b)


@pytest.mark.parametrize("dtype", DTYPES, ids=("c128", "c64"))
def test_native_algebra_is_the_reference_on_fields(dtype):
    alg = krylov.algebra(_fields(dtype)[0])
    assert isinstance(alg, krylov.NativeAlgebra)
    for f in _fields(dtype):
        g, h = f * complex(0.5, -1.5), f * 2.0
        g.data.reshape(-1)[::7] = complex(np.nan, -0.0)
        h.data.reshape(-1)[::5] = complex(-np.inf, 0.0)
        _assert_steps_equal(_steps(alg, f, g, h),
                            _steps(krylov.REFERENCE, f, g, h))


def test_picks_conversions_and_embeds():
    """The Schur solve's site moves and the defect correction's
    conversions are the reference's copies and casts."""
    grid = GridCartesian([4, 4, 4, 8], get_backend("generic256"))
    b = random_spinor(grid, seed=3)
    b.data[0, 0, 0, 0] = complex(-0.0, np.nan)
    alg, ref = krylov.algebra(b), krylov.REFERENCE
    halves = []
    for parity in ("even", "odd"):
        half = red_black(grid, parity)
        got, want = alg.pick(b, half), ref.pick(b, half)
        assert got.grid is half and _same(got.data, want.data)
        halves.append(got)
    got, want = alg.embed(*halves), ref.embed(*halves)
    assert got.grid is grid and _same(got.data, want.data)
    assert _same(got.data, b.data)
    schur = SchurWilson(WilsonDirac(random_gauge(grid, seed=11), mass=0.1))
    _op32, to_single, to_double = single_precision_twin(schur)
    r = halves[1] * complex(1.0 + 1e-9, 3e38)
    d = to_single(r)
    assert _same(alg.convert(r, to_single).data, ref.convert(r, to_single).data)
    assert _same(alg.add_converted(r, d, to_double).data,
                 ref.add_converted(r, d, to_double).data)


def test_routes():
    """The native route runs where the fused hop runs; elsewhere the
    reference, which counts a fallback only where the library is
    missing."""
    half, full = _fields(np.complex128)
    assert isinstance(krylov.algebra(full), krylov.NativeAlgebra)
    reset_counters()
    with engine.scope(enabled=False):
        assert krylov.algebra(full) is krylov.REFERENCE
    sve = GridCartesian([4, 4, 4, 4], get_backend("sve256-acle"))
    assert krylov.algebra(Lattice(sve, (4, 3))) is krylov.REFERENCE
    assert counters().native_fallbacks == 0


# -- the solvers -----------------------------------------------------------------


@pytest.fixture(scope="module")
def dirac():
    grid = GridCartesian([4, 4, 4, 4], get_backend("generic256"))
    return WilsonDirac(random_gauge(grid, seed=11), mass=0.3)


@pytest.mark.parametrize("solver", (bicgstab, conjugate_gradient))
def test_guarded_solve_equals_unguarded(dirac, solver):
    rhs = dirac.apply_dagger(random_spinor(dirac.grid, seed=5))
    assert isinstance(krylov.algebra(rhs), krylov.NativeAlgebra)
    plain = solver(dirac.mdag_m, rhs, tol=1e-9)
    guarded = solver(dirac.mdag_m, rhs, tol=1e-9, guard=FaultGuard())
    assert plain.converged and guarded.converged
    assert guarded.iterations == plain.iterations
    assert plain.x.data.tobytes() == guarded.x.data.tobytes()
    assert guarded.restarts == 0


def _no_library(monkeypatch):
    monkeypatch.setattr(native, "_STATE", {
        "kernels": {}, "reason": "no library in this test", "keys": {},
        "flags": ()})


def test_reference_route_writes_the_same_bytes(dirac, monkeypatch):
    """Without the library the solvers run the Lattice expressions (and
    the hops the numpy body): the same bytes, counted as fallbacks."""
    b = point_source(dirac.grid, (0, 0, 0, 0), 1, 2)
    rhs = dirac.apply_dagger(b)
    schur = SchurWilson(dirac)
    runs = []
    for patched in (False, True):
        if patched:
            _no_library(monkeypatch)
            status = native.status()
            assert (status["kernel"], status["passes"]) == ("reference", "")
            assert "no library" in status["reason"]
        reset_counters()
        runs.append([bicgstab(dirac.mdag_m, rhs, tol=1e-9).x,
                     conjugate_gradient(dirac.mdag_m, rhs, tol=1e-9).x,
                     schur.solve(b, tol=1e-9).x])
        assert (counters().native_fallbacks > 0) == patched
    for native_x, reference_x in zip(*runs):
        assert native_x.data.tobytes() == reference_x.data.tobytes()


#: The 2x2x1x1 distributed CG below, hashed before the Krylov passes
#: existed, per contraction key of numpy's complex128 multiply (Python
#: 3.11, numpy 2.4; elsewhere only the reference comparison runs).
DIST_CG_SHA256 = {"fma": "e06dd78883a4c925", "unfused": "3eb9efcd28eff946"}


def test_distributed_cg_keeps_its_bytes(monkeypatch):
    dims, mpi = [4, 4, 4, 8], [2, 2, 1, 1]
    be = get_backend("generic256")
    op = DistributedWilson(distribute_gauge(
        random_gauge(GridCartesian(dims, be), seed=11), dims, be, mpi),
        mass=0.1)
    b = DistributedLattice(dims, be, mpi, (4, 3)).scatter(
        global_gaussian_spinor(dims, 7).reshape(-1, 4, 3))
    assert isinstance(krylov.algebra(b), krylov.NativeAlgebra)

    def solve():
        return engine.solve_fermion(op, b, method="cg", tol=1e-10,
                                    max_iter=500).x.gather()

    got = solve()
    _no_library(monkeypatch)
    assert got.tobytes() == solve().tobytes()
    if sys.version_info[:2] == (3, 11) and np.__version__.startswith("2.4"):
        key = native.contraction_key(np.complex128)
        assert hashlib.sha256(got.tobytes()).hexdigest()[:16] \
            == DIST_CG_SHA256[key]


# -- the unfused build ------------------------------------------------------------

#: Fused multiply-add mnemonics: x86 (FMA3, AVX-512) and AArch64.
FMA_MNEMONIC = re.compile(
    r"\s(v?fn?m(?:add|sub)(?:sub|add)?\d*\w*|fn?ml[as]\w*)\s")


@pytest.mark.skipif(shutil.which("objdump") is None, reason="no objdump")
def test_unfused_library_holds_no_fma(tmp_path):
    """Built unfused, the library -- the hop and the Krylov passes --
    contains no fused multiply-add: no product is contracted behind the
    source's back (the hazard is gcc's SLP vectorizer, which turns an
    interleaved complex product into vfmaddsub)."""
    cc = native.find_compiler()
    if cc is None:
        pytest.skip("no C compiler")
    flags = native.build_flags({dt: "unfused" for dt in native.ENTRY})
    path = tmp_path / "unfused.so"
    assert native._compile(cc, flags, path) == ""
    text = subprocess.run(["objdump", "-d", str(path)], capture_output=True,
                          text=True, check=True).stdout
    assert "hop_cb_c128" in text and "krylov_c64" in text
    assert FMA_MNEMONIC.findall(text) == []
