"""Compiled-kernel bit-identity.

The codegen path promises the same bits as the layered reference —
not "close", identical — across backends, dtypes, batching, the
distributed operator, and IEEE special values.  Comparisons use raw
``tobytes()`` so NaN payloads and signed zeros count.
"""

import warnings

import numpy as np
import pytest

import repro.engine as engine
import repro.perf as perf
from repro.bench.workloads import dslash_setup
from repro.codegen import kernel_for
from repro.perf.fused import accumulate_hop

BACKENDS = ("generic128", "generic256", "generic512")


@pytest.fixture(autouse=True)
def _clean_engine_state():
    engine.reset_all()
    yield
    engine.reset_all()


def _bits(lattice) -> bytes:
    return lattice.data.tobytes()


class TestEndToEnd:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_compiled_dhop_matches_layered(self, backend):
        setup = dslash_setup(backend, dims=(4, 4, 4, 4))
        with perf.disabled():
            ref = _bits(setup.run())
        with engine.scope(codegen="memory"):
            got = _bits(setup.run())
        assert got == ref

    def test_compiled_matches_fused_and_tiled(self):
        setup = dslash_setup("generic256", dims=(4, 4, 4, 4))
        with engine.scope(fused=True, codegen="off"):
            fused = _bits(setup.run())
        with engine.scope(codegen="memory", workers=1):
            serial = _bits(setup.run())
        with engine.scope(codegen="memory", workers=4,
                          tile_min_sites=16):
            tiled = _bits(setup.run())
        assert serial == fused
        assert tiled == fused

    def test_signed_zero_and_inf_bit_identical_to_layered(self):
        # -0.0 and infinities flow through project -> SU(3) ->
        # reconstruct exactly as in the layered path (the generated
        # SU(3) sum keeps its leading 0-addend for the -0.0 case).
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            setup = dslash_setup("generic256", dims=(4, 4, 4, 4))
            d = setup.psi.data
            d[0, 0, 0, 0] = complex(-0.0, -0.0)
            d[1, 1, 1, 0] = complex(np.inf, 0.0)
            d[3, 3, 0, 0] = complex(0.0, -np.inf)
            with perf.disabled():
                ref = _bits(setup.run())
            with engine.scope(codegen="memory"):
                got = _bits(setup.run())
        assert got == ref

    def test_nan_matches_fused_exactly_and_layered_in_value(self):
        # NaN inputs: the fused engine path already differs from the
        # layered reference in the *sign bit* of propagated NaNs (a
        # pre-existing property of its out= contraction order).  The
        # compiled kernel's contract is: byte-identical to the fused
        # path it replaces on every input, and value-identical
        # (same NaN pattern, same finite bits) to layered.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            setup = dslash_setup("generic256", dims=(4, 4, 4, 4))
            setup.psi.data[2, 2, 2, 0] = complex(np.nan, 1.0)
            with perf.disabled():
                ref = setup.run().data.copy()
            with engine.scope(fused=True, codegen="off"):
                fused = setup.run().data.copy()
            with engine.scope(codegen="memory"):
                got = setup.run().data.copy()
        assert got.tobytes() == fused.tobytes()
        rf, gf = ref.view(np.float64), got.view(np.float64)
        nans = np.isnan(rf)
        assert np.array_equal(nans, np.isnan(gf))
        assert rf[~nans].tobytes() == gf[~nans].tobytes()

    def test_mdag_m_matches_reference(self):
        setup = dslash_setup("generic256", dims=(4, 4, 4, 4))
        with perf.disabled():
            ref = setup.dirac.mdag_m(setup.psi).data.tobytes()
        with engine.scope(codegen="memory", workers=4,
                          tile_min_sites=16):
            got = setup.dirac.mdag_m(setup.psi).data.tobytes()
        assert got == ref


class TestKernelLevel:
    """Direct per-direction kernel checks — this is where complex64
    coverage lives (the lattice stack is complex128 end to end)."""

    @pytest.mark.parametrize("dtype", (np.complex128, np.complex64))
    @pytest.mark.parametrize("mu", range(4))
    def test_dir_kernel_matches_interpreted_fusion(self, mu, dtype):
        rng = np.random.default_rng(100 + mu)
        n, nl = 32, 4

        def carr(*shape):
            return (rng.normal(size=shape)
                    + 1j * rng.normal(size=shape)).astype(dtype)

        acc = carr(n, 4, 3, nl)
        u_f, u_b = carr(n, 3, 3, nl), carr(n, 3, 3, nl)
        p_f, p_b = carr(n, 4, 3, nl), carr(n, 4, 3, nl)

        ref = acc.copy()
        accumulate_hop(ref, u_f, u_b, p_f, p_b, mu)

        got = acc.copy()
        fn = kernel_for(f"dhop-dir{mu}", 4, dtype, "memory").fn
        fn(got, u_f, p_f, u_b, p_b)

        assert got.dtype == dtype
        assert got.tobytes() == ref.tobytes(), (mu, dtype)

    def test_dir_kernel_special_values_complex64(self):
        rng = np.random.default_rng(9)
        n, nl = 16, 4
        shape = (n, 4, 3, nl)
        p_f = (rng.normal(size=shape)
               + 1j * rng.normal(size=shape)).astype(np.complex64)
        p_f[0, 0, 0, 0] = complex(-0.0, -0.0)
        p_f[1, 1, 1, 1] = complex(np.nan, np.inf)
        u = (rng.normal(size=(n, 3, 3, nl))
             + 1j * rng.normal(size=(n, 3, 3, nl))).astype(np.complex64)
        acc = np.zeros(shape, dtype=np.complex64)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ref = acc.copy()
            accumulate_hop(ref, u, u, p_f, p_f, 0)

            got = acc.copy()
            fn = kernel_for("dhop-dir0", 4, np.complex64, "memory").fn
            fn(got, u, p_f, u, p_f)
        assert got.tobytes() == ref.tobytes()


class TestDistributed:
    def test_distributed_dhop_matches_layered(self):
        from repro.grid.cartesian import GridCartesian
        from repro.grid.comms import DistributedLattice
        from repro.grid.dist_wilson import (
            DistributedWilson,
            distribute_gauge,
        )
        from repro.grid.random import random_gauge, random_spinor
        from repro.simd import get_backend

        dims, mpi = [4, 4, 4, 4], [2, 1, 1, 1]
        be = get_backend("generic256")
        grid = GridCartesian(dims, be)
        links = random_gauge(grid, seed=11)
        psi = random_spinor(grid, seed=7)
        dlinks = distribute_gauge(links, dims, be, mpi)
        dw = DistributedWilson(dlinks, mass=0.1)

        def run():
            dpsi = DistributedLattice(dims, be, mpi, (4, 3)).scatter(
                psi.to_canonical())
            return dw.dhop(dpsi).gather().tobytes()

        with perf.disabled():
            ref = run()
        with engine.scope(codegen="memory", overlap_comms=False):
            ordered = run()
        with engine.scope(codegen="memory", overlap_comms=True):
            overlapped = run()
        assert ordered == ref
        assert overlapped == ref
