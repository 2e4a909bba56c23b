"""Program-cache behaviour: hot results bit-identical to cold, one
compile per kernel signature whatever the VL, the pinned cold/hot
kernel sweep, and the cache hits of a repeated Wilson-Dslash sweep."""

import numpy as np
import pytest

import repro.perf as perf
import repro.perf.trace_cache as trace_cache_mod
from repro.bench.workloads import dslash_setup
from repro.perf import native
from repro.perf.counters import counters, reset_counters
from repro.perf.trace_cache import (cached_run_kernel, cached_vectorize,
                                    kernel_signature, trace_cache)
from repro.vectorizer import ir


def _arrays(kernel, n=97, seed=3):
    rng = np.random.default_rng(seed)
    out = []
    for _ in kernel.inputs:
        a = rng.normal(size=n)
        if kernel.is_complex:
            a = a + 1j * rng.normal(size=n)
        out.append(a)
    return out


KERNELS = [
    (ir.mult_real_kernel(), False),
    (ir.mult_cplx_kernel(), False),
    (ir.mult_cplx_kernel(), True),
    (ir.axpy_kernel(0.5 - 0.25j), False),
]


@pytest.fixture
def compiles(monkeypatch):
    """A list that records every program the cache compiles."""
    seen = []
    compile_ = trace_cache_mod._compile

    def counting(kernel, *args):
        seen.append(kernel.name)
        return compile_(kernel, *args)

    monkeypatch.setattr(trace_cache_mod, "_compile", counting)
    return seen


class TestHotCold:
    def test_hot_results_bit_identical_to_cold(self):
        for kernel, cisa in KERNELS:
            arrs = _arrays(kernel)
            cold = cached_run_kernel(kernel, arrs, 256,
                                     complex_isa=cisa).output
            hot = cached_run_kernel(kernel, arrs, 256,
                                    complex_isa=cisa).output
            assert np.array_equal(cold, hot), kernel.name

    def test_cached_matches_uncached_pipeline(self):
        """The memoized pipeline must equal the pre-engine one bit for
        bit — the contract the whole engine rests on."""
        for kernel, cisa in KERNELS:
            arrs = _arrays(kernel)
            got = cached_run_kernel(kernel, arrs, 256,
                                    complex_isa=cisa).output
            with perf.disabled():
                ref = cached_run_kernel(kernel, arrs, 256,
                                        complex_isa=cisa).output
            assert np.array_equal(ref, got), kernel.name

    def test_hot_run_compiles_nothing(self, compiles):
        kernel, cisa = KERNELS[1]
        arrs = _arrays(kernel)
        cached_run_kernel(kernel, arrs, 256, complex_isa=cisa)
        assert len(compiles) == 1
        reset_counters()
        cached_run_kernel(kernel, arrs, 256, complex_isa=cisa)
        c = counters()
        assert c.program_hits == 1 and c.program_misses == 0
        assert len(compiles) == 1


class TestInvalidation:
    def test_vl_change_reuses_the_program(self, compiles):
        """One program serves every VL; the machine binds its steps
        once per VL on the program itself."""
        kernel = ir.mult_cplx_kernel()
        arrs = _arrays(kernel)
        for vl in (256, 512, 256):
            cached_run_kernel(kernel, arrs, vl)
        assert len(compiles) == 1
        assert counters().program_misses == 1
        assert counters().program_hits == 2
        assert sorted(cached_vectorize(kernel)._bound) == [256, 512]

    def test_results_stay_correct_across_vl_churn(self):
        kernel = ir.axpy_kernel(1.25 + 0.5j)
        arrs = _arrays(kernel, n=131)
        for vl in (256, 512, 128, 256, 512):
            got = cached_run_kernel(kernel, arrs, vl).output
            with perf.disabled():
                ref = cached_run_kernel(kernel, arrs, vl).output
            assert np.array_equal(ref, got), vl

    def test_dtype_is_part_of_the_key(self):
        """f64 and f32 variants of the same kernel shape never share a
        program (the signature embeds the scalar type)."""
        k64 = ir.mult_real_kernel("f64")
        k32 = ir.mult_real_kernel("f32")
        assert kernel_signature(k64) != kernel_signature(k32)
        cached_vectorize(k64)
        cached_vectorize(k32)
        assert trace_cache().sizes()["programs"] == 2
        assert counters().program_misses == 2

    def test_structurally_equal_kernels_share_a_program(self):
        cached_vectorize(ir.mult_cplx_kernel())
        cached_vectorize(ir.mult_cplx_kernel())  # fresh, same structure
        assert trace_cache().sizes()["programs"] == 1
        assert counters().program_hits == 1

    def test_complex_isa_gets_its_own_program(self):
        kernel = ir.mult_cplx_kernel()
        cached_vectorize(kernel, complex_isa=False)
        cached_vectorize(kernel, complex_isa=True)
        assert trace_cache().sizes()["programs"] == 2


class TestDisabled:
    def test_disabled_bypasses_cache_entirely(self):
        kernel, cisa = KERNELS[3]
        arrs = _arrays(kernel)
        with perf.disabled():
            cached_run_kernel(kernel, arrs, 256, complex_isa=cisa)
            cached_vectorize(kernel)
        assert trace_cache().sizes() == {"programs": 0}
        c = counters()
        assert c.program_hits == c.program_misses == 0


class TestDslashSweepHitRate:
    def test_repeated_sweep_runs_entirely_from_plan_cache(self,
                                                          monkeypatch):
        """After one cold sweep, repeated Wilson-Dslash applications
        of the numpy block body (the route where the compiled kernel
        cannot load; the kernel gathers through the operator's own
        tables) must hit the flat neighbour-table cache on every
        gather."""
        monkeypatch.setattr(native, "kernel", lambda dtype: None)
        setup = dslash_setup("generic256", dims=(4, 4, 4, 4))
        setup.run()  # cold: builds the tables
        reset_counters()
        for _ in range(3):
            setup.run()
        c = counters()
        assert c.nbr_table_misses == 0
        assert c.nbr_table_hits > 0
        assert c.fused_dhop_calls == 3


class TestPinnedKernelSweep:
    """A cold sweep of four kernels at VLs 256 and 512, then a hot
    replay at 256 (n = 257, inputs seeded 42)."""

    VLS = (256, 512)
    HOT_REPS = 5

    def test_cold_sweep_then_hot_replay(self, compiles):
        arrays = [_arrays(kernel, n=257, seed=42) for kernel, _ in KERNELS]
        cold, retired = {}, 0
        for i, ((kernel, cisa), arrs) in enumerate(zip(KERNELS, arrays)):
            for vl in self.VLS:
                res = cached_run_kernel(kernel, arrs, vl, complex_isa=cisa)
                cold[(i, vl)] = res.output
                retired += res.retired
        assert retired == 5994
        # One program per kernel serves both VLs.
        assert len(compiles) == 4
        assert counters().program_misses == 4

        hot_vl = self.VLS[0]
        for _ in range(self.HOT_REPS):
            for i, ((kernel, cisa), arrs) in enumerate(zip(KERNELS,
                                                           arrays)):
                res = cached_run_kernel(kernel, arrs, hot_vl,
                                        complex_isa=cisa)
                assert np.array_equal(res.output, cold[(i, hot_vl)])
        assert len(compiles) == 4
        assert counters().program_hits == 24
