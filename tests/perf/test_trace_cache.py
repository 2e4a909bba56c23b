"""Trace-cache behaviour: hot results bit-identical to cold, VL/dtype
keying and invalidation accounting, and the cache-hit rate of a
repeated Wilson-Dslash sweep."""

import numpy as np

import repro.perf as perf
from repro.bench.workloads import dslash_setup
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

    def test_hot_run_is_a_pure_trace_hit(self):
        kernel, cisa = KERNELS[1]
        arrs = _arrays(kernel)
        cached_run_kernel(kernel, arrs, 256, complex_isa=cisa)
        reset_counters()
        cached_run_kernel(kernel, arrs, 256, complex_isa=cisa)
        c = counters()
        assert c.trace_hits == 1
        assert c.trace_misses == 0
        # A trace hit never re-enters the program cache.
        assert c.program_hits == 0 and c.program_misses == 0


class TestInvalidation:
    def test_vl_change_invalidates_hot_trace(self):
        kernel = ir.mult_cplx_kernel()
        arrs = _arrays(kernel)
        cached_run_kernel(kernel, arrs, 256)
        assert counters().trace_invalidations == 0
        cached_run_kernel(kernel, arrs, 512)
        assert counters().trace_invalidations == 1
        cached_run_kernel(kernel, arrs, 256)
        assert counters().trace_invalidations == 2
        # Staying put is a hit again.
        reset_counters()
        cached_run_kernel(kernel, arrs, 256)
        assert counters().trace_hits == 1

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
        sizes = trace_cache().sizes()
        assert sizes == {"programs": 0, "plans": 0}
        c = counters()
        assert c.trace_hits == c.trace_misses == 0
        assert c.program_hits == c.program_misses == 0


class TestDslashSweepHitRate:
    def test_repeated_sweep_runs_entirely_from_plan_cache(self):
        """After one cold sweep, repeated Wilson-Dslash applications
        must hit the flat neighbour-table cache on every gather."""
        setup = dslash_setup("generic256", dims=(4, 4, 4, 4))
        setup.run()  # cold: builds the tables
        reset_counters()
        for _ in range(3):
            setup.run()
        c = counters()
        assert c.nbr_table_misses == 0
        assert c.nbr_table_hits > 0
        assert c.nbr_table_hit_rate() == 1.0
        assert c.fused_dhop_calls == 3
