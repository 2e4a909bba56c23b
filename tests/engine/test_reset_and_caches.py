"""The uniform cache knob and ``engine.reset_all()``.

Pre-engine, ``perf.disabled()`` suppressed fusion and the cshift plan
cache but *not* the trace cache or the distributed shift/halo memos —
so "measure the reference path" silently reused engine-built state.
The policy's single ``caches`` knob (and its ``enabled`` gate) now
governs every cache uniformly: with it off, no cache is consulted
*or populated*.  ``reset_all()`` is the one-call clean slate composing
the comms, degradation, counter and cache resets.
"""

import numpy as np

import repro.engine as engine
import repro.perf as perf
from repro.engine.plan import kernel_plan
from repro.grid.cartesian import GridCartesian
from repro.grid.comms import DistributedLattice
from repro.grid.cshift import cshift
from repro.grid.dist_wilson import DistributedWilson, distribute_gauge
from repro.grid.random import random_gauge, random_spinor
from repro.grid.stencil import (
    neighbour_table,
    parity_neighbour_table,
    red_black,
)
from repro.grid.wilson import SPINOR, WilsonDirac
from repro.perf.counters import counters, reset_counters
from repro.perf.trace_cache import cached_run_kernel, trace_cache
from repro.simd import get_backend
from repro.vectorizer import ir

DIMS = [4, 4, 4, 4]


def _grid():
    return GridCartesian(DIMS, get_backend("generic256"))


def _dist():
    be = get_backend("generic256")
    grid = GridCartesian(DIMS, be)
    links = random_gauge(grid, seed=11)
    psi = random_spinor(grid, seed=7)
    w = DistributedWilson(distribute_gauge(links, DIMS, be, [2, 1, 1, 1]),
                          mass=0.1)
    dpsi = DistributedLattice(DIMS, be, [2, 1, 1, 1], SPINOR).scatter(
        psi.to_canonical())
    return w, dpsi


class TestUniformCacheKnob:
    def test_disabled_suppresses_host_caches(self):
        grid = _grid()
        psi = random_spinor(grid, seed=3)
        red_black_caches = ("_rb_grids", "_cb_tables")
        with perf.disabled():
            cshift(psi, 0, 1)
            kernel_plan(grid, "dhop")
            table = neighbour_table(grid, 0, 1)
            odd = red_black(grid, "odd")
            cb_table = parity_neighbour_table(grid, "odd", 0, 1)
            assert "_cshift_plans" not in grid.__dict__
            assert "_kernel_plans" not in grid.__dict__
            assert "_nbr_tables" not in grid.__dict__
            for attr in red_black_caches:
                assert attr not in grid.__dict__
        # Caches off with the engine on: recomputed, equal, not stored.
        with engine.scope(enabled=True, caches=False):
            assert np.array_equal(neighbour_table(grid, 0, 1), table)
            assert red_black(grid, "odd") is not odd
            assert np.array_equal(red_black(grid, "odd").sites, odd.sites)
            assert np.array_equal(
                parity_neighbour_table(grid, "odd", 0, 1), cb_table)
            assert "_nbr_tables" not in grid.__dict__
            for attr in red_black_caches:
                assert attr not in grid.__dict__
        # Engine on: the same calls populate them.
        with engine.scope(enabled=True, caches=True):
            cshift(psi, 0, 1)
            kernel_plan(grid, "dhop")
            assert neighbour_table(grid, 0, 1) is \
                neighbour_table(grid, 0, 1)
            assert red_black(grid, "odd") is red_black(grid, "odd")
            assert parity_neighbour_table(grid, "odd", 0, 1) is \
                parity_neighbour_table(grid, "odd", 0, 1)
        assert grid.__dict__["_cshift_plans"]
        assert grid.__dict__["_kernel_plans"]
        assert np.array_equal(grid.__dict__["_nbr_tables"][(0, 1)], table)
        assert np.array_equal(grid.__dict__["_cb_tables"][("odd", 0, 1)],
                              cb_table)
        assert np.array_equal(grid.__dict__["_rb_grids"]["odd"].sites,
                              odd.sites)
        # ... and the engine's cache reset evicts the tables again.
        engine.reset_all()
        assert "_nbr_tables" not in grid.__dict__
        for attr in red_black_caches:
            assert attr not in grid.__dict__

    def test_disabled_suppresses_comms_memos(self):
        """The latent inconsistency this PR fixes: the distributed
        shift/halo memos now follow the same knob as every other
        cache."""
        w, dpsi = _dist()
        with perf.disabled():
            ref = w.dhop(dpsi).gather()
            assert dpsi._shift_params == {}
            assert dpsi._halo_sizes == {}
        with engine.scope(enabled=True, caches=False):
            w.dhop(dpsi)
            assert dpsi._shift_params == {}
            assert dpsi._halo_sizes == {}
        with engine.scope(enabled=True, caches=True):
            got = w.dhop(dpsi).gather()
            assert dpsi._shift_params
            assert dpsi._halo_sizes
        assert np.array_equal(ref, got)

    def test_disabled_suppresses_trace_cache(self):
        kernel = ir.mult_cplx_kernel()
        rng = np.random.default_rng(5)
        arrs = [rng.normal(size=64) + 1j * rng.normal(size=64)
                for _ in kernel.inputs]
        trace_cache().clear()
        with perf.disabled():
            cold = cached_run_kernel(kernel, arrs, 256).output
            assert trace_cache().sizes() == {"programs": 0, "plans": 0}
        with engine.scope(caches=False):
            assert np.array_equal(
                cold, cached_run_kernel(kernel, arrs, 256).output)
            assert trace_cache().sizes() == {"programs": 0, "plans": 0}
        hot = cached_run_kernel(kernel, arrs, 256).output
        assert np.array_equal(cold, hot)
        assert trace_cache().sizes()["programs"] == 1


class TestKernelPlanCache:
    def test_plan_memoized_per_policy(self):
        grid = _grid()
        reset_counters()
        p1 = kernel_plan(grid, "dhop")
        p2 = kernel_plan(grid, "dhop")
        assert p1 is p2
        assert counters().plan_misses == 1
        assert counters().plan_hits == 1
        # A width other than the default (the host's CPU count).
        workers = engine.current_policy().workers + 1
        with engine.scope(workers=workers):
            p3 = kernel_plan(grid, "dhop")
            assert kernel_plan(grid, "dhop") is p3
        assert p3 is not p1
        assert p3.workers == workers
        # Back outside the scope the original plan replays.
        assert kernel_plan(grid, "dhop") is p1

    def test_explicit_policy_argument_wins(self):
        grid = _grid()
        with engine.scope(workers=2):
            plan = kernel_plan(grid, "dhop",
                               policy=engine.ExecutionPolicy(workers=5))
        assert plan.workers == 5

    def test_plans_not_stored_with_caches_off(self):
        grid = _grid()
        reset_counters()
        with engine.scope(caches=False):
            p1 = kernel_plan(grid, "dhop")
            p2 = kernel_plan(grid, "dhop")
        assert p1 is not p2
        assert p1 == p2
        assert counters().plan_misses == 2
        assert counters().plan_hits == 0
        assert "_kernel_plans" not in grid.__dict__

    def test_stage_counters_accumulate(self):
        grid = _grid()
        w = WilsonDirac(random_gauge(grid, seed=11), mass=0.1)
        psi = random_spinor(grid, seed=7)
        w.dhop(psi)
        stages = kernel_plan(grid, "dhop").stages.as_dict()
        assert stages  # fused: gather+compute; layered: layered_sweeps


class TestResetAll:
    def test_reset_all_composes_every_reset(self):
        w, dpsi = _dist()
        grid = dpsi.grids[0]
        w.dhop(dpsi)  # populate plans, memos, counters, comms stats
        assert dpsi.stats.messages > 0
        assert "_kernel_plans" in grid.__dict__
        summary = engine.reset_all()
        assert dpsi.stats.messages == 0
        assert dpsi._shift_params == {}
        assert dpsi._halo_sizes == {}
        assert "_kernel_plans" not in grid.__dict__
        assert "_cshift_plans" not in grid.__dict__
        assert trace_cache().sizes() == {"programs": 0, "plans": 0}
        assert counters().plan_misses == 0
        assert summary["comms_reset"] >= 1
        assert summary["plan_hosts_cleared"] >= 1
        assert summary["trace_cache_cleared"] is True
        assert summary["counters_reset"] is True

    def test_reset_all_can_spare_counters_and_caches(self):
        grid = _grid()
        kernel_plan(grid, "dhop")
        counters().bump("plan_misses", 5)
        summary = engine.reset_all(counters=False, caches=False)
        assert "_kernel_plans" in grid.__dict__
        assert counters().plan_misses >= 5
        assert summary["counters_reset"] is False
        assert summary["trace_cache_cleared"] is False
        reset_counters()

    def test_reset_all_is_result_neutral(self):
        w, dpsi = _dist()
        before = w.dhop(dpsi).gather()
        engine.reset_all()
        after = w.dhop(dpsi).gather()
        assert np.array_equal(before, after)
