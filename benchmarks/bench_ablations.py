"""Ablations over the design choices DESIGN.md calls out.

* ``movprfx`` emission in the complex-via-real lowering (the register-
  allocation artifact visible in the paper's Section IV-B listing);
* even-odd (Schur) preconditioning vs plain CGNE;
* mixed-precision (float32-inner) vs pure double CGNE, on the full
  matrix and on the Schur complement — the QUDA technique of the
  paper's reference [3];
* the Section V-E silicon hypotheses applied to the *whole dslash*
  instruction stream, not just a micro-kernel.
"""

import numpy as np
import pytest

from repro.armie import run_kernel
from repro.bench.tables import Table
from repro.bench.workloads import complex_arrays, dslash_setup
from repro.engine.solve import solve_fermion
from repro.grid.cartesian import GridCartesian
from repro.grid.evenodd import SchurWilson
from repro.grid.mixedprec import mixed_precision_cgne
from repro.grid.random import random_gauge, random_spinor
from repro.grid.solver import solve_wilson_cgne
from repro.grid.wilson import WilsonDirac
from repro.simd import get_backend
from repro.sve.costmodel import FAST_FCMLA, SLOW_FCMLA, estimate_cycles
from repro.vectorizer import ir
from repro.vectorizer.autovec import vectorize


def test_movprfx_ablation(show):
    """movprfx is mandatory for correctness only when the FMA
    accumulator must be preserved; our allocator can avoid it, armclang
    did not.  Cost: +2 instructions per complex multiply."""
    k = ir.mult_cplx_kernel()
    x, y = complex_arrays(128, seed=0)
    table = Table(["codegen", "static body insns", "retired @VL512",
                   "movprfx", "correct"],
                  title="Ablation: movprfx emission (Section IV-B shape)",
                  align=["l", "r", "r", "r", "l"])
    for use in (True, False):
        prog = vectorize(k, complex_isa=False, use_movprfx=use)
        res = run_kernel(prog, k, [x, y], 512)
        ok = np.allclose(res.output, x * y, rtol=1e-13)
        table.add("armclang-like (movprfx)" if use else "in-place FMA",
                  sum(prog.static_histogram().values()), res.retired,
                  res.histogram.get("movprfx", 0), "yes" if ok else "NO")
        assert ok
    show(table)


def test_evenodd_ablation(show):
    grid = GridCartesian([4, 4, 4, 8], get_backend("avx512"))
    dirac = WilsonDirac(random_gauge(grid, seed=11), mass=0.2)
    b = random_spinor(grid, seed=5)
    full = solve_wilson_cgne(dirac, b, tol=1e-8, max_iter=1000)
    eo = SchurWilson(dirac).solve(b, tol=1e-8, max_iter=1000)
    table = Table(["solver", "iterations", "true |r|/|b|"],
                  title="Ablation: even-odd (Schur) preconditioning",
                  align=["l", "r", "r"])
    table.add("CGNE on M (double CG iterations)", full.iterations,
              full.residual)
    table.add("mixed Schur solve (complex64 inner total)", eo.iterations,
              eo.residual)
    show(table)
    assert eo.converged and full.converged
    assert eo.iterations < full.iterations
    diff = (full.x - eo.x).norm2() ** 0.5 / full.x.norm2() ** 0.5
    assert diff < 1e-6


def test_mixed_precision_ablation(show):
    grid = GridCartesian([4, 4, 4, 4], get_backend("avx512"))
    dirac = WilsonDirac(random_gauge(grid, seed=11), mass=0.3)
    b = random_spinor(grid, seed=5)
    pure = solve_wilson_cgne(dirac, b, tol=1e-10, max_iter=1000)
    mixed = mixed_precision_cgne(dirac, b, tol=1e-10, inner_tol=1e-5)
    # The same pair on the even-odd Schur complement (odd half fields),
    # the propagator's default solve.
    schur = SchurWilson(dirac)
    rhs = schur.project(b, "odd")
    pure_s = solve_fermion(schur, rhs, method="cg", tol=1e-10,
                           max_iter=1000)
    mixed_s = solve_fermion(schur, rhs, method="mixed", tol=1e-10,
                            inner_tol=1e-5)
    table = Table(
        ["solver", "f64 op applies", "f32 op applies", "residual"],
        title="Ablation: mixed precision (QUDA-style, ref. [3])",
        align=["l", "r", "r", "r"],
    )
    table.add("pure double CGNE", 2 * pure.iterations + 1, 0, pure.residual)
    table.add("f32-inner defect correction",
              2 * mixed.outer_iterations + 1,
              2 * mixed.inner_iterations_total, mixed.residual)
    table.add("pure double Schur CGNE", 2 * pure_s.iterations + 1, 0,
              pure_s.residual)
    table.add("f32-inner Schur defect correction",
              2 * mixed_s.outer_iterations + 1,
              2 * mixed_s.inner_iterations_total, mixed_s.residual)
    show(table)
    assert mixed.converged and mixed.residual < 1e-10
    assert mixed_s.converged and mixed_s.residual < 1e-10
    # The double-precision work collapses to a handful of outer steps.
    assert 2 * mixed.outer_iterations + 1 < (2 * pure.iterations + 1) / 4
    assert 2 * mixed_s.outer_iterations + 1 \
        <= (2 * pure_s.iterations + 1) / 4


def test_dslash_cost_profiles(show):
    """Section V-E at application level: the full dslash instruction
    stream costed under both silicon hypotheses."""
    table = Table(
        ["backend", "profile", "est. cycles", "winner?"],
        title="Dslash (2^4) estimated cycles under V-E silicon hypotheses",
        align=["l", "l", "r", "l"],
    )
    cycles = {}
    for strategy in ("acle", "real"):
        setup = dslash_setup(f"sve512-{strategy}", dims=(2, 2, 2, 2))
        be = setup.grid.backend
        be.instruction_counts().clear()
        setup.run()
        hist = dict(be.instruction_counts())
        for profile in (FAST_FCMLA, SLOW_FCMLA):
            cycles[(strategy, profile.name)] = estimate_cycles(hist, profile)
    for profile in ("fast-fcmla", "slow-fcmla"):
        a = cycles[("acle", profile)]
        r = cycles[("real", profile)]
        table.add("sve512-acle", profile, round(a),
                  "<-" if a < r else "")
        table.add("sve512-real", profile, round(r),
                  "<-" if r < a else "")
    show(table)
    assert cycles[("acle", "fast-fcmla")] < cycles[("real", "fast-fcmla")]
    assert cycles[("real", "slow-fcmla")] < cycles[("acle", "slow-fcmla")]


@pytest.mark.parametrize("variant", ["full", "evenodd"])
def test_solver_variants(benchmark, variant):
    grid = GridCartesian([4, 4, 4, 4], get_backend("avx512"))
    dirac = WilsonDirac(random_gauge(grid, seed=11), mass=0.2)
    b = random_spinor(grid, seed=5)
    if variant == "full":
        res = benchmark.pedantic(
            solve_wilson_cgne, args=(dirac, b),
            kwargs=dict(tol=1e-8, max_iter=500), iterations=1, rounds=2)
    else:
        schur = SchurWilson(dirac)
        res = benchmark.pedantic(
            schur.solve, args=(b,), kwargs=dict(tol=1e-8, max_iter=500),
            iterations=1, rounds=2)
    assert res.converged


def test_mixed_precision_bench(benchmark):
    grid = GridCartesian([4, 4, 4, 4], get_backend("avx512"))
    dirac = WilsonDirac(random_gauge(grid, seed=11), mass=0.3)
    b = random_spinor(grid, seed=5)
    res = benchmark.pedantic(
        mixed_precision_cgne, args=(dirac, b),
        kwargs=dict(tol=1e-10, inner_tol=1e-5), iterations=1, rounds=2)
    assert res.converged
