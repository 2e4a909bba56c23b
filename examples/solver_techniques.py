"""Solver techniques shoot-out: the optimizations a production port
layers on top of the basic CG of Section II-A.

Solves the same Wilson system four ways and compares operator
applications (the dominant cost — each application is one pass of the
Eq. (1) dslash the SVE port accelerates):

* CGNE on the normal equations (the baseline),
* BiCGSTAB directly on the non-hermitian matrix,
* mixed-precision defect correction (ref. [3], QUDA) — the Krylov work
  runs in float32 (twice the SIMD lanes), double precision only
  polishes,
* both at once: even-odd (Schur) preconditioning — half the volume,
  better conditioning — with a float32 inner CG, which is how
  ``SchurWilson.solve`` and the propagator solve by default.

The iterations column counts CG iterations (the float32 inner ones for
the mixed solves).

Usage::

    python examples/solver_techniques.py
"""

import time

from repro.bench.tables import Table
from repro.grid.cartesian import GridCartesian
from repro.grid.evenodd import SchurWilson
from repro.grid.mixedprec import mixed_precision_cgne
from repro.grid.random import random_gauge, random_spinor
from repro.grid.solver import bicgstab, solve_wilson_cgne
from repro.grid.wilson import WilsonDirac
from repro.simd import get_backend

DIMS = [4, 4, 4, 8]
MASS = 0.15
TOL = 1e-9


def main() -> None:
    grid = GridCartesian(DIMS, get_backend("avx512"))
    dirac = WilsonDirac(random_gauge(grid, seed=11), mass=MASS)
    b = random_spinor(grid, seed=5)
    print(f"Wilson system on {DIMS}, m = {MASS}, tol = {TOL}\n")

    table = Table(
        ["method", "iterations", "op applies (f64)", "op applies (f32)",
         "true |r|/|b|", "seconds"],
        title="Four ways to solve M psi = b",
        align=["l", "r", "r", "r", "r", "r"],
    )

    t0 = time.perf_counter()
    cg = solve_wilson_cgne(dirac, b, tol=TOL, max_iter=2000)
    table.add("CGNE", cg.iterations, 2 * cg.iterations + 1, 0,
              cg.residual, time.perf_counter() - t0)

    t0 = time.perf_counter()
    bi = bicgstab(dirac.apply, b, tol=TOL, max_iter=2000)
    true_bi = (b - dirac.apply(bi.x)).norm2() ** 0.5 / b.norm2() ** 0.5
    table.add("BiCGSTAB", bi.iterations, 2 * bi.iterations, 0, true_bi,
              time.perf_counter() - t0)

    t0 = time.perf_counter()
    mx = mixed_precision_cgne(dirac, b, tol=TOL, inner_tol=1e-5)
    table.add("mixed-precision", mx.iterations,
              2 * mx.outer_iterations + 1, 2 * mx.inner_iterations_total,
              mx.residual, time.perf_counter() - t0)

    t0 = time.perf_counter()
    eo = SchurWilson(dirac).solve(b, tol=TOL, max_iter=2000)
    # Each Schur application is ~one dslash (two half-volume hops).
    # The solve is mixed precision: per outer step one float32
    # S^dagger and one double true residual; the Schur right-hand
    # side, back-substitution and final residual add ~2 in double.
    outer = len(eo.residual_history) - 1
    table.add("even-odd + mixed (default)", eo.iterations, outer + 2,
              2 * eo.iterations + outer, eo.residual,
              time.perf_counter() - t0)

    print(table.render())
    print(
        "\nReading the table:\n"
        "  - BiCGSTAB roughly halves the operator applications of CGNE;\n"
        "  - mixed precision moves ~95% of the applications to float32,\n"
        "    where vComplexF packs twice the lanes per SVE register\n"
        "    (Section V-B's 32-bit vec<T> specialization);\n"
        "  - even-odd preconditioning halves the iteration count again\n"
        "    (and each iteration works on half the sites).\n"
    )
    assert cg.converged and bi.converged and eo.converged and mx.converged


if __name__ == "__main__":
    main()
