"""Compute a pion two-point function — the canonical LQCD measurement.

This is the workload class the paper's introduction motivates: the
quark propagator requires solving ``M S = delta`` twelve times (4 spins
x 3 colours), and "a significant fraction of time-to-solution of LQCD
applications is spent in solving a linear set of equations"
(Section II-A).  Each column here is an even-odd (Schur) solve in mixed
precision: double-precision defect correction around BiCGSTAB on a
single-precision twin of the half-volume operator (CGNE where one probe
solve per operator finds BiCGSTAB does not pay).  Every complex
multiply inside those solves is the arithmetic the SVE port
accelerates with FCMLA.

The script computes C(t) on a small lattice for two quark masses,
prints the correlator and the effective-mass plateau, and verifies that
the heavier quark yields a heavier pion.

Usage::

    python examples/pion_correlator.py
"""

import time

import numpy as np

from repro.bench.tables import Table
from repro.grid.cartesian import GridCartesian
from repro.grid.propagator import effective_mass, pion_correlator
from repro.grid.random import random_gauge
from repro.grid.wilson import WilsonDirac
from repro.simd import get_backend

DIMS = [4, 4, 4, 8]


def ascii_plot(values, width: int = 48) -> list:
    """Log-scale bar chart of a positive series."""
    logs = np.log10(np.asarray(values))
    lo, hi = logs.min(), logs.max()
    span = (hi - lo) or 1.0
    return ["#" * max(1, int(width * (v - lo) / span)) for v in logs]


def main() -> None:
    grid = GridCartesian(DIMS, get_backend("avx512"))
    links = random_gauge(grid, seed=11, spread=0.2)  # fairly smooth
    print(f"Lattice {DIMS}, backend {grid.backend.name} "
          f"({grid.nlanes} virtual nodes)\n")

    masses = (0.3, 1.0)
    corrs = {}
    for m in masses:
        dirac = WilsonDirac(links, mass=m)
        t0 = time.perf_counter()
        corrs[m] = pion_correlator(dirac, tol=1e-9, max_iter=2000)
        dt = time.perf_counter() - t0
        print(f"m = {m}: 12 mixed-precision Schur solves in {dt:.1f} s")

    lt = DIMS[-1]
    table = Table(
        ["t"] + [f"C(t) m={m}" for m in masses]
        + [f"m_eff m={m}" for m in masses],
        title="Pion correlator and effective mass",
    )
    meffs = {m: effective_mass(corrs[m]) for m in masses}
    for t in range(lt):
        row = [t] + [f"{corrs[m][t]:.4e}" for m in masses]
        for m in masses:
            row.append(f"{meffs[m][t]:.3f}" if t < lt - 1 else "-")
        table.add(*row)
    print()
    print(table.render())

    print("\nC(t) for m = 0.3 (log scale):")
    for t, bar in enumerate(ascii_plot(corrs[0.3])):
        print(f"  t={t:2d} |{bar}")

    # The physics check: heavier quark -> heavier pion -> faster decay.
    half = lt // 2
    m_light = meffs[0.3][:half][1:].mean()
    m_heavy = meffs[1.0][:half][1:].mean()
    print(f"\nEffective masses (plateau average, first half): "
          f"m_pi({masses[0]}) ~ {m_light:.3f}, "
          f"m_pi({masses[1]}) ~ {m_heavy:.3f}")
    assert m_heavy > m_light, "heavier quark must give a heavier pion"
    print("Heavier quark -> heavier pion: physics reproduced.")


if __name__ == "__main__":
    main()
