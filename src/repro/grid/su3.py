"""SU(3) gauge-field utilities.

Gauge matrices ``U_{x,mu}`` live on links and are "represented by 3x3
matrices with complex entries" (Section II-A).  This module provides
construction (cold/unit, random), reunitarisation, and verification
helpers (unitarity / determinant deviations).
"""

from __future__ import annotations

import numpy as np

from repro.grid.cartesian import GridCartesian
from repro.grid.lattice import Lattice
from repro.grid.pauli import random_su3_sites


def unit_gauge(grid: GridCartesian) -> list:
    """Cold configuration: ``U_{x,mu} = 1`` for all links."""
    links = []
    for _mu in range(grid.ndim):
        lat = Lattice(grid, (3, 3))
        lat.data[:, 0, 0, :] = 1.0
        lat.data[:, 1, 1, :] = 1.0
        lat.data[:, 2, 2, :] = 1.0
        links.append(lat)
    return links


def random_su3_field(grid: GridCartesian, rng: np.random.Generator,
                     spread: float = 1.0) -> Lattice:
    """A lattice of independent random SU(3) matrices.

    Generated in canonical site order so the field is identical for
    any SIMD layout or rank decomposition (layout-equivalence tests
    rely on this).
    """
    lat = Lattice(grid, (3, 3))
    lat.from_canonical(random_su3_sites(rng, grid.lsites, spread))
    return lat


def reunitarize(mat: np.ndarray) -> np.ndarray:
    """Project a 3x3 complex matrix to SU(3) (Gram-Schmidt + det fix)."""
    m = np.asarray(mat, dtype=np.complex128).copy()
    # Gram-Schmidt on rows.
    m[0] /= np.linalg.norm(m[0])
    m[1] -= m[0] * np.vdot(m[0], m[1])
    m[1] /= np.linalg.norm(m[1])
    m[2] = np.conj(np.cross(m[0], m[1]))
    # Fix the determinant phase.
    det = np.linalg.det(m)
    m *= det ** (-1.0 / 3.0)
    return m


def unitarity_defect(mat: np.ndarray) -> float:
    """``max |U U^dagger - 1|`` over the matrix entries."""
    m = np.asarray(mat)
    return float(np.abs(m @ m.conj().T - np.eye(3)).max())


def _rows_unitarity_defect(U: np.ndarray) -> float:
    """``max |U U^dagger - 1|`` over a working-layout ``(3, 3, N)``
    link field, from row products ``sum_b U_ab conj(U_cb)`` for
    ``a <= c`` only: ``U U^dagger`` is Hermitian."""
    return max(float(np.abs((U[a] * np.conj(U[c])).sum(0) - (a == c)).max())
               for a in range(3) for c in range(a, 3))


def max_unitarity_defect(lat: Lattice) -> float:
    """Largest unitarity defect over a gauge lattice's working rows."""
    from repro.perf.fused import to_working

    return _rows_unitarity_defect(to_working(lat.data))


def _link_checks(links: list, grid: GridCartesian) -> tuple:
    """``(unitarity defect of each link, plaquette)``, both from one
    working-row copy of each link (the plaquette where it is fused)."""
    from repro.engine.plan import takes_fused_path
    from repro.perf.fused import to_working

    rows = [to_working(u.data) for u in links]
    plaq = (_plaquette_rows(rows, grid) if takes_fused_path(grid.backend)
            else plaquette(links, grid))
    return [_rows_unitarity_defect(w) for w in rows], plaq


def max_det_defect(lat: Lattice) -> float:
    """Largest ``|det U - 1|`` over a gauge lattice."""
    can = lat.to_canonical()
    return float(np.abs(np.linalg.det(can) - 1.0).max())


def plaquette(links: list, grid: GridCartesian) -> float:
    """Average plaquette ``Re tr(U_mu(x) U_nu(x+mu) U_mu(x+nu)^+ U_nu(x)^+)/3``.

    The standard first observable of any lattice gauge code; equals 1
    on a cold configuration.

    Where the Wilson hop is fused (:func:`repro.engine.plan.
    takes_fused_path`) the planes are :func:`repro.perf.fused.
    loop_traces` over the links in the ``(3, 3, N)`` working layout,
    the shifted links gathered per block through
    :func:`repro.grid.stencil.neighbour_table`; otherwise it is the
    layered ``cshift`` and ``colour_mm`` chain below.  Both give the
    same bits.
    """
    from repro.engine.plan import takes_fused_path

    if takes_fused_path(grid.backend):
        from repro.perf.fused import to_working

        return _plaquette_rows([to_working(u.data) for u in links], grid)
    from repro.grid.cshift import cshift
    from repro.grid.tensor import (
        colour_mm, colour_mm_dagger_right, colour_trace_re,
    )

    total = 0.0
    count = 0
    for mu in range(grid.ndim):
        for nu in range(mu + 1, grid.ndim):
            u_mu = links[mu]
            u_nu = links[nu]
            u_nu_xpmu = cshift(u_nu, mu, +1)
            u_mu_xpnu = cshift(u_mu, nu, +1)
            # staple = U_mu(x) U_nu(x+mu) (U_mu(x+nu))^+ (U_nu(x))^+
            m1 = colour_mm(grid.backend, u_mu.data, u_nu_xpmu.data)
            m2 = colour_mm_dagger_right(grid.backend, m1, u_mu_xpnu.data)
            m3 = colour_mm_dagger_right(grid.backend, m2, u_nu.data)
            total += colour_trace_re(grid.backend, m3)
            count += grid.lsites
    return total / (3.0 * count)


def _plaquette_rows(rows: list, grid: GridCartesian) -> float:
    """:func:`plaquette`'s fused branch on the links' working rows."""
    from repro.grid.stencil import neighbour_table
    from repro.perf.fused import loop_traces

    up = [neighbour_table(grid, mu, +1) for mu in range(grid.ndim)]
    planes = [(mu, nu) for mu in range(grid.ndim)
              for nu in range(mu + 1, grid.ndim)]
    total = sum(loop_traces([((rows[mu], None), (rows[nu], up[mu]),
                              (rows[mu], up[nu]), (rows[nu], None))
                             for mu, nu in planes], grid.nlanes))
    return total / (3.0 * grid.lsites * len(planes))
