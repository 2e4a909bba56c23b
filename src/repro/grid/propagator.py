"""Quark propagators and meson correlators.

The physics payload that motivates the whole stack (Section II-A): a
quark propagator is the set of solutions ``M S = delta`` for the twelve
point sources (4 spins x 3 colours), and the pion two-point function is
its spin-colour-summed modulus per timeslice,

    C(t) = sum_{x, s, s', c, c'} |S(x, t)^{s s'}_{c c'}|^2 ,

which decays exponentially with the pion mass.  Each correlator costs
12 Krylov solves — the reason "a significant fraction of
time-to-solution of LQCD applications is spent in solving a linear set
of equations".
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.grid.cartesian import GridCartesian
from repro.grid.lattice import Lattice
from repro.grid.solver import SolverResult, solve_wilson_cgne
from repro.grid.wilson import SPINOR, WilsonDirac


def point_source(grid: GridCartesian, coor, spin: int, colour: int) -> Lattice:
    """A delta source at local coordinate ``coor`` with one spin-colour
    component set to 1."""
    src = Lattice(grid, SPINOR)
    val = np.zeros(SPINOR, dtype=grid.dtype)
    val[spin, colour] = 1.0
    src.poke_site(coor, val)
    return src


def propagator(dirac: WilsonDirac, coor, tol: float = 1e-8,
               max_iter: int = 2000, solver=solve_wilson_cgne):
    """The 12 columns ``S^{s c} = M^{-1} delta^{s c}``.

    Returns ``(columns, results)`` where ``columns[s][c]`` is a spinor
    lattice and ``results`` the per-solve convergence records.  The
    records carry ``x=None``: the solution is the column, so a caller
    that contracts the columns and keeps only the records (convergence
    statistics over many sources or configurations) does not pin twelve
    solution fields per call.
    """
    columns = [[None] * 3 for _ in range(4)]
    results: list[SolverResult] = []
    for spin in range(4):
        for colour in range(3):
            src = point_source(dirac.grid, coor, spin, colour)
            res = solver(dirac, src, tol=tol, max_iter=max_iter)
            if not res.converged:
                raise RuntimeError(
                    f"propagator column (s={spin}, c={colour}) did not "
                    f"converge: residual {res.residual:.2e}"
                )
            columns[spin][colour] = res.x
            results.append(replace(res, x=None))
    return columns, results


def timeslice_sums(field: Lattice, time_dir: int = 3) -> np.ndarray:
    """``sum_x |field(x, t)|^2`` per timeslice (canonical ordering)."""
    grid = field.grid
    can = field.to_canonical()  # (lsites, ...) dim0 fastest
    spatial = int(np.prod([d for i, d in enumerate(grid.ldims)
                           if i != time_dir]))
    lt = grid.ldims[time_dir]
    if time_dir != grid.ndim - 1:
        raise NotImplementedError("timeslices along the last dim only")
    mags = (np.abs(can.reshape(lt, spatial, -1)) ** 2).sum(axis=(1, 2))
    return mags


def pion_correlator(dirac: WilsonDirac, source_coor=None, tol: float = 1e-8,
                    max_iter: int = 2000) -> np.ndarray:
    """The pion two-point function ``C(t)`` from a point source.

    For the pion interpolator the gamma5 factors square to one, so the
    correlator is simply the summed modulus of the propagator.
    """
    grid = dirac.grid
    if source_coor is None:
        source_coor = tuple(0 for _ in grid.ldims)
    columns, _ = propagator(dirac, source_coor, tol=tol, max_iter=max_iter)
    lt = grid.ldims[-1]
    corr = np.zeros(lt)
    for spin in range(4):
        for colour in range(3):
            corr += timeslice_sums(columns[spin][colour])
    # Shift so the source sits at t = 0.
    t0 = source_coor[-1]
    return np.roll(corr, -t0)


def effective_mass(corr: np.ndarray) -> np.ndarray:
    """``m_eff(t) = log C(t) / C(t+1)`` — plateaus at the pion mass.

    Only the first half (before the periodic image dominates) is
    meaningful on a small lattice.
    """
    corr = np.asarray(corr)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(corr[:-1] / corr[1:])
