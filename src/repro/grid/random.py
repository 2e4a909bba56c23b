"""Deterministic, layout-independent random field generation.

Fields are drawn in *canonical global site order* and then scattered
into whatever (SIMD layout x rank decomposition) the target grid uses.
Consequence: the same seed produces the *same physics* on every
backend, vector length and rank count — the property all
layout-equivalence and verification tests (Section V-D style) build on.
"""

from __future__ import annotations

import numpy as np

from repro.grid.cartesian import GridCartesian
from repro.grid.lattice import Lattice
from repro.grid.pauli import random_su3_sites


def global_gaussian_spinor(gdims, seed: int) -> np.ndarray:
    """Canonical global spinor field ``(gsites, 4, 3)``."""
    gsites = int(np.prod(gdims))
    rng = np.random.default_rng(seed)
    re = rng.normal(size=(gsites, 4, 3))
    im = rng.normal(size=(gsites, 4, 3))
    return (re + 1j * im).astype(np.complex128)


def global_su3_links(gdims, seed: int, spread: float = 1.0) -> list:
    """Canonical global gauge links: 4 arrays ``(gsites, 3, 3)``."""
    gsites = int(np.prod(gdims))
    rng = np.random.default_rng(seed)
    return [random_su3_sites(rng, gsites, spread)
            for _mu in range(len(gdims))]


def _local_slice(grid: GridCartesian, rank_coor, global_field: np.ndarray) -> np.ndarray:
    """Extract this rank's canonical sites from a canonical global field."""
    from repro.grid.coordinates import coordinate_table, indices_of

    local_coors = coordinate_table(grid.ldims)
    offs = np.array([rc * ld for rc, ld in zip(rank_coor, grid.ldims)])
    global_coors = local_coors + offs[None, :]
    idx = indices_of(global_coors, grid.gdims)
    return global_field[idx]


def random_spinor(grid: GridCartesian, seed: int = 7,
                  rank_coor=None) -> Lattice:
    """A Gaussian spinor lattice, identical physics for every layout."""
    if rank_coor is None:
        rank_coor = [0] * grid.ndim
    glob = global_gaussian_spinor(grid.gdims, seed)
    lat = Lattice(grid, (4, 3))
    lat.from_canonical(_local_slice(grid, rank_coor, glob))
    return lat


def random_gauge(grid: GridCartesian, seed: int = 11, spread: float = 1.0,
                 rank_coor=None) -> list:
    """Random SU(3) gauge links, identical physics for every layout."""
    if rank_coor is None:
        rank_coor = [0] * grid.ndim
    glob = global_su3_links(grid.gdims, seed, spread)
    links = []
    for mu in range(grid.ndim):
        lat = Lattice(grid, (3, 3))
        lat.from_canonical(_local_slice(grid, rank_coor, glob[mu]))
        links.append(lat)
    return links
