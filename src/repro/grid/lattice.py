"""The Lattice container: one tensor field over a SIMD-decomposed grid.

Storage layout is Grid's: ``data[osite][tensor indices...][lane]`` —
the lane axis is innermost so that one tensor element across all
virtual nodes is exactly one vector register.  Half-volume
checkerboard fields are stored tensor-major instead
(:class:`repro.grid.cartesian.GridRedBlack`); the grid supplies the
shape.  All arithmetic routes
through the grid's SIMD backend, the machine-specific layer the paper
ports.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.grid.cartesian import GridCartesian


class Lattice:
    """A field whose data has the shape its grid gives it
    (``grid.field_shape``): ``(osites, *tensor_shape, nlanes)`` on a
    full grid, tensor-major on a half-volume red-black grid."""

    def __init__(self, grid: GridCartesian, tensor_shape: tuple = (),
                 data: Optional[np.ndarray] = None) -> None:
        self.grid = grid
        self.tensor_shape = tuple(int(t) for t in tensor_shape)
        shape = grid.field_shape(self.tensor_shape)
        if data is None:
            self.data = np.zeros(shape, dtype=grid.dtype)
        else:
            data = np.asarray(data, dtype=grid.dtype)
            if data.shape != shape:
                raise ValueError(
                    f"data shape {data.shape} != lattice shape {shape}"
                )
            self.data = data

    # ------------------------------------------------------------------
    # Constructors / copies
    # ------------------------------------------------------------------
    def new_like(self) -> "Lattice":
        return Lattice(self.grid, self.tensor_shape)

    def copy(self) -> "Lattice":
        return Lattice(self.grid, self.tensor_shape, self.data.copy())

    @property
    def backend(self):
        return self.grid.backend

    # ------------------------------------------------------------------
    # Element-wise arithmetic via the backend
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "Lattice") -> None:
        if self.grid is not other.grid and (
            self.grid.odims != other.grid.odims
            or self.grid.simd_layout != other.grid.simd_layout
        ):
            raise ValueError("lattices live on different grids")
        if self.tensor_shape != other.tensor_shape:
            raise ValueError(
                f"tensor shapes differ: {self.tensor_shape} vs "
                f"{other.tensor_shape}"
            )

    def __add__(self, other: "Lattice") -> "Lattice":
        self._check_compatible(other)
        return Lattice(self.grid, self.tensor_shape,
                       self.backend.add(self.data, other.data))

    def __sub__(self, other: "Lattice") -> "Lattice":
        self._check_compatible(other)
        return Lattice(self.grid, self.tensor_shape,
                       self.backend.sub(self.data, other.data))

    def __neg__(self) -> "Lattice":
        return Lattice(self.grid, self.tensor_shape,
                       self.backend.neg(self.data))

    def __mul__(self, scalar) -> "Lattice":
        return Lattice(self.grid, self.tensor_shape,
                       self.backend.scale(self.data, scalar))

    __rmul__ = __mul__

    def axpy(self, a, x: "Lattice") -> "Lattice":
        """``self + a*x`` (solver update kernel)."""
        self._check_compatible(x)
        return self + x * a

    def conj(self) -> "Lattice":
        return Lattice(self.grid, self.tensor_shape,
                       self.backend.conj(self.data))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def inner_product(self, other: "Lattice") -> complex:
        """Global ``<self, other> = sum conj(self) * other``."""
        self._check_compatible(other)
        prod = self.backend.conj_mul(self.data, other.data)
        return self.backend.reduce_sum(prod)

    def norm2(self) -> float:
        """Global squared norm."""
        return float(self.inner_product(self).real)

    def sum(self) -> complex:
        return self.backend.reduce_sum(self.data)

    # ------------------------------------------------------------------
    # Canonical (layout-independent) import/export
    # ------------------------------------------------------------------
    def _site_view(self) -> np.ndarray:
        """``data`` viewed with canonical axes ``(v_{n-1}, o_{n-1}, ...,
        v_0, o_0, *tensor)``: local ``x_d = o_d + odims_d * v_d``, and
        sites, outer sites and lanes are all lexicographic (dimension 0
        fastest), so copying through this transpose converts layouts."""
        g, nd, nt = self.grid, self.grid.ndim, len(self.tensor_shape)
        return self.data.reshape(
            tuple(g.odims[::-1]) + self.tensor_shape
            + tuple(g.simd_layout[::-1])).transpose(
            [a for k in range(nd) for a in (nd + nt + k, k)]
            + list(range(nd, nd + nt)))

    def _import_sites(self, sites: np.ndarray) -> "Lattice":
        """New ``data`` from ``sites`` shaped like :meth:`_site_view`."""
        self.data = np.empty(self.grid.field_shape(self.tensor_shape),
                             dtype=self.grid.dtype)
        self._site_view()[...] = sites
        return self

    def to_canonical(self) -> np.ndarray:
        """Export to a ``(lsites, *tensor_shape)`` array in lexicographic
        local-site order — independent of the SIMD layout.

        This is the bridge between the vectorized layout and the
        site-ordered world of reference implementations and I/O, and
        the basis of layout-equivalence tests: any two decompositions
        of the same physics export identical canonical arrays.
        """
        return self._site_view().copy().reshape(
            (self.grid.lsites,) + self.tensor_shape)

    def from_canonical(self, canonical: np.ndarray) -> "Lattice":
        """Import from a canonical array (inverse of :func:`to_canonical`)."""
        g = self.grid
        canonical = np.asarray(canonical)
        expected = (g.lsites,) + self.tensor_shape
        if canonical.shape != expected:
            raise ValueError(
                f"canonical shape {canonical.shape} != {expected}"
            )
        return self._import_sites(canonical.reshape(
            [n for v, o in zip(g.simd_layout[::-1], g.odims[::-1])
             for n in (v, o)] + list(self.tensor_shape)))

    # ------------------------------------------------------------------
    # Point access (slow; for tests and examples)
    # ------------------------------------------------------------------
    def peek_site(self, coor) -> np.ndarray:
        """Tensor value at a local coordinate."""
        osite, lane = self.grid.osite_lane_of(coor)
        return self.data[osite, ..., lane].copy()

    def poke_site(self, coor, value) -> None:
        """Set the tensor value at a local coordinate."""
        osite, lane = self.grid.osite_lane_of(coor)
        self.data[osite, ..., lane] = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Lattice tensor={self.tensor_shape} osites={self.grid.osites} "
            f"lanes={self.grid.nlanes} backend={self.backend.name}>"
        )
