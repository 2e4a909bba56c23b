"""Wilson Dirac operator tests against the independent scalar oracle."""

import numpy as np
import pytest

import repro.engine as engine
from repro.grid.cartesian import GridCartesian
from repro.grid.comms import DistributedLattice
from repro.grid.dhop_ref import (
    dense_wilson_matrix,
    dhop_reference,
    wilson_m_reference,
)
from repro.grid.dist_wilson import DistributedWilson, distribute_gauge
from repro.grid.gamma import GAMMA5
from repro.grid.lattice import Lattice
from repro.grid.random import random_gauge, random_spinor
from repro.grid.su3 import unit_gauge
from repro.grid.wilson import SPINOR, WilsonDirac
from repro.simd import get_backend

DIMS = [4, 4, 4, 4]


@pytest.fixture(scope="module")
def setup():
    grid = GridCartesian(DIMS, get_backend("avx512"))
    links = random_gauge(grid, seed=11)
    psi = random_spinor(grid, seed=7)
    return grid, links, psi


class TestDhop:
    def test_matches_reference(self, setup):
        grid, links, psi = setup
        got = WilsonDirac(links).dhop(psi).to_canonical()
        want = dhop_reference([u.to_canonical() for u in links],
                              psi.to_canonical(), DIMS)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("key,layout", [
        ("sse4", None),
        ("avx", None),
        ("avx512", [2, 2, 1, 1]),
        ("avx512", [1, 1, 2, 2]),
        ("generic1024", [2, 2, 2, 1]),
    ])
    def test_layout_independent(self, key, layout):
        """The dslash result cannot depend on the SIMD decomposition."""
        grid = GridCartesian(DIMS, get_backend(key), simd_layout=layout)
        links = random_gauge(grid, seed=11)
        psi = random_spinor(grid, seed=7)
        got = WilsonDirac(links).dhop(psi).to_canonical()
        want = dhop_reference([u.to_canonical() for u in links],
                              psi.to_canonical(), DIMS)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_free_field_momentum_eigenmode(self):
        """With unit links, a zero-momentum spinor is an eigenvector of
        D_h with eigenvalue 8 (sum over 8 direction projectors)."""
        grid = GridCartesian(DIMS, get_backend("avx"))
        links = unit_gauge(grid)
        psi = Lattice(grid, SPINOR)
        const = np.ones((grid.lsites, 4, 3)) + 0j
        psi.from_canonical(const)
        out = WilsonDirac(links).dhop(psi).to_canonical()
        assert np.allclose(out, 8.0 * const)

    def test_wrong_tensor_rejected(self, setup):
        grid, links, _ = setup
        with pytest.raises(ValueError, match="spinor"):
            WilsonDirac(links).dhop(Lattice(grid, (3,)))

    def test_batch_tensor_rejected(self, setup):
        """Every operator and solver takes one right-hand side: a
        stacked ``(2, 4, 3)`` field is refused, naming the spinor
        tensor."""
        grid, links, _ = setup
        spinor_only = r"spinors \(4, 3\), got \(2, 4, 3\)"
        w = WilsonDirac(links, mass=0.3)
        batch = Lattice(grid, (2,) + SPINOR)
        with pytest.raises(ValueError, match=spinor_only):
            w.dhop(batch)
        with pytest.raises(ValueError, match=spinor_only):
            engine.solve_fermion(w, batch, method="cg")
        be = grid.backend
        mpi = [2, 1, 1, 1]
        dist = DistributedWilson(distribute_gauge(links, DIMS, be, mpi),
                                 mass=0.3)
        dbatch = DistributedLattice(DIMS, be, mpi, (2,) + SPINOR).scatter(
            np.zeros((grid.gsites, 2) + SPINOR, dtype=np.complex128))
        with pytest.raises(ValueError, match=spinor_only):
            dist.dhop(dbatch)
        with pytest.raises(ValueError, match=spinor_only):
            engine.solve_fermion(dist, dbatch, method="cg")

    def test_linearity(self, setup):
        grid, links, psi = setup
        w = WilsonDirac(links)
        phi = random_spinor(grid, seed=8)
        lhs = w.dhop(psi * 2.0 + phi * (1 - 1j))
        rhs = w.dhop(psi) * 2.0 + w.dhop(phi) * (1 - 1j)
        assert np.allclose(lhs.data, rhs.data, atol=1e-12)


class TestWilsonM:
    def test_matches_reference(self, setup):
        grid, links, psi = setup
        for mass in (0.0, 0.1, -0.2):
            got = WilsonDirac(links, mass=mass).apply(psi).to_canonical()
            want = wilson_m_reference([u.to_canonical() for u in links],
                                      psi.to_canonical(), DIMS, mass)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12), mass

    def test_gamma5_hermiticity(self, setup):
        grid, links, psi = setup
        w = WilsonDirac(links, mass=0.1)
        phi = random_spinor(grid, seed=21)
        lhs = phi.inner_product(w.apply(psi))
        rhs = w.apply_dagger(phi).inner_product(psi)
        assert np.isclose(lhs, rhs, rtol=1e-10)

    def test_mdag_m_hermitian_positive(self, setup):
        grid, links, psi = setup
        w = WilsonDirac(links, mass=0.1)
        phi = random_spinor(grid, seed=22)
        lhs = phi.inner_product(w.mdag_m(psi))
        rhs = np.conj(psi.inner_product(w.mdag_m(phi)))
        assert np.isclose(lhs, rhs, rtol=1e-10)
        assert psi.inner_product(w.mdag_m(psi)).real > 0

    def test_mass_shifts_diagonal(self, setup):
        grid, links, psi = setup
        m0 = WilsonDirac(links, mass=0.0).apply(psi)
        m1 = WilsonDirac(links, mass=0.5).apply(psi)
        assert np.allclose((m1 - m0).data, 0.5 * psi.data, atol=1e-12)

    def test_flops_per_site_standard(self, setup):
        _, links, _ = setup
        assert WilsonDirac(links).flops_per_site() == 1320


class TestDenseMatrix:
    """Matrix-level checks on a tiny 2^4 lattice (12V = 192)."""

    @pytest.fixture(scope="class")
    def dense(self):
        dims = [2, 2, 2, 2]
        grid = GridCartesian(dims, get_backend("sse4"))
        links = random_gauge(grid, seed=13)
        u_can = [u.to_canonical() for u in links]
        return dims, grid, links, dense_wilson_matrix(u_can, dims, 0.1)

    def test_gamma5_hermiticity_matrix_level(self, dense):
        dims, _, _, mat = dense
        vol = 16
        g5 = np.kron(np.eye(vol), np.kron(GAMMA5, np.eye(3)))
        assert np.allclose(g5 @ mat @ g5, mat.conj().T, atol=1e-10)

    def test_operator_matches_dense_matrix(self, dense):
        dims, grid, links, mat = dense
        psi = random_spinor(grid, seed=3)
        got = WilsonDirac(links, mass=0.1).apply(psi).to_canonical().ravel()
        want = mat @ psi.to_canonical().ravel()
        assert np.allclose(got, want, atol=1e-12)

    def test_spectrum_positive_mdagm(self, dense):
        _, _, _, mat = dense
        eigs = np.linalg.eigvalsh(mat.conj().T @ mat)
        assert eigs.min() > 0
