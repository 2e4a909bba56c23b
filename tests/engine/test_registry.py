"""Operator registry round-trips: ``get_operator(name, ...)`` must be
bitwise-equivalent to direct construction across vector lengths, and
every registered operator must satisfy the FermionOperator protocol."""

import numpy as np
import pytest

import repro.engine as engine
from repro.engine.operators import (
    FermionOperator,
    MultiRHSOperator,
    operator_spec,
    register_operator,
)
from repro.grid.cartesian import GridCartesian
from repro.grid.clover import WilsonClover
from repro.grid.comms import DistributedLattice
from repro.grid.dist_wilson import DistributedWilson, distribute_gauge
from repro.grid.evenodd import SchurWilson
from repro.grid.multirhs import stack_rhs
from repro.grid.random import random_gauge, random_spinor
from repro.grid.wilson import SPINOR, WilsonDirac
from repro.simd import get_backend

DIMS = [4, 4, 4, 4]
VLS = ["generic128", "generic256", "generic512"]

BUILTIN = {"wilson", "clover", "wilson-eo", "wilson-dist", "wilson-mrhs"}


def _setup(backend_name):
    be = get_backend(backend_name)
    grid = GridCartesian(DIMS, be)
    return grid, random_gauge(grid, seed=11), random_spinor(grid, seed=7)


class TestRegistrySurface:
    def test_builtin_operators_registered(self):
        assert BUILTIN <= set(engine.operator_names())

    def test_names_are_sorted(self):
        names = engine.operator_names()
        assert names == sorted(names)

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(KeyError, match="wilson"):
            engine.get_operator("staggered")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_operator("wilson")(lambda: None)

    def test_spec_carries_description(self):
        assert operator_spec("wilson").description


class TestRoundTrip:
    @pytest.mark.parametrize("backend_name", VLS)
    def test_wilson(self, backend_name):
        _, links, psi = _setup(backend_name)
        op = engine.get_operator("wilson", links=links, mass=0.1)
        direct = WilsonDirac(links, mass=0.1)
        assert np.array_equal(op.apply(psi).data, direct.apply(psi).data)
        assert np.array_equal(op.apply_dagger(psi).data,
                              direct.apply_dagger(psi).data)

    @pytest.mark.parametrize("backend_name", VLS)
    def test_clover(self, backend_name):
        _, links, psi = _setup(backend_name)
        op = engine.get_operator("clover", links=links, mass=0.1, c_sw=1.0)
        direct = WilsonClover(links, mass=0.1, c_sw=1.0)
        assert np.array_equal(op.apply(psi).data, direct.apply(psi).data)

    @pytest.mark.parametrize("backend_name", VLS)
    def test_wilson_eo(self, backend_name):
        _, links, psi = _setup(backend_name)
        op = engine.get_operator("wilson-eo", links=links, mass=0.1)
        direct = SchurWilson(WilsonDirac(links, mass=0.1))
        psi_o = direct.project(psi, "odd")
        assert np.array_equal(op.apply(psi_o).data,
                              direct.schur(psi_o).data)
        assert np.array_equal(op.mdag_m(psi_o).data,
                              direct.schur_norm(psi_o).data)

    def test_wilson_eo_rejects_other_operators(self):
        """The Schur complement uses the Wilson diagonal 4 + m; a
        clover operator (a WilsonDirac subclass) must not slip in."""
        _, links, _ = _setup("generic256")
        clover = WilsonClover(links, mass=0.1, c_sw=1.0)
        with pytest.raises(ValueError, match="WilsonClover"):
            engine.get_operator("wilson-eo", dirac=clover)

    @pytest.mark.parametrize("backend_name", VLS)
    def test_wilson_dist(self, backend_name):
        _, links, psi = _setup(backend_name)
        be = get_backend(backend_name)
        mpi = [2, 1, 1, 1]
        op = engine.get_operator(
            "wilson-dist", links=distribute_gauge(links, DIMS, be, mpi),
            mass=0.1)
        direct = DistributedWilson(
            distribute_gauge(links, DIMS, be, mpi), mass=0.1)
        dpsi = DistributedLattice(DIMS, be, mpi, SPINOR).scatter(
            psi.to_canonical())
        assert np.array_equal(op.apply(dpsi).gather(),
                              direct.apply(dpsi).gather())

    @pytest.mark.parametrize("backend_name", VLS)
    def test_wilson_mrhs(self, backend_name):
        grid, links, _ = _setup(backend_name)
        op = engine.get_operator("wilson-mrhs", links=links, mass=0.1)
        assert isinstance(op, MultiRHSOperator)
        cols = [random_spinor(grid, seed=40 + j) for j in range(3)]
        batch = op.stack(cols)
        direct = WilsonDirac(links, mass=0.1)
        assert np.array_equal(op.apply(batch).data,
                              direct.apply(stack_rhs(cols)).data)
        for got, src in zip(op.split(op.apply(batch)), cols):
            assert np.array_equal(got.data, direct.apply(src).data)


class TestProtocol:
    @pytest.mark.parametrize("name", sorted(BUILTIN))
    def test_runtime_checkable(self, name):
        _, links, _ = _setup("generic256")
        if name == "wilson-dist":
            links = distribute_gauge(links, DIMS, get_backend("generic256"),
                                     [2, 1, 1, 1])
        op = engine.get_operator(name, links=links, mass=0.1)
        assert isinstance(op, FermionOperator)
        assert op.flops_per_site() > 0
        assert op.bytes_per_site() > 0

    def test_geometry_metadata(self):
        _, links, _ = _setup("generic256")
        geo = engine.get_operator("wilson", links=links).geometry
        assert geo.gdims == tuple(DIMS)
        assert geo.tensor_shape == SPINOR
        assert geo.sites == 256
        assert geo.nranks == 1
        assert geo.dtype == "complex128"

    def test_dist_geometry_counts_ranks(self):
        _, links, _ = _setup("generic256")
        dlinks = distribute_gauge(links, DIMS, get_backend("generic256"),
                                  [2, 2, 1, 1])
        geo = engine.get_operator("wilson-dist", links=dlinks).geometry
        assert geo.nranks == 4
        assert geo.gdims == tuple(DIMS)
