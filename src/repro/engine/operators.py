"""The :class:`FermionOperator` protocol and the named operator registry.

Grid selects its fermion action by name (``WilsonFermionR``,
``WilsonCloverFermionR``, ...) behind one uniform operator interface;
the QPACE 4 port paper's lesson is that this seam is what makes new
substrates cheap.  This module is that seam for the reproduction:

* :class:`FermionOperator` — the structural protocol every operator
  satisfies: ``apply`` / ``apply_dagger`` / ``mdag_m``, a
  :class:`OperatorGeometry` descriptor, and ``flops_per_site()`` /
  ``bytes_per_site()`` metadata so benchmarks and solvers can reason
  about any operator uniformly.
* A name -> factory **registry** (:func:`register_operator`,
  :func:`get_operator`, :func:`operator_names`).  Factories import
  their operator classes lazily, so the registry can be enumerated
  without pulling the whole grid layer in — and so this module stays
  importable from ``repro.engine`` without cycles.

``get_operator(name, **kwargs)`` is equivalent to constructing the
class directly (the registry tests assert bitwise-equal application
across vector lengths); the registry adds discovery and a uniform
construction surface, not behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable


@dataclass(frozen=True)
class OperatorGeometry:
    """Where and on what an operator acts.

    ``gdims`` is the global lattice, ``tensor_shape`` the per-site
    tensor the operator consumes, ``dtype`` the scalar ("complex128"),
    ``backend`` the SIMD backend's registry-style name, and ``nranks``
    the rank decomposition (1 for single-rank operators).
    """

    gdims: tuple
    tensor_shape: tuple
    dtype: str
    backend: str
    nranks: int = 1

    @property
    def sites(self) -> int:
        n = 1
        for d in self.gdims:
            n *= int(d)
        return n


@runtime_checkable
class FermionOperator(Protocol):
    """The uniform operator surface solvers are parameterized by."""

    def apply(self, psi):
        """``M psi``."""
        ...

    def apply_dagger(self, psi):
        """``M^dagger psi``."""
        ...

    def mdag_m(self, psi):
        """``M^dagger M psi`` (the hermitian positive-definite CG
        target)."""
        ...

    @property
    def geometry(self) -> OperatorGeometry:
        ...

    def flops_per_site(self) -> int:
        ...

    def bytes_per_site(self) -> int:
        ...


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OperatorSpec:
    """One registry entry."""

    name: str
    factory: Callable
    description: str


_REGISTRY: dict = {}


def register_operator(name: str, description: str = ""):
    """Decorator registering ``factory`` under ``name``."""

    def deco(factory: Callable) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"operator {name!r} already registered")
        _REGISTRY[name] = OperatorSpec(name=name, factory=factory,
                                       description=description)
        return factory

    return deco


def operator_names() -> list:
    """All registered operator names, sorted."""
    return sorted(_REGISTRY)


def operator_spec(name: str) -> OperatorSpec:
    spec = _REGISTRY.get(name)
    if spec is None:
        raise KeyError(
            f"unknown operator {name!r}; registered: {operator_names()}"
        )
    return spec


def get_operator(name: str, **kwargs):
    """Construct the named operator — equivalent to calling its class
    directly with the same arguments."""
    return operator_spec(name).factory(**kwargs)


# ----------------------------------------------------------------------
# Registrations (factories import lazily: the grid layer imports the
# engine, so the engine must not import the grid layer at module scope)
# ----------------------------------------------------------------------
@register_operator("wilson", "Wilson Dirac operator (Eq. (1))")
def _make_wilson(links, mass: float = 0.1, cshift_fn=None):
    from repro.grid.wilson import WilsonDirac

    return WilsonDirac(links, mass=mass, cshift_fn=cshift_fn)


@register_operator("clover",
                   "Wilson-clover (Sheikholeslami-Wohlert) operator")
def _make_clover(links, mass: float = 0.1, c_sw: float = 1.0,
                 cshift_fn=None):
    from repro.grid.clover import WilsonClover

    return WilsonClover(links, mass=mass, c_sw=c_sw, cshift_fn=cshift_fn)


@register_operator("wilson-eo",
                   "even-odd (Schur) preconditioned Wilson operator on "
                   "half-volume fields")
def _make_wilson_eo(links=None, mass: float = 0.1, dirac=None):
    """``dirac`` must be exactly a ``WilsonDirac``: ``SchurWilson``
    raises ``ValueError`` for a subclass such as ``WilsonClover``, whose
    diagonal is not the Wilson ``4 + m`` the Schur complement uses."""
    from repro.grid.evenodd import SchurWilson
    from repro.grid.wilson import WilsonDirac

    if dirac is None:
        if links is None:
            raise ValueError("wilson-eo needs links or a dirac operator")
        dirac = WilsonDirac(links, mass=mass)
    return SchurWilson(dirac)


@register_operator("wilson-dist",
                   "rank-decomposed Wilson operator with halo exchange")
def _make_wilson_dist(links, mass: float = 0.1):
    from repro.grid.dist_wilson import DistributedWilson

    return DistributedWilson(links, mass=mass)
