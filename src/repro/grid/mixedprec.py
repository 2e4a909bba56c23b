"""Mixed-precision solver: double-precision accuracy at
single-precision speed.

The technique of the paper's reference [3] (Clark et al., the QUDA
library: "Solving Lattice QCD systems of equations using mixed
precision solvers on GPUs"), which Grid also implements: run the inner
Krylov iteration in single precision and wrap it in a double-precision
defect-correction (reliable-update) loop.

It is also an exercise of the port surface this paper cares about —
the single-precision operator uses ``vComplexF`` lanes (twice as many
per register, Section V-B's 32-bit specialization of ``vec<T>``).

One loop serves every operator with a ``complex64`` twin
(:func:`single_precision_twin`): the full Wilson matrix, and the
even-odd Schur complement on half-volume fields, which is how
:meth:`repro.grid.evenodd.SchurWilson.solve` — and with it the
propagator — solves by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.grid.cartesian import GridCartesian, GridRedBlack
from repro.grid.coordinates import indices_of
from repro.grid.evenodd import SchurWilson
from repro.grid.lattice import Lattice
from repro.grid.solver import conjugate_gradient
from repro.grid.stencil import red_black, single_precision_grid
from repro.grid.wilson import SPINOR, WilsonDirac
from repro.telemetry.reports import traced_solver

#: Inner tolerance below which a complex64 CG no longer pays: the
#: true residual of its solution stalls near 1e-7 (float32 rounding),
#: so tighter inner solves add iterations, not accuracy.
INNER_TOL_FLOOR = 1e-6


@dataclass
class MixedPrecisionResult:
    """Outcome of a mixed-precision solve."""

    x: Lattice
    converged: bool
    outer_iterations: int
    inner_iterations_total: int
    residual: float
    residual_history: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        """The solver's work in iterations: the single-precision inner
        total, as :attr:`repro.grid.solver.SolverResult.iterations`
        counts CG's."""
        return self.inner_iterations_total


def make_single_precision_copy(dirac: WilsonDirac) -> WilsonDirac:
    """A ``complex64`` replica of a Wilson operator.

    The single-precision grid (:func:`~repro.grid.stencil.
    single_precision_grid`) has twice the complex lanes per register
    (vComplexF vs vComplexD), hence a *different* virtual-node
    decomposition — conversion goes through the canonical layout.
    """
    grid32 = single_precision_grid(dirac.grid)
    links32 = []
    for u in dirac.links:
        lat = Lattice(grid32, (3, 3))
        lat.from_canonical(u.to_canonical().astype(np.complex64))
        links32.append(lat)
    return WilsonDirac(links32, mass=dirac.mass)


def _to_single(grid32: GridCartesian, psi: Lattice) -> Lattice:
    lat = Lattice(grid32, SPINOR)
    lat.from_canonical(psi.to_canonical().astype(np.complex64))
    return lat


def _to_double(grid64: GridCartesian, psi32: Lattice) -> Lattice:
    lat = Lattice(grid64, SPINOR)
    lat.from_canonical(psi32.to_canonical().astype(np.complex128))
    return lat


def _half_site_order(rb: GridRedBlack) -> np.ndarray:
    """Lexicographic local index of each site of a half field on
    ``rb``, in half-field (flat) order."""
    full = rb.full
    coor = full.local_coor_tables().reshape(-1, full.ndim)
    return indices_of(coor[rb.sites], full.ldims)


def _relayout(half: Lattice, target: GridRedBlack,
              take: np.ndarray) -> Lattice:
    """``half``'s sites ``take`` as a half field on ``target``, in
    ``target``'s precision."""
    tensor = half.tensor_shape
    flat = np.moveaxis(half.data, -1, 1).reshape((-1,) + tensor)
    vals = flat[take].astype(target.dtype).reshape(
        (target.osites, target.nlanes) + tensor)
    return Lattice(target, tensor,
                   np.ascontiguousarray(np.moveaxis(vals, 1, -1)))


def _half_converters(grid64: GridCartesian, grid32: GridCartesian):
    """``(to_single, to_double)`` between the odd half fields (where
    the Schur operator acts) of two precisions' grids.

    The two red-black grids hold the same sites in different orders
    (the lane counts differ), so conversion is a site permutation,
    derived once from the full grids' coordinate tables.
    """
    rb64, rb32 = red_black(grid64, "odd"), red_black(grid32, "odd")
    where = np.empty(grid64.lsites, dtype=np.intp)
    where[_half_site_order(rb64)] = np.arange(grid64.lsites // 2)
    take32 = where[_half_site_order(rb32)]
    take64 = np.argsort(take32)
    return (partial(_relayout, target=rb32, take=take32),
            partial(_relayout, target=rb64, take=take64))


def has_single_twin(op) -> bool:
    """Whether :func:`single_precision_twin` can build ``op``'s twin: a
    Schur operator needs a half-volume checkerboard at the
    single-precision lane count too."""
    if not isinstance(op, SchurWilson):
        return True
    grid = op.grid
    return GridRedBlack.fits(grid.ldims, grid.backend.clanes(np.complex64))


def single_precision_twin(op):
    """``(op32, to_single, to_double)`` for a mixed-precision solve.

    * A :class:`~repro.grid.evenodd.SchurWilson` gets the Schur
      complement of the single-precision Wilson copy; its odd half
      fields convert by a half-site permutation, never through full
      fields.
    * A Wilson operator gets :func:`make_single_precision_copy`; full
      fields convert through the canonical layout.

    A Schur operator's twin is memoised on it, so the twelve solves of
    a propagator share one twin and one pair of converters; like the
    operators' link snapshots, it is built from ``op``'s links at the
    first call.  A Wilson operator's is built per call.
    """
    if isinstance(op, SchurWilson):
        if op._twin is None:
            op32 = SchurWilson(make_single_precision_copy(op.dirac))
            op._twin = (op32,) + _half_converters(op.grid, op32.grid)
        return op._twin
    op32 = make_single_precision_copy(op)
    return (op32, partial(_to_single, op32.grid),
            partial(_to_double, op.grid))


def defect_correction(op, b: Lattice, tol: float, inner_tol: float,
                      max_outer: int, max_inner: int,
                      max_iter: int | None = None,
                      inner_solve=conjugate_gradient,
                      screen=None) -> MixedPrecisionResult:
    """Solve ``op x = b`` to double-precision ``tol`` with
    single-precision inner CGNE solves on ``op``'s twin.

    In double precision keep the true residual ``r = b - op x``; each
    outer step solves ``op d = r`` approximately on the twin with
    ``inner_solve`` (a CG: ``(op, rhs, tol=, max_iter=)``) and updates
    ``x += d``.  Because the residual is re-computed in double
    precision, the final accuracy is *not* limited by float32 — only
    the convergence *rate* of the inner solve is.

    ``max_iter`` (``None``: unbounded) caps the inner iterations summed
    over all outer steps; each inner solve is also capped by
    ``max_inner``.  ``screen(outer, rel, last_rel)``, if given, judges
    each trial update by its true residual: ``"keep"`` it, ``"retry"``
    (discard it and solve the same defect again) or ``"stop"``.
    """
    x = b.new_like()
    bnorm = b.norm2() ** 0.5
    if bnorm == 0.0:
        return MixedPrecisionResult(x=x, converged=True, outer_iterations=0,
                                    inner_iterations_total=0, residual=0.0)
    op32, to_single, to_double = single_precision_twin(op)
    r = b.copy()
    history = [1.0]
    inner_total = 0
    for outer in range(1, max_outer + 1):
        budget = max_inner if max_iter is None \
            else min(max_inner, max_iter - inner_total)
        if budget <= 0:
            break
        # Inner: CGNE on the float32 operator, float32 RHS.
        rhs32 = op32.apply_dagger(to_single(r))
        inner = inner_solve(op32.mdag_m, rhs32, tol=inner_tol,
                            max_iter=budget)
        inner_total += inner.iterations
        x_trial = x + to_double(inner.x)
        # True residual, double precision.
        r_trial = b - op.apply(x_trial)
        rel = r_trial.norm2() ** 0.5 / bnorm
        verdict = "keep" if screen is None else screen(outer, rel,
                                                       history[-1])
        if verdict == "retry":
            continue
        if verdict == "stop":
            break
        x, r = x_trial, r_trial
        history.append(rel)
        if rel <= tol:
            return MixedPrecisionResult(
                x=x, converged=True, outer_iterations=outer,
                inner_iterations_total=inner_total, residual=rel,
                residual_history=history,
            )
        if len(history) > 2 and history[-1] > 0.9 * history[-2]:
            # Stagnation guard: float32 inner solve can no longer
            # reduce the double-precision residual.
            break
    return MixedPrecisionResult(
        x=x, converged=False, outer_iterations=len(history) - 1,
        inner_iterations_total=inner_total, residual=history[-1],
        residual_history=history,
    )


@traced_solver("mixed")
def mixed_precision_cgne(
    dirac,
    b: Lattice,
    tol: float = 1e-10,
    inner_tol: float = 1e-5,
    max_outer: int = 20,
    max_inner: int = 500,
    max_iter: int | None = None,
) -> MixedPrecisionResult:
    """Solve ``M x = b`` to double-precision ``tol`` with
    single-precision inner CGNE solves (:func:`defect_correction`).

    ``dirac`` is a Wilson operator or its
    :class:`~repro.grid.evenodd.SchurWilson` complement.
    """
    return defect_correction(dirac, b, tol, inner_tol, max_outer,
                             max_inner, max_iter)
