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

The inner Krylov method is BiCGSTAB on the twin itself, as Grid and
QUDA run non-hermitian solvers on the preconditioned operator: on the
Schur complement it needs 2.5–5x fewer iterations than CGNE on
``S^dagger S`` at the same four half hops per iteration.  Where it
does not pay — on a thermalised configuration past the critical mass it
took 9–28x CGNE's iterations — CGNE is kept.  Which of the two runs is
measured, not configured: one probe solve per twin
(:func:`inner_method`).

The outer step's double-precision algebra -- the trial iterate ``x +
to_double(d)``, the true residual ``b - op x`` with its norm, and the
residual's cast back -- runs through :func:`repro.grid.krylov.algebra`:
compiled passes where the fused hop runs (the Schur twin's
:class:`Relayout` conversions included), the Lattice expressions
elsewhere, with the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.grid.cartesian import GridCartesian, GridRedBlack
from repro.grid.coordinates import indices_of
from repro.grid.evenodd import SchurWilson
from repro.grid.krylov import algebra
from repro.grid.lattice import Lattice
from repro.grid.solver import bicgstab, conjugate_gradient
from repro.grid.stencil import red_black, single_precision_grid
from repro.grid.wilson import SPINOR, WilsonDirac
from repro.telemetry import trace as _telemetry
from repro.telemetry.reports import traced_solver

#: Inner tolerance below which a complex64 Krylov solve no longer
#: pays: the true residual of its solution stalls near 1e-7 (float32
#: rounding; on the 8^4 Schur twin 1.2e-7 for BiCGSTAB and 1.4e-7 for
#: CGNE from inner tolerance 1e-7 down), so tighter inner solves add
#: iterations, not accuracy.
INNER_TOL_FLOOR = 1e-6

#: The inner Krylov pair of :func:`defect_correction`: BiCGSTAB on the
#: twin ``op32.apply``, and CG for CGNE on ``op32.mdag_m``.  Both take
#: ``(op, rhs, tol=, max_iter=)``.
INNER_SOLVERS = (bicgstab, conjugate_gradient)

#: Seed of the probe's Gaussian right-hand side (:func:`inner_method`).
PROBE_SEED = 2018

#: Iteration cap of the probe's CGNE solve.
PROBE_MAX_ITER = 500


@dataclass
class MixedPrecisionResult:
    """Outcome of a mixed-precision solve."""

    x: Lattice
    converged: bool
    outer_iterations: int
    inner_iterations_total: int
    residual: float
    residual_history: list = field(default_factory=list)
    #: A guarded solve's fault ledger (``None`` unguarded): the
    #: restarts, detected events and true-residual checks of the outer
    #: screen and the inner solves together
    #: (:class:`repro.resilience.guard.Ledger`).
    restarts: int | None = None
    detected_events: list | None = None
    true_residual_checks: int | None = None

    @property
    def iterations(self) -> int:
        """The solver's work in iterations: the single-precision inner
        total (BiCGSTAB and CGNE iterations summed over the outer
        steps), as :attr:`repro.grid.solver.SolverResult.iterations`
        counts a single recursion's.  A probe's iterations
        (:func:`inner_method`) are not in it."""
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


class Relayout:
    """A half field's sites ``take`` as a half field on ``target``, in
    ``target``'s precision: a permutation of the site axis and a cast.
    The Krylov algebra reads ``take`` and ``target`` to run it as a pass
    (:meth:`repro.grid.krylov.NativeAlgebra.convert`)."""

    def __init__(self, target: GridRedBlack, take: np.ndarray) -> None:
        self.target, self.take = target, take

    def __call__(self, half: Lattice) -> Lattice:
        tensor = half.tensor_shape
        sites = half.data.reshape(tensor + (-1,))
        vals = np.take(sites, self.take, axis=-1).astype(self.target.dtype)
        return Lattice(self.target, tensor,
                       vals.reshape(self.target.field_shape(tensor)))


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
    return Relayout(rb32, take32), Relayout(rb64, take64)


def has_single_twin(op) -> bool:
    """Whether :func:`single_precision_twin` can build ``op``'s twin: a
    Schur operator needs a half-volume checkerboard at the
    single-precision lane count too."""
    if not isinstance(op, SchurWilson):
        return True
    grid = op.grid
    return GridRedBlack.fits(grid.ldims, grid.backend.clanes(np.complex64))


def _kind(op) -> tuple:
    """``(dirac, kind)``: the Wilson operator that memoises ``op``'s
    twin and probe, and ``op``'s key there (``"schur"`` or
    ``"wilson"``)."""
    if isinstance(op, SchurWilson):
        return op.dirac, "schur"
    return op, "wilson"


def single_precision_twin(op):
    """``(op32, to_single, to_double)`` for a mixed-precision solve.

    * A Wilson operator gets :func:`make_single_precision_copy`; full
      fields convert through the canonical layout.
    * A :class:`~repro.grid.evenodd.SchurWilson` gets the Schur
      complement of its Wilson operator's twin; its odd half fields
      convert by a half-site permutation, never through full fields.

    The twins are memoised on the Wilson operator, one per kind over
    one complex64 copy, so the solves of a propagator, the propagators
    over one operator and the full mixed solves all share them; like
    the operator's link snapshots, the copy is built from its links at
    the first call.
    """
    dirac, kind = _kind(op)
    twin = dirac._twins.get(kind)
    if twin is not None:
        return twin
    if kind == "wilson":
        op32 = make_single_precision_copy(op)
        twin = (op32, partial(_to_single, op32.grid),
                partial(_to_double, op.grid))
    else:
        op32 = SchurWilson(single_precision_twin(dirac)[0])
        twin = (op32,) + _half_converters(op.grid, op32.grid)
    dirac._twins[kind] = twin
    return twin


def inner_method(op, op32, inner_tol: float) -> tuple:
    """``(method, C)``: the inner Krylov method of a mixed solve of
    ``op`` on its twin ``op32`` at ``inner_tol``, and the iteration cap
    ``C`` of a BiCGSTAB inner solve.

    One probe decides: a fixed Gaussian field (:data:`PROBE_SEED`) is
    solved on the twin to ``inner_tol`` by CGNE, then by BiCGSTAB
    capped at CGNE's count ``C``.  ``method`` is ``"bicgstab"`` only if
    BiCGSTAB converged in fewer iterations, else ``"cg"``; so the
    choice depends on the operator and ``inner_tol`` only, never on a
    right-hand side.  It is memoised on the Wilson operator beside the
    twin, per operator kind and ``inner_tol``, so the solves of every
    propagator over one operator probe once.  With tracing on the probe
    is one ``"twin.probe"`` span.
    """
    dirac, kind = _kind(op)
    key = (kind, inner_tol)
    if key in dirac._inner:
        return dirac._inner[key]
    grid = red_black(op32.grid, "odd") if kind == "schur" else op32.grid
    # The lane-major draw, whatever the layout: each site keeps its
    # value.
    shape = (grid.osites,) + SPINOR + (grid.nlanes,)
    rng = np.random.default_rng(PROBE_SEED)
    z = (rng.standard_normal(shape)
         + 1j * rng.standard_normal(shape)).astype(np.complex64)
    if kind == "schur":
        z = np.ascontiguousarray(np.moveaxis(z, 0, -2))
    z = Lattice(grid, SPINOR, z)
    with _telemetry.span("twin.probe", inner_tol=inner_tol) as sp:
        cgne = conjugate_gradient(op32.mdag_m, op32.apply_dagger(z),
                                  tol=inner_tol, max_iter=PROBE_MAX_ITER)
        cap = cgne.iterations
        bi = bicgstab(op32.apply, z, tol=inner_tol, max_iter=cap)
        method = "bicgstab" if bi.converged and bi.iterations < cap \
            else "cg"
        if sp is not None:
            sp.attrs.update(method=method, cg_iterations=cap,
                            bicgstab_iterations=bi.iterations,
                            iterations=cap + bi.iterations)
    dirac._inner[key] = (method, cap)
    return method, cap


def _inner_step(op32, r32, inner_tol: float, budget: int, method: str,
                cap: int, inner_solve) -> tuple:
    """One outer step's single-precision solve of ``op32 d = r32``:
    ``(d, iterations, results)``, ``results`` the inner solves'.

    Under BiCGSTAB the step gets ``min(budget, cap)`` iterations; a
    miss (no convergence, or a reported breakdown) re-solves the same
    defect by CGNE on what is left of ``budget``.  Under CGNE it is one
    CG on the normal equations with the whole ``budget``.
    """
    solve_direct, solve_normal = inner_solve
    spent, results = 0, []
    if method == "bicgstab":
        inner = solve_direct(op32.apply, r32, tol=inner_tol,
                             max_iter=min(budget, cap))
        spent = inner.iterations
        results.append(inner)
        if inner.converged or spent >= budget:
            return inner.x, spent, results
    inner = solve_normal(op32.mdag_m, op32.apply_dagger(r32),
                         tol=inner_tol, max_iter=budget - spent)
    return inner.x, spent + inner.iterations, results + [inner]


def defect_correction(op, b: Lattice, tol: float, inner_tol: float,
                      max_outer: int, max_inner: int,
                      max_iter: int | None = None,
                      inner_solve=INNER_SOLVERS,
                      guard=None) -> MixedPrecisionResult:
    """Solve ``op x = b`` to double-precision ``tol`` with
    single-precision inner solves on ``op``'s twin.

    In double precision keep the true residual ``r = b - op x``; each
    outer step solves ``op d = r`` approximately on the twin and
    updates ``x += d``.  Because the residual is re-computed in double
    precision, the final accuracy is *not* limited by float32 — only
    the convergence *rate* of the inner solve is.

    The inner method is the one :func:`inner_method` chose for the
    twin: BiCGSTAB on ``op32.apply`` (a miss re-solves the defect by
    CGNE), or CGNE on ``op32.mdag_m``.  ``inner_solve`` is the
    ``(bicgstab, cg)`` pair that runs them (:data:`INNER_SOLVERS`);
    ``(None, cg)`` runs CGNE without a probe.

    ``max_iter`` (``None``: unbounded) caps the inner iterations summed
    over all outer steps, a CGNE re-solve's included; each outer step
    is also capped by ``max_inner``.

    A fault ``guard`` (:class:`~repro.resilience.guard.FaultGuard`)
    guards the inner solves (:meth:`~repro.resilience.guard.FaultGuard.
    inner`) and judges each trial update by its true residual
    (:meth:`~repro.resilience.guard.Ledger.screen`): ``"keep"`` it,
    ``"retry"`` (discard it and solve the same defect again) or
    ``"stop"``.  The guarded result carries that outer ledger merged
    with the inner solves' (:meth:`~repro.resilience.guard.Ledger.
    absorb`).
    """
    alg = algebra(b)
    x = b.new_like()
    bnorm = alg.norm2(b) ** 0.5
    ledger = None if guard is None else guard.ledger()
    done = MixedPrecisionResult if ledger is None \
        else partial(ledger.result, MixedPrecisionResult)
    if bnorm == 0.0:
        return done(x=x, converged=True, outer_iterations=0,
                    inner_iterations_total=0, residual=0.0)
    if guard is not None:
        inner_solve = tuple(
            None if s is None else partial(s, guard=guard.inner())
            for s in inner_solve)
    op32, to_single, to_double = single_precision_twin(op)
    method, cap = ("cg", 0) if inner_solve[0] is None \
        else inner_method(op, op32, inner_tol)
    r = b.copy()
    history = [1.0]
    inner_total = 0
    for outer in range(1, max_outer + 1):
        budget = max_inner if max_iter is None \
            else min(max_inner, max_iter - inner_total)
        if budget <= 0:
            break
        d32, spent, inner = _inner_step(op32, alg.convert(r, to_single),
                                        inner_tol, budget, method, cap,
                                        inner_solve)
        inner_total += spent
        x_trial = alg.add_converted(x, d32, to_double)
        # True residual, double precision.
        r_trial, rr = alg.sub_norm(b, op.apply(x_trial))
        rel = rr ** 0.5 / bnorm
        if ledger is None:
            verdict = "keep"
        else:
            for res in inner:
                ledger.absorb(res)
            verdict = ledger.screen(outer, rel, history[-1])
        if verdict == "retry":
            continue
        if verdict == "stop":
            break
        x, r = x_trial, r_trial
        history.append(rel)
        if rel <= tol:
            return done(
                x=x, converged=True, outer_iterations=outer,
                inner_iterations_total=inner_total, residual=rel,
                residual_history=history,
            )
        if len(history) > 2 and history[-1] > 0.9 * history[-2]:
            # Stagnation guard: float32 inner solve can no longer
            # reduce the double-precision residual.
            break
    return done(
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
    guard=None,
) -> MixedPrecisionResult:
    """Solve ``M x = b`` to double-precision ``tol`` with
    single-precision inner solves (:func:`defect_correction`): BiCGSTAB
    on the twin, or CGNE where a probe finds BiCGSTAB does not pay.

    ``dirac`` is a Wilson operator or its
    :class:`~repro.grid.evenodd.SchurWilson` complement; a ``guard``
    makes the solve survive faulty inner solves.
    """
    return defect_correction(dirac, b, tol, inner_tol, max_outer,
                             max_inner, max_iter, guard=guard)
