"""Krylov solvers for the Wilson system.

"A significant fraction of time-to-solution of LQCD applications is
spent in solving a linear set of equations, for which iterative solvers
like Conjugate Gradient are used" (Section II-A).  CG requires a
hermitian positive-definite operator, so the Wilson system ``M x = b``
is solved through the normal equations ``M^dagger M x = M^dagger b``
(CGNE); BiCGSTAB and MR work on ``M`` directly.

Each recursion is wrapped by
:func:`repro.telemetry.reports.traced_solver`: with
``engine.scope(telemetry="trace")`` active, one ``"solve"`` span
carrying the convergence record (iterations, residual history,
breakdown) is emitted per run — including runs that enter through the
bench harness or the mixed-precision inner loop rather than through
:func:`repro.engine.solve.solve_fermion`.  With telemetry off the
wrapper is one policy flag check; the recursion itself is untouched
either way, so iterates stay bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.grid.lattice import Lattice
from repro.telemetry.reports import traced_solver


@dataclass
class SolverResult:
    """Convergence record of one solve.

    ``breakdown`` is empty for a normal run; on a numeric breakdown
    (zero denominator, non-finite residual) it names the hazard and the
    result is returned non-converged with the last finite iterate —
    NaNs are never propagated to the caller.  ``x`` is ``None`` only in
    records whose solution is handed back separately
    (:func:`repro.grid.propagator.propagator`'s columns).
    """

    x: Optional[Lattice]
    converged: bool
    iterations: int
    residual: float
    residual_history: list = field(default_factory=list)
    breakdown: str = ""


def _finite_nonzero(value: float) -> bool:
    return math.isfinite(value) and value != 0.0


@traced_solver("cg")
def conjugate_gradient(
    op: Callable[[Lattice], Lattice],
    b: Lattice,
    x0: Lattice = None,
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> SolverResult:
    """CG for a hermitian positive-definite ``op``.

    Terminates when ``|r| / |b| <= tol``.
    """
    x = b.new_like() if x0 is None else x0.copy()
    r = b - op(x) if x0 is not None else b.copy()
    p = r.copy()
    rr = r.norm2()
    bnorm = b.norm2() ** 0.5
    if bnorm == 0.0:
        return SolverResult(x=b.new_like(), converged=True, iterations=0,
                            residual=0.0)
    history = [rr ** 0.5 / bnorm]
    for it in range(1, max_iter + 1):
        ap = op(p)
        denom = p.inner_product(ap).real
        if not _finite_nonzero(denom):
            return SolverResult(x=x, converged=False, iterations=it,
                                residual=history[-1],
                                residual_history=history,
                                breakdown=f"cg: pAp denominator {denom!r}")
        alpha = rr / denom
        x = x + p * alpha
        r = r - ap * alpha
        rr_new = r.norm2()
        if not math.isfinite(rr_new):
            return SolverResult(x=x, converged=False, iterations=it,
                                residual=history[-1],
                                residual_history=history,
                                breakdown="cg: non-finite residual norm")
        rel = rr_new ** 0.5 / bnorm
        history.append(rel)
        if rel <= tol:
            return SolverResult(x=x, converged=True, iterations=it,
                                residual=rel, residual_history=history)
        beta = rr_new / rr
        p = r + p * beta
        rr = rr_new
    return SolverResult(x=x, converged=False, iterations=max_iter,
                        residual=history[-1], residual_history=history)


def solve_wilson_cgne(dirac, b: Lattice, tol: float = 1e-8,
                      max_iter: int = 1000) -> SolverResult:
    """Solve ``M x = b`` via CG on the normal equations.

    Delegates to the unified solver entry
    (:func:`repro.engine.solve_fermion` with ``method="cg"``), which
    reproduces this wrapper's RHS preparation and true-residual report
    bit for bit.
    """
    from repro.engine.solve import solve_fermion

    return solve_fermion(dirac, b, method="cg", tol=tol,
                         max_iter=max_iter)


@traced_solver("bicgstab")
def bicgstab(
    op: Callable[[Lattice], Lattice],
    b: Lattice,
    x0: Lattice = None,
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> SolverResult:
    """BiCGSTAB for a general (non-hermitian) operator."""
    x = b.new_like() if x0 is None else x0.copy()
    r = b - op(x) if x0 is not None else b.copy()
    r0 = r.copy()
    rho = alpha = omega = 1.0 + 0j
    v = b.new_like()
    p = b.new_like()
    bnorm = b.norm2() ** 0.5
    if bnorm == 0.0:
        return SolverResult(x=b.new_like(), converged=True, iterations=0,
                            residual=0.0)
    history = [r.norm2() ** 0.5 / bnorm]
    breakdown = ""
    for it in range(1, max_iter + 1):
        rho_new = r0.inner_product(r)
        if not _finite_nonzero(abs(rho_new)):
            breakdown = f"bicgstab: rho breakdown ({rho_new!r})"
            break
        if not _finite_nonzero(abs(omega)):
            breakdown = f"bicgstab: omega breakdown ({omega!r})"
            break
        beta = (rho_new / rho) * (alpha / omega)
        p = r + (p - v * omega) * beta
        v = op(p)
        r0v = r0.inner_product(v)
        if not _finite_nonzero(abs(r0v)):
            breakdown = f"bicgstab: (r0, v) denominator {r0v!r}"
            break
        alpha = rho_new / r0v
        s = r - v * alpha
        s_rel = s.norm2() ** 0.5 / bnorm
        if not math.isfinite(s_rel):
            breakdown = "bicgstab: non-finite intermediate residual"
            break
        if s_rel <= tol:
            x = x + p * alpha
            history.append(s_rel)
            return SolverResult(x=x, converged=True, iterations=it,
                                residual=history[-1],
                                residual_history=history)
        t = op(s)
        tt = t.inner_product(t)
        if not _finite_nonzero(abs(tt)):
            breakdown = f"bicgstab: (t, t) denominator {tt!r}"
            break
        omega = t.inner_product(s) / tt
        x = x + p * alpha + s * omega
        r = s - t * omega
        rel = r.norm2() ** 0.5 / bnorm
        if not math.isfinite(rel):
            breakdown = "bicgstab: non-finite residual norm"
            break
        history.append(rel)
        if rel <= tol:
            return SolverResult(x=x, converged=True, iterations=it,
                                residual=rel, residual_history=history)
        rho = rho_new
    return SolverResult(x=x, converged=False,
                        iterations=it if breakdown else max_iter,
                        residual=history[-1], residual_history=history,
                        breakdown=breakdown)


@traced_solver("mr")
def minimal_residual(
    op: Callable[[Lattice], Lattice],
    b: Lattice,
    x0: Lattice = None,
    tol: float = 1e-8,
    max_iter: int = 2000,
    overrelax: float = 1.0,
) -> SolverResult:
    """Minimal-residual iteration (simple, for small well-conditioned
    systems and as a smoother)."""
    x = b.new_like() if x0 is None else x0.copy()
    r = b - op(x) if x0 is not None else b.copy()
    bnorm = b.norm2() ** 0.5
    if bnorm == 0.0:
        return SolverResult(x=b.new_like(), converged=True, iterations=0,
                            residual=0.0)
    history = [r.norm2() ** 0.5 / bnorm]
    breakdown = ""
    for it in range(1, max_iter + 1):
        ar = op(r)
        denom = ar.norm2()
        if not _finite_nonzero(denom):
            breakdown = f"mr: |Ar|^2 denominator {denom!r}"
            break
        alpha = overrelax * ar.inner_product(r) / denom
        x = x + r * alpha
        r = r - ar * alpha
        rel = r.norm2() ** 0.5 / bnorm
        if not math.isfinite(rel):
            breakdown = "mr: non-finite residual norm"
            break
        history.append(rel)
        if rel <= tol:
            return SolverResult(x=x, converged=True, iterations=it,
                                residual=rel, residual_history=history)
    return SolverResult(x=x, converged=False,
                        iterations=it if breakdown else max_iter,
                        residual=history[-1], residual_history=history,
                        breakdown=breakdown)
