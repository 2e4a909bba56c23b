"""Krylov solvers for the Wilson system, each written once.

"A significant fraction of time-to-solution of LQCD applications is
spent in solving a linear set of equations, for which iterative solvers
like Conjugate Gradient are used" (Section II-A).  CG requires a
hermitian positive-definite operator, so the Wilson system ``M x = b``
is solved through the normal equations ``M^dagger M x = M^dagger b``
(CGNE); BiCGSTAB and MR work on ``M`` directly.

In CG and BiCGSTAB a numeric hazard interrupts the iteration as a
:class:`Hazard`.  An unguarded run stops there and reports it as its
``breakdown``.  A run given a ``guard``
(:class:`repro.resilience.guard.FaultGuard`) instead consults its
ledger — restart from the last verified iterate, or stop — and checks
the true residual periodically and before accepting convergence.
Unguarded, the recursion pays for none of it; guarded, a fault-free
run is bit-identical to the unguarded one.

CG and BiCGSTAB take their vector algebra from
:func:`repro.grid.krylov.algebra`: where the fused hop runs, each step
between two operator applications -- an update with its norm, a pair of
inner products -- is one compiled pass (five per BiCGSTAB iteration,
three per CG iteration), and elsewhere the Lattice expressions, with
the same bytes either way.

Each recursion is wrapped by
:func:`repro.telemetry.reports.traced_solver`: with tracing on, one
``"solve"`` span carrying the convergence record is emitted per run,
whichever entry it came through; off, the wrapper is one policy flag
check.  Either way the iterates are untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.grid.krylov import algebra
from repro.grid.lattice import Lattice
from repro.telemetry.reports import traced_solver


@dataclass
class SolverResult:
    """Convergence record of one solve.

    ``breakdown`` is empty for a normal run; on a numeric breakdown
    (zero denominator, non-finite residual) it names the hazard and the
    result is returned non-converged.  ``x`` is ``None`` only in
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


class Hazard(Exception):
    """A numeric hazard that interrupts an iteration: ``breakdown`` is
    what an unguarded run reports, ``event`` a guarded run's ledger
    entry, and ``fail`` what a guarded run reports, with ``residual``
    (default: the last recursive one), once it cannot restart."""

    def __init__(self, breakdown: str, event: str = "", fail: str = "",
                 residual: float = None):
        super().__init__(breakdown or event)
        self.breakdown, self.event = breakdown, event
        self.fail, self.residual = fail, residual

    def stopped(self, ledger, x, it: int, history: list) -> SolverResult:
        """The result of the run it stopped at iteration ``it``: an
        unguarded run reports the iterate ``x`` it reached, a guarded
        one its ledger's last verified iterate."""
        guarded = ledger is not None
        done = ledger.result if guarded else SolverResult
        return done(
            x=ledger.good_x if guarded else x, converged=False,
            iterations=it, residual_history=history,
            residual=history[-1] if self.residual is None else self.residual,
            breakdown=self.fail if guarded else self.breakdown)


@traced_solver("cg")
def conjugate_gradient(
    op: Callable[[Lattice], Lattice],
    b: Lattice,
    x0: Lattice = None,
    tol: float = 1e-8,
    max_iter: int = 1000,
    guard=None,
) -> SolverResult:
    """CG for a hermitian positive-definite ``op``.

    Terminates when ``|r| / |b| <= tol``.  With a ``guard`` the result
    is an ``FTSolverResult`` and reports the true residual.
    """
    alg = algebra(b)
    x = b.new_like() if x0 is None else x0.copy()
    r = b - op(x) if x0 is not None else b.copy()
    p = r.copy()
    rr = alg.norm2(r)
    bnorm = alg.norm2(b) ** 0.5
    ledger = None if guard is None else guard.ledger(op, b, bnorm, x)
    done = SolverResult if ledger is None else ledger.result
    if bnorm == 0.0:
        return done(x=b.new_like(), converged=True, iterations=0,
                    residual=0.0)
    history = [rr ** 0.5 / bnorm]
    it = 0
    while it < max_iter:
        it += 1
        try:
            ap = op(p)
            denom = alg.dot(p, ap).real
            if not _finite_nonzero(denom):
                raise Hazard(f"cg: pAp denominator {denom!r}",
                             f"cg: denominator hazard at iter {it} "
                             f"({denom!r})",
                             f"cg: unrecoverable denominator ({denom!r})")
            alpha = rr / denom
            x, r, rr_new = alg.cg_update(x, p, r, ap, alpha)
            if not math.isfinite(rr_new):
                raise Hazard("cg: non-finite residual norm",
                             f"cg: non-finite residual at iter {it}",
                             "cg: unrecoverable non-finite residual")
            rel = rr_new ** 0.5 / bnorm
            history.append(rel)
            reported, ok = (rel, True) if ledger is None \
                else ledger.check(it, x, rel, tol)
            if not ok:
                raise Hazard("", f"cg: silent drift at iter {it} (true "
                             f"{reported:.3e} vs recursive {rel:.3e})",
                             "cg: unrecoverable silent drift", reported)
            if rel <= tol:
                return done(x=x, converged=True, iterations=it,
                            residual=reported, residual_history=history)
            beta = rr_new / rr
            p = alg.axpy(r, p, beta)
            rr = rr_new
        except Hazard as hazard:
            if ledger is not None and ledger.recover(hazard.event):
                x = ledger.good_x.copy()
                r = b - op(x)
                p = r.copy()
                rr = alg.norm2(r)
                if math.isfinite(rr):
                    continue
            return hazard.stopped(ledger, x, it, history)
    return done(x=x, converged=False, iterations=max_iter,
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
    guard=None,
) -> SolverResult:
    """BiCGSTAB for a general (non-hermitian) operator.

    With a ``guard``, as :func:`conjugate_gradient`; a restart also
    takes a fresh shadow residual ``r0 = r``, the classic cure for the
    recursion's fragile breakdowns.
    """
    alg = algebra(b)
    x = b.new_like() if x0 is None else x0.copy()
    r = b - op(x) if x0 is not None else b.copy()
    r0 = r.copy()
    rho = alpha = omega = 1.0 + 0j
    rho_next = None  # <r0, r>, where the last update computed it
    v = b.new_like()
    p = b.new_like()
    bnorm = alg.norm2(b) ** 0.5
    ledger = None if guard is None else guard.ledger(op, b, bnorm, x)
    done = SolverResult if ledger is None else ledger.result
    if bnorm == 0.0:
        return done(x=b.new_like(), converged=True, iterations=0,
                    residual=0.0)
    history = [alg.norm2(r) ** 0.5 / bnorm]
    it = 0
    while it < max_iter:
        it += 1
        try:
            rho_new = alg.dot(r0, r) if rho_next is None else rho_next
            if not _finite_nonzero(abs(rho_new)):
                raise Hazard(f"bicgstab: rho breakdown ({rho_new!r})",
                             f"bicgstab: rho breakdown at iter {it}",
                             "bicgstab: unrecoverable rho breakdown")
            # Guarded, omega is finite here: a non-finite one poisons
            # the residual below, which restarts the recursion.
            if ledger is None and not _finite_nonzero(abs(omega)):
                raise Hazard(f"bicgstab: omega breakdown ({omega!r})")
            beta = (rho_new / rho) * (alpha / omega)
            p = alg.bicg_direction(r, p, v, omega, beta)
            v = op(p)
            r0v = alg.dot(r0, v)
            if not _finite_nonzero(abs(r0v)):
                raise Hazard(f"bicgstab: (r0, v) denominator {r0v!r}",
                             f"bicgstab: (r0,v) breakdown at iter {it}",
                             "bicgstab: unrecoverable (r0,v) breakdown")
            alpha = rho_new / r0v
            s, ss = alg.bicg_half(r, v, alpha)
            s_rel = ss ** 0.5 / bnorm
            if not math.isfinite(s_rel):
                raise Hazard("bicgstab: non-finite intermediate residual",
                             f"bicgstab: non-finite s at iter {it}",
                             "bicgstab: unrecoverable non-finite residual")
            if s_rel <= tol:
                x = alg.axpy(x, p, alpha)
                reported, ok = (s_rel, True) if ledger is None \
                    else ledger.check(it, x, s_rel, tol)
                if not ok:
                    raise Hazard("",
                                 f"bicgstab: drift at early exit iter {it}",
                                 "bicgstab: unrecoverable drift")
                history.append(s_rel)
                return done(x=x, converged=True, iterations=it,
                            residual=reported, residual_history=history)
            t = op(s)
            tt, ts = alg.bicg_dots(t, s)
            if not _finite_nonzero(abs(tt)):
                raise Hazard(f"bicgstab: (t, t) denominator {tt!r}",
                             f"bicgstab: (t,t) breakdown at iter {it}",
                             "bicgstab: unrecoverable (t,t) breakdown")
            omega = (alg.dot(t, s) if ts is None else ts) / tt
            x, r, rr, rho_next = alg.bicg_update(x, p, alpha, s, omega, t,
                                                 r0)
            rel = rr ** 0.5 / bnorm
            if not math.isfinite(rel):
                raise Hazard("bicgstab: non-finite residual norm",
                             f"bicgstab: non-finite residual at iter {it}",
                             "bicgstab: unrecoverable non-finite residual")
            history.append(rel)
            reported, ok = (rel, True) if ledger is None \
                else ledger.check(it, x, rel, tol)
            if not ok:
                raise Hazard("", f"bicgstab: silent drift at iter {it}",
                             "bicgstab: unrecoverable silent drift")
            if rel <= tol:
                return done(x=x, converged=True, iterations=it,
                            residual=reported, residual_history=history)
            rho = rho_new
        except Hazard as hazard:
            if ledger is not None and ledger.recover(hazard.event):
                x = ledger.good_x.copy()
                r = b - op(x)
                r0 = r.copy()
                rho = alpha = omega = 1.0 + 0j
                rho_next = None
                v = b.new_like()
                p = b.new_like()
                if math.isfinite(alg.norm2(r)):
                    continue
            return hazard.stopped(ledger, x, it, history)
    return done(x=x, converged=False, iterations=max_iter,
                residual=history[-1], residual_history=history)


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
