"""Even-odd (red-black) preconditioning of the Wilson operator.

The standard LQCD solver optimization (used throughout Grid): the
hopping term of Eq. (1) only couples sites of opposite checkerboard
parity, so in the parity-ordered basis the Wilson matrix is

    M = [ Mee  Meo ]      Mee = Moo = (4 + m) * 1
        [ Moe  Moo ]      Meo/Moe = -(1/2) D_h restricted

and solving ``M psi = b`` reduces to a half-volume Schur-complement
system on the odd sites,

    S = Moo - Moe Mee^{-1} Meo,
    S psi_o = b_o - Moe Mee^{-1} b_e,

followed by back-substitution for ``psi_e``.  The Krylov space halves
and the condition number improves — fewer iterations for the same
physics, which the tests assert.  ``S`` is not hermitian, so it is
solved by BiCGSTAB on ``S`` itself, as Grid and QUDA do, or by CGNE on
``S^dagger S`` (``S`` inherits gamma5-hermiticity, which gives
``S^dagger`` cheaply) where one probe solve finds BiCGSTAB does not
pay (:func:`repro.grid.mixedprec.inner_method`).

The fields of the Schur system are stored at half volume, on the
red-black grids of :class:`repro.grid.cartesian.GridRedBlack` (Grid's
``GridRedBlackCartesian``): each off-diagonal block is one
checkerboard hop (:meth:`repro.grid.wilson.WilsonDirac.dhop_cb`) that
sweeps only the sites it writes, so halved iterations and halved
sweeps compound.
"""

from __future__ import annotations

from repro.grid.lattice import Lattice
from repro.grid.solver import SolverResult
from repro.grid.stencil import red_black
from repro.grid.wilson import SPINOR, WilsonDirac


class SchurWilson:
    """Schur-preconditioned Wilson solves on half-volume fields.

    :meth:`project` takes a full field to one parity's half field and
    :meth:`embed` takes it back; the Schur operator (and with it the
    solver protocol ``apply`` / ``apply_dagger`` / ``mdag_m``) acts on
    odd half fields.  The diagonal blocks are taken to be
    ``(4 + m)``, which a subclass may change (the clover term does), so
    only an exact :class:`~repro.grid.wilson.WilsonDirac` is accepted.
    Construction is cheap: the half grids and parity tables are
    memoized on the grid, and the Wilson operator builds its parity
    link slices on its first hop onto each parity.  The complex64 twin
    that :meth:`solve` iterates on is built on the first solve and kept
    (:func:`repro.grid.mixedprec.single_precision_twin`), beside the
    inner method its probe chose
    (:func:`repro.grid.mixedprec.inner_method`).
    """

    def __init__(self, dirac: WilsonDirac) -> None:
        if type(dirac) is not WilsonDirac:
            raise ValueError(
                f"the Schur complement assumes the Wilson diagonal "
                f"4 + m; got {type(dirac).__name__}"
            )
        self.dirac = dirac
        self.grid = dirac.grid
        self.diag = 4.0 + dirac.mass
        for parity in ("even", "odd"):
            red_black(self.grid, parity)  # reject odd extents up front
        # (op32, to_single, to_double), set by the first mixed solve,
        # and the inner method its probe chose, per inner tolerance:
        # {inner_tol: (method, C)} (repro.grid.mixedprec.inner_method).
        self._twin = None
        self._inner = {}

    # ------------------------------------------------------------------
    # Parity projections
    # ------------------------------------------------------------------
    def project(self, psi: Lattice, parity: str) -> Lattice:
        """The ``parity`` sites of a full field, as a half field."""
        return red_black(self.grid, parity).pick(psi)

    @staticmethod
    def embed(half: Lattice) -> Lattice:
        """The full field holding ``half`` on its parity, +0 elsewhere."""
        return half.grid.embed(half)

    def _hop(self, psi: Lattice) -> Lattice:
        """The off-diagonal block action: ``-(1/2) D_h psi``, from one
        parity's half field onto the other's."""
        return self.dirac.dhop_cb(psi) * (-0.5)

    # ------------------------------------------------------------------
    # The Schur operator on odd half fields
    # ------------------------------------------------------------------
    def schur(self, psi_o: Lattice) -> Lattice:
        """``S psi_o = (4+m) psi_o - Moe Mee^-1 Meo psi_o``."""
        meo = self._hop(psi_o)
        moe = self._hop(meo)
        return psi_o * self.diag - moe * (1.0 / self.diag)

    def schur_dagger(self, psi_o: Lattice) -> Lattice:
        """``S^dagger`` via gamma5-hermiticity (gamma5 is site-local,
        so it commutes with the parity restriction)."""
        from repro.grid import gamma as g

        be = self.grid.backend
        tmp = Lattice(psi_o.grid, SPINOR, g.gamma5_apply(be, psi_o.data))
        tmp = self.schur(tmp)
        return Lattice(tmp.grid, SPINOR, g.gamma5_apply(be, tmp.data))

    def schur_norm(self, psi_o: Lattice) -> Lattice:
        """``S^dagger S`` — hermitian positive definite on odd sites."""
        return self.schur_dagger(self.schur(psi_o))

    # FermionOperator protocol: the operator this object *is* for a
    # solver is the Schur complement on odd half fields.
    apply = schur
    apply_dagger = schur_dagger
    mdag_m = schur_norm

    @property
    def geometry(self):
        """Protocol metadata — the Schur operator acts on (the
        odd-parity half of) the same grid as the underlying Wilson
        operator."""
        return self.dirac.geometry

    def flops_per_site(self) -> int:
        """Two half-volume hops per Schur application ~ one full dhop
        plus the diagonal updates; the community dslash count stands."""
        return self.dirac.flops_per_site()

    def bytes_per_site(self) -> int:
        return self.dirac.bytes_per_site()

    # ------------------------------------------------------------------
    # The full preconditioned solve
    # ------------------------------------------------------------------
    def solve(self, b: Lattice, tol: float = 1e-8,
              max_iter: int = 1000) -> SolverResult:
        """Solve ``M psi = b`` through the odd-site Schur system.

        The Schur system is solved by mixed-precision defect correction
        (:func:`repro.grid.mixedprec.defect_correction`): double-precision
        true residuals around BiCGSTAB on the ``complex64`` Schur twin
        (or CGNE, where the twin's probe chose it), with inner tolerance
        ``sqrt(tol)`` (floored at
        :data:`~repro.grid.mixedprec.INNER_TOL_FLOOR`).  The probe runs
        on the first solve at that tolerance, before the solve itself,
        and is not counted in its iterations.  ``max_iter`` bounds the
        inner iterations summed over the outer steps, and the result's
        ``iterations`` is that sum.  Where the single-precision lanes
        admit no half-volume checkerboard the solve is double CGNE on
        ``S``.
        """
        from repro.engine.solve import solve_fermion
        from repro.grid.mixedprec import (
            INNER_TOL_FLOOR, has_single_twin, inner_method,
            single_precision_twin,
        )

        b_e = self.project(b, "even")
        b_o = self.project(b, "odd")
        # RHS of the Schur system: b_o - Moe Mee^-1 b_e.
        rhs = b_o - self._hop(b_e) * (1.0 / self.diag)
        if has_single_twin(self):
            inner_tol = max(tol ** 0.5, INNER_TOL_FLOOR)
            # The probe runs here, before the solve, so its span and
            # iterations are the twin's, not the first column's.
            inner_method(self, single_precision_twin(self)[0], inner_tol)
            inner = solve_fermion(
                self, rhs, method="mixed", tol=tol, max_iter=max_iter,
                inner_tol=inner_tol)
        else:
            inner = solve_fermion(self, rhs, method="cg", tol=tol,
                                  max_iter=max_iter)
        psi_o = inner.x
        # Back-substitution: psi_e = Mee^-1 (b_e - Meo psi_o).
        hop_o = self.dirac.dhop_cb(psi_o)
        psi_e = (b_e - hop_o * (-0.5)) * (1.0 / self.diag)
        # The true residual of M psi = b, parity by parity: each block
        # is M's own expression, (4+m) psi_p - 1/2 D_h psi, on the
        # half fields — no full-lattice sweep or field needed.
        r_e = b_e - (psi_e * self.diag - hop_o * 0.5)
        r_o = b_o - (psi_o * self.diag - self.dirac.dhop_cb(psi_e) * 0.5)
        true_res = ((r_e.norm2() + r_o.norm2()) / b.norm2()) ** 0.5
        psi = psi_o.grid.embed(psi_o, out=self.embed(psi_e))
        return SolverResult(
            x=psi,
            converged=inner.converged and true_res < 10 * tol,
            iterations=inner.iterations,
            residual=true_res,
            residual_history=inner.residual_history,
        )
