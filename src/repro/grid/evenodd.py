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
sweeps compound.  Around the solve, :meth:`SchurWilson.solve`'s tails
-- the parity picks, the right-hand side, the back-substitution with
the even residual, the odd residual and the embed -- are steps of
:func:`repro.grid.krylov.algebra`: a compiled pass each where the fused
hop runs, the Lattice expressions elsewhere.
"""

from __future__ import annotations

from repro.engine.plan import fused_safe_backend
from repro.grid.krylov import algebra
from repro.grid.lattice import Lattice
from repro.grid.solver import SolverResult
from repro.grid.stencil import red_black
from repro.grid.wilson import SPINOR, WilsonDirac
from repro.perf.native import STORE_BLOCK, STORE_SCHUR


class SchurWilson:
    """Schur-preconditioned Wilson solves on half-volume fields.

    :meth:`project` takes a full field to one parity's half field and
    :meth:`embed` takes it back; the Schur operator (and with it the
    solver protocol ``apply`` / ``apply_dagger`` / ``mdag_m``) acts on
    odd half fields.  The diagonal blocks are taken to be
    ``(4 + m)``, which a subclass may change (the clover term does), so
    only an exact :class:`~repro.grid.wilson.WilsonDirac` is accepted.
    Construction is cheap: the half grids and parity tables are
    memoized on the grid, and the Wilson operator builds its
    checkerboard hop lists on its first hop onto each parity.  The
    complex64 twin that :meth:`solve` iterates on, and the inner method
    its probe chose, are memoised on the Wilson operator
    (:func:`repro.grid.mixedprec.single_precision_twin`,
    :func:`repro.grid.mixedprec.inner_method`), so every Schur operator
    over it shares them.

    Where the backend's arithmetic is plain numpy, the scalar algebra
    of the off-diagonal blocks and of ``S`` runs in the hops' stores
    (:meth:`repro.grid.wilson.WilsonDirac.dhop_cb`, compiled in
    ``hop_cb.c``): the Lattice algebra's IEEE operations in its order,
    with no whole-field temporaries, so ``S`` is two sweeps and nothing
    else.  Other backends run it as Lattice algebra.
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
        self._fold = fused_safe_backend(self.grid.backend)

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
        if self._fold:
            return self.dirac.dhop_cb(psi, STORE_BLOCK)
        return self.dirac.dhop_cb(psi) * (-0.5)

    # ------------------------------------------------------------------
    # The Schur operator on odd half fields
    # ------------------------------------------------------------------
    def schur(self, psi_o: Lattice) -> Lattice:
        """``S psi_o = (4+m) psi_o - Moe Mee^-1 Meo psi_o``."""
        meo = self._hop(psi_o)
        if self._fold:
            return self.dirac.dhop_cb(meo, STORE_SCHUR, psi_o, self.diag)
        moe = self._hop(meo)
        return psi_o * self.diag - moe * (1.0 / self.diag)

    def _gamma5(self, psi: Lattice) -> Lattice:
        """``gamma_5`` on a half field: spin rows 2-3 negated (exact)."""
        data = psi.data.copy()
        data[2:] = self.grid.backend.neg(psi.data[2:])
        return Lattice(psi.grid, SPINOR, data)

    def schur_dagger(self, psi_o: Lattice) -> Lattice:
        """``S^dagger`` via gamma5-hermiticity (gamma5 is site-local,
        so it commutes with the parity restriction)."""
        return self._gamma5(self.schur(self._gamma5(psi_o)))

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
        on the Wilson operator's first solve at that tolerance, before
        the solve itself, and is not counted in its iterations.  ``max_iter`` bounds the
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

        alg = algebra(b)
        b_e = alg.pick(b, red_black(self.grid, "even"))
        b_o = alg.pick(b, red_black(self.grid, "odd"))
        # RHS of the Schur system: b_o - Moe Mee^-1 b_e.
        rhs = alg.sub_scaled(b_o, self._hop(b_e), 1.0 / self.diag)
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
        # Back-substitution: psi_e = Mee^-1 (b_e - Meo psi_o), and the
        # true residual of M psi = b, parity by parity: each block is
        # M's own expression, (4+m) psi_p - 1/2 D_h psi, on the half
        # fields — no full-lattice sweep or field needed.
        psi_e, re2 = alg.schur_back(b_e, self.dirac.dhop_cb(psi_o),
                                    self.diag)
        ro2 = alg.schur_residual(b_o, psi_o, self.dirac.dhop_cb(psi_e),
                                 self.diag)
        true_res = ((re2 + ro2) / alg.norm2(b)) ** 0.5
        psi = alg.embed(psi_e, psi_o)
        return SolverResult(
            x=psi,
            converged=inner.converged and true_res < 10 * tol,
            iterations=inner.iterations,
            residual=true_res,
            residual_history=inner.residual_history,
        )
