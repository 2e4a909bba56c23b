"""The Wilson hopping term (Eq. (1)) and Wilson Dirac operator.

The paper's Eq. (1)::

    psi'_x = D_h psi
           = sum_mu { U_{x,mu} (1 + gamma_mu) psi_{x+mu}
                    + U^+_{x-mu,mu} (1 - gamma_mu) psi_{x-mu} }

"The most compute-intensive task typically is the product of the
lattice Dirac operator and a quark field" (Section II-A) — this module
is that task.  Implementation follows Grid's cshift-based operator:
each direction gathers the neighbour field (a circular shift that
lane-permutes at virtual-node boundaries), spin-projects to a
half-spinor, applies the SU(3) link, and reconstructs.

The full Wilson operator used by the solvers is
``M = (4 + m) - (1/2) D_h`` with bare mass ``m``; it satisfies
gamma5-hermiticity, ``gamma_5 M gamma_5 = M^dagger``, which the test
suite asserts.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.engine.operators import OperatorGeometry
from repro.engine.plan import fused_safe_backend, kernel_plan
from repro.grid import gamma as g
from repro.telemetry import trace as _telemetry
from repro.grid.cartesian import GridCartesian, GridRedBlack
from repro.grid.cshift import cshift
from repro.grid.lattice import Lattice
from repro.grid.stencil import neighbour_table, red_black
from repro.grid.tensor import su3_dagger_mul_vec, su3_mul_vec
from repro.perf.fused import adjoint, fused_dhop, fused_dhop_cb, to_working

#: Spinor tensor shape: (spin, colour).
SPINOR = (4, 3)


class WilsonDirac:
    """Wilson fermion matrix over a gauge configuration.

    Parameters
    ----------
    links:
        Four gauge-link lattices (tensor shape ``(3, 3)``), one per
        direction.
    mass:
        The bare quark mass ``m``.
    cshift_fn:
        Shift implementation; the distributed layer substitutes a
        halo-exchanging variant.  Defaults to the single-rank
        :func:`repro.grid.cshift.cshift`.  The fused sweep is taken
        only with the default: it gathers through tables derived from
        it.  Any other shift runs on the layered path.
    """

    def __init__(self, links: Sequence[Lattice], mass: float = 0.1,
                 cshift_fn: Optional[Callable] = None) -> None:
        if len(links) != links[0].grid.ndim:
            raise ValueError("need one gauge link field per direction")
        self.links = list(links)
        self.grid: GridCartesian = links[0].grid
        self.mass = float(mass)
        self._cshift = cshift_fn if cshift_fn is not None else cshift
        # U_mu(x - mu) gathered to x, needed for the backward hop.  The
        # links are static, so each route snapshots the links it reads
        # on its own first call.  The fused sweep (numpy-semantics
        # backend, the default cshift) reads them in its tensor-major
        # working layout: the full hop the full-order links and adjoint
        # back-links (``_full_links``), the checkerboard hop one
        # contiguous pair of slices per target parity
        # (``_parity_links``), as Grid keeps per-checkerboard gauge
        # fields beside the full one.  The layered path reads lane-major
        # back-links; where it is the only route (another backend or
        # shift) they are gathered here.
        self._fused = fused_safe_backend(self.grid.backend) \
            and self._cshift is cshift
        self._links_t = self._links_adj_t = None
        self._links_cb = {}  # target parity -> (links, adjoint back-links)
        self._links_back_lm = None
        if not self._fused:
            self._links_back_lm = [self._cshift(u, mu, -1)
                                   for mu, u in enumerate(self.links)]

    @property
    def _links_back(self) -> list:
        """Lane-major back-links ``U_mu(x - mu)`` (one Lattice per mu)."""
        if self._links_back_lm is None:
            self._links_back_lm = [self._cshift(u, mu, -1)
                                   for mu, u in enumerate(self.links)]
        return self._links_back_lm

    def _full_links(self) -> tuple:
        """The full hop's working-layout links: ``U_mu`` and the
        adjoint back-links ``U_mu(x - mu)^dagger`` (the matrix the
        backward hop applies; conjugation is exact, see
        :func:`repro.perf.fused.adjoint`), ``(3, 3, N)`` per mu.
        Built on first use."""
        if self._links_t is None:
            links = [to_working(u.data) for u in self.links]
            self._links_adj_t = [np.ascontiguousarray(adjoint(
                np.take(w, neighbour_table(self.grid, mu, -1), axis=-1)))
                for mu, w in enumerate(links)]
            self._links_t = links
        return self._links_t, self._links_adj_t

    def _parity_links(self, target: GridRedBlack) -> tuple:
        """The checkerboard hop's links onto the half grid ``target``:
        :meth:`_full_links` at ``target.sites``, one contiguous
        ``(3, 3, N/2)`` slice per mu and sign.  Built on the first hop
        onto that parity, without the full-order links."""
        pair = self._links_cb.get(target.parity)
        if pair is None:
            links, adj = [], []
            for mu, u in enumerate(self.links):
                w = to_working(u.data)
                back = neighbour_table(self.grid, mu, -1)[target.sites]
                links.append(np.take(w, target.sites, axis=-1))
                adj.append(np.ascontiguousarray(adjoint(
                    np.take(w, back, axis=-1))))
            pair = self._links_cb[target.parity] = (links, adj)
        return pair

    # ------------------------------------------------------------------
    def dhop(self, psi: Lattice) -> Lattice:
        """Apply the hopping term ``D_h`` of Eq. (1).

        Dispatch is resolved by the execution engine: the grid's
        :class:`~repro.engine.plan.KernelPlan` (cached per policy)
        decides between the fused, cache-blocked sweep and the
        layered reference.  Both routes are bit-identical.

        With telemetry tracing on, the sweep is wrapped in a span
        carrying the flop/byte metadata the roofline report consumes;
        the span *observes* the call (one timer around an unchanged
        body), so results are bit-identical with tracing on or off.
        """
        if not _telemetry.tracing():
            return self._dhop_impl(psi)
        with _telemetry.span(
            "dhop",
            sites=self.grid.gsites,
            flops_per_site=self.flops_per_site(),
            bytes_per_site=self.bytes_per_site(),
            backend=self.grid.backend.name,
        ):
            return self._dhop_impl(psi)

    def _dhop_impl(self, psi: Lattice) -> Lattice:
        self._check(psi)
        plan = kernel_plan(self.grid, "dhop")
        if plan.fused and self._fused:
            # Fused, cache-blocked engine sweep — bit-identical to the
            # layered path below (see repro.perf.fused for the argument).
            return fused_dhop(self, psi, plan=plan)
        plan.stages.bump("layered_sweeps")
        be = self.grid.backend
        out = Lattice(self.grid, psi.tensor_shape)
        for mu in range(self.grid.ndim):
            psi_fwd = self._cshift(psi, mu, +1)
            psi_bwd = self._cshift(psi, mu, -1)
            # Forward: U_{x,mu} (1 + gamma_mu) psi_{x+mu}
            h = g.project(be, psi_fwd.data, mu, +1)
            uh = su3_mul_vec(be, self.links[mu].data, h)
            full = g.reconstruct(be, uh, mu, +1)
            acc = be.add(out.data, full)
            # Backward: U^+_{x-mu,mu} (1 - gamma_mu) psi_{x-mu}
            h = g.project(be, psi_bwd.data, mu, -1)
            uh = su3_dagger_mul_vec(be, self._links_back[mu].data, h)
            full = g.reconstruct(be, uh, mu, -1)
            out.data[...] = be.add(acc, full)
        return out

    def dhop_cb(self, psi: Lattice) -> Lattice:
        """One checkerboard hop: ``D_h`` applied to the half field
        ``psi`` (one parity, see :class:`repro.grid.cartesian.
        GridRedBlack`), returned as the other parity's half field.

        Every neighbour of a site has the other parity, so this is
        ``dhop`` of the embedded field restricted to the target parity
        — and bit-identical to it.  Where the fused sweep runs, the hop
        is that sweep over half the sites (:func:`repro.perf.fused.
        fused_dhop_cb`); otherwise (non-numpy backends, a custom
        ``cshift_fn``, the engine off) it is exactly that reference:
        embed, ``dhop``, pick.  Traced as a ``dhop.cb`` span over the
        half-volume sites.
        """
        if not isinstance(psi.grid, GridRedBlack) \
                or psi.grid.full.odims != self.grid.odims \
                or psi.tensor_shape != SPINOR:
            raise ValueError("dhop_cb acts on half-volume spinors of "
                             "this operator's grid")
        target = red_black(self.grid, "even" if psi.grid.parity == "odd"
                           else "odd")
        if not _telemetry.tracing():
            return self._dhop_cb_impl(psi, target)
        with _telemetry.span(
            "dhop.cb",
            sites=target.osites * target.nlanes,
            flops_per_site=self.flops_per_site(),
            bytes_per_site=self.bytes_per_site(),
            backend=self.grid.backend.name,
            parity=target.parity,
        ):
            return self._dhop_cb_impl(psi, target)

    def _dhop_cb_impl(self, psi: Lattice, target) -> Lattice:
        plan = kernel_plan(self.grid, "dhop")
        if plan.fused and self._fused:
            return fused_dhop_cb(self, psi, target, plan=plan)
        # The reference: the full sweep of the embedded field (its
        # dispatch, not its span — the hop is traced once, above).
        return target.pick(self._dhop_impl(psi.grid.embed(psi)))

    def apply(self, psi: Lattice) -> Lattice:
        """The Wilson matrix ``M psi = (4 + m) psi - 1/2 D_h psi``."""
        self._check(psi)
        hop = self.dhop(psi)
        return psi * (4.0 + self.mass) - hop * 0.5

    # Grid naming convenience.
    M = apply

    def _gamma5(self, psi: Lattice) -> Lattice:
        """``gamma_5 psi``."""
        self._check(psi)
        return Lattice(self.grid, psi.tensor_shape,
                       g.gamma5_apply(self.grid.backend, psi.data))

    def apply_dagger(self, psi: Lattice) -> Lattice:
        """``M^dagger psi`` via gamma5-hermiticity:
        ``M^dagger = gamma_5 M gamma_5``."""
        return self._gamma5(self.apply(self._gamma5(psi)))

    Mdag = apply_dagger

    def mdag_m(self, psi: Lattice) -> Lattice:
        """The hermitian positive-definite ``M^dagger M`` (CG target)."""
        return self.apply_dagger(self.apply(psi))

    # ------------------------------------------------------------------
    # FermionOperator protocol metadata
    # ------------------------------------------------------------------
    @property
    def geometry(self) -> OperatorGeometry:
        """Where and on what this operator acts (protocol metadata)."""
        return OperatorGeometry(
            gdims=tuple(self.grid.gdims),
            tensor_shape=SPINOR,
            dtype=str(self.grid.dtype),
            backend=self.grid.backend.name,
        )

    def flops_per_site(self) -> int:
        """Nominal floating-point operations per lattice site of dhop.

        The community-standard count for Wilson dslash is 1320 flops
        per site (8 directions x SU(3) half-spinor multiplies + spin
        projection/reconstruction), used to convert benchmark timings
        to Flop/s.
        """
        return 1320

    def bytes_per_site(self) -> int:
        """Nominal dhop memory traffic per site: read 8 neighbour
        spinors (12 complex each) and 8 links (9 complex each), write
        one spinor — the count used for arithmetic-intensity
        estimates (perfect caching assumed)."""
        n_complex = 8 * 12 + 8 * 9 + 12
        return n_complex * self.grid.dtype.itemsize

    def _check(self, psi: Lattice) -> None:
        """Validate the field: a spinor on this operator's grid."""
        if psi.tensor_shape != SPINOR:
            raise ValueError(
                f"Wilson operator acts on spinors {SPINOR}, "
                f"got {psi.tensor_shape}"
            )
        if psi.grid.odims != self.grid.odims:
            raise ValueError("spinor lives on a different grid")
