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

Two routes compute it, byte for byte alike: the compiled hop
(:mod:`repro.perf.fused`, ``perf/hop_cb.c``) where the engine's plan
is fused and the kernel loads, and otherwise the layered loop of
:meth:`WilsonDirac._dhop_impl` -- one backend call per tensor element
-- which is also the only route without a C compiler.

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
from repro.grid.stencil import (
    _neighbour_table, neighbour_table, parity_neighbour_table, red_black,
)
from repro.grid.tensor import su3_dagger_mul_vec, su3_mul_vec
from repro.perf import native
from repro.perf.fused import (
    Sweep, fused_dhop, fused_dhop_cb, gather_links, inplace_links,
    store_block, stored_links, sweep_order,
)

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
        # U_mu(x - mu), needed for the backward hop.  The fused sweep
        # (numpy-semantics backend, the default cshift) never copies the
        # whole gauge field: the full hop reads each U_mu in place, at
        # the output site for +mu and at the neighbour, conjugate-
        # transposed as it loads, for -mu, through its lane-major
        # offset tables (``_full_hop``).  The checkerboard hop keeps
        # compact per-parity arrays beside its gather tables
        # (``_cb_hops``): one contiguous (8, 3, 3, N/2) array per target
        # parity in sweep order -- each U_mu, then the adjoint back-link
        # -- as Grid keeps per-checkerboard gauge fields beside the
        # full one.  The layered path reads lane-major back-links; where
        # it is the only route (another backend or shift) they are
        # gathered here, and where the kernel does not load on the
        # first layered hop (``_links_back``).
        self._fused = fused_safe_backend(self.grid.backend) \
            and self._cshift is cshift
        self._sweep_tables = None
        self._links_cb = {}  # target parity -> its checkerboard hop arrays
        self._links_back_lm = None
        if not self._fused:
            self._links_back_lm = [self._cshift(u, mu, -1)
                                   for mu, u in enumerate(self.links)]
        # The mixed-precision solves' complex64 twins, per operator kind
        # ("wilson", "schur"), and the inner method each probe chose,
        # per (kind, inner tolerance) — snapshots of the links at the
        # first call, like the working links above
        # (repro.grid.mixedprec.single_precision_twin, inner_method).
        self._twins = {}
        self._inner = {}

    @property
    def _links_back(self) -> list:
        """Lane-major back-links ``U_mu(x - mu)`` (one Lattice per mu)."""
        if self._links_back_lm is None:
            self._links_back_lm = [self._cshift(u, mu, -1)
                                   for mu, u in enumerate(self.links)]
        return self._links_back_lm

    def _stack_links(self, sites: np.ndarray) -> np.ndarray:
        """The matrices the hop applies at the flat ``sites``, stacked
        in sweep order as one contiguous ``(8, 3, 3, n)`` array:
        ``U_mu`` for ``+mu`` and the adjoint back-link ``U_mu(x -
        mu)^dagger`` for ``-mu`` (the matrix the backward hop applies;
        conjugation is exact, so products with it are bitwise those
        with ``conj(U[b, a])``)."""
        links = np.empty((2 * self.grid.ndim, 3, 3, sites.size),
                         dtype=self.grid.dtype)
        for mu, u in enumerate(self.links):
            back = neighbour_table(self.grid, mu, -1)[sites]
            gather_links(u.data, sites, out=links[2 * mu])
            np.conj(gather_links(u.data, back).swapaxes(0, 1),
                    out=links[2 * mu + 1])
        return links

    def _full_hop(self) -> Sweep:
        """The compiled full hop's :class:`~repro.perf.fused.Sweep`:
        gather tables and the in-place link operand
        (:func:`~repro.perf.fused.inplace_links`, the lane-major
        ``U_mu`` themselves), where ``tables[k, f]`` is the offset,
        in the lane-major ``(osites, 4, 3, nlanes)`` field, of row 0 of
        flat site ``f``'s neighbour in hop ``k`` (sweep order) --
        :func:`~repro.grid.stencil.neighbour_table`'s site ``t`` at
        ``(t // nlanes) * 12 * nlanes + t % nlanes``.  The kernel reads
        a back-link at the same neighbour, so these are the only tables
        the hop needs.  Built on the first compiled full hop, straight
        from the stencil's derivation: the flat per-direction tables
        are not kept in the grid's memo beside them."""
        if self._sweep_tables is None:
            nl = self.grid.nlanes
            n = self.grid.osites * nl
            tables = np.empty((2 * self.grid.ndim, n), dtype=np.int64)
            for k, (mu, sign) in enumerate(sweep_order(self.grid.ndim)):
                site, lane = np.divmod(
                    _neighbour_table(self.grid, mu, sign), nl)
                np.add(site * (12 * nl), lane, out=tables[k])
            self._sweep_tables = Sweep(
                tables, tables.max(), inplace_links(self.links),
                rstride=nl, lanes=nl, unit=nl, src_size=12 * n)
        return self._sweep_tables

    def _cb_hops(self, target: GridRedBlack) -> Sweep:
        """The checkerboard hop onto the half grid ``target``, as a
        :class:`~repro.perf.fused.Sweep` over contiguous ``(8, N/2)``
        tables and ``(8, 3, 3, N/2)`` links: ``tables[k]`` is hop
        ``k``'s :func:`~repro.grid.stencil.parity_neighbour_table`
        (sweep order: mu ascending, +1 before -1) and ``links.fields[k]``
        the matrix the hop applies at ``target.sites``
        (:meth:`_stack_links`, as a
        :func:`~repro.perf.fused.stored_links` operand).  Source and
        output are tensor-major half fields of ``N/2`` sites.  Built on
        the first hop onto that parity; the kernel binds it once."""
        hops = self._links_cb.get(target.parity)
        if hops is None:
            tables = np.stack([parity_neighbour_table(
                self.grid, target.parity, mu, sign).astype(np.int64)
                for mu, sign in sweep_order(self.grid.ndim)])
            n = tables.shape[-1]
            hops = self._links_cb[target.parity] = Sweep(
                tables, tables.max(),
                stored_links(self._stack_links(target.sites)),
                rstride=n, lanes=n, unit=target.nlanes, src_size=12 * n)
        return hops

    # ------------------------------------------------------------------
    def dhop(self, psi: Lattice) -> Lattice:
        """Apply the hopping term ``D_h`` of Eq. (1).

        One decision picks the route (:meth:`_kernel`): the compiled,
        cache-blocked sweep where the grid's
        :class:`~repro.engine.plan.KernelPlan` (cached per policy) is
        fused and the kernel loads (:func:`repro.perf.native.kernel`),
        the layered reference otherwise.  Both give the same bytes.

        With telemetry tracing on, the sweep is wrapped in a span
        carrying the flop/byte metadata the roofline report consumes,
        the ``kernel`` that ran (``native``/``reference``) and the
        ``contraction`` key of numpy's complex multiply; the span
        *observes* the call (one timer around an unchanged body), so
        results are bit-identical with tracing on or off.
        """
        self._check(psi)
        plan = kernel_plan(self.grid, "dhop")
        hop = self._kernel(plan)
        if not _telemetry.tracing():
            return self._dhop_impl(psi, plan, hop)
        with _telemetry.span(
            "dhop",
            sites=self.grid.gsites,
            flops_per_site=self.flops_per_site(),
            bytes_per_site=self.bytes_per_site(),
            backend=self.grid.backend.name,
            kernel="reference" if hop is None else "native",
            contraction=native.contraction_key(self.grid.dtype),
        ):
            return self._dhop_impl(psi, plan, hop)

    def _kernel(self, plan):
        """The compiled hop where the fused sweep runs and the kernel
        loads, else ``None``: the one decision between the kernel and
        the layered reference, for ``dhop`` and ``dhop_cb`` alike."""
        if plan.fused and self._fused:
            return native.kernel(self.grid.dtype)
        return None

    def _dhop_impl(self, psi: Lattice, plan, hop) -> Lattice:
        if hop is not None:
            # The compiled sweep — bit-identical to the layered path
            # below (see repro.perf.fused for the argument).
            return fused_dhop(self, psi, hop, plan)
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

    def dhop_cb(self, psi: Lattice, store: int = native.STORE_HOP,
                x: Lattice = None, diag: float = 1.0) -> Lattice:
        """One checkerboard hop: ``D_h`` applied to the half field
        ``psi`` (one parity, see :class:`repro.grid.cartesian.
        GridRedBlack`), returned as the other parity's half field.

        Every neighbour of a site has the other parity, so this is
        ``dhop`` of the embedded field restricted to the target parity
        — and bit-identical to it.  Where the compiled kernel runs
        (:meth:`_kernel`), the hop sweeps half the sites
        (:func:`repro.perf.fused.fused_dhop_cb`).  Elsewhere (no
        compiler or an unknown contraction key — see
        :func:`repro.perf.native.status` — non-numpy backends, a custom
        ``cshift_fn``, the engine off) it is exactly that reference:
        embed, layered ``dhop``, pick.  Traced as a ``dhop.cb``
        span over the half-volume sites, which names the ``kernel``
        that ran and the ``contraction`` key of numpy's complex
        multiply.

        ``store`` picks what the sweep writes (``hop_cb.c``'s store):
        ``D_h psi`` itself (``STORE_HOP``), the even-odd matrix's
        off-diagonal block ``D_h psi * (-1/2)`` (``STORE_BLOCK``), or
        the Schur operator ``(x * diag) - ((D_h psi * (-1/2)) *
        (1/diag))`` (``STORE_SCHUR``), whose source ``x`` is a half
        field of the target parity.  Each step is the Lattice algebra's
        numpy operation in its order, so the result is byte for byte
        that expression over the plain hop, computed in the sweep's
        store with no whole-field temporary; on the reference route the
        same steps run once over all sites
        (:func:`repro.perf.fused.store_block`).  An ``x`` or ``store``
        that does not fit raises the kernel's ``ValueError``.
        """
        grid = psi.grid
        if not isinstance(grid, GridRedBlack) \
                or grid.full.odims != self.grid.odims \
                or psi.tensor_shape != SPINOR:
            raise ValueError("dhop_cb acts on half-volume spinors of "
                             "this operator's grid")
        target = red_black(self.grid, "even" if grid.parity == "odd"
                           else "odd")
        schur = store == native.STORE_SCHUR
        if store not in native.STORES or (x is not None) != schur \
                or schur and not (isinstance(x.grid, GridRedBlack)
                                  and x.grid.parity == target.parity
                                  and x.grid.full.odims == self.grid.odims
                                  and x.tensor_shape == SPINOR):
            raise ValueError(native.MISFIT)
        plan = kernel_plan(self.grid, "dhop")
        hop = self._kernel(plan)
        if not _telemetry.tracing():
            return self._dhop_cb_impl(psi, target, plan, hop, store, x,
                                      diag)
        with _telemetry.span(
            "dhop.cb",
            sites=target.osites * target.nlanes,
            flops_per_site=self.flops_per_site(),
            bytes_per_site=self.bytes_per_site(),
            backend=self.grid.backend.name,
            parity=target.parity,
            kernel="reference" if hop is None else "native",
            contraction=native.contraction_key(self.grid.dtype),
        ):
            return self._dhop_cb_impl(psi, target, plan, hop, store, x,
                                      diag)

    def _dhop_cb_impl(self, psi: Lattice, target, plan, hop, store, x,
                      diag) -> Lattice:
        if hop is not None:
            return fused_dhop_cb(self, psi, target, hop, plan, store, x,
                                 diag)
        # The reference: the layered sweep of the embedded field (its
        # dispatch, not its span — the hop is traced once, above).
        out = target.pick(self._dhop_impl(psi.grid.embed(psi), plan, None))
        work = out.data.reshape(SPINOR + (-1,))
        store_block(store, work, work, None if x is None
                    else x.data.reshape(work.shape), diag)
        return out

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
