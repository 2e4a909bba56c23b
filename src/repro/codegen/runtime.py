"""Engine-facing entry points for the compiled Wilson-Dslash.

``compiled_dhop`` / ``compiled_dhop_rank`` are drop-in peers of
:func:`repro.perf.fused.fused_dhop` / ``fused_dhop_rank``: same
tiling, same stage counters, and a per-(direction, sign) accumulation
body that is a generated, ``exec``-compiled straight-line kernel
fetched from the codegen cache instead of an interpreted chain of
numpy calls.  The generated kernels still run on the lattice's
lane-major layout with full-lattice cshift gathers, which the fused
single-rank sweep has left behind for a tensor-major, cache-blocked
one.  Bit-identity with the fused (and therefore the layered
reference) path is pinned by ``tests/codegen/``.

Dispatch reaches here only through a resolved
:class:`repro.engine.plan.KernelPlan` whose ``codegen`` mode is
active, exactly as the fused path is reached through ``plan.fused``.
"""

from __future__ import annotations

from repro.codegen.cache import kernel_for
from repro.grid.lattice import Lattice
from repro.perf.counters import counters
from repro.perf.parallel import run_tiles, tiles_for


def compiled_dhop(dirac, psi: Lattice, plan) -> Lattice:
    """The Wilson hopping term via the generated kernel.

    Every neighbour field is gathered first (full lattice, plan-cached
    cshift), then tiles of the outer-site axis run the compiled
    ``2*ndim``-hop sweep; a multi-RHS batch shares the gathers and
    loops the kernel over column views.
    """
    grid = dirac.grid
    ncols = psi.tensor_shape[0] if len(psi.tensor_shape) == 3 else 0
    counters().bump("codegen_dhop_calls")
    if ncols:
        counters().bump("batched_dhop_calls")
    fn = kernel_for("dhop", grid.ndim, grid.dtype, plan.codegen,
                    caches=plan.caches).fn
    out = Lattice(grid, psi.tensor_shape)
    gathers = []
    for mu in range(grid.ndim):
        gathers.append((
            dirac.links[mu].data,
            dirac._cshift(psi, mu, +1).data,
            dirac._links_back[mu].data,
            dirac._cshift(psi, mu, -1).data,
        ))
    plan.stages.bump("gather", 2 * grid.ndim)
    acc = out.data

    def body(sl) -> None:
        a = acc[sl]
        if ncols:
            for j in range(ncols):
                args = []
                for u_fwd, psi_fwd, u_bwd, psi_bwd in gathers:
                    args += [u_fwd[sl], psi_fwd[sl][:, j],
                             u_bwd[sl], psi_bwd[sl][:, j]]
                fn(a[:, j], *args)
        else:
            args = []
            for u_fwd, psi_fwd, u_bwd, psi_bwd in gathers:
                args += [u_fwd[sl], psi_fwd[sl], u_bwd[sl], psi_bwd[sl]]
            fn(a, *args)

    tiles = tiles_for(grid.osites, workers=plan.workers,
                      min_sites=plan.tile_min_sites)
    run_tiles(body, tiles, workers=plan.workers)
    plan.stages.bump("compute", len(tiles))
    return out


def compiled_dhop_rank(acc, links_mu, links_back_mu, fwd, bwd,
                       mu: int, plan) -> None:
    """One rank-local (mu, fwd+bwd) accumulation for the distributed
    operator, via the generated per-direction kernel; tiled over the
    rank's outer sites (mirrors ``fused_dhop_rank``)."""
    fn = kernel_for(f"dhop-dir{mu}", 4, acc.dtype, plan.codegen,
                    caches=plan.caches).fn

    def body(sl) -> None:
        fn(acc[sl], links_mu[sl], fwd[sl], links_back_mu[sl], bwd[sl])

    tiles = tiles_for(acc.shape[0], workers=plan.workers,
                      min_sites=plan.tile_min_sites)
    run_tiles(body, tiles, workers=plan.workers)
    plan.stages.bump("compute", len(tiles))
