"""Tiled execution over a thread pool, bit-identical to serial.

The lattice sweeps this feeds (:mod:`repro.perf.fused`) write disjoint
outer-site slices of a preallocated output, so tiles are data-parallel
with no reduction step at all — the "deterministic reduction order" is
the trivial one: every element is written by exactly one tile, and the
within-tile accumulation order is the same as the serial sweep's.
Thread scheduling therefore cannot perturb results; ``workers=4`` and
``workers=1`` are bit-identical by construction.

The pool is process-global and lazily grown, ``workers - 1`` threads
wide: the calling thread runs one tile itself.  numpy releases the GIL
inside the fused tile bodies, so tiles overlap on multicore hosts.
Pool dispatch and splitting a sweep's cache blocks cost more than they
save on small sweeps, so :func:`tiles_for` splits only where each tile
gets at least the policy's ``tile_min_sites`` flat sites.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Optional, Sequence

from repro.engine.policy import current_policy

_POOL: Optional[ThreadPoolExecutor] = None
_POOL_WIDTH = 0
_POOL_LOCK = threading.Lock()


def _pool(width: int) -> ThreadPoolExecutor:
    """The shared tile pool, re-created wider when first needed."""
    global _POOL, _POOL_WIDTH
    with _POOL_LOCK:
        if _POOL is None or _POOL_WIDTH < width:
            if _POOL is not None:
                _POOL.shutdown(wait=True)
            _POOL = ThreadPoolExecutor(
                max_workers=width, thread_name_prefix="repro-tile"
            )
            _POOL_WIDTH = width
        return _POOL


def tiles_for(
    n_sites: int,
    workers: Optional[int] = None,
    min_sites: Optional[int] = None,
    unit: int = 1,
) -> list:
    """Split ``range(n_sites)`` into contiguous per-tile slices.

    At most ``workers`` tiles, each a whole number of ``unit`` sites
    (an outer site's SIMD lanes) and at least ``min_sites`` sites; a
    sweep that cannot be split that way is one tile.  The split depends
    only on the arguments — never on timing — and tiles are contiguous,
    so each worker touches one stretch of the site axis (the
    cache-friendly order the serial sweep uses too).  ``workers`` and
    ``min_sites`` default to the current policy's ``workers`` and
    ``tile_min_sites``.
    """
    policy = current_policy()
    workers = policy.workers if workers is None else workers
    min_sites = policy.tile_min_sites if min_sites is None else min_sites
    units = n_sites // unit
    n_tiles = min(workers, units // max(1, -(-min_sites // unit)))
    if n_tiles <= 1:
        return [slice(0, n_sites)]
    base, extra = divmod(units, n_tiles)
    out, start = [], 0
    for i in range(n_tiles):
        stop = start + base + (1 if i < extra else 0)
        out.append(slice(start * unit, stop * unit))
        start = stop
    return out


def run_tiles(body: Callable, tiles: Sequence, workers: Optional[int] = None) -> None:
    """Run ``body(tile_slice)`` for every tile.

    One tile (or one worker) short-circuits to a plain call — the
    serial path never pays pool overhead.  Otherwise the calling thread
    runs the first tile itself while ``workers - 1`` pool threads run
    the rest.  Every tile finishes before this returns or raises; the
    first failing tile's exception (in tile order) then propagates to
    the caller.
    """
    workers = current_policy().workers if workers is None else workers
    if len(tiles) == 1 or workers <= 1:
        for t in tiles:
            body(t)
        return
    pool = _pool(workers - 1)
    futures = [pool.submit(body, t) for t in tiles[1:]]
    try:
        body(tiles[0])
    finally:
        wait(futures)
    for fut in futures:
        fut.result()
