"""Rank-level domain decomposition behind a pluggable transport.

Layering (each module imports only downward):

* :mod:`~repro.grid.comms.queue` — the in-flight halo queue
  (post order, monotonic clock);
* :mod:`~repro.grid.comms.wire` — byte-level codec: fp16 wire images,
  CRC-32 detection, bounded-backoff retransmission;
* :mod:`~repro.grid.comms.faults` — the duck-typed fault-hook seam to
  the resilience layer;
* :mod:`~repro.grid.comms.transport` — the :class:`Transport`
  protocol and the bit-identical :class:`InProcessTransport`
  reference;
* :mod:`~repro.grid.comms.shmem` — the :class:`SharedMemoryTransport`
  rank runtime on ``multiprocessing`` (imported lazily, only when the
  ``shmem`` backend is actually selected);
* :mod:`~repro.grid.comms.lattice` — :class:`DistributedLattice`
  itself: geometry, scatter/gather, distributed shift, arithmetic.

This package is the drop-in successor of the old monolithic
``repro.grid.comms`` module: every public (and test-visible) name is
re-exported here.
"""

from repro.grid.comms.faults import NullFaultHook, adapt_fault_hook
from repro.grid.comms.lattice import (
    _LIVE_COMMS,
    _collect_comms_metrics,
    CommsStats,
    DistributedLattice,
    RankGeometry,
    invalidate_comms_plans,
    reset_all_comms,
)
from repro.grid.comms.queue import AsyncCommsQueue, HaloHandle
from repro.grid.comms.transport import (
    TRANSPORTS,
    InProcessTransport,
    Transport,
    make_transport,
    shutdown_transport_runtimes,
)
from repro.grid.comms.wire import (
    HaloExchangeError,
    decode_wire,
    encode_wire,
    exchange_field,
    transmit,
)

__all__ = [
    "AsyncCommsQueue",
    "CommsStats",
    "DistributedLattice",
    "HaloExchangeError",
    "HaloHandle",
    "InProcessTransport",
    "NullFaultHook",
    "RankGeometry",
    "TRANSPORTS",
    "Transport",
    "adapt_fault_hook",
    "decode_wire",
    "encode_wire",
    "exchange_field",
    "invalidate_comms_plans",
    "make_transport",
    "reset_all_comms",
    "shutdown_transport_runtimes",
    "transmit",
    "_LIVE_COMMS",
    "_collect_comms_metrics",
]
