"""The typed metrics registry: counters, gauges, histograms, collectors.

Before the telemetry layer, every subsystem kept its own tallies —
``repro.perf.counters`` held module-global ints, each live
:class:`~repro.grid.comms.DistributedLattice` carried a
:class:`~repro.grid.comms.CommsStats`, every
:class:`~repro.engine.plan.KernelPlan` its own
:class:`~repro.engine.plan.StageCounters` — and "reset everything" was
a ritual of composed calls that drifted whenever a new counter landed.
This module is the one store they all route through:

* :class:`Counter` — monotonically increasing tally (``inc``);
* :class:`Gauge` — a settable level (``set``);
* :class:`Histogram` — fixed-bucket distribution (``observe``) with
  Prometheus-style cumulative buckets, sum and count;
* **collectors** — named callables returning ``{metric: value}`` for
  state that lives elsewhere (the aggregate comms stats of every live
  distributed lattice); collectors are *views*: they appear in
  :func:`MetricsRegistry.snapshot` but reset with their owner, not
  with the registry.

The registry is process-global and thread-safe; instruments are
created on first use and survive :meth:`MetricsRegistry.reset` (which
zeroes values but keeps registrations, so a snapshot taken right
after a reset shows every known metric at zero — the property the
reset-completeness test pins).

Import discipline: this module imports nothing from :mod:`repro` — it
sits at the very bottom of the telemetry stack so the perf counters,
the engine plan layer and the comms layer can all feed it without
cycles.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Sequence

#: Default histogram buckets (seconds): spans from microseconds to
#: tens of seconds, the range of everything this codebase times.
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0,
)


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "help", "_lock", "_value")

    def __init__(self, name: str, help: str = "", lock=None) -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock() if lock is None else lock
        self._value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    def add(self, n: int) -> None:
        """``inc`` for a caller that holds the counter's lock (one shared
        by several counters, given at creation)."""
        self._value += n

    @property
    def value(self):
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A settable level (last write wins)."""

    __slots__ = ("name", "help", "_lock", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self):
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name}={self._value})"


class Histogram:
    """A fixed-bucket distribution with cumulative bucket counts.

    ``buckets`` are upper bounds in ascending order; an implicit
    ``+Inf`` bucket catches the tail.  ``snapshot`` flattens to the
    Prometheus histogram triple: per-bucket cumulative counts, total
    ``sum`` and total ``count``.
    """

    __slots__ = ("name", "help", "buckets", "_lock", "_counts", "_sum",
                 "_count")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS,
                 help: str = "") -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(float(b) for b in buckets))
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative(self) -> list:
        """Cumulative counts per bucket bound (Prometheus ``le``
        semantics), ending with the ``+Inf`` total."""
        with self._lock:
            out, running = [], 0
            for c in self._counts:
                running += c
                out.append(running)
            return out

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name}, n={self._count})"


class MetricsRegistry:
    """The process-global instrument store.

    ``counter``/``gauge``/``histogram`` are get-or-create (two calls
    with the same name return the same instrument; a name can hold
    only one instrument type).  ``register_collector`` attaches a view
    over externally owned state.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}
        self._collectors: Dict[str, Callable] = {}

    # -- instruments ---------------------------------------------------
    def _get_or_create(self, name: str, cls, **kwargs):
        with self._lock:
            inst = self._metrics.get(name)
            if inst is None:
                inst = cls(name, **kwargs)
                self._metrics[name] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} is a {type(inst).__name__}, "
                    f"not a {cls.__name__}"
                )
            return inst

    def counter(self, name: str, help: str = "", lock=None) -> Counter:
        """The counter ``name``; one created here takes ``lock`` (default:
        its own)."""
        return self._get_or_create(name, Counter, help=help, lock=lock)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help=help)

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  help: str = "") -> Histogram:
        return self._get_or_create(name, Histogram, buckets=buckets,
                                   help=help)

    def register_collector(self, name: str, fn: Callable) -> None:
        """Attach (or replace) a named collector: a zero-argument
        callable returning ``{metric_name: value}``, sampled at
        snapshot/export time.  Collector state is owned elsewhere and
        resets with its owner (e.g. ``reset_all_comms``), never with
        :meth:`reset`."""
        with self._lock:
            self._collectors[name] = fn

    # -- read side -----------------------------------------------------
    def names(self) -> list:
        with self._lock:
            return sorted(self._metrics)

    def instruments(self) -> list:
        """Every registered instrument, sorted by name."""
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    def snapshot(self) -> dict:
        """Every metric value, flat: counters/gauges map to their
        value, histograms to ``name.count`` / ``name.sum``, collectors
        contribute their dicts verbatim."""
        out: dict = {}
        for inst in self.instruments():
            if isinstance(inst, Histogram):
                out[f"{inst.name}.count"] = inst.count
                out[f"{inst.name}.sum"] = inst.sum
            else:
                out[inst.name] = inst.value
        with self._lock:
            collectors = list(self._collectors.values())
        for fn in collectors:
            out.update(fn())
        return out

    def reset(self) -> int:
        """Zero every registered instrument (registrations survive);
        returns how many were zeroed.  Collector-backed state resets
        with its owner."""
        insts = self.instruments()
        for inst in insts:
            inst.reset()
        return len(insts)


#: The process-global registry every subsystem feeds.  Mutate only
#: through the instrument API — ``tools/lint_execution_globals.py``
#: bans touching this name outside ``src/repro/telemetry/``.
_TELEMETRY_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _TELEMETRY_REGISTRY
