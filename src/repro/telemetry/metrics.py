"""Unified metrics: named, labelled Counter/Gauge/Histogram instruments.

One :class:`MetricsRegistry` holds every instrument a subsystem reports
into, keyed by a dotted name (``serving.submitted``,
``cache.lookups``, ...).  Instruments support optional labels —
``counter.inc(cache="sql_plan", result="hit")`` — so one instrument can
carry a small cardinality of breakdowns without one-name-per-variant
sprawl.  Everything is thread-safe and dependency-free.

Two scopes exist:

* per-run registries (``ServingMetrics`` builds one per instance, so a
  serving run's snapshot is self-contained), and
* the process-global :data:`GLOBAL_REGISTRY`, which long-lived
  infrastructure (the SQL plan cache, the prompt-encode cache, the
  circuit breaker, the model retry stack, the SQL tier counters)
  reports into.

Snapshots are plain JSON-ready dicts; nothing here reads the wall clock,
so recording is safe inside seeded-deterministic runs.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "percentile",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "GLOBAL_REGISTRY",
    "global_registry",
]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1]).

    ``q=0`` is the minimum, ``q=1`` the maximum; an empty list yields
    0.0 so dashboards render zeros instead of crashing.
    """
    if not values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _label_text(key: tuple) -> str:
    return ",".join(f"{name}={value}" for name, value in key)


class _Instrument:
    """Shared base: a named instrument with per-label-set cells."""

    kind = "instrument"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._cells: dict[tuple, object] = {}

    def labelsets(self) -> list[dict]:
        """Every label combination observed so far."""
        with self._lock:
            return [dict(key) for key in self._cells]


class Counter(_Instrument):
    """A monotonically increasing sum (per label set)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._cells[key] = self._cells.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._cells.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        with self._lock:
            return sum(self._cells.values())

    def values(self) -> dict[tuple, float]:
        """``label-key tuple -> value`` for every observed label set."""
        with self._lock:
            return dict(self._cells)

    def snapshot(self):
        with self._lock:
            if set(self._cells) <= {()}:
                return self._cells.get((), 0.0)
            return {_label_text(key): value
                    for key, value in sorted(self._cells.items())}


class Gauge(_Instrument):
    """A value that can go up, down, or track a high-water mark."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._cells[_label_key(labels)] = value

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._cells[key] = self._cells.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def set_max(self, value: float, **labels) -> None:
        """Keep the maximum of the current and the new value."""
        key = _label_key(labels)
        with self._lock:
            current = self._cells.get(key)
            if current is None or value > current:
                self._cells[key] = value

    def value(self, **labels) -> float:
        with self._lock:
            return self._cells.get(_label_key(labels), 0.0)

    def snapshot(self):
        with self._lock:
            if set(self._cells) <= {()}:
                return self._cells.get((), 0.0)
            return {_label_text(key): value
                    for key, value in sorted(self._cells.items())}


class Histogram(_Instrument):
    """A distribution: every observation retained, percentile-queryable.

    Observations are kept raw (bounded workloads: one serving run, one
    evaluation) rather than bucketed, so snapshots report exact
    nearest-rank percentiles — matching what ``ServingMetrics`` always
    promised for latency.
    """

    kind = "histogram"

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                self._cells[key] = cell = []
            cell.append(value)

    def values(self, **labels) -> list[float]:
        with self._lock:
            return list(self._cells.get(_label_key(labels), ()))

    def count(self, **labels) -> int:
        with self._lock:
            return len(self._cells.get(_label_key(labels), ()))

    def total(self, **labels) -> float:
        with self._lock:
            return sum(self._cells.get(_label_key(labels), ()))

    def quantile(self, q: float, **labels) -> float:
        return percentile(self.values(**labels), q)

    def _summary(self, values: list[float]) -> dict:
        return {
            "count": len(values),
            "sum": round(sum(values), 6),
            "p50": round(percentile(values, 0.50), 6),
            "p95": round(percentile(values, 0.95), 6),
            "p99": round(percentile(values, 0.99), 6),
        }

    def snapshot(self):
        with self._lock:
            cells = {key: list(values)
                     for key, values in self._cells.items()}
        if set(cells) <= {()}:
            return self._summary(cells.get((), []))
        return {_label_text(key): self._summary(values)
                for key, values in sorted(cells.items())}


class MetricsRegistry:
    """Get-or-create home for named instruments; snapshot to JSON."""

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    def _get(self, cls, name: str, help: str):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                self._instruments[name] = instrument = cls(name, help)
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} is a {instrument.kind}, not a "
                    f"{cls.kind}")
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def instruments(self) -> list[_Instrument]:
        """Every registered instrument, sorted by name.

        The exposition layer (:mod:`repro.telemetry.prom`) iterates
        this instead of :meth:`snapshot` because rendering needs the
        per-label-set cells and raw histogram observations, not the
        summarised dict.
        """
        with self._lock:
            return [self._instruments[name]
                    for name in sorted(self._instruments)]

    def snapshot(self) -> dict:
        """``name -> value`` (scalar, labelled dict, or histogram summary)."""
        with self._lock:
            instruments = dict(self._instruments)
        return {name: instrument.snapshot()
                for name, instrument in sorted(instruments.items())}

    def reset(self) -> None:
        """Drop every instrument (tests and process-global hygiene)."""
        with self._lock:
            self._instruments.clear()


#: Process-wide registry the infrastructure layers report into.
GLOBAL_REGISTRY = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry (caches, breaker, SQL tiers, retries)."""
    return GLOBAL_REGISTRY
