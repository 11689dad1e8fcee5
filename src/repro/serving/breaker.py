"""Per-backend circuit breaker for the serving worker pool.

A :class:`CircuitBreaker` tracks consecutive failures against one backend
(one model profile).  After ``failure_threshold`` consecutive failures it
**opens**: requests are refused instantly (fail fast, shed load) instead
of queueing behind a dead backend.  After ``cooldown`` seconds it goes
**half-open** and admits probe calls — the first success closes the
circuit, the first failure re-opens it and restarts the cooldown.

The breaker is thread-safe (every worker thread of a pool shares the same
instance per backend) and clock-injectable for deterministic tests.
State transitions are reported through ``on_transition(backend, old,
new)`` so the serving ladder can mirror them into
:class:`~repro.serving.metrics.ServingMetrics` and the trace.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.telemetry.metrics import GLOBAL_REGISTRY

__all__ = ["BreakerConfig", "CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning knobs: consecutive failures to open, seconds to half-open."""

    failure_threshold: int = 5
    cooldown: float = 30.0

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")


class CircuitBreaker:
    """Consecutive-failure breaker: closed → open → half-open → closed."""

    def __init__(self, backend: str = "default", *,
                 config: BreakerConfig | None = None,
                 clock=time.monotonic, on_transition=None):
        self.backend = backend
        self.config = config or BreakerConfig()
        self._clock = clock
        self.on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.rejections = 0
        self.times_opened = 0

    @property
    def state(self) -> str:
        """``"closed"`` | ``"open"`` | ``"half_open"`` (cooldown-aware)."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _transition(self, new_state: str) -> None:
        # Caller holds the lock.
        old_state = self._state
        if old_state == new_state:
            return
        self._state = new_state
        if new_state == OPEN:
            self.times_opened += 1
            self._opened_at = self._clock()
        GLOBAL_REGISTRY.counter(
            "breaker.transitions", "circuit breaker state changes",
        ).inc(backend=self.backend, to=new_state)
        if self.on_transition is not None:
            self.on_transition(self.backend, old_state, new_state)

    def _maybe_half_open(self) -> None:
        # Caller holds the lock.
        if (self._state == OPEN
                and self._clock() - self._opened_at
                >= self.config.cooldown):
            self._transition(HALF_OPEN)

    def allow(self) -> bool:
        """Whether a call may proceed right now.

        Open circuits refuse (and count the rejection); half-open
        circuits admit probes.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == OPEN:
                self.rejections += 1
                GLOBAL_REGISTRY.counter(
                    "breaker.rejections", "calls refused by an open circuit",
                ).inc(backend=self.backend)
                return False
            return True

    def record_success(self) -> None:
        """One call against the backend succeeded."""
        with self._lock:
            self._consecutive_failures = 0
            self._maybe_half_open()
            if self._state != CLOSED:
                self._transition(CLOSED)

    def record_failure(self) -> None:
        """One call against the backend failed."""
        with self._lock:
            self._maybe_half_open()
            if self._state == HALF_OPEN:
                # The probe failed: straight back to open, fresh cooldown.
                self._consecutive_failures = self.config.failure_threshold
                self._transition(OPEN)
                return
            self._consecutive_failures += 1
            if (self._state == CLOSED and self._consecutive_failures
                    >= self.config.failure_threshold):
                self._transition(OPEN)

    def snapshot(self) -> dict:
        """JSON-ready view of the breaker's state and counters."""
        with self._lock:
            self._maybe_half_open()
            return {
                "backend": self.backend,
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "times_opened": self.times_opened,
                "rejections": self.rejections,
            }
