"""Per-request timeout and bounded-retry policy, with degradation.

Chains cannot be preempted mid-executor, so timeouts are enforced at the
LLM boundary: :class:`DeadlineModel` wraps a request's model and raises
:class:`~repro.errors.ServingTimeoutError` once the attempt deadline has
passed — checked both before each completion (cheap refusal) and after it
returns (catches one slow call).  Since every prompt/response round trips
through the model, a timed-out chain stops within one completion of its
deadline.

:class:`RetryPolicy` decides how many attempts a request gets, how each
attempt's seed is derived (deterministically, so retries are reproducible
but explore different model randomness), how long the pool backs off
between attempts (deterministic exponential schedule with seeded jitter —
see :class:`repro.retry.ExponentialBackoff`), and whether an exhausted
request degrades to a forced direct answer instead of failing.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.errors import (
    CircuitOpenError,
    ReflectionUnsupportedError,
    ServingTimeoutError,
    is_retryable,
)
from repro.llm.base import Completion, LanguageModel
from repro.reflect import (
    ReflectEngine,
    ReflectionMemory,
    harvest_exception,
    harvest_result,
)
from repro.retry import ExponentialBackoff

__all__ = ["RetryPolicy", "DeadlineModel", "classify_failure",
           "ReflectPolicy", "ReflectionRung"]


def classify_failure(exc: Exception | None) -> str:
    """Terminal-error rung of the ladder, per the failure taxonomy.

    Deadline expiry gets its own classification (rather than the generic
    transient bucket): a ``deadline_exceeded`` response means the ladder
    ran out of *time*, not out of attempts, which callers treat
    differently (resubmit with a longer budget, not a retry).  An open
    circuit is permanent from the *request's* point of view even though
    ``CircuitOpenError`` is marked non-retryable rather than transient:
    retrying inside the same request cannot close the circuit, so the
    ladder must not spin on it.  The one classification of the serving
    ladder, so the thread pool and the async server classify identically.
    """
    if isinstance(exc, ServingTimeoutError):
        return "deadline_exceeded"
    if isinstance(exc, CircuitOpenError):
        return "error_permanent"
    if exc is not None and is_retryable(exc):
        return "error_transient"
    return "error_permanent"


@dataclass(frozen=True)
class RetryPolicy:
    """How the pool treats one request's failures.

    ``timeout`` is wall-clock seconds per *attempt* (``None`` disables
    deadlines); ``max_retries`` is the number of extra attempts after the
    first.  When every attempt fails and ``degrade_on_exhaustion`` is
    set, the worker runs a one-iteration forced-direct-answer chain (the
    paper's Section 3.3 fallback) instead of returning an error.
    """

    timeout: float | None = None
    max_retries: int = 1
    #: Seed offset between attempts; prime so attempt seeds of nearby
    #: request seeds never collide.
    retry_seed_stride: int = 7919
    degrade_on_exhaustion: bool = True
    #: Deterministic between-attempt backoff; ``None`` retries
    #: immediately (the historical behaviour and the test default).
    backoff: ExponentialBackoff | None = None

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def attempt_seed(self, base_seed: int, attempt: int) -> int:
        """Deterministic seed for attempt ``attempt`` (0-based)."""
        return base_seed + attempt * self.retry_seed_stride

    def backoff_delay(self, base_seed: int, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (0-based), jittered
        deterministically from the request's base seed."""
        if self.backoff is None:
            return 0.0
        return self.backoff.delay(attempt, seed=base_seed)

    def deadline(self, clock=time.monotonic) -> float | None:
        """Absolute deadline for an attempt starting now, or ``None``."""
        if self.timeout is None:
            return None
        return clock() + self.timeout


class DeadlineModel(LanguageModel):
    """A model wrapper that enforces an absolute completion deadline."""

    def __init__(self, inner: LanguageModel, deadline: float, *,
                 clock=time.monotonic):
        self.inner = inner
        self.deadline = deadline
        self._clock = clock

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def supports_logprobs(self) -> bool:
        return self.inner.supports_logprobs

    def fork(self, seed: int) -> LanguageModel:
        """Fork the wrapped model; the deadline follows the wrapper."""
        return DeadlineModel(self.inner.fork(seed), self.deadline,
                             clock=self._clock)

    def _check(self, moment: str) -> None:
        if self._clock() >= self.deadline:
            raise ServingTimeoutError(
                f"attempt deadline exceeded ({moment} completion)")

    def complete(self, prompt: str, *, temperature: float = 0.0,
                 n: int = 1) -> list[Completion]:
        self._check("before")
        completions = self.inner.complete(prompt, temperature=temperature,
                                          n=n)
        self._check("after")
        return completions

    def complete_batch(self, requests) -> list[list[Completion]]:
        """Deadline-checked batching that keeps the inner batch endpoint.

        The default ``LanguageModel.complete_batch`` would loop this
        wrapper's ``complete`` per request — correct, but it degrades a
        real batch endpoint (one round-trip per tick) into per-request
        round-trips.  Scheduler-driven chains therefore check once before
        and once after the whole tick instead.
        """
        self._check("before")
        batches = self.inner.complete_batch(requests)
        self._check("after")
        return batches


@dataclass(frozen=True)
class ReflectPolicy:
    """How (and whether) the ladder spends reflexion cycles.

    ``max_reflections`` bounds the verbal-retry budget per request;
    ``0`` keeps the rung wired but inert (the overhead-benchmark
    configuration).  Reflection seeds live in their own stride space so
    they can never collide with the retry ladder's attempt seeds.

    ``shared_memory`` is the determinism trade-off: the default fresh
    per-request memory keeps "equal request -> equal response" exact,
    while a process-shared memory lets later requests learn from earlier
    ones at the cost of arrival-order dependence.
    """

    max_reflections: int = 1
    #: Offsets the reflection seed space away from request seeds.
    reflect_seed_salt: int = 0x5EED
    #: Prime stride between successive reflections of one request.
    reflect_seed_stride: int = 104729
    #: Reflections retained per ``(table, question)`` episode.
    memory_per_key: int = 3
    #: Share one :class:`ReflectionMemory` across requests (opt-in).
    shared_memory: bool = False

    def __post_init__(self):
        if self.max_reflections < 0:
            raise ValueError("max_reflections must be >= 0")
        if self.memory_per_key < 1:
            raise ValueError("memory_per_key must be >= 1")

    def reflection_seed(self, base_seed: int, index: int) -> int:
        """Deterministic seed for reflection ``index`` (0-based)."""
        return (base_seed + self.reflect_seed_salt
                + index * self.reflect_seed_stride)

    @classmethod
    def from_env(cls, env=os.environ) -> "ReflectPolicy | None":
        """The ``REPRO_REFLECT=1`` switch; ``None`` keeps the tier off."""
        if env.get("REPRO_REFLECT", "0") == "1":
            return cls()
        return None


class ReflectionRung:
    """The reflexion rung of the serving ladder.

    Sits between the retry ladder and the degradation rung: given
    whatever the attempts left behind (a weak result, or the exception
    that exhausted them), harvest a :class:`FailureReport`, run up to
    ``max_reflections`` reflect-and-re-run cycles through
    :class:`~repro.reflect.engine.ReflectEngine`, and hand back either an
    improved result or the originals untouched.  All accounting — the
    breaker, timeout/error metrics, lifecycle traces — mirrors a
    first-class attempt so dashboards need no special casing.

    :meth:`attempt` returns ``(result, reflections, improved, last_exc,
    last_error)``.  When no cycle improves on the original, the original
    result *and* its error fields come back bit-identical — reflection
    failures must not perturb what the ladder would have returned anyway
    (the lone exception: when the ladder had *no* result at all, a weak
    reflected result beats none, and a reflection-cycle exception
    replaces the retry ladder's so ``deadline_exceeded`` during
    reflection classifies truthfully).
    """

    def __init__(self, spec, retry_policy: RetryPolicy,
                 reflect_policy: ReflectPolicy, *, metrics=None):
        self.spec = spec
        self.retry_policy = retry_policy
        self.reflect_policy = reflect_policy
        self.metrics = metrics
        self._shared_memory = (
            ReflectionMemory(per_key=reflect_policy.memory_per_key)
            if reflect_policy.shared_memory else None)

    def _memory(self) -> ReflectionMemory:
        if self._shared_memory is not None:
            return self._shared_memory
        return ReflectionMemory(per_key=self.reflect_policy.memory_per_key)

    def attempt(self, request, result, last_exc, *, last_error: str = "",
                attempts: int = 0, breaker=None, trace=None):
        """Run the rung; see the class docstring for the return tuple."""
        orig = (result, last_exc, last_error)
        if result is not None:
            report = harvest_result(result, question=request.question,
                                    attempts=attempts)
        elif last_exc is not None:
            report = harvest_exception(last_exc, question=request.question,
                                       attempts=attempts)
        else:
            report = None
        if report is None or self.reflect_policy.max_reflections < 1:
            return result, 0, False, orig[1], orig[2]
        engine = ReflectEngine(self.spec, memory=self._memory())
        used = 0
        fallback = None
        for index in range(self.reflect_policy.max_reflections):
            if breaker is not None and not breaker.allow():
                if self.metrics is not None:
                    self.metrics.record_breaker_rejection()
                if trace is not None:
                    trace("breaker_reject", backend=breaker.backend,
                          rung="reflect")
                if result is None:
                    last_exc = CircuitOpenError(
                        f"backend {breaker.backend!r} circuit is open")
                break
            used += 1
            if self.metrics is not None:
                self.metrics.record_reflection()
            if trace is not None:
                trace("reflect", index=used, category=report.category)
            seed = self.reflect_policy.reflection_seed(request.seed, index)
            deadline = self.retry_policy.deadline()
            try:
                candidate = engine.run(
                    request.table, request.question, seed=seed,
                    report=report, deadline=deadline, index=used)
            except ServingTimeoutError as exc:
                last_exc = exc
                if self.metrics is not None:
                    self.metrics.record_timeout()
                if trace is not None:
                    trace("timeout", rung="reflect", index=used)
                if breaker is not None:
                    breaker.record_failure()
                continue
            except ReflectionUnsupportedError:
                # The spec's runner has no chain-engine seam; the rung
                # is a no-op for this configuration.
                used -= 1
                break
            except Exception as exc:
                last_exc = exc
                if trace is not None:
                    trace("error", rung="reflect", index=used,
                          error=f"{type(exc).__name__}: {exc}",
                          retryable=is_retryable(exc))
                if breaker is not None:
                    breaker.record_failure()
                continue
            if breaker is not None:
                breaker.record_success()
            candidate_report = harvest_result(
                candidate, question=request.question, attempts=attempts)
            if candidate_report is None:
                return candidate, used, True, None, ""
            # Still weak: remember it as better-than-nothing and reflect
            # again on the *new* failure evidence.
            fallback = candidate
            report = candidate_report
        if orig[0] is None and fallback is not None:
            return fallback, used, True, None, ""
        if orig[0] is None and result is None and last_exc is not orig[1]:
            # No result anywhere and the reflection cycles died on their
            # own exception (e.g. the deadline): classify that one.
            error = (str(last_exc)
                     if isinstance(last_exc, ServingTimeoutError)
                     else f"{type(last_exc).__name__}: {last_exc}")
            return None, used, False, last_exc, error
        return orig[0], used, False, orig[1], orig[2]
