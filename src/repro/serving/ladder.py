"""The serving ladder: one sans-IO degradation ladder, two drivers.

Every served question ends on the same ladder::

    cache lookup ── hit ──► response
    └─ miss: circuit breaker allow?
          │  attempt (fresh runner, request-derived seed, deadline)
          │  bounded retries (reseeded, deterministic backoff)
          │  optional reflexion rung (:class:`ReflectionRung`)
          │  exhausted → forced direct answer (the paper's §3.3 fallback)
          │  even that failed → classified error (taxonomy)
          ▼
       cache store ──► response

:class:`ServingLadder` owns that ladder as a generator that performs no
I/O — the effect style of :class:`repro.engine.core.ChainEngine`, one
layer up.  :meth:`ServingLadder.answer` yields typed effects
(:class:`RunAttempt`, :class:`Sleep`, :class:`Blocking`), takes each
result back through ``send()`` or the effect's exception through
``throw()``, and returns the request's classified :class:`TQAResponse`.
The substrates only perform effects:
:class:`~repro.serving.pool.WorkerPool` inline on a worker thread,
:class:`~repro.aio.server.AsyncServer` on the event loop (awaited sleeps,
the continuous batcher, ``asyncio.to_thread`` for blocking calls).  One
ladder is why both return bit-identical responses for the same requests
(``tests/aio/test_parity.py``).

The ladder opens the ``request``, ``attempt`` and ``degraded_attempt``
spans across its yields, and spans live in context variables: a driver
must resume a request's generator only from that request's own thread or
task.  Ladder code runs on the event loop under the async driver, so
``tools/lint_async.py`` holds this module to the loop's rules.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.errors import CircuitOpenError, ServingTimeoutError, is_retryable
from repro.serving.breaker import BreakerConfig, CircuitBreaker
from repro.serving.cache import AnswerCache, CachedAnswer, request_fingerprint
from repro.serving.metrics import ServingMetrics
from repro.serving.policy import (
    DeadlineModel,
    ReflectionRung,
    ReflectPolicy,
    RetryPolicy,
    classify_failure,
)
from repro.serving.request import TQARequest, TQAResponse
from repro.telemetry.spans import Telemetry, activate, span

__all__ = ["RunAttempt", "Sleep", "Blocking", "ServingLadder"]


@dataclass(frozen=True)
class RunAttempt:
    """Run one attempt: ``spec.build(seed)``, deadline bound, run."""

    seed: int


@dataclass(frozen=True)
class Sleep:
    """Back off ``delay`` seconds before the next attempt."""

    delay: float


@dataclass(frozen=True)
class Blocking:
    """Call ``call()`` — sync chain engines — off the event loop.

    ``rung`` names the caller (``"reflect"`` or ``"degrade"``); it alone
    takes part in equality, so tests can compare effect sequences.
    """

    rung: str
    call: Callable[[], Any] = field(compare=False, repr=False)


class ServingLadder:
    """The degradation ladder shared by the pool and the async server.

    Holds the collaborators both substrates used to copy — cache, retry
    policy, metrics, tracer, span store, circuit breaker and reflexion
    rung — with the substrates' constructor semantics: ``reflect=None``
    defers to ``REPRO_REFLECT=1``, ``True`` arms the default policy,
    ``False`` forces the rung off; ``breakers`` arms a breaker for the
    spec's backend; ``telemetry`` defaults to the tracer's store.
    """

    def __init__(self, spec, *, cache: AnswerCache | None = None,
                 policy: RetryPolicy | None = None,
                 metrics: ServingMetrics | None = None, tracer=None,
                 telemetry: Telemetry | None = None,
                 breakers: BreakerConfig | None = None,
                 reflect: ReflectPolicy | bool | None = None):
        self.spec = spec
        self.cache = cache
        self.policy = policy or RetryPolicy()
        self.metrics = metrics or ServingMetrics()
        self.tracer = tracer
        # Flat serving events and hierarchical spans land in one trace.
        if telemetry is None and tracer is not None:
            telemetry = getattr(tracer, "telemetry", None)
        self.telemetry = telemetry
        if reflect is None:
            reflect = ReflectPolicy.from_env()
        elif reflect is True:
            reflect = ReflectPolicy()
        elif reflect is False:
            reflect = None
        self.reflect_policy = reflect
        self.reflect_rung = (
            None if reflect is None else ReflectionRung(
                spec, self.policy, reflect, metrics=self.metrics))
        self.breaker: CircuitBreaker | None = None
        if breakers is not None:
            backend = getattr(spec, "profile", None) or "default"
            self.breaker = CircuitBreaker(
                backend, config=breakers,
                on_transition=self._on_breaker_transition)

    # --- helpers the drivers share ------------------------------------------

    def fingerprint(self, request: TQARequest) -> str | None:
        """The cache/coalescing key, or ``None`` when caching is off."""
        if self.cache is None:
            return None
        return request_fingerprint(request, config=self.spec.config_key)

    def trace(self, chain: int, kind: str, **data) -> None:
        """Emit the ``serving_<kind>`` lifecycle event on ``chain``."""
        if self.tracer is not None:
            self.tracer.emit_for(chain, f"serving_{kind}", 0, **data)

    def _on_breaker_transition(self, backend: str, old_state: str,
                               new_state: str) -> None:
        self.metrics.record_breaker_transition(old_state, new_state)
        self.trace(0, "breaker_transition", backend=backend,
                   old_state=old_state, new_state=new_state)

    def bind_deadline(self, runner, deadline: float | None, chain: int,
                      uid: str) -> None:
        """Bind the attempt deadline to a blocking runner's model.

        A configured timeout that cannot be enforced must not pass
        silently: the request would run unbounded.  Count it (alarmable)
        and trace it on the request's chain, then run anyway — shedding
        the request entirely would be worse than running it.
        """
        if deadline is None:
            return
        if hasattr(runner, "model"):
            runner.model = DeadlineModel(runner.model, deadline)
        else:
            self.metrics.record_deadline_unattached()
            self.trace(chain, "deadline_unattached", uid=uid,
                       runner=type(runner).__name__)

    # --- the ladder ---------------------------------------------------------

    def answer(self, chain: int, uid: str, key: str | None,
               request: TQARequest):
        """The ladder for one request, as an effect generator.

        One span per request roots the tree: the attempt ladder, the
        agent run inside it, and the SQL/Python stages below all nest
        under it.  No exception escapes: the last resort classifies it.
        """
        try:
            with activate(self.telemetry), \
                    span("request", trace_id=chain, uid=uid) as root:
                response = yield from self._climb(chain, uid, key, request)
                if root is not None:
                    root.set(outcome=response.outcome,
                             cached=response.cached,
                             degraded=response.degraded,
                             attempts=response.attempts)
            return response
        except Exception as exc:
            return TQAResponse(uid=uid, answer=[],
                               error=f"{type(exc).__name__}: {exc}",
                               outcome=classify_failure(exc))

    def _climb(self, chain: int, uid: str, key: str | None,
               request: TQARequest):
        started = time.perf_counter()
        if key is not None:
            cached = self.cache.get(key)
            self.metrics.record_cache(cached is not None)
            self.trace(chain, "cache_miss" if cached is None
                       else "cache_hit", uid=uid)
            if cached is not None:
                return cached.to_response(
                    uid, latency=time.perf_counter() - started)
        result = None
        last_error = ""
        last_exc: Exception | None = None
        attempts = 0
        breaker = self.breaker
        policy = self.policy
        for attempt in range(policy.max_attempts):
            if breaker is not None and not breaker.allow():
                # Fail fast: no point burning reseeded attempts against
                # an open circuit — drop to the degradation rung.
                last_exc = CircuitOpenError(
                    f"backend {breaker.backend!r} circuit is open")
                last_error = str(last_exc)
                self.metrics.record_breaker_rejection()
                self.trace(chain, "breaker_reject", uid=uid,
                           attempt=attempt + 1, backend=breaker.backend)
                break
            attempts = attempt + 1
            try:
                with span("attempt", index=attempts):
                    result = yield RunAttempt(
                        policy.attempt_seed(request.seed, attempt))
                if breaker is not None:
                    breaker.record_success()
                break
            except ServingTimeoutError as exc:
                last_exc = exc
                last_error = str(exc)
                self.metrics.record_timeout()
                self.trace(chain, "timeout", uid=uid, attempt=attempts)
            except CircuitOpenError as exc:
                # A circuit opened *mid-attempt* (e.g. a nested serving
                # layer): account it as a rejection, not a fresh backend
                # failure, and stop burning attempts — same treatment as
                # the pre-attempt allow() refusal above.
                last_exc = exc
                last_error = str(exc)
                self.metrics.record_breaker_rejection()
                self.trace(chain, "breaker_reject", uid=uid,
                           attempt=attempts, mid_attempt=True)
                break
            except Exception as exc:
                last_exc = exc
                last_error = f"{type(exc).__name__}: {exc}"
                self.trace(chain, "error", uid=uid, attempt=attempts,
                           error=last_error, retryable=is_retryable(exc))
            if breaker is not None:
                breaker.record_failure()
            if attempt + 1 < policy.max_attempts:
                self.metrics.record_retry()
                self.trace(chain, "retry", uid=uid,
                           next_attempt=attempts + 1)
                delay = policy.backoff_delay(request.seed, attempt)
                if delay > 0:
                    self.metrics.record_backoff(delay)
                    self.trace(chain, "backoff", uid=uid,
                               delay=round(delay, 6))
                    yield Sleep(delay)
        reflections = 0
        reflected = False
        if self.reflect_rung is not None:
            # The reflexion rung: harvest the failure, reflect verbally,
            # re-run the chains with the reflection injected.
            (result, reflections, reflected, last_exc,
             last_error) = yield Blocking("reflect", partial(
                 self.reflect_rung.attempt, request, result, last_exc,
                 last_error=last_error, attempts=attempts,
                 breaker=breaker, trace=partial(self.trace, chain, uid=uid)))
        degraded = False
        if result is None and policy.degrade_on_exhaustion:
            # The §3.3 fallback rung: one-iteration forced direct answer,
            # request seed, no deadline.
            degraded = True
            self.trace(chain, "degraded", uid=uid)
            forced = self.spec.build_forced
            try:
                with span("degraded_attempt"):
                    result = yield Blocking("degrade", lambda: forced(
                        request.seed).run(request.table, request.question))
            except Exception as exc:
                last_exc = exc
                last_error = f"{type(exc).__name__}: {exc}"
                result = None
        if result is None:
            # The final rung: a terminal error, classified.
            return TQAResponse(uid=uid, answer=[], degraded=degraded,
                               attempts=attempts, reflections=reflections,
                               error=last_error,
                               latency=time.perf_counter() - started,
                               outcome=classify_failure(last_exc))
        outcome = ("degraded" if degraded
                   else "reflected" if reflected
                   else "retried" if attempts > 1 else "ok")
        response = TQAResponse(
            uid=uid, answer=list(result.answer),
            iterations=getattr(result, "iterations", 0),
            forced=bool(getattr(result, "forced", False)) or degraded,
            handling_events=list(
                getattr(result, "handling_events", ()) or ()),
            degraded=degraded, attempts=attempts, reflections=reflections,
            error=last_error,
            latency=time.perf_counter() - started, outcome=outcome)
        # Only clean first-class results are reusable; degraded answers
        # depend on wall-clock luck and must not poison the cache.
        if key is not None and not degraded:
            self.cache.put(key, CachedAnswer.from_response(response))
        return response
