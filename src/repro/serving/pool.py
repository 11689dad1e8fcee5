"""The worker pool: N concurrent agent threads behind one bounded queue.

Dataflow of one request::

    submit ──► [coalesce onto identical in-flight request?]
           ──► RequestQueue ──► worker thread
                                  └─ ServingLadder: cache → breaker →
                                     reseeded attempts → backoff →
                                     reflexion rung → forced direct
                                     answer → classified error
                                        ▼
                                     response

The ladder itself lives in :mod:`repro.serving.ladder`, shared with
:class:`~repro.aio.server.AsyncServer`; this module is its thread
driver.  A worker performs the ladder's effects inline: an attempt
builds a fresh runner from the spec with a seed derived only from the
request seed and attempt number (so responses do not depend on worker
count or dispatch order), binds the attempt deadline to its model
(:class:`~repro.serving.policy.DeadlineModel`) and runs it — voted
runners through the sans-IO ``BatchScheduler`` when ``batch_scheduler``
is set; backoff is ``time.sleep``; the reflexion and degraded rungs are
plain calls.

Every request terminates with a **classified outcome** (see
:data:`repro.serving.request.OUTCOMES`) — no exception escapes a
worker.  Lifecycle events (``enqueue``, ``dispatch``, ``coalesce``,
``complete`` here; the ladder's ``cache_hit`` … ``error``) are emitted
to an optional :class:`~repro.tracing.ChainTracer`.
"""

from __future__ import annotations

import os
import threading
import time

from repro.errors import QueueClosedError, ServingError
from repro.serving.breaker import BreakerConfig, CircuitBreaker
from repro.serving.cache import AnswerCache
from repro.serving.ladder import RunAttempt, ServingLadder, Sleep
from repro.serving.metrics import ServingMetrics
from repro.serving.policy import ReflectPolicy, RetryPolicy
from repro.serving.request import (
    PendingResponse,
    RequestQueue,
    TQARequest,
    TQAResponse,
)
from repro.table.frame import DataFrame
from repro.telemetry.spans import Telemetry

__all__ = ["WorkerPool"]


class WorkerPool:
    """Serve TQA requests over ``workers`` concurrent agent threads.

    ``spec`` is an :class:`~repro.serving.spec.AgentSpec` (or any object
    with ``build(seed)`` / ``build_forced(seed)`` / ``config_key``).
    Optional collaborators: an :class:`AnswerCache` (enables caching *and*
    in-flight request coalescing), a :class:`RetryPolicy`, a
    :class:`ServingMetrics` aggregator, a
    :class:`~repro.tracing.ChainTracer`, and a
    :class:`~repro.serving.breaker.BreakerConfig` (``breakers=``) that
    arms a circuit breaker for the spec's backend.

    Use as a context manager, or call :meth:`start` / :meth:`shutdown`.
    """

    def __init__(self, spec, *, workers: int = 4,
                 cache: AnswerCache | None = None,
                 policy: RetryPolicy | None = None,
                 metrics: ServingMetrics | None = None,
                 tracer=None, queue_capacity: int = 256,
                 breakers: BreakerConfig | None = None,
                 telemetry: Telemetry | None = None,
                 batch_scheduler: bool | None = None,
                 reflect: ReflectPolicy | bool | None = None,
                 sleep=time.sleep):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.ladder = ServingLadder(
            spec, cache=cache, policy=policy, metrics=metrics,
            tracer=tracer, telemetry=telemetry, breakers=breakers,
            reflect=reflect)
        self.spec = spec
        self.workers = workers
        self.cache = cache
        self.policy = self.ladder.policy
        self.metrics = self.ladder.metrics
        self.tracer = tracer
        self.telemetry = self.ladder.telemetry
        self.reflect_policy = self.ladder.reflect_policy
        # Batched-driver flag: voted runners that support the sans-IO
        # BatchScheduler (``use_scheduler``) coalesce their per-chain
        # model calls into batched completions.  ``None`` defers to the
        # ``REPRO_BATCH_SCHEDULER=1`` environment switch.
        if batch_scheduler is None:
            batch_scheduler = (
                os.environ.get("REPRO_BATCH_SCHEDULER", "0") == "1")
        self.batch_scheduler = batch_scheduler
        self.queue = RequestQueue(queue_capacity)
        self._sleep = sleep
        self._threads: list[threading.Thread] = []
        self._inflight: dict[str, PendingResponse] = {}
        self._inflight_lock = threading.Lock()
        self._request_counter = 0
        self._started = False

    @property
    def breaker(self) -> CircuitBreaker | None:
        """The spec backend's circuit breaker (``None`` when disabled)."""
        return self.ladder.breaker

    # --- lifecycle ----------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Spawn the worker threads (idempotent)."""
        if self._started:
            return self
        self._started = True
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"tqa-worker-{index}",
                daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def shutdown(self, *, wait: bool = True) -> None:
        """Close the queue; with ``wait``, join workers after it drains."""
        self.queue.close()
        if wait:
            for thread in self._threads:
                thread.join()
        self._threads.clear()
        self._started = False

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    # --- submission ---------------------------------------------------------

    def submit(self, table: DataFrame, question: str, *, seed: int = 0,
               uid: str = "") -> PendingResponse:
        """Enqueue one question; returns a :class:`PendingResponse`."""
        return self.submit_request(
            TQARequest(table=table, question=question, seed=seed, uid=uid))

    def submit_request(self, request: TQARequest) -> PendingResponse:
        if not self._started:
            raise ServingError("pool is not running (call start())")
        with self._inflight_lock:
            self._request_counter += 1
            chain = self._request_counter
        uid = request.uid or f"req-{chain}"
        key = self.ladder.fingerprint(request)
        if key is not None:
            # Coalesce onto an identical in-flight computation: the
            # duplicate never reaches the queue.
            with self._inflight_lock:
                primary = self._inflight.get(key)
                if primary is not None:
                    slot = PendingResponse()
                    primary.add_listener(slot, uid)
                    self.metrics.record_coalesced()
                    self.ladder.trace(chain, "coalesce", uid=uid)
                    return slot
                slot = PendingResponse()
                self._inflight[key] = slot
        else:
            slot = PendingResponse()
        self.ladder.trace(chain, "enqueue", uid=uid,
                          question=request.question)
        try:
            self.queue.put((chain, uid, key, request, slot))
        except QueueClosedError as exc:
            # The request never runs: resolve its coalesced duplicates
            # with a classified rejection instead of leaving them hung.
            self._forget_inflight(key)
            slot.set(TQAResponse(uid=uid, answer=[], attempts=0,
                                 error=str(exc), outcome="rejected"))
            raise
        self.metrics.record_submit(self.queue.depth)
        return slot

    # --- worker internals ---------------------------------------------------

    def _forget_inflight(self, key: str | None) -> None:
        if key is None:
            return
        with self._inflight_lock:
            self._inflight.pop(key, None)

    def _worker_loop(self) -> None:
        while True:
            try:
                chain, uid, key, request, slot = self.queue.get()
            except QueueClosedError:
                return
            self.ladder.trace(chain, "dispatch", uid=uid,
                              queue_depth=self.queue.depth)
            response = self._answer(chain, uid, key, request)
            slot.set(response)
            self._forget_inflight(key)
            self.metrics.record_response(response)
            self.ladder.trace(chain, "complete", uid=uid,
                              answer=response.answer_text,
                              cached=response.cached,
                              degraded=response.degraded,
                              outcome=response.outcome,
                              latency=round(response.latency, 6))

    def _answer(self, chain: int, uid: str, key: str | None,
                request: TQARequest) -> TQAResponse:
        """Drive the ladder to its response, performing effects inline."""
        steps = self.ladder.answer(chain, uid, key, request)
        reply = error = None
        while True:
            try:
                effect = (steps.send(reply) if error is None
                          else steps.throw(error))
            except StopIteration as done:
                return done.value
            reply = error = None
            try:
                if isinstance(effect, RunAttempt):
                    reply = self._run_attempt(chain, uid, request,
                                              effect.seed)
                elif isinstance(effect, Sleep):
                    self._sleep(effect.delay)
                else:
                    reply = effect.call()
            except BaseException as exc:   # thrown into the ladder
                error = exc

    def _run_attempt(self, chain: int, uid: str, request: TQARequest,
                     seed: int):
        runner = self.spec.build(seed)
        if self.batch_scheduler and hasattr(runner, "use_scheduler"):
            runner.use_scheduler = True
        self.ladder.bind_deadline(runner, self.policy.deadline(), chain, uid)
        return runner.run(request.table, request.question)
