"""The async server: the serving ladder's asyncio driver, with admission.

Dataflow of one request::

    submit ──► [coalesce onto identical in-flight request?]
           ──► admission control
                 ├─ in-flight budget free ──────────────► dispatch
                 ├─ budget full, queue room ── WFQ park ─► dispatch
                 └─ budget full, queue full ──► typed rejection
                                                (AdmissionRejectedError,
                                                 outcome="rejected")
    dispatch ──► ServingLadder: cache → breaker → reseeded attempts →
                 backoff → reflexion rung → forced direct answer →
                 classified error ──► response

The ladder is :class:`~repro.serving.ladder.ServingLadder`, the same
sans-IO generator :class:`~repro.serving.pool.WorkerPool` drives from
its worker threads, so the two paths return bit-identical responses for
the same requests (``tests/aio/test_parity.py``).  This module is the
ladder's asyncio driver plus the substrate around it:

* a request is a *coroutine*, not a thread — the in-flight budget
  (``max_inflight``) can be hundreds without hundreds of stacks;
* chain runners (greedy and s-vote) are driven through a per-attempt
  :class:`~repro.aio.batcher.ContinuousBatcher` (voted chains coalesce
  their ticks, the ``REPRO_BATCH_SCHEDULER`` contract); blocking
  tree/execution voters, the reflexion rung and the degraded rung run
  in worker threads via ``asyncio.to_thread``; backoff is awaited;
* admission order under backlog is per-tenant weighted fair queueing
  (:class:`~repro.aio.fairness.WeightedFairQueue`), not FIFO: one chatty
  tenant cannot starve the rest;
* overload is *shed*, not buffered without bound: a full queue raises
  :class:`~repro.errors.AdmissionRejectedError` immediately (retryable —
  the client's signal to back off), and :meth:`answer` folds it into an
  ``outcome="rejected"`` response.

Deadlines ride the :class:`~repro.aio.handler.AsyncEffectHandler` seam
(checked at every model boundary), so they bind to *every* chain runner —
no ``runner.model`` monkey-patching; the thread-dispatched voters get
the ladder's :meth:`~repro.serving.ladder.ServingLadder.bind_deadline`,
the same as the pool's runners.

Telemetry: each request's span tree (``request`` → ``attempt`` →
``agent_run``/``vote_run`` → ``model_call``) lives in its own asyncio
task context — the ladder generator is resumed only from its request's
task — so trees stay correctly nested while hundreds of requests
interleave on one loop.
"""

from __future__ import annotations

import asyncio

from repro.aio.batcher import ContinuousBatcher
from repro.aio.driver import drive_chain
from repro.aio.fairness import WeightedFairQueue
from repro.aio.handler import AsyncEffectHandler
from repro.errors import (
    AdmissionRejectedError,
    ExecutionError,
    QueueClosedError,
    ServingError,
)
from repro.serving.breaker import BreakerConfig, CircuitBreaker
from repro.serving.cache import AnswerCache
from repro.serving.ladder import RunAttempt, ServingLadder, Sleep
from repro.serving.metrics import ServingMetrics
from repro.serving.policy import ReflectPolicy, RetryPolicy
from repro.serving.request import TQARequest, TQAResponse
from repro.table.frame import DataFrame
from repro.telemetry.spans import Telemetry, span

__all__ = ["AsyncServer"]


class AsyncServer:
    """Serve TQA requests as coroutines behind admission control.

    ``spec`` is an :class:`~repro.serving.spec.AgentSpec`-shaped object.
    ``max_inflight`` bounds concurrently *running* requests;
    ``max_queued`` bounds requests parked in the fair queue behind them
    (``None`` = unbounded queue, never reject).  ``tenant_weights`` maps
    :attr:`TQARequest.tenant` names to WFQ weights.  ``on_complete`` is
    an optional observer called as ``on_complete(chain, request,
    response)`` once per settled primary request (rejections included,
    coalesced replicas excluded) — the seam the observability daemon
    uses to drive SLO accounting and tail sampling with the request's
    chain/trace id in hand.  The remaining collaborators (cache,
    policy, metrics, tracer, breakers, telemetry) have
    :class:`~repro.serving.pool.WorkerPool` semantics.

    Use as an async context manager, or call :meth:`close` when done.
    """

    def __init__(self, spec, *, max_inflight: int = 64,
                 max_queued: int | None = 256,
                 cache: AnswerCache | None = None,
                 policy: RetryPolicy | None = None,
                 metrics: ServingMetrics | None = None,
                 tracer=None,
                 breakers: BreakerConfig | None = None,
                 telemetry: Telemetry | None = None,
                 tenant_weights: dict[str, float] | None = None,
                 reflect: ReflectPolicy | bool | None = None,
                 on_complete=None,
                 sleep=asyncio.sleep):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_queued is not None and max_queued < 0:
            raise ValueError("max_queued must be >= 0 (or None)")
        self.ladder = ServingLadder(
            spec, cache=cache, policy=policy, metrics=metrics,
            tracer=tracer, telemetry=telemetry, breakers=breakers,
            reflect=reflect)
        self.spec = spec
        self.max_inflight = max_inflight
        self.max_queued = max_queued
        self.cache = cache
        self.policy = self.ladder.policy
        self.metrics = self.ladder.metrics
        self.tracer = tracer
        self.telemetry = self.ladder.telemetry
        self.reflect_policy = self.ladder.reflect_policy
        self.queue = WeightedFairQueue(weights=tenant_weights)
        self.on_complete = on_complete
        self._sleep = sleep
        self._active = 0
        self._inflight: dict[str, asyncio.Future] = {}
        self._request_counter = 0
        self._closed = False

    @property
    def breaker(self) -> CircuitBreaker | None:
        """The spec backend's circuit breaker (``None`` when disabled)."""
        return self.ladder.breaker

    @property
    def active(self) -> int:
        """Requests currently running (admitted, not finished)."""
        return self._active

    # --- lifecycle ----------------------------------------------------------

    async def __aenter__(self) -> "AsyncServer":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self) -> None:
        """Refuse new submissions and fail every parked waiter."""
        self._closed = True
        while self.queue:
            gate = self.queue.pop()
            if not gate.done():
                gate.set_exception(QueueClosedError("server is closed"))
        # Let the woken waiters run their cleanup before we return.
        await asyncio.sleep(0)

    # --- submission ---------------------------------------------------------

    async def submit(self, table: DataFrame, question: str, *,
                     seed: int = 0, uid: str = "",
                     tenant: str = "default") -> TQAResponse:
        """Answer one question; raises on admission rejection."""
        return await self.submit_request(TQARequest(
            table=table, question=question, seed=seed, uid=uid,
            tenant=tenant))

    async def answer(self, request: TQARequest) -> TQAResponse:
        """:meth:`submit_request`, with rejection folded into the response.

        The evaluation surface: every request yields a classified
        :class:`TQAResponse` (``outcome="rejected"`` for shed ones), so
        batch callers see the full outcome distribution instead of
        exceptions.
        """
        try:
            return await self.submit_request(request)
        except AdmissionRejectedError as exc:
            return exc.response

    async def submit_request(self, request: TQARequest) -> TQAResponse:
        """Admit, run and answer ``request``.

        Raises :class:`AdmissionRejectedError` (carrying a ``.response``
        with ``outcome="rejected"``) when both the in-flight budget and
        the fair queue are full — the typed backpressure signal.
        """
        if self._closed:
            raise ServingError("server is closed")
        self._request_counter += 1
        chain = self._request_counter
        uid = request.uid or f"req-{chain}"
        key = self.ladder.fingerprint(request)
        if key is not None:
            # Coalesce onto an identical in-flight computation.  shield():
            # one cancelled duplicate must not cancel the shared primary.
            primary = self._inflight.get(key)
            if primary is not None:
                self.metrics.record_coalesced()
                self.ladder.trace(chain, "coalesce", uid=uid)
                response = await asyncio.shield(primary)
                return response.replica(uid, coalesced=True)
            self._inflight[key] = asyncio.get_running_loop().create_future()
        self.ladder.trace(chain, "enqueue", uid=uid,
                          question=request.question)
        # Admission: run now, park fairly, or shed.  All bookkeeping up
        # to an ``await`` is atomic (single event loop, no locks).
        if self._active >= self.max_inflight:
            if (self.max_queued is not None
                    and len(self.queue) >= self.max_queued):
                self.metrics.record_submit(len(self.queue))
                raise self._reject(chain, uid, key, request)
            gate = asyncio.get_running_loop().create_future()
            self.queue.push(request.tenant, gate)
            self.metrics.record_submit(len(self.queue))
            try:
                # Resolved by _pump() once a slot frees (the slot is
                # charged to us before the wake-up).
                await gate
            except BaseException as exc:
                if (gate.done() and not gate.cancelled()
                        and gate.exception() is None):
                    self._release_slot()
                self._drop_inflight(key, exc)
                raise
            self.ladder.trace(chain, "admit", uid=uid,
                              tenant=request.tenant,
                              queue_depth=len(self.queue))
        else:
            self._active += 1
            self.metrics.record_submit(len(self.queue))
        self.ladder.trace(chain, "dispatch", uid=uid,
                          queue_depth=len(self.queue))
        response: TQAResponse | None = None
        try:
            response = await self._answer(chain, uid, key, request)
        finally:
            if key is not None:
                future = self._inflight.pop(key, None)
                if future is not None and not future.done():
                    if response is not None:
                        future.set_result(response)
                    else:
                        future.cancel()
            self._release_slot()
        self.metrics.record_response(response)
        self.ladder.trace(chain, "complete", uid=uid,
                          answer=response.answer_text,
                          cached=response.cached,
                          degraded=response.degraded,
                          outcome=response.outcome,
                          latency=round(response.latency, 6))
        self._notify_complete(chain, request, response)
        return response

    # --- admission internals ------------------------------------------------

    def _reject(self, chain: int, uid: str, key: str | None,
                request: TQARequest) -> AdmissionRejectedError:
        self._drop_inflight(key)
        message = (f"admission rejected: {self._active} in flight, "
                   f"{len(self.queue)} queued (tenant {request.tenant!r})")
        response = TQAResponse(uid=uid, answer=[], attempts=0,
                               error=message, outcome="rejected")
        self.metrics.record_rejection()
        self.metrics.record_response(response)
        self.ladder.trace(chain, "rejected", uid=uid, tenant=request.tenant,
                          queue_depth=len(self.queue))
        self._notify_complete(chain, request, response)
        error = AdmissionRejectedError(message)
        error.response = response
        return error

    def _notify_complete(self, chain: int, request: TQARequest,
                         response: TQAResponse) -> None:
        """Tell the observer; a broken observer never fails a request."""
        if self.on_complete is None:
            return
        try:
            self.on_complete(chain, request, response)
        except Exception:
            self.metrics.record_observer_error()

    def _release_slot(self) -> None:
        self._active -= 1
        self._pump()

    def _pump(self) -> None:
        """Hand freed slots to parked waiters in fair-queue order."""
        while self._active < self.max_inflight and self.queue:
            gate = self.queue.pop()
            if gate.done():        # cancelled while parked: skip
                continue
            self._active += 1      # charge the slot before the wake-up
            gate.set_result(None)

    def _drop_inflight(self, key: str | None,
                       error: BaseException | None = None) -> None:
        """Forget ``key``; its coalesced duplicates see the primary's fate.

        A primary that failed with an exception (e.g. the
        :class:`QueueClosedError` of :meth:`close`) hands the same
        exception to its duplicates; otherwise they are cancelled.
        """
        if key is None:
            return
        future = self._inflight.pop(key, None)
        if future is None or future.done():
            return
        if isinstance(error, Exception):
            future.set_exception(error)
            future.exception()     # retrieved: duplicates are optional
        else:
            future.cancel()

    # --- the ladder driver --------------------------------------------------

    async def _answer(self, chain: int, uid: str, key: str | None,
                      request: TQARequest) -> TQAResponse:
        """Drive the ladder to its response, awaiting its effects."""
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
                    reply = await self._run_attempt(chain, uid, request,
                                                    effect.seed)
                elif isinstance(effect, Sleep):
                    await self._sleep(effect.delay)
                else:
                    reply = await asyncio.to_thread(effect.call)
            except BaseException as exc:
                # Cancellation too: thrown in, it unwinds the ladder's
                # spans in this task's context and propagates.
                error = exc

    async def _run_attempt(self, chain: int, uid: str, request: TQARequest,
                           seed: int):
        """One seeded attempt, dispatched by runner capability.

        Chain runners (``engine_for`` / ``chain_engines``) are driven as
        coroutines through a per-attempt continuous batcher with the
        deadline on the handler seam; blocking voters (tree/execution)
        take the pool's path in a worker thread via ``asyncio.to_thread``.
        """
        runner = self.spec.build(seed)
        deadline = self.policy.deadline()
        table, question = request.table, request.question
        if hasattr(runner, "chain_engines"):
            # s-vote / ensemble: n chains coalescing their ticks (the
            # REPRO_BATCH_SCHEDULER contract, always on here).  The
            # runner's exception envelope travels with it: voting-family
            # runners swallow branch failures, the greedy chain does not.
            batcher = ContinuousBatcher(AsyncEffectHandler(
                runner.model, runner.registry, deadline=deadline,
                catch=getattr(runner, "handler_catch",
                              (ExecutionError,))))
            engines = runner.chain_engines(table, question)
            for _ in engines:
                batcher.admit()    # whole population before the first tick
            with span("vote_run", method="s-vote", n=runner.n):
                results = await asyncio.gather(
                    *(drive_chain(engine, batcher, pre_admitted=True)
                      for engine in engines))
            return runner.tally(results)
        if hasattr(runner, "engine_for"):
            # Greedy single chain.
            batcher = ContinuousBatcher(AsyncEffectHandler(
                runner.model, runner.registry, deadline=deadline))
            with span("agent_run", trace_id=None) as root:
                if root is not None:
                    root.set(question=question[:120])
                return await drive_chain(
                    runner.engine_for(table, question), batcher)
        self.ladder.bind_deadline(runner, deadline, chain, uid)
        return await asyncio.to_thread(runner.run, table, question)
