"""repro.aio — the asyncio serving core.

The thread-pool serving stack (``repro.serving``) spends one OS thread
per in-flight request; its concurrency ceiling is the worker count.  This
package re-hosts the same sans-IO :class:`~repro.engine.ChainEngine` on
an asyncio event loop, where a *parked coroutine* costs a few hundred
bytes instead of a thread stack — thousands of chains can be mid-flight
at once:

* :class:`AsyncEffectHandler` (:mod:`repro.aio.handler`) — the sync
  engine's :class:`~repro.engine.driver.EffectSeam` (deadline, executor
  envelope, token attribution) with an awaitable ``model_batch`` over an
  :class:`AsyncLanguageModel` adapter (:mod:`repro.aio.adapter`).
* :class:`ContinuousBatcher` (:mod:`repro.aio.batcher`) — the
  :class:`~repro.engine.BatchScheduler` generalized from lock-step ticks
  to continuous batching: chains join mid-flight, identical pending
  prompts coalesce per tick, finished chains retire immediately.
* :func:`drive_chain` / :class:`AsyncChainDriver`
  (:mod:`repro.aio.driver`) — one coroutine per chain; a static engine
  set reproduces the BatchScheduler's ticks bit-for-bit, and the server
  drives every chain attempt through the driver.
* :class:`WeightedFairQueue` (:mod:`repro.aio.fairness`) — per-tenant
  weighted fair queueing for admission order under backlog.
* :class:`AsyncServer` (:mod:`repro.aio.server`) — the WorkerPool's
  retry/breaker/degradation ladder as a coroutine, behind
  backpressure-aware admission control (bounded in-flight budget, typed
  :class:`~repro.errors.AdmissionRejectedError` shedding) and WFQ.
* :class:`AsyncBatchEvaluator` (:mod:`repro.aio.evaluate`) — the
  :class:`~repro.serving.batch.BatchEvaluator` sibling over the server
  (both share :class:`~repro.serving.batch.EvaluatorCore`).

``repro batch --async`` selects this path from the CLI.  Differential
parity with the thread pool — bit-identical answers and outcome
classifications — is pinned by ``tests/aio/test_parity.py``.
"""

from repro.aio.adapter import AsyncLanguageModel, SyncModelAdapter
from repro.aio.batcher import ContinuousBatcher
from repro.aio.driver import AsyncChainDriver, drive_chain
from repro.aio.evaluate import AsyncBatchEvaluator
from repro.aio.fairness import WeightedFairQueue
from repro.aio.handler import AsyncEffectHandler
from repro.aio.server import AsyncServer

__all__ = [
    "AsyncLanguageModel",
    "SyncModelAdapter",
    "AsyncEffectHandler",
    "ContinuousBatcher",
    "AsyncChainDriver",
    "drive_chain",
    "WeightedFairQueue",
    "AsyncServer",
    "AsyncBatchEvaluator",
]
