"""Batched evaluation through the async server.

:class:`AsyncBatchEvaluator` is the :class:`~repro.serving.batch.\
BatchEvaluator` sibling over :class:`~repro.aio.server.AsyncServer`: it
submits every benchmark question as a coroutine and lets admission
control and the fair queue pace them.  Everything else — the cache,
policy and metrics defaults, ``last_responses`` and the scoring (the
sequential runner's accumulation logic) — is the shared
:class:`~repro.serving.batch.EvaluatorCore`; this module adds only the
server's knobs and the submission loop.  The determinism contract
is the pool's — every request answered by a fresh agent seeded from
``seed`` alone — plus the server's shedding behaviour: with a bounded
``max_queued`` some responses may come back ``outcome="rejected"`` under
overload, and those score as unanswered rather than raising.

:meth:`evaluate` is a synchronous facade (``asyncio.run``) for CLI and
test callers; :meth:`evaluate_async` is the loop-native form.
"""

from __future__ import annotations

import asyncio

from repro.aio.server import AsyncServer
from repro.datasets.generators import Benchmark
from repro.evalkit.runner import EvalReport
from repro.serving.batch import EvaluatorCore
from repro.serving.breaker import BreakerConfig
from repro.serving.cache import AnswerCache
from repro.serving.metrics import ServingMetrics
from repro.serving.policy import RetryPolicy
from repro.serving.request import TQARequest

__all__ = ["AsyncBatchEvaluator"]


class AsyncBatchEvaluator(EvaluatorCore):
    """Run benchmarks through an :class:`AsyncServer`.

    The shared knobs are :class:`~repro.serving.batch.BatchEvaluator`'s;
    ``max_inflight`` replaces ``workers`` as the concurrency bound and
    ``max_queued=None`` (the default here) makes evaluation lossless —
    batch scoring wants every answer, so nothing is shed unless a bound
    is asked for.  ``tenant`` labels the whole run for fair-queue
    accounting when the server is shared.
    """

    def __init__(self, spec, *, max_inflight: int = 64, seed: int = 1,
                 max_queued: int | None = None,
                 cache: AnswerCache | None = None, cache_size: int = 0,
                 cache_ttl: float | None = None,
                 policy: RetryPolicy | None = None,
                 metrics: ServingMetrics | None = None,
                 tracer=None,
                 breakers: BreakerConfig | None = None,
                 tenant_weights: dict[str, float] | None = None,
                 tenant: str = "default", reflect=None):
        super().__init__(spec, seed=seed, cache=cache,
                         cache_size=cache_size, cache_ttl=cache_ttl,
                         policy=policy, metrics=metrics, tracer=tracer,
                         breakers=breakers, reflect=reflect)
        self.max_inflight = max_inflight
        self.max_queued = max_queued
        self.tenant_weights = tenant_weights
        self.tenant = tenant

    def evaluate(self, benchmark: Benchmark, *,
                 limit: int | None = None) -> EvalReport:
        """Score ``benchmark`` on a private event loop."""
        return asyncio.run(self.evaluate_async(benchmark, limit=limit))

    async def evaluate_async(self, benchmark: Benchmark, *,
                             limit: int | None = None) -> EvalReport:
        """Score ``benchmark`` on the running loop."""
        examples = self._examples(benchmark, limit)
        async with AsyncServer(
                self.spec, max_inflight=self.max_inflight,
                max_queued=self.max_queued, cache=self.cache,
                policy=self.policy, metrics=self.metrics,
                tracer=self.tracer, breakers=self.breakers,
                tenant_weights=self.tenant_weights,
                reflect=self.reflect) as server:
            tasks = [
                asyncio.create_task(server.answer(TQARequest(
                    table=example.table, question=example.question,
                    seed=self.seed, uid=example.uid, tenant=self.tenant)))
                for example in examples
            ]
            responses = await asyncio.gather(*tasks)
        return self._score(benchmark, examples, responses)
