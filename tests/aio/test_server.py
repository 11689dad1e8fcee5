"""Tests for AsyncServer: admission control, fairness, ladder behaviour.

The shared ladder itself (retries, degradation, classification) is
unit-tested in ``tests/serving/test_ladder.py`` and pinned against the
thread pool in ``test_parity.py``; here we exercise what the pool does
not have — the bounded in-flight budget, typed rejection,
fair-queue admission order, coalescing on one event loop, and the
deadline seam binding to chain runners without a wrappable ``model``.
"""

import asyncio
import threading

import pytest

from repro.aio import AsyncServer
from repro.errors import (
    AdmissionRejectedError,
    QueueClosedError,
    ServingError,
    is_retryable,
)
from repro.serving import (
    AgentSpec,
    AnswerCache,
    RetryPolicy,
    ServingMetrics,
    TQARequest,
)
from repro.tracing import ChainTracer


def requests_for(bench, count, *, seed=1, tenant="default"):
    return [TQARequest(table=e.table, question=e.question, seed=seed,
                       uid=e.uid, tenant=tenant)
            for e in bench.examples[:count]]


def run(coro):
    return asyncio.run(coro)


class TestBasicServing:
    def test_answers_and_outcomes(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)

        async def scenario():
            async with AsyncServer(spec, max_inflight=4) as server:
                tasks = [asyncio.create_task(server.answer(req))
                         for req in requests_for(wikitq_small, 12)]
                return await asyncio.gather(*tasks)

        responses = run(scenario())
        assert len(responses) == 12
        assert all(r.outcome == "ok" for r in responses)
        assert all(r.attempts == 1 for r in responses)

    def test_submit_sugar(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)
        example = wikitq_small.examples[0]

        async def scenario():
            async with AsyncServer(spec) as server:
                return await server.submit(
                    example.table, example.question, seed=1,
                    tenant="alice")

        response = run(scenario())
        assert response.outcome == "ok"

    def test_closed_server_refuses(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)

        async def scenario():
            server = AsyncServer(spec)
            await server.close()
            with pytest.raises(ServingError):
                await server.submit_request(
                    requests_for(wikitq_small, 1)[0])

        run(scenario())

    def test_constructor_validation(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)
        with pytest.raises(ValueError):
            AsyncServer(spec, max_inflight=0)
        with pytest.raises(ValueError):
            AsyncServer(spec, max_queued=-1)


class TestAdmissionControl:
    def test_overload_sheds_with_typed_rejection(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)
        metrics = ServingMetrics()

        async def scenario():
            async with AsyncServer(spec, max_inflight=1, max_queued=0,
                                   metrics=metrics) as server:
                reqs = requests_for(wikitq_small, 5)
                tasks = [asyncio.create_task(server.submit_request(r))
                         for r in reqs]
                return await asyncio.gather(*tasks,
                                            return_exceptions=True)

        results = run(scenario())
        rejected = [r for r in results
                    if isinstance(r, AdmissionRejectedError)]
        served = [r for r in results
                  if not isinstance(r, BaseException)]
        assert served and rejected
        # The typed error is retryable (clients should back off and
        # retry) and carries the classified response.
        for error in rejected:
            assert is_retryable(error)
            assert error.response.outcome == "rejected"
            assert error.response.error
        assert metrics.rejections == len(rejected)
        assert metrics.outcomes.get("rejected") == len(rejected)

    def test_answer_folds_rejection_into_response(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)

        async def scenario():
            async with AsyncServer(spec, max_inflight=1,
                                   max_queued=0) as server:
                tasks = [asyncio.create_task(server.answer(r))
                         for r in requests_for(wikitq_small, 5)]
                return await asyncio.gather(*tasks)

        responses = run(scenario())
        outcomes = {r.outcome for r in responses}
        assert outcomes == {"ok", "rejected"}
        for r in responses:
            if r.outcome == "rejected":
                assert r.answer == [] and r.attempts == 0

    def test_queue_admits_when_capacity_frees(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)

        async def scenario():
            async with AsyncServer(spec, max_inflight=2,
                                   max_queued=64) as server:
                tasks = [asyncio.create_task(server.answer(r))
                         for r in requests_for(wikitq_small, 10)]
                responses = await asyncio.gather(*tasks)
                assert server.active == 0
                return responses

        responses = run(scenario())
        assert all(r.outcome == "ok" for r in responses)

    def test_close_fails_parked_waiters(self, wikitq_small):
        """Closing with requests parked in the fair queue wakes them
        with an error instead of leaving them suspended forever."""
        spec = AgentSpec(bank=wikitq_small.bank)

        class Gate:
            """A spec whose runners block until released."""

            def __init__(self, inner, event):
                self.inner = inner
                self.event = event
                self.config_key = inner.config_key

            def build(self, seed):
                inner_runner = self.inner.build(seed)
                event = self.event

                class Blocked:
                    def run(self, table, question):
                        # Runs inside asyncio.to_thread (no engine_for).
                        event.wait()
                        return inner_runner.run(table, question)

                return Blocked()

            def build_forced(self, seed):
                return self.inner.build_forced(seed)

        import threading
        release = threading.Event()
        gated = Gate(spec, release)

        async def scenario():
            server = AsyncServer(gated, max_inflight=1, max_queued=8,
                                 policy=RetryPolicy(
                                     degrade_on_exhaustion=False))
            first, second = requests_for(wikitq_small, 2)
            running = asyncio.create_task(server.answer(first))
            await asyncio.sleep(0.01)       # first occupies the slot
            parked = asyncio.create_task(
                server.submit_request(second))
            await asyncio.sleep(0.01)       # second parks in the queue
            await server.close()
            with pytest.raises(Exception):
                await parked
            release.set()
            return await running

        response = run(scenario())
        assert response.outcome == "ok"

    def test_close_fails_coalesced_duplicates_like_their_primary(
            self, wikitq_small):
        """A duplicate coalesced onto a primary parked at close() raises
        the primary's QueueClosedError, not a CancelledError."""
        spec = AgentSpec(bank=wikitq_small.bank)
        release = threading.Event()

        class GatedSpec:
            config_key = spec.config_key

            def build(self, seed):
                inner_runner = spec.build(seed)

                class Blocked:
                    def run(self, table, question):
                        release.wait()       # inside asyncio.to_thread
                        return inner_runner.run(table, question)

                return Blocked()

            def build_forced(self, seed):
                return spec.build_forced(seed)

        async def scenario():
            server = AsyncServer(GatedSpec(), max_inflight=1,
                                 max_queued=8, cache=AnswerCache(16))
            first, second = requests_for(wikitq_small, 2)
            running = asyncio.create_task(server.answer(first))
            await asyncio.sleep(0.01)       # first occupies the slot
            parked = asyncio.create_task(server.answer(second))
            await asyncio.sleep(0.01)       # second parks in the queue
            duplicate = asyncio.create_task(server.answer(second))
            await asyncio.sleep(0.01)       # ...and the duplicate joins it
            await server.close()
            outcomes = await asyncio.gather(parked, duplicate,
                                            return_exceptions=True)
            release.set()
            return outcomes, await running

        (parked, duplicate), response = run(scenario())
        assert isinstance(parked, QueueClosedError)
        assert isinstance(duplicate, QueueClosedError)
        assert response.outcome == "ok"


class TestTenantFairness:
    def test_backlog_drains_in_weighted_order(self, wikitq_small):
        """With one slot and a backlog from two tenants, the weighted
        tenant is admitted more often in any drain prefix."""
        spec = AgentSpec(bank=wikitq_small.bank)
        admitted: list[str] = []

        class Recorder:
            """Tracer stub recording serving_admit tenants."""

            def emit_for(self, chain, kind, iteration, **data):
                if kind == "serving_admit":
                    admitted.append(data["tenant"])

        async def scenario():
            async with AsyncServer(
                    spec, max_inflight=1, max_queued=64,
                    tenant_weights={"gold": 2.0},
                    tracer=Recorder()) as server:
                tasks = []
                # One request takes the slot; the rest park.
                for i, req in enumerate(requests_for(
                        wikitq_small, 1, tenant="warmup")):
                    tasks.append(asyncio.create_task(server.answer(req)))
                await asyncio.sleep(0)
                for req in requests_for(wikitq_small, 6, tenant="gold"):
                    tasks.append(asyncio.create_task(server.answer(req)))
                for req in requests_for(wikitq_small, 6, tenant="bronze"):
                    tasks.append(asyncio.create_task(server.answer(req)))
                await asyncio.gather(*tasks)

        run(scenario())
        assert len(admitted) == 12
        # Weight 2 vs 1: every admitted prefix carries at least as many
        # gold requests as bronze, and gold finishes its backlog first.
        gold_positions = [i for i, t in enumerate(admitted)
                          if t == "gold"]
        bronze_positions = [i for i, t in enumerate(admitted)
                            if t == "bronze"]
        assert sum(1 for t in admitted[:6] if t == "gold") == 4
        assert max(gold_positions) < max(bronze_positions)


class TestCachingAndCoalescing:
    def test_cache_hit_skips_the_ladder(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)
        metrics = ServingMetrics()
        cache = AnswerCache(64)
        request = requests_for(wikitq_small, 1)[0]

        async def scenario():
            async with AsyncServer(spec, cache=cache,
                                   metrics=metrics) as server:
                first = await server.answer(request)
                second = await server.answer(request)
                return first, second

        first, second = run(scenario())
        assert first.outcome == "ok" and not first.cached
        assert second.cached and second.outcome == "cached"
        assert metrics.cache_hits == 1 and metrics.cache_misses == 1

    def test_identical_inflight_requests_coalesce(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)
        metrics = ServingMetrics()
        request = requests_for(wikitq_small, 1)[0]

        async def scenario():
            async with AsyncServer(spec, cache=AnswerCache(64),
                                   metrics=metrics) as server:
                tasks = [asyncio.create_task(server.answer(request))
                         for _ in range(4)]
                return await asyncio.gather(*tasks)

        responses = run(scenario())
        assert [r.answer for r in responses] == [
            responses[0].answer] * 4
        coalesced = [r for r in responses if r.coalesced]
        assert len(coalesced) == 3
        assert metrics.coalesced == 3
        # Only the primary's response is recorded as completed.
        assert metrics.completed == 1


class TestDeadlinesAndFailures:
    def test_expired_deadline_degrades(self, wikitq_small):
        """A deadline that expires immediately fails every attempt at
        the model boundary; the degraded rung (no deadline) answers."""
        spec = AgentSpec(bank=wikitq_small.bank)
        metrics = ServingMetrics()

        async def scenario():
            async with AsyncServer(
                    spec, metrics=metrics,
                    policy=RetryPolicy(timeout=1e-9,
                                       max_retries=1)) as server:
                return await server.answer(
                    requests_for(wikitq_small, 1)[0])

        response = run(scenario())
        assert response.outcome == "degraded"
        assert response.degraded and response.forced
        assert metrics.timeouts == 2        # both attempts timed out
        # Chain runners carry the deadline on the handler seam — the
        # unattached alarm must stay silent.
        assert metrics.deadline_unattached == 0

    def test_deadline_exceeded_without_degradation(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)

        async def scenario():
            async with AsyncServer(
                    spec,
                    policy=RetryPolicy(timeout=1e-9, max_retries=0,
                                       degrade_on_exhaustion=False)
                    ) as server:
                return await server.answer(
                    requests_for(wikitq_small, 1)[0])

        response = run(scenario())
        assert response.outcome == "deadline_exceeded"
        assert response.answer == []

    def test_voted_chain_runners_carry_deadlines(self, wikitq_small):
        """s-vote runners have no wrappable ``model`` attribute in the
        async path — the handler seam must still enforce the deadline."""
        spec = AgentSpec(bank=wikitq_small.bank, voting="s-vote",
                         samples=3)
        metrics = ServingMetrics()

        async def scenario():
            async with AsyncServer(
                    spec, metrics=metrics,
                    policy=RetryPolicy(timeout=1e-9,
                                       max_retries=0)) as server:
                return await server.answer(
                    requests_for(wikitq_small, 1)[0])

        response = run(scenario())
        assert response.outcome == "degraded"
        assert metrics.timeouts == 1
        assert metrics.deadline_unattached == 0

    def test_tvote_runner_reports_unattached_deadline(self, wikitq_small):
        """Tree voting runs as a blocking thread-side runner; its model
        wrap works, so unattached stays zero — but a runner with neither
        seam must trip the loud metric."""
        spec = AgentSpec(bank=wikitq_small.bank)
        metrics = ServingMetrics()

        class NoSeamSpec:
            config_key = "no-seam"

            def build(self, seed):
                inner = spec.build(seed)

                class Opaque:
                    def run(self, table, question):
                        return inner.run(table, question)

                return Opaque()

            def build_forced(self, seed):
                return spec.build_forced(seed)

        tracer = ChainTracer()

        async def scenario():
            async with AsyncServer(
                    NoSeamSpec(), metrics=metrics, tracer=tracer,
                    policy=RetryPolicy(timeout=30.0)) as server:
                return await server.answer(
                    requests_for(wikitq_small, 1)[0])

        response = run(scenario())
        assert response.outcome == "ok"
        assert metrics.deadline_unattached == 1
        # Traced on the request's own chain, not the global chain 0.
        [unattached] = tracer.of_kind("serving_deadline_unattached")
        [complete] = tracer.of_kind("serving_complete")
        assert unattached.chain_id == complete.chain_id != 0
