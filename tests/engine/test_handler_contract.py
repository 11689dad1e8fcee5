"""One contract, two handlers: the sync and the async effect seam.

``EffectHandler`` and ``repro.aio.AsyncEffectHandler`` share one
implementation of the deadline check, the executor error envelope and
the ``model_call`` token attribution.  Each case runs against both (the
async one through ``asyncio.run``), so the two stay interchangeable.
"""

import asyncio

import pytest

from repro.aio import AsyncEffectHandler
from repro.engine import EffectHandler, Execute, ExecResult
from repro.errors import (ExecutionError, ServingTimeoutError,
                          SQLExecutionError)
from repro.executors.base import CodeExecutor
from repro.executors.registry import ExecutorRegistry, default_registry
from repro.llm.base import Completion, CompletionRequest, LanguageModel
from repro.telemetry import Telemetry


class RaisingExecutor(CodeExecutor):
    language = "boom"

    def __init__(self, error):
        self.error = error

    def execute(self, code, tables):
        raise self.error


class CountingModel(LanguageModel):
    """Answers every prompt with ``n`` fixed completions; counts calls.

    ``on_call`` runs inside each round-trip (a clock that moves while
    the model works)."""

    name = "counting"
    supports_logprobs = False

    def __init__(self, on_call=None):
        self.calls = 0
        self.on_call = on_call

    def complete(self, prompt, *, temperature=0.0, n=1):
        self.calls += 1
        if self.on_call is not None:
            self.on_call()
        return [Completion(f"answer to {prompt} #{i}") for i in range(n)]


class Clock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def _sync_batch(handler, requests):
    return handler.model_batch(requests)


def _async_batch(handler, requests):
    return asyncio.run(handler.model_batch(requests))


HANDLERS = {
    "sync": (EffectHandler, _sync_batch),
    "async": (AsyncEffectHandler, _async_batch),
}


@pytest.fixture(params=sorted(HANDLERS))
def side(request):
    return HANDLERS[request.param]


REQUESTS = [CompletionRequest(prompt="who ranked first?", n=2),
            CompletionRequest(prompt="how many teams?", temperature=0.6)]


class TestExecute:
    def test_unknown_language_is_a_missing_executor(self, side, cyclists):
        make, _ = side
        handler = make(CountingModel(), ExecutorRegistry())
        result = handler.execute(Execute("sql", "SELECT 1", (cyclists,)))
        assert result.missing_executor and result.failed
        assert result.error is not None

    def test_success_carries_the_outcome(self, side, cyclists):
        make, _ = side
        handler = make(CountingModel(), default_registry())
        result = handler.execute(
            Execute("sql", "SELECT Cyclist FROM T0 WHERE Rank = 1",
                    (cyclists,)))
        assert not result.failed
        assert result.outcome.table.num_rows == 1

    def test_caught_exception_becomes_data(self, side, cyclists):
        make, _ = side
        error = SQLExecutionError("no such column")
        handler = make(CountingModel(),
                       ExecutorRegistry([RaisingExecutor(error)]))
        result = handler.execute(Execute("boom", "x", (cyclists,)))
        assert result == ExecResult(error=error)

    def test_uncaught_exception_propagates(self, side, cyclists):
        make, _ = side
        handler = make(CountingModel(), ExecutorRegistry(
            [RaisingExecutor(KeyError("crash"))]))
        with pytest.raises(KeyError):
            handler.execute(Execute("boom", "x", (cyclists,)))

    def test_catch_widens_the_envelope(self, side, cyclists):
        make, _ = side
        error = KeyError("crash")
        handler = make(CountingModel(),
                       ExecutorRegistry([RaisingExecutor(error)]),
                       catch=(Exception,))
        result = handler.execute(Execute("boom", "x", (cyclists,)))
        assert result.error is error and not result.missing_executor

    def test_default_envelope_is_execution_error(self, side):
        make, _ = side
        assert make(CountingModel(), ExecutorRegistry()).catch == (
            ExecutionError,)


class TestDeadline:
    def test_expired_deadline_refuses_before_calling(self, side):
        make, batch = side
        model = CountingModel()
        handler = make(model, ExecutorRegistry(), deadline=5.0,
                       clock=Clock(5.0))
        with pytest.raises(ServingTimeoutError, match="before"):
            batch(handler, REQUESTS)
        assert model.calls == 0

    def test_deadline_crossed_during_the_call(self, side):
        make, batch = side
        clock = Clock(0.0)

        def slow_call():
            clock.now = 10.0

        model = CountingModel(on_call=slow_call)
        handler = make(model, ExecutorRegistry(), deadline=5.0,
                       clock=clock)
        with pytest.raises(ServingTimeoutError, match="after"):
            batch(handler, REQUESTS)
        assert model.calls == len(REQUESTS)

    def test_no_deadline_never_raises(self, side):
        make, batch = side
        handler = make(CountingModel(), ExecutorRegistry(),
                       clock=Clock(1e12))
        assert len(batch(handler, REQUESTS)) == len(REQUESTS)


def _batch_span(side):
    make, batch = side
    telemetry = Telemetry()
    with telemetry.activate():
        batches = batch(make(CountingModel(), ExecutorRegistry()), REQUESTS)
    (call,) = [s for s in telemetry.spans if s.kind == "model_call"]
    return batches, call


def test_model_batch_attribution_is_identical_on_both_handlers():
    sync_batches, sync_span = _batch_span(HANDLERS["sync"])
    async_batches, async_span = _batch_span(HANDLERS["async"])
    assert [[c.text for c in b] for b in sync_batches] == [
        [c.text for c in b] for b in async_batches]
    assert sync_span.attributes == async_span.attributes == {"batched": 2}
    counts = (sync_span.prompt_tokens, sync_span.completion_tokens,
              sync_span.model_calls)
    assert counts == (async_span.prompt_tokens,
                      async_span.completion_tokens, async_span.model_calls)
    assert sync_span.model_calls == len(REQUESTS)
    assert sync_span.prompt_tokens > 0 and sync_span.completion_tokens > 0


def test_async_handler_has_no_sync_model_call():
    """The seam carries no model method an async model could inherit."""
    handler = AsyncEffectHandler(CountingModel(), ExecutorRegistry())
    assert not hasattr(handler, "model_call")
    assert asyncio.iscoroutinefunction(handler.model_batch)
