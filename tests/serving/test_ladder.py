"""Unit tests for the sans-IO serving ladder, driven by a scripted driver.

No threads and no event loop: each test feeds the ladder generator one
scripted reply per yielded effect (a value to ``send()`` or an exception
to ``throw()``) and pins the exact effect sequence plus the final
:class:`TQAResponse`.  The pool and async drivers only perform these
effects, so this covers the shared logic once instead of per substrate.
"""

from types import SimpleNamespace

import pytest

from repro.errors import (
    CircuitOpenError,
    ServingTimeoutError,
    TransientModelError,
)
from repro.retry import ExponentialBackoff
from repro.serving import (
    AnswerCache,
    BreakerConfig,
    RetryPolicy,
    ServingMetrics,
    TQARequest,
)
from repro.serving.ladder import Blocking, RunAttempt, ServingLadder, Sleep
from repro.tracing import ChainTracer

#: Script entry: perform the effect's real blocking call.
PERFORM = object()

STRIDE = RetryPolicy().retry_seed_stride


def result(*answer, forced=False):
    return SimpleNamespace(answer=list(answer), iterations=2,
                           forced=forced, handling_events=[])


class StubSpec:
    config_key = "stub"
    profile = "stub-backend"

    def build(self, seed):
        raise AssertionError("attempts are the driver's job")

    def build_forced(self, seed):
        forced = result("forced", forced=True)
        forced.iterations = 1
        return SimpleNamespace(run=lambda table, question: forced)


def drive(ladder, request, script, *, chain=1, uid="u1", key=None):
    """Run one request through ``ladder``; return (effects, response)."""
    steps = ladder.answer(chain, uid, key, request)
    effects = []
    replies = iter(script)
    reply = error = None
    while True:
        try:
            effect = (steps.send(reply) if error is None
                      else steps.throw(error))
        except StopIteration as done:
            assert next(replies, None) is None, "unused script entries"
            return effects, done.value
        effects.append(effect)
        scripted = next(replies)
        if scripted is PERFORM:
            scripted = effect.call()
        reply, error = ((None, scripted)
                        if isinstance(scripted, BaseException)
                        else (scripted, None))


@pytest.fixture()
def request_(tiny_frame):
    return TQARequest(table=tiny_frame, question="how many?", seed=5)


def make(**kwargs):
    kwargs.setdefault("metrics", ServingMetrics())
    kwargs.setdefault("reflect", False)
    return ServingLadder(StubSpec(), **kwargs)


class TestLadder:
    def test_ok(self, request_):
        ladder = make()
        effects, response = drive(ladder, request_, [result("3")])
        assert effects == [RunAttempt(5)]
        assert response.outcome == "ok"
        assert response.answer == ["3"]
        assert response.attempts == 1 and response.iterations == 2
        assert not response.forced and not response.degraded
        assert response.error == ""

    def test_cache_hit(self, request_):
        ladder = make(cache=AnswerCache(4))
        key = ladder.fingerprint(request_)
        drive(ladder, request_, [result("3")], key=key)
        effects, response = drive(ladder, request_, [], key=key, uid="u2")
        assert effects == []
        assert response.uid == "u2"
        assert response.outcome == "cached" and response.cached
        assert response.answer == ["3"] and response.attempts == 0
        assert ladder.metrics.cache_hits == 1

    def test_timeout_then_retried(self, request_):
        ladder = make(policy=RetryPolicy(
            max_retries=1,
            backoff=ExponentialBackoff(base=0.25, jitter=0.0)))
        effects, response = drive(ladder, request_, [
            ServingTimeoutError("attempt deadline exceeded"), None,
            result("4")])
        assert effects == [RunAttempt(5), Sleep(0.25),
                           RunAttempt(5 + STRIDE)]
        assert response.outcome == "retried"
        assert response.answer == ["4"] and response.attempts == 2
        assert response.error == "attempt deadline exceeded"
        assert ladder.metrics.timeouts == 1
        assert ladder.metrics.retries == 1

    def test_open_breaker_skips_the_attempts(self, request_):
        ladder = make(breakers=BreakerConfig(failure_threshold=1,
                                             cooldown=60.0))
        ladder.breaker.record_failure()      # open the circuit
        effects, response = drive(ladder, request_, [PERFORM])
        assert effects == [Blocking("degrade", None)]
        assert response.outcome == "degraded"
        assert response.answer == ["forced"]
        assert response.forced and response.attempts == 0
        assert response.error == "backend 'stub-backend' circuit is open"
        assert ladder.metrics.breaker_rejections == 1

    def test_circuit_open_mid_attempt_stops_retrying(self, request_):
        ladder = make(policy=RetryPolicy(max_retries=3,
                                         degrade_on_exhaustion=False))
        effects, response = drive(ladder, request_, [
            CircuitOpenError("backend 'inner' circuit is open")])
        assert effects == [RunAttempt(5)]
        assert response.outcome == "error_permanent"
        assert response.answer == [] and response.attempts == 1
        assert response.error == "backend 'inner' circuit is open"
        assert ladder.metrics.breaker_rejections == 1
        assert ladder.metrics.retries == 0

    def test_exhausted_then_degraded(self, request_):
        ladder = make(cache=AnswerCache(4))
        key = ladder.fingerprint(request_)
        effects, response = drive(ladder, request_, [
            TransientModelError("flaky"), TransientModelError("flakier"),
            PERFORM], key=key)
        assert effects == [RunAttempt(5), RunAttempt(5 + STRIDE),
                           Blocking("degrade", None)]
        assert response.outcome == "degraded"
        assert response.degraded and response.forced
        assert response.answer == ["forced"] and response.iterations == 1
        assert response.attempts == 2
        assert response.error == "TransientModelError: flakier"
        # Degraded answers never reach the cache.
        assert len(ladder.cache) == 0

    def test_failed_degraded_run_is_classified(self, request_):
        ladder = make(policy=RetryPolicy(max_retries=0))
        effects, response = drive(ladder, request_, [
            RuntimeError("boom"), TransientModelError("backend down")])
        assert effects == [RunAttempt(5), Blocking("degrade", None)]
        assert response.outcome == "error_transient"
        assert response.degraded and response.answer == []
        assert response.attempts == 1
        assert response.error == "TransientModelError: backend down"

    def test_reflexion_rung_improves_the_result(self, request_):
        ladder = make(reflect=True, policy=RetryPolicy(max_retries=0))
        improved = result("7")
        effects, response = drive(ladder, request_, [
            result("weak", forced=True), (improved, 1, True, None, "")])
        assert effects == [RunAttempt(5), Blocking("reflect", None)]
        assert effects[1].call.func == ladder.reflect_rung.attempt
        assert response.outcome == "reflected"
        assert response.answer == ["7"] and response.reflections == 1
        assert response.attempts == 1 and not response.degraded


class TestLadderContract:
    def test_cancellation_propagates_unclassified(self, request_):
        """A BaseException (asyncio cancellation) thrown into the ladder
        unwinds it instead of becoming a classified response."""
        steps = make().answer(1, "u1", None, request_)
        assert steps.send(None) == RunAttempt(5)
        with pytest.raises(KeyboardInterrupt):
            steps.throw(KeyboardInterrupt())

    def test_rung_exception_gets_the_last_resort(self, request_):
        ladder = make(reflect=True)
        effects, response = drive(ladder, request_, [
            result("weak"), ValueError("rung broke")])
        assert effects == [RunAttempt(5), Blocking("reflect", None)]
        assert response.outcome == "error_permanent"
        assert response.error == "ValueError: rung broke"

    def test_request_span_and_events_share_the_request_chain(
            self, request_):
        tracer = ChainTracer()
        ladder = make(tracer=tracer, policy=RetryPolicy(max_retries=1))
        drive(ladder, request_, [RuntimeError("x"), result("1")],
              chain=9)
        assert {e.chain_id for e in tracer.events} == {9}
        assert [e.kind for e in tracer.events] == [
            "serving_error", "serving_retry"]
        [root] = [s for s in tracer.telemetry.spans if s.kind == "request"]
        assert root.trace_id == 9
        assert root.attributes["outcome"] == "retried"
        attempts = [s for s in tracer.telemetry.spans
                    if s.kind == "attempt"]
        assert [s.parent_id for s in attempts] == [root.span_id] * 2
