"""Drivers: perform the engine's effects against real models/executors.

The split of responsibilities after the sans-IO refactor:

* :class:`~repro.engine.core.ChainEngine` — *what* happens (step logic);
* :class:`EffectHandler` — *how* one effect is performed (the only place
  in the agent stack that calls ``LanguageModel.complete`` or
  ``CodeExecutor.execute``; ``tools/lint_effects.py`` enforces this).
  Its model-free half, :class:`EffectSeam`, is shared with the async
  core's :class:`~repro.aio.AsyncEffectHandler`;
* :func:`run_chain` / :func:`drive` — *when* effects are performed (the
  sequencing policy: synchronous here, coalesced in
  :class:`~repro.engine.scheduler.BatchScheduler`).

``EffectHandler`` also owns telemetry attribution: every model call —
whether it comes from the greedy agent, a voting branch or a batched
tick — runs inside a ``model_call`` span with prompt/completion token
counts, so cost fold-up works uniformly (voted runs used to bypass the
spans and under-report tokens).
"""

from __future__ import annotations

import time

from repro.engine.core import ChainEngine
from repro.engine.effects import Execute, ExecResult, ModelCall, ModelResult
from repro.engine.result import AgentResult
from repro.errors import ExecutionError, ServingTimeoutError
from repro.llm.base import Completion, CompletionRequest
from repro.telemetry.cost import estimate_tokens
from repro.telemetry.spans import span

__all__ = ["EffectSeam", "EffectHandler", "run_chain", "drive"]


class EffectSeam:
    """The half of an effect handler that does not touch the model.

    It owns the deadline check, the executor error envelope
    (:meth:`execute`) and the ``model_call`` span's token attribution
    (:meth:`_charge_tokens`).  :class:`EffectHandler` adds the
    synchronous model boundary on top and
    :class:`repro.aio.AsyncEffectHandler` the awaitable one.  Because the
    seam has no model method, the async handler cannot inherit one that
    would call an async model and hand back a coroutine.

    ``catch`` is the executor exception envelope: the single-chain agent
    absorbs only :class:`~repro.errors.ExecutionError` (anything else is
    a crash the serving ladder classifies), while the voting drivers
    historically swallowed every exception when pruning a branch — they
    pass ``catch=(Exception,)``.

    ``deadline`` (absolute, on ``clock``'s timeline) enforces a request
    timeout at the effect seam itself: every model boundary crossing —
    single call or batched tick — checks it before the round-trip (cheap
    refusal) and after it returns (catches one slow call), raising
    :class:`~repro.errors.ServingTimeoutError`.  This is the same
    contract as :class:`repro.serving.policy.DeadlineModel`, but it works
    for *any* driver holding the handler — scheduler ticks and async
    chains included — without needing a mutable ``runner.model`` to wrap.
    """

    def __init__(self, model, registry, *,
                 catch: tuple = (ExecutionError,),
                 deadline: float | None = None,
                 clock=time.monotonic):
        self.model = model
        self.registry = registry
        self.catch = tuple(catch)
        self.deadline = deadline
        self._clock = clock

    def check_deadline(self, moment: str) -> None:
        """Raise :class:`ServingTimeoutError` once the deadline passed."""
        if self.deadline is not None and self._clock() >= self.deadline:
            raise ServingTimeoutError(
                f"attempt deadline exceeded ({moment} completion)")

    @staticmethod
    def _charge_tokens(call, prompts, completions) -> None:
        """Charge a ``model_call`` span (``None`` when telemetry is off).

        ``calls`` counts the logical completion requests, so a batched
        tick's cost summary stays comparable with the sequential path.
        """
        if call is not None:
            call.add_tokens(
                prompt=sum(estimate_tokens(prompt) for prompt in prompts),
                completion=sum(estimate_tokens(c.text) for c in completions),
                calls=len(prompts))

    # --- executor boundary ----------------------------------------------------

    def execute(self, effect: Execute) -> ExecResult:
        """Perform one :class:`Execute`; failures become data, not raises.

        The executor opens its own stage span (``sql_execute`` /
        ``python_exec``), so no extra wrapper span is paid here.
        """
        try:
            executor = self.registry.get(effect.language)
        except Exception as exc:
            return ExecResult(error=exc, missing_executor=True)
        try:
            outcome = executor.execute(effect.code, list(effect.tables))
        except self.catch as exc:
            return ExecResult(error=exc)
        return ExecResult(outcome=outcome)


class EffectHandler(EffectSeam):
    """Performs effects against a synchronous model and a registry."""

    def model_call(self, effect: ModelCall) -> ModelResult:
        """Perform one :class:`ModelCall` inside a ``model_call`` span."""
        self.check_deadline("before")
        with span("model_call") as call:
            completions = self.model.complete(
                effect.prompt, temperature=effect.temperature, n=effect.n)
            self._charge_tokens(call, (effect.prompt,), completions)
        self.check_deadline("after")
        return ModelResult(tuple(completions))

    def model_batch(self,
                    requests: list[CompletionRequest]
                    ) -> list[list[Completion]]:
        """Perform a coalesced batch of prompts in one span."""
        self.check_deadline("before")
        with span("model_call", batched=len(requests)) as call:
            batches = self.model.complete_batch(requests)
            self._charge_tokens(call, [r.prompt for r in requests],
                                [c for batch in batches for c in batch])
        self.check_deadline("after")
        return batches


def _flush_notes(engine: ChainEngine, tracer) -> None:
    notes = engine.drain_notes()
    if tracer is None:
        return
    for kind, iteration, data in notes:
        if kind == "end":
            tracer.end_chain(iteration, **data)
        else:
            tracer.emit(kind, iteration, **data)


def run_chain(engine: ChainEngine, handler: EffectHandler, *,
              tracer=None) -> AgentResult:
    """The trivial sync driver: ``ReActTableAgent``'s chain semantics.

    Opens one ``iteration`` span per pass (prompt assembly happens
    inside it, exactly as the legacy loop did) and forwards the engine's
    buffered trace notes to ``tracer`` at each boundary, preserving the
    original event stream.
    """
    while engine.state != "done":
        with span("iteration", index=engine.next_iteration):
            effect = engine.next_effect()
            _flush_notes(engine, tracer)           # "prompt"
            engine.send(handler.model_call(effect))
            _flush_notes(engine, tracer)           # "action" / faults / "end"
            if engine.state == "exec":
                engine.send(handler.execute(engine.next_effect()))
                _flush_notes(engine, tracer)       # "execution" / "recovery"
    return engine.result


def drive(engine, handler: EffectHandler) -> AgentResult:
    """Minimal effect pump for engines without per-iteration spans.

    Used by drivers whose telemetry shape differs from the agent loop
    (the CoT baseline's single completion, tests).  Model calls still go
    through the handler's ``model_call`` spans.
    """
    while engine.state != "done":
        effect = engine.next_effect()
        if isinstance(effect, ModelCall):
            engine.send(handler.model_call(effect))
        else:
            engine.send(handler.execute(effect))
        engine.drain_notes()
    return engine.result
