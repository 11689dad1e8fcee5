"""The central registry of every span and event kind the repo emits.

Observability data is only queryable if its vocabulary is closed: a
dashboard (or ``repro trace summary``) that filters on ``model_call``
must be able to trust that no code path invents ``model-call`` or
``llm_call`` on the side.  Every ``Telemetry.span`` kind and every
``ChainTracer`` event kind must be declared here; ``tools/lint_events.py``
greps the source tree for emitted kinds and fails the build on any kind
missing from :data:`KINDS`, so code and documentation cannot drift.
"""

from __future__ import annotations

__all__ = ["SPAN_KINDS", "EVENT_KINDS", "KINDS"]

#: Span kinds — the hierarchical stages of one request, outermost first.
SPAN_KINDS = frozenset({
    # Serving envelope (repro.serving.pool).
    "request",            # one TQA request inside a worker thread
    "attempt",            # one retry-ladder attempt against the spec
    "degraded_attempt",   # the forced-direct-answer degradation rung
    # Reflexion tier (repro.reflect).
    "reflect_run",        # one reflexion cycle: reflect + chain re-run
    "reflection",         # the reflection-generation model call
    # Agent loop (repro.core.agent / repro.core.voting).
    "vote_run",           # one voted run (s-vote/t-vote/e-vote)
    "agent_run",          # one reasoning chain
    "iteration",          # one prompt->model->action->execute pass
    "model_call",         # one LanguageModel.complete call
    # Executors and the native SQL engine.
    "sql_execute",        # one SELECT through either SQL backend
    "sql_parse",          # lexing + parsing one statement
    "sql_plan_rewrite",   # plan-level rewrites applied to one statement
    "python_exec",        # one sandboxed Python execution
})

#: Flat event kinds — the ``ChainTracer`` vocabulary (agent chains, the
#: serving lifecycle, and the chaos harness).
EVENT_KINDS = frozenset({
    # Agent chain events.
    "start",
    "prompt",
    "action",
    "execution",
    "recovery",
    "answer",
    "end",
    "model_fault",
    # Chaos-harness fault injections.
    "fault",
    # Serving lifecycle events (pool workers; ``serving_`` prefixed).
    "serving_enqueue",
    "serving_dispatch",
    "serving_cache_hit",
    "serving_cache_miss",
    "serving_coalesce",
    "serving_timeout",
    "serving_retry",
    "serving_backoff",
    "serving_degraded",
    "serving_error",
    "serving_breaker_reject",
    "serving_breaker_transition",
    "serving_complete",
    # Async serving core events (repro.aio.server) and the deadline-seam
    # alarm shared with the pool.
    "serving_admit",
    "serving_rejected",
    "serving_deadline_unattached",
    # Reflexion rung (repro.serving.policy.ReflectionRung, both ladders).
    "serving_reflect",
})

#: Every legal kind, span or event.
KINDS = SPAN_KINDS | EVENT_KINDS
