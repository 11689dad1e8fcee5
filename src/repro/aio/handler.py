"""The awaitable effect handler: async model boundary, sync executors.

:class:`AsyncEffectHandler` is :class:`repro.engine.driver.EffectSeam`
with an awaitable model boundary.  The deadline check, the executor error
envelope and the ``model_call`` token attribution are the seam's own, so
the sync and async paths cannot drift apart; this module adds only the
model coercion and an awaited :meth:`~AsyncEffectHandler.model_batch`
(the :class:`~repro.aio.batcher.ContinuousBatcher`'s one model call).
Executor effects stay synchronous: the SQL/Python sandboxes are local
compute measured in microseconds, and running them inline preserves the
sync drivers' step ordering exactly.

Span correctness under interleaving: ``span()`` reads the ambient
contextvars stack, and each asyncio task carries its own context copy, so
a ``model_call`` span opened here nests under *this request's* attempt
span even while hundreds of other requests' coroutines interleave on the
same loop (pinned by ``tests/aio/test_telemetry_interleave.py``).

With :mod:`repro.aio.adapter`, this module is an allowed home for direct
``complete``/``complete_batch`` calls, and for nothing else
(``tools/lint_effects.py``).
"""

from __future__ import annotations

from repro.aio.adapter import AsyncLanguageModel, ensure_async_model
from repro.engine.driver import EffectSeam
from repro.llm.base import Completion, CompletionRequest
from repro.telemetry.spans import span

__all__ = ["AsyncEffectHandler"]


class AsyncEffectHandler(EffectSeam):
    """Performs engine effects on the event loop.

    ``model`` may be a sync :class:`~repro.llm.base.LanguageModel`
    (wrapped via :class:`~repro.aio.adapter.SyncModelAdapter`) or an
    :class:`~repro.aio.adapter.AsyncLanguageModel` directly.  ``catch``,
    ``deadline`` and ``clock`` are :class:`EffectSeam`'s.
    """

    model: AsyncLanguageModel

    def __init__(self, model, registry, **seam):
        super().__init__(ensure_async_model(model), registry, **seam)

    async def model_batch(self,
                          requests: list[CompletionRequest]
                          ) -> list[list[Completion]]:
        """Perform a coalesced batch of prompts in one span."""
        self.check_deadline("before")
        with span("model_call", batched=len(requests)) as call:
            batches = await self.model.complete_batch(requests)
            self._charge_tokens(call, [r.prompt for r in requests],
                                [c for batch in batches for c in batch])
        self.check_deadline("after")
        return batches
