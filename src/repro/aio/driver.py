"""One coroutine per chain: the async twin of the engine drivers.

:func:`drive_chain` pumps a single sans-IO
:class:`~repro.engine.ChainEngine` to completion, parking its model calls
in a :class:`~repro.aio.batcher.ContinuousBatcher` and performing execute
effects inline (local compute, same within-tick ordering as the sync
drivers).  :class:`AsyncChainDriver` runs a population of engines over
one batcher: give it engines, get results in input order.  It is the one
place that admits a population — the async server drives every chain
attempt through it (an s-vote/ensemble population, or a greedy chain as
a population of one), as do the benchmarks and tests.

Determinism: with a static engine population the event loop wakes the
chain coroutines in creation order, so they park in input order, the
batcher's groups form in the scheduler's collection order, and every tick
is *identical* to the corresponding ``BatchScheduler`` tick — the same
``complete_batch`` call sequence reaches the model, so even sampled
(temperature > 0) chains draw the same stream and produce bit-identical
results (pinned by ``tests/aio/test_driver.py``).  Under a dynamic
population (the server) ticks depend on arrival timing — the thread-pool
determinism contract.
"""

from __future__ import annotations

import asyncio

from repro.aio.batcher import ContinuousBatcher
from repro.aio.handler import AsyncEffectHandler
from repro.engine.core import ChainEngine
from repro.engine.result import AgentResult
from repro.errors import ExecutionError

__all__ = ["drive_chain", "AsyncChainDriver"]


async def drive_chain(engine: ChainEngine, batcher: ContinuousBatcher, *,
                      pre_admitted: bool = False) -> AgentResult:
    """Drive ``engine`` to completion through ``batcher``.

    Model calls go through the batcher so they coalesce with whatever
    else is in flight; the batcher's handler performs the synchronous
    execute effects.  The engine's trace notes are drained (serving
    runners carry no tracer).  Exactly one :meth:`retire` happens on
    every exit path (completion, cancellation, failing tick).

    ``pre_admitted`` means the caller already called :meth:`admit` for
    this engine.  A coroutine only runs when the loop first schedules
    it, so a caller launching *several* chains at once must admit them
    all **before** the first one starts — otherwise the first chain to
    run parks alone, sees itself as the whole population, and flushes a
    premature one-member tick (:class:`AsyncChainDriver` does this
    bookkeeping; standalone callers can leave the default and self-admit).
    """
    handler = batcher.handler
    if not pre_admitted:
        batcher.admit()
    try:
        while engine.state != "done":
            result = await batcher.call(engine.next_effect())
            engine.send(result)
            while engine.state == "exec":
                engine.send(handler.execute(engine.next_effect()))
            engine.drain_notes()
    finally:
        batcher.retire()
    return engine.result


class AsyncChainDriver:
    """Run many engines as coroutines over one shared batcher.

    The constructor mirrors :class:`~repro.engine.BatchScheduler`
    (``model`` + ``registry``, or a prebuilt ``handler`` — the server
    passes one carrying the attempt's deadline and exception envelope);
    :meth:`run` awaits all engines, :meth:`run_sync` wraps it in
    ``asyncio.run`` for synchronous callers (benchmarks, tests).
    """

    def __init__(self, model=None, registry=None, *,
                 handler: AsyncEffectHandler | None = None,
                 catch: tuple = (ExecutionError,)):
        if handler is None:
            if model is None or registry is None:
                raise ValueError(
                    "AsyncChainDriver needs model+registry or a handler")
            handler = AsyncEffectHandler(model, registry, catch=catch)
        self.handler = handler
        self.batcher = ContinuousBatcher(handler)

    @property
    def ticks(self) -> int:
        return self.batcher.ticks

    @property
    def requests(self) -> int:
        return self.batcher.requests

    async def run(self, engines) -> list[AgentResult]:
        """Drive every engine to completion; results in input order."""
        engines = list(engines)
        # Admit the whole population before any chain runs, so the first
        # tick waits for everyone — the lock-step-equivalence guarantee.
        for _ in engines:
            self.batcher.admit()
        chains = [drive_chain(engine, self.batcher, pre_admitted=True)
                  for engine in engines]
        if len(chains) == 1:
            # A population of one runs in the caller's task: no task hop.
            return [await chains[0]]
        return await asyncio.gather(*chains)

    def run_sync(self, engines) -> list[AgentResult]:
        """:meth:`run` on a private event loop, for sync callers."""
        return asyncio.run(self.run(list(engines)))
