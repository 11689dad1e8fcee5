"""Traced runs: spans around each layer's public calls, recorded from outside.

No file of the program is changed: for the traced pass only, a
:class:`Recorder` wraps the public entry points of each layer (see
:func:`instrument` and :func:`trace_runner`), keeps every
span in memory while the workload runs, and writes them out as JSONL when
the run ends.  A span's *self time* is its duration minus the time its
child spans cover; children are found through a context variable, so the
nesting is per thread (worker pool) and per asyncio task (async server).
"""

from __future__ import annotations

import contextvars
import json
import time
from contextlib import contextmanager
from pathlib import Path

import repro.llm.simulated as simulated
from repro.aio import AsyncServer
from repro.core.prompt import PromptBuilder
from repro.executors import ExecutorRegistry
from repro.serving import WorkerPool

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)


class Span:
    __slots__ = ("name", "start", "end", "children", "parent", "error")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.children = 0.0
        self.error = False
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children


class Recorder:
    """In-memory span store: one list append per span."""

    def __init__(self):
        self.spans: list[Span] = []

    def clear(self) -> None:
        self.spans.clear()

    @contextmanager
    def span(self, name: str):
        parent = _CURRENT.get()
        record = Span(name, parent)
        token = _CURRENT.set(record)
        try:
            yield record
        except BaseException:
            record.error = True
            raise
        finally:
            record.end = time.perf_counter()
            _CURRENT.reset(token)
            if parent is not None:
                parent.children += record.duration
            self.spans.append(record)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a ``name`` span."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def wrap_async(self, name: str, fn):
        async def traced(*args, **kwargs):
            with self.span(name):
                return await fn(*args, **kwargs)
        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """``name -> {count, errors, self}`` over every span."""
        out: dict[str, dict[str, float]] = {}
        for record in self.spans:
            entry = out.setdefault(record.name, {
                "count": 0, "errors": 0, "self": 0.0})
            entry["count"] += 1
            entry["errors"] += record.error
            entry["self"] += record.self_time
        return out

    def save(self, path: Path) -> None:
        index = {id(record): i for i, record in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for i, record in enumerate(self.spans):
                handle.write(json.dumps({
                    "i": i, "name": record.name,
                    "parent": index.get(id(record.parent)),
                    "start": round(record.start, 7),
                    "dur": round(record.duration, 7),
                    "self": round(record.self_time, 7),
                    "error": record.error}) + "\n")


class TracedExecutor:
    """Proxy for one executor of an agent's registry.

    Only registries handed to agents are wrapped, never the executor
    classes: the simulated model's private sqlite registry stays inside
    ``llm`` time.
    """

    def __init__(self, inner, recorder: Recorder):
        self._inner = inner
        self.language = inner.language
        self.execute = recorder.wrap(
            f"executors.{inner.language.lower()}", inner.execute)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def trace_runner(runner, recorder: Recorder):
    """Wrap one built runner: its ``run`` and its registry's executors."""
    runner.registry = ExecutorRegistry(
        TracedExecutor(executor, recorder) for executor in runner.registry)
    runner.run = recorder.wrap("engine.run", runner.run)
    return runner


@contextmanager
def instrument(recorder: Recorder):
    """Patch the class-level entry points for the duration of a pass.

    ``SimulatedTQAModel.complete``, the ``parse_prompt`` the simulator
    calls, ``PromptBuilder.build``, ``WorkerPool.submit_request`` and
    ``AsyncServer.answer``.  Runners and registries are wrapped per
    instance by :func:`trace_runner`.
    """
    patches = [
        (simulated.SimulatedTQAModel, "complete",
         recorder.wrap("llm.complete",
                       simulated.SimulatedTQAModel.complete)),
        (simulated, "parse_prompt",
         recorder.wrap("llm.parse_prompt", simulated.parse_prompt)),
        (PromptBuilder, "build",
         recorder.wrap("prompt.build", PromptBuilder.build)),
        (WorkerPool, "submit_request",
         recorder.wrap("serving.submit", WorkerPool.submit_request)),
        (AsyncServer, "answer",
         recorder.wrap_async("serving.answer", AsyncServer.answer)),
    ]
    saved = [(owner, name, getattr(owner, name))
             for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield recorder
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
