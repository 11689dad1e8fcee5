"""The three benchmark workloads, driven through the program's public API.

Each workload is a fixed, seeded question list (never a time budget):
``setup`` generates the questions, builds the system under test and warms
it up on a disjoint seeded question set; ``run`` answers the timed list
once and returns a :class:`Pass` with everything the metrics need.
Parameters come from ``workloads.json`` beside this file.
"""

from __future__ import annotations

import asyncio
import contextvars
import gc
import hashlib
import os
import random
import resource
import signal
import statistics
import threading
import time
from dataclasses import dataclass, field

from layers import Recorder, trace_runner

from repro.aio import AsyncLanguageModel, AsyncServer
from repro.datasets import generate_dataset
from repro.evalkit import evaluate_answer
from repro.llm.recording import CallCounter
from repro.perf.encode_cache import DEFAULT_ENCODE_CACHE
from repro.serving import (
    AgentSpec,
    AnswerCache,
    BreakerConfig,
    RetryPolicy,
    ServeDaemon,
    ServingMetrics,
    TQARequest,
    WorkerPool,
)
from repro.sqlengine.plancache import DEFAULT_PLAN_CACHE, DEFAULT_REWRITE_CACHE
from repro.telemetry import GLOBAL_REGISTRY, SLOConfig, SLOTracker, TailSampler
from repro.tracing import ChainTracer

#: Outcomes that count as a served answer (``coalesced`` is a flag).
SUCCESS_OUTCOMES = ("ok", "cached")
#: Per-request accumulator of awaited model time, set by the open loop's
#: client task and inherited by every task the server starts for it.
AWAITED: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_awaited", default=None)
#: Warm-up questions come from this seed offset: a different generator
#: stream, and the shared question bank drops any repeat of a timed one.
WARMUP_SEED_OFFSET = 1_000_000_007


@dataclass
class Question:
    uid: str
    dataset: str
    table: object
    question: str
    gold: list
    seed: int


@dataclass
class Answer:
    uid: str
    dataset: str
    answer: list
    gold: list
    success: bool
    latency: float
    outcome: str = "ok"
    iterations: int = 0
    forced: bool = False
    attempts: int = 0
    #: The server's own dispatch-to-completion time (serving workloads).
    service: float = 0.0
    #: Nominal model latency this request awaited (open loop).
    awaited: float = 0.0


@dataclass
class Round:
    """A slice of the timed list answered back to back."""

    start: int
    count: int
    wall: float
    cpu: float
    #: Median duration of the speed probe while the round ran.
    probe: float = 0.0


#: The probe's fixed input: 2000 short distinct strings.
PROBE_WORDS = [f"w{i}x{i * 7 % 13}" for i in range(2000)]


def probe() -> float:
    """Time a fixed pure-Python task: the host's speed right now.

    On a shared host the CPU speed moves by up to ~1.8x in phases that
    last from under a second to minutes.  Sampling this task among the
    measured work gives that work's slowdown without looking at the
    program's own timings.  The task (build a dict of strings, sort it,
    join and split) allocates and hashes like the program does, which
    tracked the program's speed better than an integer loop.  The
    collector is paused so a collection owed by the program is not
    charged to the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        ranks = {word: i for i, word in enumerate(PROBE_WORDS)}
        "|".join(sorted(ranks, key=ranks.get, reverse=True)).split("|")
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """While armed, samples the probe from a timer signal every ``interval``.

    The handler runs in the main thread between bytecodes, so samples are
    spread through whatever the process is doing: set-up, a client loop,
    the event loop, or waiting on worker threads.  A sample costs ~0.5 ms
    of the main thread every ``interval`` seconds.
    """

    def __init__(self, interval: float = 0.03):
        self.interval = interval
        self.samples: list[float] = []
        #: ``(taken at, duration)`` of every sample, for :meth:`between`.
        self.timeline: list[tuple[float, float]] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        duration = probe()
        self.samples.append(duration)
        self.timeline.append((time.perf_counter(), duration))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def take(self) -> float:
        """Median of the samples since the last ``take``."""
        samples, self.samples = self.samples, []
        return statistics.median(samples or [probe()])

    def between(self, start: float, end: float) -> float:
        """Median of the samples taken in ``[start, end)``."""
        return statistics.median(
            [d for t, d in self.timeline if start <= t < end]
            or [d for _, d in self.timeline] or [probe()])


class Workload:
    """Shared set-up pieces: parameters, seeded questions, direct runs."""

    def __init__(self, params: dict, seed: int, seconds: int,
                 recorder: Recorder | None = None):
        self.params = params
        self.seed = seed
        self.seconds = seconds
        self.recorder = recorder

    def generate(self, count: int) -> list[Question]:
        """``count`` timed questions, then the warm-up set, in one bank.

        Sets ``questions``, ``bank`` and ``generate_s``; returns the
        warm-up questions.
        """
        started = time.perf_counter()
        p = self.params
        self.questions, self.bank = generate_questions(
            p["datasets"], count, self.seed)
        warmup, _ = generate_questions(
            p["datasets"], p["warmup_questions"],
            self.seed + WARMUP_SEED_OFFSET, self.bank)
        self.generate_s = time.perf_counter() - started
        return warmup

    def agent_spec(self) -> AgentSpec:
        """The workload's configuration of the program's ``AgentSpec``."""
        return AgentSpec(bank=self.bank, **{
            key: self.params[key]
            for key in ("voting", "samples", "temperature", "sql_backend")
            if key in self.params})

    def reference(self, sample: list[Question]) -> list[list]:
        """Answers of a direct ``AgentSpec.build(seed).run`` per question."""
        spec = self.agent_spec()
        return [list(spec.build(q.seed).run(q.table, q.question).answer)
                for q in sample]

    def layer(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class ClosedLoop(Workload):
    """Answer the timed list in rounds, sampling the probe as they run."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rounds = max(
            self.params["min_rounds"],
            round(self.seconds * self.params["rounds_per_second"]))

    def run(self) -> Pass:
        before = snapshot_counts()
        answers, rounds = [], []
        size = self.params["round_questions"]
        with SpeedProbe() as speed:
            for start in range(0, len(self.questions), size):
                batch = self.questions[start:start + size]
                speed.take()
                cpu = time.process_time()
                wall = time.perf_counter()
                self.answer_round(batch, answers)
                wall = time.perf_counter() - wall
                cpu = time.process_time() - cpu
                rounds.append(Round(start, len(batch), wall, cpu,
                                    speed.take()))
        layer = self.layer()
        layer["counts"] = count_deltas(before, snapshot_counts())
        return Pass(answers, rounds, list(self.spec.counters), layer)


@dataclass
class Pass:
    """One timed pass over a workload's question list."""

    answers: list[Answer]
    #: Consecutive slices of ``answers`` (per second of due times for the
    #: open loop).
    rounds: list[Round]
    counters: list[CallCounter]
    layer: dict = field(default_factory=dict)

    @property
    def cpu(self) -> float:
        return sum(r.cpu for r in self.rounds)

    @property
    def attempted(self) -> int:
        return len(self.answers)

    @property
    def failed(self) -> int:
        return sum(not a.success for a in self.answers)

    @property
    def accuracy(self) -> float:
        return sum(evaluate_answer(a.dataset, a.answer, a.gold)
                   for a in self.answers) / len(self.answers)

    @property
    def digest(self) -> str:
        text = "\n".join(f"{a.uid}\t{'|'.join(a.answer)}"
                         for a in self.answers)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    @property
    def model_calls(self) -> int:
        return sum(c.calls for c in self.counters)

    @property
    def tokens(self) -> int:
        return sum(c.total_tokens for c in self.counters)


def clear_process_caches() -> None:
    """Empty the program's process-wide caches so set-up is fixed work."""
    DEFAULT_ENCODE_CACHE.clear()
    DEFAULT_PLAN_CACHE.clear()
    DEFAULT_REWRITE_CACHE.clear()


def generate_questions(datasets: list[str], count: int, seed: int,
                       bank=None) -> tuple[list[Question], object]:
    """``count`` questions split evenly over ``datasets``, interleaved."""
    per = -(-count // len(datasets))
    lists = []
    for name in datasets:
        bench = generate_dataset(name, size=per, seed=seed, bank=bank)
        bank = bench.bank
        lists.append(bench.examples)
    questions = []
    for group in zip(*lists):
        for example in group:
            questions.append(Question(
                uid=example.uid, dataset=example.dataset,
                table=example.table, question=example.question,
                gold=list(example.gold_answer),
                seed=seed * 100_003 + len(questions)))
    return questions, bank


class Spec:
    """``AgentSpec`` plus the benchmark's probes on every built runner.

    Each runner's model is wrapped in the program's ``CallCounter`` (the
    paper's cost axis, counted at the model boundary); ``model_factory``
    may put a simulated remote latency in front of it; a recorder wraps
    the runner and its executors for traced runs.
    """

    def __init__(self, inner: AgentSpec, recorder: Recorder | None = None,
                 model_factory=None):
        self.inner = inner
        self.recorder = recorder
        self.model_factory = model_factory
        self.counters: list[CallCounter] = []
        self.config_key = inner.config_key
        self.profile = inner.profile

    def _instrument(self, runner, seed: int, *, remote: bool):
        counter = CallCounter(runner.model)
        self.counters.append(counter)
        runner.model = (self.model_factory(counter, seed)
                        if remote and self.model_factory else counter)
        if self.recorder is not None:
            trace_runner(runner, self.recorder)
        return runner

    def build(self, seed: int):
        return self._instrument(self.inner.build(seed), seed, remote=True)

    def build_forced(self, seed: int):
        return self._instrument(self.inner.build_forced(seed), seed,
                                remote=False)


class RemoteModel(AsyncLanguageModel):
    """A model behind a network: each round-trip awaits its latency.

    A round-trip costs ``call_s`` on average plus ``item_s`` per sampled
    completion (the ``benchmarks/bench_async_serving.py`` figures), drawn
    uniformly from half to one and a half times that by a generator seeded
    per request.  A fixed latency would make request latency a step
    function of the model-call count, and the p99 falls on the step
    between 3- and 4-call chains (~1% of requests), where it flipped by
    ~20% from one seed to the next.
    """

    def __init__(self, inner, call_s: float, item_s: float, stats: dict,
                 recorder: Recorder | None, seed: int):
        self.inner = inner
        self.call_s = call_s
        self.item_s = item_s
        self.stats = stats
        self.recorder = recorder
        self.rng = random.Random(f"latency:{seed}")

    @property
    def name(self):
        return self.inner.name

    @property
    def supports_logprobs(self):
        return self.inner.supports_logprobs

    async def _wait(self, requests: int, completions: int) -> None:
        nominal = ((self.call_s + completions * self.item_s)
                   * self.rng.uniform(0.5, 1.5))
        started = time.perf_counter()
        if self.recorder is not None:
            with self.recorder.span("aio.await"):
                await asyncio.sleep(nominal)
        else:
            await asyncio.sleep(nominal)
        box = AWAITED.get()
        if box is not None:
            box[0] += nominal
        self.stats["round_trips"] += 1
        self.stats["requests"] += requests
        self.stats["await_s"] += time.perf_counter() - started

    async def complete(self, prompt, *, temperature=0.0, n=1):
        await self._wait(1, n)
        return self.inner.complete(prompt, temperature=temperature, n=n)

    async def complete_batch(self, requests):
        requests = list(requests)
        await self._wait(len(requests), sum(r.n for r in requests))
        return self.inner.complete_batch(requests)


def _cache_stats(cache) -> tuple[int, int]:
    stats = cache.stats()
    return stats["hits"], stats["misses"]


def _tier_counts() -> tuple[float, float, float]:
    dispatch = GLOBAL_REGISTRY.counter("sql.tier_dispatch").values()
    vector = sum(v for key, v in dispatch.items()
                 if dict(key).get("tier") == "vector")
    fallback = GLOBAL_REGISTRY.counter("sql.tier_fallback").total()
    return vector, sum(dispatch.values()), fallback


def snapshot_counts() -> dict:
    """Process-wide program counters, read before and after a pass."""
    return {"encode": _cache_stats(DEFAULT_ENCODE_CACHE),
            "plan": _cache_stats(DEFAULT_PLAN_CACHE),
            "tiers": _tier_counts()}


def count_deltas(before: dict, after: dict) -> dict:
    return {key: tuple(a - b for a, b in zip(after[key], before[key]))
            for key in before}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- seq_greedy --------------------------------------------------------------


class SeqGreedy(ClosedLoop):
    """One client, no serving layer: ``AgentSpec.build(seed).run`` in turn."""

    def setup(self) -> float:
        warmup = self.generate(self.params["round_questions"] * self.rounds)
        self.spec = Spec(self.agent_spec(), self.recorder)
        for q in warmup:
            self.spec.build(q.seed).run(q.table, q.question)
        self.spec.counters.clear()
        return self.generate_s

    def answer_round(self, batch: list[Question], answers: list) -> None:
        for q in batch:
            t0 = time.perf_counter()
            try:
                result = self.spec.build(q.seed).run(q.table, q.question)
            except Exception as exc:  # counted as a failed question
                print(f"# {q.uid} failed: {type(exc).__name__}: {exc}")
                answers.append(Answer(q.uid, q.dataset, [], q.gold, False,
                                      time.perf_counter() - t0, "error"))
                continue
            answers.append(Answer(
                q.uid, q.dataset, list(result.answer), q.gold, True,
                time.perf_counter() - t0, "ok", result.iterations,
                bool(result.forced), 1))


# --- pool_evote -----------------------------------------------------------------


class _Done:
    """``PendingResponse`` listener stamping the completion time.

    Listeners are resolved just after the slot itself, so readers wait on
    ``event`` before reading ``at``.
    """

    __slots__ = ("at", "event")

    def __init__(self):
        self.at = 0.0
        self.event = threading.Event()

    def set(self, response) -> None:
        self.at = time.perf_counter()
        self.event.set()


class PoolEvote(ClosedLoop):
    """Offline batches through ``WorkerPool``: e-vote on the native engine."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pool = None
        self.waits: list[float] = []

    def setup(self) -> float:
        p = self.params
        warmup = self.generate(p["round_questions"] * self.rounds)
        self.spec = Spec(self.agent_spec(), self.recorder)
        self.pool = WorkerPool(self.spec, workers=os.cpu_count() or 1,
                               queue_capacity=p["round_questions"] + 1)
        self.pool.start()
        slots = [self.pool.submit_request(TQARequest(
            table=q.table, question=q.question, seed=q.seed, uid=q.uid))
            for q in warmup]
        for slot in slots:
            slot.result(timeout=120)
        self.spec.counters.clear()
        self.warm_snapshot = self.pool.metrics.snapshot()
        return self.generate_s

    def answer_round(self, batch: list[Question], answers: list) -> None:
        pending = []
        for q in batch:
            submitted = time.perf_counter()
            slot = self.pool.submit_request(TQARequest(
                table=q.table, question=q.question, seed=q.seed, uid=q.uid))
            done = _Done()
            slot.add_listener(done, q.uid)
            pending.append((q, slot, done, submitted))
        for q, slot, done, submitted in pending:
            response = slot.result(timeout=120)
            done.event.wait(timeout=120)
            ok = response.outcome in SUCCESS_OUTCOMES or response.coalesced
            answers.append(Answer(
                q.uid, q.dataset, list(response.answer), q.gold, ok,
                response.latency, response.outcome, response.iterations,
                response.forced, response.attempts, response.latency))
            self.waits.append(done.at - submitted - response.latency)

    def layer(self) -> dict:
        return {"queue_waits": self.waits,
                "serving": self.pool.metrics.snapshot(),
                "serving_before": self.warm_snapshot}

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None


# --- serve_open ------------------------------------------------------------------


class ServeOpen(Workload):
    """Seeded Poisson arrivals into an ``AsyncServer`` with serve defaults."""

    def _schedule(self, questions: list[Question]) -> list:
        """``(due offset s, request, question)`` for every request.

        Arrivals are a Poisson process conditioned on its count: sorted
        uniform times over the run, so every seed offers the same rate.
        Tenants take turns; every ``1 / repeat_share``-th request repeats
        one of the last ``repeat_window`` fresh (question, seed) pairs.
        """
        p = self.params
        rng = random.Random(f"arrivals:{self.seed}")
        dues = sorted(rng.uniform(0, self.seconds)
                      for _ in range(self.requests))
        every = round(1 / p["repeat_share"])
        fresh = iter(questions)
        recent: list[Question] = []
        schedule = []
        for i, due in enumerate(dues):
            if i % every == every - 1:
                q = rng.choice(recent)
            else:
                q = next(fresh)
                recent = (recent + [q])[-p["repeat_window"]:]
            schedule.append((due, TQARequest(
                table=q.table, question=q.question, seed=q.seed,
                uid=f"{q.uid}#{i}",
                tenant=p["tenants"][i % len(p["tenants"])]), q))
        return schedule

    def _server(self) -> tuple[AsyncServer, dict]:
        p = self.params
        stats = {"round_trips": 0, "requests": 0, "await_s": 0.0}
        spec = Spec(
            self.agent_spec(), self.recorder,
            lambda counter, seed: RemoteModel(
                counter, p["model_call_s"], p["model_item_s"], stats,
                self.recorder, seed))
        server = AsyncServer(
            spec, max_inflight=p["max_inflight"], max_queued=p["max_queued"],
            cache=AnswerCache(p["cache_size"]),
            policy=RetryPolicy(timeout=None, max_retries=p["retries"]),
            metrics=ServingMetrics(), tracer=ChainTracer(),
            breakers=BreakerConfig(failure_threshold=p["breaker_threshold"]))
        # The daemon's observers (SLO tracker, tail sampler) watch every
        # completion; its HTTP listener is never started.
        ServeDaemon(server, slo=SLOTracker(SLOConfig()),
                    sampler=TailSampler(ok_rate=0.1, capacity=256,
                                        seed=self.seed))
        return server, stats

    def setup(self) -> float:
        p = self.params
        self.requests = round(p["rate_per_s"] * self.seconds)
        warmup = self.generate(
            self.requests - self.requests // round(1 / p["repeat_share"]))
        self.schedule = self._schedule(self.questions)
        self.server, self.stats = self._server()
        asyncio.run(self._warm(warmup))
        self.server.spec.counters.clear()
        for key in self.stats:
            self.stats[key] = type(self.stats[key])(0)
        self.warm_snapshot = self.server.metrics.snapshot()
        self.warm_spans = len(self.server.telemetry.spans)
        return self.generate_s

    async def _warm(self, warmup: list[Question]) -> None:
        await asyncio.gather(*(self.server.answer(TQARequest(
            table=q.table, question=q.question, seed=q.seed, uid=q.uid,
            tenant=self.params["tenants"][i % len(self.params["tenants"])]))
            for i, q in enumerate(warmup)))

    async def _drive(self):
        async def one(request, due):
            box = [0.0]
            AWAITED.set(box)
            response = await self.server.answer(request)
            return response, time.perf_counter() - due, box[0]

        late, tasks = [], []
        start = time.perf_counter()
        for offset, request, _ in self.schedule:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(max(0.0, time.perf_counter() - due))
            tasks.append(asyncio.create_task(one(request, due)))
        results = await asyncio.gather(*tasks)
        return results, late, start, time.perf_counter() - start

    def run(self) -> Pass:
        before = snapshot_counts()
        with SpeedProbe() as speed:
            cpu = time.process_time()
            results, late, start, wall = asyncio.run(self._drive())
            cpu = time.process_time() - cpu
        answers = []
        for (response, latency, awaited), (_, request, q) in zip(
                results, self.schedule):
            ok = response.outcome in SUCCESS_OUTCOMES or response.coalesced
            answers.append(Answer(
                request.uid, q.dataset, list(response.answer), q.gold, ok,
                latency, response.outcome, response.iterations,
                response.forced, response.attempts, response.latency,
                awaited))
        # Due-to-dispatch wait of every request that was dispatched
        # (rejected ones never were; coalesced replicas waited on a peer).
        waits = [a.latency - a.service for (response, _, _), a
                 in zip(results, answers)
                 if a.outcome != "rejected" and not response.coalesced]
        layer = {"counts": count_deltas(before, snapshot_counts()),
                 "queue_waits": waits,
                 "late": late, "aio": dict(self.stats),
                 "serving": self.server.metrics.snapshot(),
                 "serving_before": self.warm_snapshot,
                 "spans": len(self.server.telemetry.spans) - self.warm_spans}
        return Pass(answers, self._windows(start, wall, cpu, speed),
                    list(self.server.spec.counters), layer)

    def _windows(self, start: float, wall: float, cpu: float,
                 speed: SpeedProbe) -> list[Round]:
        """One round per second of due times, each with its own probe.

        The host's speed changes within a run; scaling each request by
        the probe near it, not by the run's median, follows that.  Wall
        and CPU time are shared out by request count.
        """
        n = len(self.schedule)
        seconds = [int(due) for due, _, _ in self.schedule]
        rounds, first = [], 0
        for i in range(1, n + 1):
            if i == n or seconds[i] != seconds[first]:
                count = i - first
                rounds.append(Round(
                    first, count, wall * count / n, cpu * count / n,
                    speed.between(start + seconds[first],
                                  start + seconds[first] + 1)))
                first = i
        return rounds

WORKLOADS = {"seq_greedy": SeqGreedy, "pool_evote": PoolEvote,
             "serve_open": ServeOpen}
