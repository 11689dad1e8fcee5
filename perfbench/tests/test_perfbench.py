"""Checks on the benchmark itself: seeded determinism, output parity, exits.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Workloads run here on small question lists (the parameters are shrunk,
the code path is the benchmark's own).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from layers import Recorder, instrument  # noqa: E402
from workloads import WORKLOADS, AgentSpec  # noqa: E402

CONFIG = json.loads((HERE / "workloads.json").read_text())
SMALL = {
    "seq_greedy": {"round_questions": 20, "min_rounds": 2,
                   "rounds_per_second": 0, "warmup_questions": 6},
    "pool_evote": {"round_questions": 20, "min_rounds": 2,
                   "rounds_per_second": 0, "warmup_questions": 6},
    "serve_open": {"warmup_questions": 8},
}
#: serve_open answers rate x seconds requests: 50 at the default rate.
SECONDS = 1


def small_pass(name: str, seed: int, recorder=None):
    params = dict(CONFIG["workloads"][name], **SMALL[name])
    return run.run_pass(WORKLOADS[name], params, seed, SECONDS, 1, recorder)


def fingerprint(result) -> tuple:
    return (result.accuracy, result.model_calls, result.tokens,
            result.digest)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_results_and_reaches_generator(name):
    _, first, _, _ = small_pass(name, 3)
    _, again, _, _ = small_pass(name, 3)
    _, other, _, _ = small_pass(name, 4)
    assert fingerprint(first) == fingerprint(again)
    assert first.digest != other.digest
    assert fingerprint(first) != fingerprint(other)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_served_answers_match_direct_runs(name):
    workload, result, _, _ = small_pass(name, 5)
    assert result.failed == 0
    assert run.check_outputs(workload, result, CONFIG) == []


def test_serve_open_answers_equal_direct_agent_runs():
    workload, result, _, _ = small_pass("serve_open", 6)
    spec = AgentSpec(bank=workload.bank, sql_backend="sqlite")
    requests = {request.uid: q for _, request, q in workload.schedule}
    served = [a for a in result.answers if a.outcome != "degraded"]
    assert len(served) == len(result.answers)
    for answer in served[::5]:
        q = requests[answer.uid]
        direct = spec.build(q.seed).run(q.table, q.question)
        assert answer.answer == list(direct.answer), answer.uid


def test_traced_run_reports_layer_counts_where_layers_work():
    metrics = {}
    for name in sorted(WORKLOADS):
        _, untraced, _, _ = small_pass(name, 7)
        recorder = Recorder()
        with instrument(recorder):
            _, result, _, generates = small_pass(name, 7, recorder)
        metrics[name] = run.per_layer(result, untraced, recorder, generates,
                                      CONFIG["probe_reference_s"])
        # Tracing changes nothing the program answers.
        assert result.digest == untraced.digest
    for name, values in metrics.items():
        native = name == "pool_evote"
        assert (values["sqlengine.vector_share"][0] > 0) == native
        assert (values["sqlengine.plan_cache_hit_share"][0] > 0) == native
        assert values["llm.complete_ms_per_q"][0] > 0
        assert values["executors.sql_calls_per_q"][0] > 0
    assert metrics["serve_open"]["serving.cache_hit_share"][0] \
        + metrics["serve_open"]["serving.coalesced_share"][0] > 0
    for name in ("seq_greedy", "pool_evote"):
        assert metrics[name]["serving.cache_hit_share"][0] == 0
    assert metrics["serve_open"]["aio.await_ms_per_q"][0] > 0
    assert metrics["serve_open"]["telemetry.spans_per_q"][0] > 0


def test_late_load_generator_invalidates_the_run():
    class Late:
        layer = {"late": [0.0] * 98 + [0.5, 0.5]}

    with pytest.raises(run.InvalidRun):
        run.check_loadgen(Late(), {"late_limit_ms": 50})
    run.check_loadgen(Late(), {"late_limit_ms": 600})


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seq_greedy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
