"""Tier-1 wiring for the event-loop lint (``tools/lint_async.py``).

One blocking call inside ``src/repro/aio/`` stalls every request on the
loop, and nothing in the functional test suite would notice (a 4 ms
``time.sleep`` passes every assertion).  This wires the lint into the
tier-1 run so a blocking primitive in the async core fails CI.
"""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "lint_async.py"


def load_lint():
    spec = importlib.util.spec_from_file_location("lint_async", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_async_core_has_no_blocking_calls():
    lint = load_lint()
    assert lint.find_violations() == []


def test_lint_detects_time_sleep(tmp_path):
    lint = load_lint()
    rogue = tmp_path / "rogue.py"
    rogue.write_text("async def backoff(d):\n    time.sleep(d)\n")
    violations = lint.scan_file(rogue)
    assert len(violations) == 1
    assert "rogue.py:2" in violations[0]
    assert "asyncio.sleep" in violations[0]


def test_lint_scans_the_serving_ladder(tmp_path, monkeypatch):
    """The async server resumes the shared ladder on the loop thread, so
    a blocking call in ``serving/ladder.py`` is a loop violation too."""
    lint = load_lint()
    assert lint.LADDER.is_file()
    rogue = tmp_path / "ladder.py"
    rogue.write_text(
        "def answer(self, delay):\n"
        "    time.sleep(delay)\n"
        "    yield None\n")
    monkeypatch.setattr(lint, "LADDER", rogue)
    violations = lint.find_violations()
    assert len(violations) == 1
    assert "ladder.py:2" in violations[0]


def test_lint_detects_sync_model_calls(tmp_path):
    lint = load_lint()
    rogue = tmp_path / "rogue.py"
    rogue.write_text(
        "async def tick(model, reqs):\n"
        "    return model.complete_batch(reqs)\n")
    violations = lint.scan_file(rogue)
    assert len(violations) == 1
    assert "synchronous model completion" in violations[0]


def test_lint_allows_awaited_model_calls(tmp_path):
    lint = load_lint()
    clean = tmp_path / "clean.py"
    clean.write_text(
        "async def tick(model, reqs):\n"
        "    return await model.complete_batch(reqs)\n")
    assert lint.scan_file(clean) == []


def test_lint_detects_threading_primitives(tmp_path):
    lint = load_lint()
    rogue = tmp_path / "rogue.py"
    rogue.write_text("lock = threading.Lock()\n")
    violations = lint.scan_file(rogue)
    assert len(violations) == 1


def test_suppression_comment_and_comments_are_ignored(tmp_path):
    lint = load_lint()
    clean = tmp_path / "clean.py"
    clean.write_text(
        "# time.sleep(1) in a comment\n"
        "time.sleep(0)  # lint: allow-blocking\n")
    assert lint.scan_file(clean) == []


def test_bridge_file_may_call_sync_models(tmp_path):
    """adapter.py is the sync bridge: its inline ``inner.complete`` calls
    are the point, not a violation."""
    lint = load_lint()
    bridge = tmp_path / "adapter.py"
    bridge.write_text(
        "def _call(inner, prompt):\n"
        "    return inner.complete(prompt)\n")
    assert lint.scan_file(bridge) == []


def test_lint_runs_standalone():
    import subprocess

    result = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True,
        env={"PYTHONPATH": str(TOOL.parent.parent / "src"),
             "PATH": "/usr/bin:/bin"})
    assert result.returncode == 0, result.stderr
    assert "no blocking calls" in result.stdout
