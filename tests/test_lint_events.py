"""Tier-1 wiring for the event-vocabulary lint (``tools/lint_events.py``).

Every span/event kind emitted anywhere under ``src/repro`` must be
declared in :mod:`repro.telemetry.kinds` — the trace analyzer, the docs,
and any dashboard filter on these strings, so an undeclared kind is data
that silently falls out of every query.
"""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "lint_events.py"


def load_lint():
    spec = importlib.util.spec_from_file_location("lint_events", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_vocabulary_has_no_violations():
    lint = load_lint()
    assert lint.find_violations() == []


def test_lint_detects_an_undeclared_kind(tmp_path, monkeypatch):
    lint = load_lint()
    fake_src = tmp_path / "src" / "repro"
    fake_src.mkdir(parents=True)
    (fake_src / "rogue.py").write_text(
        'def f(tracer):\n'
        '    tracer.emit("totally_new_kind", 1)\n'
        '    with span("made_up_stage"):\n'
        '        pass\n'
        '    self._trace(chain, "novel_lifecycle")\n',
        encoding="utf-8")
    monkeypatch.setattr(lint, "SRC", fake_src)
    violations = lint.find_violations()
    assert any("totally_new_kind" in line for line in violations)
    assert any("made_up_stage" in line for line in violations)
    # The pool helper's serving_ prefix is applied before the check.
    assert any("serving_novel_lifecycle" in line for line in violations)


def test_lint_covers_the_reflect_rung_trace_callback(tmp_path, monkeypatch):
    # The ReflectionRung emits through an injected ``trace(...)``
    # callback that both ladders bind to their serving_-prefixing
    # helper; the lint must see those sites too.
    lint = load_lint()
    fake_src = tmp_path / "src" / "repro"
    fake_src.mkdir(parents=True)
    (fake_src / "rogue.py").write_text(
        'def f(trace):\n'
        '    trace("unregistered_rung_event", index=1)\n'
        '    load_trace("not_an_event_kind")\n',
        encoding="utf-8")
    monkeypatch.setattr(lint, "SRC", fake_src)
    violations = lint.find_violations()
    assert any("serving_unregistered_rung_event" in line
               for line in violations)
    # ...without false-positiving on unrelated *_trace( call sites.
    assert not any("not_an_event_kind" in line for line in violations)


def test_lint_covers_the_ladder_trace_helper(tmp_path, monkeypatch):
    # Both serving drivers emit lifecycle events through the shared
    # ServingLadder.trace helper, which adds the serving_ prefix.
    lint = load_lint()
    fake_src = tmp_path / "src" / "repro"
    fake_src.mkdir(parents=True)
    (fake_src / "rogue.py").write_text(
        'def f(self, chain, uid):\n'
        '    self.ladder.trace(chain, "undeclared_ladder_step", uid=uid)\n'
        '    self.trace(chain, "retry", uid=uid)\n',
        encoding="utf-8")
    monkeypatch.setattr(lint, "SRC", fake_src)
    violations = lint.find_violations()
    assert len(violations) == 1
    assert "serving_undeclared_ladder_step" in violations[0]


def test_span_kinds_cannot_be_emitted_as_events(tmp_path, monkeypatch):
    lint = load_lint()
    fake_src = tmp_path / "src" / "repro"
    fake_src.mkdir(parents=True)
    # "model_call" is a declared *span* kind; emitting it as a flat
    # event is a vocabulary violation.
    (fake_src / "rogue.py").write_text(
        'tracer.emit("model_call", 1)\n', encoding="utf-8")
    monkeypatch.setattr(lint, "SRC", fake_src)
    assert any("model_call" in line for line in lint.find_violations())


def test_lint_runs_standalone():
    import subprocess

    result = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True,
        env={"PYTHONPATH": str(TOOL.parent.parent / "src"),
             "PATH": "/usr/bin:/bin"})
    assert result.returncode == 0, result.stderr
    assert "declared in repro.telemetry.kinds" in result.stdout
