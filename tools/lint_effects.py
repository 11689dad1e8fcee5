"""Lint the sans-IO boundary: model/executor I/O only behind the engine.

The engine refactor moved every model completion and code execution in
the agent stack behind :class:`repro.engine.EffectHandler` — that is
what makes chains batchable, chaos-injectable and uniformly cost-
attributed.  The boundary erodes silently if a driver reaches around
the handler and calls ``model.complete(...)`` or
``executor.execute(...)`` directly, so this lint greps the source tree
for such call sites outside the allowed homes.  The homes are split by
boundary.  Model calls are allowed in:

* ``repro/engine/`` — the drivers themselves;
* ``repro/llm/`` — the model package (wrappers delegate to ``inner``);
* ``repro/executors/``, ``repro/faults/``, ``repro/plans/`` (as below);
* ``repro/serving/policy.py`` — the ``DeadlineModel`` wrapper;
* ``repro/aio/adapter.py`` / ``repro/aio/handler.py`` — the async model
  boundary (the adapter bridges sync models; the handler awaits them).
  The rest of ``repro/aio/`` must go through them.

Executor calls are allowed in:

* ``repro/engine/`` — ``EffectSeam.execute``, the one executor seam;
* ``repro/llm/`` — the simulated model runs its own planned code to
  score candidate actions (model internals, not agent I/O);
* ``repro/executors/`` — the executor package;
* ``repro/faults/`` — injector wrappers delegating to wrapped objects;
* ``repro/plans/`` — the gold-plan infrastructure (its ``plan.execute``
  pipeline is not agent I/O, but its helpers drive executors directly).

So an executor call anywhere under ``repro/aio/`` is a violation: the
async handler executes through the seam it inherits, never on its own.

Heuristics, deliberately simple (like ``lint_events.py``): a
``.complete(`` / ``.complete_batch(`` attribute call marks the model
boundary; a ``<receiver>.execute(`` call marks the executor boundary
when the receiver name contains ``executor`` or is ``registry``, and so
does ``registry.get(...).execute(`` — ``plan.execute`` (query plans) and
``cursor.execute`` (sqlite) pass.

Runs standalone (``python tools/lint_effects.py``, exits non-zero on a
violation) and as a tier-1 test via ``tests/test_lint_effects.py``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Paths (relative to ``src/repro``, '/'-separated) where direct
#: executor calls are legitimate.
EXECUTOR_HOMES = (
    "engine/",
    "llm/",
    "executors/",
    "faults/",
    "plans/",
)

#: Paths where direct model completion calls are legitimate.
MODEL_HOMES = EXECUTOR_HOMES + (
    "serving/policy.py",
    "aio/adapter.py",
    "aio/handler.py",
)

_MODEL_CALL = re.compile(r"\.complete(?:_batch)?\(")
_EXECUTE_CALL = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\.\s*execute\(")
_REGISTRY_EXECUTE = re.compile(
    r"\bregistry\s*\.\s*get\(.*\)\s*\.\s*execute\(")


def _executor_receiver(name: str) -> bool:
    """Does this receiver name look like a code executor?"""
    return "executor" in name.lower() or name == "registry"


def _is_home(relpath: str, homes: tuple[str, ...]) -> bool:
    return any(relpath == prefix or relpath.startswith(prefix)
               for prefix in homes)


def _executor_call(line: str) -> bool:
    match = _EXECUTE_CALL.search(line)
    return bool(match and _executor_receiver(match.group(1))
                or _REGISTRY_EXECUTE.search(line))


def scan_lines(relpath: str, lines) -> list[str]:
    """Violations in one file's lines, judged by the file's homes."""
    check_model = not _is_home(relpath, MODEL_HOMES)
    check_executor = not _is_home(relpath, EXECUTOR_HOMES)
    violations = []
    for number, line in enumerate(lines, start=1):
        stripped = line.lstrip()
        if stripped.startswith("#"):
            continue
        if check_model and _MODEL_CALL.search(line):
            violations.append(
                f"{relpath}:{number}: direct model completion call "
                f"(route it through repro.engine.EffectHandler)")
        elif check_executor and _executor_call(line):
            violations.append(
                f"{relpath}:{number}: direct executor call "
                f"(route it through repro.engine.EffectHandler)")
    return violations


def find_violations(root: Path = SRC) -> list[str]:
    """Sans-IO boundary violations, one human-readable line each."""
    violations = []
    for path in sorted(root.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        if _is_home(relpath, MODEL_HOMES) and _is_home(relpath,
                                                      EXECUTOR_HOMES):
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        violations.extend(scan_lines(relpath, lines))
    return violations


def main() -> int:
    violations = find_violations()
    for line in violations:
        print(f"lint_effects: {line}", file=sys.stderr)
    if violations:
        print(f"lint_effects: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print("lint_effects: all model/executor I/O flows through the "
          "sans-IO effect boundary")
    return 0


if __name__ == "__main__":
    sys.exit(main())
