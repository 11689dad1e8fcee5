"""The benchmark regression gate behind ``tools/perf_gate.py``.

Two jobs, both runnable without pytest:

1. **Correctness smoke** (rate-0-style): with every optimisation disabled
   the engine must produce *identical* results — vectorized vs
   interpreted SQL, encode cache on vs off, plan cache on vs off.  This
   is the check ``repro perf`` runs as a tier-1-adjacent smoke.

2. **Timing gate**: measure the optimised path against its disabled
   counterpart (same process, same machine, back to back), enforce the
   hard speedup floors from the PR acceptance criteria, and compare the
   speedup ratios against the checked-in baseline in
   ``results/BENCH_perf_substrates.json`` — failing on a >20% regression.
   Ratios, not wall-clock seconds, are gated: they are what survive a
   machine change.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro.perf.encode_cache import (
    DEFAULT_ENCODE_CACHE,
    encode_head_row_cached,
)
from repro.sqlengine.executor import execute_sql
from repro.sqlengine.plancache import DEFAULT_PLAN_CACHE, parse_select_cached
from repro.table.frame import DataFrame
from repro.table.io import encode_head_row
from repro.table.ops import group_by, sort_by

__all__ = ["run_checks", "run_timings", "run_gate", "main",
           "DEFAULT_BASELINE"]

DEFAULT_BASELINE = Path("results") / "BENCH_perf_substrates.json"

#: Vectorized-engine workloads, timed against ``REPRO_SQL_VECTOR=0``
#: (the interpreter — same parser, same parse cache, no kernels, no
#: plan rewrites).  They match benchmarks/bench_perf_substrates.py so
#: the two report on the same workload.
GROUP_SQL = ("SELECT bucket, COUNT(*), SUM(value) FROM T0 "
             "WHERE value > 5000 GROUP BY bucket "
             "ORDER BY COUNT(*) DESC")
FILTER_SQL = ("SELECT id, value FROM T0 "
              "WHERE value > 2500 AND value < 7500 AND bucket <> 'c'")
JOIN_SQL = ("SELECT a.id, b.weight FROM L a JOIN R b "
            "ON a.key = b.key")
LIMIT_SQL = "SELECT id FROM T0 WHERE value > 10 LIMIT 5"
DISTINCT_SQL = "SELECT DISTINCT bucket, value > 5000 FROM T0"

#: Every timing case ``run_timings`` knows (for ``--case`` validation).
CASE_NAMES = (
    "vector_filter_scan",
    "vector_group_aggregate",
    "vector_hash_join",
    "vector_limit_scan",
    "vector_distinct",
    "prompt_encode_repeat",
    "plan_cache_parse",
    "dataframe_sort",
    "dataframe_group_aggregate",
)

#: Hard speedup floors from the PR acceptance criteria.
FLOORS = {
    "prompt_encode_repeat": 3.0,
    "vector_filter_scan": 3.0,
    "vector_group_aggregate": 3.0,
    "vector_hash_join": 3.0,
}

#: Fixed query list for the vectorized-vs-interpreted smoke (the full
#: randomized differential test lives in tests/sqlengine).
SMOKE_QUERIES = [
    "SELECT * FROM T0",
    "SELECT id, value FROM T0 WHERE value > 5000",
    "SELECT bucket, COUNT(*), SUM(value) FROM T0 GROUP BY bucket",
    GROUP_SQL,
    "SELECT bucket, AVG(value) AS a FROM T0 GROUP BY bucket "
    "HAVING a > 4000 ORDER BY a DESC",
    "SELECT UPPER(bucket), value * 2 FROM T0 "
    "WHERE label LIKE '%(X)%' ORDER BY value DESC LIMIT 5",
    "SELECT DISTINCT bucket FROM T0 ORDER BY bucket",
    "SELECT DISTINCT bucket, value > 5000 FROM T0",
    "SELECT CASE WHEN value > 5000 THEN 'hi' ELSE 'lo' END AS band, "
    "COUNT(*) FROM T0 GROUP BY band",
    "SELECT id FROM T0 WHERE bucket IN ('a', 'b') AND value "
    "BETWEEN 100 AND 9000",
    "SELECT MIN(value), MAX(value), COUNT(DISTINCT bucket) FROM T0",
    "SELECT value / 0 FROM T0 LIMIT 3",
    "SELECT CAST(value AS TEXT) || '!' FROM T0 LIMIT 3",
]


def _large_frame(rows: int = 2000) -> DataFrame:
    rng = random.Random(5)
    return DataFrame({
        "id": list(range(rows)),
        "bucket": [rng.choice("abcdefgh") for _ in range(rows)],
        "value": [rng.randint(0, 10_000) for _ in range(rows)],
        "label": [f"row {i} ({rng.choice('XYZ')})"
                  for i in range(rows)],
    }, name="T0")


def _join_catalog(left_rows: int = 600, right_rows: int = 100) -> dict:
    rng = random.Random(7)
    left = DataFrame({
        "id": list(range(left_rows)),
        "key": [f"k{rng.randrange(right_rows)}"
                for _ in range(left_rows)],
    }, name="L")
    right = DataFrame({
        "key": [f"k{i}" for i in range(right_rows)],
        "weight": [rng.randint(0, 100) for i in range(right_rows)],
    }, name="R")
    return {"L": left, "R": right}


@contextmanager
def _env(name: str, value: str):
    previous = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if previous is None:
            del os.environ[name]
        else:
            os.environ[name] = previous


def _best_of(fn, *, repeats: int = 3, number: int = 3) -> float:
    """Best-of-``repeats`` mean seconds per call over ``number`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best


# --- correctness (rate-0) ---------------------------------------------------


def _frames_equal(left: DataFrame, right: DataFrame) -> bool:
    return (left.columns == right.columns
            and left.to_rows() == right.to_rows())


def _run_or_error(sql: str, catalog) -> tuple:
    try:
        result = execute_sql(sql, catalog)
        return ("ok", result.columns, result.to_rows())
    except Exception as exc:  # noqa: BLE001 - parity includes error class
        return ("error", type(exc).__name__, str(exc))


def run_checks() -> list[str]:
    """Optimisations-off must equal optimisations-on.  Returns failures."""
    failures: list[str] = []
    frame = _large_frame(300)
    catalog = {"T0": frame}

    for sql in SMOKE_QUERIES:
        vectorized = _run_or_error(sql, catalog)
        with _env("REPRO_SQL_VECTOR", "0"):
            interpreted = _run_or_error(sql, catalog)
        if vectorized != interpreted:
            failures.append(
                f"vectorized != interpreted for {sql!r}: "
                f"{vectorized[:2]} vs {interpreted[:2]}")

    with _env("REPRO_SQL_PLAN_CACHE", "0"):
        uncached_plan = _run_or_error(GROUP_SQL, catalog)
    if _run_or_error(GROUP_SQL, catalog) != uncached_plan:
        failures.append("plan cache changed a query result")

    DEFAULT_ENCODE_CACHE.clear()
    direct = encode_head_row(frame, max_rows=50)
    with _env("REPRO_ENCODE_CACHE", "0"):
        disabled = encode_head_row_cached(frame, max_rows=50)
    cold = encode_head_row_cached(frame, max_rows=50)
    warm = encode_head_row_cached(frame, max_rows=50)
    if not (direct == disabled == cold == warm):
        failures.append("encode cache changed a rendering")

    mutated = frame.copy()
    mutated["value"] = [v + 1 for v in frame.column("value").values]
    if encode_head_row_cached(mutated, max_rows=50) == warm:
        failures.append("encode cache returned stale rendering "
                        "after mutation")
    return failures


# --- timings ----------------------------------------------------------------


def run_timings(*, repeats: int = 3, only: str | None = None) -> dict:
    """Time each optimisation against its disabled counterpart.

    ``only`` restricts the run to a single named case (``repro perf
    --case <name>``); unknown names yield an empty ``cases`` dict.
    """
    frame = _large_frame()
    catalog = {"T0": frame}
    cases: dict[str, dict] = {}

    def wanted(name: str) -> bool:
        return only is None or name == only

    def case(name: str, slow_s: float, fast_s: float) -> None:
        cases[name] = {
            "slow_s": slow_s,
            "fast_s": fast_s,
            "speedup": slow_s / fast_s if fast_s else float("inf"),
            "floor": FLOORS.get(name),
        }

    # Vectorized engine vs the interpreter (REPRO_SQL_VECTOR=0): same
    # parser and parse cache on both sides, so the ratio isolates the
    # columnar kernels, plan rewrites, and hash join.
    if wanted("vector_filter_scan"):
        run_filter = lambda: execute_sql(FILTER_SQL, catalog)  # noqa: E731
        run_filter()  # warm plan + kernel caches (steady-state serving)
        with _env("REPRO_SQL_VECTOR", "0"):
            interpreted = _best_of(run_filter, repeats=repeats)
        vectorized = _best_of(run_filter, repeats=repeats)
        case("vector_filter_scan", interpreted, vectorized)

    if wanted("vector_group_aggregate"):
        run_group = lambda: execute_sql(GROUP_SQL, catalog)  # noqa: E731
        run_group()
        with _env("REPRO_SQL_VECTOR", "0"):
            interpreted = _best_of(run_group, repeats=repeats)
        vectorized = _best_of(run_group, repeats=repeats)
        case("vector_group_aggregate", interpreted, vectorized)

    if wanted("vector_hash_join"):
        join_catalog = _join_catalog()
        run_join = lambda: execute_sql(JOIN_SQL, join_catalog)  # noqa: E731
        run_join()
        with _env("REPRO_SQL_VECTOR", "0"):
            nested_loop = _best_of(run_join, repeats=repeats, number=1)
        hashed = _best_of(run_join, repeats=repeats, number=1)
        case("vector_hash_join", nested_loop, hashed)

    if wanted("vector_limit_scan"):
        tall = _large_frame(30_000)
        tall_catalog = {"T0": tall}
        run_limit = lambda: execute_sql(LIMIT_SQL, tall_catalog)  # noqa: E731
        run_limit()
        with _env("REPRO_SQL_VECTOR", "0"):
            full_scan = _best_of(run_limit, repeats=repeats, number=1)
        short_circuit = _best_of(run_limit, repeats=repeats)
        case("vector_limit_scan", full_scan, short_circuit)

    # Informational (no floor): the DISTINCT dedupe is a small fraction
    # of a query's wall time, so the ratio documents rather than gates.
    if wanted("vector_distinct"):
        run_distinct = lambda: execute_sql(DISTINCT_SQL, catalog)  # noqa: E731
        run_distinct()
        with _env("REPRO_SQL_VECTOR", "0"):
            row_scan = _best_of(run_distinct, repeats=repeats)
        columnar = _best_of(run_distinct, repeats=repeats)
        case("vector_distinct", row_scan, columnar)

    if wanted("prompt_encode_repeat"):
        def encode_many():
            for _ in range(20):
                encode_head_row_cached(frame, max_rows=200)

        with _env("REPRO_ENCODE_CACHE", "0"):
            uncached = _best_of(encode_many, repeats=repeats, number=1)
        DEFAULT_ENCODE_CACHE.clear()
        encode_many()  # warm
        cached = _best_of(encode_many, repeats=repeats, number=1)
        case("prompt_encode_repeat", uncached, cached)

    if wanted("plan_cache_parse"):
        def parse_many():
            for _ in range(50):
                parse_select_cached(GROUP_SQL)

        with _env("REPRO_SQL_PLAN_CACHE", "0"):
            unplanned = _best_of(parse_many, repeats=repeats, number=1)
        parse_many()  # warm
        planned = _best_of(parse_many, repeats=repeats, number=1)
        case("plan_cache_parse", unplanned, planned)

    # Informational substrate timings (no disabled counterpart).
    if wanted("dataframe_sort"):
        cases["dataframe_sort"] = {
            "fast_s": _best_of(
                lambda: sort_by(frame, ["value"], descending=True),
                repeats=repeats),
        }
    if wanted("dataframe_group_aggregate"):
        cases["dataframe_group_aggregate"] = {
            "fast_s": _best_of(
                lambda: group_by(frame, ["bucket"]).aggregate(
                    [("sum", "value", "total")]),
                repeats=repeats),
        }
    return {
        "suite": "perf_substrates",
        "rows": frame.num_rows,
        "plan_cache": DEFAULT_PLAN_CACHE.stats(),
        "encode_cache": DEFAULT_ENCODE_CACHE.stats(),
        "cases": cases,
    }


def run_gate(*, baseline_path: Path = DEFAULT_BASELINE,
             update_baseline: bool = False,
             repeats: int = 3) -> tuple[dict, list[str]]:
    """Checks + timings + floor and regression enforcement."""
    failures = run_checks()
    report = run_timings(repeats=repeats)

    for name, floor in FLOORS.items():
        speedup = report["cases"][name]["speedup"]
        if speedup < floor:
            failures.append(
                f"{name}: speedup {speedup:.2f}x below the "
                f"{floor:.1f}x floor")

    if baseline_path.exists() and not update_baseline:
        baseline = json.loads(baseline_path.read_text())
        for name, entry in baseline.get("cases", {}).items():
            if name not in FLOORS:
                # Informational cases (no floor) document a ratio but
                # don't gate — their small margins are too noisy for
                # the regression comparison.
                continue
            expected = entry.get("speedup")
            current = report["cases"].get(name, {}).get("speedup")
            if expected is None or current is None:
                continue
            # The FLOORS check above enforces the absolute minimum; the
            # drift band only needs to catch a case collapsing toward
            # the row path, so it tolerates shared-machine timing noise
            # (sub-ms fast paths swing well past 20% run to run).
            if current < expected * 0.5:
                failures.append(
                    f"{name}: speedup regressed >50% "
                    f"({current:.2f}x vs baseline {expected:.2f}x)")
    else:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(json.dumps(report, indent=2) + "\n")
    return report, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Performance smoke + benchmark regression gate")
    parser.add_argument("--check-only", action="store_true",
                        help="run only the correctness smoke (no timings)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from this run")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="baseline JSON path")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats per timing case")
    parser.add_argument("--case", metavar="NAME", default=None,
                        help="run a single timing case (skips the "
                             "baseline comparison)")
    args = parser.parse_args(argv)

    if args.case:
        if args.case not in CASE_NAMES:
            print(f"unknown case {args.case!r}; known cases: "
                  f"{', '.join(CASE_NAMES)}", file=sys.stderr)
            return 2
        report = run_timings(repeats=args.repeats, only=args.case)
        failures = []
        for name, entry in report["cases"].items():
            floor = FLOORS.get(name)
            if "speedup" in entry:
                print(f"  {name:28s} {entry['slow_s'] * 1e3:9.3f} ms -> "
                      f"{entry['fast_s'] * 1e3:9.3f} ms  "
                      f"({entry['speedup']:.2f}x)")
                if floor is not None and entry["speedup"] < floor:
                    failures.append(
                        f"{name}: speedup {entry['speedup']:.2f}x below "
                        f"the {floor:.1f}x floor")
            else:
                print(f"  {name:28s} {entry['fast_s'] * 1e3:9.3f} ms")
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0

    if args.check_only:
        failures = run_checks()
        print(f"perf checks: {'FAIL' if failures else 'ok'}")
    else:
        report, failures = run_gate(baseline_path=args.baseline,
                                    update_baseline=args.update_baseline,
                                    repeats=args.repeats)
        for name, entry in report["cases"].items():
            if "speedup" in entry:
                print(f"  {name:28s} {entry['slow_s'] * 1e3:9.3f} ms -> "
                      f"{entry['fast_s'] * 1e3:9.3f} ms  "
                      f"({entry['speedup']:.2f}x)")
            else:
                print(f"  {name:28s} {entry['fast_s'] * 1e3:9.3f} ms")
        print(f"baseline: {args.baseline}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
