"""Micro-benchmarks for the substrates (pytest-benchmark timing runs).

Not a paper experiment — these keep the from-scratch substrates honest:
query latency of the native SQL engine vs SQLite, DataFrame operator
throughput, and full agent-chain latency.
"""

import random

import pytest

from harness import benchmark_for, model_for

from repro.core import ReActTableAgent
from repro.executors.sql_executor import run_sqlite_query
from repro.sqlengine import execute_sql
from repro.table import DataFrame, group_by, sort_by


def _large_frame(rows: int = 2000) -> DataFrame:
    rng = random.Random(5)
    return DataFrame({
        "id": list(range(rows)),
        "bucket": [rng.choice("abcdefgh") for _ in range(rows)],
        "value": [rng.randint(0, 10_000) for _ in range(rows)],
        "label": [f"row {i} ({rng.choice('XYZ')})"
                  for i in range(rows)],
    }, name="T0")


GROUP_SQL = ("SELECT bucket, COUNT(*), SUM(value) FROM T0 "
             "WHERE value > 5000 GROUP BY bucket "
             "ORDER BY COUNT(*) DESC")

FILTER_SQL = ("SELECT id, value FROM T0 "
              "WHERE value > 2500 AND value < 7500 AND bucket <> 'c'")

JOIN_SQL = "SELECT a.id, b.weight FROM L a JOIN R b ON a.key = b.key"

LIMIT_SQL = "SELECT id FROM T0 WHERE value > 10 LIMIT 5"


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


@pytest.fixture(scope="module")
def frame():
    return _large_frame()


def test_perf_native_engine_group_query(benchmark, frame):
    catalog = {"T0": frame}
    result = benchmark(lambda: execute_sql(GROUP_SQL, catalog))
    assert result.num_rows == 8


def test_perf_native_engine_interpreted(benchmark, frame, monkeypatch):
    """The interpreter (REPRO_SQL_VECTOR=0): the vector tier's baseline."""
    monkeypatch.setenv("REPRO_SQL_VECTOR", "0")
    catalog = {"T0": frame}
    result = benchmark(lambda: execute_sql(GROUP_SQL, catalog))
    assert result.num_rows == 8


def test_perf_vector_filter_scan(benchmark, frame):
    catalog = {"T0": frame}
    execute_sql(FILTER_SQL, catalog)  # warm plan + kernel caches
    result = benchmark(lambda: execute_sql(FILTER_SQL, catalog))
    assert result.num_rows > 0


def test_perf_vector_filter_scan_interpreted(benchmark, frame,
                                              monkeypatch):
    monkeypatch.setenv("REPRO_SQL_VECTOR", "0")
    catalog = {"T0": frame}
    result = benchmark(lambda: execute_sql(FILTER_SQL, catalog))
    assert result.num_rows > 0


def test_perf_vector_hash_join(benchmark):
    catalog = _join_catalog()
    execute_sql(JOIN_SQL, catalog)  # warm
    result = benchmark(lambda: execute_sql(JOIN_SQL, catalog))
    assert result.num_rows >= 600


def test_perf_vector_hash_join_interpreted(benchmark, monkeypatch):
    monkeypatch.setenv("REPRO_SQL_VECTOR", "0")
    catalog = _join_catalog()
    result = benchmark(lambda: execute_sql(JOIN_SQL, catalog))
    assert result.num_rows >= 600


def test_perf_vector_limit_scan(benchmark):
    catalog = {"T0": _large_frame(30_000)}
    execute_sql(LIMIT_SQL, catalog)  # warm
    result = benchmark(lambda: execute_sql(LIMIT_SQL, catalog))
    assert result.num_rows == 5


def test_perf_vector_limit_scan_interpreted(benchmark, monkeypatch):
    monkeypatch.setenv("REPRO_SQL_VECTOR", "0")
    catalog = {"T0": _large_frame(30_000)}
    result = benchmark(lambda: execute_sql(LIMIT_SQL, catalog))
    assert result.num_rows == 5


def test_perf_plan_parse_uncached(benchmark, monkeypatch):
    from repro.sqlengine import parse_select_cached

    monkeypatch.setenv("REPRO_SQL_PLAN_CACHE", "0")
    stmt = benchmark(lambda: parse_select_cached(GROUP_SQL))
    assert stmt.group_by


def test_perf_plan_parse_cached(benchmark):
    from repro.sqlengine import parse_select_cached

    parse_select_cached(GROUP_SQL)  # warm
    stmt = benchmark(lambda: parse_select_cached(GROUP_SQL))
    assert stmt.group_by


def test_perf_sqlite_backend_group_query(benchmark, frame):
    catalog = {"T0": frame}
    result = benchmark(lambda: run_sqlite_query(GROUP_SQL, catalog))
    assert result.num_rows == 8


def test_perf_dataframe_sort(benchmark, frame):
    result = benchmark(lambda: sort_by(frame, ["value"],
                                       descending=True))
    assert result.cell(0, "value") >= result.cell(1, "value")


def test_perf_dataframe_group(benchmark, frame):
    result = benchmark(
        lambda: group_by(frame, ["bucket"]).aggregate(
            [("sum", "value", "total")]))
    assert result.num_rows == 8


def test_perf_dataframe_apply(benchmark, frame):
    column = benchmark(
        lambda: frame.apply(lambda row: row["label"][-2], axis=1))
    assert len(column) == frame.num_rows


def test_perf_codec_roundtrip(benchmark, frame):
    from repro.table import decode_head_row, encode_head_row

    def roundtrip():
        return decode_head_row(encode_head_row(frame, max_rows=200))

    result = benchmark(roundtrip)
    assert result.num_rows == 200


def test_perf_prompt_encode_uncached(benchmark, frame, monkeypatch):
    from repro.perf import encode_head_row_cached

    monkeypatch.setenv("REPRO_ENCODE_CACHE", "0")
    rendered = benchmark(
        lambda: encode_head_row_cached(frame, max_rows=200))
    assert rendered.startswith("[HEAD]")


def test_perf_prompt_encode_cached(benchmark, frame):
    from repro.perf import DEFAULT_ENCODE_CACHE, encode_head_row_cached

    DEFAULT_ENCODE_CACHE.clear()
    encode_head_row_cached(frame, max_rows=200)  # warm
    rendered = benchmark(
        lambda: encode_head_row_cached(frame, max_rows=200))
    assert rendered.startswith("[HEAD]")
    assert DEFAULT_ENCODE_CACHE.stats()["hits"] > 0


def test_perf_full_agent_chain(benchmark):
    bench = benchmark_for("wikitq", size=40)
    model = model_for(bench)
    agent = ReActTableAgent(model)
    examples = bench.examples
    state = {"i": 0}

    def one_chain():
        example = examples[state["i"] % len(examples)]
        state["i"] += 1
        return agent.run(example.table, example.question)

    result = benchmark(one_chain)
    assert result.iterations >= 1
