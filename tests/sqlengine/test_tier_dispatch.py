"""Per-tier dispatch observability: sql.tier_dispatch / sql.tier_fallback.

The two-tier engine (vector → interpreted) makes all-or-nothing
per-stage decisions; these counters make the decisions visible.  The
autouse GLOBAL_REGISTRY reset keeps every test's counts exact.
"""

import pytest

from repro.sqlengine.executor import execute_sql
from repro.table import DataFrame
from repro.telemetry.metrics import GLOBAL_REGISTRY


@pytest.fixture
def tables() -> dict:
    left = DataFrame({"id": [1, 2, 3, 4],
                      "points": [40, 30, 25, 1],
                      "name": ["a", "b", "c", "d"]}, name="t")
    right = DataFrame({"id": [1, 2, 3, 4],
                       "team": ["x", "x", "y", "y"]}, name="u")
    return {"t": left, "u": right}


def dispatch():
    return GLOBAL_REGISTRY.counter("sql.tier_dispatch")


def fallback():
    return GLOBAL_REGISTRY.counter("sql.tier_fallback")


class TestTierDispatch:
    def test_vector_where_counts_vector_tier(self, tables):
        execute_sql("SELECT name FROM t WHERE points > 10", tables)
        assert dispatch().value(stage="where", tier="vector") == 1
        assert fallback().total() == 0

    def test_plain_projection_counts_once(self, tables):
        execute_sql("SELECT name FROM t", tables)
        assert dispatch().value(stage="plain", tier="vector") == 1

    def test_aggregate_counts_aggregate_stage(self, tables):
        execute_sql("SELECT COUNT(*) FROM t", tables)
        assert dispatch().value(stage="aggregate", tier="vector") == 1

    def test_hash_equi_join_counts_vector_join(self, tables):
        execute_sql("SELECT t.name, u.team FROM t "
                    "JOIN u ON t.id = u.id", tables)
        assert dispatch().value(stage="join", tier="vector") == 1

    def test_non_equi_join_falls_back_with_reason(self, tables):
        execute_sql("SELECT t.name, u.team FROM t "
                    "JOIN u ON t.id > u.id", tables)
        assert fallback().value(stage="join",
                                reason="hash_join_bailed") == 1
        assert dispatch().value(stage="join", tier="interpreted") == 1

    def test_unsupported_where_falls_back_to_interpreter(self, tables):
        # sqrt() can raise, so the WHERE stage is not provably total.
        execute_sql("SELECT name FROM t WHERE SQRT(points) > 5", tables)
        assert fallback().value(stage="where",
                                reason="vector_unsupported") == 1
        assert dispatch().value(stage="where", tier="interpreted") == 1

    def test_distinct_counts_vector_tier(self, tables):
        execute_sql("SELECT DISTINCT name FROM t", tables)
        assert dispatch().value(stage="distinct", tier="vector") == 1

    def test_distinct_row_scan_counted_when_vector_off(self, tables,
                                                       monkeypatch):
        monkeypatch.setenv("REPRO_SQL_VECTOR", "0")
        execute_sql("SELECT DISTINCT name FROM t", tables)
        assert dispatch().value(stage="distinct",
                                tier="interpreted") == 1
        assert dispatch().value(stage="distinct", tier="vector") == 0

    def test_interpreted_tier_counted_when_vector_off(self, tables,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_SQL_VECTOR", "0")
        execute_sql("SELECT name FROM t WHERE points > 10", tables)
        assert dispatch().value(stage="where", tier="interpreted") == 1
        assert dispatch().value(stage="where", tier="vector") == 0
        assert fallback().total() == 0

    def test_interpreted_join_counted_when_vector_off(self, tables,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_SQL_VECTOR", "0")
        execute_sql("SELECT name FROM t WHERE points > 10", tables)
        assert dispatch().value(stage="where", tier="interpreted") == 1
        execute_sql("SELECT t.name FROM t JOIN u ON t.id = u.id",
                    tables)
        assert dispatch().value(stage="join", tier="interpreted") == 1
        assert dispatch().value(stage="join", tier="vector") == 0
        assert fallback().total() == 0

    def test_label_values_are_a_closed_set(self, tables):
        # Bounded cardinality: every label value comes from a fixed
        # vocabulary, never from query text.
        execute_sql("SELECT name FROM t WHERE points > 10", tables)
        execute_sql("SELECT COUNT(*) FROM t GROUP BY name", tables)
        execute_sql("SELECT t.name FROM t JOIN u ON t.id > u.id",
                    tables)
        execute_sql("SELECT DISTINCT name FROM t", tables)
        tiers = {"vector", "interpreted"}
        stages = {"where", "aggregate", "plain", "join", "distinct"}
        for key in dispatch().values():
            labels = dict(key)
            assert labels["tier"] in tiers
            assert labels["stage"] in stages
        reasons = {"vector_unsupported", "hash_join_bailed"}
        for key in fallback().values():
            assert dict(key)["reason"] in reasons
