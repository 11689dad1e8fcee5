"""Parity tests: the native engine must agree with SQLite.

The SQL executor lets callers pick either backend; every query our plan
renderer can generate must produce equivalent results on both.  Includes a
hypothesis sweep over generated plan steps.
"""

import sqlite3

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import SQLRuntimeError
from repro.executors.sql_executor import run_sqlite_query
from repro.sqlengine import execute_sql
from repro.table import DataFrame, tables_equivalent


@pytest.fixture
def catalog(cyclists):
    return {"T0": cyclists}


PARITY_QUERIES = [
    "SELECT * FROM T0",
    "SELECT Cyclist FROM T0 WHERE Rank <= 10",
    "SELECT Cyclist, Points FROM T0 WHERE Points > 10 ORDER BY Points DESC",
    "SELECT COUNT(*) FROM T0",
    "SELECT COUNT(Uci_protour_points) FROM T0",
    "SELECT SUM(Points), MIN(Points), MAX(Points) FROM T0",
    "SELECT AVG(Points) FROM T0",
    "SELECT Team, COUNT(*) FROM T0 GROUP BY Team ORDER BY COUNT(*) DESC, Team",
    "SELECT Team, COUNT(*) AS n FROM T0 GROUP BY Team HAVING n >= 1 ORDER BY n DESC, Team",
    "SELECT DISTINCT Team FROM T0 ORDER BY Team",
    "SELECT Rank FROM T0 ORDER BY Rank DESC LIMIT 2",
    "SELECT Rank FROM T0 ORDER BY Rank LIMIT 2 OFFSET 1",
    "SELECT Cyclist FROM T0 WHERE Cyclist LIKE '%(ESP)%'",
    "SELECT Rank FROM T0 WHERE Points BETWEEN 10 AND 30 ORDER BY Rank",
    "SELECT Rank FROM T0 WHERE Rank IN (1, 2, 99)",
    "SELECT Rank FROM T0 WHERE Uci_protour_points IS NULL ORDER BY Rank",
    "SELECT UPPER(Team) FROM T0 ORDER BY UPPER(Team) LIMIT 1",
    "SELECT UPPER(Team) FROM T0 ORDER BY 1 LIMIT 1",
    "SELECT Rank FROM T0 ORDER BY 1 DESC",
    "SELECT Cyclist, Rank FROM T0 ORDER BY (2) DESC",
    "SELECT Team, COUNT(*) FROM T0 GROUP BY Team ORDER BY 2 DESC, 1",
    "SELECT Rank FROM T0 ORDER BY 1.0, Rank",
    "SELECT SUBSTR(Cyclist, -4, 3) AS cc, COUNT(*) FROM T0 GROUP BY cc ORDER BY COUNT(*) DESC, cc",
    "SELECT CASE WHEN Points > 20 THEN 'high' ELSE 'low' END AS tier, COUNT(*) FROM T0 GROUP BY tier ORDER BY tier",
    "SELECT Points * 2 + 1 FROM T0 WHERE Rank = 1",
    "SELECT Cyclist || '!' FROM T0 WHERE Rank = 1",
    "SELECT MAX(CASE WHEN Rank = 1 THEN Points END) - "
    "MAX(CASE WHEN Rank = 2 THEN Points END) AS diff FROM T0",
    "SELECT COALESCE(Uci_protour_points, 0) FROM T0 ORDER BY Rank",
    "SELECT LENGTH(Team) FROM T0 ORDER BY Rank",
    "SELECT REPLACE(Team, ' ', '_') FROM T0 ORDER BY Rank",
]


@pytest.mark.parametrize("sql", PARITY_QUERIES)
def test_backend_parity(catalog, sql):
    native = execute_sql(sql, catalog)
    sqlite = run_sqlite_query(sql, catalog)
    assert tables_equivalent(native, sqlite, ordered="ORDER BY" in sql), \
        f"backends disagree on {sql!r}:\n{native.to_rows()}\n" \
        f"{sqlite.to_rows()}"


@pytest.mark.parametrize("sql", [
    "SELECT Rank FROM T0 ORDER BY 2",
    "SELECT Rank FROM T0 ORDER BY 0",
    "SELECT Rank, Points FROM T0 ORDER BY Rank, -1",
    "SELECT Rank FROM T0 WHERE Rank > 99 ORDER BY 1, 2",
])
def test_order_by_out_of_range_matches_sqlite(catalog, sql):
    with pytest.raises(sqlite3.OperationalError) as expected:
        run_sqlite_query(sql, catalog)
    with pytest.raises(SQLRuntimeError) as native:
        execute_sql(sql, catalog)
    assert str(native.value) == str(expected.value)


#: ``b`` repeats, so grouping by it (or not) shows in the row count.
GROUPED = {"T0": DataFrame({"a": [1, 2, 3, 4, 5],
                            "b": ["x", "y", "x", "z", "y"]})}
TIERS = pytest.mark.parametrize("tier", ["1", "0"],
                                ids=["vector", "interpreted"])


@TIERS
@pytest.mark.parametrize("sql", [
    "SELECT b, COUNT(*) FROM T0 GROUP BY 1",
    "SELECT b, COUNT(*) FROM T0 GROUP BY (1)",
    "SELECT b, COUNT(*) FROM T0 GROUP BY +1",
    "SELECT a % 2 AS p, SUM(a) FROM T0 GROUP BY 1",
    "SELECT * FROM T0 GROUP BY 2",
    "SELECT b, COUNT(*) FROM T0 GROUP BY 1 HAVING b <> 'z'",
    "SELECT b, a > 2, COUNT(*) FROM T0 GROUP BY 1, 2",
    "SELECT b, COUNT(*) FROM T0 GROUP BY 1.0",
    "SELECT b, COUNT(*) FROM T0 GROUP BY 1 + 0",
    "SELECT b, COUNT(*) FROM T0 GROUP BY 2147483648",
])
def test_group_by_position_matches_sqlite(monkeypatch, tier, sql):
    monkeypatch.setenv("REPRO_SQL_VECTOR", tier)
    native = execute_sql(sql, GROUPED).to_rows()
    sqlite = run_sqlite_query(sql, GROUPED).to_rows()
    # Same groups; the order of tied groups is a separate, known gap.
    assert sorted(native) == sorted(sqlite)


@TIERS
@pytest.mark.parametrize("sql", [
    "SELECT b, COUNT(*) FROM T0 GROUP BY 3",
    "SELECT b, COUNT(*) FROM T0 GROUP BY 0",
    "SELECT b, COUNT(*) FROM T0 GROUP BY -1",
    "SELECT b, COUNT(*) FROM T0 GROUP BY b, 3",
    "SELECT b, COUNT(*) FROM T0 WHERE a > 9 GROUP BY 3",
    "SELECT b, COUNT(*) FROM T0 GROUP BY 2",
    "SELECT b, 1 + COUNT(*) FROM T0 GROUP BY 2",
    "SELECT b, COUNT(*) AS c FROM T0 GROUP BY c",
    "SELECT b, COUNT(*) FROM T0 GROUP BY 3 ORDER BY 5",
])
def test_group_by_position_errors_match_sqlite(monkeypatch, tier, sql):
    monkeypatch.setenv("REPRO_SQL_VECTOR", tier)
    with pytest.raises(sqlite3.OperationalError) as expected:
        run_sqlite_query(sql, GROUPED)
    with pytest.raises(SQLRuntimeError) as native:
        execute_sql(sql, GROUPED)
    assert str(native.value) == str(expected.value)


def test_group_by_position_groups_by_the_column():
    rows = execute_sql("SELECT b, COUNT(*) FROM T0 GROUP BY 1",
                       GROUPED).to_rows()
    assert sorted(rows) == [("x", 2), ("y", 2), ("z", 1)]


@pytest.mark.parametrize("expr", [
    "ROUND(2.5)",
    "ROUND(-2.5)",
    "ROUND(0.125, 2)",
    "ROUND(1.005, 2)",
    "ROUND(-1.005, 2)",
    "ROUND(1234.5678, -2)",
    "ROUND(2.5, NULL)",
    "ROUND(Points / 3.0, 2)",
])
def test_round_matches_sqlite(catalog, expr):
    sql = f"SELECT {expr} FROM T0 ORDER BY Rank"
    assert execute_sql(sql, catalog).to_rows() == \
        run_sqlite_query(sql, catalog).to_rows()


# --- property-based parity over generated plan steps -------------------------

names = st.sampled_from(["Rank", "Points"])
thresholds = st.integers(min_value=0, max_value=45)
comparators = st.sampled_from(["<", "<=", "=", ">=", ">"])
aggregates = st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"])


@given(column=names, op=comparators, threshold=thresholds)
@settings(max_examples=50, deadline=None)
def test_filter_parity(column, op, threshold):
    catalog = {"T0": _cyclists()}
    sql = f"SELECT Cyclist FROM T0 WHERE {column} {op} {threshold}"
    assert tables_equivalent(execute_sql(sql, catalog),
                             run_sqlite_query(sql, catalog))


@given(agg=aggregates, column=names)
@settings(max_examples=40, deadline=None)
def test_aggregate_parity(agg, column):
    catalog = {"T0": _cyclists()}
    sql = f"SELECT {agg}({column}) FROM T0"
    assert tables_equivalent(execute_sql(sql, catalog),
                             run_sqlite_query(sql, catalog))


@given(column=names, descending=st.booleans(),
       limit=st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_order_limit_parity(column, descending, limit):
    catalog = {"T0": _cyclists()}
    direction = "DESC" if descending else "ASC"
    sql = (f"SELECT Cyclist, {column} FROM T0 "
           f"ORDER BY {column} {direction}, Cyclist LIMIT {limit}")
    assert tables_equivalent(execute_sql(sql, catalog),
                             run_sqlite_query(sql, catalog),
                             ordered=True)


def _cyclists() -> DataFrame:
    return DataFrame({
        "Rank": [1, 2, 3, 10],
        "Cyclist": ["Alejandro Valverde (ESP)", "Alexandr Kolobnev (RUS)",
                    "Davide Rebellin (ITA)", "David Moncoutie (FRA)"],
        "Points": [40, 30, 25, 1],
    }, name="T0")
