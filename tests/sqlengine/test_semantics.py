"""Oracle suite for NULL, type-class, resolution and ORDER BY semantics.

Every test runs on both engine tiers — vectorized kernels (with the
interpreter as their per-stage fallback) and the recursive interpreter
alone — via the ``engine`` fixture, so this file is the explicit,
per-case oracle the vector tier has to match (the randomized
differential test covers breadth; this covers the sharp edges with
readable failures).
"""

import pytest

from repro.errors import SQLRuntimeError
from repro.sqlengine import execute_sql
from repro.table import DataFrame


@pytest.fixture(params=["vector", "interpreted"])
def engine(request, monkeypatch):
    if request.param == "interpreted":
        monkeypatch.setenv("REPRO_SQL_VECTOR", "0")
    else:
        monkeypatch.delenv("REPRO_SQL_VECTOR", raising=False)
    return request.param


def _frame() -> DataFrame:
    return DataFrame({
        "name": ["a", "b", "c", "d", "e"],
        "score": [10, None, 30, None, 20],
        "mixed": ["5", "40", "x", None, "7"],
        "team": ["red", "blue", "red", "blue", "red"],
    }, name="T0")


def _rows(sql: str, frame: DataFrame | None = None):
    return execute_sql(sql, {"T0": frame or _frame()}).to_rows()


class TestNullInWhere:
    def test_null_comparison_excludes_row(self, engine):
        assert _rows("SELECT name FROM T0 WHERE score > 5") == \
            [("a",), ("c",), ("e",)]

    def test_not_over_null_stays_null(self, engine):
        # NOT NULL is NULL, so b and d stay excluded.
        assert _rows("SELECT name FROM T0 WHERE NOT score > 5") == []

    def test_equals_null_never_matches(self, engine):
        assert _rows("SELECT name FROM T0 WHERE score = NULL") == []

    def test_is_null(self, engine):
        assert _rows("SELECT name FROM T0 WHERE score IS NULL") == \
            [("b",), ("d",)]

    def test_three_valued_or(self, engine):
        # d: NULL OR TRUE is TRUE; b: NULL OR FALSE is NULL (excluded).
        rows = _rows("SELECT name FROM T0 "
                     "WHERE score > 5 OR mixed IS NULL")
        assert rows == [("a",), ("c",), ("d",), ("e",)]

    def test_three_valued_and(self, engine):
        # b: NULL AND TRUE is NULL; never matches.
        rows = _rows("SELECT name FROM T0 "
                     "WHERE score > 5 AND team = 'red'")
        assert rows == [("a",), ("c",), ("e",)]

    def test_null_in_list_is_null(self, engine):
        assert _rows("SELECT name FROM T0 WHERE score IN (1, 2)") == []
        # value present beats the NULL item
        assert _rows("SELECT name FROM T0 "
                     "WHERE score IN (10, NULL)") == [("a",)]


class TestNullInHaving:
    def test_null_aggregate_fails_having(self, engine):
        # team blue only has NULL scores: SUM is NULL, HAVING drops it.
        rows = _rows("SELECT team, SUM(score) AS s FROM T0 "
                     "GROUP BY team HAVING s > 0")
        assert rows == [("red", 60)]

    def test_count_ignores_nulls(self, engine):
        rows = _rows("SELECT team, COUNT(score), COUNT(*) FROM T0 "
                     "GROUP BY team ORDER BY team")
        assert rows == [("blue", 0, 2), ("red", 3, 3)]


class TestTypeClasses:
    def test_numeric_string_coerces_in_comparison(self, engine):
        # '5' and '7' compare numerically; 'x' is text, which orders
        # after every number (SQLite type-class ordering).
        rows = _rows("SELECT name FROM T0 WHERE mixed > 6")
        assert rows == [("b",), ("c",), ("e",)]

    def test_text_orders_after_numbers(self, engine):
        assert _rows("SELECT name FROM T0 WHERE mixed < 1000") == \
            [("a",), ("b",), ("e",)]

    def test_division_by_zero_is_null(self, engine):
        assert _rows("SELECT score / 0 FROM T0 WHERE name = 'a'") == \
            [(None,)]

    def test_modulo_by_zero_is_null(self, engine):
        assert _rows("SELECT score % 0 FROM T0 WHERE name = 'a'") == \
            [(None,)]

    def test_integer_division_truncates(self, engine):
        assert _rows("SELECT score / 3 FROM T0 WHERE name = 'a'") == \
            [(3,)]

    def test_arithmetic_with_null_is_null(self, engine):
        assert _rows("SELECT score + 1 FROM T0 WHERE name = 'b'") == \
            [(None,)]


class TestJoinResolution:
    def test_ambiguous_suffix_raises(self, engine):
        with pytest.raises(SQLRuntimeError, match="ambiguous column"):
            _rows("SELECT score FROM T0 a JOIN T0 b ON a.name = b.name")

    def test_qualified_reference_resolves(self, engine):
        rows = _rows("SELECT a.score FROM T0 a JOIN T0 b "
                     "ON a.name = b.name WHERE a.name = 'a'")
        assert rows == [(10,)]

    def test_unique_suffix_resolves(self, engine):
        frame = DataFrame({"k": ["x", "y"], "v": [1, 2]}, name="T0")
        other = DataFrame({"k": ["x", "y"], "w": [3, 4]}, name="T1")
        result = execute_sql(
            "SELECT w FROM T0 a JOIN T1 b ON a.k = b.k ORDER BY w",
            {"T0": frame, "T1": other})
        assert result.to_rows() == [(3,), (4,)]

    def test_unknown_qualified_column(self, engine):
        with pytest.raises(SQLRuntimeError, match="no such column"):
            _rows("SELECT a.nope FROM T0 a JOIN T0 b ON a.name = b.name")

    def test_qualified_and_suffix_resolve_case_insensitively(self, engine):
        frame = DataFrame({"k": ["x", "y"], "v": [1, 2]}, name="T0")
        other = DataFrame({"k": ["x", "y"], "w": [3, 4]}, name="T1")
        tables = {"T0": frame, "T1": other}
        result = execute_sql(
            "SELECT a.V, W FROM T0 a JOIN T1 b ON A.K = b.k ORDER BY w",
            tables)
        assert result.to_rows() == [(1, 3), (2, 4)]
        with pytest.raises(SQLRuntimeError, match="ambiguous column"):
            execute_sql("SELECT K FROM T0 a JOIN T1 b ON a.k = b.k",
                        tables)


class TestSingleTableResolution:
    def test_case_insensitive_fallback(self, engine):
        assert _rows("SELECT NAME, Score FROM T0 WHERE TEAM = 'blue'") \
            == [("b", None), ("d", None)]

    def test_missing_column_on_empty_frame_is_silent(self, engine):
        empty = DataFrame.empty(["name", "score"], name="T0")
        result = execute_sql("SELECT nope + 1 FROM T0 WHERE nope > 1",
                             {"T0": empty})
        assert result.num_rows == 0


class TestErrorTiming:
    def test_missing_column_with_no_rows_is_silent(self, engine):
        # Resolution failures must surface only when a row is evaluated
        # (the interpreter resolves per row; the compiler defers via a
        # raiser closure) — so an empty input stays silent on both paths.
        result = execute_sql("SELECT nope FROM T0 WHERE name = 'zzz'",
                             {"T0": _frame()})
        assert result.num_rows == 0
        assert result.columns == ["nope"]

    def test_missing_column_with_rows_raises(self, engine):
        with pytest.raises(SQLRuntimeError, match="no such column: nope"):
            _rows("SELECT nope FROM T0")

    def test_aggregate_in_where_raises(self, engine):
        with pytest.raises(SQLRuntimeError, match="outside GROUP BY"):
            _rows("SELECT name FROM T0 WHERE COUNT(*) > 1")

    def test_and_short_circuits_past_a_failing_right_side(self, engine):
        # name is never NULL, so the left side decides every row and the
        # unresolvable right side is never evaluated.
        assert _rows("SELECT name FROM T0 "
                     "WHERE name = 'zzz' AND nope = 1") == []

    def test_and_three_valued_values(self, engine):
        assert _rows("SELECT name, score > 5 AND name <> 'x' FROM T0") \
            == [("a", True), ("b", None), ("c", True), ("d", None),
                ("e", True)]

    def test_aggregate_in_row_context_raises(self, engine):
        # An aggregate's argument is evaluated per row.
        with pytest.raises(SQLRuntimeError, match="outside GROUP BY"):
            _rows("SELECT SUM(COUNT(*)) FROM T0")


class TestAggregates:
    def test_sum_skips_nulls(self, engine):
        assert _rows("SELECT SUM(score), SUM(score * 2) FROM T0") == \
            [(60, 120)]

    def test_count_distinct(self, engine):
        assert _rows("SELECT COUNT(DISTINCT team), COUNT(*) FROM T0") == \
            [(2, 5)]

    def test_group_concat_skips_nulls(self, engine):
        assert _rows("SELECT GROUP_CONCAT(mixed) FROM T0") == \
            [("5,40,x,7",)]

    def test_bare_column_reads_groups_first_row(self, engine):
        assert _rows("SELECT team, name FROM T0 GROUP BY team") == \
            [("red", "a"), ("blue", "b")]


class TestOrderByPosition:
    def test_column_number_sorts_by_output_column(self, engine):
        assert _rows("SELECT name FROM T0 ORDER BY 1 DESC") == \
            [("e",), ("d",), ("c",), ("b",), ("a",)]

    def test_parenthesized_and_signed_column_numbers(self, engine):
        assert _rows("SELECT name FROM T0 ORDER BY (1) DESC LIMIT 2") == \
            [("e",), ("d",)]
        assert _rows("SELECT name FROM T0 ORDER BY +1 DESC LIMIT 1") == \
            [("e",)]

    def test_column_number_after_group_by(self, engine):
        assert _rows("SELECT team, COUNT(*) FROM T0 "
                     "GROUP BY team ORDER BY 2 DESC") == \
            [("red", 3), ("blue", 2)]
        assert _rows("SELECT team, COUNT(*) FROM T0 "
                     "GROUP BY team ORDER BY 2") == \
            [("blue", 2), ("red", 3)]

    def test_real_and_expression_terms_stay_constant(self, engine):
        # 1.0 and 1+0 are not column numbers: every row ties, so the
        # (stable) sort keeps table order.
        assert _rows("SELECT name FROM T0 ORDER BY 1.0 DESC") == \
            _rows("SELECT name FROM T0")
        assert _rows("SELECT name FROM T0 ORDER BY 1 + 0 DESC") == \
            _rows("SELECT name FROM T0")

    @pytest.mark.parametrize("term", ["0", "-1", "2"])
    def test_out_of_range_raises_sqlite_message(self, engine, term):
        with pytest.raises(SQLRuntimeError) as info:
            _rows(f"SELECT name FROM T0 ORDER BY {term}")
        assert str(info.value) == ("1st ORDER BY term out of range - "
                                   "should be between 1 and 1")

    def test_out_of_range_names_the_term_even_with_no_rows(self, engine):
        with pytest.raises(SQLRuntimeError,
                           match="^2nd ORDER BY term out of range - "
                                 "should be between 1 and 2$"):
            _rows("SELECT team, COUNT(*) FROM T0 WHERE name = 'zzz' "
                  "GROUP BY team ORDER BY 1, 3")
