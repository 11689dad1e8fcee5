"""Tests for the scalar SQL functions."""

import pytest

from repro.errors import SQLRuntimeError
from repro.sqlengine.functions import call_scalar, is_aggregate_name


class TestDispatch:
    def test_case_insensitive(self):
        assert call_scalar("LOWER", ["AbC"]) == "abc"

    def test_unknown_function(self):
        with pytest.raises(SQLRuntimeError):
            call_scalar("nope", [1])

    def test_aggregate_names(self):
        assert is_aggregate_name("COUNT")
        assert is_aggregate_name("sum")
        assert not is_aggregate_name("lower")


class TestAbs:
    def test_basic(self):
        assert call_scalar("abs", [-3]) == 3

    def test_null(self):
        assert call_scalar("abs", [None]) is None

    def test_numeric_string(self):
        assert call_scalar("abs", ["-2.5"]) == 2.5

    def test_non_numeric_raises(self):
        with pytest.raises(SQLRuntimeError):
            call_scalar("abs", ["abc"])

    def test_wrong_arity(self):
        with pytest.raises(SQLRuntimeError):
            call_scalar("abs", [1, 2])


class TestStringFunctions:
    def test_lower_upper(self):
        assert call_scalar("lower", ["AbC"]) == "abc"
        assert call_scalar("upper", ["AbC"]) == "ABC"

    def test_lower_of_number(self):
        assert call_scalar("lower", [42]) == "42"

    def test_length(self):
        assert call_scalar("length", ["abc"]) == 3
        assert call_scalar("length", [None]) is None

    def test_substr_one_based(self):
        assert call_scalar("substr", ["hello", 2]) == "ello"

    def test_substr_with_length(self):
        assert call_scalar("substr", ["hello", 2, 3]) == "ell"

    def test_substr_negative_start(self):
        assert call_scalar("substr", ["hello", -3]) == "llo"

    def test_substr_negative_start_with_length(self):
        # The paper's SQL-fallback extraction pattern.
        assert call_scalar("substr", ["Valverde (ESP)", -4, 3]) == "ESP"

    def test_substr_zero_start(self):
        assert call_scalar("substr", ["abc", 0]) == "abc"

    def test_substr_negative_length(self):
        assert call_scalar("substr", ["abc", 1, -1]) == ""

    def test_substring_alias(self):
        assert call_scalar("substring", ["abc", 2]) == "bc"

    def test_replace(self):
        assert call_scalar("replace", ["a-b-c", "-", "+"]) == "a+b+c"

    def test_replace_empty_needle(self):
        assert call_scalar("replace", ["abc", "", "x"]) == "abc"

    def test_trim_variants(self):
        assert call_scalar("trim", ["  x  "]) == "x"
        assert call_scalar("ltrim", ["  x "]) == "x "
        assert call_scalar("rtrim", [" x  "]) == " x"

    def test_trim_with_chars(self):
        assert call_scalar("trim", ["xxaxx", "x"]) == "a"

    def test_instr_one_based(self):
        assert call_scalar("instr", ["hello", "ll"]) == 3
        assert call_scalar("instr", ["hello", "zz"]) == 0


class TestNumericFunctions:
    def test_round(self):
        assert call_scalar("round", [2.567, 1]) == 2.6

    def test_round_default_digits(self):
        # Half away from zero, as in SQLite (not Python's half-to-even).
        assert call_scalar("round", [2.5]) == 3.0
        assert call_scalar("round", [-2.5]) == -3.0

    def test_round_null_digits_is_null(self):
        assert call_scalar("round", [2.5, None]) is None

    def test_sqrt(self):
        assert call_scalar("sqrt", [9]) == 3.0

    def test_sqrt_negative_raises(self):
        with pytest.raises(SQLRuntimeError):
            call_scalar("sqrt", [-1])

    def test_floor_ceil(self):
        assert call_scalar("floor", [2.7]) == 2
        assert call_scalar("ceil", [2.1]) == 3
        assert call_scalar("ceiling", [2.1]) == 3


class TestNullHandlers:
    def test_coalesce(self):
        assert call_scalar("coalesce", [None, None, 3, 4]) == 3
        assert call_scalar("coalesce", [None]) is None

    def test_nullif(self):
        assert call_scalar("nullif", [1, 1]) is None
        assert call_scalar("nullif", [1, 2]) == 1

    def test_ifnull(self):
        assert call_scalar("ifnull", [None, 5]) == 5
        assert call_scalar("ifnull", [3, 5]) == 3
