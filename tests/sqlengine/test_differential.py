"""Randomized differential test: vectorized vs interpreted.

A seeded query generator builds hundreds of SELECTs over
:mod:`repro.datasets.tablegen` frames — filters, grouped aggregates
(single- and multi-key), HAVING (including pushable key conjuncts),
ORDER BY (by expression, alias and column number), GROUP BY column
numbers, LIMIT/OFFSET, scalar functions, CASE, self-joins, inner and
LEFT joins against a second table, and deliberately broken
references — and asserts both execution tiers agree *exactly*: same
columns, same rows, and for failing queries the same error class and
message.

The two tiers:

* default            — vectorized kernels + plan rewrites, falling back
  to the interpreter per stage
* REPRO_SQL_VECTOR=0 — the tree-walking interpreter alone (ground truth)

Each frame also runs as a NULL-heavy variant (~30% of cells nulled) so
NULL propagation through masks, join keys, and group keys is exercised
everywhere, not just where the generator happens to place a NULL.
"""

import os
import random

import pytest

from repro.datasets.tablegen import generate_table
from repro.sqlengine import execute_sql
from repro.table import DataFrame

QUERIES_PER_FRAME = 80
FRAME_SEEDS = (101, 202, 303, 404)

#: Env-var overlays for the two execution tiers.
MODES = (
    ("vector", {}),
    ("interpreted", {"REPRO_SQL_VECTOR": "0"}),
)


def _numeric_columns(frame: DataFrame) -> list[str]:
    names = []
    for name in frame.columns:
        values = [v for v in frame.column(name).values if v is not None]
        if values and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in values):
            names.append(name)
    return names


def _text_columns(frame: DataFrame) -> list[str]:
    names = []
    for name in frame.columns:
        values = [v for v in frame.column(name).values if v is not None]
        if values and all(isinstance(v, str) for v in values):
            names.append(name)
    return names


def _literal_from(rng: random.Random, frame: DataFrame,
                  column: str) -> str:
    values = [v for v in frame.column(column).values
              if isinstance(v, str) and "'" not in v]
    if not values:
        return "'zzz'"
    return "'" + rng.choice(values) + "'"


def _predicate(rng: random.Random, frame: DataFrame,
               numeric: list[str], text: list[str]) -> str:
    num = rng.choice(numeric)
    col = rng.choice(text)
    kind = rng.randrange(8)
    if kind == 0:
        return f"{num} > {rng.randint(0, 120)}"
    if kind == 1:
        low = rng.randint(0, 50)
        return f"{num} BETWEEN {low} AND {low + rng.randint(0, 60)}"
    if kind == 2:
        return f"{col} = {_literal_from(rng, frame, col)}"
    if kind == 3:
        return f"{col} LIKE '%{rng.choice('aeiou')}%'"
    if kind == 4:
        return f"{num} IS {'NOT ' if rng.random() < 0.5 else ''}NULL"
    if kind == 5:
        return (f"{num} > {rng.randint(0, 60)} AND "
                f"{col} IS NOT NULL")
    if kind == 6:
        return (f"{num} < {rng.randint(10, 90)} OR "
                f"{col} LIKE '{rng.choice('ABCDM')}%'")
    return f"{num} IN ({rng.randint(0, 9)}, {rng.randint(10, 99)}, NULL)"


def _random_query(rng: random.Random, frame: DataFrame) -> str:
    numeric = _numeric_columns(frame)
    text = _text_columns(frame)
    cat = rng.choice(text)
    num = rng.choice(numeric)
    key = text[0]  # T1.Key is built from the first text column
    shape = rng.randrange(15)
    if shape == 0:
        return (f"SELECT * FROM T0 "
                f"WHERE {_predicate(rng, frame, numeric, text)}")
    if shape == 1:
        columns = ", ".join(rng.sample(frame.columns,
                                       rng.randint(1, len(frame.columns))))
        return (f"SELECT {columns} FROM T0 "
                f"ORDER BY {num} {'DESC' if rng.random() < 0.5 else 'ASC'} "
                f"LIMIT {rng.randint(1, 12)}")
    if shape == 2:
        agg = rng.choice(["SUM", "AVG", "MIN", "MAX", "COUNT"])
        return (f"SELECT {cat}, COUNT(*) AS n, {agg}({num}) FROM T0 "
                f"GROUP BY {cat} ORDER BY n DESC, {cat}")
    if shape == 3:
        return (f"SELECT {cat}, SUM({num}) AS s FROM T0 "
                f"WHERE {_predicate(rng, frame, numeric, text)} "
                f"GROUP BY {cat} HAVING s > {rng.randint(0, 80)} "
                f"ORDER BY s DESC")
    if shape == 4:
        return (f"SELECT MIN({num}), MAX({num}), AVG({num}), "
                f"COUNT(DISTINCT {cat}) FROM T0")
    if shape == 5:
        return f"SELECT DISTINCT {cat} FROM T0 ORDER BY {cat}"
    if shape == 6:
        cutoff = rng.randint(10, 80)
        return (f"SELECT {cat}, CASE WHEN {num} > {cutoff} THEN 'hi' "
                f"WHEN {num} IS NULL THEN 'none' ELSE 'lo' END "
                f"FROM T0 LIMIT {rng.randint(2, 10)}")
    if shape == 7:
        return (f"SELECT UPPER({cat}), LENGTH({cat}), "
                f"{num} * 2 + 1, {num} / {rng.randrange(3)} FROM T0 "
                f"ORDER BY {num} LIMIT 6")
    if shape == 8:
        return (f"SELECT a.{cat}, b.{num} FROM T0 a JOIN T0 b "
                f"ON a.{cat} = b.{cat} ORDER BY b.{num}, a.{cat} "
                f"LIMIT 8")
    if shape == 9:
        # LEFT JOIN against the derived lookup table: NULL-extended
        # right sides must survive projection and filters identically.
        return (f"SELECT a.{key}, b.Idx FROM T0 a LEFT JOIN T1 b "
                f"ON a.{key} = b.Key "
                f"WHERE a.{num} IS NOT NULL "
                f"ORDER BY a.{num} LIMIT {rng.randint(3, 10)}")
    if shape == 10:
        # Inner join with single-owner WHERE conjuncts on both sides —
        # the planner's join-pushdown shape.
        return (f"SELECT a.{key}, a.{num}, b.Idx FROM T0 a JOIN T1 b "
                f"ON a.{key} = b.Key "
                f"WHERE a.{num} > {rng.randint(0, 60)} "
                f"AND b.Idx < {rng.randint(1, 8)} "
                f"ORDER BY a.{num}, b.Idx")
    if shape == 11:
        # Multi-key GROUP BY over mixed dtypes (text + numeric keys).
        return (f"SELECT {cat}, {num}, COUNT(*) AS n FROM T0 "
                f"GROUP BY {cat}, {num} ORDER BY n DESC, {cat}, {num}")
    if shape == 12:
        # HAVING mixing a pushable key-only conjunct with an aggregate
        # one — the planner's having-pushdown shape.
        return (f"SELECT {cat}, SUM({num}) AS s FROM T0 "
                f"GROUP BY {cat} "
                f"HAVING {cat} IS NOT NULL AND s > {rng.randint(0, 60)} "
                f"ORDER BY {cat}")
    if shape == 13:
        # LIMIT/OFFSET over a filter with no ORDER BY — the planner's
        # scan short-circuit shape.
        return (f"SELECT {num}, {cat} FROM T0 "
                f"WHERE {_predicate(rng, frame, numeric, text)} "
                f"LIMIT {rng.randint(1, 6)} OFFSET {rng.randint(0, 3)}")
    if shape == 14:
        # Multi-column DISTINCT over mixed dtypes — the vectorized
        # dedupe's fused typed-key path (1 vs 1.0 vs TRUE must stay
        # distinct, first-occurrence order preserved pre-ORDER BY).
        return (f"SELECT DISTINCT {cat}, {num} FROM T0 "
                f"ORDER BY {cat}, {num} LIMIT {rng.randint(3, 12)}")
    # Deliberately broken references: error parity matters too.
    return rng.choice([
        "SELECT missing_col FROM T0",
        f"SELECT {num} FROM T0 WHERE nope > 3",
        f"SELECT SUM({num}, {num}) FROM T0",
        "SELECT * FROM T_missing",
        f"SELECT {cat} FROM T0 WHERE COUNT(*) > 1",
    ])


def _position_queries(rng: random.Random, frame: DataFrame) -> list[str]:
    """ORDER BY and GROUP BY column numbers, in and out of range."""
    num = rng.choice(_numeric_columns(frame))
    cat = rng.choice(_text_columns(frame))
    return [
        f"SELECT {num}, {cat} FROM T0 ORDER BY 1 DESC, 2",
        f"SELECT {cat}, COUNT(*) AS n FROM T0 GROUP BY {cat} "
        f"ORDER BY 2 DESC, (1)",
        f"SELECT {cat} FROM T0 ORDER BY 1.0, 1 + 0, +1 DESC",
        f"SELECT {num}, {cat} FROM T0 ORDER BY {num}, "
        f"{rng.choice([0, -1, 3])}",
        f"SELECT {cat}, COUNT(*) AS n FROM T0 GROUP BY 1 ORDER BY 2 DESC",
        f"SELECT {cat}, {num}, SUM({num}) FROM T0 GROUP BY (1), +2",
        f"SELECT {cat}, COUNT(*) FROM T0 GROUP BY 1.0",
        f"SELECT {cat}, COUNT(*) FROM T0 GROUP BY "
        f"{rng.choice([0, -1, 2, 3])}",
    ]


def _lookup_table(frame: DataFrame) -> DataFrame:
    """A small T1 keyed on T0's first text column (plus one miss row)."""
    key = _text_columns(frame)[0]
    distinct: list[str] = []
    seen: set[str] = set()
    for value in frame.column(key).values:
        if isinstance(value, str) and value not in seen:
            seen.add(value)
            distinct.append(value)
    return DataFrame({
        "Key": distinct + ["__no_such_key__"],
        "Idx": list(range(len(distinct))) + [None],
    }, name="T1")


def _null_heavy(frame: DataFrame, seed: int) -> DataFrame:
    rng = random.Random(seed)
    return DataFrame({
        name: [None if rng.random() < 0.3 else value
               for value in frame.column(name).values]
        for name in frame.columns
    }, name=frame.name)


def _outcome(sql: str, catalog, env: dict) -> tuple:
    saved = os.environ.pop("REPRO_SQL_VECTOR", None)
    os.environ.update(env)
    try:
        result = execute_sql(sql, catalog)
        return ("ok", result.columns, result.to_rows())
    except Exception as exc:  # noqa: BLE001 - error parity is the point
        return ("error", type(exc).__name__, str(exc))
    finally:
        os.environ.pop("REPRO_SQL_VECTOR", None)
        if saved is not None:
            os.environ["REPRO_SQL_VECTOR"] = saved


@pytest.mark.parametrize("nulled", [False, True],
                         ids=["dense", "null_heavy"])
@pytest.mark.parametrize("frame_seed", FRAME_SEEDS)
def test_three_tiers_agree(frame_seed, nulled):
    frame = generate_table(random.Random(frame_seed), num_rows=14).frame
    if nulled:
        frame = _null_heavy(frame, frame_seed + 11)
    catalog = {"T0": frame, "T1": _lookup_table(frame)}
    rng = random.Random(frame_seed * 7 + 1)
    queries = [_random_query(rng, frame) for _ in range(QUERIES_PER_FRAME)]
    queries += _position_queries(rng, frame)
    succeeded = 0
    for sql in queries:
        outcomes = [(name, _outcome(sql, catalog, env))
                    for name, env in MODES]
        baseline = outcomes[0][1]
        for name, outcome in outcomes[1:]:
            assert outcome == baseline, f"{name} diverged on: {sql}"
        if baseline[0] == "ok":
            succeeded += 1
    # The generator must mostly produce *valid* queries, or the
    # equivalence claim is hollow.
    assert succeeded >= QUERIES_PER_FRAME * 0.6


def test_total_query_count_meets_floor():
    assert QUERIES_PER_FRAME * len(FRAME_SEEDS) >= 240
