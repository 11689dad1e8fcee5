"""A from-scratch SQL engine over :mod:`repro.table` frames.

This is the pure-Python counterpart of the SQLite backend used by the SQL
executor.  It supports the single-table SELECT surface that LLM-generated
TQA queries use (WHERE / GROUP BY / HAVING / ORDER BY / LIMIT, aggregates,
scalar functions, CASE, CAST, LIKE, IN, BETWEEN).

Example::

    from repro.sqlengine import NativeSQLEngine
    engine = NativeSQLEngine({"T0": frame})
    result = engine.query(
        "SELECT Country, COUNT(*) AS n FROM T0 GROUP BY Country "
        "ORDER BY n DESC LIMIT 1")
"""

from repro.sqlengine.ast_nodes import (
    Between,
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    LikeOp,
    Literal,
    OrderItem,
    SelectItem,
    SelectStatement,
    Star,
    UnaryOp,
)
from repro.sqlengine.executor import (
    NativeSQLEngine,
    execute_select,
    execute_sql,
)
from repro.sqlengine.lexer import tokenize
from repro.sqlengine.parser import parse_expression, parse_select
from repro.sqlengine.plancache import (
    DEFAULT_PLAN_CACHE,
    PlanCache,
    parse_select_cached,
    plan_cache_enabled,
)

__all__ = [
    "NativeSQLEngine",
    "execute_select",
    "execute_sql",
    "parse_select",
    "parse_expression",
    "parse_select_cached",
    "plan_cache_enabled",
    "PlanCache",
    "DEFAULT_PLAN_CACHE",
    "tokenize",
    "Expression",
    "Literal",
    "ColumnRef",
    "Star",
    "UnaryOp",
    "BinaryOp",
    "FunctionCall",
    "InList",
    "Between",
    "IsNull",
    "LikeOp",
    "CaseWhen",
    "Cast",
    "SelectItem",
    "OrderItem",
    "SelectStatement",
]
