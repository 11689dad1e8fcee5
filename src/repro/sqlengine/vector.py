"""Column-at-a-time (vectorized) execution kernels for the SQL engine.

The interpreter (:mod:`repro.sqlengine.evaluator`) walks the expression
tree once *per row*.  This module lowers **total** expressions (see
:func:`repro.sqlengine.planner.is_total`) to whole-column kernels: one
Python-level loop per *operator* instead of per row, with
dtype-specialised fast paths for the hot comparison shapes.

Totality is what makes eager evaluation sound.  A column kernel
evaluates its operands on every row, including rows the row-at-a-time
engine would short-circuit past (``AND``/``OR``, CASE branches, IN
early-exit); for expressions that can never raise, the only observable
difference would be errors — and there are none.  The *values* of
SQLite's three-valued logic are combination functions of the operand
values, so eager masks combine to exactly the short-circuit results.
Anything non-total simply does not get a vector kernel
(:func:`compile_vector` returns None) and the caller runs the stage on
the interpreter, which stays the oracle; ``REPRO_SQL_VECTOR=0``
disables this layer entirely.

Kernels must be loop-per-operator, never loop-per-row-tuple: a tier-1
lint (``tools/lint_vector.py``) rejects ``for row in`` / ``to_rows()``
/ ``iter_rows()`` in this file.

Caching layers, innermost first:

* ``VectorContext.memo`` — per-execution common-subexpression reuse:
  one stage shares a context, so ``SELECT x*y, x*y + 1 ... ORDER BY
  x*y`` computes ``x*y`` once (AST nodes are frozen dataclasses and
  hash structurally).
* ``DataFrame.kernel_cache()`` — per-frame, cross-query reuse of
  computed columns, invalidated by
  ``DataFrame.__setitem__``.  Only full-range contexts read or write
  it; chunked scans (LIMIT short-circuit) stay out.
"""

from __future__ import annotations

import operator as _operator
import os

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
    UnaryOp,
)
from repro.sqlengine.evaluator import (
    COMPARISONS,
    _like_to_regex,
    _to_number,
    binary_values,
    cast_value,
    compare_values,
    is_truthy,
    unary_value,
)
from repro.sqlengine.functions import SCALAR_FUNCTIONS
from repro.sqlengine.planner import FrameShape, is_total, numeric_kind
from repro.table.frame import DataFrame
from repro.table.ops import aggregate_values
from repro.table.schema import ColumnType, is_missing
from repro.telemetry.metrics import GLOBAL_REGISTRY

__all__ = [
    "vector_enabled",
    "VectorContext",
    "compile_vector",
    "compile_group_vector",
    "distinct_indexes",
    "truthy_indexes",
]


def vector_enabled() -> bool:
    """True unless ``REPRO_SQL_VECTOR=0`` forces the interpreter."""
    return os.environ.get("REPRO_SQL_VECTOR", "1") != "0"


#: Dtypes whose non-missing values are bool/int/float — comparison and
#: arithmetic fast paths apply.
_NUMERIC_DTYPES = (ColumnType.NULL, ColumnType.BOOL, ColumnType.INTEGER,
                   ColumnType.REAL)


class VectorContext:
    """One stage's evaluation window over a frame.

    ``start``/``stop`` bound the row range (chunked LIMIT scans); the
    default covers the whole frame.  Columns are fetched once per
    resolved name, kernels index them positionally.
    """

    __slots__ = ("frame", "start", "stop", "length", "memo", "_full")

    def __init__(self, frame: DataFrame, start: int = 0,
                 stop: int | None = None):
        self.frame = frame
        self.start = start
        self.stop = frame.num_rows if stop is None else stop
        self.length = self.stop - self.start
        #: Per-execution CSE memo: AST node -> computed column.
        self.memo: dict = {}
        self._full = self.start == 0 and self.stop == frame.num_rows

    def column(self, name: str):
        values = self.frame.column(name).values
        if self._full:
            return values
        return values[self.start:self.stop]


def distinct_indexes(frame: DataFrame) -> list[int]:
    """First-occurrence indexes of distinct rows, column-at-a-time.

    Value-identical to :func:`repro.table.ops.distinct`'s row scan: keys
    pair each value with its type name, so ``1`` / ``1.0`` / ``True``
    stay distinct rows, and first-occurrence order is preserved.  One
    typed-key pass per *column* (loop-per-operator); dtype-homogeneous
    columns — the planner's common case — collapse that pass to a
    constant type tag.  The final membership scan fuses the key columns
    positionally without materialising row tuples.
    """
    names = frame.columns
    if not names or not frame.num_rows:
        return list(range(frame.num_rows))
    key_columns = []
    for name in names:
        values = frame.column(name).values
        key_columns.append(
            [(type(value).__name__, value) for value in values])
    seen: set = set()
    keep: list[int] = []
    if len(key_columns) == 1:
        column = key_columns[0]
        for index in range(len(column)):
            key = column[index]
            if key not in seen:
                seen.add(key)
                keep.append(index)
        return keep
    for index, key in enumerate(zip(*key_columns)):
        if key not in seen:
            seen.add(key)
            keep.append(index)
    return keep


def truthy_indexes(mask, base: int = 0) -> list[int]:
    """Indexes (offset by ``base``) where the mask value is SQL-truthy."""
    return [base + position for position, value in enumerate(mask)
            if value is True
            or (value is not None and value is not False
                and is_truthy(value))]


# --- entry points ------------------------------------------------------------


def compile_vector(expr: Expression, shape: FrameShape):
    """Compile ``expr`` to ``fn(ctx) -> sequence`` of per-row values.

    Returns None when no sound kernel exists — the expression is not
    provably total, so eager evaluation could surface errors the
    row-at-a-time engine never reaches.  Callers then run the whole
    stage on the interpreter.
    """
    if not is_total(expr, shape):
        return None
    fn = _compile_v(expr, shape)
    if fn is None:
        return None
    GLOBAL_REGISTRY.counter(
        "sqlengine.compiled_expressions",
        "expressions lowered to closures").inc(mode="vector")
    return fn


def _memoize(expr: Expression, fn):
    """Route a compound kernel through the context's CSE memo and the
    frame's cross-query kernel cache (full-range contexts only).

    Keys are ``repr(expr)``, not the node itself: dataclass equality
    rides Python ``==``, which conflates ``Literal(7)``, ``Literal(7.0)``
    and ``Literal(True)`` — distinct expressions that must not share a
    cached column.  ``repr`` spells each literal faithfully.
    """
    key = repr(expr)

    def memoized(ctx: VectorContext):
        hit = ctx.memo.get(key)
        if hit is not None:
            return hit
        if ctx._full:
            cache = ctx.frame.kernel_cache()
            hit = cache.get(key)
            if hit is None:
                hit = fn(ctx)
                if len(cache) < 64:
                    cache[key] = hit
        else:
            hit = fn(ctx)
        ctx.memo[key] = hit
        return hit

    return memoized


def _compile_v(expr: Expression, shape: FrameShape):
    """Inner lowering; assumes ``expr`` is total for ``shape``."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda ctx: [value] * ctx.length
    if isinstance(expr, ColumnRef):
        name = shape.resolve(expr)
        if name is None:
            return None
        return lambda ctx: ctx.column(name)
    if isinstance(expr, UnaryOp):
        return _compile_v_unary(expr, shape)
    if isinstance(expr, BinaryOp):
        return _compile_v_binary(expr, shape)
    if isinstance(expr, FunctionCall):
        return _compile_v_function(expr, shape)
    if isinstance(expr, InList):
        return _compile_v_in_list(expr, shape)
    if isinstance(expr, Between):
        return _compile_v_between(expr, shape)
    if isinstance(expr, IsNull):
        operand = _compile_v(expr.operand, shape)
        if operand is None:
            return None
        if expr.negated:
            def not_null(ctx):
                return [value is not None and value == value
                        for value in operand(ctx)]
            return _memoize(expr, not_null)

        def null(ctx):
            return [value is None or value != value
                    for value in operand(ctx)]
        return _memoize(expr, null)
    if isinstance(expr, LikeOp):
        return _compile_v_like(expr, shape)
    if isinstance(expr, CaseWhen):
        return _compile_v_case(expr, shape)
    if isinstance(expr, Cast):
        operand = _compile_v(expr.operand, shape)
        if operand is None:
            return None
        target = expr.target

        def cast(ctx):
            return [cast_value(value, target) for value in operand(ctx)]
        return _memoize(expr, cast)
    return None


def _compile_v_unary(expr: UnaryOp, shape: FrameShape):
    operand = _compile_v(expr.operand, shape)
    if operand is None:
        return None
    op = expr.op
    if op == "NOT":
        def vnot(ctx):
            return [None if value is None or value != value
                    else not is_truthy(value)
                    for value in operand(ctx)]
        return _memoize(expr, vnot)

    def unary(ctx):
        return [unary_value(op, value) for value in operand(ctx)]
    return _memoize(expr, unary)


# --- comparisons -------------------------------------------------------------

#: Reflected operator name for column-on-the-right comparisons.
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
            "=": "=", "<>": "<>"}

#: Eager numeric comparison ops (value semantics of ``compare_values``
#: restricted to two numeric-view operands).
_NUM_OPS = {
    "=": _operator.eq,
    "<>": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}


def _column_spec(node: Expression, shape: FrameShape):
    """(resolved name, dtype) for a plain column reference, else None."""
    if isinstance(node, ColumnRef):
        name = shape.resolve(node)
        if name is not None:
            return name, shape.dtype_of(node)
    return None


def _compile_v_binary(expr: BinaryOp, shape: FrameShape):
    op = expr.op
    if op in ("AND", "OR"):
        left = _compile_v(expr.left, shape)
        right = _compile_v(expr.right, shape)
        if left is None or right is None:
            return None
        if op == "AND":
            def vand(ctx):
                return [_and3(a, b)
                        for a, b in zip(left(ctx), right(ctx))]
            return _memoize(expr, vand)

        def vor(ctx):
            return [_or3(a, b) for a, b in zip(left(ctx), right(ctx))]
        return _memoize(expr, vor)

    comparison = COMPARISONS.get(op)
    if comparison is not None:
        fast = _comparison_fast_path(expr, shape)
        if fast is not None:
            return _memoize(expr, fast)
        left = _compile_v(expr.left, shape)
        right = _compile_v(expr.right, shape)
        if left is None or right is None:
            return None

        def compare(ctx):
            out = []
            for a, b in zip(left(ctx), right(ctx)):
                order = compare_values(a, b)
                out.append(None if order is None else comparison(order))
            return out
        return _memoize(expr, compare)

    left = _compile_v(expr.left, shape)
    right = _compile_v(expr.right, shape)
    if left is None or right is None:
        return None
    if isinstance(expr.right, Literal):
        scalar = expr.right.value

        def binary_scalar(ctx):
            return [binary_values(op, value, scalar)
                    for value in left(ctx)]
        return _memoize(expr, binary_scalar)

    def binary(ctx):
        return [binary_values(op, a, b)
                for a, b in zip(left(ctx), right(ctx))]
    return _memoize(expr, binary)


def _comparison_fast_path(expr: BinaryOp, shape: FrameShape):
    """Dtype-specialised kernels for the hot comparison shapes.

    ``col <op> literal`` (either side) over numeric columns compares
    eagerly with the Python operator — exactly ``compare_values`` for
    two numeric-view operands.  TEXT
    columns against non-numeric string literals replicate the
    type-class ordering branch.  ``col <op> col`` over two numeric
    columns compares positionally.  Anything else returns None and
    takes the generic ``compare_values`` loop.
    """
    op = expr.op
    left_col = _column_spec(expr.left, shape)
    right_col = _column_spec(expr.right, shape)

    if left_col and isinstance(expr.right, Literal):
        return _column_literal_cmp(op, left_col, expr.right.value)
    if right_col and isinstance(expr.left, Literal):
        return _column_literal_cmp(_FLIPPED[op], right_col,
                                   expr.left.value)
    if left_col and right_col \
            and left_col[1] in _NUMERIC_DTYPES \
            and right_col[1] in _NUMERIC_DTYPES:
        fn = _NUM_OPS[op]
        left_name, right_name = left_col[0], right_col[0]

        def col_col(ctx):
            return [None if a is None or a != a or b is None or b != b
                    else fn(a, b)
                    for a, b in zip(ctx.column(left_name),
                                    ctx.column(right_name))]
        return col_col
    return None


def _column_literal_cmp(op: str, col, literal):
    name, dtype = col
    fn = _NUM_OPS[op]
    if literal is None or literal != literal:
        return lambda ctx: [None] * ctx.length
    literal_num = _to_number(literal)
    if dtype in _NUMERIC_DTYPES and literal_num is not None:
        def numeric_cmp(ctx):
            return [None if value is None or value != value
                    else fn(value, literal_num)
                    for value in ctx.column(name)]
        return numeric_cmp
    if dtype is ColumnType.TEXT and isinstance(literal, str) \
            and literal_num is None:
        # compare_values with a non-numeric string on the right: numbers
        # order before text (order -1), everything else compares as text.
        below = fn(-1, 0)   # a numeric value vs text yields order -1

        def text_cmp(ctx):
            out = []
            for value in ctx.column(name):
                if value is None or value != value:
                    out.append(None)
                elif isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    out.append(below)
                else:
                    text = str(value)
                    out.append(fn((text > literal) - (text < literal), 0))
            return out
        return text_cmp
    return None


def _and3(a, b):
    """Eager SQLite AND: value-identical to the short-circuit form."""
    if (a is not None and a == a) and not is_truthy(a):
        return False
    if (b is not None and b == b) and not is_truthy(b):
        return False
    if a is None or a != a or b is None or b != b:
        return None
    return True


def _or3(a, b):
    """Eager SQLite OR: value-identical to the short-circuit form."""
    if (a is not None and a == a) and is_truthy(a):
        return True
    if (b is not None and b == b) and is_truthy(b):
        return True
    if a is None or a != a or b is None or b != b:
        return None
    return False


# --- remaining node kernels --------------------------------------------------


def _compile_v_function(expr: FunctionCall, shape: FrameShape):
    fn = SCALAR_FUNCTIONS.get(expr.name.lower())
    if fn is None:        # aggregates never reach here (not total in rows)
        return None
    args = [_compile_v(arg, shape) for arg in expr.args]
    if any(arg is None for arg in args):
        return None
    if not args:          # e.g. COALESCE() — constant per row
        def call_none(ctx):
            return [fn([]) for _ in range(ctx.length)]
        return _memoize(expr, call_none)
    if len(args) == 1:
        arg = args[0]

        def call_one(ctx):
            return [fn([value]) for value in arg(ctx)]
        return _memoize(expr, call_one)

    def call(ctx):
        return [fn(list(values))
                for values in zip(*(arg(ctx) for arg in args))]
    return _memoize(expr, call)


def _compile_v_in_list(expr: InList, shape: FrameShape):
    operand = _compile_v(expr.operand, shape)
    items = [_compile_v(item, shape) for item in expr.items]
    if operand is None or any(item is None for item in items):
        return None
    negated = expr.negated

    def in_list(ctx):
        candidate_columns = [item(ctx) for item in items]
        out = []
        for position, value in enumerate(operand(ctx)):
            if value is None or value != value:
                out.append(None)
                continue
            saw_null = False
            result = negated
            for candidates in candidate_columns:
                order = compare_values(value, candidates[position])
                if order is None:
                    saw_null = True
                elif order == 0:
                    result = not negated
                    break
            else:
                if saw_null:
                    result = None
            out.append(result)
        return out
    return _memoize(expr, in_list)


def _compile_v_between(expr: Between, shape: FrameShape):
    operand = _compile_v(expr.operand, shape)
    low = _compile_v(expr.low, shape)
    high = _compile_v(expr.high, shape)
    if operand is None or low is None or high is None:
        return None
    negated = expr.negated

    def between(ctx):
        out = []
        for value, low_value, high_value in zip(operand(ctx), low(ctx),
                                                high(ctx)):
            low_cmp = compare_values(value, low_value)
            high_cmp = compare_values(value, high_value)
            if low_cmp is None or high_cmp is None:
                out.append(None)
                continue
            inside = low_cmp >= 0 and high_cmp <= 0
            out.append((not inside) if negated else inside)
        return out
    return _memoize(expr, between)


def _compile_v_like(expr: LikeOp, shape: FrameShape):
    operand = _compile_v(expr.operand, shape)
    if operand is None:
        return None
    negated = expr.negated
    if isinstance(expr.pattern, Literal):
        if is_missing(expr.pattern.value):
            return _memoize(expr,
                            lambda ctx: [None] * ctx.length)
        regex = _like_to_regex(str(expr.pattern.value))

        def literal_like(ctx):
            out = []
            for value in operand(ctx):
                if value is None or value != value:
                    out.append(None)
                else:
                    matched = regex.match(str(value)) is not None
                    out.append((not matched) if negated else matched)
            return out
        return _memoize(expr, literal_like)
    pattern = _compile_v(expr.pattern, shape)
    if pattern is None:
        return None

    def like(ctx):
        out = []
        for value, pattern_value in zip(operand(ctx), pattern(ctx)):
            if value is None or value != value \
                    or pattern_value is None \
                    or pattern_value != pattern_value:
                out.append(None)
                continue
            matched = (_like_to_regex(str(pattern_value))
                       .match(str(value)) is not None)
            out.append((not matched) if negated else matched)
        return out
    return _memoize(expr, like)


def _compile_v_case(expr: CaseWhen, shape: FrameShape):
    whens = [(_compile_v(cond, shape), _compile_v(result, shape))
             for cond, result in expr.whens]
    if any(cond is None or result is None for cond, result in whens):
        return None
    default = None
    if expr.default is not None:
        default = _compile_v(expr.default, shape)
        if default is None:
            return None

    def case(ctx):
        # All branches evaluate eagerly (total), then each row picks the
        # first truthy condition — the interpreter's value per row.
        branch_columns = [(cond(ctx), result(ctx))
                          for cond, result in whens]
        default_column = default(ctx) if default is not None else None
        out = []
        for position in range(ctx.length):
            for cond_column, result_column in branch_columns:
                if is_truthy(cond_column[position]):
                    out.append(result_column[position])
                    break
            else:
                out.append(None if default_column is None
                           else default_column[position])
        return out
    return _memoize(expr, case)


# --- group (aggregate) vectorization -----------------------------------------


def compile_group_vector(expr: Expression, shape: FrameShape):
    """Compile a group-context expression to a two-phase kernel.

    Returns ``prepare(ctx) -> per_group(indexes) -> value`` or None.
    ``prepare`` computes every needed whole column once (CSE-shared via
    the context); ``per_group`` then reduces a group's row indexes to
    one value.  Mirrors ``GroupContext`` semantics exactly: aggregate
    arguments gather per group, bare (aggregate-free) subtrees take the
    group's first row, compound nodes combine per group through the
    same scalar kernels the interpreter uses.
    """
    if not is_total(expr, shape, group=True):
        return None
    prepare = _compile_gv(expr, shape)
    if prepare is None:
        return None
    GLOBAL_REGISTRY.counter(
        "sqlengine.compiled_expressions",
        "expressions lowered to closures").inc(mode="group_vector")
    return prepare


def _first_row_gv(expr: Expression, shape: FrameShape):
    column_fn = _compile_v(expr, shape)
    if column_fn is None:
        return None

    def prepare(ctx):
        column = column_fn(ctx)
        return lambda indexes: column[indexes[0]]
    return prepare


def _compile_gv(expr: Expression, shape: FrameShape):
    from repro.sqlengine.evaluator import expression_uses_aggregate
    if not expression_uses_aggregate(expr):
        return _first_row_gv(expr, shape)
    if isinstance(expr, FunctionCall):
        from repro.sqlengine.functions import is_aggregate_name
        if is_aggregate_name(expr.name):
            return _compile_gv_aggregate(expr, shape)
        parts = [_compile_gv(arg, shape) for arg in expr.args]
        if any(part is None for part in parts):
            return None
        fn = SCALAR_FUNCTIONS.get(expr.name.lower())
        if fn is None:
            return None

        def prepare(ctx):
            prepared = [part(ctx) for part in parts]
            return lambda indexes: fn(
                [part(indexes) for part in prepared])
        return prepare
    if isinstance(expr, UnaryOp):
        operand = _compile_gv(expr.operand, shape)
        if operand is None:
            return None
        op = expr.op

        def prepare(ctx):
            prepared = operand(ctx)
            return lambda indexes: unary_value(op, prepared(indexes))
        return prepare
    if isinstance(expr, BinaryOp):
        return _compile_gv_binary(expr, shape)
    if isinstance(expr, IsNull):
        operand = _compile_gv(expr.operand, shape)
        if operand is None:
            return None
        negated = expr.negated

        def prepare(ctx):
            prepared = operand(ctx)
            if negated:
                return lambda indexes: not is_missing(prepared(indexes))
            return lambda indexes: is_missing(prepared(indexes))
        return prepare
    if isinstance(expr, Cast):
        operand = _compile_gv(expr.operand, shape)
        if operand is None:
            return None
        target = expr.target

        def prepare(ctx):
            prepared = operand(ctx)
            return lambda indexes: cast_value(prepared(indexes), target)
        return prepare
    if isinstance(expr, CaseWhen):
        whens = [(_compile_gv(cond, shape), _compile_gv(result, shape))
                 for cond, result in expr.whens]
        if any(cond is None or result is None for cond, result in whens):
            return None
        default = None
        if expr.default is not None:
            default = _compile_gv(expr.default, shape)
            if default is None:
                return None

        def prepare(ctx):
            prepared = [(cond(ctx), result(ctx))
                        for cond, result in whens]
            prepared_default = default(ctx) if default is not None \
                else None

            def per_group(indexes):
                for cond_fn, result_fn in prepared:
                    if is_truthy(cond_fn(indexes)):
                        return result_fn(indexes)
                if prepared_default is not None:
                    return prepared_default(indexes)
                return None
            return per_group
        return prepare
    if isinstance(expr, (InList, Between, LikeOp)):
        return _compile_gv_generic(expr, shape)
    return None


def _compile_gv_binary(expr: BinaryOp, shape: FrameShape):
    left = _compile_gv(expr.left, shape)
    right = _compile_gv(expr.right, shape)
    if left is None or right is None:
        return None
    op = expr.op
    if op == "AND":
        def prepare_and(ctx):
            left_fn, right_fn = left(ctx), right(ctx)
            return lambda indexes: _and3(left_fn(indexes),
                                         right_fn(indexes))
        return prepare_and
    if op == "OR":
        def prepare_or(ctx):
            left_fn, right_fn = left(ctx), right(ctx)
            return lambda indexes: _or3(left_fn(indexes),
                                        right_fn(indexes))
        return prepare_or
    comparison = COMPARISONS.get(op)
    if comparison is not None:
        def prepare_cmp(ctx):
            left_fn, right_fn = left(ctx), right(ctx)

            def per_group(indexes):
                order = compare_values(left_fn(indexes),
                                       right_fn(indexes))
                return None if order is None else comparison(order)
            return per_group
        return prepare_cmp

    def prepare(ctx):
        left_fn, right_fn = left(ctx), right(ctx)
        return lambda indexes: binary_values(op, left_fn(indexes),
                                             right_fn(indexes))
    return prepare


def _compile_gv_generic(expr: Expression, shape: FrameShape):
    """IN/BETWEEN/LIKE over aggregates: combine per group via the
    evaluator's value semantics on the already-reduced operands."""
    if isinstance(expr, InList):
        operand = _compile_gv(expr.operand, shape)
        items = [_compile_gv(item, shape) for item in expr.items]
        if operand is None or any(item is None for item in items):
            return None
        negated = expr.negated

        def prepare(ctx):
            operand_fn = operand(ctx)
            item_fns = [item(ctx) for item in items]

            def per_group(indexes):
                value = operand_fn(indexes)
                if is_missing(value):
                    return None
                saw_null = False
                for item_fn in item_fns:
                    order = compare_values(value, item_fn(indexes))
                    if order is None:
                        saw_null = True
                    elif order == 0:
                        return not negated
                if saw_null:
                    return None
                return negated
            return per_group
        return prepare
    if isinstance(expr, Between):
        operand = _compile_gv(expr.operand, shape)
        low = _compile_gv(expr.low, shape)
        high = _compile_gv(expr.high, shape)
        if operand is None or low is None or high is None:
            return None
        negated = expr.negated

        def prepare(ctx):
            operand_fn, low_fn, high_fn = operand(ctx), low(ctx), \
                high(ctx)

            def per_group(indexes):
                value = operand_fn(indexes)
                low_cmp = compare_values(value, low_fn(indexes))
                high_cmp = compare_values(value, high_fn(indexes))
                if low_cmp is None or high_cmp is None:
                    return None
                inside = low_cmp >= 0 and high_cmp <= 0
                return (not inside) if negated else inside
            return per_group
        return prepare
    if isinstance(expr, LikeOp):
        operand = _compile_gv(expr.operand, shape)
        pattern = _compile_gv(expr.pattern, shape)
        if operand is None or pattern is None:
            return None
        negated = expr.negated

        def prepare(ctx):
            operand_fn, pattern_fn = operand(ctx), pattern(ctx)

            def per_group(indexes):
                value = operand_fn(indexes)
                pattern_value = pattern_fn(indexes)
                if is_missing(value) or is_missing(pattern_value):
                    return None
                matched = (_like_to_regex(str(pattern_value))
                           .match(str(value)) is not None)
                return (not matched) if negated else matched
            return per_group
        return prepare
    return None


def _compile_gv_aggregate(call: FunctionCall, shape: FrameShape):
    """One aggregate call as a two-phase kernel.

    The argument is computed as a whole column once (shared through the
    context memo with every other kernel in the stage); each group then
    gathers its rows' values and folds them — the same name
    normalisation, COUNT(*)/group_concat special cases, and DISTINCT
    dedupe as ``GroupContext.aggregate``.
    """
    from repro.sqlengine.ast_nodes import Star
    name = call.name.lower()
    if name == "total":
        name = "sum"
    if name == "count" and call.args and isinstance(call.args[0], Star):
        return lambda ctx: len
    if len(call.args) != 1:
        return None
    column_fn = _compile_v(call.args[0], shape)
    if column_fn is None:
        return None
    distinct = call.distinct

    if name == "group_concat":
        def prepare_concat(ctx):
            column = column_fn(ctx)

            def per_group(indexes):
                present = [str(column[i]) for i in indexes
                           if not (column[i] is None
                                   or column[i] != column[i])]
                return ",".join(present) if present else None
            return per_group
        return prepare_concat

    if not distinct and name in ("count", "sum", "avg") \
            and numeric_kind(call.args[0], shape) is not None:
        # Provably numeric-or-NULL argument: fold directly instead of
        # gathering a list and re-classifying every value inside
        # ``aggregate_values`` (its ``_numeric`` scan).  Semantics are
        # identical because the value domain is {None, bool, int, float}.
        return _numeric_fold(name, column_fn)

    def prepare(ctx):
        column = column_fn(ctx)

        def per_group(indexes):
            values = [column[i] for i in indexes]
            if distinct:
                seen, unique = set(), []
                for value in values:
                    key = (type(value).__name__, value)
                    if key not in seen:
                        seen.add(key)
                        unique.append(value)
                values = unique
            return aggregate_values(name, values)
        return per_group
    return prepare


def _numeric_fold(name: str, column_fn):
    """COUNT/SUM/AVG folds specialised to numeric-or-NULL columns.

    Mirrors ``_agg_count``/``_agg_sum``/``_agg_avg`` exactly on their
    post-``_numeric`` value domain: missing values skip, bools count as
    ints, SUM returns int iff every contributing value was integral,
    empty folds return NULL (COUNT returns 0).
    """
    if name == "count":
        def prepare_count(ctx):
            column = column_fn(ctx)

            def per_group(indexes):
                count = 0
                for i in indexes:
                    value = column[i]
                    if value is not None and value == value:
                        count += 1
                return count
            return per_group
        return prepare_count

    if name == "sum":
        def prepare_sum(ctx):
            column = column_fn(ctx)

            def per_group(indexes):
                total = 0
                count = 0
                has_float = False
                for i in indexes:
                    value = column[i]
                    if value is None or value != value:
                        continue
                    count += 1
                    if isinstance(value, float):
                        has_float = True
                    total += value
                if not count:
                    return None
                return total if has_float else int(total)
            return per_group
        return prepare_sum

    def prepare_avg(ctx):
        column = column_fn(ctx)

        def per_group(indexes):
            total = 0
            count = 0
            for i in indexes:
                value = column[i]
                if value is None or value != value:
                    continue
                total += value
                count += 1
            return total / count if count else None
        return per_group
    return prepare_avg
