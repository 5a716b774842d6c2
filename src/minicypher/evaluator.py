"""Expression evaluation: values under an assignment, in three-valued logic.

``eval_expr(e, g, u)`` produces the value of ``e`` over graph ``g`` with the
names of ``e`` bound by the record ``u``.  The semantics is deliberately
partial: where no rule applies to the operand types at hand (``1 AND 2``,
slicing an integer, ordering a node id) evaluation raises
:class:`~minicypher.errors.EvalError` with kind ``TypeMismatch`` rather than
inventing a result.  The partiality sites are catalogued in
``docs/semantics-notes.md``.

The trilean domain is {True, False, None}; None doubles as the null value.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Optional

from . import ast
from .errors import EvalError, type_mismatch, unknown_name
from .graph import PropertyGraph
from .tables import Record
from .values import MAX_CELLS, MAX_DEPTH, UNTAGGED, FunctionRegistry, Map, Value, apply_base_fn, kind

Trilean = Optional[bool]


# ---------------------------------------------------------------------------
# Trilean connectives (exact truth tables)
# ---------------------------------------------------------------------------


def tri_not(a: Trilean) -> Trilean:
    return None if a is None else not a


def tri_and(a: Trilean, b: Trilean) -> Trilean:
    if a is False or b is False:
        return False
    if a is True and b is True:
        return True
    return None


def tri_or(a: Trilean, b: Trilean) -> Trilean:
    if a is True or b is True:
        return True
    if a is False and b is False:
        return False
    return None


def tri_xor(a: Trilean, b: Trilean) -> Trilean:
    # Unlike AND/OR, XOR cannot absorb null: any null operand wins.
    if a is None or b is None:
        return None
    return a is not b


# ---------------------------------------------------------------------------
# Value equality and ordering
# ---------------------------------------------------------------------------

_COMPOSITE = ("list", "map", "path")


def eq_values(a: Value, b: Value) -> Trilean:
    """The trilean ``=`` on values.

    Null on either side makes the comparison null.  Values of the same type
    compare by that type's rule (lists and maps element-wise trilean, any
    other kind two-valued by ``==``).  A composite against a value of any
    other type is false; two different non-composite types have no equality
    rule and raise TypeMismatch.
    """
    if a is None or b is None:
        return None
    ta, tb = kind(a), kind(b)
    if ta != tb:
        if ta in _COMPOSITE or tb in _COMPOSITE:
            return False
        raise type_mismatch(f"no equality between {ta} and {tb}")
    if ta not in ("list", "map"):
        return a == b  # ids are interned, and a path is a sequence of them
    if ta == "list":
        if len(a) != len(b):
            return False
        return _all_true([eq_values(x, y) for x, y in zip(a, b)])
    # maps
    if a.keys != b.keys:  # covers different key counts too
        return False
    return _all_true([eq_values(a.get(k), b.get(k)) for k in sorted(a.keys)])


def _all_true(ts: list[Trilean]) -> Trilean:
    """The AND-fold of element-wise results.  Callers compare every pair
    first, so a type error in any pair raises even after a false one."""
    return reduce(tri_and, ts, True)


_ORDER_OPS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, ">": operator.gt}


def compare_values(op: str, a: Value, b: Value) -> Trilean:
    """Ordering comparison: null-propagating, defined on int/int and str/str."""
    if a is None or b is None:
        return None
    ka, kb = kind(a), kind(b)
    if ka == kb and ka in ("int", "str"):
        return _ORDER_OPS[op](a, b)
    raise type_mismatch(f"no order between {ka} and {kb}")


def is_true(v: Value) -> bool:
    """Exactly the trilean true (not 1, not a truthy value)."""
    return v is True


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------


def _need(v: Value, kinds: tuple[str, ...], what: str, noun: str) -> Value:
    """``v`` itself when its kind is one of ``kinds``, else the TypeMismatch
    "<what> expects <noun>, got <kind>"."""
    k = kind(v)
    if k in kinds:
        return v
    raise type_mismatch(f"{what} expects {noun}, got {k}")


def _as_trilean(v: Value, what: str) -> Trilean:
    return _need(v, ("null", "bool"), what, "booleans")


def _need_list(v: Value, what: str) -> tuple:
    return _need(v, ("list",), what, "a list")


def _need_int(v: Value, what: str) -> int:
    return _need(v, ("int",), what, "an integer")


# Each binary connective: its keyword in ast.OPERATORS (for type errors) and its truth table.
_TRUTH_TABLES = {ast.Or: tri_or, ast.Xor: tri_xor, ast.And: tri_and}
_CONNECTIVES = {node: (word, _TRUTH_TABLES[node])
                for ops in ast.OPERATORS for word, node in ops if node in _TRUTH_TABLES}


def eval_expr(
    e: ast.Expr,
    g: PropertyGraph,
    u: Record,
    functions: FunctionRegistry | None = None,
) -> Value:
    """The value of ``e``.  An EvalError takes the span of the innermost
    expression whose own rule raised it: each rule raises unplaced, and
    the error is placed here (or, for a chained operator, in
    ``_eval_chain``) unless an inner expression already placed it."""
    if type(e) in _CHAIN_RULES:
        return _eval_chain(e, g, u, functions)
    try:
        if isinstance(e, ast.Lit):
            return e.value

        if isinstance(e, ast.Name):
            if e.name not in u:
                raise unknown_name(e.name)
            return u[e.name]

        if isinstance(e, ast.FnCall):
            args = tuple(eval_expr(a, g, u, functions) for a in e.args)
            return apply_base_fn(e.name, args, functions)

        if isinstance(e, ast.MapLit):
            # Evaluate every entry (so errors in shadowed entries still surface);
            # the last occurrence of each key wins.
            last = {k: eval_expr(sub, g, u, functions) for k, sub in e.entries}
            return _shallow(Map(tuple(last.items())), last.values())

        if isinstance(e, ast.ListLit):
            items = tuple(eval_expr(sub, g, u, functions) for sub in e.items)
            return _shallow(items, items)

        if isinstance(e, ast.Not):
            return tri_not(_as_trilean(eval_expr(e.expr, g, u, functions), "NOT"))

        if isinstance(e, ast.Cmp):
            left = eval_expr(e.left, g, u, functions)
            right = eval_expr(e.right, g, u, functions)
            if e.op == "=":
                return eq_values(left, right)
            if e.op == "<>":
                return tri_not(eq_values(left, right))
            return compare_values(e.op, left, right)
    except EvalError as exc:
        if exc.span is None:
            exc.span = e.span
        raise

    raise TypeError(f"not an expression: {e!r}")


_FLAT = UNTAGGED | {bool}  # exact types holding no value


def _shallow(v: Value, elements) -> Value:
    """v, a list or map just built from elements, unless it nests deeper
    than MAX_DEPTH or expands to more than MAX_CELLS cells: walked level by
    level when an element holds a value, each element shared within a level
    once, weighted by its number of uses."""
    flat = _FLAT.issuperset(map(type, elements))
    level, cells = ({}, len(elements)) if flat else ({id(v): [v, 1]}, 0)
    for _ in range(MAX_DEPTH + 1):
        if cells > MAX_CELLS:
            raise EvalError("TooLarge", f"value has more than {MAX_CELLS} cells")
        if not level:
            return v
        below: dict[int, list] = {}  # id -> [value, uses]
        for x, uses in level.values():
            xs = [w for _, w in x.entries] if isinstance(x, Map) else x
            cells += uses * len(xs)
            for y in xs:
                if isinstance(y, (tuple, Map)):
                    below.setdefault(id(y), [y, 0])[1] += uses
        level = below
    raise EvalError("TooDeep", f"value nests deeper than {MAX_DEPTH} levels")


def _eval_chain(e: ast.Expr, g: PropertyGraph, u: Record, functions: FunctionRegistry | None) -> Value:
    """A left-deep chain (``a AND b AND c``, ``m.k.k``, ``x[0][1]``, ``a IN
    b IN c`` …), walked iteratively: only its right operands recurse, so
    its length is unbounded."""
    chain = []
    while type(e) in _CHAIN_RULES:
        chain.append(e)
        e = getattr(e, ast.LEFT_OPERAND[type(e)])
    v = eval_expr(e, g, u, functions)
    for node in reversed(chain):
        try:
            v = _CHAIN_RULES[type(node)](node, v, g, u, functions)
        except EvalError as exc:  # placed as eval_expr places it
            if exc.span is None:
                exc.span = node.span
            raise
    return v


# The rules of the chained operators, each given the value of its left operand.


def _prop(e: ast.Prop, base: Value, g: PropertyGraph, u: Record, functions) -> Value:
    k = kind(base)
    if k == "null":
        return None
    if k in ("node", "rel"):
        return g.prop(base, e.key)
    if k == "map":
        return base.get(e.key)  # null when the key is absent
    raise type_mismatch(f"cannot read property `{e.key}` of a {k}")


def _index(e: ast.Index, base: Value, g: PropertyGraph, u: Record, functions) -> Value:
    base = _need_list(base, "indexing")
    i = _need_int(eval_expr(e.index, g, u, functions), "indexing")
    m = len(base)
    if 0 <= i < m:
        return base[i]
    if -m <= i < 0:
        return base[m + i]
    return None  # out of range (and every index into an empty list)


def _slice(e: ast.Slice, base: Value, g: PropertyGraph, u: Record, functions) -> Value:
    base = _need_list(base, "slicing")
    m = len(base)
    lo = 0 if e.lo is None else _need_int(eval_expr(e.lo, g, u, functions), "slicing")
    hi = m if e.hi is None else _need_int(eval_expr(e.hi, g, u, functions), "slicing")
    i = lo if lo >= 0 else m + lo
    j = hi if hi >= 0 else m + hi
    if i <= j and i < m and j > 0:
        return base[max(0, i):min(m, j)]
    return ()


def _in_list(e: ast.InList, item: Value, g: PropertyGraph, u: Record, functions) -> Value:
    container = _need_list(eval_expr(e.container, g, u, functions), "IN")
    ts = [eq_values(item, w) for w in container]
    return reduce(tri_or, ts, False)  # the OR-fold: false on the empty list


def _str_op(e: ast.StrOp, left: Value, g: PropertyGraph, u: Record, functions) -> Value:
    right = eval_expr(e.right, g, u, functions)
    for v in (left, right):
        _need(v, ("null", "str"), e.op, "strings")
    if left is None or right is None:
        return None
    if e.op == "STARTS WITH":
        return left.startswith(right)
    if e.op == "ENDS WITH":
        return left.endswith(right)
    return right in left  # CONTAINS


def _connective(e, left: Value, g: PropertyGraph, u: Record, functions) -> Value:
    word, table = _CONNECTIVES[type(e)]
    a = _as_trilean(left, word)
    b = _as_trilean(eval_expr(e.right, g, u, functions), word)
    return table(a, b)


def _is_null(e: ast.IsNull, v: Value, g: PropertyGraph, u: Record, functions) -> Value:
    return (v is not None) if e.negated else (v is None)


# Each chained operator's rule (see ast.LEFT_OPERAND).
_CHAIN_RULES = {
    ast.Prop: _prop, ast.Index: _index, ast.Slice: _slice, ast.InList: _in_list,
    ast.StrOp: _str_op, ast.IsNull: _is_null, **{node: _connective for node in _CONNECTIVES},
}
