"""Clause and query semantics: tables in, tables out.

A query denotes a transformation of tables; running a query means applying
that transformation to the unit table (one empty record).  Clauses compose
left to right.  Everything here is bag-preserving: a row of multiplicity k
behaves exactly like k copies of the row.
"""

from __future__ import annotations

from typing import Callable

from . import ast
from .ast import expr_names, free_vars
from .errors import AliasClash, FieldMismatch, NameClash, StarOnEmptyFields
from .evaluator import eval_expr, is_true
from .graph import PropertyGraph
from .matcher import match_tuple, plan_match
from .parser import unparse_expr
from .tables import Record, Row, Table, bag_union, distinct, getter, tally, unit_table
from .values import FunctionRegistry, canon


def _reader(es: list[ast.Expr], t: Table) -> Callable[[Row], Record]:
    """The function from a row of t to the record that the expressions es
    read: the row's cells at the fields they name (at every field, when t
    has one field or no row).  A name that is no field raises when read,
    whatever else the record holds."""
    names = fields = t.fields
    if len(names) > 1 and not t.is_empty():  # drop the fields es do not read
        read = set().union(*map(expr_names, es))
        names = [f for f in fields if f in read]
    if len(names) == 1:
        f, i = names[0], fields.index(names[0])
        return lambda u: {f: u[i]}
    get = getter([fields.index(f) for f in names])
    return lambda u: dict(zip(names, get(u)))


def _joined(fields: tuple[str, ...], out: tuple[str, ...]) -> Callable[[Row], Row]:
    """The permutation that puts a row over fields, an input row joined
    with an extension, in the field order out of the output."""
    return getter([fields.index(f) for f in out])


def _match_rows(
    c: ast.Match,
    g: PropertyGraph,
    t: Table,
    functions: FunctionRegistry | None,
) -> Table:
    """MATCH / OPTIONAL MATCH; the matcher applies the WHERE to each witness."""
    plan = out = None  # planned at the first row, so an empty input plans nothing
    memo: dict[tuple, Table] = {}
    for u, count in t.tuples():
        if plan is None:
            plan = plan_match(c, t.fields)
            relevant = getter([t.fields.index(f) for f in plan.relevant])  # the cells the bag reads
        # The filtered match bag depends on the row only through the fields
        # the plan reads, so memoize per restriction of the row to them.
        cells = relevant(u)
        key = tuple([canon(v) for v in cells])
        sub = memo.get(key)
        if sub is None:
            sub = memo[key] = match_tuple(plan, g, dict(zip(plan.relevant, cells)), functions)
        if count == 1 and not t.fields and not (c.optional and sub.is_empty()):
            return sub  # the one empty row joins its match bag as it is
        if out is None:
            out = Table(t.fields + plan.fields)
            joined, padding = _joined(t.fields + plan.fields, out.fields), (None,) * len(plan.fields)
        for u2, c2 in sub.tuples():  # distinct rows joined with distinct extensions
            out.add_new(joined(u + u2), count * c2)
        if c.optional and sub.is_empty():
            out.add_new(joined(u + padding), count)
    return out if out is not None else Table(set(t.fields) | free_vars(c.patterns))


def _project(
    star: bool,
    items: tuple[ast.Item, ...],
    g: PropertyGraph,
    t: Table,
    functions: FunctionRegistry | None,
) -> Table:
    """Shared projection rule of WITH and RETURN."""
    # (output name, the input field it reads or the expression it
    # evaluates): a bare name of an input field is read, not evaluated
    fields = set(t.fields)
    pairs: list[tuple[str, str | ast.Expr]] = []
    if star:
        if not t.fields:
            raise StarOnEmptyFields("* requires the table to have at least one field")
        pairs += zip(t.fields, t.fields)  # t.fields is sorted
    for expr, alias in items:
        cell = expr.name if isinstance(expr, ast.Name) and expr.name in fields else expr
        pairs.append((alias if alias is not None else unparse_expr(expr), cell))
    names = [a for a, _ in pairs]
    dupes = sorted({a for a in names if names.count(a) > 1})
    if dupes:  # at the first item that repeats a name
        later = next(i for i, a in enumerate(names) if a in names[:i]) - len(names) + len(items)
        raise AliasClash(f"duplicate output name(s): {dupes}", span=items[later][0].span)
    if not names:
        raise AliasClash("projection with no output names")
    if len(pairs) == len(fields) and all(a == c for a, c in pairs):
        return t  # every field read into itself: the identity
    # each item's input position, or the expression it evaluates, in item
    # order, and the items in the output's field order
    cells = [t.fields.index(c) if type(c) is str else c for _, c in pairs]
    exprs = [c for c in cells if type(c) is not int]
    out = Table(names, ids=t.ids and not exprs)
    at = [names.index(f) for f in out.fields]  # the items in the output's field order
    if not exprs:  # one getter per row
        get = getter([cells[i] for i in at])
        for u, count in t.tuples():
            out.add(get(u), count)
        return out
    order, read = getter(at), _reader(exprs, t)
    for u, count in t.tuples():
        record = read(u)
        out.add(order([u[c] if type(c) is int else eval_expr(c, g, record, functions) for c in cells]), count)
    return out


def run_clause(
    c: ast.Clause,
    g: PropertyGraph,
    t: Table,
    functions: FunctionRegistry | None = None,
) -> Table:
    if isinstance(c, ast.Match):
        return _match_rows(c, g, t, functions)

    if isinstance(c, ast.With):
        out = _project(c.star, c.items, g, t, functions)
        if c.where is None:
            return out
        kept, read = Table(out.fields), _reader([c.where], out)
        for u, count in out.tuples():  # a subset of distinct rows
            if is_true(eval_expr(c.where, g, read(u), functions)):
                kept.add_new(u, count)
        return kept

    if isinstance(c, ast.Unwind):
        if c.name in t.fields:
            raise NameClash(f"UNWIND alias `{c.name}` is already a field", span=c.span)
        out, read = Table(t.fields + (c.name,)), _reader([c.expr], t)
        at = out.fields.index(c.name)
        for u, count in t.tuples():
            v = eval_expr(c.expr, g, read(u), functions)
            head, tail = u[:at], u[at:]
            # rows of distinct input rows, or of distinct elements, differ in a cell
            for x, n in tally(v if isinstance(v, tuple) else (v,)):  # a non-list value unwinds to itself
                out.add_new(head + (x,) + tail, count * n)
        return out

    raise TypeError(f"not a clause: {c!r}")


def run_query(
    q: ast.Query,
    g: PropertyGraph,
    t: Table,
    functions: FunctionRegistry | None = None,
) -> Table:
    if isinstance(q, ast.UnionQuery):
        # Every branch transforms the same incoming table.  A left-deep
        # chain of UNIONs is folded left to right, one branch at a time.
        chain = []
        while isinstance(q, ast.UnionQuery):
            chain.append(q)
            q = q.left
        out = run_query(q, g, t, functions)
        for union in reversed(chain):
            right = run_query(union.right, g, t, functions)
            try:
                combined = bag_union(out, right)
            except FieldMismatch as exc:
                exc.span = union.right.span  # the branch whose fields differ
                raise
            out = combined if union.all else distinct(combined)
        return out
    if isinstance(q, ast.ClauseQuery):
        cur = t
        for c in q.clauses:
            cur = run_clause(c, g, cur, functions)
        return _project(q.ret.star, q.ret.items, g, cur, functions)
    raise TypeError(f"not a query: {q!r}")


def output(q: ast.Query, g: PropertyGraph, functions: FunctionRegistry | None = None) -> Table:
    """The result of q over g: the query transformation applied to T_unit."""
    return run_query(q, g, unit_table(), functions)
