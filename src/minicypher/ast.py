"""Abstract syntax for expressions, patterns, clauses and queries.

All nodes are frozen dataclasses, hashable, and comparable by structure;
the optional source span never takes part in equality, so a parsed tree
equals a hand-built one.  Collections inside nodes are tuples/frozensets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .values import Value

Span = tuple[int, int]

# Relationship pattern directions: "->" left-to-right, "<-" right-to-left,
# "--" undirected.  graph.py imports them as its adjacency's OUT, IN and BOTH.
RIGHT = "->"
LEFT = "<-"
UNDIRECTED = "--"


@dataclass(frozen=True)
class AstNode:
    span: Optional[Span] = field(default=None, compare=False, repr=False, kw_only=True)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lit(AstNode):
    value: Value = None


@dataclass(frozen=True)
class Name(AstNode):
    name: str = ""


@dataclass(frozen=True)
class FnCall(AstNode):
    name: str = ""
    args: tuple["Expr", ...] = ()


@dataclass(frozen=True)
class Prop(AstNode):
    base: "Expr" = None  # type: ignore[assignment]
    key: str = ""


@dataclass(frozen=True)
class MapLit(AstNode):
    # Duplicate keys are allowed in a map *literal*; evaluation keeps the
    # last occurrence of each key.
    entries: tuple[tuple[str, "Expr"], ...] = ()


@dataclass(frozen=True)
class ListLit(AstNode):
    items: tuple["Expr", ...] = ()


@dataclass(frozen=True)
class Index(AstNode):
    base: "Expr" = None  # type: ignore[assignment]
    index: "Expr" = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Slice(AstNode):
    base: "Expr" = None  # type: ignore[assignment]
    lo: Optional["Expr"] = None
    hi: Optional["Expr"] = None


@dataclass(frozen=True)
class InList(AstNode):
    item: "Expr" = None  # type: ignore[assignment]
    container: "Expr" = None  # type: ignore[assignment]


@dataclass(frozen=True)
class StrOp(AstNode):
    op: str = ""  # "STARTS WITH" | "ENDS WITH" | "CONTAINS"
    left: "Expr" = None  # type: ignore[assignment]
    right: "Expr" = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Or(AstNode):
    left: "Expr" = None  # type: ignore[assignment]
    right: "Expr" = None  # type: ignore[assignment]


@dataclass(frozen=True)
class And(AstNode):
    left: "Expr" = None  # type: ignore[assignment]
    right: "Expr" = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Xor(AstNode):
    left: "Expr" = None  # type: ignore[assignment]
    right: "Expr" = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Not(AstNode):
    expr: "Expr" = None  # type: ignore[assignment]


@dataclass(frozen=True)
class IsNull(AstNode):
    expr: "Expr" = None  # type: ignore[assignment]
    negated: bool = False


@dataclass(frozen=True)
class Cmp(AstNode):
    op: str = "="  # one of < <= >= > = <>
    left: "Expr" = None  # type: ignore[assignment]
    right: "Expr" = None  # type: ignore[assignment]


Expr = Union[
    Lit, Name, FnCall, Prop, MapLit, ListLit, Index, Slice, InList,
    StrOp, Or, And, Xor, Not, IsNull, Cmp,
]


# The operators the parser chains left-deep without nesting (a AND b AND c,
# m.k.k, x[0][1], a IN b IN c, x IS NULL IS NULL), each with the field that
# holds its left operand.  The evaluator and unparser walk such chains
# iteratively.
LEFT_OPERAND = {
    Prop: "base", Index: "base", Slice: "base", IsNull: "expr",
    StrOp: "left", InList: "item", Or: "left", Xor: "left", And: "left",
}

# The expression operators by precedence level, loosest first: each level
# lists the token that starts an operator and the node it builds.  NOT is
# prefix, IS (NULL) and the last level postfix, the rest infix; comparison
# chains become conjunctions.  The parser climbs these levels, and the
# unparser and evaluator read levels and keywords from here.
OPERATORS = (
    (("OR", Or),),
    (("XOR", Xor),),
    (("AND", And),),
    (("NOT", Not),),
    (("IN", InList), ("STARTS", StrOp), ("ENDS", StrOp), ("CONTAINS", StrOp)),
    (("IS", IsNull),),
    (("<", Cmp), ("<=", Cmp), (">=", Cmp), (">", Cmp), ("=", Cmp), ("<>", Cmp)),
    ((".", Prop), ("[", Index), ("[", Slice)),
)


def expr_names(e: Expr) -> frozenset[str]:
    """The set of names an expression reads from the assignment."""
    names: set[str] = set()
    todo = [e]
    while todo:  # a worklist, so long chains need no recursion
        e = todo.pop()
        if isinstance(e, Name):
            names.add(e.name)
        elif isinstance(e, Lit):
            pass
        elif isinstance(e, FnCall):
            todo.extend(e.args)
        elif isinstance(e, Prop):
            todo.append(e.base)
        elif isinstance(e, (Not, IsNull)):
            todo.append(e.expr)
        elif isinstance(e, MapLit):
            todo.extend(sub for _, sub in e.entries)
        elif isinstance(e, ListLit):
            todo.extend(e.items)
        elif isinstance(e, Index):
            todo += (e.base, e.index)
        elif isinstance(e, Slice):
            todo.extend(x for x in (e.base, e.lo, e.hi) if x is not None)
        elif isinstance(e, InList):
            todo += (e.item, e.container)
        elif isinstance(e, (StrOp, Or, And, Xor, Cmp)):
            todo += (e.left, e.right)
        else:
            raise TypeError(f"not an expression: {e!r}")
    return frozenset(names)


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodePattern(AstNode):
    name: Optional[str] = None
    labels: frozenset[str] = frozenset()
    props: tuple[tuple[str, Expr], ...] = ()


@dataclass(frozen=True)
class RelPattern(AstNode):
    """A relationship pattern.

    ``range_`` is None when no length token was written — the pattern then
    matches exactly one relationship and a name binds the relationship id
    itself.  Otherwise ``range_`` is a (lo, hi) pair where either bound may
    be None (defaulting to 1 and unbounded respectively) and a name binds
    the list of traversed relationships.
    """

    direction: str = RIGHT
    name: Optional[str] = None
    types: frozenset[str] = frozenset()
    props: tuple[tuple[str, Expr], ...] = ()
    range_: Optional[tuple[Optional[int], Optional[int]]] = None


@dataclass(frozen=True)
class PathPattern(AstNode):
    # Alternating node/rel patterns; starts and ends with a NodePattern.
    elements: tuple[Union[NodePattern, RelPattern], ...] = ()
    name: Optional[str] = None

    def node_patterns(self) -> tuple[NodePattern, ...]:
        return self.elements[0::2]  # type: ignore[return-value]

    def rel_patterns(self) -> tuple[RelPattern, ...]:
        return self.elements[1::2]  # type: ignore[return-value]


@dataclass(frozen=True)
class PatternTuple(AstNode):
    paths: tuple[PathPattern, ...] = ()


def range_of(rel: RelPattern) -> tuple[int, Optional[int]]:
    """Effective (lo, hi) hop range; hi None means unbounded."""
    if rel.range_ is None:
        return (1, 1)
    lo, hi = rel.range_
    return (1 if lo is None else lo, hi)


def free_vars(pat: Union[NodePattern, RelPattern, PathPattern, PatternTuple]) -> frozenset[str]:
    """All non-nil names of the pattern, including path names."""
    paths = pat.paths if isinstance(pat, PatternTuple) else (pat,)
    parts = [x for p in paths for x in ((p, *p.elements) if isinstance(p, PathPattern) else (p,))]
    return frozenset(x.name for x in parts if x.name is not None)


# ---------------------------------------------------------------------------
# Clauses and queries
# ---------------------------------------------------------------------------

# A projection item: (expression, optional alias).
Item = tuple[Expr, Optional[str]]


@dataclass(frozen=True)
class Match(AstNode):
    patterns: PatternTuple = PatternTuple()
    optional: bool = False
    where: Optional[Expr] = None


@dataclass(frozen=True)
class With(AstNode):
    star: bool = False
    items: tuple[Item, ...] = ()
    where: Optional[Expr] = None


@dataclass(frozen=True)
class Unwind(AstNode):
    expr: Expr = None  # type: ignore[assignment]
    name: str = ""


Clause = Union[Match, With, Unwind]


@dataclass(frozen=True)
class Return(AstNode):
    star: bool = False
    items: tuple[Item, ...] = ()


@dataclass(frozen=True)
class ClauseQuery(AstNode):
    clauses: tuple[Clause, ...] = ()
    ret: Return = Return()


@dataclass(frozen=True)
class UnionQuery(AstNode):
    left: "Query" = None  # type: ignore[assignment]
    right: "Query" = None  # type: ignore[assignment]
    all: bool = False


Query = Union[ClauseQuery, UnionQuery]
