"""minicypher: a reference interpreter for the read-only core of Cypher.

The package is layered bottom-up: values and graphs, tables (bags of
records), the AST, a parser with a canonical unparser, a three-valued
expression evaluator, the pattern matcher, the clause/query engine, and a
brute-force reference implementation with its differential harness.  The
reference side also holds the satisfaction relation and rigid expansion,
which the engine never runs.  The random case generator (`gen.py`) feeds
the harness through `gen_case`; `load_case` replays a case document that
`minicypher gen` writes.
"""

from .ast import free_vars
from .engine import output, run_clause, run_query
from .errors import (
    AliasClash,
    CypherError,
    DanglingEndpoint,
    DuplicateId,
    EvalError,
    FieldMismatch,
    GraphLoadError,
    NameClash,
    ParseError,
    SchemaError,
    StarOnEmptyFields,
)
from .evaluator import eq_values, eval_expr, is_true
from .gen import GenConfig
from .graph import PropertyGraph, load_graph
from .matcher import match_tuple
from .oracle import (
    differential_case,
    exhaustive_match,
    gen_case,
    load_case,
    oracle_match,
    oracle_output,
    rigid_patterns,
    satisfies_node,
    satisfies_path,
)
from .parser import (
    parse_expr,
    parse_pattern,
    parse_pattern_tuple,
    parse_query,
    unparse_expr,
    unparse_query,
)
from .tables import Record, Table, bag_union, distinct, unit_table
from .values import BASE_FUNCTIONS, Map, NodeId, Path, RelId, Value

__version__ = "0.1.0"

__all__ = [
    "AliasClash",
    "BASE_FUNCTIONS",
    "CypherError",
    "DanglingEndpoint",
    "DuplicateId",
    "EvalError",
    "FieldMismatch",
    "GenConfig",
    "GraphLoadError",
    "Map",
    "NameClash",
    "NodeId",
    "ParseError",
    "Path",
    "PropertyGraph",
    "Record",
    "RelId",
    "SchemaError",
    "StarOnEmptyFields",
    "Table",
    "Value",
    "bag_union",
    "differential_case",
    "distinct",
    "eq_values",
    "eval_expr",
    "exhaustive_match",
    "free_vars",
    "gen_case",
    "is_true",
    "load_case",
    "load_graph",
    "match_tuple",
    "oracle_match",
    "oracle_output",
    "output",
    "parse_expr",
    "parse_pattern",
    "parse_pattern_tuple",
    "parse_query",
    "rigid_patterns",
    "run_clause",
    "run_query",
    "satisfies_node",
    "satisfies_path",
    "unit_table",
    "unparse_expr",
    "unparse_query",
]
