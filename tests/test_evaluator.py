"""Expression evaluation: truth tables, the shared case battery, and
cross-cutting properties of equality and the connectives.
"""

import itertools

import pytest

from minicypher import ast
from minicypher.errors import EvalError
from minicypher.evaluator import (
    compare_values,
    eq_values,
    eval_expr,
    is_true,
    tri_and,
    tri_not,
    tri_or,
    tri_xor,
)
from minicypher.parser import parse_expr, unparse_expr
from minicypher.values import MAX_CELLS, MAX_DEPTH, Map, NodeId, Path, RelId, canon, same_value

from expr_cases import CASES, Err, build_env, build_graph

T, F, N = True, False, None


# ---------------------------------------------------------------------------
# Truth tables, cell by cell
# ---------------------------------------------------------------------------

OR_TABLE = {
    (T, T): T, (T, F): T, (T, N): T,
    (F, T): T, (F, F): F, (F, N): N,
    (N, T): T, (N, F): N, (N, N): N,
}

AND_TABLE = {
    (T, T): T, (T, F): F, (T, N): N,
    (F, T): F, (F, F): F, (F, N): F,
    (N, T): N, (N, F): F, (N, N): N,
}

XOR_TABLE = {
    (T, T): F, (T, F): T, (T, N): N,
    (F, T): T, (F, F): F, (F, N): N,
    (N, T): N, (N, F): N, (N, N): N,
}

NOT_TABLE = {T: F, F: T, N: N}

_LIT = {T: "true", F: "false", N: "null"}


def test_or_table():
    for (a, b), want in OR_TABLE.items():
        assert tri_or(a, b) is want
        assert eval_expr(parse_expr(f"{_LIT[a]} OR {_LIT[b]}"), build_graph(), {}) is want


def test_and_table():
    for (a, b), want in AND_TABLE.items():
        assert tri_and(a, b) is want
        assert eval_expr(parse_expr(f"{_LIT[a]} AND {_LIT[b]}"), build_graph(), {}) is want


def test_xor_table():
    for (a, b), want in XOR_TABLE.items():
        assert tri_xor(a, b) is want
        assert eval_expr(parse_expr(f"{_LIT[a]} XOR {_LIT[b]}"), build_graph(), {}) is want


def test_not_table():
    for a, want in NOT_TABLE.items():
        assert tri_not(a) is want
        assert eval_expr(parse_expr(f"NOT {_LIT[a]}"), build_graph(), {}) is want


def test_de_morgan_holds_in_trilean_logic():
    for a, b in itertools.product((T, F, N), repeat=2):
        assert tri_not(tri_and(a, b)) is tri_or(tri_not(a), tri_not(b))
        assert tri_not(tri_or(a, b)) is tri_and(tri_not(a), tri_not(b))


def test_xor_differs_from_or_and_composition_on_null():
    # XOR is null-dominant; it is *not* (a OR b) AND NOT (a AND b) at nulls.
    assert tri_xor(T, N) is N
    assert tri_and(tri_or(T, N), tri_not(tri_and(T, N))) is N  # happens to agree here
    assert tri_xor(F, N) is N
    assert tri_and(tri_or(F, N), tri_not(tri_and(F, N))) is N


# Every pair of binary connectives, nested on the left and on the right.
# Precedence, loosest first, is OR < XOR < AND.
_CONNECTIVES = {ast.Or: (0, OR_TABLE), ast.Xor: (1, XOR_TABLE), ast.And: (2, AND_TABLE)}


@pytest.mark.parametrize("outer,inner", list(itertools.product(_CONNECTIVES, repeat=2)),
                         ids=lambda c: c.__name__)
@pytest.mark.parametrize("side", ["left", "right"])
def test_connective_nesting_round_trips_and_evaluates(outer, inner, side):
    (outer_level, outer_table), (inner_level, inner_table) = _CONNECTIVES[outer], _CONNECTIVES[inner]
    a, b, c = ast.Name("a"), ast.Name("b"), ast.Name("c")
    if side == "left":
        tree = outer(inner(a, b), c)
        needs_parens = inner_level < outer_level
    else:
        tree = outer(a, inner(b, c))
        needs_parens = inner_level <= outer_level
    text = unparse_expr(tree)
    assert parse_expr(text) == tree, text
    assert ("(" in text) == needs_parens, text
    g = build_graph()
    for va, vb, vc in itertools.product((T, F, N), repeat=3):
        if side == "left":
            want = outer_table[inner_table[va, vb], vc]
        else:
            want = outer_table[va, inner_table[vb, vc]]
        assert eval_expr(parse_expr(text), g, {"a": va, "b": vb, "c": vc}) is want, (text, va, vb, vc)


# ---------------------------------------------------------------------------
# The shared case battery
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("src,expected", CASES, ids=[c[0] for c in CASES])
def test_expression_case(src, expected):
    g = build_graph()
    env = build_env()
    e = parse_expr(src)
    if isinstance(expected, Err):
        with pytest.raises(EvalError) as exc:
            eval_expr(e, g, env)
        if expected.kind is not None:
            assert exc.value.kind == expected.kind
    else:
        got = eval_expr(e, g, env)
        assert canon(got) == canon(expected), f"{src}: {got!r} != {expected!r}"


def test_battery_is_large_enough():
    assert len(CASES) >= 60


# ---------------------------------------------------------------------------
# Equality as a three-valued relation
# ---------------------------------------------------------------------------

_N1, _N2, _R1 = NodeId("n1"), NodeId("n2"), RelId("r1")

# A pool of values whose pairwise equality exercises every type pairing.
VALUE_POOL = [
    None, True, False, 0, 1, "", "a",
    _N1, _N2, _R1,
    (), (1,), (1, None), (None,),
    Map(()), Map((("a", 1),)), Map((("a", None),)),
    Path((_N1,), ()), Path((_N1, _N2), (_R1,)),
]


def _eq_or_err(a, b):
    try:
        return ("val", eq_values(a, b))
    except EvalError as exc:
        return ("err", exc.kind)


def test_equality_is_symmetric_across_the_pool():
    for a, b in itertools.product(VALUE_POOL, repeat=2):
        assert _eq_or_err(a, b) == _eq_or_err(b, a), (a, b)


def test_equality_is_reflexive_modulo_null():
    # v = v is true unless v contains null somewhere, in which case null.
    for v in VALUE_POOL:
        kind, got = _eq_or_err(v, v)
        assert kind == "val"
        assert got in (True, None)


def test_null_equals_anything_is_null():
    for v in VALUE_POOL:
        if v is None:
            continue
        assert eq_values(None, v) is None
        assert eq_values(v, None) is None


def test_ids_and_paths_are_equal_exactly_when_they_are_the_same_value():
    # ids are interned and their classes closed, so = on two ids or two
    # paths (each pair built apart) is structural identity
    def path(*keys):
        return Path(tuple(NodeId(k) for k in keys[0::2]), tuple(RelId(k) for k in keys[1::2]))

    pools = [["n1", "n2"], ["r1", "r2", "n1"], [("n1",), ("n2",), ("n1", "r1", "n2"), ("n2", "r1", "n1"),
                                                ("n1", "r2", "n2"), ("n1", "r1", "n2", "r2", "n1")]]
    builds = [NodeId, RelId, lambda k: path(*k)]
    for keys, build in zip(pools, builds):
        for a, b in itertools.product(keys, repeat=2):
            assert eq_values(build(a), build(b)) is same_value(build(a), build(b)) is (a == b)


def test_composite_vs_scalar_is_false_not_error():
    for comp in [(), (1,), Map(()), Path((_N1,), ())]:
        for scalar in [True, 0, "a", _N1]:
            assert eq_values(comp, scalar) is False


def test_in_agrees_with_equality_fold():
    # x IN list must behave exactly like a strict OR-fold of x = e over the
    # elements (errors included), with false for the empty list.
    g = build_graph()
    items = [0, 1, None, True, "a"]
    for x in items:
        for xs in itertools.permutations(items, 2):
            outcomes = [_eq_or_err(x, w) for w in xs]
            expr = parse_expr("probe IN container")
            env = {"probe": x, "container": tuple(xs)}
            if any(kind == "err" for kind, _ in outcomes):
                with pytest.raises(EvalError):
                    eval_expr(expr, g, env)
                continue
            got = eval_expr(expr, g, env)
            if any(v is True for _, v in outcomes):
                assert got is True
            elif any(v is None for _, v in outcomes):
                assert got is None
            else:
                assert got is False


def test_comparison_null_propagation_and_types():
    assert compare_values("<", None, None) is None
    assert compare_values("<=", 1, None) is None
    assert compare_values(">", None, "a") is None
    with pytest.raises(EvalError):
        compare_values("<", 1, "a")
    with pytest.raises(EvalError):
        compare_values("<", True, False)


def test_is_true_is_strict():
    assert is_true(True)
    for v in (False, None, 1, "true", (), Map(())):
        assert not is_true(v)


@pytest.mark.parametrize("src,message", [
    ("1 = true", "no equality between int and bool"),
    ("1 < 'a'", "no order between int and str"),
    ("true < false", "no order between bool and bool"),
    ("NOT 1", "NOT expects booleans, got int"),
    ("true AND 1", "AND expects booleans, got int"),
    ("[1][true]", "indexing expects an integer, got bool"),
    ("[1][0..'a']", "slicing expects an integer, got str"),
    ("1 IN 'a'", "IN expects a list, got str"),
    ("1 STARTS WITH 'a'", "STARTS WITH expects strings, got int"),
    ("(1).k", "cannot read property `k` of a int"),
    ("plus(true, 1)", "plus() expects integers"),
    ("plus(1, 'a')", "plus() expects integers, got 1, 'a'"),
    ("size(1)", "size() expects a list or string, got 1"),
], ids=lambda x: x)
def test_type_mismatch_messages(src, message):
    with pytest.raises(EvalError) as exc:
        eval_expr(parse_expr(src), build_graph(), {})
    assert (exc.value.kind, exc.value.message) == ("TypeMismatch", message)


def test_errors_carry_spans():
    e = parse_expr("1 = 'a'")
    with pytest.raises(EvalError) as exc:
        eval_expr(e, build_graph(), {})
    assert exc.value.span is not None
    with pytest.raises(EvalError) as exc:
        eval_expr(parse_expr("  missing  "), build_graph(), {})
    assert exc.value.span == (2, 9)


def _nest(depth, wrap):
    v = 1
    for _ in range(depth):
        v = wrap(v)
    return v


@pytest.mark.parametrize("src, wrap", [
    ("[x]", lambda v: (v,)),
    ("[0, 'a', x, null]", lambda v: (v,)),
    ("{k: x}", lambda v: Map((("k", v),))),
    ("{j: [], k: x}", lambda v: Map((("k", v),))),
], ids=lambda x: x if isinstance(x, str) else "")
def test_literals_nest_at_most_max_depth(src, wrap):
    # x is MAX_DEPTH - 1 deep, the literal's other elements at most 1
    e = parse_expr(src)
    assert eval_expr(e, build_graph(), {"x": _nest(MAX_DEPTH - 1, wrap)}) is not None
    with pytest.raises(EvalError) as exc:
        eval_expr(e, build_graph(), {"x": _nest(MAX_DEPTH, wrap)})
    assert (exc.value.kind, exc.value.span) == ("TooDeep", (0, len(src)))


def test_a_shared_value_is_walked_once_per_level():
    # 2 ** 40 leaves, but one list per level: judged too large without
    # being expanded.  At 13 levels, [x, x] expands to 2 ** 15 - 2 cells.
    e = parse_expr("[x, x]")
    with pytest.raises(EvalError) as exc:
        eval_expr(e, build_graph(), {"x": _nest(40, lambda v: (v, v))})
    assert (exc.value.kind, exc.value.span) == ("TooLarge", (0, 6))
    x = _nest(13, lambda v: (v, v))
    assert eval_expr(e, build_graph(), {"x": x}) == (x, x)


@pytest.mark.parametrize("src, others", [("[x, x]", 2), ("{j: x, k: x}", 2), ("[x, [x]]", 3), ("[{k: x}, x]", 3)])
def test_literals_expand_to_at_most_max_cells(src, others):
    # A literal's cells are those of each use of x, plus its elements' own.
    e = parse_expr(src)
    n = (MAX_CELLS - others) // 2
    assert eval_expr(e, build_graph(), {"x": (0,) * n}) is not None
    with pytest.raises(EvalError) as exc:
        eval_expr(e, build_graph(), {"x": (0,) * (n + 1)})
    assert (exc.value.kind, exc.value.span) == ("TooLarge", (0, len(src)))


def test_a_flat_literal_holds_at_most_max_cells():
    for n, raises in [(MAX_CELLS, False), (MAX_CELLS + 1, True)]:
        e = ast.ListLit(tuple(ast.Lit(i % 3) for i in range(n)))
        if raises:
            with pytest.raises(EvalError, match="TooLarge"):
                eval_expr(e, build_graph(), {})
        else:
            assert len(eval_expr(e, build_graph(), {})) == n
