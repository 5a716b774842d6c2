"""Clause and query semantics over tables."""

import hashlib

import pytest

from minicypher import ast, engine
from minicypher.cli import render_counted_json, render_tsv
from minicypher.errors import (
    AliasClash,
    CypherError,
    EvalError,
    FieldMismatch,
    NameClash,
    StarOnEmptyFields,
)
from minicypher.engine import output, run_clause, run_query
from minicypher.graph import load_graph
from minicypher.oracle import GenConfig, gen_case, oracle_output, oracle_run_query
from minicypher.parser import parse_query
from minicypher.tables import Table, unit_table
from minicypher.values import Map, NodeId, RelId, canon


def n(i):
    return NodeId(f"n{i}")


def clause_of(text):
    """First clause of a query (parsed in context)."""
    q = parse_query(f"{text} RETURN 1 AS one")
    return q.clauses[0]


def rows(t):
    return sorted((tuple(sorted(u.items(), key=lambda kv: kv[0])), c) for u, c in t.rows())


# ---------------------------------------------------------------------------
# MATCH
# ---------------------------------------------------------------------------


def test_match_extends_each_input_row(teachers):
    t = Table(["x"], [{"x": n(1)}, {"x": n(3)}])
    got = run_clause(clause_of("MATCH (x)-[:KNOWS]->(y)"), teachers, t)
    assert got == Table(["x", "y"], [
        {"x": n(1), "y": n(2)},
        {"x": n(3), "y": n(4)},
    ])


def test_match_multiplies_input_multiplicity(teachers):
    t = Table(["x"])
    t.add({"x": n(1)}, count=3)
    got = run_clause(clause_of("MATCH (x)-[:KNOWS]->(y)"), teachers, t)
    assert got.multiplicity({"x": n(1), "y": n(2)}) == 3


def test_match_where_filters(teachers):
    got = output(parse_query(
        "MATCH (x)-[:KNOWS]->(y) WHERE x.k = 1 RETURN x"), teachers)
    assert got.is_empty()  # no node has a k property


def test_where_keeps_only_true(teachers):
    # false, null, and defined non-boolean values all drop the row
    for cond, expect in [("true", 4), ("false", 0), ("null", 0), ("5", 0), ("'a'", 0)]:
        q = parse_query(f"MATCH (x) WITH x WHERE {cond} RETURN x")
        assert output(q, teachers).total_rows() == expect, cond


def test_where_error_propagates(teachers):
    q = parse_query("MATCH (x) WHERE 1 < 'a' RETURN x")
    with pytest.raises(EvalError):
        output(q, teachers)


def test_match_on_empty_input_stays_empty(teachers):
    t = Table(["x"])  # no rows
    got = run_clause(clause_of("MATCH (x)-[:KNOWS]->(y)"), teachers, t)
    assert got.is_empty()
    assert got.fields == ("x", "y")


# A check that reads a name neither the input nor the pattern binds raises
# where it first runs.  The error surfaces at the first structural
# completion; where there is none, MATCH gives no rows and OPTIONAL MATCH
# its padded row.  (match, whether the pattern needs a relationship)
UNBOUND_CHECKS = [
    ("MATCH (a) WHERE zz = 1", False),
    ("MATCH (a {k: zz})", False),
    ("MATCH (a)-[r {w: zz}]->(b)", True),
    ("MATCH (a)-[*1..2 {w: zz}]->(b)", True),
]
NO_NODE = {"nodes": [], "relationships": []}
ONE_NODE = {"nodes": [{"id": "n1", "labels": [], "properties": {"k": 1}}], "relationships": []}
ONE_EDGE = {
    "nodes": [{"id": "n1", "labels": [], "properties": {}}, {"id": "n2", "labels": [], "properties": {}}],
    "relationships": [{"id": "r1", "type": "t", "src": "n1", "tgt": "n2", "properties": {"w": 1}}],
}


@pytest.mark.parametrize("evaluate", [output, oracle_output], ids=["engine", "oracle"])
@pytest.mark.parametrize("match,needs_rel", UNBOUND_CHECKS, ids=[m for m, _ in UNBOUND_CHECKS])
@pytest.mark.parametrize("optional", [False, True], ids=["match", "optional"])
def test_a_check_reading_an_unbound_name_raises_at_a_completion(evaluate, match, needs_rel, optional):
    text = ("OPTIONAL " if optional else "") + match + " RETURN a"
    for doc, completes in [(NO_NODE, False), (ONE_NODE, not needs_rel), (ONE_EDGE, True)]:
        g = load_graph(doc)
        if completes:
            with pytest.raises(EvalError) as info:
                evaluate(parse_query(text), g)
            start = text.index("zz")
            assert (info.value.kind, info.value.span) == ("UnknownName", (start, start + 2))
        else:
            assert rows(evaluate(parse_query(text), g)) == ([((("a", None),), 1)] if optional else [])


# ---------------------------------------------------------------------------
# OPTIONAL MATCH
# ---------------------------------------------------------------------------


def test_optional_match_pads_with_nulls(teachers):
    # n4 has no outgoing KNOWS edge
    t = Table(["x"], [{"x": n(1)}, {"x": n(4)}])
    got = run_clause(clause_of("OPTIONAL MATCH (x)-[:KNOWS]->(y)"), teachers, t)
    assert got == Table(["x", "y"], [
        {"x": n(1), "y": n(2)},
        {"x": n(4), "y": None},
    ])


def test_optional_match_preserves_every_input_row(teachers):
    q = parse_query("MATCH (x) OPTIONAL MATCH (x)-[:NOPE]->(y) RETURN x, y")
    got = output(q, teachers)
    assert got.total_rows() == 4
    assert all(u["y"] is None for u in got.records())


def test_optional_match_padding_keeps_multiplicity(teachers):
    t = Table(["x"])
    t.add({"x": n(4)}, count=2)
    got = run_clause(clause_of("OPTIONAL MATCH (x)-[:KNOWS]->(y)"), teachers, t)
    assert got.multiplicity({"x": n(4), "y": None}) == 2


def test_optional_match_where_failing_all_rows_pads(teachers):
    # matches exist but WHERE kills them: the row is padded, not dropped
    t = Table(["x"], [{"x": n(1)}])
    got = run_clause(clause_of("OPTIONAL MATCH (x)-[q]->(y) WHERE false"), teachers, t)
    assert got == Table(["q", "x", "y"], [{"x": n(1), "q": None, "y": None}])


def test_optional_match_on_unit_table(teachers):
    got = output(parse_query("OPTIONAL MATCH (x:Nope) RETURN x"), teachers)
    assert got == Table(["x"], [{"x": None}])


# ---------------------------------------------------------------------------
# WITH / RETURN projection
# ---------------------------------------------------------------------------


def test_with_projects_and_renames(teachers):
    q = parse_query("MATCH (x:Student) WITH x.k AS k, x AS node RETURN k, node")
    got = output(q, teachers)
    assert got == Table(["k", "node"], [{"k": None, "node": n(2)}])


def test_with_drops_old_fields(teachers):
    q = parse_query("MATCH (x) WITH x.k AS k WHERE x IS NULL RETURN k")
    with pytest.raises(EvalError) as exc:
        output(q, teachers)
    assert exc.value.kind == "UnknownName"


def test_with_star_expands_all_fields(teachers):
    q = parse_query("MATCH (b)-[:KNOWS]->(a) WITH * RETURN *")
    got = output(q, teachers)
    assert got.fields == ("a", "b")
    assert got.total_rows() == 3


def test_with_star_plus_items(teachers):
    q = parse_query("MATCH (x:Student) WITH *, 1 AS one RETURN x, one")
    assert output(q, teachers) == Table(["one", "x"], [{"x": n(2), "one": 1}])


def _ab():
    return Table(["a", "b"], [{"a": 1, "b": 2}, {"a": 1, "b": 2}, {"a": 3, "b": None}])


@pytest.mark.parametrize("text", ["RETURN a, b", "RETURN b, a", "RETURN a AS a, b", "RETURN *"])
def test_an_identity_projection_passes_its_table_through(teachers, text):
    t = _ab()
    assert run_query(parse_query(text), teachers, t) is t
    assert run_clause(clause_of(text.replace("RETURN", "WITH")), teachers, t) is t


@pytest.mark.parametrize("text, want", [
    ("RETURN a AS b", [({"b": 1}, 2), ({"b": 3}, 1)]),
    ("RETURN b AS a, a AS b", [({"a": 2, "b": 1}, 2), ({"a": None, "b": 3}, 1)]),
    ("RETURN a", [({"a": 1}, 2), ({"a": 3}, 1)]),
    ("RETURN *, a AS c", [({"a": 1, "b": 2, "c": 1}, 2), ({"a": 3, "b": None, "c": 3}, 1)]),
    ("WITH * WHERE a = 1 RETURN *", [({"a": 1, "b": 2}, 2)]),
])
def test_other_projections_build_a_new_table(teachers, text, want):
    t = _ab()
    got = run_query(parse_query(text), teachers, t)
    assert got is not t
    assert got == Table(want[0][0], [u for u, count in want for _ in range(count)])
    assert list(t.rows()) == list(_ab().rows())  # the input is unchanged


def test_a_repeated_name_raises_before_the_identity_check(teachers):
    text = "RETURN a, a"
    with pytest.raises(AliasClash) as info:
        run_query(parse_query(text), teachers, Table(["a"], [{"a": 1}]))
    assert info.value.span == (10, 11)


def test_a_match_on_the_unit_table_passes_its_match_bag_through(teachers, monkeypatch):
    bags = []
    match_tuple = engine.match_tuple
    monkeypatch.setattr(engine, "match_tuple", lambda *args: bags.append(match_tuple(*args)) or bags[-1])
    got = run_clause(clause_of("MATCH (x:Teacher)-[:KNOWS]->(y)"), teachers, unit_table())
    assert got is bags[-1] and got.total_rows() == 2
    # two empty rows, and an OPTIONAL MATCH whose bag is empty, build a table
    twice = run_clause(clause_of("MATCH (x:Teacher)-[:KNOWS]->(y)"), teachers, Table((), [{}, {}]))
    assert twice is not bags[-1] and twice == Table(got.fields, [*got.records(), *got.records()])
    padded = run_clause(clause_of("OPTIONAL MATCH (x:Nobody)"), teachers, unit_table())
    assert padded is not bags[-1] and padded == Table(["x"], [{"x": None}])


def test_star_on_no_fields_is_an_error(teachers):
    with pytest.raises(StarOnEmptyFields):
        output(parse_query("RETURN *"), teachers)
    with pytest.raises(StarOnEmptyFields):
        output(parse_query("WITH * RETURN 1 AS one"), teachers)


def test_star_clashing_with_item_alias(teachers):
    q = parse_query("MATCH (x) WITH *, 1 AS x RETURN x")
    with pytest.raises(AliasClash):
        output(q, teachers)


def test_duplicate_aliases_rejected(teachers):
    with pytest.raises(AliasClash):
        output(parse_query("RETURN 1 AS a, 2 AS a"), teachers)


def test_unaliased_return_items_name_themselves(teachers):
    q = parse_query("MATCH (x:Student) RETURN x.k, 1 < 2")
    got = output(q, teachers)
    assert got.fields == ("1 < 2", "x.k")
    # the name is the canonical form, not the source spelling
    q = parse_query("MATCH (x:Student) RETURN x . k")
    assert output(q, teachers).fields == ("x.k",)


def test_return_expressions_see_multiplicities(teachers):
    q = parse_query(
        "MATCH (x:Teacher)-[:KNOWS*1..2]->()-[:KNOWS*1..2]->(y:Teacher) "
        "RETURN x.missing")
    got = output(q, teachers)
    # three witness pairs total, all projecting to the same null row
    assert got.multiplicity({"x.missing": None}) == 3


def test_projection_of_duplicate_rows_keeps_counts(teachers):
    q = parse_query("MATCH (x) RETURN x.k")
    got = output(q, teachers)
    assert got.multiplicity({"x.k": None}) == 4


# ---------------------------------------------------------------------------
# UNWIND
# ---------------------------------------------------------------------------


def test_unwind_expands_lists(teachers):
    q = parse_query("UNWIND [1, 2, 2] AS i RETURN i")
    got = output(q, teachers)
    assert got.multiplicity({"i": 1}) == 1
    assert got.multiplicity({"i": 2}) == 2


def test_unwind_empty_list_drops_the_row(teachers):
    assert output(parse_query("UNWIND [] AS i RETURN i"), teachers).is_empty()


def test_unwind_non_list_is_a_singleton(teachers):
    assert output(parse_query("UNWIND 7 AS i RETURN i"), teachers) == \
        Table(["i"], [{"i": 7}])
    assert output(parse_query("UNWIND null AS i RETURN i"), teachers) == \
        Table(["i"], [{"i": None}])


def test_unwind_multiplies_input_counts(teachers):
    q = parse_query("UNWIND [1, 1] AS a UNWIND [2, 3] AS b RETURN a, b")
    got = output(q, teachers)
    assert got.multiplicity({"a": 1, "b": 2}) == 2


def _unwound(text, g):
    t = Table(["k"])
    t.add({"k": 1}, 2)
    t.add({"k": 2}, 3)
    out = run_clause(clause_of(text), g, t)
    return [(sorted((f, type(v), canon(v)) for f, v in u.items()), c) for u, c in out.rows()]


def _row(k, x, count):
    return [("k", int, canon(k)), ("x", type(x), canon(x))], count


# Each input row's elements in list order, equal elements merged, each
# weighted by its row's count.
UNWOUND = [
    ("UNWIND [1, 1, 2] AS x", [_row(1, 1, 4), _row(1, 2, 2), _row(2, 1, 6), _row(2, 2, 3)]),
    ("UNWIND [true, 1, true] AS x", [_row(1, True, 4), _row(1, 1, 2), _row(2, True, 6), _row(2, 1, 3)]),
    ("UNWIND [null, null] AS x", [_row(1, None, 4), _row(2, None, 6)]),
    ("UNWIND [k, 1, k] AS x", [_row(1, 1, 6), _row(2, 2, 6), _row(2, 1, 3)]),
    ("UNWIND 7 AS x", [_row(1, 7, 2), _row(2, 7, 3)]),
    ("UNWIND [] AS x", []),
    ("UNWIND [[true], [1], [true]] AS x",
     [_row(1, (True,), 4), _row(1, (1,), 2), _row(2, (True,), 6), _row(2, (1,), 3)]),
    ("UNWIND [{a: 1}, {a: true}, {a: 1}] AS x",
     [_row(1, Map((("a", 1),)), 4), _row(1, Map((("a", True),)), 2),
      _row(2, Map((("a", 1),)), 6), _row(2, Map((("a", True),)), 3)]),
]


@pytest.mark.parametrize("text,want", UNWOUND, ids=[text for text, _ in UNWOUND])
def test_unwind_merges_equal_elements_of_one_list(teachers, text, want):
    assert _unwound(text, teachers) == want


def test_unwind_without_the_per_list_merge_is_caught(teachers, monkeypatch):
    monkeypatch.setattr(engine, "tally", lambda values: [(x, 1) for x in values])
    assert any(_unwound(text, teachers) != want for text, want in UNWOUND)


def test_unwind_alias_clash_with_existing_field(teachers):
    q = parse_query("MATCH (x) UNWIND [1] AS x RETURN x")
    with pytest.raises(NameClash):
        output(q, teachers)


# ---------------------------------------------------------------------------
# UNION
# ---------------------------------------------------------------------------


def test_union_all_concatenates(teachers):
    q = parse_query("RETURN 1 AS a UNION ALL RETURN 1 AS a")
    got = output(q, teachers)
    assert got.multiplicity({"a": 1}) == 2


def test_union_deduplicates(teachers):
    q = parse_query("RETURN 1 AS a UNION RETURN 1 AS a")
    assert output(q, teachers) == Table(["a"], [{"a": 1}])


def test_union_requires_same_fields(teachers):
    q = parse_query("RETURN 1 AS a UNION RETURN 1 AS b")
    with pytest.raises(FieldMismatch):
        output(q, teachers)


def test_union_branches_share_the_input_table(teachers):
    # both branches transform the *same* incoming table, so feeding a
    # two-row table through a UNION doubles each branch's contribution
    q = parse_query("MATCH (x) RETURN x.k AS k UNION ALL MATCH (y) RETURN y.k AS k")
    t = Table(["z"], [{"z": 1}, {"z": 2}])
    got = run_query(q, teachers, t)
    # each branch: 2 input rows x 4 nodes = 8 rows of k:null
    assert got.multiplicity({"k": None}) == 16


def test_union_distinct_collapses_across_branches(teachers):
    q = parse_query("MATCH (x:Teacher) RETURN x UNION MATCH (y) RETURN y AS x")
    got = output(q, teachers)
    assert got.total_rows() == 4  # n1..n4, each once


# ---------------------------------------------------------------------------
# Composition and equivalences
# ---------------------------------------------------------------------------


def test_query_is_the_fold_of_its_clauses(teachers):
    q = parse_query(
        "MATCH (x:Teacher) OPTIONAL MATCH (x)-[:KNOWS]->(y) "
        "WITH x, y UNWIND [1, 2] AS i RETURN x, y, i")
    stepped = unit_table()
    for c in q.clauses:
        stepped = run_clause(c, teachers, stepped)
    final = run_query(ast.ClauseQuery((), q.ret), teachers, stepped)
    assert final == output(q, teachers)


def test_prefix_stepping_matches_oracle_on_generated_cases():
    for seed in range(60):
        g, q = gen_case(GenConfig(seed=seed))
        if not isinstance(q, ast.ClauseQuery) or not q.clauses:
            continue
        try:
            t1 = run_clause(q.clauses[0], g, unit_table())
            rest = ast.ClauseQuery(q.clauses[1:], q.ret)
            engine_stepped = run_query(rest, g, t1)
            want = oracle_run_query(q, g, unit_table())
        except Exception:
            continue  # error cases are the differential harness's job
        assert engine_stepped == want, seed


def test_match_cache_respects_property_expressions():
    # two input rows that differ only in a field read by a pattern property
    # expression must not share a cached match result
    g = load_graph({
        "nodes": [
            {"id": "n1", "labels": [], "properties": {"k": 1}},
            {"id": "n2", "labels": [], "properties": {"k": 2}},
        ],
        "relationships": [],
    })
    q = parse_query("UNWIND [1, 2] AS w MATCH (x {k: w}) RETURN w, x")
    assert output(q, g) == Table(["w", "x"], [
        {"w": 1, "x": n(1)},
        {"w": 2, "x": n(2)},
    ])


def test_match_cache_shares_unrelated_fields(teachers):
    # rows differing only in fields the pattern never reads give one answer
    q = parse_query("UNWIND [1, 2, 3] AS w MATCH (x:Student) RETURN w, x")
    got = output(q, teachers)
    assert got.total_rows() == 3
    assert {u["w"] for u in got.records()} == {1, 2, 3}


def test_output_equals_run_query_on_unit(teachers):
    q = parse_query("MATCH (x:Teacher) RETURN x")
    assert output(q, teachers) == run_query(q, teachers, unit_table())


def engine_outcome(g, q):
    """What output() gives on a case, as text: the counted JSON and TSV
    renderings, or the error's class, message and span."""
    try:
        t = output(q, g)
    except CypherError as exc:
        return f"{type(exc).__name__}: {exc} at {exc.span}"
    return render_counted_json(t) + render_tsv(t)


# sha256 of the outcome of every generated case, one line each: a change to
# the engine's tables or rows keeps each result, rendering and error.
def test_engine_outcomes_are_pinned():
    h = hashlib.sha256()
    for seed in range(2000):
        g, q = gen_case(GenConfig(seed=seed))
        h.update(engine_outcome(g, q).encode() + b"\n")
    assert h.hexdigest() == "5f9f92daa2939c727b20c3cdf20bfbcd20b89c0da3933e9b87be5104025e4e39"


# ---------------------------------------------------------------------------
# Rows as tuples: keying and the join permutation
# ---------------------------------------------------------------------------


class _SelfKeyed(Table):
    """Every engine table keys each row by the row itself, as only a table
    of ids may."""

    __slots__ = ()

    def __init__(self, fields, records=(), ids=False):
        super().__init__(fields, records, ids=True)


# true and 1 are two values, though the tuples (true,) and (1,) are equal
BOOL_AND_INT = "UNWIND [true, 1, true] AS x UNWIND [1, 2] AS y RETURN x"


def test_a_table_with_a_bool_field_keys_through_row_key(teachers):
    q = parse_query(BOOL_AND_INT)
    assert output(q, teachers) == oracle_output(q, teachers)
    assert sorted(c for _, c in output(q, teachers).rows()) == [2, 4]


def test_keying_a_bool_field_by_the_row_itself_is_caught(teachers, monkeypatch):
    monkeypatch.setattr(engine, "Table", _SelfKeyed)
    q = parse_query(BOOL_AND_INT)
    assert output(q, teachers) != oracle_output(q, teachers)


def test_ids_are_proved_by_the_clause(teachers):
    def ids(text):
        q = parse_query(text)
        t = unit_table()
        for c in q.clauses:
            t = run_clause(c, teachers, t)
        return t.ids

    assert ids("MATCH (a)-[r:KNOWS]->(b) RETURN 1 AS one")
    assert ids("MATCH (a) OPTIONAL MATCH (a)-[:KNOWS]->(b) WITH a, b RETURN 1 AS one")
    assert ids("MATCH (a)-[r*]->(b) RETURN 1 AS one")  # a list of relationships is made of ids
    assert ids("MATCH p = (a)-[]->(b) RETURN 1 AS one")  # and so is a path
    assert not ids("MATCH (a) WITH a, a.name AS n RETURN 1 AS one")
    assert not ids("MATCH (a) UNWIND [1] AS x RETURN 1 AS one")


# true and 1 are two values, though the tuples (true,) and (1,) are equal:
# a table that may hold both (UNWIND makes them here) is no table of ids,
# whatever MATCH or UNION takes it in
TRUE_AND_ONE = [
    ("UNWIND [true, 1] AS x MATCH (a) RETURN x", [True, 1]),
    ("MATCH (a) RETURN a AS x UNION ALL UNWIND [true, 1] AS x RETURN x", [n(1), True, 1]),
    ("MATCH (a) RETURN a AS x UNION UNWIND [true, 1, true] AS x RETURN x", [n(1), True, 1]),
]


@pytest.mark.parametrize("text,xs", TRUE_AND_ONE, ids=[t for t, _ in TRUE_AND_ONE])
def test_true_and_one_stay_two_rows_through_match_and_union(text, xs):
    g, q = load_graph(ONE_NODE), parse_query(text)
    got = output(q, g)
    assert got == oracle_output(q, g)
    assert got == Table(["x"], [{"x": x} for x in xs]) and got.total_rows() == len(xs)


def _plant_join_swapping_two_fields(monkeypatch):
    """_match_rows puts the first two fields of a joined row in each other's place."""
    joined = engine._joined

    def planted(fields, out):
        get = joined(fields, out)
        return get if len(out) < 2 else lambda u: (lambda v: (v[1], v[0], *v[2:]))(get(u))

    monkeypatch.setattr(engine, "_joined", planted)


# a second MATCH joins each row with its extension: a, b and c are all nodes
JOIN = "MATCH (a:Teacher) MATCH (a)-[:KNOWS]->(b) MATCH (b)-[:KNOWS]->(c) RETURN a, b, c"


def test_a_join_swapping_two_fields_of_one_kind_is_caught(teachers, monkeypatch):
    q = parse_query(JOIN)
    assert output(q, teachers) == oracle_output(q, teachers) and output(q, teachers).total_rows() > 0
    _plant_join_swapping_two_fields(monkeypatch)
    assert output(q, teachers) != oracle_output(q, teachers)
