"""The brute-force oracle, the case generator, and the differential harness."""

import dataclasses
import hashlib
import json
import random
import sys

import pytest

from minicypher import ast, engine, matcher, oracle, tables
from minicypher.errors import CypherError
from minicypher.evaluator import eval_expr
from minicypher.graph import BOTH, load_graph
from minicypher.matcher import match_tuple
from minicypher.oracle import (
    Bag,
    GenConfig,
    _all_walks,
    _describe,
    _hop_bound,
    _normal_form,
    agree,
    case_document,
    differential_case,
    exhaustive_match,
    gen_case,
    load_case,
    oracle_match,
    oracle_output,
    outcome,
    rigid_patterns,
    satisfies_path,
    save_failure,
)
from minicypher.parser import parse_pattern_tuple, parse_query, unparse_query
from minicypher.tables import Table
from minicypher.values import NodeId, Path, RelId, canon

from test_matcher import TWINS, _plant_unkeyed_witnesses

PATTERNS = [
    "(x)",
    "(x), (y)",
    "(x)-[q]->(y)",
    "(x)<-[q]-(y)",
    "(x)-[q]-(y)",
    "(x)-[q]->(x)",
    "(x)-[q:KNOWS]->(y)-[r:KNOWS]->(z)",
    "(x)-[:KNOWS*1..2]->(y)",
    "(x)-[*]->(y)",
    "(x)-[q*0..1]->(y)",
    "()-[*0..2]-()",
    "p = (x)-[*1..2]->(y)",
    "(x)-[q]->(y), (z)-[r]->(w)",
    "(x {k: 1})",
    "(x:P)-[:a]->(y)",
]


def small_graphs():
    docs = [
        {"nodes": [], "relationships": []},
        {
            "nodes": [{"id": "n1", "labels": ["P"], "properties": {"k": 1}}],
            "relationships": [
                {"id": "r1", "type": "a", "src": "n1", "tgt": "n1",
                 "properties": {}},
            ],
        },
        {
            "nodes": [
                {"id": "n1", "labels": ["P"], "properties": {"k": 1}},
                {"id": "n2", "labels": [], "properties": {}},
            ],
            "relationships": [
                {"id": "r1", "type": "a", "src": "n1", "tgt": "n2",
                 "properties": {}},
                {"id": "r2", "type": "a", "src": "n1", "tgt": "n2",
                 "properties": {}},
            ],
        },
    ]
    return [load_graph(d) for d in docs]


# ---------------------------------------------------------------------------
# oracle_match against the engine matcher
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("source", PATTERNS)
def test_oracle_agrees_with_matcher_on_teachers(source, teachers):
    pats = parse_pattern_tuple(source)
    assert oracle_match(pats, teachers, {}) == match_tuple(pats, teachers, {})


@pytest.mark.parametrize("source", PATTERNS)
def test_oracle_agrees_with_matcher_on_small_graphs(source):
    pats = parse_pattern_tuple(source)
    for g in small_graphs():
        assert oracle_match(pats, g, {}) == match_tuple(pats, g, {})


def test_oracle_agrees_under_bound_variables(teachers):
    pats = parse_pattern_tuple("(x)-[:KNOWS*]->(y)")
    for u in [{"x": NodeId("n1")}, {"x": NodeId("n4")}, {"x": 7}]:
        assert oracle_match(pats, teachers, u) == match_tuple(pats, teachers, u)


def test_oracle_agrees_on_generated_graphs():
    sources = ["(x)-[*0..2]-(y)", "(x)-[q]->(y)-[*1..2]->(z)", "(x:P), (y:Q)"]
    for seed in range(25):
        g, _ = gen_case(GenConfig(seed=1000 + seed))
        for source in sources:
            pats = parse_pattern_tuple(source)
            assert oracle_match(pats, g, {}) == match_tuple(pats, g, {}), (
                seed, source)


# ---------------------------------------------------------------------------
# the match bag against the satisfaction relation
# ---------------------------------------------------------------------------


def every_path(g):
    """Every path of g: each relationship at most once, either orientation."""
    out = []

    def extend(nodes, rels):
        out.append(Path(tuple(nodes), tuple(rels)))
        cur = nodes[-1]
        for r in g.incident(cur, BOTH):
            if r not in rels:
                nodes.append(g.tgt(r) if g.src(r) is cur else g.src(r))
                rels.append(r)
                extend(nodes, rels)
                nodes.pop()
                rels.pop()

    for n in g.nodes:
        extend([n], [])
    return out


# ---------------------------------------------------------------------------
# the trail enumeration, cut at the tuple's hop bound
# ---------------------------------------------------------------------------


def test_walks_are_every_path_cut_at_the_bound():
    for seed in range(500):
        g, _ = gen_case(GenConfig(seed=seed))
        full = [(p.nodes, p.rels) for p in every_path(g)]
        for most in range(len(g.rels) + 1):
            want = {h: [w for w in full if len(w[1]) == h] for h in range(most + 1)}
            assert _all_walks(g, most) == want, (seed, most)


def _four_rels():
    return load_graph({
        "nodes": [{"id": "a"}, {"id": "b"}],
        "relationships": [{"id": f"r{i}", "type": "X", "src": "a", "tgt": "b"} for i in range(4)],
    })


@pytest.mark.parametrize("source,bound", [
    ("(x)-[q]->(y)", 1),
    ("(x)-[*2..3]->(y)", 3),
    ("(x)-[*]->(y)", 4),  # unbounded: |R|
    ("(x)-[*..2]->(y)", 2),
    ("(x)-[*2..1]->(y)", 1),  # an empty range allows no path at all
    ("(x)-[q]->(y), (y)-[*2..3]-(z)", 3),  # the larger of the two paths
    ("(x)-[]->(y)-[]->(z), (y)-[*..1]-(z)", 2),
    ("(x), (y)", 0),
    ("(x)-[*3..5]->(y)-[]->(z)", 4),  # 6 hops, capped at |R|
])
def test_the_hop_bound_of_a_tuple(source, bound):
    assert _hop_bound(parse_pattern_tuple(source), _four_rels()) == bound


def reach_graph(seed=1, nodes=20, out_degree=2):
    """A seeded graph of 20 nodes and 40 relationships, as the bench draws
    them: labels A/B/C, a name and a k on each node, and out_degree
    relationships typed X or Y leaving each node for a random one.  It has
    millions of trails, so only a bounded enumeration gets through it."""
    rng = random.Random(seed)
    node_docs = [{"id": f"n{i}", "labels": [rng.choice("ABC")],
                  "properties": {"name": f"v{i}", "k": rng.randrange(10)}}
                 for i in range(nodes)]
    rel_docs = [{"id": f"r{j}", "type": rng.choice("XY"), "src": f"n{j // out_degree}",
                 "tgt": f"n{rng.randrange(nodes)}", "properties": {"w": rng.randrange(100)}}
                for j in range(nodes * out_degree)]
    return {"nodes": node_docs, "relationships": rel_docs}


def _asked(monkeypatch):
    """The `most` of every trail listing the oracle makes, in order."""
    asked = []

    def listed(g, most):
        asked.append(most)
        return _all_walks(g, most)

    monkeypatch.setattr(oracle, "_all_walks", listed)
    return asked


@pytest.mark.parametrize("query,bound", [
    ("MATCH (a)-[:X]->(b)-[:X]->(c) RETURN a, c", 2),
    ("MATCH (a)-[*1..3]->(b) RETURN a, b", 3),
])
def test_the_oracle_lists_trails_up_to_the_bound_only(monkeypatch, query, bound):
    g, q = load_graph(reach_graph()), parse_query(query)
    assert len(g.rels) == 40
    asked = _asked(monkeypatch)
    assert oracle_output(q, g) == engine.output(q, g)
    assert asked == [bound]


def test_a_match_clause_lists_the_trails_once_for_all_its_rows(monkeypatch):
    g, q = load_graph(reach_graph()), parse_query("UNWIND [1, 2, 3] AS i MATCH (a)-[]->(b) RETURN a, b, i")
    asked = _asked(monkeypatch)
    assert sorted(c for _, c in oracle_output(q, g).rows()) == [1] * 120
    assert asked == [1]


def test_a_match_on_no_rows_lists_no_trails(monkeypatch):
    g, q = load_graph(reach_graph()), parse_query("UNWIND [] AS i MATCH (a)-[]->(b) RETURN a, b, i")
    asked = _asked(monkeypatch)
    assert list(oracle_output(q, g).rows()) == []
    assert asked == []


SINGLE_PATH_PATTERNS = [
    "(x)-[*]->(y)",
    "(x:Teacher)-[:KNOWS*1..2]->()-[:KNOWS*1..2]->(y:Teacher)",
    "p = (x)-[r*0..2]-(y)",
    "(x {name: 'Elin'})-[q*1..2]-(y)",
    "(x {k: 1})-[*0..1]-(y)",
]


@pytest.mark.parametrize("source", SINGLE_PATH_PATTERNS)
def test_match_bag_counts_satisfying_pairs(source, teachers, citation):
    # The match bag's definition: the multiplicity of u is the number of
    # pairs (rigid pattern, path) with the path satisfying the rigid
    # pattern under u.
    pats = parse_pattern_tuple(source)
    graphs = [teachers, citation] + [gen_case(GenConfig(seed=1000 + s))[0] for s in range(4)]
    for g in graphs:
        bag = match_tuple(pats, g, {})
        rigid = rigid_patterns(pats.paths[0], len(g.rels))
        paths = every_path(g)
        total = 0
        for u, count in bag.rows():
            pairs = sum(1 for rp in rigid for p in paths if satisfies_path(p, rp, g, u))
            assert pairs == count, (source, u)
            total += pairs
        assert total == bag.total_rows(), source


# ---------------------------------------------------------------------------
# the exhaustive checker (kept tiny: it enumerates every assignment)
# ---------------------------------------------------------------------------


def test_exhaustive_agrees_on_tiny_graphs():
    sources = [
        "(x)",
        "(x)-[q]->(y)",
        "(x)-[q]-(y)",
        "(x)-[*0..2]->(y)",
        "(x)-[q]->(x)",
        "p = (x)-[*1..2]->(y)",
        "(x)-[q*0..2]->()",  # a named ranged slot: its value is a relationship list
        "(x)-[]->(y), (y)-[]->(x)",  # a two-path tuple
        "(x {k: 1})-[q]-()",
    ]
    for g in small_graphs():
        for source in sources:
            pats = parse_pattern_tuple(source)
            want = exhaustive_match(pats, g, {})
            assert oracle_match(pats, g, {}) == want, source
            assert match_tuple(pats, g, {}) == want, source


def test_exhaustive_agrees_with_bound_input():
    g = small_graphs()[2]
    for source, u in [("(x)-[q]->(y)", {"x": NodeId("n1")}),
                      ("(x)-[]->(y), (y)-[]->(z)", {"z": NodeId("n2")})]:
        pats = parse_pattern_tuple(source)
        assert exhaustive_match(pats, g, u) == match_tuple(pats, g, u), source


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_gen_case_is_deterministic():
    a = case_document(*gen_case(GenConfig(seed=7)))
    b = case_document(*gen_case(GenConfig(seed=7)))
    assert a == b


def test_gen_case_varies_with_seed():
    docs = {json.dumps(case_document(*gen_case(GenConfig(seed=s))), sort_keys=True)
            for s in range(20)}
    assert len(docs) > 15


# sha256 of the case documents of seeds 0-499, each as sorted-key JSON and a
# newline.  Every draw of the generator is pinned: changing one, its order,
# or an alphabet or bound changes the cases of nearly every seed.
CASE_DIGESTS = {
    "default": ({}, "0ccc9e01660437d3e220f2dde5c3f49ea1406c45b4c824ab12ff5566ca548ab3"),
    "check_pairs": ({"check_pairs": 0.3}, "562aa8b7c62458c83a1cc89ba132ac86f959701824c2a3be029cba4e9f7e2c66"),
    "mixed_kinds": ({"mixed_kinds": 0.3}, "edc56d758e912b13a48c5771bbe2fbd083e04829d0db784c0c4736de025e8c82"),
}


@pytest.mark.parametrize("setting", CASE_DIGESTS)
def test_generated_cases_are_pinned(setting):
    settings, digest = CASE_DIGESTS[setting]
    h = hashlib.sha256()
    for seed in range(500):
        h.update(json.dumps(case_document(*gen_case(GenConfig(seed=seed, **settings))), sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == digest


def test_the_generator_has_three_settings():
    assert [f.name for f in dataclasses.fields(GenConfig)] == ["seed", "check_pairs", "mixed_kinds"]


def test_generated_queries_parse_back():
    for seed in range(50):
        _, q = gen_case(GenConfig(seed=seed))
        text = unparse_query(q)
        assert unparse_query(parse_query(text)) == text


def test_generator_exercises_the_grammar():
    texts = [unparse_query(gen_case(GenConfig(seed=s))[1]) for s in range(400)]
    blob = "\n".join(texts)
    for needle in ["OPTIONAL MATCH", "UNION", "UNWIND", "WITH", "WHERE", "*"]:
        assert needle in blob, needle


# ---------------------------------------------------------------------------
# case documents and replay
# ---------------------------------------------------------------------------


def test_case_document_round_trips():
    g, q = gen_case(GenConfig(seed=3))
    g2, q2 = load_case(case_document(g, q))
    assert g2.to_document() == g.to_document()
    assert unparse_query(q2) == unparse_query(q)


def test_save_failure_writes_replayable_json(tmp_path):
    g, q = gen_case(GenConfig(seed=11))
    agree, detail = differential_case(g, q)
    path = save_failure(str(tmp_path), "case-11", case_document(g, q, extra=detail))
    with open(path) as fh:
        doc = json.load(fh)
    g2, q2 = load_case(doc)
    assert differential_case(g2, q2)[0] == agree


# ---------------------------------------------------------------------------
# differential harness
# ---------------------------------------------------------------------------


def test_differential_detail_is_reported():
    g, q = gen_case(GenConfig(seed=0))
    agree, detail = differential_case(g, q)
    assert agree
    assert detail["query"] == unparse_query(q)
    assert "engine" in detail and "oracle" in detail


def test_differential_batch():
    for seed in range(300):
        g, q = gen_case(GenConfig(seed=seed))
        agree, detail = differential_case(g, q)
        assert agree, f"seed {seed}: {json.dumps(detail, indent=2, default=str)}"


def test_outcomes_agree_when_both_raise_or_both_bags_are_equal(teachers):
    def table(*rows):
        t = Table(["x"])
        for x, count in rows:
            t.add_new({"x": x}, count)
        return t

    raised = outcome(parse_query, "RETURN")
    assert isinstance(raised, CypherError)
    assert outcome(lambda: 1) == 1
    assert agree(raised, outcome(oracle_output, parse_query("RETURN 1 < 'a'"), teachers))
    assert agree(table((1, 2)), Bag(["x"], [({"x": 1}, 1), ({"x": 1}, 1)]))
    assert agree(table((True, 1)), table((True, 1)))
    assert not agree(table((True, 1)), table((1, 1)))  # true is not 1
    assert not agree(table((1, 1), (1, 1)), table((1, 2)))  # a record listed twice
    assert not agree(table((1, 1), (1, 1)), table((1, 1), (1, 1)))
    assert not agree(table((1, 1)), raised) and not agree(raised, table((1, 1)))
    assert not agree(table((1, 1)), Table(["y"]))
    assert Bag(["x"], [({"x": 1}, 2)]) == table((1, 2)) != Bag(["x"], [({"x": 1}, 1)])
    assert Bag(["x"]) != raised and Bag(["x"]) != 1


@pytest.mark.parametrize("query,error", [
    ("UNWIND [1] AS x UNWIND [2] AS x RETURN x", "NameClash"),
    ("RETURN 1 AS x, 2 AS x", "AliasClash"),
    ("RETURN 1 AS x UNION RETURN 1 AS y", "FieldMismatch"),
    ("RETURN *", "StarOnEmptyFields"),
])
def test_both_sides_raise_each_clause_error(teachers, query, error):
    # The harness records a CypherError that is not an EvalError by its type.
    agree, detail = differential_case(teachers, parse_query(query))
    assert agree
    assert detail["engine"] == detail["oracle"] == f"error:{error}"


def test_oracle_outcomes_are_pinned():
    # sha256 of the oracle's described outcome on gen_case seeds 0-1999,
    # each a line: a faster oracle must give the same tables and errors.
    h = hashlib.sha256()
    for seed in range(2000):
        g, q = gen_case(GenConfig(seed=seed))
        h.update(repr(_describe(outcome(oracle_output, q, g))).encode() + b"\n")
    assert h.hexdigest() == "3230c3e7691aef49838419aac09ee99947cd00a58a185efc14603f5a7f5a1065"


def test_oracle_output_on_a_full_query(teachers):
    q = parse_query(
        "MATCH (x:Teacher) OPTIONAL MATCH (x)-[:KNOWS]->(y:Student) "
        "RETURN x, y")
    from minicypher.engine import output

    assert oracle_output(q, teachers) == output(q, teachers)


# ---------------------------------------------------------------------------
# planted bag mutants: the oracle's own bag catches them
# ---------------------------------------------------------------------------


def _first_disagreement(seeds=2000):
    for seed in range(seeds):
        g, q = gen_case(GenConfig(seed=seed))
        if not differential_case(g, q)[0]:
            return seed
    return None


def _plant(monkeypatch, name, planted):
    """Replace tables.<name> in every module that holds it, as a bug in
    tables.py would: the oracle, with a bag of its own, is left as it is."""
    real = getattr(tables, name)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("minicypher") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, planted)


def _union_counting_the_right_branch_once(t1, t2):
    out = Table(t1.fields)
    for record, count in t1.rows():
        out.add(record, count)
    for record, _ in t2.rows():
        out.add(record, 1)
    return out


def _distinct_keeping_counts(t):
    out = Table(t.fields)
    for record, count in t.rows():
        out.add(record, count)
    return out


class _Unkeyed(Table):
    """Every engine insertion on the new-row path, projections included."""

    __slots__ = ()
    add = Table.add_new


def _unwind_on_the_new_row_path(run_clause):
    def planted(c, g, t, functions=None):
        if not isinstance(c, ast.Unwind):
            return run_clause(c, g, t, functions)
        out = Table(t.fields + (c.name,))
        for u, count in t.rows():
            v = eval_expr(c.expr, g, u, functions)
            for x in v if isinstance(v, tuple) else (v,):
                out.add_new({**u, c.name: x}, count)
        return out

    return planted


def _in_normal_form(run_clause):
    # Every query ends in a projection, which merges equal rows, so a clause
    # that repeats a record shows only in that clause's own table.
    def checked(c, g, t, functions=None):
        out = run_clause(c, g, t, functions)
        if _normal_form(out) is None:
            raise AssertionError(f"{c!r} repeats a record")
        return out

    return checked


def test_generated_cases_catch_a_union_counting_the_right_branch_once(monkeypatch):
    _plant(monkeypatch, "bag_union", _union_counting_the_right_branch_once)
    assert _first_disagreement() is not None


def test_generated_cases_catch_a_distinct_keeping_counts(monkeypatch):
    _plant(monkeypatch, "distinct", _distinct_keeping_counts)
    assert _first_disagreement() is not None


def test_the_normal_form_guard_catches_repeated_records_in_a_result(monkeypatch):
    monkeypatch.setattr(engine, "Table", _Unkeyed)
    assert _first_disagreement() is not None


def test_every_clause_table_lists_each_record_once(monkeypatch):
    monkeypatch.setattr(engine, "run_clause", _in_normal_form(engine.run_clause))
    assert _first_disagreement(600) is None


def test_the_clause_guard_catches_an_unwind_on_the_new_row_path(monkeypatch):
    planted = _in_normal_form(_unwind_on_the_new_row_path(engine.run_clause))
    monkeypatch.setattr(engine, "run_clause", planted)
    with pytest.raises(AssertionError, match="repeats a record"):
        _first_disagreement()


# ---------------------------------------------------------------------------
# unkeyed sites: each one's unsound variant is caught
# ---------------------------------------------------------------------------


def _plant_unkeyed_projection_dropping_a_field(monkeypatch):
    """Each input row is projected alone and enters the output unkeyed."""
    project = engine._project

    def planted(star, items, g, t, functions):
        out = None
        for u, count in t.rows():
            part = project(star, items, g, Table(t.fields, [u]), functions)
            out = Table(part.fields) if out is None else out
            for record, c in part.rows():
                out.add_new(record, count * c)
        return project(star, items, g, t, functions) if out is None else out

    monkeypatch.setattr(engine, "_project", planted)


def _plant_a_tally_never_merging(monkeypatch):
    """The tally gives every element of a list count 1: equal elements of
    one UNWIND list no longer merge."""
    monkeypatch.setattr(engine, "tally", lambda values: [(x, 1) for x in values])


UNSOUND_UNKEYED = [_plant_unkeyed_witnesses,
                   _plant_unkeyed_projection_dropping_a_field,
                   _plant_a_tally_never_merging]


@pytest.mark.parametrize("plant", UNSOUND_UNKEYED, ids=lambda p: p.__name__[len("_plant_"):])
def test_the_clause_guard_catches_each_unsound_unkeyed_site(monkeypatch, plant):
    # the seeds of test_every_clause_table_lists_each_record_once
    monkeypatch.setattr(engine, "run_clause", _in_normal_form(engine.run_clause))
    plant(monkeypatch)
    try:
        caught = _first_disagreement(600) is not None
    except AssertionError as exc:
        caught = "repeats a record" in str(exc)
    assert caught


# n1 -X-> n2 twice, and a Y self-loop on n3
PARALLEL = load_graph({
    "nodes": [{"id": "n1"}, {"id": "n2"}, {"id": "n3"}],
    "relationships": [{"id": "x1", "type": "X", "src": "n1", "tgt": "n2"},
                      {"id": "x2", "type": "X", "src": "n1", "tgt": "n2"},
                      {"id": "y1", "type": "Y", "src": "n3", "tgt": "n3"}],
})
N1, N2, N3 = NodeId("n1"), NodeId("n2"), NodeId("n3")
UNKEYED_CASES = [
    # two witnesses bind one row
    ("MATCH (a)-[:X]->(b) RETURN a, b", [({"a": N1, "b": N2}, 2)]),
    # two witness rows, merged when r is dropped
    ("MATCH (a)-[r:X]->(b) RETURN a, b", [({"a": N1, "b": N2}, 2)]),
    # an undirected self-loop is one path
    ("MATCH (a)-[r:Y]-(b) RETURN a, r, b", [({"a": N3, "r": RelId("y1"), "b": N3}, 1)]),
    ("MATCH (a)-[:Y]-(b) RETURN a, b", [({"a": N3, "b": N3}, 1)]),
]


@pytest.mark.parametrize("query,rows", UNKEYED_CASES)
def test_unkeyed_sites_keep_multiplicities(query, rows):
    assert list(engine.output(parse_query(query), PARALLEL).rows()) == rows
    assert differential_case(PARALLEL, parse_query(query))[0]


@pytest.mark.parametrize("plant,query", [
    (_plant_unkeyed_witnesses, UNKEYED_CASES[0][0]),
    (_plant_unkeyed_projection_dropping_a_field, UNKEYED_CASES[1][0]),
], ids=["witnesses", "projection"])
def test_parallel_relationships_catch_each_unsound_unkeyed_site(monkeypatch, plant, query):
    plant(monkeypatch)
    assert list(engine.output(parse_query(query), PARALLEL).rows()) == [({"a": N1, "b": N2}, 1)] * 2


# parallel and antiparallel relationships, and two self-loops on one node
ONE_HOP_CASES = [
    (PARALLEL, "MATCH (a)-[:X]->(b) RETURN a, b"),
    (TWINS, "MATCH (a)-[:X]->(b) RETURN a, b"),
    (TWINS, "MATCH (a)-[]-(b) RETURN a, b"),
    (TWINS, "MATCH (a:L)-[]-(b:L) RETURN a"),
]


@pytest.mark.parametrize("g,query", ONE_HOP_CASES, ids=["parallel", "directed", "undirected", "self_loops"])
def test_the_clause_guard_catches_unkeyed_anonymous_one_hop_witnesses(monkeypatch, g, query):
    monkeypatch.setattr(engine, "run_clause", _in_normal_form(engine.run_clause))
    q = parse_query(query)
    assert differential_case(g, q)[0]
    _plant_unkeyed_witnesses(monkeypatch)
    with pytest.raises(AssertionError, match="repeats a record"):
        engine.output(q, g)


# ---------------------------------------------------------------------------
# The UNWIND tally ablated: counting a list's elements is keying their rows
# ---------------------------------------------------------------------------


def _ablation_graph(seed=0, nodes=300):
    """Each node has four relationships to itself or the next two nodes, so
    parallel relationships and self-loops abound."""
    rng = random.Random(seed)
    rels = [{"id": f"r{j}", "type": rng.choice("XY"), "src": f"n{j // 4}",
             "tgt": f"n{(j // 4 + rng.randrange(3)) % nodes}"} for j in range(4 * nodes)]
    return load_graph({"nodes": [{"id": f"n{i}", "properties": {"k": rng.randrange(4)}}
                                 for i in range(nodes)], "relationships": rels})


# bulk-like shapes; the first and the UNWIND return their last table as it is
MERGE_SHAPES = [
    "MATCH (a)-[:X]->(b) RETURN a, b",
    "MATCH (a)-[:X]->(b)-[:X]->(c) RETURN a, c",
    "MATCH (a)-[:Y]-(b) RETURN a, b",
    "MATCH (a)-[:Y]->(b) UNWIND [a.k, b.k, 3] AS x RETURN a, b, x",
    "MATCH (a)-[:X]->(b) RETURN b AS n UNION MATCH (a)-[:Y]->(b) RETURN a AS n",
    "MATCH (a)-[:X]->(b) RETURN b AS n UNION ALL MATCH (a)-[:Y]->(b) RETURN a AS n",
]


def _outcome(g, q):
    """The rows in order with their counts (true and 1 kept apart), or the error."""
    try:
        rows = engine.output(q, g).rows()
        return [(sorted((f, canon(v)) for f, v in u.items()), c) for u, c in rows]
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "span", None)


def _merge_cases():
    g = _ablation_graph()
    return [(g, parse_query(q)) for q in MERGE_SHAPES] + [gen_case(GenConfig(seed=s)) for s in range(2000)]


def test_a_tally_and_add_new_give_what_keying_every_row_gives(monkeypatch):
    cases = _merge_cases()
    want = [_outcome(g, q) for g, q in cases]
    _plant_a_tally_never_merging(monkeypatch)
    monkeypatch.setattr(Table, "add_new", Table.add)
    assert [_outcome(g, q) for g, q in cases] == want


@pytest.mark.parametrize("query", [MERGE_SHAPES[3]], ids=["unwind"])
def test_the_ablation_graph_catches_a_tally_that_never_merges(monkeypatch, query):
    g, q = _ablation_graph(), parse_query(query)
    want = _outcome(g, q)
    _plant_a_tally_never_merging(monkeypatch)
    assert _outcome(g, q) != want


# ---------------------------------------------------------------------------
# The row-listing rule at scale: every unkeyed site against keying every row
# ---------------------------------------------------------------------------


def _scale_graph(seed=3, nodes=300, chain=30):
    """Nodes n<i> labelled A, B or C with `name` v<i> and `k` in 0..9, each
    with three X or Y relationships, two of them to itself or the next two
    nodes (so parallel relationships and self-loops abound), and a chain
    c0 -> c1 -> ... of `chain` C nodes typed N."""
    rng = random.Random(seed)
    docs, rels = [], []
    for i in range(nodes):
        docs.append({"id": f"n{i}", "labels": [rng.choice("ABC")], "properties": {"name": f"v{i}", "k": rng.randrange(10)}})
        for j in range(3):
            tgt = (i + rng.randrange(3)) % nodes if j else rng.randrange(nodes)
            rels.append({"id": f"r{3 * i + j}", "type": rng.choice("XY"), "src": f"n{i}", "tgt": f"n{tgt}",
                         "properties": {"w": rng.randrange(100)}})
    docs += [{"id": f"c{i}", "labels": ["C"], "properties": {"name": f"c{i}", "k": i % 10}} for i in range(chain)]
    rels += [{"id": f"e{i}", "type": "N", "src": f"c{i}", "tgt": f"c{i + 1}"} for i in range(chain - 1)]
    return load_graph({"nodes": docs, "relationships": rels})


# point queries anchored on one name, and whole-graph queries
SCALE_QUERIES = [
    "MATCH (a {name: 'v7'}) RETURN a",
    "MATCH (a {name: 'v7'})-[:X]->(b) RETURN b",
    "MATCH (a {name: 'v7'}) OPTIONAL MATCH (a)-[:Y]->(b:B) RETURN a, b",
    "MATCH (a {name: 'v8'})<-[:X]-(b:A) RETURN b",
    "MATCH (a {name: 'v7'})-[*1..2]->(b) RETURN b",
    "MATCH (a)-[:Y]->(b {name: 'v6'}) RETURN a",
    "MATCH (a)-[:X]->(b) WHERE a.name = 'v9' RETURN b",
    "MATCH (a)-[:X]->(b) RETURN a, b",
    "MATCH (a)-[:X]->(b)-[:X]->(c) RETURN a, c",
    "MATCH (a)-[r]->(b) WITH a, b.k AS k WHERE k <> 3 RETURN a, k",
    "MATCH (a:A)-[]->(b:B) WHERE a.k = b.k RETURN a, b",
    "MATCH (a)-[:Y]->(b) UNWIND [a.k, b.k, 3] AS x RETURN a, x",
    "MATCH (a)-[:X]->(b) RETURN b AS n UNION MATCH (a)-[:Y]->(b) RETURN a AS n",
    "MATCH (a)-[:X]->(b) RETURN b AS n UNION ALL MATCH (a)-[:Y]->(b) RETURN a AS n",
    "MATCH (a:C)-[:N*]->(b) RETURN a, b",
    "MATCH p = (a:C)-[:N*]->(b) RETURN p",
    # two ranged slots split one path two ways: two witnesses of one row
    "MATCH p = (a:C)-[:N*1..2]->()-[:N*1..2]->(b) RETURN p",
]


def _keyed_plans(monkeypatch):
    """Every row keyed, at every unkeyed site: Table.add_new made Table.add."""
    monkeypatch.setattr(Table, "add_new", Table.add)


def _scale_outcomes(g):
    out = []
    for text in SCALE_QUERIES:
        result = engine.output(parse_query(text), g)
        assert _normal_form(result) is not None, f"{text} repeats a record"
        out.append(_outcome(g, parse_query(text)))
    return out


def test_every_clause_table_lists_each_record_once_at_scale(monkeypatch):
    g = _scale_graph()
    monkeypatch.setattr(engine, "run_clause", _in_normal_form(engine.run_clause))
    got = _scale_outcomes(g)
    assert all(rows for rows in got)  # every query returns rows
    _keyed_plans(monkeypatch)
    assert _scale_outcomes(g) == got


def _plant_witnesses_unkeyed_where(monkeypatch, unkeyed):
    """Witnesses enter the match bag unkeyed under the plans that
    ``unkeyed`` picks, keyed under the rest."""
    emit = matcher._Search._emit

    def planted(self, row):
        if unkeyed(self.plan):
            self.stats.witnesses += 1
            self.out.add_new(row)
        else:
            emit(self, row)

    monkeypatch.setattr(matcher._Search, "_emit", planted)


def _plant_unkeyed_witnesses_with_an_anonymous_relationship(monkeypatch):
    """Witnesses enter the match bag unkeyed once every node is named."""
    _plant_witnesses_unkeyed_where(monkeypatch, lambda plan: all(
        walk.node is not None and all(hop.node is not None for hop in walk.hops) for walk in plan.walks))


def _plant_unkeyed_named_paths_with_two_ranged_slots(monkeypatch):
    """Witnesses enter unkeyed whenever every path is named, however many
    ranged slots a path has."""
    _plant_witnesses_unkeyed_where(monkeypatch, lambda plan: all(walk.path is not None for walk in plan.walks))


@pytest.mark.parametrize("plant", [_plant_unkeyed_witnesses_with_an_anonymous_relationship,
                                   _plant_unkeyed_projection_dropping_a_field,
                                   _plant_a_tally_never_merging,
                                   _plant_unkeyed_named_paths_with_two_ranged_slots],
                         ids=lambda p: p.__name__[len("_plant_"):])
def test_the_check_at_scale_catches_each_unsound_unkeyed_site(monkeypatch, plant):
    g = _scale_graph()
    monkeypatch.setattr(engine, "run_clause", _in_normal_form(engine.run_clause))
    plant(monkeypatch)
    try:
        got = _scale_outcomes(g)
        _keyed_plans(monkeypatch)
        caught = _scale_outcomes(g) != got
    except AssertionError as exc:
        caught = "repeats a record" in str(exc)
    assert caught
