"""Pattern matching against hand-computed expectations.

The teachers fixture is the KNOWS chain n1 -> n2 -> n3 -> n4 (n2 is the
only Student); most expectations here can be checked by hand on paper.
"""

import random
import sys

import pytest

from minicypher import ast, engine, matcher
from minicypher.engine import output
from minicypher.errors import CypherError, EvalError
from minicypher.graph import PropertyGraph, load_graph
from minicypher.matcher import MatchStats, match_tuple
from minicypher.oracle import (
    GenConfig,
    differential_case,
    gen_case,
    make_rigid,
    oracle_match,
    oracle_output,
    rigid_patterns,
    satisfies_node,
    satisfies_path,
)
from minicypher.parser import parse_expr, parse_pattern, parse_pattern_tuple, parse_query
from minicypher.tables import Table
from minicypher.values import NodeId, Path, RelId


def n(i):
    return NodeId(f"n{i}")


def r(i):
    return RelId(f"r{i}")


def is_rigid(pat):
    """Every slot of pat admits exactly one hop count."""
    return all(lo == hi for lo, hi in map(ast.range_of, pat.rel_patterns()))


def table(fields, *rows):
    t = Table(fields)
    for row in rows:
        if isinstance(row, tuple):
            record, count = row
            t.add(record, count)
        else:
            t.add(row)
    return t


class TestNodePatterns:
    def test_label_filter(self, teachers):
        chi = ast.NodePattern("x", frozenset({"Teacher"}), ())
        for i, ok in [(1, True), (2, False), (3, True), (4, True)]:
            assert satisfies_node(n(i), chi, teachers, {"x": n(i)}) is ok

    def test_anonymous_pattern_accepts_any_node(self, teachers):
        chi = ast.NodePattern(None, frozenset(), ())
        for i in range(1, 5):
            assert satisfies_node(n(i), chi, teachers, {})

    def test_named_pattern_requires_matching_binding(self, teachers):
        chi = ast.NodePattern("y", frozenset(), ())
        assert satisfies_node(n(1), chi, teachers, {"y": n(1)})
        assert not satisfies_node(n(1), chi, teachers, {"y": n(2)})
        # an unbound name cannot satisfy: satisfaction is checked under a
        # complete assignment
        assert not satisfies_node(n(1), chi, teachers, {})

    def test_property_condition(self):
        g = load_graph({
            "nodes": [{"id": "n1", "labels": [], "properties": {"k": 1}},
                      {"id": "n2", "labels": [], "properties": {}}],
            "relationships": [],
        })
        chi = ast.NodePattern(None, frozenset(), (("k", ast.Lit(1)),))
        assert satisfies_node(n(1), chi, g, {})
        # on n2 the property is null, and null = 1 is null, not true
        assert not satisfies_node(n(2), chi, g, {})


class TestRigidPaths:
    def test_two_hop_rigid_pattern(self, teachers):
        pat = parse_pattern("(x:Teacher)-[:KNOWS*2]->(y)")
        p = Path((n(1), n(2), n(3)), (r(1), r(2)))
        assert satisfies_path(p, pat, teachers, {"x": n(1), "y": n(3)})
        assert not satisfies_path(p, pat, teachers, {"x": n(1), "y": n(4)})

    def test_wrong_length_fails(self, teachers):
        pat = parse_pattern("(x:Teacher)-[:KNOWS*2]->(y)")
        p = Path((n(1), n(2)), (r(1),))
        assert not satisfies_path(p, pat, teachers, {"x": n(1), "y": n(2)})

    def test_single_relationship_slot_binds_the_id_itself(self, teachers):
        pat = parse_pattern("(x)-[q]->(y)")
        p = Path((n(1), n(2)), (r(1),))
        assert satisfies_path(p, pat, teachers, {"x": n(1), "y": n(2), "q": r(1)})
        # without a range the name binds the relationship, not a list
        assert not satisfies_path(p, pat, teachers, {"x": n(1), "y": n(2), "q": (r(1),)})

    def test_ranged_slot_binds_the_list(self, teachers):
        pat = parse_pattern("(x)-[q*1..2]->(y)")
        p = Path((n(1), n(2), n(3)), (r(1), r(2)))
        assert satisfies_path(p, pat, teachers, {"x": n(1), "y": n(3), "q": (r(1), r(2))})
        assert not satisfies_path(p, pat, teachers, {"x": n(1), "y": n(3), "q": r(1)})

    def test_path_name_binds_the_path(self, teachers):
        pat = parse_pattern("p = (x)-[:KNOWS]->(y)")
        p = Path((n(1), n(2)), (r(1),))
        assert satisfies_path(p, pat, teachers, {"x": n(1), "y": n(2), "p": p})
        other = Path((n(2), n(3)), (r(2),))
        assert not satisfies_path(p, pat, teachers, {"x": n(1), "y": n(2), "p": other})

    def test_relationship_ids_must_be_distinct_within_a_path(self):
        # undirected double hop over the same relationship is not a path
        g = load_graph({
            "nodes": [{"id": "n1", "labels": [], "properties": {}},
                      {"id": "n2", "labels": [], "properties": {}}],
            "relationships": [{"id": "r1", "type": "t", "src": "n1", "tgt": "n2",
                               "properties": {}}],
        })
        pat = parse_pattern("(x)-[*2]-(x)")
        bad = Path((n(1), n(2), n(1)), (r(1), r(1)))
        assert not satisfies_path(bad, pat, g, {"x": n(1)})


class TestVariableLength:
    PATTERN = "(x:Teacher)-[:KNOWS*1..2]->(z)-[:KNOWS*1..2]->(y:Teacher)"

    def test_one_path_several_assignments(self, teachers):
        # the three-hop chain satisfies the pattern under two different
        # assignments of the middle node
        pat = parse_pattern(self.PATTERN)
        p2 = Path((n(1), n(2), n(3), n(4)), (r(1), r(2), r(3)))
        u2 = {"x": n(1), "y": n(4), "z": n(2)}
        u2_prime = {"x": n(1), "y": n(4), "z": n(3)}
        assert satisfies_path(p2, pat, teachers, u2)
        assert satisfies_path(p2, pat, teachers, u2_prime)

    def test_match_contents(self, teachers):
        pats = parse_pattern_tuple(self.PATTERN)
        got = match_tuple(pats, teachers, {})
        assert got == table(
            ["x", "y", "z"],
            {"x": n(1), "y": n(3), "z": n(2)},
            {"x": n(1), "y": n(4), "z": n(2)},
            {"x": n(1), "y": n(4), "z": n(3)},
        )

    def test_multiplicity_two_when_middle_is_anonymous(self, teachers):
        # same pattern with the middle node anonymous: the two witnesses for
        # (n1, n4) now produce the same record, so its multiplicity is 2
        pats = parse_pattern_tuple(
            "(x:Teacher)-[:KNOWS*1..2]->()-[:KNOWS*1..2]->(y:Teacher)")
        got = match_tuple(pats, teachers, {})
        assert got == table(
            ["x", "y"],
            {"x": n(1), "y": n(3)},
            ({"x": n(1), "y": n(4)}, 2),
        )

    def test_rigid_enumeration_for_two_bounded_slots(self):
        pat = parse_pattern("(x)-[*1..2]->(z)-[*1..2]->(y)")
        rigid = rigid_patterns(pat, max_total_hops=4)
        ranges = {tuple(rho.range_ for rho in p.rel_patterns()) for p in rigid}
        assert ranges == {((1, 1), (1, 1)), ((1, 1), (2, 2)),
                          ((2, 2), (1, 1)), ((2, 2), (2, 2))}
        assert len(rigid) == 4
        for p in rigid:
            assert is_rigid(p)

    def test_make_rigid_keeps_unranged_slots(self):
        pat = parse_pattern("(x)-[q]->(z)-[*0..]->(y)")
        rigid = make_rigid(pat, (1, 2))
        assert rigid.rel_patterns()[0].range_ is None
        assert rigid.rel_patterns()[1].range_ == (2, 2)

    def test_unbounded_range(self, teachers):
        pats = parse_pattern_tuple("(x)-[:KNOWS*]->(y)")
        got = match_tuple(pats, teachers, {})
        assert got.total_rows() == 6  # 3 one-hop + 2 two-hop + 1 three-hop

    def test_empty_range_matches_nothing(self, teachers):
        pats = parse_pattern_tuple("(x)-[*2..1]->(y)")
        assert match_tuple(pats, teachers, {}).is_empty()


class TestZeroLength:
    def test_zero_hops_identifies_endpoints(self, teachers):
        pats = parse_pattern_tuple("(x)-[*0]->(y)")
        got = match_tuple(pats, teachers, {})
        assert got == table(
            ["x", "y"],
            *[{"x": n(i), "y": n(i)} for i in range(1, 5)],
        )

    def test_zero_hops_ignores_direction_and_type(self, teachers):
        for pat in ["(x)-[*0]->(y)", "(x)<-[*0]-(y)", "(x)-[:NOPE*0]-(y)"]:
            got = match_tuple(parse_pattern_tuple(pat), teachers, {})
            assert got.total_rows() == 4, pat

    def test_zero_hops_checks_both_node_patterns(self, teachers):
        # the shared node must satisfy both adjacent node patterns
        pats = parse_pattern_tuple("(x:Teacher)-[*0]->(y:Student)")
        assert match_tuple(pats, teachers, {}).is_empty()
        pats = parse_pattern_tuple("(x:Student)-[*0]->(y:Student)")
        assert match_tuple(pats, teachers, {}).total_rows() == 1

    def test_zero_hops_binds_empty_list(self, teachers):
        pats = parse_pattern_tuple("(x)-[q*0..1]->(y)")
        got = match_tuple(pats, teachers, {"x": n(1)})
        assert got == table(
            ["q", "y"],
            {"q": (), "y": n(1)},
            {"q": (r(1),), "y": n(2)},
        )

    def test_the_empty_tuple_has_one_witness(self, teachers):
        # No path, so no hop: one empty extension, which a MATCH's WHERE
        # alone keeps or drops.
        empty = ast.PatternTuple(())
        assert match_tuple(empty, teachers, {}) == table([], {}) == oracle_match(empty, teachers, {})
        for where, rows in [("true", [{}]), ("x = 1", [{}]), ("false", []), ("null", [])]:
            clause = ast.Match(empty, False, parse_expr(where))
            assert match_tuple(clause, teachers, {"x": 1}) == table([], *rows), where
        with pytest.raises(EvalError):
            match_tuple(ast.Match(empty, False, parse_expr("1 < 'a'")), teachers, {"x": 1})


class TestBoundVariables:
    def test_bound_node_restricts_matches(self, teachers):
        pats = parse_pattern_tuple("(x)-[:KNOWS]->(y)")
        got = match_tuple(pats, teachers, {"x": n(2)})
        assert got == table(["y"], {"y": n(3)})

    def test_bound_node_not_in_output(self, teachers):
        pats = parse_pattern_tuple("(x)-[:KNOWS]->(y)")
        got = match_tuple(pats, teachers, {"x": n(1)})
        assert got.fields == ("y",)

    def test_bound_to_non_node_matches_nothing(self, teachers):
        pats = parse_pattern_tuple("(x)-[:KNOWS]->(y)")
        assert match_tuple(pats, teachers, {"x": 5}).is_empty()
        assert match_tuple(pats, teachers, {"x": r(1)}).is_empty()

    def test_bound_relationship_list(self, teachers):
        pats = parse_pattern_tuple("(x)-[q*1..3]->(y)")
        got = match_tuple(pats, teachers, {"q": (r(1), r(2))})
        assert got == table(["x", "y"], {"x": n(1), "y": n(3)})

    def test_repeated_variable_within_tuple(self, teachers):
        # (x)->(y) and (y)->(z) must share the middle node
        pats = parse_pattern_tuple("(x)-[:KNOWS]->(y), (y)-[:KNOWS]->(z)")
        got = match_tuple(pats, teachers, {})
        assert got == table(
            ["x", "y", "z"],
            {"x": n(1), "y": n(2), "z": n(3)},
            {"x": n(2), "y": n(3), "z": n(4)},
        )

    def test_repeated_node_variable_in_one_path(self):
        # a triangle closes (x)->()->(x); the chain graph cannot
        g = load_graph({
            "nodes": [{"id": f"n{i}", "labels": [], "properties": {}} for i in (1, 2, 3)],
            "relationships": [
                {"id": "r1", "type": "t", "src": "n1", "tgt": "n2", "properties": {}},
                {"id": "r2", "type": "t", "src": "n2", "tgt": "n3", "properties": {}},
                {"id": "r3", "type": "t", "src": "n3", "tgt": "n1", "properties": {}},
            ],
        })
        pats = parse_pattern_tuple("(x)-[*2]->(x)")
        assert match_tuple(pats, g, {}).is_empty()
        pats = parse_pattern_tuple("(x)-[*3]->(x)")
        assert match_tuple(pats, g, {}).total_rows() == 3


class TestUniquenessAcrossTuple:
    def test_two_paths_cannot_share_a_relationship(self, teachers):
        pats = parse_pattern_tuple("(a)-[p]->(b), (c)-[q]->(d)")
        got = match_tuple(pats, teachers, {})
        for u in got.records():
            assert u["p"] != u["q"]
        # 3 relationships, ordered pairs without repetition
        assert got.total_rows() == 6

    def test_single_node_paths_do_not_conflict(self, teachers):
        pats = parse_pattern_tuple("(a), (b)")
        assert match_tuple(pats, teachers, {}).total_rows() == 16


class TestDirections:
    def test_left_mirrors_right(self, teachers):
        right = match_tuple(parse_pattern_tuple("(a)-[:KNOWS]->(b)"), teachers, {})
        left = match_tuple(parse_pattern_tuple("(b)<-[:KNOWS]-(a)"), teachers, {})
        assert right == left

    def test_reversing_the_graph_swaps_directions(self, teachers):
        doc = teachers.to_document()
        for rel in doc["relationships"]:
            rel["src"], rel["tgt"] = rel["tgt"], rel["src"]
        reversed_g = load_graph(doc)
        fwd = match_tuple(parse_pattern_tuple("(a)-[q]->(b)"), teachers, {})
        bwd = match_tuple(parse_pattern_tuple("(a)<-[q]-(b)"), reversed_g, {})
        assert fwd == bwd

    def test_undirected_matches_both_orientations(self, teachers):
        undirected = match_tuple(parse_pattern_tuple("(a)-[q]-(b)"), teachers, {})
        assert undirected.total_rows() == 6  # each edge in both orientations

    def test_undirected_self_loop_counts_once(self):
        g = load_graph({
            "nodes": [{"id": "n1", "labels": [], "properties": {}}],
            "relationships": [{"id": "r1", "type": "t", "src": "n1", "tgt": "n1",
                               "properties": {}}],
        })
        got = match_tuple(parse_pattern_tuple("(a)-[q]-(b)"), g, {})
        assert got == table(["a", "b", "q"], {"a": n(1), "b": n(1), "q": r(1)})


class TestPropertiesOnRelationships:
    def test_props_apply_to_every_hop_of_a_ranged_slot(self):
        g = load_graph({
            "nodes": [{"id": f"n{i}", "labels": [], "properties": {}} for i in (1, 2, 3)],
            "relationships": [
                {"id": "r1", "type": "t", "src": "n1", "tgt": "n2", "properties": {"w": 1}},
                {"id": "r2", "type": "t", "src": "n2", "tgt": "n3", "properties": {"w": 2}},
            ],
        })
        one = match_tuple(parse_pattern_tuple("(a)-[* {w: 1}]->(b)"), g, {})
        assert one == table(["a", "b"], {"a": n(1), "b": n(2)})
        # the two-hop walk fails because r2.w = 2
        both = match_tuple(parse_pattern_tuple("(a)-[*2 {w: 1}]->(b)"), g, {})
        assert both.is_empty()

    def test_property_expression_reads_other_bindings(self, teachers):
        g = load_graph({
            "nodes": [
                {"id": "n1", "labels": [], "properties": {"k": 7}},
                {"id": "n2", "labels": [], "properties": {"k": 7}},
                {"id": "n3", "labels": [], "properties": {"k": 8}},
            ],
            "relationships": [
                {"id": "r1", "type": "t", "src": "n1", "tgt": "n2", "properties": {}},
                {"id": "r2", "type": "t", "src": "n1", "tgt": "n3", "properties": {}},
            ],
        })
        pats = parse_pattern_tuple("(a)-[]->(b {k: a.k})")
        got = match_tuple(pats, g, {})
        assert got == table(["a", "b"], {"a": n(1), "b": n(2)})


class TestTermination:
    def test_walks_are_bounded_by_relationship_count(self):
        # complete-ish graph, unbounded range: enumeration must still stop
        nodes = [{"id": f"n{i}", "labels": [], "properties": {}} for i in (1, 2, 3)]
        rels = []
        k = 0
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                if a != b:
                    k += 1
                    rels.append({"id": f"r{k}", "type": "t",
                                 "src": f"n{a}", "tgt": f"n{b}", "properties": {}})
        g = load_graph({"nodes": nodes, "relationships": rels})
        stats = MatchStats()
        got = match_tuple(parse_pattern_tuple("(a)-[*]-(b)"), g, {}, stats=stats)
        assert stats.max_partial_hops <= len(g.rels)
        assert not got.is_empty()

    def test_stats_count_witnesses(self, teachers):
        stats = MatchStats()
        match_tuple(parse_pattern_tuple("(x)-[:KNOWS]->(y)"), teachers, {}, stats=stats)
        assert stats.witnesses == 3


def chain_graph(n):
    """c0 -> c1 -> ... -> c{n-1}, every node named after its id."""
    return load_graph({
        "nodes": [{"id": f"c{i}", "labels": [], "properties": {"name": f"c{i}"}}
                  for i in range(n)],
        "relationships": [{"id": f"e{i}", "type": "N", "src": f"c{i}", "tgt": f"c{i + 1}",
                           "properties": {}} for i in range(n - 1)],
    })


class TestDeepWalks:
    def test_anchored_walk_down_a_3000_node_chain(self):
        g = chain_graph(3000)
        got = output(parse_query("MATCH (a {name: 'c0'})-[*]->(b) RETURN b"), g)
        assert got.total_rows() == 2999
        assert got == table(["b"], *[{"b": NodeId(f"c{i}")} for i in range(1, 3000)])

    def test_stack_depth_does_not_grow_with_path_length(self):
        def depth():
            frame, n = sys._getframe(), 0
            while frame is not None:
                frame, n = frame.f_back, n + 1
            return n

        pats = parse_pattern_tuple("(a {name: 'c0'})-[r*]->(b)")
        short, long_ = chain_graph(20), chain_graph(1500)
        limit = sys.getrecursionlimit()
        # far fewer frames than the long walk has hops, enough for the short one
        sys.setrecursionlimit(depth() + 100)
        try:
            assert match_tuple(pats, short, {}).total_rows() == 19
            stats = MatchStats()
            assert match_tuple(pats, long_, {}, stats=stats).total_rows() == 1499
        finally:
            sys.setrecursionlimit(limit)
        assert stats.max_partial_hops == 1499 <= len(long_.rels)


# n1 -T-> n2 -T-> n3, and n4 alone.  Only n4 has `w`, an integer, so the
# check `w: a.w AND true` is ill-typed on n4 alone, and n4 starts no path.
CHECKS = load_graph({
    "nodes": [
        {"id": "n1", "labels": [], "properties": {"name": "a", "k": 1}},
        {"id": "n2", "labels": [], "properties": {"name": "b", "k": 2, "prev": "a"}},
        {"id": "n3", "labels": ["L"], "properties": {"name": "c", "prev": "b"}},
        {"id": "n4", "labels": [], "properties": {"w": 4}},
    ],
    "relationships": [
        {"id": "t1", "type": "T", "src": "n1", "tgt": "n2", "properties": {"w": "x"}},
        {"id": "t2", "type": "T", "src": "n2", "tgt": "n3", "properties": {"w": "y"}},
    ],
})


def outcome(run, query, g=CHECKS):
    try:
        return ("table", run(parse_query(query), g))
    except EvalError as exc:
        return ("error", exc.kind)


class TestCheckOrder:
    """Early property checks keep the outcome of checking every completed
    witness in pattern order: the first check that is not true decides."""

    def agree(self, query, g=CHECKS):
        got = outcome(output, query, g)
        assert got == outcome(oracle_output, query, g), query
        return got

    def test_ill_typed_check_on_a_prefix_that_never_completes(self):
        kind, t = self.agree("MATCH (a {w: a.w AND true})-[:T]->(b) RETURN b")
        assert kind == "table" and t.is_empty()
        # the same check on a witness that completes raises
        assert self.agree("MATCH (a {w: a.w AND true}) RETURN a") == ("error", "TypeMismatch")

    def test_false_check_before_an_erroring_one_prunes(self):
        kind, t = self.agree("MATCH (a {name: 'zz', k: a.k AND true})-[:T]->(b) RETURN b")
        assert kind == "table" and t.is_empty()

    def test_false_check_after_an_erroring_one_raises(self):
        got = self.agree("MATCH (a {k: a.k AND true, name: 'zz'})-[:T]->(b) RETURN b")
        assert got == ("error", "TypeMismatch")

    def test_check_reading_a_name_bound_later_in_the_pattern(self):
        kind, t = self.agree("MATCH (a {name: b.prev})-[:T]->(b) RETURN a, b")
        assert t == table(["a", "b"], {"a": n(1), "b": n(2)}, {"a": n(2), "b": n(3)})
        kind, t = self.agree("MATCH (a)-[r {w: b.name}]->(b)-[s {w: 'y'}]->(c) RETURN a")
        assert t.is_empty()
        # ill-typed only once b is n2: the held error needs a completion
        assert self.agree("MATCH (a {k: b.k AND true})-[:T]->(b) RETURN a") == (
            "error", "TypeMismatch")
        # walked from b:L = n3, whose k is null: the check is null, no error
        kind, t = self.agree("MATCH (a {k: b.k AND true})-[:T]->(b:L) RETURN a")
        assert kind == "table" and t.is_empty()

    def test_reversed_path_binds_lists_and_paths_in_pattern_order(self):
        # only the last node has a property map, so the walk starts there
        stats = MatchStats()
        pats = parse_pattern_tuple("p = (a)-[r*1..2]->(b {name: 'c'})")
        match_tuple(pats, CHECKS, {}, stats=stats)
        assert stats.walks_extended == 2  # n3 back to n2, then to n1
        kind, t = self.agree("MATCH p = (a)-[r*1..2]->(b {name: 'c'}) RETURN p, r, a")
        n1, n2, n3 = NodeId("n1"), NodeId("n2"), NodeId("n3")
        t1, t2 = RelId("t1"), RelId("t2")
        assert t == table(
            ["a", "p", "r"],
            {"a": n2, "r": (t2,), "p": Path((n2, n3), (t2,))},
            {"a": n1, "r": (t1, t2), "p": Path((n1, n2, n3), (t1, t2))},
        )
        # bound far end: same witnesses, and the hop checks keep pattern order
        kind, t2_ = self.agree("MATCH (x:L) MATCH p = (a)-[r*1..2 {w: 'x'}]->(x) RETURN p")
        assert t2_.is_empty()
        kind, t = self.agree("MATCH (x:L) MATCH p = (a)<-[r*0..2]-(y)-[*1..2]->(x) RETURN a, r, y")
        assert t.total_rows() == 2  # y = n2 or n1, zero hops back to a
        assert self.agree("MATCH (a {k: a.k AND true})-[:T]->(b {name: 'c'}) RETURN a")[0] == "error"

    def test_anchor_with_a_property_map_prunes_before_walking(self):
        stats = MatchStats()
        got = match_tuple(parse_pattern_tuple("(a {name: 'a'})-[*]->(b)"), CHECKS, {}, stats=stats)
        assert got.total_rows() == 2
        assert stats.walks_extended == 2

    def test_generated_check_pairs_agree_with_the_oracle(self):
        outcomes = set()
        for seed in range(400):
            g, q = gen_case(GenConfig(seed=seed, check_pairs=0.3))
            agree, detail = differential_case(g, q)
            assert agree, detail
            outcomes.add(isinstance(detail["engine"], str))
        assert outcomes == {True, False}  # both errors and tables came up


class TestLabelIndex:
    def test_labelled_anchor_matches_the_oracle(self, citation):
        for query in ["MATCH (a:Researcher) RETURN a", "MATCH (a:Researcher:Student) RETURN a",
                      "MATCH (a:Nope) RETURN a", "MATCH (a)-[:authors]->(b:Publication) RETURN a, b"]:
            assert output(parse_query(query), citation) == oracle_output(parse_query(query), citation)


# n1 stores `name` as an integer, n2 as a string: `=` against a string
# literal raises on n1, so no index may answer for `name` on this graph.
INT_AND_STR = load_graph({"nodes": [{"id": "n1", "properties": {"name": 1}},
                                    {"id": "n2", "properties": {"name": "v7"}}],
                          "relationships": []})


def error_of(query, g):
    with pytest.raises(EvalError) as exc:
        output(parse_query(query), g)
    return exc.value.kind, exc.value.message, exc.value.span


class TestSeeksAndPushdown:
    """Property-index seeks and the WHERE run as the last check leave every
    outcome as it was when the anchor scanned and the WHERE filtered the
    finished bag."""

    agree = TestCheckOrder.agree

    def test_mixed_kinds_under_the_key_still_raise(self):
        int_str = ("TypeMismatch", "no equality between int and str")
        # a map entry's error points at the entry's value
        assert error_of("MATCH (a {name: 'v7'}) RETURN a", INT_AND_STR) == (*int_str, (16, 20))
        assert error_of("MATCH (a) WHERE a.name = 'v7' RETURN a", INT_AND_STR) == (*int_str, (16, 29))
        assert error_of("MATCH (a) WHERE 'v7' = a.name RETURN a", INT_AND_STR) == (
            "TypeMismatch", "no equality between str and int", (16, 29))

    def test_memo_keys_on_the_names_the_where_reads(self):
        got = output(parse_query("UNWIND [1, 2] AS x MATCH (a) WHERE a.k = x RETURN a, x"), CHECKS)
        assert got == table(["a", "x"], {"a": n(1), "x": 1}, {"a": n(2), "x": 2})

    def test_optional_match_pads_when_the_where_keeps_nothing(self):
        query = ("MATCH (a {name: 'a'}) UNWIND [1, 1] AS u "
                 "OPTIONAL MATCH (a)-[:T]->(b) WHERE b.k = 99 RETURN a, b")
        assert output(parse_query(query), CHECKS) == table(["a", "b"], ({"a": n(1), "b": None}, 2))
        assert output(parse_query(query), CHECKS) == oracle_output(parse_query(query), CHECKS)

    def test_where_raising_on_a_prefix_that_never_completes_raises_nothing(self):
        # a.w AND true is ill-typed on n4 alone, and n4 starts no T path
        kind, t = self.agree("MATCH (a)-[:T]->(b) WHERE a.w AND true RETURN b")
        assert kind == "table" and t.is_empty()
        assert error_of("MATCH (a) WHERE a.w AND true RETURN a", CHECKS)[0] == "TypeMismatch"

    def test_where_runs_after_every_pattern_check(self):
        # a.k AND true is ill-typed on n1 and n2, but no relationship has w 'zz'
        kind, t = self.agree("MATCH (a)-[r {w: 'zz'}]->(b) WHERE a.k AND true RETURN a")
        assert kind == "table" and t.is_empty()

    def test_held_error_is_raised_without_seeking(self):
        # the check on a raises on n4 and is held; no node has name 'zz',
        # but every completion must still raise
        got = self.agree("MATCH (a {w: a.w AND true}), (b {name: 'zz'}) RETURN a, b")
        assert got == ("error", "TypeMismatch")
        got = self.agree("MATCH (a {w: a.w AND true}), (b) WHERE b.name = 'zz' RETURN a")
        assert got == ("error", "TypeMismatch")

    def test_where_error_may_come_before_a_later_pattern_error(self):
        # n1 -> n2 passes the pattern check and fails the WHERE; n3 -> n4
        # fails the pattern check.  Both errors are on the one input row, and
        # the WHERE's, met first, is raised.
        g = load_graph({"nodes": [{"id": "n1", "properties": {"k": 1}},
                                  {"id": "n2", "properties": {"w": True}},
                                  {"id": "n3"}, {"id": "n4", "properties": {"w": 4}}],
                        "relationships": [{"id": "t1", "type": "T", "src": "n1", "tgt": "n2"},
                                          {"id": "t2", "type": "T", "src": "n3", "tgt": "n4"}]})
        query = "MATCH (a)-[:T]->(b {w: b.w AND true}) WHERE a.k < 'x' RETURN a"
        assert error_of(query, g) == ("TypeMismatch", "no order between int and str", (44, 53))
        assert outcome(oracle_output, query, g) == ("error", "TypeMismatch")

    def test_name_anchored_matches_read_few_properties(self, monkeypatch):
        size = 2000
        g = load_graph({
            "nodes": [{"id": f"n{i}", "properties": {"name": f"v{i}"}} for i in range(size)],
            "relationships": [{"id": f"r{i}", "type": "T", "src": f"n{i}",
                               "tgt": f"n{(i + 1) % size}"} for i in range(size)],
        })
        reads = []
        prop = PropertyGraph.prop
        monkeypatch.setattr(PropertyGraph, "prop", lambda self, i, key: reads.append(key) or prop(self, i, key))
        for query, want in [
            ("MATCH (a {name: 'v7'}) RETURN a", table(["a"], {"a": n(7)})),
            ("MATCH (a)-[:T]->(b) WHERE a.name = 'v7' RETURN b", table(["b"], {"b": n(8)})),
            ("MATCH (a)-[:T]->(b) WHERE 'v7' = a.name RETURN b", table(["b"], {"b": n(8)})),
            ("MATCH (a)-[:T]->(b {name: 'v7'}) RETURN a", table(["a"], {"a": n(6)})),
            ("MATCH (a)-[:T]->(b) WHERE b.name = 'v7' RETURN a", table(["a"], {"a": n(6)})),
            ("MATCH (a)-[:T]->(b) WHERE 'v7' = b.name RETURN a", table(["a"], {"a": n(6)})),
        ]:
            reads.clear()
            assert output(parse_query(query), g) == want, query
            assert len(reads) < 100, query

    def test_far_end_where_seeks_agree_with_the_oracle(self):
        # the WHERE seeks b, so these paths are walked from b
        outcomes = set()
        for seed in range(200):
            g, _ = gen_case(GenConfig(seed=seed, mixed_kinds=0.3))
            for query in ("MATCH (a)-[q]->(b) WHERE b.k = 1 RETURN a, q, b",
                          "MATCH (a)-[:a*0..2]-(b) WHERE 'x' = b.k RETURN a, b",
                          "MATCH (a)<-[]-(b) WHERE b.v = 'x' RETURN a"):
                agree, detail = differential_case(g, parse_query(query))
                assert agree, detail
                outcomes.add(isinstance(detail["engine"], str))
        assert outcomes == {True, False}

    def test_generated_mixed_kinds_agree_with_the_oracle(self):
        outcomes = set()
        for seed in range(400):
            g, q = gen_case(GenConfig(seed=seed, mixed_kinds=0.3))
            agree, detail = differential_case(g, q)
            assert agree, detail
            outcomes.add(isinstance(detail["engine"], str))
        assert outcomes == {True, False}  # both errors and tables came up


# m1 -X-> m2 twice and m2 -X-> m1 (one unordered endpoint pair), an X and
# a Y self-loop on m3, and single relationships elsewhere.
def _rel(rid, rtype, src, tgt, **props):
    return {"id": rid, "type": rtype, "src": src, "tgt": tgt, "properties": props}


TWINS = load_graph({
    "nodes": [{"id": "m1", "labels": ["K"]}, {"id": "m2", "labels": ["L"]},
              {"id": "m3", "labels": ["K", "L"]}, {"id": "m4"}, {"id": "m5", "labels": ["L"]}],
    "relationships": [_rel("x1", "X", "m1", "m2", w=1), _rel("x2", "X", "m1", "m2"),
                      _rel("x3", "X", "m2", "m1", w=1), _rel("x4", "X", "m2", "m3", w=2),
                      _rel("l1", "X", "m3", "m3", w=1), _rel("l2", "Y", "m3", "m3"),
                      _rel("y1", "Y", "m3", "m4"), _rel("y2", "Y", "m4", "m5", w=1)],
})


def _twinned_graph(size=500, seed=11):
    """A seeded graph with parallel and antiparallel relationships and
    self-loops among random ones."""
    rng = random.Random(seed)
    rels = []
    for _ in range(3 * size):
        rels.append((rng.choice("XY"), rng.randrange(size), rng.randrange(size)))
    for _ in range(size // 10):
        a, b = rng.randrange(size), rng.randrange(size)
        rels += [("X", a, b), ("X", a, b), ("X", b, a), ("X", a, a), ("Y", a, a)]
    return load_graph({
        "nodes": [{"id": f"n{i}"} for i in range(size)],
        "relationships": [_rel(f"r{i}", t, f"n{a}", f"n{b}") for i, (t, a, b) in enumerate(rels)],
    })


TWINNED = _twinned_graph()
ONE_HOP = ["(a)-[:X]->(b)", "(a)-[:X]->(b)-[:X]->(c)", "(a)-[]-(b)"]


def _rows(text, g=TWINNED):
    return list(match_tuple(parse_pattern_tuple(text), g, {}).rows())


def _keyed(rows):
    t = Table(rows[0][0])
    for record, count in rows:
        t.add(record, count)
    return list(t.rows())


def _rows_are_keyed_rows():
    """Each ONE_HOP pattern lists the rows, in order and with counts, of the
    same pattern with every slot written *1..1 (which keys every row), and
    a pattern with a two-hop anonymous slot lists each row once."""
    two_hops = _rows("(a)-[:X*2]->(b)")
    return (all(_rows(text) == _rows(text.replace("]", "*1..1]")) for text in ONE_HOP)
            and two_hops == _keyed(two_hops))


def _plant_unkeyed_ranged_slots(monkeypatch):
    plan_match = matcher.plan_match

    def planted(c, fields):
        plan = plan_match(c, fields)
        if all(walk.node is not None and all(hop.node is not None for hop in walk.hops)
               for walk in plan.walks):
            plan = plan._replace(unkeyed=True)
        return plan

    monkeypatch.setattr(matcher, "plan_match", planted)


class TestOneHop:
    """A one-hop slot places its relationship and the next node in one
    frame, and a witness with an anonymous slot or node enters keyed."""

    @pytest.mark.parametrize("text,u,counts", [
        ("(a)-[:X]->(b)", {}, (5, 1, 5)),
        ("(a)-[:X]->(b)-[]->(c)", {}, (16, 2, 11)),
        ("(a)-[]-(b)", {}, (14, 1, 14)),
        ("(a)-[]-(b)-[:X]-(c)", {}, (38, 2, 24)),
        ("(a)-[{w: 1}]->(b)", {}, (8, 1, 4)),
        ("(a)-[r:X]->(b)", {}, (5, 1, 5)),
        ("(a)-[r]->(b)", {"r": RelId("x3")}, (8, 1, 1)),
        ("(a)-[]->(b:L)", {}, (6, 1, 6)),
        ("(a:K)-[]->(b:L)", {}, (5, 1, 4)),
        ("p = (a)-[:X]->(b)<-[]-(c)", {}, (11, 2, 6)),
        ("(a)-[]->(b), (b)-[:Y]->(c)", {}, (14, 1, 6)),
    ])
    def test_counters_are_pinned(self, text, u, counts):
        stats = MatchStats()
        match_tuple(parse_pattern_tuple(text), TWINS, u, stats=stats)
        assert (stats.walks_extended, stats.max_partial_hops, stats.witnesses) == counts

    def test_rows_keep_the_order_and_counts_of_keyed_rows(self):
        assert _rows_are_keyed_rows()
        assert any(count > 1 for _, count in _rows(ONE_HOP[0]))  # rows of parallel relationships merged
        assert _rows("(a)-[:X]->(b)", TWINS) == [
            ({"a": NodeId("m1"), "b": NodeId("m2")}, 2), ({"a": NodeId("m2"), "b": NodeId("m1")}, 1),
            ({"a": NodeId("m2"), "b": NodeId("m3")}, 1), ({"a": NodeId("m3"), "b": NodeId("m3")}, 1)]

    @pytest.mark.parametrize("plant", [_plant_unkeyed_ranged_slots], ids=lambda p: p.__name__[len("_plant_"):])
    def test_each_unsound_twin_rule_is_caught(self, monkeypatch, plant):
        plant(monkeypatch)
        assert not _rows_are_keyed_rows()


# Named paths on a chain m0 -> m1 -> ... -> m5 with a parallel copy of its first
# relationship: every named path with one ranged slot lists distinct rows.
CHAIN = load_graph({
    "nodes": [{"id": f"m{i}"} for i in range(6)],
    "relationships": [_rel(f"e{i}", "N", f"m{i}", f"m{i + 1}") for i in range(5)] + [_rel("t0", "N", "m0", "m1")],
})
NAMED_PATHS = [
    ("p = (a)-[*]->(b)", True),
    ("p = (a)-[]->()-[*0..2]->(b)", True),
    ("p = ()-[]->(), q = ()-[*1..2]->()", True),
    ("p = (a)-[*1..2]->()-[*1..2]->(b)", False),  # two ranged slots: a path splits two ways
    ("p = (a)-[*]->(b), (b)-[]->(c)", False),  # an unnamed path
    ("p = (a)-[]->(b), p = (c)", False),  # a name used twice
    ("p = (p)-[]->(b)", False),
]


def _named_paths_are_keyed_rows():
    return all(_rows(text, CHAIN) == _keyed(_rows(text, CHAIN)) for text, _ in NAMED_PATHS if _rows(text, CHAIN))


def _plant_named_paths_with_two_ranged_slots(monkeypatch):
    plan_match = matcher.plan_match

    def planted(c, fields):
        plan = plan_match(c, fields)
        if all(walk.path is not None for walk in plan.walks):
            plan = plan._replace(unkeyed=True)
        return plan

    monkeypatch.setattr(matcher, "plan_match", planted)


class TestNamedPaths:
    """A tuple of named paths, each with fresh names and at most one ranged
    slot, enters its witnesses unkeyed: its path values fix the witness."""

    @pytest.mark.parametrize("text,unkeyed", NAMED_PATHS, ids=[text for text, _ in NAMED_PATHS])
    def test_the_rule_is_read_off_the_plan(self, text, unkeyed):
        plan = matcher.plan_match(parse_pattern_tuple(text), ())
        assert plan.unkeyed is unkeyed

    def test_rows_are_keyed_rows(self):
        assert _named_paths_are_keyed_rows()
        assert any(count > 1 for _, count in _rows(NAMED_PATHS[3][0], CHAIN))

    def test_a_path_with_two_ranged_slots_entered_unkeyed_is_caught(self, monkeypatch):
        _plant_named_paths_with_two_ranged_slots(monkeypatch)
        assert not _named_paths_are_keyed_rows()


def _plan(text, fields=()):
    return matcher.plan_match(parse_query(f"{text} RETURN 1 AS one").clauses[-1], fields)


class TestPlan:
    """A MATCH is planned once: each path's anchor kind and walk end, and
    which hop is a leaf, are read off its plan."""

    @pytest.mark.parametrize("text,fields,walks", [
        # the seven lookup shapes
        ("MATCH (a {name: 'v7'})", (), [("seek", False)]),
        ("MATCH (a {name: 'v7'})-[:X]->(b)", (), [("seek", False)]),
        ("OPTIONAL MATCH (a)-[:X]->(b:A)", ("a",), [("bound", False)]),
        ("MATCH (a {name: 'v7'})<-[:X]-(b:A)", (), [("seek", False)]),
        ("MATCH (a {name: 'v7'})-[*1..2]->(b)", (), [("seek", False)]),
        ("MATCH (a)-[:X]->(b {name: 'v7'})", (), [("seek", True)]),
        ("MATCH (a)-[:X]->(b) WHERE a.name = 'v7'", (), [("seek", False)]),
        # the label index, a scan, a bound far end, and a seek on a name bound by an earlier path
        ("MATCH (a:A)-[:X]->(b)", (), [("label", False)]),
        ("MATCH (a)-[:X]->(b:A)", (), [("label", True)]),
        ("MATCH (a)-[:X]->(b)", (), [("scan", False)]),
        ("MATCH (a)-[:X]->(b)", ("b",), [("bound", True)]),
        ("MATCH (a {name: 'v7'}), (b)-[:X]->(a)", (), [("seek", False), ("bound", True)]),
        ("MATCH (a), (b {name: a.name})", (), [("scan", False), ("seek", False)]),
        ("MATCH (a {name: b.name}), (b)", (), [("scan", False), ("scan", False)]),
    ])
    def test_anchor_kind_and_walk_end(self, text, fields, walks):
        assert [(walk.anchor, walk.far) for walk in _plan(text, fields).walks] == walks

    @pytest.mark.parametrize("text,fields,leaf", [
        ("MATCH (a)-[:X]->(b)", (), True),
        ("MATCH (a)-[r]->(b)", (), True),
        ("MATCH (a)-[]->()", (), True),
        ("MATCH ()-[]->()-[]->()", (), True),
        ("MATCH (a)-[]->(b)-[]->(c)", (), True),
        ("MATCH (a)-[]->(b), (c)-[]->(d)", (), True),
        ("MATCH (a)-[:X]->(b)", ("b",), True),  # walked from b: a is the leaf's node
        ("MATCH (a)-[]->(a)", (), False),
        ("MATCH (a)-[]->(b)-[]->(a)", (), False),
        ("MATCH (a)-[r]->(b)", ("r",), False),
        ("MATCH (a)-[]->(b)", ("b", "a"), False),
        ("MATCH (a), (b), (a)-[]->(b)", (), False),
        ("MATCH (a)-[b]->(b)", (), False),
        ("MATCH p = (a)-[]->(b)", (), False),
        ("MATCH (a)-[*]->(b)", (), False),
        ("MATCH (a)-[*1..1]->(b)", (), False),
        ("MATCH (a)-[{w: 1}]->(b)", (), False),
        ("MATCH (a {k: 1})-[]->(b {k: 1})", (), False),
        ("MATCH (a)-[]->(b {k: 1})", (), True),  # walked from b: the map is the anchor's
    ])
    def test_leaf_flag(self, text, fields, leaf):
        hops = [hop for walk in _plan(text, fields).walks for hop in walk.hops]
        assert hops[-1].leaf is leaf
        assert not any(hop.leaf for hop in hops[:-1])

    def test_fields_and_memo_key(self):
        plan = _plan("MATCH (a {k: x})-[r]->(b) WHERE b.k = y", ("a", "x", "y", "z"))
        assert plan.fields == ("b", "r")
        assert plan.relevant == ("a", "x", "y")

    def test_one_plan_per_match_clause(self, monkeypatch):
        plans, plan_match = [], engine.plan_match
        monkeypatch.setattr(engine, "plan_match", lambda c, fields: plans.append(c) or plan_match(c, fields))
        query = parse_query("UNWIND [1, 2, 3] AS x MATCH (a {k: x}) MATCH (b) WHERE b.k = x RETURN a, b")
        assert output(query, CHECKS) == oracle_output(query, CHECKS)
        assert plans == list(query.clauses[1:])
        plans.clear()
        empty = parse_query("UNWIND [] AS x MATCH (a {k: x}) RETURN a, x")
        assert output(empty, CHECKS) == table(["a", "x"])
        assert plans == []


def _clause(text):
    return parse_query(f"{text} RETURN 1 AS one").clauses[-1]


def _without_leaves(plan):
    return plan._replace(walks=tuple(walk._replace(hops=tuple(hop._replace(leaf=False) for hop in walk.hops))
                                     for walk in plan.walks))


def _match(plan, g, u):
    stats = MatchStats()
    try:
        rows = list(match_tuple(plan, g, u, stats=stats).rows())
    except EvalError as exc:
        rows = ("error", exc.kind, exc.span)
    return rows, (stats.walks_extended, stats.max_partial_hops, stats.witnesses)


# (clause, graph, input row, whether a leaf frame runs)
LEAF_CASES = [
    ("MATCH (a)-[:X]->(b)", TWINNED, {}, True),
    ("MATCH (a)-[:X]->(b)", TWINS, {}, True),
    ("MATCH (a)-[]-(b)", TWINNED, {}, True),  # undirected, over self-loops
    ("MATCH (a)-[]-(b)", TWINS, {}, True),
    ("MATCH (a)<-[]-(b)-[]-(c)", TWINS, {}, True),
    ("MATCH (a:K)-[]->(b:L)", TWINS, {}, True),
    ("MATCH (a)-[]->(b:L)-[:X]-(c:K)", TWINS, {}, True),
    ("MATCH (a)-[r:X]->(b)", TWINS, {}, True),
    ("MATCH ()-[:X]->()-[]-()", TWINNED, {}, True),  # every row keyed
    ("MATCH (a)-[:X]->(b)-[:X]->(c)", TWINNED, {}, True),
    ("MATCH (a)-[:X]->(b), (c)-[:X]->(d)", TWINS, {}, True),  # the second leaf skips used ones
    ("MATCH (a)-[]->(b), (b)-[]-(c)", TWINS, {}, True),
    ("OPTIONAL MATCH (a)-[:X]->(b)", TWINS, {"a": NodeId("m1")}, True),
    ("MATCH (a)-[{w: 1}]->(b)-[:X]->(c)", TWINS, {}, True),  # a property map on an earlier element
    ("MATCH (a)-[{w: 'x'}]->(b)-[]->(c)", TWINS, {}, False),  # a held error
    ("MATCH (a)-[:X]->(b)-[]->(c) WHERE a <> b", TWINS, {}, True),
    ("MATCH (a)-[:X]->(b)-[]->(c) WHERE c <> a", TWINS, {}, False),
    ("MATCH (a)-[:X]->(b) WHERE b <> a", TWINS, {}, False),
]


def _leaf_agrees(text, g, u):
    plan = matcher.plan_match(_clause(text), tuple(u))
    return _match(plan, g, u) == _match(_without_leaves(plan), g, u)


def _leaves_agree():
    return all(_leaf_agrees(text, g, u) for text, g, u, _ in LEAF_CASES)


def _plant_leaf(monkeypatch, change):
    leaf = matcher._Search._leaf

    def planted(self, hop, cur, depth):
        saved = self.used
        try:
            leaf(self, change(self, hop), cur, depth)
        finally:
            self.used = saved

    monkeypatch.setattr(matcher._Search, "_leaf", planted)


def _plant_leaf_ignores_used(monkeypatch):
    def change(search, hop):
        search.used = set()
        return hop
    _plant_leaf(monkeypatch, change)


def _plant_leaf_skips_labels(monkeypatch):
    _plant_leaf(monkeypatch, lambda search, hop: hop._replace(labels=frozenset()))


class TestLeaf:
    """A rigid last hop with no check left and only fresh names emits its
    witnesses in one loop, with the rows, order, counts and counters of the
    generic frame."""

    @pytest.mark.parametrize("text,g,u,runs", LEAF_CASES, ids=[case[0] for case in LEAF_CASES])
    def test_the_leaf_is_the_generic_frame(self, monkeypatch, text, g, u, runs):
        calls, leaf = [], matcher._Search._leaf
        monkeypatch.setattr(matcher._Search, "_leaf", lambda *args: calls.append(1) or leaf(*args))
        assert _leaf_agrees(text, g, u)
        assert bool(calls) is runs

    @pytest.mark.parametrize("plant", [_plant_leaf_ignores_used, _plant_leaf_skips_labels],
                             ids=lambda p: p.__name__[len("_plant_"):])
    def test_each_unsound_leaf_is_caught(self, monkeypatch, plant):
        assert _leaves_agree()
        plant(monkeypatch)
        assert not _leaves_agree()
