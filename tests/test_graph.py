import json
import random
import re
import time

import pytest

from minicypher.errors import DanglingEndpoint, DuplicateId, SchemaError, UnknownId
from minicypher.graph import BOTH, IN, OUT, PropertyGraph, load_graph
from minicypher.values import MAX_DEPTH, Map, NodeId, RelId


def doc(nodes=(), rels=()):
    return {"nodes": list(nodes), "relationships": list(rels)}


def node(i, labels=(), props=None):
    return {"id": i, "labels": list(labels), "properties": props or {}}


def rel(i, type_, src, tgt, props=None):
    return {"id": i, "type": type_, "src": src, "tgt": tgt, "properties": props or {}}


@pytest.fixture
def g():
    return load_graph(doc(
        nodes=[node("n1", ["A", "B"], {"k": 1}), node("n2"), node("n3")],
        rels=[
            rel("r1", "t", "n1", "n2", {"w": "x"}),
            rel("r2", "s", "n2", "n1"),
            rel("r3", "t", "n3", "n3"),
        ],
    ))


def test_accessors(g):
    assert g.labels(NodeId("n1")) == frozenset({"A", "B"})
    assert g.labels(NodeId("n2")) == frozenset()
    assert g.rel_type(RelId("r2")) == "s"
    assert g.src(RelId("r1")) == NodeId("n1")
    assert g.tgt(RelId("r1")) == NodeId("n2")
    assert g.prop(NodeId("n1"), "k") == 1
    assert g.prop(RelId("r1"), "w") == "x"


def test_unset_property_is_null(g):
    assert g.prop(NodeId("n2"), "k") is None
    assert g.prop(RelId("r1"), "nope") is None


def test_unknown_ids_raise(g):
    with pytest.raises(UnknownId):
        g.labels(NodeId("n99"))
    with pytest.raises(UnknownId):
        g.src(RelId("r99"))


def test_has_id_and_prop_by_kind_of_id(g):
    for i in (NodeId("n2"), RelId("r2")):  # declared, with no properties
        assert g.has_id(i) and g.prop(i, "k") is None
    # an undeclared key, and a declared key under the other class of id
    for i in (NodeId("n99"), RelId("r99"), NodeId("r1"), RelId("n1")):
        assert not g.has_id(i)
        with pytest.raises(UnknownId, match=f"^unknown id {i.key}$"):
            g.prop(i, "k")


def test_incident_directions(g):
    n1, n2 = NodeId("n1"), NodeId("n2")
    assert set(g.incident(n1, OUT)) == {RelId("r1")}
    assert set(g.incident(n1, IN)) == {RelId("r2")}
    assert set(g.incident(n1, BOTH)) == {RelId("r1"), RelId("r2")}
    assert set(g.incident(n2, BOTH)) == {RelId("r1"), RelId("r2")}


def test_incident_self_loop_not_duplicated(g):
    # r3 is a self loop on n3: under BOTH it must appear once, not twice.
    assert g.incident(NodeId("n3"), BOTH) == (RelId("r3"),)
    assert g.incident(NodeId("n3"), OUT) == (RelId("r3"),)
    assert g.incident(NodeId("n3"), IN) == (RelId("r3"),)


def test_incident_both_order_is_outgoing_then_incoming_without_self_loops():
    # Parallel relationships, a self-loop and both directions around n1:
    # BOTH lists the outgoing ones in document order, then the incoming
    # ones that are not self-loops, each self-loop once.
    h = load_graph(doc(
        nodes=[node("n1"), node("n2")],
        rels=[
            rel("r1", "t", "n2", "n1"), rel("r2", "t", "n1", "n2"),
            rel("r3", "t", "n1", "n1"), rel("r4", "t", "n2", "n1"),
            rel("r5", "t", "n1", "n2"), rel("r6", "t", "n1", "n1"),
        ],
    ))
    keys = lambda n, d: [r.key for r in h.incident(NodeId(n), d)]
    assert keys("n1", BOTH) == ["r2", "r3", "r5", "r6", "r1", "r4"]
    assert keys("n2", BOTH) == ["r1", "r4", "r2", "r5"]
    assert keys("n1", OUT) == ["r2", "r3", "r5", "r6"]
    assert keys("n1", IN) == ["r1", "r3", "r4", "r6"]
    assert isinstance(h.incident(NodeId("n1"), BOTH), tuple)


def test_label_index_in_document_order():
    h = load_graph(doc(nodes=[
        node("n3", ["B"]), node("n1", ["A", "B"]), node("n4", ["A"]),
        node("n2", ["B", "A", "C"]), node("n5"),
    ]))
    ids = lambda labels: [n.key for n in h.nodes_with_labels(frozenset(labels))]
    assert ids(["A"]) == ["n1", "n4", "n2"]
    assert ids(["B"]) == ["n3", "n1", "n2"]
    assert ids(["A", "B"]) == ["n1", "n2"]
    assert ids(["A", "B", "C"]) == ["n2"]
    assert ids(["A", "Z"]) == [] and ids(["Z"]) == []
    assert h.nodes_with_labels(frozenset()) == h.nodes


def test_property_index_answers_only_where_equality_cannot_raise():
    h = load_graph(doc(
        nodes=[node("n3", props={"k": 1, "f": True}), node("n1", props={"k": [1]}),
               node("n4", props={"k": 1, "f": 1}), node("n2", props={"k": 2, "m": {"a": 1}})],
        rels=[rel("r1", "t", "n1", "n2", {"k": "x"})],
    ))
    ids = lambda key, v: [n.key for n in h.nodes_with_prop(key, v)]
    # document order; the list under k compares false, never raises
    assert ids("k", 1) == ["n3", "n4"] and ids("k", 2) == ["n2"]
    assert ids("k", 3) == [] and ids("nope", "x") == []
    # a relationship's k is not a node's: no str is stored under k
    assert h.nodes_with_prop("k", "x") is None
    # f stores a bool and an int, so `=` raises on one node whatever v is
    assert h.nodes_with_prop("f", True) is None and h.nodes_with_prop("f", 1) is None
    assert ids("m", 1) == []
    for v in (None, (1,), Map((("a", 1),)), NodeId("n3")):
        assert h.nodes_with_prop("k", v) is None
    h2 = load_graph(doc(nodes=[node("n1", props={"f": True}), node("n2", props={"f": False})]))
    assert [n.key for n in h2.nodes_with_prop("f", True)] == ["n1"]
    assert h2.nodes_with_prop("f", 1) is None


def test_other_end(g):
    assert g.other_end(RelId("r1"), NodeId("n1")) == NodeId("n2")
    assert g.other_end(RelId("r1"), NodeId("n2")) == NodeId("n1")
    assert g.other_end(RelId("r3"), NodeId("n3")) == NodeId("n3")


def test_to_document_round_trips(g):
    g2 = load_graph(g.to_document())
    assert g2.to_document() == g.to_document()
    assert set(g2.nodes) == set(g.nodes)
    assert set(g2.rels) == set(g.rels)


def test_a_large_graph_round_trips_in_linear_time():
    rng = random.Random(15)

    def props():
        keys = rng.sample(["k", "name", "w", "xs", "m", "flag", "gone"], rng.randint(1, 5))
        values = {"k": rng.randint(-9, 9), "name": f"s{rng.randint(0, 99)}", "w": rng.randint(0, 3),
                  "xs": [rng.randint(0, 3), "a", [True]], "m": {"b": 1, "a": [None, "x"]},
                  "flag": rng.random() < 0.5, "gone": None}
        return {key: values[key] for key in keys}  # unsorted keys; a null is not stored

    nodes = [node(f"n{i}", rng.sample(["A", "B", "C"], rng.randint(0, 2)), props()) for i in range(2000)]
    rels = [rel(f"r{i}", rng.choice("XY"), f"n{rng.randrange(2000)}", f"n{rng.randrange(2000)}", props())
            for i in range(8000)]
    expected = doc(nodes, rels)
    for element in nodes + rels:
        element["properties"] = {k: v for k, v in sorted(element["properties"].items()) if v is not None}
    for element in nodes:
        element["labels"].sort()
    start = time.perf_counter()
    document = load_graph(expected).to_document()
    again = load_graph(document).to_document()
    assert time.perf_counter() - start < 5
    assert json.dumps(document) == json.dumps(again) == json.dumps(expected)


def test_list_and_map_properties():
    g = load_graph(doc(nodes=[node("n1", props={"xs": [1, "a", [2]], "m": {"k": True}})]))
    assert g.prop(NodeId("n1"), "xs") == (1, "a", (2,))
    assert g.prop(NodeId("n1"), "m") == Map((("k", True),))


def test_duplicate_node_id():
    with pytest.raises(DuplicateId):
        load_graph(doc(nodes=[node("n1"), node("n1")]))


def test_duplicate_rel_id():
    with pytest.raises(DuplicateId):
        load_graph(doc(
            nodes=[node("n1")],
            rels=[rel("r1", "t", "n1", "n1"), rel("r1", "t", "n1", "n1")],
        ))


def test_node_and_rel_ids_share_a_namespace():
    with pytest.raises(DuplicateId):
        load_graph(doc(nodes=[node("x")], rels=[rel("x", "t", "x", "x")]))


def test_dangling_endpoint():
    with pytest.raises(DanglingEndpoint):
        load_graph(doc(nodes=[node("n1")], rels=[rel("r1", "t", "n1", "n9")]))


@pytest.mark.parametrize("bad", [
    {},
    {"nodes": []},
    {"nodes": {}, "relationships": []},
    doc(nodes=[{"labels": []}]),
    doc(nodes=[{"id": 5}]),
    doc(nodes=[{"id": "n1", "labels": "ab", "properties": {}}]),
    doc(nodes=[node("n1")], rels=[{"id": "r1", "src": "n1", "tgt": "n1"}]),
    # `properties` that is not an object
    doc(nodes=[{**node("n1"), "properties": []}]),
    doc(nodes=[{**node("n1"), "properties": 5}]),
    doc(nodes=[node("n1")], rels=[{**rel("r1", "t", "n1", "n1"), "properties": []}]),
    doc(nodes=[node("n1")], rels=[{**rel("r1", "t", "n1", "n1"), "properties": 5}]),
    # an id holding a tab, LF or CR, which would split its TSV cell
    doc(nodes=[node("n\t1")]),
    doc(nodes=[node("n1\n")]),
    doc(nodes=[node("n1")], rels=[rel("\rr1", "t", "n1", "n1")]),
])
def test_schema_errors(bad):
    with pytest.raises(SchemaError):
        load_graph(bad)


def test_floats_are_rejected():
    with pytest.raises(SchemaError):
        load_graph(doc(nodes=[node("n1", props={"k": 1.5})]))


def nested(depth, kind):
    """1 inside depth lists or single-entry maps."""
    v = 1
    for _ in range(depth):
        v = [v] if kind == "list" else {"k": v}
    return v


@pytest.mark.parametrize("kind", ["list", "map"])
def test_property_depth_is_bounded(kind):
    g = load_graph(doc(nodes=[node("n1", props={"p": nested(MAX_DEPTH, kind)})],
                       rels=[rel("r1", "t", "n1", "n1", {"p": [[1], nested(MAX_DEPTH - 1, kind)]})]))
    assert g.prop(NodeId("n1"), "p") is not None and g.prop(RelId("r1"), "p") is not None
    too_deep = nested(MAX_DEPTH + 1, kind)
    for bad, where in [(doc(nodes=[node("n1", props={"p": too_deep})]), "nodes[0].properties.p"),
                       (doc(nodes=[node("n1")], rels=[rel("r1", "t", "n1", "n1", {"q": [1, too_deep]})]),
                        "relationships[0].properties.q")]:
        with pytest.raises(SchemaError, match=re.escape(f"{where}: value nests deeper than {MAX_DEPTH} levels")):
            load_graph(bad)


def test_empty_graph():
    g = load_graph(doc())
    assert g.nodes == ()
    assert g.rels == ()
