import copy
import gc
import hashlib
import json
import random
import re
import sys
import threading
import time

import pytest

from minicypher.errors import DanglingEndpoint, DuplicateId, GraphLoadError, SchemaError, UnknownId
from minicypher.graph import BOTH, IN, OUT, PropertyGraph, load_graph
from minicypher.values import MAX_DEPTH, Map, NodeId, RelId


def doc(nodes=(), rels=()):
    return {"nodes": list(nodes), "relationships": list(rels)}


def node(i, labels=(), props=None):
    return {"id": i, "labels": list(labels), "properties": props or {}}


def rel(i, type_, src, tgt, props=None):
    return {"id": i, "type": type_, "src": src, "tgt": tgt, "properties": props or {}}


G_DOC = doc(
    nodes=[node("n1", ["A", "B"], {"k": 1}), node("n2"), node("n3")],
    rels=[
        rel("r1", "t", "n1", "n2", {"w": "x"}),
        rel("r2", "s", "n2", "n1"),
        rel("r3", "t", "n3", "n3"),
    ],
)


@pytest.fixture
def g():
    return load_graph(G_DOC)


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


INCIDENT_DOC = doc(
    nodes=[node("n1"), node("n2")],
    rels=[
        rel("r1", "t", "n2", "n1"), rel("r2", "t", "n1", "n2"),
        rel("r3", "t", "n1", "n1"), rel("r4", "t", "n2", "n1"),
        rel("r5", "t", "n1", "n2"), rel("r6", "t", "n1", "n1"),
    ],
)


def test_incident_both_order_is_outgoing_then_incoming_without_self_loops():
    # Parallel relationships, a self-loop and both directions around n1:
    # BOTH lists the outgoing ones in document order, then the incoming
    # ones that are not self-loops, each self-loop once.
    h = load_graph(INCIDENT_DOC)
    keys = lambda n, d: [r.key for r in h.incident(NodeId(n), d)]
    assert keys("n1", BOTH) == ["r2", "r3", "r5", "r6", "r1", "r4"]
    assert keys("n2", BOTH) == ["r1", "r4", "r2", "r5"]
    assert keys("n1", OUT) == ["r2", "r3", "r5", "r6"]
    assert keys("n1", IN) == ["r1", "r3", "r4", "r6"]
    assert isinstance(h.incident(NodeId("n1"), BOTH), tuple)


LABEL_DOC = doc(nodes=[
    node("n3", ["B"]), node("n1", ["A", "B"]), node("n4", ["A"]),
    node("n2", ["B", "A", "C"]), node("n5"),
])


def test_label_index_in_document_order():
    h = load_graph(LABEL_DOC)
    ids = lambda labels: [n.key for n in h.nodes_with_labels(frozenset(labels))]
    assert ids(["A"]) == ["n1", "n4", "n2"]
    assert ids(["B"]) == ["n3", "n1", "n2"]
    assert ids(["A", "B"]) == ["n1", "n2"]
    assert ids(["A", "B", "C"]) == ["n2"]
    assert ids(["A", "Z"]) == [] and ids(["Z"]) == []
    assert h.nodes_with_labels(frozenset()) == h.nodes


def test_equal_label_sets_share_one_frozenset():
    h = load_graph(doc(nodes=[node("n1", ["A", "B"]), node("n2", ["A"]), node("n3", ["A", "B"]),
                              node("n4", ["B", "A"]), node("n5"), node("n6", ["B", "A", "A"])]))
    n1, n2, n3, n4, n5, n6 = h.nodes
    assert h.labels(n1) is h.labels(n3) is h.labels(n4) is h.labels(n6) == frozenset({"A", "B"})
    assert h.labels(n2) == frozenset({"A"}) and h.labels(n5) == frozenset()
    ids = lambda labels: [n.key for n in h.nodes_with_labels(frozenset(labels))]
    assert ids(["A"]) == ["n1", "n2", "n3", "n4", "n6"]
    assert ids(["B"]) == ids(["A", "B"]) == ["n1", "n3", "n4", "n6"]
    assert ids(["C"]) == [] and h.nodes_with_labels(frozenset()) == h.nodes


PROP_DOC = doc(
    nodes=[node("n3", props={"k": 1, "f": True}), node("n1", props={"k": [1]}),
           node("n4", props={"k": 1, "f": 1}), node("n2", props={"k": 2, "m": {"a": 1}})],
    rels=[rel("r1", "t", "n1", "n2", {"k": "x"})],
)


def test_property_index_answers_only_where_equality_cannot_raise():
    h = load_graph(PROP_DOC)
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


def random_document(rng, n_nodes, n_rels):
    """Nodes with up to two labels and relationships of two types, each with
    properties of every kind under unsorted keys, nulls among them."""

    def props():
        keys = rng.sample(["k", "name", "w", "xs", "m", "flag", "gone"], rng.randint(1, 5))
        values = {"k": rng.randint(-9, 9), "name": f"s{rng.randint(0, 99)}", "w": rng.randint(0, 3),
                  "xs": [rng.randint(0, 3), "a", [True]], "m": {"b": 1, "a": [None, "x"]},
                  "flag": rng.random() < 0.5, "gone": None}
        return {key: values[key] for key in keys}

    nodes = [node(f"n{i}", rng.sample(["A", "B", "C"], rng.randint(0, 2)), props()) for i in range(n_nodes)]
    rels = [rel(f"r{i}", rng.choice("XY"), f"n{rng.randrange(n_nodes)}", f"n{rng.randrange(n_nodes)}", props())
            for i in range(n_rels)]
    return doc(nodes, rels)


def test_a_large_graph_round_trips_in_linear_time():
    expected = random_document(random.Random(15), 2000, 8000)
    for element in expected["nodes"] + expected["relationships"]:  # a null is not stored
        element["properties"] = {k: v for k, v in sorted(element["properties"].items()) if v is not None}
    for element in expected["nodes"]:
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


SCHEMA_ERRORS = [
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
]


# a property key, or a key of a map value, that is not a string: JSON text
# cannot hold one, so these stay out of the load corpus (FAILS) below
KEY_ERRORS = [
    doc(nodes=[{**node("n1"), "properties": {1: 2, "x": 3}}]),
    doc(nodes=[node("n1")], rels=[{**rel("r1", "t", "n1", "n1"), "properties": {("k",): 1}}]),
    doc(nodes=[node("n1", props={"m": {1: 2}})]),
    doc(nodes=[node("n1", props={"m": [{"k": {None: 1}}]})]),
]


# an id holding a backslash, which an id cell would not escape
BACKSLASH_IDS = [
    doc(nodes=[node("n\\1")]),
    doc(nodes=[node("\\")]),
    doc(nodes=[node("n1")], rels=[rel("r\\t1", "t", "n1", "n1")]),
]


@pytest.mark.parametrize("bad", SCHEMA_ERRORS + BACKSLASH_IDS + KEY_ERRORS)
def test_schema_errors(bad):
    with pytest.raises(SchemaError):
        load_graph(bad)


@pytest.mark.parametrize("props, message", [
    ({"x": 3, 1: 2}, "nodes[0].properties.1: key 1 is not a string"),
    ({"x": 1.5, 1: 2}, "nodes[0].properties.x: floating-point property values are not supported"),
    ({"m": {"k": 1, 2: 3}}, "nodes[0].properties.m: map key 2 is not a string"),
])
def test_keys_are_checked_in_document_order(props, message):
    with pytest.raises(SchemaError) as exc:
        load_graph(doc(nodes=[{**node("n1"), "properties": props}]))
    assert str(exc.value) == message


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


def test_a_graphs_ids_leave_the_intern_table_with_it():
    h = load_graph(doc(nodes=[node("gone1"), node("gone2")], rels=[rel("gone3", "t", "gone1", "gone2")]))
    assert NodeId._interned["gone1"]() is h.nodes[0] and RelId._interned["gone3"]() is h.rels[0]
    del h
    gc.collect()
    assert not {"gone1", "gone2"} & NodeId._interned.keys() and "gone3" not in RelId._interned


def test_two_threads_loading_one_document_get_the_same_ids():
    document = doc(nodes=[node(f"two-{i}") for i in range(2000)],  # keys no other test holds
                   rels=[rel(f"two-r{i}", "t", f"two-{i}", f"two-{(i * 7) % 2000}") for i in range(2000)])
    barrier = threading.Barrier(2)
    loaded = [None, None]

    def load(slot):
        barrier.wait(timeout=10)
        loaded[slot] = load_graph(document)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=load, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    g1, g2 = loaded
    assert all(a is b for a, b in zip(g1.nodes + g1.rels, g2.nodes + g2.rels))
    assert len(g1.nodes) == len(g2.nodes) == len(g1.rels) == len(g2.rels) == 2000
    assert g1.nodes[5] is NodeId("two-5") and g2.rels[5] is RelId("two-r5")
    assert g1.src(g1.rels[5]) is g2.src(g2.rels[5]) is NodeId("two-5")


def test_empty_graph():
    g = load_graph(doc())
    assert g.nodes == ()
    assert g.rels == ()


# -- pinned load outcomes ---------------------------------------------------

class _Str(str):
    pass


class _Dict(dict):
    pass


_SWAPS = (5, True, None, "s", [], {}, ["x"], [1], 0.5, (1,))


def _mutate(rng, document):
    """A deep copy of ``document`` with one random fault or oddity in it:
    a field dropped or of another type, an id duplicated or holding a tab
    or LF, an endpoint dangling, a property value nested too deep, a float
    or a tuple, an element that is no object, or a str or dict subclass
    where a str or dict is expected."""
    d = copy.deepcopy(document)
    sections = [d[s] for s in ("nodes", "relationships") if isinstance(d.get(s), list)]
    elements = [(section, i) for section in sections for i, e in enumerate(section) if isinstance(e, dict)]
    if not elements:
        d[rng.choice(["nodes", "relationships", "other"])] = rng.choice(_SWAPS)
        return d
    section, i = rng.choice(elements)
    e = section[i]
    props = e.get("properties")
    what = rng.randrange(10)
    if what == 0:
        e.pop(rng.choice(sorted(e) + ["id"]), None)
    elif what == 1:
        e[rng.choice(sorted(e) + ["labels"])] = rng.choice(_SWAPS)
    elif what == 2:
        other, j = rng.choice(elements)
        e["id"] = other[j].get("id")
    elif what == 3:
        e[rng.choice(["src", "tgt"])] = "nowhere"
    elif what in (4, 5) and isinstance(props, dict):
        v = nested(MAX_DEPTH + 1, rng.choice(["list", "map"])) if what == 4 else rng.choice([0.5, (1,)])
        props[rng.choice(sorted(props) + ["p"])] = rng.choice([v, [1, v], {"a": v}])
    elif what == 6 and isinstance(e.get("id"), str):
        at = rng.randint(0, len(e["id"]))
        e["id"] = e["id"][:at] + rng.choice("\t\n") + e["id"][at:]
    elif what == 7:
        for key in ("id", "type", "src", "tgt"):
            if isinstance(e.get(key), str) and rng.random() < 0.5:
                e[key] = _Str(e[key])
        if isinstance(props, dict):
            e["properties"] = _Dict({k: _Str(v) if isinstance(v, str) else v for k, v in props.items()})
        if isinstance(e.get("labels"), list):
            e["labels"] = [_Str(x) if isinstance(x, str) else x for x in e["labels"]]
    elif what == 8:
        section[i] = _Dict(e)
    else:
        section.insert(rng.randint(0, len(section)), rng.choice(_SWAPS))
    return d


def load_outcome(document):
    """The JSON of the loaded graph's document, or the error it raises."""
    try:
        return json.dumps(load_graph(document).to_document(), sort_keys=True)
    except GraphLoadError as e:
        return f"{type(e).__name__}: {e}"


def _digest(documents):
    h = hashlib.sha256()
    for d in documents:
        h.update(load_outcome(d).encode() + b"\n")
    return h.hexdigest()


# The documents of this file that load, and those that do not.
LOADS = [G_DOC, INCIDENT_DOC, LABEL_DOC, PROP_DOC, random_document(random.Random(7), 12, 30),
         doc(nodes=[node("n1", props={"xs": [1, "a", [2]], "m": {"k": True}})]), doc()]
FAILS = [doc(nodes=[node("n1"), node("n1")]), doc(nodes=[node("x")], rels=[rel("x", "t", "x", "x")]),
         doc(nodes=[node("n1")], rels=[rel("r1", "t", "n1", "n9")]),
         doc(nodes=[node("n1", props={"k": 1.5})]), *SCHEMA_ERRORS]


def load_corpus():
    """The documents of this file and 3000 seeded mutations of them: seven
    in ten of a document that loads, three in ten mutated twice."""
    rng = random.Random(22)
    mutated = []
    for _ in range(3000):
        d = _mutate(rng, rng.choice(LOADS if rng.random() < 0.7 else LOADS + FAILS))
        mutated.append(_mutate(rng, d) if rng.random() < 0.3 else d)
    return LOADS + FAILS + mutated


def backslash_corpus():
    """Documents with a backslash put into an id, 500 of them seeded, some
    with a second fault, which the backslash precedes or follows."""
    rng = random.Random(23)
    corpus = list(BACKSLASH_IDS)
    for _ in range(500):
        d = copy.deepcopy(rng.choice(LOADS[:5]))  # those of several nodes
        section = d[rng.choice(["nodes", "relationships"])] or d["nodes"]
        e = rng.choice(section)
        at = rng.randint(0, len(e["id"]))
        e["id"] = e["id"][:at] + "\\" + e["id"][at:]
        corpus.append(_mutate(rng, d) if rng.random() < 0.5 else d)
    return corpus


# sha256 of every outcome over a corpus, one line each: a change to the
# loader keeps each message, error class and their precedence.
@pytest.mark.parametrize("corpus, digest", [
    (load_corpus, "3108acdf2df490f225ae3049e824a59e5ff3a0c6c623bb6ae86defbbb7990706"),
    (backslash_corpus, "a660c735541f56da770d1230dbb4d38c6f71553e02a5d43ce699a5825f54ba36"),
], ids=["load", "backslash"])
def test_load_outcomes_are_pinned(corpus, digest):
    assert _digest(corpus()) == digest
