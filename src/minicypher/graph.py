"""Immutable in-memory property graph with an adjacency index.

A graph is the tuple (nodes, relationships, src, tgt, properties, labels,
types).  Properties are stored per element, one ``{key: value}`` map each
(empty when it has none), and property lookup is total: unset keys read as
null.  Instances are frozen after :func:`load_graph`; all query methods are
read-only and safe to share between threads.  Ids are interned
(``values.NodeId``), so every store and index, keyed by the id itself,
hashes and compares by identity, and loading is safe from any thread.
The undirected adjacency is built at load.  The per-key property index and
the twin set are built on first use and cached; a build is idempotent, so
threads that race to build one store equal copies.
"""

from __future__ import annotations

from typing import Any

from .ast import LEFT as IN, RIGHT as OUT, UNDIRECTED as BOTH  # adjacency directions
from .errors import DanglingEndpoint, DuplicateId, SchemaError, UnknownId
from .values import MAX_DEPTH, Map, NodeId, RelId, Value, kind


def _value_from_json(raw: Any, where: str) -> Value:
    """Decode a JSON property value into a Value. Floats are rejected."""
    if raw is None or isinstance(raw, (bool, int, str)):
        return raw
    if isinstance(raw, float):
        raise SchemaError(f"{where}: floating-point property values are not supported")
    if isinstance(raw, list):
        return tuple(_value_from_json(x, where) for x in raw)
    if isinstance(raw, dict):  # a dict's keys are distinct, as a Map's must be
        return Map(tuple((k, _value_from_json(v, where)) for k, v in raw.items()))
    raise SchemaError(f"{where}: unsupported property value {raw!r}")


def _too_deep(raw: Any) -> bool:
    """Whether raw JSON nests arrays and objects deeper than MAX_DEPTH,
    walked level by level with no recursion."""
    level, depth = [raw], 0
    while level:
        depth += 1
        if depth > MAX_DEPTH:
            return True
        level = [y for x in level for y in (x.values() if isinstance(x, dict) else x)
                 if isinstance(y, (list, dict))]
    return False


def _load_props(raw_props: Any, where: str) -> dict[str, Value]:
    if not isinstance(raw_props, dict):
        raise SchemaError(f"{where}: `properties` must be an object")
    props: dict[str, Value] = {}
    for k, raw in raw_props.items():
        at = f"{where}.properties.{k}"
        if isinstance(raw, (list, dict)) and _too_deep(raw):
            raise SchemaError(f"{at}: value nests deeper than {MAX_DEPTH} levels")
        v = _value_from_json(raw, at)
        if v is not None:
            props[k] = v
    return props


def _value_to_json(v: Value) -> Any:
    k = kind(v)
    if k in ("null", "bool", "int", "str"):
        return v
    if k == "list":
        return [_value_to_json(x) for x in v]
    if k == "map":
        return {key: _value_to_json(w) for key, w in v.entries}
    raise SchemaError(f"cannot store {v!r} as a document property")


def _props_to_json(props: dict[str, Value]) -> dict:
    return {k: _value_to_json(props[k]) for k in sorted(props)}


class PropertyGraph:
    """Frozen property graph. Build instances with :func:`load_graph`."""

    __slots__ = (
        "nodes", "rels", "_src", "_tgt", "_labels", "_types", "_props",
        "_out", "_in", "_both", "_by_label", "_by_prop", "_twins", "__weakref__",
    )

    def __init__(
        self,
        nodes: tuple[NodeId, ...],
        rels: tuple[RelId, ...],
        src: dict[RelId, NodeId],
        tgt: dict[RelId, NodeId],
        labels: dict[NodeId, frozenset[str]],
        types: dict[RelId, str],
        props: dict[NodeId | RelId, dict[str, Value]],
    ):
        self.nodes = nodes
        self.rels = rels
        self._src = src
        self._tgt = tgt
        self._labels = labels
        self._types = types
        self._props = props
        # Adjacency index, in document order for determinism.
        out: dict[NodeId, list[RelId]] = {n: [] for n in nodes}
        inc: dict[NodeId, list[RelId]] = {n: [] for n in nodes}
        for r in rels:
            out[src[r]].append(r)
            inc[tgt[r]].append(r)
        self._out = {n: tuple(v) for n, v in out.items()}
        self._in = {n: tuple(v) for n, v in inc.items()}
        # Undirected: outgoing, then incoming; a self-loop sits in both, once.
        self._both = {n: self._out[n] + tuple(r for r in self._in[n] if src[r] is not n)
                      for n in nodes}
        # Label index: label -> the nodes carrying it, in document order.
        by_label: dict[str, list[NodeId]] = {}
        for n in nodes:
            for label in labels[n]:
                by_label.setdefault(label, []).append(n)
        self._by_label = {label: tuple(v) for label, v in by_label.items()}
        # Property index: key -> (value index, scalar kinds stored), on demand.
        self._by_prop: dict[str, tuple[dict, frozenset[str]]] = {}
        self._twins: frozenset[RelId] | None = None  # on demand

    # -- lookups ----------------------------------------------------------

    def has_id(self, i: NodeId | RelId) -> bool:
        return i in self._props

    def src(self, r: RelId) -> NodeId:
        self._check_rel(r)
        return self._src[r]

    def tgt(self, r: RelId) -> NodeId:
        self._check_rel(r)
        return self._tgt[r]

    def labels(self, n: NodeId) -> frozenset[str]:
        if n not in self._labels:
            raise UnknownId(f"unknown node id {n.key}")
        return self._labels[n]

    def nodes_with_labels(self, labels: frozenset[str]) -> tuple[NodeId, ...]:
        """The nodes carrying every label in ``labels``, in document order
        (all nodes when ``labels`` is empty)."""
        if not labels:
            return self.nodes
        candidates = min((self._by_label.get(label, ()) for label in labels), key=len)
        if len(labels) == 1:
            return candidates
        return tuple(n for n in candidates if labels <= self._labels[n])

    def nodes_with_prop(self, key: str, v: Value) -> tuple[NodeId, ...] | None:
        """The nodes whose property ``key`` is the bool, int or str ``v``, in
        document order; None when ``v`` is of another kind, or when a node
        stores a non-composite value of another kind under ``key`` (so
        ``=`` against ``v`` would raise there)."""
        index = self._by_prop.get(key)
        if index is None:
            found: dict[tuple[str, Value], list[NodeId]] = {}
            for n in self.nodes:
                w = self._props[n].get(key)
                k = kind(w)
                if k not in ("null", "list", "map", "path"):
                    found.setdefault((k, w), []).append(n)
            index = self._by_prop[key] = (
                {kv: tuple(ns) for kv, ns in found.items()}, frozenset(k for k, _ in found))
        by_value, kinds = index
        k = kind(v)
        if k not in ("bool", "int", "str") or not kinds <= {k}:
            return None
        return by_value.get((k, v), ())

    def rel_type(self, r: RelId) -> str:
        self._check_rel(r)
        return self._types[r]

    def prop(self, i: NodeId | RelId, key: str) -> Value:
        """Stored property value, or null when no property is stored."""
        props = self._props.get(i)
        if props is None:
            raise UnknownId(f"unknown id {i.key}")
        return props.get(key)

    def incident(self, n: NodeId, direction: str) -> tuple[RelId, ...]:
        """Relationships with src(r)=n (OUT), tgt(r)=n (IN), or either (BOTH)."""
        if n not in self._labels:
            raise UnknownId(f"unknown node id {n.key}")
        if direction == OUT:
            return self._out[n]
        if direction == IN:
            return self._in[n]
        if direction == BOTH:
            return self._both[n]
        raise ValueError(f"bad direction {direction!r}")

    def twins(self) -> frozenset[RelId]:
        """The relationships that share their unordered endpoint pair with
        another relationship (two self-loops on one node are twins)."""
        if self._twins is None:
            found: set[RelId] = set()
            for n, rels in self._both.items():
                first: dict[NodeId, RelId] = {}  # other end -> the first rel to it
                for r in rels:
                    twin = first.setdefault(self._src[r] if self._tgt[r] is n else self._tgt[r], r)
                    if twin is not r:
                        found.update((twin, r))
            self._twins = frozenset(found)
        return self._twins

    def trusted_maps(self) -> tuple[dict, dict, dict, dict]:
        """The (src, tgt, type, labels) maps, read-only, for ids that this
        graph handed out (``incident``, ...): they need no unknown-id check."""
        return self._src, self._tgt, self._types, self._labels

    def other_end(self, r: RelId, n: NodeId) -> NodeId:
        return self._tgt[r] if self._src[r] == n else self._src[r]

    def _check_rel(self, r: RelId) -> None:
        if r not in self._types:
            raise UnknownId(f"unknown relationship id {r.key}")

    # -- document round-trip ----------------------------------------------

    def to_document(self) -> dict:
        """Re-serialize to the graph JSON schema (inverse of load_graph)."""
        return {
            "nodes": [
                {
                    "id": n.key,
                    "labels": sorted(self._labels[n]),
                    "properties": _props_to_json(self._props[n]),
                }
                for n in self.nodes
            ],
            "relationships": [
                {
                    "id": r.key,
                    "type": self._types[r],
                    "src": self._src[r].key,
                    "tgt": self._tgt[r].key,
                    "properties": _props_to_json(self._props[r]),
                }
                for r in self.rels
            ],
        }

    def __repr__(self) -> str:
        return f"PropertyGraph(|N|={len(self.nodes)}, |R|={len(self.rels)})"


def _expect(doc: dict, key: str, kind: type, where: str) -> Any:
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"{where}: missing field `{key}`")
    v = doc[key]
    if not isinstance(v, kind) or isinstance(v, bool):
        raise SchemaError(f"{where}: field `{key}` must be {kind.__name__}")
    return v


def _new_id(doc: Any, where: str, seen: set[str]) -> str:
    # An id is its own TSV cell, unescaped, so it may hold no tab, LF or CR.
    raw_id = _expect(doc, "id", str, where)
    if not raw_id.isprintable() and any(c in raw_id for c in "\t\n\r"):
        raise SchemaError(f"{where}: id {raw_id!r} holds a tab, LF or CR")
    if raw_id in seen:
        raise DuplicateId(f"{where}: id {raw_id!r} declared twice")
    seen.add(raw_id)
    return raw_id


def load_graph(document: dict) -> PropertyGraph:
    """Build a PropertyGraph from a parsed JSON document.

    Raises SchemaError on shape problems (a property value nested deeper
    than ``values.MAX_DEPTH`` and an id holding a tab, LF or CR among them),
    DuplicateId for repeated ids (node and relationship ids share one
    namespace), and DanglingEndpoint when a relationship references an
    undeclared node.
    """
    node_docs = _expect(document, "nodes", list, "document")
    rel_docs = _expect(document, "relationships", list, "document")

    seen: set[str] = set()
    nodes: list[NodeId] = []
    labels: dict[NodeId, frozenset[str]] = {}
    props: dict[NodeId | RelId, dict[str, Value]] = {}

    for idx, nd in enumerate(node_docs):
        where = f"nodes[{idx}]"
        n = NodeId(_new_id(nd, where, seen))
        raw_labels = nd.get("labels", [])
        if not isinstance(raw_labels, list) or not all(isinstance(x, str) for x in raw_labels):
            raise SchemaError(f"{where}: `labels` must be a list of strings")
        props[n] = _load_props(nd.get("properties", {}), where)
        nodes.append(n)
        labels[n] = frozenset(raw_labels)

    rels: list[RelId] = []
    src: dict[RelId, NodeId] = {}
    tgt: dict[RelId, NodeId] = {}
    types: dict[RelId, str] = {}
    node_of = {n.key: n for n in nodes}

    for idx, rd in enumerate(rel_docs):
        where = f"relationships[{idx}]"
        r = RelId(_new_id(rd, where, seen))
        rtype = _expect(rd, "type", str, where)
        s = _expect(rd, "src", str, where)
        t = _expect(rd, "tgt", str, where)
        if s not in node_of:
            raise DanglingEndpoint(f"{where}: src {s!r} is not a declared node")
        if t not in node_of:
            raise DanglingEndpoint(f"{where}: tgt {t!r} is not a declared node")
        props[r] = _load_props(rd.get("properties", {}), where)
        rels.append(r)
        src[r] = node_of[s]
        tgt[r] = node_of[t]
        types[r] = rtype

    return PropertyGraph(tuple(nodes), tuple(rels), src, tgt, labels, types, props)
