"""Immutable in-memory property graph with an adjacency index.

A graph is the tuple (nodes, relationships, src, tgt, properties, labels,
types).  Properties are stored per element, one ``{key: value}`` map each
(empty when it has none), and property lookup is total: unset keys read as
null.  Instances are frozen after :func:`load_graph`; all query methods are
read-only and safe to share between threads.  Ids are interned
(``values.NodeId``), so every store and index, keyed by the id itself,
hashes and compares by identity, and loading is safe from any thread.

:func:`load_graph` checks and copies a document in one pass.  A field is
tested by its exact type, and by the subclass-admitting rule only when that
test misses; error text is built only on the branch that raises.  The ids
of the nodes, then of the relationships, are interned as one batch each,
under one lock, and nodes with equal label sets share one frozenset.  The
undirected adjacency is built at load.  The per-key property index is
built on first use and cached; a build is idempotent, so threads that race
to build one store equal copies.
"""

from __future__ import annotations

from typing import Any

from .ast import LEFT as IN, RIGHT as OUT, UNDIRECTED as BOTH  # adjacency directions
from .errors import DanglingEndpoint, DuplicateId, SchemaError, UnknownId
from .values import MAX_DEPTH, Map, NodeId, RelId, Value, kind


def _value_from_json(raw: Any) -> Value:
    """Decode a JSON property value into a Value. Floats are rejected."""
    if raw is None or isinstance(raw, (bool, int, str)):
        return raw
    if isinstance(raw, float):
        raise SchemaError("floating-point property values are not supported")
    if isinstance(raw, list):
        return tuple(_value_from_json(x) for x in raw)
    if isinstance(raw, dict):  # a dict's keys are distinct, as a Map's must be
        entries = []
        for k, v in raw.items():
            if not isinstance(k, str):
                raise SchemaError(f"map key {k!r} is not a string")
            entries.append((k, _value_from_json(v)))
        return Map(tuple(entries))
    raise SchemaError(f"unsupported property value {raw!r}")


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


# The exact types of the property values stored as they come: plain scalars.
_SCALARS = frozenset({type(None), bool, int, str})
_STR = frozenset({str})
_NO_LABELS: list[str] = []  # a node's labels when it lists none; never changed


def _load_props(raw_props: Any, section: str, idx: int) -> dict[str, Value]:
    """The stored properties of ``section[idx]``: keys that are strings,
    scalars copied across, lists and maps bounded in depth and decoded,
    nulls dropped."""
    if type(raw_props) is not dict and not isinstance(raw_props, dict):
        raise SchemaError(f"{section}[{idx}]: `properties` must be an object")
    props: dict[str, Value] = {}
    plain_keys = _STR.issuperset(map(type, raw_props))  # else each key is tested in turn
    for k, v in raw_props.items():
        if not plain_keys and not isinstance(k, str):
            raise SchemaError(f"{section}[{idx}].properties.{k}: key {k!r} is not a string")
        if type(v) not in _SCALARS:
            try:
                if isinstance(v, (list, dict)) and _too_deep(v):
                    raise SchemaError(f"value nests deeper than {MAX_DEPTH} levels")
                v = _value_from_json(v)
            except SchemaError as e:
                raise SchemaError(f"{section}[{idx}].properties.{k}: {e}") from None
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
        "_out", "_in", "_both", "_by_label", "_by_prop", "__weakref__",
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
        self._both = {n: self._out[n] + tuple([r for r in inc[n] if src[r] is not n]) for n in nodes}
        # Label index: label -> the nodes carrying it, in document order.
        by_label: dict[str, list[NodeId]] = {}
        for n in nodes:
            for label in labels[n]:
                by_label.setdefault(label, []).append(n)
        self._by_label = {label: tuple(v) for label, v in by_label.items()}
        # Property index: key -> (value index, scalar kinds stored), on demand.
        self._by_prop: dict[str, tuple[dict, frozenset[str]]] = {}

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

    def trusted_maps(self) -> tuple[dict, dict, dict, dict]:
        """The (src, tgt, type, labels) maps, read-only, for ids that this
        graph handed out (``incident``, ...): they need no unknown-id check."""
        return self._src, self._tgt, self._types, self._labels

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


def _new_id(doc: Any, section: str, idx: int, seen: set[str]) -> str:
    """The id of ``doc``, the element ``section[idx]``, added to ``seen``."""
    key = doc.get("id") if type(doc) is dict else None
    if type(key) is not str:
        key = _expect(doc, "id", str, f"{section}[{idx}]")
    if key in seen or "\\" in key or not key.isprintable():
        # An id is its own TSV cell, unescaped, so it may hold no tab, LF, CR
        # or backslash: a string cell's escapes could not be told from it.
        if not key.isprintable() and any(c in key for c in "\t\n\r"):
            raise SchemaError(f"{section}[{idx}]: id {key!r} holds a tab, LF or CR")
        if "\\" in key:
            raise SchemaError(f"{section}[{idx}]: id {key!r} holds a backslash")
        if key in seen:
            raise DuplicateId(f"{section}[{idx}]: id {key!r} declared twice")
    seen.add(key)
    return key


def load_graph(document: dict) -> PropertyGraph:
    """Build a PropertyGraph from a parsed JSON document, in one pass.

    Raises SchemaError on shape problems (a property value nested deeper
    than ``values.MAX_DEPTH``, a property or map key that is not a string,
    and an id holding a tab, LF, CR or backslash among them), DuplicateId
    for repeated ids (node and relationship ids share one namespace), and
    DanglingEndpoint when a relationship references an undeclared node;
    the first fault in document order wins.
    """
    node_docs = _expect(document, "nodes", list, "document")
    rel_docs = _expect(document, "relationships", list, "document")

    # Each field is tested by its exact type first; only on a miss do the
    # tests that admit subclasses (`_expect`, isinstance) run, and raise.
    seen: set[str] = set()
    node_keys: list[str] = []
    node_labels: list[frozenset[str]] = []
    node_props: list[dict[str, Value]] = []
    shared: dict[frozenset[str], frozenset[str]] = {}  # one frozenset per label set
    for idx, nd in enumerate(node_docs):
        key = _new_id(nd, "nodes", idx, seen)
        raw_labels = nd.get("labels", _NO_LABELS)
        if type(raw_labels) is not list or not _STR.issuperset(map(type, raw_labels)):
            if not isinstance(raw_labels, list) or not all(isinstance(x, str) for x in raw_labels):
                raise SchemaError(f"nodes[{idx}]: `labels` must be a list of strings")
        labels = frozenset(raw_labels)
        node_labels.append(shared.setdefault(labels, labels))
        node_props.append(_load_props(nd.get("properties", {}), "nodes", idx))
        node_keys.append(key)
    nodes = NodeId.intern_all(node_keys)
    node_of = dict(zip(node_keys, nodes))

    rel_keys: list[str] = []
    types: list[str] = []
    srcs: list[NodeId] = []
    tgts: list[NodeId] = []
    rel_props: list[dict[str, Value]] = []
    for idx, rd in enumerate(rel_docs):
        key = _new_id(rd, "relationships", idx, seen)
        rtype, s, t = rd.get("type"), rd.get("src"), rd.get("tgt")
        if type(rtype) is not str:
            rtype = _expect(rd, "type", str, f"relationships[{idx}]")
        if type(s) is not str:
            s = _expect(rd, "src", str, f"relationships[{idx}]")
        if type(t) is not str:
            t = _expect(rd, "tgt", str, f"relationships[{idx}]")
        sn, tn = node_of.get(s), node_of.get(t)
        if sn is None:
            raise DanglingEndpoint(f"relationships[{idx}]: src {s!r} is not a declared node")
        if tn is None:
            raise DanglingEndpoint(f"relationships[{idx}]: tgt {t!r} is not a declared node")
        rel_props.append(_load_props(rd.get("properties", {}), "relationships", idx))
        rel_keys.append(key)
        types.append(rtype)
        srcs.append(sn)
        tgts.append(tn)
    rels = RelId.intern_all(rel_keys)

    props: dict[NodeId | RelId, dict[str, Value]] = dict(zip(nodes, node_props))
    props.update(zip(rels, rel_props))
    return PropertyGraph(tuple(nodes), tuple(rels), dict(zip(rels, srcs)), dict(zip(rels, tgts)),
                         dict(zip(nodes, node_labels)), dict(zip(rels, types)), props)
