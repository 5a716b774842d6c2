"""The value universe: ids, base values, trilean, lists, maps, paths.

Values are represented by plain Python data wherever that is faithful:

====================  =========================================
null                  ``None``
booleans (trilean)    ``True`` / ``False`` (``None`` is null)
integers              ``int``
strings               ``str``
node/relationship id  :class:`NodeId` / :class:`RelId`
list                  ``tuple`` of values
map                   :class:`Map`
path                  :class:`Path`
====================  =========================================

:func:`kind` is the one map from Python objects to these kinds.  The one
trap in this encoding is that ``bool`` is a subclass of ``int``, so Python
considers ``True == 1`` and ``hash(True) == hash(1)``; :data:`KINDS` lists
bool before int, and everything that tells kinds apart reads :func:`kind`.
Structural identity of values (the notion used for bag counting,
``distinct`` and duplicate elimination — *not* the language-level ``=``)
goes through :func:`canon`, which produces a kind-tagged, hashable normal
form.

Ids are opaque atoms, so each is interned (one live object per class and
key, safe to create from any thread): their equality and hashing are
object identity, and ``NodeId('a')`` is never ``RelId('a')``.  Defining a
subclass of :class:`NodeId`, :class:`RelId` or :class:`Path` raises
``TypeError``, so ``==`` on ids and on paths is identity of canon forms.
"""

from __future__ import annotations

import threading
import weakref
from _weakref import _remove_dead_weakref
from typing import Callable, Iterable, Union

from .errors import EvalError, type_mismatch


class _Frozen:
    """Rejects assignment and deletion: ids, maps and paths are immutable."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


_INTERN_LOCK = threading.Lock()


class _Id(_Frozen):
    """A graph id, interned: one live object per (class, key), created under
    a lock (taken once per batch by :meth:`intern_all`), re-interned by copy
    and pickle, dropped once unreferenced."""

    __slots__ = ("key", "__weakref__")

    def __init_subclass__(cls, **kwargs):
        if cls.__mro__[1] is not _Id:
            raise TypeError(f"{cls.__name__}: NodeId and RelId cannot be subclassed")
        super().__init_subclass__(**kwargs)
        cls._interned = interned = {}  # key -> weakref.KeyedRef of the live id
        # the callback of every ref: a dead id's key goes unless a newer id holds it
        cls._drop = staticmethod(lambda ref: _remove_dead_weakref(interned, ref.key))

    def __new__(cls, key: str):
        return cls.intern_all((key,))[0]

    @classmethod
    def intern_all(cls, keys: Iterable[str]) -> list:
        """The ids of ``keys``, in order, all interned under one lock."""
        interned, drop, ids = cls._interned, cls._drop, []
        new, setattr_, new_ref, keyed_ref = object.__new__, object.__setattr__, weakref.ref.__new__, weakref.KeyedRef
        with _INTERN_LOCK:
            for key in keys:
                ref = interned.get(key)
                i = None if ref is None else ref()
                if i is None:
                    i = new(cls)
                    setattr_(i, "key", key)
                    # KeyedRef(i, drop, key), built as KeyedRef.__new__ builds it,
                    # without the Python-level calls of its __new__ and __init__
                    # (which add nothing: ref.__init__ only checks the arguments)
                    ref = interned[key] = new_ref(keyed_ref, i, drop)
                    ref.key = key
                ids.append(i)
        return ids

    def __reduce__(self):
        return type(self), (self.key,)


class NodeId(_Id):
    """A node identifier. ``key`` is the document-given id string."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"NodeId({self.key})"


class RelId(_Id):
    """A relationship identifier."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"RelId({self.key})"


class Map(_Frozen):
    """An immutable map value with pairwise-distinct string keys.

    Insertion order is retained for display purposes only; equality and
    hashing treat the entries as an unordered key set.
    """

    __slots__ = ("entries", "_canon")

    def __init__(self, entries: tuple[tuple[str, "Value"], ...] = ()):
        keys = [k for k, _ in entries]
        if len(keys) != len(set(keys)):
            raise ValueError(f"map keys must be distinct: {keys}")
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "_canon", None)

    def get(self, key: str) -> "Value":
        for k, v in self.entries:
            if k == key:
                return v
        return None

    @property
    def keys(self) -> frozenset[str]:
        return frozenset(k for k, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Map):
            return NotImplemented
        return canon(self) == canon(other)

    def __hash__(self) -> int:
        return hash(canon(self))

    def __reduce__(self):
        return type(self), (self.entries,)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v!r}" for k, v in self.entries)
        return f"map({inner})"


class Path(_Frozen):
    """A path value: node ids at even positions, relationship ids between.

    ``nodes`` has exactly one more element than ``rels``; a single-node
    path has no relationships at all.
    """

    __slots__ = ("nodes", "rels", "_canon")

    def __init__(self, nodes: tuple[NodeId, ...], rels: tuple[RelId, ...] = ()):
        if len(nodes) != len(rels) + 1:
            raise ValueError(f"path shape invalid: {len(nodes)} nodes, {len(rels)} rels")
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "rels", tuple(rels))
        object.__setattr__(self, "_canon", None)

    def __init_subclass__(cls, **kwargs):
        raise TypeError(f"{cls.__name__}: Path cannot be subclassed")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self.nodes == other.nodes and self.rels == other.rels

    def __hash__(self) -> int:
        return hash((self.nodes, self.rels))

    def __reduce__(self):
        return type(self), (self.nodes, self.rels)

    def __repr__(self) -> str:
        parts = [self.nodes[0].key]
        for r, n in zip(self.rels, self.nodes[1:]):
            parts.append(r.key)
            parts.append(n.key)
        return "path(" + ",".join(parts) + ")"


# A value is one of: None, bool, int, str, NodeId, RelId, tuple (list), Map, Path.
Value = Union[None, bool, int, str, NodeId, RelId, tuple, Map, Path]

# The deepest a value nests: a list or map is one level deeper than its
# deepest element, any other value is at level 0.  Values are walked by
# recursion (canon, equality, the JSON codecs, hashing of canon keys), so
# this bound keeps every walk well under Python's recursion limit.
MAX_DEPTH = 200

# The most cells a list or map literal's value expands to: one per element
# or entry, a shared element counted at each of its uses.  canon, equality
# and the codecs walk a value expanded, so a value that shares its elements
# (`WITH [x, x] AS x`, repeated) stays small in memory but not to walk; the
# bound keeps every walk linear in it.  List and map literals raise
# TooLarge past it.
MAX_CELLS = 50_000

# The most decimal digits an integer value has: the most int() converts
# from text, which a literal already meets in the parser, so every integer
# renders.  plus/minus/mult raise TooLarge past it.
MAX_DIGITS = 4300
_TOO_LARGE = 10 ** MAX_DIGITS  # the least integer of MAX_DIGITS + 1 digits

# Each kind's Python type, in the order a subclass instance is tried
# against them: bool before int, because bool <: int.
KINDS: tuple[tuple[type, str], ...] = (
    (type(None), "null"), (bool, "bool"), (int, "int"), (str, "str"),
    (NodeId, "node"), (RelId, "rel"), (tuple, "list"), (Map, "map"), (Path, "path"),
)
_KIND_OF_TYPE = dict(KINDS)

# Exact types whose values are their own row key (tables.py): equal exactly
# when their canon forms are.  Not bool, as True == 1, nor lists and maps.
UNTAGGED = frozenset({type(None), int, str, NodeId, RelId, Path})


def kind(v: Value) -> str:
    """The kind of ``v``: one of the names in :data:`KINDS`.

    An exact type is looked up; an instance of a subclass (an ``IntEnum``
    member, a namedtuple) takes the kind of the first type in the table it
    is an instance of.  Anything else is not a value.
    """
    k = _KIND_OF_TYPE.get(type(v))
    if k is not None:
        return k
    for t, k in KINDS:
        if isinstance(v, t):
            return k
    raise TypeError(f"not a value: {v!r}")


CanonValue = tuple


def canon(v: Value) -> CanonValue:
    """Kind-tagged normal form used for structural identity of values.

    Two values are the same piece of data iff their canon forms are equal;
    the tag makes ``True``/``1`` (and nested occurrences of them) distinct,
    and map entries are sorted so insertion order does not matter.
    """
    k = kind(v)
    if k in ("bool", "int", "str"):
        return (k, v)
    if k == "null":
        return ("null",)
    if k in ("node", "rel"):
        return (k, v.key)
    if k == "list":
        return ("list", tuple(canon(x) for x in v))
    if v._canon is None:  # a map or a path: encoded once
        if k == "map":
            c = ("map", tuple(sorted(((key, canon(w)) for key, w in v.entries), key=lambda kv: kv[0])))
        else:
            c = ("path", tuple(i.key for i in v.nodes), tuple(i.key for i in v.rels))
        object.__setattr__(v, "_canon", c)
    return v._canon


def same_value(a: Value, b: Value) -> bool:
    """Structural identity (null is identical to null). Not the trilean ``=``."""
    return canon(a) == canon(b)


# ---------------------------------------------------------------------------
# Base function registry
# ---------------------------------------------------------------------------

# Functions are looked up by (name, arity); names are case-sensitive.
FunctionRegistry = dict[tuple[str, int], Callable[..., Value]]


def _arith(name: str, op: Callable[[int, int], int]) -> Callable[..., Value]:
    def fn(a: Value, b: Value) -> Value:
        if a is None or b is None:
            return None
        kinds = (kind(a), kind(b))
        if "bool" in kinds:
            raise type_mismatch(f"{name}() expects integers")
        if kinds != ("int", "int"):
            raise type_mismatch(f"{name}() expects integers, got {a!r}, {b!r}")
        n = op(a, b)
        if -_TOO_LARGE < n < _TOO_LARGE:
            return n
        raise EvalError("TooLarge", f"{name}() result has more than {MAX_DIGITS} digits")

    return fn


def _size(v: Value) -> Value:
    if v is None:
        return None
    if kind(v) in ("list", "str"):
        return len(v)
    raise type_mismatch(f"size() expects a list or string, got {v!r}")


def _string_fn(name: str, op: Callable[[str], str]) -> Callable[..., Value]:
    def fn(v: Value) -> Value:
        if v is None:
            return None
        if kind(v) == "str":
            return op(v)
        raise type_mismatch(f"{name}() expects a string, got {v!r}")

    return fn


BASE_FUNCTIONS: FunctionRegistry = {
    ("plus", 2): _arith("plus", lambda a, b: a + b),
    ("minus", 2): _arith("minus", lambda a, b: a - b),
    ("mult", 2): _arith("mult", lambda a, b: a * b),
    ("size", 1): _size,
    ("toUpper", 1): _string_fn("toUpper", str.upper),
    ("toLower", 1): _string_fn("toLower", str.lower),
}


def apply_base_fn(name: str, args: tuple[Value, ...], registry: FunctionRegistry | None = None) -> Value:
    """Apply a registered base function; never mutates its arguments."""
    registry = BASE_FUNCTIONS if registry is None else registry
    fn = registry.get((name, len(args)))
    if fn is None:
        if any(n == name for n, _ in registry):
            raise EvalError("ArityMismatch", f"{name}() does not take {len(args)} argument(s)")
        raise EvalError("UnknownFunction", f"unknown function {name}()")
    return fn(*args)
