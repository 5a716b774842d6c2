import copy
import gc
import pickle
import sys
import threading
from collections import namedtuple
from enum import IntEnum

import pytest

from minicypher.errors import EvalError
from minicypher.values import (
    BASE_FUNCTIONS,
    MAX_DIGITS,
    Map,
    NodeId,
    Path,
    RelId,
    apply_base_fn,
    canon,
    kind,
    same_value,
)


def test_canon_distinguishes_bool_from_int():
    # In Python True == 1 and hash(True) == hash(1); the canonical encoding
    # must keep them apart because the value universe does.
    assert canon(True) != canon(1)
    assert canon(False) != canon(0)
    assert same_value(True, True)
    assert not same_value(True, 1)
    assert not same_value(0, False)


def test_canon_distinguishes_kinds():
    values = [None, False, 0, "", NodeId("a"), RelId("a"), (), Map(()), Path((NodeId("a"),))]
    encodings = [canon(v) for v in values]
    assert len(set(encodings)) == len(values)


def test_kind_of_each_value_kind():
    values = [None, False, 0, "", NodeId("a"), RelId("a"), (), Map(()), Path((NodeId("a"),))]
    kinds = ["null", "bool", "int", "str", "node", "rel", "list", "map", "path"]
    assert [kind(v) for v in values] == kinds


def test_kind_keeps_bool_apart_from_int():
    assert kind(True) == "bool"
    assert kind(1) == "int"


class _Level(IntEnum):
    HIGH = 1


class _Name(str):
    pass


_Pair = namedtuple("_Pair", "a b")


def test_kind_of_a_subclass_instance_is_its_base_kind():
    assert kind(_Level.HIGH) == "int"
    assert kind(_Name("x")) == "str"
    assert kind(_Pair(1, True)) == "list"


@pytest.mark.parametrize("junk", [1.5, [], {}], ids=repr)
def test_kind_rejects_what_is_not_a_value(junk):
    with pytest.raises(TypeError, match="not a value"):
        kind(junk)


@pytest.mark.parametrize("name", ["plus", "minus", "mult", "size", "toUpper", "toLower"])
def test_base_functions_reject_what_is_not_a_value(name):
    # a float can only come from a custom registry's function
    args = (1, 1.5) if name in ("plus", "minus", "mult") else (1.5,)
    with pytest.raises(TypeError, match="not a value: 1.5"):
        apply_base_fn(name, args)


def test_canon_of_a_subclass_instance_is_canon_of_its_base_value():
    # A custom function's result lands in the same bag row as the plain value.
    assert canon(_Level.HIGH) == canon(1) != canon(True)
    assert canon(_Name("x")) == canon("x")
    assert canon(_Pair(1, True)) == canon((1, True)) != canon((1, 1))


def test_node_and_rel_ids_compare_by_key_within_kind():
    assert NodeId("n1") == NodeId("n1")
    assert NodeId("n1") != NodeId("n2")
    assert not same_value(NodeId("n1"), RelId("n1"))


def test_an_id_is_one_object_per_class_and_key():
    assert NodeId("a") is NodeId("a")
    assert RelId("a") is RelId("a")
    assert NodeId("a") != RelId("a")


class _Mixin:
    __slots__ = ()


@pytest.mark.parametrize("cls", [NodeId, RelId, Path], ids=lambda c: c.__name__)
def test_ids_and_paths_cannot_be_subclassed(cls):
    # ids are atoms and a path is a sequence of them: one exact class each,
    # so == on them is identity of canon forms
    for bases in ((cls,), (_Mixin, cls)):
        with pytest.raises(TypeError, match=rf"^Sub: .*\b{cls.__name__} .*cannot be subclassed"):
            type("Sub", bases, {"__slots__": ()})


@pytest.mark.parametrize("dup", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_of_an_id_are_the_interned_id(dup):
    for v in (NodeId("a"), RelId("a")):
        assert dup(v) is v
    m, p = Map((("a", (1, NodeId("a"))),)), Path((NodeId("a"), NodeId("b")), (RelId("r"),))
    assert dup(m) == m and dup(p) == p
    assert dup(p).nodes[0] is NodeId("a")


def test_values_reject_assignment():
    m, p = Map((("a", 1),)), Path((NodeId("a"),))
    canon(m)  # caches the canon form
    for v, name in ((NodeId("a"), "key"), (RelId("a"), "key"), (m, "entries"), (p, "nodes")):
        with pytest.raises(AttributeError):
            setattr(v, name, ())
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert NodeId("a").key == "a"
    assert m == Map((("a", 1),)) and m != Map((("a", 2),))
    assert p == Path((NodeId("a"),))


@pytest.mark.parametrize("round_", range(4))
def test_racing_threads_create_one_id_per_key(round_):
    keys = [f"race{round_}-{i}" for i in range(1000)]  # fresh keys each round
    barrier = threading.Barrier(8)
    made = [None] * 8

    def build(slot):
        barrier.wait(timeout=10)
        made[slot] = [NodeId(k) for k in keys]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, k in enumerate(keys):
        assert len({id(ids[i]) for ids in made}) == 1, k
        assert made[0][i] is NodeId(k)


def test_an_unreferenced_id_leaves_the_intern_table():
    n = NodeId("fleeting")
    assert NodeId._interned["fleeting"]() is n
    del n
    gc.collect()
    assert "fleeting" not in NodeId._interned


def test_a_late_removal_keeps_the_reinterned_id():
    n = NodeId("reborn")
    stale = NodeId._interned["reborn"]  # the weak reference to n
    remove = stale.__callback__
    del n
    gc.collect()
    m = NodeId("reborn")
    remove(stale)  # the dead id's removal, run once more after the key was re-interned
    gc.collect()
    assert NodeId._interned["reborn"]() is m
    assert NodeId("reborn") is m


def test_intern_all_returns_the_ids_that_the_constructor_returns():
    held = NodeId("batch-b")  # live before the batch
    for cls in (NodeId, RelId):
        ids = cls.intern_all(["batch-a", "batch-b", "batch-a"])
        assert [type(i) for i in ids] == [cls] * 3
        assert ids[0] is ids[2] is cls("batch-a") and ids[1] is cls("batch-b")
    assert NodeId.intern_all(["batch-b"])[0] is held
    assert NodeId.intern_all(iter(())) == []


def test_map_lookup():
    m = Map((("a", 1), ("b", None)))
    assert m.get("a") == 1
    assert m.get("b") is None
    assert m.get("zzz") is None
    assert m.keys == frozenset({"a", "b"})


def test_map_equality_ignores_entry_order():
    assert same_value(Map((("a", 1), ("b", 2))), Map((("b", 2), ("a", 1))))


def test_path_shape_is_validated():
    n1, n2 = NodeId("n1"), NodeId("n2")
    with pytest.raises(ValueError):
        Path((n1, n2), ())
    with pytest.raises(ValueError):
        Path((n1,), (RelId("r1"),))
    p = Path((n1, n2), (RelId("r1"),))
    assert p.nodes == (n1, n2)


def test_apply_base_fn_unknown_and_arity():
    with pytest.raises(EvalError) as exc:
        apply_base_fn("frobnicate", (1,))
    assert exc.value.kind == "UnknownFunction"
    with pytest.raises(EvalError) as exc:
        apply_base_fn("plus", (1,))
    assert exc.value.kind == "ArityMismatch"


def test_custom_registry_extends_base():
    registry = dict(BASE_FUNCTIONS)
    registry[("answer", 0)] = lambda: 42
    assert apply_base_fn("answer", (), registry) == 42
    # base entries still present
    assert apply_base_fn("plus", (1, 2), registry) == 3


def test_arithmetic_is_unbounded():
    big = 10 ** 40
    assert apply_base_fn("mult", (big, big)) == big * big


def test_arithmetic_results_stop_at_the_digit_bound():
    # the longest integers that render are MAX_DIGITS digits, of either sign
    top = 10 ** MAX_DIGITS - 1
    assert apply_base_fn("plus", (top - 1, 1)) == top
    assert apply_base_fn("minus", (-top + 1, 1)) == -top
    assert len(str(apply_base_fn("mult", (-top, 1)))) == MAX_DIGITS + 1
    for name, args in [("plus", (top, 1)), ("minus", (-top, 1)), ("mult", (top, -top)),
                       ("mult", (10 ** 2150, 10 ** 2150))]:
        with pytest.raises(EvalError) as exc:
            apply_base_fn(name, args)
        assert (exc.value.kind, exc.value.message) == ("TooLarge", f"{name}() result has more than {MAX_DIGITS} digits")
