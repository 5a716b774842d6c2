import pickle
from collections import namedtuple
from enum import IntEnum

import pytest

from minicypher import tables
from minicypher.errors import FieldMismatch
from minicypher.tables import Table, bag_union, distinct, tally, unit_table
from minicypher.values import Map, NodeId, Path, RelId, canon


def test_fields_are_sorted():
    t = Table(["b", "a", "c"])
    assert t.fields == ("a", "b", "c")


def test_bag_semantics_counts():
    t = Table(["a"])
    t.add({"a": 1})
    t.add({"a": 1})
    t.add({"a": 2}, count=3)
    assert t.multiplicity({"a": 1}) == 2
    assert t.multiplicity({"a": 2}) == 3
    assert t.multiplicity({"a": 9}) == 0
    assert t.total_rows() == 5


def test_equality_is_exact_bag_equality():
    t1 = Table(["a"], [{"a": 1}, {"a": 1}])
    t2 = Table(["a"], [{"a": 1}])
    t3 = Table(["a"], [{"a": 1}])
    assert t1 != t2
    t3.add({"a": 1})
    assert t1 == t3


def test_equality_distinguishes_bool_from_int_cells():
    assert Table(["a"], [{"a": True}]) != Table(["a"], [{"a": 1}])


def test_unit_and_empty():
    u = unit_table()
    assert u.fields == ()
    assert u.total_rows() == 1
    assert list(u.records()) == [{}]
    e = Table(["x"])
    assert e.is_empty()
    assert not u.is_empty()


def test_add_rejects_wrong_field_set():
    # Uniformity is an internal invariant, so the guard is an assertion
    # rather than one of the user-facing error types.
    t = Table(["a"])
    with pytest.raises(AssertionError):
        t.add({"b": 1})
    with pytest.raises(AssertionError):
        t.add({"a": 1, "b": 2})


def test_bag_union_adds_multiplicities():
    t1 = Table(["a"], [{"a": 1}, {"a": 2}])
    t2 = Table(["a"], [{"a": 1}])
    u = bag_union(t1, t2)
    assert u.multiplicity({"a": 1}) == 2
    assert u.multiplicity({"a": 2}) == 1


def test_bag_union_field_mismatch():
    with pytest.raises(FieldMismatch):
        bag_union(Table(["a"]), Table(["b"]))


def test_bag_union_is_commutative_and_associative():
    t1 = Table(["a"], [{"a": 1}])
    t2 = Table(["a"], [{"a": 1}, {"a": 2}])
    t3 = Table(["a"], [{"a": 3}])
    assert bag_union(t1, t2) == bag_union(t2, t1)
    assert bag_union(bag_union(t1, t2), t3) == bag_union(t1, bag_union(t2, t3))


def test_distinct_collapses_counts():
    t = Table(["a"], [{"a": 1}, {"a": 1}, {"a": 2}])
    d = distinct(t)
    assert d.multiplicity({"a": 1}) == 1
    assert d.multiplicity({"a": 2}) == 1
    assert distinct(d) == d  # idempotent


def test_records_expand_multiplicity():
    t = Table(["a"], [{"a": NodeId("n1")}])
    t.add({"a": NodeId("n1")})
    assert list(t.records()) == [{"a": NodeId("n1")}, {"a": NodeId("n1")}]


# ---------------------------------------------------------------------------
# Row keys: equal exactly when the cells' canon forms are
# ---------------------------------------------------------------------------


class One(IntEnum):
    ONE = 1


class Name(str):
    pass


def _path(*keys):
    return Path(tuple(NodeId(k) for k in keys[0::2]), tuple(RelId(k) for k in keys[1::2]))


def _canon_cached(p):
    canon(p)  # stores the canon form on the path
    return p


SEPARATE = [
    (True, 1),
    (False, 0),
    ((True,), (1,)),
    (NodeId("x"), RelId("x")),
    (NodeId("x"), "x"),
    (RelId("x"), "x"),
    (None, ()),
    (Map((("a", True),)), Map((("a", 1),))),
    (_path("n1", "r1", "n2"), _path("n2", "r1", "n1")),
    (_path("x"), (NodeId("x"),)),
    (_path("x"), ("x",)),
    (_path("x", "r", "y"), (NodeId("x"), RelId("r"), NodeId("y"))),
]
MERGE = [
    (One.ONE, 1),
    ((One.ONE,), (1,)),
    (Name("v"), "v"),
    (NodeId("x"), NodeId("x")),
    (Map((("a", 1), ("b", True))), Map((("b", True), ("a", 1)))),
    (_path("n1", "r1", "n2"), _path("n1", "r1", "n2")),
    (Path((NodeId("x"),)), _path("x")),
    # equal paths are one row whatever their making: ids interned in a batch,
    # a pickled copy, a canon form stored on one side only
    (Path(tuple(NodeId.intern_all("xy")), tuple(RelId.intern_all("r"))), _path("x", "r", "y")),
    (pickle.loads(pickle.dumps(_path("x", "r", "y"))), _path("x", "r", "y")),
    (_canon_cached(_path("x", "r", "y")), _path("x", "r", "y")),
]


@pytest.mark.parametrize("a, b", SEPARATE, ids=repr)
def test_add_separates_what_canon_separates(a, b):
    t = Table(["x"], [{"x": a}, {"x": b}])
    assert [c for _, c in t.rows()] == [1, 1]
    assert t.multiplicity({"x": a}) == t.multiplicity({"x": b}) == 1


@pytest.mark.parametrize("a, b", MERGE, ids=repr)
def test_add_merges_what_canon_merges(a, b):
    t = Table(["x"], [{"x": a}, {"x": b}])
    assert [c for _, c in t.rows()] == [2]
    assert t.multiplicity({"x": b}) == 2


@pytest.mark.parametrize("a, b", SEPARATE, ids=repr)
def test_new_rows_keep_apart_under_eq_and_multiplicity(a, b):
    t = Table(["x"])
    t.add_new({"x": a})
    t.add_new({"x": b}, 2)
    assert t.multiplicity({"x": a}) == 1 and t.multiplicity({"x": b}) == 2
    assert t == Table(["x"], [{"x": b}, {"x": a}, {"x": b}])
    assert t != Table(["x"], [{"x": a}, {"x": a}, {"x": b}])


@pytest.mark.parametrize("a, b", MERGE, ids=repr)
def test_new_rows_match_equal_values_under_eq_and_multiplicity(a, b):
    t = Table(["x"])
    t.add_new({"x": a}, 2)
    assert t.multiplicity({"x": b}) == 2
    assert t == Table(["x"], [{"x": b}, {"x": b}])


RelList = namedtuple("RelList", "first second")


def test_keys_are_equal_exactly_when_canon_is():
    pool = [None, True, False, 0, 1, One.ONE, "", "x", Name("x"), NodeId("x"), RelId("x"),
            (), (1,), (True,), (One.ONE,), Map(()), Map((("a", 1),)), Map((("a", True),)),
            _path("x"), _path("x", "r", "y"), _path("y", "r", "x"), _canon_cached(_path("x")),
            (NodeId("x"),), (_path("x"),),
            # lists made of ids, which key as the tuple of them
            (RelId("r"), RelId("s")), RelList(RelId("r"), RelId("s")), (RelId("s"), RelId("r")),
            (RelId("x"),), (_path("x"), _path("x", "r", "y")), (NodeId("x"), 1), (NodeId("x"), True)]
    for a in pool:
        for b in pool:
            t = Table(["x"], [{"x": a}, {"x": b}])
            assert (len(list(t.rows())) == 1) == (canon(a) == canon(b)), (a, b)
            assert (len(tally([a, b])) == 1) == (canon(a) == canon(b)), (a, b)


def test_a_tally_keeps_the_first_occurrence():
    ((x, n),) = tally([One.ONE, 1])
    assert x is One.ONE and n == 2
    ((x, n),) = tally([1, One.ONE])
    assert type(x) is int and n == 2


def test_mixed_insertions_build_the_index_once(monkeypatch):
    keyed = []
    row_key = tables.row_key
    monkeypatch.setattr(tables, "row_key", lambda u: keyed.append(u) or row_key(u))
    t = Table(["a"])
    t.add_new({"a": 1})
    t.add_new({"a": 2})
    assert keyed == []  # rows known to be new are not keyed
    t.add({"a": 3})  # builds the index from rows 1 and 2, then keys row 3
    index = t._index
    t.add_new({"a": 4})  # with an index, a new row is keyed like any other
    t.add({"a": 1})
    assert t.multiplicity({"a": 2}) == 1
    assert [u[0] for u in keyed] == [1, 2, 3, 4, 1, 2]  # rows 1 and 2 keyed once
    assert t == Table(["a"], [{"a": 1}, {"a": 1}, {"a": 2}, {"a": 3}, {"a": 4}])
    assert t._index is index
    assert list(t.rows()) == [({"a": 1}, 2), ({"a": 2}, 1), ({"a": 3}, 1), ({"a": 4}, 1)]


def test_uniformity_is_checked_on_the_new_row_path():
    t = Table(["a"])
    with pytest.raises(AssertionError):
        t.add_new({"b": 1})
    t.add({"a": 1})
    with pytest.raises(AssertionError):
        t.add_new({"b": 1})


def test_a_repeated_new_row_is_caught_when_the_index_is_built():
    # add_new trusts its caller; a row that was not new must not collapse
    # silently into its twin once identity is observed
    t = Table(["a"])
    t.add_new({"a": 1})
    t.add_new({"a": 1})
    assert t.total_rows() == 2
    with pytest.raises(AssertionError, match="already in the table"):
        t.multiplicity({"a": 1})


def test_an_exact_path_of_exact_ids_is_its_own_key():
    p = _path("x", "r", "y")
    assert tables.row_key((p,))[0] is p
    row = (p, NodeId("x"), "x", None)
    assert tables.row_key(row) is row  # every cell's type is in UNTAGGED
    assert tables.row_key((_path("x", "r", "y"),)) == (p,)


def test_a_table_of_ids_keys_each_row_by_itself():
    # ids and nulls are their own keys, so the row is the key row_key gives
    records = [{"a": NodeId("x"), "b": None}, {"a": NodeId("y"), "b": RelId("r")}, {"a": NodeId("x"), "b": None}]
    ids, plain = Table(["a", "b"], records, ids=True), Table(["a", "b"], records)
    assert ids == plain and [c for _, c in ids.rows()] == [2, 1]
    assert ids.multiplicity({"a": NodeId("x"), "b": None}) == 2
    assert list(ids._keyed()) == list(plain._keyed()) == [row for row, _ in ids.tuples()]


def test_a_table_of_ids_keys_relationship_lists_and_paths_by_themselves():
    # a list of ids and a path are their own keys, as in every match bag
    rels, p = (RelId("r"), RelId("s")), _path("x", "r", "y")
    records = [{"a": rels, "p": p}, {"a": (), "p": _path("x")}, {"a": tuple([RelId("r"), RelId("s")]), "p": p}]
    ids, plain = Table(["a", "p"], records, ids=True), Table(["a", "p"], records)
    assert ids == plain and plain == ids and [c for _, c in ids.rows()] == [2, 1]
    for t in (ids, plain):
        assert t.multiplicity({"a": RelList(RelId("r"), RelId("s")), "p": _path("x", "r", "y")}) == 2
        assert t.multiplicity({"a": (), "p": _path("x")}) == 1
        assert t.multiplicity({"a": (RelId("s"), RelId("r")), "p": p}) == 0
    assert list(ids._keyed()) == list(plain._keyed()) == [row for row, _ in ids.tuples()]


def test_positions():
    t = Table(["a"])
    t.add_new({"a": 1})
    t.add_new({"a": 2}, 3)
    assert list(t.rows()) == [({"a": 1}, 1), ({"a": 2}, 3)]
    t.add({"a": 3})
    t.add({"a": 1}, 4)
    t.add_new({"a": 4})  # keyed, once there is an index
    assert list(t.rows()) == [({"a": 1}, 5), ({"a": 2}, 3), ({"a": 3}, 1), ({"a": 4}, 1)]
    assert t == Table(["a"], [{"a": 1}] * 5 + [{"a": 2}] * 3 + [{"a": 3}, {"a": 4}])
