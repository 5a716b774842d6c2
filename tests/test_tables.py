import pytest

from minicypher.errors import FieldMismatch
from minicypher.tables import Table, bag_union, distinct, unit_table
from minicypher.values import NodeId


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
