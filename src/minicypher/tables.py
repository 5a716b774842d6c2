"""Records and tables: bags of uniform records.

A record is a partial mapping from names to values (a plain dict here,
treated as immutable).  A table is a multiset of records that all share
the same domain — its fields.  Multiplicities are kept exactly; nothing
about a table is ordered.

Structural identity of records (what makes two rows "the same" for
counting, distinct() and table equality) is value identity per
:func:`minicypher.values.canon`: null equals null, and True is not 1.  A
row key encodes it more cheaply: a cell of an exact type in
``values.UNTAGGED`` is its own key; only bools, composites and subclass
instances go through ``canon``.  Rows keep insertion order; the key index
is built at most once, when identity is first observed (``add``,
``multiplicity``, ``==``), and until then ``add_new`` appends rows known
to be new unkeyed.  A table keeps the records it is given, uncopied: no
caller changes a record once it is in a table.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import FieldMismatch
from .values import UNTAGGED, NodeId, RelId, Value, canon

Record = dict[str, Value]


# A subclass instance of an untagged kind keys as a value equal to its base value.
_BASE = {"int": lambda x: x, "str": lambda x: x, "node": NodeId, "rel": RelId}


def _tagged_key(v: Value):
    c = canon(v)
    return _BASE[c[0]](c[1]) if c[0] in _BASE else c


def row_key(fields: tuple[str, ...], u: Record) -> tuple:
    key = []
    for f in fields:
        v = u[f]
        key.append(v if type(v) in UNTAGGED else _tagged_key(v))
    return tuple(key)


class Table:
    """A bag of uniform records.

    ``fields`` is stored sorted (the field *set* is what matters).  Rows
    are ``[record, count]`` slots; the index from row key to slot makes
    equality of tables decidable and exact.
    """

    __slots__ = ("fields", "_names", "_slots", "_index")

    def __init__(self, fields: Iterable[str], records: Iterable[Record] = ()):
        self.fields: tuple[str, ...] = tuple(sorted(set(fields)))
        self._names = frozenset(self.fields)
        self._slots: list[list] = []  # [record, count], in insertion order
        self._index: dict[tuple, list] | None = None  # row key -> slot, once built
        for u in records:
            self.add(u)

    def _keyed(self) -> dict[tuple, list]:
        """The key index, built from the slots on first use."""
        if self._index is None:
            index = {row_key(self.fields, slot[0]): slot for slot in self._slots}
            if len(index) != len(self._slots):
                raise AssertionError("add_new was given a row already in the table")
            self._index = index
        return self._index

    def add(self, u: Record, count: int = 1) -> list:
        if u.keys() != self._names:
            raise AssertionError(
                f"non-uniform record: has {sorted(u)}, table fields are {list(self.fields)}"
            )
        index = self._index if self._index is not None else self._keyed()
        key = row_key(self.fields, u)
        slot = index.get(key)
        if slot is None:
            index[key] = slot = [u, count]
            self._slots.append(slot)
        else:
            slot[1] += count
        return slot

    def add_new(self, u: Record, count: int = 1) -> list:
        """Add u, known to differ from every row in the table; return the
        [record, count] slot it takes."""
        if self._index is not None or u.keys() != self._names:
            return self.add(u, count)  # keys u, or rejects it as non-uniform
        self._slots.append(slot := [u, count])
        return slot

    # -- inspection ---------------------------------------------------------

    def rows(self) -> Iterator[tuple[Record, int]]:
        """Yield (record, multiplicity) pairs."""
        for record, count in self._slots:
            yield record, count

    def records(self) -> Iterator[Record]:
        """Yield each record as many times as its multiplicity."""
        for record, count in self._slots:
            for _ in range(count):
                yield record

    def multiplicity(self, u: Record) -> int:
        slot = self._keyed().get(row_key(self.fields, u))
        return 0 if slot is None else slot[1]

    def total_rows(self) -> int:
        return sum(count for _, count in self._slots)

    def is_empty(self) -> bool:
        return not self._slots

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.fields == other.fields and {
            k: c for k, (_, c) in self._keyed().items()
        } == {k: c for k, (_, c) in other._keyed().items()}

    def __repr__(self) -> str:
        return f"Table(fields={list(self.fields)}, rows={self.total_rows()})"


def unit_table() -> Table:
    """The table with no fields containing a single empty record."""
    return Table((), [{}])


def bag_union(t1: Table, t2: Table) -> Table:
    """Multiplicity of every record is the sum of its multiplicities."""
    if t1.fields != t2.fields:
        raise FieldMismatch(f"field sets differ: {list(t1.fields)} vs {list(t2.fields)}")
    out = Table(t1.fields)
    for t in (t1, t2):
        for record, count in t.rows():
            out.add(record, count)
    return out


def distinct(t: Table) -> Table:
    """Same support, all multiplicities 1."""
    out = Table(t.fields)
    for record, _ in t.rows():  # t lists each record once
        out.add_new(record, 1)
    return out
