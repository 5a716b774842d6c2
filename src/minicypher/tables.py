"""Records and tables: bags of uniform records.

A record is a partial mapping from names to values (a plain dict here,
treated as immutable).  A table is a multiset of records that all share
the same domain — its fields.  Multiplicities are kept exactly; nothing
about a table is ordered.

Structural identity of records (what makes two rows "the same" for
counting, distinct() and table equality) is value identity per
:func:`minicypher.values.canon`: null equals null, and True is not 1.  A
row key encodes it more cheaply: a cell of an exact type in
``values.UNTAGGED``, or an exact path of exact ids, is its own key; only
bools, other composites and subclass instances go through ``canon``.  A
table keeps its records and their counts in two parallel lists, in
insertion order; the key index, from row key to position, is built at
most once, when identity is first observed (``add``, ``multiplicity``,
``==``), and until then ``add_new`` appends rows known to be new unkeyed
and ``add_among`` merges a row into the first equal row of the caller's
own map.  Row keys and positions are read in this module alone.  A table
keeps the records it is given, uncopied: no caller changes a record once
it is in a table.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import FieldMismatch
from .values import UNTAGGED, NodeId, Path, RelId, Value, canon

Record = dict[str, Value]


# A subclass instance of an untagged kind, or a path holding one, keys as
# the exact value its canon form names.
_BASE = {"int": lambda c: c[1], "str": lambda c: c[1], "node": lambda c: NodeId(c[1]), "rel": lambda c: RelId(c[1]),
         "path": lambda c: Path(tuple(map(NodeId, c[1])), tuple(map(RelId, c[2])))}
_NODE, _REL = frozenset({NodeId}), frozenset({RelId})


def _tagged_key(v: Value):
    if type(v) is Path and _NODE.issuperset(map(type, v.nodes)) and _REL.issuperset(map(type, v.rels)):
        return v  # ids are interned, so == on such paths is identity of canon forms
    c = canon(v)
    return _BASE[c[0]](c) if c[0] in _BASE else c


def row_key(fields: tuple[str, ...], u: Record) -> tuple:
    key = []
    for f in fields:
        v = u[f]
        key.append(v if type(v) in UNTAGGED else _tagged_key(v))
    return tuple(key)


class Table:
    """A bag of uniform records.

    ``fields`` is stored sorted (the field *set* is what matters).  Row i
    is ``_records[i]`` with multiplicity ``_counts[i]``; the index from row
    key to position makes equality of tables decidable and exact.
    """

    __slots__ = ("fields", "_names", "_records", "_counts", "_index")

    def __init__(self, fields: Iterable[str], records: Iterable[Record] = ()):
        self.fields: tuple[str, ...] = tuple(sorted(set(fields)))
        self._names = frozenset(self.fields)
        self._records: list[Record] = []  # in insertion order
        self._counts: list[int] = []  # parallel to _records
        self._index: dict[tuple, int] | None = None  # row key -> position, once built
        for u in records:
            self.add(u)

    def _keyed(self) -> dict[tuple, int]:
        """The key index, built from the records on first use."""
        if self._index is None:
            index = {row_key(self.fields, u): i for i, u in enumerate(self._records)}
            if len(index) != len(self._records):
                raise AssertionError("add_new was given a row already in the table")
            self._index = index
        return self._index

    def add(self, u: Record, count: int = 1) -> None:
        """Add count copies of u."""
        if u.keys() != self._names:
            raise AssertionError(
                f"non-uniform record: has {sorted(u)}, table fields are {list(self.fields)}"
            )
        index = self._index if self._index is not None else self._keyed()
        n = len(self._records)
        i = index.setdefault(row_key(self.fields, u), n)  # the key is hashed once
        if i == n:
            self._records.append(u)
            self._counts.append(count)
        else:
            self._counts[i] += count

    def add_new(self, u: Record, count: int = 1) -> None:
        """Add u, known to differ from every row of the table."""
        if self._index is not None or u.keys() != self._names:
            return self.add(u, count)  # keys u, or rejects it as non-uniform
        self._records.append(u)
        self._counts.append(count)

    def add_among(self, u: Record, count: int, among: dict[tuple, int], fields: tuple[str, ...]) -> None:
        """Add count copies of u, which can equal only rows entered with the
        same ``among`` (the caller's map, empty at first) and differs from
        them only in ``fields``: u merges into the first it equals."""
        n = len(self._counts)
        i = among.setdefault(row_key(fields, u), n)
        if i != n:
            self._counts[i] += count
        elif self._index is not None or u.keys() != self._names:
            self.add(u, count)  # keys u, or rejects it as non-uniform
        else:
            self._records.append(u)
            self._counts.append(count)

    # -- inspection ---------------------------------------------------------

    def rows(self) -> Iterator[tuple[Record, int]]:
        """Yield (record, multiplicity) pairs."""
        return zip(self._records, self._counts)

    def records(self) -> Iterator[Record]:
        """Yield each record as many times as its multiplicity."""
        return (record for record, count in self.rows() for _ in range(count))

    def multiplicity(self, u: Record) -> int:
        i = self._keyed().get(row_key(self.fields, u))
        return 0 if i is None else self._counts[i]

    def total_rows(self) -> int:
        return sum(self._counts)

    def is_empty(self) -> bool:
        return not self._records

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.fields == other.fields and {
            k: self._counts[i] for k, i in self._keyed().items()
        } == {k: other._counts[i] for k, i in other._keyed().items()}

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
