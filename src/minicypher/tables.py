"""Records and tables: bags of uniform records.

A record is a partial mapping from names to values.  A table is a
multiset of records that all share the same domain — its fields, kept
sorted — and it holds each record as a *row*: the tuple of the record's
values in field order, treated as immutable.  Multiplicities are kept
exactly; nothing about a table is ordered.

``rows()`` is the public view: it yields each record as a dict, built on
demand, with its count, and ``Table(fields, records)``, the ``add``
methods and ``multiplicity`` take dicts.  The engine, matcher and CLI
work on rows by position instead: ``tuples()`` yields the rows as they are
stored, the ``add`` methods take a row (a tuple) as it is, and
:func:`getter` makes the function that picks the cells a clause reads or
keeps, once per clause.

Structural identity of records (what makes two rows "the same" for
counting, distinct() and table equality) is value identity per
:func:`minicypher.values.canon`: null equals null, and True is not 1.  A
row key encodes it more cheaply: a cell of an exact type in
``values.UNTAGGED`` (ids and paths too), or of an int or str subclass, is
its own key, and a list of values of exact types in ``values.ID_MADE``
(ids and paths) keys as the tuple of them, which no other key is (a
``canon`` key is a tuple led by a kind); bools, other lists, maps and other
values go through ``canon``.  A row whose every cell is of an exact type
in ``UNTAGGED`` is its own key.  A table made with ``ids`` (every match
bag, and the projections of tables of ids that read fields alone) holds
only nulls and values made of ids, so it keys each row by the row itself
without looking at the cells; tuples compare ``True == 1``, so no other
table may.

A table keeps its rows and their counts in two parallel lists, in
insertion order; the key index, from row key to position, is built at
most once, when identity is first observed (``add``, ``multiplicity``,
``==``), and until then ``add_new`` appends rows known to be new unkeyed;
:func:`tally` counts a list's values by the key of a cell.  Row keys and
the layout are read in this module alone.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import FieldMismatch
from .values import ID_MADE, UNTAGGED, Value, canon

Record = dict[str, Value]
Row = tuple  # a record's values in its table's field order


def getter(keys: Sequence) -> Callable[[Any], tuple]:
    """The function from a row (or a record) to the tuple of its items at
    keys: positions of a row (or names of a record)."""
    if len(keys) == 1:
        (k,) = keys
        return lambda u: (u[k],)
    return itemgetter(*keys) if keys else lambda u: ()


def _key(v: Value):
    """The key of a cell: equal to another's exactly when their canon forms are."""
    if type(v) in UNTAGGED:
        return v
    if isinstance(v, tuple) and ID_MADE.issuperset(map(type, v)):
        return tuple(v)  # a list of ids and paths, a namedtuple too
    # an int or str subclass instance (an IntEnum member) keys as itself,
    # which == and hash make one key with the exact value it equals
    c = canon(v)
    return v if c[0] in ("int", "str") else c


def row_key(u: Row) -> tuple:
    if UNTAGGED.issuperset(map(type, u)):
        return u
    return tuple([v if type(v) in UNTAGGED else _key(v) for v in u])  # own-key cells skip the call


def tally(values: Iterable[Value]) -> Iterable[list]:
    """Each distinct value of values with its count, as [value, count] in
    first-occurrence order; the first occurrence stands for its equals."""
    seen: dict = {}  # key -> [the first value with it, its count]
    for v in values:
        k = _key(v)
        if k in seen:
            seen[k][1] += 1
        else:
            seen[k] = [v, 1]
    return seen.values()


class Table:
    """A bag of uniform records.

    ``fields`` is stored sorted (the field *set* is what matters).  Row i
    is ``_records[i]`` with multiplicity ``_counts[i]``; the index from row
    key to position makes equality of tables decidable and exact.  Rows
    enter keyed (``add``) or, known to be new, unkeyed (``add_new``); ``ids``
    promises that each cell is null or made of ids, so each row is its own
    key: every match bag, and the projections of tables of ids that read
    fields alone.
    """

    __slots__ = ("fields", "ids", "_records", "_counts", "_index")

    def __init__(self, fields: Iterable[str], records: Iterable[Record] = (), ids: bool = False):
        self.fields: tuple[str, ...] = tuple(sorted(set(fields)))
        self.ids = ids
        self._records: list[Row] = []  # in insertion order
        self._counts: list[int] = []  # parallel to _records
        self._index: dict[tuple, int] | None = None  # row key -> position, once built
        for u in records:
            self.add(u)

    def _row(self, u: Record) -> Row:
        """The row of a record over the table's fields."""
        if u.keys() != set(self.fields):
            raise AssertionError(
                f"non-uniform record: has {sorted(u)}, table fields are {list(self.fields)}"
            )
        return tuple([u[f] for f in self.fields])

    def _keyed(self) -> dict[tuple, int]:
        """The key index, built from the rows on first use."""
        if self._index is None:
            records = self._records
            index = dict(zip(records if self.ids else map(row_key, records), range(len(records))))
            if len(index) != len(records):
                raise AssertionError("add_new was given a row already in the table")
            self._index = index
        return self._index

    def add(self, u: Row | Record, count: int = 1) -> None:
        """Add count copies of u, a row or a record."""
        if type(u) is not tuple:
            u = self._row(u)
        index = self._index if self._index is not None else self._keyed()
        n = len(self._records)
        i = index.setdefault(u if self.ids else row_key(u), n)  # the key is hashed once
        if i == n:
            self._records.append(u)
            self._counts.append(count)
        else:
            self._counts[i] += count

    def add_new(self, u: Row | Record, count: int = 1) -> None:
        """Add u, a row or a record known to differ from every row of the table."""
        if self._index is not None:
            return self.add(u, count)
        self._records.append(u if type(u) is tuple else self._row(u))
        self._counts.append(count)

    # -- inspection ---------------------------------------------------------

    def tuples(self) -> Iterator[tuple[Row, int]]:
        """Yield (row, multiplicity) pairs, the row a tuple in field order."""
        return zip(self._records, self._counts)

    def rows(self) -> Iterator[tuple[Record, int]]:
        """Yield (record, multiplicity) pairs, each record a new dict."""
        fields = self.fields
        return ((dict(zip(fields, u)), count) for u, count in zip(self._records, self._counts))

    def records(self) -> Iterator[Record]:
        """Yield each record as many times as its multiplicity."""
        return (record for record, count in self.rows() for _ in range(count))

    def multiplicity(self, u: Record) -> int:
        u = self._row(u)
        i = self._keyed().get(u if self.ids else row_key(u))
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
    return Table((), [()])


def bag_union(t1: Table, t2: Table) -> Table:
    """Multiplicity of every record is the sum of its multiplicities."""
    if t1.fields != t2.fields:
        raise FieldMismatch(f"field sets differ: {list(t1.fields)} vs {list(t2.fields)}")
    out = Table(t1.fields)
    for t in (t1, t2):
        for u, count in zip(t._records, t._counts):
            out.add(u, count)
    return out


def distinct(t: Table) -> Table:
    """Same support, all multiplicities 1."""
    out = Table(t.fields)
    for u in t._records:  # t lists each record once
        out.add_new(u, 1)
    return out
