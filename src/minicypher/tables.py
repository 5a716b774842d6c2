"""Records and tables: bags of uniform records.

A record is a partial mapping from names to values (a plain dict here,
treated as immutable).  A table is a multiset of records that all share
the same domain — its fields.  Multiplicities are kept exactly; nothing
about a table is ordered.

Structural identity of records (what makes two rows "the same" for
counting, distinct() and table equality) is value identity per
:func:`minicypher.values.canon`: null equals null, and True is not 1.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import FieldMismatch
from .values import Value, canon

Record = dict[str, Value]


def _row_key(fields: tuple[str, ...], u: Record) -> tuple:
    return tuple(canon(u[f]) for f in fields)


class Table:
    """A bag of uniform records.

    ``fields`` is stored sorted (the field *set* is what matters).  Rows
    live in a counted-multiset keyed by the canonical encoding of the
    record, so equality of tables is decidable and exact.
    """

    __slots__ = ("fields", "_rows")

    def __init__(self, fields: Iterable[str], records: Iterable[Record] = ()):
        self.fields: tuple[str, ...] = tuple(sorted(set(fields)))
        self._rows: dict[tuple, list] = {}  # key -> [record, count]
        for u in records:
            self.add(u)

    def add(self, u: Record, count: int = 1) -> None:
        if set(u.keys()) != set(self.fields):
            raise AssertionError(
                f"non-uniform record: has {sorted(u)}, table fields are {list(self.fields)}"
            )
        key = _row_key(self.fields, u)
        slot = self._rows.get(key)
        if slot is None:
            self._rows[key] = [dict(u), count]
        else:
            slot[1] += count

    # -- inspection ---------------------------------------------------------

    def rows(self) -> Iterator[tuple[Record, int]]:
        """Yield (record, multiplicity) pairs."""
        for record, count in self._rows.values():
            yield record, count

    def records(self) -> Iterator[Record]:
        """Yield each record as many times as its multiplicity."""
        for record, count in self._rows.values():
            for _ in range(count):
                yield record

    def multiplicity(self, u: Record) -> int:
        slot = self._rows.get(_row_key(self.fields, u))
        return 0 if slot is None else slot[1]

    def total_rows(self) -> int:
        return sum(count for _, count in self._rows.values())

    def is_empty(self) -> bool:
        return not self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.fields == other.fields and {
            k: c for k, (_, c) in self._rows.items()
        } == {k: c for k, (_, c) in other._rows.items()}

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
    for record, count in t1.rows():
        out.add(record, count)
    for record, count in t2.rows():
        out.add(record, count)
    return out


def distinct(t: Table) -> Table:
    """Same support, all multiplicities 1."""
    out = Table(t.fields)
    for record, _ in t.rows():
        out.add(record, 1)
    return out
