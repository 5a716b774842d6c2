"""Exception hierarchy shared by every layer of the interpreter.

All errors raised on purpose derive from :class:`CypherError`, so callers
(and the CLI exit-code mapping) can distinguish our diagnostics from bugs.
"""

from __future__ import annotations

Span = tuple[int, int]  # (start, end) character offsets into the source text


class CypherError(Exception):
    """Base class for all interpreter errors; ``span`` locates the source
    text at fault, when it is known."""

    def __init__(self, *args, span: Span | None = None):
        super().__init__(*args)
        self.span = span


class ParseError(CypherError):
    """Raised by the tokenizer/parser on malformed input."""

    def __init__(self, message: str, span: Span | None = None, expected: str | None = None):
        super().__init__(message)
        self.message = message
        self.span = span
        self.expected = expected

    def __str__(self) -> str:
        where = f" at offset {self.span[0]}" if self.span else ""
        hint = f" (expected {self.expected})" if self.expected else ""
        return f"{self.message}{where}{hint}"


class GraphLoadError(CypherError):
    """Base class for errors while loading a graph document."""


class SchemaError(GraphLoadError):
    """Document does not conform to the graph JSON schema."""


class DuplicateId(GraphLoadError):
    """The same id is declared twice (or as both a node and a relationship)."""


class DanglingEndpoint(GraphLoadError):
    """A relationship references a node id that is not declared."""


class UnknownId(CypherError):
    """An id was queried that does not belong to the graph."""


class NameClash(CypherError):
    """A clause would bind a name that is already a field of its input."""


class FieldMismatch(CypherError):
    """Bag union (or UNION) over tables with different field sets."""


class AliasClash(CypherError):
    """A RETURN/WITH item list produces the same output name twice."""


class StarOnEmptyFields(CypherError):
    """RETURN * or WITH * applied to a table with no fields."""


class EvalError(CypherError):
    """An expression has no semantic rule for the values it was given.

    ``kind`` is one of ``TypeMismatch``, ``UnknownName``, ``UnknownFunction``,
    ``ArityMismatch``, ``TooDeep`` (a literal nests past ``values.MAX_DEPTH``),
    ``TooLarge`` (an arithmetic result has more than ``values.MAX_DIGITS``
    digits, or a list or map literal expands to more than
    ``values.MAX_CELLS`` cells, each shared element counted at every use).
    """

    def __init__(self, kind: str, message: str, span: Span | None = None):
        super().__init__(message)
        self.kind = kind
        self.message = message
        self.span = span

    def __str__(self) -> str:
        where = f" at offset {self.span[0]}" if self.span else ""
        return f"{self.kind}: {self.message}{where}"


def type_mismatch(message: str) -> EvalError:
    return EvalError("TypeMismatch", message)


def unknown_name(name: str) -> EvalError:
    return EvalError("UnknownName", f"name `{name}` is not bound")
