"""Tokenizer, parser, and canonical unparser.

The tokenizer makes one ``_TOKEN`` match per token: whitespace (space, tab,
CR, LF), then a token class of docs/grammar.md: punctuation (``<= >= <>
..`` before the one-character kinds), IDENT ``[A-Za-z_][A-Za-z0-9_]*``,
INT ``[0-9]+``, or a closed STRING without a backslash; ``_escaped_string``
decodes any other string and raises its errors.  A character no class
matches is a parse error.  A :class:`Token` holds ``kind`` (the punctuation
itself, IDENT, INT, STRING or EOF), ``value``, ``start``, ``end`` and the
upper-cased ``keyword`` an IDENT spells (``""`` otherwise), so the parser
never upper-cases on a probe.

Expressions are parsed by precedence climbing over ``ast.OPERATORS``, the
operator levels loosest first: OR, XOR, AND, prefix NOT, IN and the string
operators (STARTS WITH, ENDS WITH, CONTAINS), IS [NOT] NULL, the
comparisons < <= >= > = <> (chains become conjunctions: ``a < b < c``
parses as ``a < b AND b < c``), then property access, indexing and slicing,
which ``_parse_postfix`` takes.  The unparser reads the same table.
Patterns, clauses and queries are parsed by recursive descent.

Parenthesized expressions are accepted as grouping; at most
``MAX_NESTING`` levels of sub-expressions and NOTs may nest.  Keywords are
case-insensitive and reserved; names, labels, relationship types and
property keys are case-sensitive identifiers.

Every ``match_*``/``parse_*`` method assumes the cursor sits on the first
token of its fragment and leaves it one past the last token consumed.

:func:`unparse` renders an AST back to canonical text such that
``parse(unparse(ast)) == ast``; this canonical text also serves as the
alias function for un-aliased RETURN items.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Callable, NamedTuple, TypeVar

from . import ast
from .errors import ParseError
from .values import kind

T = TypeVar("T")

KEYWORDS = {
    "MATCH", "OPTIONAL", "WHERE", "WITH", "UNWIND", "RETURN", "AS",
    "UNION", "ALL", "AND", "OR", "XOR", "NOT", "IN", "IS", "NULL",
    "STARTS", "ENDS", "CONTAINS", "TRUE", "FALSE",
}

_ESCAPES = {"\\": "\\", "'": "'", '"': '"', "n": "\n", "t": "\t"}

# Each operator token's precedence level in ast.OPERATORS and the node it builds.
_OPERATOR = {token: (level, node) for level, ops in enumerate(ast.OPERATORS) for token, node in ops}
_NOT, _CMP = _OPERATOR["NOT"][0], _OPERATOR["="][0]
_KEYWORD_LITERALS = {"TRUE": True, "FALSE": False, "NULL": None}

# Nesting levels below a top-level expression: each sub-expression parsed
# whole (in parentheses, a list, a map, call arguments, an index) and each
# NOT opens one.  The bound keeps recursive descent, and the evaluator and
# unparser after it, far from Python's recursion limit; all three walk
# left-deep chains (a AND b AND …, m.k.k…) iteratively, so those are unbounded.
MAX_NESTING = 64

_TOKEN = re.compile(r"""[ \t\r\n]*(?:
    (<=|>=|<>|\.\.|[()\[\]{},:.|=<>*-])  # 1: punctuation, its own kind
  | ([A-Za-z_][A-Za-z0-9_]*)            # 2: IDENT
  | ([0-9]+)                            # 3: INT
  | ('[^'\\]*'|"[^"\\]*")               # 4: STRING, closed, no backslash
  | (\Z)                                # 5: EOF
)""", re.VERBOSE)
_GROUP_KIND = (None, None, "IDENT", "INT", "STRING", "EOF")
_SPACE = re.compile(r"[ \t\r\n]*")


class Token(NamedTuple):
    kind: str  # IDENT, INT, STRING, EOF, or the punctuation itself
    value: str
    start: int
    end: int
    keyword: str  # the upper-cased keyword an IDENT spells, else ""


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append, match, new = tokens.append, _TOKEN.match, tuple.__new__
    pos = 0
    while True:
        m = match(text, pos)
        if m is None:  # a string with a backslash or no closing quote, or no token
            start = _SPACE.match(text, pos).end()
            if text[start] not in "'\"":
                raise ParseError(f"unexpected character {text[start]!r}", (start, start + 1))
            value, pos = _escaped_string(text, start)
            append(new(Token, ("STRING", value, start, pos, "")))
            continue
        group, pos = m.lastindex, m.end()
        value = m[group]
        start = pos - len(value)
        if group == 2:
            keyword = value.upper()
            append(new(Token, ("IDENT", value, start, pos, keyword if keyword in KEYWORDS else "")))
            continue
        if group == 4:
            value = value[1:-1]
        append(new(Token, (_GROUP_KIND[group] or value, value, start, pos, "")))
        if group == 5:
            return tokens


def _escaped_string(text: str, i: int) -> tuple[str, int]:
    """The value and end of the string literal at text[i], decoding escapes."""
    quote, n = text[i], len(text)
    j = i + 1
    out: list[str] = []
    while True:
        if j >= n:
            raise ParseError("unterminated string literal", (i, n))
        ch = text[j]
        if ch == quote:
            return "".join(out), j + 1
        if ch == "\\":
            if j + 1 >= n or text[j + 1] not in _ESCAPES:
                raise ParseError("bad escape sequence", (j, j + 2))
            out.append(_ESCAPES[text[j + 1]])
            j += 2
            continue
        out.append(ch)
        j += 1


class Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = -1  # open nesting levels; -1 outside any expression

    # -- cursor helpers -----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        # in range: the cursor never steps past EOF, and no look-ahead is taken from it
        return self.tokens[self.pos + ahead]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def at_kw(self, word: str) -> bool:
        return self.tokens[self.pos].keyword == word

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ParseError(f"unexpected {self._describe(tok)}", (tok.start, tok.end), expected=kind)
        self.pos += 1
        return tok

    def expect_kw(self, word: str) -> None:
        if not self.take_kw(word):
            tok = self.peek()
            raise ParseError(f"unexpected {self._describe(tok)}", (tok.start, tok.end), expected=word)

    def take(self, kind: str) -> bool:
        if self.tokens[self.pos].kind == kind:
            self.pos += 1
            return True
        return False

    def take_kw(self, word: str) -> bool:
        if self.tokens[self.pos].keyword == word:
            self.pos += 1
            return True
        return False

    def expect_name(self) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise ParseError(f"unexpected {self._describe(tok)}", (tok.start, tok.end), expected="a name")
        if tok.keyword:
            raise ParseError(f"keyword {tok.value!r} cannot be used as a name", (tok.start, tok.end))
        self.pos += 1
        return tok

    @staticmethod
    def _describe(tok: Token) -> str:
        return "end of input" if tok.kind == "EOF" else f"{tok.value!r}"

    def _span_from(self, start: int) -> ast.Span:
        end = self.tokens[self.pos - 1].end if self.pos > 0 else start
        return (start, end)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        """One whole expression; inside another one it opens a nesting level."""
        self._open_level(self.tokens[self.pos - 1])
        e = self._parse_operand(0)
        self.depth -= 1
        return e

    def _open_level(self, opener: Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nested too deeply (more than {MAX_NESTING} levels)",
                             (opener.start, opener.end))

    def _parse_operand(self, level: int) -> ast.Expr:
        """An expression whose operators sit at ``level`` or tighter in
        ast.OPERATORS, by precedence climbing.  A prefix NOT is taken while
        ``level`` admits it; each right operand is parsed one level tighter.
        An operator tighter than the last one applied ends the operand, so
        ``a IS NULL = b`` leaves ``=`` unparsed."""
        tok = self.tokens[self.pos]
        if tok.keyword == "NOT" and level <= _NOT:
            self.pos += 1
            self._open_level(tok)
            operand = self._parse_operand(_NOT)
            self.depth -= 1
            left, ceiling = ast.Not(operand, span=self._span_from(tok.start)), _NOT - 1  # connectives
        else:
            left, ceiling = self._parse_postfix(), _CMP  # it took the postfix operators
        pivot = left  # the left operand of the next comparison in a chain
        while True:
            tok = self.tokens[self.pos]
            op = tok.keyword or tok.kind
            at, node = _OPERATOR.get(op, (-1, None))
            if node is ast.Not or not level <= at <= ceiling:
                return left
            self.pos += 1
            ceiling, start = at, left.span[0]
            if node is ast.IsNull:
                negated = self.take_kw("NOT")
                self.expect_kw("NULL")
                left = ast.IsNull(left, negated, span=self._span_from(start))
                continue
            if op in ("STARTS", "ENDS"):
                self.expect_kw("WITH")
                op += " WITH"
            right = self._parse_operand(at + 1)
            if node is ast.Cmp:  # a chain a < b <= c means (a < b) AND (b <= c)
                cmp_ = ast.Cmp(op, pivot, right, span=(pivot.span[0], right.span[1]))
                left = cmp_ if left is pivot else ast.And(left, cmp_, span=(start, cmp_.span[1]))
                pivot = right
            elif node is ast.StrOp:
                left = ast.StrOp(op, left, right, span=self._span_from(start))
            else:
                left = node(left, right, span=self._span_from(start))

    def _parse_postfix(self) -> ast.Expr:
        e = self._parse_primary()
        while self.at(".") or self.at("["):
            start = e.span[0]
            if self.advance().kind == ".":
                e = ast.Prop(e, self.expect_name().value, span=self._span_from(start))
                continue
            lo = None if self.at("..") else self.parse_expr()
            if lo is not None and self.take("]"):
                e = ast.Index(e, lo, span=self._span_from(start))
                continue
            if not self.take(".."):
                tok = self.peek()
                raise ParseError(
                    f"unexpected {self._describe(tok)} in index", (tok.start, tok.end),
                    expected="] or ..",
                )
            # a slice needs at least one bound: `e[..]` is rejected
            hi = None if lo is not None and self.at("]") else self.parse_expr()
            self.expect("]")
            e = ast.Slice(e, lo, hi, span=self._span_from(start))
        return e

    def _parse_primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return ast.Lit(self._int(tok), span=(tok.start, tok.end))
        if tok.kind == "-":
            nxt = self.peek(1)
            if nxt.kind != "INT":
                raise ParseError("`-` is only valid before an integer literal", (tok.start, tok.end))
            self.advance()
            self.advance()
            return ast.Lit(-self._int(nxt), span=(tok.start, nxt.end))
        if tok.kind == "STRING":
            self.advance()
            return ast.Lit(tok.value, span=(tok.start, tok.end))
        if tok.keyword in _KEYWORD_LITERALS:
            self.advance()
            return ast.Lit(_KEYWORD_LITERALS[tok.keyword], span=(tok.start, tok.end))
        if tok.kind == "IDENT":
            if self.peek(1).kind == "(":
                name = self.expect_name().value
                self.expect("(")
                args = self._parse_list(self.parse_expr, ")")
                return ast.FnCall(name, args, span=self._span_from(tok.start))
            name = self.expect_name().value
            return ast.Name(name, span=(tok.start, tok.end))
        if tok.kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return dataclasses.replace(inner, span=self._span_from(tok.start))
        if tok.kind == "[":
            self.advance()
            return ast.ListLit(self._parse_list(self.parse_expr, "]"), span=self._span_from(tok.start))
        if tok.kind == "{":
            entries = self._parse_map_entries(allow_duplicates=True)
            return ast.MapLit(entries, span=self._span_from(tok.start))
        raise ParseError(f"unexpected {self._describe(tok)}", (tok.start, tok.end), expected="an expression")

    def _parse_map_entries(self, allow_duplicates: bool) -> tuple[tuple[str, ast.Expr], ...]:
        open_tok = self.expect("{")
        entries = self._parse_list(self._parse_map_entry, "}")
        if not allow_duplicates:
            keys = [k for k, _ in entries]
            if len(keys) != len(set(keys)):
                raise ParseError("duplicate property key in pattern map",
                                 self._span_from(open_tok.start))
        return entries

    def _parse_map_entry(self) -> tuple[str, ast.Expr]:
        key = self.expect_name().value
        self.expect(":")
        return key, self.parse_expr()

    def _parse_list(self, item: Callable[[], T], closer: str) -> tuple[T, ...]:
        """Comma-separated items, maybe none, then ``closer``; the opener is taken."""
        items = []
        if not self.at(closer):
            items.append(item())
            while self.take(","):
                items.append(item())
        self.expect(closer)
        return tuple(items)

    @staticmethod
    def _int(tok: Token) -> int:
        try:
            return int(tok.value)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"integer literal too long ({len(tok.value)} digits)",
                             (tok.start, tok.end)) from None

    # -- patterns -------------------------------------------------------------

    def parse_pattern_tuple(self) -> ast.PatternTuple:
        start = self.peek().start
        paths = [self.parse_pattern()]
        while self.take(","):
            paths.append(self.parse_pattern())
        return ast.PatternTuple(tuple(paths), span=self._span_from(start))

    def parse_pattern(self) -> ast.PathPattern:
        start = self.peek().start
        name = None
        if self.peek().kind == "IDENT" and self.peek(1).kind == "=":
            name = self.expect_name().value
            self.expect("=")
        elements: list = [self._parse_node_pattern()]
        while self.peek().kind in ("-", "<"):
            elements.append(self._parse_rel_pattern())
            elements.append(self._parse_node_pattern())
        return ast.PathPattern(tuple(elements), name, span=self._span_from(start))

    def _parse_node_pattern(self) -> ast.NodePattern:
        start = self.expect("(").start
        name = None
        if self.peek().kind == "IDENT":
            name = self.expect_name().value
        labels: list[str] = []
        while self.take(":"):
            labels.append(self.expect_name().value)
        props: tuple = ()
        if self.at("{"):
            props = self._parse_map_entries(allow_duplicates=False)
        self.expect(")")
        return ast.NodePattern(name, frozenset(labels), props, span=self._span_from(start))

    def _parse_rel_pattern(self) -> ast.RelPattern:
        start = self.peek().start
        left_arrow = self.take("<")
        self.expect("-")
        self.expect("[")
        name = None
        if self.peek().kind == "IDENT":
            name = self.expect_name().value
        types: list[str] = []
        if self.take(":"):
            types.append(self.expect_name().value)
            while self.take("|"):
                types.append(self.expect_name().value)
        range_ = self._parse_len()
        props: tuple = ()
        if self.at("{"):
            props = self._parse_map_entries(allow_duplicates=False)
        self.expect("]")
        self.expect("-")
        right_arrow = False
        if self.at(">"):
            if left_arrow:
                tok = self.peek()
                raise ParseError("a relationship pattern cannot point both ways", (tok.start, tok.end))
            self.advance()
            right_arrow = True
        if left_arrow:
            direction = ast.LEFT
        elif right_arrow:
            direction = ast.RIGHT
        else:
            direction = ast.UNDIRECTED
        return ast.RelPattern(direction, name, frozenset(types), props, range_,
                              span=self._span_from(start))

    def _parse_len(self):
        if not self.take("*"):
            return None
        if self.peek().kind == "INT":
            lo = self._int(self.advance())
            if self.take(".."):
                if self.peek().kind == "INT":
                    return (lo, self._int(self.advance()))
                return (lo, None)
            return (lo, lo)
        if self.take(".."):
            return (None, self._int(self.expect("INT")))
        return (None, None)

    # -- clauses and queries ----------------------------------------------------

    def parse_query(self) -> ast.Query:
        query: ast.Query = self._parse_clause_query()
        while self.take_kw("UNION"):
            all_ = self.take_kw("ALL")
            right = self._parse_clause_query()
            query = ast.UnionQuery(query, right, all_, span=self._span_from(query.span[0]))
        return query

    def _parse_clause_query(self) -> ast.ClauseQuery:
        start = self.peek().start
        clauses: list[ast.Clause] = []
        while True:
            if self.take_kw("RETURN"):
                star, items = self._parse_items(for_with=False)
                ret = ast.Return(star, items, span=self._span_from(start))
                return ast.ClauseQuery(tuple(clauses), ret, span=self._span_from(start))
            clauses.append(self._parse_clause())

    def _parse_clause(self) -> ast.Clause:
        tok = self.peek()
        start = tok.start
        if self.at_kw("OPTIONAL") or self.at_kw("MATCH"):
            optional = self.take_kw("OPTIONAL")
            self.expect_kw("MATCH")
            patterns = self.parse_pattern_tuple()
            where = self.parse_expr() if self.take_kw("WHERE") else None
            return ast.Match(patterns, optional, where, span=self._span_from(start))
        if self.take_kw("WITH"):
            star, items = self._parse_items(for_with=True)
            where = self.parse_expr() if self.take_kw("WHERE") else None
            return ast.With(star, items, where, span=self._span_from(start))
        if self.take_kw("UNWIND"):
            expr = self.parse_expr()
            self.expect_kw("AS")
            name = self.expect_name().value
            return ast.Unwind(expr, name, span=self._span_from(start))
        raise ParseError(
            f"unexpected {self._describe(tok)}", (tok.start, tok.end),
            expected="MATCH, OPTIONAL MATCH, WITH, UNWIND or RETURN",
        )

    def _parse_items(self, for_with: bool) -> tuple[bool, tuple[ast.Item, ...]]:
        star = self.take("*")
        items: list[ast.Item] = []
        if star and not self.take(","):
            return star, ()
        while True:
            tok = self.peek()
            expr = self.parse_expr()
            alias = None
            if self.take_kw("AS"):
                alias = self.expect_name().value
            elif for_with and not isinstance(expr, ast.Name):
                raise ParseError(
                    "a WITH item without AS must be a plain name",
                    (tok.start, self.tokens[self.pos - 1].end),
                )
            items.append((expr, alias))
            if not self.take(","):
                return star, tuple(items)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _parse_whole(text: str, rule: Callable[[Parser], T]) -> T:
    """Apply one parser rule to all of ``text``; leftover tokens are an error."""
    p = Parser(text)
    result = rule(p)
    tok = p.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {p._describe(tok)}", (tok.start, tok.end))
    return result


def parse_query(text: str) -> ast.Query:
    return _parse_whole(text, Parser.parse_query)


def parse_pattern(text: str) -> ast.PathPattern:
    return _parse_whole(text, Parser.parse_pattern)


def parse_pattern_tuple(text: str) -> ast.PatternTuple:
    return _parse_whole(text, Parser.parse_pattern_tuple)


def parse_expr(text: str) -> ast.Expr:
    return _parse_whole(text, Parser.parse_expr)


# ---------------------------------------------------------------------------
# Unparsing (canonical text; also the alias function for RETURN items)
# ---------------------------------------------------------------------------

# Each operator node's precedence level in ast.OPERATORS and its token; StrOp
# and Cmp spell their own operator.
_LEVEL = {node: (level, token) for level, ops in enumerate(ast.OPERATORS) for token, node in ops}


def _string_lit(s: str) -> str:
    out = s.replace("\\", "\\\\").replace("'", "\\'").replace("\n", "\\n").replace("\t", "\\t")
    return f"'{out}'"


def _wrap(text: str, level: int, parent_level: int) -> str:
    return f"({text})" if level < parent_level else text


def unparse_expr(e: ast.Expr, parent_level: int = 0) -> str:
    """Canonical text of e, in parentheses when its level binds looser than
    parent_level.  A left-deep chain is rendered iteratively: only its
    right operands recurse."""
    chain = []
    while type(e) in ast.LEFT_OPERAND:
        chain.append(e)
        e = getattr(e, ast.LEFT_OPERAND[type(e)])
    # A chained operator's own level is also the level its left operand needs.
    levels = [_LEVEL[type(x)][0] for x in chain]
    text = _unparse_leaf(e, levels[-1] if chain else parent_level)
    for i in reversed(range(len(chain))):
        text = _wrap(_chain_text(chain[i], text), levels[i], levels[i - 1] if i else parent_level)
    return text


# The concrete syntax of each kind of value that has a literal.
_LITERAL_TEXT: dict[str, Callable[..., str]] = {
    "null": lambda v: "null",
    "bool": lambda v: "true" if v else "false",
    "int": str,
    "str": _string_lit,
}


def _unparse_leaf(e: ast.Expr, parent_level: int) -> str:
    if isinstance(e, ast.Lit):
        try:
            text = _LITERAL_TEXT[kind(e.value)]
        except (KeyError, TypeError):
            raise ValueError(f"literal {e.value!r} has no concrete syntax") from None
        return text(e.value)
    if isinstance(e, ast.Name):
        return e.name
    if isinstance(e, ast.FnCall):
        return f"{e.name}({', '.join(unparse_expr(a) for a in e.args)})"
    if isinstance(e, ast.MapLit):
        inner = ", ".join(f"{k}: {unparse_expr(v)}" for k, v in e.entries)
        return "{" + inner + "}"
    if isinstance(e, ast.ListLit):
        return "[" + ", ".join(unparse_expr(x) for x in e.items) + "]"
    if isinstance(e, ast.Cmp):  # not chained: both operands bind tighter
        level = _LEVEL[ast.Cmp][0]
        text = f"{unparse_expr(e.left, level + 1)} {e.op} {unparse_expr(e.right, level + 1)}"
        return _wrap(text, level, parent_level)
    if isinstance(e, ast.Not):
        level, word = _LEVEL[ast.Not]
        return _wrap(f"{word} {unparse_expr(e.expr, level)}", level, parent_level)
    raise TypeError(f"not an expression: {e!r}")


def _chain_text(e: ast.Expr, left: str) -> str:
    """The text of a chained operator, given the text of its left operand."""
    if isinstance(e, ast.Prop):
        return f"{left}.{e.key}"
    if isinstance(e, ast.Index):
        return f"{left}[{unparse_expr(e.index)}]"
    if isinstance(e, ast.Slice):
        lo = unparse_expr(e.lo) if e.lo is not None else ""
        hi = unparse_expr(e.hi) if e.hi is not None else ""
        return f"{left}[{lo}..{hi}]"
    if isinstance(e, ast.IsNull):
        return f"{left} IS NOT NULL" if e.negated else f"{left} IS NULL"
    # an infix operator: its right operand binds one level tighter
    level, word = _LEVEL[type(e)]
    if isinstance(e, ast.InList):
        return f"{left} {word} {unparse_expr(e.container, level + 1)}"
    op = e.op if isinstance(e, ast.StrOp) else word
    return f"{left} {op} {unparse_expr(e.right, level + 1)}"


def _unparse_prop_map(props: tuple[tuple[str, ast.Expr], ...]) -> str:
    return "{" + ", ".join(f"{k}: {unparse_expr(v)}" for k, v in props) + "}"


def unparse_node_pattern(chi: ast.NodePattern) -> str:
    parts = chi.name or ""
    parts += "".join(f":{label}" for label in sorted(chi.labels))
    if chi.props:
        parts += (" " if parts else "") + _unparse_prop_map(chi.props)
    return f"({parts})"


def unparse_rel_pattern(rho: ast.RelPattern) -> str:
    body = rho.name or ""
    if rho.types:
        body += ":" + "|".join(sorted(rho.types))
    if rho.range_ is not None:
        lo, hi = rho.range_
        if lo is None and hi is None:
            body += "*"
        elif hi is None:
            body += f"*{lo}.."
        elif lo is None:
            body += f"*..{hi}"
        else:
            body += f"*{lo}..{hi}"
    if rho.props:
        body += (" " if body else "") + _unparse_prop_map(rho.props)
    if rho.direction == ast.LEFT:
        return f"<-[{body}]-"
    if rho.direction == ast.RIGHT:
        return f"-[{body}]->"
    return f"-[{body}]-"


def unparse_pattern(pat: ast.PathPattern) -> str:
    chunks = []
    for el in pat.elements:
        if isinstance(el, ast.NodePattern):
            chunks.append(unparse_node_pattern(el))
        else:
            chunks.append(unparse_rel_pattern(el))
    text = "".join(chunks)
    return f"{pat.name} = {text}" if pat.name else text


def unparse_pattern_tuple(pats: ast.PatternTuple) -> str:
    return ", ".join(unparse_pattern(p) for p in pats.paths)


def _unparse_items(star: bool, items: tuple[ast.Item, ...]) -> str:
    chunks = ["*"] if star else []
    for expr, alias in items:
        text = unparse_expr(expr)
        if alias is not None:
            text += f" AS {alias}"
        chunks.append(text)
    return ", ".join(chunks)


def unparse_clause(c: ast.Clause) -> str:
    if isinstance(c, ast.Match):
        text = ("OPTIONAL " if c.optional else "") + "MATCH " + unparse_pattern_tuple(c.patterns)
        if c.where is not None:
            text += " WHERE " + unparse_expr(c.where)
        return text
    if isinstance(c, ast.With):
        text = "WITH " + _unparse_items(c.star, c.items)
        if c.where is not None:
            text += " WHERE " + unparse_expr(c.where)
        return text
    if isinstance(c, ast.Unwind):
        return f"UNWIND {unparse_expr(c.expr)} AS {c.name}"
    raise TypeError(f"not a clause: {c!r}")


def unparse_query(q: ast.Query) -> str:
    # A left-deep chain of UNIONs is rendered iteratively, one branch at a time.
    parts: list[str] = []
    while isinstance(q, ast.UnionQuery):
        parts.append(unparse_query(q.right))
        parts.append("UNION ALL" if q.all else "UNION")
        q = q.left
    if not isinstance(q, ast.ClauseQuery):
        raise TypeError(f"not a query: {q!r}")
    clauses = [unparse_clause(c) for c in q.clauses]
    clauses.append("RETURN " + _unparse_items(q.ret.star, q.ret.items))
    parts.append(" ".join(clauses))
    return " ".join(reversed(parts))
