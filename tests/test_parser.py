"""Parser, tokenizer, and canonical-unparse tests.

The central contract is the round trip: for every AST the parser can
produce, ``parse(unparse(ast)) == ast``.  Golden strings pin the intended
precedence; the generator-driven round trip covers the long tail.
"""

import dataclasses
import itertools
import re
from functools import partial
from pathlib import Path

import pytest

from minicypher import ast
from minicypher.errors import ParseError
from minicypher.oracle import GenConfig, gen_case
from minicypher.parser import (
    KEYWORDS,
    parse_expr,
    parse_pattern,
    parse_pattern_tuple,
    parse_query,
    tokenize,
    unparse_expr,
    unparse_pattern,
    unparse_query,
)

GRAMMAR_DOC = Path(__file__).resolve().parent.parent / "docs" / "grammar.md"


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


def test_tokenize_multichar_puncts():
    kinds = [(t.kind, t.value) for t in tokenize("<= >= <> .. < > = .")]
    assert [k for k, _ in kinds[:-1]] == ["<=", ">=", "<>", "..", "<", ">", "=", "."]


def test_tokenize_spans_are_offsets():
    toks = tokenize("ab = 12")
    ident = toks[0]
    assert (ident.start, ident.end) == (0, 2)
    num = [t for t in toks if t.kind == "INT"][0]
    assert (num.start, num.end) == (5, 7)


def test_string_escapes():
    toks = tokenize(r"'a\'b\\c\nd\te'")
    assert toks[0].value == "a'b\\c\nd\te"
    toks = tokenize('"double \\"quoted\\""')
    assert toks[0].value == 'double "quoted"'


def test_tokenize_errors():
    with pytest.raises(ParseError):
        tokenize("'unterminated")
    with pytest.raises(ParseError):
        tokenize(r"'bad \q escape'")
    with pytest.raises(ParseError):
        tokenize("a ~ b")


def _lexical_section():
    text = GRAMMAR_DOC.read_text(encoding="utf-8")
    return text.split("## Lexical structure", 1)[1].split("\n## ", 1)[0]


def _doc_says(pattern):
    m = re.search(pattern, _lexical_section(), re.DOTALL)
    assert m, f"docs/grammar.md no longer says {pattern!r}"
    return m.groups()


def test_reserved_words_match_the_doc():
    (words,) = _doc_says(r"The reserved set: `([^`]+)`")
    assert set(words.split()) == KEYWORDS


def test_every_character_tokenizes_as_the_doc_says():
    # The doc's token classes, read from its text, decide how each character
    # tokenizes alone and after a token it could continue.
    (spaces,) = _doc_says(r"\*\*Whitespace\*\* \(([^)]+)\)")
    whitespace = {{"space": " ", "tab": "\t", "CR": "\r", "LF": "\n"}[w.strip()]
                  for w in spaces.split(",")}
    ident, integer = (re.compile(p) for p in _doc_says(
        r"\*\*Identifiers\*\* match `([^`]+)`.*\*\*Integers\*\* match `([^`]+)`"))
    one_char, two_char = (p.split() for p in _doc_says(
        r"\*\*Punctuation\*\*: `([^`]+)` and the two-character\s+tokens `([^`]+)`"))
    for p in one_char + two_char:
        assert [(t.kind, t.value) for t in tokenize(p)] == [(p, p), ("EOF", "")]

    def doc_tokens(c):
        """The doc's reading of the character c alone: tokens, or an error."""
        if c in whitespace:
            return []
        for kind, rx in (("IDENT", ident), ("INT", integer)):
            if rx.fullmatch(c):
                return [(kind, c)]
        return [(c, c)] if c in one_char else f"unexpected character {c!r}"

    def got(text):
        try:
            return [(t.kind, t.value) for t in tokenize(text)[:-1]]
        except ParseError as exc:
            return exc.message

    samples = [chr(i) for i in range(0x300)] + ["\u2028", "\u3000", "\u0131", "\uff11", "\u0660", "\u212a"]
    for c in samples:
        if c in "'\"":
            continue  # an opening quote: strings have their own tests
        assert got(c) == doc_tokens(c), repr(c)
        # after a token the character either continues it or starts afresh
        for first, kind, rx in (("x", "IDENT", ident), ("1", "INT", integer)):
            alone = doc_tokens(c)
            if rx.fullmatch(first + c):
                want = [(kind, first + c)]
            else:
                want = alone if isinstance(alone, str) else [(kind, first)] + alone
            assert got(first + c) == want, repr(first + c)


def test_tokens_carry_their_keyword():
    toks = tokenize("match Foo 'AS' is")
    assert [t.keyword for t in toks] == ["MATCH", "", "", "IS", ""]


@pytest.mark.parametrize("src,char,offset", [
    ("RETURN \u00b2", "\u00b2", 7),  # superscript two: str.isdigit, but not an integer
    ("MATCH (a)-[*1..\u00b2]->(b) RETURN a", "\u00b2", 15),
    ("RETURN \uff11\uff12", "\uff11", 7),  # fullwidth digits
    ("RETURN \u00e9", "\u00e9", 7),  # a non-ASCII letter
    ("RETURN caf\u00e9", "\u00e9", 10),  # ... also inside a name
    ("RETURN \u0131n", "\u0131", 7),  # dotless i: 'ın'.upper() == 'IN'
    ("RETURN 1\u00a0AS x", "\u00a0", 8),  # no-break space is not whitespace
])
def test_tokens_are_ascii_outside_strings(src, char, offset):
    with pytest.raises(ParseError) as exc:
        parse_query(src)
    assert (exc.value.message, exc.value.span) == (f"unexpected character {char!r}", (offset, offset + 1))
    # inside a string literal any character is fine
    assert parse_expr(f"'{char}'") == ast.Lit(char)


# ---------------------------------------------------------------------------
# Expression precedence goldens
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("src,expected", [
    # OR is loosest, then XOR, then AND, then NOT
    ("a OR b XOR c AND NOT d",
     ast.Or(ast.Name("a"), ast.Xor(ast.Name("b"), ast.And(ast.Name("c"), ast.Not(ast.Name("d")))))),
    ("NOT a OR b", ast.Or(ast.Not(ast.Name("a")), ast.Name("b"))),
    ("NOT NOT a", ast.Not(ast.Not(ast.Name("a")))),
    # string operators and IN sit below NOT, above IS NULL
    ("NOT a IN b", ast.Not(ast.InList(ast.Name("a"), ast.Name("b")))),
    ("a IN b IN c", ast.InList(ast.InList(ast.Name("a"), ast.Name("b")), ast.Name("c"))),
    # IS NULL binds looser than comparison: a = b IS NULL tests the comparison
    ("a = b IS NULL", ast.IsNull(ast.Cmp("=", ast.Name("a"), ast.Name("b")), False)),
    ("a IS NULL IS NOT NULL", ast.IsNull(ast.IsNull(ast.Name("a"), False), True)),
    # postfix binds tightest
    ("a.b[0].c", ast.Prop(ast.Index(ast.Prop(ast.Name("a"), "b"), ast.Lit(0)), "c")),
])
def test_precedence(src, expected):
    assert parse_expr(src) == expected


def test_precedence_table_matches_the_doc():
    # The doc lists each level's tokens tightest first; ast.OPERATORS, loosest first.
    text = GRAMMAR_DOC.read_text(encoding="utf-8")
    section = text.split("## Expressions", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (\d+) \| ((?:`[^`]+` ?)+) \|", section, re.MULTILINE)
    assert [int(level) for level, _ in rows] == list(range(1, len(ast.OPERATORS) + 1))
    doc = [set(re.findall(r"`([^`]+)`", tokens)) for _, tokens in rows]
    assert doc == [{token for token, _ in ops} for ops in reversed(ast.OPERATORS)]


# Every operator node with its operand count; a unary node's one operand is
# both its left and its right.
OPERATOR_NODES = [
    (2, ast.Or), (2, ast.Xor), (2, ast.And), (1, ast.Not), (2, ast.InList),
    (2, partial(ast.StrOp, "STARTS WITH")), (2, partial(ast.StrOp, "ENDS WITH")),
    (2, partial(ast.StrOp, "CONTAINS")), (1, ast.IsNull), (1, partial(ast.IsNull, negated=True)),
    (2, partial(ast.Cmp, "=")), (2, partial(ast.Cmp, "<")),
    (1, partial(ast.Prop, key="k")), (2, ast.Index), (2, ast.Slice),
]


def test_every_operator_nests_in_every_other():
    a, b, c = ast.Name("a"), ast.Name("b"), ast.Name("c")
    trees = []
    for (n, outer), (m, inner) in itertools.product(OPERATOR_NODES, repeat=2):
        nested = inner(*(b, c)[:m])
        trees += [outer(*(nested, a)[:n]), outer(*(a, nested)[-n:])]  # as left, as right operand
    assert len(trees) == 450
    assert {type(t) for t in trees} == {node for ops in ast.OPERATORS for _, node in ops}
    for e in trees:
        assert parse_expr(unparse_expr(e)) == e, unparse_expr(e)


@pytest.mark.parametrize("opener,closer,token", [
    ("(", ")", "("),
    ("[", "]", "["),
    ("NOT ", "", "NOT"),
    ("{k: ", "}", ":"),
    ("size(", ")", "("),
    ("x[", "]", "["),
])
def test_nesting_is_bounded_at_64_levels(opener, closer, token):
    def nested(n):
        return opener * n + "1" + closer * n

    parse_expr(nested(64))
    with pytest.raises(ParseError) as exc:
        parse_expr(nested(65))
    assert "nested too deeply" in exc.value.message
    # the caret sits on the token that opens the 65th level
    start = 64 * len(opener) + opener.index(token)
    assert exc.value.span == (start, start + len(token))


def test_comparison_chain_desugars_to_conjunction():
    got = parse_expr("1 < 2 <= 3")
    assert got == ast.And(
        ast.Cmp("<", ast.Lit(1), ast.Lit(2)),
        ast.Cmp("<=", ast.Lit(2), ast.Lit(3)),
    )


def test_parens_are_grouping_only():
    assert parse_expr("(a)") == ast.Name("a")
    assert parse_expr("((1))") == ast.Lit(1)


def test_literals():
    assert parse_expr("42") == ast.Lit(42)
    assert parse_expr("-3") == ast.Lit(-3)
    assert parse_expr("true") == ast.Lit(True)
    assert parse_expr("false") == ast.Lit(False)
    assert parse_expr("null") == ast.Lit(None)
    assert parse_expr("'s'") == ast.Lit("s")
    # keyword literals are case-insensitive like the other keywords
    assert parse_expr("TRUE") == ast.Lit(True)
    assert parse_expr("Null") == ast.Lit(None)


def test_list_and_map_literals():
    assert parse_expr("[1, 2]") == ast.ListLit((ast.Lit(1), ast.Lit(2)))
    assert parse_expr("[]") == ast.ListLit(())
    got = parse_expr("{a: 1, b: 'x'}")
    assert got == ast.MapLit((("a", ast.Lit(1)), ("b", ast.Lit("x"))))
    # duplicate keys are allowed in map literals (last occurrence wins at
    # evaluation time) ...
    assert parse_expr("{a: 1, a: 2}") == ast.MapLit((("a", ast.Lit(1)), ("a", ast.Lit(2))))


def test_function_calls():
    assert parse_expr("plus(1, a)") == ast.FnCall("plus", (ast.Lit(1), ast.Name("a")))
    assert parse_expr("size()") == ast.FnCall("size", ())


def test_slice_forms():
    xs = ast.Name("xs")
    assert parse_expr("xs[1..2]") == ast.Slice(xs, ast.Lit(1), ast.Lit(2))
    assert parse_expr("xs[..2]") == ast.Slice(xs, None, ast.Lit(2))
    assert parse_expr("xs[1..]") == ast.Slice(xs, ast.Lit(1), None)
    with pytest.raises(ParseError):
        parse_expr("xs[..]")


def test_keywords_are_not_names():
    with pytest.raises(ParseError):
        parse_expr("MATCH")
    with pytest.raises(ParseError):
        parse_query("MATCH (WHERE) RETURN 1")


def test_spans_attached():
    e = parse_expr("  foo ")
    assert e.span == (2, 5)


def _spans(node, text, out):
    """(node type, start, covered text) for node and everything below it, in
    field order; AST equality ignores spans, so only this can see them drift."""
    if isinstance(node, ast.AstNode):
        start, end = node.span
        out.append((type(node).__name__, start, text[start:end]))
        for f in dataclasses.fields(node):
            if f.name != "span":
                _spans(getattr(node, f.name), text, out)
    elif isinstance(node, tuple):
        for x in node:
            _spans(x, text, out)
    return out


# Between them these queries hold every AST node type.  The pinned spans
# include the quirks: a Return starts where its clause query starts, a
# parenthesized operand keeps its inner span, and a desugared comparison
# chain spans from its first operand to its last.
SPAN_CASES = [
    ("MATCH p = (a:A {k: -1})<-[r:T|S*1..2 {w: 'x'}]-(b), (c) "
     'WHERE a.k IN [1, 2] AND NOT c.s STARTS WITH "p" RETURN a', [
        ("ClauseQuery", 0, "MATCH p = (a:A {k: -1})<-[r:T|S*1..2 {w: 'x'}]-(b), (c) "
                           'WHERE a.k IN [1, 2] AND NOT c.s STARTS WITH "p" RETURN a'),
        ("Match", 0, "MATCH p = (a:A {k: -1})<-[r:T|S*1..2 {w: 'x'}]-(b), (c) "
                     'WHERE a.k IN [1, 2] AND NOT c.s STARTS WITH "p"'),
        ("PatternTuple", 6, "p = (a:A {k: -1})<-[r:T|S*1..2 {w: 'x'}]-(b), (c)"),
        ("PathPattern", 6, "p = (a:A {k: -1})<-[r:T|S*1..2 {w: 'x'}]-(b)"),
        ("NodePattern", 10, "(a:A {k: -1})"),
        ("Lit", 19, "-1"),
        ("RelPattern", 23, "<-[r:T|S*1..2 {w: 'x'}]-"),
        ("Lit", 41, "'x'"),
        ("NodePattern", 47, "(b)"),
        ("PathPattern", 52, "(c)"),
        ("NodePattern", 52, "(c)"),
        ("And", 62, 'a.k IN [1, 2] AND NOT c.s STARTS WITH "p"'),
        ("InList", 62, "a.k IN [1, 2]"),
        ("Prop", 62, "a.k"),
        ("Name", 62, "a"),
        ("ListLit", 69, "[1, 2]"),
        ("Lit", 70, "1"),
        ("Lit", 73, "2"),
        ("Not", 80, 'NOT c.s STARTS WITH "p"'),
        ("StrOp", 84, 'c.s STARTS WITH "p"'),
        ("Prop", 84, "c.s"),
        ("Name", 84, "c"),
        ("Lit", 100, '"p"'),
        ("Return", 0, "MATCH p = (a:A {k: -1})<-[r:T|S*1..2 {w: 'x'}]-(b), (c) "
                      'WHERE a.k IN [1, 2] AND NOT c.s STARTS WITH "p" RETURN a'),
        ("Name", 111, "a"),
    ]),
    ("OPTIONAL MATCH (a)-[*]-() WITH a, size(a.xs[0..1]) AS n WHERE n IS NOT NULL "
     "UNWIND [a.xs[ 0 ], {m: true}] AS u RETURN *, ((u)) = null OR 1 < 2 <= 3 XOR false AS v "
     "UNION ALL RETURN a.s ENDS WITH 'z' CONTAINS xs[..2] AS v UNION RETURN 1 AS v", [
        ("UnionQuery", 0, "OPTIONAL MATCH (a)-[*]-() WITH a, size(a.xs[0..1]) AS n WHERE n IS NOT NULL "
                          "UNWIND [a.xs[ 0 ], {m: true}] AS u RETURN *, ((u)) = null OR 1 < 2 <= 3 XOR false AS v "
                          "UNION ALL RETURN a.s ENDS WITH 'z' CONTAINS xs[..2] AS v UNION RETURN 1 AS v"),
        ("UnionQuery", 0, "OPTIONAL MATCH (a)-[*]-() WITH a, size(a.xs[0..1]) AS n WHERE n IS NOT NULL "
                          "UNWIND [a.xs[ 0 ], {m: true}] AS u RETURN *, ((u)) = null OR 1 < 2 <= 3 XOR false AS v "
                          "UNION ALL RETURN a.s ENDS WITH 'z' CONTAINS xs[..2] AS v"),
        ("ClauseQuery", 0, "OPTIONAL MATCH (a)-[*]-() WITH a, size(a.xs[0..1]) AS n WHERE n IS NOT NULL "
                           "UNWIND [a.xs[ 0 ], {m: true}] AS u RETURN *, ((u)) = null OR 1 < 2 <= 3 XOR false AS v"),
        ("Match", 0, "OPTIONAL MATCH (a)-[*]-()"),
        ("PatternTuple", 15, "(a)-[*]-()"),
        ("PathPattern", 15, "(a)-[*]-()"),
        ("NodePattern", 15, "(a)"),
        ("RelPattern", 18, "-[*]-"),
        ("NodePattern", 23, "()"),
        ("With", 26, "WITH a, size(a.xs[0..1]) AS n WHERE n IS NOT NULL"),
        ("Name", 31, "a"),
        ("FnCall", 34, "size(a.xs[0..1])"),
        ("Slice", 39, "a.xs[0..1]"),
        ("Prop", 39, "a.xs"),
        ("Name", 39, "a"),
        ("Lit", 44, "0"),
        ("Lit", 47, "1"),
        ("IsNull", 62, "n IS NOT NULL"),
        ("Name", 62, "n"),
        ("Unwind", 76, "UNWIND [a.xs[ 0 ], {m: true}] AS u"),
        ("ListLit", 83, "[a.xs[ 0 ], {m: true}]"),
        ("Index", 84, "a.xs[ 0 ]"),
        ("Prop", 84, "a.xs"),
        ("Name", 84, "a"),
        ("Lit", 90, "0"),
        ("MapLit", 95, "{m: true}"),
        ("Lit", 99, "true"),
        ("Return", 0, "OPTIONAL MATCH (a)-[*]-() WITH a, size(a.xs[0..1]) AS n WHERE n IS NOT NULL "
                      "UNWIND [a.xs[ 0 ], {m: true}] AS u RETURN *, ((u)) = null OR 1 < 2 <= 3 XOR false AS v"),
        ("Or", 121, "((u)) = null OR 1 < 2 <= 3 XOR false"),
        ("Cmp", 121, "((u)) = null"),
        ("Name", 121, "((u))"),
        ("Lit", 129, "null"),
        ("Xor", 137, "1 < 2 <= 3 XOR false"),
        ("And", 137, "1 < 2 <= 3"),
        ("Cmp", 137, "1 < 2"),
        ("Lit", 137, "1"),
        ("Lit", 141, "2"),
        ("Cmp", 141, "2 <= 3"),
        ("Lit", 141, "2"),
        ("Lit", 146, "3"),
        ("Lit", 152, "false"),
        ("ClauseQuery", 173, "RETURN a.s ENDS WITH 'z' CONTAINS xs[..2] AS v"),
        ("Return", 173, "RETURN a.s ENDS WITH 'z' CONTAINS xs[..2] AS v"),
        ("StrOp", 180, "a.s ENDS WITH 'z' CONTAINS xs[..2]"),
        ("StrOp", 180, "a.s ENDS WITH 'z'"),
        ("Prop", 180, "a.s"),
        ("Name", 180, "a"),
        ("Lit", 194, "'z'"),
        ("Slice", 207, "xs[..2]"),
        ("Name", 207, "xs"),
        ("Lit", 212, "2"),
        ("ClauseQuery", 226, "RETURN 1 AS v"),
        ("Return", 226, "RETURN 1 AS v"),
        ("Lit", 233, "1"),
    ]),
    # every whitespace character, and a string literal with escapes
    ("RETURN\t'it\\'s\\n' AS s,\r\n  -7 AS n", [
        ("ClauseQuery", 0, "RETURN\t'it\\'s\\n' AS s,\r\n  -7 AS n"),
        ("Return", 0, "RETURN\t'it\\'s\\n' AS s,\r\n  -7 AS n"),
        ("Lit", 7, "'it\\'s\\n'"),
        ("Lit", 26, "-7"),
    ]),
]


@pytest.mark.parametrize("src,expected", SPAN_CASES, ids=range(len(SPAN_CASES)))
def test_every_span_is_pinned(src, expected):
    assert _spans(parse_query(src), src, []) == expected


def test_span_cases_cover_every_node_type():
    covered = {name for _, expected in SPAN_CASES for name, _, _ in expected}
    node_types = {cls.__name__ for cls in vars(ast).values()
                  if isinstance(cls, type) and issubclass(cls, ast.AstNode) and cls is not ast.AstNode}
    assert covered == node_types


HUGE = "7" * 5000  # more digits than int() converts by default

# One row per place the tokenizer or parser raises: (query, message, span,
# expected).  The caret the CLI prints is placed from the span.
PARSE_ERRORS = [
    ("RETURN 'abc", "unterminated string literal", (7, 11), None),
    ("RETURN 'a\\qb'", "bad escape sequence", (9, 11), None),
    ("RETURN 'a\\q", "bad escape sequence", (9, 11), None),  # before the missing quote
    ("RETURN 'ab\\", "bad escape sequence", (10, 12), None),
    ("RETURN 'a\\'b' + 1", "unexpected character '+'", (14, 15), None),
    ("RETURN 1 ~ 2", "unexpected character '~'", (9, 10), None),
    ("MATCH (where) RETURN 1", "keyword 'where' cannot be used as a name", (7, 12), None),
    ("RETURN a.Match", "keyword 'Match' cannot be used as a name", (9, 14), None),
    ("RETURN -a", "`-` is only valid before an integer literal", (7, 8), None),
    ("MATCH (a)<-[r]->(b) RETURN a", "a relationship pattern cannot point both ways", (15, 16), None),
    ("MATCH (a {k: 1, k: 2}) RETURN a", "duplicate property key in pattern map", (9, 21), None),
    ("MATCH (a) WITH a.k RETURN 1 AS x", "a WITH item without AS must be a plain name", (15, 18), None),
    ("RETURN xs[1 2]", "unexpected '2' in index", (12, 13), "] or .."),
    ("RETURN 1 AS a RETURN 2", "trailing input 'RETURN'", (14, 20), None),
    ("RETURN " + "(" * 65 + "1" + ")" * 65, "expression nested too deeply (more than 64 levels)",
     (71, 72), None),
    ("MATCH (a RETURN a", "unexpected 'RETURN'", (9, 15), ")"),
    ("MATCH (a)-[*..]->(b) RETURN a", "unexpected ']'", (14, 15), "INT"),
    ("RETURN a IS 1", "unexpected '1'", (12, 13), "NULL"),
    ("RETURN a STARTS x", "unexpected 'x'", (16, 17), "WITH"),
    ("RETURN a AS", "unexpected end of input", (11, 11), "a name"),
    ("RETURN 'x' AS 'y'", "unexpected 'y'", (14, 17), "a name"),
    ("RETURN ", "unexpected end of input", (7, 7), "an expression"),
    ("WHERE a RETURN a", "unexpected 'WHERE'", (0, 5), "MATCH, OPTIONAL MATCH, WITH, UNWIND or RETURN"),
    ("MATCH (a)", "unexpected end of input", (9, 9), "MATCH, OPTIONAL MATCH, WITH, UNWIND or RETURN"),
    # an operator tighter than the one applied before it ends the operand
    ("RETURN a IS NULL = b AS x", "trailing input '='", (17, 18), None),
    ("RETURN (a IS NULL = b) AS x", "unexpected '='", (18, 19), ")"),
    ("RETURN a IS NULL < b IN c AS x", "trailing input '<'", (17, 18), None),
    # NOT is prefix only, and only where a connective's operand starts
    ("RETURN a NOT b AS x", "trailing input 'NOT'", (9, 12), None),
    ("RETURN a = NOT b AS x", "keyword 'NOT' cannot be used as a name", (11, 14), None),
    ("RETURN a IN NOT b AS x", "keyword 'NOT' cannot be used as a name", (12, 15), None),
    # an integer literal longer than int() converts, at each site that reads one
    *(pytest.param(src, "integer literal too long (5000 digits)", (at, at + 5000), None, id=f"huge {site}")
      for site, src, at in [("INT", f"RETURN {HUGE} AS x", 7), ("-INT", f"RETURN -{HUGE} AS x", 8),
                            ("*lo", f"MATCH (a)-[*{HUGE}]->(b) RETURN a", 12),
                            ("*lo..hi", f"MATCH (a)-[*1..{HUGE}]->(b) RETURN a", 15),
                            ("*..hi", f"MATCH (a)-[*..{HUGE}]->(b) RETURN a", 14)]),
]


@pytest.mark.parametrize("src,message,span,expected", PARSE_ERRORS)
def test_parse_error_table(src, message, span, expected):
    with pytest.raises(ParseError) as exc:
        parse_query(src)
    assert (exc.value.message, exc.value.span, exc.value.expected) == (message, span, expected)


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


def test_node_pattern_forms():
    assert parse_pattern("()") == ast.PathPattern((ast.NodePattern(None, frozenset(), ()),))
    p = parse_pattern("(x:A:B {k: 1})")
    (n,) = p.elements
    assert n.name == "x"
    assert n.labels == frozenset({"A", "B"})
    assert n.props == (("k", ast.Lit(1)),)


@pytest.mark.parametrize("src,range_", [
    ("(a)-[]->(b)", None),
    ("(a)-[*]->(b)", (None, None)),
    ("(a)-[*2]->(b)", (2, 2)),
    ("(a)-[*1..3]->(b)", (1, 3)),
    ("(a)-[*..3]->(b)", (None, 3)),
    ("(a)-[*2..]->(b)", (2, None)),
])
def test_rel_range_forms(src, range_):
    p = parse_pattern(src)
    assert p.rel_patterns()[0].range_ == range_


def test_rel_pattern_details():
    p = parse_pattern("(a)<-[r:S|T {w: 2}]-(b)")
    rho = p.rel_patterns()[0]
    assert rho.direction == ast.LEFT
    assert rho.name == "r"
    assert rho.types == frozenset({"S", "T"})
    assert rho.props == (("w", ast.Lit(2)),)


def test_undirected_and_directions():
    assert parse_pattern("(a)-[r]-(b)").rel_patterns()[0].direction == ast.UNDIRECTED
    assert parse_pattern("(a)-[r]->(b)").rel_patterns()[0].direction == ast.RIGHT
    assert parse_pattern("(a)<-[r]-(b)").rel_patterns()[0].direction == ast.LEFT


def test_double_arrow_rejected():
    with pytest.raises(ParseError, match="both ways"):
        parse_pattern("(a)<-[r]->(b)")


def test_duplicate_key_in_pattern_map_rejected():
    # Pattern property maps denote partial functions, so a repeated key has
    # no meaning here (unlike in map literals).
    with pytest.raises(ParseError, match="duplicate"):
        parse_pattern("(x {k: 1, k: 2})")


def test_named_pattern_and_tuple():
    pats = parse_pattern_tuple("p = (a)-[r]->(b), (c)")
    assert len(pats.paths) == 2
    assert pats.paths[0].name == "p"
    assert pats.paths[1].name is None
    assert pats.paths[1].elements[0].name == "c"


def test_anonymous_everything():
    pats = parse_pattern_tuple("()-[]-(), ()")
    assert ast.free_vars(pats) == set()


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def test_minimal_query():
    q = parse_query("RETURN 1 AS one")
    assert q == ast.ClauseQuery((), ast.Return(False, ((ast.Lit(1), "one"),)))


def test_match_where_and_return_star():
    q = parse_query("MATCH (x) WHERE x.k = 1 RETURN *")
    (m,) = q.clauses
    assert isinstance(m, ast.Match)
    assert not m.optional
    assert m.where == ast.Cmp("=", ast.Prop(ast.Name("x"), "k"), ast.Lit(1))
    assert q.ret == ast.Return(True, ())


def test_optional_match():
    q = parse_query("OPTIONAL MATCH (x)-[r]->(y) RETURN x")
    assert q.clauses[0].optional


def test_with_forms():
    q = parse_query("MATCH (x) WITH x UNWIND [1, 2] AS i RETURN x, i")
    w = q.clauses[1]
    assert w == ast.With(False, ((ast.Name("x"), None),), None)
    u = q.clauses[2]
    assert u == ast.Unwind(ast.ListLit((ast.Lit(1), ast.Lit(2))), "i")


def test_with_star_and_where():
    q = parse_query("MATCH (x) WITH *, x.k AS k WHERE k > 1 RETURN *")
    w = q.clauses[1]
    assert w.star
    assert w.items == ((ast.Prop(ast.Name("x"), "k"), "k"),)
    assert w.where is not None


def test_with_requires_bare_name_without_as():
    # RETURN may carry arbitrary unaliased expressions; WITH may not.
    parse_query("MATCH (x) RETURN x.k")
    with pytest.raises(ParseError, match="AS"):
        parse_query("MATCH (x) WITH x.k RETURN 1 AS one")


def test_union_forms():
    q = parse_query("RETURN 1 AS a UNION RETURN 2 AS a")
    assert isinstance(q, ast.UnionQuery)
    assert not q.all
    q = parse_query("RETURN 1 AS a UNION ALL RETURN 2 AS a")
    assert q.all


def test_union_is_left_associative():
    q = parse_query("RETURN 1 AS a UNION RETURN 2 AS a UNION ALL RETURN 3 AS a")
    assert isinstance(q.left, ast.UnionQuery)
    assert q.all


def test_trailing_input_rejected():
    with pytest.raises(ParseError, match="trailing"):
        parse_query("RETURN 1 AS a RETURN 2 AS b")
    with pytest.raises(ParseError):
        parse_expr("1 2")


def test_empty_return_rejected():
    with pytest.raises(ParseError):
        parse_query("MATCH (x) RETURN")


# ---------------------------------------------------------------------------
# Unparsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("src,canonical", [
    ("a  OR   b", "a OR b"),
    ("(a OR b) AND c", "(a OR b) AND c"),
    ("a OR (b AND c)", "a OR b AND c"),
    ("NOT (a OR b)", "NOT (a OR b)"),
    ("(a = b) = c", "(a = b) = c"),
    ("1 < 2 < 3", "1 < 2 AND 2 < 3"),
    ("[1,2][0..1]", "[1, 2][0..1]"),
    ("{b: 1, a: 2}", "{b: 1, a: 2}"),
    ('"dq"', "'dq'"),
    ("a IN (b IN c)", "a IN (b IN c)"),
])
def test_unparse_goldens(src, canonical):
    assert unparse_expr(parse_expr(src)) == canonical


def test_unparse_pattern_goldens():
    for src, out in [
        ("( x :B:A { k : 1 } )", "(x:A:B {k: 1})"),
        ("(a)-[r:T|S*1..2]->(b)", "(a)-[r:S|T*1..2]->(b)"),
        ("(a)<-[*]-(b)", "(a)<-[*]-(b)"),
        ("(a)-[*..3]-(b)", "(a)-[*..3]-(b)"),
        ("p = ()-[]->()", "p = ()-[]->()"),
    ]:
        assert unparse_pattern(parse_pattern(src)) == out


def test_unparse_query_golden():
    src = "MATCH (x:A) WHERE x.k = 1 WITH x.k AS k RETURN k, k > 0"
    q = parse_query(src)
    assert unparse_query(q) == src
    assert parse_query(unparse_query(q)) == q


def test_string_literal_escaping_round_trips():
    for s in ["", "plain", "it's", 'say "hi"', "tab\there", "line\nbreak", "back\\slash"]:
        e = ast.Lit(s)
        assert parse_expr(unparse_expr(e)) == e


def test_exotic_literal_has_no_syntax():
    with pytest.raises(ValueError):
        unparse_expr(ast.Lit((1, 2)))


# the long tail: every generated query must survive a round trip
def test_generated_queries_round_trip():
    for seed in range(400):
        _, q = gen_case(GenConfig(seed=seed))
        text = unparse_query(q)
        assert parse_query(text) == q, text
