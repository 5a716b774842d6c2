"""Parser, tokenizer, and canonical-unparse tests.

The central contract is the round trip: for every AST the parser can
produce, ``parse(unparse(ast)) == ast``.  Golden strings pin the intended
precedence; the generator-driven round trip covers the long tail.
"""

import pytest

from minicypher import ast
from minicypher.errors import ParseError
from minicypher.oracle import GenConfig, gen_case
from minicypher.parser import (
    parse_expr,
    parse_pattern,
    parse_pattern_tuple,
    parse_query,
    tokenize,
    unparse_expr,
    unparse_pattern,
    unparse_query,
)


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
