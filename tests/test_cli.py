"""Command-line behavior: rendering, exit codes, determinism."""

import itertools
import json
import time
from enum import IntEnum
from pathlib import Path

import pytest

from minicypher import values
from minicypher.cli import _cell_text, main, render_counted_json, render_tsv, value_to_json
from minicypher.engine import output
from minicypher.errors import EvalError
from minicypher.graph import load_graph
from minicypher.oracle import GenConfig, differential_case, gen_case, load_case
from minicypher.parser import parse_query, unparse_query
from minicypher.tables import Table
from minicypher.values import MAX_CELLS, MAX_DEPTH, Map, NodeId, RelId

from test_oracle import reach_graph

FIXTURES = Path(__file__).parent / "fixtures"
CITATION = str(FIXTURES / "citation.json")
TEACHERS = str(FIXTURES / "teachers.json")

AUTHORS = "MATCH (x:Researcher)-[:authors]->(y) RETURN x, y"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def table_from_counted_json(doc: dict) -> Table:
    """Inverse of render_counted_json, for round-trip checks."""
    t = Table(doc["fields"])
    for row in doc["rows"]:
        t.add({f: _value_from_json(row["record"][f]) for f in doc["fields"]}, row["count"])
    return t


def _value_from_json(v):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, list):
        return tuple(_value_from_json(x) for x in v)
    if isinstance(v, dict):
        if "@node" in v:
            return NodeId(v["@node"])
        if "@rel" in v:
            return RelId(v["@rel"])
        if "@path" in v:
            ids = v["@path"]
            return values.Path(tuple(NodeId(i) for i in ids[0::2]),
                               tuple(RelId(i) for i in ids[1::2]))
        if "@map" in v:
            return Map(tuple((k, _value_from_json(x))
                             for k, x in sorted(v["@map"].items())))
    raise ValueError(f"unrecognized encoded value: {v!r}")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_tsv_golden(capsys):
    rc, out, _ = run(capsys, "--graph", CITATION, "--query", AUTHORS)
    assert rc == 0
    assert out == "x\ty\nn1\tn2\nn6\tn5\nn6\tn9\n"


def test_json_golden(capsys):
    rc, out, _ = run(capsys, "--graph", CITATION, "--query", AUTHORS,
                     "--format", "json")
    assert rc == 0
    assert json.loads(out) == {
        "fields": ["x", "y"],
        "rows": [
            [{"@node": "n1"}, {"@node": "n2"}],
            [{"@node": "n6"}, {"@node": "n5"}],
            [{"@node": "n6"}, {"@node": "n9"}],
        ],
    }


def test_a_string_cell_with_a_line_break_keeps_its_row(capsys):
    assert run(capsys, "--query", "RETURN 'a\\nb' AS x") == (0, "x\na\\nb\n", "")
    assert run(capsys, "--query", "UNWIND ['a', 'b'] AS x RETURN x") == (0, "x\na\nb\n", "")
    assert [_cell_text(s) for s in ("a\r\nb", "\\", "\x00", "é b")] == ["a\\r\\nb", "\\\\", "\x00", "é b"]


def test_a_string_cell_with_a_tab_keeps_its_column(capsys):
    rc, out, _ = run(capsys, "--query", "RETURN 'a\\tb' AS x, 1 AS y")
    assert (rc, out) == (0, "x\ty\na\\tb\t1\n")
    assert [len(line.split("\t")) for line in out.splitlines()] == [2, 2]


def test_field_names_escape_as_string_cells(capsys):
    # An unaliased item's name is its unparsed text: a raw CR (the grammar
    # has no escape for it) or a backslash escape appears in the header.
    rc, out, _ = run(capsys, "--query", "RETURN 'a\rb', '\\\\'")
    assert (rc, out) == (0, "'\\\\\\\\'\t'a\\rb'\n\\\\\ta\\rb\n")
    assert out.count("\n") == 2 and "\r" not in out
    assert run(capsys, "--query", "RETURN 'é b', 1 AS z") == (0, "'é b'\tz\né b\t1\n", "")


def test_string_cells_escape_backslashes_and_stay_sorted(capsys):
    # An escaped cell is one line, so rows sort as their cells do.
    rc, out, _ = run(capsys, "--query", "UNWIND ['b', 'a\\nz', 'a\\\\n', 'a'] AS x RETURN x")
    assert (rc, out) == (0, "x\na\na\\\\n\na\\nz\nb\n")
    assert out.splitlines()[1:] == sorted(out.splitlines()[1:])


def test_tsv_expands_multiplicities(capsys):
    q = ("MATCH (x:Teacher)-[:KNOWS*1..2]->()-[:KNOWS*1..2]->(y:Teacher) "
         "RETURN x, y")
    rc, out, _ = run(capsys, "--graph", TEACHERS, "--query", q)
    assert rc == 0
    assert out == "x\ty\nn1\tn3\nn1\tn4\nn1\tn4\n"


def test_counted_json_round_trips(capsys):
    q = ("MATCH p = (x)-[:KNOWS*2]->(y) "
         "RETURN p, {a: [1, true], b: null} AS m, x.name")
    rc, out, _ = run(capsys, "--graph", TEACHERS, "--query", q,
                     "--format", "counted-json")
    assert rc == 0
    with open(TEACHERS) as fh:
        g = load_graph(json.load(fh))
    assert table_from_counted_json(json.loads(out)) == output(parse_query(q), g)


def test_path_cells_escape_ids_as_json(capsys, tmp_path):
    # a quote and a non-ASCII letter in node and relationship ids (an id
    # holds no backslash: load_graph rejects one)
    doc = {"nodes": [{"id": 'a"b'}, {"id": "cd"}, {"id": "é"}],
           "relationships": [{"id": 'r"1', "type": "T", "src": 'a"b', "tgt": "cd"},
                             {"id": "ü", "type": "T", "src": "cd", "tgt": "é"}]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, out, _ = run(capsys, "--graph", str(path), "--query", "MATCH p = (a)-[*2]->(b) RETURN p")
    assert rc == 0
    cell = '{"@path":["a\\"b","r\\"1","cd","\\u00fc","\\u00e9"]}'
    assert out == f"p\n{cell}\n"
    g = load_graph(doc)
    p = next(output(parse_query("MATCH p = (a)-[*2]->(b) RETURN p"), g).records())["p"]
    assert cell == json.dumps(value_to_json(p), sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("keys", [("a", "r", "b"), ("", "r", ""), ('","', "r", "b"), ("x\x7f", "r", "y"),
                                  ("\x01", "r", "\u00e9"), ("a,b", "r]", "{c}"), ("a b", "r~", " ")])
def test_a_path_cell_is_the_json_encoding_of_its_ids(keys):
    # a key of printable ASCII with no quote takes the quick way; any other
    # makes the whole path go through the JSON string encoder
    p = values.Path((NodeId(keys[0]), NodeId(keys[2])), (RelId(keys[1]),))
    assert _cell_text(p) == json.dumps(value_to_json(p), sort_keys=True, separators=(",", ":"))


def test_default_graph_is_empty(capsys):
    rc, out, _ = run(capsys, "--query", "RETURN 1 AS one")
    assert rc == 0
    assert out == "one\n1\n"
    rc, out, _ = run(capsys, "--query", "MATCH (x) RETURN x")
    assert rc == 0
    assert out == "x\n"


def test_output_is_byte_stable(capsys):
    q = "MATCH (x)-[:cites]-(y) RETURN x, y"
    runs = set()
    for fmt in ("tsv", "json", "counted-json"):
        a = run(capsys, "--graph", CITATION, "--query", q, "--format", fmt)
        b = run(capsys, "--graph", CITATION, "--query", q, "--format", fmt)
        assert a == b
        runs.add(a[1])
    assert len(runs) == 3  # each format rendered something distinct


# ---------------------------------------------------------------------------
# Exit codes and diagnostics
# ---------------------------------------------------------------------------


def test_parse_error_exits_1_with_caret(capsys):
    rc, out, err = run(capsys, "--query", "MATCH (x RETURN x")
    assert rc == 1
    assert out == ""
    assert "parse error" in err
    assert "^" in err


@pytest.mark.parametrize("query,offset", [
    ("RETURN ²", 7),
    ("MATCH (a)-[*1..²]->(b) RETURN a", 15),
])
def test_unicode_digit_exits_1_with_caret(capsys, query, offset):
    # str.isdigit() holds for a superscript two, but int() rejects it: it
    # must be a parse error at the character, not an internal error
    rc, out, err = run(capsys, "--query", query)
    assert (rc, out) == (1, "")
    first, text, caret = err.splitlines()[:3]
    assert first == f"parse error: unexpected character '²' at offset {offset}"
    assert caret.index("^") - text.index(query) == offset


def test_huge_integer_literal_exits_1_with_caret(capsys):
    # int() refuses more than 4300 digits: a parse error at the literal, not an internal error
    query = "RETURN " + "7" * 5000 + " AS x"
    rc, out, err = run(capsys, "--query", query)
    assert (rc, out) == (1, "")
    first, text, caret = err.splitlines()[:3]
    assert first == "parse error: integer literal too long (5000 digits) at offset 7"
    assert caret.strip() == "^" * 5000
    assert caret.index("^") - text.index(query) == 7


@pytest.mark.parametrize("flags", [[], ["--oracle"], ["--format", "json"]])
def test_integer_past_the_digit_bound_exits_2_with_caret(capsys, flags):
    # 10 squared 12 times has 4097 digits and renders; squared once more it
    # would have 8193, past values.MAX_DIGITS: TooLarge at the call
    def squared(times):
        return " ".join(["WITH 10 AS x", *["WITH mult(x, x) AS x"] * times, "RETURN x"])

    rc, out, err = run(capsys, "--query", squared(12), *flags)
    assert (rc, err) == (0, "")
    assert str(10 ** 4096) in out
    query = squared(13)
    rc, out, err = run(capsys, "--query", query, *flags)
    assert (rc, out) == (2, "")
    first, text, caret = err.splitlines()
    start = query.rindex("mult(x, x)")
    assert first == f"evaluation error: TooLarge: mult() result has more than {values.MAX_DIGITS} digits at offset {start}"
    assert caret.index("^") - text.index(query) == start
    assert caret.count("^") == len("mult(x, x)")


def test_eval_error_exits_2(capsys):
    rc, _, err = run(capsys, "--query", "RETURN 1 < 'a'")
    assert rc == 2
    assert "evaluation error" in err
    assert "^" in err


@pytest.mark.parametrize("query,message,width", [
    ("RETURN (1) < 'a' AS x", "no order between int and str", len("(1) < 'a'")),
    ("RETURN ('a') STARTS WITH 1 AS x", "STARTS WITH expects strings, got int",
     len("('a') STARTS WITH 1")),
])
def test_caret_starts_at_a_parenthesized_operand(capsys, query, message, width):
    rc, out, err = run(capsys, "--query", query)
    assert (rc, out) == (2, "")
    first, text, caret = err.splitlines()[:3]
    assert first == f"evaluation error: TypeMismatch: {message} at offset 7"
    assert caret.index("^") - text.index(query) == 7
    assert caret.count("^") == width


def test_alias_clash_exits_2(capsys):
    rc, _, err = run(capsys, "--query", "RETURN 1 AS a, 2 AS a")
    assert rc == 2
    assert "evaluation error" in err


@pytest.mark.parametrize("query,first,start,width", [
    # the later item's expression
    ("RETURN 1 AS a, 2 AS a", "AliasClash: duplicate output name(s): ['a']", 15, 1),
    ("WITH 1 AS a WITH *, 2 AS a RETURN a", "AliasClash: duplicate output name(s): ['a']", 20, 1),
    # the UNWIND clause
    ("MATCH (a) UNWIND [1] AS a RETURN a", "NameClash: UNWIND alias `a` is already a field",
     10, len("UNWIND [1] AS a")),
    # the right-hand branch of the UNION
    ("RETURN 1 AS x UNION RETURN 1 AS y", "FieldMismatch: field sets differ: ['x'] vs ['y']",
     20, len("RETURN 1 AS y")),
])
def test_clash_errors_exit_2_with_caret(capsys, query, first, start, width):
    rc, out, err = run(capsys, "--query", query)
    assert (rc, out) == (2, "")
    line, text, caret = err.splitlines()
    assert line == f"evaluation error: {first}"
    assert caret.index("^") - text.index(query) == start
    assert caret.count("^") == width


def _graph_file(tmp_path, nodes=0, rels=0):
    """A graph of ``nodes`` nodes n1, n2, … named Ann, with ``rels``
    relationships n1 -> n2 of weight 1."""
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({
        "nodes": [{"id": f"n{i}", "labels": [], "properties": {"name": "Ann"}} for i in range(1, nodes + 1)],
        "relationships": [{"id": f"r{i}", "type": "t", "src": "n1", "tgt": "n2", "properties": {"w": 1}}
                          for i in range(1, rels + 1)],
    }))
    return str(path)


def _assert_caret_on(err, query, culprit):
    line, text, caret = err.splitlines()
    start = query.index(culprit)
    assert line.endswith(f" at offset {start}")
    assert caret.index("^") - text.index(query) == start
    assert caret.count("^") == len(culprit)


# (match, whether the pattern needs a relationship): see tests/test_engine.py
@pytest.mark.parametrize("match,needs_rel", [
    ("MATCH (a) WHERE zz = 1", False),
    ("MATCH (a {k: zz})", False),
    ("MATCH (a)-[r {w: zz}]->(b)", True),
    ("MATCH (a)-[*1..2 {w: zz}]->(b)", True),
])
@pytest.mark.parametrize("optional", [False, True], ids=["match", "optional"])
def test_a_check_reading_an_unbound_name_exits_2_at_a_completion(capsys, tmp_path, match, needs_rel, optional):
    query = ("OPTIONAL " if optional else "") + match + " RETURN a"
    for nodes, rels in [(0, 0), (1, 0), (2, 1)]:
        rc, out, err = run(capsys, "--graph", _graph_file(tmp_path, nodes, rels), "--query", query)
        if rels or (nodes and not needs_rel):
            assert (rc, out) == (2, "")
            assert err.startswith("evaluation error: UnknownName: name `zz` is not bound")
            _assert_caret_on(err, query, "zz")
        else:
            assert (rc, out, err) == (0, "a\nnull\n" if optional else "a\n", "")


@pytest.mark.parametrize("query", [
    "MATCH (a {name: toUpper(1)}) RETURN a",  # the anchor's own first check
    "MATCH (a) WHERE a.name = toUpper(1) RETURN a",  # a WHERE seek
])
def test_a_seek_whose_key_raises_falls_back_to_the_scan(capsys, tmp_path, query):
    # The scan runs the check on each node, so it raises where a node exists.
    rc, out, err = run(capsys, "--graph", _graph_file(tmp_path, 1), "--query", query)
    assert (rc, out) == (2, "")
    assert err.startswith("evaluation error: TypeMismatch: toUpper() expects a string")
    _assert_caret_on(err, query, "toUpper(1)")
    rc, out, err = run(capsys, "--graph", _graph_file(tmp_path), "--query", query)
    assert (rc, out, err) == (0, "a\n", "")


def test_recursion_exhaustion_exits_70_without_traceback(capsys, monkeypatch):
    # exhausting Python's recursion limit (like any exception that is not a
    # CypherError) is an internal error, not a parse error, and must not
    # dump a traceback
    def exhausted(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("minicypher.cli.output", exhausted)
    rc, out, err = run(capsys, "--query", "RETURN 1 AS x")
    assert rc == 70
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("internal error: RecursionError: ")
    assert "Traceback" not in err


def _doubling(n):  # x is a list of 2 ** (n + 1) - 2 cells, sharing its halves
    return "WITH 1 AS x " + "WITH [x, x] AS x " * n + "RETURN 1 AS y"


@pytest.mark.parametrize("flags", [[], ["--oracle"]])
def test_a_shared_value_past_the_cell_bound_exits_2_quickly(capsys, flags):
    largest = max(n for n in range(30) if 2 ** (n + 1) - 2 <= MAX_CELLS)
    assert run(capsys, "--query", _doubling(largest), *flags) == (0, "y\n1\n", "")
    start = time.perf_counter()
    rc, out, err = run(capsys, "--query", _doubling(22), *flags)
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (2, "")
    assert err.startswith(f"evaluation error: TooLarge: value has more than {MAX_CELLS} cells at offset ")
    first_too_large = len(_doubling(largest)) - len("RETURN 1 AS y") + len("WITH ")
    assert err.splitlines()[0].endswith(f" at offset {first_too_large}")


def test_long_connective_chain_evaluates(capsys):
    # left-deep chains are evaluated and unparsed without recursion, the
    # unaliased item included (its column is named by the unparser)
    for alias in (" AS x", ""):
        q = "RETURN " + " AND ".join(["true"] * 1500) + alias
        rc, out, err = run(capsys, "--query", q)
        assert rc == 0, err
        assert out.split("\n")[1:] == ["true", ""]


def test_long_property_chain_evaluates(capsys):
    chain = ".k" * 1500
    rc, out, err = run(capsys, "--query", f"WITH {{k: null}} AS m RETURN m{chain} AS x")
    assert (rc, out, err) == (0, "x\nnull\n", "")
    # m.k is 1, and the second step reads a property of an integer
    rc, out, err = run(capsys, "--query", f"WITH {{k: 1}} AS m RETURN m{chain} AS x")
    assert rc == 2
    assert "cannot read property `k` of a int at offset 24" in err


def test_long_union_chain_runs(capsys):
    q = " UNION ".join(["RETURN 1 AS x"] * 1500)
    rc, out, err = run(capsys, "--query", q)
    assert (rc, out, err) == (0, "x\n1\n", "")


def test_long_union_chain_runs_under_the_oracle(capsys):
    q = " UNION ".join(["RETURN 1 AS x"] * 1500)
    rc, out, err = run(capsys, "--query", q, "--oracle")
    assert (rc, out, err) == (0, "x\n1\n", "")


def test_deep_nesting_exits_1_with_caret(capsys):
    q = "RETURN " + "(" * 120 + "1" + ")" * 120 + " AS x"
    rc, out, err = run(capsys, "--query", q)
    assert rc == 1
    assert out == ""
    assert "parse error: expression nested too deeply" in err
    assert "^" in err
    assert "Traceback" not in err


def test_missing_graph_file_exits_3(capsys, tmp_path):
    rc, _, err = run(capsys, "--graph", str(tmp_path / "nope.json"),
                     "--query", "RETURN 1 AS one")
    assert rc == 3
    assert "graph error" in err


def _deep_graph(path, depth, kind):
    v = 1
    for _ in range(depth):
        v = [v] if kind == "list" else {"k": v}
    path.write_text(json.dumps({"nodes": [{"id": "n1", "properties": {"p": v}}], "relationships": []}))
    return str(path)


@pytest.mark.parametrize("kind", ["list", "map"])
def test_graph_value_depth_bound(capsys, tmp_path, kind):
    q = "MATCH (n) RETURN n.p = n.p AS same, n.p AS p"
    deepest = _deep_graph(tmp_path / "deepest.json", MAX_DEPTH, kind)
    cell = ("[" * MAX_DEPTH + "1" + "]" * MAX_DEPTH if kind == "list"
            else '{"@map":{"k":' * MAX_DEPTH + "1" + "}}" * MAX_DEPTH)
    rc, out, err = run(capsys, "--graph", deepest, "--query", q, "--oracle")
    assert (rc, out, err) == (0, f"p\tsame\n{cell}\ttrue\n", "")
    rc, out, err = run(capsys, "--graph", deepest, "--query", q, "--oracle", "--format", "counted-json")
    assert (rc, err) == (0, "")
    g = load_graph(json.loads(Path(deepest).read_text()))
    assert table_from_counted_json(json.loads(out)) == output(parse_query(q), g)
    too_deep = _deep_graph(tmp_path / "too_deep.json", MAX_DEPTH + 1, kind)
    rc, out, err = run(capsys, "--graph", too_deep, "--query", q, "--oracle")
    assert (rc, out) == (3, "")
    assert err == f"graph error: nodes[0].properties.p: value nests deeper than {MAX_DEPTH} levels\n"


@pytest.mark.parametrize("props, where", [
    ({1: 2, "x": 3}, "nodes[0].properties.1: key 1 is not a string"),
    ({"m": {1: 2}}, "nodes[0].properties.m: map key 1 is not a string"),
])
def test_a_non_string_property_key_is_a_graph_error(capsys, monkeypatch, props, where):
    # JSON text cannot hold such a key, but a document built in Python can.
    document = {"nodes": [{"id": "n1", "properties": props}], "relationships": []}
    monkeypatch.setattr("minicypher.cli.json.load", lambda fh: document)
    rc, out, err = run(capsys, "--graph", TEACHERS, "--query", "MATCH (a) RETURN a.m")
    assert (rc, out, err) == (3, "", f"graph error: {where}\n")


def _deep_query(depth, kind):
    step = "WITH [x] AS x" if kind == "list" else "WITH {k: x} AS x"
    return " ".join(["WITH 1 AS x", *[step] * depth, "RETURN x"])


@pytest.mark.parametrize("kind", ["list", "map"])
def test_query_value_depth_bound(capsys, kind):
    empty = load_graph({"nodes": [], "relationships": []})
    deepest, too_deep = _deep_query(MAX_DEPTH, kind), _deep_query(MAX_DEPTH + 1, kind)
    cell = ("[" * MAX_DEPTH + "1" + "]" * MAX_DEPTH if kind == "list"
            else '{"@map":{"k":' * MAX_DEPTH + "1" + "}}" * MAX_DEPTH)
    assert render_tsv(output(parse_query(deepest), empty)) == f"x\n{cell}\n"
    with pytest.raises(EvalError) as info:
        output(parse_query(too_deep), empty)
    start = too_deep.rindex("[x]" if kind == "list" else "{k: x}")
    assert (info.value.kind, info.value.span) == ("TooDeep", (start, start + (3 if kind == "list" else 6)))
    assert str(info.value) == f"TooDeep: value nests deeper than {MAX_DEPTH} levels at offset {start}"
    assert differential_case(empty, parse_query(too_deep)) == (True, {
        "query": too_deep, "engine": "error:TooDeep", "oracle": "error:TooDeep"})
    for flags in ([], ["--oracle"]):
        rc, out, err = run(capsys, "--query", deepest, *flags)
        assert (rc, out, err) == (0, f"x\n{cell}\n", "")
        rc, out, err = run(capsys, "--query", too_deep, *flags)
        assert (rc, out) == (2, "")
        assert err.startswith(f"evaluation error: TooDeep: value nests deeper than {MAX_DEPTH} levels")


def test_graph_too_deep_to_parse_exits_3(capsys, tmp_path):
    path = tmp_path / "deep.json"
    depth = 100000
    path.write_text('{"nodes": [{"id": "n1", "properties": {"p": ' + "[" * depth + "]" * depth
                    + '}}], "relationships": []}')
    rc, out, err = run(capsys, "--graph", str(path), "--query", "RETURN 1 AS one", "--oracle")
    assert (rc, out, err) == (3, "", "graph error: graph file nests too deeply to parse\n")


def test_malformed_graph_json_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "--graph", str(bad), "--query", "RETURN 1 AS one")
    assert rc == 3
    assert "not valid JSON" in err


@pytest.mark.parametrize("raw", [
    b'{"nodes": [{"id": "n1", "properties": {"p": ' + b"7" * 5000 + b'}}], "relationships": []}',
    b'\xff{"nodes": [], "relationships": []}',  # not UTF-8
])
def test_unreadable_graph_json_exits_3(capsys, tmp_path, raw):
    path = tmp_path / "graph.json"
    path.write_bytes(raw)
    rc, out, err = run(capsys, "--graph", str(path), "--query", "RETURN 1 AS one")
    assert (rc, out) == (3, "")
    assert err.startswith("graph error: graph file is not valid JSON: ")


def test_dangling_endpoint_exits_3(capsys, tmp_path):
    doc = {
        "nodes": [{"id": "n1", "labels": [], "properties": {}}],
        "relationships": [
            {"id": "r1", "type": "t", "src": "n1", "tgt": "ghost",
             "properties": {}},
        ],
    }
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "--graph", str(path), "--query", "RETURN 1 AS one")
    assert rc == 3
    assert "graph error" in err


def _run_with_id(capsys, tmp_path, element, bad_id):
    """Run a query on a graph whose one node or relationship has id bad_id."""
    doc = {
        "nodes": [{"id": "n1", "labels": [], "properties": {}}],
        "relationships": [{"id": "r1", "type": "t", "src": "n1", "tgt": "n1", "properties": {}}],
    }
    doc["nodes" if element == "node" else "relationships"][0]["id"] = bad_id
    if element == "node":
        doc["relationships"] = []
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    return run(capsys, "--graph", str(path), "--query", "MATCH (x) RETURN x")


@pytest.mark.parametrize("element", ["node", "relationship"])
@pytest.mark.parametrize("bad_id", ["n\t2", "n2\n", "\rn2"])
def test_an_id_holding_a_tab_or_line_break_exits_3(capsys, tmp_path, element, bad_id):
    rc, out, err = _run_with_id(capsys, tmp_path, element, bad_id)
    assert (rc, out) == (3, "")
    assert err == f"graph error: {element}s[0]: id {bad_id!r} holds a tab, LF or CR\n"


@pytest.mark.parametrize("element", ["node", "relationship"])
@pytest.mark.parametrize("bad_id", ["n\\2", "\\", "n\\t2"])
def test_an_id_holding_a_backslash_exits_3(capsys, tmp_path, element, bad_id):
    # an id cell is written unescaped, so an id `n\t2` would print as the string 'n\t2'
    rc, out, err = _run_with_id(capsys, tmp_path, element, bad_id)
    assert (rc, out) == (3, "")
    assert err == f"graph error: {element}s[0]: id {bad_id!r} holds a backslash\n"


@pytest.mark.parametrize("element", ["node", "relationship"])
@pytest.mark.parametrize("properties", [[], 5])
def test_properties_not_an_object_exits_3(capsys, tmp_path, element, properties):
    doc = {
        "nodes": [{"id": "n1", "labels": [], "properties": {}}],
        "relationships": [{"id": "r1", "type": "t", "src": "n1", "tgt": "n1", "properties": {}}],
    }
    doc["nodes" if element == "node" else "relationships"][0]["properties"] = properties
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "--graph", str(path), "--query", "RETURN 1 AS one")
    assert (rc, out) == (3, "")
    assert err.startswith("graph error: ")
    assert err.endswith("`properties` must be an object\n")


def test_no_query_is_a_usage_error(capsys):
    rc, _, _ = run(capsys, "--graph", CITATION)
    assert rc == 64


def test_query_and_query_file_conflict(capsys, tmp_path):
    f = tmp_path / "q.cypher"
    f.write_text("RETURN 1 AS one")
    rc, _, _ = run(capsys, "--query", "RETURN 1 AS one", "--query-file", str(f))
    assert rc == 64


def test_unreadable_query_file(capsys, tmp_path):
    rc, _, err = run(capsys, "--query-file", str(tmp_path / "absent.cypher"))
    assert rc == 64
    assert "cannot read query file" in err


def test_query_file_not_in_utf8_is_a_usage_error(capsys, tmp_path):
    f = tmp_path / "q.cypher"
    f.write_bytes(b"RETURN 1 AS \xff")
    rc, out, err = run(capsys, "--query-file", str(f))
    assert (rc, out) == (64, "")
    assert err.startswith("cannot read query file: ") and "internal error" not in err


def test_query_file_runs(capsys, tmp_path):
    f = tmp_path / "q.cypher"
    f.write_text(AUTHORS)
    rc, out, _ = run(capsys, "--graph", CITATION, "--query-file", str(f))
    assert rc == 0
    assert out.splitlines()[0] == "x\ty"


@pytest.mark.parametrize("brk,cell", [("\r", "a\\rb"), ("\r\n", "a\\r\\nb")], ids=["cr", "crlf"])
def test_query_file_keeps_line_breaks_in_a_literal(capsys, tmp_path, brk, cell):
    query = f"RETURN 'a{brk}b' AS x"
    f = tmp_path / "q.cypher"
    f.write_bytes(query.encode("utf-8"))
    from_file = run(capsys, "--query-file", str(f))
    assert from_file == run(capsys, "--query", query) == (0, f"x\n{cell}\n", "")


def test_help_exits_0(capsys):
    rc, out, _ = run(capsys, "--help")
    assert rc == 0
    assert "--query" in out


# ---------------------------------------------------------------------------
# Oracle mode and the gen subcommand
# ---------------------------------------------------------------------------


def test_oracle_flag_checks_and_passes(capsys):
    plain = run(capsys, "--graph", CITATION, "--query", AUTHORS)
    checked = run(capsys, "--graph", CITATION, "--query", AUTHORS, "--oracle")
    assert checked[0] == 0
    assert checked[1] == plain[1]


def test_oracle_flag_reaches_a_graph_of_forty_relationships(capsys, tmp_path):
    # The graph has millions of trails; the oracle lists those of at most 2 hops.
    doc = reach_graph()
    path = tmp_path / "reach.json"
    path.write_text(json.dumps(doc))
    q = "MATCH (a)-[:X]->(b)-[:X]->(c) RETURN a, c"
    rc, out, err = run(capsys, "--graph", str(path), "--query", q, "--oracle")
    assert (rc, err) == (0, "")
    assert out == render_tsv(output(parse_query(q), load_graph(doc)))
    assert len(doc["relationships"]) == 40 and out.count("\n") > 10


def _planted_error(q, g):
    raise EvalError("TypeMismatch", "planted")


def test_oracle_flag_reports_engine_error_the_reference_lacks(capsys, monkeypatch):
    monkeypatch.setattr("minicypher.cli.output", _planted_error)
    rc, out, err = run(capsys, "--graph", CITATION, "--query", AUTHORS, "--oracle")
    assert (rc, out) == (4, "")
    assert err == ("oracle disagreement: the reference produced a table but the "
                   "engine raised EvalError: TypeMismatch: planted\n")


def test_oracle_flag_reports_reference_error_the_engine_lacks(capsys, monkeypatch):
    monkeypatch.setattr("minicypher.cli.oracle_output", _planted_error)
    rc, out, err = run(capsys, "--graph", CITATION, "--query", AUTHORS, "--oracle")
    assert (rc, out) == (4, "")
    assert err == ("oracle disagreement: engine produced a table but the "
                   "reference raised EvalError: TypeMismatch: planted\n")


def test_oracle_flag_keeps_exit_2_when_both_sides_raise(capsys):
    plain = run(capsys, "--query", "RETURN 1 < 'a'")
    rc, out, err = run(capsys, "--query", "RETURN 1 < 'a'", "--oracle")
    assert (rc, out, err) == plain
    assert rc == 2
    assert err.startswith("evaluation error: TypeMismatch: ")


def _table(*rows):
    t = Table(["x"])
    for x, count in rows:
        t.add_new({"x": x}, count)
    return t


def _disagreement(engine, reference):
    return ("oracle disagreement:\n--- engine ---\n" + render_counted_json(engine)
            + "--- reference ---\n" + render_counted_json(reference))


def test_oracle_flag_dumps_both_tables_when_they_differ(capsys, monkeypatch):
    reference = _table((1, 1), (2, 1))
    monkeypatch.setattr("minicypher.cli.oracle_output", lambda q, g: reference)
    rc, out, err = run(capsys, "--query", "UNWIND [1, 2, 2] AS x RETURN x", "--oracle")
    assert (rc, out) == (4, "")
    assert err == _disagreement(_table((1, 1), (2, 2)), reference)
    assert '"count": 2' in err


def test_oracle_flag_rejects_an_engine_table_listing_a_record_twice(capsys, monkeypatch):
    # Equal counts once merged, but the engine's table is not a bag.
    twice = _table((1, 1), (1, 1))
    monkeypatch.setattr("minicypher.cli.output", lambda q, g: twice)
    rc, out, err = run(capsys, "--query", "UNWIND [1, 1] AS x RETURN x", "--oracle")
    assert (rc, out) == (4, "")
    assert err == _disagreement(twice, _table((1, 2)))
    assert run(capsys, "--query", "UNWIND [1, 1] AS x RETURN x")[:2] == (0, "x\n1\n1\n")


def test_gen_subcommand_agrees(capsys, tmp_path):
    rc, out, err = run(capsys, "gen", "--cases", "50", "--seed", "0",
                       "--out", str(tmp_path / "failures"))
    assert rc == 0
    assert out == "cases: 50  disagreements: 0\n"
    assert err == ""
    assert not (tmp_path / "failures").exists()


def test_gen_writes_each_disagreement_as_a_replayable_case(capsys, tmp_path, monkeypatch):
    seeds = itertools.count(5)  # the seed of each case checked, in turn

    def planted(g, q):  # disagrees on seeds 6 and 8
        agree, detail = differential_case(g, q)
        return agree and next(seeds) not in (6, 8), detail

    monkeypatch.setattr("minicypher.cli.differential_case", planted)
    failures = tmp_path / "failures"
    rc, out, err = run(capsys, "gen", "--cases", "5", "--seed", "5", "--out", str(failures))
    assert (rc, out) == (4, "cases: 5  disagreements: 2\n")
    assert sorted(p.name for p in failures.iterdir()) == ["case-6.json", "case-8.json"]
    for seed in (6, 8):
        doc = json.loads((failures / f"case-{seed}.json").read_text())
        g, q = gen_case(GenConfig(seed=seed))
        replayed_g, replayed_q = load_case(doc)
        assert doc["seed"] == seed
        assert unparse_query(replayed_q) == unparse_query(q) == doc["query"]
        assert replayed_g.to_document() == g.to_document() == doc["graph"]
        assert f"disagreement at seed {seed}: {doc['query']}\n" in err
    assert "stopping early" not in err


def test_gen_reports_a_disagreement_it_cannot_write(capsys, tmp_path, monkeypatch):
    # --out names a file, so no case can be written there: the disagreement
    # is still reported, then one line says why the run stopped (exit 64).
    monkeypatch.setattr("minicypher.cli.differential_case", lambda g, q: (False, differential_case(g, q)[1]))
    taken = tmp_path / "taken"
    taken.write_text("")
    rc, out, err = run(capsys, "gen", "--cases", "3", "--seed", "4", "--out", str(taken))
    query = unparse_query(gen_case(GenConfig(seed=4))[1])
    assert (rc, out) == (64, "")
    first, second = err.splitlines()
    assert first == f"disagreement at seed 4: {query}"
    assert second.startswith("cannot write case: ") and str(taken) in second
    assert taken.read_text() == ""


def test_gen_stops_after_max_failures_and_counts_the_cases_run(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("minicypher.cli.differential_case", lambda g, q: (False, differential_case(g, q)[1]))
    rc, out, err = run(capsys, "gen", "--cases", "5", "--seed", "0", "--max-failures", "2",
                       "--out", str(tmp_path))
    assert (rc, out) == (4, "cases: 2  disagreements: 2\n")
    assert err.endswith("too many disagreements; stopping early\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["case-0.json", "case-1.json"]


def test_gen_rejects_bad_flags(capsys):
    for flag, value in [("--cases", "many"), ("--cases", "1.5"), ("--cases", "-3"), ("--max-failures", "-1")]:
        rc, out, err = run(capsys, "gen", flag, value)
        assert (rc, out) == (64, "")
        assert f"argument {flag}: expected a non-negative integer, got '{value}'" in err


class _One(IntEnum):
    ONE = 1


class _Name(str):
    def __str__(self):
        return "not the text"


def test_tsv_cells_render_by_exact_type_as_by_kind():
    p = values.Path((NodeId("n1"), NodeId("n\u00e9\t2")), (RelId('r"1'),))
    text = '{"@path":["n1","r\\"1","n\\u00e9\\t2"]}'
    cells = [(None, "null"), (True, "true"), (False, "false"), (0, "0"), (-7, "-7"), (10**30, "1" + "0" * 30),
             (_One.ONE, "1"), ("", ""), ("a b", "a b"), (_Name("v"), "v"), (NodeId("n1"), "n1"),
             (RelId("r1"), "r1"), (p, text), (values.Path((NodeId("n1"),)), '{"@path":["n1"]}'),
             ((1, True, None), "[1,true,null]"), (Map((("k", p),)), '{"@map":{"k":' + text + "}}")]
    assert [_cell_text(v) for v, _ in cells] == [want for _, want in cells]
    assert type(_cell_text(_Name("v"))) is str
    t = Table([f"c{i:02}" for i in range(len(cells))])
    t.add_new(dict(zip(t.fields, [v for v, _ in cells])), 2)
    row = "\t".join(want for _, want in cells)
    assert render_tsv(t) == "\t".join(t.fields) + f"\n{row}\n{row}\n"
