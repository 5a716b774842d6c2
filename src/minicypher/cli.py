"""Command-line front end.

Two modes:

``minicypher --graph g.json --query 'MATCH (x) RETURN x'``
    Run one query against a graph document and print the result table.

``minicypher gen --cases 1000 --seed 7``
    Generate random cases, run engine and reference implementation on each,
    and report disagreements (serializing them for replay).

Exit codes: 0 success, 1 parse error, 2 evaluation error, 3 graph load
error, 4 oracle disagreement, 64 usage error, 70 internal error (any other
exception, reported on one line without a traceback).  Output is
deterministic: columns are in lexicographic order, rows are sorted by their
rendered encoding, and JSON is emitted with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Optional, Sequence

from .errors import CypherError, EvalError, GraphLoadError, ParseError
from .engine import output
from .gen import GenConfig
from .graph import PropertyGraph, load_graph
from .oracle import (
    agree,
    case_document,
    differential_case,
    gen_case,
    oracle_output,
    outcome,
    save_failure,
)
from .parser import parse_query
from .tables import Table
from .values import KINDS, Path, Value, kind

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_EVAL = 2
EXIT_GRAPH = 3
EXIT_DISAGREE = 4
EXIT_USAGE = 64
EXIT_INTERNAL = 70  # EX_SOFTWARE


# ---------------------------------------------------------------------------
# Value and table rendering
# ---------------------------------------------------------------------------


def _render_kind(v: Value) -> str:
    try:
        return kind(v)
    except TypeError:
        raise TypeError(f"unrenderable value: {v!r}") from None


def value_to_json(v: Value):
    """Tagged JSON encoding; injective, so sorting rendered rows is stable."""
    k = _render_kind(v)
    if k in ("null", "bool", "int", "str"):
        return v
    if k in ("node", "rel"):
        return {"@" + k: v.key}
    if k == "path":
        return {"@path": _path_ids(v)}
    if k == "list":
        return [value_to_json(x) for x in v]
    return {"@map": {key: value_to_json(x) for key, x in sorted(v.entries)}}


def _path_ids(p: Path) -> list[str]:  # the node and relationship keys, alternating
    ids = [None] * (2 * len(p.nodes) - 1)
    ids[0::2], ids[1::2] = [n.key for n in p.nodes], [r.key for r in p.rels]
    return ids


def _path_text(p: Path) -> str:
    ids = _path_ids(p)
    text = '","'.join(ids)
    # Keys of printable ASCII with no quote or backslash are their own JSON
    # string bodies: the joined text shows a quote only between two keys.
    if text.isascii() and text.isprintable() and "\\" not in text and text.count('"') == 2 * len(ids) - 2:
        return '{"@path":["' + text + '"]}'
    return '{"@path":[' + ",".join(map(encode_basestring_ascii, ids)) + "]}"


_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))  # one for every cell


_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})


def _str_text(s: str) -> str:
    """A string cell, escaped as Linear TSV escapes it, so that no cell
    splits its row; a printable string without a backslash is itself."""
    if s.isprintable() and "\\" not in s:
        return str.__str__(s)
    return s.translate(_TSV_ESCAPES)


# The text of a TSV cell of each kind.  Composites are canonical compact
# JSON of the tagged encoding, which a path's text writes out directly.
# An id holds no tab, LF, CR or backslash (load_graph rejects one), so it is
# its text, and no id cell reads as a string cell of another value.
_CELL_TEXT = {
    "null": lambda v: "null", "bool": lambda v: "true" if v else "false", "int": str,
    "str": _str_text, "node": attrgetter("key"), "rel": attrgetter("key"),
    "path": _path_text,
}
_CELL_TEXT["list"] = _CELL_TEXT["map"] = lambda v: _COMPACT.encode(value_to_json(v))
_CELL_TEXT_OF_TYPE = {t: _CELL_TEXT[k] for t, k in KINDS}  # exact types; others go through kind()


def _cell_text(v: Value) -> str:
    return _CELL_TEXT[_render_kind(v)](v)


def render_tsv(t: Table) -> str:
    lines = ["\t".join(map(_str_text, t.fields))]  # a field name escapes as a string cell
    body = []
    for u, count in t.tuples():
        row = "\t".join([_CELL_TEXT_OF_TYPE.get(type(v), _cell_text)(v) for v in u])
        if count == 1:
            body.append(row)
        else:
            body.extend([row] * count)
    lines.extend(sorted(body))
    return "\n".join(lines) + "\n"


def render_json(t: Table) -> str:
    rows = []
    for u, count in t.tuples():
        encoded = [value_to_json(v) for v in u]
        rows.extend([encoded] * count)
    rows.sort(key=lambda r: json.dumps(r, sort_keys=True))
    doc = {"fields": list(t.fields), "rows": rows}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_counted_json(t: Table) -> str:
    rows = []
    for u, count in t.tuples():
        record = dict(zip(t.fields, map(value_to_json, u)))
        rows.append({"record": record, "count": count})
    rows.sort(key=lambda r: json.dumps(r["record"], sort_keys=True))
    doc = {"fields": list(t.fields), "rows": rows}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_RENDERERS = {"tsv": render_tsv, "json": render_json, "counted-json": render_counted_json}


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def _caret_diagnostic(text: str, span: Optional[tuple[int, int]]) -> str:
    if span is None:
        return ""
    start, end = span
    start = max(0, min(start, len(text)))
    line_start = text.rfind("\n", 0, start) + 1
    line_end = text.find("\n", start)
    if line_end == -1:
        line_end = len(text)
    line = text[line_start:line_end]
    col = start - line_start
    width = max(1, min(end, line_end) - start)
    return f"  {line}\n  {' ' * col}{'^' * width}\n"


# ---------------------------------------------------------------------------
# Run mode
# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 64."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_run_parser() -> _ArgumentParser:
    p = _ArgumentParser(prog="minicypher", description="Run a query against a property graph.")
    p.add_argument("--graph", metavar="PATH",
                   help="graph JSON document (omitted: the empty graph)")
    q = p.add_mutually_exclusive_group(required=True)
    q.add_argument("--query", metavar="TEXT", help="query text")
    q.add_argument("--query-file", metavar="PATH", help="file containing the query text")
    p.add_argument("--format", choices=sorted(_RENDERERS), default="tsv",
                   help="output format (default: tsv)")
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute-force reference and require agreement")
    return p


def _count(text: str) -> int:
    """An option value that counts something: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return n


def _build_gen_parser() -> _ArgumentParser:
    p = _ArgumentParser(prog="minicypher gen",
                        description="Differential testing against the reference implementation.")
    p.add_argument("--cases", type=_count, default=100, metavar="N",
                   help="number of generated cases (default: 100)")
    p.add_argument("--seed", type=int, default=0, metavar="N",
                   help="base seed; case i uses seed+i (default: 0)")
    p.add_argument("--out", metavar="DIR", default="failures",
                   help="directory for serialized disagreements (default: failures)")
    p.add_argument("--max-failures", type=_count, default=10, metavar="N",
                   help="stop after this many disagreements (default: 10)")
    return p


def _load_graph_file(path: Optional[str]) -> PropertyGraph:
    if path is None:
        return load_graph({"nodes": [], "relationships": []})
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise GraphLoadError(f"cannot read graph file: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an integer too long to convert
        raise GraphLoadError(f"graph file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise GraphLoadError("graph file nests too deeply to parse") from exc
    return load_graph(doc)


def _run(args: argparse.Namespace) -> int:
    try:
        g = _load_graph_file(args.graph)
    except GraphLoadError as exc:
        print(f"graph error: {exc}", file=sys.stderr)
        return EXIT_GRAPH

    if args.query is not None:
        text = args.query
    else:
        try:
            with open(args.query_file, "r", encoding="utf-8", newline="") as fh:  # line breaks as written
                text = fh.read()
        except (OSError, UnicodeError) as exc:  # missing, unreadable, or not UTF-8
            print(f"cannot read query file: {exc}", file=sys.stderr)
            return EXIT_USAGE

    try:
        q = parse_query(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        sys.stderr.write(_caret_diagnostic(text, exc.span))
        return EXIT_PARSE

    result = outcome(output, q, g)
    if args.oracle:
        reference = outcome(oracle_output, q, g)
        if not agree(result, reference):
            sys.stderr.write(_disagreement(result, reference))
            return EXIT_DISAGREE
    if isinstance(result, CypherError):
        if isinstance(result, EvalError):
            print(f"evaluation error: {result}", file=sys.stderr)
        else:
            print(f"evaluation error: {type(result).__name__}: {result}", file=sys.stderr)
        sys.stderr.write(_caret_diagnostic(text, result.span))
        return EXIT_EVAL
    sys.stdout.write(_RENDERERS[args.format](result))
    return EXIT_OK


def _disagreement(result, reference) -> str:
    """The report of an engine outcome that the reference's does not agree with."""
    if isinstance(result, CypherError):
        return ("oracle disagreement: the reference produced a table but the "
                f"engine raised {type(result).__name__}: {result}\n")
    if isinstance(reference, CypherError):
        return ("oracle disagreement: engine produced a table but the "
                f"reference raised {type(reference).__name__}: {reference}\n")
    return ("oracle disagreement:\n--- engine ---\n" + render_counted_json(result)
            + "--- reference ---\n" + render_counted_json(reference))


def _gen(args: argparse.Namespace) -> int:
    disagreements = ran = 0
    for seed in range(args.seed, args.seed + args.cases):
        ran += 1
        cfg = GenConfig(seed=seed)
        g, q = gen_case(cfg)
        ok, detail = differential_case(g, q)
        if ok:
            continue
        disagreements += 1
        print(f"disagreement at seed {cfg.seed}: {detail['query']}", file=sys.stderr)
        doc = case_document(g, q, extra={
            "seed": cfg.seed,
            "engine": detail["engine"],
            "oracle": detail["oracle"],
        })
        try:
            path = save_failure(args.out, f"case-{cfg.seed}", doc)
        except OSError as exc:
            print(f"cannot write case: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"  serialized to {path}", file=sys.stderr)
        if disagreements >= args.max_failures:
            print("too many disagreements; stopping early", file=sys.stderr)
            break
    print(f"cases: {ran}  disagreements: {disagreements}")
    return EXIT_OK if disagreements == 0 else EXIT_DISAGREE


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "gen":
            args = _build_gen_parser().parse_args(argv[1:])
            return _gen(args)
        args = _build_run_parser().parse_args(argv)
        return _run(args)
    except SystemExit as exc:
        # argparse raises SystemExit for --help (code 0) and usage errors.
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except Exception as exc:  # CypherErrors are all handled in _run and _gen
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
