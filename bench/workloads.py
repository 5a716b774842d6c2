"""Seeded inputs, reference results and the three benchmark workloads.

Everything a workload feeds the library is generated here from the
workload seed with the standard library's ``random``; the library sees only
the generated graph documents, query texts and ``GenConfig`` seeds.

``lookup`` and ``bulk`` check every result against a reference answer that
this module computes from the generator's own lists, without the library,
and renders the way ``minicypher.cli.render_tsv`` documents (columns
sorted, rows sorted, one line per unit of multiplicity).  ``differential``
checks every case by the engine/oracle agreement itself.

The library is reached only through module attributes (``parser.parse_query``,
``engine.output``, ``cli.render_tsv``, ...), so the traced run in
``tracing.py`` can wrap them without editing the package.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from minicypher import cli, engine, graph, oracle, parser
from minicypher.errors import CypherError

DEFAULT_SEED = 0
PINNED_FILE = Path(__file__).with_name("pinned.json")


@dataclass(frozen=True)
class Size:
    """Graph size: ``nodes`` random nodes with ``out_degree`` outgoing
    relationships each, plus a ``chain`` of that many ``C`` nodes."""

    nodes: int
    out_degree: int
    chain: int


# Every node has the same out-degree, so the rows a lookup returns depend
# little on which node the seed picks as its anchor.
LOOKUP_SIZE = Size(nodes=2000, out_degree=4, chain=0)
BULK_SIZE = Size(nodes=2000, out_degree=4, chain=100)
# The oracle enumerates every trail of the graph, so the graphs it checks
# the query shapes on stay at about seven relationships.
ORACLE_SIZE = Size(nodes=5, out_degree=1, chain=3)
ORACLE_GRAPHS = 4


# ---------------------------------------------------------------------------
# Graph generator
# ---------------------------------------------------------------------------


class GraphData:
    """A seeded random graph as plain lists, and its JSON document.

    Random nodes are ``n<i>`` with one label from A/B/C, ``name`` ``v<i>``
    and ``k`` in 0..9; their relationships are typed X or Y and carry
    ``w``.  The chain is ``c0 -e0-> c1 -> ...``, labelled ``C``, typed
    ``N``, and shares nothing with the random part.
    """

    def __init__(self, rng: random.Random, size: Size):
        self.label: dict[str, str] = {}
        self.k: dict[str, int] = {}
        self.rels: list[tuple[str, str, str, str]] = []  # (id, type, src, tgt)
        self.out: dict[str, list[int]] = {}
        self.inc: dict[str, list[int]] = {}
        nodes, rels = [], []

        def node(nid: str, label: str, name: str) -> None:
            k = rng.randrange(10)
            self.label[nid], self.k[nid] = label, k
            self.out[nid], self.inc[nid] = [], []
            nodes.append({"id": nid, "labels": [label],
                          "properties": {"name": name, "k": k}})

        def rel(rid: str, rtype: str, src: str, tgt: str) -> None:
            self.out[src].append(len(self.rels))
            self.inc[tgt].append(len(self.rels))
            self.rels.append((rid, rtype, src, tgt))
            rels.append({"id": rid, "type": rtype, "src": src, "tgt": tgt,
                         "properties": {"w": rng.randrange(100)}})

        for i in range(size.nodes):
            node(f"n{i}", rng.choice("ABC"), f"v{i}")
        for j in range(size.nodes * size.out_degree):
            rel(f"r{j}", rng.choice("XY"), f"n{j // size.out_degree}",
                f"n{rng.randrange(size.nodes)}")
        for i in range(size.chain):
            node(f"c{i}", "C", f"c{i}")
        for i in range(size.chain - 1):
            rel(f"e{i}", "N", f"c{i}", f"c{i + 1}")
        self.n_random = size.nodes
        self.chain = size.chain
        self.doc = {"nodes": nodes, "relationships": rels}

    def typed(self, rtype: str) -> list[tuple[str, str, str, str]]:
        return [r for r in self.rels if r[1] == rtype]

    def out_of(self, n: str, rtype: Optional[str] = None) -> list[tuple[str, str, str, str]]:
        return [self.rels[j] for j in self.out[n] if rtype is None or self.rels[j][1] == rtype]

    def into(self, n: str, rtype: Optional[str] = None) -> list[tuple[str, str, str, str]]:
        return [self.rels[j] for j in self.inc[n] if rtype is None or self.rels[j][1] == rtype]


def tsv(fields: list[str], rows: list[tuple[str, ...]]) -> str:
    """The TSV text ``render_tsv`` prints for these rows (fields sorted)."""
    assert fields == sorted(fields)
    body = sorted("\t".join(row) for row in rows)
    return "\n".join(["\t".join(fields), *body]) + "\n"


def _path_cell(ids: list[str]) -> str:
    return json.dumps({"@path": ids}, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Query shapes.  Each takes the rng and the graph data and returns the
# query text with its reference TSV.
# ---------------------------------------------------------------------------

Shape = Callable[[random.Random, GraphData], tuple[str, str]]


def _anchor(rng: random.Random, d: GraphData) -> tuple[str, str]:
    i = rng.randrange(d.n_random)
    return f"n{i}", f"v{i}"


def lookup_node(rng, d):
    n, name = _anchor(rng, d)
    return f"MATCH (a {{name: '{name}'}}) RETURN a", tsv(["a"], [(n,)])


def lookup_out(rng, d):
    n, name = _anchor(rng, d)
    t = rng.choice("XY")
    return (f"MATCH (a {{name: '{name}'}})-[:{t}]->(b) RETURN b",
            tsv(["b"], [(r[3],) for r in d.out_of(n, t)]))


def lookup_optional(rng, d):
    n, name = _anchor(rng, d)
    t, lab = rng.choice("XY"), rng.choice("ABC")
    rows = [(n, r[3]) for r in d.out_of(n, t) if d.label[r[3]] == lab]
    return (f"MATCH (a {{name: '{name}'}}) OPTIONAL MATCH (a)-[:{t}]->(b:{lab}) RETURN a, b",
            tsv(["a", "b"], rows or [(n, "null")]))


def lookup_in(rng, d):
    n, name = _anchor(rng, d)
    t, lab = rng.choice("XY"), rng.choice("ABC")
    return (f"MATCH (a {{name: '{name}'}})<-[:{t}]-(b:{lab}) RETURN b",
            tsv(["b"], [(r[2],) for r in d.into(n, t) if d.label[r[2]] == lab]))


def lookup_var(rng, d):
    n, name = _anchor(rng, d)
    rows = []
    for r1 in d.out_of(n):
        rows.append((r1[3],))
        rows.extend((r2[3],) for r2 in d.out_of(r1[3]) if r2 is not r1)
    return f"MATCH (a {{name: '{name}'}})-[*1..2]->(b) RETURN b", tsv(["b"], rows)


def lookup_far(rng, d):
    n, name = _anchor(rng, d)
    t = rng.choice("XY")
    return (f"MATCH (a)-[:{t}]->(b {{name: '{name}'}}) RETURN a",
            tsv(["a"], [(r[2],) for r in d.into(n, t)]))


def lookup_where(rng, d):
    n, name = _anchor(rng, d)
    t = rng.choice("XY")
    return (f"MATCH (a)-[:{t}]->(b) WHERE a.name = '{name}' RETURN b",
            tsv(["b"], [(r[3],) for r in d.out_of(n, t)]))


def bulk_hop(rng, d):
    return ("MATCH (a)-[:X]->(b) RETURN a, b",
            tsv(["a", "b"], [(r[2], r[3]) for r in d.typed("X")]))


def bulk_two_hop(rng, d):
    rows = [(r1[2], r2[3]) for r1 in d.typed("X") for r2 in d.out_of(r1[3], "X") if r2 is not r1]
    return "MATCH (a)-[:X]->(b)-[:X]->(c) RETURN a, c", tsv(["a", "c"], rows)


def bulk_with_where(rng, d):
    # `<>` keeps about nine rows in ten whatever the constant, so the seed
    # does not change how much work the query does.
    c = rng.randrange(10)
    rows = [(r[2], str(d.k[r[3]])) for r in d.rels if d.k[r[3]] != c]
    return (f"MATCH (a)-[r]->(b) WITH a, b.k AS k WHERE k <> {c} RETURN a, k",
            tsv(["a", "k"], rows))


def bulk_label_join(rng, d):
    rows = [(r[2], r[3]) for r in d.rels
            if d.label[r[2]] == "A" and d.label[r[3]] == "B" and d.k[r[2]] == d.k[r[3]]]
    return "MATCH (a:A)-[]->(b:B) WHERE a.k = b.k RETURN a, b", tsv(["a", "b"], rows)


def bulk_unwind(rng, d):
    c = rng.randrange(10)
    rows = [(r[2], str(x)) for r in d.typed("Y") for x in (d.k[r[2]], d.k[r[3]], c)]
    return (f"MATCH (a)-[:Y]->(b) UNWIND [a.k, b.k, {c}] AS x RETURN a, x",
            tsv(["a", "x"], rows))


def _union(all_: bool) -> Shape:
    def shape(rng, d):
        rows = [(r[3],) for r in d.typed("X")] + [(r[2],) for r in d.typed("Y")]
        if not all_:
            rows = sorted(set(rows))
        keyword = "UNION ALL" if all_ else "UNION"
        return (f"MATCH (a)-[:X]->(b) RETURN b AS n {keyword} MATCH (a)-[:Y]->(b) RETURN a AS n",
                tsv(["n"], rows))

    shape.__name__ = "bulk_union_all" if all_ else "bulk_union"
    return shape


def bulk_chain(rng, d):
    rows = [(f"c{i}", f"c{j}") for i in range(d.chain) for j in range(i + 1, d.chain)]
    return "MATCH (a:C)-[:N*]->(b) RETURN a, b", tsv(["a", "b"], rows)


def bulk_chain_path(rng, d):
    rows = []
    for i in range(d.chain):
        ids = [f"c{i}"]
        for j in range(i + 1, d.chain):
            ids += [f"e{j - 1}", f"c{j}"]
            rows.append((_path_cell(ids),))
    return "MATCH p = (a:C)-[:N*]->(b) RETURN p", tsv(["p"], rows)


LOOKUP_SHAPES: tuple[Shape, ...] = (
    lookup_node, lookup_out, lookup_optional, lookup_in, lookup_var, lookup_far, lookup_where,
)
BULK_SHAPES: tuple[Shape, ...] = (
    bulk_hop, bulk_two_hop, bulk_with_where, bulk_label_join, bulk_unwind,
    _union(False), _union(True), bulk_chain, bulk_chain_path,
)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One unit of work: a query text with its reference TSV, or a case seed."""

    shape: str
    text: str = ""
    expected: str = ""
    case_seed: int = 0


def execute_query(g: graph.PropertyGraph, text: str) -> str:
    """Parse as the CLI does, run with ``output()`` and render to TSV."""
    return cli.render_tsv(engine.output(parser.parse_query(text), g))


def _engine_rows(detail: dict) -> int:
    """Total multiplicity of the engine's table in a differential detail."""
    rendered = detail["engine"]
    if isinstance(rendered, str):  # "error:<kind>"
        return 0
    return sum(int(line.rsplit(" x", 1)[1]) for line in rendered)


class Workload:
    """A stream of ops over seeded inputs.

    ``setup`` builds the inputs and warms up; ``batches`` yields the ops in
    groups that the timed loop always finishes whole, so every run sees
    the same mix; ``run`` passes one op through the library and ``check``
    judges its output, returning ``(ok, rows, message)``.
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def load(self) -> None:
        """Load the workload's graph again (a no-op where each op loads its own)."""

    def batches(self) -> Iterator[list[Op]]:
        raise NotImplementedError

    def run(self, op: Op) -> Any:
        raise NotImplementedError

    def check(self, op: Op, out: Any) -> tuple[bool, int, str]:
        raise NotImplementedError

    def pinned_outputs(self) -> Iterator[str]:
        """Counted-JSON renderings that are pinned for the default seed,
        made one at a time so they do not raise the run's peak memory."""
        raise NotImplementedError

    def oracle_checks(self) -> list[tuple[bool, str]]:
        """Shape-by-shape agreement with the oracle on small graphs."""
        return []


class QueryWorkload(Workload):
    shapes: tuple[Shape, ...]
    size: Size
    # A lookup draws new anchors every cycle; a bulk cycle repeats its texts.
    fresh_texts = True

    def _cycle(self, rng: random.Random, data: GraphData) -> list[Op]:
        ops = []
        for shape in self.shapes:
            text, expected = shape(rng, data)
            ops.append(Op(shape.__name__, text, expected))
        return ops

    def setup(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        self.data = GraphData(rng, self.size)
        self.load()
        self.rng = rng
        self.first = self._cycle(rng, self.data)
        self.run(self.first[0])  # untimed warm-up

    def load(self) -> None:
        self.graph = graph.load_graph(self.data.doc)

    def batches(self) -> Iterator[list[Op]]:
        cycle = self.first
        while True:
            yield cycle
            if self.fresh_texts:
                cycle = self._cycle(self.rng, self.data)

    def run(self, op: Op) -> str:
        return execute_query(self.graph, op.text)

    def check(self, op: Op, out: str) -> tuple[bool, int, str]:
        if out == op.expected:
            return True, out.count("\n") - 1, ""
        return False, out.count("\n") - 1, f"{op.shape}: result differs from the reference: {op.text}"

    def pinned_outputs(self) -> Iterator[str]:
        for op in self.first:
            yield cli.render_counted_json(engine.output(parser.parse_query(op.text), self.graph))

    def oracle_checks(self) -> list[tuple[bool, str]]:
        results = []
        for i in range(ORACLE_GRAPHS):
            rng = random.Random(f"{self.name}:{self.seed}:oracle:{i}")
            data = GraphData(rng, ORACLE_SIZE)
            g = graph.load_graph(data.doc)
            for op in self._cycle(rng, data):
                agree, detail = oracle.differential_case(g, parser.parse_query(op.text))
                if not agree:
                    results.append((False, f"{op.shape}: engine and oracle disagree on a "
                                           f"small graph: {json.dumps(detail)}"))
                    continue
                ok = execute_query(g, op.text) == op.expected
                results.append((ok, "" if ok else
                                f"{op.shape}: reference differs on a small graph: {op.text}"))
        return results


class Lookup(QueryWorkload):
    name = "lookup"
    shapes = LOOKUP_SHAPES
    size = LOOKUP_SIZE


class Bulk(QueryWorkload):
    name = "bulk"
    shapes = BULK_SHAPES
    size = BULK_SIZE
    fresh_texts = False


# Past the case range of any seed the benchmark is run with.
WARM_UP_CASES = 10**12


class Differential(Workload):
    name = "differential"
    batch = 100
    warm_up_cases = 200

    def setup(self) -> None:
        # Runs on different seeds draw disjoint ranges of consecutive cases.
        # The warm-up replays the same cases whatever the seed, so setup_s
        # does not depend on which rare slow cases a seed happens to draw.
        self.base = self.seed * 10**7
        for i in range(self.warm_up_cases):
            self.run(Op("case", case_seed=WARM_UP_CASES + i))

    def batches(self) -> Iterator[list[Op]]:
        i = 0
        while True:
            yield [Op("case", case_seed=self.base + i + j) for j in range(self.batch)]
            i += self.batch

    def run(self, op: Op) -> tuple[bool, dict]:
        g, q = oracle.gen_case(oracle.GenConfig(seed=op.case_seed))
        return oracle.differential_case(g, q)

    def check(self, op: Op, out: tuple[bool, dict]) -> tuple[bool, int, str]:
        agree, detail = out
        if agree:
            return True, _engine_rows(detail), ""
        return False, _engine_rows(detail), f"case {op.case_seed}: disagreement {json.dumps(detail)}"

    def pinned_outputs(self) -> Iterator[str]:
        for i in range(20):
            g, q = oracle.gen_case(oracle.GenConfig(seed=self.base + i))
            try:
                yield cli.render_counted_json(engine.output(q, g))
            except CypherError as exc:  # the case's defined outcome is an error
                yield f"error:{type(exc).__name__}"


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Lookup, Bulk, Differential)}


# ---------------------------------------------------------------------------
# Checks outside the timed loop
# ---------------------------------------------------------------------------

CLI_CASES = 20


def cli_path_checks(w: Workload) -> list[tuple[bool, str]]:
    """Generated cases through the CLI's text path.

    A case's canonical text must parse back to the same query (a saved
    failure replays from that text), engine and oracle must agree on the
    parsed query, and where both return a table their TSV renderings must
    be identical.  Cases come from the far end of the seed's range.
    """
    results = []
    for i in range(CLI_CASES):
        seed = w.seed * 10**7 + 9 * 10**6 + i
        g, q = oracle.gen_case(oracle.GenConfig(seed=seed))
        parsed = parser.parse_query(parser.unparse_query(q))
        agree, detail = oracle.differential_case(g, parsed)
        ok = parsed == q and agree
        if ok and not isinstance(detail["engine"], str):
            ok = (cli.render_tsv(engine.output(parsed, g))
                  == cli.render_tsv(oracle.oracle_output(parsed, g)))
        results.append((ok, "" if ok else f"case {seed}: CLI text path check failed: "
                                          f"{json.dumps(detail)}"))
    return results


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def pinned_checks(w: Workload) -> list[tuple[bool, str]]:
    """Compare the default seed's full-size results with the pinned digests
    (no checks on any other seed)."""
    if w.seed != DEFAULT_SEED:
        return []
    pinned = json.loads(PINNED_FILE.read_text())[w.name]
    got = [digest(out) for out in w.pinned_outputs()]
    if len(got) != len(pinned):
        return [(False, f"{len(got)} pinned outputs, {len(pinned)} digests on file")]
    return [(a == b, "" if a == b else f"output {i} differs from its pinned digest")
            for i, (a, b) in enumerate(zip(got, pinned))]


def write_pins() -> None:
    """Re-pin the default seed's digests (after a deliberate generator change)."""
    pins = {}
    for name, cls in WORKLOADS.items():
        w = cls(DEFAULT_SEED)
        w.setup()
        pins[name] = [digest(out) for out in w.pinned_outputs()]
    PINNED_FILE.write_text(json.dumps(pins, indent=1) + "\n")
