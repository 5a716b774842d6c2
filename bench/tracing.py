"""Per-layer tracing of the library, installed from outside the package.

``Tracer.install`` replaces public functions of each minicypher module with
wrappers; ``uninstall`` puts the originals back.  Nothing under ``src/`` is
edited.  A function imported by name into another module is wrapped where
it is looked up, so one call site can be told from another: ``eval_expr``
called from ``matcher`` counts as property-check evaluation, called from
``engine`` as per-row evaluation.

Timed wrappers keep a stack of open frames.  A frame's self time is its
inclusive time minus the inclusive time of the timed calls made inside it.
Coarse calls (an op, a parse, a clause, a match, a render, a graph load, a
case's generation and either side of a differential case) are also kept
as spans ``(id, name, start, end, parent)`` in memory and written out by
``write_spans``.  Calls made thousands of times per op (``Table.add``,
``eval_expr``) are timed but aggregated only, and the hottest ones
(``canon``, ``incident``, ``prop``) are counted only.  ``incident`` and
``prop`` are counted on the engine's side only, not while the oracle runs.

The metric names are those of ``per_layer`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from typing import Any, Callable

from minicypher import ast, cli, engine, graph, matcher, oracle, parser, tables, values
from minicypher.matcher import MatchStats

class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._stack: list[list] = [[0.0, 0]]  # open frames: [child seconds, span id]
        self._next_span = 1
        self._undo: list[tuple[Any, str, Any]] = []
        # Matcher work, from the MatchStats passed through match_tuple.
        self.hops = 0
        self.witnesses = 0
        self.max_partial_hops = 0
        self.op_useful_ratios: list[float] = []
        self.match_rows_in = 0
        self._oracle_depth = 0  # > 0 while the oracle's side of a case runs

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name: str, fn: Callable, span: bool = False) -> Callable:
        stack, calls, incl, self_ = self._stack, self.calls, self.incl, self.self_

        def wrapper(*args, **kwargs):
            parent = stack[-1][1]
            sid = parent
            if span:
                sid = self._next_span
                self._next_span += 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                d = t1 - t0
                stack[-1][0] += d
                calls[name] += 1
                incl[name] += d
                self_[name] += d - frame[0]
                if span:
                    self.spans.append((sid, name, t0, t1, parent))

        return wrapper

    def _counted(self, name: str, fn: Callable, engine_only: bool = False) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            if not (engine_only and self._oracle_depth):
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _oracle_side(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self._oracle_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._oracle_depth -= 1

        return wrapper

    def _match_tuple(self, fn: Callable) -> Callable:
        def wrapper(pats, g, u, functions=None, stats=None):
            s = MatchStats() if stats is None else stats
            try:
                return fn(pats, g, u, functions, s)
            finally:
                self.hops += s.walks_extended
                self.witnesses += s.witnesses
                self.max_partial_hops = max(self.max_partial_hops, s.max_partial_hops)

        return wrapper

    def _run_clause(self, fn: Callable) -> Callable:
        """Count a MATCH clause's input rows outside its timed frame, and
        book the counting as child time of the caller, so that it adds to
        no layer's self time."""
        stack = self._stack

        def wrapper(c, g, t, functions=None):
            if isinstance(c, ast.Match):
                t0 = time.perf_counter()
                self.match_rows_in += sum(1 for _ in t.rows())
                stack[-1][0] += time.perf_counter() - t0
            return fn(c, g, t, functions)

        return wrapper

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        timed, counted, patch = self._timed, self._counted, self._patch
        load = timed("graph.load_graph", graph.load_graph, span=True)
        patch(graph, "load_graph", load)
        patch(oracle, "load_graph", load)
        for attr in ("incident", "prop"):
            patch(graph.PropertyGraph, attr,
                  counted(f"graph.{attr}", getattr(graph.PropertyGraph, attr), engine_only=True))
        patch(parser, "parse_query", timed("parser.parse_query", parser.parse_query, span=True))
        patch(engine, "run_query", timed("engine.run_query", engine.run_query, span=True))
        patch(engine, "run_clause",
              self._run_clause(timed("engine.run_clause", engine.run_clause, span=True)))
        patch(engine, "match_tuple",
              timed("matcher.match_tuple", self._match_tuple(engine.match_tuple), span=True))
        patch(matcher, "eval_expr", timed("evaluator.checks", matcher.eval_expr))
        patch(engine, "eval_expr", timed("evaluator.rows", engine.eval_expr))
        patch(tables.Table, "add", timed("tables.add", tables.Table.add))
        canon = counted("values.canon", values.canon)
        for module in (values, tables, engine):
            patch(module, "canon", canon)
        patch(cli, "render_tsv", timed("cli.render_tsv", cli.render_tsv, span=True))
        patch(oracle, "gen_case", timed("oracle.gen_case", oracle.gen_case, span=True))
        patch(oracle, "engine_output", timed("oracle.engine_side", oracle.engine_output, span=True))
        patch(oracle, "oracle_output",
              timed("oracle.oracle_side", self._oracle_side(oracle.oracle_output), span=True))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def op(self, fn: Callable, *args):
        """Run one op as a root span and record its matcher useful ratio."""
        hops, witnesses = self.hops, self.witnesses
        result = self._timed("op", fn, span=True)(*args)
        if self.hops > hops:
            self.op_useful_ratios.append((self.witnesses - witnesses) / (self.hops - hops))
        return result

    # -- report --------------------------------------------------------------

    def metrics(self, ops: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics, per op; the oracle's are per case.

        ``matcher.useful_ratio`` is the median over ops that extended at
        least one hop of that op's witnesses per hop; the pooled ratio is
        ``matcher.witnesses / matcher.hops_extended``.
        """
        c, incl, self_ = self.calls, self.incl, self.self_

        def per_op(x: float) -> float:
            return x / ops

        def ms_per_op(seconds: float) -> float:
            return 1000 * seconds / ops

        op_seconds = incl["op"] or 1.0
        loads = c["graph.load_graph"]
        match_from_engine = c["matcher.match_tuple"]
        rows_in = self.match_rows_in
        return {
            "graph.load_ms": 1000 * incl["graph.load_graph"] / loads if loads else 0.0,
            "graph.incident.calls": per_op(c["graph.incident"]),
            "graph.prop.calls": per_op(c["graph.prop"]),
            "parser.parse_query.self_ms": ms_per_op(self_["parser.parse_query"]),
            "matcher.match_tuple.calls": per_op(match_from_engine),
            "matcher.match_tuple.self_ms": ms_per_op(self_["matcher.match_tuple"]),
            "matcher.hops_extended": per_op(self.hops),
            "matcher.witnesses": per_op(self.witnesses),
            "matcher.useful_ratio": (statistics.median(self.op_useful_ratios)
                                     if self.op_useful_ratios else 0.0),
            "matcher.max_partial_hops": float(self.max_partial_hops),
            "evaluator.checks.calls": per_op(c["evaluator.checks"]),
            "evaluator.checks.ms": ms_per_op(incl["evaluator.checks"]),
            "evaluator.rows.calls": per_op(c["evaluator.rows"]),
            "evaluator.rows.ms": ms_per_op(incl["evaluator.rows"]),
            "tables.add.calls": per_op(c["tables.add"]),
            "tables.add.self_ms": ms_per_op(self_["tables.add"]),
            "tables.add_share": self_["tables.add"] / op_seconds,
            "values.canon.calls": per_op(c["values.canon"]),
            "engine.run_clause.self_ms": ms_per_op(self_["engine.run_clause"]),
            "engine.run_query.self_ms": ms_per_op(self_["engine.run_query"]),
            "engine.match_memo_hit_ratio": ((rows_in - match_from_engine) / rows_in
                                            if rows_in else 0.0),
            "cli.render_tsv.self_ms": ms_per_op(self_["cli.render_tsv"]),
            **self.oracle_metrics(),
            "trace.overhead_ratio": overhead_ratio,
        }

    def oracle_metrics(self) -> dict[str, float]:
        """The oracle's figures: ms per case, and the share of op time spent
        on the oracle's side."""
        c, incl = self.calls, self.incl

        def ms_per_call(name: str) -> float:
            return 1000 * incl[name] / c[name] if c[name] else 0.0

        return {
            "oracle.gen_case.ms": ms_per_call("oracle.gen_case"),
            "oracle.engine_side.ms": ms_per_call("oracle.engine_side"),
            "oracle.oracle_side.ms": ms_per_call("oracle.oracle_side"),
            "oracle.oracle_share": incl["oracle.oracle_side"] / (incl["op"] or 1.0),
        }

    def write_spans(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from the first span."""
        origin = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent or None}) + "\n")
