"""Pattern matching: the match bag.

The heart of the module is :func:`match_tuple`, which computes the bag of
binding extensions for a pattern tuple.  The multiplicity of each extension
equals the number of (rigid pattern, path tuple) witness pairs — a rigid
pattern picks one hop count within every slot's range, so the enumeration
walks the graph slot by slot and treats every stopping point of a
variable-length slot as its own witness.

Enumeration never revisits a relationship: the set of used relationship
ids is shared along the current path *and* across the paths of the tuple,
which both enforces the distinctness precondition and bounds every walk by
|R| hops, making the search finite.

Name conditions, labels, relationship types and endpoint orientation are
checked during the walk (they are error-free and prune the search).
Property-map checks are deferred until the whole tuple is structurally
placed, because a property expression may read names bound by a later
slot; they then run in pattern order and short-circuit on the first check
that is not trilean true.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from . import ast
from .ast import NodePattern, PathPattern, PatternTuple, free_vars, range_of
from .evaluator import eq_values, eval_expr
from .graph import PropertyGraph
from .tables import Record, Table
from .values import FunctionRegistry, NodeId, Path, RelId, same_value

# A deferred property check: (matched id, property map of the pattern slot).
_Check = tuple[Union[NodeId, RelId], tuple]


@dataclass
class MatchStats:
    """Counters for the termination/coverage assertions in tests."""

    walks_extended: int = 0
    max_partial_hops: int = 0
    witnesses: int = 0


def _next_node(g: PropertyGraph, r: RelId, cur: NodeId, direction: str) -> NodeId:
    if direction == ast.RIGHT:
        return g.tgt(r)
    if direction == ast.LEFT:
        return g.src(r)
    return g.other_end(r, cur)


def _checks_pass(
    checks: list[_Check],
    g: PropertyGraph,
    assignment: Record,
    functions: FunctionRegistry | None,
) -> bool:
    for ident, props in checks:
        for key, expr in props:
            stored = g.prop(ident, key)
            wanted = eval_expr(expr, g, assignment, functions)
            if eq_values(stored, wanted) is not True:
                return False
    return True


def _expand_path(
    pat: PathPattern,
    g: PropertyGraph,
    b: dict,
    used: set[RelId],
    checks: list[_Check],
    nodes: list[NodeId],
    rels: list[RelId],
    idx: int,
    stats: Optional[MatchStats],
) -> Iterator[None]:
    """Yield once per structural witness of pat's remaining elements.

    At each yield the shared state (b, used, checks, nodes, rels) describes
    the witness; it is undone when the generator resumes.
    """
    if idx == len(pat.elements):
        if pat.name is None:
            yield
            return
        p = Path(tuple(nodes), tuple(rels))
        if pat.name in b:
            if same_value(b[pat.name], p):
                yield
            return
        b[pat.name] = p
        yield
        del b[pat.name]
        return

    el = pat.elements[idx]

    if isinstance(el, NodePattern):
        n = nodes[-1]
        if el.labels and not el.labels <= g.labels(n):
            return
        bound_here = False
        if el.name is not None:
            if el.name in b:
                if not same_value(b[el.name], n):
                    return
            else:
                b[el.name] = n
                bound_here = True
        if el.props:
            checks.append((n, el.props))
        yield from _expand_path(pat, g, b, used, checks, nodes, rels, idx + 1, stats)
        if el.props:
            checks.pop()
        if bound_here:
            del b[el.name]
        return

    # Relationship slot: enumerate hop counts and walks together.  Every
    # stop with lo <= hops (<= hi) is one segmentation choice.
    lo, hi = range_of(el)

    def finish_segment(seg_rels: list[RelId]) -> Iterator[None]:
        bound_here = False
        if el.name is not None:
            value = seg_rels[0] if el.range_ is None else tuple(seg_rels)
            if el.name in b:
                if not same_value(b[el.name], value):
                    return
            else:
                b[el.name] = value
                bound_here = True
        added = 0
        if el.props:
            for r in seg_rels:
                checks.append((r, el.props))
                added += 1
        yield from _expand_path(pat, g, b, used, checks, nodes, rels, idx + 1, stats)
        for _ in range(added):
            checks.pop()
        if bound_here:
            del b[el.name]

    def walk(cur: NodeId, seg_rels: list[RelId]) -> Iterator[None]:
        m = len(seg_rels)
        if m >= lo:
            yield from finish_segment(seg_rels)
        if hi is not None and m >= hi:
            return
        if len(used) >= len(g.rels):  # no unused relationship can extend the walk
            return
        # ast directions coincide with the adjacency directions (->, <-, --)
        for r in g.incident(cur, el.direction):
            if r in used:
                continue
            if el.types and g.rel_type(r) not in el.types:
                continue
            nxt = _next_node(g, r, cur, el.direction)
            used.add(r)
            seg_rels.append(r)
            rels.append(r)
            nodes.append(nxt)
            if stats is not None:
                stats.walks_extended += 1
                stats.max_partial_hops = max(stats.max_partial_hops, len(rels))
            yield from walk(nxt, seg_rels)
            nodes.pop()
            rels.pop()
            seg_rels.pop()
            used.discard(r)

    yield from walk(nodes[-1], [])


def _anchor_candidates(pat: PathPattern, g: PropertyGraph, b: dict) -> tuple[NodeId, ...]:
    first = pat.elements[0]
    assert isinstance(first, NodePattern)
    if first.name is not None and first.name in b:
        v = b[first.name]
        if isinstance(v, NodeId) and g.has_id(v):
            return (v,)
        return ()  # bound to something that is not a node of g: no matches
    return g.nodes


def _expand_tuple(
    pats: PatternTuple,
    g: PropertyGraph,
    b: dict,
    used: set[RelId],
    checks: list[_Check],
    path_idx: int,
    stats: Optional[MatchStats],
) -> Iterator[None]:
    if path_idx == len(pats.paths):
        yield
        return
    pat = pats.paths[path_idx]
    for n0 in _anchor_candidates(pat, g, b):
        nodes = [n0]
        rels: list[RelId] = []
        for _ in _expand_path(pat, g, b, used, checks, nodes, rels, 0, stats):
            yield from _expand_tuple(pats, g, b, used, checks, path_idx + 1, stats)


def match_tuple(
    pats: PatternTuple,
    g: PropertyGraph,
    u: Record,
    functions: FunctionRegistry | None = None,
    stats: Optional[MatchStats] = None,
) -> Table:
    """The bag of binding extensions u′ over free(pats) − dom(u).

    The multiplicity of u′ is the number of (rigid pattern, path tuple)
    pairs witnessing it.  Names already bound in ``u`` act as constraints;
    a binding incompatible with the graph simply yields no rows.
    """
    new_fields = tuple(sorted(free_vars(pats) - set(u.keys())))
    out = Table(new_fields)
    b = dict(u)
    used: set[RelId] = set()
    checks: list[_Check] = []
    for _ in _expand_tuple(pats, g, b, used, checks, 0, stats):
        if _checks_pass(checks, g, b, functions):
            if stats is not None:
                stats.witnesses += 1
            out.add({f: b[f] for f in new_fields})
    return out
