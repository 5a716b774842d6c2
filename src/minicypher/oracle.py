"""Brute-force reference implementation and the differential harness.

The functions here recompute pattern matching and clause semantics from
the definitions with no shortcuts, no pruning beyond the tuple's hop bound
(a rigid pattern of h hops is satisfied only by paths of exactly h hops,
so a trail longer than any rigid pattern of the tuple is never a witness),
and no shared code with the optimized matcher/engine: `oracle_match`
literally enumerates every (rigid pattern, path tuple) pair and counts the
witnesses, and `oracle_run_query` re-states the table transformations row
by row.  Expressions are evaluated by the ordinary evaluator in both
implementations — the differential target is the matching and table
algebra, and the evaluator is verified separately by its own exhaustive
suites.

The slot rules are stated once, in `_read`: one pass over a path under a
rigid choice, in pattern order, checks labels, relationship types and
orientation, forces the names the path binds, and lists the property
checks.  The witnesses are enumerated once, by `_witnesses`: every rigid
pattern tuple and path tuple with cross-path-distinct relationships that
`_read` accepts, path by path, each with the extension of its input
assignment that it forces.  `oracle_match` keeps the extensions whose
checks hold and counts them.

`exhaustive_match` goes one step further for very small inputs: instead of
deriving the unique candidate assignment from each witness, it tries every
assignment built from path components and runs the same enumeration under
it, where a witness forces nothing new and only agrees or disagrees.  It
exists to cross-check the derivation logic and is exponential.

The satisfaction relation on concrete paths (`satisfies_path`,
`satisfies_node`) and rigid expansion (`rigid_patterns`) live here too:
`satisfies_path` is `_read` under a complete assignment, so no slot rule
is borrowed from the matcher.

The differential harness runs a case on both implementations and judges
their outcomes by one rule, `agree`.  `gen_case` seeds the case generator
of `gen.py` and loads the graph it draws.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import replace
from pathlib import Path as FsPath
from typing import Callable, Iterable, Iterator, Optional

from . import ast
from .ast import free_vars
from .engine import output as engine_output
from .errors import AliasClash, CypherError, EvalError, FieldMismatch, NameClash, StarOnEmptyFields
from .evaluator import eq_values, eval_expr, is_true
from .gen import GenConfig, graph_document, query
from .graph import BOTH, PropertyGraph, load_graph
from .parser import parse_query, unparse_expr, unparse_query
from .tables import Record
from .values import FunctionRegistry, NodeId, Path, RelId, canon, same_value

Walk = tuple[tuple[NodeId, ...], tuple[RelId, ...]]


class Bag:
    """The oracle's own bag, ``{canon row key: [record, count]}``.  It has a
    Table's ``fields``, ``rows()`` and ``tuples()`` (which the CLI's
    renderers read), and equals anything that has ``fields`` and ``rows()``
    and lists the same records with the same counts, each record once."""

    def __init__(self, fields: Iterable[str], rows: Iterable[tuple[Record, int]] = ()):
        self.fields: tuple[str, ...] = tuple(sorted(set(fields)))
        self._rows: dict[tuple, list] = {}
        for u, count in rows:  # add each, equal records merging
            if set(u) != set(self.fields):
                raise AssertionError(f"non-uniform record: has {sorted(u)}, fields {list(self.fields)}")
            self._rows.setdefault(tuple(canon(u[f]) for f in self.fields), [dict(u), 0])[1] += count

    def rows(self) -> Iterator[tuple[Record, int]]:
        return ((u, count) for u, count in self._rows.values())

    def tuples(self) -> Iterator[tuple[tuple, int]]:
        """The rows as a Table's renderers read them: each record's values
        in field order."""
        return ((tuple([u[f] for f in self.fields]), count) for u, count in self._rows.values())

    def __eq__(self, other: object) -> bool:
        return hasattr(other, "rows") and agree(other, self)


def _normal_form(t) -> Optional[tuple]:
    """(sorted fields, {canon row key: count}), or None if a record repeats."""
    fields, rows = tuple(sorted(t.fields)), list(t.rows())
    counts = {tuple(canon(u[f]) for f in fields): count for u, count in rows}
    return (fields, counts) if len(counts) == len(rows) else None


# ---------------------------------------------------------------------------
# Path enumeration
# ---------------------------------------------------------------------------


def _all_walks(g: PropertyGraph, most: int) -> dict[int, list[Walk]]:
    """Every path over g of at most `most` hops, grouped by hop count.

    A path may traverse each relationship in either orientation but never
    twice, so |R| bounds the length and the enumeration is finite; `most`
    cuts it shorter, to the hops a pattern tuple can use (`_hop_bound`).
    """
    by_len: dict[int, list[Walk]] = {h: [] for h in range(most + 1)}

    def extend(nodes: list[NodeId], rels: list[RelId]) -> None:
        by_len[len(rels)].append((tuple(nodes), tuple(rels)))
        if len(rels) == most:
            return
        cur = nodes[-1]
        for r in g.incident(cur, BOTH):
            if r in rels:
                continue
            nodes.append(g.other_end(r, cur))
            rels.append(r)
            extend(nodes, rels)
            nodes.pop()
            rels.pop()

    for n in g.nodes:
        extend([n], [])
    return by_len


def _hop_bound(pats: ast.PatternTuple, g: PropertyGraph) -> int:
    """The most hops any rigid pattern of pats can have on g: per path, the
    sum of its slots' upper bounds, an unbounded slot counting |R|, and
    never more than |R|, since a path uses each relationship once."""
    most = len(g.rels)
    his = [[ast.range_of(rho)[1] for rho in pat.rel_patterns()] for pat in pats.paths]
    return max((min(most, sum(most if hi is None else hi for hi in path)) for path in his), default=0)


def _seg_choices(rel_pats: tuple[ast.RelPattern, ...], max_total: int) -> list[tuple[int, ...]]:
    """Every tuple of per-slot hop counts within ranges, summing to <= max_total."""
    out: list[tuple[int, ...]] = []

    def rec(i: int, acc: list[int], remaining: int) -> None:
        if i == len(rel_pats):
            out.append(tuple(acc))
            return
        lo, hi = ast.range_of(rel_pats[i])
        top = remaining if hi is None else min(hi, remaining)
        for m in range(lo, top + 1):
            acc.append(m)
            rec(i + 1, acc, remaining - m)
            acc.pop()

    rec(0, [], max_total)
    return out


# ---------------------------------------------------------------------------
# Satisfaction, stated rule by rule
# ---------------------------------------------------------------------------


def _read(
    pat: ast.PathPattern,
    seg: tuple[int, ...],
    nodes: tuple[NodeId, ...],
    rels: tuple[RelId, ...],
    g: PropertyGraph,
    u: Record,
) -> Optional[tuple[Record, list[tuple]]]:
    """Read the path (nodes, rels) as pat with seg[i] hops in slot i, in
    pattern order: labels, relationship types and endpoint orientation per
    direction must hold, and every name the path forces must agree with u
    and with itself.  Returns (u extended by the forced names, the property
    checks as (id, props) in pattern order), or None."""
    forced: list[tuple[str, object]] = []
    checks: list[tuple] = []
    rel_pats = pat.rel_patterns()
    pos = 0
    for i, chi in enumerate(pat.node_patterns()):
        n = nodes[pos]
        if chi.labels and not chi.labels <= g.labels(n):
            return None
        if chi.name is not None:
            forced.append((chi.name, n))
        if chi.props:
            checks.append((n, chi.props))
        if i == len(rel_pats):
            break
        rho, end = rel_pats[i], pos + seg[i]
        for j in range(pos, end):
            r, a, b = rels[j], nodes[j], nodes[j + 1]
            s, t = g.src(r), g.tgt(r)  # forward unless it points left, backward unless right
            if not (rho.direction != ast.LEFT and s == a and t == b
                    or rho.direction != ast.RIGHT and s == b and t == a):
                return None
            if rho.types and g.rel_type(r) not in rho.types:
                return None
            if rho.props:
                checks.append((r, rho.props))
        if rho.name is not None:
            forced.append((rho.name, rels[pos] if rho.range_ is None else rels[pos:end]))
        pos = end
    if pat.name is not None:
        forced.append((pat.name, Path(nodes, rels)))
    v = dict(u)
    for name, value in forced:
        old = v.setdefault(name, value)
        if not (old is value or same_value(old, value)):  # ids are interned
            return None
    return v, checks


def _witnesses(
    pats: ast.PatternTuple,
    g: PropertyGraph,
    u: Record,
    walks: dict[int, list[Walk]],
) -> Iterator[tuple[Record, list[tuple]]]:
    """(u extended by the forced names, the property checks) for every rigid
    pattern tuple and path tuple with cross-path-distinct relationships that
    `_read` accepts, path by path, hop choices before walks."""
    choices = [_seg_choices(pat.rel_patterns(), len(g.rels)) for pat in pats.paths]

    def rec(i: int, used: frozenset[RelId], v: Record, checks: list[tuple]) -> Iterator:
        if i == len(pats.paths):
            yield v, checks
            return
        pat = pats.paths[i]
        for seg in choices[i]:
            for nodes, rels in walks[sum(seg)]:
                if used.isdisjoint(rels):
                    read = _read(pat, seg, nodes, rels, g, v)
                    if read is not None:
                        yield from rec(i + 1, used.union(rels), read[0], checks + read[1])

    return rec(0, frozenset(), u, [])


def _eval_checks(
    checks: list[tuple],
    g: PropertyGraph,
    assignment: Record,
    functions: FunctionRegistry | None,
) -> bool:
    for ident, props in checks:
        for key, expr in props:
            if eq_values(g.prop(ident, key), eval_expr(expr, g, assignment, functions)) is not True:
                return False
    return True


def satisfies_path(
    p: Path,
    pat: ast.PathPattern,
    g: PropertyGraph,
    u: Record,
    functions: FunctionRegistry | None = None,
) -> bool:
    """(p, g, u) satisfies pat: relationships pairwise distinct and some
    segmentation of p into the slots obeys every rule under the complete
    assignment u, forcing no name u lacks.  Property checks run last, per
    segmentation in order."""
    if len(set(p.rels)) != len(p.rels):
        return False
    for seg in _seg_choices(pat.rel_patterns(), len(p.rels)):
        if sum(seg) != len(p.rels):
            continue
        read = _read(pat, seg, p.nodes, p.rels, g, u)
        if read is not None and len(read[0]) == len(u) and _eval_checks(read[1], g, u, functions):
            return True
    return False


def satisfies_node(
    n: NodeId,
    chi: ast.NodePattern,
    g: PropertyGraph,
    u: Record,
    functions: FunctionRegistry | None = None,
) -> bool:
    """(n, g, u) satisfies the node pattern chi: the zero-hop path case."""
    return satisfies_path(Path((n,)), ast.PathPattern((chi,)), g, u, functions)


def make_rigid(pat: ast.PathPattern, seg: tuple[int, ...]) -> ast.PathPattern:
    """The rigid pattern of pat choosing seg[i] hops for slot i.

    Slots written without a length keep range None (they bind the single
    relationship, and are rigid already); ranged slots become (m, m).
    """
    elements = list(pat.elements)
    si = 0
    for i in range(1, len(elements), 2):
        rho = elements[i]
        if rho.range_ is not None:
            elements[i] = replace(rho, range_=(seg[si], seg[si]))
        si += 1
    return replace(pat, elements=tuple(elements))


def rigid_patterns(pat: ast.PathPattern, max_total_hops: int) -> list[ast.PathPattern]:
    """All rigid patterns subsumed by pat with total hops <= the bound, by
    total hops.  For fully bounded ranges this is the complete (finite)
    rigid set once the bound reaches the sum of the upper bounds."""
    segs = sorted(_seg_choices(pat.rel_patterns(), max_total_hops), key=sum)
    return [make_rigid(pat, seg) for seg in segs]


# ---------------------------------------------------------------------------
# The reference match
# ---------------------------------------------------------------------------


def oracle_match(
    pats: ast.PatternTuple,
    g: PropertyGraph,
    u: Record,
    functions: FunctionRegistry | None = None,
) -> Bag:
    """Transcription of the match definition.

    Enumerate every rigid pattern tuple (one hop-count choice per slot) and
    every path tuple of matching lengths with cross-path-distinct
    relationships; each satisfied pair forces exactly one binding extension
    and contributes one to its multiplicity.
    """
    return _match(pats, g, u, _all_walks(g, _hop_bound(pats, g)), functions)


def _match(
    pats: ast.PatternTuple,
    g: PropertyGraph,
    u: Record,
    walks: dict[int, list[Walk]],
    functions: FunctionRegistry | None,
) -> Bag:
    """`oracle_match` over walks, the trails up to the tuple's hop bound,
    which a MATCH clause lists once for all its input rows."""
    new_fields = tuple(sorted(free_vars(pats) - set(u.keys())))
    found = [({f: v[f] for f in new_fields}, 1)
             for v, checks in _witnesses(pats, g, u, walks)
             if _eval_checks(checks, g, v, functions)]
    return Bag(new_fields, found)


def exhaustive_match(
    pats: ast.PatternTuple,
    g: PropertyGraph,
    u: Record,
    functions: FunctionRegistry | None = None,
) -> Bag:
    """Candidate-product form of the match definition (tiny inputs only!).

    Tries every assignment of path components to the unbound names instead
    of deriving the forced one, then counts the witnessing (rigid pattern,
    path tuple) pairs per assignment: under a complete assignment a witness
    forces nothing new, it only agrees or not.  Exists to validate
    `oracle_match`'s derivation step; exponential in everything.
    """
    new_fields = tuple(sorted(free_vars(pats) - set(u.keys())))
    walks = _all_walks(g, len(g.rels))  # every path is a candidate value
    pool: list = [*g.nodes, *g.rels]
    pool += [Path(nodes, rels) for ws in walks.values() for nodes, rels in ws]
    pool += [seq for k in range(len(g.rels) + 1) for seq in itertools.permutations(g.rels, k)]

    found: list[tuple[Record, int]] = []
    for values in itertools.product(pool, repeat=len(new_fields)):
        extension = dict(zip(new_fields, values))
        assignment = {**u, **extension}
        count = sum(_eval_checks(checks, g, v, functions)
                    for v, checks in _witnesses(pats, g, assignment, walks))
        if count:
            found.append((extension, count))
    return Bag(new_fields, found)


# ---------------------------------------------------------------------------
# Reference clause/query semantics
# ---------------------------------------------------------------------------


def _oracle_project(
    star: bool,
    items: tuple[ast.Item, ...],
    g: PropertyGraph,
    t: Bag,
    functions: FunctionRegistry | None,
) -> Bag:
    pairs: list[tuple[str, ast.Expr]] = []
    if star:
        if not t.fields:
            raise StarOnEmptyFields("* requires the table to have at least one field")
        pairs.extend((f, ast.Name(f)) for f in t.fields)
    for expr, alias in items:
        pairs.append((alias if alias is not None else unparse_expr(expr), expr))
    names = [a for a, _ in pairs]
    if len(set(names)) != len(names) or not names:
        raise AliasClash(f"bad output names: {names}")
    rows = [({a: eval_expr(e, g, u, functions) for a, e in pairs}, count) for u, count in t.rows()]
    return Bag(names, rows)


def oracle_run_clause(
    c: ast.Clause,
    g: PropertyGraph,
    t: Bag,
    functions: FunctionRegistry | None = None,
) -> Bag:
    if isinstance(c, ast.Match):
        fields, rows = sorted(set(t.fields) | free_vars(c.patterns)), []
        inputs = list(t.rows())  # the trails are listed once, and not for an empty table
        walks = _all_walks(g, _hop_bound(c.patterns, g)) if inputs else {}
        for u, count in inputs:
            kept = [({**u, **u2}, count * n) for u2, n in _match(c.patterns, g, u, walks, functions).rows()]
            if c.where is not None:
                kept = [(row, n) for row, n in kept if is_true(eval_expr(c.where, g, row, functions))]
            if not kept and c.optional:
                kept = [({**u, **{f: None for f in fields if f not in u}}, count)]
            rows += kept
        return Bag(fields, rows)

    if isinstance(c, ast.With):
        projected = _oracle_project(c.star, c.items, g, t, functions)
        if c.where is None:
            return projected
        kept = [(u, n) for u, n in projected.rows() if is_true(eval_expr(c.where, g, u, functions))]
        return Bag(projected.fields, kept)

    if isinstance(c, ast.Unwind):
        if c.name in t.fields:
            raise NameClash(f"UNWIND alias `{c.name}` is already a field")
        rows = []
        for u, count in t.rows():
            v = eval_expr(c.expr, g, u, functions)
            rows += [({**u, c.name: x}, count) for x in (v if isinstance(v, tuple) else (v,))]
        return Bag(t.fields + (c.name,), rows)

    raise TypeError(f"not a clause: {c!r}")


def oracle_run_query(
    q: ast.Query,
    g: PropertyGraph,
    t: Bag,
    functions: FunctionRegistry | None = None,
) -> Bag:
    # q1 UNION q2 UNION … q_n parses left-deep; list the branches q2 … q_n
    # from the outside in, then combine q1 with each in source order.
    unions = []
    while isinstance(q, ast.UnionQuery):
        unions.append(q)
        q = q.left
    cur = t
    for c in q.clauses:
        cur = oracle_run_clause(c, g, cur, functions)
    result = _oracle_project(q.ret.star, q.ret.items, g, cur, functions)
    for union in reversed(unions):
        right = oracle_run_query(union.right, g, t, functions)
        if right.fields != result.fields:
            raise FieldMismatch(f"field sets differ: {list(result.fields)} vs {list(right.fields)}")
        result = Bag(result.fields, [*result.rows(), *right.rows()])  # multiplicities add
        if not union.all:
            result = Bag(result.fields, [(u, 1) for u, _ in result.rows()])
    return result


def oracle_output(q: ast.Query, g: PropertyGraph, functions: FunctionRegistry | None = None) -> Bag:
    return oracle_run_query(q, g, Bag((), [({}, 1)]), functions)


# ---------------------------------------------------------------------------
# Differential harness
# ---------------------------------------------------------------------------


def outcome(fn: Callable, *args):
    """The table fn(*args) returns, or the CypherError it raises."""
    try:
        return fn(*args)
    except CypherError as exc:
        return exc


def agree(a, b) -> bool:
    """Two outcomes agree when both are errors, or both are tables with the
    same normal form.  A table that lists a record twice has none, so it
    agrees with nothing.  Errors agree whatever their kinds: enumeration
    order may surface a different offending expression first."""
    if isinstance(a, CypherError) or isinstance(b, CypherError):
        return isinstance(a, CypherError) and isinstance(b, CypherError)
    got = _normal_form(a)
    return got is not None and got == _normal_form(b)


def _describe(o) -> object:
    """An outcome as a case's detail records it: the sorted rows, or
    error:<kind> (the class name for an error that is not an EvalError)."""
    if isinstance(o, CypherError):
        return f"error:{o.kind if isinstance(o, EvalError) else type(o).__name__}"
    return sorted("(" + ", ".join(f"{f}={u[f]!r}" for f in o.fields) + f") x{count}" for u, count in o.rows())


def differential_case(
    g: PropertyGraph,
    q: ast.Query,
    functions: FunctionRegistry | None = None,
) -> tuple[bool, dict]:
    """Run both implementations and whether their outcomes `agree`, with the
    query text and each side's outcome as the detail."""
    eng = outcome(engine_output, q, g, functions)
    orc = outcome(oracle_output, q, g, functions)
    return agree(eng, orc), {"query": unparse_query(q), "engine": _describe(eng), "oracle": _describe(orc)}


def case_document(g: PropertyGraph, q: ast.Query, extra: Optional[dict] = None) -> dict:
    """Self-contained replayable form of a case (graph schema + query text)."""
    doc = {"graph": g.to_document(), "query": unparse_query(q)}
    if extra:
        doc.update(extra)
    return doc


def load_case(doc: dict) -> tuple[PropertyGraph, ast.Query]:
    """The graph and query of a case document, such as `minicypher gen`
    writes for a disagreement."""
    return load_graph(doc["graph"]), parse_query(doc["query"])


def save_failure(directory: str, name: str, doc: dict) -> str:
    path = FsPath(directory)
    path.mkdir(parents=True, exist_ok=True)
    target = path / f"{name}.json"
    target.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return str(target)


# ---------------------------------------------------------------------------
# Case generation
# ---------------------------------------------------------------------------


def gen_case(cfg: GenConfig) -> tuple[PropertyGraph, ast.Query]:
    """One deterministic pseudo-random case; the seed fixes graph and query."""
    rng = random.Random(cfg.seed)
    return load_graph(graph_document(rng, cfg)), query(rng, cfg)
