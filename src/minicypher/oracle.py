"""Brute-force reference implementation and random case generation.

The functions here recompute pattern matching and clause semantics from
the definitions with no shortcuts, no pruning beyond the hop bound forced
by relationship distinctness, and no shared code with the optimized
matcher/engine: `oracle_match` literally enumerates every (rigid pattern,
path tuple) pair and counts the witnesses, and `oracle_run_query` re-states
the table transformations row by row.  Expressions are evaluated by the
ordinary evaluator in both implementations — the differential target is
the matching and table algebra, and the evaluator is verified separately
by its own exhaustive suites.

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

`gen_case` produces deterministic pseudo-random (graph, query) cases. The
generator is biased toward the sharp corners: zero-length ranges, repeated
variables, undirected slots, anonymous patterns, nulls, and the occasional
deliberately ill-typed expression (both implementations must then agree
that the query has no defined result).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path as FsPath
from typing import Callable, Iterable, Iterator, Optional

from . import ast
from .ast import free_vars
from .engine import output as engine_output
from .errors import AliasClash, CypherError, EvalError, FieldMismatch, NameClash, StarOnEmptyFields
from .evaluator import eq_values, eval_expr, is_true
from .graph import BOTH, PropertyGraph, load_graph
from .parser import KEYWORDS, parse_query, unparse_expr, unparse_query
from .tables import Record
from .values import FunctionRegistry, NodeId, Path, RelId, canon, same_value

Walk = tuple[tuple[NodeId, ...], tuple[RelId, ...]]


class Bag:
    """The oracle's own bag, ``{canon row key: [record, count]}``.  It has a
    Table's ``fields`` and ``rows()``, and equals anything that has them and
    lists the same records with the same counts, each record once."""

    def __init__(self, fields: Iterable[str], rows: Iterable[tuple[Record, int]] = ()):
        self.fields: tuple[str, ...] = tuple(sorted(set(fields)))
        self._rows: dict[tuple, list] = {}
        for u, count in rows:  # add each, equal records merging
            if set(u) != set(self.fields):
                raise AssertionError(f"non-uniform record: has {sorted(u)}, fields {list(self.fields)}")
            self._rows.setdefault(tuple(canon(u[f]) for f in self.fields), [dict(u), 0])[1] += count

    def rows(self) -> Iterator[tuple[Record, int]]:
        return ((u, count) for u, count in self._rows.values())

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


def _all_walks(g: PropertyGraph) -> dict[int, list[Walk]]:
    """Every path over g, grouped by hop count.

    A path may traverse each relationship in either orientation but never
    twice, so |R| bounds the length and the enumeration is finite.
    """
    by_len: dict[int, list[Walk]] = {h: [] for h in range(len(g.rels) + 1)}

    def extend(nodes: list[NodeId], rels: list[RelId]) -> None:
        by_len[len(rels)].append((tuple(nodes), tuple(rels)))
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


def is_rigid(pat: ast.PathPattern) -> bool:
    """Every slot of pat admits exactly one hop count."""
    return all(lo == hi for lo, hi in map(ast.range_of, pat.rel_patterns()))


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
    new_fields = tuple(sorted(free_vars(pats) - set(u.keys())))
    found = [({f: v[f] for f in new_fields}, 1)
             for v, checks in _witnesses(pats, g, u, _all_walks(g))
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
    walks = _all_walks(g)
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
        for u, count in t.rows():
            kept = [({**u, **u2}, count * n) for u2, n in oracle_match(c.patterns, g, u, functions).rows()]
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


@dataclass(frozen=True)
class GenConfig:
    """The settings of one generated case; the seed fixes it all."""

    seed: int = 0
    # Chance that a pattern property map is a pair of checks in random
    # order: one comparing the str key with a literal (often false or
    # null), one reading a node name's property of a random key, which is
    # ill-typed where the kinds differ.  At 0 no random number is drawn, so
    # the cases of every seed stay as they were.
    check_pairs: float = 0.0
    # Chance that a node's value of the int key is a string, and that a
    # MATCH's WHERE is `x.k = lit` or `lit = x.k` on a node name, alone or
    # in a strict AND with a comparison that may be ill-typed.  At 0 no
    # random number is drawn.
    mixed_kinds: float = 0.0


# The alphabets and bounds of every generated case.
_MAX_NODES = _MAX_RELS = 5
_MAX_SLOTS = _MAX_CLAUSES = 3
_NODE_LABELS = ("P", "Q", "R")
_REL_TYPES = ("a", "b")
# Every property key has one value kind, so generated comparisons against
# stored properties are mostly well-typed.
_KEYS = ("k", "v", "w")
_KIND_OF_KEY = {"k": "int", "v": "str", "w": "list"}
_INT_KEYS, _STR_KEYS, _LIST_KEYS = ("k",), ("v",), ("w",)  # a choice of one key still draws


def _gen_value(rng: random.Random, kind: str):
    if kind == "int":
        return rng.randint(0, 3)
    if kind == "str":
        return rng.choice(("x", "y", "zz"))
    return [rng.randint(0, 2) for _ in range(rng.randint(0, 3))]


def _gen_graph(rng: random.Random, cfg: GenConfig) -> PropertyGraph:
    n_nodes = rng.randint(1, _MAX_NODES)
    n_rels = rng.randint(0, _MAX_RELS)
    nodes = []
    for i in range(n_nodes):
        labels = [lab for lab in _NODE_LABELS if rng.random() < 0.4]
        props = {key: _gen_value(rng, "str" if key in _INT_KEYS and cfg.mixed_kinds
                                 and rng.random() < cfg.mixed_kinds else _KIND_OF_KEY[key])
                 for key in _KEYS if rng.random() < 0.5}
        nodes.append({"id": f"n{i + 1}", "labels": labels, "properties": props})
    rels = []
    for i in range(n_rels):
        props = {key: _gen_value(rng, _KIND_OF_KEY[key]) for key in _KEYS if rng.random() < 0.3}
        rels.append({
            "id": f"r{i + 1}",
            "type": rng.choice(_REL_TYPES),
            "src": f"n{rng.randint(1, n_nodes)}",
            "tgt": f"n{rng.randint(1, n_nodes)}",
            "properties": props,
        })
    return load_graph({"nodes": nodes, "relationships": rels})


_NODE_VARS = ("x", "y", "z", "t")
_REL_VARS = ("r", "s", "q")
_PATH_VARS = ("p1", "p2")

_RANGES = (
    (0, 1), (1, 2), (0, 2), (2, 2), (1, 3), (0, None), (1, None),
    (None, 2), (None, None), (2, 1),
)
_RANGE_WEIGHTS = tuple(1 if r == (2, 1) else 4 for r in _RANGES)  # the empty range is rare


class _QueryGen:
    """Stateful helper that tracks the in-scope fields while generating."""

    def __init__(self, rng: random.Random, cfg: GenConfig):
        self.rng = rng
        self.cfg = cfg
        self.kinds: dict[str, str] = {}  # each in-scope field's kind, in field order
        self.fresh_n = 0

    # -- small utilities --------------------------------------------------

    def fresh(self, prefix: str = "c") -> str:
        while True:
            self.fresh_n += 1
            name = f"{prefix}{self.fresh_n}"
            if name not in self.kinds:
                return name

    def vars_of(self, *kinds: str) -> list[str]:
        return [f for f, kind in self.kinds.items() if kind in kinds]

    # -- expressions -------------------------------------------------------

    def int_expr(self, depth: int) -> ast.Expr:
        rng = self.rng
        choices = ["lit"]
        if self.vars_of("node", "rel"):
            choices += ["prop", "prop"]
        if self.vars_of("int"):
            choices += ["var", "var"]
        if depth > 0:
            choices += ["fn", "index", "size"]
        kind = rng.choice(choices)
        if kind == "var":
            return ast.Name(rng.choice(self.vars_of("int")))
        if kind == "prop":
            return ast.Prop(ast.Name(rng.choice(self.vars_of("node", "rel"))), rng.choice(_INT_KEYS))
        if kind == "fn" and depth > 0:
            name = rng.choice(("plus", "minus", "mult"))
            return ast.FnCall(name, (self.int_expr(depth - 1), self.int_expr(depth - 1)))
        if kind == "index" and depth > 0:
            return ast.Index(self.list_expr(depth - 1), ast.Lit(rng.randint(-2, 3)))
        if kind == "size" and depth > 0:
            return ast.FnCall("size", (self.list_expr(depth - 1),))
        if rng.random() < 0.08:
            return ast.Lit(None)
        return ast.Lit(rng.randint(0, 3))

    def str_expr(self, depth: int) -> ast.Expr:
        rng = self.rng
        if self.vars_of("node", "rel") and rng.random() < 0.5:
            return ast.Prop(ast.Name(rng.choice(self.vars_of("node", "rel"))), rng.choice(_STR_KEYS))
        if depth > 0 and rng.random() < 0.15:
            return ast.FnCall(rng.choice(("toUpper", "toLower")), (self.str_expr(depth - 1),))
        if rng.random() < 0.08:
            return ast.Lit(None)
        return ast.Lit(rng.choice(("x", "y", "zz", "")))

    def list_expr(self, depth: int) -> ast.Expr:
        rng = self.rng
        roll = rng.random()
        if roll < 0.25 and self.vars_of("rellist"):
            return ast.Name(rng.choice(self.vars_of("rellist")))
        if roll < 0.5 and self.vars_of("node", "rel"):
            return ast.Prop(ast.Name(rng.choice(self.vars_of("node", "rel"))), rng.choice(_LIST_KEYS))
        if roll < 0.65 and depth > 0:
            lo = rng.randint(-1, 2)
            return ast.Slice(self.list_expr(depth - 1), ast.Lit(lo),
                             ast.Lit(rng.randint(lo, 4)) if rng.random() < 0.7 else None)
        n = rng.randint(0, 3)
        return ast.ListLit(tuple(ast.Lit(rng.randint(0, 2)) for _ in range(n)))

    def any_expr(self, depth: int) -> ast.Expr:
        rng = self.rng
        roll = rng.random()
        if roll < 0.3:
            return self.int_expr(depth)
        if roll < 0.5:
            return self.str_expr(depth)
        if roll < 0.65:
            return self.list_expr(depth)
        if roll < 0.85:
            return self.bool_expr(depth)
        if self.kinds and roll < 0.95:
            return ast.Name(rng.choice(list(self.kinds)))
        return ast.Lit(None)

    def bool_expr(self, depth: int) -> ast.Expr:
        rng = self.rng
        if depth <= 0:
            return ast.Lit(rng.choice((True, False, None)))
        roll = rng.random()
        if roll < 0.05:
            # Deliberately wild: likely a type error; both sides must agree.
            return ast.Cmp(rng.choice(("<", "=", "<=")), self.any_expr(0), self.any_expr(0))
        if roll < 0.30:
            op = rng.choice(("<", "<=", ">=", ">", "=", "<>"))
            if rng.random() < 0.5:
                return ast.Cmp(op, self.int_expr(depth - 1), self.int_expr(depth - 1))
            return ast.Cmp(op, self.str_expr(depth - 1), self.str_expr(depth - 1))
        if roll < 0.40:
            nodes = self.vars_of("node")
            if len(nodes) >= 1:
                a = rng.choice(nodes)
                b = rng.choice(nodes)
                return ast.Cmp(rng.choice(("=", "<>")), ast.Name(a), ast.Name(b))
            return ast.IsNull(self.any_expr(depth - 1), rng.random() < 0.5)
        if roll < 0.50:
            return ast.IsNull(self.any_expr(depth - 1), rng.random() < 0.5)
        if roll < 0.60:
            return ast.StrOp(rng.choice(("STARTS WITH", "ENDS WITH", "CONTAINS")),
                             self.str_expr(depth - 1), self.str_expr(depth - 1))
        if roll < 0.70:
            return ast.InList(self.int_expr(depth - 1), self.list_expr(depth - 1))
        if roll < 0.80:
            return ast.Not(self.bool_expr(depth - 1))
        ctor = rng.choice((ast.And, ast.Or, ast.Xor))
        return ctor(self.bool_expr(depth - 1), self.bool_expr(depth - 1))

    # -- patterns ----------------------------------------------------------

    def node_pattern(self, tuple_node_names: list[str]) -> ast.NodePattern:
        rng = self.rng
        name = None
        if rng.random() < 0.75:
            name = rng.choice(_NODE_VARS)
            if name not in tuple_node_names:
                tuple_node_names.append(name)
        n_labels = rng.choices((0, 1, 2), weights=(55, 35, 10))[0]
        labels = frozenset(rng.sample(_NODE_LABELS, n_labels))
        props = self.pattern_props(tuple_node_names)
        return ast.NodePattern(name, labels, props)

    def pattern_props(self, tuple_node_names: list[str]) -> tuple:
        rng = self.rng
        if tuple_node_names and self.cfg.check_pairs and rng.random() < self.cfg.check_pairs:
            return self.check_pair(tuple_node_names)
        if rng.random() >= 0.25:
            return ()
        key = rng.choice(_KEYS)
        roll = rng.random()
        if roll < 0.15 and tuple_node_names:
            value: ast.Expr = ast.Prop(ast.Name(rng.choice(tuple_node_names)), key)
        elif roll < 0.20:
            value = ast.Lit(None)
        elif roll < 0.25:
            value = ast.Lit(rng.choice(("zz", 1)))  # may be the wrong kind on purpose
        else:
            raw = _gen_value(rng, _KIND_OF_KEY[key])
            if isinstance(raw, list):
                value = ast.ListLit(tuple(ast.Lit(x) for x in raw))
            else:
                value = ast.Lit(raw)
        return ((key, value),)

    def check_pair(self, tuple_node_names: list[str]) -> tuple:
        rng = self.rng
        read = ast.Prop(ast.Name(rng.choice(tuple_node_names)), rng.choice(_KEYS))
        pair = [("k", read), ("v", ast.Lit(rng.choice(("x", "y", "zz"))))]  # the int key, the str key
        rng.shuffle(pair)
        return tuple(pair)

    def rel_pattern(self, tuple_node_names: list[str]) -> ast.RelPattern:
        rng = self.rng
        direction = rng.choice((ast.RIGHT, ast.LEFT, ast.UNDIRECTED))
        name = rng.choice(_REL_VARS) if rng.random() < 0.4 else None
        n_types = rng.choices((0, 1, 2), weights=(50, 35, 15))[0]
        types = frozenset(rng.sample(_REL_TYPES, n_types))
        range_ = None if rng.random() < 0.5 else rng.choices(_RANGES, weights=_RANGE_WEIGHTS)[0]
        props = self.pattern_props(tuple_node_names)
        return ast.RelPattern(direction, name, types, props, range_)

    def path_pattern(self, n_slots: int, tuple_node_names: list[str]) -> ast.PathPattern:
        rng = self.rng
        elements: list = [self.node_pattern(tuple_node_names)]
        for _ in range(n_slots):
            elements.append(self.rel_pattern(tuple_node_names))
            elements.append(self.node_pattern(tuple_node_names))
        name = rng.choice(_PATH_VARS) if rng.random() < 0.12 else None
        return ast.PathPattern(tuple(elements), name)

    def pattern_tuple(self) -> ast.PatternTuple:
        rng = self.rng
        tuple_node_names: list[str] = []
        n_paths = 2 if rng.random() < 0.2 else 1
        budget = _MAX_SLOTS
        paths = []
        for _ in range(n_paths):
            n_slots = rng.randint(0, budget)
            budget -= n_slots
            paths.append(self.path_pattern(n_slots, tuple_node_names))
        return ast.PatternTuple(tuple(paths))

    def register_pattern(self, pats: ast.PatternTuple) -> None:
        for path in pats.paths:
            if path.name is not None:
                self._add_field(path.name, "path")
            for el in path.elements:
                if el.name is None:
                    continue
                if isinstance(el, ast.NodePattern):
                    self._add_field(el.name, "node")
                elif el.range_ is None:
                    self._add_field(el.name, "rel")
                else:
                    self._add_field(el.name, "rellist")

    def _add_field(self, name: str, kind: str) -> None:
        self.kinds = dict(sorted({**self.kinds, name: kind}.items()))

    # -- clauses -----------------------------------------------------------

    def match_clause(self, optional: bool) -> ast.Match:
        pats = self.pattern_tuple()
        self.register_pattern(pats)
        rng, cfg, nodes = self.rng, self.cfg, self.vars_of("node")
        if cfg.mixed_kinds and nodes and rng.random() < cfg.mixed_kinds:
            sides = [ast.Prop(ast.Name(rng.choice(nodes)), rng.choice(_KEYS[:2])),
                     ast.Lit(rng.choice((1, 2, "x", "zz")))]
            rng.shuffle(sides)
            where: Optional[ast.Expr] = ast.Cmp("=", *sides)
            if rng.random() < 0.5:
                other = ast.Cmp(rng.choice(("=", "<")), ast.Prop(ast.Name(rng.choice(nodes)),
                                rng.choice(_KEYS)), ast.Lit(rng.choice((1, "x"))))
                where = ast.And(*rng.sample([where, other], 2))
        else:
            where = self.bool_expr(2) if rng.random() < 0.35 else None
        return ast.Match(pats, optional, where)

    def with_clause(self) -> ast.With:
        rng = self.rng
        star = bool(self.kinds) and rng.random() < 0.5
        items: list[ast.Item] = []
        new_kinds: dict[str, str] = {}
        if star:
            new_kinds = dict(self.kinds)
            for _ in range(rng.randint(0, 1)):
                alias = self.fresh()
                items.append((self.any_expr(1), alias))
                new_kinds[alias] = "value"
        else:
            n_items = rng.randint(1, min(2, len(self.kinds) + 1))
            for _ in range(n_items):
                if self.kinds and rng.random() < 0.45:
                    name = rng.choice(list(self.kinds))
                    if name in new_kinds:
                        continue
                    items.append((ast.Name(name), None))  # bare name, no AS
                    new_kinds[name] = self.kinds[name]
                else:
                    alias = self.fresh()
                    items.append((self.any_expr(1), alias))
                    new_kinds[alias] = "value"
        where = self.bool_expr(2) if rng.random() < 0.3 else None
        clause = ast.With(star, tuple(items), where)
        self.kinds = dict(sorted(new_kinds.items()))
        return clause

    def unwind_clause(self) -> ast.Unwind:
        rng = self.rng
        roll = rng.random()
        if roll < 0.55:
            expr: ast.Expr = ast.ListLit(tuple(
                ast.Lit(rng.randint(0, 2)) for _ in range(rng.randint(0, 3))))
        elif roll < 0.8:
            expr = self.list_expr(1)
        elif roll < 0.9:
            expr = self.int_expr(0)  # non-list: unwinds to itself
        else:
            expr = ast.Lit(None)
        name = self.fresh("u")
        clause = ast.Unwind(expr, name)
        self._add_field(name, "value")
        return clause

    def return_clause(self) -> ast.Return:
        rng = self.rng
        if self.kinds and rng.random() < 0.4:
            return ast.Return(True, ())
        items: list[ast.Item] = []
        used_names: set[str] = set()
        for _ in range(rng.randint(1, 3)):
            expr = self.any_expr(1)
            if rng.random() < 0.25:
                name = unparse_expr(expr)
                if name in used_names:
                    continue
                items.append((expr, None))
                used_names.add(name)
            else:
                alias = self.fresh()
                items.append((expr, alias))
                used_names.add(alias)
        if not items:
            items.append((ast.Lit(1), self.fresh()))
        return ast.Return(False, tuple(items))

    def clause_query(self, forced_aliases: Optional[list[str]] = None) -> ast.ClauseQuery:
        rng = self.rng
        clauses: list[ast.Clause] = []
        for _ in range(rng.randint(1, _MAX_CLAUSES)):
            if not self.kinds:
                roll = rng.random()
                if roll < 0.6:
                    clauses.append(self.match_clause(optional=False))
                elif roll < 0.75:
                    clauses.append(self.match_clause(optional=True))
                else:
                    clauses.append(self.unwind_clause())
            else:
                roll = rng.random()
                if roll < 0.4:
                    clauses.append(self.match_clause(optional=False))
                elif roll < 0.55:
                    clauses.append(self.match_clause(optional=True))
                elif roll < 0.75:
                    clauses.append(self.with_clause())
                else:
                    clauses.append(self.unwind_clause())
        if forced_aliases is not None:
            items = tuple((self.any_expr(1), alias) for alias in forced_aliases)
            return ast.ClauseQuery(tuple(clauses), ast.Return(False, items))
        return ast.ClauseQuery(tuple(clauses), self.return_clause())


def gen_case(cfg: GenConfig) -> tuple[PropertyGraph, ast.Query]:
    """One deterministic pseudo-random case; the seed fixes graph and query."""
    rng = random.Random(cfg.seed)
    g = _gen_graph(rng, cfg)
    gen = _QueryGen(rng, cfg)
    if rng.random() < 0.12:
        left = gen.clause_query()
        aliases = _result_names(left)
        right_gen = _QueryGen(rng, cfg)
        if aliases is not None:
            right = right_gen.clause_query(forced_aliases=aliases)
            q: ast.Query = ast.UnionQuery(left, right, all=rng.random() < 0.5)
            return g, q
        return g, left
    return g, gen.clause_query()


def _result_names(q: ast.ClauseQuery) -> Optional[list[str]]:
    """Output names of a RETURN when the other UNION branch can re-declare
    them with AS: statically known (no star) and plain identifiers (an
    unaliased item like `x.k` names its column after its own text, which
    no explicit alias may spell)."""
    if q.ret.star:
        return None
    names = []
    for expr, alias in q.ret.items:
        name = alias if alias is not None else unparse_expr(expr)
        if not name.isidentifier() or name.upper() in KEYWORDS:
            return None
        names.append(name)
    return names
