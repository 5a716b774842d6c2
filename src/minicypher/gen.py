"""Random case generation: deterministic pseudo-random graphs and queries.

`graph_document` and `query` draw a case from one `random.Random`, graph
first; `oracle.gen_case` seeds it and loads the graph.  The `GenConfig`
they are passed is the only setting they read.  The generator is biased
toward the sharp corners: zero-length ranges, repeated variables,
undirected slots, anonymous patterns, nulls, and the occasional
deliberately ill-typed expression (both implementations must then agree
that the query has no defined result).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import ast
from .parser import KEYWORDS, unparse_expr


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


def graph_document(rng: random.Random, cfg: GenConfig) -> dict:
    """A graph document drawn from rng under cfg, for `load_graph`."""
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
    return {"nodes": nodes, "relationships": rels}


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
        if depth > 0:
            choices += ["fn", "index", "size"]
        kind = rng.choice(choices)
        if kind == "prop":
            return ast.Prop(ast.Name(rng.choice(self.vars_of("node", "rel"))), rng.choice(_INT_KEYS))
        if kind == "fn":
            name = rng.choice(("plus", "minus", "mult"))
            return ast.FnCall(name, (self.int_expr(depth - 1), self.int_expr(depth - 1)))
        if kind == "index":
            return ast.Index(self.list_expr(depth - 1), ast.Lit(rng.randint(-2, 3)))
        if kind == "size":
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
            where: ast.Expr | None = ast.Cmp("=", *sides)
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
        return ast.Return(False, tuple(items))

    def clause_query(self, forced_aliases: list[str] | None = None) -> ast.ClauseQuery:
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


def query(rng: random.Random, cfg: GenConfig) -> ast.Query:
    """A query drawn from rng under cfg: a clause query, or now and then a
    UNION of two whose right branch re-declares the left's output names."""
    gen = _QueryGen(rng, cfg)
    if rng.random() < 0.12:
        left = gen.clause_query()
        aliases = _result_names(left)
        if aliases is not None:
            right = _QueryGen(rng, cfg).clause_query(forced_aliases=aliases)
            return ast.UnionQuery(left, right, all=rng.random() < 0.5)
        return left
    return gen.clause_query()


def _result_names(q: ast.ClauseQuery) -> list[str] | None:
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
