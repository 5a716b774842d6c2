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
|R| hops, making the search finite.  The search keeps its frames on an
explicit stack, so Python's recursion depth does not grow with path length.
A slot's frame extends it by one hop per relationship and, where the range
lets the slot stop there, places the slot and the node after it in the same
frame, so a one-hop witness resumes one frame per hop.

Name conditions, labels, relationship types and endpoint orientation are
checked during the walk (they are error-free and prune the search).
Anchors that carry labels draw their candidates from the graph's label
index.  A path whose last node is bound (by the incoming record or an
earlier path of the tuple) while its first is not, or whose last node alone
carries labels, properties or a WHERE seek (below), is walked from its last
node with every direction flipped; names, relationship lists and path
values are still bound in pattern order, so each reversed walk is one
forward witness.

Property-map checks form one list in pattern order (per hop for a ranged
slot), and the first check that is not trilean true decides a witness.
After each placement the checks run in that order from the first one not
yet run, stopping at the first whose slot is not placed yet or that reads
a name the input or the pattern binds and the prefix does not bind yet (a
name nothing binds cannot make a check wait: reading it raises):

* a check that comes out false, null or any non-true value prunes the
  prefix, since every completion would fail on it;
* a check that raises is held, every later check is left alone, and the
  error is raised at the first structural completion below the prefix
  (no completion, no error).

So by the time a witness completes, every check has run on it or an
error is held.

The WHERE of a MATCH clause is one more check, last in the list, so it
never runs where a pattern check would prune.

Walked forward, the witnesses, their order and the error raised are those
of a search that runs every check on the completed witness.  Walked from
the far end, the order changes, so *which* error is raised may differ, but
never *whether* one is.

An unbound anchor seeks the graph's property index instead of scanning
when no error is held and the next check is ``anchor.k = e``, e reading
bound names only (the first entry of its property map, or a WHERE that is
exactly ``x.k = e`` or ``e = x.k``), e is a bool, int or str, and no node
stores a scalar of another kind under ``k``: the seek drops exactly the
nodes on which the check is false or null without raising.

A search is planned once and run per input row.  :func:`plan_match`
works out what depends only on the clause and the input's fields: the
match bag's fields and the input fields it depends on (the engine's memo
key); for each path its walk end, its anchor's kind (bound, seek, label
index or scan) with the check a seek stands for, and its slots in walk
order, each with its direction, range, names, next-node labels and check
groups; the check groups in pattern order; whether witnesses enter
unkeyed; and how a row is built.  A search holds only one row's state: the
bindings, the relationships used, the placed elements and the check cursor.

A row of the match bag is a tuple of the bindings in the bag's field
order, which the plan fixes.  Each binding is made of ids (an id, a
relationship list or a path), so the match bag is a table of ``ids``.  A
witness enters it unkeyed when its row fixes it: every element of the
tuple is named, or every path is named, each with a fresh name, and no
path has more than one ranged slot (the path values fix the witness).
Otherwise it enters keyed, which merges each row at its first witness.

The plan marks a hop as a *leaf* when its slot is rigid and is the last of
the tuple's last path, which is unnamed; neither the slot nor the node
after it has a property map; and each of their names is anonymous or
fresh: not an input field, not bound earlier in the tuple, and not the
other's name.  Where a frame would start a leaf hop while the check cursor
is past every group (no check is left and no error is held), one plain
loop runs it instead: it places each usable relationship and the node
after it as the frame would and emits the row.  Every row, the leaf's or a
completed witness's, enters the match bag through ``_Search._emit``,
keyed or unkeyed, so rows, their order, counts and counters are the
generic frame's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Iterator, NamedTuple, Optional

from . import ast
from .ast import PathPattern, PatternTuple, RelPattern, expr_names, range_of
from .errors import EvalError
from .evaluator import eq_values, eval_expr
from .graph import PropertyGraph
from .tables import Record, Table, getter
from .values import FunctionRegistry, NodeId, Path, RelId

_FLIP = {ast.RIGHT: ast.LEFT, ast.LEFT: ast.RIGHT, ast.UNDIRECTED: ast.UNDIRECTED}

# A frame of the search: a generator that yields the frames continuing it.
_Frame = Iterator["_Frame"]


@dataclass
class MatchStats:
    """Counters for the termination/coverage assertions in tests."""

    walks_extended: int = 0
    max_partial_hops: int = 0
    witnesses: int = 0


class Hop(NamedTuple):
    """A relationship slot of a walk and the node after it, in walk order."""

    direction: str  # as walked: flipped on a far-end walk
    types: frozenset[str]
    lo: int
    hi: Optional[int]
    rigid: bool  # no range: the slot binds a relationship, not a list
    name: Optional[str]
    gid: int  # the slot's check group, or -1
    listed: bool  # the slot's relationships are read: it is named or checked
    hop_checks: bool  # a ranged slot walked forward with checks: they run hop by hop
    node: Optional[str]  # the name, labels and check group of the node after the slot
    labels: frozenset[str]
    ngid: int
    more: bool  # another slot follows on this walk
    complete: bool  # the last slot of the tuple's last path, which is unnamed
    leaf: bool  # rigid, complete, unchecked, and binding only fresh names: see _leaf


class Walk(NamedTuple):
    """One path of the tuple: its anchor, then its slots in walk order."""

    path: Optional[str]  # the path name
    far: bool  # walked from its last node
    anchor: str  # "bound", "seek", "label" (the label index) or "scan"
    node: Optional[str]  # the name, labels and check group of the anchor
    labels: frozenset[str]
    gid: int
    seek: Optional[tuple[int, str, ast.Expr]]  # (group, k, e) of the check `anchor.k = e`
    hops: tuple[Hop, ...]


class MatchPlan(NamedTuple):
    """Everything about a MATCH's search that no input row's values change."""

    fields: tuple[str, ...]  # of the match bag: the pattern's names the input does not bind
    relevant: tuple[str, ...]  # the input fields the bag depends on
    walks: tuple[Walk, ...]
    groups: tuple[tuple, ...]  # the checks of each element with a property map, then the WHERE's:
    # each (key or None, e, the names e waits for)
    placed: tuple  # the search's first ``placed``
    unkeyed: bool  # witnesses enter unkeyed: every element is named, or by the named-path rule
    row: Callable[[Record], tuple]  # the match bag's row, in field order, from the bindings


def _far_end_first(pat: PathPattern, bound: set[str], seeks: dict[str, tuple]) -> bool:
    """Whether to walk pat from its last node: that end is bound and the
    first is not, or neither is and only the last has labels, properties
    or a WHERE seek."""
    first, last = pat.elements[0], pat.elements[-1]
    if first is last:
        return False
    first_bound, last_bound = first.name in bound, last.name in bound
    if first_bound or last_bound:
        return last_bound and not first_bound
    return (bool(last.labels or last.props or last.name in seeks)
            and not (first.labels or first.props or first.name in seeks))


def plan_match(c: PatternTuple | ast.Match, fields: Collection[str]) -> MatchPlan:
    """The plan of a pattern tuple, or of a MATCH clause with its WHERE,
    for input rows over ``fields``."""
    pats, where = (c.patterns, c.where) if isinstance(c, ast.Match) else (c, None)
    # x -> (k, e, names of e) for a WHERE `x.k = e` or `e = x.k`
    where_seeks: dict[str, tuple] = {}
    if isinstance(where, ast.Cmp) and where.op == "=":
        for side, e in ((where.left, where.right), (where.right, where.left)):
            if isinstance(side, ast.Prop) and isinstance(side.base, ast.Name):
                where_seeks.setdefault(side.base.name, (side.key, e, expr_names(e)))
    groups: list[tuple] = []
    walks: list[Walk] = []
    named = True  # every element is named: the bindings tell the witnesses apart
    paths_fix = True  # every path is named and has at most one ranged slot (see the module docstring)
    bound, free, read = set(fields), set(), set()
    every_name: list[str] = []  # each name, once for each element or path it names
    for pi, pat in enumerate(pats.paths):
        far = _far_end_first(pat, bound, where_seeks)
        steps, names, ranged = [], [] if pat.name is None else [pat.name], 0
        for el in pat.elements:
            gid = -1
            ranged += isinstance(el, RelPattern) and el.range_ is not None  # a ranged slot
            if el.name is None:
                named = False
            else:
                names.append(el.name)
            if el.props:
                gid = len(groups)
                checks = tuple([(key, e, expr_names(e)) for key, e in el.props])
                groups.append(checks)
                for check in checks:
                    read |= check[2]
            steps.append((el, gid))
        if far:
            steps.reverse()
        (el, gid), last = steps[0], pi + 1 == len(pats.paths)
        seek = groups[gid][0] if gid >= 0 else where_seeks.get(el.name)
        if el.name in bound:
            anchor, seek = "bound", None
        elif seek is not None and seek[2] <= bound:  # e reads only names bound before the anchor
            # the anchor's own first check, or the WHERE, after every pattern check
            gi = gid if gid >= 0 else sum(1 for p in pats.paths for x in p.elements if x.props)
            anchor, seek = "seek", (gi, seek[0], seek[1])
        else:
            anchor, seek = "label" if el.labels else "scan", None
        hops = []
        for k in range(1, len(steps), 2):
            (rel, rgid), (nel, ngid) = steps[k], steps[k + 1]
            (lo, hi), rigid, more = range_of(rel), rel.range_ is None, k + 2 < len(steps)
            complete = not more and last and pat.name is None
            leaf = (complete and rigid and rgid < 0 and ngid < 0
                    and (rel.name is None or rel.name != nel.name)
                    and bound.union(e.name for e, _ in steps[:k]).isdisjoint({rel.name, nel.name} - {None}))
            hops.append(Hop(
                _FLIP[rel.direction] if far else rel.direction, rel.types, lo, hi, rigid,
                rel.name, rgid, rel.name is not None or rgid >= 0, rgid >= 0 and not far and not rigid,
                nel.name, nel.labels, ngid, more, complete, leaf))
        walks.append(Walk(pat.name, far, anchor, el.name, el.labels, gid, seek, tuple(hops)))
        paths_fix &= pat.name is not None and ranged <= 1
        every_name += names
        bound.update(names)
        free.update(names)
    placed = (None,) * len(groups)
    if where is not None:  # placed from the start, on no element
        names = expr_names(where)
        groups.append(((None, where, names),))
        read |= names
        placed += ((None,),)
    # a check waits only for the names the input or the pattern binds: reading any other raises
    waits = tuple(tuple([(key, e, names & bound) for key, e, names in checks]) for checks in groups)
    out = tuple(sorted(free.difference(fields)))
    unkeyed = named or paths_fix and all(every_name.count(w.path) == 1 and w.path not in fields for w in walks)
    return MatchPlan(
        out, tuple(f for f in fields if f in read or f in free), tuple(walks), waits,
        placed + (None,), unkeyed, getter(out))  # placed[-1]


class _Search:
    """One enumeration of a plan's witnesses under a record: the plan
    holds everything that no row's values change, the search the rest.

    ``b`` holds the bindings of the current prefix, ``used`` its
    relationships.  ``placed[i]`` is the sequence of ids that the plan's
    check group i runs on, or None while its element is not placed: a
    node's ``(n,)``, a relationship slot's relationships in pattern order,
    ``(None,)`` for the WHERE.  A ranged slot walked forward holds its live
    list of hops while it may still grow, and a tuple once it stops.
    ``cursor`` is (group, id, key, held error) of the first check not yet
    run; frames save it before a placement and restore it when they undo
    one.  ``placed[-1]`` takes the writes for elements with no checks.
    """

    def __init__(self, plan: MatchPlan, g: PropertyGraph, u: Record,
                 functions: FunctionRegistry | None, stats: MatchStats, out: Table):
        self.plan, self.g, self.functions, self.stats, self.out = plan, g, functions, stats, out
        self.b = dict(u)
        self.used: set[RelId] = set()
        self.placed: list = list(plan.placed)
        self.cursor: tuple = (0, 0, 0, None)
        self.maps = g.trusted_maps()

    def run(self) -> None:
        if not self.plan.walks:  # the empty tuple has one witness
            if self._checks_pass():
                self._complete()
            return
        stack: list[_Frame] = [self._anchor(0)]
        while stack:
            frame = next(stack[-1], None)
            if frame is None:
                stack.pop()
            else:
                stack.append(frame)

    # -- frames ----------------------------------------------------------

    def _anchor(self, pi: int) -> _Frame:
        """Start path pi at every candidate for its first walked node."""
        _, _, anchor, name, labels, gid, seek, hops = self.plan.walks[pi]
        g, b, placed, unchecked = self.g, self.b, self.placed, not self.plan.groups
        node_labels = self.maps[3]  # every candidate is a node of g
        if anchor == "bound":
            v = b[name]
            candidates = (v,) if isinstance(v, NodeId) and g.has_id(v) else ()
        else:
            candidates = None if seek is None else self._seek(*seek)
            if candidates is None:
                candidates = g.nodes_with_labels(labels)
        for n in candidates:
            fresh = None if labels and not labels <= node_labels[n] else self._bind(name, n)
            if fresh is None:
                continue
            saved = self.cursor
            placed[gid] = (n,)
            if unchecked or self._checks_pass():
                if not hops:
                    yield self._path_end(pi, [n], [])
                elif hops[0].leaf and self.cursor[0] == len(self.plan.groups):
                    self._leaf(hops[0], n, 1)
                else:
                    yield self._hops(pi, 0, [n], [], [])
            self.cursor = saved
            placed[gid] = None
            if fresh:
                del b[name]

    def _seek(self, gi: int, key: str, e: ast.Expr) -> Optional[tuple[NodeId, ...]]:
        """Candidates for the anchor from the property index, or None to
        scan (see the module docstring for when a seek applies), when the
        cursor is at the check `anchor.key = e` of group gi.  A held error
        keeps the cursor at the check that raised, and the check a seek
        stands in for cannot run while the anchor is unbound, so no error
        is held when the cursor is at it."""
        if self.cursor[0] != gi:
            return None
        try:
            return self.g.nodes_with_prop(key, eval_expr(e, self.g, self.b, self.functions))
        except Exception:  # e raises or is no value: the scan raises it where it did
            return None

    def _hops(self, pi: int, k: int, nodes: list[NodeId], rels: list[RelId],
              seg: list[RelId]) -> _Frame:
        """Slot k of walk pi, len(seg) hops in: stop with no hop if the
        range starts at 0, then extend by each usable relationship, stopping
        there (placing the slot and the next node here) and going a hop
        deeper in a new frame as the range allows."""
        walk = self.plan.walks[pi]
        (direction, types, lo, hi, rigid, name, gid, listed, hop_checks, nname, labels, ngid,
         more, complete, _) = walk.hops[k]
        g, b, used, stats, placed = self.g, self.b, self.used, self.stats, self.placed
        src, tgt, rel_type, node_labels = self.maps  # the adjacency's ids need no check
        m, cur, groups = len(seg), nodes[-1], len(self.plan.groups)
        unchecked, leaf = not groups, more and walk.hops[k + 1].leaf
        hop_checks = hop_checks and m == 0
        if hop_checks:  # a ranged slot walked forward: its checks run as hops are placed
            placed[gid] = seg
        extend = (hi is None or m < hi) and len(used) < len(g.rels)
        moves = g.incident(cur, direction) if extend else ()
        if m == 0 == lo:
            moves = (None, *moves)  # the stop with no hop
        ends = src if direction == ast.LEFT else tgt
        undirected, stops, deeper = direction == ast.UNDIRECTED, m + 1 >= lo, hi is None or m + 1 < hi
        depth = len(rels) + 1
        for r in moves:
            if r is not None:
                if r in used or (types and rel_type[r] not in types):
                    continue
                used.add(r)
                seg.append(r)
                rels.append(r)
                nodes.append(src[r] if undirected and ends[r] is cur else ends[r])
                stats.walks_extended += 1
                if depth > stats.max_partial_hops:
                    stats.max_partial_hops = depth
            saved = self.cursor
            if r is None or rigid or unchecked or self._checks_pass():
                n = nodes[-1]
                if (r is None or stops) and (not labels or labels <= node_labels[n]):
                    in_order = ((r,) if rigid else tuple(reversed(seg) if walk.far else seg)
                                if listed else ())
                    rfresh = name is not None and self._bind(name, r if rigid else in_order)
                    nfresh = None if rfresh is None else nname is not None and self._bind(nname, n)
                    if nfresh is not None:
                        hop_cursor, before = self.cursor, placed[gid]
                        placed[gid], placed[ngid] = in_order, (n,)
                        if unchecked or self._checks_pass():
                            if leaf and self.cursor[0] == groups:
                                self._leaf(walk.hops[k + 1], n, depth + 1)
                            elif more:
                                yield self._hops(pi, k + 1, nodes, rels, [])
                            elif complete:
                                self._complete()
                            else:
                                yield self._path_end(pi, nodes, rels)
                        self.cursor, placed[gid], placed[ngid] = hop_cursor, before, None
                        if nfresh:
                            del b[nname]
                    if rfresh:
                        del b[name]
                if r is not None and deeper:
                    yield self._hops(pi, k, nodes, rels, seg)
            self.cursor = saved
            if r is not None:
                nodes.pop()
                rels.pop()
                seg.pop()
                used.discard(r)
        if hop_checks:
            placed[gid] = None

    def _path_end(self, pi: int, nodes: list[NodeId], rels: list[RelId]) -> _Frame:
        """Bind the path name, then start the next path or complete the tuple."""
        walk = self.plan.walks[pi]
        fresh = False
        if walk.path is not None:
            p = Path(tuple(reversed(nodes)), tuple(reversed(rels))) if walk.far else Path(tuple(nodes), tuple(rels))
            fresh = self._bind(walk.path, p)
            if fresh is None:
                return
        saved = self.cursor
        if not self.plan.groups or self._checks_pass():
            if pi + 1 < len(self.plan.walks):
                yield self._anchor(pi + 1)
            else:
                self._complete()
        self.cursor = saved
        if fresh:
            del self.b[walk.path]

    def _leaf(self, hop: Hop, cur: NodeId, depth: int) -> None:
        """A leaf hop from cur with no check left: what its frame would do,
        in one loop, emitting a row per usable relationship."""
        direction, types, labels, name, nname = hop.direction, hop.types, hop.labels, hop.name, hop.node
        g, b, used, stats = self.g, self.b, self.used, self.stats
        if len(used) >= len(g.rels):
            return
        src, tgt, rel_type, node_labels = self.maps
        ends, undirected = src if direction == ast.LEFT else tgt, direction == ast.UNDIRECTED
        row, extended = self.plan.row, 0
        for r in g.incident(cur, direction):
            if r in used or (types and rel_type[r] not in types):
                continue
            extended += 1
            n = src[r] if undirected and ends[r] is cur else ends[r]
            if labels and not labels <= node_labels[n]:
                continue
            if name is not None:
                b[name] = r
            if nname is not None:
                b[nname] = n
            self._emit(row(b))
        b.pop(name, None)  # the leaf's names are fresh
        b.pop(nname, None)
        if extended:
            stats.walks_extended += extended
            stats.max_partial_hops = max(stats.max_partial_hops, depth)

    # -- bindings and checks ------------------------------------------------

    def _bind(self, name: Optional[str], value) -> Optional[bool]:
        """Bind name to value, made of ids (so == is identity of canon forms):
        True if newly bound, False if already bound to it (or anonymous), else None."""
        if name is None:
            return False
        b = self.b
        if name in b:
            return False if b[name] == value else None
        b[name] = value
        return True

    def _complete(self) -> None:
        """Raise the error held on the witness's prefix, or emit its row:
        every check has run by now, unless an error is held."""
        if self.cursor[3] is not None:
            raise self.cursor[3]
        self._emit(self.plan.row(self.b))

    def _emit(self, row: tuple) -> None:
        """Enter a witness's row, a tuple in the match bag's field order."""
        self.stats.witnesses += 1
        if self.plan.unkeyed:  # no other witness binds this row
            self.out.add_new(row)
        else:
            self.out.add(row)

    def _checks_pass(self) -> bool:
        """Run the checks that can run now; False when one prunes the prefix."""
        gi, h, ki, held = self.cursor
        groups = self.plan.groups
        if held is not None or gi == len(groups):
            return True
        g, b, placed = self.g, self.b, self.placed
        while gi < len(groups):
            ids = placed[gi]
            if ids is None:
                break
            if h == len(ids):
                if type(ids) is list:  # a ranged slot that may still grow
                    break
                gi, h = gi + 1, 0
                continue
            checks = groups[gi]
            key, expr, names = checks[ki]
            if not b.keys() >= names:
                break
            try:
                v = eval_expr(expr, g, b, self.functions)
                ok = (v if key is None else eq_values(g.prop(ids[h], key), v)) is True
            except Exception as exc:  # held whatever it is
                if key is not None and isinstance(exc, EvalError) and exc.span is None:
                    exc.span = expr.span  # the entry's equality raised, as eval_expr places it
                held = exc
                break
            if not ok:
                return False
            ki += 1
            if ki == len(checks):
                ki, h = 0, h + 1
        self.cursor = (gi, h, ki, held)
        return True


def match_tuple(
    pats: PatternTuple | ast.Match | MatchPlan,
    g: PropertyGraph,
    u: Record,
    functions: FunctionRegistry | None = None,
    stats: Optional[MatchStats] = None,
) -> Table:
    """The bag of binding extensions u′ over free(pats) − dom(u).

    The multiplicity of u′ is the number of (rigid pattern, path tuple)
    pairs witnessing it.  Names already bound in ``u`` act as constraints;
    a binding incompatible with the graph simply yields no rows.  Given a
    MATCH clause, the bag keeps the u′ whose WHERE is true on u and u′.
    Given a plan, u binds the fields it was planned for, or at least the
    plan's ``relevant`` ones: the bag reads no other.
    """
    plan = pats if isinstance(pats, MatchPlan) else plan_match(pats, u)
    out = Table(plan.fields, ids=True)
    _Search(plan, g, u, functions, stats if stats is not None else MatchStats(), out).run()
    return out
