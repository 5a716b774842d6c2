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
a name not bound yet:

* a check that comes out false, null or any non-true value prunes the
  prefix, since every completion would fail on it;
* a check that raises is held, every later check is left alone, and the
  error is raised at the first structural completion below the prefix
  (no completion, no error);
* the checks still waiting run on each completed witness.

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

A twin is a relationship that shares its unordered endpoint pair with
another one.  When every node pattern is named and every anonymous slot is
one hop, two witnesses that bind one row differ in an anonymous slot between
the same two nodes, both placing a twin there.  So the witnesses that place
no twin in an anonymous slot enter unkeyed, and the rest merge among
themselves, each row at its first witness, as a keyed search lists them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from . import ast
from .ast import PathPattern, PatternTuple, RelPattern, expr_names, free_vars, range_of
from .errors import EvalError
from .evaluator import eq_values, eval_expr
from .graph import PropertyGraph
from .tables import Record, Table, row_key
from .values import FunctionRegistry, NodeId, Path, RelId, same_value

_FLIP = {ast.RIGHT: ast.LEFT, ast.LEFT: ast.RIGHT, ast.UNDIRECTED: ast.UNDIRECTED}

# A frame of the search: a generator that yields the frames continuing it.
_Frame = Iterator["_Frame"]


@dataclass
class MatchStats:
    """Counters for the termination/coverage assertions in tests."""

    walks_extended: int = 0
    max_partial_hops: int = 0
    witnesses: int = 0


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


class _Search:
    """One enumeration of a pattern tuple's witnesses under a record.

    ``b`` holds the bindings of the current prefix, ``used`` its
    relationships.  The property checks are ``groups`` (one per pattern
    element with a property map, in pattern order, then the WHERE as one
    check with key None); ``placed[i]`` is the node of group i, or for a
    relationship slot its relationships in pattern order and whether the
    slot's hop count is final, or None while the element is not placed.
    ``cursor`` is (group, hop, key, held error) of the first check not yet
    run; frames save it before a placement and restore it when they undo
    one.  ``placed[-1]`` takes the writes for elements with no checks.
    """

    def __init__(self, pats: PatternTuple, where: Optional[ast.Expr], g: PropertyGraph,
                 u: Record, functions: FunctionRegistry | None, stats: MatchStats, out: Table):
        self.g, self.functions, self.stats, self.out = g, functions, stats, out
        self.b = dict(u)
        self.used: set[RelId] = set()
        self.groups: list[tuple[tuple, bool]] = []
        self.walks: list[tuple[PathPattern, bool, list[tuple]]] = []
        # x -> (k, e, names of e) for a WHERE `x.k = e` or `e = x.k`
        self.where_seeks: dict[str, tuple] = {}
        if isinstance(where, ast.Cmp) and where.op == "=":
            for side, e in ((where.left, where.right), (where.right, where.left)):
                if isinstance(side, ast.Prop) and isinstance(side.base, ast.Name):
                    self.where_seeks.setdefault(side.base.name, (side.key, e, expr_names(e)))
        unkeyed, anonymous = True, False  # see _complete
        bound = set(u)
        for pat in pats.paths:
            far = _far_end_first(pat, bound, self.where_seeks)
            steps = []
            for el in pat.elements:
                gid = -1
                if el.name is None:
                    anonymous = True
                    unkeyed &= isinstance(el, RelPattern) and el.range_ is None
                if el.props:
                    gid = len(self.groups)
                    checks = tuple((key, e, expr_names(e)) for key, e in el.props)
                    self.groups.append((checks, isinstance(el, RelPattern)))
                if isinstance(el, RelPattern):
                    direction = _FLIP[el.direction] if far else el.direction
                    steps.append((el, gid, direction, *range_of(el)))
                else:
                    steps.append((el, gid))
            if far:
                steps.reverse()
            self.walks.append((pat, far, steps))
            bound |= free_vars(pat)
        self.placed: list = [None] * len(self.groups)
        if where is not None:  # placed from the start, on no element
            self.groups.append((((None, where, expr_names(where)),), False))
            self.placed.append(True)
        self.placed.append(None)  # placed[-1]
        self.cursor: tuple = (0, 0, 0, None)
        self.unchecked = not self.groups  # then the cursor never moves
        self.maps = g.trusted_maps()
        self.unkeyed = unkeyed
        self.twins = g.twins() if unkeyed and anonymous else None
        self.twinned = 0  # twins placed in anonymous slots
        self.merged: dict[tuple, list] = {}  # row key -> slot of a twinned witness's row

    def run(self) -> None:
        if not self.walks:  # the empty tuple has one witness
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
        steps = self.walks[pi][2]
        el, gid = steps[0]
        g, b, placed = self.g, self.b, self.placed
        if el.name is not None and el.name in b:
            v = b[el.name]
            candidates = (v,) if isinstance(v, NodeId) and g.has_id(v) else ()
        else:
            candidates = self._seek(el, gid)
            if candidates is None:
                candidates = g.nodes_with_labels(el.labels)
        for n in candidates:
            fresh = None if el.labels and not el.labels <= g.labels(n) else self._bind(el.name, n)
            if fresh is None:
                continue
            saved = self.cursor
            placed[gid] = n
            if self.unchecked or self._checks_pass():
                if len(steps) > 1:
                    yield self._hops(pi, 1, [n], [], [])
                else:
                    yield self._path_end(pi, [n], [])
            self.cursor = saved
            placed[gid] = None
            if fresh:
                del b[el.name]

    def _seek(self, el: ast.NodePattern, gid: int) -> Optional[tuple[NodeId, ...]]:
        """Candidates for the unbound anchor el from the property index, or
        None to scan (see the module docstring for when a seek applies).  A
        held error keeps the cursor at the check that raised, and the check
        a seek stands in for cannot run while the anchor is unbound, so no
        error is held when the cursor is at it."""
        gi = self.cursor[0]
        if gi == gid:
            key, e, names = self.groups[gi][0][0]
        elif gi == len(self.groups) - 1 and el.name in self.where_seeks:
            key, e, names = self.where_seeks[el.name]
        else:
            return None
        if not self.b.keys() >= names:
            return None
        try:
            return self.g.nodes_with_prop(key, eval_expr(e, self.g, self.b, self.functions))
        except Exception:  # e raises or is no value: the scan raises it where it did
            return None

    def _hops(self, pi: int, k: int, nodes: list[NodeId], rels: list[RelId],
              seg: list[RelId]) -> _Frame:
        """The relationship slot at walk step k, len(seg) hops in: stop with
        no hop if the range starts at 0, then extend by each usable
        relationship, stopping there (placing the slot and the next node
        here) and going a hop deeper in a new frame as the range allows."""
        pat, far, steps = self.walks[pi]
        el, gid, direction, lo, hi = steps[k]
        nel, ngid = steps[k + 1]
        g, b, used, stats, placed = self.g, self.b, self.used, self.stats, self.placed
        src, tgt, rel_type, node_labels = self.maps  # the adjacency's ids need no check
        m, cur, rigid, unchecked = len(seg), nodes[-1], el.range_ is None, self.unchecked
        hop_checks = gid >= 0 and not far and not rigid and m == 0
        if hop_checks:  # a ranged slot walked forward: its checks run as hops are placed
            placed[gid] = (seg, False)
        extend = (hi is None or m < hi) and len(used) < len(g.rels)
        moves = g.incident(cur, direction) if extend else ()
        if m == 0 == lo:
            moves = (None, *moves)  # the stop with no hop
        ends = src if direction == ast.LEFT else tgt  # ast and adjacency directions coincide
        undirected, stops, deeper = direction == ast.UNDIRECTED, m + 1 >= lo, hi is None or m + 1 < hi
        name, nname, labels = el.name, nel.name, nel.labels
        listed = name is not None or gid >= 0  # the slot's relationships are read
        twins = self.twins if name is None else None
        depth, more = len(rels) + 1, k + 2 < len(steps)
        complete = not more and pi + 1 == len(self.walks) and pat.name is None
        for r in moves:
            if r is not None:
                if r in used or (el.types and rel_type[r] not in el.types):
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
                    in_order = ((r,) if rigid else tuple(reversed(seg) if far else seg)
                                if listed else ())
                    rfresh = name is not None and self._bind(name, r if rigid else in_order)
                    nfresh = None if rfresh is None else nname is not None and self._bind(nname, n)
                    if nfresh is not None:
                        hop_cursor, before = self.cursor, placed[gid]
                        placed[gid], placed[ngid] = (in_order, True), n
                        twin = twins is not None and r in twins
                        if twin:
                            self.twinned += 1
                        if unchecked or self._checks_pass():
                            if more:
                                yield self._hops(pi, k + 2, nodes, rels, [])
                            elif complete:
                                self._complete()
                            else:
                                yield self._path_end(pi, nodes, rels)
                        if twin:
                            self.twinned -= 1
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
        pat, far, _ = self.walks[pi]
        fresh = False
        if pat.name is not None:
            p = Path(tuple(reversed(nodes)), tuple(reversed(rels))) if far else Path(tuple(nodes), tuple(rels))
            fresh = self._bind(pat.name, p)
            if fresh is None:
                return
        saved = self.cursor
        if self.unchecked or self._checks_pass():
            if pi + 1 < len(self.walks):
                yield self._anchor(pi + 1)
            else:
                self._complete()
        self.cursor = saved
        if fresh:
            del self.b[pat.name]

    # -- bindings and checks ------------------------------------------------

    def _bind(self, name: Optional[str], value) -> Optional[bool]:
        """Bind name to value: True if newly bound, False if it already was
        (or is anonymous), None if it is bound to something else."""
        if name is None:
            return False
        b = self.b
        if name in b:
            return False if same_value(b[name], value) else None
        b[name] = value
        return True

    def _complete(self) -> None:
        if self.unchecked or self._checks_pass(final=True):
            self.stats.witnesses += 1
            b, out = self.b, self.out
            row = {f: b[f] for f in out.fields}
            if not self.unkeyed:
                out.add(row)
            elif not self.twinned:  # no other witness binds this row
                out.add_new(row)
            else:  # only other twinned witnesses can: merged at the first
                key = row_key(out.fields, row)
                slot = self.merged.get(key)
                if slot is None:
                    self.merged[key] = out.add_new(row)
                else:
                    slot[1] += 1

    def _checks_pass(self, final: bool = False) -> bool:
        """Run the checks that can run now; False when one prunes the prefix.

        On a completed witness (``final``) every check can run, and a held
        error or a raising check propagates.
        """
        gi, h, ki, held = self.cursor
        groups = self.groups
        if held is not None:
            if final:
                raise held
            return True
        if gi == len(groups):
            return True
        g, b, placed = self.g, self.b, self.placed
        while gi < len(groups):
            checks, is_rel = groups[gi]
            slot = placed[gi]
            if slot is None:
                break
            if is_rel:
                hops, fixed = slot
                if h == len(hops):
                    if not fixed:
                        break
                    gi, h = gi + 1, 0
                    continue
                ident = hops[h]
            else:
                ident = slot
            key, expr, names = checks[ki]
            if not final and not b.keys() >= names:
                break
            try:
                v = eval_expr(expr, g, b, self.functions)
                ok = (v if key is None else eq_values(g.prop(ident, key), v)) is True
            except Exception as exc:  # held whatever it is
                if key is not None and isinstance(exc, EvalError) and exc.span is None:
                    exc.span = expr.span  # the entry's equality raised, as eval_expr places it
                if final:
                    raise
                held = exc
                break
            if not ok:
                return False
            ki += 1
            if ki == len(checks):
                ki = 0
                if is_rel:
                    h += 1
                else:
                    gi += 1
        self.cursor = (gi, h, ki, held)
        return True


def match_tuple(
    pats: PatternTuple | ast.Match,
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
    """
    where = None
    if isinstance(pats, ast.Match):
        pats, where = pats.patterns, pats.where
    out = Table(free_vars(pats) - set(u.keys()))
    _Search(pats, where, g, u, functions, stats if stats is not None else MatchStats(), out).run()
    return out
