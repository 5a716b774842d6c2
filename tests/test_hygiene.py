"""Static checks over the library's source text."""

import ast
import re
from pathlib import Path

import pytest

import minicypher
from minicypher import values
from minicypher.ast import LEFT_OPERAND, OPERATORS, Cmp, Not
from minicypher.errors import EvalError
from minicypher.evaluator import _CHAIN_RULES
from minicypher.values import NodeId, RelId

SRC = Path(__file__).resolve().parent.parent / "src" / "minicypher"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _top_level_imports(tree):
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_read(path):
    # __init__.py is left out: its imports are re-exports
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unread = [name for name in _top_level_imports(tree) if name not in read]
    assert not unread, f"{path.name} imports {unread} and never reads them"


def _ties(tree, modules):
    """(module.name, alias) of each import in tree from one of modules."""
    ties = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            ties += [(a.name, a.asname) for a in node.names if modules & set(a.name.split("."))]
        elif isinstance(node, ast.ImportFrom):
            parts = set((node.module or "").split("."))
            ties += [(f"{node.module}.{a.name}", a.asname) for a in node.names
                     if modules & (parts | {a.name})]
    return ties


def _reads_only_in(tree, names, fn_name):
    """Whether tree reads names, and only in its top-level function fn_name."""
    def reads(node):
        return sum(isinstance(n, ast.Name) and n.id in names for n in ast.walk(node))

    fn = next(fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == fn_name)
    return reads(tree) == reads(fn) > 0


def test_oracle_is_independent_of_matcher_and_engine():
    # The oracle restates the semantics instead of borrowing them, so that
    # it can check the engine.  Its one tie to the engine is the engine
    # under test: the differential harness imports engine.output as
    # engine_output and reads it in differential_case alone.
    tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    assert _ties(tree, {"matcher", "engine"}) == [("engine.output", "engine_output")]
    assert _reads_only_in(tree, {"engine_output"}, "differential_case")


def test_the_generator_is_independent_of_both_sides():
    # The generator draws the cases that the harness judges, so it borrows
    # nothing from either implementation or the harness, and the oracle
    # reaches it in gen_case alone.
    gen = ast.parse((SRC / "gen.py").read_text(encoding="utf-8"))
    assert not _ties(gen, {"matcher", "engine", "evaluator", "oracle"})
    oracle = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    taken = {alias or name.rsplit(".", 1)[1] for name, alias in _ties(oracle, {"gen"})}
    assert taken and _reads_only_in(oracle, taken, "gen_case")


def test_outcomes_agree_by_one_rule():
    # Equal bags, or both sides raise: the differential harness, the CLI's
    # --oracle and Bag equality all judge by oracle.agree, which alone reads
    # the normal form.
    def reads(node, name):
        return sum(isinstance(n, ast.Name) and n.id == name for n in ast.walk(node))

    readers, callers = set(), set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = dict(_functions(tree, path.stem))
        readers |= {name for name, fn in functions.items() if reads(fn, "_normal_form")}
        callers |= {name for name, fn in functions.items() if any(
            isinstance(n, ast.Call) and getattr(n.func, "id", None) == "agree" for n in ast.walk(fn))}
        if path.name == "oracle.py":
            assert reads(tree, "_normal_form") == reads(functions["oracle.agree"], "_normal_form")
    assert readers == {"oracle.agree"}
    assert {"oracle.differential_case", "cli._run"} <= callers


def test_oracle_keeps_its_own_bag():
    # The differential harness checks the engine's bag layer only if the
    # oracle does not share it: of tables.py it takes the Record alias alone.
    tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            taken += [a.name for a in node.names if "tables" in a.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            if "tables" in (node.module or "").split("."):
                taken += [a.name for a in node.names]
            else:
                taken += [a.name for a in node.names if a.name == "tables"]
    assert taken == ["Record"]


def _top_level_reads(path):
    """((module, name) read, (module, top-level definition reading it)) for
    each read in path of a name defined at the top level of a module: a
    bare name, resolved through `from .module import`, or `module.name`
    after `from . import module`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    origin, modules = {}, set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None:
                    modules.add(a.asname or a.name)
                else:
                    origin[a.asname or a.name] = (node.module, a.name)
    for top in tree.body:
        where = (path.stem, getattr(top, "name", None))
        for n in ast.walk(top):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                yield origin.get(n.id, (path.stem, n.id)), where
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules:
                yield (n.value.id, n.attr), where


def test_every_top_level_definition_is_read_or_exported():
    # Production modules hold only what runs: each top-level function and
    # class is read in src/ outside its own body, or the package exports
    # it.  A helper that only tests read lives with those tests.
    reads = {read for path in sorted(SRC.glob("*.py")) for read, where in _top_level_reads(path) if read != where}
    assert {("gen", "graph_document"), ("ast", "Prop"), ("cli", "main_entry")} <= reads
    defined = {(path.stem, node.name) for path in MODULES
               for node in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    unread = sorted(f"{module}.{name}" for module, name in defined - reads if name not in minicypher.__all__)
    assert not unread, f"read by no module of src/ and not exported: {unread}"


def _isinstance_naming_bool(tree):
    """(enclosing top-level function or None, line) of each isinstance call
    whose class argument names bool."""
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))):
                yield (top.name if isinstance(top, ast.FunctionDef) else None, node.lineno)


def _reads_raw_json(module, fn):
    # The readers of raw JSON turn Python's json output into values, so
    # they must tell bool from int by hand: graph.py's loader.
    return (module, fn) in {("graph.py", "_value_from_json"), ("graph.py", "_expect")}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "values.py"], ids=lambda p: p.name)
def test_only_values_kind_and_raw_json_readers_test_for_bool(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [(fn, line) for fn, line in _isinstance_naming_bool(tree) if not _reads_raw_json(path.name, fn)]
    assert not found, f"{path.name} tests isinstance(…, bool) outside values.kind: {found}"


@pytest.mark.parametrize("cls", [NodeId, RelId], ids=lambda c: c.__name__)
def test_ids_hash_and_compare_by_identity(cls):
    # Ids are interned, so object identity is their equality; a Python-level
    # __hash__ or __eq__ would put a call on every id-keyed lookup.
    assert cls.__hash__ is object.__hash__
    assert cls.__eq__ is object.__eq__


def test_the_untagged_classes_of_values_are_closed():
    # A value whose exact type is in UNTAGGED is its own row key, and == on
    # it is identity of canon forms; a subclass could break that, so each
    # such class defined in values.py refuses one.
    closed = {cls for cls in values.UNTAGGED if cls.__module__ == values.__name__}
    assert closed == {NodeId, RelId, values.Path}
    for cls in closed:
        with pytest.raises(TypeError, match="cannot be subclassed"):
            type("Sub", (cls,), {"__slots__": ()})


def test_tables_names_no_id_or_path_class():
    # Rows are keyed by the untagged rule and canon alone, with no case for
    # ids or paths.
    tree = ast.parse((SRC / "tables.py").read_text(encoding="utf-8"))
    named = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    named |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    named |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert "canon" in named and not named & {"NodeId", "RelId", "Path"}


# Each site that enters rows unkeyed, with Table.add_new or Table.add_among,
# rests on a reason that its rows are distinct by construction, or can equal
# only each other, stated in the notes.  UNWIND, in run_clause, is the one
# merge of rows that can equal only each other.
UNKEYED_SITES = {
    "engine._match_rows": {"add_new"},
    "engine._project": {"add_new"},
    "engine.run_clause": {"add_new", "add_among"},
    "matcher._Search._emit": {"add_new"},
    "tables.distinct": {"add_new"},
}


def _functions(tree, prefix):
    """(qualified name, node) of every module-level function and method; a
    function defined inside another is scanned as part of it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}.{node.name}")


def test_unkeyed_sites_are_pinned():
    found = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, fn in _functions(tree, path.stem):
            methods = {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)} & {"add_new", "add_among"}
            if methods:
                found[name] = methods
    assert found == UNKEYED_SITES


def test_rows_enter_the_match_bag_through_emit_alone():
    # _emit holds the choice between keyed and unkeyed rows, so
    # the leaf loop and _complete enter rows alike.  (`used`, the set of
    # relationships used, is the one other receiver of an `add`.)
    def adds_rows(fn):
        return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr in {"add", "add_new", "add_among"}
                   and getattr(n.func.value, "id", None) != "used" for n in ast.walk(fn))

    tree = ast.parse((SRC / "matcher.py").read_text(encoding="utf-8"))
    found = {name for name, fn in _functions(tree, "matcher")
             if name.startswith("matcher._Search.") and adds_rows(fn)}
    assert found == {"matcher._Search._emit"}


# Each site that makes a table with ids, which keys each row by the row
# itself, rests on a reason that the table holds only nulls and values made
# of ids, stated in the notes: a match bag and the unit table by what they
# hold, every other table by being built from such tables alone.
IDS_SITES = {
    "engine._match_rows": "t.ids",
    "engine._project": "t.ids and not exprs",
    "engine.run_clause": "out.ids",
    "matcher.match_tuple": "True",
    "tables.bag_union": "t1.ids and t2.ids",
    "tables.distinct": "t.ids",
    "tables.unit_table": "True",
}


def test_ids_sites_are_pinned():
    found = {}
    for path in MODULES:
        for name, fn in _functions(ast.parse(path.read_text(encoding="utf-8")), path.stem):
            for expr in (ast.unparse(k.value) for n in ast.walk(fn) if isinstance(n, ast.Call)
                         for k in n.keywords if k.arg == "ids"):
                assert name not in found, f"{name} makes two tables with ids"
                found[name] = expr
    assert found == {name: ast.unparse(ast.parse(expr, mode="eval")) for name, expr in IDS_SITES.items()}


def _determinism():
    notes = (SRC.parent.parent / "docs" / "semantics-notes.md").read_text(encoding="utf-8")
    return notes.split("## Determinism", 1)[1].split("\n## ", 1)[0]


def test_unkeyed_sites_are_named_in_the_notes():
    determinism = _determinism()
    missing = sorted(site for site in UNKEYED_SITES.keys() | {"Table.add_among"} if f"`{site}`" not in determinism)
    assert not missing, f"docs/semantics-notes.md, Determinism, does not name {missing}"


def test_ids_sites_are_named_in_the_notes():
    determinism = _determinism()
    missing = sorted(site for site in IDS_SITES if f"`{site}`" not in determinism)
    assert not missing, f"docs/semantics-notes.md, Determinism, does not name {missing}"


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "tables.py"],
                         ids=lambda p: p.name)
def test_only_tables_keys_rows(path):
    # A row's key and its position belong to tables.py: the other modules
    # merge rows through Table methods, never by a key of their own.
    assert "row_key" not in path.read_text(encoding="utf-8")


# The static analysis of a pattern runs in matcher.plan_match, once per
# MATCH clause; a search runs once per input row that misses the memo.
STATIC_ANALYSIS = {"free_vars", "expr_names", "range_of", "_far_end_first"}


def _static_calls(fn):
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if called in STATIC_ANALYSIS:
                yield called


def test_the_search_does_no_static_analysis():
    tree = ast.parse((SRC / "matcher.py").read_text(encoding="utf-8"))
    functions = dict(_functions(tree, "matcher"))
    methods = {name: fn for name, fn in functions.items() if name.startswith("matcher._Search.")}
    assert {"matcher._Search._anchor", "matcher._Search._seek", "matcher._Search._hops"} <= methods.keys()
    found = {name: sorted(set(_static_calls(fn))) for name, fn in methods.items() if any(_static_calls(fn))}
    assert not found, f"methods of _Search analyse the pattern: {found}"
    assert set(_static_calls(functions["matcher.plan_match"])) == STATIC_ANALYSIS - {"free_vars"}


# Every field of a match plan is read by the search or the engine: a field
# that only plan_match writes is dead.  A plan, walk or hop is reached as
# `plan`/`self.plan`, `walk`/`….walks[i]` and `hop`/`….hops[i]`; a field
# is read as an attribute of one, or unpacked into a name the function reads.
PLAN_CLASSES = {"plan": "MatchPlan", "walks": "Walk", "walk": "Walk", "hops": "Hop", "hop": "Hop"}


def _plan_class(node):
    """The plan class that node, an expression, evaluates to, or None."""
    element = isinstance(node, ast.Subscript)
    if element:
        node = node.value
    name = getattr(node, "attr", getattr(node, "id", None))
    if (name in {"walks", "hops"}) is not element:  # walks and hops are read by element alone
        return None
    return PLAN_CLASSES.get(name)


def _unread_plan_fields(sources):
    """The fields of MatchPlan, Walk and Hop, declared in sources["matcher"],
    that no function of the sources other than plan_match reads."""
    fields, read = {}, set()
    for module, text in sources.items():
        tree = ast.parse(text)
        fields.update({c.name: [f.target.id for f in c.body if isinstance(f, ast.AnnAssign)]
                       for c in tree.body if isinstance(c, ast.ClassDef) and c.name in PLAN_CLASSES.values()})
        for name, fn in _functions(tree, module):
            if name == "matcher.plan_match":
                continue
            loaded = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for n in ast.walk(fn):
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and _plan_class(n.value):
                    read.add((_plan_class(n.value), n.attr))
                elif isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Tuple) and _plan_class(n.value):
                    read.update((_plan_class(n.value), i) for i, target in enumerate(n.targets[0].elts)
                                if isinstance(target, ast.Name) and target.id in loaded)
    return sorted(f"{cls}.{f}" for cls, names in fields.items() for i, f in enumerate(names)
                  if (cls, f) not in read and (cls, i) not in read)


def _plan_sources():
    return {m: (SRC / f"{m}.py").read_text(encoding="utf-8") for m in ("matcher", "engine")}


def test_every_plan_field_is_read():
    assert not _unread_plan_fields(_plan_sources())


def test_a_plan_field_left_without_readers_is_caught():
    sources = _plan_sources()
    declared = "    unkeyed: bool  # witnesses enter unkeyed"
    assert sources["matcher"].count(declared) == 1
    sources["matcher"] = sources["matcher"].replace(declared, "    twins: bool\n" + declared)
    assert _unread_plan_fields(sources) == ["MatchPlan.twins"]


# Table's layout (parallel lists of rows and counts, and the key index
# from row key to position) is read by tables.py alone.  Its rows by
# position, through tuples(), are read by the engine and the CLI alone:
# the oracle and everything else read records, through rows().
TABLE_PRIVATE = {"_records", "_counts", "_index"}
POSITIONAL = "tuples"
READ_BY_POSITION = {"engine.py", "cli.py"}


def _attributes(path):
    return {(n.attr, n.lineno) for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(n, ast.Attribute)}


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "tables.py"],
                         ids=lambda p: p.name)
def test_only_tables_reads_the_table_layout(path):
    private = TABLE_PRIVATE | (set() if path.name in READ_BY_POSITION else {POSITIONAL})
    found = sorted((attr, line) for attr, line in _attributes(path) if attr in private)
    assert not found, f"{path.name} reads Table's private fields or its rows by position: {found}"


def test_the_layout_scan_sees_tables():
    assert {attr for attr, _ in _attributes(SRC / "tables.py")} >= TABLE_PRIVATE
    for name in READ_BY_POSITION:
        assert POSITIONAL in {attr for attr, _ in _attributes(SRC / name)}


def test_every_eval_error_kind_is_built_and_documented():
    # The kinds EvalError's docstring names are the ones some module builds,
    # as a literal first argument of EvalError, and the notes catalogue.
    named = set(re.findall(r"``(\w+)``", EvalError.__doc__)) - {"kind"}
    built = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "EvalError"
                    and node.args and isinstance(node.args[0], ast.Constant)):
                built.add(node.args[0].value)
    notes = (SRC.parent.parent / "docs" / "semantics-notes.md").read_text(encoding="utf-8")
    assert named == built
    assert not sorted(kind for kind in named if f"`{kind}`" not in notes)


def test_chained_operators_agree():
    # Every operator of the table but the prefix NOT and the comparisons,
    # whose chains become conjunctions, chains left-deep: the parser builds
    # it so, and the unparser and evaluator walk it iteratively.
    chained = {node for ops in OPERATORS for _, node in ops} - {Not, Cmp}
    assert set(LEFT_OPERAND) == set(_CHAIN_RULES) == chained


def test_evaluation_errors_are_placed_by_one_rule():
    # An EvalError takes the span of the innermost expression whose own rule
    # raised it: the rules raise it unplaced, and eval_expr places it (or
    # _eval_chain, for a chained operator) unless an inner one already did.
    def params(fn):
        return {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}

    tree = ast.parse((SRC / "evaluator.py").read_text(encoding="utf-8"))
    functions = dict(_functions(tree, "evaluator"))
    placing = {name for name, fn in functions.items()
               if any(isinstance(n, ast.Attribute) and n.attr == "span" and isinstance(n.ctx, ast.Store)
                      for n in ast.walk(fn))}
    assert placing == {"evaluator.eval_expr", "evaluator._eval_chain"}
    assert not sorted(name for name, fn in functions.items() if "span" in params(fn))
    built_placed = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
                    and getattr(n.func, "id", None) == "EvalError" and (len(n.args) > 2 or n.keywords)]
    assert not built_placed, f"evaluator.py builds placed errors at lines {built_placed}"
    errors = dict(_functions(ast.parse((SRC / "errors.py").read_text(encoding="utf-8")), "errors"))
    assert params(errors["errors.type_mismatch"]) == {"message"}
    assert params(errors["errors.unknown_name"]) == {"name"}
