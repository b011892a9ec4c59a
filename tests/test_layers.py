"""The functions perfbench traces must exist under the names it looks up,
every other public name of src/ must have a caller, and every record is
built through its constructor or its module's one trusted builder.

perfbench/tracing.py wraps each (module, qualified name) in its LAYERS, and
BENCHMARK.json defines a per-layer metric on each.  A renamed or deleted
function would not fail the benchmark: its metric would read 0.  These
tests read both files without changing them.
"""

import ast
import copy
import importlib
import importlib.util
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from arithsite import belyi, bigpicture, conway, dessins, points, ratpoly, supernatural

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves(tracing):
    for mod, qual in tracing.LAYERS:
        owner = importlib.import_module(f"arithsite.{mod}")
        for part in qual.split("."):
            assert hasattr(owner, part), f"arithsite.{mod}.{qual} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"arithsite.{mod}.{qual} is not callable"


def test_every_layer_has_its_metrics(tracing):
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    for name in tracing.NAMES:
        assert {f"{name}.calls", f"{name}.self_s"} <= declared


def test_compose_is_traced_through_the_product(tracing):
    # compose runs Horner on one packed integer and calls no PolyQ product, so
    # the belyi-compose workload reads 0 PolyQ.__mul__ calls
    p, q = belyi.b_dk(5, 2), belyi.b_dk(4, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        belyi.compose(p, q)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tracer.calls["belyi.compose"] == 1
    assert tracer.calls["ratpoly.PolyQ.compose"] == 1
    assert tracer.calls["ratpoly.PolyQ.__mul__"] == 0
    assert not hasattr(ratpoly.PolyQ.__mul__, "__wrapped__")  # bindings restored


def _workload(monkeypatch, name: str):
    """A perfbench workload at seed 7."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return getattr(importlib.import_module("workloads"), name)(7, ROOT)


def _traced_round(tracing, work):
    """Round 0 of a perfbench workload: the tracer, the operations and their results,
    each operation traced and checked."""
    ops = work.round(0)
    tracer = tracing.Tracer()
    tracer.install()
    results = []
    try:
        for op in ops:
            tracer.active = True
            results.append(op.run())
            tracer.active = False
    finally:
        tracer.active = False
        tracer.uninstall()
    assert [op.check(got) for op, got in zip(ops, results)] == [None] * len(ops)
    return tracer, ops, results


def test_belyi_compose_counts_roots_through_the_squarefree_part(tracing, monkeypatch):
    # the composite carries its passport, so of the belyi-compose operation only
    # compose_count_check takes gcds: one of S o Q with Q', the inner map's
    # derivative, and one in the squarefree part S of each outer map the first
    # time the workload meets it, since each BelyiPoly keeps its S
    work = _workload(monkeypatch, "BelyiCompose")
    tracer, ops, _ = _traced_round(tracing, work)
    n = len(ops)
    outer = len({re.match(r"compose\(B(\(\d+, \d+\)), ", op.label)[1] for op in ops})
    assert n == 36 and 6 <= outer < n
    assert tracer.calls["ratpoly.squarefree_part"] == outer
    assert tracer.calls["ratpoly.poly_gcd"] == n + outer
    assert tracer.calls["ratpoly.multiplicity_counts"] == 0
    assert tracer.calls["belyi.is_dynamical_belyi"] == 0
    assert tracer.calls["belyi.compose"] == n
    assert tracer.calls["ratpoly.PolyQ.compose"] == 2 * n
    # round 0 again, on the same workload: every outer map kept its S
    tracer, ops, _ = _traced_round(tracing, work)
    assert tracer.calls["ratpoly.squarefree_part"] == 0
    assert tracer.calls["ratpoly.poly_gcd"] == len(ops)
    assert tracer.calls["ratpoly.PolyQ.compose"] == 2 * len(ops)


def test_preimage_trees_take_one_residual_pass_per_tree(tracing, monkeypatch):
    # each level takes one root solve on its (P, d) array, and one Newton step
    # inside it at degree 3 and up, none under the degree-2 closed form; the
    # residuals of all levels come from one chain_values pass
    tracer, _, trees = _traced_round(tracing, _workload(monkeypatch, "PreimageTrees"))
    depths = sum(len(t.levels) - 1 for t in trees)
    stepped = sum(len(t.levels) - 1 for t in trees if t.degree >= 3)
    assert 0 < stepped < depths
    assert tracer.calls["arboreal.build_tree"] == tracer.calls["kernels.chain_values"] == len(trees)
    assert tracer.calls["kernels.dk_batch"] == depths
    assert tracer.calls["kernels.newton_chain"] == stepped
    assert tracer.calls["kernels.min_pairwise_gap"] == 0


# Public names of src/arithsite that nothing in src/ or perfbench/ refers to,
# each with the reason it stays
UNCALLED = {
    # perfbench/tracing.py names these in LAYERS strings, not in code
    "ratpoly.primitive_form": "traced layer",
    "arboreal.composite": "traced layer",
    # constructs of the paper that the tests and acceptance criteria check
    "belyi.degree_morphism": "the degree morphism to the multiplicative integers",
    "belyi.involution_poly": "the involution 1 - P(1 - x), which swaps 0 and 1",
    "bigpicture.PIC_ONE": "the class 1 = (1, 0), from which delta measures hyper-distance",
    "bostconnes.section": "the section s_n(x) = x/n of the Bost-Connes datum",
    "bostconnes.torsion": "the n-torsion (1/n)Z/Z, the kernel of sigma_n, as Fractions",
    "dessins.UNIT": "the unit of dessin composition, the dessin of x",
    "points.chain_in_open": "localic open membership of a point",
    "points.chain_to_supernatural": "the supernatural limit of a site-A point",
    "supernatural.mul": "the semigroup product of supernatural numbers",
}


def _module_of(node: ast.ImportFrom) -> str | None:
    """The arithsite module a `from ... import` reads, or None."""
    if node.level == 1:
        return node.module or ""
    if node.module and node.module.startswith("arithsite"):
        return node.module.removeprefix("arithsite").removeprefix(".")
    return None


def _lazy_module(node: ast.AST) -> str | None:
    """The arithsite module of a cli handle `NAME = _Lazy("arithsite.MOD")`, or None."""
    if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
        return None
    call = node.value
    if isinstance(call.func, ast.Name) and call.func.id == "_Lazy" and isinstance(node.targets[0], ast.Name):
        name = call.args[0].value
        return name.removeprefix("arithsite.") if name.startswith("arithsite.") else None
    return None


def _references(path: Path, module: str | None) -> set[tuple[str, str]]:
    """(module, name) of each arithsite name that the file at path refers to,
    outside the top-level statement that defines that name."""
    tree = ast.parse(path.read_text())
    aliases, imported, imported_from_package = {}, {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (mod := _module_of(node)) is not None:
            for a in node.names:
                if mod == "":  # a submodule, or a name of arithsite/__init__.py
                    aliases[a.asname or a.name] = a.name
                    imported_from_package.add(a.name)
                else:
                    imported[a.asname or a.name] = (mod, a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("arithsite.") and a.asname:
                    aliases[a.asname] = a.name.removeprefix("arithsite.")
        elif (mod := _lazy_module(node)) is not None:
            aliases[node.targets[0].id] = mod
    refs = {("__init__", name) for name in imported_from_package}
    for stmt in tree.body:
        defined = {t.id for t in ast.walk(stmt) if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined.add(stmt.name)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                if node.id in imported:
                    refs.add(imported[node.id])
                elif module is not None and node.id not in defined:
                    refs.add((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                refs.add((aliases[node.value.id], node.attr))
    return refs


def _private_crossings(path: Path) -> set[str]:
    """module.name of each underscore name of another arithsite module that the
    file at path imports, or reads through a module alias or a cli handle."""
    found = {(mod, name) for mod, name in _references(path, path.stem) if mod != path.stem}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (mod := _module_of(node)) not in (None, path.stem):
            found |= {(mod or "__init__", a.name) for a in node.names}
    return {f"{mod}.{name}" for mod, name in found if name.startswith("_") and not name.startswith("__")}


def _public_names(path: Path) -> set[str]:
    names = set()
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if not n.startswith("_")}


SRC = sorted((ROOT / "src" / "arithsite").glob("*.py"))


def _uncalled(src) -> set[str]:
    """module.name of each public name of the src files that no src or perfbench file refers to."""
    refs = set()
    for path in src:
        refs |= _references(path, path.stem)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        refs |= _references(path, None)
    return {f"{p.stem}.{n}" for p in src for n in _public_names(p) if (p.stem, n) not in refs}


def test_every_src_name_has_a_caller():
    # a public name stays in src/ only if src/ or perfbench/ uses it, or it
    # is listed above; a name only tests use belongs in tests/oracles.py
    uncalled = _uncalled(SRC)
    assert not uncalled - set(UNCALLED), "no caller: move these to tests/oracles.py or delete them"
    assert not set(UNCALLED) - uncalled, "these have callers now: drop them from UNCALLED"


def test_no_private_name_crosses_a_module(tmp_path):
    # a module's underscore names are its own: no other src module imports one
    # or reads one through the module
    assert set().union(*map(_private_crossings, SRC)) == set()
    probe = tmp_path / "probe.py"
    probe.write_text("from .dessins import Passport, _parts\nfrom . import conway as cw\ncw._trusted\n")
    assert _private_crossings(probe) == {"dessins._parts", "conway._trusted"}


def test_a_name_only_a_handler_reads_needs_that_handler(tmp_path):
    # cli reads points.project through its handle pt, in the pt project handler
    # alone: without that handler the name has no caller
    cli = ROOT / "src" / "arithsite" / "cli.py"
    handler = """        "project": ("c", lambda a: pt.to_json(pt.project(pt.from_json(a.c)))),\n"""
    assert handler in cli.read_text()
    (tmp_path / "cli.py").write_text(cli.read_text().replace(handler, ""))
    src = [tmp_path / "cli.py" if p == cli else p for p in SRC]
    assert "points.project" not in _uncalled(SRC)
    assert "points.project" in _uncalled(src) - set(UNCALLED)


# The record rule (arithsite/__init__.py): each checking record, with field
# replacements that its constructor refuses or canonicalises
RECORD_PROBES = [
    (dessins.UNIT, {"n": 0}),
    (dessins.e_dessin(3, 1), {"alpha": (0, 1, 2), "beta": (0, 1, 2)}),  # not a tree
    (points.TruncatedChain("A", [2, 4]), {"entries": (-2,)}),
    (supernatural.Supernatural(((2, 1),)), {"default": -1}),
    (conway.Letter(3, 1), {"i": 4}),
    (conway.Letter(3, 1), {"p": 4}),
    (bigpicture.PicClass(3, Fraction(1, 2)), {"a": 0}),
    (bigpicture.PIC_ONE, {"b": 3}),  # not canonical: the class 1:0 again
    (ratpoly.Mat2Q(1, 2, 3, 4), {"b": "x"}),
]


def _constructor(cls):
    """The constructor on the record's fields; PicClass's fields (a, b, n) are the class (a/n, b/n)."""
    if cls is bigpicture.PicClass:
        return lambda a, b, n: cls(Fraction(a, n), Fraction(b, n))
    return cls


def _outcome(cls, build):
    """The record build() gives, or the type and message of its refusal; PicClass's
    _make words its refusals in terms of (a, b, n), so only their type is compared."""
    try:
        out = build()
    except ValueError as e:
        return ValueError, str(e) if cls is not bigpicture.PicClass else None
    assert type(out) is cls
    return out


@pytest.mark.parametrize("record, changes", RECORD_PROBES, ids=[f"{type(r).__name__}-{'-'.join(c)}" for r, c in RECORD_PROBES])
def test_records_build_through_their_constructor(record, changes):
    # _make, _replace and copy give what the constructor gives, or refuse what it refuses
    cls = type(record)
    changed = tuple(changes.get(f, v) for f, v in zip(cls._fields, record))
    assert _outcome(cls, lambda: cls._make(record)) == record == _outcome(cls, lambda: _constructor(cls)(*record))
    assert _outcome(cls, lambda: copy.copy(record)) == record
    expected = _outcome(cls, lambda: _constructor(cls)(*changed))
    assert _outcome(cls, lambda: cls._make(changed)) == expected
    assert _outcome(cls, lambda: record._replace(**changes)) == expected


def _rule_breaks(path: Path) -> tuple[list[str], int]:
    """Each use of tuple.__new__ outside a __new__ or a _trusted and each ._make( call
    in the module at path, and how many top-level _trusted builders it defines."""
    tree = ast.parse(path.read_text())
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def owner(node) -> str:
        """The name of the function around node, or the targets of its top-level assignment."""
        while parent[node] is not tree:
            node = parent[node]
            if isinstance(node, ast.FunctionDef):
                return node.name
        return ",".join(ast.unparse(t) for t in node.targets) if isinstance(node, ast.Assign) else ""

    breaks = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "tuple.__new__":
            if owner(node) not in ("__new__", "_trusted"):
                breaks.append(f"{path.name}:{node.lineno}: tuple.__new__ in {owner(node) or 'module'}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "_make":
            breaks.append(f"{path.name}:{node.lineno}: {ast.unparse(node.func)}(")
    trusted = sum(
        isinstance(stmt, ast.FunctionDef) and stmt.name == "_trusted"
        or isinstance(stmt, ast.Assign) and [ast.unparse(t) for t in stmt.targets] == ["_trusted"]
        for stmt in tree.body
    )
    return breaks, trusted


def test_records_have_one_trusted_builder_per_module():
    # a record is built by its constructor, which _make and _replace call, or by
    # its module's one _trusted builder; nothing else reaches tuple.__new__
    breaks, trusted = [], {}
    for path in sorted((ROOT / "src" / "arithsite").glob("*.py")):
        found, count = _rule_breaks(path)
        breaks += found
        if count:
            trusted[path.stem] = count
    assert breaks == []
    assert trusted == {"belyi": 1, "bigpicture": 1, "conway": 1, "dessins": 1, "supernatural": 1}
