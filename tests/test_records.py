"""The package's value types are plain slots records: what a launch imports,
and the value semantics every record keeps.

`import termcat.cli` loads neither `dataclasses` nor the `inspect` it pulls
in, and no module imports a name it never uses.  The package has one
exception class per decision some code makes on it, and no public name that
only tests use.  Every record compares and hashes by its type and its
compared fields, so records of different types never meet as equal in `==`,
a dict or a set.
"""

from __future__ import annotations

import ast
import builtins
import copy
import importlib
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fixtures import replace
from termcat.arrows import term_normal
from termcat.category import TERMINAL, GenApp, Id, Leaf, NTuple, Path as NPath
from termcat.deduction import (Abstraction, Concretion, Copy, Hypothesis,
                               Reflexivity, Substitutivity, Symmetry,
                               Transitivity, compile_to_factorization,
                               lemma_table, normalize_deduction)
from termcat import errors
from termcat.dsl import build_proof, parse_spec
from termcat.errors import Node, Record
from termcat.kernel import (CiteHyp, ComposeLeft, ComposeRight, Refl, Sym,
                            Trans, TupleCong, VerificationResult)
from termcat.models import FiniteModel
from termcat.signature import Sort, Variable
from termcat.sketch import ListNode, OpArrow, ProjArrow, SortNode, \
    sketch_of_signature
from termcat.subst import SubstInstance
from termcat.terms import App

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# --- what a launch imports ----------------------------------------------------


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # each launch imports one module into a fresh interpreter and lists
    # every module then loaded; the kernel loads only its closure of termcat
    loaded = {}
    for module in ("termcat.cli", "termcat.kernel"):
        code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                f"import {module}; print(*sorted(sys.modules))")
        out = subprocess.run([sys.executable, "-I", "-B", "-c", code],
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        loaded[module] = set(out.stdout.split())
    assert not {"dataclasses", "inspect"} & loaded["termcat.cli"]
    assert {m for m in loaded["termcat.kernel"]
            if m.partition(".")[0] == "termcat"} == {
        "termcat", "termcat.category", "termcat.errors", "termcat.kernel"}


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted((SRC / "termcat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [path.name for n in names
                      if n.split(".")[0] == "dataclasses"]
    assert found == []


def test_the_package_has_no_import_cycle():
    # every import between termcat's modules, deferred ones included
    imports = {}
    for path in sorted((SRC / "termcat").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports[path.stem] = {
            node.module or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}
    done: set[str] = set()
    while len(done) < len(imports):
        ready = [m for m in imports if m not in done and imports[m] <= done]
        assert ready, sorted(set(imports) - done)
        done.update(ready)


def test_no_module_imports_a_private_name_of_another():
    # a module's underscore names are its own: no other termcat module
    # imports one or reads one off an imported termcat module
    found = []
    for path in sorted((SRC / "termcat").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found += [f"{path.stem}: {node.module}.{a.name}"
                          for a in node.names if a.name.startswith("_")]
                if node.module is None:
                    modules.update(a.asname or a.name for a in node.names)
        found += [f"{path.stem}: {n.value.id}.{n.attr}"
                  for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                  and isinstance(n.value, ast.Name)
                  and n.value.id in modules and n.attr.startswith("_")]
    assert found == []


# kept by the benchmark's tracer, which wraps `deduction.verify_factorization`,
# `arrows.normalize` and `arrows.arrows_equal` by those names; they go when
# the tracer reads hooks instead (ROADMAP item 1)
UNUSED_IMPORTS = {("deduction.py", "verify_factorization"),
                  ("arrows.py", "normalize"), ("arrows.py", "arrows_equal")}


def test_no_module_imports_a_name_it_never_uses():
    found = set()
    for path in sorted([*(SRC / "termcat").glob("*.py"),
                        *(ROOT / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update(a.asname or a.name.split(".")[0]
                             for a in node.names)
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                bound.update(a.asname or a.name for a in node.names)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        found.update((path.name, name) for name in bound - used)
    assert found == UNUSED_IMPORTS


# --- exceptions and public names ----------------------------------------------------

# every exception class and its one parent: the CLI exits with 1 on a
# DeductionError and with 2 on any other TermcatError; the front end
# catches DuplicateSort to place it among the sorts, a SignatureError among
# the operations, and the kernel catches EndpointMismatch; a DslError
# carries its line and column
EXCEPTIONS = {"TermcatError": "Exception", "DeductionError": "TermcatError",
              "SignatureError": "TermcatError",
              "DuplicateSort": "SignatureError",
              "EndpointMismatch": "TermcatError", "DslError": "TermcatError"}


def _is_exception(value) -> bool:
    return isinstance(value, type) and issubclass(value, BaseException)


def test_errors_defines_one_class_per_decision():
    found = {name: "/".join(b.__name__ for b in value.__bases__)
             for name, value in vars(errors).items() if _is_exception(value)}
    assert found == EXCEPTIONS


def _package_trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((SRC / "termcat").glob("*.py"))}


def test_the_package_raises_and_catches_only_those_classes():
    # every `except` clause, and every call of an exception class (a raise
    # of one among them), names one of EXCEPTIONS, a builtin exception or
    # dsl._Fault, the private carrier that locates an error once the text
    # is at hand
    allowed = {getattr(errors, name) for name in EXCEPTIONS}
    allowed |= {v for v in vars(builtins).values() if _is_exception(v)}
    allowed.add(importlib.import_module("termcat.dsl")._Fault)
    found, seen = [], 0
    for stem, tree in _package_trees().items():
        module = importlib.import_module(f"termcat.{stem}")

        def resolve(node):
            if isinstance(node, ast.Name):
                return getattr(module, node.id,
                               getattr(builtins, node.id, None))
            if isinstance(node, ast.Attribute):
                return getattr(resolve(node.value), node.attr, None)
            return None

        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                # a bare `except` would catch every class
                assert node.type is not None, f"{stem}:{node.lineno}"
                named = node.type.elts if isinstance(node.type, ast.Tuple) \
                    else [node.type]
            elif isinstance(node, ast.Call) and \
                    _is_exception(resolve(node.func)):
                named = [node.func]
            else:
                continue
            for n in named:
                seen += 1
                if resolve(n) not in allowed:
                    found.append(f"{stem}:{n.lineno}: {ast.unparse(n)}")
    assert found == []
    assert seen >= 60  # the walk read the package


# the console entry point, which the installed `termcat` script calls
ENTRY_POINTS = {"cli.main"}


def test_every_public_name_is_used_in_the_package():
    # a public top-level function or class that no module of the package
    # names outside its own definition, or a public method or property of a
    # top-level class that no module reads as an attribute (`x.name`)
    # outside it, is code only tests run; a local variable of the same name
    # does not use a method
    trees = _package_trees()
    defs = []
    for stem, tree in trees.items():
        for top in tree.body:
            inner = top.body if isinstance(top, ast.ClassDef) else []
            defs += [(stem, node, node is not top) for node in (top, *inner)
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     and not node.name.startswith("_")]

    def names(tree, attributes_only):
        return [n.attr if isinstance(n, ast.Attribute) else n.id
                for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                or isinstance(n, ast.Name) and not attributes_only]

    everywhere = {flag: [name for tree in trees.values()
                         for name in names(tree, flag)]
                  for flag in (False, True)}
    unused = {f"{stem}.{node.name}" for stem, node, method in defs
              if everywhere[method].count(node.name)
              == names(node, method).count(node.name)}
    assert unused - ENTRY_POINTS == set()
    assert len(defs) >= 110  # the walk read the package and the classes


def test_the_readme_states_the_package_size():
    # README's layout section gives the line count of src/termcat, as
    # `wc -l src/termcat/*.py` counts it
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"src/termcat/ +([0-9,]+) lines of Python in all",
                        text)
    count = sum(path.read_bytes().count(b"\n")
                for path in (SRC / "termcat").glob("*.py"))
    assert [int(n.replace(",", "")) for n in stated] == [count]


# --- one record of every type -----------------------------------------------------

SF = parse_spec((ROOT / "corpus" / "monoid.msl").read_text(encoding="utf-8"))
SIG = SF.signature
S = SIG.sorts[0]
M = SIG.operation_named["m"]
X = Variable(S, 1)
T1 = SF.terms["t1"]
STEPS, HYPS = build_proof(SF, SF.proofs["comm_twice"])
LEVELLED = normalize_deduction(STEPS)
LEMMAS = lemma_table(SIG, STEPS)
CERT = compile_to_factorization(LEVELLED, LEMMAS, HYPS)
SKETCH = sketch_of_signature(SIG)
ARROW = Id(Leaf(S))

RECORDS = [
    # signature, terms
    S, M, X, SIG, App(SIG.operation_named["e"], ()), T1,
    SF.equations["comm"],
    # normal forms
    NPath((1,)), GenApp(M, (NPath((1,)), NPath((2,)))), NTuple(()),
    term_normal(T1.expr, T1.vars),
    # kernel
    CERT.claim[0], CiteHyp(0), Refl(ARROW), Sym(0), Trans(0, 1),
    ComposeLeft(ARROW, 0), ComposeRight(ARROW, 0), TupleCong(TERMINAL, (0,)),
    CERT, VerificationResult(True, ("ok",), None), LEMMAS[-1],
    # deduction
    Hypothesis(0), Reflexivity(T1), Symmetry(), Transitivity(),
    Concretion(X), Abstraction(X), Substitutivity(X), Copy(), STEPS[-1],
    LEVELLED.levels[0][0], LEVELLED,
    # the front end
    SF.proofs["unit_square"].steps[0], SF.proofs["unit_square"],
    SF.term_decls[0], SF.eq_decls[0], SF,
    # sketch
    SortNode(S), ListNode((S, S)), OpArrow(M), ProjArrow(ListNode((S, S)), 2),
    SKETCH.cones[0], SKETCH,
    # substitution, models
    SubstInstance(T1, SF.term_bindings["t1"]["y"], SF.terms["double"]),
    FiniteModel(SIG, {S: 1}, {"m": {(0, 0): 0}, "e": {(): 0}}),
]

UNHASHABLE = {"Factorization", "VerificationResult", "SpecFile",
              "FiniteModel"}
# built in bulk by the model search, and cheaper to build mutable
MUTABLE = {"FiniteModel"}


def _record_types(cls=Record):
    for sub in cls.__subclasses__():
        # the interned objects and arrows are checked in tests/test_arrows.py
        if issubclass(sub, Node) and sub.__module__ == "termcat.category":
            continue
        if sub is not Node:
            yield sub
        yield from _record_types(sub)


def test_the_list_holds_every_record_type():
    assert sorted(type(r).__name__ for r in RECORDS) == \
        sorted(t.__name__ for t in _record_types())
    assert len(RECORDS) == 46


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_a_rebuilt_record_is_equal(record):
    for again in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record)),
                  replace(record)):
        # an interned record is rebuilt as the one live node
        assert (again is record) == isinstance(record, Node)
        assert again == record and not again != record
        assert repr(again) == repr(record)
        if type(record).__name__ not in UNHASHABLE:
            assert hash(again) == hash(record)
    if type(record).__name__ in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    assert not isinstance(record, tuple)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_refuse_assignment(record):
    if type(record).__name__ in MUTABLE or not record._fields:
        return
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is not None


@pytest.mark.parametrize("a, b", [
    (Sym(0), CiteHyp(0)), (Concretion(X), Abstraction(X)),
    (Abstraction(X), Substitutivity(X)), (Symmetry(), Transitivity()),
    (Symmetry(), Copy()), (ComposeLeft(ARROW, 0), ComposeRight(ARROW, 0)),
    (SortNode(S), Leaf(S)), (NTuple(()), TERMINAL),
], ids=lambda r: type(r).__name__)
def test_records_of_different_types_differ(a, b):
    assert a != b and b != a
    assert len({a, b}) == 2 and len({a: 0, b: 1}) == 2


def test_uncompared_fields_are_ignored():
    proof = SF.proofs["unit_square"]
    step = proof.steps[0]
    pairs = [(step, replace(step, at=99)),
             (proof, replace(proof, at=99)),
             (SF.term_decls[0], replace(SF.term_decls[0], at=99)),
             (SF.eq_decls[0], replace(SF.eq_decls[0], at=0)),
             (SF, replace(SF, terms={}))]
    for a, b in pairs:
        assert a == b, type(a).__name__
        if type(a).__name__ not in UNHASHABLE:
            assert hash(a) == hash(b)
    # an application's sort is kept in a slot, derived from its fields
    assert App._fields == ("op", "args")
    assert App(M, (X, X)).sort is S
    assert SF.term_decls[0] != replace(SF.term_decls[0], name="zz")
    assert SF.term_decls[0] != replace(SF.term_decls[0], expr=(("e", -1),))
    assert STEPS[-1] != replace(STEPS[-1], rule=Symmetry())
    assert STEPS[-1] != replace(STEPS[-1], premises=())
    entry = LEVELLED.levels[0][0]
    assert entry != replace(entry, step=entry.step + 1)


def test_sorts_operations_and_variables_survive_pickle_and_copy():
    for x in (S, M, X):
        for again in (pickle.loads(pickle.dumps(x)), copy.copy(x),
                      copy.deepcopy(x)):
            assert again == x and hash(again) == hash(x)
            assert str(again) == str(x)
    assert repr(S) == "Sort(index=0, name='s')"
    assert repr(X) == "Variable(sort=Sort(index=0, name='s'), num=1)"
    assert Sort(0, "s") == S and Sort(1, "s") != S


def test_constructor_arguments_are_checked():
    for make in (lambda: CiteHyp(), lambda: Trans(0), lambda: Trans(0, 1, 2),
                 lambda: Sym(of=0)):
        with pytest.raises(TypeError):
            make()
