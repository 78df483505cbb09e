"""Every name a source module imports is used in that module, every
definition in the package is named somewhere else, no source module
relies on assert statements, which python -O strips, every span the
benchmark traces names a public function of the package, and every
`VerificationError` of the certified modules and functions carries a
witness."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from realforms import algebras, constructions, lie, pipeline, rootspace, satake, triality

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "realforms"


def unused_imports(path: Path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def bound_names(fn) -> set:
    """The names a function or lambda binds itself: its parameters and the
    names it assigns (outside nested functions and classes), less those it
    declares global or nonlocal."""
    a = fn.args
    params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
    bound = {p.arg for p in params if p}
    declared = set()
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        todo.extend(ast.iter_child_nodes(node))
    return bound - declared


class References(ast.NodeVisitor):
    """The names a module uses: names, attributes, imported names and
    string constants.  A name that an enclosing function binds is a local
    variable there, so it is no use of a definition that shares its name."""

    def __init__(self):
        self.names = set()
        self.scopes = []

    def visit_FunctionDef(self, node):
        # decorators, defaults and annotations belong to the enclosing scope
        outer = node.decorator_list + [node.args] + ([node.returns] if node.returns else [])
        for child in outer:
            self.visit(child)
        self.scopes.append(bound_names(node))
        for stmt in node.body:
            self.visit(stmt)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self.visit(node.args)
        self.scopes.append(bound_names(node))
        self.visit(node.body)
        self.scopes.pop()

    def visit_Name(self, node):
        if not any(node.id in scope for scope in self.scopes):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        self.names.add(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self.names.add(node.name.split(".")[-1])

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self.names.add(node.value)


def unreferenced_definitions():
    """(file, line, name) of each function, method and class defined in the
    package whose name no other node in src/ or tests/ uses; a local
    variable that shares the name is no use."""
    defined = []
    refs = References()
    for directory in ("src", "tests"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text())
            refs.visit(tree)
            if path.parent != SRC:
                continue
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if not (node.name.startswith("__") and node.name.endswith("__")):
                        defined.append((path.name, node.lineno, node.name))
    return [d for d in defined if d[2] not in refs.names]


def test_no_unreferenced_definitions():
    assert unreferenced_definitions() == []


def assert_statements():
    """(file, line) of each assert statement in the package."""
    return [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]


def test_no_assert_statements():
    assert assert_statements() == []


def traced_spans(path: Path):
    """The qualified names in the SPANS list of the benchmark's one-pass
    runner, read from its source without importing it."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return [ast.literal_eval(e)[0] for e in node.value.elts]
    raise AssertionError(f"no SPANS list in {path}")


def test_traced_spans_are_public_functions():
    """A span whose function is renamed or made private reads null in a
    traced run, and a result with a null metric is malformed."""
    path = ROOT / "perfbench" / "one_pass.py"
    if not path.exists():
        pytest.skip("no benchmark runner in this checkout")
    bad = []
    for qname in traced_spans(path):
        layer, *attrs = qname.split(".")
        module = importlib.import_module(f"realforms.{layer}")
        obj = module
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not (
            inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and not any(a.startswith("_") for a in attrs)
        ):
            bad.append(qname)
    assert bad == []


def verification_raises(obj):
    """The `raise VerificationError(...)` calls in the source of a module
    or function."""
    tree = ast.parse(inspect.getsource(obj).lstrip())
    return [
        node.exc
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "VerificationError"
    ]


@pytest.mark.parametrize(
    "obj,count",
    [
        (triality, 3),
        (algebras.check_composition, 3),
        (algebras.check_symmetric, 1),
        (lie, 4),
        (pipeline, 8),
        (satake.build_satake, 2),
        (satake._bonds, 1),
        (satake.compact_satake, 1),
        (constructions.check_rho_homomorphism, 2),
        (constructions.derivation_model, 2),
        (rootspace.classify_cartan_matrix, 1),
        (rootspace.classify_restricted, 1),
        (rootspace.split_indices, 1),
        (rootspace.restrict_covector, 1),
        (rootspace.strip_torus_part, 1),
        (rootspace.highest_root, 1),
        (rootspace._restricted_matrix, 1),
        (rootspace.eigen_split, 3),
        (rootspace.verify_simple_basis, 4),
        (rootspace.verify_cartan_decomposition, 5),
        (rootspace.poly_squarefree, 1),
        (rootspace._integer_coords, 2),
    ],
    ids=lambda x: getattr(x, "__name__", str(x)).rpartition(".")[2],
)
def test_every_verification_error_carries_a_witness(obj, count):
    """Each site is also reached by a mutation test in the test module of
    its layer; the count pins the set of sites those tests cover."""
    raises = verification_raises(obj)
    assert len(raises) == count
    assert all(any(kw.arg == "witness" for kw in call.keywords) for call in raises)
