import ast
import pathlib

import pytest

import macert

MODULES = sorted(
    p for p in pathlib.Path(macert.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
SCRIPTS = sorted((pathlib.Path(__file__).parents[1] / "scripts").glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))


def test_public_names_resolve_once():
    # a name left in __all__ after its code is gone breaks `from macert import *`
    assert len(set(macert.__all__)) == len(macert.__all__)
    namespace = {}
    exec("from macert import *", namespace)
    assert all(name in namespace for name in macert.__all__)


@pytest.mark.parametrize("path", MODULES + SCRIPTS + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    # no linter runs here; an import its module never reads is left over code
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


PACKAGE = sorted(pathlib.Path(macert.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_private_names_from_sibling_modules(path):
    # an underscore name belongs to its module: a sibling that needs it
    # should read a public name, or the code should move to one owner
    tree = ast.parse(path.read_text())
    siblings = {p.stem for p in PACKAGE}
    modules = set()  # local names bound to sibling modules
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "macert"):
            for alias in node.names:
                if node.module in (None, "macert") and alias.name in siblings:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    private.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            private.append(f"{node.value.id}.{node.attr}")
    assert not private, f"{path.name} reads private names of other modules: {private}"


def test_estimator_reads_samples_not_functions():
    # the estimator turns sampled arrays into certificates: v_h, its hull
    # and its boundary evaluation stay with the driver, so it reads nothing
    # of bfs and only the sample set of envelope
    path = pathlib.Path(macert.__file__).parent / "estimator.py"
    imported = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "macert"):
            module = (node.module or "").split(".")[-1]
            for alias in node.names:
                name = alias.name if module in ("", "macert") else module
                imported.setdefault(name, set()).add(alias.name)
    assert "bfs" not in imported, f"estimator.py imports {imported['bfs']} from bfs"
    assert imported.get("envelope", set()) <= {"SampleSet"}, imported["envelope"]


def _own_parameters_called(func):
    params = {a.arg for a in func.args.posonlyargs + func.args.args + func.args.kwonlyargs}
    return sorted({node.func.id for node in ast.walk(func) if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name) and node.func.id in params})


def test_certificates_take_sampled_data():
    # f and g come in as arrays: the driver evaluates each once per step for
    # both certificates, the trace error and the boundary residual
    root = pathlib.Path(macert.__file__).parent
    funcs = [node for node in ast.walk(ast.parse((root / "estimator.py").read_text()))
             if isinstance(node, ast.FunctionDef)]
    funcs += [node for node in ast.walk(ast.parse((root / "envelope.py").read_text()))
              if isinstance(node, ast.FunctionDef) and node.name == "boundary_residual"]
    assert "boundary_residual" in {func.name for func in funcs}
    called = {func.name: _own_parameters_called(func) for func in funcs}
    assert not {name: params for name, params in called.items() if params}, called
