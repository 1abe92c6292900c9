"""The package root re-exports nothing, so ``foldcast.<name>`` is always the
submodule of that name, never a function that shadows it; the submodules
import each other without a cycle; and the package needs numpy alone."""
import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys
import types

import pytest

import foldcast

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(foldcast.__path__))


def test_submodules_found():
    assert {"cli", "data", "tensor", "train"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_attribute_is_the_module(name):
    module = importlib.import_module(f"foldcast.{name}")
    assert isinstance(getattr(foldcast, name), types.ModuleType)
    assert getattr(foldcast, name) is module


def test_import_as_binds_the_module():
    import foldcast.train as train_module

    assert isinstance(train_module, types.ModuleType)
    assert callable(train_module.train)


def test_root_exports_only_the_version():
    public = {name for name in vars(foldcast) if not name.startswith("_")}
    assert public <= set(SUBMODULES)
    assert foldcast.__version__ == "0.1.0"


def submodule_imports(name):
    """The ``foldcast`` submodules that submodule ``name`` imports."""
    path = pathlib.Path(foldcast.__path__[0]) / f"{name}.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import inside the flat package is one from foldcast
            module = ".".join(filter(None, ["foldcast" if node.level else "", node.module]))
            dotted = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        for parts in (d.split(".") for d in dotted):
            if parts[0] == "foldcast" and len(parts) > 1:
                found.add(parts[1])
    return found & set(SUBMODULES)


def test_submodule_imports_have_no_cycle():
    graph = {name: submodule_imports(name) for name in SUBMODULES}
    done, path = set(), []

    def visit(name):
        assert name not in path, f"import cycle: {' -> '.join(path[path.index(name):] + [name])}"
        if name in done:
            return
        path.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        path.pop()
        done.add(name)

    for name in SUBMODULES:
        visit(name)


def test_model_imports_only_tensor():
    assert submodule_imports("model") == {"tensor"}


def test_no_submodule_imports_scipy():
    # in a fresh interpreter, since the tests themselves import scipy
    code = (f"import sys\nimport {', '.join(f'foldcast.{name}' for name in SUBMODULES)}\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    path = str(pathlib.Path(foldcast.__path__[0]).parent)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert done.stdout.strip() == "[]"


def called_names(path):
    """Every name the Python file at ``path`` calls, bare or as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            found.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return found


def test_every_public_tensor_callable_has_a_caller(monkeypatch):
    # a public op that only its own tests call is a second path to keep
    # correct: each one is called in the package, by the acceptance test,
    # or wrapped by name by the benchmark under perfbench/
    import foldcast.tensor as T

    root = pathlib.Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import tracing

    used = set(tracing.REQUIRED["tensor"]) | called_names(root / "tests" / "test_acceptance.py")
    for path in pathlib.Path(foldcast.__path__[0]).glob("*.py"):
        used |= called_names(path)
    public = {name for name, obj in vars(T).items() if not name.startswith("_")
              and callable(obj) and getattr(obj, "__module__", None) == T.__name__}
    assert public >= {"Tensor", "norm_attention", "adam_step"}
    assert sorted(public - used) == []
