"""The package root re-exports nothing, so ``foldcast.<name>`` is always the
submodule of that name, never a function that shadows it."""
import importlib
import pkgutil
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
