"""Every name in an export list exists: etaq.__all__ and the __all__ of
each etaq module, so that a deleted function cannot stay behind in one."""

import importlib
import pkgutil

import pytest

import etaq

MODULES = [etaq] + [
    importlib.import_module(f"etaq.{m.name}")
    for m in pkgutil.iter_modules(etaq.__path__)
    if m.name != "__main__"  # importing it runs the CLI
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_export_list_names_exist(module):
    assert len(module.__all__) == len(set(module.__all__))
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _home(name):
    """The submodule that defines an exported name, and its name there."""
    if name == "KERNEL_BACKEND":
        return etaq.kernels, "BACKEND"
    return importlib.import_module(getattr(etaq, name).__module__), name


EXPORTED = [name for name in etaq.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", EXPORTED)
def test_exported_name_is_its_submodules_attribute(monkeypatch, name):
    module, attr = _home(name)
    assert module.__name__.startswith("etaq.")
    assert getattr(etaq, name) is getattr(module, attr)
    replacement = object()
    monkeypatch.setattr(module, attr, replacement)
    assert getattr(etaq, name) is replacement
    monkeypatch.undo()
    assert getattr(etaq, name) is getattr(module, attr)


def test_star_import_and_dir_list_the_exports():
    namespace = {}
    exec("from etaq import *", namespace)
    assert set(etaq.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(etaq, name) for name in etaq.__all__)
    assert set(etaq.__all__) <= set(dir(etaq))
    assert {m.name for m in pkgutil.iter_modules(etaq.__path__)} - {"__main__"} <= set(dir(etaq))
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        _ = etaq.nonexistent
