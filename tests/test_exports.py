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
