import importlib
import pkgutil

import pytest

import obsdiam

MODULES = ["obsdiam"] + [f"obsdiam.{m.name}" for m in pkgutil.iter_modules(obsdiam.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted fails only on
    # "from ... import *", so check each one directly
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [export for export in exported if not hasattr(module, export)] == []
