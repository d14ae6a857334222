import importlib
import pkgutil

import pytest

import peskin_lab

MODULES = ["peskin_lab"] + [f"peskin_lab.{m.name}"
                            for m in pkgutil.iter_modules(peskin_lab.__path__)]


@pytest.mark.parametrize("name", [m for m in MODULES
                                  if hasattr(importlib.import_module(m), "__all__")])
def test_all_lists_exactly_the_public_definitions(name):
    # every listed name resolves, and every public function or class the
    # module defines (cached functions included) is listed
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    defined = [n for n, obj in vars(module).items()
               if not n.startswith("_") and callable(obj)
               and getattr(obj, "__module__", None) == name]
    assert [n for n in defined if n not in module.__all__] == []
