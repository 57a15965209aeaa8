import ast
import importlib
import inspect
import pkgutil

import pytest

import nullrec

MODULES = sorted(m.name for m in pkgutil.iter_modules(nullrec.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    # tooling such as a call tracer does getattr(module, name) over __all__,
    # so an entry left behind by a deletion must fail here first
    module = importlib.import_module(f"nullrec.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_imports_resolve():
    tree = ast.parse(inspect.getsource(nullrec))
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    assert not [n for n in names if not hasattr(nullrec, n)]
