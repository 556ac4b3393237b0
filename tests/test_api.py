import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import speckleflow
from speckleflow import errors

MODULES = sorted(m.name for m in pkgutil.iter_modules(speckleflow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"speckleflow.{name}")
    public = getattr(module, "__all__", [])
    assert len(set(public)) == len(public)
    assert [n for n in public if not hasattr(module, n)] == []


def test_package_exports_are_public_names_of_their_modules():
    tree = ast.parse(Path(speckleflow.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        for alias in node.names:
            assert hasattr(speckleflow, alias.asname or alias.name)
            if node.module is not None:
                module = importlib.import_module(f"speckleflow.{node.module}")
                assert alias.name in module.__all__, f"{node.module}.{alias.name}"


def test_every_error_type_is_raised_in_the_package():
    # an error type that no module outside `errors` constructs is dead API
    src = Path(speckleflow.__file__).parent
    called = {node.func.id for path in src.glob("*.py") if path.name != "errors.py"
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    types = [name for name, obj in vars(errors).items() if isinstance(obj, type)
             and issubclass(obj, errors.SpeckleFlowError) and obj is not errors.SpeckleFlowError]
    assert len(types) > 5
    assert [name for name in types if name not in called] == []



def test_only_linsolve_factorizes_solves_and_judges():
    # one site builds a factor for a system it must solve, solves with it and
    # checks the answer; no other module names the factor or the check
    src = Path(speckleflow.__file__).parent
    named = {(path.name, name) for path in src.glob("*.py") if path.name != "linsolve.py"
             for node in ast.walk(ast.parse(path.read_text()))
             for name in (getattr(node, "id", None), getattr(node, "attr", None),
                          getattr(node, "name", None))
             if name in ("GridFactor", "check_solution")}
    assert named == set()
