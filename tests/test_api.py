"""The public API: `__all__` lists exactly the public names of the package."""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import mdwindow
from mdwindow import measure


def _public_names():
    return {
        name
        for name, value in vars(mdwindow).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_all_has_no_duplicates():
    assert len(mdwindow.__all__) == len(set(mdwindow.__all__))


def test_all_entries_resolve():
    missing = [name for name in mdwindow.__all__ if not hasattr(mdwindow, name)]
    assert missing == []


def test_all_equals_the_public_names():
    assert set(mdwindow.__all__) == _public_names()


def test_public_name_count():
    # the size of the public API; change it only with a deliberate API change
    assert len(mdwindow.__all__) == 46


def _package_imports(path: Path) -> set:
    """Modules of the package that the source file at `path` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "mdwindow":
                continue
            base = module.removeprefix("mdwindow").lstrip(".")
            names |= {base} if base else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names if alias.name.split(".")[0] == "mdwindow"}
    return names


def test_measure_imports_only_errors_and_logspace():
    # measure is the bottom of the import graph, so sigma can read the lag
    # table there and every other module can import it without a cycle
    assert _package_imports(Path(measure.__file__)) <= {"errors", "logspace"}


def test_the_package_holds_exactly_one_cache():
    # every per-pair table lives in the one store of measure: no module
    # holds a functools cache, and every module that reaches a store reaches
    # that one
    caches, stores = [], set()
    for info in pkgutil.iter_modules(mdwindow.__path__):
        module = importlib.import_module(f"mdwindow.{info.name}")
        for name, value in vars(module).items():
            if callable(value) and hasattr(value, "cache_clear"):
                caches.append(f"{module.__name__}.{name}")
            if isinstance(value, measure._TableStore):
                stores.add(id(value))
    assert caches == []
    assert stores == {id(measure._TABLES)}
