"""The public API: `__all__` lists exactly the public names of the package."""

import ast
import importlib
import json
import pkgutil
import re
import subprocess
import sys
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
    # names load on first use, so resolve every one before reading the namespace
    for name in mdwindow.__all__:
        getattr(mdwindow, name)
    assert set(mdwindow.__all__) == _public_names()


def test_public_name_count():
    # the size of the public API; change it only with a deliberate API change
    assert len(mdwindow.__all__) == 45


def _fresh(code: str):
    """What `code` prints as JSON when run in a fresh interpreter."""
    res = subprocess.run([sys.executable, "-c", "import json, sys\n" + code],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_import_loads_no_submodule():
    code = "import mdwindow\nprint(json.dumps([m for m in sys.modules if m.startswith('mdwindow')]))"
    assert _fresh(code) == ["mdwindow"]


def test_submodules_resolve_after_a_plain_import():
    code = ("import mdwindow\n"
            "print(json.dumps([mdwindow.paths.__name__, mdwindow.cli.__name__, dir(mdwindow)]))")
    paths, cli, listed = _fresh(code)
    assert (paths, cli) == ("mdwindow.paths", "mdwindow.cli")
    assert set(mdwindow.__all__) <= set(listed)
    assert set(mdwindow._SUBMODULES) == {info.name for info in pkgutil.iter_modules(mdwindow.__path__)}


def test_star_import_binds_exactly_all():
    code = ("names = {}\nexec('from mdwindow import *', names)\n"
            "print(json.dumps(sorted(set(names) - {'__builtins__'})))")
    assert _fresh(code) == sorted(mdwindow.__all__)


def test_an_unknown_name_raises_an_attribute_error_naming_the_package():
    code = ("import mdwindow\ntry:\n    mdwindow.no_such_name\n"
            "except AttributeError as exc:\n    print(json.dumps(str(exc)))")
    assert _fresh(code) == "module 'mdwindow' has no attribute 'no_such_name'"


def _package_imports(path: Path, names: bool = False) -> set:
    """Modules of the package that the source file at `path` imports, or
    with `names` the (module, name) pairs of its imports from the package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "mdwindow":
                continue
            base = module.removeprefix("mdwindow").lstrip(".")
            if names:
                found |= {(base, alias.name) for alias in node.names}
            else:
                found |= {base} if base else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import) and not names:
            found |= {alias.name for alias in node.names if alias.name.split(".")[0] == "mdwindow"}
    return found


def test_measure_imports_only_errors():
    # measure is the bottom of the import graph, so sigma can read the lag
    # table there and every other module can import it without a cycle
    assert _package_imports(Path(measure.__file__)) <= {"errors"}


# measure's level-series internals: the cut rule, the lag table and its
# accessor, the walk, the one relative series, the level cap, and the run
# start and run bracket past which a lag table sums whole isqrt runs
_SERIES_INTERNALS = {"_series_cut", "_doubling_cut", "_cut_remainder", "_lag_table", "_lags",
                     "_level_walk", "level_series", "_FIRST_CUT", "_LEVEL_CAP", "_RUN_START",
                     "_run_bracket"}
_LEVEL_SUMS = {"autocovariance_exact", "autocovariance_bound", "boundary_tail_exact"}


def test_only_measure_knows_the_level_series():
    # oracles takes no private name of measure but _integer, no module but
    # measure names a level-series internal, by import or attribute, and the
    # package takes the level sums from measure (oracles re-exports them
    # only for the benchmark)
    package = Path(measure.__file__).parent
    from_measure = {name for module, name in _package_imports(package / "oracles.py", names=True)
                    if module == "measure"}
    assert {name for name in from_measure if name.startswith("_")} == {"_integer"}
    assert "level_series" not in from_measure
    for path in package.glob("*.py"):
        if path.stem == "measure":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text())))
        named = {node.id for node in nodes if isinstance(node, ast.Name)}
        named |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        imported = _package_imports(path, names=True)
        named |= {name for _, name in imported}
        assert named & _SERIES_INTERNALS == set(), path.name
        assert {module for module, name in imported if name in _LEVEL_SUMS} <= {"measure"}


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


def test_every_module_constant_is_read():
    # a module-level UPPER_CASE constant of the package is read somewhere in
    # it, by name, as an attribute or by import: one whose last reader is
    # deleted goes with it
    upper = re.compile(r"_?[A-Z][A-Z0-9_]*\Z")
    defined, read = {}, set()
    for path in sorted(Path(measure.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {name.id: path.stem for target in targets for name in ast.walk(target)
                            if isinstance(name, ast.Name) and upper.match(name.id)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    assert len(defined) > 30
    assert {name: module for name, module in defined.items() if name not in read} == {}
