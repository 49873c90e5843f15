"""The public API: `__all__` lists exactly the public names of the package."""

import types

import mdwindow


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
    assert len(mdwindow.__all__) == 55
