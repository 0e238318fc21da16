"""Every name the package declares public resolves to an object."""

import importlib
import pkgutil

import pytest

import excursim as ex

MODULES = sorted(info.name for info in pkgutil.iter_modules(ex.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"excursim.{name}")
    declared = getattr(module, "__all__", [])
    assert len(declared) == len(set(declared))
    assert [n for n in declared if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    # each public name of excursim is the very object its home module defines
    public = [n for n in dir(ex) if not n.startswith("_")
              and not isinstance(getattr(ex, n), type(ex))]
    assert public
    for name in public:
        obj = getattr(ex, name)
        home = getattr(obj, "__module__", None)
        homes = [home] if home else [f"excursim.{m}" for m in MODULES]
        assert any(getattr(importlib.import_module(h), name, None) is obj
                   for h in homes if h.startswith("excursim.")), name
