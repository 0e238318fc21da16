"""Every name the package declares public resolves to an object."""

import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_import_loads_no_unused_scipy_subpackages():
    # scipy.integrate (with scipy.optimize) and scipy.spatial cost about 20 MB
    # of peak RSS; the package loads scipy.integrate only inside the oracle
    # that calls it
    src = os.path.dirname(os.path.dirname(ex.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, excursim, excursim.cli; print(sorted(m for m in "
            "('scipy.integrate', 'scipy.optimize', 'scipy.spatial') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_does_not_load_the_cli():
    # the presets build their models from text without the command line
    src = os.path.dirname(os.path.dirname(ex.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, excursim; excursim.preset_model('table4'); "
            "print('excursim.cli' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
