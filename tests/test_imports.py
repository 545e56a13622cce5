"""Guard on what `import ns1d` loads: scipy.interpolate (and scipy.optimize,
which it pulls in) cost most of the package's import time and are not used."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import ns1d

SRC = Path(ns1d.__file__).resolve().parents[1]


def test_import_loads_no_interpolate_or_optimize():
    code = ("import json, sys, ns1d; print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.interpolate', 'scipy.optimize')))))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == []


def test_every_all_entry_resolves():
    # a stale entry, left by a deletion, breaks `from ns1d.<module> import *`
    modules = [ns1d] + [importlib.import_module(f"ns1d.{info.name}")
                        for info in pkgutil.iter_modules(ns1d.__path__)]
    stale = [f"{module.__name__}.{name}" for module in modules
             for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not stale, f"__all__ entries that do not resolve: {stale}"
