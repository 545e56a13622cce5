"""Reach guard: every function `ns1d` exports is called by a tiny `ns1d`
command, or is named in an acceptance criterion.

An exported function that neither reaches is public API that no output
depends on; it is deleted with its tests rather than kept exported.
"""

import inspect
import re
import sys
from pathlib import Path

import ns1d
from ns1d.cli import EXIT_OK, main

ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")

TINY_RUN = ["--set", "grid.N=64", "--set", "time.t_end=0.1", "--set", "time.output_every=0.05"]


def reached_code(argvs):
    """The code objects called while main runs each argv, and the exit codes."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in argvs]
    finally:
        sys.setprofile(previous)
    return called, codes


def test_every_exported_function_is_reached(tmp_path, monkeypatch):
    monkeypatch.setenv("NS1D_OUT", str(tmp_path / "out"))
    config = tmp_path / "run.cfg"
    config.write_text("grid.N = 64\ntime.t_end = 0.1\ntime.output_every = 0.05\n")
    argvs = [
        ["run", "--config", str(config)],
        ["run", "--set", "solver.integrator=imex", "--set", "preset=two-bump",
         "--set", "gas.h.kind=constant", "--set", "gas.alpha=0.1"] + TINY_RUN,
        ["mms", "--set", "mms.levels=16,32,64", "--set", "mms.t_end=0.01"],
        ["sweep", "--param", "alpha", "--values=0,0.1"] + TINY_RUN,
        ["validate-h"],
    ]
    called, codes = reached_code(argvs)
    assert codes == [EXIT_OK] * len(argvs)

    named = set(re.findall(r"\w+", ACCEPTANCE.read_text()))
    exported = {name: getattr(ns1d, name) for name in ns1d.__all__}
    unreached = sorted(name for name, obj in exported.items()
                       if inspect.isfunction(obj) and obj.__code__ not in called
                       and name not in named)
    assert not unreached, f"exported functions that no command or criterion calls: {unreached}"
