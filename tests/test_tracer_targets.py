"""Guard for the benchmark's tracer: it patches ns1d functions by name.

Renaming or removing a traced function would otherwise only show up when a
traced benchmark run (`perfbench/run.py --trace 1`) fails, and a traced
function that is no longer called would only show as a per-layer metric
reading 0.
"""

import importlib
from pathlib import Path

from ns1d.cli import EXIT_OK, main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# targets kept for the tracer only, which no ns1d code calls
UNCALLED = {("ns1d.solver", "transport_derivatives"),
            ("ns1d.diagnostics", "adaptive_simpson")}


def _load_tracer():
    tracer = {"__name__": "perfbench_tracer"}
    # compiled from source, so that nothing is written next to the tracer
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer)
    return tracer


def test_every_traced_target_resolves():
    tracer = {"__name__": "perfbench_tracer"}
    # compiled from source, so that nothing is written next to the tracer
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer)
    missing = []
    for module_name, attr, _, _ in tracer["TARGETS"]:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"traced targets that no longer resolve: {missing}"


def test_every_traced_target_is_reached(tmp_path, monkeypatch):
    tracer = _load_tracer()
    spans = tracer["Tracer"]()
    targets = tracer["TARGETS"]
    # each entry's wrapper gets its own span name, its index, because
    # several entries share a span name
    for index, (module_name, attr, _, info) in enumerate(targets):
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        monkeypatch.setattr(owner, leaf, spans.wrap(getattr(owner, leaf), str(index), info))

    monkeypatch.setenv("NS1D_OUT", str(tmp_path / "out"))
    config = tmp_path / "run.cfg"
    config.write_text("grid.N = 64\ntime.t_end = 0.1\ntime.output_every = 0.05\n")
    for argv in (["run", "--config", str(config)],
                 ["run", "--set", "solver.integrator=imex", "--set", "grid.N=64",
                  "--set", "time.t_end=0.1", "--set", "time.output_every=0.05"],
                 ["mms", "--set", "mms.levels=16,32,64", "--set", "mms.t_end=0.01"]):
        assert main(argv) == EXIT_OK

    reached = {span[3] for span in spans.spans}
    unreached = [f"{module_name}.{attr}"
                 for index, (module_name, attr, _, _) in enumerate(targets)
                 if str(index) not in reached and (module_name, attr) not in UNCALLED]
    assert not unreached, f"traced targets that no ns1d command calls: {unreached}"
