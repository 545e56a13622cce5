"""Guard for the benchmark's tracer: it patches ns1d functions by name.

Renaming or removing a traced function would otherwise only show up when a
traced benchmark run (`perfbench/run.py --trace 1`) fails.
"""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
