"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py

The pulse workloads shrink to N=64 and a short horizon.  The MMS workload
keeps the levels and horizon of acceptance criterion 04 (64-256, t=0.25):
below that, the explicit orders leave [1.8, 2.2] and the output check
rightly fails.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import self_times  # noqa: E402
from workloads import WORKLOADS, calls_for, draw  # noqa: E402

TINY = {
    "pulse-explicit": dataclasses.replace(WORKLOADS["pulse-explicit"], overrides={
        "grid.N": "64", "gas.alpha": "0.05", "time.t_end": "0.1",
        "time.output_every": "0.05", "output.formats": "csv,json"}),
    "pulse-imex": dataclasses.replace(WORKLOADS["pulse-imex"], overrides={
        "grid.N": "64", "gas.alpha": "0.1", "time.t_end": "0.2",
        "time.output_every": "0.05", "output.profile_every": "0.1",
        "output.formats": "csv,json"}),
    "mms-study": dataclasses.replace(WORKLOADS["mms-study"], overrides={
        "mms.levels": "64,128,256", "gas.alpha": "0.1", "mms.t_end": "0.25"}),
}


def bench(capsys, *argv, workloads=TINY):
    assert run.main(list(argv), workloads=workloads) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_declared_with_its_unit(capsys, name, trace):
    context, result = bench(capsys, "--workload", name, "--seed", "7",
                            "--seconds", "0.1", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], context["workloads"][0]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = run.SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    replay = context["workloads"][0]["inputs"][1]["replay"]
    assert replay and all(r.startswith(f"ns1d {TINY[name].command} --set ") for r in replay)


def test_invalid_override_counts_as_failed(capsys):
    broken = dict(TINY)
    broken["pulse-explicit"] = dataclasses.replace(
        TINY["pulse-explicit"], overrides=dict(TINY["pulse-explicit"].overrides,
                                               **{"solver.cfl_advective": "abc"}))
    context, result = bench(capsys, "--workload", "pulse-explicit", "--seconds", "0.1",
                            workloads=broken)
    failures = context["workloads"][0]["failures"]
    assert not result["correct"]
    assert result["failed"] == len(failures) >= 1
    assert all("exit code 2" in f for f in failures)
    ok_frac = result["metrics"]["ok_frac"]["value"]
    assert ok_frac == pytest.approx(1.0 - result["failed"] / result["attempted"])
    assert ok_frac < 1.0


def test_span_self_times_partition_the_root_span():
    workload = TINY["pulse-imex"]
    session = run.Session(workload, 0, TINY, trace=True, started=run.time.perf_counter())
    result, outcomes, spans = session.invoke(workload, session.calls[0], traced=True)
    assert result["codes"] == [0] and all(o.ok for o in outcomes)
    selfs = self_times(spans)
    assert min(selfs.values()) >= -1e-9
    roots = [s for s in spans if s[1] is None]
    assert [r[3] for r in roots] == ["cli.main"]
    root = roots[0]
    assert sum(selfs.values()) == pytest.approx(root[5] - root[4], rel=1e-9, abs=1e-9)
    layers = {s[3].split(".", 1)[0] for s in spans}
    assert layers == {"constitutive", "grid", "solver", "diagnostics", "harness", "cli"}


def test_default_seed_gives_the_nominal_inputs():
    pulse, mms = WORKLOADS["pulse-explicit"], WORKLOADS["mms-study"]
    assert draw(pulse, 0) == {"init.amplitude": "0.3", "init.width": "1.0"}
    assert draw(mms, 0) == {"mms.amplitude": "0.1"}
    assert draw(pulse, 5) == draw(pulse, 5) != draw(pulse, 6)
    amplitude = float(draw(mms, 5)["mms.amplitude"])
    assert 0.08 <= amplitude <= 0.12
    calls = calls_for(mms, draw(mms, 0), "x", run.ROOT, run.WORK / "t")
    assert [c.integrator for c in calls] == ["explicit", "imex"]
