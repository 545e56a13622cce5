"""ns1d benchmark: closed loop, one client, fresh single-threaded processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds 60

Each iteration of a workload is one fresh `python3 perfbench/worker.py`
process that runs the workload's command lines through `ns1d.cli.main`; the
next iteration starts only after the previous one has returned.  Iterations
alternate between the nominal input draw and the draw made from `--seed`.
Before the loop, one discarded warm-up process runs the nominal input of a
partner workload, so that `.pyc` files exist and the accuracy figures the
workload cannot produce itself (MMS errors for a pulse, identity residual
for the MMS study) are measured in every run.

With `--trace 0` the result holds the end-to-end metrics of BENCHMARK.json,
from untraced iterations.  With `--trace 1` every iteration runs twice,
untraced and then with spans around the public functions of every ns1d
module, and the result holds the per-layer metrics.  `--workload all` runs
every workload in turn (A B C A B C ...) and prints a table.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds the
context: machine, versions, working sets, replayable inputs and samples.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from tracer import layer_metrics, root_steps  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, Call, Workload,  # noqa: E402
                       calls_for, check_call, draw)

ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else None

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
# A run ends within this many seconds even if a worker hangs.
HARD_LIMIT_S = 170.0
# Times of the worker's host-speed kernels (pure-Python for set-up, mixed
# for the rest) on the reference host, the 2-vCPU Xeon KVM guest the
# benchmark was defined on, in its common slower phase.
REF_SETUP_KERNEL_S = 4.0e-4
REF_WALL_KERNEL_S = 3.0e-4


def normalized(seconds: float, kernel_s: float, ref_s: float = REF_WALL_KERNEL_S) -> float:
    """Seconds scaled to the reference host speed.

    The host's speed drifts by tens of percent from one second to the next,
    and wall time and the kernel time sampled in the same window drift
    together, so their ratio is steady.
    """
    return seconds * ref_s / kernel_s


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("NS1D_OUT", None)        # would redirect the outputs the checks read
    env.pop("PYTHONPATH", None)      # the worker puts this checkout's src first
    return env


def quartiles(values: List[float]) -> dict:
    """Sample count, quartiles and the samples in the order taken."""
    if len(values) < 2:
        q1 = med = q3 = values[0] if values else None
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": med, "q3": q3, "values": values}


def _number(value) -> Optional[float]:
    return None if value is None else float(value)


class Session:
    """The closed loop of one workload: iterations, checks and samples."""

    def __init__(self, workload: Workload, seed: int, workloads: Dict[str, Workload],
                 trace: bool, started: float):
        self.workload = workload
        self.trace = trace
        self.started = started
        self.work = WORK / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.draws = [draw(workload, DEFAULT_SEED), draw(workload, seed)]
        self.calls = [calls_for(workload, d, f"draw{i}", ROOT, self.work)
                      for i, d in enumerate(self.draws)]
        partner = workloads[workload.partner]
        self.partner = (partner, calls_for(partner, draw(partner, DEFAULT_SEED),
                                           "partner", ROOT, self.work))
        self.iterations = 0
        self.attempted = 0
        self.failures: List[str] = []
        self.digests: Dict[str, str] = {}
        self.accuracy: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.layers: Dict[str, List[float]] = defaultdict(list)
        self.versions: Optional[dict] = None

    # -- one worker process ---------------------------------------------------

    def invoke(self, workload: Workload, calls: List[Call], traced: bool):
        """Run `calls` in one worker process and check every call's outputs.

        Returns the worker's result (None if it died), one outcome per call
        and, when traced, the spans.
        """
        for call in calls:
            shutil.rmtree(call.out_dir, ignore_errors=True)
        spec_path, result_path = self.work / "spec.json", self.work / "result.json"
        spans_path = self.work / "spans.json"
        for path in (result_path, spans_path):
            path.unlink(missing_ok=True)
        overrides = [a for a in calls[0].argv[1:] if a != "--set"]
        spec_path.write_text(json.dumps({
            "src": str(SRC), "argvs": [c.argv for c in calls], "overrides": overrides,
            "spans": str(spans_path) if traced else None}))
        timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)],
                cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=timeout, check=False)
            stderr = proc.stderr.strip()
        except subprocess.TimeoutExpired:
            stderr = f"worker timed out after {timeout:.0f} s"
        result = json.loads(result_path.read_text()) if result_path.is_file() else None
        codes = result["codes"] if result else [None] * len(calls)
        outcomes = [check_call(workload, c, rc) for c, rc in zip(calls, codes)]
        if result and not Path(result["ns1d_file"]).resolve().is_relative_to(SRC):
            for o in outcomes:
                o.ok, o.reason = False, f"ns1d imported from {result['ns1d_file']}"
        spans = json.loads(spans_path.read_text()) if traced and spans_path.is_file() else None
        if traced:
            steps = root_steps(spans or [])
            for run_id, o in enumerate(outcomes):
                if o.ok and workload.command == "run" and steps[run_id] != o.steps:
                    o.ok, o.reason = False, (f"traced solver steps {steps[run_id]} != "
                                             f"summary steps {o.steps}")
        for call, o in zip(calls, outcomes):
            self.attempted += 1
            if o.ok and self.digests.setdefault(call.key, o.digest) != o.digest:
                o.ok, o.reason = False, "outputs differ from an earlier repeat of this input"
            if not o.ok:
                detail = f": {stderr.splitlines()[-1]}" if stderr else ""
                self.failures.append(f"{workload.name} {call.key}: {o.reason}{detail}")
        if result and self.versions is None:
            self.versions = result["versions"]
        return result, outcomes, spans

    # -- the loop ---------------------------------------------------------------

    def warm_up(self):
        """Discarded warm-up process; it also measures the partner's accuracy."""
        partner, calls = self.partner
        _, outcomes, _ = self.invoke(partner, calls, traced=False)
        for o in outcomes:
            self.accuracy.update(o.accuracy)

    def iterate(self):
        index = self.iterations % len(self.calls)
        calls = self.calls[index]
        result, outcomes, _ = self.invoke(self.workload, calls, traced=False)
        if index == 0:
            for o in outcomes:
                self.accuracy.update(o.accuracy)
        if result and all(o.ok for o in outcomes):
            self.samples["wall_s"].append(
                normalized(result["wall_s"], result["wall_kernel_s"]))
            self.samples["raw_wall_s"].append(result["wall_s"])
            self.samples["kernel_s"].append(result["wall_kernel_s"])
            self.samples["peak_rss_mb"].append(result["peak_rss_mb"])
            if result["setup_s"] is not None:
                self.samples["setup_s"].append(normalized(
                    result["setup_s"], result["setup_kernel_s"], REF_SETUP_KERNEL_S))
                self.samples["raw_setup_s"].append(result["setup_s"])
                self.samples["setup_kernel_s"].append(result["setup_kernel_s"])
        if self.trace:
            result, outcomes, spans = self.invoke(self.workload, calls, traced=True)
            if result and spans and all(o.ok for o in outcomes):
                self.samples["traced_wall_s"].append(
                    normalized(result["wall_s"], result["wall_kernel_s"]))
                self.samples["traced_kernel_s"].append(result["wall_kernel_s"])
                scale = normalized(1.0, result["wall_kernel_s"])
                for name, value in layer_metrics(spans, scale).items():
                    self.layers[name].append(value)
                self.layers["harness.bytes_written"].append(
                    sum(o.bytes_written for o in outcomes))
                self.layers["harness.files_written"].append(
                    sum(o.files_written for o in outcomes))
        self.iterations += 1

    # -- the result -------------------------------------------------------------

    def metrics(self) -> Dict[str, Optional[float]]:
        def median(name):
            values = self.samples.get(name)
            return statistics.median(values) if values else None

        if not self.trace:
            out = {"wall_s": median("wall_s"), "setup_s": median("setup_s"),
                   "peak_rss_mb": median("peak_rss_mb"),
                   "ok_frac": 1.0 - len(self.failures) / max(self.attempted, 1)}
            out.update(self.accuracy)
            return out
        out = {name: statistics.median(values) for name, values in self.layers.items()}
        wall, traced = median("wall_s"), median("traced_wall_s")
        out["trace.overhead_frac"] = traced / wall - 1.0 if wall and traced else None
        return out

    def result(self, declared: List[dict]) -> dict:
        values = self.metrics()
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {m["name"]: {"value": _number(values.get(m["name"])), "unit": m["unit"]}
                        for m in declared},
        }

    def context(self, machine: dict) -> dict:
        ws = self.workload.working_set_bytes()
        return {
            "workload": self.workload.name,
            "iterations": self.iterations,
            "inputs": [{"seeded": d, "replay": [c.replay() for c in calls]}
                       for d, calls in zip(self.draws, self.calls)],
            "partner_inputs": [c.replay() for c in self.partner[1]],
            "working_set": {"arrays": self.workload.arrays, "cells": self.workload.max_cells,
                            "bytes": ws, "residency": residency(ws, machine)},
            "samples": {name: quartiles(v) for name, v in self.samples.items()},
            "failures": self.failures,
            "versions": self.versions,
        }


# ---------------------------------------------------------------------------
# machine block
# ---------------------------------------------------------------------------

def _cache_bytes(text: Optional[str]) -> Optional[float]:
    """Per-instance size from an lscpu cache line such as '4 MiB (2 instances)'."""
    m = re.match(r"([\d.]+)\s*([KMG])i?B(?:\s*\((\d+) instances?\))?", text or "")
    if not m:
        return None
    size = float(m.group(1)) * {"K": 2 ** 10, "M": 2 ** 20, "G": 2 ** 30}[m.group(2)]
    return size / int(m.group(3) or 1)


def residency(ws_bytes: int, machine: dict) -> str:
    l2 = _cache_bytes(machine.get("l2_cache"))
    if l2 is None:
        return "unknown (no L2 size)"
    if ws_bytes <= l2:
        return "cache-resident (fits in one core's L2); no bandwidth claim"
    l3 = _cache_bytes(machine.get("l3_cache"))
    if l3 is not None and ws_bytes <= l3:
        return "cache-resident (fits in L3); no bandwidth claim"
    return "exceeds L3"


def machine_info() -> dict:
    info = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": None, "l2_cache": None, "l3_cache": None,
            "blas_threads": {var: child_env()[var] for var in THREAD_VARS},
            "git_commit": None}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    keys = {"Model name": "cpu_model", "L2 cache": "l2_cache", "L3 cache": "l3_cache"}
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in keys:
            info[keys[key.strip()]] = value.strip()
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if git.returncode == 0:
            info["git_commit"] = git.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return info


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _terminate(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the worker
    raise SystemExit(128 + signum)


def measure(workloads: Dict[str, Workload], names: List[str], seed: int,
            seconds: float, trace: bool) -> List[Session]:
    """Run the closed loop over `names` in turn until `seconds` have passed."""
    started = time.perf_counter()
    sessions = [Session(workloads[n], seed, workloads, trace, started) for n in names]
    for session in sessions:
        session.warm_up()
    deadline = time.perf_counter() + seconds
    while True:
        for session in sessions:
            session.iterate()
        if time.perf_counter() >= deadline:
            return sessions


def main(argv=None, workloads: Dict[str, Workload] = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if SPEC is None or not (SRC / "ns1d" / "cli.py").is_file():
        print(f"no ns1d source tree under {SRC} (or no BENCHMARK.json); "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)

    names = list(workloads) if args.workload == "all" else [args.workload]
    sessions = measure(workloads, names, args.seed, args.seconds, bool(args.trace))
    declared = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    machine = machine_info()
    results = {s.workload.name: s.result(declared) for s in sessions}
    print(json.dumps({"context": {"seed": args.seed, "seconds": args.seconds,
                                  "trace": args.trace, "machine": machine,
                                  "workloads": [s.context(machine) for s in sessions]}}))
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"{name:16s} {metric:48s} {value:>14s} {m['unit']}")
    print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
