import collections
import contextlib
import io
import json
import math
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ns1d.harness
import ns1d.solver
import ns1d.verification
from ns1d import cli
from ns1d.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from ns1d.harness import KEYMAP, PRESETS


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("NS1D_OUT", str(tmp_path / "out"))
    return tmp_path / "out"


def write_config(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


FAST = ["--set", "grid.N=64", "--set", "time.t_end=0.1",
        "--set", "time.output_every=0.05"]


def test_run_ok(out_dir, capsys):
    assert main(["run", "--set", "preset=gauss-pulse"] + FAST) == EXIT_OK
    assert "status=ok" in capsys.readouterr().out
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "timeseries.csv").exists()


def test_pulse_domain_measured_from_its_edge(out_dir):
    # the bump is 0.3 * exp(-36) ~ 7e-17 at |x| = L = 6, far below the rule's 1e-8
    argv = ["run", "--set", "grid.L=6", "--set", "grid.N=64", "--set", "time.t_end=0.001"]
    assert main(argv) == EXIT_OK


@pytest.mark.parametrize("preset, refused", [("two-bump", "6.1493"), ("gauss-pulse", "4.1493")])
def test_printed_domain_bound_is_accepted(preset, refused, capsys):
    # the bound is 6.149302 (4.149302): the figure is rounded up, never down
    argv = ["run", "--set", f"preset={preset}", "--set", "grid.N=64",
            "--set", "time.t_end=0.001"]
    assert main(argv + ["--set", f"grid.L={refused}"]) == EXIT_CONFIG
    bound = re.search(r"L must be at least (\S+) ", capsys.readouterr().err).group(1)
    assert float(bound) > float(refused)
    assert main(argv + ["--set", f"grid.L={bound}"]) == EXIT_OK


def test_run_with_config_file(tmp_path, out_dir):
    cfg = write_config(tmp_path, "preset = constant\ngrid.N = 64\ntime.t_end = 0.05\n"
                                 "time.output_every = 0.05\n")
    assert main(["run", "--config", cfg]) == EXIT_OK
    data = json.loads((out_dir / "summary.json").read_text())
    assert data["config"]["preset"] == "constant"


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_examples_load(tmp_path, monkeypatch):
    # each `ns1d ...` line of the README's CLI block is parsed and its config
    # loaded and planned, not run, so the README cannot name a removed flag or key
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("ns1d ")]
    assert len(examples) == 5
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("grid.N = 64\n")
    for argv in examples:
        ns1d.harness.plan(cli._load(cli.build_parser().parse_args(argv[1:])))


def test_readme_config_table_names_only_keys():
    # every backticked key in the first column of the README's config table is a key
    table = README.read_text().split("| key | default | meaning |", 1)[1].split("\n\n", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert len(keys) >= len(rows) >= 10
    assert set(keys) <= set(KEYMAP), set(keys) - set(KEYMAP)


def test_config_error_exit_code(capsys):
    assert main(["run", "--set", "gas.gamma=1.0"] + FAST) == EXIT_CONFIG
    assert "gamma must exceed 1" in capsys.readouterr().err


def test_unknown_config_key(capsys):
    assert main(["run", "--set", "nope=1"]) == EXIT_CONFIG


def test_missing_config_file(capsys):
    assert main(["run", "--config", "/does/not/exist.cfg"]) == EXIT_CONFIG


def test_sweep(out_dir, capsys):
    rc = main(["sweep", "--param", "alpha", "--values=-0.05,0,0.05"] + FAST)
    assert rc == EXIT_OK
    assert "3/3 runs ok" in capsys.readouterr().out
    assert (out_dir / "sweep_summary.json").exists()


def test_mms(out_dir, capsys):
    rc = main(["mms", "--set", "mms.levels=16,32,64", "--set", "mms.t_end=0.05"])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["levels"] == [16, 32, 64]


def test_validate_h(out_dir, capsys):
    rc = main(["validate-h"])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["admissible"] is True
    assert (out_dir / "admissibility.json").exists()


def test_validate_h_exact_verdict(out_dir, capsys):
    assert main(["validate-h", "--set", "gas.h.ell1=2", "--set", "gas.h.ell2=2"]) == EXIT_OK
    report = json.loads((out_dir / "admissibility.json").read_text())
    assert report["C_slope"] == pytest.approx(1.4746362511, rel=1e-10)
    assert report["v_slope_argmax"] == pytest.approx(0.473768, rel=1e-6)


def test_warning_is_one_stderr_line(out_dir, capsys):
    # an unbounded requirement is a null C in the report, and the regime warning one line
    assert main(["validate-h", "--set", "gas.h.ell2=0.99"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ("warning: the global-existence regime assumes ell1 >= 1 and "
                            "ell2 >= 1; got ell1=1.0, ell2=0.99; proceeding\n")
    report = json.loads(captured.out)
    assert report["admissible"] is False and report["C"] is None
    assert "without bound" in report["note"]


def test_newton_max_iter_is_an_unknown_key(tmp_path, out_dir, capsys):
    # both implicit solves are linear: there is no iteration count to cap, and each
    # is checked by its backward error against a constant, so no tolerance to set
    argv = ["run", "--set", "solver.integrator=imex"] + FAST
    for key, value in (("solver.newton_max_iter", "25"), ("solver.newton_tol", "1e-10")):
        assert main(argv + ["--set", f"{key}={value}"]) == EXIT_CONFIG
        assert f"unknown override key {key!r}" in capsys.readouterr().err
        cfg = write_config(tmp_path, f"solver.integrator = imex\n{key} = {value}\n")
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert f"{cfg}:2: unknown key {key!r}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_strongly_conducting_imex_run_exits_0(out_dir):
    # r = dt/dx^2 is large: an exact solve leaves an absolute residual near 4e-10
    argv = ["run", "--set", "solver.integrator=imex", "--set", "gas.kappa_tilde=1e6",
            "--set", "grid.N=256", "--set", "time.t_end=0.02", "--set", "time.output_every=0.01"]
    assert main(argv) == EXIT_OK
    assert json.loads((out_dir / "summary.json").read_text())["exit_status"] == "ok"


@pytest.mark.parametrize("key", ["validate.v_min", "validate.v_max", "validate.samples"])
def test_validation_range_keys_are_gone(key, out_dir, capsys):
    assert main(["validate-h", "--set", f"{key}=100"]) == EXIT_CONFIG
    assert f"unknown override key {key!r}" in capsys.readouterr().err
    assert not (out_dir / "admissibility.json").exists()


def test_sweep_requires_param():
    with pytest.raises(SystemExit):
        main(["sweep", "--values", "0,1"])


@pytest.mark.parametrize("setting", ["time.t_end=nan", "gas.mu_tilde=nan",
                                     "gas.alpha=nan", "grid.L=inf"])
def test_non_finite_value_is_config_error(setting, capsys):
    assert main(["run"] + FAST + ["--set", setting]) == EXIT_CONFIG
    assert "non-finite value for " + setting.split("=")[0] in capsys.readouterr().err


def tight_floor(monkeypatch, floor=0.9, halvings=2):
    """Patch the solver's positivity floor and dt-halving budget; two-bump's theta
    dips to 0.88, below the default floor here, on every trial step."""
    monkeypatch.setattr(ns1d.solver, "POSITIVITY_FLOOR", floor)
    monkeypatch.setattr(ns1d.solver, "MAX_DT_HALVINGS", halvings)


def test_positivity_exhaustion_exit_code(monkeypatch, capsys):
    tight_floor(monkeypatch)
    assert main(["run", "--set", "preset=two-bump"] + FAST) == EXIT_NUMERICAL
    assert "dt halvings" in capsys.readouterr().err


def test_stalled_newton_exits_3(out_dir, capsys, monkeypatch):
    # a correction off by one part in 1e9 fails the backward-error check of the first solve
    real = ns1d.solver.solve_banded

    def perturbed(*args, **flags):
        out = real(*args, **flags)
        return out[:2] + (out[2] * (1.0 + 1e-9),) + out[3:]

    monkeypatch.setattr(ns1d.solver, "solve_banded", perturbed)
    assert main(["run", "--set", "solver.integrator=imex"] + FAST) == EXIT_NUMERICAL
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("numerical failure: NewtonDivergenceError: ")
    assert "backward error above 1e-12" in lines[0]
    data = json.loads((out_dir / "summary.json").read_text())
    assert data["exit_status"] == "error"
    assert lines[0] == f"numerical failure: {data['error']}"


def test_unwritable_output_directory_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("NS1D_OUT")          # so that output.directory is read
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    assert main(["run"] + FAST + ["--set", f"output.directory={blocker}/out"]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("I/O error: ") and err.count("\n") == 1
    assert "Traceback" not in err


MMS_FAST = ["--set", "mms.levels=16,32,64", "--set", "mms.t_end=0.05"]


@pytest.mark.parametrize("argv", [
    ["run", "--set", "solver.cfl_advective=2"],
    ["run", "--set", "preset=two-bump", "--set", "init.amplitude=0.9", "--set", "gas.alpha=-2000"],
    ["run", "--set", "gas.h.ell1=5000"],
    ["run", "--set", "solver.positivity_floor=2"],
    ["run", "--set", "solver.max_dt_halvings=-1"],
    ["run", "--set", "solver.dt_max=-1"],
    ["run", "--set", "output.profile_every=-1"],
    ["run", "--set", "grid.N=4"],
    ["run", "--set", "grid.L=-3"],
    ["run", "--set", "grid.ghost_depth=1"],
    ["run", "--set", "grid.L=1e200"],
    ["run", "--set", "init.width=0"],
    ["run", "--set", "gas.h.ell1=-1"],
    ["validate-h", "--set", "gas.h.ell1=-1"],
    ["validate-h", "--set", "validate.samples=100"],
    ["mms", "--set", "mms.levels=16,20,40"],
    ["mms", "--set", "mms.levels=16,32"],
    ["mms", "--set", "mms.levels=a,b"],
    ["mms", "--set", "mms.amplitude=1.5"],
    ["mms", "--set", "mms.L=2"],
    ["mms", "--set", "mms.L=4"],
    ["mms", "--set", "mms.t_end=-1"],
    ["mms", "--set", "output.formats=jsonx"],
    ["run", "--set", "output.formats=xml"],
    ["run", "--set", "preset=alpha-sweep", "--set", "sweep.values=x"],
    ["sweep", "--param", "alpha", "--values=a"],
    ["run", "--set", "output.formats="],
    ["sweep", "--param", "alpha", "--values="],
    ["run", "--set", "init.width=1e-200"],
    ["run", "--set", "preset=alpha-sweep"],
    ["run", "--set", "preset=gamma-sweep"],
    ["run", "--set", "sweep.param=alpha"],
    ["run", "--set", "sweep.values=0.1"],
    ["run", "--set", "time.output_every=1e-300"],
    ["run", "--set", "output.profile_every=1e-300"],
    ["sweep", "--param", "alpha", "--values=0.1,0.1"],
    ["run", "--set", "strict=false"],
    ["run", "--set", "init.perturb=u", "--set", "grid.L=4.2", "--set", "grid.N=256"],
    ["mms", "--set", "output.formats=csv"],
    ["sweep", "--set", "preset=mms", "--param", "amplitude", "--values=0.05,0.5"],
    ["sweep", "--set", "preset=constant", "--param", "amplitude", "--values=0.05,0.5"],
    ["validate-h", "--set", "gas.h.kind=constant", "--set", "gas.h.c=1e-320"],
    ["validate-h", "--set", "gas.h.ell1=1e308"],
    # finite viscosities whose first step is below the landing tolerance: the explicit
    # run would step near 1e-302, the MMS study's level-16 start near 2e-121
    ["run", "--set", "gas.mu_tilde=1e300"],
    ["mms", "--set", "gas.h.ell1=5000"],
], ids=lambda argv: " ".join(argv))
def test_refused_input_exits_2(argv, out_dir, capsys):
    command, rest = argv[0], argv[1:]
    fast = {"run": FAST, "sweep": FAST, "mms": MMS_FAST}.get(command, [])
    assert main([command] + fast + rest) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not out_dir.exists()       # planned before anything is written


@pytest.mark.parametrize("argv, name", [
    (["run", "--set", "gas.h.ell1=5000", "--set", "solver.integrator=imex"], "mu"),
    (["run", "--set", "gas.kappa_tilde=1e308"], "kappa"),
    (["validate-h", "--set", "gas.h.ell1=5000"], "mu"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_start_that_cannot_be_stepped_is_one_config_error(argv, name, out_dir, capsys):
    # h(1.3) = 1.3**5000 and 1e308 * h(v), h >= 2, overflow: no step could follow
    assert main(argv + FAST) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"config error: the initial {name} = {name}_tilde h(v) theta^alpha")
    assert not out_dir.exists()


def test_huge_imex_viscosity_records_a_finite_norm(out_dir, capsys):
    # mu = 1e300 h(v): the squares of mu*v_x/v overflow, so the norm is taken rescaled
    argv = ["run", "--set", "grid.N=64", "--set", "time.t_end=0.1",
            "--set", "gas.mu_tilde=1e300", "--set", "solver.integrator=imex"]
    assert main(argv) == EXIT_OK
    assert "warning:" not in capsys.readouterr().err
    lines = (out_dir / "timeseries.csv").read_text().splitlines()
    column = lines[0].split(",").index("mu_vx_norm")
    norms = [float(line.split(",")[column]) for line in lines[1:]]
    assert norms and all(1e298 < x < math.inf for x in norms)


def test_preset_flag_is_gone(capsys):
    # the preset is the `preset` key: --set preset=gauss-pulse
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "gauss-pulse"] + FAST)
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --preset" in capsys.readouterr().err


PLAN_BUILDERS = ("plan", "make_model", "make_solver_config", "output_formats", "build_grid",
                 "make_initial_data", "default_case")
PULSE_BUILDERS = set(PLAN_BUILDERS) - {"default_case"}
MMS_BUILDERS = set(PLAN_BUILDERS) - {"make_initial_data"}


@pytest.mark.parametrize("argv, builders, runs", [
    (["run", "--config", "run.cfg", "--set", "gas.alpha=0.1"] + FAST, PULSE_BUILDERS, 1),
    (["run"] + FAST, PULSE_BUILDERS, 1),
    (["sweep", "--param", "alpha", "--values=-0.05,0,0.05"] + FAST, PULSE_BUILDERS, 3),
    (["mms"] + MMS_FAST, MMS_BUILDERS, 1),
    (["validate-h"], PULSE_BUILDERS, 1),
], ids=["run-config", "run", "sweep", "mms", "validate-h"])
def test_each_builder_runs_once_per_run(argv, builders, runs, tmp_path, monkeypatch):
    # the config is planned once per run, and the run builds nothing again
    calls = collections.Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in PLAN_BUILDERS:
        monkeypatch.setattr(ns1d.harness, name, counted(name, getattr(ns1d.harness, name)))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("preset = two-bump\ngas.gamma = 1.4\n")
    assert main(argv) == EXIT_OK
    assert calls == {name: runs for name in builders}


def test_sweep_plans_its_base_config_only_with_a_value(out_dir, capsys):
    # no run reads the base's gamma, so a gamma sweep does not refuse it
    argv = ["sweep", "--set", "gas.gamma=1.0", "--param", "gamma", "--values=1.4,2"] + FAST
    assert main(argv) == EXIT_OK
    assert "2/2 runs ok" in capsys.readouterr().out
    # a key the sweep does not set is refused with the first value's prefix
    argv = ["sweep", "--set", "gas.gamma=1.0", "--param", "alpha", "--values=0,0.1"] + FAST
    assert main(argv) == EXIT_CONFIG
    assert "alpha=0: gamma must exceed 1" in capsys.readouterr().err
    argv = ["sweep", "--set", "preset=vortex", "--param", "amplitude", "--values=0.1,0.2"] + FAST
    assert main(argv) == EXIT_CONFIG
    assert "amplitude=0.1: unknown preset 'vortex'" in capsys.readouterr().err


def test_sweep_checks_every_value_before_any_run(out_dir, capsys):
    argv = ["sweep", "--param", "gamma", "--values=1.4,1.0"] + FAST
    assert main(argv) == EXIT_CONFIG
    assert "gamma=1: gamma must exceed 1" in capsys.readouterr().err
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_sweep_with_a_failed_run_exits_3(out_dir, monkeypatch, capsys):
    tight_floor(monkeypatch)
    argv = ["sweep", "--set", "preset=two-bump", "--param", "amplitude", "--values=0,0.3"]
    assert main(argv + FAST) == EXIT_NUMERICAL
    assert "1/2 runs ok" in capsys.readouterr().out
    summaries = json.loads((out_dir / "sweep_summary.json").read_text())
    assert [s["exit_status"] for s in summaries] == ["ok", "error"]


def test_sweep_entries_are_their_runs_summaries(out_dir, monkeypatch, capsys):
    tight_floor(monkeypatch)
    argv = ["sweep", "--set", "preset=two-bump", "--param", "amplitude", "--values=0,0.3",
            "--set", "grid.N=64", "--set", "time.t_end=0.1"]
    assert main(argv) == EXIT_NUMERICAL
    entries = json.loads((out_dir / "sweep_summary.json").read_text())
    runs = [json.loads((out_dir / f"amplitude_{v}" / "summary.json").read_text())
            for v in ("0", "0.3")]
    assert entries == runs
    assert entries[1]["exit_status"] == "error"
    assert entries[1]["final_record"] is not None


def test_close_sweep_values_get_their_own_directories(out_dir, capsys):
    # one name at %g (alpha_0.123456); the second run overwrote the first
    values = ("0.1234561", "0.1234562")
    assert main(["sweep", "--param", "alpha", f"--values={','.join(values)}"] + FAST) == EXIT_OK
    entries = json.loads((out_dir / "sweep_summary.json").read_text())
    runs = [json.loads((out_dir / f"alpha_{v}" / "summary.json").read_text()) for v in values]
    assert entries == runs
    assert [e["config"]["gas.alpha"] for e in entries] == [float(v) for v in values]


def test_sweep_values_sharing_a_directory_write_nothing(out_dir, capsys):
    assert main(["sweep", "--param", "alpha", "--values=0.1,0.1"] + FAST) == EXIT_CONFIG
    assert "share the directory alpha_0.1/" in capsys.readouterr().err
    assert not out_dir.exists()


def test_failed_mms_study_writes_its_summary(out_dir, monkeypatch, capsys):
    tight_floor(monkeypatch, 0.95, 1)
    argv = ["mms", "--set", "mms.levels=16,32,64", "--set", "mms.t_end=2"]
    assert main(argv) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("numerical failure: PositivityExhaustedError: ")
    data = json.loads((out_dir / "summary.json").read_text())
    assert data["exit_status"] == "error"
    assert lines[0] == f"numerical failure: {data['error']}"
    assert data["order_report"] is None


def test_failed_runs_record_their_accepted_steps(out_dir, monkeypatch):
    # the study fails at t = 1.35 of its first level, after accepted steps
    tight_floor(monkeypatch, 0.95, 1)
    argv = ["mms", "--set", "mms.levels=16,32,64", "--set", "mms.t_end=2"]
    assert main(argv) == EXIT_NUMERICAL
    data = json.loads((out_dir / "summary.json").read_text())
    assert data["exit_status"] == "error" and data["steps"] > 0
    # two-bump dips below the floor on its first step, at t = 0
    tight_floor(monkeypatch)
    assert main(["run", "--set", "preset=two-bump"] + FAST) == EXIT_NUMERICAL
    data = json.loads((out_dir / "summary.json").read_text())
    assert data["exit_status"] == "error" and data["steps"] == 0
    assert data["final_record"]["t"] == 0.0


def test_sweep_param_choices_are_the_harness_table(capsys):
    parser = cli.build_parser()
    for name in ns1d.harness.SWEEP_PARAMETERS:
        assert parser.parse_args(["sweep", "--param", name, "--values=0"]).param == name
    with pytest.raises(SystemExit):
        parser.parse_args(["sweep", "--param", "width", "--values=0"])


def test_tiny_t_end_takes_a_step(capsys):
    assert main(["run"] + FAST + ["--set", "time.t_end=1e-300"]) == EXIT_OK
    assert "status=ok steps=1" in capsys.readouterr().out


def test_tiny_mms_t_end_takes_a_step(monkeypatch, capsys):
    real, steps = ns1d.solver.step_explicit, []

    def counted(*args):
        steps.append(1)
        return real(*args)

    monkeypatch.setattr(ns1d.solver, "step_explicit", counted)
    assert main(["mms"] + MMS_FAST + ["--set", "mms.t_end=1e-300"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["t_end"] == 1e-300
    assert len(steps) == 3                  # one step per level


def test_mms_run_reports_its_steps(out_dir, monkeypatch, capsys):
    real, steps = ns1d.verification.advance, []

    def counted(*args, **kwargs):
        state, stats = real(*args, **kwargs)
        steps.append(stats.steps)
        return state, stats

    monkeypatch.setattr(ns1d.verification, "advance", counted)
    argv = ["run", "--set", "preset=mms", "--set", "mms.levels=16,32,64",
            "--set", "mms.t_end=0.01"]
    assert main(argv) == EXIT_OK
    assert len(steps) == 3 and min(steps) > 0
    assert f"status=ok steps={sum(steps)}" in capsys.readouterr().out
    assert json.loads((out_dir / "summary.json").read_text())["steps"] == sum(steps)


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 14.9 GiB")])
def test_memory_exhaustion_exits_4(exc, monkeypatch, capsys):
    def build_grid(*args):
        raise exc

    monkeypatch.setattr(ns1d.harness, "build_grid", build_grid)
    assert main(["run"] + FAST) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _floats(*usable):
    return st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, *usable])


# Every flat key with usable, refused and non-finite values, kept cheap:
# grid.N and the MMS levels stay <= 64, and t_end <= 0.05.
CHEAP = ["--set", "grid.N=64", "--set", "time.t_end=0.05",
         "--set", "time.output_every=0.05"] + MMS_FAST
OVERRIDES = {
    "preset": st.sampled_from(PRESETS + ("vortex",)),
    "strict": st.sampled_from(["true", "false"]),
    "grid.L": _floats(8.0, 16.0, 1e200),
    "grid.N": st.sampled_from([-1, 0, 4, 8, 32, 64]),
    "grid.ghost_depth": st.sampled_from([-1, 0, 1, 2, 3]),
    "gas.gamma": _floats(1.0, 1.4, 3.0),
    "gas.mu_tilde": _floats(0.5, 4.0),
    "gas.kappa_tilde": _floats(0.5, 4.0),
    "gas.alpha": _floats(-0.5, 0.1, 1.0),
    "gas.h.kind": st.sampled_from(["power-sum", "constant", "custom"]),
    "gas.h.ell1": _floats(0.5, 2.0),
    "gas.h.ell2": _floats(0.5, 2.0),
    "gas.h.c": _floats(0.5, 2.0),
    "solver.integrator": st.sampled_from(["explicit", "imex", "rk4"]),
    "solver.cfl_advective": _floats(0.4, 1.0, 2.0),
    "solver.cfl_parabolic": _floats(0.4, 1.0, 2.0),
    "solver.positivity_floor": _floats(1e-8, 0.9, 2.0),
    "solver.max_dt_halvings": st.sampled_from([-1, 0, 2, 20]),
    "solver.dt_max": _floats(0.01),
    "time.t_end": _floats(0.01, 0.05),
    "time.output_every": _floats(0.01, 0.05, 1.0),
    "init.amplitude": _floats(0.3, 0.99, 1.5),
    "init.width": _floats(0.5, 1e-200, 100.0),
    "init.perturb": st.sampled_from(["v,theta", "u", "v,u,theta", "", "rho"]),
    "mms.levels": st.sampled_from(["16,32,64", "8,16,32", "16,20,40", "16,32",
                                   "a,b", "", "0,0,0"]),
    "mms.t_end": _floats(0.01, 0.05),
    "mms.L": _floats(6.0, 12.0),
    "mms.amplitude": _floats(0.1, 0.5, 1.5),
    "sweep.param": st.sampled_from(["alpha", "bogus"]),
    "sweep.values": st.sampled_from(["", "x", "0,0.1", "nan"]),
    "output.formats": st.sampled_from(["csv,json", "json", "csv", "", "xml", "jsonx"]),
    "output.profile_every": _floats(0.01),
}


def test_overrides_cover_every_key():
    # the table is kept by hand: every key is in it, and only these unknown ones, each
    # a key that was removed, so that the property test sees them refused
    assert set(KEYMAP) - {"output.directory"} <= set(OVERRIDES)
    assert set(OVERRIDES) - set(KEYMAP) == {"strict", "sweep.param", "sweep.values",
                                            "solver.positivity_floor",
                                            "solver.max_dt_halvings", "mms.L",
                                            "grid.ghost_depth"}


@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(command="run", overrides={"preset": "mms"})
@given(command=st.sampled_from(["run", "mms"]),
       overrides=st.lists(st.sampled_from(sorted(OVERRIDES)), max_size=4, unique=True)
       .flatmap(lambda keys: st.fixed_dictionaries({k: OVERRIDES[k] for k in keys})))
def test_any_overrides_exit_with_a_documented_code(command, overrides):
    argv = [command] + CHEAP
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_IO)
    # a run over a positive horizon that exits 0 took at least one step
    horizon = "mms.t_end" if overrides.get("preset") == "mms" else "time.t_end"
    if command == "run" and code == EXIT_OK and float(overrides.get(horizon, 0.05)) > 0:
        steps = re.search(r"steps=(\d+)", printed.getvalue())
        assert steps and int(steps.group(1)) > 0, printed.getvalue()
