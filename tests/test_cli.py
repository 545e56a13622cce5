import json

import pytest

from ns1d.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main


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
    assert main(["run", "--preset", "gauss-pulse"] + FAST) == EXIT_OK
    assert "status=ok" in capsys.readouterr().out
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "timeseries.csv").exists()


def test_run_with_config_file(tmp_path, out_dir):
    cfg = write_config(tmp_path, "preset = constant\ngrid.N = 64\ntime.t_end = 0.05\n"
                                 "time.output_every = 0.05\n")
    assert main(["run", "--config", cfg]) == EXIT_OK
    data = json.loads((out_dir / "summary.json").read_text())
    assert data["config"]["preset"] == "constant"


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
    rc = main(["validate-h", "--set", "validate.samples=5000"])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["admissible"] is True
    assert (out_dir / "admissibility.json").exists()


def test_sweep_requires_param():
    with pytest.raises(SystemExit):
        main(["sweep", "--values", "0,1"])


@pytest.mark.parametrize("setting", ["time.t_end=nan", "gas.mu_tilde=nan",
                                     "gas.alpha=nan", "grid.L=inf"])
def test_non_finite_value_is_config_error(setting, capsys):
    assert main(["run"] + FAST + ["--set", setting]) == EXIT_CONFIG
    assert "non-finite value for " + setting.split("=")[0] in capsys.readouterr().err


def test_positivity_exhaustion_exit_code(capsys):
    argv = ["run", "--preset", "two-bump", "--set", "solver.positivity_floor=0.9",
            "--set", "solver.max_dt_halvings=2"]
    assert main(argv + FAST) == EXIT_NUMERICAL
    assert "dt halvings" in capsys.readouterr().err
