import csv
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

import ns1d.harness
from ns1d.diagnostics import DiagnosticsRecord, energy_identity_residual
from ns1d.errors import ConfigError
from ns1d.grid import build_grid
from ns1d.harness import (
    KEYMAP,
    RunConfig,
    _check_support,
    _write_profile,
    _write_timeseries,
    apply_overrides,
    config_to_flat,
    default_config,
    load_config,
    make_initial_data,
    make_model,
    parse_list,
    parse_value,
    run,
    sweep,
    validate_config,
    validate_h_config,
)
from ns1d.solver import AdvanceStats, SolverConfig


def write_config(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def fast_config(**kw):
    base = dict(preset="gauss-pulse", grid_L=16.0, grid_N=64, t_end=0.2,
                output_every=0.1, amplitude=0.2)
    base.update(kw)
    return dataclasses.replace(RunConfig(), **base)


class TestParsing:
    def test_parse_value_types(self):
        assert parse_value("grid_N", "128") == 128
        assert parse_value("gas_gamma", "1.4") == 1.4
        assert parse_value("preset", " two-bump ") == "two-bump"

    def test_parse_value_errors(self):
        with pytest.raises(ConfigError):
            parse_value("grid_N", "12.5")

    def test_empty_list_refused(self):
        assert parse_list(" 1, ,2", int) == [1, 2]
        for raw in ("", " , "):
            with pytest.raises(ConfigError, match="comma list"):
                parse_list(raw)

    def test_minimal_file(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "preset = constant\n"))
        assert cfg.preset == "constant"
        assert cfg.grid_N == 512  # defaults intact

    def test_comments_and_blank_lines(self, tmp_path):
        text = "# a comment\n\ngrid.N = 128  # trailing\ngas.alpha = 0.2\n"
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.grid_N == 128 and cfg.gas_alpha == 0.2

    def test_unknown_key_reports_line(self, tmp_path):
        p = write_config(tmp_path, "grid.N = 64\nbogus.key = 1\n")
        with pytest.raises(ConfigError, match=r":2: unknown key 'bogus.key'"):
            load_config(p)

    def test_malformed_line(self, tmp_path):
        p = write_config(tmp_path, "grid.N 64\n")
        with pytest.raises(ConfigError, match=r":1:"):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_bad_value_reports_line(self, tmp_path):
        p = write_config(tmp_path, "\ngrid.N = abc\n")
        with pytest.raises(ConfigError, match=r":2:"):
            load_config(p)


class TestValidation:
    def test_gamma_must_exceed_one(self, tmp_path):
        p = write_config(tmp_path, "gas.gamma = 1.0\n")
        with pytest.raises(ConfigError, match="gamma must exceed 1"):
            load_config(p)

    def test_defaults_pass(self):
        # default_config does not check; apply_overrides checks the defaults
        # with the overrides, so they must pass on their own
        assert default_config() == RunConfig()
        validate_config(RunConfig())

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            apply_overrides(default_config(), ["preset=vortex"])

    def test_warns_on_small_exponents(self):
        with pytest.warns(UserWarning, match="ell1 >= 1"):
            apply_overrides(default_config(), ["gas.h.ell1=0.5"])

    def test_unknown_h_kind(self):
        with pytest.raises(ConfigError, match="unknown h kind"):
            apply_overrides(default_config(), ["gas.h.kind=custom"])

    def test_unknown_integrator(self):
        with pytest.raises(ConfigError, match="unknown integrator"):
            apply_overrides(default_config(), ["solver.integrator=rk4"])

    def test_solver_keys_are_solver_config_fields(self):
        # one copy of each solver default: SolverConfig's
        run_fields = {f.name: f for f in dataclasses.fields(RunConfig)}
        for f in dataclasses.fields(SolverConfig):
            twin = run_fields[f.name]
            assert twin.metadata["key"] == f"solver.{f.name}"
            assert (twin.type, twin.default) == (f.type, f.default)


class TestOverridesAndEcho:
    def test_apply_overrides(self):
        cfg = default_config()
        cfg = apply_overrides(cfg, ["grid.N=128", "gas.alpha=0.3"])
        assert cfg.grid_N == 128 and cfg.gas_alpha == 0.3

    def test_override_bad_key(self):
        with pytest.raises(ConfigError, match="unknown override key"):
            apply_overrides(default_config(), ["nope=1"])

    def test_override_needs_equals(self):
        with pytest.raises(ConfigError):
            apply_overrides(default_config(), ["grid.N"])

    def test_echo_round_trip(self):
        cfg = fast_config(gas_alpha=0.07, integrator="imex")
        flat = config_to_flat(cfg)
        assert set(flat) == set(KEYMAP)
        back = apply_overrides(default_config(), [f"{k}={v}" for k, v in flat.items()])
        assert back == cfg


class TestInitialData:
    g = build_grid(16.0, 128)

    def test_zero_amplitude_is_equilibrium(self):
        s = make_initial_data(fast_config(amplitude=0.0), self.g)
        assert np.all(s.v == 1.0) and np.all(s.u == 0.0) and np.all(s.theta == 1.0)

    def test_gauss_pulse_fields(self):
        s = make_initial_data(fast_config(amplitude=0.3, perturb="v,theta"), self.g)
        c = self.g.ncells // 2
        assert s.v.max() == pytest.approx(1.3, abs=1e-2)
        assert np.all(s.u == 0.0)
        assert s.theta[c] > 1.0

    def test_perturb_selects_fields(self):
        s = make_initial_data(fast_config(perturb="u"), self.g)
        assert np.all(s.v == 1.0) and np.all(s.theta == 1.0)
        assert np.max(np.abs(s.u)) > 0.0

    def test_perturb_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown perturb"):
            make_initial_data(fast_config(perturb="rho"), self.g)

    def test_amplitude_range(self):
        with pytest.raises(ConfigError, match="amplitude"):
            make_initial_data(fast_config(amplitude=1.2), self.g)

    def test_two_bump_structure(self):
        s = make_initial_data(fast_config(preset="two-bump", amplitude=0.3), self.g)
        x = self.g.all_cell_centers()
        left = np.argmin(np.abs(x + 2.0))
        right = np.argmin(np.abs(x - 2.0))
        assert s.v[left] == pytest.approx(1.3, abs=1e-2)
        assert s.theta[right] == pytest.approx(1.0 - 0.18, abs=1e-2)
        assert np.max(np.abs(s.u)) > 0.0

    def test_support_check(self):
        # wide bump on a short domain leaks past |x| = L/2
        with pytest.raises(ConfigError, match="not supported"):
            make_initial_data(fast_config(grid_L=4.0, width=2.0), build_grid(4.0, 64))

    def test_support_check_matches_its_squared_form(self):
        # the rule is amplitude * exp(-reach**2) <= 1e-8; wherever reach**2
        # does not overflow, the overflow-free form must decide the same
        rng = np.random.default_rng(7)
        for _ in range(3000):
            cfg = fast_config(amplitude=float(rng.choice([rng.uniform(0, 1),
                                                          10 ** rng.uniform(-12, 0)])),
                              width=float(10 ** rng.uniform(-2, 1)),
                              grid_L=float(rng.uniform(0.1, 40.0)))
            offset = float(rng.choice([0.0, 2.0 * cfg.width]))
            reach = (cfg.grid_L - offset) / cfg.width
            refused = reach <= 0 or cfg.amplitude * math.exp(-reach ** 2) > 1e-8
            try:
                _check_support(cfg, offset)
            except ConfigError:
                assert refused
            else:
                assert not refused

    def test_width_below_one_cell_refused_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="one cell"):
                make_initial_data(fast_config(width=1e-200), self.g)
            make_initial_data(fast_config(width=self.g.dx), self.g)

    def test_u_bump_falls_to_the_rule_at_the_edge(self):
        # the u bump a (x/w) exp(-(x/w)^2) is a * reach * exp(-reach^2) at |x| = L,
        # L/w times the Gaussian's value there: 2.75e-8 at L = 4.2 and a = 0.3
        with pytest.raises(ConfigError, match="not supported"):
            make_initial_data(fast_config(grid_L=4.2, perturb="u"), build_grid(4.2, 256))
        grid = build_grid(4.6, 256)
        s = make_initial_data(fast_config(grid_L=4.6, amplitude=0.3, perturb="u"), grid)
        assert np.allclose(grid.node_positions[[0, -1]], [-4.6, 4.6], rtol=1e-15, atol=0)
        assert 0.0 < np.max(np.abs(s.u[grid.node_interior][[0, -1]])) <= 1e-8

    def test_u_bump_refusal_names_the_velocity_bump(self):
        # at the defaults the u bump needs L >= 4.32209 (4.3196 is refused);
        # the message names that bump and its edge rule, not a Gaussian
        grid = build_grid(4.3196, 512)
        with pytest.raises(ConfigError) as info:
            make_initial_data(fast_config(grid_L=4.3196, amplitude=0.3, perturb="u"), grid)
        assert "velocity bump" in str(info.value)
        assert "Gaussian" not in str(info.value)
        make_initial_data(fast_config(grid_L=4.3221, amplitude=0.3, perturb="u"),
                          build_grid(4.3221, 512))

    def test_support_check_narrow_width_does_not_overflow(self):
        _check_support(fast_config(width=1e-200))

    def test_make_model_kinds(self):
        m = make_model(fast_config(h_kind="constant", h_c=2.0, gas_alpha=0.5))
        assert float(m.h(3.7)) == 2.0
        m = make_model(fast_config(h_kind="power-sum", h_ell1=2.0, h_ell2=1.0))
        assert float(m.h(2.0)) == pytest.approx(4.5, rel=1e-14)


class TestRun:
    def test_outputs_and_summary(self, tmp_path):
        s = run(fast_config(), out_dir=tmp_path)
        assert s.exit_status == "ok"
        assert (tmp_path / "timeseries.csv").exists()
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "profiles" / "profile_t0.csv").exists()
        assert (tmp_path / "profiles" / "profile_t0.2.csv").exists()
        data = json.loads((tmp_path / "summary.json").read_text())
        assert data["exit_status"] == "ok"
        assert "wall_time" not in data
        assert data["steps"] > 0

    def test_profile_cells_round_trip_bitwise(self, tmp_path):
        grid = build_grid(16.0, 64)
        state = make_initial_data(fast_config(perturb="v,u,theta"), grid)
        state.t = 0.1 + 0.2                 # not its own shortest decimal
        _write_profile(state, grid, tmp_path / "p.csv")
        with (tmp_path / "p.csv").open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["t", "x", "v", "u", "theta"]
        t, x, v, u, theta = np.array([[float(cell) for cell in row] for row in rows]).T
        ci = grid.cell_interior
        assert t.tobytes() == np.full(grid.N, state.t).tobytes()
        assert x.tobytes() == grid.cell_centers.tobytes()
        assert v.tobytes() == state.v[ci].tobytes()
        assert u.tobytes() == (0.5 * (state.u[:-1] + state.u[1:]))[ci].tobytes()
        assert theta.tobytes() == state.theta[ci].tobytes()

    def test_profile_bytes_equal_csv_writer(self, tmp_path):
        grid = build_grid(16.0, 64)
        state = make_initial_data(fast_config(perturb="v,u,theta"), grid)
        g = grid.ghost_depth
        state.t = 0.35000000000000003
        state.u[g + 3:g + 5] = -0.0          # their cell average is -0.0
        state.v[g + 7] = 5e-324
        state.v[g + 8] = 0.1 + 0.2
        state.theta[g + 9] = 1e308
        _write_profile(state, grid, tmp_path / "p.csv")
        ci = grid.cell_interior
        columns = [c.tolist() for c in (grid.cell_centers, state.v[ci],
                                        (0.5 * (state.u[:-1] + state.u[1:]))[ci],
                                        state.theta[ci])]
        with (tmp_path / "want.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "v", "u", "theta"])
            writer.writerows([state.t, *row] for row in zip(*columns))
        got = (tmp_path / "p.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        for text in (b"0.35000000000000003,", b",-0.0,", b",5e-324,",
                     b",0.30000000000000004,", b",1e+308\r\n"):
            assert text in got

    def test_timeseries_bytes_equal_csv_writer(self, tmp_path):
        records = [DiagnosticsRecord(*(k + i / 7 for i in range(17))) for k in range(3)]
        records[0].t = 0.35000000000000003
        records[1].momentum = -0.0
        records[1].min_v = 5e-324
        records[2].eta_total = 0.1 + 0.2
        records[2].h2_dev = 1e308
        _write_timeseries(records, tmp_path / "ts.csv")
        with (tmp_path / "want.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(DiagnosticsRecord.CSV_COLUMNS)
            writer.writerows(rec.csv_row() for rec in records)
        got = (tmp_path / "ts.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        for text in (b"0.35000000000000003,", b",-0.0,", b",5e-324,",
                     b",0.30000000000000004,", b",1e+308\r\n"):
            assert text in got

    def test_long_run_profiles_at_the_first_record_after_each_multiple(self, tmp_path,
                                                                      monkeypatch):
        # records every 0.1 up to t = 200, a profile due every 0.3: each lands on
        # record 3k, also past t ~ 178, where a summed 0.3 schedule runs late
        def landing_records(state, model, grid, config, t_end, observer, output_every, on_step):
            for t in [0.0] + [k * output_every for k in range(1, 2000)] + [t_end]:
                state.t = t
                observer(state)
            return state, AdvanceStats(steps=2000)

        written = []
        monkeypatch.setattr(ns1d.harness, "advance", landing_records)
        monkeypatch.setattr(ns1d.harness.DiagnosticsCollector, "observe", lambda self, s: None)
        monkeypatch.setattr(ns1d.harness, "_write_profile",
                            lambda state, grid, path: written.append((state.t, path.name)))
        run(fast_config(preset="constant", grid_L=4.0, grid_N=8, t_end=200.0,
                        output_every=0.1, profile_every=0.3), out_dir=tmp_path)
        times = [k * 0.1 for k in range(0, 2000, 3)] + [200.0]
        assert [t for t, _ in written] == times
        assert len({name for _, name in written}) == len(times) == 668
        assert written[-1][1] == "profile_t200.csv"

    def test_timeseries_row_count(self, tmp_path):
        run(fast_config(t_end=0.5, output_every=0.1), out_dir=tmp_path)
        rows = (tmp_path / "timeseries.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 6  # header + floor(t_end/output_every) + 1

    def test_exhaustion_recorded_in_the_returned_summary(self, tmp_path):
        # two-bump dips theta to 0.88, below the floor, for every trial dt
        cfg = fast_config(preset="two-bump", positivity_floor=0.9, max_dt_halvings=2)
        s = run(cfg, out_dir=tmp_path)
        assert s.exit_status == "error"
        assert s.error.startswith("PositivityExhaustedError: ")
        data = json.loads((tmp_path / "summary.json").read_text())
        assert data["exit_status"] == "error"
        assert data["error"].startswith("PositivityExhaustedError: ")
        assert data == s.to_dict()

    def test_each_profile_written_once(self, tmp_path, monkeypatch):
        # t_end is a multiple of profile_every, so the last periodic profile
        # and the final one are the same file
        real, paths = ns1d.harness._write_profile, []

        def spy(state, grid, path):
            paths.append(path.name)
            real(state, grid, path)

        monkeypatch.setattr(ns1d.harness, "_write_profile", spy)
        run(fast_config(t_end=0.4, profile_every=0.2), out_dir=tmp_path)
        assert sorted(paths) == ["profile_t0.2.csv", "profile_t0.4.csv", "profile_t0.csv"]
        assert sorted(p.name for p in (tmp_path / "profiles").iterdir()) == sorted(paths)

    def test_determinism_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        cfg = fast_config(gas_alpha=0.05)
        run(cfg, out_dir=d1)
        run(dataclasses.replace(cfg), out_dir=d2)
        assert (d1 / "timeseries.csv").read_bytes() == (d2 / "timeseries.csv").read_bytes()
        assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()

    def test_env_var_overrides_out_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("NS1D_OUT", str(target))
        run(fast_config(out_dir=str(tmp_path / "ignored")))
        assert (target / "summary.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_mms_preset(self, tmp_path):
        cfg = fast_config(preset="mms", mms_levels="16,32,64", mms_t_end=0.05)
        s = run(cfg, out_dir=tmp_path)
        assert s.exit_status == "ok"
        assert s.order_report is not None
        assert s.order_report["levels"] == [16, 32, 64]
        assert (tmp_path / "summary.json").exists()

    def test_json_only_formats(self, tmp_path):
        run(fast_config(out_formats="json"), out_dir=tmp_path)
        assert (tmp_path / "summary.json").exists()
        assert not (tmp_path / "timeseries.csv").exists()


class TestSweep:
    def test_alpha_sweep_layout(self, tmp_path):
        summaries = sweep(fast_config(t_end=0.1), "alpha", [-0.05, 0.0, 0.05],
                          out_dir=tmp_path)
        assert len(summaries) == 3
        assert all(s.exit_status == "ok" for s in summaries)
        assert (tmp_path / "alpha_-0.05" / "summary.json").exists()
        assert (tmp_path / "alpha_0" / "summary.json").exists()
        assert (tmp_path / "sweep_summary.json").exists()
        data = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert [d["config"]["gas.alpha"] for d in data] == [-0.05, 0.0, 0.05]

    def test_empty_values(self, tmp_path):
        summaries = sweep(fast_config(), "alpha", [], out_dir=tmp_path)
        assert summaries == []
        assert json.loads((tmp_path / "sweep_summary.json").read_text()) == []

    def test_bad_parameter(self, tmp_path):
        with pytest.raises(ConfigError, match="sweep parameter"):
            sweep(fast_config(), "width", [1.0], out_dir=tmp_path)

    def test_failure_recorded_not_raised(self, tmp_path):
        # two-bump dips theta to 0.88, below the floor, at amplitude 0.3 only;
        # the failed run is recorded and the sweep goes on
        cfg = fast_config(preset="two-bump", positivity_floor=0.9, max_dt_halvings=2,
                          t_end=0.1)
        summaries = sweep(cfg, "amplitude", [0.3, 0.0], out_dir=tmp_path)
        assert [s.exit_status for s in summaries] == ["error", "ok"]
        assert summaries[0].error.startswith("PositivityExhaustedError: ")
        data = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert [d["exit_status"] for d in data] == ["error", "ok"]

    def test_refused_value_raises_before_anything_is_written(self, tmp_path):
        with pytest.raises(ConfigError, match="^gamma=1: gamma must exceed 1"):
            sweep(fast_config(), "gamma", [1.4, 1.0], out_dir=tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()

    def test_values_that_share_a_directory_are_refused(self, tmp_path):
        # distinct floats, one name at 15 significant digits
        with pytest.raises(ConfigError, match="share the directory alpha_0.3/"):
            sweep(fast_config(), "alpha", [0.3, 0.1 + 0.2], out_dir=tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()


class TestValidateH:
    def test_power_sum_admissible(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NS1D_OUT", str(tmp_path))
        rep = validate_h_config(fast_config(validate_samples=20000))
        assert rep.admissible
        data = json.loads((tmp_path / "admissibility.json").read_text())
        assert data["admissible"] is True

    def test_non_finite_requirement_refused_before_writing(self, tmp_path, monkeypatch):
        # h = 1e-320 overflows the growth ratio and makes the slope ratio 0/0
        monkeypatch.setenv("NS1D_OUT", str(tmp_path))
        with pytest.raises(ConfigError, match="not finite"):
            validate_h_config(fast_config(h_kind="constant", h_c=1e-320,
                                          validate_samples=100))
        assert not (tmp_path / "admissibility.json").exists()

    def test_constant_kind(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NS1D_OUT", str(tmp_path))
        rep = validate_h_config(fast_config(h_kind="constant", h_c=1.0,
                                            validate_samples=5000))
        assert rep.admissible


def _records(path):
    """The records of a timeseries.csv; csv holds each float's round-trip repr."""
    with path.open(newline="") as fh:
        return [DiagnosticsRecord(**{k: float(x) for k, x in row.items()})
                for row in csv.DictReader(fh)]


class TestReportedNumbers:
    """Each reported number has one definition; these identities tie the copies."""

    @pytest.mark.parametrize("integrator", ["explicit", "imex"])
    def test_record_identities(self, tmp_path, integrator):
        cfg = fast_config(integrator=integrator, gas_alpha=0.1, grid_N=128, t_end=0.3)
        summary = run(cfg, out_dir=tmp_path)
        records = _records(tmp_path / "timeseries.csv")
        assert len(records) == 4
        for rec in records:
            assert rec.identity_residual == energy_identity_residual(rec, records[0])
        rec0 = records[0]
        assert summary.initial_report == {"pi0_discrete": rec0.h2_dev, "min_v0": rec0.min_v,
                                          "max_v0": rec0.max_v, "min_theta0": rec0.min_theta}
        assert summary.final_record == dataclasses.asdict(records[-1])
        assert tuple(summary.final_record) == DiagnosticsRecord.CSV_COLUMNS

    def test_output_key_sets(self, tmp_path, monkeypatch):
        run_keys = {"config", "exit_status", "error", "initial_report", "final_record",
                    "c4_fit", "decay", "max_mass_drift", "max_momentum_drift",
                    "max_energy_drift", "order_report", "steps"}
        run(fast_config(), out_dir=tmp_path / "pulse")
        pulse = json.loads((tmp_path / "pulse" / "summary.json").read_text())
        assert set(pulse) == run_keys
        assert set(pulse["final_record"]) == set(DiagnosticsRecord.CSV_COLUMNS)
        assert set(pulse["initial_report"]) == {"pi0_discrete", "min_v0", "max_v0",
                                                "min_theta0"}
        assert set(pulse["decay"]) == {"times", "sup_devs", "half_time", "quarter_time",
                                       "tenth_time"}

        mms = fast_config(preset="mms", mms_levels="16,32,64", mms_t_end=0.01)
        run(mms, out_dir=tmp_path / "mms")
        mms_summary = json.loads((tmp_path / "mms" / "summary.json").read_text())
        assert set(mms_summary) == run_keys
        assert set(mms_summary["order_report"]) == {"levels", "t_end", "integrator",
                                                    "errors_l2", "errors_linf", "orders"}

        summaries = sweep(fast_config(t_end=0.1), "alpha", [0.0], out_dir=tmp_path / "sweep")
        entry, = json.loads((tmp_path / "sweep" / "sweep_summary.json").read_text())
        assert set(entry) == run_keys
        assert "wall_time" not in summaries[0].to_dict()

        monkeypatch.setenv("NS1D_OUT", str(tmp_path / "h"))
        validate_h_config(fast_config(validate_samples=1000))
        admissibility = json.loads((tmp_path / "h" / "admissibility.json").read_text())
        assert set(admissibility) == {"admissible", "C", "ell1", "ell2", "v_range", "samples",
                                      "C_growth", "v_growth_argmax", "C_slope",
                                      "v_slope_argmax", "note"}
