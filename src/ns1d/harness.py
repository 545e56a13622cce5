"""Configuration ingestion, presets, experiment orchestration, and CSV/JSON output.

Config files are flat structured text: one `key = value` per line, dotted
section keys (grid.N, gas.alpha, ...), `#` comments.  Unknown keys are
rejected with the offending line number.  All emitted CSV/JSON is bitwise
deterministic for a given config.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import time as _time
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .constitutive import (GasModel, HProfile, AdmissibilityReport, check_sample_range,
                           validate_h)
from .diagnostics import (DiagnosticsCollector, DiagnosticsRecord,
                          decay_metrics, initial_data_report, theta_floor_fit)
from .errors import (ArgumentError, ConfigError, DomainError, Ns1dError,
                     NewtonDivergenceError, PositivityError)
from .grid import Grid, State, apply_farfield, build_grid
from .solver import SolverConfig, advance
from .verification import check_levels, check_support, convergence_study, default_case

__all__ = [
    "RunConfig", "RunSummary", "PRESETS", "load_config", "parse_value",
    "apply_overrides", "config_to_flat", "config_from_flat", "default_config",
    "parse_list", "output_formats",
    "make_model", "make_initial_data", "run", "check_sweep", "sweep", "validate_h_config",
]

PRESETS = ("constant", "gauss-pulse", "two-bump", "mms")
OUTPUT_FORMATS = ("csv", "json")


def _key(name: str, default):
    """A RunConfig field whose flat config key is name."""
    return field(default=default, metadata={"key": name})


@dataclass
class RunConfig:
    preset: str = _key("preset", "gauss-pulse")
    strict: bool = _key("strict", True)
    # grid
    grid_L: float = _key("grid.L", 16.0)
    grid_N: int = _key("grid.N", 512)
    grid_ghost_depth: int = _key("grid.ghost_depth", 2)
    # gas
    gas_gamma: float = _key("gas.gamma", 5.0 / 3.0)
    gas_mu_tilde: float = _key("gas.mu_tilde", 1.0)
    gas_kappa_tilde: float = _key("gas.kappa_tilde", 1.0)
    gas_alpha: float = _key("gas.alpha", 0.0)
    h_kind: str = _key("gas.h.kind", "power-sum")
    h_ell1: float = _key("gas.h.ell1", 1.0)
    h_ell2: float = _key("gas.h.ell2", 1.0)
    h_c: float = _key("gas.h.c", 1.0)
    # solver
    integrator: str = _key("solver.integrator", "explicit")
    cfl_advective: float = _key("solver.cfl_advective", 0.4)
    cfl_parabolic: float = _key("solver.cfl_parabolic", 0.4)
    newton_tol: float = _key("solver.newton_tol", 1e-10)
    newton_max_iter: int = _key("solver.newton_max_iter", 25)
    positivity_floor: float = _key("solver.positivity_floor", 1e-8)
    max_dt_halvings: int = _key("solver.max_dt_halvings", 20)
    dt_max: float = _key("solver.dt_max", 0.0)
    # time
    t_end: float = _key("time.t_end", 5.0)
    output_every: float = _key("time.output_every", 0.1)
    # initial data
    amplitude: float = _key("init.amplitude", 0.3)
    width: float = _key("init.width", 1.0)
    perturb: str = _key("init.perturb", "v,theta")
    # mms
    mms_levels: str = _key("mms.levels", "64,128,256")
    mms_t_end: float = _key("mms.t_end", 0.25)
    mms_L: float = _key("mms.L", 12.0)
    mms_amplitude: float = _key("mms.amplitude", 0.1)
    # h validation range
    validate_v_min: float = _key("validate.v_min", 0.01)
    validate_v_max: float = _key("validate.v_max", 100.0)
    validate_samples: int = _key("validate.samples", 100000)
    # output
    out_dir: str = _key("output.directory", "out")
    out_formats: str = _key("output.formats", "csv,json")
    profile_every: float = _key("output.profile_every", 0.0)  # 0: snapshots at t0 and t_end only


# flat config key -> RunConfig attribute, in canonical emission order
KEYMAP: Dict[str, str] = {f.metadata["key"]: f.name for f in fields(RunConfig)}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_value(attr: str, raw: str):
    ftype = _FIELD_TYPES[attr]
    raw = raw.strip()
    try:
        if ftype == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"cannot parse {raw!r} for key of type {ftype}: {exc}") from exc


def parse_list(raw: str, kind=str) -> list:
    """Items of a comma list, stripped, empty ones dropped, each made by kind;
    a list with no item is refused."""
    items = [item.strip() for item in raw.split(",") if item.strip()]
    if not items:
        raise ConfigError(f"expected a comma list of {kind.__name__}, got {raw!r}")
    try:
        return [kind(item) for item in items]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {raw!r} as a list of {kind.__name__}: {exc}") from exc


def output_formats(config: RunConfig) -> set:
    formats = set(parse_list(config.out_formats))
    unknown = formats - set(OUTPUT_FORMATS)
    if unknown:
        raise ConfigError(f"unknown output formats {sorted(unknown)}; choose from {OUTPUT_FORMATS}")
    return formats


def validate_config(config: RunConfig) -> RunConfig:
    """Refuse, with ConfigError, every value a run could not use.

    Builds what the configured run builds, through the same builders, so each
    rule lives in the one constructor that owns it; their ArgumentError and
    DomainError become ConfigError.  The preset picks the data: the MMS case
    and its levels for "mms", the grid and the initial data otherwise.
    """
    non_finite = [key for key, attr in KEYMAP.items()
                  if _FIELD_TYPES[attr] == "float" and not math.isfinite(getattr(config, attr))]
    if non_finite:
        raise ConfigError(f"non-finite value for {', '.join(non_finite)}")
    if config.output_every <= 0 or config.output_every < 1e-12 * config.t_end:
        raise ConfigError(f"output_every must be positive and at least the landing "
                          f"tolerance 1e-12 * t_end, got {config.output_every}")
    if config.profile_every < 0:
        raise ConfigError("profile_every must be nonnegative (0: first and last snapshots)")
    if config.t_end < 0 or config.mms_t_end < 0:
        raise ConfigError("t_end must be nonnegative")
    output_formats(config)
    try:
        make_model(config)
        make_solver_config(config)
        check_sample_range((config.validate_v_min, config.validate_v_max),
                           config.validate_samples)
        if config.preset == "mms":
            levels = parse_list(config.mms_levels, int)
            check_levels(levels)
            build_grid(config.mms_L, levels[0])
            default_case(amplitude=config.mms_amplitude)
            check_support(config.mms_L, config.mms_amplitude)
        else:
            make_initial_data(config, build_grid(config.grid_L, config.grid_N,
                                                 config.grid_ghost_depth))
    except (ArgumentError, DomainError) as exc:
        raise ConfigError(str(exc)) from exc
    if config.strict and config.h_kind == "power-sum" and \
            (config.h_ell1 < 1.0 or config.h_ell2 < 1.0):
        warnings.warn(
            "the global-existence regime assumes ell1 >= 1 and ell2 >= 1; "
            f"got ell1={config.h_ell1}, ell2={config.h_ell2}; run proceeds",
            stacklevel=2)
    return config


def _assign(config: RunConfig, entries, noun: str = "key") -> RunConfig:
    """Parse each (where, "key = value") entry onto config, then validate it.

    `where` starts every error message about its entry (a file's `path:line: `).
    """
    for where, text in entries:
        key, eq, raw = text.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"{where}expected 'key = value', got {text!r}")
        if key not in KEYMAP:
            raise ConfigError(f"{where}unknown {noun} {key!r}")
        try:
            setattr(config, KEYMAP[key], parse_value(KEYMAP[key], raw))
        except ConfigError as exc:
            raise ConfigError(f"{where}{exc}") from exc
    return validate_config(config)


def config_from_flat(raw: Dict[str, str], source: str = "<dict>") -> RunConfig:
    return _assign(RunConfig(), ((f"{source}: ", f"{key}={value}")
                                 for key, value in raw.items()))


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    entries = ((f"{path}:{lineno}: ", line.split("#", 1)[0].strip())
               for lineno, line in enumerate(lines, start=1))
    return _assign(RunConfig(), ((where, text) for where, text in entries if text))


def default_config(preset: str = "gauss-pulse") -> RunConfig:
    config = RunConfig(preset=preset)
    if preset == "constant":
        config.amplitude = 0.0
    return validate_config(config)


def apply_overrides(config: RunConfig, overrides: List[str]) -> RunConfig:
    """Apply `--set key=value` pairs on top of a loaded config."""
    return _assign(config, (("", item) for item in overrides), noun="override key")


def config_to_flat(config: RunConfig) -> Dict[str, object]:
    """Canonical flat echo; loading it back reproduces the run."""
    return {key: getattr(config, attr) for key, attr in KEYMAP.items()}


# ---------------------------------------------------------------------------
# model and initial data
# ---------------------------------------------------------------------------

def make_model(config: RunConfig) -> GasModel:
    if config.h_kind == "constant":
        h = HProfile.constant(config.h_c)
    elif config.h_kind == "power-sum":
        h = HProfile.power_sum(config.h_ell1, config.h_ell2)
    else:
        raise ConfigError(f"unknown h kind {config.h_kind!r}")
    return GasModel(gamma=config.gas_gamma, mu_tilde=config.gas_mu_tilde,
                    kappa_tilde=config.gas_kappa_tilde, alpha=config.gas_alpha, h=h)


def make_solver_config(config: RunConfig) -> SolverConfig:
    return SolverConfig(
        integrator=config.integrator, cfl_advective=config.cfl_advective,
        cfl_parabolic=config.cfl_parabolic, newton_tol=config.newton_tol,
        newton_max_iter=config.newton_max_iter,
        positivity_floor=config.positivity_floor,
        max_dt_halvings=config.max_dt_halvings, dt_max=config.dt_max)


def _check_support(config: RunConfig, offset: float = 0.0):
    """The pulse's bumps, centred at +-offset, must fall to 1e-8 by |x| = L."""
    try:
        check_support(config.grid_L, config.amplitude, config.width, offset, tol=1e-8)
    except ArgumentError as exc:
        raise ConfigError(f"initial perturbation: {exc}") from exc


def make_initial_data(config: RunConfig, grid: Grid) -> State:
    """Preset initial data with far-field ghosts; positivity validated."""
    a, w = config.amplitude, config.width
    if config.preset not in PRESETS:
        raise ConfigError(f"unknown preset {config.preset!r}; choose from {PRESETS}")
    if a < 0 or (a >= 1.0 and config.preset != "constant"):
        raise ConfigError(f"amplitude must lie in [0, 1), got {a}")
    parts = set(parse_list(config.perturb))
    unknown = parts - {"v", "u", "theta"}
    if unknown:
        raise ConfigError(f"unknown perturb fields {sorted(unknown)}")
    state = State.equilibrium(grid)
    if config.preset == "constant" or a == 0.0:
        return state
    if not w >= grid.dx:
        raise ConfigError(f"width must be at least one cell (dx = {grid.dx:g}), got {w}")
    x = grid.all_cell_centers()
    xn = grid.all_node_positions()
    if config.preset == "two-bump":
        x0 = 2.0 * w
        _check_support(config, offset=x0)
        state.v = state.v + a * np.exp(-(((x + x0) / w) ** 2))
        state.theta = state.theta - 0.6 * a * np.exp(-(((x - x0) / w) ** 2))
        state.u = state.u + a * (xn / w) * np.exp(-((xn / w) ** 2))
    else:  # gauss-pulse
        _check_support(config)
        bump = a * np.exp(-((x / w) ** 2))
        if "v" in parts:
            state.v = state.v + bump
        if "theta" in parts:
            state.theta = state.theta + bump
        if "u" in parts:
            state.u = state.u + a * (xn / w) * np.exp(-((xn / w) ** 2))
    apply_farfield(state, grid)
    if np.any(state.v <= 0) or np.any(state.theta <= 0):
        raise ConfigError("initial data violate positivity")
    return state


# ---------------------------------------------------------------------------
# summaries and serialization
# ---------------------------------------------------------------------------

@dataclass
class RunSummary:
    config: Dict[str, object]
    exit_status: str                      # "ok" | "error"
    error: Optional[str] = None
    initial_report: Optional[dict] = None
    final_record: Optional[dict] = None
    c4_fit: Optional[float] = None
    decay: Optional[dict] = None
    max_mass_drift: Optional[float] = None
    max_momentum_drift: Optional[float] = None
    max_energy_drift: Optional[float] = None
    order_report: Optional[dict] = None
    admissibility: Optional[dict] = None
    steps: int = 0
    wall_time: float = 0.0                # excluded from serialized output

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d.pop("wall_time")  # nondeterministic; keep emitted JSON bit-exact
        return d


def _json_dump(obj, path: Path):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_timeseries(records: List[DiagnosticsRecord], path: Path):
    # plain Python floats, which csv writes as their shortest round-trip repr
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DiagnosticsRecord.CSV_COLUMNS)
        writer.writerows(rec.csv_row() for rec in records)


def _write_profile(state: State, grid: Grid, path: Path):
    ci = grid.cell_interior
    u_cells = 0.5 * (state.u[:-1] + state.u[1:])
    # plain Python floats, which csv writes as their shortest round-trip repr
    columns = [c.tolist() for c in (grid.cell_centers, state.v[ci],
                                    u_cells[ci], state.theta[ci])]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "v", "u", "theta"])
        writer.writerows([state.t, *row] for row in zip(*columns))


def _resolve_out_dir(config: RunConfig) -> Path:
    env = os.environ.get("NS1D_OUT")
    return Path(env) if env else Path(config.out_dir)


# ---------------------------------------------------------------------------
# run / sweep / validate-h
# ---------------------------------------------------------------------------

def run(config: RunConfig, out_dir: Optional[Path] = None) -> RunSummary:
    """Execute one configured experiment and emit its outputs."""
    t_start = _time.perf_counter()
    out = out_dir if out_dir is not None else _resolve_out_dir(config)
    out.mkdir(parents=True, exist_ok=True)
    formats = output_formats(config)
    summary = RunSummary(config=config_to_flat(config), exit_status="ok")
    error = None
    if config.preset == "mms":
        _run_mms(config, summary)
    else:
        error = _run_pulse(config, out, formats, summary)
    summary.wall_time = _time.perf_counter() - t_start
    if "json" in formats:
        _json_dump(summary.to_dict(), out / "summary.json")
    if isinstance(error, (PositivityError, NewtonDivergenceError)):
        raise error
    return summary


def _run_pulse(config: RunConfig, out: Path, formats: set,
               summary: RunSummary) -> Optional[Ns1dError]:
    """Advance the initial data with diagnostics, write the timeseries and
    profiles, and fill summary; a solver error is recorded and returned."""
    model = make_model(config)
    grid = build_grid(config.grid_L, config.grid_N, config.grid_ghost_depth)
    solver_config = make_solver_config(config)
    state = make_initial_data(config, grid)
    summary.initial_report = initial_data_report(state, grid).to_dict()
    collector = DiagnosticsCollector(model, grid)

    profiles_dir = out / "profiles"
    if "csv" in formats:
        profiles_dir.mkdir(exist_ok=True)
        _write_profile(state, grid, profiles_dir / "profile_t0.csv")

    next_profile = [config.profile_every] if config.profile_every > 0 else []

    def observer(s: State):
        collector.observe(s)
        if next_profile and s.t >= next_profile[0] - 1e-12 and "csv" in formats:
            _write_profile(s, grid, profiles_dir / f"profile_t{s.t:g}.csv")
            next_profile[0] += config.profile_every

    error = None
    try:
        state, stats = advance(state, model, grid, solver_config, config.t_end,
                               observer=observer, output_every=config.output_every,
                               on_step=collector.on_step)
        summary.steps = stats.steps
    except Ns1dError as exc:
        error = exc
        summary.exit_status = "error"
        summary.error = f"{type(exc).__name__}: {exc}"

    records = collector.records
    if "csv" in formats and records:
        _write_timeseries(records, out / "timeseries.csv")
        if error is None:
            _write_profile(state, grid, profiles_dir / f"profile_t{state.t:g}.csv")
    if records:
        rec0 = records[0]
        summary.final_record = dataclasses.asdict(records[-1])
        for name, attr in (("mass", "mass_dev"), ("momentum", "momentum"),
                           ("energy", "energy_dev")):
            start = getattr(rec0, attr)
            drift = max(abs(getattr(r, attr) - start) for r in records) / max(abs(start), 1.0)
            setattr(summary, f"max_{name}_drift", drift)
        if len(records) >= 3:
            summary.c4_fit = theta_floor_fit(records)
        if len(records) >= 2:
            summary.decay = decay_metrics(records).to_dict()
    return error


def _run_mms(config: RunConfig, summary: RunSummary):
    """The convergence study of the manufactured case, into summary."""
    report = convergence_study(default_case(amplitude=config.mms_amplitude),
                               make_model(config), parse_list(config.mms_levels, int),
                               config.mms_t_end, L=config.mms_L,
                               config=make_solver_config(config))
    summary.order_report = report.to_dict()
    summary.steps = report.steps


def _sweep_attr(parameter: str) -> str:
    attr = {"alpha": "gas_alpha", "gamma": "gas_gamma", "amplitude": "amplitude"}.get(parameter)
    if attr is None:
        raise ConfigError(f"sweep parameter must be alpha, gamma, or amplitude, got {parameter!r}")
    return attr


def check_sweep(base_config: RunConfig, parameter: str, values: List[float]):
    """Refuse, with a ConfigError naming it, the first value a sweep run could not use."""
    attr = _sweep_attr(parameter)
    for value in values:
        try:
            validate_config(dataclasses.replace(base_config, **{attr: value}))
        except ConfigError as exc:
            raise ConfigError(f"{parameter}={value:g}: {exc}") from exc


def sweep(base_config: RunConfig, parameter: str, values: List[float],
          out_dir: Optional[Path] = None) -> List[RunSummary]:
    """Independent runs over one parameter; per-value failures do not abort."""
    attr = _sweep_attr(parameter)
    root = out_dir if out_dir is not None else _resolve_out_dir(base_config)
    root.mkdir(parents=True, exist_ok=True)
    summaries = []
    for value in values:
        config = dataclasses.replace(base_config, **{attr: value})
        sub = root / f"{parameter}_{value:g}"
        try:
            config = validate_config(config)
            summaries.append(run(config, out_dir=sub))
        except Ns1dError as exc:
            summaries.append(RunSummary(config=config_to_flat(config),
                                        exit_status="error",
                                        error=f"{type(exc).__name__}: {exc}"))
    _json_dump([s.to_dict() for s in summaries], root / "sweep_summary.json")
    return summaries


def validate_h_config(config: RunConfig) -> AdmissibilityReport:
    model = make_model(config)
    report = validate_h(model.h, (config.validate_v_min, config.validate_v_max),
                        config.validate_samples)
    out = _resolve_out_dir(config)
    out.mkdir(parents=True, exist_ok=True)
    _json_dump(report.to_dict(), out / "admissibility.json")
    return report
