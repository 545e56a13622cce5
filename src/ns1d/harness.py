"""Configuration ingestion, presets, experiment orchestration, and CSV/JSON output.

Config files are flat structured text: one `key = value` per line, dotted
section keys (grid.N, gas.alpha, ...), `#` comments.  Unknown keys are
rejected with the offending line number.  All emitted CSV/JSON is bitwise
deterministic for a given config.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import warnings
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import chain, repeat
from pathlib import Path
from typing import ClassVar, Dict, List, Optional

import numpy as np

from .constitutive import GasModel, HProfile, AdmissibilityReport, validate_h
from .diagnostics import (DiagnosticsCollector, DiagnosticsRecord,
                          decay_metrics, initial_data_report, theta_floor_fit)
from .errors import ArgumentError, ConfigError, DomainError, Ns1dError
from .grid import Grid, State, apply_farfield, build_grid
from .solver import SolverConfig, Stage, advance, landing_tolerance, make_stage, step_size
from .verification import (MMS_HALF_WIDTH, ManufacturedCase, check_levels,
                           convergence_study, default_case, exact_state)

__all__ = [
    "RunConfig", "RunSummary", "PRESETS", "SWEEP_PARAMETERS", "load_config", "parse_value",
    "apply_overrides", "config_to_flat", "default_config", "parse_list", "output_formats",
    "make_model", "make_initial_data", "Plan", "plan", "run", "sweep", "validate_h_config",
]

# pulse preset -> ({field: (centre in widths, signed scale)}, the fields it perturbs when
# init.perturb is empty): each v or theta bump is scale a exp(-((x - centre w) / w)^2),
# and every pulse preset's u bump is the one term a (x/w) exp(-(x/w)^2)
PULSES = {
    "gauss-pulse": ({"v": (0.0, 1.0), "theta": (0.0, 1.0)}, ("v", "theta")),
    "two-bump": ({"v": (-2.0, 1.0), "theta": (2.0, -0.6)}, ("v", "theta", "u")),
}
PRESETS = ("constant", *PULSES, "mms")
OUTPUT_FORMATS = ("csv", "json")
# sweep parameter -> RunConfig attribute
SWEEP_PARAMETERS = {"alpha": "gas_alpha", "gamma": "gas_gamma", "amplitude": "amplitude"}


def _key(name: str, default):
    """A RunConfig field whose flat config key is name."""
    return field(default=default, metadata={"key": name})


@dataclass
class RunConfig:
    preset: str = _key("preset", "gauss-pulse")
    # grid
    grid_L: float = _key("grid.L", 16.0)
    grid_N: int = _key("grid.N", 512)
    grid_ghost_depth: ClassVar[int] = 2  # not a key: a deeper halo changes no output
    # gas
    gas_gamma: float = _key("gas.gamma", 5.0 / 3.0)
    gas_mu_tilde: float = _key("gas.mu_tilde", 1.0)
    gas_kappa_tilde: float = _key("gas.kappa_tilde", 1.0)
    gas_alpha: float = _key("gas.alpha", 0.0)
    h_kind: str = _key("gas.h.kind", "power-sum")
    h_ell1: float = _key("gas.h.ell1", 1.0)
    h_ell2: float = _key("gas.h.ell2", 1.0)
    h_c: float = _key("gas.h.c", 1.0)
    # solver: SolverConfig's fields, with its defaults
    integrator: str = _key("solver.integrator", SolverConfig.integrator)
    cfl_advective: float = _key("solver.cfl_advective", SolverConfig.cfl_advective)
    cfl_parabolic: float = _key("solver.cfl_parabolic", SolverConfig.cfl_parabolic)
    dt_max: float = _key("solver.dt_max", SolverConfig.dt_max)
    # time
    t_end: float = _key("time.t_end", 5.0)
    output_every: float = _key("time.output_every", 0.1)
    # initial data
    amplitude: float = _key("init.amplitude", 0.3)
    width: float = _key("init.width", 1.0)
    perturb: str = _key("init.perturb", "")  # empty: the preset's own fields
    # mms
    mms_levels: str = _key("mms.levels", "64,128,256")
    mms_t_end: float = _key("mms.t_end", 0.25)
    mms_amplitude: float = _key("mms.amplitude", 0.1)
    # output
    out_dir: str = _key("output.directory", "out")
    out_formats: str = _key("output.formats", "csv,json")
    profile_every: float = _key("output.profile_every", 0.0)  # 0: snapshots at t0 and t_end only


# flat config key -> RunConfig attribute, in canonical emission order
KEYMAP: Dict[str, str] = {f.metadata["key"]: f.name for f in fields(RunConfig)}


def parse_value(attr: str, raw: str):
    """raw, stripped, as a value of the type of attr's default; a refusal names attr's key."""
    kind, raw = type(getattr(RunConfig, attr)), raw.strip()
    try:
        return kind(raw)
    except ValueError as exc:
        key = RunConfig.__dataclass_fields__[attr].metadata["key"]
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind.__name__}: {exc}") from exc


def parse_list(key: str, raw: str, kind=str) -> list:
    """Items of raw, the comma list given for key, stripped, empty ones dropped, each made
    by kind; a list with no item is refused, naming key."""
    items = [item.strip() for item in raw.split(",") if item.strip()]
    if not items:
        raise ConfigError(f"{key}: expected a comma list of {kind.__name__}, got {raw!r}")
    try:
        return [kind(item) for item in items]
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} as a list of {kind.__name__}: "
                          f"{exc}") from exc


def output_formats(config: RunConfig) -> frozenset:
    formats = frozenset(parse_list("output.formats", config.out_formats))
    unknown = formats - set(OUTPUT_FORMATS)
    if unknown:
        raise ConfigError(f"unknown output formats {sorted(unknown)}; choose from {OUTPUT_FORMATS}")
    return formats


@dataclass(frozen=True)
class Plan:
    """A checked config and what its run builds from it: the grid and the checked initial
    Stage of a pulse run, or of an MMS study's first level, which the study steps as it
    is; for an MMS study also its case and levels."""
    config: RunConfig
    model: GasModel
    solver_config: SolverConfig
    formats: frozenset
    grid: Optional[Grid] = None
    state: Optional[State] = None
    case: Optional[ManufacturedCase] = None
    levels: Optional[List[int]] = None


def plan(config: RunConfig) -> Plan:
    """Build config's run, refusing with ConfigError every value it could not use.

    Each object is made by the one builder that owns its rules, so each rule
    lives there; their ArgumentError and DomainError become ConfigError.  The
    preset picks the data: the MMS case, its levels and the exact start on the
    first level's grid for "mms", the grid and the initial data otherwise.  The
    start is staged here, for the run to step as it is, and refused if it cannot
    be stepped (see `_check_start`).  An MMS study writes only summary.json, so its
    formats must include json.  `validate_h_config` plans no run: it builds only the
    gas model.
    """
    non_finite = [f.metadata["key"] for f in fields(RunConfig)
                  if type(f.default) is float and not math.isfinite(getattr(config, f.name))]
    if non_finite:
        raise ConfigError(f"non-finite value for {', '.join(non_finite)}")
    tol = landing_tolerance(0.0, config.t_end)
    if config.output_every <= 0 or config.output_every < tol:
        raise ConfigError(f"output_every must be positive and at least the landing "
                          f"tolerance 1e-12 * t_end, got {config.output_every}")
    if config.profile_every < 0 or 0 < config.profile_every < tol:
        raise ConfigError(f"profile_every must be 0 (first and last snapshots) or at least "
                          f"the landing tolerance 1e-12 * t_end, got {config.profile_every}")
    for key, t_end in (("time.t_end", config.t_end), ("mms.t_end", config.mms_t_end)):
        if t_end < 0:
            raise ConfigError(f"{key} must be nonnegative, got {t_end}")
    formats = output_formats(config)
    if config.preset == "mms" and "json" not in formats:
        raise ConfigError("the mms preset writes only summary.json, so output.formats "
                          f"must include json, got {config.out_formats!r}")
    try:
        model = make_model(config)
        solver_config = make_solver_config(config)
        if config.preset == "mms":
            levels = parse_list("mms.levels", config.mms_levels, int)
            try:
                check_levels(levels)
                grid = build_grid(MMS_HALF_WIDTH, levels[0])
            except ArgumentError as exc:
                raise ConfigError(f"mms.levels: {exc}") from exc
            try:
                case = default_case(amplitude=config.mms_amplitude)
            except ArgumentError as exc:
                raise ConfigError(f"mms.amplitude: {exc}") from exc
            start = _check_start(exact_state(case, grid, 0.0), model, grid, solver_config,
                                 config.mms_t_end)
        else:
            case = levels = None
            grid = build_grid(config.grid_L, config.grid_N, config.grid_ghost_depth)
            start = _check_start(make_initial_data(config, grid), model, grid, solver_config,
                                 config.t_end)
    except (ArgumentError, DomainError) as exc:
        raise ConfigError(str(exc)) from exc
    return Plan(config, model, solver_config, formats, grid, start, case, levels)


def _check_start(state: State, model: GasModel, grid: Grid, solver_config: SolverConfig,
                 t_end: float) -> Stage:
    """The stage of a start that can be stepped to t_end; ConfigError if its mu or kappa
    is not finite in float64, or if its first step, sized as `advance` sizes it, is
    below the landing tolerance 1e-12 * t_end (a huge but finite viscosity would
    otherwise step at its parabolic limit near 1e-300, or exhaust the dt halvings)."""
    with np.errstate(over="ignore", invalid="ignore"):     # refused below, not warned
        start = make_stage(state, model, grid)
    for name, coeff in (("mu", start.mu_v), ("kappa", start.kappa_v)):
        if not math.isfinite(coeff.max()):
            raise ConfigError(f"the initial {name} = {name}_tilde h(v) theta^alpha is "
                              "not finite in float64, so the start cannot be stepped")
    dt, tol = step_size(start, model, grid, solver_config), landing_tolerance(0.0, t_end)
    if not dt >= tol:
        raise ConfigError(f"the first {solver_config.integrator} step, {dt:.3g}, is below the "
                          f"landing tolerance 1e-12 * t_end = {tol:.3g}, so the run cannot "
                          "reach t_end")
    return start


def _assign(config: RunConfig, entries, noun: str = "key") -> RunConfig:
    """Parse each (where, "key = value") entry onto config; `plan` checks the values.

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
    return config


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    entries = ((f"{path}:{lineno}: ", line.split("#", 1)[0].strip())
               for lineno, line in enumerate(lines, start=1))
    return _assign(RunConfig(), ((where, text) for where, text in entries if text))


def default_config() -> RunConfig:
    """The defaults, which `plan` checks along with the overrides."""
    return RunConfig()


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
    """The gas model; a gas.h.* key that the chosen kind never reads must keep its default."""
    if config.h_kind == "constant":
        h, unread = HProfile.constant(config.h_c), ("gas.h.ell1", "gas.h.ell2")
    elif config.h_kind == "power-sum":
        h, unread = HProfile.power_sum(config.h_ell1, config.h_ell2), ("gas.h.c",)
    else:
        raise ConfigError(f"unknown h kind {config.h_kind!r}")
    for key in unread:
        value, default = getattr(config, KEYMAP[key]), getattr(RunConfig, KEYMAP[key])
        if value != default:
            raise ConfigError(f"{key}: gas.h.kind={config.h_kind} never reads it, so it must "
                              f"keep its default {default}, got {value}")
    model = GasModel(gamma=config.gas_gamma, mu_tilde=config.gas_mu_tilde,
                     kappa_tilde=config.gas_kappa_tilde, alpha=config.gas_alpha, h=h)
    if h.kind == "power-sum" and min(h.ell1, h.ell2) < 1.0:
        warnings.warn("the global-existence regime assumes ell1 >= 1 and ell2 >= 1; "
                      f"got ell1={h.ell1}, ell2={h.ell2}; proceeding", stacklevel=2)
    return model


def make_solver_config(config: RunConfig) -> SolverConfig:
    return SolverConfig(**{f.name: getattr(config, f.name) for f in fields(SolverConfig)})


def _check_support(config: RunConfig, centre: float = 0.0, scale: float = 1.0,
                   velocity: bool = False):
    """A pulse bump must fall to 1e-8 by |x| = L, past which the ghosts hold (1, 0, 1): a
    Gaussian a exp(-((x - centre)/w)^2), a = scale * amplitude, and with velocity the u bump
    a (x/w) exp(-(x/w)^2), whose edge value a (L/w) exp(-(L/w)^2) is a Gaussian's of peak
    a L/w.  A peak p falls to 1e-8 once reach = (L - |centre|)/w is at least
    sqrt(ln(p / 1e-8)): p exp(-reach^2) <= 1e-8 solved for reach, so nothing squares it."""
    a, w, L = scale * config.amplitude, config.width, config.grid_L
    reach = (L - abs(centre)) / w
    need = lambda p: math.sqrt(math.log(p / 1e-8)) if p > 1e-8 else 0.0
    if reach <= 0 or reach < need(a):
        raise ConfigError(
            f"initial perturbation: Gaussian (amplitude={a}, width={w}, centre={centre}) is not "
            f"supported inside |x| <= L = {L}: L must be at least "
            f"{_ceil_6g(abs(centre) + need(a) * w)} for it to fall to 1e-08 there")
    if velocity and L / w < need(a * L / w):
        raise ConfigError("initial perturbation: the velocity bump a (x/w) exp(-(x/w)^2) "
                          f"(a={a}, w={w}) is not supported inside |x| <= grid.L: its edge "
                          "value a (L/w) exp(-(L/w)^2) must fall to 1e-08")


def _ceil_6g(x: float) -> str:
    """x >= 0 at 6 significant figures, rounded up: a printed lower bound
    that is itself accepted."""
    s = f"{x:.6g}"
    if float(s) < x:                        # .6g rounded down: add one unit in the last figure
        s = f"{float(s) + 10.0 ** (math.floor(math.log10(float(s))) - 5):.6g}"
    return s


def make_initial_data(config: RunConfig, grid: Grid) -> State:
    """Preset initial data with far-field ghosts: (1, 0, 1) plus the bumps of the preset's
    PULSES row that init.perturb names (empty: the row's own fields), each held to
    `_check_support`.  The amplitude rule refuses NaN, so every preset keeps v >= 1 and
    theta >= 0.4; `plan` stages the start and checks it."""
    a, w = config.amplitude, config.width
    if config.preset not in PRESETS:
        raise ConfigError(f"unknown preset {config.preset!r}; choose from {PRESETS}")
    if config.preset == "mms":
        raise ConfigError("the mms preset has no initial data here: its study builds its own")
    bumps, own = PULSES.get(config.preset, ({}, ()))
    if not (a >= 0.0 and (a < 1.0 or not bumps)):
        raise ConfigError(f"init.amplitude must lie in [0, 1), got {a}")
    parts = set(parse_list("init.perturb", config.perturb) if config.perturb else own)
    unknown = parts - {"v", "u", "theta"}
    if unknown:
        raise ConfigError(f"unknown perturb fields {sorted(unknown)}")
    state = State.equilibrium(grid)
    if not bumps or a == 0.0:
        return state
    if not w >= grid.dx:
        raise ConfigError(f"width must be at least one cell (dx = {grid.dx:g}), got {w}")
    x = grid.all_cell_centers()
    for name, (centre, scale) in bumps.items():
        if name in parts:
            _check_support(config, centre * w, abs(scale))
            getattr(state, name)[:] += scale * a * np.exp(-(((x - centre * w) / w) ** 2))
    if "u" in parts:
        _check_support(config, velocity=True)
        xn = grid.all_node_positions()
        state.u += a * (xn / w) * np.exp(-((xn / w) ** 2))
    apply_farfield(state, grid)
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
    steps: int = 0

    def record_failure(self, exc: Ns1dError):
        self.exit_status = "error"
        self.error = f"{type(exc).__name__}: {exc}"
        self.steps = exc.steps


def _json_dump(obj, path: Path):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _name(x: float) -> str:
    """x in profile_t<x>.csv and <param>_<x>/: 15 digits tell any two record times apart."""
    return f"{x:.15g}"


def _write_csv(path: Path, header, rows):
    """Stream rows of str cells as csv.writer writes numbers: joined by ",", "\r\n" ends."""
    with path.open("w", newline="") as fh:
        fh.writelines(",".join(row) + "\r\n" for row in chain([header], rows))


def _write_timeseries(records: List[DiagnosticsRecord], path: Path):
    _write_csv(path, DiagnosticsRecord.CSV_COLUMNS, (map(str, rec.csv_row()) for rec in records))


@lru_cache(maxsize=1)
def _x_text(grid: Grid) -> tuple:
    """The x column of grid's profiles as text, formatted once per grid."""
    return tuple(map(str, grid.all_cell_centers()[grid.cell_interior].tolist()))


def _write_profile(state: State, grid: Grid, path: Path):
    ci = grid.cell_interior
    v, u, theta = (map(str, c[ci].tolist()) for c in
                   (state.v, grid.cell_average_of_nodes(state.u), state.theta))
    _write_csv(path, ("t", "x", "v", "u", "theta"),
               zip(repeat(str(state.t)), _x_text(grid), v, u, theta))


def _out_dir(config: RunConfig, out_dir: Optional[Path] = None) -> Path:
    """out_dir, else $NS1D_OUT, else output.directory; created."""
    out = out_dir if out_dir is not None else Path(os.environ.get("NS1D_OUT") or config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# run / sweep / validate-h
# ---------------------------------------------------------------------------

def run(config: RunConfig, out_dir: Optional[Path] = None) -> RunSummary:
    """Plan config, so a refused one raises ConfigError with nothing written, then execute it and
    return its summary; a numerical failure is recorded there (exit_status "error"), not raised."""
    return _execute(plan(config), out_dir)


def _execute(plan: Plan, out_dir: Optional[Path]) -> RunSummary:
    """Run a plan: neither a pulse run nor an MMS study builds its checked start again."""
    out = _out_dir(plan.config, out_dir)
    summary = RunSummary(config=config_to_flat(plan.config), exit_status="ok")
    if plan.case is not None:
        _run_mms(plan, summary)
    else:
        _run_pulse(plan, out, summary)
    if "json" in plan.formats:
        _json_dump(dataclasses.asdict(summary), out / "summary.json")
    return summary


def _run_pulse(plan: Plan, out: Path, summary: RunSummary):
    """Advance the initial data with diagnostics, write the timeseries and
    profiles, and fill summary, also after a failure of the solve."""
    config, formats, grid, state = plan.config, plan.formats, plan.grid, plan.state
    collector = DiagnosticsCollector(plan.model, grid)

    profiles_dir = _out_dir(config, out / "profiles") if "csv" in formats else None

    # a profile at t0, at t_end and at the first record at or after each t0 + k*profile_every
    t0, every, tol = state.t, config.profile_every, landing_tolerance(state.t, config.t_end)
    last_k = 0

    def observer(s: State):
        nonlocal last_k
        collector.observe(s)
        k = math.floor((s.t - t0 + tol) / every) if every else 0
        if "csv" in formats and (k > last_k or s.t in (t0, config.t_end)):
            _write_profile(s, grid, profiles_dir / f"profile_t{_name(s.t)}.csv")
        last_k = k

    try:
        _, stats = advance(state, plan.model, grid, plan.solver_config, config.t_end,
                           observer=observer, output_every=config.output_every,
                           on_step=collector.on_step)
        summary.steps = stats.steps
    except Ns1dError as exc:
        summary.record_failure(exc)

    records = collector.records
    if "csv" in formats and records:
        _write_timeseries(records, out / "timeseries.csv")
    if records:
        rec0 = records[0]
        summary.initial_report = dataclasses.asdict(initial_data_report(rec0))
        summary.final_record = dataclasses.asdict(records[-1])
        for name, attr in (("mass", "mass_dev"), ("momentum", "momentum"),
                           ("energy", "energy_dev")):
            start = getattr(rec0, attr)
            drift = max(abs(getattr(r, attr) - start) for r in records) / max(abs(start), 1.0)
            setattr(summary, f"max_{name}_drift", drift)
        if len(records) >= 3:
            summary.c4_fit = theta_floor_fit(records)
        if len(records) >= 2:
            summary.decay = dataclasses.asdict(decay_metrics(records))


def _run_mms(plan: Plan, summary: RunSummary):
    """The convergence study of the manufactured case, into summary."""
    try:
        report = convergence_study(plan.case, plan.model, plan.levels, plan.config.mms_t_end,
                                   config=plan.solver_config, start=plan.state)
        summary.order_report = report.to_dict()
        summary.steps = report.steps
    except Ns1dError as exc:
        summary.record_failure(exc)


def sweep(base_config: RunConfig, parameter: str, values: List[float],
          out_dir: Optional[Path] = None) -> List[RunSummary]:
    """Independent runs over one parameter, each in its <parameter>_<value>/.

    Every value is planned, and the base config only with a value, before the first run: a
    refused value, or two sharing a directory, raise a ConfigError with nothing written.  The
    summaries are what `run` returns, failed runs included, so each sweep_summary.json entry
    equals its run's summary.json.  Only the presets with a PULSES row read init.amplitude,
    so an amplitude sweep of another known preset is refused.
    """
    attr = SWEEP_PARAMETERS.get(parameter)
    if attr is None:
        raise ConfigError(f"sweep parameter must be one of {', '.join(SWEEP_PARAMETERS)}, "
                          f"got {parameter!r}")
    if attr == "amplitude" and base_config.preset in set(PRESETS) - set(PULSES):
        raise ConfigError(f"the {base_config.preset} preset ignores init.amplitude; "
                          f"sweep it on {' or '.join(PULSES)}")
    names = [f"{parameter}_{_name(value)}" for value in values]
    if len(set(names)) < len(names):
        raise ConfigError(f"{parameter} values share the directory {max(names, key=names.count)}/")
    plans = []
    for value in values:
        try:
            plans.append(plan(dataclasses.replace(base_config, **{attr: value})))
        except ConfigError as exc:
            raise ConfigError(f"{parameter}={_name(value)}: {exc}") from exc
    root = _out_dir(base_config, out_dir)
    summaries = [_execute(p, out_dir=root / name) for name, p in zip(names, plans)]
    _json_dump([dataclasses.asdict(s) for s in summaries], root / "sweep_summary.json")
    return summaries


def validate_h_config(config: RunConfig) -> AdmissibilityReport:
    """The admissibility of config's h, into admissibility.json.  It reads only the gas.*
    keys, which `make_model` checks, and output.directory: no run is planned or stepped."""
    try:
        report = validate_h(make_model(config).h)
    except (ArgumentError, DomainError) as exc:
        raise ConfigError(str(exc)) from exc
    _json_dump(dataclasses.asdict(report), _out_dir(config) / "admissibility.json")
    return report
