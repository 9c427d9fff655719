"""Scenario ingestion, experiment orchestration, and CSV artifact emission.

Subcommands: mesh, solve, flow-reversal, compare-props, verify. Scenarios
are JSON configs (schema documented in the README) whose defaults are the
desk-scale defaults: 0.1 m square plate, 5 mm thick, water at 1 mL/min,
f0 = 1000 W/m^2, h_T = 21, emissivity 0.97, ambient 296.42 K, BDF2 at
dt = 1 s to 1500 s. Outputs are plot-ready CSV files plus JSON summaries;
every run directory embeds an echoed config that reproduces it
byte-identically. Exit codes: 0 ok, 1 check failure, 2 invalid input,
3 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import operator
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__
from .assembly import BoundaryData, SurfaceExchange, ThermalProblem
from .geometry import LAYOUT_KINDS, Domain2D, LayoutParams, VasculaturePath, generate_layout
from .materials import (
    MODES,
    NUMBER,
    NUMBERS,
    TEXT_OR_NULL,
    ConfigError,
    builtin_material,
    builtin_names,
    check_types,
    is_kind,
    load_material_file,
    water_coolant,
)
from .mesh import (
    MAX_MESH_N,
    ChannelMesh,
    build_structured_mesh,
    embed_vasculature,
    mesh_stats,
    structured_node_count,
)
from .postprocess import (
    BoundsReport,
    Observables,
    arc_length_profile,
    channel_peclet,
    check_bounds,
    heat_flux_field,
    observables_for,
    series_observables,
)
from .solvers import (
    NewtonIteration,
    SolverError,
    TransientSettings,
    solve_steady,
    solve_transient,
)
from .verification import (
    jacobian_check,
    mms_case_cmp,
    mms_case_tdmp,
    mms_convergence,
    scalar_reference,
    toggle_masks,
)

# engineering thresholds (K) for the reversal experiment; the theory gives
# exact invariance, these bound the acceptable discrete gap at desk resolution
REVERSAL_THRESHOLDS = {"steady": 0.05, "transient": 0.2}

EXIT_OK, EXIT_CHECK_FAILED, EXIT_INVALID_INPUT, EXIT_SOLVER_FAILURE = 0, 1, 2, 3


class CheckFailed(Exception):
    """A steady min/max bound fails while its hypothesis holds; raised after the files are written."""


def _json_safe(x):
    """Map non-finite floats to None so summaries stay strict JSON."""
    if isinstance(x, float) and not np.isfinite(x):
        return None
    return x


# section -> key -> accepted JSON type; "config" is the top level. A bool is
# never a number, and the integer fields reject 40.0 as well as "40".
CONFIG_TYPES = {
    "config": {"domain": dict, "layout": dict, "mesh": dict, "material": dict, "coolant": dict,
               "load": dict, "surface": dict, "inlet": dict, "transient": dict,
               "flow_direction": str, "steady_only": bool, "output_dir": TEXT_OR_NULL},
    "domain": {"width": NUMBER, "height": NUMBER, "thickness": NUMBER},
    "layout": {"kind": str, "spacing": NUMBER, "margin": NUMBER, "pass_count": int,
               "offset": NUMBER, "inlet_edge": str},
    "vertex layout": {"vertices": list},
    "mesh": {"n": int, "element_order": int},
    "material": {"name": str, "mode": str, "file": TEXT_OR_NULL},
    "coolant": {"density": NUMBER, "specific_heat": NUMBER, "flow_rate_ml_per_min": NUMBER},
    "load": {"f0": NUMBER},
    "surface": {"h_T": NUMBER, "emissivity": NUMBER, "theta_amb": NUMBER},
    "inlet": {"theta_inlet": NUMBER},
    "transient": {"dt": NUMBER, "t_end": NUMBER, "bdf_order": int},
}
SECTIONS = tuple(key for key, kind in CONFIG_TYPES["config"].items() if kind is dict)


@dataclass
class ScenarioConfig:
    """Validated scenario description (see README for the JSON schema)."""

    domain: dict = field(default_factory=lambda: {"width": 0.1, "height": 0.1, "thickness": 0.005})
    layout: dict = field(default_factory=lambda: {"kind": "u_shape"})
    mesh: dict = field(default_factory=lambda: {"n": 40, "element_order": 1})
    material: dict = field(default_factory=lambda: {"name": "cfrp_like", "mode": "TDMP"})
    coolant: dict = field(default_factory=lambda: {
        "density": 1000.0, "specific_heat": 4183.0, "flow_rate_ml_per_min": 1.0})
    load: dict = field(default_factory=lambda: {"f0": 1000.0})
    surface: dict = field(default_factory=lambda: {"h_T": 21.0, "emissivity": 0.97, "theta_amb": 296.42})
    inlet: dict = field(default_factory=dict)
    transient: dict = field(default_factory=lambda: {"dt": 1.0, "t_end": 1500.0, "bdf_order": 2})
    flow_direction: str = "forward"
    steady_only: bool = False
    output_dir: str | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        check_types(data, CONFIG_TYPES["config"], "config")
        cfg = cls()
        for key, value in data.items():
            setattr(cfg, key, _merge(key, getattr(cfg, key), value) if key in SECTIONS else value)
        cfg.validate()
        return cfg

    def validate(self):
        for group in SECTIONS:
            where = "vertex layout" if group == "layout" and "vertices" in self.layout else group
            check_types(getattr(self, group), CONFIG_TYPES[where], where)
        if "vertices" in self.layout:
            if not all(is_kind(v, NUMBERS) and len(v) == 2 for v in self.layout["vertices"]):
                raise ConfigError("layout.vertices must be a list of [x, y] number pairs")
        elif self.layout["kind"] not in LAYOUT_KINDS:
            raise ConfigError(f"layout.kind must be one of {LAYOUT_KINDS}")
        if self.flow_direction not in ("forward", "reverse"):
            raise ConfigError("flow_direction must be 'forward' or 'reverse'")
        n = self.mesh["n"]
        if not 2 <= n <= MAX_MESH_N:
            raise ConfigError(f"mesh.n must lie in [2, {MAX_MESH_N}], got {n}")
        passes = self.layout.get("pass_count", LayoutParams.pass_count)
        if self.layout.get("kind") == "serpentine" and passes > n + 1:
            raise ConfigError(f"layout.pass_count exceeds mesh.n + 1 = {n + 1}: "
                              "each pass snaps to its own grid column")
        if self.mesh["element_order"] not in (1, 2):
            raise ConfigError("mesh.element_order must be 1 or 2")
        for key in ("density", "specific_heat"):
            if self.coolant[key] <= 0:
                raise ConfigError(f"coolant.{key} must be positive")
        if self.coolant["flow_rate_ml_per_min"] < 0:
            raise ConfigError("coolant.flow_rate_ml_per_min must be non-negative")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def replace(self, **groups) -> "ScenarioConfig":
        data = self.to_dict()
        for key, val in groups.items():
            data[key] = _merge(key, data[key], val) if key in SECTIONS and isinstance(val, dict) else val
        return ScenarioConfig.from_dict(data)

    @property
    def theta_inlet(self) -> float:
        return float(self.inlet.get("theta_inlet", self.surface["theta_amb"]))


def _merge(section: str, base: dict, override: dict) -> dict:
    """A config section with override laid over base, for both from_dict and replace.

    In a layout, the alias margins is renamed margin before the merge, so
    it replaces a margin set before, and a custom channel (vertices)
    replaces the generated layout instead of merging into it.
    """
    if section != "layout":
        return {**base, **override}
    override = _margin_alias(override)
    return dict(override) if "vertices" in override else {**base, **override}


def _margin_alias(layout: dict) -> dict:
    """layout with its documented alias margins renamed margin; giving both is refused."""
    if "margins" not in layout:
        return layout
    if "margin" in layout:
        raise ConfigError("layout sets both margin and its alias margins; give one")
    layout = dict(layout)
    layout["margin"] = layout.pop("margins")
    return layout


def load_config(path: str | None, overrides: dict | None = None) -> ScenarioConfig:
    if path is None:
        data = {}
    else:
        with open(path) as fh:
            data = json.load(fh)
    cfg = ScenarioConfig.from_dict(data)
    if overrides:
        cfg = cfg.replace(**overrides)
    return cfg


def build_problem(config: ScenarioConfig) -> ThermalProblem:
    """Materialize the scenario: layout, mesh, materials, boundary data."""
    dom = Domain2D(**config.domain)
    if "vertices" in config.layout:
        path = VasculaturePath(np.asarray(config.layout["vertices"], dtype=float))
    else:
        layout = dict(config.layout)
        kind = layout["kind"]
        if kind == "serpentine":
            layout.setdefault("spacing", 0.02)  # keeps 4 passes clear of the sides
        elif kind == "asymmetric":
            layout.setdefault("spacing", 0.05)
            layout.setdefault("offset", 0.005)
        path = generate_layout(dom, LayoutParams(**layout))
    if config.flow_direction == "reverse":
        path = path.reversed()
    grid = build_structured_mesh(dom, int(config.mesh["n"]), int(config.mesh["element_order"]))
    mesh = embed_vasculature(grid, path)

    mode = config.material["mode"]
    if config.material.get("file"):
        solid = load_material_file(config.material["file"], config.material.get("name"), mode)
    else:
        solid = builtin_material(config.material["name"], mode)

    coolant = water_coolant(
        float(config.coolant["flow_rate_ml_per_min"]),
        density=float(config.coolant["density"]),
        specific_heat=float(config.coolant["specific_heat"]),
    )
    return ThermalProblem(
        mesh=mesh,
        solid=solid,
        coolant=coolant,
        load=float(config.load["f0"]),
        surface=SurfaceExchange(**{key: float(value) for key, value in config.surface.items()}),
        bcs=BoundaryData(theta_inlet=config.theta_inlet),
    )


@dataclass(eq=False)
class RunResult:
    """One scenario run: nodal temperature states (row k of series at t = k dt) and observables."""

    config: ScenarioConfig
    problem: ThermalProblem
    steady_field: np.ndarray
    steady_obs: Observables
    bounds: BoundsReport
    series: np.ndarray | None = None
    series_obs: list = field(default_factory=list)
    newton_log: list = field(default_factory=list)
    wall_time: float = 0.0


_NOTES = (
    "initial temperature not specified by the scenario source; ambient assumed",
    "flow-reversal gap thresholds (0.05 K steady, 0.2 K transient) are engineering choices",
)


def _versions() -> dict:
    return {"vasctherm": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def _physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _transient_settings(config: ScenarioConfig) -> TransientSettings | None:
    """The run's transient settings, checked as they are built; None for a steady-only run."""
    return None if config.steady_only else TransientSettings(
        dt=float(config.transient["dt"]),
        t_end=float(config.transient["t_end"]),
        bdf_order=int(config.transient["bdf_order"]),
    )


def _check_history_fits(*configs: ScenarioConfig) -> None:
    """Refuse runs whose stored transient histories together outgrow physical memory.

    A transient stores every state, and both runs of an experiment hold theirs at once.
    """
    need = 0
    for config in configs:
        ts = _transient_settings(config)
        if ts is not None:
            nodes = structured_node_count(int(config.mesh["n"]), int(config.mesh["element_order"]))
            need += (ts.n_steps + 1) * nodes * 8
    have = _physical_memory()
    if need > have:
        raise ConfigError(f"the stored transient states need {need / 2**30:.3g} GiB, "
                          f"more than the {have / 2**30:.3g} GiB of physical memory")


def execute_run(config: ScenarioConfig) -> RunResult:
    """Solve one scenario (steady always; transient unless steady_only).

    The transient settings, and that its stored history fits in physical
    memory, are checked before the mesh is built. The steady solve and
    the transient steps run solve_steady's one Newton policy, chord Newton.
    """
    t0 = time.perf_counter()
    _check_history_fits(config)
    ts = _transient_settings(config)
    problem = build_problem(config)
    log: list = []
    steady = solve_steady(problem, log=log)
    bounds = check_bounds(steady, problem)
    series = None
    sobs: list = []
    if ts is not None:
        series = solve_transient(problem, ts, log=log)
        sobs = series_observables(problem, series, ts.dt)
    return RunResult(
        config=config,
        problem=problem,
        steady_field=steady,
        steady_obs=observables_for(problem, steady),
        bounds=bounds,
        series=series,
        series_obs=sobs,
        newton_log=log,
        wall_time=time.perf_counter() - t0,
    )


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write one CSV table with the bytes csv.writer would write, without it.

    Every row holds Python ints, floats and plain words, which csv.writer
    writes as their str, fields joined by commas and rows ended by CRLF; no
    header name or word holds a character it would quote. Numeric tables
    come as ndarray.tolist() rows, which converts every value to a Python
    number in one C loop rather than one numpy scalar at a time.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(str, row)) + "\r\n" for row in rows)


def export_mesh_csv(mesh: ChannelMesh, outdir: str) -> list[str]:
    """Write nodes/triangles/boundary/channel CSVs into outdir; returns file paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = [os.path.join(outdir, f"{name}.csv")
             for name in ("nodes", "triangles", "boundary_edges", "channel_chain")]
    _write_csv(paths[0], ["node_id", "x", "y"], zip(range(mesh.n_nodes), *mesh.nodes.T.tolist()))
    _write_csv(paths[1], [f"n{k}" for k in range(mesh.triangles.shape[1])], mesh.triangles.tolist())
    _write_csv(paths[2], ["node_a", "node_b", "tag"],
               zip(*mesh.boundary_edges[:, :2].T.tolist(), mesh.boundary_tags.tolist()))
    s_coords = mesh.channel_arc_coords() if mesh.has_channel else np.empty(0)
    # each chain node takes the tangent of the edge it starts; the outlet takes the last edge's
    edge = np.minimum(np.arange(len(mesh.channel_nodes)), len(mesh.channel_lengths) - 1)
    _write_csv(paths[3], ["node_id", "s", "t_x", "t_y"],
               zip(mesh.channel_nodes.tolist(), s_coords.tolist(), *mesh.channel_tangents[edge].T.tolist()))
    return paths


def _write_json(path: str, payload: dict) -> None:
    """Write one JSON document: sorted keys, two-space indent, a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_plot_data(run: RunResult, outdir: str) -> None:
    """Figure-oriented CSVs: time series, arc-length profile, field snapshot."""
    if run.series_obs:
        header = [f.name for f in dataclasses.fields(Observables)]
        table = np.array(list(map(operator.attrgetter(*header), run.series_obs)), dtype=float)
        _write_csv(os.path.join(outdir, "observables.csv"), header, table.tolist())
        for name, column in (("mst_vs_time.csv", "mst"), ("outlet_vs_time.csv", "theta_outlet"),
                             ("eta_vs_time.csv", "eta")):
            _write_csv(os.path.join(outdir, name), ["t", column],
                       table[:, [0, header.index(column)]].tolist())
    mesh = run.problem.mesh
    profile = arc_length_profile(run.steady_field, mesh)
    _write_csv(os.path.join(outdir, "arclength_profile.csv"), ["s", "theta"], profile.tolist())
    flux = heat_flux_field(run.steady_field, run.problem)
    owners = mesh.triangles.T.ravel()  # column by column, triangles in order: a fixed summation order
    counts = np.maximum(np.bincount(owners, minlength=mesh.n_nodes), 1)
    weights = np.tile(flux, (mesh.triangles.shape[1], 1))
    tri_flux = np.column_stack([np.bincount(owners, weights[:, c], mesh.n_nodes) for c in (0, 1)])
    tri_flux /= counts[:, None]
    _write_csv(os.path.join(outdir, "field_snapshot.csv"), ["x", "y", "theta", "q_x", "q_y"],
               np.column_stack([mesh.nodes, run.steady_field, tri_flux]).tolist())


def _write_run(run: RunResult, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    _write_json(os.path.join(outdir, "config_echo.json"), run.config.to_dict())
    emit_plot_data(run, outdir)
    header = [f.name for f in dataclasses.fields(NewtonIteration)]
    _write_csv(os.path.join(outdir, "solver_log.csv"), header,
               map(operator.attrgetter(*header), run.newton_log))
    bounds_payload = {
        "steady": dataclasses.asdict(run.bounds),
        "note": "bounds are proven for the steady regime; transient entries are informational",
    }
    if run.series is not None:
        bounds_payload["transient_final_informational"] = dataclasses.asdict(check_bounds(
            run.series[-1], run.problem, run.series_obs[-1].t))
    _write_json(os.path.join(outdir, "bounds.json"), bounds_payload)
    summary = {
        "steady": {k: _json_safe(v) for k, v in dataclasses.asdict(run.steady_obs).items() if k != "t"},
        "mesh": dataclasses.asdict(mesh_stats(run.problem.mesh)),
        "snap_error": run.problem.mesh.snap_error,
        "max_channel_peclet": float(np.max(channel_peclet(run.problem)))
        if run.problem.mesh.has_channel else None,
        "n_time_steps": 0 if run.series is None else len(run.series) - 1,
        "wall_time_s": run.wall_time,
        "versions": _versions(),
        "seeds": {},
        "notes": list(_NOTES),
    }
    _write_json(os.path.join(outdir, "summary.json"), summary)


def _check_steady_bounds(runs: dict[str, RunResult]) -> None:
    """Raise CheckFailed naming each steady bound that fails while its hypothesis holds."""
    failed = []
    for where, run in runs.items():
        bounds = dataclasses.asdict(run.bounds)
        for side in ("min", "max"):
            if bounds[f"{side}_hypothesis_met"] and not bounds[f"pass_{side}"]:
                failed.append(f"{where}: steady {side} bound fails by {bounds[f'{side}_violation']:.3g} K "
                              "with its hypothesis met")
    if failed:
        raise CheckFailed("; ".join(failed))


def run_scenario(config: ScenarioConfig, outdir: str) -> None:
    """Run one scenario and write its directory; CheckFailed afterwards if a steady bound fails."""
    run = execute_run(config)
    _write_run(run, outdir)
    _check_steady_bounds({outdir: run})


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _paired_runs(configs: dict[str, ScenarioConfig]) -> dict[str, RunResult]:
    with ThreadPoolExecutor(max_workers=min(len(configs), _usable_cpus())) as pool:
        futures = {name: pool.submit(execute_run, cfg) for name, cfg in configs.items()}
        return {name: future.result() for name, future in futures.items()}


# Observables field -> its name in the deltas.csv and summary.json keys
_DELTA_NAMES = {"mst": "dmst", "eta": "deta", "theta_outlet": "doutlet"}


def _abs_delta(a: float, b: float) -> float:
    return abs(a - b) if np.isfinite(a) and np.isfinite(b) else float("nan")


def _paired_experiment(config: ScenarioConfig, outdir: str, configs: dict[str, ScenarioConfig],
                       fields: tuple[str, ...], thresholds: dict | None = None) -> dict:
    """Run a pair of scenarios, write each run, their |differences| and a summary.

    With thresholds, the summary passes when every steady difference is
    within thresholds["steady"] and every transient one within
    thresholds["transient"]; non-finite differences are skipped in the
    transient maxima. Both runs' stored histories must fit in physical
    memory together, which is checked before either run starts.
    """
    _check_history_fits(*configs.values())
    runs = _paired_runs(configs)
    os.makedirs(outdir, exist_ok=True)
    for name, run in runs.items():
        _write_run(run, os.path.join(outdir, name))
    first, second = runs.values()
    columns = {f: [_abs_delta(getattr(a, f), getattr(b, f))
                   for a, b in zip(first.series_obs, second.series_obs)] for f in fields}
    table = np.column_stack([[obs.t for obs in first.series_obs], *columns.values()])
    _write_csv(os.path.join(outdir, "deltas.csv"),
               ["t"] + [f"abs_{_DELTA_NAMES[f]}" for f in fields], table.tolist())
    steady = {f: _abs_delta(getattr(first.steady_obs, f), getattr(second.steady_obs, f))
              for f in fields}
    transient = {f: max((d for d in columns[f] if np.isfinite(d)), default=0.0) for f in fields}
    summary = {"config_echo": config.to_dict(), "versions": _versions(), "notes": list(_NOTES)}
    for f in fields:
        summary[f"steady_abs_{_DELTA_NAMES[f]}"] = _json_safe(steady[f])
        summary[f"transient_max_abs_{_DELTA_NAMES[f]}"] = transient[f]
    if thresholds is not None:
        summary["thresholds"] = dict(thresholds)
        summary["passed"] = all(steady[f] <= thresholds["steady"]
                                and transient[f] <= thresholds["transient"] for f in fields)
    _write_json(os.path.join(outdir, "summary.json"), summary)
    _check_steady_bounds({os.path.join(outdir, name): run for name, run in runs.items()})
    return summary


def flow_reversal_experiment(config: ScenarioConfig, outdir: str) -> dict:
    """Forward and reverse runs with identical everything else, plus deltas."""
    return _paired_experiment(config, outdir, {
        "forward": config.replace(flow_direction="forward"),
        "reverse": config.replace(flow_direction="reverse"),
    }, ("mst", "theta_outlet"), REVERSAL_THRESHOLDS)


def compare_cmp_tdmp(config: ScenarioConfig, outdir: str) -> dict:
    """Paired constant-vs-temperature-dependent property runs."""
    return _paired_experiment(config, outdir, {
        "cmp": config.replace(material={"mode": "CMP"}),
        "tdmp": config.replace(material={"mode": "TDMP"}),
    }, ("mst", "eta", "theta_outlet"))


def run_verify(outdir: str, full: bool = False, seed: int = 0) -> int:
    """MMS slopes (solved by the scenario runs' chord Newton), Jacobian toggle masks, scalar reference."""
    os.makedirs(outdir, exist_ok=True)
    sizes = (8, 16, 32, 64) if full else (8, 16, 32)
    failures = []
    for case in (mms_case_cmp(), mms_case_tdmp()):
        table = mms_convergence(case, mesh_sizes=sizes)
        _write_csv(os.path.join(outdir, f"convergence_{case.name}.csv"), ["h", "l2_error", "max_error"],
                   np.array([(r.h, r.l2_error, r.max_error) for r in table.rows], dtype=float).tolist())
        ok = abs(table.slope - 2.0) <= 0.2
        print(f"{'PASS' if ok else 'FAIL'} mms {case.name}: L2 slope {table.slope:.3f} (target 2.0 +/- 0.2)")
        if not ok:
            failures.append(f"mms {case.name}")

    problem = _verify_problem()
    worst = np.max([jacobian_check(problem, trials=2, terms=mask, seed=seed) for mask in toggle_masks()])
    ok = worst <= 1e-5
    print(f"{'PASS' if ok else 'FAIL'} jacobian toggle masks: max relative gap {worst:.2e} (target <= 1e-5)")
    if not ok:
        failures.append("jacobian")

    scal_prob = _scalar_problem()
    dt, t_end = 1.0, 300.0
    series = solve_transient(scal_prob, TransientSettings(dt=dt, t_end=t_end))
    rk = scalar_reference(scal_prob, t_end=t_end).at(dt * np.arange(len(series)))
    gap = float(np.max(np.abs(series[:, 0] - rk) / rk))
    ok = gap <= 0.005
    print(f"{'PASS' if ok else 'FAIL'} scalar reference: max relative gap {gap:.2e} (target <= 5e-3)")
    if not ok:
        failures.append("scalar")

    _write_json(os.path.join(outdir, "verify_summary.json"),
                {"failures": failures, "seed": seed, "versions": _versions()})
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


def _verify_problem() -> ThermalProblem:
    from .materials import PropertyCurve, SolidMaterial

    dom = Domain2D()
    grid = build_structured_mesh(dom, 3)
    mesh = embed_vasculature(grid, VasculaturePath(np.array([[0.05, 0.1], [0.05, 0.0]])))
    wide = (200.0, 600.0)  # keeps clamp kinks away from finite-difference probes
    solid = SolidMaterial(
        name="verify",
        density=1600.0,
        specific_heat=PropertyCurve((560.0, 1.2), wide, "J/(kg*K)"),
        conductivity=PropertyCurve((5.0, 0.01), wide, "W/(m*K)"),
    )
    return ThermalProblem(
        mesh=mesh, solid=solid,
        coolant=water_coolant(1.0), load=1000.0,
    )


def _scalar_problem() -> ThermalProblem:
    return ThermalProblem(
        mesh=build_structured_mesh(Domain2D(), 2), solid=builtin_material("cfrp_like", "CMP"),
        coolant=water_coolant(0.0), load=1000.0,
    )


# flag -> the (section, key) it overrides (section None: the top level), and its argparse options
OVERRIDES = {
    "--flux": (("load", "f0"), {"type": float, "help": "override applied flux f0 (W/m^2)"}),
    "--layout": (("layout", "kind"), {"choices": LAYOUT_KINDS, "help": "override layout kind"}),
    "--material": (("material", "name"),
                   {"help": f"override material name ({', '.join(builtin_names())})"}),
    "--mode": (("material", "mode"), {"choices": MODES, "help": "override property mode"}),
    "--reverse": ((None, "flow_direction"),
                  {"action": "store_const", "const": "reverse", "help": "reverse the flow direction"}),
    "--steady-only": ((None, "steady_only"),
                      {"action": "store_const", "const": True, "help": "skip the transient solve"}),
    "--mesh-n": (("mesh", "n"), {"type": int, "help": "override mesh subdivisions"}),
    "--order": (("mesh", "element_order"),
                {"type": int, "choices": (1, 2), "help": "override element order"}),
    "--t-end": (("transient", "t_end"), {"type": float, "help": "override total time (s)"}),
    "--dt": (("transient", "dt"), {"type": float, "help": "override time step (s)"}),
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vasctherm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("mesh", "solve", "flow-reversal", "compare-props"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="scenario JSON file")
        sp.add_argument("--out", help="output directory (falls back to config output_dir)")
        for flag, (_, options) in OVERRIDES.items():
            sp.add_argument(flag, **options)
    vp = sub.add_parser("verify")
    vp.add_argument("--out", required=True)
    vp.add_argument("--full", action="store_true", help="include the n=64 mesh")
    vp.add_argument("--seed", type=int, default=0)
    return p


def _overrides(args) -> dict:
    """The config groups the override flags set: {"load": {"f0": ...}, "flow_direction": ..., ...}."""
    out: dict = {}
    for flag, ((section, key), _) in OVERRIDES.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            (out if section is None else out.setdefault(section, {}))[key] = value
    return out


def _is_negative_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return token.startswith("-")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join an option and the negative number after it: "--flux", "-2e3" -> "--flux=-2e3".

    argparse reads only plain negatives such as -2000 or -2.5 as values;
    it takes "-2e3" for an unknown option and leaves --flux without one.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _is_negative_number(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = _parser().parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "verify":
            return run_verify(args.out, full=args.full, seed=args.seed)
        config = load_config(args.config, _overrides(args))
        if args.out is None:
            if config.output_dir is None:
                raise ConfigError("no output directory: pass --out or set output_dir")
            args.out = config.output_dir
        if args.command == "mesh":
            problem = build_problem(config)
            export_mesh_csv(problem.mesh, args.out)
            stats = dataclasses.asdict(mesh_stats(problem.mesh))
            stats["snap_error"] = problem.mesh.snap_error
            _write_json(os.path.join(args.out, "mesh_stats.json"), stats)
            return EXIT_OK
        if args.command == "solve":
            run_scenario(config, args.out)
            return EXIT_OK
        if args.command == "flow-reversal":
            summary = flow_reversal_experiment(config, args.out)
            return EXIT_OK if summary["passed"] else EXIT_CHECK_FAILED
        if args.command == "compare-props":
            compare_cmp_tdmp(config, args.out)
            return EXIT_OK
        raise AssertionError(f"unhandled command {args.command}")
    except (ValueError, KeyError, OSError) as exc:  # ConfigError and JSONDecodeError included
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except CheckFailed as exc:
        print(f"error: check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (SolverError, MemoryError) as exc:
        print(f"error: solver failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
