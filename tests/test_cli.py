import contextlib
import csv
import dataclasses
import io
import json
import os
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, strategies as st

from vasctherm import cli, solvers
from vasctherm.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INVALID_INPUT,
    EXIT_OK,
    EXIT_SOLVER_FAILURE,
    ConfigError,
    ScenarioConfig,
    build_problem,
    compare_cmp_tdmp,
    execute_run,
    flow_reversal_experiment,
    load_config,
    main,
    run_scenario,
)
from vasctherm.geometry import LAYOUT_KINDS
from vasctherm.materials import Coolant, builtin_names
from vasctherm.mesh import MAX_MESH_N
from vasctherm.postprocess import arc_length_profile, channel_peclet, heat_flux_field
from vasctherm.solvers import MAX_BDF_STEPS, STEP_TOL, NewtonIteration, NewtonSettings, solve_steady
from vasctherm.verification import mms_convergence

FAST = {
    "mesh": {"n": 8},
    "transient": {"dt": 1.0, "t_end": 5.0},
    "material": {"name": "gfrp_like", "mode": "TDMP"},
}


def fast_config(**extra) -> ScenarioConfig:
    data = {k: dict(v) for k, v in FAST.items()}
    for key, val in extra.items():
        if key in data and isinstance(val, dict):
            data[key].update(val)
        else:
            data[key] = val
    return ScenarioConfig.from_dict(data)


def _files_match(dir1, dir2):
    """Every file under dir1 equals its copy under dir2, bar summary wall times."""
    files = sorted(p.relative_to(dir1) for p in dir1.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(dir2) for p in dir2.rglob("*") if p.is_file())
    for rel in files:
        b1, b2 = (dir1 / rel).read_bytes(), (dir2 / rel).read_bytes()
        if rel.name == "summary.json":
            b1, b2 = (
                {k: v for k, v in json.loads(b).items() if k != "wall_time_s"} for b in (b1, b2))
        assert b1 == b2, rel


def test_defaults_are_table_values():
    cfg = ScenarioConfig()
    assert cfg.domain == {"width": 0.1, "height": 0.1, "thickness": 0.005}
    assert cfg.coolant["flow_rate_ml_per_min"] == 1.0
    assert cfg.coolant["density"] == 1000.0
    assert cfg.coolant["specific_heat"] == 4183.0
    assert cfg.load["f0"] == 1000.0
    assert cfg.surface == {"h_T": 21.0, "emissivity": 0.97, "theta_amb": 296.42}
    assert cfg.transient == {"dt": 1.0, "t_end": 1500.0, "bdf_order": 2}
    assert cfg.mesh["n"] == 40
    assert cfg.theta_inlet == cfg.surface["theta_amb"] == 296.42


def test_build_problem_converts_the_coolant_flow_rate_once():
    cfg = ScenarioConfig.from_dict({"coolant": {"flow_rate_ml_per_min": 2.5, "density": 998.0,
                                                "specific_heat": 4180.0}, "mesh": {"n": 4}})
    assert build_problem(cfg).coolant == Coolant(998.0, 4180.0, 2.5 * 1e-6 / 60.0)  # bitwise


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"fluxx": 1000})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"surface": {"hT": 21.0}})


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"mesh": {"n": 1}})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"flow_direction": "sideways"})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"coolant": {"density": -5.0}})


def test_config_roundtrip_through_json(tmp_path):
    cfg = fast_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    again = load_config(str(path))
    assert again.to_dict() == cfg.to_dict()


def test_build_problem_reverse_swaps_ports():
    fwd = build_problem(fast_config())
    rev = build_problem(fast_config(flow_direction="reverse"))
    assert fwd.mesh.inlet_node == rev.mesh.outlet_node
    assert fwd.mesh.outlet_node == rev.mesh.inlet_node


def test_run_scenario_artifacts(tmp_path):
    out = tmp_path / "run"
    run_scenario(fast_config(), str(out))
    names = sorted(os.listdir(out))
    assert names == [
        "arclength_profile.csv", "bounds.json", "config_echo.json", "eta_vs_time.csv",
        "field_snapshot.csv", "mst_vs_time.csv", "observables.csv", "outlet_vs_time.csv",
        "solver_log.csv", "summary.json",
    ]
    obs = (out / "observables.csv").read_text().strip().splitlines()
    assert obs[0] == "t,mst,theta_outlet,eta,energy_residual"
    assert len(obs) == 1 + 5  # one row per time step
    log = [row.split(",") for row in (out / "solver_log.csv").read_text().strip().splitlines()]
    assert log[0] == ["step", "iteration", "residual_norm", "update_norm", "damping", "factorized"]
    assert {row[5] for row in log[1:]} == {"0", "1"}
    assert all(row[3] == "nan" and row[5] == "0" for row in log[1:] if row[1] == "0")  # initial-residual rows
    snapshot = (out / "field_snapshot.csv").read_text().strip().splitlines()
    problem = build_problem(fast_config())
    assert len(snapshot) == 1 + problem.mesh.n_nodes
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_time_steps"] == 5
    assert "vasctherm" in summary["versions"]
    assert summary["max_channel_peclet"] < 1.0


def _mean_flux_at_nodes(run):
    """Each node's mean of the flux over the triangles touching it, one column at a time."""
    mesh = run.problem.mesh
    flux = heat_flux_field(run.steady_field, run.problem)
    total, counts = np.zeros((mesh.n_nodes, 2)), np.zeros(mesh.n_nodes)
    for k in range(mesh.triangles.shape[1]):
        np.add.at(total, mesh.triangles[:, k], flux)
        np.add.at(counts, mesh.triangles[:, k], 1.0)
    return total / counts[:, None]


@pytest.mark.parametrize("order", [1, 2])
def test_snapshot_flux_is_the_mean_over_touching_triangles(tmp_path, order):
    run = execute_run(fast_config(steady_only=True, mesh={"element_order": order}))
    cli.emit_plot_data(run, str(tmp_path))
    rows = np.loadtxt(tmp_path / "field_snapshot.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 3:], _mean_flux_at_nodes(run))


def _per_value_csv(header, rows) -> bytes:
    """CSV bytes written value by value: integers and text as they are, any other number as
    repr(float(x))."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([str(v) if isinstance(v, (str, int, np.integer)) else repr(float(v)) for v in row]
                     for row in rows)
    return buf.getvalue().encode()


def _assert_csvs(outdir, references):
    assert sorted(p.name for p in outdir.glob("*.csv")) == sorted(references)
    for name, reference in references.items():
        assert (outdir / name).read_bytes() == reference, name


@pytest.mark.parametrize("order", [1, 2])
def test_solve_csvs_match_per_value_formatting(tmp_path, order):
    run = execute_run(fast_config(mesh={"n": 6, "element_order": order}, transient={"t_end": 4.0}))
    cli._write_run(run, str(tmp_path))
    mesh, obs = run.problem.mesh, run.series_obs
    series = {"mst": [o.mst for o in obs], "theta_outlet": [o.theta_outlet for o in obs],
              "eta": [o.eta for o in obs]}
    times = [o.t for o in obs]
    log_fields = [f.name for f in dataclasses.fields(NewtonIteration)]
    _assert_csvs(tmp_path, {
        "observables.csv": _per_value_csv(
            ["t", "mst", "theta_outlet", "eta", "energy_residual"],
            [(o.t, o.mst, o.theta_outlet, o.eta, o.energy_residual) for o in obs]),
        "mst_vs_time.csv": _per_value_csv(["t", "mst"], zip(times, series["mst"])),
        "outlet_vs_time.csv": _per_value_csv(["t", "theta_outlet"], zip(times, series["theta_outlet"])),
        "eta_vs_time.csv": _per_value_csv(["t", "eta"], zip(times, series["eta"])),
        "arclength_profile.csv": _per_value_csv(["s", "theta"],
                                                arc_length_profile(run.steady_field, mesh)),
        "field_snapshot.csv": _per_value_csv(
            ["x", "y", "theta", "q_x", "q_y"],
            [(x, y, v, qx, qy) for (x, y), v, (qx, qy)
             in zip(mesh.nodes, run.steady_field, _mean_flux_at_nodes(run))]),
        "solver_log.csv": _per_value_csv(
            log_fields, [[getattr(r, name) for name in log_fields] for r in run.newton_log]),
    })


@pytest.mark.parametrize("order", [1, 2])
def test_mesh_csvs_match_per_value_formatting(tmp_path, order):
    assert main(["mesh", "--out", str(tmp_path), "--mesh-n", "5", "--order", str(order)]) == EXIT_OK
    mesh = build_problem(ScenarioConfig.from_dict({"mesh": {"n": 5, "element_order": order}})).mesh
    s = mesh.channel_arc_coords()
    last = len(mesh.channel_lengths) - 1
    _assert_csvs(tmp_path, {
        "nodes.csv": _per_value_csv(["node_id", "x", "y"],
                                    [(i, x, y) for i, (x, y) in enumerate(mesh.nodes)]),
        "triangles.csv": _per_value_csv([f"n{k}" for k in range(mesh.triangles.shape[1])],
                                        mesh.triangles),
        "boundary_edges.csv": _per_value_csv(
            ["node_a", "node_b", "tag"],
            [(e[0], e[1], tag) for e, tag in zip(mesh.boundary_edges, mesh.boundary_tags)]),
        "channel_chain.csv": _per_value_csv(
            ["node_id", "s", "t_x", "t_y"],
            [(node, s[k], *mesh.channel_tangents[min(k, last)])
             for k, node in enumerate(mesh.channel_nodes)]),
    })


def test_deltas_csv_matches_per_value_formatting(tmp_path, monkeypatch):
    runs = {}
    paired_runs = cli._paired_runs

    def recording(configs):
        runs.update(paired_runs(configs))
        return runs

    monkeypatch.setattr(cli, "_paired_runs", recording)
    flow_reversal_experiment(fast_config(transient={"t_end": 3.0}), str(tmp_path))
    fwd, rev = runs["forward"].series_obs, runs["reverse"].series_obs
    _assert_csvs(tmp_path, {"deltas.csv": _per_value_csv(
        ["t", "abs_dmst", "abs_doutlet"],
        [(a.t, abs(a.mst - b.mst), abs(a.theta_outlet - b.theta_outlet)) for a, b in zip(fwd, rev)])})


def test_csv_writer_writes_the_bytes_of_csv_writer(tmp_path):
    header = ["step", "iteration", "residual_norm", "damping", "factorized"]
    rows = [
        [float("nan"), float("inf"), -float("inf"), -0.0, 0.0],
        [1e-5, 1e16, 1e-300, 123456789.123, -2.5e-7],
        [0, 1, -7, 2**53 + 1, True],
        [3, 2, 1.2345678901234567e-09, 0.5, 1],  # a solver-log row: ints and floats
        [0, 0, 16.93, 0.0, 0],
        np.array([[296.42, 1e-5, -0.0, 3.0, np.nan]]).tolist()[0],
        [7, float("nan"), float("inf"), -0.0, 1e-300, 0.1, "neumann"],  # a mesh table's tag is a word
    ]
    cli._write_csv(str(tmp_path / "new.csv"), header, rows)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_zero_load_reports_nan_eta_and_ambient_mst(tmp_path):
    out = tmp_path / "zero"
    run_scenario(fast_config(load={"f0": 0.0}), str(out))
    rows = (out / "observables.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        t, mst, outlet, eta, resid = row.split(",")
        assert float(mst) == pytest.approx(296.42, abs=1e-9)
        assert eta == "nan"


def test_run_steady_solve_factors_once(monkeypatch):
    # execute_run's steady solve is chord Newton; full Newton, its REFACTOR_RATIO = 0 limit,
    # is the oracle
    calls = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
    run = execute_run(fast_config(steady_only=True))
    assert len(calls) == 1
    assert sum(rec.factorized for rec in run.newton_log) == 1
    monkeypatch.setattr(solvers, "REFACTOR_RATIO", 0.0)
    oracle = solve_steady(run.problem)
    assert len(calls) > 2
    assert np.max(np.abs(run.steady_field - oracle)) <= 1e-6


def test_steady_only_skips_transient(tmp_path):
    out = tmp_path / "steady"
    run_scenario(fast_config(steady_only=True), str(out))
    assert not (out / "observables.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_time_steps"] == 0
    assert np.isfinite(summary["steady"]["mst"])


def test_zero_flow_forward_reverse_bitwise_identical():
    cfg = fast_config(coolant={"flow_rate_ml_per_min": 0.0}, steady_only=True)
    fwd = execute_run(cfg)
    rev = execute_run(cfg.replace(flow_direction="reverse"))
    assert np.array_equal(fwd.steady_field, rev.steady_field)


def _steady_config(kind, order, n, **groups) -> ScenarioConfig:
    return ScenarioConfig.from_dict({"layout": {"kind": kind}, "mesh": {"n": n, "element_order": order},
                                     "steady_only": True, **groups})


_DRAWN_MESHES = dict(kind=st.sampled_from(LAYOUT_KINDS), order=st.sampled_from([1, 2]),
                     n=st.integers(5, 10))  # below n=5 the serpentine's snapped passes overlap


@given(**_DRAWN_MESHES, material=st.sampled_from(builtin_names()), mode=st.sampled_from(["CMP", "TDMP"]))
def test_zero_flow_runs_do_not_depend_on_the_flow_direction(kind, order, n, material, mode):
    cfg = _steady_config(kind, order, n, material={"name": material, "mode": mode},
                         coolant={"flow_rate_ml_per_min": 0.0})
    fwd = execute_run(cfg)
    rev = execute_run(cfg.replace(flow_direction="reverse"))
    assert np.array_equal(fwd.steady_field, rev.steady_field)


@given(**_DRAWN_MESHES, material=st.sampled_from(builtin_names()), mode=st.sampled_from(["CMP", "TDMP"]),
       magnitude=st.floats(0.0, 5000.0), heating=st.booleans())
def test_steady_bounds_hold_for_loads_of_valid_sign(kind, order, n, material, mode, magnitude, heating):
    # a heating load keeps the field above its lower bound, a cooling one below its upper bound
    run = execute_run(_steady_config(kind, order, n, material={"name": material, "mode": mode},
                                     load={"f0": magnitude if heating else -magnitude}))
    # the discrete bounds presuppose a channel Peclet number below 1, as the default flow gives
    assert np.max(channel_peclet(run.problem)) < 1.0
    bounds = run.bounds
    if heating:
        assert bounds.min_hypothesis_met and bounds.pass_min, bounds
    else:
        assert bounds.max_hypothesis_met and bounds.pass_max, bounds


def test_flow_reversal_experiment_passes(tmp_path):
    out = tmp_path / "fr"
    summary = flow_reversal_experiment(fast_config(), str(out))
    assert summary["passed"]
    assert (out / "forward" / "observables.csv").exists()
    assert (out / "reverse" / "observables.csv").exists()
    deltas = (out / "deltas.csv").read_text().strip().splitlines()
    assert deltas[0] == "t,abs_dmst,abs_doutlet"
    assert len(deltas) == 1 + 5


def test_flow_reversal_cmp_mode_also_invariant(tmp_path):
    summary = flow_reversal_experiment(
        fast_config(material={"mode": "CMP"}), str(tmp_path / "fr_cmp"))
    assert summary["passed"]


@pytest.mark.parametrize("steady_gap, transient_gap, passed", [
    (0.1, 0.0, False), (0.0, 0.3, False), (0.04, 0.15, True)])
def test_flow_reversal_gaps_are_judged_against_0_05_and_0_2_K(tmp_path, monkeypatch, steady_gap,
                                                              transient_gap, passed):
    # the reverse run is the forward one with its MST shifted: the check sees only the gaps
    forward = execute_run(fast_config(transient={"t_end": 2.0}))

    def shifted(obs, gap):
        return dataclasses.replace(obs, mst=obs.mst + gap)

    reverse = dataclasses.replace(forward, steady_obs=shifted(forward.steady_obs, steady_gap),
                                  series_obs=[shifted(obs, transient_gap) for obs in forward.series_obs])
    monkeypatch.setattr(cli, "execute_run",
                        lambda config: reverse if config.flow_direction == "reverse" else forward)
    summary = flow_reversal_experiment(forward.config, str(tmp_path / "fr"))
    assert summary["steady_abs_dmst"] == pytest.approx(steady_gap, abs=1e-9)
    assert summary["transient_max_abs_dmst"] == pytest.approx(transient_gap, abs=1e-9)
    assert summary["passed"] is passed


def test_cooling_load_keeps_a_positive_efficiency(tmp_path):
    # f0 < 0: the coolant leaves colder than it entered and int f < 0, so eta > 0
    out = tmp_path / "cool"
    assert main(["solve", "--steady-only", "--mesh-n", "10", "--flux", "-2000", "--out", str(out)]) == EXIT_OK
    steady = json.loads((out / "summary.json").read_text())["steady"]
    assert steady["theta_outlet"] < ScenarioConfig().theta_inlet
    assert steady["eta"] == pytest.approx(0.1766, abs=5e-4)


def test_compare_props_control_is_zero_delta(tmp_path):
    # CMP vs CMP: force both runs into constant-property mode via a custom
    # TDMP material whose curves are already constant
    record = {
        "name": "flat",
        "density": 1500.0,
        "c_s": {"coeffs": [900.0], "range": [250.0, 500.0]},
        "k_s": {"coeffs": [1.0], "range": [250.0, 500.0]},
    }
    mat_file = tmp_path / "flat.json"
    mat_file.write_text(json.dumps(record))
    cfg = fast_config(material={"name": "flat", "mode": "TDMP", "file": str(mat_file)})
    summary = compare_cmp_tdmp(cfg, str(tmp_path / "cmp"))
    assert summary["steady_abs_dmst"] == 0.0
    assert summary["transient_max_abs_dmst"] == 0.0


def test_compare_props_emits_deltas(tmp_path):
    summary = compare_cmp_tdmp(fast_config(), str(tmp_path / "props"))
    assert np.isfinite(summary["steady_abs_dmst"])
    assert (tmp_path / "props" / "cmp" / "summary.json").exists()
    assert (tmp_path / "props" / "tdmp" / "summary.json").exists()


def test_rerun_from_echoed_config_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_scenario(fast_config(), str(out1))
    echoed = load_config(str(out1 / "config_echo.json"))
    run_scenario(echoed, str(out2))
    _files_match(out1, out2)


def test_main_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mesh": {"n": 0}}))
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "x")]) == EXIT_INVALID_INPUT
    assert main([
        "solve", "--out", str(tmp_path / "ok"), "--mesh-n", "6", "--t-end", "2",
        "--material", "gfrp_like",
    ]) == EXIT_OK
    assert main([
        "flow-reversal", "--out", str(tmp_path / "fr"), "--mesh-n", "6", "--t-end", "2",
        "--material", "gfrp_like",
    ]) == EXIT_OK


# a serpentine at 10 mL/min puts the channel Peclet number above 1, where the
# unstabilized channel term overshoots: the max bound fails by 0.399 K at n=10 P2
_BOUND_FAILS = {"layout": {"kind": "serpentine"}, "mesh": {"n": 10, "element_order": 2},
                "material": {"name": "gfrp_like"}, "coolant": {"flow_rate_ml_per_min": 10.0},
                "load": {"f0": -5000.0}}


@pytest.mark.parametrize("command, runs", [("solve", [""]), ("flow-reversal", ["forward", "reverse"]),
                                           ("compare-props", ["cmp", "tdmp"])])
def test_failed_steady_bound_exits_1_after_writing_every_file(tmp_path, capsys, command, runs):
    cfg = tmp_path / "peclet.json"
    cfg.write_text(json.dumps(_BOUND_FAILS))
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out), "--steady-only"]) == EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for run in runs:
        steady = json.loads((out / run / "bounds.json").read_text())["steady"]
        assert steady["max_hypothesis_met"] and not steady["pass_max"]
        assert steady["max_violation"] == pytest.approx(0.399, abs=0.01)
        assert f"{out / run}: steady max bound fails by {steady['max_violation']:.3g} K" in err
        assert (out / run / "summary.json").exists() and (out / run / "field_snapshot.csv").exists()
    if command != "solve":
        assert (out / "deltas.csv").exists() and (out / "summary.json").exists()


@pytest.mark.parametrize("exc, message", [(MemoryError("Unable to allocate 8.00 GiB"), "Unable to allocate"),
                                          (MemoryError(), "MemoryError")])
def test_memory_error_exits_3(tmp_path, monkeypatch, capsys, exc, message):
    def out_of_memory(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, "solve_steady", out_of_memory)
    code = main(["solve", "--out", str(tmp_path / "oom"), "--mesh-n", "4", "--steady-only"])
    assert code == EXIT_SOLVER_FAILURE
    err = capsys.readouterr().err
    assert f"error: solver failure: {message}" in err
    assert "Traceback" not in err


def test_history_beyond_physical_memory_exits_2_before_the_mesh(tmp_path, monkeypatch, capsys):
    # n=4 P2 has 81 nodes: 21 stored states take 13,608 bytes
    built = []
    monkeypatch.setattr(cli, "build_structured_mesh", lambda *args: built.append(args))
    monkeypatch.setattr(cli, "_physical_memory", lambda: 13_607)
    argv = ["solve", "--out", str(tmp_path / "big"), "--mesh-n", "4", "--order", "2", "--t-end", "20"]
    assert main(argv) == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert "error: invalid input:" in err and "physical memory" in err and "Traceback" not in err
    assert built == [] and not (tmp_path / "big").exists()
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_physical_memory", lambda: 13_608)
    assert main(argv) == EXIT_OK


@pytest.mark.parametrize("command", ["flow-reversal", "compare-props"])
def test_pair_histories_beyond_physical_memory_exit_2_before_the_mesh(tmp_path, monkeypatch, capsys, command):
    # both runs hold their 21 stored states of 81 nodes (n=4 P2) at once: 27,216 bytes together
    built = []
    build = cli.build_structured_mesh
    monkeypatch.setattr(cli, "build_structured_mesh", lambda *args: built.append(args) or build(*args))
    monkeypatch.setattr(cli, "_physical_memory", lambda: 27_215)
    argv = [command, "--out", str(tmp_path / "pair"), "--mesh-n", "4", "--order", "2", "--t-end", "20"]
    assert main(argv) == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert "error: invalid input:" in err and "physical memory" in err and "Traceback" not in err
    assert built == [] and not (tmp_path / "pair").exists()
    monkeypatch.setattr(cli, "_physical_memory", lambda: 27_216)
    assert main(argv) == EXIT_OK
    assert len(built) == 2


def test_zero_load_summary_is_strict_json(tmp_path):
    out = tmp_path / "zl"
    run_scenario(fast_config(load={"f0": 0.0}), str(out))
    text = (out / "summary.json").read_text()
    assert "NaN" not in text
    assert json.loads(text)["steady"]["eta"] is None


def test_main_solver_failure_exit_code(tmp_path):
    # no sinks, no flow: a singular pure-neumann system
    cfg = tmp_path / "singular.json"
    cfg.write_text(json.dumps({
        "mesh": {"n": 4},
        "surface": {"h_T": 0.0, "emissivity": 0.0},
        "coolant": {"flow_rate_ml_per_min": 0.0},
        "steady_only": True,
    }))
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "sing")])
    assert code == 3


def test_main_non_finite_newton_exits_3(tmp_path, capsys):
    with pytest.warns(RuntimeWarning):  # theta**4 overflows in the line-search trials
        code = main(["solve", "--out", str(tmp_path / "inf"), "--steady-only",
                     "--mesh-n", "4", "--flux", "1e120"])
    assert code == 3
    err = capsys.readouterr().err
    assert "non-finite residual" in err
    assert "Traceback" not in err


WRONG_TYPES = [
    {"mesh": {"n": None}},
    {"mesh": {"n": "40"}},
    {"mesh": {"n": 40.0}},
    {"mesh": {"element_order": True}},
    {"coolant": {"flow_rate_ml_per_min": "1"}},
    {"coolant": {"flow_rate_ml_per_min": float("inf")}},
    {"coolant": {"density": None}},
    {"coolant": {"specific_heat": [4183.0]}},
    {"surface": {"h_T": None}},
    {"surface": {"h_T": float("nan")}},
    {"surface": {"emissivity": True}},
    {"surface": {"theta_amb": "296"}},
    {"domain": {"width": "a"}},
    {"domain": {"height": None}},
    {"domain": {"thickness": False}},
    {"load": {"f0": "1000"}},
    {"load": {"f0": 2**1024}},  # just beyond the float range
    {"inlet": {"theta_inlet": None}},
    {"inlet": {"theta_inlet": float("nan")}},
    {"transient": {"dt": "1"}},
    {"transient": {"t_end": None}},
    {"transient": {"bdf_order": 2.0}},
    {"layout": {"kind": 3}},
    {"layout": {"spacing": "0.03"}},
    {"layout": {"margin": None}},
    {"layout": {"pass_count": 4.5}},
    {"layout": {"offset": True}},
    {"layout": {"inlet_edge": None}},
    {"layout": {"vertices": "0.05,0.1"}},
    {"layout": {"vertices": [[0.05, {"y": 0.1}], [0.05, 0.0]]}},
    {"material": {"name": 7}},
    {"material": {"mode": None}},
    {"material": {"file": 1}},
    {"mesh": 40},
    {"flow_direction": None},
    {"steady_only": "yes"},
    {"output_dir": 3},
    [],
    "solve",
]


@pytest.mark.parametrize("data", WRONG_TYPES, ids=json.dumps)
def test_wrongly_typed_config_exits_2(data, tmp_path, capsys):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps(data))
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run"),
                 "--steady-only", "--mesh-n", "6"])
    assert code == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert "invalid input" in err
    assert "Traceback" not in err


_PLAUSIBLE = {  # section -> key -> values a scenario might hold (mesh.n at most 10)
    "domain": {"width": [0.1, 0.05], "height": [0.1, 0.08], "thickness": [0.005, 0.002]},
    "layout": {"kind": list(LAYOUT_KINDS), "spacing": [0.03, 0.02], "margin": [0.02, 0.01],
               "pass_count": [1, 2, 4], "offset": [0.0, 0.005], "inlet_edge": ["top", "bottom"]},
    "mesh": {"n": [4, 6, 10], "element_order": [1, 2]},
    "material": {"name": builtin_names(), "mode": ["CMP", "TDMP"]},
    "coolant": {"density": [1000.0], "specific_heat": [4183.0], "flow_rate_ml_per_min": [0.0, 1.0, 5.0]},
    "load": {"f0": [0.0, 1000.0, -500.0]},
    "surface": {"h_T": [0.0, 21.0], "emissivity": [0.0, 0.97], "theta_amb": [296.42, 250.0]},
    "inlet": {"theta_inlet": [296.42, 280.0]},
    "transient": {"dt": [1.0], "t_end": [5.0], "bdf_order": [1, 2]},
}
# whole transient blocks for a run that solves them: each names t_end, no valid
# one runs more than 3 steps, and the invalid ones never reach a solve
_TRANSIENTS = st.one_of(st.sampled_from([
    {"t_end": 3.0}, {"dt": 1.0, "t_end": 3.0, "bdf_order": 1}, {"dt": 0.5, "t_end": 1.5, "bdf_order": 2},
    {"dt": 2.0, "t_end": 2.0, "bdf_order": 1},
]), st.sampled_from([
    {"dt": 1.0, "t_end": 2.5}, {"dt": 2.0, "t_end": 1.0}, {"dt": 0.0, "t_end": 3.0},
    {"dt": -1.0, "t_end": 3.0}, {"dt": 1.0, "t_end": MAX_BDF_STEPS + 1.0}, {"dt": 1e-300, "t_end": 3.0},
    {"dt": float("nan"), "t_end": 3.0}, {"dt": 1.0, "t_end": float("inf")},
    {"dt": 1.0, "t_end": -float("inf")},
    {"dt": "1", "t_end": 3.0}, {"dt": True, "t_end": 3.0}, {"dt": 1.0, "t_end": None},
    {"t_end": 3.0, "bdf_order": 2.0}, {"t_end": 3.0, "bdf_order": 3}, {"t_end": 3.0, "bogus": 1},
    [1.0, 3.0], None,
]))
# (section, key) a bad value may land on; section None is the top level
_TARGETS = ([(sec, key) for sec, keys in _PLAUSIBLE.items() for key in [*keys, "bogus"]]
            + [(None, sec) for sec in _PLAUSIBLE] + [(None, "flow_direction"), (None, "bogus")]
            + [("layout", "vertices")])
_BAD = st.one_of(  # a drawn mesh.n is at most 10 or beyond MAX_MESH_N
    st.none(), st.booleans(), st.text(max_size=4), st.integers(-3, 10), st.floats(-1e3, 1e3),
    st.integers(MAX_MESH_N + 1, 10**20),
    st.sampled_from([0.0, -1.0, 5e-324, 1e300, -1e300, float("nan"), float("inf"), -float("inf")]),
    st.lists(st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.2, float("nan")]), max_size=3), max_size=4),
    st.dictionaries(st.text(max_size=2), st.none(), max_size=1),
)


@st.composite
def _configs(draw, transient=False):
    """A plausible scenario with up to three values replaced by wrong types, non-finite numbers or junk.

    With transient, the transient block is drawn whole from _TRANSIENTS.
    """
    data = {}
    for sec, keys in _PLAUSIBLE.items():
        for key in draw(st.lists(st.sampled_from(sorted(keys)), unique=True, max_size=2)):
            data.setdefault(sec, {})[key] = draw(st.sampled_from(keys[key]))
    for sec, key in draw(st.lists(st.sampled_from(_TARGETS), max_size=3)):
        where = data if sec is None else data.setdefault(sec, {})
        if isinstance(where, dict):
            where[key] = draw(_BAD)
    if isinstance(data.get("mesh", {}), dict):
        data.setdefault("mesh", {}).setdefault("n", 10)
    if transient:
        data["transient"] = draw(_TRANSIENTS)
    return data


def _ends_in_an_exit_code(data, *flags):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(data, fh)  # json writes NaN and Infinity, and reads them back
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["solve", "--config", cfg, "--out", os.path.join(tmp, "run"), *flags])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    return code


@given(data=_configs())
def test_arbitrary_config_ends_in_an_exit_code(data):
    _ends_in_an_exit_code(data, "--steady-only")


@given(data=_configs(transient=True))
def test_arbitrary_config_with_its_transient_ends_in_an_exit_code(data):
    _ends_in_an_exit_code(data)


@pytest.mark.parametrize("data, message", [
    ({"mesh": {"n": 10**12}}, "mesh.n must lie in"),
    ({"layout": {"kind": "serpentine", "pass_count": 10**15}, "mesh": {"n": 4}}, "pass_count exceeds"),
    ({"layout": {"kind": "serpentine", "pass_count": 6, "spacing": 0.02}, "mesh": {"n": 10}},
     "serpentine leaves the plate"),
])
def test_oversized_integer_fields_exit_2(tmp_path, capsys, data, message):
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(data))
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run"), "--steady-only"])
    assert code == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("passes, edge", [(3, "top"), (4, "bottom")])
def test_serpentine_with_middle_passes_of_no_length_exits_2(tmp_path, capsys, passes, edge):
    # margin at half the 0.1 m height: every middle pass turns where it starts
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({"layout": {"kind": "serpentine", "pass_count": passes, "margin": 0.05,
                                          "spacing": 0.02, "inlet_edge": edge}, "mesh": {"n": 10}}))
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run"), "--steady-only"])
    assert code == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert "serpentine's middle passes have no length" in err and "Traceback" not in err
    assert all(word in err for word in (f"pass_count {passes}", "margin 0.05 m", "height 0.1 m"))
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("vertices", [
    [[1e308, 0.1], [1e308, 0.0]],  # x / h overflows to inf while snapping
    [[1e300, 0.1], [1e300, 0.0]],
    [[0.2, 0.1], [0.2, 0.0]],  # would clamp onto the right edge, 0.1 m from where it was asked
], ids=["overflowing", "far-off-the-plate", "past-the-right-edge"])
def test_channel_vertex_outside_the_plate_exits_2(tmp_path, capsys, vertices):
    cfg = tmp_path / "outside.json"
    cfg.write_text(json.dumps({"layout": {"vertices": vertices}}))
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run"),
                 "--mesh-n", "4", "--t-end", "2"])
    assert code == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert "leaves the domain" in err and "Traceback" not in err


def test_ambient_with_overflowing_fourth_power_exits_2(tmp_path, capsys):
    cfg = tmp_path / "hot.json"
    cfg.write_text(json.dumps({"surface": {"theta_amb": 1e300}, "mesh": {"n": 4}}))
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run"), "--steady-only"])
    assert code == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert "fourth power" in err and "Traceback" not in err


@pytest.mark.parametrize("theta_inlet", [-100.0, 0.0, 1e300])
def test_invalid_inlet_temperature_exits_2(tmp_path, capsys, theta_inlet):
    cfg = tmp_path / "inlet.json"
    cfg.write_text(json.dumps({"inlet": {"theta_inlet": theta_inlet}, "steady_only": True, "mesh": {"n": 6}}))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert "inlet temperature must be positive" in err and "Traceback" not in err


def _material_record(**fields):
    record = {"name": "custom", "density": 1500.0,
              "c_s": {"coeffs": [800.0, 0.5], "range": [280.0, 450.0]},
              "k_s": {"coeffs": [1.25], "range": [280.0, 450.0]}}
    record.update(fields)
    return record


_T0 = 421.245  # K

MALFORMED_MATERIALS = [
    _material_record(c_s={"coeffs": 5.0, "range": [280.0, 450.0]}),
    _material_record(density=None),
    _material_record(density=float("nan")),
    _material_record(c_s={"coeffs": [float("nan")], "range": [280.0, 450.0]}),
    _material_record(k_s={"coeffs": [5.0, float("inf")], "range": [280.0, 450.0]}),
    {"materials": {"a": 1}},
    [1, 2],
    _material_record(density="1500"),
    _material_record(density=True),
    _material_record(name=7),
    _material_record(c_s={"coeffs": ["800", True], "range": [280.0, 450.0]}),
    _material_record(k_s={"coeffs": ["1.25"], "range": [280.0, 450.0]}),
    _material_record(k_s={"coeffs": [1.25], "range": [280.0, "450"]}),
    _material_record(k_s={"coeffs": [1.25], "range": [280.0, 450.0], "unit": 1}),
    _material_record(c_s=[800.0, 0.5]),
    {"materials": [_material_record(density=False)]},
    _material_record(density=10**400),  # integers beyond float range
    _material_record(k_s={"coeffs": [10**400], "range": [280.0, 450.0]}),
    _material_record(c_s={"coeffs": [-800.0], "range": [280.0, 450.0]}),
    _material_record(c_s={"coeffs": [0.0], "range": [280.0, 450.0]}),
    # (theta - T0)^2 - 0.01 reaches -0.01 W/(m*K) at T0, midway between two of 101 samples
    _material_record(k_s={"coeffs": [_T0 * _T0 - 0.01, -2.0 * _T0, 1.0], "range": [296.15, 423.15]}),
    _material_record(k_s={"coeffs": [1.25], "range": [280.0, 450.0], "units": "W/(m*K)"}),
]


@pytest.mark.parametrize("record", MALFORMED_MATERIALS, ids=json.dumps)
def test_malformed_material_file_exits_2(record, tmp_path, capsys):
    mat_file = tmp_path / "mat.json"
    mat_file.write_text(json.dumps(record))  # json writes NaN and Infinity, and reads them back
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"material": {"file": str(mat_file)}}))
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run"),
                 "--steady-only", "--mesh-n", "6"])
    assert code == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert "invalid input" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def _without(record: dict, key: str) -> dict:
    return {k: v for k, v in record.items() if k != key}


MISSING_FIELDS = [
    (_without(_material_record(), "name"), "material lacks the required field 'name'"),
    *((_without(_material_record(), key), f"material 'custom' lacks the required field '{key}'")
      for key in ("density", "c_s", "k_s")),
    (_material_record(c_s={"range": [280.0, 450.0]}), "material 'custom'.c_s lacks the required field 'coeffs'"),
    (_material_record(k_s={"coeffs": [1.25]}), "material 'custom'.k_s lacks the required field 'range'"),
    ({"materials": [_material_record(name="a"), _without(_material_record(), "name")]},
     "materials[1] of {path} lacks the required field 'name'"),
]


@pytest.mark.parametrize("record, message", MISSING_FIELDS,
                         ids=["name", "density", "c_s", "k_s", "coeffs", "range", "unnamed"])
def test_material_record_without_a_field_names_it_and_exits_2(record, message, tmp_path, capsys):
    mat_file = tmp_path / "mat.json"
    mat_file.write_text(json.dumps(record))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"material": {"file": str(mat_file), "name": "a"}}))
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run"), "--steady-only", "--mesh-n", "6"])
    assert code == EXIT_INVALID_INPUT
    assert capsys.readouterr().err == f"error: invalid input: {message.format(path=mat_file)}\n"


def test_unknown_material_exits_2_with_an_unquoted_message(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["solve", "--out", out, "--steady-only", "--mesh-n", "6", "--material", "unobtanium"]) == \
        EXIT_INVALID_INPUT
    assert capsys.readouterr().err == ("error: invalid input: unknown material 'unobtanium'; "
                                       f"built-ins: {builtin_names()}\n")
    mat_file = tmp_path / "mat.json"
    mat_file.write_text(json.dumps({"materials": [_material_record()]}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"material": {"file": str(mat_file), "name": "other"}}))
    assert main(["solve", "--config", str(cfg), "--out", out, "--steady-only", "--mesh-n", "6"]) == EXIT_INVALID_INPUT
    assert capsys.readouterr().err == f"error: invalid input: unknown material 'other' in {mat_file}; found ['custom']\n"


_BAD_NUMBER = st.sampled_from([10**400, float("nan"), -800.0, 0.0])


@st.composite
def _material_records(draw):
    """_material_record() with up to two of its numbers made a huge int, NaN, negative or zero,
    and perhaps with a key its schema lacks."""
    record = _material_record()
    slots = [(record, "density")] + [(record[curve][key], i) for curve in ("c_s", "k_s")
                                     for key in ("coeffs", "range") for i in range(len(record[curve][key]))]
    for where, key in draw(st.lists(st.sampled_from(slots), max_size=2)):
        where[key] = draw(_BAD_NUMBER)
    extra = draw(st.sampled_from([None, record, record["c_s"], record["k_s"]]))
    if extra is not None:
        extra["units"] = "W/(m*K)"
    return record


@given(record=_material_records())
def test_arbitrary_material_record_exits_0_or_2(record):
    with tempfile.TemporaryDirectory() as tmp:
        mat_file = os.path.join(tmp, "mat.json")
        with open(mat_file, "w") as fh:
            json.dump(record, fh)
        code = _ends_in_an_exit_code({"material": {"file": mat_file}, "mesh": {"n": 6}}, "--steady-only")
    assert code in (EXIT_OK, EXIT_INVALID_INPUT)


def test_large_conductivity_stops_at_the_residual_round_off_floor(tmp_path, capsys):
    # k_s of 6e7 to 1.6e8 W/(m*K): the residual stalls at 1.3e-7 W, above the 1e-8 W tolerance
    record = _material_record(density=1600.0, c_s={"coeffs": [560.0, 1.2], "range": [280.0, 450.0]},
                              k_s={"coeffs": [0.01, 0.01, 800.0], "range": [280.0, 450.0]})
    mat_file = tmp_path / "mat.json"
    mat_file.write_text(json.dumps(record))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"material": {"file": str(mat_file)}}))
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--steady-only", "--mesh-n", "6"]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    with open(out / "solver_log.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert all(len(row) == len(header) for row in rows)
    assert max(int(row[1]) for row in rows) < NewtonSettings().max_iters
    assert rows[-1][4] == "0.0" and float(rows[-1][3]) <= STEP_TOL  # kept the iterate: no damped step lowered it
    field = np.loadtxt(out / "field_snapshot.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(field))


def test_invalid_transient_block_rejected_before_the_steady_solve(tmp_path, monkeypatch, capsys):
    argv = ["solve", "--out", str(tmp_path / "run"), "--mesh-n", "4", "--dt", "7", "--t-end", "100"]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "solve_steady", lambda *a, **k: pytest.fail("steady solve started"))
        assert main(argv) == EXIT_INVALID_INPUT
    assert "integer multiple of dt" in capsys.readouterr().err
    assert main(argv + ["--steady-only"]) == EXIT_OK  # a steady-only run ignores the block


def test_transient_beyond_the_step_bound_rejected_before_the_steady_solve(tmp_path, monkeypatch, capsys):
    argv = ["solve", "--out", str(tmp_path / "run"), "--mesh-n", "6"]
    monkeypatch.setattr(cli, "solve_steady", lambda *a, **k: pytest.fail("steady solve started"))
    for dt, t_end in ((1.0, MAX_BDF_STEPS + 1), (1.0, 1e300), (1e-300, 1e300)):  # the last overflows t_end / dt
        assert main(argv + ["--dt", str(dt), "--t-end", str(t_end)]) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert f"exceeds the {MAX_BDF_STEPS} steps" in err and "Traceback" not in err


@pytest.mark.parametrize("vertices, expected", [
    ([[0.02, 0.1], [0.02, 0.05], [0.08, 0.05], [0.08, 0.08], [0.0, 0.08]], EXIT_INVALID_INPUT),
    ([[0.05, 0.1], [0.05, 0.05], [0.02, 0.05], [0.02, 0.08], [0.08, 0.08], [0.08, 0.0]], EXIT_INVALID_INPUT),
    ([[0.05, 0.1], [0.05, 0.05], [0.02, 0.05], [0.02, 0.08], [0.05, 0.08]], EXIT_INVALID_INPUT),
    ([[0.05, 0.1], [0.05, 0.05], [0.08, 0.05], [0.08, 0.1], [0.05, 0.1]], EXIT_INVALID_INPUT),
    ([[0.05, 0.1], [0.05, 0.0], [0.05, 0.1]], EXIT_INVALID_INPUT),
    ([[0.0, 0.0], [0.1, 0.1]], EXIT_INVALID_INPUT),
    ([[0.05, 0.1], [0.0501, 0.1]], EXIT_INVALID_INPUT),
    ([[0.0449999999996, 0.1], [0.0450000000004, 0.0]], EXIT_INVALID_INPUT),
    ([[0.05, 0.1], [0.05, 0.0]], EXIT_OK),
], ids=["crossing", "crossing-the-inlet-leg", "T-touch", "closed", "fold-back", "diagonal",
        "collapse", "tilted-by-snapping", "straight"])
def test_channel_path_exit_code(tmp_path, capsys, vertices, expected):
    """Whether the path or the mesh refuses a channel, the run exits with the same code."""
    cfg = tmp_path / "path.json"
    cfg.write_text(json.dumps({"layout": {"vertices": vertices}}))
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run"), "--steady-only", "--mesh-n", "10"])
    assert code == expected
    assert "Traceback" not in capsys.readouterr().err


def test_custom_vertex_channel_runs(tmp_path):
    cfg = tmp_path / "vertices.json"
    cfg.write_text(json.dumps({
        "layout": {"vertices": [[0.05, 0.1], [0.05, 0.05], [0.1, 0.05]]},
        "mesh": {"n": 6},
        "steady_only": True,
    }))
    out = tmp_path / "custom"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["layout"] == {"vertices": [[0.05, 0.1], [0.05, 0.05], [0.1, 0.05]]}


def test_custom_vertex_channel_rejects_kind(tmp_path):
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps({
        "layout": {"vertices": [[0.05, 0.1], [0.05, 0.0]], "kind": "u_shape"},
        "mesh": {"n": 6},
        "steady_only": True,
    }))
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "mixed")])
    assert code == EXIT_INVALID_INPUT


def test_main_mesh_subcommand(tmp_path):
    out = tmp_path / "mesh"
    assert main(["mesh", "--out", str(out), "--mesh-n", "6"]) == EXIT_OK
    stats = json.loads((out / "mesh_stats.json").read_text())
    assert stats["n_triangles"] == 2 * 6 * 6
    assert (out / "channel_chain.csv").exists()


def test_mesh_subcommand_reads_no_material(tmp_path):
    # the mesh command writes no material data, so a missing coefficients file does not stop it
    cfg = tmp_path / "missing_material.json"
    cfg.write_text(json.dumps({"mesh": {"n": 6}, "material": {"file": str(tmp_path / "absent.json")}}))
    assert main(["mesh", "--config", str(cfg), "--out", str(tmp_path / "missing")]) == EXIT_OK
    assert main(["mesh", "--mesh-n", "6", "--out", str(tmp_path / "builtin")]) == EXIT_OK
    assert len(list((tmp_path / "missing").iterdir())) == 5
    _files_match(tmp_path / "missing", tmp_path / "builtin")
    with pytest.raises(OSError):
        build_problem(load_config(str(cfg)))


@pytest.mark.parametrize("flux, plain", [("-2e3", "-2000"), ("-2.5e3", "-2500")])
def test_negative_flux_in_scientific_notation(tmp_path, flux, plain):
    # argparse reads -2000 as a value but would take -2e3 for an option
    for spelling in (flux, plain):
        assert main(["solve", "--steady-only", "--mesh-n", "4", "--flux", spelling,
                     "--out", str(tmp_path / spelling)]) == EXIT_OK
    assert json.loads((tmp_path / flux / "config_echo.json").read_text())["load"]["f0"] == float(plain)
    _files_match(tmp_path / flux, tmp_path / plain)


# flag -> its command-line value (None: a switch), where config_echo.json holds it, and the value there
_OVERRIDDEN = {
    "--flux": ("2000", ("load", "f0"), 2000.0),
    "--layout": ("serpentine", ("layout", "kind"), "serpentine"),
    "--material": ("epoxy_like", ("material", "name"), "epoxy_like"),
    "--mode": ("CMP", ("material", "mode"), "CMP"),
    "--reverse": (None, (None, "flow_direction"), "reverse"),
    "--steady-only": (None, (None, "steady_only"), True),
    "--mesh-n": ("6", ("mesh", "n"), 6),
    "--order": ("2", ("mesh", "element_order"), 2),
    "--t-end": ("2", ("transient", "t_end"), 2.0),
    "--dt": ("0.5", ("transient", "dt"), 0.5),
}


def test_cli_overrides_apply(tmp_path):
    assert {flag: entry[0] for flag, entry in cli.OVERRIDES.items()} == {
        flag: where for flag, (_, where, _) in _OVERRIDDEN.items()}
    for steady_only in (True, False):  # the second run takes the transient from --t-end and --dt
        flags = {flag: entry for flag, entry in _OVERRIDDEN.items() if steady_only or flag != "--steady-only"}
        out = tmp_path / f"ovr_{steady_only}"
        argv = [token for flag, (value, _, _) in flags.items()
                for token in (flag, value) if token is not None]
        assert main(["solve", "--out", str(out), *argv]) == EXIT_OK
        echo = json.loads((out / "config_echo.json").read_text())
        for flag, (_, (section, key), expected) in flags.items():
            held = echo[key] if section is None else echo[section][key]
            assert held == expected and type(held) is type(expected), flag
        assert echo["material"] == {"name": "epoxy_like", "mode": "CMP"}
        assert echo["steady_only"] is steady_only
        if not steady_only:
            times = [row.split(",")[0] for row in (out / "observables.csv").read_text().splitlines()[1:]]
            assert times == ["0.5", "1.0", "1.5", "2.0"]


def test_margins_alias_accepted():
    cfg = ScenarioConfig.from_dict({"layout": {"kind": "u_shape", "margins": 0.03}})
    assert cfg.layout["margin"] == 0.03
    assert "margins" not in cfg.layout


@pytest.mark.parametrize("given", ["margin", "margins"])
@pytest.mark.parametrize("override", ["margin", "margins"])
def test_margin_override_replaces_either_spelling(given, override):
    cfg = ScenarioConfig.from_dict({"layout": {given: 0.02}}).replace(layout={override: 0.01})
    assert cfg.layout["margin"] == 0.01
    assert "margins" not in cfg.layout
    with pytest.raises(ConfigError, match="margin and its alias margins"):
        cfg.replace(layout={"margin": 0.01, "margins": 0.03})


def test_vertex_layout_replaces_the_generated_one_in_replace_as_in_from_dict(tmp_path):
    vertices = [[0.05, 0.1], [0.05, 0.0]]
    read = ScenarioConfig.from_dict({"layout": {"vertices": vertices}})
    assert ScenarioConfig().replace(layout={"vertices": vertices}).layout == read.layout == {"vertices": vertices}
    assert ScenarioConfig.from_dict({"layout": {"kind": "serpentine", "margins": 0.01}}).replace(
        layout={"vertices": vertices}).layout == {"vertices": vertices}
    # a generated layout's key merged into a custom channel is still refused
    with pytest.raises(ConfigError, match=r"unknown keys \['kind'\] in vertex layout"):
        read.replace(layout={"kind": "serpentine"})
    cfg = tmp_path / "vertices.json"
    cfg.write_text(json.dumps({"layout": {"vertices": vertices}, "mesh": {"n": 4}, "steady_only": True}))
    code = main(["solve", "--config", str(cfg), "--layout", "serpentine", "--out", str(tmp_path / "run")])
    assert code == EXIT_INVALID_INPUT


@pytest.mark.parametrize("data, message", [
    ({"surface": {"h_T": 1e300}}, "heat transfer coefficient"),
    ({"surface": {"h_T": 1e20}}, "heat transfer coefficient"),
    ({"layout": {"margin": 0.03, "margins": 0.01}}, "margin and its alias margins"),
], ids=["h_T=1e300", "h_T=1e20", "margin+margins"])
@pytest.mark.parametrize("steady_only", [True, False], ids=["steady", "transient"])
def test_out_of_range_or_conflicting_config_exits_2(data, message, steady_only, tmp_path, capsys):
    # unrefused, such an h_T leaves a steady run at ambient with the whole load unaccounted
    # for (exit 0) and overflows a transient's residual norm (exit 3)
    cfg = tmp_path / "range.json"
    cfg.write_text(json.dumps(data))
    extra = ["--steady-only"] if steady_only else ["--t-end", "5"]
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run"), "--mesh-n", "6", *extra])
    assert code == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert "error: invalid input:" in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_output_dir_from_config(tmp_path):
    out = tmp_path / "from_cfg"
    cfg_file = tmp_path / "cfg.json"
    data = fast_config().to_dict()
    data["output_dir"] = str(out)
    cfg_file.write_text(json.dumps(data))
    assert main(["solve", "--config", str(cfg_file)]) == EXIT_OK
    assert (out / "summary.json").exists()
    assert main(["solve"]) == EXIT_INVALID_INPUT  # no --out and no output_dir


def test_verify_subcommand(tmp_path, monkeypatch):
    tables = {}

    def recording(cases, **kwargs):
        found = mms_convergence(cases, **kwargs)
        tables.update((case.name, table) for case, table in zip(cases, found))
        return found

    monkeypatch.setattr(cli, "mms_convergence", recording)
    out = tmp_path / "verify"
    assert main(["verify", "--out", str(out)]) == EXIT_OK
    assert sorted(tables) == ["cmp_bilinear", "tdmp_quadratic"]
    _assert_csvs(out, {f"convergence_{name}.csv": _per_value_csv(
        ["h", "l2_error", "max_error"], [(r.h, r.l2_error, r.max_error) for r in table.rows])
        for name, table in tables.items()})
    summary = json.loads((out / "verify_summary.json").read_text())
    assert summary["failures"] == []


def test_paired_runs_match_runs_alone(tmp_path):
    # the pair runs concurrently on up to as many CPUs as the process may use;
    # each run's directory must equal the same config solved alone
    cfg = fast_config(transient={"t_end": 3.0})
    flow_reversal_experiment(cfg, str(tmp_path / "flow-reversal"))
    compare_cmp_tdmp(cfg, str(tmp_path / "compare-props"))
    alone = {
        "flow-reversal/forward": cfg.replace(flow_direction="forward"),
        "flow-reversal/reverse": cfg.replace(flow_direction="reverse"),
        "compare-props/cmp": cfg.replace(material={"mode": "CMP"}),
        "compare-props/tdmp": cfg.replace(material={"mode": "TDMP"}),
    }
    for sub, single in alone.items():
        run_scenario(single, str(tmp_path / "alone" / sub))
        _files_match(tmp_path / "alone" / sub, tmp_path / sub)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_paired_runs_use_one_thread_per_usable_cpu(cpus, monkeypatch):
    pool_sizes = []
    workers = min(cpus, 2)
    barrier = threading.Barrier(workers, timeout=10.0)  # with two workers both runs are in flight

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)
            super().__init__(max_workers)

    def fake_run(config):
        barrier.wait()
        return config

    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "execute_run", fake_run)
    cfg = fast_config()
    runs = cli._paired_runs({"forward": cfg, "reverse": cfg.replace(flow_direction="reverse")})
    assert pool_sizes == [workers]
    assert list(runs) == ["forward", "reverse"]
    assert runs["reverse"].flow_direction == "reverse"
