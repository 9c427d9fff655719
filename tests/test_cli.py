import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from vasctherm import cli
from vasctherm.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INVALID_INPUT,
    EXIT_OK,
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
    assert cfg.theta_inlet == cfg.theta_amb == 296.42


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
    assert log[0] == ["step", "iteration", "residual_norm", "damping", "factorized"]
    assert {row[4] for row in log[1:]} == {"0", "1"}
    assert all(row[4] == "0" for row in log[1:] if row[1] == "0")  # initial-residual rows
    snapshot = (out / "field_snapshot.csv").read_text().strip().splitlines()
    problem = build_problem(fast_config())
    assert len(snapshot) == 1 + problem.mesh.n_nodes
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_time_steps"] == 5
    assert "vasctherm" in summary["versions"]
    assert summary["max_channel_peclet"] < 1.0


def test_zero_load_reports_nan_eta_and_ambient_mst(tmp_path):
    out = tmp_path / "zero"
    run_scenario(fast_config(load={"f0": 0.0}), str(out))
    rows = (out / "observables.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        t, mst, outlet, eta, resid = row.split(",")
        assert float(mst) == pytest.approx(296.42, abs=1e-9)
        assert eta == "nan"


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
    assert np.array_equal(fwd.steady_field.values, rev.steady_field.values)


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


def test_cli_overrides_apply(tmp_path):
    out = tmp_path / "ovr"
    assert main([
        "solve", "--out", str(out), "--mesh-n", "6", "--t-end", "2",
        "--flux", "2000", "--layout", "serpentine", "--material", "epoxy_like",
        "--mode", "CMP", "--reverse",
    ]) == EXIT_OK
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["load"]["f0"] == 2000.0
    assert echo["layout"]["kind"] == "serpentine"
    assert echo["material"] == {"name": "epoxy_like", "mode": "CMP"}
    assert echo["flow_direction"] == "reverse"


def test_margins_alias_accepted():
    cfg = ScenarioConfig.from_dict({"layout": {"kind": "u_shape", "margins": 0.03}})
    assert cfg.layout["margin"] == 0.03
    assert "margins" not in cfg.layout


def test_output_dir_from_config(tmp_path):
    out = tmp_path / "from_cfg"
    cfg_file = tmp_path / "cfg.json"
    data = fast_config().to_dict()
    data["output_dir"] = str(out)
    cfg_file.write_text(json.dumps(data))
    assert main(["solve", "--config", str(cfg_file)]) == EXIT_OK
    assert (out / "summary.json").exists()
    assert main(["solve"]) == EXIT_INVALID_INPUT  # no --out and no output_dir


def test_verify_subcommand(tmp_path):
    out = tmp_path / "verify"
    assert main(["verify", "--out", str(out)]) == EXIT_OK
    assert (out / "convergence_cmp_bilinear.csv").exists()
    assert (out / "convergence_tdmp_quadratic.csv").exists()
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
