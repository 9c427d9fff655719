"""The benchmark traces vasctherm by rebinding module attributes by name.

A refactor that drops or renames one of them, or stops calling it through
the module, would silently remove a measured layer, so every site must
still resolve and the solver sites must still be reached.
"""

import functools
import importlib
import importlib.util
import pathlib
import sys
from collections import Counter

import pytest
import scipy.sparse.linalg as spla

from conftest import channel_problem, no_channel_problem
from vasctherm import cli, elements, solvers, verification
from vasctherm.postprocess import observables_for

SPANS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _load_spans():
    # spans.py imports only the standard library, so it loads without the benchmark's set-up
    spec = importlib.util.spec_from_file_location("vasctherm_benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_benchmark_layer_sites_resolve():
    sites = _load_spans().LAYER_SITES
    assert len(sites) > 20
    missing = [f"{module}.{attr}" for module, attr, _, _ in sites
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing


@pytest.mark.parametrize("argv, steps", [(["solve", "--mesh-n", "4", "--t-end", "3"], 3), (["verify"], 300)],
                         ids=["solve", "verify"])
def test_milestone_sites_record_the_cli_runs(monkeypatch, tmp_path, argv, steps):
    # an untraced benchmark run reads its solve times and bdf_steps (len(series) - 1) off these sites
    spans = _load_spans()
    for module_name, attr, _, _ in spans.MILESTONE_SITES:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))  # restores the unwrapped function
    recorder = spans.Recorder("test")
    recorder.install(spans.MILESTONE_SITES)
    assert cli.main([*argv, "--out", str(tmp_path)]) == cli.EXIT_OK
    assert not recorder.missing
    assert recorder.notes["bdf_steps"] == [steps]
    assert {span[0] for span in recorder.spans} == {spans.STEADY, spans.TRANSIENT}


def _counting(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_solver_sites_are_reached_through_their_modules(monkeypatch):
    counts = Counter()
    counting = functools.partial(_counting, counts)
    monkeypatch.setattr(solvers, "solve_steady", counting("step", solvers.solve_steady))
    monkeypatch.setattr(solvers, "linear_solve", counting("linear", solvers.linear_solve))
    monkeypatch.setattr(solvers, "assemble_raw", counting("assemble", solvers.assemble_raw))
    monkeypatch.setattr(solvers, "apply_constraints", counting("constrain", solvers.apply_constraints))
    monkeypatch.setattr(spla, "splu", counting("splu", spla.splu))
    log = []
    solvers.solve_transient(channel_problem(n=6), solvers.TransientSettings(dt=1.0, t_end=3.0), log=log)
    iterations = sum(1 for rec in log if rec.iteration > 0)
    assert counts["step"] == 3
    assert counts["linear"] >= iterations > 3
    assert 0 < counts["splu"] < counts["linear"]
    # every Newton iteration assembles and restricts at least its trial
    assert counts["assemble"] >= iterations + counts["step"]
    assert counts["constrain"] == counts["assemble"]


def test_mesh_sites_are_reached_through_their_modules(monkeypatch):
    counts = Counter()
    for module, name in ((cli, "build_structured_mesh"), (cli, "embed_vasculature"),
                         (verification, "build_structured_mesh"), (verification, "embed_vasculature"),
                         (verification, "mesh_without_channel"), (verification, "tag_boundary")):
        key = f"{module.__name__}.{name}"
        monkeypatch.setattr(module, name, _counting(counts, key, getattr(module, name)))
    cli.build_problem(cli.ScenarioConfig().replace(mesh={"n": 4}))
    assert counts == {"vasctherm.cli.build_structured_mesh": 1, "vasctherm.cli.embed_vasculature": 1}
    counts.clear()
    for case in (verification.mms_case_cmp(), verification.mms_case_channel()):
        verification._mms_problem(case, 4, 1)
    assert counts == {"vasctherm.verification.build_structured_mesh": 2,
                      "vasctherm.verification.embed_vasculature": 1,
                      "vasctherm.verification.mesh_without_channel": 1,
                      "vasctherm.verification.tag_boundary": 2}


def test_basis_built_once_per_mesh_through_its_module(monkeypatch):
    counts = Counter()
    monkeypatch.setattr(elements, "build_basis", _counting(counts, "basis", elements.build_basis))
    for meshes, problem in enumerate((channel_problem(n=5), no_channel_problem(n=4, order=2)), 1):
        observables_for(problem, solvers.solve_steady(problem))
        assert counts["basis"] == meshes  # one per fresh mesh, through elements.build_basis
