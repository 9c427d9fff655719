"""The benchmark traces vasctherm by rebinding module attributes by name.

A refactor that drops or renames one of them, or stops calling it through
the module, would silently remove a measured layer, so every site must
still resolve and the solver sites must still be reached.
"""

import importlib
import importlib.util
import pathlib
import sys
from collections import Counter

import scipy.sparse.linalg as spla

from conftest import channel_problem
from vasctherm import solvers

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


def test_solver_sites_are_reached_through_their_modules(monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solvers, "solve_steady", counting("step", solvers.solve_steady))
    monkeypatch.setattr(solvers, "linear_solve", counting("linear", solvers.linear_solve))
    monkeypatch.setattr(spla, "splu", counting("splu", spla.splu))
    log = []
    solvers.solve_transient(channel_problem(n=6), solvers.TransientSettings(dt=1.0, t_end=3.0), log=log)
    assert counts["step"] == 3
    assert counts["linear"] >= sum(1 for rec in log if rec.iteration > 0) > 3
    assert 0 < counts["splu"] < counts["linear"]
