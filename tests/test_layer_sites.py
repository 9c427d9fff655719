"""The benchmark traces vasctherm by rebinding module attributes by name.

A refactor that drops or renames one of them would silently remove a
measured layer, so every site must still resolve.
"""

import importlib
import importlib.util
import pathlib
import sys

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
