"""Mutation check of the oracles, run by hand: every one-line mutant of src/ must fail tier-1.

Copies src/, tests/, benchmarks/ and pyproject.toml of this checkout
into a temporary directory, applies one mutant at a time there and runs
the tier-1 suite with the open criterion 10 deselected. Prints each mutant with the tests
that failed on it, or SURVIVED. About 20-30 s per mutant; the checkout
itself is never edited.

    python tests/mutants.py [name ...]
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OPEN = "tests/test_acceptance.py::test_criterion_10_energy_balance"

# name -> (file under src/vasctherm, text, its replacement); the text must occur once
MUTANTS = {
    "snapshot_averaging": ("cli.py", "tri_flux /= counts[:, None]", "tri_flux /= 1.0"),
    "mst_vertex_means": (
        "postprocess.py", "return float(np.sum(plan.qp_dA * th_q)) / float(np.sum(plan.areas))",
        "return float(np.sum(plan.areas * theta[mesh.triangles[:, :3]].mean(axis=1)) / np.sum(plan.areas))"),
    "n_time_steps": ("cli.py", "else len(run.series) - 1,", "else len(run.series),"),
    "neumann_sign": ("assembly.py", "R += _neumann_flux_vector(", "R -= _neumann_flux_vector("),
    "radiation_amb4": ("assembly.py", "th2 -= surf.theta_amb**4", "th2 -= 1.0001 * surf.theta_amb**4"),
    "bdf2_weight": ("solvers.py", "(-2.0, 0.5, dt, -dt)", "(-2.0, 0.499, dt, -dt)"),
    "outlet_tangent": (
        "cli.py", "edge = np.minimum(np.arange(len(mesh.channel_nodes)), len(mesh.channel_lengths) - 1)",
        "edge = np.arange(len(mesh.channel_nodes)) % len(mesh.channel_lengths)"),
    "bounds_tolerance": ("postprocess.py", "tol = 1e-6 * problem.surface.theta_amb",
                         "tol = 1e-3 * problem.surface.theta_amb"),
    "reversal_thresholds": ("cli.py", '{"steady": 0.05, "transient": 0.2}', '{"steady": 0.5, "transient": 2.0}'),
    "peclet_factor_2": ("postprocess.py", "(2.0 * mesh.domain.thickness * k)", "(mesh.domain.thickness * k)"),
    "profile_samples": ("postprocess.py", "n_samples: int = 101", "n_samples: int = 100"),
    "eta_abs_load": ("postprocess.py", "(theta_outlet - theta_inlet) / total_load",
                     "(theta_outlet - theta_inlet) / abs(total_load)"),
    "inlet_conflict_tol": ("assembly.py", "abs(vals[at[0]] - theta_inlet) > 1e-9",
                           "abs(vals[at[0]] - theta_inlet) > 1e-3"),
    "flux_k_at_ambient": (
        "postprocess.py", "k = eval_curve(problem.solid.conductivity, theta_c)",
        "k = eval_curve(problem.solid.conductivity, np.full_like(theta_c, problem.surface.theta_amb))"),
    "problem_not_frozen": ("assembly.py", "@dataclass(frozen=True, eq=False)\nclass ThermalProblem:",
                           "@dataclass(eq=False)\nclass ThermalProblem:"),
    "pair_memory_one_history": ("cli.py", "need += (ts.n_steps + 1) * nodes * 8",
                                "need = max(need, (ts.n_steps + 1) * nodes * 8)"),
    "mesh_arrays_writable": ("mesh.py", "value.flags.writeable = False", "pass"),
}


def run(name: str, work: Path) -> list[str]:
    """The tier-1 tests that fail with mutant name applied to the copy in work."""
    rel, old, new = MUTANTS[name]
    path = work / "src" / "vasctherm" / rel
    pristine = path.read_text()
    if pristine.count(old) != 1:
        raise SystemExit(f"{name}: the text to mutate occurs {pristine.count(old)} times in {rel}")
    path.write_text(pristine.replace(old, new))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--deselect", OPEN],
            cwd=work, env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True)
    finally:
        path.write_text(pristine)
    return [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]


def main(names: list[str]) -> int:
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests", "benchmarks"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        for name in names or MUTANTS:
            failed = run(name, work)
            survived += not failed
            print(f"{name}: {', '.join(failed) if failed else 'SURVIVED'}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
