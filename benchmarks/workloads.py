"""Benchmark workloads: inputs drawn from a seed, and the output check.

Every workload runs the vasctherm CLI (``vasctherm.cli.main``) in a child
process. The seed is the only input of a workload besides its fixed sizes;
the program receives only the generated scenario file or CLI arguments.

A child run counts as failed when it exits non-zero, when its steady
min/max bound check fails where its hypothesis holds, when a verification
oracle does not read PASS, or when its observables differ from the values
recorded at the commit that defined the benchmark (``references.json``) by
more than the tolerances below. The tolerances sit 250 times above the
4e-7 K that a chord-Newton prototype moved the MST, and far below the
tenths of a kelvin a wrong term would.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass

TEMPERATURE_TOL_K = 1e-4
ETA_TOL = 1e-5
L2_ERROR_RTOL = 1e-6

# Seeded draws stay inside a band where every input takes the same number of
# Newton iterations (156 to 158 for desk_p1, 7 for the fine_p2 transient), so the
# run-to-run spread measures the program and not the input.
F0_CHOICES = (1000.0, 1025.0, 1050.0, 1075.0, 1100.0)  # W/m^2
FLOW_CHOICES = (1.0, 1.05, 1.1, 1.15, 1.2)  # mL/min

# Every run of a workload uses one thread.
THREAD_VARS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "VASCTHERM_THREADS")}

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def draw(seed: int) -> tuple[float, float]:
    rng = random.Random(seed)
    return rng.choice(F0_CHOICES), rng.choice(FLOW_CHOICES)


def _close(name: str, got: float, want: float, tol: float, relative: bool = False) -> list[str]:
    limit = tol * abs(want) if relative else tol
    if not (math.isfinite(got) and abs(got - want) <= limit):
        return [f"{name} = {got!r}, reference {want!r} (tolerance {limit:.3g})"]
    return []


@dataclass(frozen=True)
class Scenario:
    """``vasctherm solve`` on the default U-shape cfrp_like TDMP scenario."""

    name: str
    n: int
    order: int
    steps: int  # BDF2 steps at dt = 1 s after the steady solve
    why: str

    def inputs(self, seed: int) -> dict:
        f0, flow = draw(seed)
        return {"f0": f0, "flow_rate_ml_per_min": flow}

    def all_inputs(self) -> list[dict]:
        return [{"f0": f0, "flow_rate_ml_per_min": flow} for f0 in F0_CHOICES for flow in FLOW_CHOICES]

    def reference_key(self, inp: dict) -> str:
        return f"f0={inp['f0']:g},flow={inp['flow_rate_ml_per_min']:g}"

    def argv(self, inp: dict, workdir: str, outdir: str) -> list[str]:
        config = {
            "mesh": {"n": self.n, "element_order": self.order},
            "load": {"f0": inp["f0"]},
            "coolant": {"flow_rate_ml_per_min": inp["flow_rate_ml_per_min"]},
            "transient": {"dt": 1.0, "t_end": float(self.steps), "bdf_order": 2},
        }
        path = os.path.join(workdir, "scenario.json")
        with open(path, "w") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
        return ["solve", "--config", path, "--out", outdir]

    def observe(self, outdir: str, stdout: str) -> dict:
        with open(os.path.join(outdir, "summary.json")) as fh:
            steady = json.load(fh)["steady"]
        with open(os.path.join(outdir, "observables.csv")) as fh:
            final = list(csv.DictReader(fh))[-1]
        return {"mst": steady["mst"], "theta_outlet": steady["theta_outlet"],
                "eta": steady["eta"], "final_mst": float(final["mst"])}

    def check(self, outdir: str, stdout: str, reference: dict) -> list[str]:
        got = self.observe(outdir, stdout)
        problems = []
        for key in ("mst", "theta_outlet", "final_mst"):
            problems += _close(key, got[key], reference[key], TEMPERATURE_TOL_K)
        problems += _close("eta", got["eta"], reference["eta"], ETA_TOL)
        with open(os.path.join(outdir, "bounds.json")) as fh:
            bounds = json.load(fh)["steady"]
        for side in ("min", "max"):
            if bounds[f"{side}_hypothesis_met"] and not bounds[f"pass_{side}"]:
                problems.append(f"steady {side} bound violated by {bounds[f'{side}_violation']!r} K")
        return problems


ORACLES = ("mms cmp_bilinear", "mms tdmp_quadratic", "jacobian toggle masks", "scalar reference")
MMS_CASES = ("cmp_bilinear", "tdmp_quadratic")


@dataclass(frozen=True)
class Verify:
    """``vasctherm verify`` (not --full); the seed drives the Jacobian probes."""

    name: str
    why: str

    def inputs(self, seed: int) -> dict:
        return {"seed": seed}

    def all_inputs(self) -> list[dict]:
        return [{"seed": 0}]

    def reference_key(self, inp: dict) -> str:
        return "any seed"  # the MMS tables do not depend on the seed

    def argv(self, inp: dict, workdir: str, outdir: str) -> list[str]:
        return ["verify", "--out", outdir, "--seed", str(inp["seed"])]

    def observe(self, outdir: str, stdout: str) -> dict:
        got = {}
        for case in MMS_CASES:
            with open(os.path.join(outdir, f"convergence_{case}.csv")) as fh:
                got[f"l2_{case}"] = [float(row["l2_error"]) for row in csv.DictReader(fh)]
        return got

    def check(self, outdir: str, stdout: str, reference: dict) -> list[str]:
        problems = []
        lines = stdout.splitlines()
        for oracle in ORACLES:
            line = next((ln for ln in lines if f" {oracle}:" in ln), None)
            if line is None or not line.startswith("PASS "):
                problems.append(f"oracle {oracle!r} did not pass: {line!r}")
        got = self.observe(outdir, stdout)
        for key, want in reference.items():
            if len(got[key]) != len(want):
                problems.append(f"{key} has {len(got[key])} rows, reference {len(want)}")
                continue
            for i, (g, w) in enumerate(zip(got[key], want)):
                problems += _close(f"{key}[{i}]", g, w, L2_ERROR_RTOL, relative=True)
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        Scenario("desk_p1", n=40, order=1, steps=150,
                 why="solve scenario at its default size (n=40 P1, 1681 DOFs), first 150 of its "
                     "1500 BDF2 steps: per-step assembly bound, so residual/Jacobian splitting and "
                     "chord Newton show here"),
        Scenario("fine_p2", n=80, order=2, steps=4,
                 why="n=80 P2 (25921 DOFs), steady solve plus 4 BDF2 steps: LU factorization "
                     "dominates, so column ordering and factor reuse show; a P1-only precompute "
                     "is bypassed"),
        Verify("verify_oracles",
               why="verify oracles: about 1.7k tiny assemblies whose Jacobians are mostly "
                   "discarded, so per-call overhead and per-problem set-up show; LU is negligible"),
    )
}


def load_references(path: str = REFERENCES) -> dict:
    with open(path) as fh:
        return json.load(fh)
