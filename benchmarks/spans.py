"""Span store, call-site wrappers and per-layer metrics of the benchmark.

A child process rebinds module attributes that vasctherm looks up at call
time, so every call through them records one span: (name, start, end,
parent index, run id). Spans stay in memory and are written once, when the
child ends. The parent process turns them into the per-layer metrics of
``LAYER_METRICS``. A layer's self time is its span time minus the time of
the spans it directly contains; calls run on one thread, so child spans
never overlap.

This module imports only the standard library: the parent process, which
never imports vasctherm, uses it too.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# CLOCK_MONOTONIC on Linux: one time base for the parent and its children.
clock = time.monotonic

STEADY = "solvers.solve_steady"
TRANSIENT = "solvers.solve_transient"
STEP = "solvers.step"
LINEAR = "solvers.linear_solve"
SPLU = "solvers.splu"
BACKSOLVE = "solvers.backsolve"
ASSEMBLE = "assembly.assemble_raw"
CONSTRAIN = "assembly.apply_constraints"
BASIS = "elements.build_basis"
MESH = "mesh.build"
NEWTON = (STEADY, STEP)
SOLVER_SPANS = (STEADY, STEP, TRANSIENT, LINEAR)


def _note_steps(recorder: "Recorder", series):
    recorder.notes["bdf_steps"].append(len(series) - 1)
    return series


class _Factor:
    """SuperLU factor whose ``solve`` is recorded as a back-solve span."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _proxy_factor(recorder: "Recorder", lu):
    recorder.notes["lu_nnz"].append(int(lu.nnz))
    return _Factor(lu, recorder.span(BACKSOLVE, lu.solve))


# (module, attribute, span name, hook applied to the result after the span).
# The milestones are the only sites of an untraced run: a handful of calls
# that mark where set-up ends and how long the steady and transient solves take.
MILESTONE_SITES = (
    ("vasctherm.cli", "solve_steady", STEADY, None),
    ("vasctherm.verification", "solve_steady", STEADY, None),
    ("vasctherm.cli", "solve_transient", TRANSIENT, _note_steps),
)
LAYER_SITES = MILESTONE_SITES + (
    ("vasctherm.solvers", "solve_steady", STEP, None),  # solve_transient calls it once per step
    ("vasctherm.solvers", "linear_solve", LINEAR, None),  # once per Newton iteration
    ("scipy.sparse.linalg", "splu", SPLU, _proxy_factor),
    ("vasctherm.solvers", "assemble_raw", ASSEMBLE, None),
    ("vasctherm.verification", "assemble_raw", ASSEMBLE, None),
    ("vasctherm.solvers", "apply_constraints", CONSTRAIN, None),
    ("vasctherm.verification", "apply_constraints", CONSTRAIN, None),
    ("vasctherm.elements", "build_basis", BASIS, None),
    ("vasctherm.cli", "build_structured_mesh", MESH, None),
    ("vasctherm.cli", "embed_vasculature", MESH, None),
    ("vasctherm.mesh", "mesh_without_channel", MESH, None),
    ("vasctherm.verification", "build_structured_mesh", MESH, None),
    ("vasctherm.verification", "embed_vasculature", MESH, None),
    ("vasctherm.verification", "mesh_without_channel", MESH, None),
    ("vasctherm.verification", "tag_boundary", MESH, None),
    ("vasctherm.cli", "series_observables", "postprocess.series_observables", None),
    ("vasctherm.cli", "check_bounds", "postprocess.check_bounds", None),
    ("vasctherm.cli", "run_scenario", "cli.run_scenario", None),
    ("vasctherm.cli", "execute_run", "cli.execute_run", None),
    ("vasctherm.cli", "run_verify", "cli.run_verify", None),
    ("vasctherm.cli", "mms_convergence", "verification.mms_convergence", None),
    ("vasctherm.cli", "jacobian_check", "verification.jacobian_check", None),
    ("vasctherm.cli", "scalar_reference", "verification.scalar_reference", None),
)


class Recorder:
    """In-memory span store for one child run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None, run id]
        self.notes: dict[str, list] = defaultdict(list)
        self.missing: list[str] = []  # sites whose attribute no longer exists
        self._open: list[int] = []

    def span(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name, clock(), None, parent, self.run_id])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = clock()
            return hook(self, result) if hook else result

        return wrapper

    def install(self, sites) -> None:
        for module_name, attr, name, hook in sites:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.span(name, fn, hook))


class Trace:
    """Queries over the spans of one child run."""

    def __init__(self, spans, notes=None, bytes_written: int = 0, scale: float = 1.0):
        """``scale`` multiplies every timestamp, and so every time the queries return."""
        self.spans = [(name, start * scale, end * scale, parent, run_id)
                      for name, start, end, parent, run_id in spans]
        self.notes = notes or {}
        self.bytes_written = bytes_written

    def _ancestors(self, index: int):
        parent = self.spans[index][3]
        while parent is not None:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def _select(self, names, under=()):
        names, under = _names(names), _names(under)
        for i, span in enumerate(self.spans):
            if span[0] in names and (not under or any(a in under for a in self._ancestors(i))):
                yield i, span

    def count(self, names, under=()) -> int:
        return sum(1 for _ in self._select(names, under))

    def durations(self, names) -> list[float]:
        return [s[2] - s[1] for _, s in self._select(names)]

    def total(self, names, parent: str | None = None) -> float:
        """Time in the outermost spans of ``names`` (nested repeats count once)."""
        names = _names(names)
        out = 0.0
        for i, span in self._select(names):
            if any(a in names for a in self._ancestors(i)):
                continue
            if parent is not None and (span[3] is None or self.spans[span[3]][0] != parent):
                continue
            out += span[2] - span[1]
        return out

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def self_total(self, names) -> float:
        names = _names(names)
        own = self.self_times()
        return sum((own[i] for i, s in enumerate(self.spans) if s[0] in names), 0.0)

    def first_start(self, names) -> float | None:
        starts = [s[1] for _, s in self._select(names)]
        return min(starts) if starts else None


def _names(names) -> frozenset:
    return frozenset((names,) if isinstance(names, str) else names)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values, q: float) -> tuple[float, int]:
    """Percentile ``q`` in [0, 100] by linear interpolation, with the sample count."""
    data = sorted(values)
    if not data:
        return 0.0, 0
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo), len(data)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    needs: tuple  # span names every site of which must exist
    moves: str  # end-to-end metric it should move
    workloads: tuple  # where it moves it most
    compute: Callable  # (traced runs: list[Trace], overhead: float) -> float


def per_run(fn: Callable[[Trace], float]) -> Callable:
    """Median over the traced child runs of a per-run value."""
    return lambda traces, overhead: statistics.median(fn(t) for t in traces)


def pooled_steps(q: float) -> Callable:
    return lambda traces, overhead: percentile(
        [1e3 * d for t in traces for d in t.durations(STEP)], q)[0]


def _cutbacks(t: Trace) -> int:
    # every Newton solve assembles once up front and once per line-search trial
    return (t.count(ASSEMBLE, under=NEWTON) - t.count(NEWTON)
            - t.count(LINEAR, under=NEWTON))


def _scalar_oracle_s(t: Trace) -> float:
    return t.total("verification.scalar_reference") + t.total(TRANSIENT, parent="cli.run_verify")


P1, P2, V = "desk_p1", "fine_p2", "verify_oracles"
LAYER_METRICS = (
    LayerMetric("mesh.build_s", "s", "lower", (MESH,), "setup_s", (P2, V),
                per_run(lambda t: t.total(MESH))),
    LayerMetric("elements.basis_builds", "count", "lower", (BASIS,), "steady_s, wall_s", (P2, V),
                per_run(lambda t: t.count(BASIS))),
    LayerMetric("elements.basis_s", "s", "lower", (BASIS,), "steady_s, wall_s", (P2, V),
                per_run(lambda t: t.total(BASIS))),
    LayerMetric("assembly.calls", "count", "lower", (ASSEMBLE,), "steps_per_s; wall_s", (P1, V),
                per_run(lambda t: t.count(ASSEMBLE))),
    LayerMetric("assembly.self_s", "s", "lower", (ASSEMBLE,), "steps_per_s; wall_s", (P1, V),
                per_run(lambda t: t.self_total(ASSEMBLE))),
    LayerMetric("assembly.ms_per_call", "ms", "lower", (ASSEMBLE,), "steps_per_s; wall_s", (P1, V),
                per_run(lambda t: 1e3 * ratio(t.self_total(ASSEMBLE), t.count(ASSEMBLE)))),
    LayerMetric("assembly.constraints_calls", "count", "lower", (CONSTRAIN,), "wall_s", (V, P1),
                per_run(lambda t: t.count(CONSTRAIN))),
    LayerMetric("assembly.constraints_s", "s", "lower", (CONSTRAIN,), "wall_s", (V, P1),
                per_run(lambda t: t.total(CONSTRAIN))),
    LayerMetric("assembly.jacobian_use_ratio", "ratio", "higher", (ASSEMBLE, SPLU), "steps_per_s", (P1,),
                per_run(lambda t: ratio(t.count(SPLU), t.count(ASSEMBLE)))),
    LayerMetric("solvers.newton_iters", "count", "lower", (LINEAR,), "steps_per_s", (P1, P2),
                per_run(lambda t: t.count(LINEAR))),
    LayerMetric("solvers.newton_iters_per_step", "ratio", "lower", (LINEAR, STEP), "steps_per_s", (P1, P2),
                per_run(lambda t: ratio(t.count(LINEAR, under=STEP), t.count(STEP)))),
    LayerMetric("solvers.line_search_cutbacks", "count", "lower", (ASSEMBLE, LINEAR, STEP, STEADY),
                "steps_per_s", (P1, P2), per_run(_cutbacks)),
    LayerMetric("solvers.factorizations", "count", "lower", (SPLU,), "steady_s, steps_per_s", (P2,),
                per_run(lambda t: t.count(SPLU))),
    LayerMetric("solvers.factor_s", "s", "lower", (SPLU,), "steady_s, steps_per_s", (P2,),
                per_run(lambda t: t.total(SPLU))),
    LayerMetric("solvers.factor_ms_per_call", "ms", "lower", (SPLU,), "steady_s, steps_per_s", (P2,),
                per_run(lambda t: 1e3 * ratio(t.total(SPLU), t.count(SPLU)))),
    LayerMetric("solvers.lu_nnz", "count", "lower", (SPLU,), "steps_per_s, peak_rss_mb", (P2,),
                per_run(lambda t: max(t.notes.get("lu_nnz", ()), default=0))),
    LayerMetric("solvers.backsolves", "count", "lower", (SPLU,), "steps_per_s", (P1,),
                per_run(lambda t: t.count(BACKSOLVE))),
    LayerMetric("solvers.backsolve_s", "s", "lower", (SPLU,), "steps_per_s", (P1,),
                per_run(lambda t: t.total(BACKSOLVE))),
    LayerMetric("solvers.step_ms_p50", "ms", "lower", (STEP,), "steps_per_s", (P1,), pooled_steps(50)),
    LayerMetric("solvers.step_ms_p95", "ms", "lower", (STEP,), "steps_per_s", (P1,), pooled_steps(95)),
    LayerMetric("solvers.step_samples", "count", "higher", (STEP,), "steps_per_s", (P1,),
                lambda traces, overhead: sum(t.count(STEP) for t in traces)),
    LayerMetric("solvers.self_s", "s", "lower", SOLVER_SPANS, "steps_per_s", (P1,),
                per_run(lambda t: t.self_total(SOLVER_SPANS))),
    LayerMetric("postprocess.observables_s", "s", "lower", ("postprocess.series_observables",),
                "wall_s", (P1,), per_run(lambda t: t.total("postprocess.series_observables"))),
    LayerMetric("postprocess.bounds_s", "s", "lower", ("postprocess.check_bounds",), "wall_s", (P1,),
                per_run(lambda t: t.total("postprocess.check_bounds"))),
    LayerMetric("cli.write_s", "s", "lower", ("cli.run_scenario", "cli.execute_run"), "wall_s", (P2,),
                per_run(lambda t: t.self_total("cli.run_scenario"))),
    LayerMetric("cli.bytes_written", "B", "lower", (), "wall_s", (P2,),
                per_run(lambda t: t.bytes_written)),
    LayerMetric("verification.mms_s", "s", "lower", ("verification.mms_convergence",), "wall_s", (V,),
                per_run(lambda t: t.total("verification.mms_convergence"))),
    LayerMetric("verification.jacobian_check_s", "s", "lower", ("verification.jacobian_check",),
                "wall_s", (V,), per_run(lambda t: t.total("verification.jacobian_check"))),
    LayerMetric("verification.scalar_s", "s", "lower",
                ("verification.scalar_reference", TRANSIENT, "cli.run_verify"), "wall_s", (V,),
                per_run(_scalar_oracle_s)),
    LayerMetric("trace.overhead_ratio", "ratio", "lower", (), "wall_s", (P1, P2, V),
                lambda traces, overhead: overhead),
)


def site_names(sites) -> dict[str, list[str]]:
    """Span name -> the module attributes that produce it."""
    out: dict[str, list[str]] = defaultdict(list)
    for module_name, attr, name, _ in sites:
        out[name].append(f"{module_name}.{attr}")
    return out


def layer_metrics(traces: list[Trace], missing, overhead: float) -> dict:
    """Per-layer metrics; a metric whose wrapped names are gone is null with the reason."""
    sources = site_names(LAYER_SITES)
    missing = set(missing)
    out = {}
    for metric in LAYER_METRICS:
        gone = sorted(site for name in metric.needs for site in sources[name] if site in missing)
        if gone:
            out[metric.name] = {"value": None, "unit": metric.unit,
                                "reason": "no longer defined: " + ", ".join(gone)}
        else:
            out[metric.name] = {"value": metric.compute(traces, overhead), "unit": metric.unit}
    return out
