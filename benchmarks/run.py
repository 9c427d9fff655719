"""vasctherm benchmark: closed-loop runs of each workload in fresh child processes.

Usage, from the repository root:

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

A workload runs as one child process at a time (a closed loop: the next
child starts when the previous one has ended), each child on one thread,
until the next child would overrun ``--seconds``. At least one child runs.
A child still running ``TIME_LIMIT_FACTOR * --seconds`` after the run
started is killed and counts as failed, and no child starts after that, so
a run ends within about that time (168 s at run_seconds 42).

``--trace 0`` reports the end-to-end metrics, medians over the children.
Those children record only when their steady and transient solves start and
end (a few calls per run), which gives set-up, steady and transient time.

Times are normalized for machine speed. Before the first child and after
each child the parent times a fixed probe (probe.py) that does not touch
vasctherm, and every time of a child is multiplied by
``probe.REFERENCE_S / mean of the probes before and after it``. The CPU of a
shared machine drifts by tens of percent over minutes; the probes follow
that drift, so the normalized times follow the program. The raw times are
printed and kept in result.json beside them.

``--trace 1`` alternates untraced and traced children. A traced child records
a span for every call at each layer boundary (spans.py). The per-layer
metrics are medians over the traced children; ``trace.overhead_ratio`` is
their median wall time over that of the untraced children.

Every child's output is checked (workloads.py), and a child whose output
fails the check counts as failed. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The full
result, with machine facts, versions, thread settings, the git commit and
the seed, goes to .bench_out/<workload>-seed<N>-trace<T>/result.json, and the
spans of every child of that run to spans.json beside it.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from importlib import metadata

import probe
import spans
from workloads import (ETA_TOL, L2_ERROR_RTOL, TEMPERATURE_TOL_K, THREAD_VARS, WORKLOADS,
                       load_references)

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
TIME_LIMIT_FACTOR = 4

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),  # child launch to the entry of its first solve
    "wall_s": ("s", "lower"),  # child launch to child exit
    "steady_s": ("s", "lower"),  # time in steady solves
    "steps_per_s": ("1/s", "higher"),  # BDF steps per second of transient solving
    "peak_rss_mb": ("MB", "lower"),  # the child's peak resident set
}


@dataclass
class Child:
    run_id: str
    traced: bool
    launched: float
    ended: float
    record: dict | None
    problems: list
    bytes_written: int
    probe_before: float  # machine-speed probe timed right before the launch
    probe_after: float = math.nan  # and right after the child ended

    @property
    def wall_s(self) -> float:
        return self.ended - self.launched

    @property
    def scale(self) -> float:
        """Factor that normalizes this child's times for machine speed."""
        return 2.0 * probe.REFERENCE_S / (self.probe_before + self.probe_after)

    @property
    def ok(self) -> bool:
        return not self.problems

    def trace(self, scale: float = 1.0) -> spans.Trace:
        return spans.Trace(self.record["spans"], self.record["notes"], self.bytes_written, scale)


def child_env(src: str) -> dict:
    env = dict(os.environ, **THREAD_VARS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return env


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def run_child(workload, argv, src, workdir, outdir, run_id, traced, reference, deadline,
              probe_before) -> Child:
    shutil.rmtree(outdir, ignore_errors=True)
    spec_path = os.path.join(workdir, "child_spec.json")
    record_path = os.path.join(workdir, "child_record.json")
    if os.path.exists(record_path):
        os.remove(record_path)
    with open(spec_path, "w") as fh:
        json.dump({"argv": argv, "src": src, "trace": traced, "run_id": run_id,
                   "record": record_path}, fh)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), spec_path]
    launched = spans.clock()
    try:
        proc = subprocess.run(cmd, env=child_env(src), capture_output=True, text=True,
                              timeout=deadline - launched)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return Child(run_id, traced, launched, spans.clock(), None, ["timed out"], 0,
                     probe_before)
    ended = spans.clock()
    record, problems = None, []
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        problems.append(f"exit code {proc.returncode}: {tail[0]}")
    elif reference is None:
        problems.append("no reference values recorded for these inputs")
    else:
        try:
            with open(record_path) as fh:
                record = json.load(fh)
            problems += workload.check(outdir, proc.stdout, reference)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return Child(run_id, traced, launched, ended, record, problems, _dir_bytes(outdir),
                 probe_before)


def end_to_end(child: Child, scale: float) -> dict:
    """A child's end-to-end metrics, its times multiplied by ``scale``."""
    t = child.trace(scale)
    first = t.first_start((spans.STEADY, spans.TRANSIENT))
    return {
        "setup_s": first - child.launched * scale if first is not None else math.nan,
        "wall_s": child.wall_s * scale,
        "steady_s": t.total(spans.STEADY),
        "steps_per_s": spans.ratio(sum(t.notes.get("bdf_steps", ())), t.total(spans.TRANSIENT)),
        "peak_rss_mb": child.record["peak_rss_mb"],
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def run_workload(name, workload, seed, seconds, trace, references, root, time_limit_s) -> dict:
    """Closed-loop child runs of one workload; returns the run's result.

    Children run until the next would overrun ``seconds``; a child still
    running ``time_limit_s`` after the start is killed.
    """
    src = os.path.join(root, "src")
    workdir = os.path.join(root, OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    outdir = os.path.join(workdir, "out")
    inputs = workload.inputs(seed)
    argv = workload.argv(inputs, workdir, outdir)
    reference = references.get(name, {}).get(workload.reference_key(inputs))
    start = spans.clock()
    deadline = start + time_limit_s
    children: list[Child] = []
    probe_s = probe.run()
    while True:
        traced = trace and len(children) % 2 == 1
        child = run_child(workload, argv, src, workdir, outdir, f"{name}-{seed}-{len(children)}",
                          traced, reference, deadline, probe_s)
        probe_s = child.probe_after = probe.run()
        children.append(child)
        next_s = _median(c.wall_s + c.probe_after for c in children)
        now = spans.clock()
        if now >= deadline or (len(children) >= (2 if trace else 1)
                               and now + next_s > start + seconds):
            break

    good = [c for c in children if c.ok]
    per_child = {c.run_id: end_to_end(c, c.scale) for c in good if not c.traced}
    raw = {c.run_id: end_to_end(c, 1.0) for c in good if not c.traced}

    def medians(values):
        return {k: {"value": _median(v[k] for v in values.values()), "unit": unit}
                for k, (unit, _) in END_TO_END.items()}

    result = {
        "workload": name,
        "seed": seed,
        "inputs": inputs,
        "trace": int(trace),
        "seconds": seconds,
        "attempted": len(children),
        "failed": len(children) - len(good),
        "end_to_end": medians(per_child),
        "end_to_end_raw": medians(raw),
        "children": [{"run_id": c.run_id, "traced": c.traced, "wall_s": c.wall_s,
                      "probe_s": [c.probe_before, c.probe_after], "problems": c.problems,
                      "bytes_written": c.bytes_written, "end_to_end": per_child.get(c.run_id),
                      "end_to_end_raw": raw.get(c.run_id)} for c in children],
    }
    if trace:
        traced_ok = [c for c in good if c.traced]
        overhead = spans.ratio(_median(c.wall_s * c.scale for c in traced_ok),
                               _median(v["wall_s"] for v in per_child.values()))
        missing = sorted({m for c in good for m in c.record["missing"]})
        result["missing_sites"] = missing
        result["per_layer"] = (spans.layer_metrics([c.trace(c.scale) for c in traced_ok], missing,
                                                    overhead) if traced_ok else {})
    with open(os.path.join(workdir, "spans.json"), "w") as fh:
        json.dump([s for c in good for s in c.record["spans"]], fh)
    return result


def machine_facts() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_vars": THREAD_VARS,
    }


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git (None outside a repository)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def _number(value):
    return None if value is None or (isinstance(value, float) and not math.isfinite(value)) else value


def _fmt(value) -> str:
    return "null" if _number(value) is None else f"{value:.6g}"


def report(result: dict) -> None:
    """Human-readable block; every metric by name with its unit."""
    print(f"== {result['workload']}  seed {result['seed']}  inputs {json.dumps(result['inputs'])}  "
          f"trace {result['trace']}")
    print(f"   {result['attempted']} child runs, closed loop, one at a time, 1 thread each; "
          f"{result['failed']} failed")
    n_untraced = sum(1 for c in result["children"] if c["end_to_end"] is not None)
    print(f"   {'':<16} {'normalized':>12} {'':<6} {'raw':>12}  (median of {n_untraced})")
    for key, m in result["end_to_end"].items():
        print(f"   {key:<16} {_fmt(m['value']):>12} {m['unit']:<6} "
              f"{_fmt(result['end_to_end_raw'][key]['value']):>12}")
    print(f"   {'failed_frac':<16} {_fmt(result['failed'] / result['attempted']):>12} "
          f"{'ratio':<6} {result['failed']}/{result['attempted']}")
    for c in result["children"]:
        for problem in c["problems"]:
            print(f"   FAILED {c['run_id']}: {problem}")
    by_name = {m.name: m for m in spans.LAYER_METRICS}
    for key, m in result.get("per_layer", {}).items():
        note = m.get("reason") or f"moves {by_name[key].moves} on {', '.join(by_name[key].workloads)}"
        print(f"   {key:<32} {_fmt(m['value']):>12} {m['unit']:<6} {note}")
    if result.get("per_layer"):
        print(f"   tracing overhead: traced wall_s / untraced wall_s = "
              f"{_fmt(result['per_layer']['trace.overhead_ratio']['value'])}")


def _metrics_line(metrics: dict) -> dict:
    return {k: dict(v, value=_number(v["value"])) for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "vasctherm", "__init__.py")):
        print("error: run from the root of a vasctherm checkout (src/vasctherm not found)",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            args.seconds = float(json.load(fh)["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    references = load_references()
    meta = {"machine": machine_facts(), "git_commit": git_commit(root),
            "tolerances": {"temperature_K": TEMPERATURE_TOL_K, "eta": ETA_TOL,
                           "mms_l2_rel": L2_ERROR_RTOL}}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                              references, root, TIME_LIMIT_FACTOR * args.seconds)
        result["meta"] = meta
        with open(os.path.join(root, OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}",
                               "result.json"), "w") as fh:
            json.dump(result, fh, indent=1)
        report(result)
        results.append(result)

    print(f"# machine {json.dumps(meta['machine'])}  commit {meta['git_commit']}")
    section = "per_layer" if args.trace else "end_to_end"
    if len(results) == 1:
        metrics = results[0][section]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r[section].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": _metrics_line(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
