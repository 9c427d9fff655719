"""Run the benchmark once per seed and report how far each metric spreads.

Usage, from the repository root:

    python3 benchmarks/spread.py --workload desk_p1 [--seeds 0-9] [--trace 0]

Each seed is one fresh ``benchmarks/run.py`` invocation with the
run_seconds of BENCHMARK.json. For every metric the table gives the median
over the seeds, the quartiles of ``statistics.quantiles(values, n=4)`` and
their distance as a share of the median; for end-to-end metrics also the
bound of BENCHMARK.json and whether the spread stays under a third of it.
The values go to .bench_out/spread-<workload>-trace<T>.json; with
``--record`` also into benchmarks/trajectory/<commit>.json, one entry per
workload and trace setting, which keeps the benchmark's history per commit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import OUT_DIR, git_commit

HERE = os.path.dirname(os.path.abspath(__file__))
TRAJECTORY = os.path.join(HERE, "trajectory")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="add the result to benchmarks/trajectory/<commit>.json")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list] = {}
    failed = 0
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}", flush=True)

    summary = {}
    for name, vals in values.items():
        if None in vals:  # a layer whose wrapped names are gone
            summary[name] = {"values": vals}
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"values": vals, "median": med, "q1": q1, "q3": q3, "spread": spread}
        line = f"{name:<32} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}"
        if name in bounds:
            ok = spread < bounds[name] / 3
            line += f"  bound {bounds[name]}  {'under a third' if ok else 'NOT under a third'}"
        print(line)
    print(f"failed child runs: {failed}")
    last = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seeds[-1]}-trace{args.trace}", "result.json")
    with open(last) as fh:
        meta = json.load(fh)["meta"]
    entry = {"seeds": args.seeds, "run_seconds": bench["run_seconds"], "failed": failed,
             "meta": meta, "metrics": summary}
    with open(os.path.join(OUT_DIR, f"spread-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(entry, fh, indent=1)
    if args.record:
        os.makedirs(TRAJECTORY, exist_ok=True)
        path = os.path.join(TRAJECTORY, f"{git_commit(os.getcwd()) or 'unknown'}.json")
        point = {}
        if os.path.exists(path):
            with open(path) as fh:
                point = json.load(fh)
        point[f"{args.workload} trace{args.trace}"] = entry
        with open(path, "w") as fh:
            json.dump(point, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
