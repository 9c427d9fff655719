"""Record the reference observables of every benchmark input.

Usage, from the repository root:

    python3 benchmarks/record_references.py

Runs each workload once per input it can draw (25 scenario inputs each for
desk_p1 and fine_p2, one verify run), one after the other in this process,
and writes benchmarks/references.json. The output check compares every
benchmark run with these values, so record them only when the workloads
change, at a commit whose outputs are trusted, and never to make a failing
check pass.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from workloads import REFERENCES, THREAD_VARS, WORKLOADS

os.environ.update(THREAD_VARS)  # before run.py imports numpy and scipy
from run import OUT_DIR, git_commit  # noqa: E402


def observe(workload, inputs: dict, workdir: str) -> tuple[str, str, dict]:
    """Run ``workload`` once in this process; its reference key and observables."""
    import vasctherm.cli

    os.makedirs(workdir)
    outdir = os.path.join(workdir, "out")
    code = vasctherm.cli.main(workload.argv(inputs, workdir, outdir))
    if code != 0:
        raise RuntimeError(f"{workload.name} {inputs} exited with {code}")
    values = workload.observe(outdir, "")
    shutil.rmtree(workdir)
    return workload.name, workload.reference_key(inputs), values


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    scratch = os.path.join(root, OUT_DIR, "record")
    shutil.rmtree(scratch, ignore_errors=True)
    refs: dict = {name: {} for name in WORKLOADS}
    for name, workload in WORKLOADS.items():
        for i, inputs in enumerate(workload.all_inputs()):
            _, key, values = observe(workload, inputs, os.path.join(scratch, f"{name}-{i}"))
            refs[name][key] = values
            print(name, key, values, flush=True)
    refs["recorded_at"] = git_commit(root)
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
