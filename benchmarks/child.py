"""Run one workload of the benchmark in this process.

Usage: python3 benchmarks/child.py SPEC_JSON

SPEC_JSON holds the ``vasctherm`` CLI arguments, the source directory the
package must be imported from, whether to trace, a run id and the path of
the record to write. The record (peak RSS, notes, spans, missing sites) is
written once, after the CLI returns; a run that raises writes none.
"""

from __future__ import annotations

import json
import os
import sys

import spans


def peak_rss_mb() -> float:
    """Peak resident set of this process since it started (Linux VmHWM).

    Not ``getrusage``: its ru_maxrss also keeps the peak of the address space
    the process had before ``exec``, which here is the benchmark parent's.
    """
    with open("/proc/self/status") as fh:
        kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kib / 1024.0


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import vasctherm.cli

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(vasctherm.cli.__file__).startswith(src + os.sep):
        print(f"vasctherm was imported from {vasctherm.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    recorder = spans.Recorder(spec["run_id"])
    recorder.install(spans.LAYER_SITES if spec["trace"] else spans.MILESTONE_SITES)
    code = vasctherm.cli.main(spec["argv"])
    sys.stdout.flush()
    record = {
        "peak_rss_mb": peak_rss_mb(),
        "spans": recorder.spans,
        "notes": recorder.notes,
        "missing": recorder.missing,
    }
    with open(spec["record"], "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
