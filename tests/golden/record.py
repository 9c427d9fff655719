"""Byte-identity manifest of the CLI's run directories, and its re-recording.

Each command in COMMANDS runs in-process through vasctherm.cli.main with
its own output directory. The manifest keeps, per command, the exit code
and the SHA-256 of its stdout and of every file it writes; summary.json
is hashed without its wall_time_s line, the one value that changes from
run to run. Stderr is not kept: its messages name the output directory.
The manifest also records the Python, numpy and scipy versions, because
another numpy or scipy may round differently.

tests/test_golden.py re-runs the commands and names every file that
differs. A change that moves outputs on purpose re-records with

    PYTHONPATH=src python tests/golden/record.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import re
import tempfile
from pathlib import Path

import numpy as np
import scipy

from vasctherm import cli

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.json"

# name -> argv; {out} is the command's output directory, {golden} this directory
COMMANDS = {
    "solve_n10": ["solve", "--mesh-n", "10", "--t-end", "5", "--out", "{out}"],
    "solve_n6_p2": ["solve", "--mesh-n", "6", "--order", "2", "--t-end", "3", "--out", "{out}"],
    "mesh_serpentine_p2": ["mesh", "--mesh-n", "5", "--order", "2", "--layout", "serpentine", "--out", "{out}"],
    "flow_reversal_n6": ["flow-reversal", "--mesh-n", "6", "--t-end", "3", "--out", "{out}"],
    "compare_props_n8": ["compare-props", "--mesh-n", "8", "--steady-only", "--out", "{out}"],
    "verify": ["verify", "--out", "{out}"],
    # a TDMP serpentine cooled at 10 mL/min under a negative load: eta of a
    # cooling load, and a steady max bound that fails (exit 1)
    "serpentine_cooling": ["solve", "--config", "{golden}/serpentine_cooling.json", "--out", "{out}"],
    # an asymmetric U shifted left of centre whose coolant enters through the bottom edge
    "mesh_asymmetric_bottom": ["mesh", "--config", "{golden}/asymmetric_bottom.json", "--out", "{out}"],
}

_WALL_TIME = re.compile(rb'^ *"wall_time_s": [^\n]*\n', re.MULTILINE)


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(argv: list[str], out: Path) -> dict:
    """Run one command writing to out: its exit code and the digests of its stdout and files."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([a.format(out=out, golden=HERE) for a in argv])
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "summary.json":
            data = _WALL_TIME.sub(b"", data)
        files[path.relative_to(out).as_posix()] = _sha256(data)
    return {"exit": code, "stdout": _sha256(stdout.getvalue().encode()), "files": files}


def differences(name: str, recorded: dict, got: dict) -> list[str]:
    """One line per exit code, stdout or file of command name that is not as recorded."""
    out = [f"{name}: {key} differs" for key in ("exit", "stdout") if recorded[key] != got[key]]
    for rel in sorted(set(recorded["files"]) | set(got["files"])):
        if rel not in got["files"]:
            out.append(f"{name}: {rel} not written")
        elif rel not in recorded["files"]:
            out.append(f"{name}: {rel} not in the manifest")
        elif recorded["files"][rel] != got["files"][rel]:
            out.append(f"{name}: {rel} differs")
    return out


def load() -> dict:
    return json.loads(MANIFEST.read_text())


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        commands = {name: {"argv": argv, **run_command(argv, Path(tmp) / name)}
                    for name, argv in COMMANDS.items()}
    return {"versions": versions(), "commands": commands}


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")
