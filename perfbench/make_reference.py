"""Write perfbench/reference.json: the outputs the benchmark's commands give
for the shipped seeds, which later runs must reproduce.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it from the repository root, only at a commit whose outputs are
trusted; it overwrites the file with the outputs for every seed in
``workloads.SEEDS``.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import driftlab.cli as cli

from worker import run_pass
from workloads import (
    REFERENCE_FILE,
    SEEDS,
    VERIFY_SUITES,
    WORKLOADS,
    diagnose_outputs,
    sqg_outputs,
    verify_outputs,
)


def _run(name, seed, work):
    work.mkdir(parents=True)
    commands = WORKLOADS[name](work, seed, None)
    _, _, failures = run_pass(cli, commands)
    if failures:
        sys.exit(f"{name} seed {seed} failed: {failures}")
    return commands


def main() -> int:
    ref = {"sqg_n256": {}, "diagnose_fields": {}, "verify_stepping": {}}
    work = Path(tempfile.mkdtemp(prefix="perfbench-ref-", dir="."))
    try:
        for seed in SEEDS:
            (cmd,) = _run("sqg_n256", seed, work / f"sqg{seed}")
            ref["sqg_n256"][str(seed)] = sqg_outputs(cmd.out)
            commands = _run("diagnose_fields", seed, work / f"diag{seed}")
            ref["diagnose_fields"][str(seed)] = {c.label: diagnose_outputs(c.out) for c in commands}
            print(f"seed {seed} done", flush=True)
        commands = _run("verify_stepping", 0, work / "verify")
        for cmd, suite in zip(commands, VERIFY_SUITES):
            found = verify_outputs(cmd.out, suite)
            ref["verify_stepping"][suite] = {"digest": found["digest"], "verdicts": found["verdicts"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
