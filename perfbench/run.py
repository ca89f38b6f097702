"""driftlab benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a driftlab checkout.  Each workload runs in its
own worker process through ``driftlab.cli.main``; see perfbench/README.md
for the workloads and metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

SETUP_SAMPLES = 7       # set-up-only processes, plus the measuring one
DEADLINE_S = 170.0      # the whole run, set-up included
WORKER = Path(__file__).with_name("worker.py")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _run_worker(root: Path, mode: str, args, work: Path, deadline: float) -> dict:
    """Run one worker to its end; returns the JSON object of its last line.

    The worker is given the time of its start and reports its own set-up
    time against it (``setup_s``).
    """
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:  # one process per workload, one thread each
        env.setdefault(var, "1")
    argv = [sys.executable, str(WORKER), "--mode", mode, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--work", str(work),
            "--started", repr(time.time())]
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("no time left for the next worker")
    proc = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=left, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def measure(root: Path, args, work: Path, deadline: float):
    setups = [_run_worker(root, "setup", args, work / f"setup{i}", deadline)["setup_s"]
              for i in range(SETUP_SAMPLES)]
    res = _run_worker(root, "measure", args, work / "measure", deadline)
    setups.append(res["setup_s"])
    walls, cpus = res["walls"], res["cpus"]
    metrics = {
        "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} passes"),
        "cpu_s": (statistics.median(cpus), "s", f"median of {len(cpus)} passes, user+sys"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "peak_rss_mib": (res["peak_rss_mib"], "MiB", "ru_maxrss after set-up and one pass"),
    }
    return metrics, res


def trace(root: Path, args, work: Path, deadline: float):
    res = _run_worker(root, "trace", args, work, deadline)
    metrics = {k: (m["value"], m["unit"], "") for k, m in res["metrics"].items()}
    print(f"spans: {res['spans']} recorded, written to {res['spans_file']}")
    return metrics, res


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "driftlab" / "__init__.py").is_file():
        print("perfbench: src/driftlab not found; run from the root of a driftlab checkout",
              file=sys.stderr)
        return 2

    work = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            metrics, res = trace(root, args, work, deadline)
        else:
            metrics, res = measure(root, args, work, deadline)
    except (OSError, subprocess.SubprocessError, TimeoutError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("environment: " + json.dumps(res["environment"], sort_keys=True))
    for msg in res["failures"]:
        print(f"failure: {msg}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload} seed {args.seed}:")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"  fail_ratio = {failed / attempted:.6g} ratio  ({failed} of {attempted} commands)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
