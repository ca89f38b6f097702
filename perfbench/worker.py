"""One benchmark process: set up a workload, then measure or trace its passes.

run.py starts it from the repository root with ``src`` on PYTHONPATH:

    python3 perfbench/worker.py --mode setup|measure|trace --workload W
        --seed N --seconds S --work DIR --started T

``T`` is the ``time.time()`` at which the process was started.  The worker
prints one JSON object as its last line: ``setup_s`` (the time from ``T``
until set-up is done) in the setup and measure modes, and the results of
the measure and trace modes.  The trace mode writes its spans to
``.perfbench_out/spans-<workload>-seed<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def run_pass(cli, commands):
    """Run every command once; returns (wall s, cpu s, failure messages).

    Only the commands are timed: clearing old outputs and checking the new
    ones happen outside the timed region.
    """
    for cmd in commands:
        shutil.rmtree(cmd.out, ignore_errors=True)
    sink = io.StringIO()
    codes = []
    t0, c0 = time.perf_counter(), time.process_time()
    for cmd in commands:
        try:
            with contextlib.redirect_stdout(sink):
                codes.append(cli.main(cmd.argv))
        except Exception:  # a crashing command is a failed command
            traceback.print_exc()
            codes.append(None)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    failures = []
    for cmd, code in zip(commands, codes):
        if code != 0:
            failures.append(f"{cmd.label}: exit code {code}")
            continue
        try:
            problems = cmd.check(cmd.out)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"output unreadable: {exc!r}"]
        if problems:
            failures.append(f"{cmd.label}: " + "; ".join(problems[:3]))
    return wall, cpu, failures


def environment(fft_modules) -> dict:
    import importlib.metadata
    import importlib.util
    import platform

    import numpy

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "fft_counted": ",".join(fft_modules) if fft_modules else "none (untraced run)",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "jobs": 1,
    }


def _validate_configs(commands):
    from driftlab.config import parse_config

    for cmd in commands:
        parse_config(cmd.argv[cmd.argv.index("--config") + 1])


def _emit(doc):
    print(json.dumps(doc), flush=True)


def measure(args, work: Path) -> int:
    import driftlab.cli as cli

    from workloads import WORKLOADS, load_reference

    commands = WORKLOADS[args.workload](work, args.seed, load_reference())
    _validate_configs(commands)
    setup_s = time.time() - args.started
    if args.mode == "setup":
        _emit({"setup_s": setup_s})
        return 0
    walls, cpus, failures, attempted = [], [], [], 0
    start = time.perf_counter()
    while True:
        wall, cpu, failed = run_pass(cli, commands)
        if not walls:
            # peak of set-up and one pass, whatever the number of passes
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        walls.append(wall)
        cpus.append(cpu)
        failures += failed
        attempted += len(commands)
        if time.perf_counter() - start >= args.seconds:
            break
    _emit({
        "setup_s": setup_s,
        "walls": walls,
        "cpus": cpus,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mib": peak_kib / 1024.0,
        "environment": environment(None),
    })
    return 0


def trace(args, work: Path) -> int:
    from tracing import FFTCounter, Tracer, self_times

    fft = FFTCounter().install()
    t0 = time.perf_counter()
    import driftlab.cli as cli

    import_s = time.perf_counter() - t0

    from layers import TARGETS, layer_metrics
    from workloads import WORKLOADS, load_reference

    reference = load_reference()
    order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
    setups = {}
    for name in order:
        sub = work / name
        sub.mkdir(parents=True, exist_ok=True)
        setups[name] = WORKLOADS[name](sub, args.seed, reference)
        _validate_configs(setups[name])

    tracer = Tracer(fft)
    walls, ffts, untraced, failures, attempted = {}, {}, [], [], 0

    def one_pass(name, traced):
        nonlocal failures, attempted
        if traced:
            tracer.install(TARGETS)
            tracer.pass_id = f"{name}#{len(walls.get(name, ()))}"
        calls0 = fft.calls
        try:
            wall, _, failed = run_pass(cli, setups[name])
        finally:
            tracer.uninstall()
        failures += failed
        attempted += len(setups[name])
        if traced:
            walls.setdefault(name, []).append(wall)
            ffts[name] = ffts.get(name, 0) + fft.calls - calls0
        elif name == args.workload:
            untraced.append(wall)

    # An untraced warm-up pass and a traced pass of each other workload,
    # then untraced and traced passes of the named one in alternation until
    # the window is used.
    for name in order[1:]:
        one_pass(name, traced=False)
        one_pass(name, traced=True)
    start = time.perf_counter()
    while True:
        one_pass(args.workload, traced=False)
        one_pass(args.workload, traced=True)
        if time.perf_counter() - start >= args.seconds:
            break

    spans = tracer.spans
    self_s = self_times(spans)
    spans_file = Path(".perfbench_out") / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans_file.parent.mkdir(exist_ok=True)
    with spans_file.open("w") as fh:
        for i, (s, own) in enumerate(zip(spans, self_s)):
            fh.write(json.dumps({
                "id": i, "pass": s.pass_id, "parent": s.parent, "name": s.name,
                "start": s.start, "end": s.end, "self": own,
                "fft_calls": s.fft_calls, "fft_bytes": s.fft_bytes, "attrs": s.attrs,
            }) + "\n")
    metrics = layer_metrics(spans, self_s, walls, ffts, untraced, args.workload, import_s)
    _emit({
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "spans": len(spans),
        "spans_file": str(spans_file),
        "environment": environment(fft.modules),
    })
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--started", type=float, required=True)
    args = parser.parse_args()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    if args.mode == "trace":
        return trace(args, work)
    return measure(args, work)


if __name__ == "__main__":
    sys.exit(main())
