"""The benchmark's workloads: seeded inputs, the CLI commands of one pass,
and the checks of each command's outputs.

Every command is a ``driftlab.cli.main`` argument list; a pass runs them in
order.  A command fails when it exits non-zero, raises, reports a FAIL
verdict, or writes output that fails its check.  Each ``setup_*`` function
takes the contents of reference.json, or None while make_reference.py
writes that file.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_FILE = Path(__file__).with_name("reference.json")
# The reference values were written by this benchmark at the commit that
# introduced it.  A rerun must agree with each to REFERENCE_RTOL times the
# larger of its magnitude and the scale of the data it measures (the field's
# sup norm; 1 for the bundled verification data), so that round-off-sized
# values such as the mean of a mean-zero field are not compared digit by digit.
REFERENCE_RTOL = 1e-10
# The seeds whose outputs reference.json holds; other seeds get only the
# checks that need no reference.
SEEDS = range(16)

# sqg_n256: the acceptance-09 datum and time step at a fixed, short length.
SQG_N = 256
SQG_BAND = 8
SQG_DT = "5e-4"
SQG_STEPS = 48
SQG_T = "0.024"  # SQG_STEPS * SQG_DT
SQG_CADENCE = 16
# acceptance-09 invariant tolerances
MONOTONE_SLACK = 1e-8
MEAN_DRIFT = 1e-12

DIAGNOSE_NORMS = "norms,bmo,lp,holder,class"
# label -> (d, N, kind, norms); kind "random" is band-limited noise, "delta"
# a seeded shift of the near-delta bump of width 0.02.  The N=256 field
# skips bmo: that one call takes ~16 s at this commit, too long to repeat
# within a run.
DIAGNOSE_FIELDS = {
    "random_d2_n256": (2, 256, "random", "norms,lp,holder,class"),
    "random_d2_n128": (2, 128, "random", DIAGNOSE_NORMS),
    "delta_d2_n128": (2, 128, "delta", DIAGNOSE_NORMS),
    "random_d1_n1024": (1, 1024, "random", DIAGNOSE_NORMS),
}
DIAGNOSE_BAND = {1: 16, 2: 8}

# duality (about 25 s at d=2, N=128) is left out: one call is longer than
# a run's measuring window.
VERIFY_SUITES = ("invariants", "l1_single_mode", "linfty_decay", "l1_decay")


@dataclass
class Command:
    label: str
    argv: list
    out: Path
    check: Callable[[Path], list]  # output dir -> list of failure messages


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def compare_numbers(found: dict, ref: dict, where: str, scale: float) -> list:
    """Compare flat {key: number or list} maps; one failure per mismatched key."""
    failures = []
    if set(found) != set(ref):
        return [f"{where}: keys {sorted(found)} != reference {sorted(ref)}"]
    for key, rvals in ref.items():
        fvals = found[key]
        if not isinstance(rvals, list):
            rvals, fvals = [rvals], [fvals]
        if len(fvals) != len(rvals):
            failures.append(f"{where}.{key}: {len(fvals)} values, reference has {len(rvals)}")
            continue
        if any(isinstance(r, (str, bool)) or r is None for r in rvals):
            if fvals != rvals:
                failures.append(f"{where}.{key}: {fvals} != reference {rvals}")
            continue
        bad = [i for i, (f, r) in enumerate(zip(fvals, rvals))
               if abs(f - r) > REFERENCE_RTOL * max(abs(r), scale)]
        if bad:
            i = bad[0]
            failures.append(f"{where}.{key}[{i}]: {fvals[i]!r} != reference {rvals[i]!r}")
    return failures


def flatten(doc, prefix: str = "") -> dict:
    """Nested JSON objects -> {dotted key: leaf}; lists stay lists."""
    out = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            out.update(flatten(value, f"{prefix}{key}."))
    else:
        out[prefix[:-1]] = doc
    return out


# ---------------------------------------------------------------------------
# sqg_n256

def read_series(path: Path) -> dict:
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    cols = {}
    for name in ("step", "t", "linf", "l1", "l2", "mean"):
        cols[name] = [float(r[name]) for r in rows]
    return cols


def sqg_outputs(out: Path) -> dict:
    return {"series": read_series(out / "series.csv")}


def _check_sqg(out: Path, ref: dict | None) -> list:
    cols = read_series(out / "series.csv")
    failures = []
    expected = list(range(0, SQG_STEPS + 1, SQG_CADENCE))
    if cols["step"] != [float(s) for s in expected]:
        failures.append(f"series steps {cols['step']} != {expected}")
    for step in expected:
        if not (out / f"snap_{step}.tf").exists():
            failures.append(f"snapshot snap_{step}.tf missing")
    for name in ("linf", "l2"):
        rises = [b - a for a, b in zip(cols[name], cols[name][1:])]
        if rises and max(rises) > MONOTONE_SLACK:
            failures.append(f"{name} increased by {max(rises):.3e}")
    drift = max(abs(m - cols["mean"][0]) for m in cols["mean"])
    if drift >= MEAN_DRIFT:
        failures.append(f"mean drifted by {drift:.3e}")
    if ref is not None:
        failures += compare_numbers(cols, ref["series"], "series", max(cols["linf"]))
    return failures


def setup_sqg(work: Path, seed: int, reference: dict | None) -> list:
    cfg = work / "sqg.cfg"
    cfg.write_text(
        "grid.d = 2\n"
        f"grid.N = {SQG_N}\n"
        f"time.dt = {SQG_DT}\n"
        f"time.T = {SQG_T}\n"
        "equation.kind = sqg\n"
        "initial.kind = random\n"
        f"initial.band = {SQG_BAND}\n"
        f"output.cadence = {SQG_CADENCE}\n"
    )
    out = work / "sqg_out"
    ref = reference["sqg_n256"][str(seed)] if reference and seed in SEEDS else None
    argv = ["simulate", "--config", str(cfg), "--out", str(out),
            "--seed", str(seed), "--jobs", "1"]
    return [Command("simulate", argv, out, lambda o: _check_sqg(o, ref))]


# ---------------------------------------------------------------------------
# diagnose_fields

def diagnose_input(label: str, seed: int):
    import numpy as np

    from driftlab.grids import GridSpec, ScalarField
    from driftlab.operators import random_band_limited
    from driftlab.verification import near_delta_bump

    d, N, kind, _ = DIAGNOSE_FIELDS[label]
    grid = GridSpec(d=d, N=N)
    if kind == "random":
        return random_band_limited(grid, band=DIAGNOSE_BAND[d], seed=seed)
    bump = near_delta_bump(grid, width=0.02)
    shift = tuple(int(s) for s in np.random.default_rng(seed).integers(0, N, size=d))
    return ScalarField(grid, np.roll(bump.values, shift, axis=tuple(range(d))))


def diagnose_outputs(out: Path) -> dict:
    doc = json.loads((out / "diagnose.json").read_text())
    doc.pop("field")
    return flatten(doc)


def _check_diagnose(out: Path, ref: dict | None) -> list:
    found = diagnose_outputs(out)
    failures = []
    for key, value in found.items():
        values = value if isinstance(value, list) else [value]
        for v in values:
            if isinstance(v, float) and not math.isfinite(v):
                failures.append(f"diagnose {key} is not finite: {v}")
    if ref is not None:
        failures += compare_numbers(found, ref, "diagnose", found["norms.linf"])
    return failures


def setup_diagnose(work: Path, seed: int, reference: dict | None) -> list:
    from driftlab import fieldio

    refs = reference["diagnose_fields"][str(seed)] if reference and seed in SEEDS else None
    commands = []
    for label in DIAGNOSE_FIELDS:
        snap = work / f"{label}.tf"
        fieldio.save_field(diagnose_input(label, seed), snap)
        cfg = work / f"{label}.cfg"
        cfg.write_text(f"diagnose.field = {snap}\ndiagnose.norms = {DIAGNOSE_FIELDS[label][3]}\n")
        out = work / f"diag_{label}"
        argv = ["diagnose", "--config", str(cfg), "--out", str(out), "--jobs", "1"]
        ref = refs[label] if refs else None
        commands.append(Command(label, argv, out, lambda o, r=ref: _check_diagnose(o, r)))
    return commands


# ---------------------------------------------------------------------------
# verify_stepping (bundled scenarios: the seed does not reach them)

def verify_outputs(out: Path, suite: str) -> dict:
    doc = json.loads((out / f"report_{suite}.json").read_text())
    return {
        "digest": doc["digest"],
        "passed": doc["passed"],
        "verdicts": {k: v["value"] for k, v in doc["verdicts"].items()},
        "verdict_passed": {k: v["passed"] for k, v in doc["verdicts"].items()},
    }


def _check_verify(out: Path, suite: str, ref: dict | None) -> list:
    found = verify_outputs(out, suite)
    failures = []
    if found["passed"] is not True:
        failures.append(f"{suite}: report did not pass")
    failed = [k for k, v in found["verdict_passed"].items() if v is False]
    if failed:
        failures.append(f"{suite}: failed verdicts {failed}")
    if ref is not None:
        if found["digest"] != ref["digest"]:
            failures.append(f"{suite}: digest {found['digest']} != reference {ref['digest']}")
        failures += compare_numbers(found["verdicts"], ref["verdicts"], f"{suite}.verdicts", 1.0)
    return failures


def setup_verify(work: Path, seed: int, reference: dict | None) -> list:
    refs = reference["verify_stepping"] if reference else None
    commands = []
    for suite in VERIFY_SUITES:
        cfg = work / f"verify_{suite}.cfg"
        cfg.write_text(f"suite = {suite}\n")
        out = work / f"verify_{suite}"
        argv = ["verify", "--config", str(cfg), "--out", str(out),
                "--seed", str(seed), "--jobs", "1"]
        ref = refs[suite] if refs else None
        commands.append(
            Command(suite, argv, out, lambda o, s=suite, r=ref: _check_verify(o, s, r))
        )
    return commands


WORKLOADS = {
    "sqg_n256": setup_sqg,
    "diagnose_fields": setup_diagnose,
    "verify_stepping": setup_verify,
}
