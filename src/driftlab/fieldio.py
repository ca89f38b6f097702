"""Persistence: torusfield snapshots, CSV time series, JSON reports, and
the run manifest."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .grids import GridSpec, ScalarField

SNAPSHOT_MAGIC = "torusfield"
SNAPSHOT_VERSION = "v1"
SERIES_HEADER = "step,t,linf,l1,l2,mean,bmo_u,beta_hat"
SERIES_COLUMNS = SERIES_HEADER.split(",")


def save_field(f: ScalarField, path) -> None:
    """Write the snapshot format: one header line, then the values in
    row-major order at full round-trip precision, one per line.

    Written a row of N values at a time with one ``%`` format, which gives
    the bytes of ``f"{v:.17g}"`` for every float.
    """
    N = f.grid.N
    row_format = "%.17g\n" * N
    with Path(path).open("w") as out:
        out.write(f"{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION} d={f.grid.d} N={N}\n")
        for row in f.values.reshape(-1, N):
            out.write(row_format % tuple(row.tolist()))


def load_field(path) -> ScalarField:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"snapshot file not found: {path}")
    tokens = path.read_text().split()
    if len(tokens) < 4 or tokens[0] != SNAPSHOT_MAGIC or tokens[1] != SNAPSHOT_VERSION:
        raise ValueError(f"{path}: not a {SNAPSHOT_MAGIC} {SNAPSHOT_VERSION} file")
    try:
        d = int(tokens[2].removeprefix("d="))
        N = int(tokens[3].removeprefix("N="))
    except ValueError as exc:
        raise ValueError(f"{path}: malformed snapshot header") from exc
    grid = GridSpec(d=d, N=N)
    data = tokens[4:]
    if len(data) != grid.size:
        raise ValueError(
            f"{path}: expected {grid.size} values for d={d} N={N}, found {len(data)}"
        )
    values = np.array(data, dtype=float).reshape(grid.shape)
    return ScalarField.adopt(grid, values)


def _cell(value) -> str:
    if value == "" or value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def write_series(rows, path) -> None:
    """CSV time series with the declared header; empty cells for
    diagnostics that were not scheduled."""
    path = Path(path)
    lines = [SERIES_HEADER]
    for row in rows:
        lines.append(",".join(_cell(row.get(c, "")) for c in SERIES_COLUMNS))
    path.write_text("\n".join(lines) + "\n")


def write_json(doc: str, path) -> None:
    Path(path).write_text(doc if doc.endswith("\n") else doc + "\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


@dataclass
class RunManifest:
    config: dict
    inputs: dict = field(default_factory=dict)     # path -> digest
    out_dir: str = "."
    artifacts: dict = field(default_factory=dict)  # name -> digest
    wall_clock: dict = field(default_factory=dict)
    version: str = __version__

    def record_artifact(self, path) -> None:
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"artifact missing at manifest time: {path}")
        self.artifacts[path.name] = sha256_file(path)

    def write(self, path) -> None:
        doc = {
            "config": self.config,
            "inputs": self.inputs,
            "out_dir": self.out_dir,
            "artifacts": self.artifacts,
            "wall_clock": self.wall_clock,
            "version": self.version,
        }
        Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def start_manifest(config: dict, out_dir) -> RunManifest:
    return RunManifest(
        config=config,
        out_dir=str(out_dir),
        wall_clock={"started_unix": time.time()},
    )


def finish_manifest(manifest: RunManifest, path) -> None:
    manifest.wall_clock["finished_unix"] = time.time()
    manifest.wall_clock["elapsed_s"] = (
        manifest.wall_clock["finished_unix"] - manifest.wall_clock["started_unix"]
    )
    manifest.write(path)
