"""Persistence: torusfield snapshots, CSV time series, JSON reports, and
the run manifest.

A snapshot is one ASCII header line ``torusfield v2 d=<d> N=<N>`` and then
the N^d values as little-endian IEEE-754 float64 in C row-major order,
with nothing after them: the values are stored as they are, so a round
trip keeps every bit.  ``load_field`` also reads the older text format
``torusfield v1``, one ``%.17g`` value per line, which round-trips too.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .grids import GridSpec, ScalarField

SNAPSHOT_MAGIC = "torusfield"
SNAPSHOT_VERSION = "v2"
SNAPSHOT_VERSIONS = ("v1", "v2")
SNAPSHOT_DTYPE = np.dtype("<f8")
# longer than any header line that names a valid grid
_HEADER_MAX_BYTES = 128
SERIES_HEADER = "step,t,linf,l1,l2,mean,bmo_u,beta_hat"
SERIES_COLUMNS = SERIES_HEADER.split(",")


def save_field(f: ScalarField, path) -> None:
    """Write a v2 snapshot: the header line, then the values' buffer as one
    write (no copy of the values on a little-endian host)."""
    values = np.ascontiguousarray(f.values, dtype=SNAPSHOT_DTYPE)
    with Path(path).open("wb") as out:
        out.write(f"{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION} d={f.grid.d} N={f.grid.N}\n".encode())
        out.write(values)


def _read_header(path: Path, fh) -> tuple[str, GridSpec]:
    """The version token and grid of the header line at the start of ``fh``."""
    line = fh.readline(_HEADER_MAX_BYTES)
    try:
        tokens = line.decode("ascii").split() if line.endswith(b"\n") else []
    except UnicodeDecodeError:
        tokens = []
    if (
        len(tokens) != 4
        or tokens[0] != SNAPSHOT_MAGIC
        or tokens[1] not in SNAPSHOT_VERSIONS
        or not tokens[2].startswith("d=")
        or not tokens[3].startswith("N=")
    ):
        raise ValueError(
            f"{path}: not a {SNAPSHOT_MAGIC} file (header {SNAPSHOT_MAGIC} v1|v2 d=<d> N=<N>)"
        )
    try:
        grid = GridSpec(d=int(tokens[2][2:]), N=int(tokens[3][2:]))
    except ValueError as exc:
        raise ValueError(f"{path}: malformed snapshot header: {exc}") from exc
    return tokens[1], grid


def load_field(path) -> ScalarField:
    """Read a v2 (binary) or v1 (text) snapshot, keeping every bit."""
    path = Path(path)
    if not path.is_file():
        what = "is not a regular file" if path.exists() else "not found"
        raise FileNotFoundError(f"snapshot file {what}: {path}")
    with path.open("rb") as fh:
        version, grid = _read_header(path, fh)
        if version == "v2":
            payload = os.fstat(fh.fileno()).st_size - fh.tell()
            expected = grid.size * SNAPSHOT_DTYPE.itemsize
            if payload != expected:
                raise ValueError(
                    f"{path}: expected {grid.size} values ({expected} bytes) for "
                    f"d={grid.d} N={grid.N}, found {payload} bytes"
                )
            values = np.fromfile(fh, dtype=SNAPSHOT_DTYPE, count=grid.size)
        else:
            try:
                data = fh.read().decode().split()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: snapshot values are not text: {exc}") from exc
            if len(data) != grid.size:
                raise ValueError(
                    f"{path}: expected {grid.size} values for d={grid.d} N={grid.N}, "
                    f"found {len(data)}"
                )
            values = np.array(data, dtype=float)
    try:
        return ScalarField.adopt(grid, values.reshape(grid.shape))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


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
