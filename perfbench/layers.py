"""Which driftlab functions get spans, and the per-layer metrics made from them.

Each layer metric is measured on the pass of the workload that exercises
that layer (its source, given below); the ``share.*`` and ``trace.*``
metrics describe the workload named on the command line.
"""

from __future__ import annotations

import math
import statistics

MIB = 1024.0**2


def _grid_info(args, kwargs, result):
    grid = args[0].grid
    return {"d": grid.d, "N": grid.N}


def _bmo_info(args, kwargs, result):
    import numpy as np

    from driftlab.spaces import default_bmo_radii

    f = args[0]
    radii = kwargs.get("radii", args[1] if len(args) > 1 else None)
    stride = kwargs.get("stride", args[2] if len(args) > 2 else 1)
    grid = f.grid
    if radii is None:
        radii = default_bmo_radii(grid)
    o = np.arange(grid.N)
    d1 = np.minimum(o, grid.N - o) / grid.N
    dist = d1 if grid.d == 1 else np.hypot(d1[:, None], d1[None, :])
    centers = math.ceil(grid.N / stride) ** grid.d
    nodes = sum(int(np.count_nonzero(dist <= rho + 1e-15)) for rho in radii)
    return {"d": grid.d, "N": grid.N, "ops": centers * nodes}


def _save_info(args, kwargs, result):
    from pathlib import Path

    return {"bytes": Path(args[1]).stat().st_size}


def _load_info(args, kwargs, result):
    from pathlib import Path

    return {"bytes": Path(args[0]).stat().st_size}


def _run_forward_info(args, kwargs, result):
    cfg = args[0]
    steps = result.states[-1].step
    stored = cfg.kind == "sqg" and cfg.store_history
    history = (steps + 1) * cfg.grid.d * cfg.grid.size * 8 if stored else 0
    return {"steps": steps, "history_bytes": history}


def _run_dual_info(args, kwargs, result):
    return {"steps": len(result.series["s"]) - 1}


def _step_name(args, kwargs):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return "evolution.step_forward." + ("sqg" if cfg.kind == "sqg" else "drift")


# (owner, attribute, span name, info)
TARGETS = (
    ("driftlab.cli", "main", lambda a, k: "cli." + a[0][0], None),
    ("driftlab.config", "parse_config", "config.parse_config", None),
    ("driftlab.config", "build_initial_field", "config.build_initial_field", None),
    ("driftlab.evolution", "run_forward", "evolution.run_forward", _run_forward_info),
    ("driftlab.evolution", "step_forward", _step_name, None),
    ("driftlab.evolution", "run_dual", "evolution.run_dual", _run_dual_info),
    ("driftlab.evolution:VelocityHistory", "velocity_at", "evolution.velocity_at", None),
    ("driftlab.evolution", "track_center", "evolution.track_center", None),
    ("driftlab.grids", "to_spectral", "grids.to_spectral", None),
    ("driftlab.grids", "to_physical", "grids.to_physical", None),
    ("driftlab.grids", "spectral_divergence_max", "grids.spectral_divergence_max", None),
    ("driftlab.operators", "riesz_transform", "operators.riesz_transform", None),
    ("driftlab.operators", "norms", "operators.norms", None),
    ("driftlab.spaces", "bmo_norm", "spaces.bmo_norm", _bmo_info),
    ("driftlab.spaces", "holder_from_lp", "spaces.holder_from_lp", _grid_info),
    ("driftlab.spaces", "holder_seminorm_direct", "spaces.holder_seminorm_direct", None),
    ("driftlab.spaces", "check_class_membership", "spaces.check_class_membership", None),
    ("driftlab.spaces", "make_test_function", "spaces.make_test_function", None),
    ("driftlab.spaces", "omega_weighted_mass", "spaces.omega_weighted_mass", None),
    ("driftlab.fieldio", "save_field", "fieldio.save_field", _save_info),
    ("driftlab.fieldio", "load_field", "fieldio.load_field", _load_info),
    ("driftlab.fieldio", "write_series", "fieldio.write_series", None),
    ("driftlab.verification", "run_suite", lambda a, k: "verification." + a[0], None),
)


def _is_stepping(name: str) -> bool:
    return name.startswith("evolution.step_forward.") or name == "evolution.run_dual"


class PassView:
    """The spans of a workload's traced passes (pass ids ``<workload>#<k>``),
    indexed into the tracer's span list; counts and totals are given per
    pass.  Asking for spans that no pass recorded is an error, so that a
    layer the program no longer reaches is never reported as 0 ms."""

    def __init__(self, spans, self_s, workload, walls):
        self.all = spans
        self.self_s = self_s
        self.workload = workload
        self.idx = [i for i, s in enumerate(spans) if s.pass_id.split("#")[0] == workload]
        self.passes = len(walls)
        self.wall_s = sum(walls)

    def _found(self, idx, what):
        if not idx:
            raise LookupError(f"no {what} span in the traced passes of {self.workload}")
        return idx

    def count(self, idx):
        return len(idx) / self.passes

    def named(self, name, **attrs):
        out = []
        for i in self.idx:
            s = self.all[i]
            if s.name != name:
                continue
            if attrs and any((s.attrs or {}).get(k) != v for k, v in attrs.items()):
                continue
            out.append(i)
        return self._found(out, name + (f" {attrs}" if attrs else ""))

    def _has_ancestor(self, i, predicate):
        p = self.all[i].parent
        while p >= 0 and not predicate(self.all[p].name):
            p = self.all[p].parent
        return p >= 0

    def inside(self, name, outer):
        """Spans called ``name`` with an ancestor called ``outer``."""
        idx = [i for i in self.named(name) if self._has_ancestor(i, lambda n: n == outer)]
        return self._found(idx, f"{name} inside {outer}")

    def ms(self, idx):
        return 1000.0 * statistics.fmean(self.all[i].duration for i in idx)

    def self_ms_mean(self, idx):
        return 1000.0 * statistics.fmean(self.self_s[i] for i in idx)

    def total(self, idx, field):
        return sum(getattr(self.all[i], field) for i in idx) / self.passes

    def attr_total(self, idx, key):
        return sum(self.all[i].attrs[key] for i in idx) / self.passes

    def share(self, predicate):
        """Share of the pass wall time covered by matching spans (outermost only)."""
        covered = sum(self.all[i].duration for i in self.idx
                      if predicate(self.all[i].name) and not self._has_ancestor(i, predicate))
        return covered / self.wall_s


def _span_triple(out, view, name):
    idx = view.named(name)
    out[name + ".ms"] = (view.ms(idx), "ms")
    out[name + ".self_ms"] = (view.self_ms_mean(idx), "ms")
    out[name + ".calls"] = (view.count(idx), "count")
    return idx


def _per_step(out, view, kind, step_idx, steps):
    out[f"fft.calls_per_step.{kind}"] = (view.total(step_idx, "fft_calls") / steps, "count")
    out[f"fft.mib_per_step.{kind}"] = (view.total(step_idx, "fft_bytes") / steps / MIB, "MiB_computed")


def layer_metrics(spans, self_s, walls, fft_calls, untraced, named, import_s):
    """Per-layer metrics: {name: (value, unit)}.

    ``walls`` maps each workload to the wall times of its traced passes,
    ``fft_calls`` to their total FFT count;
    ``untraced`` holds the untraced pass times of ``named``, the workload
    given on the command line, each run just before a traced one.
    """
    sqg, ver, dia, own = (
        PassView(spans, self_s, name, walls[name])
        for name in ("sqg_n256", "verify_stepping", "diagnose_fields", named)
    )
    out = {}

    # evolution (SQG stepping on sqg_n256, drift and dual stepping on verify_stepping)
    sqg_steps = _span_triple(out, sqg, "evolution.step_forward.sqg")
    drift_steps = _span_triple(out, ver, "evolution.step_forward.drift")
    dual = ver.named("evolution.run_dual")
    n_dual = ver.attr_total(dual, "steps")
    out["evolution.run_dual.ms_per_step"] = (
        1000.0 * ver.total(dual, "duration") / n_dual, "ms")
    out["evolution.run_dual.self_ms"] = (ver.self_ms_mean(dual), "ms")
    out["evolution.run_dual.calls"] = (ver.count(dual), "count")
    _span_triple(out, ver, "evolution.velocity_at")
    _span_triple(out, ver, "evolution.track_center")
    n_sqg = sqg.count(sqg_steps)
    out["evolution.steps.sqg"] = (n_sqg, "count")
    out["evolution.steps.drift"] = (ver.count(drift_steps), "count")
    out["evolution.steps.dual"] = (n_dual, "count")
    runs = sqg.named("evolution.run_forward")
    out["evolution.history.mib"] = (sqg.attr_total(runs, "history_bytes") / MIB, "MiB_computed")

    # FFTs per step, counted inside the step spans (dual: inside run_dual,
    # so the run's initial transform is spread over its steps)
    _per_step(out, sqg, "sqg", sqg_steps, n_sqg)
    _per_step(out, ver, "drift", drift_steps, ver.count(drift_steps))
    _per_step(out, ver, "dual", dual, n_dual)

    # grids and operators inside SQG steps
    div = sqg.inside("grids.spectral_divergence_max", "evolution.step_forward.sqg")
    out["grids.spectral_divergence_max.calls_per_step"] = (sqg.count(div) / n_sqg, "count")
    out["grids.spectral_divergence_max.ms"] = (sqg.ms(div), "ms")
    out["grids.to_spectral.calls"] = (sqg.count(sqg.named("grids.to_spectral")), "count")
    out["grids.to_physical.calls"] = (sqg.count(sqg.named("grids.to_physical")), "count")
    riesz = sqg.inside("operators.riesz_transform", "evolution.step_forward.sqg")
    out["operators.riesz_transform.ms"] = (sqg.ms(riesz), "ms")
    out["operators.riesz_transform.calls_per_step"] = (sqg.count(riesz) / n_sqg, "count")
    _span_triple(out, ver, "operators.norms")

    # spaces (diagnose_fields, apart from the class generators used by the suites)
    bmo = dia.named("spaces.bmo_norm")
    out["spaces.bmo_norm.ms.n128"] = (dia.ms(dia.named("spaces.bmo_norm", d=2, N=128)), "ms")
    out["spaces.bmo_norm.calls"] = (dia.count(bmo), "count")
    out["spaces.bmo_norm.mops"] = (dia.attr_total(bmo, "ops") / 1e6, "Mop_computed")
    for n in (128, 256):
        idx = dia.named("spaces.holder_from_lp", d=2, N=n)
        out[f"spaces.holder_from_lp.ms.n{n}"] = (dia.ms(idx), "ms")
    for name in ("holder_seminorm_direct", "check_class_membership"):
        out[f"spaces.{name}.ms"] = (dia.ms(dia.named(f"spaces.{name}")), "ms")
    for name in ("make_test_function", "omega_weighted_mass"):
        out[f"spaces.{name}.ms"] = (ver.ms(ver.named(f"spaces.{name}")), "ms")

    # fieldio: snapshot writes on sqg_n256, reads on diagnose_fields
    for view, name in ((sqg, "save_field"), (dia, "load_field")):
        idx = view.named(f"fieldio.{name}")
        out[f"fieldio.{name}.ms"] = (view.ms(idx), "ms")
        rate = view.attr_total(idx, "bytes") / MIB / view.total(idx, "duration")
        out[f"fieldio.{name}.mib_per_s"] = (rate, "MiB/s")
    out["fieldio.write_series.ms"] = (sqg.ms(sqg.named("fieldio.write_series")), "ms")

    # verification suites of verify_stepping
    from workloads import VERIFY_SUITES

    for suite in VERIFY_SUITES:
        idx = ver.named(f"verification.{suite}")
        out[f"verification.{suite}.s"] = (ver.total(idx, "duration"), "s")

    # configuration and import
    out["config.parse_config.ms"] = (own.ms(own.named("config.parse_config")), "ms")
    out["config.build_initial_field.ms"] = (sqg.ms(sqg.named("config.build_initial_field")), "ms")
    out["import.driftlab.s"] = (import_s, "s")

    # the named workload: where its time went, and what tracing cost
    out["share.stepping"] = (own.share(_is_stepping), "ratio")
    out["share.spaces"] = (own.share(lambda n: n.startswith("spaces.")), "ratio")
    out["share.fieldio"] = (own.share(lambda n: n.startswith("fieldio.")), "ratio")
    out["fft.calls_per_pass"] = (fft_calls[named] / len(walls[named]), "count")
    overhead = statistics.median(t - u for t, u in zip(walls[named], untraced))
    out["trace.wall_s"] = (statistics.median(walls[named]), "s")
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_share"] = (overhead / statistics.median(untraced), "ratio")
    return out
