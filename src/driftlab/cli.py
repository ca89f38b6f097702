"""Command-line surface: simulate, dual, diagnose, verify."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, RunPlan, _SCHEMA, build_initial_field, parse_config
from .evolution import (
    NumericalAbort,
    VelocityHistory,
    run_dual,
    run_forward,
)
from .operators import norms
from . import fieldio

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

MEMBERSHIP_HEADER = "step,s,l1,linf,a"


def _config_help() -> str:
    lines = ["configuration keys (flat `key = value` lines; defaults in brackets):"]
    for key, (_, default) in _SCHEMA.items():
        lines.append(f"  {key} [{default!r}]")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftlab",
        description="Simulation and verification laboratory for critical "
        "drift-diffusion on the periodic torus.",
        epilog=_config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "simulate": "run the forward evolution and write series + snapshots",
        "dual": "run the dual (time-reversed drift) evolution with class tracking",
        "diagnose": "compute norms and estimators for a snapshot file",
        "verify": "run verification suites and write JSON reports",
    }
    for name, desc in specs.items():
        p = sub.add_parser(name, help=desc, description=desc)
        p.add_argument("--config", default=None, help="configuration file path")
        p.add_argument("--out", default="out", help="output directory [out]")
        p.add_argument("--jobs", type=int, default=1, help="parallel suite workers [1]")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def _require_config(args) -> RunPlan:
    if args.config is None:
        raise ConfigError("--config is required for this command")
    return parse_config(args.config, seed_override=args.seed)


def _input_digests(plan: RunPlan) -> dict:
    digests = {}
    paths = list(plan.config.velocity.paths)
    if plan.initial["kind"] == "file":
        paths.append(plan.initial["file"])
    if plan.diagnose["field"]:
        paths.append(plan.diagnose["field"])
    for p in paths:
        if Path(p).exists():
            digests[p] = fieldio.sha256_file(p)
    return digests


def _manifest(plan: RunPlan, out: Path) -> fieldio.RunManifest:
    echo = {k: (list(v) if isinstance(v, tuple) else v) for k, v in plan.raw.items()}
    manifest = fieldio.start_manifest(echo, out)
    manifest.inputs = _input_digests(plan)
    return manifest


def cmd_simulate(args) -> int:
    plan = _require_config(args)
    theta0 = build_initial_field(plan)
    result = run_forward(plan.config, theta0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(plan, out)
    fieldio.write_series(result.diagnostics, out / "series.csv")
    manifest.record_artifact(out / "series.csv")
    for state in result.states:
        path = out / f"snap_{state.step}.tf"
        fieldio.save_field(state.theta, path)
        manifest.record_artifact(path)
    fieldio.finish_manifest(manifest, out / "manifest.json")
    return EXIT_OK


def cmd_dual(args) -> int:
    plan = _require_config(args)
    cfg = plan.config
    if cfg.kind == "sqg":
        raise ConfigError(
            "velocity.kind: dual runs need a prescribed velocity history; "
            "no forward run is available to supply the sqg velocity"
        )
    psi0 = build_initial_field(plan)
    history = VelocityHistory.prescribed(cfg.velocity, cfg.grid)
    dual = run_dual(cfg, psi0, horizon=plan.dual["horizon"], history=history)

    from .spaces import ClassParams, check_class_membership

    rows, member_lines = [], [MEMBERSHIP_HEADER]
    params = ClassParams(r=plan.dual["r"], A=plan.dual["A"])
    for state in dual.states:
        rec = norms(state.phi)
        rows.append(
            {
                "step": state.step,
                "t": state.s,
                "linf": rec.linf,
                "l1": rec.l1,
                "l2": rec.l2,
                "mean": state.phi.mean(),
            }
        )
        a = check_class_membership(state.phi, params).minimal_scale
        a_cell = "" if a is None else f"{a:.17g}"
        member_lines.append(
            f"{state.step},{state.s:.17g},{rec.l1:.17g},{rec.linf:.17g},{a_cell}"
        )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(plan, out)
    fieldio.write_series(rows, out / "series.csv")
    manifest.record_artifact(out / "series.csv")
    (out / "membership.csv").write_text("\n".join(member_lines) + "\n")
    manifest.record_artifact(out / "membership.csv")
    fieldio.save_field(dual.states[-1].phi, out / "snap_final.tf")
    manifest.record_artifact(out / "snap_final.tf")
    fieldio.finish_manifest(manifest, out / "manifest.json")
    return EXIT_OK


DIAGNOSE_NORMS = ("norms", "bmo", "lp", "holder", "class")


def cmd_diagnose(args) -> int:
    plan = _require_config(args)
    if not plan.diagnose["field"]:
        raise ConfigError("diagnose.field: a snapshot path is required")
    for name in plan.diagnose["norms"]:
        if name not in DIAGNOSE_NORMS:
            raise ConfigError(
                f"diagnose.norms: unknown norm {name!r}; "
                f"valid: {', '.join(DIAGNOSE_NORMS)}"
            )
    beta = plan.diagnose["beta"]
    if "holder" in plan.diagnose["norms"] and not 0.0 < beta < 0.5:
        raise ConfigError(f"diagnose.beta: must be in (0, 1/2), got {beta}")
    f = fieldio.load_field(plan.diagnose["field"])

    from .spaces import ClassParams, bmo_norm, check_class_membership
    from .spaces import holder_from_lp, holder_seminorm_decimated

    record = {"field": plan.diagnose["field"], "d": f.grid.d, "N": f.grid.N}
    for name in plan.diagnose["norms"]:
        if name == "norms":
            rec = norms(f)
            record["norms"] = {
                "l1": rec.l1,
                "l2": rec.l2,
                "linf": rec.linf,
                "mean": f.mean(),
            }
        elif name == "bmo":
            record["bmo"] = bmo_norm(f, stride=max(1, f.grid.N // 64))
        elif name == "lp":
            fit = holder_from_lp(f)
            record["lp"] = {"beta": fit.beta, "levels": list(fit.levels)}
        elif name == "holder":
            record["holder"] = {
                "beta": beta,
                "seminorm": holder_seminorm_decimated(f, beta),
            }
        elif name == "class":
            params = ClassParams(r=plan.dual["r"], A=plan.dual["A"])
            record["class"] = check_class_membership(f, params).summary()

    doc = json.dumps(record, sort_keys=True, indent=2)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fieldio.write_json(doc, out / "diagnose.json")
    print(doc)
    return EXIT_OK


def _run_one_suite(name: str):
    from .verification import run_suite

    return name, run_suite(name)


def cmd_verify(args) -> int:
    from .verification import SUITE_REGISTRY

    suite = "all"
    plan = None
    if args.config is not None:
        plan = parse_config(args.config, seed_override=args.seed)
        suite = plan.suite
        # the suites run their bundled scenarios: refuse a key they would ignore
        ignored = [key for key in plan.given if key not in ("suite", "seed")]
        if ignored:
            raise ConfigError(
                f"{ignored[0]}: ignored by verify, whose suites run their bundled "
                "scenarios; set only suite (and seed)"
            )
    if suite == "all":
        names = sorted(SUITE_REGISTRY)
    elif suite in SUITE_REGISTRY:
        names = [suite]
    else:
        print(
            f"unknown suite {suite!r}; registered: {', '.join(sorted(SUITE_REGISTRY))}",
            file=sys.stderr,
        )
        return EXIT_CONFIG

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    if args.jobs > 1 and len(names) > 1:
        # imported here: it loads logging and threading, which no other
        # command needs
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            for name, report in pool.map(_run_one_suite, names):
                reports.append((name, report))
    else:
        for name in names:
            reports.append(_run_one_suite(name))

    manifest = fieldio.start_manifest(
        {"suite": suite} if plan is None else {k: v for k, v in plan.raw.items()}, out
    )
    all_passed = True
    for name, report in reports:
        path = out / f"report_{name}.json"
        fieldio.write_json(report.to_json(), path)
        manifest.record_artifact(path)
        ok = report.passed()
        all_passed &= ok
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    fieldio.finish_manifest(manifest, out / "manifest.json")
    return EXIT_OK if all_passed else EXIT_VERDICT


_COMMANDS = {
    "simulate": cmd_simulate,
    "dual": cmd_dual,
    "diagnose": cmd_diagnose,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
