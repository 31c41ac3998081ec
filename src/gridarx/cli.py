"""Command-line entry point.

Subcommands:
  calibrate      fault-free run -> calibration.json (nominal predictor +
                 thresholds)
  build-library  labeled disturbance scenarios -> library.json
  run            one scenario end to end -> .npy arrays, events,
                 report.json
  suite          manifest of scenarios -> per-scenario artifacts +
                 comparison.csv
  poles          closed-form disturbance pole pairs vs the eigenvalue
                 oracle
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .circuit import (
    CircuitParams,
    fault_poles,
    load_poles,
    numeric_poles,
    simplified_fault_model,
    simplified_load_model,
)
from .detector import SignatureLibrary
from .scenario import (
    StageError,
    build_library_from_scenarios,
    calibration_from_json,
    load_scenario,
    run_calibration,
    run_scenario,
    run_suite,
    write_artifact,
)


def _overrides(args) -> dict:
    out = {}
    if getattr(args, "seed", None) is not None:
        out["seed"] = args.seed
    if getattr(args, "forgetting", None) is not None:
        out["forgetting"] = args.forgetting
    if getattr(args, "rho", None) is not None:
        out["rho"] = args.rho
    return out


def _parse_file(path, parse):
    """`parse` of the text in `path`; a malformed file raises ValueError
    naming it."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse(text)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_calibration(path):
    """(nominal, thresholds) of the calibration in `path`."""
    return _parse_file(path, calibration_from_json)


def _load_library(path):
    """The signature library in `path`, None for no path."""
    if path is None:
        return None
    return _parse_file(path, SignatureLibrary.from_json)


def _add_common(parser):
    parser.add_argument("--out", default="out", help="artifact directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override excitation seed")
    parser.add_argument("--lambda", dest="forgetting", type=float,
                        default=None, help="override forgetting factor")
    parser.add_argument("--rho", type=int, default=None,
                        help="override model order")


def cmd_calibrate(args) -> int:
    config = load_scenario(args.config, _overrides(args))
    nominal, thresholds, _ = run_calibration(config, out_dir=args.out)
    print(f"calibration written to {os.path.join(args.out, 'calibration.json')}")
    print(f"d_high={thresholds.d_high:.6g} d_low={thresholds.d_low:.6g}")
    return 0


def cmd_build_library(args) -> int:
    nominal, thresholds = _load_calibration(args.calibration)
    configs = [load_scenario(p, _overrides(args)) for p in args.config]
    library = build_library_from_scenarios(configs, nominal, thresholds)
    write_artifact(args.out, "library.json", library.to_json())
    path = os.path.join(args.out, "library.json")
    print(f"library with {len(library.signatures)} signatures written to {path}")
    return 0


def cmd_run(args) -> int:
    config = load_scenario(args.config, _overrides(args))
    nominal, thresholds = _load_calibration(args.calibration)
    library = _load_library(args.library)
    report = run_scenario(config, nominal, thresholds, library,
                          out_dir=args.out)
    print(report.to_json())
    return 0


def cmd_suite(args) -> int:
    with open(args.manifest) as fh:
        paths = [line.strip() for line in fh if line.strip()
                 and not line.lstrip().startswith("#")]
    base = os.path.dirname(os.path.abspath(args.manifest))
    paths = [p if os.path.isabs(p) else os.path.join(base, p) for p in paths]
    nominal, thresholds = _load_calibration(args.calibration)
    library = _load_library(args.library)
    try:
        reports, rows = run_suite(paths, nominal, thresholds, library,
                                  out_dir=args.out,
                                  overrides=_overrides(args))
    except ValueError as exc:  # the manifest's checks, before any run
        raise ValueError(f"{args.manifest}: {exc}") from exc
    # quoted as in comparison.csv
    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    failed = [name for name, rep in reports.items() if rep is None]
    if failed:
        print(f"failed scenarios: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_poles(args) -> int:
    """Closed-form pole pairs against the assembled-circuit eigenvalues."""
    params = CircuitParams()
    report = {"normalization": "s in units of the grid frequency omega_g",
              "fault": [], "load": []}
    for kind, key, values, poles, model in (
            ("fault", "r_fault_pu", args.r_fault, fault_poles,
             simplified_fault_model),
            ("load", "l_load_pu", args.l_load, load_poles,
             simplified_load_model)):
        for value in values:
            formula = sorted(poles(value, params), key=lambda z: z.imag)
            numeric = sorted(numeric_poles(model(value, params)),
                             key=lambda z: z.imag)
            report[kind].append({
                key: value,
                "formula": [[z.real, z.imag] for z in formula],
                "numeric": [[z.real, z.imag] for z in numeric],
                "max_abs_error": max(abs(f - n)
                                     for f, n in zip(formula, numeric)),
            })
    print(json.dumps(report, indent=2))
    worst = max(
        [e["max_abs_error"] for e in report["fault"] + report["load"]],
        default=0.0,
    )
    return 0 if worst < 1e-6 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gridarx",
        description="Recursive-ARX grid-edge fault detection experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fault-free calibration run")
    p.add_argument("--config", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("build-library", help="record disturbance signatures")
    p.add_argument("--config", action="append", required=True,
                   help="labeled disturbance scenario (repeatable)")
    p.add_argument("--calibration", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_build_library)

    p = sub.add_parser("run", help="run one scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--library", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("suite", help="run a manifest of scenarios")
    p.add_argument("--manifest", required=True,
                   help="text file, one scenario path per line")
    p.add_argument("--calibration", required=True)
    p.add_argument("--library", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("poles", help="closed-form poles vs eigenvalue oracle")
    p.add_argument("--r-fault", type=float, action="append", default=None,
                   help="fault resistance in p.u. (repeatable)")
    p.add_argument("--l-load", type=float, action="append", default=None,
                   help="load inductance in p.u. (repeatable)")
    p.set_defaults(func=cmd_poles)

    args = parser.parse_args(argv)
    if args.command == "poles":
        if args.r_fault is None:
            args.r_fault = [0.2077, 6.232, 10.387]
        if args.l_load is None:
            args.l_load = [0.35, 0.5]
    try:
        return args.func(args)
    except (StageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
