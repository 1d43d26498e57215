"""Command-line harness: run law suites, sweeps, and seed reproductions.

Exit codes: 0 success, 1 at least one law violation, 2 usage/config error.
Reports are JSON (structured, round-trippable); curves are CSV.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, laws
from .linalg import matrix_to_dict

DEFAULT_TRIALS = 200
DEFAULT_TOL = laws.DEFAULT_TOL
DEFAULT_KAPPA = 1e4
GRID_MAX_POINTS = 10_001
SEED_ENV_VAR = "MEANSCOPE_SEED"


class UsageError(Exception):
    pass


def _parse_grid(text):
    try:
        a, b, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise UsageError(f"bad grid {text!r}, expected a:b:step")
    if not all(map(math.isfinite, (a, b, step))) or step <= 0 or b <= a:
        raise UsageError(
            f"bad grid {text!r}: need finite a < b and step > 0")
    steps = (b - a) / step          # inf when the quotient overflows
    if not steps < GRID_MAX_POINTS - 0.5:
        raise UsageError(f"grid {text!r} has {steps + 1:.4g} points; at "
                         f"most {GRID_MAX_POINTS} points are allowed")
    count = int(round(steps))
    grid = [a + i * step for i in range(count + 1)]
    if grid[-1] > b + 1e-12:
        grid = grid[:-1]
    return grid


def _parse_laws(text):
    if text == "all":
        return laws.law_names()
    names = [x.strip() for x in text.split(",") if x.strip()]
    if not names:
        raise UsageError(f"no law named in {text!r}")
    for name in names:
        if names.count(name) > 1:
            raise UsageError(f"law {name!r} is named twice in {text!r}")
        if name in laws.law_names():
            continue
        if name in laws.SWEEPS:
            raise UsageError(f"{name!r} is a sweep, not a law; run it with "
                             f"`meanscope sweep --law {name}`")
        raise UsageError(f"unknown law {name!r}")
    return names


def _load_config(path):
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    if not isinstance(config, dict):
        raise UsageError(f"config {path} holds a {type(config).__name__}, "
                         f"not a JSON object")
    return config


def _resolve_settings(args):
    """Give each setting of the subcommand its value, once: the flag's, else
    the config file's, else (seed only) $MEANSCOPE_SEED's, else the default;
    then check those no sampler checks (laws.sample_instance refuses a bad
    n, m, field or kappa_max)."""
    config = _load_config(args.config) if args.config else {}
    refused = sorted(set(config) - set(args.settings))
    if refused:
        raise UsageError(f"config {args.config} sets {refused}, which "
                         f"`meanscope {args.command}` does not read; its "
                         f"keys: {sorted(args.settings)}")
    for key, (kind, default) in args.settings.items():
        value = getattr(args, key)
        if value is None and key in config:
            value = config[key]
            # a JSON integer is a valid float; true/false are not numbers
            if isinstance(value, bool) or not isinstance(
                    value, (int, float) if kind is float else kind):
                raise UsageError(f"config key {key!r} must be of type "
                                 f"{kind.__name__}, got {value!r}")
        if value is None and key == "seed" and SEED_ENV_VAR in os.environ:
            env = os.environ[SEED_ENV_VAR]
            try:
                value = int(env)
            except ValueError:
                raise UsageError(f"{SEED_ENV_VAR}={env!r} is not an integer"
                                 ) from None
        setattr(args, key, default if value is None else kind(value))
    # every margin comparison with a NaN tolerance is false, so a NaN or
    # negative one would read as a violated law
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise UsageError(f"tol must be finite and >= 0, got {args.tol}")
    if args.command == "verify":
        args.laws = _parse_laws(args.laws)
        if args.trials < 1:
            raise UsageError(f"trials must be at least 1, got {args.trials}")


def _check_out(path):
    """Reject an --out whose directory does not exist before the run, not
    after it."""
    folder = os.path.dirname(path) or os.curdir
    if not os.path.isdir(folder):
        raise UsageError(f"cannot write --out {path}: no directory {folder}")


def _write_out(path, text):
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out {path}: {exc}") from None


def cmd_verify(args):
    started = time.monotonic()
    per_law = {}
    for law_index, name in enumerate(sorted(args.laws)):
        per_law[name] = laws.run_law(name, law_index, args.seed, args.trials,
                                     args.n, args.m, args.field,
                                     args.kappa_max, args.tol)
    any_fail = any(r["fails"] for r in per_law.values())
    # a law whose every trial skipped checked nothing, which is no pass
    nocheck = [name for name, r in per_law.items()
               if r["skips"] == args.trials]
    report = {
        "version": __version__,
        "config": {"laws": sorted(args.laws), "trials": args.trials,
                   "seed": args.seed, "tol": args.tol,
                   "kappa_max": args.kappa_max, "field": args.field,
                   "n": args.n, "m": args.m},
        "laws": per_law,
        "wall_clock_sec": round(time.monotonic() - started, 6),
        "exit_status": 1 if any_fail or nocheck else 0,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        _write_out(args.out, text + "\n")
    for name, r in per_law.items():
        worst = r["worst"]
        worst_txt = (f"worst margin {worst['margin']:.3e} @ seed {worst['seed']}"
                     if worst else "no trials")
        print(f"{name:28s} {r['passes']:5d} pass {r['fails']:5d} fail "
              f"{r['skips']:5d} skip   {worst_txt}")
    for name, r in per_law.items():
        for f in r["failing_seeds"]:
            print(f"FAIL {name} seed={f['seed']} n={f['n']} m={f['m']}")
    for name in nocheck:
        print(f"NOCHECK {name}: all {args.trials} trials skipped")
    return report["exit_status"]


def _parse_boundary(text):
    """The (s, t) forced by ``repro --boundary``."""
    try:
        s, t = (float(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad boundary {text!r}, expected s,t")
    return s, t


def cmd_sweep(args):
    name = args.law
    if name not in laws.SWEEPS:
        raise UsageError(
            f"law {name!r} is not sweepable; choose from "
            f"{sorted(laws.SWEEPS)}")
    sw = laws.SWEEPS[name]
    if args.grid:
        grid = _parse_grid(args.grid)
    else:
        lo, hi = sw.domain
        grid = list(np.linspace(lo, hi, 17))
    inst = laws.sample_instance(sw.instance_law, n=args.n, m=args.m,
                                fieldname=args.field,
                                kappa_max=args.kappa_max, seed=args.seed)
    curve = laws.sweep_law(name, inst, grid, tol=args.tol)
    rows = [["t", "trace", "lambda_min", "lambda_max", "monotone_link_margin"]]
    for p in curve.points:
        margin = "" if np.isnan(p.link_margin) else repr(p.link_margin)
        rows.append([repr(p.t), repr(p.trace), repr(p.lambda_min),
                     repr(p.lambda_max), margin])
    out = args.out or f"{name}-curve.csv"
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    _write_out(out, text.getvalue())
    print(f"wrote {out} ({len(curve.points)} grid points, "
          f"{'all links hold' if curve.holds else 'LINK VIOLATION'})")
    return 0 if curve.holds else 1


def cmd_repro(args):
    name = args.law
    boundary = (None if args.boundary is None
                else _parse_boundary(args.boundary))
    inst = laws.sample_instance(name, n=args.n, m=args.m,
                                fieldname=args.field,
                                kappa_max=args.kappa_max, seed=args.seed,
                                boundary=boundary)
    result = laws.check_law(name, inst, tol=args.tol)
    dump = {
        "law": name,
        "seed": args.seed,
        "status": result.status,
        "margin": result.margin if result.links else None,
        "summary": result.summary,
        "links": [
            {"label": link.label, "holds": link.holds, "margin": link.margin}
            for link in result.links
        ],
        "matrices": {},
    }
    for label, group in (("A", inst.As), ("B", inst.Bs)):
        for j, mat in enumerate(group or []):
            dump["matrices"][f"{label}{j}"] = matrix_to_dict(mat)
    if inst.a_seq is not None:
        dump["scalars"] = {"a": list(map(float, inst.a_seq)),
                           "b": list(map(float, inst.b_seq))}
    text = json.dumps(dump, indent=2, sort_keys=True)
    if args.out:
        _write_out(args.out, text + "\n")
    print(text)
    return 0 if result.status != "fail" else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="meanscope",
        description="Verify operator-mean inequality chains over random "
                    "positive definite ensembles.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, text, settings):
        """A subcommand; each of its settings, given as (type, default), is
        a flag and a key of its --config file (see _resolve_settings)."""
        p = sub.add_parser(name, help=text)
        for key, (kind, default) in settings.items():
            p.add_argument("--" + key.replace("_", "-"), type=kind,
                           help=None if default is None
                           else f"default {default}")
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out")
        p.set_defaults(run=run, settings=settings)
        return p

    common = {"seed": (int, 0), "field": (str, "complex"),
              "kappa_max": (float, DEFAULT_KAPPA), "tol": (float, DEFAULT_TOL)}
    command("verify", cmd_verify, "run law suites and write a report",
            {"laws": (str, "all"), "trials": (int, DEFAULT_TRIALS),
             "n": (int, None), "m": (int, None), **common})
    sweeper = command("sweep", cmd_sweep, "sweep a monotone law over a grid",
                      {"n": (int, 3), "m": (int, 2), **common})
    sweeper.add_argument("--grid", help="a:b:step")
    repro = command("repro", cmd_repro, "re-run one trial from its seed",
                    {"n": (int, 3), "m": (int, 2), **common})
    for p in (sweeper, repro):
        p.add_argument("--law", required=True)
    repro.add_argument("--boundary",
                       help="forced s,t parameters, as recorded in a report")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        if args.out is not None:
            _check_out(args.out)
        _resolve_settings(args)
        return args.run(args)
    except (UsageError, laws.InstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
