"""Command-line harness: run law suites, sweeps, and seed reproductions.

Exit codes: 0 success, 1 at least one law violation, 2 usage/config error.
Reports are JSON (structured, round-trippable); curves are CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import sys
import time
from collections import Counter

import numpy as np

from . import __version__, laws
from .ensembles import REGIONS, EnsembleSpec
from .linalg import LinalgError, matrix_to_dict

DEFAULT_TRIALS = 200
DEFAULT_TOL = laws.DEFAULT_TOL
DEFAULT_KAPPA = 1e4
GRID_MAX_POINTS = 10_001
SEED_ENV_VAR = "MEANSCOPE_SEED"
# The JSON type of each config key's value; flag values are typed by argparse.
CONFIG_TYPES = {"laws": str, "field": str, "trials": int, "seed": int,
                "n": int, "m": int, "tol": float, "kappa_max": float}


class UsageError(Exception):
    pass


_NUMBER = re.compile(r"[-+]?\d[\d.]*(?:e[-+]?\d+)?")


def _skip_category(reason):
    """A skip reason with its numbers blanked to '#', so that trials skipped
    for one cause tally together in the report."""
    return _NUMBER.sub("#", reason)


def child_seed(master, law_index, trial):
    """Deterministic 63-bit trial seed; reproducible independently of order."""
    ss = np.random.SeedSequence((int(master) & (2**63 - 1), law_index, trial))
    return int(ss.generate_state(2, np.uint64)[0] & (2**63 - 1))


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


def _check_ensemble(n, m, fieldname, kappa):
    """Reject out-of-range ensemble settings before anything is sampled."""
    try:
        EnsembleSpec(n=n, m=m, field=fieldname, kappa_max=kappa)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load_config(path):
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    if not isinstance(config, dict):
        raise UsageError(f"config {path} holds a {type(config).__name__}, "
                         f"not a JSON object")
    unknown = sorted(set(config) - set(CONFIG_TYPES))
    if unknown:
        raise UsageError(f"unknown config key {unknown[0]!r} in {path}; "
                         f"known keys: {sorted(CONFIG_TYPES)}")
    return config


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


def _resolve(args, config, key, default):
    """Flag value if given, else config file value, else default."""
    v = getattr(args, key.replace("-", "_"), None)
    if v is not None:
        return v
    if key not in config:
        return default
    v = config[key]
    want = CONFIG_TYPES[key]
    # a JSON integer is a valid float; true/false are not numbers
    if isinstance(v, bool) or not isinstance(
            v, (int, float) if want is float else want):
        raise UsageError(
            f"config key {key!r} must be of type {want.__name__}, got {v!r}")
    return v


def _resolve_seed(args, config):
    v = _resolve(args, config, "seed", None)
    if v is not None:
        return v
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"{SEED_ENV_VAR}={env!r} is not an integer") from None


def _resolve_tol(args, config):
    """The link tolerance.  Every margin comparison with a NaN tolerance is
    false, so a NaN or negative one would read as a violated law."""
    tol = float(_resolve(args, config, "tol", DEFAULT_TOL))
    if not (math.isfinite(tol) and tol >= 0.0):
        raise UsageError(f"tol must be finite and >= 0, got {tol}")
    return tol


@contextlib.contextmanager
def _trial(law, seed, n, m):
    """Exit 2 naming the trial when its linear algebra fails: its matrices
    lie beyond what the float checks support (a power that squares a large
    --kappa-max past the condition cap, say), which is no verdict."""
    try:
        yield
    except LinalgError as exc:
        raise UsageError(f"{law}: trial seed={seed} n={n} m={m} failed in "
                         f"linear algebra: {type(exc).__name__}: {exc}"
                         ) from None


def _cycle_n(trial, fixed, cap):
    n = fixed if fixed is not None else (trial % 6) + 1
    return min(n, cap)


def _cycle_m(trial, fixed):
    return fixed if fixed is not None else (trial % 4) + 1


def cmd_verify(args):
    config = _load_config(args.config) if args.config else {}
    law_list = _parse_laws(_resolve(args, config, "laws", "all"))
    trials = int(_resolve(args, config, "trials", DEFAULT_TRIALS))
    if trials < 1:
        raise UsageError(f"trials must be at least 1, got {trials}")
    seed = _resolve_seed(args, config)
    tol = _resolve_tol(args, config)
    kappa = float(_resolve(args, config, "kappa_max", DEFAULT_KAPPA))
    fieldname = _resolve(args, config, "field", "complex")
    fixed_n = _resolve(args, config, "n", None)
    fixed_m = _resolve(args, config, "m", None)
    # cycled n and m are in range by construction; fixed ones are checked
    _check_ensemble(1 if fixed_n is None else fixed_n, _cycle_m(0, fixed_m),
                    fieldname, kappa)

    started = time.monotonic()
    per_law = {}
    any_fail = False
    for law_index, name in enumerate(sorted(law_list)):
        spec = laws.law_spec(name)
        boundaries = laws.boundary_params(name)
        passes = fails = skips = 0
        skip_reasons = Counter()
        worst = None
        failing = []
        law_started = time.monotonic()
        for k in range(trials):
            cs = child_seed(seed, law_index, k)
            n = _cycle_n(k, fixed_n, spec.n_cap)
            m = _cycle_m(k, fixed_m)
            boundary = boundaries[k] if k < len(boundaries) else None
            with _trial(name, cs, n, m):
                inst = laws.sample_instance(name, n=n, m=m,
                                            fieldname=fieldname,
                                            kappa_max=kappa, seed=cs,
                                            boundary=boundary)
                result = laws.check_law(name, inst, tol=tol)
            if result.status == "skip":
                skips += 1
                skip_reasons[_skip_category(result.skip_reason)] += 1
                continue
            if result.holds:
                passes += 1
            else:
                fails += 1
                failing.append({"seed": cs, "n": n, "m": m,
                                "boundary": list(boundary) if boundary else None})
            margin = result.margin
            if worst is None or margin < worst["margin"]:
                worst = {"margin": margin, "seed": cs, "n": n, "m": m,
                         "boundary": list(boundary) if boundary else None}
        any_fail = any_fail or fails > 0
        per_law[name] = {"trials": trials, "passes": passes, "fails": fails,
                         "skips": skips, "worst": worst,
                         "failing_seeds": failing,
                         "skip_reasons": dict(sorted(skip_reasons.items())),
                         "wall_sec": round(time.monotonic() - law_started, 6)}

    # a law whose every trial skipped checked nothing, which is no pass
    nocheck = [name for name, r in per_law.items() if r["skips"] == trials]
    report = {
        "version": __version__,
        "config": {"laws": sorted(law_list), "trials": trials, "seed": seed,
                   "tol": tol, "kappa_max": kappa, "field": fieldname,
                   "n": fixed_n, "m": fixed_m},
        "laws": per_law,
        "wall_clock_sec": round(time.monotonic() - started, 6),
        "exit_status": 1 if any_fail or nocheck else 0,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        _write_out(args.out, text + "\n")
    for name in sorted(per_law):
        r = per_law[name]
        worst = r["worst"]
        worst_txt = (f"worst margin {worst['margin']:.3e} @ seed {worst['seed']}"
                     if worst else "no trials")
        print(f"{name:28s} {r['passes']:5d} pass {r['fails']:5d} fail "
              f"{r['skips']:5d} skip   {worst_txt}")
    if any_fail:
        for name in sorted(per_law):
            for f in per_law[name]["failing_seeds"]:
                print(f"FAIL {name} seed={f['seed']} n={f['n']} m={f['m']}")
    for name in nocheck:
        print(f"NOCHECK {name}: all {trials} trials skipped")
    return report["exit_status"]


def _parse_boundary(text, law):
    """The (s, t) forced by ``repro --boundary``, for a law that reads it."""
    spec = laws.law_spec(law)
    if not spec.reads_boundary:
        raise UsageError(f"{law} reads no --boundary: its trial would be "
                         f"the same without it")
    try:
        s, t = (float(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad boundary {text!r}, expected s,t")
    if spec.region is not None and not REGIONS[spec.region](s, t):
        raise UsageError(f"boundary {text!r} lies outside the "
                         f"{spec.region} region of {law}")
    return s, t


def _build_instance_from_args(args, config, law_for_instance, boundary=None):
    """The instance given by the flags, and the trial guard to check it in."""
    seed = _resolve_seed(args, config)
    kappa = float(_resolve(args, config, "kappa_max", DEFAULT_KAPPA))
    fieldname = _resolve(args, config, "field", "complex")
    n = int(_resolve(args, config, "n", 3))
    m = int(_resolve(args, config, "m", 2))
    _check_ensemble(n, m, fieldname, kappa)
    try:
        with _trial(law_for_instance, seed, n, m):
            inst = laws.sample_instance(law_for_instance, n=n, m=m,
                                        fieldname=fieldname, kappa_max=kappa,
                                        seed=seed, boundary=boundary)
    except ValueError as exc:
        if boundary is None:
            raise
        raise UsageError(f"boundary {args.boundary!r} lies outside the "
                         f"parameter region of {law_for_instance}: {exc}")
    except laws.InstanceError as exc:     # a coordinate the law would ignore
        raise UsageError(f"boundary {args.boundary!r}: {law_for_instance} "
                         f"{exc}") from None
    return inst, seed, _trial(law_for_instance, seed, n, m)


def cmd_sweep(args):
    config = _load_config(args.config) if args.config else {}
    name = args.law
    if name not in laws.SWEEPS:
        raise UsageError(
            f"law {name!r} is not sweepable; choose from "
            f"{sorted(laws.SWEEPS)}")
    if args.boundary is not None:
        raise UsageError(f"sweep {name} reads no --boundary: no sweep curve "
                         f"depends on (s, t)")
    sw = laws.SWEEPS[name]
    if args.grid:
        grid = _parse_grid(args.grid)
    else:
        lo, hi = sw.domain
        grid = list(np.linspace(lo, hi, 17))
    tol = _resolve_tol(args, config)
    inst, _, trial = _build_instance_from_args(args, config, sw.instance_law)
    with trial:
        try:
            curve = laws.sweep_law(name, inst, grid, tol=tol)
        except laws.InstanceError as exc:     # a grid the family cannot take
            raise UsageError(f"sweep {name}: {exc}") from None
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
    config = _load_config(args.config) if args.config else {}
    name = args.law
    if name not in laws.law_names():
        raise UsageError(f"unknown law {name!r}")
    tol = _resolve_tol(args, config)
    boundary = (None if args.boundary is None
                else _parse_boundary(args.boundary, name))
    inst, seed, trial = _build_instance_from_args(args, config, name, boundary)
    with trial:
        result = laws.check_law(name, inst, tol=tol)
    dump = {
        "law": name,
        "seed": seed,
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

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--field", choices=("real", "complex"), default=None)
        p.add_argument("--kappa-max", dest="kappa_max", type=float,
                       default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--config", default=None,
                       help="JSON config file; flags override it")
        p.add_argument("--out", default=None)

    pv = sub.add_parser("verify", help="run law suites and write a report")
    pv.add_argument("--laws", default=None,
                    help="comma-separated law names, or 'all'")
    pv.add_argument("--trials", type=int, default=None)
    common(pv)

    ps = sub.add_parser("sweep", help="sweep a monotone law over a grid")
    ps.add_argument("--law", required=True)
    ps.add_argument("--grid", default=None, help="a:b:step")
    ps.add_argument("--boundary", default=None)
    common(ps)

    pr = sub.add_parser("repro", help="re-run one trial from its seed")
    pr.add_argument("--law", required=True)
    pr.add_argument("--boundary", default=None,
                    help="forced s,t parameters, as recorded in the report")
    common(pr)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        if args.out is not None:
            _check_out(args.out)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "repro":
            return cmd_repro(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
