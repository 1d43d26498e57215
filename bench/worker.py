"""Child process of the benchmark: runs one workload and writes its result.

run.py starts it with the checkout's src/ on PYTHONPATH and the BLAS thread
pools pinned to one thread:

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --result FILE
    python3 bench/worker.py --workload NAME --record-reference

A run first executes the reference unit (seed REFERENCE_SEED) and compares
its verdicts with reference.json; that unit also warms the interpreter.
Then it repeats units with seeds drawn from --seed until --seconds have
passed, timing the yardstick (yardstick.py) before each of their
`meanscope` calls and after the last.  With --trace 1 each unit runs twice, untraced and then traced, so
the tracing overhead is measured on the same inputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import meanscope
from meanscope import cli, laws

import yardstick
from tracer import Tracer
from workloads import ALL_LAWS, REFERENCE_SEED, WORKLOADS, unit_seed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
MIN_UNITS = 3
EIG_DIMS = (1, 2, 3, 4, 5, 6, 9)
SPANNED_LAYERS = ("linalg.loewner_leq", "linalg.power", "linalg.kron",
                  "linalg.pd_sum")


@dataclass
class Unit:
    """Outcome of one unit: its wall clock and what its outputs say."""

    calls: list = field(default_factory=list)   # wall clock of each cli.main call
    items: int = 0            # trials (verify) or grid points (sweep) attempted
    failed: int = 0           # failed or raised trials, violated sweep links
    verdicts: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    out_bytes: int = 0
    report: dict = None

    @property
    def wall(self):
        return sum(self.calls)


def _raising_law(exc):
    """The law cmd_verify was checking when `exc` was raised, if any."""
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        if frame.f_code.co_name == "cmd_verify":
            return frame.f_locals.get("name")
    return None


def _timed_main(argv, yard):
    """(exit status, seconds, exception) of one cli.main call.

    When `yard` is a list, the yardstick is timed first and appended to it,
    so that each call has a sample of the host's speed next to it.
    """
    if yard is not None:
        yard.append(yardstick.seconds())
    start = time.perf_counter()
    try:
        status = cli.main(argv)
    except Exception as exc:  # a raising trial is a failure to report, not a crash
        traceback.print_exc()
        return None, time.perf_counter() - start, exc
    return status, time.perf_counter() - start, None


def run_verify(w, seed, tag, yard):
    unit = Unit()
    checked = 0
    for i, group in enumerate(w.groups()):
        out = OUT / f"{tag}-{i}-report.json"
        out.unlink(missing_ok=True)
        status, wall, exc = _timed_main(w.argv(group, seed, str(out)), yard)
        unit.calls.append(wall)
        if exc is not None or not out.exists():
            unit.items += len(group) * w.trials
            unit.failed += len(group) * w.trials
            culprit = _raising_law(exc) if exc is not None else ",".join(group)
            unit.errors.append(f"law {culprit}: verify seed {seed} exited with "
                               f"status {status}, raised {exc!r}, no report")
            continue
        text = out.read_text()
        report = json.loads(text)
        unit.out_bytes += len(text.encode())
        if unit.report is None:
            unit.report = {"config": report["config"], "laws": {}}
        unit.report["laws"].update(report["laws"])
        if status != 0:
            unit.errors.append(f"law {','.join(group)}: verify seed {seed} "
                               f"exited with status {status}")
        for name in group:
            r = report["laws"].get(name)
            if r is None:
                unit.errors.append(f"law {name}: missing from the report")
                continue
            counts = [r["passes"], r["fails"], r["skips"]]
            unit.verdicts[name] = counts
            unit.items += r["trials"]
            unit.failed += r["fails"]
            checked += r["passes"] + r["fails"]
            if sum(counts) != r["trials"] or r["trials"] != w.trials:
                unit.errors.append(f"law {name}: counts {counts} do not add "
                                   f"up to {w.trials} trials")
            for f in r["failing_seeds"]:
                unit.errors.append(f"law {name}: trial fails at seed "
                                   f"{f['seed']} n={f['n']} m={f['m']}")
    if checked == 0:
        unit.errors.append(f"verify seed {seed} checked no trial")
    return unit


def _link_verdicts(rows):
    """One character per grid point: '-' no link, '+' link holds, 'x' fails.

    Recomputed from the CSV with the Loewner rule: margin >= -tol * max(1,
    scale), scale = ||V(t0)||_2 + ||V(t1)||_2 = lambda_max(t0) + lambda_max(t1)
    for the positive definite values every sweep produces.
    """
    marks = []
    for prev, row in zip([None] + rows, rows):
        if row["monotone_link_margin"] == "":
            marks.append("-")
            continue
        scale = float(prev["lambda_max"]) + float(row["lambda_max"])
        margin = float(row["monotone_link_margin"])
        marks.append("+" if margin >= -laws.DEFAULT_TOL * max(1.0, scale)
                     else "x")
    return "".join(marks)


def run_sweep(w, seed, tag, yard):
    unit = Unit()
    for family, grid in w.families:
        out = OUT / f"{tag}-{family}.csv"
        out.unlink(missing_ok=True)
        status, wall, exc = _timed_main(w.argv(family, grid, seed, str(out)),
                                        yard)
        unit.calls.append(wall)
        expected = len(cli._parse_grid(grid))
        if exc is not None or not out.exists():
            unit.items += expected
            unit.failed += expected
            unit.errors.append(f"sweep {family}: exit status {status}, raised "
                               f"{exc!r}, no CSV written (seed {seed})")
            continue
        unit.out_bytes += out.stat().st_size
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        marks = _link_verdicts(rows)
        unit.verdicts[family] = marks
        unit.items += len(rows)
        unit.failed += marks.count("x")
        if len(rows) != expected:
            unit.errors.append(f"sweep {family}: {len(rows)} grid points, "
                               f"expected {expected}")
        for row, mark in zip(rows, marks):
            if mark == "x":
                unit.errors.append(f"sweep {family}: monotone link violated "
                                   f"at t={row['t']} (seed {seed})")
        if status != 0:
            unit.errors.append(f"sweep {family}: exit status {status} "
                               f"(seed {seed})")
        if status != (1 if "x" in marks else 0):
            unit.errors.append(f"sweep {family}: exit status {status} "
                               f"disagrees with its CSV margins ({marks})")
        for row in rows:
            lo, hi = float(row["lambda_min"]), float(row["lambda_max"])
            if not 0.0 < lo <= hi:
                unit.errors.append(f"sweep {family}: eigenvalue range "
                                   f"[{lo}, {hi}] at t={row['t']} is not PD")
                break
    return unit


def run_unit(w, seed, tag="unit", yard=None):
    """Run one unit; with a `yard` list, time the yardstick before each call."""
    run = run_verify if w.kind == "verify" else run_sweep
    return run(w, seed, tag, yard)


def reference_mismatches(name, unit):
    """Errors for every law or sweep whose verdicts differ from reference.json."""
    expected = json.loads(REFERENCE.read_text())["workloads"].get(name)
    if expected is None:
        return [f"reference.json has no entry for workload {name}"]
    return [f"law {key}: verdicts {unit.verdicts.get(key)} at seed "
            f"{REFERENCE_SEED} differ from the reference {expected.get(key)}"
            for key in sorted(set(expected) | set(unit.verdicts))
            if expected.get(key) != unit.verdicts.get(key)]


def repro_mismatches(report):
    """Re-run each law's worst trial from its seed; the margin must match bitwise."""
    cfg = report["config"]
    errors = []
    for name, r in sorted(report["laws"].items()):
        worst = r["worst"]
        if worst is None:
            continue
        boundary = tuple(worst["boundary"]) if worst["boundary"] else None
        inst = laws.sample_instance(name, n=worst["n"], m=worst["m"],
                                    fieldname=cfg["field"],
                                    kappa_max=cfg["kappa_max"],
                                    seed=worst["seed"], boundary=boundary)
        margin = laws.check_law(name, inst, tol=cfg["tol"]).margin
        if margin != worst["margin"]:
            errors.append(f"law {name}: seed {worst['seed']} reproduces margin "
                          f"{margin!r}, the report says {worst['margin']!r}")
    return errors


def tail_percentile(values):
    """(p, value) for the highest of 99.9/99/90/50 with >= 10 values beyond it."""
    for p in (99.9, 99.0, 90.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(values, p))
    return 50.0, float(np.percentile(values, 50.0))


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": " ".join(str(blas.get("openblas configuration", "")).split()),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def end_to_end_metrics(units, yard):
    # Wall clock in yardsticks: each call over the mean of the yardsticks
    # timed right before and right after it, so that the host's drift, which
    # moves both alike, cancels.  yard[i] precedes the run's i-th call.
    walls = [c for u in units for c in u.calls]
    assert len(yard) == len(walls) + 1
    cost = sum(c / (0.5 * (yard[i] + yard[i + 1])) for i, c in enumerate(walls))
    return {
        "wall_ys": (cost / len(units), "ys"),
        "items_per_ys": (sum(u.items for u in units) / cost, "1/ys"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MiB"),
    }


def per_layer_metrics(tracer, plain, traced, first_calls):
    k = len(traced)
    first = traced[0]
    m = {
        "linalg.eig.calls": (first_calls["linalg.eig"], "count"),
        "linalg.eig.calls_per_trial": (first_calls["linalg.eig"] / first.items,
                                       "count"),
        "linalg.eig.self_s": (tracer.self_s["linalg.eig"] / k, "s"),
    }
    for dim in EIG_DIMS:
        samples = tracer.eig_us.get(dim)
        value = statistics.median(samples) if samples else 0.0
        m[f"linalg.eig.us_per_call.n{dim}"] = (value, "us")
    for name in SPANNED_LAYERS + ("means.mean",):
        m[f"{name}.calls"] = (first_calls[name], "count")
        m[f"{name}.self_s"] = (tracer.self_s[name] / k, "s")
    m["linalg.matrix_new.calls"] = (first_calls["linalg.matrix_new"], "count")

    sample_s = tracer.total_s["ensembles.sample"]
    m["ensembles.sample_s"] = (sample_s / k, "s")
    m["ensembles.sample_share"] = (sample_s / tracer.total_s["cli.main"], "ratio")
    m["ensembles.random_pd.calls"] = (first_calls["ensembles.random_pd"], "count")

    trials = tracer.trials
    for law in ALL_LAWS:
        ms = [t["ms"] for t in trials if t["law"] == law]
        eig = [t["eig"] for t in trials if t["law"] == law and t["unit"] == 0]
        m[f"laws.{law}.trial_ms.p50"] = (statistics.median(ms) if ms else 0.0, "ms")
        m[f"laws.{law}.eig_per_trial"] = (sum(eig) / len(eig) if eig else 0.0,
                                          "count")
    all_ms = [t["ms"] for t in trials]
    pct, tail = tail_percentile(all_ms) if all_ms else (0.0, 0.0)
    m["laws.trial_ms.p50"] = (statistics.median(all_ms) if all_ms else 0.0, "ms")
    m["laws.trial_ms.tail"] = (tail, "ms")
    m["laws.trial_ms.tail_pct"] = (pct, "%")
    m["laws.trial_ms.count"] = (len(all_ms), "count")
    skips = sum(t["status"] == "skip" for t in trials)
    m["laws.skip_share"] = (skips / len(trials) if trials else 0.0, "ratio")
    m["laws.sweep_law.self_s"] = (tracer.self_s["laws.sweep_law"] / k, "s")
    m["laws.sweep.points"] = (tracer.sweep_points[0], "count")

    m["cli.self_s"] = (tracer.self_s["cli.main"] / k, "s")
    m["cli.report_bytes"] = (first.out_bytes, "B")
    m["trace.overhead_share"] = (sum(u.wall for u in traced) /
                                 sum(u.wall for u in plain) - 1.0, "ratio")
    return m


def measure(name, seed, seconds, trace):
    """Run the reference unit, then units until `seconds` have passed."""
    w = WORKLOADS[name]
    deadline = time.perf_counter() + seconds
    reference = run_unit(w, REFERENCE_SEED, "reference")
    mismatches = reference_mismatches(name, reference)
    errors = reference.errors + mismatches
    tracer = Tracer()
    plain, traced, first_calls = [], [], Counter()
    yard = []      # yardstick seconds: before each call and after the last
    last = 0.0     # duration of the previous iteration: start none that would overrun
    while len(plain) < MIN_UNITS or time.perf_counter() + last < deadline:
        began = time.perf_counter()
        index = len(plain)
        s = unit_seed(seed, index)
        plain.append(run_unit(w, s, yard=yard))
        if trace:
            tracer.unit = index
            with tracer.installed():
                traced.append(run_unit(w, s))
            if index == 0:
                first_calls = Counter(tracer.calls)
        last = time.perf_counter() - began
    yard.append(yardstick.seconds())
    units = plain + traced
    for u in units:
        errors += u.errors
    if w.kind == "verify" and plain[0].report is not None:
        errors += repro_mismatches(plain[0].report)

    attempted = sum(u.items for u in units)
    failed = sum(u.failed for u in units)
    if trace:
        metrics = per_layer_metrics(tracer, plain, traced, first_calls)
        tracer.write(OUT / f"spans-{name}.jsonl")
    else:
        metrics = end_to_end_metrics(plain, yard)
    rate_name = "trials_per_s" if w.kind == "verify" else "points_per_s"
    notes = {
        "units": (len(plain), "count"),
        "unit_walls": ([u.wall for u in plain], "s"),
        "yardstick_walls": (yard, "s"),
        "wall_s": (statistics.mean(u.wall for u in plain), "s"),
        "yardstick_s": (statistics.mean(yard), "s"),
        rate_name: (sum(u.items for u in plain) / sum(u.wall for u in plain),
                    "1/s"),
        "fail_share": (failed / attempted, "ratio"),
        "verdict_mismatch": (len(mismatches), "count"),
    }
    skips = {f"{law}: {reason}": count for (law, reason), count
             in sorted(tracer.skip_tally().items())}
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "errors": errors,
        "notes": notes,
        "skips": skips,
        "env": environment(),
    }


def record_reference(name):
    unit = run_unit(WORKLOADS[name], REFERENCE_SEED, "reference")
    if unit.errors:
        raise SystemExit("not recording a reference from a failing run:\n"
                         + "\n".join(unit.errors))
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {
        "seed": REFERENCE_SEED, "workloads": {}}
    data["workloads"][name] = unit.verdicts
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {name} verdicts at seed {REFERENCE_SEED} in {REFERENCE}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", default=None)
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args()
    src = (ROOT / "src").resolve()
    if Path(meanscope.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported meanscope from {meanscope.__file__}, "
                         f"not from {src}")
    OUT.mkdir(exist_ok=True)
    if args.record_reference:
        record_reference(args.workload)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
