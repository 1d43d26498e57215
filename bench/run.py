"""meanscope benchmark: measures one workload in a fresh child process.

    python3 bench/run.py --workload verify-mixed --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Prints every metric with its unit, the machine it ran on, and as the last
line one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 gives the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run.  Exits 1 when a run's outputs fail a check (the messages
name the law) and 2 when the checkout holds no meanscope sources.

    python3 bench/run.py --workload NAME --record-reference

re-records the workload's verdicts at the reference seed in
bench/reference.json; only a change that alters seeding should do that.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
DEADLINE_S = 170          # the whole command must end within 180 s
SETUP_PROBES = 8          # on each side of the worker
IMPORT_PROBE = ("import time; t = time.perf_counter(); import meanscope; "
                "print(time.perf_counter() - t)")


def child_env():
    env = dict(os.environ)
    # Cache bytecode in the checkout, as an installed package has it, so that
    # setup_s does not depend on whether the caller's shell disables it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def import_seconds(env, probes):
    """Times of `import meanscope`, each in a fresh interpreter."""
    times = []
    for _ in range(probes):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True)
        times.append(float(out.stdout))
    return times


def run_worker(args, env, deadline):
    result_path = OUT / f"result-{args.workload}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result_path)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"error: {args.workload} did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"error: worker exited with status {proc.returncode}")
    return json.loads(result_path.read_text())


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "meanscope" / "__init__.py").is_file():
        print(f"error: no meanscope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()
    if args.record_reference:
        return subprocess.run([sys.executable, str(BENCH / "worker.py"),
                               "--workload", args.workload,
                               "--record-reference"],
                              env=env, cwd=ROOT).returncode

    # setup_s: the median of import probes taken before and after the worker,
    # so that they sample the host's speed at both ends of the run.  The
    # first import only caches bytecode in the checkout and is not counted.
    metrics, setup = {}, []
    if not args.trace:
        import_seconds(env, 1)
        setup = import_seconds(env, SETUP_PROBES)
    result = run_worker(args, env, deadline)
    if not args.trace:
        setup += import_seconds(env, SETUP_PROBES)
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    metrics.update(result["metrics"])

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, (value, unit) in result["notes"].items():
        print(f"note {name} {value!r} {unit}")
    for reason, count in result["skips"].items():
        print(f"skips {count} {reason}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    for error in result["errors"]:
        print(f"FAIL {error}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
