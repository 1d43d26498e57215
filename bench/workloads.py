"""The benchmark's workloads: which `meanscope` command lines one unit runs.

A unit is one fixed amount of work, run through ``meanscope.cli.main``.
The measuring loop repeats units, each with its own seed, until the run's
time is up.  This module imports nothing from meanscope, so the parent
process can validate a workload name without loading the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

# The seed of the unit whose verdicts are compared with reference.json.
# It is the seed of the ROADMAP invariant run, `meanscope verify --seed 12`.
REFERENCE_SEED = 12

TENSOR_LAWS = ("hadamard-callebaut", "matrix-callebaut", "tensor-f",
               "tensor-g", "wada")
ALL_LAWS = ("callebaut-operator", "geo-path-callebaut", "hadamard-callebaut",
            "hadamard-power", "interpolation-identity", "matrix-callebaut",
            "mean-axioms", "path-axioms", "path-monotonicity", "power-lemma",
            "scalar-callebaut", "sharp-identity", "superadditivity",
            "tensor-f", "tensor-g", "wada")


@dataclass(frozen=True)
class Verify:
    """`meanscope verify` of every listed law, `trials` trials each.

    One call per law when `per_law`, else one call for all of them.  n and
    m are fixed when given, else verify cycles them per trial.
    """

    laws: tuple
    trials: int
    n: int = None
    m: int = None
    per_law: bool = True
    kind: ClassVar[str] = "verify"

    def groups(self):
        """The laws of each call, in call order."""
        return [(law,) for law in self.laws] if self.per_law else [self.laws]

    def argv(self, laws, seed, out):
        fixed = [f"--{k}={v}" for k, v in (("n", self.n), ("m", self.m))
                 if v is not None]
        return ["verify", "--laws", ",".join(laws),
                "--trials", str(self.trials), *fixed, "--seed", str(seed),
                "--out", out]


@dataclass(frozen=True)
class Sweep:
    """One `meanscope sweep` call per (family, grid), all at the same n, m."""

    families: tuple        # ((sweep name, "a:b:step"), ...)
    n: int
    m: int
    kind: ClassVar[str] = "sweep"

    def argv(self, family, grid, seed, out):
        return ["sweep", "--law", family, f"--grid={grid}",
                "--n", str(self.n), "--m", str(self.m),
                "--seed", str(seed), "--out", out]


WORKLOADS = {
    # ROADMAP north-star traffic at a reduced trial count: all 16 laws, the
    # default (n, m) cycle, complex field, kappa 1e4.  Six trials cover the
    # whole n cycle; traced, the per-law time shares stay within 0.034
    # (total variation) of a 200-trial run's, no closer at 12 or 24 trials.
    "verify-mixed": Verify(laws=ALL_LAWS, trials=6),
    # The laws whose Loewner links at n=3, m=4 are dimension-9
    # eigendecompositions, which take nearly all of the time: where a faster
    # solver or fewer decompositions gain most, and sampling or CLI changes
    # gain nothing.
    "verify-tensor": Verify(laws=TENSOR_LAWS, trials=6, n=3, m=4),
    # The other 11 laws at n=1, where every decomposition returns without a
    # rotation: time goes to object construction and validation, sampling
    # and the CLI loop, which batching moves and a solver swap barely does.
    "verify-small": Verify(laws=tuple(x for x in ALL_LAWS
                                      if x not in TENSOR_LAWS),
                           trials=40, n=1, per_law=False),
    # One instance per family, then a grid of points that reuse the
    # instance's cached spectra; the only workload that runs sweep_law and
    # writes CSV.  Each grid holds its family's pivot, where the monotone
    # direction flips.  Short grids give many units, hence many instances,
    # per run, which keeps the mean unit time steady.
    "sweep-dense": Sweep(families=(("tensor-f", "-1:1:0.1"),
                                   ("tensor-g", "0:1:0.05"),
                                   ("matrix-callebaut-middle", "0:1:0.05"),
                                   ("scalar-callebaut-f", "0:1:0.05")),
                         n=3, m=4),
}


def unit_seed(seed, unit):
    """Seed of the `unit`-th unit of a run started with --seed `seed`."""
    return int(seed) * 10_000 + int(unit)
