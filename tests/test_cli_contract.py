"""The command line's end-to-end contract, run in process through
``cli.main`` with the literal seeds, messages and exit codes a user sees.
What needs the installed console script (its entry point, a run outside
the checkout with no PYTHONPATH) is run by the CI workflow."""

import csv
import json

import numpy as np
import pytest

from meanscope.cli import main
from meanscope.laws import SWEEPS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_full_run_past_the_certificate_names_the_trial(capsys):
    # a matrix the Cholesky certificate cannot prove PD falls back to its
    # spectrum, which refuses it with the message it always gave
    code, _, err = run(capsys, "verify", "--seed", "12", "--kappa-max", "1e7")
    assert code == 2
    assert err.startswith(
        "error: geo-path-callebaut: trial seed=6069492857410908091 n=6 m=4 "
        "failed in linear algebra: NotPositiveDefiniteError: slice 0,3: ")


def test_failing_trial_of_a_chunk_replays_its_message(capsys):
    # a trial whose linear algebra fails is exit 2 naming it: trial 4 of a
    # chunk of 6 is drawn and checked alone after its chunk fails, and
    # repro of its seed fails with the same line
    code, _, err = run(capsys, "verify", "--laws", "tensor-f",
                       "--kappa-max", "1e7", "--seed", "7", "--trials", "6",
                       "--n", "2", "--m", "1")
    assert code == 2
    assert err.startswith(
        "error: tensor-f: trial seed=6954077461952881851 n=2 m=1 ")
    code, _, replay = run(capsys, "repro", "--law", "tensor-f",
                          "--kappa-max", "1e7",
                          "--seed", "6954077461952881851", "--n", "2",
                          "--m", "1")
    assert code == 2 and replay == err


def test_path_axioms_trial_just_off_the_geodesic_replays(capsys):
    # r = 1.2e-7 is a power path just off the geodesic: its kernel keeps the
    # interpolation-midpoint residual within 1e-9
    code, out, _ = run(capsys, "repro", "--law", "path-axioms",
                       "--seed", "2822770930333371687", "--n", "1", "--m", "1")
    assert code == 0 and json.loads(out)["status"] == "pass"


def test_small_verify_writes_its_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, _ = run(capsys, "verify", "--laws", "wada,hadamard-power",
                     "--trials", "3", "--seed", "1", "--out", str(out))
    assert code == 0
    assert sorted(json.loads(out.read_text())["laws"]) == [
        "hadamard-power", "wada"]


def test_path_monotonicity_skips_power_paths_under_one_reason(tmp_path,
                                                              capsys):
    # it checks the trials on the geodesic and skips the power paths, which
    # fail its dual-symmetry hypothesis
    out = tmp_path / "pm.json"
    code, _, _ = run(capsys, "verify", "--laws", "path-monotonicity",
                     "--seed", "12", "--trials", "40", "--out", str(out))
    assert code == 0
    b = json.loads(out.read_text())["laws"]["path-monotonicity"]
    assert (b["passes"], b["fails"], b["skips"]) == (37, 0, 3)
    assert b["skip_reasons"] == {"dual-symmetry hypothesis fails for r=#": 3}


CHUNK1 = ("path-monotonicity,callebaut-operator,hadamard-power,"
          "scalar-callebaut,mean-axioms,wada,sharp-identity,superadditivity,"
          "interpolation-identity,path-axioms,geo-path-callebaut,power-lemma,"
          "matrix-callebaut")


# at a fixed n and m all eight trials of a law are drawn and checked as one
# stack; at n = 1 the m cycle gives chunks of six, with per-trial sigma and
# exponents, skipped trials and the scalar law, and the one-pair laws, which
# read no m, run their 24 trials as one chunk.  A run opens its trials'
# streams ahead in one pass, and repro opens each stream alone: each law's
# worst trial must replay alone to its margin (tensor-f's worst margin sits
# on its pivot link; mean-axioms draws its ordered stacks and its congruence
# in a chunk of eight at n = 2)
@pytest.mark.parametrize("laws, args", [
    ("hadamard-callebaut,tensor-f,tensor-g,mean-axioms",
     ["--n", "2", "--m", "3", "--trials", "8", "--seed", "1"]),
    (CHUNK1, ["--n", "1", "--trials", "24", "--seed", "1"]),
], ids=["n2-m3", "n1"])
def test_worst_trial_of_each_law_replays_through_repro(tmp_path, capsys, laws,
                                                       args):
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--laws", laws, *args,
                     "--out", str(report))
    assert code == 0
    entries = json.loads(report.read_text())["laws"]
    assert sorted(entries) == sorted(laws.split(","))
    for law, entry in entries.items():
        w = entry["worst"]
        boundary = (["--boundary", "%r,%r" % tuple(w["boundary"])]
                    if w["boundary"] else [])
        code, out, _ = run(capsys, "repro", "--law", law, "--seed",
                           str(w["seed"]), "--n", str(w["n"]), "--m",
                           str(w["m"]), *boundary)
        assert code == 0
        assert json.loads(out)["margin"] == w["margin"], law


def sweep_rows(tmp_path, capsys, *argv):
    out = tmp_path / "curve.csv"
    code, _, err = run(capsys, "sweep", *argv, "--seed", "1",
                       "--out", str(out))
    assert (code, err) == (0, "")
    with out.open() as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("family", sorted(SWEEPS))
def test_every_sweep_family_runs_on_its_default_grid(tmp_path, capsys,
                                                     family):
    # each runs its own evaluator through sweep_law, on 17 points of its
    # domain
    rows = sweep_rows(tmp_path, capsys, "--law", family)
    lo, hi = SWEEPS[family].domain
    assert [float(row["t"]) for row in rows] == list(np.linspace(lo, hi, 17))


def test_grid_straddling_the_pivot_leaves_that_pair_unlinked(tmp_path,
                                                             capsys):
    # no default grid straddles its pivot: on this one the pair from -0.125
    # to 0.125 does, and gets no link, so only its end point and the first
    # point have an empty margin
    rows = sweep_rows(tmp_path, capsys, "--law", "tensor-f",
                      "--grid=-0.875:0.875:0.25")
    empty = [row["t"] for row in rows if row["monotone_link_margin"] == ""]
    assert empty == ["-0.875", "0.125"]
