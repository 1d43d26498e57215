"""The command line's end-to-end contract, run in process through
``cli.main`` with the literal seeds, messages and exit codes a user sees.
What needs the installed console script (its entry point, a run outside
the checkout with no PYTHONPATH) is run by the CI workflow."""

from meanscope.cli import main


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
