"""The benchmark's tracer (bench/tracer.py) times the program by replacing
named functions from outside.  Running it here makes a change that drops one
of those names, or no longer calls it, fail the tests and not only a traced
benchmark run."""

import importlib.util
from pathlib import Path

from meanscope import cli, means

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_patched_name(tmp_path, capsys):
    tracer_module = load_tracer_module()
    mean = means.mean
    tracer = tracer_module.Tracer()
    with tracer.installed():
        verify = cli.main(["verify", "--laws",
                           "wada,power-lemma,superadditivity", "--trials", "1",
                           "--seed", "3", "--n", "2",
                           "--out", str(tmp_path / "report.json")])
        sweep = cli.main(["sweep", "--law", "tensor-g", "--grid", "0:1:0.5",
                          "--seed", "3", "--n", "2",
                          "--out", str(tmp_path / "curve.csv")])
    assert (verify, sweep) == (0, 0)
    assert means.mean is mean                    # restored on exit
    assert tracer.calls["linalg.eig"] > 0
    assert tracer.calls["means.mean"] > 0
    # between them the three laws and the sweep reach every patched name
    names = [name for _, _, name in tracer_module.SPANNED]
    names += ["linalg.matrix_new", "ensembles.random_pd"]
    assert [n for n in names if tracer.calls[n] == 0] == []
    assert [t["law"] for t in tracer.trials] == [
        "power-lemma", "superadditivity", "wada"]
    assert all(t["eig"] > 0 for t in tracer.trials)
    assert sum(tracer.sweep_points.values()) == 3
