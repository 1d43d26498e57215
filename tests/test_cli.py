import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meanscope import cli, laws
from meanscope.cli import GRID_MAX_POINTS, SEED_ENV_VAR, main
from meanscope.linalg import HermitianMatrix, matrix_to_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_single_law_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout, _ = run(capsys, "verify", "--laws", "sharp-identity",
                              "--trials", "10", "--seed", "1", "--n", "3",
                              "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        block = report["laws"]["sharp-identity"]
        assert block["passes"] == 10 and block["fails"] == 0
        assert report["exit_status"] == 0
        assert "sharp-identity" in stdout

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_repeated_law_is_usage_error(self, tmp_path, capsys, source):
        # it would run twice, and the report would keep only the second run
        out = tmp_path / "report.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"laws": "wada,power-lemma,wada"}))
        where = (["--laws", "wada,power-lemma,wada"] if source == "flag"
                 else ["--config", str(cfg)])
        code, stdout, err = run(capsys, "verify", *where, "--trials", "2",
                                "--out", str(out))
        assert code == 2
        assert "'wada'" in err and "twice" in err
        assert stdout == "" and not out.exists()

    def test_unknown_law_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--laws", "no-such-law")
        assert code == 2
        assert "no-such-law" in err

    def test_sweep_name_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--laws", "scalar-callebaut-f")
        assert code == 2
        assert "scalar-callebaut-f" in err and "meanscope sweep" in err

    def test_empty_law_list_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--laws", ",")
        assert code == 2
        assert "no law" in err

    def test_zero_trials(self, tmp_path, capsys):
        # a run that checks nothing is no pass
        out = tmp_path / "report.json"
        code, _, err = run(capsys, "verify", "--laws", "wada", "--trials", "0",
                           "--out", str(out))
        assert code == 2
        assert "trials" in err and not out.exists()

    def test_law_with_every_trial_skipped_is_no_pass(self, tmp_path, capsys):
        def check(insts, tol):
            return [laws.Skip(f"hypothesis fails at n={inst.n}")
                    for inst in insts]

        laws.register_law("wada-skipped", laws.law_spec("wada").sampler,
                          check)
        try:
            out = tmp_path / "report.json"
            code, stdout, _ = run(capsys, "verify", "--laws",
                                  "wada,wada-skipped", "--trials", "2",
                                  "--out", str(out))
            assert code == 1
            assert "NOCHECK wada-skipped" in stdout
            assert "NOCHECK wada " not in stdout and "FAIL" not in stdout
            report = json.loads(out.read_text())
            assert report["exit_status"] == 1
            assert report["laws"]["wada-skipped"]["skips"] == 2
            assert report["laws"]["wada-skipped"]["skip_reasons"] == {
                "hypothesis fails at n=#": 2}
        finally:
            del laws._LAWS["wada-skipped"]

    def test_law_whose_check_returns_no_link_is_usage_error(
            self, tmp_path, capsys):
        # a trial that checks nothing is no pass
        laws.register_law("wada-empty", laws.law_spec("wada").sampler,
                          lambda insts, tol: [() for _ in insts])
        try:
            out = tmp_path / "report.json"
            code, stdout, err = run(capsys, "verify", "--laws", "wada-empty",
                                    "--trials", "5", "--out", str(out))
        finally:
            del laws._LAWS["wada-empty"]
        assert code == 2
        assert err.startswith("error: wada-empty: trial seed=")
        assert "checked no link" in err
        assert stdout == "" and not out.exists()

    def test_report_roundtrips(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        run(capsys, "verify", "--laws", "power-lemma", "--trials", "3",
            "--seed", "5", "--out", str(out))
        report = json.loads(out.read_text())
        assert json.loads(json.dumps(report, sort_keys=True)) == report

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"laws": "sharp-identity", "trials": 50,
                                   "seed": 9, "n": 2, "kappa_max": 100.0}))
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--config", str(cfg),
                         "--trials", "4", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["trials"] == 4       # flag wins
        assert report["config"]["seed"] == 9         # config survives

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MEANSCOPE_SEED", "77")
        out = tmp_path / "report.json"
        run(capsys, "verify", "--laws", "wada", "--trials", "2",
            "--out", str(out))
        assert json.loads(out.read_text())["config"]["seed"] == 77

    def test_per_law_wall_time_and_skip_reasons(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--laws", "path-monotonicity,wada",
                         "--trials", "24", "--seed", "12", "--n", "2",
                         "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        for block in report["laws"].values():
            assert sum(block["skip_reasons"].values()) == block["skips"]
            assert 0.0 < block["wall_sec"] <= report["wall_clock_sec"]
        # one in eight trials samples a power path, which fails the
        # dual-symmetry hypothesis; its reasons, numbers blanked, tally as
        # one cause
        block = report["laws"]["path-monotonicity"]
        assert block["skips"] > 0
        assert block["skip_reasons"] == {
            "dual-symmetry hypothesis fails for r=#": block["skips"]}
        assert report["laws"]["wada"]["skip_reasons"] == {}

    def test_determinism(self, tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run(capsys, "verify", "--laws", "superadditivity", "--trials", "5",
                "--seed", "3", "--out", str(out))
            report = json.loads(out.read_text())
            report["wall_clock_sec"] = 0
            for block in report["laws"].values():
                block["wall_sec"] = 0
            outs.append(report)
        assert outs[0] == outs[1]


class TestSweep:
    def test_tensor_g_csv(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "sweep", "--law", "tensor-g", "--seed", "3",
                         "--n", "2", "--grid", "0:1:0.25", "--out", str(out))
        assert code == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "trace", "lambda_min", "lambda_max",
                           "monotone_link_margin"]
        assert len(rows) == 6
        assert rows[1][4] == ""          # first point has no incoming link
        assert float(rows[2][4]) >= -1e-8

    def test_non_sweepable_law(self, capsys):
        code, _, err = run(capsys, "sweep", "--law", "sharp-identity")
        assert code == 2
        assert "not sweepable" in err

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "sweep", "--law", "tensor-g",
                           "--grid", "1:0:0.5")
        assert code == 2

    @pytest.mark.parametrize("grid", ["0:1e308:1e-308", "0:1:1e-6",
                                      "0:1:9.99e-5"])
    def test_oversized_grid_is_usage_error(self, tmp_path, capsys, grid):
        out = tmp_path / "curve.csv"
        code, stdout, err = run(capsys, "sweep", "--law", "tensor-g",
                                "--grid", grid, "--out", str(out))
        assert code == 2
        assert err.startswith("error:") and "at most 10001 points" in err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("law,grid,domain", [
        ("tensor-g", "0:5:1", "[0.0, 1.0]"),
        ("tensor-f", "-2:1:0.5", "[-1.0, 1.0]"),
        ("scalar-callebaut-f", "0.5:1.5:0.25", "[0.0, 1.0]"),
    ])
    def test_grid_outside_domain_is_usage_error(self, tmp_path, capsys, law,
                                                grid, domain):
        out = tmp_path / "curve.csv"
        code, stdout, err = run(capsys, "sweep", "--law", law,
                                f"--grid={grid}", "--out", str(out))
        assert code == 2
        assert err.startswith(f"error: sweep {law}: ")
        assert f"outside domain {domain}" in err
        assert stdout == "" and not out.exists()

    def test_largest_grid_is_accepted(self):
        assert len(cli._parse_grid("0:1:1e-4")) == GRID_MAX_POINTS

    def test_last_point_past_the_end_by_round_off_is_the_end(self, tmp_path,
                                                            capsys):
        # 0.09 + 13 * 0.07 is 1.0000000000000002, past the domain of
        # matrix-callebaut-middle; snapped to 1.0 it sweeps
        grid = cli._parse_grid("0.09:1:0.07")
        assert len(grid) == 14 and grid[-1] == 1.0
        assert grid[:-1] == [0.09 + i * 0.07 for i in range(13)]
        out = tmp_path / "curve.csv"
        code, _, err = run(capsys, "sweep", "--law", "matrix-callebaut-middle",
                           "--grid=0.09:1:0.07", "--seed", "1",
                           "--out", str(out))
        assert (code, err) == (0, "")
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 14 and rows[-1][0] == "1.0"

    def test_last_point_short_of_the_end_by_round_off_is_the_end(
            self, tmp_path, capsys):
        # 0 + 3 * 0.3 is 0.8999999999999999, short of 0.9 by round-off
        grid = cli._parse_grid("0:0.9:0.3")
        assert grid == [0.0, 0.3, 0.6, 0.9]
        out = tmp_path / "curve.csv"
        code, _, err = run(capsys, "sweep", "--law", "tensor-g",
                           "--grid=0:0.9:0.3", "--seed", "1",
                           "--out", str(out))
        assert (code, err) == (0, "")
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 4 and rows[-1][0] == "0.9"

    def test_last_point_short_of_the_end_beyond_round_off_stays(self):
        # 0:1:0.3 ends at 0.8999999999999999, a whole 0.1 short of 1
        grid = cli._parse_grid("0:1:0.3")
        assert grid == [0.0 + i * 0.3 for i in range(4)]
        assert grid[-1] == 0.8999999999999999

    def test_last_point_past_the_end_beyond_round_off_is_dropped(self):
        # 0:1:0.35 rounds to 3 steps, whose end 1.05 is no round-off
        assert cli._parse_grid("0:1:0.35") == [0.0, 0.35, 0.7]

    @pytest.mark.parametrize("grid", ["0:1:nan", "0:inf:1", "nan:1:0.5"])
    def test_non_finite_grid_is_usage_error(self, tmp_path, capsys, grid):
        out = tmp_path / "curve.csv"
        code, stdout, err = run(capsys, "sweep", "--law", "tensor-g",
                                "--grid", grid, "--out", str(out))
        assert code == 2
        assert err.startswith("error:") and "finite" in err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("law, grid", [("tensor-g", "0:0.05:0.1"),
                                           ("tensor-f", "-0.2:0.2:0.4")])
    def test_grid_without_a_link_is_usage_error(self, tmp_path, capsys, law,
                                                grid):
        # one point, or two on either side of the pivot: nothing is checked
        out = tmp_path / "curve.csv"
        code, stdout, err = run(capsys, "sweep", "--law", law,
                                f"--grid={grid}", "--out", str(out))
        assert code == 2
        assert err.startswith(f"error: sweep {law}: grid [")
        assert "checks no link" in err
        assert stdout == "" and not out.exists()


class TestRepro:
    def test_repro_matches_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        run(capsys, "verify", "--laws", "callebaut-operator", "--trials", "5",
            "--seed", "11", "--n", "3", "--m", "2", "--out", str(out))
        worst = json.loads(out.read_text())["laws"]["callebaut-operator"]["worst"]
        code, stdout, _ = run(capsys, "repro", "--law", "callebaut-operator",
                              "--seed", str(worst["seed"]),
                              "--n", str(worst["n"]), "--m", str(worst["m"]))
        assert code == 0
        dump = json.loads(stdout)
        assert dump["margin"] == worst["margin"]

    @pytest.mark.parametrize("law, ran_at", [
        ("scalar-callebaut", {"n": 1}),     # always scalar sequences
        ("wada", {"m": 1}),                 # always one pair
    ])
    def test_report_records_the_n_and_m_the_trial_ran_at(
            self, tmp_path, capsys, law, ran_at):
        out = tmp_path / "report.json"
        run(capsys, "verify", "--laws", law, "--trials", "6", "--seed", "12",
            "--n", "3", "--m", "3", "--out", str(out))
        worst = json.loads(out.read_text())["laws"][law]["worst"]
        assert {key: worst[key] for key in ran_at} == ran_at
        boundary = (["--boundary", ",".join(map(repr, worst["boundary"]))]
                    if worst["boundary"] else [])
        code, stdout, _ = run(capsys, "repro", "--law", law,
                              "--seed", str(worst["seed"]),
                              "--n", str(worst["n"]), "--m", str(worst["m"]),
                              *boundary)
        assert code == 0
        dump = json.loads(stdout)
        assert dump["margin"] == worst["margin"]
        assert (dump["summary"]["n"], dump["summary"]["m"]) == (
            worst["n"], worst["m"])

    def test_repro_prints_parsable_matrices(self, capsys):
        code, stdout, _ = run(capsys, "repro", "--law", "wada", "--seed", "4",
                              "--n", "2", "--m", "1")
        dump = json.loads(stdout)
        inst = laws.sample_instance("wada", n=2, m=1, fieldname="complex",
                                    kappa_max=cli.DEFAULT_KAPPA, seed=4)
        assert dump["matrices"] == {"A0": matrix_to_dict(inst.As[0]),
                                    "B0": matrix_to_dict(inst.Bs[0])}

    @pytest.mark.parametrize("law", laws.law_names())
    def test_dump_holds_every_matrix_of_the_instance(self, capsys, law):
        # the links read nothing but the instance, so its dump must hold
        # each of its matrices (a congruence need not be Hermitian)
        code, stdout, _ = run(capsys, "repro", "--law", law, "--seed", "1",
                              "--n", "2", "--m", "3")
        assert code == 0
        inst = laws.sample_instance(law, n=2, m=3, fieldname="complex",
                                    kappa_max=cli.DEFAULT_KAPPA, seed=1)
        held = []

        def collect(x):
            if isinstance(x, tuple):
                for y in x:
                    collect(y)
            elif isinstance(x, HermitianMatrix):
                held.extend(x.array.reshape(-1, inst.n, inst.n))
            elif isinstance(x, np.ndarray) and x.ndim == 2:
                held.append(x)

        for f in dataclasses.fields(inst):
            collect(getattr(inst, f.name))
        dumped = [np.array([complex(re, im) for re, im in d["entries"]])
                  .reshape(d["n"], d["n"]).tobytes()
                  for d in json.loads(stdout)["matrices"].values()]
        assert sorted(dumped) == sorted(
            np.asarray(x, dtype=np.complex128).tobytes() for x in held)

    def test_unknown_law(self, capsys):
        code, _, err = run(capsys, "repro", "--law", "bogus", "--seed", "1")
        assert code == 2

    def test_dump_is_written_to_out(self, tmp_path, capsys):
        out = tmp_path / "dump.json"
        code, stdout, _ = run(capsys, "repro", "--law", "wada", "--seed", "4",
                              "--n", "2", "--m", "1", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text()) == json.loads(stdout)


@pytest.mark.parametrize("command", [
    ("verify", "--laws", "wada", "--trials", "1"),
    ("sweep", "--law", "tensor-g", "--grid", "0:1:0.5"),
    ("repro", "--law", "wada"),
])
@pytest.mark.parametrize("where", ["missing/x", ".", ""])
def test_unwritable_out_is_usage_error(tmp_path, capsys, monkeypatch, command,
                                       where):
    # a file in a directory that does not exist, a directory or an empty
    # path is refused before the run: an empty --out used to write nothing
    # and pass (sweep: a default file), and a directory was refused only
    # after every trial had run
    def started(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(laws, "sample_instance", started)
    out = str(tmp_path / where) if where else ""
    code, stdout, err = run(capsys, *command, "--seed", "1", "--n", "2",
                            "--out", out)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write --out {out}" if where
                          else "error: --out needs a file path")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ("verify", "--laws", "wada", "--trials", "1"),
    ("sweep", "--law", "tensor-g", "--grid", "0:1:0.5"),
    ("repro", "--law", "wada"),
])
@pytest.mark.parametrize("flag, value", [
    ("--n", "0"), ("--m", "0"), ("--m", "1001"), ("--kappa-max", "0.5"),
    ("--kappa-max", "nan"), ("--kappa-max", "inf"), ("--kappa-max", "1e12"),
    ("--kappa-max", "1e13"),
    ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1"),
])
def test_out_of_range_ensemble_is_usage_error(tmp_path, capsys, command,
                                              flag, value):
    code, _, err = run(capsys, *command, "--seed", "1", flag, value,
                       "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith("error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, env, named", [
    ({"laws": ["wada"]}, None, "'laws'"),
    ({"n": "3"}, None, "'n'"),
    ({"trials": True}, None, "'trials'"),
    ({"tol": "abc"}, None, "'tol'"),
    ({"seed": "x"}, None, "'seed'"),
    ({}, "zz", SEED_ENV_VAR),
])
def test_mistyped_setting_is_usage_error(tmp_path, capsys, monkeypatch,
                                         config, env, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"laws": "wada", "trials": 1, **config}))
    if env is None:
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(SEED_ENV_VAR, env)
    code, _, err = run(capsys, "verify", "--config", str(cfg),
                       "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith("error:") and named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, config, env", [
    ("-1", None, None), (str(2**63), None, None),
    (None, -1, None), (None, None, "-1"),
], ids=["flag=-1", "flag=2**63", "config=-1", "env=-1"])
def test_seed_outside_its_range_is_usage_error(tmp_path, capsys, monkeypatch,
                                               flag, config, env):
    # masked to 63 bits, -1 would run the trials of 2**63 - 1 and 2**63
    # those of 0, under a report that records the seed asked for
    argv = ["verify", "--laws", "wada", "--trials", "1"]
    if flag is not None:
        argv += ["--seed", flag]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": config}))
        argv += ["--config", str(cfg)]
    if env is None:
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(SEED_ENV_VAR, env)
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err.startswith("error: seed must be in [0, 2**63)")
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--law", "tensor-g", "--grid", "abc"],
     "bad grid 'abc', expected a:b:step"),
    (["verify", "--laws", "wada", "--config", "{missing}"],
     "cannot read config {missing}: [Errno 2] No such file or directory: "
     "'{missing}'"),
    (["repro", "--law", "geo-path-callebaut", "--boundary", "0.5"],
     "bad boundary '0.5', expected s,t"),
], ids=["grid", "config", "boundary"])
def test_unparsable_input_is_usage_error(tmp_path, capsys, argv, message):
    missing = str(tmp_path / "missing.json")
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *(x.format(missing=missing) for x in argv),
                            "--out", str(out))
    assert code == 2
    assert err == f"error: {message.format(missing=missing)}\n"
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("text, named", [
    ('"seed"', "str"),
    ('["wada"]', "list"),
    ('{"laws": "wada", "trials": 1, "trails": 5}', "'trails'"),
])
@pytest.mark.parametrize("command", [
    ("verify",),
    ("sweep", "--law", "tensor-g", "--grid", "0:1:0.5"),
    ("repro", "--law", "wada"),
])
def test_config_shape_is_usage_error(tmp_path, capsys, text, named, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, stdout, err = run(capsys, *command, "--config", str(cfg),
                            "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith("error:") and named in err
    assert stdout == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ("sweep", "--law", "tensor-g", "--grid", "0:1:0.5"),
    ("repro", "--law", "tensor-g"),
])
def test_config_key_the_command_does_not_read_is_usage_error(
        tmp_path, capsys, command):
    # only verify reads trials and laws; a run that dropped them would not
    # be the run the file asks for
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 5, "laws": "wada"}))
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *command, "--config", str(cfg),
                            "--out", str(out))
    assert code == 2
    assert err.startswith("error:") and "'laws'" in err and "'trials'" in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("command", [
    ("repro", "--law", "wada", "--m", "1"),
    ("sweep", "--law", "tensor-f", "--grid", "0:1:0.5"),
])
def test_n_above_the_law_cap_is_usage_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *command, "--n", "9", "--seed", "2",
                            "--out", str(out))
    assert code == 2
    assert err.startswith("error:") and "n=9" in err and "cap 3" in err
    assert stdout == "" and not out.exists()


def test_verify_lowers_fixed_n_to_the_law_cap(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--laws", "wada", "--n", "9",
                     "--trials", "2", "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["n"] == 9
    assert report["laws"]["wada"]["worst"]["n"] == 3


def test_config_drives_repro_as_the_flags_do(tmp_path, capsys):
    settings = {"seed": 5, "n": 2, "m": 3, "field": "real",
                "kappa_max": 50.0, "tol": 1e-7}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    flags = [f"--{key.replace('_', '-')}={value}"
             for key, value in settings.items()]
    code, from_flags, _ = run(capsys, "repro", "--law", "superadditivity",
                              *flags)
    assert code == 0
    code, from_config, _ = run(capsys, "repro", "--law", "superadditivity",
                               "--config", str(cfg))
    assert code == 0
    assert from_config == from_flags
    dump = json.loads(from_config)
    assert dump["seed"] == 5 and dump["summary"]["n"] == 2
    assert dump["summary"]["m"] == 3 and dump["summary"]["field"] == "real"


@pytest.mark.parametrize("law, boundary", [
    ("matrix-callebaut", "0.9,0.1"),
    ("path-monotonicity", "0.9,0.5"),
    ("geo-path-callebaut", "1.5,0.5"),
    ("path-axioms", "1.5,0.5"),
    ("interpolation-identity", "1.5,0.5"),
])
def test_boundary_outside_region_is_usage_error(capsys, law, boundary):
    code, stdout, err = run(capsys, "repro", "--law", law, "--seed", "1",
                            "--n", "2", "--m", "1", "--boundary", boundary)
    assert code == 2
    assert "region" in err and stdout == ""


@pytest.mark.parametrize("law, boundary", [
    ("hadamard-power", "0.1,0.5"),
    ("geo-path-callebaut", "0.5,0.9"),
    ("geo-path-callebaut", "0.25,0.25"),
    ("matrix-callebaut", "0.3,0.2"),
])
def test_unrecorded_boundary_is_usage_error(capsys, law, boundary):
    # in the region, but no trial of verify runs there, so no report
    # records it; the message lists the points that replay
    code, stdout, err = run(capsys, "repro", "--law", law, "--seed", "3",
                            "--n", "2", "--m", "1", "--boundary", boundary)
    assert code == 2
    assert err.startswith(f"error: {law}: ") and stdout == ""
    assert all(str(point) in err for point in laws.boundary_params(law))


@pytest.mark.parametrize("law, boundary, ignored", [
    ("interpolation-identity", "0.3,0.7", "t=0.7"),
])
def test_boundary_coordinate_the_law_ignores_is_usage_error(
        capsys, law, boundary, ignored):
    # a law without a region ignores both coordinates; the refusal names
    # the point it was given
    code, stdout, err = run(capsys, "repro", "--law", law, "--seed", "3",
                            "--n", "2", "--m", "1", "--boundary", boundary)
    assert code == 2
    assert err.startswith("error:") and law in err and ignored in err
    assert stdout == ""


REGION_LAWS = ["path-monotonicity", "geo-path-callebaut", "scalar-callebaut",
               "matrix-callebaut", "hadamard-callebaut", "hadamard-power"]


@pytest.mark.parametrize("law", REGION_LAWS)
def test_recorded_boundary_replays(tmp_path, capsys, law):
    # verify's first trials take the region's boundary points, so the
    # worst of three trials ran at one of them
    out = tmp_path / "report.json"
    run(capsys, "verify", "--laws", law, "--trials", "3", "--seed", "4",
        "--n", "2", "--m", "2", "--out", str(out))
    worst = json.loads(out.read_text())["laws"][law]["worst"]
    s, t = worst["boundary"]
    assert (s, t) in laws.boundary_params(law)
    code, stdout, _ = run(capsys, "repro", "--law", law,
                          "--seed", str(worst["seed"]),
                          "--n", str(worst["n"]), "--m", str(worst["m"]),
                          "--boundary", f"{s!r},{t!r}")
    assert code == 0
    dump = json.loads(stdout)
    assert dump["margin"] == worst["margin"]
    params = dump["summary"]["params"]
    assert (params.get("s", s), params.get("t", t)) == (s, t)


@pytest.mark.parametrize("law", [
    "mean-axioms", "superadditivity", "sharp-identity", "callebaut-operator",
    "power-lemma", "tensor-f", "tensor-g", "wada", "interpolation-identity",
    "path-axioms",
])
def test_boundary_for_law_that_reads_none_is_usage_error(capsys, law):
    code, stdout, err = run(capsys, "repro", "--law", law, "--seed", "5",
                            "--n", "2", "--boundary", "0.3,0.2")
    assert code == 2
    assert err.startswith(f"error: {law}: reads no boundary") and stdout == ""


def test_laws_that_read_a_boundary():
    # a law reads a boundary exactly when it has a region
    readers = {name for name in laws.law_names()
               if laws.boundary_params(name)}
    assert readers == set(REGION_LAWS)
    assert readers == {name for name in laws.law_names()
                       if laws.law_spec(name).region}


@pytest.mark.parametrize("sweep", sorted(laws.SWEEPS))
def test_sweep_boundary_is_usage_error(tmp_path, capsys, sweep):
    # no sweep curve depends on (s, t), so sweep has no --boundary flag
    out = tmp_path / "curve.csv"
    code, stdout, err = run(capsys, "sweep", "--law", sweep, "--n", "2",
                            "--grid", "0:1:0.5", "--boundary", "0.2,0.1",
                            "--out", str(out))
    assert code == 2
    assert "unrecognized arguments: --boundary 0.2,0.1" in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("command", [
    ("verify", "--laws", "tensor-f", "--trials", "12", "--seed", "12"),
    ("repro", "--law", "tensor-f", "--seed", "3200267337503137566",
     "--n", "2", "--m", "2"),
    ("sweep", "--law", "tensor-f", "--seed", "3200267337503137566",
     "--n", "2", "--m", "2", "--grid", "0:1:0.5"),
])
def test_linalg_error_in_trial_is_usage_error(tmp_path, capsys, command):
    # at kappa 1e7, A^2 in tensor-f's t = 1 link squares a condition number
    # near 1e7 past the 1e12 cap; the message names the trial to repro
    out = tmp_path / "out"
    code, _, err = run(capsys, *command, "--kappa-max", "1e7",
                       "--out", str(out))
    assert code == 2
    assert err.startswith("error: tensor-f: trial seed=3200267337503137566 "
                          "n=2 m=1 ")
    assert "NotPositiveDefiniteError" in err and not out.exists()


def test_failed_trial_replays_from_its_message(capsys):
    # every wada instance is m = 1, whatever m was asked for; the message
    # names the instance's n and m, so repro with them fails alike; at kappa
    # 1e9 the n = 3 trial fails in the linear algebra of its check
    code, _, err = run(capsys, "verify", "--laws", "wada", "--m", "3",
                       "--trials", "3", "--kappa-max", "1e9")
    assert code == 2
    trial = re.match(r"error: wada: trial seed=(\d+) n=(\d+) m=(\d+) ", err)
    seed, n, m = trial.groups()
    assert m == "1"
    code, _, replay = run(capsys, "repro", "--law", "wada", "--seed", seed,
                          "--n", n, "--m", m, "--kappa-max", "1e9")
    assert code == 2 and replay == err


def test_verify_trial_schedule(tmp_path, capsys):
    # trial k of the law_index-th law runs at child_seed(seed, law_index, k),
    # n = k % 6 + 1 capped at the law's n cap, m = k % 4 + 1, and the region
    # boundaries first; literal values, so that a shifted cycle, seed or
    # boundary order shows, which the seed-12 counts would not; after the
    # boundaries, the instance holds the point sample_instance drew
    seen = []

    def sample(espec):
        return [laws.LawInstance(seed=s, n=espec.n, m=espec.m,
                                 field=espec.field) for s in espec.seed]

    def check(insts, tol):
        seen.extend((inst.seed, inst.n, inst.m,
                     (inst.params["s"], inst.params["t"])) for inst in insts)
        return [(laws._scalar_ineq("probe", 0.0, 1.0),) for _ in insts]

    laws.register_law("probe", sample, check, n_cap=4, region="callebaut")
    try:
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--laws", "probe,wada",
                         "--trials", "8", "--seed", "12", "--out", str(out))
    finally:
        del laws._LAWS["probe"]
    assert code == 0
    assert seen == [
        (763546987343131973, 1, 1, (0.0, 0.0)),
        (3200267337503137566, 2, 2, (0.5, 0.5)),
        (6055626436053132691, 3, 3, (1.0, 1.0)),
        (8305987149760047309, 4, 4, (0.5, 0.0)),
        (7772940839882712708, 4, 1, (0.5, 1.0)),
        (6701149582313755611, 4, 2,
         (0.17203068354638495, 0.08375757789809934)),
        (5620459739527481985, 1, 3,
         (0.69294801797597, 0.9413244843806753)),
        (5829451973373108788, 2, 4,
         (0.8080109667218514, 0.8214434015045573)),
    ]
    worst = json.loads(out.read_text())["laws"]["wada"]["worst"]
    assert (worst["seed"], worst["n"], worst["m"], worst["boundary"]) == (
        1470897737928615841, 2, 1, None)


def test_parser_is_shared_by_successive_calls(tmp_path, capsys):
    # main builds its parser once per process; parsing must leave it as it
    # was, so a run of calls, a usage error among them, gives what each call
    # gives on a parser of its own
    out = str(tmp_path / "out")
    calls = [
        ("verify", "--laws", "wada,power-lemma", "--trials", "3", "--seed",
         "4", "--n", "2"),
        ("repro", "--law", "matrix-callebaut", "--seed", "2", "--n", "2"),
        ("verify", "--laws", "wada", "--no-such-flag"),
        ("repro", "--law", "wada", "--seed", "1", "--n", "2", "--m", "1",
         "--tol", "1e-3", "--out", out),
        ("sweep", "--law", "tensor-g", "--grid", "0:1:0.25", "--seed", "3",
         "--out", out),
        ("verify", "--laws", "hadamard-power", "--trials", "2", "--seed", "9"),
    ]

    def results(fresh):
        seen = []
        for argv in calls:
            if fresh:
                cli.build_parser.cache_clear()
            seen.append(run(capsys, *argv))
        return seen

    shared = results(fresh=False)
    assert cli.build_parser() is cli.build_parser()
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0]
    assert "unrecognized arguments: --no-such-flag" in shared[2][2]
    assert shared == results(fresh=True)


class TestFailurePath:
    def test_flipped_law_fails_and_reproduces(self, tmp_path, capsys):
        # register a deliberately reversed inequality to exercise exit code 1
        def check(insts, tol):
            from meanscope import means
            from meanscope.laws import _chain, pd_sum
            from meanscope.linalg import PerSlice, stack
            d = PerSlice(inst.sigma for inst in insts)
            As = stack([inst.As for inst in insts])
            Bs = stack([inst.Bs for inst in insts])
            lhs = pd_sum(means.mean(d, As, Bs))
            rhs = means.mean(d, pd_sum(As), pd_sum(Bs))
            return _chain(("flipped",), stack([rhs, lhs]), tol)

        laws.register_law("superadditivity-flipped",
                          laws.law_spec("superadditivity").sampler, check)
        try:
            out = tmp_path / "report.json"
            code, stdout, _ = run(capsys, "verify", "--laws",
                                  "superadditivity-flipped", "--trials", "6",
                                  "--seed", "2", "--n", "3", "--m", "3",
                                  "--out", str(out))
            assert code == 1
            assert "FAIL superadditivity-flipped" in stdout
            block = json.loads(out.read_text())["laws"]["superadditivity-flipped"]
            assert block["fails"] > 0
            worst = block["worst"]
            code, stdout, _ = run(capsys, "repro", "--law",
                                  "superadditivity-flipped",
                                  "--seed", str(worst["seed"]),
                                  "--n", str(worst["n"]),
                                  "--m", str(worst["m"]))
            assert code == 1
            dump = json.loads(stdout)
            assert dump["margin"] == worst["margin"]
        finally:
            del laws._LAWS["superadditivity-flipped"]


@pytest.mark.parametrize("argv, status", [
    (["verify", "--laws", "wada", "--trials", "2"], 0),
    (["verify", "--laws", "wada", "--trials", "6", "--tol", "0",
      "--seed", "1"], 1),
    (["repro", "--law", "wada", "--seed", "1"], 0),
    (["repro", "--law", "wada", "--seed", "7759231176004402327", "--n", "3",
      "--m", "1", "--tol", "0"], 1),
    (["sweep", "--law", "tensor-f", "--seed", "1"], 0),
], ids=["verify", "verify-fails", "repro", "repro-fails", "sweep"])
def test_a_closed_stdout_keeps_the_run_status(argv, status, tmp_path):
    # a reader that closes stdout at once (`| head`) leaves the run, its
    # --out file and its exit status as they are, with nothing on stderr
    out = tmp_path / "out"
    env = {**os.environ,
           "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "meanscope.cli", *argv,
                             "--out", str(out)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (status, b"")
    assert out.stat().st_size > 0
