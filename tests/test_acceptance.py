"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the criterion at its stated tolerance.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import json
import time

import numpy as np
import pytest

from meanscope import laws, means
from meanscope.cli import main
from meanscope.laws import check_law, child_seed, sample_instance
from meanscope.linalg import HermitianMatrix, PerSlice, stack


def report_line(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, detail


def run_trials(name, trials, seed_tag, n_max=6, m_max=4, mutate=None,
               tol=1e-8):
    """Round-robin (n, m) trial loop; returns the per-trial CheckResults."""
    results = []
    spec = laws.law_spec(name)
    boundaries = laws.boundary_params(name)
    for k in range(trials):
        seed = child_seed(seed_tag, 0, k)
        n = min((k % n_max) + 1, spec.n_cap)
        m = (k % m_max) + 1
        boundary = boundaries[k] if k < len(boundaries) else None
        inst = sample_instance(name, n=n, m=m, fieldname="complex",
                               kappa_max=1e4, seed=seed, boundary=boundary)
        if mutate is not None:
            mutate(inst, k)
        results.append(check_law(name, inst, tol=tol))
    return results


def failures(results):
    return [r for r in results if r.status == "fail"]


def test_criterion_01_eigensolver():
    rng = np.random.default_rng(20260826)
    started = time.perf_counter()
    worst = 0.0
    for k in range(100):
        n = (k % 16) + 1
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = HermitianMatrix((g + g.conj().T) / 2)
        d = h.decomposition()
        budget = 1e-12 * max(1.0, np.linalg.norm(h.array))
        recon = np.linalg.norm(
            (d.unitary * d.eigenvalues) @ d.unitary.conj().T - h.array)
        ortho = np.linalg.norm(d.unitary.conj().T @ d.unitary - np.eye(n))
        assert recon <= budget and ortho <= 1e-12, (n, recon, ortho)
        worst = max(worst, recon / budget)
    elapsed = time.perf_counter() - started
    report_line(1, elapsed < 5.0,
                f"100 eigendecompositions in {elapsed:.2f}s, "
                f"worst residual at {worst:.2e} of budget")


def test_criterion_02_sharp_identity():
    sigmas = [means.arithmetic(), means.harmonic(), means.power_mean(0.5),
              means.power_mean(-0.5), means.weighted_geometric(0.25)]

    def mutate(inst, k):
        inst.sigma = sigmas[k % len(sigmas)]

    results = run_trials("sharp-identity", 500, seed_tag=2, mutate=mutate)
    bad = failures(results)
    worst = max(-link.margin for r in results for link in r.links)
    report_line(2, not bad and worst <= 1e-9,
                f"500 trials, {len(bad)} failures, worst residual {worst:.2e}")


def test_criterion_03_operator_callebaut_chains():
    r1 = run_trials("callebaut-operator", 500, seed_tag=3)
    r2 = run_trials("geo-path-callebaut", 500, seed_tag=3)
    bad = failures(r1) + failures(r2)
    worst = min(r.margin for r in r1 + r2)
    report_line(3, not bad,
                f"500+500 trials, {len(bad)} failures, worst margin {worst:.2e}")


def test_criterion_04_path_monotonicity():
    def force_geodesic(inst, k):
        inst.params["r"] = 0.0

    results = run_trials("path-monotonicity", 500, seed_tag=4,
                         mutate=force_geodesic)
    bad = failures(results)

    # forced-equality boundaries: s = t, s = 1 - t, and s = t = 1/2
    boundary_ok = True
    for k, (s_of_t, t) in enumerate([("t", 0.2), ("1-t", 0.2), ("t", 0.5)]):
        inst = sample_instance("path-monotonicity", n=3, m=2,
                               fieldname="complex", kappa_max=1e4,
                               seed=child_seed(44, 0, k))
        s = t if s_of_t == "t" else 1.0 - t
        inst.params.update(s=s, t=t, r=0.0)
        res = check_law("path-monotonicity", inst)
        link = res.links[0]
        boundary_ok &= abs(link.margin) <= 1e-8 * max(1.0, link.verdict.scale)
    report_line(4, not bad and boundary_ok,
                f"500 trials, {len(bad)} failures, "
                f"boundary equalities {'tight' if boundary_ok else 'LOOSE'}")


def test_criterion_05_power_lemma():
    results = run_trials("power-lemma", 500, seed_tag=5)
    bad = failures(results)
    endpoint_ok = True
    for r in results:
        by_label = {link.label: link for link in r.links}
        scale = by_label["r=1"].verdict.scale
        endpoint_ok &= abs(by_label["r=1"].margin) <= 1e-9 * max(1.0, scale)
        endpoint_ok &= -by_label["r0-degenerate"].margin <= 1e-9
        endpoint_ok &= -by_label["r1-degenerate"].margin <= 1e-9
    report_line(5, not bad and endpoint_ok,
                f"500 trials over 11-point exponent grid, {len(bad)} failures, "
                f"endpoints {'degenerate as expected' if endpoint_ok else 'OFF'}")


def test_criterion_06_tensor_sweeps():
    r1 = run_trials("tensor-f", 100, seed_tag=6, n_max=3)
    r2 = run_trials("tensor-g", 100, seed_tag=6, n_max=3)
    bad = failures(r1) + failures(r2)
    # minimum confirmed by the link that leaves the pivot; each curve is
    # mirrored about its pivot, so no decreasing link is checked
    pivot_ok = True
    for results, pivot_link in ((r1, "increasing 0->0.125"),
                                (r2, "increasing 0.5->0.5625")):
        for r in results:
            held = {link.label for link in r.links if link.holds}
            pivot_ok &= pivot_link in held and not any(
                link.label.startswith("decreasing") for link in r.links)
    report_line(6, not bad and pivot_ok,
                f"100+100 sweep instances, {len(bad)} failures, "
                f"minima confirmed at the pivots")


def test_criterion_07_matrix_callebaut():
    results = run_trials("matrix-callebaut", 300, seed_tag=7, n_max=3)
    bad = failures(results)
    # degenerate collapse: A_j = B_j makes every chain member equal
    collapse_ok = True
    for k in range(20):
        inst = sample_instance("matrix-callebaut", n=3, m=2,
                               fieldname="complex", kappa_max=1e4,
                               seed=child_seed(77, 0, k))
        inst.Bs = inst.As
        res = check_law("matrix-callebaut", inst)
        for link in res.links:
            collapse_ok &= abs(link.margin) <= 1e-9 * max(1.0,
                                                          link.verdict.scale)
    report_line(7, not bad and collapse_ok,
                f"300 trials over both (s,t) regions, {len(bad)} failures, "
                f"equal-pair collapse verified")


def test_criterion_08_hadamard_corollaries():
    r1 = run_trials("hadamard-callebaut", 300, seed_tag=8, n_max=3)
    r2 = run_trials("hadamard-power", 300, seed_tag=8)
    bad = failures(r1) + failures(r2)
    sub = [link for r in r1 for link in r.links
           if link.label.startswith("submatrix")]
    worst_sub = max(-link.margin for link in sub)
    report_line(8, not bad and worst_sub <= 1e-13,
                f"300+300 trials, {len(bad)} failures, worst tensor-submatrix "
                f"residual {worst_sub:.2e}")


def test_criterion_09_wada():
    results = run_trials("wada", 300, seed_tag=9, n_max=3)
    bad = failures(results)
    report_line(9, not bad, f"300 trials, {len(bad)} failures")


def test_criterion_10_scalar_callebaut():
    results = run_trials("scalar-callebaut", 1000, seed_tag=10, m_max=8)
    bad = failures(results)
    # proportional sequences: every chain member coincides
    prop_ok = True
    rng = np.random.default_rng(1010)
    for _ in range(50):
        m = int(rng.integers(1, 9))
        a = np.exp(rng.uniform(-3, 3, size=m))
        b = float(rng.uniform(0.1, 10.0)) * a
        s, t = 0.35, 0.1
        vals = laws.scalar_callebaut_chain(a, b, s, t)
        prop_ok &= all(abs(v - vals[0]) <= 1e-12 * abs(vals[0])
                       for v in vals[1:])
    report_line(10, not bad and prop_ok,
                f"1000 sequences, {len(bad)} failures, proportional "
                f"sequences give flat chains")


def test_criterion_11_mean_axioms_suite():
    suite = ["mean-axioms", "superadditivity", "interpolation-identity",
             "path-axioms"]
    results = []
    for i, name in enumerate(suite):
        results += run_trials(name, 125, seed_tag=110 + i)
    bad = failures(results)
    report_line(11, not bad,
                f"500 trials across {len(suite)} axiom laws, "
                f"{len(bad)} failures")


def test_criterion_12_cli_contract(tmp_path, capsys):
    out = tmp_path / "default.json"
    code = main(["verify", "--seed", "12", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    default_report = json.loads(out.read_text())
    assert default_report["exit_status"] == 0
    # the invariant each change keeps: every law's (passes, fails, skips)
    # at seed 12; one path-monotonicity trial in 8 samples a power path,
    # which its hypothesis test skips
    expected = {name: (200, 0, 0) for name in laws.law_names()}
    expected["path-monotonicity"] = (172, 0, 28)
    assert {name: (r["passes"], r["fails"], r["skips"])
            for name, r in default_report["laws"].items()} == expected

    # an injected sign-flipped law must fail and reproduce from its seed
    def check(insts, tol):
        d = PerSlice(inst.sigma for inst in insts)
        As = stack([inst.As for inst in insts])
        Bs = stack([inst.Bs for inst in insts])
        lhs = laws.pd_sum(means.mean(d, As, Bs))
        rhs = means.mean(d, laws.pd_sum(As), laws.pd_sum(Bs))
        return laws._chain(("flipped",), stack([rhs, lhs]), tol)

    laws.register_law("flipped-superadditivity",
                      laws.law_spec("superadditivity").sampler, check)
    try:
        flip_out = tmp_path / "flipped.json"
        code = main(["verify", "--laws", "flipped-superadditivity",
                     "--trials", "10", "--seed", "12", "--n", "4", "--m", "3",
                     "--out", str(flip_out)])
        capsys.readouterr()
        assert code == 1
        worst = json.loads(flip_out.read_text())["laws"][
            "flipped-superadditivity"]["worst"]
        code = main(["repro", "--law", "flipped-superadditivity",
                     "--seed", str(worst["seed"]), "--n", str(worst["n"]),
                     "--m", str(worst["m"])])
        stdout = capsys.readouterr().out
        assert code == 1
        dump = json.loads(stdout)
        repro_ok = dump["margin"] == worst["margin"]
    finally:
        del laws._LAWS["flipped-superadditivity"]
    report_line(12, repro_ok,
                "default suite exits 0; flipped law exits 1 and its worst "
                "seed reproduces the margin")
