import numpy as np
import pytest

from meanscope import laws, linalg, means
from meanscope.laws import (
    InstanceError,
    callebaut_f,
    check_law,
    matrix_callebaut_members,
    sample_instance,
    scalar_callebaut_chain,
    sweep_law,
)
from meanscope.linalg import (HermitianMatrix, LoewnerVerdict, PDMatrix,
                              rel_residual)


def make_instance(name, seed, n=3, m=2, boundary=None):
    return sample_instance(name, n=n, m=m, fieldname="complex",
                           kappa_max=1e4, seed=seed, boundary=boundary)


@pytest.mark.parametrize("name", laws.law_names())
def test_every_law_passes_random_instances(name):
    for seed in range(5):
        inst = make_instance(name, seed)
        result = check_law(name, inst)
        assert result.status in ("pass", "skip"), (
            name, seed, [(l.label, l.margin) for l in result.links])


@pytest.mark.parametrize("name", laws.law_names())
def test_boundary_instances_pass(name):
    for boundary in laws.boundary_params(name):
        inst = make_instance(name, seed=1, boundary=boundary)
        result = check_law(name, inst)
        assert result.status in ("pass", "skip"), (name, boundary)


@pytest.mark.parametrize("name", laws.law_names())
def test_every_link_is_judged_by_the_one_pass_rule(name):
    # identity links too: the margin -residual at scale 0
    boundaries = [None, None, *laws.boundary_params(name)]
    for seed, boundary in enumerate(boundaries):
        inst = make_instance(name, seed, boundary=boundary)
        for tol in (laws.DEFAULT_TOL, 0.0):
            for link in check_law(name, inst, tol=tol).links:
                v = link.verdict
                assert link.margin == v.margin
                assert link.holds == LoewnerVerdict.judge(
                    v.margin, v.scale, v.tolerance).holds, (name, link)


def test_check_raising_skip_is_a_skip():
    def check(inst, tol):
        raise laws.Skip("hypothesis fails")

    laws.register_law("wada-skip", laws.law_spec("wada").sampler, check)
    try:
        result = check_law("wada-skip", make_instance("wada-skip", 0))
    finally:
        del laws._LAWS["wada-skip"]
    assert (result.status, result.skip_reason, result.links) == (
        "skip", "hypothesis fails", ())


def test_check_result_margin_is_min_link_margin():
    inst = make_instance("callebaut-operator", 3)
    result = check_law("callebaut-operator", inst)
    assert result.margin == min(l.margin for l in result.links)


def test_instance_law_mismatch():
    inst = make_instance("wada", 0)
    with pytest.raises(InstanceError):
        check_law("sharp-identity", inst)


def test_unknown_law():
    with pytest.raises(InstanceError):
        check_law("no-such-law", None)


def test_n_above_the_cap_is_refused():
    # sampling lowers no n: a wada instance at n = 9 is no request it meets
    with pytest.raises(InstanceError, match=r"^wada: n=9 .* cap 3$"):
        make_instance("wada", 0, n=9)
    assert make_instance("wada", 0, n=3).n == 3


@pytest.mark.parametrize("law, boundary", [
    ("matrix-callebaut", (0.9, 0.1)),
    ("path-monotonicity", (0.9, 0.5)),
    ("hadamard-power", (1.5, 1.5)),
])
def test_boundary_outside_the_region_is_refused(law, boundary):
    with pytest.raises(InstanceError, match=f"^{law}: .* region"):
        make_instance(law, 0, n=2, boundary=boundary)


@pytest.mark.parametrize("setting, named", [
    ({"n": 0}, "dimension"), ({"n": -2}, "dimension"),
    ({"m": 0}, "tuple length"), ({"m": 1001}, "tuple length"),
    ({"fieldname": "quaternion"}, "field"),
    ({"kappa_max": float("nan")}, "kappa_max"),
    ({"kappa_max": float("inf")}, "kappa_max"),
    ({"kappa_max": 0.5}, "kappa_max"),
], ids=["n=0", "n=-2", "m=0", "m=1001", "field", "kappa=nan", "kappa=inf",
        "kappa=0.5"])
def test_bad_ensemble_setting_is_refused(setting, named):
    request = dict(n=2, m=1, fieldname="complex", kappa_max=1e4, seed=1)
    with pytest.raises(InstanceError, match=f"^superadditivity: {named}"):
        sample_instance("superadditivity", **{**request, **setting})


def test_failed_linear_algebra_names_the_instance():
    # at kappa 1e7, A^2 in tensor-f's t = 1 link squares a condition number
    # near 1e7 past the 1e12 cap; the trial asked for m = 2, but every
    # tensor-f instance is m = 1, and that is the m which replays it
    inst = sample_instance("tensor-f", n=2, m=2, fieldname="complex",
                           kappa_max=1e7, seed=3200267337503137566)
    named = r"^tensor-f: trial seed=3200267337503137566 n=2 m=1 .*linear alg"
    with pytest.raises(InstanceError, match=named):
        check_law("tensor-f", inst)
    with pytest.raises(InstanceError, match=named):
        sweep_law("tensor-f", inst, [0.0, 0.5, 1.0])


def test_failed_sampling_names_the_request():
    # no instance exists yet, so the message names what was asked for
    with pytest.raises(InstanceError, match=r"^tensor-f: trial seed=1 n=3 "
                       r"m=4 failed in linear algebra: NotPositiveDefinite"):
        sample_instance("tensor-f", n=3, m=4, fieldname="complex",
                        kappa_max=1e15, seed=1)


def test_sigma_roster_keeps_its_strings():
    assert [means.format_descriptor(d) for d in laws._sigma_roster()] == [
        "arithmetic", "harmonic", "geometric", "power:0.5", "power:-0.5",
        "wgeo:0.25", "dual(power:0.5)"]


class TestSharpIdentity:
    def test_scalar_arithmetic_case(self):
        # arithmetic mean 2.5, harmonic 1.6; geometric mean of those is 2
        inst = make_instance("sharp-identity", 0, n=1)
        inst.As = [PDMatrix(HermitianMatrix([[1.0]]))]
        inst.Bs = [PDMatrix(HermitianMatrix([[4.0]]))]
        inst.sigma = means.arithmetic()
        result = check_law("sharp-identity", inst)
        assert result.holds
        a, b = inst.As[0], inst.Bs[0]
        left = means.geomean(means.mean(means.arithmetic(), a, b),
                             means.mean(means.harmonic(), a, b))
        assert left.array[0, 0].real == pytest.approx(np.sqrt(2.5 * 1.6))
        assert left.array[0, 0].real == pytest.approx(2.0)

    def test_nested_dual(self):
        inst = make_instance("sharp-identity", 4)
        inst.sigma = means.dual(means.power_mean(0.5))
        assert check_law("sharp-identity", inst).holds


class TestCallebautOperator:
    def test_collapses_for_single_sharp(self):
        inst = make_instance("callebaut-operator", 2, m=1)
        inst.sigma = means.geometric()
        result = check_law("callebaut-operator", inst)
        assert result.holds
        for link in result.links:
            assert abs(link.margin) <= 1e-9 * max(1.0, link.verdict.scale)


class TestScalarCallebaut:
    def test_spec_example_chain(self):
        v0, v1, v2, v3 = scalar_callebaut_chain([1, 2], [2, 1], 0.3, 0.1)
        assert v0 == pytest.approx(8.0)
        assert v3 == pytest.approx(9.0)
        assert v0 <= v1 <= v2 <= v3

    def test_proportional_sequences_are_flat(self):
        rng = np.random.default_rng(0)
        a = np.exp(rng.uniform(-2, 2, size=5))
        b = 3.7 * a
        vals = scalar_callebaut_chain(a, b, 0.3, 0.1)
        for v in vals[1:]:
            assert v == pytest.approx(vals[0], rel=1e-12)
        assert callebaut_f(a, b, 0.2, 0.6) == pytest.approx(
            callebaut_f(a, b, 0.9, 0.6), rel=1e-12)

    def test_monotone_in_spread(self):
        rng = np.random.default_rng(1)
        a = np.exp(rng.uniform(-2, 2, size=4))
        b = np.exp(rng.uniform(-2, 2, size=4))
        vals = [callebaut_f(a, b, r, 0.5) for r in np.linspace(0, 1, 11)]
        assert all(y >= x - 1e-12 for x, y in zip(vals, vals[1:]))

    def test_region_enforced(self):
        inst = make_instance("scalar-callebaut", 0)
        inst.params["s"] = 0.2
        inst.params["t"] = 0.4
        with pytest.raises(InstanceError):
            check_law("scalar-callebaut", inst)


class TestPowerLemma:
    def test_scalar_spec_example(self):
        # diag(4), r = 1/2: 2 + 0.5 = 2.5 <= 4.25
        inst = make_instance("power-lemma", 0, n=1)
        inst.As = [PDMatrix(HermitianMatrix([[4.0]]))]
        result = check_law("power-lemma", inst)
        assert result.holds
        link = next(l for l in result.links if l.label == "r=0.5")
        assert link.margin == pytest.approx(4.25 - 2.5)

    def test_degenerate_endpoints(self):
        inst = make_instance("power-lemma", 5, n=4)
        result = check_law("power-lemma", inst)
        by_label = {l.label: l for l in result.links}
        assert -by_label["r0-degenerate"].margin <= 1e-12
        assert -by_label["r1-degenerate"].margin <= 1e-12
        scale = by_label["r=1"].verdict.scale
        assert abs(by_label["r=1"].margin) <= 1e-9 * max(1.0, scale)


class TestMatrixCallebaut:
    def test_equal_pairs_collapse(self):
        inst = make_instance("matrix-callebaut", 6, n=2, m=2)
        inst.Bs = inst.As
        result = check_law("matrix-callebaut", inst)
        assert result.holds
        members = matrix_callebaut_members(inst.As, inst.Bs,
                                           inst.params["s"], inst.params["t"])
        for m_i in members[1:]:
            assert rel_residual(members[0], m_i) <= 1e-9

    def test_region_enforced(self):
        inst = make_instance("matrix-callebaut", 0, n=2)
        inst.params["s"] = 0.2
        inst.params["t"] = 0.45
        with pytest.raises(InstanceError):
            check_law("matrix-callebaut", inst)


class TestHadamardCallebaut:
    def test_submatrix_consistency_links_present(self):
        inst = make_instance("hadamard-callebaut", 7, n=2)
        result = check_law("hadamard-callebaut", inst)
        sub = [l for l in result.links if l.label.startswith("submatrix")]
        assert len(sub) == 4
        for link in sub:
            assert -link.margin <= 1e-13


    def test_shares_sums_with_tensor_chain(self, monkeypatch):
        inst = make_instance("hadamard-callebaut", 0, n=3, m=4)
        twin = make_instance("matrix-callebaut", 0, n=3, m=4)
        assert inst.params == twin.params
        calls, blocks = [], []
        eig, block = linalg.eig_hermitian, laws.kron_diagonal_block

        def counted_eig(*args, **kwargs):
            calls.append(args[0].n)
            return eig(*args, **kwargs)

        def recorded_block(tm, n):
            blocks.append(tm)
            return block(tm, n)

        monkeypatch.setattr(linalg, "eig_hermitian", counted_eig)
        monkeypatch.setattr(laws, "kron_diagonal_block", recorded_block)
        assert check_law("hadamard-callebaut", inst).holds
        hadamard_eigs = len(calls)
        calls.clear()
        assert check_law("matrix-callebaut", twin).holds
        assert hadamard_eigs <= len(calls)
        members = matrix_callebaut_members(inst.As, inst.Bs,
                                           inst.params["s"], inst.params["t"])
        # one submatrix call, on the stack of the tensor chain's members
        assert len(blocks) == 1
        assert np.array_equal(blocks[0].array, members.array)


class TestPathMonotonicity:
    def test_geometric_path_passes(self):
        inst = make_instance("path-monotonicity", 9)
        inst.params["r"] = 0.0
        result = check_law("path-monotonicity", inst)
        assert result.holds

    def test_power_path_skips(self):
        inst = make_instance("path-monotonicity", 9)
        inst.params["r"] = 0.7
        result = check_law("path-monotonicity", inst)
        assert result.status == "skip"
        assert "hypothesis" in result.skip_reason

    def test_guard_is_load_bearing(self):
        # negative control: on the power-path instances that the
        # dual-symmetry test skips, the unguarded link F(s) <= F(t) fails
        # on some (15 of these 40; 109 of 300 measured), so the skip does
        # not hide a law that would hold anyway
        checked = failed = 0
        seed = 0
        while checked < 40:
            inst = make_instance("path-monotonicity", seed, n=3, m=3)
            seed += 1
            if check_law("path-monotonicity", inst).status != "skip":
                continue
            checked += 1
            link = laws._path_monotonicity_link(
                inst, inst.params["s"], inst.params["t"], laws.DEFAULT_TOL)
            failed += not link.holds
        assert failed > 0

    def test_out_of_region_rejected(self):
        inst = make_instance("path-monotonicity", 9)
        inst.params.update(s=0.05, t=0.4, r=0.0)
        with pytest.raises(InstanceError):
            check_law("path-monotonicity", inst)


class TestSweeps:
    def test_tensor_g_scalar_trace(self):
        inst = make_instance("tensor-g", 0, n=1)
        inst.As = [PDMatrix(HermitianMatrix([[4.0]]))]
        inst.Bs = [PDMatrix(HermitianMatrix([[1.0]]))]
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        curve = sweep_law("tensor-g", inst, grid)
        traces = [p.trace for p in curve.points]
        expected = [4.0 ** t + 4.0 ** (1 - t) for t in grid]
        assert traces == pytest.approx(expected)
        assert traces[0] == pytest.approx(5.0)
        assert min(traces) == pytest.approx(4.0)
        assert curve.holds

    def test_tensor_f_constant_for_equal_scalars(self):
        inst = make_instance("tensor-f", 0, n=1)
        a = PDMatrix(HermitianMatrix([[3.0]]))
        inst.As = [a]
        inst.Bs = [a]
        curve = sweep_law("tensor-f", inst, list(np.linspace(-1, 1, 9)))
        for p in curve.points:
            assert p.trace == pytest.approx(2 * 9.0)
            if not np.isnan(p.link_margin):
                assert abs(p.link_margin) <= 1e-9

    def test_matrix_callebaut_middle_collapse_at_half(self):
        inst = make_instance("matrix-callebaut", 11, n=2, m=2)
        curve = sweep_law("matrix-callebaut-middle", inst, [0.4, 0.5, 0.6])
        members = matrix_callebaut_members(inst.As, inst.Bs, 0.5, 0.5)
        assert curve.points[1].trace == pytest.approx(members[0].trace())

    def test_scalar_callebaut_f_increasing(self):
        inst = make_instance("scalar-callebaut", 13, m=4)
        curve = sweep_law("scalar-callebaut-f", inst, list(np.linspace(0, 1, 9)))
        assert curve.holds

    def test_grid_validation(self):
        inst = make_instance("tensor-g", 0, n=1)
        with pytest.raises(InstanceError):
            sweep_law("tensor-g", inst, [0.5, 0.5])
        with pytest.raises(InstanceError):
            sweep_law("tensor-g", inst, [0.0, 2.0])
        with pytest.raises(InstanceError):
            sweep_law("sharp-identity", inst, [0.0, 1.0])

    @pytest.mark.parametrize("law, grid", [("tensor-g", []),
                                           ("tensor-g", [0.5]),
                                           ("tensor-f", [-0.2, 0.2])])
    def test_grid_without_a_link_is_refused(self, law, grid):
        inst = make_instance(law, 0, n=1)
        with pytest.raises(InstanceError, match=f"^sweep {law}: .*no link"):
            sweep_law(law, inst, grid)


def test_register_law_extends_catalog():
    spec = laws.law_spec("sharp-identity")
    laws.register_law("sharp-identity-copy", spec.sampler, spec.check)
    try:
        assert "sharp-identity-copy" in laws.law_names()
        inst = make_instance("sharp-identity-copy", 4)
        assert inst.law == "sharp-identity-copy"
        assert check_law("sharp-identity-copy", inst).holds
    finally:
        del laws._LAWS["sharp-identity-copy"]
