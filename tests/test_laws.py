import dataclasses
import itertools
import json
import re

import numpy as np
import pytest

from meanscope import cli, ensembles, laws, linalg, means
from meanscope.laws import (
    InstanceError,
    callebaut_f,
    check_law,
    matrix_callebaut_members,
    sample_instance,
    scalar_callebaut_chain,
    sweep_law,
)
from meanscope.ensembles import (REGION_STREAM, TUPLE_STRIDE, EnsembleSpec,
                                 random_pd, sample_region)
from meanscope.linalg import LoewnerVerdict, PDMatrix, rel_residual


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
    # a check gives each trial whose instance fails a hypothesis its Skip
    def check(insts, tol):
        return [laws.Skip("hypothesis fails") for _ in insts]

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
    ({"kappa_max": 0.5}, "kappa_max"), ({"kappa_max": 1e12}, "kappa_max"),
    ({"n": 2.5}, "dimension"), ({"n": None}, "dimension"),
    ({"n": True}, "dimension"), ({"n": "2"}, "dimension"),
    ({"m": 1.5}, "tuple length"), ({"m": False}, "tuple length"),
    # int(1.7) and int(True) are 1: either would run seed 1's trial
    ({"seed": 1.7}, "seed"), ({"seed": True}, "seed"),
], ids=["n=0", "n=-2", "m=0", "m=1001", "field", "kappa=nan", "kappa=inf",
        "kappa=0.5", "kappa=cap", "n=2.5", "n=None", "n=True", "n=str",
        "m=1.5", "m=False", "seed=1.7", "seed=True"])
def test_bad_ensemble_setting_is_refused(setting, named):
    request = dict(n=2, m=1, fieldname="complex", kappa_max=1e4, seed=1)
    with pytest.raises(InstanceError, match=f"^superadditivity: {named}"):
        sample_instance("superadditivity", **{**request, **setting})


@pytest.mark.parametrize("seed", [-1, 2**63, 2**64])
def test_seed_outside_its_range_is_refused(seed):
    # masked to 63 bits, -1 would draw the instance of 2**63 - 1; in a
    # chunk, the message names the seed refused
    for seeds in (seed, [4, seed, 6]):
        with pytest.raises(InstanceError, match=r"^superadditivity: seed must "
                           rf"be in \[0, 2\*\*63\), got {seed}$"):
            make_instance("superadditivity", seeds, n=2)
    assert make_instance("superadditivity", 2**63 - 1, n=2).seed == 2**63 - 1


@pytest.mark.parametrize("name", laws.law_names())
def test_instance_records_its_region_point(name):
    # sample_instance, not the sampler, owns the point (s, t): the one it
    # draws, or the recorded boundary it is given; a law without a region
    # gets neither coordinate
    region = laws.law_spec(name).region
    inst = make_instance(name, 4, n=2)
    if region is None:
        assert not {"s", "t"} & set(inst.params)
        return
    assert (inst.params["s"], inst.params["t"]) == sample_region(region, 4)
    for boundary in laws.boundary_params(name):
        inst = make_instance(name, 4, n=2, boundary=boundary)
        assert (inst.params["s"], inst.params["t"]) == boundary


@pytest.mark.parametrize("name", [name for name in laws.law_names()
                                  if laws.law_spec(name).region])
def test_check_refuses_a_point_outside_the_region(name):
    # (1.7, 0.5) lies outside every region; a check that read its point
    # unchecked would judge a chain the law does not state
    inst = make_instance(name, 3, n=2)
    inst.params.update(s=1.7, t=0.5)
    with pytest.raises(InstanceError, match="outside the .* region"):
        check_law(name, inst)


def test_numpy_integer_n_and_m_are_taken():
    inst = sample_instance("superadditivity", n=np.int64(2), m=np.int32(3),
                           fieldname="complex", kappa_max=1e4,
                           seed=np.uint64(1))
    assert (inst.n, inst.m, inst.seed) == (2, 3, 1)


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
    # no instance exists yet, so the message names what was asked for; a
    # kappa_max at which random_pd could fail is refused up front, so this
    # sampler fails on a matrix of its own.  A list of one seed names its
    # one trial, as the seed does
    def sample(especs):
        return [PDMatrix(np.diag([1.0, -1.0, 1.0]))]

    laws.register_law("failing-sampler", sample, laws.law_spec("wada").check)
    try:
        for seed in (1, [1]):
            with pytest.raises(InstanceError, match=r"^failing-sampler: trial "
                               r"seed=1 n=3 m=4 failed in linear algebra: "
                               r"NotPositiveDefinite"):
                sample_instance("failing-sampler", n=3, m=4,
                                fieldname="complex", kappa_max=1e4, seed=seed)
    finally:
        del laws._LAWS["failing-sampler"]


@pytest.mark.parametrize("law, request_", [
    ("geo-path-callebaut", lambda: make_instance("geo-path-callebaut", [])),
    ("geo-path-callebaut", lambda: make_instance(
        "geo-path-callebaut", [1, 2], boundary=(0.5, 0.5))),
    ("wada", lambda: make_instance("wada", [1, 2], boundary=(0.5, 0.5))),
    ("wada", lambda: laws.check_chunk("wada", [])),
], ids=["no-seed", "one-boundary-for-two-seeds", "no-region",
        "empty-chunk"])
def test_malformed_chunk_request_is_refused_by_name(law, request_):
    # a boundary is an (s, t) pair, one per seed of a chunk, and a chunk
    # holds an instance: a malformed request is no IndexError or TypeError
    with pytest.raises(InstanceError, match=f"^{law}: "):
        request_()


def refuse_validation(monkeypatch):
    """From now on, HermitianMatrix.__init__ raises: what runs after this
    may build matrices only from validated ones, through linalg._exact."""
    def refuse(self, entries):
        raise AssertionError("a computed matrix was validated again")

    monkeypatch.setattr(linalg.HermitianMatrix, "__init__", refuse)


@pytest.mark.parametrize("name", laws.law_names())
@pytest.mark.parametrize("n", [1, 2])
def test_checks_validate_no_computed_matrix(name, n, monkeypatch):
    # a chunk's draws are validated where they enter; nothing its check
    # computes from them goes through the validating constructor again
    boundary = (laws.boundary_params(name) or [None])[0]
    insts = make_instance(name, [4, 5, 6], n=n, m=2,
                          boundary=[boundary, None, None])
    refuse_validation(monkeypatch)
    results = laws.check_chunk(name, insts)
    assert [r.status in ("pass", "skip") for r in results] == [True] * 3


def same_bits(x, y):
    return all(u.tobytes() == v.tobytes() for u, v in (
        (x.array, y.array),
        (x.decomposition().eigenvalues, y.decomposition().eigenvalues),
        (x.decomposition().unitary, y.decomposition().unitary)))


@pytest.mark.parametrize("name", [x for x in laws.law_names()
                                  if x != "scalar-callebaut"])
@pytest.mark.parametrize("n", [1, 2])
def test_instances_hold_their_drawn_stacks(name, n):
    # As and Bs are the stacks the sampler drew; slice j has the bits of
    # the single draw of its index, the matrix the instance used to list
    inst = make_instance(name, seed=4, n=n, m=3)
    espec = EnsembleSpec(n=n, m=inst.m, kappa_max=1e4, seed=4)
    first = ((2, 3) if name == "mean-axioms" else
             (0, TUPLE_STRIDE) if inst.m > 1 else (0, 1))
    for mats, i in zip((inst.As, inst.Bs), first):
        if mats is None:        # power-lemma and hadamard-power draw no B
            continue
        assert isinstance(mats, PDMatrix) and mats.stack_shape == (inst.m,)
        for j, x in enumerate(mats):
            assert same_bits(x, random_pd(espec, i + j))
    if name == "mean-axioms":
        # its ordered pairs are the drawn stacks too: L_j <= U_j at index j
        for mats, drawn in zip(inst.ordered, ensembles.random_ordered_pair(
                espec, [0, 1]), strict=True):
            assert mats.stack_shape == (2,)
            assert all(same_bits(x, y) for x, y in zip(mats, drawn))


@pytest.mark.parametrize("name", laws.law_names())
def test_a_chunk_draws_from_one_ensemble_spec(name, monkeypatch):
    # the trials of a chunk differ only in seed: one spec, checked once,
    # holds all their seeds, and each instance gets its own
    built = []
    check = EnsembleSpec.__post_init__

    def counted(spec):
        built.append(spec.seed)
        check(spec)

    monkeypatch.setattr(EnsembleSpec, "__post_init__", counted)
    seeds = list(range(100, 140))
    insts = make_instance(name, seeds, n=2)
    assert built == [tuple(seeds)]
    assert [inst.seed for inst in insts] == seeds


def test_sigma_roster_keeps_its_strings():
    assert [means.format_descriptor(d) for d in laws.SIGMA_ROSTER] == [
        "arithmetic", "harmonic", "geometric", "power:0.5", "power:-0.5",
        "wgeo:0.25", "dual(power:0.5)"]


def links_by_label(name, seeds, n, m):
    """Each label's links over a chunk of the law's trials, in trial order."""
    results = laws.check_chunk(name, make_instance(name, seeds, n=n, m=m))
    by_label = {}
    for result in results:
        for link in result.links:
            by_label.setdefault(link.label, []).append(link)
    return by_label


# mean-axioms' normalization and hadamard-callebaut's
# submatrix-consistency-0 read margin 0.0 on working code, by construction;
# a corrupted kernel must move them past their 1e-13 tolerance while the
# law's other links still hold, or they could never fail
TWIN_SEEDS = list(range(4000, 4016))


class TestMeanAxioms:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_normalization_fails_on_a_scaled_representing_function(
            self, n, monkeypatch):
        links = links_by_label("mean-axioms", TWIN_SEEDS, n, 1)
        assert [l.margin for l in links["normalization"]] == [0.0] * 16
        representing_fn = means.representing_fn
        monkeypatch.setattr(means, "representing_fn", lambda d: (
            lambda x, f=representing_fn(d): f(x) * (1 + 1e-9)))
        links = links_by_label("mean-axioms", TWIN_SEEDS, n, 1)
        for link in links["normalization"]:
            assert not link.holds
            assert link.margin == pytest.approx(-1e-9, rel=1e-6)
        # both sides of the other two axioms scale alike
        assert all(l.holds for l in links["congruence-equivariance"])
        assert all(l.holds for l in links["joint-monotonicity"])


class TestSharpIdentity:
    def test_scalar_arithmetic_case(self):
        # arithmetic mean 2.5, harmonic 1.6; geometric mean of those is 2
        inst = make_instance("sharp-identity", 0, n=1)
        inst.As = PDMatrix([[[1.0]]])
        inst.Bs = PDMatrix([[[4.0]]])
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

    # the chain links each recorded boundary point collapses to equalities
    COLLAPSING = {(0.5, 0.5): ("geometric-vs-s", "s-vs-t"),
                  (0.5, 0.0): ("geometric-vs-s", "t-vs-cauchy-schwarz"),
                  (0.5, 1.0): ("geometric-vs-s", "t-vs-cauchy-schwarz"),
                  (1.0, 1.0): ("s-vs-t", "t-vs-cauchy-schwarz"),
                  (0.0, 0.0): ("s-vs-t", "t-vs-cauchy-schwarz")}

    @pytest.mark.parametrize("boundary", sorted(COLLAPSING))
    def test_boundary_links_collapse_exactly(self, boundary):
        # every member is one callebaut_f product, so a collapsing link
        # compares one value with itself: its margin is 0.0, not round-off
        assert sorted(self.COLLAPSING) == sorted(
            laws.boundary_params("scalar-callebaut"))
        for seed in range(12):
            inst = make_instance("scalar-callebaut", seed, n=1,
                                 m=seed % 4 + 1, boundary=boundary)
            margins = {link.label: link.margin
                       for link in check_law("scalar-callebaut", inst).links}
            for label in self.COLLAPSING[boundary]:
                assert margins[label] == 0.0, (seed, label, margins[label])

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
        inst.As = PDMatrix([[[4.0]]])
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

    def test_wrong_unit_power_fails_r1_degenerate(self, monkeypatch):
        # the bound A + A^-1 is formed from the drawn A, not from the power
        # A^1 whose sum it bounds, so a wrong A^1 is caught
        def perturbed(a, t):
            return linalg.power(a, [1.0 + 1e-6 if x == 1.0 else x for x in t])

        monkeypatch.setattr(laws, "power", perturbed)
        result = check_law("power-lemma", make_instance("power-lemma", 5))
        by_label = {l.label: l for l in result.links}
        assert not by_label["r1-degenerate"].holds
        assert by_label["r0-degenerate"].holds


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

    @pytest.mark.parametrize("n, m", [(2, 3), (3, 2)])
    def test_submatrix_consistency_fails_on_a_perturbed_block(
            self, n, m, monkeypatch):
        sub = [f"submatrix-consistency-{i}" for i in range(4)]
        links = links_by_label("hadamard-callebaut", TWIN_SEEDS, n, m)
        assert [l.margin for l in links[sub[0]]] == [0.0] * 16
        block = laws.kron_diagonal_block
        monkeypatch.setattr(laws, "kron_diagonal_block",
                            lambda tm, n: block(tm, n) * (1 + 1e-12))
        links = links_by_label("hadamard-callebaut", TWIN_SEEDS, n, m)
        for label in sub:
            assert not any(l.holds for l in links[label])
            assert max(l.margin for l in links[label]) < -laws.SUBMATRIX_TOL
        # the chain itself reads the Hadamard members only
        for label in laws._CHAIN_LABELS:
            assert all(l.holds for l in links[label])

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
        # one submatrix call, on the stack of the tensor chain's members,
        # the trial axis second
        assert len(blocks) == 1
        assert np.array_equal(blocks[0].array[:, 0], members.array)


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

    @pytest.mark.parametrize("r, kept", [
        (0.999 * means.R_GEOMETRIC_CUTOFF, True),
        (-0.999 * means.R_GEOMETRIC_CUTOFF, True),
        (means.R_GEOMETRIC_CUTOFF, False),
        (-means.R_GEOMETRIC_CUTOFF, False)])
    def test_hypothesis_holds_exactly_on_the_geodesic(self, r, kept):
        # below the cutoff the path is the geodesic, which is self-dual;
        # from the cutoff up dual(sigma_u) = sigma_{1-u} fails
        inst = make_instance("path-monotonicity", 9)
        inst.params["r"] = r
        result = check_law("path-monotonicity", inst)
        if kept:
            assert result.holds and len(result.links) == 1
        else:
            assert result.skip_reason == (f"dual-symmetry hypothesis fails "
                                          f"for r={r}")

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
            (link,), = laws._path_monotonicity_links([inst],
                                                     laws.DEFAULT_TOL)
            failed += not link.holds
        assert failed > 0

    def test_out_of_region_rejected(self):
        # the error names the law and the trial, or the chunk's trials
        inst = make_instance("path-monotonicity", 9)
        inst.params.update(s=0.05, t=0.4, r=0.0)
        with pytest.raises(InstanceError, match=(
                r"^path-monotonicity: trial seed=9 n=3 m=2: \(s=0.05, "
                r"t=0.4\) outside the between region$")):
            check_law("path-monotonicity", inst)
        other = make_instance("path-monotonicity", 10)
        with pytest.raises(InstanceError, match=(
                r"^path-monotonicity: trials seed=\[10, 9\] n=3 m=2: ")):
            laws.check_chunk("path-monotonicity", [other, inst])


def two_sided_grid(law):
    """The law's pivot -/+ k/8 of its half-domain, k = 0..8: a dyadic grid
    whose point i is the mirror image of point 16 - i."""
    sw = laws.SWEEPS[law]
    half = sw.domain[1] - sw.pivot
    return [sw.pivot + (k - 8) / 8 * half for k in range(17)]


class TestTensorLaws:
    # at mirrored points of a tensor curve its two tensor terms swap
    # places, and float addition commutes
    @pytest.mark.parametrize("law", ["tensor-f", "tensor-g"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_curve_is_mirrored_bit_for_bit(self, law, n, field):
        insts = sample_instance(law, n=n, m=1, fieldname=field,
                                kappa_max=1e4, seed=list(range(8)))
        values = laws.SWEEPS[law].evaluator(insts, two_sided_grid(law)).array
        assert values.shape[:2] == (17, 8)
        for i in range(17):
            for k in range(8):
                assert values[i, k].tobytes() == values[16 - i, k].tobytes(), (
                    i, k)

    @pytest.mark.parametrize("law", ["tensor-f", "tensor-g"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_check_links_from_the_pivot_up(self, law, n):
        grid = two_sided_grid(law)
        for seed in range(4):
            inst = make_instance(law, seed, n=n)
            links = check_law(law, inst).links
            assert [link.label for link in links] == [
                f"increasing {t0:g}->{t1:g}"
                for t0, t1 in zip(grid[8:], grid[9:])]
            # the check's link j joins points 8+j and 9+j; its mirror, the
            # sweep's decreasing link from point 7-j to 8-j, is recorded at
            # the point where it ends, 8-j
            points = sweep_law(law, inst, grid).points
            assert all(p.link_holds for p in points)
            mirrored = [points[8 - j].link_margin for j in range(8)]
            assert np.array([link.margin for link in links]).tobytes() == (
                np.array(mirrored).tobytes())

    def test_chunk_decomposes_no_member_when_every_link_holds(
            self, monkeypatch):
        # 6 trials, 8 links and 9 members each, at dimension n^2 = 9: a
        # link whose margin passes needs no norm, so eigh solves the 48
        # differences and none of the 54 members
        insts = make_instance("tensor-f", list(range(6)), n=3)
        eig, dims = linalg.eig_hermitian, []

        def counted(A):
            dims.extend([A.n] * int(np.prod(A.stack_shape)))
            return eig(A)

        monkeypatch.setattr(linalg, "eig_hermitian", counted)
        entries = laws.check_chunk("tensor-f", insts)
        assert all(result.holds for result in entries)
        assert dims.count(9) == 48


def vshape_reference(grid, values, pivot, tol):
    """Pair by pair, the link of the V rule about the pivot, from a
    loewner_leq on single slices: decreasing where the pair ends within
    1e-12 above the pivot, else increasing where it starts within 1e-12
    below it, else None; one list per trial."""
    out = []
    for k in range(values.stack_shape[1]):
        links = []
        for i, (t0, t1) in enumerate(zip(grid, grid[1:])):
            if t1 <= pivot + 1e-12:
                label, lo, hi = f"decreasing {t0:g}->{t1:g}", i + 1, i
            elif t0 >= pivot - 1e-12:
                label, lo, hi = f"increasing {t0:g}->{t1:g}", i, i + 1
            else:
                links.append(None)
                continue
            links.append(laws.Link(label, linalg.loewner_leq(
                values[lo, k], values[hi, k], tol)))
        out.append(links)
    return out


# grids on the pivot -/+ x times the half-domain: with the pivot as a point,
# straddling it, all left of it, all right of it, and within 1e-13 of it on
# both sides, where a pair that is both decreasing and increasing counts as
# decreasing
VSHAPE_GRIDS = {
    "pivot": [(k - 8) / 8 for k in range(17)],
    "straddling": [-0.875 + 0.25 * k for k in range(8)],
    "left": [-1.0, -0.7, -0.4, -0.1],
    "right": [0.05, 0.35, 0.65, 0.95],
    "precedence": [-1e-13, 1e-13],
}


@pytest.mark.parametrize("law", ["tensor-f", "tensor-g"])
@pytest.mark.parametrize("shape", sorted(VSHAPE_GRIDS))
def test_vshape_matches_the_rule_pair_by_pair(law, shape):
    sw = laws.SWEEPS[law]
    half = sw.domain[1] - sw.pivot
    grid = [sw.pivot + x * half for x in VSHAPE_GRIDS[shape]]
    insts = make_instance(law, [3, 4, 5], n=2)
    values = sw.evaluator(insts, grid)
    got = laws._vshape(grid, values, sw.pivot, 1e-8)
    want = vshape_reference(grid, values, sw.pivot, 1e-8)
    assert len(got) == len(want) == 3
    for links, ref in zip(got, want):
        assert [None if x is None else x.label for x in links] == [
            None if x is None else x.label for x in ref]
        assert [None if x is None else (x.margin, x.verdict.scale, x.holds)
                for x in links] == [
            None if x is None else (x.margin, x.verdict.scale, x.holds)
            for x in ref]
    nones = [i for i, x in enumerate(want[0]) if x is None]
    assert nones == ([3] if shape == "straddling" else [])
    if shape == "precedence":
        assert want[0][0].label.startswith("decreasing ")


@pytest.mark.parametrize("name", sorted(laws.SWEEPS))
def test_sweep_compares_views_of_its_curve(name, monkeypatch):
    # each side of the V is two slices of the curve's stack, not a copy
    sw = laws.SWEEPS[name]
    inst = make_instance(sw.instance_law, 2, n=2, m=3)
    leq, seen = laws.loewner_leq, []

    def viewing_leq(A, B, tol):
        seen.append((A.array.flags.owndata, B.array.flags.owndata))
        return leq(A, B, tol)

    monkeypatch.setattr(laws, "loewner_leq", viewing_leq)
    grid = list(np.linspace(*sw.domain, 17))
    assert sweep_law(name, inst, grid).holds
    assert seen and not any(a or b for a, b in seen), seen


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_library_entries_refuse_a_tolerance_that_is_not_finite(tol):
    # an infinite tol would pass every link, a NaN or negative one fail it
    inst = make_instance("wada", 1, n=2)
    with pytest.raises(InstanceError, match=r"^wada: tol must be finite and "
                       r">= 0, got "):
        check_law("wada", inst, tol=tol)
    with pytest.raises(InstanceError, match=r"^wada: tol must be finite and "
                       r">= 0, got "):
        laws.check_chunk("wada", [inst, make_instance("wada", 2, n=2)],
                         tol=tol)
    inst = make_instance("tensor-f", 1, n=2)
    with pytest.raises(InstanceError, match=r"^sweep tensor-f: tol must be "
                       r"finite and >= 0, got "):
        sweep_law("tensor-f", inst, [0.0, 0.5, 1.0], tol=tol)


class TestSweeps:
    def test_tensor_g_scalar_trace(self):
        inst = make_instance("tensor-g", 0, n=1)
        inst.As = PDMatrix([[[4.0]]])
        inst.Bs = PDMatrix([[[1.0]]])
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
        inst.As = inst.Bs = PDMatrix([[[3.0]]])
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

    def test_grid_past_the_domain_by_round_off_is_refused(self):
        # the domain check is exact: a point past it by any amount is no
        # point of the curve
        inst = make_instance("tensor-g", 0, n=1)
        with pytest.raises(InstanceError, match=r"^sweep tensor-g: grid "
                           r"\[0.0, 1.0000000000001\] outside domain"):
            sweep_law("tensor-g", inst, [0.0, 1.0 + 1e-13])
        with pytest.raises(InstanceError, match="outside domain"):
            sweep_law("tensor-g", inst, [-1e-13, 1.0])

    @pytest.mark.parametrize("grid, named", [
        ([np.nan], "outside domain"),
        ([0.0, np.nan, 1.0], "grid must be strictly increasing")])
    def test_nan_grid_point_is_refused(self, grid, named):
        # refused by the grid checks, not in the linear algebra
        inst = make_instance("tensor-g", 0, n=1)
        with pytest.raises(InstanceError, match=f"^sweep tensor-g: .*{named}"):
            sweep_law("tensor-g", inst, grid)

    def test_instance_of_another_law_is_refused(self):
        # a wada instance is a pair, as tensor-f's is: only its law tells
        # them apart
        inst = make_instance("wada", 0, n=2)
        with pytest.raises(InstanceError, match=r"^sweep tensor-f: instance "
                           r"was sampled for 'wada', not 'tensor-f'"):
            sweep_law("tensor-f", inst, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("name", sorted(laws.SWEEPS))
    def test_sweeps_validate_no_computed_matrix(self, name, monkeypatch):
        sw = laws.SWEEPS[name]
        inst = make_instance(sw.instance_law, 3, n=2, m=3)
        refuse_validation(monkeypatch)
        curve = sweep_law(name, inst, list(np.linspace(*sw.domain, 5)))
        assert curve.holds and len(curve.points) == 5

    @pytest.mark.parametrize("law, grid", [("tensor-g", []),
                                           ("tensor-g", [0.5]),
                                           ("tensor-f", [-0.2, 0.2])])
    def test_grid_without_a_link_is_refused(self, law, grid):
        inst = make_instance(law, 0, n=1)
        with pytest.raises(InstanceError, match=f"^sweep {law}: .*no link"):
            sweep_law(law, inst, grid)


def test_chain_links_neighbouring_members_and_refuses_a_label_count_off():
    # three members of one trial: two links, from views of the stack
    members = PDMatrix(np.arange(1.0, 4.0)[:, None, None, None]
                       * np.eye(2))
    links = laws._chain(("a", "b"), members, 1e-8)
    assert [[(x.label, x.margin) for x in t] for t in links] == [
        [("a", 1.0), ("b", 1.0)]]
    with pytest.raises(ValueError, match="^1 links for 3 members"):
        laws._chain(("a",), members, 1e-8)


@pytest.mark.parametrize("refused, message", [
    (lambda: sample_instance("wada", n=2, m=1, fieldname="complex",
                             kappa_max=1e4, seed=[1, 2], boundary=[None]),
     "wada: 1 boundaries for 2 seeds"),
    (lambda: laws.check_chunk("wada", [make_instance("wada", 1, n=2),
                                        make_instance("wada", 2, n=3)]),
     "wada: a chunk holds instances of one n, m and field"),
    (lambda: laws.check_chunk("probe", make_instance("probe", [1, 2], n=2)),
     "probe: check gave 1 results for 2 trials"),
], ids=["boundaries", "mixed-n", "short-check"])
def test_malformed_chunk_is_refused(refused, message, monkeypatch):
    # "probe" is wada with a check that returns one entry too few
    wada = laws.law_spec("wada")
    monkeypatch.setitem(laws._LAWS, "probe", dataclasses.replace(
        wada, check=lambda insts, tol: wada.check(insts, tol)[:-1]))
    with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
        refused()


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


@pytest.mark.parametrize("seed", [-1, 2**63, 2**63 + 5, 1.5, True, "3"])
def test_run_law_refuses_a_master_seed_outside_its_range(seed, monkeypatch):
    # refused before any trial is drawn, not in numpy's SeedSequence
    def draw(*args, **kwargs):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(laws, "sample_instance", draw)
    with pytest.raises(InstanceError, match=r"^wada: master seed must be an "
                       r"integer in \[0, 2\*\*63\)"):
        laws.run_law("wada", 0, seed, 1, None, None, "complex", 1e4, 1e-8)


@pytest.mark.parametrize("trials", [0, -2, True, 2.0, "3"])
def test_run_law_refuses_a_bad_trial_count(trials, monkeypatch):
    # 0 would report a law that checked nothing, True run one trial and
    # 2.0 raise a TypeError
    def draw(*args, **kwargs):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(laws, "sample_instance", draw)
    with pytest.raises(InstanceError, match=r"^wada: trials must be an "
                       r"integer >= 1, got "):
        laws.run_law("wada", 0, 1, trials, None, None, "complex", 1e4, 1e-8)


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_run_law_refuses_a_tolerance_that_is_not_finite_and_nonnegative(
        tol, monkeypatch):
    # every margin comparison with a NaN tolerance is false: wada would
    # report its trials as fails
    def draw(*args, **kwargs):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(laws, "sample_instance", draw)
    with pytest.raises(InstanceError, match=r"^wada: tol must be finite and "
                       r">= 0, got "):
        laws.run_law("wada", 0, 1, 2, None, None, "complex", 1e4, tol)


def recorded_run(monkeypatch, name, law_index, trials, n, m, field):
    """run_law's report entry, the seeds of each sample_instance call it
    made, and the (instance, result) pairs of each check_chunk call, in
    order; check_law checks its one instance by check_chunk too."""
    draws, checks = [], []
    sample, check = laws.sample_instance, laws.check_chunk

    def recording_sample(*args, **kwargs):
        seed = kwargs["seed"]
        draws.append(list(seed) if isinstance(seed, list) else [seed])
        return sample(*args, **kwargs)

    def recording_check(law, insts, tol):
        results = check(law, insts, tol=tol)
        checks.append(list(zip(insts, results, strict=True)))
        return results

    with monkeypatch.context() as patch:
        patch.setattr(laws, "sample_instance", recording_sample)
        patch.setattr(laws, "check_chunk", recording_check)
        entry = laws.run_law(name, law_index, 7, trials, n, m, field, 1e4,
                             laws.DEFAULT_TOL)
    return entry, draws, checks


# the laws whose sampler draws one pair at m = 1 whatever m is asked: they
# read n alone, so their chunks span the m cycle
ONE_PAIR_LAWS = ("mean-axioms", "sharp-identity", "power-lemma", "tensor-f",
                 "tensor-g", "interpolation-identity", "path-axioms", "wada")


def outcome(result):
    """A trial's status, skip reason and links, every margin and scale to
    the last bit."""
    return (result.status, result.skip_reason,
            [(link.label, link.holds, link.margin.hex(),
              link.verdict.scale.hex()) for link in result.links])


@pytest.mark.parametrize("name", laws.law_names())
@pytest.mark.parametrize("trials, n, m, field, sizes", [
    (14, None, None, "complex", None),
    (70, 2, 3, "complex", [laws.GROUP_TRIALS, 70 - laws.GROUP_TRIALS]),
    (40, 1, None, "complex", [10, 10, 10, 10]),
    (6, 3, 4, "complex", [6]),
    (14, 2, None, "real", [4, 4, 3, 3]),
], ids=["cycle", "fixed", "small", "tensor", "real"])
def test_run_law_trials_replay_alone(name, trials, n, m, field, sizes,
                                     monkeypatch):
    # run_law draws each (n, m) group's trials together, 64 to a chunk at
    # most, and checks each chunk with one check_chunk call; every trial it
    # checks is the one sample_instance gives alone, at its own seed, with
    # the status, skip reason and links check_law gives it alone, to the
    # last bit.  "small" is n = 1 over the m cycle, chunks of 10; "tensor"
    # is one chunk of 6 at n = 3, m = 4.  A one-pair law reads no m: its
    # "small" and "real" trials are one chunk
    if name in ONE_PAIR_LAWS and m is None and sizes is not None:
        sizes = [trials]
    law_index = laws.law_names().index(name)
    entry, draws, checks = recorded_run(monkeypatch, name, law_index,
                                        trials, n, m, field)
    seeds = [laws.child_seed(7, law_index, k) for k in range(trials)]
    # one check call per chunk, on the trials of its draw, in their order
    assert [[inst.seed for inst, _ in chunk] for chunk in checks] == draws
    assert sorted(s for drawn in draws for s in drawn) == sorted(seeds)
    if sizes is not None:
        assert [len(d) for d in draws] == sizes
    else:                   # trials k and k + 12 request the same (n, m)
        assert max(len(d) for d in draws) >= 2
    checked = sorted((pair for chunk in checks for pair in chunk),
                     key=lambda pair: seeds.index(pair[0].seed))
    assert [inst.seed for inst, _ in checked] == seeds
    boundaries = laws.boundary_params(name)
    for k, (inst, result) in enumerate(checked):
        alone = sample_instance(
            name, n=inst.n, m=inst.m, fieldname=field, kappa_max=1e4,
            seed=inst.seed, boundary=boundaries[k] if k < len(boundaries)
            else None)
        assert outcome(check_law(name, alone)) == outcome(result), (k, name)
        assert inst.params == alone.params
    assert entry["passes"] + entry["fails"] + entry["skips"] == trials
    if name == "path-monotonicity" and n == 2:
        # a chunk holds skipped power-path trials among checked ones
        assert any(len({result.status for _, result in chunk}) == 2
                   for chunk in checks)


@pytest.mark.parametrize("name", laws.law_names())
def test_a_coordinate_a_law_does_not_read_leaves_its_instance(name):
    # run_law chunks trials on the coordinates a law reads, so a coordinate
    # it does not read must not move one bit of its instance or its check
    spec = laws.law_spec(name)
    boundary = (laws.boundary_params(name) or [None])[0]
    unread = [c for c in "nm" if c not in spec.reads]
    for other in unread:
        draws = [sample_instance(name, fieldname="complex", kappa_max=1e4,
                                 seed=31, boundary=boundary,
                                 **{"n": 2, "m": 2, other: value})
                 for value in (1, 3)]
        a, b = draws
        assert (a.n, a.m, a.params) == (b.n, b.m, b.params)
        for key in ("As", "Bs", "congruence", "a_seq", "b_seq"):
            x, y = getattr(a, key), getattr(b, key)
            assert (x is None) == (y is None)
            assert x is None or (np.asarray(getattr(x, "array", x)).tobytes()
                                 == np.asarray(getattr(y, "array", y)).tobytes())
        assert outcome(check_law(name, a)) == outcome(check_law(name, b))
    assert unread == (["m"] if name in ONE_PAIR_LAWS else
                      ["n"] if name == "scalar-callebaut" else [])


@pytest.mark.parametrize("name", [*ONE_PAIR_LAWS, "scalar-callebaut"])
def test_chunks_span_a_coordinate_the_law_does_not_read(name, monkeypatch):
    # a one-pair law reads no m, scalar-callebaut no n: over a cycle of the
    # unread coordinate its trials are one chunk per value of the other,
    # and every result is the one a fixed request gives, to the last bit
    law_index = laws.law_names().index(name)
    cycle, fixed = ({"n": 2, "m": None}, {"n": 2, "m": 1})
    if name == "scalar-callebaut":
        cycle, fixed = ({"n": None, "m": 3}, {"n": 1, "m": 3})
    runs = [recorded_run(monkeypatch, name, law_index, 24,
                         request["n"], request["m"], "complex")
            for request in (cycle, fixed)]
    (entry, draws, checks), (fixed_entry, fixed_draws, fixed_checks) = runs
    assert [len(d) for d in draws] == [len(d) for d in fixed_draws] == [24]
    assert ([(inst.seed, inst.n, inst.m, outcome(result))
             for chunk in checks for inst, result in chunk]
            == [(inst.seed, inst.n, inst.m, outcome(result))
                for chunk in fixed_checks for inst, result in chunk])
    del entry["wall_sec"], fixed_entry["wall_sec"]
    assert entry == fixed_entry


def test_verify_at_seed_12_runs_125_chunks(monkeypatch):
    # verify's default run: 200 trials of each law on the n and m cycles,
    # chunked on the coordinates each law reads: a one-pair law one chunk
    # per n (three at n = 3 for the n-cap-3 laws, 133 trials there),
    # scalar-callebaut one per m
    counted = {}
    chunks = laws._chunks

    class Counted(Exception):
        pass

    def count(keys):
        counted[name] = len(chunks(keys))
        raise Counted       # before any trial is drawn

    monkeypatch.setattr(laws, "_chunks", count)
    for law_index, name in enumerate(laws.law_names()):
        with pytest.raises(Counted):
            laws.run_law(name, law_index, 12, 200, None, None, "complex",
                         1e4, laws.DEFAULT_TOL)
    assert sum(counted.values()) == 125
    assert counted["scalar-callebaut"] == 4
    for name in ONE_PAIR_LAWS:
        assert counted[name] == (5 if laws.law_spec(name).n_cap == 3 else 6)


def probe_law(monkeypatch, bad_draws, bad_checks):
    """Register "probe", wada with a sampler that fails on the seeds of
    ``bad_draws`` and a check that fails on a chunk that holds one of
    ``bad_checks``; the lists of the seeds of each draw call and of each
    check call, in order."""
    wada = laws.law_spec("wada")
    drawn, checked = [], []

    def sample(espec):
        drawn.append(list(espec.seed))
        if bad_draws & set(espec.seed):
            PDMatrix(np.diag([1.0, -1.0]))
        return wada.sampler(espec)

    def check(insts, tol):
        seeds = [inst.seed for inst in insts]
        checked.append(seeds)
        if bad_checks & set(seeds):
            raise linalg.NotPositiveDefiniteError("probe check")
        return wada.check(insts, tol)

    monkeypatch.setitem(laws._LAWS, "probe", laws.LawSpec(sample, check,
                                                          n_cap=3))
    return drawn, checked


@pytest.mark.parametrize("bad_draws, bad_checks", [
    ({3, 7}, set()), ({7}, {3}), ({3}, {7}), ({0, 1}, set()),
    (set(), {3, 7})])
def test_failing_chunk_names_the_first_failing_trial(bad_draws, bad_checks,
                                                     monkeypatch):
    # trial k's seed; every trial requests (2, 1), so one chunk holds all ten
    seeds = [laws.child_seed(5, 0, k) for k in range(10)]
    bad_draws = {seeds[k] for k in bad_draws}
    bad_checks = {seeds[k] for k in bad_checks}

    def failure(group_trials):
        drawn, checked = probe_law(monkeypatch, bad_draws, bad_checks)
        monkeypatch.setattr(laws, "GROUP_TRIALS", group_trials)
        with pytest.raises(InstanceError) as exc:
            laws.run_law("probe", 0, 5, 10, 2, 1, "complex", 1e4, 1e-8)
        return str(exc.value), drawn, checked

    chunked, alone = failure(64), failure(1)   # a chunk of one is a trial
    assert chunked[0] == alone[0]
    first = min(k for k, s in enumerate(seeds) if s in bad_draws | bad_checks)
    assert chunked[0].startswith(f"probe: trial seed={seeds[first]} n=2 m=1 "
                                 f"failed in linear algebra")
    # the failed chunk was drawn whole once, and checked whole once if its
    # draw held; then its trials are drawn one at a time up to the first
    # failing one, and checked one at a time up to the first that fails in
    # its check
    drawn_singles = [[s] for s in seeds[:first + 1]]
    singles = [[s] for s in seeds[:first + (seeds[first] in bad_checks)]]
    assert alone[1:] == (drawn_singles, singles)
    assert chunked[1] == [seeds] + drawn_singles
    assert chunked[2] == ([] if bad_draws else [seeds]) + singles


def opened_streams(monkeypatch, draw):
    """The keys (seed, *index) of every stream that draw() opens."""
    opened = set()
    one, many = ensembles.seeded_rng, ensembles.seeded_rngs

    def seeded_rng(seed, *index):
        opened.add((int(seed), *map(int, index)))
        return one(seed, *index)

    def seeded_rngs(seeds, *index):
        opened.update(itertools.product(
            *(np.ravel(axis).tolist() for axis in (seeds, *index))))
        return many(seeds, *index)

    with monkeypatch.context() as patch:
        for owner in (ensembles, laws):
            patch.setattr(owner, "seeded_rng", seeded_rng)
        patch.setattr(ensembles, "seeded_rngs", seeded_rngs)
        draw()
    return opened


@pytest.mark.parametrize("name", laws.law_names())
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_a_law_lists_the_streams_its_trials_draw(name, m, monkeypatch):
    # run_law opens ahead the streams a law lists (register_law's streams)
    # with the region's, and a stream it misses is opened alone: so a stale
    # list costs speed, never bits.  The list of a chunk that holds a
    # boundary trial and a drawn one is every stream its draw opens
    spec = laws.law_spec(name)
    seeds = [laws.child_seed(3, 0, k) for k in range(2)]
    bounds = [(laws.boundary_params(name) or [None])[0], None]
    windows = laws._stream_windows(spec, [[0, 1]], seeds, [(2, m)] * 2,
                                   bounds)
    opened = opened_streams(monkeypatch, lambda: sample_instance(
        name, n=2, m=m, fieldname="complex", kappa_max=1e4, seed=seeds,
        boundary=bounds))
    assert list(windows) == [0]
    assert sorted(windows[0]) == sorted(opened)
    assert ((seeds[1], REGION_STREAM) in opened) == bool(spec.region)
    assert (seeds[0], REGION_STREAM) not in opened


def counted_seeding(monkeypatch):
    """Count the SeedSequences built and the seed_states passes made."""
    counts = {"seed sequences": 0, "passes": 0}
    states = ensembles.seed_states

    class Counted(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            counts["seed sequences"] += 1
            super().__init__(*args, **kwargs)

    def seed_states(keys):
        counts["passes"] += 1
        return states(keys)

    monkeypatch.setattr(np.random, "SeedSequence", Counted)
    for owner in (ensembles, laws):
        monkeypatch.setattr(owner, "seed_states", seed_states)
    return counts


def per_key_entry(monkeypatch, *args):
    """run_law's entry with the run's stream set left empty, so that every
    stream is opened as outside a run; wall time dropped."""
    with monkeypatch.context() as patch:
        patch.setattr(laws, "open_streams", lambda keys=(): None)
        entry = laws.run_law(*args)
    del entry["wall_sec"]
    return entry


@pytest.mark.parametrize("name", laws.law_names())
def test_a_run_opens_its_streams_in_one_pass(name, monkeypatch):
    # at n = 1, 40 trials: child_seeds' pass and one window's pass, and no
    # stream opened alone, with the bits of every stream opened alone
    args = (name, 5, 30001, 40, 1, None, "complex", 1e4, laws.DEFAULT_TOL)
    want = per_key_entry(monkeypatch, *args)
    counts = counted_seeding(monkeypatch)
    entry = laws.run_law(*args)
    assert counts == {"seed sequences": 0, "passes": 2}
    assert not ensembles._RUN_STATES
    del entry["wall_sec"]
    assert repr(entry) == repr(want)


def test_a_long_run_opens_its_streams_window_by_window(monkeypatch):
    # 1000 trials of ten streams each (two 4-tuples, the law's and the
    # region's, which the 3 boundary trials do not draw) are 16 chunks, of
    # about 640 streams but the last: six fit in a window of
    # WINDOW_STREAMS, so three windows take a pass each after child_seeds',
    # with the same bits
    args = ("path-monotonicity", 2, 8, 1000, 1, 4, "complex", 1e4,
            laws.DEFAULT_TOL)
    want = per_key_entry(monkeypatch, *args)
    counts = counted_seeding(monkeypatch)
    entry = laws.run_law(*args)
    assert counts == {"seed sequences": 0, "passes": 4}
    del entry["wall_sec"]
    assert repr(entry) == repr(want)


def test_a_stale_stream_list_costs_no_bits(monkeypatch):
    # a listed stream that no trial draws is never read, and one it draws
    # but the list misses is opened alone
    args = ("wada", 0, 5, 12, None, None, "complex", 1e4, laws.DEFAULT_TOL)
    want = per_key_entry(monkeypatch, *args)
    stale = dataclasses.replace(laws.law_spec("wada"), streams=lambda m: [
        (0, 0), (0, 7), (laws.LAW_STREAM, 9)])
    monkeypatch.setitem(laws._LAWS, "wada", stale)
    counts = counted_seeding(monkeypatch)
    entry = laws.run_law(*args)
    del entry["wall_sec"]
    assert repr(entry) == repr(want) and counts["seed sequences"] > 0


def test_a_run_that_raises_empties_its_stream_set(monkeypatch):
    held = []

    def check(name, insts, tol):
        held.append(len(ensembles._RUN_STATES))
        raise ZeroDivisionError

    monkeypatch.setattr(laws, "check_chunk", check)
    with pytest.raises(ZeroDivisionError):
        laws.run_law("wada", 0, 5, 4, 2, 1, "complex", 1e4, 1e-8)
    assert held == [4 * 3] and not ensembles._RUN_STATES


def certificate_off(patch):
    """From now on PDMatrix proves no matrix by Cholesky: every check
    decomposes it, as before the certificate."""
    patch.setattr(linalg, "_certified", lambda a: False)


def curve_bits(curve):
    return [(p.t, p.trace.hex(), p.lambda_min.hex(), p.lambda_max.hex(),
             p.link_margin.hex(), p.link_holds) for p in curve.points]


@pytest.mark.parametrize("name", laws.law_names())
@pytest.mark.parametrize("n, m", [(2, 1), (2, 3), (3, 1), (3, 3)])
def test_certificate_costs_no_bits(name, n, m, monkeypatch):
    # a chunk sampled and checked with and without the certificate: each
    # spectrum is the same eigh of the same matrix, taken later or sooner
    def checked():
        boundary = (laws.boundary_params(name) or [None])[0]
        insts = make_instance(name, [7, 8], n=n, m=m,
                              boundary=[boundary, None])
        return [outcome(r) for r in laws.check_chunk(name, insts)]

    want = checked()
    certificate_off(monkeypatch)
    assert checked() == want


@pytest.mark.parametrize("name", sorted(laws.SWEEPS))
def test_certificate_costs_no_sweep_bits(name, monkeypatch):
    sw = laws.SWEEPS[name]
    grid = list(np.linspace(*sw.domain, 9))

    def swept():
        return curve_bits(sweep_law(name, make_instance(sw.instance_law, 3,
                                                        n=2, m=3), grid))

    want = swept()
    certificate_off(monkeypatch)
    assert swept() == want


def test_verify_decomposes_two_fifths_fewer_matrices(tmp_path, monkeypatch):
    # a guard on the matrices eigh solves (n >= 2) in a small verify run:
    # 862 with the certificate, 1431 without, and the same report
    def run(out):
        solved = []
        eig = linalg.eig_hermitian

        def counted(A):
            if A.n > 1:
                solved.append(int(np.prod(A.stack_shape)))
            return eig(A)

        with monkeypatch.context() as patch:
            patch.setattr(linalg, "eig_hermitian", counted)
            assert cli.main(["verify", "--seed", "12", "--trials", "6",
                             "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        del report["wall_clock_sec"]
        for entry in report["laws"].values():
            del entry["wall_sec"]
        return sum(solved), report

    solved, report = run(tmp_path / "on.json")
    with monkeypatch.context() as patch:
        certificate_off(patch)
        solved_off, report_off = run(tmp_path / "off.json")
    assert report == report_off
    assert 0 < solved <= 862, solved
    assert solved <= 0.7 * solved_off, (solved, solved_off)
