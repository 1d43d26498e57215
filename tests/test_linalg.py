import json

import numpy as np
import pytest

import oracle
from meanscope import linalg
from meanscope.linalg import (
    CONDITION_CAP,
    ConvergenceError,
    DimensionError,
    FunctionDomainError,
    HermitianError,
    HermitianMatrix,
    LoewnerVerdict,
    NotPositiveDefiniteError,
    PDMatrix,
    TensorSizeError,
    apply_function,
    congruence,
    eig_hermitian,
    hadamard,
    kron,
    kron_diagonal_block,
    loewner_leq,
    matrix_to_dict,
    power,
    rel_residual,
    stack,
)
from meanscope import means


def random_hermitian(rng, n, complex_field=True):
    g = rng.standard_normal((n, n))
    if complex_field:
        g = g + 1j * rng.standard_normal((n, n))
    return HermitianMatrix((g + g.conj().T) / 2)


def random_pd_raw(rng, n, spread=2.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    lam = np.exp(rng.uniform(-np.log(spread), np.log(spread), size=n))
    return PDMatrix(HermitianMatrix((q * lam) @ q.conj().T))


def count_eigs(monkeypatch):
    """Record the dimension of every eigendecomposition from now on."""
    calls = []
    eig = linalg.eig_hermitian

    def counted(*args, **kwargs):
        calls.append(args[0].n)
        return eig(*args, **kwargs)

    monkeypatch.setattr(linalg, "eig_hermitian", counted)
    return calls


class TestHermitianMatrix:
    def test_symmetrizes_exactly(self):
        h = HermitianMatrix([[1.0, 2.0 + 1e-15j], [2.0 - 1e-15j, 3.0]])
        assert np.array_equal(h.array, h.array.conj().T)

    def test_rejects_asymmetric(self):
        with pytest.raises(HermitianError):
            HermitianMatrix([[1.0, 2.0], [3.0, 4.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            HermitianMatrix([[1.0, 2.0]])

    def test_rejects_nan(self):
        with pytest.raises(HermitianError):
            HermitianMatrix([[float("nan")]])

    def test_immutable(self):
        h = HermitianMatrix.identity(2)
        with pytest.raises(ValueError):
            h.array[0, 0] = 5.0

    def test_arithmetic(self):
        a = HermitianMatrix.diagonal([1.0, 2.0])
        b = HermitianMatrix.diagonal([3.0, 4.0])
        assert np.allclose((a + b).array, np.diag([4.0, 6.0]))
        assert np.allclose((a - b).array, np.diag([-2.0, -2.0]))
        assert np.allclose((2.0 * a).array, np.diag([2.0, 4.0]))


class TestEig:
    def test_already_diagonal(self):
        d = eig_hermitian(HermitianMatrix.diagonal([3.0, 1.0]))
        assert np.allclose(d.eigenvalues, [1.0, 3.0])
        # the unitary is a permutation
        assert np.allclose(np.abs(d.unitary), [[0, 1], [1, 0]])

    def test_classic_2x2(self):
        d = eig_hermitian(HermitianMatrix([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(d.eigenvalues, [1.0, 3.0])
        assert np.allclose(np.abs(d.unitary), np.full((2, 2), 1 / np.sqrt(2)))

    def test_random_8x8_reconstruction(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            h = random_hermitian(rng, 8)
            d = h.decomposition()
            recon = (d.unitary * d.eigenvalues) @ d.unitary.conj().T
            assert np.linalg.norm(recon - h.array) <= 1e-12 * max(1, h.norm_fro())
            assert np.linalg.norm(
                d.unitary.conj().T @ d.unitary - np.eye(8)) <= 1e-12

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(3)
        d = random_hermitian(rng, 6).decomposition()
        assert np.all(np.diff(d.eigenvalues) >= 0)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 5)
        d1 = eig_hermitian(h)
        d2 = eig_hermitian(HermitianMatrix(np.array(h.array)))
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.unitary, d2.unitary)

    def test_real_symmetric(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 7, complex_field=False)
        d = h.decomposition()
        recon = (d.unitary * d.eigenvalues) @ d.unitary.conj().T
        assert np.linalg.norm(recon - h.array) <= 1e-12 * max(1, h.norm_fro())

    def test_lapack_agrees_with_mpmath_oracle(self):
        # the matrices of acceptance criterion 1: n = 1..16, complex field
        rng = np.random.default_rng(20260826)
        for k in range(100):
            n = (k % 16) + 1
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = HermitianMatrix((g + g.conj().T) / 2)
            budget = 1e-12 * max(1.0, h.norm_fro())
            d = eig_hermitian(h)
            assert np.max(np.abs(d.eigenvalues - oracle.eigenvalues(h))) \
                <= budget, n
            recon = (d.unitary * d.eigenvalues) @ d.unitary.conj().T
            assert np.linalg.norm(recon - h.array) <= budget, n
            assert np.linalg.norm(
                d.unitary.conj().T @ d.unitary - np.eye(n)) <= 1e-12, n

    @pytest.mark.parametrize("corrupt", [
        lambda lam, u: (lam * (1.0 + 1e-9), u),          # eigenvalues off
        lambda lam, u: (lam, u * (1.0 + 1e-9)),          # vectors not unitary
        lambda lam, u: (lam, u[:, ::-1]),                # vectors mismatched
        # a null vector stretched: A is still reconstructed, U not unitary
        lambda lam, u: (lam, u * np.where(abs(lam) < 1e-9, 2.0, 1.0)),
    ], ids=["eigenvalues", "scaled-vectors", "swapped-vectors", "null-vector"])
    def test_corrupted_eigh_output_rejected(self, monkeypatch, corrupt):
        h = random_hermitian(np.random.default_rng(2), 6)
        h = h - h.decomposition().eigenvalues[0] * HermitianMatrix.identity(6)
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: corrupt(*eigh(a)))
        with pytest.raises(ConvergenceError, match="failed validation"):
            eig_hermitian(h)


class TestPDMatrix:
    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            PDMatrix(HermitianMatrix.diagonal([1.0, -1.0]))

    def test_rejects_ill_conditioned(self):
        with pytest.raises(NotPositiveDefiniteError):
            PDMatrix(HermitianMatrix.diagonal([1e13, 1.0]))

    def test_condition_cap_is_the_one_bound(self):
        PDMatrix.diagonal([0.99 * CONDITION_CAP, 1.0])
        for lam in ([1.01 * CONDITION_CAP, 1.0], [1.0, 0.0], [-1.0, -2.0]):
            with pytest.raises(NotPositiveDefiniteError,
                               match=r"cap 1e\+12: eigenvalue range \[") as err:
                PDMatrix.diagonal(lam)
            assert f"{min(lam):.3e}, {max(lam):.3e}]" in str(err.value)

    def test_accepts_and_caches(self):
        a = PDMatrix(HermitianMatrix([[2.0, 1.0], [1.0, 2.0]]))
        assert a.decomposition() is a.decomposition()

    def test_is_a_hermitian_matrix(self):
        a = PDMatrix([[2.0, 1.0], [1.0, 2.0]])
        assert isinstance(a, HermitianMatrix)
        assert isinstance(PDMatrix.identity(2), PDMatrix)
        assert repr(a) == "PDMatrix(n=2)"
        # arithmetic leaves the PD type: a difference need not be PD
        assert type(a - a) is HermitianMatrix

    def test_adopts_decomposed_matrix_without_eig(self, monkeypatch):
        h = HermitianMatrix([[2.0, 1.0], [1.0, 2.0]])
        spec = h.decomposition()
        calls = count_eigs(monkeypatch)
        a = PDMatrix(h)
        assert a.array is h.array and a.decomposition() is spec
        assert calls == []


class TestApplyFunction:
    def test_sqrt_of_diagonal(self):
        a = PDMatrix(HermitianMatrix.diagonal([4.0, 9.0]))
        out = apply_function(a, np.sqrt)
        assert np.allclose(out.array, np.diag([2.0, 3.0]))

    def test_identity_fixed_point(self):
        a = PDMatrix.identity(3)
        out = apply_function(a, lambda t: t ** 0.37)
        assert np.allclose(out.array, np.eye(3), atol=1e-13)

    def test_square_matches_matmul(self):
        a = PDMatrix(HermitianMatrix([[2.0, 1.0], [1.0, 2.0]]))
        out = apply_function(a, lambda t: t * t)
        assert np.allclose(out.array, a.array @ a.array, atol=1e-12)

    def test_homomorphism(self):
        rng = np.random.default_rng(5)
        a = random_pd_raw(rng, 4)
        prod = apply_function(a, lambda t: np.sqrt(t) * np.log(t))
        left = apply_function(a, np.sqrt).array @ apply_function(a, np.log).array
        assert np.linalg.norm(prod.array - left) <= 1e-10 * max(1, a.norm_2())

    def test_commutes_with_argument(self):
        rng = np.random.default_rng(6)
        a = random_pd_raw(rng, 4)
        f = apply_function(a, np.sqrt).array
        assert np.linalg.norm(f @ a.array - a.array @ f) <= 1e-10 * a.norm_2()

    def test_domain_error_names_eigenvalue(self):
        a = PDMatrix(HermitianMatrix.diagonal([0.5, 2.0]))
        with pytest.raises(FunctionDomainError) as err, \
                pytest.warns(RuntimeWarning):
            apply_function(a, lambda t: np.log(t - 1.0))
        assert "0.5" in str(err.value)

    def test_complex_value_names_eigenvalue(self):
        a = PDMatrix(HermitianMatrix.diagonal([2.0, 0.5, 3.0]))
        with pytest.raises(FunctionDomainError) as err:
            apply_function(a, lambda t: np.sqrt(t - 1.0 + 0j))
        assert "0.5" in str(err.value) and "2.0" not in str(err.value)

    def test_fn_sees_the_eigenvalue_array_once(self):
        a = random_pd_raw(np.random.default_rng(7), 4)
        seen = []

        def fn(lam):
            seen.append(lam)
            return np.sqrt(lam)

        apply_function(a, fn)
        assert len(seen) == 1
        assert np.array_equal(seen[0], a.decomposition().eigenvalues)

    def test_result_carries_its_spectrum(self, monkeypatch):
        a = random_pd_raw(np.random.default_rng(8), 4)
        lam = a.decomposition().eigenvalues
        calls = count_eigs(monkeypatch)
        out = PDMatrix(apply_function(a, lambda t: 1.0 / t))
        assert calls == []
        assert np.array_equal(out.decomposition().eigenvalues,
                              np.sort(1.0 / lam))
        assert np.allclose(out.array @ a.array, np.eye(4), atol=1e-12)


class TestPower:
    def test_half_power(self):
        a = PDMatrix(HermitianMatrix.diagonal([4.0, 9.0]))
        assert np.allclose(power(a, 0.5).array, np.diag([2.0, 3.0]))

    def test_unit_power(self):
        rng = np.random.default_rng(9)
        a = random_pd_raw(rng, 4)
        assert rel_residual(power(a, 1.0), a) <= 1e-13

    def test_zero_power(self):
        rng = np.random.default_rng(10)
        a = random_pd_raw(rng, 3)
        assert np.allclose(power(a, 0.0).array, np.eye(3), atol=1e-13)

    def test_inverse(self):
        rng = np.random.default_rng(12)
        a = random_pd_raw(rng, 3)
        assert np.allclose(power(a, -1.0).array @ a.array, np.eye(3), atol=1e-10)

    def test_power_of_decomposed_runs_no_eig(self, monkeypatch):
        a = random_pd_raw(np.random.default_rng(14), 4)
        calls = count_eigs(monkeypatch)
        p = power(a, 0.3)
        assert isinstance(p, PDMatrix) and p.decomposition() is not None
        assert calls == []

    def test_power_beyond_condition_cap_rejected(self):
        a = PDMatrix.diagonal([CONDITION_CAP ** 0.5, 1.0])
        with pytest.raises(NotPositiveDefiniteError):
            power(a, 3.0)

    def test_cube_root_roundtrip(self):
        rng = np.random.default_rng(13)
        a = random_pd_raw(rng, 4)
        assert rel_residual(power(power(a, 1.0 / 3.0), 3.0), a) <= 1e-10

    def test_exponent_additivity(self):
        rng = np.random.default_rng(14)
        a = random_pd_raw(rng, 4)
        lhs = power(a, 0.7).array @ power(a, 0.3).array
        assert np.linalg.norm(lhs - a.array) <= 1e-10 * a.norm_2()


class TestCongruence:
    def test_identity(self):
        x = HermitianMatrix([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(congruence(np.eye(2), x).array, x.array)

    def test_scaling(self):
        out = congruence(2.0 * np.eye(2), HermitianMatrix.identity(2))
        assert np.allclose(out.array, 4.0 * np.eye(2))

    def test_gram_matrix(self):
        rng = np.random.default_rng(15)
        c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        out = congruence(c, HermitianMatrix.identity(4))
        assert np.allclose(out.array, c.conj().T @ c)
        assert out.decomposition().eigenvalues[0] >= -1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            congruence(np.eye(3), HermitianMatrix.identity(2))


class TestKronHadamard:
    def test_kron_with_identity(self):
        b = HermitianMatrix([[2.0, 1.0], [1.0, 2.0]])
        out = kron(HermitianMatrix.identity(2), b)
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = b.array
        expected[2:, 2:] = b.array
        assert np.array_equal(out.array, expected)

    def test_kron_of_diagonals(self):
        out = kron(HermitianMatrix.diagonal([2.0, 3.0]),
                   HermitianMatrix.diagonal([5.0, 7.0]))
        assert np.allclose(np.diagonal(out.array).real, [10.0, 14.0, 15.0, 21.0])

    def test_kron_eigenvalues_are_products(self):
        rng = np.random.default_rng(16)
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 2)
        got = np.sort(kron(a, b).decomposition().eigenvalues)
        expected = np.sort(np.outer(a.decomposition().eigenvalues,
                                    b.decomposition().eigenvalues).ravel())
        assert np.allclose(got, expected, atol=1e-10 * max(1, abs(expected).max()))

    def test_kron_size_cap(self):
        a = HermitianMatrix.identity(9)
        with pytest.raises(TensorSizeError):
            kron(a, a)

    def test_hadamard_with_ones(self):
        rng = np.random.default_rng(17)
        a = random_hermitian(rng, 3)
        j = HermitianMatrix(np.ones((3, 3)))
        assert np.array_equal(hadamard(a, j).array, a.array)

    def test_hadamard_identity(self):
        i = HermitianMatrix.identity(3)
        assert np.array_equal(hadamard(i, i).array, np.eye(3))

    def test_hadamard_is_kron_principal_submatrix(self):
        rng = np.random.default_rng(18)
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 3)
        sub = kron_diagonal_block(kron(a, b), 3)
        assert np.linalg.norm(sub.array - hadamard(a, b).array) <= 1e-14

    def test_hadamard_commutes(self):
        rng = np.random.default_rng(19)
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        diff = np.max(np.abs(hadamard(a, b).array - hadamard(b, a).array))
        assert diff <= 1e-15 * max(1.0, np.max(np.abs(a.array * b.array)))

    def test_hadamard_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            hadamard(HermitianMatrix.identity(2), HermitianMatrix.identity(3))


class TestLoewner:
    def test_identity_vs_twice(self):
        v = loewner_leq(HermitianMatrix.identity(2),
                        2.0 * HermitianMatrix.identity(2))
        assert v.holds and v.margin == pytest.approx(1.0)

    def test_incomparable_pair(self):
        a = HermitianMatrix.diagonal([1.0, 2.0])
        b = HermitianMatrix.diagonal([2.0, 1.0])
        v1 = loewner_leq(a, b)
        v2 = loewner_leq(b, a)
        assert not v1.holds and not v2.holds
        assert v1.margin == pytest.approx(-1.0)

    def test_reflexive(self):
        rng = np.random.default_rng(20)
        a = random_hermitian(rng, 4)
        v = loewner_leq(a, a)
        assert v.holds and abs(v.margin) <= 1e-14

    def test_mutual_order_implies_closeness(self):
        rng = np.random.default_rng(21)
        a = random_hermitian(rng, 3)
        b = HermitianMatrix(a.array + 1e-10 * np.eye(3))
        tol = 1e-8
        v1 = loewner_leq(a, b, tol)
        v2 = loewner_leq(b, a, tol)
        assert v1.holds and v2.holds
        assert (a - b).norm_2() <= 2 * tol * v1.scale

    def test_verdict_invariant(self):
        v = LoewnerVerdict(holds=True, margin=0.5, scale=2.0, tolerance=1e-8)
        assert v.holds == (v.margin >= -v.tolerance * max(1.0, v.scale))

    def test_judge_is_the_pass_rule(self):
        # the tolerance scales with max(1, scale)
        assert LoewnerVerdict.judge(-1e-8, 0.5, 1e-8).holds
        assert not LoewnerVerdict.judge(-1.1e-8, 0.5, 1e-8).holds
        assert LoewnerVerdict.judge(-2e-8, 2.0, 1e-8).holds
        v = LoewnerVerdict.judge(np.float64(-3e-8), np.float64(2.0), 1e-8)
        assert type(v.holds) is bool and type(v.margin) is float
        assert not v.holds

    def test_loewner_leq_judges_its_margin(self):
        rng = np.random.default_rng(23)
        a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
        v = loewner_leq(a, b, 1e-3)
        assert v == LoewnerVerdict.judge(v.margin, a.norm_2() + b.norm_2(),
                                         1e-3)


def random_stack(rng, k, n):
    """k random Hermitian matrices of dimension n, as an array."""
    return np.stack([random_hermitian(rng, n).array for _ in range(k)])


class TestStacks:
    """A stack of k matrices is checked matrix by matrix: one bad matrix
    rejects the stack, and the error names it."""

    def test_non_hermitian_slice_rejected(self):
        a = random_stack(np.random.default_rng(30), 5, 3)
        a[2, 0, 1] += 1e-6
        with pytest.raises(HermitianError, match="^slice 2: matrix is not "
                                                 "Hermitian"):
            HermitianMatrix(a)

    def test_non_finite_slice_rejected(self):
        a = random_stack(np.random.default_rng(31), 5, 3)
        a[4, 1, 1] = np.inf
        with pytest.raises(HermitianError,
                           match="^slice 4: matrix contains non-finite"):
            HermitianMatrix(a)
        a = random_stack(np.random.default_rng(31), 2, 3)[None].repeat(2, 0)
        a[1, 0, 2, 1] = np.nan
        with pytest.raises(HermitianError, match="^slice 1,0: "):
            HermitianMatrix(a)

    def test_slice_beyond_condition_cap_rejected(self):
        lams = [[1.0, 2.0], [0.99 * CONDITION_CAP, 1.0], [3.0, 1.0],
                [1.01 * CONDITION_CAP, 1.0]]
        a = np.stack([np.diag(lam) for lam in lams])
        PDMatrix(a[:3])
        with pytest.raises(NotPositiveDefiniteError,
                           match=r"^slice 3: not positive definite within "
                                 r"condition cap 1e\+12: eigenvalue range "
                                 r"\[1\.000e\+00, 1\.010e\+12\]"):
            PDMatrix(a)

    @pytest.mark.parametrize("corrupt", [
        lambda lam, u: (lam * (1.0 + 1e-9), u),
        lambda lam, u: (lam, u * (1.0 + 1e-9)),
        lambda lam, u: (lam, u[:, ::-1]),
        lambda lam, u: (lam, u * np.where(abs(lam) < 1e-9, 2.0, 1.0)),
    ], ids=["eigenvalues", "scaled-vectors", "swapped-vectors", "null-vector"])
    def test_one_corrupted_eigh_slice_rejected(self, monkeypatch, corrupt):
        # as in TestEig.test_corrupted_eigh_output_rejected, on slice 3 of 6
        rng = np.random.default_rng(2)
        hs = [random_hermitian(rng, 6) for _ in range(6)]
        hs = [h - h.decomposition().eigenvalues[0] *
              HermitianMatrix.identity(6) for h in hs]
        stacked = HermitianMatrix(np.stack([h.array for h in hs]))
        eigh = np.linalg.eigh

        def corrupted(a):
            lam, u = eigh(a)
            lam, u = lam.copy(), u.copy()
            lam[3], u[3] = corrupt(lam[3], u[3])
            return lam, u

        monkeypatch.setattr(np.linalg, "eigh", corrupted)
        with pytest.raises(ConvergenceError,
                           match="^slice 3: eigendecomposition failed "
                                 "validation"):
            eig_hermitian(stacked)

    def test_adopted_slice_runs_no_eigensolver(self, monkeypatch):
        rng = np.random.default_rng(32)
        whole = PDMatrix(np.stack([random_pd_raw(rng, 4).array
                                   for _ in range(5)]))
        spec = whole.decomposition()
        calls = count_eigs(monkeypatch)
        part = whole[2]
        assert type(part) is PDMatrix and part.stack_shape == ()
        assert PDMatrix(part).decomposition() is part.decomposition()
        assert np.array_equal(part.decomposition().eigenvalues,
                              spec.eigenvalues[2])
        assert part.norm_2() > 0.0 and whole[1:4].stack_shape == (3,)
        power(part, 0.5)
        back = stack(list(whole))
        assert np.array_equal(back.array, whole.array)
        assert np.array_equal(back.decomposition().unitary, spec.unitary)
        assert calls == []
        with pytest.raises(ValueError):
            part.array[0, 0] = 1.0
        with pytest.raises(ValueError):
            part.decomposition().eigenvalues[0] = 1.0

    def test_single_matrix_is_no_stack(self):
        a = HermitianMatrix.identity(2)
        with pytest.raises(IndexError):
            a[0]
        with pytest.raises(TypeError):
            iter(a)
        with pytest.raises(IndexError):
            HermitianMatrix(np.eye(2)[None])[0, 1]

    def test_stack_equals_single_matrix_calls_bitwise(self):
        # each slice of a stacked kernel has the bits of the 2-D call
        rng = np.random.default_rng(33)
        for n in (1, 2, 3):
            xs = [random_pd_raw(rng, n) for _ in range(4)]
            ys = [random_pd_raw(rng, n) for _ in range(4)]
            x = PDMatrix(np.stack([m.array for m in xs]))
            y = stack(ys)
            pairs = [(means.geometric(), 0), (means.power_mean(-0.5), 1),
                     (means.weighted_geometric(0.25), 2)]
            family = means.mean([d for d, _ in pairs], x, y)
            kr = kron(x, y)
            sq = power(x[0], [0.5, 2.0, -1.0, 0.3])
            verdicts = loewner_leq(x, y)
            for j in range(4):
                assert np.array_equal(
                    x[j].decomposition().unitary,
                    eig_hermitian(HermitianMatrix(xs[j].array)).unitary)
                for d, i in pairs:
                    assert np.array_equal(family[i, j].array,
                                          means.mean(d, xs[j], ys[j]).array)
                assert np.array_equal(kr[j].array, kron(xs[j], ys[j]).array)
                assert verdicts[j] == loewner_leq(xs[j], ys[j])
            for t, p in zip((0.5, 2.0, -1.0, 0.3), sq):
                assert np.array_equal(p.array, power(xs[0], t).array)


def entries_array(d):
    """The n-by-n array a matrix dump's row-major [re, im] entries encode."""
    return np.array([complex(re, im) for re, im in d["entries"]]).reshape(
        d["n"], d["n"])


class TestMatrixIO:
    def test_roundtrip_complex(self):
        rng = np.random.default_rng(22)
        h = random_hermitian(rng, 4)
        d = matrix_to_dict(h)
        assert d["field"] == "complex"
        assert np.array_equal(entries_array(d), h.array)

    def test_roundtrip_real_field_flag(self):
        h = HermitianMatrix.diagonal([1.5, 2.5])
        d = matrix_to_dict(h)
        assert d["field"] == "real"
        assert len(d["entries"]) == 4

    def test_json_serializable_full_precision(self):
        h = HermitianMatrix([[1.0 / 3.0]])
        text = json.dumps(matrix_to_dict(h))
        assert entries_array(json.loads(text))[0, 0] == h.array[0, 0]

    def test_stack_is_refused(self):
        # a stack of three 2x2 matrices is no one matrix a dump can hold
        eye = HermitianMatrix.identity(2)
        with pytest.raises(DimensionError, match=r"\(3,\)"):
            matrix_to_dict(stack([eye, eye, eye]))
