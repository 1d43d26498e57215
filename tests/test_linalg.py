import functools
import json
import operator

import numpy as np
import pytest

import oracle
from meanscope import linalg
from meanscope.linalg import (
    CONDITION_CAP,
    HERMITIAN_TOL,
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
from meanscope.ensembles import EnsembleSpec, random_invertible, random_pd


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

    def test_overflowing_entry_is_refused(self):
        # (A + A*) / 2 of an entry above SYMMETRIZABLE could overflow: it is
        # refused before, with no RuntimeWarning (an error under the tests'
        # warning filter), and a stack names the slice
        with pytest.raises(HermitianError,
                           match=r"^matrix entry of magnitude 1\.000e\+308"):
            HermitianMatrix([[1e308]])
        with pytest.raises(HermitianError, match="^matrix entry"):
            HermitianMatrix([[0.0, 1e308], [-1e308, 0.0]])
        a = np.stack([np.eye(2), np.diag([1.0, 1e308]), np.eye(2)])
        with pytest.raises(HermitianError, match="^slice 1: matrix entry"):
            HermitianMatrix(a)
        top = linalg.SYMMETRIZABLE
        assert HermitianMatrix([[top]]).array[0, 0] == top

    def test_immutable(self):
        h = HermitianMatrix.identity(2)
        with pytest.raises(ValueError):
            h.array[0, 0] = 5.0

    def test_arithmetic(self):
        a = HermitianMatrix(np.diag([1.0, 2.0]))
        b = HermitianMatrix(np.diag([3.0, 4.0]))
        assert np.allclose((a + b).array, np.diag([4.0, 6.0]))
        assert np.allclose((a - b).array, np.diag([-2.0, -2.0]))
        assert np.allclose((2.0 * a).array, np.diag([2.0, 4.0]))


class TestEig:
    def test_already_diagonal(self):
        d = eig_hermitian(HermitianMatrix(np.diag([3.0, 1.0])))
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
            assert np.linalg.norm(recon - h.array) <= 1e-12 * max(
                1, np.linalg.norm(h.array))
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
        assert np.linalg.norm(recon - h.array) <= 1e-12 * max(
            1, np.linalg.norm(h.array))

    def test_lapack_agrees_with_mpmath_oracle(self):
        # the matrices of acceptance criterion 1: n = 1..16, complex field
        rng = np.random.default_rng(20260826)
        for k in range(100):
            n = (k % 16) + 1
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = HermitianMatrix((g + g.conj().T) / 2)
            budget = 1e-12 * max(1.0, np.linalg.norm(h.array))
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


    def test_one_by_one_is_exact_and_runs_no_solver(self, monkeypatch):
        # a 1-by-1 matrix is its own eigenvalue, with eigenvector 1, so
        # neither LAPACK nor the residual validation runs
        def refuse(*args):
            raise AssertionError("a 1-by-1 stack was solved or validated")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(linalg, "_finish_decomposition", refuse)
        entries = np.array([3.5, 1e-7, 2.0e5]).reshape(3, 1, 1)
        d = eig_hermitian(HermitianMatrix(entries))
        assert d.eigenvalues.shape == (3, 1) and d.unitary.shape == (3, 1, 1)
        assert d.eigenvalues.tobytes() == entries[..., 0].tobytes()
        assert np.array_equal(d.unitary, np.ones((3, 1, 1)))


CORRUPTIONS = {
    "eigenvalues": lambda lam, u: (lam * (1.0 + 1e-9), u),
    "scaled-vectors": lambda lam, u: (lam, u * (1.0 + 1e-9)),
    "swapped-vectors": lambda lam, u: (lam, u[:, ::-1]),
    "null-vector": lambda lam, u: (
        lam, u * np.where(abs(lam) < 1e-9, 2.0, 1.0)),
    "nan-eigenvalue": lambda lam, u: (np.where(lam == lam[2], np.nan, lam), u),
    "nan-vector": lambda lam, u: (lam, np.where(u == u[1, 1], np.nan, u)),
}


def frobenius_validation(lam, u, a):
    """The eigendecomposition check by unsquared Frobenius norms, as
    ``np.linalg.norm`` computes them: the reference that the squared
    residuals of ``_finish_decomposition`` must decide alike.  The message
    it would raise, or None when it accepts."""
    if not (lam[..., 1:] >= lam[..., :-1]).all():
        order = np.argsort(lam, axis=-1, kind="stable")
        lam = np.take_along_axis(lam, order, axis=-1)
        u = np.take_along_axis(u, order[..., None, :], axis=-1)
    fro = np.linalg.norm(a, axis=(-2, -1))
    recon = np.linalg.norm((u * lam[..., None, :]) @ u.conj().swapaxes(-1, -2)
                           - a, axis=(-2, -1))
    ortho = np.linalg.norm(u.conj().swapaxes(-1, -2) @ u - np.eye(a.shape[-1]),
                           axis=(-2, -1))
    bad = ~((recon <= 1e-12 * np.maximum(1.0, fro)) & (ortho <= 1e-12))
    if not bad.any():
        return None
    i = np.unravel_index(int(np.argmax(bad)), bad.shape)
    where = f"slice {','.join(map(str, i))}: " if i else ""
    return (f"{where}eigendecomposition failed validation: "
            f"reconstruction {recon[i]:.3e}, unitarity {ortho[i]:.3e}")


def validation_message(lam, u, a):
    try:
        linalg._finish_decomposition(lam, u, HermitianMatrix(a))
    except ConvergenceError as exc:
        return str(exc)
    return None


def at_budget(factor):
    """(name, lam, u, a) whose one deciding residual is its budget times
    factor: the reconstruction of diag(1, 2, 3) (budget 1e-12 * sqrt(14)),
    or the unitarity of a scaled first eigenvector (budget 1e-12), which
    moves the reconstruction by as much, within its own budget."""
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)
    lam, u = np.array([1.0, 2.0, 3.0]), np.eye(3, dtype=complex)
    recon = lam.copy()
    recon[0] += factor * 1e-12 * np.sqrt(14.0)
    eps = np.sqrt(1.0 + factor * 1e-12) - 1.0     # (1 + eps)^2 - 1
    ortho = u.copy()
    ortho[0, 0] += eps
    return [(f"reconstruction*{factor}", recon, u, a),
            (f"unitarity*{factor}", lam, ortho, a)]


class TestValidationMatchesTheFrobeniusRule:
    """Squared residuals against the squared budget accept what the
    Frobenius norms against the budget accept, and name the same residuals
    when they refuse."""

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_corruptions(self, name):
        h = random_hermitian(np.random.default_rng(2), 6)
        h = h - h.decomposition().eigenvalues[0] * HermitianMatrix.identity(6)
        lam, u = CORRUPTIONS[name](*np.linalg.eigh(h.array))
        want = frobenius_validation(lam, u, h.array)
        assert want is not None
        assert validation_message(lam, u, h.array) == want

    @pytest.mark.parametrize("factor", [1.0 - 1e-3, 1.0 + 1e-3])
    def test_residuals_at_the_budget(self, factor):
        for name, lam, u, a in at_budget(factor):
            want = frobenius_validation(lam, u, a)
            assert (want is None) == (factor < 1.0), name
            assert validation_message(lam, u, a) == want, name

    def test_a_stack_names_the_slice_the_rule_names(self):
        _, lam, u, a = at_budget(1.0 + 1e-3)[1]
        lams = np.stack([lam] * 4)
        us = np.stack([np.eye(3, dtype=complex)] * 4)
        us[2] = u
        want = frobenius_validation(lams, us, np.stack([a] * 4))
        assert want.startswith("slice 2: ")
        assert validation_message(lams, us, np.stack([a] * 4)) == want


class TestExactResults:
    """+, -, real *, kron, hadamard, kron_diagonal_block, pd_sum,
    congruence, apply_function, power and means.mean build their results
    from validated matrices as the Hermitian part (X + X*) / 2 of what they
    compute, and check finiteness only."""

    def test_results_are_exactly_hermitian(self):
        rng = np.random.default_rng(17)
        a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
        pa, pb = random_pd_raw(rng, 3), random_pd_raw(rng, 3)
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for out in (a + b, a - b, 0.3 * a, kron(a, b), hadamard(a, b),
                    kron_diagonal_block(kron(a, b), 3), congruence(c, a),
                    linalg.pd_sum(stack([pa, pb])), apply_function(a, np.sin),
                    power(pa, [0.5, -1.0]),
                    means.mean(means.geometric(), pa, pb)):
            x = out.array
            assert np.array_equal(x, x.conj().swapaxes(-1, -2))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_spectral_results_are_the_hermitian_part_of_their_product(self, n):
        # U diag(f(lam)) U*, built from the spectrum the result carries (in
        # ascending order: 1/lam reverses A's), kept as its Hermitian part
        # bit for bit and not validated again
        a = random_pd_raw(np.random.default_rng(n), n, spread=50.0)
        outs = (apply_function(a, np.log), power(a, 0.5), power(a, -1.0),
                power(a, [0.3, 2.0]))
        for out, f in zip(outs, (np.log, np.sqrt, np.reciprocal, None)):
            spec = out.decomposition()
            lam, u = spec.eigenvalues, spec.unitary
            if f is not None:
                assert np.array_equal(
                    lam, np.sort(f(a.decomposition().eigenvalues)))
            raw = (u * lam[..., None, :]) @ u.conj().swapaxes(-1, -2)
            part = (raw + raw.conj().swapaxes(-1, -2)) / 2.0
            assert out.array.tobytes() == part.tobytes()

    def test_overflow_is_refused(self):
        big = HermitianMatrix([[1e300]])
        huge = PDMatrix([[1e200]])
        near = PDMatrix([[8e307]])      # three of them sum past the float max
        # 1e308 is finite, but its Hermitian part (a + a*) / 2 overflows,
        # as it does for an input above SYMMETRIZABLE
        for build in (lambda: big * 1e10, lambda: big * 1e8,
                      lambda: (big * 1e8) + (big * 1e8),
                      lambda: big * 1e8 - big * -1e8, lambda: kron(huge, huge),
                      lambda: hadamard(huge, huge),
                      lambda: linalg.pd_sum(stack([near, near, near])),
                      lambda: congruence([[1e200]], huge)):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                    HermitianError, match="non-finite"):
                build()


class TestHermitianPartPremise:
    """``_exact`` keeps the Hermitian part of a spectral calculus
    U diag(f(lam)) U* or a congruence C diag(v) C* without testing its
    asymmetry.  That rests on their round-off asymmetry staying below the
    input slack HERMITIAN_TOL times the largest entry: at most about
    n^2 u max|entry| (u = 2^-53), measured below 5e-16 with numpy 2.4 and
    OpenBLAS on x86-64.  A platform whose products broke the bound fails
    this test instead of passing unvalidated results on."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", range(1, 17))
    def test_rounding_asymmetry_is_below_the_input_slack(self, n, field):
        # eight draws at the default kappa, as a stack
        espec = EnsembleSpec(n=n, field=field, seed=tuple(range(8)))
        a, b = (random_pd(espec, i).decomposition() for i in (0, 1))
        lam, u = a.eigenvalues, a.unitary
        # log, x - median and sin(log x) change sign over the spectrum
        fns = (np.sqrt, np.reciprocal, np.log,
               lambda x: x - np.median(x, axis=-1, keepdims=True),
               lambda x: np.sin(np.log(x)))
        products = [linalg.congruence_diag(u, f(lam)) for f in fns]
        # C diag(v) C* with v > 0, for the C = A^{1/2} U of means.mean and
        # for a drawn invertible C
        for c in (linalg.congruence_diag(u, np.sqrt(lam)) @ b.unitary,
                  random_invertible(espec, 0)):
            products += [linalg.congruence_diag(c, v)
                         for v in (b.eigenvalues, np.sqrt(b.eigenvalues))]
        for x in products:
            dev = np.abs(x - x.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
            scale = np.abs(x).max(axis=(-2, -1))
            assert (dev <= HERMITIAN_TOL * scale).all()


class TestPdSum:
    @pytest.mark.parametrize("m", range(1, 5))
    def test_sums_the_tuple_axis_in_order(self, m):
        # an (m, n, n) stack and a (k, m, n, n) one: each sum is its slices
        # added in order of j, bit for bit
        rng = np.random.default_rng(40 + m)
        tuples = stack([stack([random_pd_raw(rng, 3) for _ in range(m)])
                        for _ in range(2)])
        for x in (tuples[0], tuples):
            got = linalg.pd_sum(x)
            assert type(got) is PDMatrix
            assert got.stack_shape == x.stack_shape[:-1]
            for i in np.ndindex(got.stack_shape):
                want = functools.reduce(
                    operator.add, [x[i + (j,)].array for j in range(m)])
                assert got.array[i].tobytes() == want.tobytes()

    def test_single_matrix_is_refused(self):
        with pytest.raises(DimensionError, match="tuple axis"):
            linalg.pd_sum(PDMatrix.identity(2))


class TestPDMatrix:
    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            PDMatrix(HermitianMatrix(np.diag([1.0, -1.0])))

    def test_rejects_ill_conditioned(self):
        with pytest.raises(NotPositiveDefiniteError):
            PDMatrix(HermitianMatrix(np.diag([1e13, 1.0])))

    def test_condition_cap_is_the_one_bound(self):
        PDMatrix(np.diag([0.99 * CONDITION_CAP, 1.0]))
        for lam in ([1.01 * CONDITION_CAP, 1.0], [1.0, 0.0], [-1.0, -2.0]):
            with pytest.raises(NotPositiveDefiniteError,
                               match=r"cap 1e\+12: eigenvalue range \[") as err:
                PDMatrix(np.diag(lam))
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


def certificates(monkeypatch):
    """Record the outcome of every Cholesky certificate from now on."""
    outcomes = []
    certified = linalg._certified

    def recorded(a):
        outcomes.append(certified(a))
        return outcomes[-1]

    monkeypatch.setattr(linalg, "_certified", recorded)
    return outcomes


def rotated(lams, seed):
    """Q diag(lam) Q* for a random unitary Q, one matrix per row of lams."""
    rng = np.random.default_rng(seed)
    out = []
    for lam in lams:
        g = rng.standard_normal((len(lam),) * 2) \
            + 1j * rng.standard_normal((len(lam),) * 2)
        q, _ = np.linalg.qr(g)
        out.append((q * np.asarray(lam, float)) @ q.conj().T)
    return np.stack(out)


def eigen_verdict(monkeypatch, make):
    """The message of the NotPositiveDefiniteError that ``make()`` raises
    with the certificate off, so that the spectrum decides."""
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_certified", lambda a: False)
        with pytest.raises(NotPositiveDefiniteError) as err:
            make()
    return str(err.value)


class TestCertificate:
    """A PDMatrix without a spectrum is proved PD within the cap by one
    Cholesky of the stack; a stack it fails is decided by its spectrum,
    with the message the spectrum gives."""

    def test_certified_matrix_is_decomposed_once_on_first_read(
            self, monkeypatch):
        entries = rotated([[1.0, 2.0, 30.0]] * 4, seed=40)
        outcomes = certificates(monkeypatch)
        calls = count_eigs(monkeypatch)
        a = PDMatrix(entries)
        assert outcomes == [True] and calls == []
        assert a.norm_2().shape == (4,) and calls == [3]
        spec = a.decomposition()
        assert np.shares_memory(a[1].decomposition().eigenvalues,
                                spec.eigenvalues)
        assert calls == [3]

    def test_one_by_one_takes_its_exact_spectrum(self, monkeypatch):
        outcomes = certificates(monkeypatch)
        PDMatrix(np.array([2.0, 3.0]).reshape(2, 1, 1))
        assert outcomes == []

    @pytest.mark.parametrize("k", [0, 2])
    def test_cond_just_above_the_cap_names_its_slice(self, monkeypatch, k):
        lams = [[1.0, 5.0, 20.0]] * 3
        lams[k] = [1.0, 3.0, 1.001 * CONDITION_CAP]
        entries = rotated(lams, seed=41)
        PDMatrix(np.delete(entries, k, axis=0))
        want = eigen_verdict(monkeypatch, lambda: PDMatrix(entries))
        assert want.startswith(f"slice {k}: not positive definite within "
                               f"condition cap 1e+12: eigenvalue range [")
        outcomes = certificates(monkeypatch)
        with pytest.raises(NotPositiveDefiniteError) as err:
            PDMatrix(entries)
        assert outcomes == [False] and str(err.value) == want

    @pytest.mark.parametrize("k", [1, 3])
    def test_indefinite_computed_matrix_names_its_slice(self, monkeypatch, k):
        # each slice a difference of PD draws, computed by linalg._exact;
        # slice k has a negative eigenvalue
        lams = np.full((4, 3), 2.0)
        lams[k, 0] = 0.5
        a = PDMatrix(rotated(lams, seed=42))
        b = PDMatrix(rotated([[1.0, 1.0, 1.0]] * 4, seed=43))
        want = eigen_verdict(monkeypatch, lambda: PDMatrix(a - b))
        assert want.startswith(f"slice {k}: not positive definite")
        outcomes = certificates(monkeypatch)
        with pytest.raises(NotPositiveDefiniteError) as err:
            PDMatrix(a - b)
        assert outcomes == [False] and str(err.value) == want

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_mean_with_a_non_positive_function_is_refused(
            self, monkeypatch, value):
        # f(x) = value at the smallest eigenvalue of M, x elsewhere: the
        # result C diag(f(L)) C* is singular or indefinite
        rng = np.random.default_rng(44)
        a, b = random_pd_raw(rng, 3), random_pd_raw(rng, 3)
        monkeypatch.setattr(means, "_represent", lambda d, x: np.where(
            x == x.min(), value, x))
        outcomes = certificates(monkeypatch)
        with pytest.raises(NotPositiveDefiniteError, match="eigenvalue range"):
            means.mean(means.geometric(), a, b)
        assert outcomes[-1] is False


class TestApplyFunction:
    def test_sqrt_of_diagonal(self):
        a = PDMatrix(HermitianMatrix(np.diag([4.0, 9.0])))
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
        a = PDMatrix(HermitianMatrix(np.diag([0.5, 2.0])))
        with pytest.raises(FunctionDomainError) as err, \
                pytest.warns(RuntimeWarning):
            apply_function(a, lambda t: np.log(t - 1.0))
        assert "0.5" in str(err.value)

    def test_complex_value_names_eigenvalue(self):
        a = PDMatrix(HermitianMatrix(np.diag([2.0, 0.5, 3.0])))
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
        a = PDMatrix(HermitianMatrix(np.diag([4.0, 9.0])))
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
        a.decomposition()
        calls = count_eigs(monkeypatch)
        p = power(a, 0.3)
        assert isinstance(p, PDMatrix) and p.decomposition() is not None
        assert calls == []

    def test_power_beyond_condition_cap_rejected(self):
        a = PDMatrix(np.diag([CONDITION_CAP ** 0.5, 1.0]))
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


# exponents with numpy's exact shortcuts (0.5, 2, -1) among others
REPEATED_EXPONENTS = (0.5, 0.5, 2.0, -1.0, 2.0, 0.3, 0.3, 0.5)
DISTINCT_EXPONENTS = (0.5, 2.0, -1.0, 0.3, 1.7, -0.45, 0.0, 1.0)


def decomposed_stack(n, k, seed=3):
    a = random_pd(EnsembleSpec(n=n, seed=seed), np.arange(k))
    a.decomposition()
    return a


class TestPerSlice:
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("ts", [REPEATED_EXPONENTS, DISTINCT_EXPONENTS],
                             ids=["repeated", "distinct"])
    def test_slice_takes_its_own_exponent_bitwise(self, n, ts):
        a = decomposed_stack(n, len(ts))
        out = power(a, linalg.PerSlice(ts))
        assert out.stack_shape == (len(ts),)
        for k, t in enumerate(ts):
            alone = power(a[k], t)
            assert np.array_equal(out[k].array, alone.array), (k, t)
            assert np.array_equal(out[k].decomposition().eigenvalues,
                                  alone.decomposition().eigenvalues), (k, t)

    def test_one_slice_stack(self):
        a = decomposed_stack(3, 1)
        out = power(a, linalg.PerSlice([0.3]))
        assert np.array_equal(out.array, power(a, 0.3).array)
        assert np.array_equal(out[0].array, power(a[0], 0.3).array)

    def test_each_slice_gets_its_own_call(self):
        ts = linalg.PerSlice(REPEATED_EXPONENTS)
        lam = np.arange(len(ts) * 3, dtype=float).reshape(len(ts), 3) + 1.0
        calls = []

        def fn(p, x):
            calls.append((p, x.copy()))
            return x ** p

        out = linalg.parametrized(fn, ts)(lam)
        assert [p for p, _ in calls] == list(ts)
        assert all(np.array_equal(x, row) for (_, x), row in zip(calls, lam))
        assert np.array_equal(out, [row ** t for row, t in zip(lam, ts)])

    def test_list_form_stacks_the_same_slices(self):
        ts = DISTINCT_EXPONENTS
        a = decomposed_stack(3, len(ts))
        out = power(a, [0.5, linalg.PerSlice(ts)])
        assert out.stack_shape == (2, len(ts))
        assert np.array_equal(out[0].array, power(a, 0.5).array)
        assert np.array_equal(out[1].array,
                              power(a, linalg.PerSlice(ts)).array)
        for k, t in enumerate(ts):
            assert np.array_equal(out[1, k].array, power(a[k], t).array)

    @pytest.mark.parametrize("count", [3, 5])
    def test_length_other_than_the_stack_is_refused(self, count):
        a = decomposed_stack(2, 4)
        with pytest.raises(DimensionError, match=rf"^{count} parameters for "
                           r"a stack of 4 slices$"):
            power(a, linalg.PerSlice([0.5] * count))
        with pytest.raises(DimensionError, match="parameters for a stack"):
            power(a, [2.0, linalg.PerSlice([0.5] * count)])


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
        out = kron(HermitianMatrix(np.diag([2.0, 3.0])),
                   HermitianMatrix(np.diag([5.0, 7.0])))
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
        a = HermitianMatrix(np.diag([1.0, 2.0]))
        b = HermitianMatrix(np.diag([2.0, 1.0]))
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

    @pytest.mark.parametrize("tol", [0.0, 1e-15, 1e-8])
    @pytest.mark.parametrize("single_a", [False, True])
    @pytest.mark.parametrize("shifts", [
        (0.5, -0.5, 1e-9, -1e-9, 0.0),      # both signs: the scale decides
        (0.5, 1e-9, -1e-9, 0.0),            # within 1e-8 of 0
        (0.5, 0.25, 1e-3),                  # all positive: no scale is read
    ], ids=["both-signs", "within-tol", "positive"])
    def test_every_verdict_is_judged_at_its_scale(self, shifts, single_a,
                                                  tol):
        # whether its scale was read at once or on demand, each verdict is
        # judge's at ||A||_2 + ||B||_2 of its matrices decomposed apart
        rng = np.random.default_rng(24)
        a = random_stack(rng, len(shifts), 3)
        b = a + np.multiply.outer(shifts, np.eye(3))
        if single_a:                        # broadcast against B's stack
            a = a[0]
            b = a + np.multiply.outer(shifts, np.eye(3))
        verdicts = loewner_leq(HermitianMatrix(a), HermitianMatrix(b), tol)
        assert len(verdicts) == len(shifts)
        for v, x, y in zip(verdicts, np.broadcast_to(a, b.shape), b):
            scale = HermitianMatrix(x).norm_2() + HermitianMatrix(y).norm_2()
            want = LoewnerVerdict.judge(v.margin, scale, tol)
            assert v == want and v.scale.hex() == want.scale.hex()
            assert repr(v) == repr(want)
        assert all(v.holds for v in verdicts) == (min(shifts) >= -tol)

    def test_a_nan_margin_never_holds(self, monkeypatch):
        # a NaN compares false with every bound, an infinite one too
        a = random_stack(np.random.default_rng(25), 3, 3)
        eig, calls = linalg.eig_hermitian, []

        def nan_margin(X):
            calls.append(X)
            spec = eig(X)
            if len(calls) > 1:              # the norms, after B - A
                return spec
            lam = spec.eigenvalues.copy()
            lam[1, 0] = np.nan
            return linalg.SpectralDecomposition(lam, spec.unitary)

        monkeypatch.setattr(linalg, "eig_hermitian", nan_margin)
        for tol in (0.0, 1e-8, np.inf, np.nan):
            calls.clear()
            verdicts = loewner_leq(HermitianMatrix(a),
                                   HermitianMatrix(a + np.eye(3)), tol)
            assert np.isnan(verdicts[1].margin) and not verdicts[1].holds
            assert verdicts[0].holds == verdicts[2].holds == (
                not np.isnan(tol))

    def test_first_scale_read_runs_one_eig_call(self, monkeypatch):
        # no margin is below -tol: the verdicts read no norm, and the first
        # scale read decomposes A and B, for every verdict, in one call
        rng = np.random.default_rng(26)
        a = random_stack(rng, 4, 3)
        b = a + np.eye(3)
        A, B = HermitianMatrix(a), HermitianMatrix(b)
        calls = count_eigs(monkeypatch)
        verdicts = loewner_leq(A, B)
        assert calls == [3] and all(v.holds for v in verdicts)
        verdicts[2].scale
        assert calls == [3, 3]
        assert [v.scale for v in verdicts] == list(A.norm_2() + B.norm_2())
        assert calls == [3, 3]
        # a margin below -tol: the scales are read at once, in one call
        calls.clear()
        verdicts = loewner_leq(HermitianMatrix(b), HermitianMatrix(a))
        assert calls == [3, 3] and not any(v.holds for v in verdicts)


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
        assert len(whole) == 5 and len(whole[1:4]) == 3
        power(part, 0.5)
        back = stack(list(whole))
        assert np.array_equal(back.array, whole.array)
        assert np.array_equal(back.decomposition().unitary, spec.unitary)
        assert calls == []
        with pytest.raises(ValueError):
            part.array[0, 0] = 1.0
        with pytest.raises(ValueError):
            part.decomposition().eigenvalues[0] = 1.0

    def test_slices_are_read_only_views(self):
        rng = np.random.default_rng(34)
        whole = PDMatrix(np.stack([random_pd_raw(rng, 3).array
                                   for _ in range(4)]))
        spec = whole.decomposition()
        part = whole[1]
        assert np.shares_memory(part.array, whole.array)
        assert np.shares_memory(part.decomposition().eigenvalues,
                                spec.eigenvalues)
        assert np.shares_memory(part.decomposition().unitary, spec.unitary)
        picked = whole[[0, 2]]
        assert np.array_equal(picked.array, whole.array[[0, 2]])
        assert np.array_equal(picked.decomposition().unitary,
                              spec.unitary[[0, 2]])
        for piece in (part, whole[1:3], picked):
            for x in (piece.array, piece.decomposition().eigenvalues,
                      piece.decomposition().unitary):
                with pytest.raises(ValueError):
                    x[..., 0] = 1.0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_identity_carries_its_exact_spectrum(self, monkeypatch, n):
        lam, u = np.linalg.eigh(np.eye(n, dtype=np.complex128))

        def refuse(a):
            raise AssertionError("eigh ran on the identity")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for cls in (HermitianMatrix, PDMatrix):
            eye = cls.identity(n)
            assert type(eye) is cls
            assert eye.array.tobytes() == np.eye(n, dtype=complex).tobytes()
            spec = eye.decomposition()
            assert spec.eigenvalues.tobytes() == lam.tobytes()
            assert spec.unitary.tobytes() == u.tobytes()
        with pytest.raises(DimensionError):
            HermitianMatrix.identity(0)

    def test_single_matrix_is_no_stack(self):
        a = HermitianMatrix.identity(2)
        with pytest.raises(IndexError):
            a[0]
        with pytest.raises(TypeError):
            iter(a)
        with pytest.raises(TypeError):
            len(a)
        with pytest.raises(TypeError):
            stack(a)
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
            residuals = rel_residual(x, y)
            against_one = rel_residual(xs[0], y)    # broadcast on the stack
            for j in range(4):
                assert np.array_equal(
                    x[j].decomposition().unitary,
                    eig_hermitian(HermitianMatrix(xs[j].array)).unitary)
                for d, i in pairs:
                    assert np.array_equal(family[i, j].array,
                                          means.mean(d, xs[j], ys[j]).array)
                assert np.array_equal(kr[j].array, kron(xs[j], ys[j]).array)
                assert verdicts[j] == loewner_leq(xs[j], ys[j])
                assert residuals[j].hex() == rel_residual(xs[j], ys[j]).hex()
                assert (against_one[j].hex()
                        == rel_residual(xs[0], ys[j]).hex())
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
        h = HermitianMatrix(np.diag([1.5, 2.5]))
        d = matrix_to_dict(h)
        assert d["field"] == "real"
        assert len(d["entries"]) == 4

    def test_json_serializable_full_precision(self):
        h = HermitianMatrix([[1.0 / 3.0]])
        text = json.dumps(matrix_to_dict(h))
        assert entries_array(json.loads(text))[0, 0] == h.array[0, 0]

    def test_entries_array_roundtrips(self):
        # a congruence is written from its entries, which need not be
        # Hermitian
        c = np.array([[1.0, 2.0 - 1.0j], [0.5j, 3.0]])
        d = matrix_to_dict(c)
        assert d["field"] == "complex"
        assert np.array_equal(entries_array(d), c)

    def test_stack_is_refused(self):
        # a stack of three 2x2 matrices is no one matrix a dump can hold
        eye = HermitianMatrix.identity(2)
        with pytest.raises(DimensionError, match=r"\(3,\)"):
            matrix_to_dict(stack([eye, eye, eye]))
