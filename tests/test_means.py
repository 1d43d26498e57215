import numpy as np
import pytest

import oracle
from meanscope import ensembles, linalg
from meanscope.linalg import (
    HermitianMatrix,
    PDMatrix,
    apply_function,
    congruence,
    loewner_leq,
    power,
    rel_residual,
)
from meanscope import means
from meanscope.means import (
    MeanDescriptor,
    arithmetic,
    dual,
    format_descriptor,
    geomean,
    geometric,
    harmonic,
    mean,
    power_mean,
    power_path,
    representing_fn,
    weighted_geometric,
)
from meanscope.laws import EQUALITY_TOL, SIGMA_ROSTER


# where two descriptors' representing functions are compared
GRID = np.geomspace(0.05, 20.0, 25)


def representing_gap(d1, d2, grid):
    """Largest relative gap |f1 - f2| / max(1, |f1|) between the
    representing functions of d1 and d2 over a grid of points."""
    x = np.asarray(grid, dtype=float)
    f1, f2 = representing_fn(d1)(x), representing_fn(d2)(x)
    return float(np.max(np.abs(f1 - f2) / np.maximum(1.0, np.abs(f1))))


def random_pd(rng, n, spread=3.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    lam = np.exp(rng.uniform(-np.log(spread), np.log(spread), size=n))
    return PDMatrix(HermitianMatrix((q * lam) @ q.conj().T))


FAMILY = [
    arithmetic(), harmonic(), geometric(),
    weighted_geometric(0.25), power_mean(0.5), power_mean(-0.5),
    power_path(0.5, 0.25), weighted_geometric(0.7),
    dual(power_mean(0.5)), dual(weighted_geometric(0.3)),
]


class TestRepresentingFn:
    def test_geometric_value(self):
        assert representing_fn(geometric())(4.0) == pytest.approx(2.0)

    def test_power_one_is_arithmetic(self):
        assert representing_fn(power_mean(1.0))(3.0) == pytest.approx(2.0)

    def test_dual_of_arithmetic_is_harmonic(self):
        f = representing_fn(dual(power_mean(1.0)))
        assert f(3.0) == pytest.approx(1.5)

    @pytest.mark.parametrize("d", FAMILY, ids=format_descriptor)
    def test_normalized_at_one(self, d):
        assert representing_fn(d)(1.0) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("d", FAMILY, ids=format_descriptor)
    def test_monotone_on_grid(self, d):
        f = representing_fn(d)
        grid = np.geomspace(0.01, 100.0, 60)
        vals = [f(float(x)) for x in grid]
        assert all(v1 >= v0 - 1e-12 for v0, v1 in zip(vals, vals[1:]))

    @pytest.mark.parametrize("d", FAMILY, ids=format_descriptor)
    def test_maps_arrays_elementwise(self, d):
        f = representing_fn(d)
        grid = np.geomspace(0.01, 100.0, 30)
        assert np.allclose(f(grid), [f(float(x)) for x in grid],
                           rtol=1e-14, atol=0.0)

    def test_named_means_keep_their_closed_forms_bitwise(self):
        x = np.geomspace(1e-3, 1e3, 4001)

        def power_closed(r):
            return ((1.0 + x ** r) / 2.0) ** (1.0 / r)

        closed = [
            (arithmetic(), (1.0 + x) / 2.0),
            (harmonic(), 2.0 * x / (1.0 + x)),
            (geometric(), np.sqrt(x)),
            (power_mean(0.5), power_closed(0.5)),
            (power_mean(-0.5), power_closed(-0.5)),
            (weighted_geometric(0.25), x ** 0.25),
            (dual(power_mean(0.5)), x / power_closed(0.5)),
        ]
        for d, expected in closed:
            assert np.array_equal(representing_fn(d)(x), expected), d

    def test_representing_gap(self):
        assert representing_gap(geometric(), geometric(),
                                np.geomspace(0.1, 10.0, 9)) == 0.0
        # at x = 4: |2.5 - 2| / 2.5
        assert representing_gap(arithmetic(), geometric(),
                                [1.0, 4.0]) == pytest.approx(0.2)

    def test_power_zero_is_geometric_limit(self):
        assert representing_gap(power_mean(0.0), geometric(), GRID) <= 1e-12
        assert representing_gap(power_path(0.0, 0.3), weighted_geometric(0.3),
                                GRID) <= 1e-12

    @pytest.mark.parametrize("r", [*np.geomspace(means.R_GEOMETRIC_CUTOFF,
                                                 1.0, 9), means.R_LOG1P])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_accurate_for_every_exponent_off_the_geodesic(self, r, sign):
        # within a few units of 1e-15 of the exact value, from the cutoff
        # up, on each side of R_LOG1P, over the eigenvalue range a kappa
        # 1e4 draw reaches; (1 - t + t x^r)^(1/r) as written errs by about
        # 2e-16/|r|, 2e-8 at the cutoff
        x = np.geomspace(1e-4, 1e4, 17)
        for t in (0.3, 0.5, 0.9):
            for d in (power_path(sign * r, t), dual(power_path(sign * r, t))):
                exact = oracle.representing_values(d, x, digits=60)
                got = representing_fn(d)(x)
                err = max(abs((g - e) / e) for g, e in zip(got, exact))
                assert err <= 4e-15, (d, float(err))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            weighted_geometric(1.5)
        with pytest.raises(ValueError):
            power_mean(2.0)
        with pytest.raises(ValueError):
            power_path(0.5, 1.5)
        for r, t, named in ((1.5, 0.5, "exponent"), (np.nan, 0.5, "exponent"),
                            (0.5, -0.1, "path parameter"),
                            (0.5, np.nan, "path parameter")):
            with pytest.raises(ValueError, match=named):
                MeanDescriptor(r, t)


class TestDual:
    def test_geometric_self_dual(self):
        assert representing_gap(dual(geometric()), geometric(), GRID) <= 1e-12

    def test_weighted_geometric_flips(self):
        assert representing_gap(dual(weighted_geometric(0.3)),
                                weighted_geometric(0.7), GRID) <= 1e-12

    def test_power_negates_exponent(self):
        assert representing_gap(dual(power_mean(0.4)), power_mean(-0.4),
                                GRID) <= 1e-12

    @pytest.mark.parametrize("r, u", [(0.0, 0.3), (0.05, 0.6), (0.5, 0.25),
                                      (-0.4, 0.8), (1.0, 0.5), (-1.0, 0.1),
                                      (0.7, 1.0), (-0.3, 0.0)])
    def test_dual_of_a_path_point_is_the_mirrored_point(self, r, u):
        # dual(m_{r,u}) = m_{-r,1-u} (Kubo and Ando, Math. Ann. 1980): the
        # power-mean path is self-dual, dual(sigma_u) = sigma_{1-u}, only
        # at r = 0, the premise of path-monotonicity's hypothesis
        assert representing_gap(dual(power_path(r, u)),
                                power_path(-r, 1.0 - u), GRID) <= 1e-12

    @pytest.mark.parametrize("s, t", [(0.5, 0.5), (0.3, 0.9), (0.45, 0.2)])
    def test_dual_symmetry_residual_fails_exactly_off_the_geodesic(self, s, t):
        # the residual of dual(sigma_u) = sigma_{1-u} that path-monotonicity
        # once sampled, at u in {t, s, 0.25}: above EQUALITY_TOL wherever
        # the exponent leaves the geodesic, and within it on the geodesic
        def residual(r):
            return max(representing_gap(power_path(r, 1.0 - u),
                                        dual(power_path(r, u)),
                                        np.geomspace(0.1, 10.0, 9))
                       for u in (t, s, 0.25))

        off = np.geomspace(means.R_GEOMETRIC_CUTOFF, 1.0, 60)
        for r in (*off, *-off):
            assert residual(r) > EQUALITY_TOL, r
        for r in (0.0, 0.5 * means.R_GEOMETRIC_CUTOFF,
                  -0.5 * means.R_GEOMETRIC_CUTOFF):
            assert residual(r) <= EQUALITY_TOL, r

    def test_involution(self):
        for d in FAMILY:
            assert dual(dual(d)) == d
            assert dual(d) != d

    def test_harmonic_is_dual_of_arithmetic(self):
        assert harmonic() == dual(arithmetic())
        assert dual(harmonic()) == arithmetic()


class TestMean:
    def test_geometric_from_identity(self):
        out = mean(geometric(), PDMatrix.identity(2),
                   PDMatrix(HermitianMatrix(np.diag([4.0, 9.0]))))
        assert np.allclose(out.array, np.diag([2.0, 3.0]))

    def test_weighted_geometric_scalar(self):
        out = mean(weighted_geometric(1.0 / 3.0),
                   PDMatrix(HermitianMatrix([[1.0]])),
                   PDMatrix(HermitianMatrix([[8.0]])))
        assert out.array[0, 0].real == pytest.approx(2.0)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        a = random_pd(rng, 3)
        for d in FAMILY:
            assert rel_residual(mean(d, a, a), a) <= 1e-11

    def test_identity_scaling(self):
        # mean(d, I, tI) = f(t) I
        for d in FAMILY:
            f = representing_fn(d)
            out = mean(d, PDMatrix.identity(2), PDMatrix(2.5 * HermitianMatrix.identity(2)))
            assert np.allclose(out.array, f(2.5) * np.eye(2), atol=1e-12)

    def test_matches_sandwich_formula(self):
        # A sigma B = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2}
        rng = np.random.default_rng(4)
        a = random_pd(rng, 4)
        b = random_pd(rng, 4)
        half, inv_half = power(a, 0.5).array, power(a, -0.5).array
        middle = PDMatrix(inv_half @ b.array @ inv_half)
        for d in FAMILY:
            fm = apply_function(middle, representing_fn(d)).array
            expected = HermitianMatrix(half @ fm @ half)
            assert rel_residual(mean(d, a, b), expected) <= 1e-12

    def test_matches_exact_mean(self):
        # the default ensemble (kappa 1e4) against 30-digit arithmetic
        for n in range(1, 7):
            for seed in range(3):
                spec = ensembles.EnsembleSpec(n=n, seed=seed)
                a, b = ensembles.random_pd(spec, 0), ensembles.random_pd(spec, 1)
                for d, exact in zip(FAMILY, oracle.means(FAMILY, a, b)):
                    err = np.linalg.norm(mean(d, a, b).array - exact)
                    assert err <= 1e-10 * np.linalg.norm(exact), (n, seed, d)

    def test_ill_conditioned_first_argument(self):
        # A^{-1/2} B A^{-1/2} is Hermitian only up to round-off that grows
        # with cond(A); with B near A it is near I, and that round-off is
        # far above the 1e-13 slack HermitianMatrix allows its input
        for seed in range(10):
            a = random_pd(np.random.default_rng(seed), 3, spread=10 ** 3.5)
            b = PDMatrix(a.array + 1e-3 * np.eye(3))
            for d in FAMILY:
                out = mean(d, a, b)      # A <= B, so A <= A sigma B <= B
                assert loewner_leq(a, out).holds and loewner_leq(out, b).holds

    def test_builds_two_matrices(self, monkeypatch):
        # the middle factor and the result; f(middle) is never a matrix
        rng = np.random.default_rng(5)
        a = random_pd(rng, 3)
        b = random_pd(rng, 3)
        a.decomposition()
        built = []
        init, exact = HermitianMatrix.__init__, linalg._exact

        def counted(self, entries):
            built.append(self)
            init(self, entries)

        def counted_exact(entries, spec=None):
            built.append(exact(entries, spec))
            return built[-1]

        # a matrix is built validated or, when computed from validated
        # ones, through linalg._exact, which means imports by name
        monkeypatch.setattr(HermitianMatrix, "__init__", counted)
        monkeypatch.setattr(linalg, "_exact", counted_exact)
        monkeypatch.setattr(means, "_exact", counted_exact)
        out = mean(power_mean(0.5), a, b)
        assert len(built) == 2 and built[-1].array is out.array

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_result_is_the_hermitian_part_of_its_product(self, n):
        # C diag(f(L)) C*, for M = A^{-1/2} B A^{-1/2} = U L U* and
        # C = A^{1/2} U, kept as its Hermitian part bit for bit and not
        # validated again
        rng = np.random.default_rng(30 + n)
        a, b = random_pd(rng, n, spread=30.0), random_pd(rng, n, spread=30.0)
        spec = a.decomposition()
        root = np.sqrt(spec.eigenvalues)
        inv_half = linalg.congruence_diag(spec.unitary, 1.0 / root)
        middle = congruence(inv_half, b).decomposition()
        c = linalg.congruence_diag(spec.unitary, root) @ middle.unitary
        for d in FAMILY:
            values = representing_fn(d)(middle.eigenvalues)
            raw = (c * values[None, :]) @ c.conj().T
            part = (raw + raw.conj().T) / 2.0
            assert mean(d, a, b).array.tobytes() == part.tobytes(), d

    def test_geometric_mean_riccati(self):
        rng = np.random.default_rng(2)
        a = random_pd(rng, 3)
        b = random_pd(rng, 3)
        x = geomean(a, b)
        recon = x.array @ np.linalg.inv(a.array) @ x.array
        assert np.linalg.norm(recon - b.array) <= 1e-9 * max(1, b.norm_2())

    def test_congruence_equivariance(self):
        rng = np.random.default_rng(3)
        a = random_pd(rng, 3)
        b = random_pd(rng, 3)
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for d in FAMILY:
            lhs = congruence(c, mean(d, a, b))
            rhs = mean(d, PDMatrix(congruence(c, a)),
                       PDMatrix(congruence(c, b)))
            assert rel_residual(lhs, rhs) <= 1e-9

    def test_scalar_consistency(self):
        a = PDMatrix(HermitianMatrix([[3.0]]))
        b = PDMatrix(HermitianMatrix([[7.0]]))
        for d in FAMILY:
            f = representing_fn(d)
            expected = 3.0 * f(7.0 / 3.0)
            got = mean(d, a, b).array[0, 0].real
            assert got == pytest.approx(expected, rel=1e-13)


# one point per path branch: the geodesic, the log1p range and beyond
PATH_POINTS = (power_path(0.0, 0.3), power_path(1e-9, 0.6),
               power_path(0.004, 0.2), power_path(-0.3, 0.75),
               power_path(0.8, 0.45), power_path(-1.0, 0.1),
               dual(power_path(0.5, 0.35)))


def pair_stack(n, k, seed=6):
    spec = ensembles.EnsembleSpec(n=n, seed=seed)
    return (ensembles.random_pd(spec, np.arange(k)),
            ensembles.random_pd(spec, np.arange(k, 2 * k)))


class TestPerSliceMean:
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("ds", [SIGMA_ROSTER * 2, PATH_POINTS],
                             ids=["roster", "path-points"])
    def test_slice_is_the_mean_of_that_slice_alone(self, n, ds):
        a, b = pair_stack(n, len(ds))
        out = mean(linalg.PerSlice(ds), a, b)
        assert out.stack_shape == (len(ds),)
        for k, d in enumerate(ds):
            alone = mean(d, a[k], b[k])
            assert np.array_equal(out[k].array, alone.array), (k, d)

    def test_list_form_stacks_the_same_slices(self):
        ds = linalg.PerSlice(PATH_POINTS)
        a, b = pair_stack(3, len(ds))
        out = mean([geometric(), ds], a, b)
        assert out.stack_shape == (2, len(ds))
        assert np.array_equal(out[0].array, mean(geometric(), a, b).array)
        assert np.array_equal(out[1].array, mean(ds, a, b).array)


class TestPathPoint:
    def test_arithmetic_path_scalars(self):
        a = PDMatrix(HermitianMatrix([[2.0]]))
        b = PDMatrix(HermitianMatrix([[10.0]]))
        for t in (0.0, 0.3, 1.0):
            got = mean(power_path(1.0, t), a, b).array[0, 0].real
            assert got == pytest.approx((1 - t) * 2.0 + t * 10.0)

    def test_geometric_midpoint(self):
        out = mean(power_path(0.0, 0.5), PDMatrix.identity(1),
                   PDMatrix(HermitianMatrix([[16.0]])))
        assert out.array[0, 0].real == pytest.approx(4.0)

    def test_scalar_power_path(self):
        # (1 - 1/3 + (1/3) * 9^{1/2})^2 = (5/3)^2 = 25/9
        out = mean(power_path(0.5, 1.0 / 3.0),
                   PDMatrix(HermitianMatrix([[1.0]])),
                   PDMatrix(HermitianMatrix([[9.0]])))
        assert out.array[0, 0].real == pytest.approx(25.0 / 9.0)

    def test_endpoints(self):
        rng = np.random.default_rng(4)
        a = random_pd(rng, 3)
        b = random_pd(rng, 3)
        for r in (-0.8, 0.0, 0.6):
            assert rel_residual(mean(power_path(r, 0.0), a, b), a) <= 1e-11
            assert rel_residual(mean(power_path(r, 1.0), a, b), b) <= 1e-11

    def test_midpoint_interpolation(self):
        rng = np.random.default_rng(5)
        a = random_pd(rng, 3)
        b = random_pd(rng, 3)
        r, p, q = 0.5, 0.2, 0.8
        lhs = mean(power_mean(r), mean(power_path(r, p), a, b),
                   mean(power_path(r, q), a, b))
        rhs = mean(power_path(r, (p + q) / 2), a, b)
        assert rel_residual(lhs, rhs) <= 1e-9

    def test_geodesic_reparametrization(self):
        rng = np.random.default_rng(6)
        a = random_pd(rng, 3)
        b = random_pd(rng, 3)
        p, q, r = 0.15, 0.85, 0.4
        x = mean(power_path(0.0, p), a, b)
        y = mean(power_path(0.0, q), a, b)
        lhs = mean(weighted_geometric(r), x, y)
        rhs = mean(power_path(0.0, (1 - r) * p + r * q), a, b)
        assert rel_residual(lhs, rhs) <= 1e-9

    def test_rejects_out_of_range_exponent(self):
        rng = np.random.default_rng(7)
        a = random_pd(rng, 2)
        with pytest.raises(ValueError):
            mean(power_path(1.5, 0.5), a, a)


class TestGrammar:
    @pytest.mark.parametrize("d, text", [
        pytest.param(d, text, id=text) for d, text in [
            (arithmetic(), "arithmetic"), (harmonic(), "harmonic"),
            (geometric(), "geometric"),
            (weighted_geometric(0.25), "wgeo:0.25"),
            (power_mean(0.5), "power:0.5"), (power_mean(-0.5), "power:-0.5"),
            (power_path(0.5, 0.25), "path:r=0.5,t=0.25"),
            (dual(power_mean(0.5)), "dual(power:0.5)")]
    ] + [
        # a double dual is the mean itself, and is written as it
        pytest.param(dual(dual(weighted_geometric(0.3))), "wgeo:0.3",
                     id="dual(dual(wgeo:0.3))"),
    ])
    def test_roundtrip(self, d, text):
        assert format_descriptor(d) == text

    def test_print_parse_fixpoint(self):
        # one spelling per mean: distinct means are written apart, and a
        # mean is written as its double dual is
        written = [format_descriptor(d) for d in FAMILY]
        assert len(set(written)) == len(FAMILY) == len(set(FAMILY))
        for d, text in zip(FAMILY, written):
            assert format_descriptor(dual(dual(d))) == text
