"""Properties that hold for every input, checked on generated ones.

``derandomize=True`` makes hypothesis draw the same examples on every run,
so these tests are as deterministic as the rest of the suite.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from meanscope import ensembles, means
from meanscope.laws import EQUALITY_TOL
from meanscope.linalg import (HermitianMatrix, PDMatrix, congruence,
                              loewner_leq, rel_residual)

deterministic = settings(derandomize=True, max_examples=40, deadline=None,
                         database=None)

unit = st.floats(0.0, 1.0)
exponent = st.floats(-1.0, 1.0)

simple_descriptors = st.one_of(
    st.sampled_from([means.arithmetic(), means.harmonic(), means.geometric()]),
    st.builds(means.weighted_geometric, unit),
    st.builds(means.power_mean, exponent),
    st.builds(means.power_path, exponent, unit),
)
descriptors = st.recursive(simple_descriptors,
                           lambda inner: st.builds(means.dual, inner),
                           max_leaves=3)

seeds = st.integers(0, 2**63 - 1)
specs = st.builds(ensembles.EnsembleSpec, n=st.integers(1, 5),
                  field=st.sampled_from(["real", "complex"]),
                  kappa_max=st.floats(1.0, 1e4), seed=seeds)


@st.composite
def small_integer_hermitian(draw, n):
    """A Hermitian matrix with small integer entries: its sums and
    differences are exact, so B - A = cI holds to the last bit."""
    entries = st.integers(-4, 4)
    re = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)))
    im = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)))
    g = (re + 1j * im).reshape(n, n)
    return HermitianMatrix(g + g.conj().T)


@deterministic
@given(descriptors, descriptors)
def test_descriptor_format_parse_roundtrip(d1, d2):
    # one spelling per mean: two descriptors are written alike exactly when
    # they are equal, and a double dual is written as the mean itself
    text = means.format_descriptor(d1)
    assert (text == means.format_descriptor(d2)) == (d1 == d2)
    assert means.format_descriptor(means.dual(means.dual(d1))) == text


@deterministic
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(small_integer_hermitian(n), small_integer_hermitian(n))))
def test_loewner_margins_bracket_the_spectrum(pair):
    # margin(A <= B) is lambda_min(B - A) and -margin(B <= A) is its
    # lambda_max: they are ordered, and apart unless B - A is scalar
    a, b = pair
    assert loewner_leq(a, b).margin <= -loewner_leq(b, a).margin


@deterministic
@given(st.integers(1, 5).flatmap(small_integer_hermitian), st.integers(-8, 8))
def test_loewner_margins_equal_for_scalar_gap(a, c):
    b = a + c * HermitianMatrix.identity(a.n)
    assert loewner_leq(a, b).margin == -loewner_leq(b, a).margin == c


@deterministic
@given(specs, st.integers(0, 2000))
def test_random_pd_is_bitwise_deterministic(spec, index):
    first = ensembles.random_pd(spec, index)
    ensembles.random_pd(spec, index + 1)       # no state carries over
    again = ensembles.random_pd(ensembles.EnsembleSpec(
        n=spec.n, field=spec.field, kappa_max=spec.kappa_max, seed=spec.seed),
        index)
    assert np.array_equal(first.array, again.array)


@deterministic
@given(descriptors, st.integers(1, 5), seeds)
def test_mean_is_congruence_equivariant(d, n, seed):
    # C* (A sigma B) C = (C* A C) sigma (C* B C) for invertible C
    spec = ensembles.EnsembleSpec(n=n, seed=seed)
    a, b = ensembles.random_pd(spec, 0), ensembles.random_pd(spec, 1)
    c = ensembles.random_invertible(spec)
    lhs = congruence(c, means.mean(d, a, b))
    rhs = means.mean(d, PDMatrix(congruence(c, a)), PDMatrix(congruence(c, b)))
    assert rel_residual(lhs, rhs) <= EQUALITY_TOL
