"""Properties that hold for every input, checked on generated ones.

``derandomize=True`` makes hypothesis draw the same examples on every run,
so these tests are as deterministic as the rest of the suite.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanscope import ensembles, laws, means
from meanscope.laws import EQUALITY_TOL, LAW_STREAM
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


stream_indices = st.one_of(
    st.tuples(st.integers(0, 2), st.lists(st.integers(0, 2**32 - 1),
                                          min_size=1, max_size=12)),
    st.just((3,)),
    st.tuples(st.just(LAW_STREAM), st.integers(1, 9)))


@deterministic
@given(st.lists(seeds, min_size=1, max_size=12), stream_indices)
def test_batched_states_are_seed_sequence_states(seed_list, index):
    # every draw opens its streams through seed_states or seeded_rng, which
    # must agree with numpy's SeedSequence key by key
    keys = [(seed, *rest) for seed in seed_list
            for rest in itertools.product(*map(np.ravel, index))]
    states = ensembles.seed_states(keys)
    rngs = ensembles.seeded_rngs(seed_list, *index)
    assert len(states) == len(rngs) == len(keys)
    for key, state, rng in zip(keys, states, rngs):
        want = np.random.SeedSequence(key).generate_state(4, np.uint64)
        assert state.tobytes() == want.tobytes()
        assert (rng.standard_normal(2).tobytes()
                == ensembles.seeded_rng(*key).standard_normal(2).tobytes())


def arrays(draw):
    """The arrays of a draw: a stack, an array or a pair of stacks."""
    return [getattr(x, "array", x)
            for x in (draw if isinstance(draw, tuple) else (draw,))]


@deterministic
@given(specs, st.lists(st.integers(0, 2000), min_size=1, max_size=4),
       st.lists(seeds, min_size=1, max_size=4), st.integers(1, 3))
def test_stacked_draw_slices_are_single_draws(spec, indices, chunk, m):
    # a trial draws its instance's matrices as one stack, a chunk its
    # trials' draws as one stack over a tuple of seeds, and repro replays a
    # trial from its seed: each slice has the bits of its single draw
    for x, i in zip(ensembles.random_pd(spec, indices), indices):
        y = ensembles.random_pd(spec, i)
        dx, dy = x.decomposition(), y.decomposition()
        for u, v in ((x.array, y.array), (dx.eigenvalues, dy.eigenvalues),
                     (dx.unitary, dy.unitary)):
            assert u.tobytes() == v.tobytes()
    stacked = dataclasses.replace(spec, m=m, seed=tuple(chunk))
    for draw in (ensembles.random_pd, ensembles.random_pd_tuple,
                 ensembles.random_ordered_pair, ensembles.random_invertible):
        whole = arrays(draw(stacked, indices))
        for k, seed in enumerate(chunk):
            alone = arrays(draw(dataclasses.replace(stacked, seed=seed),
                                indices))
            for x, y in zip(whole, alone, strict=True):
                assert x.shape == (len(chunk),) + y.shape
                assert x[k].tobytes() == y.tobytes()


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


@deterministic
@given(st.sampled_from(laws.law_names()), st.integers(0, 15),
       st.one_of(st.none(), st.integers(1, 6)),
       st.one_of(st.none(), st.integers(1, 4)), st.integers(1, 12), seeds,
       st.sampled_from(["real", "complex"]))
def test_a_run_has_the_bits_of_streams_opened_alone(name, law_index, n, m,
                                                    trials, master, field):
    # run_law opens its trials' streams ahead, in one pass per window; with
    # its stream set left empty every stream opens alone, to the same entry
    args = (name, law_index, master, trials, n, m, field, 1e4,
            laws.DEFAULT_TOL)
    entries = [laws.run_law(*args)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(laws, "open_streams", lambda keys=(): None)
        entries.append(laws.run_law(*args))
    for entry in entries:
        del entry["wall_sec"]
    first, alone = (json.dumps(entry, sort_keys=True) for entry in entries)
    assert first == alone
