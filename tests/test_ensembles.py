import itertools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import meanscope
from meanscope import ensembles
from meanscope.ensembles import (
    BATCH_STREAMS,
    REGIONS,
    REGION_BOUNDARY,
    TUPLE_STRIDE,
    EnsembleSpec,
    open_streams,
    random_invertible,
    random_ordered_pair,
    random_pd,
    random_pd_tuple,
    sample_region,
    seed_states,
    seeded_rng,
    seeded_rngs,
)
from meanscope.laws import LAW_STREAM, child_seed, child_seeds
from meanscope.linalg import PDMatrix, loewner_leq


def gaussian_2d(rng, spec):
    g = rng.standard_normal((spec.n, spec.n))
    if spec.field == "complex":
        g = g + 1j * rng.standard_normal((spec.n, spec.n))
    return g


def draw_2d(spec, index):
    """random_pd's matrix by the 2-D formula, one matrix at a time: the
    reference that a slice of a stacked draw equals bit for bit."""
    rng = seeded_rng(spec.seed, 0, index)
    half_log = 0.5 * np.log(spec.kappa_max)
    lam = np.exp(rng.uniform(-half_log, half_log, size=spec.n))
    if spec.n == 1:
        return PDMatrix([[lam[0]]])
    q, r = np.linalg.qr(gaussian_2d(rng, spec))
    d = np.diagonal(r)
    q = q * (d / np.abs(d)).conj()
    return PDMatrix((q * lam) @ q.conj().T)


def assert_same_bits(x, y):
    """Entries, eigenvalues and eigenvectors agree to the last bit."""
    dx, dy = x.decomposition(), y.decomposition()
    for u, v in ((x.array, y.array), (dx.eigenvalues, dy.eigenvalues),
                 (dx.unitary, dy.unitary)):
        assert u.shape == v.shape and u.tobytes() == v.tobytes()


class TestRandomPD:
    def test_scalar_range(self):
        spec = EnsembleSpec(n=1, kappa_max=100.0, seed=5)
        a = random_pd(spec).array[0, 0].real
        assert 0.1 <= a <= 10.0

    def test_kappa_one_gives_identity(self):
        spec = EnsembleSpec(n=4, kappa_max=1.0, seed=6)
        a = random_pd(spec)
        lam = a.decomposition().eigenvalues
        assert np.allclose(lam, lam[0])

    def test_deterministic(self):
        spec = EnsembleSpec(n=4, seed=42)
        a1 = random_pd(spec)
        a2 = random_pd(spec)
        assert np.array_equal(a1.array, a2.array)

    def test_distinct_indices_differ(self):
        spec = EnsembleSpec(n=4, seed=42)
        assert not np.array_equal(random_pd(spec, 0).array,
                                  random_pd(spec, 1).array)

    def test_condition_bounded(self):
        for seed in range(10):
            spec = EnsembleSpec(n=5, kappa_max=1e3, seed=seed)
            lam = random_pd(spec).decomposition().eigenvalues
            assert lam[-1] / lam[0] <= 1e3 * 1.01

    def test_real_field(self):
        spec = EnsembleSpec(n=4, field="real", seed=3)
        assert np.max(np.abs(random_pd(spec).array.imag)) <= 1e-14

    def test_tuple_length(self):
        spec = EnsembleSpec(n=3, m=4, seed=9)
        mats = random_pd_tuple(spec)
        assert len(mats) == 4

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            EnsembleSpec(n=0)
        with pytest.raises(ValueError):
            EnsembleSpec(n=2, field="quaternion")
        with pytest.raises(ValueError):
            EnsembleSpec(n=2, kappa_max=0.5)
        for kappa in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                EnsembleSpec(n=2, kappa_max=kappa)
        # matrix j of tuple i is seeded i * TUPLE_STRIDE + j: a longer tuple
        # would reuse the next tuple's matrices
        EnsembleSpec(n=2, m=TUPLE_STRIDE)
        with pytest.raises(ValueError):
            EnsembleSpec(n=2, m=TUPLE_STRIDE + 1)
        # a seed of another type would draw the streams of int(seed)
        for seed in (1.7, True, "1", None):
            with pytest.raises(ValueError, match="seed must be an integer"):
                EnsembleSpec(n=2, seed=seed)
        assert EnsembleSpec(n=2, seed=np.uint64(2**63 - 1)).seed == 2**63 - 1

    @pytest.mark.parametrize("bad, message", [
        (-1, r"seed must be in \[0, 2\*\*63\), got -1$"),
        (2**63, r"seed must be in \[0, 2\*\*63\), got 9223372036854775808$"),
        (True, r"seed must be an integer, got True$"),
        (1.5, r"seed must be an integer, got 1\.5$")])
    @pytest.mark.parametrize("at", [0, 2])
    def test_a_tuple_of_seeds_refuses_each_bad_seed(self, bad, message, at):
        # each seed of a tuple is checked as a seed alone is, and the
        # message names the one refused
        seeds = [4, 5, 6]
        seeds[at] = bad
        for seed in (bad, tuple(seeds)):
            with pytest.raises(ValueError, match=message):
                EnsembleSpec(n=2, seed=seed)

    def test_an_empty_tuple_of_seeds_is_refused(self):
        with pytest.raises(ValueError, match="holds at least one seed"):
            EnsembleSpec(n=2, seed=())


class TestStackedDraws:
    # an instance's matrices are drawn as one stack; each slice must be the
    # matrix a draw of its index alone gives
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kappa", [1.0, 1e4])
    def test_slices_equal_single_draws(self, n, field, kappa):
        spec = EnsembleSpec(n=n, m=3, field=field, kappa_max=kappa, seed=11)
        indices = [0, 1, 2, 7, 1001]
        whole = random_pd(spec, indices)
        assert whole.stack_shape == (5,)
        assert random_pd(spec, 7).stack_shape == ()
        for i, x in zip(indices, whole):
            assert_same_bits(x, random_pd(spec, i))
            assert_same_bits(x, draw_2d(spec, i))

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kappa", [1.0, 1e4])
    def test_ordered_pairs_and_tuples_equal_single_draws(self, n, field,
                                                         kappa):
        spec = EnsembleSpec(n=n, m=3, field=field, kappa_max=kappa, seed=12)
        lower, upper = random_ordered_pair(spec, [0, 4])
        for k, i in enumerate([0, 4]):
            a, b = random_ordered_pair(spec, i)
            g = gaussian_2d(seeded_rng(spec.seed, 1, i), spec)
            reference = PDMatrix(draw_2d(spec, i).array
                                 + g.conj().T @ g * (0.25 / n))
            assert_same_bits(lower[k], a)
            assert_same_bits(upper[k], b)
            assert_same_bits(upper[k], reference)
        tuples = random_pd_tuple(spec, [0, 1])
        assert [t.stack_shape for t in tuples] == [(3,), (3,)]
        for t, whole in enumerate(tuples):
            for j, (x, y) in enumerate(zip(whole, random_pd_tuple(spec, t))):
                assert_same_bits(x, y)
                assert_same_bits(x, draw_2d(spec, t * TUPLE_STRIDE + j))

    # a chunk of trials is drawn as one stack over a tuple of seeds; each
    # slice must be the draw under its seed alone, whatever integer types
    # the seeds have (int64 and uint64 together would stack as floats)
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_chunk_draws_equal_single_draws(self, n, field):
        chunk = EnsembleSpec(n=n, m=3, field=field, seed=(
            0, np.uint64(5), np.int64(2**62 + 1), 5))
        specs = [replace(chunk, seed=seed) for seed in chunk.seed]
        for draw, index in ((random_pd, [[0], [1]]), (random_pd, 3),
                            (random_pd_tuple, [0, 1]), (random_pd_tuple, 0)):
            whole = draw(chunk, index)
            assert whole.stack_shape == (4,) + draw(specs[0], index).stack_shape
            for x, spec in zip(whole, specs):
                assert_same_bits(x, draw(spec, index))
        lower, upper = random_ordered_pair(chunk, [0, 1])
        cmats = random_invertible(chunk, 0)
        assert cmats.shape == (4, n, n)
        for k, spec in enumerate(specs):
            a, b = random_ordered_pair(spec, [0, 1])
            assert_same_bits(lower[k], a)
            assert_same_bits(upper[k], b)
            assert cmats[k].tobytes() == random_invertible(spec, 0).tobytes()


class TestOrderedPair:
    def test_order_holds(self):
        for seed in range(20):
            spec = EnsembleSpec(n=4, seed=seed)
            a, b = random_ordered_pair(spec)
            assert loewner_leq(a, b).margin >= -1e-12

    def test_scalar_case(self):
        spec = EnsembleSpec(n=1, seed=2)
        a, b = random_ordered_pair(spec)
        assert b.array[0, 0].real >= a.array[0, 0].real

    def test_deterministic(self):
        spec = EnsembleSpec(n=3, seed=8)
        a1, b1 = random_ordered_pair(spec)
        a2, b2 = random_ordered_pair(spec)
        assert np.array_equal(a1.array, a2.array)
        assert np.array_equal(b1.array, b2.array)


class TestInvertible:
    def test_well_conditioned(self):
        spec = EnsembleSpec(n=4, seed=1)
        c = random_invertible(spec)
        sv = np.linalg.svd(c, compute_uv=False)
        assert sv[0] / sv[-1] <= 16.0 * 1.01


class TestRegions:
    def test_callebaut_sample_satisfies_predicate(self):
        for seed in range(50):
            s, t = sample_region("callebaut", seed)
            assert REGIONS["callebaut"](s, t)

    def test_between_sample(self):
        for seed in range(50):
            s, t = sample_region("between", seed)
            assert min(t, 1 - t) <= s <= max(t, 1 - t)

    def test_boundary_points_are_in_region(self):
        for name, pts in REGION_BOUNDARY.items():
            for s, t in pts:
                assert REGIONS[name](s, t), (name, s, t)

    def test_deterministic(self):
        assert sample_region("callebaut", 7) == sample_region("callebaut", 7)

    def test_unknown_region(self):
        with pytest.raises(ValueError):
            sample_region("nope", 0)


# seeds at the edges of one and two 32-bit words, and two others
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 12345, 6055626436053132691]
# the index of every kind of stream a draw opens: random_pd's (0, i),
# random_ordered_pair's (1, i), random_invertible's (2, i), sample_region's
# (3,) and a law's (LAW_STREAM, tag)
INDEX_FORMS = [(0, [0, 1, 7, 1001, 2**32 - 1]), (1, range(3)), (2, 0), (3,),
               (LAW_STREAM, [1, 9])]


def keys_of(seeds, *index):
    """The keys (seed, *i) of seeded_rngs, in its order."""
    return list(itertools.product(seeds, *map(np.ravel, index)))


class TestBatchedSeeding:
    # seeded_rng opens the stream of a key with numpy's SeedSequence; the
    # batched pass must give the states and the draws numpy gives, key by key
    @pytest.mark.parametrize("index", INDEX_FORMS)
    def test_states_are_seed_sequence_states(self, index):
        keys = keys_of(EDGE_SEEDS, *index)
        states = seed_states(keys)
        assert states.shape == (len(keys), 4) and states.dtype == np.uint64
        for key, state in zip(keys, states):
            want = np.random.SeedSequence(tuple(map(int, key)))
            assert state.tobytes() == want.generate_state(4, np.uint64).tobytes()

    # below BATCH_STREAMS streams a draw opens each with seeded_rng, from
    # there on with one seed_states pass
    @pytest.mark.parametrize("seeds, index", [
        ([7], (0, range(BATCH_STREAMS - 1))),
        ([7], (0, range(BATCH_STREAMS))),
        (EDGE_SEEDS[:2], (1, range(3))),
        (EDGE_SEEDS, (3,)),
        (EDGE_SEEDS, (LAW_STREAM, 6)),
        (EDGE_SEEDS, (0, np.arange(40).reshape(8, 5))),
    ])
    def test_generators_draw_as_seeded_rng(self, seeds, index, monkeypatch):
        passes = []
        batched = ensembles.seed_states

        def counted(*args):
            passes.append(args)
            return batched(*args)

        monkeypatch.setattr(ensembles, "seed_states", counted)
        keys = keys_of(seeds, *index)
        rngs = seeded_rngs(seeds, *index)
        assert len(passes) == (len(keys) >= BATCH_STREAMS)
        assert len(rngs) == len(keys)
        for key, rng in zip(keys, rngs):
            assert (rng.random(3).tobytes()
                    == seeded_rng(*key).random(3).tobytes()), key

    def test_pcg64_gets_contiguous_states(self, monkeypatch):
        # PCG64 reads its state's raw buffer: a strided row (a transposed
        # array's, say) would seed it with other words
        given = []
        pcg64 = np.random.PCG64

        def recording(seed_seq):
            given.append(seed_seq.generate_state(4, np.uint64))
            return pcg64(seed_seq)

        monkeypatch.setattr(np.random, "PCG64", recording)
        seeded_rngs(EDGE_SEEDS, 0, range(4))
        assert len(given) == 4 * len(EDGE_SEEDS)
        for state in given:
            assert state.dtype == np.uint64 and state.shape == (4,)
            assert state.flags.c_contiguous

    def test_keys_of_mixed_lengths_share_a_pass(self):
        # a run's pass holds region keys (seed, 3) beside (seed, stream, i):
        # a shorter key is zero-padded to the longest, which hashes it as
        # itself while it fills at most four words
        keys = [(seed, *index) for seed in EDGE_SEEDS
                for index in [(3,), (0, 7), (LAW_STREAM, 9), ()]]
        for key, state in zip(keys, seed_states(keys), strict=True):
            want = np.random.SeedSequence(key).generate_state(4, np.uint64)
            assert state.tobytes() == want.tobytes(), key

    def test_the_run_set_opens_its_keys_with_their_bits(self, monkeypatch):
        # while a run's stream set lists a key, seeded_rng and seeded_rngs
        # open it from its listed state and build no SeedSequence
        keys = [tuple(map(int, key)) for key in
                keys_of(EDGE_SEEDS, 0, range(3)) + keys_of(EDGE_SEEDS, 3)]
        want = [seeded_rng(*key).random(3).tobytes() for key in keys]
        try:
            open_streams(keys)
            monkeypatch.setattr(np.random, "SeedSequence", None)
            got = [seeded_rng(*key).random(3).tobytes() for key in keys]
            many = [rng.random(3).tobytes() for index in ((0, range(3)), (3,))
                    for rng in seeded_rngs(EDGE_SEEDS, *index)]
        finally:
            open_streams()
        assert got == many == want
        assert not ensembles._RUN_STATES

    def test_a_key_longer_than_four_words_is_refused(self):
        with pytest.raises(ValueError, match="more than four 32-bit words"):
            seed_states([(2**32, 0, 1, 2)])
        with pytest.raises(ValueError, match="more than four 32-bit words"):
            seed_states([(1, 0, 2**32)])
        # a pass pads each key to the longest: (2**32, 0, 1) would fill five
        with pytest.raises(ValueError, match="more than four 32-bit words"):
            seed_states([(1, 0, 1, 2), (2**32, 0, 1)])

    @pytest.mark.parametrize("master", EDGE_SEEDS)
    @pytest.mark.parametrize("law_index", [0, 15])
    @pytest.mark.parametrize("trials", [1, BATCH_STREAMS, 70])
    def test_trial_seeds_are_child_seeds(self, master, law_index, trials):
        assert child_seeds(master, law_index, trials) == [
            child_seed(master, law_index, k) for k in range(trials)]

    def test_import_leaves_numpy_random_unloaded(self):
        # numpy >= 2 loads numpy.random on first use; meanscope does not
        # use it at import time (numpy 1.x loads it with numpy itself)
        code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
                "import meanscope; "
                "print(before, 'numpy.random' in sys.modules)")
        env = {**os.environ,
               "PYTHONPATH": str(Path(meanscope.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        before, after = out.stdout.split()
        assert after == before
