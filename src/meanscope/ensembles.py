"""Seeded random instance generation for the verification harness.

Matrices are built as Q diag(lambda) Q* with Q from the QR factorization of
a seeded Gaussian matrix and eigenvalues log-uniform in
[1/sqrt(kappa), sqrt(kappa)], so the condition number is bounded by
construction.  Every generator is a pure function of (spec, index): the
same seed always reproduces the same bits.  A spec's seed is one seed or a
tuple of seeds; a tuple draws one stack with a leading axis over its seeds,
whose slices have the bits of the draws under each seed alone.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import CONDITION_CAP, PDMatrix, _exact

# random_pd_tuple seeds matrix j of tuple i as i * TUPLE_STRIDE + j, so the
# tuples of one instance stay disjoint only for m <= TUPLE_STRIDE.
TUPLE_STRIDE = 1000
DEFAULT_KAPPA = 1e4     # the default bound on a draw's condition number
SEED_LIMIT = 2**63      # a seed is an integer in [0, SEED_LIMIT)
REGION_STREAM = 3       # the stream sample_region draws (s, t) from


@dataclass(frozen=True)
class EnsembleSpec:
    n: int
    m: int = 1
    field: str = "complex"
    kappa_max: float = DEFAULT_KAPPA
    seed: int | tuple = 0   # one seed, or a tuple: a stack over its seeds

    def __post_init__(self):
        seeds = self.seed if isinstance(self.seed, tuple) else (self.seed,)
        if not seeds:
            raise ValueError("a tuple of seeds holds at least one seed")
        # a bool is an int, and a numpy integer is none but counts as one
        for name, value in (("dimension", self.n), ("tuple length m", self.m),
                            *(("seed", s) for s in seeds)):
            if isinstance(value, bool) or not isinstance(
                    value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if not 1 <= self.m <= TUPLE_STRIDE:
            raise ValueError(
                f"tuple length m must be in [1, {TUPLE_STRIDE}], got {self.m}")
        for s in seeds:
            if not 0 <= s < SEED_LIMIT:
                raise ValueError(f"seed must be in [0, 2**63), got {s}")
        if isinstance(self.seed, tuple):
            # numpy integers of mixed kinds would stack as floats
            object.__setattr__(self, "seed", tuple(map(int, seeds)))
        if self.field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")
        # a draw's condition number comes near kappa_max, which PDMatrix
        # refuses at the cap
        if not 1.0 <= self.kappa_max < CONDITION_CAP:
            raise ValueError(
                f"kappa_max must be >= 1 and below the condition cap "
                f"{CONDITION_CAP:.0e}, got {self.kappa_max}")


def seeded_rng(seed, *index):
    """The generator of stream ``index`` under a seed: random_pd draws
    from stream (0, i), random_ordered_pair from (1, i), random_invertible
    from (2, i), sample_region from (REGION_STREAM,) and the laws from
    (laws.LAW_STREAM, tag).  A key of the run's stream set (open_streams)
    takes its listed state; any other opens numpy's SeedSequence."""
    key = (int(seed),) + tuple(int(i) for i in index)
    state = _RUN_STATES.get(key)
    if state is not None:
        return _generator(state)
    return np.random.default_rng(np.random.SeedSequence(key))


# A draw of fewer streams, not all in the run's stream set, opens each with
# seeded_rng: a seed_states pass costs about 60 us plus 0.25 us a stream, a
# seeded_rng 14-22 us; they cross at 6 to 7 streams (2-vCPU host, numpy
# 2.4.6; one pass took 0.88-1.14x the per-key time at 6, 0.80-0.88x at 7).
BATCH_STREAMS = 7
# numpy's SeedSequence is O'Neill's seed_seq_fe (PCG, HMC-CS-2014-0905): hash
# step k xors in the k-th constant of a run and multiplies by the next; _HASH
# mixes a key into a pool of four words, _DRAW draws the state from it, and
# _MIX holds the multipliers that join two pool words, then every step's shift.
_HASH = np.array([[0x43b0d7e5 * pow(0x931e8875, k, 2**32) % 2**32]
                  for k in range(17)], dtype=np.uint32)
_DRAW = np.array([[0x8b51f9dd * pow(0x58f38ded, k, 2**32) % 2**32]
                  for k in range(9)], dtype=np.uint32)
_MIX = np.array([0xca01f9dd, 0x4973f715, 16], dtype=np.uint32)
_OTHERS = [np.array([d for d in range(4) if d != s]) for s in range(4)]


def _hash(words, consts):
    """Hash the rows of words, row j by consts[j] and consts[j + 1]."""
    words = (words ^ consts[:-1]) * consts[1:]
    return words ^ words >> _MIX[2]


def seed_states(keys):
    """``SeedSequence(key).generate_state(4, np.uint64)`` of each key
    (seed, *index), as the rows of one C-contiguous array, from one pass
    over all of them.  A key's entropy is its seed's one or two 32-bit
    words, then one word per index, zero-padded to the pool of four.  Keys
    of a pass are zero-padded to the longest, which hashes a shorter key as
    itself while its words, padding included, number at most four."""
    keys = np.array(list(itertools.zip_longest(*keys, fillvalue=0)),
                    dtype=np.int64).view(np.uint64)
    low = (keys & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    high = (keys >> np.uint64(32)).astype(np.uint32)
    if high[1:].any() or len(keys) + high[0].any() > 4:
        raise ValueError("a key holds more than four 32-bit words")
    pad = np.zeros((4, low.shape[1]), dtype=np.uint32)
    words = np.concatenate([low[:1], high[:1], low[1:], pad])
    pool = _hash(np.where(high[0] > 0, words[:4], words[[0, 2, 3, 4]]),
                 _HASH[:5])
    for src, dst in enumerate(_OTHERS):
        mixed = (pool[dst] * _MIX[0]
                 - _hash(pool[src], _HASH[4 + 3 * src:8 + 3 * src]) * _MIX[1])
        pool[dst] = mixed ^ mixed >> _MIX[2]
    words = _hash(np.concatenate([pool, pool]), _DRAW).astype(np.uint64)
    # PCG64 reads its state's raw buffer, so each row must be contiguous
    return np.ascontiguousarray((words[0::2] | words[1::2] << np.uint64(32)).T)


@functools.cache
def _fixed_state():
    """The seed sequence that hands PCG64 a state of seed_states, made on
    first use: importing meanscope loads no numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedState(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state
    return FixedState


def _generator(state):
    """The generator of a seed_states row."""
    return np.random.Generator(np.random.PCG64(_fixed_state()(state)))


# The run's stream set: the seed_states row of each key (seed, *index) that
# laws.run_law lists for the trials it is about to draw.  It is module state
# because the samplers open their streams by key alone; run_law empties it
# when it ends, and a key it lacks opens as outside a run.
_RUN_STATES = {}


def open_streams(keys=()):
    """Make the run's stream set that of the keys, from one seed_states pass;
    with no key, empty it."""
    _RUN_STATES.clear()
    if keys:
        _RUN_STATES.update(zip(keys, seed_states(keys)))


def seeded_rngs(seeds, *index):
    """seeded_rng(seed, *i), with its bits, for each seed and each i of the
    product of the index components (numbers or arrays), seeds outermost,
    in C order: from the run's stream set when it lists every key, else
    BATCH_STREAMS or more from one seed_states pass."""
    keys = list(itertools.product(
        *(np.ravel(axis).tolist() for axis in (seeds, *index))))
    states = [_RUN_STATES.get(key) for key in keys]
    if any(state is None for state in states):
        if len(keys) < BATCH_STREAMS:
            return [seeded_rng(*key) for key in keys]
        states = seed_states(keys)
    return [_generator(state) for state in states]


def _gaussian(rng, n, field):
    g = rng.standard_normal((n, n))
    if field == "complex":
        g = g + 1j * rng.standard_normal((n, n))
    return g


def _haar_unitary(g):
    """The unitary factor of the QR factorization of each matrix of a stack,
    with the phase of each column fixed so the factorization is unique."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    phases = np.where(np.abs(d) > 0, d / np.abs(np.where(d == 0, 1, d)), 1.0)
    return q * phases.conj()[..., None, :]


def _streams(spec, index, stream):
    """The generators of a draw's matrices and its stack shape.  The matrix
    of index i under a seed draws from that seed's stream (stream, i).  A
    tuple of seeds adds a leading axis over them to the shape of ``index``;
    the generators run over the seeds, then the indices in C order."""
    return (seeded_rngs(spec.seed, stream, index),
            np.shape(spec.seed) + np.shape(index))


def random_pd(spec, index=0):
    """A random positive definite matrix from the ensemble, drawn from
    stream (0, index).  For an array of indices, or a tuple of seeds, the
    stack of those matrices (see ``_streams``), each from its own stream,
    with one QR, one product and one validation for the whole stack: a
    slice has the bits of the single draw.  At n = 1 a draw is a real
    diagonal, exactly Hermitian and its own spectrum, so it runs no
    asymmetry test."""
    rngs, shape = _streams(spec, index, 0)
    n = spec.n
    half_log = 0.5 * np.log(spec.kappa_max)
    lam = np.array([np.exp(rng.uniform(-half_log, half_log, size=n))
                    for rng in rngs])
    if n == 1:
        return PDMatrix(_exact(
            lam.reshape(shape + (1, 1)).astype(np.complex128)))
    q = _haar_unitary(np.array([_gaussian(rng, n, spec.field)
                                for rng in rngs]))
    a = (q * lam[:, None, :]) @ q.conj().swapaxes(-1, -2)
    return PDMatrix(a.reshape(shape + (n, n)))


def random_pd_tuple(spec, index=0):
    """m independent PD matrices (for the summed inequality instances), as
    one random_pd stack of m; for a sequence of tuple indices, one draw of
    shape (len(index), m), a stack of m per index, after the leading axis
    of a tuple of seeds."""
    return random_pd(spec, np.add.outer(np.multiply(index, TUPLE_STRIDE),
                                        np.arange(spec.m)))


def random_ordered_pair(spec, index=0):
    """(A, B) with A <= B: B = A + G*G for a seeded Gaussian G from stream
    (1, index); for an array of indices or a tuple of seeds, a stack of A
    and one of B."""
    a = random_pd(spec, index)
    rngs, _ = _streams(spec, index, 1)
    g = np.array([_gaussian(rng, spec.n, spec.field) for rng in rngs])
    bump = g.conj().swapaxes(-1, -2) @ g * (0.25 / spec.n)
    b = PDMatrix(a.array + bump.reshape(a.array.shape))
    return a, b


def random_invertible(spec, index=0):
    """A well-conditioned invertible matrix for congruence transforms, from
    stream (2, index); for an array of indices or a tuple of seeds, the
    stack of them."""
    rngs, shape = _streams(spec, index, 2)
    n = spec.n
    draws = [(_gaussian(rng, n, spec.field), _gaussian(rng, n, spec.field),
              np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=n)))
             for rng in rngs]
    gu, gv, sv = (np.array(x) for x in zip(*draws))
    u, v = _haar_unitary(np.stack([gu, gv]))
    c = (u * sv[:, None, :]) @ v.conj().swapaxes(-1, -2)
    return c.reshape(shape + (n, n))


# ---------------------------------------------------------------------------
# Parameter regions over (s, t).
# ---------------------------------------------------------------------------

def _callebaut_pred(s, t):
    return (0.0 <= t <= s <= 0.5) or (0.5 <= s <= t <= 1.0)


def _between_pred(s, t):
    lo, hi = min(t, 1.0 - t), max(t, 1.0 - t)
    return lo <= s <= hi


def _unit_pred(s, t):
    return 0.0 <= s <= 1.0 and 0.0 <= t <= 1.0


REGIONS = {
    "callebaut": _callebaut_pred,
    "between": _between_pred,
    "unit": _unit_pred,
}

# Degenerate parameter choices that every suite exercises at least once;
# the resulting chain links collapse to equalities with margin ~ 0.
REGION_BOUNDARY = {
    "callebaut": [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (0.5, 0.0), (0.5, 1.0)],
    "between": [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)],
    "unit": [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)],
}


def sample_region(region, seed):
    """Rejection-sample an (s, t) pair satisfying the named region predicate."""
    try:
        pred = REGIONS[region]
    except KeyError:
        raise ValueError(f"unknown parameter region {region!r}") from None
    rng = seeded_rng(seed, REGION_STREAM)
    while True:
        s, t = rng.uniform(0.0, 1.0, size=2)
        if pred(s, t):
            return float(s), float(t)
