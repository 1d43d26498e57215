"""Seeded random instance generation for the verification harness.

Matrices are built as Q diag(lambda) Q* with Q from the QR factorization of
a seeded Gaussian matrix and eigenvalues log-uniform in
[1/sqrt(kappa), sqrt(kappa)], so the condition number is bounded by
construction.  Every generator is a pure function of (spec, index): the
same seed always reproduces the same bits.  Each draw also takes a sequence
of specs that differ only in seed, and then draws them all in one stack
with a leading axis over the specs, whose slices have the bits of the
draws under each spec alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import CONDITION_CAP, PDMatrix, _exact

# random_pd_tuple seeds matrix j of tuple i as i * TUPLE_STRIDE + j, so the
# tuples of one instance stay disjoint only for m <= TUPLE_STRIDE.
TUPLE_STRIDE = 1000
DEFAULT_KAPPA = 1e4     # the default bound on a draw's condition number
SEED_LIMIT = 2**63      # a seed is an integer in [0, SEED_LIMIT)


@dataclass(frozen=True)
class EnsembleSpec:
    n: int
    m: int = 1
    field: str = "complex"
    kappa_max: float = DEFAULT_KAPPA
    seed: int = 0

    def __post_init__(self):
        # a bool is an int, and a numpy integer is none but counts as one
        for name, value in (("dimension", self.n), ("tuple length m", self.m),
                            ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(
                    value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if not 1 <= self.m <= TUPLE_STRIDE:
            raise ValueError(
                f"tuple length m must be in [1, {TUPLE_STRIDE}], got {self.m}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2**63), got {self.seed}")
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
    from (2, i), sample_region from (3,) and the laws from
    (laws.LAW_STREAM, tag)."""
    key = (int(seed),) + tuple(int(i) for i in index)
    return np.random.default_rng(np.random.SeedSequence(key))


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
    """The ensemble of a draw, the generators of its matrices and the stack
    shape of the draw.  The matrix of index i under a seed draws from that
    seed's stream (stream, i).  A sequence of specs that differ only in seed
    adds a leading axis over them to the shape of ``index``; the generators
    run over the seeds, then the indices in C order."""
    if isinstance(spec, EnsembleSpec):
        specs, shape = (spec,), np.shape(index)
    else:
        specs, shape = spec, (len(spec),) + np.shape(index)
        spec = specs[0]
        ensemble = (spec.n, spec.m, spec.field, spec.kappa_max)
        if any((s.n, s.m, s.field, s.kappa_max) != ensemble for s in specs):
            raise ValueError("a stacked draw takes specs that differ only "
                             "in seed")
    indices = np.ravel(index)
    return spec, [seeded_rng(s.seed, stream, i)
                  for s in specs for i in indices], shape


def random_pd(spec, index=0):
    """A random positive definite matrix from the ensemble, drawn from
    stream (0, index).  For an array of indices, or a sequence of specs,
    the stack of those matrices (see ``_streams``), each from its own
    stream, with one QR, one product and one validation for the whole
    stack: a slice has the bits of the single draw.  At n = 1 a draw is a
    real diagonal, exactly Hermitian and its own spectrum, so it runs no
    asymmetry test."""
    spec, rngs, shape = _streams(spec, index, 0)
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
    of a sequence of specs."""
    m = spec.m if isinstance(spec, EnsembleSpec) else spec[0].m
    return random_pd(spec, np.add.outer(np.multiply(index, TUPLE_STRIDE),
                                        np.arange(m)))


def random_ordered_pair(spec, index=0):
    """(A, B) with A <= B: B = A + G*G for a seeded Gaussian G from stream
    (1, index); for an array of indices or a sequence of specs, a stack of
    A and one of B."""
    a = random_pd(spec, index)
    spec, rngs, _ = _streams(spec, index, 1)
    g = np.array([_gaussian(rng, spec.n, spec.field) for rng in rngs])
    bump = g.conj().swapaxes(-1, -2) @ g * (0.25 / spec.n)
    b = PDMatrix(a.array + bump.reshape(a.array.shape))
    return a, b


def random_invertible(spec, index=0):
    """A well-conditioned invertible matrix for congruence transforms, from
    stream (2, index); for an array of indices or a sequence of specs, the
    stack of them."""
    spec, rngs, shape = _streams(spec, index, 2)
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
    rng = seeded_rng(seed, 3)
    while True:
        s, t = rng.uniform(0.0, 1.0, size=2)
        if pred(s, t):
            return float(s), float(t)
