"""Catalog of verified inequality and identity laws.

A law is declared once, by ``register_law(name, sampler, check)``:

- ``sampler(espec)`` draws one instance (random matrices and the law's
  own parameters) for each seed of an ``EnsembleSpec`` whose seed is a
  tuple, and returns them in order.  It draws the matrices of all of them
  as one stack per kind of draw, so that one QR, one product and one
  validation serve them all; each matrix and each parameter still comes
  from its own seed's stream, so an instance has the bits it has when
  drawn alone.  ``sample_instance`` names the instances after their
  law and, for a law with a parameter region, records the point (s, t) it
  drew, or the recorded boundary point it was given, as ``params["s"]``
  and ``params["t"]``.
- ``check(insts, tol)`` takes a chunk of instances of the law with one n,
  m and field, and returns one entry per instance, in order: the tuple of
  the links of its chain, or a ``Skip`` whose message says which
  hypothesis of the law the instance fails.  It does its linear algebra
  once for the whole chunk, on stacks with a trial axis: the instances'
  ``As`` and ``Bs`` stacked with the trial axis leading, chain members
  with the trial axis second, and one ``loewner_leq`` for all the links.
  A per-trial parameter (sigma, s, t, r, p, q) goes in as a
  ``linalg.PerSlice``, so each trial's spectral functions take its own
  scalars and every trial gets the bits it gets in a chunk of one.

Every link is decided by one pass rule, ``LoewnerVerdict.judge``: an
inequality A <= B by the margin lambda_min(B - A) at the scale
||A||_2 + ||B||_2, an identity X = Y by the margin -residual (relative
Frobenius) at scale 0, which holds exactly when the residual is at most the
tolerance.  ``check_chunk`` builds each trial's ``CheckResult``, and
``check_law`` is its chunk of one; a trial passes iff every link holds.

``run_law`` owns a law's trial schedule and returns its report entry; it
draws and checks together the trials that agree on the coordinates of
(n, m) its sampler reads, in chunks of at most ``GROUP_TRIALS``, and counts
their results in trial order.
``InstanceError`` is raised for a request the law refuses, and for a trial
beyond what the float checks support: one whose linear algebra fails, named
by its law, seed, n and m so that ``repro`` replays it.

The registry is open: ``register_law`` lets tests inject additional laws
(e.g. deliberately broken ones for exercising the harness failure path).
"""

from __future__ import annotations

import re
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import means
from .linalg import (
    DEFAULT_TOL,
    HermitianMatrix,
    LinalgError,
    LoewnerVerdict,
    PDMatrix,
    PerSlice,
    congruence,
    hadamard,
    kron,
    kron_diagonal_block,
    loewner_leq,
    pd_sum,
    power,
    rel_residual,
    stack,
    _exact,
)
from .ensembles import (
    REGION_STREAM,
    SEED_LIMIT,
    TUPLE_STRIDE,
    EnsembleSpec,
    REGION_BOUNDARY,
    REGIONS,
    random_invertible,
    random_ordered_pair,
    random_pd,
    random_pd_tuple,
    open_streams,
    sample_region,
    seed_states,
    seeded_rng,
)

EQUALITY_TOL = 1e-9       # identity link tolerance (chains compose ~5 functions)
SCALAR_TOL = 1e-12        # scalar sequence inequalities
SUBMATRIX_TOL = 1e-13     # Hadamard member vs tensor principal submatrix
# The generator stream of the laws' own draws (sigma, path parameters,
# scalar sequences), apart from the ensemble's matrix and region streams.
LAW_STREAM = 101
# The most trials run_law draws in one sample_instance call: past about 32
# matrices per stack the cost per matrix stops falling, and the cap bounds
# the instances held at once.
GROUP_TRIALS = 64
# The most streams run_law opens in one seed_states pass, unless one chunk
# draws more: it bounds the states held at once.
WINDOW_STREAMS = 4096


class InstanceError(Exception):
    """Instance shape or parameters do not match the law's requirements, or
    the trial lies beyond what the float checks support (its linear algebra
    failed), which is no verdict."""


def _trials(law, seeds, n, m):
    """The prefix naming the trials of a list of seeds; one names its trial."""
    trial = (f"trial seed={seeds[0]}" if len(seeds) == 1
             else f"trials seed={seeds}")
    return f"{law}: {trial} n={n} m={m}"


def _refuse_bad_tol(who, tol):
    """Refuse a tol that would fail (NaN, < 0) or pass (inf) every link."""
    if not 0.0 <= tol < np.inf:
        raise InstanceError(f"{who}: tol must be finite and >= 0, got {tol!r}")


def _linalg_failure(law, seeds, n, m, exc):
    """The InstanceError of trials whose linear algebra failed (a power that
    squares a large kappa_max past the condition cap, say)."""
    return InstanceError(f"{_trials(law, seeds, n, m)} failed in linear "
                         f"algebra: {type(exc).__name__}: {exc}")


class Skip(Exception):
    """A check's entry for an instance that fails a hypothesis of its law:
    the trial is skipped, with the message as its reason."""


@dataclass(frozen=True)
class Link:
    label: str
    verdict: LoewnerVerdict

    @property
    def holds(self):
        return self.verdict.holds

    @property
    def margin(self):
        return self.verdict.margin


@dataclass(frozen=True)
class CheckResult:
    links: tuple
    skipped: bool = False
    skip_reason: str = ""

    @property
    def holds(self):
        return all(link.holds for link in self.links)

    @property
    def status(self):
        if self.skipped:
            return "skip"
        return "pass" if self.holds else "fail"

    @property
    def margin(self):
        """Worst link margin of the trial (negative residual for identities)."""
        if not self.links:
            return 0.0
        return min(link.margin for link in self.links)


@dataclass
class LawInstance:
    seed: int
    n: int
    m: int
    field: str
    law: str = None              # set by sample_instance
    As: HermitianMatrix = None   # a stack, tuple index innermost
    Bs: HermitianMatrix = None
    sigma: object = None
    params: dict = field(default_factory=dict)
    ordered: tuple = None        # stacks (A, C), (B, D): A <= B, C <= D
    congruence: np.ndarray = None
    a_seq: np.ndarray = None     # positive scalar sequences
    b_seq: np.ndarray = None


@dataclass(frozen=True)
class LawSpec:
    sampler: object
    check: object
    n_cap: int = 6
    region: str = None
    reads: str = "nm"       # the request coordinates its sampler reads
    streams: object = lambda m: ()  # m -> the streams of a trial's draw


_LAWS = {}


def register_law(name, sampler, check, n_cap=6, region=None, reads="nm",
                 streams=LawSpec.streams):
    """Register a law; one with a parameter ``region`` samples at a point
    (s, t) of it.  ``sampler(espec)`` returns one instance per seed, and
    ``check(insts, tol)`` one entry per instance, in order (see the module
    docstring).  ``reads`` names the request coordinates, of n and m, that
    the sampler reads: run_law chunks trials that agree on those alone.
    ``streams(m)`` lists the streams (stream, index) that the sampler draws
    a trial from at tuple length m, and run_law opens them ahead in one
    pass with the region's; a stream it misses is opened alone, with the
    same bits."""
    _LAWS[name] = LawSpec(sampler=sampler, check=check, n_cap=n_cap,
                          region=region, reads=reads, streams=streams)


def law_names():
    return list(_LAWS)


def law_spec(name):
    try:
        return _LAWS[name]
    except KeyError:
        raise InstanceError(f"unknown law {name!r}") from None


def boundary_params(name):
    """The recorded boundary points (s, t) of a law's region, which verify
    runs first; none for a law without a region."""
    spec = law_spec(name)
    if spec.region is None:
        return []
    return list(REGION_BOUNDARY[spec.region])


def sample_instance(name, n, m, fieldname, kappa_max, seed, boundary=None):
    """Build a random instance for a law, at the point (s, t) of its region
    that ``sample_region`` draws, or at ``boundary``, which must be one of
    its ``boundary_params``.  For a list or tuple of seeds, with None or a
    matching sequence of boundaries (each None or a recorded point), the
    list of their instances, from one EnsembleSpec holding their seeds and
    one sampler call; each is the instance its seed gives alone.  A
    request the law refuses, or an ensemble setting EnsembleSpec refuses,
    raises an InstanceError that names the law; so does a failed sampling,
    naming the requested seed, n and m (a seed alone or in a list of one
    as ``trial seed=X``)."""
    spec = law_spec(name)
    chunk = isinstance(seed, (list, tuple))
    if chunk:
        seeds = list(seed)
        boundaries = ([None] * len(seeds) if boundary is None
                      else list(boundary))
    else:
        seeds, boundaries = [seed], [boundary]
    try:
        if not seeds:
            raise InstanceError("no seed to draw")
        if len(boundaries) != len(seeds):
            raise InstanceError(f"{len(boundaries)} boundaries for "
                                f"{len(seeds)} seeds")
        try:
            espec = EnsembleSpec(n=n, m=m, field=fieldname,
                                 kappa_max=kappa_max, seed=tuple(seeds))
        except ValueError as exc:
            raise InstanceError(str(exc)) from None
        if n > spec.n_cap:
            raise InstanceError(f"n={n} is above its n cap {spec.n_cap}")
        points = boundary_params(name)
        for b in boundaries:
            if b is not None and not (isinstance(b, (list, tuple))
                                      and len(b) == 2):
                raise InstanceError(f"boundary {b!r} is not an (s, t) pair")
            if b is not None and tuple(b) not in points:
                raise InstanceError(
                    f"boundary {tuple(b)} is not a recorded boundary point "
                    f"of its {spec.region} region: "
                    f"{', '.join(map(str, points))}" if points
                    else f"reads no boundary (s={b[0]}, t={b[1]}): "
                    "it has no parameter region")
        if spec.region:
            boundaries = [sample_region(spec.region, s) if b is None else b
                          for s, b in zip(seeds, boundaries)]
        insts = spec.sampler(espec)
    except InstanceError as exc:
        raise InstanceError(f"{name}: {exc}") from None
    except LinalgError as exc:
        raise _linalg_failure(name, seeds, n, m, exc) from None
    for inst, b in zip(insts, boundaries, strict=True):
        inst.law = name
        if b is not None:
            inst.params["s"], inst.params["t"] = map(float, b)
    return insts if chunk else insts[0]


def check_chunk(name, insts, tol=DEFAULT_TOL):
    """The results of a chunk of trials, instances of one law, n, m and
    field, from one call of the law's check, in order.  A failed linear
    algebra, or an InstanceError the check raises, names the chunk's seeds,
    a trial whose check returned no link its seed, and a bad tol the law."""
    spec = law_spec(name)
    _refuse_bad_tol(name, tol)
    if not insts:
        raise InstanceError(f"{name}: a chunk holds at least one instance")
    first = insts[0]
    for inst in insts:
        if inst.law != name:
            raise InstanceError(
                f"instance was sampled for {inst.law!r}, not {name!r}")
        if (inst.n, inst.m, inst.field) != (first.n, first.m, first.field):
            raise InstanceError(f"{name}: a chunk holds instances of one n, "
                                f"m and field")
    seeds = [inst.seed for inst in insts]
    try:
        entries = list(spec.check(insts, tol))
    except LinalgError as exc:
        raise _linalg_failure(name, seeds, first.n, first.m, exc) from None
    except InstanceError as exc:
        raise InstanceError(f"{_trials(name, seeds, first.n, first.m)}: "
                            f"{exc}") from None
    if len(entries) != len(insts):
        raise InstanceError(f"{name}: check gave {len(entries)} results for "
                            f"{len(insts)} trials")
    results = []
    for inst, entry in zip(insts, entries):
        if isinstance(entry, Skip):
            results.append(CheckResult((), skipped=True,
                                       skip_reason=str(entry)))
            continue
        links = tuple(entry)
        if not links:
            # a trial that checks nothing is no pass
            trial = _trials(name, [inst.seed], inst.n, inst.m)
            raise InstanceError(f"{trial} checked no link")
        results.append(CheckResult(links))
    return results


def check_law(name, instance, tol=DEFAULT_TOL):
    """The trial's result, the links of the law's check or its skip: the
    chunk of one instance."""
    return check_chunk(name, [instance], tol)[0]


def _stacks(insts):
    """The chunk's tuples As and Bs as two stacks, the trial axis leading."""
    return (stack([inst.As for inst in insts]),
            stack([inst.Bs for inst in insts]))


def _pairs(insts):
    """The single pairs A, B of a chunk of pair instances, as two stacks
    over its trials."""
    As, Bs = _stacks(insts)
    return As[:, 0], Bs[:, 0]


def _each(insts, key):
    """The chunk's parameter ``key``, trial by trial."""
    return PerSlice(inst.params[key] for inst in insts)


def _sigmas(insts):
    return PerSlice(inst.sigma for inst in insts)


def _duals(ds):
    return PerSlice(map(means.dual, ds))


def _join(*parts):
    """Trial by trial, the links of several parts of a check, in order."""
    return [sum(links, ()) for links in zip(*parts, strict=True)]


def _links(labels, values, lo, hi, tol):
    """Trial by trial, the links values[lo][i, k] <= values[hi][i, k] of
    trial k, one per label i, from one stacked Loewner comparison of the
    whole chunk.  ``values`` is a stack of chain members with the trial axis
    second; ``lo`` and ``hi`` index its member axis by a slice or a single
    index, so each is a view of it (a single index broadcasts).  No member
    is decomposed unless a verdict reads its norm (see ``loewner_leq``)."""
    trials = values.stack_shape[1]
    if not labels:
        return [()] * trials
    verdicts = loewner_leq(values[lo], values[hi], tol)   # link-major
    links = [Link(label, v) for label, v in zip(
        (label for label in labels for _ in range(trials)), verdicts,
        strict=True)]
    return [tuple(links[k::trials]) for k in range(trials)]


def _chain(labels, members, tol):
    """Trial by trial, the links members[i] <= members[i+1] between
    neighbouring members of a stack, one per label, from two views of it."""
    if len(members) != len(labels) + 1:
        raise ValueError(f"{len(labels)} links for {len(members)} members")
    return _links(labels, members, slice(None, -1), slice(1, None), tol)


def _residual_links(label, residuals, tol):
    """Trial by trial, the identity link of each residual: the margin
    -residual at scale 0, which holds exactly when the residual is at most
    tol."""
    return [(Link(label, LoewnerVerdict.judge(-r, 0.0, tol)),)
            for r in residuals]


def _eq(label, X, Y, tol=EQUALITY_TOL):
    """Trial by trial, the identity link X = Y of stacks over the trials."""
    return _residual_links(label, rel_residual(X, Y), tol)


def _scalar_ineq(label, lo, hi):
    return Link(label, LoewnerVerdict.judge(hi - lo, max(abs(lo), abs(hi)),
                                            SCALAR_TOL))


# A roster of concrete means used by laws quantified over "any mean".
SIGMA_ROSTER = (
    means.arithmetic(),
    means.harmonic(),
    means.geometric(),
    means.power_mean(0.5),
    means.power_mean(-0.5),
    means.weighted_geometric(0.25),
    means.dual(means.power_mean(0.5)),
)


def _pick_sigma(rng):
    return SIGMA_ROSTER[int(rng.integers(len(SIGMA_ROSTER)))]


def _no_fields(seed):
    return {}


# the streams of a trial's A and B in _sample_pair
PAIR_STREAMS = ((0, 0), (0, 1))


def _tuple_streams(m, tuples=2):
    """The streams of a trial's first ``tuples`` m-tuples in random_pd_tuple;
    _sample_tuples draws two."""
    return [(0, i * TUPLE_STRIDE + j) for i in range(tuples) for j in range(m)]


def _sample_pair(espec, fields=_no_fields):
    """Instances on one random pair A, B each: stacks of one, from one draw
    for all of them; ``fields(seed)`` gives each its other fields."""
    draw = random_pd(espec, [[0], [1]])
    return [LawInstance(seed=s, n=espec.n, m=1, field=espec.field,
                        As=draw[k, 0], Bs=draw[k, 1], **fields(s))
            for k, s in enumerate(espec.seed)]


def _sample_tuples(espec, fields=_no_fields):
    """Instances on random m-tuples A_j, B_j each: stacks of m, from one
    draw for all of them; ``fields(seed)`` gives each its other fields."""
    draw = random_pd_tuple(espec, [0, 1])
    return [LawInstance(seed=s, n=espec.n, m=espec.m, field=espec.field,
                        As=draw[k, 0], Bs=draw[k, 1], **fields(s))
            for k, s in enumerate(espec.seed)]


def _sample_sigma(espec, tag, draw):
    """The matrices ``draw`` samples, each instance with a roster mean sigma
    picked by its law stream's generator ``tag``."""
    def fields(seed):
        sigma = _pick_sigma(seeded_rng(seed, LAW_STREAM, tag))
        return {"sigma": sigma,
                "params": {"sigma": means.format_descriptor(sigma)}}
    return draw(espec, fields)


def _path_sums(ds, As, Bs):
    """The path sums sum_j A_j sigma B_j, one for each descriptor in ds, as
    a stack; every mean comes from one call on the stacked pairs."""
    return pd_sum(means.mean(ds, As, Bs))


def _sums(As, Bs):
    """sum_j A_j and sum_j B_j, as a stack of two."""
    return pd_sum(stack([As, Bs]))


def _pair(u, r=0.0):
    """The points u and 1-u of the interpolation path of exponent r (the
    geodesic #_u for r = 0), whose path sums are S(u) and S(1-u); for a
    PerSlice u, and r one number or a PerSlice, a PerSlice of each, trial
    k at its own u and r."""
    if not isinstance(u, PerSlice):
        return means.power_path(r, u), means.power_path(r, 1.0 - u)
    rs = r if isinstance(r, PerSlice) else [r] * len(u)
    return (PerSlice(map(means.power_path, rs, u)),
            PerSlice(means.power_path(x, 1.0 - v) for x, v in zip(rs, u)))


def _tensor_sum(x, y):
    """The symmetrized tensor product x (x) y + y (x) x."""
    return kron(x, y) + kron(y, x)


def _region_st(insts):
    """The chunk's points (s, t), a PerSlice of each coordinate; every one
    must lie in its law's parameter region."""
    region = law_spec(insts[0].law).region
    for inst in insts:
        s, t = inst.params["s"], inst.params["t"]
        if not REGIONS[region](s, t):
            raise InstanceError(f"(s={s}, t={t}) outside the {region} region")
    return _each(insts, "s"), _each(insts, "t")


# ---------------------------------------------------------------------------
# mean-axioms: normalization, congruence equivariance, joint monotonicity
# ---------------------------------------------------------------------------

def _sample_mean_axioms(espec):
    lower, upper = random_ordered_pair(espec, [0, 1])
    draw = random_pd(espec, [[2], [3]])
    cmats = random_invertible(espec, 0)
    insts = []
    for k, s in enumerate(espec.seed):
        sigma = _pick_sigma(seeded_rng(s, LAW_STREAM, 1))
        insts.append(LawInstance(
            seed=s, n=espec.n, m=1, field=espec.field,
            As=draw[k, 0], Bs=draw[k, 1], sigma=sigma,
            ordered=(lower[k], upper[k]), congruence=cmats[k],
            params={"sigma": means.format_descriptor(sigma)}))
    return insts


def _check_mean_axioms(insts, tol):
    n = insts[0].n
    x, y = _pairs(insts)
    c = np.stack([inst.congruence for inst in insts])
    # the lower stacks (A, C) and the upper stacks (B, D), A <= B, C <= D
    lower, upper = (stack([inst.ordered[i] for inst in insts]) for i in (0, 1))
    eye = stack([PDMatrix.identity(n)] * len(insts))
    cx, cy = PDMatrix(congruence(c, stack([x, y])))
    # I s I, x s y, (C*xC) s (C*yC), A s C and B s D of each trial, the
    # trial axis leading, in one call
    values = means.mean(_sigmas(insts),
                        stack([eye, x, cx, lower[:, 0], upper[:, 0]], axis=1),
                        stack([eye, y, cy, lower[:, 1], upper[:, 1]], axis=1))
    return _join(
        _eq("normalization", values[:, 0], HermitianMatrix.identity(n),
            tol=1e-13),
        _eq("congruence-equivariance", congruence(c, values[:, 1]),
            values[:, 2]),
        _chain(("joint-monotonicity",), stack([values[:, 3], values[:, 4]]),
               tol))


# ---------------------------------------------------------------------------
# superadditivity: sum of means <= mean of sums
# ---------------------------------------------------------------------------

def _check_superadditivity(insts, tol):
    d = _sigmas(insts)
    As, Bs = _stacks(insts)
    (lhs,) = _path_sums([d], As, Bs)
    rhs = means.mean(d, *_sums(As, Bs))
    return _chain(("superadditivity",), stack([lhs, rhs]), tol)


# ---------------------------------------------------------------------------
# sharp-identity: (A sigma B) # (A sigma-dual B) = A # B
# ---------------------------------------------------------------------------

def _check_sharp_identity(insts, tol):
    d = _sigmas(insts)
    x, y, sharp = means.mean((d, _duals(d), means.geometric()),
                             *_pairs(insts))
    return _eq("sharp-identity", means.geomean(x, y), sharp)


# ---------------------------------------------------------------------------
# callebaut-operator: sum of # <= (sum sigma) # (sum dual) <= (sum A) # (sum B)
# ---------------------------------------------------------------------------

def _outer_links(As, Bs, pair, tol):
    """sum_j A_j # B_j <= S1 # S2 <= (sum A_j) # (sum B_j), where S1 and S2
    are the path sums of the two descriptors in ``pair``."""
    s1, s2, lo = _path_sums((*pair, means.geometric()), As, Bs)
    sa, sb = _sums(As, Bs)
    mid, hi = means.geomean(stack([s1, sa]), stack([s2, sb]))
    return _chain(("lower-link", "upper-link"), stack([lo, mid, hi]), tol)


def _check_callebaut_operator(insts, tol):
    d = _sigmas(insts)
    return _outer_links(*_stacks(insts), (d, _duals(d)), tol)


# ---------------------------------------------------------------------------
# geo-path-callebaut: the weighted-geometric specialization
# ---------------------------------------------------------------------------

def _check_geo_path_callebaut(insts, tol):
    return _outer_links(*_stacks(insts), _pair(_region_st(insts)[0]), tol)


# ---------------------------------------------------------------------------
# path-monotonicity: F(s) <= F(t) for s between t and 1-t
# ---------------------------------------------------------------------------

def _path_exponent(seed):
    rng = seeded_rng(seed, LAW_STREAM, 5)
    # geometric path by default; occasionally a power path, which fails the
    # dual-symmetry hypothesis and is skipped
    use_power = bool(rng.integers(8) == 0)
    r = float(rng.uniform(-1.0, 1.0)) if use_power else 0.0
    return {"params": {"r": r}}


def _check_path_monotonicity(insts, tol):
    """Trial by trial, the link of ``_path_monotonicity_links``, or a Skip
    where the path fails the hypothesis dual(sigma_u) = sigma_{1-u}: as
    dual(m_{r,u}) = m_{-r,1-u} (Kubo and Ando, Math. Ann. 1980), it holds
    exactly on the geodesic, |r| < R_GEOMETRIC_CUTOFF, at every s and t."""
    _region_st(insts)       # refuses an (s, t) outside the region
    entries = [None if abs(inst.params["r"]) < means.R_GEOMETRIC_CUTOFF
               else Skip(f"dual-symmetry hypothesis fails for "
                         f"r={inst.params['r']}") for inst in insts]
    kept = [inst for inst, entry in zip(insts, entries) if entry is None]
    links = iter(_path_monotonicity_links(kept, tol) if kept else ())
    return [next(links) if entry is None else entry for entry in entries]


def _path_monotonicity_links(insts, tol):
    """Trial by trial, the link F(s) <= F(t) for F(u) = S(u) # S(1-u), with
    S the path sums of the instance's exponent r; a theorem only where the
    dual-symmetry hypothesis holds."""
    s, t, r = (_each(insts, key) for key in "str")
    ss, s1, ts, t1 = _path_sums((*_pair(s, r), *_pair(t, r)),
                                *_stacks(insts))
    return _chain(("path-monotonicity",),
                  means.geomean(stack([ss, ts]), stack([s1, t1])), tol)


# ---------------------------------------------------------------------------
# scalar-callebaut: the classical chain plus monotonicity in the exponent
# spread, on positive scalar sequences
# ---------------------------------------------------------------------------

def scalar_callebaut_chain(a, b, s, t):
    """The four chain members of the classical inequality, in order: the
    products callebaut_f at s = 1/2 and r = 0, s - 1/2, t - 1/2 and 1/2."""
    return tuple(callebaut_f(a, b, r, 0.5)
                 for r in (0.0, s - 0.5, t - 0.5, 0.5))


def callebaut_f(a, b, r, s):
    """Callebaut's two-parameter product, increasing in |r|."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.sum(a ** (s + r) * b ** (s - r)) *
                 np.sum(a ** (s - r) * b ** (s + r)))


def _sample_scalar_callebaut(espec):
    insts = []
    half_log = 0.5 * np.log(espec.kappa_max)
    for s in espec.seed:
        rng = seeded_rng(s, LAW_STREAM, 6)
        a = np.exp(rng.uniform(-half_log, half_log, size=espec.m))
        b = np.exp(rng.uniform(-half_log, half_log, size=espec.m))
        r1, r2 = sorted(rng.uniform(0.0, 1.0, size=2))
        sc = float(rng.uniform(0.0, 1.0))
        insts.append(LawInstance(
            seed=s, n=1, m=espec.m, field="real", a_seq=a, b_seq=b,
            params={"r1": float(r1), "r2": float(r2), "sc": sc}))
    return insts


def _check_scalar_callebaut(insts, tol):
    # trial by trial: scalar products share no linear algebra, and each
    # trial's exponents are its own scalars
    entries = []
    for inst, s, t in zip(insts, *_region_st(insts)):
        p, a, b = inst.params, inst.a_seq, inst.b_seq
        v0, v1, v2, v3 = scalar_callebaut_chain(a, b, s, t)
        entries.append((
            _scalar_ineq("geometric-vs-s", v0, v1),
            _scalar_ineq("s-vs-t", v1, v2),
            _scalar_ineq("t-vs-cauchy-schwarz", v2, v3),
            _scalar_ineq("r-monotonicity", callebaut_f(a, b, p["r1"], p["sc"]),
                         callebaut_f(a, b, p["r2"], p["sc"]))))
    return entries


# ---------------------------------------------------------------------------
# power-lemma: A^r + A^{-r} <= A + A^{-1} for 0 <= r <= 1
# ---------------------------------------------------------------------------

POWER_LEMMA_GRID = tuple(np.round(np.linspace(0.0, 1.0, 11), 10))


def _sample_power_lemma(espec):
    draw = random_pd(espec, [0])
    return [LawInstance(seed=s, n=espec.n, m=1, field=espec.field,
                        As=draw[k]) for k, s in enumerate(espec.seed)]


def _check_power_lemma(insts, tol):
    """Trial by trial, the links A^r + A^-r <= A + A^-1 at each exponent r
    of POWER_LEMMA_GRID, with the bound formed from the drawn A, and the
    identities at the grid's two ends: 2I at r = 0 and the bound at r = 1."""
    rs = POWER_LEMMA_GRID
    a = stack([inst.As for inst in insts])[:, 0]
    neg = power(a, [-x for x in rs])      # the grid runs from 0 to 1
    values = stack([*(power(a, rs) + neg), a + neg[-1]])
    bound = len(rs)
    return _join(
        _links([f"r={r:g}" for r in rs], values, slice(None, bound), bound,
               tol),
        _eq("r0-degenerate", values[0],
            2.0 * HermitianMatrix.identity(insts[0].n)),
        _eq("r1-degenerate", values[bound - 1], values[bound]))


# ---------------------------------------------------------------------------
# tensor-f / tensor-g: V-shaped Loewner monotonicity of tensor sums
# ---------------------------------------------------------------------------

def power_tensor_sum(a, b, p, q):
    """A^p x B^q + A^q x B^p: the tensor-f curve at (p, q) = (1+t, 1-t),
    the tensor-g curve at (t, 1-t).  For sequences p and q, the stack of
    the values at each pair (p[i], q[i]).  Swapping p and q swaps the two
    terms, so the value keeps its bits: float addition commutes."""
    return kron(power(a, p), power(b, q)) + kron(power(a, q), power(b, p))


def _vshape(grid, values, pivot, tol):
    """Trial by trial, a tuple of one entry per neighbouring pair of grid
    points, ``values`` the curve there (trial axis second) with its minimum
    at the pivot: a decreasing link if the pair ends by pivot + 1e-12, else
    an increasing one if it starts from pivot - 1e-12, else (the at most
    one pair straddling the pivot) None.  Each side is one ``_links``."""
    left = sum(t <= pivot + 1e-12 for t in grid[1:])   # decreasing pairs
    right = min(left + (grid[left] < pivot - 1e-12), len(grid) - 1)
    pairs = list(zip(grid, grid[1:]))
    down = _links([f"decreasing {t0:g}->{t1:g}" for t0, t1 in pairs[:left]],
                  values, slice(1, left + 1), slice(None, left), tol)
    up = _links([f"increasing {t0:g}->{t1:g}" for t0, t1 in pairs[right:]],
                values, slice(right, -1), slice(right + 1, None), tol)
    return [(*d, *[None] * (right - left), *u) for d, u in zip(down, up)]


def _check_tensor(insts, tol):
    """The law's SWEEPS curve at 9 points from its pivot up, all increasing
    links of ``_vshape``.  Its mirror image below the pivot has the same
    bits (see power_tensor_sum), so it would repeat these values and links."""
    sw = SWEEPS[insts[0].law]
    grid = np.linspace(sw.pivot, sw.domain[1], 9)
    return _vshape(grid, sw.evaluator(insts, grid), sw.pivot, tol)


# ---------------------------------------------------------------------------
# matrix-callebaut: the tensor-product chain of Callebaut type
# ---------------------------------------------------------------------------

def callebaut_sums(As, Bs, s, t):
    """The sums both matrix Callebaut chains are built from, each evaluated
    once, as two stacks X and Y whose slices pair up: sum_j A_j # B_j with
    itself, S(s) with S(1-s), S(t) with S(1-t), and sum A_j with sum B_j,
    where S(u) = sum_j A_j #_u B_j.  For stacks of tuples with the trial
    axis leading, s and t are PerSlices, one point per trial."""
    sharp, ss, s1, ts, t1 = _path_sums(
        (means.geometric(), *_pair(s), *_pair(t)), As, Bs)
    sa, sb = _sums(As, Bs)
    return stack([sharp, ss, ts, sa]), stack([sharp, s1, t1, sb])


def matrix_callebaut_members(As, Bs, s, t):
    """The four chain members (each Hermitian of dimension n^2), in order,
    as a stack.  The first, 2 kron(sharp, sharp), is the tensor sum of sharp
    with itself, which has the same bits: doubling is exact."""
    return _tensor_sum(*callebaut_sums(As, Bs, s, t))


_CHAIN_LABELS = ("geometric-vs-s", "s-vs-t", "t-vs-outer")


def _check_matrix_callebaut(insts, tol):
    members = matrix_callebaut_members(*_stacks(insts), *_region_st(insts))
    return _chain(_CHAIN_LABELS, members, tol)


# ---------------------------------------------------------------------------
# hadamard-callebaut: the entrywise-product corollary, cross-checked against
# the principal submatrix of the tensor chain
# ---------------------------------------------------------------------------

def _check_hadamard_callebaut(insts, tol):
    sums = callebaut_sums(*_stacks(insts), *_region_st(insts))
    h = hadamard(*sums)
    # derivation route: twice each Hadamard member is the principal
    # submatrix of the corresponding tensor chain member, built from the
    # same sums
    residuals = rel_residual(
        2.0 * h, kron_diagonal_block(_tensor_sum(*sums), insts[0].n))
    return _join(_chain(_CHAIN_LABELS, h, tol), *(
        _residual_links(f"submatrix-consistency-{i}", r, SUBMATRIX_TOL)
        for i, r in enumerate(residuals)))


# ---------------------------------------------------------------------------
# hadamard-power: the averaged-powers corollary (B_j = I)
# ---------------------------------------------------------------------------

def _sample_hadamard_power(espec):
    draw = random_pd_tuple(espec, 0)
    return [LawInstance(seed=s, n=espec.n, m=espec.m, field=espec.field,
                        As=draw[k]) for k, s in enumerate(espec.seed)]


def _check_hadamard_power(insts, tol):
    _, t = _region_st(insts)
    As = stack([inst.As for inst in insts])
    m, n = As.stack_shape[1], As.n
    avg = 1.0 / m
    # the averages of A_j^{1/2}, A_j^t and A_j^{1-t}, as a stack
    p_half, p_t, p_1t = pd_sum(power(
        As, [0.5, t, PerSlice(1.0 - x for x in t)])) * avg
    # the average of the diagonal parts diag(A_j), summed in order of j
    diagonals = np.diagonal(As.array, axis1=-2, axis2=-1)
    diag_part = np.zeros((len(insts), n, n), dtype=np.complex128)
    diag_part[:, range(n), range(n)] = sum(
        diagonals[:, j] for j in range(m)) * avg
    products = hadamard(stack([p_half, p_t]), stack([p_half, p_1t]))
    members = stack([*products, _exact(diag_part)])
    return _chain(("sqrt-vs-t", "t-vs-diagonal"), members, tol)


# ---------------------------------------------------------------------------
# interpolation-identity: geodesic reparametrization of the geometric path
# ---------------------------------------------------------------------------

def _interpolation_params(seed):
    p, q, r = seeded_rng(seed, LAW_STREAM, 7).uniform(0.0, 1.0, size=3)
    return {"params": {"p": float(p), "q": float(q), "r": float(r)}}


def _check_interpolation_identity(insts, tol):
    p, q, r = (_each(insts, key) for key in "pqr")
    mid = [(1.0 - rk) * pk + rk * qk for pk, qk, rk in zip(p, q, r)]
    x, y, rhs = means.mean([PerSlice(map(means.weighted_geometric, u))
                            for u in (p, q, mid)], *_pairs(insts))
    lhs = means.mean(PerSlice(map(means.weighted_geometric, r)), x, y)
    return _eq("reparametrization", lhs, rhs)


# ---------------------------------------------------------------------------
# path-axioms: endpoints, interpolation midpoint, continuity
# ---------------------------------------------------------------------------

def _path_axioms_params(seed):
    rng = seeded_rng(seed, LAW_STREAM, 8)
    r = float(rng.uniform(-1.0, 1.0))
    p, q = rng.uniform(0.0, 1.0, size=2)
    return {"params": {"r": r, "p": float(p), "q": float(q)}}


def _check_path_axioms(insts, tol):
    r, p, q = (_each(insts, key) for key in "rpq")
    a, b = _pairs(insts)
    base = PerSlice(map(means.power_mean, r))
    # norm continuity is probed by a small parameter step from t0
    t0 = [min(max(x, 1e-6), 1.0 - 1e-6) for x in p]
    step = 1e-7
    ts = (*([u] * len(insts) for u in (0.0, 1.0)), p, q,
          [(x + y) / 2.0 for x, y in zip(p, q)], t0, [x + step for x in t0])
    left, right, at_p, at_q, at_pq, at_t0, at_step = means.mean(
        [PerSlice(map(means.power_path, r, u)) for u in ts], a, b)
    return _join(
        _eq("left-endpoint", left, a),
        _eq("right-endpoint", right, b),
        _eq("interpolation-midpoint", means.mean(base, at_p, at_q), at_pq),
        _eq("continuity", at_t0, at_step, tol=1e-3))


# ---------------------------------------------------------------------------
# wada: the tensor-product Callebaut refinement for a single pair
# ---------------------------------------------------------------------------

def _check_wada(insts, tol):
    d = _sigmas(insts)
    a, b = _pairs(insts)
    sharp, x, y = means.mean((means.geometric(), d, _duals(d)), a, b)
    # kron(sharp, sharp), then the halved tensor sums of (x, y) and (A, B);
    # the first is half the tensor sum of sharp with itself, exactly
    members = 0.5 * _tensor_sum(stack([sharp, x, a]), stack([sharp, y, b]))
    return _chain(("lower-link", "upper-link"), members, tol)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

register_law("mean-axioms", _sample_mean_axioms, _check_mean_axioms,
             reads="n", streams=lambda m: [
                 (0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (2, 0),
                 (LAW_STREAM, 1)])
register_law("superadditivity",
             partial(_sample_sigma, tag=2, draw=_sample_tuples),
             _check_superadditivity,
             streams=lambda m: [*_tuple_streams(m), (LAW_STREAM, 2)])
register_law("sharp-identity",
             partial(_sample_sigma, tag=3, draw=_sample_pair),
             _check_sharp_identity, reads="n",
             streams=lambda m: [*PAIR_STREAMS, (LAW_STREAM, 3)])
register_law("callebaut-operator",
             partial(_sample_sigma, tag=4, draw=_sample_tuples),
             _check_callebaut_operator,
             streams=lambda m: [*_tuple_streams(m), (LAW_STREAM, 4)])
register_law("path-monotonicity",
             partial(_sample_tuples, fields=_path_exponent),
             _check_path_monotonicity, region="between",
             streams=lambda m: [*_tuple_streams(m), (LAW_STREAM, 5)])
register_law("geo-path-callebaut", _sample_tuples, _check_geo_path_callebaut,
             region="unit", streams=_tuple_streams)
register_law("scalar-callebaut", _sample_scalar_callebaut,
             _check_scalar_callebaut, region="callebaut", reads="m",
             streams=lambda m: [(LAW_STREAM, 6)])
register_law("power-lemma", _sample_power_lemma, _check_power_lemma,
             reads="n", streams=lambda m: PAIR_STREAMS[:1])
register_law("tensor-f", _sample_pair, _check_tensor, n_cap=3, reads="n",
             streams=lambda m: PAIR_STREAMS)
register_law("tensor-g", _sample_pair, _check_tensor, n_cap=3, reads="n",
             streams=lambda m: PAIR_STREAMS)
register_law("matrix-callebaut", _sample_tuples, _check_matrix_callebaut,
             n_cap=3, region="callebaut", streams=_tuple_streams)
register_law("hadamard-callebaut", _sample_tuples, _check_hadamard_callebaut,
             n_cap=3, region="callebaut", streams=_tuple_streams)
register_law("hadamard-power", _sample_hadamard_power, _check_hadamard_power,
             region="unit", streams=partial(_tuple_streams, tuples=1))
register_law("interpolation-identity",
             partial(_sample_pair, fields=_interpolation_params),
             _check_interpolation_identity, reads="n",
             streams=lambda m: [*PAIR_STREAMS, (LAW_STREAM, 7)])
register_law("path-axioms", partial(_sample_pair, fields=_path_axioms_params),
             _check_path_axioms, reads="n",
             streams=lambda m: [*PAIR_STREAMS, (LAW_STREAM, 8)])
register_law("wada", partial(_sample_sigma, tag=9, draw=_sample_pair),
             _check_wada, n_cap=3, reads="n",
             streams=lambda m: [*PAIR_STREAMS, (LAW_STREAM, 9)])


def child_seed(master, law_index, trial):
    """The 63-bit seed of trial ``trial`` of the ``law_index``-th law of a
    run under a master seed.  It keys on the law's position in the run, so
    the same law draws other trials when other laws run before it."""
    ss = np.random.SeedSequence((int(master), law_index, trial))
    return int(ss.generate_state(2, np.uint64)[0] & (2**63 - 1))


def child_seeds(master, law_index, trials):
    """child_seed(master, law_index, k) for k in range(trials), from one
    seed_states pass: the first word of each state, masked to 63 bits."""
    words = seed_states([(int(master), law_index, k)
                         for k in range(trials)])[:, 0]
    return [int(w) for w in words & np.uint64(SEED_LIMIT - 1)]


_NUMBER = re.compile(r"[-+]?\d[\d.]*(?:e[-+]?\d+)?")


def _chunks(keys):
    """The trial indices of each chunk: the trials with equal keys, in
    trial order, at most GROUP_TRIALS to a chunk; listed by first trial."""
    open_chunks, chunks = {}, []
    for k, key in enumerate(keys):
        chunk = open_chunks.get(key)
        if chunk is None or len(chunk) == GROUP_TRIALS:
            chunk = open_chunks[key] = []
            chunks.append(chunk)
        chunk.append(k)
    return chunks


def _stream_windows(spec, chunks, seeds, requests, bounds):
    """The streams (seed, *index) that each chunk's trials draw at its first
    request, the region's included, in windows of whole chunks of at most
    WINDOW_STREAMS streams (or of one chunk), keyed by first trial."""
    windows, window = {}, None
    for chunk in chunks:
        streams = spec.streams(requests[chunk[0]][1])
        keys = [(seeds[k], *ix) for k in chunk for ix in streams]
        keys += [(seeds[k], REGION_STREAM) for k in chunk
                 if spec.region and bounds[k] is None]
        if window is None or len(window) + len(keys) > WINDOW_STREAMS:
            window = windows[chunk[0]] = []
        window += keys
    return windows


def run_law(name, law_index, seed, trials, n, m, fieldname, kappa_max, tol):
    """The report entry of ``trials`` trials of the ``law_index``-th law of
    a run.  Trial k samples at ``child_seed(seed, law_index, k)``, at the
    fixed n (else k % 6 + 1, capped at the law's n cap) and m (else
    k % 4 + 1), the law's region boundaries first; the entry records the
    instance's n and m, and skip reasons with numbers blanked to '#'.

    The trials whose requests agree on the coordinates the law reads
    (``register_law``'s ``reads``) are drawn together, at the first one's
    request, in chunks of at most GROUP_TRIALS, and checked together by
    ``check_chunk``, when the loop reaches a chunk's first trial.  Results
    count at each trial's turn, in trial order.  A trial that no chunk drew
    and checked (a chunk of one, or a chunk whose draw or check raised) is
    drawn alone, at its own request, and checked by ``check_law`` at its
    turn, which gives it the same bits, so that the first failing trial
    raises the InstanceError it raises alone.  Each window of chunks
    (``_stream_windows``) opens the streams its trials draw in one pass, at
    its first trial; the run's stream set is emptied when the run ends or
    raises.  A bad master seed, trial count or tol is an InstanceError
    naming the law."""
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= seed < SEED_LIMIT):
        raise InstanceError(f"{name}: master seed must be an integer in "
                            f"[0, 2**63), got {seed!r}")
    if (isinstance(trials, bool) or not isinstance(trials, (int, np.integer))
            or trials < 1):
        raise InstanceError(f"{name}: trials must be an integer >= 1, got "
                            f"{trials!r}")
    _refuse_bad_tol(name, tol)      # before any trial is drawn
    started = time.monotonic()
    spec = law_spec(name)
    boundaries = boundary_params(name)
    seeds = child_seeds(seed, law_index, trials)
    bounds = [boundaries[k] if k < len(boundaries) else None
              for k in range(trials)]
    requests = [(min(n if n is not None else k % 6 + 1, spec.n_cap),
                 m if m is not None else k % 4 + 1) for k in range(trials)]
    keys = [tuple(x for x, c in zip(request, "nm") if c in spec.reads)
            for request in requests]
    order = _chunks(keys)
    chunks = {chunk[0]: chunk for chunk in order if len(chunk) > 1}
    windows = _stream_windows(spec, order, seeds, requests, bounds)
    done = {}           # trial -> (instance, result), from its chunk
    counts = Counter()
    skip_reasons = Counter()
    worst = None
    failing = []
    try:
        for k in range(trials):
            rn, rm = requests[k]
            if k in windows:
                open_streams(windows[k])
            if k in chunks:
                chunk = chunks[k]
                try:
                    insts = sample_instance(
                        name, n=rn, m=rm, fieldname=fieldname,
                        kappa_max=kappa_max, seed=[seeds[i] for i in chunk],
                        boundary=[bounds[i] for i in chunk])
                    done.update(zip(chunk, zip(insts, check_chunk(
                        name, insts, tol=tol))))
                except InstanceError:
                    pass    # its trials are drawn and checked alone, in turn
            if k in done:
                inst, result = done.pop(k)
            else:
                inst = sample_instance(name, n=rn, m=rm, fieldname=fieldname,
                                       kappa_max=kappa_max, seed=seeds[k],
                                       boundary=bounds[k])
                result = check_law(name, inst, tol=tol)
            counts[result.status] += 1
            if result.skipped:
                skip_reasons[_NUMBER.sub("#", result.skip_reason)] += 1
                continue
            trial = {"seed": seeds[k], "n": inst.n, "m": inst.m,
                     "boundary": list(bounds[k]) if bounds[k] else None}
            if not result.holds:
                failing.append(trial)
            if worst is None or result.margin < worst["margin"]:
                worst = {"margin": result.margin, **trial}
    finally:
        open_streams()
    return {"trials": trials, "passes": counts["pass"],
            "fails": counts["fail"], "skips": counts["skip"], "worst": worst,
            "failing_seeds": failing,
            "skip_reasons": dict(sorted(skip_reasons.items())),
            "wall_sec": round(time.monotonic() - started, 6)}


# ---------------------------------------------------------------------------
# sweeps: scalar summaries of matrix-valued functions over a grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvePoint:
    t: float
    trace: float
    lambda_min: float
    lambda_max: float
    link_margin: float  # Loewner margin of the monotone link ending here (nan for first)
    link_holds: bool


@dataclass(frozen=True)
class Curve:
    points: tuple

    @property
    def holds(self):
        return all(p.link_holds for p in self.points)


@dataclass(frozen=True)
class SweepSpec:
    instance_law: str
    evaluator: object  # (instances, grid) -> stack, one value per point and trial
    pivot: float       # minimum location; monotone direction flips here
    domain: tuple


def _sweep_tensor_f(insts, grid):
    return power_tensor_sum(*_pairs(insts), [1.0 + t for t in grid],
                            [1.0 - t for t in grid])


def _sweep_tensor_g(insts, grid):
    return power_tensor_sum(*_pairs(insts), list(grid),
                            [1.0 - t for t in grid])


def _sweep_matrix_callebaut_middle(insts, grid):
    sums = _path_sums([d for t in grid for d in _pair(t)], *_stacks(insts))
    return _tensor_sum(sums[0::2], sums[1::2])


def _sweep_scalar_callebaut_f(insts, grid):
    return _exact(np.array(
        [[[[callebaut_f(inst.a_seq, inst.b_seq, t, inst.params["sc"])]]
          for inst in insts] for t in grid], dtype=np.complex128))


SWEEPS = {
    "tensor-f": SweepSpec("tensor-f", _sweep_tensor_f, 0.0, (-1.0, 1.0)),
    "tensor-g": SweepSpec("tensor-g", _sweep_tensor_g, 0.5, (0.0, 1.0)),
    "matrix-callebaut-middle": SweepSpec(
        "matrix-callebaut", _sweep_matrix_callebaut_middle, 0.5, (0.0, 1.0)),
    "scalar-callebaut-f": SweepSpec(
        "scalar-callebaut", _sweep_scalar_callebaut_f, 0.0, (0.0, 1.0)),
}


def sweep_law(name, instance, grid, tol=DEFAULT_TOL):
    """Evaluate a sweepable law over a strictly increasing grid in its exact
    domain, linked by ``_vshape``: the evaluator on a chunk of one."""
    try:
        sw = SWEEPS[name]
    except KeyError:
        raise InstanceError(f"law {name!r} is not sweepable") from None
    if instance.law != sw.instance_law:
        raise InstanceError(f"sweep {name}: instance was sampled for "
                            f"{instance.law!r}, not {sw.instance_law!r}")
    _refuse_bad_tol(f"sweep {name}", tol)
    grid = [float(t) for t in grid]
    if not grid:
        raise InstanceError(f"sweep {name}: empty grid checks no link")
    # written so that a NaN point, which compares false, fails them
    if not all(t0 < t1 for t0, t1 in zip(grid, grid[1:])):
        raise InstanceError(f"sweep {name}: grid must be strictly increasing")
    lo, hi = sw.domain
    if not lo <= grid[0] <= grid[-1] <= hi:
        raise InstanceError(f"sweep {name}: grid [{grid[0]}, {grid[-1]}] "
                            f"outside domain [{lo}, {hi}]")
    try:
        values = sw.evaluator([instance], grid)
        links = [None, *_vshape(grid, values, sw.pivot, tol)[0]]
        if all(link is None for link in links):
            raise InstanceError(f"sweep {name}: grid {grid} checks no link "
                                f"(none joins two points on one side of the "
                                f"pivot {sw.pivot})")
        values = values[:, 0]
        lams = values.decomposition().eigenvalues
    except LinalgError as exc:
        raise _linalg_failure(instance.law, [instance.seed], instance.n,
                              instance.m, exc) from None
    points = tuple(CurvePoint(
        t=t, trace=float(trace), lambda_min=float(lam[0]),
        lambda_max=float(lam[-1]),
        link_margin=float("nan") if link is None else link.margin,
        link_holds=link is None or link.holds)
        for t, trace, lam, link in zip(grid, values.trace(), lams, links))
    return Curve(points=points)
