"""Catalog of verified inequality and identity laws.

A law is declared once, by ``register_law(name, sampler, check)``:

- ``sampler(espec, boundary)`` draws an instance (random matrices and
  in-region parameters) from an ``EnsembleSpec``; a ``boundary`` forces
  the parameters (s, t).  ``sample_instance`` names the instance after its
  law.
- ``check(instance, tol)`` returns the links of the law's chain, or raises
  ``Skip`` when the instance fails a hypothesis of the law.

Every link is decided by one pass rule, ``LoewnerVerdict.judge``: an
inequality A <= B by the margin lambda_min(B - A) at the scale
||A||_2 + ||B||_2, an identity X = Y by the margin -residual (relative
Frobenius) at scale 0, which holds exactly when the residual is at most the
tolerance.  ``check_law`` builds the trial's ``CheckResult``; a trial
passes iff every link holds.

``run_law`` owns a law's trial schedule and returns its report entry.
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
    HermitianMatrix,
    LinalgError,
    LoewnerVerdict,
    PDMatrix,
    congruence,
    hadamard,
    kron,
    kron_diagonal_block,
    loewner_leq,
    pd_sum,
    power,
    rel_residual,
    stack,
)
from .ensembles import (
    EnsembleSpec,
    REGION_BOUNDARY,
    REGIONS,
    random_invertible,
    random_ordered_pair,
    random_pd,
    random_pd_tuple,
    sample_region,
    seeded_rng,
)

DEFAULT_TOL = 1e-8        # Loewner link tolerance (relative to operand scale)
EQUALITY_TOL = 1e-9       # identity link tolerance (chains compose ~5 functions)
SCALAR_TOL = 1e-12        # scalar sequence inequalities
SUBMATRIX_TOL = 1e-13     # Hadamard member vs tensor principal submatrix
# The generator stream of the laws' own draws (sigma, path parameters,
# scalar sequences), apart from the ensemble's matrix and region streams.
LAW_STREAM = 101


class InstanceError(Exception):
    """Instance shape or parameters do not match the law's requirements, or
    the trial lies beyond what the float checks support (its linear algebra
    failed), which is no verdict."""


def _linalg_failure(law, seed, n, m, exc):
    """The InstanceError of a trial whose linear algebra failed (a power
    that squares a large kappa_max past the condition cap, say)."""
    return InstanceError(f"{law}: trial seed={seed} n={n} m={m} failed in "
                         f"linear algebra: {type(exc).__name__}: {exc}")


class Skip(Exception):
    """Raised by a check whose instance fails a hypothesis of its law: the
    trial is skipped, with the message as its reason."""


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
    law: str
    summary: dict
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
    As: list = None
    Bs: list = None
    sigma: object = None
    params: dict = field(default_factory=dict)
    ordered: tuple = None        # ((A, B), (C, D)) with A <= B and C <= D
    congruence: np.ndarray = None
    a_seq: np.ndarray = None     # positive scalar sequences
    b_seq: np.ndarray = None


@dataclass(frozen=True)
class LawSpec:
    sampler: object
    check: object
    n_cap: int = 6
    region: str = None
    reads_boundary: bool = False   # whether the sampler uses a forced (s, t)


_LAWS = {}


def register_law(name, sampler, check, n_cap=6, region=None,
                 reads_boundary=False):
    """Register a law; one with a parameter region reads a boundary."""
    _LAWS[name] = LawSpec(sampler=sampler, check=check,
                          n_cap=n_cap, region=region,
                          reads_boundary=reads_boundary or region is not None)


def law_names():
    return list(_LAWS)


def law_spec(name):
    try:
        return _LAWS[name]
    except KeyError:
        raise InstanceError(f"unknown law {name!r}") from None


def sample_instance(name, n, m, fieldname, kappa_max, seed, boundary=None):
    """Build a random instance for a law; ``boundary`` forces (s, t) params.
    A request the law refuses, or an ensemble setting EnsembleSpec refuses,
    raises an InstanceError that names the law; so does a failed sampling,
    naming the requested seed, n and m."""
    spec = law_spec(name)
    try:
        if n > spec.n_cap:
            raise InstanceError(f"n={n} is above its n cap {spec.n_cap}")
        if boundary is not None and not spec.reads_boundary:
            raise InstanceError("reads no boundary (s, t)")
        region = REGIONS.get(spec.region)
        if boundary is not None and region and not region(*boundary):
            raise InstanceError(f"boundary {tuple(boundary)} lies outside "
                                f"the {spec.region} region")
        try:
            espec = EnsembleSpec(n=n, m=m, field=fieldname,
                                 kappa_max=kappa_max, seed=seed)
        except ValueError as exc:
            raise InstanceError(str(exc)) from None
        inst = spec.sampler(espec, boundary)
    except InstanceError as exc:
        raise InstanceError(f"{name}: {exc}") from None
    except LinalgError as exc:
        raise _linalg_failure(name, seed, n, m, exc) from None
    inst.law = name
    return inst


def check_law(name, instance, tol=DEFAULT_TOL):
    """The trial's result: the links of the law's check, or its skip."""
    spec = law_spec(name)
    if instance.law != name:
        raise InstanceError(
            f"instance was sampled for {instance.law!r}, not {name!r}"
        )
    summary = {"n": instance.n, "m": instance.m, "seed": instance.seed,
               "field": instance.field, "params": dict(instance.params)}
    try:
        links = tuple(spec.check(instance, tol))
    except Skip as exc:
        return CheckResult(name, summary, (), skipped=True,
                           skip_reason=str(exc))
    except LinalgError as exc:
        raise _linalg_failure(name, instance.seed, instance.n, instance.m,
                              exc) from None
    return CheckResult(name, summary, links)


def _ineq(label, A, B, tol):
    return Link(label, loewner_leq(A, B, tol))


def _links(labels, values, pairs, tol):
    """The links values[i] <= values[j], one per label and index pair (i, j),
    from one stacked Loewner comparison; one eigendecomposition of the
    stack, which its slices share, gives every norm."""
    values.decomposition()
    if not pairs:
        return ()
    lo, hi = (list(side) for side in zip(*pairs))
    verdicts = loewner_leq(values[lo], values[hi], tol)
    return tuple(Link(label, v)
                 for label, v in zip(labels, verdicts, strict=True))


def _chain(labels, members, tol):
    """The links members[i] <= members[i+1] between neighbouring matrices
    of a stack, one per label."""
    return _links(labels, members, [(i, i + 1) for i in range(len(labels))],
                  tol)


def _residual_link(label, residual, tol):
    """An identity link: the margin -residual at scale 0, which holds
    exactly when the residual is at most tol."""
    return Link(label, LoewnerVerdict.judge(-residual, 0.0, tol))


def _eq(label, X, Y, tol=EQUALITY_TOL):
    return _residual_link(label, rel_residual(X, Y), tol)


def _scalar_ineq(label, lo, hi, tol=SCALAR_TOL):
    return Link(label, LoewnerVerdict.judge(hi - lo, max(abs(lo), abs(hi)),
                                            tol))


# A roster of concrete means used by laws quantified over "any mean".
def _sigma_roster():
    return [
        means.arithmetic(),
        means.harmonic(),
        means.geometric(),
        means.power_mean(0.5),
        means.power_mean(-0.5),
        means.weighted_geometric(0.25),
        means.dual(means.power_mean(0.5)),
    ]


def _pick_sigma(rng):
    roster = _sigma_roster()
    return roster[int(rng.integers(len(roster)))]


def _sample_pair(espec, boundary=None, **fields):
    """An instance on one random pair A, B; it reads no boundary."""
    return LawInstance(seed=espec.seed, n=espec.n, m=1, field=espec.field,
                       As=[random_pd(espec, 0)], Bs=[random_pd(espec, 1)],
                       **fields)


def _sample_tuples(espec, boundary=None, **fields):
    """An instance on random m-tuples A_j, B_j."""
    return LawInstance(seed=espec.seed, n=espec.n, m=espec.m,
                       field=espec.field, As=random_pd_tuple(espec, 0),
                       Bs=random_pd_tuple(espec, 1), **fields)


def _sample_sigma(espec, boundary, tag, draw):
    """The matrices ``draw`` samples, with a roster mean sigma picked by the
    law stream's generator ``tag``."""
    sigma = _pick_sigma(seeded_rng(espec.seed, LAW_STREAM, tag))
    return draw(espec, sigma=sigma,
                params={"sigma": means.format_descriptor(sigma)})


def _path_sums(ds, As, Bs):
    """The path sums sum_j A_j sigma B_j, one for each descriptor in ds, as
    a stack; every mean comes from one call on the stacked pairs."""
    family = means.mean(ds, stack(As), stack(Bs))
    return pd_sum([family[:, j] for j in range(len(As))])


def _sums(As, Bs):
    """sum_j A_j and sum_j B_j, as a stack of two."""
    pairs = stack([stack(As), stack(Bs)])
    return pd_sum([pairs[:, j] for j in range(len(As))])


def _pair(u, r=0.0):
    """The points u and 1-u of the interpolation path of exponent r (the
    geodesic #_u for r = 0), whose path sums are S(u) and S(1-u)."""
    return means.power_path(r, u), means.power_path(r, 1.0 - u)


def _tensor_sum(x, y):
    """The symmetrized tensor product x (x) y + y (x) x."""
    return kron(x, y) + kron(y, x)


def _region_st(inst):
    """The instance's (s, t), which must lie in its law's parameter region."""
    region = law_spec(inst.law).region
    s, t = inst.params["s"], inst.params["t"]
    if not REGIONS[region](s, t):
        raise InstanceError(f"(s={s}, t={t}) outside the {region} region")
    return s, t


def _one_coordinate(boundary, i):
    """Coordinate i of a forced (s, t), for a law that reads it alone; the
    other coordinate must equal it, or the run would ignore it silently."""
    if boundary[0] != boundary[1]:
        raise InstanceError(f"reads only {'st'[i]} of (s, t), and "
                            f"{'ts'[i]}={boundary[1 - i]} differs from it")
    return boundary[i]


# ---------------------------------------------------------------------------
# mean-axioms: normalization, congruence equivariance, joint monotonicity
# ---------------------------------------------------------------------------

def _sample_mean_axioms(espec, boundary):
    rng = seeded_rng(espec.seed, LAW_STREAM, 1)
    a, b = random_ordered_pair(espec, 0)
    c, d = random_ordered_pair(espec, 1)
    x = random_pd(espec, 2)
    y = random_pd(espec, 3)
    cmat = random_invertible(espec, 0)
    sigma = _pick_sigma(rng)
    return LawInstance(seed=espec.seed, n=espec.n, m=1,
                       field=espec.field, As=[x], Bs=[y],
                       sigma=sigma, ordered=((a, b), (c, d)),
                       congruence=cmat,
                       params={"sigma": means.format_descriptor(sigma)})


def _check_mean_axioms(inst, tol):
    d = inst.sigma
    eye = PDMatrix.identity(inst.n)
    x, y = inst.As[0], inst.Bs[0]
    c = inst.congruence
    (a, b), (cc, dd) = inst.ordered
    # I s I, x s y, (C*xC) s (C*yC), A s C and B s D in one call
    unit, xy, cxy, ac, bd = means.mean(
        d, stack([eye, x, PDMatrix(congruence(c, x)), a, b]),
        stack([eye, y, PDMatrix(congruence(c, y)), cc, dd]))
    return (_eq("normalization", unit, HermitianMatrix.identity(inst.n),
                tol=1e-13),
            _eq("congruence-equivariance", congruence(c, xy), cxy),
            _ineq("joint-monotonicity", ac, bd, tol))


# ---------------------------------------------------------------------------
# superadditivity: sum of means <= mean of sums
# ---------------------------------------------------------------------------

def _check_superadditivity(inst, tol):
    d = inst.sigma
    (lhs,) = _path_sums([d], inst.As, inst.Bs)
    rhs = means.mean(d, *_sums(inst.As, inst.Bs))
    return (_ineq("superadditivity", lhs, rhs, tol),)


# ---------------------------------------------------------------------------
# sharp-identity: (A sigma B) # (A sigma-dual B) = A # B
# ---------------------------------------------------------------------------

def _check_sharp_identity(inst, tol):
    d = inst.sigma
    x, y, sharp = means.mean((d, means.dual(d), means.geometric()),
                             inst.As[0], inst.Bs[0])
    return (_eq("sharp-identity", means.geomean(x, y), sharp),)


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


def _check_callebaut_operator(inst, tol):
    d = inst.sigma
    return _outer_links(inst.As, inst.Bs, (d, means.dual(d)), tol)


# ---------------------------------------------------------------------------
# geo-path-callebaut: the weighted-geometric specialization
# ---------------------------------------------------------------------------

def _sample_geo_path_callebaut(espec, boundary):
    if boundary is not None:
        s = _one_coordinate(boundary, 0)
    else:
        s, _ = sample_region("unit", espec.seed)
    return _sample_tuples(espec, params={"s": float(s)})


def _check_geo_path_callebaut(inst, tol):
    return _outer_links(inst.As, inst.Bs, _pair(inst.params["s"]), tol)


# ---------------------------------------------------------------------------
# path-monotonicity: F(s) <= F(t) for s between t and 1-t
# ---------------------------------------------------------------------------

def _sample_path_monotonicity(espec, boundary):
    rng = seeded_rng(espec.seed, LAW_STREAM, 5)
    if boundary is not None:
        s, t = boundary
    else:
        s, t = sample_region("between", espec.seed)
    # geometric path by default; occasionally a power path, which triggers
    # the dual-symmetry hypothesis test and is normally skipped
    use_power = bool(rng.integers(8) == 0)
    r = float(rng.uniform(-1.0, 1.0)) if use_power else 0.0
    return _sample_tuples(espec,
                          params={"s": float(s), "t": float(t), "r": r})


def _path_dual_symmetry_residual(r, t):
    """Residual of the hypothesis dual(sigma_t) = sigma_{1-t} on a grid."""
    return means.representing_gap(means.power_path(r, 1.0 - t),
                                  means.dual(means.power_path(r, t)),
                                  np.geomspace(0.1, 10.0, 9))


def _check_path_monotonicity(inst, tol):
    s, t = _region_st(inst)
    r = inst.params["r"]
    hyp = max(_path_dual_symmetry_residual(r, u) for u in (t, s, 0.25))
    if hyp > EQUALITY_TOL:
        raise Skip(f"dual-symmetry hypothesis fails for r={r} "
                   f"(residual {hyp:.3e})")
    return (_path_monotonicity_link(inst, s, t, tol),)


def _path_monotonicity_link(inst, s, t, tol):
    """F(s) <= F(t) for F(u) = S(u) # S(1-u), with S the path sums of the
    instance's exponent r; a theorem only where the dual-symmetry
    hypothesis holds."""
    ss, s1, ts, t1 = _path_sums((*_pair(s, inst.params["r"]),
                                 *_pair(t, inst.params["r"])),
                                inst.As, inst.Bs)
    fs, ft = means.geomean(stack([ss, ts]), stack([s1, t1]))
    return _ineq("path-monotonicity", fs, ft, tol)


# ---------------------------------------------------------------------------
# scalar-callebaut: the classical chain plus monotonicity in the exponent
# spread, on positive scalar sequences
# ---------------------------------------------------------------------------

def scalar_callebaut_chain(a, b, s, t):
    """The four chain members of the classical inequality, in order."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    v0 = float(np.sum(np.sqrt(a * b))) ** 2
    v1 = float(np.sum(a ** s * b ** (1.0 - s)) * np.sum(a ** (1.0 - s) * b ** s))
    v2 = float(np.sum(a ** t * b ** (1.0 - t)) * np.sum(a ** (1.0 - t) * b ** t))
    v3 = float(np.sum(a) * np.sum(b))
    return v0, v1, v2, v3


def callebaut_f(a, b, r, s):
    """Callebaut's two-parameter product, increasing in |r|."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.sum(a ** (s + r) * b ** (s - r)) *
                 np.sum(a ** (s - r) * b ** (s + r)))


def _sample_scalar_callebaut(espec, boundary):
    rng = seeded_rng(espec.seed, LAW_STREAM, 6)
    if boundary is not None:
        s, t = boundary
    else:
        s, t = sample_region("callebaut", espec.seed)
    half_log = 0.5 * np.log(espec.kappa_max)
    a = np.exp(rng.uniform(-half_log, half_log, size=espec.m))
    b = np.exp(rng.uniform(-half_log, half_log, size=espec.m))
    r1, r2 = sorted(rng.uniform(0.0, 1.0, size=2))
    sc = float(rng.uniform(0.0, 1.0))
    return LawInstance(seed=espec.seed, n=1, m=espec.m, field="real",
                       a_seq=a, b_seq=b,
                       params={"s": float(s), "t": float(t),
                               "r1": float(r1), "r2": float(r2), "sc": sc})


def _check_scalar_callebaut(inst, tol):
    p = inst.params
    s, t = _region_st(inst)
    v0, v1, v2, v3 = scalar_callebaut_chain(inst.a_seq, inst.b_seq, s, t)
    return (
        _scalar_ineq("geometric-vs-s", v0, v1),
        _scalar_ineq("s-vs-t", v1, v2),
        _scalar_ineq("t-vs-cauchy-schwarz", v2, v3),
        _scalar_ineq("r-monotonicity",
                     callebaut_f(inst.a_seq, inst.b_seq, p["r1"], p["sc"]),
                     callebaut_f(inst.a_seq, inst.b_seq, p["r2"], p["sc"])),
    )


# ---------------------------------------------------------------------------
# power-lemma: A^r + A^{-r} <= A + A^{-1} for 0 <= r <= 1
# ---------------------------------------------------------------------------

POWER_LEMMA_GRID = tuple(np.round(np.linspace(0.0, 1.0, 11), 10))


def _sample_power_lemma(espec, boundary):
    return LawInstance(seed=espec.seed, n=espec.n, m=1,
                       field=espec.field, As=[random_pd(espec, 0)],
                       params={"r_grid": list(POWER_LEMMA_GRID)})


def _check_power_lemma(inst, tol):
    rs = list(inst.params["r_grid"])
    # A^r + A^-r as one stack: the bound (r = 1), the grid, and the
    # degenerate endpoints r = 0, which collapses to 2I, and r = 1, which
    # collapses to the bound
    exps = [1.0, *rs, 0.0, 1.0]
    sums = power(inst.As[0], exps) + power(inst.As[0], [-x for x in exps])
    linked = sums[:-2]
    return (*_links([f"r={r:g}" for r in rs], linked,
                    [(k, 0) for k in range(1, len(rs) + 1)], tol),
            _eq("r0-degenerate", sums[-2],
                2.0 * HermitianMatrix.identity(inst.n)),
            _eq("r1-degenerate", sums[-1], linked[0]))


# ---------------------------------------------------------------------------
# tensor-f / tensor-g: V-shaped Loewner monotonicity of tensor sums
# ---------------------------------------------------------------------------

def power_tensor_sum(a, b, p, q):
    """A^p x B^q + A^q x B^p: the tensor-f curve at (p, q) = (1+t, 1-t),
    the tensor-g curve at (t, 1-t).  For sequences p and q, the stack of
    the values at each pair (p[i], q[i])."""
    return kron(power(a, p), power(b, q)) + kron(power(a, q), power(b, p))


def vshape_grid(lo, hi, pivot, points_per_side=9):
    left = np.linspace(lo, pivot, points_per_side)
    right = np.linspace(pivot, hi, points_per_side)
    return np.unique(np.concatenate([left, right]))


def _vshape_links(grid, values, pivot, tol):
    """Loewner links between neighbouring points of a curve with its minimum
    at the pivot: decreasing left of it, increasing right of it.  One entry
    per neighbouring pair; None for the pair that straddles the pivot.
    ``values`` is the stack of the curve's values; one eigendecomposition
    of it gives every norm, and one of the stacked differences every
    margin."""
    labels, pairs = [], []      # pair (i, j) checks values[i] <= values[j]
    for i, (t0, t1) in enumerate(zip(grid, grid[1:])):
        if t1 <= pivot + 1e-12:
            labels.append(f"decreasing {t0:g}->{t1:g}")
            pairs.append((i + 1, i))
        elif t0 >= pivot - 1e-12:
            labels.append(f"increasing {t0:g}->{t1:g}")
            pairs.append((i, i + 1))
        else:
            labels.append(None)
    links = iter(_links([x for x in labels if x is not None], values, pairs,
                        tol))
    return [None if label is None else next(links) for label in labels]


def _check_tensor(inst, tol):
    """The law's SWEEPS curve over its V-shaped grid, linked pairwise."""
    sw = SWEEPS[inst.law]
    grid = vshape_grid(*sw.domain, sw.pivot)
    links = _vshape_links(grid, sw.evaluator(inst, grid), sw.pivot, tol)
    return [link for link in links if link is not None]


# ---------------------------------------------------------------------------
# matrix-callebaut: the tensor-product chain of Callebaut type
# ---------------------------------------------------------------------------

def callebaut_sums(As, Bs, s, t):
    """The sums both matrix Callebaut chains are built from, each evaluated
    once, as two stacks X and Y whose slices pair up: sum_j A_j # B_j with
    itself, S(s) with S(1-s), S(t) with S(1-t), and sum A_j with sum B_j,
    where S(u) = sum_j A_j #_u B_j."""
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


def _sample_matrix_callebaut(espec, boundary):
    if boundary is not None:
        s, t = boundary
    else:
        s, t = sample_region("callebaut", espec.seed)
    return _sample_tuples(espec, params={"s": float(s), "t": float(t)})


def _check_matrix_callebaut(inst, tol):
    members = matrix_callebaut_members(inst.As, inst.Bs, *_region_st(inst))
    return _chain(_CHAIN_LABELS, members, tol)


# ---------------------------------------------------------------------------
# hadamard-callebaut: the entrywise-product corollary, cross-checked against
# the principal submatrix of the tensor chain
# ---------------------------------------------------------------------------

def _check_hadamard_callebaut(inst, tol):
    sums = callebaut_sums(inst.As, inst.Bs, *_region_st(inst))
    h = hadamard(*sums)
    # derivation route: twice each Hadamard member is the principal
    # submatrix of the corresponding tensor chain member, built from the
    # same sums
    residuals = rel_residual(
        2.0 * h, kron_diagonal_block(_tensor_sum(*sums), inst.n))
    return _chain(_CHAIN_LABELS, h, tol) + tuple(
        _residual_link(f"submatrix-consistency-{i}", float(r), SUBMATRIX_TOL)
        for i, r in enumerate(residuals))


# ---------------------------------------------------------------------------
# hadamard-power: the averaged-powers corollary (B_j = I)
# ---------------------------------------------------------------------------

def _sample_hadamard_power(espec, boundary):
    if boundary is not None:
        t = _one_coordinate(boundary, 1)
    else:
        _, t = sample_region("unit", espec.seed)
    return LawInstance(seed=espec.seed, n=espec.n, m=espec.m,
                       field=espec.field, As=random_pd_tuple(espec, 0),
                       params={"t": float(t)})


def _check_hadamard_power(inst, tol):
    t = inst.params["t"]
    m = len(inst.As)
    avg = 1.0 / m
    # the averages of A_j^{1/2}, A_j^t and A_j^{1-t}, as a stack
    powers = power(stack(inst.As), [0.5, t, 1.0 - t])
    p_half, p_t, p_1t = pd_sum([powers[:, j] for j in range(m)], scale=avg)
    diag_part = HermitianMatrix(
        sum(np.diag(np.diagonal(a.array)) for a in inst.As) * avg)
    products = hadamard(stack([p_half, p_t]), stack([p_half, p_1t]))
    members = stack([*products, diag_part])
    return _chain(("sqrt-vs-t", "t-vs-diagonal"), members, tol)


# ---------------------------------------------------------------------------
# interpolation-identity: geodesic reparametrization of the geometric path
# ---------------------------------------------------------------------------

def _path_params(boundary):
    """Path parameters forced by a boundary, which must lie in [0, 1]."""
    if not REGIONS["unit"](*boundary):
        raise InstanceError(f"path parameters {tuple(boundary)} lie outside "
                            f"the unit region")
    return boundary


def _sample_interpolation_identity(espec, boundary):
    p, q, r = seeded_rng(espec.seed, LAW_STREAM, 7).uniform(0.0, 1.0, size=3)
    if boundary is not None:
        r = _one_coordinate(_path_params(boundary), 0)
    return _sample_pair(
        espec, params={"p": float(p), "q": float(q), "r": float(r)})


def _check_interpolation_identity(inst, tol):
    p, q, r = inst.params["p"], inst.params["q"], inst.params["r"]
    x, y, rhs = means.mean([means.weighted_geometric(u)
                            for u in (p, q, (1.0 - r) * p + r * q)],
                           inst.As[0], inst.Bs[0])
    lhs = means.mean(means.weighted_geometric(r), x, y)
    return (_eq("reparametrization", lhs, rhs),)


# ---------------------------------------------------------------------------
# path-axioms: endpoints, midpoint, interpolation midpoint, continuity
# ---------------------------------------------------------------------------

def _sample_path_axioms(espec, boundary):
    rng = seeded_rng(espec.seed, LAW_STREAM, 8)
    r = float(rng.uniform(-1.0, 1.0))
    p, q = rng.uniform(0.0, 1.0, size=2)
    if boundary is not None:
        p, q = _path_params(boundary)
    return _sample_pair(espec, params={"r": r, "p": float(p), "q": float(q)})


def _check_path_axioms(inst, tol):
    r, p, q = inst.params["r"], inst.params["p"], inst.params["q"]
    a, b = inst.As[0], inst.Bs[0]
    base = means.power_mean(r)
    # norm continuity is probed by a small parameter step from t0
    t0 = min(max(p, 1e-6), 1.0 - 1e-6)
    step = 1e-7
    ts = (0.0, 1.0, 0.5, p, q, (p + q) / 2.0, t0, t0 + step)
    left, right, mid, at_p, at_q, at_pq, at_t0, at_step, mean_ab = means.mean(
        [means.power_path(r, u) for u in ts] + [base], a, b)
    return (
        _eq("left-endpoint", left, a),
        _eq("right-endpoint", right, b),
        _eq("midpoint-is-mean", mid, mean_ab),
        _eq("interpolation-midpoint", means.mean(base, at_p, at_q), at_pq),
        _eq("continuity", at_t0, at_step, tol=1e-3),
    )


# ---------------------------------------------------------------------------
# wada: the tensor-product Callebaut refinement for a single pair
# ---------------------------------------------------------------------------

def _check_wada(inst, tol):
    d = inst.sigma
    a, b = inst.As[0], inst.Bs[0]
    sharp, x, y = means.mean((means.geometric(), d, means.dual(d)), a, b)
    # kron(sharp, sharp), then the halved tensor sums of (x, y) and (A, B);
    # the first is half the tensor sum of sharp with itself, exactly
    members = 0.5 * _tensor_sum(stack([sharp, x, a]), stack([sharp, y, b]))
    return _chain(("lower-link", "upper-link"), members, tol)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

register_law("mean-axioms", _sample_mean_axioms, _check_mean_axioms)
register_law("superadditivity",
             partial(_sample_sigma, tag=2, draw=_sample_tuples),
             _check_superadditivity)
register_law("sharp-identity",
             partial(_sample_sigma, tag=3, draw=_sample_pair),
             _check_sharp_identity)
register_law("callebaut-operator",
             partial(_sample_sigma, tag=4, draw=_sample_tuples),
             _check_callebaut_operator)
register_law("path-monotonicity", _sample_path_monotonicity,
             _check_path_monotonicity, region="between")
register_law("geo-path-callebaut", _sample_geo_path_callebaut,
             _check_geo_path_callebaut, region="unit")
register_law("scalar-callebaut", _sample_scalar_callebaut,
             _check_scalar_callebaut, region="callebaut")
register_law("power-lemma", _sample_power_lemma, _check_power_lemma)
register_law("tensor-f", _sample_pair, _check_tensor, n_cap=3)
register_law("tensor-g", _sample_pair, _check_tensor, n_cap=3)
register_law("matrix-callebaut", _sample_matrix_callebaut,
             _check_matrix_callebaut, n_cap=3, region="callebaut")
register_law("hadamard-callebaut", _sample_matrix_callebaut,
             _check_hadamard_callebaut, n_cap=3, region="callebaut")
register_law("hadamard-power", _sample_hadamard_power, _check_hadamard_power,
             region="unit")
register_law("interpolation-identity", _sample_interpolation_identity,
             _check_interpolation_identity, reads_boundary=True)
register_law("path-axioms", _sample_path_axioms, _check_path_axioms,
             reads_boundary=True)
register_law("wada", partial(_sample_sigma, tag=9, draw=_sample_pair),
             _check_wada, n_cap=3)


def boundary_params(name):
    """Forced degenerate parameter points for a law, if it has a region."""
    spec = law_spec(name)
    if spec.region is None:
        return []
    return list(REGION_BOUNDARY[spec.region])


def child_seed(master, law_index, trial):
    """Deterministic 63-bit trial seed; reproducible independently of order."""
    ss = np.random.SeedSequence((int(master) & (2**63 - 1), law_index, trial))
    return int(ss.generate_state(2, np.uint64)[0] & (2**63 - 1))


_NUMBER = re.compile(r"[-+]?\d[\d.]*(?:e[-+]?\d+)?")


def run_law(name, law_index, seed, trials, n, m, fieldname, kappa_max, tol):
    """The report entry of ``trials`` trials of the ``law_index``-th law of
    a run.  Trial k samples at ``child_seed(seed, law_index, k)``, at the
    fixed n (else k % 6 + 1, capped at the law's n cap) and m (else
    k % 4 + 1), the law's region boundaries first; the entry records the
    instance's n and m, and skip reasons with numbers blanked to '#'."""
    started = time.monotonic()
    n_cap = law_spec(name).n_cap
    boundaries = boundary_params(name)
    counts = Counter()
    skip_reasons = Counter()
    worst = None
    failing = []
    for k in range(trials):
        cs = child_seed(seed, law_index, k)
        boundary = boundaries[k] if k < len(boundaries) else None
        inst = sample_instance(
            name, n=min(n if n is not None else k % 6 + 1, n_cap),
            m=m if m is not None else k % 4 + 1, fieldname=fieldname,
            kappa_max=kappa_max, seed=cs, boundary=boundary)
        result = check_law(name, inst, tol=tol)
        counts[result.status] += 1
        if result.skipped:
            skip_reasons[_NUMBER.sub("#", result.skip_reason)] += 1
            continue
        trial = {"seed": cs, "n": inst.n, "m": inst.m,
                 "boundary": list(boundary) if boundary else None}
        if not result.holds:
            failing.append(trial)
        if worst is None or result.margin < worst["margin"]:
            worst = {"margin": result.margin, **trial}
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
    law: str
    grid: tuple
    points: tuple

    @property
    def holds(self):
        return all(p.link_holds for p in self.points)


@dataclass(frozen=True)
class SweepSpec:
    instance_law: str
    evaluator: object  # (instance, grid) -> stack of one value per point
    pivot: float       # minimum location; monotone direction flips here
    domain: tuple


def _sweep_tensor_f(inst, grid):
    return power_tensor_sum(inst.As[0], inst.Bs[0], [1.0 + t for t in grid],
                            [1.0 - t for t in grid])


def _sweep_tensor_g(inst, grid):
    return power_tensor_sum(inst.As[0], inst.Bs[0], list(grid),
                            [1.0 - t for t in grid])


def _sweep_matrix_callebaut_middle(inst, grid):
    sums = _path_sums([d for t in grid for d in _pair(t)], inst.As, inst.Bs)
    return _tensor_sum(sums[0::2], sums[1::2])


def _sweep_scalar_callebaut_f(inst, grid):
    return HermitianMatrix([[[callebaut_f(inst.a_seq, inst.b_seq, t,
                                          inst.params["sc"])]] for t in grid])


SWEEPS = {
    "tensor-f": SweepSpec("tensor-f", _sweep_tensor_f, 0.0, (-1.0, 1.0)),
    "tensor-g": SweepSpec("tensor-g", _sweep_tensor_g, 0.5, (0.0, 1.0)),
    "matrix-callebaut-middle": SweepSpec(
        "matrix-callebaut", _sweep_matrix_callebaut_middle, 0.5, (0.0, 1.0)),
    "scalar-callebaut-f": SweepSpec(
        "scalar-callebaut", _sweep_scalar_callebaut_f, 0.0, (0.0, 1.0)),
}


def sweep_law(name, instance, grid, tol=DEFAULT_TOL):
    """Evaluate a sweepable law over a sorted grid, with pairwise links."""
    try:
        sw = SWEEPS[name]
    except KeyError:
        raise InstanceError(f"law {name!r} is not sweepable") from None
    grid = [float(t) for t in grid]
    if not grid:
        raise InstanceError(f"sweep {name}: empty grid checks no link")
    if any(t1 <= t0 for t0, t1 in zip(grid, grid[1:])):
        raise InstanceError(f"sweep {name}: grid must be strictly increasing")
    lo, hi = sw.domain
    if grid[0] < lo - 1e-12 or grid[-1] > hi + 1e-12:
        raise InstanceError(f"sweep {name}: grid [{grid[0]}, {grid[-1]}] "
                            f"outside domain [{lo}, {hi}]")
    try:
        values = sw.evaluator(instance, grid)
        links = [None] + _vshape_links(grid, values, sw.pivot, tol)
        if all(link is None for link in links):
            raise InstanceError(f"sweep {name}: grid {grid} checks no link "
                                f"(none joins two points on one side of the "
                                f"pivot {sw.pivot})")
        lams = values.decomposition().eigenvalues
    except LinalgError as exc:
        raise _linalg_failure(instance.law, instance.seed, instance.n,
                              instance.m, exc) from None
    points = tuple(CurvePoint(
        t=t, trace=float(trace), lambda_min=float(lam[0]),
        lambda_max=float(lam[-1]),
        link_margin=float("nan") if link is None else link.margin,
        link_holds=link is None or link.holds)
        for t, trace, lam, link in zip(grid, values.trace(), lams, links))
    return Curve(law=name, grid=tuple(grid), points=points)
