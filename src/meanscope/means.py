"""Kubo-Ando operator means built from representing functions.

A mean is described by a ``MeanDescriptor``; its representing function f
(normalized so f(1) = 1) defines the two-variable matrix mean through

    A sigma B = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2}.

The family implemented here: arithmetic, harmonic, geometric, weighted
geometric, binary power means, the interpolational power-mean paths, and
duals (representing function t -> t / f(t)) of any of these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (PDMatrix, congruence, congruence_diag, spectral_values,
                     _require_same_dim)

# Below this magnitude the power-mean exponent r is treated as the
# geometric limit r -> 0 to avoid the 1/r blowup.
R_GEOMETRIC_CUTOFF = 1e-8

_KINDS = ("arithmetic", "harmonic", "geometric", "wgeo", "power", "powerpath",
          "geopath", "dual")
_REQUIRED = {"wgeo": ("p",), "power": ("r",), "powerpath": ("r", "t"),
             "geopath": ("t",)}


@dataclass(frozen=True)
class MeanDescriptor:
    """Identifies one Kubo-Ando mean in the supported family.

    kind        parameters
    ----------  ------------------------------------------
    arithmetic  -
    harmonic    -
    geometric   -
    wgeo        p in [0, 1]           (f(t) = t^p)
    power       r in [-1, 1]          (r ~ 0 means geometric)
    powerpath   r in [-1, 1], t in [0, 1]
    geopath     t in [0, 1]           (f(x) = x^t)
    dual        inner descriptor      (f(t) = t / f_inner(t))
    """

    kind: str
    p: float = None
    r: float = None
    t: float = None
    inner: "MeanDescriptor" = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown mean kind {self.kind!r}")
        for name in _REQUIRED.get(self.kind, ()):
            if getattr(self, name) is None:
                raise ValueError(f"{self.kind} mean requires parameter {name!r}")
        if self.kind == "wgeo" and not 0.0 <= self.p <= 1.0:
            raise ValueError(f"weighted geometric exponent {self.p} outside [0, 1]")
        if self.kind in ("power", "powerpath") and not -1.0 <= self.r <= 1.0:
            raise ValueError(f"power exponent {self.r} outside [-1, 1]")
        if self.kind in ("powerpath", "geopath") and not 0.0 <= self.t <= 1.0:
            raise ValueError(f"path parameter {self.t} outside [0, 1]")
        if self.kind == "dual" and not isinstance(self.inner, MeanDescriptor):
            raise ValueError("dual requires an inner descriptor")


def arithmetic():
    return MeanDescriptor("arithmetic")


def harmonic():
    return MeanDescriptor("harmonic")


def geometric():
    return MeanDescriptor("geometric")


def weighted_geometric(p):
    return MeanDescriptor("wgeo", p=float(p))


def power_mean(r):
    return MeanDescriptor("power", r=float(r))


def power_path(r, t):
    return MeanDescriptor("powerpath", r=float(r), t=float(t))


def geometric_path(t):
    return MeanDescriptor("geopath", t=float(t))


def dual(d):
    """Dual mean: representing function t / f(t).

    A double dual unwraps structurally; everything else is wrapped and
    evaluated through the composed scalar function, so arbitrary nesting
    works without symbolic rewriting.
    """
    if d.kind == "dual":
        return d.inner
    return MeanDescriptor("dual", inner=d)


def representing_fn(d):
    """Representing function on (0, inf) with f(1) = 1, elementwise on arrays."""
    if d.kind == "arithmetic":
        return lambda x: (1.0 + x) / 2.0
    if d.kind == "harmonic":
        return lambda x: 2.0 * x / (1.0 + x)
    if d.kind == "geometric":
        return np.sqrt
    if d.kind == "wgeo":
        p = d.p
        return lambda x: x ** p
    if d.kind == "power":
        r = d.r
        if abs(r) < R_GEOMETRIC_CUTOFF:
            return np.sqrt
        return lambda x: ((1.0 + x ** r) / 2.0) ** (1.0 / r)
    if d.kind == "powerpath":
        r, t = d.r, d.t
        if abs(r) < R_GEOMETRIC_CUTOFF:
            return lambda x: x ** t
        return lambda x: (1.0 - t + t * x ** r) ** (1.0 / r)
    if d.kind == "geopath":
        t = d.t
        return lambda x: x ** t
    if d.kind == "dual":
        f = representing_fn(d.inner)
        return lambda x: x / f(x)
    raise ValueError(f"unknown mean kind {d.kind!r}")


def mean(d, A, B):
    """A sigma B = C diag(f(L)) C*, where M = A^{-1/2} B A^{-1/2} = U L U*
    and C = A^{1/2} U: this is A^{1/2} f(M) A^{1/2}, with f(M) never formed.

    A and B may be stacks of pairs (a single matrix broadcasts against a
    stack): each pair takes A's cached decomposition and one validated
    eigendecomposition of its M, all in one call.  For a sequence of
    descriptors the result gets a leading axis, one slice per descriptor,
    all from those same decompositions.
    """
    _require_same_dim(A, B)
    spec = A.decomposition()
    root = np.sqrt(spec.eigenvalues)
    inv_half = congruence_diag(spec.unitary, 1.0 / root)
    # M is Hermitian only up to round-off that grows with cond(A), often
    # beyond HermitianMatrix's input slack; congruence symmetrizes it
    middle = PDMatrix(congruence(inv_half, B)).decomposition()
    c = congruence_diag(spec.unitary, root) @ middle.unitary
    if isinstance(d, MeanDescriptor):
        values = spectral_values(representing_fn(d), middle.eigenvalues)
    else:
        values = np.stack([spectral_values(representing_fn(x),
                                           middle.eigenvalues) for x in d])
    return PDMatrix(congruence_diag(c, values))


def geomean(A, B):
    return mean(geometric(), A, B)


def path_mean(r, t):
    """Descriptor of the point t of the interpolational path of exponent r;
    r ~ 0 is the geodesic #_t."""
    if abs(r) < R_GEOMETRIC_CUTOFF:
        return geometric_path(t)
    return power_path(r, t)


def path_point(r, t, A, B):
    """Point on the interpolational path; r ~ 0 is the geodesic A #_t B."""
    if not -1.0 <= r <= 1.0:
        raise ValueError(f"path exponent {r} outside [-1, 1]")
    return mean(path_mean(r, t), A, B)


def representing_gap(d1, d2, grid):
    """Largest relative gap |f1 - f2| / max(1, |f1|) between the
    representing functions of d1 and d2 over a grid of points."""
    x = np.asarray(grid, dtype=float)
    f1 = representing_fn(d1)(x)
    gap = np.abs(f1 - representing_fn(d2)(x)) / np.maximum(1.0, np.abs(f1))
    return float(np.max(gap))


def descriptors_match(d1, d2, grid=None, tol=1e-12):
    """Extensional equality: compare representing functions on a grid."""
    if grid is None:
        grid = np.geomspace(0.05, 20.0, 25)
    return representing_gap(d1, d2, grid) <= tol


# ---------------------------------------------------------------------------
# Compact string grammar, e.g. "geometric", "wgeo:0.25", "power:0.5",
# "path:r=0.5,t=0.25", "geopath:0.25", "dual(power:0.5)".
# ---------------------------------------------------------------------------

def format_descriptor(d):
    if d.kind in ("arithmetic", "harmonic", "geometric"):
        return d.kind
    if d.kind == "wgeo":
        return f"wgeo:{d.p!r}"
    if d.kind == "power":
        return f"power:{d.r!r}"
    if d.kind == "powerpath":
        return f"path:r={d.r!r},t={d.t!r}"
    if d.kind == "geopath":
        return f"geopath:{d.t!r}"
    if d.kind == "dual":
        return f"dual({format_descriptor(d.inner)})"
    raise ValueError(f"unknown mean kind {d.kind!r}")


def parse_descriptor(text):
    s = text.strip()
    if s.startswith("dual(") and s.endswith(")"):
        return dual_raw(parse_descriptor(s[5:-1]))
    if s in ("arithmetic", "harmonic", "geometric"):
        return MeanDescriptor(s)
    try:
        if s.startswith("wgeo:"):
            return weighted_geometric(float(s[5:]))
        if s.startswith("power:"):
            return power_mean(float(s[6:]))
        if s.startswith("geopath:"):
            return geometric_path(float(s[8:]))
        if s.startswith("path:"):
            parts = dict(kv.split("=") for kv in s[5:].split(","))
            return power_path(float(parts["r"]), float(parts["t"]))
    except (ValueError, KeyError) as exc:
        raise ValueError(f"bad mean descriptor {text!r}: {exc}") from exc
    raise ValueError(f"bad mean descriptor {text!r}")


def dual_raw(d):
    """Wrap in a dual without the double-dual unwrapping (exact round-trip)."""
    return MeanDescriptor("dual", inner=d)
