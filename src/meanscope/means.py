"""Kubo-Ando operator means built from representing functions.

A mean is described by a ``MeanDescriptor``; its representing function f
(normalized so f(1) = 1) defines the two-variable matrix mean through

    A sigma B = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2}.

Every mean here is a point m_{r,t} of an interpolational power-mean path,
f_{r,t}(x) = (1 - t + t x^r)^{1/r} with f_{0,t}(x) = x^t, or the dual of
one (representing function x -> x / f(x)).  The arithmetic, geometric and
binary power means are the points t = 1/2 of the paths r = 1, 0 and r; the
weighted geometric means #_t are the geodesic r = 0; the harmonic mean is
the dual of the arithmetic one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import (PDMatrix, congruence, congruence_diag, spectral_values,
                     _require_same_dim)

# Below this magnitude the power-mean exponent r is treated as the
# geometric limit r -> 0 to avoid the 1/r blowup.
R_GEOMETRIC_CUTOFF = 1e-8


@dataclass(frozen=True)
class MeanDescriptor:
    """The point m_{r,t} of the interpolational path of exponent r, with
    r in [-1, 1] (|r| < R_GEOMETRIC_CUTOFF is the geodesic) and t in
    [0, 1], or its dual when ``dual`` is set."""

    r: float
    t: float
    dual: bool = False

    def __post_init__(self):
        if not -1.0 <= self.r <= 1.0:
            raise ValueError(f"power exponent {self.r} outside [-1, 1]")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"path parameter {self.t} outside [0, 1]")


def power_path(r, t):
    return MeanDescriptor(float(r), float(t))


def arithmetic():
    return power_path(1.0, 0.5)


def geometric():
    return power_path(0.0, 0.5)


def power_mean(r):
    return power_path(r, 0.5)


def weighted_geometric(t):
    """A #_t B, the point t of the geodesic (f(x) = x^t)."""
    return power_path(0.0, t)


def dual(d):
    """Dual mean: representing function x / f(x); dual(dual(d)) == d."""
    return replace(d, dual=not d.dual)


def harmonic():
    return dual(arithmetic())


def representing_fn(d):
    """Representing function on (0, inf) with f(1) = 1, elementwise on arrays."""
    r, t = d.r, d.t
    f = ((lambda x: x ** t) if abs(r) < R_GEOMETRIC_CUTOFF
         else lambda x: (1.0 - t + t * x ** r) ** (1.0 / r))
    return (lambda x: x / f(x)) if d.dual else f


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
# Report spelling, one per mean: "arithmetic", "harmonic", "geometric",
# "dual(...)", "wgeo:0.25" (r = 0), "power:0.5" (t = 1/2), otherwise
# "path:r=0.5,t=0.25".
# ---------------------------------------------------------------------------

_NAMES = {arithmetic(): "arithmetic", harmonic(): "harmonic",
          geometric(): "geometric"}


def format_descriptor(d):
    if d in _NAMES:
        return _NAMES[d]
    if d.dual:
        return f"dual({format_descriptor(dual(d))})"
    if d.r == 0.0:
        return f"wgeo:{d.t!r}"
    if d.t == 0.5:
        return f"power:{d.r!r}"
    return f"path:r={d.r!r},t={d.t!r}"
