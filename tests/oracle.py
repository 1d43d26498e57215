"""Exact references for the float code, in 30-digit mpmath arithmetic.

The float inputs are converted exactly, so these results differ from the
true eigenvalues and means of the same matrices by about 1e-30 relative,
far below the 1e-12 budgets the tests hold the float code to.
"""

import mpmath
import numpy as np

DIGITS = 30


def _mp(h):
    return mpmath.matrix(h.array.tolist())


def _spectral(q, values):
    """Q diag(values) Q*."""
    return q * mpmath.diag(values) * q.transpose_conj()


def _to_array(x):
    n = x.rows
    return np.array([[complex(x[i, j]) for j in range(n)] for i in range(n)])


def eigenvalues(h):
    """The eigenvalues of a HermitianMatrix, ascending, rounded to float."""
    with mpmath.workdps(DIGITS):
        lam = mpmath.eighe(_mp(h), eigvals_only=True)
        return np.sort([float(mpmath.re(v)) for v in lam])


def _fn(d):
    """The representing function of a mean descriptor, written out anew in
    mpmath so that it shares no code with ``means.representing_fn``."""
    r, t = mpmath.mpf(d.r), mpmath.mpf(d.t)
    f = ((lambda x: x ** t) if r == 0
         else lambda x: (1 - t + t * x ** r) ** (1 / r))
    return (lambda x: x / f(x)) if d.dual else f


def means(descriptors, a, b):
    """A sigma B = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2} for each sigma
    described in ``descriptors``, as complex arrays; A^{1/2} is formed once."""
    with mpmath.workdps(DIGITS):
        lam, q = mpmath.eighe(_mp(a))
        roots = [mpmath.sqrt(mpmath.re(v)) for v in lam]
        half = _spectral(q, roots)
        inv_half = _spectral(q, [1 / r for r in roots])
        mu, u = mpmath.eighe(inv_half * _mp(b) * inv_half)
        mu = [mpmath.re(v) for v in mu]
        return [_to_array(half * _spectral(u, [_fn(d)(x) for x in mu]) * half)
                for d in descriptors]
