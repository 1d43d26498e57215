"""Dense Hermitian linear algebra on small matrices.

Everything downstream (means, inequality checks) is built from the pieces
here: a validated LAPACK eigensolver for complex Hermitian matrices,
spectral matrix functions, congruence, Kronecker/Hadamard products, and
Loewner-order comparison with explicit margins.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-13          # relative symmetry slack accepted on input
CONDITION_CAP = 1e12           # PDMatrix needs lambda_max / lambda_min below this
DECOMP_TOL = 1e-12             # reconstruction / unitarity budget
TENSOR_DIM_CAP = 64            # kron refuses results larger than this


class LinalgError(Exception):
    """Base class for errors raised by this module."""


class DimensionError(LinalgError):
    pass


class HermitianError(LinalgError):
    pass


class NotPositiveDefiniteError(LinalgError):
    pass


class ConvergenceError(LinalgError):
    pass


class FunctionDomainError(LinalgError):
    pass


class TensorSizeError(LinalgError):
    pass


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending, real) and a unitary of eigenvectors."""

    eigenvalues: np.ndarray
    unitary: np.ndarray


class HermitianMatrix:
    """An n-by-n self-adjoint complex matrix.

    Input arrays are validated to be Hermitian within a relative slack of
    ``HERMITIAN_TOL`` and then symmetrized exactly, so ``entries`` always
    satisfies A = A* to machine precision.  Instances are immutable; the
    spectral decomposition is computed lazily and cached.
    """

    __slots__ = ("_a", "_spec")

    def __init__(self, entries):
        a = np.array(entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise DimensionError("dimension must be at least 1")
        if not np.all(np.isfinite(a.view(np.float64))):
            raise HermitianError("matrix contains non-finite entries")
        scale = np.max(np.abs(a)) if a.size else 0.0
        dev = np.max(np.abs(a - a.conj().T))
        if dev > HERMITIAN_TOL * max(scale, 1e-300):
            raise HermitianError(
                f"matrix is not Hermitian: asymmetry {dev:.3e} exceeds "
                f"{HERMITIAN_TOL:.0e} * {scale:.3e}"
            )
        a = (a + a.conj().T) / 2.0
        a.flags.writeable = False
        self._a = a
        self._spec = None

    @property
    def array(self):
        """Read-only complex128 view of the entries."""
        return self._a

    @property
    def n(self):
        return self._a.shape[0]

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n))

    @classmethod
    def diagonal(cls, values):
        return cls(np.diag(np.asarray(values, dtype=float)))

    def decomposition(self):
        """Cached spectral decomposition (computed by ``eig_hermitian``)."""
        if self._spec is None:
            self._spec = eig_hermitian(self)
        return self._spec

    def norm_fro(self):
        return float(np.linalg.norm(self._a))

    def norm_2(self):
        lam = self.decomposition().eigenvalues
        return float(max(abs(lam[0]), abs(lam[-1])))

    def trace(self):
        return float(np.real(np.trace(self._a)))

    def __add__(self, other):
        _require_same_dim(self, other)
        return HermitianMatrix(self._a + other.array)

    def __sub__(self, other):
        _require_same_dim(self, other)
        return HermitianMatrix(self._a - other.array)

    def __mul__(self, scalar):
        return HermitianMatrix(self._a * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


class PDMatrix(HermitianMatrix):
    """A positive definite Hermitian matrix.

    Construction rejects a matrix unless its smallest eigenvalue exceeds
    its largest divided by ``CONDITION_CAP`` (so it is positive with
    condition number below the cap).  A HermitianMatrix argument is adopted
    as is: its read-only entries and any cached decomposition are shared,
    not copied or recomputed.  Anything else is validated by
    ``HermitianMatrix``.
    """

    __slots__ = ()

    def __init__(self, entries):
        if isinstance(entries, HermitianMatrix):
            self._a, self._spec = entries._a, entries._spec
        else:
            HermitianMatrix.__init__(self, entries)
        lam = self.decomposition().eigenvalues
        lo, hi = float(lam[0]), float(lam[-1])
        # also rejects hi <= 0, where lo <= hi <= hi / CONDITION_CAP
        if lo <= hi / CONDITION_CAP:
            raise NotPositiveDefiniteError(
                f"not positive definite within condition cap "
                f"{CONDITION_CAP:.0e}: eigenvalue range [{lo:.3e}, {hi:.3e}]"
            )


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of testing A <= B in the Loewner order.

    ``margin`` is the smallest eigenvalue of B - A; the comparison passes
    when the margin is no worse than -tolerance * max(1, scale) with
    scale = ||A||_2 + ||B||_2.
    """

    holds: bool
    margin: float
    scale: float
    tolerance: float

    @classmethod
    def judge(cls, margin, scale, tolerance):
        """The verdict on a margin, by the pass rule above."""
        margin, scale = float(margin), float(scale)
        return cls(holds=margin >= -tolerance * max(1.0, scale),
                   margin=margin, scale=scale, tolerance=tolerance)


def _require_same_dim(a, b):
    if a.n != b.n:
        raise DimensionError(f"dimension mismatch: {a.n} vs {b.n}")


def eig_hermitian(A):
    """Diagonalize a HermitianMatrix with LAPACK (``numpy.linalg.eigh``).

    Returns a SpectralDecomposition with eigenvalues ascending.  The result
    is validated: reconstruction and unitarity residuals above
    ``DECOMP_TOL`` raise ConvergenceError.  A 1-by-1 matrix is its own
    eigenvalue and runs no solver.
    """
    a = A.array
    if a.shape[0] == 1:
        return _finish_decomposition(
            np.real(np.diagonal(a)), np.eye(1, dtype=np.complex128), A)
    lam, u = np.linalg.eigh(a)
    return _finish_decomposition(lam, u, A)


def _sorted_spectrum(lam, u):
    """A read-only SpectralDecomposition with the eigenvalues ascending."""
    order = np.argsort(lam, kind="stable")
    lam = np.ascontiguousarray(lam[order])
    u = np.ascontiguousarray(u[:, order])
    lam.flags.writeable = False
    u.flags.writeable = False
    return SpectralDecomposition(lam, u)


def _finish_decomposition(lam, u, original):
    spec = _sorted_spectrum(lam, u)
    lam, u = spec.eigenvalues, spec.unitary
    a = original.array
    fro = np.linalg.norm(a)
    recon = float(np.linalg.norm(congruence_diag(u, lam) - a))
    ortho = float(np.linalg.norm(u.conj().T @ u - np.eye(len(lam))))
    if recon > DECOMP_TOL * max(1.0, fro) or ortho > DECOMP_TOL:
        raise ConvergenceError(
            f"eigendecomposition failed validation: reconstruction {recon:.3e}, "
            f"unitarity {ortho:.3e}")
    return spec


def spectral_values(fn, eigenvalues):
    """fn applied once to the whole eigenvalue array, checked to be finite
    and real; FunctionDomainError names the first eigenvalue where not."""
    v = np.asarray(fn(eigenvalues))
    ok = np.isfinite(v)
    if v.dtype.kind == "c":
        ok &= abs(v.imag) <= 1e-12 * np.maximum(1.0, abs(v.real))
    if not ok.all():
        i = int(np.argmin(ok))
        raise FunctionDomainError(f"function value {v[i]!r} at eigenvalue "
                                  f"{eigenvalues[i]!r} is not finite real")
    return v.real


def congruence_diag(c, values):
    """The array C diag(values) C*; with C unitary, a spectral calculus."""
    return (c * values) @ c.conj().T


def apply_function(A, fn):
    """U diag(fn(lambda)) U* as a HermitianMatrix carrying that spectral
    decomposition, so no eigensolver runs on it.  ``fn`` takes the array of
    eigenvalues and returns the array of their images, as numpy ufuncs do;
    FunctionDomainError names an eigenvalue where a value is not finite real.
    """
    spec = A.decomposition()
    out_spec = _sorted_spectrum(spectral_values(fn, spec.eigenvalues),
                                spec.unitary)
    out = HermitianMatrix(congruence_diag(out_spec.unitary,
                                          out_spec.eigenvalues))
    out._spec = out_spec
    return out


def power(A, t):
    """Fractional power of a PD matrix; power(A, 0) = I, power(A, -1) = inverse."""
    t = float(t)
    return PDMatrix(apply_function(A, lambda lam: lam ** t))


def congruence(C, X):
    """The congruence transform C* X C, symmetrized exactly."""
    c = np.asarray(C, dtype=np.complex128)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionError(f"congruence matrix must be square, got {c.shape}")
    if c.shape[0] != X.n:
        raise DimensionError(f"dimension mismatch: {c.shape[0]} vs {X.n}")
    out = c.conj().T @ X.array @ c
    return HermitianMatrix((out + out.conj().T) / 2.0)


def kron(A, B):
    """Kronecker (tensor) product of two Hermitian matrices."""
    out = A.n * B.n
    if out > TENSOR_DIM_CAP:
        raise TensorSizeError(
            f"tensor product dimension {out} exceeds cap {TENSOR_DIM_CAP}"
        )
    return HermitianMatrix(np.kron(A.array, B.array))


def hadamard(A, B):
    """Entrywise (Hadamard) product of two same-size Hermitian matrices."""
    _require_same_dim(A, B)
    return HermitianMatrix(A.array * B.array)


def kron_diagonal_block(T, n):
    """Principal submatrix of an (n*n)-dim tensor product on indices i*(n+1).

    For T = kron(A, B) this recovers hadamard(A, B).
    """
    if T.n != n * n:
        raise DimensionError(f"expected dimension {n * n}, got {T.n}")
    idx = np.arange(n) * (n + 1)
    return HermitianMatrix(T.array[np.ix_(idx, idx)])


def loewner_leq(A, B, tol=1e-8):
    """Test A <= B in the Loewner order, reporting the margin either way."""
    _require_same_dim(A, B)
    margin = (B - A).decomposition().eigenvalues[0]
    return LoewnerVerdict.judge(margin, A.norm_2() + B.norm_2(), tol)


def rel_residual(X, Y):
    """Relative Frobenius distance, floored at unit scale."""
    _require_same_dim(X, Y)
    denom = max(1.0, X.norm_fro(), Y.norm_fro())
    return float(np.linalg.norm(X.array - Y.array)) / denom


def pd_sum(mats, scale=1.0):
    """Positive definite sum (optionally scaled) of PD matrices."""
    if not mats:
        raise DimensionError("empty sum")
    acc = mats[0].array.copy()
    for m in mats[1:]:
        acc = acc + m.array
    return PDMatrix(acc * float(scale))


# ---------------------------------------------------------------------------
# Matrix file format: {"n": int, "field": "real"|"complex",
#                      "entries": [[re, im], ...]} row-major, length n^2.
# ---------------------------------------------------------------------------

def matrix_to_dict(A):
    a = A.array
    n = a.shape[0]
    is_real = float(np.max(np.abs(a.imag))) == 0.0
    entries = [[float(v.real), float(v.imag)] for v in a.reshape(-1)]
    return {"n": n, "field": "real" if is_real else "complex", "entries": entries}


def matrix_from_dict(d):
    n = int(d["n"])
    entries = d["entries"]
    if len(entries) != n * n:
        raise DimensionError(
            f"matrix file claims n={n} but has {len(entries)} entries"
        )
    a = np.array(
        [complex(re, im) for re, im in entries], dtype=np.complex128
    ).reshape(n, n)
    if d.get("field") == "real" and np.max(np.abs(a.imag)) != 0.0:
        raise HermitianError("field declared real but imaginary parts present")
    return HermitianMatrix(a)


def save_matrix(path, A):
    with open(path, "w") as fh:
        json.dump(matrix_to_dict(A), fh)


def load_matrix(path):
    with open(path) as fh:
        return matrix_from_dict(json.load(fh))
