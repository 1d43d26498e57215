"""Dense Hermitian linear algebra on small matrices.

Everything downstream (means, inequality checks) is built from the pieces
here: a validated LAPACK eigensolver for complex Hermitian matrices,
spectral matrix functions, congruence, Kronecker/Hadamard products, and
Loewner-order comparison with explicit margins.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

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
    """An n-by-n self-adjoint complex matrix, or a stack of them.

    Entries of shape (n, n) give one matrix; entries of shape (..., n, n)
    give a stack, one matrix per index of the leading axes.  Each matrix is
    validated to be Hermitian within a relative slack of ``HERMITIAN_TOL``
    and then symmetrized exactly, so ``entries`` always satisfies A = A* to
    machine precision.  Instances are immutable; the spectral decomposition
    is computed lazily, for a whole stack at once, and cached.  Indexing the
    leading axes of a stack gives its slices, which share the stack's
    entries and cached decomposition and are not checked again.
    """

    __slots__ = ("_a", "_spec")

    def __init__(self, entries):
        a = np.array(entries, dtype=np.complex128)
        if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[-1] < 1:
            raise DimensionError("dimension must be at least 1")
        if a.size == 0:
            raise DimensionError(f"empty stack of shape {a.shape}")
        finite = np.isfinite(a).all(axis=(-2, -1))
        if not finite.all():
            raise HermitianError(
                f"{_where(_first(~finite))}matrix contains non-finite entries")
        scale = np.abs(a).max(axis=(-2, -1))
        dev = np.abs(a - _adjoint(a)).max(axis=(-2, -1))
        bad = dev > HERMITIAN_TOL * np.maximum(scale, 1e-300)
        if bad.any():
            i = _first(bad)
            raise HermitianError(
                f"{_where(i)}matrix is not Hermitian: asymmetry {dev[i]:.3e} "
                f"exceeds {HERMITIAN_TOL:.0e} * {scale[i]:.3e}"
            )
        self._a = _readonly((a + _adjoint(a)) / 2.0)
        self._spec = None

    @property
    def array(self):
        """Read-only complex128 view of the entries."""
        return self._a

    @property
    def n(self):
        return self._a.shape[-1]

    @property
    def stack_shape(self):
        """The leading axes: () for a single matrix."""
        return self._a.shape[:-2]

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n))

    @classmethod
    def diagonal(cls, values):
        return cls(np.diag(np.asarray(values, dtype=float)))

    def __getitem__(self, index):
        """The slice (or sub-stack) of a stack at ``index`` on its leading
        axes, of this type, with its share of the cached decomposition."""
        index = index if isinstance(index, tuple) else (index,)
        if (len(index) > self._a.ndim - 2
                or any(i is None or i is Ellipsis for i in index)):
            raise IndexError(f"index {index} does not select slices of a "
                             f"stack of shape {self.stack_shape}")
        spec = self._spec
        return _adopt(type(self), self._a[index], None if spec is None else
                      (spec.eigenvalues[index], spec.unitary[index]))

    def __iter__(self):
        if not self.stack_shape:
            raise TypeError("a single matrix is not a stack")
        return (self[i] for i in range(self.stack_shape[0]))

    def decomposition(self):
        """Cached spectral decomposition (computed by ``eig_hermitian``)."""
        if self._spec is None:
            self._spec = eig_hermitian(self)
        return self._spec

    def norm_fro(self):
        return _per_slice(np.linalg.norm, self._a)

    def norm_2(self):
        lam = self.decomposition().eigenvalues
        return _float_or_array(np.maximum(abs(lam[..., 0]), abs(lam[..., -1])))

    def trace(self):
        return _float_or_array(np.real(np.trace(self._a, axis1=-2, axis2=-1)))

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
        stack = f", stack={self.stack_shape}" if self.stack_shape else ""
        return f"{type(self).__name__}(n={self.n}{stack})"


class PDMatrix(HermitianMatrix):
    """A positive definite Hermitian matrix, or a stack of them.

    Construction rejects a matrix unless its smallest eigenvalue exceeds
    its largest divided by ``CONDITION_CAP`` (so it is positive with
    condition number below the cap); a stack is rejected if any of its
    matrices is.  A HermitianMatrix argument is adopted as is: its
    read-only entries and any cached decomposition are shared, not copied
    or recomputed.  Anything else is validated by ``HermitianMatrix``.
    """

    __slots__ = ()

    def __init__(self, entries):
        if isinstance(entries, HermitianMatrix):
            self._a, self._spec = entries._a, entries._spec
        else:
            HermitianMatrix.__init__(self, entries)
        lam = self.decomposition().eigenvalues
        lo, hi = lam[..., 0], lam[..., -1]
        # also rejects hi <= 0, where lo <= hi <= hi / CONDITION_CAP
        bad = lo <= hi / CONDITION_CAP
        if bad.any():
            i = _first(bad)
            raise NotPositiveDefiniteError(
                f"{_where(i)}not positive definite within condition cap "
                f"{CONDITION_CAP:.0e}: eigenvalue range "
                f"[{lo[i]:.3e}, {hi[i]:.3e}]"
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


def _readonly(x):
    x.flags.writeable = False
    return x


def _adjoint(x):
    """The conjugate transpose of each matrix of an (..., n, n) array."""
    return x.conj().swapaxes(-1, -2)


def _first(bad):
    """Leading-axes index of the first True of a flag per matrix: () for a
    single matrix."""
    return np.unravel_index(int(np.argmax(bad)), np.shape(bad))


def _where(index):
    """Prefix naming the slice of a stack that an error is about."""
    return f"slice {','.join(map(str, index))}: " if index else ""


def _float_or_array(values):
    """A per-matrix value: a float for a single matrix, else an array over
    the stack's leading axes."""
    return float(values) if np.ndim(values) == 0 else values


def _per_slice(fn, *arrays):
    """float(fn) of the 2-D arrays of each matrix, so every slice gets the
    bits a single matrix gets; ``arrays`` broadcast against each other."""
    arrays = np.broadcast_arrays(*arrays)
    lead = arrays[0].shape[:-2]
    if not lead:
        return float(fn(*arrays))
    flat = [x.reshape((-1,) + x.shape[-2:]) for x in arrays]
    return np.array([float(fn(*xs)) for xs in zip(*flat)]).reshape(lead)


def _adopt(cls, a, spec):
    """An instance of ``cls`` on validated entries, with the spectrum
    (eigenvalues, unitary) when it is known."""
    out = object.__new__(cls)
    out._a = _readonly(a)
    out._spec = None if spec is None else SpectralDecomposition(
        *map(_readonly, spec))
    return out


def _require_same_dim(a, b):
    if a.n != b.n:
        raise DimensionError(f"dimension mismatch: {a.n} vs {b.n}")


def stack(mats):
    """The matrices, single ones or stacks of one shape, stacked along a new
    leading axis.  Nothing is checked again: the stack is a PDMatrix when
    every one of them is, and carries their decompositions when every one
    has its decomposition cached."""
    if not mats:
        raise DimensionError("empty stack")
    shapes = sorted({m.array.shape for m in mats})
    if len(shapes) > 1:
        raise DimensionError(f"cannot stack matrices of shapes {shapes}")
    specs = [m._spec for m in mats]
    spec = None if any(s is None for s in specs) else (
        np.stack([s.eigenvalues for s in specs]),
        np.stack([s.unitary for s in specs]))
    pd = all(isinstance(m, PDMatrix) for m in mats)
    return _adopt(PDMatrix if pd else HermitianMatrix,
                  np.stack([m.array for m in mats]), spec)


def eig_hermitian(A):
    """Diagonalize a HermitianMatrix with LAPACK (``numpy.linalg.eigh``),
    every matrix of a stack in one call.

    Returns a SpectralDecomposition with eigenvalues ascending.  The result
    is validated matrix by matrix: reconstruction and unitarity residuals
    above ``DECOMP_TOL`` raise ConvergenceError.  A 1-by-1 matrix is its
    own eigenvalue and runs no solver.
    """
    a = A.array
    if a.shape[-1] == 1:
        return _finish_decomposition(a.real[..., 0], np.ones_like(a), A)
    lam, u = np.linalg.eigh(a)
    return _finish_decomposition(lam, u, A)


def _sorted_spectrum(lam, u):
    """A read-only SpectralDecomposition with the eigenvalues ascending."""
    if not (lam[..., 1:] >= lam[..., :-1]).all():
        order = np.argsort(lam, axis=-1, kind="stable")
        lam = np.take_along_axis(lam, order, axis=-1)
        u = np.take_along_axis(u, order[..., None, :], axis=-1)
    return SpectralDecomposition(_readonly(lam),
                                 _readonly(np.ascontiguousarray(u)))


def _finish_decomposition(lam, u, original):
    spec = _sorted_spectrum(lam, u)
    lam, u = spec.eigenvalues, spec.unitary
    a = original.array
    fro, recon, ortho = np.linalg.norm(np.stack(
        [a, congruence_diag(u, lam) - a, _adjoint(u) @ u - np.eye(a.shape[-1])]),
        axis=(-2, -1))
    # written so that a NaN residual fails too
    bad = ~((recon <= DECOMP_TOL * np.maximum(1.0, fro))
            & (ortho <= DECOMP_TOL))
    if bad.any():
        i = _first(bad)
        raise ConvergenceError(
            f"{_where(i)}eigendecomposition failed validation: "
            f"reconstruction {recon[i]:.3e}, unitarity {ortho[i]:.3e}")
    return spec


def spectral_values(fn, eigenvalues):
    """fn applied once to the whole eigenvalue array (of a matrix or a
    stack; fn may add leading axes), checked to be finite and real;
    FunctionDomainError names the first eigenvalue where not."""
    v = np.asarray(fn(eigenvalues))
    ok = np.isfinite(v)
    if v.dtype.kind == "c":
        ok &= abs(v.imag) <= 1e-12 * np.maximum(1.0, abs(v.real))
    if not ok.all():
        i = int(np.argmin(ok))
        lam = np.broadcast_to(eigenvalues, v.shape).flat[i]
        raise FunctionDomainError(f"function value {v.flat[i]!r} at "
                                  f"eigenvalue {lam!r} is not finite real")
    return v.real


def congruence_diag(c, values):
    """The array C diag(values) C* for each matrix C of a stack and its row
    of values; with C unitary, a spectral calculus."""
    return (c * values[..., None, :]) @ _adjoint(c)


def apply_function(A, fn):
    """U diag(fn(lambda)) U* as a HermitianMatrix carrying that spectral
    decomposition, so no eigensolver runs on it.  ``fn`` takes the array of
    eigenvalues and returns the array of their images, as numpy ufuncs do;
    it may add leading axes, which then lead the result's stack.
    FunctionDomainError names an eigenvalue where a value is not finite real.
    """
    spec = A.decomposition()
    values = spectral_values(fn, spec.eigenvalues)
    out_spec = _sorted_spectrum(values, np.broadcast_to(
        spec.unitary, values.shape + values.shape[-1:]))
    out = HermitianMatrix(congruence_diag(out_spec.unitary,
                                          out_spec.eigenvalues))
    out._spec = out_spec
    return out


def power(A, t):
    """Fractional power of a PD matrix; power(A, 0) = I, power(A, -1) = inverse.

    For a sequence of exponents, the stack of A^t over them, on a new
    leading axis.  Each exponent is applied as its own scalar ``lam ** t``,
    since numpy computes ``lam ** 0.5``, ``** 2`` and ``** -1`` by exact
    shortcuts that an array of exponents would not take.
    """
    if np.ndim(t) == 0:
        t = float(t)
        return PDMatrix(apply_function(A, lambda lam: lam ** t))
    ts = [float(x) for x in t]
    return PDMatrix(apply_function(
        A, lambda lam: np.stack([lam ** x for x in ts])))


def congruence(C, X):
    """The congruence transform C* X C, symmetrized exactly."""
    c = np.asarray(C, dtype=np.complex128)
    if c.ndim < 2 or c.shape[-1] != c.shape[-2]:
        raise DimensionError(f"congruence matrix must be square, got {c.shape}")
    if c.shape[-1] != X.n:
        raise DimensionError(f"dimension mismatch: {c.shape[-1]} vs {X.n}")
    out = _adjoint(c) @ X.array @ c
    return HermitianMatrix((out + _adjoint(out)) / 2.0)


def kron(A, B):
    """Kronecker (tensor) product of two Hermitian matrices.

    Formed as a broadcast product, which gives ``np.kron``'s bits and works
    slice by slice on stacks."""
    a, b = A.array, B.array
    n, p = a.shape[-1], b.shape[-1]
    if n * p > TENSOR_DIM_CAP:
        raise TensorSizeError(
            f"tensor product dimension {n * p} exceeds cap {TENSOR_DIM_CAP}"
        )
    k = a[..., :, None, :, None] * b[..., None, :, None, :]
    return HermitianMatrix(k.reshape(k.shape[:-4] + (n * p, n * p)))


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
    return HermitianMatrix(T.array[..., idx[:, None], idx])


def loewner_leq(A, B, tol=1e-8):
    """Test A <= B in the Loewner order, reporting the margin either way.

    With stacks (a single matrix broadcasts against a stack) the result is
    a list of verdicts, one per matrix in C order, whose margins come from
    one stacked eigendecomposition of B - A.
    """
    _require_same_dim(A, B)
    margin = (B - A).decomposition().eigenvalues[..., 0]
    scale = A.norm_2() + B.norm_2()
    if np.ndim(margin) == 0:
        return LoewnerVerdict.judge(margin, scale, tol)
    return [LoewnerVerdict.judge(m, s, tol) for m, s in
            zip(margin.flat, np.broadcast_to(scale, margin.shape).flat)]


def rel_residual(X, Y):
    """Relative Frobenius distance, floored at unit scale; per matrix of a
    stack."""
    _require_same_dim(X, Y)

    def rel(x, y):
        denom = max(1.0, float(np.linalg.norm(x)), float(np.linalg.norm(y)))
        return float(np.linalg.norm(x - y)) / denom

    return _per_slice(rel, X.array, Y.array)


def pd_sum(mats, scale=1.0):
    """Positive definite sum (optionally scaled) of PD matrices, added in
    order; stacks of one shape add matrix by matrix."""
    if not mats:
        raise DimensionError("empty sum")
    acc = mats[0].array.copy()
    for m in mats[1:]:
        acc = acc + m.array
    return PDMatrix(acc * float(scale))


# ---------------------------------------------------------------------------
# Matrix dump encoding: {"n": int, "field": "real"|"complex",
#                        "entries": [[re, im], ...]} row-major, length n^2.
# ---------------------------------------------------------------------------

def matrix_to_dict(A):
    if A.stack_shape:       # the format holds one matrix
        raise DimensionError(f"cannot write a stack of shape {A.stack_shape} "
                             f"as one matrix")
    a = A.array
    n = A.n
    is_real = float(np.max(np.abs(a.imag))) == 0.0
    entries = [[float(v.real), float(v.imag)] for v in a.reshape(-1)]
    return {"n": n, "field": "real" if is_real else "complex", "entries": entries}

