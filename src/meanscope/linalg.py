"""Dense Hermitian linear algebra on small matrices.

Everything downstream (means, inequality checks) is built from the pieces
here: a validated LAPACK eigensolver for complex Hermitian matrices,
spectral matrix functions, congruence, Kronecker/Hadamard products, and
Loewner-order comparison with explicit margins.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-13          # relative symmetry slack accepted on input
CONDITION_CAP = 1e12           # PDMatrix needs lambda_max / lambda_min below this
DECOMP_TOL = 1e-12             # reconstruction / unitarity budget
TENSOR_DIM_CAP = 64            # kron refuses results larger than this
DEFAULT_TOL = 1e-8             # Loewner tolerance, relative to operand scale
# Entries up to this magnitude are symmetrized as (A + A*) / 2 without
# overflow: each real and imaginary part of A + A* stays finite.
SYMMETRIZABLE = np.finfo(np.float64).max / 2


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

    Entries of shape (n, n) give one matrix, of shape (..., n, n) a stack,
    one matrix per index of the leading axes.  Entries from outside the
    computation (a caller's, the CLI's, a fresh random draw) are validated:
    each matrix must be Hermitian within a relative slack of
    ``HERMITIAN_TOL``, and becomes its Hermitian part (A + A*) / 2; an entry
    above ``SYMMETRIZABLE`` in magnitude, where that could overflow, is
    refused.  A matrix computed from validated ones comes from ``_exact``.
    Instances are immutable; the spectral decomposition is computed lazily,
    for a whole stack at once, and cached.  Indexing the leading axes of a
    stack gives its slices: read-only views of the stack's entries and
    cached decomposition, not checked again.
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
        scale = np.abs(a).max(axis=(-2, -1))
        # NaN compares false, so this one test also refuses non-finite input
        if not scale.max() <= SYMMETRIZABLE:
            _require_finite(a)
            i = _first(~(scale <= SYMMETRIZABLE))
            raise HermitianError(
                f"{_where(i)}matrix entry of magnitude {scale[i]:.3e} is "
                f"above {SYMMETRIZABLE:.3e}, where symmetrizing overflows")
        adj = _adjoint(a)
        dev = np.abs(a - adj).max(axis=(-2, -1))
        bad = dev > HERMITIAN_TOL * np.maximum(scale, 1e-300)
        if bad.any():
            i = _first(bad)
            raise HermitianError(
                f"{_where(i)}matrix is not Hermitian: asymmetry {dev[i]:.3e} "
                f"exceeds {HERMITIAN_TOL:.0e} * {scale[i]:.3e}"
            )
        self._a = _readonly((a + adj) / 2.0)
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
        """The n-by-n identity with its exact spectrum (eigenvalues 1,
        eigenvectors I), the bits the eigensolver returns for it."""
        if n < 1:
            raise DimensionError("dimension must be at least 1")
        eye = np.eye(n, dtype=np.complex128)
        return _adopt(cls, eye, (np.ones(n), eye))

    def __getitem__(self, index):
        """The slice (or sub-stack) of a stack at ``index`` on its leading
        axes, of this type, with its share of the cached decomposition."""
        index = index if isinstance(index, tuple) else (index,)
        if (len(index) > self._a.ndim - 2
                or any(i is None or i is Ellipsis for i in index)):
            raise IndexError(f"index {index} does not select slices of a "
                             f"stack of shape {self.stack_shape}")
        out = object.__new__(type(self))
        out._a = _part(self._a, index)
        spec = self._spec
        out._spec = None if spec is None else SpectralDecomposition(
            _part(spec.eigenvalues, index), _part(spec.unitary, index))
        return out

    def __len__(self):
        """The length of a stack's first leading axis."""
        if not self.stack_shape:
            raise TypeError("a single matrix is not a stack")
        return self.stack_shape[0]

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def decomposition(self):
        """Cached spectral decomposition (computed by ``eig_hermitian``)."""
        if self._spec is None:
            self._spec = eig_hermitian(self)
        return self._spec

    def norm_2(self):
        lam = self.decomposition().eigenvalues
        return _float_or_array(np.maximum(abs(lam[..., 0]), abs(lam[..., -1])))

    def trace(self):
        return _float_or_array(np.real(np.trace(self._a, axis1=-2, axis2=-1)))

    def __add__(self, other):
        _require_same_dim(self, other)
        return _exact(self._a + other.array)

    def __sub__(self, other):
        _require_same_dim(self, other)
        return _exact(self._a - other.array)

    def __mul__(self, scalar):
        return _exact(self._a * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        stack = f", stack={self.stack_shape}" if self.stack_shape else ""
        return f"{type(self).__name__}(n={self.n}{stack})"


class PDMatrix(HermitianMatrix):
    """A positive definite Hermitian matrix, or a stack of them.

    Construction rejects a matrix unless its smallest eigenvalue exceeds
    its largest divided by ``CONDITION_CAP`` (so it is positive with
    condition number below the cap); a stack is rejected if any of its
    matrices is.  At n >= 2 with no cached spectrum, one Cholesky of the
    stack proves it (``_certified``), else the spectrum decides.  A
    HermitianMatrix argument is adopted with its read-only entries and
    any cached decomposition.  Anything else is validated first.
    """

    __slots__ = ()

    def __init__(self, entries):
        if isinstance(entries, HermitianMatrix):
            self._a, self._spec = entries._a, entries._spec
        else:
            HermitianMatrix.__init__(self, entries)
        if self._spec is None and self.n > 1 and _certified(self._a):
            return
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
    scale = ||A||_2 + ||B||_2.  A margin >= -tolerance passes at any scale,
    so ``loewner_leq`` computes such a verdict's scale when it is read.
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

    @classmethod
    def _passed(cls, margin, tolerance, scales, k):
        """A passing verdict whose scale is scales()[k], read on first use."""
        out = object.__new__(cls)
        out.__dict__.update(holds=True, margin=float(margin),
                            tolerance=tolerance, _scale=(scales, k))
        return out

    def __getattr__(self, name):
        # only a verdict from _passed lacks its scale, until its first read
        if name != "scale" or "_scale" not in self.__dict__:
            raise AttributeError(name)
        scales, k = self.__dict__.pop("_scale")
        return self.__dict__.setdefault("scale", float(scales()[k]))


def _readonly(x):
    x.flags.writeable = False
    return x


def _part(x, index):
    """x[index] of a read-only x, read-only: a basic index gives a view,
    which is read-only already, and a fancy one a copy, made read-only."""
    part = x[index]
    if part.flags.writeable:
        part.flags.writeable = False
    return part


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


def _adopt(cls, a, spec):
    """An instance of ``cls`` on validated entries, with the spectrum
    (eigenvalues, unitary) when it is known."""
    out = object.__new__(cls)
    out._a = _readonly(a)
    out._spec = None if spec is None else SpectralDecomposition(
        *map(_readonly, spec))
    return out


def _require_finite(a):
    """Refuse non-finite entries, naming the first slice that has one; the
    slice is located only when the test of the whole array fails."""
    if not np.isfinite(a).all():
        finite = np.isfinite(a).all(axis=(-2, -1))
        raise HermitianError(
            f"{_where(_first(~finite))}matrix contains non-finite entries")


def _exact(a, spec=None):
    """The HermitianMatrix on the Hermitian part (a + a*) / 2 of entries
    computed from validated matrices, with its spectrum (eigenvalues,
    unitary) when known.  That part is a itself for sums, products and
    submatrices, and differs from a congruence C diag(v) C* by round-off
    far below ``HERMITIAN_TOL``, so only finiteness is checked."""
    h = (a + _adjoint(a)) / 2.0
    _require_finite(h)
    return _adopt(HermitianMatrix, h, spec)


def _require_same_dim(a, b):
    if a.n != b.n:
        raise DimensionError(f"dimension mismatch: {a.n} vs {b.n}")


def stack(mats, axis=0):
    """The matrices, single ones or stacks of one shape, stacked along a new
    stack axis, the leading one unless ``axis`` names a later one.  Nothing
    is checked again: the stack is a PDMatrix when every one of them is, and
    carries their decompositions when every one has its decomposition
    cached."""
    if len(mats) == 0:
        raise DimensionError("empty stack")
    shape = mats[0].array.shape
    if any(m.array.shape != shape for m in mats):
        shapes = sorted({m.array.shape for m in mats})
        raise DimensionError(f"cannot stack matrices of shapes {shapes}")
    if not 0 <= axis <= len(shape) - 2:
        raise DimensionError(f"no stack axis {axis} for matrices of shape "
                             f"{shape}")
    specs = [m._spec for m in mats]
    spec = None if any(s is None for s in specs) else (
        _join([s.eigenvalues for s in specs], axis),
        _join([s.unitary for s in specs], axis))
    pd = all(isinstance(m, PDMatrix) for m in mats)
    return _adopt(PDMatrix if pd else HermitianMatrix,
                  _join([m.array for m in mats], axis), spec)


def _join(arrays, axis):
    """Arrays of one shape stacked on a new axis: one array as a view, and
    np.array builds a leading axis at less cost per call than np.stack."""
    if axis:
        return np.stack(arrays, axis=axis)
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def eig_hermitian(A):
    """Diagonalize a HermitianMatrix with LAPACK (``numpy.linalg.eigh``),
    every matrix of a stack in one call.

    Returns a SpectralDecomposition with eigenvalues ascending.  The result
    is validated matrix by matrix: reconstruction and unitarity residuals
    above ``DECOMP_TOL`` raise ConvergenceError.  A 1-by-1 matrix is its
    own eigenvalue with eigenvector 1: exact, so it runs no solver and no
    validation.
    """
    a = A.array
    if a.shape[-1] == 1:
        return SpectralDecomposition(
            *_sorted_spectrum(a.real[..., 0], np.ones_like(a)))
    lam, u = np.linalg.eigh(a)
    return _finish_decomposition(lam, u, A)


def _sorted_spectrum(lam, u):
    """Read-only eigenvalues, ascending, and their unitary."""
    if not (lam[..., 1:] >= lam[..., :-1]).all():
        order = np.argsort(lam, axis=-1, kind="stable")
        lam = np.take_along_axis(lam, order, axis=-1)
        u = np.take_along_axis(u, order[..., None, :], axis=-1)
    return _readonly(lam), _readonly(np.ascontiguousarray(u))


def _fro2(x):
    """The squared Frobenius norm of each matrix of an (..., n, n) array;
    its root has the bits of ``np.linalg.norm(x, axis=(-2, -1))``."""
    return np.add.reduce((x.conj() * x).real, axis=(-2, -1))


@functools.lru_cache(maxsize=None)
def _eye(n):
    return _readonly(np.eye(n))


def _finish_decomposition(lam, u, original):
    lam, u = _sorted_spectrum(lam, u)
    a, uh = original.array, _adjoint(u)
    # one residual at a time: stacked, their temporaries would hold the
    # matrices several times over at once; squared, as are their bounds
    recon = _fro2((u * lam[..., None, :]) @ uh - a)
    ortho = _fro2(uh @ u - _eye(a.shape[-1]))
    # written so that a NaN residual fails too
    ok = ((recon <= DECOMP_TOL ** 2 * np.maximum(1.0, _fro2(a)))
          & (ortho <= DECOMP_TOL ** 2))
    if not ok.all():
        i = _first(~ok)
        raise ConvergenceError(
            f"{_where(i)}eigendecomposition failed validation: reconstruction "
            f"{np.sqrt(recon[i]):.3e}, unitarity {np.sqrt(ortho[i]):.3e}")
    return SpectralDecomposition(lam, u)


def _certified(a):
    """Whether one Cholesky of the stack of A - sI completes, which proves
    lambda_min(A) > ||A||_F / CONDITION_CAP (README derives the shift s)."""
    n, u, eta = a.shape[-1], 2.0 ** -53, 5e-324   # round-off, least subnormal
    d = np.abs(a.real.diagonal(axis1=-2, axis2=-1)).sum(axis=-1)
    s = (np.sqrt(_fro2(a)) * ((1 + 4 * (n * n + 2) * u) / CONDITION_CAP)
         + (4 * n + 10) * u * d + 2 * n * (2 * n + 2 + d) * eta)
    try:
        np.linalg.cholesky(a - s[..., None, None] * _eye(n))
    except np.linalg.LinAlgError:
        return False
    return True


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


class PerSlice(tuple):
    """Parameters of a spectral function, one per slice of a stack's
    leading axis: slice k takes the k-th (see ``parametrized``)."""

    __slots__ = ()


def parametrized(fn, params):
    """The spectral function lam -> fn(p, lam) of the parameter p.

    For a PerSlice, slice k of lam's leading axis takes fn(params[k], .)
    on that slice alone, so every slice has the bits it has alone.  For a
    list or tuple of parameters (each one or a PerSlice), their values on
    a new leading axis."""
    if isinstance(params, PerSlice):
        return lambda lam: _per_slice(fn, params, lam)
    if isinstance(params, (list, tuple)) or np.ndim(params):
        return lambda lam: np.stack([
            _per_slice(fn, p, lam) if isinstance(p, PerSlice) else fn(p, lam)
            for p in params])
    return lambda lam: fn(params, lam)


def _per_slice(fn, params, lam):
    """fn(params[k], lam[k]) for each slice k of lam's leading axis, stacked:
    each slice takes the call it takes when it is checked alone."""
    if len(params) != len(lam):
        raise DimensionError(f"{len(params)} parameters for a stack of "
                             f"{len(lam)} slices")
    if len(params) == 1:
        return fn(params[0], lam)
    return np.stack([fn(p, x) for p, x in zip(params, lam)])


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
    lam, u = _sorted_spectrum(values, np.broadcast_to(
        spec.unitary, values.shape + values.shape[-1:]))
    return _exact(congruence_diag(u, lam), (lam, u))


def _power_of(t, lam):
    return lam ** float(t)


def power(A, t):
    """Fractional power of a PD matrix; power(A, 0) = I, power(A, -1) = inverse.

    For a sequence of exponents, the stack of A^t over them, on a new
    leading axis; for a PerSlice, slice k of A to its own exponent (see
    ``parametrized``).  Each exponent is applied as its own scalar
    ``lam ** t``, since numpy computes ``lam ** 0.5``, ``** 2`` and
    ``** -1`` by exact shortcuts that an array of exponents would not take.
    """
    return PDMatrix(apply_function(A, parametrized(_power_of, t)))


def congruence(C, X):
    """The congruence transform C* X C, symmetrized exactly."""
    c = np.asarray(C, dtype=np.complex128)
    if c.ndim < 2 or c.shape[-1] != c.shape[-2]:
        raise DimensionError(f"congruence matrix must be square, got {c.shape}")
    if c.shape[-1] != X.n:
        raise DimensionError(f"dimension mismatch: {c.shape[-1]} vs {X.n}")
    return _exact(_adjoint(c) @ X.array @ c)


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
    return _exact(k.reshape(k.shape[:-4] + (n * p, n * p)))


def hadamard(A, B):
    """Entrywise (Hadamard) product of two same-size Hermitian matrices."""
    _require_same_dim(A, B)
    return _exact(A.array * B.array)


def kron_diagonal_block(T, n):
    """Principal submatrix of an (n*n)-dim tensor product on indices i*(n+1).

    For T = kron(A, B) this recovers hadamard(A, B).
    """
    if T.n != n * n:
        raise DimensionError(f"expected dimension {n * n}, got {T.n}")
    idx = np.arange(n) * (n + 1)
    return _exact(T.array[..., idx[:, None], idx])


def loewner_leq(A, B, tol=DEFAULT_TOL):
    """Test A <= B in the Loewner order, reporting the margin either way.

    With stacks (a single matrix broadcasts against a stack) the result is
    a list of verdicts, one per matrix in C order, whose margins come from
    one stacked eigendecomposition of B - A.  Their scales take one more,
    of A and B: at once if a margin is below -tol, else on a scale's read.
    """
    _require_same_dim(A, B)
    margin = (B - A).decomposition().eigenvalues[..., 0]
    shape, margins = np.shape(margin), np.ravel(margin)
    scales = functools.cache(
        lambda: np.broadcast_to(_norm_sum(A, B), shape).ravel())
    # written so that a NaN margin or tol takes the eager branch
    if tol >= 0 and (margins >= -tol).all():
        verdicts = [LoewnerVerdict._passed(m, tol, scales, k)
                    for k, m in enumerate(margins)]
    else:
        verdicts = [LoewnerVerdict.judge(m, s, tol)
                    for m, s in zip(margins, scales())]
    return verdicts if shape else verdicts[0]


def _norm_sum(A, B):
    """A.norm_2() + B.norm_2(), the spectra they lack from one eig_hermitian
    call: eigh solves each matrix of a stack alone, as it does by itself."""
    bare = [X for X in (A, B) if X._spec is None]
    if bare:
        flat = [X.array.reshape(-1, X.n, X.n) for X in bare]
        both = _adopt(HermitianMatrix, np.concatenate(flat), None)
        spec = eig_hermitian(both)
        cuts = np.cumsum([len(x) for x in flat])[:-1]
        for X, lam, u in zip(bare, np.split(spec.eigenvalues, cuts),
                             np.split(spec.unitary, cuts)):
            X._spec = SpectralDecomposition(lam.reshape(X.array.shape[:-1]),
                                            u.reshape(X.array.shape))
    return A.norm_2() + B.norm_2()


def rel_residual(X, Y):
    """Relative Frobenius distance ||x - y|| / max(1, ||x||, ||y||),
    per matrix of a stack (a single matrix broadcasts against a stack); a
    slice gets the bits a single matrix gets."""
    _require_same_dim(X, Y)
    x, y = X.array, Y.array
    return _float_or_array(np.sqrt(_fro2(x - y)) / np.maximum(
        np.maximum(np.sqrt(_fro2(x)), np.sqrt(_fro2(y))), 1.0))


def pd_sum(X):
    """The positive definite sum of a PD stack over its innermost stack
    axis, the tuple index j, added in order of j."""
    if not X.stack_shape:
        raise DimensionError("pd_sum sums a stack's tuple axis, not a single "
                             "matrix")
    x = X.array
    acc = x[..., 0, :, :]
    for j in range(1, x.shape[-3]):
        acc = acc + x[..., j, :, :]
    return PDMatrix(_exact(acc))


# ---------------------------------------------------------------------------
# Matrix dump encoding: {"n": int, "field": "real"|"complex",
#                        "entries": [[re, im], ...]} row-major, length n^2.
# ---------------------------------------------------------------------------

def matrix_to_dict(A):
    """One matrix's dump: a HermitianMatrix or a square entries array."""
    a = A.array if isinstance(A, HermitianMatrix) else A
    n = a.shape[-1]
    if a.shape != (n, n):   # the format holds one matrix
        raise DimensionError(f"cannot write a stack of shape {a.shape[:-2]} "
                             f"as one matrix")
    is_real = float(np.max(np.abs(a.imag))) == 0.0
    entries = [[float(v.real), float(v.imag)] for v in a.reshape(-1)]
    return {"n": n, "field": "real" if is_real else "complex", "entries": entries}

