"""Laplacian eigendecomposition, graph Fourier transform, and spectrum interpolation.

Eigenpairs are ordered ascending with a deterministic tie-break inside
repeated-eigenvalue groups; the graph Fourier transform of a signal f is
U^H f with U the orthonormal eigenvector matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse import csr_array

from .errors import DataError, InvalidParameterError, NumericError
from .graphs import Laplacian, check_count, check_type, read_only

_GROUP_TOL_SCALE = 1e-8


class _Analysis:
    """u^H f, kept read-only for the last signal; keyed on the signal's dtype,
    shape and bytes, so an in-place edit or another dtype is analysed again."""

    def __init__(self, u: np.ndarray):
        self.u, self._memo = u, None

    def __call__(self, f: np.ndarray) -> np.ndarray:
        key = (f.dtype, f.shape, f.tobytes())
        memo = self._memo
        if memo is None or memo[0] != key:
            memo = self._memo = (key, read_only(self.u.conj().T @ f))  # u^H: complex bases too
        return memo[1]


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenpairs of a Laplacian; from ``eigendecompose``, the eigenvalues ascend
    (first value 0 for a connected graph) and the eigenvectors are orthonormal.

    eigenvalues : (n,) finite, n >= 1
    eigenvectors : (n, n), column i pairs with eigenvalues[i]
    Both are read-only, C-ordered copies (``read_only``); complex eigenvalues
    are refused. The basis keeps the last signal's U^H f for ``gft``,
    ``filter_signal`` and every ``SamplingContext`` built from it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        lam = read_only(self.eigenvalues, float)
        u = read_only(self.eigenvectors)
        if lam.ndim != 1 or lam.size == 0 or u.shape != (lam.size, lam.size):
            raise InvalidParameterError(
                "eigenvectors must be an (n, n) array for n >= 1 eigenvalues")
        if not np.isfinite(lam).all():
            raise DataError("eigenvalue entries must be finite")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", u)
        object.__setattr__(self, "_analysis", _Analysis(u))  # not a field: eq and repr ignore it

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues.max())


@dataclass(frozen=True)
class Spectrum:
    """GFT coefficients and the real eigenvalue grid indexing them, read-only (``read_only``)."""

    coefficients: np.ndarray
    grid: np.ndarray

    def __post_init__(self):
        c = read_only(self.coefficients)
        g = read_only(self.grid, float)
        if c.shape != g.shape:
            raise InvalidParameterError("coefficients and grid sizes differ")
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "grid", g)

    @property
    def n(self) -> int:
        return self.coefficients.shape[0]


def _canonicalize_signs(u: np.ndarray) -> np.ndarray:
    """Flip columns in place so the first entry with magnitude > 1e-10 is positive."""
    lead = u[0].copy()
    tiny = np.flatnonzero(np.abs(lead) <= 1e-10)  # only these columns lead further down
    block = u[:, tiny]
    # an all-tiny column has argmax 0 and a lead below 1e-10: never flipped
    lead[tiny] = block[np.argmax(np.abs(block) > 1e-10, axis=0), np.arange(tiny.size)]
    for j in np.flatnonzero(lead < -1e-10):
        u[:, j] *= -1.0  # exact, -0.0 included, and no n x n temporary
    return u


def eigenvalue_groups(eigenvalues: np.ndarray) -> np.ndarray:
    """Start indices of the groups of numerically repeated eigenvalues.

    Index i joins the group started at s when both lam[i] - lam[i-1] and
    lam[i] - lam[s] are within the tolerance; group g spans
    ``starts[g]:starts[g + 1]``, and the last group runs to the end of the array
    (``np.append(starts, lam.size)`` bounds every group). The eigenvalues must be a
    nonempty finite 1-D array.
    """
    lam = check_signal(eigenvalues, np.size(eigenvalues), "eigenvalue").astype(float).tolist()
    check_count(len(lam), "eigenvalue count", 1)
    tol = _GROUP_TOL_SCALE * max(1.0, lam[-1])
    starts = [0]
    for i in range(1, len(lam)):
        if not (lam[i] - lam[i - 1] <= tol and lam[i] - lam[starts[-1]] <= tol):
            starts.append(i)
    return np.asarray(starts)


def eigendecompose(lap: Laplacian) -> SpectralBasis:
    """Full symmetric eigendecomposition with deterministic ordering.

    Eigenvalues ascend; columns are sign-canonicalized, then sorted
    lexicographically by their entries inside each repeated-eigenvalue group.
    """
    check_type(lap, Laplacian, "eigendecompose")
    try:
        # LAPACK factors a throwaway Fortran-ordered D - A in place, so eigh copies
        # nothing and the block is freed on return; it is finite, and symmetric to
        # 1e-12, as ``Graph`` and ``Laplacian`` checked
        lam, u = scipy.linalg.eigh(lap._block(order="F"), overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"eigensolver failed: {exc}") from exc
    u = _canonicalize_signs(u)  # eigh returns the eigenvalues ascending
    starts = eigenvalue_groups(lam)
    sizes = np.diff(np.append(starts, lam.size))
    multi = sizes > 1
    for s, size in zip(starts[multi], sizes[multi]):
        block = u[:, s : s + size]
        # lexicographic column order: compare entry 0, then 1, ...
        u[:, s : s + size] = block[:, np.lexsort(block[::-1])]
    return SpectralBasis(eigenvalues=lam, eigenvectors=u)


def check_signal(f, n: int, what: str = "signal") -> np.ndarray:
    """Return ``f`` as an array of shape (n,), which must hold numbers and no NaN or inf.

    A wrong shape or a non-numeric entry raises InvalidParameterError, a
    non-finite entry DataError.
    """
    f = np.asarray(f)
    if f.shape != (n,):
        raise InvalidParameterError(f"{what} length {f.shape} does not match basis size {n}")
    if f.dtype.kind not in "biufc":
        raise InvalidParameterError(f"{what} entries must be numbers, not {f.dtype}")
    if not np.isfinite(f).all():
        raise DataError(f"{what} entries must be finite")
    return f


def _check_ascending(eigenvalues: np.ndarray) -> None:
    """Refuse an eigenvalue grid that does not ascend (InvalidParameterError), for a
    caller that reads the top or the second eigenpair by its column."""
    if np.any(np.diff(eigenvalues) < 0):
        raise InvalidParameterError("eigenvalue grid must be in ascending order")


def gft(basis: SpectralBasis, signal: np.ndarray) -> Spectrum:
    """Forward graph Fourier transform U^H f, read-only and shared with the basis's other users."""
    check_type(basis, SpectralBasis, "gft")
    return Spectrum(basis._analysis(check_signal(signal, basis.n)), basis.eigenvalues)


def igft(basis: SpectralBasis, spectrum: Spectrum | np.ndarray) -> np.ndarray:
    """Inverse graph Fourier transform U @ coefficients."""
    check_type(basis, SpectralBasis, "igft")
    c = spectrum.coefficients if isinstance(spectrum, Spectrum) else spectrum
    return basis.eigenvectors @ check_signal(c, basis.n, "coefficient")


def _group_average(grid: np.ndarray) -> csr_array:
    """Sparse (groups, n) map averaging the values of each ``eigenvalue_groups``
    group of ``grid``: 1/k on each node of a group of k."""
    bounds = np.append(eigenvalue_groups(grid), np.size(grid))  # group g: bounds[g]:bounds[g + 1]
    sizes = np.diff(bounds)
    return csr_array((np.repeat(1.0 / sizes, sizes), np.arange(bounds[-1]), bounds))


def collapse_duplicate_nodes(
    grid: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Average the abscissae and the values of each group of ``grid`` sharing an
    abscissa within the grouping tolerance; complex values average as complex."""
    average = _group_average(grid)
    values = check_signal(values, average.shape[1], "value")
    return average @ np.asarray(grid, dtype=float), average @ values


def _interpolation_map(grid: np.ndarray, queries) -> csr_array:
    """Sparse (queries, n) map from values on ``grid`` to their interpolant at ``queries``.

    Duplicate averaging as in ``collapse_duplicate_nodes``, then linear weights on
    the two group means around each query, which is clamped to the grid range.
    """
    average = _group_average(grid)
    xs = average @ np.asarray(grid, dtype=float)
    q = np.clip(np.asarray(queries, dtype=float), xs[0], xs[-1])
    right = np.minimum(np.searchsorted(xs, q, side="right"), xs.size - 1)
    left = np.maximum(right - 1, 0)
    width = xs[right] - xs[left]
    t = np.divide(q - xs[left], width, out=np.zeros_like(q), where=width > 0)
    rows, cols = np.tile(np.arange(q.size), 2), np.concatenate([left, right])
    linear = csr_array((np.concatenate([1.0 - t, t]), (rows, cols)), shape=(q.size, xs.size))
    return linear @ average


def sample_interpolant(spectrum: Spectrum, queries: np.ndarray) -> np.ndarray:
    """Vectorized piecewise-linear evaluation at the 1-D ``queries``, each clamped to
    the grid range."""
    check_type(spectrum, Spectrum, "sample_interpolant")
    queries = check_signal(queries, np.size(queries), "query")
    return _interpolation_map(spectrum.grid, queries) @ spectrum.coefficients
