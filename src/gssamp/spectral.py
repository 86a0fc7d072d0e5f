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
from .graphs import Laplacian, check_type, read_only

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

    eigenvalues : (n,) finite
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
        if lam.ndim != 1 or u.shape != (lam.size, lam.size):
            raise InvalidParameterError("eigenvectors must be an (n, n) array for n eigenvalues")
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
        return float(self.eigenvalues[-1])


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
    lead = u[np.argmax(np.abs(u) > 1e-10, axis=0), np.arange(u.shape[1])]
    # an all-tiny column has argmax 0 and a lead below 1e-10: never flipped
    flip = (lead < 0) & (np.abs(lead) > 1e-10)
    u *= np.where(flip, -1.0, 1.0)  # exact, -0.0 included, with no copy of the flipped columns
    return u


def eigenvalue_groups(eigenvalues: np.ndarray) -> np.ndarray:
    """Start indices of the groups of numerically repeated eigenvalues.

    Index i joins the group started at s when both lam[i] - lam[i-1] and
    lam[i] - lam[s] are within the tolerance; group g spans
    ``starts[g]:starts[g + 1]``.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    tol = _GROUP_TOL_SCALE * max(1.0, float(lam[-1]))
    # a step above tol always starts a group; a run of small steps is one
    # group unless it drifts more than tol from its first value
    starts = np.flatnonzero(np.diff(lam) > tol) + 1
    starts = np.concatenate(([0], starts))
    drift = np.maximum.reduceat(lam, starts) - lam[starts]
    long_runs = np.flatnonzero(~(drift <= tol))
    if long_runs.size == 0:
        return starts
    ends = np.append(starts[1:], lam.size)
    extra = []
    for r in long_runs:
        s = starts[r]
        for i in range(s + 1, ends[r]):
            if not lam[i] - lam[s] <= tol:
                extra.append(i)
                s = i
    return np.sort(np.concatenate((starts, np.asarray(extra, dtype=starts.dtype))))


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
    """Return ``f`` as an array of shape (n,), which must hold no NaN or inf.

    A wrong shape raises InvalidParameterError, a non-finite entry DataError.
    """
    f = np.asarray(f)
    if f.shape != (n,):
        raise InvalidParameterError(f"{what} length {f.shape} does not match basis size {n}")
    if not np.isfinite(f).all():
        raise DataError(f"{what} entries must be finite")
    return f


def gft(basis: SpectralBasis, signal: np.ndarray) -> Spectrum:
    """Forward graph Fourier transform U^H f, read-only and shared with the basis's other users."""
    check_type(basis, SpectralBasis, "gft")
    return Spectrum(basis._analysis(check_signal(signal, basis.n)), basis.eigenvalues)


def igft(basis: SpectralBasis, spectrum: Spectrum | np.ndarray) -> np.ndarray:
    """Inverse graph Fourier transform U @ coefficients."""
    check_type(basis, SpectralBasis, "igft")
    c = spectrum.coefficients if isinstance(spectrum, Spectrum) else spectrum
    return basis.eigenvectors @ check_signal(c, basis.n, "coefficient")


def collapse_duplicate_nodes(
    grid: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Average values sharing an abscissa within the grouping tolerance."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    starts = eigenvalue_groups(grid)
    sizes = np.diff(np.append(starts, grid.size))
    xs, ys = np.empty(starts.size), np.empty(starts.size)
    # one row sum per group size: a row adds in the order ndarray.mean does,
    # which np.add.reduceat does not
    for k in np.unique(sizes):
        sel = sizes == k
        rows = starts[sel, None] + np.arange(k)
        xs[sel] = grid[rows].sum(axis=1) / k
        ys[sel] = values[rows].sum(axis=1) / k
    return xs, ys


def _interpolation_map(grid: np.ndarray, queries) -> csr_array:
    """Sparse (queries, n) map from values on ``grid`` to their interpolant at ``queries``.

    Duplicate averaging as in ``collapse_duplicate_nodes`` (1/k on each node of
    a group of k), then linear weights on the two group means around each
    query, which is clamped to the grid range.
    """
    grid = np.asarray(grid, dtype=float)
    bounds = np.append(eigenvalue_groups(grid), grid.size)  # group g: bounds[g]:bounds[g + 1]
    sizes = np.diff(bounds)
    average = csr_array((np.repeat(1.0 / sizes, sizes), np.arange(grid.size), bounds))
    xs, _ = collapse_duplicate_nodes(grid, grid)
    q = np.clip(np.asarray(queries, dtype=float), xs[0], xs[-1])
    right = np.minimum(np.searchsorted(xs, q, side="right"), xs.size - 1)
    left = np.maximum(right - 1, 0)
    width = xs[right] - xs[left]
    t = np.divide(q - xs[left], width, out=np.zeros_like(q), where=width > 0)
    rows, cols = np.tile(np.arange(q.size), 2), np.concatenate([left, right])
    linear = csr_array((np.concatenate([1.0 - t, t]), (rows, cols)), shape=(q.size, xs.size))
    return linear @ average


def sample_interpolant(spectrum: Spectrum, queries: np.ndarray) -> np.ndarray:
    """Vectorized piecewise-linear evaluation; queries are clamped to the grid range."""
    return _interpolation_map(spectrum.grid, queries) @ spectrum.coefficients
