"""Graph Laplacian pyramid with pluggable sampling operators.

Analysis per level: coarse = DOWN(H f), prediction error y = f - G UP(coarse),
where G is the analysis filter H. Synthesis adds y back to the same prediction,
so reconstruction from unmodified coefficients is exact for any operator/filter
choice. The pyramid runs on GFT coefficients: H is the filter's response h on
the level's eigenvalues, so a spectral family goes down with S_down (h o U^T f)
and predicts U (h o S_up U1^T coarse), with the maps its ``SamplingContext``
keeps, and the vertex family samples U (h o U^T f) on its kept vertices.

``filter_signal`` filters one vertex signal, exactly through the eigenbasis or
with a Chebyshev polynomial expansion (Hammond, Vandergheynst & Gribonval 2011)
that only touches the Laplacian: its three-term recurrence runs on the
Laplacian's cached CSR form, O(order nnz). Without a Laplacian, and in the
pyramid, the same polynomial is evaluated on the eigenvalues.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .errors import DataError, GssampError, InvalidParameterError
from .graphs import Graph, Laplacian, check_count, check_type, laplacian
from .reduction import kron_reduce, select_polarity, sparsify
from .sampling import SamplingContext, VertexCorrespondence
from .spectral import SpectralBasis, check_signal, eigendecompose

# Each level's Kron-reduced graph drops its edges lighter than this share of
# its heaviest, keeping connectivity (``sparsify``)
_SPARSIFY_RATIO = 0.05


def halving_lowpass(lam):
    """Default pyramid filter 1/(1 + 2 lambda) on a 1-D eigenvalue array."""
    return 1.0 / (1.0 + 2.0 * check_signal(lam, np.size(lam), "eigenvalue"))


@dataclass(frozen=True)
class FilterSpec:
    """Spectral filter with an exact or Chebyshev evaluation mode."""

    response: Callable[[np.ndarray], np.ndarray] = halving_lowpass
    mode: str = "exact"  # "exact" | "chebyshev"
    order: int = 30

    def __post_init__(self):
        if not callable(self.response):
            raise InvalidParameterError("filter response must be callable")
        if self.mode not in ("exact", "chebyshev"):
            raise InvalidParameterError(f"unknown filter mode {self.mode!r}")
        check_count(self.order, "chebyshev order", 1)


def chebyshev_coefficients(
    response: Callable, lam_max: float, order: int, grid_size: int = 2048
) -> np.ndarray:
    """Chebyshev expansion coefficients of ``response`` on [0, lam_max].

    Uses Chebyshev-Gauss quadrature on the shifted interval; c[0] carries the
    conventional 1/2 factor already applied. The quadrature sums
    sum_j h_j cos(k theta_j) are one DCT-II of the node samples h_j.
    """
    theta = np.pi * (np.arange(grid_size) + 0.5) / grid_size
    x = np.cos(theta)  # nodes in [-1, 1]
    lam = 0.5 * lam_max * (x + 1.0)
    h = np.asarray(response(lam), dtype=float)
    if not np.isfinite(h).all():
        raise DataError("filter response must be finite")
    k = np.arange(order + 1)
    # DCT-II through the FFT of the even extension [h, h reversed] (period
    # 2N): sum_j h_j cos(k theta_j) = Re(exp(-i pi k / 2N) Y_k) / 2 for every
    # integer k, and Y_k = conj(Y_{2N - k}) past the rfft's last bin N
    y = np.fft.rfft(np.concatenate([h, h[::-1]]))
    m = k % (2 * grid_size)
    y_k = y[np.minimum(m, 2 * grid_size - m)]
    y_k = np.where(m > grid_size, y_k.conj(), y_k)
    c = (1.0 / grid_size) * np.real(np.exp(-0.5j * np.pi * k / grid_size) * y_k)
    c[0] *= 0.5
    return c


def chebyshev_apply(
    lap_matrix, f: np.ndarray, coeffs: np.ndarray, lam_max: float
) -> np.ndarray:
    """Evaluate the Chebyshev filter via the three-term recurrence on L.

    ``lap_matrix`` is anything with ``@``: a dense array or a sparse matrix.
    """
    alpha = lam_max / 2.0
    # shifted operator (L - alpha I) / alpha has spectrum in [-1, 1]
    t_prev = f
    t_curr = (lap_matrix @ f) / alpha - f
    out = coeffs[0] * t_prev + (coeffs[1] * t_curr if len(coeffs) > 1 else 0.0)
    for c in coeffs[2:]:
        t_next = 2.0 * ((lap_matrix @ t_curr) / alpha - t_curr) - t_prev
        out = out + c * t_next
        t_prev, t_curr = t_curr, t_next
    return out


def _chebyshev(basis: SpectralBasis, spec: FilterSpec) -> np.ndarray:
    """``spec``'s Chebyshev coefficients on [0, lambda_max]; a basis whose largest
    eigenvalue is not positive has no such interval and raises InvalidParameterError."""
    if not basis.lambda_max > 0:
        raise InvalidParameterError(
            f"a Chebyshev filter needs a positive largest eigenvalue, got {basis.lambda_max}"
        )
    return chebyshev_coefficients(spec.response, basis.lambda_max, spec.order)


def _filter_coefficients(basis: SpectralBasis, spec: FilterSpec, c: np.ndarray) -> np.ndarray:
    """h o c for GFT coefficients c on ``basis``, (n,) or an (n, k) stack: h is ``spec``'s
    response on the eigenvalues, or in Chebyshev mode its polynomial there."""
    if spec.mode == "exact":
        h = spec.response(basis.eigenvalues)
        if not np.isfinite(h).all():
            raise DataError("filter response must be finite")
    else:
        coeffs = _chebyshev(basis, spec)
        h = chebval(basis.eigenvalues / (basis.lambda_max / 2.0) - 1.0, coeffs)
    return (h * c.T).T  # h scales the rows of a stack


def filter_signal(
    basis: SpectralBasis, f: np.ndarray, spec: FilterSpec, lap: Laplacian | None = None
) -> np.ndarray:
    """Apply a spectral filter to a vertex signal.

    Exact mode multiplies in the eigenbasis. Chebyshev mode runs the
    recurrence on ``lap.sparse``, the Laplacian's CSR form; without ``lap``
    it evaluates the same polynomial on the eigenvalues, in O(n^2). A
    response that is not finite where it is sampled raises DataError; a
    ``lap`` that is not a Laplacian of the basis's size, and a Chebyshev
    filter on a basis whose largest eigenvalue is not positive, raise
    InvalidParameterError.
    """
    check_type(basis, SpectralBasis, "filter_signal")
    check_type(spec, FilterSpec, "filter_signal")
    if lap is not None and check_type(lap, Laplacian, "filter_signal").n != basis.n:
        raise InvalidParameterError(f"Laplacian size {lap.n} does not match basis size {basis.n}")
    f = check_signal(f, basis.n)
    if spec.mode == "chebyshev" and lap is not None:
        return chebyshev_apply(lap.sparse, f, _chebyshev(basis, spec), basis.lambda_max)
    return basis.eigenvectors @ _filter_coefficients(basis, spec, basis._analysis(f))


@dataclass(frozen=True)
class PyramidConfig:
    """Per-signal operator and filter choices; the reduced graphs are the chain's.

    sampling: "vertex", "index", or "spectrum"; the spectral families
    use the folded variants by default.
    """

    sampling: str = "index"
    folded: bool = True
    analysis_filter: FilterSpec = field(default_factory=FilterSpec)

    def __post_init__(self):
        if self.sampling not in ("vertex", "index", "spectrum"):
            raise InvalidParameterError(f"unknown sampling {self.sampling!r}")
        check_type(self.folded, bool, "folded")
        check_type(self.analysis_filter, FilterSpec, "analysis_filter")


@dataclass(frozen=True)
class ChainLevel:
    """Signal-independent part of one pyramid level.

    ``correspondence`` maps the next level's graph into ``lap.graph``. Every signal
    reuses the maps of ``ctx_down`` (``basis`` to the next level's) and ``ctx_up`` (back).
    """

    lap: Laplacian
    basis: SpectralBasis
    correspondence: VertexCorrespondence
    ctx_down: SamplingContext
    ctx_up: SamplingContext


def _check_chain(chain, config, what: str) -> None:
    """Refuse an empty chain, a level that is not a ChainLevel and a config that is
    not a PyramidConfig, naming ``what`` refused them."""
    if not chain:
        raise InvalidParameterError("a pyramid chain needs at least one level")
    for lvl in chain:
        check_type(lvl, ChainLevel, what)
    check_type(config, PyramidConfig, what)


@dataclass(frozen=True)
class PyramidDecomposition:
    """A signal's pyramid over ``chain``: one prediction error per level, then the coarse band."""

    chain: tuple[ChainLevel, ...]
    details: tuple[np.ndarray, ...]
    coarse: np.ndarray
    config: PyramidConfig

    def __post_init__(self):
        _check_chain(self.chain, self.config, "a PyramidDecomposition")
        if len(self.details) != len(self.chain):
            raise InvalidParameterError("need one detail per chain level")

    def detail_sizes(self) -> list[int]:
        return [y.size for y in self.details]


def build_chain(lap: Laplacian, basis: SpectralBasis, num_levels: int) -> tuple[ChainLevel, ...]:
    """The levels of a ``num_levels`` pyramid over ``lap``, shared by every signal and family.

    Each level keeps the half of the vertices ``select_polarity`` picks, Kron-reduces
    to them and sparsifies, reusing the previous level's reduced Laplacian and
    basis: ``num_levels`` eigendecompositions on top of the caller's ``basis``.
    """
    check_type(lap, Laplacian, "build_chain")
    check_type(basis, SpectralBasis, "build_chain")
    check_count(num_levels, "num_levels", 1)
    levels = []
    for level in range(num_levels):
        n1 = lap.n // 2
        try:
            if n1 < 2:
                raise InvalidParameterError(f"graph too small to halve (n={lap.n})")
            graph, correspondence = kron_reduce(lap, select_polarity(basis, n1))
            reduced = sparsify(graph, _SPARSIFY_RATIO)
        except GssampError as exc:
            raise type(exc)(f"level {level}: {exc}") from exc
        reduced_lap = laplacian(reduced)
        reduced_basis = eigendecompose(reduced_lap)
        levels.append(ChainLevel(
            lap, basis, correspondence,
            SamplingContext(basis, reduced_basis), SamplingContext(reduced_basis, basis),
        ))
        lap, basis = reduced_lap, reduced_basis
    return tuple(levels)


def _predict(lvl: ChainLevel, coarse: np.ndarray, config: PyramidConfig) -> np.ndarray:
    """G UP(coarse) on ``lvl``'s graph, for an (n1,) coarse band or an (n1, k) stack of
    them: analysis subtracts it, synthesis adds it back."""
    if config.sampling == "vertex":
        upsampled = np.zeros((lvl.lap.n, *coarse.shape[1:]))
        upsampled[lvl.correspondence.targets] = coarse
        c = lvl.basis.eigenvectors.T @ upsampled
    else:  # U1^T coarse is the next level's kept analysis, which decompose reads again
        up = lvl.ctx_up._map(config.sampling, config.folded, up=True)
        c = up @ lvl.ctx_up._analysis0(coarse)
    return lvl.basis.eigenvectors @ _filter_coefficients(lvl.basis, config.analysis_filter, c)


def decompose(
    f: np.ndarray, chain: tuple[ChainLevel, ...], config: PyramidConfig
) -> PyramidDecomposition:
    """Analyse a signal over a ``build_chain`` chain into one prediction error
    per level plus the coarse band. Spectral sampling needs an even vertex
    count at every level; an empty chain and a complex signal are refused."""
    _check_chain(chain, config, "decompose")
    current = _real_signal(f, chain[0].lap.n)
    details = []
    for level, lvl in enumerate(chain):
        if config.sampling != "vertex" and lvl.lap.n % 2 != 0:
            raise InvalidParameterError(
                f"level {level}: spectral sampling needs an even vertex count"
            )
        filtered = _filter_coefficients(
            lvl.basis, config.analysis_filter, lvl.basis._analysis(current)
        )
        if config.sampling == "vertex":
            coarse = (lvl.basis.eigenvectors @ filtered)[lvl.correspondence.targets]
        else:
            down = lvl.ctx_down._map(config.sampling, config.folded, up=False)
            coarse = lvl.ctx_down.u1 @ (down @ filtered)
        details.append(current - _predict(lvl, coarse, config))
        current = coarse
    return PyramidDecomposition(chain, tuple(details), current, config)


def _real_signal(f, n: int) -> np.ndarray:
    """``check_signal``'s (n,) signal as floats; a complex one raises InvalidParameterError."""
    f = check_signal(f, n)
    if np.iscomplexobj(f):
        raise InvalidParameterError("a pyramid signal must be real")
    return f.astype(float, copy=False)


def analyze(
    f: np.ndarray, graph: Graph, num_levels: int, config: PyramidConfig | None = None
) -> PyramidDecomposition:
    """Decompose a signal into ``num_levels`` prediction errors plus a coarse band.

    ``build_chain`` (polarity reduction) then ``decompose``; to decompose
    several signals or sampling families on one graph, build its chain once.
    """
    lap = laplacian(graph)
    chain = build_chain(lap, eigendecompose(lap), num_levels)
    return decompose(f, chain, config or PyramidConfig())


def _synthesize(chain, details, coarse: np.ndarray, config: PyramidConfig) -> np.ndarray:
    """The synthesis of checked details and coarse band, each (n,) or an (n, k) stack."""
    current = coarse
    for lvl, detail in zip(chain[::-1], details[::-1]):
        current = _predict(lvl, current, config) + detail
    return current


def synthesize(dec: PyramidDecomposition) -> np.ndarray:
    """Invert ``decompose`` (or ``analyze``); exact when coefficients are unmodified."""
    chain = check_type(dec, PyramidDecomposition, "synthesize").chain
    details = [check_signal(y, lvl.lap.n, "detail") for lvl, y in zip(chain, dec.details)]
    coarse = check_signal(dec.coarse, chain[-1].correspondence.n_reduced)
    return _synthesize(chain, details, coarse, dec.config)


def _keep_largest(details, counts) -> list[np.ndarray]:
    """Per level, an (n_level, len(counts)) stack whose column j keeps the counts[j]
    largest magnitudes of all levels' details pooled, ties to the lower (level, index),
    and zeroes the rest."""
    values = np.concatenate(details)
    # pooled positions run in (level, index) order, so a stable sort on
    # magnitude alone breaks its ties the documented way
    rank = np.empty(values.size, dtype=int)
    rank[np.argsort(-np.abs(values), kind="stable")] = np.arange(values.size)
    kept = np.where(rank[:, None] < np.asarray(counts, dtype=int), values[:, None], 0.0)
    return np.split(kept, np.cumsum([y.size for y in details])[:-1])


def nonlinear_approximate(dec: PyramidDecomposition, n_kept: int) -> PyramidDecomposition:
    """Keep the coarse band plus the n_kept largest-magnitude detail coefficients.

    Details from all levels are pooled; ties at the threshold are broken by
    (level, index) order, so the result is deterministic.
    """
    total = sum(check_type(dec, PyramidDecomposition, "nonlinear_approximate").detail_sizes())
    n_kept = check_count(n_kept, "n_kept", 0, total)
    return replace(dec, details=tuple(y[:, 0] for y in _keep_largest(dec.details, [n_kept])))


def nla_error_curve(
    f: np.ndarray,
    chain: tuple[ChainLevel, ...],
    config: PyramidConfig,
    fractions: Sequence[float],
) -> list[tuple[float, float]]:
    """Normalized reconstruction error vs detail budget over N, the original graph size.

    Decomposes ``f`` once over ``chain`` (from ``build_chain``) with the
    sampling family of ``config``, and synthesizes every budget's trimmed
    details in one stack. Each entry of ``fractions`` is a budget
    over N: it keeps the round(fraction * N) largest details, capped at the
    total detail count, so 1.0 keeps N details, not all of a pyramid's
    (about 1.75 N at three levels). Returns (budget over N, error) pairs. A
    zero signal has no normalized error and raises InvalidParameterError, and so
    does a fraction that is not a real number in [0, 1] or is a bool.
    """
    try:
        fractions = list(fractions)
    except TypeError as exc:
        raise InvalidParameterError("fractions must be a sequence of numbers") from exc
    for frac in fractions:
        if not isinstance(frac, numbers.Real) or isinstance(frac, bool) or not 0.0 <= frac <= 1.0:
            raise InvalidParameterError("fractions must be real numbers in [0, 1], not bools")
    _check_chain(chain, config, "nla_error_curve")
    f = _real_signal(f, chain[0].lap.n)
    dec = decompose(f, chain, config)
    n = f.size
    norm = np.linalg.norm(f)
    if norm == 0:
        raise InvalidParameterError("the NLA error curve needs a nonzero signal")
    total = sum(dec.detail_sizes())
    details = _keep_largest(dec.details, [min(round(frac * n), total) for frac in fractions])
    # one coarse column, predicted once, broadcasts over the budgets; column j is fractions[j]
    rec = _synthesize(chain, details, dec.coarse[:, None], config)
    return [(float(frac), float(np.linalg.norm(f - rec[:, j]) / norm))
            for j, frac in enumerate(fractions)]
