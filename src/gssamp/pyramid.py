"""Graph Laplacian pyramid with pluggable sampling operators.

Analysis per level: coarse = DOWN(H f), prediction error y = f - G UP(coarse),
where G is the analysis filter H. Synthesis adds y back to the same prediction,
so reconstruction from unmodified coefficients is exact for any operator/filter
choice. Filters are applied either exactly through the eigenbasis or with a
Chebyshev polynomial expansion (Hammond, Vandergheynst & Gribonval 2011) that
only touches the Laplacian: its three-term recurrence runs on the Laplacian's
cached CSR form, O(order nnz). Without a Laplacian the same polynomial is
evaluated on the eigenvalues.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .errors import GssampError, InvalidParameterError
from .graphs import Graph, Laplacian, laplacian
from .reduction import kron_reduce, select_every_other, select_polarity, sparsify
from .sampling import SamplingContext, VertexCorrespondence, apply_operator
from .spectral import SpectralBasis, check_signal, eigendecompose


def halving_lowpass(lam):
    """Default pyramid filter 1/(1 + 2 lambda)."""
    return 1.0 / (1.0 + 2.0 * np.asarray(lam))


@dataclass(frozen=True)
class FilterSpec:
    """Spectral filter with an exact or Chebyshev evaluation mode."""

    response: Callable[[np.ndarray], np.ndarray] = halving_lowpass
    mode: str = "exact"  # "exact" | "chebyshev"
    order: int = 30

    def __post_init__(self):
        if self.mode not in ("exact", "chebyshev"):
            raise InvalidParameterError(f"unknown filter mode {self.mode!r}")
        if self.order < 1:
            raise InvalidParameterError("chebyshev order must be positive")


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


def filter_signal(
    basis: SpectralBasis, f: np.ndarray, spec: FilterSpec, lap: Laplacian | None = None
) -> np.ndarray:
    """Apply a spectral filter to a vertex signal.

    Exact mode multiplies in the eigenbasis. Chebyshev mode runs the
    recurrence on ``lap.sparse``, the Laplacian's CSR form; without ``lap``
    it evaluates the same polynomial on the eigenvalues, in O(n^2).
    """
    f = check_signal(f, basis.n)
    if spec.mode == "exact":
        response = spec.response(basis.eigenvalues)
    else:
        coeffs = chebyshev_coefficients(spec.response, basis.lambda_max, spec.order)
        if lap is not None:
            return chebyshev_apply(lap.sparse, f, coeffs, basis.lambda_max)
        response = chebval(basis.eigenvalues / (basis.lambda_max / 2.0) - 1.0, coeffs)
    return basis.eigenvectors @ (response * basis._analysis(f))


@dataclass(frozen=True)
class PyramidConfig:
    """Operator, filter, and reduction choices for a pyramid.

    sampling: "vertex", "index", or "spectrum"; the spectral families
    use the folded variants by default.
    reduction: "polarity" (sign of the top eigenvector + Kron reduction +
    sparsification) or "every_other" (index stride, for path/ring/grid).
    """

    sampling: str = "index"
    folded: bool = True
    analysis_filter: FilterSpec = field(default_factory=FilterSpec)
    reduction: str = "polarity"
    sparsify_ratio: float = 0.05

    def __post_init__(self):
        if self.sampling not in ("vertex", "index", "spectrum"):
            raise InvalidParameterError(f"unknown sampling {self.sampling!r}")
        if self.reduction not in ("polarity", "every_other"):
            raise InvalidParameterError(f"unknown reduction {self.reduction!r}")

    @property
    def operator(self) -> str:
        """Name of the sampling operator in ``sampling.OPERATORS``."""
        if self.sampling == "vertex" or not self.folded:
            return self.sampling
        return f"{self.sampling}-folded"


@dataclass(frozen=True)
class ChainLevel:
    """Signal-independent part of one pyramid level.

    ``correspondence`` maps ``reduced_graph`` into ``graph``. Every signal reuses
    the maps of ``ctx_down`` (``basis`` to ``reduced_basis``) and ``ctx_up`` (back).
    """

    graph: Graph
    lap: Laplacian
    basis: SpectralBasis
    correspondence: VertexCorrespondence
    reduced_graph: Graph
    reduced_basis: SpectralBasis
    ctx_down: SamplingContext
    ctx_up: SamplingContext


@dataclass(frozen=True)
class PyramidChain:
    """Level chain of a graph, shared by every signal and sampling family.

    Records the reduction choices it was built with; a config that disagrees
    cannot run over it.
    """

    levels: tuple[ChainLevel, ...]
    reduction: str
    sparsify_ratio: float


@dataclass(frozen=True)
class PyramidDecomposition:
    """A signal's pyramid over ``chain``: one prediction error per level, then the coarse band."""

    chain: PyramidChain
    details: tuple[np.ndarray, ...]
    coarse: np.ndarray
    config: PyramidConfig

    def __post_init__(self):
        if len(self.details) != len(self.chain.levels):
            raise InvalidParameterError("need one detail per chain level")

    def detail_sizes(self) -> list[int]:
        return [y.size for y in self.details]


def _reduce_level(graph: Graph, basis: SpectralBasis, lap: Laplacian, config):
    n1 = graph.n // 2
    if n1 < 2:
        raise InvalidParameterError(f"graph too small to halve (n={graph.n})")
    if config.reduction == "every_other":
        keep = select_every_other(graph, 2)
    else:
        keep = select_polarity(basis, n1)
    result = kron_reduce(lap, keep)
    reduced = sparsify(result.graph, config.sparsify_ratio)
    if config.reduction == "every_other" and graph.structure in ("path", "ring"):
        # striding a path/ring yields the same structure, so keep the tag
        # to allow further index-structured selection at deeper levels
        reduced = replace(reduced, structure=graph.structure)
    return result.correspondence, reduced


def build_chain(
    lap: Laplacian, basis: SpectralBasis, num_levels: int, config: PyramidConfig | None = None
) -> PyramidChain:
    """Graphs, bases and correspondences of a ``num_levels`` pyramid over ``lap``.

    Only ``config.reduction`` and ``config.sparsify_ratio`` matter; the chain
    serves any signal and sampling family. Each level reuses the previous
    level's reduced Laplacian and basis, so this takes ``num_levels``
    eigendecompositions on top of the caller's ``basis``.
    """
    config = config or PyramidConfig()
    if num_levels < 1:
        raise InvalidParameterError("need at least one level")
    levels = []
    for level in range(num_levels):
        try:
            corr, reduced = _reduce_level(lap.graph, basis, lap, config)
        except GssampError as exc:
            raise type(exc)(f"level {level}: {exc}") from exc
        reduced_lap = laplacian(reduced)
        reduced_basis = eigendecompose(reduced_lap)
        levels.append(ChainLevel(
            lap.graph, lap, basis, corr, reduced, reduced_basis,
            SamplingContext(basis, reduced_basis), SamplingContext(reduced_basis, basis),
        ))
        lap, basis = reduced_lap, reduced_basis
    return PyramidChain(tuple(levels), config.reduction, config.sparsify_ratio)


def _predict(lvl: ChainLevel, coarse: np.ndarray, config: PyramidConfig) -> np.ndarray:
    """G UP(coarse) on ``lvl``'s graph: analysis subtracts it, synthesis adds it back."""
    upsampled = apply_operator(config.operator, "up", lvl.ctx_up, coarse, 2, lvl.correspondence)
    return filter_signal(lvl.basis, upsampled, config.analysis_filter, lvl.lap)


def decompose(f: np.ndarray, chain: PyramidChain, config: PyramidConfig) -> PyramidDecomposition:
    """Analyse a signal over a ``build_chain`` chain into one prediction error
    per level plus the coarse band. ``config``'s reduction must match the
    chain's, and spectral sampling needs an even vertex count at every level."""
    if (config.reduction, config.sparsify_ratio) != (chain.reduction, chain.sparsify_ratio):
        raise InvalidParameterError(
            f"config reduction {config.reduction!r} / sparsify_ratio {config.sparsify_ratio} "
            f"does not match the chain's {chain.reduction!r} / {chain.sparsify_ratio}"
        )
    current = check_signal(np.asarray(f, dtype=float), chain.levels[0].graph.n)
    details = []
    for level, lvl in enumerate(chain.levels):
        if config.sampling != "vertex" and lvl.graph.n % 2 != 0:
            raise InvalidParameterError(
                f"level {level}: spectral sampling needs an even vertex count"
            )
        filtered = filter_signal(lvl.basis, current, config.analysis_filter, lvl.lap)
        coarse = apply_operator(
            config.operator, "down", lvl.ctx_down, filtered, 2, lvl.correspondence
        )
        details.append(current - _predict(lvl, coarse, config))
        current = coarse
    return PyramidDecomposition(chain, tuple(details), current, config)


def analyze(
    f: np.ndarray, graph: Graph, num_levels: int, config: PyramidConfig | None = None
) -> PyramidDecomposition:
    """Decompose a signal into ``num_levels`` prediction errors plus a coarse band.

    ``build_chain`` then ``decompose``; to decompose several signals or
    sampling families on one graph, build its chain once.
    """
    config = config or PyramidConfig()
    lap = laplacian(graph)
    return decompose(f, build_chain(lap, eigendecompose(lap), num_levels, config), config)


def synthesize(dec: PyramidDecomposition) -> np.ndarray:
    """Invert ``decompose`` (or ``analyze``); exact when coefficients are unmodified."""
    current = dec.coarse
    for lvl, detail in zip(dec.chain.levels[::-1], dec.details[::-1]):
        current = _predict(lvl, current, dec.config) + check_signal(detail, lvl.graph.n, "detail")
    return current


def nonlinear_approximate(dec: PyramidDecomposition, n_kept: int) -> PyramidDecomposition:
    """Keep the coarse band plus the n_kept largest-magnitude detail coefficients.

    Details from all levels are pooled; ties at the threshold are broken by
    (level, index) order, so the result is deterministic.
    """
    sizes = dec.detail_sizes()
    total = sum(sizes)
    if not 0 <= n_kept <= total:
        raise InvalidParameterError(f"n_kept must be in [0, {total}]")
    values = np.concatenate(dec.details)
    # pooled positions run in (level, index) order, so a stable sort on
    # magnitude alone breaks its ties the documented way
    kept = np.zeros(total, dtype=bool)
    kept[np.argsort(-np.abs(values), kind="stable")[:n_kept]] = True
    trimmed = np.split(np.where(kept, values, 0.0), np.cumsum(sizes)[:-1])
    return replace(dec, details=tuple(trimmed))


def nla_error_curve(
    f: np.ndarray,
    chain: PyramidChain,
    config: PyramidConfig,
    fractions: Sequence[float],
) -> list[tuple[float, float]]:
    """Normalized reconstruction error vs detail budget over N, the original graph size.

    Decomposes ``f`` once over ``chain`` (from ``build_chain``) with the
    sampling family of ``config``. Each entry of ``fractions`` is a budget
    over N: it keeps the round(fraction * N) largest details, capped at the
    total detail count, so 1.0 keeps N details, not all of a pyramid's
    (about 1.75 N at three levels). Returns (budget over N, error) pairs.
    """
    f = np.asarray(f, dtype=float)
    dec = decompose(f, chain, config)
    n = chain.levels[0].graph.n
    total = sum(dec.detail_sizes())
    norm = np.linalg.norm(f)
    out = []
    for frac in fractions:
        if not 0.0 <= frac <= 1.0:
            raise InvalidParameterError("fractions must lie in [0, 1]")
        n_kept = min(round(frac * n), total)
        rec = synthesize(nonlinear_approximate(dec, n_kept))
        out.append((float(frac), float(np.linalg.norm(f - rec) / norm)))
    return out
