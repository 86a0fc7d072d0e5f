"""Graph Laplacian pyramid with pluggable sampling operators.

Analysis per level: coarse = DOWN(H f), prediction error y = f - G UP(coarse).
Synthesis mirrors analysis, so reconstruction from unmodified coefficients is
exact for any operator/filter choice. Filters are applied either exactly
through the eigenbasis or with a Chebyshev polynomial expansion that only
touches the Laplacian.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import GssampError, InvalidParameterError
from .graphs import Graph, Laplacian, laplacian
from .reduction import kron_reduce, select_every_other, select_polarity, sparsify
from .sampling import SamplingContext, VertexCorrespondence, apply_operator
from .spectral import SpectralBasis, eigendecompose


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
    conventional 1/2 factor already applied.
    """
    theta = np.pi * (np.arange(grid_size) + 0.5) / grid_size
    x = np.cos(theta)  # nodes in [-1, 1]
    lam = 0.5 * lam_max * (x + 1.0)
    h = np.asarray(response(lam), dtype=float)
    k = np.arange(order + 1)
    c = (2.0 / grid_size) * (np.cos(np.outer(k, theta)) @ h)
    c[0] *= 0.5
    return c


def chebyshev_apply(
    lap_matrix: np.ndarray, f: np.ndarray, coeffs: np.ndarray, lam_max: float
) -> np.ndarray:
    """Evaluate the Chebyshev filter via the three-term recurrence on L."""
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

    Exact mode multiplies in the eigenbasis; Chebyshev mode runs the
    recurrence on the Laplacian (supplied or rebuilt from the basis).
    """
    f = np.asarray(f)
    if f.shape != (basis.n,):
        raise InvalidParameterError("signal length does not match basis")
    if spec.mode == "exact":
        u = basis.eigenvectors
        return u @ (spec.response(basis.eigenvalues) * (u.T @ f))
    if lap is not None:
        m = lap.matrix
    else:
        u = basis.eigenvectors
        m = (u * basis.eigenvalues) @ u.T
    coeffs = chebyshev_coefficients(spec.response, basis.lambda_max, spec.order)
    return chebyshev_apply(m, f, coeffs, basis.lambda_max)


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
    synthesis_filter: FilterSpec | None = None  # defaults to analysis filter
    reduction: str = "polarity"
    sparsify_ratio: float = 0.05

    def __post_init__(self):
        if self.sampling not in ("vertex", "index", "spectrum"):
            raise InvalidParameterError(f"unknown sampling {self.sampling!r}")
        if self.reduction not in ("polarity", "every_other"):
            raise InvalidParameterError(f"unknown reduction {self.reduction!r}")

    @property
    def g_filter(self) -> FilterSpec:
        return self.synthesis_filter or self.analysis_filter

    @property
    def operator(self) -> str:
        """Name of the sampling operator in ``sampling.OPERATORS``."""
        if self.sampling == "vertex" or not self.folded:
            return self.sampling
        return f"{self.sampling}-folded"


@dataclass(frozen=True)
class PyramidLevel:
    graph: Graph
    basis: SpectralBasis
    lap: Laplacian
    keep: np.ndarray
    prediction_error: np.ndarray
    reduced_graph: Graph
    reduced_basis: SpectralBasis


@dataclass(frozen=True)
class PyramidDecomposition:
    levels: tuple[PyramidLevel, ...]
    coarse: np.ndarray
    config: PyramidConfig

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def detail_sizes(self) -> list[int]:
        return [lvl.prediction_error.size for lvl in self.levels]


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
        reduced = Graph(
            reduced.adjacency,
            coordinates=reduced.coordinates,
            structure=graph.structure,
        )
    return keep, reduced


def analyze(
    f: np.ndarray, graph: Graph, num_levels: int, config: PyramidConfig | None = None
) -> PyramidDecomposition:
    """Decompose a signal into ``num_levels`` prediction errors plus a coarse band.

    Spectral sampling modes require the vertex count to stay even down the
    chain (each level halves the graph).
    """
    config = config or PyramidConfig()
    f = np.asarray(f, dtype=float)
    if f.shape != (graph.n,):
        raise InvalidParameterError("signal length does not match graph size")
    if num_levels < 1:
        raise InvalidParameterError("need at least one level")
    levels = []
    current = f
    for level in range(num_levels):
        if config.sampling != "vertex" and graph.n % 2 != 0:
            raise InvalidParameterError(
                f"level {level}: spectral sampling needs an even vertex count"
            )
        lap = laplacian(graph)
        basis = eigendecompose(lap)
        try:
            keep, reduced = _reduce_level(graph, basis, lap, config)
        except GssampError as exc:
            raise type(exc)(f"level {level}: {exc}") from exc
        reduced_basis = eigendecompose(laplacian(reduced))
        ctx_down = SamplingContext(basis, reduced_basis)
        ctx_up = SamplingContext(reduced_basis, basis)
        corr = VertexCorrespondence(keep)
        filtered = filter_signal(basis, current, config.analysis_filter, lap)
        coarse = apply_operator(config.operator, "down", ctx_down, filtered, 2, corr)
        upsampled = apply_operator(config.operator, "up", ctx_up, coarse, 2, corr)
        predicted = filter_signal(basis, upsampled, config.g_filter, lap)
        y = current - predicted
        levels.append(
            PyramidLevel(
                graph=graph,
                basis=basis,
                lap=lap,
                keep=keep,
                prediction_error=y,
                reduced_graph=reduced,
                reduced_basis=reduced_basis,
            )
        )
        graph = reduced
        current = coarse
    return PyramidDecomposition(levels=tuple(levels), coarse=current, config=config)


def synthesize(dec: PyramidDecomposition) -> np.ndarray:
    """Invert ``analyze``; exact when coefficients are unmodified."""
    config = dec.config
    current = dec.coarse
    for lvl in reversed(dec.levels):
        if current.shape != (lvl.reduced_graph.n,):
            raise InvalidParameterError("coarse band size does not match level chain")
        ctx_up = SamplingContext(lvl.reduced_basis, lvl.basis)
        corr = VertexCorrespondence(lvl.keep)
        upsampled = apply_operator(config.operator, "up", ctx_up, current, 2, corr)
        predicted = filter_signal(lvl.basis, upsampled, config.g_filter, lvl.lap)
        current = predicted + lvl.prediction_error
    return current


def nonlinear_approximate(dec: PyramidDecomposition, n_kept: int) -> PyramidDecomposition:
    """Keep the coarse band plus the n_kept largest-magnitude detail coefficients.

    Details from all levels are pooled; ties at the threshold are broken by
    (level, index) order, so the result is deterministic.
    """
    total = sum(dec.detail_sizes())
    if not 0 <= n_kept <= total:
        raise InvalidParameterError(f"n_kept must be in [0, {total}]")
    entries = []  # (magnitude, level, index)
    for li, lvl in enumerate(dec.levels):
        for idx, v in enumerate(lvl.prediction_error):
            entries.append((abs(v), li, idx))
    entries.sort(key=lambda t: (-t[0], t[1], t[2]))
    kept = {(li, idx) for _, li, idx in entries[:n_kept]}
    new_levels = []
    for li, lvl in enumerate(dec.levels):
        y = np.array(
            [v if (li, i) in kept else 0.0 for i, v in enumerate(lvl.prediction_error)]
        )
        new_levels.append(replace(lvl, prediction_error=y))
    return PyramidDecomposition(levels=tuple(new_levels), coarse=dec.coarse, config=dec.config)


def nla_error_curve(
    f: np.ndarray,
    graph: Graph,
    config: PyramidConfig,
    fractions: Sequence[float],
    num_levels: int = 1,
) -> list[tuple[float, float]]:
    """Normalized reconstruction error vs fraction of retained detail coefficients.

    n_kept = round(fraction * N) with N the original graph size, capped at
    the total detail count.
    """
    f = np.asarray(f, dtype=float)
    dec = analyze(f, graph, num_levels, config)
    total = sum(dec.detail_sizes())
    norm = np.linalg.norm(f)
    out = []
    for frac in fractions:
        if not 0.0 <= frac <= 1.0:
            raise InvalidParameterError("fractions must lie in [0, 1]")
        n_kept = min(round(frac * graph.n), total)
        rec = synthesize(nonlinear_approximate(dec, n_kept))
        out.append((float(frac), float(np.linalg.norm(f - rec) / norm)))
    return out
