"""Graph-signal sampling operators.

Three families, mirroring classical sampling:

* vertex domain: copy values through a one-to-one vertex map;
* spectral index domain (plain and folded variants): fold/repeat the GFT
  coefficient vector between the two graphs' bases;
* spectral spectrum domain (plain and folded variants): stretch/compress a
  piecewise-linear interpolant of the spectrum and resample it on the target
  eigenvalue grid.

Every spectral operator is u1 S u0^H, with S a sparse map on the GFT
coefficients that the ``SamplingContext`` builds on first use and keeps. In
the index family S is the segment sum S_d = [I I ...], or S'_d = [I J I J ...]
for the primed (folded) variants, transposed to upsample; the spectrum family
adds linear-interpolation weights. Folding keeps mild aliasing near the band
edge instead of at low frequencies; the folded variants are the defaults.
Fractional downsampling runs either family at a non-integer ratio N0/N1 and
needs no vertex correspondence. ``OPERATORS`` names every operator per
direction and ``apply_operator`` runs one by name.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .errors import InvalidParameterError
from .graphs import check_count, check_type, read_only
from .spectral import SpectralBasis, Spectrum, _interpolation_map, check_signal


@dataclass(frozen=True)
class VertexCorrespondence:
    """Injective map from vertices of the reduced graph into the original one.

    ``targets[i]`` is the original-graph vertex corresponding to reduced
    vertex i.
    """

    targets: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.targets)
        if t.ndim != 1:
            raise InvalidParameterError("targets must be a 1-D index array")
        if t.size and not np.issubdtype(t.dtype, np.integer):
            raise InvalidParameterError(f"targets must be integers, got {t.dtype}")
        t = read_only(t if t.size else t.astype(int), int)  # ``[]`` reads as float
        if np.unique(t).size != t.size:
            raise InvalidParameterError("correspondence must be injective")
        if t.size and t.min() < 0:
            raise InvalidParameterError("targets must be nonnegative")
        object.__setattr__(self, "targets", t)

    @property
    def n_reduced(self) -> int:
        return self.targets.size


class SamplingContext:
    """Pair of spectral bases (original graph first) shared by spectral operators.

    Takes two SpectralBasis objects and nothing else. Each operator's
    coefficient map S is built on its first call and kept for the context's
    later calls; u0^H f is basis0's kept analysis.
    """

    def __init__(self, basis0: SpectralBasis, basis1: SpectralBasis):
        if not (isinstance(basis0, SpectralBasis) and isinstance(basis1, SpectralBasis)):
            raise InvalidParameterError("a SamplingContext needs two SpectralBasis objects")
        self._analysis0 = basis0._analysis
        self.u0, self.u1 = basis0.eigenvectors, basis1.eigenvectors
        self.lambdas0, self.lambdas1 = basis0.eigenvalues, basis1.eigenvalues
        self.n0, self.n1 = basis0.n, basis1.n
        self._maps = {}

    @property
    def rho(self) -> float:
        """Ratio of maximum eigenvalues, lambda_{0,max} / lambda_{1,max}, of two ascending grids."""
        if np.any(np.diff(self.lambdas0) < 0) or np.any(np.diff(self.lambdas1) < 0):
            raise InvalidParameterError("eigenvalue grid must be in ascending order")
        if self.lambdas1[-1] <= 0:
            raise InvalidParameterError("reduced graph has zero maximum eigenvalue")
        return float(self.lambdas0[-1] / self.lambdas1[-1])

    def _apply(self, f, family: str, folded: bool, up: bool) -> np.ndarray:
        """u1 @ (S @ u0^H f) with the map S of (family, folded, up), built on first use;
        ``folded`` must be a bool."""
        check_type(folded, bool, "folded")
        coeffs = self._analysis0(check_signal(f, self.n0))
        key = (family, folded, up)
        if key not in self._maps:
            self._maps[key] = _coefficient_map(self, *key)
        return self.u1 @ (self._maps[key] @ (coeffs.real if family == "spectrum" else coeffs))


# ---------------------------------------------------------------------------
# vertex domain


def vertex_downsample(f: np.ndarray, corr: VertexCorrespondence) -> np.ndarray:
    """Retain the samples sitting on the kept vertices."""
    check_type(corr, VertexCorrespondence, "vertex_downsample")
    f = check_signal(f, np.size(f))  # any length; the targets bound it below
    if corr.targets.size and corr.targets.max() >= f.shape[0]:
        raise InvalidParameterError("correspondence targets exceed signal length")
    return f[corr.targets].copy()


def vertex_upsample(f: np.ndarray, corr: VertexCorrespondence, n0: int) -> np.ndarray:
    """Place samples on their corresponding vertices, zeros elsewhere."""
    check_type(corr, VertexCorrespondence, "vertex_upsample")
    f = check_signal(f, corr.n_reduced)
    n0 = check_count(n0, "n0")
    if corr.targets.size and corr.targets.max() >= n0:
        raise InvalidParameterError("correspondence targets exceed target size")
    out = np.zeros(n0, dtype=f.dtype)
    out[corr.targets] = f
    return out


# ---------------------------------------------------------------------------
# spectral domain: u1 S u0^H with S built once per context


def _fold_map(n_small: int, n_big: int, folded: bool) -> csr_array:
    """Segment sum S_d = [I I ...], or S'_d = [I J I J ...] when folded, as (n_small, n_big).

    Column c lies in segment c // n_small; a non-integer ratio cuts the last
    segment short. The transpose repeats a spectrum into n_big coefficients.
    """
    segment, k = np.divmod(np.arange(n_big), n_small)
    rows = np.where(folded & (segment % 2 == 1), n_small - 1 - k, k)
    return csr_array((np.ones(n_big), (rows, np.arange(n_big))), shape=(n_small, n_big))


def _coefficient_map(ctx: SamplingContext, family: str, folded: bool, up: bool):
    """The sparse (n1, n0) map S of one spectral operator on GFT coefficients."""
    if family == "index":
        return _fold_map(ctx.n0, ctx.n1, folded).T if up else _fold_map(ctx.n1, ctx.n0, folded)
    rho, lam0, lam1 = ctx.rho, ctx.lambdas0, ctx.lambdas1
    if up:  # copy p sits on lambda_0 + p * lambda_{0,max}, in the index-up fold's order
        copy, k = np.divmod(np.arange(ctx.n1), ctx.n0)
        copies = _interpolation_map(lam0[k] + copy * lam0[-1], rho * (ctx.n1 // ctx.n0) * lam1)
        return copies @ _fold_map(ctx.n0, ctx.n1, folded).T
    # output segment p covers [p, p + 1] * lambda_{1,max}: unfolded segments
    # shift, folded odd ones reflect in lambda (a triangle wave, not an index
    # reversal); rho / ratio rescales into the lambda_0 axis
    ratio = ctx.n0 / ctx.n1
    segment, k = np.divmod(np.arange(math.ceil(ratio) * ctx.n1), ctx.n1)
    reflect = folded & (segment % 2 == 1)
    q = np.where(reflect, (segment + 1) * lam1[-1] - lam1[k], segment * lam1[-1] + lam1[k])
    queries = rho / ratio * q
    kept = queries <= lam0[-1] * (1.0 + 1e-12) + 1e-12
    segment_sum = _fold_map(ctx.n1, queries.size, folded=False)[:, kept]
    return segment_sum @ _interpolation_map(lam0, queries[kept])


def _check_rate(ctx: SamplingContext, rate: int, up: bool) -> None:
    """Require the larger graph to hold exactly ``rate`` times the smaller one."""
    check_type(ctx, SamplingContext, "a spectral operator")
    rate = check_count(rate, "rate", 1)
    big, small = (ctx.n1, ctx.n0) if up else (ctx.n0, ctx.n1)
    if big != rate * small:
        b, s = ("n1", "n0") if up else ("n0", "n1")
        raise InvalidParameterError(
            f"size mismatch: expected {b} = {rate} * {s}, got {big} vs {small}"
        )


def spectral_downsample_index(
    ctx: SamplingContext, f: np.ndarray, m: int, folded: bool = True
) -> np.ndarray:
    """Downsample by summing length-N/M segments of the spectrum.

    Unfolded sums the segments as-is (S_d = [I I ...]); folded flips every
    odd segment first (S'_d = [I J I J ...]). This is index-mode
    ``fractional_downsample`` at the integer ratio M.
    """
    _check_rate(ctx, m, up=False)
    return ctx._apply(f, "index", folded, up=False)


def spectral_upsample_index(
    ctx: SamplingContext, f: np.ndarray, l: int, folded: bool = True
) -> np.ndarray:
    """Upsample by repeating the spectrum L times.

    basis1 is the larger graph. Folded alternates the original and flipped
    spectrum so consecutive copies mirror each other.
    """
    _check_rate(ctx, l, up=True)
    return ctx._apply(f, "index", folded, up=True)


def spectral_downsample_spectrum(
    ctx: SamplingContext, f: np.ndarray, m: int, folded: bool = True
) -> np.ndarray:
    """Downsample via the continuously interpolated spectrum.

    The original spectrum is linearly interpolated on its eigenvalue grid,
    stretched by M, resampled on the reduced graph's eigenvalues, and the M
    overlapping segments are summed (reflected for the primed variant).
    This is spectrum-mode ``fractional_downsample`` at the integer ratio M.
    """
    _check_rate(ctx, m, up=False)
    return ctx._apply(f, "spectrum", folded, up=False)


def spectral_upsample_spectrum(
    ctx: SamplingContext, f: np.ndarray, l: int, folded: bool = True
) -> np.ndarray:
    """Upsample via the continuously interpolated spectrum.

    The spectrum (alternately flipped for the primed variant) is repeated L
    times over [0, L * lambda_{0,max}] with copy p carrying abscissae
    lambda_{0,k} + p * lambda_{0,max}, then sampled at rho * L * lambda_{1,k}
    for every output index k on the larger graph.
    """
    _check_rate(ctx, l, up=True)
    return ctx._apply(f, "spectrum", folded, up=True)


# ---------------------------------------------------------------------------
# ideal anti-aliasing / anti-imaging filters


def ideal_lowpass_index(spectrum: Spectrum, cutoff_index: int) -> Spectrum:
    """Zero all coefficients with index k > cutoff_index."""
    check_type(spectrum, Spectrum, "ideal_lowpass_index")
    cutoff_index = check_count(cutoff_index, "cutoff index")
    c = spectrum.coefficients.copy()
    c[cutoff_index + 1 :] = 0.0
    return Spectrum(c, spectrum.grid)


def ideal_lowpass_lambda(spectrum: Spectrum, cutoff_lambda: float) -> Spectrum:
    """Zero all coefficients whose eigenvalue exceeds cutoff_lambda, a real number but
    neither a bool nor NaN."""
    check_type(spectrum, Spectrum, "ideal_lowpass_lambda")
    if (not isinstance(cutoff_lambda, numbers.Real) or isinstance(cutoff_lambda, bool)
            or np.isnan(cutoff_lambda)):
        raise InvalidParameterError("cutoff_lambda must be a real number, not a bool or NaN")
    c = np.where(spectrum.grid <= cutoff_lambda, spectrum.coefficients, 0.0)
    return Spectrum(c, spectrum.grid)


# ---------------------------------------------------------------------------
# fractional resampling


def fractional_downsample(
    ctx: SamplingContext, f: np.ndarray, mode: str = "spectrum", folded: bool = True
) -> np.ndarray:
    """Downsample at the (possibly non-integer) ratio r = N0 / N1.

    ``mode="spectrum"`` stretches the interpolated spectrum by r; stretched
    segments falling beyond lambda_{0,max} contribute nothing.
    ``mode="index"`` applies the same segment construction on the
    coefficient index axis (segments of length N1, odd segments reflected
    when folded), dropping indices >= N0. At an integer ratio these are the
    integer-rate downsampling operators.
    """
    if check_type(ctx, SamplingContext, "fractional_downsample").n1 > ctx.n0:
        raise InvalidParameterError("fractional downsampling needs n1 <= n0")
    if mode not in ("index", "spectrum"):
        raise InvalidParameterError(f"unknown mode {mode!r}, expected 'index' or 'spectrum'")
    return ctx._apply(f, mode, folded, up=False)


# ---------------------------------------------------------------------------
# operator table

_SPECTRAL = ("index", "index-folded", "spectrum", "spectrum-folded")

# Operator names per direction: "down" and "up" are integer-rate, "frac"
# resamples at the ratio of the two graphs' sizes.
OPERATORS = {
    "down": ("vertex", *_SPECTRAL),
    "up": ("vertex", *_SPECTRAL),
    "frac": tuple(f"frac-{name}" for name in _SPECTRAL),
}


def apply_operator(
    name: str,
    direction: str,
    ctx: SamplingContext,
    f: np.ndarray,
    rate: int | None = None,
    corr: VertexCorrespondence | None = None,
) -> np.ndarray:
    """Apply the operator ``name`` of ``OPERATORS[direction]`` to ``f``.

    ``ctx`` runs from the input graph to the output graph. Integer-rate
    spectral operators take ``rate``, an int; the vertex operators take
    ``corr``. A name outside the direction's table, a ``ctx`` that is not a
    SamplingContext, or a missing ``rate`` or ``corr``, raises InvalidParameterError.
    """
    check_type(ctx, SamplingContext, "apply_operator")
    names = OPERATORS.get(direction, ())
    if name not in names:
        raise InvalidParameterError(
            f"unknown {direction!r} operator {name!r}, expected one of {names}"
        )
    family, _, variant = name.removeprefix("frac-").partition("-")
    folded = variant == "folded"
    if direction == "frac":
        return fractional_downsample(ctx, f, mode=family, folded=folded)
    if family == "vertex":
        if corr is None:
            raise InvalidParameterError(f"operator {name!r} needs a vertex correspondence")
        if direction == "down":
            return vertex_downsample(f, corr)
        return vertex_upsample(f, corr, ctx.n1)
    if direction == "down":
        op = spectral_downsample_index if family == "index" else spectral_downsample_spectrum
    else:
        op = spectral_upsample_index if family == "index" else spectral_upsample_spectrum
    return op(ctx, f, rate, folded=folded)
