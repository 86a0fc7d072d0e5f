"""Graph-signal sampling operators.

Three families, mirroring classical sampling:

* vertex domain: copy values through a one-to-one vertex map;
* spectral index domain (plain and folded variants): fold/repeat the GFT
  coefficient vector between the two graphs' bases;
* spectral spectrum domain (plain and folded variants): stretch/compress a
  piecewise-linear interpolant of the spectrum and resample it on the target
  eigenvalue grid.

The primed (folded) variants flip every other spectrum segment with the
counter-identity so that mild aliasing stays near the band edge instead of
contaminating low frequencies; they are the recommended defaults.

Fractional resampling generalizes the spectrum stretch to non-integer
ratios r = N0/N1 and needs no vertex correspondence at all.

``OPERATORS`` names every operator per direction and ``apply_operator``
runs one by name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .spectral import SpectralBasis, Spectrum, check_signal, sample_interpolant


@dataclass(frozen=True)
class VertexCorrespondence:
    """Injective map from vertices of the reduced graph into the original one.

    ``targets[i]`` is the original-graph vertex corresponding to reduced
    vertex i.
    """

    targets: np.ndarray

    def __post_init__(self):
        t = np.array(self.targets, dtype=int)  # a copy: the caller's array stays writable
        if t.ndim != 1:
            raise InvalidParameterError("targets must be a 1-D index array")
        if np.unique(t).size != t.size:
            raise InvalidParameterError("correspondence must be injective")
        if t.size and t.min() < 0:
            raise InvalidParameterError("targets must be nonnegative")
        t.flags.writeable = False
        object.__setattr__(self, "targets", t)

    @classmethod
    def from_keep_set(cls, keep) -> "VertexCorrespondence":
        return cls(np.sort(np.asarray(sorted(keep), dtype=int)))

    @property
    def n_reduced(self) -> int:
        return self.targets.size


class SamplingContext:
    """Pair of spectral bases (original graph first) shared by spectral operators.

    Accepts SpectralBasis objects or raw eigenvector matrices (possibly
    complex, e.g. DFT bases for ring graphs) with optional eigenvalue grids.
    """

    def __init__(self, basis0, basis1, lambdas0=None, lambdas1=None):
        self.u0, self.lambdas0 = _unpack_basis(basis0, lambdas0)
        self.u1, self.lambdas1 = _unpack_basis(basis1, lambdas1)
        self.n0 = self.u0.shape[0]
        self.n1 = self.u1.shape[0]

    @property
    def rho(self) -> float:
        """Ratio of maximum eigenvalues, lambda_{0,max} / lambda_{1,max}."""
        if self.lambdas0 is None or self.lambdas1 is None:
            raise InvalidParameterError("context has no eigenvalue grids")
        if self.lambdas1[-1] <= 0:
            raise InvalidParameterError("reduced graph has zero maximum eigenvalue")
        return float(self.lambdas0[-1] / self.lambdas1[-1])


def _unpack_basis(basis, lambdas):
    if isinstance(basis, SpectralBasis):
        return basis.eigenvectors, basis.eigenvalues
    u = np.asarray(basis)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise InvalidParameterError("eigenvector matrix must be square")
    lam = None if lambdas is None else np.sort(np.asarray(lambdas, dtype=float))
    return u, lam


def _analysis(u: np.ndarray, f: np.ndarray) -> np.ndarray:
    """GFT with the conjugate transpose, valid for complex bases too."""
    return u.conj().T @ f


# ---------------------------------------------------------------------------
# vertex domain


def vertex_downsample(f: np.ndarray, corr: VertexCorrespondence) -> np.ndarray:
    """Retain the samples sitting on the kept vertices."""
    f = check_signal(f, np.size(f))  # any length; the targets bound it below
    if corr.targets.size and corr.targets.max() >= f.shape[0]:
        raise InvalidParameterError("correspondence targets exceed signal length")
    return f[corr.targets].copy()


def vertex_upsample(f: np.ndarray, corr: VertexCorrespondence, n0: int) -> np.ndarray:
    """Place samples on their corresponding vertices, zeros elsewhere."""
    f = check_signal(f, corr.n_reduced)
    if corr.targets.size and corr.targets.max() >= n0:
        raise InvalidParameterError("correspondence targets exceed target size")
    out = np.zeros(n0, dtype=f.dtype)
    out[corr.targets] = f
    return out


# ---------------------------------------------------------------------------
# spectral index domain


def _check_rate(ctx: SamplingContext, rate: int, up: bool) -> None:
    """Require the larger graph to hold exactly ``rate`` times the smaller one."""
    big, small = (ctx.n1, ctx.n0) if up else (ctx.n0, ctx.n1)
    if rate < 1 or big != rate * small:
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
    return fractional_downsample(ctx, f, mode="index", folded=folded)


def spectral_upsample_index(
    ctx: SamplingContext, f: np.ndarray, l: int, folded: bool = True
) -> np.ndarray:
    """Upsample by repeating the spectrum L times.

    basis1 is the larger graph. Folded alternates the original and flipped
    spectrum so consecutive copies mirror each other.
    """
    f = check_signal(f, ctx.n0)
    _check_rate(ctx, l, up=True)
    coeffs = _analysis(ctx.u0, f)
    copies = [coeffs if p % 2 == 0 or not folded else coeffs[::-1] for p in range(l)]
    return ctx.u1 @ np.concatenate(copies)


# ---------------------------------------------------------------------------
# spectral spectrum domain


def _stretch_queries(lam1: np.ndarray, ratio: float, folded: bool) -> list[np.ndarray]:
    """Per-segment query abscissae (in lambda_1 units) for spectrum stretching.

    Segment p of the stretched output band covers [p, p+1] * lambda_{1,max};
    unfolded segments shift additively, folded ones reflect (triangle wave).
    Queries are later rescaled by rho/ratio into the lambda_0 axis; entries
    beyond ratio * lambda_{1,max} fall outside the source spectrum and are
    dropped by the caller.
    """
    lam_max = float(lam1[-1])
    out = []
    for p in range(math.ceil(ratio)):
        if not folded or p % 2 == 0:
            out.append(p * lam_max + lam1)
        else:
            out.append((p + 1) * lam_max - lam1)
    return out


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
    return fractional_downsample(ctx, f, mode="spectrum", folded=folded)


def spectral_upsample_spectrum(
    ctx: SamplingContext, f: np.ndarray, l: int, folded: bool = True
) -> np.ndarray:
    """Upsample via the continuously interpolated spectrum.

    The spectrum (alternately flipped for the primed variant) is repeated L
    times over [0, L * lambda_{0,max}] with copy p carrying abscissae
    lambda_{0,k} + p * lambda_{0,max}, then sampled at rho * L * lambda_{1,k}
    for every output index k on the larger graph.
    """
    f = check_signal(f, ctx.n0)
    _check_rate(ctx, l, up=True)
    base = _analysis(ctx.u0, f).real
    lam0 = ctx.lambdas0
    lam0_max = float(lam0[-1])
    xs = np.concatenate([lam0 + p * lam0_max for p in range(l)])
    ys = np.concatenate(
        [base if p % 2 == 0 or not folded else base[::-1] for p in range(l)]
    )
    repeated = Spectrum(ys, xs)  # duplicate copy-boundary nodes are averaged
    queries = ctx.rho * l * ctx.lambdas1
    coeffs = sample_interpolant(repeated, queries)
    return ctx.u1 @ coeffs


# ---------------------------------------------------------------------------
# ideal anti-aliasing / anti-imaging filters


def ideal_lowpass_index(spectrum: Spectrum, cutoff_index: int) -> Spectrum:
    """Zero all coefficients with index k > cutoff_index."""
    if cutoff_index < 0:
        raise InvalidParameterError("cutoff index must be nonnegative")
    c = spectrum.coefficients.copy()
    c[cutoff_index + 1 :] = 0.0
    return Spectrum(c, spectrum.grid)


def ideal_lowpass_lambda(spectrum: Spectrum, cutoff_lambda: float) -> Spectrum:
    """Zero all coefficients whose eigenvalue exceeds cutoff_lambda."""
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
    f = check_signal(f, ctx.n0)
    if ctx.n1 > ctx.n0:
        raise InvalidParameterError("fractional downsampling needs n1 <= n0")
    ratio = ctx.n0 / ctx.n1
    if mode == "spectrum":
        spec = Spectrum(_analysis(ctx.u0, f).real, ctx.lambdas0)
        lam0_max = float(spec.grid[-1])
        scale = ctx.rho / ratio
        total = np.zeros(ctx.n1)
        for q in _stretch_queries(ctx.lambdas1, ratio, folded):
            queries = scale * q
            in_range = queries <= lam0_max * (1.0 + 1e-12) + 1e-12
            if np.any(in_range):
                total[in_range] += sample_interpolant(spec, queries[in_range])
        return ctx.u1 @ total
    if mode == "index":
        base = _analysis(ctx.u0, f)
        total = np.zeros(ctx.n1, dtype=base.dtype)
        k = np.arange(ctx.n1)
        for p in range(math.ceil(ratio)):
            if not folded or p % 2 == 0:
                idx = p * ctx.n1 + k
            else:
                idx = (p + 1) * ctx.n1 - k - 1
            valid = idx < ctx.n0
            total[valid] += base[idx[valid]]
        return ctx.u1 @ total
    raise InvalidParameterError(f"unknown mode {mode!r}, expected 'index' or 'spectrum'")


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
    spectral operators take ``rate``; the vertex operators take ``corr``.
    A name outside the direction's table raises InvalidParameterError.
    """
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
        if direction == "down":
            return vertex_downsample(f, corr)
        return vertex_upsample(f, corr, ctx.n1)
    if direction == "down":
        op = spectral_downsample_index if family == "index" else spectral_downsample_spectrum
    else:
        op = spectral_upsample_index if family == "index" else spectral_upsample_spectrum
    return op(ctx, f, rate, folded=folded)
