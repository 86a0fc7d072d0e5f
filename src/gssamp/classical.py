"""Classical time/DFT-domain sampling, used as the oracle for ring-graph equivalences.

Conventions: the forward DFT is unnormalized, F[k] = sum_n f[n] exp(-2j pi k n / N),
and the inverse carries 1/N. The DFT-domain downsampler therefore divides the
summed aliasing terms by M so that it matches time-domain decimation exactly.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
from .graphs import check_count
from .spectral import SpectralBasis, check_signal


def _decimation(f, m) -> tuple[np.ndarray, int]:
    """``check_signal``'s 1-D f and a rate m >= 1, which must divide len(f)."""
    f, m = check_signal(f, np.size(f)), check_count(m, "rate", 1)
    if f.shape[0] % m != 0:
        raise InvalidParameterError(f"rate {m} must divide signal length {f.shape[0]}")
    return f, m


def downsample_time(f: np.ndarray, m: int) -> np.ndarray:
    """(D1) retain every m-th sample; m must divide len(f)."""
    f, m = _decimation(f, m)
    return f[::m].copy()


def downsample_dft(f: np.ndarray, m: int) -> np.ndarray:
    """(D2) fold the DFT spectrum: F_d[k] = (1/m) sum_p F[p N/m + k]."""
    f, m = _decimation(f, m)
    spec = np.fft.fft(f)
    folded = spec.reshape(m, -1).sum(axis=0) / m
    out = np.fft.ifft(folded)
    return out.real if np.isrealobj(f) else out


def upsample_time(f: np.ndarray, l: int) -> np.ndarray:
    """(U1) insert l-1 zeros between samples."""
    f = check_signal(f, np.size(f))
    l = check_count(l, "rate", 1)
    out = np.zeros(f.shape[0] * l, dtype=f.dtype)
    out[::l] = f
    return out


def upsample_dft(f: np.ndarray, l: int) -> np.ndarray:
    """(U2) repeat the DFT spectrum l times: F_u[p N + k] = F[k]."""
    f = check_signal(f, np.size(f))
    l = check_count(l, "rate", 1)
    spec = np.tile(np.fft.fft(f), l)
    out = np.fft.ifft(spec)
    return out.real if np.isrealobj(f) else out


def dft_matrix(n: int) -> np.ndarray:
    """Unitary synthesis DFT matrix; column k is exp(2j pi k t / n) / sqrt(n)."""
    n = check_count(n, "n", 1)
    t = np.arange(n)
    return np.exp(2j * np.pi * np.outer(t, t) / n) / np.sqrt(n)


def ring_sampling_bases(n0: int, n1: int) -> tuple[SpectralBasis, SpectralBasis]:
    """DFT bases (U0, U1) for a ring-graph sampling pair.

    The DFT matrix diagonalizes the ring-graph Laplacian; column k pairs with
    the eigenvalue 2 - 2 cos(2 pi k / n), in DFT column order, which does not
    ascend, so the spectrum-family operators refuse these bases. U0 is the
    unitary DFT basis of size n0; U1 is the size-n1 basis rescaled by
    1/sqrt(rate) so that index-domain spectral sampling between the two rings
    coincides numerically with classical time-domain sampling at rate
    max/min(n0, n1).
    """
    n0, n1 = check_count(n0, "n0", 1), check_count(n1, "n1", 1)
    big, small = max(n0, n1), min(n0, n1)
    if big % small != 0:
        raise InvalidParameterError("one size must divide the other")
    rate = big // small
    return _ring_basis(dft_matrix(n0)), _ring_basis(dft_matrix(n1) / np.sqrt(rate))


def _ring_basis(u: np.ndarray) -> SpectralBasis:
    """``u``'s columns, DFT-ordered, with the ring Laplacian's eigenvalues."""
    n = u.shape[0]
    return SpectralBasis(2.0 - 2.0 * np.cos(2 * np.pi * np.arange(n) / n), u)
