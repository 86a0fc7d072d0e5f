"""Classical time/DFT-domain sampling, the oracle for ring-graph equivalences.

Conventions: the forward DFT is unnormalized, F[k] = sum_n f[n] exp(-2j pi k n / N),
and the inverse carries 1/N. The DFT-domain downsampler therefore divides the
summed aliasing terms by M so that it matches time-domain decimation exactly.
"""
import numpy as np

from gssamp.errors import InvalidParameterError
from gssamp.graphs import check_count
from gssamp.spectral import check_signal


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
    if f.size == 0:  # numpy's FFT takes no empty input; the time route gives an empty array
        return f.copy()
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
    if f.size == 0:  # as in downsample_dft
        return f.copy()
    spec = np.tile(np.fft.fft(f), l)
    out = np.fft.ifft(spec)
    return out.real if np.isrealobj(f) else out


def dft_matrix(n: int) -> np.ndarray:
    """Unitary synthesis DFT matrix; column k is exp(2j pi k t / n) / sqrt(n)."""
    n = check_count(n, "n", 1)
    t = np.arange(n)
    return np.exp(2j * np.pi * np.outer(t, t) / n) / np.sqrt(n)
