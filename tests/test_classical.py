import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gssamp as gs
from gssamp.errors import InvalidParameterError


class TestDownsample:
    def test_time_simple(self):
        assert gs.downsample_time(np.array([1, 2, 3, 4]), 2).tolist() == [1, 3]

    def test_time_constant(self):
        out = gs.downsample_time(np.full(8, 3.7), 4)
        assert np.allclose(out, [3.7, 3.7])

    def test_dft_matches_time(self):
        f = np.random.default_rng(0).standard_normal(12)
        assert np.abs(gs.downsample_dft(f, 3) - gs.downsample_time(f, 3)).max() < 1e-10

    def test_rate_must_divide(self):
        with pytest.raises(InvalidParameterError):
            gs.downsample_time(np.ones(10), 3)
        with pytest.raises(InvalidParameterError):
            gs.downsample_dft(np.ones(10), 4)


@pytest.mark.parametrize("rate", [True, 2.0, 2.5], ids=["bool", "float", "fraction"])
@pytest.mark.parametrize(
    "resample", [gs.downsample_time, gs.downsample_dft, gs.upsample_time, gs.upsample_dft]
)
def test_rate_must_be_an_integer(resample, rate):
    # True was once taken as rate 1, a float ended in a TypeError
    with pytest.raises(InvalidParameterError, match="rate must be an integer >= 1"):
        resample(np.ones(4), rate)


@pytest.mark.parametrize(
    "resample", [gs.downsample_time, gs.downsample_dft, gs.upsample_time, gs.upsample_dft]
)
def test_empty_signal_gives_an_empty_signal(resample):
    # the DFT routes once ended in numpy's "Invalid number of FFT data points (0)"
    out = resample(np.ones(0), 2)
    assert out.shape == (0,) and out.dtype == float


class TestUpsample:
    def test_time_simple(self):
        assert gs.upsample_time(np.array([1.0, 2.0]), 2).tolist() == [1, 0, 2, 0]

    def test_time_constant(self):
        assert gs.upsample_time(np.ones(4), 2).tolist() == [1, 0, 1, 0, 1, 0, 1, 0]

    def test_dft_matches_time(self):
        f = np.random.default_rng(1).standard_normal(6)
        assert np.abs(gs.upsample_dft(f, 3) - gs.upsample_time(f, 3)).max() < 1e-10


@settings(max_examples=200, deadline=None)
@given(
    n_blocks=st.integers(min_value=1, max_value=16),
    m=st.sampled_from([1, 2, 3, 4]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_downsampling_routes_agree(n_blocks, m, seed):
    n = n_blocks * m
    if n > 64:
        n = (64 // m) * m
    f = np.random.default_rng(seed).standard_normal(n)
    assert np.abs(gs.downsample_dft(f, m) - gs.downsample_time(f, m)).max() < 1e-10


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=64),
    l=st.sampled_from([1, 2, 3, 4]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_upsampling_routes_agree(n, l, seed):
    f = np.random.default_rng(seed).standard_normal(n)
    assert np.abs(gs.upsample_dft(f, l) - gs.upsample_time(f, l)).max() < 1e-10


def test_dft_matrix_diagonalizes_ring_laplacian():
    n = 8
    u = gs.dft_matrix(n)
    a = gs.build_ring(n).adjacency.toarray()
    lap = np.diag(a.sum(axis=1)) - a
    d = u.conj().T @ lap @ u
    off = d - np.diag(np.diag(d))
    assert np.abs(off).max() < 1e-10
    assert np.allclose(np.diag(d).real, 2 - 2 * np.cos(2 * np.pi * np.arange(n) / n))


def test_ring_sampling_bases_are_spectral_bases():
    u0, u1 = gs.ring_sampling_bases(8, 4)
    assert isinstance(u0, gs.SpectralBasis) and isinstance(u1, gs.SpectralBasis)
    for b in (u0, u1):  # DFT column order, as the DFT matrix diagonalizes the ring
        assert np.array_equal(b.eigenvalues, 2 - 2 * np.cos(2 * np.pi * np.arange(b.n) / b.n))
    assert np.array_equal(u0.eigenvectors, gs.dft_matrix(8))
    assert np.array_equal(u1.eigenvectors, gs.dft_matrix(4) / np.sqrt(2))
    # the top eigenvalue sits mid-grid in DFT order, not in the last column
    assert (u0.lambda_max, u1.lambda_max) == (4.0, 4.0)


@pytest.mark.parametrize("sizes", [(2.5, 5), (4.0, 2), (True, 1), (0, 4), (8, 3)])
def test_ring_sampling_bases_reject_bad_sizes(sizes):
    with pytest.raises(InvalidParameterError, match="n0|n1|divide"):
        gs.ring_sampling_bases(*sizes)
