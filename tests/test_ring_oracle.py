"""The classical resamplers that the ring-graph equivalences use as their oracle:
time- and DFT-domain routes agree."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gssamp as gs
from gssamp.errors import InvalidParameterError
from ring_oracle import dft_matrix, downsample_dft, downsample_time, upsample_dft, upsample_time


class TestDownsample:
    def test_time_simple(self):
        assert downsample_time(np.array([1, 2, 3, 4]), 2).tolist() == [1, 3]

    def test_time_constant(self):
        out = downsample_time(np.full(8, 3.7), 4)
        assert np.allclose(out, [3.7, 3.7])

    def test_dft_matches_time(self):
        f = np.random.default_rng(0).standard_normal(12)
        assert np.abs(downsample_dft(f, 3) - downsample_time(f, 3)).max() < 1e-10

    def test_rate_must_divide(self):
        with pytest.raises(InvalidParameterError):
            downsample_time(np.ones(10), 3)
        with pytest.raises(InvalidParameterError):
            downsample_dft(np.ones(10), 4)


@pytest.mark.parametrize("rate", [True, 2.0, 2.5], ids=["bool", "float", "fraction"])
@pytest.mark.parametrize(
    "resample", [downsample_time, downsample_dft, upsample_time, upsample_dft]
)
def test_rate_must_be_an_integer(resample, rate):
    # True was once taken as rate 1, a float ended in a TypeError
    with pytest.raises(InvalidParameterError, match="rate must be an integer >= 1"):
        resample(np.ones(4), rate)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: downsample_time(None, 2), "signal length"),
        (lambda: downsample_dft(None, 2), "signal length"),
        (lambda: upsample_time(None, 2), "signal length"),
        (lambda: upsample_dft(None, 2), "signal length"),
        (lambda: dft_matrix(None), "n must be an integer"),
        (lambda: dft_matrix(2.5), "n must be an integer"),
    ],
    ids=["downsample-time-no-signal", "downsample-dft-no-signal", "upsample-time-no-signal",
         "upsample-dft-no-signal", "dft-no-size", "dft-float-size"],
)
def test_refused_at_the_call(call, message):
    with pytest.raises(InvalidParameterError, match=message):
        call()


@pytest.mark.parametrize(
    "resample", [downsample_time, downsample_dft, upsample_time, upsample_dft]
)
def test_empty_signal_gives_an_empty_signal(resample):
    # numpy's FFT refuses 0 points: the DFT routes answer an empty signal themselves
    out = resample(np.ones(0), 2)
    assert out.shape == (0,) and out.dtype == float


class TestUpsample:
    def test_time_simple(self):
        assert upsample_time(np.array([1.0, 2.0]), 2).tolist() == [1, 0, 2, 0]

    def test_time_constant(self):
        assert upsample_time(np.ones(4), 2).tolist() == [1, 0, 1, 0, 1, 0, 1, 0]

    def test_dft_matches_time(self):
        f = np.random.default_rng(1).standard_normal(6)
        assert np.abs(upsample_dft(f, 3) - upsample_time(f, 3)).max() < 1e-10


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
    assert np.abs(downsample_dft(f, m) - downsample_time(f, m)).max() < 1e-10


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=64),
    l=st.sampled_from([1, 2, 3, 4]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_upsampling_routes_agree(n, l, seed):
    f = np.random.default_rng(seed).standard_normal(n)
    assert np.abs(upsample_dft(f, l) - upsample_time(f, l)).max() < 1e-10


def test_dft_matrix_diagonalizes_ring_laplacian():
    n = 8
    u = dft_matrix(n)
    a = gs.build_ring(n).adjacency.toarray()
    lap = np.diag(a.sum(axis=1)) - a
    d = u.conj().T @ lap @ u
    off = d - np.diag(np.diag(d))
    assert np.abs(off).max() < 1e-10
    assert np.allclose(np.diag(d).real, 2 - 2 * np.cos(2 * np.pi * np.arange(n) / n))
