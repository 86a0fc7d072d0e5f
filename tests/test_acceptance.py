"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` or in captured output on failure).
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest

import gssamp as gs
from gssamp.cli import PRESETS, run_experiment
from ring_oracle import downsample_dft, downsample_time, upsample_dft, upsample_time


@contextmanager
def report(num, label):
    try:
        yield
    except Exception:
        print(f"criterion {num}: FAIL — {label}")
        raise
    print(f"criterion {num}: PASS — {label}")


def basis_of(graph):
    return gs.eigendecompose(gs.laplacian(graph))


def bandlimited(basis, cutoff, seed):
    coeffs = np.zeros(basis.n)
    coeffs[:cutoff] = np.random.default_rng(seed).standard_normal(cutoff)
    return gs.igft(basis, coeffs)


def real_dft_bandlimited(rng, n, half_band):
    spec = np.zeros(n, dtype=complex)
    spec[0] = rng.standard_normal()
    for k in range(1, half_band):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        spec[k] = c
        spec[n - k] = np.conj(c)
    return np.fft.ifft(spec).real


def test_criterion_1_ring_downsampling_equivalence():
    with report(1, "ring-graph spectral downsampling matches classical decimation"):
        start = time.monotonic()
        worst = 0.0
        for n in (8, 16, 32):
            for m in (2, 4):
                u0, u1 = gs.ring_sampling_bases(n, n // m)
                ctx = gs.SamplingContext(u0, u1)
                corr = gs.VertexCorrespondence(np.arange(0, n, m))
                rng = np.random.default_rng(1000 * n + m)
                for _ in range(50):
                    f = real_dft_bandlimited(rng, n, max(1, n // (2 * m)))
                    spec_down = gs.spectral_downsample_index(ctx, f, m, folded=False)
                    d1 = downsample_time(f, m)
                    vert_down = gs.vertex_downsample(f, corr)
                    worst = max(
                        worst,
                        np.abs(spec_down - d1).max(),
                        np.abs(spec_down - vert_down).max(),
                    )
        assert worst <= 1e-9
        assert time.monotonic() - start < 5.0


def test_criterion_2_path_perfect_recovery():
    with report(2, "bandlimited path signals survive downsample/upsample/lowpass"):
        n, m = 100, 2
        b0 = basis_of(gs.build_path(n))
        b1 = basis_of(gs.build_path(n // m))
        down = gs.SamplingContext(b0, b1)
        up = gs.SamplingContext(b1, b0)
        for seed in range(50):
            f = bandlimited(b0, n // m, seed)
            f_d = gs.spectral_downsample_index(down, f, m, folded=False)
            f_u = gs.spectral_upsample_index(up, f_d, m, folded=False)
            rec = gs.igft(b0, gs.ideal_lowpass_index(gs.gft(b0, f_u), n // m - 1))
            assert np.linalg.norm(rec - f) / np.linalg.norm(f) <= 1e-8


def test_criterion_3_classical_oracle_identities():
    with report(3, "time-domain and DFT-domain resampling agree"):
        rng = np.random.default_rng(42)
        for _ in range(100):
            rate = int(rng.integers(2, 5))
            n = rate * int(rng.integers(1, 64 // rate + 1))
            f = rng.standard_normal(n)
            assert np.abs(
                downsample_time(f, rate) - downsample_dft(f, rate)
            ).max() <= 1e-10
            assert np.abs(
                upsample_time(f, rate) - upsample_dft(f, rate)
            ).max() <= 1e-10


def test_criterion_4_support_and_imaging_laws():
    with report(4, "downsampling keeps low spectra verbatim; upsampling copies them"):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = int(rng.integers(2, 5))
            n1 = int(rng.integers(4, 17))
            n0 = m * n1
            ctx = gs.SamplingContext(
                basis_of(gs.build_path(n0)), basis_of(gs.build_path(n1))
            )
            coeffs = np.zeros(n0)
            support = rng.choice(n1, size=min(4, n1), replace=False)
            coeffs[support] = rng.standard_normal(len(support))
            f = ctx.u0 @ coeffs
            out = ctx.u1.T @ gs.spectral_downsample_index(ctx, f, m, folded=False)
            assert np.abs(out - coeffs[:n1]).max() <= 1e-10

            ctx_up = gs.SamplingContext(
                basis_of(gs.build_path(n1)), basis_of(gs.build_path(n0))
            )
            g = ctx_up.u0 @ coeffs[:n1]
            up = ctx_up.u1.T @ gs.spectral_upsample_index(ctx_up, g, m, folded=False)
            expected_support = sorted(
                int(s) + n1 * p for p in range(m) for s in support
            )
            nz = np.nonzero(np.abs(up) > 1e-10)[0]
            assert nz.tolist() == expected_support


def test_criterion_5_vertex_sampling_leaks_energy():
    with report(5, "vertex decimation distorts a bandlimited path spectrum; folded spectral sampling does not"):
        n, m = 100, 2
        b0 = basis_of(gs.build_path(n))
        b1 = basis_of(gs.build_path(n // m))
        ctx = gs.SamplingContext(b0, b1)
        for seed in range(10):
            f = bandlimited(b0, n // m, seed)
            target = gs.gft(b0, f).coefficients[: n // m]

            # vertex decimation: residual after the best scalar fit
            spec1 = gs.gft(b1, f[::2]).coefficients
            scale = spec1 @ target / (spec1 @ spec1)
            rel1 = ((scale * spec1 - target) ** 2).sum() / (target**2).sum()
            assert rel1 > 0.01

            folded_down = gs.spectral_downsample_index(ctx, f, m, folded=True)
            spec2 = gs.gft(b1, folded_down).coefficients
            rel2 = ((spec2 - target) ** 2).sum() / (target**2).sum()
            assert rel2 <= 1e-9


def test_criterion_6_folding_reduces_low_frequency_aliasing():
    with report(6, "unfolded downsampling injects >=5x more energy into the lowest decile"):
        n, m = 100, 2
        b0 = basis_of(gs.build_path(n))
        b1 = basis_of(gs.build_path(n // m))
        ctx = gs.SamplingContext(b0, b1)
        # smooth but full-band signal: power-law spectral decay
        coeffs = (1.0 + np.arange(n)) ** -2.0
        f = gs.igft(b0, coeffs)
        assert (coeffs[b0.eigenvalues < b0.lambda_max / 2] ** 2).sum() >= 0.99 * (
            coeffs**2
        ).sum()
        decile = slice(0, (n // m) // 10)
        injected = {}
        for folded in (False, True):
            out = ctx.u1.T @ gs.spectral_downsample_index(ctx, f, m, folded=folded)
            injected[folded] = ((out - coeffs[: n // m])[decile] ** 2).sum()
        assert injected[False] >= 5.0 * injected[True]


def test_criterion_7_repeated_eigenvalue_aliasing(tmp_path):
    with report(7, "eigenvector ordering controls aliasing under repeated eigenvalues"):
        m = run_experiment(PRESETS["repeated-eigenvalues"](), tmp_path)
        s = m["scalars"]
        assert s["ordered_fold_energy"] <= 1e-9
        assert s["permuted_fold_energy"] >= 0.10 * s["permuted_total_energy"]


def test_criterion_8_pyramid_roundtrip():
    with report(8, "three-level pyramids reconstruct exactly for every operator family"):
        graphs = [gs.build_random_sensor(128, seed=2), gs.build_grid(16, 16)]
        rng = np.random.default_rng(5)
        for g in graphs:
            f = rng.standard_normal(g.n)
            for sampling in ("vertex", "index", "spectrum"):
                config = gs.PyramidConfig(sampling=sampling)
                rec = gs.synthesize(gs.analyze(f, g, num_levels=3, config=config))
                assert np.linalg.norm(rec - f) / np.linalg.norm(f) <= 1e-9


def test_criterion_9_nla_ordering(tmp_path):
    with report(9, "spectral pyramids beat the vertex pyramid at 20% retained details"):
        m = run_experiment(PRESETS["pyramid-nla"](), tmp_path)
        s = m["scalars"]
        assert s["index_error_at_0.2"] < s["vertex_error_at_0.2"]
        assert s["spectrum_error_at_0.2"] < s["vertex_error_at_0.2"]


def test_criterion_10_road_network_energy_split():
    print("criterion 10: SKIP — external road-network dataset not bundled")
    pytest.skip("requires the external road-network edge list; criterion 7 covers the property")


def test_criterion_11_kron_hand_case():
    with report(11, "three-vertex path reduces to the hand-computed Laplacian"):
        red = gs.kron_reduce(gs.laplacian(gs.build_path(3)), [0, 2])
        expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
        a = red.graph.adjacency.toarray()
        assert np.abs(np.diag(a.sum(axis=1)) - a - expected).max() <= 1e-12
