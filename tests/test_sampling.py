import collections
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gssamp as gs
from gssamp import sampling, spectral
from gssamp.errors import DataError, InvalidParameterError


def operator_matrix(op, n_in: int) -> np.ndarray:
    """Extract the matrix of a linear sampling operator column by column."""
    cols = [np.asarray(op(e)) for e in np.eye(n_in)]
    return np.stack(cols, axis=1)


def basis_of(graph):
    return gs.eigendecompose(gs.laplacian(graph))


def path_context(n0, n1):
    return gs.SamplingContext(basis_of(gs.build_path(n0)), basis_of(gs.build_path(n1)))


def bandlimited(basis, cutoff, seed=0):
    coeffs = np.zeros(basis.n)
    coeffs[:cutoff] = np.random.default_rng(seed).standard_normal(cutoff)
    return gs.igft(basis, coeffs)


class TestVertexOps:
    def test_downsample_keeps_listed_vertices(self):
        corr = gs.VertexCorrespondence(np.array([0, 2]))
        out = gs.vertex_downsample(np.array([1.0, 2.0, 3.0, 4.0]), corr)
        assert out.tolist() == [1.0, 3.0]

    def test_identity_correspondence(self):
        corr = gs.VertexCorrespondence(np.arange(5))
        f = np.arange(5.0)
        assert np.array_equal(gs.vertex_downsample(f, corr), f)
        assert np.array_equal(gs.vertex_upsample(f, corr, 5), f)

    def test_upsample_zero_fills(self):
        corr = gs.VertexCorrespondence(np.array([0, 2]))
        out = gs.vertex_upsample(np.array([5.0, 7.0]), corr, 4)
        assert out.tolist() == [5.0, 0.0, 7.0, 0.0]

    def test_caller_array_left_writable(self):
        keep = np.array([0, 2, 4])
        corr = gs.VertexCorrespondence(keep)
        assert keep.flags.writeable and not corr.targets.flags.writeable

    def test_injectivity_enforced(self):
        with pytest.raises(InvalidParameterError):
            gs.VertexCorrespondence(np.array([0, 0, 1]))

    @pytest.mark.parametrize("targets", [[0.9, 2.2], np.array([True, False, True])])
    def test_targets_must_be_integers(self, targets):
        with pytest.raises(InvalidParameterError, match="targets must be integers"):
            gs.VertexCorrespondence(targets)
        assert gs.VertexCorrespondence([]).n_reduced == 0

    def test_downsample_needs_a_vector(self):
        corr = gs.VertexCorrespondence(np.array([0, 2]))
        with pytest.raises(InvalidParameterError, match="signal length"):
            gs.vertex_downsample(np.ones((4, 1)), corr)


class TestSpectralDownsampleIndex:
    def test_bandlimited_passthrough_both_variants(self):
        ctx = path_context(16, 8)
        f = bandlimited(ctx_basis0(ctx), 8, seed=4)
        for folded in (False, True):
            out = gs.spectral_downsample_index(ctx, f, 2, folded=folded)
            out_coeffs = ctx.u1.T @ out
            in_coeffs = ctx.u0.T @ f
            assert np.abs(out_coeffs - in_coeffs[:8]).max() < 1e-10

    def test_constant_scales_by_sqrt_rate(self):
        ctx = path_context(10, 5)
        out = gs.spectral_downsample_index(ctx, np.ones(10), 2, folded=False)
        assert np.allclose(out, np.sqrt(2.0), atol=1e-10)

    def test_alias_index_maps(self):
        # single high coefficient at index 60 on path(100) -> path(50):
        # unfolded aliases to 60 - 50 = 10, folded to 2*50 - 60 - 1 = 39
        ctx = path_context(100, 50)
        coeffs = np.zeros(100)
        coeffs[60] = 1.0
        f = ctx.u0 @ coeffs
        for folded, target in ((False, 10), (True, 39)):
            out_coeffs = ctx.u1.T @ gs.spectral_downsample_index(ctx, f, 2, folded=folded)
            expected = np.zeros(50)
            expected[target] = 1.0
            assert np.abs(out_coeffs - expected).max() < 1e-10

    def test_matrix_form(self):
        # operator matrix equals U1 S_d U0^T, S_d = [I I]
        ctx = path_context(12, 6)
        s_d = np.hstack([np.eye(6), np.eye(6)])
        expected = ctx.u1 @ s_d @ ctx.u0.T
        got = operator_matrix(
            lambda e: gs.spectral_downsample_index(ctx, e, 2, folded=False), 12
        )
        assert np.abs(got - expected).max() < 1e-10
        # folded: S'_d = [I J]
        s_dp = np.hstack([np.eye(6), np.eye(6)[:, ::-1]])
        expected_p = ctx.u1 @ s_dp @ ctx.u0.T
        got_p = operator_matrix(
            lambda e: gs.spectral_downsample_index(ctx, e, 2, folded=True), 12
        )
        assert np.abs(got_p - expected_p).max() < 1e-10

    def test_energy_preserved_without_aliasing(self):
        ctx = path_context(20, 10)
        f = bandlimited(ctx_basis0(ctx), 10, seed=9)
        out = gs.spectral_downsample_index(ctx, f, 2, folded=False)
        assert abs(np.linalg.norm(out) - np.linalg.norm(f)) < 1e-9

    def test_size_mismatch(self):
        ctx = path_context(10, 4)
        with pytest.raises(InvalidParameterError):
            gs.spectral_downsample_index(ctx, np.ones(10), 2)


class TestSpectralDownsampleSpectrum:
    def test_affine_closed_form(self):
        # linear interpolation is exact on affine spectra; folded, the second
        # segment reflects in lambda and cancels the slope of c(lambda) = lambda
        ctx = path_context(40, 20)
        b0, b1 = basis_of(gs.build_path(40)), basis_of(gs.build_path(20))
        f = gs.igft(b0, b0.eigenvalues.copy())
        rho = ctx.rho
        lam1 = b1.eigenvalues
        expected = {
            False: rho / 2 * lam1 + rho / 2 * (lam1 + lam1[-1]),
            True: np.full(20, rho * lam1[-1]),
        }
        for folded in (False, True):
            out_coeffs = b1.eigenvectors.T @ gs.spectral_downsample_spectrum(
                ctx, f, 2, folded=folded
            )
            assert np.abs(out_coeffs - expected[folded]).max() < 1e-10

    def test_bandlimited_folded_equals_unfolded(self):
        # interpolant is exactly zero beyond the first stretched segment
        b0 = basis_of(gs.build_path(40))
        coeffs = np.zeros(40)
        coeffs[:6] = np.random.default_rng(3).standard_normal(6)
        f = gs.igft(b0, coeffs)
        ctx = path_context(40, 20)
        a = gs.spectral_downsample_spectrum(ctx, f, 2, folded=False)
        b = gs.spectral_downsample_spectrum(ctx, f, 2, folded=True)
        assert np.abs(a - b).max() < 1e-10

    def test_repeated_eigenvalue_aliasing(self):
        # two-node interpolant of a complete-graph spectrum leaks everywhere
        g0 = gs.build_complete(100)
        lap0 = gs.laplacian(g0)
        b0 = gs.eigendecompose(lap0)
        red = gs.kron_reduce(lap0, np.arange(52))
        b1 = gs.eigendecompose(gs.laplacian(red.graph))
        ctx = gs.SamplingContext(b0, b1)
        f = gs.igft(b0, np.eye(100)[0])
        out = gs.fractional_downsample(ctx, f, mode="spectrum", folded=True)
        out_coeffs = b1.eigenvectors.T @ out
        assert np.mean(np.abs(out_coeffs) > 1e-3) >= 0.10


class TestSpectralUpsampleIndex:
    def test_delta_copies(self):
        ctx = path_context(8, 16)
        f = gs.igft(basis_of(gs.build_path(8)), np.eye(8)[0])
        out_coeffs = ctx.u1.T @ gs.spectral_upsample_index(ctx, f, 2, folded=False)
        expected = np.zeros(16)
        expected[0] = expected[8] = 1.0
        assert np.abs(out_coeffs - expected).max() < 1e-10

    def test_folded_flip_pattern(self):
        ctx = path_context(2, 4)
        coeffs = np.array([2.0, 5.0])
        f = ctx.u0 @ coeffs
        out_coeffs = ctx.u1.T @ gs.spectral_upsample_index(ctx, f, 2, folded=True)
        assert np.allclose(out_coeffs, [2.0, 5.0, 5.0, 2.0], atol=1e-10)

    def test_imaging_law_exact_support(self):
        ctx = path_context(10, 30)
        support = [1, 4, 7]
        coeffs = np.zeros(10)
        coeffs[support] = [1.0, -2.0, 0.5]
        f = ctx.u0 @ coeffs
        out_coeffs = ctx.u1.T @ gs.spectral_upsample_index(ctx, f, 3, folded=False)
        expected_support = sorted(s + 10 * p for p in range(3) for s in support)
        nz = np.nonzero(np.abs(out_coeffs) > 1e-10)[0]
        assert nz.tolist() == expected_support


class TestSpectralUpsampleSpectrum:
    def test_constant_spectrum_invariant(self):
        ctx = path_context(10, 20)
        f = ctx.u0 @ np.full(10, 3.0)
        for folded in (False, True):
            out_coeffs = ctx.u1.T @ gs.spectral_upsample_spectrum(ctx, f, 2, folded=folded)
            assert np.allclose(out_coeffs, 3.0, atol=1e-9)

    def test_affine_first_copy(self):
        ctx = path_context(25, 50)
        b0, b1 = basis_of(gs.build_path(25)), basis_of(gs.build_path(50))
        f = gs.igft(b0, 0.5 * b0.eigenvalues + 0.1)
        out_coeffs = b1.eigenvectors.T @ gs.spectral_upsample_spectrum(
            ctx, f, 2, folded=False
        )
        queries = ctx.rho * 2 * b1.eigenvalues
        first_copy = queries <= b0.lambda_max
        expected = 0.5 * queries[first_copy] + 0.1
        assert np.abs(out_coeffs[first_copy] - expected).max() < 1e-10

    def test_narrowband_main_and_image_lobes(self):
        ctx = path_context(50, 100)
        b0, b1 = basis_of(gs.build_path(50)), basis_of(gs.build_path(100))
        f = bandlimited(b0, 6, seed=2)
        out_coeffs = b1.eigenvectors.T @ gs.spectral_upsample_spectrum(
            ctx, f, 2, folded=True
        )
        energy = out_coeffs**2
        total = energy.sum()
        middle = energy[30:70].sum()
        assert middle / total < 1e-12
        assert energy[:30].sum() > 0 and energy[70:].sum() > 0


class TestIdealFilters:
    def test_full_band_is_identity(self):
        b = basis_of(gs.build_path(8))
        spec = gs.gft(b, np.random.default_rng(0).standard_normal(8))
        out = gs.ideal_lowpass_index(spec, 8)
        assert np.array_equal(out.coefficients, spec.coefficients)

    def test_dc_only(self):
        b = basis_of(gs.build_path(8))
        spec = gs.gft(b, np.random.default_rng(0).standard_normal(8))
        out = gs.ideal_lowpass_index(spec, 0)
        assert np.count_nonzero(out.coefficients) <= 1
        assert out.coefficients[0] == spec.coefficients[0]

    def test_lambda_cutoff(self):
        b = basis_of(gs.build_path(8))
        spec = gs.gft(b, np.random.default_rng(0).standard_normal(8))
        out = gs.ideal_lowpass_lambda(spec, 1.0)
        mask = b.eigenvalues <= 1.0
        assert np.array_equal(out.coefficients[mask], spec.coefficients[mask])
        assert np.all(out.coefficients[~mask] == 0)

    def test_nan_cutoff_rejected(self):
        spec = gs.gft(basis_of(gs.build_path(8)), np.random.default_rng(0).standard_normal(8))
        with pytest.raises(InvalidParameterError, match="NaN"):
            gs.ideal_lowpass_lambda(spec, np.nan)


class TestRingEquivalences:
    """Ring graphs with DFT bases reduce graph sampling to classical sampling."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_and_m=st.integers(4, 64).flatmap(lambda n: st.tuples(
            st.just(n), st.sampled_from([m for m in range(2, n + 1) if n % m == 0]))),
        seed=st.integers(0, 2**16),
    )
    @example(n_and_m=(8, 2), seed=0)
    @example(n_and_m=(8, 4), seed=0)
    @example(n_and_m=(16, 2), seed=0)
    @example(n_and_m=(16, 4), seed=0)
    @example(n_and_m=(32, 2), seed=0)
    @example(n_and_m=(32, 4), seed=0)
    @example(n_and_m=(64, 4), seed=0)
    def test_index_operators_match_classical_sampling(self, n_and_m, seed):
        # down from n to n / m vertices and up from n / m back to n, for any signal
        n, m = n_and_m
        corr = gs.VertexCorrespondence(np.arange(0, n, m))
        down = gs.SamplingContext(*gs.ring_sampling_bases(n, n // m))
        up = gs.SamplingContext(*gs.ring_sampling_bases(n // m, n))
        rng = np.random.default_rng(seed)
        for _ in range(3):
            f, g = rng.standard_normal(n), rng.standard_normal(n // m)
            spec_down = gs.spectral_downsample_index(down, f, m, folded=False)
            assert np.abs(spec_down - gs.downsample_time(f, m)).max() < 1e-9
            assert np.abs(spec_down - gs.vertex_downsample(f, corr)).max() < 1e-9
            spec_up = gs.spectral_upsample_index(up, g, m, folded=False)
            assert np.abs(spec_up - gs.upsample_time(g, m)).max() < 1e-9
            assert np.abs(spec_up - gs.vertex_upsample(g, corr, n)).max() < 1e-9

    def test_spectrum_family_refuses_dft_order(self):
        # the ring grids keep DFT column order, which is no frequency axis
        down = gs.SamplingContext(*gs.ring_sampling_bases(8, 4))
        up = gs.SamplingContext(*gs.ring_sampling_bases(8, 16))
        for name in ("spectrum", "spectrum-folded"):
            for op, direction, ctx in ((name, "down", down), (f"frac-{name}", "frac", down),
                                       (name, "up", up)):
                with pytest.raises(InvalidParameterError, match="ascending order"):
                    gs.apply_operator(op, direction, ctx, np.ones(8), 2)

    def test_bandlimited_perfect_recovery(self):
        # bandlimited signal survives down-up-filter exactly
        n, m = 100, 2
        b0 = basis_of(gs.build_path(n))
        b1 = basis_of(gs.build_path(n // m))
        down_ctx = gs.SamplingContext(b0, b1)
        up_ctx = gs.SamplingContext(b1, b0)
        f = bandlimited(b0, n // m, seed=5)
        f_d = gs.spectral_downsample_index(down_ctx, f, m, folded=False)
        f_u = gs.spectral_upsample_index(up_ctx, f_d, m, folded=False)
        rec = gs.igft(b0, gs.ideal_lowpass_index(gs.gft(b0, f_u), n // m - 1))
        assert np.linalg.norm(rec - f) / np.linalg.norm(f) < 1e-8


class TestSupportLaw:
    @pytest.mark.parametrize("seed", range(5))
    def test_gd2_identity_below_cutoff(self, seed):
        n, m = 24, 3
        ctx = path_context(n, n // m)
        rng = np.random.default_rng(seed)
        coeffs = np.zeros(n)
        support = rng.choice(n // m, size=4, replace=False)
        coeffs[support] = rng.standard_normal(4)
        f = ctx.u0 @ coeffs
        out_coeffs = ctx.u1.T @ gs.spectral_downsample_index(ctx, f, m, folded=False)
        assert np.abs(out_coeffs - coeffs[: n // m]).max() < 1e-10


class TestFractional:
    def test_integer_ratio_matches_spectrum_ops(self):
        ctx = path_context(40, 20)
        f = np.random.default_rng(8).standard_normal(40)
        for folded in (False, True):
            frac = gs.fractional_downsample(ctx, f, mode="spectrum", folded=folded)
            full = gs.spectral_downsample_spectrum(ctx, f, 2, folded=folded)
            assert np.abs(frac - full).max() < 1e-10

    def test_integer_ratio_matches_index_ops(self):
        ctx = path_context(40, 20)
        f = np.random.default_rng(8).standard_normal(40)
        for folded in (False, True):
            frac = gs.fractional_downsample(ctx, f, mode="index", folded=folded)
            full = gs.spectral_downsample_index(ctx, f, 2, folded=folded)
            assert np.abs(frac - full).max() < 1e-10

    def test_rejects_upsampling_sizes(self):
        ctx = path_context(10, 20)
        with pytest.raises(InvalidParameterError):
            gs.fractional_downsample(ctx, np.ones(10))

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_community_structure_preserved(self, seed):
        # a smooth signal stays piecewise-near-constant per community
        # after fractional downsampling onto a smaller community graph
        g0 = gs.build_community(256, 8, seed=3)
        g1 = gs.build_community(192, 8, seed=4)
        ctx = gs.SamplingContext(basis_of(g0), basis_of(g1))
        f = bandlimited(ctx_basis0(ctx), 8, seed=seed)
        out = gs.fractional_downsample(ctx, f, mode="spectrum", folded=True)
        labels1 = np.arange(192) * 8 // 192
        within = sum(
            ((out[labels1 == c] - out[labels1 == c].mean()) ** 2).sum()
            for c in range(8)
        )
        total = ((out - out.mean()) ** 2).sum()
        assert within / total < 0.25

    @pytest.mark.parametrize("seed", range(4))
    def test_comet_profile_correlation(self, seed):
        g0 = gs.build_comet(32, 12)
        g1 = gs.build_comet(24, 9)
        b0, b1 = basis_of(g0), basis_of(g1)
        ctx = gs.SamplingContext(b0, b1)
        f = bandlimited(b0, 6, seed=seed)
        out = gs.fractional_downsample(ctx, f, mode="spectrum", folded=True)
        s0 = np.sort(f)
        s1 = np.sort(out)
        # compare sorted value profiles on a common quantile axis
        q1 = np.linspace(0, 1, len(s1))
        q0 = np.linspace(0, 1, len(s0))
        resampled = np.interp(q1, q0, s0)
        corr = np.dot(resampled, s1) / (np.linalg.norm(resampled) * np.linalg.norm(s1))
        assert corr > 0.9


# The direct call each (direction, name) of the operator table must make.
DIRECT_CALLS = {
    ("down", "vertex"): lambda ctx, f, corr: gs.vertex_downsample(f, corr),
    ("down", "index"): lambda ctx, f, corr: gs.spectral_downsample_index(ctx, f, 2, False),
    ("down", "index-folded"): lambda ctx, f, corr: gs.spectral_downsample_index(ctx, f, 2),
    ("down", "spectrum"): lambda ctx, f, corr: gs.spectral_downsample_spectrum(ctx, f, 2, False),
    ("down", "spectrum-folded"): lambda ctx, f, corr: gs.spectral_downsample_spectrum(ctx, f, 2),
    ("up", "vertex"): lambda ctx, f, corr: gs.vertex_upsample(f, corr, 16),
    ("up", "index"): lambda ctx, f, corr: gs.spectral_upsample_index(ctx, f, 2, False),
    ("up", "index-folded"): lambda ctx, f, corr: gs.spectral_upsample_index(ctx, f, 2),
    ("up", "spectrum"): lambda ctx, f, corr: gs.spectral_upsample_spectrum(ctx, f, 2, False),
    ("up", "spectrum-folded"): lambda ctx, f, corr: gs.spectral_upsample_spectrum(ctx, f, 2),
    ("frac", "frac-index"): lambda ctx, f, corr: gs.fractional_downsample(ctx, f, "index", False),
    ("frac", "frac-index-folded"): lambda ctx, f, corr: gs.fractional_downsample(ctx, f, "index"),
    ("frac", "frac-spectrum"): lambda ctx, f, corr: gs.fractional_downsample(ctx, f, folded=False),
    ("frac", "frac-spectrum-folded"): lambda ctx, f, corr: gs.fractional_downsample(ctx, f),
}


class TestApplyOperator:
    def test_table_lists_every_operator(self):
        table = [(d, name) for d, names in gs.OPERATORS.items() for name in names]
        assert sorted(table) == sorted(DIRECT_CALLS)

    @pytest.mark.parametrize("direction, name", sorted(DIRECT_CALLS))
    def test_name_runs_its_operator(self, direction, name):
        n0, n1 = {"down": (16, 8), "up": (8, 16), "frac": (16, 12)}[direction]
        ctx = path_context(n0, n1)
        corr = gs.VertexCorrespondence(np.arange(0, 16, 2))
        f = np.random.default_rng(5).standard_normal(n0)
        got = gs.apply_operator(name, direction, ctx, f, 2, corr)
        assert np.array_equal(got, DIRECT_CALLS[direction, name](ctx, f, corr))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("direction, name", sorted(DIRECT_CALLS))
    def test_non_finite_signal_rejected(self, direction, name, value):
        n0, n1 = {"down": (16, 8), "up": (8, 16), "frac": (16, 12)}[direction]
        corr = gs.VertexCorrespondence(np.arange(0, 16, 2))
        f = np.ones(n0)
        f[3] = value
        with pytest.raises(DataError, match="signal entries must be finite"):
            gs.apply_operator(name, direction, path_context(n0, n1), f, 2, corr)

    @pytest.mark.parametrize(
        "direction, name",
        [
            ("down", "frac-index"),
            ("up", "frac-spectrum-folded"),
            ("frac", "vertex"),
            ("frac", "spectrum"),
            ("down", "index-folded-folded"),
            ("sideways", "index"),
        ],
    )
    def test_name_outside_direction_rejected(self, direction, name):
        with pytest.raises(InvalidParameterError, match="operator"):
            gs.apply_operator(name, direction, path_context(16, 8), np.ones(16), 2)


class TestContextGrids:
    """A grid's length and finiteness are checked where a SpectralBasis is built,
    its order where the spectrum family reads it."""

    @pytest.fixture
    def bases(self):
        return basis_of(gs.build_path(40)), basis_of(gs.build_path(20))

    def test_non_basis_rejected(self, bases):
        b0, _ = bases
        for pair in ((b0, np.ones((3, 3))), (np.eye(3), b0), (b0.eigenvectors, b0.eigenvectors)):
            with pytest.raises(InvalidParameterError, match="two SpectralBasis objects"):
                gs.SamplingContext(*pair)

    def test_short_grid_rejected(self, bases):
        _, b1 = bases
        with pytest.raises(InvalidParameterError, match=r"\(n, n\) array"):
            gs.SpectralBasis(b1.eigenvalues[:10], b1.eigenvectors)

    def test_non_finite_grid_rejected(self, bases):
        _, b1 = bases
        for lam1 in (np.full(20, np.nan), np.append(b1.eigenvalues[:-1], np.inf)):
            with pytest.raises(DataError, match="eigenvalue entries must be finite"):
                gs.SpectralBasis(lam1, b1.eigenvectors)

    def test_grid_sorted(self, bases):
        # sorting a grid would part each eigenvalue from its column; only the
        # spectrum family reads the grids, and it refuses one out of order
        b0, b1 = bases
        f = np.random.default_rng(0).standard_normal(40)
        for lam0, lam1 in ((b0.eigenvalues[::-1], b1.eigenvalues),
                           (b0.eigenvalues, b1.eigenvalues[::-1])):
            ctx = gs.SamplingContext(
                gs.SpectralBasis(lam0, b0.eigenvectors), gs.SpectralBasis(lam1, b1.eigenvectors)
            )
            for name in ("spectrum", "spectrum-folded"):
                with pytest.raises(InvalidParameterError, match="ascending order"):
                    gs.apply_operator(name, "down", ctx, f, 2)
            with pytest.raises(InvalidParameterError, match="ascending order"):
                gs.fractional_downsample(ctx, f)
            gs.apply_operator("index", "down", ctx, f, 2)  # reads no grid
        ctx = gs.SamplingContext(b0, gs.SpectralBasis(list(b1.eigenvalues), b1.eigenvectors))
        assert np.array_equal(ctx.lambdas0, b0.eigenvalues)
        assert np.array_equal(ctx.lambdas1, b1.eigenvalues)


def coefficient_map(ctx, family, folded, up):
    """The operator's map S as a dense array, built the way the context builds it."""
    return sampling._coefficient_map(ctx, family, folded, up).toarray()


class TestCoefficientMaps:
    @pytest.mark.parametrize("rate", [2, 3])
    def test_index_maps_are_the_paper_folds(self, rate):
        i, j = np.eye(6), np.eye(6)[:, ::-1]
        blocks = {False: [i] * rate, True: [i, j, i][:rate]}
        for folded in (False, True):
            s_d = np.hstack(blocks[folded])
            down = coefficient_map(path_context(6 * rate, 6), "index", folded, False)
            up = coefficient_map(path_context(6, 6 * rate), "index", folded, True)
            assert np.array_equal(down, s_d)
            assert np.array_equal(up, s_d.T)

    def test_fractional_index_map_drops_columns_past_n0(self):
        # ratio 14 / 6: segments [0, 6), [6, 12) reflected, [12, 14) cut short
        s = coefficient_map(path_context(14, 6), "index", True, False)
        want = np.hstack([np.eye(6), np.eye(6)[:, ::-1], np.eye(6)[:, :2]])
        assert np.array_equal(s, want)

    @pytest.mark.parametrize("n0, n1", [(10, 20), (12, 36), (7, 14)])
    def test_spectrum_up_rows_sum_to_one(self, n0, n1):
        for folded in (False, True):
            s = coefficient_map(path_context(n0, n1), "spectrum", folded, True)
            assert np.abs(s.sum(axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("n0, n1", [(20, 10), (36, 12), (30, 16), (17, 7)])
    def test_spectrum_down_rows_count_in_range_segments(self, n0, n1):
        ctx = path_context(n0, n1)
        ratio, lam1 = n0 / n1, ctx.lambdas1
        for folded in (False, True):
            count = np.zeros(n1)
            for p in range(math.ceil(ratio)):
                q = (p + 1) * lam1[-1] - lam1 if folded and p % 2 else p * lam1[-1] + lam1
                count += ctx.rho / ratio * q <= ctx.lambdas0[-1] * (1 + 1e-12) + 1e-12
            s = coefficient_map(ctx, "spectrum", folded, False)
            assert np.abs(s.sum(axis=1) - count).max() < 1e-12

    def test_map_built_once_per_context(self, monkeypatch):
        built = []
        build = sampling._coefficient_map

        def counting(ctx, *key):
            built.append(key)
            return build(ctx, *key)

        monkeypatch.setattr(sampling, "_coefficient_map", counting)
        ctx = path_context(16, 8)
        f = np.random.default_rng(0).standard_normal(16)
        for _ in range(3):
            gs.spectral_downsample_index(ctx, f, 2)
            gs.fractional_downsample(ctx, f, mode="index")
            gs.spectral_downsample_spectrum(ctx, f, 2, folded=False)
        assert built == [("index", True, False), ("spectrum", False, False)]


# ---------------------------------------------------------------------------
# the sparse maps against the segment loops and concatenations they replace


def reference_interpolant(grid, values, queries):
    xs, ys = spectral.collapse_duplicate_nodes(grid, values)
    return np.interp(np.clip(queries, xs[0], xs[-1]), xs, ys)


def reference_operator(ctx, f, family, folded, up):
    coeffs = ctx.u0.conj().T @ f
    copies = ctx.n1 // ctx.n0
    if family == "index" and up:
        return ctx.u1 @ np.concatenate(
            [coeffs if p % 2 == 0 or not folded else coeffs[::-1] for p in range(copies)]
        )
    ratio = ctx.n0 / ctx.n1
    if family == "index":
        total = np.zeros(ctx.n1, dtype=coeffs.dtype)
        k = np.arange(ctx.n1)
        for p in range(math.ceil(ratio)):
            idx = (p + 1) * ctx.n1 - k - 1 if folded and p % 2 else p * ctx.n1 + k
            valid = idx < ctx.n0
            total[valid] += coeffs[idx[valid]]
        return ctx.u1 @ total
    base, lam0, lam1 = coeffs.real, ctx.lambdas0, ctx.lambdas1
    if up:
        xs = np.concatenate([lam0 + p * float(lam0[-1]) for p in range(copies)])
        ys = np.concatenate(
            [base if p % 2 == 0 or not folded else base[::-1] for p in range(copies)]
        )
        return ctx.u1 @ reference_interpolant(xs, ys, ctx.rho * copies * lam1)
    lam_max = float(lam1[-1])
    total = np.zeros(ctx.n1)
    for p in range(math.ceil(ratio)):
        q = (p + 1) * lam_max - lam1 if folded and p % 2 else p * lam_max + lam1
        queries = ctx.rho / ratio * q
        in_range = queries <= float(lam0[-1]) * (1.0 + 1e-12) + 1e-12
        total[in_range] += reference_interpolant(lam0, base, queries[in_range])
    return ctx.u1 @ total


def graph_basis(kind, rows, cols):
    """The SpectralBasis of a rows x cols grid, or of an n = rows * cols path,
    ring (complex DFT basis) or complete graph."""
    n = rows * cols
    if kind == "ring":  # DFT columns, reordered to ascending eigenvalues
        lambdas = 2.0 - 2.0 * np.cos(2 * np.pi * np.arange(n) / n)
        order = np.argsort(lambdas, kind="stable")
        return gs.SpectralBasis(lambdas[order], gs.dft_matrix(n)[:, order])
    graph = {
        "path": lambda: gs.build_path(n),
        "grid": lambda: gs.build_grid(rows, cols),
        "complete": lambda: gs.build_complete(n),
    }[kind]()
    return basis_of(graph)


class TestMapsMatchReferenceLoops:
    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["path", "ring", "grid", "complete"]),
        direction=st.sampled_from(["down", "up", "frac"]),
        rows=st.integers(1, 3),
        cols=st.integers(2, 7),
        rate=st.integers(2, 3),
        extra=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_operators(self, kind, direction, rows, cols, rate, extra, seed):
        rows = rows if kind == "grid" else 1
        small = graph_basis(kind, rows, cols)
        # integer ratios: rate * cols columns; fractional: cols + extra columns
        big = graph_basis(kind, rows, cols + extra if direction == "frac" else rate * cols)
        ctx = gs.SamplingContext(*((small, big) if direction == "up" else (big, small)))
        f = np.random.default_rng(seed).standard_normal(ctx.n0)
        for family in ("index", "spectrum"):
            for folded in (False, True):
                if direction == "frac":
                    got = gs.fractional_downsample(ctx, f, mode=family, folded=folded)
                else:
                    name = f"{family}-folded" if folded else family
                    got = gs.apply_operator(name, direction, ctx, f, rate)
                want = reference_operator(ctx, f, family, folded, direction == "up")
                if family == "index":
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                else:
                    # a small output is a sum of coefficients of the signal's size
                    scale = max(np.abs(want).max(), np.linalg.norm(f))
                    assert np.abs(got - want).max() <= 1e-14 * scale


def ctx_basis0(ctx):
    from gssamp.spectral import SpectralBasis

    return SpectralBasis(eigenvalues=ctx.lambdas0, eigenvectors=ctx.u0)


# ---------------------------------------------------------------------------
# one analysis u0^H f per basis and signal, shared by every operator and gft


def bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def unmemoized_filter(b, f, spec):
    """``filter_signal`` without a Laplacian, from a fresh u^T f."""
    u, lam = b.eigenvectors, b.eigenvalues
    if spec.mode == "exact":
        response = spec.response(lam)
    else:
        c = gs.pyramid.chebyshev_coefficients(spec.response, b.lambda_max, spec.order)
        response = np.polynomial.chebyshev.chebval(lam / (b.lambda_max / 2.0) - 1.0, c)
    return u @ (response * (u.T @ f))


def unmemoized_operator(ctx, f, family, folded, up):
    """A spectral operator from a fresh u0^H f and a freshly built map."""
    coeffs = ctx.u0.conj().T @ f
    s = sampling._coefficient_map(ctx, family, folded, up)
    return ctx.u1 @ (s @ (coeffs.real if family == "spectrum" else coeffs))


class TestSharedAnalysis:
    @staticmethod
    def operators(b0, b1):
        """(name, input side, call, unmemoized call) of gft, both filter modes
        and every spectral operator over b0 (n0 = 2 n1) and b1."""
        down, up = gs.SamplingContext(b0, b1), gs.SamplingContext(b1, b0)
        ops = []
        for side, b in enumerate((b0, b1)):
            ops.append(("gft", side, lambda f, b=b: gs.gft(b, f).coefficients,
                        lambda f, b=b: b.eigenvectors.T @ f))
            for spec in (gs.FilterSpec(), gs.FilterSpec(mode="chebyshev")):
                ops.append((f"filter-{spec.mode}", side,
                            lambda f, b=b, spec=spec: gs.filter_signal(b, f, spec),
                            lambda f, b=b, spec=spec: unmemoized_filter(b, f, spec)))
        for family in ("index", "spectrum"):
            for folded in (False, True):
                name = f"{family}-folded" if folded else family
                for ctx, direction in ((down, "down"), (up, "up"), (down, "frac")):
                    ops.append((
                        f"{direction}-{name}", int(direction == "up"),
                        lambda f, ctx=ctx, name=name, direction=direction: gs.apply_operator(
                            name if direction != "frac" else f"frac-{name}", direction, ctx, f, 2),
                        lambda f, ctx=ctx, key=(family, folded, direction == "up"):
                            unmemoized_operator(ctx, f, *key),
                    ))
        return ops

    @staticmethod
    def signal_pool(n, seed):
        """Signals of length n: two random ones, the first with the same values
        as complex and with the same bytes as int64, and a pair differing only
        in the sign of a zero entry."""
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        a[0] = 0.0
        negative_zero = a.copy()
        negative_zero[0] = -0.0
        return [a, b, a.astype(complex), a.view(np.int64), negative_zero]

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["path", "ring", "complete"]),
        n1=st.integers(3, 10),
        seed=st.integers(0, 2**16),
        steps=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 4), st.booleans(), st.floats(-4, 4)),
            min_size=1, max_size=40,
        ),
    )
    def test_interleaved_calls_match_unmemoized(self, kind, n1, seed, steps):
        build = {"path": gs.build_path, "ring": gs.build_ring, "complete": gs.build_complete}[kind]
        b0, b1 = basis_of(build(2 * n1)), basis_of(build(n1))
        ops = self.operators(b0, b1)
        pools = (self.signal_pool(2 * n1, seed), self.signal_pool(n1, seed + 1))
        for pick, which, edit, value in steps:
            name, side, call, reference = ops[pick % len(ops)]
            f = pools[side][which]
            if edit:
                # in place, through the float signal: its int64 view changes too
                pools[side][which if f.dtype == float else 0][pick % f.size] = value
            assert bits(call(f)) == bits(reference(f)), name

    def test_one_product_per_basis_and_signal(self):
        # the call sequence of one perfbench ``resample`` job, on small graphs
        lap0 = gs.laplacian(gs.build_random_sensor(64, seed=11))
        b0 = gs.eigendecompose(lap0)
        reduced = gs.kron_reduce(lap0, gs.select_polarity(b0, 32))
        b1 = basis_of(reduced.graph)
        b2 = basis_of(gs.build_random_sensor(48, seed=12))
        products = count_analysis_products(b0, b1, b2)
        down, up = gs.SamplingContext(b0, b1), gs.SamplingContext(b1, b0)
        frac = gs.SamplingContext(b0, b2)
        rng = np.random.default_rng(0)
        for job in range(1, 3):
            f = rng.standard_normal(64)
            gs.igft(b0, gs.gft(b0, f))
            gs.vertex_downsample(f, reduced.correspondence)
            for folded in (False, True):
                gs.spectral_downsample_index(down, f, 2, folded=folded)
                gs.spectral_downsample_spectrum(down, f, 2, folded=folded)
            g = gs.spectral_downsample_index(down, f, 2)
            gs.vertex_upsample(g, reduced.correspondence, 64)
            for folded in (False, True):
                gs.spectral_upsample_index(up, g, 2, folded=folded)
                gs.spectral_upsample_spectrum(up, g, 2, folded=folded)
                for mode in ("index", "spectrum"):
                    gs.fractional_downsample(frac, f, mode=mode, folded=folded)
            gs.filter_signal(b0, f, gs.FilterSpec())
            gs.filter_signal(b0, f, gs.FilterSpec(mode="chebyshev"), lap0)
            assert products == {id(b0): job, id(b1): job}

    def test_raw_matrices_are_copied(self):
        b0, b1 = basis_of(gs.build_path(16)), basis_of(gs.build_path(8))
        u0, u1 = np.array(b0.eigenvectors), np.array(b1.eigenvectors)
        lam0, lam1 = np.array(b0.eigenvalues), np.array(b1.eigenvalues)
        ctx = gs.SamplingContext(gs.SpectralBasis(lam0, u0), gs.SpectralBasis(lam1, u1))
        # edited in place before any operator builds a map or an analysis
        u0[:] = np.random.default_rng(1).standard_normal(u0.shape)
        u1[:] = 0.0
        lam0[:] = lam0[::-1]
        lam1[:] = np.nan
        assert all(a.flags.writeable for a in (u0, u1, lam0, lam1))
        want = gs.SamplingContext(b0, b1)
        f = np.random.default_rng(0).standard_normal(16)
        for g in (f, f[::-1].copy()):
            for name in ("index", "index-folded", "spectrum", "spectrum-folded"):
                got = gs.apply_operator(name, "down", ctx, g, 2)
                assert bits(got) == bits(gs.apply_operator(name, "down", want, g, 2))


class _Counted(np.ndarray):
    """An eigenvector matrix that counts its transposed products u^T x."""

    def __array_finalize__(self, obj):
        self.products, self.key = getattr(obj, "products", None), getattr(obj, "key", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        first = inputs[0]
        if ufunc is np.matmul and isinstance(first, _Counted) and not first.flags.c_contiguous:
            first.products[first.key] += 1
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


def count_analysis_products(*bases):
    """Make each basis's eigenvectors count their analysis products, per basis id.

    Call before building contexts from the bases: a context keeps the
    eigenvector matrix it was built with.
    """
    products = collections.Counter()  # missing keys compare as 0
    for b in bases:
        u = b.eigenvectors.view(_Counted)
        u.products, u.key = products, id(b)
        object.__setattr__(b, "eigenvectors", u)
        b._analysis.u = u
    return products
