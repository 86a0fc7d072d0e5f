import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import gssamp as gs
from gssamp import cli, graphs, pyramid, reduction, spectral
from gssamp.errors import DataError, GssampError, InvalidParameterError
from gssamp.pyramid import chebyshev_apply, chebyshev_coefficients


def dense_laplacian(graph):
    """D - A from the adjacency alone, independent of ``Laplacian``."""
    a = graph.adjacency.toarray()
    return np.diag(a.sum(axis=1)) - a


def basis_of(graph):
    return gs.eigendecompose(gs.laplacian(graph))


def chain_of(graph, num_levels):
    lap = gs.laplacian(graph)
    return gs.build_chain(lap, gs.eigendecompose(lap), num_levels)


def smooth_signal(basis, cutoff, seed=0):
    coeffs = np.zeros(basis.n)
    coeffs[:cutoff] = np.random.default_rng(seed).standard_normal(cutoff)
    return gs.igft(basis, coeffs)


class TestFilters:
    def test_exact_identity_response(self):
        g = gs.build_random_sensor(32, seed=0)
        b = basis_of(g)
        f = np.random.default_rng(1).standard_normal(32)
        spec = gs.FilterSpec(response=lambda lam: np.ones_like(lam), mode="exact")
        assert np.abs(gs.filter_signal(b, f, spec) - f).max() < 1e-12

    def test_chebyshev_identity_response(self):
        g = gs.build_random_sensor(32, seed=0)
        lap = gs.laplacian(g)
        b = gs.eigendecompose(lap)
        f = np.random.default_rng(1).standard_normal(32)
        spec = gs.FilterSpec(
            response=lambda lam: np.ones_like(lam), mode="chebyshev", order=30
        )
        assert np.abs(gs.filter_signal(b, f, spec, lap=lap) - f).max() < 1e-6

    @pytest.mark.parametrize("mode", ["exact", "chebyshev"])
    def test_non_finite_signal_rejected(self, mode):
        lap = gs.laplacian(gs.build_path(8))
        f = np.ones(8)
        f[5] = np.nan
        with pytest.raises(DataError, match="signal entries must be finite"):
            gs.filter_signal(gs.eigendecompose(lap), f, gs.FilterSpec(mode=mode), lap=lap)

    @pytest.mark.parametrize("mode", ["exact", "chebyshev"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_response_rejected(self, mode, value):
        # a NaN response once filtered every signal to all NaN
        lap = gs.laplacian(gs.build_path(8))
        spec = gs.FilterSpec(response=lambda lam: np.where(lam > 1.0, value, 1.0), mode=mode)
        with pytest.raises(DataError, match="filter response must be finite"):
            gs.filter_signal(gs.eigendecompose(lap), np.ones(8), spec, lap=lap)

    def test_exact_scalar_response(self):
        b = basis_of(gs.build_path(8))
        f = np.arange(8.0)
        spec = gs.FilterSpec(response=lambda lam: 0.5, mode="exact")
        assert np.abs(gs.filter_signal(b, f, spec) - 0.5 * f).max() < 1e-12

    def test_eigenvector_scaled_by_response(self):
        g = gs.build_path(16)
        b = basis_of(g)
        spec = gs.FilterSpec()
        for k in (0, 5, 12):
            u_k = b.eigenvectors[:, k]
            out = gs.filter_signal(b, u_k, spec)
            h = gs.halving_lowpass(np.array([b.eigenvalues[k]]))[0]
            assert np.abs(out - h * u_k).max() < 1e-12

    def test_chebyshev_close_to_exact(self):
        g = gs.build_random_sensor(64, seed=5)
        lap = gs.laplacian(g)
        b = gs.eigendecompose(lap)
        f = np.random.default_rng(2).standard_normal(64)
        exact = gs.filter_signal(b, f, gs.FilterSpec(mode="exact"))
        cheb = gs.filter_signal(b, f, gs.FilterSpec(mode="chebyshev", order=30), lap=lap)
        assert np.linalg.norm(cheb - exact) / np.linalg.norm(exact) <= 1e-2

    def test_chebyshev_error_decreases_with_order(self):
        g = gs.build_random_sensor(64, seed=5)
        lap = gs.laplacian(g)
        b = gs.eigendecompose(lap)
        f = np.random.default_rng(2).standard_normal(64)
        exact = gs.filter_signal(b, f, gs.FilterSpec(mode="exact"))
        errs = []
        for order in (5, 10, 20, 30, 50):
            cheb = gs.filter_signal(
                b, f, gs.FilterSpec(mode="chebyshev", order=order), lap=lap
            )
            errs.append(np.linalg.norm(cheb - exact))
        # monotone up to 10% jitter between consecutive orders
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= hi * 1.10

    def test_chebyshev_apply_matches_polynomial(self):
        # applying the expansion of an exact low-order polynomial reproduces it
        g = gs.build_path(12)
        lap = gs.laplacian(g)
        b = gs.eigendecompose(lap)
        poly = lambda lam: 1.0 + 0.5 * lam - 0.25 * lam**2
        coeffs = chebyshev_coefficients(poly, b.lambda_max, order=8)
        f = np.random.default_rng(3).standard_normal(12)
        got = chebyshev_apply(dense_laplacian(g), f, coeffs, b.lambda_max)
        expected = gs.igft(b, poly(b.eigenvalues) * gs.gft(b, f).coefficients)
        assert np.abs(got - expected).max() < 1e-9

    def test_invalid_mode_rejected(self):
        with pytest.raises(InvalidParameterError):
            gs.FilterSpec(mode="butterworth")


def cosine_sum_coefficients(response, lam_max, order, grid_size=2048, reduce_angle=False):
    """The cosine sum ``chebyshev_coefficients`` evaluated before it used the FFT.

    k theta_j carries k rounding errors of theta_j, about 1e-14 at k = 50
    on a small grid; ``reduce_angle`` forms it exactly as
    pi (k (2j + 1) mod 4N) / 2N instead.
    """
    j = np.arange(grid_size)
    theta = np.pi * (j + 0.5) / grid_size
    h = np.asarray(response(0.5 * lam_max * (np.cos(theta) + 1.0)), dtype=float)
    k = np.arange(order + 1)
    if reduce_angle:
        angle = np.pi * (np.outer(k, 2 * j + 1) % (4 * grid_size)) / (2 * grid_size)
    else:
        angle = np.outer(k, theta)
    c = (2.0 / grid_size) * (np.cos(angle) @ h)
    c[0] *= 0.5
    return c


RESPONSES = {"halving": gs.halving_lowpass, "cosine": np.cos}


class TestChebyshevCoefficients:
    @pytest.mark.parametrize("response", list(RESPONSES))
    @pytest.mark.parametrize("lam_max", [0.5, 12.0])
    @pytest.mark.parametrize("order", [1, 8, 30, 50])
    @pytest.mark.parametrize("grid_size", [1, 7, 16, 2048])
    def test_dct_matches_cosine_sum(self, response, lam_max, order, grid_size):
        # grid sizes on both sides of order + 1: past bin N the DCT reads
        # the conjugate bin 2N - k, and past 2N it wraps
        got = chebyshev_coefficients(RESPONSES[response], lam_max, order, grid_size)
        want = cosine_sum_coefficients(
            RESPONSES[response], lam_max, order, grid_size, reduce_angle=True
        )
        assert got.shape == (order + 1,)
        assert np.abs(got - want).max() <= 1e-15

    @pytest.mark.parametrize("order", [1, 8, 30, 50])
    def test_default_grid_matches_unreduced_cosine_sum(self, order):
        for lam_max in (0.5, 3.7, 12.0):
            got = chebyshev_coefficients(gs.halving_lowpass, lam_max, order)
            want = cosine_sum_coefficients(gs.halving_lowpass, lam_max, order)
            assert np.abs(got - want).max() <= 1e-15


SPARSE_GRAPHS = {
    "sensor": lambda: gs.build_random_sensor(96, seed=3),
    "grid": lambda: gs.build_grid(8, 12),
    "complete": lambda: gs.build_complete(40),
}


class TestSparseChebyshev:
    @pytest.mark.parametrize("name", list(SPARSE_GRAPHS))
    def test_csr_recurrence_matches_dense(self, name):
        lap = gs.laplacian(SPARSE_GRAPHS[name]())
        b = gs.eigendecompose(lap)
        f = np.random.default_rng(5).standard_normal(lap.n)
        coeffs = chebyshev_coefficients(gs.halving_lowpass, b.lambda_max, 30)
        dense = chebyshev_apply(dense_laplacian(lap.graph), f, coeffs, b.lambda_max)
        sparse = chebyshev_apply(lap.sparse, f, coeffs, b.lambda_max)
        assert isinstance(sparse, np.ndarray) and sparse.shape == f.shape
        assert np.linalg.norm(sparse - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_filter_signal_runs_on_the_cached_csr(self, monkeypatch):
        lap = gs.laplacian(gs.build_random_sensor(64, seed=5))
        b = gs.eigendecompose(lap)
        seen = []
        original = pyramid.chebyshev_apply

        def spy(matrix, *args):
            seen.append(matrix)
            return original(matrix, *args)

        monkeypatch.setattr(pyramid, "chebyshev_apply", spy)
        gs.filter_signal(b, np.ones(64), gs.FilterSpec(mode="chebyshev"), lap)
        assert len(seen) == 1 and seen[0] is lap.sparse

    @pytest.mark.parametrize("order", [1, 10, 30])
    def test_without_laplacian_matches_recurrence(self, order):
        # lap=None evaluates the polynomial on the eigenvalues instead
        lap = gs.laplacian(gs.build_random_sensor(128, seed=9))
        b = gs.eigendecompose(lap)
        f = np.random.default_rng(6).standard_normal(128)
        spec = gs.FilterSpec(mode="chebyshev", order=order)
        with_lap = gs.filter_signal(b, f, spec, lap=lap)
        without = gs.filter_signal(b, f, spec)
        assert np.linalg.norm(without - with_lap) <= 1e-12 * np.linalg.norm(with_lap)


def test_import_does_not_load_scipy_fft():
    # scipy.fft costs about 10 ms of import; numpy.fft is already loaded
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import gssamp; "
        "print('scipy.fft' in sys.modules, 'numpy.fft' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["False", "True"]


CONFIGS = {
    "vertex": gs.PyramidConfig(sampling="vertex"),
    "index": gs.PyramidConfig(sampling="index"),
    "spectrum": gs.PyramidConfig(sampling="spectrum"),
}


class TestPerfectReconstruction:
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_sensor_graph(self, name):
        g = gs.build_random_sensor(64, seed=7)
        f = np.random.default_rng(11).standard_normal(64)
        dec = gs.analyze(f, g, num_levels=3, config=CONFIGS[name])
        rec = gs.synthesize(dec)
        assert np.linalg.norm(rec - f) / np.linalg.norm(f) < 1e-9

    def test_path_polarity(self):
        g = gs.build_path(32)
        f = np.random.default_rng(4).standard_normal(32)
        config = gs.PyramidConfig(sampling="index")
        rec = gs.synthesize(gs.decompose(f, chain_of(g, 2), config))
        assert np.linalg.norm(rec - f) / np.linalg.norm(f) < 1e-9

    def test_chebyshev_filters_still_reconstruct(self):
        # PR holds for any filters because details store prediction errors
        g = gs.build_random_sensor(64, seed=7)
        f = np.random.default_rng(11).standard_normal(64)
        config = gs.PyramidConfig(
            sampling="index",
            analysis_filter=gs.FilterSpec(mode="chebyshev", order=10),
        )
        rec = gs.synthesize(gs.analyze(f, g, num_levels=2, config=config))
        assert np.linalg.norm(rec - f) / np.linalg.norm(f) < 1e-9

    @pytest.mark.parametrize("sampling", ["index", "spectrum"])
    def test_unfolded_operators_reconstruct(self, sampling):
        g = gs.build_random_sensor(64, seed=7)
        f = np.random.default_rng(11).standard_normal(64)
        config = gs.PyramidConfig(sampling=sampling, folded=False)
        rec = gs.synthesize(gs.analyze(f, g, num_levels=2, config=config))
        assert np.linalg.norm(rec - f) / np.linalg.norm(f) < 1e-9

    @pytest.mark.parametrize(
        "sampling, folded, name",
        [
            ("vertex", True, "vertex"),
            ("vertex", False, "vertex"),
            ("index", True, "index-folded"),
            ("index", False, "index"),
            ("spectrum", True, "spectrum-folded"),
            ("spectrum", False, "spectrum"),
        ],
    )
    def test_config_names_a_table_operator(self, sampling, folded, name):
        assert gs.PyramidConfig(sampling=sampling, folded=folded).operator == name
        assert name in gs.OPERATORS["down"] and name in gs.OPERATORS["up"]

    def test_level_sizes_halve(self):
        g = gs.build_random_sensor(64, seed=7)
        f = np.zeros(64)
        dec = gs.analyze(f, g, num_levels=3, config=CONFIGS["vertex"])
        assert dec.detail_sizes() == [64, 32, 16]
        assert dec.coarse.shape == (8,)
        with pytest.raises(InvalidParameterError, match="signal length"):
            gs.synthesize(replace(dec, coarse=dec.coarse[:-1]))

    def test_details_must_fit_the_chain(self):
        g = gs.build_random_sensor(64, seed=7)
        dec = gs.analyze(np.ones(64), g, num_levels=3, config=CONFIGS["vertex"])
        with pytest.raises(InvalidParameterError, match="one detail per chain level"):
            replace(dec, details=dec.details[:-1])
        short = (dec.details[0][:-1], *dec.details[1:])
        with pytest.raises(InvalidParameterError, match="detail length"):
            gs.synthesize(replace(dec, details=short))
        nan = (np.full(64, np.nan), *dec.details[1:])
        with pytest.raises(DataError, match="detail entries must be finite"):
            gs.synthesize(replace(dec, details=nan))

    def test_odd_size_rejected_for_spectral_modes(self):
        g = gs.build_random_sensor(63, seed=8)
        f = np.zeros(63)
        with pytest.raises(GssampError):
            gs.analyze(f, g, num_levels=1, config=CONFIGS["index"])


def _rows(n):
    """The largest divisor of n up to sqrt(n)."""
    return max(d for d in range(1, int(n**0.5) + 1) if n % d == 0)


# Small connected graphs of n vertices, one builder per generator.
_SMALL_GRAPHS = {
    "path": lambda n, seed: gs.build_path(n),
    "ring": lambda n, seed: gs.build_ring(n),
    "grid": lambda n, seed: gs.build_grid(n // _rows(n), _rows(n)),
    "comet": lambda n, seed: gs.build_comet(n, 1 + seed % (n - 1)),
    "sensor": lambda n, seed: gs.build_random_sensor(n, k_nearest=4, seed=seed),
    "community": lambda n, seed: gs.build_community(n, 2, p_in=0.5, p_out=0.1, seed=seed),
}


@st.composite
def _pyramid_cases(draw):
    """(graph, levels, config): the spectral families need an even size at every level."""
    sampling = draw(st.sampled_from(["vertex", "index", "spectrum"]))
    levels = draw(st.integers(1, 3))
    step = 1 if sampling == "vertex" else 2**levels  # n // 2**levels >= 2 in both cases
    n = draw(st.sampled_from(range(max(8, 2 ** (levels + 1)) // step * step, 65, step)))
    kind = draw(st.sampled_from(sorted(_SMALL_GRAPHS)))
    graph = _SMALL_GRAPHS[kind](n, draw(st.integers(0, 2**16)))
    spec = draw(st.sampled_from([gs.FilterSpec(), gs.FilterSpec(mode="chebyshev", order=12)]))
    config = gs.PyramidConfig(sampling=sampling, folded=draw(st.booleans()), analysis_filter=spec)
    return graph, levels, config


@settings(max_examples=100, deadline=None)
@given(case=_pyramid_cases(), seed=st.integers(0, 2**16))
def test_synthesis_inverts_decomposition(case, seed):
    # the paper's perfect-reconstruction law, for every family, filter mode and depth
    graph, levels, config = case
    f = np.random.default_rng(seed).standard_normal(graph.n)
    rec = gs.synthesize(gs.decompose(f, chain_of(graph, levels), config))
    assert np.linalg.norm(rec - f) <= 1e-9 * np.linalg.norm(f)


class TestNonlinearApproximation:
    def _dec(self):
        g = gs.build_random_sensor(64, seed=7)
        b = basis_of(g)
        f = smooth_signal(b, 10, seed=9)
        return f, g

    def test_keep_all_is_lossless_single_level(self):
        f, g = self._dec()
        dec = gs.analyze(f, g, num_levels=1, config=CONFIGS["index"])
        rec = gs.synthesize(gs.nonlinear_approximate(dec, sum(dec.detail_sizes())))
        assert np.linalg.norm(rec - f) / np.linalg.norm(f) < 1e-9

    def test_error_decreases_with_kept_terms(self):
        f, g = self._dec()
        config = CONFIGS["index"]
        curve = gs.nla_error_curve(f, chain_of(g, 1), config, fractions=[0.1, 0.3, 0.6, 1.0])
        errs = [err for _, err in curve]
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 1e-9

    def test_deterministic(self):
        f, g = self._dec()
        a = gs.nla_error_curve(f, chain_of(g, 1), CONFIGS["spectrum"], fractions=[0.2, 0.5])
        b = gs.nla_error_curve(f, chain_of(g, 1), CONFIGS["spectrum"], fractions=[0.2, 0.5])
        assert np.array_equal(a, b)

    def test_budget_one_keeps_n_details(self, monkeypatch):
        # a budget over N, the graph size: at 1.0 a 3-level pyramid keeps N
        # of its N + N/2 + N/4 details
        f, g = self._dec()
        approximate, kept = pyramid.nonlinear_approximate, []

        def counting(dec, n_kept):
            trimmed = approximate(dec, n_kept)
            kept.append(sum(np.count_nonzero(d) for d in trimmed.details))
            return trimmed

        monkeypatch.setattr(pyramid, "nonlinear_approximate", counting)
        gs.nla_error_curve(f, chain_of(g, 3), CONFIGS["index"], [1.0])
        assert kept == [g.n]

    def test_zero_signal_refused(self):
        # its normalized error would be 0 / 0
        chain = chain_of(gs.build_random_sensor(32, seed=7), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="nonzero signal"):
                gs.nla_error_curve(np.zeros(32), chain, CONFIGS["index"], [0.5])

    def test_zero_kept_drops_details(self):
        f, g = self._dec()
        dec = gs.analyze(f, g, num_levels=1, config=CONFIGS["index"])
        trimmed = gs.nonlinear_approximate(dec, 0)
        for detail in trimmed.details:
            assert np.count_nonzero(detail) == 0


def reference_nonlinear_approximate(dec, n_kept):
    """Pool, sort and keep detail coefficients one Python tuple at a time."""
    entries = [
        (abs(v), li, idx)
        for li, detail in enumerate(dec.details)
        for idx, v in enumerate(detail)
    ]
    entries.sort(key=lambda t: (-t[0], t[1], t[2]))
    kept = {(li, idx) for _, li, idx in entries[:n_kept]}
    return [
        np.array([v if (li, i) in kept else 0.0 for i, v in enumerate(detail)])
        for li, detail in enumerate(dec.details)
    ]


class TestNonlinearApproximateMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ties_across_levels(self, seed):
        g = gs.build_random_sensor(32, seed=7)
        dec = gs.analyze(np.zeros(32), g, num_levels=3, config=CONFIGS["vertex"])
        # few distinct magnitudes of both signs: ties within and across levels
        rng = np.random.default_rng(seed)
        details = tuple(rng.integers(-3, 4, y.size) / 2.0 for y in dec.details)
        dec = replace(dec, details=details)
        for n_kept in range(sum(dec.detail_sizes()) + 1):
            got = gs.nonlinear_approximate(dec, n_kept)
            want = reference_nonlinear_approximate(dec, n_kept)
            for detail, y in zip(got.details, want, strict=True):
                assert np.array_equal(detail, y)
                assert np.array_equal(np.signbit(detail), np.signbit(y))

    def test_rejects_out_of_range_count(self):
        g = gs.build_random_sensor(32, seed=7)
        dec = gs.analyze(np.ones(32), g, num_levels=1, config=CONFIGS["vertex"])
        with pytest.raises(InvalidParameterError):
            gs.nonlinear_approximate(dec, 33)


class TestSharedChain:
    FRACTIONS = [0.0, 0.05, 0.2, 0.4, 1.0]

    @pytest.mark.parametrize("sampling", ["vertex", "index", "spectrum"])
    def test_shared_chain_curve_equals_per_family_analyze(self, sampling):
        g = gs.build_random_sensor(64, seed=7)
        f = smooth_signal(basis_of(g), 10, seed=9)
        config = gs.PyramidConfig(sampling=sampling)
        got = gs.nla_error_curve(f, chain_of(g, 3), config, self.FRACTIONS)
        dec = gs.analyze(f, g, 3, config)
        want = []
        for frac in self.FRACTIONS:
            rec = gs.synthesize(gs.nonlinear_approximate(dec, round(frac * g.n)))
            want.append((frac, float(np.linalg.norm(f - rec) / np.linalg.norm(f))))
        assert got == want

    def test_levels_reuse_the_previous_reduced_basis(self):
        g = gs.build_random_sensor(64, seed=7)
        chain = chain_of(g, 3)
        assert isinstance(chain, tuple)
        assert all(isinstance(lvl, pyramid.ChainLevel) for lvl in chain)
        assert [lvl.lap.n for lvl in chain] == [64, 32, 16]
        for upper, lower in zip(chain, chain[1:]):
            assert lower.basis.eigenvectors is upper.ctx_up.u0

    def test_signal_passes_reuse_the_chain_correspondences(self, monkeypatch):
        chain = chain_of(gs.build_random_sensor(64, seed=7), 3)
        assert [lvl.correspondence.n_reduced for lvl in chain] == [32, 16, 8]
        built = []
        original = gs.VertexCorrespondence.__post_init__
        monkeypatch.setattr(
            gs.VertexCorrespondence, "__post_init__", lambda self: built.append(original(self))
        )
        curve = gs.nla_error_curve(np.ones(64), chain, CONFIGS["vertex"], [0.0, 0.5, 1.0])
        assert len(curve) == 3 and built == []

    def test_zero_levels_rejected(self):
        g = gs.build_random_sensor(16, seed=7)
        with pytest.raises(InvalidParameterError):
            chain_of(g, 0)

    def test_odd_level_rejected_for_spectral_modes(self):
        g = gs.build_random_sensor(36, seed=7)
        chain = chain_of(g, 3)  # 36 -> 18 -> 9
        f = np.ones(36)
        assert len(gs.nla_error_curve(f, chain, CONFIGS["vertex"], [0.5])) == 1
        with pytest.raises(
            InvalidParameterError, match="level 2: spectral sampling needs an even vertex count"
        ):
            gs.nla_error_curve(f, chain, CONFIGS["index"], [0.5])


class TestBoundaryErrors:
    """Counts are ints, never bools or floats; operators get their rate and correspondence;
    reduction and I/O calls get the Graph, Laplacian or SpectralBasis they work on."""

    @pytest.fixture(scope="class")
    def chain(self):
        return chain_of(gs.build_random_sensor(16, seed=7), 1)

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda c: gs.apply_operator("index-folded", "down", c[0].ctx_down, np.ones(16)),
             "rate must be"),
            (lambda c: gs.apply_operator("spectrum", "up", c[0].ctx_up, np.ones(8), 2.0),
             "rate must be"),
            (lambda c: gs.apply_operator("vertex", "down", c[0].ctx_down, np.ones(16), 2),
             "needs a vertex correspondence"),
            (lambda c: gs.apply_operator("vertex", "up", c[0].ctx_up, np.ones(8)),
             "needs a vertex correspondence"),
            (lambda c: gs.FilterSpec(mode="chebyshev", order=2.5), "order must be"),
            (lambda c: gs.FilterSpec(order=True), "order must be"),
            (lambda c: gs.nonlinear_approximate(
                gs.decompose(np.ones(16), c, CONFIGS["index"]), 3.7), "n_kept must be"),
            (lambda c: gs.build_chain(c[0].lap, c[0].basis, 2.0), "num_levels must be"),
            (lambda c: gs.build_chain(c[0].lap, c[0].basis, True), "num_levels must be"),
            (lambda c: gs.decompose(np.ones(4), (), gs.PyramidConfig()),
             "needs at least one level"),
            (lambda c: gs.nla_error_curve(np.ones(4), (), gs.PyramidConfig(), [0.5]),
             "needs at least one level"),
            (lambda c: gs.ideal_lowpass_index(gs.gft(c[0].basis, np.ones(16)), 2.5),
             "cutoff index must be"),
            (lambda c: gs.ideal_lowpass_index(gs.gft(c[0].basis, np.ones(16)), True),
             "cutoff index must be"),
            (lambda c: gs.vertex_upsample(np.ones(8), c[0].correspondence, 8.5), "n0 must be"),
            (lambda c: gs.ideal_lowpass_lambda(gs.gft(c[0].basis, np.ones(16)), "x"),
             "cutoff_lambda must be"),
            (lambda c: gs.ideal_lowpass_lambda(gs.gft(c[0].basis, np.ones(16)), True),
             "cutoff_lambda must be"),
            (lambda c: gs.sparsify(c[0].lap.graph, "x"), "threshold_ratio must be"),
            (lambda c: gs.sparsify(c[0].lap.graph, False), "threshold_ratio must be"),
            (lambda c: gs.sparsify(None, 0.1), "sparsify needs a Graph"),
            (lambda c: gs.kron_reduce(None, [0, 1]), "kron_reduce needs a Laplacian"),
            (lambda c: gs.select_polarity(None, 2), "select_polarity needs a SpectralBasis"),
            (lambda c: gs.select_every_other(None, 2), "select_every_other needs a Graph"),
            (lambda c: gs.spectral_bisection(None), "spectral_bisection needs a SpectralBasis"),
            (lambda c: gs.save_edge_list(None, os.devnull), "save_edge_list needs a Graph"),
            (lambda c: gs.synthesize(None), "synthesize needs a PyramidDecomposition"),
            (lambda c: gs.nonlinear_approximate(None, 1),
             "nonlinear_approximate needs a PyramidDecomposition"),
            (lambda c: gs.decompose(np.ones(16), c, None), "decompose needs a PyramidConfig"),
            (lambda c: gs.decompose(np.ones(16), (None,), gs.PyramidConfig()),
             "decompose needs a ChainLevel"),
            (lambda c: gs.filter_signal(c[0].basis, np.ones(16), None),
             "filter_signal needs a FilterSpec"),
            (lambda c: gs.filter_signal(None, np.ones(16), gs.FilterSpec()),
             "filter_signal needs a SpectralBasis"),
            (lambda c: gs.filter_signal(c[0].basis, np.ones(16), gs.FilterSpec(), np.eye(16)),
             "filter_signal needs a Laplacian"),
            (lambda c: gs.filter_signal(c[0].basis, np.ones(16), gs.FilterSpec(mode="chebyshev"),
                                        gs.laplacian(gs.build_path(8))),
             "Laplacian size 8 does not match basis size 16"),
            (lambda c: gs.synthesize(replace(gs.decompose(np.ones(16), c, CONFIGS["index"]),
                                             config=None)),
             "a PyramidDecomposition needs a PyramidConfig"),
            (lambda c: gs.PyramidDecomposition((None,), (np.ones(16),), np.ones(8),
                                               gs.PyramidConfig()),
             "a PyramidDecomposition needs a ChainLevel"),
            (lambda c: gs.build_chain(None, c[0].basis, 2), "build_chain needs a Laplacian"),
            (lambda c: gs.build_chain(c[0].lap, None, 2), "build_chain needs a SpectralBasis"),
            (lambda c: gs.nla_error_curve(np.ones(16), c, gs.PyramidConfig(), "ab"),
             "fractions must be real numbers"),
            (lambda c: gs.nla_error_curve(np.ones(16), c, gs.PyramidConfig(), 0.5),
             "fractions must be a sequence"),
            (lambda c: gs.nla_error_curve(np.ones(16), c, gs.PyramidConfig(), [True]),
             "fractions must be real numbers"),
            (lambda c: gs.nla_error_curve(np.ones(16), c, gs.PyramidConfig(), [np.nan]),
             "fractions must be real numbers"),
            (lambda c: gs.nla_error_curve(np.ones(16), c, gs.PyramidConfig(), [0.5, 1.5]),
             "fractions must be real numbers"),
            (lambda c: gs.PyramidConfig(folded="x"), "folded needs a bool"),
            (lambda c: gs.spectral_downsample_index(c[0].ctx_down, np.ones(16), 2, folded="x"),
             "folded needs a bool"),
            (lambda c: gs.spectral_upsample_spectrum(c[0].ctx_up, np.ones(8), 2, folded=1),
             "folded needs a bool"),
            (lambda c: gs.fractional_downsample(c[0].ctx_down, np.ones(16), folded=None),
             "folded needs a bool"),
            (lambda c: gs.eigendecompose(None), "eigendecompose needs a Laplacian"),
            (lambda c: gs.gft(None, np.ones(16)), "gft needs a SpectralBasis"),
            (lambda c: gs.igft(None, np.ones(16)), "igft needs a SpectralBasis"),
            (lambda c: gs.ideal_lowpass_index(None, 2), "ideal_lowpass_index needs a Spectrum"),
            (lambda c: gs.ideal_lowpass_lambda(None, 0.5), "ideal_lowpass_lambda needs a Spectrum"),
            (lambda c: gs.vertex_downsample(np.ones(16), None),
             "vertex_downsample needs a VertexCorrespondence"),
            (lambda c: gs.vertex_upsample(np.ones(8), None, 8),
             "vertex_upsample needs a VertexCorrespondence"),
            (lambda c: gs.apply_operator("index", "down", None, np.ones(16), 2),
             "apply_operator needs a SamplingContext"),
            (lambda c: gs.spectral_upsample_spectrum(None, np.ones(8), 2),
             "a spectral operator needs a SamplingContext"),
            (lambda c: gs.fractional_downsample(None, np.ones(16)),
             "fractional_downsample needs a SamplingContext"),
            (lambda c: gs.build_community(16, 2, p_in="x"), "probabilities must be real numbers"),
            (lambda c: gs.build_community(16, 2, p_in=True), "probabilities must be real numbers"),
            (lambda c: gs.build_community(16, 2, p_out="x"), "probabilities must be real numbers"),
        ],
        ids=["no-rate", "float-rate", "vertex-down-no-corr", "vertex-up-no-corr",
             "float-order", "bool-order", "float-n_kept", "float-levels", "bool-levels",
             "empty-chain-decompose", "empty-chain-nla", "float-cutoff-index",
             "bool-cutoff-index", "float-upsample-size", "string-cutoff-lambda",
             "bool-cutoff-lambda", "string-sparsify-ratio", "bool-sparsify-ratio",
             "sparsify-no-graph", "kron-no-laplacian", "polarity-no-basis",
             "every-other-no-graph", "bisection-no-basis", "save-no-graph",
             "synthesize-no-decomposition", "nla-trim-no-decomposition", "decompose-no-config",
             "decompose-no-chain-level", "filter-no-spec", "filter-no-basis",
             "filter-lap-not-laplacian", "filter-lap-other-size", "decomposition-no-config",
             "decomposition-no-chain-level",
             "chain-no-laplacian", "chain-no-basis", "string-fractions", "scalar-fractions",
             "bool-fraction", "nan-fraction", "fraction-above-one", "string-folded-config",
             "string-folded-index", "int-folded-spectrum", "none-folded-fractional",
             "eigendecompose-no-laplacian", "gft-no-basis", "igft-no-basis",
             "lowpass-index-no-spectrum", "lowpass-lambda-no-spectrum", "vertex-down-no-corr-type",
             "vertex-up-no-corr-type", "apply-no-context", "spectral-op-no-context",
             "fractional-no-context", "string-p-in", "bool-p-in",
             "string-p-out"],
    )
    def test_refused_at_the_call(self, chain, call, match):
        with pytest.raises(InvalidParameterError, match=match):
            call(chain)


def test_pyramid_nla_preset_builds_one_chain(monkeypatch, tmp_path):
    counts = dict.fromkeys(["eigendecompose", "kron_reduce", "sparsify"], 0)
    modules = [m for name, m in sys.modules.items() if name.startswith("gssamp")]
    for name in counts:
        original = getattr(spectral if name == "eigendecompose" else reduction, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    cli.run_experiment(cli.PRESETS["pyramid-nla"](), tmp_path)
    # one basis for the signal, one per reduced level; one chain for all families
    assert counts == {"eigendecompose": 4, "kron_reduce": 3, "sparsify": 3}


def test_a_pyramid_nla_run_peaks_at_the_eigensolver(tmp_path):
    # kron_reduce once held six (n/2)^2 blocks and set the run's peak, 2.57 n x n
    # blocks at n = 512; eigh needs about 2.14: its input block and the eigenvectors
    n = 512
    cfg = cli.PRESETS["pyramid-nla"]()
    cfg["graph"]["params"]["n"] = n
    tracemalloc.start()
    try:
        cli.run_experiment(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * n * n * 8


def test_pyramid_nla_preset_tests_connectivity_on_sparse_arrays(monkeypatch, tmp_path):
    """Every connectivity check gets CSR, and a sparsify reconnect is one spanning-tree query."""
    counts, trees, reconnects = [], [], []
    real_components = graphs.connected_components
    real_tree = reduction.minimum_spanning_tree
    real_sparsify = pyramid.sparsify

    def connected_components(a, *args, **kwargs):
        assert scipy.sparse.issparse(a), type(a)  # a dense array costs a masked-array copy
        ncomp, labels = real_components(a, *args, **kwargs)
        counts.append(ncomp)
        return ncomp, labels

    def minimum_spanning_tree(*args, **kwargs):
        trees.append(1)
        return real_tree(*args, **kwargs)

    def sparsify(graph, threshold_ratio):
        before = len(counts), len(trees)
        out = real_sparsify(graph, threshold_ratio)
        # the first check is on the thresholded graph: split means a reconnect
        split = len(counts) > before[0] and counts[before[0]] > 1
        reconnects.append((split, len(trees) - before[1]))
        return out

    monkeypatch.setattr(graphs, "connected_components", connected_components)
    monkeypatch.setattr(reduction, "minimum_spanning_tree", minimum_spanning_tree)
    monkeypatch.setattr(pyramid, "sparsify", sparsify)
    cli.run_experiment(cli.PRESETS["pyramid-nla"](), tmp_path)
    assert counts and len(reconnects) == 3
    assert any(split for split, _ in reconnects)  # the preset really reconnects a level
    assert all(n_trees == int(split) for split, n_trees in reconnects)
