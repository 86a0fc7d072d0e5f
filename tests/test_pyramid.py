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
from gssamp.pyramid import chebyshev_coefficients
from small_graphs import small_graph
from test_sampling import unmemoized_filter


def dense_recurrence(graph, f, coeffs, lam_max):
    """sum_k c_k T_k(2 L / lam_max - I) f by the three-term recurrence on the
    dense D - A, built from the adjacency alone, independent of ``Laplacian``
    and of any eigendecomposition."""
    a = graph.adjacency.toarray()
    shifted = (2.0 / lam_max) * (np.diag(a.sum(axis=1)) - a) - np.eye(len(a))
    prev, cur = f, shifted @ f
    out = coeffs[0] * prev + coeffs[1] * cur
    for c in coeffs[2:]:
        prev, cur = cur, 2.0 * (shifted @ cur) - prev
        out = out + c * cur
    return out


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

    def test_chebyshev_reproduces_a_polynomial(self):
        # the expansion of an exact low-order polynomial is that polynomial
        b = basis_of(gs.build_path(12))
        poly = lambda lam: 1.0 + 0.5 * lam - 0.25 * lam**2
        f = np.random.default_rng(3).standard_normal(12)
        got = gs.filter_signal(b, f, gs.FilterSpec(response=poly, mode="chebyshev", order=8))
        expected = gs.igft(b, poly(b.eigenvalues) * gs.gft(b, f).coefficients)
        assert np.abs(got - expected).max() < 1e-9

    def test_invalid_mode_rejected(self):
        with pytest.raises(InvalidParameterError):
            gs.FilterSpec(mode="butterworth")


def cosine_sum_coefficients(response, lam_max, order, reduce_angle=False):
    """The cosine sum ``chebyshev_coefficients`` evaluated before it used the FFT,
    on its N = 2048 Chebyshev-Gauss nodes.

    k theta_j carries k rounding errors of theta_j; ``reduce_angle`` forms it
    exactly as pi (k (2j + 1) mod 4N) / 2N instead.
    """
    grid_size = 2048
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
    @pytest.mark.parametrize("order", [1, 8, 30, 50, 300, 1000])
    def test_dct_matches_cosine_sum(self, response, lam_max, order):
        got = chebyshev_coefficients(RESPONSES[response], lam_max, order)
        want = cosine_sum_coefficients(RESPONSES[response], lam_max, order, reduce_angle=True)
        assert got.shape == (order + 1,)
        assert np.abs(got - want).max() <= 1e-15

    def test_highest_order_matches_cosine_sum(self):
        # order 2047 reads the DCT's last bin below N; 2048 is refused
        got = chebyshev_coefficients(gs.halving_lowpass, 3.7, 2047)
        want = cosine_sum_coefficients(gs.halving_lowpass, 3.7, 2047, reduce_angle=True)
        assert got.shape == (2048,)
        assert np.abs(got - want).max() <= 1e-15

    @pytest.mark.parametrize("order", [2048, 2049, 4096, 5000])
    @pytest.mark.parametrize("make", [
        lambda order: gs.FilterSpec(mode="chebyshev", order=order),
        lambda order: chebyshev_coefficients(gs.halving_lowpass, 4.0, order),
    ], ids=["spec", "coefficients"])
    def test_orders_past_the_nodes_are_refused(self, make, order):
        # these once read aliased DCT bins without a word: at order 4096 the
        # filter sat up to 1.23 away from halving_lowpass
        with pytest.raises(InvalidParameterError, match="chebyshev order must be an integer"):
            make(order)

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


class TestChebyshevFilter:
    @pytest.mark.parametrize("order", [1, 10, 30])
    @pytest.mark.parametrize("name", list(SPARSE_GRAPHS))
    def test_matches_dense_recurrence(self, name, order):
        # the expansion on the eigenvalues is the textbook recurrence on L
        graph = SPARSE_GRAPHS[name]()
        b = basis_of(graph)
        f = np.random.default_rng(5).standard_normal(graph.n)
        got = gs.filter_signal(b, f, gs.FilterSpec(mode="chebyshev", order=order))
        coeffs = chebyshev_coefficients(gs.halving_lowpass, b.lambda_max, order)
        want = dense_recurrence(graph, f, coeffs, b.lambda_max)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("n", [8, 9, 12, 16])
    def test_ring_basis_spans_its_top_eigenvalue(self, n):
        # DFT column order puts the top eigenvalue mid-grid; an expansion on
        # [0, last eigenvalue] once blew up there
        b = gs.ring_sampling_bases(n, 1)[0]
        f = np.random.default_rng(n).standard_normal(n)
        exact = gs.filter_signal(b, f, gs.FilterSpec(response=np.cos))
        cheb = gs.filter_signal(b, f, gs.FilterSpec(response=np.cos, mode="chebyshev"))
        assert np.abs(cheb - exact).max() <= 1e-9

    @pytest.mark.parametrize("mode", ["exact", "chebyshev"])
    def test_complex_signal_maps_linearly(self, mode):
        b = basis_of(gs.build_random_sensor(64, seed=4))
        f, g = np.random.default_rng(8).standard_normal((2, 64))
        spec = gs.FilterSpec(mode=mode)
        got = gs.filter_signal(b, f + 1j * g, spec)
        want = gs.filter_signal(b, f, spec) + 1j * gs.filter_signal(b, g, spec)
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("order", [1, 10, 30])
    def test_laplacian_selects_nothing(self, order):
        # a Laplacian is checked, then the polynomial is evaluated on the eigenvalues
        lap = gs.laplacian(gs.build_random_sensor(128, seed=9))
        b = gs.eigendecompose(lap)
        f = np.random.default_rng(6).standard_normal(128)
        spec = gs.FilterSpec(mode="chebyshev", order=order)
        with_lap = gs.filter_signal(b, f, spec, lap)
        without = gs.filter_signal(b, f, spec)
        assert with_lap.tobytes() == without.tobytes()
        want = unmemoized_filter(b, f, spec)
        assert np.linalg.norm(with_lap - want) <= 1e-12 * np.linalg.norm(want)


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


@st.composite
def _pyramid_cases(draw):
    """(graph, levels, config): the spectral families need an even size at every level."""
    sampling = draw(st.sampled_from(["vertex", "index", "spectrum"]))
    levels = draw(st.integers(1, 3))
    step = 1 if sampling == "vertex" else 2**levels  # n // 2**levels >= 2 in both cases
    n = draw(st.sampled_from(range(max(8, 2 ** (levels + 1)) // step * step, 65, step)))
    graph = draw(small_graph(n))
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


@settings(max_examples=50, deadline=None)
@given(case=_pyramid_cases(), k=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_stacked_synthesis_equals_column_syntheses(case, k, seed):
    # nla_error_curve synthesizes all its budgets as one (n, k) stack
    graph, levels, config = case
    chain = chain_of(graph, levels)
    rng = np.random.default_rng(seed)
    details = [rng.standard_normal((lvl.lap.n, k)) for lvl in chain]
    coarse = rng.standard_normal((chain[-1].correspondence.n_reduced, k))
    stacked = pyramid._synthesize(chain, details, coarse, config)
    assert stacked.shape == (graph.n, k)
    for j in range(k):
        dec = gs.PyramidDecomposition(chain, tuple(y[:, j] for y in details), coarse[:, j], config)
        want = gs.synthesize(dec)
        assert np.linalg.norm(stacked[:, j] - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("mode", ["exact", "chebyshev"])
@pytest.mark.parametrize("folded", [True, False])
@pytest.mark.parametrize("sampling", ["vertex", "index", "spectrum"])
def test_coefficient_path_matches_the_public_operators(sampling, folded, mode):
    # reconstruction holds for any operator, so only this pins the maps the pyramid applies
    chain = chain_of(gs.build_random_sensor(64, seed=7), 1)
    lvl = chain[0]
    spec = gs.FilterSpec(mode=mode, order=12)
    f = np.random.default_rng(3).standard_normal(64)
    dec = gs.decompose(f, chain, gs.PyramidConfig(sampling, folded, spec))
    name = sampling if sampling == "vertex" or not folded else f"{sampling}-folded"
    filtered = gs.filter_signal(lvl.basis, f, spec)
    coarse = gs.apply_operator(name, "down", lvl.ctx_down, filtered, 2, lvl.correspondence)
    upsampled = gs.apply_operator(name, "up", lvl.ctx_up, coarse, 2, lvl.correspondence)
    detail = f - gs.filter_signal(lvl.basis, upsampled, spec)
    assert np.linalg.norm(dec.coarse - coarse) <= 1e-12 * np.linalg.norm(coarse)
    assert np.linalg.norm(dec.details[0] - detail) <= 1e-12 * np.linalg.norm(detail)


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
        chain = chain_of(g, 3)
        keep_largest, stacks = pyramid._keep_largest, []

        def spy(details, counts):
            stacks.append(keep_largest(details, counts))
            return stacks[-1]

        monkeypatch.setattr(pyramid, "_keep_largest", spy)
        gs.nla_error_curve(f, chain, CONFIGS["index"], [1.0, 0.3, 0.0])
        (stack,) = stacks
        assert [sum(np.count_nonzero(y[:, j]) for y in stack) for j in range(3)] == [g.n, 19, 0]
        dec = gs.decompose(f, chain, CONFIGS["index"])
        for j, n_kept in enumerate([g.n, 19, 0]):
            trimmed = gs.nonlinear_approximate(dec, n_kept).details
            for y, want in zip(stack, trimmed, strict=True):
                assert np.array_equal(y[:, j], want)

    def test_no_fractions_give_an_empty_curve(self):
        f, g = self._dec()
        assert gs.nla_error_curve(f, chain_of(g, 2), CONFIGS["spectrum"], []) == []

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
        # the curve synthesizes its budgets as one stack, whose products round differently
        assert [frac for frac, _ in got] == self.FRACTIONS
        assert np.allclose([err for _, err in got], [err for _, err in want], rtol=1e-12, atol=0)

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
            # orders at or past the 2048 quadrature nodes once read aliased DCT bins
            (lambda c: gs.FilterSpec(mode="chebyshev", order=2048),
             r"chebyshev order must be an integer in \[1, 2047\]"),
            (lambda c: chebyshev_coefficients(gs.halving_lowpass, 4.0, 2048),
             r"chebyshev order must be an integer in \[0, 2047\]"),
            (lambda c: gs.nonlinear_approximate(
                gs.decompose(np.ones(16), c, CONFIGS["index"]), 3.7), "n_kept must be"),
            (lambda c: gs.build_chain(c[0].lap, c[0].basis, 2.0), "num_levels must be"),
            (lambda c: gs.build_chain(c[0].lap, c[0].basis, True), "num_levels must be"),
            (lambda c: gs.decompose(np.ones(4), (), gs.PyramidConfig()),
             "needs at least one level"),
            (lambda c: gs.nla_error_curve(np.ones(4), (), gs.PyramidConfig(), [0.5]),
             "needs at least one level"),
            (lambda c: gs.PyramidDecomposition((), (), np.ones(4), gs.PyramidConfig()),
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
            (lambda c: gs.filter_signal(basis_of(gs.Graph(np.zeros((4, 4)))), np.ones(4),
                                        gs.FilterSpec(mode="chebyshev")),
             "needs a positive largest eigenvalue"),
            (lambda c: gs.filter_signal(basis_of(gs.Graph(np.zeros((4, 4)))), np.ones(4),
                                        gs.FilterSpec(mode="chebyshev"),
                                        gs.laplacian(gs.Graph(np.zeros((4, 4))))),
             "needs a positive largest eigenvalue"),
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
            (lambda c: spectral.sample_interpolant(None, [0.5]),
             "sample_interpolant needs a Spectrum"),
            (lambda c: spectral.sample_interpolant(gs.gft(c[0].basis, np.ones(16)), "x"),
             "query length"),
            (lambda c: spectral.sample_interpolant(gs.gft(c[0].basis, np.ones(16)), ["x"]),
             "query entries must be numbers"),
            (lambda c: gs.gft(c[0].basis, ["x"] * 16), "signal entries must be numbers"),
            (lambda c: spectral.collapse_duplicate_nodes(None, np.ones(2)), "eigenvalue length"),
            (lambda c: spectral.eigenvalue_groups(None), "eigenvalue length"),
            (lambda c: spectral.eigenvalue_groups([]), "eigenvalue count must be"),
            (lambda c: gs.make_cluster_band_signal(None, gs.spectral_bisection(c[0].basis),
                                                   [(0.0, 1.0)] * 2),
             "make_cluster_band_signal needs a SpectralBasis"),
            (lambda c: gs.make_cluster_band_signal(c[0].basis, None, [(0.0, 1.0)] * 2),
             "need exactly two clusters"),
            (lambda c: gs.halving_lowpass(None), "eigenvalue length"),
            # a complex or non-numeric signal was once cast to floats first: the
            # imaginary part dropped with only a ComplexWarning, or numpy's ValueError
            (lambda c: gs.decompose(np.ones(16) + 1j * np.ones(16), c, gs.PyramidConfig()),
             "a pyramid signal must be real"),
            (lambda c: gs.decompose(["x"] * 16, c, gs.PyramidConfig()),
             "signal entries must be numbers"),
            (lambda c: gs.analyze(np.ones(16) + 1j * np.ones(16), c[0].lap.graph, 1),
             "a pyramid signal must be real"),
            (lambda c: gs.nla_error_curve(1j * np.ones(16), c, gs.PyramidConfig(), [0.5]),
             "a pyramid signal must be real"),
            (lambda c: gs.nla_error_curve(["x"] * 16, c, gs.PyramidConfig(), [0.5]),
             "signal entries must be numbers"),
            # a field of the wrong type once failed later, in decompose or filter_signal
            (lambda c: gs.PyramidConfig(analysis_filter=None),
             "analysis_filter needs a FilterSpec"),
            (lambda c: gs.FilterSpec(response=None), "filter response must be callable"),
            # a cluster was once cast to ints: 1.7 read as 1, -1 as the last vertex,
            # and a vertex past n ended in IndexError
            (lambda c: gs.make_cluster_band_signal(c[0].basis, ([0, 1.7, 2], [3, 4]),
                                                   [(0.0, c[0].basis.lambda_max)] * 2),
             "targets must be integers"),
            (lambda c: gs.make_cluster_band_signal(c[0].basis, ([0, -1], [3, 4]),
                                                   [(0.0, c[0].basis.lambda_max)] * 2),
             "targets must be nonnegative"),
            (lambda c: gs.make_cluster_band_signal(c[0].basis, ([0, 100], [3, 4]),
                                                   [(0.0, c[0].basis.lambda_max)] * 2),
             "cluster vertex 100 out of range for graph size 16"),
            # refusals no other test reached
            (lambda c: gs.build_complete(1), "complete graph's n must be an integer >= 2"),
            (lambda c: gs.build_community(4, 5),
             r"community graph's k_communities must be an integer in \[1, 4\]"),
            (lambda c: gs.build_random_sensor(8, 8),
             r"random sensor graph's k_nearest must be an integer in \[1, 7\]"),
            (lambda c: gs.save_edge_list(gs.Graph(1.0 - np.eye(3)), os.devnull, os.devnull),
             "graph has no coordinates to save"),
            (lambda c: gs.PyramidConfig(sampling="x"), "unknown sampling 'x'"),
            (lambda c: gs.build_chain(c[0].lap, c[0].basis, 4),
             r"level 3: graph too small to halve \(n=2\)"),
            (lambda c: gs.make_cluster_band_signal(c[0].basis, ([], [3, 4]),
                                                   [(0.0, c[0].basis.lambda_max)] * 2),
             "band signal vanishes on its cluster"),
            (lambda c: gs.VertexCorrespondence(np.zeros((2, 2), dtype=int)),
             "targets must be a 1-D index array"),
            (lambda c: gs.VertexCorrespondence([2, -1]), "targets must be nonnegative"),
            (lambda c: gs.spectral_downsample_spectrum(
                gs.SamplingContext(c[0].basis, basis_of(gs.Graph(np.zeros((8, 8))))),
                np.ones(16), 2),
             "reduced graph has zero maximum eigenvalue"),
            (lambda c: gs.vertex_downsample(np.ones(4), c[0].correspondence),
             "correspondence targets exceed signal length"),
            (lambda c: gs.vertex_upsample(np.ones(8), c[0].correspondence, 4),
             "correspondence targets exceed target size"),
            (lambda c: gs.fractional_downsample(c[0].ctx_down, np.ones(16), mode="x"),
             "unknown mode 'x'"),
            (lambda c: gs.Spectrum(np.ones(3), np.ones(4)), "coefficients and grid sizes differ"),
            # both once read a column of the DFT-ordered ring basis as if its
            # eigenvalues ascended: the top one at 0.586, and a complex Fiedler vector
            (lambda c: gs.select_polarity(gs.ring_sampling_bases(8, 4)[0], 4),
             "eigenvalue grid must be in ascending order"),
            (lambda c: gs.spectral_bisection(gs.ring_sampling_bases(8, 4)[0]),
             "eigenvalue grid must be in ascending order"),
        ],
        ids=["no-rate", "float-rate", "vertex-down-no-corr", "vertex-up-no-corr",
             "float-order", "bool-order", "order-past-nodes", "coefficients-order-past-nodes",
             "float-n_kept", "float-levels", "bool-levels",
             "empty-chain-decompose", "empty-chain-nla",
             "empty-chain-decomposition", "float-cutoff-index",
             "bool-cutoff-index", "float-upsample-size", "string-cutoff-lambda",
             "bool-cutoff-lambda", "string-sparsify-ratio", "bool-sparsify-ratio",
             "sparsify-no-graph", "kron-no-laplacian", "polarity-no-basis",
             "every-other-no-graph", "bisection-no-basis", "save-no-graph",
             "synthesize-no-decomposition", "nla-trim-no-decomposition", "decompose-no-config",
             "decompose-no-chain-level", "filter-no-spec", "filter-no-basis",
             "filter-lap-not-laplacian", "filter-lap-other-size", "chebyshev-zero-spectrum",
             "chebyshev-zero-spectrum-lap", "decomposition-no-config",
             "decomposition-no-chain-level",
             "chain-no-laplacian", "chain-no-basis", "string-fractions", "scalar-fractions",
             "bool-fraction", "nan-fraction", "fraction-above-one", "string-folded-config",
             "string-folded-index", "int-folded-spectrum", "none-folded-fractional",
             "eigendecompose-no-laplacian", "gft-no-basis", "igft-no-basis",
             "lowpass-index-no-spectrum", "lowpass-lambda-no-spectrum", "vertex-down-no-corr-type",
             "vertex-up-no-corr-type", "apply-no-context", "spectral-op-no-context",
             "fractional-no-context", "string-p-in", "bool-p-in",
             "string-p-out", "interpolant-no-spectrum", "interpolant-string-queries",
             "interpolant-string-query", "gft-string-entries",
             "collapse-no-grid", "groups-no-grid", "groups-empty-grid", "band-signal-no-basis",
             "band-signal-no-clusters", "lowpass-no-eigenvalues", "decompose-complex-signal",
             "decompose-string-signal", "analyze-complex-signal", "nla-complex-signal",
             "nla-string-signal", "config-no-filter-spec", "filter-response-not-callable",
             "band-signal-float-cluster", "band-signal-negative-cluster",
             "band-signal-cluster-past-n", "complete-too-small", "community-infeasible",
             "sensor-k-nearest", "save-no-coordinates", "unknown-sampling", "chain-too-deep",
             "band-signal-empty-cluster", "correspondence-2d", "correspondence-negative",
             "rho-zero-spectrum", "vertex-down-short-signal", "vertex-up-small-size",
             "fractional-unknown-mode", "spectrum-size-mismatch", "polarity-unsorted-grid",
             "bisection-unsorted-grid"],
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
