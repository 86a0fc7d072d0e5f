import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gssamp as gs
from gssamp import cli, spectral
from gssamp.errors import DataError, InvalidParameterError
from gssamp.spectral import Spectrum, sample_interpolant


def dense_laplacian(graph):
    """D - A from the adjacency alone, independent of ``Laplacian``."""
    a = graph.adjacency.toarray()
    return np.diag(a.sum(axis=1)) - a


def basis_of(graph):
    return gs.eigendecompose(gs.laplacian(graph))


class TestEigendecompose:
    def test_path3_eigenvalues(self):
        # roots of the characteristic polynomial of the 3-path Laplacian
        b = basis_of(gs.build_path(3))
        assert np.allclose(b.eigenvalues, [0, 1, 3], atol=1e-9)

    def test_ring4_eigenvalues(self):
        b = basis_of(gs.build_ring(4))
        assert np.allclose(b.eigenvalues, [0, 2, 2, 4], atol=1e-9)

    def test_complete100_eigenvalues(self):
        b = basis_of(gs.build_complete(100))
        assert abs(b.eigenvalues[0]) < 1e-9
        assert np.allclose(b.eigenvalues[1:], 100.0, atol=1e-8)

    def test_orthonormality_and_residual(self):
        for graph in (gs.build_grid(5, 5), gs.build_complete(30), gs.build_comet(20, 7)):
            lap = gs.laplacian(graph)
            b = gs.eigendecompose(lap)
            u = b.eigenvectors
            assert np.linalg.norm(u.T @ u - np.eye(graph.n)) < 1e-9
            resid = dense_laplacian(graph) @ u - u * b.eigenvalues
            assert np.abs(resid).max() < 1e-8

    def test_sign_canonicalization(self):
        b = basis_of(gs.build_grid(4, 4))
        for col in b.eigenvectors.T:
            nz = col[np.abs(col) > 1e-10]
            assert nz[0] > 0

    def test_deterministic(self):
        # the repeated-eigenvalues experiment's seeded in-group order too
        lap = gs.laplacian(gs.build_complete(20))
        a = cli._permute_within_groups(gs.eigendecompose(lap), 5)
        b = cli._permute_within_groups(gs.eigendecompose(lap), 5)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_ordering_seed_permutes_within_groups_only(self):
        lap = gs.laplacian(gs.build_complete(20))
        plain = gs.eigendecompose(lap)
        seeded = cli._permute_within_groups(plain, 11)
        # same eigenvalues, same first column (simple eigenvalue 0)
        assert np.allclose(plain.eigenvalues, seeded.eigenvalues)
        assert np.allclose(plain.eigenvectors[:, 0], seeded.eigenvectors[:, 0])
        # the repeated group is permuted, not altered
        assert sorted(map(tuple, plain.eigenvectors.T[1:].round(12))) == sorted(
            map(tuple, seeded.eigenvectors.T[1:].round(12))
        )
        assert not np.array_equal(plain.eigenvectors, seeded.eigenvectors)


class TestGft:
    def test_constant_signal(self):
        b = basis_of(gs.build_grid(3, 4))
        spec = gs.gft(b, np.ones(12))
        expected = np.zeros(12)
        expected[0] = np.sqrt(12)
        assert np.allclose(spec.coefficients, expected, atol=1e-9)

    def test_eigenvector_maps_to_delta(self):
        b = basis_of(gs.build_path(8))
        spec = gs.gft(b, b.eigenvectors[:, 3])
        expected = np.zeros(8)
        expected[3] = 1.0
        assert np.allclose(spec.coefficients, expected, atol=1e-12)

    def test_parseval_path10(self):
        b = basis_of(gs.build_path(10))
        f = np.random.default_rng(0).standard_normal(10)
        assert abs(np.linalg.norm(gs.gft(b, f).coefficients) - np.linalg.norm(f)) < 1e-10

    def test_dimension_mismatch(self):
        b = basis_of(gs.build_path(5))
        with pytest.raises(InvalidParameterError):
            gs.gft(b, np.ones(6))
        with pytest.raises(InvalidParameterError, match="coefficient length"):
            gs.igft(b, np.ones((5, 1)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_signal_rejected(self, value):
        b = basis_of(gs.build_path(5))
        f = np.ones(5)
        f[2] = value
        with pytest.raises(DataError, match="signal entries must be finite"):
            gs.gft(b, f)
        with pytest.raises(DataError, match="coefficient entries must be finite"):
            gs.igft(b, f)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_roundtrip_property(self, n, seed):
        b = basis_of(gs.build_path(n))
        f = np.random.default_rng(seed).standard_normal(n)
        back = gs.igft(b, gs.gft(b, f))
        assert np.abs(back - f).max() < 1e-10


class TestKeptAnalysis:
    def test_coefficients_read_only_and_shared(self):
        b = basis_of(gs.build_path(8))
        f = np.random.default_rng(0).standard_normal(8)
        gs.filter_signal(b, f, gs.pyramid.FilterSpec())  # the filter analyses f first
        c = b._analysis(f)
        with pytest.raises(ValueError, match="read-only"):
            c[0] = 1.0
        assert gs.gft(b, f.copy()).coefficients is c  # same dtype, shape and bytes

    def test_edited_or_reinterpreted_signal_is_analysed_again(self):
        b = basis_of(gs.build_path(8))
        f = np.random.default_rng(0).standard_normal(8)
        gs.gft(b, f)
        f[3] += 1.0  # in place
        for g in (f, f.view(np.int64)):  # then the same bytes as another dtype
            got = gs.gft(b, g).coefficients
            assert got.tobytes() == (b.eigenvectors.T @ g).tobytes()

    def test_kept_analysis_is_not_a_field(self):
        b = basis_of(gs.build_path(6))
        gs.gft(b, np.ones(6))
        assert [f.name for f in dataclasses.fields(b)] == ["eigenvalues", "eigenvectors"]
        assert "_analysis" not in repr(b)
        copy = dataclasses.replace(b)
        assert copy._analysis is not b._analysis and copy._analysis._memo is None

    def test_basis_copies_writable_arrays(self):
        # another writable view of the caller's memory once edited the
        # eigenvectors under the kept analysis, so gft returned stale values
        b = basis_of(gs.build_path(6))
        f = np.random.default_rng(0).standard_normal(6)
        a, lam = np.array(b.eigenvectors, order="F"), np.array(b.eigenvalues)
        bb = gs.SpectralBasis(lam, a[:])
        first = gs.gft(bb, f).coefficients.copy()
        a[:], lam[:] = np.eye(6), 0.0
        assert a.flags.writeable and lam.flags.writeable
        assert np.array_equal(gs.gft(bb, f).coefficients, first)
        assert np.array_equal(bb.eigenvectors, b.eigenvectors)
        assert np.array_equal(bb.eigenvalues, b.eigenvalues)
        assert bb.eigenvectors.flags.c_contiguous  # the layout picks later BLAS kernels

    @pytest.mark.parametrize(
        "lam, u",
        [(np.zeros(3), np.eye(5)), (np.zeros(3), np.eye(3)[:, :2]), (np.zeros(3), np.zeros(3)),
         (np.zeros((3, 1)), np.eye(3))],
        ids=["too-large", "not-square", "1-D", "2-D-eigenvalues"],
    )
    def test_basis_needs_n_by_n_eigenvectors(self, lam, u):
        # a (3,) / (5, 5) pair once gave a basis of size 3 whose gft failed in a matmul
        with pytest.raises(InvalidParameterError, match=r"eigenvectors must be an \(n, n\) array"):
            gs.SpectralBasis(lam, u)

    def test_spectrum_copies_writable_arrays(self):
        c, g = np.ones(4), np.arange(4.0)
        s = Spectrum(c, g)
        c[0] = g[0] = 9.0
        assert c.flags.writeable and g.flags.writeable
        assert s.coefficients[0] == 1.0 and s.grid[0] == 0.0
        for a in (s.coefficients, s.grid):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0


class TestInterpolation:
    def test_exact_at_distinct_node(self):
        spec = Spectrum(np.array([1.0, 3.0, -2.0]), np.array([0.0, 1.0, 4.0]))
        assert sample_interpolant(spec, [1.0]).tolist() == [3.0]

    def test_linear_midpoint(self):
        spec = Spectrum(np.array([1.0, 3.0]), np.array([0.0, 2.0]))
        assert sample_interpolant(spec, [1.0]).tolist() == [2.0]

    def test_duplicate_abscissae_collapse(self):
        # complete-graph-like grid: node at 0 plus 99 duplicates at 100
        coeffs = np.concatenate([[2.0], np.linspace(0, 1, 99)])
        grid = np.concatenate([[0.0], np.full(99, 100.0)])
        spec = Spectrum(coeffs, grid)
        expected = 0.5 * (2.0 + np.linspace(0, 1, 99).mean())
        assert abs(sample_interpolant(spec, [50.0])[0] - expected) < 1e-12

    def test_affine_exactness(self):
        b = basis_of(gs.build_path(20))
        a_coef, b_coef = 0.7, -0.3
        spec = Spectrum(a_coef * b.eigenvalues + b_coef, b.eigenvalues)
        lams = np.linspace(0.0, b.lambda_max, 37)
        assert np.abs(sample_interpolant(spec, lams) - (a_coef * lams + b_coef)).max() < 1e-12


# ---------------------------------------------------------------------------
# the vectorized grouping, collapse and ordering against the loops they replace


def reference_groups(lam):
    """Greedy grouping, one eigenvalue at a time; returns the group starts."""
    lam = np.asarray(lam, dtype=float)
    tol = 1e-8 * max(1.0, float(lam[-1]))
    groups = [[0]]
    for i in range(1, lam.size):
        if lam[i] - lam[groups[-1][0]] <= tol and lam[i] - lam[i - 1] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [np.asarray(g) for g in groups]


def reference_collapse(grid, values):
    xs, ys = [], []
    for g in reference_groups(grid):
        xs.append(grid[g].mean())
        ys.append(values[g].mean())
    return np.asarray(xs), np.asarray(ys)


def reference_signs(u):
    u = u.copy()
    for i in range(u.shape[1]):
        col = u[:, i]
        nz = np.nonzero(np.abs(col) > 1e-10)[0]
        if nz.size and col[nz[0]] < 0:
            u[:, i] = -col
    return u


def reference_eigendecompose(lap, ordering_seed=None):
    lam, u = scipy.linalg.eigh(dense_laplacian(lap.graph))
    order = np.argsort(lam, kind="stable")
    lam, u = lam[order], u[:, order]
    u = reference_signs(u)
    rng = np.random.default_rng(ordering_seed) if ordering_seed is not None else None
    for g in reference_groups(lam):
        if g.size > 1:
            block = u[:, g]
            u[:, g] = block[:, np.lexsort(block[::-1])]
            if rng is not None:
                u[:, g] = u[:, g][:, rng.permutation(g.size)]
    return lam, u


# steps between neighbours in units of about the grouping tolerance: exact
# repeats, steps within it, chains of sub-tolerance steps spanning more than
# it, and clear gaps
_steps = st.lists(st.sampled_from([0.0, 0.0, 0.3, 0.6, 0.9, 1.5, 1e6]), max_size=60)


@st.composite
def grids(draw):
    scale = draw(st.sampled_from([0.25, 0.9, 1.0, 40.0]))
    steps = draw(_steps)
    unit = 1e-8 * max(1.0, scale)
    return scale + np.cumsum([0.0, *steps]) * unit


def bitwise_equal(a, b):
    # the layout too: it picks the BLAS kernel of every later product
    return a.shape == b.shape and a.flags.c_contiguous == b.flags.c_contiguous and (
        a.tobytes() == b.tobytes()
    )


class TestVectorizedMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(lam=grids())
    @example(lam=np.array([3.0]))
    @example(lam=np.array([0.5, 0.5 + 6e-9, 0.5 + 1.2e-8, 0.5 + 1.8e-8]))
    def test_group_starts(self, lam):
        want = [g[0] for g in reference_groups(lam)]
        assert spectral.eigenvalue_groups(lam).tolist() == want

    def test_chain_longer_than_tol_splits_greedily(self):
        # every step is within tol, but the run drifts 3 tol from its start
        lam = np.array([0.0, 0.6, 1.2, 1.8, 2.4, 3.0]) * 1e-8
        assert spectral.eigenvalue_groups(lam).tolist() == [0, 2, 4]

    @settings(max_examples=300, deadline=None)
    @given(lam=grids(), seed=st.integers(0, 2**16))
    def test_collapse(self, lam, seed):
        values = np.random.default_rng(seed).standard_normal(lam.size)
        xs, ys = spectral.collapse_duplicate_nodes(lam, values)
        want_x, want_y = reference_collapse(lam, values)
        assert np.array_equal(xs, want_x)
        np.testing.assert_allclose(ys, want_y, rtol=1e-15, atol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
        seed=st.integers(0, 2**16),
    )
    def test_signs(self, shape, seed):
        # tiny entries of both signs lead most columns, and some are all tiny
        entries = np.array([0.0, -0.0, 5e-11, -5e-11, 1e-10, -1e-10, 2e-10, -2e-10, 0.3, -0.7])
        u = np.random.default_rng(seed).choice(entries, size=shape)
        want = reference_signs(u)  # before the call: it flips u in place
        assert bitwise_equal(spectral._canonicalize_signs(u), want)

    @pytest.mark.parametrize(
        "graph",
        [gs.build_ring(12), gs.build_grid(4, 6), gs.build_complete(30)],
        ids=["ring", "grid", "complete"],
    )
    @pytest.mark.parametrize("seed", [None, 0, 7, 123])
    def test_eigendecompose_bit_for_bit(self, graph, seed):
        # a seed reorders each repeated group as the repeated-eigenvalues experiment does
        lap = gs.laplacian(graph)
        b = gs.eigendecompose(lap)
        if seed is not None:
            b = cli._permute_within_groups(b, seed)
        lam, u = reference_eigendecompose(lap, ordering_seed=seed)
        assert bitwise_equal(b.eigenvalues, lam)
        assert bitwise_equal(b.eigenvectors, u)
