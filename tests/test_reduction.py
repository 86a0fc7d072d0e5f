import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import gssamp as gs
from gssamp.errors import DataError, InvalidParameterError


def dense_laplacian(graph):
    """D - A from the adjacency alone, independent of ``Laplacian``."""
    a = graph.adjacency.toarray()
    return np.diag(a.sum(axis=1)) - a


def basis_of(graph):
    return gs.eigendecompose(gs.laplacian(graph))


class TestKronReduce:
    def test_path3_hand_computed(self):
        # path 0-1-2, eliminate the middle vertex:
        # L1 = [[1,0],[0,1]] - [[-1],[-1]] (1/2) [-1,-1] = [[0.5,-0.5],[-0.5,0.5]]
        lap = gs.laplacian(gs.build_path(3))
        red = gs.kron_reduce(lap, [0, 2])
        expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.abs(dense_laplacian(red.graph) - expected).max() < 1e-12
        assert red.correspondence.targets.tolist() == [0, 2]

    def test_result_is_valid_laplacian(self):
        g = gs.build_random_sensor(40, seed=0)
        red = gs.kron_reduce(gs.laplacian(g), np.arange(0, 40, 2))
        lap1 = dense_laplacian(red.graph)
        assert np.abs(lap1 - lap1.T).max() < 1e-12
        assert np.abs(lap1.sum(axis=1)).max() < 1e-9
        assert red.graph.is_connected()

    def test_composition_matches_single_step(self):
        # reducing twice equals reducing once onto the final keep set
        g = gs.build_random_sensor(30, seed=1)
        lap = gs.laplacian(g)
        one_step = gs.kron_reduce(lap, np.arange(8))
        mid = gs.kron_reduce(lap, np.arange(16))
        two_step = gs.kron_reduce(gs.laplacian(mid.graph), np.arange(8))
        diff = dense_laplacian(one_step.graph) - dense_laplacian(two_step.graph)
        assert np.abs(diff).max() < 1e-8

    def test_keep_set_validation(self):
        lap = gs.laplacian(gs.build_path(4))
        with pytest.raises(InvalidParameterError):
            gs.kron_reduce(lap, [])
        with pytest.raises(InvalidParameterError):
            gs.kron_reduce(lap, [0, 1, 2, 3])
        with pytest.raises(InvalidParameterError):
            gs.kron_reduce(lap, [0, 7])

    @pytest.mark.parametrize(
        "keep", [[True, False, True, False, True, False], [0.5, 2.7, 4.2], np.array([0.0, 2.0])]
    )
    def test_keep_set_must_be_integers(self, keep):
        lap = gs.laplacian(gs.build_path(6))
        with pytest.raises(InvalidParameterError, match="targets must be integers"):
            gs.kron_reduce(lap, keep)
        with pytest.raises(InvalidParameterError, match="nonempty proper subset"):
            gs.kron_reduce(lap, np.array([], dtype=float))

    @pytest.mark.parametrize(
        "keep", [[[1, 2]], np.array([[0], [2]]), 3], ids=["nested", "column", "scalar"]
    )
    def test_keep_set_must_be_one_dimensional(self, keep):
        lap = gs.laplacian(gs.build_path(6))
        with pytest.raises(InvalidParameterError, match="keep set must be a 1-D array"):
            gs.kron_reduce(lap, keep)

    def test_duplicate_and_unsorted_keep_set(self):
        lap = gs.laplacian(gs.build_path(6))
        got = gs.kron_reduce(lap, [4, 0, 2, 2, 0])
        want = gs.kron_reduce(lap, [0, 2, 4])
        assert np.array_equal(got.correspondence.targets, [0, 2, 4])
        assert np.array_equal(got.graph.adjacency.toarray(), want.graph.adjacency.toarray())

    def test_singular_eliminated_block_rejected(self):
        # eliminating a whole disconnected component leaves a singular block,
        # reported by its cause
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        a[2, 3] = a[3, 2] = 1.0
        lap = gs.laplacian(gs.Graph(a))
        with pytest.raises(DataError, match=r"graph is disconnected \(2 components\)"):
            gs.kron_reduce(lap, [0, 1])


    def test_holds_at_most_three_half_size_blocks(self):
        # the four blocks of D - A, solve's copies of two and the Schur product were
        # once alive together: 6.0 (n/2)^2 blocks at n = 512
        n = 512
        lap = gs.laplacian(gs.build_random_sensor(n, seed=0))
        keep = gs.select_polarity(gs.eigendecompose(lap), n // 2)
        tracemalloc.start()
        try:
            gs.kron_reduce(lap, keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * (n // 2) ** 2 * 8

    @pytest.mark.parametrize("n", [128, 512])
    @pytest.mark.parametrize("seed", [0, 3, 4, 5])
    def test_matches_the_dense_formula_bit_for_bit(self, n, seed):
        # the blocks are built and consumed in another order, and solved in place;
        # LAPACK's input and the GEMM's operand layouts stay those of this formula
        # (n = 128 runs OpenBLAS's small-matrix kernels, which sum a transposed
        # operand in another order), so the weights may not move by a bit
        lap = gs.laplacian(gs.build_random_sensor(n, seed=seed))
        keep = gs.select_polarity(gs.eigendecompose(lap), n // 2)
        for _ in range(2):  # the first level, then its sparsified graph's
            level = gs.kron_reduce(lap, keep).graph
            got, want = level.adjacency, dense_kron_reduce(lap, keep).adjacency
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert got.data.tobytes() == want.data.tobytes()
            lap = gs.laplacian(gs.sparsify(level, 0.05))
            keep = gs.select_polarity(gs.eigendecompose(lap), lap.n // 2)


def dense_kron_reduce(lap, keep):
    """The Schur complement from the four dense blocks of D - A, as first written."""
    elim = np.setdiff1d(np.arange(lap.n), keep)
    m = dense_laplacian(lap.graph)
    solved = scipy.linalg.solve(m[np.ix_(elim, elim)], m[np.ix_(elim, keep)], assume_a="sym")
    l1 = m[np.ix_(keep, keep)] - m[np.ix_(keep, elim)] @ solved
    w = -(0.5 * (l1 + l1.T))
    np.fill_diagonal(w, 0.0)
    return gs.Graph(np.maximum(w, 0.0))


class TestSparsify:
    def test_zero_ratio_is_identity(self):
        g = gs.build_random_sensor(20, seed=2)
        assert gs.sparsify(g, 0.0) is g

    def test_light_edges_removed(self):
        a = np.array(
            [
                [0.0, 1.0, 0.01, 0.0],
                [1.0, 0.0, 1.0, 0.01],
                [0.01, 1.0, 0.0, 1.0],
                [0.0, 0.01, 1.0, 0.0],
            ]
        )
        out = gs.sparsify(gs.Graph(a), 0.05)
        dense = out.adjacency.toarray()
        assert dense[0, 2] == 0.0 and dense[1, 3] == 0.0
        assert dense[0, 1] == 1.0
        assert out.is_connected()

    def test_connectivity_restored(self):
        # the only bridge is light; sparsify must put it back
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        a[2, 3] = a[3, 2] = 1.0
        a[1, 2] = a[2, 1] = 0.01
        out = gs.sparsify(gs.Graph(a), 0.05)
        assert out.adjacency.toarray()[1, 2] == 0.01
        assert out.is_connected()

    @pytest.mark.parametrize("seed", [0, 3])
    def test_degrees_of_a_level_are_the_dense_row_sums(self, seed):
        # a Kron level holds far more entries per row than its sensor graph, so
        # the CSR's own row sums, in another order, differ in the last bits
        level = reduced_sensor(300, seed)
        for g in (level, gs.sparsify(level, 0.1)):
            assert np.array_equal(gs.laplacian(g).degree, g.adjacency.toarray().sum(axis=1))

    @pytest.mark.parametrize("triangle", [False, True], ids=["bridge", "cycle"])
    def test_an_edge_is_judged_once(self, triangle):
        # the orientations of edge (0, 1) differ by 1e-13 and straddle the cutoff:
        # each was once judged on its own, and dropping one of them broke symmetry;
        # the graph now stores the larger weight both ways, which the cutoff keeps
        a = np.zeros((3, 3))
        a[0, 1], a[1, 0] = 0.5, 0.5 + 1e-13
        a[1, 2] = a[2, 1] = 1.0
        a[0, 2] = a[2, 0] = 1.0 if triangle else 0.0
        out = gs.sparsify(gs.Graph(a), 0.5 + 0.5e-13).adjacency.toarray()
        a[0, 1] = a[1, 0]
        assert np.array_equal(out, a) and np.array_equal(out, out.T)

    def test_invalid_ratio(self):
        g = gs.build_path(4)
        with pytest.raises(InvalidParameterError):
            gs.sparsify(g, 1.0)
        with pytest.raises(InvalidParameterError):
            gs.sparsify(g, -0.1)

    def test_disconnected_input_returned_unthresholded(self):
        # no prefix of the removed edges bridges the two components
        a = np.zeros((5, 5))
        a[0, 1] = a[1, 0] = 1.0
        a[1, 2] = a[2, 1] = 0.01
        a[3, 4] = a[4, 3] = 1.0
        g = gs.Graph(a)
        out = gs.sparsify(g, 0.05)
        assert np.array_equal(out.adjacency.toarray(), a)
        assert np.array_equal(out.adjacency.toarray(), reference_sparsify(g, 0.05).adjacency.toarray())

    def test_reduced_graph_needing_reconnection(self):
        g = reduced_sensor(16, seed=0)
        a = g.adjacency.toarray()
        a[a < 0.5 * a.max()] = 0.0
        assert not gs.Graph(a).is_connected()  # the restore path really runs
        out = gs.sparsify(g, 0.5)
        assert out.is_connected()
        assert np.array_equal(out.adjacency.toarray(), reference_sparsify(g, 0.5).adjacency.toarray())

    @settings(max_examples=150, deadline=None)
    @given(
        build=st.sampled_from(["reduced_sensor", "tied_weights", "split_tied_weights"]),
        n=st.integers(min_value=8, max_value=48),
        seed=st.integers(min_value=0, max_value=50),
        ratio=st.floats(min_value=0.05, max_value=0.5),
    )
    def test_matches_one_edge_at_a_time_restore(self, build, n, seed, ratio):
        g = globals()[build](n, seed)
        out = gs.sparsify(g, ratio)
        want = reference_sparsify(g, ratio)
        assert np.array_equal(out.adjacency.toarray(), want.adjacency.toarray())
        assert np.array_equal(out.coordinates, want.coordinates)


def reduced_sensor(n, seed):
    """Polarity Kron reduction of a random sensor graph to half its size."""
    lap = gs.laplacian(gs.build_random_sensor(n, seed=seed))
    return gs.kron_reduce(lap, gs.select_polarity(gs.eigendecompose(lap), n // 2)).graph


def tied_weights(n, seed):
    """Random spanning tree plus random edges, integer weights 1..8: ties everywhere."""
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    a[rng.integers(0, np.arange(1, n)), np.arange(1, n)] = rng.integers(1, 9, n - 1)
    extra = np.triu(rng.random((n, n)) < 3.0 / n, 1)
    a[extra] = rng.integers(1, 9, extra.sum())
    return gs.Graph(np.maximum(a, a.T))


def split_tied_weights(n, seed):
    """``tied_weights`` with every edge between its two halves cut: a forest case."""
    a = tied_weights(n, seed).adjacency.toarray()
    half = np.arange(n) < n // 2
    a[np.ix_(half, ~half)] = a[np.ix_(~half, half)] = 0.0
    return gs.Graph(a)


def reference_sparsify(graph, threshold_ratio):
    """Restore removed edges one at a time, heaviest first, until connected."""
    original = graph.adjacency.toarray()
    a = original.copy()
    weak = (a > 0) & (a < threshold_ratio * a.max())
    a[weak] = 0.0
    candidate = gs.Graph(a, coordinates=graph.coordinates)
    if candidate.is_connected():
        return candidate
    removed = [(original[i, j], i, j) for i, j in zip(*np.nonzero(np.triu(weak)))]
    removed.sort(reverse=True)
    for w, i, j in removed:
        a[i, j] = a[j, i] = w
        candidate = gs.Graph(a, coordinates=graph.coordinates)
        if candidate.is_connected():
            return candidate
    return candidate


class TestSelectEveryOther:
    def test_path(self):
        keep = gs.select_every_other(gs.build_path(9), 2)
        assert keep.tolist() == [0, 2, 4, 6, 8]

    def test_ring(self):
        keep = gs.select_every_other(gs.build_ring(12), 3)
        assert keep.tolist() == [0, 3, 6, 9]

    def test_grid_square_rate(self):
        keep = gs.select_every_other(gs.build_grid(4, 4), 4)
        assert keep.tolist() == [0, 2, 8, 10]

    def test_grid_rejects_nonsquare_rate(self):
        with pytest.raises(InvalidParameterError):
            gs.select_every_other(gs.build_grid(4, 4), 2)

    def test_unstructured_rejected(self):
        with pytest.raises(InvalidParameterError):
            gs.select_every_other(gs.build_complete(6), 2)

    @pytest.mark.parametrize("rate", [2.0, True, 1], ids=["float", "bool", "one"])
    def test_rate_must_be_an_integer_of_at_least_2(self, rate):
        with pytest.raises(InvalidParameterError, match="rate must be an integer >= 2"):
            gs.select_every_other(gs.build_path(8), rate)


def reference_select_polarity(basis, target_size):
    """Grow or shrink the positive set one vertex at a time through a Python set."""
    u = basis.eigenvectors[:, -1]
    mag_order = np.lexsort((np.arange(basis.n), -np.abs(u)))
    selected = set(np.nonzero(u > 0)[0].tolist())
    if len(selected) > target_size:
        for v in mag_order[::-1]:
            if len(selected) == target_size:
                break
            selected.discard(int(v))
    else:
        for v in mag_order:
            if len(selected) == target_size:
                break
            selected.add(int(v))
    return np.sort(np.fromiter(selected, dtype=int))


class TestSelectPolarity:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_set_loop(self, data):
        # few distinct magnitudes of both signs, signed zeros included: ties
        # on either side of the positive set and at the cut
        n = data.draw(st.integers(2, 40))
        entry = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]) | st.floats(-1.0, 1.0)
        u = np.zeros((n, n))
        u[:, -1] = data.draw(st.lists(entry, min_size=n, max_size=n))
        basis = gs.SpectralBasis(np.arange(n, dtype=float), u)
        target = data.draw(st.integers(1, n - 1))
        got = gs.select_polarity(basis, target)
        want = reference_select_polarity(basis, target)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_path_alternates(self):
        # the top path eigenvector alternates sign, so half the
        # vertices are selected and no two selected vertices are adjacent
        keep = gs.select_polarity(basis_of(gs.build_path(10)), 5)
        assert len(keep) == 5
        assert np.all(np.diff(keep) >= 2)

    def test_exact_target_size(self):
        b = basis_of(gs.build_random_sensor(30, seed=3))
        for size in (5, 15, 25):
            keep = gs.select_polarity(b, size)
            assert len(keep) == size
            assert len(set(keep.tolist())) == size

    def test_deterministic(self):
        b = basis_of(gs.build_random_sensor(30, seed=3))
        assert np.array_equal(gs.select_polarity(b, 12), gs.select_polarity(b, 12))

    def test_target_validation(self):
        b = basis_of(gs.build_path(6))
        with pytest.raises(InvalidParameterError):
            gs.select_polarity(b, 0)
        with pytest.raises(InvalidParameterError):
            gs.select_polarity(b, 6)

    @pytest.mark.parametrize("size", [True, 2.0, 2.5], ids=["bool", "float", "fraction"])
    def test_target_size_must_be_an_integer(self, size):
        # True once kept one vertex, a float ended in a TypeError
        b = basis_of(gs.build_path(8))
        with pytest.raises(InvalidParameterError, match=r"target_size must be an integer in \[1, 7\]"):
            gs.select_polarity(b, size)


class TestSpectralBisection:
    def test_barbell_split(self):
        # two triangles joined by one edge split at the bridge
        a = np.zeros((6, 6))
        for i, j in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]:
            a[i, j] = a[j, i] = 1.0
        pos, neg = gs.spectral_bisection(basis_of(gs.Graph(a)))
        groups = {frozenset(pos.tolist()), frozenset(neg.tolist())}
        assert groups == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def test_partition_properties(self):
        pos, neg = gs.spectral_bisection(basis_of(gs.build_random_sensor(25, seed=4)))
        assert len(pos) + len(neg) == 25
        assert not set(pos.tolist()) & set(neg.tolist())

    def test_disconnected_rejected(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        a[2, 3] = a[3, 2] = 1.0
        with pytest.raises(InvalidParameterError):
            gs.spectral_bisection(basis_of(gs.Graph(a)))


class TestClusterBandSignal:
    def _setup(self):
        g = gs.build_community(64, 2, seed=0)
        b = basis_of(g)
        clusters = gs.spectral_bisection(b)
        return b, clusters

    def test_support_and_normalization(self):
        b, clusters = self._setup()
        lmax = b.lambda_max
        f = gs.make_cluster_band_signal(b, clusters, [(0.0, 0.3 * lmax), (0.6 * lmax, lmax)])
        assert np.any(f[clusters[0]] != 0) and np.any(f[clusters[1]] != 0)
        for cluster in clusters:
            assert abs(np.abs(f[cluster]).max() - 1.0) < 1e-12

    def test_empty_band_rejected(self):
        b, clusters = self._setup()
        lam = b.eigenvalues
        # a band strictly inside the widest gap between consecutive eigenvalues
        i = int(np.argmax(np.diff(lam)))
        gap_lo = (2 * lam[i] + lam[i + 1]) / 3
        gap_hi = (lam[i] + 2 * lam[i + 1]) / 3
        assert lam[i] < gap_lo < gap_hi < lam[i + 1]
        with pytest.raises(InvalidParameterError, match="contains no eigenvalue"):
            gs.make_cluster_band_signal(
                b, clusters, [(gap_lo, gap_hi), (0.0, b.lambda_max)]
            )
        with pytest.raises(InvalidParameterError):
            gs.make_cluster_band_signal(
                b, clusters, [(0.0, b.lambda_max), (b.lambda_max * 2, b.lambda_max * 3)]
            )

    def test_cluster_count_validation(self):
        b, clusters = self._setup()
        with pytest.raises(InvalidParameterError):
            gs.make_cluster_band_signal(b, [clusters[0]], [(0.0, 1.0)])
