import numpy as np
import pytest

import gssamp as gs
from gssamp.errors import DataError, InvalidParameterError, ParseError


def laplacian_eigenvalues(graph):
    return np.linalg.eigvalsh(gs.laplacian(graph).matrix)


class TestPath:
    def test_adjacency_n3(self):
        g = gs.build_path(3)
        assert np.array_equal(g.adjacency, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_laplacian_n2(self):
        assert np.array_equal(gs.laplacian(gs.build_path(2)).matrix, [[1, -1], [-1, 1]])

    def test_closed_form_eigenvalues_n100(self):
        # path Laplacian eigenvalues are 2 - 2 cos(pi k / n)
        lam = laplacian_eigenvalues(gs.build_path(100))
        expected = 2.0 - 2.0 * np.cos(np.pi * np.arange(100) / 100)
        assert np.allclose(lam, np.sort(expected), atol=1e-9)

    def test_too_small(self):
        with pytest.raises(InvalidParameterError):
            gs.build_path(1)


class TestRing:
    def test_degrees_n4(self):
        assert np.array_equal(gs.build_ring(4).degrees(), [2, 2, 2, 2])

    def test_circulant_eigenvalues_n8(self):
        lam = laplacian_eigenvalues(gs.build_ring(8))
        expected = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(8) / 8))
        assert np.allclose(lam, expected, atol=1e-9)
        # interior values come in pairs
        assert np.isclose(lam[1], lam[2])

    def test_triangle(self):
        lam = laplacian_eigenvalues(gs.build_ring(3))
        assert np.allclose(lam, [0, 3, 3], atol=1e-9)

    def test_too_small(self):
        with pytest.raises(InvalidParameterError):
            gs.build_ring(2)


class TestOtherGenerators:
    def test_complete_eigenvalues(self):
        lam = laplacian_eigenvalues(gs.build_complete(100))
        assert abs(lam[0]) < 1e-9
        assert np.allclose(lam[1:], 100.0, atol=1e-9)

    def test_grid_2x2_is_ring4(self):
        g = gs.build_grid(2, 2)
        assert g.degrees().tolist() == [2, 2, 2, 2]
        assert g.num_edges == 4

    def test_comet_32_12(self):
        g = gs.build_comet(32, 12)
        assert g.n == 32
        assert g.num_edges == 31  # a tree
        assert g.degrees()[0] == 12
        assert g.is_connected()

    def test_comet_infeasible(self):
        with pytest.raises(InvalidParameterError):
            gs.build_comet(5, 5)

    def test_community_deterministic_and_connected(self):
        a = gs.build_community(64, 4, seed=1)
        b = gs.build_community(64, 4, seed=1)
        assert np.array_equal(a.adjacency, b.adjacency)
        assert a.is_connected()

    def test_random_regular(self):
        g = gs.build_random_regular(100, 10, seed=0)
        assert np.array_equal(g.degrees(), np.full(100, 10.0))
        g2 = gs.build_random_regular(100, 10, seed=0)
        assert np.array_equal(g.adjacency, g2.adjacency)

    def test_random_regular_odd_product(self):
        with pytest.raises(InvalidParameterError):
            gs.build_random_regular(5, 3)

    def test_random_regular_degree_too_big(self):
        with pytest.raises(InvalidParameterError):
            gs.build_random_regular(5, 5)

    def test_sensor_deterministic(self):
        a = gs.build_random_sensor(64, seed=3)
        b = gs.build_random_sensor(64, seed=3)
        assert np.array_equal(a.adjacency, b.adjacency)
        assert a.is_connected()
        assert a.coordinates.shape == (64, 2)


@pytest.mark.parametrize(
    "graph",
    [
        gs.build_path(10),
        gs.build_ring(9),
        gs.build_grid(4, 5),
        gs.build_complete(7),
        gs.build_comet(12, 5),
        gs.build_community(40, 4, seed=0),
        gs.build_random_regular(20, 4, seed=0),
        gs.build_random_sensor(30, seed=0),
    ],
    ids=lambda g: g.structure,
)
def test_generator_invariants(graph):
    a = graph.adjacency
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    assert np.all(a >= 0)
    lap = gs.laplacian(graph).matrix
    assert np.abs(lap.sum(axis=1)).max() < 1e-12
    lam = np.linalg.eigvalsh(lap)
    assert lam[0] > -1e-9
    if graph.structure in ("path", "ring", "grid", "complete", "comet"):
        # connected: simple zero eigenvalue
        assert lam[1] > 1e-8


class TestEdgeList:
    def test_parse_simple(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0,1,1.0\n1,2,2.5\n")
        g = gs.load_edge_list(p)
        assert g.n == 3
        assert g.adjacency[0, 1] == 1.0
        assert g.adjacency[1, 2] == 2.5

    def test_roundtrip(self, tmp_path):
        g = gs.build_grid(4, 4)
        p = tmp_path / "grid.csv"
        c = tmp_path / "coords.csv"
        gs.save_edge_list(g, p, coordinates_path=c)
        g2 = gs.load_edge_list(p, coordinates_path=c)
        assert np.array_equal(g.adjacency, g2.adjacency)
        assert np.array_equal(g.coordinates, g2.coordinates)

    def test_self_loop_rejected(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0,0,1.0\n")
        with pytest.raises(DataError):
            gs.load_edge_list(p)

    def test_malformed_line_number(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0,1,1.0\nnot-a-line\n")
        with pytest.raises(ParseError, match="line 2"):
            gs.load_edge_list(p)

    def test_conflicting_duplicate(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0,1,1.0\n1,0,2.0\n")
        with pytest.raises(DataError):
            gs.load_edge_list(p)


@pytest.mark.parametrize("weight", [np.inf, -np.inf, np.nan])
def test_non_finite_weight_rejected_before_symmetry(weight):
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    a[1, 2] = weight  # also asymmetric: the finiteness check must come first
    with pytest.raises(DataError, match="edge weights must be finite"):
        gs.Graph(a)


def test_non_finite_weight_in_edge_list(tmp_path):
    p = tmp_path / "edges.csv"
    p.write_text("0,1,1.0\n1,2,nan\n")
    with pytest.raises(DataError, match="non-finite weight on line 2"):
        gs.load_edge_list(p)


def test_graph_is_immutable():
    g = gs.build_path(4)
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 5.0


@pytest.mark.parametrize("skew, ok", [(0.9e-12, True), (1.1e-12, False)])
def test_symmetry_tolerance_edge(skew, ok):
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = 1.0
    a[1, 2] += skew
    if ok:
        assert gs.Graph(a).n == 3
    else:
        with pytest.raises(InvalidParameterError, match="adjacency must be symmetric"):
            gs.Graph(a)


class TestLaplacianStorage:
    @pytest.mark.parametrize(
        "graph",
        [gs.build_path(7), gs.build_grid(4, 5), gs.build_complete(9),
         gs.build_random_sensor(60, seed=2)],
        ids=["path", "grid", "complete", "sensor"],
    )
    def test_sparse_equals_matrix_and_is_cached(self, graph):
        lap = gs.laplacian(graph)
        s = lap.sparse
        assert s.format == "csr" and s.shape == lap.matrix.shape
        assert s.nnz == np.count_nonzero(lap.matrix)  # no stored zeros
        assert np.array_equal(s.toarray(), lap.matrix)
        assert lap.sparse is s

    def test_writable_input_is_copied_and_frozen(self):
        m = gs.laplacian(gs.build_path(4)).matrix.copy()
        lap = gs.Laplacian(matrix=m, graph=gs.build_path(4))
        assert lap.matrix is not m and np.array_equal(lap.matrix, m)
        with pytest.raises(ValueError):
            lap.matrix[0, 1] = 5.0
        m[0, 1] = 5.0  # the caller's array stays writable and separate
        assert lap.matrix[0, 1] == -1.0

    def test_read_only_input_is_kept(self):
        lap = gs.laplacian(gs.build_ring(5))
        assert gs.Laplacian(matrix=lap.matrix, graph=lap.graph).matrix is lap.matrix
