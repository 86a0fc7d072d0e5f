import dataclasses
import os
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import SparseEfficiencyWarning, coo_array, csr_array
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

import gssamp as gs
from gssamp import graphs
from gssamp.errors import (
    DataError,
    GenerationFailureError,
    GssampError,
    InvalidParameterError,
    ParseError,
)


def dense_laplacian(graph):
    """D - A from the adjacency alone, independent of ``Laplacian``."""
    a = graph.adjacency.toarray()
    return np.diag(a.sum(axis=1)) - a


def laplacian_eigenvalues(graph):
    return np.linalg.eigvalsh(dense_laplacian(graph))


class TestPath:
    def test_adjacency_n3(self):
        g = gs.build_path(3)
        assert np.array_equal(g.adjacency.toarray(), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_laplacian_n2(self):
        assert np.array_equal(gs.laplacian(gs.build_path(2))._block(), [[1, -1], [-1, 1]])

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
        assert np.array_equal(gs.build_ring(4).adjacency.toarray().sum(axis=1), [2, 2, 2, 2])

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
        assert g.adjacency.toarray().sum(axis=1).tolist() == [2, 2, 2, 2]
        assert np.count_nonzero(np.triu(g.adjacency.toarray())) == 4

    def test_comet_32_12(self):
        g = gs.build_comet(32, 12)
        assert g.n == 32
        assert np.count_nonzero(np.triu(g.adjacency.toarray())) == 31  # a tree
        assert g.adjacency.toarray()[0].sum() == 12
        assert g.is_connected()

    def test_comet_infeasible(self):
        with pytest.raises(InvalidParameterError):
            gs.build_comet(5, 5)

    def test_community_deterministic_and_connected(self):
        a = gs.build_community(64, 4, seed=1)
        b = gs.build_community(64, 4, seed=1)
        assert np.array_equal(a.adjacency.toarray(), b.adjacency.toarray())
        assert a.is_connected()

    def test_random_regular(self):
        g = gs.build_random_regular(100, 10, seed=0)
        assert np.array_equal(g.adjacency.toarray().sum(axis=1), np.full(100, 10.0))
        g2 = gs.build_random_regular(100, 10, seed=0)
        assert np.array_equal(g.adjacency.toarray(), g2.adjacency.toarray())

    def test_random_regular_odd_product(self):
        with pytest.raises(InvalidParameterError):
            gs.build_random_regular(5, 3)

    def test_random_regular_degree_too_big(self):
        with pytest.raises(InvalidParameterError):
            gs.build_random_regular(5, 5)

    def test_sensor_deterministic(self):
        a = gs.build_random_sensor(64, seed=3)
        b = gs.build_random_sensor(64, seed=3)
        assert np.array_equal(a.adjacency.toarray(), b.adjacency.toarray())
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
    a = graph.adjacency.toarray()
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    assert np.all(a >= 0)
    lap = dense_laplacian(graph)
    assert np.abs(lap.sum(axis=1)).max() < 1e-12
    lam = np.linalg.eigvalsh(lap)
    assert lam[0] > -1e-9
    if graph.structure in ("path", "ring", "grid", "complete", "comet"):
        # connected: simple zero eigenvalue
        assert lam[1] > 1e-8


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: gs.build_path(2.5), "n must be an integer"),
        (lambda: gs.build_ring(4.0), "n must be an integer"),
        (lambda: gs.build_complete(3.5), "n must be an integer"),
        (lambda: gs.build_grid(2, 2.5), "cols must be an integer"),
        (lambda: gs.build_community(8.5, 2), "n must be an integer"),
        (lambda: gs.build_comet(6, 2.5), "center_degree must be an integer"),
        (lambda: gs.build_random_regular(8, 2.5), "degree must be an integer"),
        (lambda: gs.build_random_sensor(8, 2.5), "k_nearest must be an integer"),
    ],
    ids=["path", "ring", "complete", "grid", "community", "comet", "regular", "sensor"],
)
def test_generator_counts_must_be_integers(call, match):
    # each once raised a TypeError, or for the sensor graph an IndexError
    with pytest.raises(InvalidParameterError, match=match):
        call()


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: gs.build_grid(0, 5), "grid's rows must be an integer >= 1"),
        (lambda: gs.build_comet(1, 1), "comet's n must be an integer >= 2"),
        (lambda: gs.build_comet(5, 5), r"comet's center_degree must be an integer in \[1, 4\]"),
        (lambda: gs.build_community(1, 1), "community graph's n must be an integer >= 2"),
        (lambda: gs.build_random_regular(1, 1),
         "random regular graph's n must be an integer >= 2"),
        (lambda: gs.build_random_regular(8, 8),
         r"random regular graph's degree must be an integer in \[1, 7\]"),
        (lambda: gs.build_random_sensor(1, 1), "random sensor graph's n must be an integer >= 2"),
    ],
    ids=["grid-rows", "comet-n", "comet-degree", "community-n", "regular-n", "regular-degree",
         "sensor-n"],
)
def test_generator_bounds_name_the_generator(call, match):
    # n is bounded first, so a range derived from it, such as [1, n - 1], is never empty
    with pytest.raises(InvalidParameterError, match=match):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: gs.build_random_sensor(8, 3, seed=2.5),
        lambda: gs.build_random_sensor(8, 3, seed=True),
        lambda: gs.build_random_sensor(8, 3, seed=-1),
        lambda: gs.build_community(8, 2, seed="1"),
        lambda: gs.build_community(8, 2, seed=-1),
        lambda: gs.build_random_regular(8, 2, seed=2.5),
        lambda: gs.build_random_regular(8, 2, seed=-1),
    ],
    ids=["sensor-float", "sensor-bool", "sensor-negative", "community-string",
         "community-negative", "regular-float", "regular-negative"],
)
def test_generator_seeds_must_be_nonnegative_integers(call):
    # a float or string seed once ended in a TypeError or networkx's ValueError,
    # True ran as seed 1 and -1 reached numpy's SeedSequence or networkx
    with pytest.raises(InvalidParameterError, match="seed must be an integer >= 0"):
        call()


def test_graphs_compare_by_identity():
    # equality once compared the adjacency arrays and raised numpy's "truth
    # value of an array is ambiguous"
    g1, g2 = gs.build_path(3), gs.build_path(3)
    assert (g1 == g2) is False and (g1 == g1) is True
    assert (gs.laplacian(g1) == gs.laplacian(g2)) is False
    assert (gs.laplacian(g1) == gs.laplacian(g1)) is True
    assert len({g1, g2, g1}) == 2 and hash(gs.laplacian(g1)) == hash(gs.laplacian(g1))


class TestEdgeList:
    def test_parse_simple(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0,1,1.0\n1,2,2.5\n")
        g = gs.load_edge_list(p)
        assert g.n == 3
        assert g.adjacency.toarray()[0, 1] == 1.0
        assert g.adjacency.toarray()[1, 2] == 2.5

    def test_roundtrip(self, tmp_path):
        g = gs.build_grid(4, 4)
        p = tmp_path / "grid.csv"
        c = tmp_path / "coords.csv"
        gs.save_edge_list(g, p, coordinates_path=c)
        g2 = gs.load_edge_list(p, coordinates_path=c)
        assert np.array_equal(g.adjacency.toarray(), g2.adjacency.toarray())
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


@pytest.mark.parametrize("shape", [(0, 0), (2, 3), (4,)], ids=["empty", "not-square", "1-D"])
def test_adjacency_must_be_a_nonempty_square_matrix(shape):
    # an empty graph once reached eigendecompose and failed inside numpy
    with pytest.raises(InvalidParameterError, match="adjacency must be a nonempty square matrix"):
        gs.Graph(np.zeros(shape))


@pytest.mark.parametrize("coordinates", [np.zeros((3, 2)), 5.0], ids=["rows", "0-D"])
def test_coordinates_need_one_row_per_vertex(coordinates):
    # a 0-D value once ended in an IndexError
    with pytest.raises(InvalidParameterError, match="coordinates must have one row per vertex"):
        gs.Graph(np.zeros((2, 2)), coordinates=coordinates)


def test_graph_is_immutable():
    g = gs.build_path(4)
    a = g.adjacency
    with pytest.raises(ValueError):
        a[0, 1] = 5.0
    with pytest.raises(ValueError):
        a.data[0] = 5.0
    # scipy methods that rebuild and rebind the arrays once edited a checked graph:
    # setdiag added self-loops, and the Laplacian then read degrees [2, 3, 3, 2]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SparseEfficiencyWarning)
        for edit in (lambda: a.setdiag(1.0), lambda: a.resize((5, 5)),
                     lambda: setattr(a, "data", np.full(6, 5.0)),
                     lambda: setattr(a, "indices", a.indices[::-1].copy()),
                     lambda: setattr(a, "indptr", np.zeros(5, dtype=a.indptr.dtype)),
                     lambda: setattr(a, "_shape", (2, 8)), lambda: setattr(a, "__dict__", {})):
            with pytest.raises(InvalidParameterError, match="cannot be rebound"):
                edit()
    assert a.shape == (4, 4) and a.nnz == 6
    assert np.array_equal(gs.laplacian(g).degree, [1.0, 2.0, 2.0, 1.0])
    dense = a.toarray()  # a writable copy
    dense[0, 1] = 5.0
    assert a[0, 1] == 1.0
    # every read builds a new object that is not sealed
    for derived in (a[1:3], a[[0, 2]][:, [1, 3]], a.T, a @ a, a.maximum(a.T), a - a.T, a.copy()):
        assert derived is not a
        derived.data = derived.data * 2.0
    assert np.array_equal(a.toarray(), gs.build_path(4).adjacency.toarray())


@pytest.mark.parametrize("form", [np.array, csr_array, coo_array], ids=["dense", "csr", "coo"])
def test_adjacency_is_stored_as_canonical_csr(form):
    # int weights, and in sparse input a stored 0.0 and -0.0 with no mirror: weights
    # become float64, an edge is a nonzero weight, and the caller's array stays its own
    a = np.array([[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    given = form(a)
    if form is not np.array:
        c = given.tocoo()
        given = coo_array((np.r_[c.data, 0.0, -0.0], (np.r_[c.row, 0, 1], np.r_[c.col, 2, 3])),
                          shape=a.shape).asformat(given.format)
    g = gs.Graph(given)
    adj = g.adjacency
    assert adj.format == "csr" and adj.dtype == np.float64 and adj.nnz == 4
    assert adj.has_canonical_format and np.array_equal(adj.toarray(), a)
    if form is not np.array:
        assert given.data.flags.writeable and given.nnz == 6
    summed = gs.Graph(coo_array(([1.0, 1.5, 2.5], ([0, 0, 1], [1, 1, 0])), shape=(2, 2)))
    assert summed.adjacency.toarray().tolist() == [[0.0, 2.5], [2.5, 0.0]]  # COO duplicates add


def _path3_with(i, j, w):
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = 1.0
    a[i, j] = w
    return a


@pytest.mark.parametrize("form", [np.array, csr_array], ids=["dense", "csr"])
@pytest.mark.parametrize(
    "a, error, match",
    [
        (_path3_with(1, 2, 1.0 + 1.1e-12), InvalidParameterError, "adjacency must be symmetric"),
        (_path3_with(2, 1, 1.0 - 1.1e-12), InvalidParameterError, "adjacency must be symmetric"),
        (-_path3_with(0, 0, 0.0), InvalidParameterError, "edge weights must be nonnegative"),
        (_path3_with(1, 2, np.nan), DataError, "edge weights must be finite"),
        (_path3_with(1, 2, np.inf), DataError, "edge weights must be finite"),
        (_path3_with(1, 1, 1.0), DataError, "self-loops are not allowed"),
        (np.zeros((2, 3)), InvalidParameterError, "adjacency must be a nonempty square matrix"),
        (np.zeros((0, 0)), InvalidParameterError, "adjacency must be a nonempty square matrix"),
        (_path3_with(0, 0, 0.0) * (1 + 1j), InvalidParameterError, "cannot store complex128"),
    ],
    ids=["asymmetric", "asymmetric-below", "negative", "nan", "inf", "self-loop", "not-square",
         "empty", "complex"],
)
def test_refusals_hold_for_dense_and_csr_input(form, a, error, match):
    with pytest.raises(error, match=match):
        gs.Graph(form(a))
    if match == "adjacency must be symmetric":  # a skew within the tolerance passes
        assert gs.Graph(form(_path3_with(1, 2, 1.0 + 0.9e-12))).n == 3


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


@pytest.mark.parametrize("form", [np.array, csr_array], ids=["dense", "csr"])
def test_a_skew_within_the_tolerance_is_stored_as_one_weight(form):
    # both weights were once kept: D - A was then not symmetric, and eigh, kron_reduce's
    # solve and Chebyshev filtering each read another triangle of it
    a = _path3_with(0, 1, 1.0 + 9e-13)
    g = gs.Graph(form(a))
    assert g.adjacency.has_canonical_format
    assert np.array_equal(g.adjacency.toarray(), np.maximum(a, a.T))
    s = gs.laplacian(g).sparse
    assert (s != s.T).nnz == 0


class TestLaplacianStorage:
    @pytest.mark.parametrize(
        "graph",
        [gs.build_path(7), gs.build_grid(4, 5), gs.build_complete(9),
         gs.build_random_sensor(60, seed=2),
         gs.Graph(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))],
        ids=["path", "grid", "complete", "sensor", "isolated-vertex"],
    )
    def test_sparse_is_d_minus_a_and_is_cached(self, graph):
        lap = gs.laplacian(graph)
        s, want = lap.sparse, dense_laplacian(graph)
        assert s.format == "csr" and s.shape == want.shape
        assert s.nnz == np.count_nonzero(want)  # no stored zeros
        assert np.array_equal(s.toarray(), want)
        assert lap.sparse is s

    def test_every_block_is_cut_from_d_minus_a(self):
        g = gs.build_grid(3, 4)
        lap = gs.Laplacian(g)
        assert [f.name for f in dataclasses.fields(lap)] == ["graph"]
        assert not hasattr(lap, "matrix")
        want = dense_laplacian(g)  # its zeros are +0.0, and so are a block's
        r, c = np.array([0, 2, 5, 7]), np.array([1, 2, 6])
        for block, part in ((lap._block(), want), (lap._block(order="F"), want),
                            (lap._block(r, c, order="F"), want[np.ix_(r, c)])):
            assert block.tobytes() == part.tobytes() and block.flags.writeable

    def test_a_principal_block_holds_the_degrees_however_its_columns_are_given(self):
        # the degrees were once filled in only when ``cols is rows``
        g = gs.build_random_sensor(40, seed=1)
        lap = gs.laplacian(g)
        r = np.arange(3, 40, 3)
        want = dense_laplacian(g)[np.ix_(r, r)]
        for cols in (r, r.copy(), list(r)):
            assert lap._block(r, cols).tobytes() == want.tobytes()

    def test_no_dense_d_minus_a_is_kept(self):
        # D - A was once stored dense: an n x n copy that only tests read
        g = gs.build_random_sensor(512, seed=0)
        block = g.n * g.n * 8  # one n x n float64 array
        tracemalloc.start()
        try:
            lap = gs.laplacian(g)
            kept = tracemalloc.get_traced_memory()[0]
            gs.eigendecompose(lap)  # eigh factors its own throwaway copy of D - A
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept < 0.1 * block
        assert peak <= 2.5 * block  # the block and eigh's eigenvectors, then their copy
        assert set(vars(lap)) == {"graph", "degree", "sparse"}
        assert np.array_equal(lap.degree, g.adjacency.toarray().sum(axis=1))

    def test_a_freed_block_fits_a_frozen_copy_of_its_size(self):
        # eigh frees its input block just before SpectralBasis freezes the eigenvectors
        # into a bytes object, which is longer than a numpy buffer of the same entries:
        # without spare room its copy could not reuse the block's hole in the heap
        lap = gs.laplacian(gs.build_random_sensor(64, seed=0))
        for block in (lap._block(order="F"), lap._block(np.arange(0, 64, 2), np.arange(32))):
            assert block.base.nbytes >= sys.getsizeof(graphs.read_only(block).base)

    def test_a_graph_and_its_laplacian_keep_no_dense_block(self):
        # the adjacency was once a dense n x n array, and every generator filled one
        n = 512
        tracemalloc.start()
        try:
            g = gs.build_random_sensor(n, seed=0)
            lap = gs.laplacian(g)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 0.1 * n * n * 8
        assert lap.n == n and set(vars(lap)) == {"graph", "degree"}

    @pytest.mark.parametrize("seed", [0, 3, 4, 5])
    def test_degrees_are_the_dense_row_sums(self, seed):
        # 300 rows: four whole tiles of the degree pass and a partial one; the
        # CSR's own row sums add in another order and differ in the last bits
        g = gs.build_random_sensor(300, seed=seed)
        assert np.array_equal(gs.laplacian(g).degree, g.adjacency.toarray().sum(axis=1))

    def test_overflowing_degree_raises(self):
        # finite weights whose sum overflows: the graph is valid, its Laplacian is not
        g = gs.Graph(np.array([[0.0, 1e308, 1e308], [1e308, 0.0, 0.0], [1e308, 0.0, 0.0]]))
        with np.errstate(over="ignore"):
            with pytest.raises(DataError, match="Laplacian entries must be finite"):
                gs.laplacian(g)

    @pytest.mark.parametrize("build", [gs.Laplacian, gs.laplacian], ids=["class", "builder"])
    def test_non_graph_rejected(self, build):
        for graph in (np.eye(3), None, gs.laplacian(gs.build_path(3))):
            with pytest.raises(InvalidParameterError, match="a Laplacian needs a Graph"):
                build(graph)


def _read_only_view(a):
    view = a.view()
    view.flags.writeable = False
    return view


@pytest.mark.parametrize("kind", ["basis", "spectrum"])
def test_read_only_view_of_writable_memory_is_copied(kind):
    # a read-only view does not freeze the caller's memory under it
    basis = gs.eigendecompose(gs.laplacian(gs.build_path(6)))
    base = {"basis": basis.eigenvectors, "spectrum": basis.eigenvalues}[kind].copy()
    view = _read_only_view(base)
    if kind == "basis":
        frozen = gs.SpectralBasis(basis.eigenvalues, view).eigenvectors
    else:
        frozen = gs.Spectrum(view, _read_only_view(basis.eigenvalues.copy())).coefficients
    assert not np.shares_memory(frozen, base) and not frozen.flags.writeable
    want = base.copy()
    base[...] = 0.0
    assert np.array_equal(frozen, want)


def _array_and_bases(a):
    """``a`` and each ndarray in its ``.base`` chain."""
    while isinstance(a, np.ndarray):
        yield a
        a = a.base


def _exposed_arrays(graph, seed):
    """Every array that the objects built on ``graph`` expose, by name."""
    lap = gs.laplacian(graph)
    basis = gs.eigendecompose(lap)
    reduced = gs.kron_reduce(lap, gs.select_polarity(basis, graph.n // 2))
    level = gs.build_chain(lap, basis, 2)[-1]  # a sparsified Kron level and its reduction
    spectrum = gs.gft(basis, np.random.default_rng(seed).standard_normal(graph.n))
    ring = gs.SamplingContext(*gs.ring_sampling_bases(graph.n, graph.n // 2))  # complex
    out = {"coefficients": spectrum.coefficients, "grid": spectrum.grid,
           "kron.targets": reduced.correspondence.targets, "level.targets":
           level.correspondence.targets}
    for name, g in (("graph", graph), ("kron", reduced.graph), ("level", level.lap.graph)):
        out.update({f"{name}.adjacency.{k}": getattr(g.adjacency, k)
                    for k in ("data", "indices", "indptr")})
        out[f"{name}.coordinates"] = g.coordinates
    for name, lp in (("lap", lap), ("level", level.lap)):
        out.update({f"{name}.degree": lp.degree,
                    f"{name}.sparse.data": lp.sparse.data,
                    f"{name}.sparse.indices": lp.sparse.indices,
                    f"{name}.sparse.indptr": lp.sparse.indptr})
    out.update({"eigenvalues": basis.eigenvalues, "eigenvectors": basis.eigenvectors})
    for name, ctx in (("down", level.ctx_down), ("up", level.ctx_up), ("ring", ring)):
        out.update({f"{name}.{k}": getattr(ctx, k) for k in ("u0", "u1", "lambdas0", "lambdas1")})
    return {name: a for name, a in out.items() if a is not None}


@settings(max_examples=30, deadline=None)
@given(
    build=st.sampled_from([
        lambda n, seed: gs.build_path(n),
        lambda n, seed: gs.build_ring(n),
        lambda n, seed: gs.build_grid(2, n // 2),
        lambda n, seed: gs.build_comet(n, 3),
        lambda n, seed: gs.build_random_sensor(n, k_nearest=4, seed=seed),
    ]),
    n=st.sampled_from([8, 12, 16, 20, 24]),
    seed=st.integers(0, 2**16),
)
def test_no_exposed_array_can_be_made_writable(build, n, seed):
    # a writeable flag set back once let a caller zero a basis's kept analysis
    for name, a in _exposed_arrays(build(n, seed), seed).items():
        for x in _array_and_bases(a):
            with pytest.raises(ValueError, match="WRITEABLE"):
                x.flags.writeable = True
            assert not x.flags.writeable, name


_PAIR = np.ones((2, 2)) - np.eye(2)


@pytest.mark.parametrize(
    "bad",
    [_PAIR * (1 + 1j), _PAIR.astype(str), [[0, [1]], [1]]],  # ragged at depth 1 and, in bad[0], 2
    ids=["complex", "string", "ragged"],
)
@pytest.mark.parametrize(
    "build",
    [
        lambda bad: gs.Graph(bad),
        lambda bad: gs.Graph(_PAIR, coordinates=bad),
        lambda bad: gs.SpectralBasis(bad[0], np.eye(2)),
        lambda bad: gs.Spectrum(np.ones(2), bad[0]),
    ],
    ids=["adjacency", "coordinates", "eigenvalues", "grid"],
)
def test_complex_or_string_input_refused(build, bad):
    # once a complex part was dropped with numpy's ComplexWarning, numeric
    # strings were parsed as weights, and a ragged list raised numpy's ValueError
    with pytest.raises(GssampError, match="cannot store"):
        build(bad)


# The adjacency fills each builder had before they shared ``graphs._from_edges``,
# kept as references: the shared constructor must give the same bytes.


def loop_path(n):
    a = np.zeros((n, n))
    idx = np.arange(n - 1)
    a[idx, idx + 1] = 1.0
    a[idx + 1, idx] = 1.0
    coords = np.column_stack([np.linspace(0.0, 1.0, n), np.zeros(n)])
    return gs.Graph(a, coordinates=coords, structure="path")


def loop_ring(n):
    a = np.zeros((n, n))
    idx = np.arange(n)
    nxt = (idx + 1) % n
    a[idx, nxt] = 1.0
    a[nxt, idx] = 1.0
    theta = 2.0 * np.pi * idx / n
    coords = np.column_stack([np.cos(theta), np.sin(theta)])
    return gs.Graph(a, coordinates=coords, structure="ring")


def loop_grid(rows, cols):
    n = rows * cols
    a = np.zeros((n, n))
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                a[v, v + 1] = a[v + 1, v] = 1.0
            if r + 1 < rows:
                a[v, v + cols] = a[v + cols, v] = 1.0
    rr, cc = np.divmod(np.arange(n), cols)
    coords = np.column_stack([cc / cols, rr / rows])
    return gs.Graph(a, coordinates=coords, structure="grid", grid_shape=(rows, cols))


def loop_comet(n, center_degree):
    a = np.zeros((n, n))
    for leaf in range(1, center_degree + 1):
        a[0, leaf] = a[leaf, 0] = 1.0
    prev = center_degree
    for v in range(center_degree + 1, n):
        a[prev, v] = a[v, prev] = 1.0
        prev = v
    return gs.Graph(a, structure="comet")


def loop_sensor(n, k_nearest, seed):
    for attempt in range(100):
        rng = np.random.default_rng(seed + attempt)
        pts = rng.random((n, 2))
        dist, nbr = cKDTree(pts).query(pts, k=k_nearest + 1)
        dist, nbr = dist[:, 1:], nbr[:, 1:]
        sigma = dist.mean()
        a = np.zeros((n, n))
        for i in range(n):
            w = np.exp(-dist[i] ** 2 / (2.0 * sigma**2))
            a[i, nbr[i]] = np.maximum(a[i, nbr[i]], w)
        g = gs.Graph(np.maximum(a, a.T), coordinates=pts, structure="sensor")
        if g.is_connected():
            return g
    raise GenerationFailureError("sensor graph stayed disconnected after 100 seeds")


def loop_edge_list(n, edges):
    a = np.zeros((n, n))
    for (i, j), w in edges.items():
        a[i, j] = a[j, i] = w
    return gs.Graph(a)


def assert_same_bytes(got, want):
    assert got.adjacency.shape == want.adjacency.shape
    assert got.adjacency.toarray().tobytes() == want.adjacency.toarray().tobytes()
    assert (got.structure, got.grid_shape) == (want.structure, want.grid_shape)
    if want.coordinates is None:
        assert got.coordinates is None
    else:
        assert got.coordinates.tobytes() == want.coordinates.tobytes()


def outcome(build, *args):
    try:
        return build(*args)
    except GenerationFailureError as exc:
        return str(exc)


_edge_weights = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1e-300]),
    st.floats(min_value=0.0, max_value=1e6, allow_subnormal=True),
)


class TestSharedEdgeConstructor:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 40), m=st.integers(1, 8))
    def test_path_ring_grid_comet(self, n, m):
        assert_same_bytes(gs.build_path(n), loop_path(n))
        if n >= 3:
            assert_same_bytes(gs.build_ring(n), loop_ring(n))
        assert_same_bytes(gs.build_grid(m, n), loop_grid(m, n))
        assert_same_bytes(gs.build_grid(n, m), loop_grid(n, m))
        for center_degree in {1, min(m, n - 1), n - 1}:
            assert_same_bytes(gs.build_comet(n, center_degree), loop_comet(n, center_degree))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 120), k=st.integers(1, 8), seed=st.integers(0, 10**6))
    def test_random_sensor(self, n, k, seed):
        k = min(k, n - 1)
        got, want = outcome(gs.build_random_sensor, n, k, seed), outcome(loop_sensor, n, k, seed)
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_bytes(got, want)

    @settings(max_examples=150, deadline=None)
    @given(
        edges=st.dictionaries(
            st.tuples(st.integers(0, 12), st.integers(0, 12))
            .filter(lambda e: e[0] < e[1]),
            _edge_weights,
            min_size=1,
            max_size=30,
        ),
        flips=st.lists(st.booleans(), min_size=30, max_size=30),
    )
    def test_edge_list_loader(self, edges, flips):
        lines = ["# src,dst,weight", ""]
        for ((i, j), w), flip in zip(edges.items(), flips):
            lines.append(f"{j},{i},{w!r}" if flip else f"{i},{j},{w!r}")
        n = 1 + max(max(e) for e in edges)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "edges.csv")
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            assert_same_bytes(gs.load_edge_list(path), loop_edge_list(n, edges))


# Array sides: any size up to 200, and the sizes around whole multiples of 64
# more often than a uniform draw gives.
_sides = st.one_of(st.integers(0, 200), st.sampled_from([1, 63, 64, 65, 127, 128, 129, 130]))


@settings(max_examples=100, deadline=None)
@given(
    rows=_sides,
    cols=_sides,
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from([np.float64, np.complex128, np.int64]),
    layout=st.sampled_from(["F", "transposed", "strided"]),
)
def test_read_only_copies_into_c_order(rows, cols, seed, dtype, layout):
    base = np.random.default_rng(seed).standard_normal((2 * rows, 2 * cols)).astype(dtype)
    a = {
        "F": np.asfortranarray(base[:rows, :cols]),
        "transposed": base[:rows, :cols].copy().T,
        "strided": base[::2, ::2],
    }[layout]
    got = graphs.read_only(a)
    assert got.tobytes() == a.copy().tobytes() and got.dtype == a.dtype
    assert got.flags.c_contiguous and not got.flags.writeable
    assert a.flags.writeable and not np.shares_memory(got, a)
    top = got[: rows // 2]  # a C-ordered view of the bytes-backed copy: kept as is
    assert graphs.read_only(got) is got and graphs.read_only(top, dtype) is top


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 25), data=st.data())
def test_components_counts_every_nonzero_weight(n, data):
    weight = st.sampled_from([0.0, 0.0, 0.0, 0.0, 1e-300, 1e-9, 0.5, 2.0])
    drawn = data.draw(st.lists(weight, min_size=n * n, max_size=n * n))
    upper = np.triu(np.reshape(drawn, (n, n)), 1)
    a = upper + upper.T
    # scipy's dense input path reads a weight <= 1e-8 as no edge, so the
    # reference counts on the 0/1 pattern of the edges
    want = connected_components((a != 0).astype(float), directed=False)[0]
    assert graphs.components(gs.Graph(a).adjacency) == want
    assert graphs.components(gs.laplacian(gs.Graph(a)).sparse) == want
    assert gs.Graph(a).is_connected() == (want == 1)


class TestReaderErrors:
    @pytest.mark.parametrize(
        "text, match",
        [
            ("0,1,1.0\n\n# note\n1,2\n", "line 4: expected 'src,dst,weight'"),
            ("0,1,1.0\n1,x,1.0\n", "line 2: invalid literal for int"),
            ("0,1,heavy\n", "line 1: could not convert string to float"),
            ("0,1,1.0\n-1,1,1.0\n", "line 2: vertex indices must be nonnegative"),
        ],
    )
    def test_edge_file(self, text, match, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match=match):
            gs.load_edge_list(p)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("0,1,1.0\n1,2,-0.5\n", "negative weight on line 2"),
            ("# src,dst,weight\n", "edge list defines fewer than two vertices"),
        ],
        ids=["negative-weight", "no-edges"],
    )
    def test_edge_data(self, text, match, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(text)
        with pytest.raises(DataError, match=match):
            gs.load_edge_list(p)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("# vertex,x,y\n0,0.5\n", "line 2: expected 'vertex,x,y'"),
            ("0,0.5,0.5\n1.5,0.5,0.5\n", "line 2: invalid literal for int"),
            ("0,0.5,y\n", "line 1: could not convert string to float"),
            ("\n3,0.5,0.5\n", "line 2: vertex 3 out of range"),
        ],
    )
    def test_coordinate_file(self, text, match, tmp_path):
        p, c = tmp_path / "g.csv", tmp_path / "c.csv"
        p.write_text("0,1,1.0\n1,2,1.0\n")
        c.write_text(text)
        with pytest.raises(ParseError, match=match):
            gs.load_edge_list(p, coordinates_path=c)
