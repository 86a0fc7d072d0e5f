"""Graph representation, standard generators, Laplacian assembly, and edge-list I/O.

All graphs are finite, undirected, loopless, and weighted with nonnegative
edge weights. Randomized generators are deterministic given their seed.
"""
from __future__ import annotations

import functools
import numbers
import os
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array, csr_array, issparse, triu
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import (
    DataError,
    GenerationFailureError,
    InvalidParameterError,
    ParseError,
)

_SYM_TOL = 1e-12
# Rows per dense tile of the degree pass: a tile holds 64 n float64s (1 MiB at
# n = 2048), where a dense copy of the adjacency would hold n x n.
_TILE = 64
# Spare float64s past the end of every dense block of D - A: the hole a freed block
# leaves in the heap then fits a ``read_only`` copy of an array of the block's size,
# whose ``bytes`` object is 48 bytes longer than a numpy buffer. Without them the
# eigenvectors' copy could not reuse the hole of eigh's input block, and in some
# processes it grew the heap by an n x n block.
_SPARE = 8


@dataclass(frozen=True, eq=False)
class Graph:
    """Weighted undirected graph; two graphs compare equal only if they are one object.

    Attributes
    ----------
    adjacency : (n, n) csr_array
        Symmetric nonnegative weights with zero diagonal, given dense or in any
        scipy sparse format and stored as CSR: one weight per edge (the larger of
        two orientations, which may differ by 1e-12), sorted indices, no duplicate
        and no zero entry (an edge is a nonzero weight), and read-only ``data``,
        ``indices`` and ``indptr`` that cannot be rebound (InvalidParameterError).
        ``adjacency.toarray()`` is a dense copy.
    coordinates : (n, d) ndarray, optional
        Vertex positions for generators that have geometry.
    structure : str, optional
        Generator tag ("path", "ring", "grid", ...) used by selection
        strategies that rely on a meaningful index order.
    grid_shape : tuple, optional
        (rows, cols) for grid graphs.
    """

    adjacency: csr_array
    coordinates: np.ndarray | None = None
    structure: str | None = None
    grid_shape: tuple[int, int] | None = None

    def __post_init__(self):
        a = self.adjacency
        if not issparse(a):
            a = read_only(a, float)  # a sparse input's data goes through it in _freeze
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise InvalidParameterError("adjacency must be a nonempty square matrix")
        a = csr_array(a, copy=True)
        a.sum_duplicates()
        a.eliminate_zeros()
        if not np.isfinite(a.data).all():
            raise DataError("edge weights must be finite")
        if not abs(a - a.T).max() <= _SYM_TOL:
            raise InvalidParameterError("adjacency must be symmetric")
        if a.diagonal().any():
            raise DataError("self-loops are not allowed (nonzero diagonal)")
        if (a.data < 0.0).any():
            raise InvalidParameterError("edge weights must be nonnegative")
        # one weight per edge, the larger of its two orientations (as ``_from_edges``)
        object.__setattr__(self, "adjacency", _freeze(a.maximum(a.T)))
        if self.coordinates is not None:
            c = read_only(self.coordinates, float)
            if c.shape[:1] != a.shape[:1]:
                raise InvalidParameterError("coordinates must have one row per vertex")
            object.__setattr__(self, "coordinates", c)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def is_connected(self) -> bool:
        return components(self.adjacency) == 1


@dataclass(frozen=True)
class Laplacian:
    """Combinatorial Laplacian D - A of ``graph``, which keeps the degrees, read-only;
    ``sparse``, the CSR form of D - A, is built on first use and kept, and every dense
    block is cut from it. ``Graph`` checked the adjacency; anything but a Graph raises
    InvalidParameterError, and a degree that overflows to inf DataError."""

    graph: Graph

    def __post_init__(self):
        if not isinstance(self.graph, Graph):
            raise InvalidParameterError("a Laplacian needs a Graph")
        a = self.graph.adjacency
        # each dense tile sums its rows as numpy sums a row of the dense adjacency,
        # so the degrees are the dense row sums bit for bit (the CSR's own row sums
        # add in another order and differ in the last bits)
        degree = np.concatenate([a[r:r + _TILE].toarray().sum(axis=1)
                                 for r in range(0, a.shape[0], _TILE)])
        if not np.isfinite(degree).all():  # finite weights can overflow in a sum
            raise DataError("Laplacian entries must be finite")
        object.__setattr__(self, "degree", read_only(degree))  # not a field: eq and repr ignore it

    @property
    def n(self) -> int:
        return self.degree.shape[0]

    @functools.cached_property
    def sparse(self) -> csr_array:
        """CSR form of D - A, built on first use and kept, with read-only arrays."""
        n = self.n
        # a zero sum, an isolated vertex's degree, is not stored
        return _freeze(csr_array((self.degree, np.arange(n), np.arange(n + 1)), shape=(n, n))
                       - self.graph.adjacency)

    def _block(self, rows=None, cols=None, order="C") -> np.ndarray:
        """A fresh, writable ``order``-ordered block (D - A)[rows][:, cols] of ``sparse``
        for index arrays ``rows`` and ``cols`` (``None``: all vertices), over a buffer
        ``_SPARE`` entries longer."""
        s = self.sparse if rows is None else self.sparse[rows][:, cols]
        b = np.empty(s.shape[0] * s.shape[1] + _SPARE)[:-_SPARE].reshape(s.shape, order=order)
        s.toarray(out=b)  # an entry not stored is +0.0, as in D - A
        return b


def read_only(a, dtype=None) -> np.ndarray:
    """``a`` as a C-ordered ``dtype`` array (``None``: ``a``'s numeric dtype) over an
    immutable ``bytes`` copy, which neither the caller's memory nor a writeable flag
    can edit; C order, as the layout picks the BLAS kernel and so the rounding. An
    array already stored so is returned as is; a source the cast would change
    (complex to float, strings, objects) or a ragged nested list raises
    InvalidParameterError."""
    try:
        a = np.asarray(a)
    except ValueError as exc:  # a ragged nested list
        raise InvalidParameterError(f"cannot store a ragged sequence: {exc}") from exc
    dtype = a.dtype if dtype is None else np.dtype(dtype)
    if a.dtype.kind not in "biufc" or not np.can_cast(a.dtype, dtype, "same_kind"):
        raise InvalidParameterError(f"cannot store {a.dtype} values as {dtype}")
    base = a
    while isinstance(base, np.ndarray):
        base = base.base
    if isinstance(base, bytes) and a.flags.c_contiguous and a.dtype == dtype:
        return a
    return np.frombuffer(a.astype(dtype, copy=False).tobytes(order="C"), dtype).reshape(a.shape)


class _SealedCSR(csr_array):
    """A csr_array whose ``data``, ``indices``, ``indptr`` and shape cannot be rebound
    once ``_freeze`` has sealed it, so no scipy method can edit it in place (``setdiag``,
    ``resize``, an inserting ``__setitem__``). Every derived array (a slice, ``.T``,
    an arithmetic result) is a new object, and not sealed."""

    _LOCKED = frozenset(("data", "indices", "indptr", "_shape", "__dict__"))

    def __setattr__(self, name, value):
        if name in self._LOCKED and self.__dict__.get("_sealed", False):
            raise InvalidParameterError(f"a frozen sparse array's {name} cannot be rebound")
        super().__setattr__(name, value)


def _freeze(a: csr_array) -> csr_array:
    """``a``'s arrays as a sealed CSR array, with read-only ``data`` (as float64),
    ``indices`` and ``indptr``."""
    a = _SealedCSR(a)  # shares a's arrays
    a.data, a.indices, a.indptr = read_only(a.data, float), read_only(a.indices), read_only(a.indptr)
    a._sealed = True
    return a


def check_count(value, what: str, lo: int = 0, hi: float = np.inf) -> int:
    """Return ``value`` as an int; anything but an integer in [lo, hi], a bool
    included, raises InvalidParameterError."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and lo <= value <= hi:
        return int(value)
    bound = f"in [{lo}, {hi}]" if hi < np.inf else f">= {lo}"
    raise InvalidParameterError(f"{what} must be an integer {bound}")


def check_type(value, cls, what: str):
    """Return ``value``; anything but a ``cls`` raises InvalidParameterError."""
    if not isinstance(value, cls):
        raise InvalidParameterError(f"{what} needs a {cls.__name__}")
    return value


def components(a) -> int:
    """Number of connected components of the graph whose edges are the stored entries
    of the sparse ``a``."""
    return connected_components(a, directed=False)[0]


def laplacian(graph: Graph) -> Laplacian:
    """Assemble the combinatorial Laplacian of ``graph``.

    The result has zero row sums and is positive semidefinite.
    """
    return Laplacian(graph)


# ---------------------------------------------------------------------------
# deterministic generators


def _from_edges(n: int, i, j, w=1.0, **attrs) -> Graph:
    """Graph on n vertices with edge weights ``w`` at (i, j), mirrored to (j, i).

    Each (i, j) comes at most once; an edge given in both orientations keeps the
    larger weight on both sides.
    """
    _check_dense_fits(n)
    a = coo_array((np.broadcast_to(np.asarray(w, float), np.shape(i)), (i, j)), shape=(n, n)).tocsr()
    return Graph(a.maximum(a.T), **attrs)


def _check_dense_fits(n: int) -> None:
    """Raise MemoryError if the dense n x n float64 D - A that every eigendecomposition
    factors exceeds physical memory, before a sparse build allocates arrays of n entries."""
    if 8 * n * n > os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
        raise MemoryError(f"a dense {n} x {n} float64 block exceeds physical memory")


def build_path(n: int) -> Graph:
    """Unit-weight chain 0-1-...-(n-1). Requires n >= 2."""
    n = check_count(n, "path graph's n", 2)
    idx = np.arange(n - 1)
    coords = np.column_stack([np.linspace(0.0, 1.0, n), np.zeros(n)])
    return _from_edges(n, idx, idx + 1, coordinates=coords, structure="path")


def build_ring(n: int) -> Graph:
    """Unit-weight cycle on n >= 3 vertices."""
    n = check_count(n, "ring graph's n", 3)
    idx = np.arange(n)
    theta = 2.0 * np.pi * idx / n
    coords = np.column_stack([np.cos(theta), np.sin(theta)])
    return _from_edges(n, idx, (idx + 1) % n, coordinates=coords, structure="ring")


def build_grid(rows: int, cols: int) -> Graph:
    """4-connected 2-D grid with vertices in row-major order in [0, 1)^2."""
    rows, cols = check_count(rows, "grid's rows", 1), check_count(cols, "grid's cols", 1)
    if rows * cols < 2:
        raise InvalidParameterError("grid needs at least two vertices")
    n = rows * cols
    rr, cc = np.divmod(np.arange(n), cols)
    right = np.flatnonzero(cc + 1 < cols)
    down = np.arange(n - cols)
    coords = np.column_stack([cc / cols, rr / rows])
    return _from_edges(n, np.r_[right, down], np.r_[right + 1, down + cols],
                       coordinates=coords, structure="grid", grid_shape=(rows, cols))


def build_complete(n: int) -> Graph:
    """Complete unit-weight graph K_n."""
    n = check_count(n, "complete graph's n", 2)
    a = np.ones((n, n)) - np.eye(n)
    return Graph(a, structure="complete")


def build_comet(n: int, center_degree: int) -> Graph:
    """Comet: a star with ``center_degree`` leaves and a path tail.

    Vertex 0 is the center, vertices 1..center_degree are the star leaves,
    and the remaining n - center_degree - 1 vertices form a path appended to
    the last leaf, so the center keeps degree exactly ``center_degree``.
    """
    n = check_count(n, "comet's n", 2)
    center_degree = check_count(center_degree, "comet's center_degree", 1, n - 1)
    # vertex v > 0 hangs from the center if it is a leaf, else from v - 1
    tail = np.arange(center_degree, n - 1)
    return _from_edges(n, np.r_[np.zeros(center_degree, dtype=int), tail], np.arange(1, n),
                       structure="comet")


def _first_connected(sample, seed: int, name: str) -> Graph:
    """The first connected ``sample(rng)`` over the seeds seed, seed + 1, ... (100 tries)."""
    seed = check_count(seed, "seed")
    for attempt in range(100):
        g = sample(np.random.default_rng(seed + attempt))
        if g.is_connected():
            return g
    raise GenerationFailureError(f"{name} graph stayed disconnected after 100 seeds")


def build_community(
    n: int,
    k_communities: int,
    p_in: float = 0.3,
    p_out: float = 0.01,
    seed: int = 0,
) -> Graph:
    """Random graph with k equal-size communities.

    Edges appear independently with probability ``p_in`` inside a community
    and ``p_out`` across communities. If the sample is disconnected the
    generator retries with an incremented seed (bounded).
    """
    n = check_count(n, "community graph's n", 2)
    k_communities = check_count(k_communities, "community graph's k_communities", 1, n)
    if (any(not isinstance(p, numbers.Real) or isinstance(p, bool) for p in (p_in, p_out))
            or not (0.0 <= p_out <= 1.0 and 0.0 < p_in <= 1.0)):
        raise InvalidParameterError("probabilities must be real numbers in [0, 1], not bools")
    labels = np.arange(n) * k_communities // n  # equal-size blocks
    p = np.where(labels[:, None] == labels[None, :], p_in, p_out)

    def sample(rng):
        i, j = np.nonzero(np.triu(rng.random((n, n)) < p, k=1))
        return _from_edges(n, i, j, structure="community")

    return _first_connected(sample, seed, "community")


def build_random_regular(n: int, degree: int, seed: int = 0) -> Graph:
    """Random d-regular simple graph (pairing model with local repairs).

    Delegates to networkx, which resamples conflicting stub pairs instead of
    rejecting whole pairings (plain rejection is hopeless already at d ~ 10).
    """
    n = check_count(n, "random regular graph's n", 2)
    degree = check_count(degree, "random regular graph's degree", 1, n - 1)
    seed = check_count(seed, "seed")
    if (n * degree) % 2 != 0:
        raise InvalidParameterError("n * degree must be even")
    import networkx as nx

    try:
        g = nx.random_regular_graph(degree, n, seed=seed)
    except nx.NetworkXError as exc:
        raise GenerationFailureError(str(exc)) from exc
    return Graph(nx.to_scipy_sparse_array(g, nodelist=range(n)), structure="regular")


def build_random_sensor(n: int, k_nearest: int = 6, seed: int = 0) -> Graph:
    """Random sensor graph: uniform points in [0, 1)^2, symmetrized k-NN.

    Edge weights are exp(-d^2 / (2 sigma^2)) with sigma the mean k-NN
    distance. Disconnected samples are regenerated with an incremented seed.
    """
    n = check_count(n, "random sensor graph's n", 2)
    k_nearest = check_count(k_nearest, "random sensor graph's k_nearest", 1, n - 1)

    def sample(rng):
        pts = rng.random((n, 2))
        tree = cKDTree(pts)
        dist, nbr = tree.query(pts, k=k_nearest + 1)  # first hit is the point itself
        dist, nbr = dist[:, 1:], nbr[:, 1:]
        w = np.exp(-dist**2 / (2.0 * dist.mean() ** 2))
        return _from_edges(n, np.repeat(np.arange(n), k_nearest), nbr.ravel(), w.ravel(),
                           coordinates=pts, structure="sensor")

    return _first_connected(sample, seed, "sensor")


# ---------------------------------------------------------------------------
# edge-list I/O
#
# Format: one undirected edge per line "src,dst,weight" with 0-based integer
# vertex indices; lines starting with '#' are comments. Coordinates go in a
# sidecar CSV "vertex,x,y".


def save_edge_list(graph: Graph, path, coordinates_path=None) -> None:
    upper = triu(check_type(graph, Graph, "save_edge_list").adjacency, format="coo")
    with open(path, "w") as fh:
        fh.write("# src,dst,weight\n")
        for i, j, w in zip(upper.row, upper.col, upper.data):  # the CSR's row-major order
            fh.write(f"{i},{j},{float(w)!r}\n")
    if coordinates_path is not None:
        if graph.coordinates is None:
            raise InvalidParameterError("graph has no coordinates to save")
        with open(coordinates_path, "w") as fh:
            fh.write("# vertex,x,y\n")
            for v, (x, y) in enumerate(graph.coordinates[:, :2]):
                fh.write(f"{v},{float(x)!r},{float(y)!r}\n")


def _rows(path, fields: str, types):
    """Yield (line number, converted fields) per line of a 3-column CSV, skipping comments."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ParseError(f"expected '{fields}', got {line!r}", lineno)
            try:
                values = [convert(part) for convert, part in zip(types, parts)]
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
            yield lineno, values


def load_edge_list(path, coordinates_path=None) -> Graph:
    """Load a graph from an edge-list CSV; weights are symmetrized.

    Raises ParseError for malformed lines and DataError for self-loops,
    negative or non-finite weights, or duplicate edges with conflicting
    weights.
    """
    edges: dict[tuple[int, int], float] = {}
    nmax = -1
    for lineno, (i, j, w) in _rows(path, "src,dst,weight", (int, int, float)):
        if i < 0 or j < 0:
            raise ParseError("vertex indices must be nonnegative", lineno)
        if i == j:
            raise DataError(f"self-loop on vertex {i} (line {lineno})")
        if not np.isfinite(w):
            raise DataError(f"non-finite weight on line {lineno}")
        if w < 0:
            raise DataError(f"negative weight on line {lineno}")
        key = (min(i, j), max(i, j))
        if key in edges and abs(edges[key] - w) > 1e-12:
            raise DataError(
                f"conflicting weights for edge {key}: {edges[key]} vs {w}"
            )
        edges[key] = w
        nmax = max(nmax, i, j)
    if nmax < 1:
        raise DataError("edge list defines fewer than two vertices")
    n = nmax + 1
    coords = None
    if coordinates_path is not None:
        coords = np.zeros((n, 2))
        for lineno, (v, x, y) in _rows(coordinates_path, "vertex,x,y", (int, float, float)):
            if not 0 <= v < n:
                raise ParseError(f"vertex {v} out of range", lineno)
            coords[v] = (x, y)
    lo, hi = np.array(list(edges), dtype=int).T
    w = np.fromiter(edges.values(), dtype=float, count=len(edges))
    # both orientations, so a -0.0 weight keeps its sign on both sides
    return _from_edges(n, np.r_[lo, hi], np.r_[hi, lo], np.r_[w, w], coordinates=coords)
