"""Graph-size reduction and partitioning.

Kron reduction (Schur complement of the eliminated vertex block), optional
edge sparsification, vertex-selection strategies, spectral bisection, and the
two-cluster band-limited test-signal construction.
"""
from __future__ import annotations

import numbers
from collections.abc import Sized
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.sparse import coo_array, csr_array
from scipy.sparse.csgraph import minimum_spanning_tree

from .errors import DataError, InvalidParameterError, NumericError
from .graphs import Graph, Laplacian, check_count, check_type, components
from .sampling import VertexCorrespondence
from .spectral import SpectralBasis, _check_ascending

_NEG_WEIGHT_TOL = 1e-10


class ReductionResult(NamedTuple):
    graph: Graph
    correspondence: VertexCorrespondence


def kron_reduce(lap: Laplacian, keep) -> ReductionResult:
    """Eliminate all vertices outside ``keep`` via the Schur complement.

    L1 = L_SS - L_{S,Sc} L_{Sc,Sc}^{-1} L_{Sc,S}. For a connected loopless
    graph the result is again a Laplacian; tiny negative off-diagonal
    round-off is clamped to zero. Each block is built when it is consumed, so at
    most three dense blocks of the eliminated set's size are alive at once.
    """
    check_type(lap, Laplacian, "kron_reduce")
    keep = np.asarray(keep)
    if keep.ndim != 1:  # before np.unique, which flattens
        raise InvalidParameterError("keep set must be a 1-D array of vertex indices")
    # integer, injective and nonnegative: the correspondence's rules
    correspondence = VertexCorrespondence(np.unique(keep))
    keep, n = correspondence.targets, lap.n
    if not 0 < keep.size < n or keep[-1] >= n:
        raise InvalidParameterError(f"keep set must be a nonempty proper subset of range({n})")
    mask = np.zeros(n, dtype=bool)
    mask[keep] = True
    elim = np.nonzero(~mask)[0]
    try:
        # LAPACK factors the throwaway Fortran-ordered L_ee and overwrites L_es with
        # the solution, so solve copies neither; both are finite (``Graph``, ``Laplacian``)
        solved = scipy.linalg.solve(
            lap._block(elim, elim, order="F"), lap._block(elim, keep, order="F"),
            assume_a="sym", overwrite_a=True, overwrite_b=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        # a block of a connected graph's Laplacian is nonsingular, so look
        # for the usual cause only on this failure path
        ncomp = components(lap.graph.adjacency)
        if ncomp > 1:
            raise DataError(f"graph is disconnected ({ncomp} components)") from exc
        raise NumericError(f"eliminated block is singular: {exc}") from exc
    # C order, as the GEMM's operand layouts pick OpenBLAS's kernel (its small-matrix
    # kernels sum in another order for a transposed operand), and so the rounding
    solved = np.ascontiguousarray(solved)  # L_ee and the Fortran-ordered L_es are freed
    product = lap._block(keep, elim) @ solved
    del solved
    l1 = lap._block(keep, keep)
    np.subtract(l1, product, out=l1)  # l1 - product, with no third block
    del product
    np.add(l1, l1.T, out=l1)  # numpy copies the overlapping l1.T first
    l1 *= 0.5  # 0.5 * (l1 + l1.T) bit for bit, exactly symmetric
    w = np.negative(l1, out=l1)
    np.fill_diagonal(w, 0.0)
    if np.any(w < -_NEG_WEIGHT_TOL):
        raise NumericError(
            f"Kron reduction produced negative weight {w.min():.3e}; "
            "input graph is likely disconnected"
        )
    np.maximum(w, 0.0, out=w)
    coords = None
    if lap.graph.coordinates is not None:
        coords = lap.graph.coordinates[keep]
    return ReductionResult(Graph(csr_array(w), coordinates=coords), correspondence)


def sparsify(graph: Graph, threshold_ratio: float) -> Graph:
    """Drop edges lighter than threshold_ratio * max weight, keeping connectivity.

    If the thresholded graph is disconnected, removed edges are restored in
    decreasing (weight, i, j) order: the shortest such prefix that reconnects
    it, or all of them if none does.
    """
    check_type(graph, Graph, "sparsify")
    if (not isinstance(threshold_ratio, numbers.Real) or isinstance(threshold_ratio, bool)
            or not 0.0 <= threshold_ratio < 1.0):
        raise InvalidParameterError("threshold_ratio must be a real number in [0, 1), not a bool")
    a = graph.adjacency
    if threshold_ratio == 0.0 or a.nnz == 0:
        return graph
    rows = np.repeat(np.arange(graph.n), np.diff(a.indptr))  # with a.indices, row-major
    # every stored weight is positive, and the same both ways (``Graph``)
    weak = a.data < threshold_ratio * a.data.max()
    key, mirror = rows * graph.n + a.indices, a.indices * np.int64(graph.n) + rows
    if components(_entries(a, rows, ~weak)) > 1:
        upper = np.flatnonzero(weak & (rows < a.indices))
        upper = upper[np.lexsort((-a.indices[upper], -rows[upper], -a.data[upper]))]
        # Rank kept edges 1 and the removed edge at position p rank p + 2.
        # Every minimum spanning tree minimises its heaviest edge, so its
        # heaviest rank r is the least for which the edges ranked <= r
        # connect the graph: the shortest reconnecting prefix has r - 1
        # edges. A spanning forest means no prefix reconnects.
        ranks = np.r_[np.ones(np.count_nonzero(~weak)), np.arange(2.0, upper.size + 2)]
        edges = (np.r_[rows[~weak], rows[upper]], np.r_[a.indices[~weak], a.indices[upper]])
        tree = minimum_spanning_tree(coo_array((ranks, edges), shape=a.shape))
        k = int(tree.max()) - 1 if tree.nnz == graph.n - 1 else upper.size
        # restore both orientations of each edge of the prefix
        weak &= ~np.isin(key, np.r_[key[upper[:k]], mirror[upper[:k]]])
    return Graph(_entries(a, rows, ~weak), coordinates=graph.coordinates,
                 structure=graph.structure, grid_shape=graph.grid_shape)


def _entries(a: csr_array, rows, mask) -> csr_array:
    """The entries of ``a`` (of rows ``rows``) that ``mask`` selects, as a CSR array."""
    return csr_array((a.data[mask], (rows[mask], a.indices[mask])), shape=a.shape)


def select_every_other(graph: Graph, m: int):
    """Keep indices 0 mod M on path/ring structures; stride sqrt(M) on grids."""
    check_type(graph, Graph, "select_every_other")
    m = check_count(m, "rate", 2)
    if graph.structure in ("path", "ring"):
        return np.arange(0, graph.n, m)
    if graph.structure == "grid":
        s = round(m**0.5)
        if s * s != m:
            raise InvalidParameterError("grid selection needs a square rate")
        rows, cols = graph.grid_shape
        keep = [
            r * cols + c for r in range(0, rows, s) for c in range(0, cols, s)
        ]
        return np.asarray(keep)
    raise InvalidParameterError(
        f"no index-structured selection for structure {graph.structure!r}"
    )


def select_polarity(basis: SpectralBasis, target_size: int) -> np.ndarray:
    """Vertex set from the sign pattern of the top eigenvector.

    Start with the vertices where the largest-eigenvalue eigenvector is
    positive, then grow/shrink to ``target_size`` by |entry| ranking
    (ties broken by index). Deterministic given the basis, whose eigenvalues
    must ascend.
    """
    _check_ascending(check_type(basis, SpectralBasis, "select_polarity").eigenvalues)
    target_size = check_count(target_size, "target_size", 1, basis.n - 1)
    u = basis.eigenvectors[:, -1]
    mag_order = np.lexsort((np.arange(basis.n), -np.abs(u)))
    # positives first, each side by rank: shrinking drops the smallest
    # positives, growing adds the largest non-positives
    ranked = mag_order[np.argsort(~(u[mag_order] > 0), kind="stable")]
    return np.sort(ranked[:target_size])


def spectral_bisection(basis: SpectralBasis) -> tuple[np.ndarray, np.ndarray]:
    """Split vertices by the sign of the Fiedler vector.

    Zero entries join the nonnegative cluster. Requires ascending eigenvalues
    and a connected graph (positive second eigenvalue).
    """
    _check_ascending(check_type(basis, SpectralBasis, "spectral_bisection").eigenvalues)
    if basis.n < 2 or basis.eigenvalues[1] <= 1e-10:
        raise InvalidParameterError("spectral bisection needs a connected graph")
    fiedler = basis.eigenvectors[:, 1]
    pos = np.nonzero(fiedler >= 0)[0]
    neg = np.nonzero(fiedler < 0)[0]
    return pos, neg


def make_cluster_band_signal(
    basis: SpectralBasis, clusters, bands
) -> np.ndarray:
    """Two-cluster test signal with one spectral band per cluster.

    f_j[n] = 1{n in cluster j} * sum_k u_k[n] 1{band_j contains lambda_k};
    the result is f_1/||f_1||_inf + f_2/||f_2||_inf.
    """
    check_type(basis, SpectralBasis, "make_cluster_band_signal")
    if not all(isinstance(pair, Sized) and len(pair) == 2 for pair in (clusters, bands)):
        raise InvalidParameterError("need exactly two clusters and two bands")
    out = np.zeros(basis.n)
    for cluster, (lo, hi) in zip(clusters, bands):
        if lo > hi or lo < 0 or hi > basis.lambda_max * (1 + 1e-12):
            raise InvalidParameterError(f"band [{lo}, {hi}] out of range")
        in_band = (basis.eigenvalues >= lo) & (basis.eigenvalues <= hi)
        if not np.any(in_band):
            raise InvalidParameterError(f"band [{lo}, {hi}] contains no eigenvalue")
        idx = VertexCorrespondence(cluster).targets  # distinct nonnegative integers
        if idx.size and idx.max() >= basis.n:
            raise InvalidParameterError(
                f"cluster vertex {idx.max()} out of range for graph size {basis.n}")
        comp = np.zeros(basis.n)
        comp[idx] = basis.eigenvectors[np.ix_(idx, np.nonzero(in_band)[0])].sum(axis=1)
        peak = np.abs(comp).max()
        if peak == 0.0:
            raise InvalidParameterError("band signal vanishes on its cluster")
        out += comp / peak
    return out
