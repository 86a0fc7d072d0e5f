"""Small connected graphs, drawn by the hypothesis properties."""
import numpy as np
from hypothesis import strategies as st

import gssamp as gs


def _rows(n):
    """The largest divisor of n up to sqrt(n)."""
    return max(d for d in range(1, int(n**0.5) + 1) if n % d == 0)


def _random_weighted(n, seed):
    """A random spanning tree plus about n random extra edges, each weight in [0.2, 5)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    # each vertex after the first joins one before it in ``order``
    i = np.r_[order[1:], rng.integers(0, n, n)]
    j = np.r_[order[rng.integers(0, np.arange(1, n))], rng.integers(0, n, n)]
    a = np.zeros((n, n))
    a[i, j] = rng.uniform(0.2, 5.0, i.size)  # a repeated pair keeps one of its weights
    np.fill_diagonal(a, 0.0)
    return gs.Graph(np.maximum(a, a.T))


# One builder per kind, with the least n on which it builds a connected graph
SMALL_GRAPHS = {
    "path": (2, lambda n, seed: gs.build_path(n)),
    "ring": (3, lambda n, seed: gs.build_ring(n)),
    "grid": (2, lambda n, seed: gs.build_grid(n // _rows(n), _rows(n))),
    "comet": (2, lambda n, seed: gs.build_comet(n, 1 + seed % (n - 1))),
    "sensor": (2, lambda n, seed: gs.build_random_sensor(n, k_nearest=min(4, n - 1), seed=seed)),
    "community": (8, lambda n, seed: gs.build_community(n, 2, p_in=0.5, p_out=0.1, seed=seed)),
    "weighted": (2, _random_weighted),
}


@st.composite
def small_graph(draw, n, kinds=tuple(SMALL_GRAPHS)):
    """A connected graph on n vertices from one of the ``kinds`` that build one."""
    kind = draw(st.sampled_from(sorted(k for k in kinds if n >= SMALL_GRAPHS[k][0])))
    return SMALL_GRAPHS[kind][1](n, draw(st.integers(0, 2**16)))
