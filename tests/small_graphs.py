"""Small connected generator graphs, drawn by the hypothesis properties."""
from hypothesis import strategies as st

import gssamp as gs


def _rows(n):
    """The largest divisor of n up to sqrt(n)."""
    return max(d for d in range(1, int(n**0.5) + 1) if n % d == 0)


# One builder per generator, with the least n on which it builds a connected graph
SMALL_GRAPHS = {
    "path": (2, lambda n, seed: gs.build_path(n)),
    "ring": (3, lambda n, seed: gs.build_ring(n)),
    "grid": (2, lambda n, seed: gs.build_grid(n // _rows(n), _rows(n))),
    "comet": (2, lambda n, seed: gs.build_comet(n, 1 + seed % (n - 1))),
    "sensor": (2, lambda n, seed: gs.build_random_sensor(n, k_nearest=min(4, n - 1), seed=seed)),
    "community": (8, lambda n, seed: gs.build_community(n, 2, p_in=0.5, p_out=0.1, seed=seed)),
}


@st.composite
def small_graph(draw, n, kinds=tuple(SMALL_GRAPHS)):
    """A connected graph on n vertices from one of the ``kinds`` of generator that build one."""
    kind = draw(st.sampled_from(sorted(k for k in kinds if n >= SMALL_GRAPHS[k][0])))
    return SMALL_GRAPHS[kind][1](n, draw(st.integers(0, 2**16)))
