"""Down- and upsampling of graph signals in the graph spectral domain.

Library layout:

* :mod:`gssamp.graphs` — graph types, generators, edge-list I/O
* :mod:`gssamp.spectral` — eigendecomposition, GFT, spectrum interpolation
* :mod:`gssamp.classical` — time/DFT-domain sampling oracle
* :mod:`gssamp.sampling` — vertex/index/spectrum sampling operators
* :mod:`gssamp.reduction` — Kron reduction, selection, spectral bisection
* :mod:`gssamp.pyramid` — graph Laplacian pyramid and nonlinear approximation
* :mod:`gssamp.cli` — experiment runner
"""

from .errors import (
    DataError,
    GenerationFailureError,
    GssampError,
    InvalidParameterError,
    NumericError,
    ParseError,
    RangeError,
)
from .graphs import (
    Graph,
    Laplacian,
    build_comet,
    build_community,
    build_complete,
    build_grid,
    build_path,
    build_random_regular,
    build_random_sensor,
    build_ring,
    laplacian,
    load_edge_list,
    save_edge_list,
)
from .spectral import (
    SpectralBasis,
    Spectrum,
    eigendecompose,
    gft,
    igft,
    interpolate_spectrum,
)
from .classical import (
    downsample_dft,
    downsample_time,
    dft_matrix,
    ring_sampling_bases,
    upsample_dft,
    upsample_time,
)
from .sampling import (
    OPERATORS,
    SamplingContext,
    VertexCorrespondence,
    apply_operator,
    fractional_downsample,
    ideal_lowpass_index,
    ideal_lowpass_lambda,
    spectral_downsample_index,
    spectral_downsample_spectrum,
    spectral_upsample_index,
    spectral_upsample_spectrum,
    vertex_downsample,
    vertex_upsample,
)
from .reduction import (
    ReductionResult,
    kron_reduce,
    make_cluster_band_signal,
    select_every_other,
    select_polarity,
    sparsify,
    spectral_bisection,
)
from .pyramid import (
    FilterSpec,
    PyramidConfig,
    PyramidDecomposition,
    analyze,
    build_chain,
    decompose,
    filter_signal,
    halving_lowpass,
    nla_error_curve,
    nonlinear_approximate,
    synthesize,
)

__version__ = "0.1.0"
