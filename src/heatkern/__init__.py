"""Heat kernels on finite measured graphs, built by starter-plus-series.

The workflow is: assemble a measured space from points, a measure, and
symmetric edge conductances; pick a starter kernel (parametrix) that is
right at time zero; correct it with an alternating convolution series to
a certified tolerance; then cross-check the result against an eigensolver
oracle and derive Green's functions, resistances, entropies, and
subordinated kernels from it.
"""

from .errors import (
    CertificateError,
    HeatKernelError,
    InputError,
)
from .space import (
    Conductance,
    DegreeVector,
    PointSpace,
    build_space,
    connected_components,
    degree_vector,
    energy_inner,
    generator,
    graph_distances,
)
from .spectral import SpectralData, eigh_weighted, expm_series, jacobi_eigh, spectral_heat
from .timekernel import (
    ChebKernel,
    ClosedFormKernel,
    FoldCache,
    QuadratureConfig,
    SemigroupKernel,
    SeparableKernel,
    TimeKernel,
    bound_ell_fold,
    convolve,
    series_tail_bound,
)
from .parametrix import (
    Parametrix,
    ParametrixReport,
    dirac_parametrix,
    profile_parametrix,
    rkhs_parametrix,
    spectral_parametrix,
    validate,
)
from .neumann import (
    HeatKernelResult,
    build_heat_kernel,
    cross_parametrix_build,
    heat_residual,
)
from .derived import (
    GreenResult,
    HeatDiagnostics,
    PoissonResult,
    diagnostics,
    entropy,
    green_regularized,
    poisson_kernel,
    resistance_by_current,
    resistance,
    resolvent,
    semigroup_defect,
)
from .graphio import (
    ball_truncate,
    integer_line,
    load_edges,
    load_graph,
    load_measure,
    read_matrix_csv,
    write_matrix_csv,
)
from .config import RunConfig, parse_config, parse_config_text

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
