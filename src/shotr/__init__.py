"""High-order space-time trajectory reconstruction and kinematics.

Particle tracks arrive as discrete (t, x[, y[, z]]) samples; this package
fits each axis with piecewise degree-N polynomials that interpolate every
sample and stay continuous across cells, optionally limited against
spurious oscillations, and extracts instantaneous velocity/acceleration,
curvilinear path lengths, and summary velocities. A validation harness
reproduces the method's convergence benchmark and its comparison against
plain linear linking.
"""

from .errors import (
    CheckFailed,
    DuplicateTimestamp,
    MalformedRow,
    NonMonotoneTimes,
    OutOfDomain,
    ShotrError,
    UnsupportedDegree,
)
from .trajdata import AxisSeries, TrackSeries, TrackSet, parse_tracks, split_axes
from .mesh import StaggeredMesh, build_mesh, locate_cell
from .quadrature import gauss_legendre, gauss_points
from .recon import (
    CellPoly,
    PiecewisePoly,
    TaylorBasis,
    effective_degree,
    reconstruct_axis,
    reconstruct_track,
    reconstruction_operators,
)
from .cweno import (
    CwenoConfig,
    blend,
    candidates,
    limit_piecewise,
    nonlinear_weights,
    oscillation_indicators,
    side_lines,
)
from .geometry import (
    NodalBasis,
    cell_lengths,
    nodal_basis_derivatives,
    nodal_positions,
    trajectory_length,
)
from .kinematics import (
    KinematicSample,
    VelocitySummary,
    dense_times,
    eval_at,
    sample_dense,
    summarize,
)
from .validate import (
    CASES,
    BacktraceResult,
    ComparisonRow,
    ConvergenceRow,
    ErrorNorms,
    SyntheticCase,
    backtrace,
    compare_spt,
    error_norms,
    get_case,
    rk_step,
    run_convergence,
)

__version__ = "0.1.0"
