"""High-order space-time trajectory reconstruction and kinematics.

Particle tracks arrive as discrete (t, x[, y[, z]]) samples; this package
fits each axis with piecewise degree-N polynomials and extracts
instantaneous velocity/acceleration, curvilinear path lengths, and summary
velocities. Unlimited (``limiter="none"``), the pieces pass through every
sample and are continuous across cells, up to the rounding of their
coefficients. The CWENO limiter, the CLI default, blends each piece with
one-sided linear candidates that all pass through the cell's left sample:
the limited curve keeps that sample but can miss the right one and jump at
the interface. A validation harness reproduces the method's convergence
benchmark and its comparison against plain linear linking.

The names below load their submodule, and with it numpy, on first use
(PEP 562), so that `shotr.cli` can choose numpy's BLAS threads before
numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "errors": ("CheckFailed", "DuplicateTimestamp", "MalformedRow", "NonMonotoneTimes",
                   "OutOfDomain", "ShotrError", "UnsupportedDegree"),
        "trajdata": ("TrackSeries", "TrackSet", "parse_tracks", "split_axes"),
        "mesh": ("StaggeredMesh", "build_mesh"),
        "quadrature": ("gauss_legendre", "gauss_points"),
        "recon": ("CellPoly", "PiecewisePoly", "TaylorBasis", "effective_degree",
                  "reconstruct_track", "reconstruct_tracks", "reconstruction_operators"),
        "cweno": ("CwenoConfig", "blend", "candidates", "limit_piecewise",
                  "nonlinear_weights", "oscillation_indicators", "side_lines"),
        "geometry": ("cell_lengths", "trajectory_length"),
        "kinematics": ("KinematicSample", "VelocitySummary", "dense_times", "eval_at",
                       "sample_dense", "summarize"),
        "validate": ("CASES", "BacktraceResult", "ComparisonRow", "ConvergenceRow",
                     "ErrorNorms", "SyntheticCase", "backtrace", "compare_spt",
                     "error_norms", "get_case", "run_convergence"),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
