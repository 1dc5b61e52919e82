"""Nonlinear CWENO limiting of the reconstruction polynomials.

High-degree polynomials through rough data oscillate. Each cell's optimal
(unlimited) polynomial is therefore blended with two linear candidates
anchored at the cell's left interface sample: the backward line to the
previous sample and the forward line to the next one (the latter is the
cell's own linear-linking segment). Data-dependent weights built from
oscillation indicators pick the smooth candidates, recovering the optimal
polynomial on smooth data and collapsing to the flatter line across a jump.

The limiter has one set of constants, defined once in ``CwenoConfig``:
linear weights 200/202 (central) and 1/202 (each side), epsilon 1e-14 and
exponent 4. They are not settable.

All cells are limited at once: candidates are ``(n_cells, 3, N + 1)``
coefficient arrays in the cells' Taylor bases, stacked central, left, right.
The cells are the fit's mesh, and the samples those of the one-axis track
it was fitted from (another track's axis is a ValueError).

Each oscillation indicator is a sum of exact quadratic forms in a
candidate's coefficients c, width^(1 - 2m) c^T G_m c. All the forms of a
call come from two matrix products, with one column of coefficients per
candidate: the Gram matrices G_m stacked, times the columns, multiplied
elementwise by the columns tiled N times, and a 0/1 matrix that sums each
block of N + 1 products; a dot product with the width powers then sums the
orders. The products run in BLAS, where the direct form, one three-operand
einsum, runs numpy's generic loop one scalar step per term: some 40% of
the limiter's time on a 249-cell cubic axis. The min and the sums over the
three candidates are three-term expressions rather than reductions over a
three-element axis; they add in the reductions' order, so the weights and
the blend keep their bits for the same indicators. The candidates are laid
out with the cells innermost in memory, so that each of these elementwise
steps runs along the cells.
"""

import functools

import numpy as np

from .mesh import StaggeredMesh
from .recon import _FACT, PiecewisePoly, _fitted_samples
from .trajdata import TrackSeries


class CwenoConfig:
    """The limiter's constants, part of the method's definition: the central
    linear weight, the two side weights that split what it leaves, the
    epsilon added to each oscillation indicator and the weights' exponent.
    ``CwenoConfig()`` takes no arguments; every function here reads the
    class."""

    __slots__ = ()  # no instance attributes, so none can shadow a constant
    lambda_central = 200.0 / 202.0
    lambda_side = 0.5 * (1.0 - lambda_central)
    epsilon = 1e-14
    exponent = 4


def side_lines(mesh: StaggeredMesh, s: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Left and right linear candidates of every cell of the mesh, anchored
    at its left interface, as (n_cells, degree + 1) coefficients in the
    cells' bases; s holds one axis's samples at the mesh's interfaces.

    The left line joins the left interface sample to its predecessor; the
    right line joins the cell's own interface pair (the linear-linking
    segment). The first cell has no predecessor, so its left line is its
    right line.
    """
    t, center, width = mesh.interfaces, mesh.barycenters, mesh.widths
    slope = (s[1:] - s[:-1]) / width
    right = np.zeros((len(width), degree + 1))
    right[:, 0] = s[:-1] + slope * (center - t[:-1])
    right[:, 1] = slope * width
    left = right.copy()
    left[1:, 0] = s[:-2] + slope[:-1] * (center[1:] - t[:-2])
    left[1:, 1] = slope[:-1] * width[1:]
    return left, right


def candidates(poly: PiecewisePoly, series: TrackSeries) -> np.ndarray:
    """Central, left and right candidates of every cell, (n_cells, 3, N + 1),
    from poly and the one-axis track it was fitted from (else ValueError).

    The central candidate removes the side candidates' linear-weight share
    from the optimal polynomial, so the linear weights recombine it exactly.
    """
    samples, = _fitted_samples([poly], [series])
    left, right = side_lines(poly.mesh, samples, poly.degree)
    cfg = CwenoConfig
    # the cells are the innermost axis in memory, so the limiter's
    # elementwise steps run along them rather than along 3 or N + 1 values
    cands = np.empty((poly.degree + 1, 3, len(left))).transpose(2, 1, 0)
    cands[:, 0] = (poly.coeffs - cfg.lambda_side * left - cfg.lambda_side * right) / cfg.lambda_central
    cands[:, 1] = left
    cands[:, 2] = right
    return cands


@functools.cache
def _gram(n: int) -> np.ndarray:
    """G[m - 1, j, k] = integral over u in [-1/2, 1/2] of the m-th u-derivatives
    of the Taylor basis functions u^j / j! and u^k / k!, for m = 1 .. n - 1."""
    G = np.zeros((n - 1, n, n))
    for m in range(1, n):
        j = np.arange(n - m)
        power = j[:, None] + j[None, :]
        integral = np.where(power % 2 == 0, 0.5**power / (power + 1), 0.0)
        G[m - 1, m:, m:] = integral / np.outer(_FACT[j], _FACT[j])
    G.setflags(write=False)
    return G


@functools.cache
def _sigma_operators(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Gram matrices G_1 .. G_{n-1} stacked, ((n - 1) n, n); the row
    index that tiles n coefficients n - 1 times; the 0/1 matrix that sums
    each block of n rows, (n - 1, (n - 1) n); and the widths' exponents
    1 - 2m."""
    stacked = _gram(n).reshape((n - 1) * n, n)
    tiling = np.tile(np.arange(n), n - 1)
    blocks = np.kron(np.eye(n - 1), np.ones((1, n)))
    exponents = 1 - 2 * np.arange(1, n)
    for a in (stacked, tiling, blocks, exponents):
        a.setflags(write=False)
    return stacked, tiling, blocks, exponents


def oscillation_indicators(coeffs: np.ndarray, widths) -> np.ndarray:
    """Sum over derivative orders m >= 1 of the integral over the cell of the
    squared m-th time derivative of each polynomial.

    coeffs has shape (..., N + 1) in Taylor bases of the given widths, which
    broadcast against coeffs[..., 0]. In the basis variable the integral is
    the exact quadratic form width^(1 - 2m) c^T G_m c.
    """
    n = coeffs.shape[-1]
    stacked, tiling, blocks, exponents = _sigma_operators(n)
    columns = coeffs.reshape(-1, n).T
    forms = (blocks @ ((stacked @ columns) * columns[tiling])).T
    scale = np.asarray(widths, dtype=float)[..., None] ** exponents
    return np.vecdot(forms.reshape(coeffs.shape[:-1] + (n - 1,)), scale)


def nonlinear_weights(sigmas: np.ndarray) -> np.ndarray:
    """Data-dependent weights (central, left, right) along the last axis;
    they sum to one.

    lambda / (sigma + epsilon)^r, scaled by the smallest (sigma + epsilon)^r
    of each set so that a large exponent cannot underflow every weight."""
    cfg = CwenoConfig
    lam = np.array([cfg.lambda_central, cfg.lambda_side, cfg.lambda_side])
    s = np.asarray(sigmas, dtype=float) + cfg.epsilon
    smallest = np.minimum(np.minimum(s[..., 0], s[..., 1]), s[..., 2])
    raw = lam * (smallest[..., None] / s) ** cfg.exponent
    return raw / (raw[..., 0] + raw[..., 1] + raw[..., 2])[..., None]


def blend(cands: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Weighted combination of each cell's candidates (..., 3, N + 1)."""
    terms = nonlinear_weights(sigmas)[..., None] * cands
    return terms[..., 0, :] + terms[..., 1, :] + terms[..., 2, :]


def limit_piecewise(poly: PiecewisePoly, series: TrackSeries) -> PiecewisePoly:
    """Apply the limiter to every cell of an unlimited reconstruction, given
    the one-axis track it was fitted from (else ValueError). Cells whose
    three sigma + epsilon are equal keep the optimal polynomial, which their
    linear weights recombine, rather than a sum of candidates that can reach
    1e15 times the data scale next to a far narrower cell. So do cells whose
    blend is not finite: their weights are NaN where a width raised to
    1 - 2N overflows, in cells narrower than about 1e-308^(1 / (2N - 1)) of
    the time unit."""
    cands = candidates(poly, series)
    with np.errstate(over="ignore", invalid="ignore"):
        # candidate by candidate, the coefficient columns are a view of cands
        sigmas = oscillation_indicators(cands.transpose(1, 0, 2), poly.mesh.widths).T
        blended = blend(cands, sigmas)
    s = sigmas + CwenoConfig.epsilon
    blends = ((s[:, 0] != s[:, 1]) | (s[:, 0] != s[:, 2])) & np.isfinite(blended[:, 0])
    coeffs = np.where(blends[:, None], blended, poly.coeffs)
    coeffs.setflags(write=False)  # the record keeps it without a copy
    return PiecewisePoly(poly.mesh, coeffs)
