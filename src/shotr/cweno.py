"""Nonlinear CWENO limiting of the reconstruction polynomials.

High-degree polynomials through rough data oscillate. Each cell's optimal
(unlimited) polynomial is therefore blended with two linear candidates
anchored at the cell's left interface sample: the backward line to the
previous sample and the forward line to the next one (the latter is the
cell's own linear-linking segment). Data-dependent weights built from
oscillation indicators pick the smooth candidates, recovering the optimal
polynomial on smooth data and collapsing to the flatter line across a jump.

All cells are limited at once: candidates are ``(n_cells, 3, N + 1)``
coefficient arrays in the cells' Taylor bases, stacked central, left, right.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .recon import _FACT, PiecewisePoly
from .trajdata import TrackSeries

__all__ = [
    "CwenoConfig",
    "side_lines",
    "candidates",
    "oscillation_indicators",
    "nonlinear_weights",
    "blend",
    "limit_piecewise",
]


@dataclass(frozen=True)
class CwenoConfig:
    """Limiter constants; the two side weights split what lambda_central leaves."""

    lambda_central: float = 200.0 / 202.0
    epsilon: float = 1e-14
    exponent: int = 4

    def __post_init__(self):
        for name in ("lambda_central", "epsilon", "exponent"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not 0 < self.lambda_central < 1:
            raise ValueError(f"lambda_central must lie in (0, 1), got {self.lambda_central!r}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.exponent < 1:
            raise ValueError(f"exponent must be >= 1, got {self.exponent!r}")

    @property
    def lambda_side(self) -> float:
        return 0.5 * (1.0 - self.lambda_central)


def side_lines(series: TrackSeries, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Left and right linear candidates of every cell, anchored at its left
    interface, as (n_cells, degree + 1) coefficients in the cells' bases;
    series is the one-axis track that was reconstructed.

    The left line joins the left interface sample to its predecessor; the
    right line joins the cell's own interface pair (the linear-linking
    segment). The first cell has no predecessor, so its left line is its
    right line.
    """
    t, s = series.times, series.values
    center = 0.5 * (t[:-1] + t[1:])
    width = t[1:] - t[:-1]
    slope = (s[1:] - s[:-1]) / width
    right = np.zeros((len(width), degree + 1))
    right[:, 0] = s[:-1] + slope * (center - t[:-1])
    right[:, 1] = slope * width
    left = right.copy()
    left[1:, 0] = s[:-2] + slope[:-1] * (center[1:] - t[:-2])
    left[1:, 1] = slope[:-1] * width[1:]
    return left, right


def candidates(poly: PiecewisePoly, series: TrackSeries, cfg: CwenoConfig) -> np.ndarray:
    """Central, left and right candidates of every cell, (n_cells, 3, N + 1).

    The central candidate removes the side candidates' linear-weight share
    from the optimal polynomial, so the linear weights recombine it exactly.
    """
    left, right = side_lines(series, poly.degree)
    central = (
        poly.coeffs - cfg.lambda_side * left - cfg.lambda_side * right
    ) / cfg.lambda_central
    return np.stack([central, left, right], axis=1)


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


def oscillation_indicators(coeffs: np.ndarray, widths) -> np.ndarray:
    """Sum over derivative orders m >= 1 of the integral over the cell of the
    squared m-th time derivative of each polynomial.

    coeffs has shape (..., N + 1) in Taylor bases of the given widths, which
    broadcast against coeffs[..., 0]. In the basis variable the integral is
    the exact quadratic form width^(1 - 2m) c^T G_m c.
    """
    n = coeffs.shape[-1]
    forms = np.einsum("...j,mjk,...k->...m", coeffs, _gram(n), coeffs)
    scale = np.asarray(widths, dtype=float)[..., None] ** (1 - 2 * np.arange(1, n))
    return (forms * scale).sum(axis=-1)


def nonlinear_weights(sigmas: np.ndarray, cfg: CwenoConfig) -> np.ndarray:
    """Data-dependent weights (central, left, right) along the last axis;
    they sum to one.

    lambda / (sigma + epsilon)^r, scaled by the smallest (sigma + epsilon)^r
    of each set so that a large exponent cannot underflow every weight."""
    lam = np.array([cfg.lambda_central, cfg.lambda_side, cfg.lambda_side])
    s = np.asarray(sigmas, dtype=float) + cfg.epsilon
    raw = lam * (s.min(axis=-1, keepdims=True) / s) ** cfg.exponent
    return raw / raw.sum(axis=-1, keepdims=True)


def blend(cands: np.ndarray, sigmas: np.ndarray, cfg: CwenoConfig) -> np.ndarray:
    """Weighted combination of each cell's candidates (..., 3, N + 1)."""
    omega = nonlinear_weights(sigmas, cfg)
    return (omega[..., None] * cands).sum(axis=-2)


def limit_piecewise(
    poly: PiecewisePoly, series: TrackSeries, cfg: CwenoConfig | None = None
) -> PiecewisePoly:
    """Apply the limiter to every cell of an unlimited reconstruction. Cells
    whose three sigma + epsilon are equal keep the optimal polynomial, which
    their linear weights recombine, rather than a sum of candidates that can
    reach 1e15 times the data scale next to a far narrower cell."""
    cfg = cfg or CwenoConfig()
    cands = candidates(poly, series, cfg)
    sigmas = oscillation_indicators(cands, poly.mesh.widths[:, None])
    s = sigmas + cfg.epsilon
    linear = (s == s[:, :1]).all(axis=1, keepdims=True)
    return PiecewisePoly(poly.mesh, np.where(linear, poly.coeffs, blend(cands, sigmas, cfg)))
