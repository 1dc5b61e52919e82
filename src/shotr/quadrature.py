"""Gauss-Legendre quadrature nodes and weights.

An n-point rule integrates polynomials up to degree 2n-1 exactly. Rules
come from ``numpy.polynomial.legendre.leggauss`` and are cached read-only.
"""

import numpy as np

_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule on [-1, 1]."""
    if n < 1:
        raise ValueError(f"quadrature order must be >= 1, got {n}")
    if n not in _CACHE:
        pair = np.polynomial.legendre.leggauss(n)
        pair[0].setflags(write=False)
        pair[1].setflags(write=False)
        _CACHE[n] = pair
    return _CACHE[n]


def gauss_points(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule mapped to [a, b].

    The returned weights include the interval Jacobian, so
    ``np.dot(w, f(x))`` approximates the integral over [a, b].
    """
    x, w = gauss_legendre(n)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return mid + half * x, half * w
