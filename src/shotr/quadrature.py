"""Gauss-Legendre quadrature nodes and weights.

An n-point rule integrates polynomials up to degree 2n-1 exactly. Rules
come from ``numpy.polynomial.legendre.leggauss`` and are cached read-only.
"""

import functools

import numpy as np


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule on [-1, 1]."""
    if n < 1:
        raise ValueError(f"quadrature order must be >= 1, got {n}")
    pair = np.polynomial.legendre.leggauss(n)
    for table in pair:
        table.setflags(write=False)
    return pair


def gauss_points(
    a: float | np.ndarray, b: float | np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule mapped to [a, b].

    The returned weights include the interval Jacobian, so
    ``np.dot(w, f(x))`` approximates the integral over [a, b]. Scalar
    bounds give arrays of shape ``(n,)``; arrays of k bounds give
    ``(k, n)``, row i holding the rule on [a[i], b[i]].
    """
    x, w = gauss_legendre(n)
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return mid + half * x, half * w
