import numpy as np
import pytest

from shotr.quadrature import gauss_legendre, gauss_points


def test_weights_sum_to_interval_length():
    for n in range(1, 13):
        _, w = gauss_points(-0.3, 1.7, n)
        assert w.sum() == pytest.approx(2.0, abs=1e-14)


def test_rule_exactness_degree_2n_minus_1(rng):
    for n in (2, 4, 7, 10):
        c = rng.uniform(-1, 1, 2 * n)  # degree 2n-1
        p = np.polynomial.Polynomial(c)
        x, w = gauss_points(-1.2, 0.7, n)
        exact = p.integ()(0.7) - p.integ()(-1.2)
        assert np.dot(w, p(x)) == pytest.approx(exact, rel=1e-13, abs=1e-13)


def test_invalid_order_rejected():
    with pytest.raises(ValueError):
        gauss_legendre(0)


def test_nodes_are_read_only():
    x, _ = gauss_legendre(5)
    with pytest.raises(ValueError):
        x[0] = 0.0


def test_array_bounds_map_the_rule_onto_every_interval(rng):
    """Row i of an array call is the scalar call on [a[i], b[i]], bit for bit."""
    a = np.sort(rng.uniform(-5, 5, 9))
    b = a + rng.uniform(0.01, 2, 9)
    for n in (1, 4, 7):
        x, w = gauss_points(a, b, n)
        assert x.shape == w.shape == (9, n)
        for i in range(9):
            xi, wi = gauss_points(float(a[i]), float(b[i]), n)
            assert xi.shape == (n,)
            assert np.array_equal(x[i], xi) and np.array_equal(w[i], wi)
