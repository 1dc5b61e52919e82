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
