"""The mesh's Gauss-Legendre rule, ``mesh.gauss_rule``: every cell's nodes
and weights, checked against the exact integrals of polynomials and against
the oracle's own mapping of numpy's reference rule, one cell at a time."""

import numpy as np
import pytest

from shotr import mesh as mesh_module
from shotr.mesh import build_mesh, gauss_rule
from shotr.validate import error_norms

from .oracle import cell_gauss


def _random_mesh(rng, n_cells: int):
    return build_mesh(np.cumsum(rng.uniform(0.01, 2.0, n_cells + 1)) - 5.0)


def test_weights_sum_to_interval_length(rng):
    mesh = _random_mesh(rng, 7)
    for n in range(1, 13):
        _, w = gauss_rule(mesh, n)
        np.testing.assert_allclose(w.sum(axis=1), mesh.widths, rtol=1e-14)


def test_rule_exactness_degree_2n_minus_1(rng):
    mesh = _random_mesh(rng, 5)
    a, b = mesh.interfaces[:-1], mesh.interfaces[1:]
    for n in (2, 4, 7, 10):
        p = np.polynomial.Polynomial(rng.uniform(-1, 1, 2 * n))  # degree 2n-1
        x, w = gauss_rule(mesh, n)
        exact = p.integ()(b) - p.integ()(a)
        np.testing.assert_allclose(np.sum(w * p(x), axis=1), exact, rtol=1e-12, atol=1e-12)


def test_invalid_order_rejected():
    """A point count that is not an integer of at least 1 is a ValueError
    naming the count, from the rule and from the error norms that read it;
    numpy's integers are counts too."""
    mesh = build_mesh([0.0, 0.5, 1.5])
    f = lambda t: np.zeros((len(t), 1))
    for n in (0, -1, 2.5, "3"):
        with pytest.raises(ValueError, match=r"Gauss points per cell .*got " + repr(n)):
            gauss_rule(mesh, n)
        with pytest.raises(ValueError, match="Gauss points per cell"):
            error_norms(f, f, n, mesh=mesh)
    for a, b in zip(gauss_rule(mesh, np.int64(3)), gauss_rule(mesh, 3)):
        np.testing.assert_array_equal(a, b)


def test_nodes_are_read_only():
    """The reference rule is built once per count and shared, so its
    tables are read-only; the mapped rule is the caller's own."""
    for table in mesh_module._legendre(5):
        with pytest.raises(ValueError):
            table[0] = 0.0
    x, _ = gauss_rule(build_mesh([0.0, 1.0]), 5)
    x[0, 0] = 0.0


def test_array_bounds_map_the_rule_onto_every_interval(rng):
    """Row i of the mesh's rule is the oracle's rule on cell i, mapped from
    numpy's reference rule one cell at a time, bit for bit: on random
    meshes, and on frames 2 and 8 ulps apart at epoch-second times, where
    at 2 ulps half the degree-3 nodes round onto an interface."""
    meshes = [_random_mesh(rng, cells) for cells in (1, 2, 9, 40)]
    meshes += [build_mesh(1.7e9 + np.arange(30) * ulps * np.spacing(1.7e9)) for ulps in (2, 8)]
    for mesh in meshes:
        for n in (1, 4, 7):
            x, w = gauss_rule(mesh, n)
            want_x, want_w = cell_gauss(mesh, n)
            assert x.shape == w.shape == (mesh.n_cells, n)
            np.testing.assert_array_equal(x, want_x)
            np.testing.assert_array_equal(w, want_w)
