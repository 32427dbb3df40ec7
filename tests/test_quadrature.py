"""Sphere rules: the vectorized n=3 product rule against its loop form."""

import numpy as np
import pytest
from scipy.special import roots_legendre

from nlops.quadrature import sphere_quadrature, sphere_surface


def product_rule_loop(order):
    """Gauss-Legendre in the polar cosine times trapezoid in azimuth, node by node."""
    z, wz = roots_legendre(order)
    phi = 2.0 * np.pi * np.arange(2 * order) / (2 * order)
    r = np.sqrt(1.0 - z**2)
    nodes = np.empty((order * 2 * order, 3))
    weights = np.empty(order * 2 * order)
    k = 0
    for i in range(order):
        for j in range(2 * order):
            nodes[k] = (r[i] * np.cos(phi[j]), r[i] * np.sin(phi[j]), z[i])
            weights[k] = wz[i] * (2.0 * np.pi / (2 * order))
            k += 1
    return nodes, weights


@pytest.mark.parametrize("order", [1, 2, 8, 32, 64])
def test_three_dimensional_rule_matches_loop_bitwise(order):
    nodes, weights = sphere_quadrature(3, order)
    want_nodes, want_weights = product_rule_loop(order)
    assert np.array_equal(nodes, want_nodes)
    assert np.array_equal(weights, want_weights)
    assert abs(np.sum(weights) - sphere_surface(3)) < 1e-12
