"""Gauss rules against mpmath, and the vectorized n=3 sphere rule against its
loop form."""

from math import gamma, pi, sqrt

import mpmath as mp
import numpy as np
import pytest

from nlops.quadrature import gauss_jacobi, origin_panel, panel_rule, sphere_quadrature, sphere_surface


def product_rule_loop(order):
    """Gauss-Legendre in the polar cosine times trapezoid in azimuth, node by node."""
    z, wz = gauss_jacobi(order)
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


# (order, a, b) for the weight (1 - x)^a (1 + x)^b: Legendre at every order
# the package uses, the Poisson rule of bessel_j (a = b = alpha - 1/2) at
# POISSON_ORDER for alpha = 0 and 1.5, and origin panels (a = 0, b = s - 1
# for the fractional weights) down to s = 1e-3
RULES = (
    [(order, 0.0, 0.0) for order in (1, 2, 8, 16, 20, 32, 64, 80)]
    + [(80, -0.5, -0.5), (80, 1.0, 1.0)]
    + [(8, 0.0, -0.5), (16, 0.0, -0.5), (16, 0.0, -0.95), (16, 0.0, -0.999)]
)


@pytest.mark.parametrize(
    "order,a,b", RULES, ids=[f"{o}-a{a:g}" if a == b else f"{o}-a{a:g}-b{b:g}" for o, a, b in RULES]
)
def test_gauss_jacobi_matches_mpmath(order, a, b):
    with mp.workdps(40):
        ref_x, ref_w = mp.gauss_quadrature(order, "jacobi", a, b)
        ref = sorted((ref_x[i], ref_w[i]) for i in range(order))
        x, w = gauss_jacobi(order, a, b)
        node_err = [abs(mp.mpf(float(xi)) - rx) for xi, (rx, _) in zip(x, ref)]
        weight_err = np.array([float(abs(mp.mpf(float(wi)) / rw - 1)) for wi, (_, rw) in zip(w, ref)])
        a, b = mp.mpf(a), mp.mpf(b)
        mu0 = 2 ** (a + b + 1) * mp.gamma(a + 1) * mp.gamma(b + 1) / mp.gamma(a + b + 2)
        sum_err = abs(mp.fsum(mp.mpf(float(wi)) for wi in w) / mu0 - 1)
    assert max(node_err) <= 2e-16
    # near +-1 a one-ulp node error alone moves the weight by about 1e-13
    assert weight_err[np.abs(x) < 0.9].max(initial=0.0) <= 5e-15
    assert weight_err.max() <= 2e-13
    assert sum_err <= 1e-14


def test_gauss_jacobi_is_built_once_and_read_only():
    x, w = gauss_jacobi(16)
    assert gauss_jacobi(16, 0.0)[0] is x
    assert gauss_jacobi(16, 0.0, 0.0) is gauss_jacobi(16)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    with pytest.raises(ValueError):
        w[0] = 1.0


def test_gauss_jacobi_integrates_its_weight_exactly():
    # int_{-1}^{1} x^2 (1 - x^2)^a dx = sqrt(pi) Gamma(a+1) / (2 Gamma(a+5/2))
    for a in (0.0, 0.5, 1.5):
        x, w = gauss_jacobi(5, a)
        want = sqrt(pi) * gamma(a + 1.0) / (2.0 * gamma(a + 2.5))
        assert abs(np.dot(w, x**2) - want) < 1e-15


@pytest.mark.parametrize(
    "order,a,b",
    [(0, 0.0, None), (4, -1.0, None), (4, 0.0, -1.0), (4, -1.0, 0.0)],
    ids=["0-0.0", "4--1.0", "4-0.0-b-1.0", "4--1.0-b0.0"],
)
def test_gauss_jacobi_rejects_bad_arguments(order, a, b):
    with pytest.raises(ValueError):
        gauss_jacobi(order, a, b)


def test_stacked_panel_rows_match_one_rule_per_row():
    rows = np.sort(np.random.default_rng(3).uniform(0.0, 2.0, size=(2, 3, 6)), axis=-1)
    nodes, weights = panel_rule(rows, 8)
    assert nodes.shape == weights.shape == (2, 3, 5 * 8)
    for i in np.ndindex(2, 3):
        want_nodes, want_weights = panel_rule(rows[i], 8)
        assert np.array_equal(nodes[i], want_nodes)
        assert np.array_equal(weights[i], want_weights)
    with pytest.raises(ValueError):
        panel_rule(rows[..., ::-1], 8)


def test_origin_panel_integrates_powers_exactly():
    # int_0^b r^(e + j) dr = b^(e + j + 1) / (e + j + 1) for even j < 2 * nodes:
    # the package's integrands are r^e times a pure power or an even function
    # of r (the Bessel factor of mu_hat, 1D ball averages).  An odd j also
    # sees that 1 + x at the node nearest x = -1 is rounded absolutely
    # (1.2e-12 relative at e = -0.999, 2e-14 on the integral for j = 1).
    for e in (-0.999, -0.95, -0.5, 0.5):
        for j in (0, 2, 6, 14):
            r, q = origin_panel(0.7, 8, e)
            want = 0.7 ** (e + j + 1) / (e + j + 1)
            assert abs(np.dot(q, r ** (e + j)) - want) < 1e-14 * want
    ends = np.array([0.3, 1.0, 2.5])
    r, q = origin_panel(ends, 8, -0.5)
    assert r.shape == q.shape == (3, 8)
    for end, row_r, row_q in zip(ends, r, q):
        want_r, want_q = origin_panel(float(end), 8, -0.5)
        assert np.array_equal(row_r, want_r) and np.array_equal(row_q, want_q)
