"""Quadrature rules shared across the package.

Every Gauss rule comes from ``gauss_jacobi(order, a, b)``, the Gauss rule
for the weight (1 - x)^a (1 + x)^b on [-1, 1], built once per (order, a, b):
Golub-Welsch eigenvalues of the Jacobi matrix, one Newton step on the
orthonormal three-term recurrence, Christoffel weights, and, for a = b,
symmetrisation.  Legendre is a = b = 0; the Poisson branch of
``bessel.bessel_j`` uses a = b = alpha - 1/2.

Sphere rules return nodes on the unit sphere S^{n-1} together with surface
weights summing to the total surface measure (2 points of weight 1 in n=1,
circumference 2*pi in n=2, area 4*pi in n=3).  Radial rules are composite
Gauss-Legendre panels on intervals of (0, infinity); ``origin_panel`` is the
Gauss-Jacobi first panel [0, b] (a = 0, b = e) of an integrand ~ r^e at 0.
"""

from __future__ import annotations

from math import exp, lgamma, pi, sqrt

import numpy as np

_gauss_rules: dict[tuple[int, float, float], tuple[np.ndarray, np.ndarray]] = {}


def gauss_jacobi(order: int, a: float = 0.0, b: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the weight (1 - x)^a (1 + x)^b on [-1, 1], a, b > -1.

    ``b`` defaults to ``a``, the weight (1 - x^2)^a.  Returns read-only
    (nodes, weights), nodes ascending, weights summing to
    2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2).  Exact for polynomials
    of degree < 2 * order; memoized per (order, a, b).

    Golub & Welsch, Math. Comp. 23 (1969): the nodes are the eigenvalues of
    the symmetric Jacobi matrix of the orthonormal recurrence
    x p_k = sqrt(beta_{k+1}) p_{k+1} + alpha_k p_k + sqrt(beta_k) p_{k-1}.
    Each node then takes one Newton step on that recurrence (Hale &
    Townsend, SIAM J. Sci. Comput. 35 (2013)), and its weight is the
    Christoffel number 1 / sum_k p_k(x)^2.  A symmetric rule (a = b) has
    alpha_k = 0 and beta_k = k (k + 2a) / (4 (k + a)^2 - 1), and is
    symmetrised about 0.
    """
    key = (int(order), float(a), float(a if b is None else b))
    if key not in _gauss_rules:
        _gauss_rules[key] = _golub_welsch(*key)
    return _gauss_rules[key]


def _golub_welsch(order: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    if order < 1:
        raise ValueError("Gauss rule order must be >= 1")
    if not (a > -1.0 and b > -1.0):
        raise ValueError(f"Gauss-Jacobi exponents must exceed -1, got {a} and {b}")
    k = np.arange(1.0, order + 1.0)
    if a == b:
        alpha = np.zeros(order)
        beta = np.append(1.0 / (3.0 + 2.0 * a), k[1:] * (k[1:] + 2.0 * a) / (4.0 * (k[1:] + a) ** 2 - 1.0))
        mu0 = sqrt(pi) * exp(lgamma(a + 1.0) - lgamma(a + 1.5))
    else:
        c = 2.0 * k + a + b  # at k = 1 the factor (k + a + b) / (c - 1) of beta_k is 1
        alpha = np.append((b - a) / (a + b + 2.0), (b * b - a * a) / (c[:-1] * (c[:-1] + 2.0)))
        beta = 4.0 * k * (k + a) * (k + b) / (c * c * (c + 1.0)) * np.append(1.0, (k[1:] + a + b) / (c[1:] - 1.0))
        mu0 = 2.0 ** (a + b + 1.0) * exp(lgamma(a + 1.0) + lgamma(b + 1.0) - lgamma(a + b + 2.0))
    off = np.sqrt(beta)  # off[k-1] couples p_{k-1} and p_k
    x = np.linalg.eigvalsh(np.diag(alpha) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))

    def recurrence(x):
        # orthonormal p_k and p_k' by the three-term recurrence; returns
        # p_order, p_order' and sum_{k < order} p_k^2
        p_prev, p = np.zeros_like(x), np.full_like(x, 1.0 / sqrt(mu0))
        d_prev, d = np.zeros_like(x), np.zeros_like(x)
        squares = p * p
        for j in range(order):
            o_prev = off[j - 1] if j else 0.0
            p_prev, p, d_prev, d = (
                p,
                ((x - alpha[j]) * p - o_prev * p_prev) / off[j],
                d,
                (p + (x - alpha[j]) * d - o_prev * d_prev) / off[j],
            )
            if j < order - 1:
                squares += p * p
        return p, d, squares

    p, d, _ = recurrence(x)
    x = x - p / d
    _, _, squares = recurrence(x)
    w = 1.0 / squares
    if a == b:
        x = 0.5 * (x - x[::-1])
        w = 0.5 * (w + w[::-1])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def sphere_surface(n: int) -> float:
    """Total surface measure of the unit sphere S^{n-1} for n in {1, 2, 3}."""
    if n == 1:
        return 2.0
    if n == 2:
        return 2.0 * np.pi
    if n == 3:
        return 4.0 * np.pi
    raise ValueError(f"sphere quadrature supports n in {{1, 2, 3}}, got n={n}")


def sphere_quadrature(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature rule for integrals over the unit sphere S^{n-1}.

    Parameters
    ----------
    n : int
        Ambient dimension, 1 <= n <= 3.
    order : int
        Resolution parameter: number of azimuthal points in n=2, number of
        polar Gauss-Legendre nodes in n=3 (azimuth gets 2*order points).
        Ignored in n=1 where the two-point rule is exact.

    Returns
    -------
    nodes : ndarray, shape (Q, n)
        Unit vectors.
    weights : ndarray, shape (Q,)
        Nonnegative weights with sum equal to ``sphere_surface(n)``.

    The n=2 rule is the equispaced trapezoid rule on the circle and the n=3
    rule is Gauss-Legendre in the polar cosine times trapezoid in azimuth;
    both are spectrally accurate for smooth integrands.
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    if n == 1:
        nodes = np.array([[1.0], [-1.0]])
        weights = np.array([1.0, 1.0])
        return nodes, weights
    if n == 2:
        theta = 2.0 * np.pi * np.arange(order) / order
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(order, 2.0 * np.pi / order)
        return nodes, weights
    if n == 3:
        z, wz = gauss_jacobi(order)
        phi = 2.0 * np.pi * np.arange(2 * order) / (2 * order)
        r = np.sqrt(1.0 - z**2)
        nodes = np.stack(
            [
                np.outer(r, np.cos(phi)).ravel(),
                np.outer(r, np.sin(phi)).ravel(),
                np.repeat(z, 2 * order),
            ],
            axis=1,
        )
        weights = np.repeat(wz * (2.0 * np.pi / (2 * order)), 2 * order)
        return nodes, weights
    raise ValueError(f"sphere quadrature supports n in {{1, 2, 3}}, got n={n}")


def panel_rule(
    boundaries: np.ndarray, nodes_per_panel: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on consecutive panels.

    ``boundaries`` has shape (..., k), each row increasing; each adjacent
    pair in a row becomes one Gauss-Legendre panel with ``nodes_per_panel``
    nodes.  Returns (nodes, weights), each of shape
    (..., (k - 1) * nodes_per_panel): a 1D array gives one flat rule, a
    stack of rows one rule per row.
    """
    boundaries = np.asarray(boundaries, dtype=float)
    if boundaries.ndim < 1 or boundaries.shape[-1] < 2:
        raise ValueError("need at least two panel boundaries")
    if np.any(np.diff(boundaries, axis=-1) <= 0):
        raise ValueError("panel boundaries must be strictly increasing")
    x, w = gauss_jacobi(nodes_per_panel)
    a = boundaries[..., :-1, None]
    b = boundaries[..., 1:, None]
    nodes = 0.5 * (b - a) * x + 0.5 * (a + b)
    weights = 0.5 * (b - a) * w
    flat = boundaries.shape[:-1] + (-1,)
    return nodes.reshape(flat), weights.reshape(flat)


def origin_panel(b, nodes: int, exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """Rule for int_0^b f(r) dr when f(r) behaves like r^exponent at 0.

    The Gauss-Jacobi rule for the weight (1 + x)^exponent, mapped to [0, b],
    with its weights divided by that factor: sum(q * f(r)) then integrates
    r^exponent g(r) for a smooth g as Gauss integrates g.  An array ``b`` of
    shape (...) gives (nodes, weights) of shape (..., nodes), one rule per
    entry.
    """
    x, w = gauss_jacobi(nodes, 0.0, exponent)
    half = 0.5 * np.asarray(b, dtype=float)[..., None]
    return half * (1.0 + x), half * w / (1.0 + x) ** exponent
