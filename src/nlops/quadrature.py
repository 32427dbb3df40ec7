"""Quadrature rules shared across the package.

Sphere rules return nodes on the unit sphere S^{n-1} together with surface
weights summing to the total surface measure (2 points of weight 1 in n=1,
circumference 2*pi in n=2, area 4*pi in n=3).  Radial rules are composite
Gauss-Legendre panels on intervals of (0, infinity).
"""

from __future__ import annotations

import numpy as np
from scipy.special import roots_legendre


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
        z, wz = roots_legendre(order)
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


_legendre_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def panel_rule(
    boundaries: np.ndarray, nodes_per_panel: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on consecutive panels.

    ``boundaries`` is an increasing 1D array; each adjacent pair becomes one
    Gauss-Legendre panel with ``nodes_per_panel`` nodes.  Returns flattened
    (nodes, weights).
    """
    boundaries = np.asarray(boundaries, dtype=float)
    if boundaries.ndim != 1 or boundaries.size < 2:
        raise ValueError("need at least two panel boundaries")
    if np.any(np.diff(boundaries) <= 0):
        raise ValueError("panel boundaries must be strictly increasing")
    if nodes_per_panel not in _legendre_cache:
        _legendre_cache[nodes_per_panel] = roots_legendre(nodes_per_panel)
    x, w = _legendre_cache[nodes_per_panel]
    a = boundaries[:-1][:, None]
    b = boundaries[1:][:, None]
    nodes = 0.5 * (b - a) * x[None, :] + 0.5 * (a + b)
    weights = 0.5 * (b - a) * w[None, :]
    return nodes.ravel(), weights.ravel()


def graded_boundaries(a: float, b: float, count: int, power: float = 2.0) -> np.ndarray:
    """Panel boundaries on [a, b] clustered toward ``a`` by a power law."""
    if not b > a:
        raise ValueError("need b > a")
    t = np.linspace(0.0, 1.0, count + 1) ** power
    return a + (b - a) * t
