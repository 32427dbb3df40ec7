"""Bessel functions of the first kind, their zeros, and the ball transform.

The evaluator switches between three branches of real order alpha >= 0:

* ascending series for t < max(8, 2*alpha),
* the Poisson integral representation for intermediate t, summed with the
  shared Gauss-Jacobi rule ``quadrature.gauss_jacobi(POISSON_ORDER,
  alpha - 1/2)``,
* the Hankel asymptotic expansion for t > 30 + alpha**2.

The windows overlap generously and branch consistency is part of the test
suite.  All entry points accept scalars or numpy arrays.

The ball transform is the Fourier multiplier of the normalized indicator of
the ball of radius r: for frequency magnitude q > 0

    G_r(q) = J_{n/2}(2 pi r q) / (omega_n * (r q)^{n/2}),

with G_r(0) = 1; a power-series branch keeps it continuous through q = 0.
"""

from __future__ import annotations

from math import gamma, pi

import numpy as np

from nlops.quadrature import gauss_jacobi

#: Gauss-Jacobi order for the Poisson representation branch.  Order 80
#: resolves cos(t*s) with |t| <= 31 to machine accuracy with a wide margin.
POISSON_ORDER = 80

#: Rows of the (points x POISSON_ORDER) cosine buffer filled at once.  A
#: multiple of 4, so each row's dot product with the Gauss weights takes the
#: same BLAS kernel as in one unchunked single-threaded product, bit for
#: bit; and small enough that OpenBLAS keeps each product on one thread, so
#: the values do not depend on the BLAS thread count.
POISSON_ROWS = 2**6

#: Maximum number of ascending-series terms; the series is truncated earlier
#: once terms fall below 1e-18 in magnitude.
SERIES_MAX_TERMS = 60

#: Bound on the Hankel-expansion term index, with the series' early stop.
ASYMPTOTIC_MAX_TERMS = 25


def _as_order(alpha) -> float:
    a = float(alpha)
    if a < 0:
        raise ValueError(f"Bessel order must be nonnegative, got {a}")
    return a


def _series(alpha: float, t: np.ndarray) -> np.ndarray:
    # J_alpha(t) = sum_k (-1)^k (t/2)^(2k+alpha) / (k! Gamma(k+alpha+1))
    half = t / 2.0
    term = half**alpha / gamma(alpha + 1.0)
    out = term.copy()
    for k in range(1, SERIES_MAX_TERMS):
        term = term * (-(half**2)) / (k * (k + alpha))
        out += term
        if np.all(np.abs(term) < 1e-18):
            break
    return out


def _poisson(alpha: float, t: np.ndarray) -> np.ndarray:
    # Poisson representation: J_alpha(t) = (t/2)^alpha / (Gamma(alpha+1/2)
    # Gamma(1/2)) * int_{-1}^{1} cos(t s) (1-s^2)^(alpha-1/2) ds, evaluated
    # with the Gauss-Jacobi rule matching the (1-s^2)^(alpha-1/2) weight.
    x, w = gauss_jacobi(POISSON_ORDER, alpha - 0.5)
    pref = (t / 2.0) ** alpha / (gamma(alpha + 0.5) * gamma(0.5))
    flat = t.reshape(-1)
    integral = np.empty_like(flat)
    for i in range(0, flat.size, POISSON_ROWS):
        phase = np.multiply.outer(flat[i : i + POISSON_ROWS], x)
        integral[i : i + POISSON_ROWS] = np.cos(phase, out=phase) @ w
    return pref * integral.reshape(t.shape)


def _asymptotic(alpha: float, t: np.ndarray) -> np.ndarray:
    # Hankel expansion J_alpha(t) ~ sqrt(2/(pi t)) [P cos(omega) - Q sin(omega)]
    # with omega = t - alpha pi/2 - pi/4.  The coefficient ratio
    # a_k/a_{k-1} = (mu - (2k-1)^2)/(8 k t) terminates exactly for
    # half-integer alpha; otherwise terms are added until below 1e-18.
    mu = 4.0 * alpha**2
    p = np.ones_like(t)
    q = np.zeros_like(t)
    ak = np.ones_like(t)
    for k in range(1, ASYMPTOTIC_MAX_TERMS):
        ak = ak * (mu - (2 * k - 1) ** 2) / (8.0 * k * t)
        if k % 2 == 0:
            p += ak * (-1) ** (k // 2)
        else:
            q += ak * (-1) ** ((k - 1) // 2)
        if np.all(np.abs(ak) < 1e-18):
            break
    omega = t - alpha * pi / 2.0 - pi / 4.0
    return np.sqrt(2.0 / (pi * t)) * (p * np.cos(omega) - q * np.sin(omega))


def bessel_j(alpha, t):
    """Bessel function of the first kind J_alpha(t) for t >= 0.

    Absolute accuracy is better than 1e-10 on t in [0, 1e3] for the orders
    used in this package (alpha <= 2); the prototype against an independent
    reference stays below 2e-13.  Scalar input returns a float.
    """
    a = _as_order(alpha)
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if np.any(t_arr < 0):
        raise ValueError("bessel_j requires t >= 0")
    out = np.empty_like(t_arr)
    lo = t_arr < max(8.0, 2.0 * a)
    hi = t_arr > 30.0 + a * a
    mid = ~(lo | hi)
    if lo.any():
        out[lo] = _series(a, t_arr[lo])
    if mid.any():
        out[mid] = _poisson(a, t_arr[mid])
    if hi.any():
        out[hi] = _asymptotic(a, t_arr[hi])
    return float(out[0]) if scalar else out


def bessel_j_branch(alpha, t, branch: str):
    """Evaluate a single branch ('series', 'poisson', 'asymptotic') directly.

    Exposed for the branch-consistency checks; outside the windows documented
    in :func:`bessel_j` the branches lose accuracy.
    """
    a = _as_order(alpha)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if branch == "series":
        return _series(a, t_arr)
    if branch == "poisson":
        return _poisson(a, t_arr)
    if branch == "asymptotic":
        return _asymptotic(a, t_arr)
    raise ValueError(f"unknown branch {branch!r}")


def bessel_zero(alpha, k: int) -> float:
    """k-th positive zero of J_alpha, to absolute accuracy ~1e-12.

    Brackets sign changes on a grid starting at max(alpha, 1) with step pi/4
    (zeros of J_alpha are spaced ~pi and the first exceeds alpha), then
    refines by bisection.
    """
    a = _as_order(alpha)
    if k < 1:
        raise ValueError("zero index k must be >= 1")
    step = pi / 4.0
    lo = max(a, 1.0)
    found = 0
    f_lo = bessel_j(a, lo)
    while found < k:
        hi = lo + step
        f_hi = bessel_j(a, hi)
        if f_lo == 0.0:
            found += 1
            if found == k:
                return lo
        elif f_lo * f_hi < 0.0:
            found += 1
            if found == k:
                left, right = lo, hi
                f_left = f_lo
                for _ in range(100):
                    midp = 0.5 * (left + right)
                    f_mid = bessel_j(a, midp)
                    if f_mid == 0.0:
                        return midp
                    if f_left * f_mid < 0.0:
                        right = midp
                    else:
                        left, f_left = midp, f_mid
                    if right - left < 1e-13:
                        break
                return 0.5 * (left + right)
        lo, f_lo = hi, f_hi
        if lo > 1e6:
            raise RuntimeError("failed to bracket the requested Bessel zero")
    raise AssertionError("unreachable")


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)


#: Below this value of 2*pi*r*q the ball transform switches to its even
#: power series to avoid the removable 0/0 at q = 0.
BALL_SERIES_CUT = 1e-3


def ball_transform(n: int, r: float, xi_norm):
    """Fourier multiplier of the normalized ball indicator of radius r.

    Returns G_r evaluated at frequency magnitude(s) ``xi_norm``; exactly 1 at
    zero frequency and continuous through it.  Accepts scalar or array
    ``xi_norm``.
    """
    if r <= 0:
        raise ValueError("ball radius must be positive")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    q = np.asarray(xi_norm, dtype=float)
    scalar = q.ndim == 0
    q = np.atleast_1d(q)
    if np.any(q < 0):
        raise ValueError("frequency magnitude must be nonnegative")
    omega_n = unit_ball_volume(n)
    t = 2.0 * pi * r * q
    out = np.empty_like(q)
    small = t < BALL_SERIES_CUT
    if small.any():
        # G_r(q) = pi^(n/2)/omega_n * sum_k (-1)^k (pi r q)^(2k) /
        #          (k! Gamma(k + n/2 + 1)); the k=0 term is exactly 1.
        z = (pi * r * q[small]) ** 2
        term = np.ones_like(z) * pi ** (n / 2.0) / (omega_n * gamma(n / 2.0 + 1.0))
        acc = term.copy()
        for k in range(1, 8):
            term = term * (-z) / (k * (k + n / 2.0))
            acc += term
        out[small] = acc
    big = ~small
    if big.any():
        rq = r * q[big]
        out[big] = bessel_j(n / 2.0, t[big]) / (omega_n * rq ** (n / 2.0))
    return float(out[0]) if scalar else out
