"""Bessel functions of the first kind, their zeros, and the ball transform.

The evaluator switches between three branches of real order alpha >= 0:

* ascending series for t < max(8, 2*alpha),
* the Poisson integral representation for intermediate t, summed with the
  shared Gauss-Jacobi rule ``quadrature.gauss_jacobi(POISSON_ORDER,
  alpha - 1/2)`` (every order but the half-integers),
* the Hankel asymptotic expansion for t > 30 + alpha**2; for half-integer
  alpha it terminates, so it is the closed form of the spherical Bessel
  functions (DLMF 10.49.3) and takes every t >= max(8, 2*alpha).

The windows overlap generously and branch consistency is part of the test
suite.  All entry points accept scalars or numpy arrays, and every value
depends on its own argument alone: ``bessel_j(a, t)[i] == bessel_j(a, t[i])``
bit for bit, whatever else ``t`` holds.

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

#: Rows of the (points x POISSON_ORDER / 2) cosine buffer filled at once;
#: bounds the buffer only, since each row is summed on its own.
POISSON_ROWS = 2**9

#: Largest accepted order.  Up to it ``bessel_j`` stays within 4.1e-11 of an
#: independent reference on t in [0, 1e3]; beyond it the Poisson window
#: reaches 30 + alpha^2, more than POISSON_ORDER resolves (4.5e-10 at
#: alpha = 6, 32 at alpha = 10).
MAX_ORDER = 5.0

#: Maximum number of ascending-series terms; each point's series is
#: truncated earlier, after its first term below 1e-18 in magnitude.
SERIES_MAX_TERMS = 60

#: Bound on the Hankel-expansion term index, with the series' early stop.
ASYMPTOTIC_MAX_TERMS = 25


def _as_order(alpha) -> float:
    a = float(alpha)
    if not 0.0 <= a <= MAX_ORDER:
        raise ValueError(f"Bessel order must lie in [0, {MAX_ORDER:g}], got {a:g}")
    return a


def _series(alpha: float, t: np.ndarray) -> np.ndarray:
    # J_alpha(t) = sum_k (-1)^k (t/2)^(2k+alpha) / (k! Gamma(k+alpha+1))
    half = t / 2.0
    square = -(half**2)
    term = half**alpha / gamma(alpha + 1.0)
    out = term.copy()
    for k in range(1, SERIES_MAX_TERMS):
        term *= square
        term /= k * (k + alpha)
        out += term
        # a converged point adds exact zeros from here on
        live = np.abs(term) >= 1e-18
        term *= live
        if not live.any():
            break
    return out


def _poisson(alpha: float, t: np.ndarray) -> np.ndarray:
    # Poisson representation: J_alpha(t) = (t/2)^alpha / (Gamma(alpha+1/2)
    # Gamma(1/2)) * int_{-1}^{1} cos(t s) (1-s^2)^(alpha-1/2) ds, evaluated
    # with the Gauss-Jacobi rule matching the (1-s^2)^(alpha-1/2) weight.
    # The integrand is even and the rule symmetric, so the nonnegative half
    # of its nodes, with doubled weights, gives the same sum.
    x, w = gauss_jacobi(POISSON_ORDER, alpha - 0.5)
    half = POISSON_ORDER // 2
    x, w = x[half:], 2.0 * w[half:]
    pref = (t / 2.0) ** alpha / (gamma(alpha + 0.5) * gamma(0.5))
    flat = t.reshape(-1)
    integral = np.empty_like(flat)
    for i in range(0, flat.size, POISSON_ROWS):
        phase = np.multiply.outer(flat[i : i + POISSON_ROWS], x)
        # a row sum, not a BLAS product, whose rounding depends on the rows
        # around it
        np.cos(phase, out=phase)
        np.multiply(phase, w, out=phase)
        phase.sum(axis=1, out=integral[i : i + POISSON_ROWS])
    return pref * integral.reshape(t.shape)


def _asymptotic(alpha: float, t: np.ndarray) -> np.ndarray:
    # Hankel expansion J_alpha(t) ~ sqrt(2/(pi t)) [P cos(omega) - Q sin(omega)]
    # with omega = t - alpha pi/2 - pi/4.  The coefficient ratio
    # a_k/a_{k-1} = (mu - (2k-1)^2)/(8 k t) terminates exactly for
    # half-integer alpha; otherwise each point adds terms up to its first
    # one below 1e-18.
    mu = 4.0 * alpha**2
    p = np.ones_like(t)
    q = np.zeros_like(t)
    ak = np.ones_like(t)
    for k in range(1, ASYMPTOTIC_MAX_TERMS):
        ak *= mu - (2 * k - 1) ** 2
        ak /= 8.0 * k * t
        # P takes the even terms and Q the odd ones, with signs + + - - ...
        acc = q if k % 2 else p
        if k % 4 < 2:
            acc += ak
        else:
            acc -= ak
        live = np.abs(ak) >= 1e-18
        ak *= live
        if not live.any():
            break
    omega = t - alpha * pi / 2.0 - pi / 4.0
    return np.sqrt(2.0 / (pi * t)) * (p * np.cos(omega) - q * np.sin(omega))


def bessel_j(alpha, t):
    """Bessel function of the first kind J_alpha(t) for t >= 0 and
    0 <= alpha <= MAX_ORDER; other orders raise ValueError.

    Absolute accuracy on t in [0, 1e3] is better than 1e-10 over that range
    of orders, better than 5e-13 for the orders this package uses
    (alpha <= 2), and better than 5e-14 for half-integer orders, whose
    Hankel expansion is exact.  Scalar input returns a float.
    """
    a = _as_order(alpha)
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if np.any(t_arr < 0):
        raise ValueError("bessel_j requires t >= 0")
    out = np.empty_like(t_arr)
    lo = t_arr < max(8.0, 2.0 * a)
    # the Hankel expansion terminates for half-integer orders
    hi = t_arr >= max(8.0, 2.0 * a) if a % 1.0 == 0.5 else t_arr > 30.0 + a * a
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


def bessel_zero(alpha, k):
    """k-th positive zero of J_alpha, to absolute accuracy ~1e-12 for
    alpha <= 3 (against scipy's ``jn_zeros`` for k <= 2000: 2.7e-11 at
    alpha = 4 and 8.7e-11 at alpha = 5, from the error of ``bessel_j``).

    ``k`` is an int, which returns a float, or an array of indices, which
    returns an array of the same shape; each zero depends on its own index
    alone.  Brackets sign changes on a grid starting at max(alpha, 1) with
    step pi/4, summed one step at a time (zeros of J_alpha are spaced ~pi
    and the first exceeds alpha), then bisects every bracket together.  A
    bracket stops once it is narrower than 1e-13 or its midpoint rounds to
    one of its ends (a zero above 512 is never bracketed that narrowly).  The
    grid reaches (k + alpha/2 + 3/4) pi, past the k-th zero: by McMahon's
    expansion (k + alpha/2 - 1/4) pi - (4 alpha^2 - 1) / (8 (k + alpha/2 -
    1/4) pi) + ... (DLMF 10.21(vi)) it lies below (k + alpha/2) pi for
    every order up to MAX_ORDER.
    """
    a = _as_order(alpha)
    ks = np.asarray(k)
    if ks.dtype.kind not in "iu" or np.any(ks < 1):
        raise ValueError("zero index k must be an integer >= 1")
    step = pi / 4.0
    lo = max(a, 1.0)
    steps = 4 * int(ks.max(initial=1)) + int(2.0 * a) + 4
    grid = np.cumsum(np.r_[lo, np.full(steps, step)])
    f = bessel_j(a, grid)
    # interval i holds a zero if J vanishes at its left end or changes sign
    at = np.flatnonzero((f[:-1] == 0.0) | (f[:-1] * f[1:] < 0.0))[ks.reshape(-1) - 1]
    left, right, f_left = grid[at], grid[at + 1], f[at]
    # a grid point where J vanishes is its own zero: a bracket of width 0
    right[f_left == 0.0] = left[f_left == 0.0]
    live = np.flatnonzero(right - left >= 1e-13)
    for _ in range(100):
        mid = 0.5 * (left[live] + right[live])
        # a midpoint on an end of its bracket would leave the bracket as it is
        moves = (left[live] < mid) & (mid < right[live])
        live, mid = live[moves], mid[moves]
        if not live.size:
            break
        f_mid = bessel_j(a, mid)
        down = f_left[live] * f_mid < 0.0
        # J vanishing at the midpoint closes the bracket on it
        right[live[down | (f_mid == 0.0)]] = mid[down | (f_mid == 0.0)]
        left[live[~down]], f_left[live[~down]] = mid[~down], f_mid[~down]
        live = live[right[live] - left[live] >= 1e-13]
    zeros = (0.5 * (left + right)).reshape(ks.shape)
    return float(zeros) if ks.ndim == 0 else zeros


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
