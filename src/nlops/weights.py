"""Radial weight profiles and their Fourier multipliers.

A weight is a nonnegative radial profile rhohat on (0, infinity); its mass is
the full-space integral int_0^inf n omega_n r^(n-1) rhohat(r) dr.  The module
computes masses, tails, the superposition measure n omega_n rhohat(r)
r^(n-1) dr that expresses the radial operator as an average of sphere-scale
operators, and the oscillatory Bessel multiplier

    mu_hat(xi) = |xi|^(-n/2) int_0^inf n r^(n/2-1) rhohat(r) J_{n/2}(2 pi r |xi|) dr.

The mass, the tails and the superposition measure share one radial rule:
composite Gauss-Legendre panels split at the profile's breakpoints.  A
profile singular at the origin like r^a, a < 0, takes a Gauss-Jacobi first
panel (``quadrature.origin_panel``) whose weight is the factor r^(n-1+a) of
the integrand.  The multiplier substitutes t = 2 pi r xi and lays its panels
on the lattice [j h, (j + 1) h], h = (pi/2) 2^-k, with the smallest k >= 0
whose panels are no wider in r than R/32 and an eighth of the shortest
segment between breakpoints.  They are never wider than 1/(4 xi) either, so
each sees at most a quarter period of the Bessel factor.  Lattice panels
are split where they hold a breakpoint's image or the end of the support,
and a singular profile takes the origin panel on [0, h].  ``mu_hat`` takes
one frequency or an array of them.  The frequencies of one call on the same
lattice share the Bessel values of its whole panels, so a call costs the
widest lattice of each k plus its split panels in Bessel values (11 824 for
the normalized ``bump(2, 0.3)`` at 129 frequencies on [0, 89], where panels
of their own took 126 448).  It evaluates the profile on rectangles of
frequencies by nodes, which cover each frequency's nodes and a few past its
lattice (7 % more values than nodes for that table).  Its buffers hold at
most MU_HAT_BLOCK nodes, and beyond them it keeps 9 bytes per panel.

Shipped presets: ``fractional`` (indicator of the unit ball over |x|^(n-s),
for n = 1, 2, 3 and s in [1e-3, 1)), ``gaussian`` (|x|^2 times a normal
density), ``annulus`` (uniform on [eps, 2*eps], n=1), and a smooth
compactly supported ``bump``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import erfc, exp, pi, sqrt
from typing import Callable, Optional

import numpy as np

from nlops.bessel import bessel_j, unit_ball_volume
from nlops.quadrature import origin_panel, panel_rule

#: Unbounded supports are truncated where the declared analytic tail falls
#: below this absolute threshold.
TAIL_CUTOFF = 1e-10

#: Default Gauss-Legendre nodes per quadrature panel.
PANEL_NODES = 16

#: Nodes per ``bessel_j`` call, and per integrand pass over frequencies and
#: nodes, in ``mu_hat``; bounds its work buffers, not the quadrature.
MU_HAT_BLOCK = 2**13


class WeightError(ValueError):
    """Raised for non-integrable profiles or missing tail certificates."""


@dataclass(frozen=True)
class RadialWeight:
    """Radial weight with cached mass and truncation radii.

    Attributes
    ----------
    n : int
        Ambient dimension.
    profile : callable
        Vectorized map r -> rhohat(r) for r > 0 (ndarray in, ndarray out).
    support_radius : float or None
        Finite support bound, or None for unbounded support (then
        ``tail_bound`` must be supplied).
    singularity_exponent : float
        Exponent a with rhohat(r) ~ r^a as r -> 0; must satisfy a > -n.
    breakpoints : tuple of float
        Radii where the profile is non-smooth; quadrature panels split there.
    tail_bound : callable or None
        Analytic map delta -> integral of the weight outside B_delta.
    profile_mp : callable or None
        Map of an mpf radius to an mpf value; only ``mu_hat_highprec`` calls
        it.  The shipped ones import mpmath when called, not when declared.
    """

    n: int
    profile: Callable[[np.ndarray], np.ndarray]
    support_radius: Optional[float]
    singularity_exponent: float = 0.0
    breakpoints: tuple[float, ...] = ()
    tail_bound: Optional[Callable[[float], float]] = None
    profile_mp: Optional[Callable] = None
    name: str = field(default="custom", compare=False)
    params: dict = field(default_factory=dict, compare=False)
    mass: float = field(init=False, compare=False)
    truncation_radii: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.singularity_exponent <= -self.n:
            raise WeightError(
                f"singularity exponent {self.singularity_exponent} is not integrable "
                f"in dimension {self.n} (need a > -n)"
            )
        if self.support_radius is None and self.tail_bound is None:
            raise WeightError(
                "unbounded support requires an analytic tail bound; "
                "custom profiles must declare a support radius"
            )
        object.__setattr__(self, "mass", float(np.sum(superposition_measure(self)[1])))
        if not np.isfinite(self.mass) or self.mass <= 0.0:
            raise WeightError(f"weight mass must be finite and positive, got {self.mass}")


def truncation_radius(w: RadialWeight, threshold: float = TAIL_CUTOFF) -> float:
    """Radius beyond which the weight is ignored (declared tail < threshold).

    Compact supports return the support radius; unbounded supports bisect
    the analytic tail bound once per threshold and keep the radius in
    ``w.truncation_radii``.
    """
    if w.support_radius is not None:
        return float(w.support_radius)
    if threshold not in w.truncation_radii:
        w.truncation_radii[threshold] = _bisect_tail(w, threshold)
    return w.truncation_radii[threshold]


def _bisect_tail(w: RadialWeight, threshold: float) -> float:
    lo, hi = 1e-6, 1.0
    while w.tail_bound(hi) >= threshold:
        hi *= 2.0
        if hi > 1e9:
            raise WeightError("tail bound does not reach the truncation threshold")
    # a midpoint on an end of the bracket would leave it as it is from then on
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if w.tail_bound(mid) < threshold:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi


def superposition_measure(w: RadialWeight, *, delta: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Discrete measure approximating n omega_n rhohat(r) r^(n-1) dr.

    Returns (radii, weights) on (delta, R], with R the ``TAIL_CUTOFF``
    truncation radius; the weights sum to the weight's mass there to within
    the quadrature tolerance (1e-8 relative for the shipped presets).  The
    radii are the nodes of the radial rule that also gives the mass,
    ``tail`` and the direct radial operator: each segment between
    breakpoints gets uniform Gauss-Legendre panels no wider than R/32, at
    least 8 of them, and from the origin a singular profile (rhohat ~ r^a,
    a < 0) takes ``origin_panel`` for its first panel, whose Gauss-Jacobi
    rule integrates the factor r^(n-1+a) of the integrand exactly.
    """
    R = truncation_radius(w)
    if delta >= R:
        return np.array([]), np.array([])
    lo = max(delta, 0.0)
    points = [lo] + sorted({b for b in w.breakpoints if lo < b < R}) + [R]
    # each segment's edges but its last, which opens the next segment
    edges = np.concatenate(
        [np.linspace(a, b, max(8, int(np.ceil((b - a) / (R / 32.0)))) + 1)[:-1] for a, b in zip(points, points[1:])] + [[R]]
    )
    r, q = panel_rule(edges, PANEL_NODES)
    if lo == 0.0 and w.singularity_exponent < 0.0:
        r[:PANEL_NODES], q[:PANEL_NODES] = origin_panel(edges[1], PANEL_NODES, w.n - 1.0 + w.singularity_exponent)
    return r, q * (unit_ball_volume(w.n) * w.n * r ** (w.n - 1) * w.profile(r))


def tail(w: RadialWeight, delta: float) -> float:
    """Mass outside the ball of radius delta (same quadrature, restricted)."""
    if delta <= 0:
        raise ValueError("tail requires delta > 0")
    return float(np.sum(superposition_measure(w, delta=delta)[1]))


def normalize(w: RadialWeight) -> RadialWeight:
    """Scale the profile to unit mass; idempotent up to rounding.

    An unbounded weight's mass comes from quadrature truncated at
    ``TAIL_CUTOFF``, so it misses up to 1e-10 of the tail: a normalized
    Gaussian modification of width sigma is too large by about
    1e-10/sigma^2 relative, and every multiplier of it, even
    ``mu_hat_highprec``'s, inherits that offset.
    """
    m = w.mass
    if not np.isfinite(m) or m <= 0.0:
        raise WeightError("cannot normalize a weight of zero or infinite mass")
    prof = w.profile
    new_tail = None if w.tail_bound is None else (lambda d, _t=w.tail_bound, _m=m: _t(d) / _m)
    # an mpf divided by the float m is the mpf divided by mpf(m) at any precision
    new_mp = None if w.profile_mp is None else (lambda r, _p=w.profile_mp, _m=m: _p(r) / _m)
    return replace(
        w,
        profile=lambda r, _p=prof, _m=m: _p(r) / _m,
        tail_bound=new_tail,
        profile_mp=new_mp,
        name=f"{w.name}/normalized",
    )


# ---------------------------------------------------------------------------
# Fourier multiplier


def _mu_hat_quad(w: RadialWeight, xis: np.ndarray, nodes_per_panel: int) -> np.ndarray:
    """Panel quadrature of the oscillatory multiplier integral at each xi > 0.

    In t = 2 pi r xi the integral runs over [0, T], T = 2 pi R xi, on the
    lattice panels [j h, (j + 1) h]; a panel that holds the image of a
    breakpoint, or T, is split there and the part past T dropped.  The
    frequencies on one lattice form a band, and the nodes of whole lattice
    panels are the same numbers for all of them, so the Bessel values of
    each band's widest lattice serve the whole band; only split panels have
    nodes of their own.  These sources, lattices first, go to ``bessel_j``
    MU_HAT_BLOCK nodes per call.  In each block, a band's frequencies, by
    decreasing panel count, take the block's part of the lattice in
    rectangles of at most MU_HAT_BLOCK nodes.  A frequency sums each of its
    panels, and then its panel sums in lattice order, so its value depends
    on it alone.
    """
    P = nodes_per_panel
    half = w.n / 2.0
    R = truncation_radius(w)
    scale = 2.0 * pi * xis  # t = scale * r
    inner = sorted({b for b in w.breakpoints if 0.0 < b < R})
    # the lattice step is h = (pi/2) 2^-k with the smallest level k >= 0
    # whose panels, h / (2 pi xi) = 2^-k / (4 xi) wide in r, are no wider
    # than R/32 and an eighth of the shortest segment between breakpoints
    shortest = min(np.diff([0.0] + inner + [R]))
    level = np.maximum(0, 1 - np.frexp(xis * min(R / 8.0, shortest / 2.0))[1])
    h = np.ldexp(pi / 2.0, -level)
    end = scale * R
    count = end / h
    if np.any(count >= np.iinfo(np.intp).max):
        i = int(np.argmax(count))
        raise ValueError(f"mu_hat at xi = {xis[i]:g} needs {count[i]:.3g} panels, more than an array can index")
    whole = np.floor(count).astype(np.intp)
    # frequency i sums slots start[i] + j: j < whole[i] for its lattice
    # panels, j = whole[i] for the panel cut at T
    start = np.concatenate([[0], np.cumsum(whole + 1)])
    cut = np.flatnonzero(whole * h < end)
    lo, hi, owner, index = [whole[cut] * h[cut]], [end[cut]], [cut], [whole[cut]]
    split = np.zeros(start[-1], dtype=bool)
    for b in inner:
        at_b = scale * b
        j = np.floor(at_b / h).astype(np.intp)
        # an image within rounding of a lattice point splits nothing
        i = np.flatnonzero((j * h < at_b) & (at_b < (j + 1) * h))
        j, at_b = j[i], at_b[i]
        split[start[i] + j] = True
        lo += [j * h[i], at_b]
        hi += [at_b, (j + 1) * h[i]]
        owner += [i, i]
        index += [j, j]
    lo, hi, owner, index = (np.concatenate(part) for part in (lo, hi, owner, index))
    # a band lists the frequencies of one level by decreasing whole panel
    # count; its lattice, the first frequency's whole panels, is sources
    # base[b] .. base[b + 1] - 1, and the split panels follow
    order = np.argsort(-whole, kind="stable")
    bands = [order[level[order] == k] for k in np.flatnonzero(np.bincount(level))]
    base = np.cumsum([0] + [whole[band[0]] for band in bands])
    lattice, sources = base[-1], base[-1] + lo.size
    sums = np.zeros(start[-1])
    block = MU_HAT_BLOCK // P
    for g0 in range(0, sources, block):
        g1 = min(g0 + block, sources)
        # panels j0 .. j1 - 1 of each band's lattice are in this block
        spans = [(band, max(g0 - a, 0), min(g1, b) - a) for band, a, b in zip(bands, base, base[1:])]
        spans = [(band, j0, j1) for band, j0, j1 in spans if j0 < j1]
        rows = np.arange(max(g0, lattice), g1) - lattice
        lattice_edges = [(np.arange(j0, j1)[:, None] + (0, 1)) * h[band[0]] for band, j0, j1 in spans]
        edges = np.concatenate(lattice_edges + [np.stack([lo[rows], hi[rows]], axis=-1)])
        nodes, weights = panel_rule(edges, P)
        if w.singularity_exponent < 0.0:
            at_0 = edges[:, 0] == 0.0
            nodes[at_0], weights[at_0] = origin_panel(edges[at_0, 1], P, w.n - 1.0 + w.singularity_exponent)
        qj = weights * bessel_j(half, nodes.ravel()).reshape(nodes.shape)
        at = 0
        for band, j0, j1 in spans:
            users = band[whole[band] > j0]
            while users.size:
                # one rectangle of frequencies by panels by nodes; it covers
                # the first frequency's panels, and a panel past another's
                # lattice, or split for it, leaves that one's slot alone
                m = min(whole[users[0]], j1) - j0
                i, users = users[: block // m], users[block // m :]
                r = nodes[at : at + m] / scale[i, None, None]
                vals = w.n * r ** (half - 1.0) * w.profile(r)
                j = np.arange(j0, j0 + m)
                slot, own = start[i, None] + j, j < whole[i, None]
                own[own] = ~split[slot[own]]
                sums[slot[own]] = np.sum(qj[at : at + m] * vals, axis=-1)[own]
            at += j1 - j0
        i = owner[rows]
        r = nodes[at:] / scale[i, None]
        vals = w.n * r ** (half - 1.0) * w.profile(r)
        np.add.at(sums, start[i] + index[rows], np.sum(qj[at:] * vals, axis=1))
    totals = np.array([np.sum(sums[a:b]) for a, b in zip(start[:-1], start[1:])])
    return totals / scale / xis**half


def _multiplier(w: RadialWeight, xis: np.ndarray, nodes_per_panel: int) -> np.ndarray:
    """mu_hat at each entry of ``xis`` with the given panel rule: the mass at 0."""
    if not np.all(np.isfinite(xis) & (xis >= 0.0)):
        raise ValueError("frequency magnitude must be finite and nonnegative")
    out = np.full(xis.shape, w.mass)
    positive = xis > 0.0
    if positive.any():
        out[positive] = _mu_hat_quad(w, xis[positive], nodes_per_panel)
    return out


def mu_hat(w: RadialWeight, xi_norm):
    """Multiplier of the radial operator at frequency magnitude(s) xi_norm.

    At zero frequency the value is the weight's mass (exactly 1 for
    normalized weights, up to the 1e-8 mass quadrature tolerance).  The
    quadrature runs in t = 2 pi r xi on the panel lattice of step
    h = (pi/2) 2^-k, the coarsest whose panels are no wider in r than
    min(1/(4 xi), R/32) and an eighth of the shortest segment between
    breakpoints, so each panel sees at most a quarter period of the Bessel
    oscillation; panels are split at breakpoints and at the end of the
    support.  The frequencies of one call with the same k share the Bessel
    values of their whole panels, MU_HAT_BLOCK nodes per ``bessel_j`` call,
    and no work buffer holds more than MU_HAT_BLOCK nodes; a scalar is a
    one-element array and returns a float.  Each value depends on its own
    frequency alone: ``mu_hat(w, xis)[i] == mu_hat(w, xis[i])`` bit for bit.
    """
    xi = np.asarray(xi_norm, dtype=float)
    out = _multiplier(w, xi, PANEL_NODES)
    return float(out) if xi.ndim == 0 else out


def mu_hat_scan(w: RadialWeight, xi_grid) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate mu_hat on a grid, with a per-point error estimate.

    The estimate is the difference between the default rule and a lower
    order rule on the same panels (plus an ulp-level floor); each rule is
    one batched evaluation over the whole grid.  It covers the panel rule
    only, not the truncation of an unbounded tail at ``TAIL_CUTOFF`` nor
    the mass quadrature behind ``normalize``.  For the normalized Gaussian
    with sigma = 1 the values at xi >= 0.936 are 4e-13 to 1.7e-12 from the
    closed form exp(-2 pi^2 xi^2), over 100 % of the value at xi = 1.2,
    while the estimate reads about 1e-15.
    """
    xi_grid = np.asarray(xi_grid, dtype=float)
    vals = _multiplier(w, xi_grid, PANEL_NODES)
    coarse = _multiplier(w, xi_grid, PANEL_NODES // 2)
    errs = np.where(xi_grid == 0.0, 1e-8 * np.abs(vals), np.abs(vals - coarse) + 1e-15)
    return vals, errs


def mu_hat_highprec(w: RadialWeight, xi_norm: float, dps: int = 35):
    """Arbitrary-precision multiplier evaluation (n=1 profiles only).

    Uses the half-order reduction of the defining integral,
    mu_hat(xi) = (1/(pi xi)) int_0^inf rhohat(r) sin(2 pi r xi) / r dr,
    integrated with mpmath between consecutive zeros of the sine factor,
    out to where the declared tail bound drops below 10^-dps.  Needed where
    the double-precision oscillatory quadrature cannot resolve exponentially
    small values (deep Gaussian tails).  Returns an mpmath float.
    """
    import mpmath as mp

    if w.n != 1:
        raise ValueError("high-precision multiplier path is implemented for n=1 only")
    if w.profile_mp is None:
        raise WeightError("weight does not declare an mpmath-compatible profile")
    if xi_norm <= 0:
        raise ValueError("high-precision path requires xi_norm > 0")
    with mp.workdps(dps):
        x = mp.mpf(xi_norm)
        # an unbounded tail is cut where its declared bound drops below the
        # working precision, so wide weights integrate out far enough; the
        # bound is a double, so the cut stops at the smallest normal one
        R = mp.mpf(truncation_radius(w, max(10.0**-dps, np.finfo(float).tiny)))
        f = lambda r: w.profile_mp(r) * mp.sin(2 * mp.pi * r * x) / r
        zeros = [mp.mpf(k) / (2 * x) for k in range(1, int(2 * x * R) + 1)]
        points = [mp.mpf(0)] + zeros[::3] + [R]
        val = mp.quad(f, points, maxdegree=6)
        return val / (mp.pi * x)


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of a multiplier sign scan over a frequency grid."""

    min_value: float
    argmin_xi: float
    sign_changes: tuple[tuple[float, float], ...]
    verdict: str


def _sorted_grid(xi_grid) -> np.ndarray:
    xi_grid = np.asarray(xi_grid, dtype=float)
    if xi_grid.size == 0:
        raise ValueError("positivity scan requires a nonempty grid")
    if np.any(np.diff(xi_grid) < 0):
        raise ValueError("positivity scan requires a sorted grid")
    return xi_grid


def positivity_scan(w: RadialWeight, xi_grid) -> PositivityReport:
    """Scan mu_hat over a sorted grid and report minimum and sign changes.

    A sign change between adjacent grid points is a candidate zero of the
    multiplier (relevant to kernel equivalence); the verdict is grid-relative.
    Values below the double-precision quadrature noise floor (deep Gaussian
    tails) need ``mu_hat_highprec``; pass its values to
    :func:`positivity_report`.
    """
    vals, _ = mu_hat_scan(w, _sorted_grid(xi_grid))
    return positivity_report(xi_grid, vals)


def positivity_report(xi_grid, vals) -> PositivityReport:
    """Minimum and sign changes of multiplier values ``vals`` on a sorted grid."""
    xi_grid = _sorted_grid(xi_grid)
    vals = np.asarray(vals, dtype=float)
    at = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    changes = tuple(zip(xi_grid[at].tolist(), xi_grid[at + 1].tolist()))
    imin = int(np.argmin(vals))
    verdict = "positivity certificate on grid" if not changes and vals[imin] > 0 else "zero crossing detected"
    return PositivityReport(
        min_value=float(vals[imin]),
        argmin_xi=float(xi_grid[imin]),
        sign_changes=changes,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Presets


#: Smallest exponent s that ``fractional`` accepts, in every dimension.  The
#: profile's exponent s - n is a double, up to 2.2e-16 off, which moves the
#: mass n omega_n / s by that much relative to s: 1.1e-13 at s = 1e-3 and
#: 2.1e-12 at s = 1e-4.  The radial rule integrates the profile it is given
#: to 1e-14 down to s = 1e-5.
FRACTIONAL_MIN_S = 1e-3


def fractional(n: int, s: float) -> RadialWeight:
    """Indicator of the unit ball over |x|^(n-s); mass n*omega_n/s.

    Defined for n = 1, 2, 3 and s in [FRACTIONAL_MIN_S, 1) = [1e-3, 1); a
    smaller s raises ValueError.  The radial rule integrates the factor
    r^(s-1) of r^(n-1) rhohat(r) on its Gauss-Jacobi origin panel, so its
    nodes stay away from 0.  The normalized multiplier has the closed form
    1F2(s/2; n/2 + 1, 1 + s/2; -pi^2 xi^2).
    """
    if not 0.0 < s < 1.0:
        raise ValueError("fractional exponent s must lie in (0, 1)")
    if n not in (1, 2, 3):
        raise ValueError(f"fractional weights are defined for n in 1, 2, 3, got n = {n}")
    if s < FRACTIONAL_MIN_S:
        raise ValueError(
            f"fractional exponent s = {s:g} is below {FRACTIONAL_MIN_S:g}, "
            f"the smallest the radial rule resolves for n = {n}"
        )

    def prof(r):
        r = np.asarray(r, float)
        return np.where(r <= 1.0, np.power(r, s - n), 0.0)

    return RadialWeight(
        n=n,
        profile=prof,
        support_radius=1.0,
        singularity_exponent=s - n,
        breakpoints=(1.0,),
        name="fractional",
        params={"s": s},
    )


def _upper_gamma_half(n: int, x: float) -> float:
    """Upper incomplete gamma function Gamma(n/2 + 1, x) for integer n >= 0, x >= 0.

    Upward recurrence Gamma(s+1, x) = s Gamma(s, x) + x^s e^(-x) (DLMF 8.8.2)
    from Gamma(1, x) = e^(-x) or Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x))
    (DLMF 8.4.6); every term is positive, so nothing cancels.
    """
    if n % 2:
        s, value = 0.5, sqrt(pi) * erfc(sqrt(x))
    else:
        s, value = 1.0, exp(-x)
    while s < n / 2.0 + 1.0:
        value = s * value + x**s * exp(-x)
        s += 1.0
    return value


def gaussian_modification(n: int, sigma: float) -> RadialWeight:
    """|x|^2 G_sigma(|x|) with G_sigma the 1D normal density (variance sigma^2).

    Unbounded support with an exact incomplete-gamma tail; in n=1 the mass is
    sigma^2 exactly.  Declares an mpmath profile for the high-precision
    multiplier path.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    norm_c = 1.0 / (sigma * sqrt(2.0 * pi))

    def prof(r):
        r = np.asarray(r, float)
        return r**2 * norm_c * np.exp(-(r**2) / (2.0 * sigma**2))

    def tail_exact(delta):
        # int_delta^inf n omega_n r^(n+1) G_sigma(r) dr via the upper
        # incomplete gamma function (exact, not just a bound)
        return (
            n
            * unit_ball_volume(n)
            * norm_c
            * sigma ** (n + 2)
            * 2.0 ** (n / 2.0)
            * _upper_gamma_half(n, delta**2 / (2.0 * sigma**2))
        )

    # (2 sigma^2, sigma sqrt(2 pi)) per working precision: mp.quad raises the
    # precision while it evaluates, and keying on it keeps every value
    # bit-identical to recomputing the constants on each call
    mp_consts = {}

    def prof_mp(r):
        import mpmath as mp

        if mp.mp.prec not in mp_consts:
            s = mp.mpf(sigma)
            mp_consts[mp.mp.prec] = (2 * s**2, s * mp.sqrt(2 * mp.pi))
        two_var, denom = mp_consts[mp.mp.prec]
        r2 = r**2
        return r2 * mp.e ** (-r2 / two_var) / denom

    return RadialWeight(
        n=n,
        profile=prof,
        support_radius=None,
        singularity_exponent=2.0,
        tail_bound=tail_exact,
        profile_mp=prof_mp,
        name="gaussian",
        params={"sigma": sigma},
    )


def annulus(eps: float) -> RadialWeight:
    """Uniform probability weight on the annulus eps <= |t| <= 2*eps (n=1)."""
    if eps <= 0:
        raise ValueError("eps must be positive")

    def prof(r):
        r = np.asarray(r, float)
        return np.where((r >= eps) & (r <= 2.0 * eps), 1.0 / (2.0 * eps), 0.0)

    return RadialWeight(
        n=1,
        profile=prof,
        support_radius=2.0 * eps,
        singularity_exponent=0.0,
        breakpoints=(eps, 2.0 * eps),
        name="annulus",
        params={"eps": eps},
    )


def bump(n: int, radius: float = 0.3) -> RadialWeight:
    """Smooth compactly supported profile exp(-1/(1-(r/R)^2)) on [0, R)."""
    if radius <= 0:
        raise ValueError("radius must be positive")

    def prof(r):
        r = np.asarray(r, float)
        z = (r / radius) ** 2
        out = np.zeros_like(r)
        inside = z < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - z[inside]))
        return out

    return RadialWeight(
        n=n,
        profile=prof,
        support_radius=radius,
        singularity_exponent=0.0,
        name="bump",
        params={"radius": radius},
    )


def rescaled_family(base: RadialWeight) -> Callable[[float], RadialWeight]:
    """Family eps -> eps^(-n) rhohat(r/eps); each member has the base's mass."""

    def gen(eps: float) -> RadialWeight:
        if eps <= 0:
            raise ValueError("eps must be positive")
        prof = lambda r, _e=eps: base.profile(np.asarray(r, float) / _e) / _e**base.n
        new_tail = None
        if base.tail_bound is not None:
            new_tail = lambda d, _e=eps: base.tail_bound(d / _e)
        return RadialWeight(
            n=base.n,
            profile=prof,
            support_radius=None if base.support_radius is None else base.support_radius * eps,
            singularity_exponent=base.singularity_exponent,
            breakpoints=tuple(b * eps for b in base.breakpoints),
            tail_bound=new_tail,
            name=f"{base.name}@{eps:g}",
            params=dict(base.params, eps=eps),
        )

    return gen


def _annulus_preset(n: int = 1, eps: float = 0.1) -> RadialWeight:
    if n != 1:
        raise ValueError(f"the annulus weight is defined for n = 1 only, got n = {n}")
    return annulus(eps)


WEIGHT_PRESETS = {
    "fractional": lambda n=1, s=0.5: fractional(n, s),
    "gaussian": lambda n=1, sigma=1.0: gaussian_modification(n, sigma),
    "annulus": _annulus_preset,
    "bump": bump,
}
