"""Radial weight profiles and their Fourier multipliers.

A weight is a nonnegative radial profile rhohat on (0, infinity); its mass is
the full-space integral int_0^inf n omega_n r^(n-1) rhohat(r) dr.  The module
computes masses, tails, the superposition measure n omega_n rhohat(r)
r^(n-1) dr that expresses the radial operator as an average of sphere-scale
operators, and the oscillatory Bessel multiplier

    mu_hat(xi) = |xi|^(-n/2) int_0^inf n r^(n/2-1) rhohat(r) J_{n/2}(2 pi r |xi|) dr.

One radial rule serves all four: composite Gauss-Legendre panels split at
the profile's breakpoints, with a power-law substitution taming an
integrable singularity at the origin.  The multiplier's panels are in
addition no wider than 1/(4 xi), so each sees at most a quarter period of
the Bessel factor.  ``mu_hat`` takes one frequency or an array of them; it
builds the rule per frequency and evaluates the Bessel factor of all of
them together, MU_HAT_BLOCK radial nodes per ``bessel_j`` call, which
removes the per-call overhead of one quadrature per frequency.

Shipped presets: ``fractional`` (indicator of the unit ball over |x|^(n-s),
for n = 1, 2, 3 and s from 0.05, 0.1 and 0.2 up to 1), ``gaussian`` (|x|^2
times a normal density), ``annulus`` (uniform on [eps, 2*eps], n=1), and a
smooth compactly supported ``bump``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import erfc, exp, pi, sqrt
from typing import Callable, Optional

import numpy as np

from nlops.bessel import bessel_j, unit_ball_volume
from nlops.quadrature import graded_boundaries, panel_rule

#: Unbounded supports are truncated where the declared analytic tail falls
#: below this absolute threshold.
TAIL_CUTOFF = 1e-10

#: Default Gauss-Legendre nodes per quadrature panel.
PANEL_NODES = 16

#: Radial nodes per ``bessel_j`` call when ``mu_hat`` evaluates an array of
#: frequencies; bounds the Bessel work buffers, not the quadrature.
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
        mpmath-compatible profile for the high-precision multiplier path.
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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if w.tail_bound(mid) < threshold:
            hi = mid
        else:
            lo = mid
    return hi


def _substitution_beta(w: RadialWeight) -> float:
    """Power-law substitution r = u^beta regularizing the radial integrand.

    For a singular profile rhohat ~ r^a with a < 0, the radial integrand
    n omega_n r^(n-1+a) transforms to ~ u^(beta*(n+a)-1).  Choosing
    beta = k/(n+a) with the integer k = ceil(1+|a|) makes that exponent the
    nonnegative integer k-1, so pure power profiles become polynomials in u
    and Gauss-Legendre panels integrate them exactly.
    """
    a = w.singularity_exponent
    if a >= 0.0:
        return 1.0
    k = int(np.ceil(1.0 + abs(a)))
    return k / (w.n + a)


def _panel_blocks(w: RadialWeight, lo: float, R: float, width: float, nodes_per_panel: int):
    """Yield the (nodes, weights) blocks of the radial rule for int_lo^R f(r) dr.

    From the origin a singular profile gets the substituted block
    (r = u^beta on 24 panels graded toward u = 0), which ends at the first
    breakpoint or at ``width``, whichever comes first.  Each segment between
    breakpoints then gets uniform panels no wider than min(width, R/32), at
    least 8 of them, yielded at most MU_HAT_BLOCK // nodes_per_panel panels
    per block, so no block holds more than MU_HAT_BLOCK nodes.
    """
    beta = _substitution_beta(w)
    cuts = sorted(b for b in w.breakpoints if lo < b < R)
    if lo == 0.0 and beta != 1.0:
        lo = min(cuts[0] if cuts else R, width)
        u_nodes, u_weights = panel_rule(graded_boundaries(0.0, lo ** (1.0 / beta), 24, 2.0), nodes_per_panel)
        yield u_nodes**beta, u_weights * (beta * u_nodes ** (beta - 1.0))
    points = [lo] + [b for b in cuts if b > lo] + [R]
    step = min(width, R / 32.0)
    panels = MU_HAT_BLOCK // nodes_per_panel
    for seg_lo, seg_hi in zip(points[:-1], points[1:]):
        if seg_lo < seg_hi:
            count = max(8, int(np.ceil((seg_hi - seg_lo) / step)))
            edges = np.linspace(seg_lo, seg_hi, count + 1)
            for k in range(0, count, panels):
                yield panel_rule(edges[k : k + panels + 1], nodes_per_panel)


def superposition_measure(w: RadialWeight, *, delta: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Discrete measure approximating n omega_n rhohat(r) r^(n-1) dr.

    Returns (radii, weights) on (delta, R], with R the ``TAIL_CUTOFF``
    truncation radius; the weights sum to the weight's mass there to within
    the quadrature tolerance (1e-8 relative for the shipped presets).  The
    radii are the nodes of the one radial rule that also gives the mass,
    ``tail``, the direct radial operator and, with panels no wider than
    1/(4 xi), ``mu_hat``: panels split at the profile's breakpoints, with the
    origin substitution when the profile is singular.
    """
    R = truncation_radius(w)
    if delta >= R:
        return np.array([]), np.array([])
    blocks = list(_panel_blocks(w, max(delta, 0.0), R, np.inf, PANEL_NODES))
    r = np.concatenate([nodes for nodes, _ in blocks])
    q = np.concatenate([weights for _, weights in blocks])
    return r, q * (unit_ball_volume(w.n) * w.n * r ** (w.n - 1) * w.profile(r))


def mass(w: RadialWeight) -> float:
    """Total mass, i.e. the L1 norm of the weight on R^n (cached at init)."""
    return w.mass


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
    new_mp = None
    if w.profile_mp is not None:
        import mpmath as mp

        new_mp = lambda r, _p=w.profile_mp, _m=mp.mpf(m): _p(r) / _m  # a float is exact in mpf
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

    Consecutive panel blocks, across frequencies, share one integrand and
    ``bessel_j`` evaluation of at most MU_HAT_BLOCK radial nodes.  Each
    frequency's total is the sum of its per-block sums, in block order.
    """
    half = w.n / 2.0
    R = truncation_radius(w)
    totals = [0.0] * len(xis)
    blocks = (
        (i, r, q) for i, xi in enumerate(xis) for r, q in _panel_blocks(w, 0.0, R, 1.0 / (4.0 * xi), nodes_per_panel)
    )
    for group in _node_groups(blocks):
        r = np.concatenate([r for _, r, _ in group])
        freq = np.concatenate([np.full(r.size, xis[i]) for i, r, _ in group])
        vals = w.n * r ** (half - 1.0) * w.profile(r) * bessel_j(half, 2.0 * pi * r * freq)
        offset = 0
        for i, r, q in group:
            totals[i] += float(np.sum(q * vals[offset : offset + r.size]))
            offset += r.size
    return np.array([total / xi**half for total, xi in zip(totals, xis)])


def _node_groups(blocks):
    """Consecutive ``(i, nodes, weights)`` blocks in lists of at most
    MU_HAT_BLOCK nodes."""
    group, size = [], 0
    for block in blocks:
        if group and size + block[1].size > MU_HAT_BLOCK:
            yield group
            group, size = [], 0
        group.append(block)
        size += block[1].size
    if group:
        yield group


def _multiplier(w: RadialWeight, xis: np.ndarray, nodes_per_panel: int) -> np.ndarray:
    """mu_hat at each entry of ``xis`` with the given panel rule: the mass at 0."""
    if not np.all(np.isfinite(xis) & (xis >= 0.0)):
        raise ValueError("frequency magnitude must be finite and nonnegative")
    out = np.full(xis.shape, w.mass)
    positive = xis > 0.0
    out[positive] = _mu_hat_quad(w, xis[positive], nodes_per_panel)
    return out


def mu_hat(w: RadialWeight, xi_norm):
    """Multiplier of the radial operator at frequency magnitude(s) xi_norm.

    At zero frequency the value is the weight's mass (exactly 1 for
    normalized weights, up to the 1e-8 mass quadrature tolerance).  The
    quadrature is the radial rule of the mass and ``superposition_measure``
    with panels no wider than 1/(4 xi), so each panel sees at most a quarter
    period of the Bessel oscillation.  The panel blocks of all the
    given frequencies are evaluated together, MU_HAT_BLOCK radial nodes per
    ``bessel_j`` call; a scalar is a one-element array and returns a float.
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
    changes = []
    for i in range(len(vals) - 1):
        if vals[i] * vals[i + 1] < 0.0:
            changes.append((float(xi_grid[i]), float(xi_grid[i + 1])))
    imin = int(np.argmin(vals))
    verdict = "positivity certificate on grid" if not changes and vals[imin] > 0 else "zero crossing detected"
    return PositivityReport(
        min_value=float(vals[imin]),
        argmin_xi=float(xi_grid[imin]),
        sign_changes=tuple(changes),
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Presets


#: Smallest exponent s, per dimension n, that the radial rule resolves for
#: ``fractional``.  Below it the substituted block's nodes r = u^beta fall
#: under the profile's 1e-300 floor: r^(s-n) overflows there for n >= 2, and
#: for n = 1 the mass below them (a share of about r^s) is lost.  A scan in
#: steps of 0.001 found the mass within 1e-12 of n omega_n / s from 0.034,
#: 0.094 and 0.185 on, and ``mu_hat`` up to xi = 1e4 finite, without a
#: floating-point warning, from 0.049, 0.097 and 0.192 on.
FRACTIONAL_MIN_S = {1: 0.05, 2: 0.1, 3: 0.2}


def fractional(n: int, s: float) -> RadialWeight:
    """Indicator of the unit ball over |x|^(n-s); mass n*omega_n/s.

    Defined for n = 1, 2, 3 and s in [FRACTIONAL_MIN_S[n], 1), that is from
    0.05, 0.1 and 0.2; a smaller s raises ValueError.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("fractional exponent s must lie in (0, 1)")
    if n not in FRACTIONAL_MIN_S:
        raise ValueError(f"fractional weights are defined for n in 1, 2, 3, got n = {n}")
    if s < FRACTIONAL_MIN_S[n]:
        raise ValueError(
            f"fractional exponent s = {s:g} is below {FRACTIONAL_MIN_S[n]:g}, "
            f"the smallest the radial rule resolves for n = {n}"
        )

    def prof(r):
        r = np.asarray(r, float)
        return np.where(r <= 1.0, np.power(np.maximum(r, 1e-300), s - n), 0.0)

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


def annulus_family() -> "ConcentratingFamily":
    """The family eps -> uniform annulus weight (already probability mass).

    The paper states localization (A_w(eps) u -> A u) without a rate.  For
    this even profile the rate is quadratic: the multiplier has the
    sine-integral closed form [Si(4 pi eps xi) - Si(2 pi eps xi)] / (2 pi eps xi)
    = 1 - (7/18)(2 pi eps xi)^2 + O(eps^4 xi^4), set by the second moment
    int rho h^2 dh = 7 eps^2 / 3 (over the whole line).  The L^2 localization
    error is therefore (7/18) eps^2 ||u'''||_2 (1 + O(eps^2)), so halving eps
    divides it by 4 in the limit.
    """
    return ConcentratingFamily(generator=annulus, name="annulus")


def rescaled_family(base: RadialWeight) -> "ConcentratingFamily":
    """Family eps -> eps^(-n) rhohat(r/eps) built from a normalized base weight."""
    base = normalize(base)

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

    return ConcentratingFamily(generator=gen, name=f"rescaled-{base.name}")


@dataclass(frozen=True)
class ConcentratingFamily:
    """Family eps -> probability weight concentrating at the origin.

    Members must have unit mass and tails vanishing as eps -> 0; both
    properties are exercised by the test suite on a grid of (eps, delta).
    """

    generator: Callable[[float], RadialWeight]
    name: str = "family"

    def __call__(self, eps: float) -> RadialWeight:
        return self.generator(eps)


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
