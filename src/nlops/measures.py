"""Averaging operators on vector measures, and area-functional checks.

A measure here is an absolutely continuous part, sampled as a
piecewise-constant density on a uniform cell grid over a fixed window, plus
a finite list of atoms.  One kernel computes the ball averages of such
measures: in 1D exactly for the cell model (prefix sums with partial cells),
in 2D by counting whole cells by their centres (not exact: on a constant
density the average misses by O(h/r)), and with point-in-ball tests for
atoms.  On top of the averages the module
provides the weighted radial operator for measures, the sup-norm
localization gap for u(t) = |t|, the area functional with recession term,
its convergence tables, a one-dimensional Gauss-Green residual for
piecewise-smooth functions, and a two-dimensional atomic example with a
discontinuous average.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import log, pi, sqrt
from typing import Callable, Optional, Sequence

import numpy as np

from nlops.quadrature import graded_boundaries, panel_rule
from nlops.weights import RadialWeight, annulus, truncation_radius
from nlops.bessel import unit_ball_volume

#: Distances closer than this to a ball boundary count as "on" it.
BOUNDARY_ATOL = 1e-12

#: Ray parameter for the default recession-function approximation.
RECESSION_T = 1e6

#: Probes of ``linf_gap``: the midpoints of this many equal cells of (-1, 1).
LINF_PROBES = 400


class MeasureError(ValueError):
    """Base class for measure evaluation errors."""


class AtomOnBoundaryError(MeasureError):
    """An atom sits on the sphere bounding the averaging ball."""


class WindowExitError(MeasureError):
    """The averaging ball is not contained in the measure's window."""


class JumpAtEvaluationError(MeasureError):
    """A Gauss-Green endpoint coincides with a jump location."""


def _grid(lo: float, hi: float, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges and centres of ``cells`` equal cells on [lo, hi]."""
    edges = np.linspace(lo, hi, cells + 1)
    return edges, 0.5 * (edges[:-1] + edges[1:])


@dataclass(frozen=True)
class MeasureField:
    """Vector measure on a window: piecewise-constant density plus atoms.

    ``window`` is an (n, 2) array of axis intervals; ``density`` has shape
    (cells,)*n + (dim,) and is interpreted as constant on each grid cell (or
    None for a purely atomic measure); ``atoms`` is a sequence of
    (location, weight) pairs with locations strictly inside the window.
    """

    n: int
    window: np.ndarray
    density: Optional[np.ndarray]
    atoms: tuple = ()
    dim: int = 1

    def __post_init__(self):
        win = np.asarray(self.window, dtype=float).reshape(self.n, 2)
        if np.any(win[:, 1] <= win[:, 0]):
            raise MeasureError("window intervals must have positive length")
        object.__setattr__(self, "window", win)
        if self.n not in (1, 2):
            raise MeasureError("measures are supported in dimensions 1 and 2")
        dens = self.density
        if dens is not None:
            dens = np.asarray(dens, dtype=float)
            if dens.ndim != self.n + 1 or dens.shape[-1] != self.dim:
                raise MeasureError(
                    f"density must have shape (cells,)*{self.n} + ({self.dim},), got {dens.shape}"
                )
            dens = dens.copy()
            dens.flags.writeable = False
            object.__setattr__(self, "density", dens)
        locs = []
        atoms = []
        for loc, weight in self.atoms:
            loc = tuple(float(x) for x in np.atleast_1d(np.asarray(loc, float)))
            weight = np.asarray(weight, dtype=float).reshape(self.dim)
            if len(loc) != self.n:
                raise MeasureError(f"atom location {loc} has wrong dimension")
            if not all(win[i, 0] < loc[i] < win[i, 1] for i in range(self.n)):
                raise MeasureError(f"atom location {loc} is not strictly inside the window")
            if any(np.allclose(loc, other, atol=0.0) for other in locs):
                raise MeasureError(f"duplicate atom location {loc}")
            locs.append(loc)
            atoms.append((loc, weight))
        object.__setattr__(self, "atoms", tuple(atoms))

    @cached_property
    def grid(self) -> tuple:
        """Per-axis (edges, centres) of the density grid, built once."""
        if self.density is None:
            raise MeasureError("purely atomic measure has no grid")
        return tuple(_grid(lo, hi, cells) for (lo, hi), cells in zip(self.window, self.density.shape))

    @cached_property
    def prefix(self) -> np.ndarray:
        """1D cumulative density integral at the cell edges, shape (cells+1, dim)."""
        pref = np.zeros((self.density.shape[0] + 1, self.dim))
        np.cumsum(self.density * self.cell_volume(), axis=0, out=pref[1:])
        return pref

    @cached_property
    def jumps(self) -> np.ndarray:
        """1D interior cell edges where the density changes value."""
        edges = self.grid[0][0]
        return edges[1:-1][np.any(self.density[:-1] != self.density[1:], axis=-1)]

    def cell_volume(self) -> float:
        vol = 1.0
        for axis in range(self.n):
            vol *= (self.window[axis, 1] - self.window[axis, 0]) / self.density.shape[axis]
        return vol


def total_variation(mu: MeasureField) -> float:
    """Integral of the pointwise density norm plus the atom weight norms."""
    tv = 0.0
    if mu.density is not None:
        fib = np.sqrt(np.sum(mu.density**2, axis=-1))
        tv += float(np.sum(fib)) * mu.cell_volume()
    tv += sum(float(np.linalg.norm(w)) for _, w in mu.atoms)
    return tv


def zero_measure(window, cells: int) -> MeasureField:
    return MeasureField(n=1, window=np.asarray(window, float).reshape(1, 2), density=np.zeros((cells, 1)), atoms=(), dim=1)


def dirac(window, location, weight, cells: int = 0) -> MeasureField:
    """Single atom in a 1D window, optionally carried on a zero density grid."""
    weight = np.atleast_1d(np.asarray(weight, float))
    dens = None if cells == 0 else np.zeros((cells, weight.size))
    return MeasureField(
        n=1,
        window=np.asarray(window, float).reshape(1, 2),
        density=dens,
        atoms=((location, weight),),
        dim=weight.size,
    )


def from_density_fn(window, cells: int, fn: Callable) -> MeasureField:
    """1D measure whose density samples ``fn`` at cell centers; ``fn``
    returns shape (cells,) or (cells, dim)."""
    window = np.asarray(window, float).reshape(1, 2)
    _, centers = _grid(window[0, 0], window[0, 1], cells)
    vals = np.asarray(fn(centers), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.ndim != 2 or vals.shape[0] != cells:
        raise MeasureError(f"density function returned shape {vals.shape}, expected ({cells},) or ({cells}, dim)")
    return MeasureField(n=1, window=window, density=vals, atoms=(), dim=vals.shape[1])


def sign_measure(window=(-2.0, 2.0), cells: int = 8000) -> MeasureField:
    """The derivative measure of u(t) = |t|: density sign(t), no atoms.

    The cell count must keep t = 0 on a cell edge so the sampled density
    coincides with sign exactly.
    """
    a, b = float(window[0]), float(window[1])
    if not (a < 0.0 < b):
        raise MeasureError("sign measure window must contain 0")
    edges, centers = _grid(a, b, cells)
    if not np.any(np.isclose(edges, 0.0, atol=1e-15)):
        raise MeasureError("cell grid must place t = 0 on a cell edge")
    return MeasureField(n=1, window=[[a, b]], density=np.sign(centers)[:, None], atoms=(), dim=1)


# ---------------------------------------------------------------------------
# Ball averages


def _ball_average(mu: MeasureField, x: np.ndarray, radii: np.ndarray, extend: bool) -> np.ndarray:
    """mu(B_r(x)) / |B_r| for every radius in the 1D array ``radii``.

    ``x`` has shape (..., n): in 1D any leading probe axes broadcast against
    the radii, in 2D it is one probe.  The result has shape
    x.shape[:-1] + radii.shape + (dim,).  1D balls read the prefix integral
    at x +- r, exact for the cell model; 2D balls count density cells by
    their centres.  With ``extend`` the density is zero outside the window
    (np.interp clamps the prefix integral at the ends); otherwise a ball
    reaching outside raises.  An atom on a ball boundary always raises.
    """
    if not extend:
        r = radii.max()
        lo, hi = mu.window.T
        if (x - r < lo - BOUNDARY_ATOL).any() or (x + r > hi + BOUNDARY_ATOL).any():
            raise WindowExitError(f"ball of radius {r:g} around {x} exits the window {mu.window.tolist()}")
    out = np.zeros(x.shape[:-1] + radii.shape + (mu.dim,))
    if mu.density is not None and mu.n == 1:
        edges = mu.grid[0][0]
        for k in range(mu.dim):
            out[..., k] = np.interp(x + radii, edges, mu.prefix[:, k]) - np.interp(x - radii, edges, mu.prefix[:, k])
    elif mu.density is not None:
        (_, cx), (_, cy) = mu.grid
        dist2 = (cx[:, None] - x[0]) ** 2 + (cy[None, :] - x[1]) ** 2
        for i, r in enumerate(radii):
            out[i] += mu.density[dist2 < r**2].sum(axis=0) * mu.cell_volume()
    for loc, weight in mu.atoms:
        dist = np.sqrt(((np.asarray(loc) - x) ** 2).sum(axis=-1, keepdims=True))
        onb = abs(dist - radii) <= BOUNDARY_ATOL * np.maximum(1.0, dist)
        if onb.any():
            r = np.broadcast_to(radii, onb.shape)[onb][0]
            raise AtomOnBoundaryError(f"atom at {loc} lies on the boundary of a ball of radius {r:g}")
        out[dist < radii] += weight
    return out / ((2.0 if mu.n == 1 else pi) * radii**mu.n)[:, None]


def spherical_of_measure(mu: MeasureField, s: float, x) -> np.ndarray:
    """Ball average mu(B_s(x)) / (omega_n s^n).

    Exact for the cell model in 1D (partial cells count fractionally); in 2D
    density cells count whole by their centres.  Atoms on the ball boundary
    and balls leaving the window are reported as errors, never resolved by
    convention.
    """
    if s <= 0:
        raise ValueError("radius s must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _ball_average(mu, x, np.array([s], dtype=float), extend=False)[0]


def _radial_boundaries(mu: MeasureField, w: RadialWeight, x: np.ndarray, R: float) -> np.ndarray:
    """Panel split points for the radial quadrature: weight breakpoints,
    atom-crossing radii, density-jump crossing radii, and a uniform overlay."""
    pts = {0.0, R}
    for b in w.breakpoints:
        if 0.0 < b < R:
            pts.add(float(b))
    for loc, _ in mu.atoms:
        d = float(np.linalg.norm(np.subtract(loc, x)))
        if 0.0 < d < R:
            pts.add(d)
    if mu.n == 1 and mu.density is not None:
        crossing = np.abs(mu.jumps - x[0])
        crossing = crossing[(crossing > 0.0) & (crossing < R)]
        if crossing.size <= 64:
            pts.update(float(c) for c in crossing)
        else:
            pts.update(np.linspace(0.0, R, 65)[1:-1])
    pts.update(np.linspace(0.0, R, 17))
    arr = np.array(sorted(pts))
    keep = np.concatenate([[True], np.diff(arr) > 1e-14])
    return arr[keep]


def radial_of_measure(mu: MeasureField, w: RadialWeight, x) -> np.ndarray:
    """Weighted radial operator on a measure at a single point.

    Integrates n omega_n rhohat(r) r^(n-1) times the ball average over
    r in (0, R], with panels split at every radius where the integrand can
    lose smoothness (atom crossings, density jumps, weight breakpoints).
    """
    if w.n != mu.n:
        raise MeasureError(f"weight dimension {w.n} does not match measure dimension {mu.n}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    R = truncation_radius(w)
    bounds = _radial_boundaries(mu, w, x, R)
    if w.singularity_exponent < 0.0 and bounds.size > 1:
        refined = graded_boundaries(0.0, bounds[1], 12, power=3.0)
        bounds = np.unique(np.concatenate([refined, bounds]))
    nodes, wts = panel_rule(bounds, 8)
    front = mu.n * unit_ball_volume(mu.n) * nodes ** (mu.n - 1) * w.profile(nodes)
    return np.einsum("k,k,kd->d", wts, front, _ball_average(mu, x, nodes, extend=False))


# ---------------------------------------------------------------------------
# Sup-norm localization gap


def linf_gap(eps: float) -> float:
    """Sup-norm distance on (-1, 1) between the annulus-averaged derivative
    of u(t) = |t| and the pointwise derivative sign(t).

    The gap stays above 1 - ln 2 uniformly in eps: near the kink the average
    is (t/eps) ln 2, far from sign(t).  Probes sit at cell midpoints so
    neither t = 0 nor the window ends are sampled.
    """
    if not 0.0 < eps < 0.25:
        raise ValueError("eps must lie in (0, 1/4)")
    w = annulus(eps)
    mu = sign_measure()
    probes = -1.0 + (np.arange(LINF_PROBES) + 0.5) * (2.0 / LINF_PROBES)
    worst = 0.0
    for t in probes:
        val = radial_of_measure(mu, w, t)[0]
        worst = max(worst, abs(val - np.sign(t)))
    return worst


def linf_gap_closed_form(eps: float, t: float) -> float:
    """Piecewise closed form of the annulus-averaged derivative of |t|."""
    a = abs(t)
    if a <= eps:
        val = (a / eps) * log(2.0)
    elif a >= 2.0 * eps:
        val = 1.0
    else:
        val = ((a - eps) + a * log(2.0 * eps / a)) / eps
    return float(np.sign(t) * val)


# ---------------------------------------------------------------------------
# Area functional


@dataclass(frozen=True)
class AreaIntegrand:
    """Convex integrand with recession behaviour for measure functionals.

    ``g`` maps fiber arrays (..., dim) to (...); ``g_infty`` is the
    positively 1-homogeneous recession map, approximated along rays at
    T = 1e6 when not supplied analytically.
    """

    g: Callable[[np.ndarray], np.ndarray]
    g_infty: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "custom"

    def recession(self, z: np.ndarray) -> np.ndarray:
        if self.g_infty is not None:
            return self.g_infty(z)
        return self.g(RECESSION_T * np.asarray(z, float)) / RECESSION_T


def area_integrand(shifted: bool = False) -> AreaIntegrand:
    """sqrt(1+|z|^2), optionally shifted by -1 so the zero field contributes 0.

    Both versions share the recession function |z|.
    """

    def g(z):
        z = np.asarray(z, float)
        val = np.sqrt(1.0 + np.sum(z**2, axis=-1))
        return val - 1.0 if shifted else val

    def g_inf(z):
        return np.sqrt(np.sum(np.asarray(z, float) ** 2, axis=-1))

    return AreaIntegrand(g=g, g_infty=g_inf, name="area-shifted" if shifted else "area")


def abs_integrand() -> AreaIntegrand:
    """g(z) = |z|; the functional reduces to total variation."""

    def g(z):
        return np.sqrt(np.sum(np.asarray(z, float) ** 2, axis=-1))

    return AreaIntegrand(g=g, g_infty=g, name="abs")


def area_functional(mu: MeasureField, f: AreaIntegrand) -> float:
    """Integral of g over the density plus the recession of each atom weight."""
    total = 0.0
    if mu.density is not None:
        total += float(np.sum(f.g(mu.density))) * mu.cell_volume()
    else:
        vol = float(np.prod(mu.window[:, 1] - mu.window[:, 0]))
        total += float(f.g(np.zeros(mu.dim))) * vol
    for _, weight in mu.atoms:
        total += float(f.recession(weight))
    return total


def _spherical_field_1d(mu: MeasureField, s: float, cells: int) -> MeasureField:
    """The ball-average field of mu sampled on the window grid.

    Evaluated with the measure extended by zero, so probes near the window
    ends are defined; values are window-relative in that sense.
    """
    _, centers = _grid(*mu.window[0], cells)
    vals = _ball_average(mu, centers[:, None], np.array([s], dtype=float), extend=True)[:, 0]
    return MeasureField(n=1, window=mu.window, density=vals, atoms=(), dim=mu.dim)


def area_convergence_table(
    mu: MeasureField, f: AreaIntegrand, s_list: Sequence[float], cells: int = 800
) -> list[tuple[float, float, float]]:
    """Rows (s, functional of the ball-average field, gap to the measure's value).

    The gap column decreases to 0 as s -> 0 for the shipped examples; for a
    single atom with the unshifted area integrand the value has the closed
    form sqrt(4 s^2 + 1) + (|window| - 2 s).
    """
    if any(b >= a for a, b in zip(s_list, list(s_list)[1:])):
        raise ValueError("s_list must be strictly decreasing")
    target = area_functional(mu, f)
    rows = []
    for s in s_list:
        fld = _spherical_field_1d(mu, float(s), cells)
        val = area_functional(fld, f)
        rows.append((float(s), val, abs(target - val)))
    return rows


def area_vs_l1(fields: Sequence[MeasureField], limit: MeasureField) -> dict:
    """Compare L1 convergence and convergence of the area functional
    (``area_integrand()``) along a sequence.

    Returns per-index rows (l1 distance to the limit, gap of the functional)
    and the verdict PASS when the two notions agree: both columns tend to 0
    together, or neither does.
    """
    f = area_integrand()
    rows = []
    target = area_functional(limit, f)
    for fld in fields:
        if fld.density is None or limit.density is None or fld.density.shape != limit.density.shape:
            raise MeasureError("area_vs_l1 requires densities on a common grid")
        if not np.allclose(fld.window, limit.window):
            raise MeasureError("area_vs_l1 requires a common window")
        diff = np.sqrt(np.sum((fld.density - limit.density) ** 2, axis=-1))
        l1 = float(np.sum(diff)) * fld.cell_volume()
        gap = abs(area_functional(fld, f) - target)
        rows.append((l1, gap))
    first_l1, first_gap = rows[0]
    last_l1, last_gap = rows[-1]
    l1_to_zero = last_l1 <= max(0.05 * first_l1, 1e-6)
    gap_to_zero = last_gap <= max(0.05 * first_gap, 1e-6)
    verdict = "PASS" if l1_to_zero == gap_to_zero else "FAIL"
    return {
        "rows": rows,
        "l1_tends_to_zero": l1_to_zero,
        "area_gap_tends_to_zero": gap_to_zero,
        "verdict": verdict,
    }


def scenario_smooth_localization(eps_list=(0.2, 0.1, 0.05, 0.025), cells: int = 400):
    """Annulus-averaged derivatives of a smooth density converging in L1.

    The density cos(pi t) lives on a padded window so averaging balls around
    probes in [-1, 1] stay inside; both the L1 distance and the area gap
    vanish along eps.  Returns (fields, limit) for area_vs_l1.
    """
    dens = lambda t: np.cos(pi * t)
    limit = from_density_fn((-1.0, 1.0), cells, dens)
    carrier = from_density_fn((-2.0, 2.0), 4 * cells, dens)
    _, centers = _grid(-1.0, 1.0, cells)
    out = []
    for eps in eps_list:
        w = annulus(eps)
        vals = np.stack([radial_of_measure(carrier, w, float(c)) for c in centers])
        out.append(MeasureField(n=1, window=[[-1.0, 1.0]], density=vals, atoms=(), dim=1))
    return out, limit


def scenario_atom_spread():
    """Ball averages of a unit atom at s = 0.2, 0.1, 0.05 on 800 cells of
    (-1, 1), against the zero density.

    Total variation is conserved, so the L1 distance to zero stays 1 and the
    area gap does not vanish either; area_vs_l1 must report agreement.
    Returns (fields, limit).
    """
    _, centers = _grid(-1.0, 1.0, 800)
    out = []
    for s in (0.2, 0.1, 0.05):
        vals = np.where(np.abs(centers) < s, 1.0 / (2.0 * s), 0.0)[:, None]
        out.append(MeasureField(n=1, window=[[-1.0, 1.0]], density=vals, atoms=(), dim=1))
    return out, zero_measure((-1.0, 1.0), 800)


# ---------------------------------------------------------------------------
# Gauss-Green residual in one dimension


@dataclass(frozen=True)
class PiecewiseBV:
    """Piecewise-smooth function of bounded variation on an interval.

    ``pieces`` is a sequence of (a, b, fn) with contiguous intervals; ``dfn``
    optionally supplies the classical derivative piece by piece.  Jump parts
    of the derivative measure are the one-sided limit differences at the
    interior breakpoints.
    """

    pieces: tuple
    dfn: Optional[tuple] = None

    def __post_init__(self):
        pieces = tuple((float(a), float(b), fn) for a, b, fn in self.pieces)
        for (a0, b0, _), (a1, b1, _) in zip(pieces, pieces[1:]):
            if not np.isclose(b0, a1):
                raise MeasureError("pieces must cover a contiguous interval")
        object.__setattr__(self, "pieces", pieces)

    @property
    def support(self) -> tuple[float, float]:
        return self.pieces[0][0], self.pieces[-1][1]

    def breakpoints(self) -> np.ndarray:
        return np.array([b for _, b, _ in self.pieces[:-1]])

    def __call__(self, t: float) -> float:
        t = float(t)
        a, b = self.support
        if t < a - BOUNDARY_ATOL or t > b + BOUNDARY_ATOL:
            raise MeasureError(f"evaluation point {t:g} outside support [{a:g}, {b:g}]")
        for lo, hi, fn in self.pieces:
            if t < hi or hi == b:
                return float(fn(np.asarray(t)))
        raise AssertionError("unreachable")

    def jump(self, t: float) -> float:
        """One-sided limit difference f(t+) - f(t-) at an interior breakpoint."""
        for i, (lo, hi, fn) in enumerate(self.pieces[:-1]):
            if np.isclose(hi, t):
                left = float(fn(np.asarray(hi)))
                right = float(self.pieces[i + 1][2](np.asarray(hi)))
                return right - left
        return 0.0

    def derivative_on(self, i: int, t: np.ndarray) -> np.ndarray:
        if self.dfn is not None:
            return np.asarray(self.dfn[i](t), dtype=float)
        h = 1e-6
        fn = self.pieces[i][2]
        return (np.asarray(fn(t + h), float) - np.asarray(fn(t - h), float)) / (2.0 * h)


def heaviside_bv() -> PiecewiseBV:
    return PiecewiseBV(
        pieces=((-1.0, 0.0, lambda t: np.zeros_like(np.asarray(t, float))), (0.0, 1.0, lambda t: np.ones_like(np.asarray(t, float)))),
        dfn=(lambda t: np.zeros_like(np.asarray(t, float)), lambda t: np.zeros_like(np.asarray(t, float))),
    )


def trig_bv() -> PiecewiseBV:
    om = 2.0 * pi
    return PiecewiseBV(
        pieces=((-1.0, 1.0, lambda t: np.sin(om * np.asarray(t, float))),),
        dfn=(lambda t: om * np.cos(om * np.asarray(t, float)),),
    )


def derivative_measure_of_interval(u: PiecewiseBV, lo: float, hi: float) -> float:
    """Du((lo, hi)): quadrature of the classical part plus interior jumps."""
    total = 0.0
    for i, (a, b, _) in enumerate(u.pieces):
        seg_lo, seg_hi = max(a, lo), min(b, hi)
        if seg_hi <= seg_lo:
            continue
        count = max(1, int(np.ceil((seg_hi - seg_lo) / 0.25)))
        nodes, wts = panel_rule(np.linspace(seg_lo, seg_hi, count + 1), 20)
        total += float(np.sum(wts * u.derivative_on(i, nodes)))
    for t in u.breakpoints():
        if lo < t < hi:
            total += u.jump(float(t))
    return total


def gauss_green_check(u: PiecewiseBV, s: float, x: float) -> float:
    """|Du((x-s, x+s)) - (u(x+s) - u(x-s))| for a piecewise-smooth u.

    The derivative-measure route integrates the classical derivative and adds
    interior jumps; the boundary route evaluates u at the two endpoints.
    Endpoints landing on a jump are reported as errors.
    """
    if s <= 0:
        raise ValueError("radius s must be positive")
    lo, hi = x - s, x + s
    a, b = u.support
    if lo < a - BOUNDARY_ATOL or hi > b + BOUNDARY_ATOL:
        raise WindowExitError(f"interval ({lo:g}, {hi:g}) exits the support [{a:g}, {b:g}]")
    for t in u.breakpoints():
        if abs(t - lo) <= BOUNDARY_ATOL or abs(t - hi) <= BOUNDARY_ATOL:
            raise JumpAtEvaluationError(f"endpoint of ({lo:g}, {hi:g}) lands on the jump at {t:g}")
    measure = derivative_measure_of_interval(u, lo, hi)
    boundary = u(hi) - u(lo)
    return abs(measure - boundary)


# ---------------------------------------------------------------------------
# Atomic divergence example (2D)


def atomic_pair_measure() -> MeasureField:
    """Two opposite unit atoms at (0, 1) and (1, 0) in the window
    [-12, 12]^2; the ball average of this measure is discontinuous in the
    probe point at unit scale."""
    return MeasureField(
        n=2,
        window=np.array([[-12.0, 12.0], [-12.0, 12.0]]),
        density=None,
        atoms=(((0.0, 1.0), (1.0,)), ((1.0, 0.0), (-1.0,))),
        dim=1,
    )


def atomic_divergence_demo(s: float = 1.0, probes: Optional[Sequence] = None) -> list[tuple]:
    """Ball averages of the two-atom measure at probes around the origin.

    With s = 1 the set of probes (±h, 0), (0, ±h) exhibits a jump: one atom
    enters or leaves the unit ball depending on the approach direction.
    Rows are (probe, value, atoms_inside).
    """
    mu = atomic_pair_measure()
    if probes is None:
        probes = []
        for h in (0.1, 0.01):
            probes.extend([(h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)])
        probes.append((10.0, 10.0))
    rows = []
    for p in probes:
        x = np.asarray(p, dtype=float)
        val = spherical_of_measure(mu, s, x)
        inside = sum(
            1 for loc, _ in mu.atoms if sqrt((loc[0] - x[0]) ** 2 + (loc[1] - x[1]) ** 2) < s
        )
        rows.append((tuple(float(c) for c in p), float(val[0]), inside))
    return rows
