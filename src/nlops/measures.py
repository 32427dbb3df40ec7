"""Averaging operators on vector measures, and area-functional checks.

A measure here is an absolutely continuous part, sampled as a
piecewise-constant density on a uniform cell grid over a fixed window, plus
a finite list of atoms.  One kernel computes the ball averages of such
measures: in 1D exactly for the cell model (prefix sums with partial cells),
in 2D by counting whole cells by their centres (not exact: on a constant
density the average misses by O(h/r)), and with point-in-ball tests for
atoms.  On top of the averages the module provides the weighted radial
operator for measures.  ``spherical_of_measure`` and ``radial_of_measure``
take probes as an array of shape (..., n), one probe per leading index, and
keep those axes in the result: a whole stack goes through the kernel in
one array pass, and each probe keeps its own radial panels and its own
window and atom checks.  A weight singular at the origin takes, as in
``weights``, the Gauss-Jacobi ``quadrature.origin_panel`` for its first
radial panel.  The module also provides the sup-norm localization gap for
u(t) = |t|, the area functional with the integrand's closed-form recession
term on the atoms, its convergence tables, a one-dimensional Gauss-Green
residual for piecewise-smooth functions whose pieces carry their exact
derivatives, and a two-dimensional atomic example with a discontinuous
average.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import log, pi
from typing import Callable, Optional, Sequence

import numpy as np

from nlops.quadrature import origin_panel, panel_rule
from nlops.weights import RadialWeight, annulus, truncation_radius
from nlops.bessel import unit_ball_volume

#: Distances closer than this to a ball boundary count as "on" it.
BOUNDARY_ATOL = 1e-12

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
    """mu(B_r(x)) / |B_r| for every probe in ``x`` and radius in ``radii``.

    ``x`` has shape (..., n), one probe per leading index.  ``radii`` has
    shape (..., K): its leading axes broadcast against the probe axes, so a
    1D array serves every probe and a stack gives each probe its own radii.
    The result has shape broadcast(x.shape[:-1] + (1,), radii.shape) +
    (dim,).  1D balls read the prefix integral at x +- r, exact for the cell
    model; 2D balls count density cells by their centres, one distance grid
    per probe.  With ``extend`` the density is zero outside the window
    (np.interp clamps the prefix integral at the ends); otherwise a ball
    reaching outside raises.  An atom on a ball boundary always raises.
    Both errors name the first probe at fault.
    """
    shape = np.broadcast_shapes(x.shape[:-1] + (1,), radii.shape)
    if not extend:
        r = np.broadcast_to(radii.max(axis=-1), shape[:-1])[..., None]
        lo, hi = mu.window.T
        exits = ((x - r < lo - BOUNDARY_ATOL) | (x + r > hi + BOUNDARY_ATOL)).any(axis=-1)
        if exits.any():
            i = np.unravel_index(np.argmax(exits), exits.shape)
            raise WindowExitError(
                f"ball of radius {r[i][0]:g} around probe {x[i].tolist()} exits the window {mu.window.tolist()}"
            )
    out = np.zeros(shape + (mu.dim,))
    if mu.density is not None and mu.n == 1:
        edges = mu.grid[0][0]
        for k in range(mu.dim):
            out[..., k] = np.interp(x + radii, edges, mu.prefix[:, k]) - np.interp(x - radii, edges, mu.prefix[:, k])
    elif mu.density is not None:
        (_, cx), (_, cy) = mu.grid
        per_probe = np.broadcast_to(radii, shape)
        for i in np.ndindex(x.shape[:-1]):
            dist2 = (cx[:, None] - x[i][0]) ** 2 + (cy[None, :] - x[i][1]) ** 2
            for j, r in enumerate(per_probe[i]):
                out[i + (j,)] += mu.density[dist2 < r**2].sum(axis=0) * mu.cell_volume()
    for loc, weight in mu.atoms:
        dist = np.sqrt(((np.asarray(loc) - x) ** 2).sum(axis=-1, keepdims=True))
        onb = abs(dist - radii) <= BOUNDARY_ATOL * np.maximum(1.0, dist)
        if onb.any():
            i = np.unravel_index(np.argmax(onb), onb.shape)
            raise AtomOnBoundaryError(
                f"atom at {loc} lies on the boundary of the ball of radius "
                f"{np.broadcast_to(radii, onb.shape)[i]:g} around probe {x[i[:-1]].tolist()}"
            )
        out[dist < radii] += weight
    return out / ((2.0 if mu.n == 1 else pi) * radii**mu.n)[..., None]


def _as_probes(mu: MeasureField, x) -> np.ndarray:
    """``x`` as a float array of probes of shape (..., n); in 1D a scalar is
    one probe."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 and mu.n == 1:
        x = x[None]
    if x.ndim == 0 or x.shape[-1] != mu.n:
        raise MeasureError(f"probes must have shape (..., {mu.n}), got {x.shape}")
    return x


def spherical_of_measure(mu: MeasureField, s: float, x) -> np.ndarray:
    """Ball average mu(B_s(x)) / (omega_n s^n) at probes of shape (..., n).

    The result has shape x.shape[:-1] + (dim,).  Exact for the cell model
    in 1D (partial cells count fractionally); in 2D density cells count
    whole by their centres.  Atoms on the ball boundary and balls leaving
    the window are reported as errors, never resolved by convention.
    """
    if s <= 0:
        raise ValueError("radius s must be positive")
    return _ball_average(mu, _as_probes(mu, x), np.array([s], dtype=float), extend=False)[..., 0, :]


def _dedupe(pts: np.ndarray, gap: float) -> np.ndarray:
    """Sort each row and drop every point within ``gap`` of the point before
    it; the survivors move to the front of their row, NaN pads the rest,
    and the columns past the longest row go."""
    pts = np.sort(pts, axis=-1)
    keep = np.concatenate([np.ones(pts.shape[:-1] + (1,), bool), np.diff(pts, axis=-1) > gap], axis=-1)
    return np.sort(np.where(keep, pts, np.nan), axis=-1)[..., : keep.sum(axis=-1).max()]


def _radial_boundaries(mu: MeasureField, w: RadialWeight, x: np.ndarray, R: float) -> np.ndarray:
    """Panel split points of the radial quadrature, one row per probe.

    ``x`` has shape (..., n); the result has shape x.shape[:-1] + (k,), and
    each row is increasing, padded with NaN past its own count.  A row
    holds the points every probe shares (0, R, the weight breakpoints and a
    17-point uniform overlay) and the probe's own atom distances and
    density-jump crossings in (0, R); a probe with more than 64 crossings
    takes a 65-point overlay instead of them.  A point within 1e-14 of the
    one before it is dropped.
    """
    probes = x.reshape(-1, mu.n)
    shared = np.concatenate([[0.0, R], [b for b in w.breakpoints if 0.0 < b < R], np.linspace(0.0, R, 17)])
    cols = [np.broadcast_to(shared, (len(probes), shared.size))]
    if mu.atoms:
        diff = np.array([loc for loc, _ in mu.atoms]) - probes[:, None, :]
        # the dot product np.linalg.norm takes, so distances match its value
        dist = np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0])
        cols.append(np.where((dist > 0.0) & (dist < R), dist, np.nan))
    if mu.n == 1 and mu.density is not None and mu.jumps.size:
        # a probe's crossings are the jumps next to it on either side, so the
        # 65 jumps on each side hold them all, or more than 64 of them
        side = min(65, mu.jumps.size)
        near = np.searchsorted(mu.jumps, probes) + np.arange(-side, side + 1)
        crossing = np.abs(mu.jumps[np.clip(near, 0, mu.jumps.size - 1)] - probes)
        inside = (near >= 0) & (near < mu.jumps.size) & (crossing > 0.0) & (crossing < R)
        few = inside.sum(axis=-1, keepdims=True) <= 64
        cols.append(np.where(inside & few, crossing, np.nan))
        cols.append(np.where(few, np.nan, np.linspace(0.0, R, 65)[1:-1]))
    bounds = _dedupe(np.concatenate(cols, axis=-1), 1e-14)
    return bounds.reshape(x.shape[:-1] + bounds.shape[-1:])


def radial_of_measure(mu: MeasureField, w: RadialWeight, x) -> np.ndarray:
    """Weighted radial operator on a measure at a stack of probes.

    ``x`` has shape (..., n), one probe per leading index; in 1D a scalar is
    one probe.  The result has shape x.shape[:-1] + (dim,).  At each probe
    the operator integrates n omega_n rhohat(r) r^(n-1) times the ball
    average over r in (0, R], on Gauss panels split at every radius where
    the integrand can lose smoothness at that probe (atom crossings,
    density jumps, weight breakpoints), the first of them ``origin_panel``
    for a singular weight.  Probes with equally many panels share one panel
    rule, and one ball-average pass serves every probe.
    """
    if w.n != mu.n:
        raise MeasureError(f"weight dimension {w.n} does not match measure dimension {mu.n}")
    x = _as_probes(mu, x)
    probes = x.reshape(-1, mu.n)
    bounds = _radial_boundaries(mu, w, probes, truncation_radius(w))
    panels = np.count_nonzero(~np.isnan(bounds), axis=-1) - 1
    m = 8
    nodes = np.empty((len(probes), m * (bounds.shape[-1] - 1)))
    wts = np.zeros_like(nodes)
    # a plain np.unique would import numpy.ma on its first call in a process
    for k in np.flatnonzero(np.bincount(panels)):
        rows = panels == k
        nodes[rows, : m * k], wts[rows, : m * k] = panel_rule(bounds[rows, : k + 1], m)
        # past its own panels a row repeats its last node with weight 0,
        # which adds exact zeros to its sum and passes the same checks
        nodes[rows, m * k :] = nodes[rows, m * k - 1 : m * k]
    if w.singularity_exponent < 0.0:
        nodes[:, :m], wts[:, :m] = origin_panel(bounds[:, 1], m, mu.n - 1.0 + w.singularity_exponent)
    front = mu.n * unit_ball_volume(mu.n) * nodes ** (mu.n - 1) * w.profile(nodes)
    avg = _ball_average(mu, probes, nodes, extend=False)
    return np.einsum("pk,pk,pkd->pd", wts, front, avg).reshape(x.shape[:-1] + (mu.dim,))


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
    vals = radial_of_measure(mu, w, probes[:, None])[:, 0]
    return float(np.max(np.abs(vals - np.sign(probes))))


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

    ``g`` maps fiber arrays (..., dim) to (...); ``g_infty`` is its
    positively 1-homogeneous recession map, in closed form.
    """

    g: Callable[[np.ndarray], np.ndarray]
    g_infty: Callable[[np.ndarray], np.ndarray]


def area_integrand() -> AreaIntegrand:
    """sqrt(1+|z|^2), with the recession function |z|."""

    def g(z):
        z = np.asarray(z, float)
        return np.sqrt(1.0 + np.sum(z**2, axis=-1))

    def g_inf(z):
        return np.sqrt(np.sum(np.asarray(z, float) ** 2, axis=-1))

    return AreaIntegrand(g=g, g_infty=g_inf)


def area_functional(mu: MeasureField, f: AreaIntegrand) -> float:
    """Integral of g over the density plus the recession of each atom weight."""
    total = 0.0
    if mu.density is not None:
        total += float(np.sum(f.g(mu.density))) * mu.cell_volume()
    else:
        vol = float(np.prod(mu.window[:, 1] - mu.window[:, 0]))
        total += float(f.g(np.zeros(mu.dim))) * vol
    for _, weight in mu.atoms:
        total += float(f.g_infty(weight))
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
        vals = radial_of_measure(carrier, w, centers[:, None])
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

    ``pieces`` is a sequence of (a, b, fn, dfn) with contiguous intervals:
    ``fn`` is the function on [a, b] and ``dfn`` its classical derivative,
    both vectorised.  Jump parts of the derivative measure are the one-sided
    limit differences at the interior breakpoints, read off the adjacent
    pieces.
    """

    pieces: tuple

    def __post_init__(self):
        pieces = tuple((float(a), float(b), fn, dfn) for a, b, fn, dfn in self.pieces)
        for (_, b0, _, _), (a1, _, _, _) in zip(pieces, pieces[1:]):
            if not np.isclose(b0, a1):
                raise MeasureError("pieces must cover a contiguous interval")
        object.__setattr__(self, "pieces", pieces)

    @property
    def support(self) -> tuple[float, float]:
        return self.pieces[0][0], self.pieces[-1][1]

    def breakpoints(self) -> np.ndarray:
        return np.array([b for _, b, _, _ in self.pieces[:-1]])

    def __call__(self, t: float) -> float:
        t = float(t)
        a, b = self.support
        if t < a - BOUNDARY_ATOL or t > b + BOUNDARY_ATOL:
            raise MeasureError(f"evaluation point {t:g} outside support [{a:g}, {b:g}]")
        for lo, hi, fn, _ in self.pieces:
            if t < hi or hi == b:
                return float(fn(np.asarray(t)))


def heaviside_bv() -> PiecewiseBV:
    zero = lambda t: np.zeros_like(np.asarray(t, float))
    one = lambda t: np.ones_like(np.asarray(t, float))
    return PiecewiseBV(pieces=((-1.0, 0.0, zero, zero), (0.0, 1.0, one, zero)))


def trig_bv() -> PiecewiseBV:
    om = 2.0 * pi
    sin = lambda t: np.sin(om * np.asarray(t, float))
    dsin = lambda t: om * np.cos(om * np.asarray(t, float))
    return PiecewiseBV(pieces=((-1.0, 1.0, sin, dsin),))


def derivative_measure_of_interval(u: PiecewiseBV, lo: float, hi: float) -> float:
    """Du((lo, hi)): quadrature of the classical part plus interior jumps."""
    total = 0.0
    for a, b, _, dfn in u.pieces:
        seg_lo, seg_hi = max(a, lo), min(b, hi)
        if seg_hi <= seg_lo:
            continue
        count = max(1, int(np.ceil((seg_hi - seg_lo) / 0.25)))
        nodes, wts = panel_rule(np.linspace(seg_lo, seg_hi, count + 1), 20)
        total += float(np.sum(wts * dfn(nodes)))
    for (_, b, left, _), (_, _, right, _) in zip(u.pieces, u.pieces[1:]):
        if lo < b < hi:
            total += float(right(b)) - float(left(b))
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


def atomic_divergence_demo(s: float = 1.0) -> list[tuple]:
    """Ball averages of the two-atom measure at probes around the origin.

    With s = 1 the probes (±h, 0), (0, ±h), h = 0.1 and 0.01, exhibit a
    jump: one atom enters or leaves the unit ball depending on the approach
    direction; the last probe, (10, 10), is far from both atoms.  Rows are
    (probe, value, atoms_inside).
    """
    mu = atomic_pair_measure()
    probes = [p for h in (0.1, 0.01) for p in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h))]
    x = np.array(probes + [(10.0, 10.0)])
    vals = spherical_of_measure(mu, s, x)[:, 0]
    locs = np.array([loc for loc, _ in mu.atoms])
    inside = (np.sqrt(((locs - x[:, None, :]) ** 2).sum(axis=-1)) < s).sum(axis=-1)
    return list(zip(map(tuple, x.tolist()), vals.tolist(), inside.tolist()))
