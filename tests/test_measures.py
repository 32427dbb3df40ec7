"""Ball averages of measures, the sup-norm localization gap, area-functional
convergence, and the interval form of the fundamental theorem for BV
functions, each against closed forms."""

from math import log, pi, sqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlops import measures
from nlops.bessel import unit_ball_volume
from nlops.measures import (
    AtomOnBoundaryError,
    JumpAtEvaluationError,
    MeasureError,
    MeasureField,
    PiecewiseBV,
    WindowExitError,
    _ball_average,
    _radial_boundaries,
    _spherical_field_1d,
    area_convergence_table,
    area_functional,
    area_integrand,
    area_vs_l1,
    atomic_divergence_demo,
    atomic_pair_measure,
    dirac,
    from_density_fn,
    gauss_green_check,
    heaviside_bv,
    linf_gap,
    linf_gap_closed_form,
    radial_of_measure,
    scenario_atom_spread,
    scenario_smooth_localization,
    sign_measure,
    spherical_of_measure,
    total_variation,
    trig_bv,
    zero_measure,
)
from nlops.quadrature import origin_panel, panel_rule
from nlops.weights import annulus, bump, fractional, normalize, truncation_radius


def reference_ball_integral_2d(mu, s, x):
    """mu(B_s(x)) in 2D for one radius: density cells counted by their
    centres, atoms by distance, one radius at a time."""
    out = np.zeros(mu.dim)
    if mu.density is not None:
        ex = np.linspace(mu.window[0, 0], mu.window[0, 1], mu.density.shape[0] + 1)
        ey = np.linspace(mu.window[1, 0], mu.window[1, 1], mu.density.shape[1] + 1)
        cx = 0.5 * (ex[:-1] + ex[1:])
        cy = 0.5 * (ey[:-1] + ey[1:])
        dist2 = (cx[:, None] - x[0]) ** 2 + (cy[None, :] - x[1]) ** 2
        out += mu.density[dist2 < s**2].sum(axis=0) * mu.cell_volume()
    for loc, weight in mu.atoms:
        if sqrt((loc[0] - x[0]) ** 2 + (loc[1] - x[1]) ** 2) < s:
            out += weight
    return out


def reference_boundaries(mu, w, x, R):
    """One probe's panel split points, built point by point in a set: the
    shared points, the atom distances and jump crossings in (0, R) (a
    65-point overlay past 64 crossings), and the 1e-14 dedupe."""
    pts = {0.0, R}
    pts.update(float(b) for b in w.breakpoints if 0.0 < b < R)
    for loc, _ in mu.atoms:
        d = float(np.linalg.norm(np.subtract(loc, x)))
        if 0.0 < d < R:
            pts.add(d)
    if mu.n == 1 and mu.density is not None:
        crossing = np.abs(mu.jumps - x[0])
        crossing = crossing[(crossing > 0.0) & (crossing < R)]
        pts.update(crossing if crossing.size <= 64 else np.linspace(0.0, R, 65)[1:-1])
    pts.update(np.linspace(0.0, R, 17))
    arr = np.array(sorted(pts))
    return arr[np.concatenate([[True], np.diff(arr) > 1e-14])]


class TestBallAverages:
    def test_atom_average_closed_form(self):
        mu = dirac((-1.0, 1.0), 0.0, 2.0)
        assert abs(spherical_of_measure(mu, 0.4, 0.1)[0] - 2.0 / 0.8) < 1e-14
        assert spherical_of_measure(mu, 0.2, 0.7)[0] == 0.0

    def test_one_dimensional_volume_is_exactly_twice_the_radius(self):
        assert spherical_of_measure(dirac((-1, 1), 0.0, 2.0), 0.25, 0.1)[0] == 4.0

    def test_uniform_density_average_is_identity(self):
        mu = from_density_fn((-1.0, 1.0), 500, lambda t: np.full_like(t, 1.7))
        for s, x in ((0.3, 0.0), (0.11, -0.4)):
            assert abs(spherical_of_measure(mu, s, x)[0] - 1.7) < 1e-12

    def test_partial_cells_are_exact(self):
        # ball edges falling inside cells must weight the cell fractionally;
        # for density t the average over (x-s, x+s) is exactly x
        mu = from_density_fn((-1.0, 1.0), 7, lambda t: t)
        got = spherical_of_measure(mu, 0.123456, 0.2)[0]
        # cell model: density is constant per cell, so the exact value is
        # the prefix integral of the step function, not of t itself
        edges = np.linspace(-1.0, 1.0, 8)
        centers = 0.5 * (edges[:-1] + edges[1:])
        lo, hi = 0.2 - 0.123456, 0.2 + 0.123456
        exact = sum(
            c * max(0.0, min(hi, edges[i + 1]) - max(lo, edges[i]))
            for i, c in enumerate(centers)
        ) / (2 * 0.123456)
        assert abs(got - exact) < 1e-14

    def test_atom_on_boundary_is_an_error(self):
        mu = dirac((-1.0, 1.0), 0.5, 1.0)
        with pytest.raises(AtomOnBoundaryError):
            spherical_of_measure(mu, 0.5, 0.0)

    def test_ball_leaving_window_is_an_error(self):
        mu = dirac((-1.0, 1.0), 0.0, 1.0)
        with pytest.raises(WindowExitError):
            spherical_of_measure(mu, 0.3, 0.9)

    def test_probe_stack(self):
        mu = from_density_fn((-1.0, 1.0), 100, lambda t: t)
        probes = np.array([[0.2], [0.5], [-0.3]])
        want = np.stack([spherical_of_measure(mu, 0.1, float(t)) for t in probes[:, 0]])
        assert np.array_equal(spherical_of_measure(mu, 0.1, probes), want)
        with pytest.raises(MeasureError):
            spherical_of_measure(mu, 0.1, probes[:, 0])

    def test_two_dimensional_atom_average(self):
        mu = MeasureField(n=2, window=[[-4, 4], [-4, 4]], density=None, atoms=(((0.0, 0.0), (3.0,)),), dim=1)
        assert abs(spherical_of_measure(mu, 0.5, (0.1, 0.0))[0] - 3.0 / (pi * 0.25)) < 1e-12


class TestOneKernel:
    """Every route reads the same ball-average kernel; these compare it bit
    for bit against per-radius and per-probe loops."""

    PROBES = ((0.0123, -0.031), (0.3377, 0.2461), (-0.4519, 0.1187), (0.1043, -0.1721))
    # unit density, and one whose sums depend on the summation order
    DENSITIES = (np.ones((200, 200, 1)), np.cos(np.arange(200.0))[:, None, None] * np.sin(np.arange(200.0))[None, :, None])

    @pytest.mark.parametrize("density", DENSITIES, ids=["unit", "cos-sin"])
    def test_2d_spherical_matches_centre_count_loop(self, density):
        mu = MeasureField(n=2, window=[[-1, 1], [-1, 1]], density=density, atoms=(((0.1, -0.2), (1.5,)),))
        for x in map(np.array, self.PROBES):
            for s in np.linspace(0.011, 0.4, 13):
                want = reference_ball_integral_2d(mu, s, x) / (pi * (s * s))
                assert np.array_equal(spherical_of_measure(mu, s, x), want)

    @pytest.mark.parametrize("density", DENSITIES, ids=["unit", "cos-sin"])
    def test_2d_radial_matches_per_node_loop(self, density):
        mu = MeasureField(n=2, window=[[-1, 1], [-1, 1]], density=density, atoms=(((0.1, -0.2), (1.5,)),))
        w = normalize(bump(2, 0.3))
        for x in map(np.array, self.PROBES):
            nodes, wts = panel_rule(_radial_boundaries(mu, w, x, truncation_radius(w)), 8)
            sph = np.stack([reference_ball_integral_2d(mu, float(r), x) for r in nodes])
            sph /= (pi * nodes**2)[:, None]
            want = np.einsum("k,k,kd->d", wts, 2 * pi * nodes * w.profile(nodes), sph)
            assert np.array_equal(radial_of_measure(mu, w, x), want)

    def test_1d_field_matches_per_probe_loop(self):
        carrier = from_density_fn((-1.0, 1.0), 250, lambda t: np.cos(3 * t) + t)
        mu = MeasureField(
            n=1, window=[[-1, 1]], density=carrier.density, atoms=(((0.1037,), (1.0,)), ((-0.52,), (-0.4,)))
        )
        s, cells = 0.1, 333
        edges = np.linspace(-1.0, 1.0, cells + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        want = np.stack([_ball_average(mu, np.array([c]), np.array([s]), extend=True)[0] for c in centers])
        assert np.array_equal(_spherical_field_1d(mu, s, cells).density, want)


def _two_atoms_on(half_width, cells):
    carrier = from_density_fn((-half_width, half_width), cells, lambda t: np.cos(3 * t) + t)
    return MeasureField(
        n=1, window=carrier.window, density=carrier.density, atoms=(((0.1037,), (1.0,)), ((-0.52,), (-0.4,)))
    )


#: (measure, weight, probes): the sign measure, with probes whose kink
#: crossing lies 5e-13, 5e-15 and 3e-14 from an overlay point; two atoms
#: on a density; the cos(pi t) carrier, whose probes see more than 64 jump
#: crossings at eps = 0.2 and fewer at eps = 0.025; steps with seven jumps,
#: and none; an alternating density whose probes see 64 or 65; and a
#: singular weight, whose first panel is the Gauss-Jacobi origin panel
STACKS = {
    "sign": (
        sign_measure,
        lambda: annulus(0.1),
        np.append((np.arange(400) + 0.5) / 200.0 - 1.0, [0.025 + 5e-13, 0.025 + 5e-15, -0.05 - 3e-14]),
    ),
    "two-atoms": (lambda: _two_atoms_on(1.0, 250), lambda: annulus(0.2), np.linspace(-0.6, 0.6, 97)),
    "many-crossings": (
        lambda: from_density_fn((-2.0, 2.0), 1600, lambda t: np.cos(pi * t)),
        lambda: annulus(0.2),
        np.linspace(-1.0, 1.0, 81),
    ),
    "few-crossings": (
        lambda: from_density_fn((-2.0, 2.0), 1600, lambda t: np.cos(pi * t)),
        lambda: annulus(0.025),
        np.linspace(-1.0, 1.0, 81),
    ),
    "seven-jumps": (
        lambda: from_density_fn((-1.0, 1.0), 40, lambda t: np.floor(4 * t)),
        lambda: annulus(0.1),
        np.linspace(-0.7, 0.7, 29),
    ),
    "no-jumps": (lambda: from_density_fn((-1.0, 1.0), 50, np.ones_like), lambda: annulus(0.1), np.linspace(-0.7, 0.7, 9)),
    "64-crossings": (
        lambda: from_density_fn((-2.0, 2.0), 400, lambda t: (-1.0) ** np.arange(t.size)),
        lambda: annulus(0.1625),
        np.linspace(-0.5, 0.5, 157),
    ),
    "singular": (
        lambda: _two_atoms_on(3.0, 600),
        lambda: normalize(fractional(1, 0.5)),
        np.linspace(-0.7, 0.7, 41),
    ),
}


class TestProbeStacks:
    """A stack of probes gets, probe by probe, the panels and the value that
    one probe alone gets."""

    @pytest.mark.parametrize("case", STACKS)
    def test_stack_matches_per_probe_loop(self, case):
        make_mu, make_w, probes = STACKS[case]
        mu, w = make_mu(), make_w()
        R = truncation_radius(w)
        want = []
        for t in probes:
            x = np.array([t])
            bounds = _radial_boundaries(mu, w, x, R)
            nodes, wts = panel_rule(bounds, 8)
            if w.singularity_exponent < 0.0:
                nodes[:8], wts[:8] = origin_panel(bounds[1], 8, mu.n - 1.0 + w.singularity_exponent)
            front = mu.n * unit_ball_volume(mu.n) * nodes ** (mu.n - 1) * w.profile(nodes)
            want.append(np.einsum("k,k,kd->d", wts, front, _ball_average(mu, x, nodes, extend=False)))
        assert np.array_equal(radial_of_measure(mu, w, probes[:, None]), np.stack(want))

    @pytest.mark.parametrize("case", STACKS)
    def test_rows_are_the_per_probe_panels(self, case):
        make_mu, make_w, probes = STACKS[case]
        mu, w = make_mu(), make_w()
        R = truncation_radius(w)
        rows = _radial_boundaries(mu, w, probes[:, None], R)
        assert rows.shape[0] == probes.size
        if case == "64-crossings":
            crossing = np.abs(mu.jumps - probes[:, None])
            assert set(((crossing > 0.0) & (crossing < R)).sum(axis=-1)) == {64, 65}
        for t, row in zip(probes, rows):
            assert np.array_equal(row[~np.isnan(row)], reference_boundaries(mu, w, np.array([t]), R))

    def test_shapes(self):
        mu, w = _two_atoms_on(1.0, 250), annulus(0.1)
        assert radial_of_measure(mu, w, 0.3).shape == (1,)
        assert radial_of_measure(mu, w, np.array([0.3])).shape == (1,)
        assert radial_of_measure(mu, w, np.zeros((5, 1))).shape == (5, 1)
        stack = np.linspace(-0.5, 0.5, 6).reshape(2, 3, 1)
        flat = radial_of_measure(mu, w, stack.reshape(6, 1))
        assert np.array_equal(radial_of_measure(mu, w, stack), flat.reshape(2, 3, 1))
        for bad in (np.zeros((5, 2)), np.zeros(3)):
            with pytest.raises(MeasureError):
                radial_of_measure(mu, w, bad)
        mu2 = MeasureField(n=2, window=[[-1, 1], [-1, 1]], density=np.ones((20, 20, 1)))
        with pytest.raises(MeasureError):
            radial_of_measure(mu2, normalize(bump(2, 0.3)), 0.1)

    def test_window_exit_of_one_probe_is_an_error(self):
        mu, w = sign_measure(window=(-1.0, 1.0), cells=200), annulus(0.1)
        with pytest.raises(WindowExitError, match=r"probe \[0\.9\]"):
            radial_of_measure(mu, w, np.array([[-0.5], [0.0], [0.9], [0.3]]))
        with pytest.raises(WindowExitError, match=r"probe \[0\.9\]"):
            _ball_average(mu, np.array([[0.0], [0.9]]), np.array([[0.1, 0.2], [0.05, 0.15]]), extend=False)

    def test_atom_on_the_boundary_of_one_probe_is_an_error(self):
        mu = dirac((-1.0, 1.0), 0.5, 1.0)
        radii = np.array([[0.1, 0.25], [0.1, 0.25]])
        assert _ball_average(mu, np.array([[0.0], [0.1]]), radii, extend=False).shape == (2, 2, 1)
        with pytest.raises(AtomOnBoundaryError, match=r"radius 0\.25 around probe \[0\.25\]"):
            _ball_average(mu, np.array([[0.0], [0.25]]), radii, extend=False)

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_linf_gap_makes_one_ball_average_pass(self, eps, monkeypatch):
        # the work per eps must not grow with the probe count: the gap
        # reads one stacked ball average, never one per probe
        calls = []
        kernel = measures._ball_average

        def counted(*args, **kwargs):
            calls.append(args[1].shape)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(measures, "_ball_average", counted)
        counts = {}
        for probes in (40, 400):
            monkeypatch.setattr(measures, "LINF_PROBES", probes)
            calls.clear()
            linf_gap(eps)
            counts[probes] = len(calls)
            assert calls[0] == (probes, 1)
        assert counts[40] == counts[400] == 1


class TestRadialOfMeasure:
    def test_atom_at_center_closed_form(self):
        # annulus weight: integral of (1/(2 eps)) * (1/(2r)) over [eps, 2 eps]
        # against the 1D front factor 2 gives ln 2 / (2 eps)
        mu = dirac((-1.0, 1.0), 0.0, 1.0)
        got = radial_of_measure(mu, annulus(0.1), 0.0)[0]
        assert abs(got - 3.465735902799726) < 1e-12

    def test_interior_closed_form_for_sign_measure(self):
        mu = sign_measure()
        for eps in (0.1, 0.01):
            w = annulus(eps)
            for t in (-0.8 * eps, 0.25 * eps, 0.6 * eps):
                want = (t / eps) * log(2.0)
                assert abs(radial_of_measure(mu, w, t)[0] - want) < 1e-8

    @pytest.mark.parametrize("s", [0.9, 0.5, 0.2, 0.05])
    def test_fractional_closed_form_for_sign_measure(self, s):
        # the normalized weight is the measure s r^(s-1) dr on (0, 1], and the
        # ball average of sign at 0 < x < 1 is 1 for r < x and x / r past it,
        # so the operator is x^s + s x (x^(s-1) - 1) / (1 - s)
        x = np.linspace(0.013, 0.9, 40)
        got = radial_of_measure(sign_measure(), normalize(fractional(1, s)), x[:, None])[:, 0]
        assert np.abs(got - (x**s + s * x * (x ** (s - 1.0) - 1.0) / (1.0 - s))).max() < 1e-6

    def test_beyond_double_scale_recovers_sign(self):
        mu = sign_measure()
        w = annulus(0.05)
        assert abs(radial_of_measure(mu, w, 0.5)[0] - 1.0) < 1e-10
        assert abs(radial_of_measure(mu, w, -0.5)[0] + 1.0) < 1e-10

    def test_constant_density_two_dimensional(self):
        # averaging a constant returns the constant, so the radial operator
        # returns the weight mass times it; cell-center counting is O(h)
        cells = 200
        dens = np.full((cells, cells, 1), 0.9)
        mu = MeasureField(n=2, window=[[-1, 1], [-1, 1]], density=dens, atoms=(), dim=1)
        w = normalize(bump(2))
        got = radial_of_measure(mu, w, np.array([0.05, -0.1]))[0]
        assert abs(got - 0.9) < 0.9 * 5e-2

    def test_dimension_mismatch(self):
        with pytest.raises(MeasureError):
            radial_of_measure(sign_measure(), normalize(bump(2)), 0.0)

    def test_total_variation_bound(self):
        # averaging against a probability weight cannot increase mass
        carrier = from_density_fn((-2.0, 2.0), 1600, lambda t: np.cos(pi * t))
        fields, _ = scenario_smooth_localization(eps_list=(0.2, 0.05), cells=400)
        bound = total_variation(carrier)
        for fld in fields:
            assert total_variation(fld) <= bound + 1e-8


class TestSupNormGap:
    def test_gap_stays_above_limit(self):
        floor = 1.0 - log(2.0) - 1e-9
        g1, g2 = linf_gap(0.1), linf_gap(0.01)
        assert type(g1) is float and type(g2) is float
        assert g1 >= floor and g2 >= floor
        assert g2 <= g1

    def test_closed_form_pieces(self):
        eps = 0.1
        assert abs(linf_gap_closed_form(eps, eps) - log(2.0)) < 1e-15
        assert linf_gap_closed_form(eps, 2 * eps) == 1.0
        assert linf_gap_closed_form(eps, 0.7) == 1.0
        assert abs(linf_gap_closed_form(eps, 0.04) - 0.4 * log(2.0)) < 1e-15

    def test_probes_match_closed_form(self):
        mu = sign_measure()
        w = annulus(0.1)
        for t in (0.05, 0.13, 0.19, 0.31, -0.08):
            got = radial_of_measure(mu, w, t)[0]
            assert abs(got - linf_gap_closed_form(0.1, t)) < 1e-8

    @given(st.floats(min_value=0.005, max_value=0.2), st.floats(min_value=-0.9, max_value=0.9))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_odd_and_bounded(self, eps, t):
        assume(eps < 0.25)
        val = linf_gap_closed_form(eps, t)
        assert abs(val + linf_gap_closed_form(eps, -t)) < 1e-12
        assert abs(val) <= 1.0 + 1e-12

    def test_eps_range_guard(self):
        with pytest.raises(ValueError):
            linf_gap(0.3)


class TestAreaFunctional:
    def test_single_atom_values(self):
        mu = dirac((-1.0, 1.0), 0.0, 1.0)
        assert abs(area_functional(mu, area_integrand()) - 3.0) < 1e-14

    def test_density_reduces_to_quadrature(self):
        mu = from_density_fn((0.0, 1.0), 4000, lambda t: t)
        want = 0.5 * (sqrt(2.0) + np.arcsinh(1.0))
        assert abs(area_functional(mu, area_integrand()) - want) < 1e-7

    def test_recession_is_one_homogeneous(self):
        f = area_integrand()
        for z in (np.array([0.3]), np.array([-2.0]), np.array([5.5])):
            exact = f.g_infty(z)
            assert abs(f.g_infty(3.0 * z) - 3.0 * exact) < 1e-12

    def test_convergence_table_frozen_values(self):
        mu = dirac((-1.0, 1.0), 0.0, 1.0, cells=800)
        rows = area_convergence_table(mu, area_integrand(), [0.1, 0.05, 0.025])
        want = [
            (0.1, 2.8198039027185571, 0.1801960972814429),
            (0.05, 2.9049875621120886, 0.0950124378879111),
            (0.025, 2.9512492197250393, 0.0487507802749607),
        ]
        for (s, val, gap), (ws, wval, wgap) in zip(rows, want):
            assert s == ws
            assert abs(val - wval) < 1e-10
            assert abs(gap - wgap) < 1e-10
        gaps = [r[2] for r in rows]
        assert gaps[2] < gaps[1] < gaps[0]

    def test_averaged_functional_never_exceeds_target(self):
        # convexity with the recession term: averaging cannot increase the
        # functional of a nonnegative atom
        mu = dirac((-1.0, 1.0), 0.0, 1.0, cells=800)
        rows = area_convergence_table(mu, area_integrand(), [0.2, 0.1])
        for _, val, _ in rows:
            assert val <= 3.0 + 1e-8

    def test_table_requires_decreasing_scales(self):
        mu = dirac((-1.0, 1.0), 0.0, 1.0, cells=100)
        with pytest.raises(ValueError):
            area_convergence_table(mu, area_integrand(), [0.05, 0.1])

    def test_spherical_field_mass_preserved(self):
        mu = dirac((-1.0, 1.0), 0.0, 1.0, cells=800)
        fld = _spherical_field_1d(mu, 0.1, 800)
        assert abs(total_variation(fld) - 1.0) < 1e-12


class TestAreaVsL1:
    def test_smooth_localization_scenario(self):
        fields, limit = scenario_smooth_localization()
        report = area_vs_l1(fields, limit)
        assert report["l1_tends_to_zero"]
        assert report["area_gap_tends_to_zero"]
        assert report["verdict"] == "PASS"
        l1s = [r[0] for r in report["rows"]]
        assert l1s[-1] < 0.05 * l1s[0]

    def test_atom_spread_scenario(self):
        fields, limit = scenario_atom_spread()
        report = area_vs_l1(fields, limit)
        assert not report["l1_tends_to_zero"]
        assert not report["area_gap_tends_to_zero"]
        assert report["verdict"] == "PASS"
        for l1, _ in report["rows"]:
            assert abs(l1 - 1.0) < 1e-12

    def test_mismatched_grids_rejected(self):
        a = zero_measure((-1.0, 1.0), 100)
        b = zero_measure((-1.0, 1.0), 200)
        with pytest.raises(MeasureError):
            area_vs_l1([a], b)


class TestGaussGreen:
    def test_heaviside_residual_zero(self):
        u = heaviside_bv()
        for x, s in ((0.1, 0.3), (-0.05, 0.2), (0.2, 0.45)):
            assert gauss_green_check(u, s, x) < 1e-10

    def test_trig_residual_small(self):
        u = trig_bv()
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.uniform(-0.5, 0.5)
            s = rng.uniform(0.05, 0.45)
            assert gauss_green_check(u, s, x) < 1e-8

    def test_constant_residual_zero(self):
        u = PiecewiseBV(
            pieces=((-1.0, 1.0, lambda t: np.full_like(np.asarray(t, float), 4.2), lambda t: np.zeros_like(np.asarray(t, float))),)
        )
        assert gauss_green_check(u, 0.3, 0.1) < 1e-10

    def test_jump_on_endpoint_is_an_error(self):
        u = heaviside_bv()
        with pytest.raises(JumpAtEvaluationError):
            gauss_green_check(u, 0.25, 0.25)

    def test_interval_leaving_support_is_an_error(self):
        with pytest.raises(WindowExitError):
            gauss_green_check(heaviside_bv(), 0.5, 0.7)

    @given(st.floats(min_value=-0.4, max_value=0.4), st.floats(min_value=0.05, max_value=0.45))
    @settings(max_examples=40, deadline=None)
    def test_heaviside_random_intervals(self, x, s):
        assume(abs(x - s) > 1e-5 and abs(x + s) > 1e-5)
        assume(x + s < 0.999 and x - s > -0.999)
        assert gauss_green_check(heaviside_bv(), s, x) < 1e-10


class TestAtomicDemo:
    def test_rows_show_direction_dependence(self):
        rows = {probe: (val, inside) for probe, val, inside in atomic_divergence_demo()}
        third = 1.0 / pi
        assert abs(rows[(0.1, 0.0)][0] + third) < 1e-12
        assert rows[(0.1, 0.0)][1] == 1
        assert abs(rows[(0.0, 0.1)][0] - third) < 1e-12
        assert rows[(-0.1, 0.0)] == (0.0, 0)
        assert rows[(0.0, -0.1)] == (0.0, 0)
        assert rows[(10.0, 10.0)] == (0.0, 0)

    def test_custom_probe(self):
        vals = spherical_of_measure(atomic_pair_measure(), 1.0, [(0.5, 0.5)])
        # both atoms sit at distance sqrt(0.5) < 1 from (0.5, 0.5), so their
        # opposite weights cancel
        assert vals.shape == (1, 1)
        assert abs(vals[0, 0]) < 1e-12


class TestValidation:
    def test_atom_outside_window(self):
        with pytest.raises(MeasureError):
            MeasureField(n=1, window=[[-1, 1]], density=None, atoms=(((2.0,), (1.0,)),))

    def test_duplicate_atoms(self):
        with pytest.raises(MeasureError):
            MeasureField(
                n=1,
                window=[[-1, 1]],
                density=None,
                atoms=(((0.3,), (1.0,)), ((0.3,), (2.0,))),
            )

    def test_bad_density_shape(self):
        with pytest.raises(MeasureError):
            MeasureField(n=1, window=[[-1, 1]], density=np.zeros((10,)), atoms=())

    def test_empty_window(self):
        with pytest.raises(MeasureError):
            MeasureField(n=1, window=[[1, 1]], density=None, atoms=())

    def test_three_dimensions_unsupported(self):
        with pytest.raises(MeasureError):
            MeasureField(n=3, window=[[-1, 1]] * 3, density=None, atoms=())

    def test_sign_measure_needs_edge_at_zero(self):
        with pytest.raises(MeasureError):
            sign_measure(cells=8001)
        with pytest.raises(MeasureError):
            sign_measure(window=(0.5, 2.0))
