"""Weight profiles: masses and tails against closed forms, multiplier against
independent sine-integral and arbitrary-precision oracles."""

import tracemalloc
from dataclasses import replace
from math import pi
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sici

from nlops.bessel import ball_transform, bessel_j, unit_ball_volume
from nlops.weights import (
    FRACTIONAL_MIN_S,
    MU_HAT_BLOCK,
    PANEL_NODES,
    RadialWeight,
    WEIGHT_PRESETS,
    WeightError,
    annulus,
    bump,
    fractional,
    gaussian_modification,
    mu_hat,
    mu_hat_highprec,
    mu_hat_scan,
    normalize,
    positivity_report,
    positivity_scan,
    rescaled_family,
    superposition_measure,
    tail,
    truncation_radius,
    _bisect_tail,
    _multiplier,
    _upper_gamma_half,
)


def si_annulus_mu(eps, xi):
    """Exact annulus multiplier via the sine integral: the 1D formula
    (1/(pi xi)) int_eps^2eps sin(2 pi r xi)/(2 eps r) dr integrates in
    closed form to [Si(4 pi eps xi) - Si(2 pi eps xi)] / (2 pi eps xi)."""
    z = 2.0 * pi * eps * xi
    return (sici(2.0 * z)[0] - sici(z)[0]) / z


def fresnel_fractional_mu(xi):
    """Exact multiplier of fractional(1, 1/2) via the Fresnel integral: the 1D
    formula (1/(pi xi)) int_0^1 r^(-3/2) sin(2 pi r xi) dr integrates by parts
    in closed form to [-2 sin a + 2 sqrt(2 pi a) C(sqrt(2a/pi))] / (pi xi),
    a = 2 pi xi, with C(z) = int_0^z cos(pi t^2/2) dt."""
    with mp.workdps(40):
        a = 2 * mp.pi * xi
        return float((-2 * mp.sin(a) + 2 * mp.sqrt(2 * mp.pi * a) * mp.fresnelc(mp.sqrt(2 * a / mp.pi))) / (mp.pi * xi))


class TestMasses:
    def test_fractional_mass_closed_form(self):
        # n omega_n / s, from the smallest exponent the rule resolves on
        for n in (1, 2, 3):
            for s in [FRACTIONAL_MIN_S, *np.round(np.arange(0.01, 0.995, 0.01), 2)]:
                w = fractional(n, s)
                expected = n * unit_ball_volume(n) / s
                assert abs(w.mass - expected) < 1e-12 * expected
            assert np.all(np.isfinite(mu_hat(fractional(n, FRACTIONAL_MIN_S), np.array([0.3, 10.0, 1000.0]))))

    def test_singular_profile_without_preset_mass(self):
        # r^-1.5 on the unit disc: 2 pi int_0^1 r^-0.5 dr = 4 pi
        w = RadialWeight(
            n=2,
            profile=lambda r: np.where(r <= 1.0, np.asarray(r, float) ** -1.5, 0.0),
            support_radius=1.0,
            singularity_exponent=-1.5,
        )
        assert abs(w.mass - 4.0 * pi) < 1e-12

    def test_gaussian_mass_is_sigma_squared_in_1d(self):
        for sigma in (0.5, 1.0, 1.7):
            w = gaussian_modification(1, sigma)
            assert abs(w.mass - sigma**2) < 1e-9

    def test_annulus_is_probability(self):
        for eps in (0.2, 0.01):
            assert abs(annulus(eps).mass - 1.0) < 1e-14

    def test_normalized_weights_have_unit_mass(self):
        for w in (fractional(1, 0.5), bump(1)):
            assert abs(normalize(w).mass - 1.0) < 1e-13
        # unbounded support: truncation radius shifts under rescaling, so
        # agreement is only at the tail-cutoff scale
        assert abs(normalize(gaussian_modification(2, 0.7)).mass - 1.0) < 1e-9


class TestTails:
    def test_annulus_tail_halves_at_midpoint(self):
        w = annulus(0.1)
        assert abs(tail(w, 0.15) - 0.5) < 1e-14
        assert abs(tail(w, 0.1) - 1.0) < 1e-14
        assert tail(w, 0.2 + 1e-12) == 0.0

    def test_gaussian_tail_matches_analytic(self):
        w = gaussian_modification(1, 1.0)
        for delta in (0.5, 1.0, 2.0):
            # quadrature tail is itself truncated at the 1e-10 cutoff radius
            assert abs(tail(w, delta) - w.tail_bound(delta)) < 2e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_upper_gamma_matches_mpmath(self, n):
        # Gamma(n/2 + 1, x), the exact Gaussian tail, over the x = delta^2 /
        # (2 sigma^2) that truncation_radius bisects through
        xs = np.concatenate(([0.0], np.geomspace(1e-6, 400.0, 60)))
        with mp.workdps(40):
            errs = [
                float(abs(mp.mpf(_upper_gamma_half(n, x)) / mp.gammainc(mp.mpf(n) / 2 + 1, float(x)) - 1))
                for x in xs
            ]
        assert max(errs) <= 1e-15

    def test_truncation_radius_respects_support(self):
        assert truncation_radius(annulus(0.1)) == 0.2
        assert truncation_radius(bump(2, 0.4)) == 0.4

    def test_truncation_radius_hits_threshold(self):
        w = gaussian_modification(1, 1.0)
        R = truncation_radius(w, 1e-8)
        assert w.tail_bound(R) < 1e-8 < w.tail_bound(0.9 * R)

    def test_truncation_radius_is_bisected_once_per_threshold(self):
        calls = []
        base = gaussian_modification(2, 0.3)

        def counted(delta):
            calls.append(delta)
            return base.tail_bound(delta)

        w = replace(base, tail_bound=counted)
        R = truncation_radius(w, 1e-9)
        bisected = len(calls)
        assert bisected > 0
        assert truncation_radius(w, 1e-9) == R
        assert len(calls) == bisected
        assert truncation_radius(base, 1e-9) == R

    @pytest.mark.parametrize(
        "w",
        [
            gaussian_modification(1, 0.05),
            normalize(gaussian_modification(2, 0.3)),
            rescaled_family(normalize(gaussian_modification(3, 1.0)))(0.1),
        ],
        ids=["n1-sigma0.05", "normalized-n2-sigma0.3", "rescaled-n3"],
    )
    @pytest.mark.parametrize("threshold", [1e-10, 1e-8, 1e-35])
    def test_bisection_stops_when_the_bracket_stops_moving(self, w, threshold):
        # once a midpoint falls on an end of the bracket, further halvings
        # leave it as it is: the bisection stops there, on the radius that
        # 200 halvings reach
        calls = []

        def counted(delta):
            calls.append(delta)
            return w.tail_bound(delta)

        R = _bisect_tail(SimpleNamespace(tail_bound=counted), threshold)
        assert len(calls) <= 64
        lo, hi = 1e-6, 1.0
        while w.tail_bound(hi) >= threshold:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if w.tail_bound(mid) < threshold else (mid, hi)
        assert R == hi

    @given(st.floats(min_value=0.05, max_value=1.5), st.floats(min_value=0.05, max_value=1.5))
    @settings(max_examples=30, deadline=None)
    def test_tail_monotone_decreasing(self, d1, d2):
        w = gaussian_modification(1, 0.8)
        lo, hi = sorted((d1, d2))
        assert tail(w, hi) <= tail(w, lo) + 1e-12


class TestMuHat:
    def test_zero_frequency_returns_mass(self):
        for w in (annulus(0.1), normalize(bump(1))):
            assert mu_hat(w, 0.0) == w.mass

    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.01])
    # at xi = 465 the breakpoint eps maps to t = 2 pi eps xi, a point of the
    # panel lattice in t up to rounding for eps = 0.1 and 0.05
    @pytest.mark.parametrize("xi", [0.3, 1.0, 4.0, 17.0, 465.0])
    def test_annulus_against_sine_integral(self, eps, xi):
        assert abs(mu_hat(annulus(eps), xi) - si_annulus_mu(eps, xi)) < 1e-12

    @pytest.mark.parametrize(
        "w",
        [normalize(bump(n)) for n in (1, 2, 3)]
        + [normalize(gaussian_modification(n, 1.0)) for n in (1, 2, 3)]
        + [annulus(0.1)]
        + [normalize(fractional(n, 0.5)) for n in (1, 2, 3)],
        ids=["bump1", "bump2", "bump3", "gaussian1", "gaussian2", "gaussian3", "annulus"]
        + ["fractional1", "fractional2", "fractional3"],
    )
    def test_each_value_depends_on_its_own_frequency_alone(self, w):
        # the frequencies share Bessel values, but each value is its scalar
        # call's, bit for bit; the lattice step halves below the band edges
        # xi = 2^-k max(8/R, 2/s), s the shortest segment between
        # breakpoints, and frequencies sit on and next to them.  The 60
        # frequencies in [100, 300] put hundreds to thousands of panels on
        # the widest lattice, so it straddles MU_HAT_BLOCK source blocks and
        # its frequencies take it in several rectangles per block
        R = truncation_radius(w)
        points = [0.0] + [b for b in w.breakpoints if 0.0 < b < R] + [R]
        edge = max(8.0 / R, 2.0 / min(np.diff(points)))
        edges = edge * 2.0 ** np.arange(-3, 3)
        ulp = np.concatenate([np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        near = np.concatenate([edges, ulp, edges * 0.99, edges * 1.01])
        high = np.random.default_rng(10 + w.n).uniform(100.0, 300.0, 60)
        xis = np.concatenate([[0.0], np.linspace(0.05, 40.0, 79), near, high])
        xis = np.random.default_rng(w.n).permutation(xis)
        assert mu_hat(w, xis).tolist() == [mu_hat(w, xi) for xi in xis]

    def test_frequencies_share_the_bessel_values_of_their_lattice(self, monkeypatch):
        # the 129 Chebyshev points of a gradient2d N=128 table: with panels
        # of their own the frequencies took 126 448 Bessel values, on the
        # lattices in t = 2 pi r xi they take 11 824
        xis = 0.5 * np.sqrt(2.0) * 63.0 * (1.0 + np.cos(pi * np.arange(129) / 128))
        w = normalize(bump(2, 0.3))
        points = []

        def counted(a, t):
            points.append(np.size(t))
            return bessel_j(a, t)

        monkeypatch.setattr("nlops.weights.bessel_j", counted)
        mu_hat(w, xis)
        assert sum(points) < 40_000

    def test_panels_follow_the_oscillation(self):
        # the multiplier's panels, the origin panel included, are no wider
        # than 1/(4 xi) here: with the mass's panels the Gaussian value is
        # off by 1.1e-4
        xi = 50.0
        # the closed form exp(-2 pi^2 xi^2) underflows to 0
        assert abs(mu_hat(normalize(gaussian_modification(1, 1.0)), xi)) < 1e-14
        ref = fresnel_fractional_mu(xi)
        assert abs(mu_hat(fractional(1, 0.5), xi) - ref) < 1e-14 * ref

    def test_split_segment_keeps_the_accuracy(self):
        # at xi = 200 the segment [0, 1] has 800 panels, more than the
        # MU_HAT_BLOCK // PANEL_NODES = 512 of one block, so it is split; the
        # value stays within 4.5e-16 (relative) of the closed form, 2.3e-16
        # at xi = 50
        xi = 200.0
        assert 4 * xi > MU_HAT_BLOCK // PANEL_NODES
        ref = fresnel_fractional_mu(xi)
        assert abs(mu_hat(fractional(1, 0.5), xi) - ref) < 1e-14 * ref

    def test_memory_stays_bounded_at_high_frequency(self):
        # 4 xi R = 2.8e5 panels of 16 nodes: held at once they took about
        # 0.5 GB.  In blocks of MU_HAT_BLOCK nodes, with the panel sums and
        # split flags kept whole (9 bytes a panel), the peak is about 3.5 MB;
        # a (source, frequency) pair index over the lattice took 10.3 MB
        w = normalize(gaussian_modification(1, 1.0))
        tracemalloc.start()
        try:
            mu_hat(w, 1e4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.9, 0.5, 0.05, 0.001])
    def test_fractional_against_hypergeometric_closed_form(self, n, s):
        # the normalized multiplier of fractional(n, s) is
        # 1F2(s/2; n/2 + 1, 1 + s/2; -pi^2 xi^2)
        xi = np.array([0.3, 1.0, 5.0, 50.0, 500.0])
        got = mu_hat(normalize(fractional(n, s)), xi)
        with mp.workdps(30):
            want = [float(mp.hyp1f2(s / 2, n / 2 + 1, 1 + s / 2, -((mp.pi * x) ** 2))) for x in xi]
        assert np.abs(got - want).max() < 1e-14

    def test_annulus_localization_values_frozen(self):
        # 1 - mu_hat at unit frequency, and the halving ratio, computed from
        # the sine-integral closed form and pinned here
        e1 = 1.0 - mu_hat(annulus(0.05), 1.0)
        e2 = 1.0 - mu_hat(annulus(0.025), 1.0)
        assert abs(e1 - 3.788196056994253e-02) < 1e-13
        assert abs(e2 - 9.564047721086988e-03) < 1e-13
        assert abs(e2 / e1 - 0.252469713214252) < 1e-11

    def test_dual_route_against_superposition(self):
        # multiplier from the Bessel integral vs the superposition of ball
        # transforms; independent quadratures must agree
        for w in (normalize(gaussian_modification(1, 1.0)), annulus(0.05), normalize(fractional(1, 0.5)), normalize(bump(2))):
            radii, rw = superposition_measure(w)
            for xi in (0.4, 1.7, 6.1):
                dual = float(np.sum(rw * np.array([ball_transform(w.n, float(r), xi) for r in radii])))
                assert abs(mu_hat(w, xi) - dual) < 1e-6

    def test_bounded_by_mass(self):
        for w in (annulus(0.1), normalize(bump(1)), normalize(fractional(2, 0.5))):
            grid = np.linspace(0.0, 12.0, 60)
            vals, _ = mu_hat_scan(w, grid)
            assert np.max(np.abs(vals)) <= w.mass + 1e-9

    @pytest.mark.parametrize(
        "w",
        [bump(n) for n in (1, 2, 3)]
        + [normalize(gaussian_modification(n, 0.1)) for n in (1, 2, 3)]
        + [fractional(n, 0.5) for n in (1, 2, 3)]
        + [annulus(0.05)],
        ids=lambda w: f"{w.name}-n{w.n}",
    )
    def test_array_matches_one_scalar_call_per_element(self, w):
        # enough frequencies, and high enough, that the lattices span
        # several bessel_j calls of MU_HAT_BLOCK nodes
        xi = np.concatenate([[0.0], np.linspace(0.05, 60.0, 37), [150.0, 300.0, 0.0, 3.0]])
        got = mu_hat(w, xi)
        want = np.array([mu_hat(w, float(x)) for x in xi])
        assert got.shape == xi.shape
        assert got[0] == got[-2] == w.mass
        assert np.max(np.abs(got - want)) <= 1e-15 * w.mass

    def test_scalar_returns_float_and_arrays_keep_their_shape(self):
        w = normalize(bump(2))
        assert type(mu_hat(w, 1.5)) is float
        assert type(mu_hat(w, np.float64(0.0))) is float
        grid = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert mu_hat(w, grid).shape == (2, 2)

    @pytest.mark.parametrize(
        "w",
        [bump(2), normalize(gaussian_modification(3, 0.1)), fractional(1, 0.5), annulus(0.05)],
        ids=lambda w: f"{w.name}-n{w.n}",
    )
    def test_scalar_is_a_one_element_array_call(self, w):
        for xi in (0.0, 0.37, 3.0, 41.5):
            assert mu_hat(w, xi) == mu_hat(w, np.array([xi]))[0]

    @pytest.mark.parametrize("xi", [-1.0, [0.5, -0.1], np.nan])
    def test_negative_or_nan_frequency_rejected(self, xi):
        with pytest.raises(ValueError):
            mu_hat(normalize(bump(2)), xi)

    def test_frequency_past_an_array_index_is_refused_by_name(self):
        # its panel count overflowed the integer cast: a RuntimeWarning, then
        # numpy's "negative dimensions are not allowed"
        with pytest.raises(ValueError, match=r"mu_hat at xi = 1e\+20 needs .* panels"):
            mu_hat(normalize(gaussian_modification(1, 1.0)), np.array([0.0, 1e20]))

    def test_scan_error_is_the_rule_difference(self):
        # the estimate is still the default rule against the half-order rule
        w = normalize(gaussian_modification(2, 0.1))
        grid = np.linspace(0.0, 30.0, 41)
        vals, errs = mu_hat_scan(w, grid)
        coarse = _multiplier(w, grid, PANEL_NODES // 2)
        assert np.array_equal(vals, mu_hat(w, grid))
        assert errs[0] == 1e-8 * abs(vals[0])
        assert np.array_equal(errs[1:], np.abs(vals[1:] - coarse[1:]) + 1e-15)

    def test_scan_error_estimates_cover_truth(self):
        w = annulus(0.07)
        grid = np.array([0.5, 2.0, 9.0])
        vals, errs = mu_hat_scan(w, grid)
        truth = np.array([si_annulus_mu(0.07, x) for x in grid])
        assert np.all(np.abs(vals - truth) <= errs + 1e-12)


class TestHighPrecision:
    def test_gaussian_identity_deep_tail(self):
        # mu_hat(kappa/(2 pi)) = exp(-(sigma kappa)^2/2) for the weight
        # |t|^2 G_sigma(|t|)/sigma^2; checked far below the double floor
        import mpmath as mp

        for sigma, kappa in ((0.5, 1.0), (1.0, 3.0), (2.0, 5.0)):
            w = gaussian_modification(1, sigma)
            got = mu_hat_highprec(w, kappa / (2.0 * pi)) / sigma**2
            want = mp.e ** (-((sigma * kappa) ** 2) / 2)
            assert float(abs(got - want) / want) < 1e-12

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_deep_decade_off_only_by_the_mass_offset(self, sigma):
        # at the xi where exp(-2 pi^2 sigma^2 xi^2) = 1e-30, the normalized
        # weight's multiplier differs from that closed form only by its
        # quadrature mass: sigma^2 exactly, computed short by the truncated
        # tail; integrating the tail out too short adds 3e-10 at sigma = 2
        base = gaussian_modification(1, sigma)
        xi = np.sqrt(30.0 * np.log(10.0) / (2.0 * pi**2 * sigma**2))
        with mp.workdps(60):
            got = mu_hat_highprec(normalize(base), xi, dps=60)
            rel = float(got / mp.exp(-2 * mp.pi**2 * mp.mpf(sigma) ** 2 * mp.mpf(xi) ** 2) - 1)
        assert abs(rel - (sigma**2 / base.mass - 1.0)) < 1e-14

    @pytest.mark.parametrize("dps", [15, 35, 60])
    @pytest.mark.parametrize("w", [gaussian_modification(1, 1.0), gaussian_modification(2, 0.1)], ids=["1d", "2d"])
    def test_normalized_profile_is_the_exact_quotient(self, w, dps):
        # normalize divides the mpf profile by the float mass, which mpmath
        # converts exactly: the same mpf as dividing by mpf(mass)
        unit = normalize(w)
        with mp.workdps(dps):
            for r in (1e-3, 0.5, 3.0):
                got = unit.profile_mp(mp.mpf(r))
                assert isinstance(got, mp.mpf)
                assert got == w.profile_mp(mp.mpf(r)) / mp.mpf(w.mass)

    def test_precision_past_a_double_tail(self):
        # 10^-324 is 0.0 as a double, below every tail bound; the cut stops
        # at the smallest normal double instead of failing
        w = gaussian_modification(1, 1.0)
        with mp.workdps(324):
            got = mu_hat_highprec(w, 0.01, dps=324) / mp.exp(-2 * mp.pi**2 * mp.mpf(0.01) ** 2)
        assert abs(float(got - 1)) < 1e-14

    def test_requires_mp_profile(self):
        with pytest.raises(WeightError):
            mu_hat_highprec(annulus(0.1), 1.0)

    def test_requires_one_dimension(self):
        with pytest.raises(ValueError):
            mu_hat_highprec(gaussian_modification(2, 1.0), 1.0)


class TestPositivity:
    def test_gaussian_certificate_on_resolvable_window(self):
        w = normalize(gaussian_modification(1, 1.0))
        grid = np.linspace(0.05, 0.9, 30)
        report = positivity_scan(w, grid)
        assert report.verdict == "positivity certificate on grid"
        assert report.min_value > 0.0

    def test_annulus_reports_sign_change(self):
        report = positivity_scan(annulus(0.1), np.linspace(0.1, 9.0, 120))
        assert report.verdict == "zero crossing detected"
        assert report.sign_changes

    def test_highprec_path_resolves_deep_tail(self):
        w = normalize(gaussian_modification(1, 1.0))
        grid = np.linspace(0.3, 0.95, 8)
        report = positivity_report(grid, [float(mu_hat_highprec(w, xi)) for xi in grid])
        assert report.min_value > 0.0

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            positivity_scan(annulus(0.1), np.array([1.0, 0.5]))

    def test_report_from_values_matches_scan(self):
        w = annulus(0.1)
        grid = np.linspace(0.1, 9.0, 120)
        vals, _ = mu_hat_scan(w, grid)
        assert positivity_report(grid, vals) == positivity_scan(w, grid)
        with pytest.raises(ValueError):
            positivity_report(grid[::-1], vals[::-1])


class TestSuperposition:
    def test_weights_sum_to_mass(self):
        for w in (annulus(0.1), normalize(fractional(1, 0.5)), gaussian_modification(1, 0.6), bump(2)):
            _, rw = superposition_measure(w)
            assert abs(np.sum(rw) - w.mass) < 1e-8 * max(1.0, w.mass)

    def test_delta_restricts_to_tail(self):
        w = annulus(0.1)
        _, rw = superposition_measure(w, delta=0.15)
        assert abs(np.sum(rw) - 0.5) < 1e-12

    def test_nodes_positive_and_sorted_per_block(self):
        nodes, _ = superposition_measure(normalize(fractional(1, 0.5)))
        assert np.all(nodes > 0.0)
        assert np.all(nodes <= 1.0 + 1e-15)


class TestFamilies:
    def test_annulus_family_members_are_probabilities(self):
        for eps in (0.2, 0.05, 0.0125):
            assert abs(annulus(eps).mass - 1.0) < 1e-13

    def test_family_tails_vanish(self):
        for delta in (0.1, 0.02):
            tails = [tail(annulus(eps), delta) for eps in (0.2, 0.04, 0.008)]
            assert tails[-1] == 0.0
            assert all(b <= a + 1e-12 for a, b in zip(tails, tails[1:]))

    def test_rescaled_bump_family(self):
        fam = rescaled_family(normalize(bump(1, 0.3)))
        for eps in (0.5, 0.1):
            member = fam(eps)
            assert abs(member.mass - 1.0) < 1e-10
            assert abs(truncation_radius(member) - 0.3 * eps) < 1e-15

    @pytest.mark.parametrize("n", [1, 2])
    def test_rescaled_unbounded_family(self, n):
        # the members of an unbounded base carry its tail bound, rescaled;
        # their truncation radius and tails come from it
        fam = rescaled_family(normalize(gaussian_modification(n, 1.0)))
        members = [fam(eps) for eps in (0.4, 0.2, 0.1, 0.05)]
        for member in members:
            assert abs(member.mass - 1.0) < 1e-8
        for delta in (0.5, 1.0):
            tails = [tail(member, delta) for member in members]
            bounds = [member.tail_bound(delta) for member in members]
            assert tails[0] > tails[1] > tails[2] >= tails[3] == 0.0
            assert bounds[0] > bounds[1] > bounds[2] > bounds[3]
            assert bounds[3] < 1e-20

    def test_family_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            rescaled_family(normalize(bump(1)))(0.0)


class TestValidation:
    def test_non_integrable_singularity_rejected(self):
        with pytest.raises(WeightError):
            RadialWeight(n=1, profile=lambda r: r**-1.5, support_radius=1.0, singularity_exponent=-1.5)

    def test_unbounded_support_needs_tail(self):
        with pytest.raises(WeightError):
            RadialWeight(n=1, profile=lambda r: np.exp(-r), support_radius=None)

    def test_fractional_exponent_range(self):
        with pytest.raises(ValueError):
            fractional(1, 0.0)
        with pytest.raises(ValueError):
            fractional(1, 1.0)
        for n in (1, 2, 3):
            with pytest.raises(ValueError, match=f"s = {FRACTIONAL_MIN_S / 2:g} .* n = {n}"):
                WEIGHT_PRESETS["fractional"](n=n, s=FRACTIONAL_MIN_S / 2)
        with pytest.raises(ValueError, match="n = 4"):
            fractional(4, 0.5)

    def test_annulus_positive_eps(self):
        with pytest.raises(ValueError):
            annulus(-0.1)
