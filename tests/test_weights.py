"""Weight profiles: masses and tails against closed forms, multiplier against
independent sine-integral and arbitrary-precision oracles."""

import tracemalloc
from dataclasses import replace
from math import pi

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sici

from nlops.bessel import ball_transform, unit_ball_volume
from nlops.weights import (
    FRACTIONAL_MIN_S,
    MU_HAT_BLOCK,
    PANEL_NODES,
    RadialWeight,
    WEIGHT_PRESETS,
    WeightError,
    annulus,
    annulus_family,
    bump,
    fractional,
    gaussian_modification,
    mass,
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
        for n, bound in FRACTIONAL_MIN_S.items():
            for s in np.round(np.arange(bound, 0.995, 0.01), 2):
                w = fractional(n, s)
                expected = n * unit_ball_volume(n) / s
                assert abs(w.mass - expected) < 1e-12 * expected
            assert np.all(np.isfinite(mu_hat(fractional(n, bound), np.array([0.3, 10.0, 1000.0]))))

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

    def test_mass_function_matches_cached(self):
        w = bump(2)
        assert mass(w) == w.mass


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
    @pytest.mark.parametrize("xi", [0.3, 1.0, 4.0, 17.0])
    def test_annulus_against_sine_integral(self, eps, xi):
        assert abs(mu_hat(annulus(eps), xi) - si_annulus_mu(eps, xi)) < 1e-12

    def test_panels_follow_the_oscillation(self):
        # the radial rule's panels, the substituted block's included, are no
        # wider than 1/(4 xi) here: with the mass's panels these values are
        # off by 1e-4 to 1e-3
        xi = 50.0
        # the closed form exp(-2 pi^2 xi^2) underflows to 0
        assert abs(mu_hat(normalize(gaussian_modification(1, 1.0)), xi)) < 1e-14
        ref = fresnel_fractional_mu(xi)
        assert abs(mu_hat(fractional(1, 0.5), xi) - ref) < 1e-14 * ref

    def test_split_segment_keeps_the_accuracy(self):
        # at xi = 200 the segment (1/(4 xi), 1] has 799 panels, more than the
        # MU_HAT_BLOCK // PANEL_NODES = 512 of one block, so it is split; the
        # value stays 2e-16 (relative) from the closed form, as at xi = 50
        xi = 200.0
        assert 4 * xi > MU_HAT_BLOCK // PANEL_NODES
        ref = fresnel_fractional_mu(xi)
        assert abs(mu_hat(fractional(1, 0.5), xi) - ref) < 1e-14 * ref

    def test_memory_stays_bounded_at_high_frequency(self):
        # 4 xi R = 2.8e5 panels of 16 nodes: held at once they took about
        # 0.5 GB; in blocks of MU_HAT_BLOCK nodes the peak is about 3.6 MB
        w = normalize(gaussian_modification(1, 1.0))
        tracemalloc.start()
        try:
            mu_hat(w, 1e4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6

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
        # enough frequencies that the batched quadrature spans several
        # bessel_j calls of MU_HAT_BLOCK nodes
        xi = np.concatenate([[0.0], np.linspace(0.05, 60.0, 37), [0.0, 3.0]])
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
        fam = annulus_family()
        for eps in (0.2, 0.05, 0.0125):
            assert abs(fam(eps).mass - 1.0) < 1e-13

    def test_family_tails_vanish(self):
        fam = annulus_family()
        for delta in (0.1, 0.02):
            tails = [tail(fam(eps), delta) for eps in (0.2, 0.04, 0.008)]
            assert tails[-1] == 0.0
            assert all(b <= a + 1e-12 for a, b in zip(tails, tails[1:]))

    def test_rescaled_bump_family(self):
        fam = rescaled_family(bump(1, 0.3))
        for eps in (0.5, 0.1):
            member = fam(eps)
            assert abs(member.mass - 1.0) < 1e-10
            assert abs(truncation_radius(member) - 0.3 * eps) < 1e-15

    def test_family_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            rescaled_family(bump(1))(0.0)


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
        for n, bound in FRACTIONAL_MIN_S.items():
            with pytest.raises(ValueError, match=f"s = {bound - 0.001:g} .* n = {n}"):
                WEIGHT_PRESETS["fractional"](n=n, s=bound - 0.001)
        with pytest.raises(ValueError, match="n = 4"):
            fractional(4, 0.5)

    def test_annulus_positive_eps(self):
        with pytest.raises(ValueError):
            annulus(-0.1)
