"""Acceptance gate: twelve numbered criteria, each printing one PASS/FAIL
line (run with -s to see every line; captured output also shows on failure).

Every tolerance and runtime budget is asserted as stated, never loosened to
the implementation's measured behaviour.
"""

import time
from math import log, pi, sqrt

import numpy as np
from scipy.special import sici

from nlops.bessel import ball_transform, bessel_j
from nlops.fields import (
    apply_local,
    apply_radial_direct,
    apply_radial_spectral,
    apply_spherical_direct,
    apply_spherical_spectral,
    kernel_check_torus,
    kernel_witness,
    localization_table,
    lp_norm,
    random_trig_field,
    TorusField,
)
from nlops.measures import (
    area_convergence_table,
    area_integrand,
    area_vs_l1,
    dirac,
    gauss_green_check,
    heaviside_bv,
    linf_gap,
    radial_of_measure,
    scenario_atom_spread,
    scenario_smooth_localization,
    sign_measure,
    trig_bv,
)
from nlops.operators import cancellation_residual, preset, scalar_derivative
from nlops.weights import (
    annulus,
    bump,
    fractional,
    gaussian_modification,
    mu_hat,
    mu_hat_highprec,
    mu_hat_scan,
    normalize,
    positivity_scan,
)

D1 = scalar_derivative()


def emit(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}")


def test_criterion_01_cancellation():
    t0 = time.perf_counter()
    cases = [(name, n) for name in ("gradient", "divergence", "sym-grad") for n in (1, 2, 3)]
    cases += [("curl", 3), ("derivative", 1)]
    worst = max(cancellation_residual(preset(name, n), quad_order=64) for name, n in cases)
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 1.0
    emit(1, ok, f"cancellation residual {worst:.2e} over {len(cases)} preset/dimension pairs ({dt:.2f} s)")
    assert worst < 1e-10
    assert dt < 1.0


def test_criterion_02_bessel_half_order():
    t0 = time.perf_counter()
    t = np.arange(0.1, 50.0 + 0.005, 0.01)
    worst = float(np.max(np.abs(bessel_j(0.5, t) - np.sqrt(2.0 / (pi * t)) * np.sin(t))))
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and dt < 1.0
    emit(2, ok, f"half-order closed form deviation {worst:.2e} on [0.1, 50] ({dt:.2f} s)")
    assert worst < 1e-9
    assert dt < 1.0


def test_criterion_03_ball_transform():
    t0 = time.perf_counter()
    at_zero = max(
        abs(ball_transform(n, r, 0.0) - 1.0) for n in (1, 2, 3) for r in (0.1, 1.0, 2.5)
    )
    xi = np.linspace(0.0, 20.0, 2001)
    sinc_dev = max(
        float(np.max(np.abs(ball_transform(1, r, xi) - np.sinc(2.0 * r * xi))))
        for r in (0.3, 1.0)
    )
    dt = time.perf_counter() - t0
    ok = at_zero < 1e-12 and sinc_dev < 1e-10 and dt < 1.0
    emit(3, ok, f"normalization at 0 {at_zero:.2e}, 1D sinc identity {sinc_dev:.2e} ({dt:.2f} s)")
    assert at_zero < 1e-12
    assert sinc_dev < 1e-10
    assert dt < 1.0


def test_criterion_04_dual_route_agreement():
    # differences are scaled by the a-priori output size (||A u||_2 times the
    # weight mass for the radial route): output-normalized ratios divide
    # roundoff by roundoff whenever the multiplier annihilates the active
    # spectrum, e.g. a tight gaussian acting on a field without low modes
    t0 = time.perf_counter()
    setups = [
        (1, D1, 64, (annulus(0.1), normalize(gaussian_modification(1, 0.5)))),
        (2, preset("gradient", 2), 64, (normalize(bump(2)),)),
    ]
    worst_sph = 0.0
    worst_rad = 0.0
    for n, op, N, ws in setups:
        rng = np.random.default_rng(40 + n)
        caches = [{} for _ in ws]
        for _ in range(10):
            u = random_trig_field(n, N, op.dim_v, rng, max_degree=3)
            scale = lp_norm(apply_local(op, u), 2)
            for s in (0.3, 0.1):
                diff = TorusField(
                    n=n,
                    N=N,
                    values=apply_spherical_spectral(op, u, s).values
                    - apply_spherical_direct(op, u, s).values,
                )
                worst_sph = max(worst_sph, lp_norm(diff, 2) / scale)
            for w, cache in zip(ws, caches):
                diff = TorusField(
                    n=n,
                    N=N,
                    values=apply_radial_spectral(op, u, w, cache).values
                    - apply_radial_direct(op, u, w).values,
                )
                worst_rad = max(worst_rad, lp_norm(diff, 2) / (w.mass * scale))
    dt = time.perf_counter() - t0
    ok = worst_sph < 1e-6 and worst_rad < 1e-4 and dt < 30.0
    emit(4, ok, f"spherical routes differ by {worst_sph:.2e}, radial routes by {worst_rad:.2e} ({dt:.1f} s)")
    assert worst_sph < 1e-6
    assert worst_rad < 1e-4
    assert dt < 30.0


def test_criterion_05_norm_bounds():
    t0 = time.perf_counter()
    slack = 1.0 + 1e-8
    worst_sph = -np.inf
    worst_rad = -np.inf
    for n, op, N in ((1, D1, 64), (2, preset("gradient", 2), 32)):
        rng = np.random.default_rng(50 + n)
        weights = (gaussian_modification(n, 1.0), bump(n))
        caches = [{} for _ in weights]
        for _ in range(50):
            u = random_trig_field(n, N, op.dim_v, rng, max_degree=3)
            base = apply_local(op, u)
            norms = {p: lp_norm(base, p) for p in (1, 2, np.inf)}
            for s in (0.3, 0.1):
                avg = apply_spherical_spectral(op, u, s)
                for p in (1, 2, np.inf):
                    ratio = lp_norm(avg, p) / norms[p]
                    worst_sph = max(worst_sph, ratio)
                    assert ratio <= slack
            for w, cache in zip(weights, caches):
                out = apply_radial_spectral(op, u, w, cache)
                for p in (1, 2, np.inf):
                    ratio = lp_norm(out, p) / (w.mass * norms[p])
                    worst_rad = max(worst_rad, ratio)
                    assert ratio <= slack
    dt = time.perf_counter() - t0
    ok = dt < 60.0
    emit(
        5,
        ok,
        f"sphere-scale ratio <= {worst_sph:.6f}, weighted-radial ratio <= {worst_rad:.6f} "
        f"(bound 1+1e-8, 100 fields, {dt:.1f} s)",
    )
    assert dt < 60.0


def test_criterion_06_localization_rate():
    # The annulus error is (7/18) eps^2 ||u'''||_2 (1 + O(eps^2)) (see
    # localization_table), so the halving ratio tends to 1/4 from above.  The
    # bracket is 1/4 +- 20 %; a linear rate (ratio 1/2) fails it.
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    u = random_trig_field(1, 64, 1, rng, max_degree=2)
    eps_list = [0.2, 0.1, 0.05, 0.025]
    table = localization_table(D1, [u], annulus, 2, eps_list)
    errs = {eps: err for eps, err in table}
    ratio = errs[0.025] / errs[0.05]
    w = annulus(0.01)
    norm_ratio = lp_norm(apply_radial_spectral(D1, u, w), 2) / lp_norm(apply_local(D1, u), 2)
    dt = time.perf_counter() - t0
    # independent route: Parseval over the field's nonzero Fourier modes with
    # the sine-integral multiplier, never through mu_hat
    uhat = np.fft.fft(u.values[:, 0]) / u.N
    m = np.fft.fftfreq(u.N, 1.0 / u.N)
    m, uhat = m[m != 0], uhat[m != 0]
    closed_dev = 0.0
    for eps in eps_list:
        z = 2.0 * pi * eps * np.abs(m)
        mu = (sici(2.0 * z)[0] - sici(z)[0]) / z
        ref = sqrt(float(np.sum(np.abs((mu - 1.0) * 2j * pi * m * uhat) ** 2)))
        closed_dev = max(closed_dev, abs(errs[eps] - ref) / ref)
    ratio_ok = 0.2 <= ratio <= 0.3
    closed_ok = closed_dev <= 1e-12
    norm_ok = abs(norm_ratio - 1.0) <= 0.01
    ok = ratio_ok and closed_ok and norm_ok and dt < 10.0
    emit(
        6,
        ok,
        f"error halving ratio {ratio:.6f} vs required [0.2, 0.3] (quadratic rate 1/4 of the "
        f"even annulus profile), sine-integral closed form deviation {closed_dev:.2e}, "
        f"norm recovery |ratio-1| = {abs(norm_ratio - 1.0):.2e} ({dt:.1f} s)",
    )
    assert norm_ok
    assert dt < 10.0
    assert ratio_ok
    assert closed_ok


def test_criterion_07_kernel_witness():
    t0 = time.perf_counter()
    rep = kernel_witness(D1, 0.5, (1,), (1.0,))
    scan = kernel_check_torus(D1, 1.0, max_degree=4)
    flags = set(map(tuple, scan.m[scan.flag == "zero"].tolist()))
    dt = time.perf_counter() - t0
    witness_ok = rep.sup_spherical < 1e-10 and abs(rep.sup_local - 2 * pi) < 1e-6
    scan_ok = flags == {(m,) for m in range(-4, 5) if m}
    ok = witness_ok and scan_ok and dt < 1.0
    emit(
        7,
        ok,
        f"witness sup|A_s u| = {rep.sup_spherical:.2e}, sup|A u| - 2 pi = "
        f"{rep.sup_local - 2 * pi:.2e}, unit-scale scan flags {len(flags)} frequencies ({dt:.2f} s)",
    )
    assert witness_ok
    assert scan_ok
    assert dt < 1.0


def test_criterion_08_linf_counterexample():
    t0 = time.perf_counter()
    floor = 1.0 - log(2.0) - 1e-9
    gaps = {eps: linf_gap(eps) for eps in (0.1, 0.01)}
    mu = sign_measure()
    interior_dev = 0.0
    for eps in (0.1, 0.01):
        w = annulus(eps)
        for frac in (-0.75, 0.3, 0.9):
            t = frac * eps
            interior_dev = max(
                interior_dev, abs(radial_of_measure(mu, w, t)[0] - (t / eps) * log(2.0))
            )
    dt = time.perf_counter() - t0
    gap_ok = all(g >= floor for g in gaps.values())
    interior_ok = interior_dev < 1e-8
    ok = gap_ok and interior_ok and dt < 1.0
    emit(
        8,
        ok,
        f"gaps {gaps[0.1]:.6f}, {gaps[0.01]:.6f} vs floor {floor:.7f}; interior closed "
        f"form deviation {interior_dev:.2e} ({dt:.2f} s)",
    )
    assert gap_ok
    assert interior_ok
    assert dt < 1.0


def test_criterion_09_gaussian_multiplier():
    t0 = time.perf_counter()
    kappas = np.arange(0.5, 5.01, 0.5)
    worst_spread = 0.0
    min_positive = np.inf
    for sigma in (0.5, 1.0, 2.0):
        w = normalize(gaussian_modification(1, sigma))
        # angular frequency kappa corresponds to xi = kappa/(2 pi); the
        # reference bell has standard deviation 1/sigma
        ratios = []
        for kappa in kappas:
            got = float(mu_hat_highprec(w, kappa / (2.0 * pi)))
            bell = sigma / sqrt(2.0 * pi) * np.exp(-0.5 * (sigma * kappa) ** 2)
            ratios.append(got / bell)
        spread = (max(ratios) - min(ratios)) / abs(np.mean(ratios))
        worst_spread = max(worst_spread, spread)
        grid = np.linspace(0.05, 6.0 / (2.0 * pi * sigma), 25)
        report = positivity_scan(w, grid)
        min_positive = min(min_positive, report.min_value)
        assert report.verdict == "positivity certificate on grid"
    dt = time.perf_counter() - t0
    ok = worst_spread < 1e-4 and min_positive > 0.0 and dt < 5.0
    emit(
        9,
        ok,
        f"bell-curve ratio spread {worst_spread:.2e} across angular frequencies 0.5..5, "
        f"positivity scan min {min_positive:.2e} ({dt:.1f} s)",
    )
    assert worst_spread < 1e-4
    assert min_positive > 0.0
    assert dt < 5.0


def test_criterion_10_normalization_and_decay():
    t0 = time.perf_counter()
    presets = [
        normalize(fractional(1, 0.5)),
        normalize(gaussian_modification(1, 1.0)),
        annulus(0.1),
        normalize(bump(1)),
    ]
    zero_dev = max(abs(mu_hat(w, 0.0) - 1.0) for w in presets)
    w = normalize(bump(1))
    low, _ = mu_hat_scan(w, np.linspace(1.0, 2.0, 101))
    high, _ = mu_hat_scan(w, np.linspace(50.0, 100.0, 201))
    low_max = float(np.max(np.abs(low)))
    high_max = float(np.max(np.abs(high)))
    dt = time.perf_counter() - t0
    ok = zero_dev < 1e-8 and high_max < low_max and dt < 5.0
    emit(
        10,
        ok,
        f"normalization |mu(0)-1| <= {zero_dev:.2e} over 4 presets; bump decay "
        f"{high_max:.3e} on [50,100] vs {low_max:.3e} on [1,2] ({dt:.1f} s)",
    )
    assert zero_dev < 1e-8
    assert high_max < low_max
    assert dt < 5.0


def test_criterion_11_area_localization():
    t0 = time.perf_counter()
    mu = dirac((-1.0, 1.0), 0.0, 1.0)
    rows = area_convergence_table(mu, area_integrand(), [0.1, 0.05, 0.025], cells=800)
    closed_dev = max(
        abs(val - (sqrt(4.0 * s**2 + 1.0) + 2.0 - 2.0 * s)) for s, val, _ in rows
    )
    gaps = [gap for _, _, gap in rows]
    monotone = gaps[2] < gaps[1] < gaps[0]
    smooth = area_vs_l1(*scenario_smooth_localization())
    spread = area_vs_l1(*scenario_atom_spread())
    dt = time.perf_counter() - t0
    verdicts_ok = smooth["verdict"] == "PASS" and spread["verdict"] == "PASS"
    ok = closed_dev < 1e-10 and monotone and verdicts_ok and dt < 5.0
    emit(
        11,
        ok,
        f"atom closed form deviation {closed_dev:.2e}, gaps {gaps[0]:.4f} > {gaps[1]:.4f} > "
        f"{gaps[2]:.4f}, scenario verdicts {smooth['verdict']}/{spread['verdict']} ({dt:.1f} s)",
    )
    assert closed_dev < 1e-10
    assert monotone
    assert verdicts_ok
    assert dt < 5.0


def test_criterion_12_gauss_green():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    worst = {"jump": 0.0, "smooth": 0.0}
    for label, u in (("jump", heaviside_bv()), ("smooth", trig_bv())):
        done = 0
        while done < 100:
            x = float(rng.uniform(-0.5, 0.5))
            s = float(rng.uniform(0.05, 0.45))
            if any(abs(t - (x - s)) < 1e-6 or abs(t - (x + s)) < 1e-6 for t in u.breakpoints()):
                continue
            worst[label] = max(worst[label], gauss_green_check(u, s, x))
            done += 1
    dt = time.perf_counter() - t0
    ok = worst["jump"] < 1e-10 and worst["smooth"] < 1e-8 and dt < 1.0
    emit(
        12,
        ok,
        f"interval form of the fundamental theorem: jump residual {worst['jump']:.2e}, "
        f"smooth residual {worst['smooth']:.2e} over 100 pairs each ({dt:.2f} s)",
    )
    assert worst["jump"] < 1e-10
    assert worst["smooth"] < 1e-8
    assert dt < 1.0
