"""Torus transforms: the pointwise operator, its sphere-scale average, and
weighted radial averages, cross-checked between multiplier and quadrature
routes and against closed forms."""

from math import pi, sin, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlops.bessel import ball_transform, bessel_j
from nlops.fields import (
    DIRECT_BLOCK,
    SPECTRUM_FLOOR,
    TorusField,
    _direct_symbol,
    _grid,
    _shell_multipliers,
    apply_local,
    apply_radial_direct,
    apply_radial_spectral,
    apply_spherical_direct,
    apply_spherical_spectral,
    coordinates,
    frequency_grid,
    kernel_check_torus,
    kernel_witness,
    localization_table,
    lp_norm,
    random_trig_field,
    trig_field_from_coeffs,
)
from nlops.operators import (
    FirstOrderOperator,
    adjoint,
    curl3,
    divergence,
    gradient,
    scalar_derivative,
    sym_grad,
    wave_rank,
)
from nlops.quadrature import sphere_quadrature, sphere_surface
from nlops.weights import (
    annulus,
    annulus_family,
    bump,
    gaussian_modification,
    mu_hat,
    normalize,
    superposition_measure,
)

D1 = scalar_derivative()


def sine_field(N=64, m=1, amp=1.0):
    """amp * sin(2 pi m x) on the 1D torus."""
    return trig_field_from_coeffs(1, N, 1, [((m,), (-0.5j * amp,))])


def rel_l2(a: TorusField, b: TorusField) -> float:
    diff = TorusField(n=a.n, N=a.N, values=a.values - b.values)
    return lp_norm(diff, 2) / max(lp_norm(b, 2), 1e-300)


#: Grid size and a sphere order that resolves 2 pi R |m|max for every radius
#: R up to 0.75, per dimension, for white-noise fields: their Nyquist rows,
#: which every route drops, carry as much spectrum as any other row.
WHITE_NOISE = {2: (16, 64), 3: (4, 16)}


def white_noise(n, dim_v, rng):
    """A standard normal field on the white-noise grid of dimension n, and its sphere order."""
    N, order = WHITE_NOISE[n]
    return TorusField(n=n, N=N, values=rng.standard_normal((N,) * n + (dim_v,))), order


class TestLocal:
    def test_derivative_of_sine_exact(self):
        u = sine_field()
        x = coordinates(1, 64)[..., 0]
        got = apply_local(D1, u).values[..., 0]
        assert np.max(np.abs(got - 2 * pi * np.cos(2 * pi * x))) < 1e-12

    def test_gradient_of_plane_wave(self):
        N, m = 32, (2, -1)
        u = trig_field_from_coeffs(2, N, 1, [(m, (-0.5j,))])
        x = coordinates(2, N)
        phase = 2 * pi * (m[0] * x[..., 0] + m[1] * x[..., 1])
        got = apply_local(gradient(2), u).values
        want = 2 * pi * np.cos(phase)[..., None] * np.array(m, float)
        assert np.max(np.abs(got - want)) < 1e-11

    def test_constant_annihilated(self):
        u = TorusField(n=2, N=16, values=np.full((16, 16, 1), 3.7))
        assert lp_norm(apply_local(gradient(2), u), np.inf) == 0.0

    def test_nyquist_row_dropped(self):
        # the alternating-sign grid function lives entirely on the Nyquist
        # row, where the derivative has no well-defined sign
        vals = np.cumprod(np.full(16, -1.0))[:, None]
        u = TorusField(n=1, N=16, values=vals)
        assert lp_norm(apply_local(D1, u), np.inf) == 0.0

    def test_dimension_mismatch_rejected(self):
        u = sine_field(N=16)
        with pytest.raises(ValueError):
            apply_local(gradient(2), u)
        with pytest.raises(ValueError):
            apply_local(divergence(2), TorusField(n=2, N=16, values=np.zeros((16, 16, 1))))


class TestSpherical:
    def test_central_difference_closed_form(self):
        # in 1D the sphere average is the symmetric difference quotient, so
        # sin(2 pi x) maps to cos(2 pi x) sin(2 pi s)/s
        u = sine_field()
        x = coordinates(1, 64)[..., 0]
        for s in (0.3, 0.17):
            got = apply_spherical_spectral(D1, u, s).values[..., 0]
            want = np.cos(2 * pi * x) * sin(2 * pi * s) / s
            assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize(
        "op,n,N,order",
        [
            (scalar_derivative(), 1, 64, 64),
            (gradient(2), 2, 32, 64),
            (divergence(2), 2, 32, 64),
            (curl3(), 3, 16, 32),
        ],
    )
    def test_spectral_matches_direct(self, op, n, N, order):
        rng = np.random.default_rng(7 * n + N)
        cases = [(random_trig_field(n, N, op.dim_v, rng, max_degree=3), order) for _ in range(3)]
        if n in WHITE_NOISE:
            cases.append(white_noise(n, op.dim_v, rng))
        for u, quad_order in cases:
            for s in (0.3, 0.1):
                a = apply_spherical_spectral(op, u, s)
                b = apply_spherical_direct(op, u, s, quad_order=quad_order)
                assert rel_l2(a, b) < 1e-10

    def test_equals_ball_averaged_local(self):
        # the sphere-scale operator is the solid-ball average of the local
        # one; compose the local route with the ball multiplier and compare
        op, n, N, s = gradient(2), 2, 32, 0.25
        u = random_trig_field(n, N, 1, np.random.default_rng(3))
        norms = np.sqrt(np.sum(frequency_grid(n, N).astype(float) ** 2, axis=-1))
        table = ball_transform(n, s, norms.ravel()).reshape(norms.shape)
        local_hat = np.fft.fftn(apply_local(op, u).values, axes=(0, 1))
        averaged = TorusField(n=n, N=N, values=np.fft.ifftn(local_hat * table[..., None], axes=(0, 1)).real)
        assert rel_l2(apply_spherical_spectral(op, u, s), averaged) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("spectrum", ["dense", "sparse"])
    def test_one_ball_transform_call_on_present_shells(self, n, spectrum, monkeypatch):
        # the route damps only the shells that carry spectrum, in one call,
        # and matches damping the whole grid
        op, N, _ = TestRadial.CASES[n]
        s = 0.15
        rng = np.random.default_rng(50 + n)
        if spectrum == "dense":
            u = TorusField(n=n, N=N, values=rng.standard_normal((N,) * n + (op.dim_v,)))
        else:
            u = random_trig_field(n, N, op.dim_v, rng, max_degree=3)
        calls = []

        def counted(dim, r, xi):
            calls.append(np.array(xi))
            return ball_transform(dim, r, xi)

        monkeypatch.setattr("nlops.fields.ball_transform", counted)
        got = apply_spherical_spectral(op, u, s)
        loc = reference_local_hat(op, u)
        mag = np.max(np.abs(loc), axis=-1)
        norms = np.sqrt(np.sum(frequency_grid(n, N).astype(float) ** 2, axis=-1))
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.unique(norms[mag > 1e-9 * np.max(mag)]))
        damp = ball_transform(n, s, norms.ravel()).reshape(norms.shape)
        want = np.fft.ifftn(loc * damp[..., None], axes=tuple(range(n))).real
        scale = lp_norm(apply_local(op, u), np.inf)
        assert np.max(np.abs(got.values - want)) <= 1e-15 * scale

    def test_norm_contraction(self):
        rng = np.random.default_rng(11)
        for n, op in ((1, D1), (2, gradient(2))):
            for k in range(5):
                u = random_trig_field(n, 32 if n == 2 else 64, op.dim_v, rng, max_degree=2)
                base = apply_local(op, u)
                for s in (0.3, 0.1):
                    avg = apply_spherical_spectral(op, u, s)
                    for p in (1, 2, np.inf):
                        assert lp_norm(avg, p) <= (1 + 1e-8) * lp_norm(base, p)

    def test_jensen_for_convex_integrands(self):
        # averaging against a probability measure can only shrink the mean
        # of a convex function of the field
        gs = (np.abs, np.square, lambda t: np.sqrt(1.0 + t**2) - 1.0)
        rng = np.random.default_rng(23)
        u = random_trig_field(2, 32, 1, rng, max_degree=2)
        base = np.sqrt(np.sum(apply_local(gradient(2), u).values ** 2, axis=-1))
        for s in (0.3, 0.1):
            avg = np.sqrt(np.sum(apply_spherical_spectral(gradient(2), u, s).values ** 2, axis=-1))
            for g in gs:
                assert np.mean(g(avg)) <= np.mean(g(base)) + 1e-12

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            apply_spherical_spectral(D1, sine_field(N=16), 0.0)
        with pytest.raises(ValueError):
            apply_spherical_direct(D1, sine_field(N=16), -0.2)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_l2_contraction_random(self, seed):
        u = random_trig_field(1, 32, 1, np.random.default_rng(seed), max_degree=4)
        base = apply_local(D1, u)
        avg = apply_spherical_spectral(D1, u, 0.2)
        assert lp_norm(avg, 2) <= (1 + 1e-8) * lp_norm(base, 2)


class TestRadial:
    WEIGHTS = [
        (1, annulus(0.1)),
        (1, normalize(gaussian_modification(1, 0.5))),
        (1, normalize(bump(1))),
        (2, normalize(bump(2))),
        (3, normalize(gaussian_modification(3, 0.1))),
    ]

    #: operator, grid size and sphere quadrature order per dimension
    CASES = {1: (D1, 32, 64), 2: (gradient(2), 32, 64), 3: (curl3(), 16, 32)}

    @pytest.mark.parametrize("n,w", WEIGHTS, ids=lambda v: getattr(v, "name", str(v)))
    def test_spectral_matches_direct(self, n, w):
        # scale differences by mass * ||A u||: a strongly damping weight can
        # send the output itself to roundoff level
        op, N, order = self.CASES[n]
        rng = np.random.default_rng(101 + n)
        cache = {}
        for _ in range(3):
            u = random_trig_field(n, N, op.dim_v, rng, max_degree=3)
            a = apply_radial_spectral(op, u, w, cache)
            b = apply_radial_direct(op, u, w, order)
            diff = TorusField(n=n, N=N, values=a.values - b.values)
            scale = w.mass * lp_norm(apply_local(op, u), 2)
            assert lp_norm(diff, 2) < 1e-4 * scale

    @pytest.mark.parametrize(
        "n,w",
        [(n, normalize(gaussian_modification(n, sigma))) for n, sigma in ((1, 0.5), (2, 0.05), (3, 0.1))],
        ids=lambda v: getattr(v, "name", str(v)),
    )
    def test_routes_agree_to_rounding_on_an_unbounded_weight(self, n, w):
        # both routes cut the Gaussian at TAIL_CUTOFF, so they integrate the
        # same weight; cut at two radii they differed by 1e-10 to 1.2e-9
        op, N, order = self.CASES[n]
        rng = np.random.default_rng(101 + n)
        cache = {}
        cases = [(random_trig_field(n, N, op.dim_v, rng, max_degree=3), order) for _ in range(3)]
        if n in WHITE_NOISE:
            cases.append(white_noise(n, op.dim_v, rng))
        for u, quad_order in cases:
            a = apply_radial_spectral(op, u, w, cache)
            b = apply_radial_direct(op, u, w, quad_order)
            diff = TorusField(n=n, N=u.N, values=a.values - b.values)
            assert lp_norm(diff, 2) <= 1e-13 * w.mass * lp_norm(apply_local(op, u), 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_direct_routes_skip_the_multipliers(self, n, monkeypatch):
        # the direct routes are independent checks on the spectral routes,
        # so they must never reach the closed-form multipliers
        def forbidden(*args, **kwargs):
            raise AssertionError("direct route reached a closed-form multiplier")

        monkeypatch.setattr("nlops.fields.ball_transform", forbidden)
        monkeypatch.setattr("nlops.fields.mu_hat", forbidden)
        op, N, order = self.CASES[n]
        u = random_trig_field(n, N, op.dim_v, np.random.default_rng(n), max_degree=2)
        w = normalize(bump(n))
        assert lp_norm(apply_spherical_direct(op, u, 0.2, order), 2) > 0.0
        assert lp_norm(apply_radial_direct(op, u, w, order), 2) > 0.0
        with pytest.raises(AssertionError):
            apply_spherical_spectral(op, u, 0.2)
        with pytest.raises(AssertionError):
            apply_radial_spectral(op, u, w)

    def test_mu_cache_is_honored(self):
        # poisoning the cached table must change the output, proving the
        # cache is read rather than recomputed
        u = sine_field(N=32)
        w = annulus(0.1)
        cache = {}
        first = apply_radial_spectral(D1, u, w, cache)
        assert list(cache) == [32]
        poisoned = {N: np.zeros_like(table) for N, table in cache.items()}
        second = apply_radial_spectral(D1, u, w, poisoned)
        assert lp_norm(first, np.inf) > 1.0
        assert lp_norm(second, np.inf) == 0.0

    def test_single_mode_matches_multiplier_value(self):
        u = sine_field(N=64)
        w = annulus(0.05)
        got = apply_radial_spectral(D1, u, w)
        x = coordinates(1, 64)[..., 0]
        want = 2 * pi * mu_hat(w, 1.0) * np.cos(2 * pi * x)
        assert np.max(np.abs(got.values[..., 0] - want)) < 1e-12

    def test_norm_bound_with_weight_mass(self):
        rng = np.random.default_rng(19)
        w = gaussian_modification(1, 0.5)
        bound = w.mass
        for _ in range(5):
            u = random_trig_field(1, 64, 1, rng, max_degree=2)
            base = apply_local(D1, u)
            out = apply_radial_spectral(D1, u, w)
            for p in (1, 2, np.inf):
                assert lp_norm(out, p) <= (1 + 1e-8) * bound * lp_norm(base, p)

    def test_weight_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_radial_spectral(D1, sine_field(N=16), normalize(bump(2)))


def complex_direct_symbol(m, radii, rweights, quad_order):
    """The direct symbol as first written: K(m) / (2 pi i) in complex
    arithmetic, with the cosines and the constant term, summed over the
    radii in the blocks of ``_direct_symbol``; ``m`` must fit one block of
    modes."""
    n = m.shape[-1]
    nodes, wq = sphere_quadrature(n, quad_order)
    proj, scaled = m @ nodes.T, rweights / radii
    assert len(m) <= DIRECT_BLOCK // len(nodes)
    step = max(1, DIRECT_BLOCK // proj.size)
    acc = np.full(proj.shape, -np.sum(scaled), dtype=complex)
    for k0 in range(0, radii.size, step):
        phase = np.exp(2j * pi * np.multiply.outer(radii[k0 : k0 + step], proj))
        acc += np.tensordot(scaled[k0 : k0 + step], phase, axes=1)
    return (acc * wq) @ nodes * (n / (2j * pi * sphere_surface(n)))


class TestDirectSymbol:
    """The direct routes' symbol is real and odd on every sphere rule, like
    m, G_s(|m|) m and mu_hat(|m|) m."""

    @staticmethod
    def modes_and_measure(n, count):
        m = np.random.default_rng(n).integers(-20, 21, size=(count, n)).astype(float)
        return m, superposition_measure(normalize(bump(n, 0.3)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("order", [7, 8, 32, 65])
    def test_real_and_odd_bit_for_bit(self, n, order):
        # the n = 2 trapezoid rule at an odd order has no antipodal pairs
        m, (radii, rweights) = self.modes_and_measure(n, 40 if n < 3 else 6)
        sym = _direct_symbol(m, radii, rweights, order)
        assert sym.dtype == np.float64 and sym.shape == m.shape
        assert np.array_equal(_direct_symbol(-m, radii, rweights, order), -sym)

    @pytest.mark.parametrize("n,order", [(1, 7), (1, 8), (2, 8), (2, 32), (3, 7), (3, 8), (3, 32)])
    def test_centrally_symmetric_rules_keep_the_complex_value(self, n, order):
        # antipodal nodes cancel the cosines and the constant, so there the
        # complex symbol is the real one up to rounding
        m, (radii, rweights) = self.modes_and_measure(n, 40 if n < 3 else 4)
        want = complex_direct_symbol(m, radii, rweights, order)
        sym = _direct_symbol(m, radii, rweights, order)
        assert np.max(np.abs(sym - want.real)) <= 1e-15 * np.max(np.abs(want.real))

    def test_odd_order_routes_meet_the_spectral_routes(self):
        # an odd trapezoid count aliases an odd integrand only at twice its
        # count, so order 15 resolves this field; the complex symbol's even
        # part left 2.7e-6 (sphere) and 8.4e-5 (radial)
        op, s, w = gradient(2), 0.15, normalize(bump(2, 0.3))
        u = random_trig_field(2, 32, 1, np.random.default_rng(3), max_degree=4)
        for spectral, direct in (
            (apply_spherical_spectral(op, u, s), apply_spherical_direct(op, u, s, 15)),
            (apply_radial_spectral(op, u, w), apply_radial_direct(op, u, w, 15)),
        ):
            assert np.max(np.abs(direct.values - spectral.values)) <= 1e-13 * np.max(np.abs(spectral.values))


class TestShellTable:
    """How apply_radial_spectral fills its multiplier table: one Chebyshev
    interpolant on dense spectra, one mu_hat call on all shells of sparse
    ones."""

    @staticmethod
    def filled(table, n, N):
        """The shells of the N^n grid that ``table`` holds, and their values."""
        known = ~np.isnan(table[N])
        return _grid(n, N).shells[known], table[N][known]

    @staticmethod
    def counting_mu_hat(monkeypatch):
        calls = []

        def counted(w, xi):
            calls.append(xi)
            return mu_hat(w, xi)

        monkeypatch.setattr("nlops.fields.mu_hat", counted)
        return calls

    @pytest.mark.parametrize(
        "w",
        [normalize(bump(2, 0.3)), normalize(gaussian_modification(2, 0.1))],
        ids=lambda w: w.name,
    )
    def test_dense_spectrum_uses_the_interpolant(self, w, monkeypatch):
        calls = self.counting_mu_hat(monkeypatch)
        rng = np.random.default_rng(31)
        u = TorusField(n=2, N=64, values=rng.standard_normal((64, 64, 1)))
        table = {}
        apply_radial_spectral(gradient(2), u, w, table)
        shells, values = self.filled(table, 2, 64)
        assert len(calls) < shells.size
        assert np.max(np.abs(values - mu_hat(w, shells))) <= 1e-13

    def test_sparse_spectrum_makes_one_mu_hat_call(self, monkeypatch):
        calls = self.counting_mu_hat(monkeypatch)
        w = normalize(bump(2))
        u = random_trig_field(2, 32, 1, np.random.default_rng(8), max_degree=3, num_terms=6)
        table = {}
        apply_radial_spectral(gradient(2), u, w, table)
        shells, values = self.filled(table, 2, 32)
        assert len(calls) == 1 and np.array_equal(calls[0], shells)
        assert np.array_equal(values, mu_hat(w, shells))

    def test_unresolved_interpolant_falls_back_to_one_call(self, monkeypatch):
        # no Chebyshev tail meets a zero chop, so every degree the size rule
        # allows is tried and discarded before one call on all the shells
        monkeypatch.setattr("nlops.fields.CHEB_CHOP", 0.0)
        calls = self.counting_mu_hat(monkeypatch)
        w = normalize(bump(2, 0.3))
        rng = np.random.default_rng(32)
        u = TorusField(n=2, N=64, values=rng.standard_normal((64, 64, 1)))
        table = {}
        apply_radial_spectral(gradient(2), u, w, table)
        shells, values = self.filled(table, 2, 64)
        assert shells.size < sum(np.size(xi) for xi in calls) < 1.5 * shells.size
        assert np.array_equal(calls[-1], shells)
        assert np.array_equal(values, mu_hat(w, shells))

    def test_table_holds_one_array_per_grid_size(self):
        # N -> the multiplier over _grid(n, N).shells, NaN exactly at the
        # shells that never carried spectrum; a second grid size adds a key
        # and leaves the first table in place
        w = normalize(bump(2))
        u = trig_field_from_coeffs(2, 32, 1, [((1, 2), (1.0,)), ((3, 0), (0.5j,)), ((2, -1), (2.0,))])
        table = {}
        apply_radial_spectral(gradient(2), u, w, table)
        shells = _grid(2, 32).shells
        assert list(table) == [32] and table[32].shape == shells.shape
        assert np.array_equal(~np.isnan(table[32]), np.isin(shells, [sqrt(5.0), 3.0]))
        first = table[32]
        apply_radial_spectral(gradient(2), trig_field_from_coeffs(2, 16, 1, [((1, 1), (1.0,))]), w, table)
        assert list(table) == [32, 16] and table[16].shape == _grid(2, 16).shells.shape
        assert table[32] is first
        assert np.array_equal(~np.isnan(table[16]), _grid(2, 16).shells == sqrt(2.0))

    @pytest.mark.parametrize(
        "w",
        [normalize(bump(2, 0.3)), normalize(gaussian_modification(2, 0.1))],
        ids=lambda w: w.name,
    )
    def test_dense_fill_calls_mu_hat_once_per_degree(self, w, monkeypatch):
        sizes = []

        def counted(w, xi):
            assert np.ndim(xi) == 1
            sizes.append(np.size(xi))
            return mu_hat(w, xi)

        monkeypatch.setattr("nlops.fields.mu_hat", counted)
        rng = np.random.default_rng(31)
        u = TorusField(n=2, N=64, values=rng.standard_normal((64, 64, 1)))
        apply_radial_spectral(gradient(2), u, w, {})
        # degree 16 takes its 17 nodes, each doubling only the new ones
        assert sizes == [17] + [16 * 2**k for k in range(len(sizes) - 1)]
        accepted = 16 * 2 ** (len(sizes) - 1)
        assert sum(sizes) == accepted + 1


def reference_contract(op, uhat, k):
    """2 pi i sum_i k_i (uhat A_i^T), one term at a time."""
    out = np.zeros(uhat.shape[:-1] + (op.dim_w,), dtype=complex)
    for i, a in enumerate(op.coeffs):
        out += k[..., i : i + 1] * (uhat @ a.T)
    out *= 2j * pi
    return out


def half_frequency_grid(n, N):
    """The integer frequencies of the real FFT's half spectrum: ``fftfreq``
    on every axis but the last, ``rfftfreq`` (0..N/2) on the last."""
    freqs = [np.fft.fftfreq(N, d=1.0 / N)] * (n - 1) + [np.fft.rfftfreq(N, d=1.0 / N)]
    return np.stack(np.meshgrid(*freqs, indexing="ij"), axis=-1).astype(int)


def reference_local_hat(op, u, half=False):
    """The local spectrum as computed before the grid facts were cached:
    the integer frequency grid and the Nyquist mask rebuilt on every call.
    The full complex FFT by default; ``half`` takes the real FFT's half
    spectrum."""
    axes = tuple(range(u.n))
    if half:
        uhat, m = np.fft.rfftn(u.values, axes=axes), half_frequency_grid(u.n, u.N)
    else:
        uhat, m = np.fft.fftn(u.values, axes=axes), frequency_grid(u.n, u.N)
    out = reference_contract(op, uhat, m)
    out[np.any(np.abs(m) == u.N // 2, axis=-1)] = 0.0
    return out


def reference_route(op, u, kernel=None, multiplier=None, half=False):
    """An averaged route as computed before the grid facts were cached, with
    the hooks of ``fields._apply``.  The full complex FFT (``fftn``, every
    mode, ``ifftn``) by default; ``half`` takes the real FFT's half spectrum
    (``rfftn``, m_n >= 0, ``irfftn``)."""
    axes = tuple(range(u.n))
    m = (half_frequency_grid if half else frequency_grid)(u.n, u.N).astype(float)
    loc = reference_local_hat(op, u, half)
    mag = np.max(np.abs(loc), axis=-1)
    active = mag > SPECTRUM_FLOOR * np.max(mag)
    loc = np.where(active[..., None], loc, 0.0)
    if kernel is not None:
        uhat = np.fft.rfftn(u.values, axes=axes) if half else np.fft.fftn(u.values, axes=axes)
        loc[active] = reference_contract(op, uhat[active], kernel(m[active]))
    if multiplier is not None:
        norms = np.sqrt(np.sum(m**2, axis=-1))
        shells, shell_of = np.unique(norms[active], return_inverse=True)
        damp = np.zeros_like(norms)
        damp[active] = np.asarray(multiplier(shells))[shell_of]
        loc = loc * damp[..., None]
    if half:
        return np.fft.irfftn(loc, s=(u.N,) * u.n, axes=axes)
    return np.fft.ifftn(loc, axes=axes).real


def reference_radial_spectral(op, u, cache, half=False):
    """apply_radial_spectral as computed before the grid facts were cached,
    reading every multiplier from ``cache[u.N]``, filled on every active
    shell; its shells, the distinct |m| of the half grid, are rebuilt here."""
    m = half_frequency_grid(u.n, u.N).astype(float)
    table = dict(zip(np.unique(np.sqrt(np.sum(m**2, axis=-1))), cache[u.N]))
    return reference_route(op, u, multiplier=lambda xis: [table[xi] for xi in xis], half=half)


class TestGridFacts:
    """The cached frequency facts and the fiber-first spectra give
    bit-identical outputs to the same real-FFT pipeline with the half grid
    rebuilt on every call and the spectra kept fiber-last."""

    @staticmethod
    def assert_warm_routes_match(op, N, spectrum, rng):
        n = op.n
        w = normalize(bump(n))
        cache = {}
        for _ in range(3):
            if spectrum == "dense":
                u = TorusField(n=n, N=N, values=rng.standard_normal((N,) * n + (op.dim_v,)))
            else:
                u = random_trig_field(n, N, op.dim_v, rng, max_degree=3)
            got = apply_radial_spectral(op, u, w, cache)
            assert np.array_equal(got.values, reference_radial_spectral(op, u, cache, half=True))
            local = np.fft.irfftn(reference_local_hat(op, u, half=True), s=(N,) * n, axes=tuple(range(n)))
            assert np.array_equal(apply_local(op, u).values, local)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("spectrum", ["dense", "sparse"])
    def test_warm_routes_match_per_call_grid_code(self, n, spectrum):
        op, N, _ = TestRadial.CASES[n]
        self.assert_warm_routes_match(op, N, spectrum, np.random.default_rng(40 + n))

    @pytest.mark.parametrize(
        "op",
        [divergence(2), divergence(3), sym_grad(2), gradient(3), D1],
        ids=lambda op: op.name,
    )
    @pytest.mark.parametrize("spectrum", ["dense", "sparse"])
    def test_non_square_fibers_match_per_call_grid_code(self, op, spectrum):
        # dim_v != dim_w (and the 1D scalar fiber): every fiber-first product
        # and transpose must land each component where the fiber-last code does
        N = TestRadial.CASES[op.n][1]
        rng = np.random.default_rng(50 + op.dim_v + op.dim_w)
        self.assert_warm_routes_match(op, N, spectrum, rng)
        # the direct routes contract the spectrum again with their own symbol
        u = TorusField(n=op.n, N=N, values=rng.standard_normal((N,) * op.n + (op.dim_v,)))
        want = reference_route(
            op, u, kernel=lambda m: _direct_symbol(m, np.array([0.15]), np.array([1.0]), 16), half=True
        )
        assert np.array_equal(apply_spherical_direct(op, u, 0.15, 16).values, want)


def every_route(op, u, quad_order):
    """The five torus operators on ``u``, each paired with its full complex-FFT
    reference: name -> (route, reference)."""
    n = u.n
    s, w = 0.15, normalize(bump(n))
    radii, rweights = superposition_measure(w)
    cache = {}
    return {
        "local": (
            lambda: apply_local(op, u),
            lambda: np.fft.ifftn(reference_local_hat(op, u), axes=tuple(range(n))).real,
        ),
        "spherical_spectral": (
            lambda: apply_spherical_spectral(op, u, s),
            lambda: reference_route(op, u, multiplier=lambda xis: ball_transform(n, s, xis)),
        ),
        "spherical_direct": (
            lambda: apply_spherical_direct(op, u, s, quad_order),
            lambda: reference_route(
                op, u, kernel=lambda m: _direct_symbol(m, np.array([s]), np.array([1.0]), quad_order)
            ),
        ),
        "radial_spectral": (
            lambda: apply_radial_spectral(op, u, w, cache),
            lambda: reference_radial_spectral(op, u, cache),
        ),
        "radial_direct": (
            lambda: apply_radial_direct(op, u, w, quad_order),
            lambda: reference_route(op, u, kernel=lambda m: _direct_symbol(m, radii, rweights, quad_order)),
        ),
    }


class TestHalfSpectrum:
    """Every route runs on the real FFT's half spectrum: the output spectrum
    is Hermitian, so the other half adds nothing but a second rounding."""

    #: grid size and sphere order per dimension for white-noise fields
    GRIDS = {1: (32, 64), **WHITE_NOISE}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_route_matches_the_full_complex_fft(self, n):
        op = TestRadial.CASES[n][0]
        N, order = self.GRIDS[n]
        u = TorusField(n=n, N=N, values=np.random.default_rng(60 + n).standard_normal((N,) * n + (op.dim_v,)))
        for name, (route, reference) in every_route(op, u, order).items():
            got = route().values
            want = reference()
            assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want)), name

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_real_fft_each_way_per_application(self, n, monkeypatch):
        op, N, order = TestRadial.CASES[n]
        u = random_trig_field(n, N, op.dim_v, np.random.default_rng(70 + n), max_degree=3)
        calls = []
        for name in ("fftn", "ifftn", "rfftn", "irfftn"):

            def counted(*args, _name=name, _fft=getattr(np.fft, name), **kwargs):
                calls.append(_name)
                return _fft(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        for name, (route, _) in every_route(op, u, order).items():
            calls.clear()
            route()
            assert calls == ["rfftn", "irfftn"], name


class TestFiberFirst:
    """The pipeline holds spectra fiber-first: one 2-D product per
    coefficient matrix over all modes, and TorusField's fiber-last layout
    restored on the way out."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_2d_product_per_coefficient_matrix(self, n, monkeypatch):
        op, N, order = TestRadial.CASES[n]
        u = random_trig_field(n, N, op.dim_v, np.random.default_rng(80 + n), max_degree=3)
        w, cache = normalize(bump(n)), {}
        apply_radial_spectral(op, u, w, cache)
        shapes = []

        def counted(a, b, *args, _matmul=np.matmul, **kwargs):
            shapes.append((np.ndim(a), np.ndim(b)))
            return _matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        apply_radial_spectral(op, u, w, cache)
        assert shapes == [(2, 2)] * n
        for direct in (
            lambda: apply_spherical_direct(op, u, 0.15, order),
            lambda: apply_radial_direct(op, u, w, order),
        ):
            # the local spectrum, then the symbol's spectrum on the active modes
            shapes.clear()
            direct()
            assert shapes == [(2, 2)] * (2 * n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_outputs_keep_the_fiber_last_layout(self, n):
        op, N, order = TestRadial.CASES[n]
        u = random_trig_field(n, N, op.dim_v, np.random.default_rng(90 + n), max_degree=3)
        for name, (route, _) in every_route(op, u, order).items():
            vals = route().values
            assert vals.shape == (N,) * n + (op.dim_w,), name
            assert vals.flags.c_contiguous and not vals.flags.writeable, name


class TestNonFinite:
    """A NaN or inf has no finite spectral peak to prune against; the
    averaged routes reject it instead of pruning every mode to zero."""

    ROUTES = {
        "spherical_spectral": lambda op, u: apply_spherical_spectral(op, u, 0.15),
        "spherical_direct": lambda op, u: apply_spherical_direct(op, u, 0.15, 16),
        "radial_spectral": lambda op, u: apply_radial_spectral(op, u, normalize(bump(2))),
        "radial_direct": lambda op, u: apply_radial_direct(op, u, normalize(bump(2)), 16),
    }

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_averaged_routes_reject_non_finite_fields(self, route, bad):
        values = np.random.default_rng(7).standard_normal((16, 16, 1))
        values[3, 5, 0] = bad
        u = TorusField(n=2, N=16, values=values)
        # the FFT of an infinity meets inf - inf, which numpy reports first
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="field values must be finite"):
            self.ROUTES[route](gradient(2), u)

    def test_local_route_propagates_them(self):
        values = np.zeros((16, 16, 1))
        values[3, 5, 0] = np.nan
        out = apply_local(gradient(2), TorusField(n=2, N=16, values=values))
        assert np.all(np.isnan(out.values))


class TestLocalization:
    def test_annulus_single_mode_frozen(self):
        # with one Fourier mode the table reduces to ||A u||_2 |1 - mu(1)|;
        # values pinned from the sine-integral closed form
        u = sine_field()
        table = localization_table(D1, [u], annulus_family(), 2, [0.05, 0.025])
        amp = 2 * pi / sqrt(2.0)
        assert abs(table[0][1] - amp * 3.788196056994253e-02) < 1e-12
        assert abs(table[1][1] - amp * 9.564047721086988e-03) < 1e-12
        assert abs(table[1][1] / table[0][1] - 0.252469713214252) < 1e-9

    def test_errors_decrease_along_family(self):
        # scales small enough that 2 pi eps |m| stays left of the first
        # oscillation of the annulus multiplier
        rng = np.random.default_rng(5)
        u = random_trig_field(1, 64, 1, rng, max_degree=2)
        table = localization_table(D1, [u], annulus_family(), 2, [0.1, 0.05, 0.025])
        errs = [row[1] for row in table]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_one_weight_and_one_cache_per_eps(self, monkeypatch):
        # the second copy of the field finds every shell in the eps's cache,
        # and the mean of two equal errors is that error
        made, filled = [], []
        family = annulus_family()

        def counted_family(eps):
            made.append(eps)
            return family(eps)

        def counted(w, xis):
            filled.append(xis)
            return _shell_multipliers(w, xis)

        monkeypatch.setattr("nlops.fields._shell_multipliers", counted)
        u = sine_field(N=32)
        table = localization_table(D1, [u, u], counted_family, 2, [0.2, 0.1])
        assert made == [0.2, 0.1]
        assert len(filled) == 2
        assert table == localization_table(D1, [u], family, 2, [0.2, 0.1])


def flagged(scan, flag="zero"):
    """The set of frequencies of a kernel scan whose flag is ``flag``."""
    return set(map(tuple, scan.m[scan.flag == flag].tolist()))


class TestKernelScan:
    def test_unit_scale_flags_all_integer_frequencies(self):
        scan = kernel_check_torus(D1, 1.0, max_degree=4)
        assert flagged(scan) == {(m,) for m in range(-4, 5) if m}
        assert "kernel frequencies found" in scan.verdict

    def test_half_scale_flags_all_integer_frequencies(self):
        # J_{1/2}(pi m) = 0 for every integer m, so s = 1/2 degenerates too
        scan = kernel_check_torus(D1, 0.5, max_degree=4)
        assert flagged(scan) == {(m,) for m in range(-4, 5) if m}

    def test_generic_scale_flags_nothing(self):
        scan = kernel_check_torus(D1, 0.123, max_degree=4)
        assert flagged(scan) == set()
        assert scan.verdict.startswith("no kernel frequencies")

    def test_two_dimensions_no_integer_zeros(self):
        scan = kernel_check_torus(gradient(2), 0.5, max_degree=3)
        assert flagged(scan) == set()
        row = scan.m.tolist().index([1, 0])
        assert scan.symbol_rank[row] == 1
        assert scan.flag[row] == "nonzero"

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            kernel_check_torus(D1, 0.0)

    def test_near_kernel_scale_is_inconclusive(self):
        # just off s = 1/2, |J_{1/2}(2 pi s m)| is 2.8e-6 to 5.7e-6: above the
        # zero tolerance, below the gray one
        scan = kernel_check_torus(scalar_derivative(), 0.5 + 1e-6, 4)
        assert flagged(scan) == set()
        assert flagged(scan, "inconclusive") == {(m,) for m in range(-4, 5) if m}
        assert set(scan.flag) == {"inconclusive"}
        assert np.all((2e-6 < np.abs(scan.j_value)) & (np.abs(scan.j_value) < 6e-6))
        assert scan.verdict == "no kernel frequencies at tolerance; some values inconclusive"

    @pytest.mark.parametrize(
        "op,s,degree",
        [(D1, 0.5, 6), (gradient(2), 0.37, 5), (divergence(2), 1.0, 4), (curl3(), 0.5, 3), (curl3(), 0.123, 3)],
    )
    def test_matches_frequency_by_frequency_scan(self, op, s, degree):
        # reference scan: one Bessel call and one SVD per frequency, in
        # np.ndindex order
        want = []
        for idx in np.ndindex(*(2 * degree + 1,) * op.n):
            mvec = tuple(i - degree for i in idx)
            if any(mvec):
                norm = sqrt(sum(x * x for x in mvec))
                j = float(bessel_j(op.n / 2.0, 2.0 * pi * s * norm))
                want.append((mvec, norm, wave_rank(op, np.asarray(mvec, float)), j))
        scan = kernel_check_torus(op, s, degree)
        assert scan.m.dtype.kind == "i" and scan.m.shape == (len(want), op.n)
        columns = (scan.m.tolist(), scan.m_norm.tolist(), scan.symbol_rank.tolist(), scan.j_value.tolist())
        assert list(zip(*columns)) == [(list(m), *rest) for m, *rest in want]


class TestWitness:
    def test_half_scale_witness_separates_kernels(self):
        rep = kernel_witness(D1, 0.5, (1,), (1.0,))
        assert rep.sup_spherical < 1e-10
        assert abs(rep.sup_local - 2 * pi) < 1e-6
        assert rep.symbol_rank == 1
        assert rep.advisories == ()

    def test_non_kernel_scale_is_advisory_not_error(self):
        rep = kernel_witness(D1, 0.3, (1,), (1.0,))
        assert rep.sup_spherical > 1e-3
        assert any("not a kernel frequency" in a for a in rep.advisories)

    def test_symbol_kernel_fiber_is_advisory(self):
        # divergence annihilates the fiber orthogonal to m, but other fibers
        # at the same frequency still witness, so this only warns
        rep = kernel_witness(divergence(2), 0.5, (1, 0), (0.0, 1.0))
        assert any("symbol kernel" in a for a in rep.advisories)
        assert rep.symbol_image_norm < 1e-12

    def test_rank_zero_frequency_is_an_error(self):
        one_direction = FirstOrderOperator(
            2, 1, 1, (np.array([[1.0]]), np.array([[0.0]])), name="x1-derivative"
        )
        with pytest.raises(ValueError):
            kernel_witness(one_direction, 0.5, (0, 1), (1.0,))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kernel_witness(D1, 0.5, (0,), (1.0,))
        with pytest.raises(ValueError):
            kernel_witness(D1, 0.5, (1,), (1.0, 2.0))


class TestConstruction:
    def test_coefficient_roundtrip(self):
        N, terms = 16, [((1,), (0.3 - 0.2j,)), ((5,), (0.1j,))]
        u = trig_field_from_coeffs(1, N, 1, terms)
        uhat = np.fft.fft(u.values[:, 0]) / N
        assert abs(uhat[1] - (0.3 - 0.2j)) < 1e-12
        assert abs(uhat[-1] - (0.3 + 0.2j)) < 1e-12
        assert abs(uhat[5] - 0.1j) < 1e-12

    def test_constant_term_real_part_only(self):
        u = trig_field_from_coeffs(1, 8, 1, [((0,), (2.0 + 5.0j,))])
        assert np.allclose(u.values, 2.0)

    def test_nyquist_frequency_rejected(self):
        with pytest.raises(ValueError):
            trig_field_from_coeffs(1, 16, 1, [((8,), (1.0,))])

    def test_bad_term_shapes_rejected(self):
        with pytest.raises(ValueError):
            trig_field_from_coeffs(2, 16, 1, [((1,), (1.0,))])
        with pytest.raises(ValueError):
            trig_field_from_coeffs(1, 16, 2, [((1,), (1.0,))])

    def test_random_field_is_reproducible(self):
        a = random_trig_field(2, 16, 3, np.random.default_rng(42))
        b = random_trig_field(2, 16, 3, np.random.default_rng(42))
        assert np.array_equal(a.values, b.values)

    def test_random_field_degree_guard(self):
        with pytest.raises(ValueError):
            random_trig_field(1, 16, 1, np.random.default_rng(0), max_degree=8)

    def test_random_field_needs_a_nonzero_degree(self):
        # degree 0 leaves only the zero frequency, which is never drawn
        with pytest.raises(ValueError):
            random_trig_field(1, 16, 1, np.random.default_rng(0), max_degree=0)

    def test_field_shape_validation(self):
        with pytest.raises(ValueError):
            TorusField(n=2, N=16, values=np.zeros((16, 8, 1)))
        with pytest.raises(ValueError):
            TorusField(n=1, N=15, values=np.zeros((15, 1)))

    def test_values_are_frozen(self):
        u = sine_field(N=16)
        with pytest.raises(ValueError):
            u.values[0, 0] = 1.0


@st.composite
def first_order_operators(draw):
    """A FirstOrderOperator with n = 1..3, one to four components in and out,
    and standard normal coefficients."""
    n, dim_v, dim_w = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    coeffs = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, dim_w, dim_v))
    return FirstOrderOperator(n, dim_v, dim_w, tuple(coeffs))


class TestNormsAndDuality:
    def test_lp_norm_values(self):
        u = TorusField(n=1, N=8, values=np.full((8, 2), 3.0))
        assert abs(lp_norm(u, 2) - 3.0 * sqrt(2.0)) < 1e-14
        assert abs(lp_norm(u, np.inf) - 3.0 * sqrt(2.0)) < 1e-14

    def test_lp_norm_rejects_small_p(self):
        with pytest.raises(ValueError):
            lp_norm(sine_field(N=16), 0.5)

    @pytest.mark.parametrize("op", [gradient(2), divergence(2), curl3()])
    def test_integration_by_parts(self, op):
        # the adjoint's coefficients carry the sign flip, so on the torus
        # <A u, psi> = <u, A* psi> with the uniform grid measure
        N = 16
        rng = np.random.default_rng(100 + 10 * op.n + op.dim_v)
        u = random_trig_field(op.n, N, op.dim_v, rng, max_degree=3)
        psi = random_trig_field(op.n, N, op.dim_w, rng, max_degree=3)
        left = np.mean(np.sum(apply_local(op, u).values * psi.values, axis=-1))
        right = np.mean(np.sum(u.values * apply_local(adjoint(op), psi).values, axis=-1))
        scale = lp_norm(u, 2) * lp_norm(psi, 2)
        assert abs(left - right) < 1e-8 * scale

    @given(first_order_operators(), st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_integration_by_parts_on_every_route(self, op, seed):
        # every route's symbol is real and odd, so the averaged operators of
        # A and A* stay adjoint on any sphere rule: the direct routes run at
        # order 7 too, where the n = 2 rule has no antipodal pairs
        n, s, w = op.n, 0.2, normalize(bump(op.n, 0.3))
        rng = np.random.default_rng(seed)
        u = random_trig_field(n, 16, op.dim_v, rng, max_degree=3)
        psi = random_trig_field(n, 16, op.dim_w, rng, max_degree=3)
        routes = {
            "local": apply_local,
            "spherical_spectral": lambda a, f: apply_spherical_spectral(a, f, s),
            "radial_spectral": lambda a, f: apply_radial_spectral(a, f, w),
        }
        for order in (7, 8):
            routes[f"spherical_direct {order}"] = lambda a, f, q=order: apply_spherical_direct(a, f, s, q)
            routes[f"radial_direct {order}"] = lambda a, f, q=order: apply_radial_direct(a, f, w, q)
        scale = lp_norm(u, 2) * lp_norm(psi, 2)
        for name, route in routes.items():
            left = np.mean(np.sum(route(op, u).values * psi.values, axis=-1))
            right = np.mean(np.sum(u.values * route(adjoint(op), psi).values, axis=-1))
            assert abs(left - right) <= 1e-13 * scale, name

    def test_spherical_integration_by_parts(self):
        # the ball multiplier is even, so the sphere-scale operators of A
        # and A* stay adjoint to each other
        op, N, s = gradient(2), 16, 0.3
        rng = np.random.default_rng(77)
        u = random_trig_field(2, N, 1, rng, max_degree=3)
        psi = random_trig_field(2, N, 2, rng, max_degree=3)
        left = np.mean(np.sum(apply_spherical_spectral(op, u, s).values * psi.values, axis=-1))
        right = np.mean(np.sum(u.values * apply_spherical_spectral(adjoint(op), psi, s).values, axis=-1))
        assert abs(left - right) < 1e-8 * lp_norm(u, 2) * lp_norm(psi, 2)
