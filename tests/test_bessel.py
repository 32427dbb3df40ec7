"""Bessel evaluator checked against scipy.special as an independent oracle."""

from math import pi

import numpy as np
import pytest
from scipy.special import jn_zeros, jv

from nlops.bessel import (
    MAX_ORDER,
    ball_transform,
    bessel_j,
    bessel_j_branch,
    bessel_zero,
    unit_ball_volume,
)

ORDERS = [0.0, 0.5, 1.0, 1.5, 2.0]


@pytest.mark.parametrize("alpha", ORDERS)
def test_matches_scipy_over_wide_range(alpha):
    t = np.concatenate([np.linspace(1e-4, 8, 400), np.linspace(8, 1000, 2000)])
    np.testing.assert_allclose(bessel_j(alpha, t), jv(alpha, t), atol=5e-13, rtol=0)


@pytest.mark.parametrize("alpha", [3.0, 4.0, 5.0])
def test_matches_scipy_up_to_the_largest_order(alpha):
    t = np.concatenate([np.linspace(1e-4, 8, 400), np.linspace(8, 1000, 2000)])
    np.testing.assert_allclose(bessel_j(alpha, t), jv(alpha, t), atol=1e-10, rtol=0)


@pytest.mark.parametrize("alpha", [2.5, 3.5, 4.5])
def test_half_integer_orders_take_the_exact_hankel_form(alpha):
    # the Hankel expansion terminates for half-integer orders, so above the
    # series window it is exact and no quadrature error enters
    t = np.concatenate([np.linspace(1e-4, 8, 400), np.linspace(8, 1000, 2000)])
    np.testing.assert_allclose(bessel_j(alpha, t), jv(alpha, t), atol=5e-14, rtol=0)


@pytest.mark.parametrize("alpha", [MAX_ORDER + 0.5, 10.0, -1.0])
def test_orders_outside_the_range_rejected(alpha):
    with pytest.raises(ValueError, match=r"\[0, 5\]"):
        bessel_j(alpha, 1.0)
    with pytest.raises(ValueError):
        bessel_zero(alpha, 1)


@pytest.mark.parametrize("alpha", ORDERS)
def test_branch_overlap_consistency(alpha):
    # series and quadrature branches agree on an overlap strip, and the
    # quadrature and asymptotic branches agree on another
    t_lo = np.linspace(4.0, 10.0, 50)
    d1 = bessel_j_branch(alpha, t_lo, "series") - bessel_j_branch(alpha, t_lo, "poisson")
    assert np.max(np.abs(d1)) < 1e-12
    t_hi = np.linspace(31.0 + alpha**2, 40.0 + alpha**2, 50)
    d2 = bessel_j_branch(alpha, t_hi, "poisson") - bessel_j_branch(alpha, t_hi, "asymptotic")
    assert np.max(np.abs(d2)) < 1e-12


def test_half_order_closed_form():
    t = np.arange(0.1, 50.0001, 0.01)
    closed = np.sqrt(2.0 / (np.pi * t)) * np.sin(t)
    assert np.max(np.abs(bessel_j(0.5, t) - closed)) < 5e-14


def test_three_halves_closed_form_beyond_the_series():
    # J_{3/2}(t) = sqrt(2/(pi t)) (sin t / t - cos t), DLMF 10.49.3
    t = np.arange(8.0, 50.0001, 0.01)
    closed = np.sqrt(2.0 / (np.pi * t)) * (np.sin(t) / t - np.cos(t))
    assert np.max(np.abs(bessel_j(1.5, t) - closed)) < 5e-15


def test_scalar_input_returns_scalar():
    val = bessel_j(1.0, 2.5)
    assert np.ndim(val) == 0
    assert np.isclose(val, jv(1.0, 2.5))


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        bessel_j(0.5, -1.0)


# first five positive zeros of J_1, from an independent tabulation
J1_ZEROS = [
    3.831705970207512,
    7.015586669815619,
    10.173468135062722,
    13.323691936314223,
    16.470630050877634,
]


@pytest.mark.parametrize("k,expected", list(enumerate(J1_ZEROS, start=1)))
def test_j1_zeros_frozen(k, expected):
    assert abs(bessel_zero(1.0, k) - expected) < 1e-11


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5, 2.0])
def test_zeros_match_scipy_ordering(alpha):
    if alpha == int(alpha):
        expected = jn_zeros(int(alpha), 6)
        got = [bessel_zero(alpha, k) for k in range(1, 7)]
        np.testing.assert_allclose(got, expected, atol=1e-11)
    else:
        # half-integer zeros of J_{1/2} are k*pi exactly
        if alpha == 0.5:
            got = [bessel_zero(0.5, k) for k in range(1, 7)]
            np.testing.assert_allclose(got, np.pi * np.arange(1, 7), atol=1e-11)


def test_zero_residuals_small():
    for alpha in ORDERS:
        for k in (1, 3, 7):
            z = bessel_zero(alpha, k)
            assert abs(bessel_j(alpha, z)) < 1e-11


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0, 1.5, 2.0, 2.7, 5.0])
def test_each_value_depends_on_its_own_argument_alone(alpha):
    # an array call returns each point's scalar value bit for bit, whatever
    # else the array holds: the whole pool (points within 1e-14 of zeros, on
    # the branch edges 8, 2 alpha and 30 + alpha^2, and across every branch)
    # and random subsets of 1 to 300 of its points
    rng = np.random.default_rng(int(10 * alpha))
    edges = np.array([8.0, 2.0 * alpha, 30.0 + alpha**2])
    near_zeros = np.array([bessel_zero(alpha, k) for k in range(1, 13)])
    pool = np.concatenate(
        [
            edges,
            np.nextafter(edges, 0.0),
            np.nextafter(edges, 1e3),
            near_zeros + rng.uniform(-1e-14, 1e-14, 12),
            rng.uniform(0.0, 60.0, 300),
            rng.uniform(0.0, 1e3, 300),
        ]
    )
    want = np.array([bessel_j(alpha, x) for x in pool])
    for size in [pool.size, *rng.integers(1, 301, size=8)]:
        pick = rng.permutation(pool.size)[:size]
        assert np.array_equal(bessel_j(alpha, pool[pick]), want[pick])


def test_hankel_sums_stop_per_point():
    # at alpha = 0.3 the point 30.1, near the Hankel edge, needs more terms
    # than the two others; their sums must not take those extra terms, which
    # move their last bits
    t = np.array([30.1, 43.68262034980364, 34.35725444657504])
    assert bessel_j(0.3, t).tolist() == [bessel_j(0.3, x) for x in t]


def scalar_zero_walk(alpha, k):
    """The k-th zero by one scalar Bessel call per grid point and bisection
    step: a sign-change walk from max(alpha, 1) in steps of pi/4."""
    step = pi / 4.0
    lo = max(alpha, 1.0)
    found = 0
    f_lo = bessel_j(alpha, lo)
    while True:
        hi = lo + step
        f_hi = bessel_j(alpha, hi)
        if f_lo == 0.0:
            found += 1
            if found == k:
                return lo
        elif f_lo * f_hi < 0.0:
            found += 1
            if found == k:
                left, right, f_left = lo, hi, f_lo
                for _ in range(100):
                    mid = 0.5 * (left + right)
                    f_mid = bessel_j(alpha, mid)
                    if f_mid == 0.0:
                        return mid
                    if f_left * f_mid < 0.0:
                        right = mid
                    else:
                        left, f_left = mid, f_mid
                    if right - left < 1e-13:
                        break
                return 0.5 * (left + right)
        lo, f_lo = hi, f_hi


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0, 2.5, 2.7, 3.7, 5.0])
def test_zeros_match_the_scalar_walk_bit_for_bit(alpha):
    ks = np.arange(1, 26)
    got = bessel_zero(alpha, ks)
    assert got.shape == ks.shape
    assert got.tolist() == [scalar_zero_walk(alpha, int(k)) for k in ks]
    assert [bessel_zero(alpha, int(k)) for k in (1, 9, 25)] == got[[0, 8, 24]].tolist()


@pytest.mark.parametrize("alpha", [1.0, 5.0])
def test_brackets_stop_once_the_midpoint_meets_an_end(monkeypatch, alpha):
    # above 512 the float spacing exceeds 1e-13, so the width rule alone
    # never stops a bracket there and all 100 bisection passes run after
    # the grid call; stopping where the midpoint rounds to an end moves no
    # zero, from the first brackets above 512 (k = 161 at alpha = 5, 163 at
    # alpha = 1) to the last
    calls = []

    def counted(a, t):
        calls.append(np.size(t))
        return bessel_j(a, t)

    monkeypatch.setattr("nlops.bessel.bessel_j", counted)
    got = bessel_zero(alpha, np.arange(1, 2001))
    monkeypatch.undo()
    assert len(calls) < 101
    for k in (161, 163, 700, 2000):
        assert got[k - 1] == scalar_zero_walk(alpha, k)


def test_zero_indices_keep_their_shape_and_order():
    ks = np.array([[7, 1], [3, 3]])
    got = bessel_zero(1.0, ks)
    assert got.shape == (2, 2)
    assert got[0, 0] == bessel_zero(1.0, 7) and got[1, 0] == got[1, 1] == bessel_zero(1.0, 3)
    assert bessel_zero(1.0, np.array([], dtype=int)).shape == (0,)


@pytest.mark.parametrize("k", [0, -2, 1.5, np.array([1, 0]), np.array([1.0, 2.0])])
def test_bad_zero_indices_rejected(k):
    with pytest.raises(ValueError, match="integer >= 1"):
        bessel_zero(1.0, k)


@pytest.mark.parametrize("alpha", [0, 1, 2, 5])
def test_two_thousand_zeros_match_scipy(alpha):
    # the pi/4 grid is sized from McMahon's expansion of the zeros, so it
    # reaches the 2000th zero at every order
    got = bessel_zero(float(alpha), np.arange(1, 2001))
    assert np.max(np.abs(got - jn_zeros(alpha, 2000))) < 1.1e-10


def test_unit_ball_volumes():
    np.testing.assert_allclose(
        [unit_ball_volume(n) for n in (1, 2, 3)],
        [2.0, np.pi, 4.0 * np.pi / 3.0],
        rtol=1e-15,
    )


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [0.1, 0.7, 2.0])
def test_ball_transform_is_one_at_zero_frequency(n, r):
    assert abs(ball_transform(n, r, 0.0) - 1.0) < 1e-12


def test_ball_transform_1d_is_sinc():
    xi = np.linspace(0.0, 20.0, 4001)
    got = ball_transform(1, 1.0, xi)
    # sin(2 pi xi) / (2 pi xi) with the removable singularity at 0
    expected = np.sinc(2.0 * xi)
    assert np.max(np.abs(got - expected)) < 1e-10


def test_ball_transform_series_branch_continuity():
    # values straddling the small-argument series cut stay consistent
    n, r = 2, 1.0
    cut = 1e-3 / (2.0 * np.pi * r)
    xi = np.array([cut * 0.5, cut * 0.99, cut * 1.01, cut * 2.0])
    vals = ball_transform(n, r, xi)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(np.diff(vals))) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_transform_matches_bessel_formula(n):
    from math import gamma, pi

    omega_n = pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)
    r, xi = 0.8, np.linspace(0.3, 9.0, 40)
    expected = jv(n / 2.0, 2.0 * np.pi * r * xi) / (omega_n * (r * xi) ** (n / 2.0))
    np.testing.assert_allclose(ball_transform(n, r, xi), expected, atol=1e-12)


def test_ball_transform_decays():
    xi = np.linspace(30.0, 80.0, 200)
    assert np.max(np.abs(ball_transform(3, 1.0, xi))) < 0.05
