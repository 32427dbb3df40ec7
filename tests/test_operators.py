import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlops.operators import (
    PRESETS,
    FirstOrderOperator,
    adjoint,
    cancellation_residual,
    from_text_file,
    omega_profile,
    preset,
    symbol,
    wave_rank,
    wave_ranks,
)

ALL_PRESET_CASES = [
    (name, n)
    for name in PRESETS
    for n in (1, 2, 3)
    if not (name == "curl" and n != 3) and not (name == "derivative" and n != 1)
]


@pytest.mark.parametrize("name,n", ALL_PRESET_CASES)
def test_cancellation_residual_vanishes(name, n):
    op = preset(name, n)
    assert cancellation_residual(op, quad_order=64) < 1e-10


@pytest.mark.parametrize("name,n", ALL_PRESET_CASES)
def test_presets_are_nontrivial(name, n):
    assert preset(name, n).nontrivial


def test_symbol_of_gradient():
    op = preset("gradient", 3)
    xi = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(symbol(op, xi)[:, 0], xi)


def test_symbol_of_divergence_is_row():
    op = preset("divergence", 2)
    xi = np.array([3.0, 4.0])
    assert symbol(op, xi).shape == (1, 2)
    np.testing.assert_allclose(symbol(op, xi)[0], xi)


def test_curl_symbol_is_cross_product():
    op = preset("curl", 3)
    xi = np.array([1.0, 2.0, 3.0])
    v = np.array([-0.5, 0.7, 0.1])
    np.testing.assert_allclose(symbol(op, xi) @ v, np.cross(xi, v), atol=1e-14)


def test_sym_grad_symbol_is_symmetrized_tensor():
    op = preset("sym-grad", 2)
    xi = np.array([0.3, -1.2])
    v = np.array([0.8, 0.4])
    out = (symbol(op, xi) @ v).reshape(2, 2)
    expected = 0.5 * (np.outer(xi, v) + np.outer(v, xi))
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_omega_profile_normalizes():
    op = preset("gradient", 2)
    xi = np.array([3.0, 4.0])
    np.testing.assert_allclose(omega_profile(op, xi), symbol(op, xi / 5.0))
    with pytest.raises(ValueError):
        omega_profile(op, np.zeros(2))


def test_adjoint_negates_and_transposes():
    op = preset("curl", 3)
    adj = adjoint(op)
    for a, b in zip(op.coeffs, adj.coeffs):
        np.testing.assert_array_equal(b, -a.T)


def test_adjoint_involution():
    op = preset("sym-grad", 3)
    back = adjoint(adjoint(op))
    for a, b in zip(op.coeffs, back.coeffs):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("name,n", ALL_PRESET_CASES)
def test_wave_rank_positive_off_origin(name, n):
    # every preset is elliptic-like in the sense that no nonzero frequency
    # kills the whole symbol
    op = preset(name, n)
    rng = np.random.default_rng(0)
    for _ in range(10):
        xi = rng.normal(size=n)
        assert wave_rank(op, xi) >= 1


def test_wave_rank_zero_at_origin():
    op = preset("gradient", 2)
    assert wave_rank(op, np.zeros(2)) == 0


@pytest.mark.parametrize("name,n", ALL_PRESET_CASES)
def test_wave_rank_is_the_stacked_rank(name, n):
    op = preset(name, n)
    xis = np.vstack([np.zeros(n), np.random.default_rng(7).normal(size=(200, n))])
    assert [wave_rank(op, xi) for xi in xis] == list(wave_ranks(op, xis))
    # a frequency of the wrong length is refused, not read as several rows
    with pytest.raises(ValueError):
        wave_rank(op, np.ones(2 * n))


def test_curl_rank_is_two():
    # A(xi) v = xi x v kills the direction xi itself
    op = preset("curl", 3)
    assert wave_rank(op, np.array([1.0, 1.0, 0.0])) == 2


@given(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=50, deadline=None)
def test_symbol_homogeneity(scale, n):
    op = preset("gradient", n)
    xi = np.linspace(1.0, n, n)
    np.testing.assert_allclose(symbol(op, scale * xi), scale * symbol(op, xi), atol=1e-12)


@given(st.integers(min_value=1, max_value=3))
@settings(max_examples=20, deadline=None)
def test_symbol_additivity(n):
    op = preset("divergence", n)
    rng = np.random.default_rng(n)
    xi, eta = rng.normal(size=(2, n))
    np.testing.assert_allclose(
        symbol(op, xi + eta), symbol(op, xi) + symbol(op, eta), atol=1e-12
    )


def test_validation_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        FirstOrderOperator(n=2, dim_v=1, dim_w=1, coeffs=(np.ones((1, 1)),))
    with pytest.raises(ValueError):
        FirstOrderOperator(n=1, dim_v=2, dim_w=1, coeffs=(np.ones((1, 1)),))


def test_from_text_file_roundtrip(tmp_path):
    path = tmp_path / "op.txt"
    path.write_text(
        "# custom operator: n dim_v dim_w then row-major coefficient entries\n"
        "2 1 2\n"
        "1 0\n"
        "0 1\n"
    )
    op = from_text_file(path)
    assert (op.n, op.dim_v, op.dim_w) == (2, 1, 2)
    np.testing.assert_array_equal(op.coeffs[0], [[1.0], [0.0]])
    np.testing.assert_array_equal(op.coeffs[1], [[0.0], [1.0]])
    # loaded operator behaves like the gradient preset
    xi = np.array([0.25, -1.5])
    np.testing.assert_allclose(symbol(op, xi), symbol(preset("gradient", 2), xi))


def test_from_text_file_rejects_truncated(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1 2\n1 0 0\n")
    with pytest.raises(ValueError):
        from_text_file(path)


def test_unknown_preset_raises():
    with pytest.raises(KeyError):
        preset("laplacian", 2)
    with pytest.raises(ValueError):
        preset("curl", 2)
